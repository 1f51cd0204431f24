//! `run_shard_campaign` computes the grid fingerprint only when something
//! reads it — a resume check or an emitted checkpoint — and then once per
//! call, never once per shard chunk. Counted on the process-global
//! `faultsim.fingerprint` counter, so this file holds a single test.

use talft_compiler::{compile, CompileOptions};
use talft_faultsim::{
    golden_run, run_shard_campaign, single_fault_plans, CampaignConfig, ShardControl, ShardSpec,
};
use talft_suite::{kernels, Scale};

fn fingerprints() -> u64 {
    talft_obs::snapshot()
        .counters
        .get("faultsim.fingerprint")
        .copied()
        .unwrap_or(0)
}

#[test]
fn shard_runs_fingerprint_only_when_a_checkpoint_needs_it() {
    let k = &kernels(Scale::Tiny)[0];
    let c = compile(&k.source, &CompileOptions::default()).expect("compiles");
    let p = &c.protected.program;
    let cfg = CampaignConfig {
        stride: 97,
        mutations_per_site: 1,
        threads: 2,
        ..CampaignConfig::default()
    };
    let golden = golden_run(p, &cfg).expect("golden halts");
    let plans = single_fault_plans(p, &cfg, &golden);
    let spec = ShardSpec::new(1, 4).expect("valid spec");
    assert!(
        spec.range(plans.len()).len() > 8,
        "shard too small to checkpoint"
    );
    talft_obs::set_enabled(true);

    let before = fingerprints();
    run_shard_campaign(p, &cfg, &golden, &plans, spec, 0, None, |_| {
        ShardControl::Continue
    })
    .expect("shard runs");
    assert_eq!(fingerprints() - before, 0, "no checkpoint, no resume");

    let before = fingerprints();
    let mut checkpoints = 0;
    run_shard_campaign(p, &cfg, &golden, &plans, spec, 4, None, |_| {
        checkpoints += 1;
        ShardControl::Continue
    })
    .expect("shard runs");
    assert!(checkpoints > 1, "several checkpoints share one fingerprint");
    assert_eq!(fingerprints() - before, 1, "one fingerprint per call");
}
