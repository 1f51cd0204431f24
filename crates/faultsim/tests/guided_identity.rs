//! Static-guided k=2 prioritization must be **verdict-neutral**: the
//! guided engine only permutes the order workers claim plans, so its
//! report must be bit-identical to the unguided engine's on the same
//! inputs — for *any* hotness mask, gated or not, at any thread count.

use std::sync::Arc;

use talft_faultsim::{
    exhaustive_pair_plans, golden_run, multi_fault_plans, plan_fault_grid_against,
    run_plan_campaign, run_plan_campaign_guided, CampaignConfig, FaultPlan, Golden, Strike,
    Verdict,
};
use talft_isa::assemble;
use talft_isa::Program;
use talft_machine::{mutations, read_site, sites, step, Machine};

fn arc(src: &str) -> Arc<Program> {
    Arc::new(assemble(src).expect("assembles").program)
}

/// Protected store pair over a small register file (keeps the strike
/// universe — and the quadratic pair grid — small).
const PROTECTED: &str = r#"
.gprs 9
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
  mov r3, B 5
  mov r4, B 4096
  stB r4, r3
  halt
"#;

/// One register feeds both sides of the store pair: single zaps already
/// produce SDC, so gated campaigns have violations to stop on.
const UNPROTECTED: &str = r#"
.gprs 9
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
  stB r2, r1
  halt
"#;

fn masks(n: usize) -> Vec<Vec<bool>> {
    vec![
        vec![false; n],
        vec![true; n],
        (0..n).map(|i| i % 3 == 0).collect(),
        (0..n).map(|i| i >= n / 2).collect(),
    ]
}

#[test]
fn guided_report_is_bit_identical_ungated() {
    let p = arc(PROTECTED);
    let cfg = CampaignConfig {
        pair_samples: 96,
        threads: 4,
        ..CampaignConfig::default()
    };
    let golden = golden_run(&p, &cfg).expect("halts");
    let plans = multi_fault_plans(&p, &cfg, &golden, 2);
    assert!(!plans.is_empty());
    let baseline = run_plan_campaign(&p, &cfg, &golden, &plans);
    for hot in masks(plans.len()) {
        let guided = run_plan_campaign_guided(&p, &cfg, &golden, &plans, &hot);
        assert_eq!(guided, baseline, "guidance must not change the report");
    }
}

#[test]
fn guided_report_is_bit_identical_gated() {
    let p = arc(UNPROTECTED);
    let cfg = CampaignConfig {
        stride: 1,
        mutations_per_site: 1,
        pair_samples: 64,
        threads: 3,
        stop_on_first_violation: true,
        ..CampaignConfig::default()
    };
    let golden = golden_run(&p, &cfg).expect("halts");
    let plans = multi_fault_plans(&p, &cfg, &golden, 2);
    assert!(!plans.is_empty());
    let baseline = run_plan_campaign(&p, &cfg, &golden, &plans);
    assert!(
        baseline.sdc > 0 || baseline.stopped_early || baseline.total > 0,
        "gated baseline ran"
    );
    for hot in masks(plans.len()) {
        let guided = run_plan_campaign_guided(&p, &cfg, &golden, &plans, &hot);
        assert_eq!(guided, baseline, "gated stop must land on the same prefix");
    }
}

#[test]
fn exhaustive_pair_plans_cover_the_strike_square() {
    let p = arc(PROTECTED);
    let cfg = CampaignConfig {
        stride: 4,
        mutations_per_site: 1,
        ..CampaignConfig::default()
    };
    let golden = golden_run(&p, &cfg).expect("halts");
    let plans = exhaustive_pair_plans(&p, &cfg, &golden);
    assert!(!plans.is_empty());
    for pl in &plans {
        assert_eq!(pl.order(), 2);
        assert!(pl.strikes[0].at_step <= pl.strikes[1].at_step);
    }
    // Quadratic by construction: n strikes → n·(n−1)/2 unordered pairs.
    let strikes: std::collections::HashSet<_> = plans
        .iter()
        .flat_map(|pl| pl.strikes.iter().map(|s| (s.at_step, s.site, s.value)))
        .collect();
    let n = strikes.len();
    assert_eq!(plans.len(), n * (n - 1) / 2);
}

/// Every unordered pair of the strikes at each third step of the golden
/// run (every site, first mutation) — `exhaustive_pair_plans` at stride 3
/// with one mutation per site, built by hand because `TALFT_STRIDE_SCALE`
/// multiplies that function's stride: this grid is the same at every
/// scale.
fn stride_3_pair_plans(p: &Arc<Program>, cfg: &CampaignConfig, golden: &Golden) -> Vec<FaultPlan> {
    let mut strikes = Vec::new();
    let mut m = Machine::boot(Arc::clone(p)).with_oob_policy(cfg.oob);
    loop {
        let at = m.steps();
        if at.is_multiple_of(3) {
            for site in sites(&m) {
                let old = read_site(&m, site).expect("listed sites exist");
                let value = mutations(old)[0];
                strikes.push(Strike {
                    at_step: at,
                    site,
                    value,
                });
            }
        }
        if at >= golden.steps || !m.status().is_running() {
            break;
        }
        step(&mut m);
    }
    let mut plans = Vec::new();
    for (i, &a) in strikes.iter().enumerate() {
        for &b in &strikes[i + 1..] {
            plans.push(FaultPlan::new(vec![a, b]));
        }
    }
    plans
}

#[test]
fn plan_grid_verdicts_match_the_campaign() {
    let p = arc(UNPROTECTED);
    let cfg = CampaignConfig {
        stride: 3,
        mutations_per_site: 1,
        ..CampaignConfig::default()
    };
    let golden = golden_run(&p, &cfg).expect("halts");
    let plans = stride_3_pair_plans(&p, &cfg, &golden);
    if cfg.effective_stride() == 3 {
        // Unscaled, the library builds the very same grid.
        assert_eq!(plans, exhaustive_pair_plans(&p, &cfg, &golden));
    }
    let grid = plan_fault_grid_against(&p, &cfg, &golden, &plans);
    assert_eq!(grid.outcomes.len(), plans.len());
    assert_eq!(
        grid.trace.pc_by_step.len() as u64,
        grid.trace.golden_steps + 1
    );
    // Outcomes stay in caller order with their strikes attached.
    for (pl, o) in plans.iter().zip(&grid.outcomes) {
        assert_eq!(pl.strikes, o.strikes);
        assert!(o.applied <= pl.order());
    }
    let rep = run_plan_campaign(&p, &cfg, &golden, &plans);
    assert_eq!(grid.count(Verdict::Sdc) as u64, rep.sdc);
    assert_eq!(grid.count(Verdict::Detected) as u64, rep.detected);
    assert_eq!(grid.count(Verdict::Masked) as u64, rep.masked);
    // The unprotected kernel's double strikes do find the boundary.
    assert!(grid.sdc().count() > 0, "unprotected pairs must score SDC");
}
