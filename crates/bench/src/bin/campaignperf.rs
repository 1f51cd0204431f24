//! **campaignperf** — the E16/E19 engine differential: the bit-parallel
//! batched campaign engine timed three-way against the scalar checkpointed
//! work-stealing engine and the pre-checkpoint reference engine on the same
//! plan sets.
//!
//! Per Tiny-scale kernel, compile the protected binary, build the k=1 plan
//! set once, then run [`run_plan_campaign_reference`],
//! [`run_plan_campaign_scalar`] and [`run_plan_campaign_batched`] on it
//! with the same pinned thread count. All three reports must be
//! bit-identical and SDC must be zero (Theorem 4); the row records each
//! engine's wall time and plans/sec, and the document carries per-engine
//! verdict totals so `--check` can re-prove the agreement offline. The
//! `batch` object breaks demotions down by cause (the
//! `faultsim.batch.demote.*` counters) and records the multi-strike lane
//! count, so the residual scalar work is attributable from the report
//! alone. The `host` block records nproc and the pinned thread count.
//!
//! Usage: `cargo run --release -p talft-bench --bin campaignperf
//!          [--json <path>] [--check <path>] [--threads N] [--stride N]
//!          [--checkpoint-stride N]`
//!
//! `--json` defaults to `BENCH_campaign.json`; `--threads` defaults to 4
//! (pinned, not `available_parallelism`, so rows are comparable across
//! machines); `--stride` (campaign time stride) defaults to 3;
//! `--checkpoint-stride` defaults to 0 (engine auto). `--check <path>`
//! parses an existing report with the dep-free [`talft_obs::Json`] parser
//! and gates on the *count* invariants — nonzero checkpoint reuse, nonzero
//! batched lanes, a per-cause demotion breakdown that
//! sums to the demotion total, a demoted-lane fraction of at most 2%, zero
//! SDC, and field-by-field equality of the per-engine verdict totals —
//! never on timings, which vary by machine.

use std::time::Instant;

use talft_bench::report::{self, campaign_json, Report};
use talft_compiler::{compile, CompileOptions};
use talft_faultsim::{
    golden_run, run_plan_campaign_batched, run_plan_campaign_reference, run_plan_campaign_scalar,
    single_fault_plans, CampaignConfig, CampaignReport,
};
use talft_obs::Json;
use talft_suite::{kernels, Scale};

/// Schema tag of the document this bin writes and `--check` accepts.
const SCHEMA: &str = "talft.campaignperf.v4";

/// Required top-level keys of a `talft.campaignperf.v4` document.
const REQUIRED: &[&str] = &[
    "schema",
    "host",
    "threads",
    "stride",
    "checkpoint_stride",
    "rows",
    "totals",
    "checkpoints",
    "batch",
];

/// The verdict-count fields every engine must agree on, exactly. These are
/// the u64 fields of [`campaign_json`]; timings are deliberately absent.
const VERDICT_FIELDS: &[&str] = &[
    "total",
    "masked",
    "detected",
    "sdc",
    "other_violations",
    "engine_errors",
    "incomplete_plans",
];

/// The demotion-cause counters, in taxonomy order; `--check` demands they
/// sum exactly to `batch.demotions`.
const DEMOTE_CAUSES: &[&str] = &[
    "queue_addr",
    "mem_commit",
    "gpr_hi",
    "load_addr",
    "control_fork",
    "terminal",
];

/// Summed verdict counts for one engine across every kernel.
#[derive(Default)]
struct VerdictTotals {
    total: u64,
    masked: u64,
    detected: u64,
    sdc: u64,
    other_violations: u64,
    engine_errors: u64,
    incomplete_plans: u64,
}

impl VerdictTotals {
    fn add(&mut self, r: &CampaignReport) {
        self.total += r.total;
        self.masked += r.masked;
        self.detected += r.detected;
        self.sdc += r.sdc;
        self.other_violations += r.other_violations;
        self.engine_errors += r.engine_errors;
        self.incomplete_plans += r.incomplete_plans;
    }

    fn json(&self) -> Json {
        Json::obj([
            ("total", Json::U64(self.total)),
            ("masked", Json::U64(self.masked)),
            ("detected", Json::U64(self.detected)),
            ("sdc", Json::U64(self.sdc)),
            ("other_violations", Json::U64(self.other_violations)),
            ("engine_errors", Json::U64(self.engine_errors)),
            ("incomplete_plans", Json::U64(self.incomplete_plans)),
        ])
    }
}

fn main() {
    if let Some(path) = report::arg_str("--check") {
        check_existing(&path);
        return;
    }
    let threads = usize::try_from(report::arg("--threads").unwrap_or(4)).unwrap_or(4);
    let stride = report::arg("--stride").unwrap_or(3);
    let checkpoint_stride = report::arg("--checkpoint-stride").unwrap_or(0);
    let path = report::json_path().unwrap_or_else(|| "BENCH_campaign.json".into());

    talft_obs::set_enabled(true);
    let ks = kernels(Scale::Tiny);

    let mut compiled = Vec::new();
    for k in &ks {
        match compile(&k.source, &CompileOptions::default()) {
            Ok(c) => compiled.push((k.name, c)),
            Err(e) => {
                eprintln!("error: {}: {e}", k.name);
                std::process::exit(1);
            }
        }
    }

    // Campaign differential, threads pinned.
    let cfg = CampaignConfig {
        stride,
        mutations_per_site: 2,
        threads,
        checkpoint_stride,
        ..CampaignConfig::default()
    };
    talft_obs::reset_all();
    let mut rows = Vec::new();
    let (mut tot_plans, mut tot_ref_ns, mut tot_eng_ns, mut tot_bat_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut ref_tot, mut eng_tot, mut bat_tot) = (
        VerdictTotals::default(),
        VerdictTotals::default(),
        VerdictTotals::default(),
    );
    for (name, c) in &compiled {
        let golden = match golden_run(&c.protected.program, &cfg) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("error: {name}: {e}");
                std::process::exit(1);
            }
        };
        let plans = single_fault_plans(&c.protected.program, &cfg, &golden);
        let t0 = Instant::now();
        let ref_rep = run_plan_campaign_reference(&c.protected.program, &cfg, &golden, &plans);
        let ref_ns = ns(t0.elapsed());
        let t0 = Instant::now();
        let eng_rep = run_plan_campaign_scalar(&c.protected.program, &cfg, &golden, &plans);
        let eng_ns = ns(t0.elapsed());
        let t0 = Instant::now();
        let bat_rep = run_plan_campaign_batched(&c.protected.program, &cfg, &golden, &plans);
        let bat_ns = ns(t0.elapsed());
        if eng_rep != ref_rep {
            eprintln!("error: {name}: scalar engine report diverged from the reference engine");
            std::process::exit(1);
        }
        if bat_rep != ref_rep {
            eprintln!("error: {name}: batched engine report diverged from the reference engine");
            std::process::exit(1);
        }
        if eng_rep.sdc != 0 {
            eprintln!("error: {name}: SDC on a protected binary (Theorem 4 violated)");
            std::process::exit(1);
        }
        let plans_n = plans.len() as u64;
        tot_plans += plans_n;
        tot_ref_ns += ref_ns;
        tot_eng_ns += eng_ns;
        tot_bat_ns += bat_ns;
        ref_tot.add(&ref_rep);
        eng_tot.add(&eng_rep);
        bat_tot.add(&bat_rep);
        eprintln!(
            "{name:>10}: {plans_n:>6} plans  reference {:>10.0} plans/s  scalar {:>10.0} plans/s  batched {:>10.0} plans/s  ({:.2}x)",
            per_sec(plans_n, ref_ns),
            per_sec(plans_n, eng_ns),
            per_sec(plans_n, bat_ns),
            ratio(eng_ns, bat_ns),
        );
        rows.push(Json::obj([
            ("name", Json::str(*name)),
            ("plans", Json::U64(plans_n)),
            ("reference_ns", Json::U64(ref_ns)),
            ("engine_ns", Json::U64(eng_ns)),
            ("batched_ns", Json::U64(bat_ns)),
            (
                "reference_plans_per_sec",
                Json::F64(per_sec(plans_n, ref_ns)),
            ),
            ("engine_plans_per_sec", Json::F64(per_sec(plans_n, eng_ns))),
            ("batched_plans_per_sec", Json::F64(per_sec(plans_n, bat_ns))),
            ("speedup", Json::F64(ratio(ref_ns, eng_ns))),
            ("batched_speedup", Json::F64(ratio(eng_ns, bat_ns))),
            ("sdc", Json::U64(eng_rep.sdc)),
            ("report", campaign_json(&eng_rep)),
        ]));
    }
    let campaign = talft_obs::snapshot();

    let json = Report::new(SCHEMA)
        .field("host", report::host_json(threads))
        .field("threads", Json::U64(threads as u64))
        .field("stride", Json::U64(stride))
        .field("checkpoint_stride", Json::U64(checkpoint_stride))
        .field("kernels", Json::U64(ks.len() as u64))
        .field("rows", Json::Array(rows))
        .field(
            "totals",
            Json::obj([
                ("plans", Json::U64(tot_plans)),
                ("reference_ns", Json::U64(tot_ref_ns)),
                ("engine_ns", Json::U64(tot_eng_ns)),
                ("batched_ns", Json::U64(tot_bat_ns)),
                (
                    "reference_plans_per_sec",
                    Json::F64(per_sec(tot_plans, tot_ref_ns)),
                ),
                (
                    "engine_plans_per_sec",
                    Json::F64(per_sec(tot_plans, tot_eng_ns)),
                ),
                (
                    "batched_plans_per_sec",
                    Json::F64(per_sec(tot_plans, tot_bat_ns)),
                ),
                ("speedup", Json::F64(ratio(tot_ref_ns, tot_eng_ns))),
                ("batched_speedup", Json::F64(ratio(tot_eng_ns, tot_bat_ns))),
                (
                    "verdicts",
                    Json::obj([
                        ("reference", ref_tot.json()),
                        ("engine", eng_tot.json()),
                        ("batched", bat_tot.json()),
                    ]),
                ),
            ]),
        )
        .field(
            "checkpoints",
            Json::obj([
                (
                    "seeks",
                    Json::U64(counter(&campaign, "campaign.checkpoint.seeks")),
                ),
                (
                    "steps_saved",
                    Json::U64(counter(&campaign, "campaign.checkpoint.steps_saved")),
                ),
                (
                    "converged_early",
                    Json::U64(counter(&campaign, "campaign.converged_early")),
                ),
                (
                    "converged_steps_saved",
                    Json::U64(counter(&campaign, "campaign.converged.steps_saved")),
                ),
            ]),
        )
        .field(
            "batch",
            Json::obj([
                (
                    "lanes",
                    Json::U64(counter(&campaign, "faultsim.batch.lanes")),
                ),
                (
                    "multi_lanes",
                    Json::U64(counter(&campaign, "faultsim.batch.multi_lanes")),
                ),
                (
                    "demotions",
                    Json::U64(counter(&campaign, "faultsim.batch.demotions")),
                ),
                (
                    "scalar_routed",
                    Json::U64(counter(&campaign, "faultsim.batch.scalar_routed")),
                ),
                (
                    "demote",
                    Json::obj(DEMOTE_CAUSES.iter().map(|c| {
                        (
                            *c,
                            Json::U64(counter(&campaign, &format!("faultsim.batch.demote.{c}"))),
                        )
                    })),
                ),
            ]),
        )
        .build();
    report::write_json(&json, &path);

    eprintln!(
        "totals: {tot_plans} plans, engine speedup {:.2}x, batched {:.2}x over engine",
        ratio(tot_ref_ns, tot_eng_ns),
        ratio(tot_eng_ns, tot_bat_ns),
    );
}

fn counter(snap: &talft_obs::Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn per_sec(n: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        0.0
    } else {
        n as f64 * 1e9 / nanos as f64
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Validate an existing report: parse, check the schema contract, then gate
/// on the machine-independent count invariants. Exit 0 on success.
fn check_existing(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("campaignperf: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let json = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("campaignperf: {path} is not valid JSON: {e}");
            std::process::exit(1);
        }
    };
    for key in REQUIRED {
        if json.get(key).is_none() {
            eprintln!("campaignperf: {path} is missing required key {key:?}");
            std::process::exit(1);
        }
    }
    if json.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        eprintln!("campaignperf: {path} has an unexpected schema tag");
        std::process::exit(1);
    }
    let fail = |msg: &str| -> ! {
        eprintln!("campaignperf: {path}: {msg}");
        std::process::exit(1);
    };
    let u64_at = |j: &Json, outer: &str, key: &str| -> u64 {
        match j.get(outer).and_then(|o| o.get(key)).and_then(Json::as_u64) {
            Some(v) => v,
            None => fail(&format!("missing {outer}.{key}")),
        }
    };
    // Count invariants — machine-independent, unlike the timings.
    if u64_at(&json, "checkpoints", "seeks") == 0 {
        fail("checkpoint ring was never used (checkpoints.seeks == 0)");
    }
    if u64_at(&json, "batch", "lanes") == 0 {
        fail("batched engine never packed a lane (batch.lanes == 0)");
    }
    // The demotion-cause taxonomy is total, and the queue/`d` shadows keep
    // the residual scalar work small: at most 2% of admitted lanes may
    // demote. Both are count invariants — a regression here means shadow
    // coverage shrank, not that the machine got slower.
    let lanes = u64_at(&json, "batch", "lanes");
    let demotions = u64_at(&json, "batch", "demotions");
    let cause_sum: u64 = DEMOTE_CAUSES
        .iter()
        .map(|c| {
            match json
                .get("batch")
                .and_then(|b| b.get("demote"))
                .and_then(|d| d.get(c))
                .and_then(Json::as_u64)
            {
                Some(v) => v,
                None => fail(&format!("missing batch.demote.{c}")),
            }
        })
        .sum();
    if cause_sum != demotions {
        fail(&format!(
            "per-cause demotions sum to {cause_sum} but batch.demotions is {demotions}"
        ));
    }
    if demotions * 50 > lanes {
        fail(&format!(
            "demoted-lane fraction {demotions}/{lanes} exceeds the 2% budget"
        ));
    }
    if json
        .get("batch")
        .and_then(|b| b.get("multi_lanes"))
        .and_then(Json::as_u64)
        .is_none()
    {
        fail("missing batch.multi_lanes");
    }
    let Some(Json::Array(rows)) = json.get("rows") else {
        fail("rows is not an array");
    };
    if rows.is_empty() {
        fail("rows is empty");
    }
    for row in rows {
        let name = row.get("name").and_then(Json::as_str).unwrap_or("?");
        if row.get("sdc").and_then(Json::as_u64) != Some(0) {
            fail(&format!("kernel {name} reports SDC on a protected binary"));
        }
        if row.get("batched_ns").and_then(Json::as_u64).is_none() {
            fail(&format!("kernel {name} is missing batched_ns"));
        }
    }
    // The three-way differential, re-proved offline: every engine's summed
    // verdict counts must agree field-by-field. Any divergence is a
    // verdict-exactness regression, not a tuning matter — exit nonzero and
    // name the field.
    let Some(verdicts) = json.get("totals").and_then(|t| t.get("verdicts")) else {
        fail("missing totals.verdicts");
    };
    for field in VERDICT_FIELDS {
        let at = |engine: &str| -> u64 {
            match verdicts
                .get(engine)
                .and_then(|e| e.get(field))
                .and_then(Json::as_u64)
            {
                Some(v) => v,
                None => fail(&format!("missing totals.verdicts.{engine}.{field}")),
            }
        };
        let (r, e, b) = (at("reference"), at("engine"), at("batched"));
        if e != r || b != r {
            fail(&format!(
                "engines disagree on {field}: reference={r} engine={e} batched={b}"
            ));
        }
    }
    if verdicts
        .get("reference")
        .and_then(|e| e.get("sdc"))
        .and_then(Json::as_u64)
        != Some(0)
    {
        fail("protected-suite totals report nonzero SDC");
    }
    println!("campaignperf: {path} OK (schema {SCHEMA}, engines agree)");
}
