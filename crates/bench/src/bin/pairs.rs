//! E22 / **static pair-fault coverage table**: the compositional k=2
//! pair analyzer (talft-analysis) cross-validated against k=2 injection
//! campaigns over every suite kernel. Three hard gates, any failure
//! exits nonzero:
//!
//! * a **pair-differential mismatch** — a statically Detected/Benign
//!   cell *pair* that a two-strike plan drove to SDC — contradicts the
//!   compositional analyzer's soundness claim;
//! * a **guided/unguided report divergence** — static-guided plan
//!   prioritization must be verdict-neutral (bit-identical reports);
//! * an **analyzer bail** on a suite kernel (all kernels fit the
//!   two-word taint mask).
//!
//! Per kernel the table reports the static pair tally (detected /
//! benign / vulnerable, with the vulnerable split into single-member
//! and genuinely cooperative defeats) and the *static k=2 coverage* —
//! the fraction of unordered cell pairs provably safe under two upsets
//! — next to the sampled-grid evidence. The first kernels additionally
//! get an **exhaustive** pair grid (every unordered pair of a strided
//! strike universe).
//!
//! Usage: `cargo run --release -p talft-bench --bin pairs
//!          [-- --stride N] [--samples N] [--exhaustive N]
//!          [--json <path>] [--check <path>]`
//!
//! `--stride N` (default 17) thins the strike universe; `--samples N`
//! (default 128) caps the stratified k=2 sample; `--exhaustive N`
//! (default 2) exhaustively pairs the first N kernels.
//! `TALFT_STRIDE_SCALE` scales the stride as everywhere else.
//! `--check <path>` re-validates an existing report with the dep-free
//! JSON parser and gates on the same count invariants — never timings.

use std::sync::Arc;

use talft_analysis::{
    cross_validate_pairs, prioritize_pairs, PairAnalyzer, PairDiffSummary, PairReport,
};
use talft_bench::report::{self, Report};
use talft_compiler::{compile, CompileOptions};
use talft_faultsim::{
    exhaustive_pair_plans, golden_run, golden_trace, multi_fault_plans, plan_fault_grid_against,
    run_plan_campaign, run_plan_campaign_guided, single_fault_plans, CampaignConfig, FaultPlan,
    Golden, Verdict,
};
use talft_isa::Program;
use talft_obs::Json;
use talft_suite::{kernels, Scale};

/// Required top-level keys of a `talft.pairs.v1` document.
const REQUIRED: &[&str] = &[
    "schema",
    "kernels",
    "stride",
    "samples",
    "rows",
    "exhaustive",
    "totals",
];

/// Exhaustive pair grids stay under this many plans per side.
const EXHAUSTIVE_CAP: usize = 20_000;

/// One side (protected or baseline) of a kernel row.
struct Side {
    pairs: PairReport,
    tf008: u64,
    sampled_sdc: u64,
    diff: PairDiffSummary,
    guided_identical: bool,
}

fn main() {
    if let Some(path) = report::arg_str("--check") {
        check_existing(&path);
        return;
    }
    let stride = report::arg("--stride").unwrap_or(17);
    let samples = report::arg("--samples").unwrap_or(128) as usize;
    let exhaustive_kernels = report::arg("--exhaustive").unwrap_or(2) as usize;
    let cfg = CampaignConfig {
        stride,
        mutations_per_site: 1,
        pair_samples: samples,
        ..CampaignConfig::default()
    };
    let ks = kernels(Scale::Tiny);
    println!(
        "# E22 static pair-fault coverage differential ({} kernels, stride {}, {} sampled pairs)",
        ks.len(),
        cfg.effective_stride(),
        samples
    );
    println!("# statically Detected/Benign cell pairs must never score SDC in a k=2 campaign");
    println!(
        "| kernel | side | cells | pairs | detected | benign | vulnerable | coop | k2 cov | grid SDC | predicted | mismatches | guided≡ |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|:---:|");

    let mut failed = false;
    let mut rows = Vec::new();
    let mut exhaustive_rows = Vec::new();
    let mut totals: Vec<(&str, Side)> = vec![];
    for (ki, k) in ks.iter().enumerate() {
        let c = match compile(&k.source, &CompileOptions::default()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {}: {e}", k.name);
                std::process::exit(1);
            }
        };
        let mut sides = Vec::new();
        for (side, program) in [
            ("protected", &c.protected.program),
            ("baseline", &c.baseline.program),
        ] {
            let program: Arc<Program> = Arc::new(program.as_ref().clone());
            let s = match analyze_side(&program, &cfg) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {} ({side}): {e}", k.name);
                    std::process::exit(1);
                }
            };
            if !s.diff.holds() {
                eprintln!(
                    "PAIR DIFFERENTIAL MISMATCH: {} ({side}): statically-safe SDC pair: {:?}",
                    k.name, s.diff.mismatches
                );
                failed = true;
            }
            if !s.guided_identical {
                eprintln!(
                    "GUIDANCE NOT VERDICT-NEUTRAL: {} ({side}): guided report diverged",
                    k.name
                );
                failed = true;
            }
            if ki < exhaustive_kernels {
                match exhaustive_side(&program, &cfg) {
                    Ok((ex_stride, plans, sdc, diff)) => {
                        if !diff.holds() {
                            eprintln!(
                                "PAIR DIFFERENTIAL MISMATCH (exhaustive): {} ({side}): {:?}",
                                k.name, diff.mismatches
                            );
                            failed = true;
                        }
                        exhaustive_rows.push(Json::obj([
                            ("name", Json::str(k.name)),
                            ("side", Json::str(side)),
                            ("stride", Json::U64(ex_stride)),
                            ("plans", Json::U64(plans)),
                            ("sdc", Json::U64(sdc)),
                            ("checked", Json::U64(diff.checked as u64)),
                            ("predicted_sdc", Json::U64(diff.predicted_sdc as u64)),
                            ("mismatches", Json::U64(diff.mismatches.len() as u64)),
                        ]));
                    }
                    Err(e) => {
                        eprintln!("error: {} ({side}) exhaustive: {e}", k.name);
                        std::process::exit(1);
                    }
                }
            }
            print_row(k.name, side, &s);
            sides.push((side, s));
        }
        rows.push(Json::obj([
            ("name", Json::str(k.name)),
            ("protected", side_json(&sides[0].1)),
            ("baseline", side_json(&sides[1].1)),
        ]));
        totals.extend(sides);
    }

    let total_for = |which: &str| -> Json {
        let mut agg = Side {
            pairs: PairReport::default(),
            tf008: 0,
            sampled_sdc: 0,
            diff: PairDiffSummary::default(),
            guided_identical: true,
        };
        for s in totals.iter().filter(|(sd, _)| *sd == which).map(|(_, s)| s) {
            agg.pairs.cells += s.pairs.cells;
            agg.pairs.pairs += s.pairs.pairs;
            agg.pairs.detected += s.pairs.detected;
            agg.pairs.benign += s.pairs.benign;
            agg.pairs.vulnerable += s.pairs.vulnerable;
            agg.pairs.single_vulnerable += s.pairs.single_vulnerable;
            agg.pairs.cooperative += s.pairs.cooperative;
            agg.pairs.fixpoints += s.pairs.fixpoints;
            agg.tf008 += s.tf008;
            agg.sampled_sdc += s.sampled_sdc;
            agg.diff.plans += s.diff.plans;
            agg.diff.checked += s.diff.checked;
            agg.diff.degenerate += s.diff.degenerate;
            agg.diff.predicted_sdc += s.diff.predicted_sdc;
            agg.diff
                .mismatches
                .extend(s.diff.mismatches.iter().cloned());
            agg.guided_identical &= s.guided_identical;
        }
        side_json(&agg)
    };
    let totals_json = Json::obj([
        ("protected", total_for("protected")),
        ("baseline", total_for("baseline")),
    ]);
    report::emit(|| {
        Report::new("talft.pairs.v1")
            .field("kernels", Json::U64(ks.len() as u64))
            .field("stride", Json::U64(cfg.effective_stride()))
            .field("samples", Json::U64(samples as u64))
            .field("rows", Json::Array(rows.clone()))
            .field("exhaustive", Json::Array(exhaustive_rows.clone()))
            .field("totals", totals_json.clone())
            .build()
    });

    if failed {
        println!("RESULT: STATIC PAIR ANALYSIS CONTRADICTED — see messages above.");
        std::process::exit(2);
    }
    println!(
        "RESULT: pair differential holds on all {} kernels (protected and baseline); \
         static guidance is verdict-neutral.",
        ks.len()
    );
}

/// Pair-classify one binary and cross-validate the sampled k=2 grid.
fn analyze_side(program: &Arc<Program>, cfg: &CampaignConfig) -> Result<Side, String> {
    let mut analyzer = PairAnalyzer::new(program);
    if let Some(why) = analyzer.bailed() {
        return Err(format!("pair analyzer bailed: {why}"));
    }
    let pairs = analyzer.pair_report();
    let tf008 = pairs.hotspots(program).len() as u64;
    let golden = golden_run(program, cfg).map_err(|e| format!("golden run: {e}"))?;
    let plans = multi_fault_plans(program, cfg, &golden, 2);
    let trace = golden_trace(program, cfg, &golden);
    let hot = prioritize_pairs(&mut analyzer, &trace, &plans);
    let baseline = run_plan_campaign(program, cfg, &golden, &plans);
    let guided = run_plan_campaign_guided(program, cfg, &golden, &plans, &hot);
    let grid = plan_fault_grid_against(program, cfg, &golden, &plans);
    let diff = cross_validate_pairs(&mut analyzer, &grid);
    Ok(Side {
        pairs,
        tf008,
        sampled_sdc: grid.count(Verdict::Sdc) as u64,
        diff,
        guided_identical: guided == baseline,
    })
}

/// Exhaustively pair a strided strike universe, doubling the stride until
/// the quadratic grid fits the cap, and cross-validate it.
fn exhaustive_side(
    program: &Arc<Program>,
    base: &CampaignConfig,
) -> Result<(u64, u64, u64, PairDiffSummary), String> {
    let mut cfg = base.clone();
    let golden: Golden = golden_run(program, &cfg).map_err(|e| format!("golden run: {e}"))?;
    loop {
        let n = single_fault_plans(program, &cfg, &golden).len();
        if n * n.saturating_sub(1) / 2 <= EXHAUSTIVE_CAP {
            break;
        }
        cfg.stride = cfg.stride.saturating_mul(2);
    }
    let plans: Vec<FaultPlan> = exhaustive_pair_plans(program, &cfg, &golden);
    let grid = plan_fault_grid_against(program, &cfg, &golden, &plans);
    let mut analyzer = PairAnalyzer::new(program);
    let diff = cross_validate_pairs(&mut analyzer, &grid);
    Ok((
        cfg.effective_stride(),
        plans.len() as u64,
        grid.count(Verdict::Sdc) as u64,
        diff,
    ))
}

fn print_row(name: &str, side: &str, s: &Side) {
    println!(
        "| {} | {} | {} | {} | {} | {} | {} | {} | {:.1}% | {} | {} | **{}** | {} |",
        name,
        side,
        s.pairs.cells,
        s.pairs.pairs,
        s.pairs.detected,
        s.pairs.benign,
        s.pairs.vulnerable,
        s.pairs.cooperative,
        100.0 * s.pairs.coverage(),
        s.sampled_sdc,
        s.diff.predicted_sdc,
        s.diff.mismatches.len(),
        if s.guided_identical { "yes" } else { "NO" },
    );
}

fn side_json(s: &Side) -> Json {
    Json::obj([
        ("cells", Json::U64(s.pairs.cells as u64)),
        ("pairs", Json::U64(s.pairs.pairs)),
        ("detected", Json::U64(s.pairs.detected)),
        ("benign", Json::U64(s.pairs.benign)),
        ("vulnerable", Json::U64(s.pairs.vulnerable)),
        ("single_vulnerable", Json::U64(s.pairs.single_vulnerable)),
        ("cooperative", Json::U64(s.pairs.cooperative)),
        ("k2_coverage", Json::F64(s.pairs.coverage())),
        ("fixpoints", Json::U64(s.pairs.fixpoints)),
        ("tf008", Json::U64(s.tf008)),
        ("plans", Json::U64(s.diff.plans as u64)),
        ("checked", Json::U64(s.diff.checked as u64)),
        ("degenerate", Json::U64(s.diff.degenerate as u64)),
        ("grid_sdc", Json::U64(s.sampled_sdc)),
        ("predicted_sdc", Json::U64(s.diff.predicted_sdc as u64)),
        ("mismatches", Json::U64(s.diff.mismatches.len() as u64)),
        ("guided_identical", Json::U64(u64::from(s.guided_identical))),
    ])
}

/// Validate an existing report: parse, check the schema contract, then gate
/// on the machine-independent count invariants. Exit 0 on success.
fn check_existing(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pairs: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let json = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("pairs: {path} is not valid JSON: {e}");
            std::process::exit(1);
        }
    };
    for key in REQUIRED {
        if json.get(key).is_none() {
            eprintln!("pairs: {path} is missing required key {key:?}");
            std::process::exit(1);
        }
    }
    if json.get("schema").and_then(Json::as_str) != Some("talft.pairs.v1") {
        eprintln!("pairs: {path} has an unexpected schema tag");
        std::process::exit(1);
    }
    let fail = |msg: &str| -> ! {
        eprintln!("pairs: {path}: {msg}");
        std::process::exit(1);
    };
    let Some(Json::Array(rows)) = json.get("rows") else {
        fail("rows is not an array");
    };
    if rows.is_empty() {
        fail("rows is empty");
    }
    let mut sum_pairs = [0u64; 2];
    for row in rows {
        let name = row.get("name").and_then(Json::as_str).unwrap_or("?");
        for (i, side) in ["protected", "baseline"].into_iter().enumerate() {
            let s = row
                .get(side)
                .unwrap_or_else(|| fail(&format!("kernel {name} is missing side {side}")));
            let n = |key: &str| -> u64 {
                match s.get(key).and_then(Json::as_u64) {
                    Some(v) => v,
                    None => fail(&format!("kernel {name} ({side}) is missing {key}")),
                }
            };
            if n("mismatches") != 0 {
                fail(&format!(
                    "kernel {name} ({side}) reports a statically-safe SDC pair"
                ));
            }
            if n("guided_identical") != 1 {
                fail(&format!(
                    "kernel {name} ({side}): guidance changed the report"
                ));
            }
            if n("detected") + n("benign") + n("vulnerable") != n("pairs") {
                fail(&format!(
                    "kernel {name} ({side}): pair classes do not sum to the pair count"
                ));
            }
            if n("pairs") == 0 || n("cells") == 0 {
                fail(&format!("kernel {name} ({side}) classified nothing"));
            }
            if n("checked") + n("degenerate") > n("plans") {
                fail(&format!(
                    "kernel {name} ({side}): validated more plans than ran"
                ));
            }
            sum_pairs[i] += n("pairs");
        }
    }
    let Some(Json::Array(exhaustive)) = json.get("exhaustive") else {
        fail("exhaustive is not an array");
    };
    for ex in exhaustive {
        let name = ex.get("name").and_then(Json::as_str).unwrap_or("?");
        let n = |key: &str| -> u64 {
            match ex.get(key).and_then(Json::as_u64) {
                Some(v) => v,
                None => fail(&format!("exhaustive {name} is missing {key}")),
            }
        };
        if n("mismatches") != 0 {
            fail(&format!(
                "exhaustive {name}: statically-safe SDC pair in the full grid"
            ));
        }
        if n("plans") == 0 {
            fail(&format!("exhaustive {name} ran no plans"));
        }
    }
    let totals = json
        .get("totals")
        .unwrap_or_else(|| fail("totals is missing"));
    for (i, side) in ["protected", "baseline"].into_iter().enumerate() {
        let t = totals
            .get(side)
            .unwrap_or_else(|| fail(&format!("totals is missing side {side}")));
        if t.get("pairs").and_then(Json::as_u64) != Some(sum_pairs[i]) {
            fail(&format!(
                "totals ({side}): pairs does not equal the row sum"
            ));
        }
        if t.get("mismatches").and_then(Json::as_u64) != Some(0) {
            fail(&format!("totals ({side}): mismatches present"));
        }
    }
    println!("pairs: {path} OK (schema talft.pairs.v1)");
}
