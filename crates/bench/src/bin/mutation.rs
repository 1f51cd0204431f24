//! E14 / **mutation-score table**: the adversarial oracle over every suite
//! kernel. Each of the 12 catalog operators (talft-oracle) is applied at
//! every applicable site of every protected binary; every mutant runs
//! through the checker, then the `TF0xx` lint engine (talft-analysis), and
//! — if accepted by both — a k=1 fault campaign as ground truth. The
//! *killed by lint* column counts checker-accepted mutants an
//! error-severity lint rejected statically. Two hard gates:
//!
//! * any *killed-by-campaign-only* mutant (checker accepted, campaign found
//!   SDC or a broken fault-free run) is a checker soundness gap → exit 2;
//! * overall mutation score below 90% → exit 1 (the catalog is supposed to
//!   model exactly the bug class the checker exists to reject).
//!
//! Surviving (equivalent) mutants are listed individually so EXPERIMENTS.md
//! can document why each is harmless.
//!
//! Usage: `cargo run --release -p talft-bench --bin mutation
//!          [-- --kernels N] [--cap N] [--stride N] [--seed N]
//!          [--mutations N] [--threads N] [--json <path>]`
//!
//! `--kernels N` limits the sweep to the first N suite kernels (CI smoke);
//! `--cap N` bounds mutants per operator per kernel (0 = exhaustive).
//! `TALFT_STRIDE_SCALE` scales the campaign stride as everywhere else.

use talft_bench::report::{self, arg, mutation_json, Report};
use talft_bench::{mutation_summary, render_mutation};
use talft_faultsim::CampaignConfig;
use talft_obs::Json;
use talft_oracle::OracleConfig;
use talft_suite::{kernels, Scale};

fn main() {
    let cap = arg("--cap").unwrap_or(0) as usize;
    let stride = arg("--stride").unwrap_or(17);
    let seed = arg("--seed").unwrap_or(0x0E14_0E14);
    let mutations = arg("--mutations").unwrap_or(1) as usize;
    let threads = arg("--threads").unwrap_or(1) as usize;
    let mut ks = kernels(Scale::Tiny);
    if let Some(n) = arg("--kernels") {
        ks.truncate(n as usize);
    }
    let cfg = OracleConfig {
        campaign: CampaignConfig {
            stride,
            seed,
            mutations_per_site: mutations.max(1),
            threads: threads.max(1),
            ..CampaignConfig::default()
        },
        max_mutants_per_op: cap,
    };
    println!(
        "# E14 mutation oracle ({} kernels, cap {}, stride {}, seed {seed:#x})",
        ks.len(),
        if cap == 0 {
            "none".into()
        } else {
            cap.to_string()
        },
        cfg.campaign.effective_stride(),
    );
    println!(
        "# checker + lint vs. k=1 campaign differential; campaign-only kills are soundness gaps"
    );
    let summary = match mutation_summary(&ks, &cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", render_mutation(&summary));
    println!();
    report::emit(|| {
        Report::new("talft.mutation.v1")
            .field("kernels", Json::U64(ks.len() as u64))
            .field("cap", Json::U64(cap as u64))
            .field("seed", Json::U64(seed))
            .field("stride", Json::U64(cfg.campaign.effective_stride()))
            .field("data", mutation_json(&summary))
            .build()
    });
    if !summary.campaign_only.is_empty() {
        for (kernel, o) in &summary.campaign_only {
            eprintln!(
                "SOUNDNESS GAP: {} @ {} on {}: {} — {:?}",
                o.op.name(),
                o.addr,
                kernel,
                o.detail,
                o.verdict
            );
        }
        println!(
            "RESULT: CHECKER SOUNDNESS GAP — {} mutant(s) killed by the campaign only.",
            summary.campaign_only.len()
        );
        std::process::exit(2);
    }
    let score = summary.score();
    if score < 0.90 {
        println!(
            "RESULT: mutation score {:.1}% below the 90% bar ({} mutants, {} survivors).",
            100.0 * score,
            summary.total(),
            summary.equivalents.len()
        );
        std::process::exit(1);
    }
    println!(
        "RESULT: mutation score {:.1}% over {} mutants; zero campaign-only kills; \
         {} equivalent survivor(s), all listed above.",
        100.0 * score,
        summary.total(),
        summary.equivalents.len()
    );
}
