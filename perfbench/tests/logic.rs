//! Tests of the benchmark's own logic: percentile support, quartiles,
//! self-time subtraction, and seed-determined inputs.

use std::sync::Arc;

use talft_compiler::{compile, CompileOptions};
use talft_faultsim::{golden_run, grid_fingerprint, multi_fault_plans, CampaignConfig};
use talft_perfbench::frontend::Frontend;
use talft_perfbench::harness::Workload;
use talft_perfbench::inputs;
use talft_perfbench::stats::{
    highest_supported, median, quartiles, relative_spread, supported_percentile,
};
use talft_perfbench::trace::{self, Recorder, Span, PROGRAM_SPAN};

#[test]
fn p90_needs_ten_samples_beyond_it() {
    let xs: Vec<f64> = (1..=99).map(f64::from).collect();
    assert_eq!(
        supported_percentile(&xs, 0.9),
        None,
        "99 samples: 9 beyond p90"
    );
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(
        supported_percentile(&xs, 0.9),
        Some(90.0),
        "rank 90, 10 beyond"
    );
    // Order of the input does not matter.
    let rev: Vec<f64> = xs.iter().rev().copied().collect();
    assert_eq!(supported_percentile(&rev, 0.9), Some(90.0));
    assert_eq!(supported_percentile(&xs, 0.5), Some(50.0));
}

#[test]
fn highest_supported_percentile_leaves_ten_beyond() {
    assert_eq!(highest_supported(10), None);
    assert_eq!(highest_supported(0), None);
    let q = highest_supported(36).expect("36 > 10");
    assert!((q - 26.0 / 36.0).abs() < 1e-12);
    let xs: Vec<f64> = (1..=36).map(f64::from).collect();
    assert_eq!(supported_percentile(&xs, q), Some(26.0));
}

#[test]
fn quartiles_match_python_statistics() {
    // Expected values from Python's statistics.quantiles(xs, n=4).
    let cases: &[(&[f64], [f64; 3])] = &[
        (&[1.0, 2.0], [0.75, 1.5, 2.25]),
        (&[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
        (&[1.0, 2.0, 3.0, 4.0], [1.25, 2.5, 3.75]),
        (&[5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5]),
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.75, 5.5, 8.25],
        ),
        (&[0.5, 0.25, 2.0, 8.0, 1.0, 4.0], [0.4375, 1.5, 5.0]),
    ];
    for (xs, want) in cases {
        assert_eq!(quartiles(xs), Some(*want), "{xs:?}");
    }
    assert_eq!(quartiles(&[1.0]), None);
    let spread = relative_spread(&[1.0, 2.0, 3.0, 4.0]).expect("4 samples");
    assert!((spread - 2.5 / 2.5).abs() < 1e-12);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        program: 0,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_nested_children() {
    let spans = [
        span(PROGRAM_SPAN, None, 0, 100),
        span("analysis.pair_report", Some(0), 10, 40),
        span("core.check_program", Some(1), 20, 30),
        span("faultsim.golden_run", Some(0), 50, 60),
    ];
    assert_eq!(trace::self_times(&spans), vec![60, 20, 10, 10]);
    let totals = trace::totals_by_name(&spans);
    assert_eq!(totals[PROGRAM_SPAN].self_ns, 60);
    assert_eq!(totals["analysis.pair_report"].calls, 1);
}

#[test]
fn self_time_counts_overlapping_children_once() {
    let spans = [
        span("a", None, 0, 100),
        span("b", Some(0), 10, 40),
        span("c", Some(0), 30, 50),
        // Clipped to the parent's interval.
        span("d", Some(0), 90, 120),
    ];
    assert_eq!(trace::self_times(&spans)[0], 100 - 40 - 10);
}

#[test]
fn recorder_links_parents_and_programs() {
    let rec = Recorder::new();
    rec.program(7, || rec.span("compiler.compile", || ()));
    assert!(rec.spans().is_empty(), "nothing is recorded while off");

    rec.set_on(true);
    let v = rec.program(3, || {
        rec.span("analysis.lint", || {
            rec.count("analysis.cells", 5);
            rec.span_named(
                || Err::<(), ()>(()),
                |r| {
                    if r.is_ok() {
                        "core.check_program"
                    } else {
                        "core.check_program.reject"
                    }
                },
            )
        })
    });
    rec.set_on(false);
    assert_eq!(v, Err(()));
    let spans = rec.spans();
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        [PROGRAM_SPAN, "analysis.lint", "core.check_program.reject"]
    );
    assert_eq!(
        spans.iter().map(|s| s.parent).collect::<Vec<_>>(),
        [None, Some(0), Some(1)]
    );
    assert!(spans
        .iter()
        .all(|s| s.program == 3 && s.end_ns >= s.start_ns));
    assert_eq!(rec.counts()["analysis.cells"], 5);
}

#[test]
fn same_seed_gives_identical_corpus() {
    let a = inputs::wile_corpus(11, 25);
    let b = inputs::wile_corpus(11, 25);
    assert_eq!(a, b);
    assert_eq!(inputs::corpus_hash(&a), inputs::corpus_hash(&b));
    let c = inputs::wile_corpus(12, 25);
    assert_ne!(inputs::corpus_hash(&a), inputs::corpus_hash(&c));
    assert_eq!(inputs::derive(5, "x"), inputs::derive(5, "x"));
    assert_ne!(inputs::derive(5, "x"), inputs::derive(5, "y"));
}

#[test]
fn subsamples_are_seeded() {
    let s = inputs::subsample(1000, 64, 4);
    assert_eq!(s, inputs::subsample(1000, 64, 4));
    assert_eq!(s.len(), 64);
    assert!(s.windows(2).all(|w| w[0] < w[1]) && s[63] < 1000);
    assert_eq!(inputs::subsample(10, 64, 4), (0..10).collect::<Vec<_>>());
}

#[test]
fn frontend_setup_is_byte_identical_per_seed() {
    let a = Frontend::setup(21, 1).expect("set-up");
    let b = Frontend::setup(21, 1).expect("set-up");
    let c = Frontend::setup(22, 1).expect("set-up");
    assert_eq!(a.fingerprints(), b.fingerprints());
    assert_ne!(a.fingerprints(), c.fingerprints());
    assert_eq!(a.units(), b.units());
}

#[test]
fn sampled_plan_fingerprints_follow_the_seed() {
    let kernel = talft_suite::kernels(talft_suite::Scale::Tiny)
        .into_iter()
        .find(|k| k.name == "mb_jpeg")
        .expect("suite has mb_jpeg");
    let c = compile(&kernel.source, &CompileOptions::default()).expect("compiles");
    let program = Arc::clone(&c.protected.program);
    let fingerprint = |seed: u64| {
        let cfg = CampaignConfig {
            pair_samples: 64,
            seed: inputs::derive(seed, "campaign.k2"),
            threads: 1,
            ..CampaignConfig::default()
        };
        let golden = golden_run(&program, &cfg).expect("golden run");
        grid_fingerprint(&golden, &multi_fault_plans(&program, &cfg, &golden, 2))
    };
    assert_eq!(fingerprint(1), fingerprint(1));
    assert_ne!(fingerprint(1), fingerprint(2));
}
