//! Thread invariance: the k=1 and k=2 static analyzers split their work
//! over worker threads and merge it deterministically, so every report
//! they produce must be byte-identical at every thread count. This test
//! renders each analyzer output — the `ZapReport`, the `PairReport` with
//! its `per_compare`, `witness` and `fixpoints`, the TF008 diagnostics,
//! and `classify_pair` answers asked after the report — at threads 1, 2
//! and 8 and compares the renderings.

use std::fmt::Write;

use talft_analysis::PairAnalyzer;
use talft_compiler::{compile, CompileOptions};
use talft_isa::{assemble, Program};
use talft_suite::{kernels, Scale};
use talft_testutil::wile::{random_stmts, render_program};
use talft_testutil::SplitMix64;

const THREADS: [usize; 3] = [1, 2, 8];

/// A protected store pair declared 200 GPRs wide: past the taint mask,
/// so both analyzers bail.
const TOO_WIDE: &str = r#"
.gprs 200
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

/// Every analyzer output for `program` on `threads` workers, rendered,
/// plus the number of witnessed compares.
fn transcript(program: &Program, threads: usize) -> (String, usize) {
    let mut out = String::new();
    // The analyzer's k=1 report is `analyze_zaps_with` on `threads`.
    let mut pa = PairAnalyzer::with_threads(program, threads);
    writeln!(out, "k1: {:?}", pa.k1()).unwrap();
    let report = pa.pair_report();
    writeln!(out, "pair_report: {report:?}").unwrap();
    for d in report.hotspots(program) {
        writeln!(out, "TF008: {d:?}").unwrap();
    }
    // Queries after the report run against the merged memo and
    // summaries; a sample of cells, every pair among them.
    let cells = pa.cells();
    let sample: Vec<_> = cells
        .iter()
        .step_by((cells.len() / 24).max(1))
        .copied()
        .collect();
    for (i, &a) in sample.iter().enumerate() {
        for &b in &sample[i..] {
            writeln!(out, "classify_pair({a}, {b}): {:?}", pa.classify_pair(a, b)).unwrap();
        }
    }
    (out, report.witness.len())
}

fn programs() -> Vec<(String, Program)> {
    let mut sources: Vec<(String, String)> = kernels(Scale::Tiny)
        .into_iter()
        .map(|k| (k.name.to_owned(), k.source))
        .collect();
    let mut r = SplitMix64::new(0x7_1DE);
    for i in 0..4 {
        let stmts = random_stmts(&mut r, 2, 3, 8);
        sources.push((format!("wile#{i}"), render_program(&stmts)));
    }
    let mut programs = Vec::new();
    for (name, src) in &sources {
        let c = compile(src, &CompileOptions::default()).expect("compiles");
        programs.push((format!("{name}/protected"), (*c.protected.program).clone()));
        programs.push((format!("{name}/baseline"), (*c.baseline.program).clone()));
    }
    let wide = assemble(TOO_WIDE).expect("assembles").program;
    programs.push(("too-wide".to_owned(), wide));
    programs
}

#[test]
fn analyzer_outputs_are_identical_at_every_thread_count() {
    let mut bailed = 0;
    let mut witnessed = 0;
    for (name, program) in programs() {
        let (serial, witnesses) = transcript(&program, THREADS[0]);
        bailed += usize::from(serial.contains("bailed: Some"));
        witnessed += usize::from(witnesses > 0);
        for &threads in &THREADS[1..] {
            let (parallel, _) = transcript(&program, threads);
            if let Some((s, p)) = serial.lines().zip(parallel.lines()).find(|(s, p)| s != p) {
                panic!("{name}: threads 1 vs {threads} differ:\n  {s}\n  {p}");
            }
            assert_eq!(serial, parallel, "{name}: threads 1 vs {threads}");
        }
    }
    assert!(bailed > 0, "the too-wide input must exercise the bail");
    assert!(
        witnessed >= 18,
        "only {witnessed} programs have a witnessed compare"
    );
}
