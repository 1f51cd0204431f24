//! Interval pre-solver transparency over whole compiled programs (E21):
//! the interval layer in `talft_logic` must be *semantically invisible* —
//! for any program the checker reaches a bit-identical verdict, and renders
//! identical diagnostics (including the solver failure-witness notes), with
//! the layer off (the Fourier–Motzkin reference path) and on.
//!
//! The in-crate unit tests cover the layer's rules in isolation
//! (`talft_logic` `interval_tests`); this test drives the *real* query
//! distribution: fixed kernels plus generatively fuzzed Wile sources
//! compiled through the full reliability transformation, and hand-written
//! ill-typed `.talft` programs whose rejection diagnostics carry entailment
//! witnesses. Any divergence is a solver unsoundness.
//!
//! The switch is process-global, which is why this lives in its own
//! integration-test binary: the modes run serially and the default (on) is
//! restored at the end.

use talft::compiler::{compile, CompileOptions};
use talft::core::check_program;
use talft::isa::assemble;
use talft::logic::set_entail_interval;
use talft_testutil::wile::{random_stmts, render_program};
use talft_testutil::SplitMix64;

const GEN_SEED: u64 = 0xCAC4_E5EE;

/// Ill-typed `.talft` fixtures whose diagnostics carry witness notes; the
/// rendered text (message + every `= note:` line) must be mode-invariant.
const REJECTED: &[&str] = &[
    // §2.2-style store mismatch by a rigid constant: the witness names the
    // residue ("the sides differ by the constant 1").
    r#"
.data
region out at 4096 len 2 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
  mov r3, B 5
  mov r4, B 4097
  stB r4, r3
  halt
"#,
    // Symbolic mismatch: no fact relates x and y, so the witness reports
    // the unbounded atom.
    r#"
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall x:int, y:int, m:mem; r1: (G, int, x); r3: (B, int, y); mem: m; }
  mov r2, G 4096
  stG r2, r1
  mov r4, B 4096
  stB r4, r3
  halt
"#,
];

/// One full pass over the corpus under the current interval mode:
/// compile-and-check every Wile source, assemble-and-check every rejection
/// fixture. Returns everything the modes must agree on.
fn run_corpus(wile: &[String]) -> (Vec<Result<(), String>>, Vec<String>) {
    let verdicts = wile
        .iter()
        .map(|src| {
            let mut c = compile(src, &CompileOptions::default()).expect("fuzzed source compiles");
            check_program(&c.protected.program, &mut c.protected.arena)
                .map(|_| ())
                .map_err(|e| e.to_string())
        })
        .collect();
    let diags = REJECTED
        .iter()
        .map(|src| {
            let mut asm = assemble(src).expect("fixture assembles");
            let e = check_program(&asm.program, &mut asm.arena).expect_err("fixture is ill-typed");
            assert!(
                !e.notes.is_empty(),
                "rejection fixture must carry a witness note: {e}"
            );
            e.to_diagnostic().render()
        })
        .collect();
    (verdicts, diags)
}

#[test]
fn solver_modes_are_verdict_and_diagnostic_identical() {
    let fixed = [
        "output out[2]; func main() { var a = 6; var b = 7; out[0] = a * b; out[1] = a + b; }"
            .to_string(),
        "array t[4] = [9, 2, 7, 4]; output out[4]; func main() { var i = 0; \
         while (i < 4) { out[i] = t[i] + i; i = i + 1; } }"
            .to_string(),
        "output out[1]; func main() { var i = 0; var s = 0; \
         while (i < 6) { if (i & 1 == 1) { s = s + i; } i = i + 1; } out[0] = s; }"
            .to_string(),
    ];
    let generated: Vec<String> = (0..8)
        .map(|k| {
            let mut r = SplitMix64::new(GEN_SEED + k);
            render_program(&random_stmts(&mut r, 2, 2, 6))
        })
        .collect();
    let wile: Vec<String> = fixed.iter().chain(&generated).cloned().collect();

    let modes = [false, true];
    let mut results = Vec::new();
    for interval in modes {
        set_entail_interval(interval);
        results.push(run_corpus(&wile));
    }
    set_entail_interval(true);

    let (baseline_verdicts, baseline_diags) = &results[0];
    for (src_i, v) in baseline_verdicts.iter().enumerate() {
        assert_eq!(
            v,
            &Ok(()),
            "source {src_i}: compiled program must check\n--- source ---\n{}",
            wile[src_i]
        );
    }
    for (interval, (verdicts, diags)) in modes.iter().zip(&results).skip(1) {
        assert_eq!(
            verdicts, baseline_verdicts,
            "interval={interval} changed a checker verdict"
        );
        assert_eq!(
            diags, baseline_diags,
            "interval={interval} changed a rendered diagnostic"
        );
    }
    // The witness notes themselves are part of the cross-mode contract.
    assert!(
        baseline_diags
            .iter()
            .any(|d| d.contains("= note: cannot prove")),
        "no rejection diagnostic rendered a solver witness:\n{baseline_diags:?}"
    );
}
