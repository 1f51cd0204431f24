//! Pieces the workloads share: program sides, reference outputs, and the
//! batched-versus-scalar engine check.

use std::sync::Arc;

use talft_compiler::{compile, vir::interpret, Artifact, CompileOptions, Compiled};
use talft_core::{check_program, TypeError};
use talft_faultsim::{
    run_plan_campaign, run_plan_campaign_scalar, CampaignConfig, FaultPlan, Golden,
};
use talft_isa::Program;
use talft_logic::ExprArena;
use talft_suite::Kernel;

use crate::harness::Checks;
use crate::inputs;
use crate::trace::Recorder;

/// Step budget for fault-free runs and the VIR interpreter.
pub const RUN_BUDGET: u64 = 200_000_000;

/// Plans per grid re-run on both engines outside the measured region.
pub const SUBSAMPLE: usize = 256;

/// Which compiler output a program is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Green/blue duplicated, type-checked.
    Protected,
    /// Unprotected.
    Baseline,
}

impl Side {
    /// Lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Side::Protected => "protected",
            Side::Baseline => "baseline",
        }
    }

    /// This side's artifact of a compilation.
    pub fn artifact_mut(self, c: &mut Compiled) -> &mut Artifact {
        match self {
            Side::Protected => &mut c.protected,
            Side::Baseline => &mut c.baseline,
        }
    }
}

/// A compiled kernel set with reference outputs from the VIR interpreter.
pub struct Reference {
    /// Per kernel: its compilation.
    pub compiled: Vec<Compiled>,
    /// Per kernel: the observable stores of a fault-free run.
    pub traces: Vec<Vec<(i64, i64)>>,
    /// Protected instructions emitted for all kernels.
    pub code_words: u64,
}

impl Reference {
    /// Compile and interpret every kernel.
    ///
    /// # Errors
    ///
    /// When a kernel fails to compile or its reference run does not halt.
    pub fn of(kernels: &[Kernel]) -> Result<Self, String> {
        let mut compiled = Vec::with_capacity(kernels.len());
        let mut traces = Vec::with_capacity(kernels.len());
        let mut code_words = 0;
        for k in kernels {
            let c = compile(&k.source, &CompileOptions::default())
                .map_err(|e| format!("{}: {e}", k.name))?;
            let run = interpret(&c.vir, RUN_BUDGET);
            if !run.halted {
                return Err(format!("{}: reference run did not halt", k.name));
            }
            traces.push(run.trace);
            code_words += c.protected.program.instrs.len() as u64;
            compiled.push(c);
        }
        Ok(Self {
            compiled,
            traces,
            code_words,
        })
    }
}

/// Count the instructions a compilation emitted (both sides).
pub fn count_emitted(rec: &Recorder, c: &Compiled) {
    rec.count(
        "compiler.instrs_out",
        (c.protected.program.instrs.len() + c.baseline.program.instrs.len()) as u64,
    );
}

/// Type-check `program` inside a span named for the verdict, so the
/// accept and reject paths are timed apart.
#[allow(clippy::result_large_err)] // `TypeError` is the checker's own error type
pub fn type_check(
    rec: &Recorder,
    program: &Program,
    arena: &mut ExprArena,
) -> Result<(), TypeError> {
    rec.span_named(
        || check_program(program, arena).map(drop),
        |r| {
            if r.is_ok() {
                "core.check_program"
            } else {
                "core.check_program.reject"
            }
        },
    )
}

/// Whether `x` rounds to `documented` at `places` decimals.
#[must_use]
pub fn rounds_to(x: f64, documented: f64, places: i32) -> bool {
    let scale = 10f64.powi(places);
    (x * scale).round() == (documented * scale).round()
}

/// Re-run a seeded subsample of a grid on the batched and the scalar
/// engine and require identical reports.
pub fn check_scalar_agrees(
    checks: &mut Checks,
    name: &str,
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
    seed: u64,
) {
    let sub: Vec<FaultPlan> = inputs::subsample(plans.len(), SUBSAMPLE, seed)
        .into_iter()
        .map(|i| plans[i].clone())
        .collect();
    let batched = run_plan_campaign(program, cfg, golden, &sub);
    let scalar = run_plan_campaign_scalar(program, cfg, golden, &sub);
    checks.check("batched_matches_scalar", batched == scalar, || {
        format!(
            "{name}: batched and scalar reports differ on {} plans",
            sub.len()
        )
    });
}
