//! `frontend`: compile, check, run and simulate a seeded corpus of
//! fuzzer-generated Wile programs plus the 18 suite kernels at full
//! scale, then type-check every mutant of every Tiny kernel.
//!
//! Per Wile program: compile → check (protected) → fault-free runs of
//! both sides → VIR interpreter → Figure 10 timing simulation of both
//! sides. Per Tiny kernel: compile → all mutants → check each mutant.
//! The compiler, checker and solver do nearly all the work.

use talft_compiler::{compile, vir::interpret, CompileOptions};
use talft_machine::{run_program, Status};
use talft_oracle::all_mutants;
use talft_sim::{simulate, MachineModel};
use talft_suite::{kernels, Kernel, Scale};

use crate::common::{self, RUN_BUDGET};
use crate::harness::{Checks, Figure, Workload};
use crate::inputs;
use crate::trace::Recorder;

/// Fuzzed Wile programs per corpus.
pub const CORPUS: usize = 500;

/// Documented Figure 10 geomean slowdown (E1), to three places.
pub const SIM_SLOWDOWN: f64 = 1.357;
/// Documented E14 mutant totals over the Tiny kernels.
pub const MUTANTS: u64 = 5336;
/// Documented E14 mutants the checker rejects.
pub const MUTANTS_REJECTED: u64 = 5310;

/// One unit of work.
enum Unit {
    /// A Wile program: its name and source; `kernel` for suite kernels.
    Program {
        name: String,
        source: String,
        kernel: bool,
    },
    /// Check every mutant of a Tiny kernel.
    Mutants(Kernel),
}

/// The frontend workload's inputs and first-pass results.
pub struct Frontend {
    units: Vec<Unit>,
    corpus_hash: u64,
    first: Vec<Option<Out>>,
}

/// What one unit produced; all of it must repeat exactly on every pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Out {
    /// A Wile program's verdict.
    Program {
        /// Protected instructions emitted.
        protected_instrs: u64,
        /// Checker verdict on the protected output.
        accepted: Result<(), String>,
        /// Fault-free run status of each side.
        status: (Status, Status),
        /// Whether protected, baseline and VIR outputs agree and the VIR
        /// run halted.
        outputs_agree: bool,
        /// Simulated cycles, protected and baseline.
        cycles: (u64, u64),
    },
    /// A kernel's mutant sweep.
    Mutants {
        /// Mutants checked.
        total: u64,
        /// Mutants the checker rejected.
        rejected: u64,
    },
    /// Compilation failed.
    Failed(String),
}

impl Workload for Frontend {
    type Out = Out;

    fn setup(seed: u64, _threads: usize) -> Result<Self, String> {
        let corpus = inputs::wile_corpus(inputs::derive(seed, "frontend.corpus"), CORPUS);
        let corpus_hash = inputs::corpus_hash(&corpus);
        let mut units: Vec<Unit> = corpus
            .into_iter()
            .enumerate()
            .map(|(i, source)| Unit::Program {
                name: format!("fuzz{i}"),
                source,
                kernel: false,
            })
            .collect();
        units.extend(kernels(Scale::Full).into_iter().map(|k| Unit::Program {
            name: k.name.to_owned(),
            source: k.source,
            kernel: true,
        }));
        units.extend(kernels(Scale::Tiny).into_iter().map(Unit::Mutants));
        Ok(Self {
            first: vec![None; units.len()],
            units,
            corpus_hash,
        })
    }

    fn units(&self) -> usize {
        self.units.len()
    }

    fn unit_name(&self, i: usize) -> String {
        match &self.units[i] {
            Unit::Program { name, .. } => name.clone(),
            Unit::Mutants(k) => format!("{}/mutants", k.name),
        }
    }

    fn is_verdict(&self, i: usize) -> bool {
        matches!(self.units[i], Unit::Program { .. })
    }

    fn programs_per_pass(&self) -> u64 {
        let programs = self
            .units
            .iter()
            .filter(|u| matches!(u, Unit::Program { .. }));
        programs.count() as u64 + MUTANTS
    }

    fn code_words(&self) -> u64 {
        self.units
            .iter()
            .zip(&self.first)
            .filter_map(|(u, out)| match (u, out) {
                (
                    Unit::Program { kernel: true, .. },
                    Some(Out::Program {
                        protected_instrs, ..
                    }),
                ) => Some(*protected_instrs),
                _ => None,
            })
            .sum()
    }

    fn run(&self, i: usize, rec: &Recorder) -> Out {
        match &self.units[i] {
            Unit::Program { source, .. } => program(rec, source),
            Unit::Mutants(k) => mutants(rec, k),
        }
    }

    fn check(&mut self, i: usize, pass: usize, out: Out, checks: &mut Checks) {
        let name = self.unit_name(i);
        if pass > 0 {
            let same = self.first[i].as_ref() == Some(&out);
            return checks.check("repeatable", same, || format!("{name}: verdict changed"));
        }
        match &out {
            Out::Failed(e) => checks.check("pipeline", false, || format!("{name}: {e}")),
            Out::Program {
                accepted,
                status,
                outputs_agree,
                ..
            } => {
                checks.check("protected_typechecks", accepted.is_ok(), || {
                    format!(
                        "{name}: {}",
                        accepted.as_ref().err().map_or("", String::as_str)
                    )
                });
                checks.check(
                    "runs_halt",
                    *status == (Status::Halted, Status::Halted),
                    || format!("{name}: runs end {status:?}"),
                );
                checks.check("outputs_match_vir", *outputs_agree, || {
                    format!("{name}: protected, baseline and VIR outputs differ")
                });
            }
            Out::Mutants { .. } => {}
        }
        self.first[i] = Some(out);
    }

    fn finish(&mut self, _wall_s: f64, checks: &mut Checks) -> Vec<Figure> {
        let mut log_sum = 0.0;
        let mut kernels = 0;
        let (mut total, mut rejected) = (0, 0);
        for (u, out) in self.units.iter().zip(&self.first) {
            match (u, out) {
                (Unit::Program { kernel: true, .. }, Some(Out::Program { cycles: (p, b), .. })) => {
                    log_sum += (*p as f64 / *b as f64).ln();
                    kernels += 1;
                }
                (
                    _,
                    Some(Out::Mutants {
                        total: t,
                        rejected: r,
                    }),
                ) => {
                    total += t;
                    rejected += r;
                }
                _ => {}
            }
        }
        let slowdown = (log_sum / f64::from(kernels.max(1))).exp();
        checks.check(
            "sim_slowdown",
            common::rounds_to(slowdown, SIM_SLOWDOWN, 3),
            || format!("{slowdown} does not round to documented {SIM_SLOWDOWN}"),
        );
        checks.check(
            "mutant_rejects",
            (total, rejected) == (MUTANTS, MUTANTS_REJECTED),
            || format!("{rejected}/{total} rejected, documented {MUTANTS_REJECTED}/{MUTANTS}"),
        );
        vec![
            Figure::new(
                "sim_slowdown",
                slowdown,
                "x",
                format!("geomean over {kernels} full-scale kernels"),
            ),
            Figure::new(
                "mutant_reject_frac",
                rejected as f64 / total.max(1) as f64,
                "ratio",
                format!("{rejected}/{total}"),
            ),
        ]
    }

    fn fingerprints(&self) -> Vec<(String, u64)> {
        vec![("wile_corpus".to_owned(), self.corpus_hash)]
    }
}

/// One Wile program's verdict.
fn program(rec: &Recorder, source: &str) -> Out {
    let mut c = match rec.span("compiler.compile", || {
        compile(source, &CompileOptions::default())
    }) {
        Ok(c) => c,
        Err(e) => return Out::Failed(e.to_string()),
    };
    common::count_emitted(rec, &c);
    let accepted = common::type_check(rec, &c.protected.program, &mut c.protected.arena)
        .map_err(|e| e.to_string());
    let p = rec.span("machine.run_program", || {
        run_program(&c.protected.program, RUN_BUDGET)
    });
    let b = rec.span("machine.run_program", || {
        run_program(&c.baseline.program, RUN_BUDGET)
    });
    rec.count("machine.steps", p.steps + b.steps);
    let vir = rec.span("compiler.interpret", || interpret(&c.vir, RUN_BUDGET));
    let model = MachineModel::default();
    let cycles = rec.span("sim.simulate", || {
        (
            simulate(&c.protected.sched, &vir.visits, &model),
            simulate(&c.baseline.sched, &vir.visits, &model),
        )
    });
    rec.count("sim.cycles.protected", cycles.0);
    rec.count("sim.cycles.baseline", cycles.1);
    Out::Program {
        protected_instrs: c.protected.program.instrs.len() as u64,
        accepted,
        status: (p.status, b.status),
        outputs_agree: vir.halted && p.trace == vir.trace && b.trace == vir.trace,
        cycles,
    }
}

/// Check every mutant of one Tiny kernel's protected output.
fn mutants(rec: &Recorder, k: &Kernel) -> Out {
    let mut c = match rec.span("compiler.compile", || {
        compile(&k.source, &CompileOptions::default())
    }) {
        Ok(c) => c,
        Err(e) => return Out::Failed(e.to_string()),
    };
    common::count_emitted(rec, &c);
    let arena = &mut c.protected.arena;
    let mutants = rec.span("oracle.all_mutants", || {
        all_mutants(&c.protected.program, arena)
    });
    rec.count("oracle.mutants", mutants.len() as u64);
    let rejected = mutants
        .iter()
        .filter(|m| common::type_check(rec, &m.program, arena).is_err())
        .count();
    Out::Mutants {
        total: mutants.len() as u64,
        rejected: rejected as u64,
    }
}
