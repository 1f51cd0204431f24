//! `verify`: the full per-program verdict `talftc --lint --zap-report
//! --campaign` gives, plus TF008 and the k=2 cross-check, over the 18
//! Tiny suite kernels, protected and baseline.
//!
//! Per program: compile → check (protected) → TF0xx lints with the solver
//! → k=1 zap analysis → pair analyzer + pair report → TF008 → golden run →
//! strided k=1 campaign and seeded sampled k=2 campaign → grids for both →
//! k=1 and k=2 cross-validation. Static k=2 analysis is nearly all of the
//! time; the campaigns are a small share.

use std::sync::Arc;

use talft_analysis::{
    analyze_zaps, cross_validate, cross_validate_pairs, error_count, lint_pairs,
    lint_program_solver, PairAnalyzer,
};
use talft_compiler::{compile, CompileOptions};
use talft_faultsim::{
    golden_run, grid_fingerprint, multi_fault_plans, plan_fault_grid_against, run_plan_campaign,
    single_fault_grid_against, single_fault_plans, CampaignConfig, CampaignReport, FaultPlan,
    Golden,
};
use talft_isa::Program;
use talft_machine::Status;
use talft_suite::{kernels, Kernel, Scale};

use crate::common::{self, Reference, Side};
use crate::harness::{Checks, Figure, Workload};
use crate::inputs;
use crate::trace::Recorder;

/// k=1 campaign stride, in golden steps. Wider than `talftc`'s default of
/// 11, so that the sequential cross-validation grid stays a small share
/// of the verdict.
pub const K1_STRIDE: u64 = 31;
/// Sampled k=2 plans per program.
pub const K2_SAMPLES: usize = 128;

/// Documented E17 protected static k=1 coverage.
pub const K1_COVERAGE: f64 = 1.0;
/// Documented E22 protected static k=2 coverage, to four places.
pub const K2_COVERAGE: f64 = 0.9949;

/// The verify workload's inputs and first-pass results.
pub struct Verify {
    kernels: Vec<Kernel>,
    programs: Vec<(usize, Side)>,
    k1: CampaignConfig,
    k2: CampaignConfig,
    reference: Reference,
    first: Vec<Option<Summary>>,
    fingerprints: Vec<(String, u64)>,
    plans_per_pass: u64,
    seed: u64,
}

/// One program's verdict.
pub struct Out {
    program: Arc<Program>,
    accepted: Option<Result<(), String>>,
    lint_errors: usize,
    k1_safe: (usize, usize),
    k2_safe: (u64, u64),
    bailed: Option<String>,
    tf008: usize,
    golden: Golden,
    k1_plans: Vec<FaultPlan>,
    k2_plans: Vec<FaultPlan>,
    k1: CampaignReport,
    k2: CampaignReport,
    k1_mismatches: usize,
    k2_mismatches: usize,
}

/// What must repeat exactly on every pass.
#[derive(Debug, Clone, PartialEq)]
struct Summary {
    k1_safe: (usize, usize),
    k2_safe: (u64, u64),
    tf008: usize,
    lint_errors: usize,
    k1: CampaignReport,
    k2: CampaignReport,
}

impl Workload for Verify {
    type Out = Result<Out, String>;

    fn setup(seed: u64, threads: usize) -> Result<Self, String> {
        let kernels = kernels(Scale::Tiny);
        let reference = Reference::of(&kernels)?;
        let programs: Vec<(usize, Side)> = (0..kernels.len())
            .flat_map(|k| [(k, Side::Protected), (k, Side::Baseline)])
            .collect();
        let k1 = CampaignConfig {
            stride: K1_STRIDE,
            mutations_per_site: 1,
            threads,
            ..CampaignConfig::default()
        };
        let k2 = CampaignConfig {
            pair_samples: K2_SAMPLES,
            seed: inputs::derive(seed, "verify.k2"),
            ..k1.clone()
        };
        Ok(Self {
            first: vec![None; programs.len()],
            kernels,
            programs,
            k1,
            k2,
            reference,
            fingerprints: Vec::new(),
            plans_per_pass: 0,
            seed,
        })
    }

    fn units(&self) -> usize {
        self.programs.len()
    }

    fn unit_name(&self, i: usize) -> String {
        let (k, side) = self.programs[i];
        format!("{}/{}", self.kernels[k].name, side.name())
    }

    fn is_verdict(&self, _i: usize) -> bool {
        true
    }

    fn programs_per_pass(&self) -> u64 {
        self.programs.len() as u64
    }

    fn code_words(&self) -> u64 {
        self.reference.code_words
    }

    fn run(&self, i: usize, rec: &Recorder) -> Self::Out {
        let (k, side) = self.programs[i];
        let mut c = rec
            .span("compiler.compile", || {
                compile(&self.kernels[k].source, &CompileOptions::default())
            })
            .map_err(|e| format!("{}: {e}", self.kernels[k].name))?;
        common::count_emitted(rec, &c);
        let art = side.artifact_mut(&mut c);
        let program = Arc::clone(&art.program);
        let accepted = (side == Side::Protected)
            .then(|| common::type_check(rec, &program, &mut art.arena).map_err(|e| e.to_string()));
        let lints = rec.span("analysis.lint", || {
            lint_program_solver(&program, &mut art.arena)
        });
        let zap = rec.span("analysis.analyze_zaps", || analyze_zaps(&program));
        let mut analyzer = rec.span("analysis.pair_new", || PairAnalyzer::new(&program));
        let pairs = rec.span("analysis.pair_report", || analyzer.pair_report());
        rec.count("analysis.cells", pairs.cells as u64);
        rec.count("analysis.pairs", pairs.pairs);
        rec.count("analysis.fixpoints", pairs.fixpoints);
        let tf008 = rec
            .span("analysis.lint_pairs", || lint_pairs(&program))
            .len();
        let golden = rec
            .span("faultsim.golden_run", || golden_run(&program, &self.k1))
            .map_err(|e| {
                format!(
                    "{} ({}): golden run: {e}",
                    self.kernels[k].name,
                    side.name()
                )
            })?;
        let k1_plans = rec.span("faultsim.plans", || {
            single_fault_plans(&program, &self.k1, &golden)
        });
        let k1 = rec.span("faultsim.campaign.k1", || {
            run_plan_campaign(&program, &self.k1, &golden, &k1_plans)
        });
        rec.count("faultsim.campaign.k1.plans", k1_plans.len() as u64);
        let k2_plans = rec.span("faultsim.plans", || {
            multi_fault_plans(&program, &self.k2, &golden, 2)
        });
        let k2 = rec.span("faultsim.campaign.k2", || {
            run_plan_campaign(&program, &self.k2, &golden, &k2_plans)
        });
        rec.count("faultsim.campaign.k2.plans", k2_plans.len() as u64);
        let k1_grid = rec.span("faultsim.grid", || {
            single_fault_grid_against(&program, &self.k1, &golden)
        });
        let k2_grid = rec.span("faultsim.grid", || {
            plan_fault_grid_against(&program, &self.k2, &golden, &k2_plans)
        });
        let k1_diff = rec.span("analysis.xval", || cross_validate(&zap, &k1_grid));
        let k2_diff = rec.span("analysis.xval", || {
            cross_validate_pairs(&mut analyzer, &k2_grid)
        });
        let (d, b, _) = zap.tally();
        Ok(Out {
            accepted,
            lint_errors: error_count(&lints),
            k1_safe: (d + b, zap.cells()),
            k2_safe: (pairs.detected + pairs.benign, pairs.pairs),
            bailed: analyzer.bailed().map(str::to_owned),
            tf008,
            golden,
            k1_plans,
            k2_plans,
            k1,
            k2,
            k1_mismatches: k1_diff.mismatches.len(),
            k2_mismatches: k2_diff.mismatches.len(),
            program,
        })
    }

    fn check(&mut self, i: usize, pass: usize, out: Self::Out, checks: &mut Checks) {
        let k = self.programs[i].0;
        let name = self.unit_name(i);
        let out = match out {
            Ok(o) => o,
            Err(e) => return checks.check("pipeline", false, || e),
        };
        let summary = Summary {
            k1_safe: out.k1_safe,
            k2_safe: out.k2_safe,
            tf008: out.tf008,
            lint_errors: out.lint_errors,
            k1: out.k1.clone(),
            k2: out.k2.clone(),
        };
        if pass > 0 {
            let same = self.first[i].as_ref() == Some(&summary);
            return checks.check("repeatable", same, || format!("{name}: verdict changed"));
        }
        if let Some(acc) = &out.accepted {
            checks.check("protected_typechecks", acc.is_ok(), || {
                format!("{name}: {}", acc.as_ref().err().map_or("", String::as_str))
            });
            checks.check("protected_lint_clean", out.lint_errors == 0, || {
                format!("{name}: {} error lints", out.lint_errors)
            });
            checks.check("zero_k1_sdc", out.k1.fault_tolerant(), || {
                format!(
                    "{name}: {} SDC, {} other",
                    out.k1.sdc, out.k1.other_violations
                )
            });
        }
        checks.check("golden_halted", out.golden.status == Status::Halted, || {
            format!("{name}: golden run ends {:?}", out.golden.status)
        });
        checks.check(
            "outputs_match_vir",
            out.golden.trace == self.reference.traces[k],
            || format!("{name}: golden output differs from the VIR interpreter"),
        );
        checks.check("pair_analyzer_ran", out.bailed.is_none(), || {
            format!("{name}: pair analyzer bailed: {:?}", out.bailed)
        });
        checks.check("xval_k1", out.k1_mismatches == 0, || {
            format!(
                "{name}: {} statically-safe k=1 SDC cells",
                out.k1_mismatches
            )
        });
        checks.check("xval_k2", out.k2_mismatches == 0, || {
            format!(
                "{name}: {} statically-safe k=2 SDC pairs",
                out.k2_mismatches
            )
        });
        for (grid, cfg, plans) in [
            ("k1", &self.k1, &out.k1_plans),
            ("k2", &self.k2, &out.k2_plans),
        ] {
            self.fingerprints.push((
                format!("{name}/{grid}"),
                grid_fingerprint(&out.golden, plans),
            ));
            common::check_scalar_agrees(
                checks,
                &name,
                &out.program,
                cfg,
                &out.golden,
                plans,
                inputs::derive(self.seed, "verify.subsample") ^ i as u64,
            );
        }
        self.plans_per_pass += (out.k1_plans.len() + out.k2_plans.len()) as u64;
        self.first[i] = Some(summary);
    }

    fn finish(&mut self, wall_s: f64, checks: &mut Checks) -> Vec<Figure> {
        let protected = self
            .programs
            .iter()
            .zip(&self.first)
            .filter(|((_, side), _)| *side == Side::Protected)
            .filter_map(|(_, s)| s.as_ref());
        let (mut k1, mut k2) = ((0, 0), (0, 0));
        for s in protected {
            k1 = (k1.0 + s.k1_safe.0, k1.1 + s.k1_safe.1);
            k2 = (k2.0 + s.k2_safe.0, k2.1 + s.k2_safe.1);
        }
        let k1_cov = k1.0 as f64 / k1.1.max(1) as f64;
        let k2_cov = k2.0 as f64 / k2.1.max(1) as f64;
        checks.check("k1_static_coverage", k1_cov == K1_COVERAGE, || {
            format!("{k1_cov} != documented {K1_COVERAGE}")
        });
        checks.check(
            "k2_static_coverage",
            common::rounds_to(k2_cov, K2_COVERAGE, 4),
            || format!("{k2_cov} does not round to documented {K2_COVERAGE}"),
        );
        vec![
            Figure::new(
                "k1_static_coverage",
                k1_cov,
                "ratio",
                format!("{}/{} protected cells", k1.0, k1.1),
            ),
            Figure::new(
                "k2_static_coverage",
                k2_cov,
                "ratio",
                format!("{}/{} protected pairs", k2.0, k2.1),
            ),
            Figure::new(
                "plans_per_s",
                self.plans_per_pass as f64 / wall_s,
                "plans/s",
                format!("{} plans per pass", self.plans_per_pass),
            ),
        ]
    }

    fn fingerprints(&self) -> Vec<(String, u64)> {
        self.fingerprints.clone()
    }
}
