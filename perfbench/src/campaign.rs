//! `campaign`: fault campaigns with no static analysis, over the 18 Tiny
//! suite kernels, protected and baseline.
//!
//! Per program: golden run, then three grids — the exhaustive-in-time
//! k=1 grid (every step, every site, one corrupt value: the E17 grid), a
//! seeded sampled k=2 grid, and (protected) the k=1 grid again, split
//! into shards, each shard report round-tripped through its
//! JSON wire form and merged. Compilation is input preparation here.

use std::sync::Arc;

use talft_faultsim::{
    golden_run, grid_fingerprint, merge_shard_reports, multi_fault_plans, run_plan_campaign,
    run_shard_campaign, single_fault_plans, CampaignConfig, CampaignReport, FaultPlan, Golden,
    ShardControl, ShardOutcome, ShardPart, ShardSpec,
};
use talft_isa::Program;
use talft_machine::Status;
use talft_obs::Json;
use talft_suite::{kernels, Scale};

use crate::common::{self, Reference, Side};
use crate::harness::{Checks, Figure, Workload};
use crate::inputs;
use crate::trace::Recorder;

/// Sampled k=2 plans per program.
pub const K2_SAMPLES: usize = 1024;
/// Shards the protected k=1 grid is split into.
pub const SHARDS: u32 = 4;

/// The campaign workload's inputs and first-pass results.
pub struct Campaign {
    programs: Vec<(String, Side, usize, Arc<Program>)>,
    k1: CampaignConfig,
    k2: CampaignConfig,
    reference: Reference,
    first: Vec<Option<Summary>>,
    fingerprints: Vec<(String, u64)>,
    plans_per_pass: u64,
    seed: u64,
}

/// One program's campaign verdicts.
pub struct Out {
    golden: Golden,
    k1_plans: Vec<FaultPlan>,
    k2_plans: Vec<FaultPlan>,
    k1: CampaignReport,
    k2: CampaignReport,
    merged: Option<Result<CampaignReport, String>>,
}

/// What must repeat exactly on every pass.
#[derive(Debug, Clone, PartialEq)]
struct Summary {
    k1: CampaignReport,
    k2: CampaignReport,
}

impl Workload for Campaign {
    type Out = Result<Out, String>;

    fn setup(seed: u64, threads: usize) -> Result<Self, String> {
        let kernels = kernels(Scale::Tiny);
        let reference = Reference::of(&kernels)?;
        let mut programs = Vec::with_capacity(2 * kernels.len());
        for (k, c) in reference.compiled.iter().enumerate() {
            for (side, art) in [
                (Side::Protected, &c.protected),
                (Side::Baseline, &c.baseline),
            ] {
                let program = Arc::clone(&art.program);
                programs.push((kernels[k].name.to_owned(), side, k, program));
            }
        }
        let k1 = CampaignConfig {
            stride: 1,
            mutations_per_site: 1,
            threads,
            ..CampaignConfig::default()
        };
        let k2 = CampaignConfig {
            pair_samples: K2_SAMPLES,
            seed: inputs::derive(seed, "campaign.k2"),
            ..k1.clone()
        };
        Ok(Self {
            first: vec![None; programs.len()],
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
        let (kernel, side, _, _) = &self.programs[i];
        format!("{kernel}/{}", side.name())
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
        let (name, side, _, program) = &self.programs[i];
        let golden = rec
            .span("faultsim.golden_run", || golden_run(program, &self.k1))
            .map_err(|e| format!("{name} ({}): golden run: {e}", side.name()))?;
        let k1_plans = rec.span("faultsim.plans", || {
            single_fault_plans(program, &self.k1, &golden)
        });
        let k1 = rec.span("faultsim.campaign.k1", || {
            run_plan_campaign(program, &self.k1, &golden, &k1_plans)
        });
        rec.count("faultsim.campaign.k1.plans", k1_plans.len() as u64);
        let k2_plans = rec.span("faultsim.plans", || {
            multi_fault_plans(program, &self.k2, &golden, 2)
        });
        let k2 = rec.span("faultsim.campaign.k2", || {
            run_plan_campaign(program, &self.k2, &golden, &k2_plans)
        });
        rec.count("faultsim.campaign.k2.plans", k2_plans.len() as u64);
        let merged =
            (*side == Side::Protected).then(|| self.sharded(rec, program, &golden, &k1_plans));
        Ok(Out {
            golden,
            k1_plans,
            k2_plans,
            k1,
            k2,
            merged,
        })
    }

    fn check(&mut self, i: usize, pass: usize, out: Self::Out, checks: &mut Checks) {
        let name = self.unit_name(i);
        let (_, side, k, program) = &self.programs[i];
        let out = match out {
            Ok(o) => o,
            Err(e) => return checks.check("pipeline", false, || e),
        };
        if let Some(merged) = &out.merged {
            checks.check(
                "shard_merge_identical",
                merged.as_ref() == Ok(&out.k1),
                || format!("{name}: merged shard report differs: {merged:?}"),
            );
        }
        let summary = Summary {
            k1: out.k1.clone(),
            k2: out.k2.clone(),
        };
        if pass > 0 {
            let same = self.first[i].as_ref() == Some(&summary);
            return checks.check("repeatable", same, || format!("{name}: verdict changed"));
        }
        match side {
            Side::Protected => checks.check("zero_k1_sdc", out.k1.fault_tolerant(), || {
                format!(
                    "{name}: {} SDC, {} other",
                    out.k1.sdc, out.k1.other_violations
                )
            }),
            Side::Baseline => checks.check("baseline_k1_sdc_found", out.k1.sdc > 0, || {
                format!("{name}: the unprotected grid found no SDC")
            }),
        }
        checks.check("golden_halted", out.golden.status == Status::Halted, || {
            format!("{name}: golden run ends {:?}", out.golden.status)
        });
        checks.check(
            "outputs_match_vir",
            out.golden.trace == self.reference.traces[*k],
            || format!("{name}: golden output differs from the VIR interpreter"),
        );
        let program = Arc::clone(program);
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
                &program,
                cfg,
                &out.golden,
                plans,
                inputs::derive(self.seed, "campaign.subsample") ^ i as u64,
            );
        }
        let sharded = if out.merged.is_some() {
            out.k1_plans.len()
        } else {
            0
        };
        self.plans_per_pass += (out.k1_plans.len() + out.k2_plans.len() + sharded) as u64;
        self.first[i] = Some(summary);
    }

    fn finish(&mut self, wall_s: f64, _checks: &mut Checks) -> Vec<Figure> {
        vec![Figure::new(
            "plans_per_s",
            self.plans_per_pass as f64 / wall_s,
            "plans/s",
            format!("{} plans per pass, all grids", self.plans_per_pass),
        )]
    }

    fn fingerprints(&self) -> Vec<(String, u64)> {
        self.fingerprints.clone()
    }
}

impl Campaign {
    /// The k=1 grid again, in shards whose reports cross the JSON wire
    /// form before they are merged.
    fn sharded(
        &self,
        rec: &Recorder,
        program: &Arc<Program>,
        golden: &Golden,
        plans: &[FaultPlan],
    ) -> Result<CampaignReport, String> {
        let parts = rec.span("faultsim.shard", || {
            let fingerprint = grid_fingerprint(golden, plans);
            (0..SHARDS)
                .map(|index| {
                    let spec = ShardSpec::new(index, SHARDS).expect("index < count");
                    match run_shard_campaign(
                        program,
                        &self.k1,
                        golden,
                        plans,
                        spec,
                        0,
                        None,
                        |_| ShardControl::Continue,
                    ) {
                        Ok(ShardOutcome::Complete(report)) => Ok(ShardPart {
                            spec,
                            fingerprint,
                            plans: report.total,
                            report,
                        }),
                        Ok(ShardOutcome::Interrupted(_)) => Err(format!("shard {spec} stopped")),
                        Err(e) => Err(format!("shard {spec}: {e}")),
                    }
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let decoded = rec.span("faultsim.wire", || {
            parts
                .iter()
                .map(|p| {
                    let text = p.to_json().to_string();
                    rec.count("faultsim.wire.bytes", text.len() as u64);
                    Json::parse(&text)
                        .map_err(|e| format!("wire parse: {e}"))
                        .and_then(|j| ShardPart::from_json(&j).map_err(|e| format!("wire: {e}")))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        rec.span("faultsim.merge", || merge_shard_reports(&decoded))
            .map_err(|e| format!("merge: {e}"))
    }
}
