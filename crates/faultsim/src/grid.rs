//! Per-plan **injection grids**: every plan's individual verdict, plus the
//! golden-run observables that map a dynamic strike back to a static cell.
//!
//! A campaign aggregates plan outcomes into a [`CampaignReport`]; the
//! static analyses in `talft-analysis` need the opposite view — *every*
//! plan's verdict, keyed by its injection point, plus the golden `pcG`
//! trace that maps a dynamic step back to the static code address about
//! to execute. A state's `pcG` value is the address of the instruction
//! being fetched or executed at that step (the fetch/exec split leaves
//! `pcG` on the in-flight instruction), so `(at_step, site)` ↦
//! `(pc_by_step[at_step], site)` is exactly the dynamic-to-static cell
//! mapping the differential oracles cross-validate.
//!
//! A grid is [`golden_trace`] + the plans + [`plan_verdicts`]: the
//! campaign engine's own per-plan results, taken from the engine
//! [`run_plan_campaign`](crate::run_plan_campaign) picks (batched, scalar
//! when the golden run did not halt, has no liveness, or
//! [`CampaignConfig::batch`] is off) on `cfg.threads` workers. Grids always
//! run ungated: [`CampaignConfig::stop_on_first_violation`] never cuts one
//! short. A harness panic is isolated per plan (`run_isolated`, with
//! `cfg.retry`) and recorded as [`Verdict::EngineError`] with 0 strikes
//! applied, as in a campaign; the sequential loop that used to build the
//! grids crashed the caller instead.
//!
//! [`CampaignReport`]: crate::CampaignReport

use std::sync::Arc;

use talft_isa::{Color, Program, Reg};
use talft_machine::{step, FaultSite, Machine};

use crate::plan::{single_fault_plans, FaultPlan, Strike};
use crate::{golden_run, plan_verdicts, CampaignConfig, Engine, Golden, GoldenError, Verdict};

/// One executed single-fault plan: injection point, corrupt value, verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridOutcome {
    /// Golden step count at which the strike lands.
    pub at_step: u64,
    /// The corrupted site.
    pub site: FaultSite,
    /// The corrupt value written.
    pub value: i64,
    /// The campaign verdict for this plan.
    pub verdict: Verdict,
}

/// Every plan outcome of an exhaustive k=1 campaign, plus the golden-run
/// observables that map dynamic steps to static code addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultGrid {
    /// The golden observables for the dynamic-to-static cell mapping.
    pub trace: GoldenTrace,
    /// Per-plan outcomes, in plan (step-sorted) order.
    pub outcomes: Vec<GridOutcome>,
}

impl FaultGrid {
    /// Outcomes scored [`Verdict::Sdc`].
    pub fn sdc(&self) -> impl Iterator<Item = &GridOutcome> {
        self.outcomes.iter().filter(|o| o.verdict == Verdict::Sdc)
    }

    /// Tally of a verdict.
    #[must_use]
    pub fn count(&self, v: Verdict) -> usize {
        self.outcomes.iter().filter(|o| o.verdict == v).count()
    }
}

/// One executed multi-strike plan: the strikes as scheduled, the verdict,
/// and how many strikes were actually injected (a run detected before a
/// later strike's step never receives it — `applied < strikes.len()`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanOutcome {
    /// The plan's strikes, step-sorted.
    pub strikes: Vec<Strike>,
    /// The campaign verdict for this plan.
    pub verdict: Verdict,
    /// Strikes actually injected before the run ended.
    pub applied: usize,
}

/// Golden-run observables mapping dynamic steps to static code addresses
/// — shared by the grids and by static-guided plan prioritization (which
/// needs the mapping *before* any plan runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenTrace {
    /// `pc_by_step[s]` = the golden `pcG` value after `s` steps
    /// (`pc_by_step[0]` is the boot state; length `golden_steps + 1`).
    pub pc_by_step: Vec<i64>,
    /// `queue_len_by_step[s]` = golden store-queue occupancy after `s`
    /// steps (same indexing), for mapping queue-slot sites.
    pub queue_len_by_step: Vec<usize>,
    /// Steps in the golden run.
    pub golden_steps: u64,
}

/// Replay the golden prefix once, recording pcG and queue occupancy.
#[must_use]
pub fn golden_trace(program: &Arc<Program>, cfg: &CampaignConfig, golden: &Golden) -> GoldenTrace {
    let mut m = Machine::boot(Arc::clone(program)).with_oob_policy(cfg.oob);
    let mut pc_by_step = vec![m.rval(Reg::Pc(Color::Green))];
    let mut queue_len_by_step = vec![m.queue().len()];
    while m.status().is_running() && m.steps() < golden.steps {
        step(&mut m);
        pc_by_step.push(m.rval(Reg::Pc(Color::Green)));
        queue_len_by_step.push(m.queue().len());
    }
    GoldenTrace {
        pc_by_step,
        queue_len_by_step,
        golden_steps: golden.steps,
    }
}

/// Every plan outcome of a k≥2 campaign, plus the golden-run observables
/// that map dynamic strikes to static cells — the multi-strike analogue of
/// [`FaultGrid`], consumed by the pair-fault differential oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanGrid {
    /// The golden observables for the dynamic-to-static cell mapping.
    pub trace: GoldenTrace,
    /// Per-plan outcomes, in the caller's plan order.
    pub outcomes: Vec<PlanOutcome>,
}

impl PlanGrid {
    /// Outcomes scored [`Verdict::Sdc`].
    pub fn sdc(&self) -> impl Iterator<Item = &PlanOutcome> {
        self.outcomes.iter().filter(|o| o.verdict == Verdict::Sdc)
    }

    /// Tally of a verdict.
    #[must_use]
    pub fn count(&self, v: Verdict) -> usize {
        self.outcomes.iter().filter(|o| o.verdict == v).count()
    }
}

/// Run an arbitrary plan set as a grid (golden run included).
///
/// # Errors
///
/// Propagates [`GoldenError`] from the reference run.
pub fn plan_fault_grid(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    plans: &[FaultPlan],
) -> Result<PlanGrid, GoldenError> {
    let golden = golden_run(program, cfg)?;
    Ok(plan_fault_grid_against(program, cfg, &golden, plans))
}

/// Run an arbitrary plan set as a grid against a precomputed golden run.
///
/// Outcomes come back in the *caller's* plan order, whatever order the
/// engine ran them in. Verdicts are [`run_plan_campaign`]'s, plan by plan
/// (see the module doc for engine choice, gating and panics).
///
/// [`run_plan_campaign`]: crate::run_plan_campaign
#[must_use]
pub fn plan_fault_grid_against(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
) -> PlanGrid {
    let verdicts = plan_verdicts(program, cfg, golden, plans, Engine::Auto);
    let outcomes = plans
        .iter()
        .zip(verdicts)
        .map(|(plan, (verdict, applied))| PlanOutcome {
            strikes: plan.strikes.clone(),
            verdict,
            applied,
        })
        .collect();
    PlanGrid {
        trace: golden_trace(program, cfg, golden),
        outcomes,
    }
}

/// Run the exhaustive k=1 grid (golden run included).
///
/// # Errors
///
/// Propagates [`GoldenError`] from the reference run.
pub fn single_fault_grid(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
) -> Result<FaultGrid, GoldenError> {
    let golden = golden_run(program, cfg)?;
    Ok(single_fault_grid_against(program, cfg, &golden))
}

/// Run the exhaustive k=1 grid ([`single_fault_plans`], step-sorted)
/// against a precomputed golden run. Verdicts are [`run_plan_campaign`]'s,
/// plan by plan (see the module doc for engine choice, gating and panics).
///
/// [`run_plan_campaign`]: crate::run_plan_campaign
#[must_use]
pub fn single_fault_grid_against(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
) -> FaultGrid {
    let plans = single_fault_plans(program, cfg, golden);
    let verdicts = plan_verdicts(program, cfg, golden, &plans, Engine::Auto);
    let outcomes = plans
        .iter()
        .zip(verdicts)
        .map(|(plan, (verdict, _applied))| {
            let lead = plan.strikes.first().expect("k=1 plans have one strike");
            GridOutcome {
                at_step: lead.at_step,
                site: lead.site,
                value: lead.value,
                verdict,
            }
        })
        .collect();
    FaultGrid {
        trace: golden_trace(program, cfg, golden),
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_plan_campaign, PlanVerdict};
    use talft_isa::assemble;

    const STORE: &str = r#"
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

    /// The §2.2 CSE miscompilation: one register feeds both stores.
    const UNPROTECTED: &str = r#"
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
  stB r2, r1
  halt
"#;

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            stride: 1,
            mutations_per_site: 2,
            ..CampaignConfig::default()
        }
    }

    fn program(src: &str) -> Arc<Program> {
        Arc::new(assemble(src).expect("assembles").program)
    }

    /// `(verdict, applied)` of every outcome, for comparing grids with
    /// the engines' per-plan vectors.
    fn plan_pairs(grid: &PlanGrid) -> Vec<PlanVerdict> {
        grid.outcomes
            .iter()
            .map(|o| (o.verdict, o.applied))
            .collect()
    }

    #[test]
    fn grid_matches_campaign_tallies() {
        let program = program(STORE);
        let cfg = cfg();
        let golden = golden_run(&program, &cfg).expect("golden halts");
        let grid = single_fault_grid_against(&program, &cfg, &golden);
        let plans = single_fault_plans(&program, &cfg, &golden);
        // Plan by plan against the frozen reference engine...
        let reference = plan_verdicts(&program, &cfg, &golden, &plans, Engine::Reference);
        assert_eq!(grid.outcomes.len(), plans.len());
        for ((o, plan), (verdict, _)) in grid.outcomes.iter().zip(&plans).zip(&reference) {
            assert_eq!((o.at_step, o.site, o.value), {
                let s = plan.strikes[0];
                (s.at_step, s.site, s.value)
            });
            assert_eq!(o.verdict, *verdict, "plan {plan:?}");
        }
        // ...and in sum against the campaign report.
        let rep = run_plan_campaign(&program, &cfg, &golden, &plans);
        assert_eq!(grid.outcomes.len() as u64, rep.total);
        assert_eq!(grid.count(Verdict::Masked) as u64, rep.masked);
        assert_eq!(grid.count(Verdict::Detected) as u64, rep.detected);
        assert_eq!(grid.count(Verdict::Sdc) as u64, rep.sdc);
    }

    #[test]
    fn pc_trace_covers_every_step_and_starts_at_entry() {
        let program = program(STORE);
        let cfg = cfg();
        let grid = single_fault_grid(&program, &cfg).expect("golden halts");
        let trace = &grid.trace;
        assert_eq!(trace.pc_by_step.len() as u64, trace.golden_steps + 1);
        assert_eq!(trace.pc_by_step[0], program.entry);
        // Every instruction occupies two steps (fetch + exec), so each code
        // address appears at least twice in the trace.
        assert!(trace.pc_by_step.iter().filter(|&&a| a == 3).count() >= 2);
        // The queue holds one entry between stG's exec and stB's exec.
        assert!(trace.queue_len_by_step.contains(&1));
    }

    /// A gated config, the scalar engine (`batch: false`) and the worker
    /// count change nothing: a grid always runs ungated, and every engine
    /// gives the same per-plan verdicts.
    #[test]
    fn config_variants_give_the_default_grid() {
        // The same-register store pair has SDC, so a gated run would stop.
        for src in [STORE, UNPROTECTED] {
            let program = program(src);
            let golden = golden_run(&program, &cfg()).expect("golden ends");
            let want = single_fault_grid_against(&program, &cfg(), &golden);
            for variant in [
                CampaignConfig {
                    stop_on_first_violation: true,
                    ..cfg()
                },
                CampaignConfig {
                    batch: false,
                    ..cfg()
                },
                CampaignConfig {
                    threads: 1,
                    ..cfg()
                },
                CampaignConfig {
                    threads: 3,
                    stop_on_first_violation: true,
                    batch: false,
                    ..cfg()
                },
            ] {
                let got = single_fault_grid_against(&program, &variant, &golden);
                assert_eq!(got, want, "{variant:?}");
            }
        }
        let program = program(UNPROTECTED);
        let grid = single_fault_grid(&program, &cfg()).expect("golden ends");
        assert!(grid.count(Verdict::Sdc) > 0, "the fixture must have SDC");
    }

    /// Outcomes come back in the caller's order even when it is not the
    /// engine's step order.
    #[test]
    fn reversed_plans_give_reversed_outcomes() {
        let program = program(STORE);
        let cfg = cfg();
        let golden = golden_run(&program, &cfg).expect("golden halts");
        let plans = single_fault_plans(&program, &cfg, &golden);
        let forward = plan_fault_grid_against(&program, &cfg, &golden, &plans);
        let reversed: Vec<FaultPlan> = plans.iter().rev().cloned().collect();
        let backward = plan_fault_grid_against(&program, &cfg, &golden, &reversed);
        let mut unreversed = backward.outcomes.clone();
        unreversed.reverse();
        assert_eq!(unreversed, forward.outcomes);
        assert_eq!(backward.trace, forward.trace);
        // The step-sorted k=1 grid is the forward plan grid.
        let k1 = single_fault_grid_against(&program, &cfg, &golden);
        assert_eq!(k1.trace, forward.trace);
        assert!(k1
            .outcomes
            .iter()
            .zip(&forward.outcomes)
            .all(|(a, b)| a.verdict == b.verdict && b.applied == 1));
    }

    #[test]
    fn empty_plan_set_gives_an_empty_grid() {
        let program = program(STORE);
        let cfg = cfg();
        let golden = golden_run(&program, &cfg).expect("golden halts");
        let grid = plan_fault_grid_against(&program, &cfg, &golden, &[]);
        assert!(grid.outcomes.is_empty());
        assert_eq!(grid.trace, golden_trace(&program, &cfg, &golden));
    }

    /// Over 64 GPRs the golden run has no register liveness, so the
    /// batched engine falls back to the scalar one; the grid is the same.
    #[test]
    fn scalar_fallback_program_gives_the_reference_grid() {
        let program = program(&format!(".gprs 70\n{STORE}").replace("r1", "r69"));
        let cfg = cfg();
        let golden = golden_run(&program, &cfg).expect("golden halts");
        assert!(golden.reg_liveness.is_empty(), "must force the fallback");
        let plans = single_fault_plans(&program, &cfg, &golden);
        let grid = plan_fault_grid_against(&program, &cfg, &golden, &plans);
        let reference = plan_verdicts(&program, &cfg, &golden, &plans, Engine::Reference);
        assert_eq!(plan_pairs(&grid), reference);
        let scalar = CampaignConfig {
            batch: false,
            ..cfg.clone()
        };
        assert_eq!(
            plan_fault_grid_against(&program, &scalar, &golden, &plans),
            grid
        );
        assert!(grid.count(Verdict::Detected) > 0);
    }

    /// A harness panic (a strike on a register outside the file) is an
    /// `EngineError` outcome, not a crash of the caller.
    #[test]
    fn harness_panic_is_an_engine_error_outcome() {
        let program = program(STORE);
        let cfg = CampaignConfig {
            retry: crate::RetryPolicy {
                max_retries: 0,
                base_delay_ms: 0,
                max_delay_ms: 0,
            },
            ..cfg()
        };
        let golden = golden_run(&program, &cfg).expect("golden halts");
        let plans = [
            FaultPlan::single(2, FaultSite::Reg(Reg::r(1)), 77),
            FaultPlan::single(0, FaultSite::Reg(Reg::r(200)), 7),
        ];
        let grid = plan_fault_grid_against(&program, &cfg, &golden, &plans);
        assert_eq!(plan_pairs(&grid)[1], (Verdict::EngineError, 0));
        assert_ne!(grid.outcomes[0].verdict, Verdict::EngineError);
    }
}
