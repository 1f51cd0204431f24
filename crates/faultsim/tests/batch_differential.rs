//! The batched-engine differential harness: for fuzzed Wile programs —
//! protected *and* unprotected baseline, so every verdict class is on the
//! table — the bit-parallel batched engine, the scalar work-stealing
//! engine, and the pre-checkpoint reference engine must produce
//! **bit-identical** [`CampaignReport`]s at threads ∈ {1, 3, 8}, and
//! bit-identical per-plan `(verdict, applied)` vectors in the caller's plan
//! order ([`plan_verdicts`], what the injection grids are built from).
//! This is the "re-prove the guarantee per execution path" layer the
//! batched engine ships with: verdict-exactness is a tested theorem, not
//! a benchmark footnote. Failures shrink to a minimal Wile witness.

use std::sync::Arc;

use talft_compiler::{compile, CompileOptions};
use talft_faultsim::{
    golden_run, multi_fault_plans, plan_verdicts, run_plan_campaign, run_plan_campaign_batched,
    run_plan_campaign_reference, run_plan_campaign_scalar, single_fault_plans, CampaignConfig,
    CampaignReport, Engine, FaultPlan, PlanVerdict, Verdict,
};
use talft_isa::Program;
use talft_testutil::wile::{random_stmts, render_program, shrink_candidates, StmtR};
use talft_testutil::{shrink::minimize, SplitMix64};

fn base_cfg() -> CampaignConfig {
    CampaignConfig {
        stride: 9,
        mutations_per_site: 1,
        threads: 1,
        ..CampaignConfig::default()
    }
}

/// Run one plan set through all three engines at every thread count and
/// demand bit-identical reports and per-plan vectors. Returns the agreed
/// report and per-plan vector.
fn three_way(
    program: &Arc<Program>,
    plans: &[FaultPlan],
    golden: &talft_faultsim::Golden,
) -> Result<(CampaignReport, Vec<PlanVerdict>), String> {
    let reference = run_plan_campaign_reference(program, &base_cfg(), golden, plans);
    let per_plan = plan_verdicts(program, &base_cfg(), golden, plans, Engine::Reference);
    sums_to_report(plans, &per_plan, &reference)?;
    for threads in [1usize, 3, 8] {
        let cfg = CampaignConfig {
            threads,
            ..base_cfg()
        };
        let scalar = run_plan_campaign_scalar(program, &cfg, golden, plans);
        if scalar != reference {
            return Err(format!(
                "scalar engine (threads={threads}) diverged from reference:\n\
                 scalar:    {scalar:?}\nreference: {reference:?}"
            ));
        }
        let batched = run_plan_campaign_batched(program, &cfg, golden, plans);
        if batched != reference {
            return Err(format!(
                "batched engine (threads={threads}) diverged from reference:\n\
                 batched:   {batched:?}\nreference: {reference:?}"
            ));
        }
        // The public entry point must dispatch to the same bits.
        let dispatched = run_plan_campaign(program, &cfg, golden, plans);
        if dispatched != reference {
            return Err(format!(
                "dispatcher (threads={threads}, batch=true) diverged from reference"
            ));
        }
        for engine in [Engine::Reference, Engine::Scalar, Engine::Auto] {
            let got = plan_verdicts(program, &cfg, golden, plans, engine);
            if let Some(i) = (0..plans.len()).find(|&i| got[i] != per_plan[i]) {
                return Err(format!(
                    "{engine:?} engine (threads={threads}) per-plan verdict diverged \
                     from reference at plan {i} {:?}: {:?} vs {:?}",
                    plans[i], got[i], per_plan[i]
                ));
            }
        }
    }
    // Caller order, not engine order: reversing the plans reverses the
    // per-plan vector.
    let reversed: Vec<FaultPlan> = plans.iter().rev().cloned().collect();
    let cfg = CampaignConfig {
        threads: 3,
        ..base_cfg()
    };
    let mut back = plan_verdicts(program, &cfg, golden, &reversed, Engine::Auto);
    back.reverse();
    if back != per_plan {
        return Err("per-plan verdicts do not follow the caller's plan order".into());
    }
    Ok((reference, per_plan))
}

/// The per-plan vector must add up to the report it was taken beside.
fn sums_to_report(
    plans: &[FaultPlan],
    per_plan: &[PlanVerdict],
    report: &CampaignReport,
) -> Result<(), String> {
    let count = |v: Verdict| per_plan.iter().filter(|p| p.0 == v).count() as u64;
    let incomplete = plans
        .iter()
        .zip(per_plan)
        .filter(|(plan, (v, applied))| *v != Verdict::EngineError && *applied < plan.order())
        .count() as u64;
    let sums = (
        per_plan.len() as u64,
        count(Verdict::Masked),
        count(Verdict::Detected),
        count(Verdict::Sdc),
        count(Verdict::EngineError),
        incomplete,
    );
    let want = (
        report.total,
        report.masked,
        report.detected,
        report.sdc,
        report.engine_errors,
        report.incomplete_plans,
    );
    if sums != want {
        return Err(format!(
            "per-plan vector sums {sums:?} differ from the report {want:?}"
        ));
    }
    Ok(())
}

/// The property over one compiled binary: all engines agree on the k=1
/// grid and on a sampled k=2 set. Multi-strike plans whose strikes all hit
/// packed sites (GPRs, `d`, queue slots) ride the batched lanes as timed
/// events; the rest route scalar — both paths land in the same report.
fn engines_agree(program: &Arc<Program>, protected: bool) -> Result<(), String> {
    let golden = match golden_run(program, &base_cfg()) {
        Ok(g) => g,
        Err(_) => return Ok(()), // divergent fuzz shape: nothing to campaign
    };
    let plans = single_fault_plans(program, &base_cfg(), &golden);
    let (report, _) = three_way(program, &plans, &golden)?;
    if protected && report.sdc != 0 {
        return Err(format!(
            "Theorem 4: protected binary reported SDC: {:?}",
            report.violations
        ));
    }
    let k2_cfg = CampaignConfig {
        pair_samples: 48,
        ..base_cfg()
    };
    let k2 = multi_fault_plans(program, &k2_cfg, &golden, 2);
    three_way(program, &k2, &golden)?;
    Ok(())
}

/// The property over one fuzzed statement list.
fn holds(stmts: &[StmtR]) -> Result<(), String> {
    let src = render_program(stmts);
    let Ok(c) = compile(&src, &CompileOptions::default()) else {
        return Ok(()); // fuzzer occasionally emits uncompilable shapes
    };
    engines_agree(&Arc::new(c.protected.program.as_ref().clone()), true)
        .map_err(|e| format!("protected: {e}"))?;
    engines_agree(&Arc::new(c.baseline.program.as_ref().clone()), false)
        .map_err(|e| format!("baseline: {e}"))
}

#[test]
fn fuzzed_programs_run_bit_identically_on_all_three_engines() {
    let mut rng = SplitMix64::new(0xBA7C_4ED1);
    for round in 0..4 {
        let stmts = random_stmts(&mut rng, 2, 1, 6);
        if let Err(first) = holds(&stmts) {
            let min = minimize(stmts, |s| shrink_candidates(s), |s| holds(s).is_err(), 64);
            let err = holds(&min).err().unwrap_or(first);
            panic!(
                "round {round}: batched/scalar/reference reports diverged\n\
                 {err}\nminimal wile program:\n{}",
                render_program(&min)
            );
        }
    }
}

/// Hand-written adversarial plan shapes the fuzzer cannot produce: strikes
/// at golden termination, strikes past it (incomplete plans), equal-payload
/// strikes, out-of-file GPR indices (harness panic → EngineError), `d` and
/// queue value/address strikes (packed since ISSUE 8), pc strikes (the one
/// remaining scalar route), and multi-strike packed/mixed plans — each
/// must take the same route to the same report.
#[test]
fn adversarial_plan_shapes_agree_across_engines() {
    use talft_faultsim::Strike;
    use talft_isa::assemble;
    use talft_machine::FaultSite;
    let src = "\n.data\nregion out at 4096 len 1 : int output\n.code\nmain:\n  \
               .pre { forall m:mem; mem: m; }\n  mov r1, G 5\n  mov r2, G 4096\n  \
               stG r2, r1\n  mov r3, B 5\n  mov r4, B 4096\n  stB r4, r3\n  halt\n";
    let p = Arc::new(assemble(src).expect("assembles").program);
    let golden = golden_run(&p, &base_cfg()).expect("halts");
    let n = golden.steps;
    // First step at which the store queue is nonempty, so the queue-site
    // strikes genuinely apply instead of degenerating to incomplete plans.
    let q_step = {
        let mut m = talft_machine::Machine::boot(Arc::clone(&p));
        while m.queue().is_empty() && m.status().is_running() {
            talft_machine::step(&mut m);
        }
        assert!(!m.queue().is_empty(), "fixture must push a store pair");
        m.steps()
    };
    let plans = vec![
        // Strike at the final halted state (applies, classifies there).
        FaultPlan::single(n, FaultSite::Reg(talft_isa::Reg::r(1)), 99),
        // Strike past termination: never applies — incomplete plan.
        FaultPlan::single(n + 3, FaultSite::Reg(talft_isa::Reg::r(1)), 99),
        // Equal payload: diverges nowhere.
        FaultPlan::single(0, FaultSite::Reg(talft_isa::Reg::r(1)), 0),
        // Out of the register file: inject panics → EngineError.
        FaultPlan::single(0, FaultSite::Reg(talft_isa::Reg::r(200)), 7),
        // `d` and queue-value sites: packed since ISSUE 8 (the `d` shadow
        // resolves at the next jump/branch, the queue shadow at the stB).
        FaultPlan::single(2, FaultSite::Reg(talft_isa::Reg::Dst), 3),
        FaultPlan::single(q_step, FaultSite::QueueVal(0), -1),
        // Queue *addresses* pack too (resolved at the stB compare or a
        // forwarding load); only the pcs stay on the scalar route.
        FaultPlan::single(q_step, FaultSite::QueueAddr(0), 4097),
        FaultPlan::single(
            2,
            FaultSite::Reg(talft_isa::Reg::Pc(talft_isa::Color::Green)),
            1,
        ),
        // Live-register strike: rides the shadow to its blue compare.
        FaultPlan::single(2, FaultSite::Reg(talft_isa::Reg::r(1)), 77),
        // Multi-strike, all packed sites: one lane, two timed events —
        // GPR+GPR (same step and spread), GPR+queue value, GPR+`d`, and a
        // second strike landing at the final halted state.
        FaultPlan::new(vec![
            Strike {
                at_step: 2,
                site: FaultSite::Reg(talft_isa::Reg::r(1)),
                value: 77,
            },
            Strike {
                at_step: 2,
                site: FaultSite::Reg(talft_isa::Reg::r(2)),
                value: -9,
            },
        ]),
        FaultPlan::new(vec![
            Strike {
                at_step: 2,
                site: FaultSite::Reg(talft_isa::Reg::r(1)),
                value: 77,
            },
            Strike {
                at_step: q_step,
                site: FaultSite::QueueVal(0),
                value: -1,
            },
        ]),
        FaultPlan::new(vec![
            Strike {
                at_step: 2,
                site: FaultSite::Reg(talft_isa::Reg::Dst),
                value: 5,
            },
            Strike {
                at_step: 4,
                site: FaultSite::Reg(talft_isa::Reg::r(3)),
                value: 11,
            },
        ]),
        FaultPlan::new(vec![
            Strike {
                at_step: 0,
                site: FaultSite::Reg(talft_isa::Reg::r(1)),
                value: 4,
            },
            Strike {
                at_step: n,
                site: FaultSite::Reg(talft_isa::Reg::r(1)),
                value: 99,
            },
        ]),
        // Mixed packed + pc strike: the whole plan routes scalar.
        FaultPlan::new(vec![
            Strike {
                at_step: 2,
                site: FaultSite::Reg(talft_isa::Reg::r(1)),
                value: 77,
            },
            Strike {
                at_step: 3,
                site: FaultSite::Reg(talft_isa::Reg::Pc(talft_isa::Color::Blue)),
                value: 1,
            },
        ]),
        // Queue-value strike on a slot that vanished by the strike step
        // (`inject` misses → incomplete plan) paired with a healing
        // second strike on the same GPR.
        FaultPlan::new(vec![
            Strike {
                at_step: 2,
                site: FaultSite::Reg(talft_isa::Reg::r(1)),
                value: 77,
            },
            Strike {
                at_step: 3,
                site: FaultSite::Reg(talft_isa::Reg::r(1)),
                value: 5,
            },
        ]),
        FaultPlan::single(n, FaultSite::QueueVal(0), -1),
    ];
    let (report, per_plan) = three_way(&p, &plans, &golden).expect("engines agree");
    assert_eq!(report.total, plans.len() as u64);
    assert_eq!(report.engine_errors, 1);
    // The past-termination strike and the queue-value strike on a drained
    // queue both fail to apply.
    assert_eq!(report.incomplete_plans, 2);
    // Per plan, in the order listed above (not step order).
    assert_eq!(per_plan[1], (Verdict::Masked, 0), "past termination");
    assert_eq!(per_plan[3], (Verdict::EngineError, 0), "harness panic");
    assert_eq!(per_plan[15], (Verdict::Masked, 0), "drained queue");
}
