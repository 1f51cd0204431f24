//! Fault **plans**: ordered multi-strike injection schedules, and the
//! samplers that generate them.
//!
//! A [`FaultPlan`] is an ordered list of [`Strike`]s `{at_step, site,
//! value}`. The paper's Theorem 4 is indexed to *exactly one* fault per run
//! — the classic exhaustive campaign is the `k = 1` instantiation
//! ([`single_fault_plans`], every strided dynamic step × every site × a set
//! of corrupted values). Beyond that the guarantee has a *boundary*, and
//! plans are how the engine explores it:
//!
//! * [`multi_fault_plans`] draws a deterministic, seed-reproducible
//!   **stratified sample** of the `(step × site)²` space (the exhaustive
//!   double-fault space is quadratic in the run length — intractable), half
//!   of it **correlated**: two upsets writing the *same* corrupted value
//!   into a green register and a blue register that carried the same
//!   payload within a small window. That is precisely the coordinated
//!   pattern that defeats dual-modular comparison (§2.1's "single upset
//!   event" assumption made executable), so the sample quantifies the
//!   boundary instead of merely missing it.

use std::collections::VecDeque;
use std::sync::Arc;

use talft_isa::{Color, Program};
use talft_machine::{colored_reg_sites, mutations, read_site, sites, step, FaultSite, Machine};
use talft_testutil::SplitMix64;

use crate::{CampaignConfig, Golden};

/// One scheduled upset: write `value` at `site` once the run has taken
/// exactly `at_step` steps (i.e. the fault transition `S ─→1 S'` applied to
/// the state after `at_step` steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Strike {
    /// Steps taken before the fault transition.
    pub at_step: u64,
    /// Where the fault strikes.
    pub site: FaultSite,
    /// The corrupted value written.
    pub value: i64,
}

/// An ordered multi-fault injection schedule (strikes sorted by `at_step`;
/// ties = same-state coordinated strikes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The strikes, sorted by `at_step`.
    pub strikes: Vec<Strike>,
}

impl FaultPlan {
    /// Build a plan, sorting the strikes by step (stable, so same-step
    /// strikes keep their given order).
    #[must_use]
    pub fn new(mut strikes: Vec<Strike>) -> Self {
        strikes.sort_by_key(|s| s.at_step);
        FaultPlan { strikes }
    }

    /// The classic single-fault plan.
    #[must_use]
    pub fn single(at_step: u64, site: FaultSite, value: i64) -> Self {
        FaultPlan {
            strikes: vec![Strike {
                at_step,
                site,
                value,
            }],
        }
    }

    /// Step of the earliest strike (0 for an empty plan).
    #[must_use]
    pub fn first_step(&self) -> u64 {
        self.strikes.first().map_or(0, |s| s.at_step)
    }

    /// The fault multiplicity `k`.
    #[must_use]
    pub fn order(&self) -> usize {
        self.strikes.len()
    }
}

/// Walk the golden run and hand `visit` every strided strike, in step
/// order: every dynamic step `≡ 0 (mod stride)` (including the final,
/// halted state), every fault site of that state, and up to
/// `mutations_per_site` corrupted values per site.
fn for_each_strided_strike(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    mut visit: impl FnMut(Strike),
) {
    let stride = cfg.effective_stride();
    let n = golden.steps;
    let mut frontier = Machine::boot(Arc::clone(program)).with_oob_policy(cfg.oob);
    let mut at = frontier.steps();
    loop {
        if at.is_multiple_of(stride) {
            for site in sites(&frontier) {
                let Some(old) = read_site(&frontier, site) else {
                    continue;
                };
                for value in mutations(old).into_iter().take(cfg.mutations_per_site) {
                    visit(Strike {
                        at_step: at,
                        site,
                        value,
                    });
                }
            }
        }
        if at >= n || !frontier.status().is_running() {
            break;
        }
        step(&mut frontier);
        at = frontier.steps();
    }
}

/// The exhaustive-in-sites, strided-in-time single-fault plan set — the
/// `k = 1` instantiation the legacy sweep performed implicitly: for every
/// dynamic step `≡ 0 (mod stride)` of the golden run (including the final,
/// halted state), every fault site of that state, and up to
/// `mutations_per_site` corrupted values. The plans come out in
/// first-strike order, so a shard can borrow its range of them.
#[must_use]
pub fn single_fault_plans(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
) -> Vec<FaultPlan> {
    let mut plans = Vec::new();
    for_each_strided_strike(program, cfg, golden, |s| {
        plans.push(FaultPlan { strikes: vec![s] });
    });
    plans
}

/// The **exhaustive** `k = 2` plan set over a golden run: every unordered
/// pair of distinct strided strikes (every step `≡ 0 (mod stride)`, every
/// site, up to `mutations_per_site` values — the same strike universe as
/// [`single_fault_plans`]), each pair step-ordered. Quadratic in the strike
/// count by construction: meant for *small* kernels, where it turns the
/// sampled k=2 boundary of [`multi_fault_plans`] into a complete grid the
/// static pair analyzer can be validated against cell by cell.
#[must_use]
pub fn exhaustive_pair_plans(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
) -> Vec<FaultPlan> {
    let mut strikes = Vec::new();
    for_each_strided_strike(program, cfg, golden, |s| strikes.push(s));
    let mut plans = Vec::with_capacity(strikes.len() * (strikes.len().saturating_sub(1)) / 2);
    for (i, &a) in strikes.iter().enumerate() {
        for &b in &strikes[i + 1..] {
            // Strikes were collected in step order, so `a` is the earlier
            // (or tied) strike; `FaultPlan::new` keeps that order stable.
            plans.push(FaultPlan::new(vec![a, b]));
        }
    }
    plans
}

/// A reservoir sampler: uniform fixed-size sample of an unbounded stream.
struct Reservoir<T> {
    cap: usize,
    seen: u64,
    items: Vec<T>,
}

impl<T: Copy> Reservoir<T> {
    fn new(cap: usize) -> Self {
        Reservoir {
            cap,
            seen: 0,
            items: Vec::new(),
        }
    }

    fn offer(&mut self, item: T, rng: &mut SplitMix64) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(item);
        } else if self.cap > 0 && rng.below(self.seen) < self.cap as u64 {
            let i = rng.index(self.cap);
            self.items[i] = item;
        }
    }
}

/// Number of time strata per axis of the `(step × step)` grid.
const TIME_BINS: usize = 8;
/// Candidate-strike reservoir capacity per time stratum.
const BIN_CAP: usize = 96;
/// Uniform candidate strikes drawn per visited step.
const CANDIDATES_PER_STEP: usize = 2;

/// Deterministic, seed-reproducible stratified sample of `k`-fault plans
/// over the golden run (`k ≥ 2`; for `k = 1` use [`single_fault_plans`]).
///
/// Two strata families, split roughly half/half of `cfg.pair_samples`:
///
/// * **uniform**: the run is cut into `TIME_BINS` (8) time bins; per ordered
///   bin pair `(i ≤ j)` an equal quota of `(strike₁, strike₂)` pairs is
///   drawn from per-bin reservoirs of uniformly sampled `(step, site,
///   value)` candidates — coverage of the whole quadratic space;
/// * **correlated**: cross-color same-payload pairs within
///   `cfg.pair_window` steps, both corrupted to the *same* value — the
///   coordinated-SEU pattern that can defeat the dual-modular comparison.
///
/// For `k > 2`, each sampled pair is extended with `k − 2` further uniform
/// strikes. The same `cfg.seed` always yields the same plan set.
#[must_use]
pub fn multi_fault_plans(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    k: u32,
) -> Vec<FaultPlan> {
    if k <= 1 {
        return single_fault_plans(program, cfg, golden);
    }
    let n = golden.steps;
    if n == 0 {
        return Vec::new();
    }
    let mut rng = SplitMix64::new(cfg.seed);
    let target = cfg.pair_samples.max(2);
    let correlated_target = target / 2;

    let bin_w = n.div_ceil(TIME_BINS as u64).max(1);
    let bin_of = |s: u64| ((s / bin_w) as usize).min(TIME_BINS - 1);
    let mut bins: Vec<Reservoir<Strike>> =
        (0..TIME_BINS).map(|_| Reservoir::new(BIN_CAP)).collect();
    let mut correlated: Reservoir<(Strike, Strike)> = Reservoir::new(correlated_target);
    // Sliding window of green-register payloads from the last
    // `cfg.pair_window` steps, for correlated-pair search.
    let mut window: VecDeque<(u64, Vec<(FaultSite, i64)>)> = VecDeque::new();

    let mut m = Machine::boot(Arc::clone(program)).with_oob_policy(cfg.oob);
    while m.status().is_running() && m.steps() < n {
        let s = m.steps();
        // Uniform candidates at this step.
        let all_sites = sites(&m);
        for _ in 0..CANDIDATES_PER_STEP {
            let site = *rng.pick(&all_sites);
            if let Some(old) = read_site(&m, site) {
                let muts = mutations(old);
                let value = *rng.pick(&muts);
                bins[bin_of(s)].offer(
                    Strike {
                        at_step: s,
                        site,
                        value,
                    },
                    &mut rng,
                );
            }
        }
        // Correlated candidates: one random blue register vs. the recent
        // green window (green runs ahead of blue in the protected scheme).
        let regs = colored_reg_sites(&m);
        if let Some(&(bsite, _, bval)) = {
            let blues: Vec<_> = regs
                .iter()
                .filter(|&&(_, c, v)| c == Color::Blue && v != 0)
                .collect();
            if blues.is_empty() {
                None
            } else {
                Some(*rng.pick(&blues))
            }
        } {
            'search: for (s1, greens) in &window {
                for &(gsite, gval) in greens {
                    if gval == bval {
                        let muts = mutations(bval);
                        let x = *rng.pick(&muts);
                        correlated.offer(
                            (
                                Strike {
                                    at_step: *s1,
                                    site: gsite,
                                    value: x,
                                },
                                Strike {
                                    at_step: s,
                                    site: bsite,
                                    value: x,
                                },
                            ),
                            &mut rng,
                        );
                        break 'search;
                    }
                }
            }
        }
        let greens: Vec<(FaultSite, i64)> = regs
            .iter()
            .filter(|&&(_, c, v)| c == Color::Green && v != 0)
            .map(|&(site, _, v)| (site, v))
            .collect();
        window.push_back((s, greens));
        if window.len() as u64 > cfg.pair_window.max(1) {
            window.pop_front();
        }
        step(&mut m);
    }

    let mut plans: Vec<FaultPlan> = Vec::with_capacity(target);
    for &(a, b) in &correlated.items {
        plans.push(FaultPlan::new(vec![a, b]));
    }
    // Uniform strata: equal quota per ordered bin pair.
    let uniform_target = target - plans.len();
    let bin_pairs: Vec<(usize, usize)> = (0..TIME_BINS)
        .flat_map(|i| (i..TIME_BINS).map(move |j| (i, j)))
        .collect();
    let quota = uniform_target.div_ceil(bin_pairs.len());
    for &(i, j) in &bin_pairs {
        for _ in 0..quota {
            // a few retries to satisfy step₁ < step₂ inside a shared bin
            for _attempt in 0..4 {
                if bins[i].items.is_empty() || bins[j].items.is_empty() {
                    break;
                }
                let a = *rng.pick(&bins[i].items);
                let b = *rng.pick(&bins[j].items);
                let (a, b) = if a.at_step < b.at_step {
                    (a, b)
                } else if b.at_step < a.at_step {
                    (b, a)
                } else {
                    continue;
                };
                plans.push(FaultPlan::new(vec![a, b]));
                break;
            }
        }
    }
    // k > 2: extend every pair with further uniform strikes.
    if k > 2 {
        let nonempty: Vec<usize> = (0..TIME_BINS)
            .filter(|&i| !bins[i].items.is_empty())
            .collect();
        if !nonempty.is_empty() {
            for plan in &mut plans {
                let mut strikes = std::mem::take(&mut plan.strikes);
                for _ in 2..k {
                    let bin = nonempty[rng.index(nonempty.len())];
                    strikes.push(*rng.pick(&bins[bin].items));
                }
                *plan = FaultPlan::new(strikes);
            }
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use talft_isa::assemble;

    fn arc(src: &str) -> Arc<Program> {
        Arc::new(assemble(src).expect("assembles").program)
    }

    const LOOPY: &str = r#"
.data
region out at 4096 len 8 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, B 5
loop:
  .pre { forall x:int, m:mem; r1: (G, int, x); r2: (B, int, x); mem: m; }
  and r5, r1, G 7
  add r5, r5, G 4096
  and r6, r2, B 7
  add r6, r6, B 4096
  stG r5, r1
  stB r6, r2
  sub r1, r1, G 1
  sub r2, r2, B 1
  mov r3, G @done
  mov r4, B @done
  bzG r1, r3
  bzB r2, r4
  mov r7, G @loop
  mov r8, B @loop
  jmpG r7
  jmpB r8
done:
  .pre { forall m:mem; mem: m; }
  halt
"#;

    #[test]
    fn single_plans_cover_all_strided_steps() {
        let p = arc(LOOPY);
        let cfg = CampaignConfig {
            stride: 3,
            ..CampaignConfig::default()
        };
        let golden = crate::golden_run(&p, &cfg).expect("halts");
        let stride = cfg.effective_stride(); // respects TALFT_STRIDE_SCALE
        let plans = single_fault_plans(&p, &cfg, &golden);
        assert!(!plans.is_empty());
        assert!(plans.iter().all(|pl| pl.order() == 1));
        let steps: std::collections::BTreeSet<u64> =
            plans.iter().map(FaultPlan::first_step).collect();
        assert!(steps.contains(&0));
        assert!(steps
            .iter()
            .all(|s| s.is_multiple_of(stride) && *s <= golden.steps));
        // every strided step of the run is represented
        assert_eq!(steps.len() as u64, golden.steps / stride + 1);
    }

    /// The k=1 grid rebuilt with the `Vec`-building reference
    /// `mutations`: same walk, same order, at every per-site cap.
    #[test]
    fn single_plans_match_the_mutations_oracle() {
        use talft_machine::fault::mutations_oracle;
        let p = arc(LOOPY);
        for mutations_per_site in [1, 3, usize::MAX] {
            let cfg = CampaignConfig {
                mutations_per_site,
                ..CampaignConfig::default()
            };
            let golden = crate::golden_run(&p, &cfg).expect("halts");
            let mut oracle = Vec::new();
            let mut m = Machine::boot(Arc::clone(&p)).with_oob_policy(cfg.oob);
            loop {
                let at = m.steps();
                if at.is_multiple_of(cfg.effective_stride()) {
                    for site in sites(&m) {
                        let old = read_site(&m, site).expect("listed site exists");
                        for value in mutations_oracle(old).into_iter().take(mutations_per_site) {
                            oracle.push(FaultPlan::single(at, site, value));
                        }
                    }
                }
                if at >= golden.steps || !m.status().is_running() {
                    break;
                }
                step(&mut m);
            }
            let plans = single_fault_plans(&p, &cfg, &golden);
            assert!(
                plans
                    .iter()
                    .any(|pl| matches!(pl.strikes[0].site, FaultSite::QueueVal(_))),
                "the grid must reach queue sites"
            );
            assert_eq!(plans, oracle, "mutations_per_site = {mutations_per_site}");
        }
    }

    #[test]
    fn multi_plans_are_seed_reproducible_and_ordered() {
        let p = arc(LOOPY);
        let cfg = CampaignConfig {
            pair_samples: 64,
            ..CampaignConfig::default()
        };
        let golden = crate::golden_run(&p, &cfg).expect("halts");
        let a = multi_fault_plans(&p, &cfg, &golden, 2);
        let b = multi_fault_plans(&p, &cfg, &golden, 2);
        assert_eq!(a, b, "same seed, same plans");
        assert!(!a.is_empty());
        for plan in &a {
            assert_eq!(plan.order(), 2);
            assert!(plan.strikes[0].at_step <= plan.strikes[1].at_step);
            assert!(plan.strikes[1].at_step <= golden.steps);
        }
        let other = multi_fault_plans(
            &p,
            &CampaignConfig {
                seed: 99,
                ..cfg.clone()
            },
            &golden,
            2,
        );
        assert_ne!(a, other, "different seed, different sample");
    }

    #[test]
    fn correlated_pairs_share_the_corrupt_value() {
        let p = arc(LOOPY);
        let cfg = CampaignConfig {
            pair_samples: 256,
            ..CampaignConfig::default()
        };
        let golden = crate::golden_run(&p, &cfg).expect("halts");
        let plans = multi_fault_plans(&p, &cfg, &golden, 2);
        // the correlated stratum writes the same value at both strikes
        let correlated = plans
            .iter()
            .filter(|pl| pl.strikes[0].value == pl.strikes[1].value)
            .count();
        assert!(correlated > 0, "correlated stratum must be populated");
    }

    #[test]
    fn k3_plans_have_three_strikes() {
        let p = arc(LOOPY);
        let cfg = CampaignConfig {
            pair_samples: 32,
            ..CampaignConfig::default()
        };
        let golden = crate::golden_run(&p, &cfg).expect("halts");
        let plans = multi_fault_plans(&p, &cfg, &golden, 3);
        assert!(!plans.is_empty());
        assert!(plans.iter().all(|pl| pl.order() == 3));
        for pl in &plans {
            assert!(pl.strikes.windows(2).all(|w| w[0].at_step <= w[1].at_step));
        }
    }
}
