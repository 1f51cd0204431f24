//! Compositional k=2 **pair-fault** static analyzer: classify (cell, cell)
//! fault pairs as Detected/Benign/Vulnerable without dynamically
//! enumerating the quadratic strike product.
//!
//! # Two phases
//!
//! **Phase 1 — per-cell taint-reach summaries.** The analyzer's own k=1
//! may-taint pass ([`crate::zap`]) runs in recording mode, so each safe
//! cell's run also yields a [`Touch`] set (which dual-compares the cell's
//! taint can reach, and on which side — green compare state or blue
//! register operands — after all sanitizing pass-edges) plus the full
//! *entry-state reach map*: the joined taint surviving at entry to every
//! address, kept as runs of addresses with equal taint. `d` cells, which
//! the k=1 pass classifies without a run, are recorded on demand. GPR
//! cells whose register is dead at the strike never run: such a taint is
//! never read, so its summary is empty and it can never be half of a
//! cooperating pair.
//!
//! **Phase 2 — pairwise composition.** The zap transfer is *linear* in the
//! taint, so two corruptions propagate independently except at the compare
//! checks, which read the lane **union**. Composing a pair therefore seeds
//! a two-lane run at the second strike's address with
//! `[reach₁(addr₂), seed₂]` and reuses the exact same transfer. The three
//! cooperation rules that make k=2 different from two independent k=1s
//! fall out structurally:
//!
//! * **(a) opposite sides** — the lanes taint opposite sides of one
//!   compare, so a matched wrong pair can pass `stB`/`jmpB`/`bzB`
//!   ([`PairRule::OppositeSides`]);
//! * **(b) detector strike** — the second strike lands on the detector
//!   state itself (`d`, or a queue slot holding the compare operand)
//!   while the first fault's taint feeds the other side
//!   ([`PairRule::DetectorStrike`] — same union check, the detector cell
//!   *is* the green lane);
//! * **(c) sequencing** — a strike after the first fault's taint is dead
//!   (sanitized or overwritten everywhere) cannot cooperate with it:
//!   `reach₁(addr₂) = ∅` makes the composition degenerate to two
//!   independent k=1 verdicts.
//!
//! A cheap **screen** avoids almost all two-lane runs: after filtering
//! pairs with a k=1-Vulnerable member, a composed run can only fail a
//! compare with the lanes on *opposite* sides (a lane supplying both sides
//! alone would already be k=1 Vulnerable, and each composed lane's states
//! are a subset of its solo fixpoint). So unless the two touch summaries
//! share a compare address with opposite sides, the pair is safe with no
//! fixpoint at all — and group-level counting over touch signatures makes
//! full-program pair reports near-linear instead of quadratic.
//!
//! pc cells short-circuit phase 2: a single pc zap is caught at the next
//! fetch comparison and contributes no data taint, so a (pc, x) pair is
//! exactly as dangerous as `x` alone; a (pc, pc) pair is conservatively
//! [`PairClass::Vulnerable`] (two strikes may re-equalize a diverged fetch
//! pair — [`PairRule::PcPair`]).
//!
//! Soundness is the k=1 argument once more, over unions: every verdict is
//! a may-analysis over-approximation, so a statically Detected/Benign pair
//! admits no SDC — the invariant
//! [`cross_validate_pairs`](crate::diff::cross_validate_pairs) checks
//! against exhaustive and sampled k=2 campaign grids.
//!
//! # Threads
//!
//! The k=1 pass (one unit per address), the on-demand phase-1 runs (one
//! unit per cell) and the candidate loop of
//! [`PairAnalyzer::pair_report`] (one unit per row of candidate pairs)
//! are split over the analyzer's workers. Each unit's result depends only
//! on the unit, and the merges depend only on the results: counts add up,
//! keyed results are inserted by key, and a compare's witness is the one
//! found by the earliest unit — the serial loop's first witness. Each
//! candidate-loop worker composes against the analyzer's memo plus a
//! private one; the private memos are folded into the analyzer's after the
//! loop, so the memo ends up holding exactly the keys the serial loop
//! would have run, and [`PairReport::fixpoints`] is the same at every
//! thread count.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use talft_core::Diagnostic;
use talft_faultsim::default_threads;
use talft_isa::Program;
use talft_obs::LazyCounter;

use crate::cfg::Cfg;
use crate::lint::LINT_PAIR_HOTSPOT;
use crate::live::liveness;
use crate::mask::RegMask;
use crate::par::fan_out;
use crate::zap::{
    classify, ix, queue_pessimism, run_lanes, too_wide, Ctx, LaneRun, Scratch, Side, Taint, Touch,
    Vuln, VulnKind, ZapClass, ZapReport,
};

/// Pair verdicts reuse the per-cell scale: a pair is `Vulnerable` when the
/// two corruptions may cooperate into an SDC, `Detected`/`Benign`
/// otherwise.
pub type PairClass = ZapClass;

/// One fault cell: a (code address, site) coordinate in the static grid,
/// matching the keys of [`ZapReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cell {
    /// GPR `r{reg}` zapped at entry to `addr`.
    Gpr {
        /// Code address about to execute.
        addr: i64,
        /// Register index.
        reg: u16,
    },
    /// Store-queue slot (from the back; 0 = oldest) zapped at entry.
    Queue {
        /// Code address about to execute.
        addr: i64,
        /// Slot index from the back.
        slot: usize,
    },
    /// A pc (green or blue — symmetric) zapped at entry.
    Pc {
        /// Code address about to execute.
        addr: i64,
    },
    /// The `d` destination latch zapped at entry.
    D {
        /// Code address about to execute.
        addr: i64,
    },
}

impl Cell {
    /// The code address the strike lands at.
    #[must_use]
    pub fn addr(self) -> i64 {
        match self {
            Cell::Gpr { addr, .. }
            | Cell::Queue { addr, .. }
            | Cell::Pc { addr }
            | Cell::D { addr } => addr,
        }
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Gpr { addr, reg } => write!(f, "r{reg}@{addr}"),
            Cell::Queue { addr, slot } => write!(f, "queue[{slot}]@{addr}"),
            Cell::Pc { addr } => write!(f, "pc@{addr}"),
            Cell::D { addr } => write!(f, "d@{addr}"),
        }
    }
}

/// Why a pair is `Vulnerable` (the cooperation-rule taxonomy), or how a
/// degenerate pair resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PairRule {
    /// One member is already k=1 Vulnerable: no cooperation needed.
    SingleVulnerable,
    /// Rule (a): the taints reach opposite sides of the compare at `at`.
    OppositeSides {
        /// Address of the defeatable compare.
        at: i64,
    },
    /// Rule (b): one strike corrupts the detector state itself (`d` or a
    /// queue slot) feeding the compare at `at` while the other taints the
    /// opposing side.
    DetectorStrike {
        /// Address of the defeatable compare.
        at: i64,
    },
    /// Two pc strikes may re-equalize a diverged fetch pair (conservative).
    PcPair,
    /// The union taint escapes classification at `at` (an unplaceable
    /// queue push or an unresolved blue target) — defensive; a lane doing
    /// this alone would already be k=1 Vulnerable.
    Escape {
        /// Address of the escaping instruction.
        at: i64,
    },
}

impl PairRule {
    /// The defeated compare's address, when the rule names one.
    #[must_use]
    pub fn compare_addr(self) -> Option<i64> {
        match self {
            PairRule::OppositeSides { at } | PairRule::DetectorStrike { at } => Some(at),
            _ => None,
        }
    }
}

impl std::fmt::Display for PairRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PairRule::SingleVulnerable => write!(f, "single-vulnerable member"),
            PairRule::OppositeSides { at } => {
                write!(f, "opposite sides of the compare at {at}")
            }
            PairRule::DetectorStrike { at } => {
                write!(f, "detector strike at the compare at {at}")
            }
            PairRule::PcPair => write!(f, "pc pair may re-equalize fetch"),
            PairRule::Escape { at } => write!(f, "union taint escapes at {at}"),
        }
    }
}

/// A classified pair: the verdict plus (for `Vulnerable`) the rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairVerdict {
    /// The pair's static class.
    pub class: PairClass,
    /// Why, when `Vulnerable` (`None` for safe pairs).
    pub rule: Option<PairRule>,
}

/// Two-lane fixpoints that more than one worker ran for the same memo key
/// in [`PairAnalyzer::pair_report`]: the price of per-worker memos.
static REPEATED_FIXPOINTS: LazyCounter = LazyCounter::new("analysis.fixpoints.repeated");

/// Phase-1 summary of one cell's solo taint run (its class lives in the
/// k=1 report; `run_lanes` on the same seed reproduces it).
struct Summary {
    /// Sorted, deduplicated dual-compare touches.
    touches: Vec<Touch>,
    /// Entry-state may-taint wherever the cell's corruption survives, as
    /// maximal runs `(first, last, taint)` of consecutive addresses with
    /// equal taint, sorted by address. A taint usually survives many
    /// instructions unchanged, so runs take a fraction of the memory of
    /// one entry per address.
    reach: Vec<(i64, i64, Taint)>,
}

impl Summary {
    /// Record `seed`'s solo run at `at`.
    fn of(cx: &Ctx, scratch: &mut Scratch<1>, at: i64, seed: Taint) -> Summary {
        Summary::from_run(run_lanes(cx, scratch, at, [seed], true))
    }

    /// The summary of a solo run made with touches and reach recorded.
    fn from_run(run: LaneRun<1>) -> Summary {
        Summary {
            touches: run.touches,
            reach: run.reach.into_iter().map(|(f, l, [t])| (f, l, t)).collect(),
        }
    }

    /// The first strike's residual taint at entry to `addr`.
    fn reach_at(&self, addr: i64) -> Option<Taint> {
        let i = self.reach.partition_point(|&(first, _, _)| first <= addr);
        let &(_, last, taint) = self.reach.get(i.checked_sub(1)?)?;
        (addr <= last).then_some(taint)
    }
}

/// A data cell resolved for composition: its strike address, seed taint,
/// phase-1 summary, and its slot in the composition memo.
struct Member {
    cell: Cell,
    seed: Taint,
    summary: Arc<Summary>,
    slot: usize,
}

/// Safe data cells sharing a (k=1 class, touch signature) key: every
/// member composes identically at the screen level.
struct Group {
    class: ZapClass,
    sig: Vec<Touch>,
    size: u64,
    /// The resolved members, for touching groups only (the only ones that
    /// can become candidates).
    members: Vec<Member>,
}

/// The composition results of one second-strike cell, keyed by the
/// first strike's residual taint at the cell's address: with the cell's
/// address and seed, the only state a composition depends on. A cell
/// meets few distinct residuals (at most 12 per cell on the suite), so a
/// short list scans faster than a hash probe.
type Results = Vec<(Taint, Option<Vuln>)>;

fn lookup(results: &[(Taint, Option<Vuln>)], residual: Taint) -> Option<Option<Vuln>> {
    results
        .iter()
        .find(|&&(t, _)| t == residual)
        .map(|&(_, v)| v)
}

/// Two-lane composition against the analyzer's memo, frozen, plus a
/// private memo of the fixpoints this composer ran: each worker of the
/// candidate loop owns one.
struct Composer<'c> {
    cx: Ctx<'c>,
    /// The analyzer's memo, by member slot.
    shared: &'c [Results],
    /// Fixpoints this composer ran, by member slot (grown on demand).
    local: Vec<Results>,
    scratch: Scratch<2>,
}

impl<'c> Composer<'c> {
    fn new(cx: Ctx<'c>, shared: &'c [Results]) -> Self {
        Composer {
            cx,
            shared,
            local: Vec::new(),
            scratch: Scratch::new(cx.cfg.n),
        }
    }

    /// Phase 2 for one ordered `(first strike, second strike)`: seed a
    /// two-lane run at the second address with the first cell's residual
    /// reach. `None` when the strikes cannot interact (rule c).
    fn compose(&mut self, first: &Member, second: &Member) -> Option<Vuln> {
        let addr = second.cell.addr();
        let residual = first.summary.reach_at(addr)?;
        let slot = second.slot;
        let local = self.local.get(slot).map_or(&[][..], Vec::as_slice);
        if let Some(v) = lookup(&self.shared[slot], residual).or_else(|| lookup(local, residual)) {
            return v;
        }
        let run = run_lanes(
            &self.cx,
            &mut self.scratch,
            addr,
            [residual, second.seed],
            false,
        );
        if self.local.len() <= slot {
            self.local.resize_with(slot + 1, Vec::new);
        }
        self.local[slot].push((residual, run.vuln));
        run.vuln
    }

    /// The cooperation rule of a screen-passing pair: both strike orders
    /// are composed; `None` when neither may defeat a compare.
    fn cooperate(&mut self, a: &Member, b: &Member) -> Option<PairRule> {
        if let Some(v) = self.compose(a, b) {
            return Some(PairAnalyzer::rule_of(v, a.cell, b.cell));
        }
        self.compose(b, a)
            .map(|v| PairAnalyzer::rule_of(v, b.cell, a.cell))
    }
}

/// A witness pair, tagged with the candidate-loop unit that found it.
type Witness = (usize, Cell, Cell);

/// Candidate-loop outcomes: safe and cooperative counts, plus per compare
/// address the cooperative defeats and the first witness.
struct Tally {
    detected: u64,
    benign: u64,
    cooperative: u64,
    defeats: Vec<(u64, Option<Witness>)>,
}

impl Tally {
    fn new(compares: usize) -> Tally {
        Tally {
            detected: 0,
            benign: 0,
            cooperative: 0,
            defeats: vec![(0, None); compares],
        }
    }

    /// Fold in another worker's tally: counts add up, and each compare
    /// keeps the witness of the earlier unit. A worker claims its units in
    /// increasing order, so this is the serial loop's first witness.
    fn absorb(&mut self, other: Tally) {
        self.detected += other.detected;
        self.benign += other.benign;
        self.cooperative += other.cooperative;
        for ((count, witness), (c, w)) in self.defeats.iter_mut().zip(other.defeats) {
            *count += c;
            if let Some(w) = w {
                if witness.is_none_or(|first| w.0 < first.0) {
                    *witness = Some(w);
                }
            }
        }
    }
}

/// The pair-fault analyzer: owns the CFG, the k=1 report, and memoized
/// phase-1 summaries; composes pairs on demand.
pub struct PairAnalyzer<'a> {
    program: &'a Program,
    cfg: Cfg,
    /// Registers live on entry to each address (empty when bailed).
    live_in: Vec<RegMask>,
    pessimistic: Vec<bool>,
    k1: ZapReport,
    summaries: HashMap<Cell, Arc<Summary>>,
    /// The memo slot of every cell resolved as a [`Member`].
    slots: HashMap<Cell, usize>,
    /// Every two-lane fixpoint this analyzer has run, by the second
    /// strike's slot; the entry count is [`PairReport::fixpoints`].
    composed: Vec<Results>,
    /// Workers for the k=1 pass and [`PairAnalyzer::pair_report`].
    threads: usize,
}

impl<'a> PairAnalyzer<'a> {
    /// [`PairAnalyzer::with_threads`] on [`default_threads`] workers.
    #[must_use]
    pub fn new(program: &'a Program) -> PairAnalyzer<'a> {
        PairAnalyzer::with_threads(program, default_threads())
    }

    /// Build the CFG, run the k=1 classifier, and prepare for pair
    /// queries, splitting the k=1 pass and every later
    /// [`PairAnalyzer::pair_report`] over `threads` workers (at least
    /// one). Reports are the same at every thread count. A program too
    /// wide for the taint mask yields a bailed analyzer:
    /// [`PairAnalyzer::classify_pair`] then answers `None`.
    #[must_use]
    pub fn with_threads(program: &'a Program, threads: usize) -> PairAnalyzer<'a> {
        let threads = threads.max(1);
        let cfg = Cfg::build(program);
        // The k=1 pass records its runs: every safe GPR and queue cell's
        // phase-1 summary comes out of it.
        let (k1, live_in, summaries) = match liveness(program, &cfg) {
            Some(live) => {
                let summarize = |run| Arc::new(Summary::from_run(run));
                let (k1, kept) = classify(program, &cfg, &live, threads, Some(&summarize));
                (k1, live.live_in, kept.into_iter().collect())
            }
            None => (too_wide(program), Vec::new(), HashMap::new()),
        };
        let pessimistic = queue_pessimism(&cfg);
        PairAnalyzer {
            program,
            cfg,
            live_in,
            pessimistic,
            k1,
            summaries,
            slots: HashMap::new(),
            composed: Vec::new(),
            threads,
        }
    }

    /// The underlying per-cell k=1 report.
    #[must_use]
    pub fn k1(&self) -> &ZapReport {
        &self.k1
    }

    /// Why the analyzer refused, if it did.
    #[must_use]
    pub fn bailed(&self) -> Option<&str> {
        self.k1.bailed.as_deref()
    }

    /// Every classified cell, in deterministic order.
    #[must_use]
    pub fn cells(&self) -> Vec<Cell> {
        let mut v = Vec::new();
        v.extend(self.k1.pc.keys().map(|&addr| Cell::Pc { addr }));
        v.extend(self.k1.dst.keys().map(|&addr| Cell::D { addr }));
        v.extend(
            self.k1
                .gpr
                .keys()
                .map(|&(addr, reg)| Cell::Gpr { addr, reg }),
        );
        v.extend(
            self.k1
                .queue
                .keys()
                .map(|&(addr, slot)| Cell::Queue { addr, slot }),
        );
        v
    }

    /// The cell's k=1 class, when the static grid covers it.
    #[must_use]
    pub fn k1_class(&self, cell: Cell) -> Option<ZapClass> {
        match cell {
            Cell::Gpr { addr, reg } => self.k1.gpr.get(&(addr, reg)).copied(),
            Cell::Queue { addr, slot } => self.k1.queue.get(&(addr, slot)).copied(),
            Cell::Pc { addr } => self.k1.pc.get(&addr).copied(),
            Cell::D { addr } => self.k1.dst.get(&addr).copied(),
        }
    }

    fn seed(cell: Cell) -> Option<Taint> {
        match cell {
            Cell::Gpr { reg, .. } => Some(Taint {
                regs: RegMask::bit(reg),
                ..Taint::default()
            }),
            Cell::Queue { slot, .. } => {
                if slot < 64 {
                    Some(Taint {
                        queue: 1u64 << slot,
                        ..Taint::default()
                    })
                } else {
                    None
                }
            }
            Cell::D { .. } => Some(Taint {
                d: true,
                ..Taint::default()
            }),
            Cell::Pc { .. } => None,
        }
    }

    fn ctx(&self) -> Ctx<'_> {
        Ctx {
            program: self.program,
            cfg: &self.cfg,
            pessimistic: &self.pessimistic,
        }
    }

    /// A GPR cell whose register is dead at the strike: never read again,
    /// so its solo run touches no compare and leaves it k=1 Benign.
    fn is_dead(&self, cell: Cell) -> bool {
        match cell {
            Cell::Gpr { addr, reg } => !self.live_in[ix(addr)].test(reg),
            _ => false,
        }
    }

    fn member(&mut self, cell: Cell) -> Member {
        let seed = Self::seed(cell).expect("summaries only for data cells");
        let summary = match self.summaries.get(&cell) {
            Some(s) => Arc::clone(s),
            None => {
                let mut scratch = Scratch::new(self.cfg.n);
                let s = Arc::new(Summary::of(&self.ctx(), &mut scratch, cell.addr(), seed));
                self.summaries.insert(cell, Arc::clone(&s));
                s
            }
        };
        let slot = *self.slots.entry(cell).or_insert_with(|| {
            self.composed.push(Vec::new());
            self.composed.len() - 1
        });
        Member {
            cell,
            seed,
            summary,
            slot,
        }
    }

    /// [`Composer::cooperate`] on this thread, keeping what it ran.
    fn cooperate(&mut self, a: &Member, b: &Member) -> Option<PairRule> {
        let mut composer = Composer::new(self.ctx(), &self.composed);
        let rule = composer.cooperate(a, b);
        let ran = composer.local;
        self.absorb(ran);
        rule
    }

    /// Fold a composer's fixpoints into the memo; returns how many of them
    /// the memo already held (another worker ran the same key).
    fn absorb(&mut self, ran: Vec<Results>) -> usize {
        let mut repeated = 0;
        for (memo, results) in self.composed.iter_mut().zip(ran) {
            for (residual, v) in results {
                if lookup(memo, residual).is_some() {
                    repeated += 1;
                } else {
                    memo.push((residual, v));
                }
            }
        }
        repeated
    }

    fn rule_of(v: Vuln, first: Cell, second: Cell) -> PairRule {
        match v.kind {
            VulnKind::StoreCompare | VulnKind::JmpCompare | VulnKind::BzCompare => {
                // The strike *on* the detector state is the green lane: a
                // queue-slot cell at stB, or the d latch at jmpB/bzB.
                let detector = |c: Cell, lanes: u8, bit: u8| {
                    lanes & bit != 0 && matches!(c, Cell::Queue { .. } | Cell::D { .. })
                };
                if detector(first, v.green, 1) || detector(second, v.green, 2) {
                    PairRule::DetectorStrike { at: v.at }
                } else {
                    PairRule::OppositeSides { at: v.at }
                }
            }
            VulnKind::QueuePush | VulnKind::UnresolvedTarget => PairRule::Escape { at: v.at },
        }
    }

    /// Classify an unordered pair of cells. `None` when the analyzer
    /// bailed or the static grid does not cover a member. A strike pair
    /// is `Vulnerable` iff *some* strike order may cooperate into an SDC;
    /// both orders are composed, so callers need not order by step.
    pub fn classify_pair(&mut self, a: Cell, b: Cell) -> Option<PairVerdict> {
        if self.bailed().is_some() {
            return None;
        }
        let ca = self.k1_class(a)?;
        let cb = self.k1_class(b)?;
        // pc strikes carry no data taint and are caught at the next fetch
        // compare — unless both pcs are struck.
        match (a, b) {
            (Cell::Pc { .. }, Cell::Pc { .. }) => {
                return Some(PairVerdict {
                    class: PairClass::Vulnerable,
                    rule: Some(PairRule::PcPair),
                })
            }
            (Cell::Pc { .. }, _) | (_, Cell::Pc { .. }) => {
                let other = if matches!(a, Cell::Pc { .. }) { cb } else { ca };
                return Some(if other == ZapClass::Vulnerable {
                    PairVerdict {
                        class: PairClass::Vulnerable,
                        rule: Some(PairRule::SingleVulnerable),
                    }
                } else {
                    PairVerdict {
                        class: PairClass::Detected,
                        rule: None,
                    }
                });
            }
            _ => {}
        }
        if ca == ZapClass::Vulnerable || cb == ZapClass::Vulnerable {
            return Some(PairVerdict {
                class: PairClass::Vulnerable,
                rule: Some(PairRule::SingleVulnerable),
            });
        }
        // A dead GPR cell's taint is never read: it cannot cooperate (the
        // `dead_register_cells_touch_nothing` contract), so skip its run.
        if self.is_dead(a) || self.is_dead(b) {
            return Some(PairVerdict {
                class: safe_class(ca, cb),
                rule: None,
            });
        }
        let ma = self.member(a);
        let mb = self.member(b);
        if opposite_overlap(&ma.summary.touches, &mb.summary.touches) {
            if let Some(rule) = self.cooperate(&ma, &mb) {
                return Some(PairVerdict {
                    class: PairClass::Vulnerable,
                    rule: Some(rule),
                });
            }
        }
        Some(PairVerdict {
            class: safe_class(ca, cb),
            rule: None,
        })
    }

    /// Enumerate and classify **every** unordered cell pair (same-cell
    /// pairs included — a looped address can be struck twice). Safe pairs
    /// are counted combinatorially from touch-signature groups; only
    /// screen-passing candidates run two-lane fixpoints.
    ///
    /// Phase 1 (one recording run per live data cell) and the candidate
    /// loop (one unit per row of candidate pairs, in enumeration order)
    /// are split over the analyzer's workers; the report is the same at
    /// every thread count.
    pub fn pair_report(&mut self) -> PairReport {
        let mut report = PairReport {
            bailed: self.k1.bailed.clone(),
            ..PairReport::default()
        };
        if report.bailed.is_some() {
            return report;
        }
        let cells = self.cells();
        let mut pc_cells = 0u64;
        let mut vuln_cells = 0u64;
        // pc, k=1-vulnerable and safe data cells; phase 1 summarizes the
        // safe ones. Dead GPR cells skip it: their solo run is provably
        // empty, so they land in (Benign, ∅), which never becomes a
        // candidate.
        let mut safe = Vec::new();
        for &c in &cells {
            match self.k1_class(c).expect("enumerated cells are classified") {
                _ if matches!(c, Cell::Pc { .. }) => pc_cells += 1,
                ZapClass::Vulnerable => vuln_cells += 1,
                class => safe.push((c, class)),
            }
        }
        self.summarize(safe.iter().map(|&(c, _)| c));
        // Bucket the safe cells by (class, touch signature).
        let mut keyed: BTreeMap<(ZapClass, Vec<Touch>), Vec<Cell>> = BTreeMap::new();
        for (c, class) in safe {
            let sig = match self.summaries.get(&c) {
                Some(s) => s.touches.clone(),
                None => Vec::new(),
            };
            keyed.entry((class, sig)).or_default().push(c);
        }
        report.cells = cells.len();
        let n = cells.len() as u64;
        report.pairs = n * (n + 1) / 2;
        let safe_cells = n - pc_cells - vuln_cells;
        // pc/pc: conservatively vulnerable (fetch re-equalization).
        report.vulnerable += pc_cells * (pc_cells + 1) / 2;
        // pc/safe: exactly as dangerous as the safe member alone.
        report.detected += pc_cells * safe_cells;
        // Any pair with a k=1-vulnerable member needs no cooperation.
        report.single_vulnerable =
            vuln_cells * (vuln_cells + 1) / 2 + vuln_cells * (safe_cells + pc_cells);
        report.vulnerable += report.single_vulnerable;
        // Resolve each touching group's members once, up front.
        let groups: Vec<Group> = keyed
            .into_iter()
            .map(|((class, sig), cells)| {
                let members = if sig.is_empty() {
                    Vec::new()
                } else {
                    cells.iter().map(|&c| self.member(c)).collect()
                };
                Group {
                    class,
                    sig,
                    size: cells.len() as u64,
                    members,
                }
            })
            .collect();
        // Safe × safe, group-wise: screened-out group pairs are counted
        // whole; the rest become candidate rows `(i, j, x)` — member `x`
        // of group `i` against group `j` — in enumeration order.
        let mut rows = Vec::new();
        for (i, gi) in groups.iter().enumerate() {
            for (j, gj) in groups.iter().enumerate().skip(i) {
                if opposite_overlap(&gi.sig, &gj.sig) {
                    rows.extend((0..gi.members.len()).map(|x| (i, j, x)));
                } else {
                    let count = if i == j {
                        gi.size * (gi.size + 1) / 2
                    } else {
                        gi.size * gj.size
                    };
                    report.tally_safe(safe_class(gi.class, gj.class), count);
                }
            }
        }
        let tally = self.compose_rows(&groups, &rows);
        report.detected += tally.detected;
        report.benign += tally.benign;
        report.vulnerable += tally.cooperative;
        report.cooperative += tally.cooperative;
        for (at, (count, witness)) in (1..).zip(tally.defeats) {
            if let Some((_, a, b)) = witness {
                report.per_compare.insert(at, count);
                report.witness.insert(at, (a, b));
            }
        }
        report.fixpoints = self.composed.iter().map(Vec::len).sum::<usize>() as u64;
        report
    }

    /// Phase 1: one recording run per live cell of `cells` still lacking
    /// a summary, split over the workers.
    fn summarize(&mut self, cells: impl IntoIterator<Item = Cell>) {
        let todo: Vec<Cell> = cells
            .into_iter()
            .filter(|&c| !self.is_dead(c) && !self.summaries.contains_key(&c))
            .collect();
        let cx = self.ctx();
        let init = || (Scratch::new(cx.cfg.n), Vec::new());
        let parts = fan_out(self.threads, todo.len(), init, |(scratch, done), unit| {
            let c = todo[unit];
            let seed = Self::seed(c).expect("summaries only for data cells");
            done.push((c, Arc::new(Summary::of(&cx, scratch, c.addr(), seed))));
        });
        self.summaries
            .extend(parts.into_iter().flat_map(|(_, done)| done));
    }

    /// The candidate loop: compose every pair of every row (one unit per
    /// row), split over the workers, each with its own memo; then merge
    /// the tallies and fold the workers' memos into the analyzer's.
    fn compose_rows(&mut self, groups: &[Group], rows: &[(usize, usize, usize)]) -> Tally {
        let cx = self.ctx();
        let init = || (Composer::new(cx, &self.composed), Tally::new(cx.cfg.n));
        let parts = fan_out(self.threads, rows.len(), init, |(composer, tally), unit| {
            let (i, j, x) = rows[unit];
            let (gi, gj) = (&groups[i], &groups[j]);
            let a = &gi.members[x];
            let from = if i == j { x } else { 0 };
            for b in &gj.members[from..] {
                match composer.cooperate(a, b) {
                    Some(rule) => {
                        tally.cooperative += 1;
                        if let Some(at) = rule.compare_addr() {
                            let (count, witness) = &mut tally.defeats[ix(at)];
                            *count += 1;
                            witness.get_or_insert((unit, a.cell, b.cell));
                        }
                    }
                    None => match safe_class(gi.class, gj.class) {
                        ZapClass::Detected => tally.detected += 1,
                        _ => tally.benign += 1,
                    },
                }
            }
        });
        let mut total = Tally::new(self.cfg.n);
        let memos: Vec<_> = parts
            .into_iter()
            .map(|(composer, tally)| {
                total.absorb(tally);
                composer.local
            })
            .collect();
        let repeated: usize = memos.into_iter().map(|ran| self.absorb(ran)).sum();
        REPEATED_FIXPOINTS.add(repeated as u64);
        total
    }
}

/// The class of a pair of k=1-safe cells that cannot cooperate.
fn safe_class(a: ZapClass, b: ZapClass) -> PairClass {
    if a == ZapClass::Detected || b == ZapClass::Detected {
        PairClass::Detected
    } else {
        PairClass::Benign
    }
}

/// Do two sorted touch sets share a compare with opposite sides?
fn opposite_overlap(a: &[Touch], b: &[Touch]) -> bool {
    let (small, big) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small.iter().any(|t| {
        big.binary_search(&Touch {
            at: t.at,
            side: match t.side {
                Side::Green => Side::Blue,
                Side::Blue => Side::Green,
            },
        })
        .is_ok()
    })
}

/// Whole-program pair coverage: the k=2 analogue of [`ZapReport`].
#[derive(Debug, Clone, Default)]
pub struct PairReport {
    /// Classified cells (the pair grid is `cells × cells`, unordered).
    pub cells: usize,
    /// Total unordered pairs, same-cell pairs included.
    pub pairs: u64,
    /// Pairs where some strike may trip a compare; no SDC.
    pub detected: u64,
    /// Pairs that provably die silently; no SDC.
    pub benign: u64,
    /// Pairs that may cooperate into an SDC.
    pub vulnerable: u64,
    /// Vulnerable pairs explained by a k=1-Vulnerable member alone.
    pub single_vulnerable: u64,
    /// Vulnerable pairs that needed genuine cooperation (rules a/b).
    pub cooperative: u64,
    /// Cooperative defeats attributed to each compare address.
    pub per_compare: BTreeMap<i64, u64>,
    /// One witness pair per defeatable compare.
    pub witness: BTreeMap<i64, (Cell, Cell)>,
    /// Distinct two-lane fixpoints this analyzer had run when the report
    /// was taken: the size of its memo over (residual, address, seed)
    /// keys, so far smaller than the candidate count. Cumulative per
    /// analyzer, so [`PairAnalyzer::classify_pair`] queries made before
    /// the report count too. The same at every thread count: a key that
    /// two workers both ran counts once (the repeats are the
    /// `analysis.fixpoints.repeated` counter).
    pub fixpoints: u64,
    /// Set when the analyzer refused (then every count is zero).
    pub bailed: Option<String>,
}

impl PairReport {
    fn tally_safe(&mut self, class: ZapClass, count: u64) {
        match class {
            ZapClass::Detected => self.detected += count,
            _ => self.benign += count,
        }
    }

    /// Fraction of pairs provably safe (Detected + Benign) — the static
    /// k=2 coverage. 1.0 for an empty report.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.pairs == 0 {
            1.0
        } else {
            (self.detected + self.benign) as f64 / self.pairs as f64
        }
    }

    /// `TF008` — flag dual-compares defeated by *disproportionately* many
    /// cooperating pairs: a compare whose cooperative-defeat count is at
    /// least twice the per-compare mean (with at least two defeatable
    /// compares to compare against). Opt-in: every dual-modular compare is
    /// defeatable by *some* coordinated double strike — Theorem 4 only
    /// covers k=1 — so this warns about outliers, not existence.
    /// `program` must be the one this report was built from.
    #[must_use]
    pub fn hotspots(&self, program: &Program) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let compares = self.per_compare.len() as u64;
        let total: u64 = self.per_compare.values().sum();
        if compares < 2 || total == 0 {
            return diags;
        }
        for (&at, &count) in &self.per_compare {
            // count >= 2 × mean, in integers: count × compares >= 2 × total.
            if count * compares < 2 * total {
                continue;
            }
            let i = &program.instrs[ix(at)];
            let (w1, w2) = self.witness[&at];
            diags.push(
                Diagnostic::warning(
                    LINT_PAIR_HOTSPOT,
                    format!(
                        "`{i}` is defeated by {count} of {total} cooperating fault pairs \
                         ({compares} defeatable compares)"
                    ),
                )
                .at(program, at)
                .note(format!(
                    "witness pair: {w1} + {w2} — consider narrowing the live range \
                     feeding this compare"
                )),
            );
        }
        diags.sort_by_key(|d| (d.span.as_ref().map_or(0, |s| s.addr), d.code));
        diags
    }
}

/// `TF008` over a fresh pair analysis: shorthand for
/// `PairAnalyzer::new(program).pair_report().hotspots(program)`. Callers
/// that already hold a [`PairReport`] should call
/// [`PairReport::hotspots`] instead of re-running the analysis.
#[must_use]
pub fn lint_pairs(program: &Program) -> Vec<Diagnostic> {
    PairAnalyzer::new(program).pair_report().hotspots(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use talft_isa::assemble;

    /// An unprotected-feeling but k=1-safe block: r1 feeds the green
    /// side, r3 the blue side of one store pair.
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

    #[test]
    fn opposite_sides_of_one_compare_cooperate() {
        let asm = assemble(STORE).expect("assembles");
        let mut pa = PairAnalyzer::new(&asm.program);
        // r1 struck after its def (green side) + r3 struck after its def
        // (blue side): both k=1 Detected, but together they can pass the
        // stB compare as a matched wrong pair.
        let a = Cell::Gpr { addr: 2, reg: 1 };
        let b = Cell::Gpr { addr: 5, reg: 3 };
        assert_eq!(pa.k1_class(a), Some(ZapClass::Detected));
        assert_eq!(pa.k1_class(b), Some(ZapClass::Detected));
        let v = pa.classify_pair(a, b).expect("covered");
        assert_eq!(v.class, PairClass::Vulnerable);
        assert_eq!(v.rule, Some(PairRule::OppositeSides { at: 6 }));
        // Orderless: the reversed query composes the other direction.
        assert_eq!(
            pa.classify_pair(b, a).expect("covered").class,
            PairClass::Vulnerable
        );
    }

    #[test]
    fn detector_strike_on_queue_slot_cooperates() {
        let asm = assemble(STORE).expect("assembles");
        let mut pa = PairAnalyzer::new(&asm.program);
        // First corrupt the queued pair (the detector's golden copy),
        // then the blue operand — or equivalently strike the slot second.
        let slot = Cell::Queue { addr: 4, slot: 0 };
        let blue = Cell::Gpr { addr: 5, reg: 3 };
        let v = pa.classify_pair(blue, slot).expect("covered");
        assert_eq!(v.class, PairClass::Vulnerable);
        assert_eq!(v.rule, Some(PairRule::DetectorStrike { at: 6 }));
    }

    #[test]
    fn sequencing_and_same_side_pairs_stay_safe() {
        let asm = assemble(STORE).expect("assembles");
        let mut pa = PairAnalyzer::new(&asm.program);
        // Same side twice (green value + green address register): the blue
        // side stays golden, so the compare still catches any mismatch.
        let v = pa
            .classify_pair(Cell::Gpr { addr: 2, reg: 1 }, Cell::Gpr { addr: 3, reg: 2 })
            .expect("covered");
        assert_eq!(v.class, PairClass::Detected);
        // Sequencing (rule c): r1's taint is consumed by the stG push and
        // compare-cleared; striking r1 again *after* the stB cannot
        // resurrect it — r1 is dead there, so the pair is as safe as the
        // first strike alone.
        let v = pa
            .classify_pair(Cell::Gpr { addr: 2, reg: 1 }, Cell::Gpr { addr: 7, reg: 1 })
            .expect("covered");
        assert_ne!(v.class, PairClass::Vulnerable);
    }

    #[test]
    fn pc_pairs_follow_the_special_cases() {
        let asm = assemble(STORE).expect("assembles");
        let mut pa = PairAnalyzer::new(&asm.program);
        let pc = Cell::Pc { addr: 3 };
        let v = pa.classify_pair(pc, Cell::Pc { addr: 5 }).expect("covered");
        assert_eq!(v.class, PairClass::Vulnerable);
        assert_eq!(v.rule, Some(PairRule::PcPair));
        // pc + safe data cell: exactly as dangerous as the data cell.
        let v = pa
            .classify_pair(pc, Cell::Gpr { addr: 2, reg: 1 })
            .expect("covered");
        assert_eq!(v.class, PairClass::Detected);
        assert_eq!(v.rule, None);
    }

    #[test]
    fn pair_report_counts_are_consistent() {
        let asm = assemble(STORE).expect("assembles");
        let mut pa = PairAnalyzer::new(&asm.program);
        let report = pa.pair_report();
        assert!(report.bailed.is_none());
        let n = report.cells as u64;
        assert_eq!(report.pairs, n * (n + 1) / 2);
        assert_eq!(
            report.detected + report.benign + report.vulnerable,
            report.pairs,
            "every pair lands in exactly one class"
        );
        assert!(report.cooperative > 0, "the store pair is defeatable");
        assert!(report.per_compare.contains_key(&6), "stB attribution");
        assert!(report.witness.contains_key(&6));
        // Spot-check the report against direct classification.
        let a = Cell::Gpr { addr: 2, reg: 1 };
        let b = Cell::Gpr { addr: 5, reg: 3 };
        assert_eq!(
            pa.classify_pair(a, b).expect("covered").class,
            PairClass::Vulnerable
        );
    }

    /// Every dead GPR cell's solo run, recorded: the contract behind the
    /// `pair_report` shortcut that files dead cells under (Benign, ∅)
    /// without running them.
    fn assert_dead_cells_are_inert(name: &str, program: &Program) {
        let pa = PairAnalyzer::new(program);
        assert!(pa.bailed().is_none(), "{name}: {:?}", pa.bailed());
        let mut dead = 0;
        for &(addr, reg) in pa.k1.gpr.keys() {
            let cell = Cell::Gpr { addr, reg };
            if !pa.is_dead(cell) {
                continue;
            }
            dead += 1;
            let run = run_lanes(
                &pa.ctx(),
                &mut Scratch::new(pa.cfg.n),
                addr,
                [PairAnalyzer::seed(cell).expect("data cell")],
                true,
            );
            assert!(
                run.touches.is_empty(),
                "{name}: {cell} touches {:?}",
                run.touches
            );
            assert!(run.vuln.is_none(), "{name}: {cell} defeats a compare");
            assert!(!run.checked, "{name}: {cell} reaches a guard");
            assert_eq!(pa.k1_class(cell), Some(ZapClass::Benign), "{name}: {cell}");
        }
        assert!(dead > 0, "{name}: no dead cells exercised");
    }

    #[test]
    fn dead_register_cells_touch_nothing() {
        use talft_compiler::{compile, CompileOptions};
        use talft_testutil::wile::{random_stmts, render_program};
        use talft_testutil::SplitMix64;

        let mut sources: Vec<(String, String)> = talft_suite::kernels(talft_suite::Scale::Tiny)
            .into_iter()
            .map(|k| (k.name.to_owned(), k.source))
            .collect();
        let mut r = SplitMix64::new(0x0dead);
        for i in 0..4 {
            let stmts = random_stmts(&mut r, 3, 4, 10);
            sources.push((format!("wile#{i}"), render_program(&stmts)));
        }
        for (name, src) in &sources {
            let c = compile(src, &CompileOptions::default()).expect("compiles");
            assert_dead_cells_are_inert(&format!("{name}/protected"), &c.protected.program);
            assert_dead_cells_are_inert(&format!("{name}/baseline"), &c.baseline.program);
        }
    }

    #[test]
    fn too_wide_programs_bail_like_the_k1_analyzer() {
        let wide = STORE.replacen(".data", ".gprs 200\n.data", 1);
        let asm = assemble(&wide).expect("assembles");
        let mut pa = PairAnalyzer::new(&asm.program);
        let k1 = crate::zap::analyze_zaps(&asm.program);
        assert!(k1.bailed.is_some());
        assert_eq!(pa.bailed(), k1.bailed.as_deref());
        assert_eq!(pa.pair_report().bailed, k1.bailed);
    }

    #[test]
    fn single_compare_programs_get_no_tf008() {
        // TF008 flags *disproportionate* compares; with one defeatable
        // compare there is no distribution to stand out from.
        let asm = assemble(STORE).expect("assembles");
        assert!(lint_pairs(&asm.program).is_empty());
    }
}
