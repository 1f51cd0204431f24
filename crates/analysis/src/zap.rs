//! Static zap-vulnerability classification: the per-cell analogue of the
//! k=1 injection campaign.
//!
//! A **cell** is a (code address, fault site) pair: zap register `r` (or
//! `d`, or a pc, or a store-queue slot) in a machine state about to fetch
//! or execute the instruction at that address. Each cell is classified:
//!
//! * [`ZapClass::Detected`] — some path routes the corruption into a
//!   dual-compare (`stB`, `jmpB`, `bzB`, a `d`-guard, the fetch pc check),
//!   so the machine faults before corrupt data can escape; the corruption
//!   may also die or be masked first.
//! * [`ZapClass::Benign`] — the corruption provably dies (overwritten or
//!   never consumed) without meeting any compare: at worst a dissimilar
//!   final state, never a wrong output.
//! * [`ZapClass::Vulnerable`] — some path lets the corruption reach
//!   *both* sides of a compare (or the analysis had to bail), so a wrong
//!   output can be committed: potential silent data corruption.
//!
//! The soundness argument mirrors Theorem 4: outputs happen only at `stB`
//! commits and control transfers only at `jmpB`/`bzB` commits, all of
//! which compare a green value against a blue one. A single zap that
//! taints only one side either trips the compare (detected) or — because
//! the compare passed — held the golden value all along, which is why the
//! may-taint transfer *sanitizes* compared registers on pass edges.
//! `Detected`/`Benign` cells therefore admit no SDC, which is exactly what
//! [`cross_validate`](crate::diff::cross_validate) checks against the
//! dynamic [`FaultGrid`](talft_faultsim::FaultGrid).
//!
//! Special sites need no fixpoint:
//!
//! * **pc zaps** are detected by the very next fetch (`pcG` vs `pcB`),
//!   healed by a committed transfer (both pcs overwritten), or masked by
//!   `halt` — never silent. Classified `Detected` everywhere.
//! * **`d` zaps**: every consumer of `d` guards it (`jmpG`/`bzG`/untaken
//!   `bz` require `d = 0`; `jmpB`/taken `bzB` require `rd = d`), so the
//!   zap faults at the first consumer — `Detected` when a `jmp`/`bz` is
//!   reachable, `Benign` otherwise.
//!
//! The transfer function is **lane-generic**: the same may-taint semantics
//! propagate `L` independently-seeded taints in lockstep, with every
//! compare check taken over the lane *union*. `L = 1` is the classic k=1
//! classifier above; `L = 2` is the composition step of the pair-fault
//! analyzer ([`crate::pair`]), where the union check is exactly the
//! cooperation condition — two one-sided taints meeting opposite sides of
//! one compare.

use std::collections::{BTreeMap, BTreeSet};

use talft_isa::{Color, Gpr, Instr, OpSrc, Program};

use crate::cfg::Cfg;
use crate::live::{liveness, Liveness};
use crate::mask::{RegMask, MAX_GPRS};

/// Static verdict for one (address, site) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ZapClass {
    /// Routed into a dual-compare: the machine faults (or masks) — no SDC.
    Detected,
    /// Provably dies without consequence — no SDC.
    Benign,
    /// May corrupt both sides of a compare: SDC possible.
    Vulnerable,
}

impl std::fmt::Display for ZapClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZapClass::Detected => write!(f, "detected"),
            ZapClass::Benign => write!(f, "benign"),
            ZapClass::Vulnerable => write!(f, "vulnerable"),
        }
    }
}

/// Static coverage over every reachable cell of a program.
#[derive(Debug, Clone, Default)]
pub struct ZapReport {
    /// GPR cells, keyed `(addr, register index)`.
    pub gpr: BTreeMap<(i64, u16), ZapClass>,
    /// Store-queue slot cells, keyed `(addr, slot index from the back)`
    /// (slot 0 = oldest = next to be popped by `stB`).
    pub queue: BTreeMap<(i64, usize), ZapClass>,
    /// pc cells (one per address; green and blue are symmetric).
    pub pc: BTreeMap<i64, ZapClass>,
    /// `d` (destination latch) cells.
    pub dst: BTreeMap<i64, ZapClass>,
    /// Set when the analyzer refused to classify (then all maps are empty).
    pub bailed: Option<String>,
}

impl ZapReport {
    fn classes(&self) -> impl Iterator<Item = ZapClass> + '_ {
        self.gpr
            .values()
            .chain(self.queue.values())
            .chain(self.pc.values())
            .chain(self.dst.values())
            .copied()
    }

    /// Cell counts as `(detected, benign, vulnerable)`.
    #[must_use]
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for c in self.classes() {
            match c {
                ZapClass::Detected => t.0 += 1,
                ZapClass::Benign => t.1 += 1,
                ZapClass::Vulnerable => t.2 += 1,
            }
        }
        t
    }

    /// Total classified cells.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.classes().count()
    }

    /// Fraction of cells provably safe (detected or benign); the static
    /// analogue of campaign fault coverage. 1.0 for an empty report.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let (d, b, v) = self.tally();
        let total = d + b + v;
        if total == 0 {
            1.0
        } else {
            (d + b) as f64 / total as f64
        }
    }

    /// Fraction of cells classified `Detected`.
    #[must_use]
    pub fn detected_fraction(&self) -> f64 {
        let (d, b, v) = self.tally();
        let total = d + b + v;
        if total == 0 {
            0.0
        } else {
            d as f64 / total as f64
        }
    }
}

/// The taint state: which locations *may* differ from the golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash, PartialOrd, Ord)]
pub(crate) struct Taint {
    /// Tainted GPRs.
    pub regs: RegMask,
    /// `d` may differ from golden.
    pub d: bool,
    /// Queue slots, bit 0 = back/oldest (the next `stB` pop).
    pub queue: u64,
}

impl Taint {
    pub(crate) fn any(self) -> bool {
        !self.regs.is_empty() || self.d || self.queue != 0
    }

    fn join(self, o: Taint) -> Taint {
        Taint {
            regs: self.regs | o.regs,
            d: self.d || o.d,
            queue: self.queue | o.queue,
        }
    }

    fn tr(self, g: Gpr) -> bool {
        self.regs.test(g.0)
    }

    fn set(&mut self, g: Gpr, tainted: bool) {
        if tainted {
            self.regs.set(g.0);
        } else {
            self.regs.clear(g.0);
        }
    }

    fn clear(&mut self, g: Gpr) {
        self.set(g, false);
    }
}

#[inline]
pub(crate) fn ix(addr: i64) -> usize {
    (addr - 1) as usize
}

/// Which side of a dual-compare a taint reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Side {
    /// The compare state carried from the green half: a queue slot at
    /// `stB`, or the `d` latch at `jmpB`/`bzB`.
    Green,
    /// The blue register operand(s) the compare checks against.
    Blue,
}

/// One dual-compare a cell's taint may reach, and on which side — the
/// building block of the pair analyzer's taint-reach summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Touch {
    /// Address of the comparing instruction (`stB`, `jmpB`, or `bzB`).
    pub at: i64,
    /// Which side of the compare the taint feeds.
    pub side: Side,
}

/// How a may-taint run defeats (or escapes) the fault detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VulnKind {
    /// Both sides of a `stB` compare tainted: a matched wrong pair commits.
    StoreCompare,
    /// `d` and the `jmpB` operand both tainted: a wrong transfer commits.
    JmpCompare,
    /// `d` and a `bzB` operand both tainted: wrong direction or target.
    BzCompare,
    /// A tainted push where the static queue depth is unknown or
    /// conflict-pessimized: the analysis cannot place the taint.
    QueuePush,
    /// Taint survives into an unresolvable blue transfer target.
    UnresolvedTarget,
}

/// Where and how the propagated taints defeat the detection, with lane
/// provenance (`bit i` = taint seeded in lane `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Vuln {
    /// Address of the defeated compare (or escaping instruction).
    pub at: i64,
    /// What was defeated.
    pub kind: VulnKind,
    /// Lanes contributing the green/compare-state side.
    pub green: u8,
    /// Lanes contributing the blue/register side.
    pub blue: u8,
}

/// Build the CFG and liveness, then classify every reachable cell.
#[must_use]
pub fn analyze_zaps(program: &Program) -> ZapReport {
    analyze_zaps_in(program, &Cfg::build(program)).0
}

/// Run liveness against a prebuilt CFG, then classify every reachable
/// cell. The liveness is handed back for callers that reuse it; it is
/// `None` (and the report bailed) when the program is too wide for the
/// taint mask.
pub(crate) fn analyze_zaps_in(program: &Program, cfg: &Cfg) -> (ZapReport, Option<Liveness>) {
    match liveness(program, cfg) {
        Some(live) => (analyze_zaps_with(program, cfg, &live), Some(live)),
        None => (too_wide(program), None),
    }
}

/// The refusal for programs wider than [`MAX_GPRS`].
fn too_wide(program: &Program) -> ZapReport {
    ZapReport {
        bailed: Some(format!(
            "{} GPRs exceed the {MAX_GPRS}-register taint mask",
            program.num_gprs
        )),
        ..ZapReport::default()
    }
}

/// Per-address queue pessimism: `true` exactly at addresses reachable from
/// a depth-conflicting join (including the join itself). Only there does
/// the static queue indexing possibly disagree with some dynamic path;
/// blocks upstream of (or unrelated to) every conflict keep precise
/// queue-slot placement.
pub(crate) fn queue_pessimism(cfg: &Cfg) -> Vec<bool> {
    let mut p = vec![false; cfg.n];
    let mut work = Vec::new();
    for c in &cfg.depth_conflicts {
        if !p[ix(c.addr)] {
            p[ix(c.addr)] = true;
            work.push(c.addr);
        }
    }
    while let Some(a) = work.pop() {
        for &s in &cfg.succs[ix(a)] {
            if !p[ix(s)] {
                p[ix(s)] = true;
                work.push(s);
            }
        }
    }
    p
}

/// Classify every reachable cell against a prebuilt CFG and liveness.
#[must_use]
pub fn analyze_zaps_with(program: &Program, cfg: &Cfg, live: &Liveness) -> ZapReport {
    if program.num_gprs > MAX_GPRS {
        return too_wide(program);
    }
    let mut report = ZapReport::default();
    let cx = Ctx {
        program,
        cfg,
        pessimistic: &queue_pessimism(cfg),
    };
    let reaches_check = reaches_check(program, cfg);
    for a in 1..=cfg.n as i64 {
        if !cfg.reachable[ix(a)] {
            continue;
        }
        report.pc.insert(a, ZapClass::Detected);
        report.dst.insert(
            a,
            if reaches_check[ix(a)] {
                ZapClass::Detected
            } else {
                ZapClass::Benign
            },
        );
        for g in 0..program.num_gprs {
            let class = if !live.live_in[ix(a)].test(g) {
                // Dead registers are never read again: at worst a
                // dissimilar (non-output) final state.
                ZapClass::Benign
            } else {
                run_seed(
                    &cx,
                    a,
                    Taint {
                        regs: RegMask::bit(g),
                        ..Taint::default()
                    },
                )
            };
            report.gpr.insert((a, g), class);
        }
        if let Some(depth) = cfg.depth_in[ix(a)] {
            for slot in 0..depth {
                let class = if slot >= 64 {
                    ZapClass::Vulnerable
                } else {
                    run_seed(
                        &cx,
                        a,
                        Taint {
                            queue: 1u64 << slot,
                            ..Taint::default()
                        },
                    )
                };
                report.queue.insert((a, slot), class);
            }
        }
    }
    report
}

/// Per-address: can execution starting here reach any `jmp`/`bz` (all of
/// which guard `d`)?
fn reaches_check(program: &Program, cfg: &Cfg) -> Vec<bool> {
    let mut rc: Vec<bool> = program
        .instrs
        .iter()
        .map(|i| matches!(i, Instr::Jmp { .. } | Instr::Bz { .. }))
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for a in (1..=cfg.n as i64).rev() {
            if !rc[ix(a)] && cfg.succs[ix(a)].iter().any(|&s| rc[ix(s)]) {
                rc[ix(a)] = true;
                changed = true;
            }
        }
    }
    rc
}

/// Shared immutable inputs of a taint run.
pub(crate) struct Ctx<'a> {
    /// The program under analysis.
    pub program: &'a Program,
    /// Its control-flow graph.
    pub cfg: &'a Cfg,
    /// Per-address queue pessimism (see [`queue_pessimism`]).
    pub pessimistic: &'a [bool],
}

/// What a lane run should additionally record.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Record {
    /// Collect per-side dual-compare [`Touch`]es.
    pub touches: bool,
    /// Keep the full entry-state reach map.
    pub reach: bool,
}

/// Result of propagating `L` lane-seeded taints to a fixpoint.
pub(crate) struct LaneRun<const L: usize> {
    /// Set when the union taint defeats a compare (or escapes).
    pub vuln: Option<Vuln>,
    /// A tainted value flowed into some dual-compare or guard: a dynamic
    /// instance may fault there.
    pub checked: bool,
    /// Dual-compare touches (when [`Record::touches`]; deduplicated).
    pub touches: Vec<Touch>,
    /// May-taint at *entry* to each address with any surviving taint,
    /// sorted by address (when [`Record::reach`]; partial if the run
    /// aborted vulnerable).
    pub reach: Vec<(i64, [Taint; L])>,
}

/// Propagate `L` independently-seeded taints in lockstep to a fixpoint.
pub(crate) fn run_lanes<const L: usize>(
    cx: &Ctx,
    at: i64,
    seed: [Taint; L],
    record: Record,
) -> LaneRun<L> {
    let mut state: Vec<Option<[Taint; L]>> = vec![None; cx.cfg.n];
    state[ix(at)] = Some(seed);
    let mut work = vec![at];
    let mut probe = Probe {
        checked: false,
        record_touches: record.touches,
        touches: BTreeSet::new(),
    };
    let mut vuln = None;
    while let Some(a) = work.pop() {
        let t = state[ix(a)].expect("worklist entries have state");
        match transfer(cx, a, &t, &mut probe) {
            Err(v) => {
                vuln = Some(v);
                break;
            }
            Ok(edges) => {
                for (s, ts) in edges {
                    if !union(&ts).any() {
                        continue;
                    }
                    let merged = match state[ix(s)] {
                        None => ts,
                        Some(cur) => {
                            let mut m = cur;
                            for l in 0..L {
                                m[l] = m[l].join(ts[l]);
                            }
                            m
                        }
                    };
                    if state[ix(s)] != Some(merged) {
                        state[ix(s)] = Some(merged);
                        work.push(s);
                    }
                }
            }
        }
    }
    let reach = if record.reach {
        (1..=cx.cfg.n as i64)
            .filter_map(|a| state[ix(a)].map(|t| (a, t)))
            .collect()
    } else {
        Vec::new()
    };
    LaneRun {
        vuln,
        checked: probe.checked,
        touches: probe.touches.into_iter().collect(),
        reach,
    }
}

/// Propagate one seeded taint to a fixpoint; classify the cell.
fn run_seed(cx: &Ctx, at: i64, seed: Taint) -> ZapClass {
    let run = run_lanes::<1>(cx, at, [seed], Record::default());
    if run.vuln.is_some() {
        ZapClass::Vulnerable
    } else if run.checked {
        ZapClass::Detected
    } else {
        ZapClass::Benign
    }
}

/// Mutable observations of one run: the `checked` flag and (optionally)
/// the dual-compare touch set.
struct Probe {
    checked: bool,
    record_touches: bool,
    touches: BTreeSet<Touch>,
}

impl Probe {
    fn touch(&mut self, at: i64, side: Side) {
        self.checked = true;
        if self.record_touches {
            self.touches.insert(Touch { at, side });
        }
    }
}

fn union<const L: usize>(t: &[Taint; L]) -> Taint {
    t.iter().fold(Taint::default(), |u, &l| u.join(l))
}

/// Bitmask of lanes satisfying `f`.
fn lanes<const L: usize>(t: &[Taint; L], f: impl Fn(&Taint) -> bool) -> u8 {
    let mut m = 0u8;
    for (i, l) in t.iter().enumerate() {
        if f(l) {
            m |= 1 << i;
        }
    }
    m
}

/// One instruction's taint transfer over `L` lanes. Dataflow is linear in
/// the taint, so lane states update independently; every compare check is
/// taken over the lane **union** (a dynamic state carries all seeded
/// corruptions at once), with pass edges sanitizing compared values (the
/// compare passing proves they held golden values). `checked` fires
/// whenever any tainted value flows into a dual-compare or guard.
fn transfer<const L: usize>(
    cx: &Ctx,
    a: i64,
    t: &[Taint; L],
    probe: &mut Probe,
) -> Result<Vec<(i64, [Taint; L])>, Vuln> {
    let program = cx.program;
    let fall = |t: [Taint; L]| -> Vec<(i64, [Taint; L])> {
        if program.is_code_addr(a + 1) {
            vec![(a + 1, t)]
        } else {
            Vec::new()
        }
    };
    // Follow a committed blue transfer; with an unresolved target the
    // analysis cannot continue — surviving taint means "anything may
    // happen", so bail.
    let goto_blue = |out: [Taint; L]| -> Result<Vec<(i64, [Taint; L])>, Vuln> {
        match cx.cfg.blue_target[ix(a)] {
            Some(tgt) if program.is_code_addr(tgt) => Ok(vec![(tgt, out)]),
            _ if union(&out).any() => Err(Vuln {
                at: a,
                kind: VulnKind::UnresolvedTarget,
                green: lanes(&out, |l| l.any()),
                blue: 0,
            }),
            _ => Ok(Vec::new()),
        }
    };
    let u = union(t);
    match program.instrs[ix(a)] {
        Instr::Op { rd, rs, src2, .. } => {
            let mut o = *t;
            for l in o.iter_mut() {
                let taint = l.tr(rs)
                    || match src2 {
                        OpSrc::Reg(rt) => l.tr(rt),
                        OpSrc::Imm(_) => false,
                    };
                l.set(rd, taint);
            }
            Ok(fall(o))
        }
        Instr::Mov { rd, .. } => {
            let mut o = *t;
            for l in o.iter_mut() {
                l.clear(rd);
            }
            Ok(fall(o))
        }
        Instr::Ld {
            color: Color::Green,
            rd,
            rs,
        } => {
            // ldG snoops the queue by address: any tainted slot may alias.
            let mut o = *t;
            for l in o.iter_mut() {
                l.set(rd, l.tr(rs) || l.queue != 0);
            }
            Ok(fall(o))
        }
        Instr::Ld {
            color: Color::Blue,
            rd,
            rs,
        } => {
            let mut o = *t;
            for l in o.iter_mut() {
                l.set(rd, l.tr(rs));
            }
            Ok(fall(o))
        }
        Instr::St {
            color: Color::Green,
            rd,
            rs,
        } => {
            let mut o = *t;
            if u.tr(rd) || u.tr(rs) {
                // Place each lane's tainted pair at the front of the queue,
                // i.e. at bit `depth` counting from the back.
                match cx.cfg.depth_in[ix(a)] {
                    Some(depth) if depth < 64 && !cx.pessimistic[ix(a)] => {
                        for l in o.iter_mut() {
                            if l.tr(rd) || l.tr(rs) {
                                l.queue |= 1u64 << depth;
                            }
                        }
                    }
                    _ => {
                        return Err(Vuln {
                            at: a,
                            kind: VulnKind::QueuePush,
                            green: lanes(t, |l| l.tr(rd) || l.tr(rs)),
                            blue: 0,
                        })
                    }
                }
            }
            Ok(fall(o))
        }
        Instr::St {
            color: Color::Blue,
            rd,
            rs,
        } => {
            let slot = lanes(t, |l| l.queue & 1 != 0);
            let regs = lanes(t, |l| l.tr(rd) || l.tr(rs));
            if slot != 0 && regs != 0 {
                // Queue entry and compare registers both corrupt: the
                // compare can pass on a non-golden pair — SDC.
                return Err(Vuln {
                    at: a,
                    kind: VulnKind::StoreCompare,
                    green: slot,
                    blue: regs,
                });
            }
            if slot != 0 {
                probe.touch(a, Side::Green);
            }
            if regs != 0 {
                probe.touch(a, Side::Blue);
            }
            let mut o = *t;
            for l in o.iter_mut() {
                l.queue >>= 1;
                l.clear(rd);
                l.clear(rs);
            }
            Ok(fall(o))
        }
        Instr::Jmp {
            color: Color::Green,
            rd,
        } => {
            if u.d {
                // jmpG requires d = 0; a corrupt d faults here.
                probe.checked = true;
            }
            let mut o = *t;
            for l in o.iter_mut() {
                l.d = l.tr(rd);
            }
            Ok(fall(o))
        }
        Instr::Jmp {
            color: Color::Blue,
            rd,
        } => {
            let d = lanes(t, |l| l.d);
            let regs = lanes(t, |l| l.tr(rd));
            if d != 0 && regs != 0 {
                return Err(Vuln {
                    at: a,
                    kind: VulnKind::JmpCompare,
                    green: d,
                    blue: regs,
                });
            }
            if d != 0 {
                probe.touch(a, Side::Green);
            }
            if regs != 0 {
                probe.touch(a, Side::Blue);
            }
            let mut o = *t;
            for l in o.iter_mut() {
                l.d = false;
                l.clear(rd);
            }
            goto_blue(o)
        }
        Instr::Bz {
            color: Color::Green,
            rz,
            rd,
        } => {
            if u.d {
                // Both arms of bzG require d = 0.
                probe.checked = true;
            }
            let mut o = *t;
            for l in o.iter_mut() {
                // A corrupt rz flips whether d latches; a corrupt rd
                // latches a wrong target. Either way d may now differ
                // from golden.
                l.d = l.tr(rz) || l.tr(rd);
            }
            Ok(fall(o))
        }
        Instr::Bz {
            color: Color::Blue,
            rz,
            rd,
        } => {
            let d = lanes(t, |l| l.d);
            let regs = lanes(t, |l| l.tr(rz) || l.tr(rd));
            if d != 0 && regs != 0 {
                // d plus a blue operand corrupt: a wrong-target commit or
                // a silent wrong-direction fall-through becomes possible.
                return Err(Vuln {
                    at: a,
                    kind: VulnKind::BzCompare,
                    green: d,
                    blue: regs,
                });
            }
            if d != 0 {
                probe.touch(a, Side::Green);
            }
            if regs != 0 {
                probe.touch(a, Side::Blue);
            }
            // One-sided taint cannot flip the branch direction (the d
            // guard catches it), so both CFG edges correspond to golden
            // directions. Untaken keeps operand taint; taken compares
            // rd = d and rz = 0, proving them golden.
            let mut untaken = *t;
            for l in untaken.iter_mut() {
                l.d = false;
            }
            let mut taken = *t;
            for l in taken.iter_mut() {
                l.d = false;
                l.clear(rz);
                l.clear(rd);
            }
            let mut edges = fall(untaken);
            edges.extend(goto_blue(taken)?);
            Ok(edges)
        }
        Instr::Halt => Ok(Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn protected_store_has_no_vulnerable_cells() {
        let asm = assemble(STORE).expect("assembles");
        let report = analyze_zaps(&asm.program);
        assert!(report.bailed.is_none());
        let (d, b, v) = report.tally();
        assert_eq!(v, 0, "duplicated store is single-fault safe");
        assert!(d > 0 && b > 0);
        // r1 feeds the green store side: zapping it right after its def
        // is caught by the stB compare.
        assert_eq!(report.gpr.get(&(2, 1)), Some(&ZapClass::Detected));
        // The queued pair between stG and stB is guarded by the pop.
        assert_eq!(report.queue.get(&(4, 0)), Some(&ZapClass::Detected));
        // pc zaps always hit the fetch comparison.
        assert!(report.pc.values().all(|&c| c == ZapClass::Detected));
    }

    #[test]
    fn unduplicated_store_is_vulnerable() {
        // One register feeds *both* sides of the store pair: a single zap
        // of r1 between stG and stB corrupts both compare sides at once.
        let src = r#"
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
        let asm = assemble(src).expect("assembles");
        let report = analyze_zaps(&asm.program);
        // Zapping r1 *before* the stG poisons the queued pair and the
        // register the stB will compare against it — both sides corrupt.
        assert_eq!(
            report.gpr.get(&(3, 1)),
            Some(&ZapClass::Vulnerable),
            "shared store operand defeats the dual compare"
        );
        // Zapping r1 *after* the push only corrupts the register side:
        // the compare against the golden queued pair catches it.
        assert_eq!(report.gpr.get(&(4, 1)), Some(&ZapClass::Detected));
        let (_, _, v) = report.tally();
        assert!(v > 0);
    }

    /// Satellite: programs wider than 64 GPRs now get real per-cell
    /// verdicts from the two-word mask instead of a whole-report bail.
    #[test]
    fn wide_programs_are_classified_not_bailed() {
        let src = r#"
.gprs 128
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r100, G 5
  mov r2, G 4096
  stG r2, r100
  mov r101, B 5
  mov r4, B 4096
  stB r4, r101
  halt
"#;
        let asm = assemble(src).expect("assembles");
        assert!(asm.program.num_gprs > 64);
        let report = analyze_zaps(&asm.program);
        assert!(report.bailed.is_none(), "two-word mask covers 128 GPRs");
        let (d, b, v) = report.tally();
        assert_eq!(v, 0, "duplicated wide store is single-fault safe");
        assert!(d > 0 && b > 0);
        // The high-word register feeding the green store side is caught
        // by the stB compare, exactly like its low-word twin.
        assert_eq!(report.gpr.get(&(2, 100)), Some(&ZapClass::Detected));
        // Past MAX_GPRS the analyzer still bails.
        let too_wide = src.replace(".gprs 128", ".gprs 200");
        let asm = assemble(&too_wide).expect("assembles");
        assert!(analyze_zaps(&asm.program).bailed.is_some());
    }

    /// Satellite: a depth-conflicting join pessimizes only its downstream
    /// blocks; protected stores upstream keep precise verdicts.
    #[test]
    fn queue_pessimism_is_per_block() {
        // `main` is the protected STORE block; it falls through into
        // `mid`, whose annotation claims queue depth 1 while propagation
        // says 0 — a conflict at `mid`. Under the old whole-program bail
        // every tainted push turned Vulnerable; now only `mid` and its
        // successors are pessimized.
        let src = r#"
.data
region out at 4096 len 2 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
  mov r3, B 5
  mov r4, B 4096
  stB r4, r3
mid:
  .pre { forall m:mem; mem: m; queue: [(4097, 7)]; }
  mov r5, G 6
  mov r6, G 4097
  stG r6, r5
  mov r7, B 6
  mov r8, B 4097
  stB r8, r7
  halt
"#;
        let asm = assemble(src).expect("assembles");
        let cfg = Cfg::build(&asm.program);
        assert!(
            !cfg.depth_conflicts.is_empty(),
            "fixture must exhibit a depth conflict"
        );
        let p = queue_pessimism(&cfg);
        assert!(!p[ix(3)], "main's stG is upstream of every conflict");
        let report = analyze_zaps(&asm.program);
        assert!(report.bailed.is_none());
        // Upstream protected store: precise, exactly as in STORE.
        assert_eq!(report.gpr.get(&(2, 1)), Some(&ZapClass::Detected));
        assert_eq!(report.queue.get(&(4, 0)), Some(&ZapClass::Detected));
        // Downstream of the conflict, a tainted push cannot be placed:
        // the store-operand cell before mid's stG goes Vulnerable.
        let jst = 9; // mid's stG address
        assert!(p[ix(jst)], "mid block is pessimized");
        assert_eq!(report.gpr.get(&(jst - 1, 5)), Some(&ZapClass::Vulnerable));
    }
}
