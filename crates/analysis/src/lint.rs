//! The rustc-style TAL_FT lint engine: stable `TF0xx` codes over the
//! [`Diagnostic`] form shared with the type checker (`TF000`).
//!
//! Lints are intentionally *must*-analyses: they fire only on violations
//! provable from definite facts (constant colors, propagated queue depths,
//! a definitely-zero `d`), so any program the checker accepts stays
//! lint-clean at `Error` severity. Warnings flag suspicious-but-legal
//! shapes (dead duplication halves, unresolvable blue targets).
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | `TF001` | error | an instruction mixes operand colors (P2 violation) |
//! | `TF002` | error | store-queue imbalance: `stB` on a provably empty queue, or propagated depth contradicts an annotation/join |
//! | `TF003` | error | `jmpB` with a provably un-latched `d` (always faults) |
//! | `TF004` | warning | dead definition: a duplicated half nobody reads |
//! | `TF005` | error | layout: control falls off the code end, or a blue transfer targets a non-block address |
//! | `TF006` | warning | blue transfer target cannot be resolved statically |
//! | `TF007` | warning | a queue annotation's address is not provably inside any declared region (solver-backed; carries an entailment failure witness) |
//! | `TF008` | warning | pair-fault hot spot: a dual-compare defeated by disproportionately many cooperating fault pairs (opt-in via [`PairReport::hotspots`](crate::pair::PairReport::hotspots), carries a witness pair) |

use std::collections::BTreeMap;

use talft_core::Diagnostic;
use talft_isa::{Color, Gpr, Instr, OpSrc, Program, Reg, RegTy};
use talft_logic::{ExprArena, Facts};

use crate::cfg::Cfg;
use crate::live::liveness;

/// Stable lint code: operand color mixing.
pub const LINT_COLOR_MIX: &str = "TF001";
/// Stable lint code: store-queue imbalance.
pub const LINT_QUEUE_IMBALANCE: &str = "TF002";
/// Stable lint code: blue jump with no latched destination.
pub const LINT_NO_LATCH: &str = "TF003";
/// Stable lint code: dead duplication half.
pub const LINT_DEAD_DUP: &str = "TF004";
/// Stable lint code: layout violation.
pub const LINT_LAYOUT: &str = "TF005";
/// Stable lint code: unresolvable blue target.
pub const LINT_UNRESOLVED_TARGET: &str = "TF006";
/// Stable lint code: queue annotation address not provably in any region.
pub const LINT_QUEUE_BOUNDS: &str = "TF007";
/// Stable lint code: pair-fault hot spot (disproportionately defeatable
/// dual-compare). Opt-in: emitted by [`crate::pair::PairReport::hotspots`], never by
/// [`lint_program`] — k=2 exposure is expected, not a program error.
pub const LINT_PAIR_HOTSPOT: &str = "TF008";

/// `(code, one-line summary)` for every lint, in code order.
pub const LINT_CODES: &[(&str, &str)] = &[
    (LINT_COLOR_MIX, "instruction mixes operand colors"),
    (LINT_QUEUE_IMBALANCE, "store-queue depth imbalance"),
    (LINT_NO_LATCH, "blue jump with no latched destination"),
    (LINT_DEAD_DUP, "dead definition (unused duplication half)"),
    (LINT_LAYOUT, "control-flow layout violation"),
    (LINT_UNRESOLVED_TARGET, "unresolvable blue transfer target"),
    (
        LINT_QUEUE_BOUNDS,
        "queue annotation address not provably in bounds",
    ),
    (
        LINT_PAIR_HOTSPOT,
        "dual-compare defeatable by disproportionately many fault pairs",
    ),
];

/// Run every lint over an assembled program.
#[must_use]
pub fn lint_program(program: &Program) -> Vec<Diagnostic> {
    let cfg = Cfg::build(program);
    lint_program_with(program, &cfg)
}

/// Run every lint *including* the solver-backed `TF007`, which needs the
/// program's expression arena to discharge entailment obligations (and to
/// render witness notes when they fail).
#[must_use]
pub fn lint_program_solver(program: &Program, arena: &mut ExprArena) -> Vec<Diagnostic> {
    let cfg = Cfg::build(program);
    let mut diags = lint_program_with(program, &cfg);
    lint_queue_bounds(program, arena, &mut diags);
    diags.sort_by_key(|d| (d.span.as_ref().map_or(0, |s| s.addr), d.code));
    diags
}

/// Run every lint against a prebuilt CFG.
#[must_use]
pub fn lint_program_with(program: &Program, cfg: &Cfg) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    lint_color_mix(program, &mut diags);
    lint_queue_imbalance(program, cfg, &mut diags);
    lint_no_latch(program, cfg, &mut diags);
    lint_dead_dup(program, cfg, &mut diags);
    lint_layout(program, cfg, &mut diags);
    lint_unresolved(program, cfg, &mut diags);
    diags.sort_by_key(|d| (d.span.as_ref().map_or(0, |s| s.addr), d.code));
    diags
}

#[inline]
fn ix(addr: i64) -> usize {
    (addr - 1) as usize
}

fn color_name(c: Color) -> &'static str {
    match c {
        Color::Green => "green",
        Color::Blue => "blue",
    }
}

/// TF001 — block-local must-color tracking; flags only definite mixes.
fn lint_color_mix(program: &Program, diags: &mut Vec<Diagnostic>) {
    let n = program.instrs.len();
    let mut colors: BTreeMap<Gpr, Color> = BTreeMap::new();
    let boundary: Vec<bool> = {
        let mut b = vec![false; n];
        for &a in program.preconds.keys().chain(program.labels.values()) {
            if program.is_code_addr(a) {
                b[ix(a)] = true;
            }
        }
        b
    };
    for a in 1..=n as i64 {
        if boundary[ix(a)] {
            colors.clear();
            // Seed definite colors from the block's register typing.
            if let Some(pre) = program.precond(a) {
                for (r, ty) in pre.regs.iter() {
                    if let (Reg::Gpr(g), RegTy::Val(v)) = (r, ty) {
                        colors.insert(g, v.color);
                    }
                }
            }
        }
        let i = program.instrs[ix(a)];
        let expect = |diags: &mut Vec<Diagnostic>, g: Gpr, want: Color, role: &str| {
            if let Some(&have) = colors.get(&g) {
                if have != want {
                    diags.push(
                        Diagnostic::error(
                            LINT_COLOR_MIX,
                            format!(
                                "`{i}` uses {} {g} as its {role}, which must be {}",
                                color_name(have),
                                color_name(want)
                            ),
                        )
                        .at(program, a)
                        .note(format!(
                            "principle P2: {} computations may depend only on {} values",
                            color_name(want),
                            color_name(want)
                        )),
                    );
                }
            }
        };
        match i {
            Instr::Op { rd, rs, src2, .. } => {
                let want = match src2 {
                    OpSrc::Imm(v) => Some(v.color),
                    OpSrc::Reg(rt) => colors.get(&rt).copied(),
                };
                if let Some(w) = want {
                    expect(diags, rs, w, "left operand");
                }
                let out = want;
                match out {
                    Some(c) => {
                        colors.insert(rd, c);
                    }
                    None => {
                        colors.remove(&rd);
                    }
                }
            }
            Instr::Mov { rd, v } => {
                colors.insert(rd, v.color);
            }
            Instr::Ld { color, rd, rs } => {
                expect(diags, rs, color, "address");
                colors.insert(rd, color);
            }
            Instr::St { color, rd, rs } => {
                expect(diags, rd, color, "address");
                expect(diags, rs, color, "value");
            }
            Instr::Bz { color, rz, rd } => {
                expect(diags, rz, color, "zero test");
                expect(diags, rd, color, "target");
            }
            Instr::Jmp { color, rd } => {
                expect(diags, rd, color, "target");
            }
            Instr::Halt => {}
        }
    }
}

/// TF002 — provably-empty pops and contradicted queue depths.
fn lint_queue_imbalance(program: &Program, cfg: &Cfg, diags: &mut Vec<Diagnostic>) {
    for &a in &cfg.empty_pops {
        let i = program.instrs[ix(a)];
        diags.push(
            Diagnostic::error(
                LINT_QUEUE_IMBALANCE,
                format!("`{i}` commits from a provably empty store queue"),
            )
            .at(program, a)
            .note("every stB must be preceded by a matching stG on all paths"),
        );
    }
    for c in &cfg.depth_conflicts {
        let what = if cfg.annotated[ix(c.addr)] {
            "the block's queue annotation"
        } else {
            "another path"
        };
        diags.push(
            Diagnostic::error(
                LINT_QUEUE_IMBALANCE,
                format!(
                    "store-queue depth {} flows into this point, but {what} establishes depth {}",
                    c.found, c.expected
                ),
            )
            .at(program, c.addr)
            .note("store pairs must balance on every path into a join"),
        );
    }
}

/// The `d`-latch abstract state for TF003.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DState {
    /// `d` is provably 0 (boot, post-commit, post-untaken).
    Zero,
    /// `d` provably holds a latched target.
    Latched,
    /// Anything.
    Unknown,
}

impl DState {
    fn join(self, o: DState) -> DState {
        if self == o {
            self
        } else {
            DState::Unknown
        }
    }
}

/// TF003 — a `jmpB` reached only with `d = 0` faults unconditionally.
fn lint_no_latch(program: &Program, cfg: &Cfg, diags: &mut Vec<Diagnostic>) {
    let n = cfg.n;
    let mut state: Vec<Option<DState>> = vec![None; n];
    let mut work = Vec::new();
    // Blocks other than the entry may be entered with a latch pending
    // (hand-written code may span); only the boot state is definite.
    for a in 1..=n as i64 {
        if cfg.annotated[ix(a)] && a != program.entry {
            state[ix(a)] = Some(DState::Unknown);
            work.push(a);
        }
    }
    if program.is_code_addr(program.entry) {
        state[ix(program.entry)] = Some(DState::Zero);
        work.push(program.entry);
    }
    while let Some(a) = work.pop() {
        let Some(din) = state[ix(a)] else { continue };
        let dout = match program.instrs[ix(a)] {
            Instr::Jmp {
                color: Color::Green,
                ..
            } => DState::Latched,
            // bzG latches when taken, stays zero when untaken.
            Instr::Bz {
                color: Color::Green,
                ..
            } => DState::Latched.join(din),
            // A committed transfer (or a passing untaken bzB) resets d.
            Instr::Jmp {
                color: Color::Blue, ..
            }
            | Instr::Bz {
                color: Color::Blue, ..
            } => DState::Zero,
            _ => din,
        };
        for &s in &cfg.succs[ix(a)] {
            let merged = match state[ix(s)] {
                None => dout,
                Some(cur) => cur.join(dout),
            };
            if state[ix(s)] != Some(merged) {
                state[ix(s)] = Some(merged);
                work.push(s);
            }
        }
    }
    for a in 1..=n as i64 {
        if let Instr::Jmp {
            color: Color::Blue, ..
        } = program.instrs[ix(a)]
        {
            if state[ix(a)] == Some(DState::Zero) {
                let i = program.instrs[ix(a)];
                diags.push(
                    Diagnostic::error(
                        LINT_NO_LATCH,
                        format!("`{i}` commits a transfer, but d is provably 0 here"),
                    )
                    .at(program, a)
                    .note("a jmpB must be preceded by a jmpG latching the same target"),
                );
            }
        }
    }
}

/// TF004 — definitions nobody reads (dead duplication halves).
fn lint_dead_dup(program: &Program, cfg: &Cfg, diags: &mut Vec<Diagnostic>) {
    let Some(live) = liveness(program, cfg) else {
        return;
    };
    for a in 1..=cfg.n as i64 {
        if !cfg.reachable[ix(a)] {
            continue;
        }
        let i = program.instrs[ix(a)];
        if let Some(rd) = i.def() {
            if !live.live_out[ix(a)].test(rd.0) {
                diags.push(
                    Diagnostic::warning(
                        LINT_DEAD_DUP,
                        format!("`{i}` defines {rd}, which is never read"),
                    )
                    .at(program, a)
                    .note(
                        "a dead half of a duplicated computation protects nothing; \
                         the paired color may be running unchecked",
                    ),
                );
            }
        }
    }
}

/// TF005 — control runs past the code end, or a blue transfer targets a
/// non-code / unannotated address.
fn lint_layout(program: &Program, cfg: &Cfg, diags: &mut Vec<Diagnostic>) {
    for &a in &cfg.falls_off_end {
        let i = program.instrs[ix(a)];
        diags.push(
            Diagnostic::error(
                LINT_LAYOUT,
                format!("control falls through `{i}` past the end of the code region"),
            )
            .at(program, a)
            .note("every path must end in halt or a committed blue transfer"),
        );
    }
    for &(a, t) in &cfg.bad_targets {
        let i = program.instrs[ix(a)];
        diags.push(
            Diagnostic::error(
                LINT_LAYOUT,
                format!("`{i}` transfers to {t}, which is outside the code region"),
            )
            .at(program, a),
        );
    }
    for a in 1..=cfg.n as i64 {
        if let Some(t) = cfg.blue_target[ix(a)] {
            if program.is_code_addr(t) && program.precond(t).is_none() {
                let i = program.instrs[ix(a)];
                diags.push(
                    Diagnostic::error(
                        LINT_LAYOUT,
                        format!("`{i}` transfers to {t}, which has no code-type annotation"),
                    )
                    .at(program, a)
                    .note("blue transfer targets must be annotated block entries"),
                );
            }
        }
    }
}

/// TF006 — blue transfers whose target constant propagation cannot see.
fn lint_unresolved(program: &Program, cfg: &Cfg, diags: &mut Vec<Diagnostic>) {
    for a in 1..=cfg.n as i64 {
        if cfg.unknown_target[ix(a)] {
            let i = program.instrs[ix(a)];
            diags.push(
                Diagnostic::warning(
                    LINT_UNRESOLVED_TARGET,
                    format!("cannot statically resolve the target of `{i}`"),
                )
                .at(program, a)
                .note("the zap analyzer treats surviving taint here as vulnerable"),
            );
        }
    }
}

/// TF007 — solver-backed: every queue annotation names an (address, value)
/// pair a later `stB` will commit to memory, so the address should be
/// provably inside some declared region *under the block's own facts*.
/// Compiled code never trips this (queues are empty at labels); it guards
/// hand-written `.talft` whose annotations out-run their hypotheses. A
/// warning, not an error: the committing block may re-establish bounds the
/// annotation site cannot see.
fn lint_queue_bounds(program: &Program, arena: &mut ExprArena, diags: &mut Vec<Diagnostic>) {
    for (&addr, pre) in &program.preconds {
        if pre.queue.is_empty() {
            continue;
        }
        let mut facts = Facts::new();
        for f in &pre.facts {
            talft_core::ctx::assume_fact(arena, &mut facts, *f);
        }
        for (i, &(d, _v)) in pre.queue.iter().enumerate() {
            let in_bounds = program
                .regions
                .iter()
                .any(|r| facts.prove_in_range(arena, d, r.base, r.base + r.len));
            if in_bounds {
                continue;
            }
            let mut diag = Diagnostic::warning(
                LINT_QUEUE_BOUNDS,
                format!(
                    "queue entry {i}: address `{}` is not provably inside any declared region",
                    arena.display(d)
                ),
            )
            .at(program, addr);
            // Witness the failure against the first declared region: name
            // the bound obligation the solver could not discharge.
            if let Some(r) = program.regions.first() {
                let base = arena.int(r.base);
                let lo = arena.sub(d, base);
                let w = if !facts.prove_ge0(arena, lo) {
                    facts.explain_ge0(arena, lo)
                } else {
                    let last = arena.int(r.base + r.len - 1);
                    let hi = arena.sub(last, d);
                    facts.explain_ge0(arena, hi)
                };
                diag = diag.note(format!("for region `{}`: {}", r.name, w.note()));
            } else {
                diag = diag.note("the program declares no data regions");
            }
            diags.push(diag);
        }
    }
}

/// Count of error-severity diagnostics (the ones that reject a program).
#[must_use]
pub fn error_count(diags: &[Diagnostic]) -> usize {
    diags
        .iter()
        .filter(|d| d.severity == talft_core::Severity::Error)
        .count()
}
