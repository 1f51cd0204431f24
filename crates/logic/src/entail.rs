//! Fact sets and entailment: the judgments `Δ ⊢ E1 = E2`, `Δ ⊢ E1 ≠ E2`
//! (paper Appendix A.2) plus the linear-inequality facts our checker carries
//! in `Δ` (DESIGN.md, "Facts in Δ").
//!
//! A [`Facts`] value represents the hypotheses accumulated along a control
//! path: solved equalities (applied as a substitution during normalization),
//! unsolved equalities, disequalities, and linear inequalities (`p ≥ 0`).
//! Branch facts over `slt` results are *interpreted*: assuming
//! `slt(a,b) ≠ 0` records `slt(a,b) = 1` **and** `b - a ≥ 1`, and assuming
//! `slt(a,b) = 0` records `a - b ≥ 0`.
//!
//! Inequality entailment uses Fourier–Motzkin elimination over the monomials
//! of the involved polynomials (nonlinear monomials are treated as opaque
//! variables). FM refutation over ℚ is sound for ℤ. **Caveat**: inequality
//! facts are interpreted over ideal integers while the machine wraps at 64
//! bits; programs whose arithmetic stays within range (all of ours) are
//! unaffected, and the fault-injection campaigns dynamically validate every
//! checked program.

use std::collections::BTreeMap;

use talft_obs::LazyCounter;

use crate::expr::{BinOp, ExprArena, ExprId, ExprNode};
use crate::interval::{self, IntervalEnv};
use crate::norm::{norm_int, Monomial, Poly};

/// Solver-query metrics (DESIGN.md §Observability). Zero-cost while
/// `talft_obs` is disabled; `perfreport` and `talftc --profile` read them.
static Q_EQ: LazyCounter = LazyCounter::new("logic.query.eq");
static Q_NEQ: LazyCounter = LazyCounter::new("logic.query.neq");
static Q_GE: LazyCounter = LazyCounter::new("logic.query.ge");
static FM_RUNS: LazyCounter = LazyCounter::new("logic.fm.runs");
static FM_GIVEUPS: LazyCounter = LazyCounter::new("logic.fm.giveups");

/// Caps keeping Fourier–Motzkin elimination cheap; exceeding them makes the
/// prover give up (sound: "unknown" is treated as "not proved").
const FM_MAX_CONSTRAINTS: usize = 512;
const FM_MAX_VARS: usize = 24;

/// Borrowed views of the hypothesis vectors in `(solved, eqs, neqs, ges)`
/// order — see [`Facts::hyp_views`].
pub(crate) type HypViews<'a> = (&'a [(ExprId, Poly)], &'a [Poly], &'a [Poly], &'a [Poly]);

/// A set of path hypotheses: equalities, disequalities, and `≥ 0` facts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Facts {
    /// `atom = poly`, applied as a substitution by the normalizer.
    solved: Vec<(ExprId, Poly)>,
    /// `poly = 0`, not solvable for a single atom.
    eqs: Vec<Poly>,
    /// `poly ≠ 0`.
    neqs: Vec<Poly>,
    /// `poly ≥ 0`.
    ges: Vec<Poly>,
}

impl Facts {
    /// An empty hypothesis set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve an atom through the solved-equality substitution.
    /// Called by the normalizer for every atom it mints.
    #[must_use]
    pub fn resolve_atom(&self, atom: ExprId) -> Poly {
        for (a, p) in &self.solved {
            if *a == atom {
                return p.clone();
            }
        }
        Poly::atom(atom)
    }

    /// Number of stored hypotheses (diagnostics).
    #[must_use]
    pub fn len(&self) -> usize {
        self.solved.len() + self.eqs.len() + self.neqs.len() + self.ges.len()
    }

    /// Whether no hypotheses are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read-only views of the hypothesis vectors, in `(solved, eqs, neqs,
    /// ges)` order — the witness builders read them.
    pub(crate) fn hyp_views(&self) -> HypViews<'_> {
        (&self.solved, &self.eqs, &self.neqs, &self.ges)
    }

    // ---- assuming ---------------------------------------------------------

    /// Assume `e1 = e2`.
    pub fn assume_eq(&mut self, arena: &mut ExprArena, e1: ExprId, e2: ExprId) {
        let p1 = norm_int(arena, self, e1);
        let p2 = norm_int(arena, self, e2);
        self.assume_poly_eq_zero(arena, p1.sub(&p2));
    }

    /// Assume `e = 0` (e.g. a taken `bz` branch).
    pub fn assume_eq_zero(&mut self, arena: &mut ExprArena, e: ExprId) {
        let p = norm_int(arena, self, e);
        if let Some((a, b)) = self.slt_atom_operands(arena, &p) {
            // slt(a,b) = 0  ⇒  a ≥ b
            let ge = Poly::from_parts(a).sub(&Poly::from_parts(b));
            self.ges.push(ge);
        }
        self.assume_poly_eq_zero(arena, p);
    }

    /// Assume `e ≠ 0` (e.g. a fall-through `bz` branch).
    pub fn assume_neq_zero(&mut self, arena: &mut ExprArena, e: ExprId) {
        let p = norm_int(arena, self, e);
        if let Some((a, b)) = self.slt_atom_operands(arena, &p) {
            // slt(a,b) ≠ 0  ⇒  slt(a,b) = 1  and  b - a ≥ 1
            let one = Poly::constant(1);
            let gt = Poly::from_parts(b).sub(&Poly::from_parts(a)).sub(&one);
            self.ges.push(gt);
            self.assume_poly_eq_zero(arena, p.sub(&one));
            return;
        }
        if !p.is_zero() {
            self.neqs.push(p);
        }
    }

    /// Assume `e ≥ 0`.
    pub fn assume_ge0(&mut self, arena: &mut ExprArena, e: ExprId) {
        let p = norm_int(arena, self, e);
        self.assume_poly_ge0(p);
    }

    /// Assume a normalized polynomial is ≥ 0.
    pub fn assume_poly_ge0(&mut self, p: Poly) {
        if p.as_constant().is_none_or(|c| c < 0) {
            self.ges.push(p);
        }
    }

    /// Assume `lo ≤ e` and `e < hi` (used for region bounds).
    pub fn assume_in_range(&mut self, arena: &mut ExprArena, e: ExprId, lo: i64, hi: i64) {
        let lo_e = arena.int(lo);
        let ge = arena.sub(e, lo_e);
        self.assume_ge0(arena, ge);
        let hi_e = arena.int(hi.wrapping_sub(1));
        let le = arena.sub(hi_e, e);
        self.assume_ge0(arena, le);
    }

    /// Assume a normalized polynomial equals zero, solving for an atom when
    /// possible so later normalization benefits.
    pub fn assume_poly_eq_zero(&mut self, _arena: &mut ExprArena, p: Poly) {
        if p.is_zero() {
            return;
        }
        if let Some((atom, rhs)) = solve_for_atom(&p) {
            // Substitute into every stored hypothesis so the solved set stays
            // idempotent.
            for (_, q) in &mut self.solved {
                *q = q.subst_atom(atom, &rhs);
            }
            for q in self
                .eqs
                .iter_mut()
                .chain(self.neqs.iter_mut())
                .chain(self.ges.iter_mut())
            {
                *q = q.subst_atom(atom, &rhs);
            }
            self.solved.push((atom, rhs));
        } else {
            self.eqs.push(p);
        }
    }

    // ---- proving ----------------------------------------------------------

    /// Prove `e1 = e2` (the judgment `Δ ⊢ E1 = E2`, sound/incomplete).
    pub fn prove_eq(&self, arena: &mut ExprArena, e1: ExprId, e2: ExprId) -> bool {
        Q_EQ.inc();
        if e1 == e2 {
            return true;
        }
        if let Some(v) = self.interval_eq(arena, e1, e2) {
            return v;
        }
        let p1 = norm_int(arena, self, e1);
        let p2 = norm_int(arena, self, e2);
        self.poly_provably_zero(&p1.sub(&p2))
    }

    /// Prove a normalized polynomial equals zero under the hypotheses.
    #[must_use]
    pub fn poly_provably_zero(&self, d: &Poly) -> bool {
        if d.is_zero() {
            return true;
        }
        if self.eqs.iter().any(|q| *q == *d || q.neg() == *d) {
            return true;
        }
        // d ≥ 0 and -d ≥ 0
        self.fm_proves_ge0(None, d) && self.fm_proves_ge0(None, &d.neg())
    }

    /// Prove `e1 ≠ e2`.
    pub fn prove_neq(&self, arena: &mut ExprArena, e1: ExprId, e2: ExprId) -> bool {
        Q_NEQ.inc();
        if let Some(v) = self.interval_neq(arena, e1, Some(e2)) {
            return v;
        }
        let p1 = norm_int(arena, self, e1);
        let p2 = norm_int(arena, self, e2);
        self.poly_nonzero_with(arena, &p1.sub(&p2))
    }

    /// Prove `e ≠ 0`.
    pub fn prove_neq_zero(&self, arena: &mut ExprArena, e: ExprId) -> bool {
        Q_NEQ.inc();
        if let Some(v) = self.interval_neq(arena, e, None) {
            return v;
        }
        let p = norm_int(arena, self, e);
        self.poly_nonzero_with(arena, &p)
    }

    /// Prove `e = 0`.
    pub fn prove_eq_zero(&self, arena: &mut ExprArena, e: ExprId) -> bool {
        Q_EQ.inc();
        let zero = arena.int(0);
        if let Some(v) = self.interval_eq(arena, e, zero) {
            return v;
        }
        let p = norm_int(arena, self, e);
        self.poly_provably_zero(&p)
    }

    /// Prove `e ≥ 0`.
    pub fn prove_ge0(&self, arena: &mut ExprArena, e: ExprId) -> bool {
        Q_GE.inc();
        if let Some(v) = self.interval_ge0(arena, e) {
            return v;
        }
        let p = norm_int(arena, self, e);
        if let Some(c) = p.as_constant() {
            return c >= 0;
        }
        self.fm_proves_ge0(Some(arena), &p)
    }

    /// Prove `lo ≤ e < hi`.
    pub fn prove_in_range(&self, arena: &mut ExprArena, e: ExprId, lo: i64, hi: i64) -> bool {
        let lo_e = arena.int(lo);
        let ge = arena.sub(e, lo_e);
        if !self.prove_ge0(arena, ge) {
            return false;
        }
        let hi_e = arena.int(hi.wrapping_sub(1));
        let le = arena.sub(hi_e, e);
        self.prove_ge0(arena, le)
    }

    /// Prove a normalized polynomial is non-zero under the hypotheses.
    /// This drives the array-aliasing decisions in the normalizer.
    #[must_use]
    pub fn poly_provably_nonzero(&self, d: &Poly) -> bool {
        self.poly_nonzero_inner(None, d)
    }

    /// Like [`Facts::poly_provably_nonzero`] but with arena access, enabling
    /// the implicit atom bounds (`0 ≤ slt(·,·) ≤ 1`, `0 ≤ x & m ≤ m`).
    #[must_use]
    pub fn poly_nonzero_with(&self, arena: &ExprArena, d: &Poly) -> bool {
        self.poly_nonzero_inner(Some(arena), d)
    }

    fn poly_nonzero_inner(&self, arena: Option<&ExprArena>, d: &Poly) -> bool {
        if let Some(c) = d.as_constant() {
            return c != 0;
        }
        if self.neqs.iter().any(|q| *q == *d || q.neg() == *d) {
            return true;
        }
        // d ≥ 1  or  d ≤ -1
        let one = Poly::constant(1);
        self.fm_proves_ge0(arena, &d.sub(&one)) || self.fm_proves_ge0(arena, &d.neg().sub(&one))
    }

    // ---- interval pre-solver (tier 1, DESIGN.md §13) ----------------------

    /// Build the per-atom interval environment for the tree walk: constant
    /// solved equalities become rigid points, non-constant ones force ⊤,
    /// and unit-coefficient single-atom `≥ 0` facts become bounds. Only
    /// unit coefficients are absorbed — rounding `c·a + k ≥ 0` for |c| > 1
    /// is ℤ-sound but not ℚ-FM-derivable and would break transparency.
    pub(crate) fn interval_env(&self) -> IntervalEnv {
        let mut env = IntervalEnv::default();
        for (atom, p) in &self.solved {
            match p.as_constant() {
                Some(c) => env.set_rigid(*atom, c),
                None => env.set_opaque(*atom),
            }
        }
        for g in &self.ges {
            let mut atom: Option<(ExprId, i64)> = None;
            let mut k = 0i64;
            let mut usable = true;
            for (m, c) in g.terms() {
                if m.is_empty() {
                    k = c;
                } else if m.len() == 1 && atom.is_none() && (c == 1 || c == -1) {
                    atom = Some((m[0], c));
                } else {
                    usable = false;
                    break;
                }
            }
            let Some((a, c)) = atom else { continue };
            if !usable {
                continue;
            }
            if c == 1 {
                // a + k ≥ 0  ⟹  a ≥ -k
                if let Some(lo) = k.checked_neg() {
                    env.tighten(a, Some(lo), None);
                }
            } else {
                // -a + k ≥ 0  ⟹  a ≤ k
                env.tighten(a, None, Some(k));
            }
        }
        env
    }

    /// Tier-1 answer for `e ≥ 0`: decisive for rigid constants (mirroring
    /// the fallback's own constant fold), otherwise TRUE-only from a
    /// non-negative lower bound. `None` falls through to normalization+FM.
    fn interval_ge0(&self, arena: &ExprArena, e: ExprId) -> Option<bool> {
        if !interval::entail_interval_enabled() {
            return None;
        }
        let env = self.interval_env();
        let mut narrowed = false;
        let verdict = (|| {
            let iv = interval::eval_tree(arena, &env, true, e)?;
            if iv.rigid {
                return Some(iv.as_point().expect("rigid interval is a point") >= 0);
            }
            if iv.lo.is_some_and(|l| l >= 0) {
                return Some(true);
            }
            narrowed = iv.is_narrowed();
            None
        })();
        interval::note_consult(verdict.is_some(), narrowed);
        verdict
    }

    /// Tier-1 answer for `e1 = e2`. TRUE when both sides evaluate to the
    /// same point (the FM path proves it from the same unit facts); FALSE
    /// only for distinct rigid constants under an empty `ges`/`eqs` set,
    /// where the fallback's constant arithmetic is the whole procedure.
    /// Shape bounds are excluded: the equality path runs FM without arena
    /// access (see [`Facts::poly_provably_zero`]).
    fn interval_eq(&self, arena: &ExprArena, e1: ExprId, e2: ExprId) -> Option<bool> {
        if !interval::entail_interval_enabled() {
            return None;
        }
        let env = self.interval_env();
        let mut narrowed = false;
        let verdict = (|| {
            let a = interval::eval_tree(arena, &env, false, e1)?;
            let b = interval::eval_tree(arena, &env, false, e2)?;
            if let (Some(x), Some(y)) = (a.as_point(), b.as_point()) {
                if x == y {
                    return Some(true);
                }
                if a.rigid && b.rigid && self.ges.is_empty() && self.eqs.is_empty() {
                    return Some(false);
                }
            }
            narrowed = a.is_narrowed() || b.is_narrowed();
            None
        })();
        interval::note_consult(verdict.is_some(), narrowed);
        verdict
    }

    /// Tier-1 answer for `e1 ≠ e2` / `e ≠ 0` given both side intervals:
    /// TRUE on disjointness (an integer gap is ≥ 1, so FM proves
    /// `d - 1 ≥ 0` or `-d - 1 ≥ 0` from the same facts), FALSE only for
    /// equal rigid constants (the fallback's constant check).
    fn interval_neq(&self, arena: &ExprArena, e1: ExprId, e2: Option<ExprId>) -> Option<bool> {
        if !interval::entail_interval_enabled() {
            return None;
        }
        let env = self.interval_env();
        let mut narrowed = false;
        let verdict = (|| {
            let a = interval::eval_tree(arena, &env, true, e1)?;
            let b = match e2 {
                Some(e2) => interval::eval_tree(arena, &env, true, e2)?,
                None => crate::interval::Itv::rigid_point(0),
            };
            let disjoint = matches!((a.hi, b.lo), (Some(h), Some(l)) if h < l)
                || matches!((b.hi, a.lo), (Some(h), Some(l)) if h < l);
            if disjoint {
                return Some(true);
            }
            if a.rigid && b.rigid && a.as_point() == b.as_point() {
                return Some(false);
            }
            narrowed = a.is_narrowed() || b.is_narrowed();
            None
        })();
        interval::note_consult(verdict.is_some(), narrowed);
        verdict
    }

    // ---- internals --------------------------------------------------------

    /// If `p` is a bare `slt` atom, return its operands as polynomial parts.
    fn slt_atom_operands(&self, arena: &ExprArena, p: &Poly) -> Option<(PolyParts, PolyParts)> {
        let atom = p.as_single_atom()?;
        match arena.node(atom) {
            ExprNode::Bin(BinOp::Slt, a, b) => Some((
                PolyParts::from_expr(arena, self, a),
                PolyParts::from_expr(arena, self, b),
            )),
            _ => None,
        }
    }

    /// Fourier–Motzkin refutation: do the hypotheses entail `q ≥ 0`?
    ///
    /// With arena access, atoms of known shape contribute implicit bounds:
    /// `slt` results lie in `[0,1]` and `x & m` (constant `m ≥ 0`) lies in
    /// `[0,m]` — the masked-index discipline the compiler relies on for
    /// array-bounds obligations (DESIGN.md).
    fn fm_proves_ge0(&self, arena: Option<&ExprArena>, q: &Poly) -> bool {
        let mut cons: Vec<LinCon> = Vec::new();
        for g in &self.ges {
            cons.push(LinCon::from_poly(g));
        }
        for e in &self.eqs {
            cons.push(LinCon::from_poly(e));
            cons.push(LinCon::from_poly(&e.neg()));
        }
        // ¬(q ≥ 0) over ℤ:  -q - 1 ≥ 0
        let negq_idx = cons.len();
        let negq = q.neg().sub(&Poly::constant(1));
        cons.push(LinCon::from_poly(&negq));
        if let Some(arena) = arena {
            add_implicit_bounds(arena, &mut cons);
        }
        if cons.len() <= 1 && q.as_constant().is_none() {
            return false; // nothing to refute with
        }
        // Box front (DESIGN.md §13, behind the interval switch): an exact
        // rational box over the single-monomial constraints often decides
        // the refutation without running elimination at all.
        if interval::entail_interval_enabled() {
            let (verdict, narrowed) = box_front(&cons, negq_idx, q);
            interval::note_consult(verdict.is_some(), narrowed);
            if let Some(v) = verdict {
                return v;
            }
        }
        fm_refute(cons)
    }
}

/// An exact rational `n/d` with `d > 0`, kept reduced; the box front's
/// bound arithmetic (overflow declines the query, never loosens it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rat {
    n: i128,
    d: i128,
}

impl Rat {
    fn new(n: i128, d: i128) -> Rat {
        debug_assert!(d > 0);
        let g = gcd(n.unsigned_abs(), d.unsigned_abs()).max(1) as i128;
        Rat { n: n / g, d: d / g }
    }

    /// `self < other`; `None` on overflow.
    fn lt(&self, other: &Rat) -> Option<bool> {
        Some(self.n.checked_mul(other.d)? < other.n.checked_mul(self.d)?)
    }

    /// `self + c·other`; `None` on overflow.
    fn add_scaled(&self, c: i128, other: &Rat) -> Option<Rat> {
        let n = self
            .n
            .checked_mul(other.d)?
            .checked_add(c.checked_mul(other.n)?.checked_mul(self.d)?)?;
        Some(Rat::new(n, self.d.checked_mul(other.d)?))
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Decide `fm_refute(cons)` from the rational box spanned by the
/// single-monomial hypothesis constraints, without running elimination.
/// Returns `(verdict, narrowed)`; `verdict = None` falls through to FM.
///
/// * **TRUE** when some constraint is already a constant contradiction
///   (mirroring `fm_refute`'s first check), or when `min(q)` over the box
///   exceeds `-1`: no ℚ point satisfies `-q - 1 ≥ 0`, and the box is built
///   from a subset of FM's constraints, so complete ℚ-elimination with the
///   superset also refutes.
/// * **FALSE** only when the box is *exact* — every hypothesis constraint
///   has at most one monomial — nonempty, and `min(q) ≤ -1` (or `-∞`):
///   the constraint set is then genuinely satisfiable over ℚ, and a sound
///   refuter can never answer true on a satisfiable set, caps or no caps.
/// * Declines when the distinct-monomial count exceeds `FM_MAX_VARS`
///   (where FM itself would give up), when the box is empty (FM reports
///   the ex-falso contradiction itself), or on any `i128` overflow.
fn box_front(cons: &[LinCon], negq_idx: usize, q: &Poly) -> (Option<bool>, bool) {
    if cons.iter().any(LinCon::is_contradiction) {
        return (Some(true), false);
    }
    let mut vars: Vec<&Monomial> = Vec::new();
    for c in cons {
        for m in c.coeffs.keys() {
            if !vars.contains(&m) {
                vars.push(m);
            }
        }
    }
    if vars.len() > FM_MAX_VARS {
        return (None, false); // mirror fm_refute's give-up exactly
    }
    let mut lowers: BTreeMap<&Monomial, Rat> = BTreeMap::new();
    let mut uppers: BTreeMap<&Monomial, Rat> = BTreeMap::new();
    let mut exact = true;
    for (i, c) in cons.iter().enumerate() {
        if i == negq_idx {
            continue;
        }
        if c.coeffs.len() > 1 {
            exact = false;
            continue;
        }
        let Some((m, &coeff)) = c.coeffs.iter().next() else {
            continue; // trivial constant constraint (contradictions handled above)
        };
        // coeff·m + k ≥ 0
        let (bound, target) = if coeff > 0 {
            (Rat::new(-c.k, coeff), &mut lowers) // m ≥ -k/coeff
        } else {
            (Rat::new(c.k, -coeff), &mut uppers) // m ≤ k/(-coeff)
        };
        match target.get(m).copied() {
            Some(prev) => {
                let tighter = if coeff > 0 {
                    prev.lt(&bound)
                } else {
                    bound.lt(&prev)
                };
                match tighter {
                    Some(true) => {
                        target.insert(m, bound);
                    }
                    Some(false) => {}
                    None => return (None, true), // overflow: decline
                }
            }
            None => {
                target.insert(m, bound);
            }
        }
    }
    let narrowed = !lowers.is_empty() || !uppers.is_empty();
    // An empty box means inconsistent hypotheses; decline and let FM derive
    // the ex-falso refutation itself (its caps stay authoritative).
    for (m, lo) in &lowers {
        if let Some(hi) = uppers.get(*m) {
            match hi.lt(lo) {
                Some(true) | None => return (None, narrowed),
                Some(false) => {}
            }
        }
    }
    // min(q) over the box: lower bounds serve positive coefficients, upper
    // bounds negative ones. A missing bound makes the minimum -∞ (distinct
    // from arithmetic overflow, which declines outright).
    let mut min = Rat::new(0, 1);
    let mut unbounded = false;
    for (m, c) in q.terms() {
        let bound = if m.is_empty() {
            Some(&Rat { n: 1, d: 1 })
        } else if c > 0 {
            lowers.get(m)
        } else {
            uppers.get(m)
        };
        match bound {
            Some(b) => match min.add_scaled(i128::from(c), b) {
                Some(s) => min = s,
                None => return (None, narrowed), // overflow: decline
            },
            None => {
                unbounded = true;
                break;
            }
        }
    }
    if unbounded {
        // Unbounded below: with an exact box that direction is genuinely
        // feasible, so the refutation fails; otherwise unknown.
        return (if exact { Some(false) } else { None }, narrowed);
    }
    // min(q) > -1 ⟺ n/d > -1 ⟺ n > -d (d > 0): the negated query is
    // infeasible over ℚ.
    if min.n > -min.d {
        (Some(true), narrowed)
    } else if exact {
        (Some(false), narrowed)
    } else {
        (None, narrowed)
    }
}

/// Add `0 ≤ atom ≤ hi` constraints for atoms whose shape bounds them.
fn add_implicit_bounds(arena: &ExprArena, cons: &mut Vec<LinCon>) {
    let mut atoms: Vec<Monomial> = Vec::new();
    for c in cons.iter() {
        for m in c.coeffs.keys() {
            if m.len() == 1 && !atoms.contains(m) {
                atoms.push(m.clone());
            }
        }
    }
    for m in atoms {
        let atom = m[0];
        let hi: Option<i128> = match arena.node(atom) {
            ExprNode::Bin(BinOp::Slt, _, _) => Some(1),
            ExprNode::Bin(BinOp::And, a, b) => {
                let mask = |e: ExprId| match arena.node(e) {
                    ExprNode::Int(n) if n >= 0 => Some(i128::from(n)),
                    _ => None,
                };
                match (mask(a), mask(b)) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (Some(x), None) | (None, Some(x)) => Some(x),
                    (None, None) => None,
                }
            }
            _ => None,
        };
        if let Some(hi) = hi {
            // atom ≥ 0
            let mut lo_coeffs = BTreeMap::new();
            lo_coeffs.insert(m.clone(), 1i128);
            cons.push(LinCon {
                coeffs: lo_coeffs,
                k: 0,
            });
            // hi - atom ≥ 0
            let mut hi_coeffs = BTreeMap::new();
            hi_coeffs.insert(m.clone(), -1i128);
            cons.push(LinCon {
                coeffs: hi_coeffs,
                k: hi,
            });
        }
    }
}

/// A reified polynomial remembered alongside its parts (tiny helper for the
/// `slt` interpretation, which needs `b - a` of the *operand* expressions).
struct PolyParts(Poly);

impl PolyParts {
    fn from_expr(arena: &ExprArena, facts: &Facts, e: ExprId) -> Self {
        // Operands of a canonical slt atom are already reified canonical
        // expressions, so re-normalizing them needs no arena mutation; we
        // rebuild the poly by interpreting the canonical structure.
        PolyParts(repoly(arena, facts, e))
    }
}

impl Poly {
    fn from_parts(p: PolyParts) -> Poly {
        p.0
    }
}

/// Re-derive the polynomial of an already-canonical expression without
/// minting new nodes (used where only `&ExprArena` is available).
fn repoly(arena: &ExprArena, facts: &Facts, e: ExprId) -> Poly {
    match arena.node(e) {
        ExprNode::Int(n) => Poly::constant(n),
        ExprNode::Var(_) | ExprNode::Sel(..) => facts.resolve_atom(e),
        ExprNode::Bin(op, a, b) => {
            let pa = repoly(arena, facts, a);
            let pb = repoly(arena, facts, b);
            match op {
                BinOp::Add => pa.add(&pb),
                BinOp::Sub => pa.sub(&pb),
                BinOp::Mul => pa.mul(&pb),
                _ => facts.resolve_atom(e),
            }
        }
        ExprNode::Emp | ExprNode::Upd(..) => facts.resolve_atom(e),
    }
}

/// Try to solve `p = 0` for a single atom occurring linearly with coefficient
/// ±1 and not occurring elsewhere in `p`. Returns `(atom, rhs)` meaning
/// `atom = rhs`.
fn solve_for_atom(p: &Poly) -> Option<(ExprId, Poly)> {
    for (m, c) in p.terms() {
        if m.len() == 1 && (c == 1 || c == -1) {
            let atom = m[0];
            // rest = p - c·atom; ensure atom absent from rest.
            let mut single = Poly::atom(atom);
            if c == -1 {
                single = single.neg();
            }
            let rest = p.sub(&single);
            if rest.mentions_atom(atom) {
                continue;
            }
            let rhs = if c == 1 { rest.neg() } else { rest };
            return Some((atom, rhs));
        }
    }
    None
}

/// A linear constraint `Σ coeff·var + k ≥ 0` with monomials as variables.
#[derive(Debug, Clone)]
struct LinCon {
    coeffs: BTreeMap<Monomial, i128>,
    k: i128,
}

impl LinCon {
    fn from_poly(p: &Poly) -> Self {
        let mut coeffs = BTreeMap::new();
        let mut k: i128 = 0;
        for (m, c) in p.terms() {
            if m.is_empty() {
                k = i128::from(c);
            } else {
                coeffs.insert(m.clone(), i128::from(c));
            }
        }
        LinCon { coeffs, k }
    }

    fn is_contradiction(&self) -> bool {
        self.coeffs.is_empty() && self.k < 0
    }

    fn is_trivial(&self) -> bool {
        self.coeffs.is_empty() && self.k >= 0
    }
}

/// Fourier–Motzkin refutation: true iff the constraint set is unsatisfiable
/// over ℚ (hence over ℤ).
fn fm_refute(mut cons: Vec<LinCon>) -> bool {
    FM_RUNS.inc();
    cons.retain(|c| !c.is_trivial());
    if cons.iter().any(LinCon::is_contradiction) {
        return true;
    }
    let mut vars: Vec<Monomial> = Vec::new();
    for c in &cons {
        for m in c.coeffs.keys() {
            if !vars.contains(m) {
                vars.push(m.clone());
            }
        }
    }
    if vars.len() > FM_MAX_VARS {
        FM_GIVEUPS.inc();
        return false;
    }
    for _ in 0..vars.len() {
        if cons.is_empty() {
            return false;
        }
        // Pick the variable minimizing |pos|·|neg| fan-out.
        let var = {
            let mut best: Option<(usize, Monomial)> = None;
            let mut live: Vec<Monomial> = Vec::new();
            for c in &cons {
                for m in c.coeffs.keys() {
                    if !live.contains(m) {
                        live.push(m.clone());
                    }
                }
            }
            if live.is_empty() {
                return cons.iter().any(LinCon::is_contradiction);
            }
            for m in live {
                let pos = cons
                    .iter()
                    .filter(|c| c.coeffs.get(&m).copied().unwrap_or(0) > 0)
                    .count();
                let neg = cons
                    .iter()
                    .filter(|c| c.coeffs.get(&m).copied().unwrap_or(0) < 0)
                    .count();
                let cost = pos * neg;
                if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                    best = Some((cost, m));
                }
            }
            best.expect("live vars nonempty").1
        };
        let (mut lowers, mut uppers, mut rest) = (Vec::new(), Vec::new(), Vec::new());
        for c in cons {
            match c.coeffs.get(&var).copied().unwrap_or(0) {
                a if a > 0 => lowers.push(c),
                a if a < 0 => uppers.push(c),
                _ => rest.push(c),
            }
        }
        for l in &lowers {
            let a = *l.coeffs.get(&var).expect("lower mentions var");
            for u in &uppers {
                let b = -*u.coeffs.get(&var).expect("upper mentions var");
                debug_assert!(a > 0 && b > 0);
                if let Some(c) = combine(l, u, b, a, &var) {
                    if c.is_contradiction() {
                        return true;
                    }
                    if !c.is_trivial() {
                        rest.push(c);
                    }
                }
                if rest.len() > FM_MAX_CONSTRAINTS {
                    FM_GIVEUPS.inc();
                    return false;
                }
            }
        }
        cons = rest;
        if cons.iter().any(LinCon::is_contradiction) {
            return true;
        }
    }
    cons.iter().any(LinCon::is_contradiction)
}

/// `wl·l + wu·u`, dropping the eliminated variable. `None` on overflow
/// (sound: we merely lose a derived constraint).
fn combine(l: &LinCon, u: &LinCon, wl: i128, wu: i128, var: &Monomial) -> Option<LinCon> {
    let mut coeffs: BTreeMap<Monomial, i128> = BTreeMap::new();
    for (m, _) in l.coeffs.iter().chain(u.coeffs.iter()) {
        if m == var {
            continue;
        }
        *coeffs.entry(m.clone()).or_insert(0) = 0; // placeholder; fill below
    }
    for m in coeffs.keys().cloned().collect::<Vec<_>>() {
        let cl = l.coeffs.get(&m).copied().unwrap_or(0);
        let cu = u.coeffs.get(&m).copied().unwrap_or(0);
        let v = wl.checked_mul(cl)?.checked_add(wu.checked_mul(cu)?)?;
        if v == 0 {
            coeffs.remove(&m);
        } else {
            coeffs.insert(m, v);
        }
    }
    let k = wl.checked_mul(l.k)?.checked_add(wu.checked_mul(u.k)?)?;
    Some(LinCon { coeffs, k })
}

/// Serialize tests that toggle the process-global interval switch, set it
/// to `interval`, and restore the previous setting on drop.
#[cfg(test)]
pub(crate) fn solver_knob_guard(interval: bool) -> impl Drop {
    use std::sync::{Mutex, MutexGuard, OnceLock};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    struct Guard {
        prev: bool,
        _lock: MutexGuard<'static, ()>,
    }
    impl Drop for Guard {
        fn drop(&mut self) {
            interval::set_entail_interval(self.prev);
        }
    }
    let lock = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let guard = Guard {
        prev: interval::entail_interval_enabled(),
        _lock: lock,
    };
    interval::set_entail_interval(interval);
    guard
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ExprArena, Facts) {
        (ExprArena::new(), Facts::new())
    }

    #[test]
    fn reflexivity_and_ring_equalities() {
        let (mut a, f) = setup();
        let x = a.var("x");
        let y = a.var("y");
        let l = a.add(x, y);
        let r = a.add(y, x);
        assert!(f.prove_eq(&mut a, l, r));
        let two = a.int(2);
        let xx = a.mul(two, x);
        let x_plus_x = a.add(x, x);
        assert!(f.prove_eq(&mut a, xx, x_plus_x));
        assert!(!f.prove_eq(&mut a, x, y));
    }

    #[test]
    fn constant_disequality() {
        let (mut a, f) = setup();
        let x = a.var("x");
        let one = a.int(1);
        let x1 = a.add(x, one);
        assert!(f.prove_neq(&mut a, x, x1));
        let y = a.var("y");
        assert!(!f.prove_neq(&mut a, x, y));
    }

    #[test]
    fn solved_equalities_rewrite() {
        let (mut a, mut f) = setup();
        let x = a.var("x");
        let y = a.var("y");
        f.assume_eq(&mut a, x, y); // x = y
        let two = a.int(2);
        let l = a.mul(two, x);
        let r = a.add(y, y);
        assert!(f.prove_eq(&mut a, l, r));
    }

    #[test]
    fn eq_zero_from_branch() {
        let (mut a, mut f) = setup();
        let x = a.var("x");
        f.assume_eq_zero(&mut a, x);
        let zero = a.int(0);
        assert!(f.prove_eq(&mut a, x, zero));
        let y = a.var("y");
        let sum = a.add(x, y);
        assert!(f.prove_eq(&mut a, sum, y));
    }

    #[test]
    fn neq_zero_fact_is_usable() {
        let (mut a, mut f) = setup();
        let x = a.var("x");
        assert!(!f.prove_neq_zero(&mut a, x));
        f.assume_neq_zero(&mut a, x);
        assert!(f.prove_neq_zero(&mut a, x));
    }

    #[test]
    fn slt_interpretation_gives_strict_bound() {
        let (mut a, mut f) = setup();
        let i = a.var("i");
        let n = a.var("n");
        let cond = a.bin(BinOp::Slt, i, n);
        f.assume_neq_zero(&mut a, cond); // i < n
                                         // ⊢ n - i ≥ 1, hence n - i ≠ 0
        assert!(f.prove_neq(&mut a, i, n));
        let diff = a.sub(n, i);
        let one = a.int(1);
        let dm1 = a.sub(diff, one);
        assert!(f.prove_ge0(&mut a, dm1));
        // and slt(i,n) itself is now known to be 1
        assert!(f.prove_eq(&mut a, cond, one));
    }

    #[test]
    fn slt_zero_interpretation() {
        let (mut a, mut f) = setup();
        let i = a.var("i");
        let n = a.var("n");
        let cond = a.bin(BinOp::Slt, i, n);
        f.assume_eq_zero(&mut a, cond); // ¬(i < n) ⇒ i ≥ n
        let diff = a.sub(i, n);
        assert!(f.prove_ge0(&mut a, diff));
    }

    #[test]
    fn fm_transitivity() {
        let (mut a, mut f) = setup();
        let x = a.var("x");
        let y = a.var("y");
        let z = a.var("z");
        let xy = a.sub(y, x);
        let yz = a.sub(z, y);
        f.assume_ge0(&mut a, xy); // x ≤ y
        f.assume_ge0(&mut a, yz); // y ≤ z
        let xz = a.sub(z, x);
        assert!(f.prove_ge0(&mut a, xz)); // x ≤ z
        let zx = a.sub(x, z);
        assert!(!f.prove_ge0(&mut a, zx));
    }

    #[test]
    fn range_facts_support_bounds_proofs() {
        let (mut a, mut f) = setup();
        let i = a.var("i");
        f.assume_in_range(&mut a, i, 0, 100);
        assert!(f.prove_in_range(&mut a, i, 0, 100));
        assert!(f.prove_in_range(&mut a, i, -5, 200));
        assert!(!f.prove_in_range(&mut a, i, 1, 100));
        // base + i stays within the shifted region
        let base = a.int(1000);
        let addr = a.add(base, i);
        assert!(f.prove_in_range(&mut a, addr, 1000, 1100));
        assert!(!f.prove_in_range(&mut a, addr, 1000, 1099));
    }

    #[test]
    fn nonzero_via_inequalities() {
        let (mut a, mut f) = setup();
        let x = a.var("x");
        let one = a.int(1);
        let xm1 = a.sub(x, one);
        f.assume_ge0(&mut a, xm1); // x ≥ 1
        assert!(f.prove_neq_zero(&mut a, x));
    }

    #[test]
    fn facts_sharpen_array_aliasing() {
        use crate::norm::norm_int;
        let (mut a, mut f) = setup();
        let m = a.var("m");
        let i = a.var("i");
        let j = a.var("j");
        let v = a.var("v");
        let u = a.upd(m, i, v);
        let s = a.sel(u, j);
        // Without facts: residual.
        let p_before = norm_int(&mut a, &f, s);
        assert!(p_before.as_single_atom().is_some());
        // With i = j: hit.
        f.assume_eq(&mut a, i, j);
        let p_eq = norm_int(&mut a, &f, s);
        let pv = norm_int(&mut a, &f, v);
        assert_eq!(p_eq, pv);
        // With i ≠ j instead: miss through to base.
        let (mut a2, mut f2) = setup();
        let m = a2.var("m");
        let i = a2.var("i");
        let j = a2.var("j");
        let v = a2.var("v");
        let u = a2.upd(m, i, v);
        let s = a2.sel(u, j);
        let diff = a2.sub(i, j);
        f2.assume_neq_zero(&mut a2, diff);
        let p_neq = norm_int(&mut a2, &f2, s);
        let base_sel = a2.sel(m, j);
        let p_base = norm_int(&mut a2, &f2, base_sel);
        assert_eq!(p_neq, p_base);
    }

    #[test]
    fn contradictory_facts_prove_anything_soundly_flagged() {
        // With x ≥ 1 and -x ≥ 0 the hypotheses are inconsistent; FM finds the
        // refutation, so every ≥ query succeeds. This mirrors ex falso — fine
        // for a checker (the path is unreachable).
        let (mut a, mut f) = setup();
        let x = a.var("x");
        let one = a.int(1);
        let xm1 = a.sub(x, one);
        f.assume_ge0(&mut a, xm1);
        let zero = a.int(0);
        let negx = a.sub(zero, x);
        f.assume_ge0(&mut a, negx);
        let y = a.var("y");
        assert!(f.prove_ge0(&mut a, y));
    }

    #[test]
    fn prove_eq_via_inequality_squeeze() {
        let (mut a, mut f) = setup();
        let x = a.var("x");
        let y = a.var("y");
        let d1 = a.sub(y, x);
        let d2 = a.sub(x, y);
        f.assume_ge0(&mut a, d1);
        f.assume_ge0(&mut a, d2);
        assert!(f.prove_eq(&mut a, x, y));
    }
}

#[cfg(test)]
mod interval_tests {
    use super::*;

    /// Run a query battery with the interval layer on and off and demand
    /// identical verdicts.
    /// Every tier-1/tier-2 rule has at least one query that exercises it.
    fn assert_mode_identical(build: impl Fn(&mut ExprArena, &mut Facts) -> Vec<bool>) {
        let mut verdicts: Vec<Vec<bool>> = Vec::new();
        for on in [true, false] {
            let _g = solver_knob_guard(on);
            let mut arena = ExprArena::new();
            let mut facts = Facts::new();
            verdicts.push(build(&mut arena, &mut facts));
        }
        assert_eq!(verdicts[0], verdicts[1], "interval layer changed a verdict");
    }

    #[test]
    fn tier1_rules_are_verdict_identical() {
        assert_mode_identical(|a, f| {
            let mut v = Vec::new();
            let i = a.var("i");
            let n = a.var("n");
            let x = a.var("x");
            f.assume_in_range(a, i, 0, 8); // 0 ≤ i ≤ 7
            let cond = a.bin(BinOp::Slt, x, n);
            f.assume_neq_zero(a, cond); // slt(x,n) = 1, n - x ≥ 1
            let one = a.int(1);
            // Solved opaque atom with canonical (unsubstituted) operands:
            // the env lookup may answer directly.
            v.push(f.prove_eq(a, cond, one));
            let k3 = a.int(3);
            f.assume_eq(a, x, k3); // x solved to the constant 3
                                   // Now `cond`'s operand is substituted away, so the raw node is
                                   // no longer its own canonical atom — the lookup must be
                                   // skipped, or tier 1 would out-prove the fallback.
            v.push(f.prove_eq(a, cond, one));
            let ten = a.int(10);
            let neg1 = a.int(-1);
            let i_m10 = a.sub(i, ten);
            let i_p1 = a.add(i, one);
            v.push(f.prove_ge0(a, i)); // lower bound: true
            v.push(f.prove_ge0(a, i_m10)); // i - 10 with i ≤ 7: false
            v.push(f.prove_ge0(a, x)); // rigid constant 3: true
            v.push(f.prove_ge0(a, neg1)); // rigid constant: false
            v.push(f.prove_eq(a, x, k3)); // equal points: true
            v.push(f.prove_eq(a, k3, ten)); // distinct rigid consts: false
            v.push(f.prove_neq(a, i, neg1)); // disjoint [0,7] vs -1: true
            v.push(f.prove_neq(a, i, ten)); // disjoint [0,7] vs 10: true
            v.push(f.prove_neq(a, i, i_p1)); // overlapping: constant gap
            v.push(f.prove_neq_zero(a, x)); // rigid 3 vs 0: true
            v.push(f.prove_neq_zero(a, i)); // 0 ∈ [0,7]: unprovable
            v
        });
    }

    #[test]
    fn tier2_box_is_verdict_identical() {
        assert_mode_identical(|a, f| {
            let i = a.var("i");
            let j = a.var("j");
            let n = a.var("n");
            f.assume_in_range(a, i, 0, 100);
            f.assume_in_range(a, j, 5, 50);
            let sum = a.add(i, j);
            let k104 = a.int(104);
            let bound = a.sub(k104, sum); // 104 - (i + j) ≥ 0 needs i+j ≤ 104
            let tight = a.int(103);
            let bound_tight = a.sub(tight, sum);
            let ij = a.sub(j, i);
            let ni = a.sub(n, i); // n unbounded: exact box, unbounded below
            vec![
                f.prove_ge0(a, sum),         // min 5 > -1: true
                f.prove_ge0(a, bound),       // max i+j = 148 > 104: false
                f.prove_ge0(a, bound_tight), // false
                f.prove_ge0(a, ij),          // j - i ∈ [-94, 49]: false
                f.prove_ge0(a, ni),          // unbounded below: false
            ]
        });
    }

    #[test]
    fn multiplication_and_opaque_ops_stay_transparent() {
        assert_mode_identical(|a, f| {
            let x = a.var("x");
            let y = a.var("y");
            f.assume_in_range(a, x, 1, 3); // x ∈ [1, 2]
            f.assume_in_range(a, y, 1, 3);
            let xy = a.mul(x, y); // nonlinear: must stay ⊤ both modes
            let two = a.int(2);
            let tx = a.mul(two, x); // rigid scale: 2x ∈ [2, 4]
            let mask = a.int(7);
            let m = a.bin(BinOp::And, x, mask); // shape bound [0, 7]
            let tx_m2 = a.sub(tx, two);
            let m_m8 = {
                let eight = a.int(8);
                a.sub(m, eight)
            };
            vec![
                f.prove_ge0(a, xy),
                f.prove_ge0(a, tx),
                f.prove_ge0(a, tx_m2),
                f.prove_ge0(a, m),
                f.prove_ge0(a, m_m8), // m - 8 with m ≤ 7: false
                f.prove_neq_zero(a, x),
                f.prove_neq_zero(a, xy),
            ]
        });
    }

    #[test]
    fn inconsistent_facts_still_prove_everything() {
        // Ex falso must survive the interval layer (it declines rather than
        // answering from an empty environment).
        assert_mode_identical(|a, f| {
            let x = a.var("x");
            let y = a.var("y");
            let one = a.int(1);
            let xm1 = a.sub(x, one);
            f.assume_ge0(a, xm1); // x ≥ 1
            let zero = a.int(0);
            let negx = a.sub(zero, x);
            f.assume_ge0(a, negx); // x ≤ 0: contradiction
            vec![
                f.prove_ge0(a, y),
                f.prove_eq(a, x, y),
                f.prove_neq_zero(a, y),
            ]
        });
    }

    #[test]
    fn overflow_near_i64_limits_is_declined_not_wrong() {
        assert_mode_identical(|a, f| {
            let x = a.var("x");
            let big = a.int(i64::MAX - 1);
            let d = a.sub(x, big);
            f.assume_ge0(a, d); // x ≥ i64::MAX - 1
            let two = a.int(2);
            let xp2 = a.add(x, two);
            let sum_bound = a.sub(xp2, big);
            vec![f.prove_ge0(a, xp2), f.prove_ge0(a, sum_bound)]
        });
    }
}

#[cfg(test)]
mod implicit_bounds_tests {
    use super::*;

    #[test]
    fn masked_index_is_bounded() {
        let mut a = ExprArena::new();
        let f = Facts::new();
        let i = a.var("i");
        let mask = a.int(7);
        let masked = a.bin(BinOp::And, i, mask);
        // 0 ≤ i & 7 ≤ 7 with no explicit facts
        assert!(f.prove_ge0(&mut a, masked));
        let seven = a.int(7);
        let upper = a.sub(seven, masked);
        assert!(f.prove_ge0(&mut a, upper));
        assert!(f.prove_in_range(&mut a, masked, 0, 8));
        assert!(!f.prove_in_range(&mut a, masked, 0, 7));
        // base + (i & 7) lands in [base, base+8)
        let base = a.int(4096);
        let addr = a.add(base, masked);
        assert!(f.prove_in_range(&mut a, addr, 4096, 4104));
    }

    #[test]
    fn slt_atom_is_bounded() {
        let mut a = ExprArena::new();
        let f = Facts::new();
        let x = a.var("x");
        let y = a.var("y");
        let lt = a.bin(BinOp::Slt, x, y);
        assert!(f.prove_in_range(&mut a, lt, 0, 2));
    }
}
