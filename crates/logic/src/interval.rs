//! Interval pre-solver: a cheap abstract domain consulted *before*
//! polynomial normalization and Fourier–Motzkin (DESIGN.md §13).
//!
//! Each query first evaluates the raw expression tree over per-atom
//! intervals derived from the [`crate::Facts`] set (unit-coefficient
//! single-atom `≥ 0` facts and constant solved equalities). When the
//! abstract value already decides the query, normalization and FM are
//! skipped entirely; otherwise the solver falls through unchanged.
//!
//! # Verdict transparency
//!
//! The layer must never change a verdict, only short-circuit its
//! computation, so every answer is backed by a certificate the fallback
//! path would also find:
//!
//! * **TRUE answers** (`lo ≥ 0`, disjointness, point equality) follow from
//!   a non-negative linear combination of a *subset* of the constraints FM
//!   sees, so ℚ-complete FM refutation with the superset also proves them.
//!   Only unit-coefficient bounds are absorbed (a rounded `2a ≥ 1 ⇒ a ≥ 1`
//!   is ℤ-sound but not ℚ-derivable, and would out-prove FM).
//! * **FALSE answers** are confined to *rigid* constants — values the
//!   normalizer itself folds to the same constant — where the fallback's
//!   own constant check gives the identical verdict.
//! * Multiplication of two non-constant intervals yields ⊤, mirroring FM's
//!   treatment of nonlinear monomials as opaque variables; a constant
//!   operand must be **rigid** (syntactic or solved-substitution constant)
//!   before it scales the other side, because only then does the
//!   normalizer see a linear polynomial.
//! * Any `i64` overflow during evaluation declines the whole query: the
//!   machine wraps where the fact language is ideal, so an out-of-range
//!   intermediate invalidates the certificate.
//! * An inconsistent environment (some atom's `lo > hi`) declines rather
//!   than answering ex falso; FM finds the contradiction itself.
//!
//! The layer is always on in production. [`set_entail_interval`] turns it
//! off so differential tests (`tests/interval_prop.rs`) and `perfreport`
//! can run the Fourier–Motzkin reference path and prove the on/off verdict
//! identity.

use std::sync::atomic::{AtomicBool, Ordering};

use talft_obs::LazyCounter;

use crate::expr::{BinOp, ExprArena, ExprId, ExprNode};

/// Interval-layer metrics (DESIGN.md §Observability). The invariant
/// `hit + miss == queries` is validated by `perfreport --check`.
static IV_QUERIES: LazyCounter = LazyCounter::new("logic.interval.queries");
static IV_HIT: LazyCounter = LazyCounter::new("logic.interval.hit");
static IV_MISS: LazyCounter = LazyCounter::new("logic.interval.miss");
static IV_NARROWED: LazyCounter = LazyCounter::new("logic.interval.narrowed");

/// Runtime switch for the interval layer; on unless a test or `perfreport`
/// selects the reference path.
static INTERVAL_ON: AtomicBool = AtomicBool::new(true);

/// Whether the interval pre-solver is active.
pub(crate) fn entail_interval_enabled() -> bool {
    INTERVAL_ON.load(Ordering::Relaxed)
}

/// Turn the interval pre-solver on or off process-wide. The layer is
/// verdict-transparent — this switch exists to run the Fourier–Motzkin
/// reference path for differential tests and perf measurement, not for
/// correctness.
pub fn set_entail_interval(on: bool) {
    INTERVAL_ON.store(on, Ordering::Relaxed);
}

/// Record one interval-layer consultation. `narrowed` marks near-misses:
/// the abstract value gained at least one finite endpoint yet did not
/// decide the query.
pub(crate) fn note_consult(hit: bool, narrowed: bool) {
    IV_QUERIES.inc();
    if hit {
        IV_HIT.inc();
    } else {
        IV_MISS.inc();
        if narrowed {
            IV_NARROWED.inc();
        }
    }
}

/// A (possibly half-open) integer interval. `None` endpoints are unbounded.
/// `rigid` marks a point interval whose value the polynomial normalizer
/// would itself fold to the same constant (syntactic constants and
/// constant solved-substitutions) — the only intervals allowed to scale a
/// multiplication or constant-fold an opaque operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Itv {
    pub(crate) lo: Option<i64>,
    pub(crate) hi: Option<i64>,
    pub(crate) rigid: bool,
}

impl Itv {
    pub(crate) const TOP: Itv = Itv {
        lo: None,
        hi: None,
        rigid: false,
    };

    pub(crate) fn rigid_point(n: i64) -> Itv {
        Itv {
            lo: Some(n),
            hi: Some(n),
            rigid: true,
        }
    }

    fn bounds(lo: Option<i64>, hi: Option<i64>) -> Itv {
        Itv {
            lo,
            hi,
            rigid: false,
        }
    }

    /// The value as a point interval, rigid or not.
    pub(crate) fn as_point(&self) -> Option<i64> {
        match (self.lo, self.hi) {
            (Some(a), Some(b)) if a == b => Some(a),
            _ => None,
        }
    }

    /// `self + other`; `None` on overflow (the query must be declined, not
    /// loosened: an out-of-range intermediate may wrap on the machine).
    fn add(&self, other: &Itv) -> Option<Itv> {
        Some(Itv {
            lo: add_end(self.lo, other.lo)?,
            hi: add_end(self.hi, other.hi)?,
            rigid: self.rigid && other.rigid,
        })
    }

    /// `-self`; `None` on overflow.
    fn neg(&self) -> Option<Itv> {
        let flip = |e: Option<i64>| -> Option<Option<i64>> {
            match e {
                None => Some(None),
                Some(v) => v.checked_neg().map(Some),
            }
        };
        Some(Itv {
            lo: flip(self.hi)?,
            hi: flip(self.lo)?,
            rigid: self.rigid,
        })
    }

    fn sub(&self, other: &Itv) -> Option<Itv> {
        self.add(&other.neg()?)
    }

    /// Scale by a rigid constant; `None` on overflow.
    fn mul_const(&self, c: i64) -> Option<Itv> {
        if c == 0 {
            return Some(Itv::rigid_point(0));
        }
        let scale = |e: Option<i64>| -> Option<Option<i64>> {
            match e {
                None => Some(None),
                Some(v) => v.checked_mul(c).map(Some),
            }
        };
        let (lo, hi) = if c > 0 {
            (scale(self.lo)?, scale(self.hi)?)
        } else {
            (scale(self.hi)?, scale(self.lo)?)
        };
        Some(Itv {
            lo,
            hi,
            rigid: self.rigid,
        })
    }

    /// Intersect with `[lo, hi]`; `None` when the result is empty (the
    /// hypotheses contradict the shape bound — decline, never ex falso).
    fn meet(&self, lo: i64, hi: i64) -> Option<Itv> {
        let nlo = self.lo.map_or(lo, |v| v.max(lo));
        let nhi = self.hi.map_or(hi, |v| v.min(hi));
        if nlo > nhi {
            return None;
        }
        Some(Itv {
            lo: Some(nlo),
            hi: Some(nhi),
            rigid: self.rigid,
        })
    }

    /// Whether either endpoint is finite (the domain narrowed something).
    pub(crate) fn is_narrowed(&self) -> bool {
        self.lo.is_some() || self.hi.is_some()
    }
}

fn add_end(a: Option<i64>, b: Option<i64>) -> Option<Option<i64>> {
    match (a, b) {
        (Some(x), Some(y)) => x.checked_add(y).map(Some),
        _ => Some(None),
    }
}

/// Per-atom interval environment derived from a fact set.
///
/// Built by `Facts::interval_env`; holds constant solved-substitutions
/// (rigid points), atoms solved to non-constants (forced to ⊤ so the tree
/// walk cannot use stale bounds), and unit-coefficient `≥ 0` bounds.
#[derive(Debug, Default)]
pub(crate) struct IntervalEnv {
    /// Atoms solved to a constant: the normalizer substitutes the same value.
    rigid: Vec<(ExprId, i64)>,
    /// Atoms solved to a non-constant polynomial: must evaluate to ⊤.
    opaque: Vec<ExprId>,
    /// `atom ∈ [lo, hi]` from unit-coefficient single-atom `ges` facts.
    bounds: Vec<(ExprId, Option<i64>, Option<i64>)>,
    /// Some unit bound pair was contradictory (`lo > hi`): the whole
    /// environment declines (FM reports ex falso itself).
    pub(crate) inconsistent: bool,
}

impl IntervalEnv {
    /// Record `atom = c` from a constant solved equality.
    pub(crate) fn set_rigid(&mut self, atom: ExprId, c: i64) {
        self.rigid.push((atom, c));
    }

    /// Record that `atom` is substituted away by a non-constant equality.
    pub(crate) fn set_opaque(&mut self, atom: ExprId) {
        self.opaque.push(atom);
    }

    /// Tighten `atom ≥ lo` or `atom ≤ hi` from a unit-coefficient fact.
    pub(crate) fn tighten(&mut self, atom: ExprId, lo: Option<i64>, hi: Option<i64>) {
        for (a, l, h) in &mut self.bounds {
            if *a == atom {
                if let Some(lo) = lo {
                    *l = Some(l.map_or(lo, |v| v.max(lo)));
                }
                if let Some(hi) = hi {
                    *h = Some(h.map_or(hi, |v| v.min(hi)));
                }
                if let (Some(l), Some(h)) = (*l, *h) {
                    if l > h {
                        self.inconsistent = true;
                    }
                }
                return;
            }
        }
        self.bounds.push((atom, lo, hi));
    }

    fn lookup_atom(&self, atom: ExprId) -> Itv {
        for &(a, c) in &self.rigid {
            if a == atom {
                return Itv::rigid_point(c);
            }
        }
        if self.opaque.contains(&atom) {
            return Itv::TOP;
        }
        for &(a, lo, hi) in &self.bounds {
            if a == atom {
                return Itv::bounds(lo, hi);
            }
        }
        Itv::TOP
    }

    /// Whether the solved-substitution rewrites this atom away.
    fn is_substituted(&self, atom: ExprId) -> bool {
        self.rigid.iter().any(|&(a, _)| a == atom) || self.opaque.contains(&atom)
    }
}

/// Whether an opaque operator's operand survives normalization unchanged:
/// an integer literal or a variable the solved-substitution leaves alone.
/// Only then is the raw tree node its own canonical atom, making env
/// lookups on it transparent (facts were normalized at `assume` time, so
/// their atoms are always canonical ids).
fn operand_is_canonical(arena: &ExprArena, env: &IntervalEnv, e: ExprId) -> bool {
    match arena.node(e) {
        ExprNode::Int(_) => true,
        ExprNode::Var(_) => !env.is_substituted(e),
        _ => false,
    }
}

/// Evaluate an expression tree to an interval. `implicit` enables the
/// shape bounds (`slt ∈ [0,1]`, `x & m ∈ [0,m]`) and must match whether
/// the fallback FM path passes the arena (`prove_ge0`/`prove_neq` do;
/// the `prove_eq` path does not — see `Facts::poly_provably_zero`).
///
/// Returns `None` when the query must be declined (overflow or an
/// inconsistent meet).
pub(crate) fn eval_tree(
    arena: &ExprArena,
    env: &IntervalEnv,
    implicit: bool,
    e: ExprId,
) -> Option<Itv> {
    if env.inconsistent {
        return None;
    }
    match arena.node(e) {
        ExprNode::Int(n) => Some(Itv::rigid_point(n)),
        ExprNode::Var(_) => Some(env.lookup_atom(e)),
        ExprNode::Bin(op, a, b) => {
            let ia = eval_tree(arena, env, implicit, a)?;
            let ib = eval_tree(arena, env, implicit, b)?;
            match op {
                BinOp::Add => ia.add(&ib),
                BinOp::Sub => ia.sub(&ib),
                BinOp::Mul => {
                    // A rigid constant scales the other side (the
                    // normalizer sees the same linear polynomial); two
                    // non-rigid operands form a nonlinear monomial FM
                    // treats as opaque, so ⊤ is the transparent answer.
                    if ia.rigid {
                        ib.mul_const(ia.as_point().expect("rigid is a point"))
                    } else if ib.rigid {
                        ia.mul_const(ib.as_point().expect("rigid is a point"))
                    } else {
                        Some(Itv::TOP)
                    }
                }
                _ => {
                    // Opaque operator: fold only rigid constants (exactly
                    // when the normalizer folds). Otherwise the node is a
                    // residual atom: when it is provably its own canonical
                    // form, fact bounds on it apply directly; the shape
                    // bounds the FM path would add come on top.
                    if ia.rigid && ib.rigid {
                        let (ca, cb) = (ia.as_point().unwrap(), ib.as_point().unwrap());
                        return Some(Itv::rigid_point(op.eval(ca, cb)));
                    }
                    let base = if operand_is_canonical(arena, env, a)
                        && operand_is_canonical(arena, env, b)
                    {
                        env.lookup_atom(e)
                    } else {
                        Itv::TOP
                    };
                    if !implicit {
                        return Some(base);
                    }
                    match op {
                        BinOp::Slt => base.meet(0, 1),
                        BinOp::And => {
                            let mask = |e: ExprId| match arena.node(e) {
                                ExprNode::Int(n) if n >= 0 => Some(n),
                                _ => None,
                            };
                            match (mask(a), mask(b)) {
                                (Some(x), Some(y)) => base.meet(0, x.min(y)),
                                (Some(x), None) | (None, Some(x)) => base.meet(0, x),
                                (None, None) => Some(base),
                            }
                        }
                        _ => Some(base),
                    }
                }
            }
        }
        // `sel` may rewrite under read-over-write during normalization;
        // any bound the tree id happens to carry could be attached to a
        // different residual, so stay at ⊤.
        ExprNode::Sel(..) | ExprNode::Emp | ExprNode::Upd(..) => Some(Itv::TOP),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_overflow() {
        let p = Itv::rigid_point(3);
        let q = Itv::bounds(Some(0), Some(7));
        let s = p.add(&q).unwrap();
        assert_eq!((s.lo, s.hi, s.rigid), (Some(3), Some(10), false));
        let d = q.sub(&p).unwrap();
        assert_eq!((d.lo, d.hi), (Some(-3), Some(4)));
        let m = q.mul_const(-2).unwrap();
        assert_eq!((m.lo, m.hi), (Some(-14), Some(0)));
        // Overflow declines instead of loosening.
        let big = Itv::rigid_point(i64::MAX);
        assert!(big.add(&p).is_none());
        assert!(Itv::rigid_point(i64::MIN).neg().is_none());
    }

    #[test]
    fn meet_detects_empty() {
        let b = Itv::bounds(Some(5), None);
        assert!(b.meet(0, 1).is_none(), "x ≥ 5 ∧ x ∈ [0,1] is empty");
        let ok = b.meet(0, 9).unwrap();
        assert_eq!((ok.lo, ok.hi), (Some(5), Some(9)));
    }

    #[test]
    fn env_tighten_and_inconsistency() {
        let mut arena = ExprArena::new();
        let x = arena.var("x");
        let mut env = IntervalEnv::default();
        env.tighten(x, Some(2), None);
        env.tighten(x, None, Some(10));
        let itv = env.lookup_atom(x);
        assert_eq!((itv.lo, itv.hi), (Some(2), Some(10)));
        env.tighten(x, Some(11), None);
        assert!(env.inconsistent);
    }

    #[test]
    fn tree_eval_uses_bounds_and_shape() {
        let mut arena = ExprArena::new();
        let x = arena.var("x");
        let seven = arena.int(7);
        let masked = arena.bin(BinOp::And, x, seven);
        let base = arena.int(100);
        let addr = arena.add(base, masked);
        let env = IntervalEnv::default();
        let itv = eval_tree(&arena, &env, true, addr).unwrap();
        assert_eq!((itv.lo, itv.hi), (Some(100), Some(107)));
        // Without implicit bounds the masked atom is ⊤.
        let plain = eval_tree(&arena, &env, false, addr).unwrap();
        assert_eq!((plain.lo, plain.hi), (None, None));
    }

    #[test]
    fn nonlinear_product_is_top_but_rigid_scales() {
        let mut arena = ExprArena::new();
        let x = arena.var("x");
        let y = arena.var("y");
        let mut env = IntervalEnv::default();
        env.tighten(x, Some(1), Some(2));
        env.tighten(y, Some(1), Some(2));
        let xy = arena.mul(x, y);
        let itv = eval_tree(&arena, &env, true, xy).unwrap();
        assert_eq!((itv.lo, itv.hi), (None, None), "nonlinear must stay ⊤");
        let three = arena.int(3);
        let tx = arena.mul(three, x);
        let itv = eval_tree(&arena, &env, true, tx).unwrap();
        assert_eq!((itv.lo, itv.hi), (Some(3), Some(6)));
    }

    #[test]
    fn squeezed_point_is_not_rigid_so_opaque_ops_do_not_fold() {
        let mut arena = ExprArena::new();
        let x = arena.var("x");
        let five = arena.int(5);
        let mut env = IntervalEnv::default();
        env.tighten(x, Some(3), Some(3)); // point via ges squeeze, not solved
        let lt = arena.bin(BinOp::Slt, x, five);
        let itv = eval_tree(&arena, &env, true, lt).unwrap();
        // Folding slt(3,5)=1 here would out-prove FM (the opaque atom only
        // has its [0,1] shape bound); the walk must keep the shape bound.
        assert_eq!((itv.lo, itv.hi), (Some(0), Some(1)));
        assert!(!itv.rigid);
    }

    #[test]
    fn rigid_constants_fold_opaque_ops() {
        let mut arena = ExprArena::new();
        let x = arena.var("x");
        let five = arena.int(5);
        let mut env = IntervalEnv::default();
        env.set_rigid(x, 3); // constant solved equality: normalizer folds too
        let lt = arena.bin(BinOp::Slt, x, five);
        let itv = eval_tree(&arena, &env, true, lt).unwrap();
        assert_eq!(itv.as_point(), Some(1));
        assert!(itv.rigid);
    }
}
