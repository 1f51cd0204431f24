//! Static expressions `E` and kinds `κ` (paper Figure 5, §3.1).
//!
//! Expressions are hash-consed into an [`ExprArena`]: structurally equal
//! expressions share an [`ExprId`], so syntactic equality is an integer
//! comparison and normal forms can be cached per node.
//!
//! The grammar follows the paper:
//!
//! ```text
//! kinds κ ::= κint | κmem
//! exps  E ::= x | n | E op E | sel Em En | emp | upd Em En1 En2
//! ```
//!
//! with the conservative extension that `op` ranges over the full machine
//! ALU-op set (the paper's `add|sub|mul` plus `slt` and bitwise ops; see
//! DESIGN.md §"Faithfulness notes").

use std::collections::HashMap;
use std::fmt;

/// Kind of a static expression: machine integer or memory (paper: `κint`, `κmem`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `κint` — classifies integer-valued expressions.
    Int,
    /// `κmem` — classifies memory-valued expressions.
    Mem,
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kind::Int => write!(f, "int"),
            Kind::Mem => write!(f, "mem"),
        }
    }
}

/// Binary operators usable inside static expressions.
///
/// `Add`/`Sub`/`Mul` are the paper's ALU ops and are interpreted by the
/// polynomial normalizer. The remaining operators are conservative ISA
/// extensions; the normalizer treats them as interpreted-but-opaque function
/// symbols (constant-folded when both operands are constants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed set-less-than: `1` if lhs < rhs else `0`.
    Slt,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (by rhs mod 64).
    Shl,
    /// Logical (unsigned) shift right (by rhs mod 64).
    Shr,
}

impl BinOp {
    /// Evaluate the operator on two machine words (wrapping semantics).
    #[must_use]
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Slt => i64::from(a < b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => ((a as u64) << (b as u64 & 63)) as i64,
            BinOp::Shr => ((a as u64) >> (b as u64 & 63)) as i64,
        }
    }

    /// Mnemonic used by the assembler and `Display`.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Slt => "slt",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        }
    }

    /// Parse a mnemonic back into an operator.
    #[must_use]
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "slt" => BinOp::Slt,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "shr" => BinOp::Shr,
            _ => return None,
        })
    }

    /// All operators, in a fixed order (useful for exhaustive tests).
    pub const ALL: [BinOp; 9] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Slt,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
    ];
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Interned expression-variable identifier (`x` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Interned expression identifier. Equal ids ⇔ structurally equal expressions
/// (within one [`ExprArena`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// One node of the static-expression syntax tree (paper Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExprNode {
    /// Expression variable `x`.
    Var(VarId),
    /// Integer literal `n`.
    Int(i64),
    /// `E1 op E2`.
    Bin(BinOp, ExprId, ExprId),
    /// `sel Em En` — the integer at address `En` in memory `Em`.
    Sel(ExprId, ExprId),
    /// `emp` — the empty memory.
    Emp,
    /// `upd Em En1 En2` — `Em` with address `En1` mapped to `En2`.
    Upd(ExprId, ExprId, ExprId),
}

/// Hash-consing arena for static expressions and variable names.
///
/// All expression construction, inspection, and normalization is relative to
/// an arena. Mixing [`ExprId`]s across arenas is a logic error (unchecked).
#[derive(Debug, Default)]
pub struct ExprArena {
    nodes: Vec<ExprNode>,
    dedup: HashMap<ExprNode, ExprId>,
    var_names: Vec<String>,
    var_dedup: HashMap<String, VarId>,
}

impl ExprArena {
    /// Create an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a variable name, returning a stable [`VarId`].
    pub fn var_id(&mut self, name: &str) -> VarId {
        if let Some(&v) = self.var_dedup.get(name) {
            return v;
        }
        let v = VarId(u32::try_from(self.var_names.len()).expect("too many variables"));
        self.var_names.push(name.to_owned());
        self.var_dedup.insert(name.to_owned(), v);
        v
    }

    /// Name of an interned variable.
    #[must_use]
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.0 as usize]
    }

    /// Generate a fresh variable guaranteed not to collide with existing names.
    pub fn fresh_var(&mut self, hint: &str) -> VarId {
        let mut i = self.var_names.len();
        loop {
            let name = format!("{hint}${i}");
            if !self.var_dedup.contains_key(&name) {
                return self.var_id(&name);
            }
            i += 1;
        }
    }

    /// Intern a node, returning its id.
    pub fn intern(&mut self, node: ExprNode) -> ExprId {
        if let Some(&id) = self.dedup.get(&node) {
            return id;
        }
        let id = ExprId(u32::try_from(self.nodes.len()).expect("too many expressions"));
        self.nodes.push(node);
        self.dedup.insert(node, id);
        id
    }

    /// Look up the node for an id.
    #[must_use]
    pub fn node(&self, id: ExprId) -> ExprNode {
        self.nodes[id.0 as usize]
    }

    /// Number of interned nodes (for diagnostics).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena holds no expressions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Maximum syntax-tree depth over every interned expression (leaves have
    /// depth 1; an empty arena has depth 0). A single forward pass suffices
    /// because [`ExprArena::intern`] appends children before parents.
    #[must_use]
    pub fn max_depth(&self) -> u32 {
        let mut depth = vec![0u32; self.nodes.len()];
        let mut max = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            let d = match *node {
                ExprNode::Var(_) | ExprNode::Int(_) | ExprNode::Emp => 1,
                ExprNode::Bin(_, a, b) | ExprNode::Sel(a, b) => {
                    1 + depth[a.0 as usize].max(depth[b.0 as usize])
                }
                ExprNode::Upd(m, a, v) => {
                    1 + depth[m.0 as usize]
                        .max(depth[a.0 as usize])
                        .max(depth[v.0 as usize])
                }
            };
            depth[i] = d;
            max = max.max(d);
        }
        max
    }

    // ---- convenience constructors ----------------------------------------

    /// `x` by name.
    pub fn var(&mut self, name: &str) -> ExprId {
        let v = self.var_id(name);
        self.intern(ExprNode::Var(v))
    }

    /// `x` by id.
    pub fn var_expr(&mut self, v: VarId) -> ExprId {
        self.intern(ExprNode::Var(v))
    }

    /// Integer literal.
    pub fn int(&mut self, n: i64) -> ExprId {
        self.intern(ExprNode::Int(n))
    }

    /// `a op b`.
    pub fn bin(&mut self, op: BinOp, a: ExprId, b: ExprId) -> ExprId {
        self.intern(ExprNode::Bin(op, a, b))
    }

    /// `a + b`.
    pub fn add(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.bin(BinOp::Add, a, b)
    }

    /// `a - b`.
    pub fn sub(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.bin(BinOp::Sub, a, b)
    }

    /// `a * b`.
    pub fn mul(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.bin(BinOp::Mul, a, b)
    }

    /// `sel m a`.
    pub fn sel(&mut self, m: ExprId, a: ExprId) -> ExprId {
        self.intern(ExprNode::Sel(m, a))
    }

    /// `emp`.
    pub fn emp(&mut self) -> ExprId {
        self.intern(ExprNode::Emp)
    }

    /// `upd m a v`.
    pub fn upd(&mut self, m: ExprId, a: ExprId, v: ExprId) -> ExprId {
        self.intern(ExprNode::Upd(m, a, v))
    }

    // ---- structural queries ----------------------------------------------

    /// Infer the kind of an expression under a kind context, or report the
    /// offending subterm. Implements the judgment `Δ ⊢ E : κ`.
    pub fn kind_of(&self, ctx: &KindCtx, e: ExprId) -> Result<Kind, KindError> {
        match self.node(e) {
            ExprNode::Var(v) => ctx.get(v).ok_or(KindError::UnboundVar(v)),
            ExprNode::Int(_) => Ok(Kind::Int),
            ExprNode::Bin(_, a, b) => {
                self.expect_kind(ctx, a, Kind::Int)?;
                self.expect_kind(ctx, b, Kind::Int)?;
                Ok(Kind::Int)
            }
            ExprNode::Sel(m, a) => {
                self.expect_kind(ctx, m, Kind::Mem)?;
                self.expect_kind(ctx, a, Kind::Int)?;
                Ok(Kind::Int)
            }
            ExprNode::Emp => Ok(Kind::Mem),
            ExprNode::Upd(m, a, v) => {
                self.expect_kind(ctx, m, Kind::Mem)?;
                self.expect_kind(ctx, a, Kind::Int)?;
                self.expect_kind(ctx, v, Kind::Int)?;
                Ok(Kind::Mem)
            }
        }
    }

    fn expect_kind(&self, ctx: &KindCtx, e: ExprId, want: Kind) -> Result<(), KindError> {
        let got = self.kind_of(ctx, e)?;
        if got == want {
            Ok(())
        } else {
            Err(KindError::Mismatch { expr: e, want, got })
        }
    }

    /// Collect the free variables of `e` into `out` (deduplicated).
    pub fn free_vars_into(&self, e: ExprId, out: &mut Vec<VarId>) {
        match self.node(e) {
            ExprNode::Var(v) => {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
            ExprNode::Int(_) | ExprNode::Emp => {}
            ExprNode::Bin(_, a, b) | ExprNode::Sel(a, b) => {
                self.free_vars_into(a, out);
                self.free_vars_into(b, out);
            }
            ExprNode::Upd(m, a, v) => {
                self.free_vars_into(m, out);
                self.free_vars_into(a, out);
                self.free_vars_into(v, out);
            }
        }
    }

    /// Free variables of `e`.
    #[must_use]
    pub fn free_vars(&self, e: ExprId) -> Vec<VarId> {
        let mut out = Vec::new();
        self.free_vars_into(e, &mut out);
        out
    }

    /// Whether `e` is closed (no free variables).
    #[must_use]
    pub fn is_closed(&self, e: ExprId) -> bool {
        match self.node(e) {
            ExprNode::Var(_) => false,
            ExprNode::Int(_) | ExprNode::Emp => true,
            ExprNode::Bin(_, a, b) | ExprNode::Sel(a, b) => self.is_closed(a) && self.is_closed(b),
            ExprNode::Upd(m, a, v) => self.is_closed(m) && self.is_closed(a) && self.is_closed(v),
        }
    }

    /// Pretty-print an expression.
    #[must_use]
    pub fn display(&self, e: ExprId) -> String {
        let mut s = String::new();
        self.write_expr(&mut s, e)
            .expect("string write cannot fail");
        s
    }

    fn write_expr(&self, f: &mut String, e: ExprId) -> fmt::Result {
        use fmt::Write;
        match self.node(e) {
            ExprNode::Var(v) => write!(f, "{}", self.var_name(v)),
            ExprNode::Int(n) => write!(f, "{n}"),
            ExprNode::Bin(op, a, b) => {
                write!(f, "({op} ")?;
                self.write_expr(f, a)?;
                write!(f, " ")?;
                self.write_expr(f, b)?;
                write!(f, ")")
            }
            ExprNode::Sel(m, a) => {
                write!(f, "(sel ")?;
                self.write_expr(f, m)?;
                write!(f, " ")?;
                self.write_expr(f, a)?;
                write!(f, ")")
            }
            ExprNode::Emp => write!(f, "emp"),
            ExprNode::Upd(m, a, v) => {
                write!(f, "(upd ")?;
                self.write_expr(f, m)?;
                write!(f, " ")?;
                self.write_expr(f, a)?;
                write!(f, " ")?;
                self.write_expr(f, v)?;
                write!(f, ")")
            }
        }
    }
}

/// Kind context `Δ` (the kinding part; facts live in [`crate::Facts`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KindCtx {
    binds: Vec<(VarId, Kind)>,
}

impl KindCtx {
    /// Empty context.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `v : k`, shadowing any previous binding.
    pub fn bind(&mut self, v: VarId, k: Kind) {
        self.binds.retain(|(w, _)| *w != v);
        self.binds.push((v, k));
    }

    /// Look up a variable's kind.
    #[must_use]
    pub fn get(&self, v: VarId) -> Option<Kind> {
        self.binds
            .iter()
            .rev()
            .find(|(w, _)| *w == v)
            .map(|&(_, k)| k)
    }

    /// Whether the context binds `v`.
    #[must_use]
    pub fn contains(&self, v: VarId) -> bool {
        self.get(v).is_some()
    }

    /// Iterate over bindings in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Kind)> + '_ {
        self.binds.iter().copied()
    }

    /// Number of bindings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.binds.len()
    }

    /// Whether the context is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.binds.is_empty()
    }
}

/// Error from kind inference (`Δ ⊢ E : κ`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KindError {
    /// A variable was not bound in `Δ`.
    UnboundVar(VarId),
    /// A subterm had the wrong kind.
    Mismatch {
        /// The offending subterm.
        expr: ExprId,
        /// Expected kind.
        want: Kind,
        /// Actual kind.
        got: Kind,
    },
}

impl fmt::Display for KindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KindError::UnboundVar(v) => write!(f, "unbound expression variable #{}", v.0),
            KindError::Mismatch { want, got, .. } => {
                write!(f, "kind mismatch: expected {want}, found {got}")
            }
        }
    }
}

impl std::error::Error for KindError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut a = ExprArena::new();
        let x1 = a.var("x");
        let x2 = a.var("x");
        assert_eq!(x1, x2);
        let e1 = a.add(x1, x2);
        let e2 = a.add(x1, x2);
        assert_eq!(e1, e2);
        let e3 = a.sub(x1, x2);
        assert_ne!(e1, e3);
    }

    #[test]
    fn kind_inference_int_and_mem() {
        let mut a = ExprArena::new();
        let mut ctx = KindCtx::new();
        let x = a.var_id("x");
        let m = a.var_id("m");
        ctx.bind(x, Kind::Int);
        ctx.bind(m, Kind::Mem);
        let xe = a.var_expr(x);
        let me = a.var_expr(m);
        let five = a.int(5);
        let sum = a.add(xe, five);
        assert_eq!(a.kind_of(&ctx, sum), Ok(Kind::Int));
        let sel = a.sel(me, sum);
        assert_eq!(a.kind_of(&ctx, sel), Ok(Kind::Int));
        let upd = a.upd(me, five, sel);
        assert_eq!(a.kind_of(&ctx, upd), Ok(Kind::Mem));
    }

    #[test]
    fn kind_inference_rejects_misuse() {
        let mut a = ExprArena::new();
        let mut ctx = KindCtx::new();
        let m = a.var_id("m");
        ctx.bind(m, Kind::Mem);
        let me = a.var_expr(m);
        let five = a.int(5);
        // `m + 5` is ill-kinded.
        let bad = a.add(me, five);
        assert!(matches!(
            a.kind_of(&ctx, bad),
            Err(KindError::Mismatch {
                want: Kind::Int,
                got: Kind::Mem,
                ..
            })
        ));
        // unbound variable
        let y = a.var("y");
        assert!(matches!(a.kind_of(&ctx, y), Err(KindError::UnboundVar(_))));
    }

    #[test]
    fn free_vars_and_closedness() {
        let mut a = ExprArena::new();
        let x = a.var("x");
        let m = a.var("m");
        let five = a.int(5);
        let e = a.sel(m, x);
        let e2 = a.add(e, five);
        let fv = a.free_vars(e2);
        assert_eq!(fv.len(), 2);
        assert!(!a.is_closed(e2));
        let emp = a.emp();
        let c = a.upd(emp, five, five);
        assert!(a.is_closed(c));
    }

    #[test]
    fn binop_eval_wrapping_and_slt() {
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), i64::MIN);
        assert_eq!(BinOp::Mul.eval(1 << 62, 4), 0);
        assert_eq!(BinOp::Slt.eval(-1, 0), 1);
        assert_eq!(BinOp::Slt.eval(0, 0), 0);
        assert_eq!(BinOp::Shl.eval(1, 65), 2); // shift amount mod 64
        assert_eq!(BinOp::Shr.eval(-1, 63), 1);
    }

    #[test]
    fn mnemonic_round_trip() {
        for op in BinOp::ALL {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(BinOp::from_mnemonic("bogus"), None);
    }

    #[test]
    fn display_is_readable() {
        let mut a = ExprArena::new();
        let x = a.var("x");
        let one = a.int(1);
        let e = a.add(x, one);
        assert_eq!(a.display(e), "(add x 1)");
        let m = a.emp();
        let u = a.upd(m, one, x);
        let s = a.sel(u, one);
        assert_eq!(a.display(s), "(sel (upd emp 1 x) 1)");
    }

    #[test]
    fn max_depth_forward_pass() {
        let mut a = ExprArena::new();
        assert_eq!(a.max_depth(), 0);
        let x = a.var("x");
        assert_eq!(a.max_depth(), 1);
        let one = a.int(1);
        let e = a.add(x, one); // depth 2
        let _ = a.mul(e, e); // depth 3
        assert_eq!(a.max_depth(), 3);
        let emp = a.emp();
        let _ = a.upd(emp, x, e); // 1 + max(1, 1, 2) = 3
        assert_eq!(a.max_depth(), 3);
    }

    #[test]
    fn fresh_var_does_not_collide() {
        let mut a = ExprArena::new();
        let x = a.var_id("t$0");
        let f = a.fresh_var("t");
        assert_ne!(x, f);
        assert_ne!(a.var_name(f), "t$0");
    }
}
