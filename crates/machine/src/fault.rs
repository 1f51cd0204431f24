//! The fault model: Single Event Upset transitions (paper §2.1).
//!
//! Exactly three operational rules introduce faults, and they are the only
//! way state may be corrupted:
//!
//! * `reg-zap` — replace any register's payload (color tag preserved);
//! * `Q-zap1` — corrupt the *address* of any store-queue entry;
//! * `Q-zap2` — corrupt the *value* of any store-queue entry.
//!
//! [`FaultSite`] names a location, [`inject`] performs the `─→1` transition,
//! and [`sites`] enumerates every site of a given machine state — the fan-out
//! used by exhaustive campaigns.

use talft_isa::Reg;

use crate::state::Machine;

/// A place a single-event upset can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `reg-zap` on this register.
    Reg(Reg),
    /// `Q-zap1` on the address of the queue entry at this index
    /// (0 = front/newest).
    QueueAddr(usize),
    /// `Q-zap2` on the value of the queue entry at this index.
    QueueVal(usize),
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSite::Reg(r) => write!(f, "reg-zap {r}"),
            FaultSite::QueueAddr(i) => write!(f, "Q-zap1 [{i}].addr"),
            FaultSite::QueueVal(i) => write!(f, "Q-zap2 [{i}].val"),
        }
    }
}

/// Enumerate every fault site of the current state.
#[must_use]
pub fn sites(m: &Machine) -> Vec<FaultSite> {
    let mut out: Vec<FaultSite> = Reg::all(m.num_gprs()).map(FaultSite::Reg).collect();
    for i in 0..m.queue().len() {
        out.push(FaultSite::QueueAddr(i));
        out.push(FaultSite::QueueVal(i));
    }
    out
}

/// Enumerate the *register* fault sites together with their color tag and
/// payload — the basis for constructing **correlated** multi-fault plans
/// (two upsets striking the green and blue copies of one logical value, the
/// coordinated pattern that probes the boundary of the single-event-upset
/// model). Queue entries carry no color tag and are not listed.
#[must_use]
pub fn colored_reg_sites(m: &Machine) -> Vec<(FaultSite, talft_isa::Color, i64)> {
    Reg::all(m.num_gprs())
        .map(|r| (FaultSite::Reg(r), m.rcol(r), m.rval(r)))
        .collect()
}

/// The value currently stored at a fault site (useful for choosing a
/// corrupted replacement).
#[must_use]
pub fn read_site(m: &Machine, site: FaultSite) -> Option<i64> {
    match site {
        FaultSite::Reg(r) => Some(m.rval(r)),
        FaultSite::QueueAddr(i) => m.queue().get(i).map(|&(a, _)| a),
        FaultSite::QueueVal(i) => m.queue().get(i).map(|&(_, v)| v),
    }
}

/// Perform a faulty transition `S ─→1 S'`, writing `new_val` at `site`.
///
/// Register color tags are preserved (the tag "is fictional" and the
/// `reg-zap` rule keeps it). Returns `false` if the site no longer exists
/// (queue shrank), in which case the machine is unchanged.
pub fn inject(m: &mut Machine, site: FaultSite, new_val: i64) -> bool {
    match site {
        FaultSite::Reg(r) => {
            let old = m.reg(r);
            m.set_reg(r, old.with_val(new_val));
            true
        }
        FaultSite::QueueAddr(i) => match m.queue_mut().get_mut(i) {
            Some(slot) => {
                slot.0 = new_val;
                true
            }
            None => false,
        },
        FaultSite::QueueVal(i) => match m.queue_mut().get_mut(i) {
            Some(slot) => {
                slot.1 = new_val;
                true
            }
            None => false,
        },
    }
}

/// Most corrupted values [`mutations`] can propose for one site.
pub const MAX_MUTATIONS: usize = 10;

/// The corrupted values [`mutations`] proposes for one site: a fixed-capacity
/// list that derefs to a slice, so generating it allocates nothing.
#[derive(Clone, Copy)]
pub struct Mutations {
    vals: [i64; MAX_MUTATIONS],
    len: u8,
}

impl std::ops::Deref for Mutations {
    type Target = [i64];

    fn deref(&self) -> &[i64] {
        &self.vals[..usize::from(self.len)]
    }
}

impl IntoIterator for Mutations {
    type Item = i64;
    type IntoIter = std::iter::Take<std::array::IntoIter<i64, MAX_MUTATIONS>>;

    fn into_iter(self) -> Self::IntoIter {
        self.vals.into_iter().take(usize::from(self.len))
    }
}

impl std::fmt::Debug for Mutations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Representative corrupted values to try at a site holding `old`:
/// single-bit flips of low/high/sign bits, small offsets, zero, and a
/// large-magnitude constant. All distinct from `old`.
#[must_use]
pub fn mutations(old: i64) -> Mutations {
    let candidates = [
        old ^ 1,
        old ^ (1 << 7),
        old ^ (1 << 31),
        old ^ (1i64 << 62),
        old.wrapping_add(1),
        old.wrapping_sub(1),
        0,
        -1,
        0x7fff_ffff,
        old.wrapping_neg(),
    ];
    // A candidate is kept iff it differs from `old` and from every earlier
    // candidate — the same list as skipping values already kept, but
    // decided without branches; `len <= i`, so the store stays in bounds.
    let mut out = Mutations {
        vals: [0; MAX_MUTATIONS],
        len: 0,
    };
    for (i, &c) in candidates.iter().enumerate() {
        let mut seen = c == old;
        for &earlier in &candidates[..i] {
            seen |= earlier == c;
        }
        out.vals[usize::from(out.len)] = c;
        out.len += u8::from(!seen);
    }
    out
}

/// Reference for [`mutations`]: the same candidates, deduplicated by
/// pushing each value not yet kept into a `Vec`. Compiled for this crate's
/// tests and, through the `oracle` feature, for other crates' tests.
#[cfg(any(test, feature = "oracle"))]
#[must_use]
pub fn mutations_oracle(old: i64) -> Vec<i64> {
    let candidates = [
        old ^ 1,
        old ^ (1 << 7),
        old ^ (1 << 31),
        old ^ (1i64 << 62),
        old.wrapping_add(1),
        old.wrapping_sub(1),
        0,
        -1,
        0x7fff_ffff,
        old.wrapping_neg(),
    ];
    let mut out = Vec::new();
    for c in candidates {
        if c != old && !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use talft_isa::{assemble, CVal, Color};

    fn boot() -> Machine {
        let src = "\n.code\nmain:\n  .pre { forall m:mem; mem: m; }\n  halt\n";
        Machine::boot(Arc::new(assemble(src).expect("ok").program))
    }

    #[test]
    fn sites_cover_registers_and_queue() {
        let mut m = boot();
        let base = sites(&m);
        assert_eq!(base.len(), usize::from(m.num_gprs()) + 3); // + d, pcG, pcB
        m.queue_mut().push_front((1, 2));
        m.queue_mut().push_front((3, 4));
        let with_q = sites(&m);
        assert_eq!(with_q.len(), base.len() + 4);
    }

    #[test]
    fn inject_preserves_register_color() {
        let mut m = boot();
        m.set_reg(Reg::r(1), CVal::blue(10));
        assert!(inject(&mut m, FaultSite::Reg(Reg::r(1)), 999));
        assert_eq!(m.reg(Reg::r(1)), CVal::new(Color::Blue, 999));
    }

    #[test]
    fn inject_queue_entries() {
        let mut m = boot();
        m.queue_mut().push_front((100, 5));
        assert!(inject(&mut m, FaultSite::QueueAddr(0), 101));
        assert_eq!(m.queue()[0], (101, 5));
        assert!(inject(&mut m, FaultSite::QueueVal(0), 6));
        assert_eq!(m.queue()[0], (101, 6));
        assert!(!inject(&mut m, FaultSite::QueueVal(3), 0));
    }

    #[test]
    fn read_site_matches_state() {
        let mut m = boot();
        m.set_reg(Reg::Dst, CVal::green(77));
        assert_eq!(read_site(&m, FaultSite::Reg(Reg::Dst)), Some(77));
        assert_eq!(read_site(&m, FaultSite::QueueAddr(0)), None);
        m.queue_mut().push_front((8, 9));
        assert_eq!(read_site(&m, FaultSite::QueueAddr(0)), Some(8));
        assert_eq!(read_site(&m, FaultSite::QueueVal(0)), Some(9));
    }

    #[test]
    fn mutations_are_distinct_and_nontrivial() {
        for old in [0i64, 1, -1, 4096, i64::MAX, i64::MIN] {
            let ms = mutations(old);
            assert!(!ms.is_empty());
            assert!(ms.iter().all(|&v| v != old));
            let mut dedup = ms.to_vec();
            dedup.dedup();
            assert_eq!(dedup.len(), ms.len());
        }
    }

    #[test]
    fn mutations_match_the_vec_oracle() {
        let check = |old: i64| {
            let ms = mutations(old);
            let oracle = mutations_oracle(old);
            assert_eq!(&*ms, oracle.as_slice(), "slice differs at {old:#x}");
            assert_eq!(
                ms.into_iter().collect::<Vec<_>>(),
                oracle,
                "iter at {old:#x}"
            );
        };
        for old in [
            0,
            1,
            -1,
            i64::MIN,
            i64::MAX,
            0x7fff_ffff,
            1 << 62,
            -(1 << 62),
        ] {
            check(old);
        }
        let mut rng = talft_testutil::SplitMix64::new(0x6d75_7461);
        for _ in 0..10_000 {
            check(rng.next_u64() as i64);
        }
    }
}
