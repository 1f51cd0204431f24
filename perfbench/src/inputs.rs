//! Seeded inputs and their fingerprints.
//!
//! Everything a workload feeds the pipeline is a function of the
//! `--seed` argument: the fuzzed Wile corpus, the sampled k=2 plan sets
//! and the plans re-run on the scalar engine. The fingerprints
//! printed with every run (an FNV-1a hash of the corpus text, and
//! `grid_fingerprint` of each plan set) show that two runs measured
//! identical inputs.

use talft_testutil::wile::{random_stmts, render_program};
use talft_testutil::SplitMix64;

/// A sub-seed for one purpose, so that inputs drawn for different
/// purposes stay independent of each other.
#[must_use]
pub fn derive(seed: u64, purpose: &str) -> u64 {
    let mut r = SplitMix64::new(seed ^ fnv1a(purpose.as_bytes()));
    r.next_u64()
}

/// `n` fuzzer-generated Wile programs — the generator the checker
/// soundness fuzz uses, with its statement-count and depth settings.
#[must_use]
pub fn wile_corpus(seed: u64, n: usize) -> Vec<String> {
    let mut r = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let mut g = r.split();
            render_program(&random_stmts(&mut g, 2, 2, 6))
        })
        .collect()
}

/// FNV-1a over a list of texts (length-prefixed, so boundaries count).
#[must_use]
pub fn corpus_hash<S: AsRef<str>>(texts: &[S]) -> u64 {
    let mut h = Fnv::default();
    for t in texts {
        let t = t.as_ref().as_bytes();
        h.write(&(t.len() as u64).to_le_bytes());
        h.write(t);
    }
    h.0
}

/// Combine fingerprints, in order, into one.
#[must_use]
pub fn combine(parts: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for p in parts {
        h.write(&p.to_le_bytes());
    }
    h.0
}

/// Indices of an evenly spread, seeded subsample of at most `cap` of `n`
/// items.
#[must_use]
pub fn subsample(n: usize, cap: usize, seed: u64) -> Vec<usize> {
    if n <= cap {
        return (0..n).collect();
    }
    let offset = SplitMix64::new(seed).index(n);
    let mut picked: Vec<usize> = (0..cap).map(|k| (offset + k * n / cap) % n).collect();
    picked.sort_unstable();
    picked
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
