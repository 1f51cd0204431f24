//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer of the pipeline in
//! a span named `<layer>.<call>` (`compiler.compile`, `analysis.pair_report`,
//! …). Each span records its name, start, end, parent span and the id of
//! the program it belongs to; every unit of work the benchmark processes
//! opens a root span named [`PROGRAM_SPAN`]. Spans stay in memory until the
//! run ends. When recording is off, [`Recorder::span`] is a plain call.
//!
//! A span's *self time* is its duration minus the part of its interval its
//! child spans cover; a root span's self time is the benchmark's own,
//! unattributed time.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span around one unit of work.
pub const PROGRAM_SPAN: &str = "bench.program";

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, or [`PROGRAM_SPAN`].
    pub name: &'static str,
    /// Id shared by every span of one unit of work.
    pub program: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans and counts while switched on. Single-threaded: the
/// benchmark's loop runs one program at a time on one thread, and spans
/// sit around whole calls into a layer (which may use worker threads of
/// their own).
#[derive(Debug)]
pub struct Recorder {
    on: Cell<bool>,
    epoch: Instant,
    program: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    counts: RefCell<BTreeMap<&'static str, u64>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder, switched off.
    #[must_use]
    pub fn new() -> Self {
        Self {
            on: Cell::new(false),
            epoch: Instant::now(),
            program: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            counts: RefCell::new(BTreeMap::new()),
        }
    }

    /// Switch recording on or off (between units of work only).
    pub fn set_on(&self, on: bool) {
        debug_assert!(self.stack.borrow().is_empty(), "toggled inside a span");
        self.on.set(on);
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_named(f, |_| name)
    }

    /// Run `f` inside a span whose name depends on its result (e.g. the
    /// checker's accept and reject paths).
    pub fn span_named<T>(&self, f: impl FnOnce() -> T, name: impl FnOnce(&T) -> &'static str) -> T {
        if !self.on.get() {
            return f();
        }
        let idx = self.open("");
        let out = f();
        self.close(idx, name(&out));
        out
    }

    /// Run one unit of work with id `program` inside a [`PROGRAM_SPAN`].
    pub fn program<T>(&self, program: u32, f: impl FnOnce() -> T) -> T {
        self.program.set(program);
        self.span(PROGRAM_SPAN, f)
    }

    /// Add `n` to the count `name` (while recording).
    pub fn count(&self, name: &'static str, n: u64) {
        if self.on.get() {
            *self.counts.borrow_mut().entry(name).or_insert(0) += n;
        }
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Every count recorded so far.
    #[must_use]
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        self.counts.borrow().clone()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn open(&self, name: &'static str) -> usize {
        let mut spans = self.spans.borrow_mut();
        let idx = spans.len();
        spans.push(Span {
            name,
            program: self.program.get(),
            parent: self.stack.borrow().last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.borrow_mut().push(idx);
        idx
    }

    fn close(&self, idx: usize, name: &'static str) {
        let end = self.now_ns();
        let popped = self.stack.borrow_mut().pop();
        debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
        let mut spans = self.spans.borrow_mut();
        spans[idx].name = name;
        spans[idx].end_ns = end;
    }
}

/// Self time of every span (same indexing): its duration minus the union
/// of its children's intervals, clipped to its own.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans with the name.
    pub calls: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Sum self time and call count by span name.
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += self_ns;
    }
    out
}
