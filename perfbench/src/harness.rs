//! The measurement loop shared by every workload, its correctness tally,
//! and the metrics it prints.
//!
//! A run sets its workload up [`SETUP_REPS`] times (the median is
//! `setup_s`), then runs *passes* over the workload's units — one program
//! at a time, each starting when the previous verdict is done — until
//! `--seconds` have elapsed. Times are each unit's median over passes;
//! `wall_s` is their sum, the time of one typical pass. Outputs are
//! checked outside the measured region. With `--trace 1` passes alternate
//! between untraced and traced, so the traced run also measures its own
//! overhead.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use talft_obs::Json;

use crate::stats;
use crate::trace::{self, Recorder, PROGRAM_SPAN};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// One workload of the benchmark.
pub trait Workload: Sized {
    /// What one unit of work returns, for checking outside the measured
    /// region.
    type Out;

    /// Generate the inputs from the seed (timed as `setup_s`).
    ///
    /// # Errors
    ///
    /// When an input cannot be prepared.
    fn setup(seed: u64, threads: usize) -> Result<Self, String>;

    /// Units of work per pass.
    fn units(&self) -> usize;

    /// Name of unit `i`, for its row in the report.
    fn unit_name(&self, i: usize) -> String;

    /// Whether unit `i` is one program's full verdict (a `verdict_s`
    /// sample).
    fn is_verdict(&self, i: usize) -> bool;

    /// Programs (and mutants) one pass pushes through the pipeline.
    fn programs_per_pass(&self) -> u64;

    /// Protected instructions emitted for the suite kernels.
    fn code_words(&self) -> u64;

    /// Process unit `i`: the measured region. Layer calls go through `rec`.
    fn run(&self, i: usize, rec: &Recorder) -> Self::Out;

    /// Check unit `i`'s output (not measured). `pass` 0 checks in full
    /// and records fingerprints; later passes check repeatability.
    fn check(&mut self, i: usize, pass: usize, out: Self::Out, checks: &mut Checks);

    /// Whole-run checks and workload-specific figures, given the median
    /// pass wall time.
    fn finish(&mut self, wall_s: f64, checks: &mut Checks) -> Vec<Figure>;

    /// Input fingerprints gathered on the first pass.
    fn fingerprints(&self) -> Vec<(String, u64)>;
}

/// A workload-specific figure printed with the run (not in the result
/// line's metrics).
#[derive(Debug, Clone)]
pub struct Figure {
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Short qualifier (sample count, exact counts …).
    pub note: String,
}

impl Figure {
    /// A figure with a note.
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Self {
        Self {
            name: name.to_owned(),
            value,
            unit,
            note: note.into(),
        }
    }
}

/// Correctness checks, tallied by name.
#[derive(Debug, Default)]
pub struct Checks {
    by_name: BTreeMap<&'static str, (u64, u64)>,
}

impl Checks {
    /// Record one check; print `detail` on failure.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        let e = self.by_name.entry(name).or_insert((0, 0));
        e.0 += 1;
        if !ok {
            e.1 += 1;
            eprintln!("CHECK FAILED {name}: {}", detail());
        }
    }

    /// Checks attempted.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.by_name.values().map(|e| e.0).sum()
    }

    /// Checks failed.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.by_name.values().map(|e| e.1).sum()
    }

    /// `(name, attempted, failed)` rows.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.by_name.iter().map(|(&n, &(a, f))| (n, a, f))
    }
}

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Minimum measured time.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Worker threads for campaigns.
    pub threads: usize,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Result-line metrics, `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Workload-specific figures.
    pub figures: Vec<Figure>,
    /// Each unit's name and median time over untraced passes.
    pub units: Vec<(String, f64)>,
    /// Correctness tally.
    pub checks: Checks,
    /// Input fingerprints.
    pub fingerprints: Vec<(String, u64)>,
    /// Passes run (untraced, traced).
    pub passes: (usize, usize),
}

/// Set up, measure and check one workload.
///
/// # Errors
///
/// When the workload cannot be set up.
pub fn run<W: Workload>(s: Settings) -> Result<Outcome, String> {
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        workload = Some(W::setup(s.seed, s.threads)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("SETUP_REPS > 0");

    let rec = Recorder::new();
    let mut checks = Checks::default();
    // Per mode (untraced, traced), per unit: its time on every pass.
    let mut times = [vec![Vec::new(); w.units()], vec![Vec::new(); w.units()]];
    let mut walls = [Vec::new(), Vec::new()];
    let mut obs = BTreeMap::new();
    let budget = Duration::from_secs_f64(s.seconds);
    let start = Instant::now();
    for pass in 0.. {
        let traced = s.trace && pass % 2 == 1;
        rec.set_on(traced);
        talft_obs::set_enabled(traced);
        let before = traced.then(talft_obs::snapshot);
        let mut wall = 0.0;
        for (i, unit_times) in times[usize::from(traced)].iter_mut().enumerate() {
            let t = Instant::now();
            let out = rec.program(i as u32, || w.run(i, &rec));
            let d = t.elapsed().as_secs_f64();
            wall += d;
            unit_times.push(d);
            w.check(i, pass, out, &mut checks);
        }
        if let Some(before) = before {
            for (name, v) in talft_obs::snapshot().counters {
                *obs.entry(name).or_insert(0) +=
                    v - before.counters.get(name).copied().unwrap_or(0);
            }
        }
        talft_obs::set_enabled(false);
        walls[usize::from(traced)].push(wall);
        let pairs_done = !s.trace || pass % 2 == 1;
        if pairs_done && start.elapsed() >= budget {
            break;
        }
    }
    rec.set_on(false);

    // Each unit's median over passes, so a burst of interference on one
    // pass moves one sample of each unit it hit, not the whole figure.
    let medians = |mode: usize| -> Vec<f64> {
        times[mode]
            .iter()
            .map(|t| stats::median(t).expect("every unit ran on every pass"))
            .collect()
    };
    let unit_medians = medians(0);
    let wall_s: f64 = unit_medians.iter().sum();
    let verdicts: Vec<f64> = (0..w.units())
        .filter(|&i| w.is_verdict(i))
        .map(|i| unit_medians[i])
        .collect();
    let mut figures = w.finish(wall_s, &mut checks);
    figures.extend(verdict_tail(&verdicts));
    let metrics = if s.trace {
        let traced_wall: f64 = medians(1).iter().sum();
        layer_metrics(&rec, &obs, walls[1].len(), traced_wall / wall_s - 1.0)
    } else {
        let setup_s = stats::median(&setup_times).expect("SETUP_REPS > 0");
        vec![
            ("setup_s", setup_s, "s"),
            ("wall_s", wall_s, "s"),
            (
                "verdict_s.p50",
                stats::median(&verdicts).expect("every workload has verdicts"),
                "s",
            ),
            (
                "programs_per_s",
                w.programs_per_pass() as f64 / wall_s,
                "programs/s",
            ),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
            ("code_words", w.code_words() as f64, "instrs"),
        ]
    };
    figures.push(pass_spread(&walls[0]));
    let units = (0..w.units())
        .map(|i| (w.unit_name(i), unit_medians[i]))
        .collect();
    Ok(Outcome {
        metrics,
        units,
        figures,
        checks,
        fingerprints: w.fingerprints(),
        passes: (walls[0].len(), walls[1].len()),
    })
}

/// `verdict_s.p90` where the sample supports it, else the highest
/// percentile it does support.
fn verdict_tail(verdicts: &[f64]) -> Option<Figure> {
    let n = verdicts.len();
    if let Some(p90) = stats::supported_percentile(verdicts, 0.9) {
        return Some(Figure::new("verdict_s.p90", p90, "s", format!("n={n}")));
    }
    let q = stats::highest_supported(n)?;
    let v = stats::supported_percentile(verdicts, q).expect("supported by construction");
    let note = format!(
        "p{:.0}, the highest percentile n={n} supports (p90 needs n>=100)",
        q * 100.0
    );
    Some(Figure::new("verdict_s.tail", v, "s", note))
}

/// Quartiles of the untraced pass walls, for judging a run's own spread.
fn pass_spread(walls: &[f64]) -> Figure {
    let note = match stats::quartiles(walls) {
        Some([q1, q2, q3]) => format!("passes={} q1={q1:.4} q2={q2:.4} q3={q3:.4}", walls.len()),
        None => format!("passes={}", walls.len()),
    };
    Figure::new(
        "pass_spread",
        stats::relative_spread(walls).unwrap_or(0.0),
        "ratio",
        note,
    )
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Per-layer busy times: metric name → span name. Self time of every span
/// with that name, per traced pass.
pub const BUSY: &[(&str, &str)] = &[
    ("compiler.compile.busy_s", "compiler.compile"),
    ("compiler.interpret.busy_s", "compiler.interpret"),
    ("core.check_program.busy_s", "core.check_program"),
    (
        "core.check_program.reject_busy_s",
        "core.check_program.reject",
    ),
    ("machine.run_program.busy_s", "machine.run_program"),
    ("sim.busy_s", "sim.simulate"),
    ("oracle.all_mutants.busy_s", "oracle.all_mutants"),
    ("faultsim.golden_run.busy_s", "faultsim.golden_run"),
    ("faultsim.plans.busy_s", "faultsim.plans"),
    ("faultsim.campaign.k1.busy_s", "faultsim.campaign.k1"),
    ("faultsim.campaign.k2.busy_s", "faultsim.campaign.k2"),
    ("faultsim.grid.busy_s", "faultsim.grid"),
    ("faultsim.shard.busy_s", "faultsim.shard"),
    ("faultsim.wire.busy_s", "faultsim.wire"),
    ("faultsim.merge.busy_s", "faultsim.merge"),
    ("analysis.analyze_zaps.busy_s", "analysis.analyze_zaps"),
    ("analysis.pair_new.busy_s", "analysis.pair_new"),
    ("analysis.pair_report.busy_s", "analysis.pair_report"),
    ("analysis.lint.busy_s", "analysis.lint"),
    ("analysis.lint_pairs.busy_s", "analysis.lint_pairs"),
    ("analysis.xval.busy_s", "analysis.xval"),
];

/// Counts recorded by the benchmark around layer calls, per traced pass,
/// with their units.
pub const COUNTS: &[(&str, &str)] = &[
    ("compiler.instrs_out", "instrs"),
    ("machine.steps", "steps"),
    ("sim.cycles.protected", "cycles"),
    ("sim.cycles.baseline", "cycles"),
    ("oracle.mutants", "count"),
    ("faultsim.campaign.k1.plans", "count"),
    ("faultsim.campaign.k2.plans", "count"),
    ("faultsim.wire.bytes", "bytes"),
    ("analysis.cells", "count"),
    ("analysis.pairs", "count"),
    ("analysis.fixpoints", "count"),
];

/// The crates a span name can start with, and the metric holding each
/// one's share of traced wall time.
pub const LAYERS: &[(&str, &str)] = &[
    ("compiler", "layer.compiler.share"),
    ("core", "layer.core.share"),
    ("machine", "layer.machine.share"),
    ("sim", "layer.sim.share"),
    ("oracle", "layer.oracle.share"),
    ("faultsim", "layer.faultsim.share"),
    ("analysis", "layer.analysis.share"),
];

/// Every per-layer metric, in result-line order.
fn layer_metrics(
    rec: &Recorder,
    obs: &BTreeMap<&'static str, u64>,
    passes: usize,
    overhead: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let spans = rec.spans();
    let by_name = trace::totals_by_name(&spans);
    let counts = rec.counts();
    let per_pass = |x: f64| x / passes as f64;
    let secs = |name: &str| by_name.get(name).map_or(0.0, |t| t.self_ns as f64 * 1e-9);
    let calls = |name: &str| by_name.get(name).map_or(0, |t| t.calls);
    let obs_n = |name: &str| obs.get(name).copied().unwrap_or(0) as f64;
    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut m: Vec<(&'static str, f64, &'static str)> = Vec::new();
    for &(metric, span) in BUSY {
        m.push((metric, per_pass(secs(span)), "s"));
    }
    m.push((
        "compiler.compile.calls",
        per_pass(calls("compiler.compile") as f64),
        "count",
    ));
    m.push((
        "core.accepts",
        per_pass(calls("core.check_program") as f64),
        "count",
    ));
    m.push((
        "core.rejects",
        per_pass(calls("core.check_program.reject") as f64),
        "count",
    ));
    for &(name, unit) in COUNTS {
        let v = counts.get(name).copied().unwrap_or(0) as f64;
        m.push((name, per_pass(v), unit));
    }
    m.push((
        "logic.queries",
        per_pass(obs_n("logic.query.eq") + obs_n("logic.query.neq") + obs_n("logic.query.ge")),
        "count",
    ));
    m.push(("logic.fm.runs", per_pass(obs_n("logic.fm.runs")), "count"));
    m.push((
        "logic.interval.hit_frac",
        frac(obs_n("logic.interval.hit"), obs_n("logic.interval.queries")),
        "ratio",
    ));
    m.push((
        "logic.cache.hit_frac",
        frac(
            obs_n("logic.cache.hit"),
            obs_n("logic.cache.hit") + obs_n("logic.cache.miss"),
        ),
        "ratio",
    ));
    for (metric, counter) in [
        ("faultsim.batch.lanes", "faultsim.batch.lanes"),
        ("faultsim.batch.demotions", "faultsim.batch.demotions"),
        (
            "faultsim.batch.scalar_routed",
            "faultsim.batch.scalar_routed",
        ),
        ("campaign.converged_early", "campaign.converged_early"),
    ] {
        m.push((metric, per_pass(obs_n(counter)), "count"));
    }
    m.push((
        "faultsim.batch.admit_frac",
        frac(obs_n("faultsim.batch.lanes"), obs_n("campaign.plans")),
        "ratio",
    ));
    m.push((
        "analysis.pairs_per_s",
        frac(
            counts.get("analysis.pairs").copied().unwrap_or(0) as f64,
            secs("analysis.pair_report"),
        ),
        "pairs/s",
    ));

    // Shares of traced wall time: each layer's self time, and the
    // benchmark's own (the program spans' self time).
    let wall_ns: u64 = spans
        .iter()
        .filter(|s| s.name == PROGRAM_SPAN)
        .map(trace::Span::dur_ns)
        .sum();
    let wall = wall_ns as f64 * 1e-9;
    for &(layer, metric) in LAYERS {
        let busy: f64 = by_name
            .iter()
            .filter(|(n, _)| n.split('.').next() == Some(layer))
            .fold(0.0, |acc, (_, t)| acc + t.self_ns as f64 * 1e-9);
        m.push((metric, frac(busy, wall), "ratio"));
    }
    m.push((
        "bench.unattributed_frac",
        frac(secs(PROGRAM_SPAN), wall),
        "ratio",
    ));
    m.push(("trace.overhead_frac", overhead, "ratio"));
    m
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
#[must_use]
pub fn result_line(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_owned(),
                Json::obj([("value", Json::F64(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    compact(&Json::obj([
        ("correct", Json::Bool(o.checks.failed() == 0)),
        ("attempted", Json::U64(o.checks.attempted())),
        ("failed", Json::U64(o.checks.failed())),
        ("metrics", Json::Object(metrics)),
    ]))
}

/// Serialize on one line (`Json`'s `Display` pretty-prints).
#[must_use]
pub fn compact(j: &Json) -> String {
    let mut out = String::new();
    write_compact(j, &mut out);
    out
}

fn write_compact(j: &Json, out: &mut String) {
    match j {
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Object(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(&Json::str(k.as_str()), out);
                out.push(':');
                write_compact(v, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&scalar.to_string()),
    }
}
