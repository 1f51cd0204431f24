//! **perfreport** — the E15 observability profile: per-pass checker
//! timings, solver query counters, and campaign throughput at
//! `MachineModel::default()`, captured through the `talft-obs` registry and
//! written as one schema-stable JSON document.
//!
//! Four phases, each preceded by a registry reset so its numbers are
//! attributable:
//!
//! 1. **checker** — compile every Tiny-scale kernel and `check_program` its
//!    protected binary (per-pass spans, rule-hit counters, solver counters);
//! 2. **checkperf** — the E21 solver table: re-check every kernel with the
//!    interval pre-solver off (the Fourier–Motzkin reference path)
//!    and on, and record wall time plus the interval/FM counters;
//! 3. **machine** — run each protected binary to completion (steps, queue
//!    high-water mark);
//! 4. **campaign** — a strided k=1 campaign per kernel with `threads: 1`
//!    pinned (plans/sec would be machine-dependent under
//!    `available_parallelism`; see DESIGN.md §Observability).
//!
//! Usage: `cargo run --release -p talft-bench --bin perfreport
//!          [--json <path>] [--check <path>] [--stride N]`
//!
//! `--json` defaults to `BENCH_perf.json`. `--check <path>` instead parses
//! an existing report with the dep-free [`talft_obs::Json`] parser and
//! verifies the schema tag and required sections — the CI smoke gate. For
//! the checkperf table it also gates on the machine-independent solver
//! invariants: every row must satisfy `interval hit + miss == queries`
//! (no silent bypass of the counter discipline), the interval-off row must
//! report zero interval queries, and no row may record a Fourier–Motzkin
//! give-up. The `host` block records nproc and the pinned thread count.

use std::time::Instant;

use talft_bench::report::{self, campaign_json, Report};
use talft_compiler::{compile, CompileOptions};
use talft_core::check_program;
use talft_faultsim::{run_campaign, CampaignConfig};
use talft_machine::run_program;
use talft_obs::Json;
use talft_suite::{kernels, Scale};

/// Schema tag of the document this bin writes and `--check` accepts.
const SCHEMA: &str = "talft.perfreport.v2";

/// Required top-level keys of a `talft.perfreport.v2` document.
const REQUIRED: &[&str] = &[
    "schema",
    "host",
    "stride",
    "kernels",
    "checker",
    "checkperf",
    "machine",
    "campaign",
];

fn main() {
    if let Some(path) = report::arg_str("--check") {
        check_existing(&path);
        return;
    }
    let stride = report::arg("--stride").unwrap_or(23);
    let path = report::json_path().unwrap_or_else(|| "BENCH_perf.json".into());

    talft_obs::set_enabled(true);
    let ks = kernels(Scale::Tiny);

    // Phase 1: checker. Compile outside the measured region; check inside.
    let mut compiled = Vec::new();
    for k in &ks {
        match compile(&k.source, &CompileOptions::default()) {
            Ok(c) => compiled.push((k.name, c)),
            Err(e) => {
                eprintln!("error: {}: {e}", k.name);
                std::process::exit(1);
            }
        }
    }
    talft_obs::reset_all();
    let t0 = Instant::now();
    for (name, c) in &mut compiled {
        if let Err(e) = check_program(&c.protected.program, &mut c.protected.arena) {
            eprintln!("error: {name} failed the checker: {e}");
            std::process::exit(1);
        }
    }
    let checker_wall = t0.elapsed();
    let checker = talft_obs::snapshot();

    // Phase 2: checkperf — the E21 solver table. Each row re-checks every
    // kernel, first on the Fourier–Motzkin reference path (interval off),
    // then on the production pipeline. The interval layer is
    // verdict-transparent, so both rows must check identically — only the
    // timings and counters may differ.
    let mut checkperf_rows = Vec::new();
    for interval in [false, true] {
        let mode = if interval { "on" } else { "off" };
        talft_logic::set_entail_interval(interval);
        talft_obs::reset_all();
        let t0 = Instant::now();
        for (name, c) in &mut compiled {
            if let Err(e) = check_program(&c.protected.program, &mut c.protected.arena) {
                eprintln!("error: {name} failed the checker (interval {mode}): {e}");
                std::process::exit(1);
            }
        }
        let wall = t0.elapsed();
        let snap = talft_obs::snapshot();
        let n = |key: &str| snap.counters.get(key).copied().unwrap_or(0);
        let (fm_runs, iq, ih, im) = (
            n("logic.fm.runs"),
            n("logic.interval.queries"),
            n("logic.interval.hit"),
            n("logic.interval.miss"),
        );
        eprintln!(
            "checkperf: interval {mode:>3}: {:>9} ns, fm {fm_runs}, interval {ih}/{iq}",
            ns(wall),
        );
        checkperf_rows.push(Json::obj([
            ("interval", Json::str(mode)),
            ("wall_ns", Json::U64(ns(wall))),
            ("fm_runs", Json::U64(fm_runs)),
            ("fm_giveups", Json::U64(n("logic.fm.giveups"))),
            ("interval_queries", Json::U64(iq)),
            ("interval_hit", Json::U64(ih)),
            ("interval_miss", Json::U64(im)),
            ("interval_narrowed", Json::U64(n("logic.interval.narrowed"))),
        ]));
    }

    // Phase 3: machine.
    talft_obs::reset_all();
    for (name, c) in &compiled {
        let r = run_program(&c.protected.program, 100_000_000);
        if !r.halted() {
            eprintln!("error: {name} did not halt");
            std::process::exit(1);
        }
    }
    let machine = talft_obs::snapshot();

    // Phase 4: campaign, threads pinned to 1 for comparable plans/sec.
    let cfg = CampaignConfig {
        stride,
        mutations_per_site: 2,
        threads: 1,
        ..CampaignConfig::default()
    };
    talft_obs::reset_all();
    let t0 = Instant::now();
    let mut campaign_rows = Vec::new();
    for (name, c) in &compiled {
        match run_campaign(&c.protected.program, &cfg) {
            Ok(rep) => campaign_rows.push(Json::obj([
                ("name", Json::str(*name)),
                ("report", campaign_json(&rep)),
            ])),
            Err(e) => {
                eprintln!("error: {name}: {e}");
                std::process::exit(1);
            }
        }
    }
    let campaign_wall = t0.elapsed();
    let campaign = talft_obs::snapshot();

    let json = Report::new(SCHEMA)
        .field("host", report::host_json(1))
        .field("stride", Json::U64(stride))
        .field("kernels", Json::U64(ks.len() as u64))
        .field(
            "checker",
            Json::obj([
                ("wall_ns", Json::U64(ns(checker_wall))),
                ("obs", checker.to_json()),
            ]),
        )
        .field(
            "checkperf",
            Json::obj([("rows", Json::Array(checkperf_rows.clone()))]),
        )
        .field("machine", Json::obj([("obs", machine.to_json())]))
        .field(
            "campaign",
            Json::obj([
                ("wall_ns", Json::U64(ns(campaign_wall))),
                ("threads", Json::U64(1)),
                ("rows", Json::Array(campaign_rows)),
                ("obs", campaign.to_json()),
            ]),
        )
        .build();
    report::write_json(&json, &path);

    eprintln!("--- checker phase ---");
    eprint!("{}", checker.render_text());
    eprintln!("--- machine phase ---");
    eprint!("{}", machine.render_text());
    eprintln!("--- campaign phase ---");
    eprint!("{}", campaign.render_text());
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Validate an existing report: parses with the self-contained JSON parser
/// and checks the schema contract. Exit 0 on success, 1 on any failure.
fn check_existing(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfreport: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let json = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perfreport: {path} is not valid JSON: {e}");
            std::process::exit(1);
        }
    };
    for key in REQUIRED {
        if json.get(key).is_none() {
            eprintln!("perfreport: {path} is missing required key {key:?}");
            std::process::exit(1);
        }
    }
    if json.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        eprintln!("perfreport: {path} has an unexpected schema tag");
        std::process::exit(1);
    }
    let counters = json
        .get("checker")
        .and_then(|c| c.get("obs"))
        .and_then(|o| o.get("counters"));
    for counter in ["checker.blocks", "checker.instrs", "logic.query.eq"] {
        if counters.and_then(|c| c.get(counter)).is_none() {
            eprintln!("perfreport: {path} checker phase is missing counter {counter:?}");
            std::process::exit(1);
        }
    }
    check_checkperf(path, &json);
    println!("perfreport: {path} OK (schema {SCHEMA})");
}

/// Gate the checkperf table on its machine-independent solver invariants.
fn check_checkperf(path: &str, json: &Json) {
    let fail = |msg: &str| -> ! {
        eprintln!("perfreport: {path}: checkperf: {msg}");
        std::process::exit(1);
    };
    let Some(Json::Array(rows)) = json.get("checkperf").and_then(|c| c.get("rows")) else {
        fail("rows is not an array");
    };
    let modes: Vec<&str> = rows
        .iter()
        .map(|row| row.get("interval").and_then(Json::as_str).unwrap_or("?"))
        .collect();
    if modes != ["off", "on"] {
        fail(&format!(
            "expected rows for interval off and on, found {modes:?}"
        ));
    }
    for (row, mode) in rows.iter().zip(modes) {
        let n = |key: &str| -> u64 {
            match row.get(key).and_then(Json::as_u64) {
                Some(v) => v,
                None => fail(&format!("interval {mode}: row is missing {key:?}")),
            }
        };
        if n("interval_hit") + n("interval_miss") != n("interval_queries") {
            fail(&format!("interval {mode}: interval hit+miss != queries"));
        }
        if mode == "off" && n("interval_queries") != 0 {
            fail("interval off: interval layer consulted while off");
        }
        if n("fm_giveups") != 0 {
            fail(&format!(
                "interval {mode}: nonzero Fourier–Motzkin give-ups"
            ));
        }
    }
}
