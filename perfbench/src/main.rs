//! `talft-perfbench --workload <verify|campaign|frontend> --seed <n>
//! --seconds <s> --trace <0|1> [--source <id>]`
//!
//! Prints the host block, input fingerprints, every correctness check,
//! every metric with its unit, and as the last line one JSON result
//! object. Exits 1 when any correctness check failed, 2 on a usage or
//! set-up error (then without a result line).

use std::process::{Command, ExitCode};

use talft_obs::Json;
use talft_perfbench::campaign::Campaign;
use talft_perfbench::frontend::Frontend;
use talft_perfbench::harness::{self, Outcome, Settings};
use talft_perfbench::inputs;
use talft_perfbench::verify::Verify;

/// Environment knobs that change the plan count or the solver path; the
/// numbers would describe a different workload, so the run is refused.
const AMBIENT_KNOBS: &[&str] = &[
    "TALFT_STRIDE_SCALE",
    "TALFT_ENTAIL_CACHE",
    "TALFT_ENTAIL_INTERVAL",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_owned(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
        source: get("--source").unwrap_or("unknown").to_owned(),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(knob) = AMBIENT_KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!("error: {knob} is set; it changes the measured workload, unset it");
        return ExitCode::from(2);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
    };
    println!(
        "host {}",
        harness::compact(&Json::obj([
            ("workload", Json::str(&args.workload)),
            ("seed", Json::U64(args.seed)),
            ("trace", Json::Bool(args.trace)),
            ("nproc", Json::U64(threads as u64)),
            ("threads", Json::U64(threads as u64)),
            ("rustc", Json::str(rustc_version())),
            ("source", Json::str(&args.source)),
        ]))
    );
    let outcome = match args.workload.as_str() {
        "verify" => harness::run::<Verify>(settings),
        "campaign" => harness::run::<Campaign>(settings),
        "frontend" => harness::run::<Frontend>(settings),
        w => Err(format!("unknown workload {w}")),
    };
    match outcome {
        Ok(o) => report(&o),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn report(o: &Outcome) -> ExitCode {
    let prints: Vec<u64> = o.fingerprints.iter().map(|(_, h)| *h).collect();
    for (name, h) in &o.fingerprints {
        println!("fingerprint {name} {h:016x}");
    }
    println!("fingerprint all {:016x}", inputs::combine(&prints));
    println!("passes untraced={} traced={}", o.passes.0, o.passes.1);
    for (name, secs) in &o.units {
        println!("unit {name} {secs:.6} s");
    }
    for (name, attempted, failed) in o.checks.rows() {
        println!("check {name} attempted={attempted} failed={failed}");
    }
    for (name, value, unit) in &o.metrics {
        println!("metric {name} {value} {unit}");
    }
    for f in &o.figures {
        println!("figure {} {} {} ({})", f.name, f.value, f.unit, f.note);
    }
    let (attempted, failed) = (o.checks.attempted(), o.checks.failed());
    println!(
        "failed_frac {} ({failed}/{attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    println!("{}", harness::result_line(o));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}
