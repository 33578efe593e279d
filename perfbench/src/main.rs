//! Runs one benchmark workload and prints its metrics.
//!
//! Usage: `perfbench --workload <mc-flagship|mc-heap|gc-churn|serve>
//! --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human summary, then a `{"record": ...}` line (host, seed,
//! exact work counters), then the result line: `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Exits 1 when any correctness gate failed and 2
//! on bad arguments.

use std::process::ExitCode;

use gc_trace::Json;
use perfbench::report::{RunResult, END_TO_END, PER_LAYER};
use perfbench::{checker, churn, host, serve};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["mc-flagship", "mc-heap", "gc-churn", "serve"];

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value}: {WORKLOADS:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: need a positive number"))?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: need 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Points the checker's frontier spill files (`std::env::temp_dir`) at a
/// directory next to this executable, inside the build directory.
fn confine_spill_files() -> std::io::Result<()> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or_else(|| std::io::Error::other("executable has no parent directory"))?
        .join("spill");
    std::fs::create_dir_all(&dir)?;
    // Single-threaded here: no other thread reads the environment yet.
    std::env::set_var("TMPDIR", &dir);
    Ok(())
}

fn run(args: &Args) -> RunResult {
    let (s, seed) = (args.seconds, args.seed);
    match (args.workload, args.trace) {
        ("mc-flagship", false) => checker::run(&checker::flagship(), s),
        ("mc-flagship", true) => checker::run_traced(&checker::flagship(), s),
        ("mc-heap", false) => checker::run(&checker::heap_gate(), s),
        ("mc-heap", true) => checker::run_traced(&checker::heap_gate(), s),
        ("gc-churn", false) => churn::run(s),
        ("gc-churn", true) => churn::run_traced(s),
        ("serve", false) => serve::run(seed, s),
        ("serve", true) => serve::run_traced(seed, s),
        (other, _) => unreachable!("parse_args admits only known workloads, got {other}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = confine_spill_files() {
        eprintln!("perfbench: cannot create the spill directory: {e}");
        return ExitCode::from(2);
    }
    let result = run(&args);

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in table {
        println!(
            "{:<34} {:>16.6} {unit}",
            name,
            result.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    for why in &result.errors {
        println!("FAILED: {why}");
    }
    let mut counters = Json::obj();
    for (key, value) in &result.record {
        counters = counters.set(key, value.clone());
    }
    let record = Json::obj()
        .set("workload", args.workload)
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("host", host::descriptor())
        .set("counters", counters);
    println!("{}", Json::obj().set("record", record));
    let line = Json::obj()
        .set("correct", result.correct())
        .set("attempted", result.attempted)
        .set("failed", result.failed)
        .set("metrics", result.metrics_json(table, args.trace));
    println!("{line}");
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
