//! `slj-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <analyze-full|wire-frames|http-clips> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Synthesises seeded clips, checks that every layer returns the
//! in-process reference report byte for byte, runs the workload, and
//! prints every metric by name and unit; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. See `perfbench/README.md`.

mod clips;
mod http;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use workloads::{Metric, Options, Outcome, Workload};

/// Seed reserved for checking a performance claim on inputs nobody
/// tuned against: never use it while developing a change.
const RESERVED_SEED: u64 = 7_919;

/// End-to-end metric names, as in `BENCHMARK.json`.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "clips_per_s",
    "success_frac",
    "peak_rss_mb",
    "pose_rmse_px",
    "distance_err_cm",
    "verdict_match_frac",
];

const USAGE: &str = "usage: slj-perfbench --workload <analyze-full|wire-frames|http-clips> \
--seed <n> --seconds <s> --trace <0|1>\n       slj-perfbench --self-test";

fn main() -> ExitCode {
    // Every relative path the benchmark touches (socket, ledgers) lives
    // in the benchmark's own directory.
    if let Err(e) = std::env::set_current_dir(env!("CARGO_MANIFEST_DIR")) {
        eprintln!("perfbench: cannot enter the benchmark directory: {e}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return self_test();
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    println!("facts {}", facts(opts.seed));
    match workloads::run(&opts) {
        Ok(outcome) => {
            print_outcome(&outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        pool: None,
        setup_reps: None,
    })
}

/// The facts every number depends on, as one JSON object.
fn facts(seed: u64) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim())
        .to_owned();
    let online = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let available = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"seed\":{seed},\"reserved_seed\":{RESERVED_SEED},\"online_cpus\":{online},\
\"available_parallelism\":{available},\"auto_threads\":{},\"eq3_kernel\":\"{}\",\
\"cpu_model\":\"{}\"}}",
        slj_runtime::Parallelism::Auto.threads(),
        eq3_dispatch(),
        cpu_model.replace('"', "'")
    )
}

/// Which Eq. 3 lane kernel the GA dispatches to on this CPU (the same
/// runtime feature tests the kernel makes).
fn eq3_dispatch() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "chunked-scalar"
}

fn result_json(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_owned()
        };
        let _ = write!(
            metrics,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    )
}

fn print_outcome(outcome: &Outcome) {
    for note in &outcome.notes {
        println!("# {note}");
    }
    for Metric { name, unit, value } in &outcome.metrics {
        println!("{name:<28} {value:>14.4} {unit}");
    }
    println!("{}", result_json(outcome));
}

/// Names listed under `key` in `BENCHMARK.json` (the file sits one
/// directory above the benchmark's own).
fn benchmark_names(key: &str) -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string("../BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let start = text
        .find(&format!("\"{key}\""))
        .ok_or_else(|| format!("BENCHMARK.json has no {key}"))?;
    let section = &text[start..];
    let end = section.find(']').unwrap_or(section.len());
    Ok(section[..end]
        .split("\"name\"")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1).map(str::to_owned))
        .collect())
}

/// One clip per workload: the output schema, every metric name of
/// `BENCHMARK.json`, and an altered report byte tripping the gate.
fn self_test() -> ExitCode {
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        println!("{} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            failures.push(what);
        }
    };
    let expected = |key: &str| benchmark_names(key).unwrap_or_else(|e| vec![e]);
    let end_to_end = expected("end_to_end");
    let per_layer = expected("per_layer");
    check(
        end_to_end == END_TO_END,
        format!("BENCHMARK.json end_to_end names are the benchmark's: {end_to_end:?}"),
    );
    let workloads = expected("workloads");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    check(
        workloads == names,
        format!("BENCHMARK.json workloads are {names:?}"),
    );
    for w in Workload::ALL {
        for (trace, names) in [(false, &end_to_end), (true, &per_layer)] {
            let opts = Options {
                workload: w,
                seed: 1,
                seconds: 1.0,
                trace,
                pool: Some(1),
                setup_reps: Some(1),
            };
            let label = format!("{} --trace {}", w.name(), u8::from(trace));
            match workloads::run(&opts) {
                Ok(outcome) => {
                    let json = result_json(&outcome);
                    let ok = outcome.correct && outcome.failed == 0 && outcome.attempted > 0;
                    check(
                        ok,
                        if ok {
                            format!("{label}: correct with no failures")
                        } else {
                            format!("{label}: not correct: {:?}", outcome.notes)
                        },
                    );
                    let got: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
                    check(
                        got.len() == names.len() && names.iter().all(|n| got.contains(&n.as_str())),
                        format!(
                            "{label}: metrics are exactly BENCHMARK.json's ({} names)",
                            names.len()
                        ),
                    );
                    check(
                        json.starts_with("{\"correct\": ")
                            && json.contains("\"attempted\": ")
                            && json.contains("\"failed\": ")
                            && json.contains("\"metrics\": {")
                            && !json.contains("null"),
                        format!("{label}: result line schema"),
                    );
                }
                Err(e) => check(false, format!("{label}: {e}")),
            }
        }
        workloads::corrupt_next_report();
        let opts = Options {
            workload: w,
            seed: 1,
            seconds: 1.0,
            trace: false,
            pool: Some(1),
            setup_reps: Some(1),
        };
        match workloads::run(&opts) {
            Ok(outcome) => check(
                !outcome.correct && outcome.failed >= 1,
                format!(
                    "{}: one altered report byte fails the run (correct={}, failed={})",
                    w.name(),
                    outcome.correct,
                    outcome.failed
                ),
            ),
            Err(e) => check(
                false,
                format!("{}: altered-byte run errored: {e}", w.name()),
            ),
        }
    }
    if failures.is_empty() {
        println!("self-test passed");
        ExitCode::SUCCESS
    } else {
        println!("self-test FAILED: {} check(s)", failures.len());
        ExitCode::FAILURE
    }
}
