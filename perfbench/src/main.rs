//! The msweb benchmark: runs one named workload for a fixed time, checks
//! its outputs and prints its metrics. See NOTES.md for the workloads,
//! the metrics and how to run it.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-10k --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of the traced run with
//! `--trace 1`. The exit code is non-zero when any correctness check
//! fails.

mod cells;
mod layers;
mod probe;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde::Value;

use cells::{Cell, Workload};

/// Sim tick workers, pinned so results do not depend on the core count.
pub const TICK_WORKERS: usize = 1;

/// Cells run in every invocation regardless of `--seconds`, so each
/// median has enough samples.
const MIN_CELLS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(value.parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// nproc, CPU model, compiler, tick workers and the run's inputs.
fn fingerprint(args: &Args) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(0);
    Value::Object(vec![
        ("nproc".into(), Value::UInt(nproc)),
        ("cpu".into(), Value::Str(cpu)),
        (
            "rustc".into(),
            Value::Str(env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ),
        ("tick_workers".into(), Value::UInt(TICK_WORKERS as u64)),
        ("seed".into(), Value::UInt(args.seed)),
        ("workload".into(), Value::Str(args.workload.name().into())),
        ("trace".into(), Value::Bool(args.trace)),
        ("seconds".into(), Value::UInt(args.seconds)),
        (
            "requests_per_cell".into(),
            Value::UInt(args.workload.requests() as u64),
        ),
    ])
}

/// Process-wide peak RSS (`VmHWM`) in MiB; 0 where unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile of an unsorted sample; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// A metric value with its unit.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The end-to-end metrics every workload reports (BENCHMARK.json
/// `end_to_end`), medians over the untraced cells.
fn end_to_end(cells: &[&Cell]) -> Metrics {
    let mut m = Metrics::new();
    let med = |f: &dyn Fn(&Cell) -> f64| median(cells.iter().map(|c| f(c)));
    m.insert("setup_s", (med(&|c| c.setup_s), "s"));
    m.insert("req_per_s", (med(&|c| c.req_per_s()), "1/s"));
    m.insert("peak_rss_mib", (peak_rss_mib(), "MiB"));
    m.insert("stretch", (med(&|c| c.summary.stretch), "ratio"));
    m.insert(
        "stretch_dynamic",
        (med(&|c| c.summary.stretch_dynamic), "ratio"),
    );
    m.insert(
        "p99_static_response_ms",
        (med(&|c| c.summary.p99_static_response_s * 1e3), "ms"),
    );
    m.insert(
        "median_dynamic_response_ms",
        (med(&|c| c.summary.median_dynamic_response_s * 1e3), "ms"),
    );
    m
}

/// End-to-end metrics that exist on one workload only, plus the error
/// rate; printed with every run and reported in the traced run.
fn workload_specific(cells: &[&Cell], attempted: u64, failed: u64) -> Metrics {
    let mut m = Metrics::new();
    let med = |f: &dyn Fn(&Cell) -> f64| median(cells.iter().map(|c| f(c)));
    m.insert(
        "error_rate",
        (failed as f64 / attempted.max(1) as f64, "ratio"),
    );
    m.insert(
        "log_bytes_per_decision",
        (
            med(&|c| {
                c.log
                    .as_ref()
                    .map(|l| l.bytes as f64 / l.decisions.max(1) as f64)
                    .unwrap_or(0.0)
            }),
            "B",
        ),
    );
    m.insert(
        "analyze_s",
        (
            med(&|c| {
                c.log
                    .as_ref()
                    .map(|l| l.parse_s + l.analyze_s)
                    .unwrap_or(0.0)
            }),
            "s",
        ),
    );
    m.insert(
        "gen_late_ms_p99",
        (
            med(&|c| {
                let mut late = c.gen_late_ms.clone();
                quantile(&mut late, 0.99)
            }),
            "ms",
        ),
    );
    m
}

fn to_json(metrics: &Metrics) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, (value, unit))| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(*value)),
                        ("unit".into(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn print_table(title: &str, metrics: &Metrics) {
    println!("{title}");
    for (name, (value, unit)) in metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
}

fn main() {
    let args = parse_args();
    let host = fingerprint(&args);
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host.to_json());

    // Untraced and traced cells alternate in a traced run, so the
    // overhead compares cells measured under the same host conditions.
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut cells: Vec<Cell> = Vec::new();
    let min_cells = if args.trace { 2 * MIN_CELLS } else { MIN_CELLS };
    while cells.len() < min_cells || started.elapsed() < budget {
        let traced = args.trace && cells.len() % 2 == 1;
        let index = if args.trace {
            cells.len() / 2
        } else {
            cells.len()
        };
        cells.push(args.workload.run_cell(args.seed, index as u64, traced));
    }
    for (i, c) in cells.iter().enumerate() {
        println!(
            "cell {i:>3} {:<8} setup {:.6} s  run {:.4} s  {:>10.1} req/s  stretch {:.4}",
            if c.traced { "traced" } else { "untraced" },
            c.setup_s,
            c.run_s,
            c.req_per_s(),
            c.summary.stretch
        );
    }
    let untraced: Vec<&Cell> = cells.iter().filter(|c| !c.traced).collect();
    let traced: Vec<&Cell> = cells.iter().filter(|c| c.traced).collect();

    let checks = cells::check(&args.workload, &cells);
    for line in &checks.messages {
        println!("check {line}");
    }
    let e2e = end_to_end(&untraced);
    let specific = workload_specific(&untraced, checks.attempted, checks.failed);
    println!(
        "cells: {} untraced, {} traced; {} requests per cell",
        untraced.len(),
        traced.len(),
        args.workload.requests()
    );
    print_table("end-to-end (untraced cells):", &e2e);
    print_table("workload-specific end-to-end:", &specific);

    let reported = if args.trace {
        let mut per_layer = layers::per_layer(&args.workload, &untraced, &traced);
        per_layer.extend(specific.iter().map(|(k, v)| (*k, *v)));
        print_table("per-layer (traced cells):", &per_layer);
        if let Some(last) = traced.last() {
            match layers::write_spans(args.workload.name(), &host, last) {
                Ok(path) => println!("spans of the last traced cell written to {path}"),
                Err(e) => println!("spans not written: {e}"),
            }
        }
        per_layer
    } else {
        e2e
    };

    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(checks.failed == 0)),
        ("attempted".into(), Value::UInt(checks.attempted)),
        ("failed".into(), Value::UInt(checks.failed)),
        ("metrics".into(), to_json(&reported)),
    ]);
    println!("{}", result.to_json());
    if checks.failed != 0 {
        std::process::exit(1);
    }
}
