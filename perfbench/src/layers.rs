//! Per-layer metrics from the traced cells' spans and the scheduler's
//! own sampled telemetry, and the spans file.

use std::io::{BufWriter, Write};

use msweb_cluster::Stage;
use serde::Value;

use crate::cells::{Cell, Workload};
use crate::probe::{Layer, NONE};
use crate::{median, quantile, Metrics};

/// The per-layer metrics of one traced cell.
fn cell_layers(workload: &Workload, cell: &Cell) -> Metrics {
    let record = &cell.record;
    let total = |layer: Layer, inclusive: bool| -> f64 {
        let t = record.total(layer);
        (if inclusive { t.inclusive_ns } else { t.self_ns }) as f64 / 1e9
    };
    let as_f64 = |v: &[u64]| -> Vec<f64> { v.iter().map(|&x| x as f64).collect() };
    // The run span covers fleet set-up on live; the run proper is what
    // remains.
    let run_s = total(Layer::Run, true)
        - if workload.is_live() {
            cell.fleet_s
        } else {
            0.0
        };
    let run_s = run_s.max(1e-9);

    let mut m = Metrics::new();
    m.insert("workload.next_s", (total(Layer::Next, false), "s"));
    let place_s = total(Layer::Place, false);
    m.insert("sched.place_s", (place_s, "s"));
    m.insert("sched.place_share", (place_s / run_s, "ratio"));
    let mut all = as_f64(&record.place_ns);
    let mut dynamic = as_f64(&record.place_dynamic_ns);
    m.insert("sched.place_ns_p50", (quantile(&mut all, 0.5), "ns"));
    m.insert("sched.place_ns_p99", (quantile(&mut all, 0.99), "ns"));
    m.insert(
        "sched.place_dynamic_ns_p50",
        (quantile(&mut dynamic, 0.5), "ns"),
    );
    m.insert("sched.place_errors", (record.place_errors as f64, "count"));
    m.insert("sched.feedback_s", (total(Layer::Feedback, false), "s"));
    let sim_self = total(Layer::Run, false);
    m.insert("sim.self_s", (sim_self, "s"));
    m.insert("sim.self_share", (sim_self / run_s, "ratio"));
    m.insert("setup.probe_s", (cell.probe_s, "s"));
    m.insert("setup.compose_s", (cell.compose_s, "s"));
    m.insert("setup.fleet_s", (cell.fleet_s, "s"));

    // Stage timings come from the scheduler's own 1-in-64 sampling.
    let tel = record.telemetry.as_ref();
    let stage_total: u64 = tel.map_or(0, |t| t.stage_ns.iter().sum());
    for (stage, name) in [
        (Stage::Entry, "sched.stage.entry_ns"),
        (Stage::Admission, "sched.stage.admission_ns"),
        (Stage::Candidates, "sched.stage.candidates_ns"),
        (Stage::Scorer, "sched.stage.scorer_ns"),
        (Stage::Charge, "sched.stage.charge_ns"),
    ] {
        let i = stage as usize;
        let mean = tel.map_or(0.0, |t| {
            t.stage_ns[i] as f64 / t.stage_samples[i].max(1) as f64
        });
        m.insert(name, (mean, "ns"));
    }
    m.insert(
        "sched.stage.candidates_share",
        (
            tel.map_or(0.0, |t| {
                t.stage_ns[Stage::Candidates as usize] as f64 / stage_total.max(1) as f64
            }),
            "ratio",
        ),
    );
    m.insert(
        "sched.candidates_mean",
        (tel.map_or(0.0, |t| t.candidates_hist.mean()), "count"),
    );
    m.insert(
        "sched.remote_share",
        (
            tel.map_or(0.0, |t| t.remote as f64 / t.place_calls.max(1) as f64),
            "ratio",
        ),
    );
    let paths = record.scorer_paths.unwrap_or_default();
    m.insert("sched.scorer.indexed", (paths.indexed as f64, "count"));
    m.insert(
        "sched.scorer.dense_small",
        (paths.dense_small as f64, "count"),
    );
    m.insert(
        "sched.scorer.dense_degenerate",
        (paths.dense_degenerate as f64, "count"),
    );
    m.insert(
        "sched.scorer.dense_no_range",
        (paths.dense_no_range as f64, "count"),
    );
    let scorer_calls = paths.indexed + paths.dense_total();
    m.insert(
        "sched.index_hit_ratio",
        (paths.indexed as f64 / scorer_calls.max(1) as f64, "ratio"),
    );

    let log = cell.log.as_ref();
    m.insert(
        "trace.records",
        (log.map_or(0.0, |l| l.records as f64), "count"),
    );
    m.insert("trace.bytes", (log.map_or(0.0, |l| l.bytes as f64), "B"));
    m.insert("trace.write_s", (total(Layer::Observe, true), "s"));
    m.insert("trace.sink_s", (total(Layer::TraceSink, true), "s"));
    m.insert("trace.parse_s", (log.map_or(0.0, |l| l.parse_s), "s"));
    m.insert("replay.analyze_s", (log.map_or(0.0, |l| l.analyze_s), "s"));
    m.insert(
        "replay.divergent",
        (
            log.and_then(|l| l.replay).map_or(0.0, |(d, _)| d as f64),
            "count",
        ),
    );
    m.insert(
        "series.windows",
        (log.map_or(0.0, |l| l.series_windows as f64), "count"),
    );
    m.insert(
        "series.bytes",
        (log.map_or(0.0, |l| l.series_bytes as f64), "B"),
    );
    m.insert("series.write_s", (total(Layer::SeriesSink, true), "s"));

    let (emu_place, emu_late) = if workload.is_live() {
        let mut late = cell.gen_late_ms.clone();
        (quantile(&mut all, 0.5), quantile(&mut late, 0.5))
    } else {
        (0.0, 0.0)
    };
    m.insert("emu.place_ns_p50", (emu_place, "ns"));
    m.insert("emu.gen_late_ms_p50", (emu_late, "ms"));
    m.insert("bench.spans", (record.spans_total as f64, "count"));
    m
}

/// Medians over the traced cells of each per-layer metric, plus the
/// tracing overhead: untraced against traced throughput.
pub fn per_layer(workload: &Workload, untraced: &[&Cell], traced: &[&Cell]) -> Metrics {
    let per_cell: Vec<Metrics> = traced.iter().map(|c| cell_layers(workload, c)).collect();
    let mut m = Metrics::new();
    if let Some(first) = per_cell.first() {
        for (&name, &(_, unit)) in first {
            m.insert(name, (median(per_cell.iter().map(|c| c[name].0)), unit));
        }
    }
    let untraced_rps = median(untraced.iter().map(|c| c.req_per_s()));
    let traced_rps = median(traced.iter().map(|c| c.req_per_s()));
    m.insert("bench.req_per_s_untraced", (untraced_rps, "1/s"));
    m.insert("bench.req_per_s_traced", (traced_rps, "1/s"));
    m.insert(
        "bench.trace_overhead",
        (untraced_rps / traced_rps.max(1e-9) - 1.0, "ratio"),
    );
    m
}

/// Write the spans `cell` kept (its first [`crate::probe::SPAN_LOG_CAP`]), one per
/// line, under the benchmark's `out/` directory; returns the path.
pub fn write_spans(workload: &str, host: &Value, cell: &Cell) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{workload}.tsv");
    let mut w = BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "# host {}", host.to_json())?;
    writeln!(
        w,
        "# {} of {} spans; times in ns since the cell started",
        cell.record.spans.len(),
        cell.record.spans_total
    )?;
    writeln!(w, "id\tparent\tlayer\treq\tstart_ns\tend_ns")?;
    let field = |v: u64| {
        if v == NONE {
            "-".to_string()
        } else {
            v.to_string()
        }
    };
    for (i, s) in cell.record.spans.iter().enumerate() {
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{}\t{}",
            field(s.parent),
            s.layer.name(),
            field(s.req),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()?;
    Ok(path)
}
