//! The workloads and one cell of each: set up, run `requests()` requests
//! through the public API, and return what the run produced.

use std::time::Instant;

use msweb_cluster::{
    analyze, plan_masters, ClusterConfig, ClusterSim, JsonlSink, PolicyKind, ReplayOptions,
    RunSummary, SchedulerRegistry, SeriesRecorder, StageSpec, TraceEvent, TraceLog, WorkloadStats,
};
use msweb_emu::{emulate_source, live_stats, LiveConfig, LiveRunOptions};
use msweb_simcore::{split_seed, SimTime};
use msweb_workload::{adl, ucb, DemandModel, RateScaling, ScaledSource, TraceSpec};

use crate::probe::{
    self, Layer, Probed, ProbedObserver, ProbedSource, ProbedWriter, Record, SharedBuf, NONE,
};
use crate::TICK_WORKERS;

/// The paper's master/slave composition, used by every workload.
pub const SPEC: &str = "rotation-masters/reservation/level-split/rsrc-indexed-reserve/split-demand";

/// Requests in the statistics probe prefix (as `msweb scale` uses).
const PROBE_PREFIX: usize = 50_000;

/// A simulated workload.
pub struct SimShape {
    trace: fn() -> TraceSpec,
    p: usize,
    lambda: f64,
    inv_r: f64,
    n: usize,
    /// Attach a decision log and a telemetry series, then self-replay.
    logged: bool,
}

/// The live (thread-backed, real-time) workload.
pub struct LiveShape {
    rate: f64,
    time_scale: f64,
    masters: usize,
    n: usize,
}

pub enum Workload {
    Sim(&'static str, SimShape),
    Live(&'static str, LiveShape),
}

impl Workload {
    pub const NAMES: [&'static str; 4] = ["fleet-10k", "paper-32", "traced-1k", "live-6"];

    pub fn from_name(name: &str) -> Option<Workload> {
        Some(match name {
            "fleet-10k" => Workload::Sim(
                "fleet-10k",
                SimShape {
                    trace: ucb,
                    p: 10_000,
                    lambda: 31.25 * 10_000.0,
                    inv_r: 40.0,
                    n: 300_000,
                    logged: false,
                },
            ),
            "paper-32" => Workload::Sim(
                "paper-32",
                SimShape {
                    trace: adl,
                    p: 32,
                    lambda: 1000.0,
                    inv_r: 40.0,
                    n: 400_000,
                    logged: false,
                },
            ),
            "traced-1k" => Workload::Sim(
                "traced-1k",
                SimShape {
                    trace: ucb,
                    p: 1000,
                    lambda: 31.25 * 1000.0,
                    inv_r: 40.0,
                    n: 20_000,
                    logged: true,
                },
            ),
            "live-6" => Workload::Live(
                "live-6",
                LiveShape {
                    rate: 40.0,
                    time_scale: 0.5,
                    masters: 3,
                    n: 300,
                },
            ),
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::Sim(name, _) | Workload::Live(name, _) => name,
        }
    }

    pub fn requests(&self) -> usize {
        match self {
            Workload::Sim(_, s) => s.n,
            Workload::Live(_, l) => l.n,
        }
    }

    pub fn is_live(&self) -> bool {
        matches!(self, Workload::Live(..))
    }

    /// Run cell `index` of the run seeded with `seed`. Sim cells all
    /// replay the same inputs, so their outputs must agree byte for byte
    /// and their host times are repeated measurements of one job. Live
    /// cells each draw their own inputs from `(seed, index)`: a live
    /// run is not reproducible anyway, and the median then spans
    /// several workload draws instead of one.
    pub fn run_cell(&self, seed: u64, index: u64, traced: bool) -> Cell {
        match self {
            Workload::Sim(_, s) => sim_cell(s, seed, traced),
            Workload::Live(_, l) => live_cell(l, split_seed(seed, index), traced),
        }
    }
}

/// What the self-replay of a recorded decision log found.
pub struct LogOutcome {
    pub bytes: u64,
    pub records: u64,
    pub decisions: u64,
    pub parse_s: f64,
    pub analyze_s: f64,
    /// `None` when the log could not be parsed or replayed.
    pub replay: Option<(u64, u64)>,
    pub series_windows: u64,
    pub series_bytes: u64,
}

/// One cell: set-up, run and (on `traced-1k`) self-replay.
pub struct Cell {
    pub traced: bool,
    pub n: usize,
    /// Cell start to the first placement (sim) or first request pull
    /// (live).
    pub setup_s: f64,
    pub probe_s: f64,
    pub compose_s: f64,
    pub fleet_s: f64,
    /// End of set-up to the end of the run.
    pub run_s: f64,
    pub summary: RunSummary,
    pub summary_json: String,
    pub log: Option<LogOutcome>,
    /// How late the live generator placed each request, ms.
    pub gen_late_ms: Vec<f64>,
    /// The wrappers' record (spans only in traced cells).
    pub record: Record,
}

impl Cell {
    pub fn req_per_s(&self) -> f64 {
        self.summary.completed as f64 / self.run_s.max(1e-9)
    }
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

fn stage_spec() -> StageSpec {
    StageSpec::parse(SPEC).expect("the built-in M/S spec parses")
}

fn sim_cell(w: &SimShape, seed: u64, traced: bool) -> Cell {
    let start = Instant::now();
    probe::begin_cell(start);
    let spec_trace = (w.trace)();
    let demand = DemandModel::simulation(w.inv_r);

    let prefix = spec_trace.generate(w.n.min(PROBE_PREFIX), &demand, seed);
    let t0 = prefix
        .requests
        .first()
        .map(|r| r.arrival)
        .unwrap_or(SimTime::ZERO);
    let scaling = RateScaling::to_rate(prefix.mean_rate(), t0, w.lambda);
    let stats = WorkloadStats::from_trace(&prefix);
    drop(prefix);
    let m = plan_masters(
        w.p,
        w.lambda,
        spec_trace.arrival_ratio_a(),
        1.0 / w.inv_r,
        1200.0,
    );
    let probed = Instant::now();

    let cfg = ClusterConfig::simulation(w.p, PolicyKind::MasterSlave)
        .with_masters(m)
        .with_seed(seed);
    let spec = stage_spec();
    let mut scheduler = SchedulerRegistry::builtin()
        .compose(&cfg, &spec, stats.a0, stats.r0)
        .expect("the M/S composition builds");
    if traced {
        scheduler.set_telemetry_enabled(true);
    }
    let log = SharedBuf::default();
    if w.logged {
        let writer = ProbedWriter::new(log.clone(), traced, Layer::TraceSink);
        scheduler.set_observer(Some(Box::new(ProbedObserver::new(
            JsonlSink::new(writer),
            traced,
        ))));
    }
    let composed = Instant::now();

    let mut sim = ClusterSim::with_scheduler(cfg, Probed::new(scheduler, traced, false))
        .with_priors(stats.a0, stats.r0)
        .with_mean_demands(stats.static_mean, stats.dynamic_mean)
        .with_spec_label(spec.render())
        .with_tick_workers(TICK_WORKERS);
    let series = SharedBuf::default();
    if w.logged {
        let writer = ProbedWriter::new(series.clone(), traced, Layer::SeriesSink);
        sim = sim.with_series(SeriesRecorder::to_writer(Box::new(writer)));
    }
    let built = Instant::now();

    let source = ProbedSource::new(
        ScaledSource::new(spec_trace.stream(w.n, &demand, seed), scaling),
        traced,
        false,
    );
    let summary = probe::span(traced, Layer::Run, NONE, || sim.run_source(source));
    let end = Instant::now();
    let series_windows = sim.take_series().map(|r| r.records()).unwrap_or(0);
    // Dropping the cluster drops the wrapper, which hands the
    // scheduler's telemetry to the recorder.
    drop(sim);

    let log = w.logged.then(|| {
        let bytes = log.take();
        let records = bytes.iter().filter(|&&b| b == b'\n').count() as u64;
        let size = bytes.len() as u64;
        let text = String::from_utf8(bytes).unwrap_or_default();
        let t = Instant::now();
        let parsed = probe::span(traced, Layer::Parse, NONE, || TraceLog::parse(&text));
        let parsed_at = Instant::now();
        let decisions = parsed.as_ref().map_or(0, |p| {
            p.events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Decision(_)))
                .count() as u64
        });
        let replay = parsed.ok().and_then(|p| {
            probe::span(traced, Layer::Analyze, NONE, || {
                analyze(&p, &ReplayOptions::default()).ok()
            })
        });
        let analyzed = Instant::now();
        let series_bytes = series.take().len() as u64;
        LogOutcome {
            bytes: size,
            records,
            decisions,
            parse_s: secs(t, parsed_at),
            analyze_s: secs(parsed_at, analyzed),
            replay: replay.map(|r| (r.divergent, r.decisions)),
            series_windows,
            series_bytes,
        }
    });

    let mut record = probe::end_cell();
    record.push_interval(Layer::SetupProbe, start, probed, None);
    record.push_interval(Layer::SetupCompose, probed, composed, None);
    record.push_interval(Layer::SetupFleet, composed, built, None);
    let first = record.first_place.unwrap_or(end);
    Cell {
        traced,
        n: w.n,
        setup_s: secs(start, first),
        probe_s: secs(start, probed),
        compose_s: secs(probed, composed),
        fleet_s: secs(composed, built),
        run_s: secs(first, end),
        summary_json: serde::to_json_string(&summary),
        summary,
        log,
        gen_late_ms: Vec::new(),
        record,
    }
}

fn live_cell(w: &LiveShape, seed: u64, traced: bool) -> Cell {
    let start = Instant::now();
    probe::begin_cell(start);
    let trace = ucb()
        .generate(w.n, &DemandModel::sun_cluster(40.0), seed)
        .scaled_to_rate(w.rate);
    let stats = live_stats(&trace);
    let probed = Instant::now();

    let spec = stage_spec();
    let mut cfg = LiveConfig::sun_cluster(PolicyKind::MasterSlave, w.masters).with_spec(SPEC);
    cfg.time_scale = w.time_scale;
    cfg.seed = seed;
    let mut scheduler = SchedulerRegistry::builtin()
        .compose(&cfg.cluster_config(), &spec, stats.a0, stats.r0)
        .expect("the M/S composition builds");
    if traced {
        scheduler.set_telemetry_enabled(true);
    }
    let composed = Instant::now();

    let source = ProbedSource::new(trace.into_source(), traced, true);
    let scheduler = Probed::new(scheduler, traced, true);
    let outcome = probe::span(traced, Layer::Run, NONE, || {
        emulate_source(&cfg, source, stats, scheduler, LiveRunOptions::new())
    });
    let end = Instant::now();

    let mut record = probe::end_cell();
    let first = record.first_pull.unwrap_or(end);
    // On live the fleet (node threads) is built inside the run call,
    // before its first request pull.
    record.push_interval(Layer::SetupProbe, start, probed, None);
    record.push_interval(Layer::SetupCompose, probed, composed, None);
    record.push_interval(Layer::SetupFleet, composed, first, Some(Layer::Run));
    let scale = w.time_scale;
    let gen_late_ms = record
        .noted_us
        .iter()
        .filter_map(|&(req, at_us)| {
            let due_us = *record.arrivals_us.get(req as usize)? as f64 * scale;
            Some((at_us as f64 - due_us) / 1e3)
        })
        .collect();
    Cell {
        traced,
        n: w.n,
        setup_s: secs(start, first),
        probe_s: secs(start, probed),
        compose_s: secs(probed, composed),
        fleet_s: secs(composed, first),
        run_s: secs(first, end),
        summary_json: serde::to_json_string(&outcome.summary),
        summary: outcome.summary,
        log: None,
        gen_late_ms,
        record,
    }
}

/// Outcome of the correctness checks over a run's cells.
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

/// Every cell must account for each request; sim cells of one seed must
/// produce byte-identical summaries, traced or not; the decision log
/// must self-replay with no divergence and one decision per request.
pub fn check(workload: &Workload, cells: &[Cell]) -> Checks {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut messages = Vec::new();
    let reference = cells.first().map(|c| c.summary_json.clone());
    for (i, c) in cells.iter().enumerate() {
        let n = c.n as u64;
        attempted += n;
        let mut bad = 0u64;
        let s = &c.summary;
        if s.completed + s.dropped != n || c.record.pulled != n {
            messages.push(format!(
                "FAIL cell {i}: completed {} + dropped {} != {n} requests (pulled {})",
                s.completed, s.dropped, c.record.pulled
            ));
        }
        bad = bad.max(n.saturating_sub(s.completed));
        if workload.is_live() && s.completed != n {
            messages.push(format!(
                "FAIL cell {i}: live run completed {} of {n}",
                s.completed
            ));
        }
        if !workload.is_live() && reference.as_deref() != Some(c.summary_json.as_str()) {
            messages.push(format!(
                "FAIL cell {i} ({}): summary differs from cell 0",
                if c.traced { "traced" } else { "untraced" }
            ));
            bad = n;
        }
        if let Some(log) = &c.log {
            match log.replay {
                Some((divergent, decisions)) if divergent == 0 && decisions == n => {}
                Some((divergent, decisions)) => {
                    messages.push(format!(
                        "FAIL cell {i}: self-replay divergent {divergent}, decisions {decisions} of {n}"
                    ));
                    bad = bad.max(divergent + decisions.abs_diff(n));
                }
                None => {
                    messages.push(format!("FAIL cell {i}: decision log did not replay"));
                    bad = n;
                }
            }
        }
        failed += bad.min(n);
    }
    if failed == 0 {
        messages.push(format!(
            "ok: {} cells, every request accounted for{}{}",
            cells.len(),
            if workload.is_live() {
                ", every live request completed"
            } else {
                ", summaries byte-identical across cells (traced and untraced)"
            },
            if cells.iter().any(|c| c.log.is_some()) {
                ", self-replay divergent = 0 with one decision per request"
            } else {
                ""
            }
        ));
    }
    Checks {
        attempted,
        failed,
        messages,
    }
}
