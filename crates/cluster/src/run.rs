//! The per-run protocol both substrates share.
//!
//! A run of either substrate — the discrete-event [`ClusterSim`] or the
//! live thread-backed emulation in `msweb-emu` — follows one protocol
//! around the scheduler: announce the run, place each arrival, account
//! each completion, close each monitor window, summarise. [`RunCore`]
//! owns that protocol together with everything it touches (the
//! scheduler, [`Metrics`], the telemetry probe, the series recorder,
//! the SLO engine and the run's labels), so the two substrates keep
//! only what actually differs between them: how time passes, how nodes
//! execute work and where the load snapshots come from.
//!
//! The core is generic over [`Schedule`] and monomorphised into each
//! substrate, and its per-request steps allocate nothing beyond what
//! [`Metrics`] and the attached observers already do.
//!
//! [`ClusterSim`]: crate::ClusterSim

use msweb_ossim::LoadSnapshot;
use msweb_simcore::{SimDuration, SimTime};

use crate::config::ClusterConfig;
use crate::loadinfo::LoadMonitor;
use crate::metrics::{Level, Metrics, RunSummary};
use crate::sched::{
    DropRecord, NodeSample, Placement, ReqKnowledge, RunMeta, Schedule, TraceEvent,
};
use crate::telemetry::series::{SeriesMeta, SeriesRecorder, SeriesWindowInput};
use crate::telemetry::slo::SloEngine;
use crate::telemetry::{SchedTelemetry, TelemetryProbe, TelemetrySnapshot, WindowSample};

/// What the front end knows about one arrival when it asks for a
/// placement.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Request id (admission sequence number).
    pub seq: u64,
    /// Arrival time, substrate time.
    pub at: SimTime,
    /// The service demand the attained-service books are opened with.
    pub demand: SimDuration,
    /// Client origin region (0 for regionless workloads).
    pub origin: usize,
}

/// What one run produced, on either substrate.
#[derive(Debug)]
pub struct RunOutcome {
    /// The run summary.
    pub summary: RunSummary,
    /// The telemetry snapshot, when telemetry was requested.
    pub telemetry: Option<TelemetrySnapshot>,
    /// The series recorder, flushed, when one was attached (e.g. to
    /// read [`SeriesRecorder::records`]).
    pub series: Option<SeriesRecorder>,
    /// The SLO engine after the run, when rules were attached (e.g. to
    /// read [`SloEngine::alerts_fired`]).
    pub slo: Option<SloEngine>,
}

/// The substrate-independent half of a run: the scheduler plus the
/// accounting and observability around it. See the module docs.
pub struct RunCore<S: Schedule> {
    scheduler: S,
    metrics: Metrics,
    probe: Option<TelemetryProbe>,
    series: Option<SeriesRecorder>,
    slo: Option<SloEngine>,
    config: ClusterConfig,
    /// `"sim"` or `"live"`.
    substrate: &'static str,
    /// Registry stage-spec label, for custom compositions.
    spec: Option<String>,
    /// Reservation priors `(a0, r0)` the scheduler was seeded with.
    priors: (f64, f64),
}

impl<S: Schedule> RunCore<S> {
    /// A core for one run of `scheduler` on `config`, labelled with
    /// `substrate` and the reservation `priors` the scheduler was
    /// seeded with. Nothing is attached yet.
    pub fn new(
        substrate: &'static str,
        config: ClusterConfig,
        scheduler: S,
        priors: (f64, f64),
    ) -> Self {
        RunCore {
            scheduler,
            metrics: Metrics::new(),
            probe: None,
            series: None,
            slo: None,
            config,
            substrate,
            spec: None,
            priors,
        }
    }

    /// Record the reservation priors in the meta line.
    pub fn set_priors(&mut self, a0: f64, r0: f64) {
        self.priors = (a0, r0);
    }

    /// Record a registry stage-spec label: it goes into the meta line
    /// and replaces the policy slug in every telemetry label.
    pub fn set_spec(&mut self, spec: Option<String>) {
        self.spec = spec;
    }

    /// Turn on the scheduler's per-stage counters and install a
    /// telemetry probe.
    pub fn enable_telemetry(&mut self) {
        self.scheduler.set_telemetry_enabled(true);
        self.probe = Some(TelemetryProbe::new());
    }

    /// Attach a windowed series recorder; implies the scheduler's
    /// per-stage counters so the per-window deltas are real.
    pub fn set_series(&mut self, recorder: SeriesRecorder) {
        self.scheduler.set_telemetry_enabled(true);
        self.series = Some(recorder);
    }

    /// Attach an SLO engine, evaluated at every [`RunCore::tick`].
    pub fn set_slo(&mut self, engine: SloEngine) {
        self.slo = Some(engine);
    }

    /// Take back the series recorder.
    pub fn take_series(&mut self) -> Option<SeriesRecorder> {
        self.series.take()
    }

    /// The attached SLO engine, if any.
    pub fn slo_engine(&self) -> Option<&SloEngine> {
        self.slo.as_ref()
    }

    /// The configuration in force.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The scheduler.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Mutable access to the scheduler, for substrate-specific calls
    /// (service start/progress, node death, fail-over re-placement).
    pub fn scheduler_mut(&mut self) -> &mut S {
        &mut self.scheduler
    }

    /// The run's metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to the metrics, for substrate-specific counters
    /// (restarts, cache hits).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The telemetry probe, when telemetry is enabled.
    pub fn probe(&self) -> Option<&TelemetryProbe> {
        self.probe.as_ref()
    }

    /// Whether [`RunCore::tick`] builds a window sample (and so reads
    /// the substrate's busy gauges).
    pub fn wants_window(&self) -> bool {
        self.probe.is_some() || self.series.is_some()
    }

    /// Open the run: the decision log's meta line (when tracing) and
    /// the series header (when a recorder is attached).
    pub fn begin(&mut self) {
        if self.scheduler.tracing() {
            let cc = &self.config;
            let meta = RunMeta {
                substrate: self.substrate.to_string(),
                p: cc.p(),
                m: self.scheduler.masters(),
                policy: cc.policy().slug().to_string(),
                spec: self.spec.clone(),
                seed: cc.seed(),
                a0: self.priors.0,
                r0: self.priors.1,
                master_reserve: cc.master_reserve(),
                dns_skew: cc.dns_skew(),
                monitor_period_us: cc.monitor_period().as_micros(),
                remote_latency_us: cc.remote_latency().as_micros(),
                redirect_rtt_us: cc.redirect_rtt().as_micros(),
                speeds: cc.speeds().map(<[f64]>::to_vec),
                regions: self.scheduler.region_topology().cloned(),
            };
            self.scheduler.emit(&TraceEvent::Meta(meta));
        }
        if let Some(rec) = &mut self.series {
            rec.begin(&SeriesMeta {
                substrate: self.substrate,
                policy: policy_label(&self.spec, &self.config),
                p: self.config.p(),
                m: self.scheduler.masters(),
                seed: self.config.seed(),
            });
        }
    }

    /// Place one arrival: open its books with the scheduler, then ask
    /// for a placement. When no live node exists the request is
    /// dropped (counted, and logged as a front-end drop) and `None`
    /// comes back.
    pub fn place(
        &mut self,
        arrival: Arrival,
        dynamic: bool,
        know: ReqKnowledge,
        monitor: &mut LoadMonitor,
    ) -> Option<Placement> {
        self.scheduler
            .note_request(arrival.seq, arrival.at, arrival.demand);
        self.scheduler.note_origin(arrival.origin);
        match self.scheduler.place(dynamic, know, monitor) {
            Ok(placement) => Some(placement),
            Err(_) => {
                self.drop_request(DropRecord {
                    req: arrival.seq,
                    at_us: arrival.at.0,
                    dynamic,
                    w: know.w,
                    expected_us: know.expected.as_micros(),
                    redrive: true,
                    restart: false,
                    origin: arrival.origin,
                });
                None
            }
        }
    }

    /// Count a dropped request and log it (when tracing).
    pub fn drop_request(&mut self, record: DropRecord) {
        self.metrics.note_dropped();
        if self.scheduler.tracing() {
            self.scheduler.emit(&TraceEvent::Drop(record));
        }
    }

    /// Account one completion. `demand` is the contention-free demand
    /// the stretch factor divides by; `served` is the service the
    /// request actually received, which closes its attained-service
    /// books.
    pub fn complete(
        &mut self,
        req: u64,
        node: usize,
        level: Option<Level>,
        response: SimDuration,
        demand: SimDuration,
        served: SimDuration,
    ) {
        let dynamic = level.is_some();
        self.metrics.record(response, demand, level);
        if let Some(probe) = &self.probe {
            probe.record_response(dynamic, response.as_micros());
        }
        self.scheduler.note_completion(node);
        self.scheduler.note_service_end(node, req, served);
        self.scheduler
            .reservation_mut()
            .note_response(dynamic, response);
        if self.scheduler.tracing() {
            self.scheduler.emit(&TraceEvent::Complete {
                req,
                node,
                dynamic,
                response_us: response.as_micros(),
            });
        }
    }

    /// Close one monitor window at `at`, after the substrate has
    /// refreshed the load view (`snapshots`, mean utilisation `rho`).
    /// θ̂ is captured before the controller update resets it; the Tick
    /// event precedes any SLO alert it triggers. `busy` is this
    /// window's per-node busy gauge when the substrate computes one
    /// (it is published to the probe); `None` leaves the probe's
    /// gauges to their owner and records them as they stand.
    pub fn tick(
        &mut self,
        at: SimTime,
        snapshots: &[LoadSnapshot],
        rho: f64,
        busy: Option<&[f64]>,
    ) {
        let theta_hat = self.scheduler.reservation().master_fraction();
        self.scheduler.reservation_mut().update(rho);
        let window = self.wants_window().then(|| {
            let sample = self.window_sample(at, rho, theta_hat);
            if let Some(probe) = &self.probe {
                probe.record_window(sample);
                if let Some(busy) = busy {
                    probe.set_node_busy(busy);
                }
            }
            sample
        });
        let window_stretch = self.metrics.close_window();
        if let Some(rec) = &mut self.series {
            let sample = window.as_ref().expect("window computed when series is on");
            let probe_busy;
            let node_busy = match busy {
                Some(busy) => busy,
                None => {
                    probe_busy = self
                        .probe
                        .as_ref()
                        .map(TelemetryProbe::node_busy)
                        .unwrap_or_default();
                    &probe_busy
                }
            };
            rec.record(&SeriesWindowInput {
                window: sample,
                sched: self.scheduler.telemetry(),
                node_busy,
                window_stretch,
                drops: self.metrics.dropped(),
            });
        }
        if self.scheduler.tracing() {
            self.scheduler.emit(&TraceEvent::Tick {
                at_us: at.0,
                rho,
                nodes: snapshots.iter().map(NodeSample::from_snapshot).collect(),
            });
        }
        if let Some(engine) = &mut self.slo {
            let alerts = engine.observe_cumulative(
                at.0,
                window_stretch,
                self.metrics.completed(),
                self.metrics.dropped(),
                self.scheduler.reservation().clamp_events(),
            );
            for alert in &alerts {
                eprintln!("{}", alert.to_line());
                if self.scheduler.tracing() {
                    self.scheduler.emit(&alert.to_trace_event());
                }
            }
        }
    }

    /// Guarantee a probe-carrying run at least one controller window
    /// and one series record, even when it ended before its first
    /// monitor tick, and leave `busy` (a whole-run average) in the
    /// probe's gauges. The controller is sampled, not updated.
    pub fn ensure_window(&mut self, at: SimTime, rho: f64, busy: &[f64]) {
        let Some(probe) = &self.probe else {
            return;
        };
        if probe.window_count() == 0 {
            let theta_hat = self.scheduler.reservation().master_fraction();
            probe.record_window(self.window_sample(at, rho, theta_hat));
        }
        probe.set_node_busy(busy);
        if let Some(rec) = &mut self.series {
            if rec.records() == 0 {
                let sample = probe.last_window().expect("fallback window recorded");
                rec.record(&SeriesWindowInput {
                    window: &sample,
                    sched: self.scheduler.telemetry(),
                    node_busy: busy,
                    window_stretch: self.metrics.close_window(),
                    drops: self.metrics.dropped(),
                });
            }
        }
    }

    /// The controller's state at `at`, with the θ̂ read before its
    /// last update.
    fn window_sample(&self, at: SimTime, rho: f64, theta_hat: f64) -> WindowSample {
        let res = self.scheduler.reservation();
        let (a_hat, r_hat) = res.measured();
        WindowSample {
            at_us: at.0,
            theta2_star: res.theta2_star(),
            a_hat,
            r_hat,
            rho,
            theta_hat,
            clamp_events: res.clamp_events(),
        }
    }

    /// Assemble the telemetry snapshot of the run so far; `None`
    /// without a probe. A scheduler that keeps no per-stage telemetry
    /// reports empty counters.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        let probe = self.probe.as_ref()?;
        let empty;
        let sched = match self.scheduler.telemetry() {
            Some(sched) => sched,
            None => {
                empty = SchedTelemetry::new(self.config.p());
                &empty
            }
        };
        Some(TelemetrySnapshot::assemble(
            self.substrate,
            policy_label(&self.spec, &self.config),
            self.config.seed(),
            self.scheduler.masters(),
            sched,
            self.scheduler.scorer_path_counts(),
            self.scheduler.reservation().clamp_events(),
            probe,
        ))
    }

    /// Close the run: record the per-node busy seconds, flush the
    /// series and summarise.
    pub fn finish(&mut self, node_busy: Vec<f64>) -> RunSummary {
        self.metrics.set_node_busy(node_busy);
        if let Some(rec) = &mut self.series {
            rec.flush();
        }
        self.metrics.summary()
    }

    /// Hand the run's products back: the snapshot when `telemetry` was
    /// requested, and the series recorder and SLO engine.
    pub fn outcome(&mut self, summary: RunSummary, telemetry: bool) -> RunOutcome {
        RunOutcome {
            summary,
            telemetry: if telemetry { self.snapshot() } else { None },
            series: self.series.take(),
            slo: self.slo.take(),
        }
    }
}

/// The policy label telemetry reports: the registry spec when one was
/// recorded, the policy slug otherwise.
fn policy_label<'a>(spec: &'a Option<String>, config: &ClusterConfig) -> &'a str {
    spec.as_deref().unwrap_or(config.policy().slug())
}
