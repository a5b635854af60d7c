//! Wrappers that observe the program from outside: forwarding
//! implementations of `Schedule`, `RequestSource`, `DecisionObserver` and
//! `Write` that record what the benchmark needs about each call.
//!
//! Untraced cells only note the first placement and the first request
//! pull (the end of set-up), plus — on the live substrate — each
//! request's scheduled and actual placement time. Traced cells also
//! record one span per call into a layer: name, start, end, parent span
//! and request id. Spans live in a thread-local recorder (every traced
//! call runs on the thread that drives the run) and are taken out when
//! the cell ends.

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use msweb_cluster::{
    AttainedService, DecisionObserver, DecisionRecord, LoadMonitor, Placement, PlacementError,
    RegionTopology, ReqKnowledge, ReservationController, SchedTelemetry, Schedule, ScorerPaths,
    TraceEvent,
};
use msweb_simcore::{SimDuration, SimTime};
use msweb_workload::{Request, RequestSource};

/// The layer a span belongs to; `name` is how it is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole `run_source` / `emulate_source` call.
    Run,
    /// Workload statistics probe before the run.
    SetupProbe,
    /// `SchedulerRegistry::compose` (and its index build).
    SetupCompose,
    /// Fleet build: `ClusterSim::with_scheduler` on sim; on live, the
    /// part of `emulate_source` before its first request pull.
    SetupFleet,
    /// `RequestSource::next`.
    Next,
    /// `Schedule::place` / `replace_after_failure`.
    Place,
    /// Scheduler feedback: `note_*`, `emit`, `set_dead`.
    Feedback,
    /// `DecisionObserver::observe` / `event` (encode plus write).
    Observe,
    /// The decision log's `Write` target.
    TraceSink,
    /// The telemetry series' `Write` target.
    SeriesSink,
    /// `TraceLog::parse` of the recorded decision log.
    Parse,
    /// `analyze` of the parsed log.
    Analyze,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 12;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "run",
            Layer::SetupProbe => "setup.probe",
            Layer::SetupCompose => "setup.compose",
            Layer::SetupFleet => "setup.fleet",
            Layer::Next => "workload.next",
            Layer::Place => "sched.place",
            Layer::Feedback => "sched.feedback",
            Layer::Observe => "trace.observe",
            Layer::TraceSink => "trace.sink",
            Layer::SeriesSink => "series.sink",
            Layer::Parse => "trace.parse",
            Layer::Analyze => "replay.analyze",
        }
    }
}

/// No parent span / no request.
pub const NONE: u64 = u64::MAX;

/// Spans kept per cell for the spans file; the per-layer totals cover
/// every span regardless.
pub const SPAN_LOG_CAP: usize = 50_000;

/// One recorded call. Times are nanoseconds since the cell started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    /// Index of the enclosing span in the same cell, or [`NONE`].
    pub parent: u64,
    /// The request (admission sequence number) the call served, or
    /// [`NONE`].
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Time spent in one layer over a cell. Self time is a span's duration
/// minus the durations of the spans it encloses.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub self_ns: u64,
    pub inclusive_ns: u64,
}

/// A span still open: where it started, and how much of it enclosed
/// spans have covered so far.
#[derive(Debug)]
struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    dynamic: bool,
    /// Its index in `spans`, when it was kept.
    logged: Option<usize>,
}

/// Everything the wrappers learned during one cell.
#[derive(Debug, Default)]
pub struct Record {
    /// The cell's first [`SPAN_LOG_CAP`] spans, in opening order.
    pub spans: Vec<Span>,
    pub spans_total: u64,
    pub totals: [LayerTotal; LAYERS],
    /// Self time of every `place` call, and of the dynamic ones, ns.
    pub place_ns: Vec<u64>,
    pub place_dynamic_ns: Vec<u64>,
    stack: Vec<Open>,
    epoch: Option<Instant>,
    /// Current request, from the latest `note_request`.
    current_req: u64,
    pub first_place: Option<Instant>,
    pub first_pull: Option<Instant>,
    pub pulled: u64,
    pub place_errors: u64,
    /// Scheduled arrival of each pulled request, simulated µs.
    pub arrivals_us: Vec<u64>,
    /// `(request, at)` of each `note_request`, µs since run start.
    pub noted_us: Vec<(u64, u64)>,
    /// The scheduler's telemetry and scorer paths, captured when the
    /// wrapper is dropped (the live substrate consumes the scheduler).
    pub telemetry: Option<SchedTelemetry>,
    pub scorer_paths: Option<ScorerPaths>,
}

impl Record {
    fn now_ns(&self) -> u64 {
        self.epoch
            .map(|e| e.elapsed().as_nanos() as u64)
            .unwrap_or(0)
    }

    pub fn total(&self, layer: Layer) -> LayerTotal {
        self.totals[layer as usize]
    }

    fn open(&mut self, layer: Layer, req: u64, dynamic: bool) {
        let start_ns = self.now_ns();
        self.spans_total += 1;
        let logged = (self.spans.len() < SPAN_LOG_CAP).then(|| {
            let parent = self
                .stack
                .last()
                .and_then(|o| o.logged)
                .map_or(NONE, |p| p as u64);
            self.spans.push(Span {
                layer,
                parent,
                req,
                start_ns,
                end_ns: start_ns,
            });
            self.spans.len() - 1
        });
        self.stack.push(Open {
            layer,
            start_ns,
            child_ns: 0,
            dynamic,
            logged,
        });
    }

    fn close(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("a span is open");
        let duration = end_ns.saturating_sub(open.start_ns);
        let own = duration.saturating_sub(open.child_ns);
        let total = &mut self.totals[open.layer as usize];
        total.self_ns += own;
        total.inclusive_ns += duration;
        if open.layer == Layer::Place {
            self.place_ns.push(own);
            if open.dynamic {
                self.place_dynamic_ns.push(own);
            }
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        if let Some(i) = open.logged {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Add an interval the caller timed itself. With `within`, the
    /// interval lies inside that layer's span and is taken out of its
    /// self time.
    pub fn push_interval(
        &mut self,
        layer: Layer,
        from: Instant,
        to: Instant,
        within: Option<Layer>,
    ) {
        let Some(epoch) = self.epoch else { return };
        let start_ns = from.saturating_duration_since(epoch).as_nanos() as u64;
        let end_ns = to.saturating_duration_since(epoch).as_nanos() as u64;
        let duration = end_ns.saturating_sub(start_ns);
        let total = &mut self.totals[layer as usize];
        total.self_ns += duration;
        total.inclusive_ns += duration;
        if let Some(outer) = within {
            let outer = &mut self.totals[outer as usize];
            outer.self_ns = outer.self_ns.saturating_sub(duration);
        }
        self.spans_total += 1;
        if self.spans.len() < SPAN_LOG_CAP {
            self.spans.push(Span {
                layer,
                parent: NONE,
                req: NONE,
                start_ns,
                end_ns,
            });
        }
    }
}

thread_local! {
    static RECORD: RefCell<Record> = RefCell::new(Record::default());
}

/// Start a fresh record for a cell that began at `epoch`.
pub fn begin_cell(epoch: Instant) {
    RECORD.with_borrow_mut(|r| {
        *r = Record {
            epoch: Some(epoch),
            current_req: NONE,
            ..Record::default()
        };
    });
}

/// Take the cell's record out of the recorder.
pub fn end_cell() -> Record {
    RECORD.with_borrow_mut(std::mem::take)
}

/// Run `f` inside a span of `layer` when `traced`.
#[inline]
pub fn span<R>(traced: bool, layer: Layer, req: u64, f: impl FnOnce() -> R) -> R {
    if !traced {
        return f();
    }
    RECORD.with_borrow_mut(|r| r.open(layer, req, false));
    let out = f();
    RECORD.with_borrow_mut(Record::close);
    out
}

fn note_first_place() {
    let now = Instant::now();
    RECORD.with_borrow_mut(|r| {
        r.first_place.get_or_insert(now);
    });
}

// ------------------------------------------------------------- Schedule

/// Forwarding `Schedule`: every method, the defaulted ones included,
/// goes to `inner`; the calls that do work get spans.
pub struct Probed<S: Schedule> {
    inner: S,
    traced: bool,
    placed: bool,
    keep_request_times: bool,
}

impl<S: Schedule> Probed<S> {
    pub fn new(inner: S, traced: bool, keep_request_times: bool) -> Self {
        Probed {
            inner,
            traced,
            placed: false,
            keep_request_times,
        }
    }

    fn placement(
        &mut self,
        dynamic: bool,
        f: impl FnOnce(&mut S) -> Result<Placement, PlacementError>,
    ) -> Result<Placement, PlacementError> {
        if !self.placed {
            self.placed = true;
            note_first_place();
        }
        if !self.traced {
            return f(&mut self.inner);
        }
        RECORD.with_borrow_mut(|r| r.open(Layer::Place, r.current_req, dynamic));
        let out = f(&mut self.inner);
        RECORD.with_borrow_mut(|r| {
            r.close();
            if out.is_err() {
                r.place_errors += 1;
            }
        });
        out
    }

    fn feedback<R>(&mut self, req: u64, f: impl FnOnce(&mut S) -> R) -> R {
        let traced = self.traced;
        span(traced, Layer::Feedback, req, || f(&mut self.inner))
    }
}

impl<S: Schedule> Drop for Probed<S> {
    fn drop(&mut self) {
        if self.traced {
            let telemetry = self.inner.telemetry().cloned();
            let paths = self.inner.scorer_path_counts();
            RECORD.with_borrow_mut(|r| {
                r.telemetry = telemetry;
                r.scorer_paths = paths;
            });
        }
    }
}

impl<S: Schedule> Schedule for Probed<S> {
    fn place(
        &mut self,
        dynamic: bool,
        know: ReqKnowledge,
        monitor: &mut LoadMonitor,
    ) -> Result<Placement, PlacementError> {
        self.placement(dynamic, |s| s.place(dynamic, know, monitor))
    }
    fn replace_after_failure(
        &mut self,
        dynamic: bool,
        know: ReqKnowledge,
        monitor: &mut LoadMonitor,
    ) -> Result<Placement, PlacementError> {
        self.placement(dynamic, |s| s.replace_after_failure(dynamic, know, monitor))
    }
    fn masters(&self) -> usize {
        self.inner.masters()
    }
    fn set_dead(&mut self, node: usize, dead: bool) {
        self.feedback(NONE, |s| s.set_dead(node, dead))
    }
    fn is_dead(&self, node: usize) -> bool {
        self.inner.is_dead(node)
    }
    fn note_completion(&mut self, node: usize) {
        self.feedback(NONE, |s| s.note_completion(node))
    }
    fn in_flight(&self, node: usize) -> u32 {
        self.inner.in_flight(node)
    }
    fn reservation(&self) -> &ReservationController {
        self.inner.reservation()
    }
    fn reservation_mut(&mut self) -> &mut ReservationController {
        self.inner.reservation_mut()
    }
    fn set_observer(&mut self, observer: Option<Box<dyn DecisionObserver>>) {
        self.inner.set_observer(observer)
    }
    fn tracing(&self) -> bool {
        self.inner.tracing()
    }
    fn emit(&mut self, event: &TraceEvent) {
        self.feedback(NONE, |s| s.emit(event))
    }
    fn note_request(&mut self, req: u64, at: SimTime, demand: SimDuration) {
        if self.traced || self.keep_request_times {
            let keep = self.keep_request_times;
            RECORD.with_borrow_mut(|r| {
                r.current_req = req;
                if keep {
                    r.noted_us.push((req, at.as_micros()));
                }
            });
        }
        self.feedback(req, |s| s.note_request(req, at, demand))
    }
    fn note_origin(&mut self, origin: usize) {
        self.feedback(NONE, |s| s.note_origin(origin))
    }
    fn region_topology(&self) -> Option<&RegionTopology> {
        self.inner.region_topology()
    }
    fn set_telemetry_enabled(&mut self, on: bool) {
        self.inner.set_telemetry_enabled(on)
    }
    fn telemetry(&self) -> Option<&SchedTelemetry> {
        self.inner.telemetry()
    }
    fn scorer_path_counts(&self) -> Option<ScorerPaths> {
        self.inner.scorer_path_counts()
    }
    fn note_service_start(&mut self, node: usize, tag: u64) {
        self.feedback(tag, |s| s.note_service_start(node, tag))
    }
    fn note_service_progress(&mut self, node: usize, tag: u64, attained: SimDuration) {
        self.feedback(tag, |s| s.note_service_progress(node, tag, attained))
    }
    fn note_service_end(&mut self, node: usize, tag: u64, total: SimDuration) {
        self.feedback(tag, |s| s.note_service_end(node, tag, total))
    }
    fn note_service_lost(&mut self, node: usize, tag: u64) {
        self.feedback(tag, |s| s.note_service_lost(node, tag))
    }
    fn attained(&self) -> Option<&AttainedService> {
        self.inner.attained()
    }
}

// -------------------------------------------------------- RequestSource

/// Forwarding `RequestSource` that notes the first pull, spans each
/// `next` and, on live cells, keeps each request's scheduled arrival.
pub struct ProbedSource<S: RequestSource> {
    inner: S,
    traced: bool,
    keep_request_times: bool,
    pulled: u64,
}

impl<S: RequestSource> ProbedSource<S> {
    pub fn new(inner: S, traced: bool, keep_request_times: bool) -> Self {
        ProbedSource {
            inner,
            traced,
            keep_request_times,
            pulled: 0,
        }
    }
}

impl<S: RequestSource> Iterator for ProbedSource<S> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.pulled == 0 {
            let now = Instant::now();
            RECORD.with_borrow_mut(|r| {
                r.first_pull.get_or_insert(now);
            });
        }
        let index = self.pulled;
        let inner = &mut self.inner;
        let next = span(self.traced, Layer::Next, index, || inner.next());
        if let Some(req) = &next {
            self.pulled += 1;
            let keep = self.keep_request_times;
            let arrival = req.arrival.as_micros();
            let pulled = self.pulled;
            RECORD.with_borrow_mut(|r| {
                r.pulled = pulled;
                if keep {
                    r.arrivals_us.push(arrival);
                }
            });
        }
        next
    }
}

impl<S: RequestSource> RequestSource for ProbedSource<S> {
    fn source_name(&self) -> &str {
        self.inner.source_name()
    }
    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }
}

// ----------------------------------------------------- DecisionObserver

/// Forwarding `DecisionObserver`: spans every record and event.
pub struct ProbedObserver<O: DecisionObserver> {
    inner: O,
    traced: bool,
}

impl<O: DecisionObserver> ProbedObserver<O> {
    pub fn new(inner: O, traced: bool) -> Self {
        ProbedObserver { inner, traced }
    }
}

impl<O: DecisionObserver> DecisionObserver for ProbedObserver<O> {
    fn observe(&mut self, record: &DecisionRecord) {
        let inner = &mut self.inner;
        span(self.traced, Layer::Observe, record.seq, || {
            inner.observe(record)
        })
    }
    fn event(&mut self, event: &TraceEvent) {
        let inner = &mut self.inner;
        span(self.traced, Layer::Observe, NONE, || inner.event(event))
    }
}

// ---------------------------------------------------------------- Write

/// An in-memory byte buffer shared between the writer handed to the
/// program and the benchmark, which reads it back after the run.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.0.lock().expect("buffer lock poisoned"))
    }
}

/// Forwarding `Write` into a [`SharedBuf`], spanned as `layer`.
pub struct ProbedWriter {
    buf: SharedBuf,
    traced: bool,
    layer: Layer,
}

impl ProbedWriter {
    pub fn new(buf: SharedBuf, traced: bool, layer: Layer) -> Self {
        ProbedWriter { buf, traced, layer }
    }
}

impl Write for ProbedWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let buf = &self.buf;
        span(self.traced, self.layer, NONE, || {
            buf.0
                .lock()
                .expect("buffer lock poisoned")
                .extend_from_slice(data);
        });
        Ok(data.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
