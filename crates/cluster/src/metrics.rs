//! Run metrics: the stretch factor (the paper's primary metric) broken
//! out per class and placement level, plus response-time distributions.

use msweb_simcore::{Quantiles, SimDuration, StretchAccumulator};
use serde::Serialize;

/// Where a completed dynamic request ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// On a master node.
    Master,
    /// On a slave node.
    Slave,
}

impl Level {
    /// The level a completed request is accounted at: `None` for static
    /// requests, where a dynamic one ran otherwise.
    pub fn of(dynamic: bool, on_master: bool) -> Option<Level> {
        match (dynamic, on_master) {
            (false, _) => None,
            (true, true) => Some(Level::Master),
            (true, false) => Some(Level::Slave),
        }
    }
}

/// Accumulates per-run performance numbers.
#[derive(Debug, Default)]
pub struct Metrics {
    overall: StretchAccumulator,
    stat: StretchAccumulator,
    dynamic: StretchAccumulator,
    dynamic_master: StretchAccumulator,
    dynamic_slave: StretchAccumulator,
    resp_static: Quantiles,
    resp_dynamic: Quantiles,
    dropped: u64,
    restarted: u64,
    dyn_on_master: u64,
    cache_hits: u64,
    node_busy: Vec<f64>,
    /// Per-monitor-window mean stretch, for convergence analysis.
    window_series: Vec<f64>,
    window_acc: StretchAccumulator,
}

/// A finished run's summary (serialisable for the experiment reports).
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct RunSummary {
    /// Completed request count.
    pub completed: u64,
    /// Mean stretch factor over all requests (the paper's metric).
    pub stretch: f64,
    /// Stretch of static requests only.
    pub stretch_static: f64,
    /// Stretch of dynamic requests only.
    pub stretch_dynamic: f64,
    /// Stretch of dynamic requests that ran on masters.
    pub stretch_dynamic_master: f64,
    /// Stretch of dynamic requests that ran on slaves.
    pub stretch_dynamic_slave: f64,
    /// Median static response time, seconds.
    pub median_static_response_s: f64,
    /// Median dynamic response time, seconds.
    pub median_dynamic_response_s: f64,
    /// 99th-percentile static response time, seconds.
    pub p99_static_response_s: f64,
    /// Requests lost to failures (never completed).
    pub dropped: u64,
    /// Requests restarted after a node failure.
    pub restarted: u64,
    /// Completed static requests.
    pub completed_static: u64,
    /// Completed dynamic requests.
    pub completed_dynamic: u64,
    /// Dynamic completions that ran on a master.
    pub dynamic_on_master: u64,
    /// Dynamic requests served from the content cache (Swala extension).
    pub cache_hits: u64,
    /// Coefficient of variation of per-node busy time (0 = perfectly
    /// balanced). Note that master/slave designs are *intentionally*
    /// imbalanced across levels; compare like with like.
    pub node_busy_cv: f64,
    /// Peak-to-mean ratio of per-node busy time.
    pub node_busy_peak_to_mean: f64,
}

impl Metrics {
    /// Fresh, empty metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Record one completed request.
    ///
    /// `response` is arrival-at-cluster to completion; `demand` the
    /// contention-free service demand; `level` is `Some` for dynamic
    /// requests (where they ran) and `None` for static ones.
    pub fn record(&mut self, response: SimDuration, demand: SimDuration, level: Option<Level>) {
        self.overall.record(response, demand);
        self.window_acc.record(response, demand);
        match level {
            None => {
                self.stat.record(response, demand);
                self.resp_static.push(response.as_secs_f64());
            }
            Some(l) => {
                self.dynamic.record(response, demand);
                self.resp_dynamic.push(response.as_secs_f64());
                match l {
                    Level::Master => {
                        self.dyn_on_master += 1;
                        self.dynamic_master.record(response, demand);
                    }
                    Level::Slave => self.dynamic_slave.record(response, demand),
                }
            }
        }
    }

    /// Note a request lost to a failure.
    pub fn note_dropped(&mut self) {
        self.dropped += 1;
    }

    /// Note a request restarted after a failure.
    pub fn note_restarted(&mut self) {
        self.restarted += 1;
    }

    /// Note a dynamic request served from the content cache.
    pub fn note_cache_hit(&mut self) {
        self.cache_hits += 1;
    }

    /// Record the end-of-run per-node busy times (CPU + disk seconds),
    /// for the load-imbalance diagnostics.
    pub fn set_node_busy(&mut self, busy: Vec<f64>) {
        self.node_busy = busy;
    }

    /// Close the current measurement window (called at each monitor
    /// tick): the window's mean stretch is appended to the series and
    /// returned, or `None` when the window completed nothing.
    ///
    /// Windows with no completions are *skipped entirely* rather than
    /// recorded: an empty accumulator's mean stretch is `0/0 = NaN`,
    /// and one NaN entry would poison every later consumer of
    /// [`Metrics::window_series`] (head/tail convergence averages, the
    /// experiment CSVs, telemetry JSON — where NaN is not even
    /// representable). Skipping, rather than carrying the previous
    /// window's value forward, keeps the series a record of *measured*
    /// windows; consumers that need wall-clock alignment should use the
    /// telemetry controller series, which samples every tick. The
    /// returned `Option` carries the same skip to the series recorder
    /// and the SLO engine, which render/treat it as unmeasured.
    pub fn close_window(&mut self) -> Option<f64> {
        if self.window_acc.count() > 0 {
            let stretch = self.window_acc.stretch();
            self.window_series.push(stretch);
            self.window_acc = StretchAccumulator::new();
            Some(stretch)
        } else {
            None
        }
    }

    /// Per-window mean stretch over the run so far.
    pub fn window_series(&self) -> &[f64] {
        &self.window_series
    }

    /// Completed request count.
    pub fn completed(&self) -> u64 {
        self.overall.count()
    }

    /// Requests lost to failures so far (cumulative).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Current mean stretch factor.
    pub fn stretch(&self) -> f64 {
        self.overall.stretch()
    }

    /// Finalise into a serialisable summary.
    pub fn summary(&mut self) -> RunSummary {
        RunSummary {
            completed: self.overall.count(),
            stretch: self.overall.stretch(),
            stretch_static: self.stat.stretch(),
            stretch_dynamic: self.dynamic.stretch(),
            stretch_dynamic_master: self.dynamic_master.stretch(),
            stretch_dynamic_slave: self.dynamic_slave.stretch(),
            median_static_response_s: self.resp_static.median(),
            median_dynamic_response_s: self.resp_dynamic.median(),
            p99_static_response_s: self.resp_static.quantile(0.99),
            dropped: self.dropped,
            restarted: self.restarted,
            completed_static: self.stat.count(),
            completed_dynamic: self.dynamic.count(),
            dynamic_on_master: self.dyn_on_master,
            cache_hits: self.cache_hits,
            node_busy_cv: cv(&self.node_busy),
            node_busy_peak_to_mean: peak_to_mean(&self.node_busy),
        }
    }
}

/// Coefficient of variation (std/mean); 0 for empty or zero-mean data.
fn cv(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    var.sqrt() / mean
}

/// Peak-to-mean ratio; 1 for empty or zero-mean data.
fn peak_to_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if mean <= 0.0 {
        return 1.0;
    }
    xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max) / mean
}

impl RunSummary {
    /// The paper's improvement metric:
    /// `(other.stretch / self.stretch − 1) × 100 %` — how much better
    /// `self` is than `other`.
    ///
    /// Returns 0.0 when either stretch is non-positive or non-finite
    /// (e.g. a baseline run that completed nothing): a ratio against a
    /// zero or NaN baseline is meaningless, and 0 % ("no measured
    /// improvement") is the answer that keeps downstream tables sane.
    pub fn improvement_over_pct(&self, other: &RunSummary) -> f64 {
        let measurable = |s: f64| s.is_finite() && s > 0.0;
        if !measurable(self.stretch) || !measurable(other.stretch) {
            return 0.0;
        }
        (other.stretch / self.stretch - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn empty_windows_never_reach_the_series() {
        let mut m = Metrics::new();
        // Zero-request windows before, between and after real ones must
        // be skipped, never pushed as 0/0 = NaN entries.
        m.close_window();
        m.record(ms(20), ms(10), None);
        m.close_window();
        m.close_window();
        m.record(ms(30), ms(10), None);
        m.close_window();
        assert_eq!(m.window_series().len(), 2);
        assert!(m.window_series().iter().all(|s| s.is_finite()));
    }

    #[test]
    fn improvement_over_degenerate_baseline_is_zero() {
        let mut a = Metrics::new();
        a.record(ms(20), ms(10), None);
        let good = a.summary();
        assert!(good.improvement_over_pct(&good).abs() < 1e-12);
        // A run that completed nothing has stretch 0; both directions
        // of the comparison must degrade to "no measured improvement".
        let empty = Metrics::new().summary();
        assert_eq!(good.improvement_over_pct(&empty), 0.0);
        assert_eq!(empty.improvement_over_pct(&good), 0.0);
        let mut broken = good.clone();
        broken.stretch = f64::NAN;
        assert_eq!(good.improvement_over_pct(&broken), 0.0);
        assert_eq!(broken.improvement_over_pct(&good), 0.0);
    }

    #[test]
    fn class_breakout() {
        let mut m = Metrics::new();
        m.record(ms(20), ms(10), None); // static, stretch 2
        m.record(ms(40), ms(10), Some(Level::Master)); // dyn master, 4
        m.record(ms(60), ms(10), Some(Level::Slave)); // dyn slave, 6
        let s = m.summary();
        assert_eq!(s.completed, 3);
        assert!((s.stretch - 4.0).abs() < 1e-9);
        assert!((s.stretch_static - 2.0).abs() < 1e-9);
        assert!((s.stretch_dynamic - 5.0).abs() < 1e-9);
        assert!((s.stretch_dynamic_master - 4.0).abs() < 1e-9);
        assert!((s.stretch_dynamic_slave - 6.0).abs() < 1e-9);
        assert!((s.median_static_response_s - 0.020).abs() < 1e-9);
    }

    #[test]
    fn improvement_metric() {
        let mut a = Metrics::new();
        a.record(ms(10), ms(10), None);
        let mut b = Metrics::new();
        b.record(ms(15), ms(10), None);
        let sa = a.summary();
        let sb = b.summary();
        assert!((sa.improvement_over_pct(&sb) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn drop_and_restart_counters() {
        let mut m = Metrics::new();
        m.note_dropped();
        m.note_dropped();
        m.note_restarted();
        let s = m.summary();
        assert_eq!(s.dropped, 2);
        assert_eq!(s.restarted, 1);
    }

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Metrics::new().summary();
        assert_eq!(s.completed, 0);
        assert_eq!(s.stretch, 0.0);
        assert_eq!(s.node_busy_cv, 0.0);
        assert_eq!(s.node_busy_peak_to_mean, 1.0);
    }

    #[test]
    fn imbalance_diagnostics() {
        let mut m = Metrics::new();
        m.set_node_busy(vec![1.0, 1.0, 1.0, 1.0]);
        let s = m.summary();
        assert!(s.node_busy_cv.abs() < 1e-12, "balanced load has CV 0");
        assert!((s.node_busy_peak_to_mean - 1.0).abs() < 1e-12);

        let mut m = Metrics::new();
        m.set_node_busy(vec![3.0, 1.0, 0.0, 0.0]);
        let s = m.summary();
        assert!(
            s.node_busy_cv > 1.0,
            "skewed load has high CV: {}",
            s.node_busy_cv
        );
        assert!((s.node_busy_peak_to_mean - 3.0).abs() < 1e-12);
    }
}
