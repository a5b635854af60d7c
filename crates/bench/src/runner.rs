//! The unified experiment runner: one typed entry point shared by the
//! CLI binaries, the criterion benches and the integration tests.
//!
//! ```no_run
//! use msweb_bench::{ExpConfig, ExperimentId, ExperimentRunner};
//!
//! let report = ExperimentRunner::new(ExpConfig::quick())
//!     .parallelism(4)
//!     .run(ExperimentId::Fig4a);
//! println!("{}", report.render());
//! println!("{}", report.to_json());
//! ```
//!
//! [`ExperimentRunner::run`] executes one experiment through the
//! [`Sweep`](crate::Sweep) executor and returns an [`ExperimentReport`] —
//! a serialisable value holding the full result rows, not a printout.
//! Rendering ([`ExperimentReport::render`]) and JSON export
//! ([`ExperimentReport::to_json`]) are derived views of the same value,
//! so "what the CLI prints", "what lands in the JSON file" and "what the
//! determinism test compares" can never drift apart.
//!
//! The report deliberately excludes the parallelism level: for a fixed
//! root seed the report is identical at any worker count (enforced by
//! `tests/determinism.rs`), so recording it would only break equality
//! between runs that are byte-identical where it matters.

use std::fmt::Write as _;

use msweb_cluster::{
    simulate, ClusterConfig, PolicyKind, RunOptions, SeriesRecorder, TelemetrySnapshot,
};
use msweb_queueing::Fig3Point;
use msweb_workload::{ksu, DemandModel};
use serde::Serialize;

use crate::experiments::{
    ablation_bursty, ablation_cache, ablation_frontend, ablation_hetero, ablation_redirect,
    ablation_reserve, ablation_staleness, ablation_theta_rule, fig3, fig4, fig5, tab1, tab2,
    tab3_traced, ExpConfig, Fig4Row, Fig5Row, Tab1Row, Tab2Row, Tab3Row,
};
use crate::report::{f, pct, Table};

/// Identifier of one experiment (one table or figure of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ExperimentId {
    /// Figure 3(a): analytic M/S vs the flat model.
    Fig3a,
    /// Figure 3(b): analytic M/S vs M/S′.
    Fig3b,
    /// Table 1: trace characteristics, paper vs regenerated.
    Tab1,
    /// Table 2: the workload parameter grid.
    Tab2,
    /// Figure 4(a): simulated improvement of M/S, p = 32.
    Fig4a,
    /// Figure 4(b): simulated improvement of M/S, p = 128.
    Fig4b,
    /// Figure 5: fixed-m sensitivity.
    Fig5,
    /// Table 3: live-vs-simulated validation.
    Tab3,
    /// The design-choice ablation suite.
    Ablation,
}

impl ExperimentId {
    /// Every experiment, in the paper's presentation order.
    pub const ALL: [ExperimentId; 9] = [
        ExperimentId::Fig3a,
        ExperimentId::Fig3b,
        ExperimentId::Tab1,
        ExperimentId::Tab2,
        ExperimentId::Fig4a,
        ExperimentId::Fig4b,
        ExperimentId::Fig5,
        ExperimentId::Tab3,
        ExperimentId::Ablation,
    ];

    /// The CLI name of this experiment.
    pub fn name(self) -> &'static str {
        match self {
            ExperimentId::Fig3a => "fig3a",
            ExperimentId::Fig3b => "fig3b",
            ExperimentId::Tab1 => "tab1",
            ExperimentId::Tab2 => "tab2",
            ExperimentId::Fig4a => "fig4a",
            ExperimentId::Fig4b => "fig4b",
            ExperimentId::Fig5 => "fig5",
            ExperimentId::Tab3 => "tab3",
            ExperimentId::Ablation => "ablation",
        }
    }

    /// Parse a CLI name (`"fig4a"`, `"tab3"`, ...).
    pub fn parse(s: &str) -> Option<Self> {
        ExperimentId::ALL.into_iter().find(|id| id.name() == s)
    }
}

/// A serialisable mirror of [`Fig3Point`]. `msweb-queueing` is kept
/// dependency-free (its analytic results are checked against closed
/// forms), so the serde impl lives here instead of on the point itself.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig3Row {
    /// Arrival ratio `a`.
    pub a: f64,
    /// Demand ratio `1/r`.
    pub inv_r: f64,
    /// Analytic M/S stretch.
    pub stretch_ms: f64,
    /// Analytic flat stretch.
    pub stretch_flat: f64,
    /// Analytic M/S′ stretch.
    pub stretch_msprime: f64,
    /// M/S′ restricted to few nodes, when feasible.
    pub stretch_msprime_few: Option<f64>,
    /// Improvement of M/S over flat, percent.
    pub improvement_over_flat_pct: f64,
    /// Improvement of M/S over M/S′, percent.
    pub improvement_over_msprime_pct: f64,
    /// Improvement over the few-nodes M/S′, when feasible.
    pub improvement_over_msprime_few_pct: Option<f64>,
    /// Optimal master count.
    pub m: usize,
    /// Optimal split point θ.
    pub theta: f64,
}

impl From<&Fig3Point> for Fig3Row {
    fn from(p: &Fig3Point) -> Self {
        Fig3Row {
            a: p.a,
            inv_r: p.inv_r,
            stretch_ms: p.stretch_ms,
            stretch_flat: p.stretch_flat,
            stretch_msprime: p.stretch_msprime,
            stretch_msprime_few: p.stretch_msprime_few,
            improvement_over_flat_pct: p.improvement_over_flat_pct,
            improvement_over_msprime_pct: p.improvement_over_msprime_pct,
            improvement_over_msprime_few_pct: p.improvement_over_msprime_few_pct,
            m: p.m,
            theta: p.theta,
        }
    }
}

/// All ablation results in one bundle.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AblationReport {
    /// `(monitor period ms, M/S stretch)`.
    pub staleness: Vec<(u64, f64)>,
    /// `(master reserve, M/S stretch)`.
    pub reserve: Vec<(f64, f64)>,
    /// `(configuration label, stretch, node-busy CV)`.
    pub frontend: Vec<(&'static str, f64, f64)>,
    /// `(uncached stretch, cached stretch, hit ratio)`.
    pub cache: (f64, f64, f64),
    /// `(M/S stretch, Redirect stretch)`.
    pub redirect: (f64, f64),
    /// `(policy label, Poisson stretch, bursty stretch)`.
    pub bursty: Vec<(&'static str, f64, f64)>,
    /// `(analytic, slow-masters, fast-masters)` stretch.
    pub hetero: (f64, f64, f64),
    /// `(mean midpoint stretch, mean numeric stretch)`.
    pub theta_rule: (f64, f64),
}

/// The typed result rows of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ReportData {
    /// Figure 3 points (shared by 3(a) and 3(b); rendering differs).
    Fig3(Vec<Fig3Row>),
    /// Table 1 rows.
    Tab1(Vec<Tab1Row>),
    /// Table 2 rows.
    Tab2(Vec<Tab2Row>),
    /// Figure 4 bar groups.
    Fig4(Vec<Fig4Row>),
    /// Figure 5 bars.
    Fig5(Vec<Fig5Row>),
    /// Table 3 rows.
    Tab3(Vec<Tab3Row>),
    /// The ablation bundle.
    Ablation(AblationReport),
}

/// One experiment's complete result: identity, sizing, and data rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Which experiment this is.
    pub experiment: ExperimentId,
    /// Requests per simulated replay used to produce it.
    pub requests: usize,
    /// Requests per live replay used to produce it.
    pub live_requests: usize,
    /// Root RNG seed.
    pub seed: u64,
    /// The result rows.
    pub data: ReportData,
    /// Telemetry snapshot of the instrumented companion replay, when
    /// [`ExperimentRunner::telemetry`] was enabled.
    pub telemetry: Option<TelemetrySnapshot>,
}

// Hand-written (rather than derived) so the `telemetry` key appears
// only when a snapshot was attached: existing report JSON stays
// byte-identical for runs without telemetry.
impl Serialize for ExperimentReport {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("experiment".to_string(), self.experiment.to_value()),
            ("requests".to_string(), self.requests.to_value()),
            ("live_requests".to_string(), self.live_requests.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("data".to_string(), self.data.to_value()),
        ];
        if let Some(t) = &self.telemetry {
            fields.push(("telemetry".to_string(), t.to_value()));
        }
        serde::Value::Object(fields)
    }
}

/// Runs experiments against one [`ExpConfig`].
#[derive(Debug, Clone)]
pub struct ExperimentRunner {
    exp: ExpConfig,
    live_time_scale: f64,
    trace_decisions: Option<std::path::PathBuf>,
    telemetry: bool,
}

impl ExperimentRunner {
    /// A runner over the given sizing configuration (live replays at the
    /// paper's real-time scale).
    pub fn new(exp: ExpConfig) -> Self {
        ExperimentRunner {
            exp,
            live_time_scale: 1.0,
            trace_decisions: None,
            telemetry: false,
        }
    }

    /// Set the sweep worker budget: `0` = all cores, `1` = sequential.
    /// Reports are identical at any setting; only wall-clock time moves.
    pub fn parallelism(mut self, jobs: usize) -> Self {
        self.exp.jobs = jobs;
        self
    }

    /// Compress the live (Table 3) replay by this factor. `1.0` replays
    /// in real time like the paper's prototype; smaller values are faster
    /// but noisier.
    pub fn live_time_scale(mut self, scale: f64) -> Self {
        self.live_time_scale = scale;
        self
    }

    /// Log every scheduling decision of the Table 3 replays (live *and*
    /// simulated) to a JSONL file — the `--trace-decisions PATH` flag of
    /// `msweb experiments`. The file is truncated when Table 3
    /// starts, then appended to by each replay. Other experiments ignore
    /// the setting (their sweeps run replays in parallel, where a shared
    /// append-mode log would interleave).
    pub fn trace_decisions(mut self, path: Option<std::path::PathBuf>) -> Self {
        self.trace_decisions = path;
        self
    }

    /// Attach a telemetry snapshot to every produced report — the
    /// `--telemetry` flag of `msweb experiments`. Experiments sweep
    /// many cells (in parallel), so instead of instrumenting them all,
    /// the runner executes one *canonical companion replay* — the KSU
    /// master/slave cell at p = 32, λ = 1000/s, 1/r = 40, sized and
    /// seeded like this configuration — with telemetry enabled, and
    /// embeds its deterministic snapshot as the report's `telemetry`
    /// block. Reports without telemetry serialise exactly as before
    /// (the key is simply absent).
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// The configuration this runner executes with.
    pub fn config(&self) -> &ExpConfig {
        &self.exp
    }

    /// Execute one experiment and return its typed report.
    pub fn run(&self, id: ExperimentId) -> ExperimentReport {
        let exp = &self.exp;
        let data = match id {
            ExperimentId::Fig3a | ExperimentId::Fig3b => {
                ReportData::Fig3(fig3().iter().map(Fig3Row::from).collect())
            }
            ExperimentId::Tab1 => {
                // Table 1 wants enough requests for stable trace
                // statistics even under --quick sizing.
                ReportData::Tab1(tab1(exp.requests.max(10_000), exp.seed))
            }
            ExperimentId::Tab2 => ReportData::Tab2(tab2(exp)),
            ExperimentId::Fig4a => ReportData::Fig4(fig4(32, exp)),
            ExperimentId::Fig4b => ReportData::Fig4(fig4(128, exp)),
            ExperimentId::Fig5 => ReportData::Fig5(fig5(exp)),
            ExperimentId::Tab3 => {
                if let Some(path) = &self.trace_decisions {
                    // Start each Table 3 run from an empty log; replays
                    // then append their records in order.
                    if let Err(e) = std::fs::File::create(path) {
                        eprintln!("trace-decisions: cannot create {}: {e}", path.display());
                    }
                }
                ReportData::Tab3(tab3_traced(
                    exp,
                    self.live_time_scale,
                    self.trace_decisions.as_deref(),
                ))
            }
            ExperimentId::Ablation => ReportData::Ablation(AblationReport {
                staleness: ablation_staleness(exp),
                reserve: ablation_reserve(exp),
                frontend: ablation_frontend(exp),
                cache: ablation_cache(exp),
                redirect: ablation_redirect(exp),
                bursty: ablation_bursty(exp),
                hetero: ablation_hetero(exp),
                theta_rule: ablation_theta_rule(),
            }),
        };
        ExperimentReport {
            experiment: id,
            requests: exp.requests,
            live_requests: exp.live_requests,
            seed: exp.seed,
            data,
            telemetry: self.telemetry.then(|| companion_telemetry(exp)),
        }
    }

    /// Execute every experiment in presentation order.
    pub fn run_all(&self) -> Vec<ExperimentReport> {
        ExperimentId::ALL
            .into_iter()
            .map(|id| self.run(id))
            .collect()
    }

    /// Run the canonical companion replay once with a windowed series
    /// recorder streaming to `path` — the `--telemetry-series` flag of
    /// `msweb experiments`. Returns the number of window records
    /// written. The replay is the same one `--telemetry` snapshots, so
    /// for a fixed [`ExpConfig`] the file is byte-deterministic.
    pub fn write_telemetry_series(&self, path: &str) -> std::io::Result<u64> {
        let recorder = SeriesRecorder::create(path)?;
        let outcome = companion_run(
            &self.exp,
            RunOptions::new().telemetry(true).series(recorder),
        );
        Ok(outcome.series.map(|r| r.records()).unwrap_or(0))
    }
}

/// The canonical instrumented companion replay: KSU trace, master/slave
/// policy, p = 32, λ = 1000/s, 1/r = 40, at this configuration's request
/// count and seed. Deterministic for a fixed `ExpConfig`, so reports
/// with telemetry enabled stay byte-stable across re-runs.
fn companion_run(exp: &ExpConfig, opts: RunOptions) -> msweb_cluster::RunOutcome {
    let trace = ksu()
        .generate(exp.requests, &DemandModel::simulation(40.0), exp.seed)
        .scaled_to_rate(1000.0);
    let cfg = ClusterConfig::simulation(32, PolicyKind::MasterSlave).with_seed(exp.seed);
    simulate(cfg, &trace, opts)
}

/// The companion replay's telemetry snapshot (see [`companion_run`]).
fn companion_telemetry(exp: &ExpConfig) -> TelemetrySnapshot {
    companion_run(exp, RunOptions::new().telemetry(true))
        .telemetry
        .expect("telemetry enabled")
}

impl ExperimentReport {
    /// Serialise the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde::to_json_string_pretty(self)
    }

    /// Render the report as the human-readable table the CLI prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match (&self.experiment, &self.data) {
            (ExperimentId::Fig3a, ReportData::Fig3(points)) => {
                out.push_str("== FIG 3(a): analytic improvement of M/S over the flat model ==\n");
                out.push_str("   (λ=1000/s, p=32, μ_h=1200/s; paper reports up to ~60%)\n\n");
                let mut t = Table::new(vec!["a", "1/r", "m*", "θ*", "S_M", "S_F", "improvement"]);
                for pt in points {
                    t.row(vec![
                        f(pt.a, 3),
                        f(pt.inv_r, 0),
                        pt.m.to_string(),
                        f(pt.theta, 3),
                        f(pt.stretch_ms, 3),
                        f(pt.stretch_flat, 3),
                        pct(pt.improvement_over_flat_pct),
                    ]);
                }
                out.push_str(&t.render());
            }
            (ExperimentId::Fig3b, ReportData::Fig3(points)) => {
                out.push_str("== FIG 3(b): analytic improvement of M/S over M/S' ==\n");
                out.push_str("   (literal M/S' collapses to flat under exact PS analysis —\n");
                out.push_str("    see EXPERIMENTS.md; the few-nodes column caps k ≤ p/2)\n\n");
                let mut t = Table::new(vec![
                    "a",
                    "1/r",
                    "S_M",
                    "S_M'",
                    "improvement",
                    "S_M'(few)",
                    "improvement(few)",
                ]);
                for pt in points {
                    t.row(vec![
                        f(pt.a, 3),
                        f(pt.inv_r, 0),
                        f(pt.stretch_ms, 3),
                        f(pt.stretch_msprime, 3),
                        pct(pt.improvement_over_msprime_pct),
                        pt.stretch_msprime_few
                            .map(|s| f(s, 3))
                            .unwrap_or("-".into()),
                        pt.improvement_over_msprime_few_pct
                            .map(pct)
                            .unwrap_or("-".into()),
                    ]);
                }
                out.push_str(&t.render());
            }
            (ExperimentId::Tab1, ReportData::Tab1(rows)) => {
                out.push_str("== TAB 1: trace characteristics (paper vs regenerated) ==\n\n");
                let mut t = Table::new(vec![
                    "trace",
                    "year",
                    "paper %CGI",
                    "gen %CGI",
                    "paper intvl",
                    "gen intvl",
                    "paper HTML",
                    "gen HTML",
                    "paper CGI B",
                    "gen CGI B",
                ]);
                for row in rows {
                    t.row(vec![
                        row.spec.name.to_string(),
                        row.spec.year.to_string(),
                        f(row.spec.cgi_pct, 1),
                        f(row.generated.cgi_pct, 1),
                        format!("{}s", f(row.spec.mean_interval_s, 3)),
                        format!("{}s", f(row.generated.mean_interval_s, 3)),
                        row.spec.mean_html_bytes.to_string(),
                        f(row.generated.mean_static_bytes, 0),
                        row.spec.mean_cgi_bytes.to_string(),
                        f(row.generated.mean_cgi_bytes, 0),
                    ]);
                }
                out.push_str(&t.render());
                let n = rows.first().map(|r| r.generated.requests).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "(regenerated with n={n}; the paper's request counts are the full logs)"
                );
            }
            (ExperimentId::Tab2, ReportData::Tab2(rows)) => {
                out.push_str(
                    "== TAB 2: workload parameter grid (reconstructed; see DESIGN.md) ==\n\n",
                );
                let mut t = Table::new(vec!["trace", "p", "λ (req/s)", "1/r", "load/node", "m*"]);
                for row in rows {
                    t.row(vec![
                        row.cell.trace.to_string(),
                        row.cell.p.to_string(),
                        f(row.cell.lambda, 0),
                        f(row.cell.inv_r, 0),
                        f(row.offered_per_node, 2),
                        row.m.to_string(),
                    ]);
                }
                out.push_str(&t.render());
            }
            (id @ (ExperimentId::Fig4a | ExperimentId::Fig4b), ReportData::Fig4(rows)) => {
                let (letter, p) = if *id == ExperimentId::Fig4a {
                    ("a", 32)
                } else {
                    ("b", 128)
                };
                let _ = writeln!(
                    out,
                    "== FIG 4({letter}): % improvement of M/S over alternatives, p={p} =="
                );
                out.push_str(
                    "   (paper: vs M/S-nr up to 68%; vs M/S-1 up to 26%; vs M/S-ns 5-22%)\n\n",
                );
                let mut t = Table::new(vec![
                    "trace",
                    "λ",
                    "1/r",
                    "m",
                    "S(M/S)",
                    "vs M/S-ns",
                    "vs M/S-nr",
                    "vs M/S-1",
                ]);
                for row in rows {
                    t.row(vec![
                        row.cell.trace.to_string(),
                        f(row.cell.lambda, 0),
                        f(row.cell.inv_r, 0),
                        row.m.to_string(),
                        f(row.ms.stretch, 3),
                        pct(row.imp_ns_pct()),
                        pct(row.imp_nr_pct()),
                        pct(row.imp_m1_pct()),
                    ]);
                }
                out.push_str(&t.render());
            }
            (ExperimentId::Fig5, ReportData::Fig5(rows)) => {
                out.push_str("== FIG 5: degradation when using a fixed number of masters ==\n");
                out.push_str("   (paper: at most 9%, average 4%)\n\n");
                let mut t = Table::new(vec![
                    "trace",
                    "p",
                    "λ",
                    "1/r",
                    "m fixed",
                    "m adaptive",
                    "S fixed",
                    "S adaptive",
                    "degradation",
                ]);
                let mut sum = 0.0;
                let mut max: f64 = 0.0;
                for row in rows {
                    let d = row.degradation_pct();
                    sum += d.max(0.0);
                    max = max.max(d);
                    t.row(vec![
                        row.cell.trace.to_string(),
                        row.cell.p.to_string(),
                        f(row.cell.lambda, 0),
                        f(row.cell.inv_r, 0),
                        row.m_fixed.to_string(),
                        row.m_adaptive.to_string(),
                        f(row.fixed.stretch, 3),
                        f(row.adaptive.stretch, 3),
                        pct(d),
                    ]);
                }
                out.push_str(&t.render());
                let _ = writeln!(
                    out,
                    "max degradation {:.1}%, average {:.1}%",
                    max,
                    sum / rows.len().max(1) as f64
                );
            }
            (ExperimentId::Tab3, ReportData::Tab3(rows)) => {
                out.push_str("== TAB 3: live (actual) vs simulated improvement of M/S ==\n");
                out.push_str(
                    "   (6 nodes, masters UCB 3 / KSU 1 / ADL 1, r=1/40; paper: within a few points)\n\n",
                );
                let mut t = Table::new(vec![
                    "trace",
                    "rate",
                    "versus",
                    "actual",
                    "simulated",
                    "|Δ|",
                ]);
                let mut diff_sum = 0.0;
                for r in rows {
                    let (actual, simulated) = (r.actual_pct(), r.simulated_pct());
                    diff_sum += (actual - simulated).abs();
                    t.row(vec![
                        r.trace.to_string(),
                        format!("{}/s", f(r.rate, 0)),
                        r.versus.label().to_string(),
                        pct(actual),
                        pct(simulated),
                        f((actual - simulated).abs(), 1),
                    ]);
                }
                out.push_str(&t.render());
                let _ = writeln!(
                    out,
                    "mean |actual − simulated| = {:.1} percentage points (paper: ~3)",
                    diff_sum / rows.len().max(1) as f64
                );
            }
            (ExperimentId::Ablation, ReportData::Ablation(ab)) => {
                out.push_str("== ABLATIONS (beyond the paper's figures) ==\n\n");

                out.push_str("-- load-info staleness (KSU, λ=1000, 1/r=80, p=32) --\n");
                let mut t = Table::new(vec!["monitor period", "M/S stretch"]);
                for &(ms, s) in &ab.staleness {
                    t.row(vec![format!("{ms} ms"), f(s, 3)]);
                }
                out.push_str(&t.render());

                out.push_str("\n-- master capacity reserve (UCB, λ=2000, 1/r=80, p=32) --\n");
                let mut t = Table::new(vec!["reserve", "M/S stretch"]);
                for &(r, s) in &ab.reserve {
                    t.row(vec![f(r, 2), f(s, 3)]);
                }
                out.push_str(&t.render());

                out.push_str(
                    "\n-- front end: DNS skew and switch baselines (KSU, λ=1000, 1/r=40) --\n",
                );
                let mut t = Table::new(vec!["configuration", "stretch", "node-busy CV"]);
                for &(name, stretch, cv) in &ab.frontend {
                    t.row(vec![name.to_string(), f(stretch, 3), f(cv, 3)]);
                }
                out.push_str(&t.render());

                let (uncached, cached, hit_ratio) = ab.cache;
                let _ = writeln!(
                    out,
                    "\n-- dynamic-content cache (Swala extension; ADL + Zipf queries) --\n\
                     uncached stretch {:.3} -> cached {:.3} ({:+.1}%), hit ratio {:.1}%",
                    uncached,
                    cached,
                    (cached / uncached - 1.0) * 100.0,
                    hit_ratio * 100.0
                );

                let (ms, redirect) = ab.redirect;
                let _ = writeln!(
                    out,
                    "\n-- remote execution vs HTTP redirection (ADL, λ=1000, 1/r=40) --\n\
                     M/S (remote exec): {:.3}   Redirect: {:.3}   penalty {:+.1}%",
                    ms,
                    redirect,
                    (redirect / ms - 1.0) * 100.0
                );

                out.push_str(
                    "\n-- flash-crowd bursts (ON/OFF arrivals, 3x bursts at 25% duty) --\n",
                );
                let mut t = Table::new(vec!["policy", "Poisson", "bursty", "penalty"]);
                for &(name, poisson, bursty) in &ab.bursty {
                    t.row(vec![
                        name.to_string(),
                        f(poisson, 3),
                        f(bursty, 3),
                        pct((bursty / poisson - 1.0) * 100.0),
                    ]);
                }
                out.push_str(&t.render());

                let (analytic, slow, fast) = ab.hetero;
                let _ = writeln!(
                    out,
                    "\n-- heterogeneous fleet (§6 extension; 8 × 0.5x + 8 × 2.0x nodes) --\n\
                     analytic plan {analytic:.3} | simulated: slow boxes as masters {slow:.3}, \
                     fast boxes as masters {fast:.3}"
                );

                let (mid, num) = ab.theta_rule;
                let _ = writeln!(
                    out,
                    "\n-- θ rule: paper midpoint vs numerical optimum (Figure 3 grid) --\n\
                     mean S_M midpoint {:.4} vs numeric {:.4} ({:+.2}% heuristic cost)",
                    mid,
                    num,
                    (mid / num - 1.0) * 100.0
                );
            }
            // A report always pairs an id with its own data variant; the
            // runner is the only constructor.
            (id, _) => panic!("mismatched report: {id:?}"),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_names_roundtrip() {
        for id in ExperimentId::ALL {
            assert_eq!(ExperimentId::parse(id.name()), Some(id));
        }
        assert_eq!(ExperimentId::parse("nope"), None);
    }

    #[test]
    fn analytic_report_renders_and_serialises() {
        let runner = ExperimentRunner::new(ExpConfig::quick());
        let report = runner.run(ExperimentId::Fig3a);
        assert_eq!(report.experiment, ExperimentId::Fig3a);
        let text = report.render();
        assert!(text.contains("FIG 3(a)"), "{text}");
        let json = report.to_json();
        assert!(json.contains("\"Fig3a\""), "{json}");
        assert!(json.contains("stretch_ms"), "{json}");
        // Telemetry off by default: the key must be entirely absent so
        // pre-existing report JSON stays byte-identical.
        assert!(!json.contains("\"telemetry\""), "{json}");
        // Same config, same report.
        assert_eq!(report, runner.run(ExperimentId::Fig3a));
    }

    #[test]
    fn telemetry_report_carries_a_deterministic_block() {
        let mut exp = ExpConfig::quick();
        exp.requests = 500; // companion replay sizing; keep the test quick
        let runner = ExperimentRunner::new(exp).telemetry(true);
        let report = runner.run(ExperimentId::Fig3a);
        let snap = report.telemetry.as_ref().expect("telemetry attached");
        assert!(snap.sched.place_calls > 0);
        assert_eq!(snap.node_busy.len(), 32);
        let json = report.to_json();
        assert!(json.contains("\"telemetry\""), "{json}");
        // Re-run equality: the companion replay is deterministic.
        assert_eq!(report, runner.run(ExperimentId::Fig3a));
    }

    #[test]
    fn tab2_report_has_grid_shape() {
        let report = ExperimentRunner::new(ExpConfig::quick()).run(ExperimentId::Tab2);
        match &report.data {
            ReportData::Tab2(rows) => assert_eq!(rows.len(), 42),
            other => panic!("wrong data: {other:?}"),
        }
        assert!(report.render().contains("TAB 2"));
    }
}
