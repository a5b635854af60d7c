//! Streaming `RequestSource` contract tests: generator/stream
//! equivalence, streamed-vs-materialized run parity on both substrates,
//! and bit-determinism of the sharded monitor tick.

use msweb::prelude::*;

/// `TraceSpec::generate(n)` and `TraceSpec::stream(n)` share one RNG
/// path: the streamed requests must be the materialized trace, request
/// for request, for every built-in trace family.
#[test]
fn stream_matches_generate_for_every_trace() {
    let demand = DemandModel::simulation(40.0);
    for spec in all_traces() {
        let n = 2_000;
        let trace = spec.generate(n, &demand, 1234);
        let streamed: Vec<Request> = spec.stream(n, &demand, 1234).collect();
        assert_eq!(
            trace.requests, streamed,
            "{}: stream() diverged from generate()",
            spec.name
        );
    }
}

/// `len_hint` counts down exactly while a generator source drains.
#[test]
fn gen_source_len_hint_is_exact() {
    let demand = DemandModel::simulation(40.0);
    let mut source = ucb().stream(100, &demand, 7);
    for remaining in (0..=100u64).rev() {
        assert_eq!(source.len_hint(), Some(remaining as usize));
        if remaining > 0 {
            assert!(source.next().is_some());
        }
    }
    assert!(source.next().is_none());
}

/// The simulator produces byte-identical `RunSummary` JSON whether the
/// workload arrives materialized or streamed, at both probe cluster
/// sizes of the scale budget.
#[test]
fn sim_streamed_summary_is_byte_identical() {
    let demand = DemandModel::simulation(40.0);
    for p in [32usize, 128] {
        let lambda = 31.25 * p as f64;
        let trace = ucb().generate(5_000, &demand, 42).scaled_to_rate(lambda);
        let m = plan_masters(p, lambda, ucb().arrival_ratio_a(), 1.0 / 40.0, 1200.0);
        let cfg = ClusterConfig::simulation(p, PolicyKind::MasterSlave)
            .with_masters(m)
            .with_seed(42);
        let materialized = simulate(cfg.clone(), &trace, RunOptions::new()).summary;
        let stats = WorkloadStats::from_trace(&trace);
        let streamed = simulate_source(cfg, trace.source(), stats, RunOptions::new()).summary;
        assert_eq!(materialized, streamed, "p={p}: summaries diverged");
        assert_eq!(
            serde::to_json_string_pretty(&materialized),
            serde::to_json_string_pretty(&streamed),
            "p={p}: summary JSON diverged"
        );
    }
}

/// `WorkloadStats::from_requests` over a stream reproduces the trace
/// estimation bit for bit (same summation order).
#[test]
fn workload_stats_stream_equals_trace() {
    let demand = DemandModel::simulation(40.0);
    for spec in all_traces() {
        let trace = spec.generate(3_000, &demand, 9);
        let from_trace = WorkloadStats::from_trace(&trace);
        let from_stream = WorkloadStats::from_requests(spec.stream(3_000, &demand, 9));
        assert_eq!(from_trace, from_stream, "{}", spec.name);
    }
}

/// The live substrate cannot be byte-deterministic (wall-clock timing),
/// but a streamed emulation must agree with the materialized one on
/// every timing-independent summary field.
#[test]
fn emu_streamed_run_matches_on_timing_independent_fields() {
    let trace = ucb()
        .generate(60, &DemandModel::sun_cluster(40.0), 5)
        .scaled_to_rate(40.0);
    let mut cfg = LiveConfig::sun_cluster(PolicyKind::MasterSlave, 3);
    cfg.time_scale = 0.05;
    cfg.monitor_period = std::time::Duration::from_millis(50);

    let materialized = emulate(&cfg, &trace, LiveRunOptions::new()).summary;
    let scheduler = live_scheduler(&cfg, &trace);
    let streamed = emulate_source(
        &cfg,
        trace.clone().into_source(),
        live_stats(&trace),
        scheduler,
        LiveRunOptions::new(),
    )
    .summary;

    assert_eq!(materialized.completed, streamed.completed);
    assert_eq!(materialized.completed_static, streamed.completed_static);
    assert_eq!(materialized.completed_dynamic, streamed.completed_dynamic);
    assert_eq!(materialized.dropped, streamed.dropped);
    assert_eq!(materialized.restarted, streamed.restarted);
}

/// Sharding the per-tick node work must never change the summary: every
/// per-node refresh is a pure function and all cross-node folds stay
/// sequential, so any worker count reproduces the dense scan bit for
/// bit.
#[test]
fn sharded_tick_summary_is_bit_identical() {
    let demand = DemandModel::simulation(40.0);
    let trace = ksu().generate(4_000, &demand, 11).scaled_to_rate(2_000.0);
    let run_with = |workers: usize| {
        let cfg = ClusterConfig::simulation(64, PolicyKind::MasterSlave)
            .with_masters(8)
            .with_seed(11);
        let mut sim = policy_sim(cfg, &trace).with_tick_workers(workers);
        sim.run(&trace)
    };
    let sequential = run_with(1);
    for workers in [2, 3, 8, 0] {
        let sharded = run_with(workers);
        assert_eq!(sequential, sharded, "workers={workers}");
        assert_eq!(
            serde::to_json_string_pretty(&sequential),
            serde::to_json_string_pretty(&sharded),
            "workers={workers}: JSON diverged"
        );
    }
}

/// The live substrate estimates its workload statistics with the
/// simulator's [`WorkloadStats`]. On every built-in trace (all carry
/// both classes) that must reproduce, bit for bit, the estimate the
/// live path used to make with its own class-mean pass: `a0` from the
/// trace summary's arrival ratio, `r0` as the clamped class-mean ratio.
#[test]
fn live_stats_match_the_former_live_estimator_bit_for_bit() {
    fn former_live_estimate(trace: &Trace) -> (f64, f64, f64, f64) {
        let (mut ds, mut nd, mut ss, mut ns) = (0.0f64, 0u64, 0.0f64, 0u64);
        for r in &trace.requests {
            if r.class.is_dynamic() {
                ds += r.demand.service.as_secs_f64();
                nd += 1;
            } else {
                ss += r.demand.service.as_secs_f64();
                ns += 1;
            }
        }
        let stat_mean = if ns > 0 { ss / ns as f64 } else { 1.0 / 110.0 };
        let dyn_mean = if nd > 0 { ds / nd as f64 } else { stat_mean };
        let a = trace.summary().arrival_ratio_a;
        let a0 = if a.is_finite() && a > 0.0 {
            a.clamp(0.01, 10.0)
        } else {
            0.5
        };
        let r0 = (stat_mean / dyn_mean).clamp(1e-4, 1.0);
        (a0, r0, stat_mean, dyn_mean)
    }

    for spec in all_traces() {
        for demand in [
            DemandModel::simulation(40.0),
            DemandModel::sun_cluster(40.0),
        ] {
            let trace = spec.generate(2_000, &demand, 77).scaled_to_rate(300.0);
            let (a0, r0, stat_mean, dyn_mean) = former_live_estimate(&trace);
            let stats = live_stats(&trace);
            assert_eq!(stats.a0.to_bits(), a0.to_bits(), "{}: a0", spec.name);
            assert_eq!(stats.r0.to_bits(), r0.to_bits(), "{}: r0", spec.name);
            assert_eq!(
                stats.static_mean,
                SimDuration::from_secs_f64(stat_mean),
                "{}: static mean",
                spec.name
            );
            assert_eq!(
                stats.dynamic_mean,
                SimDuration::from_secs_f64(dyn_mean),
                "{}: dynamic mean",
                spec.name
            );
            assert_eq!(msweb::emu::live_priors(&trace), (stats.a0, stats.r0));
        }
    }
}
