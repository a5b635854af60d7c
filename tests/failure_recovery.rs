//! End-to-end failure injection: node crashes, restart of dynamic work,
//! recovery — the §2 fail-over story. The traced variants check that the
//! failure path is fully replayable from the decision log alone:
//! node-down/up and drop events land in the trace, restart placements
//! are flagged, and `analyze` reconstructs the same drop counts the live
//! `RunSummary` reported.

use msweb::cluster::SharedSeriesBuffer;
use msweb::prelude::*;

fn workload(seed: u64) -> Trace {
    adl()
        .generate(5_000, &DemandModel::simulation(40.0), seed)
        .scaled_to_rate(400.0)
}

#[test]
fn slave_crash_restarts_dynamics_and_loses_nothing_else() {
    let trace = workload(1);
    let mut cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave);
    cfg = cfg.with_masters(3);
    let mid = SimTime::ZERO + trace.span().mul_f64(0.5);
    let mut sim = ClusterSim::new(cfg, adl().arrival_ratio_a(), 1.0 / 40.0)
        .with_failures(FailurePlan::crash(6, mid));
    let s = sim.run(&trace);
    // Slaves only hold dynamic requests, and restart is enabled: every
    // request is eventually completed.
    assert_eq!(s.completed, 5_000, "dropped {}", s.dropped);
    assert_eq!(s.dropped, 0);
}

#[test]
fn crash_without_restart_drops_in_flight_work() {
    let trace = workload(2);
    let mut cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave);
    cfg = cfg.with_masters(3);
    let mid = SimTime::ZERO + trace.span().mul_f64(0.5);
    let plan = FailurePlan::new(vec![FailureEvent {
        at: mid,
        node: 6,
        restart_dynamic: false,
        recover_at: None,
    }]);
    let mut sim = ClusterSim::new(cfg, adl().arrival_ratio_a(), 1.0 / 40.0).with_failures(plan);
    let s = sim.run(&trace);
    assert_eq!(s.completed + s.dropped, 5_000);
    assert!(
        s.dropped > 0,
        "a loaded slave should have held work when it died"
    );
    assert_eq!(s.restarted, 0);
}

#[test]
fn multiple_failures_still_account_for_everything() {
    let trace = workload(3);
    let span = trace.span();
    let mut cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave);
    cfg = cfg.with_masters(3);
    let plan = FailurePlan::new(vec![
        FailureEvent {
            at: SimTime::ZERO + span.mul_f64(0.3),
            node: 5,
            restart_dynamic: true,
            recover_at: Some(SimTime::ZERO + span.mul_f64(0.8)),
        },
        FailureEvent {
            at: SimTime::ZERO + span.mul_f64(0.5),
            node: 7,
            restart_dynamic: true,
            recover_at: None,
        },
    ]);
    let mut sim = ClusterSim::new(cfg, adl().arrival_ratio_a(), 1.0 / 40.0).with_failures(plan);
    let s = sim.run(&trace);
    assert_eq!(s.completed + s.dropped, 5_000);
    assert_eq!(s.dropped, 0, "restart-enabled crashes should drop nothing");
}

#[test]
fn switch_crash_restarts_and_accounts_for_everything() {
    // The L4-switch baseline has no master level; a crash must still
    // restart the dead node's dynamics and complete the workload.
    let trace = workload(5);
    let cfg = ClusterConfig::simulation(8, PolicyKind::Switch);
    let mid = SimTime::ZERO + trace.span().mul_f64(0.5);
    let mut sim = ClusterSim::new(cfg, adl().arrival_ratio_a(), 1.0 / 40.0)
        .with_failures(FailurePlan::crash(3, mid));
    let s = sim.run(&trace);
    assert_eq!(s.completed, 5_000, "dropped {}", s.dropped);
    assert_eq!(s.dropped, 0);
}

#[test]
fn redirect_crash_accounts_for_everything() {
    // Redirection changes only who pays the transfer latency; fail-over
    // accounting must be unaffected.
    let trace = workload(6);
    let mut cfg = ClusterConfig::simulation(8, PolicyKind::Redirect);
    cfg = cfg.with_masters(3);
    let span = trace.span();
    let plan = FailurePlan::new(vec![
        FailureEvent {
            at: SimTime::ZERO + span.mul_f64(0.4),
            node: 6,
            restart_dynamic: true,
            recover_at: Some(SimTime::ZERO + span.mul_f64(0.9)),
        },
        FailureEvent {
            at: SimTime::ZERO + span.mul_f64(0.6),
            node: 4,
            restart_dynamic: false,
            recover_at: None,
        },
    ]);
    let mut sim = ClusterSim::new(cfg, adl().arrival_ratio_a(), 1.0 / 40.0).with_failures(plan);
    let s = sim.run(&trace);
    assert_eq!(s.completed + s.dropped, 5_000);
    assert!(
        s.restarted > 0,
        "the restart-enabled crash should restart work"
    );
}

/// Run a traced M/S simulation under `plan` and return the parsed log
/// with the run's summary.
fn traced_failure_run(seed: u64, plan: FailurePlan) -> (TraceLog, RunSummary) {
    let trace = workload(seed);
    let mut cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave);
    cfg = cfg.with_masters(3);
    let mut sim = ClusterSim::new(cfg, adl().arrival_ratio_a(), 1.0 / 40.0).with_failures(plan);
    let buf = SharedSeriesBuffer::new();
    sim.scheduler_mut()
        .set_observer(Some(Box::new(JsonlSink::new(buf.clone()))));
    let s = sim.run(&trace);
    let log = TraceLog::parse(&buf.contents()).expect("parse failure log");
    (log, s)
}

/// One recovering restart-crash plus one fatal no-restart crash: the
/// log must carry node-down, node-up, restart decisions *and* fail-over
/// drops.
fn two_crash_plan(span: SimDuration) -> FailurePlan {
    FailurePlan::new(vec![
        FailureEvent {
            at: SimTime::ZERO + span.mul_f64(0.5),
            node: 6,
            restart_dynamic: true,
            recover_at: Some(SimTime::ZERO + span.mul_f64(0.9)),
        },
        FailureEvent {
            at: SimTime::ZERO + span.mul_f64(0.7),
            node: 5,
            restart_dynamic: false,
            recover_at: None,
        },
    ])
}

#[test]
fn failure_events_appear_in_the_decision_log() {
    let span = workload(8).span();
    let (log, s) = traced_failure_run(8, two_crash_plan(span));
    assert!(s.restarted > 0, "restart crash should restart work");
    assert!(s.dropped > 0, "no-restart crash should drop work");

    let downs = log
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::NodeDown { .. }))
        .count();
    let ups = log
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::NodeUp { .. }))
        .count();
    assert_eq!(downs, 2, "both crashes should be logged");
    assert_eq!(ups, 1, "only node 6 recovers");

    let restart_decisions = log
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Decision(r) if r.restart))
        .count() as u64;
    assert_eq!(
        restart_decisions, s.restarted,
        "each successful restart is a restart-flagged decision"
    );

    let drop_events: Vec<&DropRecord> = log
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Drop(d) => Some(d),
            _ => None,
        })
        .collect();
    assert_eq!(drop_events.len() as u64, s.dropped, "every drop is logged");
    assert!(
        drop_events.iter().all(|d| d.restart),
        "these drops all happen on the fail-over path"
    );
}

#[test]
fn replayed_failure_run_matches_live_summary() {
    let span = workload(8).span();
    let (log, s) = traced_failure_run(8, two_crash_plan(span));

    // The failure scenario must be reconstructible from the log alone:
    // self-replay stays a fixed point across the crashes, and the
    // analyzer's drop/restart accounting matches the live summary.
    let report = analyze(&log, &ReplayOptions::default()).expect("analyze failure log");
    assert_eq!(
        report.divergent, 0,
        "failure-path self-replay must stay in lockstep"
    );
    assert_eq!(report.first_disagreement, None);
    assert_eq!(report.drops_recorded, s.dropped);
    assert_eq!(
        report.drops_replayed, s.dropped,
        "replay should drop exactly the requests the live run dropped"
    );
    assert_eq!(report.restarts_recorded, s.restarted);
    assert_eq!(report.completions, s.completed);
    assert_eq!(report.rescued, 0, "a fixed point rescues nothing");
}

/// Requests of `log` re-placed by the fail-over path that were still in
/// transit to master 0 at `crash_us` and landed on a slave.
fn transit_reroutes_to_slaves(log: &TraceLog, crash_us: u64) -> usize {
    let mut last: std::collections::HashMap<u64, &DecisionRecord> = Default::default();
    let mut rerouted = 0;
    for e in &log.events {
        if let TraceEvent::Decision(r) = e {
            if let (true, Some(prev)) = (r.restart, last.get(&r.req)) {
                let in_transit = prev.chosen == 0 && prev.at_us + prev.latency_us > crash_us;
                if in_transit && prev.on_master && !r.on_master {
                    rerouted += 1;
                }
            }
            last.insert(r.req, r);
        }
    }
    rerouted
}

/// A dynamic request still in transit to a master when that master
/// dies is re-placed by the fail-over path. If the new placement is on
/// a slave, the completion must be accounted at the slave level, just
/// like a request restarted from the crashed node's run queue.
#[test]
fn transit_rerouted_dynamic_is_attributed_to_its_new_level() {
    let m = 3;
    // Crash master 0 halfway through a remote transfer towards it (the
    // run is deterministic up to the crash), trying transfers from the
    // second half of the run until the fail-over re-places one on a slave.
    let (clean, _) = traced_failure_run(9, FailurePlan::none());
    let transfers: Vec<u64> = clean
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Decision(r) if r.dynamic && r.on_master && r.chosen == 0 => {
                (r.latency_us > 0).then_some(r.at_us + r.latency_us / 2)
            }
            _ => None,
        })
        .collect();
    let (crash_us, log, s) = transfers[transfers.len() / 2..]
        .iter()
        .take(20)
        .find_map(|&at| {
            let (log, s) = traced_failure_run(9, FailurePlan::crash(0, SimTime(at)));
            (transit_reroutes_to_slaves(&log, at) > 0).then_some((at, log, s))
        })
        .expect("some crash must re-route an in-transit dynamic from master 0 to a slave");
    assert!(transit_reroutes_to_slaves(&log, crash_us) > 0);

    // Every dynamic completion counted at the master level ran on a
    // master node.
    let on_masters = log
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Complete { node, dynamic: true, .. } if *node < m))
        .count() as u64;
    assert_eq!(s.dynamic_on_master, on_masters);
}

#[test]
fn crash_degrades_but_does_not_wedge_performance() {
    let trace = workload(4);
    let mid = SimTime::ZERO + trace.span().mul_f64(0.4);

    let mut base_cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave);
    base_cfg = base_cfg.with_masters(3);
    let healthy = simulate(base_cfg.clone(), &trace, RunOptions::new()).summary;

    let mut sim = ClusterSim::new(base_cfg, adl().arrival_ratio_a(), 1.0 / 40.0)
        .with_failures(FailurePlan::crash(6, mid));
    let crashed = sim.run(&trace);

    assert!(
        crashed.stretch >= healthy.stretch * 0.95,
        "losing a node shouldn't help: {} vs {}",
        crashed.stretch,
        healthy.stretch
    );
    assert!(
        crashed.stretch <= healthy.stretch * 20.0,
        "losing one of 8 nodes must not collapse the cluster: {} vs {}",
        crashed.stretch,
        healthy.stretch
    );
}
