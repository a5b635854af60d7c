//! Telemetry snapshot guarantees: byte-determinism for a fixed
//! seed/spec (at p = 32 and p = 128), golden fixtures, JSON round-trip,
//! and schema identity between the simulator and the live emulation.
//!
//! Regenerate the fixtures (only when a schema change is intended and
//! reviewed) with:
//!
//! ```sh
//! MSWEB_BLESS=1 cargo test --test telemetry
//! ```

use msweb::prelude::*;

/// The canonical instrumented replay: KSU trace, master/slave policy,
/// λ = 1000/s, planned master count, fixed seed.
fn instrumented_run(p: usize) -> TelemetrySnapshot {
    let trace = ksu()
        .generate(2_000, &DemandModel::simulation(40.0), 42)
        .scaled_to_rate(1_000.0);
    let m = plan_masters(p, 1_000.0, ksu().arrival_ratio_a(), 1.0 / 40.0, 1200.0);
    let cfg = ClusterConfig::simulation(p, PolicyKind::MasterSlave)
        .with_masters(m)
        .with_seed(42);
    simulate(cfg, &trace, RunOptions::new().telemetry(true))
        .telemetry
        .expect("telemetry enabled")
}

fn fixture_path(p: usize) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden")
        .join(format!("telemetry-p{p}.json"))
}

#[test]
fn snapshot_json_is_byte_deterministic_and_matches_fixtures() {
    let bless = std::env::var_os("MSWEB_BLESS").is_some();
    for p in [32, 128] {
        let first = instrumented_run(p).to_json();
        let second = instrumented_run(p).to_json();
        assert_eq!(
            first, second,
            "telemetry JSON must be byte-identical across runs at p={p}"
        );
        let path = fixture_path(p);
        if bless {
            std::fs::write(&path, &first).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {path:?}: {e}"));
        assert_eq!(
            first, want,
            "telemetry snapshot at p={p} drifted from fixture {path:?}"
        );
    }
}

#[test]
fn snapshot_round_trips_through_json() {
    let snap = instrumented_run(32);
    let back = TelemetrySnapshot::from_json(&snap.to_json()).expect("parse back");
    // Equality is over the deterministic encoding, which is exactly
    // what the JSON carries (wall-clock span sums are excluded).
    assert_eq!(snap, back);
    assert!(snap.sched.place_calls > 0);
    assert!(!snap.windows.is_empty(), "controller series sampled");
    assert_eq!(snap.node_busy.len(), 32);
}

/// Every object key path present in one substrate's snapshot, with
/// arrays descended through their first element.
fn key_shape(v: &serde::Value, path: &str, out: &mut Vec<String>) {
    match v {
        serde::Value::Object(fields) => {
            for (k, child) in fields {
                let p = format!("{path}.{k}");
                out.push(p.clone());
                key_shape(child, &p, out);
            }
        }
        serde::Value::Array(items) => {
            if let Some(first) = items.first() {
                key_shape(first, &format!("{path}[]"), out);
            }
        }
        _ => {}
    }
}

#[test]
fn sim_and_live_snapshots_share_one_schema() {
    let sim = instrumented_run(32);

    let trace = ucb()
        .generate(60, &DemandModel::sun_cluster(40.0), 11)
        .scaled_to_rate(40.0);
    let mut cfg = LiveConfig::sun_cluster(PolicyKind::MasterSlave, 3);
    cfg.time_scale = 0.05;
    let scheduler = live_scheduler(&cfg, &trace);
    let live = emulate_with(
        &cfg,
        &trace,
        scheduler,
        LiveRunOptions::new().telemetry(true),
    )
    .telemetry
    .expect("telemetry enabled");
    assert_eq!(live.substrate, "live");
    assert_eq!(sim.substrate, "sim");

    let (mut sim_keys, mut live_keys) = (Vec::new(), Vec::new());
    key_shape(&sim.to_value(), "", &mut sim_keys);
    key_shape(&live.to_value(), "", &mut live_keys);
    assert_eq!(
        sim_keys, live_keys,
        "sim and live snapshots must expose the same key paths"
    );
}

/// A registry-composed run is labelled with its stage spec everywhere
/// telemetry names the policy: the live snapshot, the live series
/// header and the simulator's snapshot under the same spec agree.
#[test]
fn live_and_sim_label_a_spec_run_identically() {
    let spec = StageSpec::for_policy(PolicyKind::MasterSlave);
    let label = spec.render();
    let trace = ucb()
        .generate(60, &DemandModel::sun_cluster(40.0), 11)
        .scaled_to_rate(40.0);
    let (a0, r0) = msweb::emu::live_priors(&trace);

    let mut live_cfg = LiveConfig::sun_cluster(PolicyKind::MasterSlave, 3).with_spec(&label);
    live_cfg.time_scale = 0.05;
    let scheduler = SchedulerRegistry::builtin()
        .compose(&live_cfg.cluster_config(), &spec, a0, r0)
        .expect("spec composes");
    let buf = msweb::cluster::SharedSeriesBuffer::new();
    let outcome = emulate_with(
        &live_cfg,
        &trace,
        scheduler,
        LiveRunOptions::new()
            .telemetry(true)
            .series(SeriesRecorder::to_writer(Box::new(buf.clone()))),
    );
    let live_snap = outcome.telemetry.expect("telemetry enabled");
    let contents = buf.contents();
    let header = serde::Value::parse(contents.lines().next().expect("series header")).unwrap();
    let series_policy = header.get("policy").and_then(serde::Value::as_str);

    let sim_cfg = live_cfg.cluster_config();
    let scheduler = SchedulerRegistry::builtin()
        .compose(&sim_cfg, &spec, a0, r0)
        .expect("spec composes");
    let mut sim = ClusterSim::with_scheduler(sim_cfg, scheduler)
        .with_priors(a0, r0)
        .with_spec_label(&label)
        .with_telemetry();
    sim.run(&trace);
    let sim_snap = sim.telemetry_snapshot().expect("telemetry enabled");

    assert_eq!(sim_snap.policy, label);
    assert_eq!(series_policy, Some(label.as_str()), "live series header");
    assert_eq!(live_snap.policy, label, "live snapshot");
}
