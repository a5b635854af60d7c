//! TAB3: one live-vs-simulated validation pair (heavily reduced — the
//! full table is regenerated by `msweb experiments`). The live side
//! runs in real (scaled) time, so samples are few.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use msweb_cluster::{simulate, ClusterConfig, PolicyKind, RunOptions};
use msweb_emu::{emulate, LiveConfig, LiveRunOptions};
use msweb_workload::{ucb, DemandModel};

fn bench_tab3(c: &mut Criterion) {
    let trace = ucb()
        .generate(60, &DemandModel::sun_cluster(40.0), 42)
        .scaled_to_rate(40.0);

    c.bench_function("tab3_live_ucb_60req", |b| {
        b.iter(|| {
            let mut cfg = LiveConfig::sun_cluster(PolicyKind::MasterSlave, 3);
            cfg.time_scale = 0.02;
            cfg.monitor_period = std::time::Duration::from_millis(20);
            black_box(emulate(&cfg, &trace, LiveRunOptions::new()).summary)
        })
    });

    c.bench_function("tab3_sim_ucb_60req", |b| {
        b.iter(|| {
            let cfg = ClusterConfig::simulation(6, PolicyKind::MasterSlave)
                .with_masters(3)
                .with_mu_h(110.0);
            black_box(simulate(cfg, &trace, RunOptions::new()).summary)
        })
    });
}

criterion_group!(name = benches; config = Criterion::default().sample_size(10); targets = bench_tab3);
criterion_main!(benches);
