//! FIG5: fixed-m vs adaptive-m sensitivity, one cell (the full 12-group
//! figure is regenerated by `msweb experiments`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use msweb_bench::ExpConfig;
use msweb_cluster::{plan_masters, simulate, ClusterConfig, PolicyKind, RunOptions};
use msweb_workload::{ksu, DemandModel};

fn bench_fig5(c: &mut Criterion) {
    let exp = ExpConfig::quick();
    let trace = ksu()
        .generate(exp.requests, &DemandModel::simulation(40.0), exp.seed)
        .scaled_to_rate(1000.0);
    let m_fixed = plan_masters(32, 750.0, 0.44, 1.0 / 60.0, 1200.0);
    let m_adaptive = plan_masters(32, 1000.0, ksu().arrival_ratio_a(), 1.0 / 40.0, 1200.0);
    for (name, m) in [("fixed", m_fixed), ("adaptive", m_adaptive)] {
        c.bench_function(&format!("fig5_ksu_m_{name}"), |b| {
            b.iter(|| {
                let cfg = ClusterConfig::simulation(32, PolicyKind::MasterSlave).with_masters(m);
                black_box(simulate(cfg, &trace, RunOptions::new()).summary)
            })
        });
    }
}

criterion_group!(name = benches; config = Criterion::default().sample_size(10); targets = bench_fig5);
criterion_main!(benches);
