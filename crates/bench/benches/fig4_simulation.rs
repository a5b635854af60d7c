//! FIG4: one representative bar group per trace (reduced request count —
//! the full figure is regenerated by `msweb experiments`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use msweb_bench::{fig4_cell, ExpConfig};
use msweb_cluster::GridCell;

fn bench_fig4(c: &mut Criterion) {
    let exp = ExpConfig::quick();
    for (trace, lambda, inv_r) in [
        ("UCB", 1000.0, 40.0),
        ("KSU", 500.0, 80.0),
        ("ADL", 500.0, 40.0),
    ] {
        let cell = GridCell {
            trace,
            p: 32,
            lambda,
            inv_r,
        };
        c.bench_function(&format!("fig4_cell_{trace}"), |b| {
            b.iter(|| black_box(fig4_cell(&cell, &exp)))
        });
    }
}

criterion_group!(name = benches; config = Criterion::default().sample_size(10); targets = bench_fig4);
criterion_main!(benches);
