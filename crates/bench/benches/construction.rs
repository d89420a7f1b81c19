//! Ablation for DESIGN.md §3.3: `A_approx` construction, naive (global
//! dangling scan per subgraph) vs aggregated (one scan amortized over all
//! subgraphs) — the paper's §IV-B precomputation claim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use approxrank_bench::datasets::{au_dataset, DatasetScale};
use approxrank_core::{ApproxRank, GlobalAggregates};
use approxrank_graph::Subgraph;

fn bench_construction(c: &mut Criterion) {
    let data = au_dataset(DatasetScale(0.25));
    let approx = ApproxRank::default();
    let agg = GlobalAggregates::compute(data.graph());

    let mut group = c.benchmark_group("a_approx_construction");
    for domain in [11usize, 5, 0] {
        let sub = Subgraph::extract(data.graph(), data.ds_subgraph(domain));
        let n = sub.len();
        group.bench_with_input(BenchmarkId::new("naive", n), &sub, |b, s| {
            b.iter(|| approx.extended_graph(data.graph(), s));
        });
        group.bench_with_input(BenchmarkId::new("aggregated", n), &sub, |b, s| {
            b.iter(|| approx.extended_graph_aggregated(agg, s));
        });
    }
    group.bench_function("precompute_once", |b| {
        b.iter(|| GlobalAggregates::compute(data.graph()));
    });
    group.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
