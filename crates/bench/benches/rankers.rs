//! End-to-end ranker cost on one DS subgraph: the microbenchmark behind
//! Tables V/VI's runtime columns (ApproxRank ≈ small multiple of local
//! PageRank; SC an order of magnitude beyond).

use criterion::{criterion_group, criterion_main, Criterion};

use approxrank_bench::datasets::{au_dataset, DatasetScale};
use approxrank_core::baselines::{LocalPageRank, Lpr2};
use approxrank_core::{ApproxRank, StochasticComplementation, SubgraphRanker};
use approxrank_graph::Subgraph;

fn bench_rankers(c: &mut Criterion) {
    let data = au_dataset(DatasetScale(0.1));
    // A mid-sized domain keeps SC affordable inside a benchmark loop.
    let domain = data
        .domain_index("bond.edu.au")
        .expect("paper domain exists");
    let sub = Subgraph::extract(data.graph(), data.ds_subgraph(domain));
    let g = data.graph();

    let mut group = c.benchmark_group("rankers_bond.edu.au");
    group.sample_size(10);
    group.bench_function("local_pagerank", |b| {
        let r = LocalPageRank::default();
        b.iter(|| r.rank(g, &sub));
    });
    group.bench_function("lpr2", |b| {
        let r = Lpr2::default();
        b.iter(|| r.rank(g, &sub));
    });
    group.bench_function("approxrank", |b| {
        let r = ApproxRank::default();
        b.iter(|| r.rank(g, &sub));
    });
    group.bench_function("approxrank_aggregated", |b| {
        let r = ApproxRank::default();
        let agg = approxrank_core::GlobalAggregates::compute(g);
        b.iter(|| r.rank_subgraph_aggregated(agg, &sub));
    });
    group.bench_function("sc", |b| {
        let r = StochasticComplementation::default();
        b.iter(|| r.rank(g, &sub));
    });
    group.finish();
}

criterion_group!(benches, bench_rankers);
criterion_main!(benches);
