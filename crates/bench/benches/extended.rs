//! The Λ-collapsed solver itself: full solve and warm-started session
//! solve — the knobs that matter once `A_approx` construction is already
//! cheap.

use criterion::{criterion_group, criterion_main, Criterion};

use approxrank_bench::datasets::{au_dataset, DatasetScale};
use approxrank_core::{ApproxRank, SubgraphSession};
use approxrank_graph::{NodeSet, Subgraph};
use approxrank_pagerank::PageRankOptions;

fn bench_extended(c: &mut Criterion) {
    let data = au_dataset(DatasetScale(0.1));
    let g = data.graph();
    let domain = data.domain_index("adelaide.edu.au").expect("domain");
    let sub = Subgraph::extract(g, data.ds_subgraph(domain));
    let approx = ApproxRank::default();
    let ext = approx.extended_graph(g, &sub);
    let opts = PageRankOptions::paper();

    let mut group = c.benchmark_group("extended_solve");
    group.sample_size(20);
    group.bench_function("full_solve", |b| {
        b.iter(|| ext.solve(&opts));
    });
    group.bench_function("session_warm_resolve", |b| {
        let members: Vec<u32> = data.ds_subgraph(domain).members().to_vec();
        let mut session = SubgraphSession::new(
            g,
            NodeSet::from_sorted(g.num_nodes(), members),
            opts.clone(),
        );
        let _ = session.solve(); // prime the warm start
        b.iter(|| session.solve());
    });
    group.finish();
}

criterion_group!(benches, bench_extended);
criterion_main!(benches);
