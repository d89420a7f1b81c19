//! `subrank stats` — descriptive statistics of a graph file.

use approxrank_graph::{assign_shards, strongly_connected_components, GraphStats, PartitionStats};

use crate::args::StatsArgs;
use crate::commands::load_graph;

/// Runs the command, returning the rendered report.
pub fn run(args: &StatsArgs) -> Result<String, String> {
    let graph = load_graph(&args.graph)?;
    let stats = GraphStats::compute(&graph);
    let scc = strongly_connected_components(&graph);
    let mut out = format!(
        "graph: {}\n\
         pages:            {}\n\
         links:            {}\n\
         avg out-degree:   {:.3}\n\
         max out-degree:   {}\n\
         max in-degree:    {}\n\
         dangling pages:   {} ({:.1}%)\n\
         isolated pages:   {}\n\
         strongly connected components: {} (largest {})\n",
        args.graph,
        stats.num_nodes,
        stats.num_edges,
        stats.avg_out_degree,
        stats.max_out_degree,
        stats.max_in_degree,
        stats.num_dangling,
        100.0 * stats.dangling_fraction(),
        stats.num_isolated,
        scc.count,
        scc.largest(),
    );
    if args.shards >= 2 {
        let shard_of = assign_shards(&graph, args.shards, args.partition);
        let p = PartitionStats::compute(&graph, &shard_of, args.shards);
        out.push_str(&format!(
            "partition ({} into {} shards):\n",
            args.partition.name(),
            args.shards
        ));
        for (k, shard) in p.shards.iter().enumerate() {
            out.push_str(&format!(
                "  shard {k}: {} pages ({:.1}%), {} internal links\n",
                shard.nodes,
                if stats.num_nodes == 0 {
                    0.0
                } else {
                    100.0 * shard.nodes as f64 / stats.num_nodes as f64
                },
                shard.internal_edges,
            ));
        }
        out.push_str(&format!(
            "  cross-shard links: {} ({:.1}%)\n  node imbalance:    {:.3}\n",
            p.cross_edges,
            100.0 * p.cross_fraction(),
            p.node_imbalance(),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxrank_graph::{io, DiGraph};

    #[test]
    fn reports_all_fields() {
        let dir = crate::commands::test_dir("stats-all-fields");
        // Note: the edge-list format cannot represent trailing isolated
        // nodes, so the fixture covers every node with an edge.
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (3, 2)]);
        let p = dir.join("g.edges");
        io::write_edge_list_file(&g, &p).unwrap();
        let out = run(&StatsArgs {
            graph: p.to_string_lossy().into_owned(),
            ..StatsArgs::default()
        })
        .unwrap();
        assert!(out.contains("pages:            4"), "{out}");
        assert!(out.contains("links:            4"));
        assert!(out.contains("dangling pages:   1"));
        assert!(out.contains("components: 3 (largest 2)"));
        assert!(!out.contains("partition"), "off by default: {out}");
    }

    #[test]
    fn reports_partition_balance() {
        let dir = crate::commands::test_dir("stats-partition-balance");
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (3, 2)]);
        let p = dir.join("g2.edges");
        io::write_edge_list_file(&g, &p).unwrap();
        let out = run(&StatsArgs {
            graph: p.to_string_lossy().into_owned(),
            shards: 2,
            ..StatsArgs::default()
        })
        .unwrap();
        // Range split of 4 nodes: {0,1} and {2,3}; edge 1→2 crosses.
        assert!(out.contains("partition (range into 2 shards):"), "{out}");
        assert!(
            out.contains("shard 0: 2 pages (50.0%), 2 internal links"),
            "{out}"
        );
        assert!(
            out.contains("shard 1: 2 pages (50.0%), 1 internal links"),
            "{out}"
        );
        assert!(out.contains("cross-shard links: 1 (25.0%)"), "{out}");
        assert!(out.contains("node imbalance:    1.000"), "{out}");
    }
}
