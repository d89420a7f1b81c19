//! `subrank partition` — split a graph into a sharded on-disk layout.
//!
//! Writes the binary format `approxrank_graph::read_partitioned` loads:
//! a `manifest.json`, one `shard-k.bin` per shard, and the cross-shard
//! edge list. The partitioners are deterministic, so re-running over the
//! same graph reproduces the same layout byte for byte.

use approxrank_graph::{write_partitioned, PartitionedGraph};

use crate::args::PartitionArgs;
use crate::commands::load_graph;

/// Runs the command, returning the rendered summary.
pub fn run(args: &PartitionArgs) -> Result<String, String> {
    let graph = load_graph(&args.graph)?;
    let pg = PartitionedGraph::build(&graph, args.shards, args.partition);
    write_partitioned(&args.out, &pg).map_err(|e| format!("cannot write {}: {e}", args.out))?;
    let mut out = format!(
        "partitioned {} ({} pages, {} links) into {} shards ({}) at {}\n",
        args.graph,
        graph.num_nodes(),
        graph.num_edges(),
        args.shards,
        args.partition.name(),
        args.out,
    );
    for shard in pg.shards() {
        out.push_str(&format!(
            "  shard {}: {} pages, {} internal links\n",
            shard.id(),
            shard.len(),
            shard.view().local_graph().num_edges(),
        ));
    }
    out.push_str(&format!(
        "  cross-shard links: {}\n",
        pg.cross_edges().len()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxrank_graph::{io, read_partitioned, DiGraph, PartitionStrategy};

    #[test]
    fn writes_a_loadable_layout() {
        let dir = crate::commands::test_dir("partition-layout");
        let n = 40u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = DiGraph::from_edges(n as usize, &edges);
        let graph_path = dir.join("g.edges");
        io::write_edge_list_file(&g, &graph_path).unwrap();
        let out_dir = dir.join("shards");
        let report = run(&PartitionArgs {
            graph: graph_path.to_string_lossy().into_owned(),
            shards: 2,
            partition: PartitionStrategy::Range,
            out: out_dir.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(report.contains("into 2 shards (range)"), "{report}");
        assert!(report.contains("shard 0: 20 pages"), "{report}");

        let back = read_partitioned(&out_dir).unwrap();
        assert_eq!(back.num_shards(), 2);
        assert_eq!(
            back.shards().iter().map(|s| s.len()).sum::<usize>(),
            n as usize
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_graph_is_an_error() {
        let err = run(&PartitionArgs {
            graph: "/nonexistent/g.edges".into(),
            shards: 2,
            partition: PartitionStrategy::Range,
            out: "/tmp/unused".into(),
        })
        .unwrap_err();
        assert!(err.contains("/nonexistent/g.edges"), "{err}");
    }
}
