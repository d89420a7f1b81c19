//! `subrank gen` — write a synthetic dataset to disk.

use approxrank_gen::{au_like, politics_like, AuConfig, PoliticsConfig};
use approxrank_graph::io;

use crate::args::GenArgs;

/// Runs the command; writes the edge list (plus a `.parts` sidecar file
/// mapping each page to its domain/topic name) and returns a summary.
pub fn run(args: &GenArgs) -> Result<String, String> {
    let (graph, parts): (approxrank_graph::DiGraph, Vec<String>) = match args.dataset.as_str() {
        "au" => {
            let d = au_like(&AuConfig {
                pages: args.pages,
                seed: args.seed,
                ..AuConfig::default()
            });
            let parts = (0..d.graph().num_nodes() as u32)
                .map(|u| d.domain_name(d.domain_of(u) as usize).to_string())
                .collect();
            (d.graph().clone(), parts)
        }
        "politics" => {
            let d = politics_like(&PoliticsConfig {
                pages: args.pages,
                seed: args.seed,
                ..PoliticsConfig::default()
            });
            let parts = (0..d.graph().num_nodes() as u32)
                .map(|u| d.topic_name(d.topic_of(u) as usize).to_string())
                .collect();
            (d.graph().clone(), parts)
        }
        other => return Err(format!("unknown dataset {other:?} (au|politics)")),
    };

    io::write_edge_list_file(&graph, &args.out)
        .map_err(|e| format!("cannot write {}: {e}", args.out))?;
    let parts_path = format!("{}.parts", args.out);
    let mut parts_text = String::with_capacity(parts.len() * 16);
    for (page, name) in parts.iter().enumerate() {
        parts_text.push_str(&format!("{page}\t{name}\n"));
    }
    std::fs::write(&parts_path, parts_text)
        .map_err(|e| format!("cannot write {parts_path}: {e}"))?;

    Ok(format!(
        "wrote {} ({} pages, {} links) and {} (page→part map)\n",
        args.out,
        graph.num_nodes(),
        graph.num_edges(),
        parts_path
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_and_reloads() {
        let dir = crate::commands::test_dir("gen-reload");
        let out = dir.join("au.edges").to_string_lossy().into_owned();
        let summary = run(&GenArgs {
            dataset: "au".into(),
            pages: 3_000,
            seed: 7,
            out: out.clone(),
        })
        .unwrap();
        assert!(summary.contains("3000 pages"));
        let g = io::read_edge_list_file(&out).unwrap();
        assert_eq!(g.num_nodes(), 3_000);
        let parts = std::fs::read_to_string(format!("{out}.parts")).unwrap();
        assert_eq!(parts.lines().count(), 3_000);
        assert!(parts.contains("edu.au"));
    }

    #[test]
    fn rejects_unknown_dataset() {
        let err = run(&GenArgs {
            dataset: "webscale".into(),
            pages: 100,
            seed: 0,
            out: "/tmp/x".into(),
        })
        .unwrap_err();
        assert!(err.contains("unknown dataset"));
    }
}
