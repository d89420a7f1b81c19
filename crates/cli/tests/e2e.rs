//! End-to-end tests of the `subrank` binary: generate a corpus, inspect
//! it, rank a subgraph — all through the real executable.

use std::path::PathBuf;
use std::process::Command;

fn subrank() -> Command {
    Command::new(env!("CARGO_BIN_EXE_subrank"))
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join("subrank-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gen_stats_rank_pipeline() {
    let dir = workdir();
    let graph = dir.join("au.edges");

    // 1. Generate a small AU-like corpus.
    let out = subrank()
        .args([
            "gen",
            "--dataset",
            "au",
            "--pages",
            "4000",
            "--seed",
            "5",
            "--out",
            graph.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("4000 pages"));

    // 2. Stats over it.
    let out = subrank()
        .args(["stats", "--graph", graph.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("pages:            4000"), "{text}");

    // 3. Rank the pages of the first domain (ids from the .parts file).
    let parts = std::fs::read_to_string(format!("{}.parts", graph.to_str().unwrap())).unwrap();
    let first_domain = parts.lines().next().unwrap().split('\t').nth(1).unwrap();
    let ids: Vec<&str> = parts
        .lines()
        .filter(|l| l.ends_with(first_domain))
        .map(|l| l.split('\t').next().unwrap())
        .take(300)
        .collect();
    let subfile = dir.join("sub.txt");
    std::fs::write(&subfile, ids.join("\n")).unwrap();

    let out = subrank()
        .args([
            "rank",
            "--graph",
            graph.to_str().unwrap(),
            "--subgraph",
            subfile.to_str().unwrap(),
            "--top",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("ApproxRank"), "{text}");
    assert!(text.contains("external node Λ"), "{text}");
    assert_eq!(
        text.lines().filter(|l| !l.starts_with('#')).count(),
        6,
        "header + 5 rows:\n{text}"
    );
}

#[test]
fn partition_and_sharded_stats_pipeline() {
    let dir = workdir();
    let graph = dir.join("part.edges");
    // A 100-node ring with some chords, so every shard has internal and
    // cross-shard links.
    let mut edges = String::new();
    for i in 0..100u32 {
        edges.push_str(&format!(
            "{i} {}\n{i} {}\n",
            (i + 1) % 100,
            (i * 7 + 3) % 100
        ));
    }
    std::fs::write(&graph, edges).unwrap();

    // 1. Partition balance through `stats --shards`.
    let out = subrank()
        .args([
            "stats",
            "--graph",
            graph.to_str().unwrap(),
            "--shards",
            "4",
            "--partition",
            "range",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("partition (range into 4 shards):"), "{text}");
    assert!(text.contains("shard 3: 25 pages (25.0%)"), "{text}");
    assert!(text.contains("cross-shard links:"), "{text}");

    // 2. Write the sharded layout with `partition`.
    let shard_dir = dir.join("shards");
    let out = subrank()
        .args([
            "partition",
            "--graph",
            graph.to_str().unwrap(),
            "--shards",
            "4",
            "--out",
            shard_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("into 4 shards (range)"), "{text}");
    assert!(shard_dir.join("manifest.json").exists());
    assert!(shard_dir.join("shard-000.bin").exists());
}

#[test]
fn global_runs_power_iteration_through_the_binary() {
    let dir = workdir();
    let graph = dir.join("tiny.edges");
    std::fs::write(&graph, "0 1\n1 2\n2 0\n2 1\n3 0\n").unwrap();
    let global = |extra: &[&str]| {
        subrank()
            .args(["global", "--graph", graph.to_str().unwrap()])
            .args(["--tolerance", "1e-10", "--top", "1"])
            .args(extra)
            .output()
            .unwrap()
    };

    let out = global(&[]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        text.starts_with("# global PageRank via power iteration on 4 pages"),
        "{text}"
    );
    let top = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .nth(1)
        .unwrap()
        .split('\t')
        .next()
        .unwrap();
    assert_eq!(top, "1", "{text}");

    let out = global(&["--solver", "gs"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --solver"), "{stderr}");
}

#[test]
fn helpful_errors() {
    let out = subrank().args(["rank", "--graph", "g"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--subgraph"));

    let out = subrank().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}
