//! The benchmark's own checks: seeded schedules, exactly repeating work
//! counts, and metric names that match `BENCHMARK.json`. They run on a
//! small generated graph so the whole suite takes seconds.

use std::path::{Path, PathBuf};

use approxrank_perfbench::layers::WORK_COUNTS;
use approxrank_perfbench::run::{self, Args, Outcome};
use approxrank_perfbench::workload::{generate, Workload};
use approxrank_store::json::{parse, Json};

const PAGES: usize = 20_000;

fn work_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

fn run_once(workload: Workload, trace: bool, name: &str) -> Outcome {
    let args = Args {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        pages: PAGES,
    };
    let dir = work_dir(name);
    let outcome = run::run(&args, &dir).expect("benchmark run");
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

#[test]
fn same_seed_same_schedule_other_seed_other_schedule() {
    for workload in Workload::ALL {
        let a = generate(workload, 3, PAGES, 2.0)
            .schedule
            .canonical_bytes(300);
        let b = generate(workload, 3, PAGES, 2.0)
            .schedule
            .canonical_bytes(300);
        let c = generate(workload, 4, PAGES, 2.0)
            .schedule
            .canonical_bytes(300);
        assert!(!a.is_empty());
        assert_eq!(
            a,
            b,
            "{} schedule is not a function of the seed",
            workload.name()
        );
        assert_ne!(a, c, "{} schedule ignores the seed", workload.name());
    }
}

#[test]
fn work_counts_repeat_exactly_across_traced_runs() {
    for workload in Workload::ALL {
        let first = run_once(workload, true, &format!("counts-a-{}", workload.name()));
        let second = run_once(workload, true, &format!("counts-b-{}", workload.name()));
        assert!(
            first.correct && second.correct,
            "{} answers failed",
            workload.name()
        );
        for name in WORK_COUNTS {
            let value = |o: &Outcome| {
                o.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("{name} missing"))
                    .value
            };
            assert_eq!(
                value(&first).to_bits(),
                value(&second).to_bits(),
                "{} {name} differs between runs",
                workload.name()
            );
        }
    }
}

fn listed_names(benchmark: &Json, key: &str) -> Vec<String> {
    benchmark
        .get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("metric name");
            let unit = m.get("unit").and_then(Json::as_str).expect("metric unit");
            assert!(!unit.is_empty());
            name.to_string()
        })
        .collect()
}

#[test]
fn emitted_metrics_are_named_with_units_and_match_the_benchmark_file() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let benchmark = parse(&text).expect("BENCHMARK.json parses");
    let valid = |name: &str| {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    };
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let outcome = run_once(Workload::ColdMix, trace, &format!("names-{key}"));
        let emitted: Vec<String> = outcome.metrics.iter().map(|m| m.name.clone()).collect();
        for m in &outcome.metrics {
            assert!(valid(&m.name), "bad metric name {:?}", m.name);
            assert!(!m.unit.is_empty(), "{} has no unit", m.name);
            assert!(m.value.is_finite(), "{} is not finite", m.name);
        }
        assert_eq!(emitted, listed_names(&benchmark, key), "{key} names differ");
        let line = run::result_json(&outcome);
        let parsed = parse(&line).expect("result line is JSON");
        for field in ["correct", "attempted", "failed", "metrics"] {
            assert!(parsed.get(field).is_some(), "result lacks {field}");
        }
    }
}
