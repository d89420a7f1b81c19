//! One benchmark run: inputs from the seed, repeated set-up, the timed
//! window, the answer checks, and (traced) the per-layer figures.

use std::path::{Path, PathBuf};

use approxrank_graph::io;

use crate::deploy::{self, Deployment};
use crate::drive;
use crate::layers::{self, Metric};
use crate::stats::{median, percentile};
use crate::verify;
use crate::workload::{self, Kind, Workload, PAGES};

/// Set-ups per run; `setup_s` reports their median.
pub const SETUPS: usize = 3;

/// The command line of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Per-layer figures instead of end-to-end ones.
    pub trace: bool,
    /// Pages of the generated graph ([`PAGES`] outside tests).
    pub pages: usize,
}

/// What the run prints.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every answer checked out and nothing failed.
    pub correct: bool,
    /// Requests sent in the timed window.
    pub attempted: usize,
    /// Requests that errored, answered non-2xx, or disagreed with the
    /// reference.
    pub failed: usize,
    /// The figures, in print order.
    pub metrics: Vec<Metric>,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
        pages: PAGES,
    })
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn data_dir(tmp: &Path, workload: Workload, name: &str) -> Option<PathBuf> {
    (workload == Workload::MutateMix).then(|| tmp.join(name))
}

/// Runs the benchmark, keeping its files under `tmp`.
pub fn run(args: &Args, tmp: &Path) -> Result<Outcome, String> {
    let inputs = workload::generate(args.workload, args.seed, args.pages, args.seconds);
    let graph_file = tmp.join("graph.bin");
    io::write_binary_file(&inputs.graph, &graph_file)
        .map_err(|e| format!("cannot write the graph file: {e}"))?;
    let schedule = &inputs.schedule;

    let mut setups = Vec::new();
    let mut deployment: Option<Deployment> = None;
    for k in 0..SETUPS {
        if let Some(previous) = deployment.take() {
            previous.stop();
        }
        let (booted, secs) = deploy::timed_boot(
            args.workload,
            &graph_file,
            data_dir(tmp, args.workload, &format!("data{k}")),
        )?;
        setups.push(secs);
        deployment = Some(booted);
    }
    let deployment = deployment.expect("at least one set-up");
    let prepared = drive::open_sessions(&deployment, schedule)
        .and_then(|s| drive::warm_keys(&deployment, schedule).map(|()| s));
    let sessions = match prepared {
        Ok(s) => s,
        Err(e) => {
            deployment.stop();
            return Err(e);
        }
    };
    // Cache and batch counters of the window alone, without the set-up
    // and warm-up requests before it or the answer checks after it.
    let state = &deployment.state;
    let before = (
        state.cache_stats(),
        state.keyword_cache.stats(),
        state.router.batch_stats(),
    );
    let window = drive::run(&deployment, schedule, &sessions, args.seconds);
    let (cache, keyword_cache, batch) = (
        state.cache_stats(),
        state.keyword_cache.stats(),
        state.router.batch_stats(),
    );
    let hits = (cache.hits - before.0.hits, cache.misses - before.0.misses);
    let keyword_hits = (keyword_cache.0 - before.1 .0, keyword_cache.1 - before.1 .1);
    let keyword_solves = batch.keyword_solves - before.2.keyword_solves;
    let keyword_columns = batch.keyword_columns - before.2.keyword_columns;
    let checked = verify::check(schedule, &inputs.graph, &window, &deployment, args.seed);
    let retries: u64 = deployment
        .state
        .router
        .remote_engines()
        .iter()
        .map(|e| e.metrics().retries)
        .sum();
    deployment.stop();
    let (mismatches, reference) = checked?;

    let not_ok = window.exchanges.iter().filter(|e| !e.ok).count();
    let attempted = window.exchanges.len() + window.transport_errors;
    let failed = not_ok + window.transport_errors + mismatches;
    let latencies = |kind: Kind| {
        let mut v: Vec<f64> = window
            .exchanges
            .iter()
            .filter(|e| e.ok && e.kind == kind)
            .map(|e| e.latency_ms)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let reads = latencies(Kind::Read);
    let mut writes = latencies(Kind::EdgeWrite);
    writes.extend(latencies(Kind::SessionUpdate));
    writes.sort_by(f64::total_cmp);
    eprintln!(
        "# {} seed {}: {} attempted, {} failed ({} answers disagreed), {} read and {} write samples",
        args.workload.name(),
        args.seed,
        attempted,
        failed,
        mismatches,
        reads.len(),
        writes.len()
    );

    let metrics = if args.trace {
        let mut lags: Vec<f64> = window.exchanges.iter().map(|e| e.lag_ms).collect();
        lags.sort_by(f64::total_cmp);
        let share = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        let mut m = vec![
            metric(
                "engine.cache.hit_ratio",
                share(hits.0, hits.0 + hits.1),
                "ratio",
            ),
            metric(
                "serve.keyword_cache.hit_ratio",
                share(keyword_hits.0, keyword_hits.0 + keyword_hits.1),
                "ratio",
            ),
            metric(
                "engine.batch.columns_per_solve",
                share(keyword_columns, keyword_solves),
                "count",
            ),
            metric("rpc.retries", retries as f64, "count"),
            metric(
                "bench.lag_p99_ms",
                percentile(&lags, 99.0).unwrap_or(0.0),
                "ms",
            ),
            metric("bench.read_samples", reads.len() as f64, "count"),
            metric("bench.write_samples", writes.len() as f64, "count"),
            metric(
                "write_p50_ms",
                percentile(&writes, 50.0).unwrap_or(0.0),
                "ms",
            ),
            metric(
                "write_p90_ms",
                percentile(&writes, 90.0).unwrap_or(0.0),
                "ms",
            ),
            metric(
                "failed_share",
                if attempted == 0 {
                    0.0
                } else {
                    failed as f64 / attempted as f64
                },
                "ratio",
            ),
        ];
        m.extend(layers::measure(
            schedule,
            &inputs.graph,
            &graph_file,
            tmp,
            &reference,
        )?);
        m
    } else {
        let (count, slice_s) = drive::slices(args.seconds);
        let mut cpu = Vec::new();
        let mut p50 = Vec::new();
        let mut p90 = Vec::new();
        for k in 0..count {
            let (from, to) = (k as f64 * slice_s, (k + 1) as f64 * slice_s);
            let inside: Vec<_> = window
                .exchanges
                .iter()
                .filter(|e| e.ok && e.end_s >= from && e.end_s < to)
                .collect();
            if let (Some(a), Some(b)) = (window.cpu_marks_ms.get(k), window.cpu_marks_ms.get(k + 1))
            {
                cpu.push((b - a) / inside.len().max(1) as f64);
            }
            let mut slice_reads: Vec<f64> = inside
                .iter()
                .filter(|e| e.kind == Kind::Read)
                .map(|e| e.latency_ms)
                .collect();
            slice_reads.sort_by(f64::total_cmp);
            let (Some(a), Some(b)) = (
                percentile(&slice_reads, 50.0),
                percentile(&slice_reads, 90.0),
            ) else {
                return Err(format!(
                    "slice {k} holds only {} read samples: too few for a p90",
                    slice_reads.len()
                ));
            };
            p50.push(a);
            p90.push(b);
        }
        let ok = window.exchanges.len() - not_ok;
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        vec![
            metric("setup_s", med(&setups), "s"),
            metric("throughput_rps", ok as f64 / window.elapsed_s, "1/s"),
            metric("read_p50_ms", med(&p50), "ms"),
            metric("read_p90_ms", med(&p90), "ms"),
            metric("cpu_ms_per_req", med(&cpu), "ms"),
            metric("peak_rss_mb", window.peak_rss_mb, "MiB"),
        ]
    };
    Ok(Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
    })
}

/// The result line: one JSON object.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}
