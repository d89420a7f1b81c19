//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all [--scale F] [--jobs N] [--markdown] [--quiet] [--trace-json FILE]
//! repro table2|table3|table4|table5|table6|figure7|theorem1|theorem2 [--scale F]
//! repro bench [--scale F] [--markdown]   # thread-scaling baseline (PERFORMANCE.md)
//! ```
//!
//! `--scale 1.0` (default) is a 1:20 reduction of the paper's crawls
//! sized for a laptop; `--scale 20` is paper-sized. `--markdown` emits
//! GitHub-flavoured markdown (the format `EXPERIMENTS.md` embeds).
//! `--quiet` silences the progress notes on stderr; `--trace-json FILE`
//! records a per-experiment span stream that `subrank report` renders.
//! `--jobs N` fans the independent experiments of `repro all` across a
//! persistent work pool; output order and telemetry order are identical
//! to `--jobs 1`.

use std::process::ExitCode;

use approxrank_bench::datasets::DatasetScale;
use approxrank_bench::experiments::{
    ablation_cohesion, ablation_damping, ablation_serverrank, convergence, figure7, perf, scaling,
    scorecard, table2, table3, table4, table5, table6, theorem1, theorem2, topk, updating,
    walk_quality, AuContext, ExperimentOutput, PoliticsContext,
};
use approxrank_exec::{Executor, Partition};
use approxrank_trace::{Event, Observer, Recorder};

const USAGE: &str =
    "usage: repro <experiment> [--scale F] [--jobs N] [--markdown] [--quiet] [--trace-json FILE]
experiments: all, table2, table3, table4, table5, table6, figure7, theorem1, theorem2,
             topk, serverrank, updating, cohesion, damping, scaling,
             convergence, scorecard, walk, bench (extensions)";

struct Args {
    experiment: String,
    scale: DatasetScale,
    jobs: usize,
    markdown: bool,
    quiet: bool,
    trace_json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut experiment = None;
    let mut scale = DatasetScale::default();
    let mut jobs = 1usize;
    let mut markdown = false;
    let mut quiet = false;
    let mut trace_json = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                let f: f64 = v.parse().map_err(|e| format!("bad --scale {v:?}: {e}"))?;
                if f <= 0.0 {
                    return Err("--scale must be positive".into());
                }
                scale = DatasetScale(f);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = v.parse().map_err(|e| format!("bad --jobs {v:?}: {e}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--markdown" => markdown = true,
            "--quiet" => quiet = true,
            "--trace-json" => trace_json = Some(it.next().ok_or("--trace-json needs a value")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if experiment.is_none() => experiment = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        experiment: experiment.ok_or(USAGE)?,
        scale,
        jobs,
        markdown,
        quiet,
        trace_json,
    })
}

/// Runs experiments, routing progress notes (stderr, silenced by
/// `--quiet`) and telemetry spans (collected when `--trace-json` asks
/// for them) through one place instead of scattered `eprintln!`s.
struct Harness {
    markdown: bool,
    quiet: bool,
    recorder: Option<Recorder>,
}

impl Harness {
    fn new(args: &Args) -> Harness {
        Harness {
            markdown: args.markdown,
            quiet: args.quiet,
            recorder: args.trace_json.as_ref().map(|_| Recorder::new()),
        }
    }

    fn note(&self, msg: &str) {
        if !self.quiet {
            eprintln!("[repro] {msg}");
        }
    }

    fn obs(&self) -> &dyn Observer {
        match &self.recorder {
            Some(r) => r,
            None => approxrank_trace::null(),
        }
    }

    /// Announces, times (as a span named after the experiment), runs,
    /// and prints one experiment.
    fn run(&self, name: &str, f: impl FnOnce() -> ExperimentOutput) {
        self.note(&format!("{name} ..."));
        let out = {
            let _span = self.obs().span(name);
            f()
        };
        if self.markdown {
            print!("{}", out.render_markdown());
        } else {
            print!("{}", out.render());
        }
    }

    /// Writes the collected event stream, if `--trace-json` asked for it.
    fn finish(&self, trace_json: Option<&str>) -> Result<(), String> {
        let (Some(path), Some(recorder)) = (trace_json, &self.recorder) else {
            return Ok(());
        };
        std::fs::write(path, approxrank_trace::jsonl::emit(&recorder.events()))
            .map_err(|e| format!("cannot write {path}: {e}"))
    }
}

fn run_all(h: &Harness, scale: DatasetScale, jobs: usize) {
    h.note(&format!(
        "building politics-like dataset (scale {}) ...",
        scale.0
    ));
    let politics = {
        let _span = h.obs().span("build_politics");
        PoliticsContext::build(scale)
    };
    h.note(&format!(
        "politics-like: {} pages, global PageRank {}",
        politics.data.graph().num_nodes(),
        politics.truth.result.summary()
    ));
    h.note("building AU-like dataset ...");
    let au = {
        let _span = h.obs().span("build_au");
        AuContext::build(scale)
    };
    h.note(&format!(
        "AU-like: {} pages, global PageRank {}",
        au.data.graph().num_nodes(),
        au.truth.result.summary()
    ));

    if jobs <= 1 {
        h.run("table2", || table2::run(scale));
        h.run("table3", || table3::run_with(&politics).1);
        h.run("table4 (includes SC on 12 domains; the slow one)", || {
            table4::run_with(&au, true).1
        });
        h.run("table5", || table5::run_with(&politics).1);
        h.run("table6", || table6::run_with(&au).1);
        h.run("figure7", || figure7::run_with(&au).1);
        h.run("theorem1", || theorem1::run_with(&au, 3).1);
        h.run("theorem2", || theorem2::run_with(&politics, 20).1);
        h.run("topk", || topk::run_with(&au).1);
        h.run("serverrank ablation", || {
            ablation_serverrank::run_with(&au).1
        });
        return;
    }

    // Fan the independent experiments across a persistent pool. Each job
    // records into its own Recorder; the streams are merged (and printed)
    // in the fixed experiment order afterwards, so everything except the
    // wall-clock columns matches a sequential run byte for byte.
    type Job<'a> = (&'static str, Box<dyn Fn() -> ExperimentOutput + Sync + 'a>);
    let tasks: Vec<Job> = vec![
        ("table2", Box::new(|| table2::run(scale))),
        ("table3", Box::new(|| table3::run_with(&politics).1)),
        (
            "table4 (includes SC on 12 domains; the slow one)",
            Box::new(|| table4::run_with(&au, true).1),
        ),
        ("table5", Box::new(|| table5::run_with(&politics).1)),
        ("table6", Box::new(|| table6::run_with(&au).1)),
        ("figure7", Box::new(|| figure7::run_with(&au).1)),
        ("theorem1", Box::new(|| theorem1::run_with(&au, 3).1)),
        ("theorem2", Box::new(|| theorem2::run_with(&politics, 20).1)),
        ("topk", Box::new(|| topk::run_with(&au).1)),
        (
            "serverrank ablation",
            Box::new(|| ablation_serverrank::run_with(&au).1),
        ),
    ];
    h.note(&format!(
        "running {} experiments across {} jobs ...",
        tasks.len(),
        jobs
    ));
    let tracing = h.recorder.is_some();
    let exec = Executor::new(jobs.min(tasks.len()));
    let mut slots: Vec<Option<(ExperimentOutput, Vec<Event>)>> =
        (0..tasks.len()).map(|_| None).collect();
    let part = Partition::uniform(tasks.len(), tasks.len());
    exec.for_each_chunk(&mut slots, &part, |i, _, slot| {
        let (name, f) = &tasks[i];
        slot[0] = Some(if tracing {
            let rec = Recorder::new();
            let obs: &dyn Observer = &rec;
            let out = {
                let _span = obs.span(name);
                f()
            };
            (out, rec.take())
        } else {
            (f(), Vec::new())
        });
    });
    for (i, slot) in slots.into_iter().enumerate() {
        let (out, events) = slot.expect("every job runs to completion");
        h.note(&format!("{} done", tasks[i].0));
        if let Some(rec) = &h.recorder {
            for e in events {
                rec.record(e);
            }
        }
        if h.markdown {
            print!("{}", out.render_markdown());
        } else {
            print!("{}", out.render());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let h = Harness::new(&args);
    let scale = args.scale;
    match args.experiment.as_str() {
        "all" => run_all(&h, scale, args.jobs),
        "table2" => h.run("table2", || table2::run(scale)),
        "table3" => h.run("table3", || table3::run(scale)),
        "table4" => h.run("table4", || table4::run(scale)),
        "table5" => h.run("table5", || table5::run(scale)),
        "table6" => h.run("table6", || table6::run(scale)),
        "figure7" => h.run("figure7", || figure7::run(scale)),
        "theorem1" => h.run("theorem1", || theorem1::run(scale)),
        "theorem2" => h.run("theorem2", || theorem2::run(scale)),
        "topk" => h.run("topk", || topk::run(scale)),
        "serverrank" => h.run("serverrank", || ablation_serverrank::run(scale)),
        "cohesion" => h.run("cohesion", || ablation_cohesion::run(scale)),
        "damping" => h.run("damping", || ablation_damping::run(scale)),
        "updating" => h.run("updating", || updating::run(scale)),
        "scaling" => h.run("scaling", || scaling::run(scale)),
        "convergence" => h.run("convergence", || convergence::run(scale)),
        "scorecard" => h.run("scorecard", || scorecard::run(scale)),
        "walk" => h.run("walk", || walk_quality::run(scale)),
        "bench" => h.run("bench", || perf::run(scale)),
        other => {
            eprintln!("unknown experiment {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(msg) = h.finish(args.trace_json.as_deref()) {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
