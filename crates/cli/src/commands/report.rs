//! `subrank report` — summarize a `--trace-json` event file or a
//! recorded request-trace file (slow-query log / `loadgen --capture-out`).

use approxrank_trace::request::{layer_breakdown, parse_lines_bytes, render_tree, RequestTrace};
use approxrank_trace::RunReport;

use crate::args::ReportArgs;

/// Runs the command, returning the rendered report.
pub fn run(args: &ReportArgs) -> Result<String, String> {
    match (&args.input, &args.requests) {
        (Some(input), _) => run_events(input),
        (None, Some(requests)) => run_requests(requests, args.top),
        (None, None) => Err("report needs --input or --requests".into()),
    }
}

/// The original mode: a solver event stream from `--trace-json`.
fn run_events(input: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let events = approxrank_trace::jsonl::parse(&text).map_err(|e| format!("{input}: {e}"))?;
    if events.is_empty() {
        return Ok(format!("{input}: no events\n"));
    }
    Ok(RunReport::from_events(&events).render())
}

/// The request mode: a JSONL file of [`RequestTrace`]s, parsed leniently
/// (a slow-query log may end in a torn line after a crash).
fn run_requests(path: &str, top: usize) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let parsed = parse_lines_bytes(&bytes);
    if parsed.traces.is_empty() {
        return Ok(format!(
            "{path}: no request traces ({} unparseable lines skipped)\n",
            parsed.skipped
        ));
    }
    Ok(render_requests(path, &parsed.traces, parsed.skipped, top))
}

/// Renders the per-layer breakdown table and the top-k slowest requests
/// with their span trees.
fn render_requests(path: &str, traces: &[RequestTrace], skipped: usize, top: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("# request report: {path}\n"));
    out.push_str(&format!("{} traces", traces.len()));
    if skipped > 0 {
        out.push_str(&format!(" ({skipped} unparseable lines skipped)"));
    }
    out.push('\n');

    let total_ns: u64 = traces.iter().map(|t| t.total_ns).sum();
    out.push_str("\n## time by layer (self time across all traces)\n");
    out.push_str(&format!(
        "{:<10} {:>12} {:>8} {:>8}\n",
        "layer", "self_us", "share", "spans"
    ));
    for stat in layer_breakdown(traces) {
        let share = if total_ns > 0 {
            100.0 * stat.total_ns as f64 / total_ns as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<10} {:>12} {:>7.1}% {:>8}\n",
            stat.layer,
            stat.total_ns / 1_000,
            share,
            stat.spans
        ));
    }

    let mut slowest: Vec<&RequestTrace> = traces.iter().collect();
    slowest.sort_by_key(|t| std::cmp::Reverse(t.total_ns));
    slowest.truncate(top.max(1));
    out.push_str(&format!("\n## slowest {} requests\n", slowest.len()));
    for trace in slowest {
        out.push_str(&format!(
            "\n{} {} -> {} in {} us (trace_id {})\n",
            trace.method,
            trace.path,
            trace.status,
            trace.total_ns / 1_000,
            trace.trace_id
        ));
        out.push_str(&render_tree(&trace.root));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxrank_trace::{Event, Observer, Recorder, RequestRecorder};

    fn tmp(name: &str, contents: &[u8]) -> String {
        let p = crate::commands::test_dir(&format!("report-{name}")).join(name);
        std::fs::write(&p, contents).unwrap();
        p.to_string_lossy().into_owned()
    }

    fn events_args(input: String) -> ReportArgs {
        ReportArgs {
            input: Some(input),
            requests: None,
            top: 5,
        }
    }

    #[test]
    fn round_trips_a_recorded_trace() {
        let rec = Recorder::new();
        {
            let obs: &dyn Observer = &rec;
            let _span = obs.span("solve");
            obs.counter("pages", 7);
        }
        let p = tmp(
            "ok.jsonl",
            approxrank_trace::jsonl::emit(&rec.events()).as_bytes(),
        );
        let out = run(&events_args(p)).unwrap();
        assert!(out.contains("solve"), "{out}");
        assert!(out.contains("pages"), "{out}");
    }

    #[test]
    fn empty_file_reports_no_events() {
        let p = tmp("empty.jsonl", b"");
        let out = run(&events_args(p)).unwrap();
        assert!(out.contains("no events"));
    }

    #[test]
    fn malformed_file_is_an_error() {
        let p = tmp("bad.jsonl", b"{not json\n");
        assert!(run(&events_args(p)).is_err());
    }

    #[test]
    fn missing_file_is_an_error() {
        let err = run(&events_args("/nonexistent/trace.jsonl".into())).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn events_from_iteration_stream_render_solver_table() {
        let events = vec![
            Event::Iteration {
                solver: "power".into(),
                iteration: 0,
                residual: 0.5,
                dangling_mass: 0.1,
                elapsed_ns: 1000,
            },
            Event::Iteration {
                solver: "power".into(),
                iteration: 1,
                residual: 0.05,
                dangling_mass: 0.1,
                elapsed_ns: 900,
            },
        ];
        let p = tmp(
            "iters.jsonl",
            approxrank_trace::jsonl::emit(&events).as_bytes(),
        );
        let out = run(&events_args(p)).unwrap();
        assert!(out.contains("power"), "{out}");
    }

    fn sample_trace(id: &str) -> String {
        let rec = RequestRecorder::new(id.to_string());
        {
            let obs: &dyn Observer = &rec;
            let _http = obs.span("http.rank");
            let _probe = obs.span("engine.cache_probe");
        }
        approxrank_trace::request::emit(&rec.finish("POST", "/rank", 200))
    }

    #[test]
    fn requests_mode_renders_layers_and_trees() {
        let body = format!("{}\n{}\n", sample_trace("req-a"), sample_trace("req-b"));
        let p = tmp("requests.jsonl", body.as_bytes());
        let out = run(&ReportArgs {
            input: None,
            requests: Some(p),
            top: 1,
        })
        .unwrap();
        assert!(out.contains("2 traces"), "{out}");
        assert!(out.contains("engine"), "{out}");
        assert!(out.contains("http"), "{out}");
        assert!(out.contains("slowest 1 requests"), "{out}");
        assert!(out.contains("POST /rank -> 200"), "{out}");
        assert!(out.contains("engine.cache_probe"), "{out}");
    }

    #[test]
    fn requests_mode_skips_torn_lines() {
        let body = format!("{}\n{{\"torn\":", sample_trace("req-a"));
        let p = tmp("torn.jsonl", body.as_bytes());
        let out = run(&ReportArgs {
            input: None,
            requests: Some(p),
            top: 5,
        })
        .unwrap();
        assert!(out.contains("1 traces"), "{out}");
        assert!(out.contains("1 unparseable lines skipped"), "{out}");
    }

    #[test]
    fn requests_mode_with_only_garbage_reports_skip_count() {
        let p = tmp("garbage.jsonl", b"\xff\xfe\nnot json\n");
        let out = run(&ReportArgs {
            input: None,
            requests: Some(p),
            top: 5,
        })
        .unwrap();
        assert!(out.contains("no request traces"), "{out}");
        assert!(out.contains("2 unparseable"), "{out}");
    }
}
