//! Answer checks: served answers against an in-process reference that
//! routes the same request through `handlers::route` on a fresh state
//! of the same topology. A mismatch counts as a failed request.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use approxrank_graph::DiGraph;
use approxrank_serve::http::Request as HttpRequest;
use approxrank_serve::{handlers, AppState};

use crate::deploy::{self, Deployment};
use crate::drive::Window;
use crate::stats::{body_hash, Rng};
use crate::workload::{Kind, Schedule, Spec, Workload, CONNECTIONS};

/// Answers sampled for the check in `remote-fanout`.
const REMOTE_SAMPLE: usize = 256;

fn post(path: &str, body: String) -> HttpRequest {
    HttpRequest {
        method: "POST".into(),
        path: path.into(),
        headers: Vec::new(),
        body: body.into_bytes(),
    }
}

/// The reference answer's hash, or `None` when the reference refused.
fn reference_hash(state: &AppState, schedule: &Schedule, spec: Spec) -> Option<u64> {
    let request = schedule.request(spec);
    let (_, response) = handlers::route(
        state,
        &post(request.path, request.body),
        approxrank_trace::null(),
    );
    (response.status == 200).then(|| body_hash(&response.body))
}

/// Checks the window's answers; returns how many disagreed with the
/// reference (the reference state is returned for the traced run).
pub fn check(
    schedule: &Schedule,
    graph: &DiGraph,
    window: &Window,
    deployment: &Deployment,
    seed: u64,
) -> Result<(usize, AppState), String> {
    let reference = deploy::reference_state(schedule.workload, graph.clone())?;
    let reads: Vec<_> = window
        .exchanges
        .iter()
        .filter(|e| e.ok && e.kind == Kind::Read)
        .collect();
    let stream_of = |c: usize| if schedule.workload.open_loop() { 0 } else { c };
    let mismatches = match schedule.workload {
        Workload::ColdMix | Workload::RemoteFanout => {
            let sample: Vec<_> = if schedule.workload == Workload::RemoteFanout {
                let mut rng = Rng::new(seed ^ 0xC0FFEE);
                let mut order = rng.permutation(reads.len());
                order.truncate(REMOTE_SAMPLE);
                order.sort_unstable();
                order.into_iter().map(|i| reads[i]).collect()
            } else {
                reads
            };
            let bad = AtomicUsize::new(0);
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..CONNECTIONS {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(e) = sample.get(i) else {
                            break;
                        };
                        let spec = schedule.streams[stream_of(e.conn)][e.index];
                        if reference_hash(&reference, schedule, spec) != Some(e.hash) {
                            bad.fetch_add(1, Ordering::SeqCst);
                        }
                    });
                }
            });
            bad.into_inner()
        }
        Workload::HotServe => {
            let mut expected: HashMap<Spec, Option<u64>> = HashMap::new();
            let mut bad = 0;
            for e in reads {
                let spec = schedule.streams[0][e.index];
                let want = *expected
                    .entry(spec)
                    .or_insert_with(|| reference_hash(&reference, schedule, spec));
                if want != Some(e.hash) {
                    bad += 1;
                }
            }
            bad
        }
        Workload::MutateMix => check_mutated(schedule, window, deployment, &reference)?,
    };
    Ok((mismatches, reference))
}

/// `mutate-mix` answers depend on how the connections' writes
/// interleaved, so the check runs after the window: the reference
/// applies the same net edge changes, then every key is asked of both.
fn check_mutated(
    schedule: &Schedule,
    window: &Window,
    deployment: &Deployment,
    reference: &AppState,
) -> Result<usize, String> {
    for (c, &sent) in window.sent.iter().enumerate() {
        let mut present: Option<(u32, u32)> = None;
        for spec in &schedule.streams[c][..sent] {
            if let Spec::Toggle { src, dst, insert } = *spec {
                present = insert.then_some((src, dst));
            }
        }
        if let Some((src, dst)) = present {
            let (_, r) = handlers::route(
                reference,
                &post("/graph/edges", format!("{{\"insert\":[[{src},{dst}]]}}")),
                approxrank_trace::null(),
            );
            if r.status != 200 {
                return Err(format!("reference refused an edge write: {}", r.status));
            }
        }
    }
    let mut client = deployment.client(0);
    let mut bad = 0;
    for key in 0..schedule.keys.len() {
        let spec = Spec::Key {
            key: key as u16,
            keyword: false,
        };
        let request = schedule.request(spec);
        let live = client
            .post(request.path, &request.body)
            .map_err(|e| format!("post-run probe failed: {e}"))?;
        let want = reference_hash(reference, schedule, spec);
        if live.status != 200 || want != Some(body_hash(&live.body)) {
            bad += 1;
        }
    }
    Ok(bad)
}
