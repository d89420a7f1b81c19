//! Drives a schedule through a deployment over HTTP and records every
//! exchange. The client never parses a response body: it checks the
//! status, and hashes the body for the answer checks that run after
//! the timed window.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::deploy::Deployment;
use crate::stats::body_hash;
use crate::workload::{Kind, Schedule, Spec, Workload, CONNECTIONS, HOT_RATE_PER_S};

/// One completed exchange.
#[derive(Clone, Copy, Debug)]
pub struct Exchange {
    /// Connection that sent it.
    pub conn: usize,
    /// Position in the connection's stream (closed loop) or in the
    /// arrival order (open loop).
    pub index: usize,
    /// Latency class.
    pub kind: Kind,
    /// Latency in milliseconds (from the due time in an open loop).
    pub latency_ms: f64,
    /// How late the request was sent, in milliseconds: past its due time
    /// (open loop) or past the previous answer (closed loop).
    pub lag_ms: f64,
    /// When the answer arrived, in seconds since the window opened.
    pub end_s: f64,
    /// 2xx with the expected shape.
    pub ok: bool,
    /// [`body_hash`] of the answer.
    pub hash: u64,
}

/// What one timed window produced.
pub struct Window {
    /// Every exchange, in completion order per connection.
    pub exchanges: Vec<Exchange>,
    /// Wall time from the first send to the last answer.
    pub elapsed_s: f64,
    /// Process CPU time spent since the window opened, sampled at every
    /// slice boundary (see [`slices`]).
    pub cpu_marks_ms: Vec<f64>,
    /// Highest resident set size sampled during the window.
    pub peak_rss_mb: f64,
    /// Exchanges that got no answer at all (I/O errors).
    pub transport_errors: usize,
    /// How many requests each connection sent (for replaying writes).
    pub sent: Vec<usize>,
}

/// Target length of the slices the window is cut into: the end-to-end
/// figures are medians over slices, so one disturbed slice does not
/// move them.
const SLICE_S: f64 = 2.0;

/// How many slices a window of `seconds` is cut into, and their length.
pub fn slices(seconds: f64) -> (usize, f64) {
    let count = ((seconds / SLICE_S).round() as usize).max(1);
    (count, seconds / count as f64)
}

/// Process CPU time (user + system) in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks of 10 ms.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

/// Current resident set size in MiB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Runs the schedule against `deployment` for `seconds`.
pub fn run(deployment: &Deployment, schedule: &Schedule, sessions: &[u64], seconds: f64) -> Window {
    let exchanges = Mutex::new(Vec::new());
    let transport_errors = AtomicUsize::new(0);
    let sent: Vec<AtomicUsize> = (0..CONNECTIONS).map(|_| AtomicUsize::new(0)).collect();
    let next_arrival = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let peak_rss = Mutex::new(rss_mb());
    let cpu_marks = Mutex::new(Vec::new());
    let cpu_before = cpu_ms();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let (_, slice_s) = slices(seconds);
    let last_answer = Mutex::new(started);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut marks = vec![0.0];
            while !done.load(Ordering::SeqCst) {
                let rss = rss_mb();
                let mut peak = peak_rss.lock().expect("rss sampler lock");
                *peak = peak.max(rss);
                drop(peak);
                if started.elapsed().as_secs_f64() >= marks.len() as f64 * slice_s {
                    marks.push(cpu_ms() - cpu_before);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            *cpu_marks.lock().expect("cpu marks lock") = marks;
        });
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (exchanges, transport_errors, sent, next_arrival, last_answer) = (
                    &exchanges,
                    &transport_errors,
                    &sent,
                    &next_arrival,
                    &last_answer,
                );
                scope.spawn(move || {
                    let mut client = deployment.client(c);
                    let mut local = Vec::new();
                    let mut previous = Instant::now();
                    let mut i = 0;
                    loop {
                        let (index, spec, due) = if schedule.workload.open_loop() {
                            let j = next_arrival.fetch_add(1, Ordering::SeqCst);
                            let due = started + Duration::from_secs_f64(j as f64 / HOT_RATE_PER_S);
                            if due >= deadline || j >= schedule.streams[0].len() {
                                break;
                            }
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            (j, schedule.streams[0][j], due)
                        } else {
                            if Instant::now() >= deadline || i >= schedule.streams[c].len() {
                                break;
                            }
                            i += 1;
                            (i - 1, schedule.streams[c][i - 1], previous)
                        };
                        let request = schedule.request(spec);
                        let path = match spec {
                            Spec::Session { .. } => format!("/session/{}/update", sessions[c]),
                            _ => request.path.to_string(),
                        };
                        let send = Instant::now();
                        let lag_ms = send.saturating_duration_since(due).as_secs_f64() * 1e3;
                        sent[c].fetch_add(1, Ordering::SeqCst);
                        let answer = client.post(&path, &request.body);
                        let end = Instant::now();
                        let from = if schedule.workload.open_loop() {
                            due
                        } else {
                            send
                        };
                        previous = end;
                        match answer {
                            Ok(r) => {
                                let ok = r.status == 200
                                    && (request.kind != Kind::EdgeWrite
                                        || contains(&r.body, b"\"structural\":false"));
                                local.push(Exchange {
                                    conn: c,
                                    index,
                                    kind: request.kind,
                                    latency_ms: (end - from).as_secs_f64() * 1e3,
                                    end_s: (end - started).as_secs_f64(),
                                    lag_ms,
                                    ok,
                                    hash: if request.kind == Kind::Read {
                                        body_hash(&r.body)
                                    } else {
                                        0
                                    },
                                });
                            }
                            Err(_) => {
                                transport_errors.fetch_add(1, Ordering::SeqCst);
                                client = deployment.client(c);
                            }
                        }
                    }
                    let mut last = last_answer.lock().expect("last answer lock");
                    *last = (*last).max(previous);
                    drop(last);
                    exchanges.lock().expect("exchange lock").extend(local);
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("client thread panicked");
        }
        done.store(true, Ordering::SeqCst);
    });
    let elapsed_s = (*last_answer.lock().expect("last answer lock") - started).as_secs_f64();
    let peak_rss_mb = *peak_rss.lock().expect("rss sampler lock");
    Window {
        exchanges: exchanges.into_inner().expect("exchange lock"),
        elapsed_s,
        cpu_marks_ms: cpu_marks.into_inner().expect("cpu marks lock"),
        peak_rss_mb,
        transport_errors: transport_errors.into_inner(),
        sent: sent.into_iter().map(AtomicUsize::into_inner).collect(),
    }
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Opens one session per connection (`mutate-mix`), returning their ids.
pub fn open_sessions(deployment: &Deployment, schedule: &Schedule) -> Result<Vec<u64>, String> {
    if schedule.workload != Workload::MutateMix {
        return Ok(Vec::new());
    }
    (0..CONNECTIONS)
        .map(|c| {
            let r = deployment
                .client(c)
                .post("/session", &schedule.session_body(c))
                .map_err(|e| format!("session open failed: {e}"))?;
            if r.status != 200 {
                return Err(format!("session open answered {}", r.status));
            }
            session_id(&r.body).ok_or_else(|| "session answer has no id".to_string())
        })
        .collect()
}

/// Asks fixed keys once before the window, so the window measures the
/// steady state of a long-running server whose caches hold the popular
/// answers, instead of a run-to-run varying number of first-touch misses
/// on large memberships. `mutate-mix` warms every key; `hot-serve` warms
/// the more popular half (`/rank` and `/keyword`), so about one window
/// answer in ten is still a miss, on a rare and small membership.
pub fn warm_keys(deployment: &Deployment, schedule: &Schedule) -> Result<(), String> {
    let mut client = deployment.client(0);
    let keyword = schedule.workload == Workload::HotServe;
    let warmed = if keyword {
        schedule.keys.len() / 2
    } else {
        schedule.keys.len()
    };
    for key in 0..warmed as u16 {
        let specs = [(key, false), (key, true)]
            .into_iter()
            .filter(|&(_, kw)| !kw || keyword)
            .map(|(key, keyword)| Spec::Key { key, keyword });
        for spec in specs {
            let request = schedule.request(spec);
            let answer = client
                .post(request.path, &request.body)
                .map_err(|e| format!("warm-up of key {key} failed: {e}"))?;
            if answer.status != 200 {
                return Err(format!("warm-up of key {key} answered {}", answer.status));
            }
        }
    }
    Ok(())
}

/// The `"id"` of a session answer, read without a full JSON parse.
pub fn session_id(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let at = text.rfind("\"id\":")? + 5;
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}
