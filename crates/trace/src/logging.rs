//! Structured leveled logging — JSONL through the workspace's JSON codec.
//!
//! One process-wide logger writes one JSON object per line to stderr (the
//! default) or a file. Every line carries a millisecond timestamp, the
//! level, a target (the emitting layer: `"serve"`, `"engine"`, `"store"`,
//! …), the message, and — when the emitting thread is inside a request —
//! the active `trace_id`, so a slow-query trace can be grepped straight
//! to its log lines.
//!
//! The trace id rides a thread-local set by the serving layer for the
//! duration of request dispatch ([`trace_scope`]); fan-out pool lanes
//! attribute through the request recorder instead, so the thread-local
//! never needs to cross threads.

use std::cell::RefCell;
use std::io::Write;
use std::sync::Mutex;

use approxrank_store::json::Writer;

use crate::jsonl::key;

/// Log severity, least to most severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Diagnostic chatter, off by default.
    Debug,
    /// Normal operational events (boot, recovery, shutdown).
    Info,
    /// Unexpected but survivable conditions.
    Warn,
    /// Failures that lost work (WAL append errors, snapshot failures).
    Error,
}

impl Level {
    fn label(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses `debug` / `info` / `warn` / `error` (case-insensitive).
    pub fn parse(s: &str) -> Result<Level, String> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Ok(Level::Debug),
            "info" => Ok(Level::Info),
            "warn" => Ok(Level::Warn),
            "error" => Ok(Level::Error),
            other => Err(format!("unknown log level {other:?}")),
        }
    }
}

enum Sink {
    Stderr,
    File(std::fs::File),
    /// Test sink: lines accumulate in memory.
    Buffer(Vec<u8>),
}

struct LoggerState {
    min_level: Level,
    sink: Sink,
}

static LOGGER: Mutex<LoggerState> = Mutex::new(LoggerState {
    min_level: Level::Info,
    sink: Sink::Stderr,
});

thread_local! {
    static CURRENT_TRACE: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Sets the minimum level emitted (default [`Level::Info`]).
pub fn set_level(level: Level) {
    LOGGER.lock().unwrap_or_else(|e| e.into_inner()).min_level = level;
}

/// Redirects log output to a file (appending), e.g. for servers whose
/// stderr is already carrying operator banners.
pub fn log_to_file(path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    LOGGER.lock().unwrap_or_else(|e| e.into_inner()).sink = Sink::File(file);
    Ok(())
}

/// Routes log output to an in-memory buffer and returns what had
/// accumulated before — test plumbing for asserting on emitted lines.
pub fn capture_for_test() -> Vec<u8> {
    let mut logger = LOGGER.lock().unwrap_or_else(|e| e.into_inner());
    match std::mem::replace(&mut logger.sink, Sink::Buffer(Vec::new())) {
        Sink::Buffer(buf) => buf,
        _ => Vec::new(),
    }
}

/// RAII guard restoring the thread's previous trace id on drop.
pub struct TraceScope {
    prior: Option<String>,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|cell| *cell.borrow_mut() = self.prior.take());
    }
}

/// Marks `trace_id` as the active request on this thread until the guard
/// drops. Nested scopes restore the outer id.
pub fn trace_scope(trace_id: &str) -> TraceScope {
    let prior = CURRENT_TRACE.with(|cell| cell.borrow_mut().replace(trace_id.to_string()));
    TraceScope { prior }
}

/// The trace id of the request this thread is currently handling, if any.
pub fn current_trace_id() -> Option<String> {
    CURRENT_TRACE.with(|cell| cell.borrow().clone())
}

thread_local! {
    static CURRENT_TENANT: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// RAII guard restoring the thread's previous tenant on drop.
pub struct TenantScope {
    prior: Option<String>,
}

impl Drop for TenantScope {
    fn drop(&mut self) {
        CURRENT_TENANT.with(|cell| *cell.borrow_mut() = self.prior.take());
    }
}

/// Marks `tenant` as the active tenant on this thread until the guard
/// drops, mirroring [`trace_scope`]. The serving layer sets it after
/// admission control so downstream layers (the RPC client in
/// particular) can attribute work to the tenant without threading a
/// parameter through every call.
pub fn tenant_scope(tenant: &str) -> TenantScope {
    let prior = CURRENT_TENANT.with(|cell| cell.borrow_mut().replace(tenant.to_string()));
    TenantScope { prior }
}

/// The tenant of the request this thread is currently handling, if any.
pub fn current_tenant() -> Option<String> {
    CURRENT_TENANT.with(|cell| cell.borrow().clone())
}

/// Emits one structured line. Prefer [`log_with`] when there are
/// key/value fields to attach.
pub fn log(level: Level, target: &str, message: &str) {
    log_with(level, target, message, &[]);
}

/// Emits one structured line with extra string fields:
/// `{"ts_ms":…,"level":"…","target":"…","msg":"…","trace_id":…,…}`.
pub fn log_with(level: Level, target: &str, message: &str, fields: &[(&str, &str)]) {
    let mut logger = LOGGER.lock().unwrap_or_else(|e| e.into_inner());
    if level < logger.min_level {
        return;
    }
    let ts_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut line = Writer::with_capacity(128);
    line.raw("{\"ts_ms\":");
    line.uint(ts_ms);
    key(&mut line, "level").str(level.label());
    let (trace_id, tenant) = (current_trace_id(), current_tenant());
    let mut members = vec![("target", target), ("msg", message)];
    if let Some(trace_id) = &trace_id {
        members.push(("trace_id", trace_id));
    }
    if let Some(tenant) = &tenant {
        members.push(("tenant", tenant));
    }
    members.extend_from_slice(fields);
    for (name, value) in members {
        key(&mut line, name).str(value);
    }
    line.raw("}\n");
    let line = line.finish();
    match &mut logger.sink {
        Sink::Stderr => {
            let _ = std::io::stderr().write_all(line.as_bytes());
        }
        Sink::File(file) => {
            let _ = file.write_all(line.as_bytes());
        }
        Sink::Buffer(buf) => buf.extend_from_slice(line.as_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The logger is process-global, so all behaviors share one test to
    /// avoid cross-test sink races under the parallel test runner.
    #[test]
    fn lines_levels_and_trace_scope() {
        capture_for_test();
        set_level(Level::Info);

        log(Level::Debug, "test", "filtered out");
        log(Level::Info, "test", "plain line");
        {
            let _scope = trace_scope("abc123");
            assert_eq!(current_trace_id().as_deref(), Some("abc123"));
            {
                let _nested = trace_scope("inner");
                assert_eq!(current_trace_id().as_deref(), Some("inner"));
            }
            assert_eq!(current_trace_id().as_deref(), Some("abc123"));
            log_with(Level::Warn, "test", "with \"quotes\"", &[("session", "7")]);
        }
        assert_eq!(current_trace_id(), None);

        let output = String::from_utf8(capture_for_test()).unwrap();
        let lines: Vec<&str> = output.lines().collect();
        assert_eq!(lines.len(), 2, "{output}");
        assert!(lines[0].contains("\"level\":\"info\""), "{}", lines[0]);
        assert!(lines[0].contains("\"msg\":\"plain line\""), "{}", lines[0]);
        assert!(!lines[0].contains("trace_id"), "{}", lines[0]);
        assert!(lines[1].contains("\"trace_id\":\"abc123\""), "{}", lines[1]);
        assert!(lines[1].contains("\"session\":\"7\""), "{}", lines[1]);
        assert!(lines[1].contains("\\\"quotes\\\""), "{}", lines[1]);
    }
}
