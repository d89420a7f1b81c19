//! `approxrank-serve`: a zero-dependency ranking service.
//!
//! Serves the workspace's subgraph-ranking algorithms over HTTP/1.1 on
//! nothing but `std`: a hand-rolled server ([`Server`]) over
//! `std::net::TcpListener` with a bounded accept queue, per-connection
//! timeouts, and worker lanes driven by an [`approxrank_exec::Executor`]
//! work pool. One global graph is loaded at startup; every request ranks
//! a subgraph of it.
//!
//! # Endpoints
//!
//! | Route | What it does |
//! |---|---|
//! | `POST /rank` | Rank a member list (`approxrank`, `idealrank`, `local`, `lpr2`, `sc`); answers are cached and bit-identical to the offline CLI |
//! | `POST /keyword` | ObjectRank keyword ranking: teleport to a base set (`"keyword"` resolved against page labels, or explicit `"base"` ids); answers cached per (membership, base, epoch), one personalized Λ-collapse solve per miss |
//! | `POST /session` | Open a long-lived [`approxrank_core::SubgraphSession`] (warm-start re-solves) |
//! | `POST /session/{id}/update` | Add/remove pages and warm-start re-solve; invalidates cache entries for the touched memberships |
//! | `GET /session/{id}` / `DELETE /session/{id}` | Inspect / close a session |
//! | `GET /stats` | JSON snapshot: graph shape, cache counters, open sessions |
//! | `GET /metrics` | Text exposition: request counts/latency histograms, cache counters, `pool_*` work-pool telemetry, solver spans |
//! | `GET /healthz` | Liveness |
//! | `GET /debug/requests` | JSON array of the last N completed request traces (span trees with per-layer timings) |
//!
//! # Tracing
//!
//! Every request gets a trace id — adopted from an inbound
//! `X-Request-Id` header when present and valid, generated otherwise —
//! and the same id is echoed back as an `X-Request-Id` response header
//! and stamped into JSON error envelopes. While the request runs, a
//! [`approxrank_trace::RequestRecorder`] assembles a span tree across
//! router dispatch, per-shard engine work (cache probe, solve, session
//! ops), and store WAL appends; finished traces land in a bounded ring
//! behind `GET /debug/requests`, and those slower than
//! [`ServeConfig::slow_ms`] are additionally appended to a
//! `slow_requests.jsonl` under the data dir. Per-layer counters
//! (`engine_cache_probe_us`, `store_fsync_us`, `solve_iterations`,
//! `shard_solve_us_{k}`, `exec_queue_wait_us`) feed `/metrics`
//! histograms whose slowest bucket carries the offending trace id as an
//! exemplar.
//!
//! # Sharding
//!
//! With [`ServeConfig::shards`] > 1 the graph is partitioned at startup
//! ([`approxrank_graph::PartitionStrategy`]) and each shard gets its own
//! [`approxrank_engine::Engine`] — cache slice, session table, and
//! (optionally) durable store under `shard-k/`. A [`Router`] fronts the
//! engines: shard-resident requests are answered bit-identically to a
//! single-shard deployment, cross-shard ApproxRank requests fan out and
//! merge as a uniform mixture (marked by `"shards" > 1` in the response),
//! and sessions are pinned to one shard via strided ids.
//!
//! With [`ServeConfig::remote_shards`] non-empty the same [`Router`]
//! fronts engines living in *other processes*: each shard slot holds an
//! [`approxrank_rpc::RemoteEngine`] (a replica set of RPC clients with
//! health checks, retries, and failover, tuned by
//! [`ServeConfig::rpc`]) instead of an in-process engine. Routing,
//! merging, and response bytes are identical either way; an exhausted
//! retry budget surfaces as a 503 carrying the request's trace id, and
//! transport telemetry appears as `rpc_*` counters on `/metrics`.
//!
//! # Multi-tenancy
//!
//! Every request names a tenant via the `X-Tenant` header (`"default"`
//! without one); the tenant is stamped onto log lines and remote shard
//! calls. With `--tenant-quota N` a [`tenant::TenantGovernor`] admits at
//! most `N` concurrent solving (`POST`) requests per tenant: over-quota
//! requests queue (bounded by `--tenant-queue`, waiting at most the
//! request timeout) and are shed with `429 Too Many Requests` plus a
//! `Retry-After` header once the queue overflows or the wait expires.
//! One tenant saturating its quota only ever queues its *own* traffic.
//! Per-tenant counters (`tenant_requests_total`, `tenant_shed_total`,
//! `tenant_in_flight`, `tenant_queue_depth`) appear on `/metrics`.
//!
//! # Consistency
//!
//! `/rank` responses are *bit-identical* to `subrank rank` for the same
//! members and options: both run the same cold-solve entry points, and
//! the result cache only ever stores cold solves. Warm session re-solves
//! (which converge to the same fixed point but along a different
//! iteration path) are returned to the session's caller and **never**
//! inserted into the shared cache; mutating a session invalidates the
//! cache keys of both its previous and new membership.
//!
//! # Durability
//!
//! With [`ServeConfig::data_dir`] set, sessions survive restarts: every
//! session lifecycle event is appended to a write-ahead log (fsynced per
//! [`FsyncPolicy`]), a background thread periodically folds the log into
//! checksummed snapshots, and [`Server::bind`] recovers whatever a
//! previous process left behind — re-registering sessions with their
//! converged scores (so the first re-solve is warm) and rewarming hot
//! result-cache entries. See [`persist`] and the `approxrank-store`
//! crate. Without a data dir the server is purely in-memory, as before.
//!
//! # Shutdown
//!
//! `SIGINT`/`SIGTERM` (via [`shutdown_on_signal`]) or
//! [`ServerHandle::shutdown`] start a graceful drain: the listener stops
//! accepting, in-flight requests complete and are answered with
//! `Connection: close`, queued-but-unstarted connections are shed with
//! 503, and [`Server::serve`] returns a [`ServeSummary`].

#![deny(missing_docs)]

pub mod client;
pub mod handlers;
pub mod http;
pub mod metrics;
pub mod persist;
pub mod router;
pub mod server;
pub mod state;
pub mod tenant;

pub use approxrank_store::FsyncPolicy;
pub use client::{Client, ClientResponse};
pub use router::{GraphSummary, RoutedRank, Router};
pub use server::{on_shutdown_signal, shutdown_on_signal, ServeSummary, Server, ServerHandle};
pub use state::{AppState, KeywordCache, KeywordKey, ServeConfig};
pub use tenant::{Admission, TenantGovernor, TenantPermit, TenantSnapshot};
