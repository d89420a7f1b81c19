//! Booting the system under test in-process: the HTTP server over one
//! engine, or over two RPC shard servers, exactly as `subrank serve`
//! and `subrank serve --shard-server K` configure them.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use approxrank_engine::{DeltaGraph, DeltaShardView, Engine, EngineConfig};
use approxrank_graph::{assign_shards, io, DiGraph, PartitionStrategy};
use approxrank_rpc::ShardServer;
use approxrank_serve::{AppState, Client, ServeConfig, ServeSummary, Server, ServerHandle};

use crate::workload::{Workload, REMOTE_SHARDS, TENANTS};

/// Per-tenant in-flight quota in `hot-serve`: one tenant per connection
/// never has more than one request in flight, so admission runs on every
/// request and never queues or sheds.
pub const TENANT_QUOTA: usize = 2;

/// One RPC shard server running on its own thread.
struct ShardProcess {
    server: Arc<ShardServer>,
    thread: JoinHandle<std::io::Result<()>>,
}

/// A running deployment: the HTTP server plus any shard servers.
pub struct Deployment {
    /// Address of the HTTP server.
    pub addr: String,
    /// The server's shared state (for counters after a run).
    pub state: Arc<AppState>,
    handle: ServerHandle,
    thread: JoinHandle<ServeSummary>,
    shards: Vec<ShardProcess>,
}

/// The server configuration of a workload.
pub fn serve_config(workload: Workload, data_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        data_dir,
        tenant_quota: if workload == Workload::HotServe {
            TENANT_QUOTA
        } else {
            0
        },
        ..ServeConfig::default()
    }
}

/// A shard engine configured as `subrank serve --shard-server k` does.
fn shard_engine(graph: DiGraph, k: usize) -> Arc<Engine> {
    let assignment = Arc::new(assign_shards(
        &graph,
        REMOTE_SHARDS,
        PartitionStrategy::Range,
    ));
    let delta = Arc::new(DeltaGraph::new(Arc::new(graph)));
    let view = Arc::new(DeltaShardView::new(delta, assignment, k as u32));
    Arc::new(Engine::new_delta_shard(
        view,
        EngineConfig {
            first_session_id: k as u64 + 1,
            session_id_stride: REMOTE_SHARDS as u64,
            ..EngineConfig::default()
        },
    ))
}

fn load(graph_file: &Path) -> Result<DiGraph, String> {
    io::read_binary_file(graph_file)
        .map_err(|e| format!("cannot read {}: {e}", graph_file.display()))
}

/// Loads the graph file, boots the deployment and waits for its first
/// ready answer: the set-up whose time `setup_s` reports. The warm-up
/// request also computes the lazy global PageRank of the single-engine
/// deployments.
pub fn boot(
    workload: Workload,
    graph_file: &Path,
    data_dir: Option<PathBuf>,
) -> Result<Deployment, String> {
    let mut shards = Vec::new();
    let mut config = serve_config(workload, data_dir);
    if workload == Workload::RemoteFanout {
        for k in 0..REMOTE_SHARDS {
            let bound = load(graph_file).and_then(|graph| {
                ShardServer::bind(
                    "127.0.0.1:0",
                    shard_engine(graph, k),
                    Duration::from_secs(3600),
                )
                .and_then(|server| Ok((server.local_addr()?, server)))
                .map_err(|e| format!("cannot boot shard server {k}: {e}"))
            });
            let (addr, server) = match bound {
                Ok(bound) => bound,
                Err(e) => {
                    stop_shards(shards);
                    return Err(e);
                }
            };
            config.remote_shards.push(vec![addr.to_string()]);
            let server = Arc::new(server);
            let thread = {
                let server = Arc::clone(&server);
                std::thread::spawn(move || server.serve())
            };
            shards.push(ShardProcess { server, thread });
        }
    }
    let booted = load(graph_file).and_then(|graph| {
        let n = graph.num_nodes();
        Server::bind(graph, config)
            .map(|server| (n, server))
            .map_err(|e| format!("cannot boot the server: {e}"))
    });
    let (n, server) = match booted {
        Ok(booted) => booted,
        Err(e) => {
            stop_shards(shards);
            return Err(e);
        }
    };
    let addr = server.local_addr().to_string();
    let state = server.state();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve());
    let deployment = Deployment {
        addr,
        state,
        handle,
        thread,
        shards,
    };
    let warm = if workload == Workload::RemoteFanout {
        let mid = n / 2;
        format!(
            "{{\"members\":[{},{},{},{}]}}",
            mid - 2,
            mid - 1,
            mid,
            mid + 1
        )
    } else {
        "{\"members\":[0,1,2,3],\"algorithm\":\"idealrank\"}".to_string()
    };
    let mut client = deployment.client(0);
    match client.post("/rank", &warm) {
        Ok(r) if r.status == 200 => Ok(deployment),
        Ok(r) => {
            let status = r.status;
            deployment.stop();
            Err(format!("warm-up answered {status}"))
        }
        Err(e) => {
            deployment.stop();
            Err(format!("warm-up failed: {e}"))
        }
    }
}

/// Boots and times one set-up, in seconds.
pub fn timed_boot(
    workload: Workload,
    graph_file: &Path,
    data_dir: Option<PathBuf>,
) -> Result<(Deployment, f64), String> {
    let started = Instant::now();
    let deployment = boot(workload, graph_file, data_dir)?;
    Ok((deployment, started.elapsed().as_secs_f64()))
}

impl Deployment {
    /// A keep-alive client for connection `c` (tenant `c`).
    pub fn client(&self, c: usize) -> Client {
        Client::new(&self.addr)
            .with_timeout(Duration::from_secs(60))
            .with_tenant(TENANTS[c % TENANTS.len()])
    }

    /// Drains the server and every shard server and joins their threads.
    pub fn stop(self) {
        self.handle.shutdown();
        let _ = self.thread.join();
        stop_shards(self.shards);
    }
}

fn stop_shards(shards: Vec<ShardProcess>) {
    for shard in shards {
        shard.server.handle().shutdown();
        let _ = shard.thread.join();
    }
}

/// The in-process reference for answer checks: a fresh state over the
/// same graph and topology (a local two-shard router stands in for the
/// remote one, whose answers are byte-identical by contract).
pub fn reference_state(workload: Workload, graph: DiGraph) -> Result<AppState, String> {
    let mut config = serve_config(workload, None);
    if workload == Workload::RemoteFanout {
        config.shards = REMOTE_SHARDS;
    }
    AppState::new(graph, config)
}
