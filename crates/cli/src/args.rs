//! Hand-rolled argument parsing (no external dependencies).

use approxrank_graph::PartitionStrategy;
use approxrank_serve::FsyncPolicy;
use approxrank_trace::logging::Level;

/// Which subgraph-ranking algorithm `subrank rank` runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// ApproxRank (the default).
    #[default]
    ApproxRank,
    /// IdealRank; requires `--scores`.
    IdealRank,
    /// Local PageRank baseline.
    Local,
    /// LPR2 baseline.
    Lpr2,
    /// Stochastic complementation baseline.
    Sc,
    /// Monte-Carlo walk estimator (sublinear; see `--walks`/`--seed`).
    Mc,
    /// Local-push estimator with an explicit residual bound
    /// (see `--epsilon`).
    Push,
}

impl Algorithm {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "approxrank" => Ok(Algorithm::ApproxRank),
            "idealrank" => Ok(Algorithm::IdealRank),
            "local" => Ok(Algorithm::Local),
            "lpr2" => Ok(Algorithm::Lpr2),
            "sc" => Ok(Algorithm::Sc),
            "mc" => Ok(Algorithm::Mc),
            "push" => Ok(Algorithm::Push),
            other => Err(format!(
                "unknown algorithm {other:?} (approxrank|idealrank|local|lpr2|sc|mc|push)"
            )),
        }
    }
}

/// Telemetry flags shared by the solving subcommands.
#[derive(Clone, Debug, Default)]
pub struct TraceOpts {
    /// Append a human-readable run report (as `#` comment lines).
    pub trace: bool,
    /// Write the raw event stream as JSON lines to this path.
    pub trace_json: Option<String>,
    /// Suppress `#` comment lines (headers and reports); scores only.
    pub quiet: bool,
}

impl TraceOpts {
    /// True when events must be collected at all.
    pub fn enabled(&self) -> bool {
        self.trace || self.trace_json.is_some()
    }

    fn take(opts: &mut Options) -> TraceOpts {
        TraceOpts {
            trace: opts.flag("trace"),
            trace_json: opts.take("trace-json"),
            quiet: opts.flag("quiet"),
        }
    }
}

/// `subrank rank` arguments.
#[derive(Clone, Debug)]
pub struct RankArgs {
    /// Edge-list (or binary) graph file.
    pub graph: String,
    /// File of subgraph member ids, one per line.
    pub subgraph: String,
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// Known global scores file (IdealRank only).
    pub scores: Option<String>,
    /// Damping factor.
    pub damping: f64,
    /// Convergence tolerance.
    pub tolerance: f64,
    /// Walks per source page (`mc` only).
    pub walks: u32,
    /// Residual budget (`push`) / MC inversion depth knob.
    pub epsilon: f64,
    /// RNG seed (`mc` only; same seed ⇒ bitwise-identical output).
    pub seed: u64,
    /// Print only the top-k pages (0 = all).
    pub top: usize,
    /// Worker threads for the solvers (1 = sequential, the default).
    pub threads: usize,
    /// Telemetry flags.
    pub trace: TraceOpts,
}

impl Default for RankArgs {
    fn default() -> Self {
        RankArgs {
            graph: String::new(),
            subgraph: String::new(),
            algorithm: Algorithm::default(),
            scores: None,
            damping: 0.85,
            tolerance: 1e-5,
            walks: approxrank_walk::counts::DEFAULT_WALKS,
            epsilon: approxrank_walk::DEFAULT_EPSILON,
            seed: approxrank_walk::counts::DEFAULT_SEED,
            top: 0,
            threads: 1,
            trace: TraceOpts::default(),
        }
    }
}

/// `subrank global` arguments.
#[derive(Clone, Debug, Default)]
pub struct GlobalArgs {
    /// Edge-list (or binary) graph file.
    pub graph: String,
    /// Damping factor.
    pub damping: f64,
    /// Convergence tolerance.
    pub tolerance: f64,
    /// Print only the top-k pages (0 = all).
    pub top: usize,
    /// Worker threads for power iteration (1 = sequential, the default).
    pub threads: usize,
    /// Telemetry flags.
    pub trace: TraceOpts,
}

/// `subrank compare` arguments.
#[derive(Clone, Debug, Default)]
pub struct CompareArgs {
    /// Edge-list (or binary) graph file.
    pub graph: String,
    /// File of subgraph member ids, one per line.
    pub subgraph: String,
    /// Damping factor.
    pub damping: f64,
    /// Convergence tolerance.
    pub tolerance: f64,
    /// Also compute global PageRank and score every algorithm against it.
    pub with_truth: bool,
}

/// `subrank stats` arguments.
#[derive(Clone, Debug, Default)]
pub struct StatsArgs {
    /// Edge-list (or binary) graph file.
    pub graph: String,
    /// Also report partition balance for this many shards (0 = off).
    pub shards: usize,
    /// Partitioner to evaluate (only meaningful with `--shards`).
    pub partition: PartitionStrategy,
}

/// `subrank report` arguments.
#[derive(Clone, Debug, Default)]
pub struct ReportArgs {
    /// JSON-lines trace file written by `--trace-json`.
    pub input: Option<String>,
    /// JSON-lines request-trace file: a server's slow-query log or a
    /// `loadgen --capture-out` dump.
    pub requests: Option<String>,
    /// How many slowest requests to print with full span trees
    /// (`--requests` mode only).
    pub top: usize,
}

/// `subrank serve` arguments.
#[derive(Clone, Debug)]
pub struct ServeArgs {
    /// Edge-list (or binary) graph file to serve.
    pub graph: String,
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker lanes handling connections.
    pub threads: usize,
    /// Total result-cache entries.
    pub cache_entries: usize,
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
    /// Per-connection read/write timeout in milliseconds.
    pub request_timeout_ms: u64,
    /// Durable session directory; `None` serves purely in-memory.
    pub data_dir: Option<String>,
    /// WAL fsync policy (`always`, `never`, `interval`, `interval:<ms>`).
    pub fsync: FsyncPolicy,
    /// Background snapshot cadence in milliseconds.
    pub snapshot_interval_ms: u64,
    /// Engines the graph is partitioned across (1 = unsharded).
    pub shards: usize,
    /// Partitioner (only meaningful with `--shards` > 1).
    pub partition: PartitionStrategy,
    /// Slow-query threshold in milliseconds (`0` captures every
    /// request); `None` disables the slow-query log.
    pub slow_ms: Option<u64>,
    /// Shard-server mode: serve shard `K` of the `--shards` partitioning
    /// over the binary RPC protocol instead of HTTP. `None` runs the
    /// HTTP tier.
    pub shard_server: Option<u32>,
    /// Remote router mode: one replica address list per shard, in shard
    /// order (`--remote-shard host:port[,host:port…]`, repeated). Empty
    /// keeps every shard in-process.
    pub remote_shards: Vec<Vec<String>>,
    /// Minimum stderr log level (`debug|info|warn|error`).
    pub log_level: Option<Level>,
    /// RPC connect timeout per replica dial, in milliseconds.
    pub rpc_connect_timeout_ms: u64,
    /// RPC read/write timeout per call, in milliseconds.
    pub rpc_io_timeout_ms: u64,
    /// Attempts per RPC call before answering 503 (1 = no retry).
    pub rpc_attempts: u32,
    /// Base retry backoff in milliseconds (doubles per attempt).
    pub rpc_backoff_ms: u64,
    /// Replica health-probe cadence in milliseconds (0 disables).
    pub rpc_health_interval_ms: u64,
    /// Per-tenant concurrent `POST` admission quota (0 = no admission
    /// control, the default).
    pub tenant_quota: usize,
    /// Bounded per-tenant wait queue for over-quota requests.
    pub tenant_queue: usize,
    /// Page-labels file (one label per line, line `i` names page `i`)
    /// that `POST /keyword` resolves `"keyword"` queries against.
    pub labels: Option<String>,
}

/// `subrank keyword` arguments.
#[derive(Clone, Debug)]
pub struct KeywordArgs {
    /// Edge-list (or binary) graph file.
    pub graph: String,
    /// File of subgraph member ids, one per line.
    pub subgraph: String,
    /// Keyword resolved against page labels (exclusive with `--base`).
    pub keyword: Option<String>,
    /// Explicit comma-separated base-set page ids (exclusive with
    /// `--keyword`).
    pub base: Vec<u32>,
    /// Page-labels file; without one, pages are named `page-<id>`.
    pub labels: Option<String>,
    /// Damping factor.
    pub damping: f64,
    /// Convergence tolerance.
    pub tolerance: f64,
    /// Print only the top-k pages (0 = all).
    pub top: usize,
}

/// `subrank partition` arguments.
#[derive(Clone, Debug, Default)]
pub struct PartitionArgs {
    /// Edge-list (or binary) graph file to partition.
    pub graph: String,
    /// Number of shards to produce.
    pub shards: usize,
    /// Partitioner.
    pub partition: PartitionStrategy,
    /// Output directory for the sharded binary layout.
    pub out: String,
}

/// `subrank gen` arguments.
#[derive(Clone, Debug)]
pub struct GenArgs {
    /// Which dataset family (`au` or `politics`).
    pub dataset: String,
    /// Page count.
    pub pages: usize,
    /// RNG seed.
    pub seed: u64,
    /// Output path (`-` writes the edge list to the returned string).
    pub out: String,
}

/// The parsed command line.
#[derive(Clone, Debug)]
pub struct Cli {
    /// The subcommand with its arguments.
    pub command: Command,
}

/// All `subrank` subcommands.
#[derive(Clone, Debug)]
pub enum Command {
    /// Rank a subgraph.
    Rank(RankArgs),
    /// Global PageRank.
    Global(GlobalArgs),
    /// Graph statistics.
    Stats(StatsArgs),
    /// Side-by-side algorithm comparison.
    Compare(CompareArgs),
    /// Generate a synthetic dataset.
    Gen(GenArgs),
    /// Summarize a `--trace-json` event file.
    Report(ReportArgs),
    /// Run the HTTP ranking service.
    Serve(ServeArgs),
    /// ObjectRank keyword ranking (offline mirror of `POST /keyword`).
    Keyword(KeywordArgs),
    /// Partition a graph into a sharded on-disk layout.
    Partition(PartitionArgs),
}

/// Usage text shown on parse errors.
pub const USAGE: &str = "usage:
  subrank rank   --graph FILE --subgraph FILE [--algo approxrank|idealrank|local|lpr2|sc|mc|push]
                 [--scores FILE] [--damping 0.85] [--tolerance 1e-5] [--top K]
                 [--walks 256] [--epsilon 0.001] [--seed 42]        (mc/push estimator knobs)
                 [--threads N] [--trace] [--trace-json FILE] [--quiet]
  subrank global --graph FILE [--damping 0.85] [--tolerance 1e-5] [--top K]
                 [--threads N] [--trace] [--trace-json FILE] [--quiet]
  subrank compare --graph FILE --subgraph FILE [--truth yes] [--damping 0.85] [--tolerance 1e-5]
  subrank stats  --graph FILE [--shards N [--partition range|scc|hash]]
  subrank gen    --dataset au|politics --pages N [--seed S] --out FILE
  subrank report --input TRACE.jsonl | --requests REQUESTS.jsonl [--top K]
  subrank keyword --graph FILE --subgraph FILE (--keyword WORD | --base ID[,ID...])
                 [--labels FILE] [--damping 0.85] [--tolerance 1e-5] [--top K]
  subrank serve  --graph FILE [--addr 127.0.0.1:7878] [--threads 2] [--cache-entries 4096]
                 [--max-body 1048576] [--request-timeout-ms 5000]
                 [--data-dir DIR] [--fsync always|never|interval|interval:MS]
                 [--snapshot-interval-ms 30000]
                 [--shards N] [--partition range|scc|hash] [--slow-ms MS]
                 [--log-level debug|info|warn|error]
                 [--shard-server K]                    (serve shard K over RPC, not HTTP)
                 [--remote-shard ADDR[,ADDR...]]...    (route to remote shards, one flag per shard)
                 [--rpc-timeout-ms 10000] [--rpc-connect-timeout-ms 1000]
                 [--rpc-attempts 3] [--rpc-backoff-ms 50] [--rpc-health-interval-ms 1000]
                 [--tenant-quota N] [--tenant-queue 16]      (per-tenant admission)
                 [--labels FILE]                             (page labels for /keyword)
  subrank partition --graph FILE --shards N [--partition range|scc|hash] --out DIR";

/// Flags that take no value; their presence alone means "on".
const BOOLEAN_FLAGS: &[&str] = &["trace", "quiet"];

struct Options {
    pairs: Vec<(String, String)>,
}

impl Options {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("expected a --flag, got {flag:?}\n{USAGE}"));
            };
            if BOOLEAN_FLAGS.contains(&name) {
                pairs.push((name.to_string(), String::new()));
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("--{name} needs a value\n{USAGE}"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Options { pairs })
    }

    fn take(&mut self, name: &str) -> Option<String> {
        let idx = self.pairs.iter().position(|(n, _)| n == name)?;
        Some(self.pairs.remove(idx).1)
    }

    /// Takes every occurrence of a repeatable flag, in command-line order.
    fn take_all(&mut self, name: &str) -> Vec<String> {
        let mut values = Vec::new();
        while let Some(v) = self.take(name) {
            values.push(v);
        }
        values
    }

    fn flag(&mut self, name: &str) -> bool {
        self.take(name).is_some()
    }

    fn require(&mut self, name: &str) -> Result<String, String> {
        self.take(name)
            .ok_or_else(|| format!("missing required --{name}\n{USAGE}"))
    }

    fn finish(self) -> Result<(), String> {
        if let Some((name, _)) = self.pairs.first() {
            return Err(format!("unknown flag --{name}\n{USAGE}"));
        }
        Ok(())
    }

    fn numeric<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.take(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("bad --{name} value {v:?}: {e}")),
        }
    }
}

/// Parses `--threads` (default 1, must be at least 1).
fn take_threads(opts: &mut Options) -> Result<usize, String> {
    let threads = opts.numeric("threads", 1usize)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(threads)
}

/// Parses `--damping`, rejecting values the solvers cannot accept (the
/// option builders panic outside `(0,1)` — user input must never reach
/// them unchecked).
fn take_damping(opts: &mut Options) -> Result<f64, String> {
    let damping = opts.numeric("damping", 0.85)?;
    if !(damping > 0.0 && damping < 1.0) {
        return Err(format!("--damping must be in (0,1), got {damping}"));
    }
    Ok(damping)
}

/// Parses `--partition` (default `range`).
fn take_partition(opts: &mut Options) -> Result<PartitionStrategy, String> {
    match opts.take("partition") {
        None => Ok(PartitionStrategy::default()),
        Some(v) => PartitionStrategy::parse(&v)
            .ok_or_else(|| format!("bad --partition {v:?} (range|scc|hash)")),
    }
}

/// Parses `--tolerance`, rejecting non-positive or non-finite values.
fn take_tolerance(opts: &mut Options) -> Result<f64, String> {
    let tolerance: f64 = opts.numeric("tolerance", 1e-5)?;
    if !(tolerance > 0.0 && tolerance.is_finite()) {
        return Err(format!("--tolerance must be positive, got {tolerance}"));
    }
    Ok(tolerance)
}

impl Cli {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Cli, String> {
        let (sub, rest) = argv.split_first().ok_or(USAGE)?;
        let mut opts = Options::parse(rest)?;
        let command = match sub.as_str() {
            "rank" => {
                let args = RankArgs {
                    graph: opts.require("graph")?,
                    subgraph: opts.require("subgraph")?,
                    // `--algo` is the documented short form; `--algorithm`
                    // stays for compatibility with existing scripts.
                    algorithm: match opts.take("algorithm").or_else(|| opts.take("algo")) {
                        None => Algorithm::default(),
                        Some(v) => Algorithm::parse(&v)?,
                    },
                    scores: opts.take("scores"),
                    damping: take_damping(&mut opts)?,
                    tolerance: take_tolerance(&mut opts)?,
                    walks: opts.numeric("walks", approxrank_walk::counts::DEFAULT_WALKS)?,
                    epsilon: opts.numeric("epsilon", approxrank_walk::DEFAULT_EPSILON)?,
                    seed: opts.numeric("seed", approxrank_walk::counts::DEFAULT_SEED)?,
                    top: opts.numeric("top", 0usize)?,
                    threads: take_threads(&mut opts)?,
                    trace: TraceOpts::take(&mut opts),
                };
                if args.algorithm == Algorithm::IdealRank && args.scores.is_none() {
                    return Err("idealrank requires --scores FILE".into());
                }
                if args.walks == 0 {
                    return Err("--walks must be at least 1".into());
                }
                if !(args.epsilon > 0.0 && args.epsilon.is_finite()) {
                    return Err(format!("--epsilon must be positive, got {}", args.epsilon));
                }
                Command::Rank(args)
            }
            "global" => Command::Global(GlobalArgs {
                graph: opts.require("graph")?,
                damping: take_damping(&mut opts)?,
                tolerance: take_tolerance(&mut opts)?,
                top: opts.numeric("top", 0usize)?,
                threads: take_threads(&mut opts)?,
                trace: TraceOpts::take(&mut opts),
            }),
            "stats" => Command::Stats(StatsArgs {
                graph: opts.require("graph")?,
                shards: opts.numeric("shards", 0usize)?,
                partition: take_partition(&mut opts)?,
            }),
            "compare" => Command::Compare(CompareArgs {
                graph: opts.require("graph")?,
                subgraph: opts.require("subgraph")?,
                damping: take_damping(&mut opts)?,
                tolerance: take_tolerance(&mut opts)?,
                with_truth: matches!(
                    opts.take("truth").as_deref(),
                    Some("yes") | Some("true") | Some("1")
                ),
            }),
            "gen" => Command::Gen(GenArgs {
                dataset: opts.require("dataset")?,
                pages: opts.numeric("pages", 10_000usize)?,
                seed: opts.numeric("seed", 0u64)?,
                out: opts.require("out")?,
            }),
            "report" => {
                let args = ReportArgs {
                    input: opts.take("input"),
                    requests: opts.take("requests"),
                    top: opts.numeric("top", 5usize)?,
                };
                if args.input.is_none() && args.requests.is_none() {
                    return Err(format!("report needs --input or --requests\n{USAGE}"));
                }
                Command::Report(args)
            }
            "serve" => {
                let args = ServeArgs {
                    graph: opts.require("graph")?,
                    addr: opts
                        .take("addr")
                        .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
                    threads: opts.numeric("threads", 2usize)?,
                    cache_entries: opts.numeric("cache-entries", 4096usize)?,
                    max_body: opts.numeric("max-body", 1usize << 20)?,
                    request_timeout_ms: opts.numeric("request-timeout-ms", 5_000u64)?,
                    data_dir: opts.take("data-dir"),
                    fsync: match opts.take("fsync") {
                        None => FsyncPolicy::Interval(std::time::Duration::from_millis(100)),
                        Some(v) => {
                            FsyncPolicy::parse(&v).map_err(|e| format!("bad --fsync: {e}"))?
                        }
                    },
                    snapshot_interval_ms: opts.numeric("snapshot-interval-ms", 30_000u64)?,
                    shards: opts.numeric("shards", 1usize)?,
                    partition: take_partition(&mut opts)?,
                    slow_ms: match opts.take("slow-ms") {
                        None => None,
                        Some(v) => Some(
                            v.parse()
                                .map_err(|e| format!("bad --slow-ms value {v:?}: {e}"))?,
                        ),
                    },
                    shard_server: match opts.take("shard-server") {
                        None => None,
                        Some(v) => Some(
                            v.parse()
                                .map_err(|e| format!("bad --shard-server value {v:?}: {e}"))?,
                        ),
                    },
                    remote_shards: opts
                        .take_all("remote-shard")
                        .iter()
                        .map(|list| {
                            let addrs: Vec<String> = list
                                .split(',')
                                .map(str::trim)
                                .filter(|a| !a.is_empty())
                                .map(str::to_string)
                                .collect();
                            if addrs.is_empty() {
                                Err(format!("--remote-shard {list:?} lists no addresses"))
                            } else {
                                Ok(addrs)
                            }
                        })
                        .collect::<Result<_, _>>()?,
                    log_level: match opts.take("log-level") {
                        None => None,
                        Some(v) => {
                            Some(Level::parse(&v).map_err(|e| format!("bad --log-level: {e}"))?)
                        }
                    },
                    rpc_connect_timeout_ms: opts.numeric("rpc-connect-timeout-ms", 1_000u64)?,
                    rpc_io_timeout_ms: opts.numeric("rpc-timeout-ms", 10_000u64)?,
                    rpc_attempts: opts.numeric("rpc-attempts", 3u32)?,
                    rpc_backoff_ms: opts.numeric("rpc-backoff-ms", 50u64)?,
                    rpc_health_interval_ms: opts.numeric("rpc-health-interval-ms", 1_000u64)?,
                    tenant_quota: opts.numeric("tenant-quota", 0usize)?,
                    tenant_queue: opts.numeric("tenant-queue", 16usize)?,
                    labels: opts.take("labels"),
                };
                if args.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
                if args.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
                if args.request_timeout_ms == 0 {
                    return Err("--request-timeout-ms must be at least 1".into());
                }
                if args.snapshot_interval_ms == 0 {
                    return Err("--snapshot-interval-ms must be at least 1".into());
                }
                if args.rpc_attempts == 0 {
                    return Err("--rpc-attempts must be at least 1".into());
                }
                if let Some(k) = args.shard_server {
                    if args.shards < 2 {
                        return Err("--shard-server needs --shards of at least 2".into());
                    }
                    if k as usize >= args.shards {
                        return Err(format!(
                            "--shard-server {k} is out of range for --shards {}",
                            args.shards
                        ));
                    }
                    if !args.remote_shards.is_empty() {
                        return Err(
                            "--shard-server and --remote-shard are different roles; pick one"
                                .into(),
                        );
                    }
                }
                if !args.remote_shards.is_empty() {
                    if args.remote_shards.len() < 2 {
                        return Err(
                            "remote mode needs at least two --remote-shard lists (one per shard)"
                                .into(),
                        );
                    }
                    if args.shards != 1 {
                        return Err(
                            "--shards conflicts with --remote-shard: the shard count is the \
                             number of --remote-shard lists"
                                .into(),
                        );
                    }
                    if args.data_dir.is_some() {
                        return Err(
                            "--data-dir conflicts with --remote-shard: shard servers own \
                             persistence"
                                .into(),
                        );
                    }
                }
                Command::Serve(args)
            }
            "keyword" => {
                let args = KeywordArgs {
                    graph: opts.require("graph")?,
                    subgraph: opts.require("subgraph")?,
                    keyword: opts.take("keyword"),
                    base: match opts.take("base") {
                        None => Vec::new(),
                        Some(list) => list
                            .split(',')
                            .map(str::trim)
                            .filter(|t| !t.is_empty())
                            .map(|t| {
                                t.parse::<u32>()
                                    .map_err(|e| format!("bad --base id {t:?}: {e}"))
                            })
                            .collect::<Result<_, _>>()?,
                    },
                    labels: opts.take("labels"),
                    damping: take_damping(&mut opts)?,
                    tolerance: take_tolerance(&mut opts)?,
                    top: opts.numeric("top", 0usize)?,
                };
                match (&args.keyword, args.base.is_empty()) {
                    (Some(_), false) => {
                        return Err("--keyword and --base are exclusive; pick one".into())
                    }
                    (None, true) => {
                        return Err(format!("keyword needs --keyword or --base\n{USAGE}"))
                    }
                    _ => {}
                }
                Command::Keyword(args)
            }
            "partition" => {
                let args = PartitionArgs {
                    graph: opts.require("graph")?,
                    shards: opts.numeric("shards", 0usize)?,
                    partition: take_partition(&mut opts)?,
                    out: opts.require("out")?,
                };
                if args.shards < 2 {
                    return Err("--shards must be at least 2".into());
                }
                Command::Partition(args)
            }
            "--help" | "-h" | "help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown subcommand {other:?}\n{USAGE}")),
        };
        opts.finish()?;
        Ok(Cli { command })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn parses_rank_defaults() {
        let cli = Cli::parse(&argv("rank --graph g.edges --subgraph s.txt")).unwrap();
        let Command::Rank(a) = cli.command else {
            panic!("expected rank")
        };
        assert_eq!(a.graph, "g.edges");
        assert_eq!(a.algorithm, Algorithm::ApproxRank);
        assert_eq!(a.damping, 0.85);
        assert_eq!(a.top, 0);
    }

    #[test]
    fn parses_rank_full() {
        let cli = Cli::parse(&argv(
            "rank --graph g --subgraph s --algorithm sc --damping 0.9 --tolerance 1e-8 --top 10",
        ))
        .unwrap();
        let Command::Rank(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.algorithm, Algorithm::Sc);
        assert_eq!(a.damping, 0.9);
        assert_eq!(a.tolerance, 1e-8);
        assert_eq!(a.top, 10);
    }

    #[test]
    fn parses_rank_estimator_flags() {
        // `--algo` is an alias for `--algorithm`; defaults match the walk
        // crate's constants.
        let cli = Cli::parse(&argv("rank --graph g --subgraph s --algo mc")).unwrap();
        let Command::Rank(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.algorithm, Algorithm::Mc);
        assert_eq!(a.walks, approxrank_walk::counts::DEFAULT_WALKS);
        assert_eq!(a.epsilon, approxrank_walk::DEFAULT_EPSILON);
        assert_eq!(a.seed, approxrank_walk::counts::DEFAULT_SEED);

        let cli = Cli::parse(&argv(
            "rank --graph g --subgraph s --algo push --walks 32 --epsilon 0.01 --seed 9",
        ))
        .unwrap();
        let Command::Rank(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.algorithm, Algorithm::Push);
        assert_eq!(a.walks, 32);
        assert_eq!(a.epsilon, 0.01);
        assert_eq!(a.seed, 9);

        assert!(Cli::parse(&argv("rank --graph g --subgraph s --walks 0"))
            .unwrap_err()
            .contains("--walks"));
        assert!(
            Cli::parse(&argv("rank --graph g --subgraph s --epsilon -1"))
                .unwrap_err()
                .contains("--epsilon")
        );
        assert!(
            Cli::parse(&argv("rank --graph g --subgraph s --algo bogus"))
                .unwrap_err()
                .contains("unknown algorithm")
        );
    }

    #[test]
    fn idealrank_needs_scores() {
        let err =
            Cli::parse(&argv("rank --graph g --subgraph s --algorithm idealrank")).unwrap_err();
        assert!(err.contains("--scores"));
        assert!(Cli::parse(&argv(
            "rank --graph g --subgraph s --algorithm idealrank --scores r.txt"
        ))
        .is_ok());
    }

    #[test]
    fn rejects_unknown_flag_and_subcommand() {
        assert!(Cli::parse(&argv("rank --graph g --subgraph s --bogus 1"))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(Cli::parse(&argv("frob --graph g"))
            .unwrap_err()
            .contains("unknown subcommand"));
        assert!(Cli::parse(&[]).is_err());
    }

    #[test]
    fn parses_compare() {
        let cli = Cli::parse(&argv("compare --graph g --subgraph s --truth yes")).unwrap();
        let Command::Compare(a) = cli.command else {
            panic!()
        };
        assert!(a.with_truth);
        let cli = Cli::parse(&argv("compare --graph g --subgraph s")).unwrap();
        let Command::Compare(a) = cli.command else {
            panic!()
        };
        assert!(!a.with_truth);
    }

    #[test]
    fn parses_gen_and_stats() {
        let cli = Cli::parse(&argv("gen --dataset au --pages 5000 --out x.edges")).unwrap();
        let Command::Gen(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.pages, 5_000);
        assert_eq!(a.seed, 0);
        let cli = Cli::parse(&argv("stats --graph x.edges")).unwrap();
        assert!(matches!(cli.command, Command::Stats(_)));
    }

    #[test]
    fn parses_trace_flags() {
        let cli = Cli::parse(&argv(
            "global --graph g --trace --quiet --trace-json t.jsonl",
        ))
        .unwrap();
        let Command::Global(a) = cli.command else {
            panic!()
        };
        assert!(a.trace.trace && a.trace.quiet && a.trace.enabled());
        assert_eq!(a.trace.trace_json.as_deref(), Some("t.jsonl"));
        let cli = Cli::parse(&argv("rank --graph g --subgraph s")).unwrap();
        let Command::Rank(a) = cli.command else {
            panic!()
        };
        assert!(!a.trace.enabled() && !a.trace.quiet);
    }

    #[test]
    fn parses_report() {
        let cli = Cli::parse(&argv("report --input t.jsonl")).unwrap();
        let Command::Report(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.input.as_deref(), Some("t.jsonl"));
        assert_eq!(a.requests, None);
        assert_eq!(a.top, 5);
        assert!(Cli::parse(&argv("report")).is_err());

        let cli = Cli::parse(&argv("report --requests slow.jsonl --top 3")).unwrap();
        let Command::Report(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.input, None);
        assert_eq!(a.requests.as_deref(), Some("slow.jsonl"));
        assert_eq!(a.top, 3);
    }

    #[test]
    fn parses_threads() {
        let cli = Cli::parse(&argv("global --graph g --threads 4")).unwrap();
        let Command::Global(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.threads, 4);
        let cli = Cli::parse(&argv("rank --graph g --subgraph s --threads 2")).unwrap();
        let Command::Rank(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.threads, 2);
        // Default is sequential; zero is rejected.
        let cli = Cli::parse(&argv("global --graph g")).unwrap();
        let Command::Global(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.threads, 1);
        assert!(Cli::parse(&argv("global --graph g --threads 0"))
            .unwrap_err()
            .contains("--threads"));
    }

    #[test]
    fn bad_numeric_reported() {
        let err = Cli::parse(&argv("global --graph g --damping abc")).unwrap_err();
        assert!(err.contains("--damping"));
    }

    #[test]
    fn out_of_range_damping_and_tolerance_rejected() {
        // These used to reach the option builders' asserts and panic;
        // they must be parse errors instead.
        for bad in [
            "rank --graph g --subgraph s --damping 1.5",
            "rank --graph g --subgraph s --damping 0",
            "rank --graph g --subgraph s --damping -0.2",
            "global --graph g --damping 1",
            "compare --graph g --subgraph s --damping 2",
        ] {
            let err = Cli::parse(&argv(bad)).unwrap_err();
            assert!(err.contains("--damping"), "{bad} → {err}");
        }
        for bad in [
            "rank --graph g --subgraph s --tolerance 0",
            "rank --graph g --subgraph s --tolerance -1e-5",
            "global --graph g --tolerance inf",
            "compare --graph g --subgraph s --tolerance nan",
        ] {
            let err = Cli::parse(&argv(bad)).unwrap_err();
            assert!(err.contains("--tolerance"), "{bad} → {err}");
        }
    }

    #[test]
    fn parses_serve() {
        let cli = Cli::parse(&argv("serve --graph g.edges")).unwrap();
        let Command::Serve(a) = cli.command else {
            panic!("expected serve")
        };
        assert_eq!(a.graph, "g.edges");
        assert_eq!(a.addr, "127.0.0.1:7878");
        assert_eq!(a.threads, 2);
        assert_eq!(a.cache_entries, 4096);
        assert_eq!(a.max_body, 1 << 20);
        assert_eq!(a.request_timeout_ms, 5_000);
        assert_eq!(a.data_dir, None);
        assert_eq!(
            a.fsync,
            FsyncPolicy::Interval(std::time::Duration::from_millis(100))
        );
        assert_eq!(a.snapshot_interval_ms, 30_000);
        assert_eq!(a.shards, 1);
        assert_eq!(a.partition, PartitionStrategy::Range);
        assert_eq!(a.slow_ms, None);
        assert_eq!(a.tenant_quota, 0);
        assert_eq!(a.tenant_queue, 16);
        assert_eq!(a.labels, None);

        let cli = Cli::parse(&argv(
            "serve --graph g --addr 0.0.0.0:0 --threads 8 --cache-entries 64 \
             --max-body 4096 --request-timeout-ms 250",
        ))
        .unwrap();
        let Command::Serve(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.addr, "0.0.0.0:0");
        assert_eq!(a.threads, 8);
        assert_eq!(a.cache_entries, 64);
        assert_eq!(a.max_body, 4096);
        assert_eq!(a.request_timeout_ms, 250);

        assert!(Cli::parse(&argv("serve --graph g --threads 0")).is_err());
        assert!(Cli::parse(&argv("serve --graph g --request-timeout-ms 0")).is_err());
        assert!(Cli::parse(&argv("serve")).unwrap_err().contains("--graph"));
    }

    #[test]
    fn parses_serve_durability_flags() {
        let cli = Cli::parse(&argv(
            "serve --graph g --data-dir /var/lib/subrank --fsync always \
             --snapshot-interval-ms 5000",
        ))
        .unwrap();
        let Command::Serve(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.data_dir.as_deref(), Some("/var/lib/subrank"));
        assert_eq!(a.fsync, FsyncPolicy::Always);
        assert_eq!(a.snapshot_interval_ms, 5_000);

        let cli = Cli::parse(&argv("serve --graph g --fsync interval:250")).unwrap();
        let Command::Serve(a) = cli.command else {
            panic!()
        };
        assert_eq!(
            a.fsync,
            FsyncPolicy::Interval(std::time::Duration::from_millis(250))
        );

        let err = Cli::parse(&argv("serve --graph g --fsync sometimes")).unwrap_err();
        assert!(err.contains("--fsync"), "{err}");
        assert!(Cli::parse(&argv("serve --graph g --snapshot-interval-ms 0")).is_err());
    }

    #[test]
    fn parses_serve_sharding_flags() {
        let cli = Cli::parse(&argv("serve --graph g --shards 4 --partition scc")).unwrap();
        let Command::Serve(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.shards, 4);
        assert_eq!(a.partition, PartitionStrategy::Scc);
        assert!(Cli::parse(&argv("serve --graph g --shards 0")).is_err());
        let err = Cli::parse(&argv("serve --graph g --shards 2 --partition zig")).unwrap_err();
        assert!(err.contains("--partition"), "{err}");
    }

    #[test]
    fn parses_serve_slow_ms() {
        let cli = Cli::parse(&argv("serve --graph g --slow-ms 50")).unwrap();
        let Command::Serve(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.slow_ms, Some(50));
        // Zero is meaningful: capture every request.
        let cli = Cli::parse(&argv("serve --graph g --slow-ms 0")).unwrap();
        let Command::Serve(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.slow_ms, Some(0));
        let err = Cli::parse(&argv("serve --graph g --slow-ms soon")).unwrap_err();
        assert!(err.contains("--slow-ms"), "{err}");
    }

    #[test]
    fn parses_serve_shard_server() {
        let cli = Cli::parse(&argv("serve --graph g --shards 2 --shard-server 1")).unwrap();
        let Command::Serve(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.shard_server, Some(1));
        assert_eq!(a.shards, 2);
        // Default is the HTTP tier.
        let cli = Cli::parse(&argv("serve --graph g")).unwrap();
        let Command::Serve(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.shard_server, None);
        // A shard server must know the full partitioning, and its index
        // must be inside it.
        assert!(Cli::parse(&argv("serve --graph g --shard-server 0"))
            .unwrap_err()
            .contains("--shards"));
        assert!(
            Cli::parse(&argv("serve --graph g --shards 2 --shard-server 2"))
                .unwrap_err()
                .contains("out of range")
        );
        // One process is either a shard server or a router, never both.
        assert!(Cli::parse(&argv(
            "serve --graph g --shards 2 --shard-server 0 --remote-shard h:1 --remote-shard h:2"
        ))
        .is_err());
    }

    #[test]
    fn parses_serve_remote_shards() {
        let cli = Cli::parse(&argv(
            "serve --graph g --remote-shard 10.0.0.1:7900,10.0.0.2:7900 --remote-shard 10.0.0.3:7900",
        ))
        .unwrap();
        let Command::Serve(a) = cli.command else {
            panic!()
        };
        assert_eq!(
            a.remote_shards,
            vec![
                vec!["10.0.0.1:7900".to_string(), "10.0.0.2:7900".to_string()],
                vec!["10.0.0.3:7900".to_string()],
            ]
        );
        // Remote mode needs at least two shards, owns the shard count,
        // and leaves persistence to the shard servers.
        assert!(Cli::parse(&argv("serve --graph g --remote-shard h:1"))
            .unwrap_err()
            .contains("at least two"));
        assert!(Cli::parse(&argv(
            "serve --graph g --shards 2 --remote-shard h:1 --remote-shard h:2"
        ))
        .unwrap_err()
        .contains("--shards"));
        assert!(Cli::parse(&argv(
            "serve --graph g --data-dir d --remote-shard h:1 --remote-shard h:2"
        ))
        .unwrap_err()
        .contains("--data-dir"));
        assert!(Cli::parse(&argv("serve --graph g --remote-shard ,"))
            .unwrap_err()
            .contains("no addresses"));
    }

    #[test]
    fn parses_serve_rpc_tunables_and_log_level() {
        let cli = Cli::parse(&argv(
            "serve --graph g --remote-shard h:1 --remote-shard h:2 \
             --rpc-timeout-ms 2500 --rpc-connect-timeout-ms 400 --rpc-attempts 5 \
             --rpc-backoff-ms 20 --rpc-health-interval-ms 250 --log-level debug",
        ))
        .unwrap();
        let Command::Serve(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.rpc_io_timeout_ms, 2_500);
        assert_eq!(a.rpc_connect_timeout_ms, 400);
        assert_eq!(a.rpc_attempts, 5);
        assert_eq!(a.rpc_backoff_ms, 20);
        assert_eq!(a.rpc_health_interval_ms, 250);
        assert_eq!(a.log_level, Some(Level::Debug));

        let cli = Cli::parse(&argv("serve --graph g")).unwrap();
        let Command::Serve(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.rpc_io_timeout_ms, 10_000);
        assert_eq!(a.rpc_connect_timeout_ms, 1_000);
        assert_eq!(a.rpc_attempts, 3);
        assert_eq!(a.rpc_backoff_ms, 50);
        assert_eq!(a.rpc_health_interval_ms, 1_000);
        assert_eq!(a.log_level, None);

        assert!(Cli::parse(&argv("serve --graph g --rpc-attempts 0"))
            .unwrap_err()
            .contains("--rpc-attempts"));
        assert!(Cli::parse(&argv("serve --graph g --log-level loud"))
            .unwrap_err()
            .contains("--log-level"));
    }

    #[test]
    fn parses_serve_tenant_flags() {
        let cli = Cli::parse(&argv(
            "serve --graph g --tenant-quota 4 --tenant-queue 32 --labels pages.txt",
        ))
        .unwrap();
        let Command::Serve(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.tenant_quota, 4);
        assert_eq!(a.tenant_queue, 32);
        assert_eq!(a.labels.as_deref(), Some("pages.txt"));
        // Removed flags are rejected, never silently ignored.
        for flag in ["--batch-window-ms 2", "--batch-columns 8"] {
            assert!(Cli::parse(&argv(&format!("serve --graph g {flag}"))).is_err());
        }
    }

    #[test]
    fn parses_keyword() {
        let cli = Cli::parse(&argv(
            "keyword --graph g --subgraph s --keyword jaguar --labels pages.txt --top 5",
        ))
        .unwrap();
        let Command::Keyword(a) = cli.command else {
            panic!("expected keyword")
        };
        assert_eq!(a.graph, "g");
        assert_eq!(a.subgraph, "s");
        assert_eq!(a.keyword.as_deref(), Some("jaguar"));
        assert!(a.base.is_empty());
        assert_eq!(a.labels.as_deref(), Some("pages.txt"));
        assert_eq!(a.damping, 0.85);
        assert_eq!(a.tolerance, 1e-5);
        assert_eq!(a.top, 5);

        let cli = Cli::parse(&argv("keyword --graph g --subgraph s --base 3,1,4")).unwrap();
        let Command::Keyword(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.keyword, None);
        assert_eq!(a.base, vec![3, 1, 4]);

        // Exactly one of --keyword / --base.
        assert!(Cli::parse(&argv("keyword --graph g --subgraph s"))
            .unwrap_err()
            .contains("--keyword or --base"));
        assert!(
            Cli::parse(&argv("keyword --graph g --subgraph s --keyword x --base 1"))
                .unwrap_err()
                .contains("exclusive")
        );
        assert!(
            Cli::parse(&argv("keyword --graph g --subgraph s --base 1,x"))
                .unwrap_err()
                .contains("--base")
        );
    }

    #[test]
    fn parses_stats_sharding_flags() {
        let cli = Cli::parse(&argv("stats --graph g")).unwrap();
        let Command::Stats(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.shards, 0);
        let cli = Cli::parse(&argv("stats --graph g --shards 3 --partition hash")).unwrap();
        let Command::Stats(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.shards, 3);
        assert_eq!(a.partition, PartitionStrategy::Hash);
    }

    #[test]
    fn parses_partition() {
        let cli = Cli::parse(&argv("partition --graph g --shards 4 --out shards/")).unwrap();
        let Command::Partition(a) = cli.command else {
            panic!()
        };
        assert_eq!(a.graph, "g");
        assert_eq!(a.shards, 4);
        assert_eq!(a.partition, PartitionStrategy::Range);
        assert_eq!(a.out, "shards/");
        assert!(Cli::parse(&argv("partition --graph g --shards 1 --out d"))
            .unwrap_err()
            .contains("--shards"));
        assert!(Cli::parse(&argv("partition --graph g --shards 2"))
            .unwrap_err()
            .contains("--out"));
    }
}
