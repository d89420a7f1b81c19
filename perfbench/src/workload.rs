//! The four workloads and their seeded request schedules.
//!
//! A schedule is a pure function of the workload seed: the seed picks
//! the generated graph, every membership's position, the size draws,
//! the algorithm mix, the Zipf draws and the edge toggles. Membership
//! *sizes* come from fixed quantiles (stratified for the distinct
//! memberships, fixed per popularity rank for the Zipf key sets) so that
//! the work mix, and with it the end-to-end figures, stays steady from
//! seed to seed.

use std::collections::HashSet;
use std::fmt::Write as _;

use approxrank_gen::{politics_like, PoliticsConfig, TopicDataset};
use approxrank_graph::{assign_shards, DiGraph, PartitionStrategy};

use crate::stats::Rng;

/// Pages of the politics-like dataset at scale 1.0.
pub const PAGES: usize = 219_000;
/// Smallest membership drawn.
pub const MIN_MEMBERS: usize = 16;
/// Largest membership drawn: the largest TS subgraph at this scale.
pub const MAX_MEMBERS: usize = 23_000;
/// `mc` and `push` requests are limited to memberships this small.
pub const ESTIMATOR_MAX_MEMBERS: usize = 500;
/// Client connections (and client threads) in every workload.
pub const CONNECTIONS: usize = 2;
/// `hot-serve` arrival rate, requests per second.
pub const HOT_RATE_PER_S: f64 = 100.0;
/// Memberships in the `hot-serve` key set.
pub const HOT_KEYS: usize = 256;
/// Memberships in the `mutate-mix` key set.
pub const MUTATE_KEYS: usize = 32;
/// Zipf exponent of key popularity.
pub const ZIPF_EXPONENT: f64 = 1.1;
/// `remote-fanout` membership sizes.
pub const REMOTE_MIN_MEMBERS: usize = 50;
/// Upper end of the `remote-fanout` sizes.
pub const REMOTE_MAX_MEMBERS: usize = 2_000;
/// Shards behind the `remote-fanout` router.
pub const REMOTE_SHARDS: usize = 2;
/// One tenant per connection in `hot-serve`.
pub const TENANTS: [&str; CONNECTIONS] = ["tenant-a", "tenant-b"];
/// Size strata per block of cold draws.
const STRATA: usize = 32;

/// A named traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of distinct memberships and a mixed algorithm set.
    ColdMix,
    /// Open loop of Zipf-popular memberships, mostly cache hits.
    HotServe,
    /// Closed loop of Zipf reads, edge toggles and session updates.
    MutateMix,
    /// Closed loop through a router fronting two RPC shard servers.
    RemoteFanout,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdMix,
        Workload::HotServe,
        Workload::MutateMix,
        Workload::RemoteFanout,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMix => "cold-mix",
            Workload::HotServe => "hot-serve",
            Workload::MutateMix => "mutate-mix",
            Workload::RemoteFanout => "remote-fanout",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether arrivals follow a fixed schedule rather than completions.
    pub fn open_loop(self) -> bool {
        self == Workload::HotServe
    }
}

/// Ranking algorithm of a `/rank` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// `approxrank`
    Approx,
    /// `idealrank`
    Ideal,
    /// `mc`
    Mc,
    /// `push`
    Push,
}

impl Algo {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Approx => "approxrank",
            Algo::Ideal => "idealrank",
            Algo::Mc => "mc",
            Algo::Push => "push",
        }
    }
}

/// What a request does, for the latency split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `/rank` or `/keyword`.
    Read,
    /// `POST /graph/edges`.
    EdgeWrite,
    /// `POST /session/{id}/update`.
    SessionUpdate,
}

/// One scheduled request in compact form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Spec {
    /// `/rank` of the contiguous pages `start..start + len`.
    Range { start: u32, len: u32, algo: Algo },
    /// `/rank` (approxrank) of two runs of pages, `start..` and
    /// `second..`, of `len / 2` and `len - len / 2` pages.
    Split { start: u32, second: u32, len: u32 },
    /// `/rank` (or `/keyword`) of fixed key `key`.
    Key { key: u16, keyword: bool },
    /// Insert or delete one edge.
    Toggle { src: u32, dst: u32, insert: bool },
    /// Add or remove one page of this connection's session.
    Session { page: u32, add: bool },
}

/// A request ready to send (session paths name the connection's
/// session slot; the load generator substitutes the id the server
/// assigned).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Latency class.
    pub kind: Kind,
    /// Request path, except for session updates.
    pub path: &'static str,
    /// JSON body.
    pub body: String,
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The global graph.
    pub graph: DiGraph,
    /// The request schedule.
    pub schedule: Schedule,
}

/// The seeded request schedule of one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Which workload.
    pub workload: Workload,
    /// Closed loop: one list per connection. Open loop: one list in
    /// arrival order, `1 / HOT_RATE_PER_S` seconds apart.
    pub streams: Vec<Vec<Spec>>,
    /// The fixed key memberships, `(start, len)`.
    pub keys: Vec<(u32, u32)>,
    /// Keyword base sets, one per key.
    pub bases: Vec<Vec<u32>>,
    /// Per-connection session memberships (`mutate-mix`).
    pub sessions: Vec<(u32, u32)>,
}

/// Generates the politics-like graph and the schedule for `seed`.
/// `pages` is [`PAGES`] except in the benchmark's own tests; `horizon_s`
/// bounds how much traffic a run can consume.
pub fn generate(workload: Workload, seed: u64, pages: usize, horizon_s: f64) -> Inputs {
    let data = politics_like(&PoliticsConfig {
        pages,
        seed,
        ..PoliticsConfig::default()
    });
    let topics = topic_ranges(&data);
    let graph = data.graph().clone();
    let schedule = Schedule::new(workload, seed, &graph, &topics, horizon_s);
    Inputs { graph, schedule }
}

/// `(start, len)` of every topic; topics are contiguous id ranges.
fn topic_ranges(data: &TopicDataset) -> Vec<(usize, usize)> {
    let n = data.graph().num_nodes();
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    for page in 1..=n {
        if page == n || data.topic_of(page as u32) != data.topic_of(start as u32) {
            ranges.push((start, page - start));
            start = page;
        }
    }
    ranges
}

/// Log-uniform size at quantile `u` of `[lo, hi]`.
fn size_at(u: f64, lo: usize, hi: usize) -> usize {
    let size = lo as f64 * (hi as f64 / lo as f64).powf(u);
    (size.round() as usize).clamp(lo, hi)
}

/// Base-2 van der Corput point `i` (`i >= 1`), in `(0, 1)`.
fn van_der_corput(mut i: usize) -> f64 {
    let (mut x, mut scale) = (0.0, 0.5);
    while i > 0 {
        if i & 1 == 1 {
            x += scale;
        }
        i >>= 1;
        scale *= 0.5;
    }
    x
}

/// Places `len` contiguous pages inside a topic chosen with probability
/// proportional to its size (spilling into the next topics when the
/// membership is larger than its topic).
fn place(rng: &mut Rng, topics: &[(usize, usize)], n: usize, len: usize) -> u32 {
    let page = rng.below(n);
    let &(start, size) = topics
        .iter()
        .find(|&&(s, l)| page >= s && page < s + l)
        .expect("topics cover every page");
    let offset = rng.below(size.saturating_sub(len) + 1);
    (start + offset).min(n - len) as u32
}

/// Cumulative Zipf weights over `k` keys.
fn zipf_cdf(k: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..k)
        .map(|r| {
            acc += 1.0 / ((r + 1) as f64).powf(ZIPF_EXPONENT);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn zipf_draw(rng: &mut Rng, cdf: &[f64]) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

impl Schedule {
    fn new(
        workload: Workload,
        seed: u64,
        graph: &DiGraph,
        topics: &[(usize, usize)],
        horizon_s: f64,
    ) -> Schedule {
        let mut rng = Rng::new(seed ^ (workload as u64) << 56);
        let n = graph.num_nodes();
        let mut schedule = Schedule {
            workload,
            streams: Vec::new(),
            keys: Vec::new(),
            bases: Vec::new(),
            sessions: Vec::new(),
        };
        // Generous caps: a closed loop completes far fewer than 1,000
        // requests per second per connection.
        let per_stream = (horizon_s * 1_000.0).ceil() as usize + 64;
        match workload {
            Workload::ColdMix => {
                let mut seen = HashSet::new();
                let mut streams = vec![Vec::new(); CONNECTIONS];
                let mut order = Vec::new();
                for g in 0..per_stream * CONNECTIONS {
                    if g % STRATA == 0 {
                        order = rng.permutation(STRATA);
                    }
                    let u = (order[g % STRATA] as f64 + rng.unit()) / STRATA as f64;
                    let len = size_at(u, MIN_MEMBERS, MAX_MEMBERS.min(n / 2));
                    let algo = match (len <= ESTIMATOR_MAX_MEMBERS, rng.below(8)) {
                        (true, 0) => Algo::Mc,
                        (true, 1) => Algo::Push,
                        (_, 2) => Algo::Ideal,
                        _ => Algo::Approx,
                    };
                    loop {
                        let start = place(&mut rng, topics, n, len);
                        let spec = Spec::Range {
                            start,
                            len: len as u32,
                            algo,
                        };
                        if seen.insert(spec) {
                            streams[g % CONNECTIONS].push(spec);
                            break;
                        }
                    }
                }
                schedule.streams = streams;
            }
            Workload::HotServe => {
                schedule.set_keys(&mut rng, topics, n, HOT_KEYS, true);
                let cdf = zipf_cdf(HOT_KEYS);
                let arrivals = (horizon_s * HOT_RATE_PER_S).ceil() as usize + 1;
                let stream = (0..arrivals)
                    .map(|j| Spec::Key {
                        key: zipf_draw(&mut rng, &cdf) as u16,
                        keyword: j % 4 == 3,
                    })
                    .collect();
                schedule.streams = vec![stream];
            }
            Workload::MutateMix => {
                schedule.set_keys(&mut rng, topics, n, MUTATE_KEYS, false);
                schedule.sessions = schedule.keys[..CONNECTIONS].to_vec();
                let cdf = zipf_cdf(MUTATE_KEYS);
                for c in 0..CONNECTIONS {
                    let mut stream = Vec::with_capacity(per_stream);
                    let mut pending: Option<(u32, u32)> = None;
                    let (s_start, s_len) = schedule.sessions[c];
                    // The session alternately gains and loses this page.
                    let extra = (s_start + s_len).min(n as u32 - 1);
                    for i in 0..per_stream {
                        let spec = match i % 8 {
                            2 => match pending.take() {
                                Some((src, dst)) => Spec::Toggle {
                                    src,
                                    dst,
                                    insert: false,
                                },
                                None => {
                                    let (src, dst) = schedule.fresh_edge(&mut rng, &cdf, graph, c);
                                    pending = Some((src, dst));
                                    Spec::Toggle {
                                        src,
                                        dst,
                                        insert: true,
                                    }
                                }
                            },
                            5 => Spec::Session {
                                page: extra,
                                add: (i / 8) % 2 == 0,
                            },
                            _ => Spec::Key {
                                key: zipf_draw(&mut rng, &cdf) as u16,
                                keyword: false,
                            },
                        };
                        stream.push(spec);
                    }
                    schedule.streams.push(stream);
                }
            }
            Workload::RemoteFanout => {
                let assignment = assign_shards(graph, REMOTE_SHARDS, PartitionStrategy::Range);
                let boundary = assignment
                    .iter()
                    .position(|&s| s == 1)
                    .expect("range partitioning fills both shards");
                // Topics as seen from the second shard's first page.
                let shard1_topics: Vec<(usize, usize)> = topics
                    .iter()
                    .filter(|&&(s, l)| s + l > boundary)
                    .map(|&(s, l)| (s.max(boundary) - boundary, s + l - s.max(boundary)))
                    .collect();
                let mut seen = HashSet::new();
                let mut streams = vec![Vec::new(); CONNECTIONS];
                let mut order = Vec::new();
                for g in 0..per_stream * CONNECTIONS {
                    if g % STRATA == 0 {
                        order = rng.permutation(STRATA);
                    }
                    let u = (order[g % STRATA] as f64 + rng.unit()) / STRATA as f64;
                    let len = size_at(u, REMOTE_MIN_MEMBERS, REMOTE_MAX_MEMBERS);
                    loop {
                        let spec = if g % 2 == 0 {
                            // Half on each side of the shard boundary.
                            let half = len / 2;
                            Spec::Split {
                                start: place(&mut rng, topics, boundary, half),
                                second: (boundary
                                    + place(&mut rng, &shard1_topics, n - boundary, len - half)
                                        as usize) as u32,
                                len: len as u32,
                            }
                        } else {
                            let start = place(&mut rng, topics, n, len) as usize;
                            let end = start + len;
                            let start = if start < boundary && end > boundary {
                                boundary - len
                            } else {
                                start
                            };
                            Spec::Range {
                                start: start as u32,
                                len: len as u32,
                                algo: Algo::Approx,
                            }
                        };
                        if seen.insert(spec) {
                            streams[g % CONNECTIONS].push(spec);
                            break;
                        }
                    }
                }
                schedule.streams = streams;
            }
        }
        schedule
    }

    /// Draws the fixed key set. Sizes are fixed quantiles of the cold
    /// sizes, so the popularity-weighted size mix is the same for every
    /// seed: with `largest_first` the popularity rank `r` key gets
    /// quantile `1 - (r + 1/2) / k`, so size falls smoothly with rank and
    /// the latency percentiles land on one key's plateau instead of
    /// jumping between keys of very different sizes; otherwise it gets
    /// van der Corput point `r + 1`, spreading sizes over the ranks.
    fn set_keys(
        &mut self,
        rng: &mut Rng,
        topics: &[(usize, usize)],
        n: usize,
        k: usize,
        largest_first: bool,
    ) {
        for r in 0..k {
            let u = if largest_first {
                1.0 - (r as f64 + 0.5) / k as f64
            } else {
                van_der_corput(r + 1)
            };
            let len = size_at(u, MIN_MEMBERS, MAX_MEMBERS.min(n / 2));
            let start = place(rng, topics, n, len);
            self.keys.push((start, len as u32));
            let base = (0..3)
                .map(|_| start + rng.below(len) as u32)
                .collect::<std::collections::BTreeSet<u32>>();
            self.bases.push(base.into_iter().collect());
        }
    }

    /// An absent edge inside a Zipf-drawn key, from a page with out-links
    /// (so neither inserting nor deleting it changes the dangling count)
    /// and owned by connection `c` (so connections never toggle the same
    /// edge).
    fn fresh_edge(&self, rng: &mut Rng, cdf: &[f64], graph: &DiGraph, c: usize) -> (u32, u32) {
        loop {
            let (start, len) = self.keys[zipf_draw(rng, cdf)];
            let src = start + rng.below(len as usize) as u32;
            let dst = start + rng.below(len as usize) as u32;
            if src as usize % CONNECTIONS == c
                && src != dst
                && graph.out_degree(src) > 0
                && !graph.has_edge(src, dst)
            {
                return (src, dst);
            }
        }
    }

    /// The request a spec stands for.
    pub fn request(&self, spec: Spec) -> Request {
        match spec {
            Spec::Range { start, len, algo } => Request {
                kind: Kind::Read,
                path: "/rank",
                body: format!(
                    "{{\"members\":{},\"algorithm\":\"{}\"}}",
                    id_list(start, len),
                    algo.name()
                ),
            },
            Spec::Split { start, second, len } => {
                let half = len / 2;
                let first = id_list(start, half);
                let rest = id_list(second, len - half);
                Request {
                    kind: Kind::Read,
                    path: "/rank",
                    body: format!(
                        "{{\"members\":[{},{}],\"algorithm\":\"approxrank\"}}",
                        &first[1..first.len() - 1],
                        &rest[1..rest.len() - 1]
                    ),
                }
            }
            Spec::Key { key, keyword } => {
                let (start, len) = self.keys[key as usize];
                if keyword {
                    let base: Vec<String> = self.bases[key as usize]
                        .iter()
                        .map(u32::to_string)
                        .collect();
                    Request {
                        kind: Kind::Read,
                        path: "/keyword",
                        body: format!(
                            "{{\"members\":{},\"base\":[{}]}}",
                            id_list(start, len),
                            base.join(",")
                        ),
                    }
                } else {
                    Request {
                        kind: Kind::Read,
                        path: "/rank",
                        body: format!("{{\"members\":{}}}", id_list(start, len)),
                    }
                }
            }
            Spec::Toggle { src, dst, insert } => Request {
                kind: Kind::EdgeWrite,
                path: "/graph/edges",
                body: format!(
                    "{{\"{}\":[[{src},{dst}]]}}",
                    if insert { "insert" } else { "delete" }
                ),
            },
            Spec::Session { page, add } => Request {
                kind: Kind::SessionUpdate,
                path: "/session/update",
                body: format!("{{\"{}\":[{page}]}}", if add { "add" } else { "remove" }),
            },
        }
    }

    /// The body that opens connection `c`'s session.
    pub fn session_body(&self, c: usize) -> String {
        let (start, len) = self.sessions[c];
        format!("{{\"members\":{}}}", id_list(start, len))
    }

    /// Every scheduled request in a canonical byte form, for the
    /// determinism tests.
    pub fn canonical_bytes(&self, per_stream: usize) -> Vec<u8> {
        let mut out = String::new();
        for (c, stream) in self.streams.iter().enumerate() {
            for spec in stream.iter().take(per_stream) {
                let r = self.request(*spec);
                let _ = writeln!(out, "{c} {:?} {} {}", r.kind, r.path, r.body);
            }
        }
        for c in 0..self.sessions.len() {
            let _ = writeln!(out, "session {c} {}", self.session_body(c));
        }
        out.into_bytes()
    }
}

/// `[start,start+1,…]` as JSON.
fn id_list(start: u32, len: u32) -> String {
    let mut out = String::with_capacity(len as usize * 7 + 2);
    out.push('[');
    for id in start..start + len {
        if id > start {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_span_the_log_uniform_range() {
        assert_eq!(size_at(0.0, 16, 23_000), 16);
        assert_eq!(size_at(1.0, 16, 23_000), 23_000);
        assert_eq!(van_der_corput(1), 0.5);
        assert_eq!(van_der_corput(2), 0.25);
        assert_eq!(van_der_corput(3), 0.75);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let cdf = zipf_cdf(8);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 8];
        for _ in 0..4_000 {
            counts[zipf_draw(&mut rng, &cdf)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[7]);
    }
}
