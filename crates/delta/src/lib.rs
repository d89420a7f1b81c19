//! Generational delta-overlay graph for live mutation.
//!
//! The paper treats the global graph as a frozen snapshot; this crate
//! opens the evolving-graph workload by layering edge/node inserts and
//! tombstones over an immutable CSR base ([`DiGraph`]):
//!
//! * **Overlay layout** — per-page sorted *addition* rows and *tombstone*
//!   rows, kept for both adjacency directions. A read merges the base
//!   row (minus tombstones) with the addition row in one two-pointer
//!   pass, so iteration order is exactly the ascending-id order a
//!   compacted CSR would produce — extraction through the overlay is
//!   bitwise identical to extraction from a rebuilt graph.
//! * **Epoch lifecycle** — every effective mutation batch bumps a global
//!   epoch; each page the batch could influence is stamped with that
//!   epoch. Cached answers carry the epoch of the pages they read, so
//!   stale entries are detected lazily (key mismatch) instead of swept
//!   eagerly. Batches that change the global scalars every answer
//!   depends on (`N`, dangling count) also bump a *structural* epoch
//!   that invalidates everything.
//! * **Compaction** — [`DeltaGraph::compact`] folds the overlay into a
//!   fresh CSR generation and atomically swaps it in as the new base;
//!   epochs are unchanged because graph *content* is unchanged.
//!   [`DeltaGraph::compacted`] materializes the same CSR on demand for
//!   solvers that need a whole graph; both count each O(E) rebuild in
//!   [`DeltaGraph::materializations`]. Λ-collapse solves never need
//!   one: they read [`DeltaGraph::extract_with_scalars`] straight
//!   through the overlay.
//!
//! Which pages does a changed edge `(u, v)` influence? Extraction of a
//! member set reads members' out-rows, members' in-rows, and the global
//! out-degrees of boundary in-sources. Changing `(u, v)` edits `u`'s
//! out-row, `v`'s in-row, and `u`'s out-degree — the latter is read by
//! every answer whose members receive an edge from `u`. The touched set
//! `{u, v} ∪ out-neighbors(u)` therefore covers every member set whose
//! extraction could observe the change.

#![deny(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use approxrank_graph::{DiGraph, GraphView, NodeId, NodeSet, Subgraph, SubgraphSource};

/// The most nodes one mutation batch may append beyond the current page
/// count, so a corrupt or hostile id cannot demand gigabytes of bitmap.
pub const MAX_NODE_EXTENSION: usize = 1 << 20;

/// A rejected mutation batch (implausible node id, overflow). The graph
/// is left exactly as it was — batches apply all-or-nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaError(pub String);

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "delta error: {}", self.0)
    }
}

impl std::error::Error for DeltaError {}

/// What one applied batch did: the new epoch, effective edge counts, and
/// the pages whose cached answers it could have changed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutationSummary {
    /// Graph epoch after the batch (unchanged if the batch was a no-op).
    pub epoch: u64,
    /// Edges actually inserted (requests for already-present edges are
    /// idempotent no-ops and not counted).
    pub inserted: usize,
    /// Edges actually deleted (requests for absent edges are no-ops).
    pub deleted: usize,
    /// Pages touched by the batch — sorted, distinct. A cached answer is
    /// stale iff its members intersect this set (or `structural` is set).
    pub touched: Vec<NodeId>,
    /// Whether the batch changed `N` or the dangling count, invalidating
    /// every answer regardless of membership.
    pub structural: bool,
    /// New pages appended by edge endpoints beyond the old page count.
    pub nodes_added: usize,
}

impl MutationSummary {
    /// `true` when the batch had any effect at all.
    pub fn changed(&self) -> bool {
        self.inserted > 0 || self.deleted > 0 || self.nodes_added > 0
    }
}

/// One applied batch as recorded in the in-memory mutation log: replaying
/// these in order against the original base reproduces the current state
/// bit-for-bit. The engine folds this log into snapshots and the WAL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppliedMutation {
    /// Epoch the graph reached after this batch.
    pub epoch: u64,
    /// The insert list exactly as submitted.
    pub insert: Vec<(u32, u32)>,
    /// The delete list exactly as submitted.
    pub delete: Vec<(u32, u32)>,
}

/// Per-direction overlay: sorted addition rows and sorted tombstone rows,
/// keyed by page. Invariants: addition rows are disjoint from the base
/// row, tombstone rows are subsets of it, and empty rows are removed —
/// so `add.is_empty() && del.is_empty()` means "no overlay".
#[derive(Clone, Debug, Default)]
struct Overlay {
    add: HashMap<NodeId, Vec<NodeId>>,
    del: HashMap<NodeId, Vec<NodeId>>,
}

impl Overlay {
    fn is_empty(&self) -> bool {
        self.add.is_empty() && self.del.is_empty()
    }

    fn add_len(&self, u: NodeId) -> usize {
        self.add.get(&u).map_or(0, Vec::len)
    }

    fn del_len(&self, u: NodeId) -> usize {
        self.del.get(&u).map_or(0, Vec::len)
    }

    fn clear(&mut self) {
        self.add.clear();
        self.del.clear();
    }
}

/// Inserts `v` into the sorted row for `u`; returns `false` if present.
fn row_insert(map: &mut HashMap<NodeId, Vec<NodeId>>, u: NodeId, v: NodeId) -> bool {
    let row = map.entry(u).or_default();
    match row.binary_search(&v) {
        Ok(_) => false,
        Err(i) => {
            row.insert(i, v);
            true
        }
    }
}

/// Removes `v` from the sorted row for `u`; returns `false` if absent.
/// Drops the row entirely when it empties (the overlay-empty invariant).
fn row_remove(map: &mut HashMap<NodeId, Vec<NodeId>>, u: NodeId, v: NodeId) -> bool {
    let Some(row) = map.get_mut(&u) else {
        return false;
    };
    match row.binary_search(&v) {
        Ok(i) => {
            row.remove(i);
            if row.is_empty() {
                map.remove(&u);
            }
            true
        }
        Err(_) => false,
    }
}

fn row_contains(map: &HashMap<NodeId, Vec<NodeId>>, u: NodeId, v: NodeId) -> bool {
    map.get(&u).is_some_and(|row| row.binary_search(&v).is_ok())
}

/// The mutable state behind the lock. Implements [`GraphView`] so a
/// single read-lock acquisition covers a whole extraction.
struct Inner {
    base: Arc<DiGraph>,
    fwd: Overlay,
    rev: Overlay,
    /// Current page count `N` (>= `base.num_nodes()`; grows on node insert).
    num_nodes: usize,
    num_edges: usize,
    num_dangling: usize,
    /// Bumped once per effective batch; identifies graph content.
    epoch: u64,
    /// Epoch of the last batch that changed `N` or the dangling count.
    structural_epoch: u64,
    /// Last epoch that touched each page (sparse; absent = never touched).
    page_epochs: HashMap<NodeId, u64>,
    /// Compaction count (the "generation" of the current base).
    generation: u64,
    /// Every applied batch in order, for durability folding.
    log: Vec<AppliedMutation>,
    /// Materialization cache: `(epoch, compacted graph)`.
    compacted: Option<(u64, Arc<DiGraph>)>,
}

impl Inner {
    /// Whether the base CSR alone is the current graph (no overlay rows,
    /// no appended pages).
    fn is_pristine(&self) -> bool {
        self.fwd.is_empty() && self.num_nodes == self.base.num_nodes()
    }

    /// [`Subgraph::extract`] of the current graph: straight from the CSR
    /// when nothing overlays it, through the merged rows otherwise —
    /// bitwise the same subgraph either way.
    fn extract(&self, nodes: NodeSet) -> Subgraph {
        if self.is_pristine() {
            Subgraph::extract(self.base.as_ref(), nodes)
        } else {
            Subgraph::extract(self, nodes)
        }
    }

    fn base_out_row(&self, u: NodeId) -> &[NodeId] {
        if (u as usize) < self.base.num_nodes() {
            self.base.out_neighbors(u)
        } else {
            &[]
        }
    }

    fn base_in_row(&self, v: NodeId) -> &[NodeId] {
        if (v as usize) < self.base.num_nodes() {
            self.base.in_neighbors(v)
        } else {
            &[]
        }
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if row_contains(&self.fwd.add, u, v) {
            return true;
        }
        (u as usize) < self.base.num_nodes()
            && self.base.has_edge(u, v)
            && !row_contains(&self.fwd.del, u, v)
    }

    fn out_degree_of(&self, u: NodeId) -> usize {
        self.base_out_row(u).len() + self.fwd.add_len(u) - self.fwd.del_len(u)
    }

    fn in_degree_of(&self, v: NodeId) -> usize {
        self.base_in_row(v).len() + self.rev.add_len(v) - self.rev.del_len(v)
    }

    /// Merges `(base minus tombstones)` with the addition row, ascending.
    fn merged_row(base: &[NodeId], overlay: &Overlay, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        let empty: &[NodeId] = &[];
        let add = overlay.add.get(&u).map_or(empty, Vec::as_slice);
        let del = overlay.del.get(&u).map_or(empty, Vec::as_slice);
        let (mut bi, mut ai, mut di) = (0usize, 0usize, 0usize);
        while bi < base.len() || ai < add.len() {
            // Advance the tombstone cursor and skip deleted base entries.
            if bi < base.len() {
                while di < del.len() && del[di] < base[bi] {
                    di += 1;
                }
                if di < del.len() && del[di] == base[bi] {
                    bi += 1;
                    continue;
                }
            }
            match (base.get(bi), add.get(ai)) {
                (Some(&b), Some(&a)) => {
                    // Addition rows are disjoint from base rows, so no tie.
                    if b < a {
                        f(b);
                        bi += 1;
                    } else {
                        f(a);
                        ai += 1;
                    }
                }
                (Some(&b), None) => {
                    f(b);
                    bi += 1;
                }
                (None, Some(&a)) => {
                    f(a);
                    ai += 1;
                }
                (None, None) => unreachable!(),
            }
        }
    }
}

impl GraphView for Inner {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn out_degree(&self, u: NodeId) -> usize {
        self.out_degree_of(u)
    }

    fn in_degree(&self, v: NodeId) -> usize {
        self.in_degree_of(v)
    }

    fn for_each_out(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        Inner::merged_row(self.base_out_row(u), &self.fwd, u, f);
    }

    fn for_each_in(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        Inner::merged_row(self.base_in_row(v), &self.rev, v, f);
    }
}

/// A live-mutable directed graph: an immutable CSR base plus an overlay
/// of inserts and tombstones, versioned by an epoch counter.
///
/// All reads and writes go through one `RwLock`: extraction holds a read
/// lock for its whole scan (so it never observes a torn batch), and
/// mutation batches take the write lock, making each batch atomic.
pub struct DeltaGraph {
    inner: RwLock<Inner>,
    /// Full CSR rebuilds performed (see [`DeltaGraph::materializations`]).
    materializations: AtomicU64,
}

impl DeltaGraph {
    /// Wraps an immutable base graph with an empty overlay at epoch 0.
    pub fn new(base: Arc<DiGraph>) -> Self {
        let num_nodes = base.num_nodes();
        let num_edges = base.num_edges();
        let num_dangling = base.dangling_nodes().len();
        DeltaGraph {
            inner: RwLock::new(Inner {
                base,
                fwd: Overlay::default(),
                rev: Overlay::default(),
                num_nodes,
                num_edges,
                num_dangling,
                epoch: 0,
                structural_epoch: 0,
                page_epochs: HashMap::new(),
                generation: 0,
                log: Vec::new(),
                compacted: None,
            }),
            materializations: AtomicU64::new(0),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Inner> {
        self.inner.read().expect("delta graph lock")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Inner> {
        self.inner.write().expect("delta graph lock")
    }

    /// Applies one batch: inserts first, then deletes (a batch naming the
    /// same edge in both lists nets to deleted). Already-present inserts
    /// and absent deletes are idempotent no-ops. Edge endpoints at or
    /// beyond the current page count append new (initially dangling)
    /// pages. Returns an error — applying nothing — if any id is more
    /// than [`MAX_NODE_EXTENSION`] past the current page count.
    pub fn apply(
        &self,
        insert: &[(u32, u32)],
        delete: &[(u32, u32)],
    ) -> Result<MutationSummary, DeltaError> {
        self.apply_inner(insert, delete, None)
    }

    /// Replays a logged batch during recovery. Batches at or below the
    /// current epoch are skipped (idempotent replay, so several stores
    /// holding the same log can replay into one shared graph); applied
    /// batches force the epoch to the recorded value.
    pub fn replay(
        &self,
        epoch: u64,
        insert: &[(u32, u32)],
        delete: &[(u32, u32)],
    ) -> Result<Option<MutationSummary>, DeltaError> {
        if epoch <= self.read().epoch {
            return Ok(None);
        }
        self.apply_inner(insert, delete, Some(epoch)).map(Some)
    }

    fn apply_inner(
        &self,
        insert: &[(u32, u32)],
        delete: &[(u32, u32)],
        forced_epoch: Option<u64>,
    ) -> Result<MutationSummary, DeltaError> {
        let mut inner = self.write();

        // Validate the whole batch before touching anything: batches are
        // all-or-nothing.
        let ceiling = inner
            .num_nodes
            .saturating_add(MAX_NODE_EXTENSION)
            .min(u32::MAX as usize);
        for &(u, v) in insert.iter().chain(delete) {
            if u as usize >= ceiling || v as usize >= ceiling {
                return Err(DeltaError(format!(
                    "node id {} is implausibly far beyond the current {} pages",
                    u.max(v),
                    inner.num_nodes
                )));
            }
        }

        let old_nodes = inner.num_nodes;
        let old_dangling = inner.num_dangling;
        let mut inserted = 0usize;
        let mut deleted = 0usize;
        let mut touched: Vec<NodeId> = Vec::new();
        let mut changed_sources: Vec<NodeId> = Vec::new();

        for &(u, v) in insert {
            let needed = (u.max(v) as usize) + 1;
            if needed > inner.num_nodes {
                // New pages have no out-links yet: all dangling.
                inner.num_dangling += needed - inner.num_nodes;
                inner.num_nodes = needed;
            }
            if inner.has_edge(u, v) {
                continue;
            }
            if row_contains(&inner.fwd.del, u, v) {
                row_remove(&mut inner.fwd.del, u, v);
                row_remove(&mut inner.rev.del, v, u);
            } else {
                row_insert(&mut inner.fwd.add, u, v);
                row_insert(&mut inner.rev.add, v, u);
            }
            if inner.out_degree_of(u) == 1 {
                inner.num_dangling -= 1; // u just stopped dangling
            }
            inner.num_edges += 1;
            inserted += 1;
            touched.push(u);
            touched.push(v);
            changed_sources.push(u);
        }
        for &(u, v) in delete {
            if !inner.has_edge(u, v) {
                continue;
            }
            if row_contains(&inner.fwd.add, u, v) {
                row_remove(&mut inner.fwd.add, u, v);
                row_remove(&mut inner.rev.add, v, u);
            } else {
                row_insert(&mut inner.fwd.del, u, v);
                row_insert(&mut inner.rev.del, v, u);
            }
            if inner.out_degree_of(u) == 0 {
                inner.num_dangling += 1; // u just became dangling
            }
            inner.num_edges -= 1;
            deleted += 1;
            touched.push(u);
            touched.push(v);
            changed_sources.push(u);
        }

        let nodes_added = inner.num_nodes - old_nodes;
        if inserted == 0 && deleted == 0 && nodes_added == 0 {
            return Ok(MutationSummary {
                epoch: inner.epoch,
                inserted: 0,
                deleted: 0,
                touched: Vec::new(),
                structural: false,
                nodes_added: 0,
            });
        }

        // Widen the touched set: every change to u's out-row changed u's
        // out-degree, which is read by answers containing any page u
        // links into.
        changed_sources.sort_unstable();
        changed_sources.dedup();
        for u in changed_sources {
            inner.for_each_out(u, &mut |t| touched.push(t));
        }
        touched.sort_unstable();
        touched.dedup();

        let epoch = forced_epoch.unwrap_or(inner.epoch + 1);
        inner.epoch = epoch;
        let structural = inner.num_nodes != old_nodes || inner.num_dangling != old_dangling;
        if structural {
            inner.structural_epoch = epoch;
        }
        for &p in &touched {
            inner.page_epochs.insert(p, epoch);
        }
        inner.compacted = None;
        inner.log.push(AppliedMutation {
            epoch,
            insert: insert.to_vec(),
            delete: delete.to_vec(),
        });

        Ok(MutationSummary {
            epoch,
            inserted,
            deleted,
            touched,
            structural,
            nodes_added,
        })
    }

    /// Current graph epoch (0 = pristine base).
    pub fn epoch(&self) -> u64 {
        self.read().epoch
    }

    /// Epoch of the last batch that changed the global scalars (`N`,
    /// dangling count) every answer depends on.
    pub fn structural_epoch(&self) -> u64 {
        self.read().structural_epoch
    }

    /// The epoch a cached answer for `members` must carry to be fresh:
    /// the max of the structural epoch and every member's page epoch.
    pub fn effective_epoch(&self, members: &[NodeId]) -> u64 {
        let inner = self.read();
        let mut epoch = inner.structural_epoch;
        for m in members {
            if let Some(&e) = inner.page_epochs.get(m) {
                epoch = epoch.max(e);
            }
        }
        epoch
    }

    /// Current page count `N` (grows on node insert).
    pub fn num_nodes(&self) -> usize {
        self.read().num_nodes
    }

    /// Current edge count.
    pub fn num_edges(&self) -> usize {
        self.read().num_edges
    }

    /// Current dangling-page count.
    pub fn num_dangling(&self) -> usize {
        self.read().num_dangling
    }

    /// Compaction generation of the current base (0 = original load).
    pub fn generation(&self) -> u64 {
        self.read().generation
    }

    /// Number of batches applied since load (length of the log).
    pub fn mutations_applied(&self) -> usize {
        self.read().log.len()
    }

    /// The full mutation log, for folding into a durable snapshot.
    /// Replaying it in order against the originally-loaded base graph
    /// reproduces the current state exactly.
    pub fn mutation_log(&self) -> Vec<AppliedMutation> {
        self.read().log.clone()
    }

    /// A materialized CSR of the current state. Returns the base `Arc`
    /// untouched when the overlay is empty; otherwise builds (and caches,
    /// per epoch) a compacted graph, counted in
    /// [`Self::materializations`]. Whole-graph solvers run against this
    /// so they work on a mutated graph unchanged; Λ-collapse solves read
    /// [`Self::extract_with_scalars`] instead and never pay for it.
    pub fn compacted(&self) -> Arc<DiGraph> {
        {
            let inner = self.read();
            if inner.is_pristine() {
                return Arc::clone(&inner.base);
            }
            if let Some((epoch, ref g)) = inner.compacted {
                if epoch == inner.epoch {
                    return Arc::clone(g);
                }
            }
        }
        let mut inner = self.write();
        if let Some((epoch, ref g)) = inner.compacted {
            if epoch == inner.epoch {
                return Arc::clone(g);
            }
        }
        let g = Arc::new(self.materialize(&inner));
        inner.compacted = Some((inner.epoch, Arc::clone(&g)));
        g
    }

    /// Folds the overlay into a fresh CSR generation and swaps it in as
    /// the new base. Content (and therefore epochs) is unchanged; reads
    /// afterwards run at plain CSR speed. Returns the new generation.
    pub fn compact(&self) -> u64 {
        let mut inner = self.write();
        if !inner.is_pristine() {
            let g = match inner.compacted.take() {
                Some((epoch, g)) if epoch == inner.epoch => g,
                _ => Arc::new(self.materialize(&inner)),
            };
            inner.base = g;
            inner.fwd.clear();
            inner.rev.clear();
            inner.generation += 1;
        }
        inner.generation
    }

    /// Full CSR rebuilds since load, by [`Self::compacted`] or
    /// [`Self::compact`] — each one is O(E) under the write lock.
    pub fn materializations(&self) -> u64 {
        self.materializations.load(Ordering::Relaxed)
    }

    /// Extracts the induced subgraph of `members` (sorted, all below
    /// the current page count) together with `N` and the dangling count,
    /// all under one read lock: a concurrent batch can never tear the
    /// three apart. These are everything a Λ-collapse solve reads, so
    /// such solves never wait for (or trigger) a CSR rebuild.
    pub fn extract_with_scalars(&self, members: &[NodeId]) -> (Subgraph, usize, usize) {
        let inner = self.read();
        let nodes = NodeSet::from_sorted(inner.num_nodes, members.iter().copied());
        (inner.extract(nodes), inner.num_nodes, inner.num_dangling)
    }

    fn materialize(&self, inner: &Inner) -> DiGraph {
        self.materializations.fetch_add(1, Ordering::Relaxed);
        let mut edges = Vec::with_capacity(inner.num_edges);
        for u in 0..inner.num_nodes as NodeId {
            inner.for_each_out(u, &mut |v| edges.push((u, v)));
        }
        DiGraph::from_edges(inner.num_nodes, &edges)
    }
}

impl GraphView for DeltaGraph {
    fn num_nodes(&self) -> usize {
        self.read().num_nodes
    }

    fn num_edges(&self) -> usize {
        self.read().num_edges
    }

    fn out_degree(&self, u: NodeId) -> usize {
        self.read().out_degree_of(u)
    }

    fn in_degree(&self, v: NodeId) -> usize {
        self.read().in_degree_of(v)
    }

    fn for_each_out(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        self.read().for_each_out(u, f)
    }

    fn for_each_in(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        self.read().for_each_in(v, f)
    }
}

impl SubgraphSource for DeltaGraph {
    fn global_nodes(&self) -> usize {
        self.read().num_nodes
    }

    fn num_dangling(&self) -> usize {
        self.read().num_dangling
    }

    fn owns(&self, node: NodeId) -> bool {
        (node as usize) < self.read().num_nodes
    }

    fn extract_nodes(&self, nodes: NodeSet) -> Subgraph {
        // One read lock for the whole scan: extraction never observes a
        // half-applied batch.
        self.read().extract(nodes)
    }
}

/// One shard's view of a shared [`DeltaGraph`]: ownership comes from the
/// partition assignment, extraction goes straight to the (global) delta —
/// which is trivially identical to whole-graph extraction, so sharded
/// answers stay bit-identical to a single-server deployment.
pub struct DeltaShardView {
    delta: Arc<DeltaGraph>,
    assignment: Arc<Vec<u32>>,
    shard: u32,
}

impl DeltaShardView {
    /// Binds shard `shard` of `assignment` to a shared delta graph.
    pub fn new(delta: Arc<DeltaGraph>, assignment: Arc<Vec<u32>>, shard: u32) -> Self {
        DeltaShardView {
            delta,
            assignment,
            shard,
        }
    }

    /// The shared delta graph.
    pub fn delta(&self) -> &Arc<DeltaGraph> {
        &self.delta
    }

    /// This view's shard id.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Number of pages this shard owns.
    pub fn owned_pages(&self) -> usize {
        self.assignment.iter().filter(|&&s| s == self.shard).count()
    }
}

impl SubgraphSource for DeltaShardView {
    fn global_nodes(&self) -> usize {
        self.delta.num_nodes()
    }

    fn num_dangling(&self) -> usize {
        self.delta.num_dangling()
    }

    fn owns(&self, node: NodeId) -> bool {
        // Pages appended after boot are beyond the assignment and owned
        // by nobody: node inserts require a single-shard deployment.
        self.assignment
            .get(node as usize)
            .is_some_and(|&s| s == self.shard)
    }

    fn extract_nodes(&self, nodes: NodeSet) -> Subgraph {
        self.delta.extract_nodes(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig4_edges() -> Vec<(u32, u32)> {
        vec![
            (0, 1),
            (0, 2),
            (0, 4),
            (0, 6),
            (1, 3),
            (2, 1),
            (2, 3),
            (3, 0),
            (4, 2),
            (4, 5),
            (4, 6),
            (5, 2),
            (5, 6),
            (6, 2),
            (6, 3),
        ]
    }

    fn delta_over_fig4() -> DeltaGraph {
        DeltaGraph::new(Arc::new(DiGraph::from_edges(7, &fig4_edges())))
    }

    /// Rebuilds a plain graph with the delta's exact edge set.
    fn rebuilt(delta: &DeltaGraph) -> DiGraph {
        let n = delta.num_nodes();
        let mut edges = Vec::new();
        for u in 0..n as NodeId {
            GraphView::for_each_out(delta, u, &mut |v| edges.push((u, v)));
        }
        DiGraph::from_edges(n, &edges)
    }

    fn assert_matches_rebuild(delta: &DeltaGraph) {
        let g = rebuilt(delta);
        assert_eq!(delta.num_nodes(), g.num_nodes());
        assert_eq!(delta.num_edges(), g.num_edges());
        assert_eq!(delta.num_dangling(), g.dangling_nodes().len());
        for u in 0..g.num_nodes() as NodeId {
            assert_eq!(GraphView::out_degree(delta, u), g.out_degree(u), "out {u}");
            assert_eq!(GraphView::in_degree(delta, u), g.in_degree(u), "in {u}");
            assert_eq!(delta.out_neighbors_vec(u), g.out_neighbors(u).to_vec());
            let mut ins = Vec::new();
            GraphView::for_each_in(delta, u, &mut |s| ins.push(s));
            assert_eq!(ins, g.in_neighbors(u).to_vec(), "in row {u}");
        }
        // The compacted materialization is the same graph.
        assert_eq!(*delta.compacted(), g);
    }

    #[test]
    fn pristine_delta_mirrors_base() {
        let delta = delta_over_fig4();
        assert_eq!(delta.epoch(), 0);
        assert_eq!(delta.num_edges(), 15);
        assert_matches_rebuild(&delta);
        // compacted() hands back the base Arc untouched.
        assert_eq!(delta.generation(), 0);
        assert_eq!(delta.materializations(), 0);
    }

    #[test]
    fn materializations_count_each_epoch_rebuild_once() {
        let delta = delta_over_fig4();
        delta.apply(&[(3, 5)], &[]).unwrap();
        let first = delta.compacted();
        assert!(Arc::ptr_eq(&first, &delta.compacted()), "cached per epoch");
        assert_eq!(delta.materializations(), 1);
        delta.apply(&[(6, 0)], &[]).unwrap();
        delta.compact();
        assert_eq!(delta.materializations(), 2);
        // A compacted, clean overlay hands back the new base for free.
        delta.compacted();
        assert_eq!(delta.materializations(), 2);
    }

    #[test]
    fn insert_and_delete_roundtrip() {
        let delta = delta_over_fig4();
        let s = delta.apply(&[(3, 5)], &[(0, 4)]).unwrap();
        assert_eq!(s.epoch, 1);
        assert_eq!((s.inserted, s.deleted), (1, 1));
        assert!(!s.structural, "no dangling/node change");
        assert_matches_rebuild(&delta);
        // Inverse batch restores the edge set (but not the epoch).
        delta.apply(&[(0, 4)], &[(3, 5)]).unwrap();
        assert_eq!(delta.epoch(), 2);
        assert_eq!(*delta.compacted(), DiGraph::from_edges(7, &fig4_edges()));
    }

    #[test]
    fn noop_batches_do_not_bump_epoch() {
        let delta = delta_over_fig4();
        let s = delta.apply(&[(0, 1)], &[(5, 0)]).unwrap(); // present / absent
        assert_eq!(s.epoch, 0);
        assert!(!s.changed());
        assert_eq!(delta.mutations_applied(), 0);
    }

    #[test]
    fn touched_covers_source_target_and_out_neighbors() {
        let delta = delta_over_fig4();
        let s = delta.apply(&[(3, 5)], &[]).unwrap();
        // 3's out-row changed, 5's in-row changed, and 3's out-degree is
        // read by everything 3 links into (0 and now 5).
        assert_eq!(s.touched, vec![0, 3, 5]);
        assert_eq!(delta.effective_epoch(&[3]), 1);
        assert_eq!(delta.effective_epoch(&[1, 2]), 0);
    }

    #[test]
    fn dangling_transitions_are_structural() {
        let delta = delta_over_fig4();
        // Page 1's only out-edge is 1->3; deleting it makes 1 dangling.
        let s = delta.apply(&[], &[(1, 3)]).unwrap();
        assert!(s.structural);
        assert_eq!(delta.num_dangling(), 1);
        assert_eq!(delta.structural_epoch(), 1);
        // Structural bumps stale *every* member set.
        assert_eq!(delta.effective_epoch(&[6]), 1);
        assert_matches_rebuild(&delta);
    }

    #[test]
    fn node_insert_appends_dangling_pages() {
        let delta = delta_over_fig4();
        let s = delta.apply(&[(2, 9)], &[]).unwrap();
        assert_eq!(s.nodes_added, 3); // pages 7, 8, 9
        assert!(s.structural);
        assert_eq!(delta.num_nodes(), 10);
        assert_eq!(delta.num_dangling(), 3); // 7, 8 never linked; 9 dangling
        assert_matches_rebuild(&delta);
    }

    #[test]
    fn implausible_id_rejected_without_side_effects() {
        let delta = delta_over_fig4();
        let err = delta.apply(&[(0, u32::MAX - 1)], &[]).unwrap_err();
        assert!(err.0.contains("implausibly"), "{err}");
        assert_eq!(delta.epoch(), 0);
        assert_eq!(delta.num_nodes(), 7);
    }

    #[test]
    fn compaction_preserves_content_and_epoch() {
        let delta = delta_over_fig4();
        delta.apply(&[(3, 5), (6, 0)], &[(0, 1), (4, 5)]).unwrap();
        let before = rebuilt(&delta);
        let epoch = delta.epoch();
        assert_eq!(delta.compact(), 1);
        assert_eq!(delta.epoch(), epoch);
        assert_matches_rebuild(&delta);
        assert_eq!(rebuilt(&delta), before);
        // Compacting a clean graph is a no-op.
        assert_eq!(delta.compact(), 1);
        // And mutation keeps working on the new generation.
        delta.apply(&[(0, 1)], &[]).unwrap();
        assert_matches_rebuild(&delta);
    }

    #[test]
    fn extraction_matches_plain_graph_extraction() {
        let delta = delta_over_fig4();
        delta.apply(&[(3, 5), (5, 1)], &[(0, 2)]).unwrap();
        let g = rebuilt(&delta);
        let nodes = || NodeSet::from_sorted(7, [0u32, 1, 2, 3]);
        let via_delta = delta.extract_nodes(nodes());
        let direct = Subgraph::extract(&g, nodes());
        let (snapshot, n, dangling) = delta.extract_with_scalars(&[0, 1, 2, 3]);
        assert_eq!((n, dangling), (7, g.dangling_nodes().len()));
        assert_eq!(snapshot.boundary().in_edges, direct.boundary().in_edges);
        assert_eq!(delta.materializations(), 0, "overlay reads never rebuild");
        assert_eq!(via_delta.local_graph(), direct.local_graph());
        assert_eq!(via_delta.global_out_degrees(), direct.global_out_degrees());
        assert_eq!(
            via_delta.boundary().out_external,
            direct.boundary().out_external
        );
        assert_eq!(via_delta.boundary().in_edges, direct.boundary().in_edges);
        assert_eq!(
            via_delta.boundary().in_sources,
            direct.boundary().in_sources
        );
    }

    #[test]
    fn replay_is_epoch_guarded_and_deterministic() {
        let live = delta_over_fig4();
        live.apply(&[(3, 5)], &[]).unwrap();
        live.apply(&[], &[(0, 4)]).unwrap();
        let log = live.mutation_log();
        assert_eq!(log.len(), 2);

        let recovered = delta_over_fig4();
        for m in &log {
            assert!(recovered
                .replay(m.epoch, &m.insert, &m.delete)
                .unwrap()
                .is_some());
        }
        assert_eq!(recovered.epoch(), live.epoch());
        assert_eq!(rebuilt(&recovered), rebuilt(&live));
        assert_eq!(
            recovered.effective_epoch(&[0, 3, 5]),
            live.effective_epoch(&[0, 3, 5])
        );

        // A second store replaying the same log is a no-op.
        for m in &log {
            assert!(recovered
                .replay(m.epoch, &m.insert, &m.delete)
                .unwrap()
                .is_none());
        }
        assert_eq!(recovered.epoch(), live.epoch());
        assert_eq!(rebuilt(&recovered), rebuilt(&live));
    }

    #[test]
    fn shard_view_owns_only_assigned_pages() {
        let delta = Arc::new(delta_over_fig4());
        let assignment = Arc::new(vec![0u32, 0, 0, 0, 1, 1, 1]);
        let v0 = DeltaShardView::new(Arc::clone(&delta), Arc::clone(&assignment), 0);
        let v1 = DeltaShardView::new(Arc::clone(&delta), assignment, 1);
        assert!(v0.owns(2) && !v0.owns(5));
        assert!(v1.owns(5) && !v1.owns(2));
        assert_eq!(v0.owned_pages(), 4);
        // New pages beyond the assignment are owned by nobody.
        delta.apply(&[(2, 7)], &[]).unwrap();
        assert!(!v0.owns(7) && !v1.owns(7));
        // Extraction delegates to the shared (global) delta.
        let nodes = NodeSet::from_sorted(delta.num_nodes(), [0u32, 1]);
        let sub = v0.extract_nodes(nodes);
        assert_eq!(sub.global_nodes(), 8);
    }
}
