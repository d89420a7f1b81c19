//! The ApproxRank paper's contribution: ranking a subgraph without a
//! global PageRank computation.
//!
//! Both algorithms collapse the `N − n` external pages of a global graph
//! into a single external node `Λ` and run a damped random walk on the
//! resulting *extended local graph* of `n + 1` states:
//!
//! * [`IdealRank`] (paper §III) — the exact solution: the `Λ` row of the
//!   collapsed transition matrix weights each external page by its known
//!   PageRank score. Theorem 1: its local scores equal the true global
//!   PageRank scores.
//! * [`ApproxRank`] (paper §IV) — the practical solution: external scores
//!   unknown, `Λ`'s row averages the external pages uniformly. Theorem 2
//!   bounds its distance from IdealRank by `ε/(1−ε)·‖E − E_approx‖₁`.
//!
//! The crate also implements every comparison algorithm of the paper's
//! evaluation: [`baselines::LocalPageRank`] (■), [`baselines::Lpr2`] (●,
//! the ServerRank component), and [`sc::StochasticComplementation`] (◆,
//! Davis & Dhillon KDD'06), plus the error-bound machinery of §IV-C in
//! [`theory`].
//!
//! # Quickstart
//!
//! ```
//! use approxrank_graph::{DiGraph, NodeSet, Subgraph};
//! use approxrank_core::{ApproxRank, SubgraphRanker};
//!
//! // The paper's Figure 4: local pages A,B,C,D (0–3), external X,Y,Z (4–6).
//! let global = DiGraph::from_edges(7, &[
//!     (0, 1), (0, 2), (0, 4), (0, 6), (1, 3), (2, 1), (2, 3), (3, 0),
//!     (4, 2), (4, 5), (4, 6), (5, 2), (5, 6), (6, 2), (6, 3),
//! ]);
//! let local = NodeSet::from_sorted(7, [0, 1, 2, 3]);
//! let subgraph = Subgraph::extract(&global, local);
//! let scores = ApproxRank::default().rank(&global, &subgraph);
//! assert_eq!(scores.local_scores.len(), 4);
//! ```

pub mod approx;
pub mod baselines;
pub mod extended;
pub mod ideal;
mod par;
pub mod precompute;
pub mod ranker;
pub mod sc;
pub mod session;
pub mod theory;
pub mod updating;
pub mod weighted;

pub use approx::ApproxRank;
pub use extended::ExtendedLocalGraph;
pub use ideal::{GlobalScores, IdealRank};
pub use precompute::{GlobalAggregates, GlobalPrecomputation};
pub use ranker::{Estimate, RankScores, SubgraphRanker};
pub use sc::StochasticComplementation;
pub use session::SubgraphSession;
pub use updating::IadUpdate;
pub use weighted::WeightedSubgraph;
