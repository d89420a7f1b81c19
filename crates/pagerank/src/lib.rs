//! Global PageRank and authority-flow engine.
//!
//! Implements the random-walk machinery the ApproxRank paper builds on:
//!
//! * [`power::pagerank`] — power iteration on a [`approxrank_graph::DiGraph`]
//!   with the standard damping model `R = εAᵀR + (1−ε)P`, rank-1 dangling
//!   correction, and L1 convergence detection (the paper's setting:
//!   ε = 0.85, tolerance 1e-5).
//! * [`parallel`] — a multi-threaded pull-style iteration for large global
//!   graphs (used when computing the ground-truth global PageRank the
//!   experiments compare against).
//! * [`weighted`] + [`authority`] — per-edge weighted authority flow in the
//!   style of ObjectRank, for the semantic-ranking scenario of the paper's
//!   introduction (Figures 2–3).
//!
//! The *effective* transition model is shared with `approxrank-core`:
//! a page with out-links moves to each target with probability
//! `1/out_degree`; a dangling page jumps uniformly to all `N` pages.

pub mod authority;
pub mod options;
pub mod parallel;
pub mod power;
pub mod result;
pub mod weighted;

pub use options::{DanglingMode, PageRankOptions};
pub use parallel::{emit_exec_stats, executor_for, pagerank_with_start_observed_on};
pub use power::{pagerank, pagerank_observed, pagerank_with_start, pagerank_with_start_observed};
pub use result::PageRankResult;
pub use weighted::WeightedDiGraph;
