//! Seeded end-to-end and per-layer benchmark of the ApproxRank serving
//! stack. See `README.md` beside this crate for the workloads, the
//! metrics and which layer figure should move which end-to-end figure.

pub mod deploy;
pub mod drive;
pub mod layers;
pub mod run;
pub mod stats;
pub mod verify;
pub mod workload;
