//! JSON for the service — a re-export of the workspace's single codec.
//!
//! The hand-rolled reader/writer used to live here; it moved to
//! [`approxrank_store::json`] so the sharded-layout manifest and the HTTP
//! bodies share one number policy (shortest round-trip `f64`) and one
//! tokenizer. Handlers keep importing through this path.

pub use approxrank_store::json::{obj, parse, Json, Reader, Writer};
