//! `approxrank-rpc`: remote shard engines over a hand-rolled binary RPC.
//!
//! A sharded deployment outgrows one host the moment a partition does: the
//! router keeps its global view, but each shard engine — which only ever
//! answers ApproxRank for members it owns — can live anywhere. This crate
//! is the wire between them: a zero-dependency, length-prefixed binary
//! protocol over [`std::net`] that exposes the full [`Engine`] surface
//! (rank, session create/update/get/delete, stats), a [`ShardServer`] that
//! serves one engine on a TCP listener, and a [`RemoteEngine`] client that
//! implements the same [`EngineHandle`] trait the router dispatches to —
//! so one router can front any mix of in-process and remote engines
//! without knowing which is which.
//!
//! [`Engine`]: approxrank_engine::Engine
//! [`EngineHandle`]: approxrank_engine::EngineHandle
//!
//! # Frame format
//!
//! Every message — request or response — travels in one frame, reusing the
//! store WAL's record discipline (`[u32 len][u32 crc][payload]`, CRC32 of
//! the payload, all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     payload length in bytes (u32 LE), <= 16 MiB
//! 4       4     CRC32 of payload (u32 LE), same polynomial as the WAL
//! 8       len   payload
//! ```
//!
//! A reader that sees a length above [`wire::MAX_FRAME_PAYLOAD`] or a CRC
//! mismatch must treat the connection as poisoned and close it — after
//! either, byte alignment can no longer be trusted. Torn frames (EOF mid
//! header or mid payload) are ordinary connection loss.
//!
//! # Payload format
//!
//! Request payloads open with a two-byte preamble, then a trace id, then
//! an opcode-specific body:
//!
//! ```text
//! [u8 version][u8 opcode][str trace_id][body…]
//! ```
//!
//! Response payloads open with the version and a status byte:
//!
//! ```text
//! [u8 version][u8 status][body…]
//! ```
//!
//! `str` is `[u32 len][UTF-8 bytes]`; an empty trace id means the caller
//! had no active request trace. `f64` values cross the wire as
//! `f64::to_bits` (u64 LE), so scores survive bit-exactly — the property
//! the remote-vs-local byte-identity guarantee rests on. Opcode and status
//! bytes are listed in [`wire`].
//!
//! # Versioning and compatibility rules
//!
//! The protocol is deliberately rigid; these are the rules a change must
//! follow:
//!
//! 1. **One version byte governs everything.** [`wire::WIRE_VERSION`]
//!    is the first payload byte of every request and response. There is no negotiation: a decoder that sees any other
//!    value must reject the payload (servers answer status `BadProtocol`,
//!    clients fail the call) rather than guess at field layouts.
//! 2. **Within a version, layouts are frozen.** Adding, removing,
//!    reordering, or widening any field of an existing opcode's body —
//!    or adding a new opcode or status byte — requires bumping
//!    `WIRE_VERSION`. Decoders reject unknown opcodes and statuses, so
//!    "harmless" additions are not harmless to an old peer.
//! 3. **Routers and shard servers deploy in lockstep.** Both sides come
//!    from one workspace and one release artifact; cross-version
//!    operation is out of scope and is refused loudly (a `BadProtocol`
//!    response names both versions) instead of being half-supported.
//! 4. **Trailing bytes are an error.** Every body decoder checks the
//!    payload is fully consumed. A peer that appends data an old decoder
//!    would silently skip is a protocol break, not an extension — rule 2
//!    applies.
//! 5. **The frame header is version-invariant.** Rules 1–4 cover the
//!    payload; the 8-byte frame header itself never changes, so even a
//!    mismatched peer fails at the first decoded payload, not with a
//!    desynchronized byte stream.
//!
//! # Robustness model
//!
//! [`RemoteEngine`] fronts a *replica set* per shard: every replica serves
//! the same immutable partition, so stateless reads (`/rank`, which is
//! cache-aside on each side) load-balance round-robin across healthy
//! replicas. Transport errors mark a replica down and fail over to the
//! next with exponential backoff under a bounded retry budget; a
//! background health checker pings every replica and brings recovered
//! ones back. Warm sessions are *not* replicated — session operations pin
//! to the lowest-index healthy replica, and sessions created there die
//! with it (see OPERATIONS.md for the operational consequences). When the
//! budget runs out the caller sees
//! [`EngineError::Unavailable`](approxrank_engine::EngineError), which the
//! HTTP layer renders as a 503 carrying the request's trace id.
//!
//! Trace ids propagate over the wire: the client stamps the active
//! request trace id into every request, the server re-enters it via
//! [`approxrank_trace::logging::trace_scope`], so one id greps from the
//! router's access log straight through to the shard host's log lines.

#![deny(missing_docs)]

mod client;
mod remote;
mod server;
pub mod wire;

pub use client::RpcClient;
pub use remote::{RemoteConfig, RemoteEngine, RpcMetricsSnapshot};
pub use server::{ShardServer, ShardServerHandle};
