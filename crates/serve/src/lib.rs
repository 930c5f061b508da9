//! `aasd-serve` — a multi-session speculative-decoding server (std-only).
//!
//! The single-request story in `aasd-specdec`/`aasd-mm` proves AASD's
//! aligned draft is lossless and fast *in isolation*. This crate asks the
//! production question: does the speedup survive a server — multiple
//! concurrent sessions competing for compute, requests arriving while
//! others are mid-decode, latency measured at the socket?
//!
//! The answer is built from four pieces:
//!
//! * [`engine`] — a block-paged KV pool per model (sessions lease exactly
//!   the blocks their prompt + budget needs from one pre-allocated arena,
//!   and return them on completion), a FIFO admission queue that reasons
//!   in free blocks, an LRU vision-prefix cache keyed by image content
//!   hash (a hit copies the cached vision KV rows into the session's lease
//!   and skips the ViT + connector), and a
//!   continuous-batching scheduler that advances every active session one
//!   speculative block per tick. Because each slot runs the *same*
//!   [`aasd_specdec::SpecSession`] state machine as the one-shot fused
//!   loops — on a lease sized so the capacity bound collapses onto the
//!   budget bound — every served completion is token-identical to a
//!   single-request run — losslessness survives scheduling and paging, by
//!   construction.
//! * [`request`] — the client-facing handle: status, streamed tokens, TTFT,
//!   cancellation.
//! * [`metrics`] — a lock-free registry (atomic counters/gauges +
//!   fixed-bucket histograms for TTFT, per-token latency and block time),
//!   rendered Prometheus-style or as JSON, including serving-level α/τ
//!   merged from every finished session.
//! * [`proto`]/[`server`] — a length-prefixed TCP line protocol
//!   (submit/poll/cancel/metrics) and the accept-loop front end with a
//!   dedicated scheduler thread.

pub mod engine;
pub mod metrics;
pub mod proto;
pub mod request;
pub mod server;

pub use engine::{Engine, EngineConfig, EngineModel, Rejection};
pub use metrics::{Counter, Gauge, Histogram, Metrics};
pub use request::{DecodeMode, Request, RequestHandle, RequestId, Status};
pub use server::{Client, Server};
