//! Request descriptors and the shared per-request handle clients poll.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use aasd_specdec::SpecStats;

/// Server-assigned request identifier.
pub type RequestId = u64;

/// How a request's tokens are decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeMode {
    /// Draft-then-verify speculative decoding with the given γ. Lossless:
    /// token-identical to [`DecodeMode::Autoregressive`] on the same model.
    Speculative { gamma: usize },
    /// Plain greedy decoding on the target only (the serving baseline).
    Autoregressive,
}

/// One decode request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub prompt: Vec<u32>,
    /// Upper bound on new tokens; the engine clamps it to the feasible
    /// budget left by the context window after prefill.
    pub max_new: usize,
    pub mode: DecodeMode,
    /// Deterministic seed for the request's synthetic image (the offline
    /// stand-in for an image payload). Required: the engine refuses a
    /// request without one as [`Rejection::Invalid`](crate::Rejection).
    pub image_seed: Option<u64>,
}

/// Lifecycle of a request inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Admitted, waiting for a session slot.
    Queued,
    /// Attached to a slot; tokens are streaming.
    Running,
    /// All tokens emitted; `stats` is final.
    Done,
    /// Cancelled before completion (client request or shutdown drain).
    Cancelled,
}

#[derive(Debug)]
struct HandleInner {
    status: Status,
    tokens: Vec<u32>,
    stats: Option<SpecStats>,
}

/// Shared handle for one admitted request.
///
/// The scheduler publishes committed tokens here after every block; clients
/// poll (or block on [`RequestHandle::wait_done`]) without ever touching
/// the scheduler's lock — the handle is its own tiny synchronization
/// domain, so a slow poller cannot stall decode progress.
#[derive(Debug)]
pub struct RequestHandle {
    pub id: RequestId,
    submitted_at: Instant,
    inner: Mutex<HandleInner>,
    done_cv: Condvar,
    cancel: AtomicBool,
    /// Time-to-first-token in nanoseconds; 0 until the first token lands.
    ttft_ns: AtomicU64,
}

impl RequestHandle {
    pub(crate) fn new(id: RequestId) -> Self {
        Self {
            id,
            submitted_at: Instant::now(),
            inner: Mutex::new(HandleInner {
                status: Status::Queued,
                tokens: Vec::new(),
                stats: None,
            }),
            done_cv: Condvar::new(),
            cancel: AtomicBool::new(false),
            ttft_ns: AtomicU64::new(0),
        }
    }

    /// Current status plus a snapshot of every token committed so far.
    pub fn snapshot(&self) -> (Status, Vec<u32>) {
        let inner = self.inner.lock().unwrap();
        (inner.status, inner.tokens.clone())
    }

    /// Final stats (speculative sessions only), once done.
    pub fn stats(&self) -> Option<SpecStats> {
        self.inner.lock().unwrap().stats.clone()
    }

    /// Request cancellation. Takes effect at the next block boundary; the
    /// tokens already committed stay readable.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    pub fn is_cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    /// Block until the request reaches a terminal state; returns it.
    pub fn wait_done(&self) -> Status {
        let mut inner = self.inner.lock().unwrap();
        while !matches!(inner.status, Status::Done | Status::Cancelled) {
            inner = self.done_cv.wait(inner).unwrap();
        }
        inner.status
    }

    /// Time-to-first-token, if the first token has landed.
    pub fn ttft_ms(&self) -> Option<f64> {
        let ns = self.ttft_ns.load(Ordering::Relaxed);
        (ns > 0).then(|| ns as f64 / 1e6)
    }

    // ---- scheduler-side mutators (crate-private) -----------------------

    pub(crate) fn mark_running(&self) {
        self.inner.lock().unwrap().status = Status::Running;
    }

    pub(crate) fn push_tokens(&self, new: &[u32]) {
        if new.is_empty() {
            return;
        }
        if self.ttft_ns.load(Ordering::Relaxed) == 0 {
            let ns = self.submitted_at.elapsed().as_nanos().max(1) as u64;
            self.ttft_ns.store(ns, Ordering::Relaxed);
        }
        self.inner.lock().unwrap().tokens.extend_from_slice(new);
    }

    pub(crate) fn finish(&self, status: Status, stats: Option<SpecStats>) {
        debug_assert!(matches!(status, Status::Done | Status::Cancelled));
        let mut inner = self.inner.lock().unwrap();
        inner.status = status;
        inner.stats = stats;
        drop(inner);
        self.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_lifecycle() {
        let h = RequestHandle::new(7);
        assert_eq!(h.snapshot(), (Status::Queued, vec![]));
        assert!(h.ttft_ms().is_none());
        h.mark_running();
        h.push_tokens(&[1, 2]);
        assert!(h.ttft_ms().is_some());
        h.push_tokens(&[3]);
        assert_eq!(h.snapshot(), (Status::Running, vec![1, 2, 3]));
        h.finish(Status::Done, None);
        assert_eq!(h.wait_done(), Status::Done);
    }

    #[test]
    fn cancel_flag_roundtrip() {
        let h = RequestHandle::new(1);
        assert!(!h.is_cancel_requested());
        h.cancel();
        assert!(h.is_cancel_requested());
    }
}
