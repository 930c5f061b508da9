//! Reusable scratch arena for the zero-allocation decode path.
//!
//! Every incremental forward pass needs the same family of temporaries
//! (normed activations, Q/K/V rows, attention scores, MLP hidden buffers,
//! logits). Allocating them per step pays the allocator on every token; the
//! [`Workspace`] instead keeps a pool of previously-used buffers and hands
//! them out by **best fit**: `take(len)` returns the smallest pooled buffer
//! whose capacity covers `len`, and only allocates when nothing fits. A
//! steady-state decode loop requests the same sizes every step, so after
//! the first (warm-up) step every request is served from the pool and the
//! step performs **zero heap allocations** — proven by the counting-
//! allocator test at the repo root (`tests/zero_alloc.rs`).
//!
//! Ownership doubles as the borrow check: `take` moves the buffer out of
//! the pool, so two live scratch buffers can never alias; `give` moves it
//! back when the caller is done. A buffer that is never given back is not
//! unsafe — the pool simply re-grows once on the next request.
//!
//! The workspace also carries the decode [`Profiler`] so the fused forward
//! passes need only one context parameter threaded through every layer.

use crate::profile::Profiler;

/// Grow-once scratch-buffer pool + decode profiler.
#[derive(Debug, Default)]
pub struct Workspace {
    free: Pool<f32>,
    /// Separate i8 pool for the quantized path's activation-code scratch —
    /// same best-fit discipline, so int8 decode stays zero-allocation too.
    free_i8: Pool<i8>,
    fresh_allocs: usize,
    /// Per-op decode profiler (disabled by default; see [`Profiler`]).
    pub prof: Profiler,
}

/// The best-fit free list of one element type.
#[derive(Debug, Default)]
struct Pool<T>(Vec<Vec<T>>);

impl<T: Copy + Default> Pool<T> {
    /// A zeroed buffer of exactly `len` elements: the smallest pooled one
    /// whose capacity covers `len`, else a fresh one (counted in `fresh`).
    fn take(&mut self, len: usize, fresh: &mut usize) -> Vec<T> {
        let free = &mut self.0;
        let mut best: Option<usize> = None;
        for (i, buf) in free.iter().enumerate() {
            if buf.capacity() >= len && best.is_none_or(|j| buf.capacity() < free[j].capacity()) {
                best = Some(i);
            }
        }
        let mut buf = match best {
            Some(i) => free.swap_remove(i),
            None => {
                *fresh += 1;
                Vec::with_capacity(len)
            }
        };
        buf.clear();
        buf.resize(len, T::default());
        buf
    }

    fn give(&mut self, buf: Vec<T>) {
        // Keep the pool's own spine from reallocating in the steady state:
        // grow it in chunks, ahead of demand.
        if self.0.len() == self.0.capacity() {
            self.0.reserve(16);
        }
        self.0.push(buf);
    }
}

impl Workspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow a zeroed buffer of exactly `len` elements. Best-fit from the
    /// pool; allocates (and counts it in [`Workspace::fresh_allocs`]) only
    /// when no pooled buffer has the capacity.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        self.free.take(len, &mut self.fresh_allocs)
    }

    /// Return a buffer to the pool for reuse.
    pub fn give(&mut self, buf: Vec<f32>) {
        self.free.give(buf);
    }

    /// Borrow a zeroed i8 buffer of exactly `len` elements (best-fit, same
    /// contract as [`Workspace::take`]); used by the int8 path for per-call
    /// activation quantization scratch.
    pub fn take_i8(&mut self, len: usize) -> Vec<i8> {
        self.free_i8.take(len, &mut self.fresh_allocs)
    }

    /// Return an i8 buffer to the pool for reuse.
    pub fn give_i8(&mut self, buf: Vec<i8>) {
        self.free_i8.give(buf);
    }

    /// Number of buffers currently pooled (diagnostics; both element types).
    pub fn pooled(&self) -> usize {
        self.free.0.len() + self.free_i8.0.len()
    }

    /// Fresh heap allocations performed so far. In a steady-state loop this
    /// stops increasing after the warm-up pass — the property the
    /// zero-allocation test pins down at the allocator level.
    pub fn fresh_allocs(&self) -> usize {
        self.fresh_allocs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroes_and_sizes() {
        let mut ws = Workspace::new();
        let mut a = ws.take(8);
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|&v| v == 0.0));
        a.fill(3.0);
        ws.give(a);
        let b = ws.take(8);
        assert!(b.iter().all(|&v| v == 0.0), "reused buffer must be zeroed");
    }

    #[test]
    fn steady_state_requests_stop_allocating() {
        let mut ws = Workspace::new();
        // Warm-up: the working set is {16, 64, 256}.
        for _ in 0..2 {
            let a = ws.take(256);
            let b = ws.take(16);
            let c = ws.take(64);
            ws.give(b);
            ws.give(a);
            ws.give(c);
        }
        let after_warmup = ws.fresh_allocs();
        for _ in 0..50 {
            let a = ws.take(64);
            let b = ws.take(256);
            let c = ws.take(16);
            ws.give(a);
            ws.give(c);
            ws.give(b);
        }
        assert_eq!(
            ws.fresh_allocs(),
            after_warmup,
            "steady-state take/give must be allocation-free"
        );
    }

    #[test]
    fn best_fit_prefers_smallest_adequate_buffer() {
        let mut ws = Workspace::new();
        let big = ws.take(1024);
        let small = ws.take(32);
        ws.give(big);
        ws.give(small);
        let got = ws.take(16);
        assert!(
            got.capacity() < 1024,
            "best fit must not burn the big buffer on a small request"
        );
        ws.give(got);
        let got = ws.take(512);
        assert!(got.capacity() >= 1024, "only the big buffer fits 512");
    }

    #[test]
    fn unfit_request_allocates_fresh() {
        let mut ws = Workspace::new();
        let a = ws.take(8);
        ws.give(a);
        assert_eq!(ws.fresh_allocs(), 1);
        let b = ws.take(1000);
        assert_eq!(b.len(), 1000);
        assert_eq!(ws.fresh_allocs(), 2);
    }
}
