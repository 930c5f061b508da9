//! Block-paged KV cache (PagedAttention-style).
//!
//! A contiguous per-layer slab sized to `max_seq` makes a request that
//! decodes 30 tokens hold the memory of the whole window. This module
//! replaces it with a **paged** design, so a cache holds only the blocks
//! its lease asked for:
//!
//! * [`KvPool`] — one pre-allocated arena of fixed-size *blocks*. A block
//!   holds `block_size` consecutive positions for **every** layer (layout
//!   `[layer][K|V][pos][dim]`), so one block table serves the whole cache.
//!   The serving engine sizes its pools for every slot's longest lease, so
//!   its leases never wait for blocks; what paging gives it is a lease per
//!   request of exactly the positions that request can reach.
//! * [`KvCache`] — a view over a block table leased from a pool:
//!   `append`/`truncate` keep their exact pre-paging contracts. Dropping a
//!   cache returns its blocks to the pool.
//!
//! A block has one owner: the lease it was drawn into or the pool's free
//! list, never both and never two leases. A cache that wants another
//! cache's rows copies them, so free blocks plus every lease's
//! [`KvCache::n_blocks`] is always [`KvPool::total_blocks`].
//!
//! Numerics are unchanged: the attention kernels sweep the cache in
//! per-block chunks, and both `attn_scores_with` (independent dot per
//! position) and `attn_mix_with` (strict in-order elementwise accumulation)
//! are bit-identical under any split of the position range, on every
//! dispatch tier. A standalone [`KvCache::new`] leases a single block sized
//! to the whole sequence from a private pool, so the non-serving paths keep
//! one contiguous slab per layer and pay nothing for paging.
//!
//! Zero steady-state allocation survives: all blocks are acquired up front
//! at lease time, appends write in place (no lock), and `capacity()` is
//! fixed per lease so workspace scratch requests stay constant-size.

use std::sync::{Arc, Mutex};

/// Shared state of a block arena. Held via `Arc` by the pool handle and by
/// every cache leased from it, so blocks can flow back even after the
/// [`KvPool`] handle is gone.
#[derive(Debug)]
struct PoolInner {
    n_layers: usize,
    dim: usize,
    block_size: usize,
    total_blocks: usize,
    /// Returned block buffers, ready to re-lease. Locked only at lease and
    /// drop time — never on the append or read hot path.
    free: Mutex<Vec<Vec<f32>>>,
}

impl PoolInner {
    fn block_f32s(&self) -> usize {
        self.n_layers * 2 * self.block_size * self.dim
    }
}

/// Handle to a pre-allocated arena of KV blocks; see the module docs.
#[derive(Debug, Clone)]
pub struct KvPool {
    inner: Arc<PoolInner>,
}

impl KvPool {
    /// Pre-allocate `n_blocks` blocks of `block_size` positions each, for
    /// caches of `n_layers` layers with `dim`-wide K/V rows.
    pub fn new(n_layers: usize, dim: usize, block_size: usize, n_blocks: usize) -> Self {
        assert!(n_layers > 0 && dim > 0 && block_size > 0, "degenerate pool");
        let inner = PoolInner {
            n_layers,
            dim,
            block_size,
            total_blocks: n_blocks,
            free: Mutex::new(Vec::new()),
        };
        let bufs = (0..n_blocks)
            .map(|_| vec![0.0; inner.block_f32s()])
            .collect();
        *inner.free.lock().unwrap() = bufs;
        Self {
            inner: Arc::new(inner),
        }
    }

    pub fn n_layers(&self) -> usize {
        self.inner.n_layers
    }

    pub fn dim(&self) -> usize {
        self.inner.dim
    }

    pub fn block_size(&self) -> usize {
        self.inner.block_size
    }

    pub fn total_blocks(&self) -> usize {
        self.inner.total_blocks
    }

    /// Blocks currently available to lease.
    pub fn free_blocks(&self) -> usize {
        self.inner.free.lock().unwrap().len()
    }

    /// Blocks a lease of `positions` positions occupies.
    pub fn blocks_for(&self, positions: usize) -> usize {
        positions.div_ceil(self.inner.block_size).max(1)
    }

    /// Total arena size in f32 elements (for equal-memory comparisons).
    pub fn arena_f32s(&self) -> usize {
        self.inner.total_blocks * self.inner.block_f32s()
    }

    /// Lease a cache of exactly `capacity` positions, acquiring (and
    /// zeroing) every block up front so the lease never touches the pool
    /// again until it is dropped. `None` if the pool lacks the blocks —
    /// the admission-control signal.
    pub fn try_lease(&self, capacity: usize) -> Option<KvCache> {
        let n = self.blocks_for(capacity);
        let mut blocks = {
            let mut free = self.inner.free.lock().unwrap();
            let rest = free.len().checked_sub(n)?;
            free.split_off(rest)
        };
        for buf in &mut blocks {
            buf.fill(0.0);
        }
        Some(KvCache {
            pool: Arc::clone(&self.inner),
            blocks,
            lens: vec![0; self.inner.n_layers],
            capacity,
        })
    }
}

/// A paged KV cache: a table of arena blocks plus per-layer lengths.
///
/// Layers append independently during one forward pass (the decoder visits
/// them in order) and are back in lockstep between passes; cache-level
/// `len`/`truncate` speak for the whole stack, exactly as the
/// pre-paging contiguous cache did.
#[derive(Debug)]
pub struct KvCache {
    pool: Arc<PoolInner>,
    blocks: Vec<Vec<f32>>,
    lens: Vec<usize>,
    capacity: usize,
}

impl KvCache {
    /// Standalone cache: a private single-block pool sized to the whole
    /// sequence, leased in full. Keeps every non-serving call site (tests,
    /// benches, one-shot loops) allocation- and paging-free.
    pub fn new(n_layers: usize, max_seq: usize, dim: usize) -> Self {
        KvPool::new(n_layers, dim, max_seq, 1)
            .try_lease(max_seq)
            .expect("private pool has exactly one block")
    }

    pub fn n_layers(&self) -> usize {
        self.pool.n_layers
    }

    pub fn dim(&self) -> usize {
        self.pool.dim
    }

    pub fn block_size(&self) -> usize {
        self.pool.block_size
    }

    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Cached positions (first layer's view; layers agree between passes).
    pub fn len(&self) -> usize {
        self.lens.first().copied().unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fixed logical capacity of this lease. Constant for the cache's whole
    /// lifetime, so the fused decode path's score scratch (sized to this,
    /// not the current length) requests an identical workspace buffer every
    /// step — a precondition for the zero-allocation steady state.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Read-only view of one layer.
    pub fn layer(&self, l: usize) -> KvLayer<'_> {
        assert!(l < self.pool.n_layers, "layer {l} out of range");
        KvLayer { cache: self, l }
    }

    /// Mutable view of one layer (append + reads).
    pub fn layer_mut(&mut self, l: usize) -> KvLayerMut<'_> {
        assert!(l < self.pool.n_layers, "layer {l} out of range");
        KvLayerMut { cache: self, l }
    }

    /// Roll every layer back to `new_len` positions. O(1): rows beyond stay
    /// in place until overwritten by later appends.
    pub fn truncate(&mut self, new_len: usize) {
        for len in &mut self.lens {
            assert!(new_len <= *len, "truncate cannot grow the cache");
            *len = new_len;
        }
    }

    /// Raw storage of block `b` (tests / diagnostics: bit-identity checks).
    pub fn block_raw(&self, b: usize) -> &[f32] {
        &self.blocks[b]
    }
}

impl Drop for KvCache {
    fn drop(&mut self) {
        self.pool.free.lock().unwrap().append(&mut self.blocks);
    }
}

macro_rules! layer_read_api {
    () => {
        /// Cached positions in this layer.
        #[inline]
        pub fn len(&self) -> usize {
            self.cache.lens[self.l]
        }

        #[inline]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// See [`KvCache::capacity`].
        #[inline]
        pub fn capacity(&self) -> usize {
            self.cache.capacity
        }

        /// Key row at absolute position `pos`.
        #[inline]
        pub fn key(&self, pos: usize) -> &[f32] {
            let (dim, bs) = (self.cache.pool.dim, self.cache.pool.block_size);
            debug_assert!(pos < self.len(), "key position {pos} out of range");
            let off = self.l * 2 * bs * dim + (pos % bs) * dim;
            &self.cache.blocks[pos / bs][off..off + dim]
        }

        /// Value row at absolute position `pos`.
        #[inline]
        pub fn value(&self, pos: usize) -> &[f32] {
            let (dim, bs) = (self.cache.pool.dim, self.cache.pool.block_size);
            debug_assert!(pos < self.len(), "value position {pos} out of range");
            let off = self.l * 2 * bs * dim + bs * dim + (pos % bs) * dim;
            &self.cache.blocks[pos / bs][off..off + dim]
        }

        /// Iterate the first `ctx_len` positions as per-block contiguous
        /// `(start_pos, keys, values)` chunks — the shape the batched
        /// attention kernels consume. Each chunk covers
        /// `keys.len() / dim` positions starting at `start_pos`.
        pub fn chunks(&self, ctx_len: usize) -> KvChunks<'_> {
            debug_assert!(ctx_len <= self.len(), "chunk range beyond cached rows");
            KvChunks {
                cache: self.cache,
                l: self.l,
                ctx_len,
                b: 0,
            }
        }
    };
}

/// Read-only per-layer view of a [`KvCache`].
pub struct KvLayer<'a> {
    cache: &'a KvCache,
    l: usize,
}

impl KvLayer<'_> {
    layer_read_api!();
}

/// Mutable per-layer view of a [`KvCache`]: the append surface the
/// attention layers write through.
pub struct KvLayerMut<'a> {
    cache: &'a mut KvCache,
    l: usize,
}

impl KvLayerMut<'_> {
    layer_read_api!();

    /// Append one `(key, value)` row pair at the next position. Writes in
    /// place (no lock, no allocation).
    pub fn append(&mut self, k_row: &[f32], v_row: &[f32]) {
        let (dim, bs) = (self.cache.pool.dim, self.cache.pool.block_size);
        assert_eq!(k_row.len(), dim, "key row width mismatch");
        assert_eq!(v_row.len(), dim, "value row width mismatch");
        let pos = self.cache.lens[self.l];
        assert!(
            pos < self.cache.capacity,
            "KV cache overflow: capacity = {}",
            self.cache.capacity
        );
        let buf = &mut self.cache.blocks[pos / bs];
        let k_off = self.l * 2 * bs * dim + (pos % bs) * dim;
        let v_off = k_off + bs * dim;
        buf[k_off..k_off + dim].copy_from_slice(k_row);
        buf[v_off..v_off + dim].copy_from_slice(v_row);
        self.cache.lens[self.l] = pos + 1;
    }
}

/// Iterator over per-block contiguous K/V chunks of one layer.
pub struct KvChunks<'a> {
    cache: &'a KvCache,
    l: usize,
    ctx_len: usize,
    b: usize,
}

impl<'a> Iterator for KvChunks<'a> {
    /// `(start_pos, keys, values)`; both slices are `filled * dim` long.
    type Item = (usize, &'a [f32], &'a [f32]);

    fn next(&mut self) -> Option<Self::Item> {
        let (dim, bs) = (self.cache.pool.dim, self.cache.pool.block_size);
        let start = self.b * bs;
        if start >= self.ctx_len {
            return None;
        }
        let filled = (self.ctx_len - start).min(bs);
        let buf: &'a [f32] = &self.cache.blocks[self.b];
        let k0 = self.l * 2 * bs * dim;
        let v0 = k0 + bs * dim;
        self.b += 1;
        Some((
            start,
            &buf[k0..k0 + filled * dim],
            &buf[v0..v0 + filled * dim],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_rows(cache: &mut KvCache, n: usize, tag: f32) {
        let dim = cache.dim();
        let layers = cache.n_layers();
        for l in 0..layers {
            let mut layer = cache.layer_mut(l);
            let from = layer.len();
            for p in from..from + n {
                let k = vec![tag + p as f32; dim];
                let v = vec![-(tag + p as f32); dim];
                layer.append(&k, &v);
            }
        }
    }

    #[test]
    fn append_then_read_back() {
        let mut cache = KvCache::new(2, 8, 3);
        fill_rows(&mut cache, 5, 10.0);
        assert_eq!(cache.len(), 5);
        for l in 0..2 {
            let layer = cache.layer(l);
            for p in 0..5 {
                assert_eq!(layer.key(p), &[10.0 + p as f32; 3][..]);
                assert_eq!(layer.value(p), &[-(10.0 + p as f32); 3][..]);
            }
        }
    }

    #[test]
    fn chunks_cover_exactly_the_context() {
        let pool = KvPool::new(1, 2, 4, 4); // block_size 4: genuinely paged
        let mut cache = pool.try_lease(10).unwrap();
        fill_rows(&mut cache, 10, 0.0);
        for ctx in [0, 1, 4, 5, 9, 10] {
            let layer = cache.layer(0);
            let mut seen = 0;
            for (start, keys, values) in layer.chunks(ctx) {
                assert_eq!(start, seen);
                assert_eq!(keys.len(), values.len());
                let filled = keys.len() / 2;
                for r in 0..filled {
                    assert_eq!(keys[r * 2], (start + r) as f32, "ctx {ctx}");
                }
                seen += filled;
            }
            assert_eq!(seen, ctx, "chunks must cover ctx exactly");
        }
    }

    #[test]
    fn blocks_never_reallocate() {
        let mut cache = KvCache::new(1, 16, 2);
        let p0 = cache.block_raw(0).as_ptr();
        fill_rows(&mut cache, 16, 1.0);
        cache.truncate(3);
        fill_rows(&mut cache, 4, 2.0);
        cache.truncate(0);
        fill_rows(&mut cache, 8, 3.0);
        assert_eq!(
            cache.block_raw(0).as_ptr(),
            p0,
            "block storage must be stable across append/truncate"
        );
    }

    #[test]
    fn truncate_rolls_back_then_overwrites() {
        let mut cache = KvCache::new(1, 8, 2);
        fill_rows(&mut cache, 4, 0.0);
        cache.truncate(2);
        assert_eq!(cache.len(), 2);
        fill_rows(&mut cache, 1, 100.0);
        assert_eq!(cache.layer(0).key(2), &[102.0, 102.0]);
        assert_eq!(cache.layer(0).value(2), &[-102.0, -102.0]);
    }

    #[test]
    #[should_panic(expected = "KV cache overflow")]
    fn overflow_panics() {
        let mut cache = KvCache::new(1, 2, 2);
        fill_rows(&mut cache, 3, 0.0);
    }

    #[test]
    #[should_panic(expected = "truncate cannot grow")]
    fn truncate_cannot_grow() {
        let mut cache = KvCache::new(1, 4, 2);
        fill_rows(&mut cache, 1, 0.0);
        cache.truncate(2);
    }

    /// A pool block that served a previous lease and flowed back must come
    /// out bit-identical to a never-used one.
    #[test]
    fn reused_pool_lease_is_bit_identical_to_fresh() {
        let pool = KvPool::new(2, 3, 4, 3);
        let mut first = pool.try_lease(12).unwrap();
        fill_rows(&mut first, 11, 42.0);
        drop(first); // blocks flow back dirty
        assert_eq!(pool.free_blocks(), 3);
        let reused = pool.try_lease(12).unwrap();
        let fresh_pool = KvPool::new(2, 3, 4, 3);
        let fresh = fresh_pool.try_lease(12).unwrap();
        assert_eq!(reused.len(), fresh.len());
        for b in 0..reused.n_blocks() {
            let a: Vec<u32> = reused.block_raw(b).iter().map(|v| v.to_bits()).collect();
            let f: Vec<u32> = fresh.block_raw(b).iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, f, "reused block {b} differs from a fresh pool's");
        }
    }

    #[test]
    fn multi_layer_lockstep() {
        let mut cache = KvCache::new(2, 8, 2);
        // Layers advance independently within a "forward pass"...
        cache.layer_mut(0).append(&[1.0, 1.0], &[2.0, 2.0]);
        assert_eq!(cache.layer(0).len(), 1);
        assert_eq!(cache.layer(1).len(), 0);
        cache.layer_mut(1).append(&[3.0, 3.0], &[4.0, 4.0]);
        // ...and agree again between passes.
        assert_eq!(cache.len(), 1);
        cache.truncate(0);
        assert_eq!(cache.layer(0).len(), 0);
        assert_eq!(cache.layer(1).len(), 0);
    }

    #[test]
    fn pool_admission_and_return() {
        let pool = KvPool::new(1, 2, 4, 4);
        assert_eq!(pool.free_blocks(), 4);
        let a = pool.try_lease(8).unwrap(); // 2 blocks
        let b = pool.try_lease(5).unwrap(); // 2 blocks
        assert_eq!(pool.free_blocks(), 0);
        assert!(pool.try_lease(1).is_none(), "pool exhausted");
        drop(a);
        assert_eq!(pool.free_blocks(), 2);
        let c = pool.try_lease(8).unwrap();
        drop(b);
        drop(c);
        assert_eq!(pool.free_blocks(), 4);
    }

    /// The PR 7 memory claim, pinned as arithmetic the pool actually
    /// executes: at the arena size PR 5 spent on 4 fixed full-`max_seq`
    /// slots, the paged pool concurrently serves ≥ 4× as many
    /// typical-sized sessions.
    #[test]
    fn paged_pool_serves_4x_the_fixed_slot_count_at_equal_arena() {
        let (n_layers, dim, max_seq, pr5_slots) = (2, 32, 128, 4);
        let block_size = 16;
        let pool = KvPool::new(n_layers, dim, block_size, pr5_slots * max_seq / block_size);
        // Equal memory: the arena holds exactly what PR 5's 4 slots held.
        assert_eq!(pool.arena_f32s(), pr5_slots * n_layers * 2 * max_seq * dim);
        // A typical request: short prompt + bounded budget ⇒ 32 positions.
        let mut sessions = Vec::new();
        while let Some(cache) = pool.try_lease(32) {
            sessions.push(cache);
        }
        assert!(
            sessions.len() >= 4 * pr5_slots,
            "only {} concurrent sessions at PR 5's arena size",
            sessions.len()
        );
        // Every one is writable end to end.
        for (i, cache) in sessions.iter_mut().enumerate() {
            fill_rows(cache, 32, i as f32);
        }
        drop(sessions);
        assert_eq!(pool.free_blocks(), pool.total_blocks());
    }
}
