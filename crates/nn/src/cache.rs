//! Block-paged KV cache (PagedAttention-style).
//!
//! PR 5's serving engine gave every slot two full-`max_seq` [`KvCache`]s —
//! right for a fixed slot pool, wrong at scale: a request that decodes 30
//! tokens holds the memory of 1024. This module replaces the contiguous
//! per-layer slab with a **paged** design:
//!
//! * [`KvPool`] — one pre-allocated arena of fixed-size *blocks*. A block
//!   holds `block_size` consecutive positions for **every** layer (layout
//!   `[layer][K|V][pos][dim]`), so one block table serves the whole cache
//!   and admission control can reason in free blocks instead of slots.
//! * [`KvCache`] — a view over a block table leased from a pool:
//!   `append`/`truncate`/`reset` keep their exact pre-paging contracts. Dropping a cache returns its blocks to the pool.
//! * Copy-on-write sharing: [`KvPool::try_lease_with_prefix`] maps another
//!   cache's fully-filled prefix blocks into a new lease by `Arc`-cloning
//!   them — zero copy. A writer that would mutate a shared block first
//!   copies it out of the pool (the vision prefix cache rides on this).
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
//! at lease time, appends write in place (`Arc::get_mut` — no lock), and
//! `capacity()` is fixed per lease so workspace scratch requests stay
//! constant-size.

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
    /// Returned block buffers, ready to re-lease. Locked only at lease /
    /// drop / copy-on-write time — never on the append or read hot path.
    free: Mutex<Vec<Vec<f32>>>,
}

impl PoolInner {
    fn block_f32s(&self) -> usize {
        self.n_layers * 2 * self.block_size * self.dim
    }

    /// Pop a free buffer, zeroed, for `reset` or a copy-on-write. A lease
    /// on a shared prefix never drew the shared blocks, so detaching one
    /// needs a block nobody reserved: panics when the arena has none left
    /// rather than growing it past `total_blocks`.
    fn acquire(&self) -> Vec<f32> {
        let popped = self.free.lock().unwrap().pop();
        let mut buf = popped.unwrap_or_else(|| {
            panic!(
                "KV pool exhausted: all {} blocks leased, none left to detach a shared block",
                self.total_blocks
            )
        });
        buf.fill(0.0);
        buf
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
        let blocks = {
            let mut free = self.inner.free.lock().unwrap();
            if free.len() < n {
                return None;
            }
            (0..n)
                .map(|_| {
                    let mut buf = free.pop().unwrap();
                    buf.fill(0.0);
                    Arc::new(buf)
                })
                .collect()
        };
        Some(KvCache {
            pool: Arc::clone(&self.inner),
            blocks,
            lens: vec![0; self.inner.n_layers],
            capacity,
        })
    }

    /// Lease a cache of `capacity` positions whose first `prefix.len()`
    /// positions are `prefix`'s contents: fully-filled prefix blocks are
    /// shared copy-on-write (`Arc`-cloned, zero copy); a partially-filled
    /// tail block is copied eagerly so the new lease can append without
    /// ever mutating the prefix. Only the non-shared blocks are drawn from
    /// the pool. `None` if the pool lacks the blocks.
    pub fn try_lease_with_prefix(&self, prefix: &KvCache, capacity: usize) -> Option<KvCache> {
        assert!(
            Arc::ptr_eq(&self.inner, &prefix.pool),
            "prefix must be leased from the same pool"
        );
        let plen = prefix.len();
        assert!(
            prefix.lens.iter().all(|&l| l == plen),
            "prefix layers must be in lockstep"
        );
        assert!(plen <= capacity, "prefix longer than the requested lease");
        let bs = self.inner.block_size;
        let dim = self.inner.dim;
        let n = self.blocks_for(capacity);
        let n_shared = plen / bs;
        let mut blocks: Vec<Arc<Vec<f32>>> = {
            let mut free = self.inner.free.lock().unwrap();
            if free.len() < n - n_shared {
                return None;
            }
            let mut blocks: Vec<Arc<Vec<f32>>> =
                prefix.blocks[..n_shared].iter().map(Arc::clone).collect();
            blocks.extend((n_shared..n).map(|_| {
                let mut buf = free.pop().unwrap();
                buf.fill(0.0);
                Arc::new(buf)
            }));
            blocks
        };
        // Copy the partial tail rows (per layer, K and V independently) so
        // positions `n_shared*bs..plen` land in the fresh block.
        let rem = plen % bs;
        if rem > 0 {
            let src = Arc::clone(&prefix.blocks[n_shared]);
            let dst = Arc::get_mut(&mut blocks[n_shared]).expect("fresh block is unique");
            for l in 0..self.inner.n_layers {
                let k0 = l * 2 * bs * dim;
                let v0 = k0 + bs * dim;
                dst[k0..k0 + rem * dim].copy_from_slice(&src[k0..k0 + rem * dim]);
                dst[v0..v0 + rem * dim].copy_from_slice(&src[v0..v0 + rem * dim]);
            }
        }
        Some(KvCache {
            pool: Arc::clone(&self.inner),
            blocks,
            lens: vec![plen; self.inner.n_layers],
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
    blocks: Vec<Arc<Vec<f32>>>,
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

    /// Empty the cache and rezero its storage so a reused lease is
    /// bit-identical to a fresh one. Shared (copy-on-write) blocks are
    /// released back to their other owner and replaced with zeroed blocks
    /// drawn from the pool.
    pub fn reset(&mut self) {
        for block in &mut self.blocks {
            match Arc::get_mut(block) {
                Some(buf) => buf.fill(0.0),
                None => *block = Arc::new(self.pool.acquire()),
            }
        }
        self.lens.fill(0);
    }

    /// Make block `b` uniquely owned, copying it out of a share if needed.
    fn ensure_unique(&mut self, b: usize) {
        if Arc::get_mut(&mut self.blocks[b]).is_some() {
            return;
        }
        let mut buf = self.pool.acquire();
        buf.copy_from_slice(&self.blocks[b]);
        self.blocks[b] = Arc::new(buf);
    }

    /// Whether block `b` is currently shared with another lease (tests /
    /// diagnostics).
    pub fn block_is_shared(&self, b: usize) -> bool {
        Arc::strong_count(&self.blocks[b]) > 1
    }

    /// Raw storage of block `b` (tests / diagnostics: bit-identity checks).
    pub fn block_raw(&self, b: usize) -> &[f32] {
        &self.blocks[b]
    }
}

impl Drop for KvCache {
    fn drop(&mut self) {
        let mut free = self.pool.free.lock().unwrap();
        for block in self.blocks.drain(..) {
            // A block still shared with another lease flows back when its
            // last owner drops.
            if let Ok(buf) = Arc::try_unwrap(block) {
                free.push(buf);
            }
        }
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
    /// place through `Arc::get_mut` (no lock, no allocation); a block
    /// shared copy-on-write is first copied out of the pool.
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
        let b = pos / bs;
        self.cache.ensure_unique(b);
        let buf = Arc::get_mut(&mut self.cache.blocks[b]).expect("block just made unique");
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
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
        cache.reset();
        fill_rows(&mut cache, 8, 3.0);
        assert_eq!(
            cache.block_raw(0).as_ptr(),
            p0,
            "unique block storage must be stable across append/truncate/reset"
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

    #[test]
    fn reset_is_bit_identical_to_fresh() {
        let mut cache = KvCache::new(2, 6, 3);
        fill_rows(&mut cache, 6, 7.0);
        cache.reset();
        let fresh = KvCache::new(2, 6, 3);
        assert_eq!(cache.len(), 0);
        for b in 0..cache.n_blocks() {
            let a: Vec<u32> = cache.block_raw(b).iter().map(|v| v.to_bits()).collect();
            let f: Vec<u32> = fresh.block_raw(b).iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, f, "reset storage must be bit-identical to fresh");
        }
    }

    /// The paged extension of reset-equivalence: a pool block that served a
    /// previous lease and flowed back must come out bit-identical to a
    /// never-used one.
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
    fn cache_reset_covers_all_layers() {
        let mut cache = KvCache::new(3, 4, 2);
        fill_rows(&mut cache, 2, 1.0);
        cache.reset();
        for l in 0..3 {
            assert_eq!(cache.layer(l).len(), 0);
        }
        fill_rows(&mut cache, 1, 9.0);
        assert_eq!(cache.layer(2).key(0), &[9.0, 9.0]);
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

    #[test]
    fn prefix_lease_shares_full_blocks_and_copies_the_tail() {
        let pool = KvPool::new(2, 3, 4, 8);
        let mut prefix = pool.try_lease(8).unwrap();
        fill_rows(&mut prefix, 6, 100.0); // block 0 full, block 1 half
        let free_before = pool.free_blocks();
        let session = pool.try_lease_with_prefix(&prefix, 14).unwrap();
        // 14 positions = 4 blocks; 1 shared with the prefix, 3 from the pool.
        assert_eq!(free_before - pool.free_blocks(), 3);
        assert!(session.block_is_shared(0), "full prefix block is shared");
        assert!(!session.block_is_shared(1), "partial tail must be copied");
        assert_eq!(session.len(), 6);
        for l in 0..2 {
            for p in 0..6 {
                assert_eq!(session.layer(l).key(p), prefix.layer(l).key(p));
                assert_eq!(session.layer(l).value(p), prefix.layer(l).value(p));
            }
        }
    }

    /// Copy-on-write: a session that rolls back into a shared block and
    /// overwrites it must not disturb the prefix it was leased from.
    #[test]
    fn writing_into_a_shared_block_copies_instead_of_corrupting() {
        let pool = KvPool::new(1, 2, 4, 8);
        let mut prefix = pool.try_lease(4).unwrap();
        fill_rows(&mut prefix, 4, 0.0);
        let golden: Vec<u32> = prefix.block_raw(0).iter().map(|v| v.to_bits()).collect();
        let mut session = pool.try_lease_with_prefix(&prefix, 8).unwrap();
        session.truncate(2);
        fill_rows(&mut session, 2, 777.0);
        assert!(!session.block_is_shared(0), "write must have copied");
        assert_eq!(session.layer(0).key(2), &[779.0, 779.0]);
        let after: Vec<u32> = prefix.block_raw(0).iter().map(|v| v.to_bits()).collect();
        assert_eq!(golden, after, "prefix corrupted by a CoW writer");
        assert_eq!(prefix.layer(0).key(2), &[2.0, 2.0]);
        assert_arena_conserved(&pool, prefix, session);
    }

    /// `reset` on a lease holding shared blocks detaches them (they stay
    /// valid for the other owner) and leaves this lease bit-fresh.
    #[test]
    fn reset_detaches_shared_blocks() {
        let pool = KvPool::new(1, 2, 4, 8);
        let mut prefix = pool.try_lease(4).unwrap();
        fill_rows(&mut prefix, 4, 5.0);
        let mut session = pool.try_lease_with_prefix(&prefix, 8).unwrap();
        session.reset();
        assert!(!session.block_is_shared(0));
        assert!(session.block_raw(0).iter().all(|&v| v == 0.0));
        assert_eq!(prefix.layer(0).key(0), &[5.0, 5.0], "prefix untouched");
        assert_arena_conserved(&pool, prefix, session);
    }

    /// The copy a detach makes came out of the arena: free + leased is
    /// `total_blocks` before the leases drop and free alone is after.
    fn assert_arena_conserved(pool: &KvPool, prefix: KvCache, session: KvCache) {
        let leased = prefix.n_blocks() + session.n_blocks();
        assert_eq!(pool.free_blocks() + leased, pool.total_blocks());
        drop((prefix, session));
        assert_eq!(pool.free_blocks(), pool.total_blocks());
    }

    fn write_below_prefix(cache: &mut KvCache) {
        cache.truncate(0);
        fill_rows(cache, 1, 9.0);
    }

    /// With every block leased, detaching a shared block (a write below
    /// the prefix, or `reset`) has nothing to draw from: it panics, naming
    /// the exhausted pool, instead of allocating past the arena, and once
    /// the leases drop the free list holds exactly `total_blocks` again.
    #[test]
    fn detaching_on_an_exhausted_pool_panics_and_grows_nothing() {
        for detach in [write_below_prefix as fn(&mut KvCache), KvCache::reset] {
            let pool = KvPool::new(1, 2, 4, 2);
            let mut prefix = pool.try_lease(4).unwrap();
            fill_rows(&mut prefix, 4, 5.0);
            let mut session = pool.try_lease_with_prefix(&prefix, 8).unwrap();
            assert_eq!(pool.free_blocks(), 0);
            let err = catch_unwind(AssertUnwindSafe(|| detach(&mut session)))
                .expect_err("detaching must not allocate past the arena");
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(
                msg.starts_with("KV pool exhausted: all 2 blocks leased"),
                "{msg}"
            );
            drop((prefix, session));
            assert_eq!(pool.free_blocks(), pool.total_blocks());
        }
    }
}
