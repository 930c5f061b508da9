//! Multi-head self-attention: three entries over two implementations.
//!
//! * One **cached sweep** — RoPE + append, then per query head one
//!   `attn_scores_with` / `softmax_row_with` / `attn_mix_with` pass per cache
//!   chunk — under both incremental entries: [`Attention::forward_infer_ws`],
//!   the inference hot path (workspace scratch, packed projections, `·Wo`
//!   folded into the residual; one call, one weight pass, serves prefill,
//!   decode and the γ + 1-row verify), and [`Attention::forward_infer`], the
//!   allocating twin the multimodal distillation teacher runs.
//! * One **full-sequence mix** — [`aasd_autograd::attention`], the same
//!   function every training graph's attention op computes — under
//!   `Attention::forward_bidirectional`, unmasked (`All`) and un-roped,
//!   the vision tower's attention. The causal oracle the sweep is tested
//!   against is that mix too, reached through the training tape
//!   (`Decoder::forward_full`); the two share no kernel.

use crate::cache::KvLayerMut;
use crate::layers::Linear;
use crate::rope::Rope;
use aasd_autograd::{attention, Visible};
use aasd_tensor::simd::{attn_mix_with, attn_scores_with, softmax_row_with};
use aasd_tensor::{Op, Profiler, Rng, Tensor, Workspace};

#[derive(Debug, Clone)]
pub struct Attention {
    pub wq: Linear,
    pub wk: Linear,
    pub wv: Linear,
    pub wo: Linear,
    pub n_heads: usize,
    pub head_dim: usize,
}

impl Attention {
    pub fn new(rng: &mut Rng, dim: usize, n_heads: usize) -> Self {
        assert!(dim.is_multiple_of(n_heads), "dim must divide into heads");
        Self {
            wq: Linear::new(rng, dim, dim),
            wk: Linear::new(rng, dim, dim),
            wv: Linear::new(rng, dim, dim),
            wo: Linear::new(rng, dim, dim),
            n_heads,
            head_dim: dim / n_heads,
        }
    }

    /// RoPE the new block's `q`/`k` rows at positions `cache.len()..` and
    /// append its K/V to the cache.
    fn rope_append(
        &self,
        q: &mut [f32],
        k: &mut [f32],
        v: &[f32],
        rope: &Rope,
        cache: &mut KvLayerMut<'_>,
    ) {
        let dim = self.n_heads * self.head_dim;
        let rows = q.chunks_exact_mut(dim).zip(k.chunks_exact_mut(dim));
        for ((qr, kr), vr) in rows.zip(v.chunks_exact(dim)) {
            let pos = cache.len();
            for (qh, kh) in qr
                .chunks_exact_mut(self.head_dim)
                .zip(kr.chunks_exact_mut(self.head_dim))
            {
                rope.apply(qh, pos);
                rope.apply(kh, pos);
            }
            cache.append(kr, vr);
        }
    }

    /// The cached sweep. The block's `t` query rows (already appended, so
    /// row `i` sits at position `cache.len() - t + i`) attend causally over
    /// the cache; `ctx` (zeroed, `[t, dim]`, which sets `t`) receives each
    /// head's mix.
    ///
    /// Each query head is ONE kernel sweep, one call per cache chunk.
    /// `attn_scores_with` computes an independent dot per position and
    /// `attn_mix_with` accumulates element-wise in strict position order on
    /// every dispatch tier, so splitting the sweep at cache-block boundaries
    /// is bit-identical to one call over the contiguous sequence: paging
    /// costs nothing numerically. `scores` holds at least `cache.len()`.
    fn sweep(
        &self,
        q: &[f32],
        cache: &KvLayerMut<'_>,
        scores: &mut [f32],
        ctx: &mut [f32],
        prof: &mut Profiler,
    ) {
        let dim = self.n_heads * self.head_dim;
        let t = ctx.len() / dim;
        let pos0 = cache.len() - t;
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        // Resolve the SIMD backend once per call instead of per score row.
        let bk = aasd_tensor::backend();
        for i in 0..t {
            let ctx_len = pos0 + i + 1; // causal: positions 0..=pos0+i
            for h in 0..self.n_heads {
                let hs = h * self.head_dim..(h + 1) * self.head_dim;
                let q_head = &q[i * dim..][hs.clone()];
                let span = prof.begin();
                for (start, keys, _values) in cache.chunks(ctx_len) {
                    let len = keys.len() / dim;
                    attn_scores_with(
                        bk,
                        &mut scores[start..start + len],
                        q_head,
                        &keys[hs.start..],
                        dim,
                        scale,
                    );
                }
                softmax_row_with(bk, &mut scores[..ctx_len]);
                prof.end(span, Op::AttnScore);
                let span = prof.begin();
                let out_head = &mut ctx[i * dim..][hs.clone()];
                for (start, _keys, values) in cache.chunks(ctx_len) {
                    let len = values.len() / dim;
                    attn_mix_with(
                        bk,
                        out_head,
                        &scores[start..start + len],
                        &values[hs.start..],
                        dim,
                    );
                }
                prof.end(span, Op::AttnMix);
            }
        }
    }

    /// Allocating incremental path. `x: [t, dim]` is the block of new token
    /// states whose absolute positions start at `cache.len()`; K/V for the
    /// block are appended to `cache` and each query attends causally over
    /// everything cached so far (prefix + earlier rows of this block) —
    /// [`Attention::forward_infer_ws`]'s sweep, without its residual add.
    pub fn forward_infer(&self, x: &Tensor, rope: &Rope, mut cache: KvLayerMut<'_>) -> Tensor {
        let mut q = self.wq.forward(x);
        let mut k = self.wk.forward(x);
        let v = self.wv.forward(x);
        self.rope_append(&mut q.data, &mut k.data, &v.data, rope, &mut cache);
        let mut ctx = Tensor::zeros(x.rows, x.cols);
        let (mut scores, mut prof) = (vec![0.0f32; cache.len()], Profiler::new());
        self.sweep(&q.data, &cache, &mut scores, &mut ctx.data, &mut prof);
        self.wo.forward(&ctx)
    }

    /// Fused workspace path: the semantics of [`Attention::forward_infer`],
    /// but every temporary comes from the [`Workspace`] pool and the output
    /// projection accumulates straight into the caller's residual stream
    /// (`resid += attn(norm_x)·Wo`), so steady-state decode touches the
    /// allocator zero times. `norm_x` is the already-normed block `[t, dim]`,
    /// positioned as in [`Attention::forward_infer`].
    ///
    /// The score scratch is sized to the cache **capacity**, not the current
    /// context, so the workspace sees an identical request size every step.
    pub fn forward_infer_ws(
        &self,
        norm_x: &[f32],
        t: usize,
        rope: &Rope,
        mut cache: KvLayerMut<'_>,
        ws: &mut Workspace,
        resid: &mut [f32],
    ) {
        let dim = self.n_heads * self.head_dim;
        debug_assert_eq!(norm_x.len(), t * dim);
        debug_assert_eq!(resid.len(), t * dim);

        let span = ws.prof.begin();
        let mut q = ws.take(t * dim);
        let mut k = ws.take(t * dim);
        let mut v = ws.take(t * dim);
        self.wq.forward_rows_into_ws(norm_x, t, ws, &mut q);
        self.wk.forward_rows_into_ws(norm_x, t, ws, &mut k);
        self.wv.forward_rows_into_ws(norm_x, t, ws, &mut v);
        self.rope_append(&mut q, &mut k, &v, rope, &mut cache);
        ws.prof.end(span, Op::Qkv);

        let mut ctx = ws.take(t * dim);
        let mut scores = ws.take(cache.capacity());
        self.sweep(&q, &cache, &mut scores, &mut ctx, &mut ws.prof);

        let span = ws.prof.begin();
        self.wo.forward_rows_acc_ws(&ctx, t, ws, resid);
        ws.prof.end(span, Op::OProj);

        ws.give(q);
        ws.give(k);
        ws.give(v);
        ws.give(ctx);
        ws.give(scores);
    }

    /// Bidirectional full-sequence attention: every row of `x: [t, dim]`
    /// sees every row, with no mask and no RoPE (the vision tower's shape).
    pub(crate) fn forward_bidirectional(&self, x: &Tensor) -> Tensor {
        let (q, k, v) = (self.wq.forward(x), self.wk.forward(x), self.wv.forward(x));
        self.wo
            .forward(&attention(&q, &[(&k, &v, Visible::All)], self.n_heads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{KvCache, KvPool};

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    /// The full-sequence causal reference: project, rope row `i` at
    /// position `i`, mix with `aasd_autograd::attention` under `UpTo(0)`
    /// (what the training tape's attention computes), project out.
    fn full_causal(attn: &Attention, x: &Tensor, rope: &Rope) -> Tensor {
        let (mut q, mut k) = (attn.wq.forward(x), attn.wk.forward(x));
        let v = attn.wv.forward(x);
        for (i, (qr, kr)) in q
            .data
            .chunks_exact_mut(x.cols)
            .zip(k.data.chunks_exact_mut(x.cols))
            .enumerate()
        {
            for (qh, kh) in qr
                .chunks_exact_mut(attn.head_dim)
                .zip(kr.chunks_exact_mut(attn.head_dim))
            {
                rope.apply(qh, i);
                rope.apply(kh, i);
            }
        }
        let mix = attention(&q, &[(&k, &v, Visible::UpTo(0))], attn.n_heads);
        attn.wo.forward(&mix)
    }

    /// The incremental cached path must reproduce the full-sequence causal
    /// mix, regardless of how the sequence is chopped into blocks.
    #[test]
    fn incremental_matches_full_for_any_block_split() {
        let mut rng = Rng::new(42);
        let (dim, heads, t) = (32, 4, 13);
        let attn = Attention::new(&mut rng, dim, heads);
        let rope = Rope::new(64, dim / heads, 10_000.0);
        let x = Tensor::randn(&mut rng, t, dim, 1.0);

        let full = full_causal(&attn, &x, &rope);

        for splits in [vec![t], vec![1; t], vec![5, 1, 4, 3]] {
            assert_eq!(splits.iter().sum::<usize>(), t);
            let mut cache = KvCache::new(1, 64, dim);
            let mut got = Vec::new();
            let mut at = 0;
            for blk in splits {
                let xs = Tensor::from_vec(x.data[at * dim..(at + blk) * dim].to_vec(), blk, dim);
                let y = attn.forward_infer(&xs, &rope, cache.layer_mut(0));
                got.extend_from_slice(&y.data);
                at += blk;
            }
            assert!(
                max_abs_diff(&got, &full.data) < 1e-4,
                "cached path diverged from full recompute"
            );
        }
    }

    /// The fused workspace path must agree with the allocating incremental
    /// path (plus the explicit residual add it folds in) for every block
    /// split, and must stop allocating once warmed up.
    #[test]
    fn workspace_path_matches_forward_infer() {
        let mut rng = Rng::new(42);
        let (dim, heads, t) = (32, 4, 13);
        let attn = Attention::new(&mut rng, dim, heads);
        let rope = Rope::new(64, dim / heads, 10_000.0);
        let x = Tensor::randn(&mut rng, t, dim, 1.0);
        let resid0 = Tensor::randn(&mut rng, t, dim, 1.0);

        let mut ws = Workspace::new();
        for splits in [vec![t], vec![1; t], vec![5, 1, 4, 3]] {
            let mut cache_a = KvCache::new(1, 64, dim);
            let mut cache_b = KvCache::new(1, 64, dim);
            let mut at = 0;
            for blk in splits {
                let xs = Tensor::from_vec(x.data[at * dim..(at + blk) * dim].to_vec(), blk, dim);
                let y = attn.forward_infer(&xs, &rope, cache_a.layer_mut(0));
                let mut want = resid0.data[at * dim..(at + blk) * dim].to_vec();
                for (w, p) in want.iter_mut().zip(&y.data) {
                    *w += p;
                }

                let mut got = resid0.data[at * dim..(at + blk) * dim].to_vec();
                attn.forward_infer_ws(
                    &xs.data,
                    blk,
                    &rope,
                    cache_b.layer_mut(0),
                    &mut ws,
                    &mut got,
                );
                assert!(
                    max_abs_diff(&got, &want) < 1e-4,
                    "fused attention diverged at block offset {at}"
                );
                at += blk;
            }
        }

        // Steady state: decoding one token at a time must not grow the pool.
        let mut cache = KvCache::new(1, 64, dim);
        let mut resid = vec![0.0f32; dim];
        attn.forward_infer_ws(x.row(0), 1, &rope, cache.layer_mut(0), &mut ws, &mut resid);
        let after_warmup = ws.fresh_allocs();
        for i in 1..t {
            attn.forward_infer_ws(x.row(i), 1, &rope, cache.layer_mut(0), &mut ws, &mut resid);
        }
        assert_eq!(ws.fresh_allocs(), after_warmup, "steady state allocated");
    }

    /// Causality: the output at position i must not change when the suffix
    /// after i changes — on the cached path, fed as one block of `t` rows.
    #[test]
    fn causal_outputs_ignore_future() {
        let mut rng = Rng::new(9);
        let (dim, heads, t) = (16, 2, 8);
        let attn = Attention::new(&mut rng, dim, heads);
        let rope = Rope::new(32, dim / heads, 10_000.0);
        let x1 = Tensor::randn(&mut rng, t, dim, 1.0);
        let mut x2 = x1.clone();
        for v in x2.row_mut(t - 1) {
            *v += 5.0; // perturb only the last position
        }
        let cached =
            |x: &Tensor| attn.forward_infer(x, &rope, KvCache::new(1, 32, dim).layer_mut(0));
        let (y1, y2) = (cached(&x1), cached(&x2));
        for i in 0..t - 1 {
            assert!(max_abs_diff(y1.row(i), y2.row(i)) < 1e-6, "row {i} leaked");
        }
        assert!(max_abs_diff(y1.row(t - 1), y2.row(t - 1)) > 1e-3);
    }

    /// Paging must cost nothing numerically: the same sequence decoded into
    /// a single-block cache and into a 4-position-block paged lease must
    /// produce **bit-identical** outputs and K/V rows, because the chunked
    /// kernel sweeps are exact splits of the contiguous ones — fed one row
    /// at a time, and in multi-row blocks that straddle page boundaries
    /// (the shape of every verify).
    #[test]
    fn paged_cache_attention_is_bit_identical_to_contiguous() {
        let mut rng = Rng::new(7);
        let (dim, heads, t) = (32, 4, 13);
        let attn = Attention::new(&mut rng, dim, heads);
        let rope = Rope::new(64, dim / heads, 10_000.0);
        let x = Tensor::randn(&mut rng, t, dim, 1.0);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();

        let mut ws = Workspace::new();
        let pool = KvPool::new(1, dim, 4, 16);
        for splits in [vec![1; t], vec![5, 1, 4, 3], vec![t]] {
            let mut contiguous = KvCache::new(1, 64, dim);
            let mut paged = pool.try_lease(64).unwrap();
            assert!(paged.n_blocks() > 1, "lease must actually span blocks");
            let mut at = 0;
            for blk in splits {
                let xs = &x.data[at * dim..(at + blk) * dim];
                let mut a = vec![0.0f32; blk * dim];
                let mut b = vec![0.0f32; blk * dim];
                let c = contiguous.layer_mut(0);
                attn.forward_infer_ws(xs, blk, &rope, c, &mut ws, &mut a);
                attn.forward_infer_ws(xs, blk, &rope, paged.layer_mut(0), &mut ws, &mut b);
                assert_eq!(bits(&a), bits(&b), "paged attention diverged at row {at}");
                at += blk;
            }
            let (c, p) = (contiguous.layer(0), paged.layer(0));
            for pos in 0..t {
                assert_eq!(bits(c.key(pos)), bits(p.key(pos)), "K row {pos}");
                assert_eq!(bits(c.value(pos)), bits(p.value(pos)), "V row {pos}");
            }
        }
    }
}
