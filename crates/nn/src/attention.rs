//! Multi-head causal self-attention with two deliberately distinct paths:
//!
//! * [`Attention::forward_infer`] — the inference hot path. Projects the new
//!   token block, appends its K/V to the pre-allocated cache, then attends
//!   each query over the cached prefix with per-head dot products. One call
//!   handles prefill (`t = prompt`), decode (`t = 1`), and batched
//!   speculative verify (`t = γ`) uniformly — batching the γ verify tokens
//!   into a single call is what makes verification one weight pass instead
//!   of γ.
//! * [`Attention::forward_full`] — the full-sequence reference: materializes
//!   per-head `Q·Kᵀ` score matrices with the blocked matmul, applies an
//!   explicit causal mask, and never touches a cache. Kept as the semantic
//!   oracle the incremental path is property-tested against.

use crate::cache::KvLayerMut;
use crate::layers::Linear;
use crate::rope::Rope;
use aasd_tensor::simd::{attn_mix_with, attn_scores_with, softmax_row_with};
use aasd_tensor::{axpy, dot, softmax_row, Op, Rng, Tensor, Workspace};

/// The rows of one fused forward read as a **flattened token tree**
/// appended after the cached prefix (ancestors precede descendants in flat
/// order). RoPE uses `pos0 + depths[i]` — the position the row would occupy
/// if its root path were fed linearly — so sibling branches share positions
/// and a committed path needs no re-encode.
pub struct TreeRows<'a> {
    /// Depth of row `i` below the prefix.
    pub depths: &'a [usize],
    /// Ancestor bitmask of row `i` over the tree rows: bit `j` set ⇔ row
    /// `j` is on row `i`'s root path, self included.
    pub vis: &'a [u64],
    /// Cache positions `0..vis_boundary` are the vision prefix whose
    /// attention mass is measured; 0 skips the measurement.
    pub vis_boundary: usize,
    /// Per row, accumulates each layer's mean-over-heads attention mass on
    /// the vision prefix — the modality signal the acceptance calibrator
    /// consumes.
    pub vis_mass: &'a mut [f32],
}

/// Call `f(first_row, len)` for every maximal run of positions a query may
/// attend to within the cache chunk covering positions
/// `start..start + filled`. `mask: None` is the chain: the whole chunk, no
/// per-position test. With a tree row's ancestor mask, a position is
/// visible iff it is prefix (`< pos0`) or one of the row's ancestors.
#[inline]
fn visible_runs(
    mask: Option<u64>,
    pos0: usize,
    start: usize,
    filled: usize,
    mut f: impl FnMut(usize, usize),
) {
    let Some(mask) = mask else {
        return f(0, filled);
    };
    let visible = |p: usize| p < pos0 || (mask >> (p - pos0)) & 1 == 1;
    let mut r = 0usize;
    while r < filled {
        if !visible(start + r) {
            r += 1;
            continue;
        }
        let mut e = r + 1;
        while e < filled && visible(start + e) {
            e += 1;
        }
        f(r, e - r);
        r = e;
    }
}

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

    fn scale(&self) -> f32 {
        1.0 / (self.head_dim as f32).sqrt()
    }

    /// Incremental path. `x: [t, dim]` is the block of new token states whose
    /// absolute positions start at `cache.len()`; K/V for the block are
    /// appended to `cache` and each query attends causally over everything
    /// cached so far (prefix + earlier rows of this block).
    pub fn forward_infer(&self, x: &Tensor, rope: &Rope, mut cache: KvLayerMut<'_>) -> Tensor {
        let t = x.rows;
        let dim = x.cols;
        let pos0 = cache.len();
        let mut q = self.wq.forward(x);
        let mut k = self.wk.forward(x);
        let v = self.wv.forward(x);
        for i in 0..t {
            for h in 0..self.n_heads {
                let span = h * self.head_dim..(h + 1) * self.head_dim;
                rope.apply(&mut q.row_mut(i)[span.clone()], pos0 + i);
                rope.apply(&mut k.row_mut(i)[span], pos0 + i);
            }
        }
        for i in 0..t {
            cache.append(k.row(i), v.row(i));
        }

        let scale = self.scale();
        let mut ctx = Tensor::zeros(t, dim);
        // Scratch score buffer sized to the longest context this call sees.
        let mut scores = vec![0.0f32; pos0 + t];
        for i in 0..t {
            let ctx_len = pos0 + i + 1; // causal: positions 0..=pos0+i
            for h in 0..self.n_heads {
                let span = h * self.head_dim..(h + 1) * self.head_dim;
                let q_head = &q.row(i)[span.clone()];
                let scores = &mut scores[..ctx_len];
                for (j, s) in scores.iter_mut().enumerate() {
                    *s = dot(q_head, &cache.key(j)[span.clone()]) * scale;
                }
                softmax_row(scores);
                let out_head = &mut ctx.row_mut(i)[span.clone()];
                for (j, &w) in scores.iter().enumerate() {
                    axpy(out_head, w, &cache.value(j)[span.clone()]);
                }
            }
        }
        self.wo.forward(&ctx)
    }

    /// Fused workspace path: same semantics as [`Attention::forward_infer`],
    /// but every temporary comes from the [`Workspace`] pool and the output
    /// projection accumulates straight into the caller's residual stream
    /// (`resid += attn(norm_x)·Wo`), so steady-state decode touches the
    /// allocator zero times. `norm_x` is the already-normed block `[t, dim]`.
    ///
    /// With `tree: None` the `t` rows are a chain at positions `pos0 + i`,
    /// each attending causally over everything cached so far. With
    /// `Some(rows)` they are a **flattened token tree** (see [`TreeRows`]):
    /// row `i` is rotated to `pos0 + depths[i]` and attends over the prefix
    /// plus its own ancestors only.
    ///
    /// Both cases are ONE kernel sweep over contiguous runs of *visible*
    /// cache positions, with the scores packed densely before the softmax.
    /// `attn_scores_with` computes an independent dot per position and
    /// `attn_mix_with` accumulates element-wise in strict position order on
    /// every dispatch tier, so splitting the sweep — at cache-block
    /// boundaries or around masked positions — is bit-identical to one call
    /// over the compacted sequence: paging costs nothing numerically, each
    /// root-to-leaf path scores exactly as a linear feed of that path, and
    /// a full-visibility chain makes the same kernel calls as `None`.
    ///
    /// The score scratch is sized to the cache **capacity**, not the current
    /// context, so the workspace sees an identical request size every step.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_infer_ws(
        &self,
        norm_x: &[f32],
        t: usize,
        rope: &Rope,
        mut cache: KvLayerMut<'_>,
        ws: &mut Workspace,
        resid: &mut [f32],
        mut tree: Option<&mut TreeRows<'_>>,
    ) {
        let dim = self.n_heads * self.head_dim;
        debug_assert_eq!(norm_x.len(), t * dim);
        debug_assert_eq!(resid.len(), t * dim);
        let pos0 = cache.len();
        if let Some(rows) = &tree {
            debug_assert_eq!(rows.depths.len(), t);
            debug_assert_eq!(rows.vis.len(), t);
            debug_assert!(t <= 64, "tree wider than the visibility mask");
            debug_assert!(rows.vis_boundary <= pos0, "vision prefix must be cached");
        }
        // Resolve the SIMD backend once per call instead of per score row.
        let bk = aasd_tensor::backend();

        let span = ws.prof.begin();
        let mut q = ws.take(t * dim);
        let mut k = ws.take(t * dim);
        let mut v = ws.take(t * dim);
        self.wq.forward_rows_into_ws(norm_x, t, ws, &mut q);
        self.wk.forward_rows_into_ws(norm_x, t, ws, &mut k);
        self.wv.forward_rows_into_ws(norm_x, t, ws, &mut v);
        for i in 0..t {
            let pos = pos0 + tree.as_ref().map_or(i, |rows| rows.depths[i]);
            for h in 0..self.n_heads {
                let hs = h * self.head_dim..(h + 1) * self.head_dim;
                rope.apply(&mut q[i * dim..][hs.clone()], pos);
                rope.apply(&mut k[i * dim..][hs], pos);
            }
        }
        for i in 0..t {
            cache.append(&k[i * dim..(i + 1) * dim], &v[i * dim..(i + 1) * dim]);
        }
        ws.prof.end(span, Op::Qkv);

        let scale = self.scale();
        let mut ctx = ws.take(t * dim);
        let mut scores = ws.take(cache.capacity());
        for i in 0..t {
            let ctx_len = pos0 + i + 1; // later rows are never visible
            let mask = tree.as_ref().map(|rows| rows.vis[i]);
            debug_assert!(
                mask.is_none_or(|m| m & (1 << i) != 0),
                "row must see itself"
            );
            for h in 0..self.n_heads {
                let hs = h * self.head_dim..(h + 1) * self.head_dim;
                let q_head = &q[i * dim..][hs.clone()];
                let span = ws.prof.begin();
                let mut n_vis = 0usize;
                for (start, keys, _values) in cache.chunks(ctx_len) {
                    visible_runs(mask, pos0, start, keys.len() / dim, |r, len| {
                        attn_scores_with(
                            bk,
                            &mut scores[n_vis..n_vis + len],
                            q_head,
                            &keys[r * dim + hs.start..],
                            dim,
                            scale,
                        );
                        n_vis += len;
                    });
                }
                softmax_row_with(bk, &mut scores[..n_vis]);
                ws.prof.end(span, Op::AttnScore);
                if let Some(rows) = tree.as_deref_mut().filter(|rows| rows.vis_boundary > 0) {
                    // Prefix positions are always visible and pack first.
                    rows.vis_mass[i] +=
                        scores[..rows.vis_boundary].iter().sum::<f32>() / self.n_heads as f32;
                }
                let span = ws.prof.begin();
                let out_head = &mut ctx[i * dim..][hs.clone()];
                let mut w_at = 0usize;
                for (start, _keys, values) in cache.chunks(ctx_len) {
                    visible_runs(mask, pos0, start, values.len() / dim, |r, len| {
                        attn_mix_with(
                            bk,
                            out_head,
                            &scores[w_at..w_at + len],
                            &values[r * dim + hs.start..],
                            dim,
                        );
                        w_at += len;
                    });
                }
                ws.prof.end(span, Op::AttnMix);
            }
        }

        let span = ws.prof.begin();
        self.wo.forward_rows_acc_ws(&ctx, t, ws, resid);
        ws.prof.end(span, Op::OProj);

        ws.give(q);
        ws.give(k);
        ws.give(v);
        ws.give(ctx);
        ws.give(scores);
    }

    /// Full-sequence reference path: `x: [t, dim]` is the whole sequence at
    /// positions `0..t`. Stateless; builds explicit masked score matrices.
    pub fn forward_full(&self, x: &Tensor, rope: &Rope) -> Tensor {
        let t = x.rows;
        let dim = x.cols;
        let mut q = self.wq.forward(x);
        let mut k = self.wk.forward(x);
        let v = self.wv.forward(x);
        for i in 0..t {
            for h in 0..self.n_heads {
                let span = h * self.head_dim..(h + 1) * self.head_dim;
                rope.apply(&mut q.row_mut(i)[span.clone()], i);
                rope.apply(&mut k.row_mut(i)[span], i);
            }
        }
        let scale = self.scale();
        let mut ctx = Tensor::zeros(t, dim);
        for h in 0..self.n_heads {
            let span = |r: usize| r * dim + h * self.head_dim;
            // Gather this head's Q/K/V as compact [t, head_dim] matrices.
            let mut qh = Tensor::zeros(t, self.head_dim);
            let mut kh = Tensor::zeros(t, self.head_dim);
            let mut vh = Tensor::zeros(t, self.head_dim);
            for i in 0..t {
                qh.row_mut(i)
                    .copy_from_slice(&q.data[span(i)..span(i) + self.head_dim]);
                kh.row_mut(i)
                    .copy_from_slice(&k.data[span(i)..span(i) + self.head_dim]);
                vh.row_mut(i)
                    .copy_from_slice(&v.data[span(i)..span(i) + self.head_dim]);
            }
            let mut s = qh.matmul_transposed(&kh); // [t, t]
            for i in 0..t {
                let row = s.row_mut(i);
                for (j, sv) in row.iter_mut().enumerate() {
                    if j > i {
                        *sv = f32::NEG_INFINITY; // causal mask
                    } else {
                        *sv *= scale;
                    }
                }
            }
            s.softmax_rows_inplace();
            let oh = s.matmul(&vh); // [t, head_dim]
            for i in 0..t {
                ctx.data[span(i)..span(i) + self.head_dim].copy_from_slice(oh.row(i));
            }
        }
        self.wo.forward(&ctx)
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

    /// The incremental cached path must reproduce the stateless full path,
    /// regardless of how the sequence is chopped into blocks.
    #[test]
    fn incremental_matches_full_for_any_block_split() {
        let mut rng = Rng::new(42);
        let (dim, heads, t) = (32, 4, 13);
        let attn = Attention::new(&mut rng, dim, heads);
        let rope = Rope::new(64, dim / heads, 10_000.0);
        let x = Tensor::randn(&mut rng, t, dim, 1.0);

        let full = attn.forward_full(&x, &rope);

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
                    None,
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
        attn.forward_infer_ws(
            x.row(0),
            1,
            &rope,
            cache.layer_mut(0),
            &mut ws,
            &mut resid,
            None,
        );
        let after_warmup = ws.fresh_allocs();
        for i in 1..t {
            attn.forward_infer_ws(
                x.row(i),
                1,
                &rope,
                cache.layer_mut(0),
                &mut ws,
                &mut resid,
                None,
            );
        }
        assert_eq!(ws.fresh_allocs(), after_warmup, "steady state allocated");
    }

    /// Causality: the output at position i must not change when the suffix
    /// after i changes.
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
        let y1 = attn.forward_full(&x1, &rope);
        let y2 = attn.forward_full(&x2, &rope);
        for i in 0..t - 1 {
            assert!(max_abs_diff(y1.row(i), y2.row(i)) < 1e-6, "row {i} leaked");
        }
        assert!(max_abs_diff(y1.row(t - 1), y2.row(t - 1)) > 1e-3);
    }

    /// A full-visibility chain through the tree path must make the exact
    /// kernel calls of the linear path: bit-identical outputs, K/V, and no
    /// fresh allocations once warmed.
    #[test]
    fn tree_chain_is_bit_identical_to_linear() {
        let mut rng = Rng::new(11);
        let (dim, heads, t) = (32, 4, 6);
        let attn = Attention::new(&mut rng, dim, heads);
        let rope = Rope::new(64, dim / heads, 10_000.0);
        let prefix = Tensor::randn(&mut rng, 9, dim, 1.0);
        let x = Tensor::randn(&mut rng, t, dim, 1.0);

        let mut ws = Workspace::new();
        let pool = KvPool::new(1, dim, 4, 32);
        let mut lin = pool.try_lease(64).unwrap();
        let mut tree = pool.try_lease(64).unwrap();
        for c in [&mut lin, &mut tree] {
            let mut r = vec![0.0f32; 9 * dim];
            attn.forward_infer_ws(
                &prefix.data,
                9,
                &rope,
                c.layer_mut(0),
                &mut ws,
                &mut r,
                None,
            );
        }
        let mut a = vec![0.0f32; t * dim];
        let mut b = vec![0.0f32; t * dim];
        attn.forward_infer_ws(&x.data, t, &rope, lin.layer_mut(0), &mut ws, &mut a, None);
        let depths: Vec<usize> = (0..t).collect();
        let vis: Vec<u64> = (0..t).map(|i| (1u64 << (i + 1)) - 1).collect();
        let mut mass = vec![0.0f32; t];
        let mut rows = TreeRows {
            depths: &depths,
            vis: &vis,
            vis_boundary: 4,
            vis_mass: &mut mass,
        };
        let tree_lm = tree.layer_mut(0);
        attn.forward_infer_ws(&x.data, t, &rope, tree_lm, &mut ws, &mut b, Some(&mut rows));
        let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb, "chain tree attention must equal linear bitwise");
        for p in 0..lin.len() {
            assert_eq!(
                lin.layer(0).key(p),
                tree.layer(0).key(p),
                "K row {p} diverged"
            );
        }
        assert!(
            mass.iter().all(|&m| m > 0.0 && m < 1.0),
            "visual mass must be a proper fraction: {mass:?}"
        );
    }

    /// Paging must cost nothing numerically: the same sequence decoded into
    /// a single-block cache and into a 4-position-block paged lease must
    /// produce **bit-identical** outputs, because the chunked kernel sweeps
    /// are exact splits of the contiguous ones.
    #[test]
    fn paged_cache_attention_is_bit_identical_to_contiguous() {
        let mut rng = Rng::new(7);
        let (dim, heads, t) = (32, 4, 13);
        let attn = Attention::new(&mut rng, dim, heads);
        let rope = Rope::new(64, dim / heads, 10_000.0);
        let x = Tensor::randn(&mut rng, t, dim, 1.0);

        let mut ws = Workspace::new();
        let mut contiguous = KvCache::new(1, 64, dim);
        let pool = KvPool::new(1, dim, 4, 16);
        let mut paged = pool.try_lease(64).unwrap();
        assert!(paged.n_blocks() > 1, "lease must actually span blocks");
        for i in 0..t {
            let mut a = vec![0.0f32; dim];
            let mut b = vec![0.0f32; dim];
            attn.forward_infer_ws(
                x.row(i),
                1,
                &rope,
                contiguous.layer_mut(0),
                &mut ws,
                &mut a,
                None,
            );
            attn.forward_infer_ws(
                x.row(i),
                1,
                &rope,
                paged.layer_mut(0),
                &mut ws,
                &mut b,
                None,
            );
            let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb, "paged attention diverged at step {i}");
        }
    }
}
