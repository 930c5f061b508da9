//! The pre-norm transformer block and the decoder-only transformer.
//!
//! One block serves both towers: the decoder stacks [`DecoderBlock`]
//! causally with RoPE, the vision tower (`aasd-mm`) bidirectionally
//! without. The block's allocating entries (incremental, bidirectional)
//! share one residual body. The decoder's two allocating forwards
//! (`forward_infer`, `forward_infer_embeds`) share one body, as its two
//! fused forwards share `infer_tail_ws`; all four run the cached sweep of
//! [`crate::attention`]. The stateless full-sequence oracle,
//! `forward_full`, is the value of the training tape (`forward_train`):
//! the decoder has two forward paths plus the tape.

use crate::attention::Attention;
use crate::cache::{KvCache, KvLayerMut};
use crate::layers::{Embedding, Linear, RmsNorm};
use crate::quant::KernelPolicy;
use crate::rope::Rope;
use aasd_autograd::{Tape, VarId, Visible};
use aasd_tensor::{add_assign, argmax, silu, silu_mul, Op, Rng, Tensor, Workspace};

/// Hyperparameters for a decoder-only transformer.
#[derive(Debug, Clone)]
pub struct DecoderConfig {
    pub vocab: usize,
    pub dim: usize,
    pub n_heads: usize,
    pub n_layers: usize,
    pub ff_hidden: usize,
    pub max_seq: usize,
    pub rope_theta: f32,
}

impl DecoderConfig {
    /// Smallest config that still exercises every code path; used by tests.
    pub fn tiny(vocab: usize) -> Self {
        Self {
            vocab,
            dim: 32,
            n_heads: 4,
            n_layers: 2,
            ff_hidden: 64,
            max_seq: 128,
            rope_theta: 10_000.0,
        }
    }

    pub fn head_dim(&self) -> usize {
        self.dim / self.n_heads
    }
}

/// SwiGLU feed-forward: `(silu(x·W1) ⊙ x·W3)·W2`.
#[derive(Debug, Clone)]
pub struct Mlp {
    pub w1: Linear,
    pub w2: Linear,
    pub w3: Linear,
}

impl Mlp {
    pub fn new(rng: &mut Rng, dim: usize, hidden: usize) -> Self {
        Self {
            w1: Linear::new(rng, dim, hidden),
            w2: Linear::new(rng, hidden, dim),
            w3: Linear::new(rng, dim, hidden),
        }
    }

    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut gate = self.w1.forward(x);
        let up = self.w3.forward(x);
        for (g, u) in gate.data.iter_mut().zip(up.data.iter()) {
            *g = silu(*g) * *u;
        }
        self.w2.forward(&gate)
    }

    /// Fused workspace path: gate and up live in pooled scratch, the
    /// `silu(gate) ⊙ up` product is written in place, and the down
    /// projection accumulates straight into the residual stream
    /// (`resid += mlp(norm_x)`). No intermediate tensors, no allocation.
    pub fn forward_ws(&self, norm_x: &[f32], t: usize, ws: &mut Workspace, resid: &mut [f32]) {
        let hidden = self.w1.w().cols;
        let span = ws.prof.begin();
        let mut gate = ws.take(t * hidden);
        let mut up = ws.take(t * hidden);
        self.w1.forward_rows_into_ws(norm_x, t, ws, &mut gate);
        self.w3.forward_rows_into_ws(norm_x, t, ws, &mut up);
        silu_mul(&mut gate, &up);
        self.w2.forward_rows_acc_ws(&gate, t, ws, resid);
        ws.prof.end(span, Op::Mlp);
        ws.give(gate);
        ws.give(up);
    }
}

/// Pre-norm transformer block: `x + attn(norm(x))`, then `x + mlp(norm(x))`.
/// The decoder stacks it causally with RoPE; the vision tower stacks it
/// bidirectionally without ([`DecoderBlock::forward_bidirectional`]).
#[derive(Debug, Clone)]
pub struct DecoderBlock {
    pub attn_norm: RmsNorm,
    pub attn: Attention,
    pub mlp_norm: RmsNorm,
    pub mlp: Mlp,
}

impl DecoderBlock {
    pub fn new(rng: &mut Rng, dim: usize, n_heads: usize, ff_hidden: usize) -> Self {
        Self {
            attn_norm: RmsNorm::new(dim),
            attn: Attention::new(rng, dim, n_heads),
            mlp_norm: RmsNorm::new(dim),
            mlp: Mlp::new(rng, dim, ff_hidden),
        }
    }

    /// The allocating entries' shared body, `attn` being the block's
    /// attention in the entry's shape.
    fn residual(&self, x: &mut Tensor, attn: impl FnOnce(&Tensor) -> Tensor) {
        let a = attn(&self.attn_norm.forward(x));
        add_assign(&mut x.data, &a.data);
        let m = self.mlp.forward(&self.mlp_norm.forward(x));
        add_assign(&mut x.data, &m.data);
    }

    pub fn forward_infer(&self, x: &mut Tensor, rope: &Rope, cache: KvLayerMut<'_>) {
        self.residual(x, |h| self.attn.forward_infer(h, rope, cache));
    }

    /// Every row attends to every row, no mask and no RoPE.
    pub fn forward_bidirectional(&self, x: &mut Tensor) {
        self.residual(x, |h| self.attn.forward_bidirectional(h));
    }

    /// Fused workspace path: one normed-scratch buffer serves both
    /// sub-layers and each sub-layer accumulates into `x` directly, so the
    /// residual stream is never copied.
    pub fn forward_infer_ws(
        &self,
        x: &mut [f32],
        t: usize,
        rope: &Rope,
        cache: KvLayerMut<'_>,
        ws: &mut Workspace,
    ) {
        let dim = self.attn_norm.gain.len();
        let mut h = ws.take(t * dim);

        let span = ws.prof.begin();
        self.attn_norm.forward_into(x, t, &mut h);
        ws.prof.end(span, Op::RmsNorm);
        self.attn.forward_infer_ws(&h, t, rope, cache, ws, x);

        let span = ws.prof.begin();
        self.mlp_norm.forward_into(x, t, &mut h);
        ws.prof.end(span, Op::RmsNorm);
        self.mlp.forward_ws(&h, t, ws, x);

        ws.give(h);
    }
}

/// Decoder-only transformer LM.
#[derive(Debug, Clone)]
pub struct Decoder {
    pub cfg: DecoderConfig,
    pub embed: Embedding,
    pub blocks: Vec<DecoderBlock>,
    pub final_norm: RmsNorm,
    pub lm_head: Linear,
    pub rope: Rope,
    /// Kernel family the fused decode path runs; set via
    /// [`Decoder::set_kernel_policy`].
    kernel_policy: KernelPolicy,
}

impl Decoder {
    /// Deterministic init from a seed; different seeds give independent
    /// models (used to make draft ≠ target in tests and benches).
    pub fn new(cfg: DecoderConfig, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let embed = Embedding::new(&mut rng, cfg.vocab, cfg.dim);
        let blocks = (0..cfg.n_layers)
            .map(|_| DecoderBlock::new(&mut rng.fork(), cfg.dim, cfg.n_heads, cfg.ff_hidden))
            .collect();
        let final_norm = RmsNorm::new(cfg.dim);
        let lm_head = Linear::new(&mut rng, cfg.dim, cfg.vocab);
        let rope = Rope::new(cfg.max_seq, cfg.head_dim(), cfg.rope_theta);
        Self {
            cfg,
            embed,
            blocks,
            final_norm,
            lm_head,
            rope,
            kernel_policy: KernelPolicy::F32,
        }
    }

    /// Fresh cache sized for this model.
    pub fn new_cache(&self) -> KvCache {
        KvCache::new(self.cfg.n_layers, self.cfg.max_seq, self.cfg.dim)
    }

    /// Switch every projection (per-block `wq`/`wk`/`wv`/`wo`/`w1`/`w2`/`w3`
    /// and the LM head) to the given kernel family; embeddings and norms
    /// stay f32 on either policy, as do the allocating `forward_infer` and
    /// the training tapes (so the `forward_full` oracle). Nothing is
    /// quantized here: each projection builds its int8 image on its first
    /// fused forward (or in [`Decoder::prepack`]) and drops it whenever its
    /// weight is handed out for an update, so an `Int8` model trains like an
    /// `F32` one.
    pub fn set_kernel_policy(&mut self, policy: KernelPolicy) {
        for block in &mut self.blocks {
            let (a, m) = (&mut block.attn, &mut block.mlp);
            for lin in [
                &mut a.wq, &mut a.wk, &mut a.wv, &mut a.wo, &mut m.w1, &mut m.w2, &mut m.w3,
            ] {
                lin.set_policy(policy);
            }
        }
        self.lm_head.set_policy(policy);
        self.kernel_policy = policy;
    }

    /// Every projection the fused path multiplies by, LM head last.
    fn projections(&self) -> impl Iterator<Item = &Linear> {
        self.blocks
            .iter()
            .flat_map(|block| {
                let (a, m) = (&block.attn, &block.mlp);
                [&a.wq, &a.wk, &a.wv, &a.wo, &m.w1, &m.w2, &m.w3]
            })
            .chain([&self.lm_head])
    }

    /// Build every projection's fused-path shadow now instead of on its
    /// first fused forward (see [`Linear::prepack`]: f32 panels or the int8
    /// image, whichever the policy reads) — what a serving engine calls
    /// before its first request.
    pub fn prepack(&self) {
        self.projections().for_each(Linear::prepack);
    }

    /// The kernel family the fused decode path currently runs.
    pub fn kernel_policy(&self) -> KernelPolicy {
        self.kernel_policy
    }

    /// Incremental forward: append `tokens` (absolute positions start at
    /// `cache.len()`) and return logits `[t, vocab]` — row `i` is the
    /// next-token distribution after `tokens[..=i]`. One call serves
    /// prefill, single-token decode, and batched γ-token verify.
    pub fn forward_infer(&self, tokens: &[u32], cache: &mut KvCache) -> Tensor {
        assert!(!tokens.is_empty(), "empty token block");
        self.infer_tail(self.embed.forward(tokens), cache)
    }

    /// Fused zero-allocation forward: same semantics as
    /// [`Decoder::forward_infer`], but all scratch comes from `ws` and the
    /// `[t, vocab]` logits are written into the caller's `logits` slice.
    /// After one warm-up call at each block size, steady-state calls perform
    /// **zero heap allocations** (proven by `tests/zero_alloc.rs`).
    pub fn forward_infer_ws(
        &self,
        tokens: &[u32],
        cache: &mut KvCache,
        ws: &mut Workspace,
        logits: &mut [f32],
    ) {
        let t = tokens.len();
        assert!(!tokens.is_empty(), "empty token block");
        let mut x = ws.take(t * self.cfg.dim);
        let span = ws.prof.begin();
        self.embed.forward_into(tokens, &mut x);
        ws.prof.end(span, Op::Embed);
        self.infer_tail_ws(x, t, cache, ws, logits);
    }

    /// Prefill on the fused path: feed `prompt` and return the greedy next
    /// token (the argmax of the last logits row) — the first *pending*
    /// token of a decode session over `cache`.
    pub fn prefill_ws(&self, prompt: &[u32], cache: &mut KvCache, ws: &mut Workspace) -> u32 {
        let vocab = self.cfg.vocab;
        let mut logits = ws.take(prompt.len() * vocab);
        self.forward_infer_ws(prompt, cache, ws, &mut logits);
        let next = argmax(&logits[(prompt.len() - 1) * vocab..]) as u32;
        ws.give(logits);
        next
    }

    /// Fused forward over **pre-computed embedding rows** instead of token
    /// ids: `x` is `[t, dim]` row-major. This is how a vision prefix enters
    /// the decoder — the multimodal path (LlavaSim) projects image patches
    /// into text-embedding space and feeds the rows here, pre-seeding the
    /// cache before any text token arrives. Positions start at
    /// `cache.len()` exactly as in [`Decoder::forward_infer_ws`].
    pub fn forward_infer_embeds_ws(
        &self,
        x: &[f32],
        t: usize,
        cache: &mut KvCache,
        ws: &mut Workspace,
        logits: &mut [f32],
    ) {
        assert!(t > 0, "empty embedding block");
        assert_eq!(x.len(), t * self.cfg.dim);
        let mut buf = ws.take(t * self.cfg.dim);
        buf.copy_from_slice(x);
        self.infer_tail_ws(buf, t, cache, ws, logits);
    }

    /// Shared post-embedding body of the fused forwards: capacity checks →
    /// blocks → final norm → LM head. Takes ownership of the pooled
    /// `[t, dim]` activation buffer and returns it to the pool.
    fn infer_tail_ws(
        &self,
        mut x: Vec<f32>,
        t: usize,
        cache: &mut KvCache,
        ws: &mut Workspace,
        logits: &mut [f32],
    ) {
        assert!(
            cache.len() + t <= self.cfg.max_seq.min(cache.capacity()),
            "sequence exceeds cache capacity = {}",
            self.cfg.max_seq.min(cache.capacity())
        );
        assert_eq!(logits.len(), t * self.cfg.vocab);
        for (l, block) in self.blocks.iter().enumerate() {
            block.forward_infer_ws(&mut x, t, &self.rope, cache.layer_mut(l), ws);
        }

        let mut xn = ws.take(t * self.cfg.dim);
        let span = ws.prof.begin();
        self.final_norm.forward_into(&x, t, &mut xn);
        ws.prof.end(span, Op::RmsNorm);

        let span = ws.prof.begin();
        self.lm_head.forward_rows_into_ws(&xn, t, ws, logits);
        ws.prof.end(span, Op::LmHead);

        ws.give(x);
        ws.give(xn);
    }

    /// Allocating reference for [`Decoder::forward_infer_embeds_ws`]: append
    /// a block of embedding rows (positions start at `cache.len()`) and
    /// return the `[t, vocab]` logits.
    pub fn forward_infer_embeds(&self, x: &Tensor, cache: &mut KvCache) -> Tensor {
        assert!(x.rows > 0, "empty embedding block");
        assert_eq!(x.cols, self.cfg.dim, "embedding width mismatch");
        self.infer_tail(x.clone(), cache)
    }

    /// Shared post-embedding body of the allocating forwards, the twin of
    /// `infer_tail_ws`: capacity check → blocks → final norm → LM head.
    fn infer_tail(&self, mut x: Tensor, cache: &mut KvCache) -> Tensor {
        assert!(
            cache.len() + x.rows <= self.cfg.max_seq.min(cache.capacity()),
            "sequence exceeds cache capacity = {}",
            self.cfg.max_seq.min(cache.capacity())
        );
        for (l, block) in self.blocks.iter().enumerate() {
            block.forward_infer(&mut x, &self.rope, cache.layer_mut(l));
        }
        self.lm_head.forward(&self.final_norm.forward(&x))
    }

    /// The forward oracle: logits for the whole sequence at positions
    /// `0..t`, stateless — the value of [`Decoder::forward_train`] on a
    /// fresh tape, so the function every losslessness test checks the cached
    /// paths against is the one training differentiates.
    pub fn forward_full(&self, tokens: &[u32]) -> Tensor {
        let mut tape = Tape::new();
        let (logits, _) = self.forward_train(&mut tape, tokens, &[]);
        tape.value(logits).clone()
    }

    /// Greedy next token from the last row of a logits block.
    pub fn greedy_from_logits(logits: &Tensor) -> u32 {
        argmax(logits.row(logits.rows - 1)) as u32
    }

    /// Training forward, the one place a decoder graph is built on a tape:
    /// replay [`Decoder::forward_infer`] over `tokens` behind an optional
    /// per-layer K/V prefix, binding every parameter as a leaf.
    ///
    /// `prefix` is empty for a text model, or holds one `(K, V)` node pair
    /// of `[p, dim]` rows per layer — frozen vision rows or projector
    /// products, built on the same tape by the caller. The text rows rope
    /// at positions `p..p+t` and attend over the prefix un-rotated, exactly
    /// as decoding over a cache pre-seeded with those rows does.
    ///
    /// Returns the `[t, vocab]` logits node and the parameter leaf ids **in
    /// the canonical order of [`Decoder::visit_params_mut`]**, so a trainer
    /// can walk gradients and live weights in lockstep. The tape is fresh
    /// per step; attach a loss (`cross_entropy` / `kl_div`) to the logits
    /// node and call `backward`.
    pub fn forward_train(
        &self,
        tape: &mut Tape,
        tokens: &[u32],
        prefix: &[(VarId, VarId)],
    ) -> (VarId, Vec<VarId>) {
        let p = prefix.first().map_or(0, |&(k, _)| tape.value(k).rows);
        assert!(
            prefix.is_empty() || prefix.len() == self.cfg.n_layers,
            "one K/V prefix pair per layer"
        );
        assert!(!tokens.is_empty() && p + tokens.len() <= self.cfg.max_seq);
        let dim = self.cfg.dim;
        let (cos, sin) = self.rope.tables_range(p, tokens.len());

        let embed = tape.leaf(self.embed.table.clone());
        let mut params = vec![embed];
        let mut x = tape.embed_gather(embed, tokens);
        for (l, block) in self.blocks.iter().enumerate() {
            let attn_gain = tape.leaf(Tensor::from_vec(block.attn_norm.gain.clone(), 1, dim));
            let wq = tape.leaf(block.attn.wq.w().clone());
            let wk = tape.leaf(block.attn.wk.w().clone());
            let wv = tape.leaf(block.attn.wv.w().clone());
            let wo = tape.leaf(block.attn.wo.w().clone());
            let mlp_gain = tape.leaf(Tensor::from_vec(block.mlp_norm.gain.clone(), 1, dim));
            let w1 = tape.leaf(block.mlp.w1.w().clone());
            let w2 = tape.leaf(block.mlp.w2.w().clone());
            let w3 = tape.leaf(block.mlp.w3.w().clone());
            params.extend([attn_gain, wq, wk, wv, wo, mlp_gain, w1, w2, w3]);

            let h = tape.rms_norm(x, attn_gain, block.attn_norm.eps);
            let q = tape.matmul(h, wq);
            let k = tape.matmul(h, wk);
            let v = tape.matmul(h, wv);
            let q = tape.rope(q, self.cfg.n_heads, cos.clone(), sin.clone());
            let k = tape.rope(k, self.cfg.n_heads, cos.clone(), sin.clone());
            let (k, v) = match prefix.get(l) {
                Some(&(pk, pv)) => (tape.concat_rows(pk, k), tape.concat_rows(pv, v)),
                None => (k, v),
            };
            let a = tape.attention(q, &[(k, v, Visible::UpTo(p))], self.cfg.n_heads);
            let a = tape.matmul(a, wo);
            x = tape.add(x, a);

            let h = tape.rms_norm(x, mlp_gain, block.mlp_norm.eps);
            let gate = tape.matmul(h, w1);
            let up = tape.matmul(h, w3);
            let gate = tape.silu(gate);
            let gu = tape.mul(gate, up);
            let m = tape.matmul(gu, w2);
            x = tape.add(x, m);
        }
        let final_gain = tape.leaf(Tensor::from_vec(self.final_norm.gain.clone(), 1, dim));
        let head = tape.leaf(self.lm_head.w().clone());
        params.push(final_gain);
        params.push(head);
        let xn = tape.rms_norm(x, final_gain, self.final_norm.eps);
        let logits = tape.matmul(xn, head);
        (logits, params)
    }

    /// Visit every trainable parameter slice, in the **same canonical
    /// order** as the leaf ids returned by [`Decoder::forward_train`]:
    /// embedding table; per block `attn_norm.gain`, `wq`, `wk`, `wv`, `wo`,
    /// `mlp_norm.gain`, `w1`, `w2`, `w3`; `final_norm.gain`; `lm_head`.
    /// This is the update path optimizers use after `backward`. Every
    /// projection is reached through [`Linear::weights_mut`], so the visit
    /// drops the f32 panels and the int8 images (the next fused forward
    /// rebuilds what its policy reads from the updated weights).
    pub fn visit_params_mut(&mut self, f: &mut dyn FnMut(&str, &mut [f32])) {
        f("embed.table", &mut self.embed.table.data);
        for (l, block) in self.blocks.iter_mut().enumerate() {
            f(
                &format!("blocks.{l}.attn_norm.gain"),
                &mut block.attn_norm.gain,
            );
            f(&format!("blocks.{l}.attn.wq"), block.attn.wq.weights_mut());
            f(&format!("blocks.{l}.attn.wk"), block.attn.wk.weights_mut());
            f(&format!("blocks.{l}.attn.wv"), block.attn.wv.weights_mut());
            f(&format!("blocks.{l}.attn.wo"), block.attn.wo.weights_mut());
            f(
                &format!("blocks.{l}.mlp_norm.gain"),
                &mut block.mlp_norm.gain,
            );
            f(&format!("blocks.{l}.mlp.w1"), block.mlp.w1.weights_mut());
            f(&format!("blocks.{l}.mlp.w2"), block.mlp.w2.weights_mut());
            f(&format!("blocks.{l}.mlp.w3"), block.mlp.w3.weights_mut());
        }
        f("final_norm.gain", &mut self.final_norm.gain);
        f("lm_head", self.lm_head.weights_mut());
    }

    /// Number of parameter tensors [`Decoder::visit_params_mut`] yields.
    pub fn n_param_tensors(&self) -> usize {
        3 + 9 * self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    /// KV-cache-incremental decode must reproduce the full-sequence
    /// recompute logits — token by token and in multi-token blocks.
    #[test]
    fn incremental_decode_matches_full_recompute() {
        let model = Decoder::new(DecoderConfig::tiny(50), 0xDEC0DE);
        let mut rng = Rng::new(77);
        let tokens: Vec<u32> = (0..17).map(|_| rng.below(50) as u32).collect();

        let full = model.forward_full(&tokens);

        // Token-by-token.
        let mut cache = model.new_cache();
        let mut inc = Vec::new();
        for &t in &tokens {
            let l = model.forward_infer(&[t], &mut cache);
            inc.extend_from_slice(&l.data);
        }
        assert!(
            max_abs_diff(&inc, &full.data) < 2e-3,
            "token-by-token decode diverged: {}",
            max_abs_diff(&inc, &full.data)
        );

        // Prefill + block decode (the speculative verify shape).
        let mut cache = model.new_cache();
        let pre = model.forward_infer(&tokens[..9], &mut cache);
        let rest = model.forward_infer(&tokens[9..], &mut cache);
        let mut blk = pre.data.clone();
        blk.extend_from_slice(&rest.data);
        assert!(max_abs_diff(&blk, &full.data) < 2e-3);
    }

    /// The fused workspace forward must track the allocating incremental
    /// path closely (they reassociate the residual add, hence tolerance,
    /// not equality) across decode and block-verify shapes, and must stop
    /// allocating in the steady state.
    #[test]
    fn forward_infer_ws_matches_forward_infer() {
        let model = Decoder::new(DecoderConfig::tiny(50), 0xDEC0DE);
        let mut rng = Rng::new(78);
        let tokens: Vec<u32> = (0..17).map(|_| rng.below(50) as u32).collect();
        let vocab = model.cfg.vocab;

        let mut ws = Workspace::new();
        for splits in [vec![17], vec![1; 17], vec![5, 1, 4, 3, 4]] {
            assert_eq!(splits.iter().sum::<usize>(), tokens.len());
            let mut cache_a = model.new_cache();
            let mut cache_b = model.new_cache();
            let mut at = 0;
            for blk in splits {
                let toks = &tokens[at..at + blk];
                let want = model.forward_infer(toks, &mut cache_a);
                let mut got = vec![0.0f32; blk * vocab];
                model.forward_infer_ws(toks, &mut cache_b, &mut ws, &mut got);
                assert!(
                    max_abs_diff(&got, &want.data) < 1e-4,
                    "fused decode diverged at offset {at}: {}",
                    max_abs_diff(&got, &want.data)
                );
                at += blk;
            }
        }

        // Steady-state single-token decode must not grow the pool.
        let mut cache = model.new_cache();
        let mut logits = vec![0.0f32; vocab];
        model.forward_infer_ws(&tokens[..1], &mut cache, &mut ws, &mut logits);
        let after_warmup = ws.fresh_allocs();
        for &t in &tokens[1..] {
            model.forward_infer_ws(&[t], &mut cache, &mut ws, &mut logits);
        }
        assert_eq!(ws.fresh_allocs(), after_warmup, "steady state allocated");
    }

    /// The per-op profiler carried by the workspace must attribute time to
    /// every pipeline stage with the expected call counts.
    #[test]
    fn profiler_covers_every_op() {
        let model = Decoder::new(DecoderConfig::tiny(50), 1);
        let mut ws = Workspace::new();
        let mut cache = model.new_cache();
        let mut logits = vec![0.0f32; model.cfg.vocab];
        ws.prof.enable();
        let steps = 4u64;
        for t in 0..steps {
            model.forward_infer_ws(&[t as u32], &mut cache, &mut ws, &mut logits);
        }
        use aasd_tensor::Op;
        assert_eq!(ws.prof.calls(Op::Embed), steps);
        assert_eq!(ws.prof.calls(Op::LmHead), steps);
        let layers = model.cfg.n_layers as u64;
        assert_eq!(ws.prof.calls(Op::Qkv), steps * layers);
        assert_eq!(ws.prof.calls(Op::OProj), steps * layers);
        assert_eq!(ws.prof.calls(Op::Mlp), steps * layers);
        // Two per-block norms + the final norm.
        assert_eq!(ws.prof.calls(Op::RmsNorm), steps * (2 * layers + 1));
        // Score/mix scopes are per head per token.
        let heads = model.cfg.n_heads as u64;
        assert_eq!(ws.prof.calls(Op::AttnScore), steps * layers * heads);
        assert_eq!(ws.prof.calls(Op::AttnMix), steps * layers * heads);
    }

    /// Feeding a token's embedding row through the embeds path must produce
    /// the same logits and cache state as feeding the token id — both in
    /// the allocating and the fused variants, and across a prefix/text
    /// split (the LlavaSim prefill shape).
    #[test]
    fn embeds_path_matches_token_path() {
        let model = Decoder::new(DecoderConfig::tiny(50), 0xE3B);
        let mut rng = Rng::new(81);
        let tokens: Vec<u32> = (0..11).map(|_| rng.below(50) as u32).collect();
        let vocab = model.cfg.vocab;

        let mut cache_tok = model.new_cache();
        let want = model.forward_infer(&tokens, &mut cache_tok);

        // Allocating embeds path: prefix of 4 rows, then the rest.
        let rows = model.embed.forward(&tokens);
        let prefix = Tensor::from_vec(rows.data[..4 * model.cfg.dim].to_vec(), 4, model.cfg.dim);
        let rest = Tensor::from_vec(
            rows.data[4 * model.cfg.dim..].to_vec(),
            tokens.len() - 4,
            model.cfg.dim,
        );
        let mut cache_emb = model.new_cache();
        let a = model.forward_infer_embeds(&prefix, &mut cache_emb);
        let b = model.forward_infer_embeds(&rest, &mut cache_emb);
        let mut got = a.data.clone();
        got.extend_from_slice(&b.data);
        assert!(
            max_abs_diff(&got, &want.data) < 1e-4,
            "embeds path diverged: {}",
            max_abs_diff(&got, &want.data)
        );
        assert_eq!(cache_emb.len(), cache_tok.len());

        // Fused embeds path.
        let mut ws = Workspace::new();
        let mut cache_ws = model.new_cache();
        let mut got_ws = vec![0.0f32; tokens.len() * vocab];
        model.forward_infer_embeds_ws(
            &rows.data[..4 * model.cfg.dim],
            4,
            &mut cache_ws,
            &mut ws,
            &mut got_ws[..4 * vocab],
        );
        model.forward_infer_embeds_ws(
            &rows.data[4 * model.cfg.dim..],
            tokens.len() - 4,
            &mut cache_ws,
            &mut ws,
            &mut got_ws[4 * vocab..],
        );
        assert!(
            max_abs_diff(&got_ws, &want.data) < 1e-4,
            "fused embeds path diverged: {}",
            max_abs_diff(&got_ws, &want.data)
        );

        // A text block fed AFTER an embeds prefix sees the same cache state
        // as the pure-token run: continue both caches with one token.
        let mut l1 = vec![0.0f32; vocab];
        model.forward_infer_ws(&[7], &mut cache_ws, &mut ws, &mut l1);
        let l2 = model.forward_infer(&[7], &mut cache_tok);
        assert!(max_abs_diff(&l1, l2.row(0)) < 1e-4);
    }

    /// Switching to the int8 policy must keep the fused logits close to the
    /// f32 path (per-row absmax quantization error only), attribute time to
    /// the nested quant profiler ops with the expected counts, and stay
    /// zero-allocation in steady state; switching back to f32 restores
    /// bit-identical logits.
    #[test]
    fn int8_policy_tracks_f32_and_profiles_quant_ops() {
        let f32_model = Decoder::new(DecoderConfig::tiny(50), 0x18);
        let mut q_model = f32_model.clone();
        assert_eq!(q_model.kernel_policy(), KernelPolicy::F32);
        q_model.set_kernel_policy(KernelPolicy::Int8);
        assert_eq!(q_model.kernel_policy(), KernelPolicy::Int8);

        let vocab = f32_model.cfg.vocab;
        let mut rng = Rng::new(83);
        let tokens: Vec<u32> = (0..12).map(|_| rng.below(50) as u32).collect();

        let mut ws_a = Workspace::new();
        let mut ws_b = Workspace::new();
        let mut cache_a = f32_model.new_cache();
        let mut cache_b = q_model.new_cache();
        let mut la = vec![0.0f32; vocab];
        let mut lb = vec![0.0f32; vocab];
        ws_b.prof.enable();
        let mut drift = 0.0f32;
        for &tok in &tokens {
            f32_model.forward_infer_ws(&[tok], &mut cache_a, &mut ws_a, &mut la);
            q_model.forward_infer_ws(&[tok], &mut cache_b, &mut ws_b, &mut lb);
            drift = drift.max(max_abs_diff(&la, &lb));
        }
        assert!(drift > 0.0, "int8 path suspiciously identical to f32");
        assert!(drift < 0.5, "int8 logits drifted too far: {drift}");

        // 7 projections per block + the LM head, one row each per step.
        let steps = tokens.len() as u64;
        let expect = steps * (7 * q_model.cfg.n_layers as u64 + 1);
        assert_eq!(ws_b.prof.calls(Op::Quantize), expect);
        assert_eq!(ws_b.prof.calls(Op::Q8Vecmat), expect);
        assert!(ws_b.prof.pipeline_total_ns() >= ws_b.prof.total_ns(Op::Q8Vecmat));

        // A multi-row block opens one span pair per projection, not one per
        // row.
        let mut block_logits = vec![0.0f32; 6 * vocab];
        let mut cache_blk = q_model.new_cache();
        q_model.forward_infer_ws(&tokens[..6], &mut cache_blk, &mut ws_b, &mut block_logits);
        let expect = expect + 7 * q_model.cfg.n_layers as u64 + 1;
        assert_eq!(ws_b.prof.calls(Op::Quantize), expect);
        assert_eq!(ws_b.prof.calls(Op::Q8Vecmat), expect);

        // Steady state stays allocation-free on the int8 path too.
        let after_warmup = ws_b.fresh_allocs();
        for &tok in tokens.iter().rev().take(4) {
            q_model.forward_infer_ws(&[tok], &mut cache_b, &mut ws_b, &mut lb);
        }
        assert_eq!(ws_b.fresh_allocs(), after_warmup, "int8 decode allocated");

        // Back to f32: bit-identical to the never-quantized model.
        q_model.set_kernel_policy(KernelPolicy::F32);
        let mut cache_c = q_model.new_cache();
        let mut cache_d = f32_model.new_cache();
        let mut lc = vec![0.0f32; vocab];
        let mut ld = vec![0.0f32; vocab];
        for &tok in &tokens {
            q_model.forward_infer_ws(&[tok], &mut cache_c, &mut ws_b, &mut lc);
            f32_model.forward_infer_ws(&[tok], &mut cache_d, &mut ws_a, &mut ld);
        }
        assert_eq!(lc, ld, "restored f32 policy must be exact");
    }

    /// Logits of one fused forward of `tokens` over a fresh cache.
    fn fused_logits(m: &Decoder, tokens: &[u32]) -> Vec<f32> {
        let mut logits = vec![0.0f32; tokens.len() * m.cfg.vocab];
        m.forward_infer_ws(
            tokens,
            &mut m.new_cache(),
            &mut Workspace::new(),
            &mut logits,
        );
        logits
    }

    /// Whether the shadow `policy` reads exists on the head and on a block
    /// projection (`Some(both)`; `None` if they disagree).
    fn shadow_built(m: &Decoder, policy: KernelPolicy) -> Option<bool> {
        let built = |l: &Linear| match policy {
            KernelPolicy::F32 => l.is_packed(),
            KernelPolicy::Int8 => l.is_quantized(),
        };
        let (head, w2) = (built(&m.lm_head), built(&m.blocks[0].mlp.w2));
        (head == w2).then_some(head)
    }

    /// An optimizer step between two fused forwards must not be served from
    /// the shadow built for the first: after it the fused logits carry the
    /// bits of a model that never built one before the same step, and still
    /// track the tape's `forward_full` oracle (within `tol`).
    fn shadow_follows_an_optimizer_step(policy: KernelPolicy, tol: f32) {
        let cfg = DecoderConfig::tiny(50);
        let tokens = [3u32, 14, 15, 9, 26, 5];
        let fused = |m: &Decoder| fused_logits(m, &tokens);
        let step = |m: &mut Decoder| {
            m.visit_params_mut(&mut |_, p| p.iter_mut().for_each(|w| *w = *w * 0.9 + 0.003));
        };
        let born = |seed| {
            let mut m = Decoder::new(cfg.clone(), seed);
            m.set_kernel_policy(policy);
            m
        };
        let mut trained = born(0x57A1E);
        let before = fused(&trained);
        assert_eq!(shadow_built(&trained, policy), Some(true));
        step(&mut trained);
        assert_eq!(shadow_built(&trained, policy), Some(false));
        let after = fused(&trained);
        assert_ne!(before, after);

        let mut fresh = born(0x57A1E);
        step(&mut fresh);
        assert_eq!(after, fused(&fresh), "fused path served a stale shadow");
        let full = trained.forward_full(&tokens);
        assert!(max_abs_diff(&after, &full.data) < tol);
    }

    #[test]
    fn linear_panels_follow_an_optimizer_step_between_fused_forwards() {
        shadow_follows_an_optimizer_step(KernelPolicy::F32, 2e-3);
    }

    /// The int8 twin: a model born `Int8` trains through
    /// `visit_params_mut` — no panic, no stale codes — and then serves the
    /// bits of a model quantized fresh from the stepped weights.
    #[test]
    fn linear_int8_shadow_follows_an_optimizer_step_between_fused_forwards() {
        shadow_follows_an_optimizer_step(KernelPolicy::Int8, 0.5);
    }

    /// The first fused forward builds the shadow; when two threads make it
    /// at once on one shared model, `OnceLock` lets one build and both read
    /// the same image — identical logits, equal to a later single-threaded
    /// pass.
    fn first_fused_forward_from_two_threads_builds_once(policy: KernelPolicy) {
        use std::sync::{Arc, Barrier};
        let mut model = Decoder::new(DecoderConfig::tiny(50), 0x2ACE);
        model.set_kernel_policy(policy);
        let model = Arc::new(model);
        let tokens = [7u32, 1, 19, 4, 4, 30, 2];
        let fused = |m: &Decoder| fused_logits(m, &tokens);
        let barrier = Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let run = || {
                barrier.wait();
                fused(&model)
            };
            let a = s.spawn(run);
            let b = s.spawn(run);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(shadow_built(&model, policy), Some(true));
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(bits(&a), bits(&fused(&model)));
    }

    #[test]
    fn linear_first_fused_forward_from_two_threads_packs_once() {
        first_fused_forward_from_two_threads_builds_once(KernelPolicy::F32);
    }

    #[test]
    fn linear_first_int8_forward_from_two_threads_quantises_once() {
        first_fused_forward_from_two_threads_builds_once(KernelPolicy::Int8);
    }

    #[test]
    fn deterministic_across_construction() {
        let cfg = DecoderConfig::tiny(30);
        let a = Decoder::new(cfg.clone(), 5);
        let b = Decoder::new(cfg, 5);
        let toks = [1u32, 2, 3];
        assert_eq!(a.forward_full(&toks).data, b.forward_full(&toks).data);
    }

    #[test]
    fn different_seeds_give_different_models() {
        let cfg = DecoderConfig::tiny(30);
        let a = Decoder::new(cfg.clone(), 1);
        let b = Decoder::new(cfg, 2);
        let toks = [4u32, 9, 2, 7];
        assert!(max_abs_diff(&a.forward_full(&toks).data, &b.forward_full(&toks).data) > 1e-3);
    }

    #[test]
    fn cache_rollback_replays_identically() {
        let model = Decoder::new(DecoderConfig::tiny(40), 3);
        let mut cache = model.new_cache();
        model.forward_infer(&[5, 6, 7], &mut cache);
        let keep = cache.len();
        let before = model.forward_infer(&[8, 9], &mut cache);
        cache.truncate(keep);
        let after = model.forward_infer(&[8, 9], &mut cache);
        assert_eq!(before.data, after.data, "rollback+replay must be exact");
    }

    /// Micro config for gradient tests: every architectural feature, few
    /// enough parameters that a full finite-difference sweep is cheap.
    fn micro() -> DecoderConfig {
        DecoderConfig {
            vocab: 6,
            dim: 4,
            n_heads: 2,
            n_layers: 1,
            ff_hidden: 8,
            max_seq: 8,
            rope_theta: 10_000.0,
        }
    }

    /// The leaf ids returned by `forward_train` must bind the same tensors,
    /// in the same order, as `visit_params_mut` walks — optimizers rely on
    /// that lockstep to map gradients back onto live weights.
    #[test]
    fn forward_train_leaves_match_visitor_order() {
        let mut model = Decoder::new(micro(), 3);
        let mut tape = Tape::new();
        let (_, params) = model.forward_train(&mut tape, &[1, 4, 0], &[]);
        assert_eq!(params.len(), model.n_param_tensors());
        let mut slot = 0;
        model.visit_params_mut(&mut |name, p| {
            let leaf = tape.value(params[slot]);
            assert_eq!(leaf.data.len(), p.len(), "slot {slot} ({name}) size");
            assert_eq!(leaf.data, p, "slot {slot} ({name}) contents");
            slot += 1;
        });
        assert_eq!(slot, params.len());
    }

    /// Whole-model finite-difference gradient check: the backward pass
    /// through the complete decoder graph (embed → blocks → head → CE loss)
    /// agrees with central differences on every parameter element.
    #[test]
    fn whole_decoder_gradients_pass_fd_check() {
        let mut model = Decoder::new(micro(), 0x6AD);
        let tokens = [1u32, 3, 0, 5];
        let targets = [2u32, 5, 1, 4];

        let loss_of = |m: &Decoder| -> f32 {
            let mut tape = Tape::new();
            let (logits, _) = m.forward_train(&mut tape, &tokens, &[]);
            let l = tape.cross_entropy(logits, &targets);
            tape.value(l).data[0]
        };
        let mut tape = Tape::new();
        let (logits, params) = model.forward_train(&mut tape, &tokens, &[]);
        let loss = tape.cross_entropy(logits, &targets);
        let grads = tape.backward(loss);

        let sizes: Vec<usize> = {
            let mut s = Vec::new();
            model.visit_params_mut(&mut |_, p| s.push(p.len()));
            s
        };
        let perturb = |m: &mut Decoder, slot: usize, elem: usize, delta: f32| {
            let mut i = 0;
            m.visit_params_mut(&mut |_, p| {
                if i == slot {
                    p[elem] += delta;
                }
                i += 1;
            });
        };
        // Much smaller step than the per-op checks: the composed graph has
        // far higher curvature (verified: fd converges quadratically to the
        // analytic value as eps shrinks), so eps = 1e-2 leaves visible
        // truncation error while f32 round-off is still negligible here.
        let eps = 3e-4f32;
        for (slot, &len) in sizes.iter().enumerate() {
            let g = tape.value(params[slot]).data.clone();
            assert_eq!(g.len(), len);
            let analytic = grads
                .get(params[slot])
                .expect("every param reaches the loss");
            for e in 0..len {
                perturb(&mut model, slot, e, eps);
                let up = loss_of(&model);
                perturb(&mut model, slot, e, -2.0 * eps);
                let down = loss_of(&model);
                perturb(&mut model, slot, e, eps);
                let fd = (up - down) / (2.0 * eps);
                let a = analytic.data[e];
                // Same relative-error convention as `aasd_autograd::check`:
                // the 1.0 floor turns the bar into an absolute tolerance for
                // sub-unit gradients, where f32 round-off dominates the fd.
                let rel = (a - fd).abs() / a.abs().max(fd.abs()).max(1.0);
                assert!(
                    rel < 1e-2,
                    "slot {slot} elem {e}: analytic {a} vs fd {fd} (rel {rel})"
                );
            }
        }
    }
}
