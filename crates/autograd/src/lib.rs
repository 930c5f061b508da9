//! `aasd-autograd` — tape-based reverse-mode automatic differentiation over
//! [`aasd_tensor::Tensor`].
//!
//! The design follows DESIGN.md §2.2: a [`Tape`] records every forward op as
//! a node (op enum + materialized output value); [`Tape::backward`] is a
//! **single dispatcher** that walks the tape in reverse topological order
//! (which is just reverse insertion order, since inputs always precede their
//! consumers) and accumulates gradients per node. Parameters enter as
//! [`Tape::leaf`] nodes and their gradients are read back by [`VarId`].
//!
//! The op set is exactly what training a decoder-only transformer needs:
//! `matmul`, `add`, `mul`, `scale`, `sum`, `embed_gather`, `silu`,
//! `rms_norm`, the `cross_entropy` and `kl_div` losses, plus the fused
//! sequence ops — `rope` (rotary embedding, backward is the inverse
//! rotation), `concat_rows` and one `attention`: multi-head softmax
//! attention over K/V segments, each under a [`Visible`] rule,
//! flash-style (the probability matrices are recomputed in backward
//! instead of stored). One `UpTo(p)` segment behind a `concat_rows` prefix
//! lets the multimodal hybrid-cache draft train end-to-end over a
//! gradient-carrying KV prefix; a `Before(w)` target segment beside a
//! `Window(w)` draft segment is the Target-Draft alignment loss. The op's
//! value is the plain function [`attention`], which `aasd-nn`'s
//! full-sequence oracle and vision tower call too.
//!
//! Every op is validated by a central finite-difference gradient check
//! ([`check::fd_check`]) in this crate's tests; `aasd-nn` additionally
//! FD-checks the whole-decoder graph built by `forward_train`.

pub mod check;

use aasd_tensor::{add_assign, dot, log_softmax_rows, silu, softmax_row, softmax_rows, Tensor};
use std::borrow::Cow;

/// Handle to a node on the tape (index into the node list).
pub type VarId = usize;

/// Which key rows `j` of one attention segment query row `i` sees. A query
/// attends over the union of what every segment's rule admits, under one
/// softmax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visible {
    /// Every row (the vision tower's bidirectional attention).
    All,
    /// `j ≤ offset + i`: an always-visible `offset`-row prefix, then causal
    /// over the `t` rows after it; `UpTo(0)` is plain causal attention.
    /// The segment has `offset + t` rows.
    UpTo(usize),
    /// `j + w ≤ i`: the target side of Target-Draft attention, every key
    /// at least `w` positions old. The segment has `t` rows, `w ≥ 1`.
    Before(usize),
    /// `j ≤ i < j + w`: the draft side, the last `w` positions up to and
    /// including `i`. The segment has `t` rows, `w ≥ 1`.
    Window(usize),
}

impl Visible {
    fn admits(self, i: usize, j: usize) -> bool {
        match self {
            Visible::All => true,
            Visible::UpTo(offset) => j <= offset + i,
            Visible::Before(w) => j + w <= i,
            Visible::Window(w) => j <= i && i < j + w,
        }
    }
}

/// One K/V segment of [`attention`]: keys, values, and the rule that says
/// which of their rows each query row sees.
pub type Segment<'a> = (&'a Tensor, &'a Tensor, Visible);

/// One recorded operation. Variants carry their input [`VarId`]s plus any
/// non-differentiable attributes (token ids, rotary tables, head counts).
#[derive(Debug, Clone)]
enum Op {
    /// Parameter or constant input; gradient sink.
    Leaf,
    /// `a · b`.
    MatMul(VarId, VarId),
    /// Elementwise `a + b` (same shape).
    Add(VarId, VarId),
    /// Elementwise `a ⊙ b` (same shape).
    Mul(VarId, VarId),
    /// `s · a` for a fixed scalar `s`.
    Scale(VarId, f32),
    /// Sum of all elements → `[1, 1]`.
    Sum(VarId),
    /// Row-gather from an embedding table by token id.
    EmbedGather { table: VarId, tokens: Vec<u32> },
    /// Elementwise SiLU.
    Silu(VarId),
    /// RMS norm per row with a learned per-column gain `[1, d]`.
    RmsNorm { x: VarId, gain: VarId, eps: f32 },
    /// Mean next-token cross-entropy of `[t, vocab]` logits vs `t` targets.
    CrossEntropy { logits: VarId, targets: Vec<u32> },
    /// Mean row-wise `KL(teacher ‖ softmax(student))`; the teacher
    /// distribution is a frozen constant, not a tape node.
    KlDiv {
        student_logits: VarId,
        teacher_probs: Tensor,
    },
    /// Rotary position embedding over `[t, dim]`, positions `0..t`, with
    /// per-position cos/sin tables (`t × half`, `half = head_dim / 2`).
    Rope {
        x: VarId,
        n_heads: usize,
        cos: Vec<f32>,
        sin: Vec<f32>,
    },
    /// Row-stack `a` (`[p, d]`) on top of `b` (`[t, d]`) → `[p+t, d]`.
    /// Backward splits the gradient. Used to build the hybrid draft cache
    /// `[projected vision KV ∥ text KV]` on the tape.
    ConcatRows(VarId, VarId),
    /// [`attention`] of `q` over K/V segments, each under its own rule.
    Attention {
        q: VarId,
        segments: Vec<(VarId, VarId, Visible)>,
        n_heads: usize,
    },
}

#[derive(Debug, Clone)]
struct Node {
    op: Op,
    value: Tensor,
}

/// Gradients produced by one [`Tape::backward`] call, indexed by [`VarId`].
/// Nodes the loss does not depend on have no entry.
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the backward root with respect to node `id`, if any.
    pub fn get(&self, id: VarId) -> Option<&Tensor> {
        self.grads.get(id).and_then(|g| g.as_ref())
    }
}

/// The forward tape: an append-only list of op nodes with materialized
/// values. Build a fresh tape per training step; ids are only meaningful
/// within the tape that issued them.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Forward value of node `id`.
    pub fn value(&self, id: VarId) -> &Tensor {
        &self.nodes[id].value
    }

    /// The values behind attention segments recorded as node ids.
    fn segments(&self, segments: &[(VarId, VarId, Visible)]) -> Vec<Segment<'_>> {
        segments
            .iter()
            .map(|&(k, v, rule)| (self.value(k), self.value(v), rule))
            .collect()
    }

    fn push(&mut self, op: Op, value: Tensor) -> VarId {
        self.nodes.push(Node { op, value });
        self.nodes.len() - 1
    }

    /// Register a parameter/input tensor as a gradient sink.
    pub fn leaf(&mut self, value: Tensor) -> VarId {
        self.push(Op::Leaf, value)
    }

    /// `a · b` via the blocked/parallel kernel.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a, b), value)
    }

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!((ta.rows, ta.cols), (tb.rows, tb.cols), "add shape mismatch");
        let mut value = ta.clone();
        add_assign(&mut value.data, &tb.data);
        self.push(Op::Add(a, b), value)
    }

    /// Elementwise `a ⊙ b`.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!((ta.rows, ta.cols), (tb.rows, tb.cols), "mul shape mismatch");
        let mut value = ta.clone();
        for (x, y) in value.data.iter_mut().zip(&tb.data) {
            *x *= *y;
        }
        self.push(Op::Mul(a, b), value)
    }

    /// `s · a`.
    pub fn scale(&mut self, a: VarId, s: f32) -> VarId {
        let mut value = self.value(a).clone();
        scale_data(&mut value, s);
        self.push(Op::Scale(a, s), value)
    }

    /// Sum of every element, as a `[1, 1]` scalar (backward seed shape).
    pub fn sum(&mut self, a: VarId) -> VarId {
        let s: f32 = self.value(a).data.iter().sum();
        self.push(Op::Sum(a), Tensor::from_vec(vec![s], 1, 1))
    }

    /// Gather embedding rows for a token sequence → `[t, dim]`.
    pub fn embed_gather(&mut self, table: VarId, tokens: &[u32]) -> VarId {
        let tab = self.value(table);
        let dim = tab.cols;
        let mut value = Tensor::zeros(tokens.len(), dim);
        for (i, &tok) in tokens.iter().enumerate() {
            let tok = tok as usize;
            assert!(tok < tab.rows, "token {tok} out of vocabulary");
            value.row_mut(i).copy_from_slice(tab.row(tok));
        }
        self.push(
            Op::EmbedGather {
                table,
                tokens: tokens.to_vec(),
            },
            value,
        )
    }

    /// Elementwise SiLU.
    pub fn silu(&mut self, a: VarId) -> VarId {
        let mut value = self.value(a).clone();
        for x in value.data.iter_mut() {
            *x = silu(*x);
        }
        self.push(Op::Silu(a), value)
    }

    /// Row-wise RMS norm with per-column gain (`gain: [1, d]`).
    pub fn rms_norm(&mut self, x: VarId, gain: VarId, eps: f32) -> VarId {
        let (tx, tg) = (self.value(x), self.value(gain));
        assert_eq!(tg.rows, 1, "gain must be a [1, d] row vector");
        assert_eq!(tx.cols, tg.cols, "rms_norm gain width mismatch");
        let mut value = tx.clone();
        for r in 0..value.rows {
            let row = value.row_mut(r);
            let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / row.len() as f32;
            let inv = 1.0 / (ms + eps).sqrt();
            for (v, g) in row.iter_mut().zip(&tg.data) {
                *v *= inv * *g;
            }
        }
        self.push(Op::RmsNorm { x, gain, eps }, value)
    }

    /// Mean next-token cross-entropy: `-1/t Σᵢ log_softmax(logits)ᵢ[tᵢ]`.
    pub fn cross_entropy(&mut self, logits: VarId, targets: &[u32]) -> VarId {
        let tl = self.value(logits);
        assert_eq!(tl.rows, targets.len(), "one target per logits row");
        let mut ls = tl.clone();
        log_softmax_rows(&mut ls.data, ls.cols);
        let mut loss = 0.0f32;
        for (i, &t) in targets.iter().enumerate() {
            let t = t as usize;
            assert!(t < ls.cols, "target {t} out of vocabulary");
            loss -= ls.row(i)[t];
        }
        loss /= targets.len() as f32;
        self.push(
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
            },
            Tensor::from_vec(vec![loss], 1, 1),
        )
    }

    /// Mean row-wise `KL(teacher ‖ softmax(student))` — the sequence-level
    /// distillation loss. `teacher_probs` is a frozen `[t, vocab]` tensor of
    /// probability rows (rows sum to 1); zero teacher entries contribute 0.
    pub fn kl_div(&mut self, student_logits: VarId, teacher_probs: Tensor) -> VarId {
        let tl = self.value(student_logits);
        assert_eq!(
            (tl.rows, tl.cols),
            (teacher_probs.rows, teacher_probs.cols),
            "teacher/student shape mismatch"
        );
        let mut ls = tl.clone();
        log_softmax_rows(&mut ls.data, ls.cols);
        let mut loss = 0.0f32;
        for (lp, &tp) in ls.data.iter().zip(&teacher_probs.data) {
            if tp > 0.0 {
                loss += tp * (tp.ln() - lp);
            }
        }
        loss /= tl.rows as f32;
        self.push(
            Op::KlDiv {
                student_logits,
                teacher_probs,
            },
            Tensor::from_vec(vec![loss], 1, 1),
        )
    }

    /// Rotary position embedding over `x: [t, dim]` at absolute positions
    /// `0..t`. `cos`/`sin` are `t × half` row-major tables
    /// (`half = (dim / n_heads) / 2`); each head's adjacent pairs are
    /// rotated identically, matching `aasd-nn`'s inference-path RoPE.
    pub fn rope(&mut self, x: VarId, n_heads: usize, cos: Vec<f32>, sin: Vec<f32>) -> VarId {
        let tx = self.value(x);
        let head_dim = tx.cols / n_heads;
        assert_eq!(head_dim * n_heads, tx.cols, "dim must divide into heads");
        assert!(head_dim.is_multiple_of(2), "RoPE needs an even head dim");
        let half = head_dim / 2;
        assert_eq!(cos.len(), tx.rows * half, "cos table must be t x half");
        assert_eq!(sin.len(), tx.rows * half, "sin table must be t x half");
        let mut value = tx.clone();
        for i in 0..value.rows {
            let (c, s) = (
                &cos[i * half..(i + 1) * half],
                &sin[i * half..(i + 1) * half],
            );
            let row = value.row_mut(i);
            for h in 0..n_heads {
                let head = &mut row[h * head_dim..(h + 1) * head_dim];
                for j in 0..half {
                    let (x0, x1) = (head[2 * j], head[2 * j + 1]);
                    head[2 * j] = x0 * c[j] - x1 * s[j];
                    head[2 * j + 1] = x0 * s[j] + x1 * c[j];
                }
            }
        }
        self.push(
            Op::Rope {
                x,
                n_heads,
                cos,
                sin,
            },
            value,
        )
    }

    /// Row-stack `a` (`[p, d]`) on top of `b` (`[t, d]`) → `[p+t, d]`.
    pub fn concat_rows(&mut self, a: VarId, b: VarId) -> VarId {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.cols, tb.cols, "concat_rows width mismatch");
        let mut data = ta.data.clone();
        data.extend_from_slice(&tb.data);
        let value = Tensor::from_vec(data, ta.rows + tb.rows, ta.cols);
        self.push(Op::ConcatRows(a, b), value)
    }

    /// [`attention`] on the tape: every K/V segment receives gradients.
    /// A `UpTo(p)` prefix stacked by [`Tape::concat_rows`] is the
    /// training-time mirror of decoding over a pre-seeded KV cache, and its
    /// rows (projected vision KV in the AASD hybrid cache) are what makes
    /// the `KvProjector` trainable end-to-end.
    pub fn attention(
        &mut self,
        q: VarId,
        segments: &[(VarId, VarId, Visible)],
        n_heads: usize,
    ) -> VarId {
        let value = attention(self.value(q), &self.segments(segments), n_heads);
        let segments = segments.to_vec();
        self.push(
            Op::Attention {
                q,
                segments,
                n_heads,
            },
            value,
        )
    }

    /// Reverse-mode sweep from a scalar `root` (`[1, 1]`): the single
    /// backward dispatcher. Returns per-node gradients; leaves the tape's
    /// forward values untouched, so multiple roots can be differentiated.
    pub fn backward(&self, root: VarId) -> Gradients {
        let rv = self.value(root);
        assert_eq!((rv.rows, rv.cols), (1, 1), "backward root must be scalar");
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[root] = Some(Tensor::from_vec(vec![1.0], 1, 1));
        for id in (0..=root).rev() {
            let Some(g) = grads[id].clone() else { continue };
            match &self.nodes[id].op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let da = g.matmul_transposed(self.value(*b));
                    let db = self.value(*a).transpose().matmul(&g);
                    accumulate(&mut grads[*a], da);
                    accumulate(&mut grads[*b], db);
                }
                Op::Add(a, b) => {
                    accumulate(&mut grads[*a], g.clone());
                    accumulate(&mut grads[*b], g);
                }
                Op::Mul(a, b) => {
                    let mut da = g.clone();
                    for (x, y) in da.data.iter_mut().zip(&self.value(*b).data) {
                        *x *= *y;
                    }
                    let mut db = g;
                    for (x, y) in db.data.iter_mut().zip(&self.value(*a).data) {
                        *x *= *y;
                    }
                    accumulate(&mut grads[*a], da);
                    accumulate(&mut grads[*b], db);
                }
                Op::Scale(a, s) => {
                    let mut da = g;
                    scale_data(&mut da, *s);
                    accumulate(&mut grads[*a], da);
                }
                Op::Sum(a) => {
                    let ta = self.value(*a);
                    let da = Tensor::from_vec(vec![g.data[0]; ta.data.len()], ta.rows, ta.cols);
                    accumulate(&mut grads[*a], da);
                }
                Op::EmbedGather { table, tokens } => {
                    let tab = self.value(*table);
                    let mut dt = Tensor::zeros(tab.rows, tab.cols);
                    for (i, &tok) in tokens.iter().enumerate() {
                        add_assign(dt.row_mut(tok as usize), g.row(i));
                    }
                    accumulate(&mut grads[*table], dt);
                }
                Op::Silu(a) => {
                    let mut da = g;
                    for (x, &v) in da.data.iter_mut().zip(&self.value(*a).data) {
                        let sig = 1.0 / (1.0 + (-v).exp());
                        *x *= sig * (1.0 + v * (1.0 - sig));
                    }
                    accumulate(&mut grads[*a], da);
                }
                Op::RmsNorm { x, gain, eps } => {
                    let (dx, dg) = rms_norm_backward(self.value(*x), self.value(*gain), *eps, &g);
                    accumulate(&mut grads[*x], dx);
                    accumulate(&mut grads[*gain], dg);
                }
                Op::CrossEntropy { logits, targets } => {
                    // dlogits = (softmax(logits) − onehot(target)) · g / t.
                    let mut dl = self.value(*logits).clone();
                    softmax_rows(&mut dl.data, dl.cols);
                    let scale = g.data[0] / targets.len() as f32;
                    for (i, &t) in targets.iter().enumerate() {
                        dl.row_mut(i)[t as usize] -= 1.0;
                    }
                    for x in dl.data.iter_mut() {
                        *x *= scale;
                    }
                    accumulate(&mut grads[*logits], dl);
                }
                Op::KlDiv {
                    student_logits,
                    teacher_probs,
                } => {
                    // dstudent = (softmax(student) − teacher) · g / rows.
                    let mut ds = self.value(*student_logits).clone();
                    softmax_rows(&mut ds.data, ds.cols);
                    let scale = g.data[0] / ds.rows as f32;
                    for (x, &tp) in ds.data.iter_mut().zip(&teacher_probs.data) {
                        *x = (*x - tp) * scale;
                    }
                    accumulate(&mut grads[*student_logits], ds);
                }
                Op::Rope {
                    x,
                    n_heads,
                    cos,
                    sin,
                } => {
                    // Rotation is orthogonal: dx = Rᵀ dy = rotation by −θ.
                    let tx = self.value(*x);
                    let head_dim = tx.cols / n_heads;
                    let half = head_dim / 2;
                    let mut da = g;
                    for i in 0..da.rows {
                        let (c, s) = (
                            &cos[i * half..(i + 1) * half],
                            &sin[i * half..(i + 1) * half],
                        );
                        let row = da.row_mut(i);
                        for h in 0..*n_heads {
                            let head = &mut row[h * head_dim..(h + 1) * head_dim];
                            for j in 0..half {
                                let (g0, g1) = (head[2 * j], head[2 * j + 1]);
                                head[2 * j] = g0 * c[j] + g1 * s[j];
                                head[2 * j + 1] = -g0 * s[j] + g1 * c[j];
                            }
                        }
                    }
                    accumulate(&mut grads[*x], da);
                }
                Op::ConcatRows(a, b) => {
                    let p = self.value(*a).rows;
                    let cols = g.cols;
                    let da = Tensor::from_vec(g.data[..p * cols].to_vec(), p, cols);
                    let db = Tensor::from_vec(g.data[p * cols..].to_vec(), g.rows - p, cols);
                    accumulate(&mut grads[*a], da);
                    accumulate(&mut grads[*b], db);
                }
                Op::Attention {
                    q,
                    segments,
                    n_heads,
                } => {
                    let segs = self.segments(segments);
                    let (dq, dkv) = attention_backward(self.value(*q), &segs, *n_heads, &g);
                    accumulate(&mut grads[*q], dq);
                    for (&(k, v, _), (dk, dv)) in segments.iter().zip(dkv) {
                        accumulate(&mut grads[k], dk);
                        accumulate(&mut grads[v], dv);
                    }
                }
            }
        }
        Gradients { grads }
    }
}

/// Add `delta` into a gradient slot, initializing it on first touch.
fn accumulate(slot: &mut Option<Tensor>, delta: Tensor) {
    match slot {
        Some(t) => add_assign(&mut t.data, &delta.data),
        None => *slot = Some(delta),
    }
}

/// Extract head `h`'s `[t, head_dim]` slice from a `[t, dim]` tensor.
fn gather_head(x: &Tensor, h: usize, head_dim: usize) -> Tensor {
    let mut out = Tensor::zeros(x.rows, head_dim);
    for i in 0..x.rows {
        out.row_mut(i)
            .copy_from_slice(&x.row(i)[h * head_dim..(h + 1) * head_dim]);
    }
    out
}

/// Write head `h`'s `[t, head_dim]` slice back into a `[t, dim]` tensor.
fn scatter_head(dst: &mut Tensor, src: &Tensor, h: usize, head_dim: usize) {
    for i in 0..src.rows {
        dst.row_mut(i)[h * head_dim..(h + 1) * head_dim].copy_from_slice(src.row(i));
    }
}

/// Multi-head softmax attention of `q: [t, dim]` over K/V segments, each
/// `(k, v, rule)` with `k`/`v` `[rows, dim]`, pre-projected and pre-rotated,
/// with `1/sqrt(head_dim)` scaling. Per head, each segment's `Q·Kᵀ` is
/// computed once and indexed (the O(t²) path of DESIGN.md §2.8); the
/// segments' scores sit side by side under one softmax per query row, and
/// the output is `P₀·V₀ + P₁·V₁ + …` in segment order. One `UpTo(p)`
/// segment is a decoder layer behind a `p`-row prefix, one `All` segment
/// the vision tower's attention, and `[(target, Before(w)), (draft,
/// Window(w))]` Target-Draft attention.
///
/// Panics when a segment's shape does not fit its rule (see
/// [`Visible`]) and when a query row sees no key in any segment.
pub fn attention(q: &Tensor, segments: &[Segment<'_>], n_heads: usize) -> Tensor {
    let head_dim = attention_head_dim(q, segments, n_heads);
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut out = Tensor::zeros(q.rows, q.cols);
    for h in 0..n_heads {
        let (qh, heads) = gather_heads(q, segments, h, head_dim);
        let p = head_probs(&qh, &heads, scale);
        let (mut oh, mut c0) = (None, 0);
        for (kh, vh, _) in &heads {
            accumulate(&mut oh, col_block(&p, c0, kh.rows).matmul(vh));
            c0 += kh.rows;
        }
        scatter_head(&mut out, &oh.expect("at least one segment"), h, head_dim);
    }
    out
}

/// Check [`attention`]'s inputs against each segment's rule and return
/// `head_dim`: `UpTo(p)` wants `p + t` key rows; `Before(w)` / `Window(w)`
/// (Target-Draft attention) want `t` key rows and `w ≥ 1`.
fn attention_head_dim(q: &Tensor, segments: &[Segment<'_>], n_heads: usize) -> usize {
    let t = q.rows;
    for &(k, v, rule) in segments {
        assert_eq!((k.rows, k.cols), (v.rows, v.cols), "k/v shape mismatch");
        assert_eq!(q.cols, k.cols, "q/k width mismatch");
        match rule {
            Visible::All => {}
            Visible::UpTo(p) => assert_eq!(k.rows, p + t, "k must have prefix+t rows"),
            Visible::Before(w) | Visible::Window(w) => {
                assert_eq!(k.rows, t, "Target-Draft keys must have t rows");
                assert!(w >= 1, "Target-Draft window must be at least 1");
            }
        }
    }
    let head_dim = q.cols / n_heads;
    assert_eq!(head_dim * n_heads, q.cols, "dim must divide into heads");
    head_dim
}

/// Head `h` of `q` and of every segment's K/V, each `[rows, head_dim]`.
fn gather_heads(
    q: &Tensor,
    segments: &[Segment<'_>],
    h: usize,
    head_dim: usize,
) -> (Tensor, Vec<(Tensor, Tensor, Visible)>) {
    let heads = segments
        .iter()
        .map(|&(k, v, rule)| {
            (
                gather_head(k, h, head_dim),
                gather_head(v, h, head_dim),
                rule,
            )
        })
        .collect();
    (gather_head(q, h, head_dim), heads)
}

/// One head's softmax probabilities `[t, Σ key rows]`: each segment's
/// `Q·Kᵀ` is computed once and then only indexed — `dot × scale` where its
/// rule admits the key, `-inf` elsewhere — with the segments side by side
/// in order and one softmax per row. A row that sees no key panics rather
/// than fall into the softmax's uniform fallback.
fn head_probs(qh: &Tensor, heads: &[(Tensor, Tensor, Visible)], scale: f32) -> Tensor {
    let scores: Vec<Tensor> = heads
        .iter()
        .map(|(kh, ..)| qh.matmul_transposed(kh))
        .collect();
    let mut p = Tensor::zeros(qh.rows, scores.iter().map(|s| s.cols).sum());
    for i in 0..p.rows {
        let (row, mut c0, mut seen) = (p.row_mut(i), 0, false);
        for (s, &(.., rule)) in scores.iter().zip(heads) {
            for (j, (x, &d)) in row[c0..c0 + s.cols].iter_mut().zip(s.row(i)).enumerate() {
                let admitted = rule.admits(i, j);
                seen |= admitted;
                *x = if admitted {
                    d * scale
                } else {
                    f32::NEG_INFINITY
                };
            }
            c0 += s.cols;
        }
        assert!(seen, "attention query row {i} sees no key");
        softmax_row(row);
    }
    p
}

/// Columns `c0..c0 + n` of `m` — `m` itself when that is all of it.
fn col_block(m: &Tensor, c0: usize, n: usize) -> Cow<'_, Tensor> {
    if n == m.cols {
        return Cow::Borrowed(m);
    }
    let mut out = Tensor::zeros(m.rows, n);
    for i in 0..m.rows {
        out.row_mut(i).copy_from_slice(&m.row(i)[c0..c0 + n]);
    }
    Cow::Owned(out)
}

/// Backward of [`attention`]. Per head, `P` is recomputed (flash-style)
/// rather than saved on the tape; `dVₛ = Pₛᵀ·G` and `dPₛ = G·Vₛᵀ` side by
/// side; one softmax backward over the whole row (masked entries have
/// `p = 0`, so their score gradient vanishes); `dQ = scale·Σₛ dSₛ·Kₛ` in
/// segment order and `dKₛ = scale·dSₛᵀ·Q`. Returns `dQ` and one `(dK, dV)`
/// per segment.
fn attention_backward(
    q: &Tensor,
    segments: &[Segment<'_>],
    n_heads: usize,
    g: &Tensor,
) -> (Tensor, Vec<(Tensor, Tensor)>) {
    let head_dim = q.cols / n_heads;
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut dq = Tensor::zeros(q.rows, q.cols);
    let mut dkv: Vec<(Tensor, Tensor)> = segments
        .iter()
        .map(|(k, v, _)| (Tensor::zeros(k.rows, k.cols), Tensor::zeros(v.rows, v.cols)))
        .collect();
    for h in 0..n_heads {
        let (qh, heads) = gather_heads(q, segments, h, head_dim);
        let gh = gather_head(g, h, head_dim);
        let p = head_probs(&qh, &heads, scale);
        let (mut ds, mut c0) = (Tensor::zeros(p.rows, p.cols), 0);
        for ((_, vh, _), (_, dv)) in heads.iter().zip(&mut dkv) {
            let dvh = col_block(&p, c0, vh.rows).transpose().matmul(&gh);
            scatter_head(dv, &dvh, h, head_dim);
            let dp = gh.matmul_transposed(vh);
            for i in 0..ds.rows {
                ds.row_mut(i)[c0..c0 + vh.rows].copy_from_slice(dp.row(i));
            }
            c0 += vh.rows;
        }
        for i in 0..ds.rows {
            let (pr, dr) = (p.row(i), ds.row_mut(i));
            let s = dot(dr, pr);
            for (x, &pv) in dr.iter_mut().zip(pr) {
                *x = pv * (*x - s);
            }
        }
        let (mut dqh, mut c0) = (None, 0);
        for ((kh, ..), (dk, _)) in heads.iter().zip(&mut dkv) {
            let dsh = col_block(&ds, c0, kh.rows);
            accumulate(&mut dqh, dsh.matmul(kh));
            let mut dkh = dsh.transpose().matmul(&qh);
            scale_data(&mut dkh, scale);
            scatter_head(dk, &dkh, h, head_dim);
            c0 += kh.rows;
        }
        let mut dqh = dqh.expect("at least one segment");
        scale_data(&mut dqh, scale);
        scatter_head(&mut dq, &dqh, h, head_dim);
    }
    (dq, dkv)
}

/// `t *= s`, elementwise.
fn scale_data(t: &mut Tensor, s: f32) {
    for x in t.data.iter_mut() {
        *x *= s;
    }
}

/// Naive per-position reference for [`attention`]: for every query row it
/// gathers the visible key–value rows of every segment one by one (each
/// rule written as a key range, apart from the op's predicate), scores
/// them with explicit dot products and softmaxes just that set. Same
/// O(t²·d) asymptotics but none of the precomputed-score indexing — tests
/// pin the op against this for every rule, per DESIGN.md §2.8.
pub fn attention_reference(q: &Tensor, segments: &[Segment<'_>], n_heads: usize) -> Tensor {
    let head_dim = attention_head_dim(q, segments, n_heads);
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut out = Tensor::zeros(q.rows, q.cols);
    for h in 0..n_heads {
        let cols = h * head_dim..(h + 1) * head_dim;
        for i in 0..q.rows {
            let (mut keys, mut vals) = (Vec::new(), Vec::new());
            for &(k, v, rule) in segments {
                // Each rule as the key range it leaves visible to row i.
                let visible = match rule {
                    Visible::All => 0..k.rows,
                    Visible::UpTo(p) => 0..p + i + 1,
                    Visible::Before(w) => 0..(i + 1).saturating_sub(w),
                    Visible::Window(w) => (i + 1).saturating_sub(w)..i + 1,
                };
                for j in visible {
                    keys.push(&k.row(j)[cols.clone()]);
                    vals.push(&v.row(j)[cols.clone()]);
                }
            }
            let qi = &q.row(i)[cols.clone()];
            let mut scores: Vec<f32> = keys.iter().map(|kj| dot(qi, kj) * scale).collect();
            softmax_row(&mut scores);
            let oi = &mut out.row_mut(i)[cols.clone()];
            for (p, vj) in scores.iter().zip(&vals) {
                for (o, &x) in oi.iter_mut().zip(*vj) {
                    *o += p * x;
                }
            }
        }
    }
    out
}

/// Backward of row-wise RMS norm (`y = x ⊙ gain / rms(x)`).
fn rms_norm_backward(x: &Tensor, gain: &Tensor, eps: f32, g: &Tensor) -> (Tensor, Tensor) {
    let d = x.cols as f32;
    let mut dx = Tensor::zeros(x.rows, x.cols);
    let mut dgain = Tensor::zeros(1, x.cols);
    for i in 0..x.rows {
        let xr = x.row(i);
        let gr = g.row(i);
        let ms: f32 = xr.iter().map(|v| v * v).sum::<f32>() / d;
        let inv = 1.0 / (ms + eps).sqrt();
        // s = Σⱼ gⱼ · gainⱼ · xⱼ (the shared term from d(1/rms)/dx).
        let mut s = 0.0f32;
        for j in 0..x.cols {
            s += gr[j] * gain.data[j] * xr[j];
            dgain.data[j] += gr[j] * xr[j] * inv;
        }
        let dxr = dx.row_mut(i);
        let c = inv * inv * inv * s / d;
        for j in 0..x.cols {
            dxr[j] = gain.data[j] * inv * gr[j] - c * xr[j];
        }
    }
    (dx, dgain)
}

#[cfg(test)]
mod tests {
    use super::check::{fd_check, weighted_sum};
    use super::*;
    use aasd_tensor::Rng;

    fn randn(rng: &mut Rng, r: usize, c: usize) -> Tensor {
        Tensor::randn(rng, r, c, 1.0)
    }

    /// Random probability rows (for the KL teacher).
    fn prob_rows(rng: &mut Rng, r: usize, c: usize) -> Tensor {
        let mut t = Tensor::zeros(r, c);
        for i in 0..r {
            let row = t.row_mut(i);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = rng.uniform(0.05, 1.0);
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        t
    }

    #[test]
    fn gradcheck_matmul() {
        let mut rng = Rng::new(1);
        let leaves = [randn(&mut rng, 3, 4), randn(&mut rng, 4, 2)];
        fd_check(&leaves, &|tape, ids| {
            let c = tape.matmul(ids[0], ids[1]);
            weighted_sum(tape, c, 0xA1)
        });
    }

    #[test]
    fn gradcheck_add_mul_scale() {
        let mut rng = Rng::new(2);
        let leaves = [randn(&mut rng, 3, 5), randn(&mut rng, 3, 5)];
        fd_check(&leaves, &|tape, ids| {
            let a = tape.add(ids[0], ids[1]);
            let m = tape.mul(a, ids[1]);
            let s = tape.scale(m, 0.7);
            weighted_sum(tape, s, 0xB1)
        });
    }

    #[test]
    fn gradcheck_sum() {
        let mut rng = Rng::new(3);
        let leaves = [randn(&mut rng, 2, 6)];
        fd_check(&leaves, &|tape, ids| tape.sum(ids[0]));
    }

    #[test]
    fn gradcheck_embed_gather() {
        let mut rng = Rng::new(4);
        let leaves = [randn(&mut rng, 6, 3)];
        // Repeated token 2 exercises gradient accumulation in the scatter.
        fd_check(&leaves, &|tape, ids| {
            let e = tape.embed_gather(ids[0], &[2, 0, 5, 2]);
            weighted_sum(tape, e, 0xD1)
        });
    }

    #[test]
    fn gradcheck_silu() {
        let mut rng = Rng::new(5);
        let leaves = [randn(&mut rng, 2, 7)];
        fd_check(&leaves, &|tape, ids| {
            let y = tape.silu(ids[0]);
            weighted_sum(tape, y, 0xE1)
        });
    }

    #[test]
    fn gradcheck_rms_norm() {
        let mut rng = Rng::new(6);
        let leaves = [randn(&mut rng, 3, 6), randn(&mut rng, 1, 6)];
        fd_check(&leaves, &|tape, ids| {
            let y = tape.rms_norm(ids[0], ids[1], 1e-5);
            weighted_sum(tape, y, 0xF1)
        });
    }

    #[test]
    fn gradcheck_cross_entropy() {
        let mut rng = Rng::new(9);
        let leaves = [randn(&mut rng, 4, 6)];
        fd_check(&leaves, &|tape, ids| {
            tape.cross_entropy(ids[0], &[1, 5, 0, 3])
        });
    }

    #[test]
    fn gradcheck_kl_div() {
        let mut rng = Rng::new(10);
        let leaves = [randn(&mut rng, 4, 6)];
        let teacher = prob_rows(&mut rng, 4, 6);
        fd_check(&leaves, &move |tape, ids| {
            tape.kl_div(ids[0], teacher.clone())
        });
    }

    #[test]
    fn gradcheck_rope() {
        let mut rng = Rng::new(11);
        let (t, n_heads, head_dim) = (3, 2, 4);
        let leaves = [randn(&mut rng, t, n_heads * head_dim)];
        // Arbitrary (not necessarily orthogonal) tables still define a
        // linear map; backward must be its exact transpose.
        let cos: Vec<f32> = (0..t * head_dim / 2)
            .map(|_| rng.uniform(-1.0, 1.0))
            .collect();
        let sin: Vec<f32> = (0..t * head_dim / 2)
            .map(|_| rng.uniform(-1.0, 1.0))
            .collect();
        fd_check(&leaves, &move |tape, ids| {
            let y = tape.rope(ids[0], n_heads, cos.clone(), sin.clone());
            weighted_sum(tape, y, 0xE2)
        });
    }

    /// Target-Draft attention's two segments: the target's K/V under
    /// `Before(w)`, then the draft's under `Window(w)`.
    fn td_segments(
        (tk, tv): (VarId, VarId),
        (dk, dv): (VarId, VarId),
        w: usize,
    ) -> [(VarId, VarId, Visible); 2] {
        [(tk, tv, Visible::Before(w)), (dk, dv, Visible::Window(w))]
    }

    /// The attention op under `UpTo(0)`: plain causal self-attention, what
    /// a text decoder's every layer records.
    #[test]
    fn gradcheck_causal_attention() {
        let mut rng = Rng::new(12);
        let (t, dim) = (4, 8);
        let leaves = [
            randn(&mut rng, t, dim),
            randn(&mut rng, t, dim),
            randn(&mut rng, t, dim),
        ];
        fd_check(&leaves, &|tape, ids| {
            let y = tape.attention(ids[0], &[(ids[1], ids[2], Visible::UpTo(0))], 2);
            weighted_sum(tape, y, 0xF2)
        });
    }

    #[test]
    fn gradcheck_concat_rows() {
        let mut rng = Rng::new(17);
        let leaves = [randn(&mut rng, 2, 5), randn(&mut rng, 3, 5)];
        fd_check(&leaves, &|tape, ids| {
            let y = tape.concat_rows(ids[0], ids[1]);
            weighted_sum(tape, y, 0xC3)
        });
    }

    #[test]
    fn gradcheck_prefix_causal_attention() {
        let mut rng = Rng::new(18);
        let (t, p, dim) = (3, 2, 8);
        // Leaves: q [t, dim]; prefix K/V [p, dim]; self K/V [t, dim] —
        // concat_rows builds the [p+t, dim] key/value stacks on the tape,
        // so the prefix rows' gradients flow through the same path the
        // KvProjector training uses.
        let leaves = [
            randn(&mut rng, t, dim),
            randn(&mut rng, p, dim),
            randn(&mut rng, t, dim),
            randn(&mut rng, p, dim),
            randn(&mut rng, t, dim),
        ];
        fd_check(&leaves, &|tape, ids| {
            let k = tape.concat_rows(ids[1], ids[2]);
            let v = tape.concat_rows(ids[3], ids[4]);
            let y = tape.attention(ids[0], &[(k, v, Visible::UpTo(p))], 2);
            weighted_sum(tape, y, 0xD3)
        });
    }

    #[test]
    fn gradcheck_td_attention() {
        let mut rng = Rng::new(21);
        let (t, dim) = (4, 8);
        // Leaves: q, target K/V, draft K/V — all gradient sinks, like the
        // distillation wiring where target rows are tape leaves.
        let leaves = [
            randn(&mut rng, t, dim),
            randn(&mut rng, t, dim),
            randn(&mut rng, t, dim),
            randn(&mut rng, t, dim),
            randn(&mut rng, t, dim),
        ];
        fd_check(&leaves, &|tape, ids| {
            let (target, draft) = ((ids[1], ids[2]), (ids[3], ids[4]));
            let y = tape.attention(ids[0], &td_segments(target, draft, 2), 2);
            weighted_sum(tape, y, 0xA4)
        });
    }

    #[test]
    fn gradcheck_td_attention_window_one() {
        let mut rng = Rng::new(22);
        let (t, dim) = (3, 8);
        // w = 1: each query sees only its own draft key plus all strictly
        // older target keys — the tightest window the loss uses.
        let leaves = [
            randn(&mut rng, t, dim),
            randn(&mut rng, t, dim),
            randn(&mut rng, t, dim),
            randn(&mut rng, t, dim),
            randn(&mut rng, t, dim),
        ];
        fd_check(&leaves, &|tape, ids| {
            let (target, draft) = ((ids[1], ids[2]), (ids[3], ids[4]));
            let y = tape.attention(ids[0], &td_segments(target, draft, 1), 4);
            weighted_sum(tape, y, 0xB4)
        });
    }

    /// The precomputed-score op must match the naive per-position reference
    /// under every rule: `All`, `UpTo(0)`, `UpTo(p)`, and Target-Draft
    /// `Before(w)` + `Window(w)` for windows 1, 2, `t` and `t + 1`, per
    /// DESIGN.md §2.8.
    #[test]
    fn td_attention_matches_naive_reference() {
        let mut rng = Rng::new(23);
        let (t, p, dim, heads) = (5, 3, 8, 2);
        let q = randn(&mut rng, t, dim);
        let tk = randn(&mut rng, t, dim);
        let tv = randn(&mut rng, t, dim);
        let dk = randn(&mut rng, t, dim);
        let dv = randn(&mut rng, t, dim);
        let pk = randn(&mut rng, p + t, dim);
        let pv = randn(&mut rng, p + t, dim);
        let mut cases = vec![
            vec![(&dk, &dv, Visible::All)],
            vec![(&dk, &dv, Visible::UpTo(0))],
            vec![(&pk, &pv, Visible::UpTo(p))],
        ];
        for w in 1..=t + 1 {
            cases.push(vec![
                (&tk, &tv, Visible::Before(w)),
                (&dk, &dv, Visible::Window(w)),
            ]);
        }
        for segments in cases {
            let mut tape = Tape::new();
            let qi = tape.leaf(q.clone());
            let ids: Vec<_> = segments
                .iter()
                .map(|&(k, v, rule)| (tape.leaf(k.clone()), tape.leaf(v.clone()), rule))
                .collect();
            let y = tape.attention(qi, &ids, heads);
            let naive = attention_reference(&q, &segments, heads);
            let rules: Vec<_> = segments.iter().map(|s| s.2).collect();
            for (a, b) in tape.value(y).data.iter().zip(&naive.data) {
                assert!(
                    (a - b).abs() < 1e-5,
                    "optimized {a} vs naive {b} under {rules:?}"
                );
            }
        }
    }

    /// With `window ≥ t` no target key is ever visible, so Target-Draft
    /// attention collapses to causal self-attention over the draft K/V.
    #[test]
    fn td_attention_with_large_window_is_causal_over_draft() {
        let mut rng = Rng::new(24);
        let (t, dim, heads) = (4, 8, 2);
        let q = randn(&mut rng, t, dim);
        let tk = randn(&mut rng, t, dim);
        let tv = randn(&mut rng, t, dim);
        let dk = randn(&mut rng, t, dim);
        let dv = randn(&mut rng, t, dim);
        let mut tape = Tape::new();
        let ids: Vec<VarId> = [&q, &tk, &tv, &dk, &dv]
            .iter()
            .map(|x| tape.leaf((*x).clone()))
            .collect();
        let (target, draft) = ((ids[1], ids[2]), (ids[3], ids[4]));
        let y = tape.attention(ids[0], &td_segments(target, draft, t), heads);
        let c = tape.attention(ids[0], &[(ids[3], ids[4], Visible::UpTo(0))], heads);
        for (a, b) in tape.value(y).data.iter().zip(&tape.value(c).data) {
            assert!((a - b).abs() < 1e-6, "td {a} vs causal {b}");
        }
    }

    /// A draft window of 0 admits no key: the op refuses it instead of
    /// attending over nothing.
    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn attention_window_zero_panics() {
        let x = Tensor::zeros(3, 4);
        attention(&x, &[(&x, &x, Visible::Window(0))], 2);
    }

    /// `Before(w)` alone leaves the first `w` query rows with no key: such
    /// a row panics rather than take the softmax's uniform fallback.
    #[test]
    #[should_panic(expected = "query row 0 sees no key")]
    fn attention_row_that_sees_nothing_panics() {
        let x = Tensor::zeros(3, 4);
        attention(&x, &[(&x, &x, Visible::Before(1))], 2);
    }

    /// Composite graph: every op chained at once still gradchecks — guards
    /// against accumulation bugs at fan-out nodes.
    #[test]
    fn gradcheck_composite_graph() {
        let mut rng = Rng::new(13);
        let leaves = [
            randn(&mut rng, 5, 4),
            randn(&mut rng, 4, 5),
            randn(&mut rng, 1, 5),
        ];
        fd_check(&leaves, &|tape, ids| {
            let e = tape.embed_gather(ids[0], &[0, 3, 1]);
            let h = tape.matmul(e, ids[1]);
            let n = tape.rms_norm(h, ids[2], 1e-5);
            let s = tape.silu(n);
            // `h` consumed twice: rms_norm above and mul below (fan-out).
            let m = tape.mul(s, n);
            tape.cross_entropy(m, &[4, 2, 0])
        });
    }

    #[test]
    fn kl_div_is_zero_when_student_matches_teacher() {
        let mut rng = Rng::new(15);
        let logits = randn(&mut rng, 3, 6);
        let mut teacher = logits.clone();
        softmax_rows(&mut teacher.data, teacher.cols);
        let mut tape = Tape::new();
        let id = tape.leaf(logits);
        let loss = tape.kl_div(id, teacher);
        assert!(tape.value(loss).data[0].abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_ln_vocab() {
        let mut tape = Tape::new();
        let id = tape.leaf(Tensor::zeros(2, 8));
        let loss = tape.cross_entropy(id, &[3, 7]);
        assert!((tape.value(loss).data[0] - (8.0f32).ln()).abs() < 1e-6);
    }

    #[test]
    fn unreached_nodes_have_no_gradient() {
        let mut rng = Rng::new(16);
        let mut tape = Tape::new();
        let a = tape.leaf(randn(&mut rng, 2, 2));
        let b = tape.leaf(randn(&mut rng, 2, 2));
        let _orphan = tape.silu(b);
        let s = tape.sum(a);
        let grads = tape.backward(s);
        assert!(grads.get(a).is_some());
        assert!(grads.get(b).is_none());
    }
}
