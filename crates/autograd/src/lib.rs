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
//! rotation), `prefix_causal_attention` (multi-head causal softmax attention
//! in one node over an optional always-visible K/V prefix, flash-style: the
//! probability matrices are recomputed in backward instead of stored) with
//! `concat_rows` to stack that prefix, which lets the multimodal
//! hybrid-cache draft train end-to-end over a gradient-carrying KV prefix,
//! and `td_attention` for the Target-Draft alignment loss.
//!
//! Every op is validated by a central finite-difference gradient check
//! ([`check::fd_check`]) in this crate's tests; `aasd-nn` additionally
//! FD-checks the whole-decoder graph built by `forward_train`.

pub mod check;

use aasd_tensor::{add_assign, dot, log_softmax_rows, silu, softmax_row, softmax_rows, Tensor};

/// Handle to a node on the tape (index into the node list).
pub type VarId = usize;

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
    /// Causal attention with a `prefix`-row always-visible prefix: `q` is
    /// `[t, dim]`, `k`/`v` are `[prefix+t, dim]`; query `i` attends over
    /// key rows `0..=prefix+i`. With `prefix = 0` this is plain causal
    /// self-attention. This is the training-time mirror of a decoder over
    /// a (possibly pre-seeded) KV cache.
    PrefixCausalAttention {
        q: VarId,
        k: VarId,
        v: VarId,
        n_heads: usize,
        prefix: usize,
    },
    /// Target-draft attention (the training-time `TdAttention` kernel,
    /// DESIGN.md §2.8): draft query `i` with window `w` attends over the
    /// **target** keys at positions `j ≤ i−w` and the **draft** keys at
    /// positions `i−w < j ≤ i`. All five inputs are `[t, dim]`; the draft
    /// key at `j = i` is always visible, so every row has mass. The
    /// optimized forward precomputes `S1 = Q·Kᵀ` and `S2 = Q·K'ᵀ` once per
    /// head and indexes into them (see [`td_probs`]).
    TdAttention {
        q: VarId,
        tk: VarId,
        tv: VarId,
        dk: VarId,
        dv: VarId,
        n_heads: usize,
        window: usize,
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
        for x in value.data.iter_mut() {
            *x *= s;
        }
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

    /// Fused multi-head causal attention over pre-projected, pre-rotated
    /// inputs, where every query also sees a `prefix`-row always-visible
    /// prefix: `q` is `[t, dim]`, `k`/`v` are `[prefix+t, dim]` (prefix rows
    /// first), and query `i` attends over key rows `0..=prefix+i` with
    /// `1/sqrt(head_dim)` scaling. The last `t` rows of `k`/`v` behave
    /// exactly like causal self-attention; `prefix = 0` is the text
    /// decoder's attention.
    ///
    /// With a prefix this is the training-time mirror of decoding over a
    /// pre-seeded KV cache: the prefix rows (projected vision KV in the
    /// AASD hybrid cache) receive gradients, which is what makes the
    /// `KvProjector` trainable end-to-end.
    pub fn prefix_causal_attention(
        &mut self,
        q: VarId,
        k: VarId,
        v: VarId,
        n_heads: usize,
        prefix: usize,
    ) -> VarId {
        let (tq, tk, tv) = (self.value(q), self.value(k), self.value(v));
        assert_eq!((tk.rows, tk.cols), (tv.rows, tv.cols), "k/v shape mismatch");
        assert_eq!(tq.cols, tk.cols, "q/k width mismatch");
        assert_eq!(tk.rows, prefix + tq.rows, "k must have prefix+t rows");
        let head_dim = tq.cols / n_heads;
        assert_eq!(head_dim * n_heads, tq.cols, "dim must divide into heads");
        let t = tq.rows;
        let mut value = Tensor::zeros(t, tq.cols);
        for h in 0..n_heads {
            let qh = gather_head(tq, h, head_dim);
            let kh = gather_head(tk, h, head_dim);
            let vh = gather_head(tv, h, head_dim);
            let p = prefix_causal_probs(&qh, &kh, head_dim, prefix);
            let oh = p.matmul(&vh);
            scatter_head(&mut value, &oh, h, head_dim);
        }
        self.push(
            Op::PrefixCausalAttention {
                q,
                k,
                v,
                n_heads,
                prefix,
            },
            value,
        )
    }

    /// Target-draft attention over pre-projected, pre-rotated inputs, all
    /// `[t, dim]`: draft query `i` attends over target key rows `j ≤ i−w`
    /// and draft key rows `i−w < j ≤ i` (window `w ≥ 1`), with
    /// `1/sqrt(head_dim)` scaling and one softmax over the combined
    /// visible set. This is the alignment kernel distillation uses to pull
    /// the draft's attention geometry toward the target's hidden states:
    /// the recent `w` positions come from the draft itself (mirroring
    /// speculation, where the tail of the context is draft-generated) and
    /// everything older comes from the target. With `w ≥ t` no target row
    /// is ever visible and the op degenerates to causal self-attention
    /// over the draft keys ([`Tape::prefix_causal_attention`] at prefix 0).
    #[allow(clippy::too_many_arguments)]
    pub fn td_attention(
        &mut self,
        q: VarId,
        tk: VarId,
        tv: VarId,
        dk: VarId,
        dv: VarId,
        n_heads: usize,
        window: usize,
    ) -> VarId {
        let (tq, ttk, ttv, tdk, tdv) = (
            self.value(q),
            self.value(tk),
            self.value(tv),
            self.value(dk),
            self.value(dv),
        );
        let shape = (tq.rows, tq.cols);
        assert_eq!(shape, (ttk.rows, ttk.cols), "q/tk shape mismatch");
        assert_eq!(shape, (ttv.rows, ttv.cols), "q/tv shape mismatch");
        assert_eq!(shape, (tdk.rows, tdk.cols), "q/dk shape mismatch");
        assert_eq!(shape, (tdv.rows, tdv.cols), "q/dv shape mismatch");
        assert!(window >= 1, "TdAttention window must be at least 1");
        let head_dim = tq.cols / n_heads;
        assert_eq!(head_dim * n_heads, tq.cols, "dim must divide into heads");
        let t = tq.rows;
        let mut value = Tensor::zeros(t, tq.cols);
        for h in 0..n_heads {
            let qh = gather_head(tq, h, head_dim);
            let tkh = gather_head(ttk, h, head_dim);
            let tvh = gather_head(ttv, h, head_dim);
            let dkh = gather_head(tdk, h, head_dim);
            let dvh = gather_head(tdv, h, head_dim);
            let p = td_probs(&qh, &tkh, &dkh, head_dim, window);
            let (pt, pd) = split_cols(&p, t);
            let mut oh = pt.matmul(&tvh);
            add_assign(&mut oh.data, &pd.matmul(&dvh).data);
            scatter_head(&mut value, &oh, h, head_dim);
        }
        self.push(
            Op::TdAttention {
                q,
                tk,
                tv,
                dk,
                dv,
                n_heads,
                window,
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
                    for x in da.data.iter_mut() {
                        *x *= *s;
                    }
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
                Op::PrefixCausalAttention {
                    q,
                    k,
                    v,
                    n_heads,
                    prefix,
                } => {
                    let (dq, dk, dv) = attention_backward(
                        self.value(*q),
                        self.value(*k),
                        self.value(*v),
                        *n_heads,
                        *prefix,
                        &g,
                    );
                    accumulate(&mut grads[*q], dq);
                    accumulate(&mut grads[*k], dk);
                    accumulate(&mut grads[*v], dv);
                }
                Op::TdAttention {
                    q,
                    tk,
                    tv,
                    dk,
                    dv,
                    n_heads,
                    window,
                } => {
                    let (dq, dtk, dtv, ddk, ddv) = td_attention_backward(
                        self.value(*q),
                        self.value(*tk),
                        self.value(*dk),
                        self.value(*tv),
                        self.value(*dv),
                        *n_heads,
                        *window,
                        &g,
                    );
                    accumulate(&mut grads[*q], dq);
                    accumulate(&mut grads[*tk], dtk);
                    accumulate(&mut grads[*tv], dtv);
                    accumulate(&mut grads[*dk], ddk);
                    accumulate(&mut grads[*dv], ddv);
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

/// Softmax probability matrix `[tq, prefix+tq]` for one head: query `i`
/// sees key columns `0..=prefix+i`. `prefix = 0` is plain causal attention.
fn prefix_causal_probs(qh: &Tensor, kh: &Tensor, head_dim: usize, prefix: usize) -> Tensor {
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut s = qh.matmul_transposed(kh);
    for i in 0..s.rows {
        let row = s.row_mut(i);
        for (j, sv) in row.iter_mut().enumerate() {
            if j > prefix + i {
                *sv = f32::NEG_INFINITY;
            } else {
                *sv *= scale;
            }
        }
        softmax_row(row);
    }
    s
}

/// Backward of [`Tape::prefix_causal_attention`]. The probability
/// matrices are recomputed per head (flash-style) rather than saved on the
/// tape. Shapes: `q` is `[t, dim]`, `k`/`v` are `[prefix+t, dim]`.
fn attention_backward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    n_heads: usize,
    prefix: usize,
    g: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let head_dim = q.cols / n_heads;
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut dq = Tensor::zeros(q.rows, q.cols);
    let mut dk = Tensor::zeros(k.rows, k.cols);
    let mut dv = Tensor::zeros(v.rows, v.cols);
    for h in 0..n_heads {
        let qh = gather_head(q, h, head_dim);
        let kh = gather_head(k, h, head_dim);
        let vh = gather_head(v, h, head_dim);
        let gh = gather_head(g, h, head_dim);
        let p = prefix_causal_probs(&qh, &kh, head_dim, prefix);
        // out = p · vh  ⇒  dvh = pᵀ · gh, dp = gh · vhᵀ.
        let dvh = p.transpose().matmul(&gh);
        let dp = gh.matmul_transposed(&vh);
        // Softmax backward per row; masked entries have p = 0 ⇒ ds = 0.
        let mut ds = dp;
        for i in 0..ds.rows {
            let pr = p.row(i);
            let dr = ds.row_mut(i);
            let s = dot(dr, pr);
            for (x, &pv) in dr.iter_mut().zip(pr) {
                *x = pv * (*x - s);
            }
        }
        // s = scale · qh · khᵀ (masked) ⇒ dqh = scale · ds · kh,
        // dkh = scale · dsᵀ · qh.
        let mut dqh = ds.matmul(&kh);
        for x in dqh.data.iter_mut() {
            *x *= scale;
        }
        let mut dkh = ds.transpose().matmul(&qh);
        for x in dkh.data.iter_mut() {
            *x *= scale;
        }
        scatter_head(&mut dq, &dqh, h, head_dim);
        scatter_head(&mut dk, &dkh, h, head_dim);
        scatter_head(&mut dv, &dvh, h, head_dim);
    }
    (dq, dk, dv)
}

/// Softmax probability matrix `[t, 2t]` for one TdAttention head: columns
/// `0..t` index the target keys, columns `t..2t` the draft keys. Query `i`
/// sees target column `j` iff `j + window ≤ i` and draft column `j` iff
/// `j ≤ i < j + window`. Both score blocks (`S1 = q·tkᵀ`, `S2 = q·dkᵀ`)
/// are computed once up front and only indexed per row — the O(t²)
/// optimized path from DESIGN.md §2.8.
fn td_probs(qh: &Tensor, tkh: &Tensor, dkh: &Tensor, head_dim: usize, window: usize) -> Tensor {
    let scale = 1.0 / (head_dim as f32).sqrt();
    let t = qh.rows;
    let s1 = qh.matmul_transposed(tkh);
    let s2 = qh.matmul_transposed(dkh);
    let mut s = Tensor::zeros(t, 2 * t);
    for i in 0..t {
        let row = s.row_mut(i);
        for j in 0..t {
            row[j] = if j + window <= i {
                s1.row(i)[j] * scale
            } else {
                f32::NEG_INFINITY
            };
            row[t + j] = if j <= i && i < j + window {
                s2.row(i)[j] * scale
            } else {
                f32::NEG_INFINITY
            };
        }
        softmax_row(row);
    }
    s
}

/// Split `[t, 2c]` into two `[t, c]` halves (left | right).
fn split_cols(p: &Tensor, c: usize) -> (Tensor, Tensor) {
    let mut left = Tensor::zeros(p.rows, c);
    let mut right = Tensor::zeros(p.rows, c);
    for i in 0..p.rows {
        let row = p.row(i);
        left.row_mut(i).copy_from_slice(&row[..c]);
        right.row_mut(i).copy_from_slice(&row[c..]);
    }
    (left, right)
}

/// Backward of [`Tape::td_attention`]. Equivalent to masked attention over
/// the stacked key/value matrices `[K; K']`, `[V; V']` (`[2t, dim]` per
/// head) with the TD visibility mask; probabilities are recomputed per head
/// (flash-style), masked entries have `p = 0` so their score gradient
/// vanishes, and the stacked gradients split back to the four K/V inputs.
#[allow(clippy::too_many_arguments)]
fn td_attention_backward(
    q: &Tensor,
    tk: &Tensor,
    dk: &Tensor,
    tv: &Tensor,
    dv: &Tensor,
    n_heads: usize,
    window: usize,
    g: &Tensor,
) -> (Tensor, Tensor, Tensor, Tensor, Tensor) {
    let head_dim = q.cols / n_heads;
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut dq = Tensor::zeros(q.rows, q.cols);
    let mut dtk = Tensor::zeros(tk.rows, tk.cols);
    let mut dtv = Tensor::zeros(tv.rows, tv.cols);
    let mut ddk = Tensor::zeros(dk.rows, dk.cols);
    let mut ddv = Tensor::zeros(dv.rows, dv.cols);
    for h in 0..n_heads {
        let qh = gather_head(q, h, head_dim);
        let tkh = gather_head(tk, h, head_dim);
        let dkh = gather_head(dk, h, head_dim);
        let tvh = gather_head(tv, h, head_dim);
        let dvh = gather_head(dv, h, head_dim);
        let gh = gather_head(g, h, head_dim);
        let p = td_probs(&qh, &tkh, &dkh, head_dim, window);
        let (pt, pd) = split_cols(&p, qh.rows);
        // out = pt·tvh + pd·dvh  ⇒  dtvh = ptᵀ·gh, ddvh = pdᵀ·gh,
        // dp = [gh·tvhᵀ | gh·dvhᵀ].
        let dtvh = pt.transpose().matmul(&gh);
        let ddvh = pd.transpose().matmul(&gh);
        let dpt = gh.matmul_transposed(&tvh);
        let dpd = gh.matmul_transposed(&dvh);
        let mut ds = Tensor::zeros(p.rows, p.cols);
        for i in 0..p.rows {
            let row = ds.row_mut(i);
            row[..qh.rows].copy_from_slice(dpt.row(i));
            row[qh.rows..].copy_from_slice(dpd.row(i));
        }
        // Softmax backward per row over the combined visible set.
        for i in 0..ds.rows {
            let pr = p.row(i);
            let dr = ds.row_mut(i);
            let s = dot(dr, pr);
            for (x, &pv) in dr.iter_mut().zip(pr) {
                *x = pv * (*x - s);
            }
        }
        let (dst, dsd) = split_cols(&ds, qh.rows);
        // s1 = scale·qh·tkhᵀ, s2 = scale·qh·dkhᵀ (masked) ⇒
        // dqh = scale·(dst·tkh + dsd·dkh), dtkh = scale·dstᵀ·qh, ….
        let mut dqh = dst.matmul(&tkh);
        add_assign(&mut dqh.data, &dsd.matmul(&dkh).data);
        for x in dqh.data.iter_mut() {
            *x *= scale;
        }
        let mut dtkh = dst.transpose().matmul(&qh);
        for x in dtkh.data.iter_mut() {
            *x *= scale;
        }
        let mut ddkh = dsd.transpose().matmul(&qh);
        for x in ddkh.data.iter_mut() {
            *x *= scale;
        }
        scatter_head(&mut dq, &dqh, h, head_dim);
        scatter_head(&mut dtk, &dtkh, h, head_dim);
        scatter_head(&mut dtv, &dtvh, h, head_dim);
        scatter_head(&mut ddk, &ddkh, h, head_dim);
        scatter_head(&mut ddv, &ddvh, h, head_dim);
    }
    (dq, dtk, dtv, ddk, ddv)
}

/// Naive per-position reference for [`Tape::td_attention`]: for every query
/// row it gathers the visible target/draft key–value pairs one by one,
/// computes scores with explicit dot products, and softmaxes just that set.
/// Same O(t²·d) asymptotics but none of the precomputed-score indexing —
/// tests pin the optimized kernel against this, per DESIGN.md §2.8.
pub fn td_attention_reference(
    q: &Tensor,
    tk: &Tensor,
    tv: &Tensor,
    dk: &Tensor,
    dv: &Tensor,
    n_heads: usize,
    window: usize,
) -> Tensor {
    assert!(window >= 1, "TdAttention window must be at least 1");
    let head_dim = q.cols / n_heads;
    assert_eq!(head_dim * n_heads, q.cols, "dim must divide into heads");
    let scale = 1.0 / (head_dim as f32).sqrt();
    let t = q.rows;
    let mut out = Tensor::zeros(t, q.cols);
    for h in 0..n_heads {
        let cols = h * head_dim..(h + 1) * head_dim;
        for i in 0..t {
            // Visible set for query i: target rows j ≤ i−w, then draft
            // rows i−w < j ≤ i (at least the draft row j = i).
            let mut keys: Vec<&[f32]> = Vec::new();
            let mut vals: Vec<&[f32]> = Vec::new();
            for j in 0..t {
                if j + window <= i {
                    keys.push(&tk.row(j)[cols.clone()]);
                    vals.push(&tv.row(j)[cols.clone()]);
                }
            }
            for j in 0..t {
                if j <= i && i < j + window {
                    keys.push(&dk.row(j)[cols.clone()]);
                    vals.push(&dv.row(j)[cols.clone()]);
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

    /// The attention op at prefix 0: plain causal self-attention, what a
    /// text decoder's every layer records.
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
            let y = tape.prefix_causal_attention(ids[0], ids[1], ids[2], 2, 0);
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
            let y = tape.prefix_causal_attention(ids[0], k, v, 2, p);
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
            let y = tape.td_attention(ids[0], ids[1], ids[2], ids[3], ids[4], 2, 2);
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
            let y = tape.td_attention(ids[0], ids[1], ids[2], ids[3], ids[4], 4, 1);
            weighted_sum(tape, y, 0xB4)
        });
    }

    /// The optimized precomputed-score kernel must match the naive
    /// per-position reference for every window, per DESIGN.md §2.8.
    #[test]
    fn td_attention_matches_naive_reference() {
        let mut rng = Rng::new(23);
        let (t, dim, heads) = (5, 8, 2);
        let q = randn(&mut rng, t, dim);
        let tk = randn(&mut rng, t, dim);
        let tv = randn(&mut rng, t, dim);
        let dk = randn(&mut rng, t, dim);
        let dv = randn(&mut rng, t, dim);
        for window in 1..=t + 1 {
            let mut tape = Tape::new();
            let ids: Vec<VarId> = [&q, &tk, &tv, &dk, &dv]
                .iter()
                .map(|x| tape.leaf((*x).clone()))
                .collect();
            let y = tape.td_attention(ids[0], ids[1], ids[2], ids[3], ids[4], heads, window);
            let naive = td_attention_reference(&q, &tk, &tv, &dk, &dv, heads, window);
            for (a, b) in tape.value(y).data.iter().zip(&naive.data) {
                assert!(
                    (a - b).abs() < 1e-5,
                    "optimized {a} vs naive {b} at window {window}"
                );
            }
        }
    }

    /// With `window ≥ t` no target key is ever visible, so TdAttention
    /// collapses to causal self-attention over the draft keys/values.
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
        let y = tape.td_attention(ids[0], ids[1], ids[2], ids[3], ids[4], heads, t);
        let c = tape.prefix_causal_attention(ids[0], ids[3], ids[4], heads, 0);
        for (a, b) in tape.value(y).data.iter().zip(&tape.value(c).data) {
            assert!((a - b).abs() < 1e-6, "td {a} vs causal {b}");
        }
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
        teacher.softmax_rows_inplace();
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
