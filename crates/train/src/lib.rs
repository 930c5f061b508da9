//! `aasd-train` — the training stack that makes draft/target alignment an
//! *emergent* quantity instead of a seeded accident.
//!
//! AASD's core claim is that speculative-decoding speedups in MLLMs come
//! from *aligning* the draft model to the target, not from the draft's raw
//! quality. This crate supplies the pieces needed to reproduce that claim
//! end to end on the pure-Rust stack:
//!
//! * [`Adam`] — the one optimizer; [`Adam::step`] is the one place a
//!   step's gradients reach the weights, slot by slot in the canonical
//!   visitor order of [`aasd_nn::Decoder::visit_params_mut`];
//! * [`Schedule`] — constant and cosine learning-rate decay;
//! * [`LossSpec`] — next-token cross-entropy and sequence-level KL
//!   distillation against frozen teacher probabilities;
//! * [`train_loop`] — one tape forward (`Decoder::forward_train`), loss,
//!   backward and Adam step per example, for every decoder trained alone:
//!   a text model, or a VLM's language model behind the frozen K/V rows of
//!   its own vision embeddings ([`Example::prefix`], through [`kv_leaves`]);
//! * [`DistillConfig`] — the one run configuration of every trainer.
//!
//! The one teacher (`aasd_mm::teacher_sample`) and the recipes that draw
//! from it live in `aasd-mm` and `aasd-baselines`. Everything is
//! deterministic (SplitMix64 seeds, no external crates).

mod optim;
mod schedule;

pub use optim::Adam;
pub use schedule::Schedule;

use aasd_autograd::{Tape, VarId};
use aasd_nn::{Decoder, KvCache};
use aasd_tensor::{softmax_rows, Rng, Tensor};
use std::ops::Range;

/// What loss to attach to the `[t, vocab]` logits node of one example.
#[derive(Debug, Clone)]
pub enum LossSpec {
    /// Next-token cross-entropy: `targets[i]` is the label for logits row
    /// `i` (so `targets` is usually `inputs` shifted left by one).
    CrossEntropy { targets: Vec<u32> },
    /// Sequence-level KL divergence `KL(teacher ‖ student)` averaged over
    /// rows, against a frozen `[t, vocab]` teacher probability matrix.
    KlDistill { teacher_probs: Tensor },
}

impl LossSpec {
    /// Record this loss on the `[t, vocab]` `logits` node; returns the
    /// scalar loss node.
    pub fn attach(self, tape: &mut Tape, logits: VarId) -> VarId {
        match self {
            LossSpec::CrossEntropy { targets } => tape.cross_entropy(logits, &targets),
            LossSpec::KlDistill { teacher_probs } => tape.kl_div(logits, teacher_probs),
        }
    }
}

/// One training example: an input token sequence plus the loss to minimise
/// on the logits it produces.
#[derive(Debug, Clone)]
pub struct Example {
    pub inputs: Vec<u32>,
    pub loss: LossSpec,
    /// `[p, dim]` embedding rows the inputs follow (a VLM's vision
    /// embeddings), or `None` for a text sequence. The model trains behind
    /// the K/V rows these write at positions `0..p` under its current
    /// weights, held frozen — the training twin of a vision prefill.
    pub prefix: Option<Tensor>,
}

/// Layer `layer`'s cached K/V rows `rows` as two frozen `[rows.len(), dim]`
/// leaves on `tape`: how a cache's rows enter a training graph, as a
/// `Decoder::forward_train` prefix or as an alignment loss's target side.
pub fn kv_leaves(
    tape: &mut Tape,
    cache: &KvCache,
    layer: usize,
    rows: Range<usize>,
) -> (VarId, VarId) {
    let layer = cache.layer(layer);
    assert!(layer.len() >= rows.end, "cache lacks rows {rows:?}");
    let mut k = Tensor::zeros(rows.len(), cache.dim());
    let mut v = Tensor::zeros(rows.len(), cache.dim());
    for (i, pos) in rows.enumerate() {
        k.row_mut(i).copy_from_slice(layer.key(pos));
        v.row_mut(i).copy_from_slice(layer.value(pos));
    }
    (tape.leaf(k), tape.leaf(v))
}

/// Run `steps` optimisation steps on a decoder, pulling one example per
/// step from `next_example` and the learning rate from `schedule`: the
/// example's frozen prefix leaves (if any), tape forward, the example's
/// loss, backward, one [`Adam::step`]. Returns the per-step pre-update
/// losses.
pub fn train_loop(
    model: &mut Decoder,
    opt: &mut Adam,
    schedule: &Schedule,
    steps: usize,
    next_example: &mut dyn FnMut(usize) -> Example,
) -> Vec<f32> {
    let mut losses = Vec::with_capacity(steps);
    for step in 0..steps {
        let ex = next_example(step);
        let mut tape = Tape::new();
        let mut prefix = Vec::new();
        if let Some(embeds) = &ex.prefix {
            let mut cache = model.new_cache();
            model.forward_infer_embeds(embeds, &mut cache);
            prefix = (0..model.cfg.n_layers)
                .map(|l| kv_leaves(&mut tape, &cache, l, 0..embeds.rows))
                .collect();
        }
        let (logits, params) = model.forward_train(&mut tape, &ex.inputs, &prefix);
        let loss = ex.loss.attach(&mut tape, logits);
        losses.push(tape.value(loss).data[0]);
        let grads = tape.backward(loss);
        opt.step(schedule.lr(step), &grads, &params, 0, |f| {
            model.visit_params_mut(f)
        });
    }
    losses
}

/// Sample a seeded uniform random prompt — the synthetic prompt stream of
/// `aasd_mm::distill_hybrid`.
pub fn random_prompt(rng: &mut Rng, len: usize, vocab: usize) -> Vec<u32> {
    (0..len).map(|_| rng.below(vocab) as u32).collect()
}

/// Temperature-sharpen raw `[t, vocab]` teacher logits into the frozen
/// probability rows [`LossSpec::KlDistill`] consumes: divide by `T`, then
/// row-wise softmax. `T < 1` concentrates mass on the teacher's argmax —
/// the quantity greedy speculative acceptance actually measures.
pub fn sharpen_to_probs(mut logits: Tensor, temperature: f32) -> Tensor {
    assert!(temperature > 0.0, "temperature must be positive");
    if temperature != 1.0 {
        for v in &mut logits.data {
            *v /= temperature;
        }
    }
    softmax_rows(&mut logits.data, logits.cols);
    logits
}

/// The one run configuration of every trainer: the hybrid distillation of
/// `aasd-mm` (which names it `HybridDistillConfig`) and the baseline zoo of
/// `aasd-baselines` (`ZooTrainConfig`). A recipe that draws its prompts
/// from a sample source ignores `prompt_len`, and a supervised one
/// `gen_len` and `temperature`.
#[derive(Debug, Clone)]
pub struct DistillConfig {
    /// Optimisation steps (one example each; the zoo's step `i` consumes
    /// train-split sample `i`).
    pub steps: usize,
    /// Random prompt length fed to the teacher per step.
    pub prompt_len: usize,
    /// Greedy continuation length the teacher generates per step.
    pub gen_len: usize,
    /// Learning-rate schedule.
    pub schedule: Schedule,
    /// Distillation temperature for the teacher distribution (1.0 = match
    /// the raw distribution; < 1 sharpens toward the teacher's argmax, the
    /// quantity greedy acceptance actually measures).
    pub temperature: f32,
    /// Seed for the prompt / image stream (train ablation variants with the
    /// same seed so they see identical data), and the zoo's model-init seed.
    pub seed: u64,
}

impl DistillConfig {
    /// A short, deterministic run sized for tests, the `table1` smoke gate
    /// and the benchmark's set-up.
    pub fn smoke(steps: usize, seed: u64) -> Self {
        Self {
            steps,
            prompt_len: 4,
            gen_len: 16,
            schedule: Schedule::Cosine {
                base: 2e-2,
                floor: 2e-3,
                total: steps,
            },
            temperature: 0.2,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aasd_nn::DecoderConfig;

    fn micro(seed: u64) -> Decoder {
        Decoder::new(
            DecoderConfig {
                vocab: 12,
                dim: 8,
                n_heads: 2,
                n_layers: 1,
                ff_hidden: 16,
                max_seq: 24,
                rope_theta: 10_000.0,
            },
            seed,
        )
    }

    /// Adam fits a fixed cross-entropy batch through `train_loop`.
    #[test]
    fn adam_reduces_cross_entropy_faster_than_sgd_here() {
        let inputs = vec![1u32, 5, 3, 9, 2, 7];
        let targets = vec![5u32, 3, 9, 2, 7, 4];
        let ex = Example {
            inputs,
            loss: LossSpec::CrossEntropy { targets },
            prefix: None,
        };
        let mut model = micro(7);
        let sched = Schedule::Constant(2e-2);
        let adam = train_loop(&mut model, &mut Adam::new(), &sched, 30, &mut |_| {
            ex.clone()
        });
        assert!(adam.last().unwrap() < &adam[0]);
    }

    #[test]
    fn kl_distillation_pulls_student_toward_teacher() {
        let teacher = micro(11);
        let mut student = micro(99);
        let inputs = vec![2u32, 8, 1, 6, 4];
        let probs = sharpen_to_probs(
            teacher.forward_infer(&inputs, &mut teacher.new_cache()),
            1.0,
        );
        let ex = Example {
            inputs,
            loss: LossSpec::KlDistill {
                teacher_probs: probs,
            },
            prefix: None,
        };
        let mut opt = Adam::new();
        let sched = Schedule::Constant(1e-2);
        let losses = train_loop(&mut student, &mut opt, &sched, 60, &mut |_| ex.clone());
        // KL is non-negative and should shrink toward 0 on a fixed batch.
        assert!(losses.iter().all(|l| *l >= -1e-6));
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.3),
            "KL failed to shrink: {} -> {}",
            losses[0],
            losses.last().unwrap()
        );
    }

    #[test]
    fn teacher_probs_rows_are_normalised() {
        let teacher = micro(31);
        let p = sharpen_to_probs(
            teacher.forward_infer(&[3, 1, 4], &mut teacher.new_cache()),
            1.0,
        );
        assert_eq!((p.rows, p.cols), (3, teacher.cfg.vocab));
        for r in 0..p.rows {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
        }
    }
}
