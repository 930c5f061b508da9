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
//!   backward and Adam step per example, for a text decoder;
//! * [`distill`] — self-data distillation: the target greedily generates
//!   continuations of seeded random prompts, and the draft is trained to
//!   match the target's full next-token distribution on those sequences.
//!
//! Everything is deterministic (SplitMix64 seeds, no external crates), so
//! the root integration test can assert that a distilled draft's empirical
//! acceptance rate α strictly beats the untrained draft's.

mod optim;
mod schedule;

pub use optim::Adam;
pub use schedule::Schedule;

use aasd_autograd::{Tape, VarId};
use aasd_nn::{Decoder, KvCache};
use aasd_specdec::{ArSession, Session};
use aasd_tensor::{softmax_rows, Rng, Tensor, Workspace};

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
}

/// Run `steps` optimisation steps on a text decoder, pulling one example
/// per step from `next_example` and the learning rate from `schedule`:
/// tape forward, the example's loss, backward, one [`Adam::step`]. Returns
/// the per-step pre-update losses.
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
        let (logits, params) = model.forward_train(&mut tape, &ex.inputs, &[]);
        let loss = ex.loss.attach(&mut tape, logits);
        losses.push(tape.value(loss).data[0]);
        let grads = tape.backward(loss);
        opt.step(schedule.lr(step), &grads, &params, 0, |f| {
            model.visit_params_mut(f)
        });
    }
    losses
}

/// The teacher's full next-token distribution over `inputs` — the frozen
/// matrix [`LossSpec::KlDistill`] pins the student against: row-wise
/// softmax of its `[t, vocab]` logits divided by a distillation temperature
/// (Hinton et al. 2015; `1.0` is the raw distribution). `T < 1` sharpens
/// the target toward the teacher's argmax — useful when the teacher is
/// high-entropy and greedy agreement (not distribution matching) is the
/// quantity being optimised, as in speculative-decoding alignment. The
/// logits come from one fused forward over a fresh cache, scratch from `ws`.
pub fn teacher_probs_with_temperature(
    teacher: &Decoder,
    inputs: &[u32],
    temperature: f32,
    ws: &mut Workspace,
) -> Tensor {
    let mut logits = Tensor::zeros(inputs.len(), teacher.cfg.vocab);
    teacher.forward_infer_ws(inputs, &mut teacher.new_cache(), ws, &mut logits.data);
    sharpen_to_probs(logits, temperature)
}

/// Sample a seeded uniform random prompt — the synthetic prompt stream every
/// self-data distillation loop draws from.
pub fn random_prompt(rng: &mut Rng, len: usize, vocab: usize) -> Vec<u32> {
    (0..len).map(|_| rng.below(vocab) as u32).collect()
}

/// The shared synthetic-rollout step used by every self-data distillation
/// loop — text [`distill`], the multimodal `distill_hybrid` in `aasd-mm`,
/// and the baseline-zoo trainers in `aasd-baselines`: greedily continue
/// `pending` over the pre-seeded teacher `cache`, clamping the continuation
/// to the cache's remaining room, and return `prompt ‖ generated` truncated
/// to `max_len` — the token sequence the student trains on.
pub fn rollout_inputs(
    teacher: &Decoder,
    cache: &mut KvCache,
    prompt: &[u32],
    pending: u32,
    gen_len: usize,
    max_len: usize,
    ws: &mut Workspace,
) -> Vec<u32> {
    // The session feeds back all but the final committed token, so the
    // feasible budget is the remaining room plus one (`ArSession` asserts).
    let room = teacher.cfg.max_seq.min(cache.capacity()) + 1 - cache.len();
    let session = ArSession::new(teacher, cache, pending, gen_len.min(room));
    let (gen, _) = Session::Ar(session).run(teacher, cache, None, ws);
    let mut inputs = prompt.to_vec();
    inputs.extend_from_slice(&gen);
    inputs.truncate(max_len);
    inputs
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

/// Configuration for [`distill`].
#[derive(Debug, Clone)]
pub struct DistillConfig {
    /// Optimisation steps (one teacher-generated sequence each).
    pub steps: usize,
    /// Random prompt length fed to the teacher per step.
    pub prompt_len: usize,
    /// Greedy continuation length the teacher generates per step.
    pub gen_len: usize,
    /// Learning-rate schedule.
    pub schedule: Schedule,
    /// Distillation temperature for the teacher distribution (1.0 = match
    /// the raw distribution; < 1 sharpens toward the teacher's argmax).
    pub temperature: f32,
    /// Seed for the prompt stream.
    pub seed: u64,
}

impl DistillConfig {
    /// A short, deterministic run sized for tests and smoke benches.
    pub fn smoke(steps: usize, seed: u64) -> Self {
        Self {
            steps,
            prompt_len: 4,
            gen_len: 12,
            schedule: Schedule::Cosine {
                base: 3e-2,
                floor: 3e-3,
                total: steps,
            },
            temperature: 1.0,
            seed,
        }
    }
}

/// Self-data distillation (the AASD alignment recipe, greedy flavour): per
/// step, draw a seeded random prompt, let the frozen `target` greedily
/// continue it, and train `draft` to match the target's next-token
/// distribution over the whole sequence via sequence-level KL. Uses `opt`
/// for the updates and returns per-step losses.
///
/// Training on the target's *own* greedy rollouts concentrates the
/// student's capacity exactly where speculative decoding will interrogate
/// it, which is what makes the post-distillation acceptance rate α rise.
pub fn distill(
    draft: &mut Decoder,
    target: &Decoder,
    opt: &mut Adam,
    cfg: &DistillConfig,
) -> Vec<f32> {
    let vocab = target.cfg.vocab;
    assert_eq!(draft.cfg.vocab, vocab, "draft/target vocab mismatch");
    let max_seq = draft.cfg.max_seq.min(target.cfg.max_seq);
    assert!(cfg.prompt_len >= 1 && cfg.prompt_len < max_seq);
    let mut rng = Rng::new(cfg.seed);
    let schedule = cfg.schedule.clone();
    // Teacher rollouts and scoring dominate each step's wall-clock; run
    // both on the fused zero-allocation path.
    let mut ws = Workspace::new();
    let budget = cfg.gen_len.min(max_seq - cfg.prompt_len);
    let mut make = |_step: usize| -> Example {
        let prompt = random_prompt(&mut rng, cfg.prompt_len, vocab);
        let mut cache = target.new_cache();
        let pending = target.prefill_ws(&prompt, &mut cache, &mut ws);
        let inputs = rollout_inputs(
            target, &mut cache, &prompt, pending, budget, max_seq, &mut ws,
        );
        let teacher_probs =
            teacher_probs_with_temperature(target, &inputs, cfg.temperature, &mut ws);
        Example {
            inputs,
            loss: LossSpec::KlDistill { teacher_probs },
        }
    };
    train_loop(draft, opt, &schedule, cfg.steps, &mut make)
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

    fn mean(xs: &[f32]) -> f32 {
        xs.iter().sum::<f32>() / xs.len() as f32
    }

    /// FNV-1a over the bits of every per-step loss: the recipe's training
    /// fingerprint, one constant for both kernel tiers.
    fn loss_bits(losses: &[f32]) -> u64 {
        losses.iter().fold(0xcbf2_9ce4_8422_2325, |h, l| {
            (h ^ l.to_bits() as u64).wrapping_mul(0x1000_0000_01b3)
        })
    }

    /// Adam fits a fixed cross-entropy batch through `train_loop`.
    #[test]
    fn adam_reduces_cross_entropy_faster_than_sgd_here() {
        let inputs = vec![1u32, 5, 3, 9, 2, 7];
        let targets = vec![5u32, 3, 9, 2, 7, 4];
        let ex = Example {
            inputs,
            loss: LossSpec::CrossEntropy { targets },
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
        let probs = teacher_probs_with_temperature(&teacher, &inputs, 1.0, &mut Workspace::new());
        let ex = Example {
            inputs,
            loss: LossSpec::KlDistill {
                teacher_probs: probs,
            },
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
    fn distill_smoke_run_lowers_mean_loss() {
        let target = micro(21);
        let mut draft = micro(22);
        let mut opt = Adam::new();
        let cfg = DistillConfig::smoke(24, 0xD15);
        let losses = distill(&mut draft, &target, &mut opt, &cfg);
        assert_eq!(losses.len(), 24);
        let head = mean(&losses[..6]);
        let tail = mean(&losses[losses.len() - 6..]);
        assert!(
            tail < head * 0.8,
            "distillation loss did not trend down: head {head} tail {tail}"
        );
        assert_eq!(
            loss_bits(&losses),
            0xc95d_4ad8_e9da_02b0,
            "training bits moved"
        );
    }

    #[test]
    fn teacher_probs_rows_are_normalised() {
        let teacher = micro(31);
        let p = teacher_probs_with_temperature(&teacher, &[3, 1, 4], 1.0, &mut Workspace::new());
        assert_eq!((p.rows, p.cols), (3, teacher.cfg.vocab));
        for r in 0..p.rows {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
        }
    }
}
