//! `aasd-baselines` — the draft-baseline zoo (DESIGN.md §2.9).
//!
//! Baseline drafts *without* target-KV conditioning are the comparison the
//! field actually makes against aligned speculative decoding (Gagrani et
//! al., "On Speculative Decoding for Multimodal LLMs"; MASSV's self-data
//! distillation recipe). This crate builds the four archetypes of Table 1
//! from the existing `aasd-train` machinery:
//!
//! | system    | student        | supervision                                |
//! |-----------|----------------|--------------------------------------------|
//! | FT-LLaMA  | text `TinyLm`  | cross-entropy on ground-truth references   |
//! | DT-LLaMA  | text `TinyLm`  | KL vs the target's own rollouts            |
//! | FT-LLaVA  | `TinyVlm`      | cross-entropy behind its own vision prefix |
//! | DT-LLaVA  | `TinyVlm`      | MASSV self-data distillation               |
//!
//! plus [`train_aasd_draft`] — the full AASD draft (KV-projector-seeded,
//! jointly distilled, TdAttention-aligned) — and [`eval_system`], the
//! shared lossless speculative evaluation harness that times the decode
//! legs (prefill excluded from both clocks) and asserts every speculative
//! stream token-identical to autoregressive decoding.
//!
//! The text drafts never see the image: their acceptance rate is bounded by
//! how much of the grammar is inferable from text alone, which is exactly
//! the gap the paper's Table 1 quantifies.

use aasd_data::{Sample, Split, Workload};
use aasd_mm::{
    distill_hybrid_with, draft_for_depth, seed_request_draft, teacher_sample, Ablation, Image,
    KvProjector, LlavaSim, LlavaSimConfig, TdAlignConfig, VisionConfig, DRAFT_POLICY,
};
use aasd_nn::{Decoder, DecoderConfig, KvCache};
use aasd_specdec::{ArSession, Session, SpecSession, SpecStats};
use aasd_tensor::Workspace;
use aasd_train::{train_loop, Adam, Example, LossSpec};
use std::time::Instant;

/// The zoo trainers' run configuration: the one trainer config. Step `i`
/// consumes train-split sample `i`, whose prompt replaces `prompt_len`;
/// `seed` also seeds the AASD draft and projector.
pub use aasd_train::DistillConfig as ZooTrainConfig;

/// The `TinyLm` text-draft architecture (the LLaMA-68M/160M analogue): its
/// own width, sharing only the vocabulary with the target.
pub fn tiny_lm_config(vocab: usize, max_seq: usize) -> DecoderConfig {
    DecoderConfig {
        vocab,
        dim: 64,
        n_heads: 4,
        n_layers: 2,
        ff_hidden: 128,
        max_seq,
        rope_theta: 10_000.0,
    }
}

/// The `TinyVlm` multimodal-draft architecture (the LLaVA-tiny analogue):
/// a [`tiny_lm_config`] LM behind its own small vision tower, consuming the
/// same `[n_patches, patch_dim]` images as the target.
pub fn tiny_vlm_config(
    vocab: usize,
    max_seq: usize,
    n_patches: usize,
    patch_dim: usize,
) -> LlavaSimConfig {
    LlavaSimConfig {
        vision: VisionConfig {
            n_patches,
            patch_dim,
            dim: 32,
            n_heads: 2,
            n_layers: 1,
            ff_hidden: 64,
        },
        connector_hidden: 48,
        lm: tiny_lm_config(vocab, max_seq),
    }
}

/// A fresh FT/DT-LLaMA draft: a [`tiny_lm_config`] decoder on the proposer
/// policy the AASD draft runs ([`DRAFT_POLICY`]), so that a walltime
/// comparison between zoo systems compares drafts, not kernels.
pub fn tiny_lm_draft(vocab: usize, max_seq: usize, seed: u64) -> Decoder {
    let mut draft = Decoder::new(tiny_lm_config(vocab, max_seq), seed);
    draft.set_kernel_policy(DRAFT_POLICY);
    draft
}

/// A fresh FT/DT-LLaVA draft: a [`tiny_vlm_config`] model whose LM is on
/// [`DRAFT_POLICY`], like [`tiny_lm_draft`].
pub fn tiny_vlm_draft(
    vocab: usize,
    max_seq: usize,
    n_patches: usize,
    patch_dim: usize,
    seed: u64,
) -> LlavaSim {
    let mut draft = LlavaSim::new(tiny_vlm_config(vocab, max_seq, n_patches, patch_dim), seed);
    draft.set_kernel_policy(DRAFT_POLICY);
    draft
}

/// Ground-truth token sequence of a sample: `prompt ‖ reference`, split into
/// (inputs, shifted targets) for next-token cross-entropy.
fn supervised_pair(sample: &Sample, max_seq: usize) -> (Vec<u32>, Vec<u32>) {
    let mut seq = sample.prompt.clone();
    seq.extend_from_slice(&sample.reference);
    seq.truncate(max_seq);
    let targets = seq[1..].to_vec();
    let inputs = seq[..seq.len() - 1].to_vec();
    (inputs, targets)
}

/// FT-LLaMA: finetune a text-only draft on the workload's ground-truth
/// (prompt ‖ reference) sequences with next-token cross-entropy. The image
/// is never seen — the draft must guess the scene from the prompt alone.
pub fn finetune_text(draft: &mut Decoder, workload: &Workload, cfg: &ZooTrainConfig) -> Vec<f32> {
    let max_seq = draft.cfg.max_seq;
    let mut opt = Adam::new();
    let schedule = cfg.schedule.clone();
    let mut make = |step: usize| -> Example {
        let sample = workload.sample(Split::Train, step as u64);
        let (inputs, targets) = supervised_pair(&sample, max_seq);
        Example {
            inputs,
            loss: LossSpec::CrossEntropy { targets },
            prefix: None,
        }
    };
    train_loop(draft, &mut opt, &schedule, cfg.steps, &mut make)
}

/// DT-LLaMA: distill a text-only draft on the multimodal target's own
/// greedy rollouts (vision-conditioned teacher, blind student) via
/// sequence-level KL.
pub fn distill_text_from_mm(
    draft: &mut Decoder,
    target: &LlavaSim,
    workload: &Workload,
    cfg: &ZooTrainConfig,
) -> Vec<f32> {
    assert_eq!(draft.cfg.vocab, target.cfg.lm.vocab, "vocab mismatch");
    let mut ws = Workspace::new();
    let mut opt = Adam::new();
    let schedule = cfg.schedule.clone();
    let max_text = (target.cfg.lm.max_seq - target.n_img()).min(draft.cfg.max_seq);
    let mut make = |step: usize| -> Example {
        let sample = workload.sample(Split::Train, step as u64);
        let s = teacher_sample(
            target,
            &sample.image,
            &sample.prompt,
            cfg.gen_len,
            max_text,
            cfg.temperature,
            &mut ws,
        );
        Example {
            inputs: s.tokens,
            loss: LossSpec::KlDistill {
                teacher_probs: s.probs,
            },
            prefix: None,
        }
    };
    train_loop(draft, &mut opt, &schedule, cfg.steps, &mut make)
}

/// Train a VLM's **language model** through [`train_loop`] behind its own
/// vision prefix: `next` supplies each step's image, inputs and loss, and
/// the frozen tower and connector turn the image into the example's prefix
/// embedding rows.
fn train_behind_own_vision(
    vlm: &mut LlavaSim,
    cfg: &ZooTrainConfig,
    mut next: impl FnMut(usize) -> (Image, Vec<u32>, LossSpec),
) -> Vec<f32> {
    let LlavaSim {
        vision,
        connector,
        lm,
        ..
    } = vlm;
    let mut make = |step: usize| {
        let (image, inputs, loss) = next(step);
        let prefix = Some(connector.forward(&vision.forward(&image)));
        Example {
            inputs,
            loss,
            prefix,
        }
    };
    train_loop(lm, &mut Adam::new(), &cfg.schedule, cfg.steps, &mut make)
}

/// FT-LLaVA (and target grounding): finetune a VLM's language model on
/// ground-truth references behind its own vision prefix. Also used to
/// ground the Sim targets on a workload so that their rollouts speak the
/// grammar.
pub fn finetune_vlm(vlm: &mut LlavaSim, workload: &Workload, cfg: &ZooTrainConfig) -> Vec<f32> {
    let max_text = vlm.cfg.lm.max_seq - vlm.n_img();
    train_behind_own_vision(vlm, cfg, |step| {
        let sample = workload.sample(Split::Train, step as u64);
        let (inputs, targets) = supervised_pair(&sample, max_text);
        (sample.image, inputs, LossSpec::CrossEntropy { targets })
    })
}

/// DT-LLaVA: MASSV-style self-data distillation — the target generates its
/// own continuations, and the VLM draft (own vision tower, own LM) matches
/// the target's distribution on them via sequence KL.
pub fn distill_vlm_from_mm(
    draft: &mut LlavaSim,
    target: &LlavaSim,
    workload: &Workload,
    cfg: &ZooTrainConfig,
) -> Vec<f32> {
    assert_eq!(draft.cfg.lm.vocab, target.cfg.lm.vocab, "vocab mismatch");
    let mut ws = Workspace::new();
    let max_text =
        (target.cfg.lm.max_seq - target.n_img()).min(draft.cfg.lm.max_seq - draft.n_img());
    train_behind_own_vision(draft, cfg, |step| {
        let sample = workload.sample(Split::Train, step as u64);
        let s = teacher_sample(
            target,
            &sample.image,
            &sample.prompt,
            cfg.gen_len,
            max_text,
            cfg.temperature,
            &mut ws,
        );
        let loss = LossSpec::KlDistill {
            teacher_probs: s.probs,
        };
        (sample.image, s.tokens, loss)
    })
}

/// The full AASD draft: a width-shared two-layer decoder seeded by the KV
/// projector's compressed target vision KV, jointly distilled on workload
/// samples with the TdAttention alignment term. Two layers match the
/// baseline drafts' depth (a one-layer draft cannot form induction heads,
/// so it cannot copy scene words already present in its own context — a
/// structural α ceiling the comparison should not conflate with alignment).
/// Returns (draft, projector).
pub fn train_aasd_draft(
    target: &LlavaSim,
    workload: &Workload,
    cfg: &ZooTrainConfig,
    td: TdAlignConfig,
) -> (Decoder, KvProjector) {
    let mut draft = draft_for_depth(&target.cfg, 2, cfg.seed ^ 0xA5D);
    // Width-aware LR: the width-shared draft inherits the target's dim,
    // wider than the dim-64 baselines the zoo schedule is tuned for.
    let schedule = cfg.schedule.width_scaled(target.cfg.lm.dim);
    let mut projector = KvProjector::new(
        cfg.seed ^ 0x9D0,
        draft.cfg.n_layers,
        target.cfg.lm.n_layers,
        target.cfg.n_img(),
        target.cfg.k_slots(),
    );
    let hcfg = ZooTrainConfig {
        schedule,
        ..cfg.clone()
    };
    let wl = *workload;
    let mut source = move |step: usize, _rng: &mut aasd_tensor::Rng| {
        let s = wl.sample(Split::Train, step as u64);
        (s.image, s.prompt)
    };
    distill_hybrid_with(
        target,
        &mut draft,
        Some(&mut projector),
        Ablation::projector(),
        &hcfg,
        Some(td),
        &mut source,
    );
    (draft, projector)
}

/// One evaluated draft system: what it is determines how its cache is
/// seeded before the shared speculative loop runs.
// A handful of these exist per run, so the size skew between variants is
// irrelevant and boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
pub enum DraftSystem {
    /// FT/DT-LLaMA: a text-only draft; its cache holds the prompt alone.
    Text(Decoder),
    /// FT/DT-LLaVA: a multimodal draft; its cache holds its **own** vision
    /// prefix ∥ prompt.
    Vlm(LlavaSim),
    /// The full AASD draft: its cache is seeded from the **target's**
    /// projected vision KV ∥ prompt.
    Aasd {
        draft: Decoder,
        projector: KvProjector,
    },
}

impl DraftSystem {
    /// The decoder that actually proposes tokens in the speculative loop.
    pub fn draft_lm(&self) -> &Decoder {
        match self {
            DraftSystem::Text(d) => d,
            DraftSystem::Vlm(v) => &v.lm,
            DraftSystem::Aasd { draft, .. } => draft,
        }
    }

    /// Seed this system's draft cache for one request (prefill-side work,
    /// excluded from the decode clocks like the target's own prefill).
    fn seed_cache(
        &self,
        target: &LlavaSim,
        t_cache: &KvCache,
        sample: &Sample,
        ws: &mut Workspace,
    ) -> KvCache {
        let mut d_cache = self.draft_lm().new_cache();
        match self {
            DraftSystem::Text(draft) => {
                draft.prefill_ws(&sample.prompt, &mut d_cache, ws);
            }
            DraftSystem::Vlm(vlm) => {
                vlm.prefill_ws(&sample.image, &sample.prompt, &mut d_cache, ws);
            }
            DraftSystem::Aasd { draft, projector } => {
                seed_request_draft(
                    target,
                    draft,
                    Some(projector),
                    Ablation::projector(),
                    t_cache,
                    &sample.prompt,
                    &mut d_cache,
                    ws,
                );
            }
        }
        d_cache
    }
}

/// One evaluation cell: merged speculative stats plus both decode-leg
/// walltimes (prefill excluded on every arm).
#[derive(Debug, Clone, Default)]
pub struct EvalCell {
    pub stats: SpecStats,
    pub spec_decode_ns: u128,
    pub ar_decode_ns: u128,
}

impl EvalCell {
    /// CPU-walltime speedup ω of the speculative decode leg over the
    /// autoregressive one.
    pub fn cpu_speedup(&self) -> f64 {
        self.ar_decode_ns as f64 / self.spec_decode_ns.max(1) as f64
    }

    pub fn merge(&mut self, other: &EvalCell) {
        self.stats.merge(&other.stats);
        self.spec_decode_ns += other.spec_decode_ns;
        self.ar_decode_ns += other.ar_decode_ns;
    }
}

/// Evaluate one draft system on a batch of workload samples at a fixed
/// speculation depth: for each sample, run the timed autoregressive
/// reference and the timed speculative loop from identical prefills, assert
/// the streams token-identical (greedy speculative decoding is lossless by
/// construction — any divergence is a bug, not a quality tradeoff), and
/// merge the per-sample [`SpecStats`]. `cell.stats.acceptance_rate()` is
/// the α that draft alignment is meant to raise.
///
/// One pooled α hides distribution shift — PR 5 measured α spanning
/// 0.06–1.0 across prompt families while the pooled number looked healthy.
/// Call this once per workload and report each one's α; the cells
/// [`EvalCell::merge`] to the pooled call's counts, so nothing is lost.
pub fn eval_system(
    target: &LlavaSim,
    system: &DraftSystem,
    samples: &[Sample],
    budget: usize,
    gamma: usize,
) -> EvalCell {
    let mut ws = Workspace::new();
    let mut cell = EvalCell::default();
    for sample in samples {
        // Autoregressive reference, decode leg timed.
        let mut t_cache = target.lm.new_cache();
        let pending = target.prefill_ws(&sample.image, &sample.prompt, &mut t_cache, &mut ws);
        let t0 = Instant::now();
        let session = ArSession::new(&target.lm, &t_cache, pending, budget);
        let (ar, _) = Session::Ar(session).run(&target.lm, &mut t_cache, None, &mut ws);
        cell.ar_decode_ns += t0.elapsed().as_nanos();

        // Speculative run from an identical prefill.
        let mut t_cache = target.lm.new_cache();
        let pending = target.prefill_ws(&sample.image, &sample.prompt, &mut t_cache, &mut ws);
        let mut d_cache = system.seed_cache(target, &t_cache, sample, &mut ws);
        let t0 = Instant::now();
        let draft = system.draft_lm();
        let session = SpecSession::new(
            &target.lm, draft, &t_cache, &d_cache, pending, budget, gamma,
        );
        let (spec, stats) = Session::Spec(session).run(
            &target.lm,
            &mut t_cache,
            Some((draft, &mut d_cache)),
            &mut ws,
        );
        cell.spec_decode_ns += t0.elapsed().as_nanos();
        assert_eq!(
            spec, ar,
            "speculative stream diverged from autoregressive reference"
        );
        cell.stats.merge(&stats);
    }
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use aasd_data::WorkloadKind;

    fn workload() -> Workload {
        Workload::new(WorkloadKind::WildSim, 0xBA5E, 8, 12)
    }

    fn target() -> LlavaSim {
        LlavaSim::new(LlavaSimConfig::tiny(aasd_data::VOCAB, 64), 0xB0)
    }

    fn mean(xs: &[f32]) -> f32 {
        xs.iter().sum::<f32>() / xs.len() as f32
    }

    /// FNV-1a over the bits of every per-step loss: the recipe's training
    /// fingerprint, one constant for both kernel tiers.
    fn loss_bits(losses: &[f32]) -> u64 {
        aasd_tensor::fnv1a(losses.iter().map(|l| l.to_bits() as u64))
    }

    #[test]
    fn finetune_text_lowers_loss_on_grammar() {
        let wl = workload();
        let mut draft = Decoder::new(tiny_lm_config(aasd_data::VOCAB, 64), 0xB1);
        let losses = finetune_text(&mut draft, &wl, &ZooTrainConfig::smoke(40, 0xB2));
        assert!(
            mean(&losses[32..]) < mean(&losses[..8]) * 0.8,
            "FT-LLaMA loss flat: {} -> {}",
            mean(&losses[..8]),
            mean(&losses[32..])
        );
        assert_eq!(
            loss_bits(&losses),
            0xc7cf_e2f4_1478_6263,
            "training bits moved"
        );
    }

    #[test]
    fn finetune_vlm_lowers_loss_on_grammar() {
        let wl = workload();
        let mut vlm = LlavaSim::new(tiny_vlm_config(aasd_data::VOCAB, 64, 8, 12), 0xB3);
        let losses = finetune_vlm(&mut vlm, &wl, &ZooTrainConfig::smoke(30, 0xB4));
        assert!(
            mean(&losses[24..]) < mean(&losses[..6]),
            "FT-LLaVA loss flat"
        );
        assert_eq!(
            loss_bits(&losses),
            0x3d7c_4fe0_3b1d_03b1,
            "training bits moved"
        );
    }

    #[test]
    fn distillation_recipes_run_and_stay_finite() {
        let wl = workload();
        let tgt = target();
        let cfg = ZooTrainConfig::smoke(6, 0xB5);
        let mut text = Decoder::new(tiny_lm_config(aasd_data::VOCAB, 64), 0xB6);
        let l1 = distill_text_from_mm(&mut text, &tgt, &wl, &cfg);
        let mut vlm = LlavaSim::new(tiny_vlm_config(aasd_data::VOCAB, 64, 8, 12), 0xB7);
        let l2 = distill_vlm_from_mm(&mut vlm, &tgt, &wl, &cfg);
        assert!(l1.iter().chain(&l2).all(|l| l.is_finite() && *l >= -1e-5));
        let both = [l1, l2].concat();
        assert_eq!(
            loss_bits(&both),
            0xd9b7_9333_b1df_adbd,
            "training bits moved"
        );
    }

    /// One call per workload keeps each group's counts to its own samples
    /// (the workspace one call shares across samples leaks nothing between
    /// them), and the groups' cells merge to the pooled call's counts:
    /// measuring per workload loses nothing, it only refuses to average
    /// away per-workload α differences.
    #[test]
    fn eval_system_per_group_cells_merge_to_the_pooled_call() {
        let tgt = target();
        let (lm_layers, n_img, k) = (tgt.cfg.lm.n_layers, tgt.cfg.n_img(), tgt.cfg.k_slots());
        let system = DraftSystem::Aasd {
            draft: draft_for_depth(&tgt.cfg, 2, 0xBC),
            projector: KvProjector::new(0xBD, 2, lm_layers, n_img, k),
        };
        let wild = workload().take(Split::Heldout, 3);
        let sqa = Workload::new(WorkloadKind::SqaSim, 0xBA5E, 8, 12).take(Split::Heldout, 2);
        let (budget, gamma) = (10, 3);
        let alone = |group: &[Sample]| {
            let mut total = SpecStats::default();
            for s in group {
                total.merge(
                    &eval_system(&tgt, &system, std::slice::from_ref(s), budget, gamma).stats,
                );
            }
            total
        };
        let per_wild = eval_system(&tgt, &system, &wild, budget, gamma);
        let per_sqa = eval_system(&tgt, &system, &sqa, budget, gamma);
        assert_eq!(per_wild.stats.generated, 3 * budget);
        assert_eq!(per_sqa.stats.generated, 2 * budget);
        assert_eq!(per_wild.stats, alone(&wild));
        assert_eq!(per_sqa.stats, alone(&sqa));
        let mut merged = per_wild.clone();
        merged.merge(&per_sqa);
        let pooled = eval_system(&tgt, &system, &[wild, sqa].concat(), budget, gamma);
        assert_eq!(merged.stats, pooled.stats);
    }

    /// Every draft system must decode losslessly (spec ≡ AR) even when the
    /// drafts are untrained — losslessness never depends on alignment.
    #[test]
    fn eval_system_is_lossless_for_every_archetype() {
        let wl = workload();
        let tgt = target();
        let samples = wl.take(Split::Heldout, 2);
        let text = DraftSystem::Text(tiny_lm_draft(aasd_data::VOCAB, 64, 0xB8));
        let vlm = DraftSystem::Vlm(tiny_vlm_draft(aasd_data::VOCAB, 64, 8, 12, 0xB9));
        let (draft, projector) = train_aasd_draft(
            &tgt,
            &wl,
            &ZooTrainConfig::smoke(2, 0xBA),
            TdAlignConfig {
                window: 2,
                weight: 0.3,
            },
        );
        let aasd = DraftSystem::Aasd { draft, projector };
        for system in [&text, &vlm, &aasd] {
            assert_eq!(system.draft_lm().kernel_policy(), DRAFT_POLICY);
            let cell = eval_system(&tgt, system, &samples, 12, 3);
            assert_eq!(cell.stats.generated, 2 * 12);
            assert!(cell.stats.drafted > 0);
            assert!(cell.spec_decode_ns > 0 && cell.ar_decode_ns > 0);
        }
    }
}
