//! The three named workloads and their seeded deterministic sample streams.
//!
//! Each [`Workload`] is a pure function `(seed, split, index) → Sample`:
//! random access is O(1), iteration order is the index order, and two
//! workloads with the same parameters emit bit-identical streams on every
//! machine and every `AASD_KERNEL` tier (the renderer and grammar use plain
//! scalar arithmetic only). Train and held-out splits draw from disjoint
//! salted seed streams, so evaluation measures generalization to unseen
//! scenes, not memorization of the training indices.

use crate::grammar;
use crate::scene::{render, Color, Scene};
use aasd_mm::Image;
use aasd_tensor::Rng;

/// Which half of a workload a sample comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    Train,
    Heldout,
}

/// The paper's three evaluation datasets, simulated:
/// * `WildSim` — mixed instruction traffic (captions, VQA, CoT), the
///   LLaVA-in-the-Wild analogue;
/// * `CocoCapSim` — captioning only, the COCO-Caption analogue;
/// * `SqaSim` — chain-of-thought counting, the ScienceQA analogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    WildSim,
    CocoCapSim,
    SqaSim,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::WildSim,
        WorkloadKind::CocoCapSim,
        WorkloadKind::SqaSim,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::WildSim => "WildSim",
            WorkloadKind::CocoCapSim => "CocoCapSim",
            WorkloadKind::SqaSim => "SqaSim",
        }
    }
}

/// One evaluation triple: the rendered image, the text prompt, and the
/// grammar's ground-truth continuation. `scene` is kept for property tests.
#[derive(Debug, Clone)]
pub struct Sample {
    pub image: Image,
    pub prompt: Vec<u32>,
    pub reference: Vec<u32>,
    pub scene: Scene,
}

/// A seeded deterministic workload over (image, prompt, reference) triples.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: WorkloadKind,
    pub seed: u64,
    pub n_patches: usize,
    pub patch_dim: usize,
}

impl Workload {
    pub fn new(kind: WorkloadKind, seed: u64, n_patches: usize, patch_dim: usize) -> Self {
        Self {
            kind,
            seed,
            n_patches,
            patch_dim,
        }
    }

    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// The per-sample RNG: a SplitMix64 stream keyed on (seed, split,
    /// index) via odd-constant mixing, so samples are O(1) random access
    /// and the two splits never share a stream.
    fn sample_rng(&self, split: Split, index: u64) -> Rng {
        let salt: u64 = match split {
            Split::Train => 0x7261_696e_5f73_616c,
            Split::Heldout => 0x6865_6c64_5f73_616c,
        };
        Rng::new(self.seed ^ salt ^ index.wrapping_add(1).wrapping_mul(0x2545_F491_4F6C_DD1D))
    }

    /// The `index`-th sample of `split` — pure and deterministic.
    pub fn sample(&self, split: Split, index: u64) -> Sample {
        let mut rng = self.sample_rng(split, index);
        let scene = Scene::sample(&mut rng);
        // Task choice consumes RNG *before* rendering so image noise stays
        // in lockstep with the task stream.
        let (prompt, reference) = match self.kind {
            WorkloadKind::CocoCapSim => (
                grammar::caption_prompt(),
                grammar::caption_reference(&scene),
            ),
            WorkloadKind::SqaSim => grammar::cot(&scene),
            WorkloadKind::WildSim => match rng.below(4) {
                0 => (
                    grammar::caption_prompt(),
                    grammar::caption_reference(&scene),
                ),
                1 => grammar::vqa_count(&scene, Color::ALL[rng.below(4)]),
                2 => grammar::vqa_largest(&scene),
                _ => grammar::cot(&scene),
            },
        };
        let image = render(&scene, self.n_patches, self.patch_dim, &mut rng);
        Sample {
            image,
            prompt,
            reference,
            scene,
        }
    }

    /// Iterator over `split` starting at index 0.
    pub fn iter(&self, split: Split) -> impl Iterator<Item = Sample> + '_ {
        (0u64..).map(move |i| self.sample(split, i))
    }

    /// The first `n` samples of `split` as a batch.
    pub fn take(&self, split: Split, n: usize) -> Vec<Sample> {
        self.iter(split).take(n).collect()
    }
}

/// FNV-1a over a token stream plus each image's content hash — the golden
/// stream fingerprint the cross-tier determinism test pins.
pub fn stream_hash(samples: &[Sample]) -> u64 {
    fn tokens(ts: &[u32]) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(ts.len() as u64).chain(ts.iter().map(|&t| t as u64))
    }
    aasd_tensor::fnv1a(samples.iter().flat_map(|s| {
        std::iter::once(s.image.content_hash())
            .chain(tokens(&s.prompt))
            .chain(tokens(&s.reference))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl(kind: WorkloadKind) -> Workload {
        Workload::new(kind, 0xDA7A, 16, 27)
    }

    #[test]
    fn samples_are_pure_functions_of_seed_split_index() {
        for kind in WorkloadKind::ALL {
            let w = wl(kind);
            let a = w.sample(Split::Train, 5);
            let b = w.sample(Split::Train, 5);
            assert_eq!(a.prompt, b.prompt);
            assert_eq!(a.reference, b.reference);
            assert_eq!(a.image.content_hash(), b.image.content_hash());
        }
    }

    #[test]
    fn splits_and_indices_differ() {
        let w = wl(WorkloadKind::WildSim);
        let train = stream_hash(&w.take(Split::Train, 8));
        let held = stream_hash(&w.take(Split::Heldout, 8));
        assert_ne!(train, held, "train/held-out streams must be disjoint");
        let shifted: Vec<Sample> = (1..9).map(|i| w.sample(Split::Train, i)).collect();
        assert_ne!(train, stream_hash(&shifted));
    }

    #[test]
    fn specialized_workloads_emit_their_task_only() {
        let cap = wl(WorkloadKind::CocoCapSim);
        for s in cap.take(Split::Train, 6) {
            assert_eq!(s.prompt, grammar::caption_prompt());
            assert_eq!(s.reference, grammar::caption_reference(&s.scene));
        }
        let sqa = wl(WorkloadKind::SqaSim);
        for s in sqa.take(Split::Train, 6) {
            assert_eq!((s.prompt, s.reference), grammar::cot(&s.scene));
        }
    }

    #[test]
    fn wildsim_mixes_tasks() {
        let w = wl(WorkloadKind::WildSim);
        let mut lens = std::collections::HashSet::new();
        for s in w.take(Split::Train, 24) {
            lens.insert(s.prompt.len());
        }
        assert!(lens.len() >= 2, "WildSim should mix task families");
    }

    #[test]
    fn tokens_stay_in_vocab() {
        for kind in WorkloadKind::ALL {
            for s in wl(kind).take(Split::Heldout, 12) {
                for &t in s.prompt.iter().chain(&s.reference) {
                    assert!((t as usize) < grammar::VOCAB);
                }
            }
        }
    }
}
