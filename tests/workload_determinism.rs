//! Workload determinism and label-consistency gates (PR 10, satellite).
//!
//! The `aasd-data` streams must be **bit-identical** across machines and
//! `AASD_KERNEL` tiers — the renderer and grammar use plain scalar f32
//! arithmetic only, never the dispatched SIMD kernels, so a golden FNV
//! fingerprint pins the entire (image, prompt, reference) stream. `ci.sh`
//! re-runs this test under every kernel tier; a hash change on any tier
//! means data generation silently forked from the committed streams and
//! every committed α/τ number stops being reproducible.

use aasd::data::{grammar, stream_hash, Split, Workload, WorkloadKind};

const SEED: u64 = 0xDA7A_BA5E;
const N_PATCHES: usize = 16;
const PATCH_DIM: usize = 27;

fn wl(kind: WorkloadKind) -> Workload {
    Workload::new(kind, SEED, N_PATCHES, PATCH_DIM)
}

/// Golden stream fingerprints. These must never change on any machine or
/// kernel tier: a changed hash means the generator forked, and every
/// Table 1 number EXPERIMENTS.md records stops being reproducible.
#[test]
fn stream_hashes_match_golden_values() {
    const GOLDEN: [(WorkloadKind, Split, u64); 6] = [
        (WorkloadKind::WildSim, Split::Train, 0xc6d9_1715_0f05_f5e1),
        (WorkloadKind::WildSim, Split::Heldout, 0xa117_0ba7_de81_2cd8),
        (
            WorkloadKind::CocoCapSim,
            Split::Train,
            0x8da9_d037_001a_17ee,
        ),
        (
            WorkloadKind::CocoCapSim,
            Split::Heldout,
            0xf8bb_70d1_68a0_1af8,
        ),
        (WorkloadKind::SqaSim, Split::Train, 0xd19f_39ca_9464_6431),
        (WorkloadKind::SqaSim, Split::Heldout, 0x244a_595f_fd81_352f),
    ];
    for (kind, split, want) in GOLDEN {
        let got = stream_hash(&wl(kind).take(split, 8));
        assert_eq!(
            got,
            want,
            "stream fingerprint drifted: {} {:?} got {got:#018x}",
            kind.name(),
            split
        );
    }
}

/// Same seed ⇒ the same stream, sample for sample, however it is accessed
/// (random access vs iteration, fresh vs reused workload value).
#[test]
fn streams_are_replayable() {
    for kind in WorkloadKind::ALL {
        let a = wl(kind);
        let b = wl(kind);
        for (i, s) in a.iter(Split::Heldout).take(6).enumerate() {
            let r = b.sample(Split::Heldout, i as u64);
            assert_eq!(s.prompt, r.prompt);
            assert_eq!(s.reference, r.reference);
            assert_eq!(s.image.content_hash(), r.image.content_hash());
        }
    }
}

/// Label consistency: every sample's (prompt, reference) pair must be
/// exactly what the grammar emits for that sample's scene — the text is a
/// pure function of the image content, which is the whole point of the
/// synthetic world. Checked property-style over many samples of every
/// workload and split.
#[test]
fn references_are_ground_truth_for_their_scene() {
    for kind in WorkloadKind::ALL {
        let w = wl(kind);
        for split in [Split::Train, Split::Heldout] {
            for s in w.take(split, 24) {
                let mut candidates = vec![
                    (
                        grammar::caption_prompt(),
                        grammar::caption_reference(&s.scene),
                    ),
                    grammar::cot(&s.scene),
                    grammar::vqa_largest(&s.scene),
                ];
                for color in aasd::data::Color::ALL {
                    candidates.push(grammar::vqa_count(&s.scene, color));
                }
                assert!(
                    candidates.contains(&(s.prompt.clone(), s.reference.clone())),
                    "{} {:?}: reference is not the grammar's output for its \
                     scene: {:?} -> {:?}",
                    kind.name(),
                    split,
                    grammar::detokenize(&s.prompt),
                    grammar::detokenize(&s.reference),
                );
            }
        }
    }
}

/// The specialized workloads stay on-task; WildSim really mixes families.
#[test]
fn workload_kinds_have_their_advertised_task_mix() {
    for s in wl(WorkloadKind::CocoCapSim).take(Split::Heldout, 8) {
        assert_eq!(s.prompt, grammar::caption_prompt());
    }
    for s in wl(WorkloadKind::SqaSim).take(Split::Heldout, 8) {
        assert_eq!(
            (s.prompt.clone(), s.reference.clone()),
            grammar::cot(&s.scene)
        );
    }
    let prompts: std::collections::HashSet<Vec<u32>> = wl(WorkloadKind::WildSim)
        .take(Split::Heldout, 32)
        .into_iter()
        .map(|s| s.prompt)
        .collect();
    assert!(
        prompts.len() >= 3,
        "WildSim should mix at least 3 prompt kinds"
    );
}
