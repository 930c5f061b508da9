//! Scheduler determinism: the engine's continuous batching must never
//! change what any request decodes. Same models + same submission order ⇒
//! every request's token stream is identical whether sessions are stepped
//! inline by one worker or swept by several (the ticking thread and the
//! engine's persistent helpers) — and
//! identical to the single-request fused loops.
//!
//! This is the property that makes the serving benchmark meaningful: the
//! spec-vs-AR comparison measures scheduling and verification cost, never
//! output drift.

use std::sync::Arc;

use aasd::mm::{draft_for, Ablation, Image, KvProjector, LlavaSim, LlavaSimConfig};
use aasd::nn::{Decoder, DecoderConfig};
use aasd::serve::{DecodeMode, Engine, EngineConfig, EngineModel, Request, Status};
use aasd::specdec::speculative_greedy_with_budget_ws;
use aasd::tensor::{Rng, Workspace};

/// A mixed workload: varying prompts, budgets, γ, and decode modes.
fn workload(n: usize) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let len = 2 + i % 4;
            let prompt: Vec<u32> = (0..len).map(|j| ((i * 13 + j * 7) % 40) as u32).collect();
            Request {
                prompt,
                max_new: 8 + (i * 5) % 20,
                mode: if i % 4 == 3 {
                    DecodeMode::Autoregressive
                } else {
                    DecodeMode::Speculative { gamma: 2 + i % 4 }
                },
                image_seed: None,
            }
        })
        .collect()
}

fn run_text_engine(workers: usize, reqs: &[Request]) -> Vec<(Status, Vec<u32>)> {
    let target = Arc::new(Decoder::new(DecoderConfig::tiny(40), 10));
    let draft = Arc::new(Decoder::new(DecoderConfig::tiny(40), 20));
    let engine = Engine::new(
        EngineModel::Text { target, draft },
        EngineConfig {
            slots: 3,
            workers,
            max_queue: 64,
            ..EngineConfig::default()
        },
    );
    let handles: Vec<_> = reqs
        .iter()
        .map(|r| engine.submit(r.clone()).expect("admitted"))
        .collect();
    engine.run_until_idle();
    handles.iter().map(|h| h.snapshot()).collect()
}

/// 1 worker vs 4 workers: byte-identical streams for every request.
#[test]
fn worker_count_never_changes_token_streams() {
    let reqs = workload(10);
    let one = run_text_engine(1, &reqs);
    let four = run_text_engine(4, &reqs);
    assert_eq!(one.len(), four.len());
    for (i, (a, b)) in one.iter().zip(&four).enumerate() {
        assert_eq!(a.0, Status::Done, "request {i} not done");
        assert_eq!(a, b, "request {i} diverged between 1 and 4 workers");
    }
    // And both match the single-request fused loop (ground truth).
    let target = Decoder::new(DecoderConfig::tiny(40), 10);
    let draft = Decoder::new(DecoderConfig::tiny(40), 20);
    let mut ws = Workspace::new();
    for (i, req) in reqs.iter().enumerate() {
        if let DecodeMode::Speculative { gamma } = req.mode {
            let (want, _) = speculative_greedy_with_budget_ws(
                &target,
                &draft,
                &req.prompt,
                req.max_new,
                gamma,
                &mut ws,
            );
            assert_eq!(one[i].1, want, "request {i} != fused loop");
        }
    }
}

/// The shipped worker count is held to the same bar: every stream served
/// at `EngineConfig::default().workers` (the host's core count; two on a
/// two-core host, an odd split of three slots over two threads) is
/// byte-identical to the one-worker run.
#[test]
fn two_worker_streams_match_one_worker() {
    let reqs = workload(10);
    let workers = EngineConfig::default().workers;
    let one = run_text_engine(1, &reqs);
    let shipped = run_text_engine(workers, &reqs);
    assert_eq!(one.len(), shipped.len());
    for (i, (a, b)) in one.iter().zip(&shipped).enumerate() {
        assert_eq!(
            b.0,
            Status::Done,
            "request {i} not done at {workers} workers"
        );
        assert_eq!(a, b, "request {i} diverged between 1 and {workers} workers");
    }
}

/// Re-running the same submission order reproduces the same streams
/// (no hidden clock/thread-id dependence anywhere in the decode path).
#[test]
fn rerun_is_reproducible() {
    let reqs = workload(6);
    assert_eq!(run_text_engine(2, &reqs), run_text_engine(2, &reqs));
}

/// Multimodal sessions are equally scheduler-independent: hybrid-cache
/// speculative requests served at 4 workers match `mm_speculative_ws`.
#[test]
fn multimodal_streams_are_worker_independent() {
    use aasd::mm::mm_speculative_ws;
    let cfg = LlavaSimConfig::tiny(40, 96);
    let model = Arc::new(LlavaSim::new(cfg.clone(), 0xC0));
    let draft = Arc::new(draft_for(&cfg, 0xC1));
    let projector = Arc::new(KvProjector::new(
        0xC2,
        draft.cfg.n_layers,
        cfg.lm.n_layers,
        cfg.n_img(),
        cfg.k_slots(),
    ));
    let reqs: Vec<Request> = (0..4u64)
        .map(|i| Request {
            prompt: vec![3 + i as u32, 11, (5 + i * 3) as u32 % 40],
            max_new: 12 + (i as usize) * 3,
            mode: DecodeMode::Speculative { gamma: 3 },
            image_seed: Some(100 + i),
        })
        .collect();
    let run = |workers: usize| {
        let engine = Engine::new(
            EngineModel::Multimodal {
                model: Arc::clone(&model),
                draft: Arc::clone(&draft),
                projector: Arc::clone(&projector),
                ablation: Ablation::projector(),
            },
            EngineConfig {
                slots: 2,
                workers,
                max_queue: 16,
                ..EngineConfig::default()
            },
        );
        let handles: Vec<_> = reqs
            .iter()
            .map(|r| engine.submit(r.clone()).expect("admitted"))
            .collect();
        engine.run_until_idle();
        handles.iter().map(|h| h.snapshot()).collect::<Vec<_>>()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one, four);
    let mut ws = Workspace::new();
    for (req, (status, tokens)) in reqs.iter().zip(&one) {
        assert_eq!(*status, Status::Done);
        let img = Image::synthetic(
            &mut Rng::new(req.image_seed.unwrap()),
            cfg.vision.n_patches,
            cfg.vision.patch_dim,
        );
        let (want, _) = mm_speculative_ws(
            &model,
            &draft,
            Some(&projector),
            Ablation::projector(),
            &img,
            &req.prompt,
            req.max_new,
            3,
            &mut ws,
        );
        assert_eq!(*tokens, want, "served mm stream != fused mm loop");
    }
}
