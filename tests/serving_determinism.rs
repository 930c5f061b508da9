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

use aasd::mm::{
    draft_for, mm_autoregressive_ws, mm_speculative_ws, Ablation, Image, KvProjector, LlavaSim,
    LlavaSimConfig,
};
use aasd::nn::Decoder;
use aasd::serve::{DecodeMode, Engine, EngineConfig, EngineModel, Request, Status};
use aasd::tensor::{Rng, Workspace};

/// Every request's final status and tokens, in submission order.
type Streams = Vec<(Status, Vec<u32>)>;

/// The served bundle, tiny: a LlavaSim target, its standard AASD draft and
/// a KV projector.
struct Bundle {
    model: Arc<LlavaSim>,
    draft: Arc<Decoder>,
    projector: Arc<KvProjector>,
}

impl Bundle {
    fn new() -> Self {
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
        Self {
            model,
            draft,
            projector,
        }
    }

    /// Serve `reqs` in order on `slots` slots and `workers` threads; returns
    /// every request's final snapshot and the vision cache's (hits, misses).
    fn serve(&self, slots: usize, workers: usize, reqs: &[Request]) -> (Streams, (u64, u64)) {
        let engine = Engine::new(
            EngineModel::Multimodal {
                model: Arc::clone(&self.model),
                draft: Arc::clone(&self.draft),
                projector: Arc::clone(&self.projector),
                ablation: Ablation::projector(),
            },
            EngineConfig {
                slots,
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
        let m = engine.metrics();
        let vision = (m.vision_cache_hits.get(), m.vision_cache_misses.get());
        (handles.iter().map(|h| h.snapshot()).collect(), vision)
    }

    /// The one-shot fused loop `req` must reproduce on its image.
    fn one_shot(&self, req: &Request, ws: &mut Workspace) -> Vec<u32> {
        let vision = &self.model.cfg.vision;
        let img = Image::synthetic(
            &mut Rng::new(req.image_seed.expect("served requests carry an image")),
            vision.n_patches,
            vision.patch_dim,
        );
        match req.mode {
            DecodeMode::Speculative { gamma } => {
                mm_speculative_ws(
                    &self.model,
                    &self.draft,
                    Some(&self.projector),
                    Ablation::projector(),
                    &img,
                    &req.prompt,
                    req.max_new,
                    gamma,
                    ws,
                )
                .0
            }
            DecodeMode::Autoregressive => {
                mm_autoregressive_ws(&self.model, &img, &req.prompt, req.max_new, ws)
            }
        }
    }
}

/// A mixed workload: varying prompts and budgets, speculative at γ 2–5 and
/// autoregressive, over three images that repeat, so the vision cache both
/// misses (the first sight of each) and hits (every later one).
fn workload(n: usize) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let len = 2 + i % 4;
            let prompt: Vec<u32> = (0..len).map(|j| ((i * 13 + j * 7) % 40) as u32).collect();
            Request {
                prompt,
                max_new: 8 + (i * 5) % 20,
                mode: if i % 5 == 4 {
                    DecodeMode::Autoregressive
                } else {
                    DecodeMode::Speculative { gamma: 2 + i % 4 }
                },
                image_seed: Some(100 + (i % 3) as u64),
            }
        })
        .collect()
}

/// Serve the mixed workload at 1 worker and at `workers`: byte-identical
/// streams for every request, every one done, and both vision-cache paths
/// taken on each run.
fn assert_worker_independent(bundle: &Bundle, workers: usize) -> Streams {
    let reqs = workload(10);
    let (one, one_vision) = bundle.serve(3, 1, &reqs);
    let (many, many_vision) = bundle.serve(3, workers, &reqs);
    assert_eq!(one.len(), many.len());
    for (i, (a, b)) in one.iter().zip(&many).enumerate() {
        assert_eq!(
            b.0,
            Status::Done,
            "request {i} not done at {workers} workers"
        );
        assert_eq!(a, b, "request {i} diverged between 1 and {workers} workers");
    }
    for (hits, misses) in [one_vision, many_vision] {
        assert!(hits >= 1, "no vision-cache hit");
        assert!(misses >= 1, "no vision-cache miss");
    }
    one
}

/// 1 worker vs 4 workers: byte-identical streams for every request, and
/// both match the single-request fused loops (ground truth).
#[test]
fn worker_count_never_changes_token_streams() {
    let bundle = Bundle::new();
    let one = assert_worker_independent(&bundle, 4);
    let mut ws = Workspace::new();
    for (i, req) in workload(10).iter().enumerate() {
        let want = bundle.one_shot(req, &mut ws);
        assert_eq!(one[i].1, want, "request {i} != fused loop");
    }
}

/// The shipped worker count is held to the same bar: every stream served
/// at `EngineConfig::default().workers` (the host's core count; two on a
/// two-core host, an odd split of three slots over two threads) is
/// byte-identical to the one-worker run.
#[test]
fn two_worker_streams_match_one_worker() {
    assert_worker_independent(&Bundle::new(), EngineConfig::default().workers);
}

/// Re-running the same submission order reproduces the same streams and
/// the same vision-cache accounting (no hidden clock/thread-id dependence
/// anywhere in the decode or admission path).
#[test]
fn rerun_is_reproducible() {
    let bundle = Bundle::new();
    let reqs = workload(6);
    assert_eq!(bundle.serve(3, 2, &reqs), bundle.serve(3, 2, &reqs));
}

/// Speculative requests on distinct images are equally
/// scheduler-independent: served at 4 workers they match the one-worker
/// run and `mm_speculative_ws`.
#[test]
fn multimodal_streams_are_worker_independent() {
    let bundle = Bundle::new();
    let reqs: Vec<Request> = (0..4u64)
        .map(|i| Request {
            prompt: vec![3 + i as u32, 11, (5 + i * 3) as u32 % 40],
            max_new: 12 + (i as usize) * 3,
            mode: DecodeMode::Speculative { gamma: 3 },
            image_seed: Some(100 + i),
        })
        .collect();
    let (one, _) = bundle.serve(2, 1, &reqs);
    let (four, _) = bundle.serve(2, 4, &reqs);
    assert_eq!(one, four);
    let mut ws = Workspace::new();
    for (req, (status, tokens)) in reqs.iter().zip(&one) {
        assert_eq!(*status, Status::Done);
        let want = bundle.one_shot(req, &mut ws);
        assert_eq!(*tokens, want, "served mm stream != fused mm loop");
    }
}
