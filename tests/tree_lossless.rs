//! Tree-structured speculation through the `aasd` facade: every tree shape
//! must be token-identical to the autoregressive reference (greedy
//! verification accepts a node only when it IS the target argmax, so the
//! committed root-to-leaf path is the AR chain by induction), branching
//! factor 1 must collapse to the linear session byte for byte, the
//! property must hold identically on every compiled kernel tier, and the
//! serving engine's tree mode must reproduce the fused loops.

use aasd::nn::{Decoder, DecoderConfig};
use aasd::specdec::{
    autoregressive_greedy_with_budget_ws, speculative_greedy_with_budget_ws, AcceptanceCalibrator,
    Session, SpecStats, TreeConfig, TreeSession,
};
use aasd::tensor::{best_supported, set_backend, Backend, Rng, Workspace};

fn model(seed: u64, vocab: usize) -> Decoder {
    Decoder::new(DecoderConfig::tiny(vocab), seed)
}

fn prompt(rng: &mut Rng, len: usize, vocab: usize) -> Vec<u32> {
    (0..len).map(|_| rng.below(vocab) as u32).collect()
}

/// Prefill both caches on `p`, then run a text-only tree session to
/// completion.
fn run_tree(
    target: &Decoder,
    draft: &Decoder,
    p: &[u32],
    budget: usize,
    gamma: usize,
    cfg: TreeConfig,
    ws: &mut Workspace,
) -> (Vec<u32>, SpecStats) {
    let mut tc = target.new_cache();
    let mut dc = draft.new_cache();
    let pending = target.prefill_ws(p, &mut tc, ws);
    draft.prefill_ws(p, &mut dc, ws);
    let s = TreeSession::new(target, draft, &tc, &dc, pending, budget, gamma, cfg, 0);
    Session::Tree(s).run(target, &mut tc, Some((draft, &mut dc)), ws)
}

fn tree_cfg(bf: usize, depth: usize, cal: Option<AcceptanceCalibrator>) -> TreeConfig {
    TreeConfig {
        branch_factor: bf,
        max_depth: depth,
        prob_floor: 0.05,
        calibrator: cal,
        branch_threshold: 0.25,
    }
}

/// Every (branch factor, depth, gate) shape over independent draft/target
/// pairs reproduces the autoregressive stream exactly.
#[test]
fn every_tree_shape_matches_autoregressive() {
    let vocab = 48;
    let mut rng = Rng::new(0x7EE);
    let mut ws = Workspace::new();
    for case in 0..3u64 {
        let target = model(300 + case, vocab);
        let draft = model(400 + case, vocab);
        let p = prompt(&mut rng, 3 + case as usize, vocab);
        let budget = 20;
        let reference = autoregressive_greedy_with_budget_ws(&target, &p, budget, &mut ws);
        for bf in [1usize, 2, 3] {
            for depth in [0usize, 2] {
                for cal in [None, Some(AcceptanceCalibrator::neutral())] {
                    let cfg = tree_cfg(bf, depth, cal);
                    let (out, stats) = run_tree(&target, &draft, &p, budget, 4, cfg, &mut ws);
                    assert_eq!(out, reference, "case {case} bf={bf} depth={depth}");
                    assert_eq!(stats.generated, budget);
                    assert!(stats.block_efficiency() >= 1.0);
                }
            }
        }
    }
}

/// Branching factor 1 IS the linear session: identical stream AND
/// identical speculation counters — the tree code path adds nothing.
#[test]
fn branching_factor_one_collapses_to_the_linear_session() {
    let vocab = 48;
    let mut rng = Rng::new(0x7EF);
    let mut ws = Workspace::new();
    let target = model(310, vocab);
    let draft = model(410, vocab);
    for gamma in [1usize, 3, 5] {
        let p = prompt(&mut rng, 4, vocab);
        let (lin_out, lin_stats) =
            speculative_greedy_with_budget_ws(&target, &draft, &p, 24, gamma, &mut ws);
        let linear = TreeConfig::linear();
        let (tree_out, tree_stats) = run_tree(&target, &draft, &p, 24, gamma, linear, &mut ws);
        assert_eq!(tree_out, lin_out, "γ={gamma} stream diverged");
        assert_eq!(tree_stats, lin_stats, "γ={gamma} stats diverged");
    }
}

/// The committed stream is identical on the scalar tier and the best
/// runtime-dispatched tier (the kernels are f32-bitwise-identical, so the
/// tree's accept walk must make the same decisions on both).
#[test]
fn tree_streams_are_identical_across_kernel_tiers() {
    let vocab = 48;
    let target = model(320, vocab);
    let draft = model(420, vocab);
    let p = [3u32, 9, 17, 4];
    let run = || {
        let cfg = tree_cfg(2, 0, Some(AcceptanceCalibrator::neutral()));
        run_tree(&target, &draft, &p, 22, 4, cfg, &mut Workspace::new())
    };
    let prev = aasd::tensor::backend();
    set_backend(Backend::Scalar).expect("scalar tier always available");
    let scalar = run();
    set_backend(best_supported()).expect("best tier is supported by definition");
    let best = run();
    let _ = set_backend(prev);
    assert_eq!(scalar, best, "tree decode diverged across kernel tiers");
}

/// The serving engine's tree mode (`Speculation::Tree`)
/// serves the same streams as the fused linear loop — losslessness means
/// tree and chain agree on every committed token.
#[test]
fn engine_tree_mode_reproduces_fused_streams() {
    use aasd::serve::{
        DecodeMode, Engine, EngineConfig, EngineModel, Request, Speculation, Status,
    };
    use std::sync::Arc;

    let target = Arc::new(model(10, 40));
    let draft = Arc::new(model(20, 40));
    let reqs: Vec<Request> = (0..6)
        .map(|i| Request {
            prompt: (0..(2 + i % 3))
                .map(|j| ((i * 11 + j * 5) % 40) as u32)
                .collect(),
            max_new: 10 + (i * 3) % 12,
            mode: DecodeMode::Speculative { gamma: 2 + i % 3 },
            image_seed: None,
        })
        .collect();
    let run = |workers: usize| {
        let engine = Engine::new(
            EngineModel::Text {
                target: Arc::clone(&target),
                draft: Arc::clone(&draft),
            },
            EngineConfig {
                slots: 2,
                workers,
                max_queue: 16,
                speculation: Speculation::Tree,
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
    assert_eq!(one, run(4), "tree engine diverged across worker counts");
    let mut ws = Workspace::new();
    for (req, (status, tokens)) in reqs.iter().zip(&one) {
        assert_eq!(*status, Status::Done);
        let DecodeMode::Speculative { gamma } = req.mode else {
            unreachable!()
        };
        let (want, _) = speculative_greedy_with_budget_ws(
            &target,
            &draft,
            &req.prompt,
            req.max_new,
            gamma,
            &mut ws,
        );
        assert_eq!(*tokens, want, "tree-served stream != fused linear loop");
    }
}
