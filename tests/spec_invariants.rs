//! The session table: every behaviour the speculative loop promises, for
//! each session kind — the chain [`SpecSession`] at a fixed γ and
//! under an [`AdaptiveGamma`] controller that re-picks γ every block —
//! against the [`ArSession`] stream. Random target/draft pairs, γ values,
//! budgets and prompts (including prompts flush against the context
//! window); every [`SpecStats`] invariant must hold and the output must
//! stay lossless.

use aasd::nn::{Decoder, DecoderConfig, KvCache};
use aasd::specdec::{
    autoregressive_greedy_with_budget_ws, AdaptiveGamma, Session, SpecSession, SpecStats, MAX_GAMMA,
};
use aasd::tensor::{Rng, Workspace};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A speculative session kind: the chain at the γ it was given,
/// or the chain whose γ an [`AdaptiveGamma`] controller re-picks per block
/// (the given γ only passes the constructor's bounds check).
#[derive(Debug, Clone, Copy)]
enum Kind {
    Spec,
    Adaptive,
}

const KINDS: [Kind; 2] = [Kind::Spec, Kind::Adaptive];

/// The draft/target cost ratio `c` every adaptive session is given.
const COST_RATIO: f64 = 0.25;

/// The deepest block `kind` may draft when opened at `gamma`: the
/// controller ranges over the whole of `1..MAX_GAMMA`.
fn gamma_bound(kind: Kind, gamma: usize) -> usize {
    match kind {
        Kind::Spec => gamma,
        Kind::Adaptive => MAX_GAMMA - 1,
    }
}

fn model(seed: u64) -> Decoder {
    Decoder::new(DecoderConfig::tiny(32), seed)
}

fn random_prompt(rng: &mut Rng, len: usize, vocab: usize) -> Vec<u32> {
    (0..len).map(|_| rng.below(vocab) as u32).collect()
}

/// Prefill both caches on `prompt` and open a session of `kind` over them.
fn start(
    kind: Kind,
    target: &Decoder,
    draft: &Decoder,
    prompt: &[u32],
    budget: usize,
    gamma: usize,
    ws: &mut Workspace,
) -> (Session, KvCache, KvCache) {
    let mut tc = target.new_cache();
    let mut dc = draft.new_cache();
    let pending = target.prefill_ws(prompt, &mut tc, ws);
    draft.prefill_ws(prompt, &mut dc, ws);
    let mut session = SpecSession::new(target, draft, &tc, &dc, pending, budget, gamma);
    if let Kind::Adaptive = kind {
        session.enable_adaptive_gamma(AdaptiveGamma::new(COST_RATIO));
    }
    (Session::Spec(session), tc, dc)
}

fn run(
    kind: Kind,
    target: &Decoder,
    draft: &Decoder,
    prompt: &[u32],
    budget: usize,
    gamma: usize,
    ws: &mut Workspace,
) -> (Vec<u32>, SpecStats) {
    let (session, mut tc, mut dc) = start(kind, target, draft, prompt, budget, gamma, ws);
    session.run(target, &mut tc, Some((draft, &mut dc)), ws)
}

/// The initial pending token is prefill-decided (`prefill_tokens == 1`), so
/// a budget-1 run emits a token with zero blocks and τ only kicks in once a
/// block has run.
fn check_invariants(stats: &SpecStats, out: &[u32], gamma: usize, case: &str) {
    assert!(
        stats.accepted <= stats.drafted,
        "{case}: accepted {} > drafted {}",
        stats.accepted,
        stats.drafted
    );
    assert_eq!(
        stats.generated,
        out.len(),
        "{case}: generated counter disagrees with emitted tokens"
    );
    assert_eq!(
        stats.prefill_tokens,
        usize::from(!out.is_empty()),
        "{case}: exactly one prefill token"
    );
    assert!(
        stats.acceptance_rate() <= 1.0 + 1e-12,
        "{case}: α {} > 1",
        stats.acceptance_rate()
    );
    assert!(
        stats.block_efficiency() <= (gamma + 1) as f64 + 1e-12,
        "{case}: τ {} > γ+1",
        stats.block_efficiency()
    );
    if out.len() > stats.prefill_tokens {
        assert!(stats.blocks >= 1, "{case}: verified tokens without a block");
        assert!(
            stats.block_efficiency() >= 1.0 - 1e-12,
            "{case}: τ {} < 1",
            stats.block_efficiency()
        );
    }
}

#[test]
fn spec_stats_invariants_hold_across_random_runs() {
    let mut rng = Rng::new(0x51AB);
    let max_seq = DecoderConfig::tiny(32).max_seq;
    let mut ws = Workspace::new();
    for case_idx in 0..24 {
        let target = model(100 + rng.below(6) as u64);
        let draft = model(200 + rng.below(6) as u64);
        let gamma = 1 + rng.below(6);

        // Alternate between interior prompts and prompts flush against the
        // context window, where the extended budget ends on the g = 0 step.
        let boundary = case_idx % 3 == 0;
        let prompt_len = if boundary {
            max_seq - 1 - rng.below(6)
        } else {
            1 + rng.below(20)
        };
        let prompt = random_prompt(&mut rng, prompt_len, 32);
        let max_budget = max_seq + 1 - prompt_len;
        let budget = if boundary {
            max_budget
        } else {
            1 + rng.below(30.min(max_budget))
        };

        let reference = autoregressive_greedy_with_budget_ws(&target, &prompt, budget, &mut ws);
        for kind in KINDS {
            let case = format!(
                "case {case_idx} {kind:?}: prompt_len={prompt_len} γ={gamma} budget={budget}"
            );
            let (out, stats) = run(kind, &target, &draft, &prompt, budget, gamma, &mut ws);
            assert_eq!(out, reference, "{case}: lossless violated");
            assert_eq!(out.len(), budget, "{case}: budget not filled");
            check_invariants(&stats, &out, gamma_bound(kind, gamma), &case);
        }
    }
}

/// KV-capacity boundary sweep: prompts within γ of `max_seq` force the room
/// clamp and the g = 0 fallback, budgets run flush to the
/// `max_seq + 1 − prompt` frontier, and rollback happens at the cache
/// boundary. Lossless and bounded everywhere.
#[test]
fn fused_loop_boundary_sweep_stays_lossless_and_bounded() {
    let mut rng = Rng::new(0xF05D);
    let max_seq = DecoderConfig::tiny(32).max_seq;
    let mut ws = Workspace::new();
    for gamma in [2usize, 5] {
        // Prompts from γ+2 below the window up to flush against it.
        for slack in 1..=gamma + 2 {
            let prompt_len = max_seq - slack;
            let prompt = random_prompt(&mut rng, prompt_len, 32);
            let target = model(300 + slack as u64);
            let draft = model(400 + slack as u64);
            let budget = max_seq + 1 - prompt_len; // fill to the frontier
            let reference = autoregressive_greedy_with_budget_ws(&target, &prompt, budget, &mut ws);
            for kind in KINDS {
                let case = format!("boundary {kind:?}: slack={slack} γ={gamma} budget={budget}");
                let (out, stats) = run(kind, &target, &draft, &prompt, budget, gamma, &mut ws);
                assert_eq!(out, reference, "{case}: lossless violated");
                assert_eq!(out.len(), budget, "{case}: budget not filled");
                check_invariants(&stats, &out, gamma_bound(kind, gamma), &case);
            }
        }
    }
}

/// Stepped by hand to the context frontier: after every step but the last
/// the target cache holds every emitted token but the pending one and the
/// draft cache is level with it (or one deferred row back) — a step that
/// cannot speculate must still advance both — and a last step that drafts
/// nothing is the one-token plain decode.
#[test]
fn boundary_steps_keep_both_caches_in_lockstep() {
    let target = model(40);
    let draft = model(41);
    let max_seq = target.cfg.max_seq;
    let mut rng = Rng::new(7);
    let mut ws = Workspace::new();
    for kind in KINDS {
        let mut plain_tails = 0;
        for prompt_len in [max_seq - 1, max_seq - 2, max_seq - 6] {
            let prompt = random_prompt(&mut rng, prompt_len, 32);
            let budget = max_seq + 1 - prompt_len;
            let reference = autoregressive_greedy_with_budget_ws(&target, &prompt, budget, &mut ws);
            let (mut s, mut tc, mut dc) = start(kind, &target, &draft, &prompt, budget, 5, &mut ws);
            loop {
                let drafted = s.stats().expect("speculative").drafted;
                let r = s.step(&target, &mut tc, Some((&draft, &mut dc)), &mut ws);
                if r.done {
                    if s.stats().expect("speculative").drafted == drafted {
                        assert_eq!(r.committed, 1, "{kind:?}: plain decode emits one token");
                        plain_tails += 1;
                    }
                    break;
                }
                assert_eq!(tc.len(), prompt_len + s.tokens().len() - 1, "{kind:?}");
                let lag = tc.len() - dc.len();
                assert!(lag <= 1, "{kind:?}: draft cache fell {lag} rows behind");
            }
            assert_eq!(s.tokens(), reference, "{kind:?} prompt_len={prompt_len}");
        }
        assert!(plain_tails >= 1, "{kind:?}: the g = 0 step never ran");
    }
}

/// Budget 0 emits nothing, budget 1 only the prefill-decided token (no
/// block), budget 2 one plain decode step with nothing drafted.
#[test]
fn budgets_zero_one_two_on_every_session() {
    let target = model(52);
    let draft = model(53);
    let mut ws = Workspace::new();
    let prompt = [3u32, 1, 4];
    let reference = autoregressive_greedy_with_budget_ws(&target, &prompt, 2, &mut ws);
    for kind in KINDS {
        let (out, stats) = run(kind, &target, &draft, &prompt, 0, 3, &mut ws);
        assert!(out.is_empty(), "{kind:?}");
        assert_eq!(stats, SpecStats::default(), "{kind:?}");

        let (out, stats) = run(kind, &target, &draft, &prompt, 1, 3, &mut ws);
        assert_eq!(out, reference[..1], "{kind:?}");
        assert_eq!((stats.blocks, stats.drafted), (0, 0), "{kind:?}");
        check_invariants(
            &stats,
            &out,
            gamma_bound(kind, 3),
            &format!("{kind:?} budget 1"),
        );

        let (out, stats) = run(kind, &target, &draft, &prompt, 2, 3, &mut ws);
        assert_eq!(out, reference, "{kind:?}");
        assert_eq!((stats.blocks, stats.drafted), (1, 0), "{kind:?}");
        check_invariants(
            &stats,
            &out,
            gamma_bound(kind, 3),
            &format!("{kind:?} budget 2"),
        );
    }
}

/// γ = 1 and γ = MAX_GAMMA − 1 run (the latter with a budget deep enough to
/// fill the stack-built verify block) and stay lossless; γ = 0 and
/// γ = MAX_GAMMA are rejected — by every session kind alike.
#[test]
fn gamma_bounds_are_enforced_by_every_session() {
    let target = model(80);
    let draft = model(81);
    let prompt = [1u32, 2, 3];
    let budget = MAX_GAMMA + 6;
    let mut ws = Workspace::new();
    let reference = autoregressive_greedy_with_budget_ws(&target, &prompt, budget, &mut ws);
    for kind in KINDS {
        for gamma in [1, MAX_GAMMA - 1] {
            let (out, stats) = run(kind, &target, &draft, &prompt, budget, gamma, &mut ws);
            assert_eq!(out, reference, "{kind:?} γ={gamma}");
            check_invariants(
                &stats,
                &out,
                gamma_bound(kind, gamma),
                &format!("{kind:?} γ={gamma}"),
            );
        }
        for gamma in [0, MAX_GAMMA] {
            let refused = catch_unwind(AssertUnwindSafe(|| {
                let mut ws = Workspace::new();
                run(kind, &target, &draft, &prompt, budget, gamma, &mut ws)
            }))
            .is_err();
            assert!(refused, "{kind:?} accepted γ={gamma}");
        }
    }
}

/// When the draft IS the target the greedy chain is never rejected: every
/// session accepts everything it drafts (α = 1). The budget is long enough
/// for the controller's α̂ to saturate at 1 — the singular frontier of its
/// depth formula — so the adaptive chain drafts past the fixed γ's blocks.
#[test]
fn self_draft_maximises_every_counter() {
    let target = model(7);
    let mut ws = Workspace::new();
    let prompt = [3u32, 1, 4];
    let budget = 120;
    let reference = autoregressive_greedy_with_budget_ws(&target, &prompt, budget, &mut ws);
    for kind in KINDS {
        let (out, stats) = run(kind, &target, &target, &prompt, budget, 4, &mut ws);
        assert_eq!(out, reference, "{kind:?}");
        check_invariants(
            &stats,
            &out,
            gamma_bound(kind, 4),
            &format!("{kind:?} self-draft"),
        );
        assert_eq!(stats.accepted, stats.drafted, "{kind:?} must fully accept");
        assert!((stats.acceptance_rate() - 1.0).abs() < 1e-12);
        if let Kind::Adaptive = kind {
            let tau = stats.block_efficiency();
            assert!(
                tau > 5.0,
                "adaptive γ never outgrew the fixed γ = 4: τ {tau}"
            );
        }
    }
}

/// A mixed-α burst: even requests draft with the target itself (α = 1), odd
/// ones with an unrelated model (α ≈ 0). A fixed γ must pick one depth for
/// both halves; the per-session controller retunes each request from its
/// own acceptance history. Scored by the clock-free pass-count efficiency
/// `generated / (blocks + c · drafted)` under the modelled cost ratio, the
/// controller must reach at least 0.98 × the best fixed γ ∈ {1, 2, 3, 5, 8}.
#[test]
fn adaptive_gamma_keeps_pace_with_best_fixed_gamma_on_a_mixed_burst() {
    let target = model(11);
    let stranger = model(12);
    let mut rng = Rng::new(0xB0);
    let mut ws = Workspace::new();
    let budget = 48;
    let prompts: Vec<Vec<u32>> = (0..6).map(|_| random_prompt(&mut rng, 8, 32)).collect();
    let references: Vec<Vec<u32>> = prompts
        .iter()
        .map(|p| autoregressive_greedy_with_budget_ws(&target, p, budget, &mut ws))
        .collect();
    let mut burst = |kind: Kind, gamma: usize| -> f64 {
        let mut merged = SpecStats::default();
        for (i, (prompt, reference)) in prompts.iter().zip(&references).enumerate() {
            let draft = if i % 2 == 0 { &target } else { &stranger };
            let (out, stats) = run(kind, &target, draft, prompt, budget, gamma, &mut ws);
            assert_eq!(&out, reference, "{kind:?} γ={gamma} request {i}");
            merged.merge(&stats);
        }
        merged.generated as f64 / (merged.blocks as f64 + COST_RATIO * merged.drafted as f64)
    };
    let best_fixed = [1, 2, 3, 5, 8]
        .map(|g| burst(Kind::Spec, g))
        .into_iter()
        .fold(f64::NEG_INFINITY, f64::max);
    let adaptive = burst(Kind::Adaptive, 3);
    assert!(
        adaptive >= 0.98 * best_fixed,
        "adaptive efficiency {adaptive:.3} < 0.98 × best fixed {best_fixed:.3}"
    );
}
