//! The closed-loop, one-stream workloads (`solo-decode`, `solo-prefill`):
//! each request runs alone, composed from the public calls a one-shot
//! caller makes — `prefill_vision_ws` → `prefill_text_ws` →
//! `seed_draft_prefix` → draft prefill → `SpecSession::step_block` until
//! done — with the autoregressive arm on `ArSession::step`.

use std::time::Instant;

use aasd_mm::{seed_draft_prefix, Ablation};
use aasd_specdec::{ArSession, SpecSession};
use aasd_tensor::Workspace;

use crate::run::ArmRound;
use crate::setup::{Models, Req};
use crate::trace::Tracer;

/// One round: every request once on each arm, the two arms of a request
/// back to back so that both see the same state of the machine (its speed
/// wanders on a scale of seconds; a request takes milliseconds). Which arm
/// goes first alternates with the request's index and every second round,
/// so every request is timed in both orders, on traced and untraced rounds
/// alike (those alternate round by round).
pub fn round(
    models: &Models,
    reqs: &[Req],
    gamma: usize,
    round_idx: usize,
    ws: &mut Workspace,
    tr: &mut Tracer,
) -> (ArmRound, ArmRound) {
    let mut spec = ArmRound::with_capacity(reqs.len());
    let mut ar = ArmRound::with_capacity(reqs.len());
    let round_start = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        let id = i as u32;
        if (i + round_idx / 2).is_multiple_of(2) {
            spec_request(models, req, id, gamma, ws, tr, &mut spec);
            ar_request(models, req, id, ws, tr, &mut ar);
        } else {
            ar_request(models, req, id, ws, tr, &mut ar);
            spec_request(models, req, id, gamma, ws, tr, &mut spec);
        }
    }
    // The arms share the round's wall clock: each one's share of it is the
    // time inside its own requests plus half the loop's own overhead.
    let wall_ns = round_start.elapsed().as_nanos() as f64;
    let overhead_ns = wall_ns - spec.busy_ns - ar.busy_ns;
    spec.wall_ns = spec.busy_ns + overhead_ns / 2.0;
    ar.wall_ns = ar.busy_ns + overhead_ns / 2.0;
    (spec, ar)
}

/// One request on the speculative arm.
fn spec_request(
    models: &Models,
    req: &Req,
    id: u32,
    gamma: usize,
    ws: &mut Workspace,
    tr: &mut Tracer,
    round: &mut ArmRound,
) {
    let (target, draft) = (&*models.target, &*models.draft);
    let start = Instant::now();
    let whole = tr.begin("request", id);

    let s = tr.begin("nn.new_cache", id);
    let mut t_cache = target.lm.new_cache();
    let mut d_cache = draft.new_cache();
    tr.end(s);
    let s = tr.begin("mm.prefill_vision", id);
    target.prefill_vision_ws(&req.image, &mut t_cache, ws);
    tr.end(s);
    let s = tr.begin("mm.prefill_text", id);
    let pending = target.prefill_text_ws(&req.prompt, &mut t_cache, ws);
    tr.end(s);
    // The first output token is decided here, before any draft work.
    let first_ns = start.elapsed().as_nanos() as f64;

    let s = tr.begin("mm.seed_draft", id);
    seed_draft_prefix(
        target,
        Some(&models.projector),
        Ablation::projector(),
        &t_cache,
        &mut d_cache,
    );
    tr.end(s);
    let s = tr.begin("mm.draft_prefill", id);
    let mut d_logits = ws.take(req.prompt.len() * draft.cfg.vocab);
    draft.forward_infer_ws(&req.prompt, &mut d_cache, ws, &mut d_logits);
    ws.give(d_logits);
    tr.end(s);

    let mut session = SpecSession::new(
        &target.lm,
        draft,
        &t_cache,
        &d_cache,
        pending,
        req.max_new,
        gamma,
    );
    while !session.is_done() {
        let s = tr.begin("specdec.block", id);
        session.step_block(&target.lm, draft, &mut t_cache, &mut d_cache, ws);
        tr.end(s);
    }
    tr.end(whole);
    let req_ns = start.elapsed().as_nanos() as f64;

    let (tokens, stats) = session.into_parts();
    round.push(req, first_ns, req_ns, &tokens, Some(&stats));
}

/// One request on the autoregressive arm: the same prefill, then one
/// `ArSession::step` per token.
fn ar_request(
    models: &Models,
    req: &Req,
    id: u32,
    ws: &mut Workspace,
    tr: &mut Tracer,
    round: &mut ArmRound,
) {
    let target = &*models.target;
    let start = Instant::now();
    let whole = tr.begin("request.ar", id);
    let s = tr.begin("nn.new_cache", id);
    let mut cache = target.lm.new_cache();
    tr.end(s);
    let s = tr.begin("mm.prefill_vision", id);
    target.prefill_vision_ws(&req.image, &mut cache, ws);
    tr.end(s);
    let s = tr.begin("mm.prefill_text", id);
    let pending = target.prefill_text_ws(&req.prompt, &mut cache, ws);
    tr.end(s);
    let first_ns = start.elapsed().as_nanos() as f64;

    let mut session = ArSession::new(&target.lm, &cache, pending, req.max_new);
    let s = tr.begin("specdec.ar_decode", id);
    while !session.is_done() {
        session.step(&target.lm, &mut cache, ws);
    }
    tr.end(s);
    tr.end(whole);
    let req_ns = start.elapsed().as_nanos() as f64;
    round.push(req, first_ns, req_ns, session.tokens(), None);
}

/// KV positions a one-shot request reserves (two full-window caches) over
/// the positions it ends up using; computed from sizes, not measured.
pub fn kv_reserved_over_used(models: &Models, reqs: &[Req]) -> f64 {
    let k_slots = models.target.cfg.k_slots();
    let n_img = models.target.n_img();
    let reserved = reqs.len() * 2 * crate::setup::MAX_SEQ;
    let used: usize = reqs
        .iter()
        .map(|r| {
            let text = r.prompt.len() + r.reference.len() - 1;
            (n_img + text) + (k_slots + text)
        })
        .sum();
    reserved as f64 / used as f64
}

/// Blocks both caches of one in-flight request hold (a standalone cache is
/// one private block).
pub fn kv_blocks_peak(models: &Models) -> usize {
    models.target.lm.new_cache().n_blocks() + models.draft.new_cache().n_blocks()
}
