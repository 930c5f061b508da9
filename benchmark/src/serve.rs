//! The engine workloads (`serve-poisson`, `serve-batch`), driven from one
//! event loop on one thread: submit what is due, call `Engine::tick`, read
//! the handles, repeat. No scheduler thread, condvar or client thread
//! exists, so the latencies are the engine's and not the OS scheduler's.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aasd_mm::Ablation;
use aasd_serve::{DecodeMode, Engine, EngineConfig, EngineModel, Request, RequestHandle, Status};

use crate::run::ArmRound;
use crate::setup::{Models, Req};
use crate::trace::{Tracer, NO_REQUEST};

/// A pass that has not drained this long after its last arrival is cut
/// short and its open requests count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// What the loop saw of the serve layer during one pass.
#[derive(Debug, Clone, Default)]
pub struct ServeCounts {
    pub submit_us: Vec<f64>,
    pub tick_us: Vec<f64>,
    /// Tick time over the sessions it stepped: an estimate of one block.
    pub block_est_us: Vec<f64>,
    pub sessions_stepped: u64,
    pub queue_wait_ms: Vec<f64>,
    pub queue_depth_max: u64,
    /// How late the loop submitted each request after it was due.
    pub gen_lag_ms: Vec<f64>,
    pub kv_blocks_peak: u64,
    pub vision_hits: u64,
    pub vision_misses: u64,
    pub rejected: u64,
}

struct Flight {
    idx: usize,
    handle: Arc<RequestHandle>,
    seen: usize,
    running: bool,
}

fn engine_for(models: &Models, slots: usize, max_queue: usize) -> Arc<Engine> {
    Engine::new(
        EngineModel::Multimodal {
            model: Arc::clone(&models.target),
            draft: Arc::clone(&models.draft),
            projector: Arc::clone(&models.projector),
            ablation: Ablation::projector(),
        },
        EngineConfig {
            slots,
            max_queue,
            ..EngineConfig::default()
        },
    )
}

/// Serve `reqs` on a fresh engine: request `i` is submitted once the loop
/// clock passes `due_ns[i]` (all zeros = everything up front), and every
/// time is taken from that due instant.
pub fn pass(
    models: &Models,
    slots: usize,
    reqs: &[Req],
    due_ns: &[u64],
    mode: DecodeMode,
    tr: &mut Tracer,
) -> (ArmRound, ServeCounts) {
    let n = reqs.len();
    assert_eq!(due_ns.len(), n);
    let engine = engine_for(models, slots, n.max(64));
    let metrics = Arc::clone(engine.metrics());
    let total_blocks = metrics.kv_free_blocks_target.get() + metrics.kv_free_blocks_draft.get();

    let mut round = ArmRound {
        first_ns: vec![f64::NAN; n],
        req_ns: vec![f64::NAN; n],
        ..ArmRound::default()
    };
    let mut counts = ServeCounts::default();
    let mut flights: Vec<Flight> = Vec::with_capacity(n);
    let mut next = 0usize;
    let mut last_done_ns = 0u64;
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let deadline_ns = due_ns.last().copied().unwrap_or(0) + DRAIN_LIMIT.as_nanos() as u64;

    loop {
        let now = now_ns();
        while next < n && due_ns[next] <= now {
            let req = &reqs[next];
            let span = tr.begin("serve.submit", next as u32);
            let t = Instant::now();
            let res = engine.submit(Request {
                prompt: req.prompt.clone(),
                max_new: req.max_new,
                mode,
                image_seed: Some(req.image_seed),
            });
            counts.submit_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            tr.end(span);
            counts.gen_lag_ms.push((now - due_ns[next]) as f64 / 1e6);
            match res {
                Ok(handle) => flights.push(Flight {
                    idx: next,
                    handle,
                    seen: 0,
                    running: false,
                }),
                Err(_) => round.failed += 1,
            }
            next += 1;
        }

        let t0 = now_ns();
        let span = tr.begin("serve.tick", NO_REQUEST);
        let worked = engine.tick();
        let t1 = now_ns();
        if worked {
            tr.end(span);
        } else {
            // An idle tick is the loop's spin-wait, not work.
            tr.discard(span);
        }

        if worked {
            let tick_ns = (t1 - t0) as f64;
            round.busy_ns += tick_ns;
            round.parts_ns.push(tick_ns);
            let stepped = metrics.active_sessions.get().max(1);
            counts.tick_us.push(tick_ns / 1e3);
            counts.block_est_us.push(tick_ns / 1e3 / stepped as f64);
            counts.sessions_stepped += stepped;
            counts.queue_depth_max = counts.queue_depth_max.max(metrics.queue_depth.get());
            let free = metrics.kv_free_blocks_target.get() + metrics.kv_free_blocks_draft.get();
            counts.kv_blocks_peak = counts.kv_blocks_peak.max(total_blocks - free);

            // Admission is FIFO, so once a flight is still queued every
            // later one is too: stop reading handles there.
            let mut i = 0;
            while i < flights.len() {
                let f = &mut flights[i];
                let (status, tokens) = f.handle.snapshot();
                if status == Status::Queued {
                    break;
                }
                let due = due_ns[f.idx];
                if !f.running {
                    f.running = true;
                    counts
                        .queue_wait_ms
                        .push(t0.saturating_sub(due) as f64 / 1e6);
                }
                if f.seen == 0 && !tokens.is_empty() {
                    round.first_ns[f.idx] = (t1 - due) as f64;
                }
                f.seen = tokens.len();
                match status {
                    Status::Done => {
                        round.req_ns[f.idx] = (t1 - due) as f64;
                        round.tokens += tokens.len();
                        if tokens != reqs[f.idx].reference {
                            round.failed += 1;
                        }
                        if let Some(stats) = f.handle.stats() {
                            round.stats.merge(&stats);
                        }
                        last_done_ns = t1;
                        flights.remove(i);
                    }
                    Status::Cancelled => {
                        round.failed += 1;
                        flights.remove(i);
                    }
                    Status::Queued | Status::Running => i += 1,
                }
            }
        } else if next == n && flights.is_empty() {
            break;
        }
        if t1 > deadline_ns {
            round.failed += flights.len() + (n - next);
            engine.cancel_all();
            break;
        }
    }

    round.wall_ns = last_done_ns.max(1) as f64;
    counts.vision_hits = metrics.vision_cache_hits.get();
    counts.vision_misses = metrics.vision_cache_misses.get();
    counts.rejected = metrics.requests_rejected.get();
    (round, counts)
}

/// KV positions the engine leases for `reqs` (`prefix + budget − 1` per
/// cache, rounded up to whole blocks) over the positions they end up
/// using; computed from sizes, not measured.
pub fn kv_reserved_over_used(models: &Models, reqs: &[Req]) -> f64 {
    let block = EngineConfig::default().block_size;
    let n_img = models.target.n_img();
    let k_slots = models.target.cfg.k_slots();
    let (mut reserved, mut used) = (0usize, 0usize);
    for r in reqs {
        let text = r.prompt.len() + r.reference.len() - 1;
        for prefix in [n_img, k_slots] {
            used += prefix + text;
            reserved += (prefix + text).div_ceil(block) * block;
        }
    }
    reserved as f64 / used as f64
}
