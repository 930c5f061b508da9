//! The pipelined (AMUSD-style) session: a [`VerifyHalf`] stepped by the
//! scheduler plus a dedicated draft thread that free-runs a speculation
//! chain ahead of it through a lock-free SPSC ring. Commit authority stays
//! with the verify leg, so served streams are byte-identical to the chain
//! session's; only throughput, TTFT and the per-block statistics change.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use aasd_nn::{Decoder, KvCache};
use aasd_specdec::{
    DraftAhead, DraftStep, SpecStats, SpscRing, StepReport, VerifyHalf, CONFIDENCE_STOP, MAX_GAMMA,
};
use aasd_tensor::Workspace;

use crate::metrics::Metrics;

/// Everything a session's draft thread shares with the verify side: the
/// token ring plus control plane. The verify leg owns `depth_cap` (it
/// re-publishes its depth hint each block) and `stop`; the draft thread
/// owns `exited`.
pub(crate) struct DraftLink {
    ring: SpscRing,
    stop: AtomicBool,
    depth_cap: AtomicUsize,
    exited: AtomicBool,
    /// True while the draft is parked at the depth cap / KV capacity —
    /// it cannot deepen the chain, so the verify leg should consume
    /// whatever depth the ring holds instead of waiting for more.
    stalled: AtomicBool,
    /// Park point for the draft thread, an eventcount: the draft samples
    /// the generation before re-checking its condition (a `step` call)
    /// and sleeps only if no notify landed in between, so wakeups cannot
    /// be lost and the sleep needs **no timeout** — a parked draft costs
    /// zero context switches until verify pops, rolls back, or stops it.
    park: Mutex<u64>,
    cv: Condvar,
}

impl DraftLink {
    fn new(depth_cap: usize) -> Self {
        Self {
            ring: SpscRing::new(MAX_GAMMA),
            stop: AtomicBool::new(false),
            depth_cap: AtomicUsize::new(depth_cap),
            exited: AtomicBool::new(false),
            stalled: AtomicBool::new(false),
            park: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Wake the draft thread if it is parked.
    pub(crate) fn notify_draft(&self) {
        *self.park.lock().expect("draft park lock poisoned") += 1;
        self.cv.notify_all();
    }

    /// Generation to sample before checking whether to park.
    fn park_generation(&self) -> u64 {
        *self.park.lock().expect("draft park lock poisoned")
    }

    /// Sleep until the generation moves past `seen` (i.e. a notify that
    /// the sampled condition check could not have observed).
    fn park_until_notified(&self, seen: u64) {
        let mut gen = self.park.lock().expect("draft park lock poisoned");
        while *gen == seen && !self.stop.load(Ordering::Acquire) {
            gen = self.cv.wait(gen).expect("draft park lock poisoned");
        }
    }
}

/// One pipelined session. Budgets ≤ 2 never consume a proposal (the
/// pending commit plus at most one plain decode), so they get no draft
/// thread; the unused draft lease stays with the slot and drops at finish.
pub(crate) struct Pipelined {
    pub(crate) verify: VerifyHalf,
    link: Arc<DraftLink>,
    draft_join: Option<JoinHandle<()>>,
    /// Idle-stall edge detector: counts transitions, not poll iterations.
    was_idle: bool,
}

impl Pipelined {
    /// Wrap a freshly prefilled verify half and, when the budget can use
    /// proposals, move the draft lease out of `d_cache` into a new draft
    /// thread speculating from `pending`. `work_cv` is what the draft
    /// notifies when its chain is as deep as it should get.
    pub(crate) fn start(
        verify: VerifyHalf,
        d_cache: &mut Option<KvCache>,
        pending: u32,
        budget: usize,
        draft: Arc<Decoder>,
        metrics: Arc<Metrics>,
        work_cv: Arc<Condvar>,
    ) -> Self {
        let link = Arc::new(DraftLink::new(verify.depth_hint()));
        let draft_join = (budget >= 3).then(|| {
            let lease = d_cache.take().expect("spec admission leases a draft");
            spawn_draft(draft, lease, pending, Arc::clone(&link), metrics, work_cv)
        });
        Self {
            verify,
            link,
            draft_join,
            was_idle: false,
        }
    }

    /// One verify step against whatever the draft has queued; `None` when
    /// nothing advanced (counted once per idle spell as an idle stall). A
    /// draft that may be waiting on what this step consumed is pushed to
    /// `wakes` for the caller to notify after its sweep.
    pub(crate) fn step(
        &mut self,
        target: &Decoder,
        t_cache: &mut KvCache,
        ws: &mut Workspace,
        metrics: &Metrics,
        wakes: &mut Vec<Arc<DraftLink>>,
    ) -> Option<StepReport> {
        // Depth gate: a verify pass costs one full target weight sweep
        // however shallow the chain, so hold off until the ring carries a
        // full `ready_depth()` chain — unless the draft cannot deepen it
        // (parked at its KV frontier, stopped, or never spawned), where
        // waiting would idle forever.
        let link = &self.link;
        let draft_blocked = self.draft_join.is_none()
            || link.stalled.load(Ordering::Acquire)
            || link.exited.load(Ordering::Acquire);
        let gated = !draft_blocked && link.ring.len() < self.verify.ready_depth();
        let report = (!gated).then(|| {
            let report = self.verify.try_step_block(target, t_cache, &link.ring, ws);
            // Re-publish the depth budget every block so AdaptiveGamma
            // keeps bounding the in-flight speculation.
            link.depth_cap
                .store(self.verify.depth_hint(), Ordering::Relaxed);
            report
        });
        let Some(report) = report.filter(|r| r.progressed) else {
            if !self.was_idle {
                self.was_idle = true;
                metrics.verify_idle_stalls.inc();
            }
            return None;
        };
        self.was_idle = false;
        if report.rolled_back {
            metrics.draft_rollbacks.inc();
        }
        if report.depth > 0 {
            metrics.speculation_depth.record_ms(report.depth as f64);
        }
        // Any consumed ring token (pops, an expect-resolution, a rollback)
        // can be what a parked draft is waiting on — and parks are untimed,
        // so a missed wake here is a livelock, not a latency blip. Wake
        // unconditionally on progress.
        wakes.push(Arc::clone(link));
        Some(StepReport {
            committed: report.committed,
            done: report.done,
        })
    }

    /// Stop the draft thread and join it, bounded by `deadline`, then yield
    /// the session's counters. `notify_draft` bumps the park generation so
    /// a parked draft wakes immediately and real joins complete in
    /// microseconds; if the bound is ever exceeded the handle is dropped
    /// (the thread detaches and exits on its next stop check) instead of
    /// wedging shutdown.
    pub(crate) fn stop(self, deadline: Instant) -> SpecStats {
        if let Some(handle) = self.draft_join {
            self.link.stop.store(true, Ordering::Release);
            self.link.notify_draft();
            while !self.link.exited.load(Ordering::Acquire) && Instant::now() < deadline {
                std::thread::yield_now();
            }
            if self.link.exited.load(Ordering::Acquire) {
                let _ = handle.join();
            }
        }
        self.verify.into_parts().1
    }
}

/// Spawn a session's dedicated draft worker. It owns the draft lease
/// (returned to the pool when the thread exits), free-runs the speculation
/// chain up to the published depth cap, and honors rollbacks before
/// anything else.
fn spawn_draft(
    draft: Arc<Decoder>,
    mut d_cache: KvCache,
    pending: u32,
    link: Arc<DraftLink>,
    metrics: Arc<Metrics>,
    work_cv: Arc<Condvar>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("aasd-draft".into())
        .spawn(move || {
            let mut ws = Workspace::new();
            let mut ahead = DraftAhead::new(&mut d_cache, pending);
            ahead.set_confidence_threshold(CONFIDENCE_STOP);
            let mut stalled = false;
            while !link.stop.load(Ordering::Acquire) {
                // Eventcount order matters: sample the generation BEFORE
                // the condition check inside `step`, so a notify racing the
                // check bumps the generation and the park below returns
                // immediately instead of sleeping through it.
                let gen = link.park_generation();
                let cap = link.depth_cap.load(Ordering::Relaxed);
                match ahead.step(&draft, &mut d_cache, &link.ring, cap, &mut ws) {
                    DraftStep::Produced | DraftStep::RolledBack => {
                        if stalled {
                            stalled = false;
                            link.stalled.store(false, Ordering::Release);
                        }
                    }
                    DraftStep::AtDepthCap | DraftStep::AtCapacity | DraftStep::LowConfidence => {
                        if !stalled {
                            stalled = true;
                            link.stalled.store(true, Ordering::Release);
                            metrics.ring_full_stalls.inc();
                            // The chain is as deep as it should get — full
                            // depth, lease frontier, or a below-threshold
                            // token: wake the scheduler. Notifying here —
                            // not per token — means verify wakes to a chain
                            // worth a whole target pass.
                            work_cv.notify_all();
                        }
                        // Parked, not spinning and not polling: a parked
                        // draft burns zero cycles and causes zero
                        // preemptions until verify pops, rolls back, or
                        // stops the session.
                        link.park_until_notified(gen);
                    }
                }
            }
            link.exited.store(true, Ordering::Release);
            // `d_cache` drops here: the draft lease returns to the pool.
        })
        .expect("failed to spawn draft worker")
}
