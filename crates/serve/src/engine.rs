//! The serving engine: a block-paged KV pool, FIFO admission into free
//! slots, a vision-prefix cache, and the block-granular continuous-batching
//! scheduler, serving one multimodal bundle — a [`LlavaSim`] target and an
//! AASD draft seeded from its vision KV.
//!
//! ## Architecture
//!
//! * **Paged KV pool** — the engine owns one pre-allocated [`KvPool`] per
//!   model (target, draft), sized for every slot's longest lease (`max_seq`
//!   positions) and, on the target, every cached vision prefix. At
//!   admission a session leases exactly the blocks its `prompt + budget`
//!   needs (`prefix + budget − 1` positions — the last emitted token is
//!   never fed back), and the blocks return to the pool the moment it
//!   finishes.
//! * **Admission** — requests wait in a FIFO behind a small mutex with a
//!   hard cap (`cfg.max_queue`). A queue head moves into the first free
//!   slot and leases from both pools at once: at most `slots` sessions and
//!   `vision_cache_entries` entries hold blocks, so a lease always fits.
//!   FIFO order is what makes served streams worker-count-independent.
//!   Every request carries an image seed; once [`Engine::serve`] starts its
//!   shutdown drain, submits are refused.
//! * **Vision cache** — an LRU map from image *content hash* to the
//!   target's vision-prefix KV rows, held in blocks of their own. A hit
//!   leases the session's full target cache, copies the cached rows into
//!   it and skips the vision tower and connector; a speculative session
//!   then seeds its draft from those rows exactly as a miss does. Hit and
//!   miss produce bit-identical session state, so caching can never change
//!   a token stream, only its latency. Every block has one owner, so
//!   evicting an entry returns its blocks to the pool at once.
//! * **Scheduler** — [`Engine::tick`] refills free slots from the queue,
//!   then advances every active session one step: prefill on its first
//!   turn, afterwards one speculative block (or one AR token). Every slot
//!   sits behind its own lock and holds one [`Session`], so there is one
//!   admission path, one publish-and-account step and one completion
//!   path for every request. `Engine::new` spawns `cfg.workers − 1`
//!   persistent helper threads (the crew) once; a tick with more than one
//!   occupied slot wakes up to `active − 1` of them to sweep the slots
//!   beside the calling thread, and they park again until the next tick.
//!   `workers` defaults to the host's core count. Sessions own their
//!   leases and scratch and admission stays FIFO on the calling thread,
//!   so worker count changes interleaving but never tokens (pinned by the
//!   root determinism test).
//!
//! Losslessness survives scheduling by construction: the per-block state
//! machine a slot steps ([`SpecSession`]) is the *same* one the one-shot
//! fused loops drive, and its lease is sized so the capacity bound is
//! exactly the budget bound — a served completion is token-identical to
//! `mm_speculative_ws` (or `mm_autoregressive_ws`) with the same models,
//! image and prompt.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aasd_mm::{request_draft_len, seed_request_draft, Ablation, Image, KvProjector, LlavaSim};
use aasd_nn::{Decoder, KvCache, KvPool};
use aasd_specdec::{ArSession, Session, SpecSession, StepReport, MAX_GAMMA};
use aasd_tensor::{Rng, Workspace};

use crate::metrics::Metrics;
use crate::request::{DecodeMode, Request, RequestHandle, RequestId, Status};

/// Terminal request handles the engine keeps pollable by id; older ids
/// answer as unknown. Non-terminal handles are always kept.
const RETAINED_FINISHED: usize = 1024;

/// The invariant a refused lease would break: `Engine::new` sizes each pool
/// for every slot's longest lease plus, on the target, every cached prefix.
const POOLS_FIT: &str = "a KV pool sized for every slot's longest lease and every cached \
                         vision prefix refused a lease";

/// The model bundle an engine serves: a LlavaSim target with a
/// hybrid-cache draft whose vision prefix is seeded per `ablation` (learned
/// [`KvProjector`] rows by default) before the text prefill, exactly like
/// `mm_speculative_ws`.
pub enum EngineModel {
    Multimodal {
        model: Arc<LlavaSim>,
        draft: Arc<Decoder>,
        projector: Arc<KvProjector>,
        ablation: Ablation,
    },
}

/// Scheduler/admission knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Concurrent sessions the scheduler will step per tick. Each KV pool
    /// holds `slots` leases of its model's `max_seq` positions.
    pub slots: usize,
    /// Scheduler threads, the ticking one included: `Engine::new` spawns
    /// `workers − 1` persistent helpers (at most `slots − 1`), and a tick
    /// sweeps its sessions on up to this many threads. 1 steps every
    /// session inline. Defaults to the host's core count
    /// (`available_parallelism`, capped at the default `slots`; 1 if the
    /// host cannot say).
    pub workers: usize,
    /// Admission cap: a submit that would push the queue past this is
    /// rejected with [`Rejection::Busy`].
    pub max_queue: usize,
    /// Positions per KV block in both pools.
    pub block_size: usize,
    /// Max distinct images the vision-prefix cache retains (LRU
    /// beyond that). 0 disables caching. The target pool holds this many
    /// `n_img`-position prefixes on top of the sessions' leases.
    pub vision_cache_entries: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let slots = 4;
        Self {
            slots,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get().min(slots)),
            max_queue: 64,
            block_size: 16,
            vision_cache_entries: 8,
        }
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// Admission control: queue at capacity. Retry later.
    Busy,
    /// The request can never run on this engine (bad γ, empty prompt,
    /// prompt past the context window, no image seed, …), or the engine
    /// has shut down.
    Invalid(String),
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::Busy => write!(f, "queue full"),
            Rejection::Invalid(msg) => write!(f, "invalid request: {msg}"),
        }
    }
}

/// The decode state machine a slot is driving.
enum Phase {
    /// Admitted but not yet prefilled; prefill happens on the slot's first
    /// scheduling turn so TTFT honestly includes queue wait + prefill.
    Prefill(Request),
    /// One AR token or one speculative block per scheduling turn.
    Decode(Session),
}

impl Phase {
    /// Tokens the session has committed so far.
    fn tokens(&self) -> &[u32] {
        match self {
            Phase::Prefill(_) => &[],
            Phase::Decode(s) => s.tokens(),
        }
    }

    fn is_done(&self) -> bool {
        match self {
            Phase::Prefill(_) => false,
            Phase::Decode(s) => s.is_done(),
        }
    }
}

/// How the session's vision prefix gets into its target cache.
enum VisionPlan {
    /// No cached prefix existed at admission: run the full vision prefill,
    /// then populate the cache for future sessions.
    Miss { image: Image, hash: u64 },
    /// The session's target lease holds a copy of the cached prefix rows —
    /// prefill skips the vision tower and connector.
    Hit,
}

/// An admitted request bound to its leased KV blocks.
struct Active {
    handle: Arc<RequestHandle>,
    phase: Phase,
    /// Tokens already published to the handle (monotone cursor into the
    /// session's output).
    published: usize,
    t_cache: KvCache,
    /// Present for speculative sessions only.
    d_cache: Option<KvCache>,
    vision: VisionPlan,
}

/// One scheduler slot behind its own lock: scratch allocated once; the KV
/// leases travel with the [`Active`] session, not the slot.
struct Slot {
    ws: Workspace,
    active: Option<Active>,
}

/// A request waiting for a slot: no leases held while queued.
struct Queued {
    handle: Arc<RequestHandle>,
    req: Request,
}

struct QueueState {
    queue: VecDeque<Queued>,
    next_id: RequestId,
    /// Handles by id so wire-protocol clients can poll: every non-terminal
    /// request plus the [`RETAINED_FINISHED`] most recently finished ones.
    handles: HashMap<RequestId, Arc<RequestHandle>>,
    /// Ids in the order they reached a terminal state, oldest first.
    finished: VecDeque<RequestId>,
    /// Set once by [`Engine::serve`] before its drain: no scheduler will
    /// tick again, so `submit` refuses instead of stranding a request.
    closed: bool,
}

impl QueueState {
    /// Record that `id` reached a terminal state and forget the oldest
    /// finished handle once more than [`RETAINED_FINISHED`] are held.
    fn retire(&mut self, id: RequestId) {
        self.finished.push_back(id);
        if self.finished.len() > RETAINED_FINISHED {
            let oldest = self.finished.pop_front().expect("len checked above");
            self.handles.remove(&oldest);
        }
    }
}

/// One cached image: the target's vision-prefix rows, which a hit copies
/// into its session's lease.
struct VisionEntry {
    t_prefix: KvCache,
    last_used: u64,
}

#[derive(Default)]
struct VisionCache {
    entries: HashMap<u64, VisionEntry>,
    clock: u64,
}

impl VisionCache {
    /// Evict the least-recently-used entry, if any; its blocks go back to
    /// the pool at once.
    fn evict_coldest(&mut self) {
        let victim = (self.entries.iter())
            .min_by_key(|(_, e)| e.last_used)
            .map(|(h, _)| *h);
        if let Some(h) = victim {
            self.entries.remove(&h);
        }
    }
}

/// The lease a request needs, computed from the request alone (before any
/// forward runs).
struct LeasePlan {
    /// Committed positions the target cache will hold after prefill.
    t_prefix: usize,
    /// Ditto for the draft (0 when no draft cache is needed).
    d_prefix: usize,
    /// Decode budget the session will be constructed with.
    budget: usize,
    /// Target lease capacity: `t_prefix + budget − 1` — the deepest the
    /// cache can ever grow, because the final emitted token is never fed
    /// back. With this exact capacity the session's per-block room bound
    /// collapses onto its budget bound, so γ selection (and therefore the
    /// stream AND the stats) match the one-shot loop on full-size caches.
    t_capacity: usize,
    d_capacity: Option<usize>,
}

/// The scheduler's persistent helper threads. They park on `wake` between
/// ticks; a tick offers sweep turns, and each helper takes at most one per
/// wake-up.
#[derive(Default)]
struct Crew {
    state: Mutex<CrewState>,
    /// Helpers park here between ticks.
    wake: Condvar,
    /// The ticking thread waits here for the helpers that took a turn.
    done: Condvar,
}

#[derive(Default)]
struct CrewState {
    /// Sweep turns the current tick still offers.
    offered: usize,
    /// Helpers sweeping now.
    running: usize,
    /// The first panic a helper's sweep raised this tick.
    panic: Option<Box<dyn Any + Send>>,
    /// Set once by `Drop for Engine`: every helper returns.
    stop: bool,
}

impl Crew {
    /// Offer `turns` sweep turns, waking at most that many parked helpers.
    fn offer(&self, turns: usize) {
        self.state.lock().expect("crew lock poisoned").offered = turns;
        for _ in 0..turns {
            self.wake.notify_one();
        }
    }

    /// Withdraw the turns no helper took, wait until every helper that took
    /// one has reported done, and return the first panic among them.
    fn finish(&self) -> Option<Box<dyn Any + Send>> {
        let mut state = self.state.lock().expect("crew lock poisoned");
        state.offered = 0;
        while state.running > 0 {
            state = self.done.wait(state).expect("crew lock poisoned");
        }
        state.panic.take()
    }
}

/// A helper's life: park, take a turn, sweep, report; until `stop`.
fn crew_helper(crew: &Crew, engine: &Weak<Engine>) {
    loop {
        {
            let mut state = crew.state.lock().expect("crew lock poisoned");
            while state.offered == 0 && !state.stop {
                state = crew.wake.wait(state).expect("crew lock poisoned");
            }
            if state.stop {
                return;
            }
            state.offered -= 1;
            state.running += 1;
        }
        // The upgraded `Arc` drops inside the closure, before the report
        // below: the ticking caller still holds its own, so the last `Arc`
        // (and with it `Drop for Engine`, which joins this thread) is never
        // released here.
        let swept = engine.upgrade().map_or(Ok(()), |engine| {
            catch_unwind(AssertUnwindSafe(|| engine.sweep()))
        });
        let mut state = crew.state.lock().expect("crew lock poisoned");
        state.running -= 1;
        if let Err(panic) = swept {
            state.panic.get_or_insert(panic);
        }
        if state.running == 0 {
            crew.done.notify_one();
        }
    }
}

/// The multi-session speculative-decoding engine.
pub struct Engine {
    cfg: EngineConfig,
    target: Arc<LlavaSim>,
    draft: Arc<Decoder>,
    projector: Arc<KvProjector>,
    ablation: Ablation,
    metrics: Arc<Metrics>,
    t_pool: KvPool,
    d_pool: KvPool,
    vision_cache: Mutex<VisionCache>,
    qstate: Mutex<QueueState>,
    /// Per-slot locks: a scheduler thread holds one only while stepping
    /// that session; submit/poll/cancel never take any.
    slots: Vec<Mutex<Slot>>,
    /// Occupied slots; admission bumps it under the qstate lock so the
    /// until-idle exit check cannot race a queue→slot transfer.
    active: AtomicUsize,
    /// Wakes an idle scheduler (paired with the qstate lock): submits and
    /// session completion notify.
    work_cv: Condvar,
    /// One tick at a time: the sweep cursor and the crew's turns belong to
    /// the tick that holds it.
    ticking: Mutex<()>,
    /// The next slot index a sweeping thread claims; hands each occupied
    /// slot to exactly one thread per tick.
    cursor: AtomicUsize,
    /// Whether any slot held a session this tick.
    progressed: AtomicBool,
    crew: Arc<Crew>,
    /// Spawned once by `new`, joined by `Drop`.
    helpers: Vec<JoinHandle<()>>,
}

impl Engine {
    pub fn new(model: EngineModel, cfg: EngineConfig) -> Arc<Self> {
        assert!(cfg.slots >= 1, "engine needs at least one slot");
        assert!(cfg.workers >= 1, "engine needs at least one worker");
        assert!(cfg.block_size >= 1, "block_size must be >= 1");
        let EngineModel::Multimodal {
            model: target,
            draft,
            projector,
            ablation,
        } = model;
        let lm = &target.lm;
        // `validate` checks prompts against the target's vocabulary only; a
        // draft with another one would panic mid-decode.
        assert_eq!(
            draft.cfg.vocab, lm.cfg.vocab,
            "draft and target vocabularies differ"
        );
        let bs = cfg.block_size;
        // Every lease is at most `max_seq` positions, and at most `slots`
        // sessions and `vision_cache_entries` entries hold blocks at once,
        // so no lease is ever refused (`POOLS_FIT`).
        let sessions = |max_seq: usize| cfg.slots * max_seq.div_ceil(bs).max(1);
        let vision_blocks = cfg.vision_cache_entries * target.n_img().div_ceil(bs).max(1);
        let t_blocks = sessions(lm.cfg.max_seq) + vision_blocks;
        let d_blocks = sessions(draft.cfg.max_seq);
        // No request pays for packing: the first fused forward of a model
        // would build the shadow its policy reads (f32 panels, or the int8
        // image the standard draft runs on), so build them here. (A vision
        // tower and connector have none: they run the allocating row-major
        // `Linear::forward`, once per image.)
        lm.prepack();
        draft.prepack();
        let t_pool = KvPool::new(lm.cfg.n_layers, lm.cfg.dim, bs, t_blocks);
        let d_pool = KvPool::new(draft.cfg.n_layers, draft.cfg.dim, bs, d_blocks);
        let slots = (0..cfg.slots)
            .map(|_| {
                Mutex::new(Slot {
                    ws: Workspace::new(),
                    active: None,
                })
            })
            .collect();
        let crew = Arc::new(Crew::default());
        let engine = Arc::new_cyclic(|weak| Self {
            helpers: (1..cfg.workers.min(cfg.slots))
                .map(|i| {
                    let (crew, engine) = (Arc::clone(&crew), weak.clone());
                    std::thread::Builder::new()
                        .name(format!("aasd-sched-{i}"))
                        .spawn(move || crew_helper(&crew, &engine))
                        .expect("spawn a scheduler helper")
                })
                .collect(),
            crew,
            cfg,
            target,
            draft,
            projector,
            ablation,
            metrics: Arc::new(Metrics::new()),
            t_pool,
            d_pool,
            vision_cache: Mutex::new(VisionCache::default()),
            qstate: Mutex::new(QueueState {
                queue: VecDeque::new(),
                next_id: 1,
                handles: HashMap::new(),
                finished: VecDeque::new(),
                closed: false,
            }),
            slots,
            active: AtomicUsize::new(0),
            work_cv: Condvar::new(),
            ticking: Mutex::new(()),
            cursor: AtomicUsize::new(0),
            progressed: AtomicBool::new(false),
        });
        engine.publish_pool_gauges();
        engine
    }

    fn publish_pool_gauges(&self) {
        self.metrics
            .kv_free_blocks_target
            .set(self.t_pool.free_blocks() as u64);
        self.metrics
            .kv_free_blocks_draft
            .set(self.d_pool.free_blocks() as u64);
    }

    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Validate + admit a request. Returns the handle clients poll.
    pub fn submit(&self, req: Request) -> Result<Arc<RequestHandle>, Rejection> {
        if let Err(msg) = self.validate(&req) {
            self.metrics.requests_rejected.inc();
            return Err(Rejection::Invalid(msg));
        }
        let mut q = self.qstate.lock().unwrap();
        if q.closed {
            self.metrics.requests_rejected.inc();
            return Err(Rejection::Invalid("engine is shut down".into()));
        }
        if q.queue.len() >= self.cfg.max_queue {
            self.metrics.requests_rejected.inc();
            return Err(Rejection::Busy);
        }
        let id = q.next_id;
        q.next_id += 1;
        let handle = Arc::new(RequestHandle::new(id));
        q.handles.insert(id, Arc::clone(&handle));
        q.queue.push_back(Queued {
            handle: Arc::clone(&handle),
            req,
        });
        self.metrics.requests_submitted.inc();
        self.metrics.queue_depth.set(q.queue.len() as u64);
        drop(q);
        self.work_cv.notify_all();
        Ok(handle)
    }

    /// Size the leases a request needs; assumes the request validated.
    fn lease_plan(&self, req: &Request) -> LeasePlan {
        let t_prefix = self.target.n_img() + req.prompt.len();
        let mut budget = req.max_new.min(self.target.lm.cfg.max_seq + 1 - t_prefix);
        let d_prefix = matches!(req.mode, DecodeMode::Speculative { .. }).then(|| {
            request_draft_len(
                &self.target,
                Some(&self.projector),
                self.ablation,
                req.prompt.len(),
            )
        });
        if let Some(d_prefix) = d_prefix {
            budget = budget.min(self.draft.cfg.max_seq + 1 - d_prefix);
        }
        LeasePlan {
            t_prefix,
            d_prefix: d_prefix.unwrap_or(0),
            budget,
            t_capacity: t_prefix + budget - 1,
            d_capacity: d_prefix.map(|d| d + budget - 1),
        }
    }

    fn validate(&self, req: &Request) -> Result<(), String> {
        if req.prompt.is_empty() {
            return Err("empty prompt".into());
        }
        if req.max_new == 0 {
            return Err("max_new must be >= 1".into());
        }
        if let DecodeMode::Speculative { gamma } = req.mode {
            if !(1..MAX_GAMMA).contains(&gamma) {
                return Err(format!("gamma must be in 1..{MAX_GAMMA}"));
            }
        }
        let vocab = self.target.lm.cfg.vocab as u32;
        if let Some(&t) = req.prompt.iter().find(|&&t| t >= vocab) {
            return Err(format!("prompt token {t} outside vocab {vocab}"));
        }
        if req.image_seed.is_none() {
            return Err("request needs an image seed (img=)".into());
        }
        // The committed prefix the prompt occupies in each cache; every
        // request must leave at least one token of decode room. The draft
        // bound stays conservative (full n_img prefix) so admission does
        // not depend on the ablation switches.
        let prefix = self.target.n_img() + req.prompt.len();
        if prefix > self.target.lm.cfg.max_seq {
            return Err("prompt exceeds target context window".into());
        }
        if matches!(req.mode, DecodeMode::Speculative { .. }) && prefix > self.draft.cfg.max_seq {
            return Err("prompt exceeds draft context window".into());
        }
        Ok(())
    }

    /// Look up a request's handle by id (wire-protocol clients only hold
    /// ids).
    pub fn handle(&self, id: RequestId) -> Option<Arc<RequestHandle>> {
        self.qstate.lock().unwrap().handles.get(&id).cloned()
    }

    /// Snapshot a request's status and committed tokens by id.
    pub fn poll(&self, id: RequestId) -> Option<(Status, Vec<u32>)> {
        self.handle(id).map(|h| h.snapshot())
    }

    /// Request cancellation by id. Queued requests are dropped at the next
    /// refill; running ones stop at their next block boundary. Returns
    /// false if the id was never seen or already reached a terminal state.
    ///
    /// (Going through a held [`RequestHandle`] via `handle.cancel()` is
    /// equivalent; this lookup exists for the wire protocol.)
    pub fn cancel(&self, id: RequestId) -> bool {
        let Some(handle) = self.handle(id) else {
            return false;
        };
        if matches!(handle.snapshot().0, Status::Done | Status::Cancelled) {
            return false;
        }
        handle.cancel();
        true
    }

    /// One scheduling round: refill free slots from the queue on the
    /// calling thread, then step every occupied slot once. The caller
    /// sweeps the slots itself, joined by up to `active − 1` of the crew's
    /// parked helpers; the tick returns once every helper that took a turn
    /// is done, and resumes the first panic any sweep raised. Returns true
    /// if any session advanced.
    pub fn tick(&self) -> bool {
        self.refill();
        let active = self.active.load(Ordering::Acquire);
        if active == 0 {
            return false;
        }
        // Only `()` is guarded and the cursor is reset below, so a tick that
        // panicked leaves nothing to repair.
        let _ticking = self.ticking.lock().unwrap_or_else(PoisonError::into_inner);
        // Relaxed suffices: the crew lock orders these stores before a
        // helper's sweep, and its sweep before `Crew::finish` returns.
        self.cursor.store(0, Ordering::Relaxed);
        self.progressed.store(false, Ordering::Relaxed);
        let turns = self.helpers.len().min(active - 1);
        if turns == 0 {
            self.sweep();
        } else {
            self.crew.offer(turns);
            let mine = catch_unwind(AssertUnwindSafe(|| self.sweep()));
            let theirs = self.crew.finish();
            if let Some(panic) = mine.err().or(theirs) {
                resume_unwind(panic);
            }
        }
        let progressed = self.progressed.load(Ordering::Relaxed);
        if progressed {
            self.metrics.scheduler_ticks.inc();
        }
        progressed
    }

    /// Step slots until the tick's cursor runs past the last one. Runs on
    /// the ticking thread and on every helper that took a turn; models and
    /// metrics are shared read-only or atomic.
    fn sweep(&self) {
        while let Some(slot) = self.slots.get(self.cursor.fetch_add(1, Ordering::Relaxed)) {
            let Ok(mut slot) = slot.try_lock() else {
                continue;
            };
            if self.step_slot(&mut slot) {
                self.progressed.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Drive the engine until queue and slots are empty (used by benches
    /// and tests).
    pub fn run_until_idle(&self) {
        self.run(None);
    }

    /// Serve until `stop` is raised, then shut down: the engine closes to
    /// new submits, and everything queued or running finishes `Cancelled`
    /// so waiting clients unblock with a terminal status and every KV lease
    /// returns to its pool.
    pub fn serve(&self, stop: &AtomicBool) {
        self.run(Some(stop));
        // Closed before the drain: a submit racing it is either drained
        // below or refused, never left queued with no scheduler to run it.
        self.qstate.lock().expect("queue lock poisoned").closed = true;
        self.cancel_all();
        for slot in &self.slots {
            let mut slot = slot.lock().expect("slot lock poisoned");
            if slot.active.is_some() {
                self.finish(&mut slot.active, Status::Cancelled);
            }
        }
    }

    /// The scheduler loop on the calling thread: tick until idle (`stop:
    /// None`) or until the flag is raised.
    fn run(&self, stop: Option<&AtomicBool>) {
        while !stop.is_some_and(|flag| flag.load(Ordering::Acquire)) {
            if self.tick() {
                continue;
            }
            // The queue→slot transfer happens entirely under the qstate
            // lock (pop + `active` bump), so this check cannot observe a
            // request in neither place.
            let q = self.qstate.lock().expect("queue lock poisoned");
            if stop.is_none() && q.queue.is_empty() && self.active.load(Ordering::Acquire) == 0 {
                return;
            }
            let _ = self
                .work_cv
                .wait_timeout(q, Duration::from_millis(1))
                .expect("queue lock poisoned");
        }
    }

    /// Cancel everything queued or running (shutdown, or a bench giving up).
    /// Queued requests are finished `Cancelled` **immediately** — they hold
    /// no leases and will never get a scheduling turn once the server stops
    /// ticking — so the queue-depth gauge drops to 0 here rather than
    /// lingering at its pre-shutdown value. Running sessions stop at their
    /// next block boundary.
    pub fn cancel_all(&self) {
        {
            let mut q = self.qstate.lock().expect("queue lock poisoned");
            while let Some(qd) = q.queue.pop_front() {
                qd.handle.cancel();
                self.finish_queued(&mut q, &qd.handle);
            }
            self.metrics.queue_depth.set(0);
        }
        for slot in &self.slots {
            if let Some(a) = &slot.lock().expect("slot lock poisoned").active {
                a.handle.cancel();
            }
        }
    }

    /// A request cancelled before it ever held a slot.
    fn finish_queued(&self, q: &mut QueueState, handle: &RequestHandle) {
        handle.finish(Status::Cancelled, None);
        self.metrics.requests_cancelled.inc();
        q.retire(handle.id);
    }

    /// Move queued requests into free slots (FIFO), after sweeping
    /// cancel-requested entries out of the **whole** queue — a cancelled
    /// request stops counting against `max_queue` and reaches its terminal
    /// state at the next tick even when every slot is busy. Runs at the top
    /// of every tick, so a slot freed by a completion in round N is serving
    /// the next queued request in round N+1 — no slot ever idles while the
    /// queue is non-empty.
    fn refill(&self) {
        let mut q = self.qstate.lock().expect("queue lock poisoned");
        let mut i = 0;
        while i < q.queue.len() {
            if q.queue[i].handle.is_cancel_requested() {
                let qd = q.queue.remove(i).expect("index checked above");
                self.finish_queued(&mut q, &qd.handle);
            } else {
                i += 1;
            }
        }
        for slot in &self.slots {
            if q.queue.is_empty() {
                break;
            }
            // A slot locked elsewhere (`cancel_all`) is skipped this round.
            let Ok(mut slot) = slot.try_lock() else {
                continue;
            };
            if slot.active.is_some() {
                continue;
            }
            let Queued { handle, req } = q.queue.pop_front().expect("queue checked above");
            let (t_cache, d_cache, vision) = self.admit(&req);
            handle.mark_running();
            slot.active = Some(Active {
                handle,
                phase: Phase::Prefill(req),
                published: 0,
                t_cache,
                d_cache,
                vision,
            });
            self.active.fetch_add(1, Ordering::Release);
        }
        self.metrics.queue_depth.set(q.queue.len() as u64);
        self.metrics
            .active_sessions
            .set(self.active.load(Ordering::Relaxed) as u64);
        self.publish_pool_gauges();
    }

    /// Lease everything `req` needs for a free slot, and copy its image's
    /// cached vision prefix into the target lease on a hit.
    fn admit(&self, req: &Request) -> (KvCache, Option<KvCache>, VisionPlan) {
        let plan = self.lease_plan(req);
        let mut t_cache = self.t_pool.try_lease(plan.t_capacity).expect(POOLS_FIT);
        let d_cache = plan
            .d_capacity
            .map(|dc| self.d_pool.try_lease(dc).expect(POOLS_FIT));
        let seed = req.image_seed.expect("validated at submit");
        let vision = &self.target.cfg.vision;
        let image = Image::synthetic(&mut Rng::new(seed), vision.n_patches, vision.patch_dim);
        let hash = image.content_hash();
        let mut vc = self.vision_cache.lock().unwrap();
        vc.clock += 1;
        let clock = vc.clock;
        let vision = match vc.entries.get_mut(&hash) {
            Some(entry) => {
                entry.last_used = clock;
                copy_rows(&entry.t_prefix, &mut t_cache, self.target.n_img());
                self.metrics.vision_cache_hits.inc();
                VisionPlan::Hit
            }
            None => {
                self.metrics.vision_cache_misses.inc();
                VisionPlan::Miss { image, hash }
            }
        };
        (t_cache, d_cache, vision)
    }

    /// Advance one slot by one unit of work — prefill on the session's first
    /// turn, afterwards one speculative block (or one AR token) — then
    /// publish what it committed. Returns whether the slot held a session.
    fn step_slot(&self, slot: &mut Slot) -> bool {
        let Slot { ws, active: cell } = slot;
        let Some(active) = cell.as_mut() else {
            return false;
        };
        if active.handle.is_cancel_requested() {
            self.finish(cell, Status::Cancelled);
            return true;
        }
        let started = Instant::now();
        let Active {
            handle,
            phase,
            published,
            t_cache,
            d_cache,
            vision,
        } = active;
        let report = match phase {
            Phase::Prefill(req) => {
                *phase = self.prefill(req, t_cache, d_cache.as_mut(), vision, ws);
                None
            }
            Phase::Decode(session) => {
                let draft = d_cache.as_mut().map(|d| (&*self.draft, d));
                Some(session.step(&self.target.lm, t_cache, draft, ws))
            }
        };
        let block_ms = started.elapsed().as_secs_f64() * 1e3;
        let new = &phase.tokens()[*published..];
        handle.push_tokens(new);
        *published += new.len();
        self.metrics.tokens_generated.add(new.len() as u64);
        match report {
            // Prefill decided (and just published) the first token: TTFT =
            // queue wait + prefill.
            None => {
                debug_assert_eq!(new.len(), 1);
                if let Some(ttft) = handle.ttft_ms() {
                    self.metrics.ttft_ms.record_ms(ttft);
                }
            }
            Some(StepReport { committed, .. }) => {
                debug_assert_eq!(new.len(), committed);
                self.metrics.block_ms.record_ms(block_ms);
                for _ in 0..committed {
                    self.metrics.token_ms.record_ms(block_ms / committed as f64);
                }
            }
        }
        if phase.is_done() {
            self.finish(cell, Status::Done);
        }
        true
    }

    /// Prefill the session's leased caches for `req` and build its decode
    /// session.
    fn prefill(
        &self,
        req: &Request,
        t_cache: &mut KvCache,
        d_cache: Option<&mut KvCache>,
        vision: &VisionPlan,
        ws: &mut Workspace,
    ) -> Phase {
        let (target, draft) = (&self.target.lm, &*self.draft);
        // The leases were sized from the request alone; the actual prefill
        // must land exactly on that plan or the capacity/budget identity
        // (and with it stream-equivalence to the one-shot loops) breaks.
        let LeasePlan {
            t_prefix,
            d_prefix,
            budget,
            ..
        } = self.lease_plan(req);
        // On a vision-cache hit the target lease already carries the
        // `n_img` prefix, so only the text leg runs.
        let pending = match vision {
            VisionPlan::Miss { image, hash } => {
                debug_assert!(t_cache.is_empty());
                let pending = self.target.prefill_ws(image, &req.prompt, t_cache, ws);
                self.populate_vision_cache(*hash, t_cache);
                pending
            }
            VisionPlan::Hit => {
                debug_assert_eq!(t_cache.len(), self.target.n_img());
                self.target.prefill_text_ws(&req.prompt, t_cache, ws)
            }
        };
        debug_assert_eq!(t_cache.len(), t_prefix, "t prefix != plan");
        let DecodeMode::Speculative { gamma } = req.mode else {
            return Phase::Decode(Session::Ar(ArSession::new(
                target, t_cache, pending, budget,
            )));
        };
        // The draft reads the target's vision prefix, fresh or copied alike.
        let d_lease = d_cache.expect("spec admission leases a draft");
        seed_request_draft(
            &self.target,
            draft,
            Some(&self.projector),
            self.ablation,
            t_cache,
            &req.prompt,
            d_lease,
            ws,
        );
        debug_assert_eq!(d_lease.len(), d_prefix, "d prefix != plan");
        Phase::Decode(Session::Spec(SpecSession::new(
            target, draft, t_cache, d_lease, pending, budget, gamma,
        )))
    }

    /// Install `hash`'s vision prefix into the cache. Runs after a miss
    /// prefill; the rows are copied out of the session's target cache, so
    /// the entry is bit-identical to what a fresh vision prefill would
    /// produce. Skipped when caching is disabled or the entry raced into
    /// existence.
    fn populate_vision_cache(&self, hash: u64, t_cache: &KvCache) {
        if self.cfg.vision_cache_entries == 0 {
            return;
        }
        let n_img = self.target.n_img();
        let mut vc = self.vision_cache.lock().unwrap();
        if vc.entries.contains_key(&hash) {
            return;
        }
        // Make room first: the pool is sized for `vision_cache_entries`
        // prefixes, so an entry past the cap would lease blocks meant for
        // sessions.
        while vc.entries.len() >= self.cfg.vision_cache_entries {
            vc.evict_coldest();
        }
        let mut t_prefix = self.t_pool.try_lease(n_img).expect(POOLS_FIT);
        copy_rows(t_cache, &mut t_prefix, n_img);
        vc.clock += 1;
        let clock = vc.clock;
        vc.entries.insert(
            hash,
            VisionEntry {
                t_prefix,
                last_used: clock,
            },
        );
    }

    /// Completion bookkeeping for a slot's session: release its leases,
    /// merge the stats, finish the handle. The freed slot is refilled on
    /// the next tick.
    fn finish(&self, cell: &mut Option<Active>, status: Status) {
        // The leases drop with the rest of `Active`, right here — before
        // the slot is counted free below.
        let Active { handle, phase, .. } = cell.take().expect("finishing an empty slot");
        let stats = match phase {
            Phase::Prefill(_) => None,
            Phase::Decode(session) => session.stats().cloned(),
        };
        if let Some(stats) = &stats {
            self.metrics.merge_spec_stats(stats);
        }
        handle.finish(status, stats);
        match status {
            Status::Done => self.metrics.requests_completed.inc(),
            _ => self.metrics.requests_cancelled.inc(),
        }
        self.qstate
            .lock()
            .expect("queue lock poisoned")
            .retire(handle.id);
        self.active.fetch_sub(1, Ordering::Release);
        // A slot freed: wake an idle scheduler so refill runs promptly.
        self.work_cv.notify_all();
    }
}

/// Append the first `rows` positions of every layer of `src` to `dst`: how a
/// miss fills a vision-cache entry from its session's lease, and how a hit
/// fills its session's lease from the entry.
fn copy_rows(src: &KvCache, dst: &mut KvCache, rows: usize) {
    for l in 0..src.n_layers() {
        let src = src.layer(l);
        let mut dst = dst.layer_mut(l);
        for pos in 0..rows {
            dst.append(src.key(pos), src.value(pos));
        }
    }
}

impl Drop for Engine {
    /// Stop and join the crew. A helper never holds the last `Arc`, so
    /// this never runs on a helper thread.
    fn drop(&mut self) {
        self.crew
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stop = true;
        self.crew.wake.notify_all();
        for helper in self.helpers.drain(..) {
            // A helper catches its sweeps' panics; nothing is left to report.
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aasd_mm::{draft_for_depth, mm_autoregressive_ws, mm_speculative_ws, LlavaSimConfig};
    use aasd_nn::KernelPolicy;
    use aasd_specdec::SpecStats;

    /// The image every [`spec_req`] carries.
    const IMG: u64 = 5;

    /// A tiny engine and the models it serves, so a test can run the
    /// one-shot loop a served request must reproduce.
    struct Fixture {
        engine: Arc<Engine>,
        model: Arc<LlavaSim>,
        draft: Arc<Decoder>,
        projector: Arc<KvProjector>,
        ablation: Ablation,
    }

    impl Fixture {
        /// The one-shot loop `req` must reproduce on its image:
        /// `mm_speculative_ws` (with its stats) or `mm_autoregressive_ws`.
        fn one_shot(&self, req: &Request) -> (Vec<u32>, Option<SpecStats>) {
            let vision = &self.model.cfg.vision;
            let seed = req.image_seed.expect("an engine request carries an image");
            let img = Image::synthetic(&mut Rng::new(seed), vision.n_patches, vision.patch_dim);
            let mut ws = Workspace::new();
            match req.mode {
                DecodeMode::Speculative { gamma } => {
                    let (tokens, stats) = mm_speculative_ws(
                        &self.model,
                        &self.draft,
                        Some(&self.projector),
                        self.ablation,
                        &img,
                        &req.prompt,
                        req.max_new,
                        gamma,
                        &mut ws,
                    );
                    (tokens, Some(stats))
                }
                DecodeMode::Autoregressive => {
                    let ar =
                        mm_autoregressive_ws(&self.model, &img, &req.prompt, req.max_new, &mut ws);
                    (ar, None)
                }
            }
        }
    }

    /// The tiny bundle: a LlavaSim target whose LM runs `target_policy`, its
    /// standard draft moved to `draft_policy`, and a KV projector.
    fn models(
        target_policy: KernelPolicy,
        draft_policy: KernelPolicy,
    ) -> (LlavaSim, Decoder, KvProjector) {
        let sim = LlavaSimConfig::tiny(40, 96);
        let mut model = LlavaSim::new(sim.clone(), 0xB0);
        model.set_kernel_policy(target_policy);
        let mut draft = draft_for_depth(&sim, 1, 0xB1);
        draft.set_kernel_policy(draft_policy);
        let projector = KvProjector::new(
            0xB2,
            draft.cfg.n_layers,
            sim.lm.n_layers,
            sim.n_img(),
            sim.k_slots(),
        );
        (model, draft, projector)
    }

    /// Serve `models` under `cfg` with the full AASD draft context.
    fn serve(models: (LlavaSim, Decoder, KvProjector), cfg: EngineConfig) -> Fixture {
        serve_ablated(models, Ablation::projector(), cfg)
    }

    /// Serve `models` under `cfg`, the draft's vision prefix seeded per
    /// `ablation`.
    fn serve_ablated(
        (model, draft, projector): (LlavaSim, Decoder, KvProjector),
        ablation: Ablation,
        cfg: EngineConfig,
    ) -> Fixture {
        let (model, draft, projector) = (Arc::new(model), Arc::new(draft), Arc::new(projector));
        let engine = Engine::new(
            EngineModel::Multimodal {
                model: Arc::clone(&model),
                draft: Arc::clone(&draft),
                projector: Arc::clone(&projector),
                ablation,
            },
            cfg,
        );
        Fixture {
            engine,
            model,
            draft,
            projector,
            ablation,
        }
    }

    /// The standard bundle (f32 target, draft on `aasd_mm::DRAFT_POLICY`)
    /// served under `cfg`.
    fn fixture(cfg: EngineConfig) -> Fixture {
        serve(models(KernelPolicy::F32, aasd_mm::DRAFT_POLICY), cfg)
    }

    fn cfg(slots: usize, workers: usize, max_queue: usize) -> EngineConfig {
        EngineConfig {
            slots,
            workers,
            max_queue,
            ..EngineConfig::default()
        }
    }

    fn spec_req(prompt: Vec<u32>, max_new: usize, gamma: usize) -> Request {
        Request {
            prompt,
            max_new,
            mode: DecodeMode::Speculative { gamma },
            image_seed: Some(IMG),
        }
    }

    /// Every block of each pool is free, in one live session's lease or in
    /// one cached vision prefix.
    fn assert_blocks_conserved(engine: &Engine) {
        let (mut t_leased, mut d_leased) = (0, 0);
        for slot in &engine.slots {
            if let Some(a) = &slot.lock().unwrap().active {
                t_leased += a.t_cache.n_blocks();
                d_leased += a.d_cache.as_ref().map_or(0, KvCache::n_blocks);
            }
        }
        let cached: usize = (engine.vision_cache.lock().unwrap().entries.values())
            .map(|e| e.t_prefix.n_blocks())
            .sum();
        let (t_pool, d_pool) = (&engine.t_pool, &engine.d_pool);
        assert_eq!(
            t_pool.free_blocks() + t_leased + cached,
            t_pool.total_blocks()
        );
        assert_eq!(d_pool.free_blocks() + d_leased, d_pool.total_blocks());
    }

    /// Every session lease is back in its pool: only the vision cache's
    /// prefixes still hold target blocks.
    fn assert_leases_back(engine: &Engine) {
        assert_eq!(engine.active.load(Ordering::Acquire), 0);
        assert_blocks_conserved(engine);
    }

    /// `validate` checks prompts against the target's vocabulary only, so
    /// an engine over a draft with another one is refused at construction.
    #[test]
    #[should_panic(expected = "vocabularies differ")]
    fn draft_with_another_vocab_is_refused() {
        let (model, _, projector) = models(KernelPolicy::F32, KernelPolicy::F32);
        let draft = draft_for_depth(&LlavaSimConfig::tiny(48, 96), 1, 0xB1);
        serve((model, draft, projector), EngineConfig::default());
    }

    /// `new` spawns `workers − 1` helpers that share the crew; dropping the
    /// engine after it served joins every one of them, so none holds the
    /// crew afterwards.
    #[test]
    fn dropping_the_engine_joins_its_helpers() {
        let Fixture { engine, .. } = fixture(cfg(4, 4, 8));
        let crew = Arc::clone(&engine.crew);
        assert_eq!(
            Arc::strong_count(&crew),
            5,
            "engine + this test + 3 helpers"
        );
        let handles: Vec<_> = (0..4)
            .map(|i| engine.submit(spec_req(vec![3 + i, 7, 1], 12, 3)).unwrap())
            .collect();
        engine.run_until_idle();
        assert!(handles.iter().all(|h| h.snapshot().0 == Status::Done));
        drop(engine);
        assert_eq!(Arc::strong_count(&crew), 1);
    }

    /// A session that panics mid-sweep, on the ticking thread or a helper,
    /// fails its tick on the caller after every helper reported: the crew
    /// is left idle, later ticks serve the other slot, and the engine
    /// still drops (joining its helpers) instead of hanging.
    #[test]
    fn a_panicking_sweep_fails_the_tick_not_the_crew() {
        let Fixture { engine, model, .. } = fixture(cfg(2, 2, 8));
        let good = engine.submit(spec_req(vec![3, 7, 1, 9], 40, 3)).unwrap();
        // The bad request skips `validate`: its out-of-vocabulary prompt
        // panics in the target's embedding at prefill, after the vision leg.
        let bad = Request {
            prompt: vec![99],
            max_new: 4,
            mode: DecodeMode::Autoregressive,
            image_seed: Some(IMG),
        };
        let vision = &model.cfg.vision;
        let image = Image::synthetic(&mut Rng::new(IMG), vision.n_patches, vision.patch_dim);
        engine.slots[1].lock().unwrap().active = Some(Active {
            handle: Arc::new(RequestHandle::new(99)),
            t_cache: engine.t_pool.try_lease(model.n_img() + 4).unwrap(),
            phase: Phase::Prefill(bad),
            published: 0,
            d_cache: None,
            vision: VisionPlan::Miss {
                hash: image.content_hash(),
                image,
            },
        });
        engine.active.fetch_add(1, Ordering::Release);
        let tick = std::panic::catch_unwind(AssertUnwindSafe(|| engine.tick()));
        assert!(tick.is_err(), "the bad slot's panic reaches the caller");
        {
            let state = engine.crew.state.lock().unwrap();
            assert_eq!((state.offered, state.running), (0, 0));
            assert!(state.panic.is_none());
        }
        // The poisoned slot is skipped from now on; the good one finishes.
        while good.snapshot().0 != Status::Done {
            assert!(engine.tick(), "the good session stalled");
        }
        drop(engine);
    }

    /// One cell of the engine losslessness matrix. Each served stream —
    /// speculative at several budgets (1 and 2 never reach a proposal) and
    /// one autoregressive — must equal the AR reference; speculative stats
    /// must account for exactly the tokens served; every request must
    /// complete and every lease return to its pool. Every served request
    /// must also reproduce the one-shot fused loop's `SpecStats` (same γ
    /// choices). The target is f32; the draft runs `draft_policy` on the
    /// context `ablation` seeds.
    fn lossless_cell(ablation: Ablation, workers: usize, draft_policy: KernelPolicy) {
        let prompts: [&[u32]; 5] = [&[3, 7, 1, 9], &[5, 2], &[8, 8, 8], &[3, 11, 25, 7], &[6]];
        let budgets = [24usize, 20, 21, 1, 2];
        let gamma = 4;
        let cell = format!(
            "{ablation:?} workers={workers} draft={}",
            draft_policy.name()
        );
        let f = serve_ablated(
            models(KernelPolicy::F32, draft_policy),
            ablation,
            cfg(2, workers, 64),
        );
        let reqs: Vec<_> = prompts
            .iter()
            .zip(&budgets)
            .map(|(p, &b)| spec_req(p.to_vec(), b, gamma))
            .collect();
        let ar_req = Request {
            mode: DecodeMode::Autoregressive,
            ..reqs[0].clone()
        };
        // (AR reference, one-shot chain stats) per request.
        let want: Vec<(Vec<u32>, SpecStats)> = reqs
            .iter()
            .map(|req| {
                let (ar, _) = f.one_shot(&Request {
                    mode: DecodeMode::Autoregressive,
                    ..req.clone()
                });
                let (spec, stats) = f.one_shot(req);
                assert_eq!(spec, ar, "{cell}: one-shot loop is lossy");
                (ar, stats.expect("spec one-shot carries stats"))
            })
            .collect();
        // A request without an image is refused.
        let blind = Request {
            image_seed: None,
            ..spec_req(vec![1], 4, 2)
        };
        assert!(matches!(f.engine.submit(blind), Err(Rejection::Invalid(_))));
        let engine = &f.engine;
        let spec: Vec<_> = reqs
            .iter()
            .map(|req| engine.submit(req.clone()).unwrap())
            .collect();
        let ar = engine.submit(ar_req).unwrap();
        engine.run_until_idle();

        assert_eq!(ar.snapshot(), (Status::Done, want[0].0.clone()), "{cell}");
        assert_eq!(ar.stats(), None, "{cell}: AR carries no spec stats");
        for (h, (tokens, one_shot)) in spec.iter().zip(&want) {
            assert_eq!(h.snapshot(), (Status::Done, tokens.clone()), "{cell}");
            assert!(h.ttft_ms().is_some(), "{cell}");
            let stats = h.stats().expect("spec request carries stats");
            assert_eq!(stats.generated, tokens.len(), "{cell}");
            assert!(stats.accepted <= stats.drafted, "{cell}");
            assert_eq!(&stats, one_shot, "{cell}");
        }
        let m = engine.metrics();
        let served = budgets.iter().sum::<usize>() + budgets[0];
        assert_eq!(m.requests_completed.get(), 6, "{cell}");
        assert_eq!(m.tokens_generated.get(), served as u64, "{cell}");
        assert_eq!(m.queue_depth.get(), 0, "{cell}");
        assert_leases_back(engine);
    }

    /// The engine losslessness matrix: {text-only draft context, AASD
    /// draft context}, each row at workers {1, 2} and with the draft on
    /// either kernel policy under the f32 target.
    macro_rules! lossless_matrix {
        ($($name:ident: $ablation:expr;)*) => {$(
            #[test]
            fn $name() {
                for draft_policy in [KernelPolicy::F32, KernelPolicy::Int8] {
                    for workers in [1, 2] {
                        lossless_cell($ablation, workers, draft_policy);
                    }
                }
            }
        )*};
    }
    lossless_matrix! {
        lossless_chain_text_fixed: Ablation::no_vision();
        lossless_chain_mm_fixed: Ablation::projector();
    }

    /// An engine handed an `Int8` target serves it quantized and its spec
    /// completions equal the one-shot fused loop on the same quantized
    /// models — losslessness survives scheduling under either kernel family.
    #[test]
    fn int8_engine_serves_losslessly() {
        let f = serve(
            models(KernelPolicy::Int8, KernelPolicy::F32),
            EngineConfig::default(),
        );
        let req = spec_req(vec![3, 7, 1, 9], 20, 4);
        let (want, _) = f.one_shot(&req);
        let h = f.engine.submit(req).unwrap();
        f.engine.run_until_idle();
        assert_eq!(h.snapshot(), (Status::Done, want));
    }

    /// No request pays for packing: `Engine::new` returns with the shadow
    /// each model's policy reads built on every projection of target and
    /// draft — f32 panels under `F32`, the int8 image under `Int8` — and
    /// never the other one: an int8 draft holds no f32 panels.
    #[test]
    fn engine_new_prepacks_target_and_draft() {
        // (f32 panels, int8 image) on the head and on a block projection.
        let shadows = |m: &Decoder| {
            let b = &m.blocks[m.blocks.len() - 1];
            [&m.lm_head, &b.attn.wq, &b.mlp.w2].map(|l| (l.is_packed(), l.is_quantized()))
        };
        for (target_policy, draft_policy) in [
            (KernelPolicy::F32, KernelPolicy::Int8),
            (KernelPolicy::Int8, KernelPolicy::F32),
        ] {
            let (model, draft, projector) = models(target_policy, draft_policy);
            assert_eq!(shadows(&model.lm), [(false, false); 3]);
            assert_eq!(shadows(&draft), [(false, false); 3]);
            let f = serve((model, draft, projector), EngineConfig::default());
            let want = |p| match p {
                KernelPolicy::F32 => [(true, false); 3],
                KernelPolicy::Int8 => [(false, true); 3],
            };
            assert_eq!(shadows(&f.model.lm), want(target_policy));
            assert_eq!(shadows(&f.draft), want(draft_policy));
        }
    }

    /// More requests than slots: continuous batching must finish them all,
    /// each lossless, with the queue draining FIFO.
    #[test]
    fn oversubscribed_queue_drains_losslessly() {
        let f = fixture(cfg(2, 1, 16));
        let engine = &f.engine;
        let reqs: Vec<_> = (0..6)
            .map(|i| spec_req(vec![1 + i, 7, i * 3 % 11], 12 + 1 + i as usize, 3))
            .collect();
        let handles: Vec<_> = reqs
            .iter()
            .map(|r| engine.submit(r.clone()).unwrap())
            .collect();
        engine.run_until_idle();
        for (req, h) in reqs.iter().zip(&handles) {
            let (status, tokens) = h.snapshot();
            assert_eq!(status, Status::Done, "request {} not done", h.id);
            assert_eq!(tokens, f.one_shot(req).0, "request {} diverged", h.id);
        }
        assert_eq!(engine.metrics().requests_completed.get(), 6);
        assert_eq!(engine.metrics().queue_depth.get(), 0);
        // Every lease returned to the pools, and the gauges say so.
        assert_leases_back(engine);
        assert_eq!(
            engine.metrics().kv_free_blocks_target.get(),
            engine.t_pool.free_blocks() as u64
        );
        assert_eq!(
            engine.metrics().kv_free_blocks_draft.get(),
            engine.d_pool.total_blocks() as u64
        );
    }

    /// Admission control: submits past `max_queue` are rejected Busy, and
    /// invalid requests are rejected outright without consuming queue room.
    #[test]
    fn admission_control_rejects() {
        let Fixture { engine, .. } = fixture(cfg(1, 1, 2));
        // Valid fills.
        for _ in 0..2 {
            engine.submit(spec_req(vec![1, 2], 8, 3)).unwrap();
        }
        assert_eq!(
            engine.submit(spec_req(vec![1, 2], 8, 3)).unwrap_err(),
            Rejection::Busy
        );
        // Invalid shapes.
        for bad in [
            spec_req(vec![], 8, 3),
            spec_req(vec![1], 0, 3),
            spec_req(vec![1], 8, 0),
            spec_req(vec![1], 8, MAX_GAMMA),
            spec_req(vec![99], 8, 3),     // outside vocab 40
            spec_req(vec![0; 200], 8, 3), // past max_seq 96
            Request {
                prompt: vec![1],
                max_new: 4,
                mode: DecodeMode::Autoregressive,
                image_seed: None,
            },
        ] {
            assert!(
                matches!(engine.submit(bad.clone()), Err(Rejection::Invalid(_))),
                "{bad:?} should be invalid"
            );
        }
        assert_eq!(engine.metrics().requests_rejected.get(), 8);
        engine.run_until_idle();
        assert_eq!(engine.metrics().requests_completed.get(), 2);
    }

    /// The queue-depth gauge must track every transition: growth on submit,
    /// decay through refill, and an immediate drop to zero on `cancel_all`
    /// — the shutdown path previously left it stale at its last value.
    #[test]
    fn queue_depth_gauge_returns_to_zero() {
        let Fixture { engine, .. } = fixture(cfg(1, 1, 16));
        for i in 0..5 {
            engine.submit(spec_req(vec![1 + i, 2], 8, 3)).unwrap();
        }
        assert_eq!(engine.metrics().queue_depth.get(), 5);
        engine.run_until_idle();
        assert_eq!(engine.metrics().queue_depth.get(), 0);
        assert_eq!(engine.metrics().requests_completed.get(), 5);

        // Queue up work and shut down without ever ticking: the gauge and
        // every queued handle must still reach their terminal states.
        let hs: Vec<_> = (0..3)
            .map(|i| engine.submit(spec_req(vec![2 + i, 3], 8, 3)).unwrap())
            .collect();
        assert_eq!(engine.metrics().queue_depth.get(), 3);
        engine.cancel_all();
        assert_eq!(engine.metrics().queue_depth.get(), 0);
        for h in hs {
            assert_eq!(h.snapshot().0, Status::Cancelled);
        }
        assert_eq!(engine.metrics().requests_cancelled.get(), 3);
    }

    /// Cancelling a running request stops it at a block boundary, keeps the
    /// committed prefix readable, and frees the slot for the next request.
    #[test]
    fn cancel_frees_slot_and_keeps_prefix() {
        let f = fixture(cfg(1, 1, 8));
        let engine = &f.engine;
        let (r1, r2) = (
            spec_req(vec![3, 7, 1, 9], 40, 3),
            spec_req(vec![5, 2], 10, 3),
        );
        let h1 = engine.submit(r1.clone()).unwrap();
        let h2 = engine.submit(r2.clone()).unwrap();
        // A few blocks of progress, then cancel mid-flight.
        for _ in 0..3 {
            engine.tick();
        }
        assert!(engine.cancel(h1.id));
        engine.run_until_idle();
        let (s1, t1) = h1.snapshot();
        assert_eq!(s1, Status::Cancelled);
        assert!(!t1.is_empty() && t1.len() < 40, "partial prefix expected");
        // The committed prefix must be a prefix of the true completion.
        assert_eq!(t1[..], f.one_shot(&r1).0[..t1.len()]);
        // The second request still completes losslessly on the reused slot.
        assert_eq!(h2.snapshot(), (Status::Done, f.one_shot(&r2).0));
        assert_eq!(engine.metrics().requests_cancelled.get(), 1);
        assert!(!engine.cancel(h1.id), "finished ids cannot be re-cancelled");
    }

    /// Cancelling the only running session mid-speculation keeps its
    /// committed prefix, returns both leases to the pools, and leaves the
    /// slot serving a request submitted after the cancel.
    #[test]
    fn cancel_mid_flight_returns_leases() {
        let f = fixture(cfg(1, 1, 8));
        let engine = &f.engine;
        let r1 = spec_req(vec![3, 7, 1, 9], 60, 3);
        let h1 = engine.submit(r1.clone()).unwrap();
        while h1.snapshot().1.len() < 3 {
            engine.tick();
        }
        assert!(engine.cancel(h1.id));
        engine.run_until_idle();
        let (s1, t1) = h1.snapshot();
        assert_eq!(s1, Status::Cancelled);
        let want = f.one_shot(&r1).0;
        assert_eq!(t1[..], want[..t1.len()], "prefix must match true stream");
        assert_eq!(engine.metrics().requests_cancelled.get(), 1);
        assert_leases_back(engine);
        let r2 = spec_req(vec![5, 2], 10, 3);
        let h2 = engine.submit(r2.clone()).unwrap();
        engine.run_until_idle();
        assert_eq!(h2.snapshot(), (Status::Done, f.one_shot(&r2).0));
    }

    /// Cancelling while still queued drops the request at refill without it
    /// ever occupying a slot.
    #[test]
    fn cancel_queued_request_never_runs() {
        let Fixture { engine, .. } = fixture(cfg(1, 1, 8));
        let h1 = engine.submit(spec_req(vec![1, 2, 3], 30, 3)).unwrap();
        let h2 = engine.submit(spec_req(vec![4, 5], 10, 3)).unwrap();
        assert!(engine.cancel(h2.id));
        engine.run_until_idle();
        assert_eq!(h1.snapshot().0, Status::Done);
        let (s2, t2) = h2.snapshot();
        assert_eq!(s2, Status::Cancelled);
        assert!(t2.is_empty());
        assert!(h2.ttft_ms().is_none());
    }

    /// A cancelled request must leave the queue at the next tick wherever it
    /// sits and whether or not a slot is free: it stops counting against
    /// `max_queue`, the depth gauge drops, its waiter unblocks, and the
    /// requests around it keep their FIFO order.
    #[test]
    fn cancelled_queued_request_is_reaped_with_all_slots_busy() {
        let Fixture { engine, .. } = fixture(cfg(1, 1, 3));
        let long = engine.submit(spec_req(vec![3, 7, 1, 9], 60, 3)).unwrap();
        engine.tick(); // `long` now holds the only slot
        let first = engine.submit(spec_req(vec![1, 2], 6, 3)).unwrap();
        let second = engine.submit(spec_req(vec![4, 5], 6, 3)).unwrap();
        let third = engine.submit(spec_req(vec![6, 7], 6, 3)).unwrap();
        assert_eq!(engine.metrics().queue_depth.get(), 3);
        assert_eq!(
            engine.submit(spec_req(vec![8], 6, 3)).unwrap_err(),
            Rejection::Busy
        );

        assert!(engine.cancel(second.id));
        engine.tick();
        assert_eq!(long.snapshot().0, Status::Running);
        assert_eq!(second.snapshot().0, Status::Cancelled);
        assert_eq!(engine.metrics().queue_depth.get(), 2);
        assert_eq!(engine.metrics().requests_cancelled.get(), 1);
        // The freed queue room is usable at once.
        let fourth = engine.submit(spec_req(vec![8], 6, 3)).unwrap();

        // The survivors are admitted in submission order.
        let mut started = Vec::new();
        while engine.tick() {
            for h in [&first, &third, &fourth] {
                if h.snapshot().0 != Status::Queued && !started.contains(&h.id) {
                    started.push(h.id);
                }
            }
        }
        assert_eq!(started, [first.id, third.id, fourth.id]);
        assert_eq!(engine.metrics().requests_completed.get(), 4);
        assert!(second.snapshot().1.is_empty());
    }

    /// The id → handle map must stay bounded over the engine's life: every
    /// live request plus the `RETAINED_FINISHED` most recent terminal ones.
    #[test]
    fn finished_handles_are_bounded() {
        let Fixture { engine, .. } = fixture(cfg(4, 1, 64));
        let extra = 40;
        let mut ids = Vec::new();
        while ids.len() < RETAINED_FINISHED + extra {
            for _ in 0..64 {
                ids.push(engine.submit(spec_req(vec![1, 2], 1, 3)).unwrap().id);
            }
            engine.run_until_idle();
        }
        let live = engine.submit(spec_req(vec![3], 1, 3)).unwrap();
        let held = engine.qstate.lock().unwrap().handles.len();
        assert_eq!(
            held,
            RETAINED_FINISHED + 1,
            "finished handles + the live one"
        );
        assert!(engine.poll(live.id).is_some(), "live requests always poll");
        let newest = *ids.last().unwrap();
        assert_eq!(engine.poll(newest).map(|(s, _)| s), Some(Status::Done));
        assert!(
            engine.poll(ids[0]).is_none(),
            "oldest finished id is forgotten"
        );
        assert!(!engine.cancel(ids[0]));
    }

    /// Slot reuse: many sequential requests through one slot must all be
    /// lossless (reused pool blocks behave like fresh ones) and the
    /// workspace pool must stop growing after warmup.
    #[test]
    fn slot_reuse_is_lossless_and_allocation_stable() {
        let f = fixture(cfg(1, 1, 16));
        let engine = &f.engine;
        for round in 0..3 {
            let req = spec_req(vec![2 + round, 9, 4], 20, 5);
            let h = engine.submit(req.clone()).unwrap();
            engine.run_until_idle();
            assert_eq!(
                h.snapshot(),
                (Status::Done, f.one_shot(&req).0),
                "round {round}"
            );
        }
        assert!(
            engine.slots[0].lock().unwrap().active.is_none(),
            "slot should be idle after drain"
        );
        assert_eq!(engine.metrics.requests_completed.get(), 3);
        assert_leases_back(engine);
    }

    fn mm_cfg(vision_cache_entries: usize) -> EngineConfig {
        EngineConfig {
            vision_cache_entries,
            ..cfg(2, EngineConfig::default().workers, 8)
        }
    }

    /// The vision cache: a repeated image is a hit that skips the vision
    /// tower yet yields the byte-identical stream; hit/miss counters track
    /// it; disabling the cache (entries = 0) serves every request as a
    /// miss and still matches. Greedy streams are lossless whatever the
    /// draft sees, so the `SpecStats` are what show that a hit seeds the
    /// draft exactly like a miss: each request's must equal its uncached
    /// twin's.
    #[test]
    fn vision_cache_hit_is_bit_identical_to_miss() {
        let f = fixture(mm_cfg(4));
        let reqs: Vec<_> = [5u64, 5, 9, 5]
            .iter()
            .map(|&seed| Request {
                image_seed: Some(seed),
                ..spec_req(vec![3, 11, 25, 7], 16, 3)
            })
            .collect();
        let want: Vec<_> = reqs.iter().map(|r| f.one_shot(r).0).collect();
        let handles: Vec<_> = reqs
            .iter()
            .map(|req| {
                let h = f.engine.submit(req.clone()).unwrap();
                // Serialize so hit/miss accounting is deterministic.
                f.engine.run_until_idle();
                h
            })
            .collect();
        for (h, w) in handles.iter().zip(&want) {
            assert_eq!(h.snapshot(), (Status::Done, w.clone()));
        }
        let cached_stats: Vec<_> = handles.iter().map(|h| h.stats()).collect();
        // Seeds [5, 5, 9, 5]: misses for 5 and 9, hits for the repeats.
        assert_eq!(f.engine.metrics().vision_cache_misses.get(), 2);
        assert_eq!(f.engine.metrics().vision_cache_hits.get(), 2);

        // Same burst with the cache disabled: identical streams, no hits.
        let Fixture {
            engine: engine0, ..
        } = fixture(mm_cfg(0));
        for ((req, w), cached) in reqs.iter().zip(&want).zip(&cached_stats) {
            let h = engine0.submit(req.clone()).unwrap();
            engine0.run_until_idle();
            assert_eq!(h.snapshot(), (Status::Done, w.clone()));
            assert!(cached.is_some(), "spec request carries stats");
            assert_eq!(&h.stats(), cached, "{req:?}: cached ≠ uncached");
        }
        assert_eq!(engine0.metrics().vision_cache_hits.get(), 0);
    }

    /// A request on `seed`'s image with the vision-cache tests' prompt.
    fn img_req(seed: u64, max_new: usize) -> Request {
        Request {
            image_seed: Some(seed),
            ..spec_req(vec![3, 11, 25, 7], max_new, 3)
        }
    }

    /// `block_size` 4: the tiny bundle's 8 image rows fill two whole blocks,
    /// so an entry and every session that hits it hold whole prefix blocks.
    fn whole_block_cfg(vision_cache_entries: usize) -> EngineConfig {
        EngineConfig {
            workers: 1,
            block_size: 4,
            ..mm_cfg(vision_cache_entries)
        }
    }

    /// The vision-cache key of `seed`'s image.
    fn image_hash(f: &Fixture, seed: u64) -> u64 {
        let vision = &f.model.cfg.vision;
        Image::synthetic(&mut Rng::new(seed), vision.n_patches, vision.patch_dim).content_hash()
    }

    /// A full vision cache evicts its LRU entry to insert a new image, and
    /// the pool has that entry's blocks back at once, while a session that
    /// hit the entry is still decoding from its own copy of the rows; that
    /// session's stream still equals the one-shot loop's.
    #[test]
    fn evicting_a_hit_entry_returns_its_blocks_while_the_hit_decodes() {
        let f = fixture(whole_block_cfg(1));
        let engine = &f.engine;
        engine.submit(img_req(5, 4)).unwrap();
        engine.run_until_idle();
        // A long hit on seed 5 and a short miss on seed 9 prefill in one
        // tick; the miss's insert evicts seed 5's entry.
        let long = img_req(5, 40);
        let h = engine.submit(long.clone()).unwrap();
        engine.submit(img_req(9, 4)).unwrap();
        engine.tick();
        assert_eq!(engine.metrics().vision_cache_hits.get(), 1);
        assert_eq!(h.snapshot().0, Status::Running);
        {
            let vc = engine.vision_cache.lock().unwrap();
            let cached: Vec<u64> = vc.entries.keys().copied().collect();
            assert_eq!(cached, [image_hash(&f, 9)], "seed 5 evicted for seed 9");
        }
        assert_blocks_conserved(engine);
        engine.run_until_idle();
        assert_eq!(h.snapshot(), (Status::Done, f.one_shot(&long).0));
        assert_leases_back(engine);
    }

    /// Blocks are conserved through a served mix of hits and misses: after
    /// every tick, free blocks plus every live lease plus every cached
    /// entry make up each pool, and every stream is lossless.
    #[test]
    fn kv_blocks_are_conserved_through_a_served_run() {
        let f = fixture(whole_block_cfg(2));
        let engine = &f.engine;
        let reqs: Vec<_> = [
            (5, 30),
            (5, 12),
            (9, 20),
            (5, 8),
            (11, 16),
            (9, 24),
            (13, 6),
            (5, 10),
        ]
        .into_iter()
        .map(|(seed, max_new)| img_req(seed, max_new))
        .collect();
        let handles: Vec<_> = reqs
            .iter()
            .map(|r| engine.submit(r.clone()).unwrap())
            .collect();
        assert_blocks_conserved(engine);
        while engine.tick() {
            assert_blocks_conserved(engine);
        }
        for (h, req) in handles.iter().zip(&reqs) {
            assert_eq!(h.snapshot(), (Status::Done, f.one_shot(req).0));
        }
        let m = engine.metrics();
        assert!(m.vision_cache_hits.get() > 0 && m.vision_cache_misses.get() > 0);
        assert_leases_back(engine);
    }

    /// The pools' worst case: every slot runs a request at the longest lease
    /// the target allows, each on an image of its own, beside a full vision
    /// cache. Every refill still fills every free slot while the queue is
    /// non-empty, every admitted session holds exactly the blocks its plan
    /// sizes, hit or miss, blocks are conserved after every tick, and the
    /// target arena is used to its last block.
    #[test]
    fn the_worst_case_fills_every_slot_and_the_whole_target_arena() {
        let slots = 3;
        let f = fixture(EngineConfig {
            slots,
            ..whole_block_cfg(2)
        });
        let engine = &f.engine;
        // Seeds 1 and 2 fill the cache.
        for seed in [1, 2] {
            engine.submit(img_req(seed, 4)).unwrap();
        }
        engine.run_until_idle();
        // 8 image + 4 prompt + 85 − 1 = 96 positions: the target's max_seq.
        let reqs = [1, 3, 2, 4, 5, 6, 7].map(|seed| img_req(seed, 85));
        let plan = engine.lease_plan(&reqs[0]);
        assert_eq!(plan.t_capacity, f.model.cfg.lm.max_seq);
        let t_blocks = engine.t_pool.blocks_for(plan.t_capacity);
        let d_blocks = plan.d_capacity.map(|dc| engine.d_pool.blocks_for(dc));
        let handles: Vec<_> = reqs
            .iter()
            .map(|r| engine.submit(r.clone()).unwrap())
            .collect();
        let mut least_free = usize::MAX;
        loop {
            engine.refill();
            let queued = engine.qstate.lock().unwrap().queue.len();
            let mut running = 0;
            for slot in &engine.slots {
                if let Some(a) = &slot.lock().unwrap().active {
                    running += 1;
                    assert_eq!(a.t_cache.n_blocks(), t_blocks);
                    assert_eq!(a.d_cache.as_ref().map(KvCache::n_blocks), d_blocks);
                }
            }
            assert!(
                queued == 0 || running == slots,
                "a slot idled beside the queue"
            );
            least_free = least_free.min(engine.t_pool.free_blocks());
            if !engine.tick() {
                break;
            }
            assert_blocks_conserved(engine);
        }
        assert_eq!(
            least_free, 0,
            "the worst case leases the whole target arena"
        );
        for (h, req) in handles.iter().zip(&reqs) {
            assert_eq!(h.snapshot(), (Status::Done, f.one_shot(req).0));
        }
        // Seeds 1 and 2 hit at the first refill; every later image misses.
        let m = engine.metrics();
        assert_eq!(m.vision_cache_hits.get(), 2);
        assert_eq!(m.vision_cache_misses.get(), 7);
        assert_leases_back(engine);
    }

    /// `serve` returning after its stop flag was raised mid-speculation has
    /// finished every request — running or still queued — with a terminal
    /// status and returned every lease, and refuses every later submit
    /// instead of queueing it for a scheduler that will never tick: the
    /// server's SHUTDOWN path in miniature.
    #[test]
    fn serve_drain_finishes_in_flight_sessions() {
        let Fixture { engine, .. } = fixture(cfg(2, 1, 8));
        let stop = AtomicBool::new(false);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                engine
                    .submit(spec_req(vec![3 + i, 7, 1, 9], 80, 3))
                    .unwrap()
            })
            .collect();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while handles[0].snapshot().1.len() < 2 {
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Release);
            });
            engine.serve(&stop);
        });
        for h in &handles {
            let status = h.snapshot().0;
            assert!(
                matches!(status, Status::Done | Status::Cancelled),
                "request {} left {status:?}",
                h.id
            );
        }
        assert_leases_back(&engine);
        assert_eq!(engine.active.load(Ordering::Acquire), 0);
        assert_eq!(engine.metrics().queue_depth.get(), 0);
        assert_eq!(
            engine.submit(spec_req(vec![1, 2, 3], 8, 3)).unwrap_err(),
            Rejection::Invalid("engine is shut down".into())
        );
        assert_eq!(engine.metrics().queue_depth.get(), 0);
        assert!(engine.qstate.lock().unwrap().queue.is_empty());
    }
}
