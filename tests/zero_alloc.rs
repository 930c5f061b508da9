//! Proof that steady-state single-token decode on the fused workspace path
//! performs **zero heap allocations**.
//!
//! A counting global allocator wraps `System` and tallies every
//! `alloc`/`realloc`/`alloc_zeroed` **made by the test's own thread**. After
//! one warm-up pass (which populates the workspace pool with every scratch
//! size the step needs), a window of decode steps must leave the counter
//! untouched. This is the allocator-level ground truth behind
//! `Workspace::fresh_allocs` staying flat.
//!
//! The counter is thread-filtered because the libtest harness's main thread
//! shares the process allocator and allocates on its own schedule — its
//! first *blocking* channel receive lazily initializes an mpmc thread-local
//! `Context` (two heap allocations), and whether that lands inside the
//! measurement window is a scheduling race. The const-initialized
//! thread-local flag below reads without allocating, so opting the test
//! thread in is itself invisible to the counter.
//!
//! This file must stay a single-test binary: the filter keys on "the thread
//! that set the flag", and a second test sharing the binary would race to
//! set it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use aasd::nn::{Decoder, DecoderConfig, KernelPolicy};
use aasd::specdec::SpecSession;
use aasd::tensor::Workspace;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// True only on the thread under measurement. `const`-initialized so
    /// reading it from inside the allocator never triggers a lazy TLS
    /// initialization (which could itself allocate and recurse).
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn on_counted_thread() -> bool {
    // `try_with` instead of `with`: the allocator can run during TLS
    // teardown of other threads, where accessing a destroyed key would
    // panic. Those threads are never the measured one — default to false.
    COUNTED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if on_counted_thread() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if on_counted_thread() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if on_counted_thread() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_decode_step_performs_zero_heap_allocations() {
    COUNTED.with(|c| c.set(true));
    let model = Decoder::new(DecoderConfig::tiny(50), 0x2E80);
    let mut cache = model.new_cache();
    let mut ws = Workspace::new();
    // Prefill + a few warm-up decode steps populate the pool with every
    // scratch size a single-token step requests, and the first fused forward
    // packs every projection's weight into panels — the one allocation a
    // `Linear` ever makes, inside the warm-up and never after it.
    let prompt = [1u32, 2, 3, 4];
    let mut prefill = vec![0.0f32; prompt.len() * model.cfg.vocab];
    model.forward_infer_ws(&prompt, &mut cache, &mut ws, &mut prefill);
    let mut logits = vec![0.0f32; model.cfg.vocab];
    let mut tok = 5u32;
    for _ in 0..3 {
        model.forward_infer_ws(&[tok], &mut cache, &mut ws, &mut logits);
        tok = aasd::tensor::argmax(&logits) as u32;
    }

    assert!(model.lm_head.is_packed() && model.blocks[0].mlp.w2.is_packed());
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let pool_before = ws.fresh_allocs();
    for _ in 0..32 {
        model.forward_infer_ws(&[tok], &mut cache, &mut ws, &mut logits);
        tok = aasd::tensor::argmax(&logits) as u32;
    }
    let after = ALLOC_CALLS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "steady-state decode steps hit the allocator {} times",
        after - before
    );
    assert_eq!(ws.fresh_allocs(), pool_before, "workspace pool grew");

    // Phase 2 (same single test — see the binary-level constraint above):
    // the int8 kernel path must hold the identical guarantee. Its extra
    // per-call activation-quantization scratch comes from the workspace's
    // i8 pool, so after its own warm-up the quantized step is equally
    // allocation-free. (The clone carries the f32 panels along; the int8
    // projections never read them, and quantize their own image on the
    // first forward — inside the warm-up, like the packing above.)
    let mut q_model = model.clone();
    q_model.set_kernel_policy(KernelPolicy::Int8);
    let mut q_cache = q_model.new_cache();
    q_model.forward_infer_ws(&prompt, &mut q_cache, &mut ws, &mut prefill);
    for _ in 0..3 {
        q_model.forward_infer_ws(&[tok], &mut q_cache, &mut ws, &mut logits);
        tok = aasd::tensor::argmax(&logits) as u32;
    }

    assert!(q_model.lm_head.is_quantized() && q_model.blocks[0].mlp.w2.is_quantized());
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let pool_before = ws.fresh_allocs();
    for _ in 0..32 {
        q_model.forward_infer_ws(&[tok], &mut q_cache, &mut ws, &mut logits);
        tok = aasd::tensor::argmax(&logits) as u32;
    }
    let after = ALLOC_CALLS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "steady-state int8 decode steps hit the allocator {} times",
        after - before
    );
    assert_eq!(ws.fresh_allocs(), pool_before, "int8 workspace pool grew");
    // Phase 3: the configuration the system serves — an f32 target verifying
    // an int8 draft's proposals. A speculative block runs one-row draft
    // steps, a two-row draft refeed after a fully accepted block and a
    // (γ+1)-row verify; the draft's activation codes for `rows × k` and its
    // per-row scales come from the workspace pools, so the steady state of
    // whole blocks allocates nothing. The int8 twin of the target is the
    // draft: it agrees often enough that both draft shapes occur.
    let gamma = 5;
    let (target, draft) = (&model, &q_model);
    let (mut t_cache, mut d_cache) = (target.new_cache(), draft.new_cache());
    target.forward_infer_ws(&prompt, &mut t_cache, &mut ws, &mut prefill);
    draft.forward_infer_ws(&prompt, &mut d_cache, &mut ws, &mut prefill);
    let pending = aasd::tensor::argmax(&prefill[(prompt.len() - 1) * target.cfg.vocab..]) as u32;
    let mut session = SpecSession::new(target, draft, &t_cache, &d_cache, pending, 120, gamma);
    let mut block = |session: &mut SpecSession, ws: &mut Workspace| {
        session.step_block(target, draft, &mut t_cache, &mut d_cache, ws)
    };
    for _ in 0..4 {
        block(&mut session, &mut ws);
    }

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let pool_before = ws.fresh_allocs();
    let blocks_before = session.stats().blocks;
    for _ in 0..10 {
        assert!(
            !block(&mut session, &mut ws).done,
            "window ran into the budget"
        );
    }
    let after = ALLOC_CALLS.load(Ordering::Relaxed);

    let stats = session.stats();
    assert_eq!(stats.blocks - blocks_before, 10);
    assert!(
        0 < stats.accepted && stats.accepted < stats.drafted,
        "window must see accepts and rejections: {stats:?}"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state speculative blocks hit the allocator {} times",
        after - before
    );
    assert_eq!(
        ws.fresh_allocs(),
        pool_before,
        "speculative workspace pool grew"
    );
}
