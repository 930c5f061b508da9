//! The layer probe of the traced pass: each layer's public calls timed in
//! isolation at the shapes of the workload's own models and requests.
//! Workload spans cannot split a `step_block` into its draft and verify
//! halves from outside; the probe supplies those parts.

use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use aasd_mm::{seed_draft_prefix, Ablation};
use aasd_nn::{KvCache, KvPool};
use aasd_serve::proto;
use aasd_serve::Status;
use aasd_tensor::{backend, matmul_blocked_into, vecmat_into, Rng, Workspace};

use crate::run::{metric, Metric};
use crate::setup::{Models, Req};
use crate::stats::median;

/// Median microseconds of one call of `f`, over `samples` timed batches of
/// `inner` calls each (after two untimed batches).
fn median_us(samples: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(samples);
    for s in 0..samples + 2 {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        if s >= 2 {
            times.push(t.elapsed().as_nanos() as f64 / 1e3 / inner as f64);
        }
    }
    median(&times)
}

fn random(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// `tensor.*`: the kernels under the target LM's MLP up-projection
/// (`dim × ff_hidden`) at 1, 4, 6 and 32 rows, and one head's score sweep.
fn tensor_layer(models: &Models, out: &mut Vec<Metric>) {
    let lm = &models.target.cfg.lm;
    let (k, n) = (lm.dim, lm.ff_hidden);
    let mut rng = Rng::new(0x7E50);
    let w = random(&mut rng, k * n);
    let x = random(&mut rng, 32 * k);
    let mut y = vec![0.0f32; 32 * n];

    let vecmat_us = median_us(41, 16, || {
        vecmat_into(&mut y[..n], &x[..k], &w, k, n);
        black_box(&mut y);
    });
    let mut rows_us = |m: usize| {
        median_us(41, 8, || {
            matmul_blocked_into(&mut y[..m * n], &x[..m * k], &w, m, k, n);
            black_box(&mut y);
        })
    };
    let (rows4, rows6, rows32) = (rows_us(4), rows_us(6), rows_us(32));

    const CTX: usize = 64;
    let keys = random(&mut rng, CTX * k);
    let q = random(&mut rng, lm.head_dim());
    let mut scores = vec![0.0f32; CTX];
    let attn_us = median_us(41, 64, || {
        aasd_tensor::simd::attn_scores_with(backend(), &mut scores, &q, &keys, k, 0.125);
        black_box(&mut scores);
    });

    out.push(metric("tensor.vecmat_us", "us", vecmat_us));
    out.push(metric("tensor.matmul_rows4_us", "us", rows4));
    out.push(metric("tensor.matmul_rows6_us", "us", rows6));
    out.push(metric("tensor.matmul_rows32_us", "us", rows32));
    out.push(metric(
        "tensor.rows6_over_rows1",
        "ratio",
        rows6 / vecmat_us,
    ));
    out.push(metric("tensor.attn_scores_us", "us", attn_us));
    // Computed from sizes, not measured: weights read + input + output.
    out.push(metric(
        "tensor.vecmat_bytes",
        "bytes",
        ((k * n + k + n) * 4) as f64,
    ));
}

/// A target cache holding `req`'s vision prefix and prompt, and the draft
/// cache seeded from it.
fn prefilled(models: &Models, req: &Req, ws: &mut Workspace) -> (KvCache, KvCache) {
    let mut t_cache = models.target.lm.new_cache();
    models
        .target
        .prefill_ws(&req.image, &req.prompt, &mut t_cache, ws);
    let mut d_cache = models.draft.new_cache();
    seed_draft_prefix(
        &models.target,
        Some(&models.projector),
        Ablation::projector(),
        &t_cache,
        &mut d_cache,
    );
    let mut logits = ws.take(req.prompt.len() * models.draft.cfg.vocab);
    models
        .draft
        .forward_infer_ws(&req.prompt, &mut d_cache, ws, &mut logits);
    ws.give(logits);
    (t_cache, d_cache)
}

/// `nn.*`: decoder passes of 1 and γ+1 rows on a prefilled context, and
/// the KV pool's lease and rollback.
fn nn_layer(models: &Models, req: &Req, gamma: usize, ws: &mut Workspace, out: &mut Vec<Metric>) {
    let (target, draft) = (&models.target.lm, &*models.draft);
    let vocab = target.cfg.vocab;
    let (mut t_cache, mut d_cache) = prefilled(models, req, ws);
    let (t_base, d_base) = (t_cache.len(), d_cache.len());
    let rows: Vec<u32> = req.reference.iter().copied().take(gamma + 1).collect();
    assert_eq!(rows.len(), gamma + 1, "probe request shorter than a block");
    let mut logits = vec![0.0f32; (gamma + 1) * vocab];

    let decode1_us = median_us(41, 4, || {
        target.forward_infer_ws(&rows[..1], &mut t_cache, ws, &mut logits[..vocab]);
        t_cache.truncate(t_base);
    });
    let verify_us = median_us(41, 4, || {
        target.forward_infer_ws(&rows, &mut t_cache, ws, &mut logits);
        t_cache.truncate(t_base);
    });
    let draft_decode1_us = median_us(41, 4, || {
        draft.forward_infer_ws(&rows[..1], &mut d_cache, ws, &mut logits[..vocab]);
        d_cache.truncate(d_base);
    });
    let n_img = models.target.n_img();
    let prompt = &req.prompt;
    let mut p_logits = vec![0.0f32; prompt.len() * vocab];
    let prefill_us = median_us(41, 2, || {
        t_cache.truncate(n_img);
        target.forward_infer_ws(prompt, &mut t_cache, ws, &mut p_logits);
    });

    let pool = KvPool::new(target.cfg.n_layers, target.cfg.dim, 16, 32);
    let capacity = t_base + req.max_new - 1;
    let kv_lease_us = median_us(41, 16, || {
        black_box(
            pool.try_lease(capacity)
                .expect("probe pool holds one lease"),
        );
    });
    let kv_truncate_us = median_us(41, 1024, || {
        t_cache.truncate(black_box(n_img));
    });

    out.push(metric("nn.decode1_us", "us", decode1_us));
    out.push(metric("nn.verify_us", "us", verify_us));
    out.push(metric(
        "nn.verify_over_decode1",
        "ratio",
        verify_us / decode1_us,
    ));
    out.push(metric("nn.draft_decode1_us", "us", draft_decode1_us));
    out.push(metric(
        "nn.prefill_us_per_row",
        "us",
        prefill_us / prompt.len() as f64,
    ));
    out.push(metric("nn.kv_lease_us", "us", kv_lease_us));
    out.push(metric("nn.kv_truncate_us", "us", kv_truncate_us));
}

/// `mm.*` timings: each prefill leg of the one-shot path, median over the
/// probe requests (fresh caches per call, as a request pays them).
fn mm_layer(models: &Models, reqs: &[Req], ws: &mut Workspace, out: &mut Vec<Metric>) {
    let target = &*models.target;
    let draft = &*models.draft;
    let mut legs: [Vec<f64>; 5] = Default::default();
    // The first sweep warms the workspace and is not kept.
    for sweep in 0..4 {
        let mut timed = |leg: usize, f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            if sweep > 0 {
                legs[leg].push(t.elapsed().as_nanos() as f64 / 1e3);
            }
        };
        for req in reqs {
            let mut t_cache = target.lm.new_cache();
            let mut d_cache = draft.new_cache();
            let mut d_logits = vec![0.0f32; req.prompt.len() * draft.cfg.vocab];
            timed(0, &mut || {
                black_box(target.encode_image(&req.image));
            });
            timed(1, &mut || {
                target.prefill_vision_ws(&req.image, &mut t_cache, ws)
            });
            timed(2, &mut || {
                black_box(target.prefill_text_ws(&req.prompt, &mut t_cache, ws));
            });
            timed(3, &mut || {
                seed_draft_prefix(
                    target,
                    Some(&models.projector),
                    Ablation::projector(),
                    &t_cache,
                    &mut d_cache,
                );
            });
            timed(4, &mut || {
                draft.forward_infer_ws(&req.prompt, &mut d_cache, ws, &mut d_logits)
            });
        }
    }
    let names = [
        "mm.vision_us",
        "mm.prefill_vision_us",
        "mm.prefill_text_us",
        "mm.seed_draft_us",
        "mm.draft_prefill_us",
    ];
    for (name, leg) in names.into_iter().zip(&legs) {
        out.push(metric(name, "us", median(leg)));
    }
}

/// `serve.proto_*`: the wire protocol's text handling, with no socket.
fn proto_layer(req: &Req, out: &mut Vec<Metric>) {
    let prompt: Vec<String> = req.prompt.iter().map(u32::to_string).collect();
    let line = format!(
        "SUB mode=spec gamma=3 budget={} prompt={} img={}",
        req.max_new,
        prompt.join(","),
        req.image_seed
    );
    let parse_us = median_us(41, 64, || {
        black_box(proto::parse_command(black_box(&line)).expect("valid SUB line"));
    });
    let poll_us = median_us(41, 64, || {
        let text = proto::format_poll(Status::Running, black_box(&req.reference));
        black_box(proto::parse_poll(&text).expect("valid TOK line"));
    });
    let mut wire = Vec::with_capacity(line.len() + 4);
    let frame_us = median_us(41, 64, || {
        wire.clear();
        proto::write_frame(&mut wire, &line).expect("write to a Vec");
        black_box(proto::read_frame(&mut Cursor::new(&wire)).expect("read own frame"));
    });
    out.push(metric("serve.proto_parse_us", "us", parse_us));
    out.push(metric("serve.proto_poll_us", "us", poll_us));
    out.push(metric("serve.proto_frame_us", "us", frame_us));
}

/// Run the whole probe on the first few of the workload's requests.
pub fn layers(models: &Models, reqs: &[Req], gamma: usize) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut ws = Workspace::new();
    let sample = &reqs[..reqs.len().min(16)];
    // The longest stream of the sample: it must cover a whole block.
    let longest = sample
        .iter()
        .max_by_key(|r| r.reference.len())
        .expect("workloads have requests");
    tensor_layer(models, &mut out);
    nn_layer(
        models,
        longest,
        gamma.min(longest.reference.len() - 1),
        &mut ws,
        &mut out,
    );
    mm_layer(models, sample, &mut ws, &mut out);
    proto_layer(longest, &mut out);
    out
}

/// Value of the probe metric called `name`.
pub fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("probe metric {name} missing"))
        .value
}
