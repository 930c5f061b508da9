//! Attention/decoder decode-step cost as the KV cache grows: the latency of
//! generating one token at various context lengths, plus the prefill cost.
//! Run with `cargo bench -p aasd-bench --bench decode`.

use aasd_bench::{bench, report};
use aasd_nn::{Decoder, DecoderConfig};
use aasd_tensor::{Rng, Workspace};

fn main() {
    let vocab = 512;
    let max_seq = 1024;
    let model = Decoder::new(DecoderConfig::bench_target(vocab, max_seq), 0xD);
    println!(
        "decode step vs cache length (bench_target: dim={} layers={} params={})\n",
        model.cfg.dim,
        model.cfg.n_layers,
        model.n_params()
    );

    let mut rng = Rng::new(1);
    let mut ws = Workspace::new();
    let mut logits = vec![0.0f32; vocab];
    for ctx in [16usize, 64, 256, 512] {
        let prompt: Vec<u32> = (0..ctx).map(|_| rng.below(vocab) as u32).collect();
        // Pre-fill a cache to `ctx`; O(1) truncate rolls each sample back
        // so the timed region is purely the forward pass.
        let mut cache = model.new_cache();
        model.prefill_ws(&prompt, &mut cache, &mut ws);
        let fused = bench(&format!("decode_step/fused/ctx_{ctx}"), || {
            cache.truncate(ctx);
            model.forward_infer_ws(&[7], &mut cache, &mut ws, &mut logits);
        });
        report(&fused);
    }

    println!();
    for plen in [64usize, 256] {
        let prompt: Vec<u32> = (0..plen).map(|_| rng.below(vocab) as u32).collect();
        let r = bench(&format!("prefill/len_{plen}"), || {
            let mut c = model.new_cache();
            model.prefill_ws(&prompt, &mut c, &mut ws)
        });
        report(&r);
    }
}
