//! LlavaSim: the simulated LLaVA-architecture target model — vision tower →
//! connector → the `aasd-nn` decoder LM, with the vision prefix entering the
//! LM through the embeds inference path (`forward_infer_embeds_ws`) so the
//! image occupies KV positions `0..n_img` and text starts at `n_img`,
//! exactly as in training.

use crate::vision::{Connector, Image, VisionConfig, VisionEncoder};
use aasd_nn::{Decoder, DecoderConfig, KvCache};
use aasd_tensor::{Rng, Tensor, Workspace};

/// Hyperparameters for a full LlavaSim model.
#[derive(Debug, Clone)]
pub struct LlavaSimConfig {
    pub vision: VisionConfig,
    /// Hidden width of the 2-layer MLP connector.
    pub connector_hidden: usize,
    pub lm: DecoderConfig,
}

impl LlavaSimConfig {
    /// Smallest config exercising every code path; used by tests.
    pub fn tiny(vocab: usize, max_seq: usize) -> Self {
        Self {
            vision: VisionConfig {
                n_patches: 8,
                patch_dim: 12,
                dim: 16,
                n_heads: 2,
                n_layers: 1,
                ff_hidden: 32,
            },
            connector_hidden: 24,
            lm: DecoderConfig {
                vocab,
                dim: 32,
                n_heads: 4,
                n_layers: 2,
                ff_hidden: 64,
                max_seq,
                rope_theta: 10_000.0,
            },
        }
    }

    /// The "7B-shaped" simulation target: small enough to race on one core,
    /// big enough that per-token weight traffic dominates.
    pub fn sim_7b(vocab: usize, max_seq: usize) -> Self {
        Self {
            vision: VisionConfig {
                n_patches: 16,
                patch_dim: 27,
                dim: 48,
                n_heads: 4,
                n_layers: 2,
                ff_hidden: 96,
            },
            connector_hidden: 96,
            lm: DecoderConfig {
                vocab,
                dim: 128,
                n_heads: 8,
                n_layers: 3,
                ff_hidden: 256,
                max_seq,
                rope_theta: 10_000.0,
            },
        }
    }

    /// The "13B-shaped" simulation target: same vocabulary and patch count
    /// as [`LlavaSimConfig::sim_7b`] but a deeper/wider tower and LM, so the
    /// two presets reproduce the paper's per-forward cost asymmetry (the
    /// bench asserts `sim_13b` is strictly slower per forward).
    pub fn sim_13b(vocab: usize, max_seq: usize) -> Self {
        Self {
            vision: VisionConfig {
                n_patches: 16,
                patch_dim: 27,
                dim: 64,
                n_heads: 4,
                n_layers: 3,
                ff_hidden: 128,
            },
            connector_hidden: 128,
            lm: DecoderConfig {
                vocab,
                dim: 192,
                n_heads: 8,
                n_layers: 5,
                ff_hidden: 384,
                max_seq,
                rope_theta: 10_000.0,
            },
        }
    }

    /// Vision-prefix length in the LM cache.
    pub fn n_img(&self) -> usize {
        self.vision.n_patches
    }

    /// Rows the KV projector compresses the vision slice into (k ≪ n_img).
    pub fn k_slots(&self) -> usize {
        (self.vision.n_patches / 4).max(1)
    }
}

/// The simulated multimodal target model.
#[derive(Debug, Clone)]
pub struct LlavaSim {
    pub cfg: LlavaSimConfig,
    pub vision: VisionEncoder,
    pub connector: Connector,
    pub lm: Decoder,
}

impl LlavaSim {
    /// Deterministic init from a seed (vision, connector, and LM draw from
    /// forked streams, so the parts are independent).
    pub fn new(cfg: LlavaSimConfig, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let vision = VisionEncoder::new(cfg.vision.clone(), &mut rng.fork());
        let connector = Connector::new(
            &mut rng.fork(),
            cfg.vision.dim,
            cfg.connector_hidden,
            cfg.lm.dim,
        );
        let lm = Decoder::new(cfg.lm.clone(), rng.next_u64());
        Self {
            cfg,
            vision,
            connector,
            lm,
        }
    }

    pub fn n_img(&self) -> usize {
        self.cfg.n_img()
    }

    /// Switch the language model's fused-path kernel family (see
    /// [`Decoder::set_kernel_policy`]). The vision tower and connector run
    /// only during prefill — a one-time cost per request — so they stay on
    /// the f32 kernels under either policy.
    pub fn set_kernel_policy(&mut self, policy: aasd_nn::KernelPolicy) {
        self.lm.set_kernel_policy(policy);
    }

    /// The kernel family the LM's fused decode path currently runs.
    pub fn kernel_policy(&self) -> aasd_nn::KernelPolicy {
        self.lm.kernel_policy()
    }

    /// Vision tower + connector: image → `[n_img, lm.dim]` embedding rows
    /// ready to enter the decoder where token embeddings would.
    pub fn encode_image(&self, image: &Image) -> Tensor {
        self.connector.forward(&self.vision.forward(image))
    }

    /// Multimodal prefill on the fused path: push the vision prefix through
    /// the embeds path (KV positions `0..n_img`), then the text prompt
    /// (positions `n_img..`), and return the first target-decided *pending*
    /// token. Afterwards `cache` holds `n_img + prompt.len()` positions —
    /// ready for the seeded decode loops in `aasd-specdec`.
    pub fn prefill_ws(
        &self,
        image: &Image,
        prompt: &[u32],
        cache: &mut KvCache,
        ws: &mut Workspace,
    ) -> u32 {
        assert!(
            self.n_img() + prompt.len() <= self.cfg.lm.max_seq,
            "vision prefix + prompt exceed max_seq"
        );
        self.prefill_vision_ws(image, cache, ws);
        self.prefill_text_ws(prompt, cache, ws)
    }

    /// The vision leg of [`LlavaSim::prefill_ws`] alone: tower + connector +
    /// the `n_img`-position embeds pass into an **empty** cache. Split out
    /// so the serving vision cache can run it once per distinct image and
    /// copy the resulting KV prefix into later sessions.
    pub fn prefill_vision_ws(&self, image: &Image, cache: &mut KvCache, ws: &mut Workspace) {
        self.prefill_embeds_ws(&self.encode_image(image), cache, ws);
    }

    /// [`LlavaSim::prefill_vision_ws`] from the image's `encode_image` rows.
    pub(crate) fn prefill_embeds_ws(
        &self,
        embeds: &Tensor,
        cache: &mut KvCache,
        ws: &mut Workspace,
    ) {
        assert!(cache.is_empty(), "vision prefix must be at position 0");
        let n = self.n_img();
        let mut img_logits = ws.take(n * self.cfg.lm.vocab);
        self.lm
            .forward_infer_embeds_ws(&embeds.data, n, cache, ws, &mut img_logits);
        ws.give(img_logits);
    }

    /// The text leg of [`LlavaSim::prefill_ws`] alone: prompt forward over a
    /// cache already holding the `n_img` vision positions (freshly computed
    /// or mapped in from the vision cache — the two are bit-identical), and
    /// the first target-decided pending token.
    pub fn prefill_text_ws(&self, prompt: &[u32], cache: &mut KvCache, ws: &mut Workspace) -> u32 {
        assert!(!prompt.is_empty(), "empty prompt");
        assert_eq!(cache.len(), self.n_img(), "text must start at n_img");
        self.lm.prefill_ws(prompt, cache, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aasd_tensor::argmax;

    /// Also pins the bits of the 2-layer `sim_7b` tower + connector: an
    /// FNV-1a hash over every output float, one constant for both kernel
    /// tiers.
    #[test]
    fn encode_image_lands_in_lm_space() {
        let model = LlavaSim::new(LlavaSimConfig::sim_7b(40, 64), 0xA5);
        let (n, patch_dim) = (model.n_img(), model.cfg.vision.patch_dim);
        let img = Image::synthetic(&mut Rng::new(3), n, patch_dim);
        let e = model.encode_image(&img);
        assert_eq!((e.rows, e.cols), (n, model.cfg.lm.dim));
        let bits = aasd_tensor::fnv1a(e.data.iter().map(|v| v.to_bits() as u64));
        assert_eq!(
            bits, 0x05bb_76dc_714d_a929,
            "vision tower bits moved: {bits:#x}"
        );
    }

    /// The fused prefill must agree with the allocating composition of the
    /// embeds path and the token path — same pending token, same cache
    /// length, and a continuation step must agree too.
    #[test]
    fn prefill_ws_matches_allocating_composition() {
        let model = LlavaSim::new(LlavaSimConfig::tiny(40, 64), 0xA6);
        let img = Image::synthetic(&mut Rng::new(9), 8, 12);
        let prompt = [3u32, 17, 5, 29];

        let mut ws = Workspace::new();
        let mut cache_ws = model.lm.new_cache();
        let pending = model.prefill_ws(&img, &prompt, &mut cache_ws, &mut ws);

        let embeds = model.encode_image(&img);
        let mut cache = model.lm.new_cache();
        model.lm.forward_infer_embeds(&embeds, &mut cache);
        let logits = model.lm.forward_infer(&prompt, &mut cache);
        let want = argmax(logits.row(logits.rows - 1)) as u32;
        assert_eq!(pending, want);
        assert_eq!(cache_ws.len(), cache.len());
        assert_eq!(cache_ws.len(), model.n_img() + prompt.len());

        let a = model.lm.forward_infer(&[pending], &mut cache);
        let mut b = vec![0.0f32; model.cfg.lm.vocab];
        model
            .lm
            .forward_infer_ws(&[pending], &mut cache_ws, &mut ws, &mut b);
        let diff = a
            .row(0)
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(diff < 1e-4, "continuation diverged: {diff}");
    }

    /// The target's text logits must depend on the image — otherwise the
    /// multimodal alignment experiments would be measuring nothing.
    #[test]
    fn text_logits_depend_on_image() {
        let model = LlavaSim::new(LlavaSimConfig::tiny(40, 64), 0xA7);
        let prompt = [1u32, 2, 3];
        let mut ws = Workspace::new();
        let mut pendings = Vec::new();
        for seed in 0..8u64 {
            let img = Image::synthetic(&mut Rng::new(seed), 8, 12);
            let mut cache = model.lm.new_cache();
            pendings.push(model.prefill_ws(&img, &prompt, &mut cache, &mut ws));
        }
        assert!(
            pendings.iter().any(|p| *p != pendings[0]),
            "pending token identical across 8 images: {pendings:?}"
        );
    }

    #[test]
    fn preset_cost_asymmetry_in_params() {
        let (a, b) = (
            LlavaSimConfig::sim_7b(64, 128),
            LlavaSimConfig::sim_13b(64, 128),
        );
        assert!(b.lm.dim > a.lm.dim && b.lm.n_layers > a.lm.n_layers);
        assert!(b.lm.ff_hidden > a.lm.ff_hidden);
        assert_eq!(a.n_img(), b.n_img(), "presets must share the prefix length");
    }
}
