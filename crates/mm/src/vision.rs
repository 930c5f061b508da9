//! Vision tower for LlavaSim: a patch-embedding ViT, plus the 2-layer MLP
//! connector that maps patch features into the LM's text-embedding space.
//!
//! The ViT is a stack of the text decoder's own pre-norm block
//! ([`DecoderBlock`]), run through its bidirectional entry. It differs from
//! the decoder in the two ways that matter architecturally: attention is
//! **bidirectional** (no causal mask — every patch sees every patch) and
//! position information comes from a **learned additive embedding** instead
//! of RoPE.

use aasd_nn::{DecoderBlock, Linear, RmsNorm};
use aasd_tensor::{silu, Rng, Tensor};

/// A synthetic "image": pre-patchified pixel rows `[n_patches, patch_dim]`.
/// The reproduction has no pixel pipeline; seeded random patch tensors stand
/// in for real images, and the target's output genuinely depends on them
/// (the vision prefix conditions every text logit), which is all the
/// alignment experiments need.
#[derive(Debug, Clone)]
pub struct Image {
    pub patches: Tensor,
}

impl Image {
    /// Deterministic synthetic image from a seed stream.
    ///
    /// Patches are **spatially redundant**, like real images: each patch is
    /// a random mixture of `n_patches/4` shared basis patches plus a little
    /// independent noise, so the patch matrix is approximately low-rank.
    /// This is the property the paper's vision KV projector monetizes — a
    /// learned `k × n` row compression can only be near-lossless if the `n`
    /// vision rows actually share structure. I.i.d. patches (rank
    /// `n_patches`) would make *any* compression destroy image information
    /// and quietly turn the projector ablation into a strawman.
    pub fn synthetic(rng: &mut Rng, n_patches: usize, patch_dim: usize) -> Self {
        let rank = (n_patches / 4).max(1).min(n_patches);
        let basis = Tensor::randn(rng, rank, patch_dim, 1.0);
        // Mixing weights scaled so patch entries keep ~unit variance.
        let weights = Tensor::randn(rng, n_patches, rank, 1.0 / (rank as f32).sqrt());
        let mut patches = weights.matmul(&basis);
        for v in patches.data.iter_mut() {
            *v += 0.1 * rng.normal();
        }
        Self { patches }
    }

    /// Content hash over the raw patch bits (FNV-1a over each `f32`'s bit
    /// pattern, shape-salted). Two images hash equal iff their patch
    /// tensors are bit-identical — exactly the condition under which a
    /// cached vision prefill is reusable, since the whole vision tower is
    /// a deterministic function of the patch bits. The serving vision
    /// cache keys on this.
    pub fn content_hash(&self) -> u64 {
        let shape = [self.patches.rows as u64, self.patches.cols as u64];
        let bits = self.patches.data.iter().map(|v| v.to_bits() as u64);
        aasd_tensor::fnv1a(shape.into_iter().chain(bits))
    }
}

/// Hyperparameters for the vision tower.
#[derive(Debug, Clone)]
pub struct VisionConfig {
    /// Patches per image — the vision-prefix length `n_img` in the LM.
    pub n_patches: usize,
    /// Flattened pixels per patch.
    pub patch_dim: usize,
    pub dim: usize,
    pub n_heads: usize,
    pub n_layers: usize,
    pub ff_hidden: usize,
}

/// Patch-embedding ViT: `patches·W_embed + pos`, then `n_layers` pre-norm
/// bidirectional blocks and a final norm. Output is `[n_patches, dim]`.
#[derive(Debug, Clone)]
pub struct VisionEncoder {
    pub cfg: VisionConfig,
    pub patch_embed: Linear,
    /// Learned absolute position embedding `[n_patches, dim]`.
    pub pos_embed: Tensor,
    pub blocks: Vec<DecoderBlock>,
    pub final_norm: RmsNorm,
}

impl VisionEncoder {
    pub fn new(cfg: VisionConfig, rng: &mut Rng) -> Self {
        let patch_embed = Linear::new(rng, cfg.patch_dim, cfg.dim);
        let pos_embed = Tensor::randn(rng, cfg.n_patches, cfg.dim, 0.02);
        let blocks = (0..cfg.n_layers)
            .map(|_| DecoderBlock::new(&mut rng.fork(), cfg.dim, cfg.n_heads, cfg.ff_hidden))
            .collect();
        let final_norm = RmsNorm::new(cfg.dim);
        Self {
            cfg,
            patch_embed,
            pos_embed,
            blocks,
            final_norm,
        }
    }

    /// Encode an image into `[n_patches, dim]` patch features.
    pub fn forward(&self, image: &Image) -> Tensor {
        assert_eq!(image.patches.rows, self.cfg.n_patches, "patch count");
        assert_eq!(image.patches.cols, self.cfg.patch_dim, "patch width");
        let mut x = self.patch_embed.forward(&image.patches);
        for (xv, pv) in x.data.iter_mut().zip(&self.pos_embed.data) {
            *xv += pv;
        }
        for block in &self.blocks {
            block.forward_bidirectional(&mut x);
        }
        self.final_norm.forward(&x)
    }
}

/// The LLaVA-style connector: a 2-layer silu MLP projecting vision features
/// `[n, vision_dim]` into the LM's embedding space `[n, lm_dim]`.
#[derive(Debug, Clone)]
pub struct Connector {
    pub w1: Linear,
    pub w2: Linear,
}

impl Connector {
    pub fn new(rng: &mut Rng, vision_dim: usize, hidden: usize, lm_dim: usize) -> Self {
        Self {
            w1: Linear::new(rng, vision_dim, hidden),
            w2: Linear::new(rng, hidden, lm_dim),
        }
    }

    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut h = self.w1.forward(x);
        for v in &mut h.data {
            *v = silu(*v);
        }
        self.w2.forward(&h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> VisionConfig {
        VisionConfig {
            n_patches: 8,
            patch_dim: 12,
            dim: 16,
            n_heads: 2,
            n_layers: 2,
            ff_hidden: 32,
        }
    }

    #[test]
    fn encoder_shape_and_determinism() {
        let mut rng = Rng::new(1);
        let enc = VisionEncoder::new(cfg(), &mut rng);
        let img = Image::synthetic(&mut Rng::new(7), 8, 12);
        let a = enc.forward(&img);
        let b = enc.forward(&img);
        assert_eq!((a.rows, a.cols), (8, 16));
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn different_images_give_different_features() {
        let mut rng = Rng::new(2);
        let enc = VisionEncoder::new(cfg(), &mut rng);
        let a = enc.forward(&Image::synthetic(&mut Rng::new(1), 8, 12));
        let b = enc.forward(&Image::synthetic(&mut Rng::new(2), 8, 12));
        let diff = a
            .data
            .iter()
            .zip(&b.data)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(diff > 1e-3, "encoder collapsed distinct images");
    }

    /// Bidirectional attention: perturbing the LAST patch must change the
    /// FIRST patch's feature (a causal tower would leave it untouched).
    #[test]
    fn attention_is_bidirectional() {
        let mut rng = Rng::new(3);
        let enc = VisionEncoder::new(cfg(), &mut rng);
        let img1 = Image::synthetic(&mut Rng::new(5), 8, 12);
        let mut img2 = img1.clone();
        for v in img2.patches.row_mut(7) {
            *v += 3.0;
        }
        let a = enc.forward(&img1);
        let b = enc.forward(&img2);
        let first_diff = a
            .row(0)
            .iter()
            .zip(b.row(0))
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(first_diff > 1e-4, "patch 0 ignored patch 7");
    }

    #[test]
    fn connector_maps_into_lm_space() {
        let mut rng = Rng::new(4);
        let conn = Connector::new(&mut rng, 16, 24, 32);
        let x = Tensor::randn(&mut rng, 8, 16, 1.0);
        let y = conn.forward(&x);
        assert_eq!((y.rows, y.cols), (8, 32));
    }
}
