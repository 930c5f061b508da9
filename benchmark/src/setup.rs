//! Set-up: build the models a workload serves and the requests it replays.
//!
//! Model seeds and training streams are constants, so the models are the
//! same for every `--seed`; only the requests depend on it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use aasd_baselines::{finetune_vlm, train_aasd_draft, ZooTrainConfig};
use aasd_data::{Split, Workload, WorkloadKind, VOCAB};
use aasd_mm::{
    distill_hybrid_with, draft_for_depth, mm_autoregressive_ws, Ablation, HybridDistillConfig,
    Image, KvProjector, LlavaSim, LlavaSimConfig, TdAlignConfig,
};
use aasd_nn::Decoder;
use aasd_tensor::{Rng, Workspace};
use aasd_train::Schedule;

use crate::gen;

/// Context window shared by every model: 16 vision rows + prompt + output.
pub const MAX_SEQ: usize = 96;
/// Image geometry of the `Sim7B`/`Sim13B` vision towers.
pub const N_PATCHES: usize = 16;
pub const PATCH_DIM: usize = 27;

const TD_ALIGN: TdAlignConfig = TdAlignConfig {
    window: 4,
    weight: 0.1,
};

/// What the draft is distilled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistillOn {
    /// Rendered scenes of the grounding workload (`train_aasd_draft`).
    Scenes,
    /// `Image::synthetic(image_seed)` + grounding-workload prompts: the
    /// images the serving engine builds from a request's `image_seed`.
    SyntheticImages,
}

/// Training recipe of one workload's models. Step counts are tuned so the
/// acceptance rate lands inside [`crate::ALPHA_BAND`] at a set-up cost of a
/// few seconds; they are part of the benchmark, not of the program.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// `Sim13B` when true, else `Sim7B`.
    pub big: bool,
    pub ground_on: WorkloadKind,
    pub ground_steps: usize,
    pub distill_on: DistillOn,
    pub distill_steps: usize,
    /// Rollout length of one distillation step.
    pub gen_len: usize,
}

pub struct Models {
    pub target: Arc<LlavaSim>,
    pub draft: Arc<Decoder>,
    pub projector: Arc<KvProjector>,
}

/// One request and the autoregressive stream every arm must reproduce.
pub struct Req {
    /// The image the model sees. For serve workloads it is what the engine
    /// synthesises from `image_seed`.
    pub image: Image,
    pub image_seed: u64,
    pub prompt: Vec<u32>,
    pub max_new: usize,
    pub reference: Vec<u32>,
}

/// Seconds spent in each part of one set-up; they sum to `setup_s`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub ground_s: f64,
    pub distill_s: f64,
    pub samples_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.ground_s + self.distill_s + self.samples_s
    }
}

fn width_scaled_cosine(steps: usize, dim: usize) -> Schedule {
    // The zoo schedule is tuned for dim-64 models; Adam at 2e-2 oscillates
    // on the wider Sim LMs (same scaling as the `table1` binary).
    let scale = 64.0 / dim as f32;
    Schedule::Cosine {
        base: 2e-2 * scale,
        floor: 2e-3 * scale,
        total: steps,
    }
}

/// Ground the target on the workload's grammar, then distil the AASD draft
/// and its `KvProjector` against it. Returns the models and the seconds
/// spent grounding and distilling.
pub fn build_models(spec: &TrainSpec) -> (Models, f64, f64) {
    let cfg = if spec.big {
        LlavaSimConfig::sim_13b(VOCAB, MAX_SEQ)
    } else {
        LlavaSimConfig::sim_7b(VOCAB, MAX_SEQ)
    };
    let t0 = Instant::now();
    let mut target = LlavaSim::new(cfg, 0x13B);
    let train = Workload::new(spec.ground_on, 0x7AB1E, N_PATCHES, PATCH_DIM);
    let mut ground = ZooTrainConfig::smoke(spec.ground_steps, 0x960D);
    ground.schedule = width_scaled_cosine(spec.ground_steps, target.cfg.lm.dim);
    finetune_vlm(&mut target, &train, &ground);
    let ground_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut zoo = ZooTrainConfig::smoke(spec.distill_steps, 0x5EED);
    zoo.gen_len = spec.gen_len;
    let (draft, projector) = match spec.distill_on {
        DistillOn::Scenes => train_aasd_draft(&target, &train, &zoo, TD_ALIGN),
        DistillOn::SyntheticImages => distill_on_synthetic_images(&target, &train, &zoo),
    };
    let distill_s = t1.elapsed().as_secs_f64();
    let models = Models {
        target: Arc::new(target),
        draft: Arc::new(draft),
        projector: Arc::new(projector),
    };
    (models, ground_s, distill_s)
}

/// `train_aasd_draft` with the sample source swapped for the serving
/// engine's own images: same draft shape, projector, schedule scaling and
/// alignment term, but each step sees `Image::synthetic` of a fresh seed
/// under a prompt of the grounding workload.
fn distill_on_synthetic_images(
    target: &LlavaSim,
    prompts: &Workload,
    cfg: &ZooTrainConfig,
) -> (Decoder, KvProjector) {
    let mut draft = draft_for_depth(&target.cfg, 2, cfg.seed ^ 0xA5D);
    let mut projector = KvProjector::new(
        cfg.seed ^ 0x9D0,
        draft.cfg.n_layers,
        target.cfg.lm.n_layers,
        target.cfg.n_img(),
        target.cfg.k_slots(),
    );
    let hcfg = HybridDistillConfig {
        steps: cfg.steps,
        prompt_len: 4, // unused: the source supplies real prompts
        gen_len: cfg.gen_len,
        schedule: width_scaled_cosine(cfg.steps, target.cfg.lm.dim),
        temperature: cfg.temperature,
        seed: cfg.seed,
    };
    let prompts = *prompts;
    let mut source = move |step: usize, rng: &mut Rng| {
        let image = Image::synthetic(&mut Rng::new(rng.next_u64()), N_PATCHES, PATCH_DIM);
        (image, prompts.sample(Split::Train, step as u64).prompt)
    };
    distill_hybrid_with(
        target,
        &mut draft,
        Some(&mut projector),
        Ablation::projector(),
        &hcfg,
        Some(TD_ALIGN),
        &mut source,
    );
    (draft, projector)
}

/// The image a multimodal engine builds for `image_seed`.
pub fn engine_image(image_seed: u64) -> Image {
    Image::synthetic(&mut Rng::new(image_seed), N_PATCHES, PATCH_DIM)
}

/// `n` held-out samples of `kind` at seeded indices, each with a budget of
/// `max_new` tokens: the solo workloads' request list.
pub fn scene_requests(
    target: &LlavaSim,
    kind: WorkloadKind,
    rng: &mut Rng,
    n: usize,
    max_new: usize,
) -> Vec<Req> {
    let wl = Workload::new(kind, 0xE7A1, N_PATCHES, PATCH_DIM);
    let mut ws = Workspace::new();
    gen::sample_indices(rng, n)
        .into_iter()
        .map(|idx| {
            let s = wl.sample(Split::Heldout, idx);
            Req {
                reference: mm_autoregressive_ws(target, &s.image, &s.prompt, max_new, &mut ws),
                image: s.image,
                image_seed: 0,
                prompt: s.prompt,
                max_new,
            }
        })
        .collect()
}

/// The serve workloads' request list: held-out WildSim prompts at seeded
/// indices over the given image seeds and budgets. A greedy stream of a
/// smaller budget is a prefix of the same request's stream at a larger one,
/// so each distinct (image, prompt) pair is decoded once, at the largest
/// budget in the list.
pub fn served_requests(
    target: &LlavaSim,
    rng: &mut Rng,
    image_seeds: &[u64],
    max_new: &[usize],
) -> Vec<Req> {
    assert_eq!(image_seeds.len(), max_new.len());
    let wl = Workload::new(WorkloadKind::WildSim, 0xE7A1, N_PATCHES, PATCH_DIM);
    let longest = max_new.iter().copied().max().unwrap_or(0);
    let mut ws = Workspace::new();
    let mut streams: HashMap<(u64, Vec<u32>), Vec<u32>> = HashMap::new();
    gen::sample_indices(rng, image_seeds.len())
        .into_iter()
        .zip(image_seeds.iter().zip(max_new))
        .map(|(idx, (&image_seed, &max_new))| {
            let image = engine_image(image_seed);
            let prompt = wl.sample(Split::Heldout, idx).prompt;
            let stream = streams
                .entry((image_seed, prompt.clone()))
                .or_insert_with(|| mm_autoregressive_ws(target, &image, &prompt, longest, &mut ws));
            Req {
                reference: stream[..max_new].to_vec(),
                image,
                image_seed,
                prompt,
                max_new,
            }
        })
        .collect()
}
