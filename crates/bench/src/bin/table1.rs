//! `table1` — the paper's headline acceptance table, reproduced end to end.
//!
//! For each target in {Sim7B, Sim13B}: ground the target's LM on WildSim
//! train data (random-init targets speak no grammar; the paper's targets
//! are pretrained), then train the five draft systems on the same WildSim
//! training stream with the same step budget:
//!
//! * FT-LLaMA — text-only draft, cross-entropy on ground-truth references;
//! * DT-LLaMA — text-only draft, KL vs the target's own rollouts;
//! * FT-LLaVA — small VLM draft, CE behind its own vision prefix;
//! * DT-LLaVA — small VLM draft, MASSV-style self-data distillation;
//! * AASD — width-shared draft, KV-projector-seeded, jointly distilled
//!   with the TdAttention alignment loss.
//!
//! All five drafts propose on the same kernel policy (`aasd_mm::DRAFT_POLICY`,
//! int8 under the f32 target), so the walltime ω column compares drafts and
//! not kernels.
//!
//! Every (system, target, γ∈{3,5}, workload∈{WildSim, CocoCapSim, SqaSim})
//! cell is evaluated on **held-out** samples with per-stream losslessness
//! asserted (speculative output ≡ autoregressive output). α and τ are
//! clock-independent counts; `omega_cpu`, the only speedup reported, is
//! the AR decode time over the speculative decode time of the same cell
//! (prefill excluded), both measured as CPU walltime in one sitting.
//!
//! The binary **hard-asserts** the paper's qualitative result: AASD's α is
//! strictly above every baseline's on every workload (merged over targets
//! and γ). `--smoke` shrinks training/eval and drops γ=5 so `ci.sh` can
//! gate on the ordering cheaply. It also prints one FNV-1a fingerprint of
//! every cell's counts (`blocks`, `drafted`, `accepted`, `generated`), which
//! `ci.sh` pins for the smoke grid.
//!
//! Usage: `table1 OUT_PATH [--smoke]`

use aasd_baselines::{
    distill_text_from_mm, distill_vlm_from_mm, eval_system, finetune_text, finetune_vlm,
    tiny_lm_draft, tiny_vlm_draft, train_aasd_draft, DraftSystem, EvalCell, ZooTrainConfig,
};
use aasd_data::{Split, Workload, WorkloadKind, VOCAB};
use aasd_json as json;
use aasd_mm::{LlavaSim, LlavaSimConfig, TdAlignConfig};

/// Shared context window: room for 16 vision rows + prompt + generation.
const MAX_SEQ: usize = 96;
/// Workload image geometry — must match the Sim targets' vision config.
const N_PATCHES: usize = 16;
const PATCH_DIM: usize = 27;

const SYSTEMS: [&str; 5] = ["FT-LLaMA", "DT-LLaMA", "FT-LLaVA", "DT-LLaVA", "AASD"];

struct Scale {
    ground_steps: usize,
    zoo_steps: usize,
    eval_pairs: usize,
    budget: usize,
    gammas: &'static [usize],
}

impl Scale {
    fn full() -> Self {
        Scale {
            ground_steps: 600,
            zoo_steps: 400,
            eval_pairs: 12,
            budget: 32,
            gammas: &[3, 5],
        }
    }

    fn smoke() -> Self {
        Scale {
            ground_steps: 300,
            zoo_steps: 200,
            eval_pairs: 5,
            budget: 20,
            gammas: &[3],
        }
    }
}

/// Train the five draft systems against one grounded target on the WildSim
/// training stream, all with the same step budget.
fn build_zoo(target: &LlavaSim, train: &Workload, scale: &Scale, seed: u64) -> Vec<DraftSystem> {
    let vocab = target.cfg.lm.vocab;
    let cfg = ZooTrainConfig::smoke(scale.zoo_steps, seed);

    println!("  training FT-LLaMA (text finetune)...");
    let mut ft_llama = tiny_lm_draft(vocab, MAX_SEQ, seed ^ 0xF1);
    finetune_text(&mut ft_llama, train, &cfg);

    println!("  training DT-LLaMA (text distill)...");
    let mut dt_llama = tiny_lm_draft(vocab, MAX_SEQ, seed ^ 0xD1);
    distill_text_from_mm(&mut dt_llama, target, train, &cfg);

    println!("  training FT-LLaVA (vlm finetune)...");
    let mut ft_llava = tiny_vlm_draft(vocab, MAX_SEQ, N_PATCHES, PATCH_DIM, seed ^ 0xF2);
    finetune_vlm(&mut ft_llava, train, &cfg);

    println!("  training DT-LLaVA (MASSV self-data distill)...");
    let mut dt_llava = tiny_vlm_draft(vocab, MAX_SEQ, N_PATCHES, PATCH_DIM, seed ^ 0xD2);
    distill_vlm_from_mm(&mut dt_llava, target, train, &cfg);

    println!("  training AASD draft (projector-seeded joint distill + TdAttention)...");
    let (draft, projector) = train_aasd_draft(
        target,
        train,
        &cfg,
        TdAlignConfig {
            window: 4,
            weight: 0.1,
        },
    );

    vec![
        DraftSystem::Text(ft_llama),
        DraftSystem::Text(dt_llama),
        DraftSystem::Vlm(ft_llava),
        DraftSystem::Vlm(dt_llava),
        DraftSystem::Aasd { draft, projector },
    ]
}

struct Cell {
    target: &'static str,
    system: &'static str,
    workload: &'static str,
    gamma: usize,
    eval: EvalCell,
}

fn cell_json(c: &Cell) -> String {
    let s = &c.eval.stats;
    json::object(&[
        json::field("target", &json::string(c.target)),
        json::field("system", &json::string(c.system)),
        json::field("workload", &json::string(c.workload)),
        json::field("gamma", &c.gamma.to_string()),
        json::field("alpha", &json::num(s.acceptance_rate())),
        json::field("tau", &json::num(s.block_efficiency())),
        json::field("omega_cpu", &json::num(c.eval.cpu_speedup())),
        json::field("drafted", &s.drafted.to_string()),
        json::field("accepted", &s.accepted.to_string()),
        json::field("blocks", &s.blocks.to_string()),
        json::field("generated", &s.generated.to_string()),
        json::field(
            "spec_decode_ms",
            &json::num(c.eval.spec_decode_ns as f64 / 1e6),
        ),
        json::field("ar_decode_ms", &json::num(c.eval.ar_decode_ns as f64 / 1e6)),
    ])
}

/// 64-bit FNV-1a (prime `0x100_0000_01b3`) over every cell's `blocks`,
/// `drafted`, `accepted` and `generated`, in grid order: one constant for
/// the whole grid's counts, which depend on no clock, so `ci.sh` can pin
/// the smoke grid exactly.
fn counts_fingerprint(cells: &[Cell]) -> u64 {
    cells
        .iter()
        .flat_map(|c| {
            let s = &c.eval.stats;
            [s.blocks, s.drafted, s.accepted, s.generated]
        })
        .fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x as u64).wrapping_mul(0x100_0000_01b3)
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let Some(out_path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: table1 OUT_PATH [--smoke]");
        std::process::exit(2);
    };
    let scale = if smoke { Scale::smoke() } else { Scale::full() };

    let train = Workload::new(WorkloadKind::WildSim, 0x7AB1E, N_PATCHES, PATCH_DIM);
    // Each target's training seeds are salted with the parameter count of
    // the model it stands in for (LLaVA-7B / 13B).
    let targets: Vec<(&str, u64, LlavaSim)> = vec![
        (
            "Sim7B",
            7_000_000_000,
            LlavaSim::new(LlavaSimConfig::sim_7b(VOCAB, MAX_SEQ), 0x7B),
        ),
        (
            "Sim13B",
            13_000_000_000,
            LlavaSim::new(LlavaSimConfig::sim_13b(VOCAB, MAX_SEQ), 0x13B),
        ),
    ];

    let mut cells: Vec<Cell> = Vec::new();
    for (tname, salt, mut target) in targets {
        println!(
            "== target {tname}: grounding LM on WildSim train ({} steps)",
            scale.ground_steps
        );
        // Width-aware grounding LR: the zoo schedule is tuned for dim-64
        // drafts; Adam at 2e-2 oscillates on the wider target LMs and
        // leaves their rollouts image-agnostic, which flatters blind
        // baselines and deflates the whole comparison.
        let mut ground = ZooTrainConfig::smoke(scale.ground_steps, 0x960D ^ salt);
        let width_scale = 64.0 / target.cfg.lm.dim as f32;
        ground.schedule = aasd_train::Schedule::Cosine {
            base: 2e-2 * width_scale,
            floor: 2e-3 * width_scale,
            total: scale.ground_steps,
        };
        finetune_vlm(&mut target, &train, &ground);
        let zoo = build_zoo(&target, &train, &scale, 0x5EED ^ salt);
        for kind in WorkloadKind::ALL {
            let wl = Workload::new(kind, 0xE7A1 ^ kind as u64, N_PATCHES, PATCH_DIM);
            let samples = wl.take(Split::Heldout, scale.eval_pairs);
            for &gamma in scale.gammas {
                for (system, name) in zoo.iter().zip(SYSTEMS) {
                    let eval = eval_system(&target, system, &samples, scale.budget, gamma);
                    println!(
                        "  {tname} {name:<8} {:<10} gamma={gamma}  alpha={:.3} tau={:.3} omega_cpu={:.2}",
                        kind.name(),
                        eval.stats.acceptance_rate(),
                        eval.stats.block_efficiency(),
                        eval.cpu_speedup(),
                    );
                    cells.push(Cell {
                        target: tname,
                        system: name,
                        workload: kind.name(),
                        gamma,
                        eval,
                    });
                }
            }
        }
    }

    // The paper's qualitative claim, hard-asserted: per workload (merged
    // over targets and γ), AASD's α is strictly above every baseline's.
    let mut summary_items = Vec::new();
    for kind in WorkloadKind::ALL {
        let merged = |system: &str| -> EvalCell {
            let mut acc = EvalCell::default();
            for c in cells
                .iter()
                .filter(|c| c.system == system && c.workload == kind.name())
            {
                acc.merge(&c.eval);
            }
            acc
        };
        let aasd_alpha = merged("AASD").stats.acceptance_rate();
        let mut fields = vec![
            json::field("workload", &json::string(kind.name())),
            json::field("aasd_alpha", &json::num(aasd_alpha)),
        ];
        for &baseline in SYSTEMS.iter().filter(|s| **s != "AASD") {
            let alpha = merged(baseline).stats.acceptance_rate();
            println!(
                "{:<10} AASD alpha {aasd_alpha:.3} vs {baseline:<8} {alpha:.3}",
                kind.name()
            );
            assert!(
                aasd_alpha > alpha,
                "ordering violated on {}: AASD alpha {aasd_alpha:.4} !> {baseline} {alpha:.4}",
                kind.name()
            );
            fields.push(json::field(
                &format!("{}_alpha", baseline.to_lowercase().replace('-', "_")),
                &json::num(alpha),
            ));
        }
        summary_items.push(json::object(&fields));
    }
    println!("ordering OK: AASD alpha strictly highest on every workload; all streams lossless");
    println!("counts fingerprint: {:#018x}", counts_fingerprint(&cells));

    let meta = json::object(&[
        json::field("smoke", if smoke { "true" } else { "false" }),
        json::field("vocab", &VOCAB.to_string()),
        json::field("max_seq", &MAX_SEQ.to_string()),
        json::field("eval_pairs", &scale.eval_pairs.to_string()),
        json::field("budget", &scale.budget.to_string()),
        json::field("zoo_steps", &scale.zoo_steps.to_string()),
        json::field("ground_steps", &scale.ground_steps.to_string()),
    ]);
    let grid: Vec<String> = cells.iter().map(cell_json).collect();
    let doc = json::object(&[json::field(
        "table1",
        &json::object(&[
            json::field("meta", &meta),
            json::field("summary", &json::array(&summary_items)),
            json::field("grid", &json::array(&grid)),
        ]),
    )]);
    std::fs::write(out_path, doc + "\n").expect("write snapshot");
    println!("wrote {out_path} ({} cells)", cells.len());
}
