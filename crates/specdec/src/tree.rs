//! Tree-structured speculative decoding (OPT-tree style, sized for the
//! AASD setting): instead of one γ-token chain, the draft grows a **token
//! tree** — branching where predicted acceptance is high — and the target
//! scores the whole tree in ONE batched pass via
//! [`Decoder::forward_infer_tree_ws`], committing the longest accepted
//! root-to-leaf path. PR 5's multimodal sweep showed per-prompt acceptance
//! spanning 0.06–1.0; where a single chain dies at the first disagreement,
//! a sibling branch that matches the target's argmax keeps the block
//! alive, lifting block efficiency τ at the **same verified-rows budget**.
//!
//! Losslessness is inherited, not re-proven: greedy acceptance walks the
//! tree child-by-child against the target's own argmax, so every committed
//! token is exactly what autoregressive decoding would emit — and each
//! root-to-leaf path scores bit-identically to feeding that path linearly
//! (pinned in `aasd-nn`). At branching factor 1 the tree degenerates to
//! the linear chain and the whole session is **byte-identical** to
//! [`SpecSession`](crate::SpecSession): same proposals, same verify rows,
//! same target cache states (the path gather is an identity), same stream
//! and counters. (`SpecSession` defers the draft feed of a block's last
//! proposal until the block turns out fully accepted, which changes when
//! that draft row is computed, never its value.)
//!
//! Where the draft branches is decided by a **modality-aware acceptance
//! calibrator** ([`AcceptanceCalibrator`]): a logistic head over the
//! candidate's draft probability, the distribution's top probability, the
//! node depth, and the session's running **visual-attention mass** (how
//! much of the target's attention the vision prefix absorbs — measured for
//! free inside the tree-verify pass). Extra children are only worth a
//! verified row where the head predicts acceptance; low-probability
//! subtrees are pruned before they are ever drafted. The head is trained
//! with the `aasd-train` stack on examples the session collects
//! ([`TreeSession::enable_example_collection`]).

use crate::core::{assert_budget_fits, core_accessors, Core};
use crate::session::{room, StepReport};
use crate::MAX_GAMMA;
use aasd_nn::{Decoder, KvCache, TreeRows};
use aasd_tensor::{argmax, softmax_row, Workspace};

/// Feature vector width of the acceptance calibrator.
pub const CALIBRATOR_FEATURES: usize = 4;

/// Logistic acceptance head: `σ(w·f + b)` over
/// `[cand_prob, top_prob, depth_frac, vis_mass]` (see
/// [`AcceptanceCalibrator::features`]). Predicts the probability that a
/// drafted candidate token will be accepted by the target — the signal
/// that decides per-node branching and subtree early-stops.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceptanceCalibrator {
    pub w: [f32; CALIBRATOR_FEATURES],
    pub b: f32,
}

impl AcceptanceCalibrator {
    /// Untrained prior: acceptance tracks the draft's own probability,
    /// discounted with depth, indifferent to modality. Gates extra
    /// children at roughly `cand_prob ≳ 0.25`; training sharpens this and
    /// learns the visual-mass interaction.
    pub fn neutral() -> Self {
        Self {
            w: [6.0, 0.0, -1.0, 0.0],
            b: -1.5,
        }
    }

    /// Assemble the feature vector:
    /// * `cand_prob` — draft softmax probability of the candidate token;
    /// * `top_prob` — probability of the distribution's argmax (how
    ///   peaked the draft is here);
    /// * `depth_frac` — candidate depth / tree depth limit;
    /// * `vis_mass` — the session's running visual-attention mass (the
    ///   modality feature; 0 for text-only sessions).
    pub fn features(
        cand_prob: f32,
        top_prob: f32,
        depth_frac: f32,
        vis_mass: f32,
    ) -> [f32; CALIBRATOR_FEATURES] {
        [cand_prob, top_prob, depth_frac, vis_mass]
    }

    /// Predicted acceptance probability `σ(w·f + b)`.
    pub fn predict(&self, f: &[f32; CALIBRATOR_FEATURES]) -> f32 {
        let z: f32 = self.w.iter().zip(f).map(|(w, x)| w * x).sum::<f32>() + self.b;
        1.0 / (1.0 + (-z).exp())
    }

    /// Branch gate: spend a verified row on this candidate?
    pub fn accept(&self, f: &[f32; CALIBRATOR_FEATURES]) -> bool {
        self.predict(f) >= 0.5
    }
}

/// One labelled observation for calibrator training: the features of a
/// drafted candidate whose parent lay on the accepted path (so the
/// target's verdict on it is known), and whether the target agreed.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceptanceExample {
    pub features: [f32; CALIBRATOR_FEATURES],
    pub label: f32,
}

/// Shape of the speculation tree a [`TreeSession`] grows each block. The
/// node budget is always `γ + 1` rows (root + γ drafted tokens) — the
/// **same verified-rows budget** a linear γ-chain block spends — so tree
/// and chain are compared at equal target compute.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum children per node. 1 ⇒ the tree degenerates to the linear
    /// chain (byte-identical to [`SpecSession`](crate::SpecSession)).
    pub branch_factor: usize,
    /// Depth limit. 0 ⇒ use γ (the full chain depth); a smaller limit
    /// trades depth for width within the same node budget.
    pub max_depth: usize,
    /// Extra (non-first) children must carry at least this draft
    /// probability; candidates come in descending probability, so the
    /// first failure stops the scan.
    pub prob_floor: f32,
    /// Optional learned branch gate; `None` gates on `prob_floor` alone.
    pub calibrator: Option<AcceptanceCalibrator>,
    /// Minimum calibrator-predicted acceptance probability for an extra
    /// child to claim a verified row. This is a **cost** knob, not a
    /// correctness one: the row a branch displaces is a chain extension
    /// whose value decays like α^depth, so deep-γ trees want thresholds
    /// well below 0.5 — a sibling with a 15% catch rate beats a depth-5
    /// chain row worth α⁵. Ignored when `calibrator` is `None`.
    pub branch_threshold: f32,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            branch_factor: 2,
            max_depth: 0,
            prob_floor: 0.1,
            calibrator: None,
            branch_threshold: 0.5,
        }
    }
}

impl TreeConfig {
    /// The degenerate single-chain configuration (reference semantics).
    pub fn linear() -> Self {
        Self {
            branch_factor: 1,
            prob_floor: 0.0,
            ..Self::default()
        }
    }
}

/// Flattened token tree under construction: parallel stack arrays, child
/// after parent in flat order (the shape `KvCache::gather_tail` and the
/// ancestor bitmasks rely on).
struct TreeNodes {
    toks: [u32; MAX_GAMMA],
    parents: [usize; MAX_GAMMA],
    depths: [usize; MAX_GAMMA],
    probs: [f32; MAX_GAMMA],
    tops: [f32; MAX_GAMMA],
    n: usize,
}

/// DFS expansion of node `u`'s subtree. Feeds `toks[u]` to the draft,
/// records up to `branch_factor` children (first = draft argmax, always;
/// the rest gated by probability floor + calibrator), and recurses
/// **first-child-first** so the greedy chain claims the node budget before
/// any sibling — which is exactly what makes branching factor 1 reproduce
/// the linear draft feeds token for token. The draft cache is rolled back
/// to the post-`u` state between siblings, so every path sees exactly its
/// own ancestors.
#[allow(clippy::too_many_arguments)]
fn expand(
    nodes: &mut TreeNodes,
    u: usize,
    draft: &Decoder,
    d_cache: &mut KvCache,
    ws: &mut Workspace,
    cfg: &TreeConfig,
    max_nodes: usize,
    max_depth: usize,
    vis_mass: f32,
) {
    if nodes.depths[u] >= max_depth || nodes.n >= max_nodes {
        return;
    }
    let vocab = draft.cfg.vocab;
    let mut dl = ws.take(vocab);
    draft.forward_infer_ws(&[nodes.toks[u]], d_cache, ws, &mut dl);
    let fed_len = d_cache.len();
    // First child from the RAW logits (identical tie-breaks to the linear
    // draft loop), then softmax in place for candidate probabilities.
    let first = argmax(&dl);
    softmax_row(&mut dl);
    let top = dl[first];
    let depth_frac = (nodes.depths[u] + 1) as f32 / max_depth as f32;
    // Record ALL of u's children before recursing into any subtree, so the
    // node budget favours shallow branches: a sibling at depth d only pays
    // off when the d−1 ancestors were all accepted, which makes shallow
    // recovery branches worth strictly more rows than deep chain tail —
    // recording breadth-first at each node puts the budget there first,
    // while the recursion below still walks the greedy chain ahead of any
    // sibling subtree.
    let child_lo = nodes.n;
    for r in 0..cfg.branch_factor.max(1) {
        if nodes.n >= max_nodes {
            break;
        }
        let cand = if r == 0 { first } else { argmax(&dl) };
        let prob = dl[cand];
        if r > 0 {
            // Candidates arrive in descending probability: the first one
            // below the floor (or rejected by the calibrator) ends the
            // scan — the early-stop that keeps low-probability subtrees
            // from ever costing a verified row.
            if prob < cfg.prob_floor {
                break;
            }
            if let Some(cal) = &cfg.calibrator {
                let f = AcceptanceCalibrator::features(prob, top, depth_frac, vis_mass);
                if cal.predict(&f) < cfg.branch_threshold {
                    break;
                }
            }
        }
        dl[cand] = -1.0; // exclude from later sibling picks
        let c = nodes.n;
        nodes.toks[c] = cand as u32;
        nodes.parents[c] = u;
        nodes.depths[c] = nodes.depths[u] + 1;
        nodes.probs[c] = prob;
        nodes.tops[c] = top;
        nodes.n += 1;
    }
    let child_hi = nodes.n;
    ws.give(dl);
    for c in child_lo..child_hi {
        expand(
            nodes, c, draft, d_cache, ws, cfg, max_nodes, max_depth, vis_mass,
        );
        d_cache.truncate(fed_len);
    }
}

/// Resumable **tree** speculative decoding: [`SpecSession`]'s contract —
/// same constructor asserts, same pending-token fold, same block-granular
/// stepping, same lossless greedy acceptance — with the γ-token chain
/// generalized to a token tree verified in one target pass.
///
/// [`SpecSession`]: crate::SpecSession
#[derive(Debug, Clone)]
pub struct TreeSession {
    core: Core,
    cfg: TreeConfig,
    d_off: usize,
    /// Target-cache prefix length treated as the vision prefix when
    /// measuring visual-attention mass (0 ⇒ text-only, no measurement).
    vis_boundary: usize,
    /// Lagged EWMA of the verify pass's mean visual-attention mass — the
    /// calibrator's modality feature for the NEXT block.
    vis_mass: f32,
    collect: bool,
    examples: Vec<AcceptanceExample>,
}

core_accessors!(TreeSession);

impl TreeSession {
    /// Start a tree session from pre-seeded caches; cache/budget contract
    /// identical to [`SpecSession::new`](crate::SpecSession::new).
    /// `vis_boundary` is the target cache's vision-prefix length (0 for
    /// text-only requests).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        target: &Decoder,
        draft: &Decoder,
        t_cache: &KvCache,
        d_cache: &KvCache,
        pending: u32,
        budget: usize,
        gamma: usize,
        cfg: TreeConfig,
        vis_boundary: usize,
    ) -> Self {
        assert!(cfg.branch_factor >= 1, "branch factor must be at least 1");
        assert_budget_fits("draft", draft, d_cache, budget);
        assert!(
            vis_boundary <= t_cache.len(),
            "vision boundary beyond the prefilled target cache"
        );
        Self {
            core: Core::new(target, t_cache, pending, budget, gamma),
            cfg,
            d_off: d_cache.len(),
            vis_boundary,
            vis_mass: 0.0,
            collect: false,
            examples: Vec::new(),
        }
    }

    pub(crate) fn core(&self) -> &Core {
        &self.core
    }

    /// Record one [`AcceptanceExample`] per target-adjudicated candidate
    /// (drain with [`TreeSession::take_examples`]) — calibrator training
    /// data collection.
    pub fn enable_example_collection(&mut self) {
        self.collect = true;
    }

    /// Drain the collected training examples.
    pub fn take_examples(&mut self) -> Vec<AcceptanceExample> {
        std::mem::take(&mut self.examples)
    }

    /// The running visual-attention-mass feature (diagnostics).
    #[inline]
    pub fn visual_mass(&self) -> f32 {
        self.vis_mass
    }

    /// Execute **one** tree block: DFS-draft a token tree (node budget
    /// γ+1 rows — the linear block's verified-rows budget), score every
    /// node in a single tree-attention target pass, walk the longest
    /// accepted root-to-leaf path, commit it plus the correction/bonus
    /// token, and compact the accepted rows in place with
    /// [`KvCache::gather_tail`]. Falls back to one plain decode step when
    /// budget or context leaves no room to speculate.
    pub fn step_block(
        &mut self,
        target: &Decoder,
        draft: &Decoder,
        t_cache: &mut KvCache,
        d_cache: &mut KvCache,
        ws: &mut Workspace,
    ) -> StepReport {
        let before = self.core.tokens().len();
        if self.core.is_done() {
            return self.core.report(before);
        }
        let (t_vocab, d_vocab) = (target.cfg.vocab, draft.cfg.vocab);
        let t_base = t_cache.len();
        let d_base = d_cache.len();
        debug_assert_eq!(t_base, self.core.t_base());
        debug_assert_eq!(d_base, self.d_off + before - 1);
        // Same room arithmetic as the linear session: the tree feeds at
        // most g+1 rows to the target and runs the draft at most g deep.
        let room = room(target, t_cache, t_base).min(room(draft, d_cache, d_base));
        let g = self.core.block_depth(room);
        let fed = self.core.pending;
        if g == 0 {
            self.core.plain_decode(target, t_cache, ws);
            if !self.core.is_done() {
                let mut dl = ws.take(d_vocab);
                draft.forward_infer_ws(&[fed], d_cache, ws, &mut dl);
                ws.give(dl);
            }
            return self.core.report(before);
        }

        // Draft phase: grow the tree. Depth ≤ min(cfg.max_depth, g), node
        // budget g+1 — exactly the rows a linear γ=g block would verify.
        let depth_eff = if self.cfg.max_depth == 0 {
            g
        } else {
            self.cfg.max_depth.min(g)
        };
        let max_nodes = g + 1;
        let mut nodes = TreeNodes {
            toks: [0; MAX_GAMMA],
            parents: [usize::MAX; MAX_GAMMA],
            depths: [0; MAX_GAMMA],
            probs: [1.0; MAX_GAMMA],
            tops: [1.0; MAX_GAMMA],
            n: 1,
        };
        nodes.toks[0] = fed;
        expand(
            &mut nodes,
            0,
            draft,
            d_cache,
            ws,
            &self.cfg,
            max_nodes,
            depth_eff,
            self.vis_mass,
        );
        let n = nodes.n;
        d_cache.truncate(d_base);

        // Verify phase: ONE tree-attention target pass scores all n rows.
        let mut vis = [0u64; MAX_GAMMA];
        for i in 0..n {
            vis[i] = 1 << i;
            if i > 0 {
                vis[i] |= vis[nodes.parents[i]];
            }
        }
        let mut v_logits = ws.take(n * t_vocab);
        let mut mass = [0.0f32; MAX_GAMMA];
        target.forward_infer_tree_ws(
            &nodes.toks[..n],
            t_cache,
            ws,
            &mut v_logits,
            TreeRows {
                depths: &nodes.depths[..n],
                vis: &vis[..n],
                vis_boundary: self.vis_boundary,
                vis_mass: &mut mass[..n],
            },
        );

        // Accept walk: from the root, follow the child matching the
        // target's argmax (greedy drafting makes children distinct, so at
        // most one matches). The exit prediction is the correction token
        // on mismatch and the free bonus token at a leaf — uniformly.
        // `path` are the accepted rows, `path_toks` their tokens (root =
        // the pending token).
        let mut path = [0usize; MAX_GAMMA];
        let mut path_toks = [fed; MAX_GAMMA];
        let mut plen = 1usize;
        let mut cur = 0usize;
        let next = loop {
            let pred = argmax(&v_logits[cur * t_vocab..(cur + 1) * t_vocab]) as u32;
            let hit = (cur + 1..n).find(|&c| nodes.parents[c] == cur && nodes.toks[c] == pred);
            let Some(hit) = hit else {
                break pred;
            };
            path[plen] = hit;
            path_toks[plen] = pred;
            plen += 1;
            cur = hit;
        };
        let accepted = plen - 1;

        if self.collect {
            // Every candidate whose parent lies on the accepted path was
            // adjudicated by this verify pass — label it.
            for c in 1..n {
                let p = nodes.parents[c];
                if path[..plen].contains(&p) {
                    let pred = argmax(&v_logits[p * t_vocab..(p + 1) * t_vocab]) as u32;
                    self.examples.push(AcceptanceExample {
                        features: AcceptanceCalibrator::features(
                            nodes.probs[c],
                            nodes.tops[c],
                            nodes.depths[c] as f32 / depth_eff as f32,
                            self.vis_mass,
                        ),
                        label: if nodes.toks[c] == pred { 1.0 } else { 0.0 },
                    });
                }
            }
        }
        ws.give(v_logits);

        if self.vis_boundary > 0 {
            let mean = mass[..n].iter().sum::<f32>() / n as f32;
            self.vis_mass = 0.7 * self.vis_mass + 0.3 * mean;
        }

        // Chain-equivalent observation for the γ controller: the greedy
        // chain ran the full depth budget; `accepted` of it survived.
        self.core.commit(
            &path_toks[1..plen],
            next,
            n - 1,
            (depth_eff, accepted.min(depth_eff)),
        );
        if !self.core.is_done() {
            // Commit the accepted path: compact its rows down over the
            // rejected siblings (an identity copy at branching factor 1)
            // and resync the draft with one batched refeed — bit-identical
            // to the sequential feeds, so the next block starts from
            // exactly the state the linear session would hold. (The final
            // block skips this, as the linear session skips its rollback.)
            t_cache.gather_tail(t_base, &path[..plen]);
            let mut dl = ws.take(plen * d_vocab);
            draft.forward_infer_ws(&path_toks[..plen], d_cache, ws, &mut dl);
            ws.give(dl);
        }
        self.core.report(before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SpecStats;
    use crate::session::{Session, SpecSession};
    use crate::{autoregressive_greedy_with_budget_ws, AdaptiveGamma};
    use aasd_nn::DecoderConfig;
    use aasd_tensor::Rng;

    fn tiny(seed: u64) -> Decoder {
        Decoder::new(DecoderConfig::tiny(40), seed)
    }

    fn prefill(model: &Decoder, prompt: &[u32], ws: &mut Workspace) -> (KvCache, u32) {
        let vocab = model.cfg.vocab;
        let mut cache = model.new_cache();
        let mut logits = ws.take(prompt.len() * vocab);
        model.forward_infer_ws(prompt, &mut cache, ws, &mut logits);
        let pending = argmax(&logits[(prompt.len() - 1) * vocab..]) as u32;
        ws.give(logits);
        (cache, pending)
    }

    /// A text-only tree session run to completion over prefilled caches.
    #[allow(clippy::too_many_arguments)]
    fn run_tree(
        target: &Decoder,
        draft: &Decoder,
        tc: &mut KvCache,
        dc: &mut KvCache,
        pending: u32,
        budget: usize,
        gamma: usize,
        cfg: TreeConfig,
        ws: &mut Workspace,
    ) -> (Vec<u32>, SpecStats) {
        let s = TreeSession::new(target, draft, tc, dc, pending, budget, gamma, cfg, 0);
        Session::Tree(s).run(target, tc, Some((draft, dc)), ws)
    }

    /// Every tree shape is lossless: output ≡ the AR chain, for branching
    /// factors 1..4, shallow and full depth, with and without the
    /// calibrator, across γ — on an adversarial (independent) draft.
    #[test]
    fn every_tree_shape_is_lossless() {
        let target = tiny(0xA0);
        let draft = tiny(0xA1);
        let mut ws = Workspace::new();
        let mut rng = Rng::new(6);
        for case in 0u64..3 {
            let p: Vec<u32> = (0..4 + case as usize)
                .map(|_| rng.below(40) as u32)
                .collect();
            let budget = 22;
            let reference = autoregressive_greedy_with_budget_ws(&target, &p, budget, &mut ws);
            for bf in [1usize, 2, 3] {
                for max_depth in [0usize, 3] {
                    for cal in [None, Some(AcceptanceCalibrator::neutral())] {
                        let cfg = TreeConfig {
                            branch_factor: bf,
                            max_depth,
                            prob_floor: 0.05,
                            calibrator: cal,
                            branch_threshold: 0.25,
                        };
                        let (mut tc, pending) = prefill(&target, &p, &mut ws);
                        let (mut dc, _) = prefill(&draft, &p, &mut ws);
                        let (out, stats) = run_tree(
                            &target, &draft, &mut tc, &mut dc, pending, budget, 5, cfg, &mut ws,
                        );
                        assert_eq!(
                            out, reference,
                            "tree lost losslessness: bf={bf} depth={max_depth}"
                        );
                        assert_eq!(stats.generated, budget);
                        assert!(stats.accepted <= stats.drafted);
                    }
                }
            }
        }
    }

    /// Branching factor 1 is BYTE-identical to the linear session: same
    /// stream, same stats, and the caches finish in the same state.
    #[test]
    fn branching_factor_one_is_byte_identical_to_linear() {
        let target = tiny(0xB0);
        let draft = tiny(0xB1);
        let mut ws = Workspace::new();
        let mut rng = Rng::new(7);
        for gamma in [1usize, 3, 5] {
            let p: Vec<u32> = (0..5).map(|_| rng.below(40) as u32).collect();
            let budget = 19;
            let (mut tc_l, pending) = prefill(&target, &p, &mut ws);
            let (mut dc_l, _) = prefill(&draft, &p, &mut ws);
            let lin = SpecSession::new(&target, &draft, &tc_l, &dc_l, pending, budget, gamma);
            let (want, want_stats) =
                Session::Spec(lin).run(&target, &mut tc_l, Some((&draft, &mut dc_l)), &mut ws);
            let (mut tc_t, pending_t) = prefill(&target, &p, &mut ws);
            let (mut dc_t, _) = prefill(&draft, &p, &mut ws);
            assert_eq!(pending, pending_t);
            let (got, got_stats) = run_tree(
                &target,
                &draft,
                &mut tc_t,
                &mut dc_t,
                pending_t,
                budget,
                gamma,
                TreeConfig::linear(),
                &mut ws,
            );
            assert_eq!(got, want, "γ={gamma} stream diverged");
            assert_eq!(got_stats, want_stats, "γ={gamma} stats diverged");
            assert_eq!(tc_t.len(), tc_l.len());
            assert_eq!(dc_t.len(), dc_l.len());
            for l in 0..target.cfg.n_layers {
                for pos in 0..tc_l.len() {
                    assert_eq!(tc_l.layer(l).key(pos), tc_t.layer(l).key(pos));
                    assert_eq!(tc_l.layer(l).value(pos), tc_t.layer(l).value(pos));
                }
            }
        }
    }

    /// A branched tree on a self-draft accepts its full chain every block
    /// and τ reaches the depth bound despite the extra branch rows.
    #[test]
    fn self_draft_tree_accepts_the_full_chain() {
        let target = tiny(0xC0);
        let mut ws = Workspace::new();
        let p = [2u32, 9, 33, 1];
        let budget = 21;
        let reference = autoregressive_greedy_with_budget_ws(&target, &p, budget, &mut ws);
        let (mut tc, pending) = prefill(&target, &p, &mut ws);
        let (mut dc, _) = prefill(&target, &p, &mut ws);
        let (out, stats) = run_tree(
            &target,
            &target,
            &mut tc,
            &mut dc,
            pending,
            budget,
            4,
            TreeConfig {
                branch_factor: 2,
                max_depth: 0,
                prob_floor: 0.0,
                calibrator: None,
                branch_threshold: 0.5,
            },
            &mut ws,
        );
        assert_eq!(out, reference);
        // Every block's greedy chain is fully accepted, so τ is pinned at
        // the depth the breadth-first budget leaves the chain (γ=4 → 5
        // nodes → chain depth 2 beside the branches → 3 commits/block).
        let tau = stats.block_efficiency();
        assert!(tau > 2.5, "self-draft tree τ too low: {tau}");
    }

    /// The adaptive controller composes with the tree session and stays
    /// lossless while γ moves.
    #[test]
    fn adaptive_tree_session_is_lossless() {
        let target = tiny(0xD0);
        let draft = tiny(0xD1);
        let mut ws = Workspace::new();
        let p = [1u32, 8, 3, 20, 5];
        let budget = 24;
        let reference = autoregressive_greedy_with_budget_ws(&target, &p, budget, &mut ws);
        let (mut tc, pending) = prefill(&target, &p, &mut ws);
        let (mut dc, _) = prefill(&draft, &p, &mut ws);
        let mut s = TreeSession::new(
            &target,
            &draft,
            &tc,
            &dc,
            pending,
            budget,
            3,
            TreeConfig::default(),
            0,
        );
        s.enable_adaptive_gamma(AdaptiveGamma::new(0.25));
        while !s.is_done() {
            let g = s.gamma();
            assert!((1..MAX_GAMMA).contains(&g));
            s.step_block(&target, &draft, &mut tc, &mut dc, &mut ws);
        }
        let (out, _) = s.into_parts();
        assert_eq!(out, reference);
    }

    /// Example collection labels candidates with the target's actual
    /// verdict: on a self-draft every first child is accepted (label 1),
    /// and features stay in range.
    #[test]
    fn example_collection_labels_follow_the_target() {
        let target = tiny(0xE0);
        let draft = tiny(0xE1);
        let mut ws = Workspace::new();
        let p = [4u32, 17, 2];
        let (mut tc, pending) = prefill(&target, &p, &mut ws);
        let (mut dc, _) = prefill(&draft, &p, &mut ws);
        let mut s = TreeSession::new(
            &target,
            &draft,
            &tc,
            &dc,
            pending,
            20,
            4,
            TreeConfig::default(),
            0,
        );
        s.enable_example_collection();
        while !s.is_done() {
            s.step_block(&target, &draft, &mut tc, &mut dc, &mut ws);
        }
        let examples = s.take_examples();
        assert!(!examples.is_empty(), "an adversarial draft must be judged");
        assert!(examples.iter().any(|e| e.label == 0.0), "no rejections?");
        for e in &examples {
            assert!((0.0..=1.0).contains(&e.features[0]), "prob {e:?}");
            assert!((0.0..=1.0).contains(&e.features[2]), "depth {e:?}");
            assert!(e.label == 0.0 || e.label == 1.0);
        }
        assert!(s.take_examples().is_empty(), "drain must empty the buffer");
    }

    /// The calibrator head is a well-formed logistic: monotone in a
    /// positively-weighted feature and σ-bounded.
    #[test]
    fn calibrator_predictions_are_probabilities() {
        let cal = AcceptanceCalibrator::neutral();
        let lo = cal.predict(&AcceptanceCalibrator::features(0.05, 0.9, 0.5, 0.3));
        let hi = cal.predict(&AcceptanceCalibrator::features(0.95, 0.9, 0.5, 0.3));
        assert!(lo < hi, "higher draft prob must predict higher acceptance");
        for p in [lo, hi] {
            assert!((0.0..=1.0).contains(&p));
        }
        assert!(cal.accept(&AcceptanceCalibrator::features(0.9, 0.9, 0.2, 0.0)));
        assert!(!cal.accept(&AcceptanceCalibrator::features(0.01, 0.9, 1.0, 0.0)));
    }
}
