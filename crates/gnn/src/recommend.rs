//! Two-tower recommendation: a GNN user tower against a linear item tower,
//! trained with a BPR (Bayesian personalized ranking) loss.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use relgraph_graph::{HeteroGraph, NodeTypeId, SamplerConfig, Seed, TemporalSampler};
use relgraph_nn::ParamId;
use relgraph_nn::{clip_global_norm, init, Activation, Adam, Binding, Linear, Optimizer, ParamSet};
use relgraph_obs as obs;
use relgraph_tensor::{Graph, Tensor};

use crate::batch::{build_batch, input_dims};
use crate::error::{GnnError, GnnResult};
use crate::model::{GnnConfig, HeteroGnn};
use crate::train::with_tape;

/// Hyper-parameters for [`train_two_tower`].
#[derive(Debug, Clone)]
pub struct TwoTowerConfig {
    /// Shared embedding dimension of both towers.
    pub embed_dim: usize,
    /// GNN hidden width (user tower).
    pub hidden_dim: usize,
    /// Per-hop fanouts of the user tower.
    pub fanouts: Vec<usize>,
    /// Maximum epochs.
    pub epochs: usize,
    /// Examples per mini-batch.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Gradient-norm cap.
    pub clip_norm: f64,
    /// Negatives sampled per positive, per epoch.
    pub negatives: usize,
    /// Early-stopping patience in epochs (validation recall@`eval_k`).
    pub patience: usize,
    /// Cutoff for the validation recall early-stopping criterion.
    pub eval_k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TwoTowerConfig {
    fn default() -> Self {
        TwoTowerConfig {
            embed_dim: 16,
            hidden_dim: 32,
            fanouts: vec![10, 10],
            epochs: 15,
            batch_size: 64,
            lr: 0.01,
            clip_norm: 5.0,
            negatives: 4,
            patience: 3,
            eval_k: 10,
            seed: 29,
        }
    }
}

/// A trained two-tower recommender.
pub struct TwoTowerModel {
    ps: ParamSet,
    user_gnn: HeteroGnn,
    item_proj: Linear,
    /// Free per-item embedding table: lets the item tower pick up
    /// collaborative structure beyond the item's attributes.
    item_embed: ParamId,
    item_type: NodeTypeId,
    item_features: Tensor,
    sampler_cfg: SamplerConfig,
}

impl TwoTowerModel {
    /// The item node type being ranked.
    pub fn item_type(&self) -> NodeTypeId {
        self.item_type
    }

    /// Score every item for each user seed: returns one `n_items` score
    /// vector per seed.
    pub fn scores(&self, graph: &HeteroGraph, seeds: &[Seed]) -> Vec<Vec<f64>> {
        let item_emb = self.item_embeddings();
        let item_t = item_emb.transpose();
        let sampler = TemporalSampler::new(graph, self.sampler_cfg.clone());
        let mut out = Vec::with_capacity(seeds.len());
        for chunk in seeds.chunks(128) {
            let sub = sampler.sample(chunk);
            let scores = with_tape(|g, binding| {
                let batch = build_batch(graph, &sub, g);
                let u = self.user_gnn.forward(g, binding, &self.ps, &batch);
                g.value(u).matmul(&item_t)
            });
            for r in 0..scores.rows() {
                out.push(scores.row(r).to_vec());
            }
        }
        out
    }

    /// Top-`k` item indices per seed, excluding each seed's `exclude` set
    /// (e.g. items already purchased before the anchor).
    pub fn recommend(
        &self,
        graph: &HeteroGraph,
        seeds: &[Seed],
        k: usize,
        exclude: &[std::collections::HashSet<usize>],
    ) -> Vec<Vec<usize>> {
        let all = self.scores(graph, seeds);
        all.into_iter()
            .enumerate()
            .map(|(i, scores)| {
                let skip = exclude.get(i);
                let mut idx: Vec<usize> = (0..scores.len())
                    .filter(|item| skip.is_none_or(|s| !s.contains(item)))
                    .collect();
                idx.sort_by(|&a, &b| {
                    scores[b]
                        .partial_cmp(&scores[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                idx.truncate(k);
                idx
            })
            .collect()
    }

    fn item_embeddings(&self) -> Tensor {
        with_tape(|g, binding| {
            let x = g.constant_copied(&self.item_features);
            let proj = self.item_proj.forward(g, binding, &self.ps, x);
            let free = binding.bind(g, &self.ps, self.item_embed);
            let e = g.add(proj, free);
            g.value(e).clone()
        })
    }
}

fn raw_item_features(graph: &HeteroGraph, item_type: NodeTypeId) -> Tensor {
    let f = graph.features(item_type);
    let n = f.rows();
    let d = f.dim();
    let mut t = Tensor::zeros(n, d);
    for i in 0..n {
        for (j, &x) in f.row(i).iter().enumerate() {
            t.set(i, j, x as f64);
        }
    }
    t
}

/// Train a two-tower recommender from `(user seed, positive item)` pairs,
/// early-stopping on the `val` pairs' recall@`eval_k` when they are
/// non-empty. Negatives are sampled uniformly per example each epoch.
pub fn train_two_tower(
    graph: &HeteroGraph,
    item_type: NodeTypeId,
    train: &[(Seed, usize)],
    val: &[(Seed, usize)],
    cfg: &TwoTowerConfig,
) -> GnnResult<TwoTowerModel> {
    if train.is_empty() {
        return Err(GnnError::DegenerateTrainingSet("no training pairs".into()));
    }
    let n_items = graph.num_nodes(item_type);
    if n_items < 2 {
        return Err(GnnError::DegenerateTrainingSet(
            "need at least two items".into(),
        ));
    }
    let item_features = raw_item_features(graph, item_type);
    let mut ps = ParamSet::new();
    let gnn_cfg = GnnConfig {
        hidden_dim: cfg.hidden_dim,
        layers: cfg.fanouts.len(),
        out_dim: cfg.embed_dim,
        activation: Activation::Relu,
        aggregation: crate::sage::Aggregation::Mean,
        seed: cfg.seed,
    };
    let seed_type = train[0].0.node_type.0;
    let user_gnn = HeteroGnn::new(
        &mut ps,
        &input_dims(graph),
        graph.edge_types(),
        seed_type,
        &gnn_cfg,
    );
    let item_proj = Linear::new(
        &mut ps,
        "item_proj",
        item_features.cols(),
        cfg.embed_dim,
        cfg.seed.wrapping_add(777),
    );
    let item_embed = {
        let mut r = init::rng(cfg.seed.wrapping_add(778));
        let mut t = init::xavier_uniform(n_items, cfg.embed_dim, &mut r);
        t.scale_assign(0.3); // start mostly feature-driven
        ps.register("item_embed", t)
    };
    let sampler_cfg = SamplerConfig::new(cfg.fanouts.clone());
    let sampler = TemporalSampler::new(graph, sampler_cfg.clone());
    // The model is trained in place: its parameters take the steps, and
    // the per-epoch validation ranks with it as it stands.
    let mut model = TwoTowerModel {
        ps,
        user_gnn,
        item_proj,
        item_embed,
        item_type,
        item_features,
        sampler_cfg,
    };
    let mut opt = Adam::new(cfg.lr);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let ones = Tensor::full(cfg.embed_dim, 1, 1.0);

    // One BPR forward pass over a chunk of (seed, positive) pairs with
    // `negatives` uniform negatives per positive; returns the scalar loss.
    let bpr_loss = |g: &mut Graph,
                    binding: &mut Binding,
                    m: &TwoTowerModel,
                    pairs: &[(Seed, usize)],
                    rng: &mut StdRng|
     -> relgraph_tensor::Var {
        let seeds: Vec<Seed> = pairs.iter().map(|&(s, _)| s).collect();
        let pos: Vec<usize> = pairs.iter().map(|&(_, p)| p).collect();
        let sub = sampler.sample(&seeds);
        let batch = build_batch(graph, &sub, g);
        let u = m.user_gnn.forward(g, binding, &m.ps, &batch);
        let items = g.constant_copied(&m.item_features);
        let proj = m.item_proj.forward(g, binding, &m.ps, items);
        let free = binding.bind(g, &m.ps, m.item_embed);
        let item_emb = g.add(proj, free);
        let p = g
            .gather_rows(item_emb, pos.clone())
            .expect("pos item in range");
        let ones_v = g.constant_copied(&ones);
        let up = g.mul(u, p);
        let s_pos = g.matmul(up, ones_v);
        let mut total: Option<relgraph_tensor::Var> = None;
        for _ in 0..cfg.negatives.max(1) {
            let neg: Vec<usize> = pos
                .iter()
                .map(|&p| {
                    let mut n = rng.gen_range(0..n_items);
                    while n == p {
                        n = rng.gen_range(0..n_items);
                    }
                    n
                })
                .collect();
            let nneg = g.gather_rows(item_emb, neg).expect("neg item in range");
            let un = g.mul(u, nneg);
            let ones_v = g.constant_copied(&ones);
            let s_neg = g.matmul(un, ones_v);
            // BPR: softplus(s_neg − s_pos).
            let diff = g.sub(s_neg, s_pos);
            let sp = g.softplus(diff);
            let l = g.mean_all(sp);
            total = Some(match total {
                Some(t) => g.add(t, l),
                None => l,
            });
        }
        let t = total.expect("at least one negative round");
        g.scale(t, 1.0 / cfg.negatives.max(1) as f64)
    };

    // Group validation pairs per (seed node, anchor) for recall@k.
    let mut val_groups: Vec<(Seed, Vec<usize>)> = Vec::new();
    for &(seed, item) in val {
        match val_groups.iter_mut().find(|(s, _)| *s == seed) {
            Some((_, items)) => items.push(item),
            None => val_groups.push((seed, vec![item])),
        }
    }

    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut best_val = f64::NEG_INFINITY;
    let mut best_snapshot = model.ps.snapshot();
    let mut since_best = 0usize;
    let _train_span = obs::span("gnn.train_two_tower");
    for epoch in 0..cfg.epochs {
        obs::add("gnn.train.epochs", 1);
        order.shuffle(&mut rng);
        // One tape for every minibatch: reset() recycles its buffers.
        with_tape(|g, binding| -> GnnResult<()> {
            for chunk in order.chunks(cfg.batch_size) {
                let pairs: Vec<(Seed, usize)> = chunk.iter().map(|&i| train[i]).collect();
                g.reset();
                binding.reset();
                let l = bpr_loss(g, binding, &model, &pairs, &mut rng);
                if !g.value(l).item().is_finite() {
                    return Err(GnnError::NumericFailure { epoch });
                }
                g.backward(l)?;
                binding.accumulate_grads(g, &mut model.ps);
                clip_global_norm(&mut model.ps, cfg.clip_norm);
                opt.step(&mut model.ps);
            }
            Ok(())
        })?;
        if !val_groups.is_empty() {
            // Validation recall@k under the current parameters: the metric
            // we actually care about, far less noisy than val BPR loss.
            let seeds: Vec<Seed> = val_groups.iter().map(|&(s, _)| s).collect();
            let recs = model.recommend(graph, &seeds, cfg.eval_k, &[]);
            let mut recall = 0.0;
            for ((_, truth), rec) in val_groups.iter().zip(&recs) {
                let hit = truth.iter().filter(|t| rec.contains(t)).count();
                recall += hit as f64 / truth.len() as f64;
            }
            let val_recall = recall / val_groups.len() as f64;
            obs::series_push("gnn.val_recall", val_recall);
            if val_recall > best_val + 1e-9 {
                best_val = val_recall;
                best_snapshot = model.ps.snapshot();
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= cfg.patience {
                    break;
                }
            }
        }
    }
    if !val_groups.is_empty() {
        model.ps.restore(&best_snapshot);
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgraph_graph::{FeatureMatrix, HeteroGraphBuilder};
    use std::collections::HashSet;

    /// Two taste groups: group-g users buy group-g items. Items carry their
    /// group in features; users are featureless, so the tower must infer
    /// taste from purchase history (1 hop).
    fn taste_graph(
        n_users: usize,
        n_items: usize,
        seed: u64,
    ) -> (HeteroGraph, Vec<(Seed, usize)>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = HeteroGraphBuilder::new();
        let u = b.add_node_type("user", n_users);
        let i = b.add_node_type("item", n_items);
        let bought = b.add_edge_type("bought", u, i);
        let bought_by = b.add_edge_type("bought_by", i, u);
        let mut item_feats = FeatureMatrix::zeros(n_items, 2);
        for item in 0..n_items {
            item_feats.row_mut(item)[item % 2] = 1.0;
        }
        b.set_features(i, item_feats);
        b.set_features(u, FeatureMatrix::from_rows(n_users, 1, vec![1.0; n_users]));
        let mut train = Vec::new();
        let mut user_group = Vec::with_capacity(n_users);
        for user in 0..n_users {
            let group = user % 2;
            user_group.push(group);
            // History: 4 past purchases within the group.
            for k in 0..4 {
                let item = (rng.gen_range(0..n_items / 2) * 2 + group) % n_items;
                b.add_edge(bought, user, item, 10 + k);
                b.add_edge(bought_by, item, user, 10 + k);
            }
            // Future positive: another in-group item.
            let pos = (rng.gen_range(0..n_items / 2) * 2 + group) % n_items;
            train.push((
                Seed {
                    node_type: NodeTypeId(0),
                    node: user,
                    time: 100,
                },
                pos,
            ));
        }
        (b.finish().unwrap(), train, user_group)
    }

    fn fast_cfg() -> TwoTowerConfig {
        TwoTowerConfig {
            embed_dim: 8,
            hidden_dim: 16,
            fanouts: vec![5],
            epochs: 12,
            seed: 9,
            ..Default::default()
        }
    }

    #[test]
    fn learns_taste_groups() {
        let (g, train, groups) = taste_graph(60, 30, 1);
        let model = train_two_tower(&g, NodeTypeId(1), &train, &[], &fast_cfg()).unwrap();
        let seeds: Vec<Seed> = train.iter().map(|&(s, _)| s).collect();
        let recs = model.recommend(&g, &seeds, 5, &[]);
        // Most recommendations should match the user's group.
        let mut in_group = 0usize;
        let mut total = 0usize;
        for (user, rec) in recs.iter().enumerate() {
            for &item in rec {
                total += 1;
                if item % 2 == groups[user] {
                    in_group += 1;
                }
            }
        }
        let frac = in_group as f64 / total as f64;
        assert!(
            frac > 0.8,
            "two-tower should respect taste groups, got {frac}"
        );
        assert_eq!(model.item_type(), NodeTypeId(1));
    }

    #[test]
    fn exclusion_filters_recommendations() {
        let (g, train, _) = taste_graph(20, 10, 2);
        let model = train_two_tower(&g, NodeTypeId(1), &train, &[], &fast_cfg()).unwrap();
        let seeds = vec![train[0].0];
        let all: HashSet<usize> = (0..8).collect();
        let recs = model.recommend(&g, &seeds, 5, std::slice::from_ref(&all));
        assert!(recs[0].iter().all(|i| !all.contains(i)));
        assert_eq!(recs[0].len(), 2); // only items 8 and 9 remain
    }

    #[test]
    fn scores_cover_all_items() {
        let (g, train, _) = taste_graph(10, 12, 3);
        let model = train_two_tower(&g, NodeTypeId(1), &train, &[], &fast_cfg()).unwrap();
        let s = model.scores(&g, &[train[0].0]);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].len(), 12);
        assert!(s[0].iter().all(|x| x.is_finite()));
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let (g, _, _) = taste_graph(10, 12, 4);
        assert!(matches!(
            train_two_tower(&g, NodeTypeId(1), &[], &[], &fast_cfg()),
            Err(GnnError::DegenerateTrainingSet(_))
        ));
    }
}
