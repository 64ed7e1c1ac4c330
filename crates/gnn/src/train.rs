//! Mini-batch training of node-level GNN models — binary classification,
//! regression and multiclass classification — with Adam, gradient clipping
//! and early stopping. Every task runs the same epoch loop and predicts
//! through the same chunked forward pass; a task differs only in its label
//! type, its batch loss and how it reads the head's output.

use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use relgraph_graph::{HeteroGraph, SampledSubgraph, SamplerConfig, Seed, TemporalSampler};
use relgraph_nn::{clip_global_norm, loss, Activation, Adam, Binding, Optimizer, ParamSet};
use relgraph_obs as obs;
use relgraph_tensor::{Graph, Tensor, Var};

use crate::batch::{build_batch, input_dims};
use crate::error::{GnnError, GnnResult};
use crate::model::{GnnConfig, HeteroGnn};
use crate::sage::Aggregation;

/// Which prediction task the model solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Binary classification; labels in `{0.0, 1.0}`, predictions are
    /// probabilities.
    Binary,
    /// Scalar regression; labels standardized internally, predictions are
    /// on the original scale.
    Regression,
}

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Seeds per mini-batch.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Global gradient-norm cap.
    pub clip_norm: f64,
    /// Early-stopping patience (epochs without val improvement).
    pub patience: usize,
    /// Per-hop neighbor fanouts; the layer count follows `fanouts.len()`.
    pub fanouts: Vec<usize>,
    /// Hidden width.
    pub hidden_dim: usize,
    /// RNG seed (shuffling + init).
    pub seed: u64,
    /// Temporal (leak-free) sampling; `false` only for the leakage ablation.
    pub temporal: bool,
    /// Windowed degree-count features (default); `false` only for the
    /// depth ablation's raw-features condition.
    pub degree_features: bool,
    /// Neighborhood aggregation function.
    pub aggregation: Aggregation,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 64,
            lr: 0.01,
            clip_norm: 5.0,
            patience: 5,
            fanouts: vec![10, 10],
            hidden_dim: 32,
            seed: 17,
            temporal: true,
            degree_features: true,
            aggregation: Aggregation::Mean,
        }
    }
}

impl TrainConfig {
    /// The sampler configuration a model trained under `self` samples with.
    fn sampler_config(&self) -> SamplerConfig {
        let mut base = SamplerConfig::new(self.fanouts.clone());
        if !self.temporal {
            base = base.leaky();
        }
        if !self.degree_features {
            base = base.without_degree_features();
        }
        base
    }
}

/// What happened during training.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Epochs actually run (early stopping may cut this short).
    pub epochs_run: usize,
    /// Best validation loss (train loss when no validation set given).
    pub best_val_loss: f64,
    /// Mean train loss per epoch.
    pub train_losses: Vec<f64>,
    /// Validation loss per epoch.
    pub val_losses: Vec<f64>,
}

/// A trained node-level model: hetero-GNN + head + label scaling.
pub struct NodeModel {
    ps: ParamSet,
    gnn: HeteroGnn,
    task: TaskKind,
    label_mean: f64,
    label_std: f64,
    sampler_cfg: SamplerConfig,
    /// Training diagnostics.
    pub report: TrainReport,
}

impl NodeModel {
    /// The task this model was trained for.
    pub fn task(&self) -> TaskKind {
        self.task
    }

    /// Trained parameters (per-node inference path).
    pub(crate) fn ps(&self) -> &ParamSet {
        &self.ps
    }

    /// The underlying GNN (per-node inference path).
    pub(crate) fn gnn(&self) -> &HeteroGnn {
        &self.gnn
    }

    /// Label de-standardization constants (per-node inference path).
    pub(crate) fn label_scale(&self) -> (f64, f64) {
        (self.label_mean, self.label_std)
    }

    /// Sampler configuration the model was trained under.
    pub fn sampler_cfg(&self) -> &SamplerConfig {
        &self.sampler_cfg
    }

    /// Number of trainable tensors.
    pub fn num_params(&self) -> usize {
        self.ps.len()
    }

    /// Predict for a slice of seeds: probabilities for `Binary`,
    /// original-scale values for `Regression`.
    pub fn predict(&self, graph: &HeteroGraph, seeds: &[Seed]) -> Vec<f64> {
        self.predict_with_sampler(graph, seeds, self.sampler_cfg.clone())
    }

    /// Predict with an explicit sampler configuration — used by the
    /// leakage ablation to serve a leakily-trained model under honest
    /// (deployment-time) sampling.
    pub fn predict_with_sampler(
        &self,
        graph: &HeteroGraph,
        seeds: &[Seed],
        sampler_cfg: SamplerConfig,
    ) -> Vec<f64> {
        let sampler = TemporalSampler::new(graph, sampler_cfg);
        forward_chunked(&sampler, &self.ps, &self.gnn, seeds, |g, pred| {
            let v = g.value(pred);
            (0..v.rows())
                .map(|r| {
                    let x = v.get(r, 0);
                    match self.task {
                        TaskKind::Binary => 1.0 / (1.0 + (-x).exp()),
                        TaskKind::Regression => x * self.label_std + self.label_mean,
                    }
                })
                .collect()
        })
    }

    /// Export everything needed to reconstruct this model: architecture
    /// (config, input dims, edge types, seed type), trained parameter
    /// tensors, label scaling and sampler configuration. The state is a
    /// plain value — byte-level encoding is the caller's concern (the
    /// serving layer persists it in `model.snap`, see DESIGN.md §14.6).
    pub fn export(&self) -> ModelState {
        ModelState {
            task: self.task,
            label_mean: self.label_mean,
            label_std: self.label_std,
            sampler_cfg: self.sampler_cfg.clone(),
            gnn_config: self.gnn.config().clone(),
            in_dims: self.gnn.in_dims().to_vec(),
            seed_type: self.gnn.seed_type(),
            edge_types: self.gnn.edge_type_metas().to_vec(),
            params: self.ps.snapshot(),
            report: self.report.clone(),
        }
    }

    /// Rebuild a model from an exported [`ModelState`].
    ///
    /// Parameter registration in [`HeteroGnn::new`] is deterministic given
    /// the stored architecture, so re-registering and then restoring the
    /// stored tensors reproduces the trained model exactly — predictions
    /// are bit-identical to the exporting model's. Fails with
    /// [`GnnError::ConfigMismatch`] if the stored tensors don't line up
    /// with the architecture (count or shape), which indicates a corrupt
    /// or hand-edited snapshot.
    pub fn from_state(state: ModelState) -> GnnResult<NodeModel> {
        let mut ps = ParamSet::new();
        let gnn = HeteroGnn::new(
            &mut ps,
            &state.in_dims,
            &state.edge_types,
            state.seed_type,
            &state.gnn_config,
        );
        if ps.len() != state.params.len() {
            return Err(GnnError::ConfigMismatch(format!(
                "model state carries {} parameter tensor(s), architecture registers {}",
                state.params.len(),
                ps.len()
            )));
        }
        for (i, (fresh, stored)) in ps.snapshot().iter().zip(&state.params).enumerate() {
            if fresh.shape() != stored.shape() {
                return Err(GnnError::ConfigMismatch(format!(
                    "parameter tensor #{i} has shape {:?}, architecture expects {:?}",
                    stored.shape(),
                    fresh.shape()
                )));
            }
        }
        ps.restore(&state.params);
        Ok(NodeModel {
            ps,
            gnn,
            task: state.task,
            label_mean: state.label_mean,
            label_std: state.label_std,
            sampler_cfg: state.sampler_cfg,
            report: state.report,
        })
    }
}

/// A [`NodeModel`] flattened into plain data for persistence: architecture,
/// trained tensors, label scaling, sampler configuration and training
/// report. Produced by [`NodeModel::export`], consumed by
/// [`NodeModel::from_state`].
#[derive(Debug, Clone)]
pub struct ModelState {
    /// Prediction task.
    pub task: TaskKind,
    /// Regression label de-standardization mean (0 for binary).
    pub label_mean: f64,
    /// Regression label de-standardization std (1 for binary).
    pub label_std: f64,
    /// Sampler configuration the model was trained under.
    pub sampler_cfg: SamplerConfig,
    /// GNN hyper-parameters.
    pub gnn_config: GnnConfig,
    /// Per-node-type input feature dimensions.
    pub in_dims: Vec<usize>,
    /// Seed node type index.
    pub seed_type: usize,
    /// Edge types the model was built for.
    pub edge_types: Vec<relgraph_graph::EdgeTypeMeta>,
    /// Trained parameter tensors, in registration order.
    pub params: Vec<Tensor>,
    /// Training diagnostics carried along for observability.
    pub report: TrainReport,
}

/// A trained multiclass node-level model: hetero-GNN with a k-way softmax
/// head plus the class vocabulary.
pub struct MulticlassModel {
    ps: ParamSet,
    gnn: HeteroGnn,
    classes: Vec<String>,
    sampler_cfg: SamplerConfig,
    /// Training diagnostics.
    pub report: TrainReport,
}

impl MulticlassModel {
    /// The class vocabulary (index-aligned with predictions).
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// Per-seed class probabilities (`softmax` over the head logits).
    pub fn predict_proba(&self, graph: &HeteroGraph, seeds: &[Seed]) -> Vec<Vec<f64>> {
        let sampler = TemporalSampler::new(graph, self.sampler_cfg.clone());
        forward_chunked(&sampler, &self.ps, &self.gnn, seeds, |g, logits| {
            let ls = g.log_softmax(logits);
            let v = g.value(ls);
            (0..v.rows())
                .map(|r| v.row(r).iter().map(|&x| x.exp()).collect())
                .collect()
        })
    }

    /// Per-seed argmax class index.
    pub fn predict(&self, graph: &HeteroGraph, seeds: &[Seed]) -> Vec<usize> {
        self.predict_proba(graph, seeds)
            .into_iter()
            .map(|p| {
                p.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

/// Seeds per forward pass when predicting.
const PREDICT_CHUNK: usize = 256;

/// Tapes kept between checkouts, each empty and holding its buffer pool.
/// The pool grows only when more tapes are checked out at once than it
/// holds, so it never holds more than the most chunks that ever ran at once.
/// A poisoned lock is recovered: one `pop` or `push` leaves it valid.
static TAPES: Mutex<Vec<(Graph, Binding)>> = Mutex::new(Vec::new());

/// Run `f` on a tape and binding checked out of [`TAPES`], then reset them
/// and put them back. A chunk's tape buffers outlive the chunk and its
/// parallel region, so the next chunk reuses them instead of faulting
/// freshly allocated pages in. Results cannot change: a reset tape is
/// empty, and its pooled buffers are zero-filled on reuse.
pub(crate) fn with_tape<R>(f: impl FnOnce(&mut Graph, &mut Binding) -> R) -> R {
    let checkout = TAPES.lock().unwrap_or_else(PoisonError::into_inner).pop();
    let (mut g, mut binding) = checkout.unwrap_or_else(|| (Graph::new(), Binding::new()));
    let out = f(&mut g, &mut binding);
    g.reset();
    binding.reset();
    TAPES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push((g, binding));
    out
}

/// Assemble the batch of `sub`, sampled from `graph`, and run the GNN
/// forward pass on the tape `g`: the head's output, one row per seed.
fn forward(
    g: &mut Graph,
    binding: &mut Binding,
    ps: &ParamSet,
    gnn: &HeteroGnn,
    graph: &HeteroGraph,
    sub: &SampledSubgraph,
) -> Var {
    let batch = build_batch(graph, sub, g);
    gnn.forward(g, binding, ps, &batch)
}

/// Predict for `seeds`: forward passes over [`PREDICT_CHUNK`]-seed chunks
/// in parallel, each head output turned into per-seed values by `read`,
/// flattened in chunk order — identical output to the serial loop. Each
/// chunk is sampled where it is used: one pass has nothing to reuse.
fn forward_chunked<T: Send>(
    sampler: &TemporalSampler,
    ps: &ParamSet,
    gnn: &HeteroGnn,
    seeds: &[Seed],
    read: impl Fn(&mut Graph, Var) -> Vec<T> + Sync,
) -> Vec<T> {
    let t0 = obs::enabled().then(std::time::Instant::now);
    let chunks: Vec<&[Seed]> = seeds.chunks(PREDICT_CHUNK).collect();
    let per_chunk: Vec<Vec<T>> = chunks
        .par_iter()
        .map(|chunk| {
            with_tape(|g, binding| {
                let sub = sampler.sample(chunk);
                let out = forward(g, binding, ps, gnn, sampler.graph(), &sub);
                read(g, out)
            })
        })
        .collect();
    if let Some(t0) = t0 {
        obs::add("gnn.predict.seeds", seeds.len() as u64);
        obs::record_ns("gnn.predict", t0.elapsed().as_nanos() as u64);
    }
    per_chunk.into_iter().flatten().collect()
}

/// A freshly initialised GNN with an `out_dim`-wide head for seeds of
/// `seed_type`, and its parameters.
fn init_gnn(
    graph: &HeteroGraph,
    cfg: &TrainConfig,
    seed_type: usize,
    out_dim: usize,
) -> (ParamSet, HeteroGnn) {
    let mut ps = ParamSet::new();
    let gnn_cfg = GnnConfig {
        hidden_dim: cfg.hidden_dim,
        layers: cfg.fanouts.len(),
        out_dim,
        activation: Activation::Relu,
        aggregation: cfg.aggregation,
        seed: cfg.seed,
    };
    let gnn = HeteroGnn::new(
        &mut ps,
        &input_dims(graph),
        graph.edge_types(),
        seed_type,
        &gnn_cfg,
    );
    (ps, gnn)
}

/// The epoch loop every node-level task trains with: shuffled minibatches
/// of `train` on one reused tape, clipped Adam steps on `ps`, a forward-only
/// validation pass over `val` (the train loss when `val` is empty) and
/// early stopping, after which `ps` holds the best-validation parameters.
/// `loss` is the batch's mean loss on the tape, given the batch's subgraph
/// and examples; a task differs only there.
///
/// A seed's sampled block depends on the seed alone, so `sampler` runs once
/// per fit: over every training seed, whose blocks each minibatch selects,
/// and over each validation chunk, whose subgraph every epoch reuses.
fn fit<L: Copy + Sync>(
    ps: &mut ParamSet,
    sampler: &TemporalSampler,
    train: &[(Seed, L)],
    val: &[(Seed, L)],
    cfg: &TrainConfig,
    loss: impl Fn(&mut Graph, &mut Binding, &ParamSet, &SampledSubgraph, &[(Seed, L)]) -> Var + Sync,
) -> GnnResult<TrainReport> {
    let mut opt = Adam::new(cfg.lr);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut report = TrainReport::default();
    let mut best_val = f64::INFINITY;
    let mut best_snapshot = ps.snapshot();
    let mut since_best = 0usize;

    let _train_span = obs::span("gnn.train");
    let graph = sampler.graph();
    let (train_sub, val_batches) = {
        let _span = obs::span("graph.sample");
        let train_sub = sampler.sample(&seeds_of(train));
        let val_batches: Vec<(&[(Seed, L)], SampledSubgraph)> = val
            .chunks(cfg.batch_size)
            .collect::<Vec<_>>()
            .par_iter()
            .map(|&chunk| (chunk, sampler.sample(&seeds_of(chunk))))
            .collect();
        (train_sub, val_batches)
    };
    for epoch in 0..cfg.epochs {
        let epoch_t0 = obs::enabled().then(std::time::Instant::now);
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut batches: f64 = 0.0;
        let mut grad_norm_sum = 0.0;
        // One tape for every minibatch: reset() recycles its buffers
        // instead of reallocating them. It goes back to the pool before
        // validation checks tapes out.
        let steps = obs::span("gnn.train.steps");
        with_tape(|g, binding| -> GnnResult<()> {
            for chunk in order.chunks(cfg.batch_size) {
                let examples: Vec<(Seed, L)> = chunk.iter().map(|&i| train[i]).collect();
                let sub = train_sub.select(graph, chunk);
                g.reset();
                binding.reset();
                let l = loss(g, binding, ps, &sub, &examples);
                let lv = g.value(l).item();
                if !lv.is_finite() {
                    return Err(GnnError::NumericFailure { epoch });
                }
                g.backward(l)?;
                binding.accumulate_grads(g, ps);
                grad_norm_sum += clip_global_norm(ps, cfg.clip_norm);
                opt.step(ps);
                epoch_loss += lv;
                batches += 1.0;
            }
            Ok(())
        })?;
        drop(steps);
        let train_loss = epoch_loss / batches.max(1.0);
        report.train_losses.push(train_loss);

        // Validation (forward only): chunks are independent, so evaluate
        // them in parallel and reduce in chunk order (deterministic sum).
        let val_loss = if val.is_empty() {
            train_loss
        } else {
            let _span = obs::span("gnn.train.validate");
            let ps: &ParamSet = ps;
            let stats: Vec<(f64, f64)> = val_batches
                .par_iter()
                .map(|(chunk, sub)| {
                    with_tape(|g, binding| {
                        let l = loss(g, binding, ps, sub, chunk);
                        (g.value(l).item() * chunk.len() as f64, chunk.len() as f64)
                    })
                })
                .collect();
            let (total, n) = stats
                .iter()
                .fold((0.0, 0.0), |(t, n), &(dt, dn)| (t + dt, n + dn));
            total / n.max(1.0)
        };
        report.val_losses.push(val_loss);
        report.epochs_run = epoch + 1;
        if let Some(t0) = epoch_t0 {
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            obs::observe("gnn.epoch_ms", ms);
            obs::series_push("gnn.train_loss", train_loss);
            obs::series_push("gnn.val_loss", val_loss);
            obs::series_push("gnn.grad_norm", grad_norm_sum / batches.max(1.0));
            obs::series_push("gnn.rows_per_s", train.len() as f64 / (ms / 1e3).max(1e-9));
            obs::add("gnn.train.epochs", 1);
            obs::add("gnn.train.batches", batches as u64);
        }

        if val_loss < best_val - 1e-6 {
            best_val = val_loss;
            best_snapshot = ps.snapshot();
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= cfg.patience {
                break;
            }
        }
    }
    ps.restore(&best_snapshot);
    report.best_val_loss = best_val;
    if obs::enabled() {
        obs::add(
            "gnn.train.examples",
            (train.len() * report.epochs_run) as u64,
        );
    }
    Ok(report)
}

/// The seeds of a batch of labelled examples.
fn seeds_of<L: Copy>(examples: &[(Seed, L)]) -> Vec<Seed> {
    examples.iter().map(|&(s, _)| s).collect()
}

/// Train a k-way classifier over `(seed, class index)` pairs. `classes` is
/// the label vocabulary (indices into it appear in `train`/`val`).
pub fn train_multiclass_model(
    graph: &HeteroGraph,
    classes: Vec<String>,
    train: &[(Seed, usize)],
    val: &[(Seed, usize)],
    cfg: &TrainConfig,
) -> GnnResult<MulticlassModel> {
    if train.is_empty() {
        return Err(GnnError::DegenerateTrainingSet(
            "no training examples".into(),
        ));
    }
    let k = classes.len();
    if k < 2 {
        return Err(GnnError::DegenerateTrainingSet(format!(
            "multiclass needs ≥ 2 classes, got {k}"
        )));
    }
    if let Some(&(_, bad)) = train.iter().chain(val).find(|&&(_, c)| c >= k) {
        return Err(GnnError::DegenerateTrainingSet(format!(
            "class index {bad} out of range for {k} classes"
        )));
    }
    let sampler_cfg = cfg.sampler_config();
    let sampler = TemporalSampler::new(graph, sampler_cfg.clone());
    let (mut ps, gnn) = init_gnn(graph, cfg, train[0].0.node_type.0, k);
    let report = fit(
        &mut ps,
        &sampler,
        train,
        val,
        cfg,
        |g, binding, ps, sub, examples| {
            let logits = forward(g, binding, ps, &gnn, graph, sub);
            let mut one_hot = Tensor::zeros(examples.len(), k);
            for (r, &(_, c)) in examples.iter().enumerate() {
                one_hot.set(r, c, 1.0);
            }
            let target = g.constant(one_hot);
            loss::softmax_cross_entropy(g, logits, target)
        },
    )?;
    Ok(MulticlassModel {
        ps,
        gnn,
        classes,
        sampler_cfg,
        report,
    })
}

/// Train a node-level model.
///
/// `train` and `val` pair each [`Seed`] (entity + anchor time) with its
/// label. Returns the model with the best-validation-loss parameters
/// restored.
pub fn train_node_model(
    graph: &HeteroGraph,
    task: TaskKind,
    train: &[(Seed, f64)],
    val: &[(Seed, f64)],
    cfg: &TrainConfig,
) -> GnnResult<NodeModel> {
    if train.is_empty() {
        return Err(GnnError::DegenerateTrainingSet(
            "no training examples".into(),
        ));
    }
    if task == TaskKind::Binary {
        let pos = train.iter().filter(|&&(_, y)| y > 0.5).count();
        if pos == 0 || pos == train.len() {
            return Err(GnnError::DegenerateTrainingSet(format!(
                "binary task needs both classes; got {pos}/{} positives",
                train.len()
            )));
        }
    }
    // Label standardization for regression.
    let (label_mean, label_std) = match task {
        TaskKind::Binary => (0.0, 1.0),
        TaskKind::Regression => {
            let n = train.len() as f64;
            let mean = train.iter().map(|&(_, y)| y).sum::<f64>() / n;
            let var = train
                .iter()
                .map(|&(_, y)| (y - mean) * (y - mean))
                .sum::<f64>()
                / n;
            (mean, var.sqrt().max(1e-9))
        }
    };

    let sampler_cfg = cfg.sampler_config();
    let sampler = TemporalSampler::new(graph, sampler_cfg.clone());
    let (mut ps, gnn) = init_gnn(graph, cfg, train[0].0.node_type.0, 1);
    let report = fit(
        &mut ps,
        &sampler,
        train,
        val,
        cfg,
        |g, binding, ps, sub, examples| {
            let pred = forward(g, binding, ps, &gnn, graph, sub);
            let labels: Vec<f64> = examples
                .iter()
                .map(|&(_, y)| match task {
                    TaskKind::Binary => y,
                    TaskKind::Regression => (y - label_mean) / label_std,
                })
                .collect();
            let target = g.constant(Tensor::from_vec(labels.len(), 1, labels));
            match task {
                TaskKind::Binary => loss::bce_with_logits(g, pred, target),
                TaskKind::Regression => loss::huber(g, pred, target, 1.0),
            }
        },
    )?;
    Ok(NodeModel {
        ps,
        gnn,
        task,
        label_mean,
        label_std,
        sampler_cfg,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use relgraph_graph::{FeatureMatrix, HeteroGraphBuilder, NodeTypeId};
    use relgraph_metrics as metrics;

    /// Users whose label is determined *only* by the mean feature of their
    /// item neighbors — learnable by a 1-hop GNN, invisible to hop-0.
    fn neighbor_label_graph(n_users: usize, seed: u64) -> (HeteroGraph, Vec<(Seed, f64)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_items = n_users * 3;
        let mut b = HeteroGraphBuilder::new();
        let u = b.add_node_type("user", n_users);
        let i = b.add_node_type("item", n_items);
        let e = b.add_edge_type("owns", u, i);
        let mut item_feats = FeatureMatrix::zeros(n_items, 2);
        let mut labels = Vec::with_capacity(n_users);
        for user in 0..n_users {
            let mut total = 0.0;
            for k in 0..3 {
                let item = user * 3 + k;
                let x: f64 = rng.gen_range(-1.0..1.0);
                item_feats.row_mut(item)[0] = x as f32;
                item_feats.row_mut(item)[1] = 1.0;
                total += x;
                b.add_edge(e, user, item, 0);
            }
            labels.push(if total > 0.0 { 1.0 } else { 0.0 });
        }
        b.set_features(i, item_feats);
        b.set_features(u, FeatureMatrix::from_rows(n_users, 1, vec![1.0; n_users]));
        let g = b.finish().unwrap();
        let examples = labels
            .into_iter()
            .enumerate()
            .map(|(n, y)| {
                (
                    Seed {
                        node_type: NodeTypeId(0),
                        node: n,
                        time: 10,
                    },
                    y,
                )
            })
            .collect();
        (g, examples)
    }

    fn cfg() -> TrainConfig {
        TrainConfig {
            epochs: 40,
            batch_size: 32,
            lr: 0.02,
            fanouts: vec![5],
            hidden_dim: 16,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn learns_neighbor_determined_labels() {
        let (g, examples) = neighbor_label_graph(120, 1);
        let (train, test) = examples.split_at(90);
        let model = train_node_model(&g, TaskKind::Binary, train, &[], &cfg()).unwrap();
        let seeds: Vec<Seed> = test.iter().map(|&(s, _)| s).collect();
        let probs = model.predict(&g, &seeds);
        let labels: Vec<bool> = test.iter().map(|&(_, y)| y > 0.5).collect();
        let auc = metrics::auroc(&probs, &labels).unwrap();
        assert!(
            auc > 0.85,
            "1-hop GNN should learn neighbor labels, AUROC {auc}"
        );
        assert_eq!(model.task(), TaskKind::Binary);
        assert!(model.num_params() > 0);
        assert!(model.report.epochs_run > 0);
    }

    #[test]
    fn hop_zero_cannot_learn_neighbor_labels() {
        let (g, examples) = neighbor_label_graph(120, 2);
        let (train, test) = examples.split_at(90);
        let mut c = cfg();
        c.fanouts = vec![];
        let model = train_node_model(&g, TaskKind::Binary, train, &[], &c).unwrap();
        let seeds: Vec<Seed> = test.iter().map(|&(s, _)| s).collect();
        let probs = model.predict(&g, &seeds);
        let labels: Vec<bool> = test.iter().map(|&(_, y)| y > 0.5).collect();
        let auc = metrics::auroc(&probs, &labels).unwrap();
        assert!(auc < 0.7, "hop-0 model should be near chance, AUROC {auc}");
    }

    #[test]
    fn regression_recovers_neighbor_mean() {
        let (g, examples) = neighbor_label_graph(120, 3);
        // Regression target: 10 * label + 5 (checks de-standardization too).
        let reg: Vec<(Seed, f64)> = examples.iter().map(|&(s, y)| (s, 10.0 * y + 5.0)).collect();
        let (train, test) = reg.split_at(90);
        let model = train_node_model(&g, TaskKind::Regression, train, &[], &cfg()).unwrap();
        let seeds: Vec<Seed> = test.iter().map(|&(s, _)| s).collect();
        let preds = model.predict(&g, &seeds);
        let truth: Vec<f64> = test.iter().map(|&(_, y)| y).collect();
        let mae = metrics::mae(&preds, &truth);
        assert!(mae < 3.0, "regression MAE too high: {mae}");
        // Predictions must live on the original scale.
        let mean_pred = preds.iter().sum::<f64>() / preds.len() as f64;
        assert!(
            (mean_pred - 10.0).abs() < 4.0,
            "mean prediction {mean_pred} off scale"
        );
    }

    /// Users whose class (of 3) is the dominant one-hot among their item
    /// neighbors' features.
    fn multiclass_graph(n_users: usize, seed: u64) -> (HeteroGraph, Vec<(Seed, usize)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_items = n_users * 3;
        let mut b = relgraph_graph::HeteroGraphBuilder::new();
        let u = b.add_node_type("user", n_users);
        let i = b.add_node_type("item", n_items);
        let e = b.add_edge_type("owns", u, i);
        let mut feats = relgraph_graph::FeatureMatrix::zeros(n_items, 3);
        let mut labels = Vec::with_capacity(n_users);
        for user in 0..n_users {
            let mut counts = [0usize; 3];
            for k in 0..3 {
                let item = user * 3 + k;
                let class = rng.gen_range(0..3usize);
                feats.row_mut(item)[class] = 1.0;
                counts[class] += 1;
                b.add_edge(e, user, item, 0);
            }
            let majority = counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, c)| *c)
                .map(|(c, _)| c)
                .unwrap();
            labels.push(majority);
        }
        b.set_features(i, feats);
        b.set_features(
            u,
            relgraph_graph::FeatureMatrix::from_rows(n_users, 1, vec![1.0; n_users]),
        );
        let g = b.finish().unwrap();
        let examples: Vec<(Seed, usize)> = labels
            .into_iter()
            .enumerate()
            .map(|(n, c)| {
                (
                    Seed {
                        node_type: relgraph_graph::NodeTypeId(0),
                        node: n,
                        time: 10,
                    },
                    c,
                )
            })
            .collect();
        (g, examples)
    }

    #[test]
    fn multiclass_learns_neighbor_majority() {
        // 3 classes; the label is the dominant one-hot among a user's item
        // neighbors.
        let (g, examples) = multiclass_graph(120, 7);
        let (train, test) = examples.split_at(90);
        let classes = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let model = train_multiclass_model(&g, classes, train, &[], &cfg()).unwrap();
        let seeds: Vec<Seed> = test.iter().map(|&(s, _)| s).collect();
        let preds = model.predict(&g, &seeds);
        let truth: Vec<usize> = test.iter().map(|&(_, c)| c).collect();
        let acc = relgraph_metrics::multiclass_accuracy(&preds, &truth);
        assert!(acc > 0.7, "multiclass accuracy {acc}");
        // Probabilities are normalized.
        for p in model.predict_proba(&g, &seeds) {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert_eq!(model.classes().len(), 3);
    }

    /// One training run's exact numbers as `to_bits()`: the report's train
    /// losses, val losses and best val loss, then the predictions for the
    /// probe seeds.
    type Pinned = (&'static [u64], &'static [u64], u64, &'static [u64]);

    fn assert_pinned(what: &str, report: &TrainReport, predictions: &[f64], want: Pinned) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let (train, val) = (bits(&report.train_losses), bits(&report.val_losses));
        let (best, predictions) = (report.best_val_loss.to_bits(), bits(predictions));
        let got = (&train[..], &val[..], best, &predictions[..]);
        assert_eq!(got, want, "{what}");
    }

    #[rustfmt::skip]
    const BINARY: Pinned = (
        &[
            0x3fe559705b86ab98, 0x3fe2f21c6fd114e4, 0x3fe12314d63b9eb4, 0x3fd90ff55cd29063,
            0x3fdb0518495cb4af, 0x3fd8f926a7b04117,
        ],
        &[
            0x3fe3558ade2975eb, 0x3fe05ae2bf70851d, 0x3fdab73d7bc36810, 0x3fdb69dc1f69793b,
            0x3fced46735a737ba, 0x3fc35a06eca321ef,
        ],
        0x3fc35a06eca321ef,
        &[
            0x3f9e72b7dadec50a, 0x3feefa23dc5f248f, 0x3fee503881846a4d, 0x3fa82617ef12fec1,
            0x3fdeaee799e09a5b, 0x3fea03a15e37755e, 0x3fe4a2b63d654546, 0x3fb5b1431ba8763a,
        ],
    );

    #[rustfmt::skip]
    const REGRESSION: Pinned = (
        &[
            0x3fdd5966f1c5ac63, 0x3fd69eb08c948d08, 0x3fd0af8b1c882498, 0x3fc28809df7f4a70,
            0x3fc90c7dc151dec5, 0x3fcabce7120ab3c8,
        ],
        &[
            0x3fd815971128b5e7, 0x3fccd7af713232a5, 0x3fc719d8efdb94af, 0x3fc2bcbeca026492,
            0x3fbef11bc4affebb, 0x3fc6e2a50a37095b,
        ],
        0x3fbef11bc4affebb,
        &[
            0x400b6df2cbb5baf8, 0x403038134255434c, 0x402ddeea1917b111, 0x401145b17ff65419,
            0x402387e5e0553568, 0x402913c0c76dc886, 0x4026204e161fbac9, 0x4016363c0dca2edf,
        ],
    );

    /// Predictions are `predict_proba`, three classes per probe seed.
    #[rustfmt::skip]
    const MULTICLASS: Pinned = (
        &[
            0x3ff1f4f6f7219c99, 0x3fee032a2dcbef05, 0x3fe9439d876beebf, 0x3fe6f265fef9345b,
            0x3fdfe3e6f5cc99a5, 0x3fd8fa8ee66d057c,
        ],
        &[
            0x3ff1685fd9e08a08, 0x3fef036bc3836fb6, 0x3feb80f180c0bd60, 0x3fe8cf0153830d5f,
            0x3fe407cbc5ee7e25, 0x3fe5697f77b52375,
        ],
        0x3fe407cbc5ee7e25,
        &[
            0x3fd6361648b2da8a, 0x3fc1d4d2719f2194, 0x3fe06fc03f3eca55, 0x3fb3edc2398cb42f,
            0x3fe68a7be2e5cec7, 0x3fcbdf2f57a26ad5, 0x3fcb0a9ef12636aa, 0x3fc80c8be5ce0f10,
            0x3fe33a354a42ee91, 0x3fd443dee85824d2, 0x3fa3f03c8189a7d6, 0x3fe49f0cc3bb5319,
            0x3fb3edc2398cb42f, 0x3fe68a7be2e5cec7, 0x3fcbdf2f57a26ad5, 0x3fd443dee85824d2,
            0x3fa3f03c8189a7d6, 0x3fe49f0cc3bb5319, 0x3fd443dee85824d2, 0x3fa3f03c8189a7d6,
            0x3fe49f0cc3bb5319, 0x3fcb0a9ef12636aa, 0x3fc80c8be5ce0f10, 0x3fe33a354a42ee91,
        ],
    );

    /// The training trajectory and predictions of every task kind, bit for
    /// bit: several minibatches with a short last one, a validation set
    /// that spans several chunks, and early stopping's restore. A refactor
    /// of the epoch loop or the batched forward must keep these numbers.
    #[test]
    fn training_is_pinned_bit_for_bit() {
        let c = TrainConfig {
            epochs: 6,
            batch_size: 8,
            patience: 2,
            ..cfg()
        };
        let (g, examples) = neighbor_label_graph(70, 11);
        let (train, rest) = examples.split_at(42);
        let (val, probe) = rest.split_at(20);
        let probe: Vec<Seed> = probe.iter().map(|&(s, _)| s).collect();
        let m = train_node_model(&g, TaskKind::Binary, train, val, &c).unwrap();
        assert_pinned("binary", &m.report, &m.predict(&g, &probe), BINARY);

        let scaled = |xs: &[(Seed, f64)]| -> Vec<(Seed, f64)> {
            xs.iter().map(|&(s, y)| (s, 10.0 * y + 5.0)).collect()
        };
        let m =
            train_node_model(&g, TaskKind::Regression, &scaled(train), &scaled(val), &c).unwrap();
        assert_pinned("regression", &m.report, &m.predict(&g, &probe), REGRESSION);

        let (g, examples) = multiclass_graph(70, 12);
        let (train, rest) = examples.split_at(42);
        let (val, probe) = rest.split_at(20);
        let probe: Vec<Seed> = probe.iter().map(|&(s, _)| s).collect();
        let classes = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let m = train_multiclass_model(&g, classes, train, val, &c).unwrap();
        let proba = m.predict_proba(&g, &probe).concat();
        assert_pinned("multiclass", &m.report, &proba, MULTICLASS);
    }

    /// Every model in the process checks tapes out of one pool. Two models
    /// of different widths, predicting from two threads in turn, must each
    /// keep predicting the bits of their first call.
    #[test]
    fn shared_tapes_keep_each_models_predictions() {
        let (g, examples) = neighbor_label_graph(600, 13);
        let seeds: Vec<Seed> = examples.iter().map(|&(s, _)| s).collect();
        let bits = |m: &NodeModel| -> Vec<u64> {
            m.predict(&g, &seeds).iter().map(|p| p.to_bits()).collect()
        };
        let models: Vec<NodeModel> = [8, 24]
            .into_iter()
            .map(|hidden_dim| {
                let c = TrainConfig {
                    epochs: 3,
                    hidden_dim,
                    ..cfg()
                };
                train_node_model(&g, TaskKind::Binary, &examples[..90], &[], &c).unwrap()
            })
            .collect();
        let first: Vec<Vec<u64>> = models.iter().map(bits).collect();
        std::thread::scope(|s| {
            for t in 0..2 {
                let (models, first, bits) = (&models, &first, &bits);
                s.spawn(move || {
                    for i in 0..6 {
                        let m = (t + i) % 2;
                        assert_eq!(bits(&models[m]), first[m], "model {m}, call {i}");
                    }
                });
            }
        });
    }

    #[test]
    fn multiclass_rejects_bad_inputs() {
        let (g, examples) = neighbor_label_graph(20, 9);
        let pairs: Vec<(Seed, usize)> = examples.iter().map(|&(s, _)| (s, 0)).collect();
        assert!(train_multiclass_model(&g, vec!["a".into()], &pairs, &[], &cfg()).is_err());
        assert!(
            train_multiclass_model(&g, vec!["a".into(), "b".into()], &[], &[], &cfg()).is_err()
        );
        let bad = vec![(pairs[0].0, 7usize)];
        assert!(
            train_multiclass_model(&g, vec!["a".into(), "b".into()], &bad, &[], &cfg()).is_err()
        );
    }

    #[test]
    fn degenerate_sets_rejected() {
        let (g, examples) = neighbor_label_graph(20, 4);
        assert!(matches!(
            train_node_model(&g, TaskKind::Binary, &[], &[], &cfg()),
            Err(GnnError::DegenerateTrainingSet(_))
        ));
        let all_pos: Vec<(Seed, f64)> = examples.iter().map(|&(s, _)| (s, 1.0)).collect();
        assert!(matches!(
            train_node_model(&g, TaskKind::Binary, &all_pos, &[], &cfg()),
            Err(GnnError::DegenerateTrainingSet(_))
        ));
    }

    #[test]
    fn early_stopping_uses_validation() {
        let (g, examples) = neighbor_label_graph(100, 5);
        let (train, val) = examples.split_at(70);
        let mut c = cfg();
        c.epochs = 50;
        c.patience = 3;
        let model = train_node_model(&g, TaskKind::Binary, train, val, &c).unwrap();
        assert!(model.report.val_losses.len() == model.report.epochs_run);
        assert!(model.report.best_val_loss.is_finite());
    }
}
