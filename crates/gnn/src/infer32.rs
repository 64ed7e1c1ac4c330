//! Single-precision per-node inference: the serving-time `f32` twin of
//! [`crate::infer`].
//!
//! A fitted [`NodeModel`] trains and stays in `f64`; this module
//! down-converts its weights **once** into an [`InferModel32`] — every
//! linear layer narrowed to `f32` and prepacked for the `f32` packed-B
//! microkernel — and then evaluates the same deduplicated per-node layer
//! recursion as [`predict_nodes`](crate::infer::predict_nodes), tape-free:
//! no autodiff graph, no per-node tensor allocation, just
//! [`relgraph_tensor::mm_packed_f32`] over prepacked weights. The walk
//! (discovery order, kept-neighbor lists, level-0 feature rows before
//! narrowing) is byte-for-byte the `f64` walk — only arithmetic precision
//! differs, which is what the DESIGN.md §15 error bound quantifies.
//!
//! Within one precision mode, determinism is preserved: each embedding is
//! a pure function of `(type, node, level, anchor)` with a fixed `f32`
//! accumulation order, so cache-warm and cache-cold runs are bit-identical
//! — including under quantized stores, because every *fresh* embedding is
//! routed through [`EmbeddingStore32::canonicalize`] before anything
//! consumes it (a quantizing store round-trips the value through its codec
//! there, so the cold path computes with exactly what a warm hit would
//! return).

use std::collections::{HashMap, HashSet};

use rayon::prelude::*;
use relgraph_graph::{HeteroGraph, NodeTypeId, SamplerConfig};
use relgraph_nn::{Linear, Mlp, ParamSet};
use relgraph_obs as obs;
use relgraph_tensor::{apply_act_f32, mm_packed_f32, pack_b_f32, ActKind};

use crate::infer::{child_lists, feature_row};
use crate::sage::{Aggregation, SageLayer};
use crate::train::{NodeModel, TaskKind};

/// Seeds per chunk in the parallel evaluation fan-out (mirrors the `f64`
/// path's chunking so thread counts never affect grouping).
const EVAL_CHUNK: usize = 64;

/// Numeric mode of the serving inference path. Training is always `f64`;
/// this selects how *inference* computes and how the embedding cache
/// stores hop-k embeddings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Double precision everywhere — bit-identical to the training-time
    /// prediction path. The default.
    #[default]
    F64,
    /// Weights down-converted once; per-node inference in `f32` with the
    /// wide SIMD kernel. Embedding cache stores `f32` rows.
    F32,
    /// `f32` compute plus an 8-bit linearly-quantized embedding cache
    /// (per-row scale/min), holding ~4–8× more entities per byte.
    Q8,
}

impl Precision {
    /// Stable one-byte tag for the model-snapshot header.
    pub fn tag(self) -> u8 {
        match self {
            Precision::F64 => 0,
            Precision::F32 => 1,
            Precision::Q8 => 2,
        }
    }

    /// Inverse of [`Precision::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Precision::F64),
            1 => Some(Precision::F32),
            2 => Some(Precision::Q8),
            _ => None,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::Q8 => "q8",
        })
    }
}

impl std::str::FromStr for Precision {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f64" => Ok(Precision::F64),
            "f32" => Ok(Precision::F32),
            "q8" => Ok(Precision::Q8),
            other => Err(format!(
                "unknown precision `{other}` (expected f64, f32 or q8)"
            )),
        }
    }
}

/// One dense layer narrowed to `f32`, weights prepacked for the packed-B
/// microkernel at conversion time so the per-request hot path never packs.
struct LinearF32 {
    packed_w: Vec<f32>,
    bias: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

impl LinearF32 {
    fn from_linear(lin: &Linear, ps: &ParamSet) -> Self {
        let w = lin.weight(ps);
        let w32: Vec<f32> = w.data().iter().map(|&x| x as f32).collect();
        let bias: Vec<f32> = lin.bias(ps).data().iter().map(|&x| x as f32).collect();
        LinearF32 {
            packed_w: pack_b_f32(&w32, lin.in_dim(), lin.out_dim()),
            bias,
            in_dim: lin.in_dim(),
            out_dim: lin.out_dim(),
        }
    }

    /// `out = act(a · W + b)` for `rows` input rows.
    fn forward(&self, a: &[f32], rows: usize, out: &mut [f32], act: ActKind) {
        debug_assert_eq!(a.len(), rows * self.in_dim);
        debug_assert_eq!(out.len(), rows * self.out_dim);
        mm_packed_f32(
            a,
            &self.packed_w,
            out,
            rows,
            self.in_dim,
            self.out_dim,
            Some(&self.bias),
            act,
        );
    }
}

/// One SAGE layer narrowed to `f32`.
struct SageLayerF32 {
    self_lin: Vec<LinearF32>,
    edge_lin: Vec<LinearF32>,
    activation: ActKind,
    aggregation: Aggregation,
    out_dim: usize,
}

impl SageLayerF32 {
    fn from_layer(layer: &SageLayer, ps: &ParamSet) -> Self {
        SageLayerF32 {
            self_lin: layer
                .self_lins()
                .iter()
                .map(|l| LinearF32::from_linear(l, ps))
                .collect(),
            edge_lin: layer
                .edge_lins()
                .iter()
                .map(|l| LinearF32::from_linear(l, ps))
                .collect(),
            activation: layer.activation().kind(),
            aggregation: layer.aggregation(),
            out_dim: layer.out_dim(),
        }
    }
}

/// A fitted model down-converted once for `f32` serving: prepacked `f32`
/// layers plus the walk parameters (`SamplerConfig`, task, label scale)
/// copied out of the `f64` [`NodeModel`]. Build with
/// [`InferModel32::from_model`], evaluate with [`predict_nodes_f32`].
pub struct InferModel32 {
    layers: Vec<SageLayerF32>,
    head: Vec<LinearF32>,
    head_act: ActKind,
    seed_type: usize,
    sampler_cfg: SamplerConfig,
    task: TaskKind,
    label_mean: f64,
    label_std: f64,
}

impl InferModel32 {
    /// Down-convert a fitted `f64` model (one-time cost: one pass over
    /// every weight, narrowing and prepacking).
    pub fn from_model(model: &NodeModel) -> Self {
        let ps = model.ps();
        let gnn = model.gnn();
        let head: &Mlp = gnn.head();
        let (label_mean, label_std) = model.label_scale();
        InferModel32 {
            layers: gnn
                .layers()
                .iter()
                .map(|l| SageLayerF32::from_layer(l, ps))
                .collect(),
            head: head
                .layers()
                .iter()
                .map(|l| LinearF32::from_linear(l, ps))
                .collect(),
            head_act: head.activation().kind(),
            seed_type: gnn.seed_type(),
            sampler_cfg: model.sampler_cfg().clone(),
            task: model.task(),
            label_mean,
            label_std,
        }
    }

    /// Number of message-passing layers (the hop count `k`).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The entity node type the model predicts for.
    pub fn seed_type(&self) -> usize {
        self.seed_type
    }
}

/// An external cache of `f32` per-node embeddings keyed `(node type, node,
/// level)` — the single-precision twin of
/// [`EmbeddingStore`](crate::infer::EmbeddingStore), with one addition:
/// [`EmbeddingStore32::canonicalize`] lets a lossy (quantizing) store
/// project a fresh embedding onto its storable grid *before* the recursion
/// consumes it, which is what keeps warm and cold runs bit-identical under
/// lossy storage. The contract is `canonicalize(v) == get(..)` after
/// `put(.., v)` (ignoring eviction).
pub trait EmbeddingStore32: Send {
    /// Cached embedding, if present (may update recency bookkeeping).
    fn get(&mut self, ty: usize, node: usize, level: usize) -> Option<Vec<f32>>;
    /// Offer a freshly computed embedding to the cache.
    fn put(&mut self, ty: usize, node: usize, level: usize, emb: Vec<f32>);
    /// Project a fresh embedding onto exactly what a warm [`Self::get`]
    /// would return after [`Self::put`] of this value. Lossless stores
    /// return the input unchanged (the default).
    fn canonicalize(&self, emb: Vec<f32>) -> Vec<f32> {
        emb
    }
}

/// A store that caches nothing and canonicalizes to identity — the cold
/// reference for the `f32` equivalence tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoCache32;

impl EmbeddingStore32 for NoCache32 {
    fn get(&mut self, _ty: usize, _node: usize, _level: usize) -> Option<Vec<f32>> {
        None
    }
    fn put(&mut self, _ty: usize, _node: usize, _level: usize, _emb: Vec<f32>) {}
}

type Key = (usize, usize, usize);

/// Predict for `nodes` in `f32`, deduplicating shared neighborhoods across
/// the batch and reusing any embeddings `store` already holds — the
/// single-precision twin of [`predict_nodes`](crate::infer::predict_nodes).
/// Returns predictions in input order on the same scale (widened to `f64`
/// only at the head's final sigmoid / label rescale).
///
/// # Panics
/// Panics if `node_type` differs from the type the model was trained on,
/// or if a node index is out of range for the graph.
pub fn predict_nodes_f32(
    model: &InferModel32,
    graph: &HeteroGraph,
    node_type: NodeTypeId,
    nodes: &[usize],
    anchor: i64,
    store: &mut dyn EmbeddingStore32,
) -> Vec<f64> {
    assert_eq!(
        node_type.0, model.seed_type,
        "seed node type differs from the model's training entity type"
    );
    let t0 = obs::enabled().then(std::time::Instant::now);
    let k = model.num_layers();
    let cfg = &model.sampler_cfg;

    // --- Discovery (top-down): identical walk to the f64 path.
    let mut levels: Vec<Vec<(usize, usize)>> = vec![Vec::new(); k + 1];
    let mut needed: HashSet<Key> = HashSet::new();
    let mut memo: HashMap<Key, Vec<f32>> = HashMap::new();
    let mut clists: HashMap<Key, Vec<(usize, Vec<usize>)>> = HashMap::new();
    let mut store_hits = 0u64;
    for &v in nodes {
        request32(
            node_type.0,
            v,
            k,
            &mut levels,
            &mut needed,
            &mut memo,
            store,
            &mut store_hits,
        );
    }
    for level in (1..=k).rev() {
        let items = std::mem::take(&mut levels[level]);
        let fanout = cfg.fanouts[k - level];
        for &(ty, node) in &items {
            let lists = child_lists(graph, cfg, ty, node, fanout, anchor);
            request32(
                ty,
                node,
                level - 1,
                &mut levels,
                &mut needed,
                &mut memo,
                store,
                &mut store_hits,
            );
            for (et, nbrs) in &lists {
                let dst = graph.edge_type(relgraph_graph::EdgeTypeId(*et)).dst.0;
                for &nbr in nbrs {
                    request32(
                        dst,
                        nbr,
                        level - 1,
                        &mut levels,
                        &mut needed,
                        &mut memo,
                        store,
                        &mut store_hits,
                    );
                }
            }
            clists.insert((ty, node, level), lists);
        }
        levels[level] = items;
    }

    // --- Evaluation (bottom-up), tape-free. Fresh values are offered to
    // the store *unprojected* (so a quantizing store encodes the original)
    // but memoized *canonicalized* (so downstream levels consume exactly
    // what a warm hit would have returned).
    let mut fresh: HashMap<Key, Vec<f32>> = HashMap::new();
    // Chunked fan-out, as in `infer`: chunks are independent, so serial
    // and parallel evaluation are bit-identical, and a single chunk (small
    // warm micro-batches) runs inline on the caller inside rayon.
    fn eval_chunked<T: Copy + Sync, F: Fn(&[T]) -> Vec<Vec<f32>> + Sync>(
        items: &[T],
        f: F,
    ) -> Vec<Vec<Vec<f32>>> {
        let chunks: Vec<&[T]> = items.chunks(EVAL_CHUNK).collect();
        chunks.par_iter().map(|chunk| f(chunk)).collect()
    }
    if !levels[0].is_empty() {
        let rows = eval_chunked(&levels[0], |chunk| {
            chunk
                .iter()
                .map(|&(ty, node)| {
                    feature_row(graph, cfg, ty, node, anchor)
                        .into_iter()
                        .map(|x| x as f32)
                        .collect()
                })
                .collect()
        });
        for (&(ty, node), row) in levels[0].iter().zip(rows.into_iter().flatten()) {
            memo.insert((ty, node, 0), store.canonicalize(row.clone()));
            fresh.insert((ty, node, 0), row);
        }
    }
    for (level, level_nodes) in levels.iter().enumerate().skip(1) {
        if level_nodes.is_empty() {
            continue;
        }
        let layer = &model.layers[level - 1];
        let embs = eval_chunked(level_nodes, |chunk| {
            chunk
                .iter()
                .map(|&(ty, node)| eval_node32(graph, layer, &memo, &clists, ty, node, level))
                .collect()
        });
        for (&(ty, node), emb) in level_nodes.iter().zip(embs.into_iter().flatten()) {
            memo.insert((ty, node, level), store.canonicalize(emb.clone()));
            fresh.insert((ty, node, level), emb);
        }
    }

    // Offer every fresh embedding to the store, bottom level first and in
    // worklist order (deterministic LRU recency, matching the f64 path).
    for (level, level_nodes) in levels.iter().enumerate() {
        for &(ty, node) in level_nodes {
            store.put(
                ty,
                node,
                level,
                fresh.remove(&(ty, node, level)).expect("fresh embedding"),
            );
        }
    }

    // --- Head: per-seed MLP over the top-level embedding, widening to f64
    // only for the final sigmoid / label rescale (matching the f64 head's
    // output transform exactly in structure). Per-chunk results are
    // independent, so the serial and parallel orders produce identical bits.
    let head_chunk = |chunk: &[usize]| -> Vec<f64> {
        let mut buf_in: Vec<f32> = Vec::new();
        let mut buf_out: Vec<f32> = Vec::new();
        chunk
            .iter()
            .map(|&v| {
                let emb = &memo[&(node_type.0, v, k)];
                buf_in.clear();
                buf_in.extend_from_slice(emb);
                let last = model.head.len() - 1;
                for (i, lin) in model.head.iter().enumerate() {
                    let act = if i < last {
                        model.head_act
                    } else {
                        ActKind::Identity
                    };
                    buf_out.clear();
                    buf_out.resize(lin.out_dim, 0.0);
                    lin.forward(&buf_in, 1, &mut buf_out, act);
                    std::mem::swap(&mut buf_in, &mut buf_out);
                }
                let y = buf_in[0] as f64;
                match model.task {
                    TaskKind::Binary => 1.0 / (1.0 + (-y).exp()),
                    TaskKind::Regression => y * model.label_std + model.label_mean,
                }
            })
            .collect()
    };
    let chunks: Vec<&[usize]> = nodes.chunks(EVAL_CHUNK).collect();
    let preds: Vec<Vec<f64>> = chunks.par_iter().map(|chunk| head_chunk(chunk)).collect();

    if let Some(t0) = t0 {
        obs::add("gnn.infer32.seeds", nodes.len() as u64);
        obs::add("gnn.infer32.evals", needed.len() as u64);
        obs::add("gnn.infer32.store_hits", store_hits);
        obs::record_ns("gnn.infer32", t0.elapsed().as_nanos() as u64);
    }
    preds.into_iter().flatten().collect()
}

/// Register `(ty, node, level)` as needed unless it is already memoized,
/// queued, or available from the store.
#[allow(clippy::too_many_arguments)]
fn request32(
    ty: usize,
    node: usize,
    level: usize,
    levels: &mut [Vec<(usize, usize)>],
    needed: &mut HashSet<Key>,
    memo: &mut HashMap<Key, Vec<f32>>,
    store: &mut dyn EmbeddingStore32,
    store_hits: &mut u64,
) {
    let key = (ty, node, level);
    if memo.contains_key(&key) || needed.contains(&key) {
        return;
    }
    if let Some(emb) = store.get(ty, node, level) {
        *store_hits += 1;
        memo.insert(key, emb);
        return;
    }
    needed.insert(key);
    levels[level].push((ty, node));
}

/// One SAGE layer applied to one node in `f32`: fused self transform, plus
/// one message matmul + column aggregation per edge type with kept
/// neighbors, in ascending edge-type order — structurally the same
/// accumulation the `f64` tape performs, tape-free.
fn eval_node32(
    graph: &HeteroGraph,
    layer: &SageLayerF32,
    memo: &HashMap<Key, Vec<f32>>,
    clists: &HashMap<Key, Vec<(usize, Vec<usize>)>>,
    ty: usize,
    node: usize,
    level: usize,
) -> Vec<f32> {
    let lists = &clists[&(ty, node, level)];
    let has_children = lists.iter().any(|(_, nbrs)| !nbrs.is_empty());
    let x_self = &memo[&(ty, node, level - 1)];
    // Nodes with no kept neighbors fuse the activation into the self
    // transform (exactly like the f64 path).
    let act = if has_children {
        ActKind::Identity
    } else {
        layer.activation
    };
    let d_out = layer.out_dim;
    let mut acc = vec![0.0f32; d_out];
    layer.self_lin[ty].forward(x_self, 1, &mut acc, act);
    let mut data: Vec<f32> = Vec::new();
    let mut msg: Vec<f32> = Vec::new();
    for (et, nbrs) in lists {
        if nbrs.is_empty() {
            continue;
        }
        let dst = graph.edge_type(relgraph_graph::EdgeTypeId(*et)).dst.0;
        let d = memo[&(dst, nbrs[0], level - 1)].len();
        data.clear();
        data.reserve(nbrs.len() * d);
        for &nbr in nbrs {
            data.extend_from_slice(&memo[&(dst, nbr, level - 1)]);
        }
        msg.clear();
        msg.resize(nbrs.len() * d_out, 0.0);
        layer.edge_lin[*et].forward(&data, nbrs.len(), &mut msg, ActKind::Identity);
        // Single-segment aggregation over the message rows, ascending
        // neighbor order (the tape's segment ops accumulate the same way).
        match layer.aggregation {
            Aggregation::Mean => {
                let inv = 1.0f32 / nbrs.len() as f32;
                for (j, a) in acc.iter_mut().enumerate() {
                    let mut s = 0.0f32;
                    for r in 0..nbrs.len() {
                        s += msg[r * d_out + j];
                    }
                    *a += s * inv;
                }
            }
            Aggregation::Sum => {
                for (j, a) in acc.iter_mut().enumerate() {
                    let mut s = 0.0f32;
                    for r in 0..nbrs.len() {
                        s += msg[r * d_out + j];
                    }
                    *a += s;
                }
            }
            Aggregation::Max => {
                for (j, a) in acc.iter_mut().enumerate() {
                    let mut s = f32::NEG_INFINITY;
                    for r in 0..nbrs.len() {
                        s = s.max(msg[r * d_out + j]);
                    }
                    *a += s;
                }
            }
        }
    }
    if has_children {
        for a in acc.iter_mut() {
            *a = apply_act_f32(layer.activation, *a);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{predict_nodes, NoCache};
    use crate::train::{train_node_model, TrainConfig};
    use relgraph_graph::{FeatureMatrix, HeteroGraphBuilder, Seed};

    const SECONDS_PER_DAY: i64 = 86_400;

    fn tiny_graph() -> (HeteroGraph, Vec<(Seed, f64)>) {
        let n_users = 24;
        let n_items = 8;
        let mut b = HeteroGraphBuilder::new();
        let u = b.add_node_type("user", n_users);
        let i = b.add_node_type("item", n_items);
        let owns = b.add_edge_type("owns", u, i);
        let owned_by = b.add_edge_type("owned_by", i, u);
        let mut item_feats = FeatureMatrix::zeros(n_items, 2);
        for item in 0..n_items {
            item_feats.row_mut(item)[0] = (item as f32 * 0.7).sin();
            item_feats.row_mut(item)[1] = 1.0;
        }
        let mut labels = Vec::with_capacity(n_users);
        for user in 0..n_users {
            let mut total = 0.0;
            for k in 0..3 {
                let item = (user + k * 5) % n_items;
                total += item_feats.row(item)[0] as f64;
                let t = (k as i64 + 1) * SECONDS_PER_DAY;
                b.add_edge(owns, user, item, t);
                b.add_edge(owned_by, item, user, t);
            }
            labels.push(if total > 0.0 { 1.0 } else { 0.0 });
        }
        b.set_features(i, item_feats);
        b.set_features(u, FeatureMatrix::from_rows(n_users, 1, vec![1.0; n_users]));
        let g = b.finish().unwrap();
        let anchor = 50 * SECONDS_PER_DAY;
        let examples = labels
            .into_iter()
            .enumerate()
            .map(|(n, y)| {
                (
                    Seed {
                        node_type: NodeTypeId(0),
                        node: n,
                        time: anchor,
                    },
                    y,
                )
            })
            .collect();
        (g, examples)
    }

    #[test]
    fn f32_predictions_track_f64_within_tolerance() {
        let (g, examples) = tiny_graph();
        let cfg = TrainConfig {
            epochs: 4,
            fanouts: vec![3, 3],
            hidden_dim: 8,
            seed: 7,
            ..Default::default()
        };
        let model = train_node_model(&g, TaskKind::Binary, &examples, &[], &cfg).unwrap();
        let nodes: Vec<usize> = examples.iter().map(|&(s, _)| s.node).collect();
        let anchor = examples[0].0.time;
        let reference = predict_nodes(&model, &g, NodeTypeId(0), &nodes, anchor, &mut NoCache);
        let m32 = InferModel32::from_model(&model);
        let got = predict_nodes_f32(&m32, &g, NodeTypeId(0), &nodes, anchor, &mut NoCache32);
        assert_eq!(got.len(), reference.len());
        for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
            assert!(
                (a - b).abs() < 1e-3,
                "seed {i}: f32 {a} vs f64 {b} diverged past the §15 tolerance"
            );
        }
    }

    #[test]
    fn f32_warm_store_is_bit_identical_to_cold() {
        #[derive(Default)]
        struct MapStore(HashMap<Key, Vec<f32>>);
        impl EmbeddingStore32 for MapStore {
            fn get(&mut self, ty: usize, node: usize, level: usize) -> Option<Vec<f32>> {
                self.0.get(&(ty, node, level)).cloned()
            }
            fn put(&mut self, ty: usize, node: usize, level: usize, emb: Vec<f32>) {
                self.0.insert((ty, node, level), emb);
            }
        }
        let (g, examples) = tiny_graph();
        let cfg = TrainConfig {
            epochs: 3,
            fanouts: vec![3, 3],
            hidden_dim: 8,
            seed: 9,
            ..Default::default()
        };
        let model = train_node_model(&g, TaskKind::Binary, &examples, &[], &cfg).unwrap();
        let m32 = InferModel32::from_model(&model);
        let nodes: Vec<usize> = examples.iter().map(|&(s, _)| s.node).collect();
        let anchor = examples[0].0.time;
        let mut store = MapStore::default();
        let cold = predict_nodes_f32(&m32, &g, NodeTypeId(0), &nodes, anchor, &mut store);
        assert!(!store.0.is_empty());
        let warm = predict_nodes_f32(&m32, &g, NodeTypeId(0), &nodes, anchor, &mut store);
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.to_bits(), b.to_bits(), "f32 warm diverged from cold");
        }
    }

    #[test]
    fn precision_parses_and_round_trips_tags() {
        for p in [Precision::F64, Precision::F32, Precision::Q8] {
            assert_eq!(p.to_string().parse::<Precision>().unwrap(), p);
            assert_eq!(Precision::from_tag(p.tag()), Some(p));
        }
        assert!("f16".parse::<Precision>().is_err());
        assert_eq!(Precision::from_tag(9), None);
    }
}
