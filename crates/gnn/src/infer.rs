//! Per-node batch inference with cross-seed neighborhood deduplication —
//! one walk, written once, for every serving precision.
//!
//! [`NodeModel::predict`](crate::NodeModel::predict) extracts one disjoint
//! subgraph per seed, so two seeds sharing most of their neighborhood pay
//! for it twice. This module evaluates the layer recursion *per node of the
//! full graph* instead: the hop-ℓ embedding of a node is a pure function of
//! `(node type, node, level, anchor)` — its inputs are the most recent
//! `fanouts[k-ℓ]` anchor-visible neighbors per edge type (the exact
//! recency rule the temporal sampler applies when it expands that node) —
//! so a node reached from many seeds is computed **once** per batch and its
//! embedding is shared. The same purity is what makes embeddings safe to
//! cache across batches: an [`EmbeddingStore`] (e.g. the serving engine's
//! LRU) short-circuits recomputation without ever changing a value, so
//! cache-warm and cache-cold runs are bit-identical by construction.
//!
//! Nothing in that contract depends on the element type, so the walk
//! ([`infer_nodes`]: discovery, in-batch dedup, chunked fan-out,
//! memoisation, store offers, head) is generic over an [`InferModel`] —
//! the small view that says how one dense layer is applied to a row block.
//! [`NodeModel`] is the `f64` view (trained weights borrowed, multiplied
//! through the dispatch the autodiff tape calls, with no tape);
//! [`InferModel32`] is the `f32` view over prepacked narrowed weights.
//! Lossy stores stay deterministic because every *fresh* embedding is
//! memoised through [`EmbeddingStore::canonicalize`] (what a warm hit
//! would return) while the store is offered the raw value.
//!
//! Per-node evaluation agrees with the per-seed batched path up to kernel
//! dispatch: both accumulate in the same per-element order, but tensor
//! *shapes* differ (single-row matmuls here vs stacked batches there), and
//! the matmul kernel is chosen by shape — so `f64` predictions match
//! `NodeModel::predict` to ≤ 1e-9, not necessarily to the bit. For
//! non-uniform fanout schedules the per-node rule evaluates a node with the
//! fanout of its *level*, whereas a sampled subgraph reuses the edge list
//! from the hop at which the node was first reached; with the default
//! uniform fanouts the two coincide.

use std::collections::{HashMap, HashSet};

use rayon::prelude::*;
use relgraph_graph::sampler::{kept_neighbors, windowed_degrees};
use relgraph_graph::{HeteroGraph, NodeTypeId, SamplerConfig};
use relgraph_nn::Linear;
use relgraph_obs as obs;
use relgraph_tensor::{ActKind, Tensor};

use crate::batch::write_input_row;
use crate::model::HeteroGnn;
use crate::precision::InferModel32;
use crate::sage::Aggregation;
use crate::train::{NodeModel, TaskKind};

/// Nodes per chunk in the parallel evaluation fan-out. Chunks are
/// independent and merge in worklist order, so thread count never changes
/// a value.
const EVAL_CHUNK: usize = 64;

/// The scalar the walk computes in: `f64` or `f32` — the element type of
/// the tensor crate's packed-B kernel.
pub use relgraph_tensor::Element;

/// An external cache of per-node embeddings keyed `(node type, node,
/// level)`. All entries are implicitly relative to one anchor time — the
/// owner must flush (or key) the store when the anchor changes, and must
/// evict entries whose ℓ-hop neighborhood was touched by an ingest delta.
///
/// `Send` is part of the contract: stores are owned by per-shard serving
/// worker threads, so an implementation must be movable across threads
/// (it is never *shared* — each shard owns its slice exclusively).
pub trait EmbeddingStore<E = f64>: Send {
    /// Cached embedding, if present (may update recency bookkeeping).
    fn get(&mut self, ty: usize, node: usize, level: usize) -> Option<Vec<E>>;
    /// Offer a freshly computed embedding to the cache.
    fn put(&mut self, ty: usize, node: usize, level: usize, emb: Vec<E>);
    /// Project a fresh embedding onto exactly what a warm [`Self::get`]
    /// would return after [`Self::put`] of this value (ignoring eviction).
    /// Lossless stores return the input unchanged (the default); a lossy
    /// (quantizing) store round-trips it through its codec, which is what
    /// keeps warm and cold runs bit-identical under lossy storage.
    fn canonicalize(&self, emb: Vec<E>) -> Vec<E> {
        emb
    }
}

/// A store that caches nothing: every batch recomputes its full (deduped)
/// recursion. The cold-path reference in equivalence tests, in any
/// precision.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoCache;

impl<E> EmbeddingStore<E> for NoCache {
    fn get(&mut self, _ty: usize, _node: usize, _level: usize) -> Option<Vec<E>> {
        None
    }
    fn put(&mut self, _ty: usize, _node: usize, _level: usize, _emb: Vec<E>) {}
}

/// The precision-independent half of a fitted model: its architecture and
/// the walk parameters. Every view of one model shares it.
pub struct ModelSpec<'a> {
    /// Layer stack and head (dense layers are handles, not weights).
    pub gnn: &'a HeteroGnn,
    /// Sampler configuration the model was trained under.
    pub sampler_cfg: &'a SamplerConfig,
    /// The prediction task (selects the output transform).
    pub task: TaskKind,
    /// Regression label de-standardization `(mean, std)`.
    pub label_scale: (f64, f64),
}

/// A fitted model as the walk sees it in one precision: the shared
/// [`ModelSpec`] plus how one dense layer is applied to a block of rows.
/// Everything else — discovery, dedup, aggregation, the head loop,
/// determinism — is [`infer_nodes`] and is shared.
pub trait InferModel: Sync {
    /// The scalar this view computes in.
    type Elem: Element;
    /// Architecture and walk parameters.
    fn spec(&self) -> ModelSpec<'_>;
    /// `out = act(x · W + b)` for the `rows` input rows in `x`. Both
    /// buffers are scratch the caller reuses: `x` holds its contents on
    /// return, `out` is overwritten.
    fn linear(
        &self,
        lin: &Linear,
        x: &mut Vec<Self::Elem>,
        rows: usize,
        act: ActKind,
        out: &mut Vec<Self::Elem>,
    );
}

/// The `f64` view: trained weights borrowed straight from the parameter
/// set and multiplied through the tensor crate's fused dispatch — the
/// kernel call the autodiff tape's `linear_act` makes, minus the tape.
impl InferModel for NodeModel {
    type Elem = f64;

    fn spec(&self) -> ModelSpec<'_> {
        ModelSpec {
            gnn: self.gnn(),
            sampler_cfg: self.sampler_cfg(),
            task: self.task(),
            label_scale: self.label_scale(),
        }
    }

    fn linear(
        &self,
        lin: &Linear,
        x: &mut Vec<f64>,
        rows: usize,
        act: ActKind,
        out: &mut Vec<f64>,
    ) {
        // The buffers move through `Tensor` and back: no copy either way.
        let a = Tensor::from_vec(rows, lin.in_dim(), std::mem::take(x));
        let mut o = Tensor::from_buffer(rows, lin.out_dim(), std::mem::take(out));
        a.matmul_bias_act_into(lin.weight(self.ps()), lin.bias(self.ps()), act, &mut o);
        *x = a.into_data();
        *out = o.into_data();
    }
}

type Key = (usize, usize, usize);

/// Predict for `nodes` (all of `node_type`, all anchored at `anchor`) in
/// `f64`, deduplicating shared neighborhoods across the batch and reusing
/// any embeddings `store` already holds. Returns predictions in input
/// order on the same scale as [`NodeModel::predict`]. The `f64`
/// instantiation of [`infer_nodes`].
///
/// # Panics
/// Panics if `node_type` differs from the type the model was trained on,
/// or if a node index is out of range for the graph.
pub fn predict_nodes(
    model: &NodeModel,
    graph: &HeteroGraph,
    node_type: NodeTypeId,
    nodes: &[usize],
    anchor: i64,
    store: &mut dyn EmbeddingStore,
) -> Vec<f64> {
    infer_nodes(model, graph, node_type, nodes, anchor, store)
}

/// [`predict_nodes`] in `f32` over a down-converted model: the `f32`
/// instantiation of [`infer_nodes`]. Predictions are widened to `f64` only
/// at the head's final sigmoid / label rescale.
pub fn predict_nodes_f32(
    model: &InferModel32,
    graph: &HeteroGraph,
    node_type: NodeTypeId,
    nodes: &[usize],
    anchor: i64,
    store: &mut dyn EmbeddingStore<f32>,
) -> Vec<f64> {
    infer_nodes(model, graph, node_type, nodes, anchor, store)
}

/// The kept neighbors of one node along one edge type.
struct ChildList {
    /// Edge type index.
    et: usize,
    /// Node type the edge type points at.
    dst: usize,
    /// Kept neighbor nodes, ascending time.
    nbrs: Vec<usize>,
}

/// Discovery state of one batch: which `(type, node, level)` embeddings
/// must be computed, which the store already covered.
struct Discovery<'s, E> {
    /// Worklist per level, in first-request order.
    levels: Vec<Vec<(usize, usize)>>,
    needed: HashSet<Key>,
    memo: HashMap<Key, Vec<E>>,
    store: &'s mut dyn EmbeddingStore<E>,
    store_hits: u64,
}

impl<E> Discovery<'_, E> {
    /// Register `(ty, node, level)` as needed unless it is already
    /// memoized, queued, or available from the store.
    fn request(&mut self, ty: usize, node: usize, level: usize) {
        let key = (ty, node, level);
        if self.memo.contains_key(&key) || self.needed.contains(&key) {
            return;
        }
        if let Some(emb) = self.store.get(ty, node, level) {
            self.store_hits += 1;
            self.memo.insert(key, emb);
            return;
        }
        self.needed.insert(key);
        self.levels[level].push((ty, node));
    }
}

/// Map `f` over `items` in [`EVAL_CHUNK`]-sized chunks across threads,
/// results flattened back in input order. Chunks are independent, so
/// serial and parallel evaluation are bit-identical, and a single chunk
/// (small warm micro-batches) runs inline on the caller.
fn eval_chunked<T: Sync, R: Send>(items: &[T], f: impl Fn(&[T]) -> Vec<R> + Sync) -> Vec<R> {
    let chunks: Vec<&[T]> = items.chunks(EVAL_CHUNK).collect();
    let out: Vec<Vec<R>> = chunks.par_iter().map(|chunk| f(chunk)).collect();
    out.into_iter().flatten().collect()
}

/// The per-node walk, generic over the model view: predict for `nodes`
/// (all of `node_type`, all anchored at `anchor`), deduplicating shared
/// neighborhoods across the batch and reusing any embeddings `store`
/// already holds. Predictions come back in input order as `f64` whatever
/// the element type. Reports `gnn.infer.{seeds,evals,store_hits}` and the
/// `gnn.infer` span in every precision.
///
/// # Panics
/// Panics if `node_type` differs from the type the model was trained on,
/// or if a node index is out of range for the graph.
pub fn infer_nodes<M: InferModel>(
    model: &M,
    graph: &HeteroGraph,
    node_type: NodeTypeId,
    nodes: &[usize],
    anchor: i64,
    store: &mut dyn EmbeddingStore<M::Elem>,
) -> Vec<f64> {
    let spec = model.spec();
    assert_eq!(
        node_type.0,
        spec.gnn.seed_type(),
        "seed node type differs from the model's training entity type"
    );
    let t0 = obs::enabled().then(std::time::Instant::now);
    let k = spec.gnn.num_layers();
    let cfg = spec.sampler_cfg;

    // --- Discovery (top-down): collect the set of (type, node, level)
    // embeddings the batch needs, deduplicating across seeds and pruning
    // every subtree the store already covers.
    let mut walk = Discovery {
        levels: vec![Vec::new(); k + 1],
        needed: HashSet::new(),
        memo: HashMap::new(),
        store,
        store_hits: 0,
    };
    let mut clists: HashMap<Key, Vec<ChildList>> = HashMap::new();
    for &v in nodes {
        walk.request(node_type.0, v, k);
    }
    for level in (1..=k).rev() {
        let items = std::mem::take(&mut walk.levels[level]);
        let fanout = cfg.fanouts[k - level];
        for &(ty, node) in &items {
            let lists = child_lists(graph, cfg, ty, node, fanout, anchor);
            walk.request(ty, node, level - 1);
            for list in &lists {
                for &nbr in &list.nbrs {
                    walk.request(list.dst, nbr, level - 1);
                }
            }
            clists.insert((ty, node, level), lists);
        }
        walk.levels[level] = items;
    }
    let Discovery {
        levels,
        needed,
        mut memo,
        store,
        store_hits,
    } = walk;

    // --- Evaluation (bottom-up): each level's nodes are independent given
    // the level below, so they fan out across threads in fixed-size chunks
    // and merge in worklist order. Fresh values are memoized
    // *canonicalized* (downstream levels consume exactly what a warm hit
    // would have returned) and kept raw for the store.
    let mut fresh: Vec<Vec<Vec<M::Elem>>> = Vec::with_capacity(k + 1);
    for (level, level_nodes) in levels.iter().enumerate() {
        let embs = if level == 0 {
            eval_chunked(level_nodes, |chunk| {
                chunk
                    .iter()
                    .map(|&(ty, node)| {
                        // The featuriser `build_batch` uses, so the row is
                        // bitwise the batched one; reduced precisions
                        // narrow it once per node.
                        let ty = NodeTypeId(ty);
                        let degrees = windowed_degrees(graph, cfg, ty, node, anchor);
                        let mut row = vec![0.0; graph.features(ty).dim() + 2 + degrees.len()];
                        write_input_row(graph, ty, node, anchor, &degrees, &mut row);
                        row.into_iter().map(M::Elem::from_f64).collect()
                    })
                    .collect()
            })
        } else {
            eval_chunked(level_nodes, |chunk| {
                chunk
                    .iter()
                    .map(|&(ty, node)| {
                        eval_node(model, &memo, &clists[&(ty, node, level)], ty, node, level)
                    })
                    .collect()
            })
        };
        for (&(ty, node), emb) in level_nodes.iter().zip(&embs) {
            memo.insert((ty, node, level), store.canonicalize(emb.clone()));
        }
        fresh.push(embs);
    }

    // Offer every fresh embedding to the store unprojected (a quantizing
    // store encodes the original), bottom level first and in worklist
    // order (deterministic LRU recency).
    for (level, (level_nodes, embs)) in levels.iter().zip(fresh).enumerate() {
        for (&(ty, node), emb) in level_nodes.iter().zip(embs) {
            store.put(ty, node, level, emb);
        }
    }

    // --- Head: per-seed MLP over the top-level embedding, widened to f64
    // only for the final sigmoid / label rescale.
    let head = spec.gnn.head().layers();
    let head_act = spec.gnn.head().activation().kind();
    let (label_mean, label_std) = spec.label_scale;
    let preds = eval_chunked(nodes, |chunk| {
        let (mut x, mut y) = (Vec::new(), Vec::new());
        chunk
            .iter()
            .map(|&v| {
                x.clear();
                x.extend_from_slice(&memo[&(node_type.0, v, k)]);
                for (i, lin) in head.iter().enumerate() {
                    let act = if i + 1 < head.len() {
                        head_act
                    } else {
                        ActKind::Identity
                    };
                    model.linear(lin, &mut x, 1, act, &mut y);
                    std::mem::swap(&mut x, &mut y);
                }
                let y: f64 = x[0].into();
                match spec.task {
                    TaskKind::Binary => 1.0 / (1.0 + (-y).exp()),
                    TaskKind::Regression => y * label_std + label_mean,
                }
            })
            .collect()
    });

    if let Some(t0) = t0 {
        obs::add("gnn.infer.seeds", nodes.len() as u64);
        obs::add("gnn.infer.evals", needed.len() as u64);
        obs::add("gnn.infer.store_hits", store_hits);
        obs::record_ns("gnn.infer", t0.elapsed().as_nanos() as u64);
    }
    preds
}

/// The node's kept neighbors per edge type: the most recent `fanout`
/// anchor-visible out-neighbors, in ascending-time (slice) order — exactly
/// what the temporal sampler keeps when it expands this node.
fn child_lists(
    graph: &HeteroGraph,
    cfg: &SamplerConfig,
    ty: usize,
    node: usize,
    fanout: usize,
    anchor: i64,
) -> Vec<ChildList> {
    graph
        .edge_types_from(NodeTypeId(ty))
        .iter()
        .map(|&et| {
            let kept = kept_neighbors(graph, cfg, et, node, fanout, anchor);
            let mut nbrs = Vec::with_capacity(kept.size_hint().1.unwrap_or(0));
            nbrs.extend(kept);
            ChildList {
                et: et.0,
                dst: graph.edge_type(et).dst.0,
                nbrs,
            }
        })
        .collect()
}

/// One SAGE layer applied to one node: fused self transform, plus one
/// message matmul + single-segment aggregation per edge type with kept
/// neighbors, in ascending edge-type order — the per-element accumulation
/// order of the batched layer forward.
fn eval_node<M: InferModel>(
    model: &M,
    memo: &HashMap<Key, Vec<M::Elem>>,
    lists: &[ChildList],
    ty: usize,
    node: usize,
    level: usize,
) -> Vec<M::Elem> {
    let layer = &model.spec().gnn.layers()[level - 1];
    let activation = layer.activation().kind();
    let has_children = lists.iter().any(|l| !l.nbrs.is_empty());
    // Nodes with no kept neighbors fuse the activation into the self
    // transform (the batched layer does the same per node type).
    let act = if has_children {
        ActKind::Identity
    } else {
        activation
    };
    let mut x = memo[&(ty, node, level - 1)].clone();
    let mut acc = Vec::new();
    model.linear(&layer.self_lins()[ty], &mut x, 1, act, &mut acc);
    let (mut msg, mut seg) = (Vec::new(), Vec::new());
    for list in lists.iter().filter(|l| !l.nbrs.is_empty()) {
        x.clear();
        for &nbr in &list.nbrs {
            x.extend_from_slice(&memo[&(list.dst, nbr, level - 1)]);
        }
        let rows = list.nbrs.len();
        let lin = &layer.edge_lins()[list.et];
        model.linear(lin, &mut x, rows, ActKind::Identity, &mut msg);
        aggregate_into(layer.aggregation(), &msg, &mut seg, &mut acc);
    }
    if has_children {
        for a in &mut acc {
            *a = activation.apply(*a);
        }
    }
    acc
}

/// Reduce the message rows in `msg` to one row (in the scratch `seg`) and
/// add it to `acc`, by the autodiff tape's single-segment rule: rows
/// accumulate in ascending order from zero; the mean scales by `1/rows`
/// only when `rows > 1`; the max starts from the first row and replaces on
/// `>`.
fn aggregate_into<E: Element>(agg: Aggregation, msg: &[E], seg: &mut Vec<E>, acc: &mut [E]) {
    let d = acc.len();
    let rows = msg.len() / d;
    seg.clear();
    seg.resize(d, E::default());
    match agg {
        Aggregation::Mean | Aggregation::Sum => {
            for row in msg.chunks_exact(d) {
                for (s, &m) in seg.iter_mut().zip(row) {
                    *s += m;
                }
            }
            if agg == Aggregation::Mean && rows > 1 {
                let inv = E::from_f64(1.0 / rows as f64);
                for s in seg.iter_mut() {
                    *s *= inv;
                }
            }
        }
        Aggregation::Max => {
            seg.copy_from_slice(&msg[..d]);
            for row in msg.chunks_exact(d).skip(1) {
                for (s, &m) in seg.iter_mut().zip(row) {
                    if m > *s {
                        *s = m;
                    }
                }
            }
        }
    }
    for (a, &s) in acc.iter_mut().zip(seg.iter()) {
        *a += s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train_node_model, TrainConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use relgraph_graph::sampler::SECONDS_PER_DAY;
    use relgraph_graph::{FeatureMatrix, HeteroGraphBuilder, Seed};
    use relgraph_nn::{Activation, Binding};
    use relgraph_tensor::Graph;

    /// Users share items (overlapping neighborhoods) with creation times,
    /// so temporal visibility and degree windows are all exercised.
    fn shared_item_graph(n_users: usize, seed: u64) -> (HeteroGraph, Vec<(Seed, f64)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_items = (n_users / 2).max(4);
        let mut b = HeteroGraphBuilder::new();
        let u = b.add_node_type("user", n_users);
        let i = b.add_node_type("item", n_items);
        let owns = b.add_edge_type("owns", u, i);
        let owned_by = b.add_edge_type("owned_by", i, u);
        let mut item_feats = FeatureMatrix::zeros(n_items, 2);
        let mut item_times = vec![0i64; n_items];
        for (item, time) in item_times.iter_mut().enumerate() {
            item_feats.row_mut(item)[0] = rng.gen_range(-1.0f64..1.0) as f32;
            item_feats.row_mut(item)[1] = 1.0;
            *time = rng.gen_range(0..50) * SECONDS_PER_DAY;
        }
        let mut labels = Vec::with_capacity(n_users);
        for user in 0..n_users {
            let mut total = 0.0;
            for k in 0..3 {
                // Deliberate overlap: consecutive users share items.
                let item = (user + k * 7) % n_items;
                total += item_feats.row(item)[0] as f64;
                let t = item_times[item] + (k as i64 + 1) * SECONDS_PER_DAY;
                b.add_edge(owns, user, item, t);
                b.add_edge(owned_by, item, user, t);
            }
            labels.push(if total > 0.0 { 1.0 } else { 0.0 });
        }
        b.set_node_times(i, item_times);
        b.set_features(i, item_feats);
        b.set_features(u, FeatureMatrix::from_rows(n_users, 1, vec![1.0; n_users]));
        let g = b.finish().unwrap();
        let anchor = 100 * SECONDS_PER_DAY;
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

    fn model_for(g: &HeteroGraph, examples: &[(Seed, f64)]) -> NodeModel {
        let cfg = TrainConfig {
            epochs: 6,
            fanouts: vec![4, 4],
            hidden_dim: 8,
            seed: 3,
            ..Default::default()
        };
        train_node_model(g, TaskKind::Binary, examples, &[], &cfg).unwrap()
    }

    /// A naive unbounded lossless store, in either precision.
    struct MapStore<E>(HashMap<Key, Vec<E>>);

    impl<E: Clone + Send> EmbeddingStore<E> for MapStore<E> {
        fn get(&mut self, ty: usize, node: usize, level: usize) -> Option<Vec<E>> {
            self.0.get(&(ty, node, level)).cloned()
        }
        fn put(&mut self, ty: usize, node: usize, level: usize, emb: Vec<E>) {
            self.0.insert((ty, node, level), emb);
        }
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: entry {i}: {x} vs {y}");
        }
    }

    /// A second batch served entirely from the store, and one served from
    /// a partial store (only some entries retained), must reproduce the
    /// cold predictions bit for bit.
    fn check_store_reuse<M: InferModel>(model: &M, g: &HeteroGraph, nodes: &[usize], anchor: i64) {
        let ty = NodeTypeId(0);
        let mut store = MapStore(HashMap::new());
        let cold = infer_nodes(model, g, ty, nodes, anchor, &mut store);
        assert!(!store.0.is_empty(), "store should have been populated");
        let warm = infer_nodes(model, g, ty, nodes, anchor, &mut store);
        assert_bits_eq(&cold, &warm, "warm diverged from cold");
        let mut partial = MapStore(HashMap::new());
        for (&(ty, node, level), emb) in store.0.iter() {
            if (ty + node) % 3 == 0 {
                partial.0.insert((ty, node, level), emb.clone());
            }
        }
        let mixed = infer_nodes(model, g, ty, nodes, anchor, &mut partial);
        assert_bits_eq(&cold, &mixed, "partial-cache run diverged");
    }

    #[test]
    fn matches_per_seed_prediction_closely() {
        let (g, examples) = shared_item_graph(40, 1);
        let model = model_for(&g, &examples);
        let seeds: Vec<Seed> = examples.iter().map(|&(s, _)| s).collect();
        let reference = model.predict(&g, &seeds);
        let nodes: Vec<usize> = seeds.iter().map(|s| s.node).collect();
        let got = predict_nodes(
            &model,
            &g,
            NodeTypeId(0),
            &nodes,
            seeds[0].time,
            &mut NoCache,
        );
        assert_eq!(got.len(), reference.len());
        for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "seed {i}: per-node {a} vs per-seed {b}"
            );
        }
    }

    #[test]
    fn store_reuse_is_bit_identical() {
        let (g, examples) = shared_item_graph(30, 2);
        let model = model_for(&g, &examples);
        let nodes: Vec<usize> = examples.iter().map(|&(s, _)| s.node).collect();
        check_store_reuse(&model, &g, &nodes, examples[0].0.time);
    }

    #[test]
    fn f32_store_reuse_is_bit_identical() {
        let (g, examples) = shared_item_graph(30, 2);
        let m32 = InferModel32::from_model(&model_for(&g, &examples));
        let nodes: Vec<usize> = examples.iter().map(|&(s, _)| s.node).collect();
        check_store_reuse(&m32, &g, &nodes, examples[0].0.time);
    }

    #[test]
    fn f32_predictions_track_f64_within_tolerance() {
        let (g, examples) = shared_item_graph(24, 7);
        let model = model_for(&g, &examples);
        let nodes: Vec<usize> = examples.iter().map(|&(s, _)| s.node).collect();
        let anchor = examples[0].0.time;
        let reference = predict_nodes(&model, &g, NodeTypeId(0), &nodes, anchor, &mut NoCache);
        let m32 = InferModel32::from_model(&model);
        let got = predict_nodes_f32(&m32, &g, NodeTypeId(0), &nodes, anchor, &mut NoCache);
        assert_eq!(got.len(), reference.len());
        for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
            assert!(
                (a - b).abs() < 1e-3,
                "seed {i}: f32 {a} vs f64 {b} diverged past the §15 tolerance"
            );
        }
    }

    #[test]
    fn batch_deduplicates_shared_neighborhoods() {
        let (g, examples) = shared_item_graph(40, 4);
        let model = model_for(&g, &examples);
        let nodes: Vec<usize> = examples.iter().map(|&(s, _)| s.node).collect();
        let anchor = examples[0].0.time;
        // Duplicate the request list: identical predictions, no extra work.
        let doubled: Vec<usize> = nodes.iter().chain(nodes.iter()).copied().collect();
        let preds = predict_nodes(&model, &g, NodeTypeId(0), &doubled, anchor, &mut NoCache);
        assert_eq!(preds.len(), doubled.len());
        assert_bits_eq(&preds[..nodes.len()], &preds[nodes.len()..], "duplicate");
    }

    /// The parent's tape-built evaluator, kept as the bitwise reference for
    /// the tape-free `f64` view: every node builds an autodiff graph, binds
    /// (copies) its weights into it and reads the value back out.
    mod tape_oracle {
        use super::*;

        pub fn eval_node(
            model: &NodeModel,
            memo: &HashMap<Key, Vec<f64>>,
            lists: &[ChildList],
            ty: usize,
            node: usize,
            level: usize,
        ) -> Vec<f64> {
            let (g, b) = (&mut Graph::new(), &mut Binding::new());
            let layer = &model.gnn().layers()[level - 1];
            let has_children = lists.iter().any(|l| !l.nbrs.is_empty());
            let x_self = &memo[&(ty, node, level - 1)];
            let x = g.constant(Tensor::from_vec(1, x_self.len(), x_self.clone()));
            let act = if has_children {
                Activation::Identity
            } else {
                layer.activation()
            };
            let mut acc = layer.self_lins()[ty].forward_act(g, b, model.ps(), x, act);
            for list in lists.iter().filter(|l| !l.nbrs.is_empty()) {
                let n = list.nbrs.len();
                let d = memo[&(list.dst, list.nbrs[0], level - 1)].len();
                let mut data = Vec::with_capacity(n * d);
                for &nbr in &list.nbrs {
                    data.extend_from_slice(&memo[&(list.dst, nbr, level - 1)]);
                }
                let stacked = g.constant(Tensor::from_vec(n, d, data));
                let msg = layer.edge_lins()[list.et].forward(g, b, model.ps(), stacked);
                let agg = match layer.aggregation() {
                    Aggregation::Mean => g.segment_mean(msg, vec![0; n], 1),
                    Aggregation::Sum => g.segment_sum(msg, vec![0; n], 1),
                    Aggregation::Max => g.segment_max(msg, vec![0; n], 1),
                }
                .expect("single segment is always in range");
                acc = g.add(acc, agg);
            }
            if has_children {
                acc = layer.activation().apply(g, acc);
            }
            g.value(acc).row(0).to_vec()
        }

        pub fn head(model: &NodeModel, emb: &[f64]) -> f64 {
            let (g, b) = (&mut Graph::new(), &mut Binding::new());
            let x = g.constant(Tensor::from_vec(1, emb.len(), emb.to_vec()));
            let out = model.gnn().head().forward(g, b, model.ps(), x);
            g.value(out).get(0, 0)
        }
    }

    #[test]
    fn tape_free_f64_equals_the_tape_bit_for_bit() {
        let (g, examples) = shared_item_graph(30, 5);
        let trained = model_for(&g, &examples);
        let cfg = trained.sampler_cfg().clone();
        // An anchor early enough that many edges are not yet visible: some
        // nodes keep no neighbor at all (fused-activation branch), some
        // exactly one per edge type (the mean's `c > 1` rule), some more.
        let anchor = 14 * SECONDS_PER_DAY;
        let mut childless = false;
        let mut segment_sizes = HashSet::new();
        for agg in [Aggregation::Mean, Aggregation::Sum, Aggregation::Max] {
            for act in [
                Activation::Identity,
                Activation::Relu,
                Activation::LeakyRelu(0.1),
                Activation::Tanh,
                Activation::Sigmoid,
            ] {
                let mut state = trained.export();
                state.gnn_config.aggregation = agg;
                state.gnn_config.activation = act;
                let model = NodeModel::from_state(state).unwrap();
                // One cold walk through the public entry point; the store
                // keeps every embedding it computed, which is then also the
                // memo the oracle re-derives each of them from.
                let users: Vec<usize> = (0..g.num_nodes(NodeTypeId(0))).collect();
                let mut store = MapStore(HashMap::new());
                let got = predict_nodes(&model, &g, NodeTypeId(0), &users, anchor, &mut store);
                for (&(ty, node, level), emb) in store.0.iter().filter(|(k, _)| k.2 > 0) {
                    let lists = child_lists(&g, &cfg, ty, node, cfg.fanouts[2 - level], anchor);
                    childless |= lists.iter().all(|l| l.nbrs.is_empty());
                    segment_sizes.extend(lists.iter().map(|l| l.nbrs.len()));
                    let want = tape_oracle::eval_node(&model, &store.0, &lists, ty, node, level);
                    assert_bits_eq(emb, &want, &format!("{agg} {act:?} ({ty},{node},{level})"));
                }
                let want: Vec<f64> = users
                    .iter()
                    .map(|&u| {
                        let y = tape_oracle::head(&model, &store.0[&(0, u, 2)]);
                        1.0 / (1.0 + (-y).exp())
                    })
                    .collect();
                assert_bits_eq(&got, &want, &format!("{agg} {act:?} head"));
            }
        }
        assert!(childless, "fixture no longer produces a childless node");
        assert!(
            segment_sizes.contains(&1) && segment_sizes.contains(&2),
            "fixture no longer produces 1- and 2-neighbor segments: {segment_sizes:?}"
        );
    }
}
