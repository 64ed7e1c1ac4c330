//! Temporal neighbor sampling.
//!
//! [`TemporalSampler`] extracts a k-hop subgraph around each seed node such
//! that every included edge (and node) was already visible at the seed's
//! *anchor time*. This is the leakage-safety property of the paper's
//! training protocol: features for a prediction anchored at time `t` may
//! only come from the past of `t`.
//!
//! Per hop, at most `fanout[h]` neighbors are kept per (node, edge type);
//! when more are visible, the **most recent** ones are kept (recency
//! sampling — deterministic and the common choice for temporal GNNs).
//!
//! Each seed gets its own disjoint subgraph; a batch of seeds is returned as
//! one block-diagonal [`SampledSubgraph`] so that every sampled node has a
//! well-defined anchor time (used for relative-age features downstream).
//!
//! A seed's block is a function of the seed alone, and the subgraph records
//! where each block ends. So [`SampledSubgraph::select`] can cut any
//! sequence of seeds' blocks back out of a sampled batch — bit-identical to
//! sampling those seeds again, at the cost of a few slice copies per seed.
//! Training samples its seeds once per fit and selects each minibatch.
//!
//! Because seeds are disjoint, a batch fans out across threads: each seed's
//! subgraph is extracted independently and the results are merged in seed
//! order. The merged output is **bit-identical** to a serial run (sampling
//! is recency-based with no randomness, and the merge preserves the
//! traversal order a serial implementation would produce), so thread count
//! never affects results — see `DESIGN.md`'s parallelism section.

use std::collections::HashMap;

use rayon::prelude::*;
use relgraph_obs as obs;

use crate::hetero::{EdgeTypeId, HeteroGraph, NodeTypeId};

/// Look-back windows (days) for the per-node visible-degree features; the
/// last entry (`0`) means all history. Multi-scale counts are what mean
/// aggregation cannot recover on its own.
pub const DEGREE_WINDOWS_DAYS: [i64; 4] = [7, 30, 90, 0];

/// Seconds per day: the unit of [`DEGREE_WINDOWS_DAYS`] and of the
/// relative-age feature.
pub const SECONDS_PER_DAY: i64 = 86_400;

/// Fewest seeds one parallel task expands. Measured on the reference host
/// (EXPERIMENTS.md, "Parallel grain"), two threads against inline over a
/// whole `sample` call: 0.88x at 64 seeds, 0.83x at 128, 1.00x at 256,
/// 1.31x at 512, 1.28x at 1024 — the merge is serial, a seed costs only
/// ~4.5 µs and a region's second thread 60–130 µs to spawn. So a batch
/// splits from 512 seeds up, and a 64-seed training batch runs inline.
const SEEDS_PER_TASK: usize = 256;

/// Fewest nodes one parallel task computes windowed degrees for: 0.05–
/// 0.2 µs per node by node type (a few binary searches). Two threads
/// measured 0.76–1.34x of inline at 2 700–2 900 nodes, 0.88–1.19x at
/// 5 300–5 900 and 1.25–1.35x from 10 700, so a type splits from 8 192.
const DEGREE_NODES_PER_TASK: usize = 4096;

/// Length of one node's row of windowed degrees: one count per (edge
/// type, [`DEGREE_WINDOWS_DAYS`] window), laid out as
/// `edge_type * NUM_WINDOWS + window`.
pub fn degree_stride(graph: &HeteroGraph) -> usize {
    graph.num_edge_types() * DEGREE_WINDOWS_DAYS.len()
}

/// One prediction seed: a node and the anchor time of the prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seed {
    /// Node type of the seed entity.
    pub node_type: NodeTypeId,
    /// Node index within its type.
    pub node: usize,
    /// Anchor time: only strictly-past-or-equal data may be used.
    pub time: i64,
}

/// Sampler configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Maximum kept neighbors per (node, edge type), one entry per hop.
    /// `fanouts.len()` is the number of hops.
    pub fanouts: Vec<usize>,
    /// When `false`, the time constraint is ignored (deliberately *leaky* —
    /// used only by the leakage-ablation experiment).
    pub temporal: bool,
    /// Emit per-node windowed visible-degree counts (default). Disabled
    /// only by the depth ablation to isolate what raw entity features can
    /// do without any structural signal.
    pub degree_features: bool,
}

impl SamplerConfig {
    /// Temporal sampling with the given per-hop fanouts.
    pub fn new(fanouts: Vec<usize>) -> Self {
        SamplerConfig {
            fanouts,
            temporal: true,
            degree_features: true,
        }
    }

    /// Variant without degree features (for ablations).
    pub fn without_degree_features(mut self) -> Self {
        self.degree_features = false;
        self
    }

    /// Leaky variant of this configuration (for ablations).
    pub fn leaky(mut self) -> Self {
        self.temporal = false;
        self
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.fanouts.len()
    }
}

/// The neighbors `node` keeps along `et` when it is expanded at `anchor`
/// with `fanout`: its most recent `fanout` anchor-visible out-neighbors
/// (every out-neighbor counts as visible when `cfg` is leaky), in
/// ascending-time order. The one recency rule of both the sampler and the
/// per-node inference walk.
pub fn kept_neighbors<'g>(
    graph: &'g HeteroGraph,
    cfg: &SamplerConfig,
    et: EdgeTypeId,
    node: usize,
    fanout: usize,
    anchor: i64,
) -> impl Iterator<Item = usize> + 'g {
    let temporal = cfg.temporal;
    // Visible neighbors as a borrowed time-ascending slice (one binary
    // search, no allocation); keep the most recent `fanout` — the tail.
    let (visible, _) = if temporal {
        graph.visible_slices(et, node, anchor)
    } else {
        graph.neighbor_slices(et, node)
    };
    let dst = graph.edge_type(et).dst;
    visible[visible.len().saturating_sub(fanout)..]
        .iter()
        .map(|&nbr| nbr as usize)
        .filter(move |&nbr| !temporal || graph.node_time(dst, nbr) <= anchor)
}

/// The windowed visible out-degrees of `node` (of type `ty`) at `anchor`:
/// per edge type leaving `ty` and per [`DEGREE_WINDOWS_DAYS`] window, the
/// edges in `(anchor − window, anchor]` (any time when `cfg` is leaky),
/// laid out as `edge_type * NUM_WINDOWS + window` over all edge types.
/// All zeros when `cfg` has no degree features.
pub fn windowed_degrees(
    graph: &HeteroGraph,
    cfg: &SamplerConfig,
    ty: NodeTypeId,
    node: usize,
    anchor: i64,
) -> Vec<u32> {
    let mut degs = vec![0u32; degree_stride(graph)];
    write_windowed_degrees(graph, cfg, ty, node, anchor, &mut degs);
    degs
}

/// [`windowed_degrees`] into `row`, which is zeroed and
/// [`degree_stride`] long. Leaves it zero when `cfg` has no degree
/// features.
fn write_windowed_degrees(
    graph: &HeteroGraph,
    cfg: &SamplerConfig,
    ty: NodeTypeId,
    node: usize,
    anchor: i64,
    row: &mut [u32],
) {
    if !cfg.degree_features {
        return;
    }
    let nw = DEGREE_WINDOWS_DAYS.len();
    let hi = if cfg.temporal { anchor } else { i64::MAX };
    for &et in graph.edge_types_from(ty) {
        for (w, &days) in DEGREE_WINDOWS_DAYS.iter().enumerate() {
            let lo = if days == 0 {
                i64::MIN
            } else {
                hi.saturating_sub(days * SECONDS_PER_DAY)
            };
            row[et.0 * nw + w] = graph.degree_between(et, node, lo, hi) as u32;
        }
    }
}

/// A sampled block-diagonal subgraph over the same type registries as the
/// originating [`HeteroGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledSubgraph {
    /// Per node type: global node index of each local node.
    pub nodes: Vec<Vec<usize>>,
    /// Per node type: anchor time (of the owning seed) per local node.
    pub anchors: Vec<Vec<i64>>,
    /// Per edge type: `(src_local, dst_local)` pairs. Aggregation flows
    /// dst → src (a node gathers messages from its sampled out-neighbors).
    pub edges: Vec<Vec<(u32, u32)>>,
    /// Per node type: one row of [`degree_stride`] counts per local node,
    /// flat (local node `l`'s row is `l * stride..(l + 1) * stride`) — the
    /// node's *temporally visible* out-degree under every edge type and
    /// every [`DEGREE_WINDOWS_DAYS`] window (not capped by fanout), laid
    /// out as `edge_type * NUM_WINDOWS + window`. Mean aggregation is
    /// degree-invariant, so event counts must be explicit features.
    pub degrees: Vec<Vec<u32>>,
    /// Node type shared by all seeds.
    pub seed_type: NodeTypeId,
    /// Local index (within `nodes[seed_type]`) of each seed, in input order.
    pub seed_locals: Vec<usize>,
    /// Per node type, per seed: where the seed's block of `nodes[t]` ends
    /// (exclusive); it starts where the previous seed's ends.
    node_ends: Vec<Vec<usize>>,
    /// Per edge type, per seed: where the seed's block of `edges[et]` ends.
    edge_ends: Vec<Vec<usize>>,
}

/// The range of block `p` in a list of block ends.
fn block(ends: &[usize], p: usize) -> std::ops::Range<usize> {
    p.checked_sub(1).map_or(0, |q| ends[q])..ends[p]
}

impl SampledSubgraph {
    /// An empty subgraph over `graph`'s node and edge types.
    fn empty(graph: &HeteroGraph, seed_type: NodeTypeId) -> SampledSubgraph {
        let (nt, ne) = (graph.num_node_types(), graph.num_edge_types());
        SampledSubgraph {
            nodes: vec![Vec::new(); nt],
            anchors: vec![Vec::new(); nt],
            edges: vec![Vec::new(); ne],
            degrees: vec![Vec::new(); nt],
            seed_type,
            seed_locals: Vec::new(),
            node_ends: vec![Vec::new(); nt],
            edge_ends: vec![Vec::new(); ne],
        }
    }

    /// The blocks of seeds `picks` (indices into this subgraph's seeds,
    /// in any order, repeats allowed) as one subgraph: equal, bit for bit,
    /// to sampling those seeds again in that order with the sampler that
    /// produced `self` over `graph`. Blocks are copied whole; local indices
    /// are shifted to the new block starts.
    ///
    /// # Panics
    /// Panics if a pick is not a seed index of `self`.
    pub fn select(&self, graph: &HeteroGraph, picks: &[usize]) -> SampledSubgraph {
        let stride = degree_stride(graph);
        let nt = self.nodes.len();
        let mut out = SampledSubgraph::empty(graph, self.seed_type);
        // Per pick and node type: what moves a local index of the picked
        // block from its start in `self` to its start in `out` (mod 2^32).
        let mut shift = vec![0u32; picks.len() * nt];
        for t in 0..nt {
            let ends = &self.node_ends[t];
            let len: usize = picks.iter().map(|&p| block(ends, p).len()).sum();
            let nodes = &mut out.nodes[t];
            nodes.reserve_exact(len);
            out.anchors[t].reserve_exact(len);
            out.degrees[t].reserve_exact(len * stride);
            out.node_ends[t].reserve_exact(picks.len());
            for (i, &p) in picks.iter().enumerate() {
                let r = block(ends, p);
                shift[i * nt + t] = (nodes.len() as u32).wrapping_sub(r.start as u32);
                nodes.extend_from_slice(&self.nodes[t][r.clone()]);
                out.anchors[t].extend_from_slice(&self.anchors[t][r.clone()]);
                out.degrees[t]
                    .extend_from_slice(&self.degrees[t][r.start * stride..r.end * stride]);
                out.node_ends[t].push(nodes.len());
            }
        }
        let st = self.seed_type.0;
        out.seed_locals = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| (self.seed_locals[p] as u32).wrapping_add(shift[i * nt + st]) as usize)
            .collect();
        for (et, pairs) in self.edges.iter().enumerate() {
            let meta = graph.edge_type(EdgeTypeId(et));
            let ends = &self.edge_ends[et];
            let len: usize = picks.iter().map(|&p| block(ends, p).len()).sum();
            let edges = &mut out.edges[et];
            edges.reserve_exact(len);
            out.edge_ends[et].reserve_exact(picks.len());
            for (i, &p) in picks.iter().enumerate() {
                let (ds, dd) = (shift[i * nt + meta.src.0], shift[i * nt + meta.dst.0]);
                edges.extend(
                    pairs[block(ends, p)]
                        .iter()
                        .map(|&(a, b)| (a.wrapping_add(ds), b.wrapping_add(dd))),
                );
                out.edge_ends[et].push(edges.len());
            }
        }
        out
    }

    /// Total number of sampled nodes across all types.
    pub fn total_nodes(&self) -> usize {
        self.nodes.iter().map(Vec::len).sum()
    }

    /// Total number of sampled edges across all edge types.
    pub fn total_edges(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

/// Samples temporally-consistent k-hop neighborhoods from a [`HeteroGraph`].
#[derive(Debug, Clone)]
pub struct TemporalSampler<'g> {
    graph: &'g HeteroGraph,
    config: SamplerConfig,
}

impl<'g> TemporalSampler<'g> {
    /// Create a sampler over `graph` with `config`.
    pub fn new(graph: &'g HeteroGraph, config: SamplerConfig) -> Self {
        TemporalSampler { graph, config }
    }

    /// The sampler's configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// The graph this sampler samples from.
    pub fn graph(&self) -> &'g HeteroGraph {
        self.graph
    }

    /// Sample a batch of seeds (all of the same node type) into one
    /// block-diagonal subgraph.
    ///
    /// Seeds are expanded in parallel (each seed's subgraph is independent)
    /// and merged in seed order; the result is bit-identical regardless of
    /// thread count.
    ///
    /// # Panics
    /// Panics if seeds have differing node types (a programming error in the
    /// batching layer).
    pub fn sample(&self, seeds: &[Seed]) -> SampledSubgraph {
        let seed_type = seeds.first().map_or(NodeTypeId(0), |s| s.node_type);
        assert!(
            seeds.iter().all(|s| s.node_type == seed_type),
            "all seeds in a batch must share one node type"
        );
        // Observe-only accounting: workers tally locally (no shared atomics
        // on the per-node path); one counter flush per batch below.
        let t0 = obs::enabled().then(std::time::Instant::now);
        let locals: Vec<LocalSample> = seeds
            .par_iter()
            .with_min_len(SEEDS_PER_TASK)
            .map(|seed| self.sample_one(seed))
            .collect();
        if let Some(t0) = t0 {
            let lookups: u64 = locals.iter().map(|l| l.csr_lookups).sum();
            let hops = self.config.hops();
            let mut hop_nodes = vec![0u64; hops];
            for l in &locals {
                for (h, &n) in l.hop_nodes.iter().enumerate() {
                    hop_nodes[h] += n;
                }
            }
            let sub = self.merge(seeds, seed_type, locals);
            obs::add("graph.sample.batches", 1);
            obs::add("graph.sample.seeds", seeds.len() as u64);
            obs::add("graph.sample.nodes", sub.total_nodes() as u64);
            obs::add("graph.sample.edges", sub.total_edges() as u64);
            obs::add("graph.csr.lookups", lookups);
            for (h, &n) in hop_nodes.iter().enumerate() {
                obs::add(&format!("graph.sample.hop{h}.nodes"), n);
            }
            obs::add("graph.sample_ns", t0.elapsed().as_nanos() as u64);
            sub
        } else {
            self.merge(seeds, seed_type, locals)
        }
    }

    /// Expand one seed into its private subgraph (local indices are 0-based
    /// within this seed's block).
    fn sample_one(&self, seed: &Seed) -> LocalSample {
        let g = self.graph;
        let anchor = seed.time;
        let mut nodes: Vec<Vec<usize>> = vec![Vec::new(); g.num_node_types()];
        let mut edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); g.num_edge_types()];
        let mut local: HashMap<(usize, usize), u32> = HashMap::new();
        let intern = |ty: NodeTypeId,
                      global: usize,
                      nodes: &mut Vec<Vec<usize>>,
                      local: &mut HashMap<(usize, usize), u32>|
         -> u32 {
            *local.entry((ty.0, global)).or_insert_with(|| {
                let l = nodes[ty.0].len() as u32;
                nodes[ty.0].push(global);
                l
            })
        };
        let seed_local = intern(seed.node_type, seed.node, &mut nodes, &mut local);
        let mut hop_nodes = Vec::with_capacity(self.config.hops());
        let mut csr_lookups = 0u64;

        let mut frontier: Vec<(NodeTypeId, usize, u32)> =
            vec![(seed.node_type, seed.node, seed_local)];
        for &fanout in &self.config.fanouts {
            let mut next = Vec::new();
            for &(ty, global, src_local) in &frontier {
                for &et in g.edge_types_from(ty) {
                    let meta = g.edge_type(et);
                    csr_lookups += 1;
                    for nbr in kept_neighbors(g, &self.config, et, global, fanout, anchor) {
                        let known = local.contains_key(&(meta.dst.0, nbr));
                        let dst_local = intern(meta.dst, nbr, &mut nodes, &mut local);
                        edges[et.0].push((src_local, dst_local));
                        if !known {
                            next.push((meta.dst, nbr, dst_local));
                        }
                    }
                }
            }
            frontier = next;
            hop_nodes.push(frontier.len() as u64);
            if frontier.is_empty() {
                break;
            }
        }
        LocalSample {
            nodes,
            edges,
            hop_nodes,
            csr_lookups,
        }
    }

    /// Concatenate per-seed blocks in seed order, shifting local indices,
    /// then attach the windowed-degree features.
    fn merge(
        &self,
        seeds: &[Seed],
        seed_type: NodeTypeId,
        locals: Vec<LocalSample>,
    ) -> SampledSubgraph {
        let g = self.graph;
        let mut sub = SampledSubgraph::empty(g, seed_type);
        sub.seed_locals.reserve(seeds.len());
        let mut base = vec![0u32; g.num_node_types()];
        for (seed, block) in seeds.iter().zip(locals) {
            for (b, v) in base.iter_mut().zip(&sub.nodes) {
                *b = v.len() as u32;
            }
            // The seed is always the first node interned in its block.
            sub.seed_locals.push(base[seed_type.0] as usize);
            for (t, globals) in block.nodes.into_iter().enumerate() {
                sub.anchors[t].extend(std::iter::repeat_n(seed.time, globals.len()));
                sub.nodes[t].extend(globals);
                sub.node_ends[t].push(sub.nodes[t].len());
            }
            for (et, pairs) in block.edges.into_iter().enumerate() {
                let meta = g.edge_type(EdgeTypeId(et));
                let (sb, db) = (base[meta.src.0], base[meta.dst.0]);
                sub.edges[et].extend(pairs.into_iter().map(|(s, d)| (s + sb, d + db)));
                sub.edge_ends[et].push(sub.edges[et].len());
            }
        }
        sub.degrees = self.sampled_degrees(&sub.nodes, &sub.anchors);
        sub
    }

    /// The flat [`windowed_degrees`] rows of every sampled node. A type of
    /// `n` nodes is cut into `n / DEGREE_NODES_PER_TASK` equal runs (one
    /// run below twice that), filled in parallel.
    fn sampled_degrees(&self, nodes: &[Vec<usize>], anchors: &[Vec<i64>]) -> Vec<Vec<u32>> {
        let g = self.graph;
        let stride = degree_stride(g);
        (0..g.num_node_types())
            .map(|t| {
                let n = nodes[t].len();
                let mut rows = vec![0u32; n * stride];
                if n == 0 || stride == 0 || !self.config.degree_features {
                    return rows;
                }
                let run = n.div_ceil((n / DEGREE_NODES_PER_TASK).max(1));
                rows.par_chunks_mut(run * stride)
                    .enumerate()
                    .for_each(|(i, rows)| {
                        let first = i * run;
                        for (l, row) in rows.chunks_exact_mut(stride).enumerate() {
                            let (global, anchor) = (nodes[t][first + l], anchors[t][first + l]);
                            write_windowed_degrees(
                                g,
                                &self.config,
                                NodeTypeId(t),
                                global,
                                anchor,
                                row,
                            );
                        }
                    });
                rows
            })
            .collect()
    }
}

/// One seed's private block before merging.
struct LocalSample {
    /// Per node type: global index of each local node.
    nodes: Vec<Vec<usize>>,
    /// Per edge type: `(src_local, dst_local)` within this block.
    edges: Vec<Vec<(u32, u32)>>,
    /// Nodes newly discovered at each hop (observability tally; summed
    /// per batch so the hot path touches no shared atomics).
    hop_nodes: Vec<u64>,
    /// Adjacency-index lookups performed (one per (frontier node, edge
    /// type) pair).
    csr_lookups: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hetero::HeteroGraphBuilder;

    /// user(2) -placed-> order(4) -of-> product(2), plus reverses.
    fn demo() -> HeteroGraph {
        let mut b = HeteroGraphBuilder::new();
        let u = b.add_node_type("user", 2);
        let o = b.add_node_type("order", 4);
        let p = b.add_node_type("product", 2);
        let placed = b.add_edge_type("placed", u, o);
        let placed_by = b.add_edge_type("placed_by", o, u);
        let of = b.add_edge_type("of", o, p);
        b.set_node_times(o, vec![10, 20, 30, 40]);
        // user 0 placed orders 0,1,2; user 1 placed order 3.
        for (user, order, t) in [(0, 0, 10), (0, 1, 20), (0, 2, 30), (1, 3, 40)] {
            b.add_edge(placed, user, order, t);
            b.add_edge(placed_by, order, user, t);
        }
        // orders reference products.
        for (order, product, t) in [(0, 0, 10), (1, 1, 20), (2, 0, 30), (3, 1, 40)] {
            b.add_edge(of, order, product, t);
        }
        b.finish().unwrap()
    }

    /// Reference implementation without the CSR index: visible neighbors
    /// are found by a **linear scan over every edge of the edge type**, and
    /// windowed degrees by linear counting. Semantically identical to
    /// [`TemporalSampler::sample`], which is checked against it.
    fn sample_scan(sampler: &TemporalSampler, seeds: &[Seed]) -> SampledSubgraph {
        let g = sampler.graph;
        let seed_type = seeds.first().map_or(NodeTypeId(0), |s| s.node_type);
        assert!(
            seeds.iter().all(|s| s.node_type == seed_type),
            "all seeds in a batch must share one node type"
        );
        let mut nodes: Vec<Vec<usize>> = vec![Vec::new(); g.num_node_types()];
        let mut anchors: Vec<Vec<i64>> = vec![Vec::new(); g.num_node_types()];
        let mut edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); g.num_edge_types()];
        let mut seed_locals = Vec::with_capacity(seeds.len());
        let mut node_ends: Vec<Vec<usize>> = vec![Vec::new(); g.num_node_types()];
        let mut edge_ends: Vec<Vec<usize>> = vec![Vec::new(); g.num_edge_types()];
        let mut local: HashMap<(usize, usize), u32> = HashMap::new();
        for seed in seeds {
            local.clear();
            let anchor = seed.time;
            let intern = |ty: NodeTypeId,
                          global: usize,
                          nodes: &mut Vec<Vec<usize>>,
                          anchors: &mut Vec<Vec<i64>>,
                          local: &mut HashMap<(usize, usize), u32>|
             -> u32 {
                *local.entry((ty.0, global)).or_insert_with(|| {
                    let l = nodes[ty.0].len() as u32;
                    nodes[ty.0].push(global);
                    anchors[ty.0].push(anchor);
                    l
                })
            };
            let seed_local = intern(seed_type, seed.node, &mut nodes, &mut anchors, &mut local);
            seed_locals.push(seed_local as usize);
            let mut frontier: Vec<(NodeTypeId, usize, u32)> =
                vec![(seed_type, seed.node, seed_local)];
            for &fanout in &sampler.config.fanouts {
                let mut next = Vec::new();
                for &(ty, global, src_local) in &frontier {
                    for (et, edge_list) in edges.iter_mut().enumerate() {
                        let meta = g.edge_type(EdgeTypeId(et));
                        if meta.src != ty {
                            continue;
                        }
                        // Pre-index behavior: scan the whole edge list.
                        let visible: Vec<usize> = g
                            .edges_of(EdgeTypeId(et))
                            .filter(|&(s, _, t)| {
                                s == global && (!sampler.config.temporal || t <= anchor)
                            })
                            .map(|(_, d, _)| d)
                            .collect();
                        let start = visible.len().saturating_sub(fanout);
                        for &nbr in &visible[start..] {
                            if sampler.config.temporal && g.node_time(meta.dst, nbr) > anchor {
                                continue;
                            }
                            let known = local.contains_key(&(meta.dst.0, nbr));
                            let dst_local =
                                intern(meta.dst, nbr, &mut nodes, &mut anchors, &mut local);
                            edge_list.push((src_local, dst_local));
                            if !known {
                                next.push((meta.dst, nbr, dst_local));
                            }
                        }
                    }
                }
                frontier = next;
                if frontier.is_empty() {
                    break;
                }
            }
            for (ends, v) in node_ends.iter_mut().zip(&nodes) {
                ends.push(v.len());
            }
            for (ends, v) in edge_ends.iter_mut().zip(&edges) {
                ends.push(v.len());
            }
        }
        // Windowed degrees by linear counting over the full neighbor list,
        // one flat row per node.
        let nw = DEGREE_WINDOWS_DAYS.len();
        let mut degrees: Vec<Vec<u32>> = Vec::with_capacity(g.num_node_types());
        for t in 0..g.num_node_types() {
            let mut per_node = Vec::with_capacity(nodes[t].len() * g.num_edge_types() * nw);
            for (l, &global) in nodes[t].iter().enumerate() {
                let anchor = anchors[t][l];
                let mut degs = vec![0u32; g.num_edge_types() * nw];
                if sampler.config.degree_features {
                    for et in 0..g.num_edge_types() {
                        if g.edge_type(EdgeTypeId(et)).src.0 != t {
                            continue;
                        }
                        let (_, times) = g.neighbor_slices(EdgeTypeId(et), global);
                        for (w, &days) in DEGREE_WINDOWS_DAYS.iter().enumerate() {
                            let hi = if sampler.config.temporal {
                                anchor
                            } else {
                                i64::MAX
                            };
                            let lo = if days == 0 {
                                i64::MIN
                            } else {
                                hi.saturating_sub(days * SECONDS_PER_DAY)
                            };
                            degs[et * nw + w] =
                                times.iter().filter(|&&x| x > lo && x <= hi).count() as u32;
                        }
                    }
                }
                per_node.extend(degs);
            }
            degrees.push(per_node);
        }
        SampledSubgraph {
            nodes,
            anchors,
            edges,
            degrees,
            seed_type,
            seed_locals,
            node_ends,
            edge_ends,
        }
    }

    fn seed(node: usize, time: i64) -> Seed {
        Seed {
            node_type: NodeTypeId(0),
            node,
            time,
        }
    }

    #[test]
    fn respects_anchor_time() {
        let g = demo();
        let s = TemporalSampler::new(&g, SamplerConfig::new(vec![10, 10]));
        // Anchor 25: user 0 sees orders 0,1 (t=10,20) but not 2 (t=30).
        let sub = s.sample(&[seed(0, 25)]);
        let order_ty = g.node_type_by_name("order").unwrap();
        let mut orders = sub.nodes[order_ty.0].clone();
        orders.sort_unstable();
        assert_eq!(orders, vec![0, 1]);
        // Hop 2 reaches products 0 and 1 via those orders.
        let prod_ty = g.node_type_by_name("product").unwrap();
        assert_eq!(sub.nodes[prod_ty.0].len(), 2);
    }

    #[test]
    fn no_future_nodes_ever_leak() {
        let g = demo();
        let s = TemporalSampler::new(&g, SamplerConfig::new(vec![10, 10, 10]));
        for t in [5, 15, 25, 35, 45] {
            let sub = s.sample(&[seed(0, t), seed(1, t)]);
            let order_ty = g.node_type_by_name("order").unwrap();
            for &o in &sub.nodes[order_ty.0] {
                assert!(
                    g.node_time(order_ty, o) <= t,
                    "order {o} leaked at anchor {t}"
                );
            }
        }
    }

    #[test]
    fn leaky_mode_sees_the_future() {
        let g = demo();
        let s = TemporalSampler::new(&g, SamplerConfig::new(vec![10]).leaky());
        let sub = s.sample(&[seed(0, 5)]);
        let order_ty = g.node_type_by_name("order").unwrap();
        // Anchor 5 predates every order, yet leaky sampling returns them.
        assert_eq!(sub.nodes[order_ty.0].len(), 3);
        let temporal = TemporalSampler::new(&g, SamplerConfig::new(vec![10]));
        assert_eq!(temporal.sample(&[seed(0, 5)]).nodes[order_ty.0].len(), 0);
    }

    #[test]
    fn fanout_keeps_most_recent() {
        let g = demo();
        let s = TemporalSampler::new(&g, SamplerConfig::new(vec![2]));
        let sub = s.sample(&[seed(0, 100)]);
        let order_ty = g.node_type_by_name("order").unwrap();
        let mut orders = sub.nodes[order_ty.0].clone();
        orders.sort_unstable();
        // Orders 1 (t=20) and 2 (t=30) are the two most recent of user 0.
        assert_eq!(orders, vec![1, 2]);
    }

    #[test]
    fn batch_is_block_diagonal_with_per_seed_anchor() {
        let g = demo();
        let s = TemporalSampler::new(&g, SamplerConfig::new(vec![10]));
        let sub = s.sample(&[seed(0, 15), seed(0, 45)]);
        // Same seed node twice → two separate local copies.
        assert_eq!(sub.seed_locals.len(), 2);
        assert_ne!(sub.seed_locals[0], sub.seed_locals[1]);
        let user_ty = g.node_type_by_name("user").unwrap();
        assert_eq!(sub.anchors[user_ty.0].len(), sub.nodes[user_ty.0].len());
        // First copy anchored at 15, second at 45.
        assert_eq!(sub.anchors[user_ty.0][sub.seed_locals[0]], 15);
        assert_eq!(sub.anchors[user_ty.0][sub.seed_locals[1]], 45);
        let order_ty = g.node_type_by_name("order").unwrap();
        // Anchor 15 sees 1 order; anchor 45 sees 3.
        assert_eq!(sub.nodes[order_ty.0].len(), 4);
    }

    #[test]
    fn edge_endpoints_are_in_range() {
        let g = demo();
        let s = TemporalSampler::new(&g, SamplerConfig::new(vec![10, 10]));
        let sub = s.sample(&[seed(0, 100), seed(1, 100)]);
        for (et, pairs) in sub.edges.iter().enumerate() {
            let meta = g.edge_type(EdgeTypeId(et));
            for &(a, b) in pairs {
                assert!((a as usize) < sub.nodes[meta.src.0].len());
                assert!((b as usize) < sub.nodes[meta.dst.0].len());
            }
        }
        assert!(sub.total_edges() > 0);
        assert!(sub.total_nodes() > 0);
    }

    #[test]
    fn zero_hops_returns_only_seeds() {
        let g = demo();
        let s = TemporalSampler::new(&g, SamplerConfig::new(vec![]));
        let sub = s.sample(&[seed(0, 100)]);
        assert_eq!(sub.total_nodes(), 1);
        assert_eq!(sub.total_edges(), 0);
    }

    #[test]
    fn indexed_sampler_matches_scan_oracle() {
        let g = demo();
        for config in [
            SamplerConfig::new(vec![10, 10]),
            SamplerConfig::new(vec![2]),
            SamplerConfig::new(vec![1, 3, 2]),
            SamplerConfig::new(vec![10]).leaky(),
            SamplerConfig::new(vec![10, 10]).without_degree_features(),
        ] {
            let s = TemporalSampler::new(&g, config);
            for anchors in [vec![25i64], vec![15, 45], vec![5, 25, 100, 100]] {
                let seeds: Vec<Seed> = anchors
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| seed(i % 2, t))
                    .collect();
                assert_eq!(s.sample(&seeds), sample_scan(&s, &seeds));
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let g = demo();
        let s = TemporalSampler::new(&g, SamplerConfig::new(vec![10, 10]));
        // Enough seeds that both fan-outs split: the seeds themselves many
        // times over, and one seed node each makes two degree tasks for
        // the seed type alone.
        let seeds: Vec<Seed> = (0..2 * DEGREE_NODES_PER_TASK)
            .map(|i| seed(i % 2, 10 + 7 * (i % 16) as i64))
            .collect();
        let old = std::env::var("RAYON_NUM_THREADS").ok();
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let serial = s.sample(&seeds);
        for threads in ["2", "4", "7"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            assert_eq!(s.sample(&seeds), serial, "differs at {threads} threads");
        }
        match old {
            Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
    }

    #[test]
    fn empty_seed_batch() {
        let g = demo();
        let s = TemporalSampler::new(&g, SamplerConfig::new(vec![5]));
        let sub = s.sample(&[]);
        assert_eq!(sub.total_nodes(), 0);
        assert!(sub.seed_locals.is_empty());
    }
}
