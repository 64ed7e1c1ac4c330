//! Sampled subgraph → dense tensors.

use relgraph_graph::sampler::{degree_stride, SECONDS_PER_DAY};
use relgraph_graph::{HeteroGraph, NodeTypeId, SampledSubgraph, ALWAYS_VISIBLE};
use relgraph_tensor::{Graph, Var};

/// A mini-batch ready for the GNN: per-node-type feature constants on the
/// tape it was built on, plus the subgraph's connectivity. Feature layout
/// per node: the node type's raw features, two temporal slots —
/// `ln(1 + age_in_days)` relative to the seed's anchor and a static flag
/// (1.0 for nodes without a creation time) — and one
/// `ln(1 + visible_degree)` slot per (edge type, look-back window) pair
/// (mean aggregation is degree-invariant, so multi-scale event *counts*
/// must be explicit features).
#[derive(Debug, Clone)]
pub struct Batch {
    /// Per node type: the `n_local × input_dim` input features, a constant
    /// whose buffer comes from the tape's pool.
    pub features: Vec<Var>,
    /// Per edge type: `(src_local, dst_local)` pairs (same ids as the
    /// subgraph).
    pub edges: Vec<Vec<(u32, u32)>>,
    /// Node type of the seeds.
    pub seed_type: NodeTypeId,
    /// Local indices of the seeds within `features[seed_type]`.
    pub seed_locals: Vec<usize>,
}

impl Batch {
    /// Number of seeds.
    pub fn num_seeds(&self) -> usize {
        self.seed_locals.len()
    }
}

/// Per-type input dims for a graph as [`build_batch`] will produce them.
pub fn input_dims(graph: &HeteroGraph) -> Vec<usize> {
    (0..graph.num_node_types())
        .map(|t| graph.features(NodeTypeId(t)).dim() + 2 + degree_stride(graph))
        .collect()
}

/// Write the level-0 input row of `node` (of type `ty`) seen from
/// `anchor` into `row`, which is zeroed and [`input_dims`] wide: the raw
/// features, the two temporal slots, and `ln(1 + degree)` per entry of its
/// [`windowed_degrees`](relgraph_graph::sampler::windowed_degrees). The one
/// featuriser of [`build_batch`] and the per-node inference walk.
pub(crate) fn write_input_row(
    graph: &HeteroGraph,
    ty: NodeTypeId,
    node: usize,
    anchor: i64,
    degrees: &[u32],
    row: &mut [f64],
) {
    let raw = graph.features(ty);
    for (r, &x) in row.iter_mut().zip(raw.row(node)) {
        *r = x as f64;
    }
    let base = raw.dim();
    let nt = graph.node_time(ty, node);
    if nt == ALWAYS_VISIBLE {
        row[base + 1] = 1.0;
    } else {
        let age_days = ((anchor - nt).max(0)) as f64 / SECONDS_PER_DAY as f64;
        row[base] = (1.0 + age_days).ln();
    }
    // `ln(1 + 0)` is the zero already in the row.
    for (r, &deg) in row[base + 2..].iter_mut().zip(degrees) {
        if deg != 0 {
            *r = (1.0 + deg as f64).ln();
        }
    }
}

/// Assemble the dense tensors for a sampled subgraph on the tape `g`.
pub fn build_batch(graph: &HeteroGraph, sub: &SampledSubgraph, g: &mut Graph) -> Batch {
    let dims = input_dims(graph);
    let stride = degree_stride(graph);
    let mut features = Vec::with_capacity(graph.num_node_types());
    for (t, &dim) in dims.iter().enumerate() {
        let locals = &sub.nodes[t];
        let mut m = g.alloc(locals.len(), dim);
        for (l, (&global, &anchor)) in locals.iter().zip(&sub.anchors[t]).enumerate() {
            let degrees = &sub.degrees[t][l * stride..(l + 1) * stride];
            write_input_row(graph, NodeTypeId(t), global, anchor, degrees, m.row_mut(l));
        }
        features.push(g.constant(m));
    }
    Batch {
        features,
        edges: sub.edges.clone(),
        seed_type: sub.seed_type,
        seed_locals: sub.seed_locals.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgraph_graph::{FeatureMatrix, HeteroGraphBuilder, SamplerConfig, Seed, TemporalSampler};

    fn graph() -> HeteroGraph {
        let mut b = HeteroGraphBuilder::new();
        let u = b.add_node_type("user", 2);
        let o = b.add_node_type("order", 3);
        let e = b.add_edge_type("placed", u, o);
        b.set_node_times(
            o,
            vec![SECONDS_PER_DAY, 2 * SECONDS_PER_DAY, 3 * SECONDS_PER_DAY],
        );
        b.set_features(u, FeatureMatrix::from_rows(2, 1, vec![0.5, -0.5]));
        b.set_features(
            o,
            FeatureMatrix::from_rows(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        );
        for (user, order) in [(0, 0), (0, 1), (1, 2)] {
            b.add_edge(e, user, order, (order as i64 + 1) * SECONDS_PER_DAY);
        }
        b.finish().unwrap()
    }

    #[test]
    fn batch_shapes_and_time_features() {
        let g = graph();
        let sampler = TemporalSampler::new(&g, SamplerConfig::new(vec![10]));
        let anchor = 3 * SECONDS_PER_DAY;
        let sub = sampler.sample(&[Seed {
            node_type: NodeTypeId(0),
            node: 0,
            time: anchor,
        }]);
        let mut tape = Graph::new();
        let batch = build_batch(&g, &sub, &mut tape);
        let features = |t: usize| tape.value(batch.features[t]);
        assert_eq!(batch.num_seeds(), 1);
        // user features: 1 raw + 2 temporal + 4 degree slots (one edge
        // type x four windows).
        assert_eq!(features(0).cols(), 7);
        assert_eq!(features(1).cols(), 8);
        // User 0 has no creation time → static flag set.
        let urow = features(0).row(batch.seed_locals[0]);
        assert_eq!(urow[0], 0.5);
        assert_eq!(urow[1], 0.0);
        assert_eq!(urow[2], 1.0);
        // Orders 0 (age 2 days) and 1 (age 1 day) were sampled.
        assert_eq!(features(1).rows(), 2);
        for r in 0..2 {
            let row = features(1).row(r);
            assert_eq!(row[3], 0.0, "timed node must not be flagged static");
            assert!(row[2] > 0.0, "age feature should be positive");
        }
        // Seed user placed 2 visible orders at anchor; every window ≥ 7d
        // covers both → ln(3) in each of the four degree slots.
        let urow = features(0).row(batch.seed_locals[0]);
        for w in 0..4 {
            assert!(
                (urow[3 + w] - (3.0f64).ln()).abs() < 1e-9,
                "slot {w}: {urow:?}"
            );
        }
        assert_eq!(input_dims(&g), vec![7, 8]);
    }

    #[test]
    fn empty_types_give_zero_row_tensors() {
        let g = graph();
        let sampler = TemporalSampler::new(&g, SamplerConfig::new(vec![]));
        let sub = sampler.sample(&[Seed {
            node_type: NodeTypeId(0),
            node: 1,
            time: 0,
        }]);
        let mut tape = Graph::new();
        let batch = build_batch(&g, &sub, &mut tape);
        assert_eq!(tape.value(batch.features[1]).rows(), 0);
        assert_eq!(tape.value(batch.features[0]).rows(), 1);
    }
}
