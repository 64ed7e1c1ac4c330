//! One heterogeneous GraphSAGE-style layer.
//!
//! For every node type `t`, the layer computes
//!
//! ```text
//! h'_t = act( H_t · W_self[t] + b[t] + Σ_{e: src=t} mean_{(v,u) ∈ e} (H_{dst(e)}[u] · W_e) )
//! ```
//!
//! i.e. a per-type self transform plus, for each edge type whose source is
//! `t`, the mean of linearly-transformed sampled-neighbor features. Types
//! or nodes without edges fall back to the self term alone.

use relgraph_graph::EdgeTypeMeta;
use relgraph_nn::{Activation, Binding, Linear, ParamSet};
use relgraph_tensor::{Graph, Var};

/// Neighborhood aggregation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Degree-invariant mean (the default; counts are supplied as explicit
    /// features instead).
    Mean,
    /// Sum — degree-sensitive, can overshoot on hubs.
    Sum,
    /// Columnwise max — picks the strongest message per dimension.
    Max,
}

impl std::fmt::Display for Aggregation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Aggregation::Mean => "mean",
            Aggregation::Sum => "sum",
            Aggregation::Max => "max",
        };
        f.write_str(s)
    }
}

/// One heterogeneous message-passing layer.
#[derive(Debug, Clone)]
pub struct SageLayer {
    /// Per node type: self transform (input dim may differ per type).
    self_lin: Vec<Linear>,
    /// Per edge type: message transform from the dst type's input dim.
    edge_lin: Vec<Linear>,
    activation: Activation,
    aggregation: Aggregation,
    out_dim: usize,
}

impl SageLayer {
    /// Build a layer mapping per-type `in_dims` to a uniform `out_dim`.
    /// `edge_types` must be the graph's edge-type metadata, index-aligned
    /// with batch edge lists.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        in_dims: &[usize],
        edge_types: &[EdgeTypeMeta],
        out_dim: usize,
        activation: Activation,
        aggregation: Aggregation,
        seed: u64,
    ) -> Self {
        let self_lin = in_dims
            .iter()
            .enumerate()
            .map(|(t, &d)| {
                Linear::new(
                    ps,
                    &format!("{name}.self{t}"),
                    d,
                    out_dim,
                    seed.wrapping_add(t as u64),
                )
            })
            .collect();
        let edge_lin = edge_types
            .iter()
            .enumerate()
            .map(|(e, meta)| {
                Linear::new(
                    ps,
                    &format!("{name}.edge{e}"),
                    in_dims[meta.dst.0],
                    out_dim,
                    seed.wrapping_add(1000 + e as u64),
                )
            })
            .collect();
        SageLayer {
            self_lin,
            edge_lin,
            activation,
            aggregation,
            out_dim,
        }
    }

    /// Output dimension (uniform across node types).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Per-type self transforms (per-node inference path).
    pub(crate) fn self_lins(&self) -> &[Linear] {
        &self.self_lin
    }

    /// Per-edge-type message transforms (per-node inference path).
    pub(crate) fn edge_lins(&self) -> &[Linear] {
        &self.edge_lin
    }

    /// The layer's nonlinearity.
    pub(crate) fn activation(&self) -> Activation {
        self.activation
    }

    /// The layer's aggregation function.
    pub(crate) fn aggregation(&self) -> Aggregation {
        self.aggregation
    }

    /// Forward over all node types. `inputs[t]` is the `n_t × in_dims[t]`
    /// representation of type `t`; `edges[e]` the `(src_local, dst_local)`
    /// pairs of edge type `e`. Returns the new per-type representations.
    pub fn forward(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        ps: &ParamSet,
        inputs: &[Var],
        edges: &[Vec<(u32, u32)>],
        edge_types: &[EdgeTypeMeta],
    ) -> Vec<Var> {
        let num_types = inputs.len();
        // Types that receive no messages can fuse the activation straight
        // into their self transform (one kernel pass); the rest apply it
        // after the aggregation add.
        let mut gets_messages = vec![false; num_types];
        for (e, meta) in edge_types.iter().enumerate() {
            if !edges[e].is_empty() {
                gets_messages[meta.src.0] = true;
            }
        }
        // Self term per type: fused linear(+bias)(+activation) kernels.
        let mut acc: Vec<Var> = (0..num_types)
            .map(|t| {
                let act = if gets_messages[t] {
                    Activation::Identity
                } else {
                    self.activation
                };
                self.self_lin[t].forward_act(g, binding, ps, inputs[t], act)
            })
            .collect();
        // Message term per edge type.
        for (e, meta) in edge_types.iter().enumerate() {
            let pairs = &edges[e];
            if pairs.is_empty() {
                continue;
            }
            let n_src = g.value(acc[meta.src.0]).rows();
            let dst_idx: Vec<usize> = pairs.iter().map(|&(_, d)| d as usize).collect();
            let src_idx: Vec<usize> = pairs.iter().map(|&(s, _)| s as usize).collect();
            let gathered = g
                .gather_rows(inputs[meta.dst.0], dst_idx)
                .expect("sampler guarantees indices in range");
            let msg = self.edge_lin[e].forward(g, binding, ps, gathered);
            let agg = match self.aggregation {
                Aggregation::Mean => g.segment_mean(msg, src_idx, n_src),
                Aggregation::Sum => g.segment_sum(msg, src_idx, n_src),
                Aggregation::Max => g.segment_max(msg, src_idx, n_src),
            }
            .expect("sampler guarantees segments in range");
            acc[meta.src.0] = g.add(acc[meta.src.0], agg);
        }
        acc.into_iter()
            .zip(gets_messages)
            .map(|(h, got)| {
                if got {
                    self.activation.apply(g, h)
                } else {
                    h // activation already fused into the self transform
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgraph_graph::NodeTypeId;
    use relgraph_tensor::Tensor;

    fn edge_types() -> Vec<EdgeTypeMeta> {
        vec![
            EdgeTypeMeta {
                name: "u->o".into(),
                src: NodeTypeId(0),
                dst: NodeTypeId(1),
            },
            EdgeTypeMeta {
                name: "o->u".into(),
                src: NodeTypeId(1),
                dst: NodeTypeId(0),
            },
        ]
    }

    #[test]
    fn forward_shapes() {
        let mut ps = ParamSet::new();
        let layer = SageLayer::new(
            &mut ps,
            "l0",
            &[3, 5],
            &edge_types(),
            8,
            Activation::Relu,
            Aggregation::Mean,
            1,
        );
        assert_eq!(layer.out_dim(), 8);
        let mut g = Graph::new();
        let mut b = Binding::new();
        let users = g.constant(Tensor::zeros(2, 3));
        let orders = g.constant(Tensor::zeros(4, 5));
        let edges = vec![vec![(0, 0), (0, 1), (1, 3)], vec![(2, 1)]];
        let out = layer.forward(&mut g, &mut b, &ps, &[users, orders], &edges, &edge_types());
        assert_eq!(g.value(out[0]).shape(), (2, 8));
        assert_eq!(g.value(out[1]).shape(), (4, 8));
    }

    #[test]
    fn empty_edges_use_self_term_only() {
        let mut ps = ParamSet::new();
        let layer = SageLayer::new(
            &mut ps,
            "l0",
            &[3, 5],
            &edge_types(),
            4,
            Activation::Identity,
            Aggregation::Mean,
            2,
        );
        let mut g = Graph::new();
        let mut b = Binding::new();
        let users = g.constant(Tensor::full(1, 3, 1.0));
        let orders = g.constant(Tensor::zeros(0, 5));
        let edges = vec![vec![], vec![]];
        let out = layer.forward(&mut g, &mut b, &ps, &[users, orders], &edges, &edge_types());
        assert_eq!(g.value(out[0]).shape(), (1, 4));
        assert_eq!(g.value(out[1]).shape(), (0, 4));
        assert!(g.value(out[0]).all_finite());
    }

    #[test]
    fn neighbor_information_flows() {
        // Two identical users with different neighbors must get different
        // outputs; identical neighbors → identical outputs.
        let mut ps = ParamSet::new();
        let layer = SageLayer::new(
            &mut ps,
            "l0",
            &[2, 2],
            &edge_types(),
            4,
            Activation::Identity,
            Aggregation::Mean,
            3,
        );
        let run = |orders: Tensor, edges: Vec<(u32, u32)>| {
            let mut g = Graph::new();
            let mut b = Binding::new();
            let users = g.constant(Tensor::full(2, 2, 1.0));
            let ov = g.constant(orders);
            let out = layer.forward(
                &mut g,
                &mut b,
                &ps,
                &[users, ov],
                &[edges, vec![]],
                &edge_types(),
            );
            g.value(out[0]).clone()
        };
        let o = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 5.0]]);
        let a = run(o.clone(), vec![(0, 0), (1, 1)]);
        assert_ne!(a.row(0), a.row(1), "different neighbors must differ");
        let b2 = run(o, vec![(0, 0), (1, 0)]);
        assert_eq!(b2.row(0), b2.row(1), "same neighbors must agree");
    }

    #[test]
    fn mean_aggregation_is_degree_invariant() {
        // A user with the same neighbor repeated twice equals one with it once.
        let mut ps = ParamSet::new();
        let layer = SageLayer::new(
            &mut ps,
            "l0",
            &[2, 2],
            &edge_types(),
            4,
            Activation::Identity,
            Aggregation::Mean,
            4,
        );
        let mut g = Graph::new();
        let mut b = Binding::new();
        let users = g.constant(Tensor::full(2, 2, 1.0));
        let orders = g.constant(Tensor::from_rows(&[&[3.0, -1.0]]));
        let edges = vec![vec![(0, 0), (0, 0), (1, 0)], vec![]];
        let out = layer.forward(&mut g, &mut b, &ps, &[users, orders], &edges, &edge_types());
        let h = g.value(out[0]);
        for j in 0..4 {
            assert!((h.get(0, j) - h.get(1, j)).abs() < 1e-12);
        }
    }
}
