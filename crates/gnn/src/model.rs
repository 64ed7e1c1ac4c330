//! The full heterogeneous GNN: stacked SAGE layers + an MLP head over the
//! seed embeddings.

use relgraph_graph::EdgeTypeMeta;
use relgraph_nn::{Activation, Binding, Mlp, ParamSet};
use relgraph_tensor::{Graph, Var};

use crate::batch::Batch;
use crate::sage::{Aggregation, SageLayer};

/// Hyper-parameters of a [`HeteroGnn`].
#[derive(Debug, Clone)]
pub struct GnnConfig {
    /// Hidden width shared by all layers.
    pub hidden_dim: usize,
    /// Number of message-passing layers; must equal the sampler's hop
    /// count. Zero layers = MLP on raw seed features.
    pub layers: usize,
    /// Output dimension of the head (1 for binary/regression).
    pub out_dim: usize,
    /// Nonlinearity between layers and in the head.
    pub activation: Activation,
    /// Neighborhood aggregation function.
    pub aggregation: Aggregation,
    /// RNG seed for weight init.
    pub seed: u64,
}

impl Default for GnnConfig {
    fn default() -> Self {
        GnnConfig {
            hidden_dim: 32,
            layers: 2,
            out_dim: 1,
            activation: Activation::Relu,
            aggregation: Aggregation::Mean,
            seed: 17,
        }
    }
}

/// Stacked hetero-SAGE layers producing seed-entity outputs.
#[derive(Debug, Clone)]
pub struct HeteroGnn {
    layers: Vec<SageLayer>,
    head: Mlp,
    seed_type: usize,
    edge_types: Vec<EdgeTypeMeta>,
    config: GnnConfig,
    in_dims: Vec<usize>,
}

impl HeteroGnn {
    /// Construct for a graph with the given per-type input dims (as
    /// produced by [`crate::batch::input_dims`]) and edge types;
    /// `seed_type` is the node type the head reads.
    pub fn new(
        ps: &mut ParamSet,
        in_dims: &[usize],
        edge_types: &[EdgeTypeMeta],
        seed_type: usize,
        config: &GnnConfig,
    ) -> Self {
        let mut layers = Vec::with_capacity(config.layers);
        let mut dims: Vec<usize> = in_dims.to_vec();
        for l in 0..config.layers {
            let layer = SageLayer::new(
                ps,
                &format!("sage{l}"),
                &dims,
                edge_types,
                config.hidden_dim,
                config.activation,
                config.aggregation,
                config.seed.wrapping_add(31 * l as u64),
            );
            dims = vec![config.hidden_dim; in_dims.len()];
            layers.push(layer);
        }
        let head_in = if config.layers > 0 {
            config.hidden_dim
        } else {
            in_dims[seed_type]
        };
        let head = Mlp::new(
            ps,
            &[head_in, config.hidden_dim, config.out_dim],
            config.activation,
            config.seed.wrapping_add(9999),
        );
        HeteroGnn {
            layers,
            head,
            seed_type,
            edge_types: edge_types.to_vec(),
            config: config.clone(),
            in_dims: in_dims.to_vec(),
        }
    }

    /// The hyper-parameters this model was constructed with. Together with
    /// [`in_dims`](Self::in_dims), the edge types and the seed type, they
    /// fully determine the parameter registration order — which is what
    /// makes model snapshots (`ModelState`) reloadable.
    pub fn config(&self) -> &GnnConfig {
        &self.config
    }

    /// Per-node-type input feature dimensions the model was built for.
    pub fn in_dims(&self) -> &[usize] {
        &self.in_dims
    }

    /// The edge types the model was built for.
    pub fn edge_type_metas(&self) -> &[EdgeTypeMeta] {
        &self.edge_types
    }

    /// Number of message-passing layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The stacked layers (per-node inference path).
    pub(crate) fn layers(&self) -> &[SageLayer] {
        &self.layers
    }

    /// The MLP head (per-node inference path).
    pub(crate) fn head(&self) -> &Mlp {
        &self.head
    }

    /// Node type the head reads.
    pub(crate) fn seed_type(&self) -> usize {
        self.seed_type
    }

    /// Forward a batch to per-seed outputs (`num_seeds × out_dim`).
    pub fn forward(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        ps: &ParamSet,
        batch: &Batch,
    ) -> Var {
        let emb = self.embed(g, binding, ps, batch);
        self.head.forward(g, binding, ps, emb)
    }

    /// Forward a batch to per-seed embeddings *before* the head
    /// (`num_seeds × hidden` — or raw seed dim for a 0-layer model). Used
    /// by the two-tower recommender.
    pub fn embed(&self, g: &mut Graph, binding: &mut Binding, ps: &ParamSet, batch: &Batch) -> Var {
        let mut reps = batch.features.clone();
        for layer in &self.layers {
            reps = layer.forward(g, binding, ps, &reps, &batch.edges, &self.edge_types);
        }
        g.gather_rows(reps[self.seed_type], batch.seed_locals.clone())
            .expect("seed locals are valid by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgraph_graph::NodeTypeId;
    use relgraph_tensor::Tensor;

    fn edge_types() -> Vec<EdgeTypeMeta> {
        vec![EdgeTypeMeta {
            name: "e".into(),
            src: NodeTypeId(0),
            dst: NodeTypeId(1),
        }]
    }

    fn batch(g: &mut Graph) -> Batch {
        Batch {
            features: vec![
                g.constant(Tensor::full(3, 4, 0.5)),
                g.constant(Tensor::full(5, 6, -0.2)),
            ],
            edges: vec![vec![(0, 1), (1, 2), (2, 4)]],
            seed_type: NodeTypeId(0),
            seed_locals: vec![0, 2],
        }
    }

    #[test]
    fn forward_produces_one_row_per_seed() {
        let mut ps = ParamSet::new();
        let cfg = GnnConfig {
            hidden_dim: 8,
            layers: 2,
            ..Default::default()
        };
        let gnn = HeteroGnn::new(&mut ps, &[4, 6], &edge_types(), 0, &cfg);
        assert_eq!(gnn.num_layers(), 2);
        let mut g = Graph::new();
        let mut b = Binding::new();
        let batch = batch(&mut g);
        let out = gnn.forward(&mut g, &mut b, &ps, &batch);
        assert_eq!(g.value(out).shape(), (2, 1));
        assert!(g.value(out).all_finite());
    }

    #[test]
    fn zero_layer_model_is_feature_mlp() {
        let mut ps = ParamSet::new();
        let cfg = GnnConfig {
            hidden_dim: 8,
            layers: 0,
            ..Default::default()
        };
        let gnn = HeteroGnn::new(&mut ps, &[4, 6], &edge_types(), 0, &cfg);
        let mut g = Graph::new();
        let mut b = Binding::new();
        let batch = batch(&mut g);
        let out = gnn.forward(&mut g, &mut b, &ps, &batch);
        assert_eq!(g.value(out).shape(), (2, 1));
    }

    #[test]
    fn multi_class_head() {
        let mut ps = ParamSet::new();
        let cfg = GnnConfig {
            hidden_dim: 8,
            layers: 1,
            out_dim: 3,
            ..Default::default()
        };
        let gnn = HeteroGnn::new(&mut ps, &[4, 6], &edge_types(), 0, &cfg);
        let mut g = Graph::new();
        let mut b = Binding::new();
        let batch = batch(&mut g);
        let out = gnn.forward(&mut g, &mut b, &ps, &batch);
        assert_eq!(g.value(out).shape(), (2, 3));
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let mut ps = ParamSet::new();
        let cfg = GnnConfig {
            hidden_dim: 4,
            layers: 2,
            ..Default::default()
        };
        let gnn = HeteroGnn::new(&mut ps, &[4, 6], &edge_types(), 0, &cfg);
        let mut g = Graph::new();
        let mut b = Binding::new();
        let batch = batch(&mut g);
        let out = gnn.forward(&mut g, &mut b, &ps, &batch);
        let loss = g.mean_all(out);
        g.backward(loss).unwrap();
        b.accumulate_grads(&g, &mut ps);
        // The edge transform for the only edge type must receive gradient
        // (information flowed through the message path).
        let touched = ps.ids().filter(|&id| ps.grad(id).norm() > 0.0).count();
        assert!(
            touched > ps.len() / 2,
            "only {touched}/{} params got gradient",
            ps.len()
        );
    }
}
