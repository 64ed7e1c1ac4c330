//! # relgraph-gnn
//!
//! Temporal heterogeneous graph neural networks over sampled subgraphs —
//! the model family the paper's predictive queries compile into.
//!
//! * [`batch`] converts a [`SampledSubgraph`](relgraph_graph::SampledSubgraph)
//!   into dense tensors, appending a relative-age feature per node (how long
//!   before the anchor the row appeared);
//! * [`sage`] implements one heterogeneous GraphSAGE-style layer: per-type
//!   self transform plus per-edge-type mean aggregation of neighbor
//!   messages;
//! * [`model`] stacks layers into a [`HeteroGnn`] producing seed-entity
//!   embeddings;
//! * [`train`] trains node-level models (binary classification with
//!   BCE, regression with Huber on standardized targets, multiclass with
//!   softmax cross-entropy) through one epoch loop with mini-batch Adam,
//!   gradient clipping and early stopping;
//! * [`recommend`] trains a two-tower recommendation model (GNN user tower,
//!   linear item tower) with a BPR ranking loss;
//! * [`infer`] is the serving-time per-node walk ([`infer_nodes`]): one
//!   deduplicating recursion generic over the model view, instantiated for
//!   `f64` ([`NodeModel`], [`predict_nodes`]) and `f32` ([`InferModel32`]
//!   from [`precision`], [`predict_nodes_f32`]).
//!
//! Training and prediction report timings, per-epoch loss curves and
//! sampler statistics through `relgraph-obs` when a sink is installed;
//! the per-node walk reports `gnn.infer.{seeds,evals,store_hits}` and the
//! `gnn.infer` span in every precision.
//!
//! ## Example
//!
//! ```
//! use relgraph_gnn::{train_node_model, TaskKind, TrainConfig};
//! use relgraph_graph::{HeteroGraphBuilder, Seed};
//!
//! // Ten users; the first five own an item, the rest own none.
//! let mut b = HeteroGraphBuilder::new();
//! let user = b.add_node_type("user", 10);
//! let item = b.add_node_type("item", 5);
//! let owns = b.add_edge_type("owns", user, item);
//! for u in 0..5 {
//!     b.add_edge(owns, u, u, 1);
//! }
//! let g = b.finish().unwrap();
//!
//! let examples: Vec<(Seed, f64)> = (0..10)
//!     .map(|u| {
//!         let seed = Seed { node_type: user, node: u, time: 10 };
//!         (seed, if u < 5 { 1.0 } else { 0.0 })
//!     })
//!     .collect();
//! let cfg = TrainConfig {
//!     epochs: 4,
//!     fanouts: vec![4],
//!     hidden_dim: 8,
//!     ..Default::default()
//! };
//! let model = train_node_model(&g, TaskKind::Binary, &examples, &[], &cfg).unwrap();
//! let probs = model.predict(&g, &[examples[0].0, examples[9].0]);
//! assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
//! ```

pub mod batch;
pub mod error;
pub mod infer;
pub mod model;
pub mod precision;
pub mod recommend;
pub mod sage;
pub mod train;

pub use batch::{build_batch, Batch};
pub use error::{GnnError, GnnResult};
/// [`NoCache`] under the name `f32` call sites spell: the unit struct
/// stores nothing in any element type.
pub use infer::NoCache as NoCache32;
pub use infer::{
    infer_nodes, predict_nodes, predict_nodes_f32, Element, EmbeddingStore, InferModel, ModelSpec,
    NoCache,
};
pub use model::{GnnConfig, HeteroGnn};
pub use precision::{InferModel32, Precision};
pub use recommend::{train_two_tower, TwoTowerConfig, TwoTowerModel};
pub use sage::Aggregation;
pub use train::{
    train_multiclass_model, train_node_model, ModelState, MulticlassModel, NodeModel, TaskKind,
    TrainConfig, TrainReport,
};
