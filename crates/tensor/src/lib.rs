//! # relgraph-tensor
//!
//! Dense 2-D `f64` tensors and a small reverse-mode automatic
//! differentiation engine — the numeric substrate under `relgraph-nn` and
//! `relgraph-gnn`.
//!
//! The design is define-by-run: every mini-batch builds a fresh [`Graph`]
//! of operations over [`Tensor`] values, calls [`Graph::backward`] on a
//! scalar loss, and reads gradients back for its parameters. Operations are
//! a closed enum (no boxed closures), which keeps the engine easy to audit
//! and to test: every op has a finite-difference gradient check in
//! [`gradcheck`].
//!
//! Supported ops cover exactly what heterogeneous message passing needs:
//! matmul, broadcasting bias add, elementwise arithmetic, activations,
//! row gather, segment sum/mean (scatter-style neighborhood aggregation),
//! column concat, log-softmax, and scalar reductions.
//!
//! The packed-B matmul kernel, [`pack_b`] + [`mm_panel`], is written once
//! over the sealed [`Element`] trait: `f64` for training (the tape is `f64`
//! throughout) and `f32` for reduced-precision serving, which prepacks a
//! fitted model's narrowed weights once and calls the same kernel per node.
//!
//! ## Example
//!
//! ```
//! use relgraph_tensor::{Graph, Tensor};
//!
//! let mut g = Graph::new();
//! let x = g.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
//! let w = g.leaf(Tensor::from_rows(&[&[0.5], &[-0.5]]));
//! let y = g.matmul(x, w);
//! let loss = g.mean_all(y);
//! g.backward(loss).unwrap();
//! assert_eq!(g.value(loss).get(0, 0), (1.0 * 0.5 - 2.0 * 0.5 + 3.0 * 0.5 - 4.0 * 0.5) / 2.0);
//! assert_eq!(g.grad(w).unwrap().shape(), (2, 1));
//! ```

pub mod error;
pub mod gradcheck;
mod kernels;
pub mod tape;
pub mod tensor;

pub use error::{TensorError, TensorResult};
pub use kernels::{mm_panel, pack_b, ActKind, Element};
pub use tape::{Graph, Op, Var};
pub use tensor::Tensor;
