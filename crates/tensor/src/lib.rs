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
pub mod kernels;
pub mod kernels32;
pub mod tape;
pub mod tensor;

pub use error::{TensorError, TensorResult};
pub use kernels::ActKind;
pub use kernels32::{
    apply_act_f32, matmul_bias_act_f32, matmul_naive_f32, mm_packed_f32, pack_b_f32,
    stable_sigmoid_f32,
};
pub use tape::{Graph, Op, Var};
pub use tensor::Tensor;
