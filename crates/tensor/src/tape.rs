//! Define-by-run reverse-mode autodiff over [`Tensor`]s.
//!
//! A [`Graph`] is a tape of eagerly-evaluated operations; [`Var`] indexes a
//! node. Calling [`Graph::backward`] on a scalar node fills the gradient of
//! every node that (transitively) requires one.
//!
//! The op set is a closed enum so every backward rule is visible in one
//! `match` and individually gradient-checked (see [`crate::gradcheck`]).
//!
//! ## Tape arena
//!
//! A `Graph` owns a scratch-buffer pool: [`Graph::reset`] clears the tape
//! for the next minibatch while recycling every node's value and gradient
//! buffer, so steady-state training performs almost no allocator traffic.
//! Pooled buffers are zero-filled on reuse ([`Tensor::from_buffer`]), which
//! makes a recycled tensor indistinguishable from a fresh
//! [`Tensor::zeros`] — reuse can never change results.

use crate::error::{TensorError, TensorResult};
use crate::kernels::ActKind;
use crate::tensor::Tensor;

/// Maximum number of scratch buffers retained across [`Graph::reset`].
/// Typical minibatch tapes hold well under this many nodes; the cap bounds
/// memory for pathological tapes.
const POOL_MAX_BUFFERS: usize = 256;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// The operation that produced a node.
#[derive(Debug, Clone)]
pub enum Op {
    /// Differentiable input (parameter or feature tensor).
    Leaf,
    /// Non-differentiable input (targets, masks).
    Constant,
    /// Matrix product.
    MatMul(Var, Var),
    /// Elementwise sum of same-shape tensors.
    Add(Var, Var),
    /// Elementwise difference.
    Sub(Var, Var),
    /// Elementwise (Hadamard) product.
    Mul(Var, Var),
    /// Multiply by a compile-time scalar.
    Scale(Var, f64),
    /// Add a `1×d` row vector to every row of an `n×d` tensor.
    AddRow(Var, Var),
    /// Fused linear layer `act(x·w + b)` evaluated in one kernel pass;
    /// bit-identical to the `MatMul → AddRow → activation` composition.
    LinearAct {
        /// Input activations (`m×k`).
        x: Var,
        /// Weight matrix (`k×n`).
        w: Var,
        /// Bias row (`1×n`).
        b: Var,
        /// Fused activation.
        act: ActKind,
    },
    /// Rectified linear unit.
    Relu(Var),
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(Var, f64),
    /// Logistic sigmoid.
    Sigmoid(Var),
    /// Hyperbolic tangent.
    Tanh(Var),
    /// `ln(1+e^x)`, numerically stabilized.
    Softplus(Var),
    /// Select rows by index (with repetition) from an `n×d` tensor.
    GatherRows(Var, Vec<usize>),
    /// Sum rows into `num_segments` buckets: `out[seg[i]] += in[i]`.
    SegmentSum {
        input: Var,
        segments: Vec<usize>,
        num_segments: usize,
    },
    /// Mean of rows per bucket (empty buckets stay zero).
    SegmentMean {
        input: Var,
        segments: Vec<usize>,
        num_segments: usize,
    },
    /// Columnwise max of rows per bucket (empty buckets stay zero);
    /// gradient flows to the (first) argmax row per (bucket, column).
    SegmentMax {
        input: Var,
        segments: Vec<usize>,
        num_segments: usize,
    },
    /// Concatenate tensors with equal row counts along columns.
    ConcatCols(Vec<Var>),
    /// Sum of all elements (`1×1`).
    SumAll(Var),
    /// Mean of all elements (`1×1`).
    MeanAll(Var),
    /// Row-wise log-softmax.
    LogSoftmax(Var),
    /// Elementwise Huber loss between prediction and target.
    Huber { pred: Var, target: Var, delta: f64 },
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
    requires_grad: bool,
}

/// A tape of eagerly-evaluated tensor operations supporting reverse-mode
/// differentiation. Create one per training loop and [`Graph::reset`] it
/// between forward passes to reuse its buffers.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Recycled backing buffers from previous tapes (see [`Graph::reset`]),
    /// sorted by capacity.
    pool: Vec<Vec<f64>>,
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clear the tape for the next forward pass, recycling every node's
    /// value and gradient buffer into the scratch pool (and keeping the
    /// node vector's capacity). Results are unaffected: pooled buffers are
    /// zero-filled on reuse, exactly like a fresh allocation.
    pub fn reset(&mut self) {
        let Graph { nodes, pool } = self;
        for node in nodes.drain(..) {
            recycle(pool, node.value);
            if let Some(g) = node.grad {
                recycle(pool, g);
            }
        }
    }

    /// A zeroed `rows×cols` tensor from the tape's buffer pool, for the
    /// caller to fill and insert with [`Graph::constant`] or
    /// [`Graph::leaf`]; [`Graph::reset`] then recycles its buffer.
    pub fn alloc(&mut self, rows: usize, cols: usize) -> Tensor {
        alloc_from(&mut self.pool, rows, cols)
    }

    /// Insert a differentiable leaf whose value is copied from `t` into a
    /// pooled buffer — the allocation-free alternative to
    /// `leaf(t.clone())` for per-batch parameter binding.
    pub fn leaf_copied(&mut self, t: &Tensor) -> Var {
        let v = self.copied(t);
        self.leaf(v)
    }

    /// Insert a constant whose value is copied from `t` into a pooled
    /// buffer.
    pub fn constant_copied(&mut self, t: &Tensor) -> Var {
        let v = self.copied(t);
        self.constant(v)
    }

    fn copied(&mut self, t: &Tensor) -> Tensor {
        let (r, c) = t.shape();
        let mut v = self.alloc(r, c);
        v.data_mut().copy_from_slice(t.data());
        v
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Gradient of a node, if `backward` has produced one.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Insert a differentiable leaf (parameter / input).
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Insert a constant (no gradient is computed for it).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Constant, false)
    }

    /// Matrix product `a × b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.try_matmul(a, b).expect("matmul shape mismatch")
    }

    /// Checked matrix product.
    pub fn try_matmul(&mut self, a: Var, b: Var) -> TensorResult<Var> {
        let (ar, ac) = self.value(a).shape();
        let (br, bc) = self.value(b).shape();
        if ac != br {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: (ar, ac),
                rhs: (br, bc),
            });
        }
        let mut v = self.alloc(ar, bc);
        self.value(a).matmul_into(self.value(b), &mut v);
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(v, Op::MatMul(a, b), rg))
    }

    /// Fused linear layer `act(x·w + b)` — one kernel pass instead of the
    /// three-node `matmul → add_row → activation` chain, with bit-identical
    /// values and gradients.
    pub fn linear_act(&mut self, x: Var, w: Var, b: Var, act: ActKind) -> Var {
        self.try_linear_act(x, w, b, act)
            .expect("linear_act shape mismatch")
    }

    /// Checked fused linear layer.
    pub fn try_linear_act(&mut self, x: Var, w: Var, b: Var, act: ActKind) -> TensorResult<Var> {
        let (xr, xc) = self.value(x).shape();
        let (wr, wc) = self.value(w).shape();
        let (br, bc) = self.value(b).shape();
        if xc != wr {
            return Err(TensorError::ShapeMismatch {
                op: "linear_act",
                lhs: (xr, xc),
                rhs: (wr, wc),
            });
        }
        if br != 1 || bc != wc {
            return Err(TensorError::ShapeMismatch {
                op: "linear_act",
                lhs: (xr, wc),
                rhs: (br, bc),
            });
        }
        let mut v = self.alloc(xr, wc);
        self.value(x)
            .matmul_bias_act_into(self.value(w), self.value(b), act, &mut v);
        let rg = self.rg(x) || self.rg(w) || self.rg(b);
        Ok(self.push(v, Op::LinearAct { x, w, b, act }, rg))
    }

    /// Pooled elementwise unary op: `out = f(value(a))`.
    fn unary(&mut self, a: Var, f: impl Fn(f64) -> f64, op: Op) -> Var {
        let Graph { nodes, pool } = &mut *self;
        let v = map_pool(pool, &nodes[a.0].value, f);
        let rg = nodes[a.0].requires_grad;
        self.push(v, op, rg)
    }

    fn binary_same_shape(
        &mut self,
        op_name: &'static str,
        a: Var,
        b: Var,
        f: impl Fn(f64, f64) -> f64,
        mk: impl Fn(Var, Var) -> Op,
    ) -> TensorResult<Var> {
        if self.value(a).shape() != self.value(b).shape() {
            return Err(TensorError::ShapeMismatch {
                op: op_name,
                lhs: self.value(a).shape(),
                rhs: self.value(b).shape(),
            });
        }
        let Graph { nodes, pool } = &mut *self;
        let v = zip_pool(pool, &nodes[a.0].value, &nodes[b.0].value, f);
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(v, mk(a, b), rg))
    }

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.binary_same_shape("add", a, b, |x, y| x + y, Op::Add)
            .expect("add shape mismatch")
    }

    /// Elementwise `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.binary_same_shape("sub", a, b, |x, y| x - y, Op::Sub)
            .expect("sub shape mismatch")
    }

    /// Elementwise `a * b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.binary_same_shape("mul", a, b, |x, y| x * y, Op::Mul)
            .expect("mul shape mismatch")
    }

    /// `a * c` for scalar constant `c`.
    pub fn scale(&mut self, a: Var, c: f64) -> Var {
        self.unary(a, move |x| x * c, Op::Scale(a, c))
    }

    /// Add row vector `b` (`1×d`) to every row of `a` (`n×d`).
    pub fn add_row(&mut self, a: Var, b: Var) -> Var {
        self.try_add_row(a, b).expect("add_row shape mismatch")
    }

    /// Checked broadcasting row add.
    pub fn try_add_row(&mut self, a: Var, b: Var) -> TensorResult<Var> {
        let (ar, ac) = self.value(a).shape();
        let (br, bc) = self.value(b).shape();
        if br != 1 || bc != ac {
            return Err(TensorError::ShapeMismatch {
                op: "add_row",
                lhs: (ar, ac),
                rhs: (br, bc),
            });
        }
        let mut v = self.alloc(ar, ac);
        for i in 0..ar {
            let src = self.nodes[a.0].value.row(i);
            let brow = self.nodes[b.0].value.row(0);
            for ((x, &av), &bv) in v.row_mut(i).iter_mut().zip(src).zip(brow) {
                *x = av + bv;
            }
        }
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(v, Op::AddRow(a, b), rg))
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        self.unary(a, |x| x.max(0.0), Op::Relu(a))
    }

    /// Elementwise leaky ReLU.
    pub fn leaky_relu(&mut self, a: Var, slope: f64) -> Var {
        self.unary(
            a,
            move |x| if x > 0.0 { x } else { slope * x },
            Op::LeakyRelu(a, slope),
        )
    }

    /// Elementwise sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.unary(a, sigmoid, Op::Sigmoid(a))
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.unary(a, f64::tanh, Op::Tanh(a))
    }

    /// Elementwise softplus `ln(1+e^x)`.
    pub fn softplus(&mut self, a: Var) -> Var {
        self.unary(a, softplus, Op::Softplus(a))
    }

    /// Gather rows of `a` by `indices` (repetition allowed).
    pub fn gather_rows(&mut self, a: Var, indices: Vec<usize>) -> TensorResult<Var> {
        let (n, d) = self.value(a).shape();
        if let Some(&bad) = indices.iter().find(|&&i| i >= n) {
            return Err(TensorError::IndexOutOfRange {
                op: "gather_rows",
                index: bad,
                bound: n,
            });
        }
        let mut v = self.alloc(indices.len(), d);
        for (r, &i) in indices.iter().enumerate() {
            v.row_mut(r).copy_from_slice(self.nodes[a.0].value.row(i));
        }
        let rg = self.rg(a);
        Ok(self.push(v, Op::GatherRows(a, indices), rg))
    }

    /// Sum rows of `a` into `num_segments` buckets keyed by `segments`.
    pub fn segment_sum(
        &mut self,
        a: Var,
        segments: Vec<usize>,
        num_segments: usize,
    ) -> TensorResult<Var> {
        let (n, d) = self.value(a).shape();
        if segments.len() != n {
            return Err(TensorError::ShapeMismatch {
                op: "segment_sum",
                lhs: (n, d),
                rhs: (segments.len(), 1),
            });
        }
        if let Some(&bad) = segments.iter().find(|&&s| s >= num_segments) {
            return Err(TensorError::IndexOutOfRange {
                op: "segment_sum",
                index: bad,
                bound: num_segments,
            });
        }
        let mut v = self.alloc(num_segments, d);
        for (i, &s) in segments.iter().enumerate() {
            let src = self.nodes[a.0].value.row(i);
            for (x, &y) in v.row_mut(s).iter_mut().zip(src) {
                *x += y;
            }
        }
        let rg = self.rg(a);
        Ok(self.push(
            v,
            Op::SegmentSum {
                input: a,
                segments,
                num_segments,
            },
            rg,
        ))
    }

    /// Mean of rows of `a` per bucket (empty buckets are zero rows).
    pub fn segment_mean(
        &mut self,
        a: Var,
        segments: Vec<usize>,
        num_segments: usize,
    ) -> TensorResult<Var> {
        let (n, d) = self.value(a).shape();
        if segments.len() != n {
            return Err(TensorError::ShapeMismatch {
                op: "segment_mean",
                lhs: (n, d),
                rhs: (segments.len(), 1),
            });
        }
        if let Some(&bad) = segments.iter().find(|&&s| s >= num_segments) {
            return Err(TensorError::IndexOutOfRange {
                op: "segment_mean",
                index: bad,
                bound: num_segments,
            });
        }
        let mut v = self.alloc(num_segments, d);
        let mut counts = vec![0usize; num_segments];
        for (i, &s) in segments.iter().enumerate() {
            counts[s] += 1;
            let src = self.nodes[a.0].value.row(i);
            for (x, &y) in v.row_mut(s).iter_mut().zip(src) {
                *x += y;
            }
        }
        for (s, &c) in counts.iter().enumerate() {
            if c > 1 {
                let inv = 1.0 / c as f64;
                for x in v.row_mut(s) {
                    *x *= inv;
                }
            }
        }
        let rg = self.rg(a);
        Ok(self.push(
            v,
            Op::SegmentMean {
                input: a,
                segments,
                num_segments,
            },
            rg,
        ))
    }

    /// Columnwise max of rows of `a` per bucket (empty buckets are zero
    /// rows — callers should ensure features are non-negative or treat
    /// empty buckets separately).
    pub fn segment_max(
        &mut self,
        a: Var,
        segments: Vec<usize>,
        num_segments: usize,
    ) -> TensorResult<Var> {
        let (n, d) = self.value(a).shape();
        if segments.len() != n {
            return Err(TensorError::ShapeMismatch {
                op: "segment_max",
                lhs: (n, d),
                rhs: (segments.len(), 1),
            });
        }
        if let Some(&bad) = segments.iter().find(|&&s| s >= num_segments) {
            return Err(TensorError::IndexOutOfRange {
                op: "segment_max",
                index: bad,
                bound: num_segments,
            });
        }
        let mut v = self.alloc(num_segments, d);
        let mut seen = vec![false; num_segments];
        for (i, &s) in segments.iter().enumerate() {
            let src = self.nodes[a.0].value.row(i);
            if !seen[s] {
                v.row_mut(s).copy_from_slice(src);
                seen[s] = true;
            } else {
                for (x, &y) in v.row_mut(s).iter_mut().zip(src) {
                    if y > *x {
                        *x = y;
                    }
                }
            }
        }
        let rg = self.rg(a);
        Ok(self.push(
            v,
            Op::SegmentMax {
                input: a,
                segments,
                num_segments,
            },
            rg,
        ))
    }

    /// Concatenate along columns (all inputs must share the row count).
    pub fn concat_cols(&mut self, parts: Vec<Var>) -> TensorResult<Var> {
        assert!(!parts.is_empty(), "concat_cols needs at least one input");
        let rows = self.value(parts[0]).rows();
        let mut total_cols = 0;
        for &p in &parts {
            let (r, c) = self.value(p).shape();
            if r != rows {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_cols",
                    lhs: (rows, 0),
                    rhs: (r, c),
                });
            }
            total_cols += c;
        }
        let mut v = self.alloc(rows, total_cols);
        let mut off = 0;
        for &p in &parts {
            let t = &self.nodes[p.0].value;
            let c = t.cols();
            for i in 0..rows {
                let dst_start = i * total_cols + off;
                v.data_mut()[dst_start..dst_start + c].copy_from_slice(t.row(i));
            }
            off += c;
        }
        let rg = parts.iter().any(|&p| self.rg(p));
        Ok(self.push(v, Op::ConcatCols(parts), rg))
    }

    /// Sum of all elements (scalar).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum());
        let rg = self.rg(a);
        self.push(v, Op::SumAll(a), rg)
    }

    /// Mean of all elements (scalar).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let n = self.value(a).len().max(1) as f64;
        let v = Tensor::scalar(self.value(a).sum() / n);
        let rg = self.rg(a);
        self.push(v, Op::MeanAll(a), rg)
    }

    /// Row-wise log-softmax.
    pub fn log_softmax(&mut self, a: Var) -> Var {
        let (n, d) = self.value(a).shape();
        let mut v = self.alloc(n, d);
        for i in 0..n {
            let row = self.nodes[a.0].value.row(i);
            let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let lse = m + row.iter().map(|&x| (x - m).exp()).sum::<f64>().ln();
            for (j, &x) in row.iter().enumerate() {
                v.set(i, j, x - lse);
            }
        }
        let rg = self.rg(a);
        self.push(v, Op::LogSoftmax(a), rg)
    }

    /// Elementwise Huber loss `h_δ(pred - target)`.
    pub fn huber(&mut self, pred: Var, target: Var, delta: f64) -> TensorResult<Var> {
        if self.value(pred).shape() != self.value(target).shape() {
            return Err(TensorError::ShapeMismatch {
                op: "huber",
                lhs: self.value(pred).shape(),
                rhs: self.value(target).shape(),
            });
        }
        let Graph { nodes, pool } = &mut *self;
        let v = zip_pool(
            pool,
            &nodes[pred.0].value,
            &nodes[target.0].value,
            |p, t| {
                let e = p - t;
                if e.abs() <= delta {
                    0.5 * e * e
                } else {
                    delta * (e.abs() - 0.5 * delta)
                }
            },
        );
        let rg = self.rg(pred) || self.rg(target);
        Ok(self.push(
            v,
            Op::Huber {
                pred,
                target,
                delta,
            },
            rg,
        ))
    }

    /// Run reverse-mode differentiation from the scalar node `loss`,
    /// populating gradients for every grad-requiring ancestor.
    ///
    /// The sweep borrows each node's gradient and op in place (children
    /// always have smaller indices, so `split_at_mut` separates the node
    /// being differentiated from the ancestors it accumulates into) — no
    /// per-node gradient or op clones.
    pub fn backward(&mut self, loss: Var) -> TensorResult<()> {
        let shape = self.value(loss).shape();
        if shape != (1, 1) {
            return Err(TensorError::NonScalarLoss { shape });
        }
        let Graph { nodes, pool } = &mut *self;
        nodes[loss.0].grad = Some(Tensor::scalar(1.0));
        for idx in (0..=loss.0).rev() {
            let (anc, rest) = nodes.split_at_mut(idx);
            let node = &rest[0];
            if !node.requires_grad {
                continue;
            }
            let Some(g) = node.grad.as_ref() else {
                continue;
            };
            match &node.op {
                Op::Leaf | Op::Constant => {}
                Op::MatMul(a, b) => {
                    if anc[a.0].requires_grad {
                        // dA = g·Bᵀ, fused (no transpose materialized).
                        let mut da = alloc_from(pool, g.rows(), anc[b.0].value.rows());
                        g.matmul_nt_into(&anc[b.0].value, &mut da);
                        accumulate(anc, pool, *a, da);
                    }
                    if anc[b.0].requires_grad {
                        // dB = Aᵀ·g, fused.
                        let mut db = alloc_from(pool, anc[a.0].value.cols(), g.cols());
                        anc[a.0].value.matmul_tn_into(g, &mut db);
                        accumulate(anc, pool, *b, db);
                    }
                }
                Op::LinearAct { x, w, b, act } => {
                    // dZ (gradient at the pre-activation `x·w + b`) uses the
                    // exact per-element formulas of the standalone
                    // Relu/LeakyRelu/Sigmoid/Tanh backward rules, evaluated
                    // from the stored output, so gradients stay bit-identical
                    // to the `MatMul → AddRow → activation` composition.
                    // (For Relu/LeakyRelu with positive slope, `out > 0 ⇔
                    // pre-activation > 0`, so gating on the output is exact.)
                    let dz_owned: Option<Tensor> = match act {
                        ActKind::Identity => None,
                        ActKind::Relu => Some(zip_pool(pool, g, &node.value, |gx, o| {
                            if o > 0.0 {
                                gx
                            } else {
                                0.0
                            }
                        })),
                        ActKind::LeakyRelu(s) => {
                            let s = *s;
                            Some(zip_pool(pool, g, &node.value, move |gx, o| {
                                if o > 0.0 {
                                    gx
                                } else {
                                    s * gx
                                }
                            }))
                        }
                        ActKind::Sigmoid => {
                            Some(zip_pool(pool, g, &node.value, |gx, o| gx * o * (1.0 - o)))
                        }
                        ActKind::Tanh => {
                            Some(zip_pool(pool, g, &node.value, |gx, o| gx * (1.0 - o * o)))
                        }
                    };
                    let dz: &Tensor = dz_owned.as_ref().unwrap_or(g);
                    if anc[x.0].requires_grad {
                        let mut dx = alloc_from(pool, dz.rows(), anc[w.0].value.rows());
                        dz.matmul_nt_into(&anc[w.0].value, &mut dx);
                        accumulate(anc, pool, *x, dx);
                    }
                    if anc[w.0].requires_grad {
                        let mut dw = alloc_from(pool, anc[x.0].value.cols(), dz.cols());
                        anc[x.0].value.matmul_tn_into(dz, &mut dw);
                        accumulate(anc, pool, *w, dw);
                    }
                    if anc[b.0].requires_grad {
                        let (n, d) = dz.shape();
                        let mut col = alloc_from(pool, 1, d);
                        for i in 0..n {
                            for (cx, &gv) in col.data_mut().iter_mut().zip(dz.row(i)) {
                                *cx += gv;
                            }
                        }
                        accumulate(anc, pool, *b, col);
                    }
                    if let Some(t) = dz_owned {
                        recycle(pool, t);
                    }
                }
                Op::Add(a, b) => {
                    accumulate_ref(anc, pool, *a, g);
                    accumulate_ref(anc, pool, *b, g);
                }
                Op::Sub(a, b) => {
                    accumulate_ref(anc, pool, *a, g);
                    if anc[b.0].requires_grad {
                        let d = map_pool(pool, g, |x| -x);
                        accumulate(anc, pool, *b, d);
                    }
                }
                Op::Mul(a, b) => {
                    if anc[a.0].requires_grad {
                        let d = zip_pool(pool, g, &anc[b.0].value, |x, y| x * y);
                        accumulate(anc, pool, *a, d);
                    }
                    if anc[b.0].requires_grad {
                        let d = zip_pool(pool, g, &anc[a.0].value, |x, y| x * y);
                        accumulate(anc, pool, *b, d);
                    }
                }
                Op::Scale(a, c) => {
                    if anc[a.0].requires_grad {
                        let d = map_pool(pool, g, |x| x * c);
                        accumulate(anc, pool, *a, d);
                    }
                }
                Op::AddRow(a, b) => {
                    accumulate_ref(anc, pool, *a, g);
                    if anc[b.0].requires_grad {
                        let (n, d) = g.shape();
                        let mut col = alloc_from(pool, 1, d);
                        for i in 0..n {
                            for (x, &gv) in col.data_mut().iter_mut().zip(g.row(i)) {
                                *x += gv;
                            }
                        }
                        accumulate(anc, pool, *b, col);
                    }
                }
                Op::Relu(a) => {
                    let d = zip_pool(
                        pool,
                        g,
                        &anc[a.0].value,
                        |gx, x| {
                            if x > 0.0 {
                                gx
                            } else {
                                0.0
                            }
                        },
                    );
                    accumulate(anc, pool, *a, d);
                }
                Op::LeakyRelu(a, slope) => {
                    let slope = *slope;
                    let d = zip_pool(pool, g, &anc[a.0].value, move |gx, x| {
                        if x > 0.0 {
                            gx
                        } else {
                            slope * gx
                        }
                    });
                    accumulate(anc, pool, *a, d);
                }
                Op::Sigmoid(a) => {
                    let d = zip_pool(pool, g, &node.value, |gx, s| gx * s * (1.0 - s));
                    accumulate(anc, pool, *a, d);
                }
                Op::Tanh(a) => {
                    let d = zip_pool(pool, g, &node.value, |gx, t| gx * (1.0 - t * t));
                    accumulate(anc, pool, *a, d);
                }
                Op::Softplus(a) => {
                    let d = zip_pool(pool, g, &anc[a.0].value, |gx, x| gx * sigmoid(x));
                    accumulate(anc, pool, *a, d);
                }
                Op::GatherRows(a, indices) => {
                    let (n, d) = anc[a.0].value.shape();
                    let mut da = alloc_from(pool, n, d);
                    for (r, &i) in indices.iter().enumerate() {
                        for (x, &y) in da.row_mut(i).iter_mut().zip(g.row(r)) {
                            *x += y;
                        }
                    }
                    accumulate(anc, pool, *a, da);
                }
                Op::SegmentSum {
                    input, segments, ..
                } => {
                    let (n, d) = anc[input.0].value.shape();
                    let mut da = alloc_from(pool, n, d);
                    for (i, &s) in segments.iter().enumerate() {
                        da.row_mut(i).copy_from_slice(g.row(s));
                    }
                    accumulate(anc, pool, *input, da);
                }
                Op::SegmentMean {
                    input,
                    segments,
                    num_segments,
                } => {
                    let (n, d) = anc[input.0].value.shape();
                    let mut counts = vec![0usize; *num_segments];
                    for &s in segments {
                        counts[s] += 1;
                    }
                    let mut da = alloc_from(pool, n, d);
                    for (i, &s) in segments.iter().enumerate() {
                        let inv = 1.0 / counts[s] as f64;
                        for (x, &y) in da.row_mut(i).iter_mut().zip(g.row(s)) {
                            *x = y * inv;
                        }
                    }
                    accumulate(anc, pool, *input, da);
                }
                Op::SegmentMax {
                    input,
                    segments,
                    num_segments,
                } => {
                    let value = &anc[input.0].value;
                    let (n, d) = value.shape();
                    // Recompute the argmax row per (segment, column).
                    let mut arg: Vec<Vec<Option<usize>>> = vec![vec![None; d]; *num_segments];
                    for (i, &s) in segments.iter().enumerate() {
                        for (c, slot) in arg[s].iter_mut().enumerate() {
                            let x = value.get(i, c);
                            match *slot {
                                None => *slot = Some(i),
                                Some(j) if x > value.get(j, c) => *slot = Some(i),
                                _ => {}
                            }
                        }
                    }
                    let mut da = alloc_from(pool, n, d);
                    for (s, cols) in arg.iter().enumerate() {
                        for (c, &winner) in cols.iter().enumerate() {
                            if let Some(i) = winner {
                                da.set(i, c, da.get(i, c) + g.get(s, c));
                            }
                        }
                    }
                    accumulate(anc, pool, *input, da);
                }
                Op::ConcatCols(parts) => {
                    let rows = g.rows();
                    let mut off = 0;
                    for &p in parts {
                        let c = anc[p.0].value.cols();
                        if anc[p.0].requires_grad {
                            let mut dp = alloc_from(pool, rows, c);
                            for i in 0..rows {
                                dp.row_mut(i).copy_from_slice(&g.row(i)[off..off + c]);
                            }
                            accumulate(anc, pool, p, dp);
                        }
                        off += c;
                    }
                }
                Op::SumAll(a) => {
                    let (n, d) = anc[a.0].value.shape();
                    let mut da = alloc_from(pool, n, d);
                    da.data_mut().fill(g.item());
                    accumulate(anc, pool, *a, da);
                }
                Op::MeanAll(a) => {
                    let (n, d) = anc[a.0].value.shape();
                    let scale = g.item() / (n * d).max(1) as f64;
                    let mut da = alloc_from(pool, n, d);
                    da.data_mut().fill(scale);
                    accumulate(anc, pool, *a, da);
                }
                Op::LogSoftmax(a) => {
                    // dL/dx = g - softmax(x) * rowsum(g)
                    let y = &node.value;
                    let (n, d) = y.shape();
                    let mut da = alloc_from(pool, n, d);
                    for i in 0..n {
                        let gsum: f64 = g.row(i).iter().sum();
                        for j in 0..d {
                            da.set(i, j, g.get(i, j) - y.get(i, j).exp() * gsum);
                        }
                    }
                    accumulate(anc, pool, *a, da);
                }
                Op::Huber {
                    pred,
                    target,
                    delta,
                } => {
                    let delta = *delta;
                    let clip = zip_pool(pool, &anc[pred.0].value, &anc[target.0].value, |p, t| {
                        (p - t).clamp(-delta, delta)
                    });
                    if anc[pred.0].requires_grad {
                        let d = zip_pool(pool, g, &clip, |gx, c| gx * c);
                        accumulate(anc, pool, *pred, d);
                    }
                    if anc[target.0].requires_grad {
                        let d = zip_pool(pool, g, &clip, |gx, c| -gx * c);
                        accumulate(anc, pool, *target, d);
                    }
                    recycle(pool, clip);
                }
            }
        }
        Ok(())
    }
}

/// Take a zeroed `rows×cols` tensor from `pool`: the smallest pooled buffer
/// whose capacity covers it, else the largest pooled buffer (grown), else a
/// fresh allocation. Best fit keeps a long-lived pool at the tape's working
/// set: a last-in pick hands the largest buffer to a small tensor and grows
/// a small one for the next large tensor, until every pooled buffer has the
/// largest tensor's capacity. Pooled buffers are cleared and zero-refilled
/// by [`Tensor::from_buffer`], so the result is indistinguishable from
/// [`Tensor::zeros`].
fn alloc_from(pool: &mut Vec<Vec<f64>>, rows: usize, cols: usize) -> Tensor {
    if pool.is_empty() {
        return Tensor::zeros(rows, cols);
    }
    // `pool` is sorted by capacity: the first buffer that covers is the
    // best fit, and the last one is the largest.
    let fit = pool.partition_point(|buf| buf.capacity() < rows * cols);
    Tensor::from_buffer(rows, cols, pool.remove(fit.min(pool.len() - 1)))
}

/// Return a tensor's backing buffer to `pool`, keeping it sorted by capacity.
fn recycle(pool: &mut Vec<Vec<f64>>, t: Tensor) {
    if pool.len() < POOL_MAX_BUFFERS {
        let buf = t.into_data();
        if buf.capacity() > 0 {
            let at = pool.partition_point(|b| b.capacity() < buf.capacity());
            pool.insert(at, buf);
        }
    }
}

/// Pooled elementwise map: `out[i] = f(a[i])`.
fn map_pool(pool: &mut Vec<Vec<f64>>, a: &Tensor, f: impl Fn(f64) -> f64) -> Tensor {
    let (r, c) = a.shape();
    let mut out = alloc_from(pool, r, c);
    for (o, &x) in out.data_mut().iter_mut().zip(a.data()) {
        *o = f(x);
    }
    out
}

/// Pooled elementwise zip: `out[i] = f(a[i], b[i])` (shapes must agree).
fn zip_pool(
    pool: &mut Vec<Vec<f64>>,
    a: &Tensor,
    b: &Tensor,
    f: impl Fn(f64, f64) -> f64,
) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "zip_pool shapes must agree");
    let (r, c) = a.shape();
    let mut out = alloc_from(pool, r, c);
    for ((o, &x), &y) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
        *o = f(x, y);
    }
    out
}

/// Add `delta` into `v`'s gradient slot, taking ownership: the first
/// consumer moves the tensor in; later consumers add in place and recycle
/// the delta's buffer.
fn accumulate(nodes: &mut [Node], pool: &mut Vec<Vec<f64>>, v: Var, delta: Tensor) {
    if !nodes[v.0].requires_grad {
        recycle(pool, delta);
        return;
    }
    match &mut nodes[v.0].grad {
        Some(g) => {
            g.add_assign(&delta);
            recycle(pool, delta);
        }
        slot @ None => *slot = Some(delta),
    }
}

/// Like [`accumulate`], for a borrowed upstream gradient that flows through
/// unchanged (Add/Sub/AddRow): copies into a pooled buffer only when the
/// slot is empty.
fn accumulate_ref(nodes: &mut [Node], pool: &mut Vec<Vec<f64>>, v: Var, delta: &Tensor) {
    if !nodes[v.0].requires_grad {
        return;
    }
    match &mut nodes[v.0].grad {
        Some(g) => g.add_assign(delta),
        slot @ None => {
            let (r, c) = delta.shape();
            let mut d = alloc_from(pool, r, c);
            d.data_mut().copy_from_slice(delta.data());
            *slot = Some(d);
        }
    }
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically-stable `ln(1+e^x)`.
#[inline]
fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_chain_gradient() {
        // loss = mean((x*2)^2) over 1x2; d/dx = 4x (mean of 2 elements → 4x/2·…)
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[1.0, -3.0]]));
        let y = g.scale(x, 2.0);
        let sq = g.mul(y, y);
        let loss = g.mean_all(sq);
        g.backward(loss).unwrap();
        // loss = (4x²)/2 summed…  mean over 2 elements: d/dx_i = 8x_i/2 = 4x_i
        let grad = g.grad(x).unwrap();
        assert!((grad.get(0, 0) - 4.0).abs() < 1e-12);
        assert!((grad.get(0, 1) + 12.0).abs() < 1e-12);
    }

    #[test]
    fn matmul_gradients_match_closed_form() {
        // loss = sum(A·B); dA = 1·Bᵀ, dB = Aᵀ·1
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = g.leaf(Tensor::from_rows(&[&[5.0], &[6.0]]));
        let y = g.matmul(a, b);
        let loss = g.sum_all(y);
        g.backward(loss).unwrap();
        assert_eq!(
            g.grad(a).unwrap(),
            &Tensor::from_rows(&[&[5.0, 6.0], &[5.0, 6.0]])
        );
        assert_eq!(g.grad(b).unwrap(), &Tensor::from_rows(&[&[4.0], &[6.0]]));
    }

    #[test]
    fn constants_get_no_grad() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::scalar(2.0));
        let c = g.constant(Tensor::scalar(3.0));
        let y = g.mul(x, c);
        let loss = g.sum_all(y);
        g.backward(loss).unwrap();
        assert!(g.grad(c).is_none());
        assert_eq!(g.grad(x).unwrap().item(), 3.0);
    }

    #[test]
    fn shared_subexpression_accumulates() {
        // loss = sum(x + x) → dx = 2
        let mut g = Graph::new();
        let x = g.leaf(Tensor::scalar(1.5));
        let y = g.add(x, x);
        let loss = g.sum_all(y);
        g.backward(loss).unwrap();
        assert_eq!(g.grad(x).unwrap().item(), 2.0);
    }

    #[test]
    fn non_scalar_loss_rejected() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(2, 2));
        assert!(matches!(
            g.backward(x),
            Err(TensorError::NonScalarLoss { .. })
        ));
    }

    #[test]
    fn gather_and_segment_round_trip() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[
            &[1.0, 10.0],
            &[2.0, 20.0],
            &[3.0, 30.0],
        ]));
        let gathered = g.gather_rows(x, vec![2, 0, 2]).unwrap();
        assert_eq!(g.value(gathered).row(0), &[3.0, 30.0]);
        let summed = g.segment_sum(gathered, vec![0, 0, 1], 2).unwrap();
        assert_eq!(g.value(summed).row(0), &[4.0, 40.0]);
        assert_eq!(g.value(summed).row(1), &[3.0, 30.0]);
        let loss = g.sum_all(summed);
        g.backward(loss).unwrap();
        // Row 2 was gathered twice → gradient 2; row 0 once; row 1 never.
        let gx = g.grad(x).unwrap();
        assert_eq!(gx.row(0), &[1.0, 1.0]);
        assert_eq!(gx.row(1), &[0.0, 0.0]);
        assert_eq!(gx.row(2), &[2.0, 2.0]);
    }

    #[test]
    fn segment_mean_handles_empty_segments() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[2.0], &[4.0]]));
        let m = g.segment_mean(x, vec![0, 0], 3).unwrap();
        assert_eq!(g.value(m).row(0), &[3.0]);
        assert_eq!(g.value(m).row(1), &[0.0]);
        assert_eq!(g.value(m).row(2), &[0.0]);
        let loss = g.sum_all(m);
        g.backward(loss).unwrap();
        assert_eq!(g.grad(x).unwrap().row(0), &[0.5]);
    }

    #[test]
    fn concat_cols_splits_gradient() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_rows(&[&[1.0], &[2.0]]));
        let b = g.leaf(Tensor::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        let c = g.concat_cols(vec![a, b]).unwrap();
        assert_eq!(g.value(c).shape(), (2, 3));
        assert_eq!(g.value(c).row(1), &[2.0, 5.0, 6.0]);
        let w = g.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]]));
        let p = g.mul(c, w);
        let loss = g.sum_all(p);
        g.backward(loss).unwrap();
        assert_eq!(g.grad(a).unwrap(), &Tensor::from_rows(&[&[1.0], &[1.0]]));
        assert_eq!(
            g.grad(b).unwrap(),
            &Tensor::from_rows(&[&[2.0, 3.0], &[2.0, 3.0]])
        );
    }

    #[test]
    fn log_softmax_rows_sum_to_one_in_prob_space() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[
            &[1.0, 2.0, 3.0],
            &[1000.0, 0.0, -1000.0],
        ]));
        let y = g.log_softmax(x);
        for i in 0..2 {
            let p: f64 = g.value(y).row(i).iter().map(|&v| v.exp()).sum();
            assert!((p - 1.0).abs() < 1e-9, "row {i} sums to {p}");
        }
        assert!(g.value(y).all_finite());
    }

    #[test]
    fn shape_errors_are_reported() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::zeros(2, 3));
        let b = g.leaf(Tensor::zeros(2, 3));
        assert!(g.try_matmul(a, b).is_err());
        assert!(g.gather_rows(a, vec![5]).is_err());
        assert!(g.segment_sum(a, vec![0], 1).is_err());
        assert!(g.segment_sum(a, vec![9, 9], 1).is_err());
        let c = g.leaf(Tensor::zeros(3, 3));
        assert!(g.concat_cols(vec![a, c]).is_err());
        assert!(g.huber(a, c, 1.0).is_err());
        assert!(g.try_add_row(a, c).is_err());
    }

    #[test]
    fn huber_matches_quadratic_then_linear() {
        let mut g = Graph::new();
        let p = g.leaf(Tensor::from_rows(&[&[0.5, 3.0]]));
        let t = g.constant(Tensor::from_rows(&[&[0.0, 0.0]]));
        let h = g.huber(p, t, 1.0).unwrap();
        assert!((g.value(h).get(0, 0) - 0.125).abs() < 1e-12);
        assert!((g.value(h).get(0, 1) - 2.5).abs() < 1e-12);
        let loss = g.sum_all(h);
        g.backward(loss).unwrap();
        let grad = g.grad(p).unwrap();
        assert!((grad.get(0, 0) - 0.5).abs() < 1e-12);
        assert!((grad.get(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_reuses_buffers_without_changing_results() {
        let x0 = Tensor::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
        let w0 = Tensor::from_rows(&[&[0.3, -0.7, 0.1], &[0.9, 0.2, -0.4]]);
        let run = |g: &mut Graph| {
            let x = g.leaf_copied(&x0);
            let w = g.leaf_copied(&w0);
            let y = g.matmul(x, w);
            let z = g.tanh(y);
            let l = g.mean_all(z);
            g.backward(l).unwrap();
            (
                g.value(l).item(),
                g.grad(x).unwrap().clone(),
                g.grad(w).unwrap().clone(),
            )
        };
        let mut g = Graph::new();
        let first = run(&mut g);
        for _ in 0..3 {
            g.reset();
            assert!(g.is_empty());
            let again = run(&mut g);
            assert_eq!(first.0.to_bits(), again.0.to_bits());
            assert_eq!(first.1, again.1);
            assert_eq!(first.2, again.2);
        }
    }

    /// Take one pooled tensor per shape (checking it is zeroed), dirty it
    /// and keep it on the tape, so the next `reset` recycles every buffer.
    fn pass(g: &mut Graph, shapes: &[(usize, usize)]) {
        for &(r, c) in shapes {
            let mut t = g.alloc(r, c);
            assert_eq!(t, Tensor::zeros(r, c), "pooled {r}x{c} is not zeroed");
            t.data_mut().fill(7.0);
            g.constant(t);
        }
        g.reset();
    }

    fn pooled_capacity(g: &Graph) -> usize {
        g.pool.iter().map(Vec::capacity).sum()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn pool_holds_no_more_buffers_than_one_pass_keeps_live(
            passes in proptest::collection::vec(
                proptest::collection::vec((0usize..24, 0usize..24), 0..16),
                1..12,
            ),
            rounds in 1usize..4,
        ) {
            let mut g = Graph::new();
            let mut most_live = 0;
            for _ in 0..rounds {
                for shapes in &passes {
                    pass(&mut g, shapes);
                    most_live = most_live.max(shapes.len());
                    proptest::prop_assert!(g.pool.len() <= most_live);
                }
            }
        }
    }

    #[test]
    fn best_fit_pool_does_not_drift_to_the_largest_buffer() {
        // One large tensor visits every position among `k` small ones. A
        // last-in pick grows the small buffers to the large one's capacity
        // pass after pass; best fit keeps exactly one large buffer.
        let (k, small, large) = (6, (2, 3), (40, 50));
        let mut g = Graph::new();
        for round in 0..50 {
            let mut shapes = vec![small; k];
            shapes.insert(round % (k + 1), large);
            pass(&mut g, &shapes);
        }
        let bound = large.0 * large.1 + k * small.0 * small.1;
        assert!(
            pooled_capacity(&g) <= bound,
            "pool retains {} f64s, working set is {bound}",
            pooled_capacity(&g)
        );
    }

    #[test]
    fn linear_act_matches_unfused_composition_bitwise() {
        let x0 = Tensor::from_rows(&[&[1.0, -2.0, 0.25], &[0.5, 3.0, -1.5]]);
        let w0 = Tensor::from_rows(&[&[0.3, -0.7], &[0.9, 0.2], &[-0.1, 0.6]]);
        let b0 = Tensor::from_rows(&[&[0.05, -0.4]]);
        for act in [
            ActKind::Identity,
            ActKind::Relu,
            ActKind::LeakyRelu(0.01),
            ActKind::Sigmoid,
            ActKind::Tanh,
        ] {
            let mut gf = Graph::new();
            let (xf, wf, bf) = (
                gf.leaf_copied(&x0),
                gf.leaf_copied(&w0),
                gf.leaf_copied(&b0),
            );
            let yf = gf.linear_act(xf, wf, bf, act);
            let lf = gf.mean_all(yf);
            gf.backward(lf).unwrap();

            let mut gu = Graph::new();
            let (xu, wu, bu) = (
                gu.leaf_copied(&x0),
                gu.leaf_copied(&w0),
                gu.leaf_copied(&b0),
            );
            let mm = gu.matmul(xu, wu);
            let z = gu.add_row(mm, bu);
            let yu = match act {
                ActKind::Identity => z,
                ActKind::Relu => gu.relu(z),
                ActKind::LeakyRelu(s) => gu.leaky_relu(z, s),
                ActKind::Sigmoid => gu.sigmoid(z),
                ActKind::Tanh => gu.tanh(z),
            };
            let lu = gu.mean_all(yu);
            gu.backward(lu).unwrap();

            assert_eq!(gf.value(yf), gu.value(yu), "{act:?} forward");
            assert_eq!(gf.grad(xf).unwrap(), gu.grad(xu).unwrap(), "{act:?} dX");
            assert_eq!(gf.grad(wf).unwrap(), gu.grad(wu).unwrap(), "{act:?} dW");
            assert_eq!(gf.grad(bf).unwrap(), gu.grad(bu).unwrap(), "{act:?} db");
        }
    }

    #[test]
    fn linear_act_shape_errors() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(2, 3));
        let w = g.leaf(Tensor::zeros(3, 4));
        let bad_w = g.leaf(Tensor::zeros(2, 4));
        let b = g.leaf(Tensor::zeros(1, 4));
        let bad_b = g.leaf(Tensor::zeros(1, 3));
        assert!(g.try_linear_act(x, bad_w, b, ActKind::Relu).is_err());
        assert!(g.try_linear_act(x, w, bad_b, ActKind::Relu).is_err());
        assert!(g.try_linear_act(x, w, b, ActKind::Relu).is_ok());
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert!(sigmoid(-1000.0).abs() < 1e-300);
        assert!((softplus(1000.0) - 1000.0).abs() < 1e-9);
        assert!(softplus(-1000.0) >= 0.0);
    }

    #[test]
    fn training_gradcheck_stays_f64_tight() {
        // Guard: the training tape must still compute in f64. A central
        // finite-difference check at 1e-7 tolerance is unreachable by any
        // f32 compute path (ε₃₂ ≈ 6e-8 per rounding already eats it), so
        // this test fails if inference-precision plumbing ever leaks into
        // the autodiff forward.
        use crate::{Graph, Tensor};
        let x = Tensor::from_rows(&[&[0.3, -0.7, 0.2], &[0.9, 0.1, -0.4]]);
        let w = Tensor::from_rows(&[&[0.5, -0.2], &[0.8, 0.3], &[-0.6, 0.7]]);
        let b = Tensor::from_rows(&[&[0.05, -0.1]]);
        let loss_of = |wt: &Tensor| {
            let mut g = Graph::new();
            let xv = g.leaf(x.clone());
            let wv = g.leaf(wt.clone());
            let bv = g.leaf(b.clone());
            let y = g.linear_act(xv, wv, bv, ActKind::Tanh);
            let l = g.mean_all(y);
            g.value(l).item()
        };
        let mut g = Graph::new();
        let xv = g.leaf(x.clone());
        let wv = g.leaf(w.clone());
        let bv = g.leaf(b.clone());
        let y = g.linear_act(xv, wv, bv, ActKind::Tanh);
        let l = g.mean_all(y);
        g.backward(l).unwrap();
        let grad = g.grad(wv).unwrap().clone();
        let eps = 1e-6;
        for r in 0..3 {
            for c in 0..2 {
                let mut wp = w.clone();
                wp.set(r, c, w.get(r, c) + eps);
                let mut wm = w.clone();
                wm.set(r, c, w.get(r, c) - eps);
                let num = (loss_of(&wp) - loss_of(&wm)) / (2.0 * eps);
                assert!(
                    (num - grad.get(r, c)).abs() < 1e-7,
                    "training grad at ({r},{c}) is not f64-tight: numeric {num} vs tape {}",
                    grad.get(r, c)
                );
            }
        }
    }
}
