//! Layers: linear transforms and multi-layer perceptrons.
//!
//! Linear layers lower onto the tape's fused [`Graph::linear_act`] op — a
//! single `act(x·W + b)` kernel pass per layer instead of the three-node
//! `matmul → add_row → activation` chain, with bit-identical values and
//! gradients.

use relgraph_tensor::{ActKind, Graph, Tensor, Var};

use crate::init;
use crate::param::{Binding, ParamId, ParamSet};

/// Pointwise nonlinearity applied between layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// No activation.
    Identity,
    Relu,
    LeakyRelu(f64),
    Tanh,
    Sigmoid,
}

impl Activation {
    /// Apply this activation inside a graph.
    pub fn apply(self, g: &mut Graph, x: Var) -> Var {
        match self {
            Activation::Identity => x,
            Activation::Relu => g.relu(x),
            Activation::LeakyRelu(s) => g.leaky_relu(x, s),
            Activation::Tanh => g.tanh(x),
            Activation::Sigmoid => g.sigmoid(x),
        }
    }

    /// The tensor-kernel activation kind this lowers onto, for fusing into
    /// [`Graph::linear_act`].
    pub fn kind(self) -> ActKind {
        match self {
            Activation::Identity => ActKind::Identity,
            Activation::Relu => ActKind::Relu,
            Activation::LeakyRelu(s) => ActKind::LeakyRelu(s),
            Activation::Tanh => ActKind::Tanh,
            Activation::Sigmoid => ActKind::Sigmoid,
        }
    }
}

/// A dense layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Create with Xavier-uniform weights and zero bias, registering the
    /// parameters under `name` in `ps`.
    pub fn new(ps: &mut ParamSet, name: &str, in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = init::rng(seed);
        let w = ps.register(
            format!("{name}.w"),
            init::xavier_uniform(in_dim, out_dim, &mut rng),
        );
        let b = ps.register(format!("{name}.b"), Tensor::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The weight matrix's parameter handle — identifies this layer in
    /// tables kept beside the [`ParamSet`].
    pub fn weight_id(&self) -> ParamId {
        self.w
    }

    /// Borrow the weight matrix (`in_dim × out_dim`) from `ps` — the
    /// read-only export the tape-free serving path multiplies through.
    pub fn weight<'a>(&self, ps: &'a ParamSet) -> &'a Tensor {
        ps.value(self.w)
    }

    /// Borrow the bias row (`1 × out_dim`) from `ps`.
    pub fn bias<'a>(&self, ps: &'a ParamSet) -> &'a Tensor {
        ps.value(self.b)
    }

    /// Forward pass: binds the layer's parameters and returns `x·W + b`.
    pub fn forward(&self, g: &mut Graph, binding: &mut Binding, ps: &ParamSet, x: Var) -> Var {
        self.forward_act(g, binding, ps, x, Activation::Identity)
    }

    /// Forward pass with a fused activation: `act(x·W + b)` in one kernel
    /// pass (bias add and activation run in the matmul epilogue).
    pub fn forward_act(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        ps: &ParamSet,
        x: Var,
        act: Activation,
    ) -> Var {
        let w = binding.bind(g, ps, self.w);
        let b = binding.bind(g, ps, self.b);
        g.linear_act(x, w, b, act.kind())
    }
}

/// A stack of [`Linear`] layers with an activation between them (none after
/// the final layer).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Build an MLP with the given layer widths, e.g. `&[16, 32, 1]` is
    /// `16 → 32 → 1` with one hidden activation.
    ///
    /// # Panics
    /// Panics if fewer than two dims are given.
    pub fn new(ps: &mut ParamSet, dims: &[usize], activation: Activation, seed: u64) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                Linear::new(
                    ps,
                    &format!("mlp{i}"),
                    w[0],
                    w[1],
                    seed.wrapping_add(i as u64),
                )
            })
            .collect();
        Mlp { layers, activation }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, Linear::in_dim)
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::out_dim)
    }

    /// The layer stack, first to last — read-only access for precision
    /// down-conversion.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// The hidden activation (the final layer stays linear).
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Forward pass. Hidden layers fuse their activation into the linear
    /// kernel; the final layer stays linear.
    pub fn forward(&self, g: &mut Graph, binding: &mut Binding, ps: &ParamSet, x: Var) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i < last {
                self.activation
            } else {
                Activation::Identity
            };
            h = layer.forward_act(g, binding, ps, h, act);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss;
    use crate::optim::{Adam, Optimizer};

    #[test]
    fn linear_shapes() {
        let mut ps = ParamSet::new();
        let l = Linear::new(&mut ps, "l", 3, 2, 0);
        let mut g = Graph::new();
        let mut b = Binding::new();
        let x = g.constant(Tensor::zeros(5, 3));
        let y = l.forward(&mut g, &mut b, &ps, x);
        assert_eq!(g.value(y).shape(), (5, 2));
        assert_eq!(b.len(), 2);
        assert_eq!(l.in_dim(), 3);
        assert_eq!(l.out_dim(), 2);
    }

    #[test]
    fn mlp_learns_xor() {
        let mut ps = ParamSet::new();
        let mlp = Mlp::new(&mut ps, &[2, 8, 1], Activation::Tanh, 3);
        assert_eq!(mlp.in_dim(), 2);
        assert_eq!(mlp.out_dim(), 1);
        let x = Tensor::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Tensor::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
        let mut opt = Adam::new(0.05);
        let mut final_loss = f64::INFINITY;
        for _ in 0..400 {
            let mut g = Graph::new();
            let mut b = Binding::new();
            let xv = g.constant(x.clone());
            let logits = mlp.forward(&mut g, &mut b, &ps, xv);
            let yv = g.constant(y.clone());
            let l = loss::bce_with_logits(&mut g, logits, yv);
            g.backward(l).unwrap();
            b.accumulate_grads(&g, &mut ps);
            opt.step(&mut ps);
            final_loss = g.value(l).item();
        }
        assert!(final_loss < 0.1, "XOR did not converge: loss {final_loss}");
    }

    #[test]
    #[should_panic]
    fn mlp_needs_two_dims() {
        let mut ps = ParamSet::new();
        let _ = Mlp::new(&mut ps, &[4], Activation::Relu, 0);
    }
}
