//! Persistent parameter storage and per-batch graph binding.

use relgraph_tensor::{Graph, Tensor, Var};

/// Handle to a parameter in a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

impl ParamId {
    /// Position in registration order — a dense key for tables kept
    /// beside a [`ParamSet`] (e.g. narrowed copies of the weights).
    pub fn index(self) -> usize {
        self.0
    }
}

struct ParamSlot {
    name: String,
    value: Tensor,
    grad: Tensor,
}

/// Owns every trainable tensor of a model, with an accumulated gradient per
/// parameter. Lives across mini-batches; the per-batch [`Graph`] only sees
/// copies bound through a [`Binding`].
#[derive(Default)]
pub struct ParamSet {
    slots: Vec<ParamSlot>,
}

impl ParamSet {
    /// Empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter with an initial value.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let (r, c) = value.shape();
        self.slots.push(ParamSlot {
            name: name.into(),
            value,
            grad: Tensor::zeros(r, c),
        });
        ParamId(self.slots.len() - 1)
    }

    /// Number of parameters (tensors).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_weights(&self) -> usize {
        self.slots.iter().map(|s| s.value.len()).sum()
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.slots[id.0].name
    }

    /// Current value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.slots[id.0].value
    }

    /// Mutable value (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.slots[id.0].value
    }

    /// Accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.slots[id.0].grad
    }

    /// Mutable gradient.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.slots[id.0].grad
    }

    /// Iterate over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.slots.len()).map(ParamId)
    }

    /// Zero every accumulated gradient.
    pub fn zero_grads(&mut self) {
        for s in &mut self.slots {
            s.grad.scale_assign(0.0);
        }
    }

    /// Snapshot every parameter value (for early-stopping rollback).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.slots.iter().map(|s| s.value.clone()).collect()
    }

    /// Restore values from a snapshot taken on this same parameter set.
    ///
    /// # Panics
    /// Panics if the snapshot length does not match.
    pub fn restore(&mut self, snapshot: &[Tensor]) {
        assert_eq!(
            snapshot.len(),
            self.slots.len(),
            "snapshot/param-set mismatch"
        );
        for (slot, value) in self.slots.iter_mut().zip(snapshot) {
            slot.value = value.clone();
        }
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f64 {
        self.slots
            .iter()
            .map(|s| s.grad.data().iter().map(|&x| x * x).sum::<f64>())
            .sum::<f64>()
            .sqrt()
    }
}

/// Records which graph [`Var`] each bound parameter maps to within one
/// forward pass, so gradients can be copied back afterwards.
#[derive(Default)]
pub struct Binding {
    pairs: Vec<(ParamId, Var)>,
}

impl Binding {
    /// Empty binding for a fresh forward pass.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear the binding for the next forward pass, keeping its capacity.
    /// Pair with [`Graph::reset`] when reusing one graph across batches.
    pub fn reset(&mut self) {
        self.pairs.clear();
    }

    /// Bind parameter `id` into `g` as a differentiable leaf, memoizing so a
    /// parameter used twice in one pass shares a single leaf (and therefore
    /// correctly accumulates both gradient paths). The value is copied into
    /// a graph-pooled buffer rather than freshly allocated.
    pub fn bind(&mut self, g: &mut Graph, ps: &ParamSet, id: ParamId) -> Var {
        if let Some(&(_, v)) = self.pairs.iter().find(|(p, _)| *p == id) {
            return v;
        }
        let v = g.leaf_copied(ps.value(id));
        self.pairs.push((id, v));
        v
    }

    /// Number of bound parameters.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// After `g.backward(..)`, add each bound parameter's graph gradient
    /// into its persistent gradient accumulator.
    pub fn accumulate_grads(&self, g: &Graph, ps: &mut ParamSet) {
        for &(id, v) in &self.pairs {
            if let Some(grad) = g.grad(v) {
                ps.grad_mut(id).add_assign(grad);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_inspect() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::from_rows(&[&[1.0, 2.0]]));
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.num_weights(), 2);
        assert_eq!(ps.name(w), "w");
        assert_eq!(ps.grad(w), &Tensor::zeros(1, 2));
    }

    #[test]
    fn binding_memoizes_duplicate_binds() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::scalar(3.0));
        let mut g = Graph::new();
        let mut b = Binding::new();
        let v1 = b.bind(&mut g, &ps, w);
        let v2 = b.bind(&mut g, &ps, w);
        assert_eq!(v1, v2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn gradients_flow_back_to_paramset() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::scalar(3.0));
        let mut g = Graph::new();
        let mut b = Binding::new();
        let wv = b.bind(&mut g, &ps, w);
        // loss = w * w → dw = 2w = 6
        let sq = g.mul(wv, wv);
        let loss = g.sum_all(sq);
        g.backward(loss).unwrap();
        b.accumulate_grads(&g, &mut ps);
        assert_eq!(ps.grad(w).item(), 6.0);
        // Accumulation is additive across batches.
        b.accumulate_grads(&g, &mut ps);
        assert_eq!(ps.grad(w).item(), 12.0);
        ps.zero_grads();
        assert_eq!(ps.grad(w).item(), 0.0);
    }

    #[test]
    fn grad_norm_is_l2() {
        let mut ps = ParamSet::new();
        let a = ps.register("a", Tensor::scalar(0.0));
        let b = ps.register("b", Tensor::scalar(0.0));
        ps.grad_mut(a).data_mut()[0] = 3.0;
        ps.grad_mut(b).data_mut()[0] = 4.0;
        assert!((ps.grad_norm() - 5.0).abs() < 1e-12);
    }
}
