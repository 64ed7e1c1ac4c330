//! Serving precision modes and the `f32` model view.
//!
//! A fitted [`NodeModel`] trains and stays in `f64`. [`Precision`] names
//! how *inference* computes; for the reduced modes the weights are
//! down-converted **once** into an [`InferModel32`] — every linear layer
//! narrowed to `f32` and prepacked for the packed-B microkernel. That
//! struct is only a model *view*: it shares the `f64` model's architecture
//! description, and the per-node walk it feeds is
//! [`crate::infer::infer_nodes`], the same code the `f64` model runs, so
//! the two precisions differ in arithmetic and nothing else (DESIGN.md §15
//! quantifies the error).

use relgraph_graph::SamplerConfig;
use relgraph_nn::Linear;
use relgraph_tensor::{mm_panel, pack_b, ActKind};

use crate::infer::{InferModel, ModelSpec};
use crate::model::HeteroGnn;
use crate::train::{NodeModel, TaskKind};

/// Numeric mode of the serving inference path. Training is always `f64`;
/// this selects how *inference* computes and how the embedding cache
/// stores hop-k embeddings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Double precision everywhere: within 1e-9 of
    /// [`NodeModel::predict`] (kernel dispatch differs by tensor shape)
    /// and bit-identical to itself cache-warm or cache-cold. The default.
    #[default]
    F64,
    /// Weights down-converted once; per-node inference in `f32` with the
    /// wide SIMD kernel. Embedding cache stores `f32` rows.
    F32,
    /// `f32` compute plus an 8-bit linearly-quantized embedding cache
    /// (per-row scale/min), holding ~4–8× more entities per byte.
    Q8,
}

impl Precision {
    /// Stable one-byte tag for the model-snapshot header.
    pub fn tag(self) -> u8 {
        match self {
            Precision::F64 => 0,
            Precision::F32 => 1,
            Precision::Q8 => 2,
        }
    }

    /// Inverse of [`Precision::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Precision::F64),
            1 => Some(Precision::F32),
            2 => Some(Precision::Q8),
            _ => None,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::Q8 => "q8",
        })
    }
}

impl std::str::FromStr for Precision {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f64" => Ok(Precision::F64),
            "f32" => Ok(Precision::F32),
            "q8" => Ok(Precision::Q8),
            other => Err(format!(
                "unknown precision `{other}` (expected f64, f32 or q8)"
            )),
        }
    }
}

/// One dense layer narrowed to `f32`, weights prepacked for the packed-B
/// microkernel at conversion time so the per-request hot path never packs.
struct LinearF32 {
    packed_w: Vec<f32>,
    bias: Vec<f32>,
}

/// A fitted model down-converted once for `f32` serving: the `f64`
/// [`NodeModel`]'s architecture and walk parameters, copied out, plus a
/// prepacked `f32` copy of every dense layer keyed by the layer's weight
/// parameter. Build with [`InferModel32::from_model`], evaluate with
/// [`predict_nodes_f32`](crate::predict_nodes_f32).
pub struct InferModel32 {
    gnn: HeteroGnn,
    sampler_cfg: SamplerConfig,
    task: TaskKind,
    label_scale: (f64, f64),
    /// Indexed by `Linear::weight_id().index()`; `None` at bias slots.
    dense: Vec<Option<LinearF32>>,
}

impl InferModel32 {
    /// Down-convert a fitted `f64` model (one-time cost: one pass over
    /// every weight, narrowing and prepacking).
    pub fn from_model(model: &NodeModel) -> Self {
        let ps = model.ps();
        let gnn = model.gnn().clone();
        let mut dense: Vec<Option<LinearF32>> = Vec::new();
        dense.resize_with(ps.len(), || None);
        let layers = gnn.layers().iter();
        for lin in layers
            .flat_map(|l| l.self_lins().iter().chain(l.edge_lins()))
            .chain(gnn.head().layers())
        {
            let w32: Vec<f32> = lin.weight(ps).data().iter().map(|&x| x as f32).collect();
            dense[lin.weight_id().index()] = Some(LinearF32 {
                packed_w: pack_b(&w32, lin.in_dim(), lin.out_dim()),
                bias: lin.bias(ps).data().iter().map(|&x| x as f32).collect(),
            });
        }
        InferModel32 {
            gnn,
            sampler_cfg: model.sampler_cfg().clone(),
            task: model.task(),
            label_scale: model.label_scale(),
            dense,
        }
    }
}

impl InferModel for InferModel32 {
    type Elem = f32;

    fn spec(&self) -> ModelSpec<'_> {
        ModelSpec {
            gnn: &self.gnn,
            sampler_cfg: &self.sampler_cfg,
            task: self.task,
            label_scale: self.label_scale,
        }
    }

    fn linear(
        &self,
        lin: &Linear,
        x: &mut Vec<f32>,
        rows: usize,
        act: ActKind,
        out: &mut Vec<f32>,
    ) {
        let narrowed = self.dense[lin.weight_id().index()]
            .as_ref()
            .expect("every dense layer of the architecture was narrowed");
        debug_assert_eq!(x.len(), rows * lin.in_dim());
        out.clear();
        out.resize(rows * lin.out_dim(), 0.0);
        mm_panel(
            x,
            &narrowed.packed_w,
            out,
            rows,
            lin.in_dim(),
            lin.out_dim(),
            Some(&narrowed.bias),
            act,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_parses_and_round_trips_tags() {
        for p in [Precision::F64, Precision::F32, Precision::Q8] {
            assert_eq!(p.to_string().parse::<Precision>().unwrap(), p);
            assert_eq!(Precision::from_tag(p.tag()), Some(p));
        }
        assert!("f16".parse::<Precision>().is_err());
        assert_eq!(Precision::from_tag(9), None);
    }
}
