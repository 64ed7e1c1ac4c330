//! Dense row-major 2-D `f64` tensors with the handful of BLAS-like kernels
//! the autodiff engine needs.
//!
//! [`Tensor::matmul`] dispatches by size: tiny products run the naive
//! serial kernel (blocking overhead would dominate), everything else runs
//! the register-tiled FMA microkernel [`crate::mm_panel`], serial below
//! `PAR_FLOPS_THRESHOLD` multiply-adds and parallel over disjoint
//! output-row panels above it. Each output element is accumulated by a
//! fixed `mul_add` chain that depends only on its input row/column — never
//! on tiling, panel boundaries or thread count — so results are
//! **bit-identical across thread counts** (and serial vs parallel), and
//! agree with [`Tensor::matmul_naive`] to rounding (FMA keeps one more bit
//! per step, so the microkernel is the *more* accurate of the two). The
//! fused [`Tensor::matmul_nt`] / [`Tensor::matmul_tn`] avoid materializing
//! transposes in the autodiff backward pass, and
//! [`Tensor::matmul_bias_act`] fuses the linear-layer epilogue
//! (`+ bias`, activation) into the same output pass.

use std::fmt;

use rayon::prelude::*;

use crate::kernels::{self, ActKind};

/// Below this many multiply-adds, `matmul` falls back to the naive serial
/// kernel: register blocking and the runtime feature-dispatch indirection
/// cost more than the multiplication itself at these sizes.
const NAIVE_FLOPS_THRESHOLD: usize = 32 * 32 * 32;

/// Below this many multiply-adds a matmul runs the microkernel
/// single-threaded. Measured on the 2-core reference host (EXPERIMENTS.md,
/// "Parallel grain"): a region's second thread costs 60 µs to spawn and
/// join back to back and ~130 µs after a pause, so at 64³ (15 µs inline)
/// two threads are 5x slower, at 128³ (150 µs) they still lose, at 4M
/// multiply-adds they win 1.26x back to back and lose 12 % after a pause,
/// and from 6M (~0.5 ms inline) they win either way, 1.1–1.4x.
const PAR_FLOPS_THRESHOLD: usize = 192 * 192 * 192;

/// Output rows per parallel task (also the unit of A-row cache reuse).
/// Panel boundaries are a fixed function of this constant, never of the
/// worker count, so splitting work across threads cannot move an output
/// element between differently-shaped tiles.
const ROW_BLOCK: usize = 32;

/// A dense row-major matrix of `f64`. Vectors are `1×d` or `n×1` tensors;
/// scalars are `1×1`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Tensor {
    /// All-zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Tensor filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f64) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// A `1×1` scalar.
    pub fn scalar(v: f64) -> Self {
        Tensor {
            rows: 1,
            cols: 1,
            data: vec![v],
        }
    }

    /// From raw row-major data. Panics if the length is not `rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "tensor data must have rows*cols elements"
        );
        Tensor { rows, cols, data }
    }

    /// From row slices. Panics on ragged input.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Tensor {
            rows: r,
            cols: c,
            data,
        }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at (`r`, `c`).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Set element at (`r`, `c`).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Raw data (row-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data (row-major).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The single element of a `1×1` tensor. Panics otherwise.
    pub fn item(&self) -> f64 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data[0]
    }

    /// Consume the tensor and return its backing buffer — the recycling
    /// half of the tape's scratch-buffer pool.
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// A zeroed `rows×cols` tensor reusing `buf`'s capacity. Semantically
    /// identical to [`Tensor::zeros`] (the buffer is cleared and refilled
    /// with `0.0`), but allocation-free when the buffer is large enough.
    pub fn from_buffer(rows: usize, cols: usize, mut buf: Vec<f64>) -> Self {
        buf.clear();
        buf.resize(rows * cols, 0.0);
        Tensor {
            rows,
            cols,
            data: buf,
        }
    }

    /// Matrix product `self × rhs`. Size-dispatched: naive below
    /// `NAIVE_FLOPS_THRESHOLD`, register-tiled FMA microkernel above
    /// (serial, then parallel over output-row panels past
    /// `PAR_FLOPS_THRESHOLD`). Bit-identical across thread counts; agrees
    /// with [`Tensor::matmul_naive`] to rounding. Panics on shape
    /// mismatch — shape checking happens in the tape layer.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul`] writing into a caller-provided `m×n` output
    /// (its prior contents are ignored) — the allocation-free entry point
    /// for the tape's buffer pool.
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        self.mm_fused_into(rhs, None, ActKind::Identity, out);
    }

    /// Fused linear-layer forward `act(self × rhs + bias)` in a single
    /// output pass: the bias add and activation run in the epilogue of the
    /// matmul microkernel while the output panel is still cache-hot.
    ///
    /// `bias` is `1×n`, broadcast over rows. The result is **bit-identical**
    /// to the unfused `matmul → add-row → activation` composition at every
    /// size (the matmul part takes the same dispatch path, and the epilogue
    /// applies `act(Σ + bias)` to the fully accumulated element exactly as
    /// the separate passes would).
    pub fn matmul_bias_act(&self, rhs: &Tensor, bias: &Tensor, act: ActKind) -> Tensor {
        let mut out = Tensor::zeros(self.rows, rhs.cols);
        self.matmul_bias_act_into(rhs, bias, act, &mut out);
        out
    }

    /// [`Tensor::matmul_bias_act`] writing into a caller-provided `m×n`
    /// output (prior contents ignored).
    pub fn matmul_bias_act_into(
        &self,
        rhs: &Tensor,
        bias: &Tensor,
        act: ActKind,
        out: &mut Tensor,
    ) {
        assert_eq!(bias.rows, 1, "bias must be a 1×n row vector");
        assert_eq!(bias.cols, rhs.cols, "bias width must match output width");
        self.mm_fused_into(rhs, Some(bias), act, out);
    }

    /// Shared dispatch for plain and fused matmul.
    fn mm_fused_into(&self, rhs: &Tensor, bias: Option<&Tensor>, act: ActKind, out: &mut Tensor) {
        assert_eq!(self.cols, rhs.rows, "matmul inner dimensions must agree");
        let (m, n, kd) = (self.rows, rhs.cols, self.cols);
        assert_eq!(out.shape(), (m, n), "matmul output shape mismatch");
        if relgraph_obs::enabled() {
            relgraph_obs::add("tensor.matmul.calls", 1);
            // The fused kernel still performs the full 2·m·n·k multiply-add
            // work plus one add per output element for the bias.
            let bias_flops = if bias.is_some() { (m * n) as u64 } else { 0 };
            relgraph_obs::add("tensor.matmul.flops", 2 * (m * n * kd) as u64 + bias_flops);
            if bias.is_some() {
                relgraph_obs::add("tensor.matmul.fused_calls", 1);
            }
        }
        if m * n == 0 {
            return;
        }
        if m * n * kd < NAIVE_FLOPS_THRESHOLD {
            // Small-product fallback: naive matmul, then bias/activation
            // as separate passes — the exact unfused composition, so fused
            // results never depend on which dispatch branch ran.
            relgraph_obs::add("tensor.matmul.naive_calls", 1);
            self.naive_into(rhs, out);
            match (bias, act) {
                (None, ActKind::Identity) => {}
                _ => {
                    let bias = bias.map(Tensor::data);
                    for r in 0..m {
                        let orow = &mut out.data[r * n..(r + 1) * n];
                        for (j, o) in orow.iter_mut().enumerate() {
                            let s = bias.map_or(*o, |bv| *o + bv[j]);
                            *o = act.apply(s);
                        }
                    }
                }
            }
            return;
        }
        relgraph_obs::add("tensor.matmul.blocked_calls", 1);
        let bias = bias.map(Tensor::data);
        let packed = kernels::pack_b::<f64>(&rhs.data, kd, n);
        let body = |(chunk, out_block): (usize, &mut [f64])| {
            let i0 = chunk * ROW_BLOCK;
            let rows_here = out_block.len() / n;
            let a_panel = &self.data[i0 * kd..(i0 + rows_here) * kd];
            kernels::mm_panel::<f64>(a_panel, &packed, out_block, rows_here, kd, n, bias, act);
        };
        if m * n * kd < PAR_FLOPS_THRESHOLD {
            out.data
                .chunks_mut(ROW_BLOCK * n)
                .enumerate()
                .for_each(body);
        } else {
            out.data
                .par_chunks_mut(ROW_BLOCK * n)
                .enumerate()
                .for_each(body);
        }
    }

    /// Reference matmul: the plain serial ikj loop. Kept public as the
    /// ground truth for property tests.
    pub fn matmul_naive(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols, rhs.rows, "matmul inner dimensions must agree");
        let mut out = Tensor::zeros(self.rows, rhs.cols);
        self.naive_into(rhs, &mut out);
        out
    }

    /// Naive ikj kernel into a pre-shaped output (overwrites contents).
    fn naive_into(&self, rhs: &Tensor, out: &mut Tensor) {
        out.data.fill(0.0);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = rhs.row(k);
                for (j, &b) in b_row.iter().enumerate() {
                    out_row[j] += a * b;
                }
            }
        }
    }

    /// Fused `self × rhsᵀ` (`m×k · (n×k)ᵀ → m×n`) without materializing the
    /// transpose: every output element is a dot product of two contiguous
    /// rows, split into fixed interleaved `mul_add` lanes (see
    /// the `kernels` module) so thread count never affects the result.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, rhs.rows);
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul_nt`] writing into a caller-provided `m×n` output
    /// (prior contents ignored).
    pub fn matmul_nt_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, rhs.cols, "matmul_nt inner dimensions must agree");
        let (m, n, kd) = (self.rows, rhs.rows, self.cols);
        assert_eq!(out.shape(), (m, n), "matmul_nt output shape mismatch");
        if relgraph_obs::enabled() {
            relgraph_obs::add("tensor.matmul.calls", 1);
            relgraph_obs::add("tensor.matmul.flops", 2 * (m * n * kd) as u64);
        }
        if m * n == 0 {
            return;
        }
        let body = |(chunk, out_block): (usize, &mut [f64])| {
            let i0 = chunk * ROW_BLOCK;
            let rows_here = out_block.len() / n;
            let a_panel = &self.data[i0 * kd..(i0 + rows_here) * kd];
            kernels::mm_nt_panel(a_panel, &rhs.data, out_block, rows_here, kd, n);
        };
        if m * n * kd < PAR_FLOPS_THRESHOLD {
            out.data
                .chunks_mut(ROW_BLOCK * n)
                .enumerate()
                .for_each(body);
        } else {
            out.data
                .par_chunks_mut(ROW_BLOCK * n)
                .enumerate()
                .for_each(body);
        }
    }

    /// Fused `selfᵀ × rhs` (`(m×k)ᵀ · m×n → k×n`) without materializing the
    /// transpose. Parallel tasks own disjoint output-row panels and each
    /// element accumulates over the shared dimension in ascending order
    /// with `mul_add`, so the result is independent of thread count.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, rhs.cols);
        self.matmul_tn_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul_tn`] writing into a caller-provided `k×n` output
    /// (prior contents ignored).
    pub fn matmul_tn_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rows, rhs.rows, "matmul_tn outer dimensions must agree");
        let (kd, n, m) = (self.cols, rhs.cols, self.rows);
        assert_eq!(out.shape(), (kd, n), "matmul_tn output shape mismatch");
        if relgraph_obs::enabled() {
            relgraph_obs::add("tensor.matmul.calls", 1);
            relgraph_obs::add("tensor.matmul.flops", 2 * (kd * n * m) as u64);
        }
        if n == 0 || kd == 0 {
            return;
        }
        out.data.fill(0.0);
        let body = |(chunk, out_block): (usize, &mut [f64])| {
            let p0 = chunk * ROW_BLOCK;
            let rows_here = out_block.len() / n;
            kernels::mm_tn_panel(&self.data, &rhs.data, out_block, p0, rows_here, m, kd, n);
        };
        if m * n * kd < PAR_FLOPS_THRESHOLD {
            out.data
                .chunks_mut(ROW_BLOCK * n)
                .enumerate()
                .for_each(body);
        } else {
            out.data
                .par_chunks_mut(ROW_BLOCK * n)
                .enumerate()
                .for_each(body);
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Elementwise binary map (panics on shape mismatch).
    pub fn zip_map(&self, rhs: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        assert_eq!(self.shape(), rhs.shape(), "zip_map shapes must agree");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise unary map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// In-place `self += rhs` (panics on shape mismatch).
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shapes must agree");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place `self *= c`.
    pub fn scale_assign(&mut self, c: f64) {
        for a in &mut self.data {
            *a *= c;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|&a| a * a).sum::<f64>().sqrt()
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|a| a.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for i in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self.get(i, j))?;
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.get(1, 0), 3.0);
        assert_eq!(t.row(0), &[1.0, 2.0]);
        assert_eq!(Tensor::scalar(5.0).item(), 5.0);
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_rows(&[&[1.0, 0.0, 2.0]]);
        let b = Tensor::from_rows(&[&[1.0], &[1.0], &[1.0]]);
        assert_eq!(a.matmul(&b), Tensor::scalar(3.0));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn elementwise_helpers() {
        let a = Tensor::from_rows(&[&[1.0, -2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(
            a.zip_map(&b, |x, y| x * y),
            Tensor::from_rows(&[&[3.0, -8.0]])
        );
        assert_eq!(a.map(f64::abs), Tensor::from_rows(&[&[1.0, 2.0]]));
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c, Tensor::from_rows(&[&[4.0, 2.0]]));
        c.scale_assign(0.5);
        assert_eq!(c, Tensor::from_rows(&[&[2.0, 1.0]]));
        assert_eq!(b.sum(), 7.0);
        assert!(a.all_finite());
        assert!(!Tensor::scalar(f64::NAN).all_finite());
    }

    #[test]
    #[should_panic]
    fn bad_from_vec_panics() {
        let _ = Tensor::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    #[should_panic]
    fn item_on_matrix_panics() {
        let _ = Tensor::zeros(2, 2).item();
    }
}
