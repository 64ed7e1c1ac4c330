//! Single-precision (`f32`) inference microkernels: the serving-time twin
//! of [`crate::kernels`].
//!
//! Training stays `f64` end to end — nothing in the tape or the autodiff
//! engine routes through this module. These kernels exist for the serve
//! tier's `--precision f32`/`q8` modes, where fitted weights are
//! down-converted **once** and per-request inference runs at half the
//! memory traffic and double the SIMD width (8 `f32` lanes per ymm
//! register instead of 4 `f64` lanes).
//!
//! The numeric contract mirrors the `f64` kernels exactly: **each output
//! element is a pure function of its input row/column with a fixed
//! fused-multiply-add accumulation order**, so tiling, panel splits and
//! thread count never change a single bit of the `f32` result. On x86-64
//! hosts with AVX2+FMA the packed-B kernel runs hand-tiled intrinsics — 4
//! output rows × 16 columns (two ymm per row) of independent accumulator
//! chains; everywhere else a portable [`f32::mul_add`] body computes the
//! *same* correctly-rounded values.
//!
//! What is **not** promised is bitwise agreement with the `f64` path:
//! `f32` results carry the documented tolerance of DESIGN.md §15
//! (per-element error grows with the shared dimension `k` as roughly
//! `k · ε₃₂ · Σ|aᵢ·bᵢ|`, with ε₃₂ = 2⁻²⁴).

use rayon::prelude::*;

use crate::kernels::ActKind;
use crate::tensor::{NAIVE_FLOPS_THRESHOLD, PAR_FLOPS_THRESHOLD};

/// Output rows per register tile (same as the `f64` kernel).
const MR: usize = 4;
/// Output columns per register tile: 16 `f32` = two ymm lines per row, so
/// `MR × (NR32/8)` = 8 ymm accumulators — the same register budget as the
/// `f64` tile, at double the lane width.
const NR32: usize = 16;
/// Output rows per parallel task, fixed independently of worker count so
/// panel boundaries never move with the thread pool.
const ROW_BLOCK: usize = 32;

/// Apply an [`ActKind`] to an `f32` scalar. Same branch structure as the
/// `f64` [`ActKind::apply`]; the LeakyReLU slope is narrowed once per call
/// site, not per element, by the kernels that take an `ActKind`.
#[inline(always)]
pub fn apply_act_f32(act: ActKind, x: f32) -> f32 {
    match act {
        ActKind::Identity => x,
        ActKind::Relu => x.max(0.0),
        ActKind::LeakyRelu(s) => {
            if x > 0.0 {
                x
            } else {
                s as f32 * x
            }
        }
        ActKind::Tanh => x.tanh(),
        ActKind::Sigmoid => stable_sigmoid_f32(x),
    }
}

/// Branch-stable logistic sigmoid in `f32` (same definition as the `f64`
/// [`crate::kernels::stable_sigmoid`]).
#[inline(always)]
pub fn stable_sigmoid_f32(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Repack `b` (`kd × n`, row-major) into column strips of `NR32`, laid
/// out `k`-major and zero-padded to full width — the `f32` twin of the
/// `f64` `pack_b`. Serving prepacks each fitted weight matrix **once** at
/// model down-conversion time, so the per-request kernel never re-packs.
pub fn pack_b_f32(b: &[f32], kd: usize, n: usize) -> Vec<f32> {
    let strips = n.div_ceil(NR32);
    let mut out = vec![0.0f32; strips * kd * NR32];
    for s in 0..strips {
        let j0 = s * NR32;
        let w = NR32.min(n - j0);
        let dst = &mut out[s * kd * NR32..(s + 1) * kd * NR32];
        for k in 0..kd {
            dst[k * NR32..k * NR32 + w].copy_from_slice(&b[k * n + j0..k * n + j0 + w]);
        }
    }
    out
}

/// Apply the fused epilogue to one accumulated tile row: `out[c] =
/// act(acc[c] + bias[j0+c])` for the `w` real (non-padding) columns.
#[inline(always)]
fn epilogue32(
    acc: &[f32; NR32],
    out: &mut [f32],
    j0: usize,
    w: usize,
    bias: Option<&[f32]>,
    act: ActKind,
) {
    for (c, o) in out[..w].iter_mut().enumerate() {
        let s = bias.map_or(acc[c], |bv| acc[c] + bv[j0 + c]);
        *o = apply_act_f32(act, s);
    }
}

/// Portable packed-B panel body: one accumulator array per output row,
/// `f32::mul_add` per step — the exact values the intrinsics path
/// computes (same chains, same rounding).
#[allow(clippy::too_many_arguments)]
fn mm_panel_f32_generic(
    a: &[f32],
    bp: &[f32],
    out: &mut [f32],
    rows: usize,
    kd: usize,
    n: usize,
    bias: Option<&[f32]>,
    act: ActKind,
) {
    let strips = n.div_ceil(NR32);
    for r in 0..rows {
        let arow = &a[r * kd..(r + 1) * kd];
        for s in 0..strips {
            let j0 = s * NR32;
            let w = NR32.min(n - j0);
            let strip = &bp[s * kd * NR32..(s + 1) * kd * NR32];
            let mut acc = [0.0f32; NR32];
            for (bk, &av) in strip.chunks_exact(NR32).zip(arow) {
                for (s, &bx) in acc.iter_mut().zip(bk) {
                    *s = av.mul_add(bx, *s);
                }
            }
            epilogue32(&acc, &mut out[r * n + j0..(r + 1) * n], j0, w, bias, act);
        }
    }
}

// --- x86-64 AVX2+FMA path -------------------------------------------------
//
// `_mm256_fmadd_ps` computes `fma(a, b, c)` per lane — the exact
// `f32::mul_add` value — and the tile walks the same per-element chains as
// the generic body, so the two paths are bitwise interchangeable.

#[cfg(target_arch = "x86_64")]
mod avx32 {
    use super::{epilogue32, ActKind, MR, NR32};
    use core::arch::x86_64::*;

    /// Packed-B panel matmul with fused epilogue; see
    /// [`super::mm_panel_f32_generic`] for the reference semantics.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn mm_panel_f32(
        a: &[f32],
        bp: &[f32],
        out: &mut [f32],
        rows: usize,
        kd: usize,
        n: usize,
        bias: Option<&[f32]>,
        act: ActKind,
    ) {
        let strips = n.div_ceil(NR32);
        let full = rows / MR * MR;
        let mut i = 0;
        while i < full {
            for s in 0..strips {
                let j0 = s * NR32;
                let w = NR32.min(n - j0);
                let sp = bp.as_ptr().add(s * kd * NR32);
                let a0 = a.as_ptr().add(i * kd);
                let a1 = a.as_ptr().add((i + 1) * kd);
                let a2 = a.as_ptr().add((i + 2) * kd);
                let a3 = a.as_ptr().add((i + 3) * kd);
                // 4 rows × 16 columns of accumulators: 8 ymm registers,
                // each holding 8 f32 lanes.
                let mut c00 = _mm256_setzero_ps();
                let mut c01 = _mm256_setzero_ps();
                let mut c10 = _mm256_setzero_ps();
                let mut c11 = _mm256_setzero_ps();
                let mut c20 = _mm256_setzero_ps();
                let mut c21 = _mm256_setzero_ps();
                let mut c30 = _mm256_setzero_ps();
                let mut c31 = _mm256_setzero_ps();
                for k in 0..kd {
                    let b0 = _mm256_loadu_ps(sp.add(k * NR32));
                    let b1 = _mm256_loadu_ps(sp.add(k * NR32 + 8));
                    let v0 = _mm256_set1_ps(*a0.add(k));
                    c00 = _mm256_fmadd_ps(v0, b0, c00);
                    c01 = _mm256_fmadd_ps(v0, b1, c01);
                    let v1 = _mm256_set1_ps(*a1.add(k));
                    c10 = _mm256_fmadd_ps(v1, b0, c10);
                    c11 = _mm256_fmadd_ps(v1, b1, c11);
                    let v2 = _mm256_set1_ps(*a2.add(k));
                    c20 = _mm256_fmadd_ps(v2, b0, c20);
                    c21 = _mm256_fmadd_ps(v2, b1, c21);
                    let v3 = _mm256_set1_ps(*a3.add(k));
                    c30 = _mm256_fmadd_ps(v3, b0, c30);
                    c31 = _mm256_fmadd_ps(v3, b1, c31);
                }
                let pairs = [(c00, c01), (c10, c11), (c20, c21), (c30, c31)];
                for (r, (lo, hi)) in pairs.into_iter().enumerate() {
                    let mut acc = [0.0f32; NR32];
                    _mm256_storeu_ps(acc.as_mut_ptr(), lo);
                    _mm256_storeu_ps(acc.as_mut_ptr().add(8), hi);
                    let row = i + r;
                    epilogue32(
                        &acc,
                        &mut out[row * n + j0..(row + 1) * n],
                        j0,
                        w,
                        bias,
                        act,
                    );
                }
            }
            i += MR;
        }
        // Remainder rows: one row at a time, same per-element chains.
        while i < rows {
            for s in 0..strips {
                let j0 = s * NR32;
                let w = NR32.min(n - j0);
                let sp = bp.as_ptr().add(s * kd * NR32);
                let ar = a.as_ptr().add(i * kd);
                let mut lo = _mm256_setzero_ps();
                let mut hi = _mm256_setzero_ps();
                for k in 0..kd {
                    let v = _mm256_set1_ps(*ar.add(k));
                    lo = _mm256_fmadd_ps(v, _mm256_loadu_ps(sp.add(k * NR32)), lo);
                    hi = _mm256_fmadd_ps(v, _mm256_loadu_ps(sp.add(k * NR32 + 8)), hi);
                }
                let mut acc = [0.0f32; NR32];
                _mm256_storeu_ps(acc.as_mut_ptr(), lo);
                _mm256_storeu_ps(acc.as_mut_ptr().add(8), hi);
                epilogue32(&acc, &mut out[i * n + j0..(i + 1) * n], j0, w, bias, act);
            }
            i += 1;
        }
    }
}

/// Packed-B panel matmul with fused `+bias`/activation epilogue:
/// `out = act(a · unpack(bp) + bias)` for `rows` A-rows. Runtime-dispatched
/// to AVX2+FMA intrinsics or the bit-identical portable body. This is the
/// serial entry the serve tier calls per node with prepacked weights.
#[allow(clippy::too_many_arguments)]
pub fn mm_packed_f32(
    a: &[f32],
    bp: &[f32],
    out: &mut [f32],
    rows: usize,
    kd: usize,
    n: usize,
    bias: Option<&[f32]>,
    act: ActKind,
) {
    #[cfg(target_arch = "x86_64")]
    if crate::kernels::have_fma() {
        // SAFETY: the required CPU features were just detected.
        return unsafe { avx32::mm_panel_f32(a, bp, out, rows, kd, n, bias, act) };
    }
    mm_panel_f32_generic(a, bp, out, rows, kd, n, bias, act)
}

/// Reference `f32` matmul with unfused epilogue: plain serial ikj loop
/// (no FMA), then `+bias`/activation as a second pass. Ground truth for
/// the ulp-bound property tests and the small-size dispatch tier.
#[allow(clippy::too_many_arguments)]
pub fn matmul_naive_f32(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    kd: usize,
    n: usize,
    bias: Option<&[f32]>,
    act: ActKind,
) {
    out[..m * n].fill(0.0);
    for i in 0..m {
        let a_row = &a[i * kd..(i + 1) * kd];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (k, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[k * n..(k + 1) * n];
            for (o, &bx) in out_row.iter_mut().zip(b_row) {
                *o += av * bx;
            }
        }
    }
    match (bias, act) {
        (None, ActKind::Identity) => {}
        _ => {
            for i in 0..m {
                let out_row = &mut out[i * n..(i + 1) * n];
                for (j, o) in out_row.iter_mut().enumerate() {
                    let s = bias.map_or(*o, |bv| *o + bv[j]);
                    *o = apply_act_f32(act, s);
                }
            }
        }
    }
}

/// Full size-dispatched `f32` fused linear: `out = act(a · b + bias)` with
/// the same three tiers as the `f64` [`crate::tensor::Tensor::matmul`]
/// path — naive + unfused epilogue below `NAIVE_FLOPS_THRESHOLD`
/// multiply-adds, serial packed microkernel below
/// `PAR_FLOPS_THRESHOLD`, parallel over fixed `ROW_BLOCK`-row output
/// panels above. Bit-identical across thread counts (panel boundaries are
/// a function of `ROW_BLOCK` alone).
#[allow(clippy::too_many_arguments)]
pub fn matmul_bias_act_f32(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    kd: usize,
    n: usize,
    bias: Option<&[f32]>,
    act: ActKind,
) {
    mm_f32_tiers(a, b, out, m, kd, n, bias, act, false);
}

/// Shared tier dispatch; `force_serial` pins the packed kernel to the
/// serial panel walk so tests can prove serial ≡ parallel bitwise.
#[allow(clippy::too_many_arguments)]
fn mm_f32_tiers(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    kd: usize,
    n: usize,
    bias: Option<&[f32]>,
    act: ActKind,
    force_serial: bool,
) {
    assert_eq!(a.len(), m * kd, "lhs length must be m*kd");
    assert_eq!(b.len(), kd * n, "rhs length must be kd*n");
    assert_eq!(out.len(), m * n, "output length must be m*n");
    if let Some(bv) = bias {
        assert_eq!(bv.len(), n, "bias width must match output width");
    }
    if m * n == 0 {
        return;
    }
    if m * n * kd < NAIVE_FLOPS_THRESHOLD {
        matmul_naive_f32(a, b, out, m, kd, n, bias, act);
        return;
    }
    let packed = pack_b_f32(b, kd, n);
    let body = |(chunk, out_block): (usize, &mut [f32])| {
        let i0 = chunk * ROW_BLOCK;
        let rows_here = out_block.len() / n;
        let a_panel = &a[i0 * kd..(i0 + rows_here) * kd];
        mm_packed_f32(a_panel, &packed, out_block, rows_here, kd, n, bias, act);
    };
    if force_serial || m * n * kd < PAR_FLOPS_THRESHOLD {
        out.chunks_mut(ROW_BLOCK * n).enumerate().for_each(body);
    } else {
        out.par_chunks_mut(ROW_BLOCK * n).enumerate().for_each(body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq32(len: usize, mul: f64) -> Vec<f32> {
        (0..len).map(|i| (i as f64 * mul).sin() as f32).collect()
    }

    #[test]
    fn f32_activation_matches_f64_within_rounding() {
        for act in [
            ActKind::Identity,
            ActKind::Relu,
            ActKind::LeakyRelu(0.1),
            ActKind::Tanh,
            ActKind::Sigmoid,
        ] {
            for x in [-3.0f32, -0.75, -0.0, 0.0, 0.75, 3.0] {
                let y32 = apply_act_f32(act, x);
                let y64 = act.apply(x as f64);
                assert!(
                    (y32 as f64 - y64).abs() <= 1e-6,
                    "{act:?} at {x}: f32 {y32} vs f64 {y64}"
                );
            }
        }
    }

    #[test]
    fn dispatched_mm_panel_f32_is_bit_identical_to_generic() {
        // Odd sizes force both remainder rows and remainder columns, and
        // 33×65×41 exercises a multi-strip panel with a 9-wide tail.
        for (rows, kd, n) in [(1, 1, 1), (5, 9, 11), (13, 17, 23), (33, 65, 41)] {
            let a = seq32(rows * kd, 0.37);
            let b = seq32(kd * n, 0.61);
            let bias = seq32(n, 0.13);
            let bp = pack_b_f32(&b, kd, n);
            for act in [ActKind::Identity, ActKind::Relu, ActKind::Tanh] {
                let mut fast = vec![0.0f32; rows * n];
                mm_packed_f32(&a, &bp, &mut fast, rows, kd, n, Some(&bias), act);
                let mut slow = vec![0.0f32; rows * n];
                mm_panel_f32_generic(&a, &bp, &mut slow, rows, kd, n, Some(&bias), act);
                assert_eq!(fast, slow, "mm32 {rows}x{kd}x{n} {act:?}");
            }
        }
    }

    #[test]
    fn packed_tile_and_remainder_elements_agree() {
        // A 5×11 panel (1-row and 11-col remainders) must equal the plain
        // per-element ascending-k mul_add chain bit for bit.
        let (rows, kd, n) = (5usize, 9usize, 11usize);
        let a = seq32(rows * kd, 0.37);
        let b = seq32(kd * n, 0.61);
        let bp = pack_b_f32(&b, kd, n);
        let mut fast = vec![0.0f32; rows * n];
        mm_packed_f32(&a, &bp, &mut fast, rows, kd, n, None, ActKind::Identity);
        let mut slow = vec![0.0f32; rows * n];
        for i in 0..rows {
            for j in 0..n {
                let mut s = 0.0f32;
                for k in 0..kd {
                    s = a[i * kd + k].mul_add(b[k * n + j], s);
                }
                slow[i * n + j] = s;
            }
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn serial_and_parallel_tiers_are_bit_identical() {
        // 256×192×192 is above PAR_FLOPS_THRESHOLD (192³): the public entry
        // takes the parallel panel walk, the forced-serial path walks the
        // same fixed panels on one thread. They must agree bit for bit —
        // panel boundaries are a function of ROW_BLOCK alone.
        let (m, kd, n) = (256usize, 192usize, 192usize);
        assert!(m * kd * n >= PAR_FLOPS_THRESHOLD);
        let a = seq32(m * kd, 0.31);
        let b = seq32(kd * n, 0.47);
        let bias = seq32(n, 0.19);
        let mut par = vec![0.0f32; m * n];
        matmul_bias_act_f32(&a, &b, &mut par, m, kd, n, Some(&bias), ActKind::Relu);
        let mut ser = vec![0.0f32; m * n];
        mm_f32_tiers(&a, &b, &mut ser, m, kd, n, Some(&bias), ActKind::Relu, true);
        assert_eq!(par, ser);
    }

    #[test]
    fn dispatch_boundaries_stay_within_ulp_bound_of_naive() {
        // Straddle both thresholds: just under/over 32³ (naive vs packed
        // serial) and just under/over 192³ (serial vs parallel). The packed
        // FMA kernel and the naive two-pass loop accumulate in different
        // orders, so agreement is to a documented bound, not bitwise:
        // per-element |fast − naive| ≤ 2·kd·ε₃₂·Σ|a·b| (each path does at
        // most kd roundings of magnitude ≤ ε₃₂·partial-sum each).
        for (m, kd, n) in [(31, 32, 32), (32, 32, 32), (191, 192, 192), (192, 192, 193)] {
            let a = seq32(m * kd, 0.29);
            let b = seq32(kd * n, 0.53);
            let mut fast = vec![0.0f32; m * n];
            matmul_bias_act_f32(&a, &b, &mut fast, m, kd, n, None, ActKind::Identity);
            let mut naive = vec![0.0f32; m * n];
            matmul_naive_f32(&a, &b, &mut naive, m, kd, n, None, ActKind::Identity);
            for i in 0..m {
                for j in 0..n {
                    let mag: f32 = (0..kd).map(|k| (a[i * kd + k] * b[k * n + j]).abs()).sum();
                    let bound = 2.0 * kd as f32 * f32::EPSILON * mag.max(1.0);
                    let diff = (fast[i * n + j] - naive[i * n + j]).abs();
                    assert!(
                        diff <= bound,
                        "({m}x{kd}x{n}) at ({i},{j}): |{} - {}| = {diff} > {bound}",
                        fast[i * n + j],
                        naive[i * n + j]
                    );
                }
            }
        }
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
