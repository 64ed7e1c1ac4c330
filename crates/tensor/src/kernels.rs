//! Register-tiled FMA matmul microkernels and the fused
//! linear+bias+activation epilogue.
//!
//! Every kernel here obeys one numeric contract: **the value of each output
//! element is a pure function of its input row/column, with a fixed
//! floating-point accumulation order** — so tiling, panel splits and thread
//! count can never change a single bit of the result. All accumulation is
//! fused multiply-add (one rounding per step). On x86-64 hosts with
//! AVX2+FMA (detected at runtime) the kernels run hand-tiled
//! `core::arch` intrinsics; everywhere else a portable `mul_add` body
//! computes the *same* correctly-rounded values, so which path runs never
//! affects results, only speed.
//!
//! The packed-B kernel ([`pack_b`] + [`mm_panel`]) is one body over
//! [`Element`], run at `f64` (`Tensor` matmuls above the naive tier) and
//! `f32` (`f32`/`q8` serving). Its tile is [`MR`] rows × [`Element::NR`]
//! columns: 4×8 for `f64`, 4×16 for `f32`. The `A·Bᵀ`/`Aᵀ·B` kernels are
//! `f64` only. `f32` results carry the tolerance of DESIGN.md §15.
//!
//! Accumulation orders (all fixed, all thread- and tile-independent):
//!
//! * `mm_panel` (`A·B`, optionally fused with `+bias` / activation) and
//!   `mm_tn_panel` (`Aᵀ·B`): one chain per output element, ascending
//!   shared-dimension index.
//! * `mm_nt_panel` (`A·Bᵀ`): each output element is a dot product split
//!   into [`NT_LANES`] fixed interleaved partial chains (lane `l`
//!   accumulates indices `k ≡ l mod NT_LANES`), combined by a fixed
//!   pairwise tree — this is what lets the contiguous-row dot product
//!   vectorize.
//!
//! The fused epilogue (`+ bias`, then activation) is applied to the fully
//! accumulated element, so a fused linear layer is bit-identical to the
//! unfused `matmul → add-row → activation` composition.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg};

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

/// Pointwise activation applied by the fused linear kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActKind {
    /// No activation.
    Identity,
    /// `max(x, 0)`.
    Relu,
    /// `x` for `x > 0`, else `slope · x`.
    LeakyRelu(f64),
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl ActKind {
    /// Apply the activation to a scalar. At `f64` this matches the tape's
    /// unfused activation ops bit for bit (same branch structure, same
    /// stable sigmoid); at `f32` the LeakyReLU slope is narrowed first.
    #[inline(always)]
    pub fn apply<T: Element>(self, x: T) -> T {
        let zero = T::from_f64(0.0);
        match self {
            ActKind::Identity => x,
            ActKind::Relu => x.max(zero),
            ActKind::LeakyRelu(s) => {
                if x > zero {
                    x
                } else {
                    T::from_f64(s) * x
                }
            }
            ActKind::Tanh => x.tanh(),
            ActKind::Sigmoid => stable_sigmoid(x),
        }
    }
}

/// Branch-stable sigmoid (same definition as the tape's activation).
#[inline(always)]
fn stable_sigmoid<T: Element>(x: T) -> T {
    let one = T::from_f64(1.0);
    if x >= T::from_f64(0.0) {
        one / (one + (-x).exp())
    } else {
        let e = x.exp();
        e / (one + e)
    }
}

mod sealed {
    /// Implemented for `f64` and `f32` only. On x86-64 it carries the five
    /// AVX operations of the register tile, each the `_pd` or `_ps`
    /// intrinsic of its type, on 256-bit lines of `NR / 2` lanes.
    ///
    /// # Safety
    /// Every operation requires a CPU with AVX2 and FMA. `loadu` and
    /// `storeu` also require `p` to be valid for reading, respectively
    /// writing, `NR / 2` elements (any alignment).
    pub trait Sealed {
        #[cfg(target_arch = "x86_64")]
        type Line: Copy;
        #[cfg(target_arch = "x86_64")]
        unsafe fn zero() -> Self::Line;
        #[cfg(target_arch = "x86_64")]
        unsafe fn loadu(p: *const Self) -> Self::Line;
        #[cfg(target_arch = "x86_64")]
        unsafe fn set1(x: Self) -> Self::Line;
        /// `a · b + c` per lane with one rounding: `mul_add` lane by lane.
        #[cfg(target_arch = "x86_64")]
        unsafe fn fmadd(a: Self::Line, b: Self::Line, c: Self::Line) -> Self::Line;
        #[cfg(target_arch = "x86_64")]
        unsafe fn storeu(p: *mut Self, v: Self::Line);
    }
}

/// The scalar the packed-B kernel and the inference walk compute in:
/// `f64` or `f32`, and nothing else (the trait is sealed). It carries the
/// tile width and the scalar operations the kernel and
/// [`ActKind::apply`] need.
pub trait Element:
    sealed::Sealed
    + Copy
    + Default
    + PartialOrd
    + Into<f64>
    + Send
    + Sync
    + Add<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + MulAssign
{
    /// Output columns per register tile and width of a packed-B strip: two
    /// 256-bit lines, so a tile of 4 rows × `NR` accumulators fills eight
    /// registers.
    const NR: usize;
    /// One tile row of accumulators, `[Self; NR]`: this type's own width,
    /// not the widest type's, so each instance keeps its register budget.
    type Tile: Copy + Default + AsRef<[Self]> + AsMut<[Self]>;

    /// Narrow (or keep) an `f64`: weights, feature rows, the mean's `1/c`.
    fn from_f64(x: f64) -> Self;
    /// `self · a + b` with one rounding.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// The larger of two values (the other one if either is NaN).
    fn max(self, other: Self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// `e^self`.
    fn exp(self) -> Self;
}

macro_rules! element {
    ($t:ident, $nr:literal, $line:ident: $zero:ident $loadu:ident $set1:ident $fmadd:ident $storeu:ident) => {
        impl Element for $t {
            const NR: usize = $nr;
            type Tile = [$t; $nr];

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                $t::mul_add(self, a, b)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                $t::max(self, other)
            }
            #[inline(always)]
            fn tanh(self) -> Self {
                $t::tanh(self)
            }
            #[inline(always)]
            fn exp(self) -> Self {
                $t::exp(self)
            }
        }

        #[cfg(not(target_arch = "x86_64"))]
        impl sealed::Sealed for $t {}

        #[cfg(target_arch = "x86_64")]
        impl sealed::Sealed for $t {
            type Line = $line;
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn zero() -> $line {
                $zero()
            }
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn loadu(p: *const $t) -> $line {
                $loadu(p)
            }
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn set1(x: $t) -> $line {
                $set1(x)
            }
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn fmadd(a: $line, b: $line, c: $line) -> $line {
                $fmadd(a, b, c)
            }
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn storeu(p: *mut $t, v: $line) {
                $storeu(p, v)
            }
        }
    };
}

element!(f64, 8, __m256d: _mm256_setzero_pd _mm256_loadu_pd _mm256_set1_pd _mm256_fmadd_pd
    _mm256_storeu_pd);
element!(f32, 16, __m256: _mm256_setzero_ps _mm256_loadu_ps _mm256_set1_ps _mm256_fmadd_ps
    _mm256_storeu_ps);

/// Output rows per register tile (independent accumulator chains in
/// flight, amortizing each packed-B load across MR rows).
const MR: usize = 4;
/// Interleaved partial-sum lanes in the `A·Bᵀ` dot-product kernel.
const NT_LANES: usize = 8;

/// Repack `b` (`kd × n`, row-major) into column strips of
/// [`Element::NR`]: strip `s` holds columns `s·NR .. s·NR+NR` laid out
/// `k`-major and zero-padded to full width, so the microkernel's inner loop
/// reads one contiguous `NR`-wide line per `k` instead of striding `n`
/// elements across `b`. Packing costs one pass over `b` and is amortized
/// over the output rows; serving packs each fitted weight matrix once.
pub fn pack_b<T: Element>(b: &[T], kd: usize, n: usize) -> Vec<T> {
    let nr = T::NR;
    let strips = n.div_ceil(nr);
    let mut out = vec![T::default(); strips * kd * nr];
    for s in 0..strips {
        let j0 = s * nr;
        let w = nr.min(n - j0);
        let dst = &mut out[s * kd * nr..(s + 1) * kd * nr];
        for k in 0..kd {
            dst[k * nr..k * nr + w].copy_from_slice(&b[k * n + j0..k * n + j0 + w]);
        }
    }
    out
}

/// Apply the fused epilogue to one accumulated tile row: `out[c] =
/// act(acc[c] + bias[j0+c])` for the `w` real (non-padding) columns.
#[inline(always)]
fn epilogue<T: Element>(
    acc: &T::Tile,
    out: &mut [T],
    j0: usize,
    w: usize,
    bias: Option<&[T]>,
    act: ActKind,
) {
    let acc = acc.as_ref();
    for (c, o) in out[..w].iter_mut().enumerate() {
        let s = bias.map_or(acc[c], |bv| acc[c] + bv[j0 + c]);
        *o = act.apply(s);
    }
}

// --- Portable fallback bodies --------------------------------------------
//
// One accumulator array per output row; `mul_add` per step. These compute
// exactly the values the intrinsics path computes (same chains, same
// rounding) — they run on non-x86 targets and hosts without AVX2/FMA.

/// `out = act(A_panel · packed(B) + bias)` for a panel of `rows` A-rows.
#[allow(clippy::too_many_arguments)]
fn mm_panel_generic<T: Element>(
    a: &[T],
    bp: &[T],
    out: &mut [T],
    rows: usize,
    kd: usize,
    n: usize,
    bias: Option<&[T]>,
    act: ActKind,
) {
    let nr = T::NR;
    let strips = n.div_ceil(nr);
    for r in 0..rows {
        let arow = &a[r * kd..(r + 1) * kd];
        for s in 0..strips {
            let j0 = s * nr;
            let w = nr.min(n - j0);
            let strip = &bp[s * kd * nr..(s + 1) * kd * nr];
            let mut acc = T::Tile::default();
            for (bk, &av) in strip.chunks_exact(nr).zip(arow) {
                for (s, &bx) in acc.as_mut().iter_mut().zip(bk) {
                    *s = av.mul_add(bx, *s);
                }
            }
            epilogue(&acc, &mut out[r * n + j0..(r + 1) * n], j0, w, bias, act);
        }
    }
}

/// One `A·Bᵀ` dot product: [`NT_LANES`] interleaved `mul_add` chains over
/// the two contiguous rows, merged by [`tree8`].
#[inline(always)]
fn nt_dot_generic(arow: &[f64], brow: &[f64]) -> f64 {
    let mut lanes = [0.0f64; NT_LANES];
    let mut ac = arow.chunks_exact(NT_LANES);
    let mut bc = brow.chunks_exact(NT_LANES);
    for (ax, bx) in (&mut ac).zip(&mut bc) {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = ax[l].mul_add(bx[l], *lane);
        }
    }
    for (l, (&ax, &bx)) in ac.remainder().iter().zip(bc.remainder()).enumerate() {
        lanes[l] = ax.mul_add(bx, lanes[l]);
    }
    tree8(&lanes)
}

/// `out_panel[r][j] = A_panel row r · B row j` — the `A·Bᵀ` panel kernel.
fn mm_nt_panel_generic(a: &[f64], b: &[f64], out: &mut [f64], rows: usize, kd: usize, n: usize) {
    for r in 0..rows {
        let arow = &a[r * kd..(r + 1) * kd];
        for j in 0..n {
            out[r * n + j] = nt_dot_generic(arow, &b[j * kd..(j + 1) * kd]);
        }
    }
}

/// `out_panel += ` the `Aᵀ·B` contribution for output rows `p0..p0+rows`:
/// `out[p][j] = Σ_i a[i][p] · b[i][j]`, ascending `i` per element. `out`
/// must be zeroed on entry; `a` is `m × kd_a` and `p` indexes its columns.
#[allow(clippy::too_many_arguments)]
fn mm_tn_panel_generic(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    p0: usize,
    rows: usize,
    m: usize,
    kd_a: usize,
    n: usize,
) {
    for i in 0..m {
        let brow = &b[i * n..(i + 1) * n];
        for dp in 0..rows {
            let av = a[i * kd_a + p0 + dp];
            let orow = &mut out[dp * n..(dp + 1) * n];
            for (o, &bx) in orow.iter_mut().zip(brow) {
                *o = av.mul_add(bx, *o);
            }
        }
    }
}

/// Fixed pairwise reduction of the 8 dot-product lanes.
#[inline(always)]
fn tree8(l: &[f64; 8]) -> f64 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

// --- x86-64 AVX2+FMA path -------------------------------------------------
//
// Hand-tiled intrinsics: the fused multiply-add intrinsic computes
// `fma(a, b, c)` per lane — the exact `mul_add` value — and the tiles walk
// the same per-element chains as the generic bodies, so the two paths are
// bitwise interchangeable. Intrinsics (rather than relying on
// auto-vectorization) because the accumulator tile must survive in
// registers: the register-pressure pattern is too fragile to trust to the
// optimizer.

#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{epilogue, nt_dot_generic, tree8, ActKind, Element, MR};
    use core::arch::x86_64::*;

    /// Panel matmul over packed B with fused epilogue; see
    /// [`super::mm_panel_generic`] for the reference semantics. Rows go in
    /// tiles of [`MR`], then one at a time.
    ///
    /// # Safety
    /// The CPU supports AVX2 and FMA, `a` holds `rows · kd` elements and
    /// `bp` holds the `n.div_ceil(T::NR)` strips [`super::pack_b`] makes.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn mm_panel<T: Element>(
        a: &[T],
        bp: &[T],
        out: &mut [T],
        rows: usize,
        kd: usize,
        n: usize,
        bias: Option<&[T]>,
        act: ActKind,
    ) {
        let full = rows / MR * MR;
        for i in (0..full).step_by(MR) {
            row_tile::<T, MR>(a, bp, out, i, kd, n, bias, act);
        }
        for i in full..rows {
            row_tile::<T, 1>(a, bp, out, i, kd, n, bias, act);
        }
    }

    /// Output rows `i .. i + R`, strip by strip: `R` rows × two lines of
    /// accumulators (8 ymm registers at `R = MR`), one ascending-`k` FMA
    /// chain per element.
    ///
    /// # Safety
    /// As [`mm_panel`], with `i + R ≤ rows`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_tile<T: Element, const R: usize>(
        a: &[T],
        bp: &[T],
        out: &mut [T],
        i: usize,
        kd: usize,
        n: usize,
        bias: Option<&[T]>,
        act: ActKind,
    ) {
        let (nr, half) = (T::NR, T::NR / 2);
        let ap = a.as_ptr().add(i * kd);
        for s in 0..n.div_ceil(nr) {
            let j0 = s * nr;
            let sp = bp.as_ptr().add(s * kd * nr);
            let mut c = [[T::zero(); 2]; R];
            for k in 0..kd {
                let b0 = T::loadu(sp.add(k * nr));
                let b1 = T::loadu(sp.add(k * nr + half));
                for (r, [lo, hi]) in c.iter_mut().enumerate() {
                    let v = T::set1(*ap.add(r * kd + k));
                    *lo = T::fmadd(v, b0, *lo);
                    *hi = T::fmadd(v, b1, *hi);
                }
            }
            for (r, [lo, hi]) in c.into_iter().enumerate() {
                let mut acc = T::Tile::default();
                T::storeu(acc.as_mut().as_mut_ptr(), lo);
                T::storeu(acc.as_mut().as_mut_ptr().add(half), hi);
                let orow = &mut out[(i + r) * n + j0..(i + r + 1) * n];
                epilogue(&acc, orow, j0, nr.min(n - j0), bias, act);
            }
        }
    }

    /// `A·Bᵀ` panel kernel; see [`super::mm_nt_panel_generic`].
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn mm_nt_panel(
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        rows: usize,
        kd: usize,
        n: usize,
    ) {
        let kc = kd / 8 * 8;
        let full = rows / MR * MR;
        let mut i = 0;
        while i < full {
            let a0 = a.as_ptr().add(i * kd);
            let a1 = a.as_ptr().add((i + 1) * kd);
            let a2 = a.as_ptr().add((i + 2) * kd);
            let a3 = a.as_ptr().add((i + 3) * kd);
            for j in 0..n {
                let bj = b.as_ptr().add(j * kd);
                // 4 rows × 8 interleaved lanes: 8 ymm accumulators. Lane l
                // accumulates k ≡ l (mod 8), exactly like the generic body.
                let mut c00 = _mm256_setzero_pd();
                let mut c01 = _mm256_setzero_pd();
                let mut c10 = _mm256_setzero_pd();
                let mut c11 = _mm256_setzero_pd();
                let mut c20 = _mm256_setzero_pd();
                let mut c21 = _mm256_setzero_pd();
                let mut c30 = _mm256_setzero_pd();
                let mut c31 = _mm256_setzero_pd();
                let mut k = 0;
                while k < kc {
                    let b0 = _mm256_loadu_pd(bj.add(k));
                    let b1 = _mm256_loadu_pd(bj.add(k + 4));
                    c00 = _mm256_fmadd_pd(_mm256_loadu_pd(a0.add(k)), b0, c00);
                    c01 = _mm256_fmadd_pd(_mm256_loadu_pd(a0.add(k + 4)), b1, c01);
                    c10 = _mm256_fmadd_pd(_mm256_loadu_pd(a1.add(k)), b0, c10);
                    c11 = _mm256_fmadd_pd(_mm256_loadu_pd(a1.add(k + 4)), b1, c11);
                    c20 = _mm256_fmadd_pd(_mm256_loadu_pd(a2.add(k)), b0, c20);
                    c21 = _mm256_fmadd_pd(_mm256_loadu_pd(a2.add(k + 4)), b1, c21);
                    c30 = _mm256_fmadd_pd(_mm256_loadu_pd(a3.add(k)), b0, c30);
                    c31 = _mm256_fmadd_pd(_mm256_loadu_pd(a3.add(k + 4)), b1, c31);
                    k += 8;
                }
                let pairs = [(c00, c01), (c10, c11), (c20, c21), (c30, c31)];
                for (r, (lo, hi)) in pairs.into_iter().enumerate() {
                    let mut lanes = [0.0f64; 8];
                    _mm256_storeu_pd(lanes.as_mut_ptr(), lo);
                    _mm256_storeu_pd(lanes.as_mut_ptr().add(4), hi);
                    // Tail: continue lane chains scalar (k ≡ l mod 8).
                    let ar = a.as_ptr().add((i + r) * kd);
                    for (l, k) in (kc..kd).enumerate() {
                        lanes[l] = (*ar.add(k)).mul_add(*bj.add(k), lanes[l]);
                    }
                    out[(i + r) * n + j] = tree8(&lanes);
                }
            }
            i += MR;
        }
        while i < rows {
            let arow = &a[i * kd..(i + 1) * kd];
            for j in 0..n {
                // mul_add compiles to hardware FMA inside this function.
                out[i * n + j] = nt_dot_generic(arow, &b[j * kd..(j + 1) * kd]);
            }
            i += 1;
        }
    }

    /// `Aᵀ·B` panel kernel; see [`super::mm_tn_panel_generic`].
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn mm_tn_panel(
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        p0: usize,
        rows: usize,
        m: usize,
        kd_a: usize,
        n: usize,
    ) {
        // Columns per register tile: two 4-lane `f64` lines.
        const NR: usize = <f64 as Element>::NR;
        let pfull = rows / MR * MR;
        let mut dp = 0;
        while dp < pfull {
            let mut j0 = 0;
            while j0 < n {
                let jw = NR.min(n - j0);
                if jw == NR {
                    // Full 4×8 tile held in registers across the whole
                    // ascending-i accumulation.
                    let mut c00 = _mm256_setzero_pd();
                    let mut c01 = _mm256_setzero_pd();
                    let mut c10 = _mm256_setzero_pd();
                    let mut c11 = _mm256_setzero_pd();
                    let mut c20 = _mm256_setzero_pd();
                    let mut c21 = _mm256_setzero_pd();
                    let mut c30 = _mm256_setzero_pd();
                    let mut c31 = _mm256_setzero_pd();
                    for i in 0..m {
                        let bi = b.as_ptr().add(i * n + j0);
                        let b0 = _mm256_loadu_pd(bi);
                        let b1 = _mm256_loadu_pd(bi.add(4));
                        let ai = a.as_ptr().add(i * kd_a + p0 + dp);
                        let v0 = _mm256_set1_pd(*ai);
                        c00 = _mm256_fmadd_pd(v0, b0, c00);
                        c01 = _mm256_fmadd_pd(v0, b1, c01);
                        let v1 = _mm256_set1_pd(*ai.add(1));
                        c10 = _mm256_fmadd_pd(v1, b0, c10);
                        c11 = _mm256_fmadd_pd(v1, b1, c11);
                        let v2 = _mm256_set1_pd(*ai.add(2));
                        c20 = _mm256_fmadd_pd(v2, b0, c20);
                        c21 = _mm256_fmadd_pd(v2, b1, c21);
                        let v3 = _mm256_set1_pd(*ai.add(3));
                        c30 = _mm256_fmadd_pd(v3, b0, c30);
                        c31 = _mm256_fmadd_pd(v3, b1, c31);
                    }
                    let pairs = [(c00, c01), (c10, c11), (c20, c21), (c30, c31)];
                    for (r, (lo, hi)) in pairs.into_iter().enumerate() {
                        let op = out.as_mut_ptr().add((dp + r) * n + j0);
                        _mm256_storeu_pd(op, lo);
                        _mm256_storeu_pd(op.add(4), hi);
                    }
                } else {
                    // Column remainder: memory accumulation, same
                    // ascending-i chain per element (fma inlines here).
                    for i in 0..m {
                        for r in 0..MR {
                            let av = a[i * kd_a + p0 + dp + r];
                            for c in 0..jw {
                                let o = &mut out[(dp + r) * n + j0 + c];
                                *o = av.mul_add(b[i * n + j0 + c], *o);
                            }
                        }
                    }
                }
                j0 += NR;
            }
            dp += MR;
        }
        // Row remainder: generic shape, ascending-i chains.
        for i in 0..m {
            let brow = &b[i * n..(i + 1) * n];
            for dp in pfull..rows {
                let av = a[i * kd_a + p0 + dp];
                let orow = &mut out[dp * n..(dp + 1) * n];
                for (o, &bx) in orow.iter_mut().zip(brow) {
                    *o = av.mul_add(bx, *o);
                }
            }
        }
    }
}

// --- Runtime dispatch -----------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[inline]
fn have_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Packed-B panel matmul with fused `+bias`/activation epilogue: `out =
/// act(a · b + bias)` for `rows` rows of `a` (`rows × kd`, row-major),
/// where `bp` is [`pack_b`] of the `kd × n` matrix `b` and `out` is
/// `rows × n`. Runs AVX2+FMA intrinsics where the CPU has them and the
/// bit-identical portable body elsewhere. Serial: callers split work into
/// row panels.
///
/// # Panics
/// If `a` is shorter than `rows · kd` or `bp` than the packed strips of a
/// `kd × n` matrix, or if `out` or `bias` is too short for `n` columns.
#[allow(clippy::too_many_arguments)]
pub fn mm_panel<T: Element>(
    a: &[T],
    bp: &[T],
    out: &mut [T],
    rows: usize,
    kd: usize,
    n: usize,
    bias: Option<&[T]>,
    act: ActKind,
) {
    assert!(a.len() >= rows * kd, "lhs panel shorter than rows × kd");
    assert!(
        bp.len() >= n.div_ceil(T::NR) * kd * T::NR,
        "packed rhs shorter than its strips"
    );
    #[cfg(target_arch = "x86_64")]
    if have_fma() {
        // SAFETY: the required CPU features were just detected, and the
        // asserts above bound every pointer the body reads from `a`/`bp`.
        return unsafe { avx::mm_panel(a, bp, out, rows, kd, n, bias, act) };
    }
    mm_panel_generic(a, bp, out, rows, kd, n, bias, act)
}

macro_rules! dispatch {
    ($name:ident, $generic:ident, ($($arg:ident : $ty:ty),*)) => {
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if have_fma() {
                // SAFETY: the required CPU features were just detected.
                return unsafe { avx::$name($($arg),*) };
            }
            $generic($($arg),*)
        }
    };
}

dispatch!(
    mm_nt_panel,
    mm_nt_panel_generic,
    (a: &[f64], b: &[f64], out: &mut [f64], rows: usize, kd: usize, n: usize)
);

dispatch!(
    mm_tn_panel,
    mm_tn_panel_generic,
    (
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        p0: usize,
        rows: usize,
        m: usize,
        kd_a: usize,
        n: usize
    )
);

#[cfg(test)]
mod tests {
    use super::*;

    fn seq<T: Element>(len: usize, mul: f64) -> Vec<T> {
        (0..len)
            .map(|i| T::from_f64((i as f64 * mul).sin()))
            .collect()
    }

    const ACTS: [ActKind; 5] = [
        ActKind::Identity,
        ActKind::Relu,
        ActKind::LeakyRelu(0.1),
        ActKind::Tanh,
        ActKind::Sigmoid,
    ];

    /// Odd sizes force both remainder rows and remainder columns in both
    /// tiles; 33×65×41 is a multi-strip panel with a 9-wide `f32` tail.
    const SHAPES: [(usize, usize, usize); 5] = [
        (1, 1, 1),
        (5, 9, 11),
        (13, 17, 23),
        (32, 64, 40),
        (33, 65, 41),
    ];

    #[test]
    fn act_kind_applies_in_both_precisions() {
        for act in ACTS {
            for x in [-3.0f64, -2.0, -0.75, -0.5, -0.0, 0.0, 0.5, 0.75, 2.0, 3.0] {
                let y64 = act.apply(x);
                assert!(y64.is_finite());
                let y32 = act.apply(x as f32);
                assert!(
                    (y32 as f64 - y64).abs() <= 1e-6,
                    "{act:?} at {x}: f32 {y32} vs f64 {y64}"
                );
            }
        }
    }

    fn panel_matches_generic<T: Element + std::fmt::Debug>() {
        for (rows, kd, n) in SHAPES {
            let a = seq::<T>(rows * kd, 0.37);
            let b = seq::<T>(kd * n, 0.61);
            let bias = seq::<T>(n, 0.13);
            let bp = pack_b(&b, kd, n);
            for act in ACTS {
                let mut fast = vec![T::default(); rows * n];
                mm_panel(&a, &bp, &mut fast, rows, kd, n, Some(&bias), act);
                let mut slow = vec![T::default(); rows * n];
                mm_panel_generic(&a, &bp, &mut slow, rows, kd, n, Some(&bias), act);
                assert_eq!(fast, slow, "mm {rows}x{kd}x{n} {act:?}");
            }
        }
    }

    #[test]
    fn dispatched_mm_panel_is_bit_identical_to_generic() {
        panel_matches_generic::<f64>();
        panel_matches_generic::<f32>();
    }

    #[test]
    fn dispatched_nt_and_tn_are_bit_identical_to_generic() {
        for (rows, kd, n) in [(1, 1, 1), (5, 9, 11), (13, 17, 23), (32, 30, 40)] {
            let a = seq(rows * kd, 0.29);
            let b = seq(n * kd, 0.41);
            let mut fast = vec![0.0; rows * n];
            mm_nt_panel(&a, &b, &mut fast, rows, kd, n);
            let mut slow = vec![0.0; rows * n];
            mm_nt_panel_generic(&a, &b, &mut slow, rows, kd, n);
            assert_eq!(fast, slow, "nt {rows}x{kd}x{n}");

            // tn: a is m×kd_a, out rows index a's columns.
            let (m, kd_a, nn) = (kd, rows, n);
            let a2 = seq(m * kd_a, 0.23);
            let b2 = seq(m * nn, 0.53);
            let mut fast = vec![0.0; kd_a * nn];
            mm_tn_panel(&a2, &b2, &mut fast, 0, kd_a, m, kd_a, nn);
            let mut slow = vec![0.0; kd_a * nn];
            mm_tn_panel_generic(&a2, &b2, &mut slow, 0, kd_a, m, kd_a, nn);
            assert_eq!(fast, slow, "tn {m}x{kd_a}x{nn}");
        }
    }

    /// Every tile and remainder element must equal the plain per-element
    /// ascending-k `mul_add` chain bit for bit.
    fn tiles_match_chain<T: Element + std::fmt::Debug>() {
        for (rows, kd, n) in SHAPES {
            let a = seq::<T>(rows * kd, 0.37);
            let b = seq::<T>(kd * n, 0.61);
            let bp = pack_b(&b, kd, n);
            let mut fast = vec![T::default(); rows * n];
            mm_panel(&a, &bp, &mut fast, rows, kd, n, None, ActKind::Identity);
            let mut slow = vec![T::default(); rows * n];
            for i in 0..rows {
                for j in 0..n {
                    let mut s = T::default();
                    for k in 0..kd {
                        s = a[i * kd + k].mul_add(b[k * n + j], s);
                    }
                    slow[i * n + j] = s;
                }
            }
            assert_eq!(fast, slow, "chain {rows}x{kd}x{n}");
        }
    }

    #[test]
    fn tile_and_remainder_elements_agree() {
        tiles_match_chain::<f64>();
        tiles_match_chain::<f32>();
    }
}
