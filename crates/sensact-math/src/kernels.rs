//! Cache-blocked, single-threaded compute kernels.
//!
//! Every dense hot path in the workspace (matrix products, conv lowering,
//! dense layers, Riccati iterations) funnels into the slice-level
//! GEMM in this module, so one implementation decides the performance and the
//! numerics of them all.
//!
//! Numerics contract: for each output element, products are accumulated in
//! ascending-`k` order regardless of blocking, so `gemm_naive`,
//! `gemm_blocked` and every path of [`gemm_transa`] produce **bitwise
//! identical** results; the entry points
//! that may take the fused multiply-add microkernel ([`gemm`],
//! [`gemm_transb`], the gathered and panel-source forms) stay within its
//! analytic forward-error bound. They take it only from `2¹⁴` multiply-adds
//! per item up; below that each produces the bits of its scalar loop — by
//! running it, or, for the gathered and panel-source forms, on the
//! multiply-then-add SIMD tile in its dot or chain mode ([`gemm_panel_source`]).
//! Unlike the old `Matrix::matmul`, no zero-operand skipping is performed:
//! NaN and signed-zero inputs propagate with full IEEE semantics.
//!
//! All kernels compute `C = alpha * op(A) * op(B) + beta * C` with `C`
//! pre-scaled by `beta` (`beta == 0.0` overwrites, ignoring any stale or NaN
//! contents, matching BLAS convention) and each product term scaled by
//! `alpha` as it is accumulated.

// BLAS-style entry points take (m, n, k, alpha, a, b, beta, c) — one argument
// over clippy's limit, kept for parity with the conventional GEMM signature.
#![allow(clippy::too_many_arguments)]

use crate::simd::{PanelSource, RowMajor, Transposed};

/// Columns per k-block: 256 f64 = 2 KiB per A-row slice, so an A block row and
/// the matching B rows stay resident in L1/L2 while a C row is updated.
const KC: usize = 256;

/// Tile edge for the blocked transpose (64×64 f64 = 32 KiB working set).
const TRANSPOSE_TILE: usize = 64;

#[inline]
fn check_gemm(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &[f64]) {
    assert_eq!(a.len(), m * k, "gemm: A must be m*k");
    assert_eq!(b.len(), k * n, "gemm: B must be k*n");
    assert_eq!(c.len(), m * n, "gemm: C must be m*n");
}

#[inline]
pub(crate) fn scale_c(beta: f64, c: &mut [f64]) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for x in c.iter_mut() {
            *x *= beta;
        }
    }
}

/// Reference triple-loop GEMM: `C = alpha * A[m×k] * B[k×n] + beta * C`.
///
/// Kept as the ground truth for the equivalence tests; accumulation order
/// per element matches the blocked kernel.
#[cfg(test)]
pub(crate) fn gemm_naive(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    check_gemm(m, n, k, a, b, c);
    scale_c(beta, c);
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for kk in 0..k {
                acc += alpha * a[i * k + kk] * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// Serial cache-blocked GEMM: `C = alpha * A[m×k] * B[k×n] + beta * C`.
///
/// k-blocked `ikj` loop nest: each A block-row is reused across a full C row
/// while B is streamed row-wise, so all three operands move through cache
/// sequentially.
pub(crate) fn gemm_blocked(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    check_gemm(m, n, k, a, b, c);
    scale_c(beta, c);
    for k0 in (0..k).step_by(KC) {
        let k1 = (k0 + KC).min(k);
        for i in 0..m {
            let a_row = &a[i * k + k0..i * k + k1];
            let c_row = &mut c[i * n..(i + 1) * n];
            for (kk, &aik) in a_row.iter().enumerate() {
                let scaled = alpha * aik;
                let b_row = &b[(k0 + kk) * n..(k0 + kk + 1) * n];
                for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                    *cj += scaled * bj;
                }
            }
        }
    }
}

/// Auto-dispatching GEMM: the register-blocked SIMD path
/// ([`simd`](crate::simd)) when the host ISA supports it and the problem is
/// large enough to amortize packing, else the cache-blocked kernel.
///
/// On SSE2 and scalar paths the result is bitwise identical to
/// `gemm_blocked`; the AVX2+FMA path differs only within the analytic
/// forward-error bound the dispatch tests check (fused multiply-add rounds
/// once per step instead of twice).
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    check_gemm(m, n, k, a, b, c);
    if crate::simd::simd_f64_eligible(m, n, k) {
        crate::simd::gemm_fma_f64(m, n, k, alpha, a, &RowMajor { b, n }, beta, c);
    } else {
        gemm_blocked(m, n, k, alpha, a, b, beta, c);
    }
}

/// `C = alpha * A[m×k] * B^T + beta * C`, with `b` stored row-major as
/// `[n×k]` (i.e. B-transposed is never materialised).
///
/// Each output element is a dot product of two contiguous rows, so this is
/// the preferred entry point for `X * W^T` / `G * P^T` shapes.
pub fn gemm_transb(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    assert_eq!(a.len(), m * k, "gemm_transb: A must be m*k");
    assert_eq!(b.len(), n * k, "gemm_transb: B must be n*k");
    assert_eq!(c.len(), m * n, "gemm_transb: C must be m*n");
    if crate::simd::simd_f64_eligible(m, n, k) {
        return crate::simd::gemm_fma_f64(m, n, k, alpha, a, &Transposed { b, k }, beta, c);
    }
    scale_c(beta, c);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += alpha * x * y;
            }
            c[i * n + j] += acc;
        }
    }
}

/// Batched `gemm_transb` over a shared left-hand side: `C_t = alpha * A *
/// B_t^T + beta * C_t` for `batch` items whose `B_t` (`[n×k]` row-major)
/// are stacked contiguously in `b_stack`. The caller supplies `big` already
/// in the gathered `[m × batch·n]` layout (item `t` occupies columns
/// `t·n..(t+1)·n`, e.g. pre-filled with a bias for `beta == 1`) and keeps
/// the result in that layout — no gather before the call, no scatter after
/// it.
///
/// Returns `true` if the wide invocation ran — exactly when `batch >= 2`,
/// on the tier the **per-item** shape selects, see [`gemm_panel_source`].
/// For `batch < 2` it returns `false` with `big` untouched: the caller runs
/// the one item's [`gemm_transb`] on its natural layout. Each output
/// element is a single dot product accumulated in ascending-`k` order
/// regardless of its column position, so the wide call is **bitwise
/// identical** to the per-item call for every batch size.
pub fn gemm_transb_gathered(
    batch: usize,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b_stack: &[f64],
    beta: f64,
    big: &mut [f64],
) -> bool {
    assert_eq!(a.len(), m * k, "gemm_transb_gathered: A must be m*k");
    assert_eq!(
        b_stack.len(),
        batch * n * k,
        "gemm_transb_gathered: B must be batch*n*k"
    );
    assert_eq!(
        big.len(),
        m * batch * n,
        "gemm_transb_gathered: C must be m * batch*n"
    );
    if batch < 2 {
        return false;
    }
    let b = Transposed { b: b_stack, k };
    gemm_panel_source(m, batch * n, k, n, true, alpha, a, &b, beta, big);
    true
}

/// `C = alpha * A * B + beta * C` with B read through a [`PanelSource`]
/// instead of from memory: B is `[k × n]`, `c` is `[m × n]` row-major, and
/// each packed panel is filled by `b` moments before the microkernel
/// consumes it. This is the entry the conv layers lower onto — their sources
/// unfold input taps straight into the panel, so no im2col matrix is ever
/// materialised.
///
/// The rounding tier is pinned on `(m, tier_n, k)`, never on `n`: `tier_n`
/// is the width of one item's *dense* product. A batch passes `n =
/// batch·tier_n` and computes what its items would alone; a site-sparse conv
/// passes the sites it lists as `n` and its full output volume as `tier_n`,
/// and computes the bits of the dense layer at those sites. Each element is
/// one chain over its own column whatever else is in the call:
///
/// - `m·tier_n·k ≥ 2¹⁴`: the FMA tier (one chain per element from its
///   `beta·C` seed, within the analytic bound of the scalar kernels);
/// - below that, and on every shape where the FMA tile is off
///   (`SENSACT_FORCE_SCALAR`, a host without an f64 vector ISA), the bits of
///   the scalar loop the caller stands in for: with `dot`, the **bitwise
///   dot** tier — the multiply-then-add tile (the host's, or the portable
///   one) with the whole-`k` sum started at `+0.0` and added to the seed
///   once, `to_bits` the scalar [`gemm_transb`] row-dot (at `k = 0`,
///   `beta·C + (+0.0)`); without, the same tile in **chain** mode — one
///   chain from the `beta·C` seed, `to_bits` `gemm_blocked`, as [`gemm`]
///   (at `k = 0`, `beta·C`).
///
/// `c` is always written; an `m·n = 0` product writes nothing.
pub fn gemm_panel_source<S: PanelSource>(
    m: usize,
    n: usize,
    k: usize,
    tier_n: usize,
    dot: bool,
    alpha: f64,
    a: &[f64],
    b: &S,
    beta: f64,
    c: &mut [f64],
) {
    assert_eq!(a.len(), m * k, "gemm_panel_source: A must be m*k");
    assert_eq!(c.len(), m * n, "gemm_panel_source: C must be m*n");
    if crate::simd::simd_f64_eligible(m, tier_n, k) {
        crate::simd::gemm_fma_f64(m, n, k, alpha, a, b, beta, c)
    } else if dot {
        crate::simd::gemm_tile_f64::<true, _>(m, n, k, alpha, a, b, beta, c)
    } else {
        crate::simd::gemm_tile_f64::<false, _>(m, n, k, alpha, a, b, beta, c)
    }
}

/// Doubles of C a row block of the scalar [`gemm_transa`] loop covers
/// (32 KiB): the block stays L1-resident while `k` sweeps over it.
const TRANSA_BLOCK: usize = 1 << 12;

/// `C = alpha * A^T * B + beta * C`, with `a` stored row-major as `[k×m]`
/// (i.e. A-transposed is never materialised).
///
/// Used for `X^T * G` gradient shapes and the `B^T P A` terms of the
/// Riccati recursion; the conv layers' transposed products fold the same
/// dots through [`fold_dots`] instead. Every path — the register-tiled
/// SIMD kernels and the row-blocked scalar loop — multiplies, then adds, in
/// ascending `k`, so the result is **bitwise identical** to
/// `gemm_naive` on the explicit transpose on every host (never FMA:
/// trace hashes and goldens pin these bits).
pub fn gemm_transa(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    assert_eq!(a.len(), k * m, "gemm_transa: A must be k*m");
    assert_eq!(b.len(), k * n, "gemm_transa: B must be k*n");
    assert_eq!(c.len(), m * n, "gemm_transa: C must be m*n");
    if crate::simd::simd_f64_eligible(m, n, k) {
        return crate::simd::gemm_transa_f64(m, n, k, alpha, a, b, beta, c);
    }
    scale_c(beta, c);
    let rows = (TRANSA_BLOCK / n.max(1)).max(1);
    for i0 in (0..m).step_by(rows) {
        let i1 = (i0 + rows).min(m);
        for kk in 0..k {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (&aki, c_row) in a[kk * m + i0..kk * m + i1]
                .iter()
                .zip(c[i0 * n..i1 * n].chunks_exact_mut(n.max(1)))
            {
                let scaled = alpha * aki;
                for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                    *cj += scaled * bj;
                }
            }
        }
    }
}

/// The IEEE sign bit of an `f64`.
pub(crate) const SIGN_BIT: u64 = 1 << 63;

/// Signed left fold: `out[j] = ((base[j] ± steps[0]) ± steps[1]) ± …`,
/// where `steps[i]` is negated at `j` when bit `63 − i % 64` of
/// `signs[(i / 64) * p + j]` is set (`p = base.len()`; one 64-bit sign plane
/// per 64 steps, each plane's steps stored from the top bit down, so a left
/// shift by `i % 64` brings step `i`'s sign to the sign bit). This is
/// `θ₀ + U v` for a ±`s` basis `U` with
/// `steps[i] = vᵢ·s`: `vᵢ·(−s) = −(vᵢ·s)` exactly under round-to-nearest.
///
/// Every arm — 512-bit lanes on an AVX-512F host, 256-bit lanes on an AVX2
/// one, the scalar loop elsewhere and under `SENSACT_FORCE_SCALAR` — adds
/// the terms of each element in ascending `i`, so all of them produce the
/// bits of `t += if bit { -s } else { s }`.
pub fn sign_fold(base: &[f64], steps: &[f64], signs: &[u64], out: &mut [f64]) {
    sign_fold_on(crate::simd::fold_arm(), base, steps, signs, out);
}

/// [`sign_fold`] on `arm`, or on the scalar loop where the host cannot run
/// it.
fn sign_fold_on(
    arm: crate::simd::FoldArm,
    base: &[f64],
    steps: &[f64],
    signs: &[u64],
    out: &mut [f64],
) {
    let p = base.len();
    assert_eq!(out.len(), p, "sign_fold: out must match base");
    assert_eq!(
        signs.len(),
        steps.len().div_ceil(64) * p,
        "sign_fold: one sign plane of p words per 64 steps"
    );
    if crate::simd::sign_fold_f64(arm, base, steps, signs, out) {
        return;
    }
    out.copy_from_slice(base);
    for (i, &s) in steps.iter().enumerate() {
        let plane = &signs[(i / 64) * p..][..p];
        let shift = i % 64;
        for (t, &w) in out.iter_mut().zip(plane) {
            *t += f64::from_bits(s.to_bits() ^ ((w << shift) & SIGN_BIT));
        }
    }
    crate::simd::fold_ran(crate::simd::FoldArm::Scalar);
}

/// The transposed lowerings' fold: for every tap `[q, at]` of `taps` and
/// lane `i < n`, `dst[at + i·s] += Σ_c w[c·ldw + q] · a[c·lda + i]`. Each
/// dot starts at `+0.0` and multiplies, then adds, in ascending `c` with
/// the weight as the left operand (never fused): an element of
/// [`gemm_transa`]`(.., 1.0, w, a, 0.0, ..)`. It is added to `dst` once.
///
/// The `(tap, lane)` pairs must land on distinct elements of `dst`; then
/// every arm — 512-bit lanes on an AVX-512F host, 256-bit lanes on an AVX2
/// one, the scalar loop elsewhere and under `SENSACT_FORCE_SCALAR` —
/// produces the same bits, whatever order it visits the pairs in.
///
/// # Panics
///
/// Panics if a tap or lane reaches past `w`, `a` or `dst`.
pub fn fold_dots(
    k: usize,
    w: &[f64],
    ldw: usize,
    a: &[f64],
    lda: usize,
    n: usize,
    taps: &[[usize; 2]],
    s: usize,
    dst: &mut [f64],
) {
    fold_dots_on(crate::simd::fold_arm(), k, w, ldw, a, lda, n, taps, s, dst);
}

/// [`fold_dots`] on `arm`, or on the scalar loop where the host cannot run
/// it.
fn fold_dots_on(
    arm: crate::simd::FoldArm,
    k: usize,
    w: &[f64],
    ldw: usize,
    a: &[f64],
    lda: usize,
    n: usize,
    taps: &[[usize; 2]],
    s: usize,
    dst: &mut [f64],
) {
    if n == 0 || taps.is_empty() {
        return;
    }
    if crate::simd::fold_dots_f64(arm, k, w, ldw, a, lda, n, taps, s, dst) {
        return;
    }
    let mut acc = [0.0f64; 8];
    for &[q, at] in taps {
        for i0 in (0..n).step_by(8) {
            let acc = &mut acc[..(n - i0).min(8)];
            acc.fill(0.0);
            for c in 0..k {
                let wv = w[c * ldw + q];
                for (x, &av) in acc.iter_mut().zip(&a[c * lda + i0..]) {
                    *x += wv * av;
                }
            }
            for (i, &x) in acc.iter().enumerate() {
                dst[at + (i0 + i) * s] += x;
            }
        }
    }
    crate::simd::fold_ran(crate::simd::FoldArm::Scalar);
}

/// Fused matrix–vector product: `y = A[m×k] * x`, no intermediate
/// allocations. `y` is fully overwritten.
pub(crate) fn matvec_into(m: usize, k: usize, a: &[f64], x: &[f64], y: &mut [f64]) {
    assert_eq!(a.len(), m * k, "matvec_into: A must be m*k");
    assert_eq!(x.len(), k, "matvec_into: x must have len k");
    assert_eq!(y.len(), m, "matvec_into: y must have len m");
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (&aij, &xj) in a[i * k..(i + 1) * k].iter().zip(x) {
            acc += aij * xj;
        }
        *yi = acc;
    }
}

/// Blocked out-of-place transpose: `dst[c][r] = src[r][c]` for a row-major
/// `rows×cols` source. Tiling keeps both the read and write streams within a
/// cache-sized window instead of striding the full destination per element.
pub(crate) fn transpose_into(rows: usize, cols: usize, src: &[f64], dst: &mut [f64]) {
    assert_eq!(
        src.len(),
        rows * cols,
        "transpose_into: src must be rows*cols"
    );
    assert_eq!(
        dst.len(),
        rows * cols,
        "transpose_into: dst must be rows*cols"
    );
    for r0 in (0..rows).step_by(TRANSPOSE_TILE) {
        let r1 = (r0 + TRANSPOSE_TILE).min(rows);
        for c0 in (0..cols).step_by(TRANSPOSE_TILE) {
            let c1 = (c0 + TRANSPOSE_TILE).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Precision modes
// ---------------------------------------------------------------------------

/// Numeric precision of a compute path, ordered from most precise (and most
/// expensive) to cheapest.
///
/// A label on a tick record, not a compute path: every kernel in this module
/// is f64 and every in-tree loop records [`Precision::F64`]. `sensact-core`
/// re-exports the type because tick records, checkpoints and JSONL
/// recordings carry the column, and older recordings hold other values in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Precision {
    /// Full double precision — the default and the trusted-fallback mode.
    #[default]
    F64,
    /// Single precision.
    F32,
    /// Symmetric 8-bit quantization on the `fake_quantize` max-abs/127
    /// grid.
    Int8,
}

impl Precision {
    /// All modes, most precise first.
    pub const ALL: [Precision; 3] = [Precision::F64, Precision::F32, Precision::Int8];

    /// Stable lowercase name used in telemetry and JSONL recordings.
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }

    /// Parse the [`as_str`](Precision::as_str) form back.
    pub fn parse(s: &str) -> Option<Precision> {
        match s {
            "f64" => Some(Precision::F64),
            "f32" => Some(Precision::F32),
            "int8" => Some(Precision::Int8),
            _ => None,
        }
    }

    /// Cost rank: `0` (f64, most expensive) to `2` (int8, cheapest).
    pub fn rank(self) -> u8 {
        self as u8
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rng::StdRng;

    fn random_mat(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.gen_f64() * 2.0 - 1.0).collect()
    }

    /// The quiet NaN x86 itself produces for `inf − inf` and `0 · inf`. The
    /// hostile grids salt with it rather than `f64::NAN` (sign bit clear)
    /// so that every NaN in play has one bit pattern: which operand's
    /// payload an add of two *different* NaNs keeps follows the compiler's
    /// operand order, and a `to_bits` comparison must not hang on that.
    pub(crate) const X86_NAN: f64 = f64::from_bits(0xfff8_0000_0000_0000);

    /// Overwrite one random element of `buf` with each IEEE special (NaN,
    /// `±inf`, `±0.0`): the kernels promise full propagation, no skipping.
    pub(crate) fn salt_hostile(rng: &mut StdRng, buf: &mut [f64]) {
        for v in [X86_NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0] {
            if !buf.is_empty() {
                buf[rng.random_range(0..buf.len())] = v;
            }
        }
    }

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    /// Shapes chosen to straddle the KC block edge and the SIMD-dispatch
    /// threshold, plus degenerate 1×N / N×1 cases.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 17, 5),
        (23, 1, 9),
        (3, 4, 1),
        (7, 11, 13),
        (32, 32, 32),
        (5, 9, 255),
        (5, 9, 256),
        (5, 9, 257),
        (64, 64, 300),
        (129, 65, 257),
        (160, 160, 160),
    ];

    #[test]
    fn blocked_matches_naive() {
        let mut rng = StdRng::seed_from_u64(0xB10C);
        for &(m, n, k) in SHAPES {
            let a = random_mat(&mut rng, m * k);
            let b = random_mat(&mut rng, k * n);
            let mut c_ref = vec![0.0; m * n];
            gemm_naive(m, n, k, 1.0, &a, &b, 0.0, &mut c_ref);

            let mut c_blk = vec![f64::NAN; m * n];
            gemm_blocked(m, n, k, 1.0, &a, &b, 0.0, &mut c_blk);
            assert!(
                max_abs_diff(&c_ref, &c_blk) <= 1e-12,
                "blocked mismatch at {m}x{n}x{k}"
            );

            let mut c_auto = vec![f64::NAN; m * n];
            gemm(m, n, k, 1.0, &a, &b, 0.0, &mut c_auto);
            assert!(
                max_abs_diff(&c_blk, &c_auto) <= auto_tol(k),
                "auto dispatch diverged at {m}x{n}x{k}"
            );
        }
    }

    /// Tolerance for the auto-dispatching `gemm` versus the scalar kernels:
    /// zero (bitwise) unless the host can take the FMA path, in which case
    /// the analytic forward-error bound for inputs in [-1, 1] applies.
    fn auto_tol(k: usize) -> f64 {
        if crate::simd::cpu_features().simd_f64() {
            4.0 * (k as f64 + 2.0) * f64::EPSILON * k as f64 + f64::MIN_POSITIVE
        } else {
            0.0
        }
    }

    /// Satellite: every dispatch path over non-square and degenerate shapes
    /// (k = 0 pure beta-scale, single-row, single-column, tall/skinny, one
    /// large square), under every `beta` class (0 overwrites stale contents,
    /// 1, other).
    #[test]
    fn dispatch_paths_agree_on_degenerate_and_skinny_shapes() {
        const ODD_SHAPES: &[(usize, usize, usize)] = &[
            (1, 1, 0),
            (4, 7, 0),
            (0, 5, 3),
            (5, 0, 3),
            (1, 64, 16),
            (1, 300, 257),
            (200, 1, 31),
            (3, 500, 9),
            (500, 3, 9),
            (37, 2, 400),
            (2, 37, 400),
            (160, 160, 96),
        ];
        const PARAMS: &[(f64, f64)] = &[
            (0.7, 0.3),
            (1.0, 0.0),
            (0.5, 0.0),
            (-1.25, 0.75),
            (1.0, 1.0),
        ];
        let mut rng = StdRng::seed_from_u64(0xD15);
        for &(m, n, k) in ODD_SHAPES {
            let a = random_mat(&mut rng, m * k);
            let b = random_mat(&mut rng, k * n);
            let base = random_mat(&mut rng, m * n);
            let bt = random_mat(&mut rng, n * k);
            let mut b_rm = vec![0.0; k * n];
            transpose_into(n, k, &bt, &mut b_rm);

            for &(alpha, beta) in PARAMS {
                let case = format!("{m}x{n}x{k} alpha={alpha} beta={beta}");
                let mut c_ref = base.clone();
                gemm_naive(m, n, k, alpha, &a, &b, beta, &mut c_ref);

                // Scalar paths: bitwise.
                let mut c_blk = base.clone();
                gemm_blocked(m, n, k, alpha, &a, &b, beta, &mut c_blk);
                assert_eq!(c_ref, c_blk, "blocked at {case}");

                // Auto dispatch: within the FMA bound.
                let mut c_auto = base.clone();
                gemm(m, n, k, alpha, &a, &b, beta, &mut c_auto);
                assert!(
                    max_abs_diff(&c_ref, &c_auto) <= auto_tol(k),
                    "auto at {case}"
                );

                // Transposed-B path over the same shapes.
                if m > 0 && n > 0 {
                    let mut c_t_ref = base.clone();
                    gemm_naive(m, n, k, alpha, &a, &b_rm, beta, &mut c_t_ref);
                    let mut c_t = base.clone();
                    gemm_transb(m, n, k, alpha, &a, &bt, beta, &mut c_t);
                    assert!(
                        max_abs_diff(&c_t_ref, &c_t) <= auto_tol(k).max(1e-12),
                        "transb at {case}"
                    );
                }
            }
        }
    }

    #[test]
    fn precision_mode_round_trips_and_orders_by_cost() {
        for p in Precision::ALL {
            assert_eq!(Precision::parse(p.as_str()), Some(p));
            assert_eq!(format!("{p}"), p.as_str());
        }
        assert_eq!(Precision::parse("bf16"), None);
        assert_eq!(Precision::default(), Precision::F64);
        assert!(Precision::F64.rank() < Precision::F32.rank());
        assert!(Precision::F32.rank() < Precision::Int8.rank());
    }

    #[test]
    fn alpha_beta_accumulation() {
        let mut rng = StdRng::seed_from_u64(7);
        let (m, n, k) = (13, 7, 19);
        let a = random_mat(&mut rng, m * k);
        let b = random_mat(&mut rng, k * n);
        let base = random_mat(&mut rng, m * n);

        let mut c_ref = base.clone();
        gemm_naive(m, n, k, 0.5, &a, &b, 2.0, &mut c_ref);
        let mut c_blk = base.clone();
        gemm_blocked(m, n, k, 0.5, &a, &b, 2.0, &mut c_blk);
        assert!(max_abs_diff(&c_ref, &c_blk) <= 1e-12);

        // beta == 0.0 must overwrite even NaN-poisoned output buffers.
        let mut c_nan = vec![f64::NAN; m * n];
        gemm_blocked(m, n, k, 1.0, &a, &b, 0.0, &mut c_nan);
        assert!(c_nan.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn transb_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, n, k) in SHAPES {
            let a = random_mat(&mut rng, m * k);
            let bt = random_mat(&mut rng, n * k); // stored as [n, k]
            let mut b = vec![0.0; k * n];
            transpose_into(n, k, &bt, &mut b); // b = B as [k, n]

            let mut c_ref = vec![0.0; m * n];
            gemm_naive(m, n, k, 1.0, &a, &b, 0.0, &mut c_ref);
            let mut c = vec![0.0; m * n];
            gemm_transb(m, n, k, 1.0, &a, &bt, 0.0, &mut c);
            assert!(
                max_abs_diff(&c_ref, &c) <= 1e-12,
                "transb mismatch at {m}x{n}x{k}"
            );
        }
    }

    /// `gemm_transa` is on the bitwise tier: trace hashes and goldens rely
    /// on it matching the naive kernel bit for bit on every path (the
    /// register tiles on the host ISA, the row-blocked loop under
    /// `SENSACT_FORCE_SCALAR=1`), over ragged tiles, `alpha != 1`, every
    /// `beta` class, and stale NaNs that `beta == 0` must overwrite.
    #[test]
    fn transa_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(13);
        for &m in &[1usize, 3, 4, 5, 1080] {
            for &n in &[1usize, 7, 8, 9, 64, 216] {
                for &k in &[0usize, 1, 8, 16, 257] {
                    let at = random_mat(&mut rng, k * m); // stored as [k, m]
                    let b = random_mat(&mut rng, k * n);
                    let mut a = vec![0.0; m * k];
                    transpose_into(k, m, &at, &mut a); // a = A as [m, k]
                    for &beta in &[0.0, 1.0, 0.5] {
                        let base = if beta == 0.0 {
                            vec![f64::NAN; m * n]
                        } else {
                            random_mat(&mut rng, m * n)
                        };
                        let mut c_ref = base.clone();
                        gemm_naive(m, n, k, -0.75, &a, &b, beta, &mut c_ref);
                        let mut c = base;
                        gemm_transa(m, n, k, -0.75, &at, &b, beta, &mut c);
                        assert!(
                            c_ref
                                .iter()
                                .zip(&c)
                                .all(|(x, y)| x.to_bits() == y.to_bits()),
                            "transa not bitwise at {m}x{n}x{k} beta={beta}"
                        );
                    }
                }
            }
        }
    }

    /// The serving plane's core numeric guarantee: batching loops that
    /// share an operand must not change a single bit of any loop's output.
    /// The oracle is the per-item scalar-dispatched `gemm_transb`; the wide
    /// call must match it with `to_bits` on both rounding tiers — the FMA
    /// tier from 2^14 multiply-adds per item up (where a naive
    /// implementation would let the *stacked* size pick the tier) and the
    /// bitwise dot tier below, the portable tile's under
    /// `SENSACT_FORCE_SCALAR` — for every shape with `batch >= 2`, empty
    /// ones included; a smaller batch leaves the panel untouched.
    #[test]
    fn gathered_transb_is_bitwise_identical_to_per_item_dispatch() {
        // (batch, m, n, k): per-item ops span ~1 .. ~200k around the 2^14
        // tier boundary; batches include 0, 1, odd, and large-enough-to-
        // cross-the-boundary-when-stacked counts (the ragged-tail shapes the
        // conv planner produces).
        let mut cases = vec![
            (0, 3, 4, 5),
            (1, 4, 4, 4),
            (1, 16, 64, 32), // a batch of one is the caller's
            (3, 1, 1, 1),
            (32, 4, 16, 16), // 1k ops/item, 32k stacked: must stay bitwise
            (32, 4, 64, 27), // the served lidar conv
            (7, 4, 64, 27),
            (5, 8, 64, 32),  // 16k ops/item: exactly at the tier boundary
            (3, 16, 64, 32), // comfortably FMA per item
            (2, 32, 32, 32),
            (17, 6, 50, 13), // ragged: m not a multiple of any tile height
            (4, 5, 0, 9),    // n == 0: C is empty
            (4, 5, 9, 0),    // k == 0: beta·C + (+0.0), the row-dot's empty sum
            (3, 2, 3, 255),
            (3, 2, 3, 256), // one full k block
            (3, 2, 3, 257), // a dot is never split: the whole k is one block
            (2, 3, 5, 1),
        ];
        // Every (m mod MR, n mod NR) residue of both bitwise tiles, the
        // stacked width `batch·n` included (batch = 3 keeps it ragged).
        for m in 1..=8 {
            for n in 1..=8 {
                cases.push((3, m, n, 11));
            }
        }
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        let mut wide_cases = 0;
        for &(batch, m, n, k) in &cases {
            for &(alpha, beta) in &[(0.7, 0.0), (0.7, 1.0), (-1.25, 0.5), (1.0, 1.0)] {
                for hostile in [false, true] {
                    let mut a = random_mat(&mut rng, m * k);
                    let mut b_stack = random_mat(&mut rng, batch * n * k);
                    let mut base = random_mat(&mut rng, m * batch * n);
                    if hostile {
                        for buf in [&mut a, &mut b_stack, &mut base] {
                            salt_hostile(&mut rng, buf);
                        }
                    }
                    let mut big = base.clone();
                    let wide =
                        gemm_transb_gathered(batch, m, n, k, alpha, &a, &b_stack, beta, &mut big);
                    let case =
                        format!("batch={batch} {m}x{n}x{k} alpha={alpha} beta={beta} {hostile}");
                    assert_eq!(wide, batch >= 2, "wide call skipped at {case}");
                    wide_cases += usize::from(wide);
                    let mut want = base;
                    if wide {
                        // Item t is columns t·n..(t+1)·n of the gathered panel.
                        let nn = batch * n;
                        for t in 0..batch {
                            let mut c_t: Vec<f64> = (0..m)
                                .flat_map(|i| want[i * nn + t * n..][..n].iter().copied())
                                .collect();
                            let b_t = &b_stack[t * n * k..(t + 1) * n * k];
                            gemm_transb(m, n, k, alpha, &a, b_t, beta, &mut c_t);
                            for (i, row) in c_t.chunks_exact(n.max(1)).enumerate() {
                                want[i * nn + t * n..][..n].copy_from_slice(row);
                            }
                        }
                    }
                    for (i, (x, y)) in want.iter().zip(&big).enumerate() {
                        assert!(
                            x.to_bits() == y.to_bits(),
                            "gemm_transb_gathered not bitwise at {case} (wide={wide}): \
                             element {i} is {y:e} ({:#x}), per-item has {x:e} ({:#x})",
                            y.to_bits(),
                            x.to_bits()
                        );
                    }
                }
            }
        }
        // Most of the grid ran wide, on either leg.
        assert!(wide_cases > 500, "{wide_cases} wide cases");
    }

    /// `gemm_panel_source` without `dot` stands in for `gemm`: on every tier
    /// — FMA from `2¹⁴` multiply-adds up, the chain-mode tile below (the
    /// portable one under `SENSACT_FORCE_SCALAR`), a `k` deeper than one
    /// block included, `k = 0` too — it gives `gemm`'s bits, from a non-zero
    /// seed and under IEEE specials.
    #[test]
    fn chain_panel_source_is_bitwise_identical_to_gemm() {
        let mut rng = StdRng::seed_from_u64(0xC4A1);
        let shapes = [
            (1, 1, 1),
            (8, 27, 30),
            (3, 5, 257),
            (16, 64, 16),
            (7, 13, 600),
            (16, 216, 90),
            (4, 9, 0),
        ];
        for &(m, n, k) in &shapes {
            for &(alpha, beta) in &[(1.0, 1.0), (-0.75, 0.5), (1.0, 0.0)] {
                for hostile in [false, true] {
                    let mut a = random_mat(&mut rng, m * k);
                    let mut b = random_mat(&mut rng, k * n);
                    let mut base = random_mat(&mut rng, m * n);
                    if hostile {
                        for buf in [&mut a, &mut b, &mut base] {
                            salt_hostile(&mut rng, buf);
                        }
                    }
                    let mut want = base.clone();
                    gemm(m, n, k, alpha, &a, &b, beta, &mut want);
                    let mut got = base.clone();
                    let src = RowMajor { b: &b, n };
                    gemm_panel_source(m, n, k, n, false, alpha, &a, &src, beta, &mut got);
                    let case = format!("{m}x{n}x{k} alpha={alpha} beta={beta} {hostile}");
                    for (i, (x, y)) in want.iter().zip(&got).enumerate() {
                        assert!(
                            x.to_bits() == y.to_bits(),
                            "chain panel source not bitwise at {case}: element {i} is {y:e}, \
                             gemm has {x:e}"
                        );
                    }
                }
            }
        }
    }

    /// Every sign-fold arm the host can execute — the scalar loop, the
    /// 256-bit and the 512-bit lanes — against the fold written out: `t +=
    /// ±s` in ascending step order, `to_bits`-equal. Lengths run 0–40 and
    /// straddle the 8-lane vector and 32-element block edges up to 936 (the
    /// STARNet encoder's); step counts straddle a sign plane. Steps hold
    /// `±0.0` and subnormals, whose signs a wrong negation would lose; a
    /// hostile round salts bases with `±inf` and NaN and adds an infinite and
    /// a NaN step. Every NaN in play is [`X86_NAN`] (a NaN step's signs are
    /// chosen so each of its terms is), so no bit hangs on which operand of
    /// an add the compiler puts first. The dispatched fold must run the
    /// host's widest arm: the 512-bit one on an AVX-512 host, the scalar loop
    /// under `SENSACT_FORCE_SCALAR`.
    #[test]
    fn sign_fold_matches_the_scalar_fold() {
        use crate::simd::{cpu_features, take_fold_arms_run, FoldArm};
        let f = cpu_features();
        let arms: Vec<FoldArm> = [
            (true, FoldArm::Scalar),
            (f.avx2, FoldArm::Avx2),
            (f.avx512f, FoldArm::Zmm),
        ]
        .into_iter()
        .filter_map(|(runs, arm)| runs.then_some(arm))
        .collect();
        let widest = if f.forced_scalar || !f.avx2 {
            FoldArm::Scalar
        } else if f.avx512f {
            FoldArm::Zmm
        } else {
            FoldArm::Avx2
        };
        let mut rng = StdRng::seed_from_u64(0x5F01D);
        let specials = [-0.0, 0.0, 5e-324, -2.5e-310, f64::MIN_POSITIVE];
        let lengths = (0..=40).chain([63, 64, 65, 95, 96, 97, 127, 128, 129, 255, 257, 929, 936]);
        for p in lengths {
            for rank in [0usize, 1, 16, 64, 65, 130] {
                for hostile in [false, true] {
                    let mut base: Vec<f64> = (0..p)
                        .map(|j| match j % 7 {
                            3 => -0.0,
                            5 => specials[j % specials.len()],
                            _ => rng.gen_f64() - 0.5,
                        })
                        .collect();
                    let mut steps: Vec<f64> = (0..rank)
                        .map(|i| specials.get(i % 8).copied().unwrap_or(rng.gen_f64() * 1e-3))
                        .collect();
                    let mut signs: Vec<u64> =
                        (0..rank.div_ceil(64) * p).map(|_| rng.next_u64()).collect();
                    if hostile {
                        for (j, b) in base.iter_mut().enumerate() {
                            match j % 11 {
                                2 => *b = f64::INFINITY,
                                6 => *b = f64::NEG_INFINITY,
                                9 => *b = X86_NAN,
                                _ => {}
                            }
                        }
                        if rank > 1 {
                            steps[rank / 2] = f64::INFINITY;
                            // Either sign of NaN, each term negated to X86_NAN.
                            let i = rank - 1;
                            let nan = if i % 2 == 0 { X86_NAN } else { -X86_NAN };
                            steps[i] = nan;
                            let negate = u64::from(nan.is_sign_positive()) << (63 - i % 64);
                            for w in &mut signs[(i / 64) * p..][..p] {
                                *w = *w & !(1 << (63 - i % 64)) | negate;
                            }
                        }
                    }
                    let mut want = base.clone();
                    for (j, t) in want.iter_mut().enumerate() {
                        for (i, &s) in steps.iter().enumerate() {
                            let negate = signs[(i / 64) * p + j] << (i % 64) >> 63 == 1;
                            *t += if negate { -s } else { s };
                        }
                    }
                    let case = format!("p={p} rank={rank} hostile={hostile}");
                    let check = |out: &[f64], arm: FoldArm| {
                        for (j, (x, y)) in want.iter().zip(out).enumerate() {
                            assert!(
                                x.to_bits() == y.to_bits(),
                                "{arm:?} sign_fold not bitwise at {case} element {j}: {y:e} vs {x:e}"
                            );
                        }
                    };
                    for &arm in &arms {
                        let mut out = vec![f64::NAN; p];
                        take_fold_arms_run();
                        sign_fold_on(arm, &base, &steps, &signs, &mut out);
                        assert_eq!(take_fold_arms_run(), 1 << arm as u32, "{arm:?} at {case}");
                        check(&out, arm);
                    }
                    let mut out = vec![f64::NAN; p];
                    sign_fold(&base, &steps, &signs, &mut out);
                    assert_eq!(
                        take_fold_arms_run(),
                        1 << widest as u32,
                        "the dispatched fold ran a narrower arm than {widest:?} at {case}"
                    );
                    check(&out, widest);
                }
            }
        }
    }

    /// Every [`fold_dots`] arm the host can execute — the scalar loop, the
    /// AVX2 one, the AVX-512 one — against the written-out chain, `to_bits`:
    /// `k` from 0 up past 16, 1 to 17 lanes (one full vector, a masked tail,
    /// several vectors), 1, 8 and more than 8 taps, strides 1, 2 and 3 with
    /// the taps of one stride interleaved on one grid (so a store that
    /// touched a lane it does not own would clobber another tap's sum),
    /// every `a` operand cut to the last lane it holds. Hostile rounds seed
    /// NaN and `±inf` weights, `-0.0` and NaN destinations and `-0.0`
    /// operands; every NaN in play is [`X86_NAN`]. The dispatched fold must
    /// run the host's widest arm.
    #[test]
    fn fold_dots_matches_the_written_out_chain() {
        use crate::simd::{cpu_features, take_fold_arms_run, FoldArm};
        let f = cpu_features();
        let arms: Vec<FoldArm> = [
            (true, FoldArm::Scalar),
            (f.avx2, FoldArm::Avx2),
            (f.avx512f, FoldArm::Zmm),
        ]
        .into_iter()
        .filter_map(|(runs, arm)| runs.then_some(arm))
        .collect();
        let widest = crate::simd::fold_arm();
        let mut rng = StdRng::seed_from_u64(0xD07F01D);
        let value = |rng: &mut StdRng, hostile: bool, specials: &[f64]| {
            if hostile && rng.random_range(0..6) == 0 {
                specials[rng.random_range(0..specials.len())]
            } else {
                rng.random_range(-1.0..1.0) * 10f64.powi(rng.random_range(-4..4))
            }
        };
        for s in 1..=3 {
            for n in [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17] {
                for k in [0usize, 1, 2, 3, 7, 8, 9, 16, 17] {
                    for t in [1, 2, 3, 5, 7, 8, 9, 16, 17] {
                        let hostile = (s + n + k + t) % 2 == 0;
                        let (lda, ldw) = (n + (k + t) % 3, t + 2);
                        let a: Vec<f64> = (0..k.saturating_sub(1) * lda + n)
                            .map(|_| value(&mut rng, hostile, &[-0.0, 0.0]))
                            .collect();
                        let w: Vec<f64> = (0..k * ldw)
                            .map(|_| {
                                let specials = [X86_NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
                                value(&mut rng, hostile, &specials)
                            })
                            .collect();
                        // Taps `s` to a grid, interleaved, grids apart by a
                        // gap; listed in shuffled order.
                        let grid = n * s + 3;
                        let mut taps: Vec<[usize; 2]> = (0..t)
                            .map(|g| [rng.random_range(0..ldw), g / s * grid + g % s])
                            .collect();
                        for i in (1..t).rev() {
                            taps.swap(i, rng.random_range(0..=i));
                        }
                        let base: Vec<f64> = (0..t.div_ceil(s) * grid)
                            .map(|_| value(&mut rng, hostile, &[-0.0, X86_NAN]))
                            .collect();
                        let mut want = base.clone();
                        for &[q, at] in &taps {
                            for i in 0..n {
                                let mut dot = 0.0;
                                for c in 0..k {
                                    dot += w[c * ldw + q] * a[c * lda + i];
                                }
                                want[at + i * s] += dot;
                            }
                        }
                        let case = format!("s={s} n={n} k={k} taps={t} hostile={hostile}");
                        let check = |got: &[f64], arm: FoldArm| {
                            for (j, (x, y)) in want.iter().zip(got).enumerate() {
                                assert!(
                                    x.to_bits() == y.to_bits(),
                                    "{arm:?} fold_dots not bitwise at {case} element {j}: {y:e} vs {x:e}"
                                );
                            }
                        };
                        for &arm in &arms {
                            let mut got = base.clone();
                            take_fold_arms_run();
                            fold_dots_on(arm, k, &w, ldw, &a, lda, n, &taps, s, &mut got);
                            assert_eq!(take_fold_arms_run(), 1 << arm as u32, "{arm:?} at {case}");
                            check(&got, arm);
                        }
                        let mut got = base.clone();
                        fold_dots(k, &w, ldw, &a, lda, n, &taps, s, &mut got);
                        assert_eq!(
                            take_fold_arms_run(),
                            1 << widest as u32,
                            "the dispatched fold ran a narrower arm than {widest:?} at {case}"
                        );
                        check(&got, widest);
                    }
                }
            }
        }
    }

    /// `alpha·A·B` written out for `beta = 0`, with the FMA tier's
    /// forward-error bound per element. Each sum starts at `+0.0` and adds
    /// `(alpha·a)·b` in ascending `k`, which is both the chain's bits
    /// (`gemm_blocked`) and the row-dot's (`gemm_transb`): a sum from `+0.0`
    /// is never `-0.0`, so adding it to the `+0.0` seed changes no bit.
    fn written_out(
        (m, n, k): (usize, usize, usize),
        alpha: f64,
        a: impl Fn(usize, usize) -> f64,
        b: impl Fn(usize, usize) -> f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let gamma = 2.0 * (k as f64 + 2.0) * f64::EPSILON;
        (0..m * n)
            .map(|e| {
                let (i, j) = (e / n, e % n);
                let (mut sum, mut abs) = (0.0, 0.0);
                for kk in 0..k {
                    sum += alpha * a(i, kk) * b(kk, j);
                    abs += (alpha * a(i, kk)).abs() * b(kk, j).abs();
                }
                (sum, abs * gamma + 1e-300)
            })
            .unzip()
    }

    /// The kernel shape fuzzer: `cases` seeded draws of every entry that
    /// writes an output, over random shapes with zero extents, `k` past one
    /// `KC` block and products on both sides of the `2¹⁴` tier boundary, into
    /// outputs pre-seeded with NaN and `-0.0`. At `beta = 0` every entry must
    /// overwrite its whole output and give its reference's bits, or, where
    /// the FMA tier takes the product, land within its forward-error bound;
    /// `sign_fold` runs on every arm the host can execute. `fold_dots` (every
    /// arm) must add each dot to its target once and leave every element it
    /// does not target as it was, and `gemm_transb_gathered` a batch under
    /// two untouched — bit for bit.
    fn fuzz_kernel_shapes(seed: u64, cases: usize) {
        use crate::simd::{cpu_features, simd_f64_eligible, FoldArm};
        let f = cpu_features();
        let arms: Vec<FoldArm> = [
            (true, FoldArm::Scalar),
            (f.avx2, FoldArm::Avx2),
            (f.avx512f, FoldArm::Zmm),
        ]
        .into_iter()
        .filter_map(|(runs, arm)| runs.then_some(arm))
        .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = |rng: &mut StdRng, big: usize| -> usize {
            match rng.random_range(0..8) {
                0 => 0,
                1 => 1,
                2..=4 => rng.random_range(2..=17usize),
                _ => rng.random_range(18..=big),
            }
        };
        let values = |rng: &mut StdRng, len: usize| -> Vec<f64> {
            (0..len)
                .map(|_| match rng.random_range(0..16) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.random_range(-1.0..1.0),
                })
                .collect()
        };
        let stale = |rng: &mut StdRng, len: usize| -> Vec<f64> {
            (0..len)
                .map(|_| [X86_NAN, -0.0][rng.random_range(0..2usize)])
                .collect()
        };
        let mut tiers = [0usize; 2];
        for case in 0..cases {
            let (m, n, k) = (dim(&mut rng, 97), dim(&mut rng, 97), dim(&mut rng, 300));
            let alpha = [1.0, -0.75, rng.random_range(-2.0..2.0)][rng.random_range(0..3usize)];
            let at = |i: usize, j: usize, ld: usize| i * ld + j;
            let a = values(&mut rng, m * k);
            let b = values(&mut rng, k * n);
            let mut a_t = vec![0.0; m * k];
            transpose_into(m, k, &a, &mut a_t);
            let mut b_t = vec![0.0; k * n];
            transpose_into(k, n, &b, &mut b_t);
            let (want, bound) = written_out(
                (m, n, k),
                alpha,
                |i, kk| a[at(i, kk, k)],
                |kk, j| b[at(kk, j, n)],
            );
            let shape = format!("case {case}: {m}x{n}x{k} alpha={alpha}");
            // `bound` is the FMA tier's, where that tier took the product;
            // without one, the bits must match.
            let check = |entry: &str, got: &[f64], refs: &[f64], bound: Option<&[f64]>| {
                assert_eq!(got.len(), refs.len(), "{entry} at {shape}");
                for (e, (&x, &y)) in refs.iter().zip(got).enumerate() {
                    let ok = match bound {
                        Some(tol) => (x - y).abs() <= tol[e],
                        None => x.to_bits() == y.to_bits(),
                    };
                    assert!(ok, "{entry} at {shape}, element {e}: {y:e}, want {x:e}");
                }
            };
            let fma = simd_f64_eligible(m, n, k);
            tiers[usize::from(fma)] += 1;
            type Gemm = fn(usize, usize, usize, f64, &[f64], &[f64], f64, &mut [f64]);
            type Entry<'a> = (&'a str, Gemm, &'a [f64], &'a [f64], bool);
            let entries: [Entry; 5] = [
                ("gemm_naive", gemm_naive, &a, &b, false),
                ("gemm_blocked", gemm_blocked, &a, &b, false),
                ("gemm", gemm, &a, &b, fma),
                ("gemm_transb", gemm_transb, &a, &b_t, fma),
                ("gemm_transa", gemm_transa, &a_t, &b, false),
            ];
            for (entry, kernel, lhs, rhs, fma) in entries {
                let mut c = stale(&mut rng, m * n);
                kernel(m, n, k, alpha, lhs, rhs, 0.0, &mut c);
                check(entry, &c, &want, fma.then_some(&bound[..]));
            }
            for dot in [true, false] {
                let tier_n = n + [0, rng.random_range(0..400usize)][rng.random_range(0..2usize)];
                let mut c = stale(&mut rng, m * n);
                if rng.random_range(0..2) == 0 {
                    let src = RowMajor { b: &b, n };
                    gemm_panel_source(m, n, k, tier_n, dot, alpha, &a, &src, 0.0, &mut c);
                } else {
                    let src = Transposed { b: &b_t, k };
                    gemm_panel_source(m, n, k, tier_n, dot, alpha, &a, &src, 0.0, &mut c);
                }
                let entry = format!("gemm_panel_source(dot={dot}, tier_n={tier_n})");
                let fma = simd_f64_eligible(m, tier_n, k);
                check(&entry, &c, &want, fma.then_some(&bound[..]));
            }

            let batch = rng.random_range(0..=4usize);
            let b_stack = values(&mut rng, batch * n * k);
            let mut big = stale(&mut rng, m * batch * n);
            let seed_bits = big.clone();
            let wide = gemm_transb_gathered(batch, m, n, k, alpha, &a, &b_stack, 0.0, &mut big);
            assert_eq!(
                wide,
                batch >= 2,
                "gemm_transb_gathered at {shape} batch={batch}"
            );
            let (mut want_big, mut bound_big) = (seed_bits.clone(), vec![0.0; m * batch * n]);
            if wide {
                for t in 0..batch {
                    let item = &b_stack[t * n * k..];
                    let (w, tol) = written_out(
                        (m, n, k),
                        alpha,
                        |i, kk| a[at(i, kk, k)],
                        |kk, j| item[at(j, kk, k)],
                    );
                    for e in 0..m * n {
                        let to = at(e / n, t * n + e % n, batch * n);
                        (want_big[to], bound_big[to]) = (w[e], tol[e]);
                    }
                }
            }
            let fma_big = (wide && fma).then_some(&bound_big[..]);
            check("gemm_transb_gathered", &big, &want_big, fma_big);

            let x = values(&mut rng, k);
            let mut y = stale(&mut rng, m);
            matvec_into(m, k, &a, &x, &mut y);
            let (want_y, _) = written_out((m, 1, k), 1.0, |i, kk| a[at(i, kk, k)], |kk, _| x[kk]);
            check("matvec_into", &y, &want_y, None);

            let mut t = stale(&mut rng, m * n);
            transpose_into(m, n, &want, &mut t);
            let want_t: Vec<f64> = (0..m * n).map(|e| want[at(e % m, e / m, n)]).collect();
            check("transpose_into", &t, &want_t, None);

            // sign_fold: `p = m` elements, `min(k, 130)` steps.
            let (p, rank) = (m, k.min(130));
            let base = values(&mut rng, p);
            let steps = values(&mut rng, rank);
            let signs: Vec<u64> = (0..rank.div_ceil(64) * p).map(|_| rng.next_u64()).collect();
            let mut want_s = base.clone();
            for (j, t) in want_s.iter_mut().enumerate() {
                for (i, &s) in steps.iter().enumerate() {
                    let negate = signs[(i / 64) * p + j] << (i % 64) >> 63 == 1;
                    *t += if negate { -s } else { s };
                }
            }
            for arm in arms.iter().copied().map(Some).chain([None]) {
                let mut out = stale(&mut rng, p);
                match arm {
                    Some(arm) => sign_fold_on(arm, &base, &steps, &signs, &mut out),
                    None => sign_fold(&base, &steps, &signs, &mut out),
                }
                check(&format!("sign_fold({arm:?})"), &out, &want_s, None);
            }

            // fold_dots: `n` lanes, `k` deep, up to 17 taps at stride
            // `s`, the taps of one grid interleaved, grids a gap apart.
            let (s, taps) = (rng.random_range(1..=3usize), rng.random_range(0..=17usize));
            let (ldw, lda) = (
                taps + rng.random_range(1..=3usize),
                n + rng.random_range(0..=2usize),
            );
            let grid = n * s + rng.random_range(0..=3usize);
            let w = values(&mut rng, k * ldw);
            let a_fold = values(&mut rng, k.saturating_sub(1) * lda + n);
            let tap_list: Vec<[usize; 2]> = (0..taps)
                .map(|g| [rng.random_range(0..ldw), g / s * grid + g % s])
                .collect();
            let dst_len = taps.div_ceil(s) * grid + rng.random_range(0..=5usize);
            let mut seed_dst = stale(&mut rng, dst_len);
            for v in seed_dst.iter_mut() {
                if rng.random_range(0..3) == 0 {
                    *v = rng.random_range(-1.0..1.0);
                }
            }
            let mut want_d = seed_dst.clone();
            for &[q, to] in &tap_list {
                for i in 0..n {
                    let mut dot = 0.0;
                    for c in 0..k {
                        dot += w[c * ldw + q] * a_fold[c * lda + i];
                    }
                    want_d[to + i * s] += dot;
                }
            }
            for arm in arms.iter().copied().map(Some).chain([None]) {
                let mut dst = seed_dst.clone();
                match arm {
                    Some(arm) => {
                        fold_dots_on(arm, k, &w, ldw, &a_fold, lda, n, &tap_list, s, &mut dst)
                    }
                    None => fold_dots(k, &w, ldw, &a_fold, lda, n, &tap_list, s, &mut dst),
                }
                let entry = format!("fold_dots({arm:?}) s={s} taps={taps} lanes={n} k={k}");
                check(&entry, &dst, &want_d, None);
            }
        }
        // Both sides of the tier boundary ran, where the host has an FMA tier.
        assert!(tiers[0] > cases / 2, "{tiers:?}");
        assert!(tiers[1] > 0 || !f.simd_f64(), "{tiers:?}");
    }

    #[test]
    fn every_kernel_entry_overwrites_its_output_on_random_shapes() {
        fuzz_kernel_shapes(0x5A9E_F022, 2_000);
    }

    /// The fuzzer's long mode: `cargo test -p sensact-math --lib -- --ignored`.
    #[test]
    #[ignore]
    fn every_kernel_entry_overwrites_its_output_on_random_shapes_long() {
        fuzz_kernel_shapes(0x5A9E_F023, 100_000);
    }

    #[test]
    fn nan_propagates_instead_of_being_skipped() {
        // A zero in A against a NaN in B must produce NaN (0 * NaN = NaN);
        // the old zero-skip fast path silently returned 0 here.
        let a = [0.0, 1.0, 2.0, 3.0];
        let b = [f64::NAN, 1.0, 1.0, 1.0];
        let mut c = vec![0.0; 4];
        gemm_blocked(2, 2, 2, 1.0, &a, &b, 0.0, &mut c);
        assert!(c[0].is_nan(), "0*NaN must propagate NaN");
        assert!(c[2].is_nan(), "2*NaN must propagate NaN");
        assert!(c[1].is_finite() && c[3].is_finite());
    }

    #[test]
    fn matvec_into_matches_gemm() {
        let mut rng = StdRng::seed_from_u64(17);
        for &(m, k) in &[(1, 1), (1, 9), (9, 1), (33, 257), (128, 64)] {
            let a = random_mat(&mut rng, m * k);
            let x = random_mat(&mut rng, k);
            let mut y = vec![f64::NAN; m];
            matvec_into(m, k, &a, &x, &mut y);
            let mut y_ref = vec![0.0; m];
            gemm_naive(m, 1, k, 1.0, &a, &x, 0.0, &mut y_ref);
            assert_eq!(y, y_ref, "matvec not bitwise at {m}x{k}");
        }
    }

    /// `y` is fully overwritten even when there is nothing to sum: a
    /// `rows × 0` product is all zeros, not whatever `y` held.
    #[test]
    fn matvec_into_zero_fills_on_empty_inner_dimension() {
        let mut y = [f64::NAN, 7.0, -1.0];
        matvec_into(3, 0, &[], &[], &mut y);
        assert_eq!(y, [0.0; 3]);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = StdRng::seed_from_u64(19);
        for &(r, c) in &[(1, 1), (1, 7), (7, 1), (63, 65), (64, 64), (130, 70)] {
            let src = random_mat(&mut rng, r * c);
            let mut t = vec![0.0; r * c];
            transpose_into(r, c, &src, &mut t);
            let mut back = vec![0.0; r * c];
            transpose_into(c, r, &t, &mut back);
            assert_eq!(src, back, "transpose roundtrip failed at {r}x{c}");
        }
    }
}
