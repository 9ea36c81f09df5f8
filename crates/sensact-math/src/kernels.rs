//! Cache-blocked, optionally parallel compute kernels.
//!
//! Every dense hot path in the workspace (matrix products, conv im2col
//! lowering, LoRA adapters, Riccati iterations) funnels into the slice-level
//! GEMM in this module, so one implementation decides the performance and the
//! numerics of them all.
//!
//! Numerics contract: for each output element, products are accumulated in
//! ascending-`k` order regardless of blocking or thread partitioning, so
//! [`gemm_naive`], [`gemm_blocked`], the parallel path and every path of
//! [`gemm_transa`] produce **bitwise identical** results; the entry points
//! that may take the fused multiply-add microkernel ([`gemm`],
//! [`gemm_transb`], the batched and panel-source forms) stay within its
//! analytic forward-error bound. Unlike the old `Matrix::matmul`, no
//! zero-operand skipping is performed: NaN and signed-zero inputs propagate
//! with full IEEE semantics.
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

/// Minimum multiply-add count (`m * n * k`) before the parallel path is worth
/// the thread-spawn overhead. Also the per-thread work floor: the parallel
/// kernels never split the problem so fine that a band has fewer
/// multiply-adds than this.
pub(crate) const PAR_MIN_OPS: usize = 1 << 21;

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

#[inline]
pub(crate) fn scale_c_f32(beta: f32, c: &mut [f32]) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for x in c.iter_mut() {
            *x *= beta;
        }
    }
}

/// Number of worker threads for the parallel paths. Queried once and
/// cached: `available_parallelism` re-reads cgroup files from procfs on
/// every call (tens of microseconds in a container), which would dwarf a
/// small GEMM's entire arithmetic cost if paid per dispatch.
pub(crate) fn threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Reference triple-loop GEMM: `C = alpha * A[m×k] * B[k×n] + beta * C`.
///
/// Kept as the ground truth for equivalence tests and the `kernels` bench;
/// accumulation order per element matches the blocked/parallel kernels.
pub fn gemm_naive(
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

/// One row-band of the k-blocked kernel: rows of `a_band`/`c_band` are a
/// contiguous horizontal slice of A and C.
fn gemm_rows(
    n: usize,
    k: usize,
    alpha: f64,
    a_band: &[f64],
    b: &[f64],
    beta: f64,
    c_band: &mut [f64],
) {
    scale_c(beta, c_band);
    if n == 0 || k == 0 {
        return;
    }
    let rows = c_band.len() / n;
    for k0 in (0..k).step_by(KC) {
        let k1 = (k0 + KC).min(k);
        for i in 0..rows {
            let a_row = &a_band[i * k + k0..i * k + k1];
            let c_row = &mut c_band[i * n..(i + 1) * n];
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

/// Serial cache-blocked GEMM: `C = alpha * A[m×k] * B[k×n] + beta * C`.
///
/// k-blocked `ikj` loop nest: each A block-row is reused across a full C row
/// while B is streamed row-wise, so all three operands move through cache
/// sequentially.
pub fn gemm_blocked(
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
    gemm_rows(n, k, alpha, a, b, beta, c);
}

/// Row-partitioned parallel GEMM over `std::thread::scope`.
///
/// Each thread owns a disjoint horizontal band of C (and the matching band of
/// A), so no synchronisation is needed and per-element accumulation order is
/// identical to [`gemm_blocked`] — the result is deterministic and bitwise
/// equal to the serial kernels.
///
/// The thread count is capped so every band carries at least
/// `PAR_MIN_OPS` multiply-adds; below that total the call degenerates to
/// the serial blocked kernel, so this entry point never loses to
/// single-threaded dispatch on problems too small to amortize thread spawns.
pub fn gemm_parallel(
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
    let ops = m.saturating_mul(n).saturating_mul(k);
    let nthreads = threads().min(m).min((ops / PAR_MIN_OPS).max(1)).max(1);
    if nthreads <= 1 || n == 0 || k == 0 {
        gemm_rows(n, k, alpha, a, b, beta, c);
        return;
    }
    let band = m.div_ceil(nthreads);
    std::thread::scope(|scope| {
        for (a_band, c_band) in a.chunks(band * k).zip(c.chunks_mut(band * n)) {
            scope.spawn(move || gemm_rows(n, k, alpha, a_band, b, beta, c_band));
        }
    });
}

/// Auto-dispatching GEMM: the register-blocked SIMD path
/// ([`simd`](crate::simd)) when the host ISA supports it and the problem is
/// large enough to amortize packing, then parallel above `PAR_MIN_OPS`
/// multiply-adds, then the serial cache-blocked kernel.
///
/// On SSE2 and scalar paths the result is bitwise identical to
/// [`gemm_blocked`]; the AVX2+FMA path differs only within the analytic
/// forward-error bound checked by the conformance harness (fused
/// multiply-add rounds once per step instead of twice).
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
    if crate::simd::gemm_f64(m, n, k, alpha, a, &RowMajor { b, n }, beta, c) {
        return;
    }
    if m.saturating_mul(n).saturating_mul(k) >= PAR_MIN_OPS && m >= 2 {
        gemm_parallel(m, n, k, alpha, a, b, beta, c);
    } else {
        gemm_blocked(m, n, k, alpha, a, b, beta, c);
    }
}

/// SIMD-first GEMM: takes the register-blocked SIMD path whenever the host
/// supports one (ignoring the size threshold used by [`gemm`]), falling back
/// to [`gemm_blocked`] otherwise. Primarily for benches and conformance
/// runs that need to pin the path taken.
pub fn gemm_simd(
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
    if !crate::simd::gemm_f64(m, n, k, alpha, a, &RowMajor { b, n }, beta, c) {
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
    if crate::simd::gemm_f64(m, n, k, alpha, a, &Transposed { b, k }, beta, c) {
        return;
    }
    scale_c(beta, c);
    let body = |a_band: &[f64], c_band: &mut [f64]| {
        let rows = a_band
            .len()
            .checked_div(k)
            .unwrap_or(c_band.len() / n.max(1));
        for i in 0..rows {
            let a_row = &a_band[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (&x, &y) in a_row.iter().zip(b_row) {
                    acc += alpha * x * y;
                }
                c_band[i * n + j] += acc;
            }
        }
    };
    let nthreads = threads().min(m).max(1);
    if nthreads <= 1 || n == 0 || m.saturating_mul(n).saturating_mul(k) < PAR_MIN_OPS {
        body(a, c);
        return;
    }
    let band = m.div_ceil(nthreads);
    std::thread::scope(|scope| {
        for (a_band, c_band) in a.chunks((band * k).max(1)).zip(c.chunks_mut(band * n)) {
            scope.spawn(move || body(a_band, c_band));
        }
    });
}

/// Batched GEMM over a shared right-hand side: `C_t = alpha * A_t * B +
/// beta * C_t` for `batch` items whose `A_t` (`[m×k]`) and `C_t` (`[m×n]`)
/// are stacked contiguously in `a_stack` / `c_stack`.
///
/// This is the fleet-serving entry point: N loops that share a weight
/// matrix lower their per-tick products onto **one** kernel invocation, so
/// dispatch overhead, feature detection, thread spawning and B-panel cache
/// misses are amortized across the batch instead of paid per loop.
///
/// Numerics contract (the serving plane's batched-equals-unbatched
/// guarantee): the kernel path is pinned on the **per-item** shape via the
/// same predicate the scalar entry points use, never on the stacked shape.
/// A batch of problems too small for the SIMD path runs the scalar blocked
/// kernel — whose per-element accumulation order is independent of row
/// partitioning — so the result is **bitwise identical** to calling
/// [`gemm`] once per item, on every host and under `SENSACT_FORCE_SCALAR`.
pub fn gemm_batched(
    batch: usize,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a_stack: &[f64],
    b: &[f64],
    beta: f64,
    c_stack: &mut [f64],
) {
    assert_eq!(
        a_stack.len(),
        batch * m * k,
        "gemm_batched: A must be batch*m*k"
    );
    assert_eq!(b.len(), k * n, "gemm_batched: B must be k*n");
    assert_eq!(
        c_stack.len(),
        batch * m * n,
        "gemm_batched: C must be batch*m*n"
    );
    if batch == 0 {
        return;
    }
    // Stacking along m preserves per-element accumulation on both paths:
    // SIMD bands are m-partitioned (per-element order independent of the
    // band split) and the scalar blocked kernel accumulates each row
    // independently. Only the *path choice* must come from the item shape.
    if crate::simd::simd_f64_eligible(m, n, k)
        && crate::simd::gemm_f64(
            batch * m,
            n,
            k,
            alpha,
            a_stack,
            &RowMajor { b, n },
            beta,
            c_stack,
        )
    {
        return;
    }
    gemm_parallel(batch * m, n, k, alpha, a_stack, b, beta, c_stack);
}

/// Batched `gemm_transb` over a shared left-hand side: `C_t = alpha * A *
/// B_t^T + beta * C_t` for `batch` items whose `B_t` (`[n×k]` row-major,
/// the transposed layout) and `C_t` (`[m×n]`) are stacked contiguously.
///
/// This is the shape the batched conv path feeds: one weight matrix `A`
/// (`[cout×ckk]`) against N loops' im2col panels. The stacked `B` is a
/// single `[(batch·n)×k]` operand, so the whole fleet's patches run through
/// one packed-panel SIMD invocation; `C` is gathered into the stacked
/// column layout before the call and scattered back after, so the
/// microkernel seeds its accumulators with exactly the per-item `beta * C`
/// values (the conv path pre-fills `C` with the bias at `beta == 1`).
///
/// Same pinning contract as [`gemm_batched`]: the path is chosen from the
/// per-item `(m, n, k)`, and the scalar fallback simply loops
/// [`gemm_transb`] per item — bitwise identical to unbatched dispatch by
/// construction.
pub fn gemm_transb_batched(
    batch: usize,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b_stack: &[f64],
    beta: f64,
    c_stack: &mut [f64],
) {
    assert_eq!(a.len(), m * k, "gemm_transb_batched: A must be m*k");
    assert_eq!(
        b_stack.len(),
        batch * n * k,
        "gemm_transb_batched: B must be batch*n*k"
    );
    assert_eq!(
        c_stack.len(),
        batch * m * n,
        "gemm_transb_batched: C must be batch*m*n"
    );
    match batch {
        0 => return,
        1 => return gemm_transb(m, n, k, alpha, a, b_stack, beta, c_stack),
        _ => {}
    }
    if crate::simd::simd_f64_eligible(m, n, k) {
        thread_local! {
            /// Per-thread gather panel, reused across flushes so a large
            /// fleet's batched dispatch does not re-allocate (and re-fault)
            /// a multi-megabyte panel every call.
            static GATHER: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        let nn = batch * n;
        // Gather the stacked per-item C blocks into one [m × batch·n]
        // panel so each microkernel accumulator starts from the same value
        // the per-item call would load.
        let done = GATHER.with(|panel| {
            let mut panel = panel.borrow_mut();
            if panel.len() < m * nn {
                panel.resize(m * nn, 0.0);
            }
            let big = &mut panel[..m * nn];
            for t in 0..batch {
                for i in 0..m {
                    big[i * nn + t * n..i * nn + t * n + n]
                        .copy_from_slice(&c_stack[t * m * n + i * n..t * m * n + (i + 1) * n]);
                }
            }
            if gemm_transb_gathered(batch, m, n, k, alpha, a, b_stack, beta, big) {
                for t in 0..batch {
                    for i in 0..m {
                        c_stack[t * m * n + i * n..t * m * n + (i + 1) * n]
                            .copy_from_slice(&big[i * nn + t * n..i * nn + t * n + n]);
                    }
                }
                true
            } else {
                false
            }
        });
        if done {
            return;
        }
    }
    if m == 0 || n == 0 {
        return; // C is empty; nothing to scale or accumulate.
    }
    if k == 0 {
        // Per-item `gemm_transb` scales C and accumulates an empty dot
        // product (`c += 0.0`); mirror both steps exactly.
        scale_c(beta, c_stack);
        for x in c_stack.iter_mut() {
            *x += 0.0;
        }
        return;
    }
    // Scalar path: per-item dispatch is already scalar at this shape, so
    // looping the unbatched entry is the pinned path by definition.
    for (b_t, c_t) in b_stack.chunks(n * k).zip(c_stack.chunks_mut(m * n)) {
        gemm_transb(m, n, k, alpha, a, b_t, beta, c_t);
    }
}

/// Copy-free core of [`gemm_transb_batched`]: the caller supplies `big`
/// already in the gathered `[m × batch·n]` layout (item `t` occupies
/// columns `t·n..(t+1)·n`, e.g. pre-filled with a bias for `beta == 1`)
/// and keeps the result in that layout — no gather before the call, no
/// scatter after it.
///
/// Returns `true` if the wide SIMD invocation ran. Returns `false` — with
/// `big` untouched — when the per-item shape is pinned to the scalar path
/// (or `batch < 2`): the caller must then run the per-item
/// [`gemm_transb`] loop itself on its natural layout, which is exactly
/// what makes the scalar fallback copy-free too. Each output element is a
/// single dot product accumulated in ascending-`k` order regardless of
/// its column position, so the wide call is **bitwise identical** to the
/// per-item call for every batch size.
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
    batch >= 2
        && gemm_panel_source(
            batch,
            m,
            n,
            k,
            alpha,
            a,
            &Transposed { b: b_stack, k },
            beta,
            big,
        )
}

/// `C = alpha * A * B + beta * C` with B read through a [`PanelSource`]
/// instead of from memory: B is `[k × batch·n]` (item `t` supplies columns
/// `t·n..(t+1)·n`), `c` is `[m × batch·n]` row-major, and each packed panel
/// is filled by `b` moments before the microkernel consumes it. This is the
/// entry the conv layers lower onto — their source unfolds input taps
/// straight into the panel, so the im2col matrix is never materialised.
///
/// Same contract as [`gemm_transb_gathered`]: the path is pinned on the
/// **per-item** `(m, n, k)`, each element accumulates in ascending `k` from
/// its own `beta * C` seed, and `false` is returned — `c` untouched — when
/// that shape is pinned to the scalar path and the caller must run the
/// per-item kernel on a materialised operand.
pub fn gemm_panel_source<S: PanelSource<f64> + Sync>(
    batch: usize,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &S,
    beta: f64,
    c: &mut [f64],
) -> bool {
    assert_eq!(a.len(), m * k, "gemm_panel_source: A must be m*k");
    assert_eq!(
        c.len(),
        m * batch * n,
        "gemm_panel_source: C must be m * batch*n"
    );
    batch > 0
        && crate::simd::simd_f64_eligible(m, n, k)
        && crate::simd::gemm_f64(m, batch * n, k, alpha, a, b, beta, c)
}

/// Doubles of C a row block of the scalar [`gemm_transa`] loop covers
/// (32 KiB): the block stays L1-resident while `k` sweeps over it.
const TRANSA_BLOCK: usize = 1 << 12;

/// `C = alpha * A^T * B + beta * C`, with `a` stored row-major as `[k×m]`
/// (i.e. A-transposed is never materialised).
///
/// Used for `X^T * G` gradient shapes, the deconv lowering and the
/// `B^T P A` terms of the Riccati recursion. Every path — the register-tiled
/// SIMD kernels and the row-blocked scalar loop — multiplies, then adds, in
/// ascending `k`, so the result is **bitwise identical** to
/// [`gemm_naive`] on the explicit transpose on every host (never FMA:
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
    if crate::simd::gemm_transa_f64(m, n, k, alpha, a, b, beta, c) {
        return;
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

/// Fused matrix–vector product: `y = A[m×k] * x`, no intermediate
/// allocations. `y` is fully overwritten.
pub fn matvec_into(m: usize, k: usize, a: &[f64], x: &[f64], y: &mut [f64]) {
    assert_eq!(a.len(), m * k, "matvec_into: A must be m*k");
    assert_eq!(x.len(), k, "matvec_into: x must have len k");
    assert_eq!(y.len(), m, "matvec_into: y must have len m");
    for (yi, a_row) in y.iter_mut().zip(a.chunks_exact(k.max(1))) {
        let mut acc = 0.0;
        for (&aij, &xj) in a_row.iter().zip(x) {
            acc += aij * xj;
        }
        *yi = acc;
    }
}

/// Blocked out-of-place transpose: `dst[c][r] = src[r][c]` for a row-major
/// `rows×cols` source. Tiling keeps both the read and write streams within a
/// cache-sized window instead of striding the full destination per element.
pub fn transpose_into(rows: usize, cols: usize, src: &[f64], dst: &mut [f64]) {
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
/// This is the currency of the runtime mixed-precision mode: the precision
/// governor in `sensact-core` (which re-exports this type) picks one of
/// these per tick, loop runners record it in telemetry, and perception
/// stages route their GEMM/conv calls through the matching kernel family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Precision {
    /// Full double precision — the default and the trusted-fallback mode.
    #[default]
    F64,
    /// Single precision (AVX2 f32 microkernels; ~2× f64 SIMD throughput).
    F32,
    /// Symmetric 8-bit quantization on the `fake_quantize` max-abs/127
    /// grid, with exact integer accumulation.
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

    /// The cheaper (lower-precision) of two modes.
    pub fn cheaper_of(self, other: Precision) -> Precision {
        self.max(other)
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

// ---------------------------------------------------------------------------
// f32 path
// ---------------------------------------------------------------------------

/// Scalar f32 band kernel mirroring [`gemm_blocked`]'s loop nest.
fn gemm_rows_f32(
    n: usize,
    k: usize,
    alpha: f32,
    a_band: &[f32],
    b: &[f32],
    beta: f32,
    c_band: &mut [f32],
) {
    scale_c_f32(beta, c_band);
    if n == 0 || k == 0 {
        return;
    }
    let rows = c_band.len() / n;
    for k0 in (0..k).step_by(KC) {
        let k1 = (k0 + KC).min(k);
        for i in 0..rows {
            let a_row = &a_band[i * k + k0..i * k + k1];
            let c_row = &mut c_band[i * n..(i + 1) * n];
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

/// Single-precision GEMM: `C = alpha * A[m×k] * B[k×n] + beta * C` on f32
/// operands. Dispatches to the AVX2+FMA `4×16` microkernel when the host
/// supports it, otherwise runs a scalar kernel with the same blocking as
/// [`gemm_blocked`].
pub fn gemm_f32(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm_f32: A must be m*k");
    assert_eq!(b.len(), k * n, "gemm_f32: B must be k*n");
    assert_eq!(c.len(), m * n, "gemm_f32: C must be m*n");
    if crate::simd::gemm_f32(m, n, k, alpha, a, &RowMajor { b, n }, beta, c) {
        return;
    }
    gemm_rows_f32(n, k, alpha, a, b, beta, c);
}

/// Single-precision `C = alpha * A[m×k] * B^T + beta * C` with `b` stored
/// row-major as `[n×k]` — the f32 twin of [`gemm_transb`], used by the
/// precision-aware conv forward path.
pub fn gemm_transb_f32(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm_transb_f32: A must be m*k");
    assert_eq!(b.len(), n * k, "gemm_transb_f32: B must be n*k");
    assert_eq!(c.len(), m * n, "gemm_transb_f32: C must be m*n");
    if crate::simd::gemm_f32(m, n, k, alpha, a, &Transposed { b, k }, beta, c) {
        return;
    }
    scale_c_f32(beta, c);
    if n == 0 || k == 0 {
        return;
    }
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for (cij, b_row) in c[i * n..(i + 1) * n].iter_mut().zip(b.chunks_exact(k)) {
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += alpha * x * y;
            }
            *cij += acc;
        }
    }
}

// ---------------------------------------------------------------------------
// int8 path
// ---------------------------------------------------------------------------

/// The quantization scales an int8 GEMM call used (`0.0` for an all-zero
/// operand). Enough to reconstruct the analytic error bound
/// `k · (max|A|·s_b/2 + (max|B| + s_b/2)·s_a/2)` per output element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantGemmReport {
    /// Grid step of A's quantization (`max|A| / 127`).
    pub scale_a: f64,
    /// Grid step of B's quantization (`max|B| / 127`).
    pub scale_b: f64,
}

/// Symmetric int8 quantization onto the grid `sensact_nn`'s `fake_quantize`
/// uses at 8 bits: `scale = max|x| / 127` over finite entries, round to
/// nearest, clamp to `[-127, 127]`; NaN maps to `0`, ±inf saturates.
/// Codes are returned as `i16` so the AVX2 `madd` dot path can consume them
/// without widening.
pub fn quantize_i8(src: &[f64]) -> (Vec<i16>, f64) {
    let max_abs = src
        .iter()
        .filter(|x| x.is_finite())
        .fold(0.0f64, |m, &x| m.max(x.abs()));
    if max_abs == 0.0 {
        return (vec![0; src.len()], 0.0);
    }
    let scale = max_abs / 127.0;
    let q = src
        .iter()
        .map(|&x| {
            if x.is_nan() {
                0
            } else {
                let v = if x.is_infinite() {
                    x.signum() * max_abs
                } else {
                    x
                };
                (v / scale).round().clamp(-127.0, 127.0) as i16
            }
        })
        .collect();
    (q, scale)
}

fn int8_core(m: usize, n: usize, k: usize, qa: &[i16], qbt: &[i16], scale: f64, c: &mut [f64]) {
    debug_assert!(k < (1 << 20), "int8 gemm: k too large for i32 lanes");
    if m == 0 || n == 0 {
        c.fill(0.0);
        return;
    }
    for i in 0..m {
        let a_row = &qa[i * k..(i + 1) * k];
        for (j, cij) in c[i * n..(i + 1) * n].iter_mut().enumerate() {
            let b_row = &qbt[j * k..(j + 1) * k];
            *cij = scale * crate::simd::dot_i16(a_row, b_row) as f64;
        }
    }
}

/// Quantized int8 GEMM: `C = dequant(Q(A) · Q(B))` (implicit `alpha = 1`,
/// `beta = 0` — the perception fast-path shape). Integer accumulation is
/// exact, so the only error versus f64 is the input quantization itself;
/// the returned [`QuantGemmReport`] carries the scales needed to bound it.
pub fn gemm_int8(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) -> QuantGemmReport {
    check_gemm(m, n, k, a, b, c);
    let (qa, sa) = quantize_i8(a);
    let (qb, sb) = quantize_i8(b);
    // Transpose the codes so every dot product runs over two contiguous
    // rows (the layout the vector dot kernel wants).
    let mut qbt = vec![0i16; qb.len()];
    for kk in 0..k {
        for j in 0..n {
            qbt[j * k + kk] = qb[kk * n + j];
        }
    }
    int8_core(m, n, k, &qa, &qbt, sa * sb, c);
    QuantGemmReport {
        scale_a: sa,
        scale_b: sb,
    }
}

/// Quantized int8 `C = dequant(Q(A) · Q(B)^T)` with `b` stored row-major as
/// `[n×k]` — the natural int8 layout (both operands contiguous in `k`), and
/// the shape the conv im2col path feeds.
pub fn gemm_transb_int8(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) -> QuantGemmReport {
    assert_eq!(a.len(), m * k, "gemm_transb_int8: A must be m*k");
    assert_eq!(b.len(), n * k, "gemm_transb_int8: B must be n*k");
    assert_eq!(c.len(), m * n, "gemm_transb_int8: C must be m*n");
    let (qa, sa) = quantize_i8(a);
    let (qbt, sb) = quantize_i8(b);
    int8_core(m, n, k, &qa, &qbt, sa * sb, c);
    QuantGemmReport {
        scale_a: sa,
        scale_b: sb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;

    fn random_mat(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.gen_f64() * 2.0 - 1.0).collect()
    }

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    /// Shapes chosen to straddle the KC block edge and the parallel-dispatch
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
    fn blocked_and_parallel_match_naive() {
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

            let mut c_par = vec![f64::NAN; m * n];
            gemm_parallel(m, n, k, 1.0, &a, &b, 0.0, &mut c_par);
            assert!(
                max_abs_diff(&c_ref, &c_par) <= 1e-12,
                "parallel mismatch at {m}x{n}x{k}"
            );
            // Determinism is stronger than the tolerance: bitwise equality.
            assert_eq!(c_blk, c_par, "parallel not bitwise equal at {m}x{n}x{k}");

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
    /// (k = 0 pure beta-scale, single-row, single-column, tall/skinny).
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
        ];
        let mut rng = StdRng::seed_from_u64(0xD15);
        for &(m, n, k) in ODD_SHAPES {
            let a = random_mat(&mut rng, m * k);
            let b = random_mat(&mut rng, k * n);
            let base = random_mat(&mut rng, m * n);

            let mut c_ref = base.clone();
            gemm_naive(m, n, k, 0.7, &a, &b, 0.3, &mut c_ref);

            // Scalar paths: bitwise.
            let mut c_blk = base.clone();
            gemm_blocked(m, n, k, 0.7, &a, &b, 0.3, &mut c_blk);
            assert_eq!(c_ref, c_blk, "blocked at {m}x{n}x{k}");
            let mut c_par = base.clone();
            gemm_parallel(m, n, k, 0.7, &a, &b, 0.3, &mut c_par);
            assert_eq!(c_ref, c_par, "parallel at {m}x{n}x{k}");

            // Auto and SIMD-pinned dispatch: within the FMA bound.
            let mut c_auto = base.clone();
            gemm(m, n, k, 0.7, &a, &b, 0.3, &mut c_auto);
            assert!(
                max_abs_diff(&c_ref, &c_auto) <= auto_tol(k),
                "auto at {m}x{n}x{k}"
            );
            let mut c_simd = base.clone();
            gemm_simd(m, n, k, 0.7, &a, &b, 0.3, &mut c_simd);
            assert!(
                max_abs_diff(&c_ref, &c_simd) <= auto_tol(k),
                "simd at {m}x{n}x{k}"
            );

            // Transposed-B path over the same shapes.
            if m > 0 && n > 0 {
                let bt = random_mat(&mut rng, n * k);
                let mut b_rm = vec![0.0; k * n];
                transpose_into(n, k, &bt, &mut b_rm);
                let mut c_t_ref = base.clone();
                gemm_naive(m, n, k, 0.7, &a, &b_rm, 0.3, &mut c_t_ref);
                let mut c_t = base.clone();
                gemm_transb(m, n, k, 0.7, &a, &bt, 0.3, &mut c_t);
                assert!(
                    max_abs_diff(&c_t_ref, &c_t) <= auto_tol(k).max(1e-12),
                    "transb at {m}x{n}x{k}"
                );
            }
        }
    }

    #[test]
    fn f32_path_matches_f64_reference_within_single_precision_bound() {
        let mut rng = StdRng::seed_from_u64(0xF32);
        for &(m, n, k) in &[(4, 7, 5), (1, 33, 16), (64, 64, 64), (40, 50, 300)] {
            let a32: Vec<f32> = (0..m * k).map(|_| rng.gen_f64() as f32 - 0.5).collect();
            let b32: Vec<f32> = (0..k * n).map(|_| rng.gen_f64() as f32 - 0.5).collect();
            // Reference: the same (f32-rounded) inputs accumulated in f64.
            let a64: Vec<f64> = a32.iter().map(|&x| x as f64).collect();
            let b64: Vec<f64> = b32.iter().map(|&x| x as f64).collect();
            let mut c_ref = vec![0.0f64; m * n];
            gemm_naive(m, n, k, 1.0, &a64, &b64, 0.0, &mut c_ref);

            let mut c32 = vec![f32::NAN; m * n];
            gemm_f32(m, n, k, 1.0, &a32, &b32, 0.0, &mut c32);
            // Inputs in [-0.5, 0.5]: |c| ≤ k/4, forward error ≤ γ_{k+2}·k/4.
            let tol = 2.0 * (k as f64 + 2.0) * f32::EPSILON as f64 * k as f64 / 4.0 + 1e-12;
            for (i, (&x, &y)) in c_ref.iter().zip(&c32).enumerate() {
                assert!(
                    (x - y as f64).abs() <= tol,
                    "f32 diff {} > {tol} at {i} ({m}x{n}x{k})",
                    (x - y as f64).abs()
                );
            }

            // transb twin against an explicit transpose.
            let mut bt32 = vec![0.0f32; n * k];
            for kk in 0..k {
                for j in 0..n {
                    bt32[j * k + kk] = b32[kk * n + j];
                }
            }
            let mut c32t = vec![f32::NAN; m * n];
            gemm_transb_f32(m, n, k, 1.0, &a32, &bt32, 0.0, &mut c32t);
            for (i, (&x, &y)) in c_ref.iter().zip(&c32t).enumerate() {
                assert!(
                    (x - y as f64).abs() <= tol,
                    "f32 transb diff at {i} ({m}x{n}x{k})"
                );
            }
        }
    }

    #[test]
    fn int8_gemm_error_is_bounded_by_quantization() {
        let mut rng = StdRng::seed_from_u64(0x18);
        for &(m, n, k) in &[(1, 1, 1), (4, 7, 5), (16, 16, 64), (8, 40, 300)] {
            let a = random_mat(&mut rng, m * k);
            let b = random_mat(&mut rng, k * n);
            let mut c_ref = vec![0.0; m * n];
            gemm_naive(m, n, k, 1.0, &a, &b, 0.0, &mut c_ref);

            let mut c_q = vec![f64::NAN; m * n];
            let report = gemm_int8(m, n, k, &a, &b, &mut c_q);
            let max_a = a.iter().fold(0.0f64, |acc, &x| acc.max(x.abs()));
            let max_b = b.iter().fold(0.0f64, |acc, &x| acc.max(x.abs()));
            let half_a = report.scale_a / 2.0;
            let half_b = report.scale_b / 2.0;
            let tol = k as f64 * (max_a * half_b + (max_b + half_b) * half_a) + 1e-12;
            for (i, (&x, &y)) in c_ref.iter().zip(&c_q).enumerate() {
                assert!(
                    (x - y).abs() <= tol,
                    "int8 diff {} > bound {tol} at {i} ({m}x{n}x{k})",
                    (x - y).abs()
                );
            }

            // The transb variant on pre-transposed codes is bitwise equal.
            let mut bt = vec![0.0; n * k];
            transpose_into(k, n, &b, &mut bt);
            let mut c_qt = vec![f64::NAN; m * n];
            let report_t = gemm_transb_int8(m, n, k, &a, &bt, &mut c_qt);
            assert_eq!(c_q, c_qt, "int8 transb mismatch at {m}x{n}x{k}");
            assert_eq!(report, report_t);
        }
    }

    #[test]
    fn int8_quantization_grid_handles_non_finite_inputs() {
        let (q, scale) = quantize_i8(&[1.27, -1.27, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(q, vec![127, -127, 0, 127, -127]);
        assert!((scale - 0.01).abs() < 1e-15);
        let (q0, s0) = quantize_i8(&[0.0, -0.0]);
        assert_eq!(q0, vec![0, 0]);
        assert_eq!(s0, 0.0);
    }

    #[test]
    fn precision_mode_round_trips_and_orders_by_cost() {
        for p in Precision::ALL {
            assert_eq!(Precision::parse(p.as_str()), Some(p));
            assert_eq!(format!("{p}"), p.as_str());
        }
        assert_eq!(Precision::parse("bf16"), None);
        assert_eq!(Precision::default(), Precision::F64);
        assert_eq!(Precision::F64.cheaper_of(Precision::Int8), Precision::Int8);
        assert_eq!(Precision::F32.cheaper_of(Precision::F64), Precision::F32);
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
    /// Shapes straddle the SIMD dispatch threshold — the middle cases are
    /// exactly the trap where a naive implementation would let the *stacked*
    /// size pull small per-item problems onto the FMA path.
    #[test]
    fn batched_entries_are_bitwise_identical_to_per_item_dispatch() {
        // (batch, m, n, k): per-item ops span ~16 .. ~200k around the
        // 2^14 SIMD threshold; batches include 1, odd, and large-enough-to
        // -cross-the-threshold-when-stacked counts (the ragged-tail shapes
        // the conv planner produces).
        const CASES: &[(usize, usize, usize, usize)] = &[
            (1, 4, 4, 4),
            (3, 1, 1, 1),
            (32, 4, 16, 16), // 1k ops/item, 32k stacked: must stay scalar
            (7, 4, 64, 27),  // conv-like small lidar shape
            (5, 8, 64, 32),  // 16k ops/item: exactly at the SIMD threshold
            (3, 16, 64, 32), // comfortably SIMD per item
            (2, 32, 32, 32),
            (17, 6, 50, 13), // ragged: m not a multiple of any tile height
            (4, 5, 0, 9),    // n == 0: pure beta semantics
            (4, 5, 9, 0),    // k == 0: scale + empty accumulation
        ];
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        for &(batch, m, n, k) in CASES {
            for &beta in &[0.0, 1.0, 0.5] {
                // Shared-B form: stacked A against one B.
                let a_stack = random_mat(&mut rng, batch * m * k);
                let b = random_mat(&mut rng, k * n);
                let base = random_mat(&mut rng, batch * m * n);

                let mut c_ref = base.clone();
                for t in 0..batch {
                    let a_t = &a_stack[t * m * k..(t + 1) * m * k];
                    let c_t = &mut c_ref[t * m * n..(t + 1) * m * n];
                    gemm(m, n, k, 0.7, a_t, &b, beta, c_t);
                }
                let mut c_bat = base.clone();
                gemm_batched(batch, m, n, k, 0.7, &a_stack, &b, beta, &mut c_bat);
                assert!(
                    c_ref
                        .iter()
                        .zip(&c_bat)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "gemm_batched not bitwise at batch={batch} {m}x{n}x{k} beta={beta}"
                );

                // Shared-A form: one A against stacked transposed B.
                let a = random_mat(&mut rng, m * k);
                let b_stack = random_mat(&mut rng, batch * n * k);
                let mut ct_ref = base.clone();
                for t in 0..batch {
                    let b_t = &b_stack[t * n * k..(t + 1) * n * k];
                    let c_t = &mut ct_ref[t * m * n..(t + 1) * m * n];
                    gemm_transb(m, n, k, 0.7, &a, b_t, beta, c_t);
                }
                let mut ct_bat = base.clone();
                gemm_transb_batched(batch, m, n, k, 0.7, &a, &b_stack, beta, &mut ct_bat);
                assert!(
                    ct_ref
                        .iter()
                        .zip(&ct_bat)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "gemm_transb_batched not bitwise at batch={batch} {m}x{n}x{k} beta={beta}"
                );
            }
        }
    }

    /// Degenerate batch counts: zero items must be a no-op (not a panic),
    /// and a single item must defer to the unbatched entry.
    #[test]
    fn batched_entries_handle_empty_batches() {
        gemm_batched(0, 3, 4, 5, 1.0, &[], &[0.0; 20], 0.0, &mut []);
        gemm_transb_batched(0, 3, 4, 5, 1.0, &[0.0; 15], &[], 0.0, &mut []);
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let mut c1 = [f64::NAN];
        gemm_transb_batched(1, 1, 1, 2, 1.0, &a, &b, 0.0, &mut c1);
        assert_eq!(c1[0], 11.0);
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
            assert!(max_abs_diff(&y, &y_ref) <= 1e-12, "matvec mismatch {m}x{k}");
        }
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
