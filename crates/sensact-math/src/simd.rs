//! Register-blocked SIMD microkernels behind runtime feature detection.
//!
//! The GEMM entry points in [`kernels`](crate::kernels) dispatch into this
//! module when the host CPU supports a vector ISA and the problem is large
//! enough to amortize operand packing. The design is the classic
//! register-blocked formulation (BLIS/GotoBLAS): the `k` dimension is cut
//! into cache-sized blocks, `B` is packed into column panels of width `NR`,
//! `A` is packed into row panels of height `MR` with `alpha` folded in, and
//! an unrolled microkernel keeps an `MR × NR` tile of `C` in vector
//! registers across the whole `k` block.
//!
//! Three tiles exist, selected once per process by [`cpu_features`]:
//!
//! - **AVX2+FMA** (`6×8` f64 tile; 12 YMM accumulators):
//!   fused multiply-add changes rounding versus the scalar kernels (one
//!   rounding per step instead of two), so results differ from
//!   [`gemm_naive`](crate::kernels::gemm_naive) by a forward error bounded
//!   by `2·γ_{k+2}·(|αA|·|B|)_ij` — `fma_panel_path_is_within_forward_error_bound`
//!   checks this bound analytically per element.
//! - **AVX** (`4×8` f64 tile, where AVX2 is present): multiply *then* add
//!   per step, in ascending `k` — the exact rounding sequence of the scalar
//!   blocked kernel, so this path stays **bitwise identical** to it.
//! - **portable** (`4×4` f64 tile in plain Rust, no intrinsics, never
//!   fused): the same arithmetic on every other host — an SSE2-only x86
//!   (the compiler already emits SSE2 for it), a host without an f64 vector
//!   ISA, and under the `SENSACT_FORCE_SCALAR` environment variable
//!   (satisfied by any value other than `0`/empty). Where
//!   [`CpuFeatures::simd_f64`] is false only the panel-source entry points
//!   run it; [`gemm`](crate::kernels::gemm) and the other plain entry
//!   points run their scalar loops there.
//!
//! [`gemm_transa`](crate::kernels::gemm_transa) runs on the same driver but
//! never on the FMA tile: its `4×8` AVX tile (the portable tile below AVX2)
//! multiplies, then adds, so that entry point is bitwise identical to the
//! naive kernel on every host.
//!
//! The multiply-then-add tiles have a second, **dot** accumulator mode for
//! the products *below* `SIMD_MIN_OPS` (all of them, where the FMA tile is
//! off) that reach the driver through a panel source (the conv forward, the
//! gathered cross-loop GEMM): the accumulators start at `+0.0` and the
//! finished tile is added to the `beta·C` seed once — the rounding sequence
//! of the scalar row-dot in [`gemm_transb`](crate::kernels::gemm_transb),
//! which is what those shapes have always computed and what every golden
//! pins. A dot is never split: its whole `k` is packed as one block. A
//! panel-source product
//! that stands in for `gemm` instead (the conv weight gradients) runs the
//! same tiles in their chain mode there, the bits of the scalar blocked
//! loop. `SIMD_MIN_OPS` therefore chooses a *rounding tier* for those entry
//! points (FMA at and above it, bitwise dot or chain below), not SIMD versus
//! scalar.
//!
//! The driver reads B through a [`PanelSource`], one packed panel at a
//! time, so an operand that is a view of something smaller (a conv's im2col
//! patches) is unfolded straight into the panel and never materialised.
//!
//! One kernel here is not a GEMM: the AVX2 arm of
//! [`sign_fold`](crate::kernels::sign_fold). It only negates (a sign-bit
//! XOR) and adds, in the scalar loop's order, so it is bitwise identical to
//! that loop.

use std::sync::OnceLock;

/// Register-tile height of the AVX2+FMA microkernels (12 YMM accumulators
/// out of 16 architectural registers — the classic 6-row DGEMM shape).
pub const MR_FMA: usize = 6;
/// Register-tile height of the portable `4×4` microkernel.
pub const MR_SSE: usize = 4;
/// Register-tile height of the AVX multiply-then-add microkernel (8 YMM
/// accumulators; the unfused product needs a register of its own).
#[cfg(target_arch = "x86_64")]
const MR_AVX: usize = 4;
/// Columns per packed B panel on the AVX2 f64 path.
pub const NR_F64: usize = 8;
/// Columns per packed B panel on the portable `4×4` f64 path.
pub const NR_SSE: usize = 4;

/// `k`-block depth: panels of `KC` rows of B (2 KiB per f64 column panel)
/// stay L1/L2-resident while a C tile is updated.
const KC: usize = 256;

/// Per-item `m*n*k` at which a product moves from the bitwise tiers (the
/// scalar row-dots, or [`gemm_tile_f64`] where B comes through a panel
/// source) onto the FMA tile. The value is pinned by the goldens: it decides
/// which shapes round once per step and which round twice.
const SIMD_MIN_OPS: usize = 1 << 14;

/// Largest microkernel tile in doubles (edge tiles stage through a stack
/// buffer of this size).
const MAX_TILE: usize = MR_FMA * NR_F64;

/// CPU feature detection results, resolved once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// AVX2 available.
    pub avx2: bool,
    /// FMA3 available.
    pub fma: bool,
    /// SSE2 available (baseline on x86_64).
    pub sse2: bool,
    /// `SENSACT_FORCE_SCALAR` was set: all SIMD paths are disabled.
    pub forced_scalar: bool,
}

impl CpuFeatures {
    /// Whether any f64 SIMD path may be taken.
    pub fn simd_f64(&self) -> bool {
        !self.forced_scalar && ((self.avx2 && self.fma) || self.sse2)
    }

    /// Name of the ISA path GEMM dispatch takes on this host.
    pub fn isa_name(&self) -> &'static str {
        if self.forced_scalar {
            "scalar"
        } else if self.avx2 && self.fma {
            "avx2+fma"
        } else if self.sse2 {
            "sse2"
        } else {
            "scalar"
        }
    }
}

/// Detected CPU features (cached after the first call; reads
/// `SENSACT_FORCE_SCALAR` once).
pub fn cpu_features() -> &'static CpuFeatures {
    static FEATURES: OnceLock<CpuFeatures> = OnceLock::new();
    FEATURES.get_or_init(detect)
}

/// Whether an f64 GEMM of this shape takes the FMA tier on this host — the
/// exact gate in front of [`gemm_fma_f64`]. The batched kernels pin their dispatch
/// on the *per-item* shape through this predicate so a stack of small
/// problems never crosses onto a different rounding path than the same
/// problems dispatched one at a time.
pub(crate) fn simd_f64_eligible(m: usize, n: usize, k: usize) -> bool {
    let ops = m.saturating_mul(n).saturating_mul(k);
    cpu_features().simd_f64() && n != 0 && k != 0 && ops >= SIMD_MIN_OPS
}

/// Name of the ISA path GEMM dispatch takes on this host
/// (`"avx2+fma"`, `"sse2"` or `"scalar"`).
pub fn isa_name() -> &'static str {
    cpu_features().isa_name()
}

fn detect() -> CpuFeatures {
    let forced_scalar = std::env::var("SENSACT_FORCE_SCALAR")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    #[cfg(target_arch = "x86_64")]
    {
        CpuFeatures {
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            fma: std::arch::is_x86_feature_detected!("fma"),
            sse2: std::arch::is_x86_feature_detected!("sse2"),
            forced_scalar,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        CpuFeatures {
            avx2: false,
            fma: false,
            sse2: false,
            forced_scalar,
        }
    }
}

/// Where the packed-panel driver reads its B operand from.
///
/// The driver never indexes B itself: it asks the source for one
/// `NR`-wide column panel of one `k` block at a time. The crate's own
/// row-major and transposed sources cover the plain GEMM shapes; a lowering
/// whose B is a *view* of something smaller (the conv layers' im2col
/// patches) implements the trait itself and unfolds straight into the
/// panel, so the column matrix is never written to memory.
pub trait PanelSource {
    /// Write rows `k0..k0 + kc` of B's columns `j0..j0 + nr` into `dst`, a
    /// row-major `kc × ld` panel (`nr <= ld`). Every element of `dst` must
    /// be written; the lanes `nr..ld` of each row are zero.
    fn pack(&self, k0: usize, kc: usize, j0: usize, nr: usize, ld: usize, dst: &mut [f64]);
}

/// Row-major `[k × n]` B (plain GEMM).
pub(crate) struct RowMajor<'a> {
    pub b: &'a [f64],
    pub n: usize,
}

/// Row-major `[n × k]` B, i.e. `B` transposed (the `gemm_transb` shape).
pub(crate) struct Transposed<'a> {
    pub b: &'a [f64],
    pub k: usize,
}

impl PanelSource for RowMajor<'_> {
    fn pack(&self, k0: usize, kc: usize, j0: usize, nr: usize, ld: usize, dst: &mut [f64]) {
        for (kk, row) in dst[..kc * ld].chunks_exact_mut(ld).enumerate() {
            let at = (k0 + kk) * self.n + j0;
            row[..nr].copy_from_slice(&self.b[at..at + nr]);
            row[nr..].fill(0.0);
        }
    }
}

impl PanelSource for Transposed<'_> {
    fn pack(&self, k0: usize, kc: usize, j0: usize, nr: usize, ld: usize, dst: &mut [f64]) {
        for (kk, row) in dst[..kc * ld].chunks_exact_mut(ld).enumerate() {
            for (l, d) in row[..nr].iter_mut().enumerate() {
                *d = self.b[(j0 + l) * self.k + k0 + kk];
            }
            row[nr..].fill(0.0);
        }
    }
}

/// Layout of the A operand: element `(i, kk)` lives at `a[i * row + kk * col]`
/// (`(k, 1)` for row-major `[m × k]`, `(1, m)` for the `gemm_transa` shape).
#[derive(Clone, Copy)]
struct AStrides {
    row: usize,
    col: usize,
}

/// Signature of an `MR × NR` microkernel: accumulate `kc` packed steps into
/// the C tile at `c` with row stride `ldc`.
type PanelKernel = unsafe fn(usize, *const f64, *const f64, *mut f64, usize);

/// The FMA tier: `C = alpha*A*B + beta*C` with B read through `b`. Only
/// called once [`simd_f64_eligible`] has passed, on the product's own shape
/// or on the one a caller pinned the tier on
/// ([`gemm_panel_source`](crate::kernels::gemm_panel_source)); an SSE2-only
/// host runs the portable tile in chain mode.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_fma_f64<S: PanelSource>(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &S,
    beta: f64,
    c: &mut [f64],
) {
    let at = AStrides { row: k, col: 1 };
    #[cfg(target_arch = "x86_64")]
    if cpu_features().avx2 && cpu_features().fma {
        crate::kernels::scale_c(beta, c);
        let kernel = kernel_6x8_f64_fma;
        return gemm_panels::<MR_FMA, NR_F64, _>(m, n, k, KC, alpha, a, at, b, c, kernel);
    }
    gemm_bitwise::<false, _>(m, n, k, alpha, a, at, b, beta, c);
}

/// `C = alpha * A^T * B + beta * C` (`a` row-major `[k × m]`) on the
/// **bitwise** tier: the microkernels multiply, *then* add, in ascending `k`
/// — the rounding sequence of the scalar loop in
/// [`gemm_transa`](crate::kernels::gemm_transa), so every path of that entry
/// point produces the same bits (goldens and trace hashes pin them).
/// The AVX tile where AVX2 is present, the portable one otherwise; only
/// called once [`simd_f64_eligible`] has passed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_transa_f64(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    let at = AStrides { row: 1, col: m };
    gemm_bitwise::<false, _>(m, n, k, alpha, a, at, &RowMajor { b, n }, beta, c);
}

/// A product on a **bitwise** tier: `C = alpha*A*B + beta*C` with `a`
/// row-major `[m × k]` and B read through `b`, multiply then add in
/// ascending `k`, on the host's multiply-then-add tile or the portable one.
/// With `DOT`, every element is `beta·c + Σ_k (alpha·a)·b` with the sum
/// started at `+0.0` — bit for bit the scalar row-dot of
/// [`gemm_transb`](crate::kernels::gemm_transb), `k = 0` included (a `-0.0`
/// seed becomes `+0.0`). Without it, one chain from the `beta·c` seed — bit
/// for bit [`gemm_blocked`](crate::kernels::gemm_blocked).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_tile_f64<const DOT: bool, S: PanelSource>(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &S,
    beta: f64,
    c: &mut [f64],
) {
    let at = AStrides { row: k, col: 1 };
    gemm_bitwise::<DOT, _>(m, n, k, alpha, a, at, b, beta, c);
    if DOT && k == 0 {
        c.iter_mut().for_each(|x| *x += 0.0);
    }
}

/// AVX2 arm of [`sign_fold`](crate::kernels::sign_fold). Returns `false`
/// with `out` untouched when the caller must run the scalar loop (no AVX2,
/// `SENSACT_FORCE_SCALAR`, non-x86). The caller has checked the lengths.
pub(crate) fn sign_fold_f64(base: &[f64], steps: &[f64], signs: &[u64], out: &mut [f64]) -> bool {
    let f = cpu_features();
    if f.forced_scalar || !f.avx2 {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        assert!(out.len() == base.len() && signs.len() == steps.len().div_ceil(64) * base.len());
        // SAFETY: AVX2 was detected above, and the lengths the kernel's
        // `# Safety` section names were asserted on the line before.
        unsafe { sign_fold_avx2(base, steps, signs, out) };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (base, steps, signs, out);
        false
    }
}

/// Elements one register block of [`sign_fold_avx2`] keeps in flight:
/// four independent add chains hide the add latency.
#[cfg(target_arch = "x86_64")]
const FOLD_BLOCK: usize = 16;

/// `out[j] = base[j] ± steps[0] ± …` for `j` in `at..at + 4·V`, each
/// element's sum held in a register across every step: the sign of the
/// next step is the top bit of the element's word, masked and XORed onto
/// the broadcast step — an exact negation — then added (ascending `i`);
/// doubling the word brings the following step's bit to the top.
///
/// # Safety
///
/// The host must support AVX2; `at + 4·V <= base.len()`, `out.len() ==
/// base.len()` and `signs.len() == steps.len().div_ceil(64) * base.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sign_fold_block<const V: usize>(
    base: &[f64],
    steps: &[f64],
    signs: &[u64],
    out: &mut [f64],
    at: usize,
) {
    use std::arch::x86_64::*;
    let p = base.len();
    let mut acc = [_mm256_setzero_pd(); V];
    for (v, a) in acc.iter_mut().enumerate() {
        *a = _mm256_loadu_pd(base.as_ptr().add(at + 4 * v));
    }
    let top = _mm256_set1_epi64x(i64::MIN);
    for (plane, chunk) in steps.chunks(64).enumerate() {
        // This plane's words stay in registers.
        let mut words = [_mm256_setzero_si256(); V];
        for (v, w) in words.iter_mut().enumerate() {
            *w = _mm256_loadu_si256(signs.as_ptr().add(plane * p + at + 4 * v) as *const __m256i);
        }
        for &s in chunk {
            let sv = _mm256_set1_pd(s);
            for (a, w) in acc.iter_mut().zip(words.iter_mut()) {
                let sign = _mm256_castsi256_pd(_mm256_and_si256(*w, top));
                *a = _mm256_add_pd(*a, _mm256_xor_pd(sv, sign));
                *w = _mm256_add_epi64(*w, *w);
            }
        }
    }
    for (v, a) in acc.iter().enumerate() {
        _mm256_storeu_pd(out.as_mut_ptr().add(at + 4 * v), *a);
    }
}

/// The AVX2 sign fold: blocks of [`FOLD_BLOCK`] elements, then single
/// vectors, then a scalar tail — the same per-element sequence throughout.
///
/// # Safety
///
/// The host must support AVX2; `out.len() == base.len()` and `signs.len()
/// == steps.len().div_ceil(64) * base.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sign_fold_avx2(base: &[f64], steps: &[f64], signs: &[u64], out: &mut [f64]) {
    let p = base.len();
    let blocks = p - p % FOLD_BLOCK;
    let vectors = p - p % 4;
    // Every block below ends at or before `p`; the rest is this function's
    // own contract, passed through.
    for at in (0..blocks).step_by(FOLD_BLOCK) {
        sign_fold_block::<{ FOLD_BLOCK / 4 }>(base, steps, signs, out, at);
    }
    for at in (blocks..vectors).step_by(4) {
        sign_fold_block::<1>(base, steps, signs, out, at);
    }
    for j in vectors..p {
        let mut t = base[j];
        for (i, &s) in steps.iter().enumerate() {
            let sign = (signs[(i / 64) * p + j] << (i % 64)) & crate::kernels::SIGN_BIT;
            t += f64::from_bits(s.to_bits() ^ sign);
        }
        out[j] = t;
    }
}

/// The packed-panel driver over the multiply-then-add tile of the host
/// (`4×8` AVX where AVX2 is present and [`CpuFeatures::simd_f64`] holds,
/// the portable `4×4` everywhere else), in chain mode
/// (`DOT = false`: accumulate onto the `beta·C` seed, `KC`-deep blocks) or
/// dot mode (the whole `k` in one block, so no dot is split).
#[allow(clippy::too_many_arguments)]
fn gemm_bitwise<const DOT: bool, S: PanelSource>(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    at: AStrides,
    b: &S,
    beta: f64,
    c: &mut [f64],
) {
    crate::kernels::scale_c(beta, c);
    let kb = if DOT { k.max(1) } else { KC };
    #[cfg(target_arch = "x86_64")]
    if cpu_features().simd_f64() && cpu_features().avx2 {
        let kernel = kernel_4x8_f64_avx::<DOT>;
        return gemm_panels::<MR_AVX, NR_F64, _>(m, n, k, kb, alpha, a, at, b, c, kernel);
    }
    let kernel = kernel_4x4_f64_portable::<DOT>;
    gemm_panels::<MR_SSE, NR_SSE, _>(m, n, k, kb, alpha, a, at, b, c, kernel);
}

/// Pack one `MR`-high row panel of A (alpha folded in, short panels
/// zero-padded).
#[allow(clippy::too_many_arguments)]
fn pack_a_panel<const MR: usize>(
    at: AStrides,
    k0: usize,
    kc: usize,
    i0: usize,
    mr: usize,
    alpha: f64,
    a: &[f64],
    ap: &mut [f64],
) {
    for (kk, dst) in ap[..kc * MR].chunks_exact_mut(MR).enumerate() {
        for (r, d) in dst[..mr].iter_mut().enumerate() {
            *d = alpha * a[(i0 + r) * at.row + (k0 + kk) * at.col];
        }
        dst[mr..].fill(0.0);
    }
}

/// Rows of A packed at a time. A multiple of every tile height, sized so a
/// full block (`MC × KC` doubles, 192 KiB) stays L2-resident while the B
/// panels stream past it.
const MC: usize = 96;

thread_local! {
    /// Per-thread packing scratch (B panels, A block). Reused across GEMM
    /// dispatches: small serving-sized calls would otherwise spend more on
    /// allocating (and, for wide batched panels, page-faulting) the packing
    /// buffers than on the arithmetic itself.
    static PACK_F64: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Packed-panel GEMM driver, generic over the tile shape, the B source and
/// the microkernel (C pre-scaled by beta; computes `C += αAB`), in `k`
/// blocks of `kb` steps.
///
/// A is packed `MC` rows at a time; each B panel is packed when the first A
/// block reaches it and is multiplied against every packed A panel while it
/// is still in L1. When one block holds all of A (the conv shapes:
/// `m = cout`) no panel is needed twice, so all of them share one slot and
/// B — which for a conv is the column matrix — never exists in memory.
/// Every packed region is fully written (short panels zero-padded) before
/// the microkernel reads it, so stale scratch contents are harmless.
#[allow(clippy::too_many_arguments)]
fn gemm_panels<const MR: usize, const NR: usize, S: PanelSource>(
    m: usize,
    n: usize,
    k: usize,
    kb: usize,
    alpha: f64,
    a: &[f64],
    at: AStrides,
    b: &S,
    c: &mut [f64],
    kernel: PanelKernel,
) {
    PACK_F64.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let (bp, ap) = &mut *scratch;
        let np = n.div_ceil(NR);
        let kc_max = kb.min(k);
        let slots = if m <= MC { 1 } else { np };
        if bp.len() < slots * kc_max * NR {
            bp.resize(slots * kc_max * NR, 0.0);
        }
        let a_rows = MC.min(m).next_multiple_of(MR);
        if ap.len() < a_rows * kc_max {
            ap.resize(a_rows * kc_max, 0.0);
        }
        for k0 in (0..k).step_by(kb) {
            let kc = (k0 + kb).min(k) - k0;
            for ib in (0..m).step_by(MC) {
                let mb = (m - ib).min(MC);
                for (panel, i0) in ap.chunks_exact_mut(kc * MR).zip((ib..ib + mb).step_by(MR)) {
                    pack_a_panel::<MR>(at, k0, kc, i0, (m - i0).min(MR), alpha, a, panel);
                }
                for jp in 0..np {
                    let j0 = jp * NR;
                    let nr = (n - j0).min(NR);
                    let slot = if slots == 1 { 0 } else { jp };
                    let bpanel = &mut bp[slot * kc * NR..(slot + 1) * kc * NR];
                    if ib == 0 {
                        b.pack(k0, kc, j0, nr, NR, bpanel);
                    }
                    let bpp = bpanel.as_ptr();
                    for (panel, i0) in ap.chunks_exact(kc * MR).zip((ib..ib + mb).step_by(MR)) {
                        let mr = (m - i0).min(MR);
                        let app = panel.as_ptr();
                        if mr == MR && nr == NR {
                            // Full tile: accumulate straight into C.
                            // SAFETY: `app`/`bpp` point at `kc * MR` / `kc * NR`
                            // packed doubles, and rows `i0..i0 + MR`, columns
                            // `j0..j0 + NR` of the `m × n` matrix `c` are in
                            // bounds because the tile is full.
                            unsafe { kernel(kc, app, bpp, c.as_mut_ptr().add(i0 * n + j0), n) };
                        } else {
                            // Edge tile: stage through a stack tile so the kernel
                            // never reads or writes past the valid C region. The
                            // padded A rows / B columns are zero, so the dead lanes
                            // accumulate zeros and are simply not copied back.
                            let mut tile = [0.0f64; MAX_TILE];
                            for r in 0..mr {
                                tile[r * NR..r * NR + nr]
                                    .copy_from_slice(&c[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr]);
                            }
                            // SAFETY: packed operands as above; `tile` holds
                            // `MAX_TILE >= MR * NR` doubles with row stride `NR`.
                            unsafe { kernel(kc, app, bpp, tile.as_mut_ptr(), NR) };
                            for r in 0..mr {
                                c[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr]
                                    .copy_from_slice(&tile[r * NR..r * NR + nr]);
                            }
                        }
                    }
                }
            }
        }
    });
}

/// AVX `4×8` f64 microkernel for the bitwise tiers: 8 YMM accumulators,
/// multiply **then** add per step in ascending `k` (never fused), so each
/// element sees the rounding sequence of the scalar loops. The accumulators
/// start from the C tile (`DOT = false`: one chain from the `beta·C` seed,
/// the `gemm_transa` loop) or from `+0.0` with the C tile added once after
/// the last step (`DOT = true`: the `gemm_transb` row-dot, which needs the
/// whole of `k` in this one call).
///
/// # Safety
///
/// The host must support AVX; `ap` and `bp` must point at `kc * 4` and
/// `kc * 8` packed doubles; `c` must be valid for reads and writes of 4
/// rows of 8 doubles at row stride `ldc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn kernel_4x8_f64_avx<const DOT: bool>(
    kc: usize,
    ap: *const f64,
    bp: *const f64,
    c: *mut f64,
    ldc: usize,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_pd(); 2]; MR_AVX];
    if !DOT {
        for (r, row) in acc.iter_mut().enumerate() {
            row[0] = _mm256_loadu_pd(c.add(r * ldc));
            row[1] = _mm256_loadu_pd(c.add(r * ldc + 4));
        }
    }
    for kk in 0..kc {
        let b0 = _mm256_loadu_pd(bp.add(kk * NR_F64));
        let b1 = _mm256_loadu_pd(bp.add(kk * NR_F64 + 4));
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm256_broadcast_sd(&*ap.add(kk * MR_AVX + r));
            row[0] = _mm256_add_pd(row[0], _mm256_mul_pd(av, b0));
            row[1] = _mm256_add_pd(row[1], _mm256_mul_pd(av, b1));
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let (c0, c1) = (c.add(r * ldc), c.add(r * ldc + 4));
        if DOT {
            _mm256_storeu_pd(c0, _mm256_add_pd(_mm256_loadu_pd(c0), row[0]));
            _mm256_storeu_pd(c1, _mm256_add_pd(_mm256_loadu_pd(c1), row[1]));
        } else {
            _mm256_storeu_pd(c0, row[0]);
            _mm256_storeu_pd(c1, row[1]);
        }
    }
}

/// AVX2+FMA `6×8` f64 microkernel: 12 YMM accumulators hold the C tile, one
/// broadcast + two FMAs per row per `k` step (ascending `k`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn kernel_6x8_f64_fma(kc: usize, ap: *const f64, bp: *const f64, c: *mut f64, ldc: usize) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_pd(); 2]; MR_FMA];
    for (r, row) in acc.iter_mut().enumerate() {
        row[0] = _mm256_loadu_pd(c.add(r * ldc));
        row[1] = _mm256_loadu_pd(c.add(r * ldc + 4));
    }
    for kk in 0..kc {
        let b0 = _mm256_loadu_pd(bp.add(kk * NR_F64));
        let b1 = _mm256_loadu_pd(bp.add(kk * NR_F64 + 4));
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm256_broadcast_sd(&*ap.add(kk * MR_FMA + r));
            row[0] = _mm256_fmadd_pd(av, b0, row[0]);
            row[1] = _mm256_fmadd_pd(av, b1, row[1]);
        }
    }
    for (r, row) in acc.iter().enumerate() {
        _mm256_storeu_pd(c.add(r * ldc), row[0]);
        _mm256_storeu_pd(c.add(r * ldc + 4), row[1]);
    }
}

/// Portable `4×4` f64 microkernel: plain Rust, multiply **then** add per
/// step in ascending `k` (no intrinsics, no `mul_add`) — the rounding
/// sequence of the scalar blocked kernel — with the same `DOT` accumulator
/// modes as [`kernel_4x8_f64_avx`].
///
/// # Safety
///
/// `ap` and `bp` must point at `kc * 4` packed doubles each; `c` must be
/// valid for reads and writes of 4 rows of 4 doubles at row stride `ldc`.
unsafe fn kernel_4x4_f64_portable<const DOT: bool>(
    kc: usize,
    ap: *const f64,
    bp: *const f64,
    c: *mut f64,
    ldc: usize,
) {
    let (ap, bp) = (
        std::slice::from_raw_parts(ap, kc * MR_SSE),
        std::slice::from_raw_parts(bp, kc * NR_SSE),
    );
    let mut acc = [[0.0f64; NR_SSE]; MR_SSE];
    if !DOT {
        for (r, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(std::slice::from_raw_parts(c.add(r * ldc), NR_SSE));
        }
    }
    for (a, b) in ap.chunks_exact(MR_SSE).zip(bp.chunks_exact(NR_SSE)) {
        for (row, &av) in acc.iter_mut().zip(a) {
            for (x, &bv) in row.iter_mut().zip(b) {
                *x += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let dst = std::slice::from_raw_parts_mut(c.add(r * ldc), NR_SSE);
        for (d, &x) in dst.iter_mut().zip(row) {
            *d = if DOT { *d + x } else { x };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::tests::salt_hostile;
    use crate::kernels::{gemm_blocked, gemm_naive};
    use crate::rng::StdRng;

    fn random_mat(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.gen_f64() * 2.0 - 1.0).collect()
    }

    /// Forward-error bound for the FMA path versus the naive kernel:
    /// both orderings satisfy |ĉ - c| ≤ γ_{k+2}(|αA||B|)_ij + |βc0| terms,
    /// so their difference is within twice that.
    fn fma_bound(m: usize, n: usize, k: usize, alpha: f64, a: &[f64], b: &[f64]) -> Vec<f64> {
        let abs_a: Vec<f64> = a.iter().map(|x| (alpha * x).abs()).collect();
        let abs_b: Vec<f64> = b.iter().map(|x| x.abs()).collect();
        let mut bound = vec![0.0; m * n];
        gemm_naive(m, n, k, 1.0, &abs_a, &abs_b, 0.0, &mut bound);
        let gamma = 2.0 * (k as f64 + 2.0) * f64::EPSILON;
        for x in bound.iter_mut() {
            *x = *x * gamma + 1e-300;
        }
        bound
    }

    #[test]
    fn portable_panel_path_is_bitwise_vs_blocked() {
        let mut rng = StdRng::seed_from_u64(0x55E2);
        for &(m, n, k) in &[(4, 4, 8), (7, 9, 300), (64, 33, 257), (1, 16, 40)] {
            let a = random_mat(&mut rng, m * k);
            let b = random_mat(&mut rng, k * n);
            let mut c_ref = vec![0.0; m * n];
            gemm_blocked(m, n, k, 1.25, &a, &b, 0.0, &mut c_ref);
            let mut c = vec![0.0; m * n];
            gemm_panels::<MR_SSE, NR_SSE, _>(
                m,
                n,
                k,
                KC,
                1.25,
                &a,
                AStrides { row: k, col: 1 },
                &RowMajor { b: &b, n },
                &mut c,
                kernel_4x4_f64_portable::<false>,
            );
            assert_eq!(c_ref, c, "portable path not bitwise at {m}x{n}x{k}");

            // The same tile on a transposed A (`gemm_transa` below AVX2).
            let mut at = vec![0.0; k * m];
            crate::kernels::transpose_into(m, k, &a, &mut at);
            let mut c_t = vec![0.0; m * n];
            gemm_panels::<MR_SSE, NR_SSE, _>(
                m,
                n,
                k,
                KC,
                1.25,
                &at,
                AStrides { row: 1, col: m },
                &RowMajor { b: &b, n },
                &mut c_t,
                kernel_4x4_f64_portable::<false>,
            );
            assert_eq!(
                c_ref, c_t,
                "portable transa path not bitwise at {m}x{n}x{k}"
            );
        }
    }

    /// The multiply-then-add tile with `kb` steps per block, driven
    /// directly on `seed` (scaled by `beta` first, as the entry points do).
    fn drive<const MR: usize, const NR: usize, S: PanelSource>(
        kernel: PanelKernel,
        (m, n, k, kb): (usize, usize, usize, usize),
        alpha: f64,
        a: &[f64],
        b: &S,
        beta: f64,
        seed: &[f64],
    ) -> Vec<f64> {
        let mut c = seed.to_vec();
        crate::kernels::scale_c(beta, &mut c);
        gemm_panels::<MR, NR, _>(
            m,
            n,
            k,
            kb,
            alpha,
            a,
            AStrides { row: k, col: 1 },
            b,
            &mut c,
            kernel,
        );
        c
    }

    fn assert_same_bits(want: &[f64], got: &[f64], case: &str) {
        for (i, (x, y)) in want.iter().zip(got).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{case}: element {i} is {y:e} ({:#x}), want {x:e} ({:#x})",
                y.to_bits(),
                x.to_bits()
            );
        }
    }

    /// Every dot-mode tile — the portable one, and AVX where the host has
    /// it — driven directly, against the scalar row-dot written out: sum from `+0.0`
    /// in ascending `k`, added to the `beta·C` seed once. Ragged and full
    /// tiles, `k` past one `KC` block (a dot is one block, whatever its
    /// depth), IEEE specials in every operand.
    #[test]
    fn dot_mode_tiles_are_bitwise_vs_the_scalar_row_dot() {
        let mut rng = StdRng::seed_from_u64(0xD07);
        let shapes = [
            (4, 8, 27),
            (1, 1, 1),
            (5, 9, 255),
            (7, 13, KC),
            (9, 31, 40),
            (6, 5, 600),
        ];
        for &(m, n, k) in &shapes {
            for hostile in [false, true] {
                let mut a = random_mat(&mut rng, m * k);
                let mut bt = random_mat(&mut rng, n * k); // stored as [n, k]
                let mut base = random_mat(&mut rng, m * n);
                if hostile {
                    for buf in [&mut a, &mut bt, &mut base] {
                        salt_hostile(&mut rng, buf);
                    }
                }
                let alpha = -1.25;
                let mut want = base.clone();
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = 0.0;
                        for kk in 0..k {
                            acc += alpha * a[i * k + kk] * bt[j * k + kk];
                        }
                        want[i * n + j] += acc;
                    }
                }
                let src = Transposed { b: &bt, k };
                let shape = (m, n, k, k);
                let portable = kernel_4x4_f64_portable::<true>;
                #[allow(unused_mut)] // the AVX tile is x86-only
                let mut tiles = vec![(
                    "portable",
                    drive::<MR_SSE, NR_SSE, _>(portable, shape, alpha, &a, &src, 1.0, &base),
                )];
                #[cfg(target_arch = "x86_64")]
                if cpu_features().avx2 {
                    let kernel = kernel_4x8_f64_avx::<true>;
                    let c = drive::<MR_AVX, NR_F64, _>(kernel, shape, alpha, &a, &src, 1.0, &base);
                    tiles.push(("avx", c));
                }
                for (tile, c) in tiles {
                    let case =
                        format!("{tile} dot tile vs the row-dot at {m}x{n}x{k} hostile={hostile}");
                    assert_same_bits(&want, &c, &case);
                }
            }
        }
    }

    /// The portable tile and the host's multiply-then-add tile on the same
    /// operands, through the same driver, in both accumulator modes: every
    /// `m mod 4` and `n mod {4, 8}` residue, `k` on both sides of the
    /// 256-deep block (chain mode cuts it, dot mode never does), NaN, `±∞`
    /// and `±0` in A, B and the seed, every `beta` class. This is the row a
    /// host without AVX leans on; on such a host the two tiles are one.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_portable_tile_is_bitwise_the_host_tile() {
        if !cpu_features().avx2 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x9027);
        for k in [1, 255, 256, 257, 600] {
            for m in 1..=8 {
                for n in 1..=9 {
                    for beta in [0.0, 0.5, 1.0] {
                        let mut a = random_mat(&mut rng, m * k);
                        let mut b = random_mat(&mut rng, k * n);
                        let mut seed = random_mat(&mut rng, m * n);
                        for buf in [&mut a, &mut b, &mut seed] {
                            salt_hostile(&mut rng, buf);
                        }
                        let src = RowMajor { b: &b, n };
                        for dot in [false, true] {
                            let shape = (m, n, k, if dot { k } else { KC });
                            let (portable, avx): (PanelKernel, PanelKernel) = if dot {
                                (kernel_4x4_f64_portable::<true>, kernel_4x8_f64_avx::<true>)
                            } else {
                                (
                                    kernel_4x4_f64_portable::<false>,
                                    kernel_4x8_f64_avx::<false>,
                                )
                            };
                            let alpha = 0.75;
                            let want = drive::<MR_SSE, NR_SSE, _>(
                                portable, shape, alpha, &a, &src, beta, &seed,
                            );
                            let host = drive::<MR_AVX, NR_F64, _>(
                                avx, shape, alpha, &a, &src, beta, &seed,
                            );
                            let case = format!("{m}x{n}x{k} beta={beta} dot={dot}");
                            assert_same_bits(&want, &host, &case);
                        }
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fma_panel_path_is_within_forward_error_bound() {
        let f = cpu_features();
        if !(f.avx2 && f.fma) {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0xF3A);
        for &(m, n, k) in &[(6, 8, 16), (13, 21, 300), (64, 64, 64), (3, 100, 257)] {
            let alpha = -0.75;
            let a = random_mat(&mut rng, m * k);
            let b = random_mat(&mut rng, k * n);
            let mut c_ref = vec![0.0; m * n];
            gemm_naive(m, n, k, alpha, &a, &b, 0.0, &mut c_ref);
            let mut c = vec![0.0; m * n];
            gemm_panels::<MR_FMA, NR_F64, _>(
                m,
                n,
                k,
                KC,
                alpha,
                &a,
                AStrides { row: k, col: 1 },
                &RowMajor { b: &b, n },
                &mut c,
                kernel_6x8_f64_fma,
            );
            let bound = fma_bound(m, n, k, alpha, &a, &b);
            for (i, ((&x, &y), &tol)) in c_ref.iter().zip(&c).zip(&bound).enumerate() {
                assert!(
                    (x - y).abs() <= tol,
                    "fma diff {} > bound {tol} at {i} ({m}x{n}x{k})",
                    (x - y).abs()
                );
            }
        }
    }

    #[test]
    fn feature_report_is_coherent() {
        let f = cpu_features();
        // The name must be one of the three documented paths, and forcing
        // scalar closes the SIMD gate.
        assert!(["avx2+fma", "sse2", "scalar"].contains(&f.isa_name()));
        if f.forced_scalar {
            assert!(!f.simd_f64());
            assert_eq!(f.isa_name(), "scalar");
        }
        assert_eq!(isa_name(), f.isa_name());
    }
}
