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
//! Five tiles exist, selected once per process by [`cpu_features`]:
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
//! - **AVX-512 FMA** and **AVX-512** (`8×8` f64 tiles, one ZMM
//!   accumulator per row, where `avx512f` is present too): the same two
//!   contracts on 512-bit lanes — fused per step, or multiply then add in
//!   both accumulator modes below. They take a product of at least 8 rows;
//!   one of fewer rows (the served lidar conv has 4) stays on the 256-bit
//!   tiles, so it never computes rows it does not have.
//! - **portable** (`4×4` f64 tile in plain Rust, no intrinsics, never
//!   fused): the same arithmetic on every other host — an SSE2-only x86
//!   (the compiler already emits SSE2 for it), a host without an f64 vector
//!   ISA, and under the `SENSACT_FORCE_SCALAR` environment variable
//!   (satisfied by any value other than `0`/empty). Where
//!   [`CpuFeatures::simd_f64`] is false only the panel-source entry points
//!   run it; [`gemm`](crate::kernels::gemm) and the other plain entry
//!   points run their scalar loops there.
//!
//! Lane width never changes an element's operation sequence: a tile only
//! decides how many elements advance together, and each runs the per-`k`
//! steps of its tier (fused, or multiply then add from the `beta·C` seed or
//! from `+0.0`) in ascending `k`. So every tile of one tier gives the same
//! bits (`every_tile_of_a_tier_gives_the_same_bits`), and golden hashes are
//! keyed per rounding tier ([`isa_name`]), not per tile.
//!
//! [`gemm_transa`](crate::kernels::gemm_transa) runs on the same driver but
//! never on an FMA tile: its multiply-then-add tile (the portable one below
//! AVX2) multiplies, then adds, so that entry point is bitwise identical to the
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
/// Register-tile height of the AVX-512 microkernels (8 ZMM accumulators),
/// and the fewest rows a product needs to run on them.
#[cfg(target_arch = "x86_64")]
const MR_ZMM: usize = 8;
/// Columns per packed B panel on the AVX2 and AVX-512 f64 paths (one ZMM,
/// two YMM).
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

/// CPU feature detection results, resolved once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// AVX2 available.
    pub avx2: bool,
    /// FMA3 available.
    pub fma: bool,
    /// AVX-512 Foundation available (and enabled by the OS).
    pub avx512f: bool,
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

    /// Name of the rounding tier GEMM dispatch takes on this host. It keys
    /// the golden hashes (`benchmark/goldens.txt`, where an unknown key is
    /// recorded rather than checked) and `RecordingMeta.isa`, so it names a
    /// tier, not a tile: an AVX-512 host computes the same bits as an AVX2
    /// one (module docs) and is `"avx2+fma"` too. Renaming it would make
    /// every golden check on such a host record instead of compare.
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

/// Name of the rounding tier GEMM dispatch takes on this host
/// (`"avx2+fma"`, `"sse2"` or `"scalar"`; see [`CpuFeatures::isa_name`]).
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
            avx512f: std::arch::is_x86_feature_detected!("avx512f"),
            sse2: std::arch::is_x86_feature_detected!("sse2"),
            forced_scalar,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        CpuFeatures {
            avx2: false,
            fma: false,
            avx512f: false,
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

/// The microkernels, one bit each (`1 << tile as u32`) in the mask
/// [`take_tiles_run`] returns.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tile {
    /// The plain-Rust `4×4` multiply-then-add tile.
    Portable,
    /// The `4×8` AVX multiply-then-add tile.
    Avx,
    /// The `6×8` AVX2+FMA tile.
    Fma,
    /// The `8×8` AVX-512 multiply-then-add tile.
    Zmm,
    /// The `8×8` AVX-512 FMA tile.
    ZmmFma,
}

thread_local! {
    static TILES_RUN: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Records that this thread's driver ran `tile`.
fn ran(tile: Tile) {
    TILES_RUN.with(|t| t.set(t.get() | 1 << tile as u32));
}

/// The tiles this thread's products ran since the last call, as a mask of
/// `1 << tile as u32` bits; the call clears it. Test instrumentation: a
/// caller's tests assert that a product ran the tile its host selects, so a
/// dispatch that falls back to another tile of the same tier — same bits,
/// half the lanes — cannot pass silently.
#[doc(hidden)]
pub fn take_tiles_run() -> u32 {
    TILES_RUN.with(|t| t.replace(0))
}

/// Runs the driver on an `8×8` AVX-512 tile: the FMA tile with `FMA`, else
/// the multiply-then-add tile in `DOT` or chain mode. Returns `false` with
/// `c` untouched where the host lacks AVX-512F or `m` is under 8 rows (a
/// 256-bit tile pads fewer there); the caller has chosen the tier.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn gemm_zmm<const FMA: bool, const DOT: bool, S: PanelSource>(
    m: usize,
    n: usize,
    k: usize,
    kb: usize,
    alpha: f64,
    a: &[f64],
    at: AStrides,
    b: &S,
    c: &mut [f64],
) -> bool {
    if m < MR_ZMM || !cpu_features().avx512f {
        return false;
    }
    let (tile, kernel): (_, PanelKernel) = if FMA {
        (Tile::ZmmFma, kernel_8x8_f64_zmm_fma)
    } else {
        (Tile::Zmm, kernel_8x8_f64_zmm::<DOT>)
    };
    ran(tile);
    gemm_panels::<MR_ZMM, NR_F64, _>(m, n, k, kb, alpha, a, at, b, c, kernel);
    true
}

/// The FMA tier: `C = alpha*A*B + beta*C` with B read through `b`. Only
/// called once [`simd_f64_eligible`] has passed, on the product's own shape
/// or on the one a caller pinned the tier on
/// ([`gemm_panel_source`](crate::kernels::gemm_panel_source)); an SSE2-only
/// host runs the portable tile in chain mode. An AVX-512 host runs its FMA
/// tile from 8 rows up, the `6×8` AVX2 one below.
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
        if gemm_zmm::<true, false, _>(m, n, k, KC, alpha, a, at, b, c) {
            return;
        }
        ran(Tile::Fma);
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
/// The host's multiply-then-add tile where AVX2 is present, the portable
/// one otherwise; only called once [`simd_f64_eligible`] has passed.
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
/// (where AVX2 is present and [`CpuFeatures::simd_f64`] holds, the AVX-512
/// tile from 8 rows up on an AVX-512 host and `4×8` AVX otherwise; the
/// portable `4×4` everywhere else), in chain mode
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
        if gemm_zmm::<false, DOT, _>(m, n, k, kb, alpha, a, at, b, c) {
            return;
        }
        ran(Tile::Avx);
        let kernel = kernel_4x8_f64_avx::<DOT>;
        return gemm_panels::<MR_AVX, NR_F64, _>(m, n, k, kb, alpha, a, at, b, c, kernel);
    }
    ran(Tile::Portable);
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
                            let mut tile = [[0.0f64; NR]; MR];
                            for (r, row) in tile[..mr].iter_mut().enumerate() {
                                row[..nr].copy_from_slice(&c[(i0 + r) * n + j0..][..nr]);
                            }
                            // SAFETY: packed operands as above; `tile` holds
                            // `MR` rows of `NR` doubles, contiguous.
                            unsafe { kernel(kc, app, bpp, tile.as_mut_ptr().cast(), NR) };
                            for (r, row) in tile[..mr].iter().enumerate() {
                                c[(i0 + r) * n + j0..][..nr].copy_from_slice(&row[..nr]);
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

/// AVX-512 `8×8` f64 microkernel for the bitwise tiers: one ZMM
/// accumulator per row, multiply **then** add per step in ascending `k`
/// (never fused), with the accumulator modes of [`kernel_4x8_f64_avx`] —
/// each element runs that tile's operation sequence, eight lanes at a time.
///
/// # Safety
///
/// The host must support AVX-512F; `ap` and `bp` must point at `kc * 8`
/// packed doubles each; `c` must be valid for reads and writes of 8 rows of
/// 8 doubles at row stride `ldc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn kernel_8x8_f64_zmm<const DOT: bool>(
    kc: usize,
    ap: *const f64,
    bp: *const f64,
    c: *mut f64,
    ldc: usize,
) {
    use std::arch::x86_64::*;
    let mut acc = [_mm512_setzero_pd(); MR_ZMM];
    if !DOT {
        for (r, row) in acc.iter_mut().enumerate() {
            *row = _mm512_loadu_pd(c.add(r * ldc));
        }
    }
    for kk in 0..kc {
        let b = _mm512_loadu_pd(bp.add(kk * NR_F64));
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_pd(*ap.add(kk * MR_ZMM + r));
            *row = _mm512_add_pd(*row, _mm512_mul_pd(av, b));
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let cr = c.add(r * ldc);
        if DOT {
            _mm512_storeu_pd(cr, _mm512_add_pd(_mm512_loadu_pd(cr), *row));
        } else {
            _mm512_storeu_pd(cr, *row);
        }
    }
}

/// AVX-512 `8×8` f64 FMA microkernel: one ZMM accumulator per row holds
/// the C tile, one broadcast + one FMA per row per `k` step (ascending
/// `k`) — [`kernel_6x8_f64_fma`]'s per-element sequence on 512-bit lanes.
///
/// # Safety
///
/// As [`kernel_8x8_f64_zmm`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn kernel_8x8_f64_zmm_fma(
    kc: usize,
    ap: *const f64,
    bp: *const f64,
    c: *mut f64,
    ldc: usize,
) {
    use std::arch::x86_64::*;
    let mut acc = [_mm512_setzero_pd(); MR_ZMM];
    for (r, row) in acc.iter_mut().enumerate() {
        *row = _mm512_loadu_pd(c.add(r * ldc));
    }
    for kk in 0..kc {
        let b = _mm512_loadu_pd(bp.add(kk * NR_F64));
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_pd(*ap.add(kk * MR_ZMM + r));
            *row = _mm512_fmadd_pd(av, b, *row);
        }
    }
    for (r, row) in acc.iter().enumerate() {
        _mm512_storeu_pd(c.add(r * ldc), *row);
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

    /// Every dot-mode tile — the portable one, and AVX and AVX-512 (every
    /// height) where the host has them — driven directly, against the
    /// scalar row-dot written out: sum from `+0.0` in ascending `k`, added
    /// to the `beta·C` seed once. Ragged and full
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
                #[cfg(target_arch = "x86_64")]
                if cpu_features().avx512f {
                    let c = run_tile(Tile::Zmm, true, (m, n, k), alpha, &a, &src, 1.0, &base);
                    tiles.push(("avx-512", c));
                }
                for (tile, c) in tiles {
                    let case =
                        format!("{tile} dot tile vs the row-dot at {m}x{n}x{k} hostile={hostile}");
                    assert_same_bits(&want, &c, &case);
                }
            }
        }
    }

    /// One tile through the driver as the entry points run it (a dot packs
    /// its whole `k` as one block).
    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    fn run_tile<S: PanelSource>(
        tile: Tile,
        dot: bool,
        (m, n, k): (usize, usize, usize),
        alpha: f64,
        a: &[f64],
        b: &S,
        beta: f64,
        seed: &[f64],
    ) -> Vec<f64> {
        let shape = (m, n, k, if dot { k.max(1) } else { KC });
        macro_rules! run {
            ($mr:expr, $nr:expr, $kernel:expr) => {
                drive::<{ $mr }, { $nr }, _>($kernel, shape, alpha, a, b, beta, seed)
            };
        }
        match (tile, dot) {
            (Tile::Portable, false) => run!(MR_SSE, NR_SSE, kernel_4x4_f64_portable::<false>),
            (Tile::Portable, true) => run!(MR_SSE, NR_SSE, kernel_4x4_f64_portable::<true>),
            (Tile::Avx, false) => run!(MR_AVX, NR_F64, kernel_4x8_f64_avx::<false>),
            (Tile::Avx, true) => run!(MR_AVX, NR_F64, kernel_4x8_f64_avx::<true>),
            (Tile::Fma, false) => run!(MR_FMA, NR_F64, kernel_6x8_f64_fma),
            (Tile::Zmm, false) => run!(MR_ZMM, NR_F64, kernel_8x8_f64_zmm::<false>),
            (Tile::Zmm, true) => run!(MR_ZMM, NR_F64, kernel_8x8_f64_zmm::<true>),
            (Tile::ZmmFma, false) => run!(MR_ZMM, NR_F64, kernel_8x8_f64_zmm_fma),
            other => unreachable!("no tile {other:?}"),
        }
    }

    /// Every tile of one tier gives the same bits through the same driver
    /// on the same operands: the AVX-512 FMA tile against the `6×8` one, and
    /// the AVX-512, `4×8` AVX and portable `4×4` multiply-then-add tiles
    /// against each other in chain and dot mode. Each tile the host can
    /// execute runs directly, so an AVX-512 host still checks its AVX2
    /// tiles. `m` and `n` cover the residues of every tile height and
    /// width, `k` is 0, 1, a short dot, one short of the 256-deep block and
    /// both sides of it (chain mode cuts it, dot mode never does, at 256
    /// and at 512); A and B hold NaN, `±∞` and `±0`, the seed
    /// is hostile values (a stale NaN among them) with `beta` 0, 0.5 or 1,
    /// or all `-0.0` with `beta` 0 or 1; `alpha` is −0.75.
    /// `dot_mode_tiles_are_bitwise_vs_the_scalar_row_dot` and
    /// `portable_panel_path_is_bitwise_vs_blocked` tie the tiles to the
    /// scalar loops; on a host without AVX2 the portable tile is the only
    /// one.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_tile_of_a_tier_gives_the_same_bits() {
        let f = cpu_features();
        if !f.avx2 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x9027);
        let alpha = -0.75;
        for k in [0, 1, 16, 255, 256, 257, 600] {
            for m in [1, 2, 3, 4, 5, 6, 7, 8, 13, 16, 24, 97] {
                for n in [1, 2, 3, 4, 5, 6, 7, 8, 9, 33] {
                    let mut a = random_mat(&mut rng, m * k);
                    let mut b = random_mat(&mut rng, k * n);
                    let mut hostile = random_mat(&mut rng, m * n);
                    for buf in [&mut a, &mut b, &mut hostile] {
                        salt_hostile(&mut rng, buf);
                    }
                    let src = RowMajor { b: &b, n };
                    let negzero = vec![-0.0; m * n];
                    let seeds = [
                        (&hostile, 0.0),
                        (&hostile, 0.5),
                        (&hostile, 1.0),
                        (&negzero, 0.0),
                        (&negzero, 1.0),
                    ];
                    for (seed, beta) in seeds {
                        let run =
                            |tile, dot| run_tile(tile, dot, (m, n, k), alpha, &a, &src, beta, seed);
                        let check = |want: &[f64], tile, dot| {
                            let case = format!("{tile:?} at {m}x{n}x{k} beta={beta} dot={dot}");
                            assert_same_bits(want, &run(tile, dot), &case);
                        };
                        if f.fma && f.avx512f {
                            check(&run(Tile::Fma, false), Tile::ZmmFma, false);
                        }
                        for dot in [false, true] {
                            let want = run(Tile::Portable, dot);
                            check(&want, Tile::Avx, dot);
                            if f.avx512f {
                                check(&want, Tile::Zmm, dot);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Each entry point runs the tile its host selects, so a dispatch that
    /// falls back to a narrower tile of the same tier (same bits) cannot
    /// pass: on an AVX-512 host a product of 8 rows or more runs an `8×8`
    /// 512-bit tile and one of fewer a 256-bit tile; without AVX2 every product
    /// runs the portable tile, except that `gemm_transa` runs its scalar
    /// loop where no f64 vector path is on (forced scalar).
    #[test]
    fn each_product_runs_the_tile_its_host_selects() {
        let f = cpu_features();
        let avx2 = f.simd_f64() && f.avx2;
        let wide = avx2 && f.avx512f;
        let bit = |t: Tile| 1u32 << t as u32;
        let mut rng = StdRng::seed_from_u64(0x7113);
        for m in [4, 16] {
            let (n, k) = (64, 64);
            let a = random_mat(&mut rng, m * k);
            let b = random_mat(&mut rng, k * n);
            let mut c = vec![0.0; m * n];
            let src = RowMajor { b: &b, n };
            take_tiles_run();
            crate::kernels::gemm_transa(m, n, k, 1.0, &a, &b, 0.0, &mut c);
            let want = match (f.simd_f64(), avx2, wide && m >= 8) {
                (false, ..) => 0,
                (true, false, _) => bit(Tile::Portable),
                (true, true, false) => bit(Tile::Avx),
                (true, true, true) => bit(Tile::Zmm),
            };
            assert_eq!(take_tiles_run(), want, "gemm_transa, {m} rows");
            for (tier_n, dot) in [(n, true), (n, false), (1, true), (1, false)] {
                crate::kernels::gemm_panel_source(m, n, k, tier_n, dot, 1.0, &a, &src, 0.0, &mut c);
                let fused = simd_f64_eligible(m, tier_n, k);
                let want = match (avx2, wide && m >= 8, fused) {
                    (false, ..) => bit(Tile::Portable),
                    (true, false, true) => bit(Tile::Fma),
                    (true, false, false) => bit(Tile::Avx),
                    (true, true, true) => bit(Tile::ZmmFma),
                    (true, true, false) => bit(Tile::Zmm),
                };
                assert_eq!(
                    take_tiles_run(),
                    want,
                    "panel source, {m} rows, tier_n {tier_n}"
                );
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
        // The name keys the goldens per rounding tier: the AVX-512 tiles
        // compute the AVX2+FMA tier's bits, so such a host must not get a
        // name of its own (its golden checks would record, not compare).
        if f.avx512f && !f.forced_scalar {
            assert_eq!(f.isa_name(), "avx2+fma");
        }
        assert_eq!(isa_name(), f.isa_name());
    }
}
