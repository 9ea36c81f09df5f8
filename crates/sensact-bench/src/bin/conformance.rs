//! Differential conformance harness: every optimized kernel vs. its
//! reference, continuously.
//!
//! PR 1 established the guarantees (GEMM naive/blocked/parallel and the
//! raycast trio bitwise identical; conv/deconv im2col vs. gather-loop
//! ≤ 1e-12) and PR 3 added bit-exact JSONL export; this bin re-checks all of
//! them over seeded sweeps on every CI run, reports the max ULP divergence
//! per kernel pair, and fails (non-zero exit) on any violated contract — the
//! regression oracle every future perf PR runs against.
//!
//! The matrix, tiered by precision mode:
//! - `gemm_blocked`/`gemm_parallel` vs. `gemm_naive` over shape/alpha/beta
//!   sweeps — **bitwise** (ascending-k contract)
//! - `gemm` (dispatcher)/`gemm_transb` vs. `gemm_naive` —
//!   per-element error ratio against the analytic FMA forward-error bound
//!   `2·γ_{k+2}·(|αA|·|B|)` ≤ 1; collapses to bitwise (ratio 0) on SSE2,
//!   scalar, and `SENSACT_FORCE_SCALAR=1` hosts
//! - `gemm_transa`/`matvec_into` vs. `gemm_naive` on explicitly transposed
//!   operands, `beta = 0` — **bitwise**
//! - `Conv3d::forward`/`Deconv3d::forward` vs. `forward_reference` —
//!   max |Δ| ≤ 1e-12 (im2col reorders additions), ULP reported
//! - `gemm_transb_gathered` (the kernel batched serving runs) vs. per-item
//!   `gemm_transb` over seeded shapes *including ragged tail batches* —
//!   **bitwise** where it takes the wide path (the FMA tier from 2¹⁴
//!   multiply-adds per item, the bitwise dot tier below — the served
//!   `4 × 64 × 27` lidar conv), output bit-untouched where it declines (a
//!   batch of one, a small item with `k > 256`, every shape under
//!   `SENSACT_FORCE_SCALAR`)
//! - `Conv3d::forward_batch` vs. the per-row forward — **bitwise** for
//!   every batch size
//! - `Lidar::scan`/`scan_serial` vs. `scan_reference` — **bitwise**
//! - fake-quantize grid invariants (on-grid, idempotent, half-step error
//!   bound, poisoned-buffer saturation) over seeded buffers
//! - JSONL export round-trips (span/tick, hostile floats, all precision
//!   modes) — **bitwise**
//! - record → serialize → parse → replay of a faulty 1k-tick loop —
//!   **bitwise** per tick (`--smoke`: 200 ticks)
//! - the same round-trip for a budget-pressured mixed-precision loop that
//!   must visit all three precision modes and replay its exact schedule
//!
//! Writes `BENCH_conformance.json` (tagged with the host ISA) at the repo
//! root in full mode only, so CI smoke runs don't clobber the committed
//! record. Run with `--smoke` (or `SENSACT_QUICK=1`) for the small CI matrix.

use sensact_core::export::{parse_span, parse_tick, span_to_json, tick_to_json};
use sensact_core::replay::Recording;
use sensact_core::stage::{AlwaysTrust, FnController, FnPerceptor, FnSensor, StageContext, Trust};
use sensact_core::telemetry::TickRecord;
use sensact_core::trace::{Span, StageBreakdown, StageId};
use sensact_core::{
    EnergyBudget, FallibleLoop, FaultInjector, FaultProfile, Precision as RunPrecision,
    PrecisionPolicy, RecoveryPolicy, Reliable, WithFallback,
};
use sensact_lidar::raycast::{Lidar, LidarConfig};
use sensact_lidar::scene::SceneGenerator;
use sensact_math::kernels;
use sensact_math::rng::StdRng;
use sensact_nn::conv::{Conv3d, Deconv3d, Dims3};
use sensact_nn::init::Initializer;
use sensact_nn::layers::Layer;
use sensact_nn::quant::{fake_quantize, try_fake_quantize, Precision, QuantError};
use sensact_nn::Tensor;

/// Map a float to an order-preserving integer so ULP distance is a
/// subtraction: negative floats flip to descending-from-zero, positives
/// shift above.
fn ulp_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// ULP distance between two floats; 0 iff bitwise identical, `u64::MAX` when
/// exactly one side is NaN.
fn ulp_diff(a: f64, b: f64) -> u64 {
    if a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()) {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    ulp_key(a).abs_diff(ulp_key(b))
}

fn max_ulp(a: &[f64], b: &[f64]) -> u64 {
    assert_eq!(a.len(), b.len(), "conformance: length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| ulp_diff(x, y))
        .fold(0, u64::max)
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// One kernel-pair verdict of the matrix.
struct Pair {
    name: &'static str,
    cases: usize,
    max_ulp: u64,
    max_abs: f64,
    /// Allowed max |Δ|; 0.0 means the pair must be bitwise identical.
    tolerance: f64,
    pass: bool,
}

impl Pair {
    fn check(name: &'static str, cases: usize, max_ulp: u64, max_abs: f64, tolerance: f64) -> Self {
        let pass = if tolerance == 0.0 {
            max_ulp == 0
        } else {
            max_abs <= tolerance
        };
        Pair {
            name,
            cases,
            max_ulp,
            max_abs,
            tolerance,
            pass,
        }
    }
}

/// Per-element forward-error bound for the FMA microkernel versus the naive
/// ascending-k kernel: `2·γ_{k+2}·(|αA|·|B|) + 2ε·|β·C₀|`. The `1e-300`
/// floor keeps an exact-zero element from turning the ratio into `0/0`.
#[allow(clippy::too_many_arguments)] // mirrors the GEMM signature it bounds
fn fma_bound(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c0: &[f64],
) -> Vec<f64> {
    let abs_a: Vec<f64> = a.iter().map(|x| (alpha * x).abs()).collect();
    let abs_b: Vec<f64> = b.iter().map(|x| x.abs()).collect();
    let mut bound = vec![0.0; m * n];
    kernels::gemm_naive(m, n, k, 1.0, &abs_a, &abs_b, 0.0, &mut bound);
    let gamma = 2.0 * (k as f64 + 2.0) * f64::EPSILON;
    for (i, x) in bound.iter_mut().enumerate() {
        let beta_term = if beta == 0.0 {
            0.0
        } else {
            2.0 * f64::EPSILON * (beta * c0[i]).abs()
        };
        *x = *x * gamma + beta_term + 1e-300;
    }
    bound
}

/// Largest per-element `|reference - candidate| / bound`; ≤ 1 means the
/// candidate conforms to its analytic tier.
fn max_ratio(reference: &[f64], candidate: &[f64], bound: &[f64]) -> f64 {
    reference
        .iter()
        .zip(candidate)
        .zip(bound)
        .map(|((&r, &c), &b)| (r - c).abs() / b)
        .fold(0.0, f64::max)
}

/// `gemm_transa` against `gemm_naive` on the explicit transpose, at
/// `beta = 0` (stale contents must be ignored) and `beta = 1` (`c0` is the
/// accumulator seed): worst `(ulp, abs)` difference, both contractually 0.
fn transa_vs_naive(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    c0: &[f64],
) -> (u64, f64) {
    let mut at = vec![0.0; m * k];
    kernels::transpose_into(m, k, a, &mut at);
    let (mut ulp, mut abs) = (0u64, 0.0f64);
    for beta in [0.0, 1.0] {
        let mut c_ref = c0.to_vec();
        kernels::gemm_naive(m, n, k, alpha, a, b, beta, &mut c_ref);
        let mut c = if beta == 0.0 {
            vec![f64::NAN; m * n]
        } else {
            c0.to_vec()
        };
        kernels::gemm_transa(m, n, k, alpha, &at, b, beta, &mut c);
        ulp = ulp.max(max_ulp(&c_ref, &c));
        abs = abs.max(max_abs_diff(&c_ref, &c));
    }
    (ulp, abs)
}

fn gemm_pairs(smoke: bool, pairs: &mut Vec<Pair>) {
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(5, 7, 11), (16, 16, 16), (24, 1, 32)]
    } else {
        // The last shape crosses PAR_MIN_OPS so gemm_parallel genuinely
        // bands across threads and the dispatcher takes the parallel path.
        &[
            (5, 7, 11),
            (16, 16, 16),
            (24, 1, 32),
            (64, 48, 112),
            (160, 160, 96),
        ]
    };
    let params: &[(f64, f64)] = &[(1.0, 0.0), (0.5, 0.0), (-1.25, 0.75), (1.0, 1.0)];
    let mut rng = StdRng::seed_from_u64(0xC0F0_0001);
    let (mut duo_ulp, mut duo_abs, mut duo_cases) = (0u64, 0.0f64, 0usize);
    let (mut simd_ulp, mut simd_ratio, mut simd_cases) = (0u64, 0.0f64, 0usize);
    let (mut trans_ulp, mut trans_abs, mut trans_cases) = (0u64, 0.0f64, 0usize);
    let (mut tb_ulp, mut tb_ratio, mut tb_cases) = (0u64, 0.0f64, 0usize);
    for &(m, n, k) in shapes {
        let a: Vec<f64> = (0..m * k)
            .map(|_| rng.random::<f64>() * 2.0 - 1.0)
            .collect();
        let b: Vec<f64> = (0..k * n)
            .map(|_| rng.random::<f64>() * 2.0 - 1.0)
            .collect();
        let c0: Vec<f64> = (0..m * n)
            .map(|_| rng.random::<f64>() * 2.0 - 1.0)
            .collect();
        for &(alpha, beta) in params {
            let mut c_ref = c0.clone();
            kernels::gemm_naive(m, n, k, alpha, &a, &b, beta, &mut c_ref);
            // Scalar tier: the cache-blocked and row-banded kernels keep the
            // ascending-k contract, so they stay bitwise.
            for gemm in [kernels::gemm_blocked, kernels::gemm_parallel] {
                let mut c = c0.clone();
                gemm(m, n, k, alpha, &a, &b, beta, &mut c);
                duo_ulp = duo_ulp.max(max_ulp(&c_ref, &c));
                duo_abs = duo_abs.max(max_abs_diff(&c_ref, &c));
                duo_cases += 1;
            }
            // SIMD tier: the dispatcher may take the FMA microkernel, which
            // rounds once per step — checked against the per-element
            // analytic bound instead of bitwise.
            let bound = fma_bound(m, n, k, alpha, &a, &b, beta, &c0);
            let mut c = c0.clone();
            kernels::gemm(m, n, k, alpha, &a, &b, beta, &mut c);
            simd_ulp = simd_ulp.max(max_ulp(&c_ref, &c));
            simd_ratio = simd_ratio.max(max_ratio(&c_ref, &c, &bound));
            simd_cases += 1;
        }

        // Transposed-B layout and matvec, beta = 0 (they fold beta into a
        // different accumulation order, so only the overwrite case carries
        // their contract).
        let alpha = 1.5;
        let mut c_ref = vec![0.0; m * n];
        kernels::gemm_naive(m, n, k, alpha, &a, &b, 0.0, &mut c_ref);

        // transb dispatches to the SIMD microkernel too: FMA-bound tier.
        let bound = fma_bound(m, n, k, alpha, &a, &b, 0.0, &c0);
        let mut bt = vec![0.0; k * n];
        kernels::transpose_into(k, n, &b, &mut bt);
        let mut c = vec![1.0; m * n]; // stale contents must be ignored
        kernels::gemm_transb(m, n, k, alpha, &a, &bt, 0.0, &mut c);
        tb_ulp = tb_ulp.max(max_ulp(&c_ref, &c));
        tb_ratio = tb_ratio.max(max_ratio(&c_ref, &c, &bound));
        tb_cases += 1;

        // transa stays on the bitwise tier on every ISA, accumulating too.
        let (ulp, abs) = transa_vs_naive(m, n, k, alpha, &a, &b, &c0);
        trans_ulp = trans_ulp.max(ulp);
        trans_abs = trans_abs.max(abs);

        let x = &b[..k]; // first column layout: use a dedicated n=1 product
        let mut y_ref = vec![0.0; m];
        kernels::gemm_naive(m, 1, k, 1.0, &a, x, 0.0, &mut y_ref);
        let mut y = vec![f64::NAN; m]; // matvec fully overwrites
        kernels::matvec_into(m, k, &a, x, &mut y);
        trans_ulp = trans_ulp.max(max_ulp(&y_ref, &y));
        trans_abs = trans_abs.max(max_abs_diff(&y_ref, &y));
        trans_cases += 3;
    }
    // The two R-MAE deconv products (`RmaeConfig::full`): the shapes whose
    // bits every edge-loop trace hash and benchmark golden carries.
    for (m, n, k) in [(1080, 216, 16), (1080, 64, 8)] {
        let mut mat = |len: usize| -> Vec<f64> {
            (0..len).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect()
        };
        let (a, b, c0) = (mat(m * k), mat(k * n), mat(m * n));
        let (ulp, abs) = transa_vs_naive(m, n, k, 1.0, &a, &b, &c0);
        trans_ulp = trans_ulp.max(ulp);
        trans_abs = trans_abs.max(abs);
        trans_cases += 2;
    }
    pairs.push(Pair::check(
        "gemm_blocked_parallel_vs_naive",
        duo_cases,
        duo_ulp,
        duo_abs,
        0.0,
    ));
    pairs.push(Pair::check(
        "gemm_dispatch_fma_error_ratio",
        simd_cases,
        simd_ulp,
        simd_ratio,
        1.0,
    ));
    pairs.push(Pair::check(
        "gemm_transb_fma_error_ratio",
        tb_cases,
        tb_ulp,
        tb_ratio,
        1.0,
    ));
    pairs.push(Pair::check(
        "gemm_transa_matvec_vs_naive",
        trans_cases,
        trans_ulp,
        trans_abs,
        0.0,
    ));
}

fn conv_pairs(smoke: bool, pairs: &mut Vec<Pair>) {
    const TOL: f64 = 1e-12;
    let configs: &[(usize, usize, usize, usize, usize, usize)] = if smoke {
        // (cin, cout, kernel, stride, pad, edge)
        &[(2, 3, 3, 1, 1, 5)]
    } else {
        &[(2, 3, 3, 1, 1, 5), (3, 4, 3, 2, 1, 7), (1, 2, 2, 1, 0, 6)]
    };
    let mut rng = StdRng::seed_from_u64(0xC0F0_0002);
    let (mut c_ulp, mut c_abs, mut c_cases) = (0u64, 0.0f64, 0usize);
    let (mut d_ulp, mut d_abs, mut d_cases) = (0u64, 0.0f64, 0usize);
    for &(cin, cout, kernel, stride, pad, edge) in configs {
        let dims = Dims3::new(edge, edge, edge);
        let mut init = Initializer::new(11);
        let mut conv = Conv3d::new(cin, cout, kernel, stride, pad, dims, &mut init);
        let xlen = cin * dims.volume();
        let x: Vec<f64> = (0..2 * xlen).map(|_| rng.random::<f64>() - 0.5).collect();
        let input = Tensor::from_vec(vec![2, xlen], x);
        let reference = conv.forward_reference(&input);
        let fast = conv.forward(&input, false);
        c_ulp = c_ulp.max(max_ulp(reference.as_slice(), fast.as_slice()));
        c_abs = c_abs.max(max_abs_diff(reference.as_slice(), fast.as_slice()));
        c_cases += 1;

        let mut init = Initializer::new(13);
        let mut deconv = Deconv3d::new(cin, cout, kernel, stride, pad, dims, &mut init);
        let reference = deconv.forward_reference(&input);
        let fast = deconv.forward(&input, false);
        d_ulp = d_ulp.max(max_ulp(reference.as_slice(), fast.as_slice()));
        d_abs = d_abs.max(max_abs_diff(reference.as_slice(), fast.as_slice()));
        d_cases += 1;
    }
    pairs.push(Pair::check(
        "conv3d_im2col_vs_reference",
        c_cases,
        c_ulp,
        c_abs,
        TOL,
    ));
    pairs.push(Pair::check(
        "deconv3d_col2im_vs_reference",
        d_cases,
        d_ulp,
        d_abs,
        TOL,
    ));
}

/// `gemm_transb_gathered` — the kernel batched serving runs — vs. per-item
/// `gemm_transb`: the serving front-end's cross-loop batching contract. The
/// rounding tier is pinned on the PER-ITEM shape: where the wide call runs
/// — FMA tier or, below 2¹⁴ multiply-adds per item, the bitwise dot tier —
/// item `t`'s columns of the gathered panel must be bitwise what the
/// per-item kernel produces from the same seed; where it declines
/// (`batch < 2`, an empty shape, a small item deeper than one 256-step `k`
/// block, everything under `SENSACT_FORCE_SCALAR`) the panel must come back
/// bit-untouched for the caller's per-item loop.
fn gathered_gemm_pair(smoke: bool, pairs: &mut Vec<Pair>) {
    let batches: &[usize] = if smoke { &[1, 3] } else { &[1, 2, 3, 5, 8] };
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(4, 4, 8), (8, 16, 27), (4, 64, 27), (2, 3, 257)]
    } else {
        // Both tiers (16·64·27 is the one FMA shape; 4·64·27 is the served
        // lidar conv on the dot tier) and both declining shapes: k = 0, and
        // a small item whose dot would span two k blocks.
        &[
            (4, 4, 8),
            (3, 5, 7),
            (8, 16, 27),
            (4, 64, 27),
            (16, 64, 27),
            (2, 3, 257),
            (4, 4, 0),
        ]
    };
    let params: &[(f64, f64)] = &[(1.0, 0.0), (1.0, 1.0), (-0.5, 0.75)];
    let mut rng = StdRng::seed_from_u64(0xC0F0_0005);
    let (mut ulp, mut abs, mut cases) = (0u64, 0.0f64, 0usize);
    for &batch in batches {
        for &(m, n, k) in shapes {
            let mut rand = |len: usize| -> Vec<f64> {
                (0..len).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect()
            };
            let nn = batch * n;
            for &(alpha, beta) in params {
                // Shared A weights against per-item transposed panels (the
                // im2col layout); `c0` is already gathered `[m × batch·n]`.
                let a = rand(m * k);
                let bt_stack = rand(batch * n * k);
                let c0 = rand(m * nn);
                let mut big = c0.clone();
                let wide = kernels::gemm_transb_gathered(
                    batch, m, n, k, alpha, &a, &bt_stack, beta, &mut big,
                );
                let mut want = c0;
                if wide {
                    for t in 0..batch {
                        let mut c_t: Vec<f64> = (0..m)
                            .flat_map(|i| want[i * nn + t * n..][..n].iter().copied())
                            .collect();
                        let bt = &bt_stack[t * n * k..(t + 1) * n * k];
                        kernels::gemm_transb(m, n, k, alpha, &a, bt, beta, &mut c_t);
                        for (i, row) in c_t.chunks_exact(n).enumerate() {
                            want[i * nn + t * n..][..n].copy_from_slice(row);
                        }
                    }
                }
                ulp = ulp.max(max_ulp(&want, &big));
                abs = abs.max(max_abs_diff(&want, &big));
                cases += 1;
            }
        }
    }
    pairs.push(Pair::check(
        "gemm_transb_gathered_vs_per_item",
        cases,
        ulp,
        abs,
        0.0,
    ));
}

/// Batched conv forward vs. the per-row forward: bitwise for every batch
/// size (ragged tails included).
fn batched_conv_pair(smoke: bool, pairs: &mut Vec<Pair>) {
    // (cin, cout, kernel, stride, pad, edge); first entry is the serving
    // front-end's LidarConv signature.
    let configs: &[(usize, usize, usize, usize, usize, usize)] = if smoke {
        &[(1, 4, 3, 2, 1, 8)]
    } else {
        &[(1, 4, 3, 2, 1, 8), (2, 3, 3, 1, 1, 5)]
    };
    let batches: &[usize] = if smoke { &[1, 3] } else { &[1, 2, 3, 5] };
    let mut rng = StdRng::seed_from_u64(0xC0F0_0006);
    let (mut f64_ulp, mut f64_abs, mut f64_cases) = (0u64, 0.0f64, 0usize);
    for &(cin, cout, kernel, stride, pad, edge) in configs {
        let dims = Dims3::new(edge, edge, edge);
        let mut init = Initializer::new(0x5E2E);
        let mut conv = Conv3d::new(cin, cout, kernel, stride, pad, dims, &mut init);
        let in_feat = conv.in_features();
        let out_feat = conv.out_features();
        for &batch in batches {
            let rows: Vec<Vec<f64>> = (0..batch)
                .map(|_| (0..in_feat).map(|_| rng.random::<f64>() - 0.5).collect())
                .collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            // Per-row reference (the canonical per-loop path).
            let mut per_row = vec![0.0; batch * out_feat];
            for (t, row) in rows.iter().enumerate() {
                let input = Tensor::from_vec(vec![1, in_feat], row.to_vec());
                let out = conv.forward(&input, false);
                per_row[t * out_feat..(t + 1) * out_feat].copy_from_slice(out.as_slice());
            }
            let mut batched = vec![0.0; batch * out_feat];
            conv.forward_batch(&refs, &mut batched);
            f64_ulp = f64_ulp.max(max_ulp(&per_row, &batched));
            f64_abs = f64_abs.max(max_abs_diff(&per_row, &batched));
            f64_cases += 1;
        }
    }
    pairs.push(Pair::check(
        "conv3d_forward_batch_f64_vs_per_row",
        f64_cases,
        f64_ulp,
        f64_abs,
        0.0,
    ));
}

fn raycast_pair(smoke: bool, pairs: &mut Vec<Pair>) {
    let seeds: &[u64] = if smoke { &[1] } else { &[1, 2, 3] };
    let config = if smoke {
        LidarConfig {
            beams: 16,
            azimuth_steps: 128,
            ..LidarConfig::default()
        }
    } else {
        LidarConfig::default()
    };
    let lidar = Lidar::new(config);
    let (mut ulp, mut abs, mut cases) = (0u64, 0.0f64, 0usize);
    let mut identical = true;
    for &seed in seeds {
        let scene = SceneGenerator::new(seed).generate();
        let reference = lidar.scan_reference(&scene);
        for cloud in [lidar.scan_serial(&scene), lidar.scan(&scene)] {
            identical &= cloud == reference;
            if cloud.len() == reference.len() {
                for (p, q) in reference.points().iter().zip(cloud.points()) {
                    for (a, b) in [(p.x, q.x), (p.y, q.y), (p.z, q.z), (p.range, q.range)] {
                        ulp = ulp.max(ulp_diff(a, b));
                        abs = abs.max((a - b).abs());
                    }
                    identical &= (p.beam, p.azimuth) == (q.beam, q.azimuth);
                }
            } else {
                ulp = u64::MAX;
            }
            cases += 1;
        }
    }
    if !identical {
        ulp = ulp.max(1);
    }
    pairs.push(Pair::check(
        "raycast_bucketed_parallel_vs_naive",
        cases,
        ulp,
        abs,
        0.0,
    ));
}

fn quant_pair(smoke: bool, pairs: &mut Vec<Pair>) {
    let rounds = if smoke { 16 } else { 128 };
    let mut rng = StdRng::seed_from_u64(0xC0F0_0003);
    let mut violations = 0usize;
    let mut cases = 0usize;
    for round in 0..rounds {
        let len = rng.random_range(1..96usize);
        let mut buf: Vec<f64> = (0..len).map(|_| rng.random_range(-8.0..8.0)).collect();
        // Every third round, poison the buffer: quantization must saturate,
        // never emit NaN, and the strict API must reject it.
        let poisoned = round % 3 == 2;
        if poisoned {
            let i = rng.random_range(0..len);
            buf[i] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(round / 3) % 3];
            let first = buf.iter().position(|v| !v.is_finite()).unwrap();
            let mut strict = buf.clone();
            if try_fake_quantize(&mut strict, Precision::Int8)
                != Err(QuantError::NonFinite { index: first })
            {
                violations += 1;
            }
        }
        for precision in [Precision::Int2, Precision::Int8, Precision::Int16] {
            let mut q = buf.clone();
            let report = fake_quantize(&mut q, precision);
            let finite = q.iter().all(|v| v.is_finite())
                && report.scale.is_finite()
                && report.mse.is_finite();
            let on_grid = report.scale == 0.0
                || q.iter().all(|v| {
                    let g = v / report.scale;
                    (g - g.round()).abs() < 1e-9
                });
            let half_step = poisoned
                || buf
                    .iter()
                    .zip(&q)
                    .all(|(o, v)| (o - v).abs() <= report.scale / 2.0 + 1e-12);
            let mut q2 = q.clone();
            let second = fake_quantize(&mut q2, precision);
            let idempotent = q2 == q && second.mse < 1e-20;
            if !(finite && on_grid && half_step && idempotent) {
                violations += 1;
            }
            cases += 1;
        }
    }
    let ulp = if violations == 0 { 0 } else { u64::MAX };
    pairs.push(Pair::check(
        "fake_quantize_grid_invariants",
        cases,
        ulp,
        violations as f64,
        0.0,
    ));
}

fn hostile_floats() -> Vec<f64> {
    vec![
        0.1 + 0.2,
        1.0 / 3.0,
        -0.0,
        f64::MIN_POSITIVE,
        5e-324, // smallest subnormal
        f64::MAX,
        -1.7e308,
        std::f64::consts::PI,
        1e-17,
    ]
}

fn export_pair(pairs: &mut Vec<Pair>) {
    let (mut ulp, mut cases) = (0u64, 0usize);
    let floats = hostile_floats();
    for (i, &v) in floats.iter().enumerate() {
        let span = Span {
            tick: i as u64,
            stage: StageId::ALL[i % 5],
            start_s: v,
            end_s: v * 2.0,
            energy_j: v,
            latency_s: v.abs(),
            ok: i % 2 == 0,
        };
        match parse_span(&span_to_json(&span)) {
            Some(rt) => {
                for (a, b) in [
                    (span.start_s, rt.start_s),
                    (span.end_s, rt.end_s),
                    (span.energy_j, rt.energy_j),
                    (span.latency_s, rt.latency_s),
                ] {
                    ulp = ulp.max(ulp_diff(a, b));
                }
                if (rt.tick, rt.stage, rt.ok) != (span.tick, span.stage, span.ok) {
                    ulp = u64::MAX;
                }
            }
            None => ulp = u64::MAX,
        }

        let mut stages = StageBreakdown::new();
        for (si, stage) in StageId::ALL.into_iter().enumerate() {
            stages.add(stage, v * si as f64, v.abs() / (si + 1) as f64);
        }
        let rec = TickRecord {
            tick: i as u64,
            energy_j: v,
            latency_s: v.abs(),
            trust: match i % 3 {
                0 => Trust::Trusted,
                1 => Trust::Suspect(v.abs().min(1.0)),
                _ => Trust::Untrusted,
            },
            precision: RunPrecision::ALL[i % 3],
            stages,
        };
        match parse_tick(&tick_to_json(&rec)) {
            Some(rt) => {
                ulp = ulp.max(ulp_diff(rec.energy_j, rt.energy_j));
                ulp = ulp.max(ulp_diff(rec.latency_s, rt.latency_s));
                for stage in StageId::ALL {
                    let (a, b) = (rec.stages.get(stage), rt.stages.get(stage));
                    ulp = ulp.max(ulp_diff(a.energy_j, b.energy_j));
                    ulp = ulp.max(ulp_diff(a.latency_s, b.latency_s));
                }
                if rt.trust != rec.trust || rt.tick != rec.tick || rt.precision != rec.precision {
                    ulp = u64::MAX;
                }
            }
            None => ulp = u64::MAX,
        }
        cases += 2;
    }
    pairs.push(Pair::check("jsonl_export_round_trip", cases, ulp, 0.0, 0.0));
}

/// Build the canonical faulty loop of the replay conformance case. One
/// construction site so the recorded and replayed loops cannot drift apart.
#[allow(clippy::type_complexity)]
fn faulty_loop(
    seed: u64,
) -> FallibleLoop<
    FaultInjector<FnSensor<impl FnMut(&f64, &mut StageContext) -> f64>, f64>,
    Reliable<FnPerceptor<impl FnMut(&f64, &mut StageContext) -> f64>>,
    AlwaysTrust,
    WithFallback<FnController<impl FnMut(&f64, Trust, &mut StageContext) -> f64>, f64>,
    sensact_core::adapt::NoAdaptation,
    f64,
> {
    FallibleLoop::new(
        "conformance-replay",
        FaultInjector::new(
            FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                ctx.charge(2e-4, 1e-3);
                *e
            }),
            FaultProfile {
                dropout: 0.15,
                stuck: 0.05,
                latency_spike: 0.05,
                spike_latency_s: 0.05,
                nan: 0.05,
            },
            seed,
        ),
        Reliable(FnPerceptor::new(|r: &f64, _: &mut StageContext| *r)),
        AlwaysTrust,
        WithFallback::new(
            FnController::new(|f: &f64, _t: Trust, _: &mut StageContext| -0.4 * f),
            0.0,
        ),
    )
    .with_recovery(RecoveryPolicy {
        max_retries: 1,
        retry_energy_j: 5e-5,
        max_hold_ticks: 2,
        staleness_decay: 0.3,
        latency_budget_s: Some(0.01),
    })
}

fn replay_pair(smoke: bool, pairs: &mut Vec<Pair>) {
    let ticks = if smoke { 200 } else { 1000 };
    let seed = 77;
    let mut recorded = faulty_loop(seed);
    let mut env = 3.0f64;
    recorded.run(&mut env, ticks, |e, a| *e += a + 0.01);
    let recording = Recording::capture("conformance-replay", seed, recorded.telemetry());

    // Through the wire: serialize, parse, replay a fresh loop against it.
    let parsed = Recording::from_jsonl(&recording.to_jsonl());
    let mut ulp = if parsed == recording { 0 } else { u64::MAX };
    let mut env = 3.0f64;
    match faulty_loop(parsed.meta.seed).replay(&mut env, &parsed, |e, a| *e += a + 0.01) {
        Ok(verified) if verified == ticks as u64 => {}
        Ok(_) => ulp = u64::MAX,
        Err(d) => {
            eprintln!("replay diverged: {d}");
            ulp = u64::MAX;
        }
    }
    pairs.push(Pair::check(
        "record_replay_round_trip",
        ticks,
        ulp,
        0.0,
        0.0,
    ));
}

/// Record → serialize → replay a loop whose precision governor actually
/// switches modes under budget pressure. The replay must reproduce the
/// recorded precision schedule tick-for-tick (the diff includes the
/// per-tick precision field), and the run must visit all three modes —
/// otherwise the tier proves nothing.
fn mixed_precision_replay_pair(smoke: bool, pairs: &mut Vec<Pair>) {
    let ticks = if smoke { 200 } else { 1000 };
    let seed = 99;
    // Capacity sized so pressure sweeps 0 → ~0.8 over the run, crossing
    // both policy thresholds regardless of the tick count.
    let capacity_j = ticks as f64 * 2e-4 * 1.2;
    let build = |seed: u64| {
        faulty_loop(seed)
            .with_budget(EnergyBudget::new(capacity_j))
            .with_precision(PrecisionPolicy::adaptive(0.25, 0.6))
    };
    let mut recorded = build(seed);
    let mut env = 3.0f64;
    recorded.run(&mut env, ticks, |e, a| *e += a + 0.01);
    let modes_seen = RunPrecision::ALL
        .iter()
        .filter(|&&p| recorded.telemetry().precision_ticks(p) > 0)
        .count();
    let recording = Recording::capture("conformance-mixed-precision", seed, recorded.telemetry());

    let parsed = Recording::from_jsonl(&recording.to_jsonl());
    let mut ulp = if parsed == recording && modes_seen == 3 {
        0
    } else {
        u64::MAX
    };
    let mut env = 3.0f64;
    match build(parsed.meta.seed).replay(&mut env, &parsed, |e, a| *e += a + 0.01) {
        Ok(verified) if verified == ticks as u64 => {}
        Ok(_) => ulp = u64::MAX,
        Err(d) => {
            eprintln!("mixed-precision replay diverged: {d}");
            ulp = u64::MAX;
        }
    }
    pairs.push(Pair::check(
        "mixed_precision_record_replay",
        ticks,
        ulp,
        0.0,
        0.0,
    ));
}

fn main() {
    let smoke = sensact_bench::smoke();
    let mode = if smoke { "smoke" } else { "full" };
    println!("== conformance matrix ({mode}) ==");

    let isa = sensact_math::simd::isa_name();
    println!("host isa: {isa}");

    let mut pairs = Vec::new();
    gemm_pairs(smoke, &mut pairs);
    conv_pairs(smoke, &mut pairs);
    gathered_gemm_pair(smoke, &mut pairs);
    batched_conv_pair(smoke, &mut pairs);
    raycast_pair(smoke, &mut pairs);
    quant_pair(smoke, &mut pairs);
    export_pair(&mut pairs);
    replay_pair(smoke, &mut pairs);
    mixed_precision_replay_pair(smoke, &mut pairs);

    let mut json = format!("{{\n  \"mode\": \"{mode}\",\n  \"isa\": \"{isa}\",\n  \"pairs\": {{\n");
    for (i, p) in pairs.iter().enumerate() {
        let verdict = if p.pass { "pass" } else { "FAIL" };
        let requirement = if p.tolerance == 0.0 {
            "bitwise".to_string()
        } else {
            format!("|d| <= {:e}", p.tolerance)
        };
        println!(
            "{verdict}  {:<42} cases {:>4}  max_ulp {:>6}  max_abs {:9.3e}  ({requirement})",
            p.name,
            p.cases,
            if p.max_ulp == u64::MAX {
                "inf".to_string()
            } else {
                p.max_ulp.to_string()
            },
            p.max_abs,
        );
        let sep = if i + 1 == pairs.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{}\": {{\"cases\": {}, \"max_ulp\": {}, \"max_abs_diff\": {:e}, \"tolerance\": {:e}, \"pass\": {}}}{sep}\n",
            p.name,
            p.cases,
            if p.max_ulp == u64::MAX { u64::MAX } else { p.max_ulp },
            p.max_abs,
            p.tolerance,
            p.pass,
        ));
    }
    let all_pass = pairs.iter().all(|p| p.pass);
    json.push_str(&format!("  }},\n  \"pass\": {all_pass}\n}}\n"));

    if !smoke {
        sensact_bench::write_record("BENCH_conformance.json", &json);
    }

    if !all_pass {
        eprintln!("conformance: divergent kernel pairs detected");
        std::process::exit(1);
    }
    println!("conformance: all {} pairs conform", pairs.len());
}
