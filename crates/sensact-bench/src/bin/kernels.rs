//! Kernel micro-benchmarks: naive vs blocked vs parallel vs the dispatching
//! `gemm` (register-blocked SIMD where the host has it), im2col conv forward,
//! full raycast scan, and an end-to-end loop tick.
//!
//! Emits `BENCH_kernels.json` (tagged with the host ISA) in the working
//! directory so later PRs have a perf trajectory, and verifies on the way
//! that the fast paths agree with the reference kernels — the scalar GEMM
//! and raycast paths bitwise, the SIMD path within its analytic FMA bound.
//!
//! `--smoke` (or `--quick` / `SENSACT_QUICK=1`) shrinks the measurement
//! budget for CI; combine with `SENSACT_FORCE_SCALAR=1` to time the scalar
//! fallbacks on a SIMD host.

use sensact_bench::convbench;
use sensact_bench::harness::Harness;
use sensact_core::stage::{FnController, FnPerceptor, FnSensor, StageContext, Trust};
use sensact_core::LoopBuilder;
use sensact_lidar::raycast::{Lidar, LidarConfig};
use sensact_lidar::scene::SceneGenerator;
use sensact_math::kernels;
use sensact_math::rng::StdRng;
use sensact_nn::conv::{Conv3d, Dims3};
use sensact_nn::init::Initializer;
use sensact_nn::layers::Layer;
use sensact_nn::Tensor;
use std::hint::black_box;
use std::io::Write;

const GEMM_N: usize = 256;

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn main() {
    // `--smoke` is the CI spelling of quick mode: same shrunken budget.
    if std::env::args().any(|arg| arg == "--smoke") {
        std::env::set_var("SENSACT_QUICK", "1");
    }
    let isa = sensact_math::simd::isa_name();
    println!("host isa: {isa}");

    let mut rng = StdRng::seed_from_u64(0xBE7C_0001);
    let mut h = Harness::new("bench_kernels");

    // --- GEMM: naive vs cache-blocked vs parallel vs SIMD, 256^3 ---------
    let n = GEMM_N;
    let a: Vec<f64> = (0..n * n).map(|_| rng.random::<f64>() - 0.5).collect();
    let b: Vec<f64> = (0..n * n).map(|_| rng.random::<f64>() - 0.5).collect();
    let mut c_naive = vec![0.0; n * n];
    let mut c_blocked = vec![0.0; n * n];
    let mut c_parallel = vec![0.0; n * n];
    let mut c_simd = vec![0.0; n * n];
    kernels::gemm_naive(n, n, n, 1.0, &a, &b, 0.0, &mut c_naive);
    kernels::gemm_blocked(n, n, n, 1.0, &a, &b, 0.0, &mut c_blocked);
    kernels::gemm_parallel(n, n, n, 1.0, &a, &b, 0.0, &mut c_parallel);
    kernels::gemm(n, n, n, 1.0, &a, &b, 0.0, &mut c_simd);
    let gemm_diff = max_abs_diff(&c_naive, &c_blocked).max(max_abs_diff(&c_naive, &c_parallel));
    assert!(gemm_diff <= 1e-12, "GEMM kernels diverged: {gemm_diff:e}");
    // FMA rounds once per step: analytic bound 2·γ_{k+2}·max|c| for inputs
    // in [-0.5, 0.5] (|c| ≤ k/4), zero slack on scalar hosts.
    let simd_diff = max_abs_diff(&c_naive, &c_simd);
    let simd_tol = 2.0 * (n as f64 + 2.0) * f64::EPSILON * n as f64 / 4.0;
    assert!(
        simd_diff <= simd_tol,
        "SIMD GEMM out of bound: {simd_diff:e} > {simd_tol:e}"
    );

    h.bench_function("gemm_naive/256", |bch| {
        bch.iter(|| kernels::gemm_naive(n, n, n, 1.0, black_box(&a), &b, 0.0, &mut c_naive))
    });
    h.bench_function("gemm_blocked/256", |bch| {
        bch.iter(|| kernels::gemm_blocked(n, n, n, 1.0, black_box(&a), &b, 0.0, &mut c_blocked))
    });
    h.bench_function("gemm_parallel/256", |bch| {
        bch.iter(|| kernels::gemm_parallel(n, n, n, 1.0, black_box(&a), &b, 0.0, &mut c_parallel))
    });
    h.bench_function("gemm/256", |bch| {
        bch.iter(|| kernels::gemm(n, n, n, 1.0, black_box(&a), &b, 0.0, &mut c_simd))
    });

    // --- Conv3d forward: gather-loop reference vs im2col+GEMM ------------
    let mut init = Initializer::new(7);
    let mut conv = Conv3d::new(4, 8, 3, 1, 1, Dims3::new(10, 10, 10), &mut init);
    let xlen = 4 * 10 * 10 * 10;
    let x: Vec<f64> = (0..2 * xlen).map(|_| rng.random::<f64>() - 0.5).collect();
    let input = Tensor::from_vec(vec![2, xlen], x);
    let reference = conv.forward_reference(&input);
    let fast = conv.forward(&input, false);
    let conv_diff = max_abs_diff(reference.as_slice(), fast.as_slice());
    assert!(conv_diff <= 1e-12, "conv kernels diverged: {conv_diff:e}");

    h.bench_function("conv3d_forward_reference/4x8x10^3", |bch| {
        bch.iter(|| black_box(conv.forward_reference(black_box(&input))))
    });
    h.bench_function("conv3d_forward_im2col/4x8x10^3", |bch| {
        bch.iter(|| black_box(conv.forward(black_box(&input), false)))
    });

    // --- R-MAE conv stack: the shapes the closed loop spends its tick in --
    // (bitwise tier: `gemm_transa` and the deconv built on it must match
    // the naive kernel exactly; the conv forward is on the FMA tier.)
    let (tm, tn, tk) = (1080, 216, 16);
    let at: Vec<f64> = (0..tk * tm).map(|_| rng.random::<f64>() - 0.5).collect();
    let tb: Vec<f64> = (0..tk * tn).map(|_| rng.random::<f64>() - 0.5).collect();
    let mut ta = vec![0.0; tm * tk];
    kernels::transpose_into(tk, tm, &at, &mut ta);
    let mut tc_naive = vec![0.0; tm * tn];
    let mut tc = vec![f64::NAN; tm * tn];
    kernels::gemm_naive(tm, tn, tk, 1.0, &ta, &tb, 0.0, &mut tc_naive);
    kernels::gemm_transa(tm, tn, tk, 1.0, &at, &tb, 0.0, &mut tc);
    assert!(
        tc_naive
            .iter()
            .zip(&tc)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "gemm_transa is not bit-identical to the naive kernel"
    );
    h.bench_function("gemm_transa/1080x216x16", |bch| {
        bch.iter(|| kernels::gemm_transa(tm, tn, tk, 1.0, black_box(&at), &tb, 0.0, &mut tc))
    });
    let (mut conv2, x2) = convbench::rmae_conv2();
    let conv2_diff = max_abs_diff(
        conv2.forward_reference(&x2).as_slice(),
        conv2.forward(&x2, false).as_slice(),
    );
    assert!(
        conv2_diff <= 1e-12,
        "conv2 lowering diverged: {conv2_diff:e}"
    );
    h.bench_function("conv3d_forward/rmae_full_conv2", |bch| {
        bch.iter(|| black_box(conv2.forward(black_box(&x2), false)))
    });
    let (mut deconv1, xd) = convbench::rmae_deconv1();
    let deconv_diff = max_abs_diff(
        deconv1.forward_reference(&xd).as_slice(),
        deconv1.forward(&xd, false).as_slice(),
    );
    assert!(
        deconv_diff <= 1e-12,
        "deconv1 lowering diverged: {deconv_diff:e}"
    );
    h.bench_function("deconv3d_forward/rmae_full_deconv1", |bch| {
        bch.iter(|| black_box(deconv1.forward(black_box(&xd), false)))
    });
    // The gate's headline: lowered forward as a share of the scatter-loop
    // reference, paired so host load cancels out of the quotient.
    let (deconv_ref, deconv_low) = if sensact_bench::quick() {
        convbench::deconv_forward_headline(5, 2)
    } else {
        convbench::deconv_forward_headline(40, 4)
    };

    // --- Raycast: naive vs azimuth-bucketed vs parallel 64x512 scan ------
    let lidar = Lidar::new(LidarConfig::default());
    let scene = SceneGenerator::new(1).generate();
    let reference = lidar.scan_reference(&scene);
    assert_eq!(
        reference,
        lidar.scan_serial(&scene),
        "bucketed scan is not bit-identical"
    );
    assert_eq!(
        reference,
        lidar.scan(&scene),
        "parallel scan is not bit-identical"
    );

    h.bench_function("raycast_naive/64x512", |bch| {
        bch.iter(|| black_box(lidar.scan_reference(black_box(&scene))))
    });
    h.bench_function("raycast_bucketed/64x512", |bch| {
        bch.iter(|| black_box(lidar.scan_serial(black_box(&scene))))
    });
    h.bench_function("raycast_parallel/64x512", |bch| {
        bch.iter(|| black_box(lidar.scan(black_box(&scene))))
    });

    // --- End-to-end sensing-action loop tick -----------------------------
    let mut looop = LoopBuilder::new("kernels-bench").build(
        FnSensor::new(|e: &f64, ctx: &mut StageContext| {
            ctx.charge(1e-6, 1e-6);
            *e
        }),
        FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
        FnController::new(|f: &f64, _t: Trust, _: &mut StageContext| -0.5 * f),
    );
    h.bench_function("loop_tick/minimal", |bch| {
        bch.iter(|| black_box(looop.tick(black_box(&1.0))))
    });
    h.finish();

    // --- BENCH_kernels.json ----------------------------------------------
    let mean = |id: &str| -> f64 {
        h.results()
            .iter()
            .find(|(rid, _)| rid == id)
            .map(|(_, s)| s.mean_ns)
            .expect("benchmark id missing")
    };
    let gemm_naive = mean("gemm_naive/256");
    let gemm_blocked = mean("gemm_blocked/256");
    let gemm_parallel = mean("gemm_parallel/256");
    let gemm_simd = mean("gemm/256");
    let conv_ref = mean("conv3d_forward_reference/4x8x10^3");
    let conv_fast = mean("conv3d_forward_im2col/4x8x10^3");
    let transa = mean("gemm_transa/1080x216x16");
    let conv2_ns = mean("conv3d_forward/rmae_full_conv2");
    let deconv1_ns = mean("deconv3d_forward/rmae_full_deconv1");
    let ray_naive = mean("raycast_naive/64x512");
    let ray_bucketed = mean("raycast_bucketed/64x512");
    let ray_parallel = mean("raycast_parallel/64x512");
    let tick = mean("loop_tick/minimal");

    let json = format!(
        "{{\n  \
         \"isa\": \"{isa}\",\n  \
         \"gemm_256\": {{\n    \
           \"naive_ns\": {gemm_naive:.0},\n    \
           \"blocked_ns\": {gemm_blocked:.0},\n    \
           \"parallel_ns\": {gemm_parallel:.0},\n    \
           \"simd_ns\": {gemm_simd:.0},\n    \
           \"blocked_speedup\": {:.2},\n    \
           \"parallel_speedup\": {:.2},\n    \
           \"simd_speedup\": {:.2},\n    \
           \"max_abs_diff\": {gemm_diff:e},\n    \
           \"simd_max_abs_diff\": {simd_diff:e}\n  }},\n  \
         \"conv3d_forward\": {{\n    \
           \"reference_ns\": {conv_ref:.0},\n    \
           \"im2col_ns\": {conv_fast:.0},\n    \
           \"speedup\": {:.2},\n    \
           \"max_abs_diff\": {conv_diff:e}\n  }},\n  \
         \"rmae_full\": {{\n    \
           \"gemm_transa_1080x216x16_ns\": {transa:.0},\n    \
           \"conv2_forward_ns\": {conv2_ns:.0},\n    \
           \"deconv1_forward_ns\": {deconv1_ns:.0}\n  }},\n  \
         \"deconv3d_forward\": {{\n    \
           \"reference_ns\": {deconv_ref:.0},\n    \
           \"lowered_ns\": {deconv_low:.0},\n    \
           \"cost_ratio_pct\": {:.2}\n  }},\n  \
         \"raycast_64x512\": {{\n    \
           \"naive_ns\": {ray_naive:.0},\n    \
           \"bucketed_ns\": {ray_bucketed:.0},\n    \
           \"parallel_ns\": {ray_parallel:.0},\n    \
           \"bucketed_speedup\": {:.2},\n    \
           \"parallel_speedup\": {:.2},\n    \
           \"bit_identical\": true\n  }},\n  \
         \"loop_tick\": {{\n    \"mean_ns\": {tick:.1}\n  }}\n}}\n",
        gemm_naive / gemm_blocked,
        gemm_naive / gemm_parallel,
        gemm_naive / gemm_simd,
        conv_ref / conv_fast,
        100.0 * deconv_low / deconv_ref,
        ray_naive / ray_bucketed,
        ray_naive / ray_parallel,
    );
    let path = "BENCH_kernels.json";
    let mut f = std::fs::File::create(path).expect("create BENCH_kernels.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_kernels.json");
    println!("[json] {path}");
}
