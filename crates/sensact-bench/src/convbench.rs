//! Shared conv-lowering workloads: the two heaviest stages of the R-MAE
//! autoencoder (`RmaeConfig::full`, mid grid 2×18×30) as the `kernels`
//! bench times them and `bench_gate` re-measures them.

use crate::obsbench::paired_min_ns;
use sensact_math::rng::StdRng;
use sensact_nn::conv::{Conv3d, Deconv3d, Dims3};
use sensact_nn::init::Initializer;
use sensact_nn::layers::Layer;
use sensact_nn::Tensor;
use sensact_rmae::model::RmaeConfig;
use std::hint::black_box;

/// The grid between the encoder's two stages (and the decoder's).
fn mid_dims() -> Dims3 {
    let mut init = Initializer::new(0);
    let cfg = RmaeConfig::full();
    Conv3d::new(1, cfg.channels.0, 3, 2, 1, cfg.dims3(), &mut init).out_dims()
}

/// Dense `[1, feat]` activations in `[-0.5, 0.5)` (no zero to skip).
fn dense_input(seed: u64, feat: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = (0..feat).map(|_| rng.random::<f64>() - 0.5).collect();
    Tensor::from_vec(vec![1, feat], x)
}

/// R-MAE `conv2` (`8 → 16`, k3 s1 p1 over the mid grid: a
/// `16 × 1080 × 216` product) and one dense input row for it.
pub fn rmae_conv2() -> (Conv3d, Tensor) {
    let (c1, c2) = RmaeConfig::full().channels;
    let mid = mid_dims();
    let conv = Conv3d::new(c1, c2, 3, 1, 1, mid, &mut Initializer::new(7));
    (conv, dense_input(0xC2, c1 * mid.volume()))
}

/// R-MAE `deconv1` (`16 → 8`, k3 s1 p1 over the mid grid: a
/// `1080 × 216 × 16` transposed product plus the fold) and one dense input
/// row for it.
pub fn rmae_deconv1() -> (Deconv3d, Tensor) {
    let (c1, c2) = RmaeConfig::full().channels;
    let mid = mid_dims();
    let deconv = Deconv3d::new(c2, c1, 3, 1, 1, mid, &mut Initializer::new(8));
    (deconv, dense_input(0xD1, c2 * mid.volume()))
}

/// Paired floors `(reference_ns, lowered_ns)` of `deconv1`'s scatter-loop
/// reference against its GEMM-lowered forward — the `BENCH_kernels.json`
/// `deconv3d_forward` headline. The quotient is what the gate compares, so
/// machine load cancels out of it.
pub fn deconv_forward_headline(rounds: usize, batch: usize) -> (f64, f64) {
    let (mut deconv, x) = rmae_deconv1();
    let reference = deconv.clone();
    paired_min_ns(
        rounds,
        batch,
        || {
            black_box(reference.forward_reference(black_box(&x)));
        },
        || {
            black_box(deconv.forward(black_box(&x), false));
        },
    )
}
