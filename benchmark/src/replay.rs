//! Replays shared by several workloads: the `sensact-nn` conv layers and the
//! `sensact-math` GEMM kernels at the shapes the workloads' models use, fed
//! in isolation after the traced pass.

use crate::ceilings;
use crate::measure::replay_s;
use crate::workload::Layers;
use sensact_math::kernels;
use sensact_math::rng::StdRng;
use sensact_nn::conv::{Conv3d, Deconv3d, Dims3};
use sensact_nn::layers::{ActKind, Activation, Layer};
use sensact_nn::optim::{Adam, Optimizer};
use sensact_nn::{Initializer, Sequential, Tensor};
use sensact_rmae::model::RmaeConfig;
use std::hint::black_box;

/// Which GEMM entry point a conv layer lowers onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// `gemm` and `gemm_transb`: the row-dot forms.
    Plain,
    PlainTransB,
    TransA,
    /// `gemm_transb_gathered`: the stacked cross-loop forward.
    Gathered(usize),
}

#[derive(Debug, Clone, Copy)]
struct GemmCall {
    entry: Entry,
    m: usize,
    n: usize,
    k: usize,
}

impl GemmCall {
    fn flops(&self) -> f64 {
        let batch = match self.entry {
            Entry::Gathered(b) => b,
            _ => 1,
        };
        2.0 * (batch * self.m * self.n * self.k) as f64
    }

    /// Fastest seconds per call on random operands of this shape.
    fn time(&self, budget_s: f64) -> f64 {
        let mut rng = StdRng::seed_from_u64(0x6E44);
        let mut mat = |len: usize| -> Vec<f64> { (0..len).map(|_| rng.gen_f64() - 0.5).collect() };
        let GemmCall { entry, m, n, k } = *self;
        match entry {
            Entry::Plain => {
                let (a, b, mut c) = (mat(m * k), mat(k * n), mat(m * n));
                replay_s(budget_s, 2, || {
                    kernels::gemm(m, n, k, 1.0, black_box(&a), &b, 1.0, &mut c)
                })
            }
            Entry::PlainTransB => {
                let (a, b, mut c) = (mat(m * k), mat(n * k), mat(m * n));
                replay_s(budget_s, 2, || {
                    kernels::gemm_transb(m, n, k, 1.0, black_box(&a), &b, 1.0, &mut c)
                })
            }
            Entry::TransA => {
                let (a, b, mut c) = (mat(k * m), mat(k * n), mat(m * n));
                replay_s(budget_s, 2, || {
                    kernels::gemm_transa(m, n, k, 1.0, black_box(&a), &b, 0.0, &mut c)
                })
            }
            Entry::Gathered(batch) => {
                let (a, b, mut c) = (mat(m * k), mat(batch * n * k), mat(m * batch * n));
                let mut wide = true;
                let t = replay_s(budget_s, 2, || {
                    wide &= kernels::gemm_transb_gathered(
                        batch,
                        m,
                        n,
                        k,
                        1.0,
                        black_box(&a),
                        &b,
                        1.0,
                        &mut c,
                    );
                });
                if wide {
                    return t;
                }
                // Pinned to the per-item path for this shape: price the loop
                // the conv layer runs instead.
                let (b1, mut c1) = (mat(n * k), mat(m * n));
                batch as f64
                    * replay_s(budget_s, 2, || {
                        kernels::gemm_transb(m, n, k, 1.0, black_box(&a), &b1, 1.0, &mut c1)
                    })
            }
        }
    }
}

/// Time `calls` and file them under the three `math.kernels.*_us` names,
/// with the FLOP count and the share of the measured FMA peak.
fn gemm_metrics(calls: &[GemmCall], ops_per_batch: usize, budget_s: f64, out: &mut Layers) {
    let per_call = budget_s / calls.len().max(1) as f64;
    let (mut plain, mut transa, mut gathered, mut flops) = (0.0, 0.0, 0.0, 0.0);
    for call in calls {
        let t = call.time(per_call);
        match call.entry {
            Entry::Plain | Entry::PlainTransB => plain += t,
            Entry::TransA => transa += t,
            Entry::Gathered(_) => gathered += t,
        }
        flops += call.flops();
    }
    let per = |s: f64| s * 1e6 / ops_per_batch as f64;
    let n = calls.len() as u64;
    out.set("math.kernels.gemm_us", per(plain), n);
    out.set("math.kernels.gemm_transa_us", per(transa), n);
    out.set("math.kernels.gemm_transb_gathered_us", per(gathered), n);
    out.set(
        "math.kernels.gemm_flops_per_op",
        flops / ops_per_batch as f64,
        n,
    );
    let total_s = plain + transa + gathered;
    if total_s > 0.0 {
        let gflops = flops / total_s / 1e9;
        out.set("math.kernels.gemm_gflops", gflops, n);
        out.set(
            "math.kernels.gemm_peak_share",
            gflops / ceilings::get().fma_peak_gflops,
            n,
        );
    }
}

/// `serve_mixed`'s shared perceptor: `Conv3d(1→4, k3, s2, p1)` over an 8³
/// grid, `rows.len()` leases stacked per flush, `ops_per_round` ops sharing
/// the cost.
pub fn lidar_conv(
    pool_seed: u64,
    rows: &[&[f64]],
    ops_per_round: usize,
    budget_s: f64,
    out: &mut Layers,
) {
    // Same construction as `SharedPerceptor::new(LidarConv, pool_seed)`.
    let mut init = Initializer::new(pool_seed ^ 0x11DA2);
    let mut conv = Conv3d::new(1, 4, 3, 2, 1, Dims3::new(8, 8, 8), &mut init);
    let vol = conv.out_dims().volume();
    let mut feats = vec![vec![0.0; conv.out_features()]; rows.len()];
    let forward_s = replay_s(budget_s, 1, || {
        let mut outs: Vec<&mut [f64]> = feats.iter_mut().map(Vec::as_mut_slice).collect();
        conv.forward_batch_into(black_box(rows), &mut outs);
    });
    let per = |s: f64| s * 1e6 / ops_per_round as f64;
    out.set("nn.conv.forward_batch_us", per(forward_s), 1);
    let ckk = 27;
    out.set(
        "nn.conv.im2col_bytes_per_op",
        (rows.len() * vol * ckk * 8) as f64 / ops_per_round as f64,
        rows.len() as u64,
    );
    // The stacked forward runs in chunks of 32 rows.
    let chunk = rows.len().min(32);
    let chunks = rows.len().div_ceil(chunk);
    let calls = vec![
        GemmCall {
            entry: Entry::Gathered(chunk),
            m: 4,
            n: vol,
            k: ckk,
        };
        chunks
    ];
    gemm_metrics(&calls, ops_per_round, budget_s, out);
}

/// The R-MAE autoencoder's four conv stages, rebuilt from the config the
/// way `RmaeModel::new` builds them (the model keeps its net private).
pub struct RmaeNet {
    net: Sequential,
    /// `(is_deconv, cin, cout, kernel, in_volume, out_volume)` per stage.
    shapes: Vec<(bool, usize, usize, usize, usize, usize)>,
}

impl RmaeNet {
    pub fn new(cfg: &RmaeConfig, seed: u64) -> RmaeNet {
        let dims = cfg.dims3();
        let (c1, c2) = cfg.channels;
        let mut init = Initializer::new(seed);
        let conv1 = Conv3d::new(1, c1, 3, 2, 1, dims, &mut init);
        let mid = conv1.out_dims();
        let conv2 = Conv3d::new(c1, c2, 3, 1, 1, mid, &mut init);
        let deconv1 = Deconv3d::new(c2, c1, 3, 1, 1, mid, &mut init);
        let deconv2 = Deconv3d::new(c1, 1, 4, 2, 1, mid, &mut init);
        assert_eq!(deconv2.out_dims(), dims, "decoder restores the grid");
        let (v, m) = (dims.volume(), mid.volume());
        let shapes = vec![
            (false, 1, c1, 3, v, m),
            (false, c1, c2, 3, m, m),
            (true, c2, c1, 3, m, m),
            (true, c1, 1, 4, m, v),
        ];
        let net = Sequential::new(vec![
            Box::new(conv1),
            Box::new(Activation::new(ActKind::Relu)),
            Box::new(conv2),
            Box::new(Activation::new(ActKind::Relu)),
            Box::new(deconv1),
            Box::new(Activation::new(ActKind::Relu)),
            Box::new(deconv2),
        ]);
        RmaeNet { net, shapes }
    }

    /// Forward MACs (must equal `RmaeModel::stats().macs`: the guard that
    /// this mirror has not drifted from the model).
    pub fn macs(&self) -> u64 {
        self.net.macs(1)
    }

    /// Replay the conv stages on `input` (a real occupancy buffer, since
    /// im2col cost depends on sparsity): forward always, backward and the
    /// optimiser step when `train`. One op = one pass through the net.
    pub fn replay(&mut self, input: &[f64], train: bool, budget_s: f64, out: &mut Layers) {
        let x0 = Tensor::from_vec(vec![1, input.len()], input.to_vec());
        // Inputs of each layer, by running the chain once.
        let mut inputs = vec![x0];
        for layer in self.net.layers_mut() {
            let y = layer.forward(inputs.last().expect("non-empty"), train);
            inputs.push(y);
        }
        let per_layer = budget_s / 4.0;
        let (mut forward_s, mut backward_s) = (0.0, 0.0);
        for (i, layer) in self.net.layers_mut().iter_mut().enumerate() {
            if i % 2 == 1 {
                continue; // activations are not conv work
            }
            let x = &inputs[i];
            forward_s += replay_s(per_layer, 1, || {
                black_box(layer.forward(black_box(x), train));
            });
            if train {
                let grad = inputs[i + 1].map(|v| 0.01 * v + 1e-3);
                backward_s += replay_s(per_layer, 1, || {
                    black_box(layer.backward(black_box(&grad)));
                });
            }
        }
        out.set("nn.conv.forward_us", forward_s * 1e6, 4);
        let mut im2col_bytes = 0usize;
        let mut calls = Vec::new();
        for &(deconv, cin, cout, k, vin, vout) in &self.shapes {
            let kkk = k * k * k;
            if deconv {
                let cokk = cout * kkk;
                im2col_bytes += vin * cokk * 8;
                calls.push(GemmCall {
                    entry: Entry::TransA,
                    m: vin,
                    n: cokk,
                    k: cin,
                });
                if train {
                    calls.push(GemmCall {
                        entry: Entry::Plain,
                        m: cin,
                        n: cokk,
                        k: vin,
                    });
                    calls.push(GemmCall {
                        entry: Entry::PlainTransB,
                        m: cin,
                        n: vin,
                        k: cokk,
                    });
                }
            } else {
                let ckk = cin * kkk;
                im2col_bytes += vout * ckk * 8;
                calls.push(GemmCall {
                    entry: Entry::PlainTransB,
                    m: cout,
                    n: vout,
                    k: ckk,
                });
                if train {
                    calls.push(GemmCall {
                        entry: Entry::Plain,
                        m: cout,
                        n: ckk,
                        k: vout,
                    });
                    calls.push(GemmCall {
                        entry: Entry::TransA,
                        m: vout,
                        n: ckk,
                        k: cout,
                    });
                }
            }
        }
        // Training unfolds each stage's columns again in the backward pass.
        let unfolds = if train { 2 } else { 1 };
        out.set(
            "nn.conv.im2col_bytes_per_op",
            (im2col_bytes * unfolds) as f64,
            4 * unfolds as u64,
        );
        if train {
            out.set("nn.conv.backward_us", backward_s * 1e6, 4);
            let mut opt = Adam::new(0.005);
            let adam_s = replay_s(per_layer, 1, || opt.step(&mut self.net));
            self.net.zero_grad();
            out.set("nn.optim.adam_step_us", adam_s * 1e6, 1);
        }
        gemm_metrics(&calls, 1, budget_s, out);
    }
}
