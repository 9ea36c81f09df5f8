//! The R-MAE occupancy autoencoder.
//!
//! Architecture (paper Fig. 3): a 3-D convolutional encoder processes the
//! (masked) occupancy grid into a latent volume and a deconvolution decoder
//! reconstructs full-resolution occupancy logits, trained with binary
//! cross-entropy weighted toward the rare occupied class.
//!
//! Every stage skips empty voxels, the "spatially sparse" trick: a conv
//! computes only the output sites whose window reaches a nonzero input (plus
//! one site that stands for all the others), and a deconv multiplies only
//! the input sites holding one (`sensact_nn::conv`). An empty voxel is one
//! whose bits are `+0.0` on every channel; after a bias and ReLU the
//! background is zero only where the biases leave it so. Skipping is exact:
//! the logits are bit-identical to the dense layers', and
//! [`RmaeModel::stats`] still counts dense MACs.
//!
//! **Inference owns only what it returns.** [`RmaeModel::reconstruct`] runs
//! the stages through two activation buffers of the calling thread, each
//! stage writing its whole output row ([`Conv3d::forward_into`],
//! [`Deconv3d::forward_into`]) and each ReLU running in place; the logistic
//! writes the returned probabilities, the call's one allocation. The buffers
//! are per thread, as the conv halo is, not per model: a fleet of models on
//! one thread keeps one pair. Training runs the same layers through their
//! [`Layer`] forward and backward, so a reconstruct between train steps
//! neither reads nor disturbs a step's caches.

use std::cell::RefCell;

use sensact_lidar::voxel::VoxelizerConfig;
use sensact_nn::conv::{Conv3d, Deconv3d, Dims3};
use sensact_nn::layers::{ActKind, Activation, Layer};
use sensact_nn::loss::bce_with_logits_weighted;
use sensact_nn::optim::Optimizer;
use sensact_nn::{Initializer, ModelStats, Tensor};

/// Geometry and capacity of the autoencoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmaeConfig {
    /// Voxel region/resolution shared with the detector.
    pub grid: VoxelizerConfig,
    /// Encoder channel widths (stage 1, stage 2).
    pub channels: (usize, usize),
    /// Positive-class weight of the occupancy BCE.
    pub pos_weight: f64,
}

impl RmaeConfig {
    /// Full-size configuration used by the Table I/II harnesses:
    /// 48 × 28.8 × 3.2 m region at 0.8 m voxels → 60×36×4 grid.
    pub fn full() -> Self {
        RmaeConfig {
            grid: VoxelizerConfig {
                min: [0.0, -14.4, 0.0],
                max: [48.0, 14.4, 3.2],
                voxel_size: 0.8,
            },
            channels: (8, 16),
            pos_weight: 6.0,
        }
    }

    /// Small configuration for unit tests: 16×8×2 grid.
    pub fn small() -> Self {
        RmaeConfig {
            grid: VoxelizerConfig {
                min: [0.0, -8.0, 0.0],
                max: [32.0, 8.0, 4.0],
                voxel_size: 2.0,
            },
            channels: (4, 8),
            pos_weight: 4.0,
        }
    }

    /// Grid dims as the conv layout `(depth=z, height=y, width=x)`.
    pub fn dims3(&self) -> Dims3 {
        let (nx, ny, nz) = self.grid.dims();
        Dims3::new(nz, ny, nx)
    }

    /// Total voxel count.
    pub fn voxels(&self) -> usize {
        self.dims3().volume()
    }
}

impl Default for RmaeConfig {
    fn default() -> Self {
        RmaeConfig::full()
    }
}

/// The encoder/decoder stack `conv1 → ReLU → conv2 → ReLU → deconv1 → ReLU
/// → deconv2`, concrete so [`RmaeModel::reconstruct`] can run each stage
/// into a buffer. As a [`Layer`] it is the `Sequential` of those seven
/// stages: it visits its parameters in layer order, the order the
/// optimiser's moments follow.
struct Net {
    conv1: Conv3d,
    relu1: Activation,
    conv2: Conv3d,
    relu2: Activation,
    deconv1: Deconv3d,
    relu3: Activation,
    deconv2: Deconv3d,
}

impl Net {
    /// Backward through every stage above conv1: the gradient w.r.t. its
    /// output.
    fn backward_to_conv1(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.deconv2.backward(grad_out);
        let g = self.relu3.backward(&g);
        let g = self.deconv1.backward(&g);
        let g = self.relu2.backward(&g);
        let g = self.conv2.backward(&g);
        self.relu1.backward(&g)
    }
}

impl Layer for Net {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let x = self.conv1.forward(input, train);
        let x = self.relu1.forward(&x, train);
        let x = self.conv2.forward(&x, train);
        let x = self.relu2.forward(&x, train);
        let x = self.deconv1.forward(&x, train);
        let x = self.relu3.forward(&x, train);
        self.deconv2.forward(&x, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.backward_to_conv1(grad_out);
        self.conv1.backward(&g)
    }

    /// What a train step runs: conv1's input gradient is nobody's.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let g = self.backward_to_conv1(grad_out);
        self.conv1.backward_params(&g);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.conv1.visit_params(f);
        self.conv2.visit_params(f);
        self.deconv1.visit_params(f);
        self.deconv2.visit_params(f);
    }

    fn param_count(&self) -> usize {
        self.conv1.param_count()
            + self.conv2.param_count()
            + self.deconv1.param_count()
            + self.deconv2.param_count()
    }

    fn macs(&self, batch: usize) -> u64 {
        self.conv1.macs(batch)
            + self.conv2.macs(batch)
            + self.deconv1.macs(batch)
            + self.deconv2.macs(batch)
    }

    fn name(&self) -> &'static str {
        "RmaeNet"
    }
}

thread_local! {
    /// The two activation buffers every reconstruct on this thread
    /// ping-pongs through, grown to the largest model it has run; a stage
    /// overwrites the prefix it writes, so what a call leaves never reaches
    /// the next.
    static ACTIVATIONS: RefCell<[Vec<f64>; 2]> = RefCell::default();
}

/// The first `len` elements of an activation buffer, grown on demand.
fn grown(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// The occupancy autoencoder.
pub struct RmaeModel {
    config: RmaeConfig,
    net: Net,
}

impl RmaeModel {
    /// Build the encoder/decoder for a config.
    ///
    /// # Panics
    ///
    /// Panics if the grid x/y dims are odd (the stride-2 stages require even
    /// extents).
    pub fn new(config: RmaeConfig, seed: u64) -> Self {
        let dims = config.dims3();
        assert!(
            dims.h.is_multiple_of(2) && dims.w.is_multiple_of(2),
            "grid y/x dims must be even, got {}x{}",
            dims.h,
            dims.w
        );
        let (c1, c2) = config.channels;
        let mut init = Initializer::new(seed);
        // Encoder: stride-2 downsample then a same-size stage.
        let conv1 = Conv3d::new(1, c1, 3, 2, 1, dims, &mut init);
        let mid = conv1.out_dims();
        let conv2 = Conv3d::new(c1, c2, 3, 1, 1, mid, &mut init);
        // Decoder: same-size stage then stride-2 upsample back.
        let deconv1 = Deconv3d::new(c2, c1, 3, 1, 1, mid, &mut init);
        let deconv2 = Deconv3d::new(c1, 1, 4, 2, 1, mid, &mut init);
        debug_assert_eq!(deconv2.out_dims(), dims, "decoder must restore the grid");
        let relu = || Activation::new(ActKind::Relu);
        let net = Net {
            conv1,
            relu1: relu(),
            conv2,
            relu2: relu(),
            deconv1,
            relu3: relu(),
            deconv2,
        };
        RmaeModel { config, net }
    }

    /// The model configuration.
    pub fn config(&self) -> &RmaeConfig {
        &self.config
    }

    /// Parameter / MAC statistics (one grid per forward pass).
    pub fn stats(&self) -> ModelStats {
        ModelStats::of(&self.net, 1)
    }

    /// Reconstruct occupancy probabilities from a (masked) occupancy buffer.
    /// The returned probabilities are the call's one allocation (module
    /// docs).
    ///
    /// # Panics
    ///
    /// Panics if `occupancy.len()` differs from the grid voxel count.
    pub fn reconstruct(&mut self, occupancy: &[f64]) -> Vec<f64> {
        assert_eq!(
            occupancy.len(),
            self.config.voxels(),
            "occupancy buffer does not match grid"
        );
        let net = &mut self.net;
        ACTIVATIONS.with_borrow_mut(|[a, b]| {
            let h = grown(a, net.conv1.out_features());
            net.conv1.forward_into(occupancy, h);
            net.relu1.apply_in_place(h);
            let h2 = grown(b, net.conv2.out_features());
            net.conv2.forward_into(h, h2);
            net.relu2.apply_in_place(h2);
            let h = grown(a, net.deconv1.out_features());
            net.deconv1.forward_into(h2, h);
            net.relu3.apply_in_place(h);
            let logits = grown(b, net.deconv2.out_features());
            net.deconv2.forward_into(h, logits);
            // The background of a sparse grid is long runs of one logit:
            // the logistic runs once per run of equal bits.
            let mut last: Option<(u64, f64)> = None;
            logits
                .iter()
                .map(|&x| match last {
                    Some((bits, p)) if bits == x.to_bits() => p,
                    _ => {
                        let p = 1.0 / (1.0 + (-x).exp());
                        last = Some((x.to_bits(), p));
                        p
                    }
                })
                .collect()
        })
    }

    /// One training step: reconstruct `masked` toward `full`; returns the
    /// weighted-BCE loss.
    ///
    /// # Panics
    ///
    /// Panics on buffer/grid size mismatch.
    pub fn train_step(&mut self, masked: &[f64], full: &[f64], opt: &mut dyn Optimizer) -> f64 {
        assert_eq!(masked.len(), self.config.voxels(), "masked buffer size");
        assert_eq!(full.len(), self.config.voxels(), "target buffer size");
        let x = Tensor::from_vec(vec![1, masked.len()], masked.to_vec());
        let target = Tensor::from_vec(vec![1, full.len()], full.to_vec());
        let logits = self.net.forward(&x, true);
        let (loss, grad) = bce_with_logits_weighted(&logits, &target, self.config.pos_weight);
        self.net.backward_params(&grad);
        opt.step(&mut self.net);
        loss
    }

    /// Observation-guided reconstruction: returns a grid holding every
    /// observed voxel plus reconstructed voxels (probability above
    /// `threshold`) that have observed support in their 3-D neighborhood —
    /// for above-ground voxels the support must itself be above ground.
    ///
    /// The guidance rule keeps the decoder's strength (completing partially
    /// observed objects) while discarding its failure mode (hallucinating
    /// plausible-but-unseen surfaces that would fuse the scene into one
    /// cluster).
    pub(crate) fn reconstruct_guided(
        &mut self,
        observed: &sensact_lidar::voxel::VoxelGrid,
        threshold: f64,
    ) -> sensact_lidar::voxel::VoxelGrid {
        let probs = self.reconstruct(&observed.occupancy_flat());
        let (nx, ny, nz) = observed.dims();
        let flat = |ix: usize, iy: usize, iz: usize| (iz * ny + iy) * nx + ix;
        let mut out = vec![0.0; probs.len()];
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = flat(ix, iy, iz);
                    if observed.occupied(ix, iy, iz) {
                        out[i] = 1.0;
                        continue;
                    }
                    // Never *add* voxels in the top layer (≥ 2.4 m): no
                    // detectable object reaches it, and one hallucinated
                    // top voxel re-labels a car as structure downstream.
                    if iz + 1 == nz {
                        continue;
                    }
                    if probs[i] <= threshold {
                        continue;
                    }
                    // Bridge criterion: the reconstructed voxel must sit
                    // *between* observed evidence — at least one pair of
                    // observed neighbors in opposite directions. This lets
                    // the decoder re-connect an object fragmented by masking
                    // without dilating every surface outward (which would
                    // systematically inflate footprints by a size class).
                    let mut offsets: Vec<(i32, i32, i32)> = Vec::new();
                    for dz in -1i32..=1 {
                        for dy in -1i32..=1 {
                            for dx in -1i32..=1 {
                                if dx == 0 && dy == 0 && dz == 0 {
                                    continue;
                                }
                                let (x, y, z) = (ix as i32 + dx, iy as i32 + dy, iz as i32 + dz);
                                if x < 0
                                    || y < 0
                                    || z < 0
                                    || x >= nx as i32
                                    || y >= ny as i32
                                    || z >= nz as i32
                                {
                                    continue;
                                }
                                if iz >= 1 && z == 0 {
                                    continue;
                                }
                                if observed.occupied(x as usize, y as usize, z as usize) {
                                    offsets.push((dx, dy, dz));
                                }
                            }
                        }
                    }
                    let bridges = offsets
                        .iter()
                        .any(|&(dx, dy, dz)| offsets.contains(&(-dx, -dy, -dz)));
                    if bridges {
                        out[i] = 1.0;
                    }
                }
            }
        }
        sensact_lidar::voxel::VoxelGrid::from_occupancy_flat(self.config.grid, &out, 0.5)
    }

    /// Reconstruction quality: IoU between thresholded reconstruction and the
    /// true occupancy.
    pub fn reconstruction_iou(&mut self, masked: &[f64], full: &[f64], threshold: f64) -> f64 {
        self.recon_iou_from(masked, full, threshold, 0)
    }

    /// Reconstruction IoU restricted to above-ground layers (`z ≥ 1`) — the
    /// object-relevant measure of pre-training quality. The ground layer
    /// dominates plain IoU and its "occupancy" is sampling-limited in the
    /// reference scan, so it mostly measures how boldly a model paints
    /// ground, not how well it completes objects.
    pub fn reconstruction_iou_above_ground(
        &mut self,
        masked: &[f64],
        full: &[f64],
        threshold: f64,
    ) -> f64 {
        self.recon_iou_from(masked, full, threshold, 1)
    }

    fn recon_iou_from(
        &mut self,
        masked: &[f64],
        full: &[f64],
        threshold: f64,
        z_min: usize,
    ) -> f64 {
        let probs = self.reconstruct(masked);
        let (nx, ny, nz) = self.config.grid.dims();
        let mut inter = 0usize;
        let mut union = 0usize;
        for iz in z_min..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = (iz * ny + iy) * nx + ix;
                    let po = probs[i] > threshold;
                    let to = full[i] > 0.5;
                    if po && to {
                        inter += 1;
                    }
                    if po || to {
                        union += 1;
                    }
                }
            }
        }
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }
}

impl std::fmt::Debug for RmaeModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RmaeModel")
            .field("grid", &self.config.grid.dims())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensact_nn::optim::Adam;

    #[test]
    fn config_dims() {
        let c = RmaeConfig::small();
        assert_eq!(c.grid.dims(), (16, 8, 2));
        assert_eq!(c.dims3(), Dims3::new(2, 8, 16));
        assert_eq!(c.voxels(), 256);
        let f = RmaeConfig::full();
        assert_eq!(f.grid.dims(), (60, 36, 4));
    }

    #[test]
    fn reconstruct_shape_and_range() {
        let mut m = RmaeModel::new(RmaeConfig::small(), 0);
        let occ = vec![0.0; 256];
        let probs = m.reconstruct(&occ);
        assert_eq!(probs.len(), 256);
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn training_learns_identity_on_fixed_pattern() {
        // A single fixed occupancy pattern with half masked: the model should
        // learn to fill it in.
        let cfg = RmaeConfig::small();
        let mut m = RmaeModel::new(cfg, 1);
        let mut full = vec![0.0; cfg.voxels()];
        // An L-shaped structure.
        for (i, v) in full.iter_mut().enumerate() {
            if i % 16 < 3 || (i / 16) % 8 == 2 {
                *v = 1.0;
            }
        }
        let mut masked = full.clone();
        for (i, v) in masked.iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let mut opt = Adam::new(0.01);
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..120 {
            let l = m.train_step(&masked, &full, &mut opt);
            if it == 0 {
                first = l;
            }
            last = l;
        }
        assert!(last < first * 0.3, "first {first} last {last}");
        let iou = m.reconstruction_iou(&masked, &full, 0.5);
        assert!(iou > 0.8, "reconstruction IoU {iou}");
    }

    #[test]
    fn stats_report_nonzero() {
        let m = RmaeModel::new(RmaeConfig::small(), 0);
        let s = m.stats();
        assert!(s.params > 100);
        assert!(s.macs > 1000);
    }

    #[test]
    fn full_config_params_in_paper_ballpark_scale() {
        // Paper: ~830 K parameters. Our grid is coarser, so the model is
        // smaller, but it must be within two orders of magnitude.
        let m = RmaeModel::new(RmaeConfig::full(), 0);
        let p = m.stats().params;
        assert!(p > 5_000, "params {p}");
        assert!(p < 2_000_000, "params {p}");
    }

    #[test]
    #[should_panic(expected = "does not match grid")]
    fn wrong_buffer_size_panics() {
        let mut m = RmaeModel::new(RmaeConfig::small(), 0);
        let _ = m.reconstruct(&[0.0; 7]);
    }

    /// The reconstruct through the dense layers: every stage by the
    /// materialised oracle lowering, with the model's ReLU and logistic.
    fn dense_reconstruct(m: &mut RmaeModel, occupancy: &[f64]) -> Vec<f64> {
        use crate::conv_oracle::{conv_forward, deconv_forward, Win};
        let d = m.config.dims3();
        let (c1, _) = m.config.channels;
        let conv1 = Win::conv(1, 3, 2, 1, [d.d, d.h, d.w]);
        let mid = conv1.sites;
        let stages = [
            conv1,
            Win::conv(c1, 3, 1, 1, mid),
            Win::deconv(c1, 3, 1, 1, mid),
            Win::deconv(1, 4, 2, 1, mid),
        ];
        let mut params = Vec::new();
        m.net.visit_params(&mut |p, _| params.push(p.to_vec()));
        let mut x = occupancy.to_vec();
        for (i, (win, wb)) in stages.iter().zip(params.chunks_exact(2)).enumerate() {
            let (w, b) = (&wb[0], &wb[1]);
            let out = if i < 2 { win.sites } else { win.grid };
            let mut y = vec![f64::NAN; b.len() * out.iter().product::<usize>()];
            if i < 2 {
                conv_forward(win, w, b, &x, &mut y);
            } else {
                deconv_forward(win, w, b, &x, &mut y);
            }
            if i < 3 {
                y.iter_mut().for_each(|v| *v = v.max(0.0));
            }
            x = y;
        }
        x.iter().map(|&v| 1.0 / (1.0 + (-v).exp())).collect()
    }

    fn assert_dense_bits(m: &mut RmaeModel, occupancy: &[f64], what: &str) {
        let want = dense_reconstruct(m, occupancy);
        let got = m.reconstruct(occupancy);
        assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: voxel {i} is {a:e}, dense {b:e}"
            );
        }
    }

    /// Leaves this thread's activation buffers longer than any model needs
    /// and NaN throughout, as a call that wrote garbage would.
    fn poison_activations() {
        ACTIVATIONS.with_borrow_mut(|bufs| {
            for b in bufs {
                b.clear();
                b.resize(1 << 15, f64::NAN);
            }
        });
    }

    /// The site-sparse reconstruct is bit-identical to the dense one on the
    /// full-size grid: a masked sweep (a few percent occupied), nothing, every
    /// voxel, and after 20 Adam steps, whose biases leave little background.
    /// The activation buffers are shared by every model on the thread, so
    /// three cases check that no state crosses from one call to the next: a
    /// `small()` model interleaved with the `full()` one (it reads prefixes of
    /// buffers the full one grew), buffers left NaN-filled before a call, and
    /// reconstructs between train steps, whose steps must match a twin's
    /// trained without them loss for loss and parameter for parameter.
    #[test]
    fn reconstruct_is_bit_identical_to_the_dense_layers() {
        use crate::pretrain::radial_masked_cloud;
        use sensact_lidar::raycast::{Lidar, LidarConfig};
        use sensact_lidar::scene::SceneGenerator;
        use sensact_lidar::voxel::VoxelGrid;
        let cfg = RmaeConfig::full();
        let full = Lidar::new(LidarConfig::default()).scan(&SceneGenerator::new(51).generate());
        let occupancy = |cloud: &_| VoxelGrid::from_cloud(cfg.grid, cloud).occupancy_flat();
        let masked = occupancy(&radial_masked_cloud(&full, 51));
        let target = occupancy(&full);
        let share = masked.iter().sum::<f64>() / masked.len() as f64;
        assert!(share > 0.0 && share < 0.1, "masked share {share}");
        let mut m = RmaeModel::new(cfg, 3);
        assert_dense_bits(&mut m, &masked, "masked sweep");
        assert_dense_bits(&mut m, &vec![0.0; cfg.voxels()], "empty grid");
        assert_dense_bits(&mut m, &vec![1.0; cfg.voxels()], "full grid");

        let small_cfg = RmaeConfig::small();
        let mut small = RmaeModel::new(small_cfg, 4);
        let sparse: Vec<f64> = (0..small_cfg.voxels())
            .map(|v| f64::from(v % 5 == 0))
            .collect();
        for round in 0..2 {
            assert_dense_bits(&mut small, &sparse, &format!("small, round {round}"));
            assert_dense_bits(&mut m, &masked, &format!("full, round {round}"));
            assert_dense_bits(&mut small, &vec![0.0; small_cfg.voxels()], "small, empty");
        }
        poison_activations();
        assert_dense_bits(&mut m, &masked, "full over NaN-filled buffers");
        poison_activations();
        assert_dense_bits(&mut small, &sparse, "small over NaN-filled buffers");

        let mut twin = RmaeModel::new(cfg, 3);
        let (mut opt, mut twin_opt) = (Adam::new(0.005), Adam::new(0.005));
        for step in 0..20 {
            let loss = m.train_step(&masked, &target, &mut opt);
            let twin_loss = twin.train_step(&masked, &target, &mut twin_opt);
            assert_eq!(loss.to_bits(), twin_loss.to_bits(), "loss of step {step}");
            if step % 4 == 1 {
                poison_activations();
                assert_dense_bits(&mut m, &masked, &format!("masked sweep after step {step}"));
                assert_dense_bits(&mut small, &sparse, &format!("small after step {step}"));
            }
        }
        let params = |m: &mut RmaeModel| {
            let mut bits = Vec::new();
            m.net
                .visit_params(&mut |p, _| bits.extend(p.iter().map(|v| v.to_bits())));
            bits
        };
        assert!(
            params(&mut m) == params(&mut twin),
            "reconstructs moved training"
        );
        assert_dense_bits(&mut m, &masked, "masked sweep after 20 steps");
        assert_dense_bits(
            &mut m,
            &vec![0.0; cfg.voxels()],
            "empty grid after 20 steps",
        );
    }

    #[test]
    fn empty_input_reconstruction_mostly_empty_after_training_on_empty() {
        let cfg = RmaeConfig::small();
        let mut m = RmaeModel::new(cfg, 2);
        let empty = vec![0.0; cfg.voxels()];
        let mut opt = Adam::new(0.02);
        for _ in 0..60 {
            let _ = m.train_step(&empty, &empty, &mut opt);
        }
        let probs = m.reconstruct(&empty);
        let occupied = probs.iter().filter(|&&p| p > 0.5).count();
        assert!(
            occupied < cfg.voxels() / 20,
            "{occupied} voxels hallucinated"
        );
    }
}
