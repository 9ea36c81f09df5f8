//! Occupancy voxelization of point clouds.
//!
//! R-MAE operates on a voxelized point cloud: points are binned into a
//! regular grid over the region of interest; the encoder sees binary
//! occupancy (plus point counts if desired) and the decoder predicts
//! occupancy back.

use crate::mask::RadialMask;
use crate::pointcloud::PointCloud;

/// Region of interest and resolution of the voxelizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoxelizerConfig {
    /// Minimum corner of the region of interest (x, y, z).
    pub min: [f64; 3],
    /// Maximum corner of the region of interest.
    pub max: [f64; 3],
    /// Cubic voxel edge length (metres).
    pub voxel_size: f64,
}

impl Default for VoxelizerConfig {
    /// KITTI-like front region: 0–70 m ahead, ±20 m lateral, 0–4 m up, at
    /// 1 m voxels (coarse enough to keep the Rust autoencoder fast).
    fn default() -> Self {
        VoxelizerConfig {
            min: [0.0, -20.0, 0.0],
            max: [70.0, 20.0, 4.0],
            voxel_size: 1.0,
        }
    }
}

impl VoxelizerConfig {
    /// Grid dimensions (nx, ny, nz) implied by the region and voxel size.
    pub fn dims(&self) -> (usize, usize, usize) {
        let n = |lo: f64, hi: f64| (((hi - lo) / self.voxel_size).ceil() as usize).max(1);
        (
            n(self.min[0], self.max[0]),
            n(self.min[1], self.max[1]),
            n(self.min[2], self.max[2]),
        )
    }

    /// Voxel index of a world point, if inside the region (a NaN coordinate
    /// is inside no region).
    pub(crate) fn index_of(&self, p: [f64; 3]) -> Option<(usize, usize, usize)> {
        self.index_within(p, self.dims())
    }

    /// [`VoxelizerConfig::index_of`] given the grid's `dims`: a loop over a
    /// cloud computes them once.
    fn index_within(
        &self,
        p: [f64; 3],
        (nx, ny, nz): (usize, usize, usize),
    ) -> Option<(usize, usize, usize)> {
        let mut idx = [0usize; 3];
        for i in 0..3 {
            if !(self.min[i]..self.max[i]).contains(&p[i]) {
                return None;
            }
            idx[i] = ((p[i] - self.min[i]) / self.voxel_size) as usize;
        }
        if idx[0] >= nx || idx[1] >= ny || idx[2] >= nz {
            return None;
        }
        Some((idx[0], idx[1], idx[2]))
    }

    /// Center of voxel `(ix, iy, iz)` in world coordinates.
    pub fn center_of(&self, ix: usize, iy: usize, iz: usize) -> [f64; 3] {
        [
            self.min[0] + (ix as f64 + 0.5) * self.voxel_size,
            self.min[1] + (iy as f64 + 0.5) * self.voxel_size,
            self.min[2] + (iz as f64 + 0.5) * self.voxel_size,
        ]
    }
}

/// A dense occupancy grid with per-voxel point counts.
#[derive(Debug, Clone, PartialEq)]
pub struct VoxelGrid {
    config: VoxelizerConfig,
    nx: usize,
    ny: usize,
    nz: usize,
    counts: Vec<u32>,
}

impl VoxelGrid {
    /// An empty grid over the configured region.
    pub(crate) fn new(config: VoxelizerConfig) -> Self {
        let (nx, ny, nz) = config.dims();
        VoxelGrid {
            config,
            nx,
            ny,
            nz,
            counts: vec![0; nx * ny * nz],
        }
    }

    /// Voxelize a point cloud.
    pub fn from_cloud(config: VoxelizerConfig, cloud: &PointCloud) -> Self {
        let mut grid = VoxelGrid::new(config);
        for p in cloud {
            if let Some((ix, iy, iz)) = config.index_of(p.position()) {
                let flat = grid.flat(ix, iy, iz);
                grid.counts[flat] += 1;
            }
        }
        grid
    }

    /// Voxelize a cloud into two grids in one pass: every point, and the
    /// points `mask` fires on. Each point's voxel is found once, and the
    /// mask is asked once per point, in cloud order, points outside the
    /// region included, so its RNG draws what a filter of the whole cloud
    /// through `mask.fire` draws. The grids equal `from_cloud` of the cloud
    /// and of that filtered cloud, which is never built.
    pub fn pair_from_cloud(
        config: VoxelizerConfig,
        cloud: &PointCloud,
        mask: &mut RadialMask,
    ) -> (VoxelGrid, VoxelGrid) {
        let (mut all, mut kept) = (VoxelGrid::new(config), VoxelGrid::new(config));
        let dims = config.dims();
        for p in cloud {
            let voxel = config.index_within(p.position(), dims);
            let keeps = mask.fire(p.azimuth, p.range);
            if let Some((ix, iy, iz)) = voxel {
                let flat = all.flat(ix, iy, iz);
                all.counts[flat] += 1;
                kept.counts[flat] += u32::from(keeps);
            }
        }
        (all, kept)
    }

    #[inline]
    fn flat(&self, ix: usize, iy: usize, iz: usize) -> usize {
        (iz * self.ny + iy) * self.nx + ix
    }

    /// The voxelizer configuration.
    pub fn config(&self) -> &VoxelizerConfig {
        &self.config
    }

    /// Grid dimensions (nx, ny, nz).
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Total voxel count.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.counts.len()
    }

    /// Point count in a voxel.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub(crate) fn count(&self, ix: usize, iy: usize, iz: usize) -> u32 {
        assert!(
            ix < self.nx && iy < self.ny && iz < self.nz,
            "voxel index out of range"
        );
        self.counts[self.flat(ix, iy, iz)]
    }

    /// Whether a voxel holds at least one point.
    pub fn occupied(&self, ix: usize, iy: usize, iz: usize) -> bool {
        self.count(ix, iy, iz) > 0
    }

    /// Occupancy as a flat `0.0/1.0` buffer (z-major: index
    /// `(iz * ny + iy) * nx + ix`) for feeding a network.
    pub fn occupancy_flat(&self) -> Vec<f64> {
        self.counts
            .iter()
            .map(|&c| if c > 0 { 1.0 } else { 0.0 })
            .collect()
    }

    /// Iterate occupied voxel indices.
    pub fn occupied_voxels(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (nx, ny, _) = (self.nx, self.ny, self.nz);
        self.counts.iter().enumerate().filter_map(move |(i, &c)| {
            if c == 0 {
                return None;
            }
            let ix = i % nx;
            let iy = (i / nx) % ny;
            let iz = i / (nx * ny);
            Some((ix, iy, iz))
        })
    }

    /// Intersection-over-union of the occupied sets of two same-shape grids.
    ///
    /// # Panics
    ///
    /// Panics if the grids have different dimensions.
    pub fn occupancy_iou(&self, other: &VoxelGrid) -> f64 {
        assert_eq!(self.dims(), other.dims(), "grid dims mismatch");
        let mut inter = 0usize;
        let mut union = 0usize;
        for (a, b) in self.counts.iter().zip(&other.counts) {
            let oa = *a > 0;
            let ob = *b > 0;
            if oa && ob {
                inter += 1;
            }
            if oa || ob {
                union += 1;
            }
        }
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// Overwrite occupancy from a flat prediction buffer (values > `threshold`
    /// become a single synthetic point). Used to turn decoder output back
    /// into a grid.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the voxel count.
    pub fn from_occupancy_flat(config: VoxelizerConfig, buf: &[f64], threshold: f64) -> Self {
        let mut grid = VoxelGrid::new(config);
        assert_eq!(
            buf.len(),
            grid.counts.len(),
            "occupancy buffer length mismatch"
        );
        for (c, &v) in grid.counts.iter_mut().zip(buf) {
            *c = if v > threshold { 1 } else { 0 };
        }
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pointcloud::Point;
    use crate::raycast::{Lidar, LidarConfig};
    use crate::scene::SceneGenerator;

    /// Number of occupied voxels.
    fn occupied_count(grid: &VoxelGrid) -> usize {
        grid.counts.iter().filter(|&&c| c > 0).count()
    }

    fn pt(x: f64, y: f64, z: f64) -> Point {
        Point {
            x,
            y,
            z,
            range: 0.0,
            beam: 0,
            azimuth: 0,
        }
    }

    fn small_config() -> VoxelizerConfig {
        VoxelizerConfig {
            min: [0.0, 0.0, 0.0],
            max: [4.0, 4.0, 2.0],
            voxel_size: 1.0,
        }
    }

    #[test]
    fn dims_from_region() {
        assert_eq!(small_config().dims(), (4, 4, 2));
        let odd = VoxelizerConfig {
            min: [0.0, 0.0, 0.0],
            max: [3.5, 1.0, 1.0],
            voxel_size: 1.0,
        };
        assert_eq!(odd.dims(), (4, 1, 1));
    }

    #[test]
    fn index_of_inside_and_outside() {
        let c = small_config();
        assert_eq!(c.index_of([0.5, 0.5, 0.5]), Some((0, 0, 0)));
        assert_eq!(c.index_of([3.9, 3.9, 1.9]), Some((3, 3, 1)));
        assert_eq!(c.index_of([-0.1, 0.0, 0.0]), None);
        assert_eq!(c.index_of([4.0, 0.0, 0.0]), None); // max is exclusive
    }

    /// `p < min || p >= max` is false for NaN and `NaN as usize` is 0, so a
    /// NaN coordinate used to land in voxel 0 of its axis.
    #[test]
    fn index_of_rejects_nan_on_every_axis() {
        let c = small_config();
        for axis in 0..3 {
            let mut p = [0.5; 3];
            p[axis] = f64::NAN;
            assert_eq!(c.index_of(p), None, "NaN on axis {axis}");
        }
        assert_eq!(c.index_of([f64::NAN; 3]), None);
    }

    #[test]
    fn a_poisoned_cloud_voxelises_to_an_empty_grid() {
        let cloud = PointCloud::from_points(vec![
            pt(f64::NAN, f64::NAN, f64::NAN),
            pt(f64::NAN, 0.5, 0.5),
            pt(0.5, f64::NAN, 0.5),
            pt(0.5, 0.5, f64::NAN),
        ]);
        let grid = VoxelGrid::from_cloud(small_config(), &cloud);
        assert_eq!(occupied_count(&grid), 0);
    }

    #[test]
    fn center_roundtrip() {
        let c = small_config();
        let center = c.center_of(2, 1, 0);
        assert_eq!(c.index_of(center), Some((2, 1, 0)));
    }

    #[test]
    fn voxelize_counts_points() {
        let cloud = PointCloud::from_points(vec![
            pt(0.5, 0.5, 0.5),
            pt(0.6, 0.4, 0.5),
            pt(2.5, 2.5, 1.5),
            pt(9.0, 0.0, 0.0), // outside
        ]);
        let grid = VoxelGrid::from_cloud(small_config(), &cloud);
        assert_eq!(grid.count(0, 0, 0), 2);
        assert_eq!(grid.count(2, 2, 1), 1);
        assert_eq!(occupied_count(&grid), 2);
    }

    #[test]
    fn occupancy_flat_binary() {
        let cloud = PointCloud::from_points(vec![pt(0.5, 0.5, 0.5), pt(0.6, 0.4, 0.5)]);
        let grid = VoxelGrid::from_cloud(small_config(), &cloud);
        let flat = grid.occupancy_flat();
        assert_eq!(flat.iter().sum::<f64>(), 1.0);
        assert!(flat.iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn occupied_voxels_iterates_correct_indices() {
        let cloud = PointCloud::from_points(vec![pt(1.5, 2.5, 0.5), pt(3.5, 0.5, 1.5)]);
        let grid = VoxelGrid::from_cloud(small_config(), &cloud);
        let occ: Vec<_> = grid.occupied_voxels().collect();
        assert_eq!(occ.len(), 2);
        assert!(occ.contains(&(1, 2, 0)));
        assert!(occ.contains(&(3, 0, 1)));
    }

    #[test]
    fn iou_identical_and_disjoint() {
        let a = VoxelGrid::from_cloud(
            small_config(),
            &PointCloud::from_points(vec![pt(0.5, 0.5, 0.5)]),
        );
        assert_eq!(a.occupancy_iou(&a), 1.0);
        let b = VoxelGrid::from_cloud(
            small_config(),
            &PointCloud::from_points(vec![pt(2.5, 2.5, 0.5)]),
        );
        assert_eq!(a.occupancy_iou(&b), 0.0);
        // Both empty → defined as 1.
        let e = VoxelGrid::new(small_config());
        assert_eq!(e.occupancy_iou(&e), 1.0);
    }

    #[test]
    fn from_occupancy_flat_thresholds() {
        let c = small_config();
        let n = VoxelGrid::new(c).len();
        let mut buf = vec![0.0; n];
        buf[0] = 0.9;
        buf[5] = 0.4;
        let grid = VoxelGrid::from_occupancy_flat(c, &buf, 0.5);
        assert_eq!(occupied_count(&grid), 1);
    }

    #[test]
    fn real_scan_occupancy_is_sparse() {
        let scene = SceneGenerator::new(1).generate();
        let cloud = Lidar::new(LidarConfig::default()).scan(&scene);
        let grid = VoxelGrid::from_cloud(VoxelizerConfig::default(), &cloud);
        let ratio = occupied_count(&grid) as f64 / grid.len() as f64;
        // Street scenes occupy a thin shell — far less than half the volume.
        assert!(ratio < 0.5, "occupancy ratio {ratio}");
        assert!(ratio > 0.005, "occupancy ratio {ratio} suspiciously low");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn count_out_of_range_panics() {
        let grid = VoxelGrid::new(small_config());
        let _ = grid.count(10, 0, 0);
    }

    /// `pair_from_cloud` under a radial mask is `from_cloud` of the cloud
    /// and of the cloud the same mask filters, and leaves the mask's RNG
    /// where the filter leaves it: over seeded street scans, whose returns
    /// reach past the region, and a cloud of NaN, ±∞, boundary and
    /// out-of-region points on every azimuth.
    #[test]
    fn the_one_pass_pair_is_two_from_clouds_and_one_mask_stream() {
        use crate::mask::RadialMaskConfig;
        let config = VoxelizerConfig {
            min: [0.0, -14.4, 0.0],
            max: [48.0, 14.4, 3.2],
            voxel_size: 0.8,
        };
        let lidar = Lidar::new(LidarConfig::default());
        let mut clouds: Vec<PointCloud> = SceneGenerator::new(31)
            .generate_many(4)
            .iter()
            .map(|scene| lidar.scan(scene))
            .collect();
        let odd = [
            f64::NAN,
            f64::INFINITY,
            -f64::INFINITY,
            -0.0,
            0.0,
            3.2,
            14.4,
            48.0,
            47.99,
            1e9,
        ];
        clouds.push(
            (0..512u16)
                .map(|az| {
                    let at = |k: u16| odd[usize::from(az * 7 + k) % odd.len()];
                    Point {
                        x: if az % 3 == 0 {
                            at(0)
                        } else {
                            f64::from(az) * 0.09
                        },
                        y: if az % 5 == 0 {
                            at(1)
                        } else {
                            f64::from(az) * 0.05 - 12.0
                        },
                        z: if az % 4 == 0 { at(2) } else { 1.0 },
                        range: f64::from(az % 90),
                        beam: az % 32,
                        azimuth: az,
                    }
                })
                .collect(),
        );
        let outside = clouds
            .iter()
            .flat_map(|c| c.iter())
            .filter(|p| config.index_of(p.position()).is_none())
            .count();
        assert!(outside > 0, "no point outside the region");
        for (i, cloud) in clouds.iter().enumerate() {
            for seed in 0..3 {
                let mask = || RadialMask::sample(RadialMaskConfig::default(), 512, seed);
                let mut filter = mask();
                let kept: PointCloud = cloud
                    .iter()
                    .filter(|p| filter.fire(p.azimuth, p.range))
                    .copied()
                    .collect();
                let mut one_pass = mask();
                let (all, masked) = VoxelGrid::pair_from_cloud(config, cloud, &mut one_pass);
                assert_eq!(
                    all,
                    VoxelGrid::from_cloud(config, cloud),
                    "cloud {i} seed {seed}"
                );
                assert_eq!(
                    masked,
                    VoxelGrid::from_cloud(config, &kept),
                    "cloud {i} seed {seed}"
                );
                assert_eq!(
                    one_pass.rng_state(),
                    filter.rng_state(),
                    "cloud {i} seed {seed}"
                );
            }
        }
    }
}
