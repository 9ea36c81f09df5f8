//! # sensact-lidar
//!
//! LiDAR and 3-D street-scene simulation substrate for the generative-sensing
//! experiments (paper §III) and the reliability experiments (§V).
//!
//! The paper evaluates on KITTI/Waymo/nuScenes scans from real spinning
//! LiDARs; neither the data nor the hardware is available here, so this crate
//! provides the closest synthetic equivalent:
//!
//! * [`scene`] — procedural street scenes with cars, pedestrians, cyclists,
//!   buildings and ground, each an axis-aligned box with a class label.
//! * [`raycast`] — a spinning multi-beam LiDAR model: for every
//!   (beam, azimuth) pulse, the nearest box/ground intersection produces a
//!   return.
//! * [`voxel`] — occupancy voxelization of point clouds.
//! * [`mask`] — R-MAE's two-stage radial masking (angular-segment sampling +
//!   range-dependent keep probability).
//! * [`energy`] — the `E ∝ R⁴` pulse-energy model behind Table II.
//! * [`corrupt`] — KITTI-C-style corruptions (snow, fog, rain, beam-missing,
//!   motion blur, crosstalk, cross-sensor interference).
//!
//! The geometric properties the experiments rely on (occupancy statistics,
//! masking ratios, range distributions) are properties of the simulator's
//! physics, not of any particular dataset — which is what makes the
//! substitution sound.
//!
//! ## Example
//!
//! ```
//! use sensact_lidar::{scene::SceneGenerator, raycast::{Lidar, LidarConfig}};
//!
//! let scene = SceneGenerator::new(42).generate();
//! let lidar = Lidar::new(LidarConfig::default());
//! let scan = lidar.scan(&scene);
//! assert!(scan.len() > 1000);
//! ```

pub mod corrupt;
pub mod energy;
pub mod mask;
pub mod pointcloud;
pub mod raycast;
pub mod scene;
pub mod voxel;

pub use corrupt::{Corruption, CorruptionKind};
pub use energy::EnergyModel;
pub use mask::RadialMask;
pub use pointcloud::{Point, PointCloud};
pub use raycast::{Lidar, LidarConfig};
pub use scene::{ObjectClass, Scene, SceneGenerator, SceneObject};
pub use voxel::{VoxelGrid, VoxelizerConfig};
