//! # sensact-rmae
//!
//! Generative sensing (paper §III): *sense less, generate more*.
//!
//! R-MAE reimagines the LiDAR–environment interaction: instead of scanning
//! the full 360° at full power, the sensor fires only a radially-masked ~10 %
//! subset of pulses and a masked occupancy autoencoder reconstructs the rest
//! of the scene. This crate implements:
//!
//! * [`model`] — the occupancy autoencoder: a strided, site-sparse 3-D
//!   conv encoder and a deconvolution decoder trained with
//!   positively-weighted BCE (occupied voxels are rare).
//! * [`pretrain`] — masked-occupancy pre-training under the paper's masking
//!   strategy plus the OccMAE/ALSO-style baselines of Table I.
//! * [`detect`] — two voxel detectors standing in for SECOND (single-stage)
//!   and PV-RCNN (two-stage point-refined), as capacity tiers for Table I.
//! * [`eval`] — the Table I / Table II evaluation harness pieces: per-class
//!   AP of the full sparse-scan → reconstruct → detect pipeline.
//!
//! ## Example
//!
//! ```no_run
//! use sensact_rmae::{model::{RmaeConfig, RmaeModel}, pretrain::{Pretrainer, Strategy}};
//! use sensact_lidar::scene::SceneGenerator;
//!
//! let config = RmaeConfig::small();
//! let mut trainer = Pretrainer::new(RmaeModel::new(config, 0), Strategy::RadialMae, 0);
//! let scenes = SceneGenerator::new(1).generate_many(8);
//! let loss = trainer.train(&scenes, 5);
//! assert!(loss.is_finite());
//! ```

pub mod detect;
pub mod eval;
pub mod model;
pub mod pretrain;

/// The dense conv lowering `sensact-nn`'s tests check the layers against:
/// the model tests run whole reconstructs through it.
#[cfg(test)]
#[path = "../../sensact-nn/src/conv_oracle.rs"]
#[allow(dead_code)]
mod conv_oracle;

pub use detect::Detector;
pub use eval::PipelineConfig;
pub use model::{RmaeConfig, RmaeModel};
pub use pretrain::{Pretrainer, Strategy};
