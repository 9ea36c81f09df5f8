//! Parameter and compute accounting.
//!
//! Table II reports the R-MAE model at ~830 K parameters and ~335 M FLOPs per
//! 360° scan; Fig. 5a ranks dynamics models by MAC count. This module turns a
//! layer stack into those numbers.

use crate::layers::Layer;

/// Compute/parameter statistics of a model at a given batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModelStats {
    /// Trainable parameter count.
    pub params: usize,
    /// Multiply-accumulate operations for one forward pass.
    pub macs: u64,
}

impl ModelStats {
    /// Gather stats from any layer (typically a `Sequential`).
    pub fn of(layer: &dyn Layer, batch: usize) -> Self {
        ModelStats {
            params: layer.param_count(),
            macs: layer.macs(batch),
        }
    }

    /// FLOPs ≈ 2 × MACs (one multiply + one add).
    pub fn flops(&self) -> u64 {
        self.macs * 2
    }
}

impl std::fmt::Display for ModelStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} params, {} MACs ({} FLOPs)",
            self.params,
            self.macs,
            self.flops()
        )
    }
}

/// Energy model for digital MAC arrays, used to convert compute counts into
/// energy figures (Table II's reconstruction-overhead row and the HaLo-FL
/// hardware simulator).
///
/// The per-MAC energy scales with operand precision: multiplier energy is
/// roughly quadratic in bit-width, adder linear; we use the standard
/// `E(b) = E₈ · (b/8)^1.25` interpolation for fixed-point and a constant for
/// FP32 reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacEnergyModel {
    /// Energy of one 8-bit MAC in picojoules.
    pub pj_per_mac_int8: f64,
}

impl MacEnergyModel {
    /// 45 nm-class default: 0.23 pJ per INT8 MAC (Horowitz ISSCC'14 scale).
    pub(crate) fn default_45nm() -> Self {
        MacEnergyModel {
            pj_per_mac_int8: 0.23,
        }
    }

    /// Energy in picojoules of one MAC at `bits` operand precision.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub(crate) fn pj_per_mac(&self, bits: u8) -> f64 {
        assert!(bits > 0, "bits must be positive");
        self.pj_per_mac_int8 * (bits as f64 / 8.0).powf(1.25)
    }

    /// Total energy in millijoules for `macs` operations at `bits` precision.
    pub fn energy_mj(&self, macs: u64, bits: u8) -> f64 {
        self.pj_per_mac(bits) * macs as f64 * 1e-9
    }
}

impl Default for MacEnergyModel {
    fn default() -> Self {
        Self::default_45nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use crate::layers::Dense;
    use crate::sequential::Sequential;

    #[test]
    fn stats_of_sequential() {
        let mut init = Initializer::new(0);
        let net = Sequential::new(vec![
            Box::new(Dense::new(10, 20, &mut init)),
            Box::new(Dense::new(20, 5, &mut init)),
        ]);
        let s = ModelStats::of(&net, 3);
        assert_eq!(s.params, (10 * 20 + 20) + (20 * 5 + 5));
        assert_eq!(s.macs, 3 * (10 * 20 + 20 * 5) as u64);
        assert_eq!(s.flops(), 2 * s.macs);
    }

    #[test]
    fn display_mentions_flops() {
        let s = ModelStats { params: 3, macs: 7 };
        assert!(s.to_string().contains("14 FLOPs"));
    }

    #[test]
    fn energy_scales_with_precision() {
        let m = MacEnergyModel::default();
        let e4 = m.pj_per_mac(4);
        let e8 = m.pj_per_mac(8);
        let e16 = m.pj_per_mac(16);
        assert!(e4 < e8 && e8 < e16);
        assert_eq!(e8, m.pj_per_mac_int8);
        // Super-linear growth.
        assert!(e16 / e8 > 2.0);
    }

    #[test]
    fn energy_mj_unit_conversion() {
        let m = MacEnergyModel {
            pj_per_mac_int8: 1.0,
        };
        // 1e9 MACs at 1 pJ = 1 mJ.
        assert!((m.energy_mj(1_000_000_000, 8) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bits must be positive")]
    fn zero_bits_panics() {
        let _ = MacEnergyModel::default().pj_per_mac(0);
    }
}
