//! Pulse-energy model behind Table II.
//!
//! For a LiDAR return from range `R`, the received power falls as `R⁴`
//! (two-way spreading of a collimated beam with diffuse reflection), so the
//! transmit energy needed for a detectable return scales as
//! `E(R) = E_max · (R / R_max)⁴`, floored at the receiver sensitivity limit.
//!
//! A **conventional** sensor does not know the scene, so every pulse fires at
//! `E_max` (Table II: 50 µJ per pulse). An **adaptive** (R-MAE-style) sensor
//! fires only the masked subset and can budget each pulse for its expected
//! range, giving the paper's ~9× combined sensing+compute energy advantage.

use crate::pointcloud::PointCloud;

/// Energy of a full-power pulse reaching the design range (joules): Table
/// II's 50 µJ.
const MAX_PULSE_ENERGY: f64 = 50e-6;
/// Design maximum range (metres).
const MAX_RANGE: f64 = 80.0;

/// Radiometric model of the pulse laser: a 50 µJ full-power pulse reaches
/// 80 m.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Minimum pulse energy (receiver floor), joules.
    pub min_pulse_energy: f64,
}

impl Default for EnergyModel {
    /// Table II values: 0.5 µJ floor.
    fn default() -> Self {
        EnergyModel {
            min_pulse_energy: 0.5e-6,
        }
    }
}

impl EnergyModel {
    /// Transmit energy (joules) required for a detectable return at `range`.
    ///
    /// Scales as `R⁴`, clamped to `[min_pulse_energy, 50 µJ]`.
    pub(crate) fn pulse_energy(&self, range: f64) -> f64 {
        let r = (range / MAX_RANGE).clamp(0.0, 1.0);
        (MAX_PULSE_ENERGY * r.powi(4)).max(self.min_pulse_energy)
    }

    /// Energy of one conventional full-scan: every pulse at full power.
    pub fn conventional_scan_energy(&self, pulses: usize) -> f64 {
        MAX_PULSE_ENERGY * pulses as f64
    }

    /// Energy ledger of an adaptive scan that fired pulses budgeted for the
    /// ranges actually measured, plus unreturned pulses at a given budget.
    pub fn adaptive_scan_energy(
        &self,
        cloud: &PointCloud,
        fired: usize,
        no_return_budget: f64,
    ) -> ScanEnergyReport {
        let returned = cloud.len();
        let mut total = 0.0;
        for p in cloud {
            total += self.pulse_energy(p.range);
        }
        let misses = fired.saturating_sub(returned);
        total += misses as f64 * no_return_budget;
        ScanEnergyReport {
            pulses_fired: fired,
            returns: returned,
            total_energy_j: total,
            mean_pulse_energy_j: if fired == 0 {
                0.0
            } else {
                total / fired as f64
            },
        }
    }
}

/// Energy accounting for one scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanEnergyReport {
    /// Pulses actually fired.
    pub pulses_fired: usize,
    /// Pulses that produced a return.
    pub returns: usize,
    /// Total transmit energy (joules).
    pub total_energy_j: f64,
    /// Mean energy per fired pulse (joules).
    pub mean_pulse_energy_j: f64,
}

impl ScanEnergyReport {
    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.total_energy_j * 1e3
    }

    /// Mean pulse energy in microjoules.
    pub fn mean_pulse_uj(&self) -> f64 {
        self.mean_pulse_energy_j * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::{RadialMask, RadialMaskConfig};
    use crate::raycast::{Lidar, LidarConfig};
    use crate::scene::SceneGenerator;

    #[test]
    fn pulse_energy_r4_scaling() {
        let m = EnergyModel::default();
        let full = m.pulse_energy(80.0);
        let half = m.pulse_energy(40.0);
        assert!((full - 50e-6).abs() < 1e-12);
        // (1/2)^4 = 1/16.
        assert!((half - 50e-6 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn pulse_energy_floor_and_clamp() {
        let m = EnergyModel::default();
        assert_eq!(m.pulse_energy(0.0), m.min_pulse_energy);
        assert_eq!(m.pulse_energy(1.0), m.min_pulse_energy);
        // Beyond max range clamps to full power.
        assert_eq!(m.pulse_energy(200.0), MAX_PULSE_ENERGY);
    }

    #[test]
    fn conventional_scan_energy_matches_table2_scale() {
        let m = EnergyModel::default();
        // Table II: 72 mJ per scan at 50 µJ/pulse → 1440 pulses.
        let e = m.conventional_scan_energy(1440);
        assert!((e * 1e3 - 72.0).abs() < 1e-9, "conventional {} mJ", e * 1e3);
    }

    #[test]
    fn adaptive_scan_much_cheaper_than_conventional() {
        let scene = SceneGenerator::new(7).generate();
        let lidar = Lidar::new(LidarConfig::default());
        let model = EnergyModel::default();

        let full = lidar.scan(&scene);
        let conventional = model.conventional_scan_energy(lidar.config().pulses_per_scan());

        let mut mask = RadialMask::sample(RadialMaskConfig::default(), 512, 1);
        let expected = full.mean_range();
        let (masked_cloud, fired) = lidar.scan_masked(&scene, |_, az| mask.fire(az, expected));
        let adaptive = model.adaptive_scan_energy(&masked_cloud, fired, model.min_pulse_energy);

        let factor = conventional / adaptive.total_energy_j;
        assert!(
            factor > 5.0,
            "adaptive saving only {factor:.1}x (paper: ~9x at sensing level)"
        );
        // Mean adaptive pulse energy well under the 50 µJ full-power pulse.
        assert!(
            adaptive.mean_pulse_uj() < 25.0,
            "mean pulse {} µJ",
            adaptive.mean_pulse_uj()
        );
    }

    #[test]
    fn report_unit_conversions() {
        let r = ScanEnergyReport {
            pulses_fired: 10,
            returns: 10,
            total_energy_j: 0.002,
            mean_pulse_energy_j: 0.0002,
        };
        assert!((r.total_mj() - 2.0).abs() < 1e-12);
        assert!((r.mean_pulse_uj() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn empty_fired_report_is_zero() {
        let model = EnergyModel::default();
        let r = model.adaptive_scan_energy(&PointCloud::new(), 0, 1e-6);
        assert_eq!(r.total_energy_j, 0.0);
        assert_eq!(r.mean_pulse_energy_j, 0.0);
    }

    #[test]
    fn misses_charged_at_budget() {
        let model = EnergyModel::default();
        let r = model.adaptive_scan_energy(&PointCloud::new(), 100, 1e-6);
        assert!((r.total_energy_j - 100e-6).abs() < 1e-12);
    }
}
