//! Spike-count energy accounting.
//!
//! The neuromorphic claim (Fig. 2/8/9) rests on operation-level energy: a
//! clocked ANN pays one multiply-accumulate per synapse per inference, while
//! an event-driven SNN pays one *accumulate* per synapse **per spike** — and
//! spikes are sparse. We use the standard 45 nm figures (Horowitz, ISSCC'14):
//! ~4.6 pJ per 32-bit MAC, ~0.9 pJ per 32-bit add.

/// Per-operation energy figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpEnergy {
    /// Energy of one multiply-accumulate (pJ).
    pub mac_pj: f64,
    /// Energy of one accumulate (pJ).
    pub ac_pj: f64,
}

impl Default for OpEnergy {
    /// 45 nm, 32-bit: MAC 4.6 pJ, AC 0.9 pJ.
    fn default() -> Self {
        OpEnergy {
            mac_pj: 4.6,
            ac_pj: 0.9,
        }
    }
}

/// Accumulated operation counts for one inference (or one loop tick).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyLedger {
    /// Multiply-accumulate operations (dense/analog layers).
    pub macs: u64,
    /// Accumulate-only operations (spike-driven synapses).
    pub acs: u64,
}

impl EnergyLedger {
    /// Empty ledger.
    pub(crate) fn new() -> Self {
        EnergyLedger::default()
    }

    /// Add MAC operations.
    pub(crate) fn add_macs(&mut self, n: u64) {
        self.macs += n;
    }

    /// Add accumulate operations.
    pub(crate) fn add_acs(&mut self, n: u64) {
        self.acs += n;
    }

    /// Total energy in microjoules under an [`OpEnergy`] model.
    pub fn energy_uj(&self, model: &OpEnergy) -> f64 {
        (self.macs as f64 * model.mac_pj + self.acs as f64 * model.ac_pj) * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_pricier_than_ac() {
        let m = OpEnergy::default();
        assert!(m.mac_pj > m.ac_pj * 3.0);
    }

    #[test]
    fn ledger_arithmetic() {
        let mut a = EnergyLedger::new();
        a.add_macs(1000);
        a.add_acs(500);
        a.add_acs(500);
        assert_eq!(a.macs, 1000);
        assert_eq!(a.acs, 1000);
    }

    #[test]
    fn energy_unit_conversion() {
        let model = OpEnergy {
            mac_pj: 1.0,
            ac_pj: 1.0,
        };
        let ledger = EnergyLedger {
            macs: 1_000_000,
            acs: 0,
        };
        // 1e6 ops × 1 pJ = 1 µJ.
        assert!((ledger.energy_uj(&model) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_snn_beats_dense_ann() {
        // Same synapse count; SNN active on 10 % of synapses via spikes.
        let model = OpEnergy::default();
        let ann = EnergyLedger {
            macs: 100_000,
            acs: 0,
        };
        let snn = EnergyLedger {
            macs: 0,
            acs: 10_000,
        };
        let ratio = ann.energy_uj(&model) / snn.energy_uj(&model);
        assert!(ratio > 10.0, "ANN/SNN ratio {ratio}");
    }
}
