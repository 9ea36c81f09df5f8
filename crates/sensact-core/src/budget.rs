//! Energy and latency budgets.
//!
//! Edge platforms run from batteries and deadlines; the paper's co-design
//! thesis is that sensing/compute effort must be allocated against explicit
//! budgets. [`EnergyBudget`] tracks consumption against a capacity and
//! reports pressure, which the adaptation policies use to throttle sensing.

use crate::checkpoint::{Checkpoint, CheckpointError, Section, StageState};

/// A consumable energy budget.
///
/// Per-tick deadlines are the fleet scheduler's job (its `deadline_misses`
/// column); this budget counts none. A `deadline_misses` word in an older
/// checkpoint's budget section is ignored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBudget {
    capacity_j: f64,
    consumed_j: f64,
}

impl EnergyBudget {
    /// A finite budget of `capacity_j` joules.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_j` is not positive.
    pub fn new(capacity_j: f64) -> Self {
        assert!(capacity_j > 0.0, "capacity must be positive");
        EnergyBudget {
            capacity_j,
            consumed_j: 0.0,
        }
    }

    /// An effectively unlimited budget.
    pub fn unlimited() -> Self {
        EnergyBudget::new(f64::INFINITY)
    }

    /// Record one tick's consumption.
    pub(crate) fn consume(&mut self, energy_j: f64) {
        self.consumed_j += energy_j.max(0.0);
    }

    /// Total energy consumed (joules).
    pub fn consumed_j(&self) -> f64 {
        self.consumed_j
    }

    /// Whether the budget is exhausted.
    pub(crate) fn exhausted(&self) -> bool {
        self.consumed_j >= self.capacity_j
    }

    /// Fraction of capacity consumed, in `[0, 1]` (0 for unlimited).
    pub(crate) fn pressure(&self) -> f64 {
        if self.capacity_j.is_infinite() {
            0.0
        } else {
            (self.consumed_j / self.capacity_j).clamp(0.0, 1.0)
        }
    }
}

impl Default for EnergyBudget {
    fn default() -> Self {
        EnergyBudget::unlimited()
    }
}

impl StageState for EnergyBudget {
    fn save_state(&self, ckpt: &mut Checkpoint, ns: &str) {
        let mut s = Section::new(ns);
        // `consumed_j` drives pressure, which drives the adaptation
        // policies — restoring it bit-exactly is what keeps a resumed loop's
        // adaptation decisions on the recorded trajectory.
        s.put_f64("consumed_j", self.consumed_j);
        ckpt.push(s);
    }

    fn restore_state(&mut self, ckpt: &Checkpoint, ns: &str) -> Result<(), CheckpointError> {
        let s = ckpt.section(ns)?;
        // `consume` only ever yields a non-NaN value ≥ 0 (+∞ included). A NaN
        // would make `exhausted()` false forever and `pressure()` NaN; a
        // negative value would refund the budget.
        let consumed_j = s.get_f64("consumed_j")?;
        s.check("consumed_j", consumed_j >= 0.0)?;
        self.consumed_j = consumed_j;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumption_and_pressure() {
        let mut b = EnergyBudget::new(10.0);
        assert_eq!(b.pressure(), 0.0);
        b.consume(2.5);
        assert_eq!(b.consumed_j(), 2.5);
        assert_eq!(b.pressure(), 0.25);
        assert!(!b.exhausted());
        b.consume(20.0);
        assert!(b.exhausted());
        assert_eq!(b.pressure(), 1.0);
    }

    #[test]
    fn unlimited_budget_never_pressures() {
        let mut b = EnergyBudget::unlimited();
        b.consume(1e12);
        assert_eq!(b.pressure(), 0.0);
        assert!(!b.exhausted());
    }

    #[test]
    fn negative_energy_ignored() {
        let mut b = EnergyBudget::new(10.0);
        b.consume(-5.0);
        assert_eq!(b.consumed_j(), 0.0);
    }

    /// A checkpoint is outside input: a consumed energy `consume` could never
    /// have produced is refused and the budget left as it was.
    #[test]
    fn restore_rejects_impossible_consumed_energy() {
        let mut live = EnergyBudget::new(10.0);
        live.consume(2.5);
        let restore = |consumed_j: f64| {
            let mut s = Section::new("budget");
            s.put_f64("consumed_j", consumed_j);
            let mut ckpt = Checkpoint::new("b");
            ckpt.push(s);
            let mut b = live;
            (b.restore_state(&ckpt, "budget"), b)
        };
        for bad in [f64::NAN, -0.5, f64::NEG_INFINITY] {
            let (result, b) = restore(bad);
            let refused = CheckpointError::BadValue("budget.consumed_j".into());
            assert_eq!(result, Err(refused), "consumed_j = {bad}");
            assert_eq!(b, live, "a refused restore leaves the budget untouched");
        }
        // +∞ is what a loop fed an infinite charge holds.
        let (result, b) = restore(f64::INFINITY);
        assert_eq!(result, Ok(()));
        assert!(b.exhausted());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = EnergyBudget::new(0.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use sensact_math::rng::StdRng;

    /// Consumption accounting is exact and pressure is monotone.
    #[test]
    fn prop_budget_accounting() {
        let mut rng = StdRng::seed_from_u64(0xB0D601);
        for _ in 0..256 {
            let capacity = rng.random_range(0.1..1e6);
            let n = rng.random_range(1..32usize);
            let charges: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..100.0)).collect();
            let mut b = EnergyBudget::new(capacity);
            let mut prev_pressure = 0.0;
            let mut total = 0.0;
            for c in &charges {
                b.consume(*c);
                total += c;
                assert!((b.consumed_j() - total).abs() < 1e-9);
                assert!(b.pressure() >= prev_pressure - 1e-12);
                prev_pressure = b.pressure();
            }
            assert_eq!(b.exhausted(), total >= capacity);
        }
    }
}
