//! Fleet-wide energy-budget arbitration.
//!
//! The paper's §II energy-latency co-design knob, lifted to fleet scope:
//! when the fleet's summed charged energy, averaged over virtual time,
//! exceeds a configured watts cap, the arbiter stretches every loop's
//! release stride by the overshoot factor — tick rates throttle smoothly
//! until the average power drops back under the cap.
//!
//! The scheduler also hands each loop the stretch it was just given
//! ([`DynLoop::set_energy_stretch`](crate::DynLoop::set_energy_stretch)); a
//! communicating loop sizes its uploads from it ([`EnergyArbiter::wire_bits`]).

/// Upper bound on the stride stretch so a single pathological tick cannot
/// freeze the fleet.
const MAX_STRETCH: f64 = 64.0;

/// Tracks fleet energy burn against an optional watts cap and yields the
/// current release-stride stretch factor (`1.0` = no throttling).
#[derive(Debug, Clone)]
pub struct EnergyArbiter {
    watts_cap: Option<f64>,
    energy_j: f64,
    now_s: f64,
    stretch: f64,
    throttle_events: u64,
}

impl EnergyArbiter {
    /// An arbiter with an optional fleet-average watts cap.
    pub(crate) fn new(watts_cap: Option<f64>) -> Self {
        EnergyArbiter {
            watts_cap,
            energy_j: 0.0,
            now_s: 0.0,
            stretch: 1.0,
            throttle_events: 0,
        }
    }

    /// Account one completed tick and return the stride stretch to apply to
    /// the loop's next release. Non-finite energy (a NaN-poisoned tick) is
    /// accounted as zero so one poisoned loop cannot throttle the fleet
    /// forever.
    pub(crate) fn on_completion(&mut self, energy_j: f64, completion_s: f64) -> f64 {
        if energy_j.is_finite() && energy_j > 0.0 {
            self.energy_j += energy_j;
        }
        if completion_s.is_finite() && completion_s > self.now_s {
            self.now_s = completion_s;
        }
        if let Some(cap) = self.watts_cap {
            if cap > 0.0 && self.now_s > 0.0 {
                let watts = self.energy_j / self.now_s;
                if watts.is_finite() {
                    self.stretch = (watts / cap).clamp(1.0, MAX_STRETCH);
                    if self.stretch > 1.0 {
                        self.throttle_events += 1;
                    }
                }
            }
        }
        self.stretch
    }

    /// Total energy accounted (joules).
    pub(crate) fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Completions that observed an over-cap fleet (throttled releases).
    pub(crate) fn throttle_events(&self) -> u64 {
        self.throttle_events
    }

    /// Map a stride stretch to a wire quantization (bits per model
    /// parameter) for communication throttling: the same overshoot that
    /// slows ticks also shrinks uploads. At or near the cap a loop ships
    /// f16-quantized deltas (16 bits), beyond 1.5× overshoot 8-bit, from 4×
    /// on 4-bit — matching HALO-FL's precision-scaled payload model.
    pub fn wire_bits(stretch: f64) -> u8 {
        if stretch >= 4.0 {
            4
        } else if stretch > 1.5 {
            8
        } else {
            16
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncapped_arbiter_never_throttles() {
        let mut a = EnergyArbiter::new(None);
        for k in 1..100 {
            assert_eq!(a.on_completion(1.0, k as f64 * 1e-3), 1.0);
        }
        assert_eq!(a.throttle_events(), 0);
        assert!(a.energy_j / a.now_s > 0.0);
    }

    #[test]
    fn over_cap_burn_stretches_strides_proportionally() {
        // 2 J over 1 s against a 0.5 W cap ⇒ 4× overshoot ⇒ 4× stretch.
        let mut a = EnergyArbiter::new(Some(0.5));
        let s = a.on_completion(2.0, 1.0);
        assert!((s - 4.0).abs() < 1e-12, "stretch {s}");
        assert_eq!(a.throttle_events(), 1);
        // Burning nothing for a while relaxes the stretch back toward 1.
        let s = a.on_completion(0.0, 4.0);
        assert!((s - 1.0).abs() < 1e-12, "relaxed stretch {s}");
        assert!((a.energy_j / a.now_s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn under_cap_burn_is_untouched() {
        let mut a = EnergyArbiter::new(Some(10.0));
        assert_eq!(a.on_completion(1.0, 1.0), 1.0);
        assert_eq!(a.throttle_events(), 0);
    }

    #[test]
    fn wire_bits_shrink_with_overshoot() {
        for (stretch, bits) in [
            (1.0, 16),
            (1.5, 16),
            (1.5000001, 8),
            (3.9999999, 8),
            (4.0, 4),
            (MAX_STRETCH, 4),
        ] {
            assert_eq!(EnergyArbiter::wire_bits(stretch), bits, "stretch {stretch}");
        }
        // What an arbiter actually hands out: 1.2× / 2× / 8× overshoot.
        for (energy_j, bits) in [(1.2, 16), (2.0, 8), (8.0, 4)] {
            let mut a = EnergyArbiter::new(Some(1.0));
            let stretch = a.on_completion(energy_j, 1.0);
            assert_eq!(EnergyArbiter::wire_bits(stretch), bits, "{energy_j} J/s");
        }
    }

    #[test]
    fn stretch_is_bounded_and_nan_energy_ignored() {
        let mut a = EnergyArbiter::new(Some(1e-12));
        let s = a.on_completion(1e6, 1.0);
        assert_eq!(s, MAX_STRETCH);
        let before = a.energy_j();
        let _ = a.on_completion(f64::NAN, 2.0);
        assert_eq!(a.energy_j(), before);
    }
}
