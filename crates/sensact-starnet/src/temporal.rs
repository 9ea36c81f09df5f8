//! Temporal consistency monitoring (paper §V, future enhancements).
//!
//! The per-frame likelihood-regret score catches abrupt corruption; *gradual*
//! sensor degradation (dust build-up, slow de-calibration, aging emitters)
//! raises the score so slowly that any fixed threshold fires either too early
//! or too late. The [`TemporalConsistency`] tracker watches the score
//! *sequence* instead: an exponentially-weighted short-term mean is compared
//! against a frozen-baseline long-term mean, and a sustained upward drift —
//! however small per frame — accumulates into a drift statistic (a CUSUM-style
//! one-sided test).

use sensact_core::checkpoint::{
    get_opt_state, put_opt_state, Checkpoint, CheckpointError, Section, StageState,
};
use sensact_core::stage::Trust;

/// Smoothing factor of the short-term mean, in `(0, 1]`.
const SHORT_ALPHA: f64 = 0.2;
/// Frames used to freeze the long-term baseline.
const BASELINE_FRAMES: usize = 20;
/// Per-frame slack added before drift accumulates (CUSUM `k`).
const SLACK: f64 = 0.05;
/// Accumulated drift at which the stream becomes suspect (CUSUM `h`).
const SUSPECT_DRIFT: f64 = 0.5;
/// Accumulated drift at which the stream becomes untrusted.
const UNTRUSTED_DRIFT: f64 = 1.5;

/// CUSUM-style drift detector over a monitor-score stream: a 0.2 short-term
/// smoothing factor, a baseline frozen over 20 frames, a 0.05 per-frame
/// slack, and drift thresholds 0.5 (suspect) and 1.5 (untrusted).
#[derive(Debug, Clone)]
pub struct TemporalConsistency {
    short_mean: f64,
    baseline_sum: f64,
    baseline_count: usize,
    baseline: Option<f64>,
    drift: f64,
    frames: u64,
}

impl TemporalConsistency {
    /// New tracker.
    pub fn new() -> Self {
        TemporalConsistency {
            short_mean: 0.0,
            baseline_sum: 0.0,
            baseline_count: 0,
            baseline: None,
            drift: 0.0,
            frames: 0,
        }
    }

    /// Feed one per-frame score; returns the current drift verdict.
    ///
    /// During the first 20 frames the tracker calibrates and always
    /// reports [`Trust::Trusted`].
    pub fn observe(&mut self, score: f64) -> Trust {
        self.frames = self.frames.wrapping_add(1);
        if self.frames == 1 {
            self.short_mean = score;
        } else {
            self.short_mean = (1.0 - SHORT_ALPHA) * self.short_mean + SHORT_ALPHA * score;
        }
        match self.baseline {
            None => {
                self.baseline_sum += score;
                self.baseline_count += 1;
                if self.baseline_count >= BASELINE_FRAMES {
                    let mean = self.baseline_sum / self.baseline_count as f64;
                    self.baseline = Some(mean);
                }
                Trust::Trusted
            }
            Some(baseline) => {
                // Normalized exceedance of the short-term mean over baseline.
                let exceed = (self.short_mean - baseline) / baseline.abs().max(1e-6);
                self.drift = (self.drift + exceed - SLACK).max(0.0);
                if self.drift >= UNTRUSTED_DRIFT {
                    Trust::Untrusted
                } else if self.drift >= SUSPECT_DRIFT {
                    let span = (UNTRUSTED_DRIFT - SUSPECT_DRIFT).max(1e-12);
                    Trust::Suspect(((self.drift - SUSPECT_DRIFT) / span).clamp(0.05, 1.0))
                } else {
                    Trust::Trusted
                }
            }
        }
    }

    /// Accumulated drift statistic.
    pub fn drift(&self) -> f64 {
        self.drift
    }
}

impl Default for TemporalConsistency {
    fn default() -> Self {
        Self::new()
    }
}

impl StageState for TemporalConsistency {
    fn save_state(&self, ckpt: &mut Checkpoint, ns: &str) {
        let mut s = Section::new(ns);
        // Every mutable field travels: the frozen baseline is *state* (it
        // depends on the frames seen before the snapshot), not configuration
        // — dropping it would re-enter calibration and mask an in-progress
        // drift alarm. Its scale is derived from it where it is used.
        s.put_f64("short_mean", self.short_mean);
        s.put_f64("baseline_sum", self.baseline_sum);
        s.put_u64("baseline_count", self.baseline_count as u64);
        put_opt_state(&mut s, "baseline", &self.baseline);
        s.put_f64("drift", self.drift);
        s.put_u64("frames", self.frames);
        ckpt.push(s);
    }

    fn restore_state(&mut self, ckpt: &Checkpoint, ns: &str) -> Result<(), CheckpointError> {
        let s = ckpt.section(ns)?;
        *self = TemporalConsistency {
            short_mean: s.get_f64("short_mean")?,
            baseline_sum: s.get_f64("baseline_sum")?,
            baseline_count: s.get_as("baseline_count")?,
            baseline: get_opt_state(s, "baseline")?,
            drift: s.get_f64("drift")?,
            frames: s.get_u64("frames")?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensact_math::rng::StdRng;

    fn noisy(rng: &mut StdRng, level: f64) -> f64 {
        level * (0.8 + 0.4 * rng.random::<f64>())
    }

    #[test]
    fn stable_stream_stays_trusted() {
        let mut tracker = TemporalConsistency::new();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            assert_eq!(tracker.observe(noisy(&mut rng, 1.0)), Trust::Trusted);
        }
        assert!(tracker.drift() < 0.5);
    }

    #[test]
    fn gradual_degradation_detected() {
        // Score creeps up 0.6 % per frame — invisible to any single-frame
        // threshold, unmistakable to the drift statistic.
        let mut tracker = TemporalConsistency::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut verdicts = Vec::new();
        for t in 0..400 {
            let level = 1.0 * 1.006f64.powi(t);
            verdicts.push(tracker.observe(noisy(&mut rng, level)));
        }
        assert!(
            matches!(verdicts.last(), Some(Trust::Untrusted)),
            "drift never reached untrusted: {:?}",
            tracker.drift()
        );
        // And it fired after calibration, not immediately.
        let first_alarm = verdicts
            .iter()
            .position(|v| !matches!(v, Trust::Trusted))
            .unwrap();
        assert!(first_alarm > 20, "alarm at frame {first_alarm}");
    }

    #[test]
    fn step_degradation_detected_quickly() {
        let mut tracker = TemporalConsistency::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let _ = tracker.observe(noisy(&mut rng, 1.0));
        }
        let mut frames_to_alarm = None;
        for t in 0..60 {
            if !matches!(tracker.observe(noisy(&mut rng, 2.5)), Trust::Trusted) {
                frames_to_alarm = Some(t);
                break;
            }
        }
        let frames = frames_to_alarm.expect("step change never detected");
        assert!(frames < 20, "took {frames} frames");
    }

    #[test]
    fn calibration_window_always_trusted() {
        let mut tracker = TemporalConsistency::new();
        for _ in 0..20 {
            assert_eq!(tracker.observe(100.0), Trust::Trusted);
        }
        assert!(tracker.baseline.is_some());
    }

    /// Snapshot/restore must carry the CUSUM state mid-accumulation: the
    /// resumed tracker alarms at exactly the same frame as the uninterrupted
    /// one, both when cut during calibration and mid-drift.
    #[test]
    fn checkpoint_resumes_drift_accumulation_exactly() {
        let scores: Vec<f64> = (0..300)
            .map(|t| 1.0 * 1.006f64.powi(t) * (0.9 + 0.01 * (t % 7) as f64))
            .collect();
        let mut reference = TemporalConsistency::new();
        let full: Vec<Trust> = scores.iter().map(|s| reference.observe(*s)).collect();
        for cut in [5usize, 20, 150] {
            let mut a = TemporalConsistency::new();
            for s in &scores[..cut] {
                let _ = a.observe(*s);
            }
            let mut ckpt = Checkpoint::new("tc");
            a.save_state(&mut ckpt, "tc");
            let ckpt = Checkpoint::from_jsonl(&ckpt.to_jsonl()).unwrap();
            let mut b = TemporalConsistency::new();
            b.restore_state(&ckpt, "tc").unwrap();
            assert_eq!(b.baseline, a.baseline);
            assert_eq!(b.drift().to_bits(), a.drift().to_bits());
            let tail: Vec<Trust> = scores[cut..].iter().map(|s| b.observe(*s)).collect();
            assert_eq!(tail, full[cut..], "verdicts diverged after cut {cut}");
        }
    }

    /// The drift scale is the baseline's, not the document's: a section
    /// carrying a `baseline_scale` of 0 or a negative value (as older writers
    /// put one) restores onto a calibrated tracker that drifts exactly like
    /// its uninterrupted twin, from trusted through to untrusted.
    #[test]
    fn a_scale_on_the_wire_cannot_bend_the_drift() {
        const CUT: usize = 24;
        let scores: Vec<f64> = (0..300)
            .map(|t| 1.006f64.powi(t) * (0.9 + 0.01 * (t % 7) as f64))
            .collect();
        let mut reference = TemporalConsistency::new();
        let full: Vec<Trust> = scores.iter().map(|s| reference.observe(*s)).collect();
        assert_eq!(full[CUT], Trust::Trusted);
        assert!(matches!(full.last(), Some(Trust::Untrusted)), "drift fires");
        let mut a = TemporalConsistency::new();
        for s in &scores[..CUT] {
            let _ = a.observe(*s);
        }
        let mut saved = Checkpoint::new("tc");
        a.save_state(&mut saved, "tc");
        for scale in [0.0, -0.5] {
            let mut s = saved.section("tc").unwrap().clone();
            s.put_f64("baseline_scale", scale);
            let mut hostile = Checkpoint::new("tc");
            hostile.push(s);
            let mut b = TemporalConsistency::new();
            b.restore_state(&hostile, "tc").unwrap();
            let tail: Vec<Trust> = scores[CUT..].iter().map(|s| b.observe(*s)).collect();
            assert_eq!(tail, full[CUT..], "baseline_scale = {scale}");
            assert_eq!(b.drift().to_bits(), reference.drift().to_bits());
        }
    }

    /// A section missing its last field (`frames`) is refused and the
    /// tracker keeps every field it had: the reader assigns nothing until
    /// the whole section has decoded.
    #[test]
    fn a_refused_restore_leaves_the_tracker_unchanged() {
        let saved = |t: &TemporalConsistency| {
            let mut ckpt = Checkpoint::new("tc");
            t.save_state(&mut ckpt, "tc");
            ckpt
        };
        let mut donor = TemporalConsistency::new();
        for k in 0..30 {
            let _ = donor.observe(1.0 + 0.1 * f64::from(k % 3));
        }
        let donor = saved(&donor).section("tc").unwrap().clone();
        let mut hostile = Section::new("tc");
        for key in ["short_mean", "baseline_sum", "drift"] {
            hostile.put_f64(key, donor.get_f64(key).unwrap());
        }
        hostile.put_u64("baseline_count", donor.get_u64("baseline_count").unwrap());
        put_opt_state(
            &mut hostile,
            "baseline",
            &get_opt_state::<f64>(&donor, "baseline").unwrap(),
        );
        let mut ckpt = Checkpoint::new("tc");
        ckpt.push(hostile);

        let mut target = TemporalConsistency::new();
        let before = saved(&target);
        assert_eq!(
            target.restore_state(&ckpt, "tc"),
            Err(CheckpointError::MissingField("tc.frames".into()))
        );
        assert_eq!(saved(&target), before);
    }

    #[test]
    fn recovery_drains_drift() {
        let mut tracker = TemporalConsistency::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let _ = tracker.observe(noisy(&mut rng, 1.0));
        }
        for _ in 0..20 {
            let _ = tracker.observe(noisy(&mut rng, 2.0));
        }
        let peak = tracker.drift();
        assert!(peak > 0.0);
        for _ in 0..200 {
            let _ = tracker.observe(noisy(&mut rng, 1.0));
        }
        assert!(
            tracker.drift() < peak * 0.2,
            "drift stuck at {}",
            tracker.drift()
        );
    }
}
