//! The ready queue's element: a pending tick release with a total EDF
//! order, and the seeded key that breaks its deadline ties. The queue itself
//! is a `BinaryHeap<Reverse<Release>>` owned by the event loop.

use sensact_core::splitmix64_finalize;

/// One pending tick release, ordered by absolute deadline (EDF).
///
/// `deadline_bits` is the IEEE-754 bit pattern of the (non-negative)
/// deadline: for non-negative floats the bit pattern is order-preserving, so
/// integer comparison gives exact float ordering with total order and `Eq`.
/// `tie` is a seeded per-release key that breaks deadline ties — it is what
/// makes a fleet run's interleaving a pure function of the seed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Release {
    /// Absolute deadline, as order-preserving bits of a non-negative f64.
    pub deadline_bits: u64,
    /// Seeded tie-break key for equal deadlines.
    pub tie: u64,
    /// Index of the loop this release belongs to.
    pub loop_idx: usize,
    /// Monotone release counter within the loop (drops advance it too).
    pub release_idx: u64,
    /// Release time (seconds, virtual).
    pub release_s: f64,
}

impl Release {
    /// Build a release from a *seconds* deadline, enforcing the
    /// non-negative invariant the bit-pattern ordering relies on:
    /// `f64::to_bits` ordering silently inverts for negative floats (the
    /// sign bit is the most significant bit), so a negative deadline —
    /// possible once simulated-network delays are subtracted from budgets —
    /// would sort *after* every non-negative one and starve the release.
    /// Negative and NaN deadlines clamp to `0.0` (immediately due), with a
    /// `debug_assert` so debug builds surface the caller's arithmetic bug.
    pub(crate) fn new(
        deadline_s: f64,
        tie: u64,
        loop_idx: usize,
        release_idx: u64,
        release_s: f64,
    ) -> Self {
        debug_assert!(
            deadline_s >= 0.0,
            "EDF deadline must be non-negative, got {deadline_s} \
             (loop {loop_idx}, release {release_idx})"
        );
        Release {
            deadline_bits: clamp_deadline(deadline_s).to_bits(),
            tie,
            loop_idx,
            release_idx,
            release_s,
        }
    }

    fn key(&self) -> (u64, u64, usize, u64) {
        (
            self.deadline_bits,
            self.tie,
            self.loop_idx,
            self.release_idx,
        )
    }
}

impl PartialEq for Release {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Release {}
impl PartialOrd for Release {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Release {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Clamp a deadline to the non-negative range bit-pattern ordering needs.
/// Negative deadlines become `0.0` (immediately due — the safest reading of
/// an already-blown budget); `f64::max(NaN, 0.0)` is `0.0`, so NaN clamps
/// too.
fn clamp_deadline(deadline_s: f64) -> f64 {
    deadline_s.max(0.0)
}

/// SplitMix64 — the seeded tie-break generator. A release's key depends only
/// on `(seed, loop, release index)`, never on execution order, so the EDF
/// order is reproducible regardless of which worker pushed the release.
pub(crate) fn tie_break(seed: u64, loop_idx: usize, release_idx: u64) -> u64 {
    let x = seed
        ^ (loop_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ release_idx.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    splitmix64_finalize(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn release(loop_idx: usize, deadline_s: f64, tie: u64) -> Release {
        Release {
            deadline_bits: deadline_s.to_bits(),
            tie,
            loop_idx,
            release_idx: 0,
            release_s: 0.0,
        }
    }

    #[test]
    fn deadline_bits_preserve_float_order() {
        let times: [f64; 7] = [0.0, 1e-9, 1e-3, 0.5, 1.0, 7.25, 1e6];
        for w in times.windows(2) {
            assert!(w[0].to_bits() < w[1].to_bits(), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn heap_pops_earliest_deadline_first_and_breaks_ties_by_key() {
        let mut q = BinaryHeap::new();
        for r in [
            release(0, 3.0, 0),
            release(5, 1.0, 20),
            release(9, 1.0, 10),
            release(0, 2.0, 0),
        ] {
            q.push(Reverse(r));
        }
        let order: Vec<(f64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|Reverse(r)| (f64::from_bits(r.deadline_bits), r.loop_idx))
            .collect();
        assert_eq!(order, vec![(1.0, 9), (1.0, 5), (2.0, 0), (3.0, 0)]);
    }

    #[test]
    fn raw_bit_ordering_inverts_for_negative_deadlines() {
        // The failure mode the constructor guards against: as raw bit
        // patterns, a negative deadline sorts *after* every non-negative one
        // (sign bit on top), so naive `to_bits` keys would starve it.
        assert!((-1.0f64).to_bits() > 1.0f64.to_bits());
        assert!((-1e-9f64).to_bits() > 1e6f64.to_bits());
    }

    #[test]
    fn clamped_negative_deadlines_stay_earliest() {
        // Negative and NaN deadlines clamp to 0.0 (immediately due).
        assert_eq!(clamp_deadline(-3.0), 0.0);
        assert_eq!(clamp_deadline(-1e-12), 0.0);
        assert_eq!(clamp_deadline(f64::NAN), 0.0);
        assert_eq!(clamp_deadline(0.0), 0.0);
        assert_eq!(clamp_deadline(2.5), 2.5);
        // A release whose budget arithmetic went negative (network delay
        // subtracted past zero) is popped before any positive deadline.
        let mut q = BinaryHeap::new();
        q.push(Reverse(Release::new(1.0, 0, 1, 0, 0.0)));
        q.push(Reverse(Release::new(clamp_deadline(-0.5), 0, 0, 0, 0.0)));
        assert_eq!(q.pop().unwrap().0.loop_idx, 0, "clamped release is first");
        assert_eq!(q.pop().unwrap().0.loop_idx, 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-negative")]
    fn negative_deadline_asserts_in_debug_builds() {
        let _ = Release::new(-1.0, 0, 0, 0, 0.0);
    }

    #[test]
    fn tie_break_is_a_pure_function_of_seed_loop_and_index() {
        assert_eq!(tie_break(7, 3, 11), tie_break(7, 3, 11));
        assert_ne!(tie_break(7, 3, 11), tie_break(8, 3, 11));
        assert_ne!(tie_break(7, 3, 11), tie_break(7, 4, 11));
        assert_ne!(tie_break(7, 3, 11), tie_break(7, 3, 12));
    }
}
