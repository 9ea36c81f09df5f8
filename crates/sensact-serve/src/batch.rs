//! Cross-loop batch planning: group ready leases sharing a perceptor
//! signature and lower their ticks onto one wide GEMM call (patches are
//! unfolded by its panel packer, not into an im2col matrix).
//!
//! The planner collects admitted observations (already shed-checked by the
//! pool) during an ingress drain, then [`BatchPlanner::flush`] executes
//! them: observations whose [`ModelKind`] is batchable and appears more
//! than once are stacked — one
//! [`SharedPerceptor::forward_many_into`](crate::model::SharedPerceptor::forward_many_into)
//! writes every row's features into the planner's feature arena in a single
//! kernel dispatch, and each tick is then handed its row by reference — while
//! singletons and non-batchable kinds run the ordinary per-loop path.
//! Perception is stateless given the weights, so rows stack whoever sent
//! them: a lease with two observations in one window contributes two rows.
//! Either way each observation's tick is *released at its own arrival
//! time*, so the virtual timeline (latency charging, deadline accounting,
//! telemetry) is bit-identical to unbatched serving; batching only changes
//! wall-clock cost.

use crate::lease::{AdmitTicket, LeasePool, ObsOutcome};
use crate::model::ModelKind;

/// One admitted observation awaiting the next flush. The ticket carries the
/// lease handles captured at admission, so grouping and release never walk
/// the lease table.
#[derive(Debug)]
struct PendingObs {
    ticket: AdmitTicket,
    seq: u64,
    obs: Vec<f64>,
    arrival_s: f64,
}

/// Result of one flushed observation, in arrival order.
#[derive(Debug)]
pub struct FlushedObs {
    /// The lease the observation belonged to.
    pub lease: u64,
    /// Client sequence number, echoed back.
    pub seq: u64,
    /// The tick's outcome.
    pub outcome: ObsOutcome,
}

/// Deferred-execution planner for the batched serving mode.
#[derive(Default)]
pub struct BatchPlanner {
    pending: Vec<PendingObs>,
    /// Feature rows the stacked forwards of one flush wrote, `feat_len`
    /// floats each, a kind's rows contiguous and in arrival order. Reused
    /// across flushes and only ever grown: a forward overwrites its rows.
    arena: Vec<f64>,
    /// Per stacked kind, where its next unreleased row starts in `arena`.
    /// Reused across flushes.
    next_row: Vec<(ModelKind, usize)>,
}

impl BatchPlanner {
    /// An empty planner.
    pub fn new() -> Self {
        BatchPlanner::default()
    }

    /// Observations waiting for the next flush.
    pub(crate) fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Queue an admitted observation under its [`AdmitTicket`]. The pool
    /// has already validated the lease and run the shed arithmetic
    /// (advancing the lease's projected frontier past this observation), so
    /// the planner's only job is ordering and grouping.
    pub fn enqueue(&mut self, ticket: AdmitTicket, seq: u64, obs: Vec<f64>, arrival_s: f64) {
        self.pending.push(PendingObs {
            ticket,
            seq,
            obs,
            arrival_s,
        });
    }

    /// Execute `lease`'s queued observations now, on the per-loop path and
    /// each at its own arrival time — what per-loop dispatch did when they
    /// arrived. The engine calls this before it releases a lease: an
    /// observation left queued would be ticked at the flush against a
    /// retired slot, or against whichever lease reused it.
    pub(crate) fn flush_lease(&mut self, lease: u64, pool: &mut LeasePool) -> Vec<FlushedObs> {
        if !self.pending.iter().any(|p| p.ticket.lease == lease) {
            return Vec::new(); // the common release: nothing to re-queue
        }
        let (mine, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|p| p.ticket.lease == lease);
        self.pending = rest;
        mine.into_iter()
            .map(|p| FlushedObs {
                lease,
                seq: p.seq,
                outcome: pool.serve_obs(p.ticket.loop_id, p.ticket.kind, &p.obs, p.arrival_s),
            })
            .collect()
    }

    /// Drop the queued observations of `leases` (reaped by TTL expiry: no
    /// slot left to tick, no route left to reply on); returns how many.
    pub(crate) fn discard(&mut self, leases: &[u64]) -> usize {
        if leases.is_empty() {
            return 0;
        }
        let before = self.pending.len();
        self.pending.retain(|p| !leases.contains(&p.ticket.lease));
        before - self.pending.len()
    }

    /// Execute every pending observation, returning results in arrival
    /// order along with each stacked group's occupancy (for the histogram;
    /// one entry per stacked GEMM dispatched). Each
    /// batchable group runs ONE stacked forward into the feature arena;
    /// ticks are then released individually at their own arrival times,
    /// each on its own row.
    pub fn flush(&mut self, pool: &mut LeasePool) -> (Vec<FlushedObs>, Vec<usize>) {
        let pending = std::mem::take(&mut self.pending);
        if pending.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let mut occupancies = Vec::new();
        // Perception for every batchable kind with one stacked forward per
        // kind. Group membership is arrival order within kind, which keeps
        // the stacked row order deterministic — and is the order the release
        // pass below consumes the rows in.
        self.next_row.clear();
        let mut used = 0;
        for kind in ModelKind::ALL {
            if !kind.batchable() {
                continue;
            }
            let rows: Vec<&[f64]> = pending
                .iter()
                .filter(|p| p.ticket.kind == kind)
                .map(|p| p.obs.as_slice())
                .collect();
            if rows.len() < 2 {
                continue; // a singleton gains nothing from stacking
            }
            let start = used;
            used += rows.len() * kind.feat_len();
            if self.arena.len() < used {
                self.arena.resize(used, 0.0);
            }
            let mut outs: Vec<&mut [f64]> = self.arena[start..used]
                .chunks_exact_mut(kind.feat_len())
                .collect();
            pool.perceptor(kind).forward_many_into(&rows, &mut outs);
            self.next_row.push((kind, start));
            occupancies.push(rows.len());
        }
        // Release every tick at its own arrival time, in arrival order.
        let mut out = Vec::with_capacity(pending.len());
        for p in pending {
            let kind = p.ticket.kind;
            let outcome = match self.next_row.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, at)) => {
                    let feats = &self.arena[*at..*at + kind.feat_len()];
                    *at += kind.feat_len();
                    pool.tick(p.ticket.loop_id, feats, p.arrival_s)
                }
                // Singleton or non-batchable: per-loop perception right
                // before its tick.
                None => pool.serve_obs(p.ticket.loop_id, kind, &p.obs, p.arrival_s),
            };
            out.push(FlushedObs {
                lease: p.ticket.lease,
                seq: p.seq,
                outcome,
            });
        }
        (out, occupancies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::{Admitted, PoolConfig};

    fn admit(pool: &mut LeasePool, lease: u64, obs_len: usize, now_s: f64) -> AdmitTicket {
        match pool.admit_deferred(lease, obs_len, now_s).unwrap() {
            Admitted::Queued(t) => t,
            Admitted::Shed(s) => panic!("unexpected shed at this gentle rate: {s:?}"),
        }
    }

    fn obs_for(kind: ModelKind, salt: u64) -> Vec<f64> {
        (0..kind.spec().obs_len)
            .map(|i| ((i as u64).wrapping_mul(salt + 3) % 11) as f64 / 8.0)
            .collect()
    }

    /// The batched flush must produce bit-identical actions and telemetry
    /// to per-loop serving of the same observation stream.
    #[test]
    fn flush_is_bitwise_identical_to_unbatched_serving() {
        let cfg = PoolConfig::default();
        // Mixed traffic: 4 lidar leases (batchable, grouped) + 2 cartpole.
        let kinds = [
            ModelKind::LidarConv,
            ModelKind::LidarConv,
            ModelKind::Cartpole,
            ModelKind::LidarConv,
            ModelKind::Cartpole,
            ModelKind::LidarConv,
        ];
        let mut batched = LeasePool::new(cfg);
        let mut unbatched = LeasePool::new(cfg);
        let mut leases = Vec::new();
        for (i, kind) in kinds.iter().enumerate() {
            let (a, _) = batched.grant(*kind, i as u64, 0.0).unwrap();
            let (b, _) = unbatched.grant(*kind, i as u64, 0.0).unwrap();
            assert_eq!(a, b);
            leases.push(a);
        }
        let mut planner = BatchPlanner::new();
        for round in 0..8u64 {
            let mut expected = Vec::new();
            for (i, (&lease, kind)) in leases.iter().zip(&kinds).enumerate() {
                let now = 2e-3 * (round + 1) as f64 + 1e-6 * i as f64;
                let obs = obs_for(*kind, round * 10 + i as u64);
                let ticket = admit(&mut batched, lease, obs.len(), now);
                planner.enqueue(ticket, round, obs.clone(), now);
                expected.push(unbatched.observe(lease, obs, now).unwrap());
            }
            let (flushed, occ) = planner.flush(&mut batched);
            assert_eq!(flushed.len(), leases.len());
            // One stacked GEMM (batches = 1) holding all 4 (max occupancy 4).
            assert_eq!(occ, vec![4], "the 4 lidar leases stack into one GEMM");
            for (got, want) in flushed.iter().zip(&expected) {
                match (&got.outcome, want) {
                    (
                        ObsOutcome::Act {
                            response_s: gr,
                            energy_j: ge,
                            values: gv,
                            ..
                        },
                        ObsOutcome::Act {
                            response_s: wr,
                            energy_j: we,
                            values: wv,
                            ..
                        },
                    ) => {
                        assert_eq!(gr.to_bits(), wr.to_bits(), "round {round} response");
                        assert_eq!(ge.to_bits(), we.to_bits(), "round {round} energy");
                        for (a, b) in gv.iter().zip(wv) {
                            assert_eq!(a.to_bits(), b.to_bits(), "round {round} action");
                        }
                    }
                    other => panic!("round {round}: {other:?}"),
                }
            }
        }
        // The two pools' scheduler ledgers agree too.
        for &lease in &leases {
            assert_eq!(
                batched.lease_stats(lease).unwrap(),
                unbatched.lease_stats(lease).unwrap()
            );
        }
    }

    /// Two observations from the SAME lease in one flush: perception is
    /// stateless given the weights, so both rows join the stacked group and
    /// the lease ticks them in arrival order — bitwise identical to
    /// unbatched serving of the same stream.
    #[test]
    fn duplicate_lease_in_one_flush_stays_bitwise() {
        let cfg = PoolConfig::default();
        let mut batched = LeasePool::new(cfg);
        let mut unbatched = LeasePool::new(cfg);
        let mut leases = Vec::new();
        for i in 0..3u64 {
            let (a, _) = batched.grant(ModelKind::LidarConv, i, 0.0).unwrap();
            let (b, _) = unbatched.grant(ModelKind::LidarConv, i, 0.0).unwrap();
            assert_eq!(a, b);
            leases.push(a);
        }
        // Lease 0 sends twice in the same drain; the others once.
        let sends = [leases[0], leases[1], leases[2], leases[0]];
        let mut planner = BatchPlanner::new();
        let mut expected = Vec::new();
        for (i, &lease) in sends.iter().enumerate() {
            let now = 2e-3 + 1e-6 * i as f64;
            let obs = obs_for(ModelKind::LidarConv, i as u64);
            let ticket = admit(&mut batched, lease, obs.len(), now);
            planner.enqueue(ticket, i as u64, obs.clone(), now);
            expected.push(unbatched.observe(lease, obs, now).unwrap());
        }
        let (flushed, occ) = planner.flush(&mut batched);
        assert_eq!(flushed.len(), 4);
        assert_eq!(occ, vec![4], "a lease's second row stacks like anyone's");
        for (i, (got, want)) in flushed.iter().zip(&expected).enumerate() {
            match (&got.outcome, want) {
                (
                    ObsOutcome::Act {
                        values: gv,
                        energy_j: ge,
                        ..
                    },
                    ObsOutcome::Act {
                        values: wv,
                        energy_j: we,
                        ..
                    },
                ) => {
                    assert_eq!(ge.to_bits(), we.to_bits(), "obs {i} energy");
                    for (a, b) in gv.iter().zip(wv) {
                        assert_eq!(a.to_bits(), b.to_bits(), "obs {i} action");
                    }
                }
                other => panic!("obs {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn singleton_groups_skip_stacking() {
        let mut pool = LeasePool::new(PoolConfig::default());
        let (lidar, _) = pool.grant(ModelKind::LidarConv, 1, 0.0).unwrap();
        let (cart, _) = pool.grant(ModelKind::Cartpole, 2, 0.0).unwrap();
        let mut planner = BatchPlanner::new();
        for (lease, kind) in [(lidar, ModelKind::LidarConv), (cart, ModelKind::Cartpole)] {
            let obs = obs_for(kind, 5);
            let ticket = admit(&mut pool, lease, obs.len(), 1e-3);
            planner.enqueue(ticket, 0, obs, 1e-3);
        }
        let (flushed, occ) = planner.flush(&mut pool);
        assert_eq!(flushed.len(), 2);
        assert!(occ.is_empty(), "one lidar + one cartpole: nothing stacks");
    }
}
