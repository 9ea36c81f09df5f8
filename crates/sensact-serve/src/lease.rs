//! Lease lifecycle: granting, observing, shedding, expiring, releasing —
//! and checkpoint-based crash recovery of live leases.
//!
//! A **lease** is one sensing-to-action loop rented out of a
//! [`FleetScheduler`]-backed pool. The pool registers each lease as a
//! scheduler member (so it gets the same stats, deadline, tracing and
//! checkpoint machinery every fleet loop gets), drives it with
//! *observation-released* ticks
//! ([`FleetScheduler::tick_member_with`]), and retires the slot back to the
//! scheduler's freelist when the lease ends — `LoopId`s stay dense under
//! arbitrary churn.
//!
//! Every piece of serving state has one owner and is reached by `&mut`:
//! the pool owns the scheduler and the shared perceptors, the scheduler
//! owns the lease loops, a lease loop owns its controller state. Perception
//! runs pool-side, and the feature row is the tick's *argument* — handed by
//! reference to the lease inside the scheduler's accounting — so nothing is
//! left in shared memory for a tick to find.
//!
//! Admission control is the scheduler's own arithmetic moved to the edge:
//! a lease is rejected when the fleet's summed latency demand would exceed
//! the worker pool, and an individual observation is shed when
//! `max(frontier, now) + latency − now > budget` — the same pending-tick
//! reasoning the run modes use for drop-oldest backpressure, applied
//! *before* the tick is released so a doomed observation costs a frame, not
//! a worker. `frontier` is where the lease's admitted work ends: the
//! scheduler's completion frontier, advanced by that same
//! `max(frontier, arrival) + latency` step for every observation admitted
//! but not yet released — the recurrence the scheduler will apply at
//! release — so deferred (batched) admission and per-loop dispatch decide
//! every observation, boundary cases included, with identical arithmetic.

use crate::model::{ModelKind, ModelSpec, SharedPerceptor};
use sensact_core::checkpoint::{Checkpoint, CheckpointError, Section, StageState};
use sensact_core::fault::StageError;
use sensact_core::telemetry::LoopTelemetry;
use sensact_core::trace::StageBreakdown;
use sensact_core::Trust;
use sensact_sched::{
    DynLoop, FleetConfig, FleetScheduler, LoopHandle, LoopId, LoopSpec, TickOutcome,
};
use std::any::Any;
use std::collections::BTreeMap;

/// Checkpoint section carrying a lease's controller identity and state.
const LEASE_SECTION: &str = "serve.lease";
/// Checkpoint section carrying the pool-side grant (lease id).
const GRANT_SECTION: &str = "serve.grant";

/// The [`DynLoop`] a lease registers into the scheduler: per-lease
/// controller state and the loop's own telemetry ring. Perception is not
/// here — it is shared, so the pool runs it and the lease is served the
/// features.
struct LeaseLoop {
    name: String,
    kind: ModelKind,
    seed: u64,
    spec: ModelSpec,
    state: Vec<f64>,
    telemetry: LoopTelemetry,
}

impl LeaseLoop {
    fn new(lease: u64, kind: ModelKind, seed: u64) -> Self {
        LeaseLoop {
            name: format!("lease-{lease}-{}", kind.name()),
            kind,
            seed,
            spec: kind.spec(),
            state: kind.init_state(seed),
            telemetry: LoopTelemetry::new(),
        }
    }

    /// One tick on the feature row `feats`: step the controller, write the
    /// action into `values`, charge the tick.
    fn serve(&mut self, feats: &[f64], values: &mut Vec<f64>) -> TickOutcome {
        values.resize(self.spec.act_len, 0.0);
        self.kind.control(&mut self.state, feats, values);
        // The charged energy carries a state-sensitive term: any divergence
        // in the restored controller state shows up in the telemetry ledger
        // (and therefore in `diff_records`), not just in the action bytes.
        let mut act_mag = 0.0;
        for a in values.iter() {
            act_mag += a.abs();
        }
        let energy_j = self.spec.energy_j + 1e-9 * act_mag;
        self.telemetry.record_with_stages(
            energy_j,
            self.spec.latency_s,
            Trust::Trusted,
            StageBreakdown::new(),
        );
        TickOutcome {
            energy_j,
            latency_s: self.spec.latency_s,
            comm_s: 0.0,
            faults: 0,
        }
    }
}

impl DynLoop for LeaseLoop {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick_once(&mut self) -> TickOutcome {
        // The pool owns the scheduler outright and never runs it: the only
        // tick a lease gets is `LeasePool::tick`, which calls `serve`.
        unreachable!("a lease ticks on an observation, never on a schedule")
    }

    fn telemetry(&self) -> &LoopTelemetry {
        &self.telemetry
    }

    fn record_deadline_miss(&mut self, latency_s: f64, budget_s: f64) {
        self.telemetry.record_fault(&StageError::Timeout {
            latency_s,
            budget_s,
        });
    }

    fn save_state(&self) -> Result<Checkpoint, CheckpointError> {
        let mut ckpt = Checkpoint::new(&self.name);
        let mut s = Section::new(LEASE_SECTION);
        s.put_u64("kind", self.kind.wire() as u64);
        s.put_u64("seed", self.seed);
        s.put_f64s("state", &self.state);
        ckpt.push(s);
        self.telemetry.save_state(&mut ckpt, "telemetry");
        Ok(ckpt)
    }

    /// Decodes the lease section before the telemetry restores (which
    /// assigns only once it has decoded its own), so a refusal leaves the
    /// loop as it was.
    fn restore_from(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        let s = ckpt.section(LEASE_SECTION)?;
        s.check("kind", s.get_u64("kind")? == u64::from(self.kind.wire()))?;
        s.check("seed", s.get_u64("seed")? == self.seed)?;
        let state = s.get_f64s_len("state", self.state.len())?;
        self.telemetry.restore_state(ckpt, "telemetry")?;
        self.state = state;
        Ok(())
    }
}

/// Fraction of the pool's workers the summed lease demand may occupy before
/// new leases are rejected.
const UTILIZATION_CAP: f64 = 0.8;

/// Backoff hint (milliseconds) carried by rejections and sheds.
const RETRY_AFTER_MS: u32 = 50;

/// Pool sizing and policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Virtual worker capacity admission control budgets against.
    pub workers: usize,
    /// Server seed: scheduler tie-breaks *and* shared perceptor weights
    /// derive from it, so two pools with equal seeds serve bit-identical
    /// models (the crash-recovery contract).
    pub seed: u64,
    /// A lease not heard from (observation or heartbeat) for this long is
    /// expired by [`LeasePool::expire`].
    pub lease_ttl_s: f64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 4,
            seed: 0xED6E,
            lease_ttl_s: 5.0,
        }
    }
}

/// One live lease.
pub(crate) struct LeaseEntry {
    pub(crate) loop_id: LoopId,
    pub(crate) kind: ModelKind,
    pub(crate) last_seen_s: f64,
    /// Where the scheduler's frontier will stand once every observation
    /// admitted for deferred execution has been released: advanced on each
    /// admit by the step the scheduler applies at release. Behind the
    /// scheduler's own frontier whenever nothing is queued.
    pub(crate) projected_frontier_s: f64,
}

/// A validated, shed-checked admission for deferred (batched) execution:
/// what the batch planner needs to group the observation and release its
/// tick, captured from the one lease-table walk
/// [`LeasePool::admit_deferred`] already does — the flush hot path never
/// touches the table again.
#[derive(Debug)]
pub struct AdmitTicket {
    pub(crate) lease: u64,
    pub(crate) kind: ModelKind,
    pub(crate) loop_id: LoopId,
}

/// Outcome of [`LeasePool::admit_deferred`].
#[derive(Debug)]
pub enum Admitted {
    /// Admissible: queue the observation with the batch planner under this
    /// ticket.
    Queued(AdmitTicket),
    /// Shed at ingress (always [`ObsOutcome::Shed`]); reply immediately.
    Shed(ObsOutcome),
}

/// Outcome of submitting one observation.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsOutcome {
    /// The tick ran; here is the action and its charged telemetry.
    Act {
        /// Client-visible response time: completion − release (queueing
        /// included).
        response_s: f64,
        /// Charged energy of the tick.
        energy_j: f64,
        /// The action vector.
        values: Vec<f64>,
        /// The tick completed past its budget (still served, but counted
        /// as a deadline miss on the lease's stats).
        missed: bool,
    },
    /// Shed at ingress: the pending-tick arithmetic says the deadline is
    /// unmeetable. Retry after the backoff.
    Shed {
        /// Backoff hint (milliseconds).
        retry_after_ms: u32,
    },
}

/// Why a lease or observation was refused outright.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseError {
    /// Admission control: the pool is at capacity; retry after backoff.
    Rejected {
        /// Backoff hint (milliseconds).
        retry_after_ms: u32,
    },
    /// The lease id is not live.
    UnknownLease,
    /// The observation length does not match the leased model.
    BadObsLen {
        /// The leased model's observation length.
        expected: usize,
    },
}

/// A [`FleetScheduler`]-backed pool of leased loops.
pub struct LeasePool {
    sched: FleetScheduler,
    cfg: PoolConfig,
    perceptors: BTreeMap<ModelKind, SharedPerceptor>,
    leases: BTreeMap<u64, LeaseEntry>,
    next_lease: u64,
    /// Σ latency/period over live leases — admission-control demand.
    demand: f64,
    /// The per-loop path's feature row, reused across observations.
    feats: Vec<f64>,
}

impl LeasePool {
    /// An empty pool.
    pub fn new(cfg: PoolConfig) -> Self {
        LeasePool {
            sched: FleetScheduler::new(FleetConfig {
                workers: cfg.workers,
                watts_cap: None,
                seed: cfg.seed,
            }),
            cfg,
            perceptors: BTreeMap::new(),
            leases: BTreeMap::new(),
            next_lease: 1,
            demand: 0.0,
            feats: Vec::new(),
        }
    }

    /// The pool's config.
    pub fn config(&self) -> &PoolConfig {
        &self.cfg
    }

    /// Live lease count.
    pub fn active(&self) -> usize {
        self.leases.len()
    }

    /// Current admission demand as a fraction of worker capacity.
    pub fn utilization(&self) -> f64 {
        self.demand / self.cfg.workers as f64
    }

    /// The shared perceptor of `kind`, built on first use (a grant). The
    /// batch planner runs its stacked forward on it.
    pub(crate) fn perceptor(&mut self, kind: ModelKind) -> &mut SharedPerceptor {
        let seed = self.cfg.seed;
        self.perceptors
            .entry(kind)
            .or_insert_with(|| SharedPerceptor::new(kind, seed))
    }

    /// Register lease `lease`'s loop as a scheduler member.
    fn register(&mut self, lease: u64, kind: ModelKind, seed: u64) -> LoopId {
        let spec = kind.spec();
        // Weights are built here, not under the lease's first observation.
        self.perceptor(kind);
        self.sched.register(
            LoopHandle::from_dyn(Box::new(LeaseLoop::new(lease, kind, seed))),
            LoopSpec::periodic(spec.period_s).with_budget(spec.budget_s),
        )
    }

    /// Lease one `kind` loop personalised by `seed`. Admission control
    /// rejects the lease when the pool's summed latency demand would
    /// exceed `UTILIZATION_CAP` (80 %) of worker capacity.
    pub fn grant(
        &mut self,
        kind: ModelKind,
        seed: u64,
        now_s: f64,
    ) -> Result<(u64, ModelSpec), LeaseError> {
        let spec = kind.spec();
        let added = spec.latency_s / spec.period_s;
        if self.demand + added > UTILIZATION_CAP * self.cfg.workers as f64 {
            return Err(LeaseError::Rejected {
                retry_after_ms: RETRY_AFTER_MS,
            });
        }
        let lease = self.next_lease;
        self.next_lease += 1;
        let loop_id = self.register(lease, kind, seed);
        self.leases.insert(
            lease,
            LeaseEntry {
                loop_id,
                kind,
                last_seen_s: now_s,
                projected_frontier_s: 0.0,
            },
        );
        self.demand += added;
        Ok((lease, spec))
    }

    /// The shed decision for one more observation on `lease` at `now_s`:
    /// `Err(outcome)` if it must be shed, `Ok(completion_s)` — when its tick
    /// will complete — if it is admissible. One step of the scheduler's
    /// release recurrence (`max(frontier, release) + latency`) from the end
    /// of the lease's admitted work, so both dispatch modes do the
    /// arithmetic the scheduler does.
    fn shed_check(&mut self, lease: u64, now_s: f64) -> Result<f64, ObsOutcome> {
        let entry = self
            .leases
            .get_mut(&lease)
            .expect("validated by the caller");
        let spec = entry.kind.spec();
        let frontier = self
            .sched
            .member_frontier_s(entry.loop_id)
            .max(entry.projected_frontier_s);
        let completion_s = frontier.max(now_s) + spec.latency_s;
        if completion_s - now_s > spec.budget_s {
            entry.last_seen_s = now_s;
            self.sched.record_member_drops(entry.loop_id, 1);
            return Err(ObsOutcome::Shed {
                retry_after_ms: RETRY_AFTER_MS,
            });
        }
        Ok(completion_s)
    }

    fn validate(&self, lease: u64, obs_len: usize) -> Result<(), LeaseError> {
        let entry = self.leases.get(&lease).ok_or(LeaseError::UnknownLease)?;
        let expected = entry.kind.spec().obs_len;
        if obs_len != expected {
            return Err(LeaseError::BadObsLen { expected });
        }
        Ok(())
    }

    /// Per-loop (unbatched) path: validate, shed-check, then release the
    /// tick immediately and return the action.
    pub fn observe(
        &mut self,
        lease: u64,
        obs: Vec<f64>,
        now_s: f64,
    ) -> Result<ObsOutcome, LeaseError> {
        self.validate(lease, obs.len())?;
        if let Err(shed) = self.shed_check(lease, now_s) {
            return Ok(shed);
        }
        let entry = self.leases.get_mut(&lease).expect("validated above");
        entry.last_seen_s = now_s;
        let (loop_id, kind) = (entry.loop_id, entry.kind);
        Ok(self.serve_obs(loop_id, kind, &obs, now_s))
    }

    /// Release one tick on the per-loop path: perception on this one
    /// observation ([`SharedPerceptor::forward_one`], the reference the
    /// stacked forward is compared against), then the tick. What
    /// [`LeasePool::observe`] does once an observation is admitted, and what
    /// the batch planner does for an observation it does not stack.
    pub(crate) fn serve_obs(
        &mut self,
        loop_id: LoopId,
        kind: ModelKind,
        obs: &[f64],
        release_s: f64,
    ) -> ObsOutcome {
        let mut feats = std::mem::take(&mut self.feats);
        feats.resize(kind.feat_len(), 0.0);
        self.perceptor(kind).forward_one(obs, &mut feats);
        let outcome = self.tick(loop_id, &feats, release_s);
        self.feats = feats;
        outcome
    }

    /// The one tick routine: release member `loop_id` at `release_s` (the
    /// observation's arrival time) with the feature row as the tick's
    /// argument, inside the scheduler's accounting.
    pub(crate) fn tick(&mut self, loop_id: LoopId, feats: &[f64], release_s: f64) -> ObsOutcome {
        let mut values = Vec::new();
        let out = self.sched.tick_member_with(loop_id, release_s, |member| {
            let member: &mut dyn Any = member;
            member
                .downcast_mut::<LeaseLoop>()
                .expect("the pool registers nothing but lease loops")
                .serve(feats, &mut values)
        });
        ObsOutcome::Act {
            response_s: out.completion_s - release_s,
            energy_j: out.energy_j,
            values,
            missed: out.missed,
        }
    }

    /// Admit one observation for deferred (batched) execution: validate and
    /// shed-check now, advance the lease's projected frontier past it, and
    /// hand the caller an [`AdmitTicket`] so the batch planner can group it
    /// and release its tick without any further lease-table lookups.
    pub fn admit_deferred(
        &mut self,
        lease: u64,
        obs_len: usize,
        now_s: f64,
    ) -> Result<Admitted, LeaseError> {
        self.validate(lease, obs_len)?;
        let completion_s = match self.shed_check(lease, now_s) {
            Ok(completion_s) => completion_s,
            Err(shed) => return Ok(Admitted::Shed(shed)),
        };
        let entry = self.leases.get_mut(&lease).expect("validated above");
        entry.last_seen_s = now_s;
        entry.projected_frontier_s = completion_s;
        Ok(Admitted::Queued(AdmitTicket {
            lease,
            kind: entry.kind,
            loop_id: entry.loop_id,
        }))
    }

    /// Record a heartbeat; `false` if the lease is unknown.
    pub(crate) fn heartbeat(&mut self, lease: u64, now_s: f64) -> bool {
        match self.leases.get_mut(&lease) {
            Some(e) => {
                e.last_seen_s = now_s;
                true
            }
            None => false,
        }
    }

    /// Release `lease`, retiring its scheduler slot (the slot index goes
    /// back to the freelist). Returns the lease's completed tick count.
    pub fn release(&mut self, lease: u64) -> Result<u64, LeaseError> {
        let entry = self.leases.remove(&lease).ok_or(LeaseError::UnknownLease)?;
        let spec = entry.kind.spec();
        self.demand = (self.demand - spec.latency_s / spec.period_s).max(0.0);
        let ticks = self.sched.loop_stats(entry.loop_id).ticks;
        let _ = self.sched.retire_member(entry.loop_id);
        Ok(ticks)
    }

    /// Expire every lease not heard from within the TTL. Returns the
    /// expired ids.
    pub fn expire(&mut self, now_s: f64) -> Vec<u64> {
        let ttl = self.cfg.lease_ttl_s;
        let stale: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, e)| now_s - e.last_seen_s > ttl)
            .map(|(id, _)| *id)
            .collect();
        for id in &stale {
            let _ = self.release(*id);
        }
        stale
    }

    /// Cumulative scheduler-side stats of a lease.
    #[cfg(test)]
    pub(crate) fn lease_stats(&mut self, lease: u64) -> Option<sensact_sched::LoopStats> {
        let id = self.leases.get(&lease)?.loop_id;
        Some(self.sched.loop_stats(id))
    }

    /// The lease's telemetry ring — replay verification reads this.
    pub fn lease_telemetry(&mut self, lease: u64) -> Option<&LoopTelemetry> {
        let id = self.leases.get(&lease)?.loop_id;
        Some(self.sched.loop_telemetry(id))
    }

    /// Serialize `lease` for crash recovery: the loop's own checkpoint
    /// (controller state, telemetry) plus the scheduler slot's accounting
    /// plus the pool-side grant. Snapshot between ticks.
    pub fn snapshot_lease(&mut self, lease: u64) -> Result<Checkpoint, CheckpointError> {
        let entry = self
            .leases
            .get(&lease)
            .ok_or_else(|| CheckpointError::MissingSection(GRANT_SECTION.into()))?;
        let loop_id = entry.loop_id;
        let mut ckpt = self.sched.snapshot_member(loop_id)?;
        let mut s = Section::new(GRANT_SECTION);
        s.put_u64("lease", lease);
        ckpt.push(s);
        Ok(ckpt)
    }

    /// Adopt a lease snapshotted by [`LeasePool::snapshot_lease`] — on this
    /// pool or on a freshly built replacement server with the same
    /// [`PoolConfig::seed`]. The lease resumes under its original id with
    /// bit-identical controller state, telemetry, and scheduler
    /// accounting; subsequent ticks replay bit-exactly.
    pub fn restore_lease(&mut self, ckpt: &Checkpoint, now_s: f64) -> Result<u64, CheckpointError> {
        let grant = ckpt.section(GRANT_SECTION)?;
        let lease = grant.get_u64("lease")?;
        // The checkpoint is outside input: an id the counter cannot step
        // past is refused before anything is registered.
        let next_lease = lease.checked_add(1).ok_or_else(|| grant.bad("lease"))?;
        grant.check("lease", !self.leases.contains_key(&lease))?;
        let s = ckpt.section(LEASE_SECTION)?;
        let kind = ModelKind::from_wire(s.get_as("kind")?).ok_or_else(|| s.bad("kind"))?;
        let seed = s.get_u64("seed")?;
        let spec = kind.spec();
        // Register a fresh twin (reusing a retired slot if one is free),
        // then adopt the checkpointed state on top of it.
        let loop_id = self.register(lease, kind, seed);
        let twin = LeaseLoop::new(lease, kind, seed);
        if let Err(e) = self
            .sched
            .adopt_member(loop_id, LoopHandle::from_dyn(Box::new(twin)), ckpt)
        {
            // Roll the failed registration back so the pool stays clean.
            let _ = self.sched.retire_member(loop_id);
            return Err(e);
        }
        self.leases.insert(
            lease,
            LeaseEntry {
                loop_id,
                kind,
                last_seen_s: now_s,
                projected_frontier_s: 0.0,
            },
        );
        self.next_lease = self.next_lease.max(next_lease);
        self.demand += spec.latency_s / spec.period_s;
        Ok(lease)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> LeasePool {
        LeasePool::new(PoolConfig::default())
    }

    fn obs_for(kind: ModelKind, salt: u64) -> Vec<f64> {
        (0..kind.spec().obs_len)
            .map(|i| ((i as u64).wrapping_mul(salt + 1) % 17) as f64 / 16.0)
            .collect()
    }

    #[test]
    fn grant_observe_release_round_trip() {
        let mut p = pool();
        let (lease, spec) = p.grant(ModelKind::Cartpole, 7, 0.0).unwrap();
        assert_eq!(spec.obs_len, 4);
        let out = p
            .observe(lease, obs_for(ModelKind::Cartpole, 1), 0.001)
            .unwrap();
        match out {
            ObsOutcome::Act {
                response_s,
                values,
                missed,
                ..
            } => {
                assert_eq!(values.len(), 1);
                assert!(response_s > 0.0 && !missed);
            }
            other => panic!("expected Act, got {other:?}"),
        }
        assert_eq!(p.release(lease).unwrap(), 1);
        assert_eq!(p.active(), 0);
        assert_eq!(
            p.observe(lease, vec![0.0; 4], 0.002),
            Err(LeaseError::UnknownLease)
        );
    }

    #[test]
    fn wrong_obs_len_is_typed() {
        let mut p = pool();
        let (lease, _) = p.grant(ModelKind::Cartpole, 7, 0.0).unwrap();
        assert_eq!(
            p.observe(lease, vec![0.0; 3], 0.001),
            Err(LeaseError::BadObsLen { expected: 4 })
        );
    }

    #[test]
    fn admission_control_rejects_at_capacity() {
        let mut p = LeasePool::new(PoolConfig {
            workers: 1,
            ..PoolConfig::default()
        });
        // Each cartpole lease demands 2e-6/2e-4 ≈ 1% of a worker. The leases
        // that fit are the ones the pool's own demand sum admits under the
        // cap, one floating-point step at a time.
        let spec = ModelKind::Cartpole.spec();
        let step = spec.latency_s / spec.period_s;
        let (mut demand, mut fits) = (0.0, 0);
        while demand + step <= UTILIZATION_CAP {
            demand += step;
            fits += 1;
        }
        // Rounding may cost the last lease, never more.
        let ideal = (UTILIZATION_CAP / step) as u64;
        assert!(fits == ideal || fits + 1 == ideal, "{fits} of {ideal}");
        let mut granted = 0;
        let mut first = None;
        loop {
            match p.grant(ModelKind::Cartpole, granted, 0.0) {
                Ok((lease, _)) => {
                    first.get_or_insert(lease);
                    granted += 1;
                }
                Err(LeaseError::Rejected { retry_after_ms }) => {
                    assert_eq!(retry_after_ms, RETRY_AFTER_MS);
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
            assert!(granted < 1000, "admission control never engaged");
        }
        assert_eq!(granted, fits);
        // Releasing one frees capacity for exactly one more.
        p.release(first.unwrap()).unwrap();
        assert!(p.grant(ModelKind::Cartpole, 999, 0.0).is_ok());
        assert!(matches!(
            p.grant(ModelKind::Cartpole, 1000, 0.0),
            Err(LeaseError::Rejected { .. })
        ));
    }

    #[test]
    fn backlogged_lease_sheds_with_retry_after() {
        let mut p = pool();
        let (lease, spec) = p.grant(ModelKind::Cartpole, 3, 0.0).unwrap();
        // Observations arriving much faster than the model's latency pile
        // the frontier past the budget; the pool must start shedding.
        let mut acts = 0;
        let mut sheds = 0;
        for k in 0..64 {
            let now = 1e-7 * k as f64;
            match p
                .observe(lease, obs_for(ModelKind::Cartpole, k), now)
                .unwrap()
            {
                ObsOutcome::Act { .. } => acts += 1,
                ObsOutcome::Shed { retry_after_ms } => {
                    assert!(retry_after_ms > 0);
                    sheds += 1;
                }
            }
        }
        assert!(acts > 0, "some observations must be served");
        assert!(sheds > 0, "a flooded lease must shed");
        // Sheds land in the scheduler's drop accounting.
        assert_eq!(p.lease_stats(lease).unwrap().drops, sheds);
        assert_eq!(p.lease_stats(lease).unwrap().ticks, acts);
        // After the backlog drains (time passes), service resumes.
        let late = 1.0;
        assert!(matches!(
            p.observe(lease, obs_for(ModelKind::Cartpole, 99), late)
                .unwrap(),
            ObsOutcome::Act { .. }
        ));
        let _ = spec;
    }

    #[test]
    fn expiry_reaps_silent_leases_but_heartbeats_keep_alive() {
        let mut p = pool();
        let (a, _) = p.grant(ModelKind::Cartpole, 1, 0.0).unwrap();
        let (b, _) = p.grant(ModelKind::Cartpole, 2, 0.0).unwrap();
        let ttl = p.config().lease_ttl_s;
        assert!(p.heartbeat(a, ttl * 0.9));
        assert_eq!(p.expire(ttl * 1.5), vec![b]);
        assert_eq!(p.active(), 1);
        assert!(p.heartbeat(a, ttl * 1.6));
        assert!(!p.heartbeat(b, ttl * 1.6));
    }

    #[test]
    fn slot_reuse_keeps_loop_ids_dense_under_churn() {
        let mut p = pool();
        for round in 0..5u64 {
            let (x, _) = p.grant(ModelKind::Cartpole, round, 0.0).unwrap();
            let (y, _) = p.grant(ModelKind::LidarConv, round, 0.0).unwrap();
            let _ = p
                .observe(x, obs_for(ModelKind::Cartpole, round), 0.01)
                .unwrap();
            let _ = p
                .observe(y, obs_for(ModelKind::LidarConv, round), 0.01)
                .unwrap();
            p.release(x).unwrap();
            p.release(y).unwrap();
        }
        // Ten leases churned through the pool, but only two scheduler slots
        // were ever needed (the freelist reuses retired indices).
        let (z, _) = p.grant(ModelKind::Cartpole, 9, 0.0).unwrap();
        let id = p.leases.get(&z).unwrap().loop_id;
        assert!(id.0 < 2, "slot index {} grew despite the freelist", id.0);
    }

    #[test]
    fn snapshot_and_restore_resume_bit_exactly() {
        let cfg = PoolConfig::default();
        let obs_stream: Vec<Vec<f64>> = (0..10).map(|k| obs_for(ModelKind::LidarConv, k)).collect();
        let times: Vec<f64> = (0..10).map(|k| 1e-3 * (k + 1) as f64).collect();
        // Reference: uninterrupted.
        let mut reference = LeasePool::new(cfg);
        let (rl, _) = reference.grant(ModelKind::LidarConv, 77, 0.0).unwrap();
        let ref_acts: Vec<ObsOutcome> = obs_stream
            .iter()
            .zip(&times)
            .map(|(o, t)| reference.observe(rl, o.clone(), *t).unwrap())
            .collect();
        // Victim: serve 6, snapshot, crash; a fresh pool adopts and serves
        // the remaining 4.
        let mut victim = LeasePool::new(cfg);
        let (vl, _) = victim.grant(ModelKind::LidarConv, 77, 0.0).unwrap();
        for (o, t) in obs_stream.iter().zip(&times).take(6) {
            let _ = victim.observe(vl, o.clone(), *t).unwrap();
        }
        let wire = victim.snapshot_lease(vl).unwrap().to_jsonl();
        drop(victim);
        let mut fresh = LeasePool::new(cfg);
        let ckpt = Checkpoint::from_jsonl(&wire).unwrap();
        let adopted = fresh.restore_lease(&ckpt, times[5]).unwrap();
        assert_eq!(adopted, vl, "the lease resumes under its original id");
        for (k, (o, t)) in obs_stream.iter().zip(&times).enumerate().skip(6) {
            let got = fresh.observe(adopted, o.clone(), *t).unwrap();
            match (&got, &ref_acts[k]) {
                (
                    ObsOutcome::Act {
                        response_s: gr,
                        energy_j: ge,
                        values: gv,
                        ..
                    },
                    ObsOutcome::Act {
                        response_s: rr,
                        energy_j: re,
                        values: rv,
                        ..
                    },
                ) => {
                    assert_eq!(gr.to_bits(), rr.to_bits(), "tick {k} response");
                    assert_eq!(ge.to_bits(), re.to_bits(), "tick {k} energy");
                    assert_eq!(gv.len(), rv.len());
                    for (a, b) in gv.iter().zip(rv) {
                        assert_eq!(a.to_bits(), b.to_bits(), "tick {k} action bits");
                    }
                }
                other => panic!("tick {k}: {other:?}"),
            }
        }
        assert_eq!(
            fresh.lease_stats(adopted).unwrap(),
            // Reference must be read mutably after the borrow above ends.
            {
                let mut r = reference;
                r.lease_stats(rl).unwrap()
            },
            "resumed accounting must match the uninterrupted lease"
        );
    }

    /// The lease's own restore refuses a foreign identity on the key that
    /// differs, and a refused restore (the telemetry section's included)
    /// leaves the loop as it was. A document still carrying the `action`
    /// key older writers emitted restores.
    #[test]
    fn a_refused_lease_restore_leaves_the_loop_unchanged() {
        let mut donor = LeaseLoop::new(3, ModelKind::Cartpole, 5);
        let mut values = Vec::new();
        for k in 0..4 {
            donor.serve(&[0.1 * f64::from(k); 4], &mut values);
        }
        let good = donor.save_state().unwrap();
        let shadow = |id: &str, edit: fn(&mut Section)| {
            let mut ckpt = good.clone();
            let mut s = good.section(id).unwrap().clone();
            edit(&mut s);
            ckpt.push(s);
            ckpt
        };
        let mut target = LeaseLoop::new(3, ModelKind::Cartpole, 5);
        let before = target.save_state().unwrap();
        let refused = [
            (
                "serve.lease.kind",
                shadow(LEASE_SECTION, |s| s.put_u64("kind", 0)),
            ),
            (
                "serve.lease.seed",
                shadow(LEASE_SECTION, |s| s.put_u64("seed", 6)),
            ),
            (
                "serve.lease.state",
                shadow(LEASE_SECTION, |s| s.put_f64s("state", &[0.0; 4])),
            ),
            (
                "telemetry.capacity",
                shadow("telemetry", |s| s.put_u64("capacity", 0)),
            ),
        ];
        for (key, hostile) in refused {
            assert_eq!(
                target.restore_from(&hostile),
                Err(CheckpointError::BadValue(key.into()))
            );
            assert_eq!(
                target.save_state().unwrap(),
                before,
                "{key}: the lease changed"
            );
        }
        let with_action = shadow(LEASE_SECTION, |s| s.put_f64s("action", &[0.5]));
        target.restore_from(&with_action).unwrap();
        assert_eq!(target.save_state().unwrap(), good);
    }

    #[test]
    fn restore_refuses_identity_mismatch_and_double_adopt() {
        let mut p = pool();
        let (lease, _) = p.grant(ModelKind::Cartpole, 5, 0.0).unwrap();
        let _ = p
            .observe(lease, obs_for(ModelKind::Cartpole, 0), 0.001)
            .unwrap();
        let ckpt = p.snapshot_lease(lease).unwrap();
        // The lease is still live here: adopting on the same pool collides.
        assert!(matches!(
            p.restore_lease(&ckpt, 0.01),
            Err(CheckpointError::BadValue(_))
        ));
        // A pool that never granted it adopts fine — but not under an id the
        // lease counter cannot step past (the checkpoint is outside input):
        // refused up front, nothing registered, the pool unchanged.
        let mut q = pool();
        let mut hostile = ckpt.clone();
        let mut grant = Section::new(GRANT_SECTION);
        grant.put_u64("lease", u64::MAX);
        hostile.push(grant);
        assert_eq!(
            q.restore_lease(&hostile, 0.01),
            Err(CheckpointError::BadValue("serve.grant.lease".into()))
        );
        assert_eq!((q.active(), q.sched.len()), (0, 0));
        // Nor under a kind that only aliases a real one once truncated to
        // the wire byte (256 → 0).
        let mut hostile = ckpt.clone();
        let mut ident = ckpt.section(LEASE_SECTION).unwrap().clone();
        ident.put_u64("kind", 256);
        hostile.push(ident);
        assert_eq!(
            q.restore_lease(&hostile, 0.01),
            Err(CheckpointError::BadValue("serve.lease.kind".into()))
        );
        assert_eq!((q.active(), q.sched.len()), (0, 0));
        assert_eq!(q.restore_lease(&ckpt, 0.01).unwrap(), lease);
        assert_eq!((q.active(), q.sched.len()), (1, 1));
    }
}
