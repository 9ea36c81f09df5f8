//! The three serving workloads: `serve_mixed`, `serve_cartpole_wide` and
//! `serve_churn`, all over the in-process [`Loopback`] transport under a
//! virtual arrival clock (so shed and reject counts are exact).
//!
//! Closed loop: a round sends one observation per resident lease, closes
//! the batching window, and collects every reply before the next round —
//! a sensing-to-action client cannot emit observation *t+1* before it has
//! applied action *t*. The one open element is `serve_churn`'s bursts: `k`
//! observations stamped within 1.6 µs of one virtual instant.

use crate::measure::{lat_ns, replay_s, Exact, Fold, SegCounts};
use crate::replay;
use crate::trace::{self, now_ns, Drained};
use crate::workload::{Check, Layers, Sizing, Workload};
use sensact_core::telemetry::LoopTelemetry;
use sensact_core::trace::StageBreakdown;
use sensact_core::{MetricsRegistry, Precision, Trust};
use sensact_math::rng::StdRng;
use sensact_sched::{
    DynLoop, FleetConfig, FleetScheduler, LoopHandle, LoopId, LoopSpec, TickOutcome,
};
use sensact_serve::engine::ConnState;
use sensact_serve::metrics as m;
use sensact_serve::wire::{self, Frame};
use sensact_serve::{
    Admitted, BatchPlanner, ConnId, LeasePool, Loopback, ModelKind, PoolConfig, ServeConfig,
    ServeEngine, SharedPerceptor,
};
use std::hint::black_box;

/// Virtual time between rounds: one lidar period, so a lease's previous
/// tick has always completed and nothing sheds outside a burst.
const ROUND_S: f64 = 1e-3;
/// Pre-encoded observation variants each resident lease cycles through.
const VARIANTS: usize = 4;
/// `serve_churn`: the reaper and a `/metrics` scrape run every this many
/// rounds.
const HOUSEKEEPING_EVERY: u64 = 16;
/// `serve_churn`: observations in one burst.
const BURST: usize = 16;
/// Virtual spacing of a burst's observations. A burst is one observation,
/// the drain that starts its tick, then `BURST - 1` more while that tick is
/// in flight, 0.1 µs apart. The shape matters: the shed rule compares
/// `start + (pending + 1) · latency − now` with a budget that is an exact
/// multiple of the latency, and when `start == now` the observation sitting
/// exactly on the budget rounds to either side — differently in batched and
/// per-loop dispatch. With a tick in flight both modes compute
/// `(k + 1) · latency − k · stagger`, off the boundary, so the
/// byte-identical replay check holds under bursts too.
const BURST_STAGGER_S: f64 = 1e-7;
/// Rounds the unbatched-replay check compares.
const CHECK_ROUNDS: usize = 50;

const SCRAPE: &[u8] = b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n";

#[derive(Debug, Clone, Copy)]
struct Plan {
    lidar: usize,
    cartpole: usize,
    pool: PoolConfig,
    churn_clients: usize,
    rounds_per_segment: usize,
    warmup_rounds: usize,
    /// Rounds a replay twin serves before it is timed: enough to fill every
    /// lease's telemetry ring (4096 records), so the twin's working set is
    /// the live fleet's, not a freshly built one's.
    twin_age_rounds: usize,
}

fn pool(workers: usize, lease_ttl_s: f64) -> PoolConfig {
    PoolConfig {
        workers,
        lease_ttl_s,
        ..PoolConfig::default()
    }
}

fn plan_mixed(s: Sizing) -> Plan {
    Plan {
        lidar: if s.smoke { 8 } else { 32 },
        cartpole: if s.smoke { 8 } else { 32 },
        pool: PoolConfig::default(),
        churn_clients: 0,
        rounds_per_segment: if s.smoke { 800 } else { 120 },
        warmup_rounds: 200,
        twin_age_rounds: if s.smoke { 0 } else { 4096 },
    }
}

fn plan_wide(s: Sizing) -> Plan {
    Plan {
        lidar: 0,
        cartpole: if s.smoke { 64 } else { 512 },
        // 512 × (2 µs / 200 µs) = 5.12 workers of demand: size the pool so
        // admission control is not what this workload measures.
        pool: pool(8, PoolConfig::default().lease_ttl_s),
        churn_clients: 0,
        rounds_per_segment: if s.smoke { 1200 } else { 48 },
        warmup_rounds: 100,
        twin_age_rounds: if s.smoke { 0 } else { 4096 },
    }
}

fn plan_churn(s: Sizing) -> Plan {
    Plan {
        lidar: if s.smoke { 4 } else { 16 },
        cartpole: if s.smoke { 12 } else { 48 },
        // Residents take 0.8 of the 1.6 workers the cap admits; churn
        // clients fight over the rest, so some lease requests are rejected.
        // A short TTL lets silent leases expire within a segment.
        pool: pool(if s.smoke { 1 } else { 2 }, 0.02),
        churn_clients: if s.smoke { 20 } else { 80 },
        rounds_per_segment: if s.smoke { 1500 } else { 100 },
        warmup_rounds: 200,
        twin_age_rounds: if s.smoke { 0 } else { 4096 },
    }
}

struct Resident {
    conn: ConnId,
    frames: Vec<Vec<u8>>,
}

enum ChurnState {
    Idle { until_round: u64 },
    Leased { lease: u64, rounds_left: u32 },
}

struct ChurnClient {
    conn: ConnId,
    kind: ModelKind,
    values: Vec<f64>,
    /// Observation frame for the current lease (re-encoded on each grant:
    /// per-lease client work, not per-observation).
    frame: Vec<u8>,
    state: ChurnState,
    rng: StdRng,
}

/// Kind of resident `i`: the two kinds interleaved while both last, so a
/// flush sees them mixed.
fn resident_kind(i: usize, plan: &Plan) -> ModelKind {
    if i.is_multiple_of(2) && i / 2 < plan.lidar || i / 2 >= plan.cartpole {
        ModelKind::LidarConv
    } else {
        ModelKind::Cartpole
    }
}

fn obs_values(kind: ModelKind, rng: &mut StdRng) -> Vec<f64> {
    let n = kind.spec().obs_len;
    match kind {
        // A sparse occupancy grid, like a voxelised masked scan.
        ModelKind::LidarConv => (0..n)
            .map(|_| if rng.gen_f64() < 0.15 { 1.0 } else { 0.0 })
            .collect(),
        ModelKind::Cartpole => (0..n).map(|_| rng.gen_f64() * 0.2 - 0.1).collect(),
    }
}

/// One serving fleet on a loopback server, driven a round at a time.
struct Fleet {
    plan: Plan,
    seed: u64,
    lb: Loopback,
    residents: Vec<Resident>,
    churn: Vec<ChurnClient>,
    web: ConnId,
    round: u64,
    sends: Vec<u64>,
    fold: Fold,
    energy_j: f64,
    done: u64,
    total: SegCounts,
    /// When set, every reply frame is re-encoded into it (the unbatched
    /// replay check compares these bytes).
    capture: Option<Vec<u8>>,
    /// Churn clients bursting this round (reused storage).
    bursting: Vec<usize>,
}

impl Fleet {
    fn new(seed: u64, plan: Plan, batched: bool) -> Fleet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lb = Loopback::new(ServeConfig {
            pool: plan.pool,
            batched,
        });
        let mut residents = Vec::new();
        for i in 0..plan.lidar + plan.cartpole {
            let kind = resident_kind(i, &plan);
            let conn = lb.connect();
            let (lease, ..) = lb
                .request_lease(conn, kind.wire(), rng.next_u64(), 0.0)
                .expect("resident fleet fits under the utilization cap");
            let frames = (0..VARIANTS)
                .map(|v| {
                    wire::encode_to_vec(&Frame::Obs {
                        lease,
                        seq: v as u64,
                        values: obs_values(kind, &mut rng),
                    })
                })
                .collect();
            residents.push(Resident { conn, frames });
        }
        let churn = (0..plan.churn_clients)
            .map(|i| {
                let kind = if i % 4 == 0 {
                    ModelKind::LidarConv
                } else {
                    ModelKind::Cartpole
                };
                let mut crng = StdRng::seed_from_u64(rng.next_u64());
                ChurnClient {
                    conn: lb.connect(),
                    kind,
                    values: obs_values(kind, &mut crng),
                    frame: Vec::new(),
                    state: ChurnState::Idle {
                        until_round: crng.random_range(0..8u64),
                    },
                    rng: crng,
                }
            })
            .collect();
        let web = lb.connect();
        let mut fleet = Fleet {
            plan,
            seed,
            lb,
            residents,
            churn,
            web,
            round: 0,
            sends: Vec::new(),
            fold: Fold::default(),
            energy_j: 0.0,
            done: 0,
            total: SegCounts::default(),
            capture: None,
            bursting: Vec::new(),
        };
        // Warm-up is part of set-up: fault in scratch buffers and fill the
        // batch planner's reusable vectors before the first timed op.
        let mut sink = Vec::new();
        for _ in 0..plan.warmup_rounds {
            fleet.round(&mut sink);
            sink.clear();
        }
        fleet
    }

    /// Keep one connection's replies of this round for the unbatched replay
    /// check. Sorted, because the two modes order a burst's sheds and acts
    /// differently (sheds are inline, batched acts wait for the flush).
    fn capture(&mut self, frames: &[Frame]) {
        if let Some(buf) = &mut self.capture {
            let mut encoded: Vec<Vec<u8>> = frames.iter().map(wire::encode_to_vec).collect();
            encoded.sort();
            buf.extend(encoded.into_iter().flatten());
        }
    }

    /// Account one reply frame.
    fn on_reply(&mut self, frame: &Frame, c: &mut SegCounts) {
        match frame {
            Frame::Act {
                energy_j, values, ..
            } => {
                self.energy_j += energy_j;
                for v in values {
                    self.fold.f64(*v);
                }
                self.done += 1;
            }
            Frame::LeaseGrant { lease, .. } => {
                self.fold.word(*lease);
                self.done += 1;
            }
            Frame::Released { ticks, .. } => {
                self.fold.word(*ticks);
                self.done += 1;
            }
            Frame::Shed { .. } | Frame::LeaseReject { .. } => c.refused += 1,
            _ => c.failed += 1,
        }
    }

    /// The churn clients' part of a round: lease, burst, heartbeat,
    /// release or fall silent. Deterministic in `(seed, round)`.
    fn churn_round(&mut self, now_s: f64, c: &mut SegCounts) {
        let mut bursting = std::mem::take(&mut self.bursting);
        bursting.clear();
        for i in 0..self.churn.len() {
            let round = self.round;
            let cl = &mut self.churn[i];
            match cl.state {
                ChurnState::Idle { until_round } if round >= until_round => {
                    let seed = cl.rng.next_u64();
                    self.sends.push(now_ns());
                    c.attempted += 1;
                    let req = Frame::LeaseReq {
                        model: cl.kind.wire(),
                        seed,
                    };
                    let conn = cl.conn;
                    self.lb.send_frame(conn, &req, now_s);
                    let reply = self.lb.take_frames(conn);
                    self.capture(&reply);
                    for frame in &reply {
                        self.on_reply(frame, c);
                    }
                    let cl = &mut self.churn[i];
                    cl.state = match reply.last() {
                        Some(Frame::LeaseGrant { lease, .. }) => {
                            cl.frame.clear();
                            let obs = Frame::Obs {
                                lease: *lease,
                                seq: round,
                                values: std::mem::take(&mut cl.values),
                            };
                            wire::encode(&obs, &mut cl.frame);
                            if let Frame::Obs { values, .. } = obs {
                                cl.values = values;
                            }
                            ChurnState::Leased {
                                lease: *lease,
                                rounds_left: cl.rng.random_range(2..8u32),
                            }
                        }
                        _ => ChurnState::Idle {
                            until_round: round + cl.rng.random_range(1..5u64),
                        },
                    };
                }
                ChurnState::Idle { .. } => {}
                ChurnState::Leased { lease, rounds_left } => {
                    let conn = cl.conn;
                    if rounds_left == 0 {
                        // Half the clients release; the rest fall silent and
                        // are reaped by `expire` after the TTL.
                        if cl.rng.random::<bool>() {
                            self.sends.push(now_ns());
                            c.attempted += 1;
                            self.lb.send_frame(conn, &Frame::Release { lease }, now_s);
                        }
                        let cl = &mut self.churn[i];
                        cl.state = ChurnState::Idle {
                            until_round: round + cl.rng.random_range(1..5u64),
                        };
                        continue;
                    }
                    cl.state = ChurnState::Leased {
                        lease,
                        rounds_left: rounds_left - 1,
                    };
                    match cl.rng.random_range(0..4u32) {
                        0 => {
                            // Burst past the response budget (below).
                            bursting.push(i);
                            self.sends.push(now_ns());
                            c.attempted += 1;
                            self.lb.send_bytes(conn, &self.churn[i].frame, now_s);
                        }
                        1 => self.lb.send_frame(conn, &Frame::Heartbeat { lease }, now_s),
                        _ => {
                            self.sends.push(now_ns());
                            c.attempted += 1;
                            self.lb.send_bytes(conn, &self.churn[i].frame, now_s);
                        }
                    }
                }
            }
        }
        if !bursting.is_empty() {
            // The drain that starts the bursting leases' ticks; the rest of
            // each burst arrives while that tick is in flight, so its tail
            // sheds.
            trace::scope("serve.loopback.flush_us", || self.lb.flush(now_s));
            for &i in &bursting {
                let conn = self.churn[i].conn;
                for k in 1..BURST {
                    self.sends.push(now_ns());
                    let at_s = now_s + k as f64 * BURST_STAGGER_S;
                    self.lb.send_bytes(conn, &self.churn[i].frame, at_s);
                }
                c.attempted += BURST as u64 - 1;
            }
        }
        self.bursting = bursting;
        if self.round.is_multiple_of(HOUSEKEEPING_EVERY) {
            self.lb.expire(now_s);
            self.sends.push(now_ns());
            c.attempted += 1;
            self.lb.send_bytes(self.web, SCRAPE, now_s);
            let body = self.lb.take_http(self.web);
            if body.starts_with(b"HTTP/1.1 200") {
                self.done += 1;
            } else {
                c.failed += 1;
            }
            black_box(body);
        }
    }

    /// One closed-loop round; pushes one latency per completed or refused
    /// op (a refusal is a reply too) and returns the round's counts.
    fn round(&mut self, lat: &mut Vec<u32>) -> SegCounts {
        self.round += 1;
        let now_s = ROUND_S * self.round as f64;
        let variant = self.round as usize % VARIANTS;
        let mut c = SegCounts::default();
        self.sends.clear();
        trace::set_op(self.total.attempted);
        trace::scope_calls(
            "serve.loopback.send_us",
            self.residents.len() as u64,
            || {
                for r in &self.residents {
                    self.sends.push(now_ns());
                    self.lb.send_bytes(r.conn, &r.frames[variant], now_s);
                }
            },
        );
        c.attempted += self.residents.len() as u64;
        if !self.churn.is_empty() {
            self.churn_round(now_s, &mut c);
        }
        trace::scope("serve.loopback.flush_us", || self.lb.flush(now_s));
        let conns = self.residents.len() + self.churn.len();
        trace::scope_calls("serve.loopback.take_us", conns as u64, || {
            for i in 0..conns {
                let conn = match self.residents.get(i) {
                    Some(r) => r.conn,
                    None => self.churn[i - self.residents.len()].conn,
                };
                let frames = self.lb.take_frames(conn);
                self.capture(&frames);
                for frame in &frames {
                    self.on_reply(frame, &mut c);
                }
            }
        });
        let end = now_ns();
        for &sent in &self.sends {
            lat.push(lat_ns(end - sent));
        }
        self.total.attempted += c.attempted;
        self.total.refused += c.refused;
        self.total.failed += c.failed;
        c
    }
}

pub fn mixed(seed: u64, s: Sizing) -> Box<dyn Workload> {
    Box::new(Fleet::new(seed, plan_mixed(s), true))
}

pub fn cartpole_wide(seed: u64, s: Sizing) -> Box<dyn Workload> {
    Box::new(Fleet::new(seed, plan_wide(s), true))
}

pub fn churn(seed: u64, s: Sizing) -> Box<dyn Workload> {
    Box::new(Fleet::new(seed, plan_churn(s), true))
}

impl Workload for Fleet {
    fn segment(&mut self, lat: &mut Vec<u32>) -> SegCounts {
        let mut total = SegCounts::default();
        for _ in 0..self.plan.rounds_per_segment {
            let c = self.round(lat);
            total.attempted += c.attempted;
            total.refused += c.refused;
            total.failed += c.failed;
        }
        total
    }

    fn exact(&mut self) -> Exact {
        Exact {
            ops: self.done,
            refused: self.total.refused,
            failed: self.total.failed,
            energy_j: self.energy_j,
            hash: self.fold.0,
        }
    }

    fn check(&mut self) -> Vec<Check> {
        // Batched serving must be byte-identical to per-loop dispatch: two
        // fresh fleets from the same seed, one of each, reply for reply.
        let replay = |batched: bool| {
            let mut plan = self.plan;
            plan.warmup_rounds = 0;
            let mut f = Fleet::new(self.seed, plan, batched);
            f.capture = Some(Vec::new());
            let mut lat = Vec::new();
            for _ in 0..CHECK_ROUNDS {
                f.round(&mut lat);
            }
            (f.capture.take().expect("capture on"), f.total)
        };
        let (batched, bt) = replay(true);
        let (unbatched, ut) = replay(false);
        let same = batched == unbatched;
        let mut checks = vec![Check::new(
            "unbatched_replay",
            same && !batched.is_empty(),
            format!(
                "{CHECK_ROUNDS} rounds, {} reply bytes batched vs {} per-loop, refused {} vs {}",
                batched.len(),
                unbatched.len(),
                bt.refused,
                ut.refused
            ),
        )];
        let f = self;
        let served = f.lb.engine().metrics().counter(m::OBS_SERVED);
        let shed = f.lb.engine().metrics().counter(m::OBS_SHED);
        let rejected = f.lb.engine().metrics().counter(m::LEASES_REJECTED);
        checks.push(Check::new(
            "engine_counters",
            shed + rejected == f.total.refused && f.total.failed == 0,
            format!(
                "engine served {served} shed {shed} rejected {rejected}; client saw {} refused, {} failed",
                f.total.refused, f.total.failed
            ),
        ));
        checks
    }

    fn layers(&mut self, spans: &Drained, traced_ops: u64, budget_s: f64, out: &mut Layers) {
        for name in [
            "serve.loopback.send_us",
            "serve.loopback.flush_us",
            "serve.loopback.take_us",
        ] {
            out.wrapped(spans, name, traced_ops);
        }
        let f = self;
        let attempted = f.total.attempted.max(1) as f64;
        let reg = f.lb.engine().metrics();
        let served = reg.counter(m::OBS_SERVED);
        let shed = reg.counter(m::OBS_SHED);
        let rejected = reg.counter(m::LEASES_REJECTED);
        let granted = reg.counter(m::LEASES_GRANTED);
        let released = reg.counter(m::LEASES_RELEASED);
        let expired = reg.counter(m::LEASES_EXPIRED);
        let scrapes = reg.counter(m::HTTP_REQUESTS);
        let occupancy = reg.histogram(m::BATCH_OCCUPANCY);
        let batches = occupancy.map(|h| h.count()).unwrap_or(0);
        out.set("serve.obs.served", served as f64 / attempted, served);
        out.set("serve.obs.shed", shed as f64 / attempted, shed);
        out.set(
            "serve.lease.rejected",
            rejected as f64 / attempted,
            rejected,
        );
        out.set(
            "serve.batch.occupancy_mean",
            occupancy.map(|h| h.mean()).unwrap_or(0.0),
            batches,
        );
        out.set(
            "serve.batch.batches_per_flush",
            batches as f64 / f.round.max(1) as f64,
            f.round,
        );
        // Per-call replays are scaled by how often the workload made the
        // call, so every value is busy µs per workload op. Set-up grants are
        // not on the timed path.
        let setup_grants = (f.plan.lidar + f.plan.cartpole) as u64;
        let per_op = |calls: u64| calls as f64 / attempted;
        let twin = Twin::new(f.seed, f.plan);
        twin.replay(
            budget_s,
            out,
            Rates {
                grants: per_op(granted.saturating_sub(setup_grants)),
                releases: per_op(released),
                expiries: per_op(expired),
                scrapes: per_op(scrapes),
            },
        );
    }
}

/// How often (per op) the workload made each occasional call.
struct Rates {
    grants: f64,
    releases: f64,
    expiries: f64,
    scrapes: f64,
}

/// The resident fleet's traffic rebuilt from the seed, for feeding single
/// layers in isolation — the only outside view of work that happens inside
/// `ServeEngine::flush`.
struct Twin {
    plan: Plan,
    kinds: Vec<ModelKind>,
    seeds: Vec<u64>,
    /// One round of observation frames (variant 0), lease ids as a fresh
    /// pool grants them.
    frames: Vec<Vec<u8>>,
    values: Vec<Vec<f64>>,
}

impl Twin {
    fn new(seed: u64, plan: Plan) -> Twin {
        // Mirrors `Fleet::new`'s draw order so the twin serves the same
        // leases and observations.
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut kinds, mut seeds, mut frames, mut values) = (vec![], vec![], vec![], vec![]);
        for i in 0..plan.lidar + plan.cartpole {
            let kind = resident_kind(i, &plan);
            kinds.push(kind);
            seeds.push(rng.next_u64());
            let lease = i as u64 + 1;
            for v in 0..VARIANTS {
                let vals = obs_values(kind, &mut rng);
                if v == 0 {
                    frames.push(wire::encode_to_vec(&Frame::Obs {
                        lease,
                        seq: 0,
                        values: vals.clone(),
                    }));
                    values.push(vals);
                }
            }
        }
        Twin {
            plan,
            kinds,
            seeds,
            frames,
            values,
        }
    }

    fn cfg(&self) -> ServeConfig {
        ServeConfig {
            pool: self.plan.pool,
            batched: true,
        }
    }

    fn replay(&self, budget_s: f64, out: &mut Layers, rates: Rates) {
        let n = self.frames.len();
        let per = |round_s: f64| round_s * 1e6 / n as f64;
        let calls = n as u64;

        // --- engine: ingest and flush on a twin ServeEngine -------------
        let mut engine = ServeEngine::new(self.cfg());
        let mut conns: Vec<ConnState> = (0..n).map(|_| ConnState::new()).collect();
        for (i, conn) in conns.iter_mut().enumerate() {
            let req = wire::encode_to_vec(&Frame::LeaseReq {
                model: self.kinds[i].wire(),
                seed: self.seeds[i],
            });
            let granted = engine.ingest(conn, &req, 0.0).granted;
            assert_eq!(granted, vec![i as u64 + 1], "twin lease ids are dense");
        }
        let mut round = 0u64;
        for _ in 0..self.plan.twin_age_rounds {
            round += 1;
            let now_s = ROUND_S * round as f64;
            for (conn, frame) in conns.iter_mut().zip(&self.frames) {
                engine.ingest(conn, frame, now_s);
            }
            engine.flush(now_s);
        }
        let mut replies: Vec<(u64, Vec<u8>)> = Vec::new();
        let (mut ingest_s, mut flush_s) = (f64::INFINITY, f64::INFINITY);
        let start = now_ns();
        while round < 3 || ((now_ns() - start) as f64) < budget_s * 2e9 {
            round += 1;
            let now_s = ROUND_S * round as f64;
            let t0 = now_ns();
            for (conn, frame) in conns.iter_mut().zip(&self.frames) {
                black_box(engine.ingest(conn, frame, now_s));
            }
            let t1 = now_ns();
            replies = engine.flush(now_s);
            let t2 = now_ns();
            ingest_s = ingest_s.min((t1 - t0) as f64 * 1e-9);
            flush_s = flush_s.min((t2 - t1) as f64 * 1e-9);
        }
        out.set("serve.engine.ingest_us", per(ingest_s), calls);
        out.set("serve.engine.flush_us", per(flush_s), 1);

        // --- wire ------------------------------------------------------
        let decode_obs = replay_s(budget_s, 1, || {
            for frame in &self.frames {
                black_box(wire::decode(black_box(frame)).expect("valid frame"));
            }
        });
        out.set("serve.wire.decode_obs_us", per(decode_obs), calls);
        let acts: Vec<Frame> = replies
            .iter()
            .map(|(_, b)| wire::decode(b).expect("valid reply").expect("whole").0)
            .collect();
        let mut buf = Vec::new();
        let encode_act = replay_s(budget_s, 1, || {
            for act in &acts {
                buf.clear();
                wire::encode(black_box(act), &mut buf);
                black_box(&buf);
            }
        });
        out.set("serve.wire.encode_act_us", per(encode_act), calls);
        let decode_act = replay_s(budget_s, 1, || {
            for (_, bytes) in &replies {
                black_box(wire::decode(black_box(bytes)).expect("valid reply"));
            }
        });
        out.set("serve.wire.decode_act_us", per(decode_act), calls);
        let bytes_in: usize = self.frames.iter().map(Vec::len).sum();
        let bytes_out: usize = replies.iter().map(|(_, b)| b.len()).sum();
        out.set("serve.wire.bytes_in_per_op", (bytes_in / n) as f64, calls);
        out.set("serve.wire.bytes_out_per_op", (bytes_out / n) as f64, calls);

        // --- lease + batch: admit and flush on a twin LeasePool ---------
        let mut pool = LeasePool::new(self.plan.pool);
        for i in 0..n {
            pool.grant(self.kinds[i], self.seeds[i], 0.0)
                .expect("twin fleet fits");
        }
        let mut planner = BatchPlanner::new();
        let (mut admit_s, mut bflush_s) = (f64::INFINITY, f64::INFINITY);
        let mut round = 0u64;
        let start = now_ns();
        while round < 3 || ((now_ns() - start) as f64) < budget_s * 2e9 {
            round += 1;
            let now_s = ROUND_S * round as f64;
            let obs: Vec<Vec<f64>> = self.values.clone();
            let mut tickets = Vec::with_capacity(n);
            let t0 = now_ns();
            for (i, v) in self.values.iter().enumerate() {
                tickets.push(pool.admit_deferred(i as u64 + 1, v.len(), now_s));
            }
            let t1 = now_ns();
            for (ticket, v) in tickets.into_iter().zip(obs) {
                match ticket {
                    Ok(Admitted::Queued(t)) => planner.enqueue(t, 0, v, now_s),
                    other => panic!("twin admit refused: {other:?}"),
                }
            }
            let t2 = now_ns();
            black_box(planner.flush(&mut pool));
            let t3 = now_ns();
            admit_s = admit_s.min((t1 - t0) as f64 * 1e-9);
            bflush_s = bflush_s.min((t3 - t2) as f64 * 1e-9);
        }
        out.set("serve.lease.admit_us", per(admit_s), calls);
        out.set("serve.batch.flush_us", per(bflush_s), 1);

        // --- model: the stacked forward and the controllers -------------
        let mut forward_s = 0.0;
        let lidar: Vec<&[f64]> = (0..n)
            .filter(|&i| self.kinds[i] == ModelKind::LidarConv)
            .map(|i| self.values[i].as_slice())
            .collect();
        if !lidar.is_empty() {
            let mut perceptor = SharedPerceptor::new(ModelKind::LidarConv, self.plan.pool.seed);
            let mut feats = vec![vec![0.0; ModelKind::LidarConv.feat_len()]; lidar.len()];
            forward_s += replay_s(budget_s, 1, || {
                let mut outs: Vec<&mut [f64]> = feats.iter_mut().map(Vec::as_mut_slice).collect();
                perceptor.forward_many_into(black_box(&lidar), &mut outs);
            });
        }
        let cart: Vec<&[f64]> = (0..n)
            .filter(|&i| self.kinds[i] == ModelKind::Cartpole)
            .map(|i| self.values[i].as_slice())
            .collect();
        if !cart.is_empty() {
            let mut perceptor = SharedPerceptor::new(ModelKind::Cartpole, self.plan.pool.seed);
            let mut feat = vec![0.0; ModelKind::Cartpole.feat_len()];
            forward_s += replay_s(budget_s, 1, || {
                for row in &cart {
                    perceptor.forward_one(black_box(row), &mut feat);
                    black_box(&feat);
                }
            });
        }
        out.set("serve.model.forward_us", per(forward_s), calls);
        out.set(
            "serve.batch.release_us",
            (per(bflush_s) - per(forward_s)).max(0.0),
            calls,
        );
        let mut states: Vec<Vec<f64>> = (0..n)
            .map(|i| self.kinds[i].init_state(self.seeds[i]))
            .collect();
        let feats: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut f = vec![0.0; self.kinds[i].feat_len()];
                let len = f.len().min(self.values[i].len());
                f[..len].copy_from_slice(&self.values[i][..len]);
                f
            })
            .collect();
        let mut actions: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![0.0; self.kinds[i].spec().act_len])
            .collect();
        let control_s = replay_s(budget_s, 1, || {
            for i in 0..n {
                self.kinds[i].control(&mut states[i], black_box(&feats[i]), &mut actions[i]);
            }
            black_box(&actions);
        });
        out.set("serve.model.control_us", per(control_s), calls);

        // --- lease writes: grant, release, expire ------------------------
        let churn_pool = PoolConfig {
            workers: 64,
            ..self.plan.pool
        };
        let batch = 64usize;
        let mut wpool = LeasePool::new(churn_pool);
        let mut now_s = 0.0;
        let (mut grant_s, mut release_s, mut expire_s) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let start = now_ns();
        let mut reps = 0;
        while reps < 3 || ((now_ns() - start) as f64) < budget_s * 1e9 {
            reps += 1;
            now_s += 1.0;
            let mut ids = Vec::with_capacity(batch);
            let t0 = now_ns();
            for i in 0..batch {
                ids.push(wpool.grant(ModelKind::Cartpole, i as u64, now_s));
            }
            let t1 = now_ns();
            for id in &ids {
                let lease = id.as_ref().expect("write pool has room").0;
                black_box(wpool.release(lease).expect("live lease"));
            }
            let t2 = now_ns();
            for i in 0..batch {
                black_box(wpool.grant(ModelKind::Cartpole, i as u64, now_s).is_ok());
            }
            let t3 = now_ns();
            let reaped = wpool.expire(now_s + churn_pool.lease_ttl_s + 0.5);
            let t4 = now_ns();
            assert_eq!(reaped.len(), batch, "every silent lease expires");
            grant_s = grant_s.min((t1 - t0) as f64 * 1e-9 / batch as f64);
            release_s = release_s.min((t2 - t1) as f64 * 1e-9 / batch as f64);
            expire_s = expire_s.min((t4 - t3) as f64 * 1e-9 / batch as f64);
        }
        out.set(
            "serve.lease.grant_us",
            grant_s * 1e6 * rates.grants,
            calls_of(rates.grants),
        );
        out.set(
            "serve.lease.release_us",
            release_s * 1e6 * rates.releases,
            calls_of(rates.releases),
        );
        out.set(
            "serve.lease.expire_us",
            expire_s * 1e6 * rates.expiries,
            calls_of(rates.expiries),
        );

        // --- http scrape on the warmed twin engine ----------------------
        if rates.scrapes > 0.0 {
            let mut web = ConnState::new();
            let scrape_s = replay_s(budget_s, 4, || {
                black_box(engine.ingest(&mut web, SCRAPE, 1.0));
            });
            out.set(
                "serve.http.scrape_us",
                scrape_s * 1e6 * rates.scrapes,
                calls_of(rates.scrapes),
            );
        }

        // --- what the engine does around its children --------------------
        let children = per(decode_obs) + per(admit_s) + per(bflush_s) + per(encode_act);
        out.set(
            "serve.engine.self_us",
            (per(ingest_s) + per(flush_s) - children).max(0.0),
            calls,
        );

        // --- sched + core under a lease tick ------------------------------
        let mut sched = FleetScheduler::new(FleetConfig {
            workers: self.plan.pool.workers,
            watts_cap: None,
            seed: self.plan.pool.seed,
        });
        let ids: Vec<LoopId> = (0..n)
            .map(|i| {
                let spec = self.kinds[i].spec();
                sched.register(
                    LoopHandle::from_dyn(Box::new(NullLoop::default())),
                    LoopSpec::periodic(spec.period_s).with_budget(spec.budget_s),
                )
            })
            .collect();
        let mut round = 0u64;
        let tick_s = replay_s(budget_s, 1, || {
            round += 1;
            let now_s = ROUND_S * round as f64;
            for &id in &ids {
                black_box(sched.tick_member_at(id, now_s));
            }
        });
        out.set("sched.tick_member_at_us", per(tick_s), calls);
        let mut telemetry = LoopTelemetry::new();
        let record_s = replay_s(budget_s, 256, || {
            telemetry.record_with_precision(
                black_box(5e-6),
                2e-5,
                Trust::Trusted,
                StageBreakdown::new(),
                Precision::F64,
            );
        });
        out.set("core.telemetry.record_us", record_s * 1e6, calls);
        // Per served observation the engine bumps three counters and one
        // histogram.
        let mut registry = MetricsRegistry::new();
        let inc_s = replay_s(budget_s, 256, || {
            registry.inc(m::FRAMES_IN);
            registry.inc(m::OBS_SERVED);
            registry.observe(m::RESPONSE_S, black_box(2e-5));
            registry.inc(m::FRAMES_OUT);
        });
        out.set("core.metrics.inc_us", inc_s * 1e6, 4 * calls);

        // --- nn + math under the shared perceptor -------------------------
        if !lidar.is_empty() {
            replay::lidar_conv(self.plan.pool.seed, &lidar, n, budget_s, out);
        }

        // --- closure: replayed children over the wrapped parent -----------
        let parent = out.get("serve.loopback.send_us").0 + out.get("serve.loopback.flush_us").0;
        if parent > 0.0 {
            let kids = per(ingest_s) + per(flush_s) + per(decode_act);
            out.set("bench.replay_closure_pct", 100.0 * kids / parent, calls);
        }
    }
}

fn calls_of(rate: f64) -> u64 {
    u64::from(rate > 0.0)
}

/// A member that does nothing but what every scheduled tick must: report an
/// outcome. Ticking it through `tick_member_at` prices the scheduler's own
/// share of a lease tick (release bookkeeping, stats, deadline check).
#[derive(Default)]
struct NullLoop {
    telemetry: LoopTelemetry,
}

impl DynLoop for NullLoop {
    fn name(&self) -> &str {
        "null"
    }

    fn tick_once(&mut self) -> TickOutcome {
        TickOutcome {
            energy_j: 1e-7,
            latency_s: 2e-6,
            comm_s: 0.0,
            faults: 0,
        }
    }

    fn telemetry(&self) -> &LoopTelemetry {
        &self.telemetry
    }

    fn record_deadline_miss(&mut self, _latency_s: f64, _budget_s: f64) {}
}
