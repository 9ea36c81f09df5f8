//! `fleet_sched` and `fleet_sched_traced`: 1024 cart-pole loops on
//! `FleetScheduler::run_deterministic`.
//!
//! Each member is `CartPole::observe` → `SpectralKoopman::encode` →
//! `LqrLatentController::act` → `CartPole::step`; three quarters are
//! `LoopHandle::closed`, one quarter `closed_fallible` behind a seeded
//! `FaultProfile`. Eight virtual workers, sized for zero drops. The traced
//! variant attaches a `FleetTracer` to the scheduler and a wall `Tracer` to
//! every member. Op = one scheduled tick; the driver owns the loop, so the
//! per-op latency is the interval between consecutive actions becoming
//! available, as its mean over windows of 64 ticks (one timestamp per
//! window, taken where the action is applied).

use crate::measure::{lat_ns, replay_s, Exact, Fold, SegCounts};
use crate::trace::{self, now_ns, Drained};
use crate::workload::{Check, Layers, Sizing, Workload};
use sensact_core::adapt::NoAdaptation;
use sensact_core::export::causal_spans_to_jsonl;
use sensact_core::fault::{FaultInjector, FaultProfile, RecoveryPolicy, Reliable};
use sensact_core::stage::{AlwaysTrust, FnController, FnPerceptor, FnSensor, StageContext, Trust};
use sensact_core::telemetry::LoopTelemetry;
use sensact_core::trace::{SimClock, StageBreakdown, StageId};
use sensact_core::{
    CausalSpan, FallibleLoop, FleetTracer, LoopBuilder, Precision, SensingActionLoop, SpanKind,
    Tracer, WithFallback,
};
use sensact_koopman::baselines::LatentModel;
use sensact_koopman::cartpole::{CartPole, CartPoleConfig, Disturbance, OBS_DIM};
use sensact_koopman::control::LqrLatentController;
use sensact_koopman::encoder::SpectralKoopman;
use sensact_koopman::train::collect_dataset;
use sensact_sched::{FleetConfig, FleetScheduler, LoopHandle, LoopSpec};
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Arc;

const WORKERS: usize = 8;
/// 1024 × 0.11 ms of charged latency per period over 8 workers needs a
/// period above 14 ms; 25 ms leaves the pool 56 % busy, so a clean member is
/// never dropped.
const PERIOD_S: f64 = 0.025;
/// Periods per `run_deterministic` call.
const PERIODS_PER_RUN: usize = 16;
/// Spans and telemetry records each member retains: the defaults (16384 and
/// 4096) would let a 1024-member fleet's rings grow past a gigabyte over a
/// run, so peak RSS would measure run length.
const MEMBER_SPAN_CAPACITY: usize = 256;
const MEMBER_RECORD_CAPACITY: usize = 512;

/// Ticks per latency sample. The driver owns the loop, so an op's latency
/// is the interval between consecutive actions; one tick is 2.5 µs of mostly
/// cache misses, whose 1 % tail triples under a busy neighbour where the
/// mean grows by half. The mean interval over a window is what a member
/// waiting its turn sees, and moves with the mean.
const LATENCY_WINDOW: u32 = 64;

/// Where the members' `apply` closures (which must be `Send + 'static`, so
/// they capture nothing) leave the action stream: a fold of every force and
/// the mean interval between actions over each [`LATENCY_WINDOW`].
struct Sink {
    fold: Fold,
    window_start_ns: u64,
    in_window: u32,
    lat: Vec<u32>,
}

thread_local! {
    static SINK: RefCell<Sink> = RefCell::new(Sink {
        fold: Fold::default(),
        window_start_ns: 0,
        in_window: 0,
        lat: Vec::new(),
    });
}

/// Run `f` with the sink's latency stream set aside: side fleets and raw
/// replays actuate through the same closure and must not pollute it.
fn with_sink_parked<R>(f: impl FnOnce() -> R) -> R {
    let parked = SINK.with(|s| std::mem::take(&mut s.borrow_mut().lat));
    let out = f();
    SINK.with(|s| s.borrow_mut().lat = parked);
    out
}

fn actuate(plant: &mut CartPole, force: &f64) {
    trace::scope("koopman.cartpole.step_us", || plant.step(*force));
    if plant.failed() {
        plant.reset();
    }
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        s.fold.f64(*force);
        s.in_window += 1;
        if s.in_window == LATENCY_WINDOW {
            let now = now_ns();
            let mean = (now - s.window_start_ns) / LATENCY_WINDOW as u64;
            s.lat.push(lat_ns(mean));
            s.window_start_ns = now;
            s.in_window = 0;
        }
    });
}

type Obs = [f64; OBS_DIM];

fn sensor() -> FnSensor<impl FnMut(&CartPole, &mut StageContext) -> Obs + Send + 'static> {
    FnSensor::new(|plant: &CartPole, ctx: &mut StageContext| {
        ctx.charge(2e-4, 1e-4);
        plant.observe()
    })
}

fn perceptor(
    seed: u64,
) -> FnPerceptor<impl FnMut(&Obs, &mut StageContext) -> Vec<f64> + Send + 'static> {
    let mut model = SpectralKoopman::new(seed);
    FnPerceptor::new(move |obs: &Obs, _: &mut StageContext| {
        trace::scope("koopman.encoder.encode_us", || model.encode(&obs[..]))
    })
}

fn controller(
    lqr: LqrLatentController,
) -> FnController<impl FnMut(&Vec<f64>, Trust, &mut StageContext) -> f64 + Send + 'static> {
    FnController::new(move |z: &Vec<f64>, _t: Trust, ctx: &mut StageContext| {
        ctx.charge(1e-5, 1e-5);
        trace::scope("koopman.control.act_us", || lqr.act(z))
    })
}

fn plant(seed: u64) -> CartPole {
    let mut plant = CartPole::new(CartPoleConfig::default(), seed);
    plant.set_disturbance(Disturbance::with_probability(0.1));
    plant
}

fn member_tracer(traced: bool) -> Tracer {
    if traced {
        Tracer::wall().with_span_capacity(MEMBER_SPAN_CAPACITY)
    } else {
        Tracer::disabled()
    }
}

type Clean<S, P, C> = SensingActionLoop<S, P, AlwaysTrust, C, NoAdaptation>;

#[allow(clippy::type_complexity)]
fn clean_loop(
    seed: u64,
    lqr: &LqrLatentController,
    traced: bool,
) -> Clean<
    FnSensor<impl FnMut(&CartPole, &mut StageContext) -> Obs + Send + 'static>,
    FnPerceptor<impl FnMut(&Obs, &mut StageContext) -> Vec<f64> + Send + 'static>,
    FnController<impl FnMut(&Vec<f64>, Trust, &mut StageContext) -> f64 + Send + 'static>,
> {
    LoopBuilder::new(format!("cart-{seed:x}"))
        .with_telemetry_capacity(MEMBER_RECORD_CAPACITY)
        .with_tracer(member_tracer(traced))
        .build(sensor(), perceptor(seed), controller(lqr.clone()))
}

#[allow(clippy::type_complexity)]
fn faulty_loop(
    seed: u64,
    lqr: &LqrLatentController,
    traced: bool,
) -> FallibleLoop<
    FaultInjector<FnSensor<impl FnMut(&CartPole, &mut StageContext) -> Obs + Send + 'static>, Obs>,
    Reliable<FnPerceptor<impl FnMut(&Obs, &mut StageContext) -> Vec<f64> + Send + 'static>>,
    AlwaysTrust,
    WithFallback<
        FnController<impl FnMut(&Vec<f64>, Trust, &mut StageContext) -> f64 + Send + 'static>,
        f64,
    >,
    NoAdaptation,
    Vec<f64>,
> {
    FallibleLoop::new(
        format!("cart-{seed:x}-faulty"),
        FaultInjector::new(
            sensor(),
            FaultProfile {
                dropout: 0.05,
                stuck: 0.02,
                latency_spike: 0.02,
                spike_latency_s: 2e-3,
                nan: 0.02,
            },
            seed,
        ),
        Reliable(perceptor(seed)),
        AlwaysTrust,
        WithFallback::new(controller(lqr.clone()), 0.0),
    )
    .with_recovery(RecoveryPolicy {
        max_retries: 1,
        retry_energy_j: 5e-5,
        max_hold_ticks: 2,
        ..RecoveryPolicy::default()
    })
    .with_telemetry_capacity(MEMBER_RECORD_CAPACITY)
    .with_tracer(member_tracer(traced))
}

/// Train one model just enough to synthesise the latent LQR gain every
/// member shares; each member then owns its own (untrained) encoder, so the
/// fleet's working set is 1024 distinct weight sets.
fn shared_lqr(seed: u64) -> LqrLatentController {
    let data = collect_dataset(200, seed);
    let mut model = SpectralKoopman::new(seed);
    for epoch in 0..2 {
        model.train_epoch(&data, epoch);
    }
    LqrLatentController::synthesize(&mut model, 0.001).expect("LQR synthesis")
}

fn build_fleet(
    seed: u64,
    members: usize,
    traced: bool,
    lqr: &LqrLatentController,
) -> (FleetScheduler, f64) {
    let mut sched = FleetScheduler::new(FleetConfig {
        workers: WORKERS,
        watts_cap: None,
        seed,
    });
    if traced {
        sched.set_tracer(Arc::new(FleetTracer::new()));
    }
    let spec = LoopSpec::periodic(PERIOD_S).with_budget(PERIOD_S);
    let mut register_ns = 0;
    for i in 0..members {
        let mseed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
        let handle = if i % 4 == 3 {
            LoopHandle::closed_fallible(faulty_loop(mseed, lqr, traced), plant(mseed), actuate)
        } else {
            LoopHandle::closed(clean_loop(mseed, lqr, traced), plant(mseed), actuate)
        };
        let t = now_ns();
        sched.register(handle, spec);
        register_ns += now_ns() - t;
    }
    (sched, register_ns as f64 / 1e3 / members as f64)
}

pub struct FleetSched {
    seed: u64,
    members: usize,
    traced: bool,
    lqr: LqrLatentController,
    sched: FleetScheduler,
    register_us: f64,
    runs_per_segment: usize,
    fold: Fold,
    ticks: u64,
    failed: u64,
    drops: u64,
    misses: u64,
    energy_j: f64,
    /// Ticks of the runs made with spans off, and the scheduler's own
    /// `wall_s` per tick of the fastest of them (the quiet floor, like the
    /// raw-tick replay it is compared with).
    untraced_ticks: u64,
    best_run_us: f64,
}

impl FleetSched {
    fn build(seed: u64, s: Sizing, traced: bool) -> Box<dyn Workload> {
        let members = if s.smoke { 128 } else { 1024 };
        let lqr = shared_lqr(seed);
        let (sched, register_us) = build_fleet(seed, members, traced, &lqr);
        let mut w = FleetSched {
            seed,
            members,
            traced,
            lqr,
            sched,
            register_us,
            runs_per_segment: if s.smoke { 16 } else { 1 },
            fold: Fold::default(),
            ticks: 0,
            failed: 0,
            drops: 0,
            misses: 0,
            energy_j: 0.0,
            untraced_ticks: 0,
            best_run_us: f64::INFINITY,
        };
        // One warm run fills the scheduler's heap and every member's first
        // telemetry records.
        let mut lat = Vec::new();
        w.run(&mut lat);
        Box::new(w)
    }

    pub fn plain(seed: u64, s: Sizing) -> Box<dyn Workload> {
        FleetSched::build(seed, s, false)
    }

    pub fn traced(seed: u64, s: Sizing) -> Box<dyn Workload> {
        FleetSched::build(seed, s, true)
    }

    /// One `run_deterministic` call over [`PERIODS_PER_RUN`] periods.
    fn run(&mut self, lat: &mut Vec<u32>) -> SegCounts {
        let expected = (self.members * PERIODS_PER_RUN) as u64;
        SINK.with(|s| {
            let mut s = s.borrow_mut();
            s.fold = self.fold;
            s.window_start_ns = now_ns();
            s.in_window = 0;
            std::mem::swap(&mut s.lat, lat);
        });
        trace::set_op(self.ticks);
        let horizon_s = PERIOD_S * PERIODS_PER_RUN as f64;
        let report = trace::scope_calls("sched.run_deterministic", expected, || {
            self.sched
                .run_deterministic(horizon_s, &mut SimClock::new())
        });
        SINK.with(|s| {
            let mut s = s.borrow_mut();
            self.fold = s.fold;
            std::mem::swap(&mut s.lat, lat);
        });
        self.fold.word(report.trace_hash);
        self.ticks += report.ticks;
        self.drops += report.drops;
        self.misses += report.deadline_misses;
        self.energy_j += report.energy_j;
        if !trace::enabled() {
            self.untraced_ticks += report.ticks;
            let us = report.wall_s * 1e6 / report.ticks.max(1) as f64;
            self.best_run_us = self.best_run_us.min(us);
        }
        // A drop, or a release that never ran, is a failed op.
        let failed = expected.saturating_sub(report.ticks).max(report.drops);
        self.failed += failed;
        SegCounts {
            attempted: expected,
            refused: 0,
            failed,
        }
    }
}

impl Workload for FleetSched {
    fn segment(&mut self, lat: &mut Vec<u32>) -> SegCounts {
        let mut total = SegCounts::default();
        for _ in 0..self.runs_per_segment {
            let c = self.run(lat);
            total.attempted += c.attempted;
            total.failed += c.failed;
        }
        total
    }

    fn exact(&mut self) -> Exact {
        Exact {
            ops: self.ticks,
            refused: 0,
            failed: self.failed,
            energy_j: self.energy_j,
            hash: self.fold.0,
        }
    }

    fn check(&mut self) -> Vec<Check> {
        // Two builds of the fleet from one seed must execute the identical
        // schedule: equal trace hashes, equal tick counts.
        let small = self.members.min(64);
        let run = |traced: bool| {
            let (mut sched, _) = build_fleet(self.seed, small, traced, &self.lqr);
            let r = sched.run_deterministic(PERIOD_S * 8.0, &mut SimClock::new());
            (r.trace_hash, r.ticks, r.drops)
        };
        let (a, b) = with_sink_parked(|| (run(self.traced), run(self.traced)));
        vec![
            Check::new(
                "trace_hash_repeats",
                a == b && a.1 == small as u64 * 8,
                format!("{a:x?} vs {b:x?}"),
            ),
            Check::new(
                "no_drops",
                self.failed == 0 && self.drops == 0,
                format!(
                    "{} ticks, {} drops, {} deadline misses, {} failed",
                    self.ticks, self.drops, self.misses, self.failed
                ),
            ),
        ]
    }

    fn layers(&mut self, spans: &Drained, traced_ops: u64, budget_s: f64, out: &mut Layers) {
        for name in [
            "koopman.encoder.encode_us",
            "koopman.control.act_us",
            "koopman.cartpole.step_us",
        ] {
            out.wrapped(spans, name, traced_ops);
        }
        let ticks = self.ticks.max(1);
        out.set("sched.register_us", self.register_us, self.members as u64);
        out.set("sched.drops", self.drops as f64 / ticks as f64, self.drops);
        out.set(
            "sched.deadline_misses",
            self.misses as f64 / ticks as f64,
            self.misses,
        );

        // Raw ticks of the same stages outside the scheduler (spans are off
        // by now): as many loops as the fleet has members, so the encoders'
        // working set is the same.
        let (n_faulty, n_clean) = (self.members / 4, self.members - self.members / 4);
        let (loop_s, fault_s) = with_sink_parked(|| {
            let mut clean: Vec<_> = (0..n_clean)
                .map(|i| {
                    let s = self.seed ^ (0xC1EA + i as u64);
                    (clean_loop(s, &self.lqr, self.traced), plant(s))
                })
                .collect();
            let loop_s = replay_s(budget_s, 1, || {
                for (looop, plant) in &mut clean {
                    let out = looop.tick(plant);
                    actuate(plant, &out.action);
                }
            });
            drop(clean);
            let mut faulty: Vec<_> = (0..n_faulty)
                .map(|i| {
                    let s = self.seed ^ (0xFA17 + i as u64);
                    (faulty_loop(s, &self.lqr, self.traced), plant(s))
                })
                .collect();
            let fault_s = replay_s(budget_s, 1, || {
                for (looop, plant) in &mut faulty {
                    let out = looop.tick(plant);
                    actuate(plant, &out.action);
                }
            });
            (loop_s / n_clean as f64, fault_s / n_faulty as f64)
        });
        out.set("core.loop.tick_us", loop_s * 1e6 * 0.75, ticks * 3 / 4);
        out.set("core.fault.tick_us", fault_s * 1e6 * 0.25, ticks / 4);
        let raw_us = (0.75 * loop_s + 0.25 * fault_s) * 1e6;
        // Scheduled − raw, both with spans off and both at their floor: the
        // scheduler's own `wall_s` of the fastest untraced run so far.
        let run_us = self.best_run_us;
        out.set("sched.run_us_per_tick", run_us, self.untraced_ticks);
        out.set(
            "sched.overhead_us_per_tick",
            run_us - raw_us,
            self.untraced_ticks,
        );

        let mut telemetry = LoopTelemetry::with_capacity(MEMBER_RECORD_CAPACITY);
        let mut stages = StageBreakdown::new();
        stages.add(StageId::Sense, 2e-4, 1e-4);
        stages.add(StageId::Control, 1e-5, 1e-5);
        let record_s = replay_s(budget_s, 256, || {
            telemetry.record_with_precision(
                black_box(2.1e-4),
                1.1e-4,
                Trust::Trusted,
                stages,
                Precision::F64,
            );
        });
        out.set("core.telemetry.record_us", record_s * 1e6, ticks);

        if self.traced {
            // Per tick: one causal SchedTick span on the fleet tracer and
            // five stage spans on the member's wall tracer.
            let fleet_tracer = Arc::clone(self.sched.tracer());
            let sched_spans = fleet_tracer.recorded() as f64 / ticks as f64;
            out.set("core.trace.spans_per_op", sched_spans + 5.0, ticks);
            let ring = FleetTracer::new();
            let mut tracer = Tracer::wall().with_span_capacity(MEMBER_SPAN_CAPACITY);
            let mut tick = 0u64;
            let span_s = replay_s(budget_s, 256, || {
                tick += 1;
                tracer.new_tick();
                for stage in StageId::ALL {
                    let t0 = tracer.start();
                    tracer.finish(tick, stage, t0, 1e-6, 1e-6, true);
                }
                ring.record(CausalSpan {
                    trace_id: tick,
                    span_id: tick,
                    parent_id: 0,
                    kind: SpanKind::SchedTick,
                    node: 0,
                    detail: tick,
                    start_s: 0.0,
                    end_s: 1e-4,
                    ok: true,
                });
            });
            out.set("core.trace.span_us", span_s * 1e6, ticks);
            let retained = fleet_tracer.spans();
            if !retained.is_empty() {
                let export_s = replay_s(budget_s, 1, || {
                    black_box(causal_spans_to_jsonl(black_box(&retained)));
                });
                out.set(
                    "core.export.jsonl_us",
                    export_s * 1e6 / retained.len() as f64 * sched_spans,
                    retained.len() as u64,
                );
            }
        }

        let stage_sum = out.get("koopman.encoder.encode_us").0
            + out.get("koopman.control.act_us").0
            + out.get("koopman.cartpole.step_us").0
            + record_s * 1e6;
        if raw_us > 0.0 && stage_sum > 0.0 {
            out.set(
                "bench.replay_closure_pct",
                100.0 * stage_sum / raw_us,
                ticks,
            );
        }
    }
}
