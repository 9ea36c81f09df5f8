//! Fixtures more than one integration suite builds from identical
//! ingredients. Each suite compiles this module on its own and uses a
//! subset of it.
#![allow(dead_code)]

use sensact::core::fault::{
    FaultInjector, FaultProfile, FnTryPerceptor, RecoveryPolicy, Reliable, WithFallback,
};
use sensact::core::stage::{
    AlwaysTrust, FnController, FnMonitor, FnPerceptor, FnSensor, StageContext, Trust,
};
use sensact::core::{
    EnergyBudget, FallibleLoop, FallibleOutput, LoopBuilder, LoopRunner, Snapshot, Tracer,
};
use sensact::starnet::monitor::StarnetConfig;
use sensact::starnet::regret::RegretConfig;
use sensact::starnet::spsa::SpsaConfig;

/// Ticks the faulty scalar loop is driven for; its telemetry ring holds
/// exactly that many records.
pub const FAULTY_TICKS: usize = 1000;

/// The 1k-tick faulty scalar loop: dropouts, stuck readings, NaN poisoning
/// and latency spikes on the sensor, one retry, two held ticks, then the
/// fallback action. A recorded loop and the loop replayed against it must be
/// built from identical ingredients; one constructor keeps them from
/// drifting apart.
#[allow(clippy::type_complexity)]
pub fn faulty_loop(
    seed: u64,
) -> FallibleLoop<
    FaultInjector<FnSensor<impl FnMut(&f64, &mut StageContext) -> f64>, f64>,
    Reliable<FnPerceptor<impl FnMut(&f64, &mut StageContext) -> f64>>,
    AlwaysTrust,
    WithFallback<FnController<impl FnMut(&f64, Trust, &mut StageContext) -> f64>, f64>,
    sensact::core::adapt::NoAdaptation,
    f64,
> {
    FallibleLoop::new(
        "faulty-1k",
        FaultInjector::new(
            FnSensor::new(|env: &f64, ctx: &mut StageContext| {
                ctx.charge(2e-4, 1e-3);
                *env
            }),
            FaultProfile {
                dropout: 0.15,
                stuck: 0.05,
                latency_spike: 0.05,
                spike_latency_s: 0.05,
                nan: 0.05,
            },
            seed,
        ),
        Reliable(FnPerceptor::new(|r: &f64, ctx: &mut StageContext| {
            ctx.charge(3e-5, 4e-4);
            *r
        })),
        AlwaysTrust,
        WithFallback::new(
            FnController::new(|f: &f64, trust: Trust, ctx: &mut StageContext| {
                ctx.charge(1e-5, 1e-4);
                -0.4 * f * (1.0 - trust.suspicion())
            }),
            0.0,
        ),
    )
    .with_recovery(RecoveryPolicy {
        max_retries: 1,
        retry_energy_j: 5e-5,
        max_hold_ticks: 2,
        staleness_decay: 0.3,
        latency_budget_s: Some(0.01),
    })
    .with_telemetry_capacity(FAULTY_TICKS)
}

/// A STARNet monitor that trains in well under a second.
pub fn fast_monitor_config() -> StarnetConfig {
    StarnetConfig {
        train_epochs: 200,
        regret: RegretConfig {
            spsa: SpsaConfig {
                iterations: 8,
                ..SpsaConfig::default()
            },
            low_rank: Some(8),
        },
    }
}

/// `fallible_mid_hold_trimmed.ckpt.jsonl`: written by [`pin_fallible`] on
/// the first held tick from tick 24 on, environment as a scalar `f:` field.
pub const PINNED_FALLIBLE: &str =
    include_str!("../../crates/sensact-core/tests/data/fallible_mid_hold_trimmed.ckpt.jsonl");
/// `sensing_action_mid_hold_trimmed.ckpt.jsonl`: written by
/// [`pin_infallible`] at tick 26, two ticks into a suspect streak.
pub const PINNED_INFALLIBLE: &str =
    include_str!("../../crates/sensact-core/tests/data/sensing_action_mid_hold_trimmed.ckpt.jsonl");
/// [`PINNED_FALLIBLE`] as written while the wire also carried keys no
/// restore reads (telemetry's Welford accumulators, the budget's
/// `deadline_misses`, the injector's `active` and `injected`).
pub const UNTRIMMED_FALLIBLE: &str =
    include_str!("../../crates/sensact-core/tests/data/fallible_mid_hold.ckpt.jsonl");
/// [`PINNED_INFALLIBLE`] as written while the wire also carried keys no
/// restore reads.
pub const UNTRIMMED_INFALLIBLE: &str =
    include_str!("../../crates/sensact-core/tests/data/sensing_action_mid_hold.ckpt.jsonl");
/// [`UNTRIMMED_FALLIBLE`] as written while a precision governor existed,
/// with its `governor` section.
pub const GOVERNED_FALLIBLE: &str =
    include_str!("../../crates/sensact-core/tests/data/fallible_mid_hold_with_governor.ckpt.jsonl");
/// [`UNTRIMMED_INFALLIBLE`] as written while a precision governor
/// existed, with its `governor` section.
pub const GOVERNED_INFALLIBLE: &str = include_str!(
    "../../crates/sensact-core/tests/data/sensing_action_mid_hold_with_governor.ckpt.jsonl"
);

/// Fault seed of [`pin_fallible`].
const PIN_SEED: u64 = 0x00C0_FFEE;

/// The runner that wrote `fallible_mid_hold.ckpt.jsonl`.
pub fn pin_fallible(
) -> impl LoopRunner<f64, Action = f64, Output = FallibleOutput<f64>> + Snapshot + Send {
    FallibleLoop::new(
        "pin-fallible",
        FaultInjector::new(
            FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                // `max` maps a NaN environment (a hostile document may
                // restore one) to the base charge, and nothing else.
                ctx.charge(3e-4 * (1.0 + 0.05 * e.abs().max(0.0)), 1e-4);
                *e
            }),
            FaultProfile {
                dropout: 0.3,
                stuck: 0.1,
                latency_spike: 0.05,
                spike_latency_s: 5e-4,
                nan: 0.05,
            },
            PIN_SEED,
        ),
        FnTryPerceptor::new(|r: &f64, _: &mut StageContext| Ok(*r)),
        FnMonitor::new(|f: &f64, _: &mut StageContext| {
            if f.abs() > 6.0 {
                Trust::Suspect(0.6)
            } else {
                Trust::Trusted
            }
        }),
        WithFallback::new(
            FnController::new(|f: &f64, _t, _: &mut StageContext| -0.3 * f + 0.05),
            0.0,
        ),
    )
    .with_budget(EnergyBudget::new(0.1))
    .with_recovery(RecoveryPolicy {
        max_retries: 1,
        retry_energy_j: 2e-5,
        max_hold_ticks: 3,
        staleness_decay: 0.35,
        latency_budget_s: None,
    })
    .with_telemetry_capacity(8)
    .with_tracer(Tracer::sim(0.25).with_span_capacity(12))
}

/// The runner that wrote `sensing_action_mid_hold.ckpt.jsonl`.
pub fn pin_infallible() -> impl LoopRunner<f64, Action = f64> + Snapshot + Send {
    LoopBuilder::new("pin-infallible")
        .with_budget(EnergyBudget::new(1.0))
        .with_telemetry_capacity(8)
        .with_tracer(Tracer::sim(0.25).with_span_capacity(12))
        .build_monitored(
            FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                ctx.charge(0.02, 1e-4);
                *e
            }),
            FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
            FnMonitor::new(|f: &f64, _: &mut StageContext| {
                if f.abs() > 10.0 {
                    Trust::Suspect(0.9)
                } else {
                    Trust::Trusted
                }
            }),
            FnController::new(|f: &f64, _t, _: &mut StageContext| -0.3 * f),
        )
}
