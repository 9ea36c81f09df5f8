//! Fixtures more than one integration suite builds from identical
//! ingredients. Each suite compiles this module on its own and uses a
//! subset of it.
#![allow(dead_code)]

use sensact::core::fault::{FaultInjector, FaultProfile, RecoveryPolicy, Reliable, WithFallback};
use sensact::core::stage::{AlwaysTrust, FnController, FnPerceptor, FnSensor, StageContext, Trust};
use sensact::core::FallibleLoop;
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
            elbo_samples: 0,
        },
    }
}
