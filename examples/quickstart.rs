//! Quickstart: an adaptive sensing-to-action loop in ~60 lines.
//!
//! A scalar plant drifts under an external disturbance; the loop senses it,
//! decides a correcting action, and — the §IV idea — *adapts its own sensing
//! rate* from the action magnitude: when the plant is quiet, the sensor
//! throttles down and saves energy; when the disturbance kicks, it ramps
//! back up.
//!
//! Run: `cargo run --example quickstart`

use sensact::core::adapt::{ActionMagnitudeRate, SensingKnobs};
use sensact::core::stage::{FnController, FnPerceptor, Sensor, StageContext, Trust};
use sensact::core::{EnergyBudget, LoopBuilder};

/// A sensor with a duty-cycle knob: energy scales with the rate.
#[derive(Debug)]
struct ThrottledSensor {
    rate: f64,
}

impl SensingKnobs for ThrottledSensor {
    fn rate(&self) -> f64 {
        self.rate
    }
    fn set_rate(&mut self, r: f64) {
        self.rate = r.clamp(0.0, 1.0);
    }
}

impl Sensor<f64> for ThrottledSensor {
    type Reading = f64;
    fn sense(&mut self, env: &f64, ctx: &mut StageContext) -> f64 {
        // Full-rate sensing costs 1 mJ per tick; throttled costs less.
        ctx.charge(1e-3 * self.rate, 1e-4);
        *env
    }
}

fn main() {
    let mut looop = LoopBuilder::new("quickstart")
        .with_budget(EnergyBudget::new(0.5))
        .build_full(
            ThrottledSensor { rate: 1.0 },
            FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
            sensact::core::stage::AlwaysTrust,
            FnController::new(|f: &f64, _t: Trust, _: &mut StageContext| -0.4 * f),
            ActionMagnitudeRate::default(),
        );

    let mut env = 0.0f64;
    for tick in 0..200 {
        // A disturbance burst in the middle of the run.
        if (80..90).contains(&tick) {
            env += 5.0;
        }
        let out = looop.tick(&env);
        env += out.action;
        if tick % 20 == 0 || tick == 85 {
            println!(
                "tick {tick:>3}  env {env:>7.3}  rate {:>5.2}  energy so far {:.4} J",
                looop.sensor().rate(),
                looop.budget().consumed_j()
            );
        }
    }
    println!("\n{}", looop.telemetry());
    println!(
        "final sensing rate {:.2} (throttled back down after the burst)",
        looop.sensor().rate()
    );
}
