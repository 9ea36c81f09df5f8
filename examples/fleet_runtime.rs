//! Fleet-scale runtime: thousands of sensing-action loops on one scheduler.
//!
//! Builds a heterogeneous fleet — fast control loops, a slow perception
//! loop that blows its latency budget, a swamped loop that sheds load, and
//! a power-hungry loop under a fleet watts cap — then runs it
//! deterministically under a `SimClock` and prints the fleet report plus
//! the exported scheduler metrics. A second run with the same seed
//! reproduces the execution trace bit-for-bit; a third run with a
//! different seed interleaves differently.
//!
//! Run: `cargo run --release --example fleet_runtime`

use sensact::core::stage::{FnController, FnPerceptor, FnSensor, StageContext, Trust};
use sensact::core::trace::SimClock;
use sensact::core::{LoopBuilder, MetricsRegistry};
use sensact::sched::{FleetConfig, FleetScheduler, LoopHandle, LoopSpec};

/// A scalar tracking loop charging `energy_j`/`latency_s` per tick.
fn member(name: &str, energy_j: f64, latency_s: f64) -> LoopHandle {
    let looop = LoopBuilder::new(name).build(
        FnSensor::new(move |env: &f64, ctx: &mut StageContext| {
            ctx.charge(energy_j, latency_s);
            *env
        }),
        FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
        FnController::new(|f: &f64, _t: Trust, _: &mut StageContext| -0.4 * f),
    );
    // The handle owns the environment; each tick's action feeds back.
    LoopHandle::closed(looop, 1.0f64, |env, action| *env += action)
}

fn build_fleet(seed: u64) -> FleetScheduler {
    let mut fleet = FleetScheduler::new(FleetConfig {
        workers: 4,
        watts_cap: Some(0.5),
        seed,
    });
    // A swarm of well-behaved 100 Hz control loops.
    for i in 0..12 {
        fleet.register(
            member(&format!("ctrl-{i:02}"), 1e-5, 2e-4),
            LoopSpec::periodic(1e-2).with_budget(5e-3),
        );
    }
    // A perception loop whose 30 ms ticks overrun a 20 ms budget: every
    // completion is a deadline miss, surfaced as a Timeout fault.
    fleet.register(
        member("perception-slow", 5e-4, 3e-2),
        LoopSpec::periodic(5e-2).with_budget(2e-2),
    );
    // A loop released every 2 ms whose ticks cost 9 ms: it falls behind and
    // drop-oldest backpressure keeps it fresh instead of arbitrarily late.
    fleet.register(
        member("swamped", 1e-5, 9e-3),
        LoopSpec::periodic(2e-3).with_queue_capacity(2),
    );
    // A power hog: 0.2 J per 10 ms tick ≈ 20 W against the 0.5 W fleet cap,
    // so the arbiter stretches its release stride.
    fleet.register(member("power-hog", 0.2, 1e-2), LoopSpec::periodic(1e-2));
    fleet
}

fn main() {
    let horizon_s = 1.0;

    let mut fleet = build_fleet(7);
    let mut clock = SimClock::new();
    let report = fleet.run_deterministic(horizon_s, &mut clock);

    println!("== deterministic fleet run (seed 7) ==");
    print!("{report}");
    println!("sim clock frontier: {:.4} s (virtual)", clock.peek_s());

    let mut registry = MetricsRegistry::new();
    report.export_into(&mut registry);
    println!("\n== exported scheduler metrics ==");
    print!("{registry}");

    // Reproducibility: the trace hash covers every (loop, release, worker,
    // completion) event in execution order.
    let replayed = build_fleet(7).run_deterministic(horizon_s, &mut SimClock::new());
    let reseeded = build_fleet(8).run_deterministic(horizon_s, &mut SimClock::new());
    println!("\n== determinism ==");
    println!("seed 7 trace hash: {:#018x}", report.trace_hash);
    println!(
        "seed 7 again:      {:#018x} (identical)",
        replayed.trace_hash
    );
    println!(
        "seed 8:            {:#018x} (different interleaving)",
        reseeded.trace_hash
    );
    assert_eq!(report.trace_hash, replayed.trace_hash);

    // The same fleet on real OS threads, one partition of the loops each.
    // Uncapped, the trace hash would repeat run to run; here the watts cap
    // makes throttling depend on which thread reached the arbiter first.
    let threaded = build_fleet(7).run(horizon_s);
    println!("\n== threaded run ==");
    println!(
        "{} ticks in {:.1} ms wall (trace hash {:#018x})",
        threaded.ticks,
        1e3 * threaded.wall_s,
        threaded.trace_hash
    );
}
