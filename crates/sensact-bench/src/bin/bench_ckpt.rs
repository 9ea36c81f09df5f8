//! Checkpoint/restore bench: how expensive is kill-and-resume?
//!
//! Two sections:
//!
//! 1. **Loop checkpoint** — a faulty, budgeted [`FallibleLoop`]
//!    (active fault injector, retry/hold recovery, 256-record telemetry
//!    ring) is warmed up and then repeatedly snapshotted, serialized to the
//!    JSONL wire form, parsed back, and restored onto a twin built before
//!    the clock starts. Reported: snapshot / serialize / parse+restore
//!    latency (construction excluded) and wire bytes per loop. A resumed
//!    twin is also ticked forward and compared bit-exactly against the
//!    original as a correctness guard.
//! 2. **Fleet migration** — a deterministic fleet of checkpointable
//!    members; in each of 16 rounds every member is snapshotted over the
//!    wire and adopted by a twin built before the clock starts
//!    ([`FleetScheduler::snapshot_member`] /
//!    [`FleetScheduler::adopt_member`]). Reported: mean latency of one
//!    member's migration (construction excluded) and wire bytes.
//!
//! Writes `BENCH_ckpt.json` at the repo root (full mode only, so CI smoke
//! runs don't clobber recorded numbers). Run with `--smoke` (or
//! `SENSACT_QUICK=1`) for reduced sizes.

use sensact_bench::{compare, header};
use sensact_core::checkpoint::{Checkpoint, Snapshot};
use sensact_core::fault::FnTryPerceptor;
use sensact_core::stage::{AlwaysTrust, FnController, FnPerceptor, FnSensor, StageContext};
use sensact_core::trace::SimClock;
use sensact_core::{
    Checkpointed, EnergyBudget, FaultInjector, FaultProfile, LoopBuilder, RecoveryPolicy,
    WithFallback,
};
use sensact_core::{FallibleLoop, Trust};
use sensact_sched::{FleetConfig, FleetScheduler, LoopHandle, LoopSpec};
use std::hint::black_box;
use std::time::Instant;

fn mean_us(total_s: f64, iters: usize) -> f64 {
    total_s * 1e6 / iters as f64
}

fn main() {
    let smoke = sensact_bench::smoke();
    let warm_ticks = if smoke { 256 } else { 2048 };
    let iters = if smoke { 64 } else { 2000 };
    let members = if smoke { 8 } else { 64 };
    // Migrations per member: enough that the mean resolves a 10 % change.
    let rounds = 16;

    // The representative loop: faulty sensor, retries and holds, a
    // budget, a wrapping telemetry ring — every state class the checkpoint
    // layer serializes.
    let build = || {
        let sensor = FaultInjector::new(
            FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                ctx.charge(2e-4 * (1.0 + 0.1 * e.abs()), 1e-4);
                *e
            }),
            FaultProfile {
                dropout: 0.12,
                stuck: 0.05,
                latency_spike: 0.04,
                spike_latency_s: 5e-4,
                nan: 0.03,
            },
            0xBE5C,
        );
        FallibleLoop::new(
            "ckpt-bench",
            sensor,
            FnTryPerceptor::new(|r: &f64, _: &mut StageContext| Ok(*r)),
            AlwaysTrust,
            WithFallback::new(
                FnController::new(|f: &f64, _t, _: &mut StageContext| -0.4 * f + 0.03),
                0.0,
            ),
        )
        .with_budget(EnergyBudget::new(1.0))
        .with_recovery(RecoveryPolicy {
            max_retries: 1,
            retry_energy_j: 1e-5,
            max_hold_ticks: 2,
            staleness_decay: 0.35,
            latency_budget_s: None,
        })
    };

    let mut warmed = build();
    let mut env = 8.0f64;
    for _ in 0..warm_ticks {
        let out = warmed.tick(&env);
        env += out.action;
    }

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(warmed.snapshot());
    }
    let snapshot_us = mean_us(t0.elapsed().as_secs_f64(), iters);

    let ckpt = warmed.snapshot();
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(ckpt.to_jsonl());
    }
    let to_jsonl_us = mean_us(t0.elapsed().as_secs_f64(), iters);
    let wire = ckpt.to_jsonl();
    let wire_bytes = wire.len();

    // The twins are built, and dropped, outside the clock: `members` at a
    // time, as the migration rounds below build theirs.
    let mut restore_s = 0.0;
    for _ in 0..iters / members {
        let mut twins: Vec<_> = (0..members).map(|_| build()).collect();
        let t0 = Instant::now();
        for twin in &mut twins {
            let parsed = Checkpoint::from_jsonl(&wire).expect("wire parses");
            twin.restore(&parsed).expect("restore succeeds");
            black_box(&*twin);
        }
        restore_s += t0.elapsed().as_secs_f64();
    }
    let restore_us = mean_us(restore_s, iters / members * members);

    // Correctness guard: the resumed twin's continuation is bit-identical.
    let parsed = Checkpoint::from_jsonl(&wire).expect("wire parses");
    let mut twin = build();
    twin.restore(&parsed).expect("restore succeeds");
    let mut twin_env = env;
    for _ in 0..64 {
        let a = warmed.tick(&env);
        env += a.action;
        let b = twin.tick(&twin_env);
        twin_env += b.action;
        assert_eq!(
            a.energy_j.to_bits(),
            b.energy_j.to_bits(),
            "resumed twin diverged from the original"
        );
    }
    assert_eq!(env.to_bits(), twin_env.to_bits());

    header("loop checkpoint — faulty budgeted FallibleLoop, 256-record ring");
    compare(
        &format!("snapshot ({warm_ticks}-tick warm loop)"),
        "sub-ms",
        &format!("{snapshot_us:.1} us"),
    );
    compare(
        "serialize (JSONL wire)",
        "sub-ms",
        &format!("{to_jsonl_us:.1} us"),
    );
    compare(
        "parse + restore onto twin",
        "sub-ms",
        &format!("{restore_us:.1} us"),
    );
    compare("wire size", "-", &format!("{wire_bytes} bytes/loop"));

    // Fleet migration: every member snapshotted over the wire and adopted
    // by a fresh twin between deterministic runs.
    let member = |i: usize| {
        let looop = LoopBuilder::new(format!("m{i}")).build(
            FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                ctx.charge(1e-6, 1e-4 * (1.0 + e.abs()));
                *e
            }),
            FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
            FnController::new(|f: &f64, _t: Trust, _: &mut StageContext| -0.3 * f + 0.02),
        );
        LoopHandle::closed(Checkpointed(looop), 4.0f64, |e, a| *e += a)
    };
    let mut fleet = FleetScheduler::new(FleetConfig {
        workers: 4,
        watts_cap: None,
        seed: 7,
    });
    let ids: Vec<_> = (0..members)
        .map(|i| fleet.register(member(i), LoopSpec::periodic(1e-2)))
        .collect();
    let _ = fleet.run_deterministic(0.2, &mut SimClock::new());
    let mut migrate_total_s = 0.0;
    let mut migrate_bytes = 0usize;
    for _ in 0..rounds {
        let twins: Vec<_> = (0..members).map(member).collect();
        let t0 = Instant::now();
        for (id, twin) in ids.iter().zip(twins) {
            let wire = fleet
                .snapshot_member(*id)
                .expect("checkpointable")
                .to_jsonl();
            let parsed = Checkpoint::from_jsonl(&wire).expect("wire parses");
            fleet.adopt_member(*id, twin, &parsed).expect("adopt");
            migrate_bytes += wire.len();
        }
        migrate_total_s += t0.elapsed().as_secs_f64();
    }
    let report = fleet.run_deterministic(0.2, &mut SimClock::new());
    assert_eq!(report.ticks, members as u64 * 20, "resumed fleet must run");
    let migrate_us = mean_us(migrate_total_s, rounds * members);
    let member_bytes = migrate_bytes / (rounds * members);

    header("fleet migration — snapshot_member → wire → adopt_member");
    compare(
        &format!("migrate ({members} members × {rounds} rounds, mean)"),
        "sub-ms",
        &format!("{migrate_us:.1} us/member"),
    );
    compare("wire size", "-", &format!("{member_bytes} bytes/member"));

    sensact_bench::write_csv(
        "bench_ckpt",
        "snapshot_us,to_jsonl_us,restore_us,wire_bytes,migrate_us,member_bytes",
        &[format!(
            "{snapshot_us:.2},{to_jsonl_us:.2},{restore_us:.2},{wire_bytes},{migrate_us:.2},{member_bytes}"
        )],
    );

    if !smoke {
        let json = format!(
            "{{\n  \"loop\": {{\n    \"warm_ticks\": {warm_ticks},\n    \"snapshot_us\": {snapshot_us:.2},\n    \"to_jsonl_us\": {to_jsonl_us:.2},\n    \"restore_us\": {restore_us:.2},\n    \"wire_bytes\": {wire_bytes}\n  }},\n  \"fleet\": {{\n    \"members\": {members},\n    \"migrate_us_mean\": {migrate_us:.2},\n    \"wire_bytes_mean\": {member_bytes}\n  }}\n}}\n"
        );
        sensact_bench::write_record("BENCH_ckpt.json", &json);
    }
}
