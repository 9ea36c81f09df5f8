//! Checkpoints through the scheduler's handle: the migration path.
//!
//! The two pinned checkpoint documents (written by the runners themselves,
//! with the environment as a scalar `f:` field) must restore through a
//! [`LoopHandle`] closed over a [`Checkpointed`] runner and replay the
//! recorded 64-tick tail with zero divergence. A document whose `env`
//! section is missing or malformed must be refused before anything in the
//! member changes.

mod common;

use common::{pin_fallible, pin_infallible, PINNED_FALLIBLE, PINNED_INFALLIBLE};
use sensact::core::checkpoint::{Checkpoint, Section};
use sensact::core::replay::first_divergence;
use sensact::core::{Checkpointed, LoopRunner, Snapshot, TickRecord, TickResolution};
use sensact::sched::LoopHandle;

/// Ticks recorded after each pinned snapshot.
const PIN_TAIL: usize = 64;

/// Tick `l` once against `env` and apply the action.
fn step<L: LoopRunner<f64, Action = f64>>(l: &mut L, env: &mut f64) -> L::Output {
    let out = l.tick(env);
    *env += *L::charged(&out).0;
    out
}

/// Record the `PIN_TAIL` ticks after the cut, and the environment they end on.
fn record_tail<L: LoopRunner<f64, Action = f64>>(l: &mut L, env: &mut f64) -> Vec<TickRecord> {
    (0..PIN_TAIL)
        .map(|_| {
            step(l, env);
            l.telemetry().last_record().unwrap()
        })
        .collect()
}

/// The environment a handle's checkpoint carries (written as `F:`).
fn env_of(ckpt: &Checkpoint) -> Vec<f64> {
    ckpt.section("env").unwrap().get_f64s("state").unwrap()
}

/// Restore `doc` through a handle, check the handle re-writes it with the
/// environment as a one-element `F:` state, then tick the tail and require
/// zero divergence and the reference's final environment.
fn assert_pin_restores_through_the_handle<L>(
    build: impl Fn() -> L,
    doc: &str,
    tail: &[TickRecord],
    final_env: f64,
) where
    L: LoopRunner<f64, Action = f64> + Snapshot + Send + 'static,
{
    let pinned = Checkpoint::from_jsonl(doc).unwrap();
    let mut h = LoopHandle::closed(Checkpointed(build()), f64::NAN, |e: &mut f64, a: &f64| {
        *e += a
    });
    h.restore_from(&pinned)
        .unwrap_or_else(|e| panic!("pin {} refused by the handle: {e:?}", pinned.name()));

    let resaved = h.save_state().unwrap();
    let n = pinned.sections().len();
    assert_eq!(resaved.sections()[..n - 1], pinned.sections()[..n - 1]);
    let scalar = pinned.section("env").unwrap().get_f64("state").unwrap();
    assert_eq!(env_of(&resaved), [scalar]);
    assert!(resaved.to_jsonl().contains(r#""id":"env","state":"F:"#));

    let replayed: Vec<TickRecord> = (0..PIN_TAIL)
        .map(|_| {
            h.tick_once();
            h.telemetry().last_record().unwrap()
        })
        .collect();
    if let Some(d) = first_divergence(tail, &replayed) {
        panic!(
            "pin {} tail diverged through the handle: {d}",
            pinned.name()
        );
    }
    let env = env_of(&h.save_state().unwrap());
    assert_eq!(env[0].to_bits(), final_env.to_bits());
}

#[test]
fn pinned_fallible_checkpoint_restores_through_the_handle() {
    // Re-run to the pin's cut: the first held tick from tick 24 on.
    let mut reference = pin_fallible();
    let mut env = 8.0f64;
    for t in 0.. {
        let out = step(&mut reference, &mut env);
        if t >= 24 && matches!(out.resolution, TickResolution::Held { .. }) {
            break;
        }
    }
    let tail = record_tail(&mut reference, &mut env);
    assert_pin_restores_through_the_handle(pin_fallible, PINNED_FALLIBLE, &tail, env);
}

#[test]
fn pinned_infallible_checkpoint_restores_through_the_handle() {
    // A spike at tick 24 starts a suspect streak; the pin was cut at tick 26.
    let mut reference = pin_infallible();
    let mut env = 8.0f64;
    for t in 0..26 {
        if t == 24 {
            env = 50.0;
        }
        step(&mut reference, &mut env);
    }
    let tail = record_tail(&mut reference, &mut env);
    assert_pin_restores_through_the_handle(pin_infallible, PINNED_INFALLIBLE, &tail, env);
}

/// `ckpt` with its `env` section replaced by `env` (or dropped).
fn with_env(ckpt: &Checkpoint, env: Option<Section>) -> Checkpoint {
    let mut out = Checkpoint::new(ckpt.name());
    for s in ckpt.sections().iter().filter(|s| s.id() != "env") {
        out.push(s.clone());
    }
    if let Some(env) = env {
        out.push(env);
    }
    out
}

#[test]
fn a_bad_env_section_leaves_the_member_untouched() {
    let handle = |ticks: usize| {
        let mut h = LoopHandle::closed(Checkpointed(pin_fallible()), 8.0f64, |e, a| *e += a);
        for _ in 0..ticks {
            h.tick_once();
        }
        h
    };
    // A donor further along than the member, so a restore that got as far
    // as the loop's sections would change what the member saves.
    let good = handle(40).save_state().unwrap();
    let mut member = handle(5);
    let before = member.save_state().unwrap();

    let mut two_words = Section::new("env");
    two_words.put_f64s("state", &[1.0, 2.0]);
    let mut wrong_tag = Section::new("env");
    wrong_tag.put_u64("state", 3);
    let cases = [
        ("env missing", None),
        ("env of the wrong length", Some(two_words)),
        ("env with the wrong type tag", Some(wrong_tag)),
    ];
    for (what, env) in cases {
        let bad = with_env(&good, env);
        let err = member.restore_from(&bad);
        assert!(err.is_err(), "{what}: restore must fail");
        assert_eq!(
            member.save_state().unwrap(),
            before,
            "{what}: the member changed"
        );
    }
    member.restore_from(&good).unwrap();
    assert_eq!(member.save_state().unwrap(), good);
}
