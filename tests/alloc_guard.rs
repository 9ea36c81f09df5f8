//! Allocation guard for the cart-pole inference path.
//!
//! A Koopman encode owns only the latent it returns, the state read-out and
//! the latent LQR act own nothing, and a fleet-shaped cart-pole member
//! (`CartPole::observe` → `SpectralKoopman::encode` →
//! `LqrLatentController::act` → `CartPole::step`, closed through a
//! `LoopHandle`) makes at most one heap allocation per tick once its record
//! ring has wrapped. The counting allocator counts per thread, so tests
//! running in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sensact::core::stage::{FnController, FnPerceptor, FnSensor, StageContext, Trust};
use sensact::core::LoopBuilder;
use sensact::koopman::baselines::LatentModel;
use sensact::koopman::cartpole::{CartPole, CartPoleConfig, Disturbance, OBS_DIM};
use sensact::koopman::control::LqrLatentController;
use sensact::koopman::encoder::SpectralKoopman;
use sensact::koopman::train::collect_dataset;
use sensact::sched::LoopHandle;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the heap allocations this thread made while running it.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A model trained just enough to synthesise a latent LQR gain, as the
/// fleet benchmark's members share one.
fn trained(seed: u64) -> (SpectralKoopman, LqrLatentController) {
    let data = collect_dataset(200, seed);
    let mut model = SpectralKoopman::new(seed);
    for epoch in 0..2 {
        model.train_epoch(&data, epoch);
    }
    let lqr = LqrLatentController::synthesize(&mut model, 0.001).expect("LQR synthesis");
    (model, lqr)
}

#[test]
fn koopman_encode_owns_only_its_latent_and_act_owns_nothing() {
    let (mut model, lqr) = trained(5);
    let mut plant = CartPole::new(CartPoleConfig::default(), 5);
    plant.set_disturbance(Disturbance::with_probability(0.1));
    // Warm-up: anything a first call sizes lazily is sized here.
    let z = model.encode(&plant.observe());
    let _ = model.read_state(&z);
    let _ = lqr.act(&z);
    for tick in 0..200 {
        let obs = plant.observe();
        let (z, n) = allocations(|| model.encode(&obs));
        assert_eq!(n, 1, "tick {tick}: encode made {n} allocations");
        let (_, n) = allocations(|| model.read_state(&z));
        assert_eq!(n, 0, "tick {tick}: read_state made {n} allocations");
        let (u, n) = allocations(|| lqr.act(&z));
        assert_eq!(n, 0, "tick {tick}: act made {n} allocations");
        plant.step(u);
        if plant.failed() {
            plant.reset();
        }
    }
}

#[test]
fn fleet_shaped_cartpole_loop_makes_at_most_one_allocation_per_tick() {
    let (mut model, lqr) = trained(9);
    let looop = LoopBuilder::new("cart-alloc").build(
        FnSensor::new(|plant: &CartPole, ctx: &mut StageContext| {
            ctx.charge(2e-4, 1e-4);
            plant.observe()
        }),
        FnPerceptor::new(move |obs: &[f64; OBS_DIM], _: &mut StageContext| model.encode(&obs[..])),
        FnController::new(move |z: &Vec<f64>, _t: Trust, ctx: &mut StageContext| {
            ctx.charge(1e-5, 1e-5);
            lqr.act(z)
        }),
    );
    let mut plant = CartPole::new(CartPoleConfig::default(), 9);
    plant.set_disturbance(Disturbance::with_probability(0.1));
    let mut handle = LoopHandle::closed(looop, plant, |plant, force| {
        plant.step(*force);
        if plant.failed() {
            plant.reset();
        }
    });
    // Warm up past the 256-row record ring, so its growth is not counted.
    for _ in 0..300 {
        let _ = handle.tick_once();
    }
    const TICKS: u64 = 1_000;
    let (_, n) = allocations(|| {
        for _ in 0..TICKS {
            let _ = handle.tick_once();
        }
    });
    assert!(
        n <= TICKS,
        "{n} allocations over {TICKS} ticks (at most one a tick: the latent)"
    );
    assert_eq!(handle.telemetry().ticks(), 300 + TICKS);
}
