//! Allocation guard for the cart-pole and edge-tick inference paths, and a
//! heap footprint guard for the R-MAE train step.
//!
//! A Koopman encode owns only the latent it returns, the state read-out and
//! the latent LQR act own nothing, and a fleet-shaped cart-pole member
//! (`CartPole::observe` → `SpectralKoopman::encode` →
//! `LqrLatentController::act` → `CartPole::step`, closed through a
//! `LoopHandle`) makes at most one heap allocation per tick once its record
//! ring has wrapped. On the edge tick, an R-MAE reconstruct owns only the
//! probabilities it returns and a STARNet score allocates nothing per SPSA
//! iteration. A masked LiDAR scan makes a fixed number of allocations
//! plus its cloud's growth. An R-MAE train step writes no
//! `[sites × c·k³]` column matrix, on any ISA, and once warm the conv
//! lowerings reuse their halo and scratch instead of regrowing them. The
//! counting allocator counts allocations and live bytes per thread, so
//! tests running in parallel do not see each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sensact::core::stage::{FnController, FnPerceptor, FnSensor, StageContext, Trust};
use sensact::core::LoopBuilder;
use sensact::koopman::baselines::LatentModel;
use sensact::koopman::cartpole::{CartPole, CartPoleConfig, Disturbance, OBS_DIM};
use sensact::koopman::control::LqrLatentController;
use sensact::koopman::encoder::SpectralKoopman;
use sensact::koopman::train::collect_dataset;
use sensact::lidar::mask::RadialMaskConfig;
use sensact::lidar::{
    Lidar, LidarConfig, ObjectClass, PointCloud, RadialMask, Scene, SceneGenerator, SceneObject,
};
use sensact::math::metrics::Aabb;
use sensact::nn::conv::{Conv3d, Dims3};
use sensact::nn::init::Initializer;
use sensact::nn::optim::Adam;
use sensact::rmae::model::{RmaeConfig, RmaeModel};
use sensact::sched::LoopHandle;
use sensact::starnet::monitor::{Starnet, StarnetConfig};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed, and their high-water
    /// mark (a block freed on another thread stays counted here).
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

/// One allocation of `grow` bytes net (a free is negative).
fn count(new: bool, grow: i64) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    if new {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
    let _ = LIVE.try_with(|l| {
        let (live, peak) = l.get();
        l.set((live + grow, peak.max(live + grow)));
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters are thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(true, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(true, layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(true, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(false, -(layout.size() as i64));
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

/// `f`'s result and the most heap this thread held while running it, above
/// what it held before.
fn high_water<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let base = LIVE.with(|l| {
        let (live, _) = l.get();
        l.set((live, live));
        live
    });
    let out = f();
    (out, (LIVE.with(Cell::get).1 - base) as u64)
}

/// `f`'s result and the heap this thread still holds once `f` has
/// returned (its result dropped inside `f`), above what it held before.
fn kept(f: impl FnOnce()) -> i64 {
    let before = LIVE.with(Cell::get).0;
    f();
    LIVE.with(Cell::get).0 - before
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

/// A fresh full-size R-MAE model (60 × 36 × 4 grid) and two train steps:
/// the conv backward passes read their patches through the panel packer,
/// so no layer owns a `[sites × c·k³]` column matrix — conv1 0.23 MB,
/// conv2 1.87 MB, deconv1 1.87 MB, deconv2 0.55 MB when materialised.
/// Measured on an AVX2+FMA host: 2.34 MiB high-water with the panel path,
/// 6.65 MiB when the layers wrote their columns. The bound holds on every
/// ISA: under `SENSACT_FORCE_SCALAR` the portable tile packs the same
/// panels.
#[test]
fn rmae_train_steps_write_no_column_matrix() {
    const MIB: f64 = 1024.0 * 1024.0;
    // The four layers' columns, in doubles: 1080 sites × (1·27, 8·27, 8·27, 1·64).
    const COLUMNS: f64 = (1080 * (27 + 216 + 216 + 64) * 8) as f64 / MIB;
    let config = RmaeConfig::full();
    let voxels = config.voxels();
    let full: Vec<f64> = (0..voxels).map(|v| f64::from(v % 7 == 0)).collect();
    let masked: Vec<f64> = full
        .iter()
        .enumerate()
        .map(|(v, &o)| if v % 3 == 0 { 0.0 } else { o })
        .collect();
    let (_, bytes) = high_water(|| {
        let mut model = RmaeModel::new(config, 11);
        let mut opt = Adam::new(1e-3);
        for _ in 0..2 {
            let _ = model.train_step(&masked, &full, &mut opt);
        }
    });
    let mib = bytes as f64 / MIB;
    assert!(
        mib < 3.0,
        "{mib:.2} MiB high-water over two train steps (the columns are {COLUMNS:.2} MiB)"
    );
}

/// Once warm, the conv lowerings reuse their buffers (the thread's halo and
/// its offset tables, the layers' site lists and output panel) instead of
/// regrowing them: a batch-32 `forward_batch_into` of the served lidar conv
/// (`1 → 4`, `8³`, the serving model's shape) makes no heap allocation, and
/// every further R-MAE train step — four layers taking the one halo in
/// turn — makes exactly as many as the one before: the tensors a step
/// returns and caches, and nothing a lowering grows.
#[test]
fn warm_conv_lowerings_allocate_nothing_they_keep() {
    let mut conv = Conv3d::new(1, 4, 3, 2, 1, Dims3::new(8, 8, 8), &mut Initializer::new(3));
    let inputs: Vec<Vec<f64>> = (0..32)
        .map(|t| (0..512).map(|v| f64::from((v * 7 + t) % 11 == 0)).collect())
        .collect();
    let rows: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
    let mut outs = vec![vec![0.0; conv.out_features()]; 32];
    let mut views: Vec<&mut [f64]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
    conv.forward_batch_into(&rows, &mut views);
    for call in 0..10 {
        let (_, n) = allocations(|| conv.forward_batch_into(&rows, &mut views));
        assert_eq!(n, 0, "call {call}: forward_batch_into made {n} allocations");
    }

    let config = RmaeConfig::full();
    let full: Vec<f64> = (0..config.voxels())
        .map(|v| f64::from(v % 7 == 0))
        .collect();
    let masked: Vec<f64> = full
        .iter()
        .enumerate()
        .map(|(v, &o)| if v % 3 == 0 { 0.0 } else { o })
        .collect();
    let mut model = RmaeModel::new(config, 11);
    let mut opt = Adam::new(1e-3);
    let mut step = || allocations(|| model.train_step(&masked, &full, &mut opt)).1;
    let _ = step();
    let warm = step();
    for i in 0..4 {
        let n = step();
        assert_eq!(n, warm, "train step {i}: {n} allocations, {warm} when warm");
    }
}

/// A masked full-size grid: every seventh voxel occupied, a third of those
/// masked away.
fn masked_grid(config: RmaeConfig) -> Vec<f64> {
    (0..config.voxels())
        .map(|v| f64::from(v % 7 == 0 && v % 3 != 0))
        .collect()
}

/// A warm full-size `RmaeModel::reconstruct` makes one allocation, the
/// probabilities it returns, and keeps nothing once they are dropped: every
/// stage writes into this thread's two activation buffers. Through the
/// boxed `Sequential` it made 17 per call: the input tensor, a zeroed tensor
/// per stage and per ReLU (two allocations each, data and shape), and the
/// probabilities.
#[test]
fn warm_reconstruct_owns_only_the_probabilities_it_returns() {
    let config = RmaeConfig::full();
    let masked = masked_grid(config);
    let mut model = RmaeModel::new(config, 7);
    let _ = model.reconstruct(&masked);
    for call in 0..10 {
        let kept = kept(|| {
            let (probs, n) = allocations(|| model.reconstruct(&masked));
            assert_eq!(n, 1, "call {call}: reconstruct made {n} allocations");
            assert_eq!(probs.len(), config.voxels());
        });
        assert_eq!(kept, 0, "call {call}: reconstruct kept {kept} bytes");
    }
}

/// A warm `Starnet::score` on the edge loop's descriptor width (19 features
/// and the occupied share, a 936-parameter encoder, rank-16 SPSA over 30
/// iterations) makes at most 11 allocations, none inside the SPSA
/// iterations. When SPSA collected a fresh direction and two probes in each
/// of its 30 iterations a score made 98.
#[test]
fn warm_starnet_score_allocates_nothing_per_spsa_iteration() {
    let clean: Vec<Vec<f64>> = (0..16)
        .map(|i| {
            (0..20)
                .map(|j| ((i * 20 + j) as f64 * 0.37).sin())
                .collect()
        })
        .collect();
    let config = StarnetConfig {
        train_epochs: 30,
        ..StarnetConfig::default()
    };
    let mut monitor = Starnet::train(&clean, config, 3);
    let _ = monitor.score(&clean[0]);
    for (call, features) in clean.iter().enumerate() {
        let (_, n) = allocations(|| monitor.score(features));
        assert!(n <= 11, "call {call}: score made {n} allocations");
    }
}

/// A warm masked scan of a default street, under the edge loop's radial
/// mask, makes the same few allocations whatever its scene (the broad
/// phase's flat index and one beam's fired azimuths) plus the cloud's
/// growth, counted by pushing the same points into a fresh cloud. The
/// street's scenes put boxes in over two hundred of the 512 azimuth
/// columns, and a box over the sensor axis lands in every one. When the
/// broad phase kept one `Vec` per column, these scans made 229 to 513
/// allocations beyond the cloud's growth; now they make 4.
#[test]
fn masked_scan_allocates_a_constant_plus_the_clouds_growth() {
    let lidar = Lidar::new(LidarConfig::default());
    let mut scenes = SceneGenerator::new(21).generate_many(6);
    scenes.push(Scene::from_objects(vec![SceneObject::new(
        ObjectClass::Car,
        Aabb::from_center_size([0.5, -0.5, 0.2], [6.0, 4.0, 0.4]),
    )]));
    let mask = |seed| RadialMask::sample(RadialMaskConfig::default(), 512, seed);
    let mut warm = mask(0);
    let _ = lidar.scan_masked(&scenes[0], |_, az| warm.fire(az, 25.0));
    let mut fixed = Vec::new();
    for (seed, scene) in scenes.iter().enumerate() {
        let mut mask = mask(seed as u64);
        let ((cloud, _), n) = allocations(|| lidar.scan_masked(scene, |_, az| mask.fire(az, 25.0)));
        let (_, growth) = allocations(|| {
            let mut grown = PointCloud::new();
            for p in &cloud {
                grown.push(*p);
            }
            grown
        });
        fixed.push(n - growth);
    }
    assert!(
        fixed.iter().all(|&n| n == fixed[0] && n <= 4),
        "allocations beyond the cloud's growth, per scene: {fixed:?}"
    );
}
