//! `edge_loop`: the paper's §III + §V loop on the fleet scheduler.
//!
//! `Lidar::scan_masked` (radial mask, ~7 % of pulses) → `VoxelGrid` →
//! `RmaeModel::reconstruct` (60×36×4) → `extract_features` → `Starnet`
//! monitor → fail-safe controller, as three clean members and one member
//! behind a seeded `FaultInjector`, ticked round-robin with
//! `FleetScheduler::tick_member_at`. Op = one closed-loop tick.

use crate::measure::{lat_ns, Exact, Fold, SegCounts};
use crate::replay::RmaeNet;
use crate::trace::{self, now_ns, Drained};
use crate::workload::{Check, Layers, Sizing, Workload};
use sensact_core::adapt::NoAdaptation;
use sensact_core::fault::{FaultInjector, FaultProfile, NanPoison, RecoveryPolicy, Reliable};
use sensact_core::stage::{
    Controller, FnController, Monitor, Perceptor, Sensor, StageContext, Trust,
};
use sensact_core::{FallibleLoop, LoopBuilder, WithFallback};
use sensact_lidar::energy::EnergyModel;
use sensact_lidar::mask::{RadialMask, RadialMaskConfig};
use sensact_lidar::raycast::{Lidar, LidarConfig};
use sensact_lidar::scene::{Scene, SceneGenerator};
use sensact_lidar::voxel::VoxelGrid;
use sensact_lidar::PointCloud;
use sensact_math::rng::StdRng;
use sensact_nn::count::MacEnergyModel;
use sensact_rmae::model::{RmaeConfig, RmaeModel};
use sensact_sched::{FleetConfig, FleetScheduler, LoopHandle, LoopId, LoopSpec};
use sensact_starnet::features::extract_features;
use sensact_starnet::monitor::{Starnet, StarnetConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const MEMBERS: usize = 4;
/// Scenes each member's street cycles through.
const SCENES: usize = 8;
/// Clean sweeps the monitor is trained on at set-up.
const TRAIN_SWEEPS: usize = 12;
/// 10 Hz lidar; the tick budget is half the period.
const PERIOD_S: f64 = 0.1;
/// Range the mask budgets pulses for (metres).
const EXPECTED_RANGE_M: f64 = 25.0;

/// What the masked sensor hands to perception.
#[derive(Debug, Clone)]
pub struct Sweep {
    cloud: PointCloud,
}

impl NanPoison for Sweep {
    fn poison(&mut self) {
        for p in self.cloud.points_mut() {
            p.range = f64::NAN;
            p.x = f64::NAN;
            p.y = f64::NAN;
            p.z = f64::NAN;
        }
    }
}

/// The member's environment: a street of scenes the vehicle drives through.
struct Street {
    scenes: Vec<Scene>,
    at: usize,
}

struct MaskedLidar {
    lidar: Lidar,
    energy: EnergyModel,
    mask_seed: u64,
    sweeps: u64,
    fired: Arc<AtomicU64>,
}

impl MaskedLidar {
    fn sweep(&mut self, scene: &Scene) -> (Sweep, usize) {
        self.sweeps += 1;
        let mut mask = RadialMask::sample(
            RadialMaskConfig::default(),
            self.lidar.config().azimuth_steps,
            self.mask_seed ^ self.sweeps,
        );
        let (cloud, fired) = trace::scope("lidar.raycast.scan_masked_us", || {
            self.lidar
                .scan_masked(scene, |_, az| mask.fire(az, EXPECTED_RANGE_M))
        });
        (Sweep { cloud }, fired)
    }
}

impl Sensor<Street> for MaskedLidar {
    type Reading = Sweep;

    fn sense(&mut self, env: &Street, ctx: &mut StageContext) -> Sweep {
        let (sweep, fired) = self.sweep(&env.scenes[env.at]);
        self.fired.fetch_add(fired as u64, Ordering::Relaxed);
        let report =
            self.energy
                .adaptive_scan_energy(&sweep.cloud, fired, self.energy.min_pulse_energy);
        ctx.charge(report.total_energy_j, 1e-3);
        sweep
    }
}

/// Voxelise, reconstruct, describe: 19 cloud descriptors plus the
/// reconstructed occupied share, so the generative model's output reaches
/// the monitor and the action.
struct Reconstructor {
    model: RmaeModel,
    recon_energy_j: f64,
}

impl Reconstructor {
    fn new(seed: u64) -> Reconstructor {
        let model = RmaeModel::new(RmaeConfig::full(), seed);
        // Modelled compute energy of one forward pass (int8 MAC array).
        let recon_energy_j = MacEnergyModel::default().energy_mj(model.stats().macs, 8) * 1e-3;
        Reconstructor {
            model,
            recon_energy_j,
        }
    }

    fn describe(&mut self, sweep: &Sweep) -> Vec<f64> {
        let cfg = self.model.config().grid;
        let occupancy = trace::scope("lidar.voxel.from_cloud_us", || {
            VoxelGrid::from_cloud(cfg, &sweep.cloud).occupancy_flat()
        });
        let probs = trace::scope("rmae.model.reconstruct_us", || {
            self.model.reconstruct(&occupancy)
        });
        let mut features = trace::scope("starnet.features.extract_us", || {
            extract_features(&sweep.cloud)
        });
        let occupied = probs.iter().filter(|&&p| p > 0.5).count();
        features.push(occupied as f64 / probs.len() as f64);
        features
    }
}

impl Perceptor<Sweep> for Reconstructor {
    type Features = Vec<f64>;

    fn perceive(&mut self, sweep: &Sweep, ctx: &mut StageContext) -> Vec<f64> {
        ctx.charge(self.recon_energy_j, 2e-3);
        self.describe(sweep)
    }
}

/// `Starnet` behind a span.
struct Watch(Starnet);

impl Monitor<Vec<f64>> for Watch {
    fn assess(&mut self, features: &Vec<f64>, ctx: &mut StageContext) -> Trust {
        trace::scope("starnet.monitor.assess_us", || self.0.assess(features, ctx))
    }
}

/// Fail-safe speed command: proceed in proportion to how open the
/// reconstructed scene is, stop when the monitor does not vouch for it.
fn speed_controller() -> impl Controller<Vec<f64>, Action = f64> + Send + 'static {
    FnController::new(|f: &Vec<f64>, trust: Trust, ctx: &mut StageContext| {
        ctx.charge(1e-6, 1e-5);
        if trust.is_actionable() {
            (1.0 - f[f.len() - 1]).clamp(0.0, 1.0) * (1.0 - trust.suspicion())
        } else {
            0.0
        }
    })
}

struct Built {
    handle: LoopHandle,
    fold: Arc<AtomicU64>,
    fired: Arc<AtomicU64>,
    /// A real masked occupancy buffer of this member's street (replays feed
    /// it to the conv layers: im2col cost depends on sparsity).
    occupancy: Vec<f64>,
}

fn member(seed: u64, idx: usize) -> Built {
    let mut rng = StdRng::seed_from_u64(seed ^ (0xED6E + idx as u64));
    let scenes = SceneGenerator::new(rng.next_u64()).generate_many(SCENES);
    let fired = Arc::new(AtomicU64::new(0));
    let mut sensor = MaskedLidar {
        lidar: Lidar::new(LidarConfig::default()),
        energy: EnergyModel::default(),
        mask_seed: rng.next_u64(),
        sweeps: 0,
        fired: Arc::clone(&fired),
    };
    let mut perceptor = Reconstructor::new(rng.next_u64());
    // Train the monitor on clean sweeps through this member's own
    // perception, before the first timed tick.
    let clean: Vec<Vec<f64>> = SceneGenerator::new(rng.next_u64())
        .generate_many(TRAIN_SWEEPS)
        .iter()
        .map(|scene| {
            let (sweep, _) = sensor.sweep(scene);
            perceptor.describe(&sweep)
        })
        .collect();
    let monitor = Watch(Starnet::train(
        &clean,
        StarnetConfig::default(),
        rng.next_u64(),
    ));
    let grid = perceptor.model.config().grid;
    let (sweep, _) = sensor.sweep(&scenes[0]);
    let occupancy = VoxelGrid::from_cloud(grid, &sweep.cloud).occupancy_flat();
    sensor.sweeps = 0;

    let fold = Arc::new(AtomicU64::new(Fold::default().0));
    let sink = Arc::clone(&fold);
    let street = Street { scenes, at: 0 };
    let apply = move |street: &mut Street, action: &f64| {
        street.at = (street.at + 1) % street.scenes.len();
        let mut f = Fold(sink.load(Ordering::Relaxed));
        f.f64(*action);
        sink.store(f.0, Ordering::Relaxed);
    };
    let name = format!("edge-{idx}");
    // The last member senses through a seeded fault injector and recovers
    // by retry, last-good hold and fail-safe fallback.
    let handle = if idx == MEMBERS - 1 {
        let looop = FallibleLoop::new(
            name,
            FaultInjector::new(
                sensor,
                FaultProfile {
                    dropout: 0.05,
                    stuck: 0.05,
                    nan: 0.05,
                    ..FaultProfile::none()
                },
                rng.next_u64(),
            ),
            Reliable(perceptor),
            monitor,
            WithFallback::new(speed_controller(), 0.0),
        )
        .with_recovery(RecoveryPolicy {
            max_retries: 1,
            max_hold_ticks: 2,
            ..RecoveryPolicy::default()
        });
        LoopHandle::closed_fallible(looop, street, apply)
    } else {
        let looop = LoopBuilder::new(name).build_full(
            sensor,
            perceptor,
            monitor,
            speed_controller(),
            NoAdaptation,
        );
        LoopHandle::closed(looop, street, apply)
    };
    Built {
        handle,
        fold,
        fired,
        occupancy,
    }
}

pub struct EdgeLoop {
    seed: u64,
    sched: FleetScheduler,
    ids: Vec<LoopId>,
    folds: Vec<Arc<AtomicU64>>,
    fired: Vec<Arc<AtomicU64>>,
    occupancy: Vec<f64>,
    issued: Vec<u64>,
    round: u64,
    energy_j: f64,
    rounds_per_segment: usize,
}

impl EdgeLoop {
    pub fn build(seed: u64, _: Sizing) -> Box<dyn Workload> {
        let mut sched = FleetScheduler::new(FleetConfig {
            workers: MEMBERS,
            watts_cap: None,
            seed,
        });
        let (mut ids, mut folds, mut fired) = (vec![], vec![], vec![]);
        let mut occupancy = Vec::new();
        for idx in 0..MEMBERS {
            let built = member(seed, idx);
            ids.push(sched.register(
                built.handle,
                LoopSpec::periodic(PERIOD_S).with_budget(PERIOD_S / 2.0),
            ));
            folds.push(built.fold);
            fired.push(built.fired);
            if idx == 0 {
                occupancy = built.occupancy;
            }
        }
        let mut w = EdgeLoop {
            seed,
            sched,
            ids,
            folds,
            fired,
            occupancy,
            issued: vec![0; MEMBERS],
            round: 0,
            energy_j: 0.0,
            rounds_per_segment: 8,
        };
        // Two warm rounds fault in the conv scratch buffers.
        let mut lat = Vec::new();
        for _ in 0..2 {
            w.round(&mut lat);
        }
        Box::new(w)
    }

    fn round(&mut self, lat: &mut Vec<u32>) {
        self.round += 1;
        let release_s = PERIOD_S * self.round as f64;
        let mut t0 = now_ns();
        for (i, &id) in self.ids.iter().enumerate() {
            trace::set_op(self.issued.iter().sum());
            let out = trace::scope("sched.tick_member_at_us", || {
                self.sched.tick_member_at(id, release_s)
            });
            self.energy_j += out.energy_j;
            self.issued[i] += 1;
            let t1 = now_ns();
            lat.push(lat_ns(t1 - t0));
            t0 = t1;
        }
    }
}

impl Workload for EdgeLoop {
    fn segment(&mut self, lat: &mut Vec<u32>) -> SegCounts {
        for _ in 0..self.rounds_per_segment {
            self.round(lat);
        }
        SegCounts {
            attempted: (self.rounds_per_segment * MEMBERS) as u64,
            ..SegCounts::default()
        }
    }

    fn exact(&mut self) -> Exact {
        let mut fold = Fold::default();
        for f in &self.folds {
            fold.word(f.load(Ordering::Relaxed));
        }
        Exact {
            ops: self.issued.iter().sum(),
            refused: 0,
            failed: 0,
            energy_j: self.energy_j,
            hash: fold.0,
        }
    }

    fn check(&mut self) -> Vec<Check> {
        // Every member's telemetry must account for exactly the ticks
        // issued, and its per-stage charges must sum to the tick totals.
        let mut ok = true;
        let mut detail = String::new();
        for (i, &id) in self.ids.iter().enumerate() {
            let t = self.sched.loop_telemetry(id);
            let stages = t.stage_totals();
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
            let member_ok = t.ticks() == self.issued[i]
                && close(stages.total_energy_j(), t.total_energy_j())
                && close(stages.total_latency_s(), t.total_latency_s());
            ok &= member_ok;
            detail.push_str(&format!(
                "m{i}: {}/{} ticks, {:.6e}/{:.6e} J; ",
                t.ticks(),
                self.issued[i],
                stages.total_energy_j(),
                t.total_energy_j()
            ));
        }
        vec![Check::new("telemetry_conservation", ok, detail)]
    }

    fn layers(&mut self, spans: &Drained, traced_ops: u64, budget_s: f64, out: &mut Layers) {
        for name in [
            "sched.tick_member_at_us",
            "lidar.raycast.scan_masked_us",
            "lidar.voxel.from_cloud_us",
            "rmae.model.reconstruct_us",
            "starnet.features.extract_us",
            "starnet.monitor.assess_us",
        ] {
            out.wrapped(spans, name, traced_ops);
        }
        let tick = spans.totals_of("sched.tick_member_at_us");
        out.set(
            "core.loop.self_us",
            tick.self_ns as f64 / 1e3 / traced_ops.max(1) as f64,
            tick.calls,
        );
        let ops: u64 = self.issued.iter().sum();
        let fired: u64 = self.fired.iter().map(|f| f.load(Ordering::Relaxed)).sum();
        out.set(
            "lidar.raycast.pulses_fired",
            fired as f64 / ops.max(1) as f64,
            ops,
        );
        let mut suspect = 0.0;
        let (mut drops, mut misses) = (0, 0);
        for &id in &self.ids {
            suspect += self.sched.loop_telemetry(id).suspect_fraction() / MEMBERS as f64;
            let stats = self.sched.loop_stats(id);
            drops += stats.drops;
            misses += stats.deadline_misses;
        }
        out.set("starnet.monitor.suspect_share", suspect, ops);
        out.set("sched.drops", drops as f64 / ops.max(1) as f64, drops);
        out.set(
            "sched.deadline_misses",
            misses as f64 / ops.max(1) as f64,
            misses,
        );
        let mut net = RmaeNet::new(&RmaeConfig::full(), self.seed);
        net.replay(&self.occupancy, false, budget_s, out);
        let recon = out.get("rmae.model.reconstruct_us").0;
        if recon > 0.0 {
            out.set(
                "bench.replay_closure_pct",
                100.0 * out.get("nn.conv.forward_us").0 / recon,
                4,
            );
        }
    }
}
