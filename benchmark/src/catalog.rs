//! The names this benchmark defines: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` is generated from these tables
//! (`--print-manifest`) and `run.sh --check` fails when the two differ.

use crate::workload::WorkloadDef;
use crate::{edge, fleet, serve, train};

pub const DEFAULT_SEED: u64 = 20250;

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "serve_mixed",
        why: "Headline serving path: 32 lidar-conv + 32 cartpole leases over batched Loopback; ~93% of time is 4 KB wire decode, im2col and GEMM, so kernel, conv, decode and batching work shows here.",
        op: "observation (wire bytes in -> decoded Act out)",
        build: serve::mixed,
    },
    WorkloadDef {
        name: "serve_cartpole_wide",
        why: "512 cartpole leases with identity perception: kernel work is ~0, so all time is serve.{wire,engine,lease,batch} + sched + telemetry over a wide working set; kernel changes must not move it.",
        op: "observation",
        build: serve::cartpole_wide,
    },
    WorkloadDef {
        name: "serve_churn",
        why: "Leases granted, burst past the budget, released, expired and rejected while 64 residents tick: writes to the lease table and scheduler freelist that the other serve workloads only read.",
        op: "any client request that expects a reply",
        build: serve::churn,
    },
    WorkloadDef {
        name: "edge_loop",
        why: "The paper's closed loop (masked raycast -> voxels -> R-MAE reconstruct -> STARNet -> fail-safe control) on the scheduler: inference kernel, lidar and starnet work shows here; no serving code.",
        op: "closed-loop tick",
        build: edge::EdgeLoop::build,
    },
    WorkloadDef {
        name: "fleet_sched",
        why: "1024 cart-pole loops on run_deterministic, tracing off: about a third of a scheduled tick is scheduler + loop overhead, so a loop/driver refactor must be flat or better here; kernels do nothing.",
        op: "scheduled tick",
        build: fleet::FleetSched::plain,
    },
    WorkloadDef {
        name: "fleet_sched_traced",
        why: "fleet_sched with FleetTracer and a wall Tracer on every member: spans are written beside every tick, so tracing-overhead claims land here while fleet_sched guards the disabled path.",
        op: "scheduled tick",
        build: fleet::FleetSched::traced,
    },
    WorkloadDef {
        name: "rmae_train",
        why: "R-MAE train steps (forward, backward, Adam): same conv/GEMM kernels as edge_loop but weights change every step, so a pack-once or fused-im2col win on inference that loses on training shows here.",
        op: "train step",
        build: train::RmaeTrain::build,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "energy_per_op_uj",
        unit: "uJ",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric: busy µs per workload op unless the name says
/// otherwise.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// wrapped | replayed | derived | count | computed | bench
    pub how: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn us(name: &'static str, how: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "us",
        better: "lower",
        how,
        moves,
    }
}

const fn other(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    how: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        how,
        moves,
    }
}

const SERVE_ALL: &str = "op_p50_us, ops_per_s on serve_*";
const WIDE: &str = "ops_per_s on serve_cartpole_wide";
const MIXED: &str = "ops_per_s on serve_mixed";
const CHURN: &str = "ops_per_s on serve_churn";
const FLEET: &str = "ops_per_s on fleet_sched";
const TRACED: &str = "ops_per_s on fleet_sched_traced";
const EDGE: &str = "op_p50_us on edge_loop";
const TRAIN: &str = "ops_per_s on rmae_train";
const KERNEL: &str =
    "edge_loop, rmae_train, serve_mixed; no change on serve_cartpole_wide, fleet_sched";
const NONE: &str = "none (instrument quality and ceilings)";

pub const PER_LAYER: &[PerLayer] = &[
    us("serve.loopback.send_us", "wrapped", SERVE_ALL),
    us("serve.loopback.flush_us", "wrapped", SERVE_ALL),
    us("serve.loopback.take_us", "wrapped", SERVE_ALL),
    us("serve.engine.ingest_us", "replayed", WIDE),
    us("serve.engine.flush_us", "replayed", WIDE),
    us("serve.engine.self_us", "derived", WIDE),
    us("serve.wire.decode_obs_us", "replayed", MIXED),
    us("serve.wire.encode_act_us", "replayed", MIXED),
    us("serve.wire.decode_act_us", "replayed", MIXED),
    other("serve.wire.bytes_in_per_op", "B", "lower", "count", MIXED),
    other("serve.wire.bytes_out_per_op", "B", "lower", "count", MIXED),
    us("serve.lease.admit_us", "replayed", WIDE),
    us("serve.lease.grant_us", "replayed", CHURN),
    us("serve.lease.release_us", "replayed", CHURN),
    us("serve.lease.expire_us", "replayed", CHURN),
    other(
        "serve.lease.rejected",
        "1/op",
        "lower",
        "count",
        "refused share on serve_churn",
    ),
    other(
        "serve.obs.shed",
        "1/op",
        "lower",
        "count",
        "refused share on serve_churn",
    ),
    other(
        "serve.obs.served",
        "1/op",
        "higher",
        "count",
        "refused share on serve_churn",
    ),
    us("serve.batch.flush_us", "replayed", MIXED),
    us("serve.batch.release_us", "derived", WIDE),
    other(
        "serve.batch.occupancy_mean",
        "count",
        "higher",
        "count",
        MIXED,
    ),
    other(
        "serve.batch.batches_per_flush",
        "count",
        "lower",
        "count",
        MIXED,
    ),
    us("serve.model.forward_us", "replayed", MIXED),
    us("serve.model.control_us", "replayed", MIXED),
    us("serve.http.scrape_us", "replayed", CHURN),
    us("sched.tick_member_at_us", "wrapped", EDGE),
    us("sched.run_us_per_tick", "wrapped", FLEET),
    us("sched.overhead_us_per_tick", "derived", FLEET),
    us("sched.register_us", "wrapped", "setup_s on fleet_*"),
    other("sched.drops", "1/op", "lower", "count", "failed on fleet_*"),
    other(
        "sched.deadline_misses",
        "1/op",
        "lower",
        "count",
        "op_p99_us on fleet_*",
    ),
    us("core.loop.tick_us", "replayed", FLEET),
    us("core.fault.tick_us", "replayed", FLEET),
    us("core.loop.self_us", "derived", EDGE),
    us("core.telemetry.record_us", "replayed", FLEET),
    us("core.metrics.inc_us", "replayed", WIDE),
    us("core.trace.span_us", "replayed", TRACED),
    other("core.trace.spans_per_op", "count", "lower", "count", TRACED),
    us("core.export.jsonl_us", "replayed", TRACED),
    us("lidar.raycast.scan_masked_us", "wrapped", EDGE),
    other(
        "lidar.raycast.pulses_fired",
        "count",
        "lower",
        "count",
        "energy_per_op_uj on edge_loop",
    ),
    us("lidar.voxel.from_cloud_us", "wrapped", EDGE),
    us("rmae.model.reconstruct_us", "wrapped", EDGE),
    us("rmae.model.train_step_us", "wrapped", TRAIN),
    us("rmae.pretrain.masked_pair_us", "wrapped", TRAIN),
    us(
        "starnet.features.extract_us",
        "wrapped",
        "op_p99_us on edge_loop",
    ),
    us(
        "starnet.monitor.assess_us",
        "wrapped",
        "op_p99_us on edge_loop",
    ),
    other(
        "starnet.monitor.suspect_share",
        "ratio",
        "lower",
        "count",
        "op_p99_us on edge_loop",
    ),
    us("koopman.encoder.encode_us", "wrapped", FLEET),
    us("koopman.control.act_us", "wrapped", FLEET),
    us("koopman.cartpole.step_us", "wrapped", FLEET),
    us("nn.conv.forward_us", "replayed", "edge_loop, rmae_train"),
    us("nn.conv.backward_us", "replayed", TRAIN),
    us("nn.conv.forward_batch_us", "replayed", MIXED),
    other(
        "nn.conv.im2col_bytes_per_op",
        "B",
        "lower",
        "computed",
        KERNEL,
    ),
    us("nn.optim.adam_step_us", "replayed", TRAIN),
    us("math.kernels.gemm_us", "replayed", KERNEL),
    us("math.kernels.gemm_transa_us", "replayed", KERNEL),
    us("math.kernels.gemm_transb_gathered_us", "replayed", MIXED),
    other(
        "math.kernels.gemm_flops_per_op",
        "count",
        "lower",
        "computed",
        KERNEL,
    ),
    other(
        "math.kernels.gemm_gflops",
        "GFLOP/s",
        "higher",
        "replayed",
        KERNEL,
    ),
    other(
        "math.kernels.gemm_peak_share",
        "ratio",
        "higher",
        "derived",
        KERNEL,
    ),
    other("bench.noise_pct", "%", "lower", "bench", NONE),
    other("bench.trace_overhead_pct", "%", "lower", "bench", NONE),
    other("bench.replay_closure_pct", "%", "higher", "bench", NONE),
    other("bench.fma_peak_gflops", "GFLOP/s", "higher", "bench", NONE),
    other("bench.stream_gbps", "GB/s", "higher", "bench", NONE),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, exactly as the repo commits it.
pub fn manifest(run_seconds: u32) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_manifest_meets_its_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(manifest(18).len() < 64 * 1024);
    }
}
