//! Hostile-checkpoint mutator: every restore either refuses a mutated field
//! and leaves the section it refused as it was, or holds exactly what it
//! read.
//!
//! Each case is a document and a target built the way its writer was:
//!
//! - the six pinned `.ckpt.jsonl` files, restored through a [`LoopHandle`]
//!   closed over a [`Checkpointed`] runner (which restores the runner
//!   through [`Snapshot::restore`](sensact::core::Snapshot::restore));
//! - fresh checkpoints of two wall [`Tracer`]s holding spans and a pending
//!   stamp, a trained [`Starnet`], a [`TemporalConsistency`] past
//!   calibration, a [`Conv3d`] and a [`Deconv3d`], a [`ShootingController`],
//!   a lease from [`LeasePool::snapshot_lease`], and a fleet member from
//!   [`FleetScheduler::snapshot_member`] (its `sched.slot` section beside
//!   the loop's own), adopted through [`FleetScheduler::adopt_member`].
//!
//! Every field of every section the target itself writes is mutated by its
//! wire prefix, no schema needed: `u:` to 0, 1, 256, 2³² and `u64::MAX`;
//! `f:` to ±0.0, NaN, ±∞, a subnormal and −1.0; `b:` flipped; `U:` / `F:`
//! emptied, last item dropped, last item duplicated, a 0 (and for `F:` a
//! NaN) appended, and the last item set to each scalar value of its kind.
//! Every field is also removed, and every pair of same-prefix scalar fields
//! in a section swapped. Sections the target does not write (the governor
//! pins' `governor`) and fields it does not write (the older pins' retired
//! keys, which no restore reads) are skipped.
//!
//! The oracle, per mutation: never a panic. On `Err`, the error names a key
//! of the mutated section, and that section of the target's re-save equals
//! its value before the call. On `Ok`, the re-save carries each mutated
//! field's decoded value bit for bit and every other field as the
//! unmutated document's restore re-saves it; then eight ticks (for the
//! fleet member, eight deterministic runs) run. Values
//! compare decoded, because the pins' scalar `f:` environment re-saves as
//! a one-item `F:` list.

mod common;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use common::{
    fast_monitor_config, pin_fallible, pin_infallible, GOVERNED_FALLIBLE, GOVERNED_INFALLIBLE,
    PINNED_FALLIBLE, PINNED_INFALLIBLE, UNTRIMMED_FALLIBLE, UNTRIMMED_INFALLIBLE,
};
use sensact::core::checkpoint::{Checkpoint, CheckpointError, StageState};
use sensact::core::fault::StageError;
use sensact::core::trace::SimClock;
use sensact::core::{
    Checkpointed, LoopRunner, LoopTelemetry, Precision, Snapshot, StageId, Tracer, Trust,
};
use sensact::koopman::{LatentModel, MlpDynamics, ShootingController};
use sensact::nn::conv::{Conv3d, Deconv3d, Dims3};
use sensact::nn::{Initializer, Layer, Tensor};
use sensact::sched::{FleetConfig, FleetScheduler, LoopHandle, LoopId, LoopSpec};
use sensact::serve::{LeasePool, ModelKind, PoolConfig};
use sensact::starnet::{Starnet, TemporalConsistency};

/// Operations run on a target after a restore it accepted.
const TICKS: usize = 8;

/// What the mutator drives: a component, its checkpoint and its work.
trait Target {
    /// The target's checkpoint as it stands.
    fn save(&mut self) -> Checkpoint;
    /// Restore `ckpt` onto the target.
    fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError>;
    /// One tick (score, forward, observation, …) on the current state.
    fn step(&mut self);
    /// Put the target back to the state `before` was saved from.
    fn reset(&mut self, before: &Checkpoint) {
        self.restore(before)
            .expect("a target's own checkpoint restores");
    }
}

impl Target for LoopHandle {
    fn save(&mut self) -> Checkpoint {
        self.save_state().expect("a checkpointed handle saves")
    }
    fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        self.restore_from(ckpt)
    }
    fn step(&mut self) {
        self.tick_once();
    }
}

/// Namespace a [`Stage`] saves under.
const NS: &str = "stage";

/// A [`StageState`] component and what one tick does to it.
struct Stage<T> {
    inner: T,
    tick: Box<dyn FnMut(&mut T)>,
}

impl<T: StageState> Target for Stage<T> {
    fn save(&mut self) -> Checkpoint {
        let mut ckpt = Checkpoint::new(NS);
        self.inner.save_state(&mut ckpt, NS);
        ckpt
    }
    fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        self.inner.restore_state(ckpt, NS)
    }
    fn step(&mut self) {
        (self.tick)(&mut self.inner);
    }
}

/// A pool adopting leases: its checkpoint is the live lease's, or none.
struct Lease {
    pool: LeasePool,
    live: Option<u64>,
    now_s: f64,
}

impl Target for Lease {
    fn save(&mut self) -> Checkpoint {
        match self.live {
            Some(lease) => self.pool.snapshot_lease(lease).unwrap(),
            None => Checkpoint::new("no lease"),
        }
    }
    fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        let restored = self.pool.restore_lease(ckpt, self.now_s);
        match restored {
            Ok(lease) => self.live = Some(lease),
            Err(_) => assert_eq!(self.pool.active(), 0, "a refused lease stayed live"),
        }
        restored.map(drop)
    }
    fn step(&mut self) {
        self.now_s += 0.01;
        let lease = self.live.expect("ticks follow a restore");
        let _ = self.pool.observe(lease, vec![0.25; 4], self.now_s);
    }
    fn reset(&mut self, _before: &Checkpoint) {
        if let Some(lease) = self.live.take() {
            self.pool.release(lease).unwrap();
        }
    }
}

/// A fleet member adopted from its snapshot: the loop's sections plus
/// `sched.slot`. Refused, the member and its slot stay as they were.
struct Member {
    fleet: FleetScheduler,
    id: LoopId,
}

impl Member {
    /// The fallible pin as a fleet member, released every 50 µs against
    /// ticks of about 100 µs (it backlogs and drops) under a 1 µs budget.
    fn new() -> Self {
        let mut fleet = FleetScheduler::new(FleetConfig {
            workers: 1,
            watts_cap: None,
            seed: 7,
        });
        let id = fleet.register(member(), LoopSpec::periodic(5e-5).with_budget(1e-6));
        Member { fleet, id }
    }
}

fn member() -> LoopHandle {
    LoopHandle::closed(Checkpointed(pin_fallible()), 8.0, |e: &mut f64, a: &f64| {
        *e += a
    })
}

impl Target for Member {
    fn save(&mut self) -> Checkpoint {
        self.fleet.snapshot_member(self.id).unwrap()
    }
    fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        self.fleet.adopt_member(self.id, member(), ckpt)
    }
    fn step(&mut self) {
        self.fleet.run_deterministic(1e-3, &mut SimClock::new());
    }
}

/// One section's fields as the wire spells them, in wire order.
type Fields = Vec<(String, String)>;

/// The header line and every section of a checkpoint document. Keys and
/// typed values hold neither `,` nor `"`.
fn parse_doc(doc: &str) -> (String, Vec<(String, Fields)>) {
    let mut lines = doc.lines();
    let header = lines.next().expect("a header").to_string();
    let sections = lines
        .map(|line| {
            let body = line.strip_prefix('{').and_then(|l| l.strip_suffix('}'));
            let mut id = None;
            let mut fields = Fields::new();
            for item in body.expect("a section line").split(',') {
                let (k, v) = item[1..item.len() - 1].split_once("\":\"").unwrap();
                match k {
                    "type" => {}
                    "id" => id = Some(v.to_string()),
                    _ => fields.push((k.to_string(), v.to_string())),
                }
            }
            (id.expect("a section id"), fields)
        })
        .collect();
    (header, sections)
}

/// Write `sections` under `header` and parse the document back.
fn write_doc(header: &str, sections: &[(String, Fields)]) -> Checkpoint {
    let mut doc = format!("{header}\n");
    for (id, fields) in sections {
        doc += &format!("{{\"type\":\"ckpt_section\",\"id\":\"{id}\"");
        for (k, v) in fields {
            doc += &format!(",\"{k}\":\"{v}\"");
        }
        doc += "}\n";
    }
    Checkpoint::from_jsonl(&doc).expect("a mutated document parses")
}

/// Every section of `ckpt` by id, its fields by key.
fn by_id(ckpt: &Checkpoint) -> BTreeMap<String, BTreeMap<String, String>> {
    let (_, sections) = parse_doc(&ckpt.to_jsonl());
    sections
        .into_iter()
        .map(|(id, fields)| (id, fields.into_iter().collect()))
        .collect()
}

/// A value's scalar kind (`u`, `f` or `b`) and its items as bits: `f:x`
/// and `F:x` decode alike.
fn decoded(v: &str) -> Option<(char, Vec<u64>)> {
    let (tag, body) = v.split_once(':')?;
    let kind = tag.chars().next()?.to_ascii_lowercase();
    let item = |x: &str| match kind {
        'f' => u64::from_str_radix(x, 16).ok(),
        _ => x.parse().ok(),
    };
    let items = match body {
        "" => Some(Vec::new()),
        _ => body.split(';').map(item).collect(),
    };
    Some((kind, items?))
}

const U_VALUES: [u64; 5] = [0, 1, 256, 1 << 32, u64::MAX];

/// ±0.0, NaN, ±∞, the smallest subnormal and −1.0.
const F_VALUES: [f64; 7] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::from_bits(1),
    -1.0,
];

fn f_item(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// One mutated section: what was done, the fields, the keys it changed.
struct Mutation {
    what: String,
    fields: Fields,
    keys: Vec<String>,
}

/// Every mutation of one section's fields, chosen by each field's prefix.
fn mutations(fields: &Fields) -> Vec<Mutation> {
    let mut out = Vec::new();
    let mut set = |i: usize, v: String| {
        if fields[i].1 != v {
            let mut f = fields.clone();
            f[i].1 = v.clone();
            let what = format!("{} = {v}", fields[i].0);
            out.push(Mutation {
                what,
                fields: f,
                keys: vec![fields[i].0.clone()],
            });
        }
    };
    for (i, (_, v)) in fields.iter().enumerate() {
        let (tag, body) = v.split_once(':').expect("a typed value");
        let scalars: Vec<String> = match tag {
            "u" | "U" => U_VALUES.iter().map(u64::to_string).collect(),
            _ => F_VALUES.into_iter().map(f_item).collect(),
        };
        match tag {
            "u" | "f" => scalars.iter().for_each(|x| set(i, format!("{tag}:{x}"))),
            "b" => set(i, format!("b:{}", u8::from(body == "0"))),
            _ => {
                let items: Vec<String> = body
                    .split(';')
                    .filter(|x| !x.is_empty())
                    .map(str::to_string)
                    .collect();
                let list = |items: &[String]| format!("{tag}:{}", items.join(";"));
                let with_last = |last: &str| {
                    let mut v = items.clone();
                    v.pop();
                    v.push(last.to_string());
                    list(&v)
                };
                let appended = |item: String| list(&[items.clone(), vec![item]].concat());
                set(i, list(&[]));
                if let Some(last) = items.last() {
                    set(i, list(&items[..items.len() - 1]));
                    set(i, appended(last.clone()));
                    for x in &scalars {
                        set(i, with_last(x));
                    }
                }
                set(
                    i,
                    appended(if tag == "U" { "0".into() } else { f_item(0.0) }),
                );
                if tag == "F" {
                    set(i, appended(f_item(f64::NAN)));
                }
            }
        }
    }
    for (i, (k, _)) in fields.iter().enumerate() {
        let mut f = fields.clone();
        f.remove(i);
        out.push(Mutation {
            what: format!("{k} removed"),
            fields: f,
            keys: vec![k.clone()],
        });
    }
    for i in 0..fields.len() {
        for j in i + 1..fields.len() {
            let ((ki, vi), (kj, vj)) = (&fields[i], &fields[j]);
            let scalar = |v: &str| ["u:", "f:", "b:"].iter().any(|p| v.starts_with(p));
            if scalar(vi) && vi[..2] == vj[..2] && vi != vj {
                let mut f = fields.clone();
                (f[i].1, f[j].1) = (vj.clone(), vi.clone());
                out.push(Mutation {
                    what: format!("{ki} <-> {kj}"),
                    fields: f,
                    keys: vec![ki.clone(), kj.clone()],
                });
            }
        }
    }
    out
}

/// What a panic carried, as text.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

/// Where `restore` broke the oracle for one mutation, if it did.
fn judge(
    id: &str,
    m: &Mutation,
    own_keys: &[&String],
    baseline: &BTreeMap<String, BTreeMap<String, String>>,
    before: &Checkpoint,
    verdict: Result<(Result<(), CheckpointError>, Checkpoint), String>,
) -> Option<String> {
    let (result, after) = match verdict {
        Ok(v) => v,
        Err(panic) => return Some(format!("panicked: {panic}")),
    };
    if let Err(e) = result {
        let named = match &e {
            CheckpointError::MissingField(k) | CheckpointError::BadValue(k) => k
                .strip_prefix(id)
                .and_then(|k| k.strip_prefix('.'))
                .is_some_and(|k| own_keys.iter().any(|own| *own == k)),
            _ => false,
        };
        if !named {
            return Some(format!("refused as {e:?}, which names no key of `{id}`"));
        }
        if after.section(id).ok() != before.section(id).ok() {
            return Some(format!("refused as {e:?} but `{id}` changed"));
        }
        return None;
    }
    let after = by_id(&after);
    for (sid, base) in baseline {
        let Some(got) = after.get(sid) else {
            return Some(format!("accepted, and `{sid}` is gone from the re-save"));
        };
        if got.keys().ne(base.keys()) {
            return Some(format!("accepted, and `{sid}` re-saves other keys"));
        }
        for (k, v) in base {
            let expect = match m.fields.iter().find(|(mk, _)| mk == k) {
                Some((_, mv)) if sid == id && m.keys.contains(k) => mv,
                _ => v,
            };
            if decoded(&got[k]) != decoded(expect) {
                let got = &got[k];
                return Some(format!(
                    "accepted, but `{sid}.{k}` re-saves {got}, not {expect}"
                ));
            }
        }
    }
    None
}

/// Run every mutation of `doc` against `target`; return what broke.
fn hunt(case: &str, doc: &Checkpoint, target: &mut dyn Target) -> Vec<String> {
    let before = target.save();
    target
        .restore(doc)
        .unwrap_or_else(|e| panic!("{case}: the unmutated document is refused: {e:?}"));
    let baseline = by_id(&target.save());
    target.reset(&before);
    let (header, sections) = parse_doc(&doc.to_jsonl());
    let mut findings = Vec::new();
    for (at, (id, fields)) in sections.iter().enumerate() {
        let Some(own) = baseline.get(id) else {
            continue;
        };
        let own_keys: Vec<&String> = fields.iter().map(|(k, _)| k).chain(own.keys()).collect();
        let written = |m: &Mutation| m.keys.iter().all(|k| own.contains_key(k));
        for m in mutations(fields).into_iter().filter(written) {
            let mut mutated = sections.clone();
            mutated[at].1 = m.fields.clone();
            let ckpt = write_doc(&header, &mutated);
            let verdict = catch_unwind(AssertUnwindSafe(|| {
                let result = target.restore(&ckpt);
                let after = target.save();
                if result.is_ok() {
                    (0..TICKS).for_each(|_| target.step());
                }
                (result, after)
            }))
            .map_err(panic_text);
            if let Some(f) = judge(id, &m, &own_keys, &baseline, &before, verdict) {
                findings.push(format!("{case}: {id}.{}: {f}", m.what));
            }
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| target.reset(&before))) {
                findings.push(format!("{case}: reset panicked: {}", panic_text(panic)));
                return findings;
            }
        }
    }
    findings
}

/// A handle closed over `runner`, as a fleet member holds it.
fn handle<L>(runner: L) -> Box<dyn Target>
where
    L: LoopRunner<f64, Action = f64> + Snapshot + Send + 'static,
{
    let h = LoopHandle::closed(Checkpointed(runner), 8.0, |e: &mut f64, a: &f64| *e += a);
    Box::new(h)
}

fn stage<T: StageState + 'static>(inner: T, tick: impl FnMut(&mut T) + 'static) -> Box<dyn Target> {
    let tick = Box::new(tick);
    Box::new(Stage { inner, tick })
}

/// `component`'s checkpoint, written under [`NS`] and read back.
fn saved(component: &impl StageState) -> Checkpoint {
    let mut ckpt = Checkpoint::new(NS);
    component.save_state(&mut ckpt, NS);
    Checkpoint::from_jsonl(&ckpt.to_jsonl()).unwrap()
}

/// A wall tracer of `capacity` spans that recorded `spans` and holds the
/// last one's end as its pending stamp.
fn wall_tracer(capacity: usize, spans: u64) -> Tracer {
    let mut t = Tracer::wall().with_span_capacity(capacity);
    for tick in 0..spans {
        let t0 = t.start();
        let stage = StageId::ALL[tick as usize % StageId::ALL.len()];
        t.finish(tick, stage, t0, 1e-3, 2e-4, tick != 1);
    }
    t
}

fn trace_tick(t: &mut Tracer) {
    let t0 = t.start();
    t.finish(9, StageId::Act, t0, 0.0, 0.0, true);
}

fn starnet(seed: u64) -> Starnet {
    let samples: Vec<Vec<f64>> = (0..8).map(|i| vec![0.1 * i as f64; 4]).collect();
    Starnet::train(&samples, fast_monitor_config(), seed)
}

fn conv(seed: u64) -> Conv3d {
    Conv3d::new(
        1,
        2,
        3,
        1,
        1,
        Dims3::new(4, 4, 4),
        &mut Initializer::new(seed),
    )
}

fn deconv(seed: u64) -> Deconv3d {
    Deconv3d::new(
        2,
        1,
        2,
        2,
        0,
        Dims3::new(2, 2, 2),
        &mut Initializer::new(seed),
    )
}

/// A forward pass of `layer` on a fixed mostly-zero row of `width` values.
fn forward(layer: &mut dyn Layer, width: usize) {
    let row = (0..width).map(|i| f64::from(i as u8 % 3)).collect();
    let _ = layer.forward(&Tensor::from_vec(vec![1, width], row), false);
}

fn shooting(seed: u64) -> ShootingController {
    ShootingController::new(10.0, seed)
}

/// A shooting controller's tick: one action on an untrained model.
fn shooting_tick() -> impl FnMut(&mut ShootingController) {
    let mut model = MlpDynamics::new(4);
    let z = model.encode(&[0.1; sensact::koopman::cartpole::OBS_DIM]);
    move |c| {
        let _ = c.act(&mut model, &z);
    }
}

/// A lease checkpoint: a cart-pole lease served a few observations.
fn lease_doc() -> Checkpoint {
    let mut pool = LeasePool::new(PoolConfig::default());
    let (lease, _) = pool.grant(ModelKind::Cartpole, 7, 0.0).unwrap();
    for k in 1..=3 {
        pool.observe(lease, vec![0.1 * k as f64; 4], 0.01 * k as f64)
            .unwrap();
    }
    pool.snapshot_lease(lease).unwrap()
}

/// A member's checkpoint after a deterministic run.
fn member_doc() -> Checkpoint {
    let mut m = Member::new();
    m.step();
    m.save()
}

/// Every case: a name, a document, and a target built as its writer was.
fn cases() -> Vec<(&'static str, Checkpoint, Box<dyn Target>)> {
    let pin = |doc: &str| Checkpoint::from_jsonl(doc).unwrap();
    let mut temporal = TemporalConsistency::new();
    for k in 0..30 {
        let _ = temporal.observe(1.0 + 0.05 * f64::from(k % 4));
    }
    let mut scored = starnet(0);
    for k in 0..3 {
        let _ = scored.score(&[0.05 * f64::from(k); 4]);
    }
    let mut acted = shooting(9);
    let mut tick = shooting_tick();
    (0..3).for_each(|_| tick(&mut acted));
    vec![
        ("fallible pin", pin(PINNED_FALLIBLE), handle(pin_fallible())),
        (
            "fallible untrimmed pin",
            pin(UNTRIMMED_FALLIBLE),
            handle(pin_fallible()),
        ),
        (
            "fallible governed pin",
            pin(GOVERNED_FALLIBLE),
            handle(pin_fallible()),
        ),
        (
            "infallible pin",
            pin(PINNED_INFALLIBLE),
            handle(pin_infallible()),
        ),
        (
            "infallible untrimmed pin",
            pin(UNTRIMMED_INFALLIBLE),
            handle(pin_infallible()),
        ),
        (
            "infallible governed pin",
            pin(GOVERNED_INFALLIBLE),
            handle(pin_infallible()),
        ),
        (
            "wall tracer",
            saved(&wall_tracer(4, 6)),
            stage(Tracer::wall(), trace_tick),
        ),
        (
            "one-span wall tracer",
            saved(&wall_tracer(1, 3)),
            stage(Tracer::wall(), trace_tick),
        ),
        (
            "starnet",
            saved(&scored),
            stage(starnet(1), |m| {
                let _ = m.score(&[0.2; 4]);
            }),
        ),
        (
            "temporal",
            saved(&temporal),
            stage(TemporalConsistency::new(), |t| {
                let _ = t.observe(2.0);
            }),
        ),
        (
            "conv3d",
            saved(&conv(1)),
            stage(conv(2), |c| forward(c, 64)),
        ),
        (
            "deconv3d",
            saved(&deconv(1)),
            stage(deconv(2), |d| forward(d, 16)),
        ),
        (
            "shooting",
            saved(&acted),
            stage(shooting(777), shooting_tick()),
        ),
        (
            "lease",
            lease_doc(),
            Box::new(Lease {
                pool: LeasePool::new(PoolConfig::default()),
                live: None,
                now_s: 1.0,
            }),
        ),
        ("fleet member", member_doc(), Box::new(Member::new())),
    ]
}

#[test]
fn every_restore_refuses_cleanly_or_holds_what_it_read() {
    // Panics are findings: keep their messages out of the test output while
    // the mutator runs, and re-raise one that escapes it.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let findings = catch_unwind(|| {
        let mut findings = Vec::new();
        for (case, doc, mut target) in cases() {
            findings.extend(hunt(case, &doc, target.as_mut()));
        }
        findings
    });
    std::panic::set_hook(hook);
    let findings = findings.unwrap_or_else(|panic| panic!("{}", panic_text(panic)));
    assert!(
        findings.is_empty(),
        "{} hostile-checkpoint findings:\n{}",
        findings.len(),
        findings.join("\n")
    );
}

/// A restorable telemetry counter: its wire key, its item when the key is a
/// `U:` list, its type's maximum, one tick that counts it, and its reading.
type Counter = (
    &'static str,
    Option<usize>,
    u64,
    fn(&mut LoopTelemetry),
    fn(&LoopTelemetry) -> u64,
);

fn counters() -> Vec<Counter> {
    vec![
        (
            "ticks",
            None,
            u64::MAX,
            |t| t.record(1e-6, 1e-4, Trust::Trusted),
            |t| t.ticks(),
        ),
        (
            "precision_ticks",
            Some(0),
            u64::MAX,
            |t| t.record(1e-6, 1e-4, Trust::Trusted),
            |t| t.precision_ticks(Precision::F64),
        ),
        (
            "suspect_streak",
            None,
            u32::MAX as u64,
            |t| t.record(1e-6, 1e-4, Trust::Suspect(0.5)),
            |t| t.current_suspect_streak() as u64,
        ),
        (
            "fault_counters",
            Some(0),
            u64::MAX,
            |t| t.record_fault(&StageError::Dropout),
            |t| t.fault_counters().faults,
        ),
        (
            "fault_counters",
            Some(1),
            u64::MAX,
            |t| t.record_fault(&StageError::Dropout),
            |t| t.fault_counters().dropouts,
        ),
        (
            "fault_counters",
            Some(2),
            u64::MAX,
            |t| {
                t.record_fault(&StageError::Timeout {
                    latency_s: 2.0,
                    budget_s: 1.0,
                })
            },
            |t| t.fault_counters().timeouts,
        ),
        (
            "fault_counters",
            Some(3),
            u64::MAX,
            |t| {
                t.record_fault(&StageError::OutOfRange {
                    value: 2.0,
                    min: 0.0,
                    max: 1.0,
                })
            },
            |t| t.fault_counters().out_of_range,
        ),
        (
            "fault_counters",
            Some(4),
            u64::MAX,
            |t| t.record_fault(&StageError::Poisoned),
            |t| t.fault_counters().poisoned,
        ),
        (
            "fault_counters",
            Some(5),
            u64::MAX,
            |t| t.record_retries(1),
            |t| t.fault_counters().retries,
        ),
        (
            "fault_counters",
            Some(6),
            u64::MAX,
            |t| t.record_hold(),
            |t| t.fault_counters().holds,
        ),
        (
            "fault_counters",
            Some(7),
            u64::MAX,
            |t| t.record_fallback(),
            |t| t.fault_counters().fallbacks,
        ),
        (
            "comm_counters",
            Some(0),
            u64::MAX,
            |t| t.record_comm_tx(8, 0, true, 0.0),
            |t| t.comm_counters().msgs_sent,
        ),
        (
            "comm_counters",
            Some(1),
            u64::MAX,
            |t| t.record_comm_tx(8, 0, true, 0.0),
            |t| t.comm_counters().msgs_delivered,
        ),
        (
            "comm_counters",
            Some(2),
            u64::MAX,
            |t| t.record_comm_tx(8, 0, false, 0.0),
            |t| t.comm_counters().msgs_dropped,
        ),
        (
            "comm_counters",
            Some(3),
            u64::MAX,
            |t| t.record_comm_tx(8, 1, true, 0.0),
            |t| t.comm_counters().retransmits,
        ),
        (
            "comm_counters",
            Some(4),
            u64::MAX,
            |t| t.record_comm_tx(1, 0, true, 0.0),
            |t| t.comm_counters().bytes_tx,
        ),
        (
            "comm_counters",
            Some(5),
            u64::MAX,
            |t| t.record_comm_rx(1),
            |t| t.comm_counters().bytes_rx,
        ),
    ]
}

/// Every telemetry counter a restore can set wraps to 0 when a tick counts
/// past its type's maximum, as release builds always did: a restored
/// document never arms an overflow panic in a debug build.
#[test]
fn a_counter_restored_at_its_maximum_wraps_on_the_next_tick() {
    let (header, sections) = parse_doc(&saved(&LoopTelemetry::new()).to_jsonl());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut findings = Vec::new();
    for (key, item, max, tick, read) in counters() {
        let mut doc = sections.clone();
        let field = doc[0].1.iter_mut().find(|(k, _)| k == key).unwrap();
        field.1 = match item {
            None => format!("u:{max}"),
            Some(i) => {
                let mut items: Vec<String> = field.1[2..].split(';').map(str::to_string).collect();
                items[i] = max.to_string();
                format!("U:{}", items.join(";"))
            }
        };
        let doc = write_doc(&header, &doc);
        let row = item.map_or(key.to_string(), |i| format!("{key}[{i}]"));
        let wrapped = catch_unwind(AssertUnwindSafe(|| {
            let mut t = LoopTelemetry::new();
            t.restore_state(&doc, NS)
                .expect("a counter at its maximum restores");
            assert_eq!(read(&t), max, "restored as read");
            tick(&mut t);
            read(&t)
        }));
        match wrapped {
            Ok(0) => {}
            Ok(v) => findings.push(format!("{row}: {v} after one tick, not 0")),
            Err(panic) => findings.push(format!("{row}: panicked: {}", panic_text(panic))),
        }
    }
    std::panic::set_hook(hook);
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}

/// Every scheduler counter a member adoption can set — `ticks`, `drops`,
/// `deadline_misses`, `faults` — wraps when the member counts past
/// `u64::MAX`, and the run's per-loop deltas wrap with it: a `sched.slot`
/// section holding the maximum never arms an overflow panic in a debug
/// build. The member is [`Member::new`]'s (the pin faults, backlogs, drops
/// and misses most deadlines); it runs a deterministic horizon, then takes
/// one external tick and one shed drop.
#[test]
fn a_scheduler_counter_adopted_at_its_maximum_wraps() {
    let counter = |fleet: &FleetScheduler, id, key: &str| {
        let slot = &by_id(&fleet.snapshot_member(id).unwrap())["sched.slot"];
        slot[key]
            .strip_prefix("u:")
            .unwrap()
            .parse::<u64>()
            .unwrap()
    };
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut findings = Vec::new();
    for key in ["ticks", "drops", "deadline_misses", "faults"] {
        let wrapped = catch_unwind(AssertUnwindSafe(|| {
            let Member { mut fleet, id } = Member::new();
            let (header, mut sections) = parse_doc(&fleet.snapshot_member(id).unwrap().to_jsonl());
            let slot = sections
                .iter_mut()
                .find(|(id, _)| id == "sched.slot")
                .unwrap();
            slot.1.iter_mut().find(|(k, _)| k == key).unwrap().1 = format!("u:{}", u64::MAX);
            fleet
                .adopt_member(id, member(), &write_doc(&header, &sections))
                .expect("a counter at its maximum adopts");
            assert_eq!(counter(&fleet, id, key), u64::MAX, "adopted as read");
            let report = fleet.run_deterministic(0.005, &mut SimClock::new());
            assert!(report.ticks > 0 && report.drops > 0 && report.deadline_misses > 0);
            fleet.tick_member_at(id, 1.0);
            fleet.record_member_drops(id, 1);
            counter(&fleet, id, key)
        }));
        match wrapped {
            Ok(v) if v < 1 << 20 => {}
            Ok(v) => findings.push(format!("{key}: {v} after the run, not wrapped")),
            Err(panic) => findings.push(format!("{key}: panicked: {}", panic_text(panic))),
        }
    }
    std::panic::set_hook(hook);
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}
