//! Versioned checkpoint/restore of live loop state.
//!
//! Every stateful component of a sensing-to-action loop — telemetry rings,
//! fault-injector RNG streams, trust EMAs, controller integrators —
//! implements [`StageState`]: it serializes its mutable state into named
//! [`Section`]s of a [`Checkpoint`] and can later rebuild that exact state
//! on an identically-constructed instance. The contract is
//! **bit-exactness**: a loop restored at tick `k` of a recording and replayed
//! over the tail must produce records the [`replay`](crate::replay) differ
//! finds identical, NaNs included. Any mutable field a component forgets to
//! serialize therefore surfaces as a named
//! [`Divergence`](crate::replay::Divergence) — checkpointing doubles as a
//! hidden-state bug detector.
//!
//! ## Wire format
//!
//! A checkpoint is JSONL, the same flat self-describing shape as the
//! [`export`](crate::export) and [`replay`](crate::replay) streams:
//!
//! ```text
//! {"type":"ckpt_meta","version":1,"name":"<hex>","sections":N}
//! {"type":"ckpt_section","id":"telemetry","ticks":"u:1000",...}
//! ...                                               (N section lines)
//! ```
//!
//! The header carries the schema version and a **length prefix** (`sections`)
//! so torn writes are detected as [`CheckpointError::Truncated`] instead of
//! silently restoring partial state. Field values are typed strings:
//!
//! | prefix | payload                                   | type        |
//! |--------|-------------------------------------------|-------------|
//! | `u:`   | decimal                                   | `u64`       |
//! | `f:`   | 16 hex digits (`f64::to_bits`)            | `f64`       |
//! | `b:`   | `0` or `1`                                | `bool`      |
//! | `s:`   | hex-encoded UTF-8 bytes                   | `String`    |
//! | `U:`   | `;`-separated decimals                    | `Vec<u64>`  |
//! | `F:`   | `;`-separated 16-hex-digit bit patterns   | `Vec<f64>`  |
//!
//! Floats travel as raw bit patterns, so every value — including NaN payloads
//! and the ±∞ sentinels inside histograms — round-trips exactly. The reader
//! is *lenient*: unknown fields, unknown section ids and unknown line types
//! are ignored (a newer writer remains readable), while a wrong version,
//! missing section or undecodable value is a typed [`CheckpointError`] —
//! hostile input never panics.

use std::collections::BTreeMap;
use std::fmt;

use crate::export::{field, parse_flat, str_field};

/// Current checkpoint schema version (the `version` header field).
pub const CHECKPOINT_VERSION: u32 = 1;

/// Typed failure of checkpoint parsing or restore. Hostile bytes (torn
/// writes, corrupted headers, bit-flipped values) map onto these variants —
/// never onto a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The document ended before the header's `sections` count was met.
    Truncated {
        /// Sections the header promised.
        expected: usize,
        /// Parseable section lines actually found.
        found: usize,
    },
    /// The first line is not a well-formed `ckpt_meta` header.
    BadHeader,
    /// The header's schema version is not [`CHECKPOINT_VERSION`].
    BadVersion(u64),
    /// A component's section is absent from the checkpoint.
    MissingSection(String),
    /// A required field is absent from its section.
    MissingField(String),
    /// A field value failed to decode (wrong type prefix or corrupt payload).
    BadValue(String),
    /// The target does not support checkpointing (e.g. a scheduler handle
    /// closed over a runner not wrapped in
    /// [`Checkpointed`](crate::Checkpointed)).
    Unsupported,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { expected, found } => {
                write!(f, "truncated checkpoint: {found}/{expected} sections")
            }
            CheckpointError::BadHeader => write!(f, "missing or malformed checkpoint header"),
            CheckpointError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (expected {CHECKPOINT_VERSION})"
                )
            }
            CheckpointError::MissingSection(id) => write!(f, "missing section '{id}'"),
            CheckpointError::MissingField(key) => write!(f, "missing field '{key}'"),
            CheckpointError::BadValue(key) => write!(f, "undecodable value for '{key}'"),
            CheckpointError::Unsupported => write!(f, "target does not support checkpointing"),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn hex_str(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn unhex_str(s: &str) -> Option<String> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut bytes = Vec::with_capacity(s.len() / 2);
    for i in (0..s.len()).step_by(2) {
        bytes.push(u8::from_str_radix(s.get(i..i + 2)?, 16).ok()?);
    }
    String::from_utf8(bytes).ok()
}

fn enc_f64(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn dec_f64(s: &str) -> Option<f64> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok().map(f64::from_bits))
        .flatten()
}

/// One named bundle of key/value state inside a [`Checkpoint`] — typically
/// one component's mutable fields under its namespace (`"telemetry"`,
/// `"budget"`, `"sensor.inner"`, …).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Section {
    id: String,
    fields: BTreeMap<String, String>,
}

impl Section {
    /// An empty section under `id`.
    pub fn new(id: impl Into<String>) -> Self {
        Section {
            id: id.into(),
            fields: BTreeMap::new(),
        }
    }

    /// The section's namespace id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Whether `key` is present.
    pub fn has(&self, key: &str) -> bool {
        self.fields.contains_key(key)
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the section holds no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Store a `u64`.
    pub fn put_u64(&mut self, key: &str, v: u64) {
        self.fields.insert(key.to_string(), format!("u:{v}"));
    }

    /// Store an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, key: &str, v: f64) {
        self.fields
            .insert(key.to_string(), format!("f:{}", enc_f64(v)));
    }

    /// Store a `bool`.
    pub fn put_bool(&mut self, key: &str, v: bool) {
        self.fields
            .insert(key.to_string(), format!("b:{}", v as u8));
    }

    /// Store a string (hex-encoded, so arbitrary content survives the flat
    /// JSONL line).
    pub fn put_str(&mut self, key: &str, v: &str) {
        self.fields
            .insert(key.to_string(), format!("s:{}", hex_str(v.as_bytes())));
    }

    /// Store a `u64` slice.
    pub fn put_u64s(&mut self, key: &str, vs: &[u64]) {
        let body: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
        self.fields
            .insert(key.to_string(), format!("U:{}", body.join(";")));
    }

    /// Store an `f64` slice as exact bit patterns.
    pub fn put_f64s(&mut self, key: &str, vs: &[f64]) {
        let body: Vec<String> = vs.iter().map(|v| enc_f64(*v)).collect();
        self.fields
            .insert(key.to_string(), format!("F:{}", body.join(";")));
    }

    fn raw(&self, key: &str, prefix: char) -> Result<&str, CheckpointError> {
        let v = self
            .fields
            .get(key)
            .ok_or_else(|| CheckpointError::MissingField(format!("{}.{key}", self.id)))?;
        v.strip_prefix(prefix)
            .and_then(|rest| rest.strip_prefix(':'))
            .ok_or_else(|| CheckpointError::BadValue(format!("{}.{key}", self.id)))
    }

    fn bad(&self, key: &str) -> CheckpointError {
        CheckpointError::BadValue(format!("{}.{key}", self.id))
    }

    /// Read a `u64`.
    pub fn get_u64(&self, key: &str) -> Result<u64, CheckpointError> {
        self.raw(key, 'u')?.parse().map_err(|_| self.bad(key))
    }

    /// Read an `f64` (bit-exact).
    pub fn get_f64(&self, key: &str) -> Result<f64, CheckpointError> {
        dec_f64(self.raw(key, 'f')?).ok_or_else(|| self.bad(key))
    }

    /// Read a `bool`.
    pub fn get_bool(&self, key: &str) -> Result<bool, CheckpointError> {
        match self.raw(key, 'b')? {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(self.bad(key)),
        }
    }

    /// Read a string.
    pub fn get_str(&self, key: &str) -> Result<String, CheckpointError> {
        unhex_str(self.raw(key, 's')?).ok_or_else(|| self.bad(key))
    }

    /// Read a `u64` list.
    pub fn get_u64s(&self, key: &str) -> Result<Vec<u64>, CheckpointError> {
        let body = self.raw(key, 'U')?;
        if body.is_empty() {
            return Ok(Vec::new());
        }
        body.split(';')
            .map(|p| p.parse().map_err(|_| self.bad(key)))
            .collect()
    }

    /// Read an `f64` list (bit-exact).
    pub fn get_f64s(&self, key: &str) -> Result<Vec<f64>, CheckpointError> {
        let body = self.raw(key, 'F')?;
        if body.is_empty() {
            return Ok(Vec::new());
        }
        body.split(';')
            .map(|p| dec_f64(p).ok_or_else(|| self.bad(key)))
            .collect()
    }

    fn to_json(&self) -> String {
        let mut line = format!("{{\"type\":\"ckpt_section\",\"id\":\"{}\"", self.id);
        for (k, v) in &self.fields {
            line.push_str(&format!(",\"{k}\":\"{v}\""));
        }
        line.push('}');
        line
    }

    fn from_fields(fields: &[(&str, &str)]) -> Option<Section> {
        let id = str_field(fields, "id")?;
        let mut section = Section::new(id);
        for (k, v) in fields {
            if *k == "type" || *k == "id" {
                continue;
            }
            // Lenient: skip fields that are not quoted strings (a future
            // writer may add raw-number fields) instead of failing the line.
            let Some(v) = v.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
                continue;
            };
            section.fields.insert((*k).to_string(), v.to_string());
        }
        Some(section)
    }
}

/// A versioned, named collection of [`Section`]s — one component tree's
/// complete serialized state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    version: u32,
    name: String,
    sections: Vec<Section>,
}

impl Checkpoint {
    /// An empty checkpoint at the current schema version.
    pub fn new(name: impl Into<String>) -> Self {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            name: name.into(),
            sections: Vec::new(),
        }
    }

    /// Schema version of this checkpoint.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Checkpoint name (typically the loop name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a section. Later sections with the same id shadow earlier ones
    /// on lookup (last write wins), mirroring lenient-reader semantics.
    pub fn push(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// All sections, in order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Look up a section by id, or a typed error.
    pub fn section(&self, id: &str) -> Result<&Section, CheckpointError> {
        self.sections
            .iter()
            .rev()
            .find(|s| s.id == id)
            .ok_or_else(|| CheckpointError::MissingSection(id.to_string()))
    }

    /// Serialize as a length-prefixed JSONL document (trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"ckpt_meta\",\"version\":{},\"name\":\"{}\",\"sections\":{}}}\n",
            self.version,
            hex_str(self.name.as_bytes()),
            self.sections.len()
        );
        for s in &self.sections {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL document produced by [`Checkpoint::to_jsonl`].
    ///
    /// Lenient on unknown fields and unknown line types; typed errors (never
    /// panics) on a malformed header, a wrong schema version, or a document
    /// shorter than the header's `sections` length prefix.
    pub fn from_jsonl(doc: &str) -> Result<Checkpoint, CheckpointError> {
        let mut lines = doc.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or(CheckpointError::BadHeader)?;
        let fields = parse_flat(header).ok_or(CheckpointError::BadHeader)?;
        if str_field(&fields, "type") != Some("ckpt_meta") {
            return Err(CheckpointError::BadHeader);
        }
        let version: u64 = field(&fields, "version")
            .and_then(|v| v.parse().ok())
            .ok_or(CheckpointError::BadHeader)?;
        if version != CHECKPOINT_VERSION as u64 {
            return Err(CheckpointError::BadVersion(version));
        }
        let name = str_field(&fields, "name")
            .and_then(unhex_str)
            .ok_or(CheckpointError::BadHeader)?;
        let expected: usize = field(&fields, "sections")
            .and_then(|v| v.parse().ok())
            .ok_or(CheckpointError::BadHeader)?;
        let mut sections = Vec::new();
        for line in lines {
            // Lenient: skip anything that is not a parseable section line
            // (unknown event types, comments). A torn final line simply
            // fails to parse and is not counted.
            let Some(fields) = parse_flat(line) else {
                continue;
            };
            if str_field(&fields, "type") != Some("ckpt_section") {
                continue;
            }
            if let Some(section) = Section::from_fields(&fields) {
                sections.push(section);
            }
        }
        if sections.len() < expected {
            return Err(CheckpointError::Truncated {
                expected,
                found: sections.len(),
            });
        }
        Ok(Checkpoint {
            version: version as u32,
            name,
            sections,
        })
    }
}

/// A component that can serialize its mutable state into a [`Checkpoint`]
/// and later rebuild it on an identically-constructed instance.
///
/// Both methods default to no-ops so stateless stages (closure adapters,
/// constant monitors, pure-config policies) participate for free. A stage
/// with hidden mutable state that keeps the no-op default is *not* silently
/// fine: the restored loop diverges from the recording and the replay differ
/// names the first field that drifts — the intended failure mode.
pub trait StageState {
    /// Serialize mutable state into `ckpt` under the `ns` namespace.
    fn save_state(&self, _ckpt: &mut Checkpoint, _ns: &str) {}

    /// Restore mutable state from `ckpt`'s `ns` namespace. Implementations
    /// that wrote a section in [`StageState::save_state`] should treat a
    /// missing section as an error; stateless components accept anything.
    fn restore_state(&mut self, _ckpt: &Checkpoint, _ns: &str) -> Result<(), CheckpointError> {
        Ok(())
    }
}

/// A loop runner whose complete live state — telemetry, budget, tracer
/// ring, every stage's [`StageState`] and whatever the runner itself holds —
/// round-trips through a [`Checkpoint`] for kill-and-resume or live
/// migration. Implemented by [`SensingActionLoop`](crate::SensingActionLoop)
/// and [`FallibleLoop`](crate::FallibleLoop) whenever their stages are
/// checkpointable; [`Checkpointed`](crate::Checkpointed) adds the
/// environment.
pub trait Snapshot {
    /// Serialize the runner's live state into a versioned [`Checkpoint`].
    ///
    /// The contract: [`Snapshot::restore`] of this checkpoint onto an
    /// *identically constructed* runner makes every subsequent tick
    /// bit-identical to the uninterrupted run.
    fn snapshot(&self) -> Checkpoint;

    /// Restore live state saved by [`Snapshot::snapshot`]. The runner must
    /// be built with the same configuration (stages, seeds, policies, budget
    /// and telemetry capacity) as the snapshotted one; only mutable state
    /// travels through the checkpoint.
    fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError>;
}

/// Values that serialize to/from a flat `f64` vector — environments, held
/// features, `last_good` samples. The checkpoint layer uses this to carry
/// generic payloads (a [`FaultInjector`](crate::fault::FaultInjector)'s
/// last-good reading, a closed loop's environment) bit-exactly.
pub trait StateVec: Sized {
    /// Flatten into `f64` words.
    fn to_state(&self) -> Vec<f64>;
    /// Rebuild from the exact words [`StateVec::to_state`] produced; `None`
    /// if the shape is wrong.
    fn from_state(v: &[f64]) -> Option<Self>;
}

impl StateVec for f64 {
    fn to_state(&self) -> Vec<f64> {
        vec![*self]
    }
    fn from_state(v: &[f64]) -> Option<Self> {
        (v.len() == 1).then(|| v[0])
    }
}

impl StateVec for Vec<f64> {
    fn to_state(&self) -> Vec<f64> {
        self.clone()
    }
    fn from_state(v: &[f64]) -> Option<Self> {
        Some(v.to_vec())
    }
}

impl<const N: usize> StateVec for [f64; N] {
    fn to_state(&self) -> Vec<f64> {
        self.to_vec()
    }
    fn from_state(v: &[f64]) -> Option<Self> {
        v.try_into().ok()
    }
}

impl StateVec for (f64, f64) {
    fn to_state(&self) -> Vec<f64> {
        vec![self.0, self.1]
    }
    fn from_state(v: &[f64]) -> Option<Self> {
        (v.len() == 2).then(|| (v[0], v[1]))
    }
}

/// Save an `Option<V: StateVec>` into a section as a presence flag plus the
/// flattened payload.
pub fn put_opt_state<V: StateVec>(section: &mut Section, key: &str, v: &Option<V>) {
    match v {
        Some(v) => {
            section.put_bool(&format!("{key}_some"), true);
            section.put_f64s(key, &v.to_state());
        }
        None => {
            section.put_bool(&format!("{key}_some"), false);
            section.put_f64s(key, &[]);
        }
    }
}

/// Read back an `Option<V: StateVec>` written by [`put_opt_state`].
pub fn get_opt_state<V: StateVec>(
    section: &Section,
    key: &str,
) -> Result<Option<V>, CheckpointError> {
    if !section.get_bool(&format!("{key}_some"))? {
        return Ok(None);
    }
    let words = section.get_f64s(key)?;
    V::from_state(&words)
        .map(Some)
        .ok_or_else(|| CheckpointError::BadValue(format!("{}.{key}", section.id())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut ckpt = Checkpoint::new("loop-a");
        let mut s = Section::new("alpha");
        s.put_u64("ticks", 1000);
        s.put_f64("energy", 0.1 + 0.2);
        s.put_f64("nan", f64::NAN);
        s.put_f64("neg_inf", f64::NEG_INFINITY);
        s.put_bool("active", true);
        s.put_str("name", "loop a, with \"punctuation\" {and braces}");
        s.put_u64s("ring", &[3, 1, 4, 1, 5]);
        s.put_f64s("stats", &[1.0 / 3.0, -0.0, f64::INFINITY]);
        s.put_u64s("empty_u", &[]);
        s.put_f64s("empty_f", &[]);
        ckpt.push(s);
        ckpt.push(Section::new("beta"));
        ckpt
    }

    #[test]
    fn round_trips_bit_exactly() {
        let ckpt = sample();
        let doc = ckpt.to_jsonl();
        let back = Checkpoint::from_jsonl(&doc).expect("parses");
        assert_eq!(back.name(), "loop-a");
        assert_eq!(back.version(), CHECKPOINT_VERSION);
        let s = back.section("alpha").unwrap();
        assert_eq!(s.get_u64("ticks").unwrap(), 1000);
        assert_eq!(
            s.get_f64("energy").unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        assert!(s.get_f64("nan").unwrap().is_nan());
        assert_eq!(s.get_f64("neg_inf").unwrap(), f64::NEG_INFINITY);
        assert!(s.get_bool("active").unwrap());
        assert_eq!(
            s.get_str("name").unwrap(),
            "loop a, with \"punctuation\" {and braces}"
        );
        assert_eq!(s.get_u64s("ring").unwrap(), vec![3, 1, 4, 1, 5]);
        let fs = s.get_f64s("stats").unwrap();
        assert_eq!(fs[0].to_bits(), (1.0f64 / 3.0).to_bits());
        assert_eq!(fs[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(fs[2], f64::INFINITY);
        assert!(s.get_u64s("empty_u").unwrap().is_empty());
        assert!(s.get_f64s("empty_f").unwrap().is_empty());
        assert!(back.section("beta").unwrap().is_empty());
        // Full structural equality through the wire.
        assert_eq!(back, ckpt);
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error() {
        let doc = sample().to_jsonl();
        for cut in 0..doc.len() {
            let r = Checkpoint::from_jsonl(&doc[..cut]);
            if let Ok(c) = &r {
                // Only a cut beyond the last section line can still parse:
                // it must carry every promised section.
                assert_eq!(c.sections().len(), 2, "cut at {cut} parsed short");
            }
        }
        // A cut mid-way through the section list is Truncated specifically.
        let upto_first = doc.lines().take(2).collect::<Vec<_>>().join("\n");
        assert_eq!(
            Checkpoint::from_jsonl(&upto_first),
            Err(CheckpointError::Truncated {
                expected: 2,
                found: 1
            })
        );
    }

    #[test]
    fn corrupted_headers_are_typed_errors() {
        assert_eq!(Checkpoint::from_jsonl(""), Err(CheckpointError::BadHeader));
        assert_eq!(
            Checkpoint::from_jsonl("garbage\n"),
            Err(CheckpointError::BadHeader)
        );
        assert_eq!(
            Checkpoint::from_jsonl("{\"type\":\"span\",\"tick\":1}\n"),
            Err(CheckpointError::BadHeader)
        );
        assert_eq!(
            Checkpoint::from_jsonl(
                "{\"type\":\"ckpt_meta\",\"version\":99,\"name\":\"\",\"sections\":0}\n"
            ),
            Err(CheckpointError::BadVersion(99))
        );
        assert_eq!(
            Checkpoint::from_jsonl(
                "{\"type\":\"ckpt_meta\",\"version\":x,\"name\":\"\",\"sections\":0}\n"
            ),
            Err(CheckpointError::BadHeader)
        );
        assert_eq!(
            Checkpoint::from_jsonl(
                "{\"type\":\"ckpt_meta\",\"version\":1,\"name\":\"zz\",\"sections\":0}\n"
            ),
            Err(CheckpointError::BadHeader)
        );
    }

    #[test]
    fn reader_is_lenient_on_unknown_content() {
        let mut doc = sample().to_jsonl();
        // Unknown line types and unknown fields must be ignored.
        doc.push_str("{\"type\":\"future_event\",\"x\":1}\n");
        doc.push_str("{\"type\":\"ckpt_section\",\"id\":\"gamma\",\"novel\":\"u:7\"}\n");
        let back = Checkpoint::from_jsonl(&doc).expect("lenient parse");
        assert_eq!(back.section("gamma").unwrap().get_u64("novel").unwrap(), 7);
        // More sections than promised is fine — the prefix is a lower bound.
        assert_eq!(back.sections().len(), 3);
    }

    #[test]
    fn wrong_type_prefix_is_bad_value() {
        let mut s = Section::new("x");
        s.put_u64("n", 5);
        assert!(matches!(s.get_f64("n"), Err(CheckpointError::BadValue(_))));
        assert!(matches!(
            s.get_u64("absent"),
            Err(CheckpointError::MissingField(_))
        ));
        assert!(matches!(s.get_bool("n"), Err(CheckpointError::BadValue(_))));
    }

    #[test]
    fn opt_state_round_trips() {
        let mut s = Section::new("opt");
        put_opt_state(&mut s, "held", &Some(vec![1.0, f64::NAN]));
        put_opt_state::<f64>(&mut s, "nothing", &None);
        let held: Option<Vec<f64>> = get_opt_state(&s, "held").unwrap();
        let held = held.unwrap();
        assert_eq!(held[0], 1.0);
        assert!(held[1].is_nan());
        assert_eq!(get_opt_state::<f64>(&s, "nothing").unwrap(), None);
        // Shape mismatch is a typed error, not a panic.
        assert!(matches!(
            get_opt_state::<[f64; 3]>(&s, "held"),
            Err(CheckpointError::BadValue(_))
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = CheckpointError::Truncated {
            expected: 4,
            found: 1,
        };
        assert!(e.to_string().contains("1/4"));
        assert!(CheckpointError::BadVersion(9).to_string().contains('9'));
        assert!(CheckpointError::MissingSection("telemetry".into())
            .to_string()
            .contains("telemetry"));
    }
}
