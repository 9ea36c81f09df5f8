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
//! | `U:`   | `;`-separated decimals                    | `Vec<u64>`  |
//! | `F:`   | `;`-separated 16-hex-digit bit patterns   | `Vec<f64>`  |
//!
//! Floats travel as raw bit patterns, so every value — including NaN payloads
//! and the ±∞ sentinels inside histograms — round-trips exactly. Every
//! payload has one spelling, the one the writer emits: decimals carry no sign
//! and no leading zero, hex is lowercase, list items are never empty. The
//! reader refuses any other spelling (`+5`, `05`, `3FF0…`) as
//! [`CheckpointError::BadValue`], or [`CheckpointError::BadHeader`] in the
//! header, so two different documents never restore the same state. Writers
//! append straight into one byte buffer per value, and readers parse byte
//! slices. The reader is *lenient*: unknown fields, unknown section ids and
//! unknown line types are ignored (a newer writer remains readable), while a
//! wrong version, missing section or undecodable value is a typed
//! [`CheckpointError`] — hostile input never panics.
//!
//! ## Restoring
//!
//! A restore decodes its whole section into locals, then assigns. The
//! checked reads refuse what a field cannot hold — [`Section::get_as`]
//! narrows an integer to its field's type, [`Section::get_u64_array`] and
//! [`Section::get_f64s_len`] read a list of a required length, and
//! [`Section::check`] refuses a range, NaN, order or code — each as
//! [`Section::bad`]'s `BadValue("<section>.<key>")`. So a refused section
//! leaves its component unchanged. The contract is per section: a runner
//! restores its sections in turn, and those before a refused one stay
//! restored ([`Snapshot::restore`]).

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

/// Lowercase hex digits: the only spelling the writers emit and the
/// readers accept.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// The value of each byte as a hex digit of [`HEX`], or `0xff`.
const NIBBLE: [u8; 256] = {
    let mut t = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        t[HEX[i] as usize] = i as u8;
        i += 1;
    }
    t
};

/// Append `v` in decimal.
fn push_dec(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[at..]);
}

/// Append two hex digits per byte of `bytes`.
fn push_hex(out: &mut Vec<u8>, bytes: &[u8]) {
    for &b in bytes {
        out.extend_from_slice(&[HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]]);
    }
}

/// Parse the spelling [`push_dec`] writes: ASCII digits, no sign, no leading
/// zero, within `u64`.
fn dec_u64(s: &[u8]) -> Option<u64> {
    match s {
        [] | [b'0', _, ..] => None,
        _ => s.iter().try_fold(0u64, |acc, &b| {
            let d = b.wrapping_sub(b'0');
            (d < 10).then_some(())?;
            acc.checked_mul(10)?.checked_add(u64::from(d))
        }),
    }
}

/// Parse the spelling [`Section::put_f64`] writes: exactly 16 lowercase hex
/// digits.
fn dec_f64(s: &[u8]) -> Option<f64> {
    let s: &[u8; 16] = s.try_into().ok()?;
    let (mut bits, mut bad) = (0u64, 0u8);
    for &b in s {
        let n = NIBBLE[usize::from(b)];
        bad |= n;
        bits = bits << 4 | u64::from(n & 0xf);
    }
    (bad < 16).then(|| f64::from_bits(bits))
}

/// Parse the spelling [`push_hex`] writes, as UTF-8.
fn unhex_str(s: &[u8]) -> Option<String> {
    let (pairs, []) = s.as_chunks::<2>() else {
        return None;
    };
    let bytes = pairs
        .iter()
        .map(|&[hi, lo]| {
            let (hi, lo) = (NIBBLE[usize::from(hi)], NIBBLE[usize::from(lo)]);
            (hi | lo < 16).then_some(hi << 4 | lo)
        })
        .collect::<Option<Vec<u8>>>()?;
    String::from_utf8(bytes).ok()
}

/// The codec's output as a `String`: digits, tags and separators are ASCII
/// and every other piece was a `&str`.
fn utf8(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("the codec writes UTF-8")
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

    /// Store `tag` and then what `write` appends under `key`; `len` sizes
    /// the value's buffer.
    fn put_with(&mut self, key: &str, tag: &str, len: usize, write: impl FnOnce(&mut Vec<u8>)) {
        let mut v = Vec::with_capacity(tag.len() + len);
        v.extend_from_slice(tag.as_bytes());
        write(&mut v);
        self.fields.insert(key.to_string(), utf8(v));
    }

    /// Store `tag` and the 16 hex digits of each bit pattern in `vs`, `;`
    /// between: `17n - 1` bytes for `n` values, filled in place.
    fn put_bits(&mut self, key: &str, tag: &str, vs: &[f64]) {
        let len = (17 * vs.len()).saturating_sub(1);
        self.put_with(key, tag, len, |out| {
            let at = out.len();
            out.resize(at + len, b';');
            for (item, x) in out[at..].chunks_mut(17).zip(vs) {
                let bits = x.to_bits();
                for (i, d) in item[..16].iter_mut().enumerate() {
                    *d = HEX[(bits >> (60 - 4 * i)) as usize & 0xf];
                }
            }
        });
    }

    /// Store a `u64`.
    pub fn put_u64(&mut self, key: &str, v: u64) {
        self.put_with(key, "u:", 20, |out| push_dec(out, v));
    }

    /// Store an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, key: &str, v: f64) {
        self.put_bits(key, "f:", &[v]);
    }

    /// Store a `bool`.
    pub fn put_bool(&mut self, key: &str, v: bool) {
        self.put_with(key, "b:", 1, |out| out.push(b'0' + u8::from(v)));
    }

    /// Store a `u64` slice.
    pub fn put_u64s(&mut self, key: &str, vs: &[u64]) {
        self.put_with(key, "U:", 2 * vs.len(), |out| {
            for (i, &v) in vs.iter().enumerate() {
                if i > 0 {
                    out.push(b';');
                }
                push_dec(out, v);
            }
        });
    }

    /// Store an `f64` slice as exact bit patterns.
    pub fn put_f64s(&mut self, key: &str, vs: &[f64]) {
        self.put_bits(key, "F:", vs);
    }

    fn raw(&self, key: &str, prefix: char) -> Result<&str, CheckpointError> {
        let v = self
            .fields
            .get(key)
            .ok_or_else(|| CheckpointError::MissingField(format!("{}.{key}", self.id)))?;
        v.strip_prefix(prefix)
            .and_then(|rest| rest.strip_prefix(':'))
            .ok_or_else(|| self.bad(key))
    }

    /// The refusal of field `key`: `BadValue("<id>.<key>")`, the one
    /// spelling of a field error.
    pub fn bad(&self, key: &str) -> CheckpointError {
        CheckpointError::BadValue(format!("{}.{key}", self.id))
    }

    /// `Ok` when `holds`, else [`Section::bad`] on `key`: a restore's range,
    /// NaN, order and code checks.
    pub fn check(&self, key: &str, holds: bool) -> Result<(), CheckpointError> {
        if holds {
            Ok(())
        } else {
            Err(self.bad(key))
        }
    }

    /// Read a `u64`.
    pub fn get_u64(&self, key: &str) -> Result<u64, CheckpointError> {
        dec_u64(self.raw(key, 'u')?.as_bytes()).ok_or_else(|| self.bad(key))
    }

    /// Read an `f64` (bit-exact).
    pub fn get_f64(&self, key: &str) -> Result<f64, CheckpointError> {
        dec_f64(self.raw(key, 'f')?.as_bytes()).ok_or_else(|| self.bad(key))
    }

    /// Read a `u64` narrowed to its field's type (a `u32` streak, a `usize`
    /// capacity, a `u8` code); a value the type cannot hold is refused.
    pub fn get_as<T: TryFrom<u64>>(&self, key: &str) -> Result<T, CheckpointError> {
        T::try_from(self.get_u64(key)?).map_err(|_| self.bad(key))
    }

    /// Read a `bool`.
    pub(crate) fn get_bool(&self, key: &str) -> Result<bool, CheckpointError> {
        match self.raw(key, 'b')? {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(self.bad(key)),
        }
    }

    /// Read a `u64` list.
    pub(crate) fn get_u64s(&self, key: &str) -> Result<Vec<u64>, CheckpointError> {
        let body = self.raw(key, 'U')?.as_bytes();
        if body.is_empty() {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(1 + body.iter().filter(|&&b| b == b';').count());
        for item in body.split(|&b| b == b';') {
            out.push(dec_u64(item).ok_or_else(|| self.bad(key))?);
        }
        Ok(out)
    }

    /// Read a `u64` list of exactly `N` items.
    pub fn get_u64_array<const N: usize>(&self, key: &str) -> Result<[u64; N], CheckpointError> {
        self.get_u64s(key)?.try_into().map_err(|_| self.bad(key))
    }

    /// Read an `f64` list (bit-exact).
    pub fn get_f64s(&self, key: &str) -> Result<Vec<f64>, CheckpointError> {
        let body = self.raw(key, 'F')?.as_bytes();
        if body.is_empty() {
            return Ok(Vec::new());
        }
        // `n` values are `17n - 1` bytes: 16 digits each, `;` between.
        if !(body.len() + 1).is_multiple_of(17) {
            return Err(self.bad(key));
        }
        let mut out = Vec::with_capacity((body.len() + 1) / 17);
        for item in body.chunks(17) {
            let (digits, sep) = item.split_at(16);
            match (dec_f64(digits), sep) {
                (Some(x), [] | [b';']) => out.push(x),
                _ => return Err(self.bad(key)),
            }
        }
        Ok(out)
    }

    /// Read an `f64` list of exactly `n` items (bit-exact).
    pub fn get_f64s_len(&self, key: &str, n: usize) -> Result<Vec<f64>, CheckpointError> {
        let v = self.get_f64s(key)?;
        self.check(key, v.len() == n)?;
        Ok(v)
    }

    /// Append the section as one JSONL line.
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"type\":\"ckpt_section\",\"id\":\"");
        out.extend_from_slice(self.id.as_bytes());
        out.push(b'"');
        for (k, v) in &self.fields {
            out.extend_from_slice(b",\"");
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(b"\":\"");
            out.extend_from_slice(v.as_bytes());
            out.push(b'"');
        }
        out.extend_from_slice(b"}\n");
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
        // A size hint: the values dominate, the per-line overhead is a guess.
        let fields = self.sections.iter().flat_map(|s| &s.fields);
        let len: usize = fields.map(|(k, v)| k.len() + v.len() + 6).sum();
        let mut out = Vec::with_capacity(len + 64 * (1 + self.sections.len()));
        out.extend_from_slice(b"{\"type\":\"ckpt_meta\",\"version\":");
        push_dec(&mut out, u64::from(self.version));
        out.extend_from_slice(b",\"name\":\"");
        push_hex(&mut out, self.name.as_bytes());
        out.extend_from_slice(b"\",\"sections\":");
        push_dec(&mut out, self.sections.len() as u64);
        out.extend_from_slice(b"}\n");
        for s in &self.sections {
            s.write_json(&mut out);
        }
        utf8(out)
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
        let version = field(&fields, "version")
            .and_then(|v| dec_u64(v.as_bytes()))
            .ok_or(CheckpointError::BadHeader)?;
        if version != CHECKPOINT_VERSION as u64 {
            return Err(CheckpointError::BadVersion(version));
        }
        let name = str_field(&fields, "name")
            .and_then(|v| unhex_str(v.as_bytes()))
            .ok_or(CheckpointError::BadHeader)?;
        let expected = field(&fields, "sections")
            .and_then(|v| usize::try_from(dec_u64(v.as_bytes())?).ok())
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
    ///
    /// Each section restores whole or not at all, but the runner does not
    /// roll back: on `Err` the sections before the refused one are already
    /// restored, so restore a good checkpoint before ticking it again.
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

/// Read back an `Option<V: StateVec>` written by [`put_opt_state`]. An
/// absent value carries the empty list the writer emits, nothing else.
pub fn get_opt_state<V: StateVec>(
    section: &Section,
    key: &str,
) -> Result<Option<V>, CheckpointError> {
    let some = section.get_bool(&format!("{key}_some"))?;
    let words = section.get_f64s(key)?;
    if !some {
        return section.check(key, words.is_empty()).map(|()| None);
    }
    V::from_state(&words)
        .map(Some)
        .ok_or_else(|| section.bad(key))
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

    /// An absent value is the empty list `put_opt_state` writes: a payload
    /// beside `_some: 0` would restore the same `None` as the writer's
    /// document, so it is refused.
    #[test]
    fn an_absent_opt_state_with_a_payload_is_bad_value() {
        let mut s = Section::new("opt");
        s.put_bool("held_some", false);
        s.put_f64s("held", &[1.0]);
        assert_eq!(
            get_opt_state::<f64>(&s, "held"),
            Err(CheckpointError::BadValue("opt.held".into()))
        );
        s.put_f64s("held", &[]);
        assert_eq!(get_opt_state::<f64>(&s, "held"), Ok(None));
    }

    /// The checked reads refuse what their field's type cannot hold, as
    /// `BadValue("<id>.<key>")`, and a missing field as `MissingField`.
    #[test]
    fn checked_reads_refuse_on_the_field_s_key() {
        let mut s = Section::new("sec");
        s.put_u64("wide", 1 << 32);
        s.put_u64s("words", &[1, 2, 3]);
        s.put_f64s("row", &[0.5, -0.0]);
        fn bad<T>(key: &str) -> Result<T, CheckpointError> {
            Err(CheckpointError::BadValue(format!("sec.{key}")))
        }
        assert_eq!(s.get_as::<u32>("wide"), bad("wide"));
        assert_eq!(s.get_as::<u64>("wide"), Ok(1 << 32));
        assert_eq!(s.get_u64_array::<4>("words"), bad("words"));
        assert_eq!(s.get_u64_array("words"), Ok([1, 2, 3]));
        assert_eq!(s.get_f64s_len("row", 3), bad("row"));
        assert_eq!(s.get_f64s_len("row", 2).map(|v| v.len()), Ok(2));
        assert_eq!(s.check("row", false), bad("row"));
        assert_eq!(s.check("row", true), Ok(()));
        assert_eq!(
            s.get_as::<u8>("gone"),
            Err(CheckpointError::MissingField("sec.gone".into()))
        );
    }

    /// The codec as it was before it wrote into one buffer and parsed byte
    /// slices: per-element `format!`, `Vec<String>` joins, `str::parse` and
    /// `from_str_radix`. The differential tests below hold the codec to it.
    mod oracle {
        use super::super::Section;

        pub(super) fn hex_str(bytes: &[u8]) -> String {
            let mut out = String::with_capacity(bytes.len() * 2);
            for b in bytes {
                out.push_str(&format!("{b:02x}"));
            }
            out
        }

        pub(super) fn unhex_str(s: &str) -> Option<String> {
            if !s.len().is_multiple_of(2) {
                return None;
            }
            let mut bytes = Vec::with_capacity(s.len() / 2);
            for i in (0..s.len()).step_by(2) {
                bytes.push(u8::from_str_radix(s.get(i..i + 2)?, 16).ok()?);
            }
            String::from_utf8(bytes).ok()
        }

        pub(super) fn enc_f64(x: f64) -> String {
            format!("{:016x}", x.to_bits())
        }

        pub(super) fn dec_f64(s: &str) -> Option<f64> {
            (s.len() == 16)
                .then(|| u64::from_str_radix(s, 16).ok().map(f64::from_bits))
                .flatten()
        }

        pub(super) fn put_u64s(vs: &[u64]) -> String {
            let body: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
            format!("U:{}", body.join(";"))
        }

        pub(super) fn put_f64s(vs: &[f64]) -> String {
            let body: Vec<String> = vs.iter().map(|v| enc_f64(*v)).collect();
            format!("F:{}", body.join(";"))
        }

        pub(super) fn get_u64s(body: &str) -> Option<Vec<u64>> {
            if body.is_empty() {
                return Some(Vec::new());
            }
            body.split(';').map(|p| p.parse().ok()).collect()
        }

        pub(super) fn get_f64s(body: &str) -> Option<Vec<u64>> {
            if body.is_empty() {
                return Some(Vec::new());
            }
            body.split(';')
                .map(|p| dec_f64(p).map(f64::to_bits))
                .collect()
        }

        pub(super) fn to_json(s: &Section) -> String {
            let mut line = format!("{{\"type\":\"ckpt_section\",\"id\":\"{}\"", s.id);
            for (k, v) in &s.fields {
                line.push_str(&format!(",\"{k}\":\"{v}\""));
            }
            line.push('}');
            line
        }
    }

    /// ±0, subnormals, ±∞, quiet and signalling NaNs with payloads, both
    /// signs.
    const HOSTILE_BITS: [u64; 12] = [
        0x0000_0000_0000_0000,
        0x8000_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x800f_ffff_ffff_ffff,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x7ff8_0000_0000_0000,
        0xfff8_0000_dead_beef,
        0x7ff0_0000_0000_0001,
        0xfff4_0000_0000_0042,
        0x3ff0_0000_0000_0000,
        0xffff_ffff_ffff_ffff,
    ];

    /// Seeded `u64` and `f64` vectors of every length the differential
    /// covers, hostile values mixed in.
    fn differential_vectors() -> Vec<(Vec<u64>, Vec<f64>)> {
        let mut rng = sensact_math::rng::StdRng::seed_from_u64(0xC0DEC);
        [0usize, 1, 2, 255, 4096]
            .into_iter()
            .map(|len| {
                let us = (0..len)
                    .map(|i| match rng.next_u64() % 4 {
                        0 => rng.next_u64(),
                        1 => rng.next_u64() % 1000,
                        2 => 10u64.pow((i % 20) as u32) - (i % 2) as u64,
                        _ => [0, u64::MAX, 9, 10][i % 4],
                    })
                    .collect();
                let fs = (0..len)
                    .map(|i| match rng.next_u64() % 3 {
                        0 => f64::from_bits(rng.next_u64()),
                        1 => f64::from_bits(HOSTILE_BITS[i % HOSTILE_BITS.len()]),
                        _ => (rng.next_u64() % 2001) as f64 / 7.0 - 100.0,
                    })
                    .collect();
                (us, fs)
            })
            .collect()
    }

    /// A version-1 header line naming `name` (hex, as written) and promising
    /// `sections` lines.
    fn header(name: &str, sections: usize) -> String {
        format!(
            "{{\"type\":\"ckpt_meta\",\"version\":1,\"name\":\"{name}\",\"sections\":{sections}}}\n"
        )
    }

    fn raw_section(key: &str, value: &str) -> Section {
        let mut s = Section::new("x");
        s.fields.insert(key.to_string(), value.to_string());
        s
    }

    #[test]
    fn writers_are_byte_identical_to_the_oracle() {
        let mut ckpt = Checkpoint::new("oracle \u{e9}\"{}");
        for (i, (us, fs)) in differential_vectors().into_iter().enumerate() {
            let mut s = Section::new(format!("s{i}"));
            s.put_u64s("us", &us);
            s.put_f64s("fs", &fs);
            assert_eq!(s.fields["us"], oracle::put_u64s(&us), "len {}", us.len());
            assert_eq!(s.fields["fs"], oracle::put_f64s(&fs), "len {}", fs.len());
            for (j, (&u, &f)) in us.iter().zip(&fs).take(64).enumerate() {
                s.put_u64(&format!("u{j}"), u);
                s.put_f64(&format!("f{j}"), f);
                assert_eq!(s.fields[&format!("u{j}")], format!("u:{u}"));
                assert_eq!(
                    s.fields[&format!("f{j}")],
                    format!("f:{}", oracle::enc_f64(f))
                );
            }
            ckpt.push(s);
        }
        for text in ["", "a", "loop \u{e9}\u{1F980}", "\0\u{7f}\"{}"] {
            assert_eq!(
                Checkpoint::new(text).to_jsonl(),
                header(&oracle::hex_str(text.as_bytes()), 0)
            );
        }
        let mut expected = header(&oracle::hex_str(ckpt.name.as_bytes()), ckpt.sections.len());
        for s in &ckpt.sections {
            expected.push_str(&oracle::to_json(s));
            expected.push('\n');
        }
        assert_eq!(ckpt.to_jsonl(), expected);
    }

    /// Strings the writer never emits, on which the two readers agree.
    const HOSTILE_U: [&str; 14] = [
        ";",
        ";;",
        "1;",
        ";1",
        "1;;2",
        "18446744073709551616",
        "99999999999999999999",
        "-1",
        " 1",
        "1 ",
        "0x1",
        "\u{ff11}",
        "1;\u{e9}",
        "1.0",
    ];
    const HOSTILE_F: [&str; 10] = [
        ";;",
        "3ff0000000000000;",
        ";3ff0000000000000",
        "3ff000000000000",
        "3ff00000000000000",
        "3ff000000000000g",
        "3ff0000000000000;;3ff0000000000000",
        "3ff00000000000\u{e9}",
        "-ff0000000000000",
        " 3ff000000000000",
    ];
    const HOSTILE_S: [&str; 7] = ["0", "zz", "\u{e9}", "ff", "c3", "6", "6g"];

    /// The only strings on which the readers differ: the oracle read a
    /// leading `+`, leading decimal zeros and uppercase hex as aliases of
    /// the canonical spelling; the codec refuses them.
    const ALIAS_U: [&str; 5] = ["+5", "05", "00", "1;+2", "1;02"];
    const ALIAS_F: [&str; 3] = [
        "+00000000000000f",
        "3FF0000000000000",
        "3ff0000000000000;7FF8000000000000",
    ];
    const ALIAS_S: [&str; 3] = ["+f", "4A", "6f6B"];

    #[test]
    fn readers_match_the_oracle_except_on_aliases() {
        let u64s = |body: &str| raw_section("k", &format!("U:{body}")).get_u64s("k").ok();
        let f64s = |body: &str| {
            raw_section("k", &format!("F:{body}"))
                .get_f64s("k")
                .ok()
                .map(|v| v.into_iter().map(f64::to_bits).collect::<Vec<_>>())
        };
        let name = |body: &str| {
            Checkpoint::from_jsonl(&header(body, 0))
                .ok()
                .map(|c| c.name)
        };
        let u64_ = |body: &str| raw_section("k", &format!("u:{body}")).get_u64("k").ok();
        let f64_ = |body: &str| {
            raw_section("k", &format!("f:{body}"))
                .get_f64("k")
                .ok()
                .map(f64::to_bits)
        };
        for (us, fs) in differential_vectors() {
            let s = oracle::put_u64s(&us);
            let body = &s[2..];
            assert_eq!(u64s(body), oracle::get_u64s(body));
            assert_eq!(u64s(body), Some(us.clone()));
            let s = oracle::put_f64s(&fs);
            let body = &s[2..];
            assert_eq!(f64s(body), oracle::get_f64s(body));
            for (&u, &f) in us.iter().zip(&fs).take(64) {
                assert_eq!(u64_(&u.to_string()), Some(u));
                assert_eq!(f64_(&oracle::enc_f64(f)), Some(f.to_bits()));
            }
        }
        for body in ["", "0", "a", "00ff"] {
            assert_eq!(
                name(&oracle::hex_str(body.as_bytes())).as_deref(),
                Some(body)
            );
        }
        for body in HOSTILE_U.into_iter().chain([""]) {
            assert_eq!(u64s(body), oracle::get_u64s(body), "U:{body}");
            assert_eq!(u64_(body), body.parse().ok(), "u:{body}");
        }
        for body in HOSTILE_F.into_iter().chain([""]) {
            assert_eq!(f64s(body), oracle::get_f64s(body), "F:{body}");
            assert_eq!(
                f64_(body),
                oracle::dec_f64(body).map(f64::to_bits),
                "f:{body}"
            );
        }
        for body in HOSTILE_S.into_iter().chain([""]) {
            assert_eq!(name(body), oracle::unhex_str(body), "name {body}");
        }
        for body in ALIAS_U {
            assert!(
                oracle::get_u64s(body).is_some() && u64s(body).is_none(),
                "U:{body}"
            );
        }
        for body in ALIAS_F {
            assert!(
                oracle::get_f64s(body).is_some() && f64s(body).is_none(),
                "F:{body}"
            );
        }
        for body in ALIAS_S {
            assert!(
                oracle::unhex_str(body).is_some() && name(body).is_none(),
                "name {body}"
            );
        }
    }

    #[test]
    fn a_signed_or_zero_padded_decimal_is_bad_value() {
        for value in ["u:+5", "u:05", "u:00"] {
            assert_eq!(
                raw_section("n", value).get_u64("n"),
                Err(CheckpointError::BadValue("x.n".into())),
                "{value}"
            );
        }
        for value in ["U:1;+5", "U:05;1"] {
            assert_eq!(
                raw_section("n", value).get_u64s("n"),
                Err(CheckpointError::BadValue("x.n".into())),
                "{value}"
            );
        }
    }

    #[test]
    fn a_signed_or_uppercase_hex_float_is_bad_value() {
        for value in ["f:+00000000000000f", "f:3FF0000000000000"] {
            assert_eq!(
                raw_section("v", value).get_f64("v"),
                Err(CheckpointError::BadValue("x.v".into())),
                "{value}"
            );
        }
        for value in ["F:+00000000000000f", "F:0000000000000000;7FF8000000000000"] {
            assert_eq!(
                raw_section("v", value).get_f64s("v"),
                Err(CheckpointError::BadValue("x.v".into())),
                "{value}"
            );
        }
    }

    #[test]
    fn a_signed_or_uppercase_hex_name_is_bad_header() {
        for name in ["+f", "4A", "6f6B"] {
            assert_eq!(
                Checkpoint::from_jsonl(&header(name, 0)),
                Err(CheckpointError::BadHeader),
                "{name}"
            );
        }
    }

    #[test]
    fn a_non_canonical_header_count_is_bad_header() {
        for (version, sections) in [("+1", "0"), ("01", "0"), ("1", "+0"), ("1", "00")] {
            let doc = format!(
                "{{\"type\":\"ckpt_meta\",\"version\":{version},\"name\":\"\",\"sections\":{sections}}}\n"
            );
            assert_eq!(
                Checkpoint::from_jsonl(&doc),
                Err(CheckpointError::BadHeader),
                "{doc}"
            );
        }
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
