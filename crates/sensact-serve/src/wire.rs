//! Length-prefixed binary wire protocol for the serving front-end.
//!
//! Every frame is `[0xA5][kind: u8][len: u32 LE][payload: len bytes]` —
//! six bytes of header, then a fixed- or variable-length payload whose
//! shape is determined by `kind`. Floats travel as IEEE-754 bit patterns
//! (`f64::to_bits`, little-endian), so an action crosses the wire
//! bit-exactly and a client can replay-verify against a local recording.
//! A value vector converts as one slice pass: decode maps
//! `chunks_exact(8)` through `f64::from_le_bytes`, encode reserves
//! `8 · len` bytes once and appends each `f64::to_le_bytes`. Fixed fields
//! convert from fixed-size arrays the same way. Nothing is reinterpreted in
//! place, so there is no `unsafe` and the bytes are the same on a
//! big-endian host.
//!
//! The decoder is **incremental** and **total**: [`decode`] returns
//! `Ok(None)` when the buffer holds only a frame prefix (read more bytes),
//! `Ok(Some((frame, consumed)))` on a complete frame, and a typed
//! [`WireError`] on any malformed input — it never panics, whatever the
//! bytes (property-tested over every truncation and every single-byte
//! corruption of every frame kind).

use std::fmt;

/// First byte of every binary frame — also the byte the server sniffs to
/// tell the binary protocol from HTTP (no HTTP method starts with `0xA5`).
pub(crate) const MAGIC: u8 = 0xA5;

/// Frame header length: magic, kind, `u32` payload length.
pub(crate) const HEADER_LEN: usize = 6;

/// Upper bound on a frame payload; a hostile length prefix larger than
/// this is rejected before any allocation happens.
pub(crate) const MAX_PAYLOAD: usize = 1 << 20;

/// Protocol-level error codes carried by [`Frame::Error`].
pub mod code {
    /// The lease id is unknown (never granted, expired, or released).
    pub(crate) const UNKNOWN_LEASE: u16 = 1;
    /// Observation vector length does not match the leased model.
    pub(crate) const BAD_OBS_LEN: u16 = 2;
    /// The model id in a lease request is not served here.
    pub(crate) const UNKNOWN_MODEL: u16 = 3;
    /// The frame was well-formed but meaningless in this state.
    pub(crate) const PROTOCOL: u16 = 4;
}

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: lease one loop of `model` (see
    /// [`ModelKind`](crate::model::ModelKind) discriminants), personalised
    /// by `seed`.
    LeaseReq {
        /// Model discriminant to lease.
        model: u8,
        /// Personalisation seed for the leased controller.
        seed: u64,
    },
    /// Server → client: lease granted; stream observations of `obs_len`
    /// floats, actions come back with `act_len` floats.
    LeaseGrant {
        /// The granted lease id.
        lease: u64,
        /// Observation vector length (floats).
        obs_len: u32,
        /// Action vector length (floats).
        act_len: u32,
    },
    /// Server → client: admission control rejected the lease; retry after
    /// the given backoff.
    LeaseReject {
        /// Backoff hint (milliseconds).
        retry_after_ms: u32,
    },
    /// Client → server: one observation for `lease`, client-sequenced.
    Obs {
        /// The lease the observation belongs to.
        lease: u64,
        /// Client sequence number, echoed back on the reply.
        seq: u64,
        /// The observation vector.
        values: Vec<f64>,
    },
    /// Server → client: the action computed for observation `seq`, plus
    /// the tick's charged telemetry.
    Act {
        /// The lease the action belongs to.
        lease: u64,
        /// Echo of the observation's sequence number.
        seq: u64,
        /// Client-visible response time (virtual seconds, queueing
        /// included).
        latency_s: f64,
        /// Charged energy of the tick (joules).
        energy_j: f64,
        /// The action vector, bit-exact.
        values: Vec<f64>,
    },
    /// Server → client: observation `seq` was shed — the pending-tick
    /// arithmetic says its deadline is unmeetable; retry after backoff.
    Shed {
        /// The lease the shed observation belonged to.
        lease: u64,
        /// Echo of the observation's sequence number.
        seq: u64,
        /// Backoff hint (milliseconds).
        retry_after_ms: u32,
    },
    /// Client → server: keep `lease` alive without sending an observation.
    Heartbeat {
        /// The lease to keep alive.
        lease: u64,
    },
    /// Client → server: release `lease`.
    Release {
        /// The lease to release.
        lease: u64,
    },
    /// Server → client: lease released after `ticks` completed ticks.
    Released {
        /// The released lease id.
        lease: u64,
        /// Ticks the lease completed over its lifetime.
        ticks: u64,
    },
    /// Server → client: a typed protocol error (see [`code`]).
    Error {
        /// Error code (see [`code`]).
        code: u16,
        /// Human-readable detail.
        message: String,
    },
}

impl Frame {
    /// Wire discriminant of the frame kind.
    pub(crate) fn kind(&self) -> u8 {
        match self {
            Frame::LeaseReq { .. } => 0x01,
            Frame::LeaseGrant { .. } => 0x02,
            Frame::LeaseReject { .. } => 0x03,
            Frame::Obs { .. } => 0x04,
            Frame::Act { .. } => 0x05,
            Frame::Shed { .. } => 0x06,
            Frame::Heartbeat { .. } => 0x07,
            Frame::Release { .. } => 0x08,
            Frame::Released { .. } => 0x09,
            Frame::Error { .. } => 0x0A,
        }
    }
}

/// Typed decode failure. Every variant is a *protocol* fault — an
/// incomplete frame is not an error (see [`decode`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// First byte of a frame was not `MAGIC`.
    BadMagic(u8),
    /// Unknown frame kind discriminant.
    BadKind(u8),
    /// Length prefix exceeds `MAX_PAYLOAD`.
    Oversize {
        /// The claimed payload length.
        len: usize,
        /// The allowed maximum.
        max: usize,
    },
    /// Payload length is impossible for this frame kind (wrong fixed size,
    /// or a float section that is not a multiple of 8).
    BadLength {
        /// The frame kind discriminant.
        kind: u8,
        /// The claimed payload length.
        len: usize,
    },
    /// An [`Frame::Error`] message was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(b) => write!(f, "bad frame magic 0x{b:02X}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind 0x{k:02X}"),
            WireError::Oversize { len, max } => {
                write!(f, "frame payload {len} exceeds maximum {max}")
            }
            WireError::BadLength { kind, len } => {
                write!(
                    f,
                    "payload length {len} invalid for frame kind 0x{kind:02X}"
                )
            }
            WireError::BadUtf8 => write!(f, "error message is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    out.reserve(8 * vs.len());
    for v in vs {
        put_f64(out, *v);
    }
}

/// The `N` bytes of `p` at `at`. Every caller reads inside bytes whose
/// length [`decode`] has already checked (the header, or a payload
/// validated for its kind).
fn bytes<const N: usize>(p: &[u8], at: usize) -> [u8; N] {
    p[at..at + N].try_into().expect("length checked by decode")
}

fn get_u16(p: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(bytes(p, at))
}

fn get_u32(p: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes(p, at))
}

fn get_u64(p: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes(p, at))
}

fn get_f64(p: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(bytes(p, at))
}

/// One slice pass: a length that is not a multiple of 8 never reaches here
/// ([`decode`] answers it with [`WireError::BadLength`]).
fn get_f64s(p: &[u8]) -> Vec<f64> {
    p.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
        .collect()
}

/// Append the encoded `frame` to `out`. Total: any frame round-trips
/// through [`decode`] bit-exactly.
pub fn encode(frame: &Frame, out: &mut Vec<u8>) {
    out.push(MAGIC);
    out.push(frame.kind());
    let len_at = out.len();
    put_u32(out, 0);
    match frame {
        Frame::LeaseReq { model, seed } => {
            out.push(*model);
            put_u64(out, *seed);
        }
        Frame::LeaseGrant {
            lease,
            obs_len,
            act_len,
        } => {
            put_u64(out, *lease);
            put_u32(out, *obs_len);
            put_u32(out, *act_len);
        }
        Frame::LeaseReject { retry_after_ms } => put_u32(out, *retry_after_ms),
        Frame::Obs { lease, seq, values } => {
            put_u64(out, *lease);
            put_u64(out, *seq);
            put_f64s(out, values);
        }
        Frame::Act {
            lease,
            seq,
            latency_s,
            energy_j,
            values,
        } => {
            put_u64(out, *lease);
            put_u64(out, *seq);
            put_f64(out, *latency_s);
            put_f64(out, *energy_j);
            put_f64s(out, values);
        }
        Frame::Shed {
            lease,
            seq,
            retry_after_ms,
        } => {
            put_u64(out, *lease);
            put_u64(out, *seq);
            put_u32(out, *retry_after_ms);
        }
        Frame::Heartbeat { lease } => put_u64(out, *lease),
        Frame::Release { lease } => put_u64(out, *lease),
        Frame::Released { lease, ticks } => {
            put_u64(out, *lease);
            put_u64(out, *ticks);
        }
        Frame::Error { code, message } => {
            out.extend_from_slice(&code.to_le_bytes());
            out.extend_from_slice(message.as_bytes());
        }
    }
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encode `frame` into a fresh buffer.
pub fn encode_to_vec(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode(frame, &mut out);
    out
}

/// Incrementally decode one frame from the front of `buf`.
///
/// - `Ok(None)` — `buf` holds only a prefix of a frame; read more bytes.
/// - `Ok(Some((frame, consumed)))` — a complete frame; drop `consumed`
///   bytes and call again for pipelined frames.
/// - `Err(_)` — the bytes can never become a valid frame; close the
///   connection (the stream is framing-corrupt, resynchronisation is not
///   attempted).
pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf[0] != MAGIC {
        return Err(WireError::BadMagic(buf[0]));
    }
    if buf.len() < 2 {
        return Ok(None);
    }
    let kind = buf[1];
    if !(0x01..=0x0A).contains(&kind) {
        return Err(WireError::BadKind(kind));
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = get_u32(buf, 2) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversize {
            len,
            max: MAX_PAYLOAD,
        });
    }
    // Validate the length against the kind's shape *before* waiting for the
    // payload, so a hostile prefix fails fast instead of stalling the read.
    let bad = || WireError::BadLength { kind, len };
    match kind {
        0x01 => (len == 9).then_some(()).ok_or_else(bad)?,
        0x02 | 0x09 => (len == 16).then_some(()).ok_or_else(bad)?,
        0x03 => (len == 4).then_some(()).ok_or_else(bad)?,
        0x04 => (len >= 16 && (len - 16).is_multiple_of(8))
            .then_some(())
            .ok_or_else(bad)?,
        0x05 => (len >= 32 && (len - 32).is_multiple_of(8))
            .then_some(())
            .ok_or_else(bad)?,
        0x06 => (len == 20).then_some(()).ok_or_else(bad)?,
        0x07 | 0x08 => (len == 8).then_some(()).ok_or_else(bad)?,
        0x0A => (len >= 2).then_some(()).ok_or_else(bad)?,
        _ => unreachable!("kind range checked above"),
    }
    if buf.len() < HEADER_LEN + len {
        return Ok(None);
    }
    let p = &buf[HEADER_LEN..HEADER_LEN + len];
    let frame = match kind {
        0x01 => Frame::LeaseReq {
            model: p[0],
            seed: get_u64(p, 1),
        },
        0x02 => Frame::LeaseGrant {
            lease: get_u64(p, 0),
            obs_len: get_u32(p, 8),
            act_len: get_u32(p, 12),
        },
        0x03 => Frame::LeaseReject {
            retry_after_ms: get_u32(p, 0),
        },
        0x04 => Frame::Obs {
            lease: get_u64(p, 0),
            seq: get_u64(p, 8),
            values: get_f64s(&p[16..]),
        },
        0x05 => Frame::Act {
            lease: get_u64(p, 0),
            seq: get_u64(p, 8),
            latency_s: get_f64(p, 16),
            energy_j: get_f64(p, 24),
            values: get_f64s(&p[32..]),
        },
        0x06 => Frame::Shed {
            lease: get_u64(p, 0),
            seq: get_u64(p, 8),
            retry_after_ms: get_u32(p, 16),
        },
        0x07 => Frame::Heartbeat {
            lease: get_u64(p, 0),
        },
        0x08 => Frame::Release {
            lease: get_u64(p, 0),
        },
        0x09 => Frame::Released {
            lease: get_u64(p, 0),
            ticks: get_u64(p, 8),
        },
        0x0A => Frame::Error {
            code: get_u16(p, 0),
            message: String::from_utf8(p[2..].to_vec()).map_err(|_| WireError::BadUtf8)?,
        },
        _ => unreachable!("kind range checked above"),
    };
    Ok(Some((frame, HEADER_LEN + len)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensact_math::rng::StdRng;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::LeaseReq {
                model: 0,
                seed: 0xDEAD_BEEF_u64,
            },
            Frame::LeaseGrant {
                lease: 7,
                obs_len: 512,
                act_len: 4,
            },
            Frame::LeaseReject {
                retry_after_ms: 250,
            },
            Frame::Obs {
                lease: 7,
                seq: 3,
                values: vec![1.5, -0.0, f64::NAN, f64::INFINITY, 1e-308],
            },
            Frame::Obs {
                lease: 1,
                seq: 0,
                values: vec![],
            },
            Frame::Act {
                lease: 7,
                seq: 3,
                latency_s: 2e-5,
                energy_j: 5e-6,
                values: vec![0.25, -3.75],
            },
            Frame::Shed {
                lease: 7,
                seq: 4,
                retry_after_ms: 10,
            },
            Frame::Heartbeat { lease: 7 },
            Frame::Release { lease: 7 },
            Frame::Released {
                lease: 7,
                ticks: 42,
            },
            Frame::Error {
                code: code::UNKNOWN_LEASE,
                message: "lease 9 unknown".into(),
            },
            Frame::Error {
                code: code::PROTOCOL,
                message: String::new(),
            },
        ]
    }

    #[test]
    fn frames_round_trip_bit_exactly() {
        for frame in sample_frames() {
            let bytes = encode_to_vec(&frame);
            let (got, used) = decode(&bytes).unwrap().expect("complete frame");
            assert_eq!(used, bytes.len());
            // PartialEq is false for NaN; compare through the bit patterns.
            assert_eq!(encode_to_vec(&got), bytes, "{frame:?}");
        }
    }

    #[test]
    fn pipelined_frames_decode_in_sequence() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            encode(f, &mut stream);
        }
        let mut at = 0;
        let mut got = Vec::new();
        while let Some((f, used)) = decode(&stream[at..]).unwrap() {
            got.push(f);
            at += used;
        }
        assert_eq!(at, stream.len());
        assert_eq!(got.len(), frames.len());
        for (g, f) in got.iter().zip(&frames) {
            assert_eq!(encode_to_vec(g), encode_to_vec(f));
        }
    }

    /// Satellite: every prefix of every frame either asks for more bytes or
    /// decodes the complete frame — truncation can never panic or
    /// mis-decode.
    #[test]
    fn every_truncation_is_incomplete_never_a_panic() {
        for frame in sample_frames() {
            let bytes = encode_to_vec(&frame);
            for cut in 0..bytes.len() {
                match decode(&bytes[..cut]) {
                    Ok(None) => {}
                    Ok(Some((_, used))) => {
                        panic!("decoded a frame from a {cut}-byte prefix (used {used})")
                    }
                    Err(e) => panic!("typed error {e} from truncation at {cut} of {frame:?}"),
                }
            }
        }
    }

    /// Satellite: flip every byte of every frame through several XOR masks
    /// — decode must return a typed error, an incomplete, or a different
    /// (still well-formed) frame; it must never panic.
    #[test]
    fn every_single_byte_corruption_is_handled() {
        for frame in sample_frames() {
            let bytes = encode_to_vec(&frame);
            for i in 0..bytes.len() {
                for mask in [0x01u8, 0x80, 0xFF] {
                    let mut evil = bytes.clone();
                    evil[i] ^= mask;
                    match decode(&evil) {
                        Ok(None) | Err(_) => {}
                        Ok(Some((f, used))) => {
                            assert!(used <= evil.len(), "consumed past the buffer");
                            // Re-encoding must stay internally consistent.
                            let _ = encode_to_vec(&f);
                        }
                    }
                }
            }
        }
    }

    /// Satellite: random byte soup — decode never panics and never consumes
    /// more bytes than it was given.
    #[test]
    fn random_garbage_never_panics() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for _ in 0..2000 {
            let len = (rng.next_u64() % 96) as usize;
            let buf: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
            if let Ok(Some((_, used))) = decode(&buf) {
                assert!(used <= buf.len());
            }
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        // A 4 GiB length prefix on an Obs frame.
        let mut buf = vec![MAGIC, 0x04];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&buf), Err(WireError::Oversize { .. })));
        // An impossible fixed length fails fast without the payload.
        let mut buf = vec![MAGIC, 0x07];
        buf.extend_from_slice(&9u32.to_le_bytes());
        assert_eq!(
            decode(&buf),
            Err(WireError::BadLength { kind: 0x07, len: 9 })
        );
    }

    /// The decoder as it was before it converted slices: every `u64`
    /// assembled from eight indexed bytes. The differential below holds
    /// [`decode`] to it.
    mod oracle {
        pub fn get_u64(b: &[u8]) -> u64 {
            u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
        }

        pub fn get_f64(b: &[u8]) -> f64 {
            f64::from_bits(get_u64(b))
        }

        pub fn get_f64s(b: &[u8]) -> Vec<f64> {
            b.chunks_exact(8).map(get_f64).collect()
        }
    }

    fn bits(vs: &[f64]) -> Vec<u64> {
        vs.iter().map(|v| v.to_bits()).collect()
    }

    /// ±0, subnormals, ±∞, quiet and signalling NaNs with payloads, both
    /// signs.
    const FLOAT_CLASSES: [u64; 12] = [
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
        0x7ff7_ffff_ffff_ffff,
        0xffff_ffff_ffff_ffff,
    ];

    #[test]
    fn every_float_class_round_trips_at_every_length() {
        for class in FLOAT_CLASSES {
            let x = f64::from_bits(class);
            for len in [0usize, 1, 7, 8, 9, 512] {
                // One class throughout, then every class interleaved.
                let mixed: Vec<f64> = (0..len)
                    .map(|i| f64::from_bits(FLOAT_CLASSES[i % FLOAT_CLASSES.len()]))
                    .collect();
                for values in [vec![x; len], mixed] {
                    let frames = [
                        Frame::Obs {
                            lease: class,
                            seq: len as u64,
                            values: values.clone(),
                        },
                        Frame::Act {
                            lease: class,
                            seq: len as u64,
                            latency_s: x,
                            energy_j: -x,
                            values: values.clone(),
                        },
                    ];
                    for frame in frames {
                        let bytes = encode_to_vec(&frame);
                        let (got, used) = decode(&bytes).unwrap().expect("complete frame");
                        assert_eq!(used, bytes.len());
                        match got {
                            Frame::Obs { values: got, .. } => assert_eq!(bits(&got), bits(&values)),
                            Frame::Act {
                                latency_s,
                                energy_j,
                                values: got,
                                ..
                            } => {
                                assert_eq!(latency_s.to_bits(), class);
                                assert_eq!(energy_j.to_bits(), (-x).to_bits());
                                assert_eq!(bits(&got), bits(&values));
                            }
                            other => panic!("{other:?}"),
                        }
                    }
                }
            }
        }
    }

    /// Seeded random payloads under every frame kind, lengths that are not a
    /// multiple of 8 included: each decodes to the oracle's values and
    /// re-encodes to the input bytes, or is refused as before.
    #[test]
    fn decode_matches_the_byte_assembly_oracle_on_random_payloads() {
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        let (mut floats, mut refused) = (0, 0);
        for _ in 0..4000 {
            let kind = 1 + (rng.next_u64() % 10) as u8;
            let fixed = [9usize, 16, 4, 16, 32, 20, 8, 8, 16, 2][kind as usize - 1];
            let len = match rng.next_u64() % 4 {
                0 => fixed + (rng.next_u64() % 80) as usize,
                _ => fixed + 8 * (rng.next_u64() % 70) as usize,
            };
            let mut buf = vec![MAGIC, kind];
            buf.extend_from_slice(&(len as u32).to_le_bytes());
            buf.extend((0..len).map(|_| (rng.next_u64() & 0xFF) as u8));
            let p = &buf[HEADER_LEN..];
            match decode(&buf) {
                Ok(Some((frame, used))) => {
                    assert_eq!(used, buf.len());
                    assert_eq!(encode_to_vec(&frame), buf, "{frame:?}");
                    match frame {
                        Frame::Obs { lease, seq, values } => {
                            assert_eq!(
                                (lease, seq),
                                (oracle::get_u64(p), oracle::get_u64(&p[8..]))
                            );
                            assert_eq!(bits(&values), bits(&oracle::get_f64s(&p[16..])));
                            floats += values.len();
                        }
                        Frame::Act {
                            latency_s,
                            energy_j,
                            values,
                            ..
                        } => {
                            assert_eq!(latency_s.to_bits(), oracle::get_f64(&p[16..]).to_bits());
                            assert_eq!(energy_j.to_bits(), oracle::get_f64(&p[24..]).to_bits());
                            assert_eq!(bits(&values), bits(&oracle::get_f64s(&p[32..])));
                            floats += values.len();
                        }
                        _ => {}
                    }
                }
                Ok(None) => panic!("a complete buffer asked for more bytes"),
                Err(WireError::BadUtf8) => assert_eq!(kind, 0x0A),
                Err(e) => {
                    assert_eq!(e, WireError::BadLength { kind, len });
                    let multiple = matches!(kind, 0x04 | 0x05) && (len - fixed).is_multiple_of(8);
                    assert!(len != fixed && !multiple, "refused a valid length: {e}");
                    refused += 1;
                }
            }
        }
        assert!(
            floats > 10_000 && refused > 500,
            "{floats} floats, {refused} refused"
        );
    }

    #[test]
    fn http_bytes_are_rejected_as_bad_magic() {
        assert_eq!(decode(b"GET /metrics"), Err(WireError::BadMagic(b'G')));
    }
}
