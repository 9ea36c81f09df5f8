//! Transport-independent serving engine: byte streams in, byte streams
//! out.
//!
//! [`ServeEngine`] owns the [`LeasePool`], the [`BatchPlanner`], and the
//! `serve.*` [`MetricsRegistry`]. The transport core
//! ([`loopback`](crate::loopback)) feeds it raw bytes per connection and
//! routes the reply buffers, under a virtual clock or under the TCP
//! front-end's wall clock ([`server`](crate::server)); the engine never
//! touches a socket, which is what lets the whole integration surface run
//! under [`SimClock`](sensact_core::trace::SimClock) without real I/O.
//!
//! A connection speaks either the binary frame protocol or HTTP/1.1; the
//! first byte decides (`wire::MAGIC` is not a valid start of any HTTP
//! method). In batched mode, observation frames are admitted (and possibly
//! shed) inline but *executed* at the next [`ServeEngine::flush`] — the
//! transport calls it once per ingress drain, which is the batching
//! window.

use crate::batch::BatchPlanner;
use crate::http;
use crate::lease::{Admitted, LeaseError, LeasePool, ObsOutcome, PoolConfig};
use crate::metrics as m;
use crate::model::ModelKind;
use crate::wire::{self, Frame};
use sensact_core::checkpoint::{Checkpoint, CheckpointError};
use sensact_core::export::prometheus_text;
use sensact_core::MetricsRegistry;

/// Cap on a connection's unconsumed input buffer — what is left after every
/// complete frame or request in it has been served — and, in the TCP
/// front-end, on its unsent output; beyond it the peer is not making
/// protocol progress and the connection is marked dead.
pub(crate) const MAX_CONN_BUF: usize = 4 << 20;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Pool sizing and policy.
    pub pool: PoolConfig,
    /// Cross-loop batching: defer observation execution to the flush
    /// boundary and stack grouped perceptor forwards into one GEMM.
    pub batched: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            pool: PoolConfig::default(),
            batched: true,
        }
    }
}

/// What protocol a connection turned out to speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnKind {
    Sniffing,
    Binary,
    Http,
}

/// Per-connection parse state. The transport core owns one per connection
/// and passes it to every [`ServeEngine::ingest`].
#[derive(Debug)]
pub struct ConnState {
    buf: Vec<u8>,
    kind: ConnKind,
    dead: bool,
}

impl ConnState {
    /// A fresh connection (protocol not yet sniffed).
    pub fn new() -> Self {
        ConnState {
            buf: Vec::new(),
            kind: ConnKind::Sniffing,
            dead: false,
        }
    }

    /// The connection hit a fatal protocol error; the transport should
    /// close it after writing the pending reply.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead
    }
}

impl Default for ConnState {
    fn default() -> Self {
        ConnState::new()
    }
}

/// Result of one [`ServeEngine::ingest`] call.
#[derive(Debug, Default)]
pub struct IngestResult {
    /// Bytes to write back to this connection.
    pub reply: Vec<u8>,
    /// Leases granted during this call — the transport uses these to
    /// route flushed (batched) responses back to the owning connection.
    pub granted: Vec<u64>,
    /// Leases that ended during this call (released by the client).
    pub released: Vec<u64>,
}

/// The transport-independent serving engine.
pub struct ServeEngine {
    pool: LeasePool,
    planner: BatchPlanner,
    metrics: MetricsRegistry,
    batched: bool,
}

impl ServeEngine {
    /// Build an engine from `cfg`.
    pub fn new(cfg: ServeConfig) -> Self {
        ServeEngine {
            pool: LeasePool::new(cfg.pool),
            planner: BatchPlanner::new(),
            metrics: MetricsRegistry::new(),
            batched: cfg.batched,
        }
    }

    /// The lease pool (checkpoint/restore, stats).
    pub fn pool(&mut self) -> &mut LeasePool {
        &mut self.pool
    }

    /// The `serve.*` metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Feed `bytes` received on `conn` at virtual time `now_s`; returns
    /// the reply bytes plus lease routing changes. In batched mode,
    /// observation frames produce no inline reply — their actions come
    /// from the next [`ServeEngine::flush`].
    pub fn ingest(&mut self, conn: &mut ConnState, bytes: &[u8], now_s: f64) -> IngestResult {
        let mut result = IngestResult::default();
        if conn.dead {
            return result;
        }
        conn.buf.extend_from_slice(bytes);
        if conn.kind == ConnKind::Sniffing {
            match conn.buf.first() {
                Some(&wire::MAGIC) => conn.kind = ConnKind::Binary,
                Some(_) => conn.kind = ConnKind::Http,
                None => return result,
            }
        }
        match conn.kind {
            ConnKind::Binary => self.drain_binary(conn, now_s, &mut result),
            ConnKind::Http => self.drain_http(conn, now_s, &mut result),
            ConnKind::Sniffing => unreachable!("sniffed above"),
        }
        if conn.buf.len() > MAX_CONN_BUF {
            conn.dead = true;
        }
        result
    }

    /// Decode from an advancing offset and drain once: pipelined frames in
    /// one read must not memmove the tail once per frame.
    fn drain_binary(&mut self, conn: &mut ConnState, now_s: f64, result: &mut IngestResult) {
        let mut used = 0;
        loop {
            match wire::decode(&conn.buf[used..]) {
                Ok(None) => break,
                Ok(Some((frame, len))) => {
                    used += len;
                    self.metrics.inc(m::FRAMES_IN);
                    self.on_frame(frame, now_s, result);
                }
                Err(e) => {
                    self.metrics.inc(m::WIRE_ERRORS);
                    self.send(
                        result,
                        &Frame::Error {
                            code: wire::code::PROTOCOL,
                            message: e.to_string(),
                        },
                    );
                    conn.dead = true;
                    break;
                }
            }
        }
        conn.buf.drain(..used);
    }

    fn send(&mut self, result: &mut IngestResult, frame: &Frame) {
        self.metrics.inc(m::FRAMES_OUT);
        wire::encode(frame, &mut result.reply);
    }

    fn on_frame(&mut self, frame: Frame, now_s: f64, result: &mut IngestResult) {
        match frame {
            Frame::LeaseReq { model, seed } => match ModelKind::from_wire(model) {
                None => self.send(
                    result,
                    &Frame::Error {
                        code: wire::code::UNKNOWN_MODEL,
                        message: format!("model {model} not served"),
                    },
                ),
                Some(kind) => match self.pool.grant(kind, seed, now_s) {
                    Ok((lease, spec)) => {
                        self.metrics.inc(m::LEASES_GRANTED);
                        result.granted.push(lease);
                        self.send(
                            result,
                            &Frame::LeaseGrant {
                                lease,
                                obs_len: spec.obs_len as u32,
                                act_len: spec.act_len as u32,
                            },
                        );
                    }
                    Err(LeaseError::Rejected { retry_after_ms }) => {
                        self.metrics.inc(m::LEASES_REJECTED);
                        self.send(result, &Frame::LeaseReject { retry_after_ms });
                    }
                    Err(_) => unreachable!("grant only rejects"),
                },
            },
            Frame::Obs { lease, seq, values } => self.on_obs(lease, seq, values, now_s, result),
            Frame::Heartbeat { lease } => {
                self.metrics.inc(m::HEARTBEATS);
                if !self.pool.heartbeat(lease, now_s) {
                    self.send(
                        result,
                        &Frame::Error {
                            code: wire::code::UNKNOWN_LEASE,
                            message: format!("lease {lease} unknown"),
                        },
                    );
                }
            }
            Frame::Release { lease } => {
                // Observations still queued for this lease (batched mode)
                // run first and reply inline, ahead of `Released` — the
                // frames per-loop dispatch sends for the same input.
                for f in self.planner.flush_lease(lease, &mut self.pool) {
                    let frame = self.outcome_frame(f.lease, f.seq, f.outcome);
                    self.send(result, &frame);
                }
                match self.pool.release(lease) {
                    Ok(ticks) => {
                        self.metrics.inc(m::LEASES_RELEASED);
                        result.released.push(lease);
                        self.send(result, &Frame::Released { lease, ticks });
                    }
                    Err(_) => self.send(
                        result,
                        &Frame::Error {
                            code: wire::code::UNKNOWN_LEASE,
                            message: format!("lease {lease} unknown"),
                        },
                    ),
                }
            }
            // Server→client frames arriving at the server are protocol
            // violations (but not framing corruption — the connection
            // survives).
            Frame::LeaseGrant { .. }
            | Frame::LeaseReject { .. }
            | Frame::Act { .. }
            | Frame::Shed { .. }
            | Frame::Released { .. }
            | Frame::Error { .. } => self.send(
                result,
                &Frame::Error {
                    code: wire::code::PROTOCOL,
                    message: "client sent a server-side frame".into(),
                },
            ),
        }
    }

    fn on_obs(
        &mut self,
        lease: u64,
        seq: u64,
        values: Vec<f64>,
        now_s: f64,
        result: &mut IngestResult,
    ) {
        if self.batched {
            match self.pool.admit_deferred(lease, values.len(), now_s) {
                Ok(Admitted::Queued(ticket)) => self.planner.enqueue(ticket, seq, values, now_s),
                Ok(Admitted::Shed(ObsOutcome::Shed { retry_after_ms })) => {
                    self.metrics.inc(m::OBS_SHED);
                    self.send(
                        result,
                        &Frame::Shed {
                            lease,
                            seq,
                            retry_after_ms,
                        },
                    );
                }
                Ok(Admitted::Shed(ObsOutcome::Act { .. })) => unreachable!("admission never acts"),
                Err(e) => self.lease_error(lease, seq, e, result),
            }
        } else {
            match self.pool.observe(lease, values, now_s) {
                Ok(outcome) => {
                    let frame = self.outcome_frame(lease, seq, outcome);
                    self.send(result, &frame);
                }
                Err(e) => self.lease_error(lease, seq, e, result),
            }
        }
    }

    fn lease_error(&mut self, lease: u64, _seq: u64, e: LeaseError, result: &mut IngestResult) {
        let frame = match e {
            LeaseError::UnknownLease => Frame::Error {
                code: wire::code::UNKNOWN_LEASE,
                message: format!("lease {lease} unknown"),
            },
            LeaseError::BadObsLen { expected } => Frame::Error {
                code: wire::code::BAD_OBS_LEN,
                message: format!("expected {expected} floats"),
            },
            LeaseError::Rejected { retry_after_ms } => Frame::LeaseReject { retry_after_ms },
        };
        self.send(result, &frame);
    }

    fn outcome_frame(&mut self, lease: u64, seq: u64, outcome: ObsOutcome) -> Frame {
        match outcome {
            ObsOutcome::Act {
                response_s,
                energy_j,
                values,
                ..
            } => {
                self.metrics.inc(m::OBS_SERVED);
                self.metrics.observe(m::RESPONSE_S, response_s);
                Frame::Act {
                    lease,
                    seq,
                    latency_s: response_s,
                    energy_j,
                    values,
                }
            }
            ObsOutcome::Shed { retry_after_ms } => {
                self.metrics.inc(m::OBS_SHED);
                Frame::Shed {
                    lease,
                    seq,
                    retry_after_ms,
                }
            }
        }
    }

    /// Execute every deferred observation (batched mode); returns encoded
    /// reply frames keyed by lease so the transport can route them. The
    /// transport calls this once per ingress drain — that drain is the
    /// batching window.
    pub fn flush(&mut self, _now_s: f64) -> Vec<(u64, Vec<u8>)> {
        if self.planner.pending() == 0 {
            return Vec::new();
        }
        let (flushed, occupancies) = self.planner.flush(&mut self.pool);
        for occ in occupancies {
            self.metrics.observe(m::BATCH_OCCUPANCY, occ as f64);
        }
        let mut out = Vec::with_capacity(flushed.len());
        for f in flushed {
            let frame = self.outcome_frame(f.lease, f.seq, f.outcome);
            self.metrics.inc(m::FRAMES_OUT);
            let mut bytes = Vec::new();
            wire::encode(&frame, &mut bytes);
            out.push((f.lease, bytes));
        }
        out
    }

    /// Reap leases that have outlived the TTL without a heartbeat or
    /// observation. Returns the expired lease ids (the transport forgets
    /// their routes). Observations still queued for a reaped lease are
    /// dropped and counted as shed.
    pub(crate) fn expire(&mut self, now_s: f64) -> Vec<u64> {
        let expired = self.pool.expire(now_s);
        self.metrics.add(m::LEASES_EXPIRED, expired.len() as u64);
        let dropped = self.planner.discard(&expired);
        self.metrics.add(m::OBS_SHED, dropped as u64);
        expired
    }

    /// Adopt a lease snapshot (e.g. on a freshly started replacement
    /// engine built from the same seed).
    pub(crate) fn restore_lease(
        &mut self,
        ckpt: &Checkpoint,
        now_s: f64,
    ) -> Result<u64, CheckpointError> {
        self.pool.restore_lease(ckpt, now_s)
    }

    /// The `/metrics` scrape payload: refresh pool gauges, then render the
    /// registry through the standard Prometheus exposition.
    pub(crate) fn metrics_text(&mut self) -> String {
        self.metrics
            .set(m::LEASES_ACTIVE, self.pool.active() as f64);
        self.metrics.set(m::UTILIZATION, self.pool.utilization());
        prometheus_text(&self.metrics)
    }

    fn drain_http(&mut self, conn: &mut ConnState, _now_s: f64, result: &mut IngestResult) {
        let mut used = 0;
        loop {
            match http::parse(&conn.buf[used..]) {
                Ok(None) => break,
                Ok(Some((req, len))) => {
                    used += len;
                    self.metrics.inc(m::HTTP_REQUESTS);
                    let resp = self.route_http(&req);
                    result.reply.extend_from_slice(&resp);
                }
                Err(e) => {
                    self.metrics.inc(m::HTTP_ERRORS);
                    result.reply.extend_from_slice(&http::response(
                        400,
                        "Bad Request",
                        "text/plain",
                        e.to_string().as_bytes(),
                    ));
                    conn.dead = true;
                    break;
                }
            }
        }
        conn.buf.drain(..used);
    }

    fn route_http(&mut self, req: &http::Request) -> Vec<u8> {
        match (req.method.as_str(), req.target.as_str()) {
            ("GET", "/metrics") => {
                let body = self.metrics_text();
                http::response(200, "OK", "text/plain; version=0.0.4", body.as_bytes())
            }
            ("GET", "/healthz") => http::response(200, "OK", "text/plain", b"ok"),
            ("GET", "/stats") => {
                let body = format!(
                    "leases_active {}\nutilization {:.6}\nbatched {}\n",
                    self.pool.active(),
                    self.pool.utilization(),
                    self.batched
                );
                http::response(200, "OK", "text/plain", body.as_bytes())
            }
            ("GET", _) => http::response(404, "Not Found", "text/plain", b"not found"),
            _ => http::response(
                405,
                "Method Not Allowed",
                "text/plain",
                b"method not allowed",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_to_vec;

    fn engine(batched: bool) -> ServeEngine {
        ServeEngine::new(ServeConfig {
            batched,
            ..ServeConfig::default()
        })
    }

    fn decode_all(mut bytes: &[u8]) -> Vec<Frame> {
        let mut frames = Vec::new();
        while let Some((f, used)) = wire::decode(bytes).unwrap() {
            frames.push(f);
            bytes = &bytes[used..];
        }
        frames
    }

    #[test]
    fn binary_lease_obs_release_round_trip_unbatched() {
        let mut eng = engine(false);
        let mut conn = ConnState::new();
        let mut req = encode_to_vec(&Frame::LeaseReq { model: 1, seed: 9 });
        let r = eng.ingest(&mut conn, &req, 0.0);
        let frames = decode_all(&r.reply);
        let lease = match &frames[..] {
            [Frame::LeaseGrant {
                lease,
                obs_len: 4,
                act_len: 1,
            }] => *lease,
            other => panic!("{other:?}"),
        };
        assert_eq!(r.granted, vec![lease]);
        req = encode_to_vec(&Frame::Obs {
            lease,
            seq: 0,
            values: vec![0.1, 0.2, 0.3, 0.4],
        });
        let r = eng.ingest(&mut conn, &req, 1e-3);
        match &decode_all(&r.reply)[..] {
            [Frame::Act { seq: 0, values, .. }] => assert_eq!(values.len(), 1),
            other => panic!("{other:?}"),
        }
        let r = eng.ingest(&mut conn, &encode_to_vec(&Frame::Release { lease }), 2e-3);
        match &decode_all(&r.reply)[..] {
            [Frame::Released { ticks: 1, .. }] => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(r.released, vec![lease]);
        assert!(!conn.is_dead());
    }

    #[test]
    fn batched_obs_replies_come_from_flush() {
        let mut eng = engine(true);
        let mut conn = ConnState::new();
        let r = eng.ingest(
            &mut conn,
            &encode_to_vec(&Frame::LeaseReq { model: 1, seed: 1 }),
            0.0,
        );
        let lease = match &decode_all(&r.reply)[..] {
            [Frame::LeaseGrant { lease, .. }] => *lease,
            other => panic!("{other:?}"),
        };
        let r = eng.ingest(
            &mut conn,
            &encode_to_vec(&Frame::Obs {
                lease,
                seq: 5,
                values: vec![0.0; 4],
            }),
            1e-3,
        );
        assert!(r.reply.is_empty(), "batched obs must defer to flush");
        let flushed = eng.flush(1e-3);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].0, lease);
        match &decode_all(&flushed[0].1)[..] {
            [Frame::Act { seq: 5, .. }] => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn split_frames_across_ingest_calls_reassemble() {
        let mut eng = engine(false);
        let mut conn = ConnState::new();
        let req = encode_to_vec(&Frame::LeaseReq { model: 1, seed: 2 });
        // Byte-at-a-time delivery: no reply until the frame completes.
        for b in &req[..req.len() - 1] {
            let r = eng.ingest(&mut conn, &[*b], 0.0);
            assert!(r.reply.is_empty());
        }
        let r = eng.ingest(&mut conn, &req[req.len() - 1..], 0.0);
        let lease = match decode_all(&r.reply)[..] {
            [Frame::LeaseGrant { lease, .. }] => lease,
            ref other => panic!("{other:?}"),
        };
        // The other direction: N pipelined frames in one call reply
        // byte-identically to N calls, and a trailing partial frame waits
        // in the buffer for its remainder.
        let mut twin = engine(false);
        let mut twin_conn = ConnState::new();
        let _ = twin.ingest(&mut twin_conn, &req, 0.0);
        let frames: Vec<Vec<u8>> = (0..6u64)
            .map(|seq| {
                encode_to_vec(&Frame::Obs {
                    lease,
                    seq,
                    values: vec![0.25 * seq as f64; 4],
                })
            })
            .collect();
        let (last, head) = frames.split_last().unwrap();
        let mut piped = head.concat();
        piped.extend_from_slice(&last[..last.len() / 2]);
        let mut one_by_one = Vec::new();
        for f in head {
            one_by_one.extend(eng.ingest(&mut conn, f, 1e-3).reply);
        }
        assert_eq!(decode_all(&one_by_one).len(), head.len());
        assert_eq!(twin.ingest(&mut twin_conn, &piped, 1e-3).reply, one_by_one);
        assert_eq!(
            twin.ingest(&mut twin_conn, &last[last.len() / 2..], 2e-3)
                .reply,
            eng.ingest(&mut conn, last, 2e-3).reply
        );
    }

    #[test]
    fn framing_corruption_kills_the_connection_with_a_typed_error() {
        let mut eng = engine(false);
        let mut conn = ConnState::new();
        let r = eng.ingest(&mut conn, &[wire::MAGIC, 0x77, 0, 0, 0, 0], 0.0);
        match &decode_all(&r.reply)[..] {
            [Frame::Error { code, .. }] => assert_eq!(*code, wire::code::PROTOCOL),
            other => panic!("{other:?}"),
        }
        assert!(conn.is_dead());
        assert_eq!(eng.metrics().counter(m::WIRE_ERRORS), 1);
    }

    #[test]
    fn unknown_lease_and_model_are_typed_protocol_errors() {
        let mut eng = engine(false);
        let mut conn = ConnState::new();
        let r = eng.ingest(
            &mut conn,
            &encode_to_vec(&Frame::LeaseReq {
                model: 200,
                seed: 0,
            }),
            0.0,
        );
        match &decode_all(&r.reply)[..] {
            [Frame::Error { code, .. }] => assert_eq!(*code, wire::code::UNKNOWN_MODEL),
            other => panic!("{other:?}"),
        }
        let r = eng.ingest(
            &mut conn,
            &encode_to_vec(&Frame::Obs {
                lease: 42,
                seq: 0,
                values: vec![],
            }),
            0.0,
        );
        match &decode_all(&r.reply)[..] {
            [Frame::Error { code, .. }] => assert_eq!(*code, wire::code::UNKNOWN_LEASE),
            other => panic!("{other:?}"),
        }
        assert!(!conn.is_dead(), "semantic errors are not framing errors");
    }

    #[test]
    fn http_metrics_scrape_shows_serve_series() {
        let mut eng = engine(false);
        let mut bconn = ConnState::new();
        let _ = eng.ingest(
            &mut bconn,
            &encode_to_vec(&Frame::LeaseReq { model: 0, seed: 3 }),
            0.0,
        );
        let mut hconn = ConnState::new();
        let r = eng.ingest(&mut hconn, b"GET /metrics HTTP/1.1\r\n\r\n", 1.0);
        let text = String::from_utf8(r.reply).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("serve_leases_granted 1"), "{text}");
        assert!(text.contains("serve_leases_active 1"), "{text}");
        // Health and 404 routes behave.
        let r = eng.ingest(&mut hconn, b"GET /healthz HTTP/1.1\r\n\r\n", 1.0);
        assert!(String::from_utf8(r.reply).unwrap().contains("200 OK"));
        let r = eng.ingest(&mut hconn, b"GET /nope HTTP/1.1\r\n\r\n", 1.0);
        assert!(String::from_utf8(r.reply).unwrap().contains("404"));
        assert!(!hconn.is_dead());
        let r = eng.ingest(&mut hconn, b"BREW /coffee HTTP/1.1\r\n\r\n", 1.0);
        assert!(String::from_utf8(r.reply).unwrap().contains("405"));
    }

    #[test]
    fn http_parse_error_is_400_and_fatal() {
        let mut eng = engine(false);
        let mut conn = ConnState::new();
        let r = eng.ingest(&mut conn, b"GET /a HTTP/1.1\r\nnocolon\r\n\r\n", 0.0);
        assert!(String::from_utf8(r.reply).unwrap().contains("400"));
        assert!(conn.is_dead());
        assert_eq!(eng.metrics().counter(m::HTTP_ERRORS), 1);
    }

    #[test]
    fn expiry_reaps_and_counts() {
        let mut eng = engine(false);
        let mut conn = ConnState::new();
        let r = eng.ingest(
            &mut conn,
            &encode_to_vec(&Frame::LeaseReq { model: 1, seed: 4 }),
            0.0,
        );
        let lease = match &decode_all(&r.reply)[..] {
            [Frame::LeaseGrant { lease, .. }] => *lease,
            other => panic!("{other:?}"),
        };
        let ttl = eng.pool().config().lease_ttl_s;
        assert_eq!(eng.expire(ttl * 2.0), vec![lease]);
        assert_eq!(eng.metrics().counter(m::LEASES_EXPIRED), 1);
    }
}
