//! The transport core, and its deterministic in-process form.
//!
//! [`Loopback`] owns one [`ServeEngine`], the connections, the one lease →
//! connection routing table and each connection's outbound bytes: bytes
//! in, bytes out, one flush per drain. Every call takes the caller's
//! `now_s`. Integration tests and benches pass a virtual clock (a
//! [`SimClock`](sensact_core::trace::SimClock) reading) to replay identical
//! traffic against batched and unbatched engines and compare bits; the TCP
//! front-end ([`server`](crate::server)) passes the wall clock and writes
//! each connection's bytes to its socket, so its routing is this module's.

use crate::engine::{ConnState, ServeConfig, ServeEngine};
use crate::wire::{self, Frame};
use std::collections::BTreeMap;

/// A loopback client's id.
pub type ConnId = usize;

/// In-process transport wrapping one [`ServeEngine`].
pub struct Loopback {
    engine: ServeEngine,
    conns: Vec<ConnState>,
    /// Reply bytes awaiting pickup, per connection: binary frames or HTTP
    /// responses, as the connection's first byte chose.
    out: Vec<Vec<u8>>,
    /// lease id → owning connection, for routing flushed replies.
    routes: BTreeMap<u64, ConnId>,
    /// Ids [`Loopback::disconnect`] freed, for the next connect.
    free: Vec<ConnId>,
}

impl Loopback {
    /// A loopback server with the given engine config.
    pub fn new(cfg: ServeConfig) -> Self {
        Loopback {
            engine: ServeEngine::new(cfg),
            conns: Vec::new(),
            out: Vec::new(),
            routes: BTreeMap::new(),
            free: Vec::new(),
        }
    }

    /// The engine (metrics, pool, snapshot/restore).
    pub fn engine(&mut self) -> &mut ServeEngine {
        &mut self.engine
    }

    /// Open a new client connection.
    pub fn connect(&mut self) -> ConnId {
        if let Some(conn) = self.free.pop() {
            return conn;
        }
        self.conns.push(ConnState::new());
        self.out.push(Vec::new());
        self.conns.len() - 1
    }

    /// Close `conn`: drop its routes, parse state and unread replies, and
    /// free its id for the next [`Loopback::connect`], so the tables stay
    /// as large as the live connections. Its leases stay in the pool until
    /// released or expired; their replies go nowhere meanwhile.
    pub(crate) fn disconnect(&mut self, conn: ConnId) {
        self.routes.retain(|_, owner| *owner != conn);
        self.conns[conn] = ConnState::new();
        self.out[conn] = Vec::new();
        self.free.push(conn);
    }

    /// Whether `conn` hit a fatal protocol error (close it once its
    /// replies are written).
    pub(crate) fn is_dead(&self, conn: ConnId) -> bool {
        self.conns[conn].is_dead()
    }

    /// Deliver raw bytes from `conn` at virtual time `now_s`. Inline
    /// replies (grants, unbatched acts, errors, HTTP responses) wait on the
    /// connection immediately; batched observation replies arrive at the
    /// next [`Loopback::flush`].
    pub fn send_bytes(&mut self, conn: ConnId, bytes: &[u8], now_s: f64) {
        let result = self.engine.ingest(&mut self.conns[conn], bytes, now_s);
        for lease in &result.granted {
            self.routes.insert(*lease, conn);
        }
        for lease in &result.released {
            self.routes.remove(lease);
        }
        self.out[conn].extend_from_slice(&result.reply);
    }

    /// Deliver one frame from `conn`.
    pub fn send_frame(&mut self, conn: ConnId, frame: &Frame, now_s: f64) {
        let bytes = wire::encode_to_vec(frame);
        self.send_bytes(conn, &bytes, now_s);
    }

    /// Close the batching window: execute deferred observations and route
    /// each reply to its lease's connection.
    pub fn flush(&mut self, now_s: f64) {
        for (lease, bytes) in self.engine.flush(now_s) {
            if let Some(&conn) = self.routes.get(&lease) {
                self.out[conn].extend_from_slice(&bytes);
            }
        }
    }

    /// Adopt a lease snapshotted on a crashed server
    /// ([`LeasePool::snapshot_lease`](crate::lease::LeasePool::snapshot_lease))
    /// and route its replies to `conn` — the transport half of crash
    /// recovery. The restored lease resumes under its original id with
    /// bit-identical state; its observation tail replays bit-exactly.
    pub fn restore_lease(
        &mut self,
        conn: ConnId,
        ckpt: &sensact_core::checkpoint::Checkpoint,
        now_s: f64,
    ) -> Result<u64, sensact_core::checkpoint::CheckpointError> {
        let lease = self.engine.restore_lease(ckpt, now_s)?;
        self.routes.insert(lease, conn);
        Ok(lease)
    }

    /// Reap expired leases and drop their routes. Returns the expired ids.
    pub fn expire(&mut self, now_s: f64) -> Vec<u64> {
        let expired = self.engine.expire(now_s);
        for lease in &expired {
            self.routes.remove(lease);
        }
        expired
    }

    /// Take every binary frame waiting on `conn`, decoded (none on an HTTP
    /// connection).
    pub fn take_frames(&mut self, conn: ConnId) -> Vec<Frame> {
        let out = &mut self.out[conn];
        if out.first().is_some_and(|&b| b != wire::MAGIC) {
            return Vec::new();
        }
        let mut frames = Vec::new();
        let mut used = 0;
        while let Some((frame, len)) =
            wire::decode(&out[used..]).expect("server emits valid frames")
        {
            frames.push(frame);
            used += len;
        }
        assert_eq!(used, out.len(), "server emitted a partial frame");
        out.clear();
        frames
    }

    /// Take the raw reply bytes waiting on `conn`: an HTTP client's
    /// responses, or what the TCP front-end writes to the socket next.
    pub fn take_http(&mut self, conn: ConnId) -> Vec<u8> {
        std::mem::take(&mut self.out[conn])
    }

    /// Convenience: lease `model` with `seed`; returns
    /// `Ok((lease, obs_len, act_len))` on grant, `Err(retry_after_ms)` on
    /// rejection.
    pub fn request_lease(
        &mut self,
        conn: ConnId,
        model: u8,
        seed: u64,
        now_s: f64,
    ) -> Result<(u64, usize, usize), u32> {
        self.send_frame(conn, &Frame::LeaseReq { model, seed }, now_s);
        match self.take_frames(conn).pop() {
            Some(Frame::LeaseGrant {
                lease,
                obs_len,
                act_len,
            }) => Ok((lease, obs_len as usize, act_len as usize)),
            Some(Frame::LeaseReject { retry_after_ms }) => Err(retry_after_ms),
            other => panic!("unexpected lease response: {other:?}"),
        }
    }

    /// The lease → connection routes.
    #[cfg(test)]
    pub(crate) fn routes(&self) -> &BTreeMap<u64, ConnId> {
        &self.routes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MAX_CONN_BUF;
    use crate::lease::PoolConfig;
    use crate::wire::encode_to_vec;

    fn loopback(batched: bool) -> Loopback {
        Loopback::new(ServeConfig {
            pool: PoolConfig::default(),
            batched,
        })
    }

    #[test]
    fn batched_replies_route_to_the_owning_connection() {
        let mut lb = loopback(true);
        let a = lb.connect();
        let b = lb.connect();
        let (la, obs_len, _) = lb.request_lease(a, 1, 1, 0.0).unwrap();
        let (lb_id, _, _) = lb.request_lease(b, 1, 2, 0.0).unwrap();
        lb.send_frame(
            a,
            &Frame::Obs {
                lease: la,
                seq: 10,
                values: vec![0.25; obs_len],
            },
            1e-3,
        );
        lb.send_frame(
            b,
            &Frame::Obs {
                lease: lb_id,
                seq: 20,
                values: vec![0.5; obs_len],
            },
            1e-3,
        );
        assert!(lb.take_frames(a).is_empty(), "batched: nothing until flush");
        lb.flush(1e-3);
        match &lb.take_frames(a)[..] {
            [Frame::Act { lease, seq: 10, .. }] => assert_eq!(*lease, la),
            other => panic!("{other:?}"),
        }
        match &lb.take_frames(b)[..] {
            [Frame::Act { lease, seq: 20, .. }] => assert_eq!(*lease, lb_id),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn release_and_expiry_drop_routes() {
        let mut lb = loopback(true);
        let c = lb.connect();
        let (lease, obs_len, _) = lb.request_lease(c, 1, 3, 0.0).unwrap();
        lb.send_frame(c, &Frame::Release { lease }, 1e-3);
        assert!(matches!(
            lb.take_frames(c)[..],
            [Frame::Released { ticks: 0, .. }]
        ));
        assert!(lb.routes.is_empty());
        // A second lease left silent expires and its route disappears too.
        let (lease2, _, _) = lb.request_lease(c, 1, 4, 1.0).unwrap();
        assert_eq!(lb.expire(100.0), vec![lease2]);
        assert!(lb.routes.is_empty());
        let _ = obs_len;
    }

    /// A closed connection's id is reused, but its leases' routes are not:
    /// an observation queued before the close is served into the void, and
    /// the new connection reads only its own replies.
    #[test]
    fn a_reused_id_receives_no_reply_for_the_old_connections_leases() {
        let mut lb = loopback(true);
        let old = lb.connect();
        let (gone, obs_len, _) = lb.request_lease(old, 1, 1, 0.0).unwrap();
        let obs = |lease, seq| Frame::Obs {
            lease,
            seq,
            values: vec![0.25; obs_len],
        };
        lb.send_frame(old, &obs(gone, 10), 1e-3);
        lb.disconnect(old);
        assert!(lb.routes.is_empty());
        let new = lb.connect();
        assert_eq!(new, old, "the freed id is reused");
        let (mine, _, _) = lb.request_lease(new, 1, 2, 1e-3).unwrap();
        lb.send_frame(new, &obs(mine, 20), 2e-3);
        lb.flush(2e-3);
        match &lb.take_frames(new)[..] {
            [Frame::Act { lease, seq: 20, .. }] => assert_eq!(*lease, mine),
            other => panic!("{other:?}"),
        }
        assert_eq!(lb.engine().metrics().counter("serve.obs.served"), 2);
    }

    #[test]
    fn one_send_past_the_buffer_cap_is_served_frame_for_frame() {
        let mut lb = loopback(false);
        let c = lb.connect();
        let (lease, obs_len, _) = lb.request_lease(c, 1, 7, 0.0).unwrap();
        let mut bytes = Vec::new();
        let mut sent = 0u64;
        while bytes.len() <= MAX_CONN_BUF {
            let values = vec![0.125 * (sent % 8) as f64; obs_len];
            wire::encode(
                &Frame::Obs {
                    lease,
                    seq: sent,
                    values,
                },
                &mut bytes,
            );
            sent += 1;
        }
        lb.send_bytes(c, &bytes, 1e-3);
        assert!(!lb.is_dead(c), "complete frames are not a backlog");
        let replies = lb.take_frames(c);
        assert_eq!(replies.len() as u64, sent);
        for (i, reply) in replies.iter().enumerate() {
            match reply {
                Frame::Act { seq, .. } | Frame::Shed { seq, .. } => assert_eq!(*seq, i as u64),
                other => panic!("{other:?}"),
            }
        }
    }

    /// A peer that never completes a frame is still cut off: by the parsers'
    /// own limits (`MAX_PAYLOAD`, `MAX_HEAD`) long before the buffer cap.
    #[test]
    fn an_unterminated_frame_past_the_buffer_cap_kills_the_connection() {
        let mut binary = vec![wire::MAGIC, 0x04];
        binary.extend_from_slice(&(MAX_CONN_BUF as u32).to_le_bytes());
        for mut bytes in [binary, b"GET /".to_vec()] {
            bytes.resize(MAX_CONN_BUF + 1, b'a');
            let mut lb = loopback(false);
            let c = lb.connect();
            lb.send_bytes(c, &bytes, 0.0);
            assert!(lb.is_dead(c));
            lb.send_bytes(c, &encode_to_vec(&Frame::Heartbeat { lease: 1 }), 0.0);
            assert!(
                lb.take_frames(c).len() <= 1,
                "a dead connection serves nothing"
            );
        }
    }

    #[test]
    fn http_and_binary_clients_coexist() {
        let mut lb = loopback(false);
        let bin = lb.connect();
        let web = lb.connect();
        let _ = lb.request_lease(bin, 0, 5, 0.0).unwrap();
        lb.send_bytes(web, b"GET /metrics HTTP/1.1\r\n\r\n", 0.5);
        let text = String::from_utf8(lb.take_http(web)).unwrap();
        assert!(text.contains("serve_leases_granted 1"), "{text}");
        assert!(!lb.is_dead(web));
    }
}
