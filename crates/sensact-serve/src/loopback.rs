//! Deterministic in-process loopback transport.
//!
//! Drives a [`ServeEngine`] exactly like the TCP front-end does — bytes
//! in, bytes out, one flush per drain — but with no sockets and no wall
//! clock: every call takes the caller's virtual `now_s` (typically a
//! [`SimClock`](sensact_core::trace::SimClock) reading). Integration tests
//! and benches use it to replay identical traffic against batched and
//! unbatched engines and compare bits.

use crate::engine::{ConnState, ServeConfig, ServeEngine};
use crate::wire::{self, Frame};
use std::collections::BTreeMap;

/// A loopback client's id.
pub type ConnId = usize;

/// In-process transport wrapping one [`ServeEngine`].
pub struct Loopback {
    engine: ServeEngine,
    conns: Vec<ConnState>,
    /// Decoded binary frames awaiting pickup, per connection.
    inboxes: Vec<Vec<Frame>>,
    /// Raw HTTP reply bytes awaiting pickup, per connection.
    http_replies: Vec<Vec<u8>>,
    /// lease id → owning connection, for routing flushed replies.
    routes: BTreeMap<u64, ConnId>,
}

impl Loopback {
    /// A loopback server with the given engine config.
    pub fn new(cfg: ServeConfig) -> Self {
        Loopback {
            engine: ServeEngine::new(cfg),
            conns: Vec::new(),
            inboxes: Vec::new(),
            http_replies: Vec::new(),
            routes: BTreeMap::new(),
        }
    }

    /// The engine (metrics, pool, snapshot/restore).
    pub fn engine(&mut self) -> &mut ServeEngine {
        &mut self.engine
    }

    /// Open a new client connection.
    pub fn connect(&mut self) -> ConnId {
        self.conns.push(ConnState::new());
        self.inboxes.push(Vec::new());
        self.http_replies.push(Vec::new());
        self.conns.len() - 1
    }

    /// Deliver raw bytes from `conn` at virtual time `now_s`. Inline
    /// replies (grants, unbatched acts, errors, HTTP responses) land in the
    /// connection's inbox immediately; batched observation replies arrive
    /// at the next [`Loopback::flush`].
    pub fn send_bytes(&mut self, conn: ConnId, bytes: &[u8], now_s: f64) {
        let result = self.engine.ingest(&mut self.conns[conn], bytes, now_s);
        for lease in &result.granted {
            self.routes.insert(*lease, conn);
        }
        for lease in &result.released {
            self.routes.remove(lease);
        }
        self.deliver(conn, &result.reply);
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
                let reply = bytes;
                self.deliver(conn, &reply);
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

    /// Take every decoded binary frame waiting on `conn`.
    pub fn take_frames(&mut self, conn: ConnId) -> Vec<Frame> {
        std::mem::take(&mut self.inboxes[conn])
    }

    /// Take the raw HTTP reply bytes waiting on `conn`.
    pub fn take_http(&mut self, conn: ConnId) -> Vec<u8> {
        std::mem::take(&mut self.http_replies[conn])
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

    fn deliver(&mut self, conn: ConnId, mut bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        if bytes[0] != wire::MAGIC {
            self.http_replies[conn].extend_from_slice(bytes);
            return;
        }
        while let Some((frame, used)) = wire::decode(bytes).expect("server emits valid frames") {
            self.inboxes[conn].push(frame);
            bytes = &bytes[used..];
        }
        assert!(bytes.is_empty(), "server emitted a partial frame");
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
        assert!(!lb.conns[c].is_dead(), "complete frames are not a backlog");
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
            assert!(lb.conns[c].is_dead());
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
        assert!(!lb.conns[web].is_dead());
    }
}
