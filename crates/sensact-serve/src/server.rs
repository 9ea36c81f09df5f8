//! Thread-per-core TCP front-end: sockets, threads and the wall clock
//! around one [`Loopback`].
//!
//! A shared nonblocking listener is accepted from by every worker thread
//! (kernel-balanced), and each worker owns the sockets it accepted. Every
//! protocol and routing decision is the transport core's: accepting a
//! socket is [`Loopback::connect`], each read is [`Loopback::send_bytes`]
//! at the wall clock ([`Instant`] → seconds since start), a drain that made
//! progress closes the batching window with [`Loopback::flush`], worker 0
//! reaps with [`Loopback::expire`], and a closed or dead socket is
//! `Loopback::disconnect`. Whichever worker flushed, a lease's replies wait
//! on its connection in the `Loopback`; the worker owning the socket
//! writes them. The sockets are non-blocking, so what one cycle cannot
//! write waits in the connection's outbound buffer for the next.

use crate::engine::{ServeConfig, MAX_CONN_BUF};
use crate::loopback::{ConnId, Loopback};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker sleeps between drain cycles.
const IDLE_SLEEP: Duration = Duration::from_micros(200);
/// Socket read buffer size.
const READ_BUF: usize = 64 * 1024;

struct Shared {
    transport: Mutex<Loopback>,
    stop: AtomicBool,
    started: Instant,
}

impl Shared {
    fn new(cfg: ServeConfig) -> Shared {
        Shared {
            transport: Mutex::new(Loopback::new(cfg)),
            stop: AtomicBool::new(false),
            started: Instant::now(),
        }
    }

    fn transport(&self) -> MutexGuard<'_, Loopback> {
        self.transport.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn now_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// A running TCP server; dropping it stops the workers.
pub struct ServeServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
}

impl ServeServer {
    /// Bind `addr` and serve on `threads` worker threads.
    pub fn start(addr: &str, cfg: ServeConfig, threads: usize) -> std::io::Result<ServeServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(cfg));
        let mut workers = Vec::new();
        for worker in 0..threads.max(1) {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sensact-serve-{worker}"))
                    .spawn(move || worker_loop(worker, listener, shared))?,
            );
        }
        Ok(ServeServer {
            shared,
            addr,
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Dropping the server stops the workers and joins them.
impl Drop for ServeServer {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

struct Conn {
    stream: TcpStream,
    id: ConnId,
    /// Reply bytes the socket has not accepted yet.
    out: Vec<u8>,
    /// The peer hung up or the connection died: write once more, then
    /// drop it.
    closed: bool,
}

/// Write as much of `out` as `w` accepts now and keep the rest, in order,
/// for the next cycle. `Err` means close the connection: the write failed
/// with something other than `WouldBlock`, or the peer has let more than
/// [`MAX_CONN_BUF`] pile up unread.
fn drain_out(w: &mut impl Write, out: &mut Vec<u8>) -> std::io::Result<()> {
    let mut sent = 0;
    let result = loop {
        if sent == out.len() {
            break Ok(());
        }
        match w.write(&out[sent..]) {
            Ok(0) => break Err(ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock && out.len() - sent <= MAX_CONN_BUF => {
                break Ok(())
            }
            Err(e) => break Err(e),
        }
    };
    out.drain(..sent);
    result
}

fn worker_loop(worker: usize, listener: TcpListener, shared: Arc<Shared>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut buf = vec![0u8; READ_BUF];
    while !shared.stop.load(Ordering::SeqCst) {
        if !cycle(worker, &listener, &shared, &mut conns, &mut buf) {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// One drain cycle of `worker`: accept, read and ingest, flush, write what
/// waits for each owned socket and, on worker 0, reap expired leases.
/// Returns whether anything was accepted, read or closed.
fn cycle(
    worker: usize,
    listener: &TcpListener,
    shared: &Shared,
    conns: &mut Vec<Conn>,
    buf: &mut [u8],
) -> bool {
    let mut progressed = false;
    // Accept whatever the kernel hands this worker.
    while let Ok((stream, _)) = listener.accept() {
        if stream.set_nonblocking(true).is_ok() {
            let id = shared.transport().connect();
            conns.push(Conn {
                stream,
                id,
                out: Vec::new(),
                closed: false,
            });
            progressed = true;
        }
    }
    let now_s = shared.now_s();
    for conn in conns.iter_mut() {
        progressed |= pump(conn, shared, buf, now_s);
    }
    let mut transport = shared.transport();
    if progressed {
        // Close the batching window for everything this drain ingested.
        transport.flush(now_s);
    }
    for conn in conns.iter_mut() {
        conn.out.extend(transport.take_http(conn.id));
    }
    drop(transport);
    // A closed connection's replies (the error that killed it, say) get
    // one best-effort write; its leases expire by TTL.
    conns.retain_mut(|conn| {
        let open = drain_out(&mut conn.stream, &mut conn.out).is_ok() && !conn.closed;
        if !open {
            shared.transport().disconnect(conn.id);
        }
        open
    });
    if worker == 0 {
        shared.transport().expire(now_s);
    }
    progressed
}

/// Read and ingest everything `conn`'s socket holds; marks `conn` closed
/// on end of stream, a read error or a dead connection. Returns whether
/// anything was read or closed.
fn pump(conn: &mut Conn, shared: &Shared, buf: &mut [u8], now_s: f64) -> bool {
    let mut progressed = false;
    loop {
        match conn.stream.read(buf) {
            Ok(0) => break,
            Ok(n) => {
                progressed = true;
                let mut transport = shared.transport();
                transport.send_bytes(conn.id, &buf[..n], now_s);
                if transport.is_dead(conn.id) {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return progressed,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    conn.closed = true;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::PoolConfig;
    use crate::wire::{self, Frame};

    /// Read frames until `want` arrive or the deadline passes.
    fn read_frames(stream: &mut TcpStream, want: usize) -> Vec<Frame> {
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut acc = Vec::new();
        let mut frames = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut buf = [0u8; 4096];
        while frames.len() < want && Instant::now() < deadline {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    acc.extend_from_slice(&buf[..n]);
                    while let Some((f, used)) = wire::decode(&acc).unwrap() {
                        frames.push(f);
                        acc.drain(..used);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) => panic!("read: {e}"),
            }
        }
        frames
    }

    /// A writer that takes `quota` bytes, then reports `WouldBlock` once
    /// (a full socket buffer) before taking `quota` more.
    struct Choppy {
        taken: Vec<u8>,
        quota: usize,
        room: usize,
    }

    impl Write for Choppy {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                self.room = self.quota;
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.room);
            self.taken.extend_from_slice(&buf[..n]);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Regression: replies were `write_all`'d to a non-blocking socket and
    /// the error ignored, so a full socket cut a frame mid-write. Across
    /// injected `WouldBlock`s every byte must arrive once and in order.
    #[test]
    fn outbound_buffer_delivers_every_byte_once_across_would_block() {
        let replies: Vec<Vec<u8>> = (0..40u64)
            .map(|seq| {
                wire::encode_to_vec(&Frame::Act {
                    lease: 3,
                    seq,
                    latency_s: 1e-3,
                    energy_j: 1e-6,
                    values: vec![seq as f64; (seq % 5) as usize],
                })
            })
            .collect();
        for quota in [1, 7, 64, 1 << 20] {
            let mut w = Choppy {
                taken: Vec::new(),
                quota,
                room: quota,
            };
            let mut out = Vec::new();
            for reply in &replies {
                // One cycle: a reply is produced, the socket takes what it can.
                out.extend_from_slice(reply);
                drain_out(&mut w, &mut out).expect("WouldBlock keeps the connection");
            }
            while !out.is_empty() {
                drain_out(&mut w, &mut out).unwrap();
            }
            assert_eq!(w.taken, replies.concat(), "quota {quota}");
        }
    }

    #[test]
    fn outbound_buffer_closes_on_a_hard_error_or_a_stalled_peer() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut out = vec![1, 2, 3];
        let err = drain_out(&mut Broken, &mut out).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
        // A peer that stopped reading: the backlog may not grow unbounded.
        let mut stalled = Choppy {
            taken: Vec::new(),
            quota: 0,
            room: 0,
        };
        let mut out = vec![0u8; MAX_CONN_BUF];
        assert!(drain_out(&mut stalled, &mut out).is_ok());
        out.push(0);
        let err = drain_out(&mut stalled, &mut out).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
    }

    fn try_server(batched: bool) -> Option<ServeServer> {
        match ServeServer::start(
            "127.0.0.1:0",
            ServeConfig {
                pool: PoolConfig::default(),
                batched,
            },
            2,
        ) {
            Ok(s) => Some(s),
            Err(e) => {
                // Sandboxed environments may forbid binding; the loopback
                // transport covers the protocol logic there.
                eprintln!("skipping TCP test: bind failed: {e}");
                None
            }
        }
    }

    #[test]
    fn tcp_lease_observe_release_round_trip() {
        for batched in [false, true] {
            let Some(server) = try_server(batched) else {
                return;
            };
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            stream.set_nodelay(true).unwrap();
            stream
                .write_all(&wire::encode_to_vec(&Frame::LeaseReq { model: 1, seed: 7 }))
                .unwrap();
            let (lease, obs_len) = match &read_frames(&mut stream, 1)[..] {
                [Frame::LeaseGrant { lease, obs_len, .. }] => (*lease, *obs_len as usize),
                other => panic!("batched={batched}: {other:?}"),
            };
            stream
                .write_all(&wire::encode_to_vec(&Frame::Obs {
                    lease,
                    seq: 1,
                    values: vec![0.125; obs_len],
                }))
                .unwrap();
            match &read_frames(&mut stream, 1)[..] {
                [Frame::Act { seq: 1, values, .. }] => assert_eq!(values.len(), 1),
                [Frame::Shed { .. }] => {} // wall-clock jitter may shed
                other => panic!("batched={batched}: {other:?}"),
            }
            stream
                .write_all(&wire::encode_to_vec(&Frame::Release { lease }))
                .unwrap();
            match &read_frames(&mut stream, 1)[..] {
                [Frame::Released { .. }] => {}
                other => panic!("batched={batched}: {other:?}"),
            }
            drop(server);
        }
    }

    /// Regression: worker 0 dropped an expired lease's queued replies, but
    /// the owning connection kept its id until an explicit `Release`, so a
    /// long-lived connection with churn grew its lease list without bound.
    /// The routes now live only in the `Loopback`: once worker 0 reaps a
    /// lease, its route is gone and the owning socket reads nothing more
    /// for it — not even for an observation worker 1 ingested but had not
    /// flushed when the reap landed.
    #[test]
    fn a_reaped_lease_leaves_no_route_and_sends_nothing_more() {
        let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
            eprintln!("skipping TCP test: bind failed");
            return;
        };
        listener.set_nonblocking(true).unwrap();
        let shared = Shared::new(ServeConfig {
            pool: PoolConfig {
                lease_ttl_s: 1e-3,
                ..PoolConfig::default()
            },
            batched: true,
        });
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // Worker 1 accepts and owns the connection; worker 0 reaps.
        let (mut reaper, mut owner) = (Vec::new(), Vec::new());
        let mut buf = vec![0u8; READ_BUF];
        let deadline = Instant::now() + Duration::from_secs(5);
        while owner.is_empty() {
            assert!(Instant::now() < deadline, "never accepted");
            cycle(1, &listener, &shared, &mut owner, &mut buf);
        }
        let conn = owner[0].id;
        for seed in 1..=5u64 {
            client
                .write_all(&wire::encode_to_vec(&Frame::LeaseReq { model: 1, seed }))
                .unwrap();
            while !cycle(1, &listener, &shared, &mut owner, &mut buf) {
                assert!(Instant::now() < deadline, "seed {seed}: request never read");
            }
            // Exactly the grant: no reply for the lease reaped before it.
            let (lease, obs_len) = match &read_frames(&mut client, 1)[..] {
                [Frame::LeaseGrant { lease, obs_len, .. }] => (*lease, *obs_len as usize),
                other => panic!("seed {seed}: {other:?}"),
            };
            let obs = Frame::Obs {
                lease,
                seq: 0,
                values: vec![0.5; obs_len],
            };
            shared.transport().send_frame(conn, &obs, shared.now_s());
            // Fall silent past the TTL and let worker 0 reap the lease.
            std::thread::sleep(Duration::from_millis(3));
            cycle(0, &listener, &shared, &mut reaper, &mut buf);
            assert_eq!(shared.transport().routes().get(&lease), None);
        }
        shared.transport().flush(shared.now_s());
        cycle(1, &listener, &shared, &mut owner, &mut buf);
        assert_eq!(owner.len(), 1);
        assert!(shared.transport().routes().is_empty());
        client.set_nonblocking(true).unwrap();
        let err = client.read(&mut [0u8; 64]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
    }

    /// Every worker closes the batching window for what it ingested. Here
    /// worker 1 owns every socket and worker 0 never runs, so each client's
    /// `Act` arrives only if worker 1 flushes. A server that flushed on
    /// worker 0 alone still answered `tcp_clients_read_the_acts_a_loopback_serves`,
    /// because worker 0's own clients kept closing the shared window.
    #[test]
    fn clients_of_worker_one_alone_read_their_acts() {
        let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
            eprintln!("skipping TCP test: bind failed");
            return;
        };
        listener.set_nonblocking(true).unwrap();
        let shared = Shared::new(ServeConfig {
            pool: PoolConfig::default(),
            batched: true,
        });
        let addr = listener.local_addr().unwrap();
        let mut clients: Vec<TcpStream> =
            (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let (mut owner, mut buf) = (Vec::new(), vec![0u8; READ_BUF]);
        let deadline = Instant::now() + Duration::from_secs(5);
        while owner.len() < clients.len() {
            assert!(Instant::now() < deadline, "never accepted");
            cycle(1, &listener, &shared, &mut owner, &mut buf);
        }
        // Send `frame`, then run worker 1 until the client reads one reply.
        let mut exchange = |client: &mut TcpStream, frame: &Frame| {
            client.write_all(&wire::encode_to_vec(frame)).unwrap();
            client.set_nonblocking(true).unwrap();
            let (mut acc, mut chunk) = (Vec::new(), [0u8; 4096]);
            loop {
                assert!(Instant::now() < deadline, "no reply to {frame:?}");
                cycle(1, &listener, &shared, &mut owner, &mut buf);
                match client.read(&mut chunk) {
                    Ok(n) => acc.extend_from_slice(&chunk[..n]),
                    Err(e) => assert_eq!(e.kind(), ErrorKind::WouldBlock),
                }
                if let Some((reply, _)) = wire::decode(&acc).unwrap() {
                    return reply;
                }
            }
        };
        for (seed, client) in clients.iter_mut().enumerate() {
            let (lease, obs_len) = match exchange(
                client,
                &Frame::LeaseReq {
                    model: 1,
                    seed: seed as u64,
                },
            ) {
                Frame::LeaseGrant { lease, obs_len, .. } => (lease, obs_len as usize),
                other => panic!("client {seed}: {other:?}"),
            };
            let obs = Frame::Obs {
                lease,
                seq: 1,
                values: vec![0.25; obs_len],
            };
            match exchange(client, &obs) {
                Frame::Act {
                    lease: l, seq: 1, ..
                } if l == lease => {}
                other => panic!("client {seed}: {other:?}"),
            }
        }
    }

    #[test]
    fn tcp_metrics_scrape_over_http() {
        let Some(server) = try_server(true) else {
            return;
        };
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut acc = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut buf = [0u8; 4096];
        while Instant::now() < deadline {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    acc.extend_from_slice(&buf[..n]);
                    if acc.windows(4).any(|w| w == b"\r\n\r\n") {
                        let text = String::from_utf8_lossy(&acc);
                        if text.contains("serve_http_requests") {
                            break;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) => panic!("read: {e}"),
            }
        }
        let text = String::from_utf8_lossy(&acc);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("serve_utilization"), "{text}");
        drop(server);
    }
}
