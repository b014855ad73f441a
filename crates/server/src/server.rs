//! The daemon: a TCP listener feeding a fixed pool of I/O threads that
//! multiplex every connection over a sharded service, with a graceful
//! shutdown that drains before it closes.
//!
//! Thread budget is **fixed at bind time**: one accept thread plus
//! [`ServerConfig::io_threads`] I/O threads plus one scheduler thread
//! per shard, which also runs that shard's engine pool — independent of
//! how many connections are open. Ten connections or ten thousand, the
//! daemon runs the same handful of threads; connections are state, not
//! threads.

use crate::poll::{self, IoCtx, IoShared};
use krv_service::{MetricsSnapshot, ServiceConfig, ShardConfig, ShardedService};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How the daemon is shaped: the sharded service underneath, the I/O
/// pool in front of it, and the wire-facing limits every connection is
/// held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// The per-shard continuous-batching service configuration (note
    /// `queue_capacity` and `fair_share` apply per shard).
    pub service: ServiceConfig,
    /// Independent service shards behind the daemon, each with its own
    /// admission queue, scheduler and engine pool. Requests route by a
    /// stable hash of the connection token; `STATS` replies merge every
    /// shard's snapshot.
    pub shards: usize,
    /// Fixed pool of I/O threads multiplexing all connections; each
    /// accepted connection is pinned to one thread round-robin.
    pub io_threads: usize,
    /// Largest accepted frame body in bytes; a longer declared length is
    /// a protocol violation that closes the connection unread.
    pub max_frame: usize,
    /// Most hash requests one connection may have in flight; the excess
    /// is answered `BUSY` without touching the admission queue.
    pub max_in_flight: usize,
    /// A connection that receives no bytes for this long is closed
    /// (after draining whatever it already has in flight) — this is
    /// also what reaps half-open peers that vanished without a FIN.
    pub idle_timeout: Duration,
    /// Most streaming sessions one connection may hold open at once;
    /// an `OPEN` past the cap is answered `SESSION_LIMIT` (survivable —
    /// the connection keeps serving).
    pub max_sessions: usize,
    /// A wire session touched by no frame or completion for this long
    /// is reaped; later frames for its id answer `BAD_SESSION`.
    pub session_idle_timeout: Duration,
    /// Most leaves one tree message — a one-shot tree request, or a
    /// tree session's bytes so far — may need: the bound on the leaf
    /// digests one root absorbs, so client input cannot buy unbounded
    /// root work. A message past it draws `SESSION_LIMIT`. The default
    /// covers a 1 GiB message at the 4 KiB KRV block size.
    pub max_tree_leaves: usize,
}

impl Default for ServerConfig {
    /// A single default service shard behind 2 I/O threads, a 1 MiB
    /// frame limit, a 128-request pipeline window and a 30 s idle
    /// timeout.
    fn default() -> Self {
        Self {
            service: ServiceConfig::default(),
            shards: 1,
            io_threads: 2,
            max_frame: crate::protocol::DEFAULT_MAX_FRAME,
            max_in_flight: 128,
            idle_timeout: Duration::from_secs(30),
            max_sessions: 16,
            session_idle_timeout: Duration::from_secs(30),
            max_tree_leaves: 1 << 18,
        }
    }
}

/// A running remote-hashing daemon.
///
/// Accepts connections until [`Self::shutdown`] (or drop), serving
/// every connection through [`crate::protocol`] framing onto the shared
/// [`ShardedService`]. Shutdown is graceful by construction: accepting
/// stops first, every connection drains its in-flight requests and
/// writes their responses, the I/O threads exit once all sockets are
/// closed, and only then do the service shards drain and stop.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    service: Option<Arc<ShardedService>>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    io_shared: Vec<Arc<IoShared>>,
    io_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (`"127.0.0.1:0"` for an ephemeral test port), starts
    /// the service shards, the I/O pool and the accept thread, and
    /// returns the running daemon.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or the failure to create an I/O
    /// thread's wake socket.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `io_threads` is zero, or on anything
    /// [`ShardedService::start`] panics on.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Self> {
        assert!(config.io_threads > 0, "the I/O pool needs a thread");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let io_shared = (0..config.io_threads)
            .map(|_| IoShared::new().map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;
        let service = Arc::new(ShardedService::start(ShardConfig {
            shards: config.shards,
            service: config.service,
        }));
        let shutdown = Arc::new(AtomicBool::new(false));

        let io_threads = io_shared
            .iter()
            .enumerate()
            .map(|(i, shared)| {
                let ctx = IoCtx {
                    service: Arc::clone(&service),
                    config,
                    shared: Arc::clone(shared),
                };
                std::thread::Builder::new()
                    .name(format!("krv-server-io-{i}"))
                    .spawn(move || poll::run(ctx))
                    .expect("spawn I/O thread")
            })
            .collect();

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let io_shared = io_shared.clone();
            std::thread::Builder::new()
                .name("krv-server-accept".into())
                .spawn(move || {
                    // Token 0 is the anonymous in-process client id;
                    // connections start at 1.
                    let mut next_token = 1u64;
                    loop {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                if shutdown.load(Ordering::Acquire) {
                                    // The shutdown wake-up connection (or
                                    // a late client); either way, refuse.
                                    return;
                                }
                                let token = next_token;
                                next_token += 1;
                                let lane = (token % io_shared.len() as u64) as usize;
                                io_shared[lane].post_conn(token, stream);
                            }
                            Err(_) if shutdown.load(Ordering::Acquire) => return,
                            // A transient accept error (e.g. the peer
                            // reset before we got to it) must not kill
                            // the daemon.
                            Err(_) => {}
                        }
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(Self {
            local_addr,
            service: Some(service),
            shutdown,
            accept: Some(accept),
            io_shared,
            io_threads,
        })
    }

    /// The address the daemon is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The cluster-wide metrics snapshot — every shard's raw metrics
    /// merged (histograms bucket-wise), exactly what a remote caller
    /// gets from a `STATS` request.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.service
            .as_ref()
            .expect("service runs until shutdown")
            .metrics()
    }

    /// Per-shard snapshots, in shard order. Their counters sum to the
    /// merged [`Self::metrics`] counters exactly.
    pub fn shard_metrics(&self) -> Vec<MetricsSnapshot> {
        self.service
            .as_ref()
            .expect("service runs until shutdown")
            .shard_metrics()
            .iter()
            .map(|shard| shard.summarize())
            .collect()
    }

    /// Graceful shutdown: stops accepting, lets every connection drain
    /// its in-flight requests and write their responses, joins the I/O
    /// pool, then drains the shards and returns their merged final
    /// metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop();
        let service = self.service.take().expect("first shutdown");
        match Arc::try_unwrap(service) {
            Ok(service) => service.shutdown(),
            // Unreachable once every I/O thread has been joined, but a
            // metrics snapshot beats a panic if that ever changes.
            Err(service) => service.metrics(),
        }
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept thread: it wakes on this connection, sees
        // the flag and returns.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Every connection is already posted to its I/O thread (the
        // accept thread is joined), so the shutdown flag reaches each
        // inbox after its last connection: nothing is missed.
        for shared in &self.io_shared {
            shared.begin_shutdown();
        }
        for handle in self.io_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    /// Same as [`Self::shutdown`], discarding the final metrics.
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop();
        }
        // Dropping the service Arc closes and joins the shard
        // schedulers.
        self.service.take();
    }
}
