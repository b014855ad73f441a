//! The readiness loop: a fixed pool of I/O threads multiplexing every
//! connection over non-blocking sockets, std-only.
//!
//! There is no OS readiness API in std, so readiness is discovered by
//! *attempting*: each I/O thread sweeps its connections, writing until
//! `WouldBlock` and reading until `WouldBlock`, with all sweep state
//! kept in ordinary owned structs. What makes this a poll loop rather
//! than a busy spin is the **adaptive park**: a sweep that moved no
//! bytes and routed no frames parks the thread on a condvar with a
//! short timeout, and every external event that could create work — an
//! accepted connection, a completed request's response frame, shutdown
//! — notifies that condvar. Under load the loop runs back to back;
//! idle, it costs one timed wait per park interval. A thread that owns
//! no connection has nothing to sweep, so it parks with no timeout
//! until something is posted.
//!
//! The [`IoShared`] inbox is the only channel into an I/O thread:
//! the accept thread posts `(token, stream)` pairs, scheduler threads
//! post `(token, frame)` response pairs from ticket callbacks, and
//! shutdown is a flag. Everything is taken atomically at the top of
//! each sweep, which is what makes the connection-close race solvable:
//! a connection whose in-flight count was zero *before* the take cannot
//! have responses still in flight *after* it (callbacks post before
//! they decrement), so `drained-before-take && flushed-after-pump`
//! proves every response reached the socket.

use crate::conn::Connection;
use crate::session::SessionEvent;
use crate::ServerConfig;
use krv_service::ShardedService;
use std::collections::{HashMap, HashSet};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long an idle I/O thread parks before re-sweeping. Bounds the
/// latency of discovering newly arrived bytes (no readiness API) and of
/// idle-deadline enforcement.
const PARK: Duration = Duration::from_millis(1);

/// Scratch read-buffer size per I/O thread.
const SCRATCH_LEN: usize = 16 * 1024;

/// Everything an I/O thread needs to serve its connections.
#[derive(Debug)]
pub(crate) struct IoCtx {
    /// The sharded backend; submissions route by connection token.
    pub service: Arc<ShardedService>,
    /// Wire-facing limits.
    pub config: ServerConfig,
    /// This thread's own inbox.
    pub shared: Arc<IoShared>,
}

/// The mailbox feeding one I/O thread.
#[derive(Debug, Default)]
struct Inbox {
    /// Newly accepted connections, tagged with their tokens.
    conns: Vec<(u64, TcpStream)>,
    /// Encoded response frames (wire bytes) routed by token.
    frames: Vec<(u64, Vec<u8>)>,
    /// Session operation completions (each carrying the advanced sponge
    /// or tree state) routed by token to the owning connection's session
    /// table.
    events: Vec<SessionEvent>,
    /// Set once; the thread drains every connection and exits.
    shutdown: bool,
}

/// The shared half of an I/O thread: its inbox plus the wake condvar
/// the adaptive park sleeps on.
#[derive(Debug, Default)]
pub(crate) struct IoShared {
    inbox: Mutex<Inbox>,
    wake: Condvar,
}

impl IoShared {
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands an accepted connection to the thread.
    pub fn post_conn(&self, token: u64, stream: TcpStream) {
        self.inbox
            .lock()
            .expect("io inbox")
            .conns
            .push((token, stream));
        self.wake.notify_one();
    }

    /// Posts an encoded response frame for `token`'s connection. Called
    /// from scheduler threads (ticket callbacks); never blocks on I/O.
    pub fn post_frame(&self, token: u64, frame: Vec<u8>) {
        self.inbox
            .lock()
            .expect("io inbox")
            .frames
            .push((token, frame));
        self.wake.notify_one();
    }

    /// Posts a session completion for `event.token`'s connection.
    /// Called from scheduler threads (ticket callbacks); never blocks
    /// on I/O.
    pub fn post_event(&self, event: SessionEvent) {
        self.inbox.lock().expect("io inbox").events.push(event);
        self.wake.notify_one();
    }

    /// Tells the thread to drain its connections and exit.
    pub fn begin_shutdown(&self) {
        self.inbox.lock().expect("io inbox").shutdown = true;
        self.wake.notify_one();
    }

    /// Takes the whole inbox (the shutdown flag is sticky — it is
    /// copied, not cleared). With `park`, first waits up to [`PARK`]
    /// for anything to arrive (the adaptive part: only a sweep that
    /// made no progress parks); with `idle` as well, waits until
    /// something does.
    fn take(&self, park: bool, idle: bool) -> Inbox {
        let empty = |inbox: &Inbox| {
            inbox.conns.is_empty()
                && inbox.frames.is_empty()
                && inbox.events.is_empty()
                && !inbox.shutdown
        };
        let mut inbox = self.inbox.lock().expect("io inbox");
        if park && idle {
            inbox = self.wake.wait_while(inbox, |i| empty(i)).expect("io inbox");
        } else if park && empty(&inbox) {
            inbox = self.wake.wait_timeout(inbox, PARK).expect("io inbox").0;
        }
        Inbox {
            conns: std::mem::take(&mut inbox.conns),
            frames: std::mem::take(&mut inbox.frames),
            events: std::mem::take(&mut inbox.events),
            shutdown: inbox.shutdown,
        }
    }
}

/// The I/O thread body: sweeps its connections until shutdown has
/// drained them all.
pub(crate) fn run(ctx: IoCtx) {
    let mut conns: HashMap<u64, Connection> = HashMap::new();
    let mut scratch = vec![0u8; SCRATCH_LEN];
    let mut draining = false;
    let mut park = false;
    loop {
        // Connections already drained *before* this sweep's inbox take:
        // their callbacks all posted before decrementing, so the take
        // below observes every response frame they will ever produce.
        let closable: HashSet<u64> = conns
            .values()
            .filter(|conn| conn.drained())
            .map(Connection::token)
            .collect();

        let Inbox {
            conns: new_conns,
            frames,
            events,
            shutdown,
        } = ctx.shared.take(park, conns.is_empty() && !draining);
        let mut progress = false;

        if shutdown && !draining {
            draining = true;
            for conn in conns.values_mut() {
                conn.start_drain();
            }
        }
        for (token, stream) in new_conns {
            if let Ok(mut conn) = Connection::adopt(stream, token, &ctx) {
                if draining {
                    conn.start_drain();
                }
                conns.insert(token, conn);
                progress = true;
            }
        }
        for (token, frame) in frames {
            // Frames for already-closed tokens (a peer that died with
            // requests in flight) are dropped here.
            if let Some(conn) = conns.get_mut(&token) {
                conn.push_frame(frame);
                progress = true;
            }
        }
        for event in events {
            // Same routing for session completions: a vanished
            // connection's events fall on the floor with it.
            if let Some(conn) = conns.get_mut(&event.token) {
                conn.on_event(event, &ctx);
                progress = true;
            }
        }

        let now = Instant::now();
        for conn in conns.values_mut() {
            progress |= conn.pump(&ctx, &mut scratch, now);
        }

        conns.retain(|token, conn| {
            if conn.dead {
                return false;
            }
            // Close = proven-drained before the take, still drained,
            // and every outbound byte written.
            !(closable.contains(token) && conn.drained() && conn.flushed())
        });

        if draining && conns.is_empty() {
            return;
        }
        park = !progress;
        if progress {
            // On a loaded single-core host the sweep could otherwise
            // monopolize the core; give the shard schedulers a turn.
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn an_idle_take_blocks_until_something_is_posted() {
        let shared = Arc::new(IoShared::new());
        let (tx, rx) = mpsc::channel();
        let taker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || tx.send(shared.take(true, true)).unwrap())
        };
        assert!(
            rx.recv_timeout(PARK * 20).is_err(),
            "an I/O thread with no connection woke with nothing posted"
        );
        shared.post_frame(7, vec![1, 2, 3]);
        let inbox = rx.recv_timeout(Duration::from_secs(10)).expect("woken");
        assert_eq!(inbox.frames, vec![(7, vec![1, 2, 3])]);
        assert!(inbox.conns.is_empty() && inbox.events.is_empty() && !inbox.shutdown);
        taker.join().unwrap();
    }
}
