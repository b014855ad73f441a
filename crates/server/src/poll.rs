//! The readiness loop: a fixed pool of I/O threads multiplexing every
//! connection over non-blocking sockets, each thread blocked in
//! `poll(2)` until the kernel reports something to do.
//!
//! An I/O thread's wait set is its **wake socket** plus every connection
//! that waits on something: `POLLIN` while it reads, `POLLOUT` while
//! output is queued, both read from its outbox under the outbox's lock.
//! A connection that waits on neither (it stopped
//! reading and owes responses still in the service) is left out of the
//! set, because `poll` reports a peer's `POLLHUP`/`POLLERR` even for an
//! empty event mask and would spin the loop until the response arrives.
//! The timeout is the earliest connection idle deadline, session reap
//! deadline, or retry time of a session operation refused for queue
//! room, which no socket announces: [`RETRY`] after the refusal, fixed
//! when it happens, so traffic that wakes the thread sooner does not
//! put it off. Each iteration pumps only the connections that `poll`
//! reported ready, that the inbox touched, or whose deadline passed. An
//! idle thread therefore sleeps until a byte arrives or a deadline
//! falls due, and a thread that owns no connection sleeps until
//! something is posted.
//!
//! The [`IoShared`] inbox is the only channel into an I/O thread: the
//! accept thread posts `(token, stream)` pairs, ticket callbacks post
//! session completions and the tokens of connections they left work
//! for, and shutdown is a flag. Every post writes one byte to the wake
//! socket, coalesced by an `AtomicBool` so that a burst of posts costs
//! one byte and one wake-up. A completed hash, tree or ML-KEM request
//! does not come through here at all: its callback writes the response
//! to the socket itself (see the `conn` module).

use crate::conn::Connection;
use crate::session::SessionEvent;
use crate::ServerConfig;
use krv_service::ShardedService;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long after a refusal a session operation refused for queue room
/// is retried: no socket event announces that the admission queue has
/// drained.
pub(crate) const RETRY: Duration = Duration::from_millis(1);

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
    /// Connections a completion left work for: bytes the socket did not
    /// take, a failed socket, or a draining connection with nothing left
    /// in flight.
    touched: Vec<u64>,
    /// Session operation completions (each carrying the advanced sponge
    /// or tree state) routed by token to the owning connection's session
    /// table.
    events: Vec<SessionEvent>,
    /// Set once; the thread drains every connection and exits.
    shutdown: bool,
}

/// The shared half of an I/O thread: its inbox and the wake socket its
/// `poll` waits on.
#[derive(Debug)]
pub(crate) struct IoShared {
    inbox: Mutex<Inbox>,
    /// Set by the post that writes a wake byte; later posts skip the
    /// write until the thread clears it.
    woken: AtomicBool,
    /// The write end of the wake socket.
    waker: UnixStream,
    /// The read end, first in the thread's wait set.
    wake: UnixStream,
}

impl IoShared {
    /// An empty inbox over a fresh, non-blocking wake socket pair.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create or configure the pair.
    pub fn new() -> io::Result<Self> {
        let (waker, wake) = UnixStream::pair()?;
        waker.set_nonblocking(true)?;
        wake.set_nonblocking(true)?;
        Ok(Self {
            inbox: Mutex::default(),
            woken: AtomicBool::new(false),
            waker,
            wake,
        })
    }

    /// Puts something in the inbox, then writes the wake byte unless an
    /// earlier post already has.
    fn post(&self, put: impl FnOnce(&mut Inbox)) {
        put(&mut self.inbox.lock().expect("io inbox"));
        if !self.woken.swap(true, Ordering::SeqCst) {
            // The byte only has to exist; a write that fails leaves a
            // byte unread already.
            let _ = (&self.waker).write(&[1]);
        }
    }

    /// Hands an accepted connection to the thread.
    pub fn post_conn(&self, token: u64, stream: TcpStream) {
        self.post(|inbox| inbox.conns.push((token, stream)));
    }

    /// Asks the thread to pump `token`'s connection. Called from ticket
    /// callbacks; never blocks on I/O.
    pub fn post_touch(&self, token: u64) {
        self.post(|inbox| inbox.touched.push(token));
    }

    /// Posts a session completion for `event.token`'s connection.
    /// Called from ticket callbacks; never blocks on I/O.
    pub fn post_event(&self, event: SessionEvent) {
        self.post(|inbox| inbox.events.push(event));
    }

    /// Tells the thread to drain its connections and exit.
    pub fn begin_shutdown(&self) {
        self.post(|inbox| inbox.shutdown = true);
    }

    /// Drains the wake socket, clears the flag, then takes the inbox, in
    /// that order. A post whose byte the drain consumed lands in this
    /// take. A post after the clear writes a new byte, or finds the flag
    /// set by one whose byte is written after the drain, so the next
    /// `poll` wakes for it. (Clearing before the drain would lose that
    /// wake: a byte written between the two is drained and its flag
    /// left set, so a post after the take writes nothing.) The shutdown
    /// flag is sticky: it is copied, not cleared.
    fn take(&self) -> Inbox {
        let mut sink = [0u8; 64];
        while matches!((&self.wake).read(&mut sink), Ok(n) if n > 0) {}
        self.woken.store(false, Ordering::SeqCst);
        let mut inbox = self.inbox.lock().expect("io inbox");
        Inbox {
            conns: std::mem::take(&mut inbox.conns),
            touched: std::mem::take(&mut inbox.touched),
            events: std::mem::take(&mut inbox.events),
            shutdown: inbox.shutdown,
        }
    }
}

/// The I/O thread body: waits for readiness and pumps what is ready,
/// until shutdown has drained every connection.
pub(crate) fn run(ctx: IoCtx) {
    let mut conns: HashMap<u64, Connection> = HashMap::new();
    let mut scratch = vec![0u8; SCRATCH_LEN];
    let mut draining = false;
    // The wait set: the wake socket, then one entry per connection, in
    // the order of `tokens` and `deadlines`.
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut tokens: Vec<u64> = Vec::new();
    let mut deadlines: Vec<Option<Instant>> = Vec::new();
    let mut due: Vec<u64> = Vec::new();
    loop {
        let now = Instant::now();
        fds.clear();
        tokens.clear();
        deadlines.clear();
        fds.push(sys::PollFd::new(ctx.shared.wake.as_raw_fd(), sys::POLLIN));
        for (&token, conn) in &conns {
            fds.push(wait_entry(conn));
            tokens.push(token);
            deadlines.push(conn.deadline(&ctx));
        }
        let wake_at = deadlines.iter().flatten().min();
        let timeout = wake_at.map(|at| at.saturating_duration_since(now));
        if let Err(error) = sys::wait(&mut fds, timeout) {
            panic!("poll(2) failed on an I/O thread: {error}");
        }

        let now = Instant::now();
        due.clear();
        for ((fd, &token), deadline) in fds[1..].iter().zip(&tokens).zip(&deadlines) {
            if fd.revents != 0 || deadline.is_some_and(|at| at <= now) {
                due.push(token);
            }
        }
        if fds[0].revents != 0 {
            let Inbox {
                conns: new_conns,
                touched,
                events,
                shutdown,
            } = ctx.shared.take();
            if shutdown && !draining {
                draining = true;
                for (&token, conn) in conns.iter_mut() {
                    conn.start_drain();
                    due.push(token);
                }
            }
            for (token, stream) in new_conns {
                if let Ok(mut conn) = Connection::adopt(stream, token, &ctx) {
                    if draining {
                        conn.start_drain();
                    }
                    conns.insert(token, conn);
                    due.push(token);
                }
            }
            for event in events {
                // A vanished connection's events fall on the floor with
                // it.
                let token = event.token;
                if let Some(conn) = conns.get_mut(&token) {
                    conn.on_event(event, &ctx);
                    due.push(token);
                }
            }
            due.extend(touched);
        }

        due.sort_unstable();
        due.dedup();
        for token in &due {
            // Touches for already-closed tokens (a completion racing its
            // connection's close) find nothing here.
            let Some(conn) = conns.get_mut(token) else {
                continue;
            };
            if conn.pump(&ctx, &mut scratch, now) {
                conns.remove(token);
            }
        }

        if draining && conns.is_empty() {
            return;
        }
    }
}

/// A connection's wait-set entry: `POLLIN` while it reads, `POLLOUT`
/// while output is queued. One that waits on neither gets fd −1, which
/// `poll` skips: a peer's `POLLHUP`/`POLLERR` is reported even for an
/// empty event mask and would spin the loop while a response is owed.
fn wait_entry(conn: &Connection) -> sys::PollFd {
    let (read, write) = conn.waits_on();
    let events = if read { sys::POLLIN } else { 0 } | if write { sys::POLLOUT } else { 0 };
    let fd = if events == 0 { -1 } else { conn.fd() };
    sys::PollFd::new(fd, events)
}

/// The one foreign call: `poll(2)`, from the C library that std already
/// links. Nothing else in the crate is `unsafe`.
#[allow(unsafe_code)]
mod sys {
    use std::ffi::{c_int, c_short};
    use std::io;
    use std::time::Duration;

    /// `nfds_t`.
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    /// `nfds_t`.
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    /// Data to read, or a peer's FIN.
    pub const POLLIN: c_short = 0x1;
    /// Room to write.
    pub const POLLOUT: c_short = 0x4;

    /// `struct pollfd`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        fd: c_int,
        events: c_short,
        /// What the kernel reported; errors and hang-ups included.
        pub revents: c_short,
    }

    impl PollFd {
        /// Waits on `events` of `fd`; `poll` skips a negative `fd`.
        pub fn new(fd: c_int, events: c_short) -> Self {
            Self {
                fd,
                events,
                revents: 0,
            }
        }
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Blocks until an entry of `fds` is ready or `timeout` passes
    /// (`None`: no timeout), then returns how many are ready. A signal
    /// that interrupts the wait reads as none ready.
    ///
    /// # Errors
    ///
    /// The OS error of a failed `poll` other than `EINTR`.
    pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
        let ms = match timeout {
            None => -1,
            // Rounded up: a deadline 0.4 ms away must not turn into a
            // zero timeout that spins until it passes.
            Some(timeout) => timeout
                .as_nanos()
                .div_ceil(1_000_000)
                .min(c_int::MAX as u128) as c_int,
        };
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // values laid out as `struct pollfd`, and `poll` reads and writes
        // exactly its first `fds.len()` entries and keeps no pointer past
        // the call.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
        if ready >= 0 {
            return Ok(ready as usize);
        }
        let error = io::Error::last_os_error();
        match error.kind() {
            io::ErrorKind::Interrupted => Ok(0),
            _ => Err(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wake_ready(shared: &IoShared, timeout: Duration) -> bool {
        let mut fds = [sys::PollFd::new(shared.wake.as_raw_fd(), sys::POLLIN)];
        sys::wait(&mut fds, Some(timeout)).expect("poll") == 1
    }

    #[test]
    fn a_burst_of_posts_writes_one_wake_byte() {
        let shared = IoShared::new().expect("wake pair");
        let start = Instant::now();
        assert!(
            !wake_ready(&shared, Duration::from_millis(20)),
            "the wake socket was readable with nothing posted"
        );
        assert!(
            start.elapsed() >= Duration::from_millis(20),
            "poll timed out early"
        );
        shared.post_touch(7);
        shared.post_touch(8);
        shared.begin_shutdown();
        assert!(wake_ready(&shared, Duration::ZERO));
        let mut bytes = [0u8; 8];
        assert_eq!((&shared.wake).read(&mut bytes).expect("one byte"), 1);
        assert!(
            !wake_ready(&shared, Duration::ZERO),
            "posts were not coalesced"
        );

        let inbox = shared.take();
        assert_eq!(inbox.touched, vec![7, 8]);
        assert!(inbox.conns.is_empty() && inbox.events.is_empty() && inbox.shutdown);
        // The take cleared the flag, so the next post wakes again.
        shared.post_touch(9);
        assert!(wake_ready(&shared, Duration::ZERO));
        assert_eq!(shared.take().touched, vec![9]);
        assert!(!wake_ready(&shared, Duration::ZERO));
    }
}
