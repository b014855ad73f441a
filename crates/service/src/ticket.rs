//! Completion tickets: the caller's handle to an in-flight request.

use crate::tier::TierKind;
use krv_core::PoolError;
use krv_kyber::{KemError, KemResult};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Why a submitted request produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The request's deadline elapsed while it was still queued; it was
    /// dropped at batch formation without occupying an engine slot.
    TimedOut,
    /// A round the request rode in failed on the pool and failed again
    /// on its single retry; the pool error of the final attempt is
    /// attached.
    WorkerFailure {
        /// The pool error reported by the retry.
        error: PoolError,
    },
    /// An ML-KEM operation's key or ciphertext failed FIPS 203 input
    /// validation — a caller error, detected at batch formation before
    /// any hardware was dispatched.
    InvalidInput(KemError),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::TimedOut => {
                write!(f, "deadline elapsed before the request was dispatched")
            }
            RequestError::WorkerFailure { error } => {
                write!(f, "batch failed after retry: {error}")
            }
            RequestError::InvalidInput(error) => write!(f, "invalid KEM input: {error}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Where a completed request's time went, and in what company it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTiming {
    /// Admission to batch formation: how long the request sat in the
    /// queue waiting for a batch to close around it.
    pub queue: Duration,
    /// From the start of the batch's first round to the end of the
    /// round the request finished in: one round for a one-shot hash or
    /// a stream operation, every round of a tree operation or of an
    /// ML-KEM operation's staged pipeline with its interleaved CPU work. Includes any retry and
    /// mirror replay of those rounds; zero for a request that timed out
    /// or failed validation before dispatch.
    pub service: Duration,
    /// Admission to completion, end to end.
    pub total: Duration,
    /// Requests in the batch this one rode in.
    pub batch_size: usize,
    /// State slots the pool offered when the batch closed; `batch_size /
    /// batch_slots` is the batch's fill ratio.
    pub batch_slots: usize,
    /// The tier that served (or, for a timeout, would have served) the
    /// request.
    pub tier: TierKind,
    /// Whether a round the request rode in was retried after losing a
    /// pool worker.
    pub retried: bool,
}

/// The outcome of one request: its result or an error, plus its timing.
///
/// `T` is the request kind's [`Request::Output`](crate::Request::Output):
/// the squeezed bytes of a one-shot hash (the default), a
/// [`StreamOutput`] or a [`krv_kyber::KemResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion<T = Vec<u8>> {
    /// What the request produced, or why it produced nothing. A failed
    /// stream operation loses its session state: the session must be
    /// abandoned.
    pub result: Result<T, RequestError>,
    /// Where the request's latency went.
    pub timing: RequestTiming,
}

/// What a successful stream or tree operation hands back: the advanced
/// session state (to carry into the session's next operation) and
/// whatever bytes the operation squeezed.
///
/// `S` is the session state: a [`krv_sha3::SpongeState`] for a
/// [`StreamRequest`] (the default), a [`krv_sha3::TreeState`] for a
/// [`TreeRequest`](crate::TreeRequest).
///
/// [`StreamRequest`]: crate::StreamRequest
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOutput<S = krv_sha3::SpongeState> {
    /// The session's state after this operation, ready to be
    /// resubmitted with the next chunk.
    pub state: Box<S>,
    /// The squeezed bytes (the request's `squeeze_len` of them; empty
    /// for a pure absorb).
    pub output: Vec<u8>,
}

/// What a ticket's slot currently holds: nothing yet, a completion
/// nobody has claimed, a registered callback, or proof of delivery.
enum SlotState<T> {
    /// Neither the scheduler nor the caller has acted yet.
    Pending,
    /// The scheduler completed first; the completion waits for the
    /// caller (a blocking [`Ticket::wait`] or a late
    /// [`Ticket::on_complete`] registration).
    Completed(T),
    /// The caller registered a callback first; the scheduler will run
    /// it on completion.
    Callback(Box<dyn FnOnce(T) + Send>),
    /// The completion has been handed to a callback; nothing remains.
    Delivered,
}

impl<T: std::fmt::Debug> std::fmt::Debug for SlotState<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotState::Pending => write!(f, "Pending"),
            SlotState::Completed(completion) => {
                f.debug_tuple("Completed").field(completion).finish()
            }
            SlotState::Callback(_) => write!(f, "Callback(..)"),
            SlotState::Delivered => write!(f, "Delivered"),
        }
    }
}

/// The slot a ticket resolves through: the scheduler writes the
/// completion (or runs the registered callback), the waiting caller is
/// woken by the condvar. Public only so [`crate::Request`]'s hidden
/// lowering can name it; the module is private.
#[derive(Debug)]
pub struct TicketCell<T> {
    slot: Mutex<SlotState<T>>,
    ready: Condvar,
}

impl<T> Default for TicketCell<T> {
    fn default() -> Self {
        Self {
            slot: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
        }
    }
}

impl<T> TicketCell<T> {
    /// Publishes the completion: wakes every blocked waiter, or runs the
    /// registered callback (outside the lock — callbacks may take their
    /// own locks).
    pub(crate) fn complete(&self, completion: T) {
        let mut slot = self.slot.lock().expect("ticket lock");
        match std::mem::replace(&mut *slot, SlotState::Delivered) {
            SlotState::Pending => {
                *slot = SlotState::Completed(completion);
                drop(slot);
                self.ready.notify_all();
            }
            SlotState::Callback(callback) => {
                drop(slot);
                callback(completion);
            }
            // The scheduler resolves each ticket exactly once; a second
            // completion would be a bug, but swallowing it beats
            // panicking a scheduler thread.
            SlotState::Completed(_) | SlotState::Delivered => {}
        }
    }
}

/// A handle to one in-flight request, returned by
/// [`Service::submit`](crate::Service::submit) and its siblings.
///
/// `T` is what the request produces (see [`Completion`]). The scheduler
/// resolves every admitted ticket exactly once — with a result, a
/// timeout, a worker-failure or an invalid-input error — including
/// during a shutdown drain, so [`Ticket::wait`] never blocks forever.
#[derive(Debug)]
pub struct Ticket<T = Vec<u8>> {
    pub(crate) cell: Arc<TicketCell<Completion<T>>>,
}

/// The ticket of a streaming operation.
pub type StreamTicket = Ticket<StreamOutput>;

/// The ticket of an ML-KEM operation.
pub type KemTicket = Ticket<KemResult>;

impl<T> Ticket<T> {
    /// Whether the request has completed (so [`Self::wait`] would return
    /// immediately).
    pub fn is_ready(&self) -> bool {
        matches!(
            *self.cell.slot.lock().expect("ticket lock"),
            SlotState::Completed(_)
        )
    }

    /// Blocks until the request completes and returns its outcome.
    pub fn wait(self) -> Completion<T> {
        let mut slot = self.cell.slot.lock().expect("ticket lock");
        loop {
            if let SlotState::Completed(_) = *slot {
                match std::mem::replace(&mut *slot, SlotState::Delivered) {
                    SlotState::Completed(completion) => return completion,
                    _ => unreachable!("state checked under the same lock"),
                }
            }
            slot = self.cell.ready.wait(slot).expect("ticket lock");
        }
    }

    /// Registers `callback` to run with the completion instead of
    /// blocking for it, consuming the ticket.
    ///
    /// If the request has already completed, the callback runs
    /// immediately on the calling thread; otherwise it runs on the
    /// scheduler thread when the request resolves (including during a
    /// shutdown drain — every admitted ticket resolves exactly once, so
    /// the callback is guaranteed to run eventually). The service's
    /// metrics already count the completion when the callback runs.
    /// Callbacks should be quick and must not block on the service: they
    /// execute on the thread that dispatches every batch.
    ///
    /// This is what lets a network connection multiplex thousands of
    /// in-flight requests without a waiting thread per ticket.
    pub fn on_complete(self, callback: impl FnOnce(Completion<T>) + Send + 'static) {
        let mut slot = self.cell.slot.lock().expect("ticket lock");
        match std::mem::replace(&mut *slot, SlotState::Delivered) {
            SlotState::Pending => {
                *slot = SlotState::Callback(Box::new(callback));
            }
            SlotState::Completed(completion) => {
                drop(slot);
                callback(completion);
            }
            // `on_complete` consumes the only ticket, so the slot cannot
            // already hold a callback or have delivered.
            SlotState::Callback(_) | SlotState::Delivered => {
                unreachable!("ticket consumed twice")
            }
        }
    }
}
