//! The shared admission queue and the batching scheduler thread.
//!
//! Lock discipline: the queue mutex and the stats mutex are never held
//! simultaneously except in admission, which acquires queue → stats;
//! nothing acquires them in the other order, and ticket cells are only
//! locked while holding neither.

use crate::metrics::{BatchTally, ShardMetrics};
use crate::ticket::{Completion, RequestError, RequestTiming, StreamOutput, Ticket, TicketCell};
use crate::tier::{TierKind, TierPolicy};
use crate::{
    HashRequest, KemRequest, Request, ServiceConfig, StreamRequest, SubmitError, TreeRequest,
};
use krv_core::{EnginePool, KernelKind, PoolError};
use krv_keccak::KeccakState;
use krv_kyber::{KemError, KemJob, KemResult, KemStaging};
use krv_native::NativeBackend;
use krv_sha3::{
    drive_stream, PermutationBackend, SpongeState, StreamItem, StreamOp, TreeJob, TreeState,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The ticket cell a request producing `T` resolves through.
type CompletionCell<T> = Arc<TicketCell<Completion<T>>>;

/// An admitted request of one of the four kinds, with the ticket cell
/// its completion resolves. Public only so [`Request`]'s hidden lowering
/// can name it; the module is private.
#[derive(Debug)]
pub enum Work {
    /// A one-shot hash.
    Hash(HashRequest, CompletionCell<Vec<u8>>),
    /// One operation of a streaming session.
    Stream(StreamRequest, CompletionCell<StreamOutput>),
    /// One operation of a tree session.
    Tree(TreeRequest, CompletionCell<StreamOutput<TreeState>>),
    /// One ML-KEM operation.
    Kem(KemRequest, CompletionCell<KemResult>),
}

/// One admitted request waiting for a batch.
#[derive(Debug)]
pub(crate) struct Pending {
    pub work: Work,
    pub enqueued: Instant,
    /// The request's deadline, relative to `enqueued`.
    pub deadline: Option<Duration>,
    /// The client the request was submitted for — the fair-share
    /// accounting key.
    pub client: u64,
    /// Fair-share units this entry holds while queued: its
    /// [`Request::fair_share_cost`] — 1 for a one-shot hash,
    /// byte-weighted for a stream or tree operation, the rank `k` for an
    /// ML-KEM operation.
    pub cost: usize,
}

/// Everything behind the queue mutex.
#[derive(Debug)]
pub(crate) struct QueueState {
    pub queue: VecDeque<Pending>,
    /// Queue slots currently held per client id; entries are removed
    /// when they reach zero, so the map is bounded by the number of
    /// clients with requests in the queue.
    pub per_client: HashMap<u64, usize>,
    /// `false` once shutdown begins: admission refuses, the scheduler
    /// drains what is queued and then exits.
    pub open: bool,
    /// Failure-injection drills: worker indices the scheduler kills at
    /// the next batch boundary.
    pub kill_requests: Vec<usize>,
}

impl QueueState {
    /// Drains up to `slots` requests off the queue front, releasing
    /// their fair-share holds.
    fn drain_batch(&mut self, slots: usize) -> Vec<Pending> {
        let take = self.queue.len().min(slots);
        let batch: Vec<Pending> = self.queue.drain(..take).collect();
        for pending in &batch {
            if let Some(held) = self.per_client.get_mut(&pending.client) {
                *held = held.saturating_sub(pending.cost);
                if *held == 0 {
                    self.per_client.remove(&pending.client);
                }
            }
        }
        batch
    }
}

/// State shared between the submitting callers and the scheduler thread.
#[derive(Debug)]
pub(crate) struct Shared {
    pub state: Mutex<QueueState>,
    /// Signalled on every admission, close and kill request.
    pub arrivals: Condvar,
    /// The ledger; its `queue_depth` stays zero, since readers take it
    /// from the queue.
    pub stats: Mutex<ShardMetrics>,
    pub queue_capacity: usize,
    /// Per-client admission cap (`None` = unlimited): the fair-share
    /// half of the backpressure contract.
    pub fair_share: Option<usize>,
    /// Mirroring drill: once set, every native-tier digest is corrupted
    /// so the differential oracle has something to catch.
    pub native_corruption: AtomicBool,
}

impl Shared {
    pub fn new(config: &ServiceConfig) -> Self {
        Self {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                per_client: HashMap::new(),
                open: true,
                kill_requests: Vec::new(),
            }),
            arrivals: Condvar::new(),
            stats: Mutex::new(ShardMetrics {
                alive_workers: config.workers,
                batch_slots: config.batch_slots(),
                ..ShardMetrics::default()
            }),
            queue_capacity: config.queue_capacity,
            fair_share: config.fair_share,
            native_corruption: AtomicBool::new(false),
        }
    }

    /// Admission: bounded, with explicit rejection — the backpressure
    /// half of the service contract. A client already holding its
    /// fair share of admission units is throttled before global
    /// capacity is even consulted, so one hot client cannot starve the
    /// rest. (The threshold is `held >= share`, so a single request
    /// costing more than the whole share still admits for an idle
    /// client — its units then throttle everything after it.)
    /// Admission is checked before the request is lowered for the
    /// queue, so a refusal hands the caller's request back untouched:
    /// no message bytes, stream sponge state or KEM key is ever lost to
    /// backpressure.
    pub fn admit<R: Request>(
        &self,
        client: u64,
        request: R,
    ) -> Result<Ticket<R::Output>, (R, SubmitError)> {
        let cost = request.fair_share_cost();
        let ticket = Ticket {
            cell: Arc::default(),
        };
        let mut state = self.state.lock().expect("queue lock");
        if !state.open {
            return Err((request, SubmitError::ShuttingDown));
        }
        let held = state.per_client.get(&client).copied().unwrap_or(0);
        if let Some(share) = self.fair_share {
            if held >= share {
                self.stats.lock().expect("stats lock").throttled += 1;
                return Err((request, SubmitError::ClientThrottled { client, held }));
            }
        }
        if state.queue.len() >= self.queue_capacity {
            let depth = state.queue.len();
            self.stats.lock().expect("stats lock").rejected += 1;
            return Err((request, SubmitError::QueueFull { depth }));
        }
        state.per_client.insert(client, held + cost);
        state.queue.push_back(Pending {
            deadline: request.deadline(),
            work: request.lower(&ticket),
            enqueued: Instant::now(),
            client,
            cost,
        });
        self.stats.lock().expect("stats lock").submitted += 1;
        drop(state);
        self.arrivals.notify_all();
        Ok(ticket)
    }

    /// Stops admission; the scheduler drains the queue and exits.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").open = false;
        self.arrivals.notify_all();
    }

    /// Queues a worker kill for the scheduler to apply at the next batch
    /// boundary.
    pub fn request_kill(&self, worker: usize) {
        self.state
            .lock()
            .expect("queue lock")
            .kill_requests
            .push(worker);
        self.arrivals.notify_all();
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        self.state.lock().expect("queue lock").queue.len()
    }

    /// Arms the native-corruption drill.
    pub fn corrupt_native(&self) {
        self.native_corruption.store(true, Ordering::Relaxed);
    }
}

impl Work {
    /// Readies the ticket's failure, without running the request.
    fn fail(self, error: RequestError, timing: RequestTiming) -> Delivery {
        match self {
            Work::Hash(_, ticket) => deliver(ticket, Err(error), timing),
            Work::Stream(_, ticket) => deliver(ticket, Err(error), timing),
            Work::Tree(_, ticket) => deliver(ticket, Err(error), timing),
            Work::Kem(_, ticket) => deliver(ticket, Err(error), timing),
        }
    }

    /// Lowers a live request into the job that runs it. FIPS 203 input
    /// validation runs here, before any dispatch: a malformed key or
    /// ciphertext is the caller's error and comes back with its ticket.
    fn start(self) -> Result<Job, (KemError, CompletionCell<KemResult>)> {
        Ok(match self {
            Work::Hash(request, ticket) => Job::Hash {
                output: vec![0u8; request.output_len],
                request: StreamRequest::finalize(
                    Box::new(SpongeState::new(request.params)),
                    request.message,
                    request.output_len,
                ),
                ticket,
            },
            Work::Stream(request, ticket) => Job::Stream {
                output: vec![0u8; request.squeeze_len],
                request,
                ticket,
            },
            Work::Tree(request, ticket) => Job::Tree {
                job: TreeJob::new(
                    request.state,
                    request.chunk,
                    request.finalize,
                    request.squeeze_len,
                ),
                ticket,
            },
            Work::Kem(request, ticket) => match KemJob::new(request.params, request.op) {
                Ok(job) => Job::Kem {
                    job: Box::new(job),
                    staging: KemStaging::new(),
                    ticket,
                },
                Err(error) => return Err((error, ticket)),
            },
        })
    }
}

/// A completion already counted in the ledger, waiting to reach its
/// ticket.
type Delivery = Box<dyn FnOnce()>;

fn deliver<T: 'static>(
    ticket: CompletionCell<T>,
    result: Result<T, RequestError>,
    timing: RequestTiming,
) -> Delivery {
    Box::new(move || ticket.complete(Completion { result, timing }))
}

/// One live request of a batch, lowered to the sponge operations it
/// yields round by round.
enum Job {
    /// A one-shot hash: one round on a fresh state, absorbing the
    /// message, padding and squeezing the digest.
    Hash {
        request: StreamRequest,
        output: Vec<u8>,
        ticket: CompletionCell<Vec<u8>>,
    },
    /// A stream operation: one round on the session's state.
    Stream {
        request: StreamRequest,
        output: Vec<u8>,
        ticket: CompletionCell<StreamOutput>,
    },
    /// A tree operation: its [`TreeJob`]'s rounds, each up to
    /// [`crate::LEAVES_PER_ROUND`] leaves plus the root.
    Tree {
        job: TreeJob,
        ticket: CompletionCell<StreamOutput<TreeState>>,
    },
    /// An ML-KEM operation: one round per stage of its [`KemJob`], each
    /// running the stage's pending hash jobs on fresh states, staged in
    /// buffers the job keeps across its rounds.
    Kem {
        job: Box<KemJob>,
        staging: KemStaging,
        ticket: CompletionCell<KemResult>,
    },
}

impl Job {
    /// Appends this round's sponge operations, borrowing the job's
    /// inputs, and counts the KEM hash jobs among them.
    fn push_items<'a>(&'a mut self, items: &mut Vec<StreamItem<'a>>, tally: &mut BatchTally) {
        match self {
            Job::Hash {
                request, output, ..
            }
            | Job::Stream {
                request, output, ..
            } => items.push(StreamItem {
                state: &mut request.state,
                op: StreamOp {
                    absorb: &request.absorb,
                    finalize: request.finalize,
                    squeeze: output,
                },
            }),
            Job::Tree { job, .. } => job.push_items(items),
            Job::Kem { job, staging, .. } => {
                let pending = job.pending();
                tally.kem_hash_jobs += pending.len() as u64;
                staging.push_items(pending, items);
            }
        }
    }

    /// Consumes a served round's outputs; whether the job has finished.
    fn advance(&mut self) -> bool {
        match self {
            Job::Hash { .. } | Job::Stream { .. } => true,
            Job::Tree { job, .. } => job.advance(),
            Job::Kem { job, staging, .. } => {
                job.advance(staging.outputs());
                job.is_done()
            }
        }
    }

    /// Counts the finished job in `tally` — served, or failed with the
    /// round's pool error — and readies its completion.
    fn finish(
        self,
        outcome: Result<(), PoolError>,
        timing: RequestTiming,
        tally: &mut BatchTally,
    ) -> Delivery {
        match self {
            Job::Hash { output, ticket, .. } => {
                let result = tally.finish(outcome.map(|()| output), &timing);
                deliver(ticket, result, timing)
            }
            Job::Stream {
                request,
                output,
                ticket,
            } => {
                let absorbed = request.absorb.len();
                let result = outcome.map(|()| tally.stream_op(absorbed, request.state, output));
                deliver(ticket, tally.finish(result, &timing), timing)
            }
            Job::Tree { job, ticket } => {
                let absorbed = job.chunk_len();
                let result = outcome.map(|()| {
                    let (state, output) = job.into_output();
                    tally.stream_op(absorbed, state, output)
                });
                deliver(ticket, tally.finish(result, &timing), timing)
            }
            Job::Kem { job, ticket, .. } => {
                let result = outcome.map(|()| {
                    let result = job.into_result();
                    match result {
                        KemResult::Keygen { .. } => tally.kem_keygen += 1,
                        KemResult::Encaps { .. } => tally.kem_encaps += 1,
                        KemResult::Decaps { .. } => tally.kem_decaps += 1,
                    }
                    result
                });
                deliver(ticket, tally.finish(result, &timing), timing)
            }
        }
    }
}

/// A live job and what its ticket's timing needs.
struct Live {
    job: Job,
    enqueued: Instant,
    /// Whether a round this job rode in was retried.
    retried: bool,
}

/// What every ticket of one batch shares in its [`RequestTiming`].
struct BatchClock {
    formed: Instant,
    batch_size: usize,
    slots: usize,
    tier: TierKind,
}

impl BatchClock {
    fn timing(&self, enqueued: Instant, service: Duration, retried: bool) -> RequestTiming {
        RequestTiming {
            queue: self.formed.duration_since(enqueued),
            service,
            total: enqueued.elapsed(),
            batch_size: self.batch_size,
            batch_slots: self.slots,
            tier: self.tier,
            retried,
        }
    }
}

/// How one round's dispatch went.
struct Dispatch {
    /// `Err` when the primary tier failed twice: every job of the round
    /// fails.
    outcome: Result<(), PoolError>,
    retried: bool,
}

/// Routes `drive_stream`'s permutation calls to the pool, latching the
/// first dispatch error instead of panicking: after an error every
/// further permute is a no-op, `drive_stream` terminates normally (its
/// schedule is driven by byte counts, not state contents) and the
/// caller discards the garbage states and outputs and handles the error.
struct SupervisedBackend<'a> {
    pool: &'a mut EnginePool,
    error: Option<PoolError>,
}

impl PermutationBackend for SupervisedBackend<'_> {
    fn permute_all(&mut self, states: &mut [KeccakState]) {
        if self.error.is_none() {
            self.error = self.pool.permute_slice(states).err();
        }
    }
}

/// The scheduler thread: owns both execution tiers (the simulator
/// engine pool and the host-native kernel), forms micro-batches from
/// the shared queue, runs each batch's rounds, routes each round by the
/// tier policy and resolves tickets.
pub(crate) struct Scheduler {
    shared: Arc<Shared>,
    pool: EnginePool,
    native: NativeBackend,
    tier: TierPolicy,
    /// Dispatch groups (rounds) routed so far; drives the mirror
    /// sampler.
    groups_dispatched: u64,
    max_wait: Duration,
}

impl Scheduler {
    pub fn new(shared: Arc<Shared>, config: &ServiceConfig) -> Self {
        Self {
            shared,
            pool: EnginePool::new(KernelKind::E64Lmul8, config.sn, config.workers),
            native: NativeBackend::new(),
            tier: config.tier,
            groups_dispatched: 0,
            max_wait: config.max_wait,
        }
    }

    /// Serves until the queue is closed and drained.
    pub fn run(mut self) {
        while let Some(batch) = self.next_batch() {
            self.process_batch(batch);
        }
    }

    /// Blocks until a batch closes: every pool slot fillable, the oldest
    /// request aged past `max_wait`, or shutdown draining the remainder.
    /// Returns `None` once the queue is closed and empty.
    fn next_batch(&mut self) -> Option<Vec<Pending>> {
        let mut state = self.shared.state.lock().expect("queue lock");
        loop {
            if !state.kill_requests.is_empty() {
                let kills = std::mem::take(&mut state.kill_requests);
                drop(state);
                for worker in kills {
                    if worker < self.pool.workers() {
                        self.pool.kill_worker(worker);
                    }
                }
                state = self.shared.state.lock().expect("queue lock");
                continue;
            }
            // Slots are re-read every pass: a worker death observed by
            // the previous batch shrinks the close threshold too.
            let slots = self.pool.capacity().max(1);
            let draining = !state.open && !state.queue.is_empty();
            if state.queue.len() >= slots || draining {
                return Some(state.drain_batch(slots));
            }
            if !state.open {
                return None;
            }
            match state.queue.front() {
                Some(oldest) => {
                    let age = oldest.enqueued.elapsed();
                    if age >= self.max_wait {
                        return Some(state.drain_batch(slots));
                    }
                    state = self
                        .shared
                        .arrivals
                        .wait_timeout(state, self.max_wait - age)
                        .expect("queue lock")
                        .0;
                }
                None => {
                    state = self.shared.arrivals.wait(state).expect("queue lock");
                }
            }
        }
    }

    /// Dispatches one closed batch. Deadlines and ML-KEM inputs are
    /// checked once, at batch formation; every other request becomes a
    /// live job. Rounds then run until no job has operations left: each
    /// round packs every live job's operations into one dispatch, and a
    /// job's ticket completes at the end of the round it finishes in.
    /// Each step folds its tally into the ledger before completing the
    /// tickets it counts.
    fn process_batch(&mut self, batch: Vec<Pending>) {
        let clock = BatchClock {
            formed: Instant::now(),
            batch_size: batch.len(),
            slots: self.pool.capacity().max(1),
            tier: self.tier.primary,
        };
        let mut tally = BatchTally {
            batches: 1,
            fill_sum: clock.batch_size as f64 / clock.slots as f64,
            ..BatchTally::default()
        };
        let mut done = Vec::new();
        let mut live = Vec::new();
        for pending in batch {
            // An expired or invalid request completes without costing a
            // slot.
            let timing = clock.timing(pending.enqueued, Duration::ZERO, false);
            let waited = clock.formed.duration_since(pending.enqueued);
            if pending.deadline.is_some_and(|deadline| waited >= deadline) {
                tally.timeouts += 1;
                done.push(pending.work.fail(RequestError::TimedOut, timing));
                continue;
            }
            match pending.work.start() {
                Ok(job) => live.push(Live {
                    job,
                    enqueued: pending.enqueued,
                    retried: false,
                }),
                Err((error, ticket)) => {
                    tally.kem_invalid += 1;
                    let error = RequestError::InvalidInput(error);
                    done.push(deliver(ticket, Err(error), timing));
                }
            }
        }
        self.settle(tally, done);

        let started = Instant::now();
        while !live.is_empty() {
            let mut tally = BatchTally::default();
            let dispatch = {
                let mut items = Vec::new();
                for live in &mut live {
                    live.job.push_items(&mut items, &mut tally);
                }
                tally.kem_dispatches = u64::from(tally.kem_hash_jobs > 0);
                self.dispatch(&mut items, &mut tally)
            };
            let finished: Vec<Live> = live
                .extract_if(.., |live| {
                    live.retried |= dispatch.retried;
                    dispatch.outcome.is_err() || live.job.advance()
                })
                .collect();
            let service = started.elapsed();
            let done = finished
                .into_iter()
                .map(|live| {
                    let timing = clock.timing(live.enqueued, service, live.retried);
                    live.job
                        .finish(dispatch.outcome.clone(), timing, &mut tally)
                })
                .collect();
            self.settle(tally, done);
        }
    }

    /// Folds a tally into the ledger, then completes the tickets it
    /// counts, so a caller woken by its ticket already finds its request
    /// in the metrics.
    fn settle(&self, tally: BatchTally, done: Vec<Delivery>) {
        {
            let mut stats = self.shared.stats.lock().expect("stats lock");
            stats.fold(tally);
            stats.alive_workers = self.pool.alive_workers();
            stats.batch_slots = self.pool.capacity().max(1);
        }
        for delivery in done {
            delivery();
        }
    }

    /// Dispatches one round; one call is one dispatch group. It drives
    /// `items` through [`drive_stream`] on the primary tier; on a pool
    /// error it restores the state snapshots and retries once on the
    /// surviving workers; and for a round the mirror sampler picks, it
    /// replays the snapshots through the other tier and counts every
    /// item whose output or final state differs.
    ///
    /// The simulator pool runs behind [`SupervisedBackend`], so a lost
    /// worker surfaces as an error. The native kernel is infallible host
    /// code that can only fail by producing wrong bits — which is what
    /// the corruption drill simulates, flipping the first squeezed byte
    /// of every item whenever the native tier drives.
    fn dispatch(&mut self, items: &mut [StreamItem<'_>], tally: &mut BatchTally) -> Dispatch {
        let group_index = self.groups_dispatched;
        self.groups_dispatched += 1;
        let corrupt = self.shared.native_corruption.load(Ordering::Relaxed);
        let (pool, native) = (&mut self.pool, &mut self.native);
        let mut drive = |tier: TierKind, items: &mut [StreamItem<'_>]| match tier {
            TierKind::Simulator => {
                let mut backend = SupervisedBackend {
                    pool: &mut *pool,
                    error: None,
                };
                drive_stream(&mut backend, items);
                backend.error.map_or(Ok(()), Err)
            }
            TierKind::Native => {
                drive_stream(&mut *native, items);
                if corrupt {
                    for item in items.iter_mut() {
                        if let Some(byte) = item.op.squeeze.first_mut() {
                            *byte ^= 0x80;
                        }
                    }
                }
                Ok(())
            }
        };

        // A failed attempt leaves the states garbage mid-stream, so the
        // retry restores them first; the mirror replays them too.
        let snapshots: Vec<SpongeState> = items.iter().map(|item| item.state.clone()).collect();
        let mut outcome = drive(self.tier.primary, items);
        let retried = outcome.is_err();
        if retried {
            tally.retries += 1;
            for (item, snapshot) in items.iter_mut().zip(&snapshots) {
                item.state.clone_from(snapshot);
            }
            outcome = drive(self.tier.primary, items);
        }

        // Mirroring is best-effort: a mirror-side pool failure skips the
        // sample rather than failing served requests.
        if outcome.is_ok() && self.tier.mirrors(group_index) {
            let mut states = snapshots;
            let mut outputs: Vec<Vec<u8>> = items
                .iter()
                .map(|item| vec![0u8; item.op.squeeze.len()])
                .collect();
            let mut mirror: Vec<StreamItem<'_>> = states
                .iter_mut()
                .zip(&mut outputs)
                .zip(items.iter())
                .map(|((state, out), item)| StreamItem {
                    state,
                    op: StreamOp {
                        absorb: item.op.absorb,
                        finalize: item.op.finalize,
                        squeeze: out,
                    },
                })
                .collect();
            if drive(self.tier.primary.other(), &mut mirror).is_ok() {
                tally.mirrored += items.len() as u64;
                tally.mirror_mismatches += items
                    .iter()
                    .zip(&mirror)
                    .filter(|(a, b)| a.state != b.state || a.op.squeeze != b.op.squeeze)
                    .count() as u64;
            }
        }
        Dispatch { outcome, retried }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KemTicket, MetricsSnapshot, StreamTicket, TierPolicy};
    use krv_kyber::{KemOp, KyberParams};
    use krv_sha3::tree::krv_tree_hash256;
    use krv_sha3::{ReferenceBackend, Sponge, SpongeParams, TreeMode};

    /// The one-shots of two sponge parameter sets and a stream operation
    /// that every batch below carries.
    fn admit_sponge_work(shared: &Shared) -> (Ticket, Ticket, StreamTicket) {
        let sha3 = shared.admit(0, HashRequest::sha3_256(b"sha3")).unwrap();
        let shake = shared
            .admit(0, HashRequest::shake128(b"shake", 200))
            .unwrap();
        let state = Box::new(SpongeState::new(SpongeParams::shake(256)));
        let stream = shared
            .admit(0, StreamRequest::finalize(state, *b"stream", 64))
            .unwrap();
        (sha3, shake, stream)
    }

    /// Runs everything queued on `shared` as one batch straight through
    /// `process_batch`, returning the rounds it dispatched and the
    /// ledger.
    fn run_one_batch(shared: &Arc<Shared>, config: &ServiceConfig) -> (u64, MetricsSnapshot) {
        let mut scheduler = Scheduler::new(Arc::clone(shared), config);
        let batch = shared.state.lock().unwrap().drain_batch(usize::MAX);
        scheduler.process_batch(batch);
        let metrics = shared.stats.lock().unwrap().summarize();
        (scheduler.groups_dispatched, metrics)
    }

    /// The rounds a KEM operation's staged pipeline takes, counted by
    /// stepping its [`KemJob`] on the reference backend.
    fn kem_rounds(params: KyberParams, op: KemOp) -> u64 {
        let mut job = KemJob::new(params, op).unwrap();
        let mut rounds = 0;
        while !job.is_done() {
            let outputs: Vec<Vec<u8>> = job
                .pending()
                .iter()
                .map(|hash_job| {
                    let mut sponge = Sponge::new(hash_job.params, ReferenceBackend::new());
                    sponge.absorb(&hash_job.input);
                    sponge.squeeze(hash_job.output_len)
                })
                .collect();
            job.advance(&outputs);
            rounds += 1;
        }
        rounds
    }

    fn config() -> ServiceConfig {
        ServiceConfig {
            tier: TierPolicy::native(),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn one_shots_and_a_stream_operation_share_one_round() {
        let config = config();
        let shared = Arc::new(Shared::new(&config));
        let (sha3, shake, stream) = admit_sponge_work(&shared);
        let (rounds, metrics) = run_one_batch(&shared, &config);
        assert_eq!(
            rounds, 1,
            "two sponge parameter sets and a stream op, one dispatch"
        );
        assert_eq!(metrics.completed, 3);
        assert_eq!(metrics.kem_dispatches, 0);
        for timing in [
            sha3.wait().timing,
            shake.wait().timing,
            stream.wait().timing,
        ] {
            assert_eq!(timing.batch_size, 3);
        }
    }

    #[test]
    fn a_keygen_adds_no_round_beyond_its_own() {
        let config = config();
        let shared = Arc::new(Shared::new(&config));
        let (sha3, shake, stream) = admit_sponge_work(&shared);
        let (params, d, z) = (KyberParams::KYBER512, [7u8; 32], [9u8; 32]);
        let keygen: KemTicket = shared.admit(0, KemRequest::keygen(params, d, z)).unwrap();
        let (rounds, metrics) = run_one_batch(&shared, &config);
        let expected = kem_rounds(params, KemOp::Keygen { d, z });
        assert!(expected > 1, "a keygen runs several rounds");
        assert_eq!(
            rounds, expected,
            "the sponge work rides the keygen's first round"
        );
        assert_eq!(metrics.kem_dispatches, expected);
        assert_eq!(metrics.completed, 4);
        // The one-shots and the stream operation finished in round 1,
        // the keygen in its last round.
        let first = sha3.wait().timing.service;
        assert_eq!(shake.wait().timing.service, first);
        assert_eq!(stream.wait().timing.service, first);
        assert!(keygen.wait().timing.service > first);
    }

    #[test]
    fn a_130_block_tree_takes_four_rounds_and_the_batch_rides_round_one() {
        // Mirroring every round counts each round's items.
        let config = ServiceConfig {
            tier: TierPolicy::native().with_mirror_every(1),
            ..ServiceConfig::default()
        };
        let message = vec![0x5Au8; 130 * 4096];
        let expected = krv_tree_hash256(&message, 32, b"");
        let tree = || TreeRequest::digest(TreeMode::krv_tree256(), b"", message.clone(), 32);

        let shared = Arc::new(Shared::new(&config));
        let alone = shared.admit(0, tree()).unwrap();
        let (rounds, metrics) = run_one_batch(&shared, &config);
        assert_eq!(rounds, 4, "64, 64 and 2 leaves, then the last fold");
        assert_eq!(
            metrics.mirrored,
            65 + 65 + 3 + 1,
            "each round's leaves and root"
        );
        assert_eq!(metrics.mirror_mismatches, 0);
        assert_eq!((metrics.submitted, metrics.completed), (1, 1));
        assert_eq!(metrics.stream_ops, 1);
        assert_eq!(metrics.stream_absorbed, message.len() as u64);
        assert_eq!(alone.wait().result.unwrap().output, expected);

        let shared = Arc::new(Shared::new(&config));
        let (sha3, shake, stream) = admit_sponge_work(&shared);
        let tree = shared.admit(0, tree()).unwrap();
        let (rounds, metrics) = run_one_batch(&shared, &config);
        assert_eq!(
            rounds, 4,
            "the one-shots and the stream operation ride round 1"
        );
        assert_eq!(metrics.mirrored, 134 + 3);
        assert_eq!(metrics.completed, 4);
        let first = sha3.wait().timing.service;
        assert_eq!(shake.wait().timing.service, first);
        assert_eq!(stream.wait().timing.service, first);
        let tree = tree.wait();
        assert!(tree.timing.service > first);
        assert_eq!(tree.result.unwrap().output, expected);
    }
}
