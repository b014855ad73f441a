//! The shared admission queue and the batching scheduler thread.
//!
//! Lock discipline: the queue mutex and the stats mutex are never held
//! simultaneously except in admission, which acquires queue → stats;
//! nothing acquires them in the other order, and ticket cells are only
//! locked while holding neither.

use crate::metrics::{BatchTally, ShardMetrics};
use crate::ticket::{
    Completion, KemCompletion, KemRequestError, KemTicket, RequestError, RequestTiming,
    StreamCompletion, StreamOutput, StreamTicket, Ticket, TicketCell,
};
use crate::tier::{TierKind, TierPolicy};
use crate::{HashRequest, KemRequest, ServiceConfig, StreamRequest, SubmitError};
use krv_core::{EnginePool, PoolError};
use krv_keccak::KeccakState;
use krv_kyber::{HashJob, KemJob, KemResult};
use krv_native::NativeBackend;
use krv_sha3::{drive_stream, PermutationBackend, SpongeState, StreamItem, StreamOp};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The three kinds of admitted work: a one-shot hash, one streaming
/// session operation, and one ML-KEM operation. All ride the same queue,
/// micro-batches and dispatch function; they differ in how their sponge
/// operations are formed (a fresh state, the session's state, or the
/// rounds of the staged KEM pipeline) and in what their tickets carry
/// back.
#[derive(Debug)]
pub(crate) enum Work {
    Hash {
        request: HashRequest,
        ticket: Arc<TicketCell<Completion>>,
    },
    Stream {
        request: StreamRequest,
        ticket: Arc<TicketCell<StreamCompletion>>,
    },
    Kem {
        request: KemRequest,
        ticket: Arc<TicketCell<KemCompletion>>,
    },
}

/// One admitted request waiting for a batch.
#[derive(Debug)]
pub(crate) struct Pending {
    pub work: Work,
    pub enqueued: Instant,
    /// The client the request was submitted for — the fair-share
    /// accounting key.
    pub client: u64,
    /// Fair-share units this entry holds while queued: 1 for a one-shot
    /// hash, byte-weighted ([`StreamRequest::fair_share_cost`]) for a
    /// stream operation.
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

    /// Admission of a one-shot hash request (cost: one fair-share unit).
    /// A refusal hands the request back so the caller can retry it later
    /// (a server session table parks refused operations instead of
    /// losing their bytes).
    pub fn submit(
        &self,
        client: u64,
        request: HashRequest,
    ) -> Result<Ticket, (HashRequest, SubmitError)> {
        let cell = Arc::new(TicketCell::default());
        let work = Work::Hash {
            request,
            ticket: Arc::clone(&cell),
        };
        match self.admit(client, work, 1) {
            Ok(()) => Ok(Ticket { cell }),
            Err((Work::Hash { request, .. }, error)) => Err((request, error)),
            Err(_) => unreachable!("hash work returns as hash work"),
        }
    }

    /// Admission of one streaming operation (byte-weighted cost, so
    /// fair-share throttling counts session *bytes*, not frames). As for
    /// [`Self::submit`], a refusal hands the request — sponge state and
    /// chunk included — back to the caller.
    pub fn submit_stream(
        &self,
        client: u64,
        request: StreamRequest,
    ) -> Result<StreamTicket, (StreamRequest, SubmitError)> {
        let cost = request.fair_share_cost();
        let cell = Arc::new(TicketCell::default());
        let work = Work::Stream {
            request,
            ticket: Arc::clone(&cell),
        };
        match self.admit(client, work, cost) {
            Ok(()) => Ok(StreamTicket { cell }),
            Err((Work::Stream { request, .. }, error)) => Err((request, error)),
            Err(_) => unreachable!("stream work returns as stream work"),
        }
    }

    /// Admission of one KEM operation. Cost scales with the parameter
    /// set's rank `k` ([`KemRequest::fair_share_cost`]): an ML-KEM-1024
    /// keygen holds twice the admission units of an ML-KEM-512 one,
    /// matching its share of matrix-expansion hash work. As for
    /// [`Self::submit`], a refusal hands the request back untouched.
    // The large Err is the contract: a refusal must return the
    // operation by value so no key/ciphertext bytes are lost.
    #[allow(clippy::result_large_err)]
    pub fn submit_kem(
        &self,
        client: u64,
        request: KemRequest,
    ) -> Result<KemTicket, (KemRequest, SubmitError)> {
        let cost = request.fair_share_cost();
        let cell = Arc::new(TicketCell::default());
        let work = Work::Kem {
            request,
            ticket: Arc::clone(&cell),
        };
        match self.admit(client, work, cost) {
            Ok(()) => Ok(KemTicket { cell }),
            Err((Work::Kem { request, .. }, error)) => Err((request, error)),
            Err(_) => unreachable!("kem work returns as kem work"),
        }
    }

    /// Admission: bounded, with explicit rejection — the backpressure
    /// half of the service contract. A client already holding its
    /// fair share of admission units is throttled before global
    /// capacity is even consulted, so one hot client cannot starve the
    /// rest. (The threshold is `held >= share`, so a single operation
    /// costing more than the whole share still admits for an idle
    /// client — its units then throttle everything after it.)
    /// A refusal returns the work untouched alongside the error, so no
    /// request bytes (or stream sponge state) are ever lost to
    /// backpressure.
    #[allow(clippy::result_large_err)] // refusals return the work by value
    fn admit(&self, client: u64, work: Work, cost: usize) -> Result<(), (Work, SubmitError)> {
        let mut state = self.state.lock().expect("queue lock");
        if !state.open {
            return Err((work, SubmitError::ShuttingDown));
        }
        let held = state.per_client.get(&client).copied().unwrap_or(0);
        if let Some(share) = self.fair_share {
            if held >= share {
                self.stats.lock().expect("stats lock").throttled += 1;
                return Err((work, SubmitError::ClientThrottled { client, held }));
            }
        }
        if state.queue.len() >= self.queue_capacity {
            let depth = state.queue.len();
            self.stats.lock().expect("stats lock").rejected += 1;
            return Err((work, SubmitError::QueueFull { depth }));
        }
        state.per_client.insert(client, held + cost);
        state.queue.push_back(Pending {
            work,
            enqueued: Instant::now(),
            client,
            cost,
        });
        self.stats.lock().expect("stats lock").submitted += 1;
        drop(state);
        self.arrivals.notify_all();
        Ok(())
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

/// One live (not expired) one-shot hash of a batch: the request, its
/// ticket and when it was admitted.
type HashPending = (HashRequest, Arc<TicketCell<Completion>>, Instant);

/// One live (not expired) stream operation of a batch: the request, its
/// ticket and when it was admitted.
type StreamPending = (StreamRequest, Arc<TicketCell<StreamCompletion>>, Instant);

/// One live KEM operation riding a batch through the staged pipeline.
struct KemLive {
    /// The staged FIPS 203 state machine driving the operation.
    job: KemJob,
    ticket: Arc<TicketCell<KemCompletion>>,
    enqueued: Instant,
    /// A latched round-dispatch failure: the job stops advancing and
    /// completes as [`KemRequestError::WorkerFailure`] after the lane
    /// drains.
    failed: Option<PoolError>,
    /// Whether any dispatch group this job rode in was retried.
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

/// How one dispatch group went.
struct Dispatch {
    /// `Err` when the primary tier failed twice: every item of the call
    /// fails.
    outcome: Result<(), PoolError>,
    retried: bool,
    /// Time on the primary tier, retry included, mirror excluded.
    service: Duration,
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
/// the shared queue, routes each dispatch group by the tier policy and
/// resolves tickets.
pub(crate) struct Scheduler {
    shared: Arc<Shared>,
    pool: EnginePool,
    native: NativeBackend,
    tier: TierPolicy,
    /// Dispatch groups routed so far; drives the mirror sampler.
    groups_dispatched: u64,
    max_wait: Duration,
}

impl Scheduler {
    pub fn new(shared: Arc<Shared>, config: &ServiceConfig) -> Self {
        Self {
            shared,
            pool: EnginePool::new(config.kernel, config.sn, config.workers),
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

    /// Dispatches one closed batch: expires overdue requests, then runs
    /// its lanes in order — the one-shot hashes as one dispatch group,
    /// the stream operations as one, and each KEM round as one — and
    /// resolves every ticket. One-shot tickets therefore complete before
    /// any of the batch's stream or KEM work is dispatched.
    fn process_batch(&mut self, batch: Vec<Pending>) {
        let clock = BatchClock {
            formed: Instant::now(),
            batch_size: batch.len(),
            slots: self.pool.capacity().max(1),
            tier: self.tier.primary,
        };

        // Deadline check happens exactly once, at batch formation: an
        // expired request completes as TimedOut without costing a slot.
        let mut tally = BatchTally {
            batches: 1,
            fill_sum: clock.batch_size as f64 / clock.slots as f64,
            ..BatchTally::default()
        };
        let mut hash_live: Vec<HashPending> = Vec::new();
        let mut stream_live: Vec<StreamPending> = Vec::new();
        let mut kem_live: Vec<KemLive> = Vec::new();
        for pending in batch {
            let waited = clock.formed.duration_since(pending.enqueued);
            let expired_timing = clock.timing(pending.enqueued, Duration::ZERO, false);
            match pending.work {
                Work::Hash { request, ticket } => {
                    if request.deadline.is_some_and(|d| waited >= d) {
                        ticket.complete(Completion {
                            result: Err(RequestError::TimedOut),
                            timing: expired_timing,
                        });
                        tally.timeouts += 1;
                    } else {
                        hash_live.push((request, ticket, pending.enqueued));
                    }
                }
                Work::Stream { request, ticket } => {
                    if request.deadline.is_some_and(|d| waited >= d) {
                        ticket.complete(StreamCompletion {
                            result: Err(RequestError::TimedOut),
                            timing: expired_timing,
                        });
                        tally.timeouts += 1;
                    } else {
                        stream_live.push((request, ticket, pending.enqueued));
                    }
                }
                Work::Kem { request, ticket } => {
                    if request.deadline.is_some_and(|d| waited >= d) {
                        ticket.complete(KemCompletion {
                            result: Err(KemRequestError::TimedOut),
                            timing: expired_timing,
                        });
                        tally.timeouts += 1;
                    } else {
                        // FIPS 203 input validation runs here, before
                        // any hardware dispatch: a malformed key or
                        // ciphertext is the caller's error and resolves
                        // immediately without riding the pipeline.
                        match KemJob::new(request.params, request.op) {
                            Ok(job) => kem_live.push(KemLive {
                                job,
                                ticket,
                                enqueued: pending.enqueued,
                                failed: None,
                                retried: false,
                            }),
                            Err(error) => {
                                ticket.complete(KemCompletion {
                                    result: Err(KemRequestError::InvalidInput(error)),
                                    timing: expired_timing,
                                });
                                tally.kem_invalid += 1;
                            }
                        }
                    }
                }
            }
        }

        if !hash_live.is_empty() {
            self.hash_lane(hash_live, &clock, &mut tally);
        }
        if !stream_live.is_empty() {
            self.stream_lane(stream_live, &clock, &mut tally);
        }
        if !kem_live.is_empty() {
            self.kem_lane(kem_live, &clock, &mut tally);
        }

        let mut stats = self.shared.stats.lock().expect("stats lock");
        stats.fold(tally);
        stats.alive_workers = self.pool.alive_workers();
        stats.batch_slots = self.pool.capacity().max(1);
    }

    /// The one-shot lane: every live hash request of the batch, whatever
    /// its sponge parameters, as a one-shot operation on a fresh state
    /// in one dispatch group.
    fn hash_lane(&mut self, live: Vec<HashPending>, clock: &BatchClock, tally: &mut BatchTally) {
        let mut states: Vec<SpongeState> = live
            .iter()
            .map(|(request, _, _)| SpongeState::new(request.params))
            .collect();
        let mut outputs: Vec<Vec<u8>> = live
            .iter()
            .map(|(request, _, _)| vec![0u8; request.output_len])
            .collect();
        let mut items: Vec<StreamItem<'_>> = states
            .iter_mut()
            .zip(&mut outputs)
            .zip(&live)
            .map(|((state, out), (request, _, _))| StreamItem {
                state,
                op: StreamOp::one_shot(&request.message, out),
            })
            .collect();
        let dispatch = self.dispatch(&mut items, tally);
        for ((_, ticket, enqueued), output) in live.into_iter().zip(outputs) {
            let timing = clock.timing(enqueued, dispatch.service, dispatch.retried);
            let result = match &dispatch.outcome {
                Ok(()) => {
                    tally.served(&timing);
                    Ok(output)
                }
                Err(error) => {
                    tally.worker_failures += 1;
                    Err(RequestError::WorkerFailure {
                        error: error.clone(),
                    })
                }
            };
            ticket.complete(Completion { result, timing });
        }
    }

    /// The streaming lane: every live stream operation of the batch, on
    /// its session's own state, in one dispatch group.
    fn stream_lane(
        &mut self,
        mut live: Vec<StreamPending>,
        clock: &BatchClock,
        tally: &mut BatchTally,
    ) {
        let mut outputs: Vec<Vec<u8>> = live
            .iter()
            .map(|(request, _, _)| vec![0u8; request.squeeze_len])
            .collect();
        let mut items: Vec<StreamItem<'_>> = live
            .iter_mut()
            .zip(&mut outputs)
            .map(|((request, _, _), out)| StreamItem {
                state: &mut request.state,
                op: StreamOp {
                    absorb: &request.absorb,
                    finalize: request.finalize,
                    squeeze: out,
                },
            })
            .collect();
        let dispatch = self.dispatch(&mut items, tally);
        for ((request, ticket, enqueued), output) in live.into_iter().zip(outputs) {
            let timing = clock.timing(enqueued, dispatch.service, dispatch.retried);
            let result = match &dispatch.outcome {
                Ok(()) => {
                    tally.served(&timing);
                    tally.stream_ops += 1;
                    tally.stream_absorbed += request.absorb.len() as u64;
                    tally.stream_squeezed += output.len() as u64;
                    Ok(StreamOutput {
                        state: request.state,
                        output,
                    })
                }
                Err(error) => {
                    tally.worker_failures += 1;
                    Err(RequestError::WorkerFailure {
                        error: error.clone(),
                    })
                }
            };
            ticket.complete(StreamCompletion { result, timing });
        }
    }

    /// The KEM lane: every live operation's staged FIPS 203 state machine
    /// advances in lockstep, and each round packs the pending Keccak jobs
    /// of *all* operations — across requests and sponge parameters — into
    /// one dispatch group. This is where the cross-request batching pays
    /// off: one client's matrix-expansion SHAKE128 squeezes ride the same
    /// SN-wide passes as another client's G and PRF calls, filling engine
    /// slots a single operation could not. A round that fails twice
    /// latches the failure onto every operation in it.
    fn kem_lane(&mut self, mut live: Vec<KemLive>, clock: &BatchClock, tally: &mut BatchTally) {
        let started = Instant::now();
        loop {
            let round: Vec<usize> = (0..live.len())
                .filter(|&j| live[j].failed.is_none() && !live[j].job.is_done())
                .collect();
            if round.is_empty() {
                break;
            }
            let jobs: Vec<&HashJob> = round.iter().flat_map(|&j| live[j].job.pending()).collect();
            let mut states: Vec<SpongeState> = jobs
                .iter()
                .map(|hash_job| SpongeState::new(hash_job.params))
                .collect();
            let mut outputs: Vec<Vec<u8>> = jobs
                .iter()
                .map(|hash_job| vec![0u8; hash_job.output_len])
                .collect();
            let mut items: Vec<StreamItem<'_>> = states
                .iter_mut()
                .zip(&mut outputs)
                .zip(&jobs)
                .map(|((state, out), hash_job)| StreamItem {
                    state,
                    op: StreamOp::one_shot(&hash_job.input, out),
                })
                .collect();
            tally.kem_dispatches += 1;
            tally.kem_hash_jobs += items.len() as u64;
            let dispatch = self.dispatch(&mut items, tally);
            let mut outputs = outputs.into_iter();
            for j in round {
                let kem = &mut live[j];
                kem.retried |= dispatch.retried;
                match &dispatch.outcome {
                    Ok(()) => {
                        let count = kem.job.pending().len();
                        kem.job.advance(outputs.by_ref().take(count).collect());
                    }
                    Err(error) => kem.failed = Some(error.clone()),
                }
            }
        }

        let service = started.elapsed();
        for kem in live {
            let timing = clock.timing(kem.enqueued, service, kem.retried);
            let result = match kem.failed {
                None => {
                    tally.served(&timing);
                    let result = kem.job.into_result();
                    match result {
                        KemResult::Keygen { .. } => tally.kem_keygen += 1,
                        KemResult::Encaps { .. } => tally.kem_encaps += 1,
                        KemResult::Decaps { .. } => tally.kem_decaps += 1,
                    }
                    Ok(result)
                }
                Some(error) => {
                    tally.worker_failures += 1;
                    Err(KemRequestError::WorkerFailure { error })
                }
            };
            kem.ticket.complete(KemCompletion { result, timing });
        }
    }

    /// The one dispatch path every lane shares; one call is one dispatch
    /// group. It drives `items` through [`drive_stream`] on the primary
    /// tier; on a pool error it restores the state snapshots and retries
    /// once on the surviving workers; and for a group the mirror sampler
    /// picks, it replays the snapshots through the other tier and counts
    /// every item whose output or final state differs.
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
        let started = Instant::now();
        let mut outcome = drive(self.tier.primary, items);
        let retried = outcome.is_err();
        if retried {
            tally.retries += 1;
            for (item, snapshot) in items.iter_mut().zip(&snapshots) {
                item.state.clone_from(snapshot);
            }
            outcome = drive(self.tier.primary, items);
        }
        let service = started.elapsed();

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
        Dispatch {
            outcome,
            retried,
            service,
        }
    }
}
