//! The traffic a workload drives through the program: one operation at a
//! time started and finished through either the daemon's [`Client`] over
//! loopback TCP or an in-process [`Service`], and the closed and open
//! loops built from those two calls.
//!
//! The load generator is the calling thread (plus the client's reader
//! thread on the wire): the loops never spawn threads of their own.

use crate::trace::span;
use crate::workload::{HashAlg, Input, Output, DIGEST_LEN, SQUEEZE_LEN};
use krv_kyber::{KemOp, KemResult, KyberParams};
use krv_server::protocol::MAX_CHUNK_LEN;
use krv_server::{
    AlgorithmParams, Client, ClientError, KemParameterSet, PendingReply, Response,
    StreamingSession, WireAlgorithm,
};
use krv_service::{
    HashRequest, KemRequest, KemTicket, RequestTiming, Service, StreamRequest, StreamTicket, Ticket,
};
use krv_sha3::{SpongeParams, SpongeState, TreeMode};
use std::cell::Cell;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Where operations go.
#[derive(Clone, Copy)]
pub enum Target<'a> {
    Wire(&'a Client),
    Service(&'a Service),
}

/// A [`Target`] plus the count of wire frames sent through it.
pub struct Lane<'a> {
    target: Target<'a>,
    frames: Cell<u64>,
}

/// An operation that has been sent and not yet finished.
pub struct Started<'a> {
    /// When the first byte of the operation was handed to the program.
    pub sent: Instant,
    /// How long the starting call itself took.
    pub start_call: Duration,
    pending: Pending<'a>,
}

enum Pending<'a> {
    Reply(PendingReply),
    Ticket(Ticket),
    KemTicket(KemTicket),
    Sessions {
        shake: StreamingSession<'a>,
        tree: StreamingSession<'a>,
        acks: Vec<PendingReply>,
    },
    ServiceStream {
        shake: StreamTicket,
        leaves: Vec<Ticket>,
    },
}

/// How an operation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The program refused or failed the operation (BUSY, DEADLINE, an
    /// error reply, a full queue, a transport failure).
    Failed(String),
    /// The program answered, and the answer is wrong.
    Wrong(String),
}

/// One finished operation.
pub struct Outcome {
    /// When the answer reached the caller's side: the client's reader
    /// thread for the wire, the service's completion for a ticket.
    pub done_at: Instant,
    /// When the waiting call returned.
    pub woke: Instant,
    pub verdict: Verdict,
    /// From sending the operation to its answer (`done_at − sent`).
    pub elapsed: Duration,
    /// The service's timing record of every ticket the operation used.
    pub timings: Vec<RequestTiming>,
}

pub fn kem_set(params: KyberParams) -> KemParameterSet {
    KemParameterSet::ALL
        .into_iter()
        .find(|set| set.params() == params)
        .expect("every FIPS 203 parameter set has a wire id")
}

fn client_failure(error: &ClientError) -> String {
    match error {
        ClientError::Remote(remote) => remote.code.name().to_string(),
        ClientError::Io(_) | ClientError::ConnectionClosed => "transport".to_string(),
        ClientError::Protocol(_) => "protocol".to_string(),
        ClientError::UnexpectedResponse => "unexpected-response".to_string(),
    }
}

impl<'a> Lane<'a> {
    pub fn new(target: Target<'a>) -> Self {
        Self {
            target,
            frames: Cell::new(0),
        }
    }

    /// Wire frames sent so far (requests only).
    pub fn frames(&self) -> u64 {
        self.frames.get()
    }

    /// Whether finishing an operation of this kind is a chain of blocking
    /// calls, so an open loop must finish it before the next arrival.
    pub fn blocks(input: &Input) -> bool {
        matches!(input, Input::Stream { .. })
    }

    fn frame(&self) {
        self.frames.set(self.frames.get() + 1);
    }

    /// Sends `input`. A refusal at submission is returned as the failure
    /// kind.
    pub fn start(&self, input: &Input) -> Result<Started<'a>, String> {
        let sent = Instant::now();
        let pending = span("lane.start", || self.start_pending(input))?;
        Ok(Started {
            sent,
            start_call: sent.elapsed(),
            pending,
        })
    }

    fn start_pending(&self, input: &Input) -> Result<Pending<'a>, String> {
        match (self.target, input) {
            (Target::Wire(client), Input::Hash { alg, message, .. }) => {
                self.frame();
                let algorithm = match alg {
                    HashAlg::Sha3_256 => WireAlgorithm::Sha3_256,
                    HashAlg::Shake128 => WireAlgorithm::Shake128,
                };
                client
                    .submit(algorithm, message, DIGEST_LEN, None)
                    .map(Pending::Reply)
                    .map_err(|e| client_failure(&e))
            }
            (Target::Wire(client), Input::Kem { params, op, .. }) => {
                self.frame();
                let set = kem_set(*params);
                match op {
                    KemOp::Keygen { d, z } => client.submit_kem_keygen(set, *d, *z, None),
                    KemOp::Encaps { ek, m } => client.submit_kem_encaps(set, ek, *m, None),
                    KemOp::Decaps { dk, ct } => client.submit_kem_decaps(set, dk, ct, None),
                }
                .map(Pending::Reply)
                .map_err(|e| client_failure(&e))
            }
            (Target::Wire(client), Input::Stream { message, .. }) => {
                let open = |algorithm| {
                    self.frame();
                    client
                        .open_session(algorithm, AlgorithmParams::none())
                        .map_err(|e| client_failure(&e))
                };
                let shake = open(WireAlgorithm::Shake256)?;
                let tree = match open(WireAlgorithm::TreeHash256) {
                    Ok(tree) => tree,
                    Err(kind) => {
                        let _ = shake.close();
                        return Err(kind);
                    }
                };
                let mut acks = Vec::new();
                for chunk in message.chunks(MAX_CHUNK_LEN) {
                    for session in [&shake, &tree] {
                        self.frame();
                        acks.push(
                            session
                                .submit_absorb(chunk)
                                .map_err(|e| client_failure(&e))?,
                        );
                    }
                }
                Ok(Pending::Sessions { shake, tree, acks })
            }
            (Target::Service(service), Input::Hash { alg, message, .. }) => {
                let request = match alg {
                    HashAlg::Sha3_256 => HashRequest::sha3_256(message.as_slice()),
                    HashAlg::Shake128 => HashRequest::shake128(message.as_slice(), DIGEST_LEN),
                };
                service
                    .submit(request)
                    .map(Pending::Ticket)
                    .map_err(|_| "refused".to_string())
            }
            (Target::Service(service), Input::Kem { params, op, .. }) => service
                .submit_kem(KemRequest {
                    params: *params,
                    op: op.clone(),
                    deadline: None,
                })
                .map(Pending::KemTicket)
                .map_err(|_| "refused".to_string()),
            (Target::Service(service), Input::Stream { message, .. }) => {
                // The service-side shape of the two sessions: the SHAKE256
                // chunks as chained stream operations, the tree's 4 KiB
                // leaves as one-shot requests followed by a root request.
                let mode = TreeMode::krv_tree256();
                let leaves = message
                    .chunks(mode.block_size())
                    .map(|chunk| {
                        service
                            .submit(HashRequest::new(chunk, mode.leaf_params(), mode.leaf_len()))
                            .map_err(|_| "refused".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let state = Box::new(SpongeState::new(SpongeParams::shake(256)));
                let first = message.chunks(MAX_CHUNK_LEN).next().unwrap_or(&[]);
                let shake = service
                    .submit_stream(StreamRequest::absorb(state, first))
                    .map_err(|_| "refused".to_string())?;
                Ok(Pending::ServiceStream { shake, leaves })
            }
        }
    }

    /// Waits for a started operation and checks its answer against
    /// `input`.
    pub fn finish(&self, input: &Input, started: Started<'a>) -> Outcome {
        let sent = started.sent;
        let (done_at, timings, answer) = span("lane.finish", || match started.pending {
            Pending::Reply(pending) => match pending.wait() {
                Ok(reply) => {
                    let answer = match reply.response {
                        Response::Digest { bytes, .. } => Ok(Output::Digest(bytes)),
                        Response::KemKeys { ek, dk, .. } => {
                            Ok(Output::Kem(KemResult::Keygen { ek, dk }))
                        }
                        Response::KemCiphertext {
                            ct, shared_secret, ..
                        } => Ok(Output::Kem(KemResult::Encaps { ct, shared_secret })),
                        Response::KemSecret { shared_secret, .. } => {
                            Ok(Output::Kem(KemResult::Decaps { shared_secret }))
                        }
                        Response::Error { code, .. } => Err(Verdict::Failed(code.name().into())),
                        other => Err(Verdict::Wrong(format!("unexpected reply {other:?}"))),
                    };
                    (sent + reply.elapsed, Vec::new(), answer)
                }
                Err(e) => (
                    Instant::now(),
                    Vec::new(),
                    Err(Verdict::Failed(client_failure(&e))),
                ),
            },
            Pending::Ticket(ticket) => {
                let completion = ticket.wait();
                let answer = completion
                    .result
                    .map(Output::Digest)
                    .map_err(|e| Verdict::Failed(e.to_string()));
                let timing = completion.timing;
                (sent + timing.total, vec![timing], answer)
            }
            Pending::KemTicket(ticket) => {
                let completion = ticket.wait();
                let answer = completion
                    .result
                    .map(Output::Kem)
                    .map_err(|e| Verdict::Failed(e.to_string()));
                let timing = completion.timing;
                (sent + timing.total, vec![timing], answer)
            }
            Pending::Sessions { shake, tree, acks } => {
                let answer = self.finish_sessions(shake, tree, acks);
                (Instant::now(), Vec::new(), answer)
            }
            Pending::ServiceStream { shake, leaves } => {
                let mut timings = Vec::new();
                let mut done_at = Instant::now();
                let answer =
                    self.finish_service_stream(input, shake, leaves, &mut timings, &mut done_at);
                (done_at, timings, answer)
            }
        });
        let verdict = match answer {
            Ok(output) if input.accepts(&output) => Verdict::Ok,
            Ok(output) => Verdict::Wrong(format!("wrong answer {output:?}")),
            Err(verdict) => verdict,
        };
        Outcome {
            done_at,
            woke: Instant::now(),
            verdict,
            elapsed: done_at.saturating_duration_since(sent),
            timings,
        }
    }

    fn finish_sessions(
        &self,
        shake: StreamingSession<'a>,
        tree: StreamingSession<'a>,
        acks: Vec<PendingReply>,
    ) -> Result<Output, Verdict> {
        let failed = |e: ClientError| Verdict::Failed(client_failure(&e));
        let run = || -> Result<Output, Verdict> {
            for ack in acks {
                match ack.wait().map_err(failed)?.response {
                    Response::Absorbed { .. } => {}
                    Response::Error { code, .. } => {
                        return Err(Verdict::Failed(code.name().into()))
                    }
                    other => return Err(Verdict::Wrong(format!("unexpected ack {other:?}"))),
                }
            }
            self.frames.set(self.frames.get() + 4);
            shake.finalize(0).map_err(failed)?;
            let shake_out = shake.squeeze(SQUEEZE_LEN).map_err(failed)?;
            tree.finalize(DIGEST_LEN).map_err(failed)?;
            let tree_out = tree.squeeze(DIGEST_LEN).map_err(failed)?;
            Ok(Output::Stream {
                shake: shake_out,
                tree: tree_out,
            })
        };
        let answer = run();
        self.frames.set(self.frames.get() + 2);
        // A failed session may already be gone on the server; closing is
        // best effort either way.
        let _ = shake.close();
        let _ = tree.close();
        answer
    }

    fn finish_service_stream(
        &self,
        input: &Input,
        shake: StreamTicket,
        leaves: Vec<Ticket>,
        timings: &mut Vec<RequestTiming>,
        done_at: &mut Instant,
    ) -> Result<Output, Verdict> {
        let Target::Service(service) = self.target else {
            unreachable!("service streams only start on a service target")
        };
        let Input::Stream { message, .. } = input else {
            unreachable!("service streams only start for stream inputs")
        };
        let failed = |e: &dyn std::fmt::Display| Verdict::Failed(e.to_string());
        let mode = TreeMode::krv_tree256();
        let mut root = mode.root_prefix(b"");
        let leaf_count = leaves.len() as u64;
        for leaf in leaves {
            let completion = leaf.wait();
            timings.push(completion.timing);
            root.extend(completion.result.map_err(|e| failed(&e))?);
        }
        root.extend(mode.root_suffix(leaf_count, DIGEST_LEN));
        let root = service
            .submit(HashRequest::new(root, mode.root_params(), DIGEST_LEN))
            .map_err(|e| failed(&e))?
            .wait();
        timings.push(root.timing);
        let tree = root.result.map_err(|e| failed(&e))?;

        let mut completion = shake.wait();
        for chunk in message.chunks(MAX_CHUNK_LEN).skip(1) {
            timings.push(completion.timing);
            let state = completion.result.map_err(|e| failed(&e))?.state;
            completion = service
                .submit_stream(StreamRequest::absorb(state, chunk))
                .map_err(|e| failed(&e))?
                .wait();
        }
        timings.push(completion.timing);
        let state = completion.result.map_err(|e| failed(&e))?.state;
        let last_sent = Instant::now();
        let completion = service
            .submit_stream(StreamRequest::finalize(state, Vec::new(), SQUEEZE_LEN))
            .map_err(|e| failed(&e))?
            .wait();
        timings.push(completion.timing);
        // The chain is answered when its last operation completes, as the
        // service timed it; the caller wakes after that.
        *done_at = last_sent + completion.timing.total;
        let shake = completion.result.map_err(|e| failed(&e))?.output;
        Ok(Output::Stream { shake, tree })
    }
}

/// Counts of one phase's operations.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failure kinds seen, with counts.
    pub failures: Vec<(String, u64)>,
    /// Descriptions of wrong answers (the run fails if any).
    pub wrong: Vec<String>,
}

impl Tally {
    fn fail_n(&mut self, kind: String, count: u64) {
        self.failed += count;
        match self.failures.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += count,
            None => self.failures.push((kind, count)),
        }
    }

    fn record(&mut self, index: usize, verdict: &Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Ok => {}
            Verdict::Failed(kind) => self.fail_n(kind.clone(), 1),
            Verdict::Wrong(detail) => {
                if self.wrong.len() < 8 {
                    self.wrong.push(format!("operation {index}: {detail}"));
                }
                self.fail_n("wrong".to_string(), 1);
            }
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        for (kind, n) in &other.failures {
            self.fail_n(kind.clone(), *n);
        }
        self.wrong.extend(other.wrong.iter().cloned());
    }
}

/// The ring of inputs and the position of the next operation in it.
pub struct Feed<'r> {
    ring: &'r [Input],
    next: usize,
}

impl<'r> Feed<'r> {
    pub fn new(ring: &'r [Input]) -> Self {
        Self { ring, next: 0 }
    }

    fn take(&mut self) -> (usize, &'r Input) {
        let index = self.next;
        self.next += 1;
        (index, &self.ring[index % self.ring.len()])
    }
}

/// One finished operation of a phase.
pub struct Sample {
    /// When the operation was due (open loop) or sent (closed loop), from
    /// the start of the phase.
    pub at: Duration,
    /// Latency from the operation's due time (open loop) or send time
    /// (closed loop) to its answer, in seconds; `None` if it failed.
    pub latency: Option<f64>,
    pub outcome: Option<Outcome>,
    pub start_call: Duration,
}

/// What a closed loop did.
#[derive(Default)]
pub struct Closed {
    pub tally: Tally,
    /// Operations answered correctly before the phase ended.
    pub completed: u64,
    /// Seconds from the phase start to the last completion counted, so
    /// that a slow operation straddling the end does not quantize the
    /// rate when few operations fit in the phase.
    pub elapsed: f64,
    /// Throughput of each consecutive stretch of at least [`BUCKET`] and
    /// [`BUCKET_OPS`] completions, each ending on a completion, in
    /// operations per second.
    pub bucket_rates: Vec<f64>,
    pub samples: Vec<Sample>,
}

impl Closed {
    /// Completed operations per second.
    pub fn rate(&self) -> f64 {
        self.completed as f64 / self.elapsed.max(f64::MIN_POSITIVE)
    }

    /// Adds the counts of a later part of the same phase.
    pub fn merge(&mut self, part: Closed) {
        self.tally.merge(&part.tally);
        self.completed += part.completed;
        self.elapsed += part.elapsed;
        self.bucket_rates.extend(part.bucket_rates);
        self.samples.extend(part.samples);
    }
}

/// Shortest stretch of a closed phase measured on its own, so a phase
/// yields a median over many stretches and a short burst of interference
/// from outside moves only the stretches it overlaps.
const BUCKET: Duration = Duration::from_millis(500);
/// Fewest completions a stretch holds, so that the work of the
/// operations in flight at its edges stays a small share of it.
const BUCKET_OPS: u64 = 8;

/// Keeps `window` operations in flight for `duration`: each answer is
/// checked and immediately replaced by the next operation. Operations
/// still in flight at the end are finished and checked but not counted
/// as completed in the phase.
///
/// Per-operation samples are kept only with `keep_samples`: their memory
/// grows with throughput, and the measured phases report peak memory.
pub fn closed_loop(
    lane: &Lane<'_>,
    feed: &mut Feed<'_>,
    window: usize,
    duration: Duration,
    keep_samples: bool,
) -> Closed {
    let started = Instant::now();
    let end = started + duration;
    let mut tally = Tally::default();
    let mut completed = 0u64;
    let mut last_counted = started;
    let mut bucket = (started, 0u64);
    let mut bucket_rates = Vec::new();
    let mut samples = Vec::new();
    let mut inflight = VecDeque::new();
    while inflight.len() < window && Instant::now() < end {
        launch(lane, feed, &mut tally, &mut inflight);
    }
    while let Some((index, input, op)) = inflight.pop_front() {
        let (sent, start_call) = (op.sent, op.start_call);
        let outcome = span("op", || lane.finish(input, op));
        tally.record(index, &outcome.verdict);
        let in_phase = outcome.woke <= end;
        let ok = outcome.verdict == Verdict::Ok;
        if ok && in_phase {
            completed += 1;
            last_counted = outcome.woke;
            let ops = completed - bucket.1;
            if ops >= BUCKET_OPS && last_counted.duration_since(bucket.0) >= BUCKET {
                bucket_rates.push(ops as f64 / last_counted.duration_since(bucket.0).as_secs_f64());
                bucket = (last_counted, completed);
            }
        }
        if keep_samples {
            samples.push(Sample {
                at: sent.saturating_duration_since(started),
                latency: ok.then(|| {
                    outcome
                        .done_at
                        .saturating_duration_since(sent)
                        .as_secs_f64()
                }),
                outcome: Some(outcome),
                start_call,
            });
        }
        if Instant::now() < end {
            launch(lane, feed, &mut tally, &mut inflight);
        }
    }
    Closed {
        tally,
        completed,
        elapsed: last_counted.duration_since(started).as_secs_f64(),
        bucket_rates,
        samples,
    }
}

/// Starts the next operation of `feed`, queueing it or recording its
/// refusal.
fn launch<'a, 'r>(
    lane: &Lane<'a>,
    feed: &mut Feed<'r>,
    tally: &mut Tally,
    inflight: &mut VecDeque<(usize, &'r Input, Started<'a>)>,
) {
    let (index, input) = feed.take();
    match lane.start(input) {
        Ok(op) => inflight.push_back((index, input, op)),
        Err(kind) => tally.record(index, &Verdict::Failed(kind)),
    }
}

/// What an open loop did.
pub struct Open {
    pub tally: Tally,
    pub samples: Vec<Sample>,
    /// How late each operation was sent after its due time, in seconds.
    pub lateness: Vec<f64>,
    /// Process CPU microseconds per operation sent, over each run of
    /// `cpu_stretch` consecutive sends; over the whole phase when it holds
    /// fewer.
    pub cpu_us_per_op: Vec<f64>,
}

/// Sends operations at the arrival offsets `arrivals` yields, for
/// `duration`, regardless of answers; each latency is timed from the
/// operation's due time, so a stalled generator or program charges the
/// wait to every operation behind it. Process CPU time is read before
/// every `cpu_stretch`-th send, and `between` runs there; it returns the
/// CPU seconds it spent itself, which no stretch counts.
pub fn open_loop(
    lane: &Lane<'_>,
    feed: &mut Feed<'_>,
    arrivals: &mut impl Iterator<Item = Duration>,
    duration: Duration,
    cpu_stretch: usize,
    between: &mut dyn FnMut() -> f64,
) -> Open {
    let started = Instant::now();
    let cpu_started = crate::host::cpu_seconds();
    let mut stretch = (0usize, cpu_started);
    let mut cpu_us_per_op = Vec::new();
    let mut tally = Tally::default();
    let mut lateness = Vec::new();
    let mut samples = Vec::new();
    let mut pending: Vec<(usize, &Input, Duration, Instant, Started<'_>)> = Vec::new();
    let missed = |tally: &mut Tally, samples: &mut Vec<Sample>, index, at, verdict: &Verdict| {
        tally.record(index, verdict);
        samples.push(Sample {
            at,
            latency: None,
            outcome: None,
            start_call: Duration::ZERO,
        });
    };
    for offset in arrivals.by_ref() {
        if offset >= duration {
            break;
        }
        let due = started + offset;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        if stretch.0 == cpu_stretch {
            let cpu = crate::host::cpu_seconds();
            cpu_us_per_op.push((cpu - stretch.1) * 1e6 / cpu_stretch as f64);
            stretch = (0, cpu + between());
        }
        stretch.0 += 1;
        let (index, input) = feed.take();
        match lane.start(input) {
            Ok(op) => {
                lateness.push(op.sent.saturating_duration_since(due).as_secs_f64());
                if Lane::blocks(input) {
                    samples.push(finish_due(lane, &mut tally, index, input, offset, due, op));
                } else {
                    pending.push((index, input, offset, due, op));
                }
            }
            Err(kind) => {
                lateness.push(Instant::now().saturating_duration_since(due).as_secs_f64());
                missed(
                    &mut tally,
                    &mut samples,
                    index,
                    offset,
                    &Verdict::Failed(kind),
                );
            }
        }
    }
    if cpu_us_per_op.is_empty() {
        let sent = tally.attempted as usize + pending.len();
        cpu_us_per_op.push((crate::host::cpu_seconds() - cpu_started) * 1e6 / sent.max(1) as f64);
    }
    for (index, input, offset, due, op) in pending {
        samples.push(finish_due(lane, &mut tally, index, input, offset, due, op));
    }
    Open {
        tally,
        samples,
        lateness,
        cpu_us_per_op,
    }
}

fn finish_due(
    lane: &Lane<'_>,
    tally: &mut Tally,
    index: usize,
    input: &Input,
    at: Duration,
    due: Instant,
    op: Started<'_>,
) -> Sample {
    let start_call = op.start_call;
    let outcome = span("op", || lane.finish(input, op));
    tally.record(index, &outcome.verdict);
    Sample {
        at,
        latency: (outcome.verdict == Verdict::Ok)
            .then(|| outcome.done_at.saturating_duration_since(due).as_secs_f64()),
        outcome: Some(outcome),
        start_call,
    }
}
