//! A pool of vector engines sharded across worker threads.
//!
//! One [`VectorKeccakEngine`] models one
//! vector processor: it permutes at most `SN` states per hardware pass,
//! and a larger slice is serialized into `⌈n / SN⌉` passes on that
//! single simulated device. [`EnginePool`] instead instantiates `W`
//! engines — all sharing one cached, pre-decoded kernel image — and
//! shards the passes across `W` OS threads, modelling a farm of
//! identical accelerators fed from one queue.
//!
//! # Workers are persistent
//!
//! Each worker is a long-lived thread owning its engine, fed over a
//! channel: the first dispatch that assigns a worker any passes spawns
//! it, and it then survives across [`EnginePool::permute_slice`] calls
//! until the pool is dropped. This removes the per-dispatch
//! thread-spawn cost the previous `thread::scope` implementation paid,
//! and a dispatch with fewer passes than workers never spins up the
//! idle tail (see [`PoolMetrics::effective_workers`]). When worker
//! threads cannot help — a host with one or two cores, or a dispatch
//! that touches one worker anyway — the shards run on the calling
//! thread instead, skipping the channel round trip entirely; the static
//! schedule makes this invisible in both outputs and metrics.
//!
//! # Determinism
//!
//! Scheduling is static, not work-stealing: pass `i` (the `i`-th
//! `SN`-wide chunk of the input slice) always runs on engine `i mod W`.
//! Because each chunk is an independent Keccak state set and each engine
//! writes only its own chunks, the output is bit-identical to the
//! reference permutation — and to itself — for every worker count.
//! Replies are collected in worker order, so the first trap reported is
//! the lowest-numbered worker's regardless of thread timing.
//!
//! Cycle accounting is deterministic too. The simulated cycle cost of a
//! pass is data-independent, so [`PoolMetrics::total_cycles`] (the sum
//! over all passes — total simulated work) is invariant under the
//! worker count, while [`PoolMetrics::max_cycles`] (the busiest
//! engine — the critical path, i.e. what a wall clock would see on real
//! parallel hardware) shrinks as workers are added. There is a property
//! test pinning both.
//!
//! # Graceful degradation
//!
//! A worker that dies — a panic in its thread, or an injected
//! [`EnginePool::kill_worker`] modelling a failed accelerator — is
//! discovered by the next dispatch that schedules passes onto it. That
//! dispatch fails with [`PoolError::WorkerLost`] (its states are left in
//! an unspecified partially-permuted condition, so callers must retry
//! from their own inputs), the worker is marked dead, and every
//! subsequent dispatch reschedules round-robin across the survivors:
//! [`EnginePool::alive_workers`] and [`EnginePool::capacity`] shrink,
//! outputs stay bit-identical to the reference, and a pool whose last
//! worker dies reports [`PoolError::AllWorkersLost`] instead of hanging.
//! Discovery is path-independent: the inline dispatch path observes a
//! kill exactly like the threaded path does.

use crate::engine::{KernelKind, VectorKeccakEngine};
use krv_keccak::KeccakState;
use krv_sha3::PermutationBackend;
use krv_vproc::Trap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// Why a pool dispatch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A kernel faulted (first trap in worker order) — an engine bug,
    /// as the generated kernels are validated against the reference.
    Trap(Trap),
    /// The worker with this index died mid-dispatch (thread panic or
    /// [`EnginePool::kill_worker`]); its share of the dispatch was not
    /// permuted. The pool has marked it dead — a retry runs on the
    /// surviving workers.
    WorkerLost {
        /// Index of the lost worker.
        worker: usize,
    },
    /// Every worker has died; the pool cannot dispatch at all.
    AllWorkersLost,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Trap(trap) => write!(f, "kernel trapped: {trap:?}"),
            PoolError::WorkerLost { worker } => {
                write!(f, "pool worker {worker} died mid-dispatch")
            }
            PoolError::AllWorkersLost => write!(f, "every pool worker has died"),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<Trap> for PoolError {
    fn from(trap: Trap) -> Self {
        PoolError::Trap(trap)
    }
}

/// Work done by one engine during a single [`EnginePool::permute_slice`]
/// call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineLoad {
    /// Hardware passes the engine executed.
    pub passes: u64,
    /// Simulated cycles the engine spent across those passes.
    pub cycles: u64,
}

/// Deterministic cycle accounting of one pool dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Per-engine work, indexed by worker; chunk `i` ran on worker
    /// `i mod W`. Always `W` entries — workers the dispatch never
    /// touched report a zero load.
    pub per_engine: Vec<EngineLoad>,
    /// Hardware passes across all engines (`⌈n / SN⌉`).
    pub passes: u64,
    /// Workers that actually received passes: `min(W, passes)`. A
    /// dispatch smaller than the pool leaves the idle tail unspawned.
    pub effective_workers: usize,
    /// Total simulated cycles across all engines — invariant under the
    /// worker count (the amount of work does not change, only where it
    /// runs).
    pub total_cycles: u64,
    /// Cycles of the busiest engine: the critical path, i.e. the
    /// latency of the dispatch on truly parallel hardware.
    pub max_cycles: u64,
}

impl PoolMetrics {
    /// Parallel speedup of this dispatch: total work over critical path
    /// (`1.0` for a single worker or a single pass).
    pub fn speedup(&self) -> f64 {
        if self.max_cycles == 0 {
            1.0
        } else {
            self.total_cycles as f64 / self.max_cycles as f64
        }
    }
}

/// A message to a worker thread: one bucket of passes as
/// `(state offset, chunk)` pairs in schedule order, or the poison pill
/// [`WorkerJob::Die`] that makes the thread exit abruptly (failure
/// injection — observably identical to a panic: the channels disconnect
/// with the bucket unanswered).
enum WorkerJob {
    Batch(Vec<(usize, Vec<KeccakState>)>),
    Die,
}

/// A worker's answer: the (permuted) chunks handed back for scatter,
/// the load it performed, and the first trap it hit, if any. On a trap
/// the remaining chunks of the bucket are returned untouched.
struct WorkerReply {
    chunks: Vec<(usize, Vec<KeccakState>)>,
    load: EngineLoad,
    trap: Option<Trap>,
}

/// A persistent worker thread and its channel pair.
#[derive(Debug)]
struct Worker {
    tx: Sender<WorkerJob>,
    rx: Receiver<WorkerReply>,
    thread: JoinHandle<()>,
}

fn spawn_worker(kind: KernelKind, sn: usize, compiled: bool) -> Worker {
    let (job_tx, job_rx) = channel::<WorkerJob>();
    let (reply_tx, reply_rx) = channel::<WorkerReply>();
    let thread = std::thread::spawn(move || {
        // The engine lives on the worker thread for the pool's whole
        // lifetime; the kernel image comes pre-decoded from the
        // process-wide cache, so spawning is cheap.
        let mut engine = VectorKeccakEngine::with_compiled(kind, sn, compiled);
        while let Ok(job) = job_rx.recv() {
            let mut chunks = match job {
                WorkerJob::Batch(chunks) => chunks,
                // Injected death: exit without replying, exactly like a
                // panic would — the reply channel disconnects.
                WorkerJob::Die => break,
            };
            let mut load = EngineLoad::default();
            let mut trap = None;
            for (_, chunk) in &mut chunks {
                if trap.is_some() {
                    break;
                }
                match engine.permute_slice(chunk) {
                    Ok(()) => {
                        load.passes += 1;
                        load.cycles += engine
                            .last_metrics()
                            .expect("a pass records metrics")
                            .total_cycles;
                    }
                    Err(fault) => trap = Some(fault),
                }
            }
            let reply = WorkerReply { chunks, load, trap };
            if reply_tx.send(reply).is_err() {
                break;
            }
        }
    });
    Worker {
        tx: job_tx,
        rx: reply_rx,
        thread,
    }
}

/// A pool of `W` identical vector Keccak engines, each `SN` states wide,
/// dispatching passes across `W` persistent worker threads.
///
/// The pool implements [`PermutationBackend`] with
/// `parallel_states = W × SN`. The sponge driver
/// ([`drive_stream`](krv_sha3::drive_stream), and
/// [`hash_batch`](krv_sha3::hash_batch) over it) hands the pool every
/// live state of a round in one call, which the pool splits into
/// `SN`-wide passes across its engines.
///
/// # Example
///
/// ```
/// use krv_core::{EnginePool, KernelKind};
/// use krv_keccak::{keccak_f1600, KeccakState};
///
/// let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 3);
/// assert_eq!(pool.capacity(), 6);
/// let mut states = vec![KeccakState::new(); 5];
/// let mut expected = states.clone();
/// pool.permute_slice(&mut states).unwrap();
/// for state in &mut expected {
///     keccak_f1600(state);
/// }
/// assert_eq!(states, expected);
/// ```
#[derive(Debug)]
pub struct EnginePool {
    kind: KernelKind,
    sn: usize,
    /// Whether worker engines dispatch through the compiled tier.
    compiled: bool,
    workers: Vec<Option<Worker>>,
    /// Which worker slots still have live "hardware": a slot goes (and
    /// stays) `false` once a dispatch observes its death.
    alive: Vec<bool>,
    /// Failure injection: slots killed via [`Self::kill_worker`] whose
    /// death the next dispatch touching them will observe.
    killed: Vec<bool>,
    /// Engine for dispatches that run on the calling thread (hosts with
    /// at most two cores, single-shard dispatches); spawned as lazily as
    /// the workers.
    inline_engine: Option<Box<VectorKeccakEngine>>,
    /// Host cores, probed once at construction.
    host_parallelism: usize,
    last_metrics: Option<PoolMetrics>,
    permutations: u64,
}

impl EnginePool {
    /// Creates a pool of `workers` engines, each holding `sn` states.
    ///
    /// The kernel is generated, assembled and pre-decoded once (via the
    /// process-wide [`crate::cache`]); every worker engine shares the
    /// same immutable program image. Worker threads are spawned lazily,
    /// on the first dispatch that assigns them passes.
    ///
    /// # Panics
    ///
    /// Panics if `sn` or `workers` is zero.
    pub fn new(kind: KernelKind, sn: usize, workers: usize) -> Self {
        Self::with_compiled(kind, sn, workers, crate::engine::compiled_default())
    }

    /// Creates a pool with every worker's execution tier pinned
    /// explicitly (see [`VectorKeccakEngine::with_compiled`]);
    /// [`EnginePool::new`] picks the process default.
    ///
    /// # Panics
    ///
    /// Panics if `sn` or `workers` is zero.
    pub fn with_compiled(kind: KernelKind, sn: usize, workers: usize, compiled: bool) -> Self {
        assert!(workers > 0, "the pool needs at least one worker");
        assert!(sn > 0, "each engine needs at least one state slot");
        Self {
            kind,
            sn,
            compiled,
            workers: (0..workers).map(|_| None).collect(),
            alive: vec![true; workers],
            killed: vec![false; workers],
            inline_engine: None,
            host_parallelism: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            last_metrics: None,
            permutations: 0,
        }
    }

    /// The kernel kind every engine runs.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Number of worker engines the pool was configured with (`W`),
    /// including any that have since died.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Workers still alive — `W` until a dispatch observes a death.
    pub fn alive_workers(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Worker threads actually spawned so far — at most the high-water
    /// mark of `min(W, passes)` over all dispatches.
    pub fn spawned_workers(&self) -> usize {
        self.workers.iter().flatten().count()
    }

    /// States per engine pass (`SN`).
    pub fn states_per_engine(&self) -> usize {
        self.sn
    }

    /// States the whole pool permutes in one parallel step:
    /// `alive workers × SN` (shrinks as workers die).
    pub fn capacity(&self) -> usize {
        self.alive_workers() * self.sn
    }

    /// Kills a worker's simulated hardware: its thread (if spawned)
    /// exits abruptly, and the next dispatch that schedules passes onto
    /// the slot observes the death and fails with
    /// [`PoolError::WorkerLost`] — on the threaded *and* the inline
    /// dispatch path alike. Failure injection for supervision drills;
    /// killing an already-dead worker is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn kill_worker(&mut self, index: usize) {
        assert!(index < self.workers.len(), "no worker {index}");
        if !self.alive[index] {
            return;
        }
        if let Some(worker) = self.workers[index].take() {
            // The thread exits on the poison pill without replying; the
            // dangling channels are dropped with the Worker struct.
            let _ = worker.tx.send(WorkerJob::Die);
            let _ = worker.thread.join();
        }
        self.killed[index] = true;
    }

    /// Marks a worker slot dead after its failure was observed.
    fn bury_worker(&mut self, index: usize) {
        self.alive[index] = false;
        self.killed[index] = false;
        self.workers[index] = None;
    }

    /// Metrics of the most recent dispatch.
    pub fn last_metrics(&self) -> Option<&PoolMetrics> {
        self.last_metrics.as_ref()
    }

    /// Total hardware passes executed by all engines over the pool's
    /// lifetime.
    pub fn permutations(&self) -> u64 {
        self.permutations
    }

    /// Permutes every state in `states`, sharding `SN`-wide passes
    /// round-robin across the alive persistent worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::Trap`] on the first kernel fault (in worker
    /// order) — which indicates an engine bug, as the kernels are
    /// validated against the reference permutation — or
    /// [`PoolError::WorkerLost`] / [`PoolError::AllWorkersLost`] when a
    /// worker's death is observed. After a failed dispatch the slice is
    /// in an unspecified partially-permuted condition; retry from the
    /// original inputs.
    pub fn permute_slice(&mut self, states: &mut [KeccakState]) -> Result<(), PoolError> {
        if states.is_empty() {
            self.last_metrics = Some(PoolMetrics {
                per_engine: vec![EngineLoad::default(); self.workers.len()],
                passes: 0,
                effective_workers: 0,
                total_cycles: 0,
                max_cycles: 0,
            });
            return Ok(());
        }
        // Static round-robin over the alive workers: chunk `i` (the
        // i-th SN-wide slice) runs on the i-mod-A-th survivor, which is
        // worker `i mod W` while all W are alive. This keeps outputs
        // and the per-engine cycle ledger independent of thread timing.
        let alive: Vec<usize> = (0..self.workers.len()).filter(|&w| self.alive[w]).collect();
        if alive.is_empty() {
            return Err(PoolError::AllWorkersLost);
        }
        let passes = states.len().div_ceil(self.sn);
        // A dispatch with fewer passes than workers only touches the
        // leading `passes` workers; the tail stays unspawned and idle.
        let active = alive.len().min(passes);
        // Worker threads only pay off when the host can actually run
        // them in parallel with the rest of the process: on a host with
        // one or two cores — or for a dispatch that would touch a single
        // worker anyway — run the shards on the calling thread instead.
        // Measured on a 2-vCPU VM, threaded dispatches of 8 to 64 states
        // cost 5–29 % more CPU than the same shards inline and finished
        // no sooner (two busy threads there take twice the wall time of
        // one). The schedule, outputs and the per-engine cycle
        // ledger are identical either way (scheduling is static), so
        // this only moves host time.
        if active == 1 || self.host_parallelism <= 2 {
            return self.permute_inline(states, &alive, active);
        }
        let mut buckets: Vec<Vec<(usize, Vec<KeccakState>)>> =
            (0..active).map(|_| Vec::new()).collect();
        for (i, chunk) in states.chunks(self.sn).enumerate() {
            buckets[i % active].push((i * self.sn, chunk.to_vec()));
        }
        // Send phase: a worker whose thread died (injected kill, or a
        // panic that disconnected the channel) is discovered here.
        let mut lost: Option<usize> = None;
        let mut dispatched: Vec<usize> = Vec::with_capacity(active);
        for (slot, chunks) in buckets.into_iter().enumerate() {
            let index = alive[slot];
            if self.killed[index] {
                self.bury_worker(index);
                lost.get_or_insert(index);
                continue;
            }
            if self.workers[index].is_none() {
                self.workers[index] = Some(spawn_worker(self.kind, self.sn, self.compiled));
            }
            let worker = self.workers[index].as_ref().expect("just spawned");
            if worker.tx.send(WorkerJob::Batch(chunks)).is_err() {
                self.bury_worker(index);
                lost.get_or_insert(index);
            } else {
                dispatched.push(index);
            }
        }
        // Collect phase, in worker order regardless of thread timing.
        let mut per_engine = vec![EngineLoad::default(); self.workers.len()];
        let mut first_trap = None;
        for index in dispatched {
            let worker = self.workers[index].as_ref().expect("dispatched worker");
            match worker.rx.recv() {
                Ok(reply) => {
                    for (offset, chunk) in reply.chunks {
                        states[offset..offset + chunk.len()].copy_from_slice(&chunk);
                    }
                    per_engine[index] = reply.load;
                    if first_trap.is_none() {
                        first_trap = reply.trap;
                    }
                }
                Err(_) => {
                    self.bury_worker(index);
                    lost.get_or_insert(index);
                }
            }
        }
        self.permutations += per_engine.iter().map(|load| load.passes).sum::<u64>();
        if let Some(worker) = lost {
            self.last_metrics = None;
            return Err(PoolError::WorkerLost { worker });
        }
        if let Some(trap) = first_trap {
            return Err(PoolError::Trap(trap));
        }
        self.last_metrics = Some(PoolMetrics {
            passes: per_engine.iter().map(|load| load.passes).sum(),
            effective_workers: active,
            total_cycles: per_engine.iter().map(|load| load.cycles).sum(),
            max_cycles: per_engine.iter().map(|load| load.cycles).max().unwrap_or(0),
            per_engine,
        });
        Ok(())
    }

    /// Overrides the probed host parallelism, pinning the dispatch path
    /// (threaded vs inline) independently of the machine running the
    /// tests.
    #[cfg(test)]
    fn set_host_parallelism(&mut self, cores: usize) {
        self.host_parallelism = cores;
    }

    /// Runs a dispatch on the calling thread, preserving the worker
    /// semantics exactly: chunk `i` is charged to the worker that would
    /// run it on the threaded path, a trap stops only the remaining
    /// chunks of *that* worker's bucket, the reported trap is the
    /// lowest-numbered worker's — and a killed worker's death is
    /// observed exactly as a channel disconnect would be.
    fn permute_inline(
        &mut self,
        states: &mut [KeccakState],
        alive: &[usize],
        active: usize,
    ) -> Result<(), PoolError> {
        let worker_count = self.workers.len();
        let engine = self.inline_engine.get_or_insert_with(|| {
            Box::new(VectorKeccakEngine::with_compiled(
                self.kind,
                self.sn,
                self.compiled,
            ))
        });
        let mut per_engine = vec![EngineLoad::default(); worker_count];
        let mut bucket_trap: Vec<Option<Trap>> = vec![None; worker_count];
        let mut lost: Option<usize> = None;
        for (i, chunk) in states.chunks_mut(self.sn).enumerate() {
            let index = alive[i % active.max(1)];
            if self.killed[index] {
                // The simulated hardware behind this slot is dead: its
                // whole bucket fails, like an unanswered worker reply.
                lost.get_or_insert(index);
                continue;
            }
            if bucket_trap[index].is_some() {
                continue;
            }
            match engine.permute_slice(chunk) {
                Ok(()) => {
                    let load = &mut per_engine[index];
                    load.passes += 1;
                    load.cycles += engine
                        .last_metrics()
                        .expect("a pass records metrics")
                        .total_cycles;
                }
                Err(fault) => bucket_trap[index] = Some(fault),
            }
        }
        self.permutations += per_engine.iter().map(|load| load.passes).sum::<u64>();
        if let Some(worker) = lost {
            self.bury_worker(worker);
            self.last_metrics = None;
            return Err(PoolError::WorkerLost { worker });
        }
        if let Some(trap) = bucket_trap.into_iter().flatten().next() {
            return Err(PoolError::Trap(trap));
        }
        self.last_metrics = Some(PoolMetrics {
            passes: per_engine.iter().map(|load| load.passes).sum(),
            effective_workers: active,
            total_cycles: per_engine.iter().map(|load| load.cycles).sum(),
            max_cycles: per_engine.iter().map(|load| load.cycles).max().unwrap_or(0),
            per_engine,
        });
        Ok(())
    }
}

impl Drop for EnginePool {
    /// Closes every worker's job channel and joins the threads.
    fn drop(&mut self) {
        for worker in self.workers.drain(..).flatten() {
            let Worker { tx, rx, thread } = worker;
            drop(tx);
            drop(rx);
            // A clean join: the worker's recv loop exits once the
            // sender is gone. Ignore a panicked worker during teardown.
            let _ = thread.join();
        }
    }
}

impl PermutationBackend for EnginePool {
    /// Permutes all states across the worker engines.
    ///
    /// # Panics
    ///
    /// Panics if a kernel traps — the generated kernels are validated,
    /// so a trap indicates an internal bug, not a caller error.
    fn permute_all(&mut self, states: &mut [KeccakState]) {
        self.permute_slice(states)
            .expect("validated kernel must not trap");
    }

    fn parallel_states(&self) -> usize {
        self.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krv_keccak::keccak_f1600;

    fn distinct_states(n: usize) -> Vec<KeccakState> {
        (0..n)
            .map(|s| {
                let mut lanes = [0u64; 25];
                for (i, lane) in lanes.iter_mut().enumerate() {
                    *lane = (s as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ (i as u64) << 13;
                }
                KeccakState::from_lanes(lanes)
            })
            .collect()
    }

    fn check_pool(kind: KernelKind, sn: usize, workers: usize, n: usize) {
        let mut pool = EnginePool::new(kind, sn, workers);
        let mut states = distinct_states(n);
        let mut expected = states.clone();
        pool.permute_slice(&mut states).expect("pool runs");
        for state in &mut expected {
            keccak_f1600(state);
        }
        assert_eq!(
            states, expected,
            "{kind}, sn={sn}, workers={workers}, n={n}"
        );
    }

    #[test]
    fn pool_matches_reference_across_shapes() {
        // n < SN, n == capacity, n not divisible by SN, n > capacity.
        check_pool(KernelKind::E64Lmul8, 3, 4, 2);
        check_pool(KernelKind::E64Lmul8, 3, 4, 12);
        check_pool(KernelKind::E64Lmul8, 3, 4, 13);
        check_pool(KernelKind::E64Lmul1, 2, 3, 17);
        check_pool(KernelKind::E32Lmul8, 2, 2, 7);
    }

    #[test]
    fn empty_slice_is_a_no_op() {
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 4);
        pool.permute_slice(&mut []).unwrap();
        let metrics = pool.last_metrics().unwrap();
        assert_eq!(metrics.passes, 0);
        assert_eq!(metrics.total_cycles, 0);
        assert_eq!(metrics.max_cycles, 0);
        assert_eq!(metrics.effective_workers, 0);
        assert_eq!(pool.permutations(), 0);
        assert_eq!(pool.spawned_workers(), 0, "no pass, no thread");
    }

    #[test]
    fn passes_are_assigned_round_robin() {
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 3);
        // 7 states → 4 passes over 3 workers → loads of 2, 1, 1 passes.
        let mut states = distinct_states(7);
        pool.permute_slice(&mut states).unwrap();
        let metrics = pool.last_metrics().unwrap();
        let passes: Vec<u64> = metrics.per_engine.iter().map(|l| l.passes).collect();
        assert_eq!(passes, vec![2, 1, 1]);
        assert_eq!(metrics.passes, 4);
        assert_eq!(metrics.effective_workers, 3);
        assert_eq!(metrics.max_cycles, metrics.per_engine[0].cycles);
    }

    #[test]
    fn small_dispatch_leaves_the_worker_tail_unspawned() {
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 6);
        // Pin the threaded path: this test is about lazy thread spawning.
        pool.set_host_parallelism(8);
        // 3 states → 2 passes → only workers 0 and 1 ever exist.
        let mut states = distinct_states(3);
        let mut expected = states.clone();
        pool.permute_slice(&mut states).unwrap();
        for state in &mut expected {
            keccak_f1600(state);
        }
        assert_eq!(states, expected);
        let metrics = pool.last_metrics().unwrap();
        assert_eq!(metrics.effective_workers, 2);
        assert_eq!(metrics.per_engine.len(), 6, "ledger keeps W entries");
        assert!(metrics.per_engine[2..].iter().all(|l| l.passes == 0));
        assert_eq!(pool.spawned_workers(), 2);
        // A larger follow-up dispatch grows the spawned set on demand.
        let mut more = distinct_states(12);
        pool.permute_slice(&mut more).unwrap();
        assert_eq!(pool.last_metrics().unwrap().effective_workers, 6);
        assert_eq!(pool.spawned_workers(), 6);
    }

    #[test]
    fn workers_persist_across_dispatches() {
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 3);
        // Pin the threaded path: this test is about thread reuse.
        pool.set_host_parallelism(8);
        let mut states = distinct_states(9);
        let mut expected = states.clone();
        pool.permute_slice(&mut states).unwrap();
        pool.permute_slice(&mut states).unwrap();
        for state in &mut expected {
            keccak_f1600(state);
            keccak_f1600(state);
        }
        assert_eq!(states, expected, "two dispatches compose");
        assert_eq!(
            pool.spawned_workers(),
            3,
            "threads are reused, not respawned"
        );
        assert_eq!(pool.permutations(), 10, "2 × ⌈9/2⌉ passes accumulated");
    }

    #[test]
    fn inline_dispatch_matches_threaded_outputs_and_metrics() {
        // Same dispatch through both paths: a single-core host runs the
        // shards on the calling thread (no worker threads at all), and
        // everything observable must be identical to the threaded run.
        let mut inline_pool = EnginePool::new(KernelKind::E64Lmul8, 2, 3);
        inline_pool.set_host_parallelism(1);
        let mut threaded_pool = EnginePool::new(KernelKind::E64Lmul8, 2, 3);
        threaded_pool.set_host_parallelism(8);

        let mut a = distinct_states(9);
        let mut b = a.clone();
        inline_pool.permute_slice(&mut a).expect("inline runs");
        threaded_pool.permute_slice(&mut b).expect("threaded runs");

        assert_eq!(a, b, "outputs are path-independent");
        assert_eq!(
            inline_pool.last_metrics(),
            threaded_pool.last_metrics(),
            "the cycle ledger is path-independent"
        );
        assert_eq!(inline_pool.spawned_workers(), 0, "no threads on 1 core");
        assert_eq!(threaded_pool.spawned_workers(), 3);
        assert_eq!(inline_pool.permutations(), 5);
    }

    #[test]
    fn single_shard_dispatch_runs_inline() {
        // One pass touches one worker: even a multi-core pool skips the
        // channel round trip for it.
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 4);
        pool.set_host_parallelism(8);
        let mut states = distinct_states(2);
        let mut expected = states.clone();
        pool.permute_slice(&mut states).expect("pool runs");
        for state in &mut expected {
            keccak_f1600(state);
        }
        assert_eq!(states, expected);
        assert_eq!(pool.spawned_workers(), 0);
        assert_eq!(pool.last_metrics().unwrap().effective_workers, 1);
    }

    #[test]
    fn total_cycles_are_invariant_under_worker_count() {
        let mut totals = Vec::new();
        let mut outputs = Vec::new();
        for workers in [1, 2, 4, 5] {
            let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, workers);
            let mut states = distinct_states(9);
            pool.permute_slice(&mut states).unwrap();
            let metrics = pool.last_metrics().unwrap();
            totals.push(metrics.total_cycles);
            outputs.push(states);
            assert!(metrics.max_cycles <= metrics.total_cycles);
            if workers > 1 {
                assert!(metrics.speedup() > 1.0, "{workers} workers must overlap");
            }
        }
        assert!(
            totals.windows(2).all(|w| w[0] == w[1]),
            "total simulated work must not depend on the worker count: {totals:?}"
        );
        assert!(
            outputs.windows(2).all(|w| w[0] == w[1]),
            "outputs must be bit-identical for every worker count"
        );
    }

    /// One killed worker: the dispatch that touches it fails once with
    /// `WorkerLost`, the pool shrinks, and a retry of the same states
    /// completes correctly on the survivors.
    fn check_degradation(host_cores: usize) {
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 3);
        pool.set_host_parallelism(host_cores);
        // Warm every worker up first so the threaded path kills a
        // genuinely running thread.
        let mut warmup = distinct_states(6);
        pool.permute_slice(&mut warmup).expect("healthy dispatch");
        assert_eq!(pool.alive_workers(), 3);
        assert_eq!(pool.capacity(), 6);

        pool.kill_worker(1);
        let mut states = distinct_states(7);
        let failed = pool.permute_slice(&mut states);
        assert_eq!(
            failed,
            Err(PoolError::WorkerLost { worker: 1 }),
            "host_cores={host_cores}"
        );
        assert_eq!(pool.alive_workers(), 2);
        assert_eq!(pool.capacity(), 4, "capacity shrinks with the pool");

        // Retry from the original inputs: the survivors absorb the work.
        let mut states = distinct_states(7);
        let mut expected = states.clone();
        pool.permute_slice(&mut states).expect("degraded dispatch");
        for state in &mut expected {
            keccak_f1600(state);
        }
        assert_eq!(states, expected, "outputs correct on 2 survivors");
        let metrics = pool.last_metrics().expect("metrics after success");
        assert_eq!(metrics.effective_workers, 2, "effective workers drop");
        assert_eq!(metrics.passes, 4);
        assert_eq!(metrics.per_engine[1], EngineLoad::default());
    }

    #[test]
    fn killed_worker_fails_one_dispatch_then_pool_degrades_inline() {
        check_degradation(1);
    }

    #[test]
    fn killed_worker_fails_one_dispatch_then_pool_degrades_threaded() {
        check_degradation(8);
    }

    #[test]
    fn killing_an_unspawned_worker_is_observed_at_dispatch() {
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 2);
        pool.kill_worker(1);
        assert_eq!(pool.alive_workers(), 2, "death not yet observed");
        let mut states = distinct_states(4);
        assert_eq!(
            pool.permute_slice(&mut states),
            Err(PoolError::WorkerLost { worker: 1 })
        );
        assert_eq!(pool.alive_workers(), 1);
        // Idempotent: killing a dead worker again changes nothing.
        pool.kill_worker(1);
        let mut states = distinct_states(4);
        let mut expected = states.clone();
        pool.permute_slice(&mut states).expect("survivor dispatch");
        for state in &mut expected {
            keccak_f1600(state);
        }
        assert_eq!(states, expected);
    }

    #[test]
    fn losing_every_worker_reports_all_workers_lost() {
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 2);
        pool.kill_worker(0);
        pool.kill_worker(1);
        let mut states = distinct_states(4);
        // Both deaths may be observed across one or two dispatches
        // depending on which path runs; drain until exhausted.
        let first = pool.permute_slice(&mut states);
        assert!(
            matches!(first, Err(PoolError::WorkerLost { .. })),
            "{first:?}"
        );
        let mut states = distinct_states(4);
        let mut last = pool.permute_slice(&mut states);
        if matches!(last, Err(PoolError::WorkerLost { .. })) {
            let mut states = distinct_states(4);
            last = pool.permute_slice(&mut states);
        }
        assert_eq!(last, Err(PoolError::AllWorkersLost));
        assert_eq!(pool.alive_workers(), 0);
        assert_eq!(pool.capacity(), 0);
        // Empty dispatches still succeed (nothing to schedule).
        pool.permute_slice(&mut []).expect("empty is a no-op");
    }

    #[test]
    fn pool_error_formats_human_readably() {
        assert_eq!(
            PoolError::WorkerLost { worker: 3 }.to_string(),
            "pool worker 3 died mid-dispatch"
        );
        assert_eq!(
            PoolError::AllWorkersLost.to_string(),
            "every pool worker has died"
        );
        let trap: PoolError = Trap::VectorConfig { reason: "test" }.into();
        assert!(trap.to_string().contains("trapped"));
    }

    #[test]
    fn pool_is_a_backend_with_pooled_width() {
        let pool = EnginePool::new(KernelKind::E64Lmul8, 3, 4);
        assert_eq!(pool.parallel_states(), 12);
        assert_eq!(pool.capacity(), 12);
        assert_eq!(pool.workers(), 4);
        assert_eq!(pool.states_per_engine(), 3);
    }
}
