//! A pool of `W` modelled vector engines, run on the calling thread.
//!
//! One [`VectorKeccakEngine`] models one
//! vector processor: it permutes at most `SN` states per hardware pass,
//! and a larger slice is serialized into `⌈n / SN⌉` passes on that
//! single simulated device. [`EnginePool`] instead models `W` such
//! engines — a farm of identical accelerators fed from one queue — and
//! shards the passes across them. Each modelled engine is a *worker*:
//! the unit the schedule, the cycle ledger and failure injection name.
//!
//! # Modelled parallelism, one host thread
//!
//! Every pass runs on the calling thread. The pool's parallel gain is a
//! property of the modelled hardware, not of the host: the simulated
//! cost of a pass is data-independent (paper §4.2), so
//! [`PoolMetrics::max_cycles`], the busiest engine's cycles, is the
//! exact critical path of `W` accelerators working at once, and
//! [`PoolMetrics::speedup`] is ≈ `W` for full-width dispatches. A
//! warm E64 LMUL=8 pass on the compiled tier costs about 0.6–0.9 µs of
//! host time on a 2-vCPU Xeon VM (SN = 1 to 4), less than handing it to
//! another thread costs; at that scale a dispatch keeps its own
//! bookkeeping off the heap too. A caller that wants host parallelism
//! runs one pool per thread (the service runs one per shard).
//!
//! # Engines as wide as their live states
//!
//! A pass that carries `k ≤ SN` states runs on a `k`-wide engine. The
//! simulated cost of a pass depends neither on how many states it
//! carries (paper §4.2) nor on how wide the engine is: no kernel
//! instruction's cost grows with `EleNum`, so the cycle ledger is the
//! same either way. The host cost is not: a one-state pass on an `SN`-wide
//! engine still stages, runs and reads back all `SN` vector slots.
//! The pool therefore keeps one engine per live width, created on the
//! first pass of that width; full passes run on the `SN`-wide engine.
//!
//! # Determinism
//!
//! Scheduling is static: pass `i` (the `i`-th `SN`-wide chunk of the
//! input slice) is charged to the `(i mod A)`-th of the `A` alive
//! workers, which is worker `i mod W` while all `W` are alive. Because
//! each chunk is an independent Keccak state set, the output is
//! bit-identical to the reference permutation — and to itself — for
//! every worker count. A trap stops the rest of its worker's passes,
//! and the trap reported is the lowest-numbered worker's.
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
//! A worker killed with [`EnginePool::kill_worker`], modelling a failed
//! accelerator, is discovered by the next dispatch that schedules
//! passes onto it. That dispatch fails with [`PoolError::WorkerLost`]
//! naming the lowest-numbered dead worker it met (its states are left
//! in an unspecified partially-permuted condition, so callers must
//! retry from their own inputs), and every dead worker it met is marked
//! dead. Every subsequent dispatch reschedules round-robin across the
//! survivors: [`EnginePool::alive_workers`] and [`EnginePool::capacity`]
//! shrink, outputs stay bit-identical to the reference, and a pool
//! whose last worker dies reports [`PoolError::AllWorkersLost`] instead
//! of hanging. A panic inside a pass is not a worker death: it unwinds
//! into the caller.

use crate::engine::{KernelKind, VectorKeccakEngine};
use krv_keccak::KeccakState;
use krv_sha3::PermutationBackend;
use krv_vproc::Trap;

/// Why a pool dispatch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A kernel faulted (first trap in worker order) — an engine bug,
    /// as the generated kernels are validated against the reference.
    Trap(Trap),
    /// The worker with this index was found dead mid-dispatch (see
    /// [`EnginePool::kill_worker`]); its share of the dispatch was not
    /// permuted. The pool has marked it, and any other dead worker the
    /// dispatch met, dead — a retry runs on the surviving workers.
    WorkerLost {
        /// Index of the lowest-numbered lost worker.
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
    /// Per-engine work, indexed by worker; chunk `i` ran on the
    /// `(i mod A)`-th of the `A` alive workers (worker `i mod W` while
    /// all `W` are alive). Always `W` entries — workers the dispatch
    /// never touched, dead ones included, report a zero load.
    pub per_engine: Vec<EngineLoad>,
    /// Hardware passes across all engines (`⌈n / SN⌉`).
    pub passes: u64,
    /// Workers that actually received passes: `min(A, passes)` for `A`
    /// alive workers. A dispatch smaller than the pool leaves the tail
    /// idle.
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

/// One engine per live width, each created on the first pass that
/// needs it: a pass carrying `k` states runs on the `k`-wide engine.
#[derive(Debug)]
struct LiveWidthEngines {
    kind: KernelKind,
    /// The `k`-wide engine at index `k − 1`.
    by_width: Vec<Option<VectorKeccakEngine>>,
}

impl LiveWidthEngines {
    fn new(kind: KernelKind, sn: usize) -> Self {
        Self {
            kind,
            by_width: (0..sn).map(|_| None).collect(),
        }
    }

    /// Runs one pass over `chunk` (1 to `SN` states) on the engine as
    /// wide as it and returns the pass's simulated cycles.
    fn pass(&mut self, chunk: &mut [KeccakState]) -> Result<u64, Trap> {
        let kind = self.kind;
        let engine = self.by_width[chunk.len() - 1]
            .get_or_insert_with(|| VectorKeccakEngine::new(kind, chunk.len()));
        engine.permute_slice(chunk)?;
        Ok(engine
            .last_metrics()
            .expect("a pass records metrics")
            .total_cycles)
    }
}

/// A pool of `W` identical modelled vector Keccak engines, each up to
/// `SN` states wide, whose passes run on the calling thread.
///
/// The pool implements [`PermutationBackend`] with
/// `parallel_states = W × SN`. The sponge driver
/// ([`drive_stream`](krv_sha3::drive_stream), and
/// [`hash_batch`](krv_sha3::hash_batch) over it) hands the pool every
/// live state of a round in one call, which the pool splits into
/// `SN`-wide passes scheduled across its engines.
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
    sn: usize,
    /// The workers that still have live "hardware", in index order: a
    /// worker leaves (for good) once a dispatch observes its death.
    survivors: Vec<usize>,
    /// Failure injection, one slot per worker (`W`): workers killed via
    /// [`Self::kill_worker`] whose death the next dispatch touching them
    /// will observe.
    killed: Vec<bool>,
    /// The engines every pass runs on, whichever worker it is charged to.
    engines: LiveWidthEngines,
    /// The ledger a dispatch fills. A successful dispatch swaps it with
    /// the previous [`PoolMetrics::per_engine`], so a warm pool
    /// dispatches without a heap allocation.
    ledger: Vec<EngineLoad>,
    last_metrics: Option<PoolMetrics>,
    permutations: u64,
}

impl EnginePool {
    /// Creates a pool of `workers` modelled engines, each holding `sn`
    /// states.
    ///
    /// The kernel is generated, assembled and pre-decoded once (via the
    /// process-wide [`crate::cache`]); every engine shares the same
    /// immutable program image. Engines are created on the first pass
    /// of their width.
    ///
    /// # Panics
    ///
    /// Panics if `sn` or `workers` is zero.
    pub fn new(kind: KernelKind, sn: usize, workers: usize) -> Self {
        assert!(workers > 0, "the pool needs at least one worker");
        assert!(sn > 0, "each engine needs at least one state slot");
        Self {
            sn,
            survivors: (0..workers).collect(),
            killed: vec![false; workers],
            engines: LiveWidthEngines::new(kind, sn),
            ledger: Vec::with_capacity(workers),
            last_metrics: None,
            permutations: 0,
        }
    }

    /// The kernel kind every engine runs.
    pub fn kind(&self) -> KernelKind {
        self.engines.kind
    }

    /// Number of modelled engines the pool was configured with (`W`),
    /// including any that have since died.
    pub fn workers(&self) -> usize {
        self.killed.len()
    }

    /// Workers still alive — `W` until a dispatch observes a death.
    pub fn alive_workers(&self) -> usize {
        self.survivors.len()
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

    /// Kills a worker's simulated hardware: the next dispatch that
    /// schedules passes onto it observes the death and fails with
    /// [`PoolError::WorkerLost`]. Failure injection for supervision
    /// drills; killing an already-dead worker is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn kill_worker(&mut self, index: usize) {
        assert!(index < self.killed.len(), "no worker {index}");
        if self.survivors.contains(&index) {
            self.killed[index] = true;
        }
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

    /// Permutes every state in `states` on the calling thread, charging
    /// `SN`-wide passes round-robin to the alive workers.
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
        self.ledger.clear();
        self.ledger.resize(self.killed.len(), EngineLoad::default());
        if states.is_empty() {
            self.publish(0);
            return Ok(());
        }
        if self.survivors.is_empty() {
            return Err(PoolError::AllWorkersLost);
        }
        // A dispatch with fewer passes than workers only touches the
        // leading `passes` survivors.
        let active = self.survivors.len().min(states.len().div_ceil(self.sn));
        // Every scheduled worker receives at least one chunk, so the
        // dead workers among them are all the dead workers this dispatch
        // meets; their chunks are skipped, like a failed accelerator's.
        let lost = self.survivors[..active]
            .iter()
            .copied()
            .find(|&worker| self.killed[worker]);
        // Static round-robin over the alive workers: chunk `i` (the
        // i-th SN-wide slice) is charged to the i-mod-A-th survivor. A
        // worker's chunks run in order, so a trap stops the rest of
        // them, and the first trap met is the lowest-numbered worker's.
        let mut trap = None;
        for (slot, &worker) in self.survivors[..active].iter().enumerate() {
            if self.killed[worker] {
                continue;
            }
            for chunk in states.chunks_mut(self.sn).skip(slot).step_by(active) {
                match self.engines.pass(chunk) {
                    Ok(cycles) => {
                        let load = &mut self.ledger[worker];
                        load.passes += 1;
                        load.cycles += cycles;
                    }
                    Err(fault) => {
                        trap.get_or_insert(fault);
                        break;
                    }
                }
            }
        }
        self.permutations += self.ledger.iter().map(|load| load.passes).sum::<u64>();
        if let Some(worker) = lost {
            let killed = &mut self.killed;
            let mut slot = 0;
            self.survivors.retain(|&worker| {
                let met = slot < active && killed[worker];
                slot += 1;
                killed[worker] &= !met;
                !met
            });
            self.last_metrics = None;
            return Err(PoolError::WorkerLost { worker });
        }
        if let Some(trap) = trap {
            return Err(PoolError::Trap(trap));
        }
        self.publish(active);
        Ok(())
    }

    /// Publishes the filled ledger as [`Self::last_metrics`], keeping
    /// the previous metrics' ledger to fill next.
    fn publish(&mut self, effective_workers: usize) {
        let metrics = match &mut self.last_metrics {
            Some(metrics) => {
                std::mem::swap(&mut metrics.per_engine, &mut self.ledger);
                metrics
            }
            None => self.last_metrics.insert(PoolMetrics {
                per_engine: std::mem::take(&mut self.ledger),
                passes: 0,
                effective_workers: 0,
                total_cycles: 0,
                max_cycles: 0,
            }),
        };
        let loads = &metrics.per_engine;
        metrics.passes = loads.iter().map(|load| load.passes).sum();
        metrics.effective_workers = effective_workers;
        metrics.total_cycles = loads.iter().map(|load| load.cycles).sum();
        metrics.max_cycles = loads.iter().map(|load| load.cycles).max().unwrap_or(0);
    }
}

impl PermutationBackend for EnginePool {
    /// Permutes all states across the pool's engines.
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
    use crate::metrics::KernelMetrics;
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
    }

    #[test]
    fn passes_are_assigned_round_robin() {
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 3);
        // 1 state → 1 pass, 3 states → 2 passes: the ledger keeps W
        // entries, and the idle tail books a zero load.
        for (n, effective) in [(1, 1), (3, 2)] {
            pool.permute_slice(&mut distinct_states(n)).unwrap();
            let metrics = pool.last_metrics().unwrap();
            assert_eq!(metrics.effective_workers, effective);
            assert_eq!(metrics.per_engine.len(), 3, "ledger keeps W entries");
            assert_eq!(metrics.per_engine[2], EngineLoad::default());
        }
        // 7 states → 4 passes over 3 workers → loads of 2, 1, 1 passes.
        let mut states = distinct_states(7);
        let mut expected = states.clone();
        pool.permute_slice(&mut states).unwrap();
        let metrics = pool.last_metrics().unwrap();
        let passes: Vec<u64> = metrics.per_engine.iter().map(|l| l.passes).collect();
        assert_eq!(passes, vec![2, 1, 1]);
        assert_eq!(metrics.passes, 4);
        assert_eq!(metrics.effective_workers, 3);
        assert_eq!(metrics.max_cycles, metrics.per_engine[0].cycles);
        pool.permute_slice(&mut states).unwrap();
        for state in &mut expected {
            keccak_f1600(state);
            keccak_f1600(state);
        }
        assert_eq!(states, expected, "two dispatches compose");
        assert_eq!(pool.permutations(), 1 + 2 + 4 + 4, "passes accumulate");
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
    #[test]
    fn killed_worker_fails_one_dispatch_then_pool_degrades() {
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 3);
        let mut warmup = distinct_states(6);
        pool.permute_slice(&mut warmup).expect("healthy dispatch");
        assert_eq!(pool.alive_workers(), 3);
        assert_eq!(pool.capacity(), 6);

        pool.kill_worker(1);
        let mut states = distinct_states(7);
        let failed = pool.permute_slice(&mut states);
        assert_eq!(failed, Err(PoolError::WorkerLost { worker: 1 }));
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
    fn a_killed_worker_is_observed_at_the_next_dispatch() {
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
        // One dispatch meets both dead workers, buries both and names
        // the lower one.
        let mut states = distinct_states(4);
        assert_eq!(
            pool.permute_slice(&mut states),
            Err(PoolError::WorkerLost { worker: 0 })
        );
        assert_eq!(pool.alive_workers(), 0);
        assert_eq!(pool.capacity(), 0);
        let mut states = distinct_states(4);
        assert_eq!(
            pool.permute_slice(&mut states),
            Err(PoolError::AllWorkersLost)
        );
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
    fn thin_passes_run_on_live_width_engines_with_an_unchanged_ledger() {
        // SN = 4, the service's engine width. A dispatch of SN + k
        // states over two workers puts one full pass on worker 0 and a
        // k-state pass on worker 1.
        const SN: usize = 4;
        for kind in KernelKind::WITH_EXTENSIONS {
            let full_cycles = VectorKeccakEngine::new(kind, SN)
                .measure()
                .expect("kernel runs")
                .total_cycles;
            for k in 1..=SN {
                let mut wide = VectorKeccakEngine::new(kind, SN);
                wide.permute_slice(&mut distinct_states(k)).unwrap();
                let wide = wide.last_metrics().expect("a pass ran");
                let mut narrow = VectorKeccakEngine::new(kind, k);
                narrow.permute_slice(&mut distinct_states(k)).unwrap();
                let narrow = narrow.last_metrics().expect("a pass ran");
                assert_eq!(
                    KernelMetrics {
                        states: SN,
                        ..narrow
                    },
                    wide,
                    "{kind}: a {k}-wide engine books other cycles than a {SN}-wide one"
                );
                let mut pool = EnginePool::new(kind, SN, 2);
                let mut states = distinct_states(SN + k);
                let mut expected = states.clone();
                pool.permute_slice(&mut states).expect("pool runs");
                for state in &mut expected {
                    keccak_f1600(state);
                }
                assert_eq!(states, expected, "{kind}, k = {k}");
                let loads = EngineLoad {
                    passes: 1,
                    cycles: full_cycles,
                };
                let thin = EngineLoad {
                    passes: 1,
                    cycles: wide.total_cycles,
                };
                assert_eq!(
                    pool.last_metrics().expect("metrics").per_engine,
                    vec![loads, thin],
                    "{kind}, k = {k}"
                );
                let built: Vec<usize> = pool
                    .engines
                    .by_width
                    .iter()
                    .flatten()
                    .map(VectorKeccakEngine::capacity)
                    .collect();
                let mut widths = vec![k, SN];
                widths.dedup();
                assert_eq!(built, widths, "{kind}: engines built");
            }
        }
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
