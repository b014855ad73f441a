//! The multi-state vector Keccak engine.

use crate::cache::{prepared_kernel, PreparedKernel};
use crate::layout;
use crate::metrics::KernelMetrics;
use crate::programs::{
    kernel_e32_lmul8, kernel_e64_fused, kernel_e64_lmul1, kernel_e64_lmul4_1, kernel_e64_lmul8,
    KernelProgram, STATE_BASE, STATE_BASE_HI,
};
use krv_keccak::KeccakState;
use krv_sha3::PermutationBackend;
use krv_vproc::{Processor, ProcessorConfig, Trap};
use std::fmt;
use std::sync::Arc;

/// Which architecture/kernel combination the engine runs
/// (the three rows families of paper Tables 7 and 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// 64-bit architecture, LMUL = 1 (paper Algorithm 2).
    E64Lmul1,
    /// 64-bit architecture, LMUL = 8 (paper Algorithm 3).
    E64Lmul8,
    /// 32-bit architecture, LMUL = 8 (paper §3.2/§4.1).
    E32Lmul8,
    /// 64-bit architecture, the LMUL=4+1 grouping the paper considers
    /// and rejects in §4.1 (ablation; slower than LMUL=8).
    E64Lmul41,
    /// 64-bit architecture with the fused ρ+π `vrhopi` instruction —
    /// an extension realizing the paper's §5 future work.
    E64Fused,
}

impl KernelKind {
    /// The paper's three evaluated kernels, in presentation order.
    pub const ALL: [KernelKind; 3] = [
        KernelKind::E64Lmul1,
        KernelKind::E64Lmul8,
        KernelKind::E32Lmul8,
    ];

    /// Every kernel including the ablation and the fused extension.
    pub const WITH_EXTENSIONS: [KernelKind; 5] = [
        KernelKind::E64Lmul1,
        KernelKind::E64Lmul8,
        KernelKind::E32Lmul8,
        KernelKind::E64Lmul41,
        KernelKind::E64Fused,
    ];

    /// A short human-readable label matching the paper's table rows.
    pub const fn label(self) -> &'static str {
        match self {
            KernelKind::E64Lmul1 => "64-bit with LMUL=1",
            KernelKind::E64Lmul8 => "64-bit with LMUL=8",
            KernelKind::E32Lmul8 => "32-bit with LMUL=8",
            KernelKind::E64Lmul41 => "64-bit with LMUL=4+1 (ablation)",
            KernelKind::E64Fused => "64-bit with fused vrhopi (extension)",
        }
    }

    /// The paper's reported cycles/round, `None` for the kernels the
    /// paper did not evaluate (the ablation and the fused extension).
    pub const fn paper_cycles_per_round(self) -> Option<u64> {
        match self {
            KernelKind::E64Lmul1 => Some(103),
            KernelKind::E64Lmul8 => Some(75),
            KernelKind::E32Lmul8 => Some(147),
            KernelKind::E64Lmul41 | KernelKind::E64Fused => None,
        }
    }

    /// The paper's reported whole-permutation latency in cycles, `None`
    /// for the non-paper kernels.
    pub const fn paper_permutation_cycles(self) -> Option<u64> {
        match self {
            KernelKind::E64Lmul1 => Some(2564),
            KernelKind::E64Lmul8 => Some(1892),
            KernelKind::E32Lmul8 => Some(3620),
            KernelKind::E64Lmul41 | KernelKind::E64Fused => None,
        }
    }

    pub(crate) fn generate(self, elenum: usize) -> KernelProgram {
        match self {
            KernelKind::E64Lmul1 => kernel_e64_lmul1(elenum),
            KernelKind::E64Lmul8 => kernel_e64_lmul8(elenum),
            KernelKind::E32Lmul8 => kernel_e32_lmul8(elenum),
            KernelKind::E64Lmul41 => kernel_e64_lmul4_1(elenum),
            KernelKind::E64Fused => kernel_e64_fused(elenum),
        }
    }

    pub(crate) fn processor_config(self, elenum: usize) -> ProcessorConfig {
        match self {
            KernelKind::E32Lmul8 => ProcessorConfig::elen32(elenum),
            _ => ProcessorConfig::elen64(elenum),
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Runs the Keccak-f\[1600\] permutation on up to `SN` states in parallel
/// on the simulated SIMD processor.
///
/// Construct with the kernel kind and the number of parallel states; the
/// engine sizes the processor (`EleNum = 5 × SN`), generates and loads
/// the kernel, and presets the plane base-address registers. Each
/// [`VectorKeccakEngine::permute_slice`] call writes the states into data
/// memory in the paper's layout, executes the full 24-round program, and
/// reads the permuted states back.
///
/// The engine also implements [`PermutationBackend`], so `krv-sha3`
/// hash functions can run directly on the simulated hardware.
#[derive(Debug, Clone)]
pub struct VectorKeccakEngine {
    kind: KernelKind,
    states: usize,
    cpu: Processor,
    prepared: Arc<PreparedKernel>,
    last_metrics: Option<KernelMetrics>,
    permutations: u64,
}

impl VectorKeccakEngine {
    /// Creates an engine holding `sn` parallel states (`EleNum = 5·sn`)
    /// that runs on the compiled tier.
    ///
    /// The kernel is pulled from the process-wide [`crate::cache`]: the
    /// first engine for a given `(kind, sn)` generates, assembles and
    /// pre-decodes it; every further engine — including every engine of
    /// an [`crate::pool::EnginePool`] — shares that preparation.
    ///
    /// # Panics
    ///
    /// Panics if `sn` is zero.
    pub fn new(kind: KernelKind, sn: usize) -> Self {
        Self::with_compiled(kind, sn, true)
    }

    /// Creates an engine with the execution tier pinned explicitly:
    /// `compiled = true` dispatches through the shared
    /// [`krv_vproc::CompiledProgram`] of the cached kernel, as
    /// [`VectorKeccakEngine::new`] does; `false` pins the
    /// per-instruction stepper, the reference the compiled tier is
    /// held to.
    ///
    /// # Panics
    ///
    /// Panics if `sn` is zero.
    pub fn with_compiled(kind: KernelKind, sn: usize, compiled: bool) -> Self {
        assert!(sn > 0, "the engine needs at least one state slot");
        let elenum = 5 * sn;
        let prepared = prepared_kernel(kind, elenum);
        let mut cpu = Processor::new(kind.processor_config(elenum));
        if compiled {
            cpu.load_compiled(Arc::clone(&prepared.compiled));
        } else {
            // Loading a decoded program leaves the switch as it is, and
            // a new processor starts with the compiled tier on.
            cpu.load_decoded(Arc::clone(&prepared.decoded));
            cpu.set_compiled(false);
        }
        Self {
            kind,
            states: sn,
            cpu,
            prepared,
            last_metrics: None,
            permutations: 0,
        }
    }

    /// The kernel kind.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Maximum states permuted per hardware pass (`SN`).
    pub fn capacity(&self) -> usize {
        self.states
    }

    /// The generated kernel (assembly source, program, markers).
    pub fn kernel(&self) -> &KernelProgram {
        &self.prepared.kernel
    }

    /// Metrics of the most recent hardware pass.
    pub fn last_metrics(&self) -> Option<KernelMetrics> {
        self.last_metrics
    }

    /// Total hardware permutation passes executed.
    pub fn permutations(&self) -> u64 {
        self.permutations
    }

    /// Read access to the underlying processor (diagnostics).
    pub fn processor(&self) -> &Processor {
        &self.cpu
    }

    /// Whether this engine dispatches through the compiled tier.
    pub fn compiled(&self) -> bool {
        self.cpu.compiled()
    }

    /// Permutes every state in `states`, in chunks of [`Self::capacity`].
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if the kernel faults (which indicates an engine
    /// bug — the generated kernels are validated against the reference
    /// permutation).
    pub fn permute_slice(&mut self, states: &mut [KeccakState]) -> Result<(), Trap> {
        for chunk in states.chunks_mut(self.states) {
            self.run_pass(chunk)?;
        }
        Ok(())
    }

    /// Runs one measured hardware pass on an all-zero state set and
    /// returns its metrics (used by the bench harness; the cycle counts
    /// are data-independent).
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if the kernel faults.
    pub fn measure(&mut self) -> Result<KernelMetrics, Trap> {
        let mut states = vec![KeccakState::new(); self.states];
        self.run_pass(&mut states)?;
        Ok(self.last_metrics.expect("run_pass records metrics"))
    }

    /// Opens a device-resident session: states stay staged in the
    /// simulated data memory between kernel runs, so chained
    /// permutations skip the host-side write/read round trip that
    /// [`Self::permute_slice`] performs on every call.
    pub fn session(&mut self) -> EngineSession<'_> {
        EngineSession {
            engine: self,
            resident: 0,
        }
    }

    fn run_pass(&mut self, states: &mut [KeccakState]) -> Result<(), Trap> {
        self.stage_states(states)?;
        self.run_kernel()?;
        self.read_back(states)
    }

    /// Stages `states` into data memory in the paper's layout
    /// (Figures 5/6).
    fn stage_states(&mut self, states: &[KeccakState]) -> Result<(), Trap> {
        debug_assert!(states.len() <= self.states);
        let elenum = self.prepared.kernel.elenum;
        match self.kind {
            KernelKind::E32Lmul8 => layout::write_states_32(
                self.cpu.dmem_mut(),
                STATE_BASE,
                STATE_BASE_HI,
                elenum,
                states,
            ),
            _ => layout::write_states_64(self.cpu.dmem_mut(), STATE_BASE, elenum, states),
        }
    }

    /// Runs the kernel once over whatever is staged in data memory,
    /// recording phase-accurate metrics.
    ///
    /// The kernel's control flow is data-independent, so the phase
    /// split is measured once: the engine's first pass stops at the
    /// program markers to time the prologue, round 1 and the round loop.
    /// Every later pass is one [`Processor::run`], whose cycle total
    /// must equal the first pass's.
    ///
    /// # Panics
    ///
    /// Panics, naming both totals, if a later pass's cycle count differs
    /// from the first pass's: the kernels' cost is data-independent, so
    /// a difference is an execution-tier bug.
    fn run_kernel(&mut self) -> Result<(), Trap> {
        // Preset the plane base-address registers and enter the kernel.
        for &(reg, addr) in &self.prepared.kernel.presets {
            self.cpu.set_xreg(reg, addr);
        }
        self.cpu.set_pc(0);
        self.cpu.reset_counters();
        match self.last_metrics {
            Some(measured) => {
                self.cpu.run(measured.permutation_cycles + 100_000)?;
                assert_eq!(
                    self.cpu.cycles(),
                    measured.total_cycles,
                    "{} at SN = {}: a pass took {} cycles, the first took {}",
                    self.kind,
                    self.states,
                    self.cpu.cycles(),
                    measured.total_cycles
                );
            }
            None => self.last_metrics = Some(self.run_measured()?),
        }
        self.permutations += 1;
        Ok(())
    }

    /// Runs the kernel with stops at the program markers and returns
    /// its phase-accurate metrics.
    fn run_measured(&mut self) -> Result<KernelMetrics, Trap> {
        let markers = self.prepared.kernel.markers;
        self.cpu.run_until_pc(markers.loop_start, 1_000_000)?;
        let prologue_end = self.cpu.cycles();
        let prologue_retired = self.cpu.retired();
        self.cpu.run_until_pc(markers.loop_control, 1_000_000)?;
        let first_round = self.cpu.cycles() - prologue_end;
        let round_instructions = self.cpu.retired() - prologue_retired;
        self.cpu.run_until_pc(markers.after_loop, 10_000_000)?;
        let permutation_cycles = self.cpu.cycles();
        self.cpu.run(permutation_cycles + 100_000)?;
        Ok(KernelMetrics {
            cycles_per_round: first_round,
            permutation_cycles,
            total_cycles: self.cpu.cycles(),
            states: self.states,
            instructions_per_round: round_instructions,
        })
    }

    /// Reads the permuted states back from data memory into `states`.
    fn read_back(&mut self, states: &mut [KeccakState]) -> Result<(), Trap> {
        let elenum = self.prepared.kernel.elenum;
        match self.kind {
            KernelKind::E32Lmul8 => layout::read_states_32_into(
                self.cpu.dmem(),
                STATE_BASE,
                STATE_BASE_HI,
                elenum,
                states,
            ),
            _ => layout::read_states_64_into(self.cpu.dmem(), STATE_BASE, elenum, states),
        }
    }
}

/// A device-resident view of one engine: load once, permute any number
/// of times, read back once.
///
/// The kernel's epilogue stores the permuted states back to data memory,
/// so a second [`EngineSession::permute`] picks up exactly where the
/// first left off — no host round trip between runs. [`Sessions`] exist
/// for workloads that chain permutations over the same state set (e.g.
/// long squeezes, permutation chains, throughput measurement); one-shot
/// callers can keep using [`VectorKeccakEngine::permute_slice`].
///
/// [`Sessions`]: EngineSession
pub struct EngineSession<'e> {
    engine: &'e mut VectorKeccakEngine,
    resident: usize,
}

impl EngineSession<'_> {
    /// Stages `states` into device memory, making them resident.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if the staging writes fall outside data memory.
    ///
    /// # Panics
    ///
    /// Panics if `states` exceeds the engine capacity — a session is one
    /// hardware pass wide by construction.
    pub fn load(&mut self, states: &[KeccakState]) -> Result<(), Trap> {
        assert!(
            states.len() <= self.engine.states,
            "session holds at most SN = {} states, got {}",
            self.engine.states,
            states.len()
        );
        self.engine.stage_states(states)?;
        self.resident = states.len();
        Ok(())
    }

    /// Runs the permutation kernel once over the resident states.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if the kernel faults.
    pub fn permute(&mut self) -> Result<(), Trap> {
        self.engine.run_kernel()
    }

    /// Runs the kernel `times` times back to back, device-resident.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if any run faults.
    pub fn permute_times(&mut self, times: u64) -> Result<(), Trap> {
        for _ in 0..times {
            self.engine.run_kernel()?;
        }
        Ok(())
    }

    /// Reads the resident states back into `out`.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if the read falls outside data memory.
    ///
    /// # Panics
    ///
    /// Panics if `out` is longer than the resident set.
    pub fn read(&mut self, out: &mut [KeccakState]) -> Result<(), Trap> {
        assert!(
            out.len() <= self.resident,
            "only {} states are resident, asked for {}",
            self.resident,
            out.len()
        );
        self.engine.read_back(out)
    }

    /// Number of states currently resident in device memory.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Metrics of the most recent kernel run in this session.
    pub fn last_metrics(&self) -> Option<KernelMetrics> {
        self.engine.last_metrics
    }
}

impl PermutationBackend for VectorKeccakEngine {
    /// Permutes all states on the simulated processor.
    ///
    /// # Panics
    ///
    /// Panics if the kernel traps — the generated kernels are validated,
    /// so a trap indicates an internal bug, not a caller error.
    fn permute_all(&mut self, states: &mut [KeccakState]) {
        self.permute_slice(states)
            .expect("validated kernel must not trap");
    }

    fn parallel_states(&self) -> usize {
        self.states
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
                    *lane = (s as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64) << 17;
                }
                KeccakState::from_lanes(lanes)
            })
            .collect()
    }

    fn check_kernel(kind: KernelKind, sn: usize) {
        let mut engine = VectorKeccakEngine::new(kind, sn);
        let mut states = distinct_states(sn);
        let mut expected = states.clone();
        engine.permute_slice(&mut states).expect("kernel runs");
        for state in &mut expected {
            keccak_f1600(state);
        }
        assert_eq!(states, expected, "{kind} with {sn} states");
    }

    #[test]
    fn e64_lmul1_matches_reference() {
        check_kernel(KernelKind::E64Lmul1, 1);
        check_kernel(KernelKind::E64Lmul1, 3);
    }

    #[test]
    fn e64_lmul8_matches_reference() {
        check_kernel(KernelKind::E64Lmul8, 1);
        check_kernel(KernelKind::E64Lmul8, 6);
    }

    #[test]
    fn e32_lmul8_matches_reference() {
        check_kernel(KernelKind::E32Lmul8, 1);
        check_kernel(KernelKind::E32Lmul8, 3);
    }

    #[test]
    fn lmul41_ablation_matches_reference() {
        check_kernel(KernelKind::E64Lmul41, 1);
        check_kernel(KernelKind::E64Lmul41, 3);
    }

    #[test]
    fn fused_extension_matches_reference() {
        check_kernel(KernelKind::E64Fused, 1);
        check_kernel(KernelKind::E64Fused, 6);
    }

    #[test]
    fn extension_kernel_round_costs() {
        let mut ablation = VectorKeccakEngine::new(KernelKind::E64Lmul41, 1);
        assert_eq!(ablation.measure().unwrap().cycles_per_round, 91);
        let mut fused = VectorKeccakEngine::new(KernelKind::E64Fused, 1);
        assert_eq!(fused.measure().unwrap().cycles_per_round, 69);
    }

    #[test]
    fn cycles_per_round_match_paper() {
        for (kind, expected) in [
            (KernelKind::E64Lmul1, 103),
            (KernelKind::E64Lmul8, 75),
            (KernelKind::E32Lmul8, 147),
        ] {
            let mut engine = VectorKeccakEngine::new(kind, 1);
            let metrics = engine.measure().unwrap();
            assert_eq!(metrics.cycles_per_round, expected, "{kind} cycles/round");
        }
    }

    #[test]
    fn latency_is_independent_of_state_count() {
        // Paper §4.2: "The latency is the same no matter how many Keccak
        // states there are in the system simultaneously."
        for kind in KernelKind::ALL {
            let mut one = VectorKeccakEngine::new(kind, 1);
            let mut six = VectorKeccakEngine::new(kind, 6);
            let m1 = one.measure().unwrap();
            let m6 = six.measure().unwrap();
            assert_eq!(m1.permutation_cycles, m6.permutation_cycles, "{kind}");
            assert_eq!(m6.states, 6);
        }
    }

    #[test]
    fn oversized_slice_is_chunked() {
        let mut engine = VectorKeccakEngine::new(KernelKind::E64Lmul8, 2);
        let mut states = distinct_states(5);
        let mut expected = states.clone();
        engine.permute_slice(&mut states).unwrap();
        for state in &mut expected {
            keccak_f1600(state);
        }
        assert_eq!(states, expected);
        assert_eq!(engine.permutations(), 3, "ceil(5/2) hardware passes");
    }

    #[test]
    fn session_chains_permutations_device_resident() {
        let mut engine = VectorKeccakEngine::new(KernelKind::E64Lmul8, 3);
        let states = distinct_states(3);
        let mut expected = states.clone();
        let mut out = states.clone();
        let mut session = engine.session();
        session.load(&states).unwrap();
        session.permute_times(3).unwrap();
        assert_eq!(session.resident(), 3);
        session.read(&mut out).unwrap();
        for state in &mut expected {
            for _ in 0..3 {
                keccak_f1600(state);
            }
        }
        assert_eq!(out, expected);
        assert_eq!(engine.permutations(), 3);
    }

    #[test]
    fn session_partial_load_and_read() {
        let mut engine = VectorKeccakEngine::new(KernelKind::E32Lmul8, 4);
        let states = distinct_states(2);
        let mut expected = states.clone();
        let mut out = states.clone();
        let mut session = engine.session();
        session.load(&states).unwrap();
        session.permute().unwrap();
        session.read(&mut out).unwrap();
        for state in &mut expected {
            keccak_f1600(state);
        }
        assert_eq!(out, expected);
    }

    #[test]
    fn engines_share_the_cached_decoded_program() {
        let a = VectorKeccakEngine::new(KernelKind::E64Lmul1, 2);
        let b = VectorKeccakEngine::new(KernelKind::E64Lmul1, 2);
        assert!(
            std::sync::Arc::ptr_eq(
                &a.processor().decoded_program(),
                &b.processor().decoded_program()
            ),
            "both engines must dispatch from one shared program image"
        );
    }

    #[test]
    fn the_compiled_switch_picks_the_execution_path_only() {
        // Tables 7/8 measure SN = 1, 3 and 6; 2 is a width none of them
        // uses.
        for kind in KernelKind::WITH_EXTENSIONS {
            for sn in [1, 2, 3, 6] {
                let mut metrics = Vec::new();
                for compiled in [false, true] {
                    let mut engine = VectorKeccakEngine::with_compiled(kind, sn, compiled);
                    assert_eq!(engine.compiled(), compiled, "{kind}");
                    let mut states = distinct_states(sn);
                    let mut expected = states.clone();
                    engine.permute_slice(&mut states).expect("kernel runs");
                    for state in &mut expected {
                        keccak_f1600(state);
                    }
                    assert_eq!(states, expected, "{kind}, SN = {sn}, compiled = {compiled}");
                    let dispatches = engine.processor().compiled_dispatches();
                    if compiled {
                        assert!(dispatches > 0, "{kind}: compiled engine never dispatched");
                    } else {
                        assert_eq!(dispatches, 0, "{kind}: stepper engine dispatched compiled");
                    }
                    metrics.push(engine.last_metrics().expect("a pass ran"));
                }
                assert_eq!(
                    metrics[0], metrics[1],
                    "{kind}, SN = {sn}: metrics depend on the path"
                );
            }
        }
    }

    #[test]
    fn e64_lmul8_rounds_run_as_one_resident_call() {
        // A warm pass is one `run` that makes three region calls at every
        // SN from 1 to 8: the prologue, a 24-trip resident call and the
        // stores.
        for sn in 1..=8 {
            let mut engine = VectorKeccakEngine::with_compiled(KernelKind::E64Lmul8, sn, true);
            let mut states = distinct_states(sn);
            engine.permute_slice(&mut states).expect("kernel runs");
            let before = engine.processor().compiled_dispatches();
            engine.permute_slice(&mut states).expect("kernel runs");
            let per_pass = engine.processor().compiled_dispatches() - before;
            assert_eq!(per_pass, 3, "SN = {sn}");
            assert_eq!(engine.last_metrics().unwrap().cycles_per_round, 75);
        }
    }

    #[test]
    fn a_first_e64_lmul8_pass_makes_five_region_calls() {
        // A fresh engine's first pass stops at the loop markers to
        // measure the phase split, so it makes five region calls: the
        // prologue, round 1 up to `loopctl`, the loop control, rounds 2
        // to 24 as one resident call, and the stores. The prologue
        // predicts its `vsetvli`'s AVL from the kernel's own `li s1`,
        // not from the fresh processor's zero, so it runs whole instead
        // of leaving at its guard.
        for sn in 1..=8 {
            let mut engine = VectorKeccakEngine::with_compiled(KernelKind::E64Lmul8, sn, true);
            let mut states = distinct_states(sn);
            engine.permute_slice(&mut states).expect("kernel runs");
            assert_eq!(engine.processor().compiled_dispatches(), 5, "SN = {sn}");
        }
    }

    #[test]
    fn a_warm_pass_is_one_run_with_the_first_pass_metrics() {
        // The first pass stops at the loop markers to measure the phase
        // split; a warm pass runs straight through from the entry to the
        // `ecall`, so its only stops are the compiled regions' own ends,
        // and it books exactly the first pass's metrics.
        for sn in 1..=4 {
            for compiled in [false, true] {
                let mut engine =
                    VectorKeccakEngine::with_compiled(KernelKind::E64Lmul8, sn, compiled);
                let mut states = distinct_states(sn);
                let mut expected = states.clone();
                engine.permute_slice(&mut states).expect("kernel runs");
                let first = engine.last_metrics().expect("a pass ran");
                for pass in 0..3 {
                    let before = engine.processor().compiled_dispatches();
                    engine.permute_slice(&mut states).expect("kernel runs");
                    assert_eq!(
                        engine.last_metrics(),
                        Some(first),
                        "SN = {sn}, compiled = {compiled}, warm pass {pass}"
                    );
                    let regions = engine.processor().compiled_dispatches() - before;
                    assert_eq!(regions, if compiled { 3 } else { 0 }, "SN = {sn}");
                }
                for state in &mut expected {
                    for _ in 0..4 {
                        keccak_f1600(state);
                    }
                }
                assert_eq!(states, expected, "SN = {sn}, compiled = {compiled}");
                assert_eq!(engine.permutations(), 4);
            }
        }
    }

    #[test]
    fn repeated_permutation_composes() {
        let mut engine = VectorKeccakEngine::new(KernelKind::E64Lmul1, 1);
        let mut state = vec![KeccakState::new()];
        engine.permute_slice(&mut state).unwrap();
        engine.permute_slice(&mut state).unwrap();
        let mut expected = KeccakState::new();
        keccak_f1600(&mut expected);
        keccak_f1600(&mut expected);
        assert_eq!(state[0], expected);
    }
}
