//! Software-only Keccak-f\[1600\] for the scalar Ibex core.
//!
//! The paper's software baseline is the PQ-M4 C implementation compiled
//! with the RISC-V GNU toolchain and run on the plain Ibex core (paper
//! §4.2, "Ibex core (C-code)"). No cross-compiler is available in this
//! environment, so this module *generates* the equivalent RV32IM
//! assembly — 64-bit lanes as register pairs, the state held in data
//! memory, rotations expanded to shift/or sequences — and runs it on the
//! same simulator with the same Ibex timing model.
//!
//! The generated code is a clean hand-written translation rather than
//! compiler output, so it retires fewer instructions than the paper's
//! measured 2908 cycles/round; both numbers are reported side by side in
//! EXPERIMENTS.md and by the bench harness.

use krv_asm::assemble;

use krv_keccak::constants::{RC, RHO_OFFSETS, STATE_BYTES};
use krv_keccak::KeccakState;
use krv_sha3::PermutationBackend;
use krv_vproc::{Processor, ProcessorConfig, Trap};
use std::fmt::Write as _;

/// Data-memory addresses used by the generated program.
const STATE_ADDR: u32 = 0x000;
const SCRATCH_ADDR: u32 = 0x100; // π writes the permuted state here
const C_ADDR: u32 = 0x1C8; // θ column parities (5 × 8 bytes)
const RC_ADDR: u32 = 0x200; // ι round-constant table (24 × 8 bytes)

/// Cycle metrics of the scalar baseline, in the paper's units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalarMetrics {
    /// Cycles of one round body (excluding loop control).
    pub cycles_per_round: u64,
    /// Cycles for the whole 24-round permutation.
    pub permutation_cycles: u64,
}

impl ScalarMetrics {
    /// Cycles per message byte (`permutation_cycles / 200`).
    pub fn cycles_per_byte(&self) -> f64 {
        self.permutation_cycles as f64 / STATE_BYTES as f64
    }

    /// Throughput in the paper's unit, (bits/cycle) × 10⁻³.
    pub fn throughput_millibits_per_cycle(&self) -> f64 {
        1600.0 / self.permutation_cycles as f64 * 1000.0
    }
}

/// The scalar-core Keccak baseline: generated program + simulator.
#[derive(Debug, Clone)]
pub struct ScalarKeccak {
    cpu: Processor,
    loop_start: u32,
    loop_control: u32,
    after_loop: u32,
    last_metrics: Option<ScalarMetrics>,
}

impl Default for ScalarKeccak {
    fn default() -> Self {
        Self::new()
    }
}

impl ScalarKeccak {
    /// Generates the program and prepares an Ibex-model processor.
    pub fn new() -> Self {
        let source = generate_program();
        let program = assemble(&source).expect("generated baseline must assemble");
        // The vector unit is unused; size it minimally.
        let mut cpu = Processor::new(ProcessorConfig::elen32(1));
        let loop_start = program.symbol("round_loop").expect("loop label");
        let loop_control = program.symbol("loopctl").expect("loop-control label");
        let after_loop = program.symbol("done").expect("done label");
        cpu.load_program(program.instructions());
        // Stage the ι round-constant table once.
        for (i, &rc) in RC.iter().enumerate() {
            cpu.dmem_mut()
                .write(RC_ADDR + 8 * i as u32, 8, rc)
                .expect("RC table fits");
        }
        Self {
            cpu,
            loop_start,
            loop_control,
            after_loop,
            last_metrics: None,
        }
    }

    /// Metrics of the most recent permutation.
    pub fn last_metrics(&self) -> Option<ScalarMetrics> {
        self.last_metrics
    }

    /// Permutes one state on the scalar core.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if the generated program faults (an internal
    /// bug; the program is validated against the reference permutation).
    pub fn permute_state(&mut self, state: &mut KeccakState) -> Result<ScalarMetrics, Trap> {
        self.cpu
            .dmem_mut()
            .write_bytes(STATE_ADDR, &state.to_bytes())?;
        self.cpu.set_pc(0);
        self.cpu.reset_counters();
        self.cpu.run_until_pc(self.loop_start, 1_000_000)?;
        let prologue = self.cpu.cycles();
        self.cpu.run_until_pc(self.loop_control, 1_000_000)?;
        let round = self.cpu.cycles() - prologue;
        self.cpu.run_until_pc(self.after_loop, 10_000_000)?;
        let permutation = self.cpu.cycles();
        self.cpu.run(permutation + 1_000)?;
        let bytes = self.cpu.dmem().read_bytes(STATE_ADDR, STATE_BYTES)?;
        let mut array = [0u8; STATE_BYTES];
        array.copy_from_slice(&bytes);
        *state = KeccakState::from_bytes(&array);
        let metrics = ScalarMetrics {
            cycles_per_round: round,
            permutation_cycles: permutation,
        };
        self.last_metrics = Some(metrics);
        Ok(metrics)
    }

    /// Runs one permutation of the zero state and reports its metrics
    /// (cycle counts are data-independent).
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if the generated program faults.
    pub fn measure(&mut self) -> Result<ScalarMetrics, Trap> {
        let mut state = KeccakState::new();
        self.permute_state(&mut state)
    }
}

impl PermutationBackend for ScalarKeccak {
    /// Permutes each state sequentially on the scalar core.
    ///
    /// # Panics
    ///
    /// Panics if the validated baseline program traps (internal bug).
    fn permute_all(&mut self, states: &mut [KeccakState]) {
        for state in states {
            self.permute_state(state)
                .expect("validated baseline must not trap");
        }
    }
}

fn lane_off(x: usize, y: usize) -> u32 {
    8 * (x + 5 * y) as u32
}

fn ld64(asm: &mut String, lo: &str, hi: &str, base: &str, off: u32) {
    let _ = writeln!(asm, "    lw {lo}, {off}({base})");
    let _ = writeln!(asm, "    lw {hi}, {}({base})", off + 4);
}

fn st64(asm: &mut String, lo: &str, hi: &str, base: &str, off: u32) {
    let _ = writeln!(asm, "    sw {lo}, {off}({base})");
    let _ = writeln!(asm, "    sw {hi}, {}({base})", off + 4);
}

/// Emits a 64-bit rotate-left of `(hi‖lo)` in (t0, t1) by `n` into
/// (t2, t3), clobbering t4.
fn rot64(asm: &mut String, n: u32) {
    debug_assert!(n > 0 && n < 64 && n != 32, "ρ offsets avoid 0/32 here");
    let (a, b, m) = if n < 32 {
        ("t0", "t1", n) // lo' from lo<<n | hi>>(32-n)
    } else {
        ("t1", "t0", n - 32) // word swap for n > 32
    };
    let (c, d) = if n < 32 { ("t1", "t0") } else { ("t0", "t1") };
    if m == 0 {
        // Pure word swap (n == 32): not reachable for ρ, kept for safety.
        let _ = writeln!(asm, "    mv t2, t1");
        let _ = writeln!(asm, "    mv t3, t0");
        return;
    }
    let _ = writeln!(asm, "    slli t2, {a}, {m}");
    let _ = writeln!(asm, "    srli t4, {b}, {}", 32 - m);
    let _ = writeln!(asm, "    or t2, t2, t4");
    let _ = writeln!(asm, "    slli t3, {c}, {m}");
    let _ = writeln!(asm, "    srli t4, {d}, {}", 32 - m);
    let _ = writeln!(asm, "    or t3, t3, t4");
}

/// Generates the complete scalar Keccak-f\[1600\] program.
fn generate_program() -> String {
    let mut asm = String::new();
    let _ = writeln!(asm, "    li a0, {STATE_ADDR}");
    let _ = writeln!(asm, "    li a1, {SCRATCH_ADDR}");
    let _ = writeln!(asm, "    li a2, {RC_ADDR}");
    let _ = writeln!(asm, "    li a3, {C_ADDR}");
    asm.push_str("    li s3, 0\n    li s4, 24\nround_loop:\n");

    // θ: column parities C[x] = ⊕_y A[x, y].
    for x in 0..5 {
        ld64(&mut asm, "t0", "t1", "a0", lane_off(x, 0));
        for y in 1..5 {
            ld64(&mut asm, "t2", "t3", "a0", lane_off(x, y));
            asm.push_str("    xor t0, t0, t2\n    xor t1, t1, t3\n");
        }
        st64(&mut asm, "t0", "t1", "a3", 8 * x as u32);
    }
    // θ: D[x] = C[x−1] ⊕ ROTL(C[x+1], 1), applied to every lane of
    // column x.
    for x in 0..5 {
        ld64(&mut asm, "t5", "t6", "a3", 8 * ((x + 4) % 5) as u32);
        ld64(&mut asm, "t0", "t1", "a3", 8 * ((x + 1) % 5) as u32);
        rot64(&mut asm, 1);
        asm.push_str("    xor t5, t5, t2\n    xor t6, t6, t3\n");
        for y in 0..5 {
            ld64(&mut asm, "t0", "t1", "a0", lane_off(x, y));
            asm.push_str("    xor t0, t0, t5\n    xor t1, t1, t6\n");
            st64(&mut asm, "t0", "t1", "a0", lane_off(x, y));
        }
    }
    // ρ: rotate every lane but (0, 0).
    for y in 0..5 {
        for x in 0..5 {
            let n = RHO_OFFSETS[y][x];
            if n == 0 {
                continue;
            }
            ld64(&mut asm, "t0", "t1", "a0", lane_off(x, y));
            rot64(&mut asm, n);
            st64(&mut asm, "t2", "t3", "a0", lane_off(x, y));
        }
    }
    // π into the scratch state: F[x, y] = E[(x + 3y) mod 5, x].
    for y in 0..5 {
        for x in 0..5 {
            let sx = (x + 3 * y) % 5;
            ld64(&mut asm, "t0", "t1", "a0", lane_off(sx, x));
            st64(&mut asm, "t0", "t1", "a1", lane_off(x, y));
        }
    }
    // χ back into the state: H = F ⊕ (¬F₊₁ ∧ F₊₂).
    for y in 0..5 {
        for x in 0..5 {
            ld64(&mut asm, "t0", "t1", "a1", lane_off((x + 1) % 5, y));
            asm.push_str("    not t0, t0\n    not t1, t1\n");
            ld64(&mut asm, "t2", "t3", "a1", lane_off((x + 2) % 5, y));
            asm.push_str("    and t0, t0, t2\n    and t1, t1, t3\n");
            ld64(&mut asm, "t2", "t3", "a1", lane_off(x, y));
            asm.push_str("    xor t0, t0, t2\n    xor t1, t1, t3\n");
            st64(&mut asm, "t0", "t1", "a0", lane_off(x, y));
        }
    }
    // ι: lane (0, 0) ^= RC[round].
    asm.push_str(
        "    slli t4, s3, 3\n\
         \x20   add t4, t4, a2\n\
         \x20   lw t0, 0(t4)\n\
         \x20   lw t1, 4(t4)\n",
    );
    ld64(&mut asm, "t2", "t3", "a0", 0);
    asm.push_str("    xor t2, t2, t0\n    xor t3, t3, t1\n");
    st64(&mut asm, "t2", "t3", "a0", 0);
    // Loop control (long-range backward jump via j: the round body
    // exceeds the conditional-branch range).
    asm.push_str(
        "loopctl:\n\
         \x20   addi s3, s3, 1\n\
         \x20   bge s3, s4, done\n\
         \x20   j round_loop\n\
         done:\n\
         \x20   ecall\n",
    );
    asm
}

/// Returns the generated assembly source (for inspection/disassembly
/// round-trips in tests and docs).
pub fn program_source() -> String {
    generate_program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use krv_keccak::keccak_f1600;

    #[test]
    fn scalar_baseline_matches_reference() {
        let mut baseline = ScalarKeccak::new();
        let mut lanes = [0u64; 25];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = (i as u64).wrapping_mul(0xDEAD_BEEF_1234_5677) ^ 0x55;
        }
        let mut state = KeccakState::from_lanes(lanes);
        let mut expected = state;
        baseline.permute_state(&mut state).expect("runs");
        keccak_f1600(&mut expected);
        assert_eq!(state, expected);
    }

    #[test]
    fn zero_state_known_answer() {
        let mut baseline = ScalarKeccak::new();
        let mut state = KeccakState::new();
        baseline.permute_state(&mut state).unwrap();
        assert_eq!(state.lane(0, 0), 0xF1258F7940E1DDE7);
    }

    #[test]
    fn metrics_are_plausible_for_a_scalar_core() {
        let mut baseline = ScalarKeccak::new();
        let metrics = baseline.measure().unwrap();
        // Orders of magnitude: a 32-bit in-memory Keccak takes thousands
        // of cycles per round (the paper's compiled C measures 2908).
        assert!(
            metrics.cycles_per_round > 1000 && metrics.cycles_per_round < 4000,
            "cycles/round = {}",
            metrics.cycles_per_round
        );
        assert!(metrics.cycles_per_byte() > 100.0);
    }

    #[test]
    fn metrics_are_the_same_on_the_stepper() {
        let compiled = ScalarKeccak::new().measure().unwrap();
        let mut baseline = ScalarKeccak::new();
        baseline.cpu.set_compiled(false);
        let mut state = KeccakState::new();
        let stepped = baseline.permute_state(&mut state).unwrap();
        assert_eq!(stepped, compiled);
        assert_eq!(state.lane(0, 0), 0xF1258F7940E1DDE7);
        assert_eq!(baseline.cpu.compiled_dispatches(), 0);
    }

    #[test]
    fn backend_impl_composes_with_sha3() {
        use krv_sha3::Sha3_256;
        let digest = {
            let mut hasher = Sha3_256::with_backend(ScalarKeccak::new());
            hasher.update(b"abc");
            hasher.finalize()
        };
        assert_eq!(
            krv_sha3::hex(&digest),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
        );
    }

    #[test]
    fn source_is_reassemblable() {
        let program = assemble(&program_source()).unwrap();
        assert!(program.instructions().len() > 900);
    }
}
