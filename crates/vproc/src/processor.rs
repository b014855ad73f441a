//! The processor: scalar core + vector unit + memories + cycle counter.

use crate::compiled::{
    self, BlockCtx, CompiledBlock, CompiledProgram, CompiledSlot, Geometry, Op, OpExit, RoundSpan,
    ROUND_LEN,
};
use crate::config::ProcessorConfig;
use crate::decoded::{DecodedInstr, DecodedProgram};
use crate::exec::{custom, standard};
use crate::memory::DataMemory;
use crate::timing::TimingContext;
use crate::trace::Tracer;
use crate::trap::Trap;
use crate::vector::VectorUnit;
use krv_isa::{Instruction, LoadKind, MemMode, OpImmKind, OpKind, Sew, StoreKind, VReg, XReg};
use krv_keccak::constants::RC;
use std::sync::Arc;

/// Why the processor stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltCause {
    /// `ecall` retired (normal program exit).
    Ecall,
    /// `ebreak` retired (breakpoint exit).
    Ebreak,
}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Total cycles consumed (per the configured timing model).
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// What stopped execution.
    pub halt: HaltCause,
}

/// The simulated SIMD RISC-V processor (paper Figure 3).
///
/// # Example
///
/// ```
/// use krv_vproc::{Processor, ProcessorConfig};
/// use krv_isa::{Instruction, XReg};
///
/// let mut cpu = Processor::new(ProcessorConfig::elen64(5));
/// cpu.load_program(&[
///     Instruction::addi(XReg::X10, XReg::X0, 11),
///     Instruction::Ecall,
/// ]);
/// let summary = cpu.run(100)?;
/// assert_eq!(cpu.xreg(XReg::X10), 11);
/// assert_eq!(summary.retired, 2);
/// # Ok::<(), krv_vproc::Trap>(())
/// ```
#[derive(Debug, Clone)]
pub struct Processor {
    config: ProcessorConfig,
    program: Arc<DecodedProgram>,
    pc: u32,
    xregs: [u32; 32],
    vu: VectorUnit,
    dmem: DataMemory,
    cycles: u64,
    retired: u64,
    retired_vector: u64,
    halted: Option<HaltCause>,
    tracer: Tracer,
    compiled_on: bool,
    shared_compiled: Option<Arc<CompiledProgram>>,
    compiled_cache: Vec<CompiledSlot>,
    compiled_dispatches: u64,
}

impl Processor {
    /// Creates a processor with zeroed state and empty program memory,
    /// with the compiled execution tier on (see
    /// [`Processor::set_compiled`]).
    pub fn new(config: ProcessorConfig) -> Self {
        let vu = VectorUnit::new(config.elen, config.elenum);
        let dmem = DataMemory::new(config.dmem_bytes);
        let tracer = Tracer::new(config.trace);
        let program = Arc::new(DecodedProgram::compile(&[], &config.timing));
        Self {
            config,
            program,
            pc: 0,
            xregs: [0; 32],
            vu,
            dmem,
            cycles: 0,
            retired: 0,
            retired_vector: 0,
            halted: None,
            tracer,
            compiled_on: true,
            shared_compiled: None,
            compiled_cache: Vec::new(),
            compiled_dispatches: 0,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// Loads a program into instruction memory and resets the PC.
    ///
    /// The program is pre-decoded against the configured timing model
    /// (see [`DecodedProgram`]); to amortize that across processors, use
    /// [`Processor::load_decoded`].
    pub fn load_program(&mut self, instructions: &[Instruction]) {
        self.load_decoded(Arc::new(DecodedProgram::compile(
            instructions,
            &self.config.timing,
        )));
    }

    /// Loads a shared pre-decoded program and resets the PC.
    ///
    /// # Panics
    ///
    /// Panics if `program` was compiled against a different timing model
    /// than this processor's — the baked-in costs would silently
    /// mis-account cycles otherwise.
    pub fn load_decoded(&mut self, program: Arc<DecodedProgram>) {
        assert_eq!(
            program.timing(),
            &self.config.timing,
            "decoded program was compiled against a different timing model"
        );
        self.program = program;
        self.pc = 0;
        self.halted = None;
        self.shared_compiled = None;
        self.compiled_cache.clear();
    }

    /// Loads a shared compiled program (and the decoded program it
    /// wraps) and enables the compiled execution tier.
    ///
    /// Sharing one [`CompiledProgram`] between processors shares the
    /// per-configuration compiled blocks too — each processor keeps only
    /// a small lock-free dispatch cache of its own.
    ///
    /// # Panics
    ///
    /// Panics under the same timing-model mismatch condition as
    /// [`Processor::load_decoded`].
    pub fn load_compiled(&mut self, program: Arc<CompiledProgram>) {
        self.load_decoded(program.decoded());
        self.shared_compiled = Some(program);
        self.compiled_on = true;
    }

    /// The currently loaded pre-decoded program (shareable with other
    /// processors via [`Processor::load_decoded`]).
    pub fn decoded_program(&self) -> Arc<DecodedProgram> {
        Arc::clone(&self.program)
    }

    /// Decodes and loads raw machine words (e.g. from a hex file).
    ///
    /// # Errors
    ///
    /// Returns the word index and [`krv_isa::DecodeError`] of the first
    /// undecodable word; the program memory is left unchanged.
    pub fn load_program_words(
        &mut self,
        words: &[u32],
    ) -> Result<(), (usize, krv_isa::DecodeError)> {
        let decoded = krv_isa::decode::decode_all(words)?;
        self.load_program(&decoded);
        Ok(())
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter (e.g. to re-enter a kernel).
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
        self.halted = None;
    }

    /// Cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Vector instructions retired so far (configuration, memory,
    /// arithmetic and custom ops — paper Figure 3's vector unit).
    pub fn retired_vector(&self) -> u64 {
        self.retired_vector
    }

    /// Scalar instructions retired so far.
    pub fn retired_scalar(&self) -> u64 {
        self.retired - self.retired_vector
    }

    /// Resets the cycle and retired-instruction counters (the program,
    /// registers and memories are untouched).
    pub fn reset_counters(&mut self) {
        self.cycles = 0;
        self.retired = 0;
        self.retired_vector = 0;
    }

    /// Reads a scalar register (`x0` reads as zero).
    pub fn xreg(&self, reg: XReg) -> u32 {
        if reg == XReg::X0 {
            0
        } else {
            self.xregs[reg.index()]
        }
    }

    /// Writes a scalar register (writes to `x0` are ignored).
    pub fn set_xreg(&mut self, reg: XReg, value: u32) {
        if reg != XReg::X0 {
            self.xregs[reg.index()] = value;
        }
    }

    /// Shared access to the vector unit.
    pub fn vector_unit(&self) -> &VectorUnit {
        &self.vu
    }

    /// Mutable access to the vector unit (state setup in tests/drivers).
    pub fn vector_unit_mut(&mut self) -> &mut VectorUnit {
        &mut self.vu
    }

    /// Shared access to the data memory.
    pub fn dmem(&self) -> &DataMemory {
        &self.dmem
    }

    /// Mutable access to the data memory.
    pub fn dmem_mut(&mut self) -> &mut DataMemory {
        &mut self.dmem
    }

    /// The execution trace (empty unless tracing was enabled).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Whether the processor has halted.
    pub fn halted(&self) -> Option<HaltCause> {
        self.halted
    }

    /// Whether the compiled execution tier is enabled (see
    /// [`Processor::set_compiled`]).
    pub fn compiled(&self) -> bool {
        self.compiled_on
    }

    /// Enables or disables the compiled execution tier in
    /// [`Processor::run`] and [`Processor::run_until_pc`] — the
    /// processor's one execution switch.
    ///
    /// On by default. The tier is an execution fast path only: regions
    /// are lowered to native word ops per vector configuration, an
    /// instruction that cannot be proven bit-identical ends its region
    /// (or refuses a region that would start with it) and runs on
    /// [`Processor::step`], and the per-region cycle ledger keeps all
    /// counter, trap and budget behaviour exact (see [`crate::compiled`]).
    /// Switching it off pins every instruction to the stepper, the
    /// reference the differential tests compare against. Loading a
    /// program leaves the switch as it is, except
    /// [`Processor::load_compiled`], which turns it on.
    pub fn set_compiled(&mut self, compiled: bool) {
        self.compiled_on = compiled;
    }

    /// How many compiled-region calls have retired instructions so far:
    /// one per region run, whole, up to a stop or up to a guard exit,
    /// and one per resident round loop whatever its trip count
    /// (diagnostic; not reset by [`Processor::reset_counters`]).
    pub fn compiled_dispatches(&self) -> u64 {
        self.compiled_dispatches
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on fetch/memory/configuration faults. A halted
    /// processor returns `Ok(None)` without advancing.
    pub fn step(&mut self) -> Result<Option<HaltCause>, Trap> {
        if let Some(cause) = self.halted {
            return Ok(Some(cause));
        }
        let index = (self.pc / 4) as usize;
        if !self.pc.is_multiple_of(4) {
            return Err(Trap::InstructionFetch { pc: self.pc });
        }
        let slot = match self.program.get(index) {
            Some(slot) => *slot,
            None => return Err(Trap::InstructionFetch { pc: self.pc }),
        };
        let pc = self.pc;
        let groups = self.active_groups();
        let (next_pc, cost) = self.execute_slot(&slot, pc, groups)?;
        self.cycles += cost;
        self.retired += 1;
        if slot.is_vector {
            self.retired_vector += 1;
        }
        self.tracer.record(pc, slot.instr, cost, self.cycles);
        self.pc = next_pc;
        Ok(self.halted)
    }

    /// Executes `slot` (fetched from `pc`) against the architectural
    /// state, returning the next PC and the instruction's cycle cost.
    ///
    /// This is the single execution path shared by [`Processor::step`]
    /// and the compiled tier's scalar `Interp` ops; neither the PC nor
    /// any counter is updated here, so a trap leaves them exactly as
    /// they were before the instruction.
    ///
    /// `groups` is the active register-group count at entry; it can only
    /// change across `vsetvli`, whose cost is flat, so hoisting it is
    /// exact.
    fn execute_slot(
        &mut self,
        slot: &DecodedInstr,
        pc: u32,
        groups: u32,
    ) -> Result<(u32, u64), Trap> {
        let instr = slot.instr;
        let mut next_pc = pc.wrapping_add(4);
        let mut ctx = TimingContext {
            branch_taken: false,
            active_groups: groups,
            vl: self.vu.vl(),
        };

        match instr {
            Instruction::Lui { rd, imm } => self.set_xreg(rd, imm as u32),
            Instruction::Auipc { rd, imm } => self.set_xreg(rd, pc.wrapping_add(imm as u32)),
            Instruction::Jal { rd, .. } => {
                self.set_xreg(rd, pc.wrapping_add(4));
                next_pc = slot.target;
            }
            Instruction::Jalr { rd, rs1, offset } => {
                let target = self.xreg(rs1).wrapping_add(offset as u32) & !1;
                self.set_xreg(rd, pc.wrapping_add(4));
                next_pc = target;
            }
            Instruction::Branch { kind, rs1, rs2, .. } => {
                let taken = compiled::branch_taken(kind, self.xreg(rs1), self.xreg(rs2));
                if taken {
                    next_pc = slot.target;
                }
                ctx.branch_taken = taken;
            }
            Instruction::Load {
                kind,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.xreg(rs1).wrapping_add(offset as u32);
                let size = match kind {
                    LoadKind::Lb | LoadKind::Lbu => 1,
                    LoadKind::Lh | LoadKind::Lhu => 2,
                    LoadKind::Lw => 4,
                };
                let raw = self.dmem.read(addr, size)?;
                let value = match kind {
                    LoadKind::Lb => raw as i8 as i32 as u32,
                    LoadKind::Lh => raw as i16 as i32 as u32,
                    LoadKind::Lbu | LoadKind::Lhu | LoadKind::Lw => raw as u32,
                };
                self.set_xreg(rd, value);
            }
            Instruction::Store {
                kind,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.xreg(rs1).wrapping_add(offset as u32);
                let value = self.xreg(rs2) as u64;
                let size = match kind {
                    StoreKind::Sb => 1,
                    StoreKind::Sh => 2,
                    StoreKind::Sw => 4,
                };
                self.dmem.write(addr, size, value)?;
            }
            Instruction::OpImm { kind, rd, rs1, imm } => {
                let a = self.xreg(rs1);
                let b = imm as u32;
                let value = match kind {
                    OpImmKind::Addi => a.wrapping_add(b),
                    OpImmKind::Slti => ((a as i32) < (b as i32)) as u32,
                    OpImmKind::Sltiu => (a < b) as u32,
                    OpImmKind::Xori => a ^ b,
                    OpImmKind::Ori => a | b,
                    OpImmKind::Andi => a & b,
                    OpImmKind::Slli => a.wrapping_shl(b & 31),
                    OpImmKind::Srli => a.wrapping_shr(b & 31),
                    OpImmKind::Srai => ((a as i32) >> (b & 31)) as u32,
                };
                self.set_xreg(rd, value);
            }
            Instruction::Op { kind, rd, rs1, rs2 } => {
                let a = self.xreg(rs1);
                let b = self.xreg(rs2);
                let value = match kind {
                    OpKind::Add => a.wrapping_add(b),
                    OpKind::Sub => a.wrapping_sub(b),
                    OpKind::Sll => a.wrapping_shl(b & 31),
                    OpKind::Slt => ((a as i32) < (b as i32)) as u32,
                    OpKind::Sltu => (a < b) as u32,
                    OpKind::Xor => a ^ b,
                    OpKind::Srl => a.wrapping_shr(b & 31),
                    OpKind::Sra => ((a as i32) >> (b & 31)) as u32,
                    OpKind::Or => a | b,
                    OpKind::And => a & b,
                    OpKind::Mul => a.wrapping_mul(b),
                    OpKind::Mulh => ((a as i32 as i64).wrapping_mul(b as i32 as i64) >> 32) as u32,
                    OpKind::Mulhsu => ((a as i32 as i64).wrapping_mul(b as i64) >> 32) as u32,
                    OpKind::Mulhu => ((a as u64).wrapping_mul(b as u64) >> 32) as u32,
                    OpKind::Div => {
                        if b == 0 {
                            u32::MAX
                        } else if a == 0x8000_0000 && b == u32::MAX {
                            a
                        } else {
                            ((a as i32) / (b as i32)) as u32
                        }
                    }
                    OpKind::Divu => a.checked_div(b).unwrap_or(u32::MAX),
                    OpKind::Rem => {
                        if b == 0 {
                            a
                        } else if a == 0x8000_0000 && b == u32::MAX {
                            0
                        } else {
                            ((a as i32) % (b as i32)) as u32
                        }
                    }
                    OpKind::Remu => {
                        if b == 0 {
                            a
                        } else {
                            a % b
                        }
                    }
                };
                self.set_xreg(rd, value);
            }
            Instruction::Csrr { rd, csr } => {
                let value = match csr {
                    krv_isa::Csr::Vl => self.vu.vl(),
                    krv_isa::Csr::Vtype => self.vu.vtype().zimm(),
                    krv_isa::Csr::Vlenb => self.vu.reg_bytes() as u32,
                    krv_isa::Csr::Cycle => self.cycles as u32,
                    krv_isa::Csr::Instret => self.retired as u32,
                };
                self.set_xreg(rd, value);
            }
            Instruction::Ecall => self.halted = Some(HaltCause::Ecall),
            Instruction::Ebreak => self.halted = Some(HaltCause::Ebreak),
            Instruction::Vsetvli { rd, rs1, vtype } => {
                // AVL selection per RVV 1.0: rs1 != x0 → x[rs1]; rs1 == x0
                // and rd != x0 → VLMAX; both x0 → keep current VL.
                let avl = if rs1 != XReg::X0 {
                    self.xreg(rs1)
                } else if rd != XReg::X0 {
                    u32::MAX
                } else {
                    self.vu.vl()
                };
                let granted = self.vu.set_config(avl, vtype)?;
                self.set_xreg(rd, granted);
                // The new configuration determines this instruction's own
                // group occupancy downstream; vsetvli itself is flat-cost.
            }
            Instruction::VLoad {
                eew,
                vd,
                rs1,
                mode,
                vm,
            } => {
                standard::vload(
                    &mut self.vu,
                    &self.dmem,
                    eew,
                    vd,
                    rs1,
                    mode,
                    vm,
                    &self.xregs,
                )?;
            }
            Instruction::VStore {
                eew,
                vs3,
                rs1,
                mode,
                vm,
            } => {
                standard::vstore(
                    &self.vu,
                    &mut self.dmem,
                    eew,
                    vs3,
                    rs1,
                    mode,
                    vm,
                    &self.xregs,
                )?;
            }
            Instruction::VArith {
                op,
                vd,
                vs2,
                src,
                vm,
            } => {
                standard::varith(&mut self.vu, op, vd, vs2, src, vm, &self.xregs)?;
            }
            Instruction::VmvXs { rd, vs2 } => {
                let value = standard::vmv_xs(&self.vu, vs2);
                self.set_xreg(rd, value);
            }
            Instruction::VmvSx { vd, rs1 } => {
                let value = self.xreg(rs1);
                standard::vmv_sx(&mut self.vu, vd, value);
            }
            Instruction::Vid { vd, vm } => standard::vid(&mut self.vu, vd, vm)?,
            Instruction::Custom(op) => custom::execute(&mut self.vu, &op, &self.xregs)?,
        }

        Ok((next_pc, slot.timing.cost(ctx)))
    }

    /// The machine geometry compiled blocks must be proven against.
    fn geometry(&self) -> Geometry {
        Geometry {
            elenum: self.vu.elenum(),
            words_len: self.vu.words_len(),
            elen64: self.vu.elen().bits() == 64,
        }
    }

    /// Attempts to execute the compiled region anchored at the current
    /// PC.
    ///
    /// Returns `Ok(true)` when it retired (fully, up to an interior
    /// `stop_pc`, or up to a `vsetvli` guard exit), `Ok(false)` to fall
    /// back to [`Processor::step`]. The guards keep the fast path
    /// observationally identical to stepping:
    /// tracing forces the per-instruction path; a `stop_pc` at an
    /// interior instruction boundary runs the exact ledger prefix and
    /// parks the PC there; and the region only runs when its worst-case
    /// cost (or the prefix cost up to `stop_pc`) fits the cycle budget —
    /// since every instruction costs ≥ 1 cycle, all interior prefixes
    /// then stay strictly below the budget, exactly the condition under
    /// which the stepping loop would have retired the same instructions.
    fn try_compiled(&mut self, max_cycles: u64, stop_pc: Option<u32>) -> Result<bool, Trap> {
        if !self.compiled_on || self.tracer.is_enabled() || !self.pc.is_multiple_of(4) {
            return Ok(false);
        }
        let start = (self.pc / 4) as usize;
        if start >= self.program.len() {
            return Ok(false);
        }
        if self.compiled_cache.len() != self.program.len() {
            self.compiled_cache = vec![CompiledSlot::Empty; self.program.len()];
        }
        let ctx = BlockCtx::of(&self.vu);
        let block = match &self.compiled_cache[start] {
            CompiledSlot::Ready(block) if block.ctx == ctx => Arc::clone(block),
            CompiledSlot::Refused(refused) if *refused == ctx => return Ok(false),
            _ => {
                let geometry = self.geometry();
                let block = match &self.shared_compiled {
                    Some(shared) => shared.block_for(start, ctx, geometry, &self.xregs),
                    None => {
                        compiled::compile_region(&self.program, start, ctx, geometry, &self.xregs)
                            .map(Arc::new)
                    }
                };
                match block {
                    Some(block) => {
                        self.compiled_cache[start] = CompiledSlot::Ready(Arc::clone(&block));
                        block
                    }
                    None => {
                        self.compiled_cache[start] = CompiledSlot::Refused(ctx);
                        return Ok(false);
                    }
                }
            }
        };
        let mut stop_at = None;
        if let Some(stop) = stop_pc {
            if stop > self.pc && stop < ((start + block.len) as u32) * 4 {
                if !stop.is_multiple_of(4) {
                    return Ok(false);
                }
                stop_at = Some((stop / 4) as usize - start);
            }
        }
        let cost = match stop_at {
            Some(t) => block.ledger[t].prefix_cycles,
            None => block.worst_cost(),
        };
        if self.cycles + cost > max_cycles {
            return Ok(false);
        }
        if stop_at.is_none() && self.run_resident(start, &block, max_cycles, stop_pc) {
            return Ok(true);
        }
        self.run_compiled(start, &block, stop_at)?;
        Ok(true)
    }

    /// Runs a resident round loop (see [`compiled::ResidentLoop`]) for
    /// every trip the stepping loop would retire, in one call. The
    /// caller admitted the first trip; before each further one this
    /// replays what `run`/`run_until_pc` and `try_compiled` check before
    /// re-entering the region: the cycle budget (`cycles < max` and
    /// `cycles + worst_cost <= max`) and a `run_until_pc` target at the
    /// loop head or inside the region. A trip whose ι index is outside
    /// `RC` is left to the member ops, which raise the trap.
    ///
    /// Returns `false`, with nothing changed, when not even the first
    /// trip can take this path; the region then runs as usual.
    fn run_resident(
        &mut self,
        start: usize,
        block: &CompiledBlock,
        max_cycles: u64,
        stop_pc: Option<u32>,
    ) -> bool {
        let Some(lp) = block.resident else {
            return false;
        };
        let round = &lp.round;
        if !self.round_guards_hold(round) {
            return false;
        }
        let (taken_cost, not_cost) = block
            .branch_costs
            .expect("a resident loop ends in its back-edge");
        let head = (start as u32) * 4;
        let end = head + 4 * block.len as u32;
        let stops = stop_pc.is_some_and(|t| (head..end).contains(&t));
        let first = self.xregs[round.iota_rs1];
        let (mut cycles, mut index, mut trips, mut taken) = (self.cycles, first, 0usize, false);
        while RC.get(index as usize).is_some() {
            index = index.wrapping_add(lp.step);
            let operand = |r: usize| {
                if r == round.iota_rs1 {
                    index
                } else {
                    self.xregs[r]
                }
            };
            taken = compiled::branch_taken(lp.kind, operand(lp.rs1), operand(lp.rs2));
            cycles += block.total_cycles + if taken { taken_cost } else { not_cost };
            trips += 1;
            if !taken || stops || cycles >= max_cycles || cycles + block.worst_cost() > max_cycles {
                break;
            }
        }
        if trips == 0 {
            return false;
        }
        self.run_rounds(round, first, lp.step, trips);
        self.xregs[round.iota_rs1] = index;
        self.cycles = cycles;
        self.retired += (trips * block.len) as u64;
        self.retired_vector += trips as u64 * block.total_vector;
        self.pc = if taken { head } else { end };
        self.compiled_dispatches += 1;
        true
    }

    /// Whether both `vsetvli`s of a round span would grant the
    /// configuration its ops were lowered for.
    fn round_guards_hold(&self, round: &RoundSpan) -> bool {
        [round.wide, round.narrow]
            .iter()
            .all(|g| self.vu.grant(self.xreg(g.avl), g.vtype) == Ok(g.vl))
    }

    /// Runs `trips` rounds of a round span whose guards hold, from ι
    /// index `first` stepping by `step`, and leaves the vector unit as
    /// the member ops do: configured by the last `vsetvli`.
    fn run_rounds(&mut self, round: &RoundSpan, first: u32, step: u32, trips: usize) {
        let y = self.xregs[round.chi_rs1] as i32 as i64 as u64;
        compiled::exec_rounds(self.vu.words64_mut(), round, y, first, step, trips);
        let avl = self.xreg(round.narrow.avl);
        self.vu
            .set_config(avl, round.narrow.vtype)
            .expect("the round's guards proved the grant");
    }

    /// Executes a compiled region's micro-ops back to back, stopping
    /// after `stop_at` ops if given (an interior `run_until_pc` target).
    ///
    /// Counters are committed from the precomputed ledger: the full
    /// totals on success, the exact prefix at an interior stop or
    /// `vsetvli` guard exit, or the prefix up to a trapping op with the
    /// PC parked on the faulting instruction — bit-identical to what
    /// repeated stepping would leave. A terminal branch commits its
    /// direction-dependent cost and target itself.
    fn run_compiled(
        &mut self,
        start: usize,
        block: &CompiledBlock,
        stop_at: Option<usize>,
    ) -> Result<(), Trap> {
        let limit = stop_at.unwrap_or(block.len);
        // A branch is always the region's LAST op, so the body loop
        // below never sees one — it runs branch-free and the terminal
        // direction is resolved once afterwards.
        let body = if block.branch_costs.is_some() && limit == block.len {
            limit - 1
        } else {
            limit
        };
        let mut k = 0;
        let mut rounds = block.rounds.iter().peekable();
        while k < body {
            // A round span that lies fully inside the body and admits its
            // run-time checks runs as one pass; a stop inside it, or a
            // failed check, falls through to its member ops, which are
            // still in place. Spans never overlap, so `k` meets each
            // span's start.
            if let Some((_, round)) = rounds.next_if(|&&(at, _)| at == k) {
                if k + ROUND_LEN <= body && self.exec_round(round) {
                    k += ROUND_LEN;
                    continue;
                }
            }
            let op = &block.ops[k];
            match self.exec_compiled_op(op) {
                Ok(OpExit::Next) => {}
                Ok(OpExit::ExitAfter) => {
                    let (cycles, vector) = block.prefix_after(k);
                    self.cycles += cycles;
                    self.retired += (k + 1) as u64;
                    self.retired_vector += vector;
                    self.pc = ((start + k + 1) as u32) * 4;
                    self.compiled_dispatches += 1;
                    return Ok(());
                }
                Err(trap) => {
                    let ledger = block.ledger[k];
                    self.cycles += ledger.prefix_cycles;
                    self.retired += k as u64;
                    self.retired_vector += ledger.prefix_vector;
                    self.pc = ((start + k) as u32) * 4;
                    return Err(trap);
                }
            }
            k += 1;
        }
        if body < limit {
            let k = limit - 1;
            let &Op::Branch {
                kind,
                rs1,
                rs2,
                target,
                taken_cost,
                not_cost,
            } = &block.ops[k]
            else {
                unreachable!("branch_costs is only set for a terminal branch")
            };
            let taken = compiled::branch_taken(kind, self.xregs[rs1], self.xregs[rs2]);
            self.cycles +=
                block.ledger[k].prefix_cycles + if taken { taken_cost } else { not_cost };
            self.retired += (k + 1) as u64;
            self.retired_vector += block.ledger[k].prefix_vector;
            self.pc = if taken {
                target
            } else {
                ((start + k + 1) as u32) * 4
            };
            self.compiled_dispatches += 1;
            return Ok(());
        }
        match stop_at {
            Some(t) => {
                let ledger = block.ledger[t];
                self.cycles += ledger.prefix_cycles;
                self.retired += t as u64;
                self.retired_vector += ledger.prefix_vector;
                self.pc = ((start + t) as u32) * 4;
            }
            None => {
                self.cycles += block.total_cycles;
                self.retired += block.len as u64;
                self.retired_vector += block.total_vector;
                self.pc = ((start + block.len) as u32) * 4;
            }
        }
        self.compiled_dispatches += 1;
        Ok(())
    }

    /// Executes one round span — architecturally identical to running
    /// its member ops back to back (see [`RoundSpan`]) — and returns
    /// `true`. Operand windows and disjointness were proven when the
    /// span was built. Returns `false` without any write when a
    /// `vsetvli` guard would exit or ι would trap; the member ops then
    /// run.
    fn exec_round(&mut self, round: &RoundSpan) -> bool {
        let index = self.xregs[round.iota_rs1];
        if !self.round_guards_hold(round) || RC.get(index as usize).is_none() {
            return false;
        }
        self.run_rounds(round, index, 0, 1);
        true
    }

    /// Executes one compiled micro-op. Counters are untouched here (the
    /// caller commits them from the ledger), which is exactly why the
    /// `CsrCycle`/`CsrInstret` ops add their prefixes to the block-entry
    /// counter values.
    fn exec_compiled_op(&mut self, op: &Op) -> Result<OpExit, Trap> {
        match op {
            &Op::Interp { index } => {
                let slot = *self
                    .program
                    .get(index)
                    .expect("compiled ops lie inside the program");
                // Scalar instructions only: `groups` is irrelevant to
                // their semantics and the returned cost is discarded (the
                // ledger already accounts it).
                self.execute_slot(&slot, (index as u32) * 4, 1)?;
                Ok(OpExit::Next)
            }
            &Op::XConst { rd, value } => {
                self.set_xreg(rd, value);
                Ok(OpExit::Next)
            }
            &Op::CsrCycle { rd, prefix } => {
                self.set_xreg(rd, (self.cycles + prefix) as u32);
                Ok(OpExit::Next)
            }
            &Op::CsrInstret { rd, offset } => {
                self.set_xreg(rd, (self.retired + offset) as u32);
                Ok(OpExit::Next)
            }
            &Op::Vsetvli {
                rd,
                rs1,
                vtype,
                expected_vl,
                expected_vtype,
            } => {
                // Same AVL selection as the interpreter's `Vsetvli` arm;
                // the trap condition depends only on `vtype`, which the
                // lowering already proved non-trapping, so the `?` is
                // defensive.
                let avl = if rs1 != XReg::X0 {
                    self.xreg(rs1)
                } else if rd != XReg::X0 {
                    u32::MAX
                } else {
                    self.vu.vl()
                };
                let granted = self.vu.set_config(avl, vtype)?;
                self.set_xreg(rd, granted);
                // Downstream ops were lowered for the predicted
                // configuration; a different grant exits the region with
                // this op retired and the interpreter takes over.
                if granted == expected_vl && self.vu.vtype().zimm() == expected_vtype {
                    Ok(OpExit::Next)
                } else {
                    Ok(OpExit::ExitAfter)
                }
            }
            &Op::ScalarImm { kind, rd, rs1, imm } => {
                let a = self.xreg(rs1);
                let b = imm as u32;
                let value = match kind {
                    OpImmKind::Addi => a.wrapping_add(b),
                    OpImmKind::Slti => ((a as i32) < (b as i32)) as u32,
                    OpImmKind::Sltiu => (a < b) as u32,
                    OpImmKind::Xori => a ^ b,
                    OpImmKind::Ori => a | b,
                    OpImmKind::Andi => a & b,
                    OpImmKind::Slli => a.wrapping_shl(b & 31),
                    OpImmKind::Srli => a.wrapping_shr(b & 31),
                    OpImmKind::Srai => ((a as i32) >> (b & 31)) as u32,
                };
                self.set_xreg(rd, value);
                Ok(OpExit::Next)
            }
            Op::Branch { .. } => unreachable!("terminal branches are handled by run_compiled"),
            &Op::BinVV { kind, d, a, b, len } => {
                compiled::exec_bin_vv(self.vu.words64_mut(), kind, d, a, b, len);
                Ok(OpExit::Next)
            }
            &Op::BinVX {
                kind,
                d,
                a,
                rs1,
                len,
            } => {
                let y = self.xregs[rs1] as i32 as i64 as u64;
                compiled::exec_bin_vs(self.vu.words64_mut(), kind, d, a, y, len);
                Ok(OpExit::Next)
            }
            &Op::BinVI {
                kind,
                d,
                a,
                imm,
                len,
            } => {
                compiled::exec_bin_vs(self.vu.words64_mut(), kind, d, a, imm, len);
                Ok(OpExit::Next)
            }
            &Op::SlideMod5 {
                d,
                s,
                blocks,
                ref src_j,
            } => {
                compiled::exec_slide(self.vu.words64_mut(), d, s, blocks, src_j);
                Ok(OpExit::Next)
            }
            &Op::RotConst { d, s, len, amount } => {
                compiled::exec_rot(self.vu.words64_mut(), d, s, len, amount);
                Ok(OpExit::Next)
            }
            Op::RhoTable { d, s, rots } => {
                compiled::exec_rho(self.vu.words64_mut(), *d, *s, rots);
                Ok(OpExit::Next)
            }
            Op::Pi {
                d,
                d_len,
                s,
                s_len,
                segs,
                states,
            } => {
                compiled::exec_pi(self.vu.words64_mut(), *d, *d_len, *s, *s_len, segs, *states);
                Ok(OpExit::Next)
            }
            &Op::Iota { d, s, len, rs1 } => {
                let index = self.xregs[rs1];
                let rc = *RC
                    .get(index as usize)
                    .ok_or(Trap::RoundConstantIndex { index })?;
                compiled::exec_iota(self.vu.words64_mut(), d, s, len, rc);
                Ok(OpExit::Next)
            }
            &Op::VLoad64 { d, len, vd, rs1 } => {
                let base = self.xregs[rs1.index()];
                if self
                    .dmem
                    .read_words64(base, &mut self.vu.words64_mut()[d..d + len])
                {
                    Ok(OpExit::Next)
                } else {
                    // Misaligned or out of bounds: the element-serial
                    // interpreter reproduces the exact partial writes and
                    // trap of the uncompiled instruction.
                    standard::vload(
                        &mut self.vu,
                        &self.dmem,
                        Sew::E64,
                        vd,
                        rs1,
                        MemMode::UnitStride,
                        true,
                        &self.xregs,
                    )
                    .map(|()| OpExit::Next)
                }
            }
            &Op::VStore64 { s, len, vs3, rs1 } => {
                let base = self.xregs[rs1.index()];
                if self
                    .dmem
                    .write_words64(base, &self.vu.words64()[s..s + len])
                {
                    Ok(OpExit::Next)
                } else {
                    standard::vstore(
                        &self.vu,
                        &mut self.dmem,
                        Sew::E64,
                        vs3,
                        rs1,
                        MemMode::UnitStride,
                        true,
                        &self.xregs,
                    )
                    .map(|()| OpExit::Next)
                }
            }
        }
    }

    /// Runs until the program halts via `ecall`/`ebreak`.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on execution faults, or [`Trap::CycleLimit`] if
    /// `max_cycles` elapse first.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunSummary, Trap> {
        while self.halted.is_none() {
            if self.cycles >= max_cycles {
                return Err(Trap::CycleLimit { limit: max_cycles });
            }
            if !self.try_compiled(max_cycles, None)? {
                self.step()?;
            }
        }
        Ok(RunSummary {
            cycles: self.cycles,
            retired: self.retired,
            halt: self.halted.expect("loop exits only when halted"),
        })
    }

    /// Runs until the PC reaches `target` (checked before each fetch).
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on execution faults, [`Trap::CycleLimit`] if the
    /// budget elapses, or [`Trap::InstructionFetch`] if the program halts
    /// before reaching `target`.
    pub fn run_until_pc(&mut self, target: u32, max_cycles: u64) -> Result<(), Trap> {
        while self.pc != target {
            if self.cycles >= max_cycles {
                return Err(Trap::CycleLimit { limit: max_cycles });
            }
            if self.halted.is_some() {
                return Err(Trap::InstructionFetch { pc: self.pc });
            }
            if !self.try_compiled(max_cycles, Some(target))? {
                self.step()?;
            }
        }
        Ok(())
    }

    /// `ceil(VL / elements_per_register)`, at least 1 — the number of
    /// register groups a vector instruction occupies (the paper's
    /// `lmul_cnt` iteration count).
    fn active_groups(&self) -> u32 {
        let epr = self.vu.elements_per_register().max(1);
        self.vu.vl().div_ceil(epr).max(1)
    }

    /// Convenience: reads `count` vector elements of the group at `base`.
    pub fn read_vector(&self, base: VReg, count: usize) -> Vec<u64> {
        (0..count).map(|i| self.vu.read_elem(base, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProcessorConfig;
    use krv_asm::assemble;

    fn run_asm(source: &str) -> Processor {
        let program = assemble(source).expect("assembles");
        let mut cpu = Processor::new(ProcessorConfig::elen64(10));
        cpu.load_program(program.instructions());
        cpu.run(1_000_000).expect("runs");
        cpu
    }

    #[test]
    fn arithmetic_program() {
        let cpu = run_asm("li a0, 6\nli a1, 7\nmul a2, a0, a1\necall");
        assert_eq!(cpu.xreg(XReg::X12), 42);
    }

    #[test]
    fn loop_with_counter() {
        let cpu = run_asm(
            "li t0, 0\nli t1, 10\nli a0, 0\nloop:\naddi a0, a0, 3\naddi t0, t0, 1\nblt t0, t1, loop\necall",
        );
        assert_eq!(cpu.xreg(XReg::X10), 30);
    }

    #[test]
    fn memory_round_trip() {
        let cpu = run_asm("li t0, 0x1234\nli t1, 64\nsw t0, 8(t1)\nlw a0, 8(t1)\necall");
        assert_eq!(cpu.xreg(XReg::X10), 0x1234);
    }

    #[test]
    fn signed_byte_load_sign_extends() {
        let cpu = run_asm("li t0, -1\nsb t0, 0(zero)\nlb a0, 0(zero)\nlbu a1, 0(zero)\necall");
        assert_eq!(cpu.xreg(XReg::X10), u32::MAX);
        assert_eq!(cpu.xreg(XReg::X11), 0xFF);
    }

    #[test]
    fn division_edge_cases_match_rv32m() {
        let cpu = run_asm(
            "li a0, 7\nli a1, 0\ndiv a2, a0, a1\nrem a3, a0, a1\nli a4, -2147483648\nli a5, -1\ndiv a6, a4, a5\necall",
        );
        assert_eq!(cpu.xreg(XReg::X12), u32::MAX, "div by zero is -1");
        assert_eq!(cpu.xreg(XReg::X13), 7, "rem by zero is dividend");
        assert_eq!(
            cpu.xreg(XReg::X16),
            0x8000_0000,
            "overflow returns dividend"
        );
    }

    #[test]
    fn jal_and_ret() {
        let cpu = run_asm("li a0, 1\njal ra, func\nli a1, 3\necall\nfunc:\nli a0, 2\nret");
        assert_eq!(cpu.xreg(XReg::X10), 2);
        assert_eq!(cpu.xreg(XReg::X11), 3);
    }

    #[test]
    fn vsetvli_grants_and_clamps() {
        let cpu = run_asm("li s1, 100\nvsetvli a0, s1, e64, m1, tu, mu\necall");
        assert_eq!(cpu.xreg(XReg::X10), 10, "clamped to EleNum");
        assert_eq!(cpu.vector_unit().vl(), 10);
    }

    #[test]
    fn vsetvli_x0_x0_keeps_vl() {
        let cpu = run_asm(
            "li s1, 7\nvsetvli x0, s1, e64, m1, tu, mu\nvsetvli x0, x0, e64, m8, tu, mu\necall",
        );
        assert_eq!(cpu.vector_unit().vl(), 7, "vl preserved across re-config");
    }

    #[test]
    fn vector_load_compute_store() {
        let source = r"
            li a0, 0          # input base
            li a1, 512        # output base
            li s1, 10
            vsetvli x0, s1, e64, m1, tu, mu
            vle64.v v1, (a0)
            vadd.vi v1, v1, 5
            vse64.v v1, (a1)
            ecall
        ";
        let program = assemble(source).unwrap();
        let mut cpu = Processor::new(ProcessorConfig::elen64(10));
        for i in 0..10u32 {
            cpu.dmem_mut().write(i * 8, 8, i as u64 * 100).unwrap();
        }
        cpu.load_program(program.instructions());
        cpu.run(10_000).unwrap();
        for i in 0..10u32 {
            assert_eq!(cpu.dmem().read(512 + i * 8, 8).unwrap(), i as u64 * 100 + 5);
        }
    }

    #[test]
    fn cycle_accounting_follows_model() {
        // addi (1) + addi (1) + vsetvli (2) + vxor LMUL1 (2) + ecall (1) = 7.
        let cpu = run_asm(
            "li s1, 10\nli s2, -1\nvsetvli x0, s1, e64, m1, tu, mu\nvxor.vv v1, v2, v3\necall",
        );
        assert_eq!(cpu.cycles(), 7);
    }

    #[test]
    fn lmul8_vector_op_costs_six_cycles() {
        // VL = 5 × EleNum = 50 → 5 groups → 1 + 5 = 6 cc for the vxor.
        let cpu = run_asm("li s5, 50\nvsetvli x0, s5, e64, m8, tu, mu\nvxor.vv v8, v8, v8\necall");
        // li (1) + vsetvli (2) + vxor (6) + ecall (1) = 10.
        assert_eq!(cpu.cycles(), 10);
    }

    #[test]
    fn cycle_limit_trap() {
        let program = assemble("loop:\nj loop").unwrap();
        let mut cpu = Processor::new(ProcessorConfig::elen64(5));
        cpu.load_program(program.instructions());
        assert!(matches!(cpu.run(100), Err(Trap::CycleLimit { .. })));
    }

    #[test]
    fn fetch_past_end_traps() {
        let program = assemble("nop").unwrap();
        let mut cpu = Processor::new(ProcessorConfig::elen64(5));
        cpu.load_program(program.instructions());
        cpu.step().unwrap();
        assert!(matches!(cpu.step(), Err(Trap::InstructionFetch { pc: 4 })));
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let cpu = run_asm("addi x0, x0, 5\nadd a0, x0, x0\necall");
        assert_eq!(cpu.xreg(XReg::X10), 0);
        assert_eq!(cpu.xreg(XReg::X0), 0);
    }

    #[test]
    fn run_until_pc_stops_before_target() {
        let program = assemble("li a0, 1\nli a0, 2\nli a0, 3\necall").unwrap();
        let mut cpu = Processor::new(ProcessorConfig::elen64(5));
        cpu.load_program(program.instructions());
        cpu.run_until_pc(8, 100).unwrap();
        assert_eq!(cpu.xreg(XReg::X10), 2);
    }

    #[test]
    fn machine_words_load_and_run() {
        let program = assemble("li a0, 3\nslli a0, a0, 4\necall").unwrap();
        let words = program.machine_code();
        let mut cpu = Processor::new(ProcessorConfig::elen64(5));
        cpu.load_program_words(&words).expect("decodes");
        cpu.run(100).unwrap();
        assert_eq!(cpu.xreg(XReg::X10), 48);
        // A bad word is rejected with its index, program untouched.
        assert!(cpu.load_program_words(&[0x0000_0013, 0xFFFF_FFFF]).is_err());
        assert_eq!(cpu.xreg(XReg::X10), 48);
    }

    #[test]
    fn csr_reads() {
        let cpu = run_asm(
            "li s1, 7\nvsetvli x0, s1, e64, m1, tu, mu\ncsrr a0, vl\ncsrr a1, vlenb\ncsrr a2, cycle\ncsrr a3, instret\necall",
        );
        assert_eq!(cpu.xreg(XReg::X10), 7, "vl");
        assert_eq!(cpu.xreg(XReg::X11), 80, "vlenb = 10 × 8 bytes");
        assert!(cpu.xreg(XReg::X12) >= 3, "cycle counter advanced");
        assert_eq!(
            cpu.xreg(XReg::X13),
            5,
            "instret counts previously retired instructions"
        );
    }

    #[test]
    fn instruction_mix_counters() {
        let cpu = run_asm(
            "li s1, 10\nvsetvli x0, s1, e64, m1, tu, mu\nvxor.vv v1, v2, v3\nvxor.vv v1, v1, v3\necall",
        );
        assert_eq!(cpu.retired(), 5);
        assert_eq!(cpu.retired_vector(), 3, "vsetvli + two vxor");
        assert_eq!(cpu.retired_scalar(), 2, "li + ecall");
    }

    /// Runs `source` on the compiled tier and on the stepper under the
    /// same cycle budget and asserts the observable outcomes are
    /// identical. Returns the compiled processor for extra per-test
    /// assertions.
    fn assert_compiled_transparent(source: &str, max_cycles: u64) -> Processor {
        let program = assemble(source).expect("assembles");
        let mut compiled = Processor::new(ProcessorConfig::elen64(10));
        compiled.set_compiled(true);
        let mut stepped = Processor::new(ProcessorConfig::elen64(10));
        stepped.set_compiled(false);
        for cpu in [&mut compiled, &mut stepped] {
            cpu.load_program(program.instructions());
        }
        let budget = format!("budget {max_cycles}");
        assert_eq!(
            compiled.run(max_cycles),
            stepped.run(max_cycles),
            "halt/trap outcome, {budget}"
        );
        assert_eq!(compiled.cycles(), stepped.cycles(), "cycles, {budget}");
        assert_eq!(compiled.retired(), stepped.retired(), "retired, {budget}");
        assert_eq!(
            compiled.retired_vector(),
            stepped.retired_vector(),
            "vector retired, {budget}"
        );
        assert_eq!(compiled.pc(), stepped.pc(), "final PC, {budget}");
        for index in 0..32 {
            let reg = XReg::from_index(index);
            assert_eq!(compiled.xreg(reg), stepped.xreg(reg), "x{index}, {budget}");
        }
        for index in 0..32 {
            let reg = VReg::from_index(index);
            assert_eq!(
                compiled.vector_unit().register_bytes(reg),
                stepped.vector_unit().register_bytes(reg),
                "v{index}, {budget}"
            );
        }
        for addr in (0..compiled.dmem().len() as u32).step_by(8) {
            assert_eq!(
                compiled.dmem().read(addr, 8),
                stepped.dmem().read(addr, 8),
                "dmem at {addr}, {budget}"
            );
        }
        compiled
    }

    #[test]
    fn compiled_is_transparent_for_scalar_loops() {
        let cpu = assert_compiled_transparent(
            "li t0, 0\nli t1, 25\nli a0, 7\nloop:\naddi a0, a0, 3\nslli a1, a0, 1\nxor a2, a1, a0\nsw a2, 128(t0)\nlw a3, 128(t0)\naddi t0, t0, 4\nblt t0, t1, loop\necall",
            100_000,
        );
        assert!(cpu.compiled_dispatches() > 0, "blocks actually compiled");
    }

    #[test]
    fn compiled_is_transparent_for_vector_kernels() {
        let cpu = assert_compiled_transparent(
            "li s1, 10\nvsetvli x0, s1, e64, m1, tu, mu\nli a0, 0\nli a1, 512\nvle64.v v1, (a0)\nvadd.vi v1, v1, 5\nvxor.vv v2, v1, v1\nvse64.v v1, (a1)\nvle64.v v3, (a1)\necall",
            100_000,
        );
        assert!(cpu.compiled_dispatches() > 0, "blocks actually compiled");
    }

    #[test]
    fn compiled_is_transparent_for_csr_reads_mid_block() {
        // csrr cycle/instret inside a compiled region must observe the
        // same partial sums the stepping path would.
        assert_compiled_transparent(
            "li a0, 1\nli a1, 2\ncsrr a2, cycle\ncsrr a3, instret\nadd a4, a2, a3\necall",
            100_000,
        );
    }

    #[test]
    fn compiled_is_transparent_for_custom_keccak_ops() {
        // A θ/ρπ-shaped sequence over one 5-lane state plus a two-round
        // ι loop: slides, rotates, ρ, π and `viota` all inside compiled
        // regions, with `csrr` sampling the counters mid-way.
        let cpu = assert_compiled_transparent(
            "li s1, 10\nvsetvli x0, s1, e64, m1, tu, mu\n\
             li a0, 0\nvle64.v v1, (a0)\n\
             vslidedownm.vi v6, v1, 1\nvslideupm.vi v7, v1, 1\n\
             vrotup.vi v7, v7, 1\nvxor.vv v6, v6, v7\n\
             v64rho.vi v2, v1, 0\nvpi.vi v10, v2, 0\nvrhopi.vi v10, v2, 1\n\
             li s3, 0\nli s4, 2\n\
             round:\nviota.vx v6, v6, s3\ncsrr a2, cycle\ncsrr a3, instret\n\
             addi s3, s3, 1\nblt s3, s4, round\n\
             li a1, 512\nvse64.v v6, (a1)\necall",
            100_000,
        );
        assert!(cpu.compiled_dispatches() > 0, "blocks actually compiled");
    }

    #[test]
    fn compiled_is_transparent_for_mid_block_traps() {
        // Scalar store fault inside a block: the prefix retires with its
        // cycles and the PC parks on the faulting store.
        assert_compiled_transparent(
            "li t0, 1\nli t1, 8\nsw t0, 0(t1)\nsw t0, 1(t1)\necall",
            100_000,
        );
        // Scalar load past the end of memory, address computed in-block.
        assert_compiled_transparent(
            "li t0, 3\nli t1, 100000\naddi t2, t1, 8\nlw a0, 0(t2)\necall",
            100_000,
        );
        // Vector load past the end of memory after compiled iterations:
        // the bulk path must defer to the element-serial trap.
        assert_compiled_transparent(
            "li s1, 10\nvsetvli x0, s1, e64, m1, tu, mu\nli a0, 100000\nli a1, 1\nvle64.v v1, (a0)\necall",
            100_000,
        );
        // Misaligned base: same story through the store side.
        assert_compiled_transparent(
            "li s1, 10\nvsetvli x0, s1, e64, m1, tu, mu\nli a0, 4\nli a1, 1\nvse64.v v1, (a0)\necall",
            100_000,
        );
        // `viota` round index outside the ROM traps identically.
        assert_compiled_transparent(
            "li s1, 10\nvsetvli x0, s1, e64, m1, tu, mu\nli a0, 3\nli s3, 99\nviota.vx v1, v1, s3\necall",
            100_000,
        );
    }

    #[test]
    fn stepper_run_until_pc_stops_mid_straight_line() {
        let program = assemble("li a0, 1\nli a0, 2\nli a0, 3\nli a0, 4\necall").unwrap();
        let mut cpu = Processor::new(ProcessorConfig::elen64(5));
        cpu.set_compiled(false);
        cpu.load_program(program.instructions());
        // PC 8 is strictly inside the straight-line run: stepping must
        // stop exactly there.
        cpu.run_until_pc(8, 100).unwrap();
        assert_eq!(cpu.pc(), 8);
        assert_eq!(cpu.xreg(XReg::X10), 2);
    }

    #[test]
    fn compiled_run_until_pc_stops_inside_a_block() {
        let program = assemble("li a0, 1\nli a0, 2\nli a0, 3\nli a0, 4\necall").unwrap();
        let mut cpu = Processor::new(ProcessorConfig::elen64(5));
        cpu.set_compiled(true);
        cpu.load_program(program.instructions());
        cpu.run_until_pc(8, 100).unwrap();
        assert_eq!(cpu.pc(), 8);
        assert_eq!(cpu.xreg(XReg::X10), 2);
    }

    #[test]
    fn compiled_run_respects_the_cycle_limit() {
        // Every budget from 0 up to each program's full cost (and past
        // it for the vector one), so runs stop before, inside and after
        // a compiled region.
        let scalar = "li a0, 1\nli a0, 2\nli a0, 3\nli a0, 4\necall";
        let vector = "li s1, 10\nvsetvli x0, s1, e64, m1, tu, mu\nvxor.vv v1, v2, v3\nvadd.vi v1, v1, 1\nli a0, 4\necall";
        for (source, limits) in [(scalar, 0..6), (vector, 0..12)] {
            for limit in limits {
                assert_compiled_transparent(source, limit);
            }
        }
    }

    #[test]
    fn compiled_blocks_recompile_per_configuration() {
        // The same block body runs under VL=10 and then VL=5: the cached
        // lowering must be rejected on configuration change and both
        // passes must match the stepped processor.
        assert_compiled_transparent(
            "li s1, 10\nli s2, 5\nli a0, 0\n\
             vsetvli x0, s1, e64, m1, tu, mu\nvle64.v v1, (a0)\nvadd.vi v1, v1, 1\nvxor.vv v2, v1, v1\n\
             vsetvli x0, s2, e64, m1, tu, mu\nvle64.v v1, (a0)\nvadd.vi v1, v1, 1\nvxor.vv v2, v1, v1\n\
             ecall",
            100_000,
        );
    }

    #[test]
    fn shared_compiled_program_is_reused_across_processors() {
        let program = assemble(
            "li s1, 10\nvsetvli x0, s1, e64, m1, tu, mu\nvadd.vi v1, v1, 3\nvxor.vv v2, v1, v1\necall",
        )
        .unwrap();
        let decoded = Arc::new(DecodedProgram::compile(
            program.instructions(),
            &ProcessorConfig::elen64(10).timing,
        ));
        let shared = Arc::new(CompiledProgram::new(decoded));
        let mut first = Processor::new(ProcessorConfig::elen64(10));
        first.load_compiled(Arc::clone(&shared));
        first.run(1_000).unwrap();
        let after_first = shared.compiled_blocks();
        assert!(after_first > 0, "first processor populated the pool");
        let mut second = Processor::new(ProcessorConfig::elen64(10));
        second.load_compiled(Arc::clone(&shared));
        second.run(1_000).unwrap();
        assert_eq!(
            shared.compiled_blocks(),
            after_first,
            "second processor reused the pool"
        );
        assert_eq!(first.cycles(), second.cycles());
        for index in 0..32 {
            let reg = VReg::from_index(index);
            assert_eq!(
                first.vector_unit().register_bytes(reg),
                second.vector_unit().register_bytes(reg),
            );
        }
    }

    #[test]
    fn lone_vector_instructions_dispatch_compiled() {
        // `vxor` alone between two branch targets: the compiled tier
        // must still pick it up as a one-instruction region.
        let program = assemble(
            "li s1, 10\nvsetvli x0, s1, e64, m1, tu, mu\nbeq x0, x0, skip\nnop\nskip:\nvxor.vv v1, v2, v3\nbeq x0, x0, done\nnop\ndone:\necall",
        )
        .unwrap();
        let mut cpu = Processor::new(ProcessorConfig::elen64(10));
        cpu.set_compiled(true);
        cpu.load_program(program.instructions());
        cpu.run(1_000).unwrap();
        assert!(
            cpu.compiled_dispatches() > 0,
            "singleton vector op went through the compiled tier"
        );
    }

    #[test]
    fn trace_records_when_enabled() {
        let program = assemble("nop\necall").unwrap();
        let mut cpu = Processor::new(ProcessorConfig::elen64(5).with_trace());
        cpu.load_program(program.instructions());
        cpu.run(100).unwrap();
        assert_eq!(cpu.tracer().entries().len(), 2);
    }
}
