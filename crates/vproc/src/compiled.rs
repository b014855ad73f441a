//! The compiled-kernel execution tier: straight-line regions lowered to
//! specialized native micro-ops over the flat register file.
//!
//! The stepper ([`Processor::step`](crate::Processor::step)) is the
//! reference semantics: it fetches one instruction, checks the halt
//! state and the cycle budget, dispatches through the full
//! [`Instruction`] match, re-resolves register groups to word ranges
//! and re-proves operand aliasing — on every execution of every
//! instruction.
//!
//! [`CompiledProgram`] instead lowers the **maximal straight-line
//! region** anchored at a PC, per *entry configuration* (`BlockCtx`),
//! into a flat sequence of `Op` micro-ops, one per instruction and one
//! lowering per instruction, whose word indices, rotation tables, π
//! scatter segments and folded immediates are resolved at compile time.
//! Everything the stepper does per instruction happens once per region:
//!
//! * **`vsetvli`** stays inside the region. The lowering predicts the
//!   granted VL/`vtype` from the AVL register's value at compile time,
//!   or the constant a `li` earlier in the region writes to it, and
//!   lowers downstream ops under the new configuration; at run
//!   time the op re-executes the real `vsetvli` and *guards* the
//!   prediction — on mismatch the region retires its exact prefix
//!   (including the `vsetvli`) and hands back to the stepper, so a
//!   stale prediction costs speed, never correctness.
//! * **Conditional branches** terminate a region as a compiled op that
//!   resolves the direction, commits the matching (taken/not-taken)
//!   cycle cost and sets the PC — so one trip through a loop body,
//!   `vsetvli`s, custom Keccak steps and the back-edge included, is one
//!   dispatch. A back-edge to an op inside the region instead ends the
//!   region at that loop head, so every trip, the first included,
//!   enters the loop body's own region.
//! * **The whole LMUL=8 round** (paper Algorithm 3, 23 instructions) is
//!   the tier's one multi-instruction transfer function: a `RoundSpan`
//!   overlays its member ops and runs them as one pass. A region that
//!   is exactly that round, its counter `addi` and a back-edge to its
//!   own entry (`ResidentLoop`) goes further: one dispatch runs every
//!   trip the stepping loop would retire.
//! * **Unlowerable instructions** (masked ops, partial group overlap,
//!   configurations the executors trap on, jumps, halts) *truncate* the
//!   region rather than refusing it: the prefix still runs compiled and
//!   the stepper handles the rest. Only a region whose very first
//!   instruction is unlowerable is refused outright; that instruction
//!   then steps, and compiled dispatch resumes at the next one.
//!
//! Four invariants make the tier an execution fast path only, never a
//! semantic change:
//!
//! * **Refusal, not approximation** — any instruction whose compiled
//!   form cannot be proven bit-identical to the stepper ends the
//!   region, and the stepper reproduces the exact trap or masked
//!   behaviour from the truncation point.
//! * **Cycle ledger** — each region carries per-op prefix sums of the
//!   member costs under its configuration; a mid-region trap or guard
//!   exit retires the exact prefix (cycles, retired, vector-retired,
//!   faulting PC) the stepping path would, and
//!   [`Processor::run_until_pc`](crate::Processor::run_until_pc) can
//!   stop cycle-exactly at any interior instruction boundary.
//! * **Counter folding** — `csrr` of `vl`/`vtype`/`vlenb` folds to a
//!   constant of the op's configuration, and `cycle`/`instret` reads
//!   add the ledger prefix to the counters at region entry, so
//!   mid-region CSR reads observe the same partial sums as stepping.
//! * **Replayed admission** — a resident loop first replays, in scalar
//!   code, what the stepping loop decides before each re-entry: the
//!   counter, the branch direction, ι's index range, the cycle budget
//!   and the `run_until_pc` stop. It runs exactly that many trips and
//!   commits trips × the region's ledger, so the state after the call
//!   is the state after that many separate dispatches. Only the last
//!   trip's temporaries are stored: every temporary of the round is
//!   written before it is read within the round, so no earlier trip's
//!   value is observable.

use crate::decoded::{DecodedInstr, DecodedProgram};
use crate::timing::TimingContext;
use crate::vector::VectorUnit;
use krv_isa::{
    BranchKind, Csr, CustomOp, Instruction, MemMode, OpImmKind, RhoRow, VArithOp, VReg, VSource,
    Vtype, XReg,
};
use krv_keccak::constants::{RC, RHO_OFFSETS};
use krv_keccak::lanes::{self, LaneGroup};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// The vector configuration a region was entered (and compiled) under.
/// Together with the predicted effect of any interior `vsetvli` it
/// fully determines every lowering decision (word ranges, live element
/// counts, folded CSR constants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BlockCtx {
    /// Vector length in elements.
    pub vl: u32,
    /// The `vtype` CSR encoding (`zimm`) — distinguishes configurations
    /// that share VL/EPR/SEW but would fold `csrr vtype` differently.
    pub vtype: u32,
    /// Elements per register at the current SEW.
    pub epr: u32,
    /// SEW in bits.
    pub sew_bits: u32,
}

impl BlockCtx {
    /// Captures the current configuration of `vu`.
    pub fn of(vu: &VectorUnit) -> Self {
        Self {
            vl: vu.vl(),
            vtype: vu.vtype().zimm(),
            epr: vu.elements_per_register(),
            sew_bits: vu.vtype().sew().bits(),
        }
    }

    /// The active register-group count under this configuration
    /// (mirrors `Processor::active_groups`).
    pub fn groups(&self) -> u32 {
        self.vl.div_ceil(self.epr.max(1)).max(1)
    }

    fn timing(&self) -> TimingContext {
        TimingContext {
            branch_taken: false,
            active_groups: self.groups(),
            vl: self.vl,
        }
    }

    /// The configuration after a `vsetvli` with the given `vtype` and
    /// AVL — the exact `VectorUnit::set_config` arithmetic. `None` when
    /// `set_config` would trap (SEW wider than ELEN); the region then
    /// ends before the `vsetvli` and the interpreter raises the trap.
    fn after_vsetvli(self, vtype: Vtype, avl: u32, geometry: Geometry) -> Option<Self> {
        let elen_bits: u32 = if geometry.elen64 { 64 } else { 32 };
        if vtype.sew().bits() > elen_bits {
            return None;
        }
        let vlmax = vtype.vlmax(geometry.elenum as u32, elen_bits);
        let reg_bytes = geometry.elenum as u32 * (elen_bits / 8);
        Some(Self {
            vl: avl.min(vlmax),
            vtype: vtype.zimm(),
            epr: reg_bytes / vtype.sew().bytes(),
            sew_bits: vtype.sew().bits(),
        })
    }
}

/// Elementwise 64-bit binary operation kinds the compiler lowers
/// directly (unmasked SEW=64 `varith`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinKind {
    /// `vadd`.
    Add,
    /// `vsub` (`vs2 - vs1`).
    Sub,
    /// `vrsub` (`vs1 - vs2`).
    Rsub,
    /// `vand`.
    And,
    /// `vor`.
    Or,
    /// `vxor`.
    Xor,
    /// `vsll` (shift amount masked to 63).
    Sll,
    /// `vsrl`.
    Srl,
    /// `vsra` (arithmetic).
    Sra,
    /// `vmv` (splat second operand).
    Mv,
}

impl BinKind {
    /// The compilable subset of [`VArithOp`]: mask-producing comparisons
    /// and the standard slides stay on the interpreter.
    fn of(op: VArithOp) -> Option<Self> {
        Some(match op {
            VArithOp::Add => BinKind::Add,
            VArithOp::Sub => BinKind::Sub,
            VArithOp::Rsub => BinKind::Rsub,
            VArithOp::And => BinKind::And,
            VArithOp::Or => BinKind::Or,
            VArithOp::Xor => BinKind::Xor,
            VArithOp::Sll => BinKind::Sll,
            VArithOp::Srl => BinKind::Srl,
            VArithOp::Sra => BinKind::Sra,
            VArithOp::Mv => BinKind::Mv,
            VArithOp::Mseq
            | VArithOp::Msne
            | VArithOp::Msltu
            | VArithOp::Slideup
            | VArithOp::Slidedown => return None,
        })
    }
}

/// One π scatter segment: a fixed stride-5 copy (optionally rotated)
/// from a source column to a destination column of the register file.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PiSeg {
    /// First destination word index.
    pub dst: usize,
    /// First source word index.
    pub src: usize,
    /// ρ rotation applied on the way (0 for plain `vpi`).
    pub rot: u32,
}

/// One lowered micro-op. All word indices are absolute indices into the
/// register file's flat `u64` storage, resolved at compile time.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Scalar instruction executed through the shared interpreter slot
    /// path (ALU/memory semantics are not duplicated); the precomputed
    /// ledger supplies its cost.
    Interp {
        /// Absolute slot index in the program.
        index: usize,
    },
    /// A scalar register set to a value known when the region compiles:
    /// a `li` (`addi rd, x0, imm`) or a `csrr` of a configuration CSR.
    XConst {
        /// Destination scalar register.
        rd: XReg,
        /// The constant.
        value: u32,
    },
    /// `csrr cycle`: the counter at block entry plus the ledger prefix.
    CsrCycle {
        /// Destination scalar register.
        rd: XReg,
        /// Cycles retired by earlier ops of this block.
        prefix: u64,
    },
    /// `csrr instret`: the counter at block entry plus this op's index.
    CsrInstret {
        /// Destination scalar register.
        rd: XReg,
        /// Instructions retired by earlier ops of this block.
        offset: u64,
    },
    /// Elementwise `.vv` arithmetic over pre-resolved word ranges.
    BinVV {
        /// Operation.
        kind: BinKind,
        /// Destination base word.
        d: usize,
        /// First source (`vs2`) base word.
        a: usize,
        /// Second source (`vs1`) base word.
        b: usize,
        /// Live word count (VL).
        len: usize,
    },
    /// Elementwise `.vx` arithmetic; the scalar is read at run time
    /// (scalar instructions may rewrite it mid-block).
    BinVX {
        /// Operation.
        kind: BinKind,
        /// Destination base word.
        d: usize,
        /// Source (`vs2`) base word.
        a: usize,
        /// Scalar register index.
        rs1: usize,
        /// Live word count (VL).
        len: usize,
    },
    /// Elementwise `.vi` arithmetic with the sign-extended immediate
    /// folded at compile time.
    BinVI {
        /// Operation.
        kind: BinKind,
        /// Destination base word.
        d: usize,
        /// Source (`vs2`) base word.
        a: usize,
        /// Folded immediate.
        imm: u64,
        /// Live word count (VL).
        len: usize,
    },
    /// `vslidedownm`/`vslideupm`: per-5-block lane permutation with the
    /// source lane table folded at compile time.
    SlideMod5 {
        /// Destination base word.
        d: usize,
        /// Source base word.
        s: usize,
        /// Number of live 5-element Keccak blocks.
        blocks: usize,
        /// Source lane for each of the five in-block positions.
        src_j: [usize; 5],
    },
    /// `vrotup`: constant rotate-left of every live word.
    RotConst {
        /// Destination base word.
        d: usize,
        /// Source base word.
        s: usize,
        /// Live word count.
        len: usize,
        /// Rotate amount.
        amount: u32,
    },
    /// `v64rho`: per-word rotate-left with the full ρ offset table
    /// resolved at compile time.
    RhoTable {
        /// Destination base word.
        d: usize,
        /// Source base word.
        s: usize,
        /// Per-word rotation amounts (one per live word).
        rots: Box<[u32]>,
    },
    /// `vpi`/`vrhopi`: column-mode scatter as stride-5 segments.
    Pi {
        /// First word of the destination column span.
        d: usize,
        /// Destination span length (five registers).
        d_len: usize,
        /// First word of the source register span.
        s: usize,
        /// Source span length.
        s_len: usize,
        /// The 5 × rows scatter segments, offsets relative to the spans.
        segs: Box<[PiSeg]>,
        /// States per row (`min(VL, EPR) / 5`).
        states: usize,
    },
    /// `viota`: XOR the round constant (looked up from the scalar
    /// register at run time — the index may be out of range and trap)
    /// into lane 0 of every state, copying the rest.
    Iota {
        /// Destination base word.
        d: usize,
        /// Source base word.
        s: usize,
        /// Live word count.
        len: usize,
        /// Scalar register holding the round index.
        rs1: usize,
    },
    /// Unit-stride `vle64.v` with an all-or-nothing bulk fast path; the
    /// element-serial interpreter handles the partial/trapping case.
    VLoad64 {
        /// Destination base word.
        d: usize,
        /// Element count (VL).
        len: usize,
        /// Destination register (interpreter fallback).
        vd: VReg,
        /// Base-address scalar register (interpreter fallback).
        rs1: XReg,
    },
    /// Unit-stride `vse64.v` (counterpart of [`Op::VLoad64`]).
    VStore64 {
        /// Source base word.
        s: usize,
        /// Element count (VL).
        len: usize,
        /// Source register (interpreter fallback).
        vs3: VReg,
        /// Base-address scalar register (interpreter fallback).
        rs1: XReg,
    },
    /// `vsetvli` executed natively (exact `set_config` and `rd`
    /// semantics), then *guarded*: downstream ops were lowered for the
    /// predicted configuration, so a different granted VL/`vtype`
    /// retires the region's prefix through this op and hands the rest
    /// back to the interpreter.
    Vsetvli {
        /// Destination scalar register for the granted VL.
        rd: XReg,
        /// AVL source register (`x0` selects VLMAX/keep-VL semantics).
        rs1: XReg,
        /// The requested `vtype` configuration.
        vtype: Vtype,
        /// The VL the lowering predicted `set_config` grants.
        expected_vl: u32,
        /// The predicted `vtype` CSR encoding.
        expected_vtype: u32,
    },
    /// Scalar immediate ALU op (`addi`/`xori`/...) executed natively —
    /// these drive loop counters inside permutation rounds, so keeping
    /// them out of the interpreter slot path matters.
    ScalarImm {
        /// Operation.
        kind: OpImmKind,
        /// Destination scalar register.
        rd: XReg,
        /// Source scalar register.
        rs1: XReg,
        /// Sign-extended immediate.
        imm: i32,
    },
    /// A conditional branch terminating the region: resolves the
    /// direction, commits the matching cycle cost and sets the PC.
    /// Always the last op of its region.
    Branch {
        /// Comparison kind.
        kind: BranchKind,
        /// First comparison register index.
        rs1: usize,
        /// Second comparison register index.
        rs2: usize,
        /// Taken-path target PC.
        target: u32,
        /// Cycle cost when taken.
        taken_cost: u64,
        /// Cycle cost when not taken.
        not_cost: u64,
    },
}

/// The operands of a fused whole round (paper Algorithm 3), captured
/// when the span is built: the compiled tier's one multi-instruction
/// transfer function. The round is the Keccak round: the slide
/// offsets, the θ rotate amount, the ρ table and the π segments are
/// proven canonical, so only the register placement, the χ scalar and
/// the two `vsetvli`s are captured.
///
/// The 23 member [`Op`]s stay in the block unchanged, and a dispatch
/// that must stop or retire inside the span runs them one by one, so
/// the span has the member ops' exact architectural effect, including
/// the final value of every temporary register they leave behind.
///
/// Two things are only known at run time and are checked before any
/// write: both `vsetvli` grants must equal their predictions, and ι's
/// index must lie inside `RC`. If either fails, the member ops run and
/// exit or trap exactly where stepping would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RoundSpan {
    /// Base word of plane 0; plane `y` starts `y · n` words later.
    pub planes: usize,
    /// Live words per plane (`5 × states`), which is also the register
    /// size and so the plane stride.
    pub n: usize,
    /// θ's `D` temporary.
    pub c: usize,
    /// θ's slide-up temporary (`C[x-1]`).
    pub up: usize,
    /// θ's rotated slide-down temporary (`rotl(C[x+1], 1)`).
    pub rot: usize,
    /// π's destination group (five planes).
    pub pi: usize,
    /// χ's first temporary group (`(B[x+1] ^ y) & B[x+2]`).
    pub t1: usize,
    /// χ's second temporary group (`B[x+2]`).
    pub t2: usize,
    /// χ's scalar register (the complement mask, normally `-1`).
    pub chi_rs1: usize,
    /// ι's round-index register.
    pub iota_rs1: usize,
    /// The `vsetvli` to the m8 group configuration.
    pub wide: VsetGuard,
    /// The `vsetvli` back to the m1 plane configuration; the span leaves
    /// the vector unit in the configuration it grants.
    pub narrow: VsetGuard,
}

/// A `vsetvli x0, avl, vtype` inside a round span, with the grant its
/// downstream ops were lowered for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VsetGuard {
    /// AVL register (never `x0`).
    pub avl: XReg,
    /// The requested configuration.
    pub vtype: Vtype,
    /// The predicted granted VL.
    pub vl: u32,
}

/// A region that is exactly a [`RoundSpan`], `addi counter, counter,
/// step` and a conditional branch back to the region's entry — the
/// kernels' `loopctl`. The processor runs it in one call for as many
/// trips as the stepping loop would retire (see the module docs).
///
/// Proven when the region is built: the counter is ι's index register
/// (so it is the only scalar the loop writes), it is neither an AVL
/// register nor χ's scalar (so both `vsetvli` guards and the χ operand
/// hold for every trip once they hold for the first), and the
/// configuration at the branch equals the region's entry `BlockCtx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ResidentLoop {
    /// The round the loop body runs.
    pub round: RoundSpan,
    /// The `addi` immediate, as the wrapping increment of the counter.
    pub step: u32,
    /// The back-edge's comparison.
    pub kind: BranchKind,
    /// The back-edge's first comparison register index.
    pub rs1: usize,
    /// The back-edge's second comparison register index.
    pub rs2: usize,
}

/// How a compiled op left its region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpExit {
    /// Continue with the next op.
    Next,
    /// Retire this op, then leave the region: a [`Op::Vsetvli`] guard
    /// saw a configuration other than the one downstream ops were
    /// compiled for. The interpreter continues from the next
    /// instruction with identical architectural state.
    ExitAfter,
}

/// Counter prefix sums *before* one op of a block executes; used for
/// cycle-exact trap retirement and mid-block `csrr` folding.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ledger {
    /// Cycles consumed by earlier ops.
    pub prefix_cycles: u64,
    /// Vector instructions retired by earlier ops.
    pub prefix_vector: u64,
}

/// A straight-line region lowered under one entry [`BlockCtx`].
#[derive(Debug, Clone)]
pub(crate) struct CompiledBlock {
    /// The entry configuration this lowering is valid for.
    pub ctx: BlockCtx,
    /// The micro-ops, one per member instruction.
    pub ops: Box<[Op]>,
    /// Per-op counter prefixes (same length as `ops`).
    pub ledger: Box<[Ledger]>,
    /// Total cycle cost of every op except a terminal branch (whose
    /// cost depends on the direction taken).
    pub total_cycles: u64,
    /// Total vector instructions retired.
    pub total_vector: u64,
    /// (taken, not-taken) costs of the terminal branch, if any.
    pub branch_costs: Option<(u64, u64)>,
    /// Member instruction count.
    pub len: usize,
    /// Whole-round spans in op order: `(start, span)` overlays
    /// `ops[start .. start + ROUND_LEN]`, and no two overlap.
    pub rounds: Box<[(usize, RoundSpan)]>,
    /// Set when the whole region is a resident round loop.
    pub resident: Option<ResidentLoop>,
}

impl CompiledBlock {
    /// The worst-case whole-region cost for the all-or-nothing budget
    /// check (a terminal branch contributes its costlier direction).
    pub fn worst_cost(&self) -> u64 {
        self.total_cycles + self.branch_costs.map_or(0, |(t, n)| t.max(n))
    }

    /// Counter prefixes (cycles, vector-retired) after op `k` has
    /// retired. Never called for a terminal branch (which commits its
    /// own direction-dependent cost).
    pub fn prefix_after(&self, k: usize) -> (u64, u64) {
        match self.ledger.get(k + 1) {
            Some(next) => (next.prefix_cycles, next.prefix_vector),
            None => (self.total_cycles, self.total_vector),
        }
    }
}

/// A processor-local cache slot for the region anchored at one PC: once
/// resolved for the running entry configuration, dispatch is a pointer
/// load and a `BlockCtx` equality check — no locks, no hashing.
#[derive(Debug, Clone, Default)]
pub(crate) enum CompiledSlot {
    /// Not yet looked at.
    #[default]
    Empty,
    /// Compiled for the contained region's entry configuration.
    Ready(Arc<CompiledBlock>),
    /// Refused under this configuration (fall back to the interpreter).
    Refused(BlockCtx),
}

/// The machine geometry a lowering must hold for: fixed per processor,
/// constant for all configurations.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geometry {
    /// Elements of ELEN width per register (`EleNum`).
    pub elenum: usize,
    /// Total 64-bit storage words in the register file.
    pub words_len: usize,
    /// Whether the architecture is 64-bit (ELEN = 64).
    pub elen64: bool,
}

/// A shareable compiled view of a [`DecodedProgram`]: the maximal
/// straight-line region anchored at any PC can be lowered lazily, per
/// entry configuration, into native word ops — see the
/// [module docs](self) for the exact-equivalence invariants.
///
/// Like the decoded program it wraps, a `CompiledProgram` is immutable
/// from the outside and shareable between processors via [`Arc`]; the
/// internal per-(PC, configuration) region pool is populated on first
/// dispatch and protected by a mutex, while each
/// [`Processor`](crate::Processor) keeps a lock-free local cache for
/// steady-state dispatch. A pooled region's `vsetvli` predictions come
/// from whichever processor compiled it first; processors whose AVL
/// registers differ exit at the guard and re-enter compiled execution
/// one instruction later under their own configuration.
#[derive(Debug)]
pub struct CompiledProgram {
    decoded: Arc<DecodedProgram>,
    pool: Mutex<BlockPool>,
}

/// Memoized per-(entry slot, entry configuration) compilation results;
/// `None` records a refusal so the stepper is chosen without
/// re-attempting the lowering.
type BlockPool = HashMap<(u32, BlockCtx), Option<Arc<CompiledBlock>>>;

impl CompiledProgram {
    /// Wraps a decoded program; blocks compile lazily on first dispatch.
    pub fn new(decoded: Arc<DecodedProgram>) -> Self {
        Self {
            decoded,
            pool: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying decoded program.
    pub fn decoded(&self) -> Arc<DecodedProgram> {
        Arc::clone(&self.decoded)
    }

    /// Number of (block, configuration) pairs compiled so far.
    pub fn compiled_blocks(&self) -> usize {
        self.lock().values().filter(|v| v.is_some()).count()
    }

    /// Number of (block, configuration) pairs refused so far (their
    /// first instruction runs on the stepper).
    pub fn refusals(&self) -> usize {
        self.lock().values().filter(|v| v.is_none()).count()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BlockPool> {
        // A panic while holding the lock cannot leave a torn entry (the
        // map only ever gains complete entries), so poisoning is benign.
        self.pool.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The compiled region anchored at slot `start` under entry
    /// configuration `ctx`, compiling and memoizing on first request;
    /// `None` means the region is refused under this configuration.
    ///
    /// `xregs` seeds the `vsetvli` AVL predictions of a first-time
    /// compile; a cached region compiled from different register values
    /// stays correct through its runtime guards.
    pub(crate) fn block_for(
        &self,
        start: usize,
        ctx: BlockCtx,
        geometry: Geometry,
        xregs: &[u32; 32],
    ) -> Option<Arc<CompiledBlock>> {
        self.lock()
            .entry((start as u32, ctx))
            .or_insert_with(|| {
                compile_region(&self.decoded, start, ctx, geometry, xregs).map(Arc::new)
            })
            .clone()
    }
}

/// Lowers the maximal compilable straight-line region of `program`
/// anchored at `start` under entry configuration `ctx`.
///
/// The region walks forward until a halt, a jump, an instruction that
/// cannot be proven bit-identical to the interpreter (all of which
/// truncate the region before them), or a conditional branch (compiled
/// as the terminal op). A branch back to an op strictly inside the
/// region instead cuts the region at that loop head. Interior
/// `vsetvli`s update the tracked configuration using the AVL predicted
/// from `xregs` and the constants the region's own earlier ops write
/// (`Op::XConst`), and are guarded at run time. Returns `None` only when
/// not even the first instruction is compilable — the caller then
/// steps that instruction.
pub(crate) fn compile_region(
    program: &DecodedProgram,
    start: usize,
    ctx: BlockCtx,
    geometry: Geometry,
    xregs: &[u32; 32],
) -> Option<CompiledBlock> {
    let mut cur = ctx;
    // The scalar registers as the region will have set them: a `li`
    // before a `vsetvli` decides its AVL, whatever the entry value.
    let mut known = *xregs;
    let mut ops = Vec::new();
    let mut ledger = Vec::new();
    let mut prefix_cycles = 0u64;
    let mut prefix_vector = 0u64;
    let mut branch_costs = None;
    let mut index = start;
    while let Some(slot) = program.get(index) {
        let entry = Ledger {
            prefix_cycles,
            prefix_vector,
        };
        match slot.instr {
            // Halts and (computed) jumps end the region before them.
            Instruction::Jal { .. }
            | Instruction::Jalr { .. }
            | Instruction::Ecall
            | Instruction::Ebreak => break,
            // A conditional branch is the region's terminal op.
            Instruction::Branch { kind, rs1, rs2, .. } => {
                let not_cost = slot.timing.cost(cur.timing());
                let mut taken = cur.timing();
                taken.branch_taken = true;
                let taken_cost = slot.timing.cost(taken);
                ledger.push(entry);
                ops.push(Op::Branch {
                    kind,
                    rs1: rs1.index(),
                    rs2: rs2.index(),
                    target: slot.target,
                    taken_cost,
                    not_cost,
                });
                branch_costs = Some((taken_cost, not_cost));
                break;
            }
            // `vsetvli` stays in the region under a runtime guard.
            Instruction::Vsetvli { rd, rs1, vtype } => {
                let avl = if rs1 != XReg::X0 {
                    known[rs1.index()]
                } else if rd != XReg::X0 {
                    u32::MAX
                } else {
                    cur.vl
                };
                let Some(next) = cur.after_vsetvli(vtype, avl, geometry) else {
                    break; // predicted trap: leave it to the interpreter
                };
                ledger.push(entry);
                ops.push(Op::Vsetvli {
                    rd,
                    rs1,
                    vtype,
                    expected_vl: next.vl,
                    expected_vtype: next.vtype,
                });
                prefix_cycles += slot.timing.cost(cur.timing());
                prefix_vector += u64::from(slot.is_vector);
                cur = next;
                index += 1;
                continue;
            }
            _ => {}
        }
        let Some(op) = lower(slot, index, index - start, cur, geometry, prefix_cycles) else {
            break;
        };
        if let Op::XConst { rd, value } = op {
            // A write to `x0` lands in a slot no AVL is read from.
            known[rd.index()] = value;
        }
        ledger.push(entry);
        ops.push(op);
        prefix_cycles += slot.timing.cost(cur.timing());
        prefix_vector += u64::from(slot.is_vector);
        index += 1;
    }
    if ops.is_empty() {
        return None;
    }
    // A back-edge to an op strictly inside the region is a loop whose
    // head lies past the entry: the region ends at that head, without
    // the branch, so the loop body compiles as a region of its own that
    // every trip enters at its start.
    if let Some(&Op::Branch { target, .. }) = ops.last() {
        let head = (target / 4) as usize;
        if target.is_multiple_of(4) && head > start && head - start < ops.len() {
            let cut = head - start;
            let at = ledger[cut];
            ops.truncate(cut);
            ledger.truncate(cut);
            (prefix_cycles, prefix_vector) = (at.prefix_cycles, at.prefix_vector);
            branch_costs = None;
        }
    }
    let len = ops.len();
    let rounds = match_rounds(&ops);
    let resident = if cur == ctx {
        match_resident(&ops, &rounds, start)
    } else {
        None
    };
    Some(CompiledBlock {
        ctx,
        ops: ops.into(),
        ledger: ledger.into(),
        total_cycles: prefix_cycles,
        total_vector: prefix_vector,
        branch_costs,
        len,
        rounds,
        resident,
    })
}

/// θ's instruction count.
const THETA_LEN: usize = 13;
/// χ's instruction count.
const CHI_LEN: usize = 5;
/// Instructions covered by a round span.
pub(crate) const ROUND_LEN: usize = 23;
/// Where χ starts inside a round: θ, `vsetvli`, `v64rho`, `vpi`.
const ROUND_CHI: usize = THETA_LEN + 3;

/// Scans a lowered region for whole LMUL=8 rounds and records each as
/// a [`RoundSpan`] overlaying its 23 member ops, which stay in place.
fn match_rounds(ops: &[Op]) -> Box<[(usize, RoundSpan)]> {
    let mut rounds = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        if let Some(round) = match_round(&ops[i..]) {
            rounds.push((i, round));
            i += ROUND_LEN;
        } else {
            i += 1;
        }
    }
    rounds.into_boxed_slice()
}

/// Whether `N` word ranges, given as `(offset, len)`, are pairwise
/// disjoint.
fn ranges_disjoint<const N: usize>(mut ranges: [(usize, usize); N]) -> bool {
    ranges.sort_unstable();
    ranges.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0)
}

/// The canonical lane tables of θ and χ, as the kernel generators emit
/// them: slide up/down by one lane, and χ's slides down by one and two
/// lanes.
const THETA_UP: [usize; 5] = [4, 0, 1, 2, 3];
const THETA_DOWN: [usize; 5] = [1, 2, 3, 4, 0];
const CHI_NEXT: [usize; 5] = [1, 2, 3, 4, 0];
const CHI_NEXT2: [usize; 5] = [2, 3, 4, 0, 1];

/// Matches the 23-instruction LMUL=8 round at `ops[0]`:
///
/// ```text
/// θ (13, on planes p + y·n)     χ (5, reading π's group, writing p)
/// vsetvli x0, a8, e64, m8       vsetvli x0, a1, e64, m1
/// v64rho.vi p, p, -1            viota.vx p, p, rc
/// vpi.vi    b, p, -1
/// ```
///
/// The span is the Keccak round, so everything but register placement
/// and the χ scalar must be canonical: the lane tables, θ's rotate by
/// one, the ρ table over the whole live span and π's 25 unrotated
/// segments. The five planes must fill the m8 group exactly (`n` live
/// words per plane, the register size), ι must work on plane 0, and all
/// seven operand ranges must be pairwise disjoint.
fn match_round(ops: &[Op]) -> Option<RoundSpan> {
    let seq: &[Op; ROUND_LEN] = ops.get(..ROUND_LEN)?.try_into().ok()?;
    let (planes, c, up, rot, n) = match_theta(&seq[..THETA_LEN])?;
    let (chi_s, t1, t2, chi_d, chi_rs1, chi_n) = match_chi(&seq[ROUND_CHI..ROUND_CHI + CHI_LEN])?;
    let (
        Op::Vsetvli {
            rd: wide_rd,
            rs1: wide_avl,
            vtype: wide_vtype,
            expected_vl: wide_vl,
            ..
        },
        Op::RhoTable {
            d: rho_d,
            s: rho_s,
            rots,
        },
        Op::Pi {
            d: pi,
            d_len,
            s: pi_s,
            s_len,
            segs,
            states,
        },
        Op::Vsetvli {
            rd: narrow_rd,
            rs1: narrow_avl,
            vtype: narrow_vtype,
            expected_vl: narrow_vl,
            ..
        },
        Op::Iota {
            d: iota_d,
            s: iota_s,
            len: iota_len,
            rs1: iota_rs1,
        },
    ) = (&seq[13], &seq[14], &seq[15], &seq[21], &seq[22])
    else {
        return None;
    };
    let p = planes[0];
    let placed = (0..5).all(|y| planes[y] == p + y * n)
        && chi_n == 5 * n
        && chi_s == *pi
        && chi_d == p
        && (*rho_d, *rho_s) == (p, p)
        && (*pi_s, *s_len, *d_len, 5 * *states) == (p, 5 * n, 5 * n, n)
        && (*iota_d, *iota_s, *iota_len) == (p, p, n);
    let guarded =
        [*wide_rd, *narrow_rd] == [XReg::X0; 2] && *wide_avl != XReg::X0 && *narrow_avl != XReg::X0;
    let rho_canonical = rots.len() == 5 * n
        && rots
            .iter()
            .enumerate()
            .all(|(g, &r)| r == RHO_OFFSETS[g / n][g % 5]);
    // `lower_pi` emits row `r`'s five segments in column order `xp`.
    let pi_canonical = segs.len() == 25
        && segs.iter().enumerate().all(|(i, seg)| {
            let (r, xp) = (i / 5, i % 5);
            let y = 2 * (5 + xp - r) % 5;
            (seg.dst, seg.src, seg.rot) == (y * n + r, r * n + xp, 0)
        });
    let disjoint = ranges_disjoint([
        (p, 5 * n),
        (c, n),
        (up, n),
        (rot, n),
        (*pi, 5 * n),
        (t1, 5 * n),
        (t2, 5 * n),
    ]);
    if !(placed && guarded && rho_canonical && pi_canonical && disjoint) {
        return None;
    }
    Some(RoundSpan {
        planes: p,
        n,
        c,
        up,
        rot,
        pi: *pi,
        t1,
        t2,
        chi_rs1,
        iota_rs1: *iota_rs1,
        wide: VsetGuard {
            avl: *wide_avl,
            vtype: *wide_vtype,
            vl: *wide_vl,
        },
        narrow: VsetGuard {
            avl: *narrow_avl,
            vtype: *narrow_vtype,
            vl: *narrow_vl,
        },
    })
}

/// Recognises a region that is exactly a round span, `addi rc, rc,
/// imm` with `rc` ι's index register, and a conditional branch back to
/// the region's entry slot `start`. The caller has already checked that
/// the configuration at the branch equals the entry configuration.
fn match_resident(ops: &[Op], rounds: &[(usize, RoundSpan)], start: usize) -> Option<ResidentLoop> {
    let [Op::ScalarImm {
        kind: OpImmKind::Addi,
        rd,
        rs1,
        imm,
    }, Op::Branch {
        kind,
        rs1: b1,
        rs2: b2,
        target,
        ..
    }] = ops.get(ROUND_LEN..)?
    else {
        return None;
    };
    let &[(0, round)] = rounds else {
        return None;
    };
    let counter = rd.index();
    let wired = rd == rs1
        && counter != 0
        && counter == round.iota_rs1
        && counter != round.chi_rs1
        && counter != round.wide.avl.index()
        && counter != round.narrow.avl.index()
        && *target as usize == start * 4;
    wired.then_some(ResidentLoop {
        round,
        step: *imm as u32,
        kind: *kind,
        rs1: *b1,
        rs2: *b2,
    })
}

/// Whether a conditional branch of `kind` is taken on operands `a`, `b`.
pub(crate) fn branch_taken(kind: BranchKind, a: u32, b: u32) -> bool {
    match kind {
        BranchKind::Beq => a == b,
        BranchKind::Bne => a != b,
        BranchKind::Blt => (a as i32) < (b as i32),
        BranchKind::Bge => (a as i32) >= (b as i32),
        BranchKind::Bltu => a < b,
        BranchKind::Bgeu => a >= b,
    }
}

/// Matches a round's 13-instruction θ, returning the plane bases, the
/// `D`, slide-up and rotated slide-down temporaries and the live word
/// count `(planes, c, up, rot, n)`:
///
/// ```text
/// vxor.vv   c,  p3, p4        vslideupm.vi    up,  c, 1
/// vxor.vv   up, p1, p2        vslidedownm.vi  rot, c, 1
/// vxor.vv   rot, p0, up       vrotup.vi       rot, rot, 1
/// vxor.vv   c,  c,  rot       vxor.vv         c,   up, rot
/// vxor.vv   py, py, c   (for y = 0..5)
/// ```
///
/// The first four XORs accumulate the five-plane parity into `c`, the
/// middle four form `D`, and the last five fold `D` into each plane.
fn match_theta(ops: &[Op]) -> Option<([usize; 5], usize, usize, usize, usize)> {
    let seq: &[Op; THETA_LEN] = ops.get(..THETA_LEN)?.try_into().ok()?;
    let [Op::BinVV {
        kind: BinKind::Xor,
        d: c0,
        a: x34a,
        b: x34b,
        len: n0,
    }, Op::BinVV {
        kind: BinKind::Xor,
        d: u0,
        a: x12a,
        b: x12b,
        len: n1,
    }, Op::BinVV {
        kind: BinKind::Xor,
        d: r0,
        a: x0a,
        b: x0b,
        len: n2,
    }, Op::BinVV {
        kind: BinKind::Xor,
        d: c1,
        a: ca,
        b: cb,
        len: n3,
    }, Op::SlideMod5 {
        d: u1,
        s: su,
        blocks: bu,
        src_j: j_up,
    }, Op::SlideMod5 {
        d: r1,
        s: sr,
        blocks: br,
        src_j: j_rot,
    }, Op::RotConst {
        d: r2,
        s: r3,
        len: n6,
        amount,
    }, Op::BinVV {
        kind: BinKind::Xor,
        d: c2,
        a: da,
        b: db,
        len: n7,
    }, Op::BinVV {
        kind: BinKind::Xor,
        d: p0,
        a: pa0,
        b: pb0,
        len: n8,
    }, Op::BinVV {
        kind: BinKind::Xor,
        d: p1,
        a: pa1,
        b: pb1,
        len: n9,
    }, Op::BinVV {
        kind: BinKind::Xor,
        d: p2,
        a: pa2,
        b: pb2,
        len: n10,
    }, Op::BinVV {
        kind: BinKind::Xor,
        d: p3,
        a: pa3,
        b: pb3,
        len: n11,
    }, Op::BinVV {
        kind: BinKind::Xor,
        d: p4,
        a: pa4,
        b: pb4,
        len: n12,
    }] = seq
    else {
        return None;
    };
    let n = *n0;
    let planes = [*p0, *p1, *p2, *p3, *p4];
    let (c, up, rot) = (*c0, *u0, *r0);
    let same_len = [*n1, *n2, *n3, *n6, *n7, *n8, *n9, *n10, *n11, *n12]
        .iter()
        .all(|&l| l == n);
    let canonical = *j_up == THETA_UP && *j_rot == THETA_DOWN && *amount == 1;
    if !same_len || !canonical || n == 0 || *bu * 5 != n || *br * 5 != n {
        return None;
    }
    let wired = *x34a == planes[3]
        && *x34b == planes[4]
        && *x12a == planes[1]
        && *x12b == planes[2]
        && *x0a == planes[0]
        && *x0b == up
        && *c1 == c
        && *ca == c
        && *cb == rot
        && *u1 == up
        && *su == c
        && *r1 == rot
        && *sr == c
        && *r2 == rot
        && *r3 == rot
        && *c2 == c
        && *da == up
        && *db == rot
        && [*pa0, *pa1, *pa2, *pa3, *pa4] == planes
        && [*pb0, *pb1, *pb2, *pb3, *pb4] == [c; 5];
    wired.then_some((planes, c, up, rot, n))
}

/// Matches a round's 5-instruction χ, returning its source group, its
/// two temporaries, its destination, its scalar register and the live
/// word count `(s, t1, t2, d, rs1, n)`:
///
/// ```text
/// vslidedownm.vi t1, s, 1     vand.vv t1, t1, t2
/// vxor.vx        t1, t1, rs1  vxor.vv d,  s,  t1
/// vslidedownm.vi t2, s, 2
/// ```
///
/// The scalar (normally `-1`, the complement) is read at run time like
/// any `.vx` operand.
fn match_chi(ops: &[Op]) -> Option<(usize, usize, usize, usize, usize, usize)> {
    let seq: &[Op; CHI_LEN] = ops.get(..CHI_LEN)?.try_into().ok()?;
    let [Op::SlideMod5 {
        d: t1a,
        s: s0,
        blocks: k1,
        src_j: j1,
    }, Op::BinVX {
        kind: BinKind::Xor,
        d: t1b,
        a: t1c,
        rs1,
        len: n1,
    }, Op::SlideMod5 {
        d: t2a,
        s: s2,
        blocks: k2,
        src_j: j2,
    }, Op::BinVV {
        kind: BinKind::And,
        d: t1d,
        a: t1e,
        b: t2b,
        len: n3,
    }, Op::BinVV {
        kind: BinKind::Xor,
        d: dd,
        a: sa,
        b: t1f,
        len: n4,
    }] = seq
    else {
        return None;
    };
    let n = *n1;
    let (s, t1, t2, d) = (*s0, *t1a, *t2a, *dd);
    let canonical = *j1 == CHI_NEXT && *j2 == CHI_NEXT2;
    if !canonical || n == 0 || *k1 * 5 != n || *k2 * 5 != n || *n3 != n || *n4 != n {
        return None;
    }
    let wired = *t1b == t1
        && *t1c == t1
        && *s2 == s
        && *t1d == t1
        && *t1e == t1
        && *t2b == t2
        && *sa == s
        && *t1f == t1;
    wired.then_some((s, t1, t2, d, *rs1, n))
}

/// Whether two equal-length word ranges are safe for the compiled
/// two/three-slice execution paths: identical or fully disjoint.
/// Partial overlap (an LMUL group starting inside another) is refused —
/// the stepper's read-then-write executors handle it.
fn same_or_disjoint(a: usize, b: usize, len: usize) -> bool {
    a == b || a + len <= b || b + len <= a
}

/// Lowers one instruction, or `None` to end the region before it.
fn lower(
    slot: &DecodedInstr,
    index: usize,
    k: usize,
    ctx: BlockCtx,
    geometry: Geometry,
    prefix_cycles: u64,
) -> Option<Op> {
    let Geometry {
        elenum,
        words_len,
        elen64,
    } = geometry;
    // Vector word ops require the 64-bit architecture at SEW = 64, where
    // one element is one storage word.
    let vec64 = elen64 && ctx.sew_bits == 64;
    match slot.instr {
        Instruction::OpImm {
            kind: OpImmKind::Addi,
            rd,
            rs1: XReg::X0,
            imm,
        } => Some(Op::XConst {
            rd,
            value: imm as u32,
        }),
        Instruction::OpImm { kind, rd, rs1, imm } => Some(Op::ScalarImm { kind, rd, rs1, imm }),
        Instruction::Lui { .. }
        | Instruction::Auipc { .. }
        | Instruction::Op { .. }
        | Instruction::Load { .. }
        | Instruction::Store { .. } => Some(Op::Interp { index }),
        Instruction::Csrr { rd, csr } => Some(match csr {
            Csr::Vl => Op::XConst { rd, value: ctx.vl },
            Csr::Vtype => Op::XConst {
                rd,
                value: ctx.vtype,
            },
            Csr::Vlenb => Op::XConst {
                rd,
                value: (elenum * if elen64 { 8 } else { 4 }) as u32,
            },
            Csr::Cycle => Op::CsrCycle {
                rd,
                prefix: prefix_cycles,
            },
            Csr::Instret => Op::CsrInstret {
                rd,
                offset: k as u64,
            },
        }),
        Instruction::VLoad {
            eew,
            vd,
            rs1,
            mode,
            vm,
        } => {
            if !vm || !elen64 || eew.bits() != 64 || !matches!(mode, MemMode::UnitStride) {
                return None;
            }
            let d = vd.index() * elenum;
            let len = ctx.vl as usize;
            if d + len > words_len {
                return None;
            }
            Some(Op::VLoad64 { d, len, vd, rs1 })
        }
        Instruction::VStore {
            eew,
            vs3,
            rs1,
            mode,
            vm,
        } => {
            if !vm || !elen64 || eew.bits() != 64 || !matches!(mode, MemMode::UnitStride) {
                return None;
            }
            let s = vs3.index() * elenum;
            let len = ctx.vl as usize;
            if s + len > words_len {
                return None;
            }
            Some(Op::VStore64 { s, len, vs3, rs1 })
        }
        Instruction::VArith {
            op,
            vd,
            vs2,
            src,
            vm,
        } => {
            if !vm || !vec64 {
                return None;
            }
            let kind = BinKind::of(op)?;
            let len = ctx.vl as usize;
            let d = vd.index() * elenum;
            let a = vs2.index() * elenum;
            if d + len > words_len || a + len > words_len {
                return None;
            }
            match src {
                VSource::Vector(vs1) => {
                    let b = vs1.index() * elenum;
                    if b + len > words_len
                        || !same_or_disjoint(d, a, len)
                        || !same_or_disjoint(d, b, len)
                        || !same_or_disjoint(a, b, len)
                    {
                        return None;
                    }
                    Some(Op::BinVV { kind, d, a, b, len })
                }
                VSource::Scalar(rs1) => {
                    if !same_or_disjoint(d, a, len) {
                        return None;
                    }
                    Some(Op::BinVX {
                        kind,
                        d,
                        a,
                        rs1: rs1.index(),
                        len,
                    })
                }
                VSource::Imm(imm) => {
                    if !same_or_disjoint(d, a, len) {
                        return None;
                    }
                    Some(Op::BinVI {
                        kind,
                        d,
                        a,
                        imm: imm as i64 as u64,
                        len,
                    })
                }
            }
        }
        Instruction::Custom(op) => {
            if !vec64 {
                return None;
            }
            lower_custom(&op, ctx, elenum, words_len)
        }
        // Control flow, halts and `vsetvli` are intercepted by the
        // region walker before lowering; `vmv.x.s`/`vmv.s.x`/`vid` and
        // everything else stay on the interpreter.
        _ => None,
    }
}

/// Lowers one custom Keccak instruction (64-bit architecture, SEW = 64
/// already established by the caller).
fn lower_custom(op: &CustomOp, ctx: BlockCtx, elenum: usize, words_len: usize) -> Option<Op> {
    let vl = ctx.vl as usize;
    let epr = ctx.epr as usize;
    if epr == 0 {
        return None;
    }
    let blocks = vl / 5;
    let live = 5 * blocks;
    // `check_block_alignment` would trap before any write; refuse so
    // the interpreter raises the identical trap.
    let aligned = vl <= epr || epr.is_multiple_of(5);
    let window = |reg: VReg, len: usize| -> Option<usize> {
        let base = reg.index() * elenum;
        (base + len <= words_len).then_some(base)
    };
    match *op {
        CustomOp::Vslidedownm { vd, vs2, uimm, vm } => {
            lower_slide(vd, vs2, uimm as i32, vm, aligned, blocks, live, &window)
        }
        CustomOp::Vslideupm { vd, vs2, uimm, vm } => {
            lower_slide(vd, vs2, -(uimm as i32), vm, aligned, blocks, live, &window)
        }
        CustomOp::Vrotup { vd, vs2, uimm, vm } => {
            if !vm || !aligned {
                return None;
            }
            let d = window(vd, live)?;
            let s = window(vs2, live)?;
            if !same_or_disjoint(d, s, live) {
                return None;
            }
            Some(Op::RotConst {
                d,
                s,
                len: live,
                amount: uimm as u32,
            })
        }
        CustomOp::V64rho { vd, vs2, row, vm } => {
            if !vm || !aligned {
                return None;
            }
            // The all-rows form past five registers traps before any
            // write; refuse so the interpreter raises the identical trap.
            let rots: Box<[u32]> = match row {
                RhoRow::Row(r) if r <= 4 => {
                    (0..live).map(|g| RHO_OFFSETS[r as usize][g % 5]).collect()
                }
                RhoRow::Row(_) => return None,
                RhoRow::All => {
                    if vl > 5 * epr {
                        return None;
                    }
                    (0..live).map(|g| RHO_OFFSETS[g / epr][g % 5]).collect()
                }
            };
            let d = window(vd, live)?;
            let s = window(vs2, live)?;
            if !same_or_disjoint(d, s, live) {
                return None;
            }
            Some(Op::RhoTable { d, s, rots })
        }
        CustomOp::Vpi { vd, vs2, row, vm } => {
            lower_pi(vd, vs2, row, vm, false, vl, epr, elenum, words_len)
        }
        CustomOp::Vrhopi { vd, vs2, row, vm } => {
            lower_pi(vd, vs2, row, vm, true, vl, epr, elenum, words_len)
        }
        CustomOp::Viota { vd, vs2, rs1, vm } => {
            if !vm || !aligned {
                return None;
            }
            let d = window(vd, live)?;
            let s = window(vs2, live)?;
            if !same_or_disjoint(d, s, live) {
                return None;
            }
            Some(Op::Iota {
                d,
                s,
                len: live,
                rs1: rs1.index(),
            })
        }
        // 32-bit-architecture ops trap on ELEN = 64; refuse so the
        // interpreter raises the trap.
        CustomOp::V32lrotup { .. }
        | CustomOp::V32hrotup { .. }
        | CustomOp::V32lrho { .. }
        | CustomOp::V32hrho { .. } => None,
    }
}

#[allow(clippy::too_many_arguments)] // mirrors the instruction operands
fn lower_slide(
    vd: VReg,
    vs2: VReg,
    offset: i32,
    vm: bool,
    aligned: bool,
    blocks: usize,
    live: usize,
    window: &impl Fn(VReg, usize) -> Option<usize>,
) -> Option<Op> {
    if !vm || !aligned {
        return None;
    }
    let mut src_j = [0usize; 5];
    for (j, slot) in src_j.iter_mut().enumerate() {
        *slot = (j as i32 + offset).rem_euclid(5) as usize;
    }
    let d = window(vd, live)?;
    let s = window(vs2, live)?;
    if !same_or_disjoint(d, s, live) {
        return None;
    }
    Some(Op::SlideMod5 {
        d,
        s,
        blocks,
        src_j,
    })
}

#[allow(clippy::too_many_arguments)] // mirrors the instruction operands
fn lower_pi(
    vd: VReg,
    vs2: VReg,
    row: RhoRow,
    vm: bool,
    fused_rho: bool,
    vl: usize,
    epr: usize,
    elenum: usize,
    words_len: usize,
) -> Option<Op> {
    if !vm {
        return None;
    }
    let states = vl.min(epr) / 5;
    let (first_row, row_count) = match row {
        RhoRow::Row(r) if r <= 4 => (r as usize, 1),
        RhoRow::Row(_) => return None,
        RhoRow::All => {
            // Both conditions trap in the interpreter before any write.
            if vl > 5 * epr || !epr.is_multiple_of(5) {
                return None;
            }
            (0, vl.div_ceil(epr))
        }
    };
    if vd.index() + 4 > 31 {
        return None; // interpreter traps before any write
    }
    // The destination span is the five-register column block; sources
    // span the contiguous register range the rows read. Every source
    // register sits outside `vd..=vd+4` (checked below), and both spans
    // are register-aligned, so they are word-disjoint and the executor
    // can split them once up front.
    let d = vd.index() * elenum;
    let d_len = 5 * elenum;
    let (s_first, s_count) = match row {
        RhoRow::Row(_) => (vs2.index(), 1),
        RhoRow::All => (vs2.index() + first_row, row_count),
    };
    let s = s_first * elenum;
    let s_len = s_count * elenum;
    let mut segs = Vec::with_capacity(5 * row_count);
    for r in first_row..first_row + row_count {
        let src = match row {
            RhoRow::Row(_) => vs2.index(),
            RhoRow::All => vs2.index() + r,
        };
        if src > 31 {
            return None;
        }
        // A source register inside the destination column span would
        // be overwritten by the split word loops; refuse.
        if src >= vd.index() && src <= vd.index() + 4 {
            return None;
        }
        let sbase = src * elenum;
        for xp in 0..5usize {
            let y = (2 * (5 + xp - r)) % 5;
            segs.push(PiSeg {
                dst: y * elenum + r,
                src: sbase - s + xp,
                rot: if fused_rho { RHO_OFFSETS[r][xp] } else { 0 },
            });
        }
    }
    if d + d_len > words_len || s + s_len > words_len {
        return None;
    }
    if states > 0 {
        for seg in &segs {
            if seg.dst + 5 * (states - 1) >= d_len || seg.src + 5 * (states - 1) >= s_len {
                return None;
            }
        }
    }
    Some(Op::Pi {
        d,
        d_len,
        s,
        s_len,
        segs: segs.into(),
        states,
    })
}

// ---------------------------------------------------------------------
// Execution helpers over the flat word storage. All aliasing below is
// compile-proven identical-or-disjoint, so `get_disjoint_mut` cannot
// fail and no snapshots are ever taken.
// ---------------------------------------------------------------------

const ALIAS_PROOF: &str = "compiled operands are identical or disjoint by construction";

#[inline]
fn bin_vv_with(
    w: &mut [u64],
    d: usize,
    a: usize,
    b: usize,
    len: usize,
    f: impl Fn(u64, u64) -> u64,
) {
    if d == a && d == b {
        for x in &mut w[d..d + len] {
            *x = f(*x, *x);
        }
    } else if d == a {
        let [dst, s1] = w
            .get_disjoint_mut([d..d + len, b..b + len])
            .expect(ALIAS_PROOF);
        for (x, &y) in dst.iter_mut().zip(s1.iter()) {
            *x = f(*x, y);
        }
    } else if d == b {
        let [dst, s2] = w
            .get_disjoint_mut([d..d + len, a..a + len])
            .expect(ALIAS_PROOF);
        for (x, &y) in dst.iter_mut().zip(s2.iter()) {
            *x = f(y, *x);
        }
    } else if a == b {
        let [dst, s] = w
            .get_disjoint_mut([d..d + len, a..a + len])
            .expect(ALIAS_PROOF);
        for (x, &y) in dst.iter_mut().zip(s.iter()) {
            *x = f(y, y);
        }
    } else {
        let [dst, s2, s1] = w
            .get_disjoint_mut([d..d + len, a..a + len, b..b + len])
            .expect(ALIAS_PROOF);
        for ((x, &y2), &y1) in dst.iter_mut().zip(s2.iter()).zip(s1.iter()) {
            *x = f(y2, y1);
        }
    }
}

#[inline]
fn bin_vs_with(w: &mut [u64], d: usize, a: usize, len: usize, y: u64, f: impl Fn(u64, u64) -> u64) {
    if d == a {
        for x in &mut w[d..d + len] {
            *x = f(*x, y);
        }
    } else {
        let [dst, src] = w
            .get_disjoint_mut([d..d + len, a..a + len])
            .expect(ALIAS_PROOF);
        for (x, &v) in dst.iter_mut().zip(src.iter()) {
            *x = f(v, y);
        }
    }
}

/// Executes a compiled `.vv` arithmetic op.
pub(crate) fn exec_bin_vv(w: &mut [u64], kind: BinKind, d: usize, a: usize, b: usize, len: usize) {
    match kind {
        BinKind::Add => bin_vv_with(w, d, a, b, len, |x, y| x.wrapping_add(y)),
        BinKind::Sub => bin_vv_with(w, d, a, b, len, |x, y| x.wrapping_sub(y)),
        BinKind::Rsub => bin_vv_with(w, d, a, b, len, |x, y| y.wrapping_sub(x)),
        BinKind::And => bin_vv_with(w, d, a, b, len, |x, y| x & y),
        BinKind::Or => bin_vv_with(w, d, a, b, len, |x, y| x | y),
        BinKind::Xor => bin_vv_with(w, d, a, b, len, |x, y| x ^ y),
        BinKind::Sll => bin_vv_with(w, d, a, b, len, |x, y| x.wrapping_shl((y & 63) as u32)),
        BinKind::Srl => bin_vv_with(w, d, a, b, len, |x, y| x.wrapping_shr((y & 63) as u32)),
        BinKind::Sra => bin_vv_with(w, d, a, b, len, |x, y| ((x as i64) >> (y & 63)) as u64),
        BinKind::Mv => bin_vv_with(w, d, a, b, len, |_, y| y),
    }
}

/// Executes a compiled `.vx`/`.vi` arithmetic op with a loop-invariant
/// second operand.
pub(crate) fn exec_bin_vs(w: &mut [u64], kind: BinKind, d: usize, a: usize, y: u64, len: usize) {
    match kind {
        BinKind::Add => bin_vs_with(w, d, a, len, y, |x, y| x.wrapping_add(y)),
        BinKind::Sub => bin_vs_with(w, d, a, len, y, |x, y| x.wrapping_sub(y)),
        BinKind::Rsub => bin_vs_with(w, d, a, len, y, |x, y| y.wrapping_sub(x)),
        BinKind::And => bin_vs_with(w, d, a, len, y, |x, y| x & y),
        BinKind::Or => bin_vs_with(w, d, a, len, y, |x, y| x | y),
        BinKind::Xor => bin_vs_with(w, d, a, len, y, |x, y| x ^ y),
        BinKind::Sll => bin_vs_with(w, d, a, len, y, |x, y| x.wrapping_shl((y & 63) as u32)),
        BinKind::Srl => bin_vs_with(w, d, a, len, y, |x, y| x.wrapping_shr((y & 63) as u32)),
        BinKind::Sra => bin_vs_with(w, d, a, len, y, |x, y| ((x as i64) >> (y & 63)) as u64),
        BinKind::Mv => bin_vs_with(w, d, a, len, y, |_, y| y),
    }
}

/// The registers one round leaves behind besides the state, for one
/// Keccak state: θ's three 5-lane temporaries and the 25-lane π output
/// and χ temporaries, plane-major like the state.
struct RoundTemps {
    c: [u64; 5],
    up: [u64; 5],
    rot: [u64; 5],
    b: [u64; 25],
    t1: [u64; 25],
    t2: [u64; 25],
}

/// One Keccak round on one state held plane-major (`a[5y + x]`), with
/// χ's scalar `y` (the stepper's `vxor.vx` operand) and the round
/// constant `rc`. Returns the temporaries the 23-instruction sequence
/// leaves in its registers; a caller that discards them pays nothing
/// for them once this is inlined.
#[inline(always)]
fn keccak_round(a: &mut [u64; 25], y: u64, rc: u64) -> RoundTemps {
    let par: [u64; 5] =
        std::array::from_fn(|x| a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20]);
    let up = [par[4], par[0], par[1], par[2], par[3]];
    let rot = [
        par[1].rotate_left(1),
        par[2].rotate_left(1),
        par[3].rotate_left(1),
        par[4].rotate_left(1),
        par[0].rotate_left(1),
    ];
    let c: [u64; 5] = std::array::from_fn(|x| up[x] ^ rot[x]);
    // ρ, then π: lane `x` of plane `r` moves to lane `r` of plane
    // `2(x − r) mod 5`, so plane `p`'s lane `r` comes from plane `r`,
    // lane `(r + 3p) mod 5` (3 is 2's inverse mod 5).
    let b: [u64; 25] = std::array::from_fn(|i| {
        let (p, r) = (i / 5, i % 5);
        let x = (r + 3 * p) % 5;
        (a[5 * r + x] ^ c[x]).rotate_left(RHO_OFFSETS[r][x])
    });
    let t2: [u64; 25] = std::array::from_fn(|i| b[i - i % 5 + CHI_NEXT2[i % 5]]);
    let t1: [u64; 25] = std::array::from_fn(|i| (b[i - i % 5 + CHI_NEXT[i % 5]] ^ y) & t2[i]);
    *a = std::array::from_fn(|i| b[i] ^ t1[i]);
    a[0] ^= rc;
    RoundTemps {
        c,
        up,
        rot,
        b,
        t1,
        t2,
    }
}

/// States one lane group of the resident round loop carries: the
/// service's `SN`, and the width `krv-native`'s calibration picks on an
/// AVX-512 host.
const GROUP: usize = 4;

/// Executes `trips` whole rounds of `r` (see [`RoundSpan`]), carrying
/// each state through every trip in host registers. Trip `i` XORs in
/// `RC[first + i·step]` (wrapping; the caller has checked every index).
///
/// Every trip but the last runs over groups of up to [`GROUP`] states
/// side by side ([`group_rounds`]); a group of fewer states is padded
/// with zero states. The last trip runs per state through
/// [`keccak_round`], which also yields its temporaries. Writes the
/// final state and the last trip's temporaries — the register file
/// after `trips` runs of the member ops, because every temporary is
/// written before it is read within a round.
pub(crate) fn exec_rounds(
    w: &mut [u64],
    r: &RoundSpan,
    y: u64,
    first: u32,
    step: u32,
    trips: usize,
) {
    debug_assert!(trips > 0, "a round span runs at least once");
    let n = r.n;
    if trips > 1 {
        for o in (0..n).step_by(5 * GROUP) {
            group_rounds(w, r, o..n.min(o + 5 * GROUP), y, first, step, trips - 1);
        }
    }
    let last = first.wrapping_add(step.wrapping_mul(trips as u32 - 1));
    for o in (0..n).step_by(5) {
        let mut a = [0u64; 25];
        for (p, plane) in a.chunks_exact_mut(5).enumerate() {
            plane.copy_from_slice(&w[r.planes + p * n + o..][..5]);
        }
        let t = keccak_round(&mut a, y, RC[last as usize]);
        for p in 0..5 {
            let lanes = 5 * p..5 * p + 5;
            w[r.planes + p * n + o..][..5].copy_from_slice(&a[lanes.clone()]);
            w[r.pi + p * n + o..][..5].copy_from_slice(&t.b[lanes.clone()]);
            w[r.t1 + p * n + o..][..5].copy_from_slice(&t.t1[lanes.clone()]);
            w[r.t2 + p * n + o..][..5].copy_from_slice(&t.t2[lanes]);
        }
        w[r.c + o..][..5].copy_from_slice(&t.c);
        w[r.up + o..][..5].copy_from_slice(&t.up);
        w[r.rot + o..][..5].copy_from_slice(&t.rot);
    }
}

/// Runs `rounds` trips of `r` over the states (at most [`GROUP`])
/// whose 5-blocks fill `words` of each plane, side by side in
/// structure-of-arrays form ([`krv_keccak::lanes::round`]), and writes
/// them back. Unused slots of the group hold zero states, whose results
/// are dropped. Kept out of line: inlined into [`exec_rounds`] it
/// un-inlines [`keccak_round`] and slows the one-state pass.
#[inline(never)]
fn group_rounds(
    w: &mut [u64],
    r: &RoundSpan,
    words: Range<usize>,
    y: u64,
    first: u32,
    step: u32,
    rounds: usize,
) {
    let n = r.n;
    let mut group: LaneGroup<GROUP> = [[0; GROUP]; 25];
    for p in 0..5 {
        let plane = &w[r.planes + p * n..][words.clone()];
        for (s, state) in plane.chunks_exact(5).enumerate() {
            for (x, &lane) in state.iter().enumerate() {
                group[5 * p + x][s] = lane;
            }
        }
    }
    let mut index = first;
    for _ in 0..rounds {
        lanes::round(&mut group, y, RC[index as usize]);
        index = index.wrapping_add(step);
    }
    for p in 0..5 {
        let plane = &mut w[r.planes + p * n..][words.clone()];
        for (s, state) in plane.chunks_exact_mut(5).enumerate() {
            for (x, lane) in state.iter_mut().enumerate() {
                *lane = group[5 * p + x][s];
            }
        }
    }
}

/// Executes a compiled modulo-5 slide. In-place execution is safe: each
/// 5-block's sources are read into a local array before its writes, and
/// the permutation never crosses blocks. The disjoint case pre-splits
/// the ranges once and walks fixed-size 5-chunks, which keeps the inner
/// permutation free of per-element bounds checks.
pub(crate) fn exec_slide(w: &mut [u64], d: usize, s: usize, blocks: usize, src_j: &[usize; 5]) {
    let n = 5 * blocks;
    if d == s {
        for i in 0..blocks {
            let sb = s + 5 * i;
            let tmp = [
                w[sb + src_j[0]],
                w[sb + src_j[1]],
                w[sb + src_j[2]],
                w[sb + src_j[3]],
                w[sb + src_j[4]],
            ];
            w[d + 5 * i..d + 5 * i + 5].copy_from_slice(&tmp);
        }
    } else {
        let [dst, src] = w.get_disjoint_mut([d..d + n, s..s + n]).expect(ALIAS_PROOF);
        for (dc, sc) in dst.chunks_exact_mut(5).zip(src.chunks_exact(5)) {
            let dc: &mut [u64; 5] = dc.try_into().expect("chunks_exact yields 5");
            let sc: &[u64; 5] = sc.try_into().expect("chunks_exact yields 5");
            *dc = [
                sc[src_j[0]],
                sc[src_j[1]],
                sc[src_j[2]],
                sc[src_j[3]],
                sc[src_j[4]],
            ];
        }
    }
}

/// Executes a compiled constant rotate (`vrotup`).
pub(crate) fn exec_rot(w: &mut [u64], d: usize, s: usize, len: usize, amount: u32) {
    if d == s {
        for x in &mut w[d..d + len] {
            *x = x.rotate_left(amount);
        }
    } else {
        let [dst, src] = w
            .get_disjoint_mut([d..d + len, s..s + len])
            .expect(ALIAS_PROOF);
        for (x, &y) in dst.iter_mut().zip(src.iter()) {
            *x = y.rotate_left(amount);
        }
    }
}

/// Executes a compiled ρ rotation with a precomputed offset table.
pub(crate) fn exec_rho(w: &mut [u64], d: usize, s: usize, rots: &[u32]) {
    if d == s {
        for (x, &rot) in w[d..d + rots.len()].iter_mut().zip(rots.iter()) {
            *x = x.rotate_left(rot);
        }
    } else {
        let [dst, src] = w
            .get_disjoint_mut([d..d + rots.len(), s..s + rots.len()])
            .expect(ALIAS_PROOF);
        for ((x, &y), &rot) in dst.iter_mut().zip(src.iter()).zip(rots.iter()) {
            *x = y.rotate_left(rot);
        }
    }
}

/// Executes a compiled π scatter. Sources are compile-proven disjoint
/// from the destination column span, so the two spans split once and
/// write order is free.
#[allow(clippy::too_many_arguments)] // mirrors the op's span fields
pub(crate) fn exec_pi(
    w: &mut [u64],
    d: usize,
    d_len: usize,
    s: usize,
    s_len: usize,
    segs: &[PiSeg],
    states: usize,
) {
    let [dst, src] = w
        .get_disjoint_mut([d..d + d_len, s..s + s_len])
        .expect(ALIAS_PROOF);
    for seg in segs {
        for st in 0..states {
            dst[seg.dst + 5 * st] = src[seg.src + 5 * st].rotate_left(seg.rot);
        }
    }
}

/// Executes the write phase of a compiled `viota` (the round constant
/// was already resolved — and its index validated — by the caller).
pub(crate) fn exec_iota(w: &mut [u64], d: usize, s: usize, len: usize, rc: u64) {
    if d == s {
        for x in w[d..d + len].iter_mut().step_by(5) {
            *x ^= rc;
        }
    } else {
        let [dst, src] = w
            .get_disjoint_mut([d..d + len, s..s + len])
            .expect(ALIAS_PROOF);
        dst.copy_from_slice(src);
        for x in dst.iter_mut().step_by(5) {
            *x ^= rc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingModel;
    use krv_isa::{Lmul, Sew, Vtype};

    fn ctx(vl: u32, elenum: u32, sew: Sew, lmul: Lmul) -> BlockCtx {
        let vtype = Vtype::new(sew, lmul);
        let epr = elenum * 8 / sew.bytes();
        BlockCtx {
            vl,
            vtype: vtype.zimm(),
            epr,
            sew_bits: sew.bits(),
        }
    }

    fn geometry(elenum: usize) -> Geometry {
        Geometry {
            elenum,
            words_len: 32 * elenum,
            elen64: true,
        }
    }

    fn program(instrs: &[Instruction]) -> DecodedProgram {
        DecodedProgram::compile(instrs, &TimingModel::paper())
    }

    const XREGS: [u32; 32] = [0; 32];

    #[test]
    fn compiled_cost_matches_the_member_sum() {
        let v = VReg::from_index;
        let instrs = [
            Instruction::addi(XReg::X5, XReg::X5, 1),
            Instruction::varith(VArithOp::Xor, v(8), v(8), VSource::Vector(v(16))),
            Instruction::VLoad {
                eew: Sew::E64,
                vd: v(1),
                rs1: XReg::X10,
                mode: MemMode::UnitStride,
                vm: true,
            },
        ];
        let prog = program(&instrs);
        let ctx = ctx(20, 20, Sew::E64, Lmul::M1);
        let compiled = compile_region(&prog, 0, ctx, geometry(20), &XREGS).expect("compiles");
        let model = TimingModel::paper();
        let member_sum: u64 = instrs.iter().map(|i| model.cost(i, ctx.timing())).sum();
        assert_eq!(
            compiled.total_cycles, member_sum,
            "ledger must reproduce the stepped member costs"
        );
        assert_eq!(compiled.total_vector, 2);
        assert_eq!(compiled.len, 3);
        assert_eq!(compiled.ledger[0].prefix_cycles, 0);
        assert_eq!(compiled.ledger[1].prefix_cycles, 1, "after the addi");
        assert_eq!(compiled.worst_cost(), compiled.total_cycles);
    }

    #[test]
    fn masked_and_mask_producing_ops_truncate_the_region() {
        let v = VReg::from_index;
        let masked = program(&[
            Instruction::addi(XReg::X5, XReg::X5, 1),
            Instruction::VArith {
                op: VArithOp::Xor,
                vd: v(1),
                vs2: v(2),
                src: VSource::Vector(v(3)),
                vm: false,
            },
        ]);
        let ctx = ctx(10, 10, Sew::E64, Lmul::M1);
        let block = compile_region(&masked, 0, ctx, geometry(10), &XREGS).expect("prefix compiles");
        assert_eq!(block.len, 1, "region ends before the masked op");
        let mask_op = program(&[
            Instruction::varith(VArithOp::Mseq, v(0), v(2), VSource::Imm(5)),
            Instruction::addi(XReg::X5, XReg::X5, 1),
        ]);
        assert!(
            compile_region(&mask_op, 0, ctx, geometry(10), &XREGS).is_none(),
            "a region whose first op is unlowerable is refused"
        );
    }

    #[test]
    fn partial_group_overlap_is_refused() {
        let v = VReg::from_index;
        // Spanning 12 lanes from V0 and V1 on an elenum=10 file overlaps
        // partially — the stepper reads before writing; the compiler
        // refuses.
        let prog = program(&[Instruction::varith(
            VArithOp::Add,
            v(0),
            v(0),
            VSource::Vector(v(1)),
        )]);
        let ctx = ctx(12, 10, Sew::E64, Lmul::M8);
        assert!(compile_region(&prog, 0, ctx, geometry(10), &XREGS).is_none());
    }

    #[test]
    fn sub_word_sew_refuses_vector_but_not_scalar_regions() {
        let v = VReg::from_index;
        let vec = program(&[Instruction::varith(
            VArithOp::Add,
            v(1),
            v(2),
            VSource::Vector(v(3)),
        )]);
        let c32 = ctx(10, 10, Sew::E32, Lmul::M1);
        assert!(compile_region(&vec, 0, c32, geometry(10), &XREGS).is_none());
        let scalar = program(&[
            Instruction::addi(XReg::X5, XReg::X5, 1),
            Instruction::addi(XReg::X6, XReg::X5, 2),
        ]);
        let block = compile_region(&scalar, 0, c32, geometry(10), &XREGS).expect("compiles");
        assert_eq!(block.len, 2);
    }

    #[test]
    fn regions_span_vsetvli_and_terminate_at_branches() {
        let v = VReg::from_index;
        let mut xregs = XREGS;
        xregs[9] = 7; // s1 = x9: AVL for the vsetvli
        let prog = program(&[
            Instruction::varith(VArithOp::Xor, v(1), v(2), VSource::Vector(v(3))),
            Instruction::Vsetvli {
                rd: XReg::X0,
                rs1: XReg::X9,
                vtype: Vtype::new(Sew::E64, Lmul::M1),
            },
            Instruction::varith(VArithOp::Add, v(4), v(5), VSource::Vector(v(6))),
            Instruction::Branch {
                kind: krv_isa::BranchKind::Bne,
                rs1: XReg::X9,
                rs2: XReg::X0,
                offset: -12,
            },
            Instruction::addi(XReg::X5, XReg::X5, 1),
        ]);
        let entry = ctx(10, 10, Sew::E64, Lmul::M1);
        let block = compile_region(&prog, 0, entry, geometry(10), &xregs).expect("compiles");
        assert_eq!(block.len, 4, "vsetvli and branch stay inside the region");
        let Op::Vsetvli {
            expected_vl,
            expected_vtype,
            ..
        } = block.ops[1]
        else {
            panic!("op 1 should be the guarded vsetvli");
        };
        assert_eq!(expected_vl, 7, "granted VL predicted from x9");
        assert_eq!(expected_vtype, Vtype::new(Sew::E64, Lmul::M1).zimm());
        let Op::Branch {
            target,
            taken_cost,
            not_cost,
            ..
        } = block.ops[3]
        else {
            panic!("op 3 should be the terminal branch");
        };
        assert_eq!(target, 0, "pc 12 - 12 lands on the region start");
        assert!(taken_cost >= not_cost);
        assert_eq!(block.branch_costs, Some((taken_cost, not_cost)));
        assert_eq!(block.worst_cost(), block.total_cycles + taken_cost);
        // Ops after the vsetvli are lowered under the new VL.
        let Op::BinVV { len, .. } = block.ops[2] else {
            panic!("op 2 should be the vadd");
        };
        assert_eq!(len, 7, "lowered under the predicted configuration");
    }

    #[test]
    fn vsetvli_that_would_trap_truncates_the_region() {
        let v = VReg::from_index;
        let prog = program(&[
            Instruction::varith(VArithOp::Xor, v(1), v(2), VSource::Vector(v(3))),
            Instruction::Vsetvli {
                rd: XReg::X0,
                rs1: XReg::X9,
                vtype: Vtype::new(Sew::E64, Lmul::M1),
            },
        ]);
        let entry = ctx(10, 10, Sew::E64, Lmul::M1);
        // ELEN = 32 hardware: SEW = 64 makes `set_config` trap.
        let g32 = Geometry {
            elenum: 10,
            words_len: 160,
            elen64: false,
        };
        let block = compile_region(&prog, 0, ctx(10, 10, Sew::E32, Lmul::M1), g32, &XREGS);
        // First op refuses on ELEN=32 (no 64-bit word path), so the
        // region is refused outright there; use a scalar prefix instead.
        assert!(block.is_none());
        let scalar = program(&[
            Instruction::addi(XReg::X5, XReg::X5, 1),
            Instruction::Vsetvli {
                rd: XReg::X0,
                rs1: XReg::X9,
                vtype: Vtype::new(Sew::E64, Lmul::M1),
            },
        ]);
        let block = compile_region(&scalar, 0, ctx(10, 10, Sew::E32, Lmul::M1), g32, &XREGS)
            .expect("prefix");
        assert_eq!(block.len, 1, "region ends before the trapping vsetvli");
        let _ = entry;
    }

    #[test]
    fn pool_memoizes_per_configuration() {
        let v = VReg::from_index;
        let prog = Arc::new(program(&[
            Instruction::addi(XReg::X5, XReg::X5, 1),
            Instruction::varith(VArithOp::Xor, v(1), v(2), VSource::Vector(v(3))),
        ]));
        let compiled = CompiledProgram::new(Arc::clone(&prog));
        let g = geometry(10);
        let a = ctx(10, 10, Sew::E64, Lmul::M1);
        let b = ctx(5, 10, Sew::E64, Lmul::M1);
        let first = compiled.block_for(0, a, g, &XREGS).expect("compiles");
        let again = compiled.block_for(0, a, g, &XREGS).expect("cached");
        assert!(Arc::ptr_eq(&first, &again), "same configuration is shared");
        let other = compiled.block_for(0, b, g, &XREGS).expect("compiles");
        assert!(!Arc::ptr_eq(&first, &other), "configurations are distinct");
        assert_eq!(compiled.compiled_blocks(), 2);
        assert_eq!(compiled.refusals(), 0);
    }

    // -----------------------------------------------------------------
    // Round matching: the verbatim round must fuse with the expected
    // captures, and near misses must not.
    // -----------------------------------------------------------------

    /// The E64 LMUL=8 round loop exactly as the kernel emits it: the
    /// 23-instruction round, then `loopctl`.
    const ROUND_LOOP_SOURCE: &str = "permutation:\n\
                                     vxor.vv v5, v3, v4\n\
                                     vxor.vv v6, v1, v2\n\
                                     vxor.vv v7, v0, v6\n\
                                     vxor.vv v5, v5, v7\n\
                                     vslideupm.vi v6, v5, 1\n\
                                     vslidedownm.vi v7, v5, 1\n\
                                     vrotup.vi v7, v7, 1\n\
                                     vxor.vv v5, v6, v7\n\
                                     vxor.vv v0, v0, v5\n\
                                     vxor.vv v1, v1, v5\n\
                                     vxor.vv v2, v2, v5\n\
                                     vxor.vv v3, v3, v5\n\
                                     vxor.vv v4, v4, v5\n\
                                     vsetvli x0, s5, e64, m8, tu, mu\n\
                                     v64rho.vi v0, v0, -1\n\
                                     vpi.vi v8, v0, -1\n\
                                     vslidedownm.vi v16, v8, 1\n\
                                     vxor.vx v16, v16, s2\n\
                                     vslidedownm.vi v24, v8, 2\n\
                                     vand.vv v16, v16, v24\n\
                                     vxor.vv v0, v8, v16\n\
                                     vsetvli x0, s1, e64, m1, tu, mu\n\
                                     viota.vx v0, v0, s3\n\
                                     addi s3, s3, 1\n\
                                     blt s3, s4, permutation";

    /// Scalar registers as the kernel presets them at EleNum = 10:
    /// `s1` = 10 (m1 AVL), `s2` = -1 (χ), `s5` = 50 (m8 AVL).
    fn kernel_xregs() -> [u32; 32] {
        let mut xregs = XREGS;
        xregs[9] = 10;
        xregs[18] = u32::MAX;
        xregs[21] = 50;
        xregs
    }

    /// The m1 configuration the kernel's `vsetvli x0, s1, e64, m1, tu,
    /// mu` grants at EleNum = 10: a round loop's entry configuration.
    fn kernel_ctx() -> BlockCtx {
        let vtype = Vtype::new(Sew::E64, Lmul::M1)
            .tail_undisturbed()
            .mask_undisturbed();
        BlockCtx {
            vtype: vtype.zimm(),
            ..ctx(10, 10, Sew::E64, Lmul::M1)
        }
    }

    fn compile_round_loop(source: &str, xregs: &[u32; 32]) -> CompiledBlock {
        let prog = program(krv_asm::assemble(source).expect("assembles").instructions());
        compile_region(&prog, 0, kernel_ctx(), geometry(10), xregs).expect("compiles")
    }

    #[test]
    fn round_region_fuses_with_expected_captures() {
        let block = compile_round_loop(ROUND_LOOP_SOURCE, &kernel_xregs());
        assert_eq!(block.len, ROUND_LEN + 2);
        let expected = RoundSpan {
            planes: 0,
            n: 10,
            c: 50,
            up: 60,
            rot: 70,
            pi: 80,
            t1: 160,
            t2: 240,
            chi_rs1: 18,
            iota_rs1: 19,
            wide: VsetGuard {
                avl: XReg::X21,
                vtype: Vtype::new(Sew::E64, Lmul::M8)
                    .tail_undisturbed()
                    .mask_undisturbed(),
                vl: 50,
            },
            narrow: VsetGuard {
                avl: XReg::X9,
                vtype: Vtype::new(Sew::E64, Lmul::M1)
                    .tail_undisturbed()
                    .mask_undisturbed(),
                vl: 10,
            },
        };
        assert_eq!(*block.rounds, [(0, expected)]);
        assert_eq!(
            block.resident,
            Some(ResidentLoop {
                round: expected,
                step: 1,
                kind: BranchKind::Blt,
                rs1: 19,
                rs2: 20,
            })
        );
    }

    #[test]
    fn near_miss_rounds_do_not_fuse() {
        // Each near miss still compiles through to the back-edge, but
        // runs as its member ops: no round span, no resident loop.
        let edit = |from: &str, to: &str| ROUND_LOOP_SOURCE.replace(from, to);
        let mut short = kernel_xregs();
        short[21] = 45;
        let near_misses = [
            (
                "a miswired D combine",
                edit("vxor.vv v5, v6, v7", "vxor.vv v5, v5, v7"),
                kernel_xregs(),
            ),
            (
                "a stray op inside θ",
                edit(
                    "vrotup.vi v7, v7, 1",
                    "vrotup.vi v7, v7, 1\nvor.vv v6, v6, v6",
                ),
                kernel_xregs(),
            ),
            (
                "a stray op between ρ and π",
                edit(
                    "vpi.vi v8, v0, -1",
                    "vxor.vv v24, v24, v24\nvpi.vi v8, v0, -1",
                ),
                kernel_xregs(),
            ),
            (
                "θ sliding by 3",
                edit("vslideupm.vi v6, v5, 1", "vslideupm.vi v6, v5, 3"),
                kernel_xregs(),
            ),
            (
                "θ rotating by 17",
                edit("vrotup.vi v7, v7, 1", "vrotup.vi v7, v7, 17"),
                kernel_xregs(),
            ),
            (
                "a single-row vpi",
                edit("vpi.vi v8, v0, -1", "vpi.vi v8, v0, 0"),
                kernel_xregs(),
            ),
            (
                "vrhopi in place of vpi",
                edit("vpi.vi v8, v0, -1", "vrhopi.vi v8, v0, -1"),
                kernel_xregs(),
            ),
            (
                "χ writing its own source group",
                edit("vxor.vv v0, v8, v16", "vxor.vv v8, v8, v16"),
                kernel_xregs(),
            ),
            ("a short m8 grant", ROUND_LOOP_SOURCE.to_string(), short),
        ];
        for (case, source, xregs) in near_misses {
            let block = compile_round_loop(&source, &xregs);
            assert!(block.branch_costs.is_some(), "{case}: region truncated");
            assert!(block.rounds.is_empty(), "{case}: fused");
            assert_eq!(block.resident, None, "{case}: resident");
        }
        // A loop counter other than ι's index: the round fuses, the loop
        // is not resident.
        let other_counter = ROUND_LOOP_SOURCE.replace("addi s3, s3, 1", "addi s6, s6, 1");
        let block = compile_round_loop(&other_counter, &kernel_xregs());
        assert_eq!(block.rounds.len(), 1);
        assert_eq!(block.rounds[0].0, 0);
        assert_eq!(block.resident, None);
    }

    #[test]
    fn a_back_edge_into_the_region_cuts_it_at_the_loop_head() {
        // Two setup ops, then a loop whose head is the third op: the
        // entry region ends at the head with no branch, and the loop
        // body compiles from its own head through the back-edge.
        let prog = program(&[
            Instruction::addi(XReg::X5, XReg::X0, 0),
            Instruction::addi(XReg::X6, XReg::X0, 3),
            Instruction::addi(XReg::X5, XReg::X5, 1),
            Instruction::Branch {
                kind: BranchKind::Blt,
                rs1: XReg::X5,
                rs2: XReg::X6,
                offset: -4,
            },
            Instruction::addi(XReg::X7, XReg::X5, 0),
        ]);
        let c = ctx(10, 10, Sew::E64, Lmul::M1);
        let entry = compile_region(&prog, 0, c, geometry(10), &XREGS).expect("compiles");
        assert_eq!(entry.len, 2, "the region ends at the loop head");
        assert_eq!(entry.ledger.len(), 2);
        assert_eq!(entry.branch_costs, None, "the back-edge is not in it");
        assert_eq!(entry.total_cycles, 2, "the two addi");
        assert_eq!(entry.worst_cost(), entry.total_cycles);
        let body = compile_region(&prog, 2, c, geometry(10), &XREGS).expect("compiles");
        assert_eq!(body.len, 2, "the loop body and its back-edge");
        assert!(matches!(body.ops[1], Op::Branch { target: 8, .. }));
    }

    /// The E64 LMUL=8 kernel at EleNum = 10 as the generator emits it:
    /// the prologue, the round loop and the stores.
    fn kernel_source() -> String {
        format!(
            "li s1, 10\nli s5, 50\nli s2, -1\nli s3, 0\nli s4, 24\n\
             vsetvli x0, s1, e64, m1, tu, mu\n\
             vle64.v v0, (a0)\nvle64.v v1, (a1)\nvle64.v v2, (a2)\n\
             vle64.v v3, (a3)\nvle64.v v4, (a4)\n\
             {ROUND_LOOP_SOURCE}\n\
             vse64.v v0, (a0)\nvse64.v v1, (a1)\nvse64.v v2, (a2)\n\
             vse64.v v3, (a3)\nvse64.v v4, (a4)\n\
             ecall"
        )
    }

    #[test]
    fn the_kernel_runs_its_24_rounds_from_the_loop_head_in_one_call() {
        let assembled = krv_asm::assemble(&kernel_source()).expect("assembles");
        let head = assembled.symbol("permutation").expect("loop label");
        let prog = program(assembled.instructions());
        let (entry_ctx, start) = (kernel_ctx(), head as usize / 4);
        // The entry region is `li`, `vsetvli` and `vle64` only: no round
        // span and no branch.
        let entry =
            compile_region(&prog, 0, entry_ctx, geometry(10), &kernel_xregs()).expect("compiles");
        assert_eq!(entry.len, start);
        assert!(entry.rounds.is_empty());
        assert_eq!(entry.branch_costs, None);
        assert_eq!(entry.resident, None);
        let body = compile_region(&prog, start, entry_ctx, geometry(10), &kernel_xregs())
            .expect("compiles");
        assert!(
            body.resident.is_some(),
            "the loop head's region is resident"
        );
        // On a processor, the call entered at the head with `s3 = 0` runs
        // all 24 trips. As on an engine's warm pass, the AVL registers
        // already hold what the prologue loads into them, so the
        // prologue's `vsetvli` grants what its region was compiled for.
        let mut cpu = crate::Processor::new(crate::config::ProcessorConfig::elen64(10));
        cpu.load_program(assembled.instructions());
        for (i, reg) in [XReg::X11, XReg::X12, XReg::X13, XReg::X14]
            .into_iter()
            .enumerate()
        {
            cpu.set_xreg(reg, 80 * (i as u32 + 1));
        }
        cpu.set_xreg(XReg::X9, 10);
        cpu.set_xreg(XReg::X21, 50);
        cpu.run_until_pc(head, 100_000)
            .expect("reaches the loop head");
        assert_eq!(cpu.compiled_dispatches(), 1, "the prologue is one call");
        assert_eq!(cpu.xreg(XReg::X19), 0);
        let at_head = cpu.cycles();
        let done = head + 4 * body.len as u32;
        cpu.run_until_pc(done, 100_000).expect("leaves the loop");
        assert_eq!(cpu.compiled_dispatches(), 2, "one call for the loop");
        assert_eq!(cpu.xreg(XReg::X19), 24, "24 trips");
        let (taken, not) = body.branch_costs.expect("a back-edge");
        assert_eq!(
            cpu.cycles() - at_head,
            24 * body.total_cycles + 23 * taken + not
        );
    }

    #[test]
    fn fused_execution_matches_member_ops() {
        // The round's single-pass executor, run for 1–3 trips at once,
        // must leave the register file bit-identical to the member ops
        // run as many times with ι's index stepping 7, 8, 9.
        fn fill(len: usize) -> Vec<u64> {
            let mut x = 0x243F_6A88_85A3_08D3u64;
            (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    x
                })
                .collect()
        }
        let mut xregs = kernel_xregs();
        xregs[19] = 7; // s3: ι's round index
        let block = compile_round_loop(ROUND_LOOP_SOURCE, &xregs);
        let &[(start, round)] = &*block.rounds else {
            panic!("expected one round span, got {:?}", block.rounds);
        };
        let y = xregs[round.chi_rs1] as i32 as i64 as u64;
        for trips in 1..=3 {
            let mut by_members = fill(32 * 10);
            for trip in 0..trips {
                let mut x = xregs;
                x[19] += trip as u32;
                run_members(&block.ops[start..start + ROUND_LEN], &mut by_members, x);
            }
            let mut by_fusion = fill(32 * 10);
            exec_rounds(&mut by_fusion, &round, y, xregs[19], 1, trips);
            assert_eq!(by_members, by_fusion, "{trips} trip(s)");
        }
    }

    /// Runs member ops over a bare register file (a `vsetvli` only
    /// changes the configuration, which the ops already encode).
    fn run_members(ops: &[Op], w: &mut [u64], xregs: [u32; 32]) {
        for op in ops {
            match *op {
                Op::Vsetvli { .. } => {}
                Op::RhoTable { d, s, ref rots } => exec_rho(w, d, s, rots),
                Op::Pi {
                    d,
                    d_len,
                    s,
                    s_len,
                    ref segs,
                    states,
                } => exec_pi(w, d, d_len, s, s_len, segs, states),
                Op::Iota { d, s, len, rs1 } => exec_iota(w, d, s, len, RC[xregs[rs1] as usize]),
                Op::BinVV { kind, d, a, b, len } => exec_bin_vv(w, kind, d, a, b, len),
                Op::BinVX {
                    kind,
                    d,
                    a,
                    rs1,
                    len,
                } => exec_bin_vs(w, kind, d, a, xregs[rs1] as i32 as i64 as u64, len),
                Op::SlideMod5 {
                    d,
                    s,
                    blocks,
                    ref src_j,
                } => exec_slide(w, d, s, blocks, src_j),
                Op::RotConst { d, s, len, amount } => exec_rot(w, d, s, len, amount),
                ref other => panic!("unexpected member op {other:?}"),
            }
        }
    }
}
