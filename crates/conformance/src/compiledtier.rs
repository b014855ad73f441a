//! Compiled-tier differential oracle: random programs run through both
//! execution paths of the same simulator — the compiled tier
//! ([`Processor::set_compiled`]) and the per-instruction stepper — and
//! the two must agree on the full machine state: halt/trap outcome,
//! cycle count, retired counters, PC, every scalar and vector register,
//! and all of data memory.
//!
//! The compiled tier lowers straight-line regions to specialized native
//! transfer functions, one op per instruction, and overlays one fused
//! span, the whole E64 LMUL=8 round, whose loop it runs as one resident
//! call (DESIGN.md §16); its timing-exactness argument leans on
//! trap-time prefix retirement, `vsetvli` guard exits, budget-limited
//! early exits and the resident loop's replayed admission. Twelve
//! program families probe those edges: scalar straight lines and loops,
//! vector kernels, `vsetvli` reconfiguration, mid-block traps and tight
//! cycle budgets, plus six families the random generators cannot
//! produce:
//!
//! * the verbatim θ/χ sequences of the real kernels, sometimes
//!   perturbed, which run as their member ops;
//! * the verbatim E64 round loop over random registers with counter
//!   starts that make ι trap, perturbed AVL registers and near-miss
//!   rounds;
//! * the verbatim E32 LMUL=8 round loop on an ELEN = 32 processor, with
//!   counter starts that make either `viota` trap. The tier refuses
//!   SEW = 32 vector ops, so this covers the hand-offs between compiled
//!   scalar stretches and stepped vector work;
//!
//! and each of the three again under budgets that expire inside a span,
//! between the trips of a resident loop, or between two stepped
//! instructions.
//!
//! [`Processor::set_compiled`]: krv_vproc::Processor::set_compiled

use krv_core::programs::kernel_e32_lmul8;
use krv_isa::{VReg, XReg};
use krv_testkit::{CaseReport, Rng};
use krv_vproc::{Processor, ProcessorConfig, RunSummary, Trap};

/// Cycle budget for programs that are expected to halt on their own.
const MAX_CYCLES: u64 = 100_000;

/// Bytes of data memory pre-staged with random contents so loads see
/// interesting values. Programs keep their addresses inside this window
/// (except the deliberate-fault scenario).
const STAGE_BYTES: usize = 2048;

/// One randomly generated differential case: a program, the memory
/// image it starts from, and the cycle budget it runs under.
struct ProgramCase {
    /// The processor both paths run on: its ELEN and EleNum.
    config: ProcessorConfig,
    /// Assembly source (must assemble; a rejection is itself a failure).
    source: String,
    /// Initial data-memory image, staged identically into every path.
    image: Vec<u8>,
    /// Cycle budget; small values deliberately expire mid-run.
    max_cycles: u64,
    /// Initial vector register file, as bytes (`v0` first); empty
    /// leaves every register zero.
    vregs: Vec<u8>,
}

/// The outcome of one compiled-tier scenario.
#[derive(Debug, Clone)]
pub struct CompiledTierOutcome {
    /// Program-shape scenario under test.
    pub scenario: &'static str,
    /// Random cases executed.
    pub cases: usize,
    /// Divergences between the compiled tier and the stepper.
    pub failures: Vec<CaseReport>,
}

impl CompiledTierOutcome {
    /// Whether both paths agreed on every case.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One program-family generator: a seeded RNG in, a runnable case out.
type ProgramGen = fn(&mut Rng) -> ProgramCase;

/// The program shapes the differential covers, as data: six random
/// families, then six built from the verbatim Keccak kernels.
const PROGRAM_FAMILIES: [(&str, ProgramGen); 12] = [
    ("scalar straight-line", gen_scalar_straight_line),
    ("scalar loop + memory", gen_scalar_loop),
    ("vector kernel (e64/m1)", gen_vector_m1),
    ("vsetvli reconfiguration (m1/m8)", gen_reconfiguration),
    ("mid-block trap", gen_mid_block_trap),
    ("tight cycle budget", gen_cycle_budget),
    ("keccak theta/chi idiom blocks (m1+m8)", gen_keccak_idioms),
    ("budget expiring inside idiom blocks", gen_idiom_budget),
    ("keccak whole-round loop (e64/m8)", gen_round_loop),
    ("budget expiring inside the round loop", gen_round_budget),
    ("keccak whole-round loop (e32/m8)", gen_e32_round_loop),
    (
        "budget expiring inside the e32 round loop",
        gen_e32_round_budget,
    ),
];

/// Runs every scenario for `cases_per_scenario` random programs each.
/// Seeds are split per (scenario, case), offset away from the other
/// layers' splits, so any failure reproduces in isolation.
pub fn run_compiledtier(cases_per_scenario: usize, seed: u64) -> Vec<CompiledTierOutcome> {
    PROGRAM_FAMILIES
        .iter()
        .enumerate()
        .map(|(index, (scenario, generate))| {
            let mut failures = Vec::new();
            for case in 0..cases_per_scenario {
                let case_seed = seed
                    ^ ((0x40 + index as u64) << 48)
                    ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                if let Err(detail) = diff_compiled(&generate(&mut Rng::new(case_seed))) {
                    failures.push(CaseReport::new(
                        format!("compiledtier/{scenario}"),
                        case_seed,
                        detail,
                    ));
                }
            }
            CompiledTierOutcome {
                scenario,
                cases: cases_per_scenario,
                failures,
            }
        })
        .collect()
}

/// Runs `case` on the compiled tier and on the stepper and reports the
/// first observable divergence.
fn diff_compiled(case: &ProgramCase) -> Result<(), String> {
    let (compiled, compiled_result) = run_case(case, true)?;
    let (stepped, stepped_result) = run_case(case, false)?;
    if compiled_result != stepped_result {
        return Err(format!(
            "outcome diverged: compiled {compiled_result:?}, reference {stepped_result:?}"
        ));
    }
    compare_machines(&compiled, &stepped)
}

// ---------------------------------------------------------------------
// Harness: run the same program compiled and stepped, compare everything.
// ---------------------------------------------------------------------

/// Compares every architectural observable of the compiled and the
/// stepped processor after the same program: cycle and retired
/// counters, PC, scalar registers, `vl`, vector registers, and all of
/// data memory.
fn compare_machines(got: &Processor, reference: &Processor) -> Result<(), String> {
    if got.cycles() != reference.cycles() {
        return Err(format!(
            "cycle count diverged: compiled {}, reference {}",
            got.cycles(),
            reference.cycles()
        ));
    }
    if got.retired() != reference.retired() {
        return Err(format!(
            "retired count diverged: compiled {}, reference {}",
            got.retired(),
            reference.retired()
        ));
    }
    if got.retired_vector() != reference.retired_vector() {
        return Err(format!(
            "vector retired count diverged: compiled {}, reference {}",
            got.retired_vector(),
            reference.retired_vector()
        ));
    }
    if got.pc() != reference.pc() {
        return Err(format!(
            "final PC diverged: compiled {:#x}, reference {:#x}",
            got.pc(),
            reference.pc()
        ));
    }
    for index in 0..32 {
        let reg = XReg::from_index(index);
        if got.xreg(reg) != reference.xreg(reg) {
            return Err(format!(
                "x{index} diverged: compiled {:#010x}, reference {:#010x}",
                got.xreg(reg),
                reference.xreg(reg)
            ));
        }
    }
    if got.vector_unit().vl() != reference.vector_unit().vl() {
        return Err(format!(
            "vl diverged: compiled {}, reference {}",
            got.vector_unit().vl(),
            reference.vector_unit().vl()
        ));
    }
    for index in 0..32 {
        let reg = VReg::from_index(index);
        if got.vector_unit().register_bytes(reg) != reference.vector_unit().register_bytes(reg) {
            return Err(format!(
                "v{index} contents diverged (compiled vs reference)"
            ));
        }
    }
    let len = got.dmem().len();
    let got_mem = got.dmem().read_bytes(0, len).expect("dmem read-back");
    let ref_mem = reference.dmem().read_bytes(0, len).expect("dmem read-back");
    if let Some(addr) = got_mem.iter().zip(&ref_mem).position(|(a, b)| a != b) {
        return Err(format!(
            "dmem diverged at {addr:#x}: compiled {:#04x}, reference {:#04x}",
            got_mem[addr], ref_mem[addr]
        ));
    }
    Ok(())
}

/// Assembles a case, stages the same memory image into a fresh
/// processor, and runs it on the compiled tier or on the stepper.
fn run_case(
    case: &ProgramCase,
    compiled: bool,
) -> Result<(Processor, Result<RunSummary, Trap>), String> {
    let program = krv_asm::assemble(&case.source).map_err(|e| {
        format!(
            "assembler rejected generated program: {e}\n---\n{}",
            case.source
        )
    })?;
    let mut processor = Processor::new(case.config.clone());
    processor.set_compiled(compiled);
    processor
        .dmem_mut()
        .write_bytes(0, &case.image)
        .expect("staging inside dmem");
    let reg_bytes = processor.vector_unit().reg_bytes();
    for (index, bytes) in case.vregs.chunks_exact(reg_bytes).enumerate() {
        processor
            .vector_unit_mut()
            .set_register_bytes(VReg::from_index(index), bytes);
    }
    processor.load_program(program.instructions());
    let outcome = processor.run(case.max_cycles);
    Ok((processor, outcome))
}

// ---------------------------------------------------------------------
// Random program generators.
// ---------------------------------------------------------------------

/// Scratch registers the generators hand out (never `t0`/`t1`, which
/// loop scenarios reserve for counters).
const SCALAR_REGS: [&str; 8] = ["a0", "a1", "a2", "a3", "a4", "a5", "t2", "s2"];

/// Three-operand scalar ALU mnemonics the assembler accepts.
const SCALAR_OPS: [&str; 10] = [
    "add", "sub", "xor", "and", "or", "sll", "srl", "slt", "sltu", "mul",
];

fn reg(rng: &mut Rng) -> &'static str {
    SCALAR_REGS[rng.below(SCALAR_REGS.len())]
}

/// One random scalar instruction line (ALU, immediate, or CSR read —
/// CSR reads are the interesting one: they observe the cycle/instret
/// counters mid-block, where a buggy fast path would show a lump sum).
fn scalar_line(rng: &mut Rng, out: &mut String) {
    match rng.below(8) {
        0 => {
            let imm = rng.below(4096) as i64 - 2048;
            out.push_str(&format!("addi {}, {}, {imm}\n", reg(rng), reg(rng)));
        }
        1 => out.push_str(&format!("csrr {}, cycle\n", reg(rng))),
        2 => out.push_str(&format!("csrr {}, instret\n", reg(rng))),
        3 => {
            let shift = rng.below(32);
            out.push_str(&format!("slli {}, {}, {shift}\n", reg(rng), reg(rng)));
        }
        _ => {
            let op = SCALAR_OPS[rng.below(SCALAR_OPS.len())];
            out.push_str(&format!("{op} {}, {}, {}\n", reg(rng), reg(rng), reg(rng)));
        }
    }
}

/// Seeds every scratch register with a random 32-bit value.
fn seed_regs(rng: &mut Rng, out: &mut String) {
    for name in SCALAR_REGS {
        out.push_str(&format!("li {name}, {}\n", rng.next_u32() as i32));
    }
}

/// A word-aligned address inside the staged window, as a store offset.
fn aligned_offset(rng: &mut Rng) -> usize {
    rng.below(STAGE_BYTES / 4) * 4
}

fn gen_scalar_straight_line(rng: &mut Rng) -> ProgramCase {
    let image = rng.bytes(STAGE_BYTES);
    let mut source = String::new();
    seed_regs(rng, &mut source);
    for _ in 0..8 + rng.below(17) {
        if rng.below(5) == 0 {
            let offset = aligned_offset(rng);
            if rng.below(2) == 0 {
                source.push_str(&format!("sw {}, {offset}(x0)\n", reg(rng)));
            } else {
                source.push_str(&format!("lw {}, {offset}(x0)\n", reg(rng)));
            }
        } else {
            scalar_line(rng, &mut source);
        }
    }
    source.push_str("ecall\n");
    ProgramCase {
        config: ProcessorConfig::elen64(10),
        source,
        image,
        max_cycles: MAX_CYCLES,
        vregs: Vec::new(),
    }
}

fn gen_scalar_loop(rng: &mut Rng) -> ProgramCase {
    let image = rng.bytes(STAGE_BYTES);
    let iterations = 1 + rng.below(8);
    let mut source = String::new();
    seed_regs(rng, &mut source);
    source.push_str(&format!("li t0, 0\nli t1, {iterations}\nloop:\n"));
    for _ in 0..2 + rng.below(6) {
        scalar_line(rng, &mut source);
    }
    // A store/load pair keeps memory traffic inside the loop body, so
    // the back-edge repeatedly re-enters a block with side effects.
    let offset = aligned_offset(rng);
    source.push_str(&format!("sw {}, {offset}(x0)\n", reg(rng)));
    source.push_str(&format!("lw {}, {offset}(x0)\n", reg(rng)));
    source.push_str("addi t0, t0, 1\nblt t0, t1, loop\necall\n");
    ProgramCase {
        config: ProcessorConfig::elen64(10),
        source,
        image,
        max_cycles: MAX_CYCLES,
        vregs: Vec::new(),
    }
}

/// One random vector instruction over registers `v1..=v6` (e64, m1).
/// Mixes standard RVV arithmetic with the custom Keccak ops so compiled
/// regions contain the exact instruction mix of the real kernels.
fn vector_line_m1(rng: &mut Rng, out: &mut String) {
    let vd = 1 + rng.below(6);
    let vs2 = 1 + rng.below(6);
    let vs1 = 1 + rng.below(6);
    match rng.below(10) {
        0 => out.push_str(&format!("vadd.vi v{vd}, v{vs2}, {}\n", rng.below(16))),
        1 => out.push_str(&format!("vsll.vi v{vd}, v{vs2}, {}\n", rng.below(16))),
        2 => out.push_str(&format!("vsrl.vi v{vd}, v{vs2}, {}\n", rng.below(16))),
        3 => out.push_str(&format!("vrotup.vi v{vd}, v{vs2}, {}\n", rng.below(32))),
        4 => out.push_str(&format!("v64rho.vi v{vd}, v{vs2}, {}\n", rng.below(5))),
        5 => out.push_str(&format!("vslidedownm.vi v{vd}, v{vs2}, {}\n", rng.below(5))),
        6 => out.push_str(&format!("vslideupm.vi v{vd}, v{vs2}, {}\n", rng.below(5))),
        7 => out.push_str(&format!("vxor.vv v{vd}, v{vs2}, v{vs1}\n")),
        8 => out.push_str(&format!("vand.vv v{vd}, v{vs2}, v{vs1}\n")),
        _ => out.push_str(&format!("vor.vv v{vd}, v{vs2}, v{vs1}\n")),
    }
}

fn gen_vector_m1(rng: &mut Rng) -> ProgramCase {
    let image = rng.bytes(STAGE_BYTES);
    // vl = 5 or 10 keeps the custom ops' five-lane row structure valid;
    // the occasional ragged vl exercises the partial-group cost rule.
    let vl = match rng.below(4) {
        0 => 5,
        1 => 1 + rng.below(10),
        _ => 10,
    };
    let mut source = String::new();
    source.push_str(&format!(
        "li t0, {vl}\nli a0, 0\nli a1, 256\nli a2, 1024\n\
         vsetvli x0, t0, e64, m1, tu, mu\n\
         vle64.v v1, (a0)\nvle64.v v2, (a1)\n"
    ));
    for _ in 0..3 + rng.below(8) {
        vector_line_m1(rng, &mut source);
    }
    let stored = 1 + rng.below(6);
    source.push_str(&format!("vse64.v v{stored}, (a2)\necall\n"));
    ProgramCase {
        config: ProcessorConfig::elen64(10),
        source,
        image,
        max_cycles: MAX_CYCLES,
        vregs: Vec::new(),
    }
}

fn gen_reconfiguration(rng: &mut Rng) -> ProgramCase {
    let image = rng.bytes(STAGE_BYTES);
    // EleNum = 5: m1 holds one row, m8 holds a whole 25-lane state.
    // Each vsetvli changes VL inside a compiled region, so the guarded
    // prediction and the per-configuration lowering must charge the
    // stepper's cost at every group count.
    let vl_m8 = 1 + rng.below(25);
    let mut source = String::new();
    source.push_str(
        "li t0, 5\nli t2, 0\nli a1, 320\nli a2, 1024\n\
         vsetvli x0, t0, e64, m1, tu, mu\n\
         vle64.v v0, (t2)\nvle64.v v1, (a1)\n",
    );
    source.push_str(&format!(
        "li t1, {vl_m8}\nvsetvli x0, t1, e64, m8, tu, mu\n"
    ));
    for _ in 0..1 + rng.below(4) {
        match rng.below(4) {
            0 => source.push_str("vxor.vv v8, v0, v0\n"),
            1 => source.push_str("vadd.vv v8, v0, v8\n"),
            2 => source.push_str("v64rho.vi v16, v8, -1\n"),
            _ => source.push_str(&format!("vrotup.vi v16, v8, {}\n", rng.below(32))),
        }
    }
    source.push_str(
        "vsetvli x0, t0, e64, m1, tu, mu\n\
         vse64.v v8, (a2)\necall\n",
    );
    ProgramCase {
        config: ProcessorConfig::elen64(5),
        source,
        image,
        max_cycles: MAX_CYCLES,
        vregs: Vec::new(),
    }
}

fn gen_mid_block_trap(rng: &mut Rng) -> ProgramCase {
    let image = rng.bytes(STAGE_BYTES);
    let mut source = String::new();
    seed_regs(rng, &mut source);
    for _ in 0..2 + rng.below(6) {
        scalar_line(rng, &mut source);
    }
    // The faulting access lands mid-straight-line, so the compiled tier
    // must retire the prefix, park the PC on the fault, and charge
    // exactly the prefix cycles.
    match rng.below(3) {
        0 => {
            // Misaligned word store.
            let offset = aligned_offset(rng) + 1 + rng.below(3);
            source.push_str(&format!("li s3, 0\nsw a0, {offset}(s3)\n"));
        }
        1 => {
            // Load past the end of data memory.
            source.push_str(&format!(
                "li s3, {}\nlw a0, 0(s3)\n",
                65536 + rng.below(64) * 4
            ));
        }
        _ => {
            // Vector load running off the end of data memory.
            source.push_str(&format!(
                "li t0, 10\nli s3, {}\nvsetvli x0, t0, e64, m1, tu, mu\nvle64.v v1, (s3)\n",
                65500 + rng.below(64)
            ));
        }
    }
    for _ in 0..rng.below(4) {
        scalar_line(rng, &mut source);
    }
    source.push_str("ecall\n");
    ProgramCase {
        config: ProcessorConfig::elen64(10),
        source,
        image,
        max_cycles: MAX_CYCLES,
        vregs: Vec::new(),
    }
}

fn gen_cycle_budget(rng: &mut Rng) -> ProgramCase {
    let image = rng.bytes(STAGE_BYTES);
    let iterations = 2 + rng.below(6);
    let mut source = String::new();
    seed_regs(rng, &mut source);
    source.push_str(&format!("li t0, 0\nli t1, {iterations}\nloop:\n"));
    for _ in 0..2 + rng.below(4) {
        scalar_line(rng, &mut source);
    }
    source.push_str("addi t0, t0, 1\nblt t0, t1, loop\necall\n");
    // A budget that usually expires mid-run — often mid-block — so both
    // paths must stop at the same instruction with the same counters.
    let budget = 1 + rng.below(80) as u64;
    ProgramCase {
        config: ProcessorConfig::elen64(10),
        source,
        image,
        max_cycles: budget,
        vregs: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// Idiom-sequence generators.
// ---------------------------------------------------------------------

/// Emits the θ and χ sequences of the real E64/LMUL kernels over random
/// data: five m1 plane loads, the 13-instruction θ idiom at `vl = n1`,
/// then an m8 reconfiguration and the 5-instruction χ idiom at
/// `vl = n8`. With probability ~1/4 the sequence is perturbed — slide
/// offsets, the rotate amount, or an op inserted mid-idiom. Outside a
/// whole round they run as their member ops, so this diffs those ops'
/// lowering against the stepper.
fn idiom_source(rng: &mut Rng) -> String {
    let n1 = if rng.below(4) == 0 { 5 } else { 10 };
    let n8 = [25, 50, 75][rng.below(3)];
    let perturb = rng.below(4) == 0;
    let (up_off, down_off, rot_amt) = if perturb {
        (rng.below(5), rng.below(5), rng.below(32))
    } else {
        (1, 1, 1)
    };
    let (chi_off1, chi_off2) = if perturb {
        (rng.below(5), rng.below(5))
    } else {
        (1, 2)
    };
    let insert_break = perturb && rng.below(2) == 0;

    let mut source = String::new();
    source.push_str(&format!("li s2, -1\nli t0, {n1}\nli t1, {n8}\n"));
    for y in 0..5 {
        source.push_str(&format!("li a{y}, {}\n", 96 * y));
    }
    source.push_str("li a5, 512\nli a6, 1200\n");
    source.push_str("vsetvli x0, t0, e64, m1, tu, mu\n");
    for y in 0..5 {
        source.push_str(&format!("vle64.v v{y}, (a{y})\n"));
    }
    // θ: column parities, D = C<<<pos ^ rot(C>>>pos), five plane XORs.
    source.push_str(
        "vxor.vv v5, v3, v4\n\
         vxor.vv v6, v1, v2\n\
         vxor.vv v7, v0, v6\n\
         vxor.vv v5, v5, v7\n",
    );
    source.push_str(&format!(
        "vslideupm.vi v6, v5, {up_off}\n\
         vslidedownm.vi v7, v5, {down_off}\n\
         vrotup.vi v7, v7, {rot_amt}\n"
    ));
    if insert_break {
        // A stray op mid-idiom: still a valid program.
        source.push_str("vor.vv v6, v6, v6\n");
    }
    source.push_str(
        "vxor.vv v5, v6, v7\n\
         vxor.vv v0, v0, v5\n\
         vxor.vv v1, v1, v5\n\
         vxor.vv v2, v2, v5\n\
         vxor.vv v3, v3, v5\n\
         vxor.vv v4, v4, v5\n",
    );
    // χ on a freshly loaded m8 group: ¬A[x+1] & A[x+2] ^ A[x].
    source.push_str("vsetvli x0, t1, e64, m8, tu, mu\nvle64.v v8, (a5)\n");
    source.push_str(&format!(
        "vslidedownm.vi v16, v8, {chi_off1}\n\
         vxor.vx v16, v16, s2\n\
         vslidedownm.vi v24, v8, {chi_off2}\n\
         vand.vv v16, v16, v24\n\
         vxor.vv v0, v8, v16\n"
    ));
    source.push_str("vse64.v v0, (a6)\necall\n");
    source
}

fn gen_keccak_idioms(rng: &mut Rng) -> ProgramCase {
    let image = rng.bytes(STAGE_BYTES);
    ProgramCase {
        config: ProcessorConfig::elen64(10),
        source: idiom_source(rng),
        image,
        max_cycles: MAX_CYCLES,
        vregs: Vec::new(),
    }
}

fn gen_idiom_budget(rng: &mut Rng) -> ProgramCase {
    let image = rng.bytes(STAGE_BYTES);
    let source = idiom_source(rng);
    // Budgets sized to the program's few-hundred-cycle cost, so the run
    // regularly stops inside a compiled block and retires its prefix.
    let budget = 1 + rng.below(400) as u64;
    ProgramCase {
        config: ProcessorConfig::elen64(10),
        source,
        image,
        max_cycles: budget,
        vregs: Vec::new(),
    }
}

/// Emits the E64 LMUL=8 round loop exactly as the kernel generator
/// does (θ, `vsetvli` m8, `v64rho`, `vpi`, χ, `vsetvli` m1, `viota`,
/// `addi`, `blt`) at EleNum `elenum`, with no loads: the planes are
/// whatever the random register file holds. The counter starts at a
/// random index, and its bound sometimes passes 24, so ι can trap on
/// the first trip or mid-loop. χ's scalar is the kernels' −1 in three
/// cases of four and a random word otherwise, so the complement word
/// every execution path reads at run time is checked too. About one
/// case in four perturbs:
///
/// * an AVL register changes after the loop, which then runs again
///   through the already compiled region, so a `vsetvli` guard exits
///   (or the m8 `v64rho` traps past five registers, as it does on the
///   stepper);
/// * a stray op lands between the round's steps, or `vpi` works on one
///   row instead of all five, so the round matcher rejects and the
///   member ops run.
fn round_loop_source(rng: &mut Rng, elenum: usize) -> String {
    let start = match rng.below(6) {
        0 => 0,
        1 => 20 + rng.below(4) as u32,
        2 => 24 + rng.below(8) as u32,
        3 => u32::MAX - 2,
        _ => rng.below(24) as u32,
    };
    let bound = if rng.below(4) == 0 {
        25 + rng.below(6)
    } else {
        24
    };
    let perturb = rng.below(4) == 0;
    let rerun = perturb && rng.below(2) == 0;
    let near_miss = perturb && !rerun;
    let stray_at = if near_miss { rng.below(4) } else { 4 };
    let stray = |at: usize| -> &'static str {
        match (stray_at == at, at) {
            (true, 0) => "vor.vv v30, v30, v29\n",
            (true, 1) => "vxor.vv v24, v24, v24\n",
            (true, 2) => "vadd.vi v30, v31, 3\n",
            _ => "",
        }
    };
    let pi_row = if stray_at == 3 {
        rng.below(5).to_string()
    } else {
        "-1".to_string()
    };
    let chi = if rng.below(4) == 0 {
        rng.next_u32() as i32
    } else {
        -1
    };
    let mut source = format!(
        "li s1, {elenum}\nli s5, {}\nli s2, {chi}\nli s3, {}\nli s4, {bound}\nli t3, 0\n\
         vsetvli x0, s1, e64, m1, tu, mu\n\
         permutation:\n\
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
         vxor.vv v4, v4, v5\n",
        5 * elenum,
        start as i32,
    );
    source.push_str(stray(0));
    source.push_str("vsetvli x0, s5, e64, m8, tu, mu\nv64rho.vi v0, v0, -1\n");
    source.push_str(stray(1));
    source.push_str(&format!("vpi.vi v8, v0, {pi_row}\n"));
    source.push_str(
        "vslidedownm.vi v16, v8, 1\n\
         vxor.vx v16, v16, s2\n\
         vslidedownm.vi v24, v8, 2\n\
         vand.vv v16, v16, v24\n\
         vxor.vv v0, v8, v16\n",
    );
    source.push_str("vsetvli x0, s1, e64, m1, tu, mu\n");
    source.push_str(stray(2));
    source.push_str(
        "viota.vx v0, v0, s3\n\
         addi s3, s3, 1\n\
         blt s3, s4, permutation\n",
    );
    if rerun {
        let (avl, value) = if rng.below(2) == 0 {
            ("s1", 1 + rng.below(elenum - 1))
        } else {
            ("s5", 1 + rng.below(8 * elenum))
        };
        source.push_str(&format!(
            "bnez t3, done\nli t3, 1\nli s3, {}\nli {avl}, {value}\nj permutation\ndone:\n",
            rng.below(24)
        ));
    }
    source.push_str("ecall\n");
    source
}

/// A round-loop case over random registers and memory, at an EleNum
/// of 5 to 40 (SN = 1 to 8): the resident loop runs its trips in
/// four-state lane groups, and a remainder of one to three states in
/// one more group padded with zero states. These cover a padded group
/// alone (SN 1 to 3), one group (4), a group and a padded group (5 to
/// 7) and two groups (8).
fn round_loop_case(rng: &mut Rng, max_cycles: Option<u64>) -> ProgramCase {
    let elenum = *rng.pick(&[5, 10, 15, 20, 25, 30, 35, 40]);
    let source = round_loop_source(rng, elenum);
    ProgramCase {
        config: ProcessorConfig::elen64(elenum),
        source,
        image: rng.bytes(STAGE_BYTES),
        // A full 24-round pass costs about 1850 cycles, so these budgets
        // mostly expire between two trips of the resident loop or
        // inside a round span.
        max_cycles: max_cycles.unwrap_or(1 + rng.below(2000) as u64),
        vregs: rng.bytes(32 * 8 * elenum),
    }
}

fn gen_round_loop(rng: &mut Rng) -> ProgramCase {
    round_loop_case(rng, Some(MAX_CYCLES))
}

fn gen_round_budget(rng: &mut Rng) -> ProgramCase {
    round_loop_case(rng, None)
}

/// An E32 LMUL=8 round-loop case: the kernel generator's own loop, from
/// `permutation:` through `loopctl`, on an ELEN = 32 processor at an
/// EleNum of 5 to 40, over random registers and memory. The low `viota`
/// reads `RC_SPLIT[s3]` and the high one `RC_SPLIT[s3 + 24]`, so a
/// counter start of 24–47 traps the high one on the first trip, one of
/// 48 or more traps the low one, and a bound past 24 traps the high one
/// mid-loop.
fn e32_round_loop_case(rng: &mut Rng, max_cycles: Option<u64>) -> ProgramCase {
    let elenum = *rng.pick(&[5, 10, 15, 20, 25, 40]);
    let start = match rng.below(6) {
        0 => 0,
        1 => 20 + rng.below(4) as u32,
        2 => 24 + rng.below(24) as u32,
        3 => 48 + rng.below(8) as u32,
        4 => u32::MAX - 2,
        _ => rng.below(24) as u32,
    };
    let bound = if rng.below(4) == 0 {
        25 + rng.below(6)
    } else {
        24
    };
    let kernel = kernel_e32_lmul8(elenum).source;
    let body = &kernel[kernel.find("permutation:").expect("loop label")
        ..kernel.find("done:").expect("store label")];
    let source = format!(
        "li s1, {elenum}\nli s5, {}\nli s2, -1\nli s3, {}\nli s4, {bound}\n\
         vsetvli x0, s1, e32, m1, tu, mu\n{body}ecall\n",
        5 * elenum,
        start as i32,
    );
    ProgramCase {
        config: ProcessorConfig::elen32(elenum),
        source,
        image: rng.bytes(STAGE_BYTES),
        // A full 24-round pass costs about 3550 cycles.
        max_cycles: max_cycles.unwrap_or(1 + rng.below(3600) as u64),
        vregs: rng.bytes(32 * 4 * elenum),
    }
}

fn gen_e32_round_loop(rng: &mut Rng) -> ProgramCase {
    e32_round_loop_case(rng, Some(MAX_CYCLES))
}

fn gen_e32_round_budget(rng: &mut Rng) -> ProgramCase {
    e32_round_loop_case(rng, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_passes_a_few_cases() {
        for seed in [0xC0DE_0000, 0xFA57_0000] {
            for outcome in run_compiledtier(3, seed) {
                assert!(
                    outcome.passed(),
                    "{}: {:?}",
                    outcome.scenario,
                    outcome.failures
                );
                assert_eq!(outcome.cases, 3);
            }
        }
    }

    #[test]
    fn generated_programs_assemble() {
        // The generators must produce valid assembly for any seed; a
        // rejected program is reported as a failure, so ten arbitrary
        // seeds double-check the grammar.
        for seed in 0..10 {
            for outcome in run_compiledtier(1, seed * 0x1234_5678 + 7) {
                for failure in &outcome.failures {
                    assert!(
                        !failure.detail.contains("assembler rejected"),
                        "{}: {}",
                        outcome.scenario,
                        failure.detail
                    );
                }
            }
        }
    }

    #[test]
    fn idiom_programs_assemble_for_many_seeds() {
        for seed in 0..24 {
            let case = gen_keccak_idioms(&mut Rng::new(seed * 0x9A3F + 5));
            krv_asm::assemble(&case.source).unwrap_or_else(|e| {
                panic!(
                    "seed {seed}: assembler rejected:\n{e}\n---\n{}",
                    case.source
                )
            });
        }
    }

    #[test]
    fn round_loop_programs_assemble_for_many_seeds() {
        for seed in 0..48 {
            for generate in [gen_round_loop, gen_e32_round_loop] {
                let case = generate(&mut Rng::new(seed * 0x51F1 + 3));
                krv_asm::assemble(&case.source).unwrap_or_else(|e| {
                    panic!(
                        "seed {seed}: assembler rejected:\n{e}\n---\n{}",
                        case.source
                    )
                });
            }
        }
    }

    #[test]
    fn every_family_runs_once_under_a_unique_name() {
        let outcomes = run_compiledtier(1, 1);
        assert_eq!(
            outcomes.len(),
            12,
            "six random families plus six verbatim-kernel families"
        );
        let mut names: Vec<&str> = outcomes.iter().map(|o| o.scenario).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), outcomes.len());
    }
}
