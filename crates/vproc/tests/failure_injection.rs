//! Failure-injection tests: every trap path of the simulator, driven by
//! real assembled programs — through every program-loading and
//! execution path.
//!
//! Every scenario executes three times: on the stepper via
//! [`Processor::load_program`] (decode at load), on the stepper via an
//! explicitly compiled, shared [`DecodedProgram`] handed to
//! [`Processor::load_decoded`] — the path the engine pool uses to share
//! one pre-decoded kernel across workers — and on the compiled
//! execution tier. All three must produce the identical trap:
//! pre-decoding and compiled-tier lowering are pure caching layers and
//! must never change architectural behaviour, least of all on the
//! error paths.

use std::sync::Arc;

use krv_asm::assemble;
use krv_vproc::{DecodedProgram, Processor, ProcessorConfig, Trap};

fn run(source: &str, config: ProcessorConfig) -> Result<(), Trap> {
    let program = assemble(source).expect("test program assembles");

    // Path 1: decode at load time, stepped.
    let mut cpu = Processor::new(config.clone());
    cpu.set_compiled(false);
    cpu.load_program(program.instructions());
    let undecoded = cpu.run(100_000).map(|_| ());

    // Path 2: pre-decoded program shared via Arc, as the pool does,
    // stepped.
    let decoded = Arc::new(DecodedProgram::compile(
        program.instructions(),
        &config.timing,
    ));
    let mut cpu = Processor::new(config.clone());
    cpu.set_compiled(false);
    cpu.load_decoded(decoded);
    let predecoded = cpu.run(100_000).map(|_| ());

    // Path 3: compiled execution tier (lowered regions with stepper
    // fallback on the unlowerable suffix).
    let mut cpu = Processor::new(config);
    cpu.load_program(program.instructions());
    cpu.set_compiled(true);
    let compiled = cpu.run(100_000).map(|_| ());

    assert_eq!(
        undecoded, predecoded,
        "pre-decoded execution must trap (or halt) identically"
    );
    assert_eq!(
        undecoded, compiled,
        "compiled-tier execution must trap (or halt) identically"
    );
    undecoded
}

#[test]
fn scalar_load_out_of_bounds() {
    let err = run(
        "li t0, 70000\nlw a0, 0(t0)\necall",
        ProcessorConfig::elen64(5),
    )
    .unwrap_err();
    assert!(matches!(err, Trap::MemoryAccess { .. }), "{err}");
}

#[test]
fn scalar_store_misaligned() {
    let err = run("li t0, 2\nsw a0, 0(t0)\necall", ProcessorConfig::elen64(5)).unwrap_err();
    assert_eq!(err, Trap::MisalignedAccess { addr: 2, size: 4 });
}

#[test]
fn vector_load_past_end_of_memory() {
    let source = "li s1, 5\nvsetvli x0, s1, e64, m1, tu, mu\nli a0, 65528\nvle64.v v0, (a0)\necall";
    let err = run(source, ProcessorConfig::elen64(5)).unwrap_err();
    assert!(matches!(err, Trap::MemoryAccess { .. }), "{err}");
}

#[test]
fn jump_outside_program() {
    let err = run("j 4096", ProcessorConfig::elen64(5)).unwrap_err();
    assert_eq!(err, Trap::InstructionFetch { pc: 4096 });
}

#[test]
fn falling_off_the_end() {
    let err = run("nop\nnop", ProcessorConfig::elen64(5)).unwrap_err();
    assert_eq!(err, Trap::InstructionFetch { pc: 8 });
}

#[test]
fn sew_wider_than_elen() {
    // e64 configuration on a 32-bit build must trap like the vill bit.
    let err = run(
        "li s1, 5\nvsetvli x0, s1, e64, m1, tu, mu\necall",
        ProcessorConfig::elen32(5),
    )
    .unwrap_err();
    assert!(matches!(err, Trap::VectorConfig { .. }), "{err}");
}

#[test]
fn custom_op_on_wrong_architecture() {
    // vrotup is 64-bit only (paper Table 3).
    let err = run(
        "li s1, 5\nvsetvli x0, s1, e32, m1, tu, mu\nvrotup.vi v1, v1, 1\necall",
        ProcessorConfig::elen32(5),
    )
    .unwrap_err();
    assert!(matches!(err, Trap::VectorConfig { .. }), "{err}");
    // v32lrho is 32-bit only.
    let err = run(
        "li s1, 5\nvsetvli x0, s1, e64, m1, tu, mu\nv32lrho.vv v1, v2, v3\necall",
        ProcessorConfig::elen64(5),
    )
    .unwrap_err();
    assert!(matches!(err, Trap::VectorConfig { .. }), "{err}");
}

#[test]
fn custom_op_with_narrow_sew() {
    // Custom ops require SEW = ELEN (the hardware datapath width).
    let err = run(
        "li s1, 10\nvsetvli x0, s1, e32, m1, tu, mu\nvslidedownm.vi v1, v1, 1\necall",
        ProcessorConfig::elen64(5),
    )
    .unwrap_err();
    assert!(matches!(err, Trap::VectorConfig { .. }), "{err}");
}

#[test]
fn viota_index_beyond_rom() {
    let err = run(
        "li s1, 5\nvsetvli x0, s1, e64, m1, tu, mu\nli s3, 24\nviota.vx v0, v0, s3\necall",
        ProcessorConfig::elen64(5),
    )
    .unwrap_err();
    assert_eq!(err, Trap::RoundConstantIndex { index: 24 });
    // The 32-bit architecture has 48 ROM entries (low + high halves).
    assert!(run(
        "li s1, 5\nvsetvli x0, s1, e32, m1, tu, mu\nli s3, 47\nviota.vx v0, v0, s3\necall",
        ProcessorConfig::elen32(5),
    )
    .is_ok());
}

#[test]
fn multi_register_block_op_requires_elenum_multiple_of_five() {
    // EleNum = 6: a single-register slide is fine …
    assert!(run(
        "li s1, 6\nvsetvli x0, s1, e64, m1, tu, mu\nvslidedownm.vi v1, v1, 1\necall",
        ProcessorConfig::elen64(6),
    )
    .is_ok());
    // … but a grouped one straddles register boundaries and traps.
    let err = run(
        "li s5, 30\nvsetvli x0, s5, e64, m8, tu, mu\nvslidedownm.vi v8, v8, 1\necall",
        ProcessorConfig::elen64(6),
    )
    .unwrap_err();
    assert!(matches!(err, Trap::VectorConfig { .. }), "{err}");
}

#[test]
fn cycle_budget_enforced() {
    let err = run("spin:\nj spin", ProcessorConfig::elen64(5)).unwrap_err();
    assert_eq!(err, Trap::CycleLimit { limit: 100_000 });
}

#[test]
fn trap_message_names_the_cause() {
    let err = run(
        "li t0, 70000\nlw a0, 0(t0)\necall",
        ProcessorConfig::elen64(5),
    )
    .unwrap_err();
    let message = err.to_string();
    assert!(message.contains("out-of-bounds"), "{message}");
}

#[test]
fn processor_survives_trap_and_can_be_reused() {
    let program = assemble("li t0, 2\nlw a0, 0(t0)\necall").unwrap();
    let mut cpu = Processor::new(ProcessorConfig::elen64(5));
    cpu.load_program(program.instructions());
    assert!(cpu.run(1000).is_err());
    // Reload a correct program on the same instance.
    let good = assemble("li a0, 5\necall").unwrap();
    cpu.load_program(good.instructions());
    cpu.reset_counters();
    cpu.run(1000).expect("recovered");
    assert_eq!(cpu.xreg(krv_isa::XReg::X10), 5);
}

#[test]
fn shared_decoded_program_isolates_traps_between_processors() {
    // One pre-decoded program, two processors: the first is steered into
    // a trap (bad pointer in t0), the second runs the same instructions
    // with a valid pointer. A trap on one instance must neither poison
    // the shared program nor the other instance.
    let config = ProcessorConfig::elen64(5);
    let program = assemble("lw a0, 0(t0)\necall").unwrap();
    let decoded = Arc::new(DecodedProgram::compile(
        program.instructions(),
        &config.timing,
    ));

    let mut faulty = Processor::new(config.clone());
    faulty.load_decoded(Arc::clone(&decoded));
    faulty.set_xreg(krv_isa::XReg::X5, 70_000); // t0 out of bounds
    let err = faulty.run(1000).unwrap_err();
    assert!(matches!(err, Trap::MemoryAccess { .. }), "{err}");

    let mut healthy = Processor::new(config);
    healthy.load_decoded(decoded);
    healthy.set_xreg(krv_isa::XReg::X5, 128);
    healthy.dmem_mut().write(128, 4, 1234).unwrap();
    healthy.run(1000).expect("same shared program, valid input");
    assert_eq!(healthy.xreg(krv_isa::XReg::X10), 1234);
}

#[test]
fn decoded_trap_is_reported_at_the_same_pc() {
    // The trap must surface on the same instruction regardless of the
    // loading path; the retired-instruction count proves where it fired.
    let config = ProcessorConfig::elen64(5);
    let source = "nop\nnop\nli t0, 2\nlw a0, 0(t0)\necall";
    let program = assemble(source).unwrap();

    let mut direct = Processor::new(config.clone());
    direct.load_program(program.instructions());
    let direct_err = direct.run(1000).unwrap_err();

    let mut shared = Processor::new(config.clone());
    shared.load_decoded(Arc::new(DecodedProgram::compile(
        program.instructions(),
        &config.timing,
    )));
    let shared_err = shared.run(1000).unwrap_err();

    assert_eq!(direct_err, shared_err);
    assert_eq!(
        direct.retired(),
        shared.retired(),
        "both paths retire the same instructions before trapping"
    );
}

#[test]
fn decoded_cycle_limit_matches_undecoded() {
    // Timing is baked into DecodedProgram at compile time; the cycle
    // budget must bite at the same limit on both paths (covered by the
    // shared `run` helper asserting equality, spot-checked here).
    let err = run("spin:\nj spin", ProcessorConfig::elen64(5)).unwrap_err();
    assert_eq!(err, Trap::CycleLimit { limit: 100_000 });
}

// ---------------------------------------------------------------------
// Compiled-tier trap/budget semantics.
//
// The compiled tier retires whole lowered regions at once; its timing
// contract says a trap or an expiring cycle budget must still surface
// with exactly the per-instruction prefix retired. These tests pin that
// down against the stepper on programs containing the verbatim Keccak θ
// sequence, which the tier runs as its member ops, and the verbatim
// LMUL=8 round loop, which it runs as one whole-round span and, from the
// second round on, as one resident call for every round.
// ---------------------------------------------------------------------

/// The 13-instruction θ idiom over five derived planes, run twice via a
/// scalar loop. `vid.v`/shifts make the plane data nonzero so a wrong
/// fused dataflow cannot hide behind all-zero registers.
const THETA_LOOP: &str = r"
    li t0, 10
    vsetvli x0, t0, e64, m1, tu, mu
    vid.v v0
    vsll.vi v1, v0, 7
    vxor.vv v2, v1, v0
    vadd.vv v3, v2, v1
    vsll.vi v4, v3, 3
    li t2, 2
loop:
    vxor.vv v5, v3, v4
    vxor.vv v6, v1, v2
    vxor.vv v7, v0, v6
    vxor.vv v5, v5, v7
    vslideupm.vi v6, v5, 1
    vslidedownm.vi v7, v5, 1
    vrotup.vi v7, v7, 1
    vxor.vv v5, v6, v7
    vxor.vv v0, v0, v5
    vxor.vv v1, v1, v5
    vxor.vv v2, v2, v5
    vxor.vv v3, v3, v5
    vxor.vv v4, v4, v5
    addi t2, t2, -1
    bnez t2, loop
    ecall
";

/// Full architectural-state equality between the compiled tier and the
/// per-instruction stepper (counters, PC, scalar and vector registers).
fn assert_same_state(context: &str, compiled: &Processor, stepped: &Processor) {
    use krv_isa::{VReg, XReg};
    assert_eq!(compiled.cycles(), stepped.cycles(), "{context}: cycles");
    assert_eq!(compiled.retired(), stepped.retired(), "{context}: retired");
    assert_eq!(
        compiled.retired_vector(),
        stepped.retired_vector(),
        "{context}: retired_vector"
    );
    assert_eq!(compiled.pc(), stepped.pc(), "{context}: pc");
    for index in 0..32 {
        let reg = XReg::from_index(index);
        assert_eq!(compiled.xreg(reg), stepped.xreg(reg), "{context}: x{index}");
    }
    let (cv, sv) = (compiled.vector_unit(), stepped.vector_unit());
    assert_eq!(cv.vl(), sv.vl(), "{context}: vl");
    assert_eq!(cv.vtype(), sv.vtype(), "{context}: vtype");
    for reg in 0..32 {
        let vreg = VReg::from_index(reg);
        assert_eq!(
            cv.register_bytes(vreg),
            sv.register_bytes(vreg),
            "{context}: v{reg}"
        );
    }
}

/// The verbatim E64 LMUL=8 round loop (paper Algorithm 3) at EleNum
/// `elenum`, over planes derived like [`THETA_LOOP`]'s, from round
/// index `start` while the index stays below `bound`. With `bound` past
/// 24, ι's index runs past `RC` mid-loop and the loop traps there.
fn round_loop(elenum: usize, start: u32, bound: u32) -> String {
    format!(
        r"
    li s1, {elenum}
    li s5, {}
    li s2, -1
    li s3, {start}
    li s4, {bound}
    vsetvli x0, s1, e64, m1, tu, mu
    vid.v v0
    vsll.vi v1, v0, 7
    vxor.vv v2, v1, v0
    vadd.vv v3, v2, v1
    vsll.vi v4, v3, 3
permutation:
    vxor.vv v5, v3, v4
    vxor.vv v6, v1, v2
    vxor.vv v7, v0, v6
    vxor.vv v5, v5, v7
    vslideupm.vi v6, v5, 1
    vslidedownm.vi v7, v5, 1
    vrotup.vi v7, v7, 1
    vxor.vv v5, v6, v7
    vxor.vv v0, v0, v5
    vxor.vv v1, v1, v5
    vxor.vv v2, v2, v5
    vxor.vv v3, v3, v5
    vxor.vv v4, v4, v5
    vsetvli x0, s5, e64, m8, tu, mu
    v64rho.vi v0, v0, -1
    vpi.vi v8, v0, -1
    vslidedownm.vi v16, v8, 1
    vxor.vx v16, v16, s2
    vslidedownm.vi v24, v8, 2
    vand.vv v16, v16, v24
    vxor.vv v0, v8, v16
    vsetvli x0, s1, e64, m1, tu, mu
    viota.vx v0, v0, s3
    addi s3, s3, 1
    blt s3, s4, permutation
    ecall
",
        5 * elenum
    )
}

/// The programs the budget and `run_until_pc` sweeps run, with their
/// EleNum: the θ loop, four rounds of the round loop, and a round loop
/// whose third trip traps in ι. The resident loop runs every trip but
/// the last in four-state lane groups, and a remainder of one to three
/// states in one more group padded with zero states. The round loops
/// run at SN = 2 and SN = 3, each one padded group, at SN = 4, one full
/// group, and at SN = 6, a full group and a padded one.
fn sweep_programs() -> [(&'static str, usize, String); 9] {
    [
        ("theta loop", 10, THETA_LOOP.to_string()),
        ("round loop", 10, round_loop(10, 20, 24)),
        ("round loop past RC", 10, round_loop(10, 22, 26)),
        ("round loop at SN = 3", 15, round_loop(15, 20, 24)),
        ("round loop past RC at SN = 3", 15, round_loop(15, 22, 26)),
        ("round loop at SN = 4", 20, round_loop(20, 20, 24)),
        ("round loop past RC at SN = 4", 20, round_loop(20, 22, 26)),
        ("round loop at SN = 6", 30, round_loop(30, 20, 24)),
        ("round loop past RC at SN = 6", 30, round_loop(30, 22, 26)),
    ]
}

/// Runs `source` on a fresh processor at EleNum `elenum`; `configure`
/// picks the tier.
fn processor_for(source: &str, elenum: usize, configure: impl FnOnce(&mut Processor)) -> Processor {
    let program = assemble(source).expect("sweep program assembles");
    let mut cpu = Processor::new(ProcessorConfig::elen64(elenum));
    cpu.load_program(program.instructions());
    configure(&mut cpu);
    cpu
}

#[test]
fn compiled_trap_retires_the_same_prefix() {
    // An out-of-bounds vector load after real vector work: the compiled
    // tier must report the trap with the identical prefix retired.
    let source = "li s1, 10\n\
                  vsetvli x0, s1, e64, m1, tu, mu\n\
                  vid.v v1\n\
                  vxor.vv v2, v1, v1\n\
                  li a0, 65528\n\
                  vle64.v v3, (a0)\n\
                  ecall";
    let program = assemble(source).unwrap();

    let mut compiled = Processor::new(ProcessorConfig::elen64(10));
    compiled.load_program(program.instructions());
    compiled.set_compiled(true);
    let compiled_err = compiled.run(100_000).unwrap_err();

    let mut stepped = Processor::new(ProcessorConfig::elen64(10));
    stepped.load_program(program.instructions());
    stepped.set_compiled(false);
    let stepped_err = stepped.run(100_000).unwrap_err();

    assert_eq!(compiled_err, stepped_err);
    assert!(matches!(compiled_err, Trap::MemoryAccess { .. }));
    assert_same_state("trap prefix", &compiled, &stepped);
}

#[test]
fn compiled_budget_expiry_is_bit_identical_at_every_limit() {
    for (name, elenum, source) in sweep_programs() {
        // Total cost up to the halt (or the ι trap), measured once on
        // the stepper.
        let total = {
            let mut cpu = processor_for(&source, elenum, |p| p.set_compiled(false));
            let _ = cpu.run(100_000);
            cpu.cycles()
        };
        // Every possible budget, including 0 and the exact halt cycle:
        // the compiled tier must stop on the same instruction with the
        // same partial state — even when the budget dies inside a fused
        // span or between the trips of a resident round loop.
        for limit in 0..=total {
            let mut compiled = processor_for(&source, elenum, |p| p.set_compiled(true));
            let compiled_result = compiled.run(limit).map(|_| ());
            let mut stepped = processor_for(&source, elenum, |p| p.set_compiled(false));
            let stepped_result = stepped.run(limit).map(|_| ());
            assert_eq!(compiled_result, stepped_result, "{name}, limit {limit}");
            assert_same_state(&format!("{name}, budget {limit}"), &compiled, &stepped);
        }
    }
}

#[test]
fn compiled_run_until_pc_stops_at_every_boundary() {
    // Single-stepping by PC target across the whole program: every
    // instruction boundary is a legal stop point, including ones in the
    // middle of a fused span, where the compiled tier must fall back to
    // member-op execution to honour the early exit. Both processors
    // then run on to the end from the stop, so every boundary is also
    // a legal place to resume — into a round span or a resident loop.
    for (name, elenum, source) in sweep_programs() {
        let instructions = assemble(&source).unwrap().instructions().len();
        for target_index in 1..instructions {
            let target = (target_index * 4) as u32;
            let context = format!("{name}, run_until_pc {target:#x}");
            let mut compiled = processor_for(&source, elenum, |p| p.set_compiled(true));
            let compiled_result = compiled.run_until_pc(target, 100_000);
            let mut stepped = processor_for(&source, elenum, |p| p.set_compiled(false));
            let stepped_result = stepped.run_until_pc(target, 100_000);
            assert_eq!(compiled_result, stepped_result, "{context}");
            if compiled_result.is_ok() {
                assert_eq!(compiled.pc(), target, "{context}: stops exactly there");
            }
            assert_same_state(&context, &compiled, &stepped);
            let compiled_rest = compiled.run(100_000).map(|_| ());
            let stepped_rest = stepped.run(100_000).map(|_| ());
            assert_eq!(compiled_rest, stepped_rest, "{context}, then run");
            assert_same_state(&format!("{context}, then run"), &compiled, &stepped);
        }
    }
}

#[test]
fn round_loop_runs_resident_and_traps_where_the_stepper_does() {
    // Four rounds: the prologue, one resident call for every round and
    // the epilogue — far fewer dispatches than rounds.
    let mut cpu = processor_for(&round_loop(10, 20, 24), 10, |p| p.set_compiled(true));
    cpu.run(100_000).expect("four rounds halt");
    assert!(
        cpu.compiled_dispatches() < 4,
        "{}",
        cpu.compiled_dispatches()
    );
    // Index 24 is past the 24-entry ROM: the third trip traps in ι with
    // two whole rounds retired, as on the stepper.
    let source = round_loop(10, 22, 26);
    let mut compiled = processor_for(&source, 10, |p| p.set_compiled(true));
    let mut stepped = processor_for(&source, 10, |p| p.set_compiled(false));
    let err = compiled.run(100_000).unwrap_err();
    assert_eq!(err, Trap::RoundConstantIndex { index: 24 });
    assert_eq!(stepped.run(100_000).unwrap_err(), err);
    assert_same_state("ι past RC", &compiled, &stepped);
}

#[test]
fn register_groups_past_v31_trap_on_both_paths() {
    // At EleNum = 10 an m8 group at VL 80 spans eight registers, so one
    // starting at v30 or v28 runs past v31; the all-rows vpi at VL 50
    // reads rows v30..v34. Each trap must come before the first write,
    // so v24..v31 keep their vid values and vpi's columns stay zero.
    let prologue = "li t0, 80\nvsetvli t1, t0, e64, m8, ta, ma\nvid.v v24\n";
    let cases = [
        ("vxor.vv v30, v30, v30", 12),
        ("vrotup.vi v28, v28, 1", 12),
        (
            "li t0, 50\nvsetvli t1, t0, e64, m8, ta, ma\nvpi.vi v8, v30, -1",
            20,
        ),
    ];
    for (body, pc) in cases {
        let source = format!("{prologue}{body}\necall");
        let mut compiled = processor_for(&source, 10, |p| p.set_compiled(true));
        let mut stepped = processor_for(&source, 10, |p| p.set_compiled(false));
        let err = stepped.run(100_000).unwrap_err();
        assert_eq!(
            err,
            Trap::VectorConfig {
                reason: "register group runs past v31"
            },
            "{body}"
        );
        assert_eq!(compiled.run(100_000).unwrap_err(), err, "{body}");
        assert_eq!(stepped.pc(), pc, "{body}");
        assert_same_state(body, &compiled, &stepped);
        let vu = stepped.vector_unit();
        for g in 0..80 {
            assert_eq!(vu.read_elem(krv_isa::VReg::V24, g), g as u64, "{body}");
        }
        for reg in 8..13 {
            let bytes = vu.register_bytes(krv_isa::VReg::from_index(reg));
            assert!(bytes.iter().all(|&b| b == 0), "{body}: v{reg}");
        }
    }
}

#[test]
fn all_rows_rho_past_five_registers_traps_with_nothing_written() {
    // At EleNum = 10, VL 60 spans six registers. The all-rows ρ ops take
    // their ρ row from the register within the group, and there is no
    // sixth row: like the all-rows vpi, each must trap before its first
    // write, on both paths.
    let cases = [
        (ProcessorConfig::elen64(10), "e64", "v64rho.vi v16, v8, -1"),
        (ProcessorConfig::elen32(10), "e32", "v32lrho.vv v16, v8, v0"),
        (ProcessorConfig::elen32(10), "e32", "v32hrho.vv v16, v8, v0"),
    ];
    for (config, sew, op) in cases {
        let source = format!(
            "li t0, 80\n\
             vsetvli t1, t0, {sew}, m8, ta, ma\n\
             vid.v v0\n\
             vid.v v8\n\
             vsll.vi v8, v8, 3\n\
             vid.v v16\n\
             li t0, 60\n\
             vsetvli t1, t0, {sew}, m8, ta, ma\n\
             {op}\n\
             ecall"
        );
        let program = assemble(&source).expect("assembles");
        let pc = 4 * (program.instructions().len() as u32 - 2);
        for compiled in [false, true] {
            let context = format!("{op}, compiled {compiled}");
            let mut cpu = Processor::new(config.clone());
            cpu.load_program(program.instructions());
            cpu.set_compiled(compiled);
            cpu.run_until_pc(pc, 100_000).expect("reaches the op");
            let registers = |cpu: &Processor| -> Vec<Vec<u8>> {
                (0..32)
                    .map(|reg| {
                        let vreg = krv_isa::VReg::from_index(reg);
                        cpu.vector_unit().register_bytes(vreg).to_vec()
                    })
                    .collect()
            };
            let before = registers(&cpu);
            let err = cpu.run(100_000).unwrap_err();
            assert_eq!(
                err,
                Trap::VectorConfig {
                    reason: "all-rows Keccak op spans more than five registers"
                },
                "{context}"
            );
            assert_eq!(cpu.pc(), pc, "{context}");
            for (reg, (now, then)) in registers(&cpu).iter().zip(&before).enumerate() {
                assert!(now == then, "{context}: v{reg} was written before the trap");
            }
        }
    }
}

#[test]
fn masked_vector_load_skips_inactive_elements() {
    // Build a mask in v0 via vmseq, then load masked: untouched elements
    // keep their previous value.
    let source = r"
        li s1, 8
        vsetvli x0, s1, e32, m1, tu, mu
        vid.v v1
        vmseq.vi v0, v1, 3        # only element 3 active
        vmv.v.i v2, -1            # v2 = all ones
        li a0, 128
        vle32.v v2, (a0), v0.t    # masked load
        ecall
    ";
    let program = assemble(source).unwrap();
    let mut cpu = Processor::new(ProcessorConfig::elen32(8));
    for i in 0..8u32 {
        cpu.dmem_mut()
            .write(128 + 4 * i, 4, 100 + i as u64)
            .unwrap();
    }
    cpu.load_program(program.instructions());
    cpu.run(10_000).unwrap();
    let vu = cpu.vector_unit();
    use krv_isa::{Sew, VReg};
    assert_eq!(
        vu.read_elem_sew(VReg::V2, 3, Sew::E32),
        103,
        "active element loaded"
    );
    assert_eq!(
        vu.read_elem_sew(VReg::V2, 0, Sew::E32),
        0xFFFF_FFFF,
        "inactive element untouched"
    );
}
