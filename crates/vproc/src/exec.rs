//! Execution semantics of vector instructions: the stepper's
//! element-serial reference.
//!
//! [`standard`] implements the RVV 1.0 subset; [`custom`] implements the
//! ten Keccak extensions bit-exactly as specified in paper Tables 1, 3,
//! 4 and 5 (including the `lmul_cnt` row counter and the column-mode
//! register-file writes of `vpi`).
//!
//! Every executor has one implementation, whatever the SEW, mask or
//! operand layout, and follows two rules:
//! - it checks each register group it will touch with `check_groups`
//!   before its first access, so a group that runs past `v31` traps with
//!   nothing written;
//! - it reads all of its source elements into a local buffer before it
//!   writes any destination element, so overlapping operands compute
//!   from the register file as it was before the instruction, masked or
//!   not. Loads and stores move element by element through memory, so
//!   after a memory fault the elements before it stay loaded or stored.
//!
//! Word-level execution lives only in the compiled tier
//! ([`crate::compiled`]), which is held to these executors.

pub mod custom;
pub mod standard;

use crate::trap::Trap;
use crate::vector::{VectorUnit, NUM_VREGS};
use krv_isa::{Sew, VReg};

/// Sign-extends `value` from the current SEW to 64 bits.
pub(crate) fn sign_extend_sew(vu: &VectorUnit, value: u64) -> i64 {
    let bits = vu.vtype().sew().bits();
    if bits == 64 {
        value as i64
    } else {
        let shift = 64 - bits;
        ((value << shift) as i64) >> shift
    }
}

/// The number of complete 5-element Keccak blocks covered by VL.
///
/// The paper's custom instructions operate only on elements
/// `0 .. 5 × SN − 1` (§3.3); elements beyond are untouched.
pub(crate) fn keccak_blocks(vu: &VectorUnit) -> usize {
    vu.vl() as usize / 5
}

/// Checks that multi-register custom block operations do not straddle
/// register boundaries: when VL exceeds one register, the per-register
/// element count must be a multiple of 5 (which the paper guarantees by
/// choosing `EleNum` as 5 × SN).
pub(crate) fn check_block_alignment(vu: &VectorUnit) -> Result<(), Trap> {
    let epr = vu.elements_per_register() as usize;
    if vu.vl() as usize > epr && !epr.is_multiple_of(5) {
        return Err(Trap::VectorConfig {
            reason: "multi-register Keccak ops require EleNum to be a multiple of 5",
        });
    }
    Ok(())
}

/// Checks that the first `elements` elements of width `sew` of every
/// group in `groups` lie inside the register file.
///
/// Executors call this before their first register access, so an
/// operand group that runs past `v31` traps with nothing written rather
/// than reaching past the end of the file or wrapping to `v0`.
pub(crate) fn check_groups(
    vu: &VectorUnit,
    elements: usize,
    sew: Sew,
    groups: &[VReg],
) -> Result<(), Trap> {
    let reg_bytes = vu.reg_bytes();
    let span = elements * sew.bytes() as usize;
    if groups
        .iter()
        .any(|group| group.index() * reg_bytes + span > NUM_VREGS * reg_bytes)
    {
        return Err(Trap::VectorConfig {
            reason: "register group runs past v31",
        });
    }
    Ok(())
}

/// Reads the first `elements` elements of the group at `reg`, at the
/// current SEW, into a buffer the executor then writes from.
pub(crate) fn read_group(vu: &VectorUnit, reg: VReg, elements: usize) -> Vec<u64> {
    (0..elements).map(|i| vu.read_elem(reg, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Elen;
    use krv_isa::{CustomOp, Lmul, RhoRow, VArithOp, VSource, Vtype, XReg};
    use krv_keccak::constants::{RC, RHO_OFFSETS};

    /// Live elements: two registers of an EleNum = 10 file, at e64/m8.
    const VL: usize = 20;

    /// The executors under test, one per element-model shape.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        XorVv,
        AddVx,
        Rotup,
        Rho,
        Iota,
        Slidedown,
    }

    const OPS: [Op; 6] = [
        Op::XorVv,
        Op::AddVx,
        Op::Rotup,
        Op::Rho,
        Op::Iota,
        Op::Slidedown,
    ];

    fn execute(vu: &mut VectorUnit, op: Op, vd: VReg, vs2: VReg, vs1: VReg, vm: bool) {
        let mut xregs = [0u32; 32];
        xregs[5] = 0x8000_0001; // negative at XLEN: sign-extends to SEW
        xregs[6] = 3; // ι round index
        match op {
            Op::XorVv => {
                standard::varith(vu, VArithOp::Xor, vd, vs2, VSource::Vector(vs1), vm, &xregs)
            }
            Op::AddVx => {
                let src = VSource::Scalar(XReg::X5);
                standard::varith(vu, VArithOp::Add, vd, vs2, src, vm, &xregs)
            }
            Op::Rotup => {
                let op = CustomOp::Vrotup {
                    vd,
                    vs2,
                    uimm: 1,
                    vm,
                };
                custom::execute(vu, &op, &xregs)
            }
            Op::Rho => {
                let row = RhoRow::All;
                custom::execute(vu, &CustomOp::V64rho { vd, vs2, row, vm }, &xregs)
            }
            Op::Iota => {
                let rs1 = XReg::X6;
                custom::execute(vu, &CustomOp::Viota { vd, vs2, rs1, vm }, &xregs)
            }
            Op::Slidedown => {
                let op = CustomOp::Vslidedownm {
                    vd,
                    vs2,
                    uimm: 1,
                    vm,
                };
                custom::execute(vu, &op, &xregs)
            }
        }
        .expect("executes");
    }

    /// Element `g` of `vd` after `op`, from the `vs2` and `vs1` groups
    /// as they were before the instruction.
    fn model(op: Op, a: &[u64], b: &[u64], g: usize) -> u64 {
        match op {
            Op::XorVv => a[g] ^ b[g],
            Op::AddVx => a[g].wrapping_add(0xFFFF_FFFF_8000_0001),
            Op::Rotup => a[g].rotate_left(1),
            Op::Rho => a[g].rotate_left(RHO_OFFSETS[g / 10][g % 5]),
            Op::Iota if g.is_multiple_of(5) => a[g] ^ RC[3],
            Op::Iota => a[g],
            Op::Slidedown => a[g - g % 5 + (g % 5 + 1) % 5],
        }
    }

    /// Runs every executor on the operand layout `(vd, vs2, vs1)`, once
    /// unmasked and once under an all-ones mask, and checks the whole
    /// register file against the model applied to a copy of the file
    /// taken before the instruction.
    fn check_layout(vd: VReg, vs2: VReg, vs1: VReg) {
        for op in OPS {
            for vm in [true, false] {
                let mut vu = VectorUnit::new(Elen::Bits64, 10);
                vu.set_config(VL as u32, Vtype::new(Sew::E64, Lmul::M8))
                    .unwrap();
                for reg in 0..NUM_VREGS {
                    for e in 0..10 {
                        let value = match reg {
                            0 => u64::MAX, // the all-ones mask
                            _ => ((10 * reg + e) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        };
                        vu.write_elem(VReg::from_index(reg), e, value);
                    }
                }
                let mut expected = vu.clone();
                let (a, b) = (read_group(&vu, vs2, VL), read_group(&vu, vs1, VL));
                for g in 0..VL {
                    expected.write_elem(vd, g, model(op, &a, &b, g));
                }
                execute(&mut vu, op, vd, vs2, vs1, vm);
                for reg in 0..NUM_VREGS {
                    let reg = VReg::from_index(reg);
                    assert_eq!(
                        vu.register_bytes(reg),
                        expected.register_bytes(reg),
                        "{op:?} vd={vd} vs2={vs2} vs1={vs1} masked={}: {reg}",
                        !vm
                    );
                }
            }
        }
    }

    #[test]
    fn aliased_operands_compute_from_the_sources() {
        check_layout(VReg::V16, VReg::V8, VReg::V24); // disjoint
        check_layout(VReg::V8, VReg::V8, VReg::V16); // vd == vs2
        check_layout(VReg::V16, VReg::V8, VReg::V8); // vs2 == vs1
    }

    #[test]
    fn partial_overlap_reads_before_writing() {
        // `vd` starts one register into the other operand's group, so
        // element g of `vd` is element g + 10 of that source.
        check_layout(VReg::V9, VReg::V8, VReg::V16);
        check_layout(VReg::V9, VReg::V16, VReg::V8);
    }
}
