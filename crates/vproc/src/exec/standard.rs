//! RVV 1.0 subset semantics: arithmetic, moves, memory.

use crate::exec::{check_groups, read_group, sign_extend_sew};
use crate::memory::DataMemory;
use crate::trap::Trap;
use crate::vector::VectorUnit;
use krv_isa::{Eew, MemMode, VArithOp, VReg, VSource, XReg};

/// Reads the first `vl` values of the second operand of a
/// `.vv`/`.vx`/`.vi` instruction.
fn operand1(vu: &VectorUnit, src: VSource, xregs: &[u32; 32], vl: usize) -> Vec<u64> {
    match src {
        VSource::Vector(vs1) => read_group(vu, vs1, vl),
        // Scalars are sign-extended from XLEN=32 to SEW, then truncated
        // (paper §3: "adjust the length of the scalar integer register").
        VSource::Scalar(rs1) => vec![vu.truncate(xregs[rs1.index()] as i32 as i64 as u64); vl],
        VSource::Imm(imm) => vec![vu.truncate(imm as i64 as u64); vl],
    }
}

/// Executes a vector integer arithmetic instruction.
///
/// # Errors
///
/// Traps if an operand group runs past `v31`.
pub fn varith(
    vu: &mut VectorUnit,
    op: VArithOp,
    vd: VReg,
    vs2: VReg,
    src: VSource,
    vm: bool,
    xregs: &[u32; 32],
) -> Result<(), Trap> {
    let vl = vu.vl() as usize;
    let sew = vu.vtype().sew();
    // Mask-producing comparisons write single bits, and VLMAX bits
    // always fit in `vd` itself.
    let is_mask_op = matches!(op, VArithOp::Mseq | VArithOp::Msne | VArithOp::Msltu);
    check_groups(vu, vl, sew, &[vs2])?;
    if let VSource::Vector(vs1) = src {
        check_groups(vu, vl, sew, &[vs1])?;
    }
    if !is_mask_op {
        check_groups(vu, vl, sew, &[vd])?;
    }
    let a = read_group(vu, vs2, vl);

    // Slides read relative source indices.
    if let VArithOp::Slideup | VArithOp::Slidedown = op {
        let offset = match src {
            VSource::Scalar(rs1) => xregs[rs1.index()] as usize,
            VSource::Imm(imm) => imm as usize,
            VSource::Vector(_) => unreachable!("slides have no .vv form"),
        };
        for i in 0..vl {
            if !vu.element_active(vm, i) {
                continue;
            }
            if op == VArithOp::Slidedown {
                vu.write_elem(vd, i, a.get(i + offset).copied().unwrap_or(0));
            } else if i >= offset {
                vu.write_elem(vd, i, a[i - offset]);
            }
        }
        return Ok(());
    }

    let b = operand1(vu, src, xregs, vl);
    let shift_mask = (sew.bits() - 1) as u64;
    for i in 0..vl {
        if !vu.element_active(vm, i) {
            continue;
        }
        let (a, b) = (a[i], b[i]); // a = vs2[i], b = vs1/x/imm
        let result = match op {
            VArithOp::Add => a.wrapping_add(b),
            VArithOp::Sub => a.wrapping_sub(b),
            VArithOp::Rsub => b.wrapping_sub(a),
            VArithOp::And => a & b,
            VArithOp::Or => a | b,
            VArithOp::Xor => a ^ b,
            VArithOp::Sll => a.wrapping_shl((b & shift_mask) as u32),
            VArithOp::Srl => a.wrapping_shr((b & shift_mask) as u32),
            VArithOp::Sra => (sign_extend_sew(vu, a) >> (b & shift_mask)) as u64,
            VArithOp::Mseq => (a == b) as u64,
            VArithOp::Msne => (a != b) as u64,
            VArithOp::Msltu => (a < b) as u64,
            VArithOp::Mv => b,
            VArithOp::Slideup | VArithOp::Slidedown => unreachable!("handled above"),
        };
        if is_mask_op {
            vu.write_mask_bit(vd, i, result != 0);
        } else {
            vu.write_elem(vd, i, vu.truncate(result));
        }
    }
    Ok(())
}

/// Executes `vmv.x.s`: element 0 of `vs2`, truncated to XLEN.
pub fn vmv_xs(vu: &VectorUnit, vs2: VReg) -> u32 {
    vu.read_elem(vs2, 0) as u32
}

/// Executes `vmv.s.x`: writes the sign-extended scalar into element 0.
pub fn vmv_sx(vu: &mut VectorUnit, vd: VReg, value: u32) {
    if vu.vl() > 0 {
        let extended = vu.truncate(value as i32 as i64 as u64);
        vu.write_elem(vd, 0, extended);
    }
}

/// Executes `vid.v`: element indices.
///
/// # Errors
///
/// Traps if the destination group runs past `v31`.
pub fn vid(vu: &mut VectorUnit, vd: VReg, vm: bool) -> Result<(), Trap> {
    let vl = vu.vl() as usize;
    check_groups(vu, vl, vu.vtype().sew(), &[vd])?;
    for i in 0..vl {
        if vu.element_active(vm, i) {
            vu.write_elem(vd, i, i as u64);
        }
    }
    Ok(())
}

/// Executes a vector load.
///
/// # Errors
///
/// Traps if the data or index group runs past `v31`, and on
/// out-of-bounds or misaligned element accesses (the elements before the
/// faulting one stay loaded).
#[allow(clippy::too_many_arguments)] // mirrors the RVV operand list
pub fn vload(
    vu: &mut VectorUnit,
    mem: &DataMemory,
    eew: Eew,
    vd: VReg,
    rs1: XReg,
    mode: MemMode,
    vm: bool,
    xregs: &[u32; 32],
) -> Result<(), Trap> {
    let base = xregs[rs1.index()];
    // For indexed accesses the instruction's width field is the *index*
    // EEW; data elements use the configured SEW (RVV 1.0 §7.2).
    let data_sew = data_width(vu, eew, mode);
    check_memory_groups(vu, eew, vd, mode)?;
    let size = data_sew.bytes();
    for i in 0..vu.vl() as usize {
        if !vu.element_active(vm, i) {
            continue;
        }
        let addr = element_address(vu, base, size, eew, mode, xregs, i);
        let value = mem.read(addr, size)?;
        vu.write_elem_sew(vd, i, data_sew, value);
    }
    Ok(())
}

/// Executes a vector store.
///
/// # Errors
///
/// Traps if the data or index group runs past `v31`, and on
/// out-of-bounds or misaligned element accesses (the elements before the
/// faulting one stay stored).
#[allow(clippy::too_many_arguments)] // mirrors the RVV operand list
pub fn vstore(
    vu: &VectorUnit,
    mem: &mut DataMemory,
    eew: Eew,
    vs3: VReg,
    rs1: XReg,
    mode: MemMode,
    vm: bool,
    xregs: &[u32; 32],
) -> Result<(), Trap> {
    let base = xregs[rs1.index()];
    let data_sew = data_width(vu, eew, mode);
    check_memory_groups(vu, eew, vs3, mode)?;
    let size = data_sew.bytes();
    for i in 0..vu.vl() as usize {
        if !vu.element_active(vm, i) {
            continue;
        }
        let addr = element_address(vu, base, size, eew, mode, xregs, i);
        let value = vu.read_elem_sew(vs3, i, data_sew);
        mem.write(addr, size, value)?;
    }
    Ok(())
}

/// The memory element width: the instruction EEW, except for indexed
/// accesses where the EEW describes the index vector and data uses SEW.
fn data_width(vu: &VectorUnit, eew: Eew, mode: MemMode) -> Eew {
    match mode {
        MemMode::Indexed(_) => vu.vtype().sew(),
        _ => eew,
    }
}

/// Checks the data group of a vector load or store, and the index
/// group of an indexed one, against the register file.
fn check_memory_groups(vu: &VectorUnit, eew: Eew, data: VReg, mode: MemMode) -> Result<(), Trap> {
    let vl = vu.vl() as usize;
    check_groups(vu, vl, data_width(vu, eew, mode), &[data])?;
    match mode {
        MemMode::Indexed(index) => check_groups(vu, vl, eew, &[index]),
        _ => Ok(()),
    }
}

fn element_address(
    vu: &VectorUnit,
    base: u32,
    size: u32,
    eew: Eew,
    mode: MemMode,
    xregs: &[u32; 32],
    i: usize,
) -> u32 {
    match mode {
        MemMode::UnitStride => base.wrapping_add(i as u32 * size),
        MemMode::Strided(rs2) => {
            base.wrapping_add((xregs[rs2.index()] as i32).wrapping_mul(i as i32) as u32)
        }
        MemMode::Indexed(vs2) => {
            // Index elements have the instruction's EEW; zero-extended.
            base.wrapping_add(vu.read_elem_sew(vs2, i, eew) as u32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Elen;
    use krv_isa::{Lmul, Sew, Vtype};

    fn unit() -> (VectorUnit, [u32; 32]) {
        let mut vu = VectorUnit::new(Elen::Bits64, 8);
        vu.set_config(8, Vtype::new(Sew::E64, Lmul::M1)).unwrap();
        (vu, [0u32; 32])
    }

    fn fill(vu: &mut VectorUnit, reg: VReg, values: &[u64]) {
        for (i, &v) in values.iter().enumerate() {
            vu.write_elem(reg, i, v);
        }
    }

    fn dump(vu: &VectorUnit, reg: VReg, n: usize) -> Vec<u64> {
        (0..n).map(|i| vu.read_elem(reg, i)).collect()
    }

    #[test]
    fn vxor_vv() {
        let (mut vu, xregs) = unit();
        fill(&mut vu, VReg::V1, &[1, 2, 3, 4, 5, 6, 7, 8]);
        fill(&mut vu, VReg::V2, &[8, 7, 6, 5, 4, 3, 2, 1]);
        varith(
            &mut vu,
            VArithOp::Xor,
            VReg::V3,
            VReg::V1,
            VSource::Vector(VReg::V2),
            true,
            &xregs,
        )
        .unwrap();
        assert_eq!(dump(&vu, VReg::V3, 8), vec![9, 5, 5, 1, 1, 5, 5, 9]);
    }

    #[test]
    fn vxor_vx_sign_extends_scalar() {
        let (mut vu, mut xregs) = unit();
        xregs[18] = -1i32 as u32; // s2 = -1: NOT via XOR (paper Algorithm 2).
        fill(
            &mut vu,
            VReg::V1,
            &[0, u64::MAX, 0x00FF_00FF_00FF_00FF, 0, 0, 0, 0, 0],
        );
        varith(
            &mut vu,
            VArithOp::Xor,
            VReg::V1,
            VReg::V1,
            VSource::Scalar(XReg::X18),
            true,
            &xregs,
        )
        .unwrap();
        assert_eq!(vu.read_elem(VReg::V1, 0), u64::MAX);
        assert_eq!(vu.read_elem(VReg::V1, 1), 0);
        assert_eq!(vu.read_elem(VReg::V1, 2), 0xFF00_FF00_FF00_FF00);
    }

    #[test]
    fn vadd_wraps_at_sew() {
        let mut vu = VectorUnit::new(Elen::Bits32, 4);
        vu.set_config(4, Vtype::new(Sew::E32, Lmul::M1)).unwrap();
        let xregs = [0u32; 32];
        fill(&mut vu, VReg::V1, &[u32::MAX as u64, 1, 2, 3]);
        varith(
            &mut vu,
            VArithOp::Add,
            VReg::V2,
            VReg::V1,
            VSource::Imm(1),
            true,
            &xregs,
        )
        .unwrap();
        assert_eq!(vu.read_elem(VReg::V2, 0), 0, "wraps at 32 bits");
        assert_eq!(vu.read_elem(VReg::V2, 1), 2);
    }

    #[test]
    fn vsub_and_vrsub_operand_order() {
        let (mut vu, xregs) = unit();
        fill(&mut vu, VReg::V1, &[10; 8]);
        fill(&mut vu, VReg::V2, &[3; 8]);
        varith(
            &mut vu,
            VArithOp::Sub,
            VReg::V3,
            VReg::V1,
            VSource::Vector(VReg::V2),
            true,
            &xregs,
        )
        .unwrap();
        assert_eq!(vu.read_elem(VReg::V3, 0), 7, "vsub: vs2 - vs1");
        varith(
            &mut vu,
            VArithOp::Rsub,
            VReg::V4,
            VReg::V1,
            VSource::Imm(15),
            true,
            &xregs,
        )
        .unwrap();
        assert_eq!(vu.read_elem(VReg::V4, 0), 5, "vrsub: imm - vs2");
    }

    #[test]
    fn shifts_mask_amount_to_sew() {
        let (mut vu, xregs) = unit();
        fill(&mut vu, VReg::V1, &[0x8000_0000_0000_0000; 8]);
        varith(
            &mut vu,
            VArithOp::Srl,
            VReg::V2,
            VReg::V1,
            VSource::Imm(1),
            true,
            &xregs,
        )
        .unwrap();
        assert_eq!(vu.read_elem(VReg::V2, 0), 0x4000_0000_0000_0000);
        varith(
            &mut vu,
            VArithOp::Sra,
            VReg::V3,
            VReg::V1,
            VSource::Imm(1),
            true,
            &xregs,
        )
        .unwrap();
        assert_eq!(vu.read_elem(VReg::V3, 0), 0xC000_0000_0000_0000);
    }

    #[test]
    fn mask_comparisons_write_bits() {
        let (mut vu, xregs) = unit();
        fill(&mut vu, VReg::V1, &[5, 6, 5, 7, 5, 0, 0, 0]);
        varith(
            &mut vu,
            VArithOp::Mseq,
            VReg::V0,
            VReg::V1,
            VSource::Imm(5),
            true,
            &xregs,
        )
        .unwrap();
        assert!(vu.mask_bit(0));
        assert!(!vu.mask_bit(1));
        assert!(vu.mask_bit(2));
        assert!(!vu.mask_bit(3));
        assert!(vu.mask_bit(4));
    }

    #[test]
    fn masked_execution_skips_inactive_elements() {
        let (mut vu, xregs) = unit();
        // Mask: only even elements active.
        for i in 0..8 {
            vu.write_mask_bit(VReg::V0, i, i % 2 == 0);
        }
        fill(&mut vu, VReg::V1, &[1; 8]);
        fill(&mut vu, VReg::V2, &[100; 8]);
        varith(
            &mut vu,
            VArithOp::Add,
            VReg::V2,
            VReg::V1,
            VSource::Imm(1),
            false,
            &xregs,
        )
        .unwrap();
        assert_eq!(dump(&vu, VReg::V2, 4), vec![2, 100, 2, 100]);
    }

    #[test]
    fn standard_slides_shift_whole_register() {
        let (mut vu, xregs) = unit();
        fill(&mut vu, VReg::V1, &[1, 2, 3, 4, 5, 6, 7, 8]);
        varith(
            &mut vu,
            VArithOp::Slidedown,
            VReg::V2,
            VReg::V1,
            VSource::Imm(2),
            true,
            &xregs,
        )
        .unwrap();
        assert_eq!(dump(&vu, VReg::V2, 8), vec![3, 4, 5, 6, 7, 8, 0, 0]);
        varith(
            &mut vu,
            VArithOp::Slideup,
            VReg::V3,
            VReg::V1,
            VSource::Imm(3),
            true,
            &xregs,
        )
        .unwrap();
        assert_eq!(dump(&vu, VReg::V3, 8), vec![0, 0, 0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn vmv_splat_and_scalar_moves() {
        let (mut vu, mut xregs) = unit();
        xregs[10] = 0xFFFF_FFFF;
        varith(
            &mut vu,
            VArithOp::Mv,
            VReg::V1,
            VReg::V0,
            VSource::Scalar(XReg::X10),
            true,
            &xregs,
        )
        .unwrap();
        assert_eq!(vu.read_elem(VReg::V1, 7), u64::MAX, "sign-extended splat");
        assert_eq!(vmv_xs(&vu, VReg::V1), 0xFFFF_FFFF);
        vmv_sx(&mut vu, VReg::V2, 7);
        assert_eq!(vu.read_elem(VReg::V2, 0), 7);
        assert_eq!(vu.read_elem(VReg::V2, 1), 0);
    }

    #[test]
    fn vid_writes_indices() {
        let (mut vu, _) = unit();
        vid(&mut vu, VReg::V4, true).unwrap();
        assert_eq!(
            dump(&vu, VReg::V4, 8),
            (0..8).map(|i| i as u64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unit_stride_load_store_round_trip() {
        let (mut vu, mut xregs) = unit();
        let mut mem = DataMemory::new(1024);
        for i in 0..8u64 {
            mem.write(64 + i as u32 * 8, 8, 0x1111_1111_1111_1111 * (i + 1))
                .unwrap();
        }
        xregs[10] = 64;
        vload(
            &mut vu,
            &mem,
            Sew::E64,
            VReg::V1,
            XReg::X10,
            MemMode::UnitStride,
            true,
            &xregs,
        )
        .unwrap();
        assert_eq!(vu.read_elem(VReg::V1, 3), 0x4444_4444_4444_4444);
        xregs[11] = 512;
        vstore(
            &vu,
            &mut mem,
            Sew::E64,
            VReg::V1,
            XReg::X11,
            MemMode::UnitStride,
            true,
            &xregs,
        )
        .unwrap();
        assert_eq!(mem.read(512 + 24, 8).unwrap(), 0x4444_4444_4444_4444);
    }

    #[test]
    fn strided_load_uses_byte_stride() {
        let (mut vu, mut xregs) = unit();
        let mut mem = DataMemory::new(1024);
        for i in 0..8u32 {
            mem.write(i * 16, 8, i as u64).unwrap();
        }
        xregs[10] = 0;
        xregs[5] = 16;
        vload(
            &mut vu,
            &mem,
            Sew::E64,
            VReg::V1,
            XReg::X10,
            MemMode::Strided(XReg::X5),
            true,
            &xregs,
        )
        .unwrap();
        assert_eq!(vu.read_elem(VReg::V1, 5), 5);
    }

    #[test]
    fn indexed_load_gathers() {
        let mut vu = VectorUnit::new(Elen::Bits32, 8);
        vu.set_config(4, Vtype::new(Sew::E32, Lmul::M1)).unwrap();
        let mut xregs = [0u32; 32];
        let mut mem = DataMemory::new(256);
        for i in 0..8u32 {
            mem.write(i * 4, 4, 100 + i as u64).unwrap();
        }
        // Indices (in bytes): 12, 0, 28, 4.
        for (i, idx) in [12u64, 0, 28, 4].into_iter().enumerate() {
            vu.write_elem(VReg::V8, i, idx);
        }
        xregs[10] = 0;
        vload(
            &mut vu,
            &mem,
            Sew::E32,
            VReg::V1,
            XReg::X10,
            MemMode::Indexed(VReg::V8),
            true,
            &xregs,
        )
        .unwrap();
        assert_eq!(
            (0..4)
                .map(|i| vu.read_elem(VReg::V1, i))
                .collect::<Vec<_>>(),
            vec![103, 100, 107, 101]
        );
    }

    #[test]
    fn load_out_of_bounds_traps() {
        let (mut vu, mut xregs) = unit();
        let mem = DataMemory::new(32);
        xregs[10] = 0;
        let err = vload(
            &mut vu,
            &mem,
            Sew::E64,
            VReg::V1,
            XReg::X10,
            MemMode::UnitStride,
            true,
            &xregs,
        )
        .unwrap_err();
        assert!(matches!(err, Trap::MemoryAccess { .. }));
    }
}
