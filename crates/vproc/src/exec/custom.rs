//! Semantics of the ten custom Keccak vector extensions (paper §3.3).
//!
//! All instructions operate on "5-blocks": groups of five consecutive
//! elements holding the five lanes of one Keccak plane for one state.
//! With `SN` states resident, elements `0 .. 5 × SN − 1` of each register
//! are live and the rest are untouched (paper: "Elements with index
//! numbers not smaller than 5 × SN are unchanged").
//!
//! The multi-row variants (`v64rho`/`vpi` with `simm = −1`, and the
//! 32-bit `v32lrho`/`v32hrho`) derive the ρ-table row from the hardware
//! counter `lmul_cnt`, which in this functional model is the register
//! index within the LMUL group: global element `g` belongs to row
//! `g / EleNum`.

use crate::exec::{check_block_alignment, check_groups, keccak_blocks, read_group};
use crate::trap::Trap;
use crate::vector::VectorUnit;
use krv_isa::{CustomOp, RhoRow, VReg};
use krv_keccak::constants::{RC, RC_SPLIT, RHO_OFFSETS};

/// Executes one custom Keccak instruction.
///
/// # Errors
///
/// Traps on configuration violations: an instruction not defined for the
/// current ELEN, a VL/EleNum combination the hardware cannot split into
/// planes, an all-rows op whose VL spans more than five registers, an
/// operand group that runs past `v31`, or an out-of-range round-constant
/// index. Every one of them traps before the op writes anything.
pub fn execute(vu: &mut VectorUnit, op: &CustomOp, xregs: &[u32; 32]) -> Result<(), Trap> {
    let elen64 = vu.elen().bits() == 64;
    if elen64 && !op.supports_elen64() {
        return Err(Trap::VectorConfig {
            reason: "instruction is only defined for the 32-bit architecture",
        });
    }
    if !elen64 && !op.supports_elen32() {
        return Err(Trap::VectorConfig {
            reason: "instruction is only defined for the 64-bit architecture",
        });
    }
    if vu.vtype().sew().bits() != vu.elen().bits() {
        return Err(Trap::VectorConfig {
            reason: "custom Keccak ops require SEW = ELEN",
        });
    }
    match *op {
        CustomOp::Vslidedownm { vd, vs2, uimm, vm } => slide_mod5(vu, vd, vs2, uimm as i32, vm),
        CustomOp::Vslideupm { vd, vs2, uimm, vm } => slide_mod5(vu, vd, vs2, -(uimm as i32), vm),
        CustomOp::Vrotup { vd, vs2, uimm, vm } => rotup64(vu, vd, vs2, uimm as u32, vm),
        CustomOp::V32lrotup { vd, vs2, vs1, vm } => rot32_pair(vu, vd, vs2, vs1, vm, false),
        CustomOp::V32hrotup { vd, vs2, vs1, vm } => rot32_pair(vu, vd, vs2, vs1, vm, true),
        CustomOp::V64rho { vd, vs2, row, vm } => rho64(vu, vd, vs2, row, vm),
        CustomOp::V32lrho { vd, vs2, vs1, vm } => rho32(vu, vd, vs2, vs1, vm, false),
        CustomOp::V32hrho { vd, vs2, vs1, vm } => rho32(vu, vd, vs2, vs1, vm, true),
        CustomOp::Vpi { vd, vs2, row, vm } => pi_scatter(vu, vd, vs2, row, vm, false),
        CustomOp::Vrhopi { vd, vs2, row, vm } => pi_scatter(vu, vd, vs2, row, vm, true),
        CustomOp::Viota { vd, vs2, rs1, vm } => viota(vu, vd, vs2, xregs[rs1.index()], vm),
    }
}

/// Checks a Keccak block op's VL and its `vd`/`vs2` groups, then reads
/// the live elements of `vs2`: elements `0 .. 5 × SN − 1`, all of them
/// before the op writes any.
fn live_sources(vu: &VectorUnit, vd: VReg, vs2: VReg) -> Result<Vec<u64>, Trap> {
    check_block_alignment(vu)?;
    let live = 5 * keccak_blocks(vu);
    check_groups(vu, live, vu.vtype().sew(), &[vd, vs2])?;
    Ok(read_group(vu, vs2, live))
}

/// [`live_sources`] for the 32-bit architecture's split lanes: the live
/// 64-bit lanes `vs2 ‖ vs1`, high words from `vs2` and low from `vs1`.
fn live_pairs(vu: &VectorUnit, vd: VReg, vs2: VReg, vs1: VReg) -> Result<Vec<u64>, Trap> {
    let high = live_sources(vu, vd, vs2)?;
    check_groups(vu, high.len(), vu.vtype().sew(), &[vs1])?;
    let low = read_group(vu, vs1, high.len());
    Ok(high.iter().zip(&low).map(|(h, l)| (h << 32) | l).collect())
}

/// The low or high 32-bit half of a rotated lane.
fn half(lane: u64, high: bool) -> u64 {
    if high {
        lane >> 32
    } else {
        lane & 0xFFFF_FFFF
    }
}

/// `vslidedownm` / `vslideupm` (paper Table 1, Figure 7):
/// `vd[5i+j] = vs2[5i + (j + offset) mod 5]` with a signed offset
/// (negative = slide up).
fn slide_mod5(vu: &mut VectorUnit, vd: VReg, vs2: VReg, offset: i32, vm: bool) -> Result<(), Trap> {
    let src = live_sources(vu, vd, vs2)?;
    for g in 0..src.len() {
        if vu.element_active(vm, g) {
            let j = g % 5;
            let from = g - j + (j as i32 + offset).rem_euclid(5) as usize;
            vu.write_elem(vd, g, src[from]);
        }
    }
    Ok(())
}

/// `vrotup` (paper Table 3): 64-bit rotate-left of every live element.
fn rotup64(vu: &mut VectorUnit, vd: VReg, vs2: VReg, amount: u32, vm: bool) -> Result<(), Trap> {
    for (g, value) in live_sources(vu, vd, vs2)?.into_iter().enumerate() {
        if vu.element_active(vm, g) {
            vu.write_elem(vd, g, value.rotate_left(amount));
        }
    }
    Ok(())
}

/// `v32lrotup` / `v32hrotup` (paper Table 3): rotate `(vs2 ‖ vs1)` left
/// by 1, keep the low or high 32 bits.
fn rot32_pair(
    vu: &mut VectorUnit,
    vd: VReg,
    vs2: VReg,
    vs1: VReg,
    vm: bool,
    high: bool,
) -> Result<(), Trap> {
    for (g, pair) in live_pairs(vu, vd, vs2, vs1)?.into_iter().enumerate() {
        if vu.element_active(vm, g) {
            vu.write_elem(vd, g, half(pair.rotate_left(1), high));
        }
    }
    Ok(())
}

/// The all-rows forms (`v64rho`, `vpi` and `vrhopi` with `simm = −1`,
/// and `v32lrho`/`v32hrho`) take their row from `lmul_cnt`, so VL may
/// span at most the five registers of one plane set. Checked once, before
/// the op writes anything, by all of them alike.
fn check_five_rows(vu: &VectorUnit) -> Result<(), Trap> {
    if vu.vl() as usize > 5 * vu.elements_per_register() as usize {
        return Err(Trap::VectorConfig {
            reason: "all-rows Keccak op spans more than five registers",
        });
    }
    Ok(())
}

/// The ρ-table row of global element `g`: explicit for the single-row
/// variants, `lmul_cnt` (= register within the group) for `RhoRow::All`,
/// which [`check_five_rows`] bounds to rows 0–4.
fn element_row(vu: &VectorUnit, row: RhoRow, g: usize) -> usize {
    match row {
        RhoRow::Row(r) => r as usize,
        RhoRow::All => g / vu.elements_per_register() as usize,
    }
}

/// `v64rho` (paper Tables 2–3): per-lane ρ rotation.
fn rho64(vu: &mut VectorUnit, vd: VReg, vs2: VReg, row: RhoRow, vm: bool) -> Result<(), Trap> {
    let src = live_sources(vu, vd, vs2)?;
    if matches!(row, RhoRow::All) {
        check_five_rows(vu)?;
    }
    for (g, value) in src.into_iter().enumerate() {
        if vu.element_active(vm, g) {
            let r = element_row(vu, row, g);
            let x = lane_x(vu, g);
            vu.write_elem(vd, g, value.rotate_left(RHO_OFFSETS[r][x]));
        }
    }
    Ok(())
}

/// The lane (column) index of global element `g`: its position modulo 5
/// within its register.
fn lane_x(vu: &VectorUnit, g: usize) -> usize {
    (g % vu.elements_per_register() as usize) % 5
}

/// `v32lrho` / `v32hrho` (paper Table 3): split ρ rotation; the row comes
/// from `lmul_cnt`.
fn rho32(
    vu: &mut VectorUnit,
    vd: VReg,
    vs2: VReg,
    vs1: VReg,
    vm: bool,
    high: bool,
) -> Result<(), Trap> {
    let pairs = live_pairs(vu, vd, vs2, vs1)?;
    check_five_rows(vu)?;
    for (g, pair) in pairs.into_iter().enumerate() {
        if vu.element_active(vm, g) {
            let r = element_row(vu, RhoRow::All, g);
            let x = lane_x(vu, g);
            vu.write_elem(vd, g, half(pair.rotate_left(RHO_OFFSETS[r][x]), high));
        }
    }
    Ok(())
}

/// `vpi` (paper Table 4, Figure 8) and the fused `vrhopi` extension:
/// reads source row(s) and writes the register file in column mode,
/// optionally applying the ρ rotation on the way (`fused_rho`).
///
/// π maps `F[x, y] = E[(x + 3y) mod 5, x]`; inverted, the element at lane
/// `x'` of source row `r` lands in destination register `vd + 2(x' − r)
/// mod 5` at lane `r` — one column of the register file per source row.
/// Every source row is read before the first column is written.
fn pi_scatter(
    vu: &mut VectorUnit,
    vd: VReg,
    vs2: VReg,
    row: RhoRow,
    vm: bool,
    fused_rho: bool,
) -> Result<(), Trap> {
    let epr = vu.elements_per_register() as usize;
    let states = (vu.vl() as usize).min(epr) / 5;
    let (first_row, row_count) = match row {
        RhoRow::Row(r) => (r as usize, 1),
        RhoRow::All => {
            check_five_rows(vu)?;
            if !epr.is_multiple_of(5) {
                return Err(Trap::VectorConfig {
                    reason: "multi-register Keccak ops require EleNum to be a multiple of 5",
                });
            }
            (0, (vu.vl() as usize).div_ceil(epr))
        }
    };
    // Row `r` starts at element `row_base(r)` of the group at `vs2`: it
    // is `vs2` itself in the single-row form and the r-th register of
    // the group in the all-rows form. Each row is read over its first
    // `5 × states` elements.
    let row_base = |r: usize| match row {
        RhoRow::Row(_) => 0,
        RhoRow::All => r * epr,
    };
    let sew = vu.vtype().sew();
    let read = match row_count {
        0 => 0,
        _ => row_base(first_row + row_count - 1) + 5 * states,
    };
    // The destination is the five-register column block `vd..vd+4`.
    check_groups(vu, 5 * epr, sew, &[vd])?;
    check_groups(vu, read, sew, &[vs2])?;
    let src = read_group(vu, vs2, read);
    for r in first_row..first_row + row_count {
        for s in 0..states {
            for xp in 0..5usize {
                let src_elem = 5 * s + xp;
                if !vu.element_active(vm, src_elem) {
                    continue;
                }
                let value = src[row_base(r) + src_elem];
                let value = if fused_rho {
                    value.rotate_left(RHO_OFFSETS[r][xp])
                } else {
                    value
                };
                let y = (2 * (5 + xp - r)) % 5;
                let dest = VReg::from_index(vd.index() + y);
                vu.write_elem(dest, 5 * s + r, value);
            }
        }
    }
    Ok(())
}

/// `viota` (paper Tables 5–6): XOR the round constant into lane 0 of
/// every state; other live lanes are copied from `vs2`.
fn viota(vu: &mut VectorUnit, vd: VReg, vs2: VReg, index: u32, vm: bool) -> Result<(), Trap> {
    let src = live_sources(vu, vd, vs2)?;
    let rc = match vu.elen().bits() {
        64 => *RC
            .get(index as usize)
            .ok_or(Trap::RoundConstantIndex { index })?,
        _ => *RC_SPLIT
            .get(index as usize)
            .ok_or(Trap::RoundConstantIndex { index })? as u64,
    };
    for (g, value) in src.into_iter().enumerate() {
        if vu.element_active(vm, g) {
            vu.write_elem(vd, g, if g % 5 == 0 { value ^ rc } else { value });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Elen;
    use krv_isa::{Lmul, Sew, Vtype, XReg};

    fn unit(elenum: usize) -> (VectorUnit, [u32; 32]) {
        let mut vu = VectorUnit::new(Elen::Bits64, elenum);
        vu.set_config(
            elenum as u32,
            Vtype::new(Sew::E64, Lmul::M1).tail_undisturbed(),
        )
        .unwrap();
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
    fn slidedownm_matches_figure7() {
        // Paper Figure 7: S00 S10 S20 S30 S40 | … per state, offset 1 →
        // S10 S20 S30 S40 S00 per state.
        let (mut vu, xregs) = unit(15);
        let mut data = Vec::new();
        for state in 0..3u64 {
            for lane in 0..5u64 {
                data.push(100 * state + lane);
            }
        }
        fill(&mut vu, VReg::V1, &data);
        execute(
            &mut vu,
            &CustomOp::Vslidedownm {
                vd: VReg::V2,
                vs2: VReg::V1,
                uimm: 1,
                vm: true,
            },
            &xregs,
        )
        .unwrap();
        assert_eq!(
            dump(&vu, VReg::V2, 15),
            vec![1, 2, 3, 4, 0, 101, 102, 103, 104, 100, 201, 202, 203, 204, 200]
        );
    }

    #[test]
    fn slideupm_matches_figure7() {
        let (mut vu, xregs) = unit(10);
        let data: Vec<u64> = (0..10).collect();
        fill(&mut vu, VReg::V1, &data);
        execute(
            &mut vu,
            &CustomOp::Vslideupm {
                vd: VReg::V2,
                vs2: VReg::V1,
                uimm: 1,
                vm: true,
            },
            &xregs,
        )
        .unwrap();
        assert_eq!(dump(&vu, VReg::V2, 10), vec![4, 0, 1, 2, 3, 9, 5, 6, 7, 8]);
    }

    #[test]
    fn slide_tail_elements_unchanged() {
        // EleNum = 7: one state (5 lanes), elements 5 and 6 are tail.
        let (mut vu, xregs) = unit(7);
        fill(&mut vu, VReg::V1, &[0, 1, 2, 3, 4, 55, 66]);
        fill(&mut vu, VReg::V2, &[9; 7]);
        execute(
            &mut vu,
            &CustomOp::Vslidedownm {
                vd: VReg::V2,
                vs2: VReg::V1,
                uimm: 2,
                vm: true,
            },
            &xregs,
        )
        .unwrap();
        assert_eq!(dump(&vu, VReg::V2, 7), vec![2, 3, 4, 0, 1, 9, 9]);
    }

    #[test]
    fn slide_in_place_is_safe() {
        let (mut vu, xregs) = unit(5);
        fill(&mut vu, VReg::V1, &[0, 1, 2, 3, 4]);
        execute(
            &mut vu,
            &CustomOp::Vslidedownm {
                vd: VReg::V1,
                vs2: VReg::V1,
                uimm: 1,
                vm: true,
            },
            &xregs,
        )
        .unwrap();
        assert_eq!(dump(&vu, VReg::V1, 5), vec![1, 2, 3, 4, 0]);
    }

    #[test]
    fn slides_are_mutually_inverse() {
        // vslideupm(k) ∘ vslidedownm(k) = identity on the live elements,
        // for every offset.
        for offset in 0..5u8 {
            let (mut vu, xregs) = unit(10);
            let data: Vec<u64> = (100..110).collect();
            fill(&mut vu, VReg::V1, &data);
            execute(
                &mut vu,
                &CustomOp::Vslidedownm {
                    vd: VReg::V2,
                    vs2: VReg::V1,
                    uimm: offset,
                    vm: true,
                },
                &xregs,
            )
            .unwrap();
            execute(
                &mut vu,
                &CustomOp::Vslideupm {
                    vd: VReg::V3,
                    vs2: VReg::V2,
                    uimm: offset,
                    vm: true,
                },
                &xregs,
            )
            .unwrap();
            assert_eq!(dump(&vu, VReg::V3, 10), data, "offset {offset}");
        }
    }

    #[test]
    fn vrotup_rotates_lanes() {
        let (mut vu, xregs) = unit(5);
        fill(&mut vu, VReg::V1, &[0x8000_0000_0000_0001; 5]);
        execute(
            &mut vu,
            &CustomOp::Vrotup {
                vd: VReg::V2,
                vs2: VReg::V1,
                uimm: 1,
                vm: true,
            },
            &xregs,
        )
        .unwrap();
        assert_eq!(vu.read_elem(VReg::V2, 0), 3);
    }

    #[test]
    fn v64rho_single_row_uses_table() {
        let (mut vu, xregs) = unit(10);
        fill(&mut vu, VReg::V1, &[1; 10]);
        execute(
            &mut vu,
            &CustomOp::V64rho {
                vd: VReg::V2,
                vs2: VReg::V1,
                row: RhoRow::Row(1),
                vm: true,
            },
            &xregs,
        )
        .unwrap();
        // Row 1 offsets: 36, 44, 6, 55, 20 — applied per lane of each state.
        let expected: Vec<u64> = [36u32, 44, 6, 55, 20, 36, 44, 6, 55, 20]
            .iter()
            .map(|&n| 1u64.rotate_left(n))
            .collect();
        assert_eq!(dump(&vu, VReg::V2, 10), expected);
    }

    #[test]
    fn v64rho_all_rows_uses_lmul_cnt() {
        // EleNum = 5, LMUL=8, VL = 25: five registers, one per plane.
        let mut vu = VectorUnit::new(Elen::Bits64, 5);
        vu.set_config(25, Vtype::new(Sew::E64, Lmul::M8).tail_undisturbed())
            .unwrap();
        let xregs = [0u32; 32];
        for g in 0..25 {
            vu.write_elem(VReg::V0, g, 1);
        }
        execute(
            &mut vu,
            &CustomOp::V64rho {
                vd: VReg::V0,
                vs2: VReg::V0,
                row: RhoRow::All,
                vm: true,
            },
            &xregs,
        )
        .unwrap();
        for y in 0..5 {
            for x in 0..5 {
                assert_eq!(
                    vu.read_elem(VReg::V0, 5 * y + x),
                    1u64.rotate_left(RHO_OFFSETS[y][x]),
                    "lane ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn rot32_pair_matches_64bit_rotate() {
        let mut vu = VectorUnit::new(Elen::Bits32, 5);
        vu.set_config(5, Vtype::new(Sew::E32, Lmul::M1).tail_undisturbed())
            .unwrap();
        let xregs = [0u32; 32];
        let lane: u64 = 0x8000_0000_0000_0001;
        fill(&mut vu, VReg::V1, &[(lane & 0xFFFF_FFFF); 5]); // low words
        fill(&mut vu, VReg::V2, &[(lane >> 32); 5]); // high words
        execute(
            &mut vu,
            &CustomOp::V32lrotup {
                vd: VReg::V3,
                vs2: VReg::V2,
                vs1: VReg::V1,
                vm: true,
            },
            &xregs,
        )
        .unwrap();
        execute(
            &mut vu,
            &CustomOp::V32hrotup {
                vd: VReg::V4,
                vs2: VReg::V2,
                vs1: VReg::V1,
                vm: true,
            },
            &xregs,
        )
        .unwrap();
        let rotated = lane.rotate_left(1);
        assert_eq!(vu.read_elem(VReg::V3, 0), rotated & 0xFFFF_FFFF);
        assert_eq!(vu.read_elem(VReg::V4, 0), rotated >> 32);
    }

    #[test]
    fn v32rho_applies_table_per_row() {
        // EleNum = 5, LMUL=8, VL = 25, 32-bit architecture.
        let mut vu = VectorUnit::new(Elen::Bits32, 5);
        vu.set_config(25, Vtype::new(Sew::E32, Lmul::M8).tail_undisturbed())
            .unwrap();
        let xregs = [0u32; 32];
        let lane: u64 = 0x0123_4567_89AB_CDEF;
        for g in 0..25 {
            vu.write_elem(VReg::V0, g, lane & 0xFFFF_FFFF); // low group at v0
            vu.write_elem(VReg::V16, g, lane >> 32); // high group at v16
        }
        execute(
            &mut vu,
            &CustomOp::V32lrho {
                vd: VReg::V8,
                vs2: VReg::V16,
                vs1: VReg::V0,
                vm: true,
            },
            &xregs,
        )
        .unwrap();
        execute(
            &mut vu,
            &CustomOp::V32hrho {
                vd: VReg::V24,
                vs2: VReg::V16,
                vs1: VReg::V0,
                vm: true,
            },
            &xregs,
        )
        .unwrap();
        for y in 0..5 {
            for x in 0..5 {
                let expected = lane.rotate_left(RHO_OFFSETS[y][x]);
                let g = 5 * y + x;
                assert_eq!(
                    vu.read_elem(VReg::V8, g),
                    expected & 0xFFFF_FFFF,
                    "low ({x},{y})"
                );
                assert_eq!(vu.read_elem(VReg::V24, g), expected >> 32, "high ({x},{y})");
            }
        }
    }

    #[test]
    fn vpi_single_rows_match_reference_pi() {
        use krv_keccak::{steps, KeccakState};
        let (mut vu, xregs) = unit(10);
        // Two states with distinct lane values.
        let mut lanes_a = [0u64; 25];
        let mut lanes_b = [0u64; 25];
        for i in 0..25 {
            lanes_a[i] = 0xA000 + i as u64;
            lanes_b[i] = 0xB000 + i as u64;
        }
        let state_a = KeccakState::from_lanes(lanes_a);
        let state_b = KeccakState::from_lanes(lanes_b);
        // Load planes into v0–v4 (two states per register).
        for y in 0..5 {
            for x in 0..5 {
                vu.write_elem(VReg::from_index(y), x, state_a.lane(x, y));
                vu.write_elem(VReg::from_index(y), 5 + x, state_b.lane(x, y));
            }
        }
        // Five single-row vpi ops, as in paper Algorithm 2 lines 24–28.
        for r in 0..5u8 {
            execute(
                &mut vu,
                &CustomOp::Vpi {
                    vd: VReg::V5,
                    vs2: VReg::from_index(r as usize),
                    row: RhoRow::Row(r),
                    vm: true,
                },
                &xregs,
            )
            .unwrap();
        }
        let expect_a = steps::pi(&state_a);
        let expect_b = steps::pi(&state_b);
        for y in 0..5 {
            for x in 0..5 {
                assert_eq!(
                    vu.read_elem(VReg::from_index(5 + y), x),
                    expect_a.lane(x, y),
                    "state A lane ({x},{y})"
                );
                assert_eq!(
                    vu.read_elem(VReg::from_index(5 + y), 5 + x),
                    expect_b.lane(x, y),
                    "state B lane ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn vpi_all_rows_matches_reference_pi() {
        use krv_keccak::{steps, KeccakState};
        let mut vu = VectorUnit::new(Elen::Bits64, 5);
        vu.set_config(25, Vtype::new(Sew::E64, Lmul::M8).tail_undisturbed())
            .unwrap();
        let xregs = [0u32; 32];
        let mut lanes = [0u64; 25];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = (i as u64 + 1) * 0x1111;
        }
        let state = KeccakState::from_lanes(lanes);
        for y in 0..5 {
            for x in 0..5 {
                vu.write_elem_sew(VReg::from_index(y), x, Sew::E64, state.lane(x, y));
            }
        }
        execute(
            &mut vu,
            &CustomOp::Vpi {
                vd: VReg::V8,
                vs2: VReg::V0,
                row: RhoRow::All,
                vm: true,
            },
            &xregs,
        )
        .unwrap();
        let expected = steps::pi(&state);
        for y in 0..5 {
            for x in 0..5 {
                assert_eq!(
                    vu.read_elem_sew(VReg::from_index(8 + y), x, Sew::E64),
                    expected.lane(x, y),
                    "lane ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn viota_xors_lane_zero_only() {
        let (mut vu, mut xregs) = unit(10);
        fill(&mut vu, VReg::V1, &[7; 10]);
        xregs[19] = 3; // s3 = round 3
        execute(
            &mut vu,
            &CustomOp::Viota {
                vd: VReg::V2,
                vs2: VReg::V1,
                rs1: XReg::X19,
                vm: true,
            },
            &xregs,
        )
        .unwrap();
        assert_eq!(vu.read_elem(VReg::V2, 0), 7 ^ RC[3]);
        assert_eq!(vu.read_elem(VReg::V2, 1), 7);
        assert_eq!(vu.read_elem(VReg::V2, 5), 7 ^ RC[3], "second state lane 0");
        assert_eq!(vu.read_elem(VReg::V2, 6), 7);
    }

    #[test]
    fn viota_32bit_uses_split_table() {
        let mut vu = VectorUnit::new(Elen::Bits32, 5);
        vu.set_config(5, Vtype::new(Sew::E32, Lmul::M1).tail_undisturbed())
            .unwrap();
        let mut xregs = [0u32; 32];
        fill(&mut vu, VReg::V1, &[0; 5]);
        xregs[19] = 2; // low word of RC[2]
        execute(
            &mut vu,
            &CustomOp::Viota {
                vd: VReg::V1,
                vs2: VReg::V1,
                rs1: XReg::X19,
                vm: true,
            },
            &xregs,
        )
        .unwrap();
        assert_eq!(vu.read_elem(VReg::V1, 0), RC[2] & 0xFFFF_FFFF);
        xregs[19] = 24 + 2; // high word of RC[2]
        fill(&mut vu, VReg::V2, &[0; 5]);
        execute(
            &mut vu,
            &CustomOp::Viota {
                vd: VReg::V2,
                vs2: VReg::V2,
                rs1: XReg::X19,
                vm: true,
            },
            &xregs,
        )
        .unwrap();
        assert_eq!(vu.read_elem(VReg::V2, 0), RC[2] >> 32);
    }

    #[test]
    fn viota_bad_index_traps() {
        let (mut vu, mut xregs) = unit(5);
        xregs[19] = 24;
        let err = execute(
            &mut vu,
            &CustomOp::Viota {
                vd: VReg::V1,
                vs2: VReg::V1,
                rs1: XReg::X19,
                vm: true,
            },
            &xregs,
        )
        .unwrap_err();
        assert_eq!(err, Trap::RoundConstantIndex { index: 24 });
    }

    #[test]
    fn wrong_architecture_traps() {
        let (mut vu, xregs) = unit(5);
        let err = execute(
            &mut vu,
            &CustomOp::V32lrotup {
                vd: VReg::V1,
                vs2: VReg::V2,
                vs1: VReg::V3,
                vm: true,
            },
            &xregs,
        )
        .unwrap_err();
        assert!(matches!(err, Trap::VectorConfig { .. }));
        let mut vu32 = VectorUnit::new(Elen::Bits32, 5);
        vu32.set_config(5, Vtype::new(Sew::E32, Lmul::M1)).unwrap();
        let err = execute(
            &mut vu32,
            &CustomOp::Vrotup {
                vd: VReg::V1,
                vs2: VReg::V2,
                uimm: 1,
                vm: true,
            },
            &xregs,
        )
        .unwrap_err();
        assert!(matches!(err, Trap::VectorConfig { .. }));
    }

    #[test]
    fn masked_slide_skips_inactive_destinations() {
        let (mut vu, xregs) = unit(5);
        fill(&mut vu, VReg::V1, &[10, 11, 12, 13, 14]);
        fill(&mut vu, VReg::V2, &[0; 5]);
        // Only elements 0 and 2 active.
        for i in 0..5 {
            vu.write_mask_bit(VReg::V0, i, i == 0 || i == 2);
        }
        execute(
            &mut vu,
            &CustomOp::Vslidedownm {
                vd: VReg::V2,
                vs2: VReg::V1,
                uimm: 1,
                vm: false,
            },
            &xregs,
        )
        .unwrap();
        assert_eq!(dump(&vu, VReg::V2, 5), vec![11, 0, 13, 0, 0]);
    }
}
