//! Compile-once program representation: timing classes and branch
//! targets resolved at load time.
//!
//! [`Processor::step`](crate::Processor::step) used to re-derive the
//! cycle cost of every instruction on every fetch by pattern-matching the
//! whole [`Instruction`] tree against the [`TimingModel`], and to
//! recompute branch-target PCs from the instruction's signed offset each
//! time the branch retired. Both are loop-invariant: the cost depends
//! only on the instruction and the (static) model — plus two runtime
//! scalars, the taken/not-taken direction and the active-group count —
//! and the target of a direct branch depends only on the instruction's
//! address. [`DecodedProgram`] hoists that work into a single pass at
//! program-load time, so the dispatch loop touches a flat, `Copy` record
//! per instruction.
//!
//! The resolution is exact: for every instruction and every runtime
//! context, [`TimingClass::cost`] returns the same number of cycles as
//! [`TimingModel::cost`] (there is a property test pinning this), so
//! pre-decoding cannot change any paper metric.

use crate::timing::{TimingContext, TimingModel};
use krv_isa::{CustomOp, Instruction, MemMode, OpKind};

/// The cycle-cost shape of one instruction, resolved against a
/// [`TimingModel`] at load time.
///
/// Only the runtime-dependent parts of the cost remain symbolic: the
/// branch direction, the active register-group count, and VL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingClass {
    /// Cost fully known at decode time (scalar ALU, memory, system…).
    Fixed(u64),
    /// Conditional branch: cost picked by the taken direction.
    Branch {
        /// Cost when the branch is taken.
        taken: u64,
        /// Cost when it falls through.
        not_taken: u64,
    },
    /// Vector instruction costing `issue + active_groups`.
    VectorGroups {
        /// Issue overhead added to the group count.
        issue: u64,
    },
    /// Unit-stride vector memory op: `1 + per_group × active_groups`.
    VmemUnit {
        /// Per-group transfer cost.
        per_group: u64,
    },
    /// Element-serial (strided/indexed) vector memory op:
    /// `1 + per_elem × VL`.
    VmemElem {
        /// Per-element transfer cost.
        per_elem: u64,
    },
}

impl TimingClass {
    /// Resolves the cost shape of `instr` under `model`.
    ///
    /// Mirrors [`TimingModel::cost`] case for case; the two are kept in
    /// lockstep by the `classes_agree_with_model` property test.
    pub fn classify(model: &TimingModel, instr: &Instruction) -> Self {
        match instr {
            Instruction::Lui { .. }
            | Instruction::Auipc { .. }
            | Instruction::OpImm { .. }
            | Instruction::Csrr { .. } => TimingClass::Fixed(model.scalar_alu),
            Instruction::Jal { .. } | Instruction::Jalr { .. } => TimingClass::Fixed(model.jump),
            Instruction::Branch { .. } => TimingClass::Branch {
                taken: model.branch_taken,
                not_taken: model.branch_not_taken,
            },
            Instruction::Load { .. } | Instruction::Store { .. } => {
                TimingClass::Fixed(model.scalar_mem)
            }
            Instruction::Op { kind, .. } => match kind {
                OpKind::Mul | OpKind::Mulh | OpKind::Mulhsu | OpKind::Mulhu => {
                    TimingClass::Fixed(model.mul)
                }
                OpKind::Div | OpKind::Divu | OpKind::Rem | OpKind::Remu => {
                    TimingClass::Fixed(model.div)
                }
                _ => TimingClass::Fixed(model.scalar_alu),
            },
            Instruction::Ecall | Instruction::Ebreak => TimingClass::Fixed(model.system),
            Instruction::Vsetvli { .. } => TimingClass::Fixed(model.vsetvli),
            Instruction::VLoad { mode, .. } | Instruction::VStore { mode, .. } => match mode {
                MemMode::UnitStride => TimingClass::VmemUnit {
                    per_group: model.vmem_unit_per_group,
                },
                MemMode::Strided(_) | MemMode::Indexed(_) => TimingClass::VmemElem {
                    per_elem: model.vmem_elem,
                },
            },
            Instruction::VArith { .. }
            | Instruction::VmvXs { .. }
            | Instruction::VmvSx { .. }
            | Instruction::Vid { .. } => TimingClass::VectorGroups {
                issue: model.vector_issue,
            },
            Instruction::Custom(op) => TimingClass::VectorGroups {
                issue: if matches!(op, CustomOp::Vpi { .. } | CustomOp::Vrhopi { .. }) {
                    model.vpi_issue
                } else {
                    model.vector_issue
                },
            },
        }
    }

    /// The cycle cost under the runtime context.
    #[inline]
    pub fn cost(self, ctx: TimingContext) -> u64 {
        match self {
            TimingClass::Fixed(cycles) => cycles,
            TimingClass::Branch { taken, not_taken } => {
                if ctx.branch_taken {
                    taken
                } else {
                    not_taken
                }
            }
            TimingClass::VectorGroups { issue } => issue + ctx.active_groups as u64,
            TimingClass::VmemUnit { per_group } => 1 + per_group * ctx.active_groups as u64,
            TimingClass::VmemElem { per_elem } => 1 + per_elem * ctx.vl as u64,
        }
    }
}

/// One pre-decoded instruction slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedInstr {
    /// The architectural instruction (still needed by the executors).
    pub instr: Instruction,
    /// Load-time-resolved cost shape.
    pub timing: TimingClass,
    /// Absolute target PC of a direct control transfer (`jal`,
    /// conditional branches); unused for everything else.
    pub target: u32,
    /// Whether the instruction retires on the vector unit.
    pub is_vector: bool,
}

/// A program compiled once against a [`TimingModel`]: every slot holds
/// the instruction plus its resolved timing class and branch target.
///
/// A `DecodedProgram` is immutable and can be shared (via
/// [`std::sync::Arc`]) between any number of processors configured with
/// the same timing model — the engine pool in `krv-core` decodes each
/// kernel once and hands the same program to every worker.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedProgram {
    slots: Vec<DecodedInstr>,
    timing: TimingModel,
}

impl DecodedProgram {
    /// Pre-decodes `instructions` against `timing`.
    pub fn compile(instructions: &[Instruction], timing: &TimingModel) -> Self {
        let slots = instructions
            .iter()
            .enumerate()
            .map(|(index, &instr)| {
                let pc = (index as u32) * 4;
                let target = match instr {
                    Instruction::Jal { offset, .. } | Instruction::Branch { offset, .. } => {
                        pc.wrapping_add(offset as u32)
                    }
                    _ => 0,
                };
                DecodedInstr {
                    instr,
                    timing: TimingClass::classify(timing, &instr),
                    target,
                    is_vector: instr.is_vector(),
                }
            })
            .collect();
        Self {
            slots,
            timing: timing.clone(),
        }
    }

    /// The timing model the program was compiled against.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot at `index`, if in range.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&DecodedInstr> {
        self.slots.get(index)
    }

    /// The architectural instructions (e.g. for disassembly).
    pub fn instructions(&self) -> Vec<Instruction> {
        self.slots.iter().map(|slot| slot.instr).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krv_isa::{BranchKind, RhoRow, VArithOp, VReg, VSource, XReg};

    fn contexts() -> Vec<TimingContext> {
        let mut out = Vec::new();
        for branch_taken in [false, true] {
            for active_groups in [1u32, 2, 5, 8] {
                for vl in [0u32, 1, 10, 50] {
                    out.push(TimingContext {
                        branch_taken,
                        active_groups,
                        vl,
                    });
                }
            }
        }
        out
    }

    fn exemplars() -> Vec<Instruction> {
        let v = VReg::from_index;
        vec![
            Instruction::Lui {
                rd: XReg::X5,
                imm: 0x1000,
            },
            Instruction::Jal {
                rd: XReg::X1,
                offset: 8,
            },
            Instruction::Jalr {
                rd: XReg::X1,
                rs1: XReg::X2,
                offset: 0,
            },
            Instruction::Branch {
                kind: BranchKind::Blt,
                rs1: XReg::X19,
                rs2: XReg::X20,
                offset: -8,
            },
            Instruction::Load {
                kind: krv_isa::LoadKind::Lw,
                rd: XReg::X5,
                rs1: XReg::X6,
                offset: 4,
            },
            Instruction::Op {
                kind: OpKind::Mul,
                rd: XReg::X5,
                rs1: XReg::X6,
                rs2: XReg::X7,
            },
            Instruction::Op {
                kind: OpKind::Divu,
                rd: XReg::X5,
                rs1: XReg::X6,
                rs2: XReg::X7,
            },
            Instruction::Ecall,
            Instruction::Vsetvli {
                rd: XReg::X0,
                rs1: XReg::X9,
                vtype: krv_isa::Vtype::new(krv_isa::Sew::E64, krv_isa::Lmul::M1),
            },
            Instruction::VLoad {
                eew: krv_isa::Sew::E64,
                vd: v(1),
                rs1: XReg::X10,
                mode: MemMode::UnitStride,
                vm: true,
            },
            Instruction::VLoad {
                eew: krv_isa::Sew::E64,
                vd: v(1),
                rs1: XReg::X10,
                mode: MemMode::Indexed(v(2)),
                vm: true,
            },
            Instruction::VStore {
                eew: krv_isa::Sew::E64,
                vs3: v(1),
                rs1: XReg::X10,
                mode: MemMode::Strided(XReg::X11),
                vm: true,
            },
            Instruction::varith(VArithOp::Xor, v(5), v(3), VSource::Vector(v(4))),
            Instruction::Custom(CustomOp::Vpi {
                vd: v(5),
                vs2: v(0),
                row: RhoRow::Row(0),
                vm: true,
            }),
            Instruction::Custom(CustomOp::V64rho {
                vd: v(0),
                vs2: v(0),
                row: RhoRow::All,
                vm: true,
            }),
        ]
    }

    #[test]
    fn classes_agree_with_model() {
        for model in [TimingModel::paper(), TimingModel::unit()] {
            for instr in exemplars() {
                let class = TimingClass::classify(&model, &instr);
                for ctx in contexts() {
                    assert_eq!(
                        class.cost(ctx),
                        model.cost(&instr, ctx),
                        "{instr} under {ctx:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn branch_targets_are_pre_resolved() {
        let program = DecodedProgram::compile(
            &[
                Instruction::nop(),
                Instruction::Branch {
                    kind: BranchKind::Bne,
                    rs1: XReg::X1,
                    rs2: XReg::X2,
                    offset: -4,
                },
                Instruction::Jal {
                    rd: XReg::X0,
                    offset: 8,
                },
            ],
            &TimingModel::paper(),
        );
        assert_eq!(program.get(1).unwrap().target, 0, "4 + (-4)");
        assert_eq!(program.get(2).unwrap().target, 16, "8 + 8");
    }

    #[test]
    fn round_trips_instructions() {
        let instrs = exemplars();
        let program = DecodedProgram::compile(&instrs, &TimingModel::paper());
        assert_eq!(program.instructions(), instrs);
        assert_eq!(program.len(), instrs.len());
        assert!(!program.is_empty());
    }
}
