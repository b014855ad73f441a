//! Cycle-accurate simulator of the scalable SIMD RISC-V processor.
//!
//! This crate models the hardware platform of the paper (§2.2, Figure 3):
//! a scalar **Ibex-like RV32IM core** coupled to a **vector processing
//! unit** with 32 vector registers of `EleNum × ELEN` bits, a vector
//! load/store unit, and an execution lane array — extended with the ten
//! custom Keccak vector instructions realized in SystemVerilog in the
//! original work and in [`exec::custom`] here.
//!
//! The simulator is *functionally* bit-exact (validated against the
//! reference permutation in `krv-keccak`) and *temporally* calibrated: the
//! [`timing::TimingModel`] reproduces the per-instruction cycle counts
//! annotated in the paper's Algorithms 2 and 3 (e.g. 2 cc for an LMUL=1
//! vector ALU operation, 6 cc at LMUL=8, 3/7 cc for `vpi`), which in turn
//! reproduce the paper's 103 / 75 / 147 cycles-per-round results.
//!
//! A [`Processor`] runs code on one of two execution paths, chosen by
//! the single switch [`Processor::set_compiled`]: the per-instruction
//! stepper ([`Processor::step`]), which is the reference semantics, and
//! the compiled tier ([`compiled`]), which lowers straight-line regions
//! to native word operations and hands anything it cannot prove
//! bit-identical back to the stepper. The compiled tier is on by
//! default. Both paths charge cycles from the same timing model, so the
//! switch changes host speed only, never a simulated result.
//!
//! # Example
//!
//! ```
//! use krv_vproc::{Processor, ProcessorConfig};
//! use krv_asm::assemble;
//!
//! let program = assemble("li a0, 7\nli a1, 35\nadd a0, a0, a1\necall")?;
//! let mut cpu = Processor::new(ProcessorConfig::elen64(10));
//! cpu.load_program(program.instructions());
//! cpu.run(10_000)?;
//! assert_eq!(cpu.xreg(krv_isa::XReg::X10), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod config;
pub mod decoded;
pub mod exec;
pub mod memory;
pub mod processor;
pub mod timing;
pub mod trace;
pub mod trap;
pub mod vector;

pub use compiled::CompiledProgram;
pub use config::{Elen, ProcessorConfig};
pub use decoded::{DecodedInstr, DecodedProgram, TimingClass};
pub use memory::DataMemory;
pub use processor::{HaltCause, Processor, RunSummary};
pub use timing::TimingModel;
pub use trace::{TraceEntry, Tracer};
pub use trap::Trap;
pub use vector::VectorUnit;
