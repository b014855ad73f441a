//! `keccak-rvv` — custom RISC-V vector extensions for speeding up SHA-3.
//!
//! A complete Rust reproduction of *"Maximizing the Potential of Custom
//! RISC-V Vector Extensions for Speeding up SHA-3 Hash Functions"*
//! (Li, Mentens, Picek — DATE 2023): the ten custom vector instructions,
//! the scalable SIMD RISC-V processor they extend (as a cycle-accurate
//! simulator), the three Keccak kernels that use them, the full SHA-3 /
//! SHAKE stack on top, and the benchmark harness that regenerates the
//! paper's evaluation tables.
//!
//! This crate is a facade: it re-exports the workspace members.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`keccak`] | `krv-keccak` | reference Keccak-f\[1600\] and step mappings |
//! | [`sha3`] | `krv-sha3` | sponge, SHA3-*, SHAKE*, batch hashing |
//! | [`isa`] | `krv-isa` | RV32IM + RVV subset + custom instruction model |
//! | [`asm`] | `krv-asm` | assembler and disassembler |
//! | [`vproc`] | `krv-vproc` | the SIMD processor simulator |
//! | [`core`] | `krv-core` | the vector Keccak kernels and engine |
//! | [`baselines`] | `krv-baselines` | scalar Ibex baseline, published comparators |
//! | [`kyber`] | `krv-kyber` | FIPS 203 ML-KEM as staged, batchable hash rounds (the paper's future-work workload) |
//! | [`area`] | `krv-area` | FPGA slice model |
//! | [`service`] | `krv-service` | continuous-batching hashing service over the engine pool |
//! | [`server`] | `krv-server` | remote hashing daemon: framed TCP wire protocol, server, client |
//!
//! # Quickstart
//!
//! ```
//! use keccak_rvv::core::{KernelKind, VectorKeccakEngine};
//! use keccak_rvv::sha3::Sha3_256;
//!
//! // Hash on the simulated SIMD processor with custom vector extensions.
//! let engine = VectorKeccakEngine::new(KernelKind::E64Lmul8, 1);
//! let mut hasher = Sha3_256::with_backend(engine);
//! hasher.update(b"abc");
//! let digest = hasher.finalize();
//! assert_eq!(
//!     keccak_rvv::sha3::hex(&digest),
//!     "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use krv_area as area;
pub use krv_asm as asm;
pub use krv_baselines as baselines;
pub use krv_core as core;
pub use krv_isa as isa;
pub use krv_keccak as keccak;
pub use krv_kyber as kyber;
pub use krv_server as server;
pub use krv_service as service;
pub use krv_sha3 as sha3;
pub use krv_vproc as vproc;
