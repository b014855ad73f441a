//! The paper's contribution: custom-vector-extension Keccak kernels and
//! the multi-state permutation engine.
//!
//! Three kernels drive the Keccak-f\[1600\] permutation on the simulated
//! SIMD processor of [`krv_vproc`], exactly as in the paper:
//!
//! * [`KernelKind::E64Lmul1`] — the 64-bit architecture with LMUL = 1
//!   (paper Algorithm 2): 103 cycles per round.
//! * [`KernelKind::E64Lmul8`] — the 64-bit architecture with LMUL = 8 for
//!   ρ, π, χ (paper Algorithm 3): 75 cycles per round.
//! * [`KernelKind::E32Lmul8`] — the 32-bit architecture with high/low
//!   lane splitting (paper §3.2, §4.1): 147 cycles per round.
//!
//! Each kernel is generated as assembly text ([`programs`]), assembled
//! with [`krv_asm`], and executed by [`VectorKeccakEngine`], which holds
//! `SN` Keccak states in the vector register file simultaneously (paper
//! Figures 5 and 6) and permutes them all in one pass. The engine
//! implements [`krv_sha3::PermutationBackend`], so every SHA-3 function
//! and the batch API run unchanged on the simulated hardware.
//!
//! # Example
//!
//! ```
//! use krv_core::{KernelKind, VectorKeccakEngine};
//! use krv_keccak::{KeccakState, keccak_f1600};
//!
//! // Three states in parallel on the 64-bit LMUL=8 architecture.
//! let mut engine = VectorKeccakEngine::new(KernelKind::E64Lmul8, 3);
//! let mut states = vec![KeccakState::new(); 3];
//! states[1].set_lane(0, 0, 1);
//! states[2].set_lane(4, 4, 2);
//! let mut expected = states.clone();
//!
//! engine.permute_slice(&mut states).unwrap();
//! for state in &mut expected {
//!     keccak_f1600(state);
//! }
//! assert_eq!(states, expected);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backends;
pub mod cache;
pub mod device;
pub mod engine;
pub mod layout;
pub mod metrics;
pub mod pool;
pub mod programs;
pub mod stats;

pub use backends::{BackendKind, SessionBackend};
pub use cache::{prepared_kernel, PreparedKernel};
pub use device::DeviceSponge;
pub use engine::{EngineSession, KernelKind, VectorKeccakEngine};
pub use metrics::KernelMetrics;
pub use pool::{EngineLoad, EnginePool, PoolError, PoolMetrics};
pub use programs::{KernelProgram, ProgramMarkers};
pub use stats::RoundBreakdown;
