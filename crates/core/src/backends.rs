//! Backend enumeration: every way this workspace can run Keccak-f\[1600\].
//!
//! After the pooled/pre-decoded restructuring the repo has several
//! distinct execution paths for the permutation — the scalar reference,
//! the vector kernels through [`VectorKeccakEngine::permute_slice`]
//! (each reachable through the compiled tier *and* the per-instruction
//! interpreter), the device-resident
//! [`EngineSession`](crate::EngineSession) path, the multi-worker
//! [`EnginePool`], and the host-native kernel. The conformance tooling
//! needs to hold *all* of them to the same correctness bar, so this
//! module gives each variant a name ([`BackendKind`]) and a uniform
//! constructor ([`BackendKind::instantiate`]) returning a boxed
//! [`PermutationBackend`].
//!
//! [`SessionBackend`] adapts the session API (load once, permute, read
//! back) to the `PermutationBackend` trait so the device-resident code
//! path is reachable from the sponge and batch layers like any other
//! backend.

use crate::engine::{KernelKind, VectorKeccakEngine};
use crate::pool::EnginePool;
use krv_keccak::KeccakState;
use krv_native::{LaneWidth, NativeBackend};
use krv_sha3::{PermutationBackend, ReferenceBackend};

/// A [`PermutationBackend`] that routes every pass through the
/// device-resident [`EngineSession`](crate::EngineSession) API
/// (`load` → `permute` → `read`) instead of
/// [`VectorKeccakEngine::permute_slice`].
///
/// Functionally the two must be indistinguishable — that is exactly what
/// the conformance suite checks by running both.
#[derive(Debug)]
pub struct SessionBackend {
    engine: VectorKeccakEngine,
}

impl SessionBackend {
    /// Creates a session-path backend over a fresh engine.
    ///
    /// # Panics
    ///
    /// Panics if `sn` is zero.
    pub fn new(kind: KernelKind, sn: usize) -> Self {
        Self {
            engine: VectorKeccakEngine::new(kind, sn),
        }
    }

    /// The wrapped engine (diagnostics).
    pub fn engine(&self) -> &VectorKeccakEngine {
        &self.engine
    }
}

impl PermutationBackend for SessionBackend {
    fn permute_all(&mut self, states: &mut [KeccakState]) {
        let capacity = self.engine.capacity();
        for chunk in states.chunks_mut(capacity) {
            let mut session = self.engine.session();
            session.load(chunk).expect("staging must stay in bounds");
            session.permute().expect("validated kernel must not trap");
            session.read(chunk).expect("read-back must stay in bounds");
        }
    }

    fn parallel_states(&self) -> usize {
        self.engine.capacity()
    }
}

/// Every permutation-backend variant the workspace ships, as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The sequential software reference ([`ReferenceBackend`]).
    Reference,
    /// A single [`VectorKeccakEngine`] driven through `permute_slice`
    /// on the compiled execution tier ([`VectorKeccakEngine::new`]).
    Engine(KernelKind),
    /// A single engine pinned to the per-instruction stepper, the
    /// element-serial reference
    /// ([`VectorKeccakEngine::with_compiled`]`(.., false)`). Paired with
    /// [`BackendKind::Engine`] this puts both execution paths of the
    /// same kernel in the matrix, so a compiled-tier bug shows up as a
    /// row disagreement.
    Interpreted(KernelKind),
    /// A single engine driven through the device-resident session path.
    Session(KernelKind),
    /// An [`EnginePool`] with the given worker count.
    Pool {
        /// Kernel every worker runs.
        kind: KernelKind,
        /// Number of worker engines.
        workers: usize,
    },
    /// The host-native word-parallel kernel ([`NativeBackend`]) pinned
    /// to a lane width.
    Native(LaneWidth),
}

impl BackendKind {
    /// The conformance roster: the scalar reference, the paper's vector
    /// kernels through both execution tiers (compiled and interpreted),
    /// the session path, pools at 1, 2 and 4 workers, and the
    /// host-native kernel at every compiled lane width. Every variant in
    /// this list must produce bit-identical output for every input.
    pub fn conformance_roster() -> Vec<BackendKind> {
        let mut roster = vec![BackendKind::Reference];
        for kind in KernelKind::ALL {
            roster.push(BackendKind::Engine(kind));
        }
        for kind in KernelKind::ALL {
            roster.push(BackendKind::Interpreted(kind));
        }
        roster.push(BackendKind::Session(KernelKind::E64Lmul8));
        for workers in [1, 2, 4] {
            roster.push(BackendKind::Pool {
                kind: KernelKind::E64Lmul8,
                workers,
            });
        }
        for width in LaneWidth::ALL {
            roster.push(BackendKind::Native(width));
        }
        roster
    }

    /// A short stable label (used as the row key of the pass matrix).
    pub fn label(&self) -> String {
        match self {
            BackendKind::Reference => "reference".to_string(),
            BackendKind::Engine(kind) => format!("engine/{}", kind_tag(*kind)),
            BackendKind::Interpreted(kind) => format!("interp/{}", kind_tag(*kind)),
            BackendKind::Session(kind) => format!("session/{}", kind_tag(*kind)),
            BackendKind::Pool { kind, workers } => {
                format!("pool/{}x{workers}", kind_tag(*kind))
            }
            BackendKind::Native(width) => format!("native/{}", width.tag()),
        }
    }

    /// Instantiates the backend with `sn` states per engine pass
    /// (ignored by [`BackendKind::Reference`]).
    ///
    /// # Panics
    ///
    /// Panics if `sn` is zero (for the engine-backed variants) or the
    /// pool worker count is zero.
    pub fn instantiate(&self, sn: usize) -> Box<dyn PermutationBackend> {
        match *self {
            BackendKind::Reference => Box::new(ReferenceBackend::new()),
            BackendKind::Engine(kind) => Box::new(VectorKeccakEngine::new(kind, sn)),
            BackendKind::Interpreted(kind) => {
                Box::new(VectorKeccakEngine::with_compiled(kind, sn, false))
            }
            BackendKind::Session(kind) => Box::new(SessionBackend::new(kind, sn)),
            BackendKind::Pool { kind, workers } => Box::new(EnginePool::new(kind, sn, workers)),
            BackendKind::Native(width) => Box::new(NativeBackend::with_width(width)),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A terse tag per kernel kind for labels (`e64m1`, `e64m8`, `e32m8`…).
fn kind_tag(kind: KernelKind) -> &'static str {
    match kind {
        KernelKind::E64Lmul1 => "e64m1",
        KernelKind::E64Lmul8 => "e64m8",
        KernelKind::E32Lmul8 => "e32m8",
        KernelKind::E64Lmul41 => "e64m4+1",
        KernelKind::E64Fused => "e64fused",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krv_keccak::keccak_f1600;

    #[test]
    fn session_backend_matches_reference() {
        let mut backend = SessionBackend::new(KernelKind::E64Lmul8, 2);
        // 5 states: chunked as 2 + 2 + 1 through the session path.
        let mut states: Vec<KeccakState> = (0..5)
            .map(|i| {
                let mut lanes = [0u64; 25];
                for (j, lane) in lanes.iter_mut().enumerate() {
                    *lane = (i as u64 + 1).wrapping_mul(0x1234_5678_9ABC_DEF1) ^ (j as u64) << 7;
                }
                KeccakState::from_lanes(lanes)
            })
            .collect();
        let mut expected = states.clone();
        backend.permute_all(&mut states);
        for state in &mut expected {
            keccak_f1600(state);
        }
        assert_eq!(states, expected);
        assert_eq!(backend.parallel_states(), 2);
    }

    #[test]
    fn roster_contains_every_required_variant() {
        let roster = BackendKind::conformance_roster();
        assert!(roster.contains(&BackendKind::Reference));
        for kind in KernelKind::ALL {
            assert!(roster.contains(&BackendKind::Engine(kind)), "{kind}");
            assert!(roster.contains(&BackendKind::Interpreted(kind)), "{kind}");
        }
        assert!(roster.contains(&BackendKind::Session(KernelKind::E64Lmul8)));
        for workers in [1, 2, 4] {
            assert!(roster.contains(&BackendKind::Pool {
                kind: KernelKind::E64Lmul8,
                workers,
            }));
        }
        for width in LaneWidth::ALL {
            assert!(roster.contains(&BackendKind::Native(width)), "{width}");
        }
        // Labels are unique — they key the pass matrix.
        let mut labels: Vec<String> = roster.iter().map(|b| b.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), roster.len());
    }

    #[test]
    fn every_roster_backend_permutes_correctly() {
        let mut input = KeccakState::new();
        input.set_lane(3, 1, 0xDEAD_BEEF_0BAD_F00D);
        let mut expected = input;
        keccak_f1600(&mut expected);
        for kind in BackendKind::conformance_roster() {
            let mut backend = kind.instantiate(2);
            let mut state = input;
            backend.permute(&mut state);
            assert_eq!(state, expected, "{kind}");
        }
    }
}
