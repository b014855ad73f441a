//! Permutation backends: where Keccak-f\[1600\] actually executes.

use krv_keccak::{keccak_f1600, KeccakState};

/// A provider of the Keccak-f\[1600\] permutation for one or more states.
///
/// The sponge layer is agnostic about *how* the permutation runs: in pure
/// software ([`ReferenceBackend`]) or on the simulated SIMD RISC-V
/// processor with custom vector extensions (`krv_core::EngineBackend`),
/// which can permute up to `SN` states in a single invocation, the way the
/// paper's hardware does.
///
/// Implementations must apply the full 24-round permutation to **every**
/// state in `states`, in place.
pub trait PermutationBackend {
    /// Applies Keccak-f\[1600\] to every state in `states`.
    fn permute_all(&mut self, states: &mut [KeccakState]);

    /// Applies Keccak-f\[1600\] to a single state.
    fn permute(&mut self, state: &mut KeccakState) {
        self.permute_all(core::slice::from_mut(state));
    }

    /// The number of states this backend can process in one hardware
    /// permutation pass (`SN` in the paper). Purely informational; any
    /// slice length must be accepted by [`Self::permute_all`].
    fn parallel_states(&self) -> usize {
        1
    }

    /// A short human-readable label naming the backend (tier accounting,
    /// bench rows, pass-matrix keys).
    fn label(&self) -> String {
        "backend".to_string()
    }
}

/// A backend whose hardware (or kernel) natively processes fixed-width
/// *groups* of states: `N` sponge states advance through one physical
/// permutation call together.
///
/// [`PermutationBackend::permute_all`] already accepts any slice length,
/// but it hides the grouping — a scheduler packing work for such a
/// backend cannot see where the group boundaries fall. This super-trait
/// exposes them: [`Self::lane_width`] is the native group size `N`, and
/// [`Self::permute_group`] runs exactly one full group, so callers that
/// *can* align their batches (the sponge driver, the
/// serving tier) express "N states at once" natively instead of looping
/// state by state.
///
/// [`permute_all_grouped`] is the canonical driver: full groups through
/// [`Self::permute_group`], the ragged tail through
/// [`PermutationBackend::permute_all`].
pub trait BatchPermutationBackend: PermutationBackend {
    /// The native group width `N`.
    fn lane_width(&self) -> usize;

    /// Permutes exactly one native group.
    ///
    /// # Panics
    ///
    /// Implementations panic if `states.len() != self.lane_width()`.
    fn permute_group(&mut self, states: &mut [KeccakState]);
}

/// Drives a [`BatchPermutationBackend`] over an arbitrary slice: every
/// full `lane_width()` group goes through one [`permute_group`] call and
/// the ragged tail falls back to [`permute_all`].
///
/// [`permute_group`]: BatchPermutationBackend::permute_group
/// [`permute_all`]: PermutationBackend::permute_all
pub fn permute_all_grouped<B: BatchPermutationBackend + ?Sized>(
    backend: &mut B,
    states: &mut [KeccakState],
) {
    let width = backend.lane_width().max(1);
    let full = states.len() / width * width;
    let (groups, tail) = states.split_at_mut(full);
    for group in groups.chunks_mut(width) {
        backend.permute_group(group);
    }
    if !tail.is_empty() {
        backend.permute_all(tail);
    }
}

/// The software reference backend: runs the permutation from
/// [`krv_keccak`] sequentially on each state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReferenceBackend;

impl ReferenceBackend {
    /// Creates a reference backend.
    pub const fn new() -> Self {
        Self
    }
}

impl PermutationBackend for ReferenceBackend {
    fn permute_all(&mut self, states: &mut [KeccakState]) {
        for state in states {
            keccak_f1600(state);
        }
    }

    fn label(&self) -> String {
        "reference".to_string()
    }
}

impl BatchPermutationBackend for ReferenceBackend {
    fn lane_width(&self) -> usize {
        1
    }

    fn permute_group(&mut self, states: &mut [KeccakState]) {
        assert_eq!(states.len(), 1, "reference groups are single states");
        keccak_f1600(&mut states[0]);
    }
}

impl<B: PermutationBackend + ?Sized> PermutationBackend for &mut B {
    fn permute_all(&mut self, states: &mut [KeccakState]) {
        (**self).permute_all(states);
    }

    fn parallel_states(&self) -> usize {
        (**self).parallel_states()
    }

    fn label(&self) -> String {
        (**self).label()
    }
}

impl<B: PermutationBackend + ?Sized> PermutationBackend for Box<B> {
    fn permute_all(&mut self, states: &mut [KeccakState]) {
        (**self).permute_all(states);
    }

    fn parallel_states(&self) -> usize {
        (**self).parallel_states()
    }

    fn label(&self) -> String {
        (**self).label()
    }
}

impl<B: BatchPermutationBackend + ?Sized> BatchPermutationBackend for &mut B {
    fn lane_width(&self) -> usize {
        (**self).lane_width()
    }

    fn permute_group(&mut self, states: &mut [KeccakState]) {
        (**self).permute_group(states);
    }
}

impl<B: BatchPermutationBackend + ?Sized> BatchPermutationBackend for Box<B> {
    fn lane_width(&self) -> usize {
        (**self).lane_width()
    }

    fn permute_group(&mut self, states: &mut [KeccakState]) {
        (**self).permute_group(states);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_backend_matches_direct_permutation() {
        let mut a = KeccakState::new();
        a.set_lane(2, 3, 42);
        let mut b = a;
        ReferenceBackend::new().permute(&mut a);
        keccak_f1600(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn permute_all_handles_many_states() {
        let mut states = vec![KeccakState::new(); 7];
        for (i, s) in states.iter_mut().enumerate() {
            s.set_lane(0, 0, i as u64);
        }
        let mut expected = states.clone();
        ReferenceBackend::new().permute_all(&mut states);
        for s in &mut expected {
            keccak_f1600(s);
        }
        assert_eq!(states, expected);
    }

    #[test]
    fn boxed_and_dynamic_backends_work() {
        // The Box blanket impl lets callers pick a backend at run time
        // behind `Box<dyn PermutationBackend>`.
        let mut boxed: Box<dyn PermutationBackend> = Box::new(ReferenceBackend::new());
        let mut a = KeccakState::new();
        a.set_lane(1, 1, 7);
        let mut b = a;
        boxed.permute(&mut a);
        keccak_f1600(&mut b);
        assert_eq!(a, b);
        assert_eq!(boxed.parallel_states(), 1);
    }

    #[test]
    fn grouped_driver_splits_full_groups_and_tail() {
        /// Width-3 wrapper that records how each call arrived.
        struct Grouped {
            group_calls: Vec<usize>,
            tail_calls: Vec<usize>,
        }

        impl PermutationBackend for Grouped {
            fn permute_all(&mut self, states: &mut [KeccakState]) {
                self.tail_calls.push(states.len());
                ReferenceBackend::new().permute_all(states);
            }
        }

        impl BatchPermutationBackend for Grouped {
            fn lane_width(&self) -> usize {
                3
            }

            fn permute_group(&mut self, states: &mut [KeccakState]) {
                assert_eq!(states.len(), 3);
                self.group_calls.push(states.len());
                ReferenceBackend::new().permute_all(states);
            }
        }

        let mut backend = Grouped {
            group_calls: Vec::new(),
            tail_calls: Vec::new(),
        };
        let mut states = vec![KeccakState::new(); 8];
        for (i, s) in states.iter_mut().enumerate() {
            s.set_lane(0, 0, i as u64);
        }
        let mut expected = states.clone();
        permute_all_grouped(&mut backend, &mut states);
        ReferenceBackend::new().permute_all(&mut expected);
        assert_eq!(states, expected);
        assert_eq!(backend.group_calls, vec![3, 3], "two full groups");
        assert_eq!(backend.tail_calls, vec![2], "one ragged tail");
    }

    #[test]
    fn reference_is_a_width_one_batch_backend() {
        let mut backend = ReferenceBackend::new();
        assert_eq!(backend.lane_width(), 1);
        assert_eq!(backend.label(), "reference");
        let mut states = vec![KeccakState::new(); 5];
        let mut expected = states.clone();
        permute_all_grouped(&mut backend, &mut states);
        for s in &mut expected {
            keccak_f1600(s);
        }
        assert_eq!(states, expected);
    }

    #[test]
    fn labels_propagate_through_wrappers() {
        let mut backend = ReferenceBackend::new();
        assert_eq!(PermutationBackend::label(&&mut backend), "reference");
        let boxed: Box<dyn PermutationBackend> = Box::new(ReferenceBackend::new());
        assert_eq!(boxed.label(), "reference");
    }

    #[test]
    fn backend_usable_through_mut_reference() {
        fn run(mut backend: impl PermutationBackend) -> KeccakState {
            let mut state = KeccakState::new();
            backend.permute(&mut state);
            state
        }
        let mut backend = ReferenceBackend::new();
        let via_ref = run(&mut backend);
        let direct = run(ReferenceBackend::new());
        assert_eq!(via_ref, direct);
    }
}
