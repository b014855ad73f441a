//! One-shot batch hashing: many messages sharing the vector hardware.
//!
//! The paper's motivating workload (§1) is CRYSTALS-Kyber matrix
//! expansion, where many SHAKE128 calls process short inputs
//! (`seed ‖ row ‖ column`). With a backend whose hardware holds `SN`
//! Keccak states (paper Figures 5/6), all member sponges permute in a
//! single pass of the vector kernel.
//!
//! [`hash_batch`] is a thin wrapper over [`drive_stream`], the crate's
//! one multi-state driver: each [`BatchRequest`] becomes a
//! [`StreamOp::one_shot`] — absorb the message, pad, squeeze the output —
//! on a fresh [`SpongeState`]. Message and output lengths are free to
//! differ: finished requests drop out of the pack, so short messages
//! never pad out the schedule of long ones and every round is the
//! minimum `⌈live/SN⌉` passes.

use crate::backend::PermutationBackend;
use crate::sponge::{SpongeParams, SpongeState};
use crate::stream::{drive_stream, StreamItem, StreamOp};

/// One job for [`hash_batch`]: a message and the number of output bytes
/// wanted for it.
#[derive(Debug, Clone, Copy)]
pub struct BatchRequest<'a> {
    /// The message to absorb.
    pub message: &'a [u8],
    /// Output bytes to squeeze.
    pub output_len: usize,
}

impl<'a> BatchRequest<'a> {
    /// Creates a request.
    pub const fn new(message: &'a [u8], output_len: usize) -> Self {
        Self {
            message,
            output_len,
        }
    }
}

/// Hashes an arbitrary mixed-length message set through one
/// [`drive_stream`] call, packing the live Keccak states into as few
/// backend permutation calls as the work allows.
///
/// Each request is hashed exactly as a standalone sponge with `params`
/// would hash it (there are property tests pinning equality with
/// [`crate::Sponge`] and the `Sha3_*`/`Shake*` functions); only the
/// *scheduling* differs. Results are returned in request order.
///
/// With a wide backend (a `VectorKeccakEngine` or an `EnginePool` from
/// `krv-core`), every round permutes all live states in `⌈live/SN⌉`
/// hardware passes.
///
/// # Example
///
/// ```
/// use krv_sha3::{hash_batch, BatchRequest, ReferenceBackend, Shake128, SpongeParams};
///
/// let requests = [
///     BatchRequest::new(b"short", 32),
///     BatchRequest::new(b"a somewhat longer message", 16),
/// ];
/// let outputs = hash_batch(SpongeParams::shake(128), ReferenceBackend::new(), &requests);
/// assert_eq!(outputs[0], Shake128::digest(b"short", 32));
/// assert_eq!(outputs[1], Shake128::digest(b"a somewhat longer message", 16));
/// ```
pub fn hash_batch<B: PermutationBackend>(
    params: SpongeParams,
    mut backend: B,
    requests: &[BatchRequest<'_>],
) -> Vec<Vec<u8>> {
    let mut states = vec![SpongeState::new(params); requests.len()];
    let mut outputs: Vec<Vec<u8>> = requests
        .iter()
        .map(|request| vec![0u8; request.output_len])
        .collect();
    let mut items: Vec<StreamItem<'_>> = states
        .iter_mut()
        .zip(requests)
        .zip(&mut outputs)
        .map(|((state, request), out)| StreamItem {
            state,
            op: StreamOp::one_shot(request.message, out),
        })
        .collect();
    drive_stream(&mut backend, &mut items);
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ReferenceBackend;
    use crate::functions::Shake128;
    use krv_keccak::KeccakState;

    /// A reference backend that records how many states each
    /// `permute_all` call carried (to check schedule density).
    struct CountingBackend {
        calls: Vec<usize>,
    }

    impl CountingBackend {
        fn new() -> Self {
            Self { calls: Vec::new() }
        }
    }

    impl PermutationBackend for CountingBackend {
        fn permute_all(&mut self, states: &mut [KeccakState]) {
            self.calls.push(states.len());
            ReferenceBackend::new().permute_all(states);
        }
    }

    #[test]
    fn hash_batch_matches_individual_mixed_lengths() {
        let messages: Vec<Vec<u8>> = [0usize, 1, 167, 168, 169, 500, 1000]
            .iter()
            .map(|&len| (0..len).map(|i| (i * 31 + len) as u8).collect())
            .collect();
        let requests: Vec<BatchRequest<'_>> = messages
            .iter()
            .enumerate()
            .map(|(i, m)| BatchRequest::new(m, 16 + 40 * i))
            .collect();
        let outputs = hash_batch(SpongeParams::shake(128), ReferenceBackend::new(), &requests);
        for (request, output) in requests.iter().zip(&outputs) {
            assert_eq!(
                *output,
                Shake128::digest(request.message, request.output_len),
                "message len {}",
                request.message.len()
            );
        }
    }

    #[test]
    fn hash_batch_matches_sha3_domain() {
        let messages: Vec<Vec<u8>> = vec![b"".to_vec(), b"abc".to_vec(), vec![0x5A; 137]];
        let requests: Vec<BatchRequest<'_>> =
            messages.iter().map(|m| BatchRequest::new(m, 32)).collect();
        let outputs = hash_batch(SpongeParams::sha3(256), ReferenceBackend::new(), &requests);
        for (message, output) in messages.iter().zip(&outputs) {
            assert_eq!(*output, crate::Sha3_256::digest(message).to_vec());
        }
    }

    #[test]
    fn hash_batch_handles_edge_requests() {
        // Empty request list, zero-length outputs, empty messages.
        let none = hash_batch(SpongeParams::shake(128), ReferenceBackend::new(), &[]);
        assert!(none.is_empty());
        let requests = [BatchRequest::new(b"", 0), BatchRequest::new(b"x", 0)];
        let outputs = hash_batch(SpongeParams::shake(128), ReferenceBackend::new(), &requests);
        assert_eq!(outputs, vec![Vec::<u8>::new(); 2]);
    }

    #[test]
    fn finished_jobs_drain_out_of_the_schedule() {
        // One 1-block message and one 4-block message: the short job
        // must leave the pack once done instead of riding along.
        let rate = SpongeParams::shake(128).rate_bytes();
        let long = vec![7u8; 3 * rate + 10];
        let requests = [BatchRequest::new(b"tiny", 16), BatchRequest::new(&long, 16)];
        let mut backend = CountingBackend::new();
        let outputs = hash_batch(SpongeParams::shake(128), &mut backend, &requests);
        assert_eq!(outputs[0], Shake128::digest(b"tiny", 16));
        assert_eq!(outputs[1], Shake128::digest(&long, 16));
        // Round 1 permutes both states; the tiny job then finishes and
        // rounds 2..=4 carry only the long one.
        assert_eq!(backend.calls, vec![2, 1, 1, 1]);
    }

    #[test]
    fn schedule_work_is_the_per_message_minimum() {
        // Total states permuted must equal the sum over messages of
        // their standalone permutation counts — no lockstep padding.
        let params = SpongeParams::shake(256);
        let rate = params.rate_bytes();
        let messages: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 50 * i as usize]).collect();
        let requests: Vec<BatchRequest<'_>> = messages
            .iter()
            .map(|m| BatchRequest::new(m, 2 * rate + 3))
            .collect();
        let mut backend = CountingBackend::new();
        let _ = hash_batch(params, &mut backend, &requests);
        let expected: usize = messages
            .iter()
            .map(|m| m.len() / rate + 1 + 2) // absorb blocks + 2 extra squeezes
            .sum();
        assert_eq!(backend.calls.iter().sum::<usize>(), expected);
    }
}
