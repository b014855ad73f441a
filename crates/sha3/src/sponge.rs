//! The sponge construction (paper Figure 1): padding, absorbing, squeezing.

use crate::backend::PermutationBackend;
use krv_keccak::constants::STATE_BYTES;
use krv_keccak::KeccakState;

/// Domain-separation suffix appended before the pad10*1 padding.
///
/// FIPS 202 distinguishes the hash functions from the XOFs by two extra
/// bits; combined with the first padding bit these become the byte values
/// below (bits appended LSB-first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainSeparator {
    /// SHA-3 hash functions: suffix bits `01`, padded byte `0x06`.
    Sha3,
    /// SHAKE extendable-output functions: suffix bits `1111`, `0x1F`.
    Shake,
    /// cSHAKE with non-empty N/S (SP 800-185): suffix bits `00`, `0x04`.
    CShake,
    /// Raw Keccak (pre-FIPS padding): no suffix bits, padded byte `0x01`.
    Keccak,
}

impl DomainSeparator {
    /// The first padding byte: domain bits followed by the initial `1`
    /// bit of pad10*1.
    pub const fn first_pad_byte(self) -> u8 {
        match self {
            DomainSeparator::Sha3 => 0x06,
            DomainSeparator::Shake => 0x1F,
            DomainSeparator::CShake => 0x04,
            DomainSeparator::Keccak => 0x01,
        }
    }
}

/// Rate/capacity parameters of a sponge instance.
///
/// `rate + capacity = 1600` bits; the rate is the number of message bytes
/// absorbed or squeezed per permutation call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpongeParams {
    rate_bytes: usize,
    domain: DomainSeparator,
}

impl SpongeParams {
    /// Creates sponge parameters from a rate in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bytes` is zero or not smaller than the 200-byte
    /// state (a sponge needs non-zero capacity).
    pub fn new(rate_bytes: usize, domain: DomainSeparator) -> Self {
        assert!(
            rate_bytes > 0 && rate_bytes < STATE_BYTES,
            "rate must be in 1..200 bytes, got {rate_bytes}"
        );
        Self { rate_bytes, domain }
    }

    /// Parameters for a SHA-3 hash with `digest_bits` output: capacity is
    /// twice the digest length.
    ///
    /// # Panics
    ///
    /// Panics if `digest_bits` is not a positive multiple of 8 smaller
    /// than 800.
    pub fn sha3(digest_bits: usize) -> Self {
        assert!(
            digest_bits > 0 && digest_bits.is_multiple_of(8) && digest_bits < 800,
            "unsupported SHA-3 digest length {digest_bits}"
        );
        Self::new(STATE_BYTES - 2 * digest_bits / 8, DomainSeparator::Sha3)
    }

    /// Parameters for SHAKE with `security_bits` strength (128 or 256).
    pub fn shake(security_bits: usize) -> Self {
        Self::new(STATE_BYTES - 2 * security_bits / 8, DomainSeparator::Shake)
    }

    /// The rate in bytes.
    pub const fn rate_bytes(&self) -> usize {
        self.rate_bytes
    }

    /// The capacity in bytes.
    pub const fn capacity_bytes(&self) -> usize {
        STATE_BYTES - self.rate_bytes
    }

    /// The domain separator.
    pub const fn domain(&self) -> DomainSeparator {
        self.domain
    }
}

/// The backend-free half of a sponge: parameters, Keccak state and
/// block-phase bookkeeping, with the permutation factored out.
///
/// [`Sponge`] pairs one of these with a [`PermutationBackend`] and
/// permutes eagerly whenever a rate block fills. A `SpongeState` on its
/// own instead *reports* when it owes a permutation
/// ([`SpongeState::needs_permute`]) and lets an external driver apply it
/// — which is what allows many sponges, streaming sessions and one-shot
/// hashes alike, to share one `permute_all` round (see
/// [`crate::stream::drive_stream`]): the driver advances every state's
/// host-side byte work, packs exactly the states that stalled on a
/// permutation, and permutes them in one backend call.
///
/// The step methods ([`absorb_step`], [`finalize_pad`],
/// [`squeeze_step`]) each run until the next block boundary; the `_with`
/// convenience methods loop them against a borrowed backend and match
/// [`Sponge`] byte for byte.
///
/// [`absorb_step`]: SpongeState::absorb_step
/// [`finalize_pad`]: SpongeState::finalize_pad
/// [`squeeze_step`]: SpongeState::squeeze_step
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpongeState {
    params: SpongeParams,
    state: KeccakState,
    /// Bytes absorbed into the current partial block.
    absorbed: usize,
    /// Squeeze offset within the current output block; `None` while
    /// absorbing. `Some(rate)` means the current block is exhausted and
    /// a permutation is owed before more output can be read.
    squeeze_offset: Option<usize>,
}

impl SpongeState {
    /// Creates an empty sponge state.
    pub fn new(params: SpongeParams) -> Self {
        Self {
            params,
            state: KeccakState::new(),
            absorbed: 0,
            squeeze_offset: None,
        }
    }

    /// The sponge parameters.
    pub fn params(&self) -> SpongeParams {
        self.params
    }

    /// Read access to the Keccak state.
    pub fn state(&self) -> &KeccakState {
        &self.state
    }

    /// Mutable access to the Keccak state — this is how an external
    /// driver applies the permutation the state is waiting for (followed
    /// by [`SpongeState::note_permuted`]).
    pub fn state_mut(&mut self) -> &mut KeccakState {
        &mut self.state
    }

    /// Whether [`SpongeState::finalize_pad`] has run (the state is in
    /// its squeeze phase).
    pub fn squeezing(&self) -> bool {
        self.squeeze_offset.is_some()
    }

    /// Whether the state owes a permutation before any further absorb or
    /// squeeze progress is possible.
    pub fn needs_permute(&self) -> bool {
        match self.squeeze_offset {
            None => self.absorbed == self.params.rate_bytes,
            Some(offset) => offset == self.params.rate_bytes,
        }
    }

    /// Records that the owed permutation has been applied to
    /// [`SpongeState::state_mut`], resetting the block cursor.
    ///
    /// # Panics
    ///
    /// Panics if no permutation was owed: "permuted without need" would
    /// silently corrupt the stream.
    pub fn note_permuted(&mut self) {
        assert!(self.needs_permute(), "no permutation was owed");
        match &mut self.squeeze_offset {
            None => self.absorbed = 0,
            Some(offset) => *offset = 0,
        }
    }

    /// XORs message bytes into the current rate block, stopping at the
    /// block boundary. Returns the number of bytes consumed; if the
    /// block filled, [`SpongeState::needs_permute`] turns true and the
    /// driver must permute before absorbing the rest.
    ///
    /// # Panics
    ///
    /// Panics if squeezing has started (a FIPS-202 sponge is not duplex)
    /// or if a permutation is owed.
    pub fn absorb_step(&mut self, data: &[u8]) -> usize {
        assert!(
            self.squeeze_offset.is_none(),
            "cannot absorb after squeezing has started"
        );
        assert!(!self.needs_permute(), "permute before absorbing more");
        let rate = self.params.rate_bytes;
        let take = (rate - self.absorbed).min(data.len());
        self.state.xor_bytes_at(self.absorbed, &data[..take]);
        self.absorbed += take;
        take
    }

    /// Applies domain separation and pad10*1, ending the absorb phase.
    /// The state then owes exactly one permutation, after which squeezing
    /// can begin.
    ///
    /// # Panics
    ///
    /// Panics if already finalized or if a permutation is owed.
    pub fn finalize_pad(&mut self) {
        assert!(self.squeeze_offset.is_none(), "already finalized");
        assert!(!self.needs_permute(), "permute before padding");
        let rate = self.params.rate_bytes;
        // The domain bits and pad10*1's first `1`, then its last `1`;
        // they share a byte when one byte of the block is left, and no
        // first pad byte has the top bit set, so XOR composes them.
        self.state
            .xor_bytes_at(self.absorbed, &[self.params.domain.first_pad_byte()]);
        self.state.xor_bytes_at(rate - 1, &[0x80]);
        self.absorbed = 0;
        self.squeeze_offset = Some(rate);
    }

    /// Copies output bytes from the current squeeze block into `out`,
    /// stopping at the block boundary. Returns the number of bytes
    /// written; if the block drained before `out` filled, the driver
    /// must permute before squeezing the rest.
    ///
    /// # Panics
    ///
    /// Panics if [`SpongeState::finalize_pad`] has not run or if a
    /// permutation is owed.
    pub fn squeeze_step(&mut self, out: &mut [u8]) -> usize {
        let offset = self.squeeze_offset.expect("finalize_pad before squeezing");
        assert!(!self.needs_permute(), "permute before squeezing more");
        let rate = self.params.rate_bytes;
        let take = (rate - offset).min(out.len());
        self.state.read_bytes_at(offset, &mut out[..take]);
        self.squeeze_offset = Some(offset + take);
        take
    }

    /// Absorbs all of `data`, permuting through `backend` at each block
    /// boundary (the synchronous single-state driver).
    pub fn absorb_with<B: PermutationBackend>(&mut self, backend: &mut B, mut data: &[u8]) {
        loop {
            let took = self.absorb_step(data);
            data = &data[took..];
            if self.needs_permute() {
                backend.permute(&mut self.state);
                self.note_permuted();
            }
            if data.is_empty() {
                break;
            }
        }
    }

    /// Pads and permutes so that squeezing can begin. No-op if already
    /// finalized.
    pub fn finalize_with<B: PermutationBackend>(&mut self, backend: &mut B) {
        if self.squeeze_offset.is_some() {
            return;
        }
        self.finalize_pad();
        backend.permute(&mut self.state);
        self.note_permuted();
    }

    /// Squeezes exactly `out.len()` bytes, finalizing first if needed.
    pub fn squeeze_into_with<B: PermutationBackend>(&mut self, backend: &mut B, out: &mut [u8]) {
        self.finalize_with(backend);
        let mut written = 0;
        while written < out.len() {
            if self.needs_permute() {
                backend.permute(&mut self.state);
                self.note_permuted();
            }
            written += self.squeeze_step(&mut out[written..]);
        }
    }
}

/// An incremental Keccak sponge over a permutation backend.
///
/// Drives the three phases of paper Figure 1: message bytes are absorbed
/// `rate` bytes at a time (with a permutation between blocks), the final
/// partial block is padded with pad10*1 plus the domain suffix, and output
/// is squeezed `rate` bytes per permutation.
///
/// Internally this is a [`SpongeState`] (the backend-free core a
/// service stream operation carries across micro-batches) paired with an owned
/// backend that permutes eagerly at every block boundary.
///
/// # Example
///
/// ```
/// use krv_sha3::{Sponge, SpongeParams, DomainSeparator, ReferenceBackend};
///
/// let params = SpongeParams::sha3(256);
/// let mut sponge = Sponge::new(params, ReferenceBackend::new());
/// sponge.absorb(b"abc");
/// let digest = sponge.squeeze(32);
/// assert_eq!(digest.len(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct Sponge<B> {
    core: SpongeState,
    backend: B,
}

impl<B: PermutationBackend> Sponge<B> {
    /// Creates an empty sponge with the given parameters and backend.
    pub fn new(params: SpongeParams, backend: B) -> Self {
        Self {
            core: SpongeState::new(params),
            backend,
        }
    }

    /// Resumes a sponge from a previously detached [`SpongeState`].
    pub fn from_state(core: SpongeState, backend: B) -> Self {
        Self { core, backend }
    }

    /// The sponge parameters.
    pub fn params(&self) -> SpongeParams {
        self.core.params()
    }

    /// Read access to the internal state (for tests and diagnostics).
    pub fn state(&self) -> &KeccakState {
        self.core.state()
    }

    /// Absorbs message bytes.
    ///
    /// # Panics
    ///
    /// Panics if called after squeezing has started: a FIPS-202 sponge is
    /// not duplex; absorb-after-squeeze is almost always a bug.
    pub fn absorb(&mut self, data: &[u8]) {
        self.core.absorb_with(&mut self.backend, data);
    }

    /// Applies domain separation and pad10*1, finishing the absorb phase.
    ///
    /// Called automatically by the first [`Sponge::squeeze`]; exposed for
    /// callers that want to observe the padded pre-squeeze state.
    pub fn finalize_absorb(&mut self) {
        self.core.finalize_with(&mut self.backend);
    }

    /// Squeezes `len` output bytes, permuting between rate-sized blocks.
    ///
    /// May be called repeatedly; output continues where the previous call
    /// stopped (XOF behaviour).
    pub fn squeeze(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.squeeze_into(&mut out);
        out
    }

    /// Squeezes exactly `out.len()` bytes into `out`.
    pub fn squeeze_into(&mut self, out: &mut [u8]) {
        self.core.squeeze_into_with(&mut self.backend, out);
    }

    /// Detaches the backend-free [`SpongeState`], discarding the backend.
    pub fn into_state(self) -> SpongeState {
        self.core
    }

    /// Consumes the sponge and returns its backend.
    pub fn into_backend(self) -> B {
        self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ReferenceBackend;

    fn sha3_256_digest(msg: &[u8]) -> Vec<u8> {
        let mut sponge = Sponge::new(SpongeParams::sha3(256), ReferenceBackend::new());
        sponge.absorb(msg);
        sponge.squeeze(32)
    }

    #[test]
    fn params_rates_match_fips202() {
        assert_eq!(SpongeParams::sha3(224).rate_bytes(), 144);
        assert_eq!(SpongeParams::sha3(256).rate_bytes(), 136);
        assert_eq!(SpongeParams::sha3(384).rate_bytes(), 104);
        assert_eq!(SpongeParams::sha3(512).rate_bytes(), 72);
        assert_eq!(SpongeParams::shake(128).rate_bytes(), 168);
        assert_eq!(SpongeParams::shake(256).rate_bytes(), 136);
    }

    #[test]
    fn capacity_complements_rate() {
        let p = SpongeParams::sha3(256);
        assert_eq!(p.rate_bytes() + p.capacity_bytes(), 200);
    }

    #[test]
    fn incremental_absorb_equals_oneshot() {
        let msg: Vec<u8> = (0..500u32).map(|i| i as u8).collect();
        let oneshot = sha3_256_digest(&msg);
        let mut sponge = Sponge::new(SpongeParams::sha3(256), ReferenceBackend::new());
        for chunk in msg.chunks(7) {
            sponge.absorb(chunk);
        }
        assert_eq!(sponge.squeeze(32), oneshot);
    }

    #[test]
    fn incremental_squeeze_equals_oneshot() {
        let mut a = Sponge::new(SpongeParams::shake(128), ReferenceBackend::new());
        a.absorb(b"squeeze me");
        let oneshot = a.squeeze(500);
        let mut b = Sponge::new(SpongeParams::shake(128), ReferenceBackend::new());
        b.absorb(b"squeeze me");
        let mut pieces = Vec::new();
        for len in [1, 2, 3, 94, 100, 300] {
            pieces.extend(b.squeeze(len));
        }
        assert_eq!(pieces, oneshot);
    }

    #[test]
    fn rate_boundary_message_lengths() {
        // Absorbing exactly rate, rate-1 and rate+1 bytes must all work
        // (the rate-exact case triggers the extra padding-only block).
        for len in [135usize, 136, 137, 272] {
            let msg = vec![0xA5u8; len];
            let digest = sha3_256_digest(&msg);
            assert_eq!(digest.len(), 32);
            // And must differ from neighbouring lengths.
            let other = sha3_256_digest(&vec![0xA5u8; len + 1]);
            assert_ne!(digest, other);
        }
    }

    #[test]
    #[should_panic(expected = "cannot absorb after squeezing")]
    fn absorb_after_squeeze_panics() {
        let mut sponge = Sponge::new(SpongeParams::sha3(256), ReferenceBackend::new());
        sponge.absorb(b"x");
        let _ = sponge.squeeze(1);
        sponge.absorb(b"y");
    }

    #[test]
    #[should_panic(expected = "rate must be in 1..200")]
    fn zero_rate_rejected() {
        let _ = SpongeParams::new(0, DomainSeparator::Sha3);
    }

    #[test]
    fn state_step_api_matches_sponge() {
        // Drive a SpongeState manually — absorb_step/finalize_pad/
        // squeeze_step with explicit permutations — and compare against
        // the eager Sponge on the same input.
        let msg: Vec<u8> = (0..400u16).map(|i| (i * 7) as u8).collect();
        let mut backend = ReferenceBackend::new();
        let mut state = SpongeState::new(SpongeParams::shake(256));
        let mut data = &msg[..];
        while !data.is_empty() {
            let took = state.absorb_step(data);
            data = &data[took..];
            if state.needs_permute() {
                backend.permute(state.state_mut());
                state.note_permuted();
            }
        }
        state.finalize_pad();
        assert!(state.needs_permute(), "pad owes one permutation");
        backend.permute(state.state_mut());
        state.note_permuted();
        let mut out = vec![0u8; 300];
        let mut written = 0;
        while written < out.len() {
            if state.needs_permute() {
                backend.permute(state.state_mut());
                state.note_permuted();
            }
            written += state.squeeze_step(&mut out[written..]);
        }
        let mut sponge = Sponge::new(SpongeParams::shake(256), ReferenceBackend::new());
        sponge.absorb(&msg);
        assert_eq!(out, sponge.squeeze(300));
    }

    #[test]
    fn detached_state_resumes_mid_stream() {
        // A sponge detached mid-absorb and resumed elsewhere (the
        // session table's lifecycle) must lose nothing.
        let mut sponge = Sponge::new(SpongeParams::sha3(256), ReferenceBackend::new());
        sponge.absorb(b"carried across ");
        let state = sponge.into_state();
        assert!(!state.squeezing());
        let mut resumed = Sponge::from_state(state, ReferenceBackend::new());
        resumed.absorb(b"micro-batches");
        assert_eq!(
            resumed.squeeze(32),
            sha3_256_digest(b"carried across micro-batches")
        );
    }

    #[test]
    fn convenience_drivers_match_sponge() {
        let msg = vec![0x3Cu8; 271];
        let mut state = SpongeState::new(SpongeParams::shake(128));
        let mut backend = ReferenceBackend::new();
        state.absorb_with(&mut backend, &msg);
        state.absorb_with(&mut backend, b"");
        let mut out = [0u8; 96];
        state.squeeze_into_with(&mut backend, &mut out);
        let mut sponge = Sponge::new(SpongeParams::shake(128), ReferenceBackend::new());
        sponge.absorb(&msg);
        assert_eq!(out.to_vec(), sponge.squeeze(96));
    }

    #[test]
    #[should_panic(expected = "no permutation was owed")]
    fn spurious_note_permuted_panics() {
        let mut state = SpongeState::new(SpongeParams::sha3(256));
        state.note_permuted();
    }
}
