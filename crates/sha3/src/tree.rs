//! Chunked single-level tree hashing: SP 800-185 ParallelHash (§6) and
//! the KRV tree-hash mode.
//!
//! Both functions share one shape — a BLAKE3-style chunked tree of
//! depth one. The message splits into `block_size`-byte chunks; every
//! chunk is hashed *independently* to a short leaf digest (plain SHAKE,
//! because the leaf call is cSHAKE with empty `N`/`S`); the ordered
//! leaf digests, wrapped in length framing, feed one cSHAKE root call
//! whose function name separates the modes. Because the leaves are
//! independent fixed-size one-shot hashes, they are exactly the
//! workload [`crate::hash_batch`] (and, over the wire, the serving
//! tier's micro-batch scheduler) packs into `SN`-wide hardware passes —
//! one large message becomes the paper's register-layout batch.
//!
//! The two instances:
//!
//! * [`TreeMode::parallel_hash`] — ParallelHash128/256 exactly per
//!   §6.2/§6.3: leaf output `2·security/8` bytes, root name
//!   `"ParallelHash"`, caller-chosen block size.
//! * [`TreeMode::krv_tree256`] — the KRV tree-hash: SHAKE256 leaves
//!   truncated to 32-byte chaining values (BLAKE3's chain width), a
//!   fixed 4 KiB chunk, root name `"KRV-TreeHash"`. Structurally it is
//!   ParallelHash with a different name and leaf width, so the same
//!   security argument applies, while the fixed chunk makes wire
//!   sessions unambiguous without negotiating a block size.
//!
//! Root input layout (§6.2 step 2–5):
//! `left_encode(B) ‖ leaf₀ ‖ … ‖ leafₙ₋₁ ‖ right_encode(n) ‖
//! right_encode(L·8)`, absorbed by `cSHAKE(N, S)`. The
//! [`TreeMode::root_prefix`]/[`TreeMode::root_suffix`] split exposes
//! that layout for streamed trees. A [`TreeState`] is a tree mid-message
//! — the root sponge and the one open leaf, two sponge states whatever
//! `B` is — and a [`TreeJob`] runs one operation on it (absorb a chunk,
//! optionally finalize and squeeze) as [`crate::drive_stream`] rounds:
//! each round carries up to [`LEAVES_PER_ROUND`] leaf pieces plus one
//! root item folding the previous round's leaf digests, so a serving
//! scheduler packs a tree's leaves beside everyone else's work.
//! [`TreeMode::digest`] stays the independent one-shot reference.

use crate::backend::PermutationBackend;
use crate::batch::{hash_batch, BatchRequest};
use crate::sp800_185::{cshake_params, cshake_stream_prefix, left_encode, right_encode};
use crate::sponge::{Sponge, SpongeParams, SpongeState};
use crate::stream::{StreamItem, StreamOp};
use std::ops::Range;

/// One chunked-tree instance: the knobs that separate ParallelHash from
/// the KRV tree-hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeMode {
    security_bits: usize,
    block_size: usize,
    leaf_len: usize,
    function_name: &'static [u8],
}

impl TreeMode {
    /// The KRV tree-hash chunk size: 4 KiB, fixed by the mode.
    pub const KRV_TREE_CHUNK: usize = 4096;

    /// ParallelHash (SP 800-185 §6) at 128- or 256-bit security with
    /// the given block size `B`.
    ///
    /// # Panics
    ///
    /// Panics if `security_bits` is not 128 or 256, or `block_size` is 0.
    pub fn parallel_hash(security_bits: usize, block_size: usize) -> Self {
        assert!(
            security_bits == 128 || security_bits == 256,
            "ParallelHash is defined at 128/256-bit security, got {security_bits}"
        );
        assert!(block_size > 0, "block size must be positive");
        Self {
            security_bits,
            block_size,
            // §6.2 step 6: each leaf is cSHAKE(X_i, 2·security, "", "").
            leaf_len: security_bits / 4,
            function_name: b"ParallelHash",
        }
    }

    /// The KRV tree-hash mode: 256-bit leaves truncated to 32-byte
    /// chaining values over fixed 4 KiB chunks.
    pub fn krv_tree256() -> Self {
        Self {
            security_bits: 256,
            block_size: Self::KRV_TREE_CHUNK,
            leaf_len: 32,
            function_name: b"KRV-TreeHash",
        }
    }

    /// The chunk size `B` in bytes.
    pub const fn block_size(&self) -> usize {
        self.block_size
    }

    /// The per-leaf digest length in bytes.
    pub const fn leaf_len(&self) -> usize {
        self.leaf_len
    }

    /// The root cSHAKE function name (`"ParallelHash"`/`"KRV-TreeHash"`).
    pub const fn function_name(&self) -> &'static [u8] {
        self.function_name
    }

    /// Sponge parameters of a leaf: plain SHAKE at the mode's security
    /// level (cSHAKE with empty `N`/`S` degenerates to SHAKE, §3.3).
    pub fn leaf_params(&self) -> SpongeParams {
        SpongeParams::shake(self.security_bits)
    }

    /// Sponge parameters of the root cSHAKE call.
    pub fn root_params(&self) -> SpongeParams {
        cshake_params(self.security_bits, self.function_name, b"")
    }

    /// Bytes the root sponge absorbs before any leaf digest: the cSHAKE
    /// `N`/`S` prefix followed by `left_encode(B)`.
    pub fn root_prefix(&self, customization: &[u8]) -> Vec<u8> {
        let mut prefix =
            cshake_stream_prefix(self.security_bits, self.function_name, customization);
        prefix.extend(left_encode(self.block_size as u64));
        prefix
    }

    /// Bytes the root sponge absorbs after the last leaf digest:
    /// `right_encode(n) ‖ right_encode(L·8)`.
    pub fn root_suffix(&self, leaves: u64, output_len: usize) -> Vec<u8> {
        let mut suffix = right_encode(leaves);
        suffix.extend(right_encode(output_len as u64 * 8));
        suffix
    }

    /// The number of leaves an `len`-byte message produces: `⌈len/B⌉`
    /// (zero for the empty message, §6.2 step 1).
    pub const fn leaf_count(&self, len: usize) -> usize {
        len.div_ceil(self.block_size)
    }

    /// One-shot digest. The leaves go through [`hash_batch`] — one
    /// drain-and-refill schedule over all chunks, so a wide backend
    /// packs them into `⌈n/SN⌉ `hardware passes per round — and the
    /// root cSHAKE call runs on the same backend afterwards.
    pub fn digest<B: PermutationBackend>(
        &self,
        mut backend: B,
        message: &[u8],
        customization: &[u8],
        output_len: usize,
    ) -> Vec<u8> {
        let requests: Vec<BatchRequest<'_>> = message
            .chunks(self.block_size)
            .map(|chunk| BatchRequest::new(chunk, self.leaf_len))
            .collect();
        let leaves = hash_batch(self.leaf_params(), &mut backend, &requests);
        let mut root = Sponge::new(self.root_params(), &mut backend);
        root.absorb(&self.root_prefix(customization));
        for leaf in &leaves {
            root.absorb(leaf);
        }
        root.absorb(&self.root_suffix(leaves.len() as u64, output_len));
        root.squeeze(output_len)
    }
}

/// Leaf pieces one [`TreeJob`] round carries at most. Bounds a job's
/// per-round memory — this many leaf sponge states and digests —
/// whatever the block size and the chunk are.
pub const LEAVES_PER_ROUND: usize = 64;

/// A chunked tree mid-message: what a streamed tree carries between
/// operations.
///
/// It holds two sponge states however long the message grows and
/// whatever `B` is: the root cSHAKE sponge, which has absorbed every
/// completed leaf's digest in order, and the *open leaf*, which has
/// absorbed the bytes of the leaf the message currently ends in. There
/// is no byte buffer; a partial block goes into the open leaf as it
/// arrives. [`TreeJob`] advances it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeState {
    mode: TreeMode,
    root: SpongeState,
    /// [`TreeMode::root_prefix`] until the root has absorbed it, then
    /// empty.
    prefix: Vec<u8>,
    /// The open leaf: fresh while `leaf_bytes` is zero.
    leaf: SpongeState,
    /// Message bytes in the open leaf, always below the block size.
    leaf_bytes: usize,
    /// Leaves completed and folded into the root.
    leaves: u64,
}

impl TreeState {
    /// An empty tree under `mode` whose root binds `customization`.
    pub fn new(mode: TreeMode, customization: &[u8]) -> Self {
        Self {
            mode,
            root: SpongeState::new(mode.root_params()),
            prefix: mode.root_prefix(customization),
            leaf: SpongeState::new(mode.leaf_params()),
            leaf_bytes: 0,
            leaves: 0,
        }
    }

    /// The tree's mode.
    pub fn mode(&self) -> TreeMode {
        self.mode
    }

    /// Message bytes absorbed by the operations run so far.
    pub fn absorbed(&self) -> usize {
        self.leaves as usize * self.mode.block_size() + self.leaf_bytes
    }

    /// The root sponge. Once a [`TreeJob`] has finalized the tree, it is
    /// an ordinary finalized [`SpongeState`] that squeezes the digest.
    pub fn into_root(self) -> SpongeState {
        self.root
    }
}

/// One leaf piece of a [`TreeJob`] round: a run of chunk bytes absorbed
/// into one leaf.
#[derive(Debug)]
struct Piece {
    /// The leaf: the carried open leaf or a fresh state.
    leaf: SpongeState,
    /// The chunk bytes the piece absorbs.
    range: Range<usize>,
    /// Bytes the leaf held before this piece.
    held: usize,
    /// Whether the piece ends its leaf: pad and squeeze the digest.
    sealed: bool,
}

/// One operation on a [`TreeState`] — absorb a chunk, then optionally
/// finalize under output length `L` and squeeze — planned as
/// [`crate::drive_stream`] rounds.
///
/// The chunk splits into leaf pieces in message order: the open leaf's
/// continuation runs on its carried state, whole blocks run on fresh
/// states, and a trailing partial piece runs on a fresh state and is
/// carried out as the new open leaf (a finalizing operation seals it
/// instead). Each round takes up to [`LEAVES_PER_ROUND`] pieces plus
/// one root item, which absorbs the previous round's digests in order
/// (and the root prefix on the tree's first operation). The round after
/// the last piece folds the last digests; when finalizing, that root
/// item also absorbs [`TreeMode::root_suffix`], pads and squeezes. A
/// 130-block finalizing chunk thus takes four rounds: 64, 64 and 2
/// leaves, then the last fold.
///
/// Drive it round by round: [`Self::push_items`], one `drive_stream`
/// over the items, then [`Self::advance`], until `advance` reports the
/// operation done.
///
/// # Panics
///
/// The round items panic in `drive_stream` on a lifecycle violation,
/// as a [`StreamOp`] does: an operation on a finalized tree other than
/// a squeeze, or a squeeze (`squeeze_len > 0`) on a tree no operation
/// has finalized.
#[derive(Debug)]
pub struct TreeJob {
    state: Box<TreeState>,
    chunk: Vec<u8>,
    /// The declared output length `L`, when the operation finalizes.
    finalize: Option<usize>,
    output: Vec<u8>,
    /// Chunk bytes handed to pieces so far.
    consumed: usize,
    /// This round's leaf pieces, in message order.
    pieces: Vec<Piece>,
    /// This round's digests, `leaf_len` bytes per piece.
    digests: Vec<u8>,
    /// What the root absorbs this round.
    root_input: Vec<u8>,
    /// Whether this round is the operation's last.
    last: bool,
}

impl TreeJob {
    /// Plans an operation on `state`: absorb `chunk`; with
    /// `finalize: Some(L)`, seal the last leaf, bind `n` and `L` into the
    /// root, pad it, and squeeze `squeeze_len` bytes.
    pub fn new(
        mut state: Box<TreeState>,
        chunk: Vec<u8>,
        finalize: Option<usize>,
        squeeze_len: usize,
    ) -> Self {
        let root_input = std::mem::take(&mut state.prefix);
        Self {
            state,
            chunk,
            finalize,
            output: vec![0u8; squeeze_len],
            consumed: 0,
            pieces: Vec::new(),
            digests: Vec::new(),
            root_input,
            last: false,
        }
    }

    /// The chunk's length in bytes.
    pub fn chunk_len(&self) -> usize {
        self.chunk.len()
    }

    /// Plans the next round and appends its items: the leaf pieces, then
    /// the root item.
    pub fn push_items<'a>(&'a mut self, items: &mut Vec<StreamItem<'a>>) {
        self.plan();
        let Self {
            state,
            chunk,
            finalize,
            output,
            pieces,
            digests,
            root_input,
            last,
            ..
        } = self;
        let leaf_len = state.mode.leaf_len();
        digests.resize(pieces.len() * leaf_len, 0);
        for (piece, digest) in pieces.iter_mut().zip(digests.chunks_mut(leaf_len)) {
            let squeeze = if piece.sealed { digest } else { &mut [] };
            items.push(StreamItem {
                state: &mut piece.leaf,
                op: StreamOp {
                    absorb: &chunk[piece.range.clone()],
                    finalize: piece.sealed,
                    squeeze,
                },
            });
        }
        let seal_root = if *last { *finalize } else { None };
        if let Some(output_len) = seal_root {
            root_input.extend(state.mode.root_suffix(state.leaves, output_len));
        }
        items.push(StreamItem {
            state: &mut state.root,
            op: StreamOp {
                absorb: root_input,
                finalize: seal_root.is_some(),
                squeeze: if *last { output } else { &mut [] },
            },
        });
    }

    /// Splits the next run of the chunk into this round's pieces. A
    /// round without pieces is the last.
    fn plan(&mut self) {
        let block = self.state.mode.block_size();
        let finalize = self.finalize.is_some();
        while self.pieces.len() < LEAVES_PER_ROUND {
            let held = self.state.leaf_bytes;
            let rest = self.chunk.len() - self.consumed;
            if rest == 0 && !(finalize && held > 0) {
                break;
            }
            let start = self.consumed;
            self.consumed += rest.min(block - held);
            let sealed = held + (self.consumed - start) == block
                || (finalize && self.consumed == self.chunk.len());
            let fresh = SpongeState::new(self.state.mode.leaf_params());
            self.pieces.push(Piece {
                leaf: std::mem::replace(&mut self.state.leaf, fresh),
                range: start..self.consumed,
                held,
                sealed,
            });
            self.state.leaf_bytes = 0;
            if !sealed {
                break;
            }
        }
        self.last = self.pieces.is_empty();
    }

    /// Takes in a round `drive_stream` has run: counts the sealed leaves,
    /// queues their digests for the next root item, and carries an
    /// unsealed piece out as the open leaf. Returns whether the
    /// operation is done.
    pub fn advance(&mut self) -> bool {
        self.root_input.clear();
        if self.last {
            return true;
        }
        let leaf_len = self.state.mode.leaf_len();
        for (piece, digest) in self.pieces.drain(..).zip(self.digests.chunks(leaf_len)) {
            if piece.sealed {
                self.state.leaves += 1;
                self.root_input.extend_from_slice(digest);
            } else {
                self.state.leaf_bytes = piece.held + piece.range.len();
                self.state.leaf = piece.leaf;
            }
        }
        // Digests to fold, chunk bytes to place or a finalize to apply
        // take another round.
        self.root_input.is_empty() && self.consumed == self.chunk.len() && self.finalize.is_none()
    }

    /// The advanced tree and the squeezed bytes.
    pub fn into_output(self) -> (Box<TreeState>, Vec<u8>) {
        (self.state, self.output)
    }
}

/// ParallelHash128 (SP 800-185 §6) on the reference backend.
pub fn parallel_hash128(
    message: &[u8],
    block_size: usize,
    output_len: usize,
    customization: &[u8],
) -> Vec<u8> {
    TreeMode::parallel_hash(128, block_size).digest(
        crate::ReferenceBackend::new(),
        message,
        customization,
        output_len,
    )
}

/// ParallelHash256 (SP 800-185 §6) on the reference backend.
pub fn parallel_hash256(
    message: &[u8],
    block_size: usize,
    output_len: usize,
    customization: &[u8],
) -> Vec<u8> {
    TreeMode::parallel_hash(256, block_size).digest(
        crate::ReferenceBackend::new(),
        message,
        customization,
        output_len,
    )
}

/// The KRV tree-hash on the reference backend: 4 KiB chunks, 32-byte
/// SHAKE256 leaves, cSHAKE256 root.
pub fn krv_tree_hash256(message: &[u8], output_len: usize, customization: &[u8]) -> Vec<u8> {
    TreeMode::krv_tree256().digest(
        crate::ReferenceBackend::new(),
        message,
        customization,
        output_len,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ReferenceBackend;
    use crate::functions::Xof;
    use crate::hex;
    use crate::stream::drive_stream;
    use crate::Shake256;

    #[test]
    fn parallel_hash128_nist_sample_one() {
        // NIST SP 800-185 sample file, ParallelHash128 Sample #1:
        // X = 000102030405060710111213141516172021222324252627,
        // B = 8, L = 256, S = "".
        let msg: Vec<u8> = [0x00u8, 0x10, 0x20]
            .iter()
            .flat_map(|&hi| (0..8).map(move |lo| hi | lo))
            .collect();
        let out = parallel_hash128(&msg, 8, 32, b"");
        assert_eq!(
            hex(&out),
            "ba8dc1d1d979331d3f813603c67f72609ab5e44b94a0b8f9af46514454a2b4f5"
        );
    }

    #[test]
    fn leaf_is_plain_shake_of_each_chunk() {
        // Recompute a two-chunk ParallelHash256 by hand: leaves are
        // SHAKE256(chunk, 64), the root is cSHAKE256 over the framed
        // leaf digests.
        let mode = TreeMode::parallel_hash(256, 16);
        let msg: Vec<u8> = (0..24u8).collect();
        let leaf0 = Shake256::digest(&msg[..16], 64);
        let leaf1 = Shake256::digest(&msg[16..], 64);
        let mut root = crate::sp800_185::CShake256::new(b"ParallelHash", b"ctx");
        root.update(&left_encode(16));
        root.update(&leaf0);
        root.update(&leaf1);
        root.update(&right_encode(2));
        root.update(&right_encode(48 * 8));
        assert_eq!(
            root.squeeze(48),
            mode.digest(ReferenceBackend::new(), &msg, b"ctx", 48)
        );
    }

    #[test]
    fn empty_message_has_zero_leaves() {
        // §6.2 step 1: n = ⌈0/B⌉ = 0 — the root absorbs no leaves, only
        // the framing, and still produces a well-defined digest.
        let mode = TreeMode::parallel_hash(128, 64);
        assert_eq!(mode.leaf_count(0), 0);
        let out = mode.digest(ReferenceBackend::new(), b"", b"", 32);
        assert_eq!(out.len(), 32);
        assert_ne!(out, parallel_hash128(b"x", 64, 32, b""));
    }

    #[test]
    fn chunk_boundaries_change_the_digest() {
        // Same bytes, different block size → different tree → different
        // digest (B is bound into the root via left_encode).
        let msg = vec![0x5Au8; 100];
        assert_ne!(
            parallel_hash256(&msg, 32, 32, b""),
            parallel_hash256(&msg, 64, 32, b"")
        );
    }

    #[test]
    fn krv_tree_matches_manual_recomputation() {
        // Two full chunks plus a partial tail.
        let mode = TreeMode::krv_tree256();
        let msg: Vec<u8> = (0..2 * 4096 + 1000).map(|i| (i * 31) as u8).collect();
        assert_eq!(mode.leaf_count(msg.len()), 3);
        let mut root = crate::sp800_185::CShake256::new(b"KRV-TreeHash", b"");
        root.update(&left_encode(4096));
        for chunk in msg.chunks(4096) {
            root.update(&Shake256::digest(chunk, 32));
        }
        root.update(&right_encode(3));
        root.update(&right_encode(32 * 8));
        assert_eq!(root.squeeze(32), krv_tree_hash256(&msg, 32, b""));
    }

    #[test]
    fn krv_tree_differs_from_flat_shake_and_parallel_hash() {
        let msg = vec![7u8; 5000];
        let tree = krv_tree_hash256(&msg, 32, b"");
        assert_ne!(tree, Shake256::digest(&msg, 32));
        assert_ne!(tree, parallel_hash256(&msg, 4096, 32, b""));
    }

    /// Runs one operation on `state` through `drive_stream`, round by
    /// round, returning the advanced tree, the squeezed bytes and each
    /// round's item count.
    fn run_job(
        state: Box<TreeState>,
        chunk: &[u8],
        finalize: Option<usize>,
        squeeze_len: usize,
    ) -> (Box<TreeState>, Vec<u8>, Vec<usize>) {
        let mut job = TreeJob::new(state, chunk.to_vec(), finalize, squeeze_len);
        let mut backend = ReferenceBackend::new();
        let mut rounds = Vec::new();
        loop {
            let mut items = Vec::new();
            job.push_items(&mut items);
            rounds.push(items.len());
            drive_stream(&mut backend, &mut items);
            drop(items);
            if job.advance() {
                break;
            }
        }
        let (state, output) = job.into_output();
        (state, output, rounds)
    }

    /// Streams `pieces` as absorbing operations, finalizes, then
    /// squeezes the finalized root as a plain sponge state.
    fn streamed(mode: TreeMode, pieces: &[&[u8]], output_len: usize) -> Vec<u8> {
        let mut state = Box::new(TreeState::new(mode, b"ctx"));
        for piece in pieces {
            state = run_job(state, piece, None, 0).0;
        }
        let (state, _, _) = run_job(state, b"", Some(output_len), 0);
        let mut root = state.into_root();
        let mut out = vec![0u8; output_len];
        let mut items = [StreamItem {
            state: &mut root,
            op: StreamOp::squeeze(&mut out),
        }];
        drive_stream(&mut ReferenceBackend::new(), &mut items);
        out
    }

    #[test]
    fn tree_jobs_match_the_one_shot_digest_at_every_split() {
        // Three 16-byte blocks and a tail; at B = 4096 the whole message
        // stays in the open leaf.
        let msg: Vec<u8> = (0..3 * 16 + 5).map(|i| (i * 7 + 3) as u8).collect();
        for mode in [
            TreeMode::parallel_hash(256, 16),
            TreeMode::parallel_hash(128, 4096),
        ] {
            let expected = mode.digest(ReferenceBackend::new(), &msg, b"ctx", 40);
            for at in 0..=msg.len() {
                let (head, tail) = msg.split_at(at);
                assert_eq!(
                    streamed(mode, &[head, tail], 40),
                    expected,
                    "B = {}, split at {at}",
                    mode.block_size()
                );
            }
            let empty = mode.digest(ReferenceBackend::new(), b"", b"ctx", 40);
            assert_eq!(streamed(mode, &[], 40), empty, "the empty message");
        }
    }

    #[test]
    fn a_round_carries_at_most_64_leaves_beside_the_root() {
        let mode = TreeMode::parallel_hash(128, 16);
        let msg: Vec<u8> = (0..130 * 16).map(|i| (i * 13) as u8).collect();
        let fresh = || Box::new(TreeState::new(mode, b""));
        let (_, digest, rounds) = run_job(fresh(), &msg, Some(32), 32);
        assert_eq!(
            rounds,
            [65, 65, 3, 1],
            "64, 64 and 2 leaves beside the root, then the last fold"
        );
        assert_eq!(digest, mode.digest(ReferenceBackend::new(), &msg, b"", 32));

        // One sealed leaf and a partial one carried out as the open leaf.
        let (state, _, rounds) = run_job(fresh(), &msg[..21], None, 0);
        assert_eq!(rounds, [3, 1]);
        assert_eq!(state.absorbed(), 21);
        assert_eq!((state.leaves, state.leaf_bytes), (1, 5));
    }

    #[test]
    fn root_prefix_and_suffix_reassemble_the_digest() {
        // The streamed decomposition: prefix at OPEN, leaves as they
        // complete, suffix at FINALIZE.
        let mode = TreeMode::krv_tree256();
        let msg: Vec<u8> = (0..9000u16).map(|i| i as u8).collect();
        let mut root = Sponge::new(mode.root_params(), ReferenceBackend::new());
        root.absorb(&mode.root_prefix(b""));
        let mut leaves = 0u64;
        for chunk in msg.chunks(mode.block_size()) {
            root.absorb(&Shake256::digest(chunk, mode.leaf_len()));
            leaves += 1;
        }
        root.absorb(&mode.root_suffix(leaves, 64));
        assert_eq!(root.squeeze(64), krv_tree_hash256(&msg, 64, b""));
    }
}
