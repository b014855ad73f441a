//! The multi-state sponge driver: many sponge operations sharing each
//! permutation round.
//!
//! [`drive_stream`] is the crate's only driver that packs several sponge
//! states into one [`PermutationBackend::permute_all`] call. Each
//! [`StreamItem`] borrows one [`SpongeState`] and carries one bounded
//! operation — absorb a chunk, pad, squeeze a window — so the same
//! driver serves streaming sessions whose states live across
//! micro-batches (in a server session table) and one-shot hashes, which
//! are simply an operation that does all three on a fresh state
//! ([`crate::hash_batch`] is that wrapper).
//!
//! Each round advances every operation's host-side byte work until its
//! state stalls on a permutation, packs precisely the stalled states,
//! permutes them in one backend call, and repeats until every operation
//! completes. Finished operations drop out and the pack compacts, so a
//! short message never pads out the schedule of a long one: every round
//! is `⌈live/SN⌉` hardware passes on a wide backend.
//!
//! Operations in one drive need **not** share
//! [`SpongeParams`](crate::SpongeParams): the permutation is
//! rate-agnostic, so a SHAKE128 absorb and a SHA3-512 squeeze happily
//! share hardware passes.

use crate::backend::PermutationBackend;
use crate::sponge::SpongeState;
use krv_keccak::KeccakState;

/// One bounded streaming operation: absorb `absorb`, then (optionally)
/// pad, then squeeze `squeeze.len()` bytes — any of the three parts may
/// be empty, and a full one-shot hash is all three at once.
///
/// The phases mirror the sponge lifecycle, so the usual wire mapping is:
/// `ABSORB(chunk)` → `{absorb: chunk}`, `FINALIZE` → `{finalize: true}`
/// (with any algorithm suffix, e.g. KMAC's `right_encode(L·8)`, carried
/// in `absorb`), `SQUEEZE(len)` → `{squeeze: &mut out}`.
#[derive(Debug, Default)]
pub struct StreamOp<'a> {
    /// Message bytes to absorb first (may be empty).
    pub absorb: &'a [u8],
    /// Whether to apply domain separation + pad10*1 after absorbing.
    pub finalize: bool,
    /// Output buffer to squeeze after padding (may be empty). Requires
    /// the state to be finalized — by this op or a previous one.
    pub squeeze: &'a mut [u8],
}

impl<'a> StreamOp<'a> {
    /// An absorb-only operation.
    pub fn absorb(data: &'a [u8]) -> Self {
        Self {
            absorb: data,
            finalize: false,
            squeeze: &mut [],
        }
    }

    /// A finalize-only operation (pad, ready the squeeze phase).
    pub fn finalize() -> Self {
        Self {
            absorb: &[],
            finalize: true,
            squeeze: &mut [],
        }
    }

    /// A squeeze-only operation.
    pub fn squeeze(out: &'a mut [u8]) -> Self {
        Self {
            absorb: &[],
            finalize: false,
            squeeze: out,
        }
    }

    /// A whole one-shot hash: absorb `message`, pad, squeeze
    /// `out.len()` bytes (on a fresh state).
    pub fn one_shot(message: &'a [u8], out: &'a mut [u8]) -> Self {
        Self {
            absorb: message,
            finalize: true,
            squeeze: out,
        }
    }
}

/// One session's entry in a [`drive_stream`] round: its live state and
/// the operation to apply.
#[derive(Debug)]
pub struct StreamItem<'a> {
    /// The session's sponge state, borrowed for the duration of the
    /// drive and advanced in place.
    pub state: &'a mut SpongeState,
    /// The operation to complete.
    pub op: StreamOp<'a>,
}

/// Host-side progress of one operation between permutation rounds.
#[derive(Debug, Clone, Copy, Default)]
struct Progress {
    consumed: usize,
    written: usize,
}

/// Advances one operation until it completes (returns `true`) or its
/// state stalls on a permutation (returns `false`).
///
/// Permutations are owed exactly when a standalone [`crate::Sponge`]
/// would apply them: at once for a full absorb block and for the pad,
/// but for an exhausted squeeze block only when more output is wanted —
/// so a squeeze ending on a rate boundary completes without permuting.
fn advance(item: &mut StreamItem<'_>, p: &mut Progress) -> bool {
    loop {
        let wants_output = p.written < item.op.squeeze.len();
        if item.state.needs_permute() && (wants_output || !item.state.squeezing()) {
            return false;
        }
        if p.consumed < item.op.absorb.len() {
            p.consumed += item.state.absorb_step(&item.op.absorb[p.consumed..]);
            continue;
        }
        if item.op.finalize && !item.state.squeezing() {
            item.state.finalize_pad();
            return false;
        }
        if !wants_output {
            return true;
        }
        let written = p.written;
        p.written += item.state.squeeze_step(&mut item.op.squeeze[written..]);
    }
}

/// Completes every operation in `items`, sharing permutation rounds
/// across all live states.
///
/// Each round packs exactly the states that stalled on a permutation
/// into one dense [`permute_all`] call — on a wide backend that is
/// `⌈live/SN⌉` hardware passes — then resumes their host-side byte
/// work. Operations that finish drop out and the pack compacts. Every
/// state is advanced exactly as a standalone [`crate::Sponge`] would
/// advance it (there are property tests pinning equality at every chunk
/// split); only the scheduling differs.
///
/// States are borrowed from their owners, so each round gathers the
/// stalled states into a scratch pack and scatters them back: 200
/// bytes each way per state per round. On stream-tree's simulator
/// passes that is under a tenth of the kernel runs it feeds, and about
/// as much as the sponge's own byte work (EXPERIMENTS.md, "Per-pass
/// host cost").
///
/// # Panics
///
/// Panics if an operation violates the sponge lifecycle: absorbing on a
/// state already squeezing, finalizing twice, or squeezing an
/// unfinalized state with `finalize: false`. Callers (the server's
/// session table) enforce the session state machine before dispatch.
///
/// [`permute_all`]: PermutationBackend::permute_all
pub fn drive_stream<B: PermutationBackend>(backend: &mut B, items: &mut [StreamItem<'_>]) {
    let mut progress = vec![Progress::default(); items.len()];
    // Indices of operations still stalled on a permutation.
    let mut live: Vec<usize> = Vec::with_capacity(items.len());
    for (index, item) in items.iter_mut().enumerate() {
        if !advance(item, &mut progress[index]) {
            live.push(index);
        }
    }
    let mut pack: Vec<KeccakState> = Vec::with_capacity(live.len());
    while !live.is_empty() {
        pack.clear();
        pack.extend(live.iter().map(|&index| *items[index].state.state()));
        backend.permute_all(&mut pack);
        let mut kept = 0;
        for slot in 0..live.len() {
            let index = live[slot];
            *items[index].state.state_mut() = pack[slot];
            items[index].state.note_permuted();
            if !advance(&mut items[index], &mut progress[index]) {
                live[kept] = index;
                kept += 1;
            }
        }
        live.truncate(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ReferenceBackend;
    use crate::functions::{Shake128, Shake256};
    use crate::sponge::{Sponge, SpongeParams};
    use crate::Sha3_256;

    /// Runs one session's ops sequentially through drive_stream (each op
    /// its own single-item drive, like one scheduler pass per frame).
    fn run_session(params: SpongeParams, ops: Vec<StreamOp<'_>>) -> SpongeState {
        let mut state = SpongeState::new(params);
        let mut backend = ReferenceBackend::new();
        for op in ops {
            let mut items = [StreamItem {
                state: &mut state,
                op,
            }];
            drive_stream(&mut backend, &mut items);
        }
        state
    }

    #[test]
    fn absorb_at_every_chunk_split_matches_oneshot() {
        let params = SpongeParams::sha3(256);
        let rate = params.rate_bytes();
        let msg: Vec<u8> = (0..rate + 7).map(|i| (i * 13) as u8).collect();
        let expected = Sha3_256::digest(&msg);
        // Splits of 1 byte up to more than a full rate block.
        for split in [1, 2, 3, rate - 1, rate, rate + 1, msg.len()] {
            let mut ops: Vec<StreamOp<'_>> = msg.chunks(split).map(StreamOp::absorb).collect();
            ops.push(StreamOp::finalize());
            let mut out = [0u8; 32];
            ops.push(StreamOp::squeeze(&mut out));
            run_session(params, ops);
            assert_eq!(out, expected, "split {split}");
        }
    }

    #[test]
    fn squeeze_at_every_split_matches_oneshot() {
        let params = SpongeParams::shake(128);
        let rate = params.rate_bytes();
        let total = 2 * rate + 5;
        let expected = Shake128::digest(b"stream squeeze", total);
        for split in [1, 7, rate - 1, rate, rate + 1, total] {
            let mut state = SpongeState::new(params);
            let mut backend = ReferenceBackend::new();
            let mut items = [StreamItem {
                state: &mut state,
                op: StreamOp {
                    absorb: b"stream squeeze",
                    finalize: true,
                    squeeze: &mut [],
                },
            }];
            drive_stream(&mut backend, &mut items);
            let mut out = vec![0u8; total];
            let mut at = 0;
            while at < total {
                let take = split.min(total - at);
                let mut items = [StreamItem {
                    state: &mut state,
                    op: StreamOp::squeeze(&mut out[at..at + take]),
                }];
                drive_stream(&mut backend, &mut items);
                at += take;
            }
            assert_eq!(out, expected, "split {split}");
        }
    }

    #[test]
    fn one_op_can_do_all_three_phases() {
        let mut out = [0u8; 64];
        let mut state = SpongeState::new(SpongeParams::shake(256));
        let mut items = [StreamItem {
            state: &mut state,
            op: StreamOp {
                absorb: b"one shot through the stream driver",
                finalize: true,
                squeeze: &mut out,
            },
        }];
        drive_stream(&mut ReferenceBackend::new(), &mut items);
        assert_eq!(
            out.to_vec(),
            Shake256::digest(b"one shot through the stream driver", 64)
        );
    }

    #[test]
    fn mixed_params_share_one_drive() {
        // Sessions with different rates (and phases) in one round: the
        // permutation is rate-agnostic, so nothing may interfere.
        let long = vec![0xA7u8; 500];
        let mut shake_state = SpongeState::new(SpongeParams::shake(128));
        let mut sha3_state = SpongeState::new(SpongeParams::sha3(512));
        let mut finished = SpongeState::new(SpongeParams::shake(256));
        let mut backend = ReferenceBackend::new();
        let mut setup = [StreamItem {
            state: &mut finished,
            op: StreamOp {
                absorb: b"already finalized",
                finalize: true,
                squeeze: &mut [],
            },
        }];
        drive_stream(&mut backend, &mut setup);
        let mut squeeze_out = [0u8; 100];
        let mut items = [
            StreamItem {
                state: &mut shake_state,
                op: StreamOp::absorb(&long),
            },
            StreamItem {
                state: &mut sha3_state,
                op: StreamOp::absorb(&long),
            },
            StreamItem {
                state: &mut finished,
                op: StreamOp::squeeze(&mut squeeze_out),
            },
        ];
        drive_stream(&mut backend, &mut items);
        // Finish the two absorbing sessions and check all three outputs.
        let mut a = [0u8; 32];
        let mut b = [0u8; 64];
        let mut items = [
            StreamItem {
                state: &mut shake_state,
                op: StreamOp {
                    absorb: &[],
                    finalize: true,
                    squeeze: &mut a,
                },
            },
            StreamItem {
                state: &mut sha3_state,
                op: StreamOp {
                    absorb: &[],
                    finalize: true,
                    squeeze: &mut b,
                },
            },
        ];
        drive_stream(&mut backend, &mut items);
        assert_eq!(a.to_vec(), Shake128::digest(&long, 32));
        let mut sha3 = crate::Sha3_512::new();
        sha3.update(&long);
        assert_eq!(b, sha3.finalize());
        assert_eq!(
            squeeze_out.to_vec(),
            Shake256::digest(b"already finalized", 100)
        );
    }

    /// Records how many states each permute_all call carried.
    #[derive(Clone, Default)]
    struct CountingBackend {
        calls: Vec<usize>,
    }

    impl CountingBackend {
        fn permutations(&self) -> usize {
            self.calls.iter().sum()
        }
    }

    impl PermutationBackend for CountingBackend {
        fn permute_all(&mut self, states: &mut [KeccakState]) {
            self.calls.push(states.len());
            ReferenceBackend::new().permute_all(states);
        }
    }

    #[test]
    fn finished_ops_compact_out_of_the_pack() {
        // A 1-block absorb and a 4-block absorb: round 1 permutes both,
        // rounds 2..4 carry only the long one.
        let rate = SpongeParams::shake(128).rate_bytes();
        let short = vec![1u8; rate];
        let long = vec![2u8; 4 * rate];
        let mut s1 = SpongeState::new(SpongeParams::shake(128));
        let mut s2 = SpongeState::new(SpongeParams::shake(128));
        let mut backend = CountingBackend::default();
        let mut items = [
            StreamItem {
                state: &mut s1,
                op: StreamOp::absorb(&short),
            },
            StreamItem {
                state: &mut s2,
                op: StreamOp::absorb(&long),
            },
        ];
        drive_stream(&mut backend, &mut items);
        assert_eq!(backend.calls, vec![2, 1, 1, 1]);
    }

    #[test]
    fn squeezes_on_rate_boundaries_cost_what_a_sponge_costs() {
        // A squeeze ending exactly on a rate boundary must not permute
        // ahead of need: the permutation count and the final state match
        // a standalone Sponge given the same calls, and a follow-up
        // squeeze (then an empty one) picks up the owed permutation.
        let message = b"rate-boundary squeeze";
        for params in [SpongeParams::shake(128), SpongeParams::sha3(512)] {
            let rate = params.rate_bytes();
            for len in [0, 1, rate - 1, rate, rate + 1, 2 * rate, 3 * rate] {
                let mut sponge = Sponge::new(params, CountingBackend::default());
                sponge.absorb(message);
                let expected = sponge.squeeze(len);
                let mut backend = CountingBackend::default();
                let mut state = SpongeState::new(params);
                let mut out = vec![0u8; len];
                drive_stream(
                    &mut backend,
                    &mut [StreamItem {
                        state: &mut state,
                        op: StreamOp {
                            absorb: message,
                            finalize: true,
                            squeeze: &mut out,
                        },
                    }],
                );
                let label = format!("rate {rate}, squeeze {len}");
                assert_eq!(out, expected, "{label}");
                assert_eq!(
                    backend.permutations(),
                    sponge.clone().into_backend().permutations(),
                    "{label}"
                );
                assert_eq!(state, sponge.clone().into_state(), "{label}");

                let expected = sponge.squeeze(5);
                let mut more = [0u8; 5];
                for op in [StreamOp::squeeze(&mut more), StreamOp::squeeze(&mut [])] {
                    let mut items = [StreamItem {
                        state: &mut state,
                        op,
                    }];
                    drive_stream(&mut backend, &mut items);
                }
                assert_eq!(more.to_vec(), expected, "{label}, follow-up");
                assert_eq!(
                    backend.permutations(),
                    sponge.clone().into_backend().permutations(),
                    "{label}, follow-up"
                );
                assert_eq!(state, sponge.into_state(), "{label}, follow-up");
            }
        }
    }

    #[test]
    fn empty_ops_need_no_permutation() {
        let mut state = SpongeState::new(SpongeParams::sha3(256));
        let mut backend = CountingBackend::default();
        let mut items = [StreamItem {
            state: &mut state,
            op: StreamOp::absorb(b""),
        }];
        drive_stream(&mut backend, &mut items);
        assert!(backend.calls.is_empty(), "no work, no permutations");
        let mut items: [StreamItem<'_>; 0] = [];
        drive_stream(&mut backend, &mut items);
        assert!(backend.calls.is_empty());
    }

    #[test]
    fn chunked_session_matches_incremental_sponge_state() {
        // Interleave absorbs of two sessions across several drives, then
        // squeeze both across several drives: byte-identical to Sponge.
        let msg_a: Vec<u8> = (0..700u16).map(|i| i as u8).collect();
        let msg_b: Vec<u8> = (0..450u16).map(|i| (i * 3) as u8).collect();
        let mut a = SpongeState::new(SpongeParams::shake(256));
        let mut b = SpongeState::new(SpongeParams::shake(256));
        let mut backend = ReferenceBackend::new();
        let chunks_a: Vec<&[u8]> = msg_a.chunks(97).collect();
        let chunks_b: Vec<&[u8]> = msg_b.chunks(61).collect();
        for i in 0..chunks_a.len().max(chunks_b.len()) {
            let mut items = [
                StreamItem {
                    state: &mut a,
                    op: StreamOp::absorb(chunks_a.get(i).copied().unwrap_or(b"")),
                },
                StreamItem {
                    state: &mut b,
                    op: StreamOp::absorb(chunks_b.get(i).copied().unwrap_or(b"")),
                },
            ];
            drive_stream(&mut backend, &mut items);
        }
        let mut out_a = [0u8; 48];
        let mut out_b = [0u8; 48];
        let mut items = [
            StreamItem {
                state: &mut a,
                op: StreamOp {
                    absorb: &[],
                    finalize: true,
                    squeeze: &mut out_a,
                },
            },
            StreamItem {
                state: &mut b,
                op: StreamOp {
                    absorb: &[],
                    finalize: true,
                    squeeze: &mut out_b,
                },
            },
        ];
        drive_stream(&mut backend, &mut items);
        let mut sponge = Sponge::new(SpongeParams::shake(256), ReferenceBackend::new());
        sponge.absorb(&msg_a);
        assert_eq!(out_a.to_vec(), sponge.squeeze(48));
        let mut sponge = Sponge::new(SpongeParams::shake(256), ReferenceBackend::new());
        sponge.absorb(&msg_b);
        assert_eq!(out_b.to_vec(), sponge.squeeze(48));
    }
}
