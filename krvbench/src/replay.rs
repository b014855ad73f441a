//! Replays of a workload's inputs straight through the library entry
//! points its lane uses — `hash_batch`, `drive_stream`, `TreeMode`,
//! `ml_kem_*` — on an instrumented permutation backend.
//!
//! Over the simulated engine pool the replay yields simulated RVV cycles
//! per operation, which depend only on the inputs and the kernel, never on
//! the host. Over the serving tier it splits driver time from permutation
//! time.

use crate::trace::span;
use crate::workload::{HashAlg, Input, Output, DIGEST_LEN, SQUEEZE_LEN};
use krv_core::{EnginePool, KernelKind};
use krv_keccak::KeccakState;
use krv_kyber::{ml_kem_decaps, ml_kem_encaps, ml_kem_keygen, KemOp, KemResult};
use krv_native::NativeBackend;
use krv_server::protocol::MAX_CHUNK_LEN;
use krv_sha3::{
    drive_stream, hash_batch, BatchRequest, PermutationBackend, SpongeParams, SpongeState,
    StreamItem, StreamOp, TreeMode,
};
use std::time::{Duration, Instant};

/// Simulated cycles of one `E64Lmul8` hardware pass at `SN = 4`: the
/// paper's Table 7/8 invariant. Any other value means the simulator's
/// timing model changed.
pub const CYCLES_PER_PASS: u64 = 1909;

/// Where the replayed permutations run.
pub enum Tier {
    /// The service's default simulator pool shape: `E64Lmul8`, `SN = 4`,
    /// two workers.
    Simulator(EnginePool),
    Native(NativeBackend),
}

impl Tier {
    pub fn simulator() -> Self {
        Tier::Simulator(EnginePool::new(KernelKind::E64Lmul8, 4, 2))
    }
}

/// A permutation backend that counts what passes through it.
pub struct Counted {
    tier: Tier,
    pub calls: u64,
    pub states: u64,
    pub permute: Duration,
    /// Simulator passes and their simulated cycles (zero on the native
    /// tier).
    pub passes: u64,
    pub cycles: u64,
}

impl Counted {
    pub fn new(tier: Tier) -> Self {
        Self {
            tier,
            calls: 0,
            states: 0,
            permute: Duration::ZERO,
            passes: 0,
            cycles: 0,
        }
    }
}

impl PermutationBackend for Counted {
    fn permute_all(&mut self, states: &mut [KeccakState]) {
        let started = Instant::now();
        span("backend.permute_all", || match &mut self.tier {
            Tier::Simulator(pool) => {
                pool.permute_all(states);
                let metrics = pool.last_metrics().expect("a dispatch records metrics");
                self.passes += metrics.passes;
                self.cycles += metrics.total_cycles;
            }
            Tier::Native(native) => native.permute_all(states),
        });
        self.permute += started.elapsed();
        self.calls += 1;
        self.states += states.len() as u64;
    }

    fn parallel_states(&self) -> usize {
        match &self.tier {
            Tier::Simulator(pool) => pool.parallel_states(),
            Tier::Native(native) => native.parallel_states(),
        }
    }
}

/// What a replay did.
#[derive(Debug, Default)]
pub struct Replay {
    pub ops: u64,
    /// Wall time inside the entry points.
    pub entry: Duration,
    /// Descriptions of wrong answers.
    pub wrong: Vec<String>,
}

fn params(alg: HashAlg) -> SpongeParams {
    match alg {
        HashAlg::Sha3_256 => SpongeParams::sha3(256),
        HashAlg::Shake128 => SpongeParams::shake(128),
    }
}

/// Runs one stream input the way the daemon serves its two sessions:
/// SHAKE256 absorbing one `drive_stream` operation per wire chunk, then a
/// finalizing squeeze; the tree through `TreeMode::digest`.
fn stream_output(message: &[u8], backend: &mut Counted) -> Output {
    let mut state = SpongeState::new(SpongeParams::shake(256));
    for chunk in message.chunks(MAX_CHUNK_LEN) {
        let mut items = [StreamItem {
            state: &mut state,
            op: StreamOp::absorb(chunk),
        }];
        drive_stream(&mut *backend, &mut items);
    }
    let mut shake = vec![0u8; SQUEEZE_LEN];
    let mut items = [StreamItem {
        state: &mut state,
        op: StreamOp {
            absorb: &[],
            finalize: true,
            squeeze: &mut shake,
        },
    }];
    drive_stream(&mut *backend, &mut items);
    let tree = TreeMode::krv_tree256().digest(&mut *backend, message, b"", DIGEST_LEN);
    Output::Stream { shake, tree }
}

fn kem_output(input: &Input, backend: &mut Counted) -> Output {
    let Input::Kem { params, op, .. } = input else {
        unreachable!("called for KEM inputs only")
    };
    let result = match op {
        KemOp::Keygen { d, z } => {
            let (ek, dk) = ml_kem_keygen(*params, d, z, &mut *backend);
            KemResult::Keygen { ek, dk }
        }
        KemOp::Encaps { ek, m } => {
            let (ct, shared_secret) =
                ml_kem_encaps(*params, ek, m, &mut *backend).expect("ring keys are valid");
            KemResult::Encaps { ct, shared_secret }
        }
        KemOp::Decaps { dk, ct } => KemResult::Decaps {
            shared_secret: ml_kem_decaps(*params, dk, ct, &mut *backend)
                .expect("ring keys are valid"),
        },
    };
    Output::Kem(result)
}

/// Replays `inputs` through the entry points on `backend`, checking every
/// answer. One-shot hashes go through `hash_batch` in consecutive groups
/// of up to `batch` requests of the same function, as the scheduler
/// would batch them; `batch = 1` replays each operation alone.
pub fn replay(inputs: &[Input], backend: &mut Counted, batch: usize) -> Replay {
    let mut out = Replay::default();
    for (chunk_index, chunk) in inputs.chunks(batch.max(1)).enumerate() {
        let base = chunk_index * batch.max(1);
        let started = Instant::now();
        let mut answers: Vec<(usize, Output)> = Vec::with_capacity(chunk.len());
        span("sha3.entry", || {
            for alg in [HashAlg::Sha3_256, HashAlg::Shake128] {
                let members: Vec<(usize, &[u8])> = chunk
                    .iter()
                    .enumerate()
                    .filter_map(|(i, input)| match input {
                        Input::Hash {
                            alg: a, message, ..
                        } if *a == alg => Some((i, message.as_slice())),
                        _ => None,
                    })
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let requests: Vec<BatchRequest<'_>> = members
                    .iter()
                    .map(|&(_, message)| BatchRequest::new(message, DIGEST_LEN))
                    .collect();
                let digests = hash_batch(params(alg), &mut *backend, &requests);
                for (&(i, _), digest) in members.iter().zip(digests) {
                    answers.push((i, Output::Digest(digest)));
                }
            }
            for (i, input) in chunk.iter().enumerate() {
                match input {
                    Input::Hash { .. } => {}
                    Input::Kem { .. } => answers.push((i, kem_output(input, backend))),
                    Input::Stream { message, .. } => {
                        answers.push((i, stream_output(message, backend)))
                    }
                }
            }
        });
        out.entry += started.elapsed();
        for (i, output) in answers {
            out.ops += 1;
            if !chunk[i].accepts(&output) && out.wrong.len() < 8 {
                out.wrong
                    .push(format!("replayed operation {}: wrong answer", base + i));
            }
        }
    }
    out
}

/// Simulated cycles per operation over the leading `count` inputs, each
/// replayed alone on the simulator pool, with the pass count; fails if a
/// pass did not cost exactly [`CYCLES_PER_PASS`] or an answer was wrong.
pub fn simulated_cycles(inputs: &[Input], count: usize) -> Result<(f64, f64), String> {
    let mut backend = Counted::new(Tier::simulator());
    let replayed = replay(&inputs[..count.min(inputs.len())], &mut backend, 1);
    if let Some(wrong) = replayed.wrong.first() {
        return Err(format!("simulator replay: {wrong}"));
    }
    if backend.cycles != CYCLES_PER_PASS * backend.passes {
        return Err(format!(
            "simulator replay: {} cycles over {} passes is not {CYCLES_PER_PASS} per pass",
            backend.cycles, backend.passes
        ));
    }
    let ops = replayed.ops as f64;
    Ok((backend.cycles as f64 / ops, backend.passes as f64 / ops))
}
