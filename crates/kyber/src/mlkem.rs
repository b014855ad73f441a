//! FIPS 203 ML-KEM: key generation, encapsulation and decapsulation
//! (Algorithms 16–18) over byte-encoded keys, with the implicit-rejection
//! Fujisaki–Okamoto transform.
//!
//! Every Keccak call — `G`/`H`/`J` and all the SHAKE matrix/PRF
//! expansions — is exposed through the staged [`KemJob`] state machine:
//! a job advances in *stages*, each stage publishing its pending
//! [`HashJob`]s and consuming their outputs before doing the CPU work
//! (NTT, module arithmetic, encoding) that leads to the next stage. A
//! driver that holds many concurrent jobs (the `krv-service` scheduler)
//! can therefore merge the pending hash jobs of *all* of them — any mix
//! of SHA3-256/512 and SHAKE128/256 — into one SN-wide [`drive_stream`]
//! call per round: the cross-request batching the paper's conclusion
//! asks for. A single-caller driver ([`run_kem_job`]) simply loops one
//! job to completion on a local backend.
//!
//! Hash roles (FIPS 203 §4.1): `H = SHA3-256`, `G = SHA3-512`,
//! `J = SHAKE256` (32 bytes), `PRF_η = SHAKE256` (64·η bytes),
//! `XOF = SHAKE128`.

use crate::encode::{byte_decode_canonical, decode_vector, encode_vector};
use crate::pke::{decrypt_polys, encrypt_polys, keygen_polys, Noise};
use crate::poly::Poly;
use crate::sampling::{sample_cbd, sample_ntt, SHAKE128_BLOCK};
use crate::KyberParams;
use krv_sha3::{drive_stream, PermutationBackend, SpongeParams, SpongeState, StreamItem, StreamOp};

/// Why a KEM input was rejected before any Keccak work was spent on it
/// (FIPS 203 §7.2–7.3 input validation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KemError {
    /// An encapsulation key of the wrong length for the parameter set.
    EncapsKeyLength {
        /// `384k + 32` for the requested set.
        expected: usize,
        /// The length actually supplied.
        got: usize,
    },
    /// An encapsulation key whose `ByteDecode₁₂` fields are not all
    /// `< q` — the FIPS 203 modulus check.
    NonCanonicalKey {
        /// Index of the first out-of-range coefficient across the
        /// key's `256k` fields.
        coefficient: usize,
    },
    /// A decapsulation key of the wrong length for the parameter set.
    DecapsKeyLength {
        /// `768k + 96` for the requested set.
        expected: usize,
        /// The length actually supplied.
        got: usize,
    },
    /// A ciphertext of the wrong length for the parameter set.
    CiphertextLength {
        /// `32(d_u·k + d_v)` for the requested set.
        expected: usize,
        /// The length actually supplied.
        got: usize,
    },
}

impl std::fmt::Display for KemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KemError::EncapsKeyLength { expected, got } => {
                write!(f, "encapsulation key is {got} bytes, expected {expected}")
            }
            KemError::NonCanonicalKey { coefficient } => {
                write!(f, "encapsulation key coefficient {coefficient} is ≥ q")
            }
            KemError::DecapsKeyLength { expected, got } => {
                write!(f, "decapsulation key is {got} bytes, expected {expected}")
            }
            KemError::CiphertextLength { expected, got } => {
                write!(f, "ciphertext is {got} bytes, expected {expected}")
            }
        }
    }
}

impl std::error::Error for KemError {}

/// A parsed, validated encapsulation key: `ek = ByteEncode₁₂(t̂) ‖ ρ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncapsKey {
    /// The parameter set the key was parsed under.
    pub params: KyberParams,
    /// The matrix seed ρ.
    pub rho: [u8; 32],
    /// The public vector t̂ (NTT domain), length k.
    pub t_hat: Vec<Poly>,
}

impl EncapsKey {
    /// Parses and validates `bytes` (FIPS 203 §7.2 type + modulus
    /// checks).
    ///
    /// # Errors
    ///
    /// [`KemError::EncapsKeyLength`] on a wrong-length key,
    /// [`KemError::NonCanonicalKey`] when a 12-bit field is ≥ q.
    pub fn parse(params: KyberParams, bytes: &[u8]) -> Result<Self, KemError> {
        if bytes.len() != params.ek_len() {
            return Err(KemError::EncapsKeyLength {
                expected: params.ek_len(),
                got: bytes.len(),
            });
        }
        let mut t_hat = Vec::with_capacity(params.k);
        for (block, chunk) in bytes[..384 * params.k].chunks_exact(384).enumerate() {
            match byte_decode_canonical(chunk) {
                Ok(poly) => t_hat.push(poly),
                Err(coefficient) => {
                    return Err(KemError::NonCanonicalKey {
                        coefficient: block * 256 + coefficient,
                    })
                }
            }
        }
        let mut rho = [0u8; 32];
        rho.copy_from_slice(&bytes[384 * params.k..]);
        Ok(Self { params, rho, t_hat })
    }
}

/// A parsed decapsulation key:
/// `dk = ByteEncode₁₂(ŝ) ‖ ek ‖ H(ek) ‖ z`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecapsKey {
    /// The parameter set the key was parsed under.
    pub params: KyberParams,
    /// The secret vector ŝ (NTT domain), length k.
    pub s_hat: Vec<Poly>,
    /// The matrix seed ρ from the embedded encapsulation key.
    pub rho: [u8; 32],
    /// The public vector t̂ from the embedded encapsulation key.
    pub t_hat: Vec<Poly>,
    /// The cached key hash `h = H(ek)`.
    pub h: [u8; 32],
    /// The implicit-rejection secret z.
    pub z: [u8; 32],
}

impl DecapsKey {
    /// Parses `bytes` (FIPS 203 §7.3 length check; the embedded fields
    /// are trusted — a decapsulation key is the holder's own secret).
    ///
    /// # Errors
    ///
    /// [`KemError::DecapsKeyLength`] on a wrong-length key.
    pub fn parse(params: KyberParams, bytes: &[u8]) -> Result<Self, KemError> {
        if bytes.len() != params.dk_len() {
            return Err(KemError::DecapsKeyLength {
                expected: params.dk_len(),
                got: bytes.len(),
            });
        }
        let k = params.k;
        let s_hat = decode_vector(&bytes[..384 * k], 12);
        let t_hat = decode_vector(&bytes[384 * k..768 * k], 12);
        let mut rho = [0u8; 32];
        rho.copy_from_slice(&bytes[768 * k..768 * k + 32]);
        let mut h = [0u8; 32];
        h.copy_from_slice(&bytes[768 * k + 32..768 * k + 64]);
        let mut z = [0u8; 32];
        z.copy_from_slice(&bytes[768 * k + 64..]);
        Ok(Self {
            params,
            s_hat,
            rho,
            t_hat,
            h,
            z,
        })
    }
}

/// One Keccak call a [`KemJob`] is waiting on: hash `input` through the
/// sponge `params` and hand back `output_len` bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashJob {
    /// The sponge to run (SHA3-256/512 or SHAKE128/256).
    pub params: SpongeParams,
    /// The bytes to absorb.
    pub input: Vec<u8>,
    /// Output bytes to squeeze.
    pub output_len: usize,
}

/// One ML-KEM operation, as submitted to a [`KemJob`] or to
/// `krv-service`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KemOp {
    /// `ML-KEM.KeyGen_internal(d, z)`: derive an (ek, dk) pair.
    Keygen {
        /// The 32-byte key-generation seed d.
        d: [u8; 32],
        /// The 32-byte implicit-rejection seed z.
        z: [u8; 32],
    },
    /// `ML-KEM.Encaps_internal(ek, m)`: derive a shared secret and its
    /// ciphertext.
    Encaps {
        /// The byte-encoded encapsulation key.
        ek: Vec<u8>,
        /// The 32-byte encapsulation randomness m.
        m: [u8; 32],
    },
    /// `ML-KEM.Decaps(dk, c)`: recover the shared secret (or the
    /// implicit-rejection secret).
    Decaps {
        /// The byte-encoded decapsulation key.
        dk: Vec<u8>,
        /// The byte-encoded ciphertext.
        ct: Vec<u8>,
    },
}

impl KemOp {
    /// A short stable tag (`keygen` / `encaps` / `decaps`) for labels.
    pub const fn tag(&self) -> &'static str {
        match self {
            KemOp::Keygen { .. } => "keygen",
            KemOp::Encaps { .. } => "encaps",
            KemOp::Decaps { .. } => "decaps",
        }
    }
}

/// What a finished [`KemJob`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KemResult {
    /// A fresh key pair.
    Keygen {
        /// The byte-encoded encapsulation key (`384k + 32` bytes).
        ek: Vec<u8>,
        /// The byte-encoded decapsulation key (`768k + 96` bytes).
        dk: Vec<u8>,
    },
    /// A ciphertext and the shared secret it encapsulates.
    Encaps {
        /// The byte-encoded ciphertext (`32(d_u·k + d_v)` bytes).
        ct: Vec<u8>,
        /// The 32-byte shared secret K.
        shared_secret: [u8; 32],
    },
    /// The decapsulated shared secret (the real K on a matching
    /// re-encryption, the J-derived implicit-rejection secret
    /// otherwise — never an error, never a distinguishable failure).
    Decaps {
        /// The 32-byte shared secret.
        shared_secret: [u8; 32],
    },
}

/// Tracks the rejection-sampling progress of the k × k matrix **Â**:
/// which entries still await a long-enough SHAKE128 stream, and how many
/// output blocks the next attempt should squeeze. SHAKE is
/// prefix-stable, so each retry re-hashes the same input with a longer
/// output and the accepted prefix is unchanged.
#[derive(Debug, Clone)]
struct MatrixSampler {
    k: usize,
    rho: [u8; 32],
    polys: Vec<Option<Poly>>,
    awaiting: Vec<usize>,
    blocks: usize,
}

impl MatrixSampler {
    fn new(rho: &[u8; 32], k: usize) -> Self {
        Self {
            k,
            rho: *rho,
            polys: vec![None; k * k],
            awaiting: (0..k * k).collect(),
            // Three SHAKE blocks ≈ 99.9 % success per entry.
            blocks: 3,
        }
    }

    /// Hash jobs for the entries still awaiting a stream: entry (i, j)
    /// hashes `ρ ‖ j ‖ i`, written straight into the job's input.
    fn jobs(&self) -> Vec<HashJob> {
        self.awaiting
            .iter()
            .map(|&entry| {
                let (i, j) = (entry / self.k, entry % self.k);
                let mut input = Vec::with_capacity(34);
                input.extend_from_slice(&self.rho);
                input.extend_from_slice(&[j as u8, i as u8]);
                HashJob {
                    params: SpongeParams::shake(128),
                    input,
                    output_len: self.blocks * SHAKE128_BLOCK,
                }
            })
            .collect()
    }

    /// Entries currently awaiting a stream (= `self.jobs().len()`).
    fn awaiting(&self) -> usize {
        self.awaiting.len()
    }

    /// Consumes one stream per awaiting entry; entries that still reject
    /// too much stay awaiting, with one more block for the next round.
    fn absorb(&mut self, streams: &[Vec<u8>]) {
        let previous = std::mem::take(&mut self.awaiting);
        debug_assert_eq!(previous.len(), streams.len());
        for (&entry, stream) in previous.iter().zip(streams) {
            match sample_ntt(stream) {
                Some(poly) => self.polys[entry] = Some(poly),
                None => self.awaiting.push(entry),
            }
        }
        self.blocks += 1;
    }

    fn done(&self) -> bool {
        self.awaiting.is_empty()
    }

    /// The completed matrix, row-major.
    fn take(self) -> Vec<Vec<Poly>> {
        debug_assert!(self.done());
        self.polys
            .chunks(self.k)
            .map(|row| row.iter().map(|p| p.expect("matrix complete")).collect())
            .collect()
    }
}

/// The stage a [`KemJob`] is in. Each stage's pending hash jobs are laid
/// out as `special jobs ++ matrix-retry jobs`; `advance` consumes the
/// outputs in that order.
#[derive(Debug, Clone)]
enum Stage {
    /// Keygen: waiting on `G(d ‖ k)` (whose input already carries `d`).
    KeygenG { z: [u8; 32] },
    /// Keygen: waiting on the matrix streams and the 2k CBD streams.
    KeygenExpand {
        z: [u8; 32],
        rho: [u8; 32],
        matrix: MatrixSampler,
    },
    /// Keygen: secrets done, matrix entries still rejecting.
    KeygenRetry {
        z: [u8; 32],
        rho: [u8; 32],
        matrix: MatrixSampler,
        s: Vec<Poly>,
        e: Vec<Poly>,
    },
    /// Keygen: waiting on `H(ek)` for the dk tail.
    KeygenHashEk {
        z: [u8; 32],
        ek: Vec<u8>,
        dk_pke: Vec<u8>,
    },
    /// Encaps: waiting on `H(ek)` alongside the first matrix round.
    EncapsH {
        key: EncapsKey,
        m: [u8; 32],
        matrix: MatrixSampler,
    },
    /// Encaps: waiting on `G(m ‖ h)` alongside matrix retries.
    EncapsG {
        key: EncapsKey,
        m: [u8; 32],
        matrix: MatrixSampler,
    },
    /// Encaps: waiting on the 2k+1 PRF streams alongside matrix retries.
    EncapsPrf {
        key: EncapsKey,
        m: [u8; 32],
        shared: [u8; 32],
        matrix: MatrixSampler,
    },
    /// Encaps: noise sampled, matrix entries still rejecting.
    EncapsRetry {
        key: EncapsKey,
        m: [u8; 32],
        shared: [u8; 32],
        noise: Noise,
        matrix: MatrixSampler,
    },
    /// Decaps: waiting on `G(m' ‖ h)` and `J(z ‖ c)` alongside the first
    /// matrix round.
    DecapsG {
        key: DecapsKey,
        ct: Vec<u8>,
        m_prime: [u8; 32],
        matrix: MatrixSampler,
    },
    /// Decaps: waiting on the re-encryption PRF streams alongside matrix
    /// retries.
    DecapsPrf {
        key: DecapsKey,
        ct: Vec<u8>,
        m_prime: [u8; 32],
        k_prime: [u8; 32],
        k_bar: [u8; 32],
        matrix: MatrixSampler,
    },
    /// Decaps: noise sampled, matrix entries still rejecting.
    DecapsRetry {
        key: DecapsKey,
        ct: Vec<u8>,
        m_prime: [u8; 32],
        k_prime: [u8; 32],
        k_bar: [u8; 32],
        noise: Noise,
        matrix: MatrixSampler,
    },
    /// Finished.
    Done(KemResult),
}

/// One ML-KEM operation as an explicit multi-stage state machine.
///
/// The contract: while [`Self::is_done`] is false, [`Self::pending`] is
/// a non-empty list of hash jobs; the driver hashes them (in any
/// grouping, on any [`PermutationBackend`]) and calls [`Self::advance`]
/// with the outputs in pending order. `advance` performs the stage's CPU
/// work — sampling, NTT, module arithmetic, encoding — and publishes the
/// next stage's pending jobs. When `is_done` turns true,
/// [`Self::into_result`] yields the [`KemResult`].
///
/// This shape is what lets a batching scheduler overlap *many* KEM
/// operations: all concurrent jobs' pending lists are merged into one
/// shared [`drive_stream`] call per round, and one job's CPU work
/// interleaves with other jobs' Keccak work instead of serializing
/// behind it.
#[derive(Debug, Clone)]
pub struct KemJob {
    params: KyberParams,
    pending: Vec<HashJob>,
    stage: Stage,
}

impl KemJob {
    /// Validates the operation's inputs (FIPS 203 §7 type checks) and
    /// stages its first round of hash jobs.
    ///
    /// # Errors
    ///
    /// Any [`KemError`]: wrong-length or non-canonical encapsulation
    /// keys, wrong-length decapsulation keys or ciphertexts.
    pub fn new(params: KyberParams, op: KemOp) -> Result<Self, KemError> {
        match op {
            KemOp::Keygen { d, z } => {
                let mut input = d.to_vec();
                input.push(params.k as u8); // FIPS 203 domain-separates G by k.
                Ok(Self {
                    params,
                    pending: vec![HashJob {
                        params: SpongeParams::sha3(512),
                        input,
                        output_len: 64,
                    }],
                    stage: Stage::KeygenG { z },
                })
            }
            KemOp::Encaps { ek, m } => {
                let key = EncapsKey::parse(params, &ek)?;
                let matrix = MatrixSampler::new(&key.rho, params.k);
                let mut pending = vec![HashJob {
                    params: SpongeParams::sha3(256),
                    input: ek,
                    output_len: 32,
                }];
                pending.extend(matrix.jobs());
                Ok(Self {
                    params,
                    pending,
                    stage: Stage::EncapsH { key, m, matrix },
                })
            }
            KemOp::Decaps { dk, ct } => {
                let key = DecapsKey::parse(params, &dk)?;
                if ct.len() != params.ct_len() {
                    return Err(KemError::CiphertextLength {
                        expected: params.ct_len(),
                        got: ct.len(),
                    });
                }
                // K-PKE.Decrypt is hash-free CPU work; run it up front
                // so the first stage already overlaps G, J and the
                // matrix expansion.
                let m_prime = decrypt_bytes(params, &key.s_hat, &ct);
                let matrix = MatrixSampler::new(&key.rho, params.k);
                let mut g_input = m_prime.to_vec();
                g_input.extend_from_slice(&key.h);
                let mut j_input = key.z.to_vec();
                j_input.extend_from_slice(&ct);
                let mut pending = vec![
                    HashJob {
                        params: SpongeParams::sha3(512),
                        input: g_input,
                        output_len: 64,
                    },
                    HashJob {
                        params: SpongeParams::shake(256),
                        input: j_input,
                        output_len: 32,
                    },
                ];
                pending.extend(matrix.jobs());
                Ok(Self {
                    params,
                    pending,
                    stage: Stage::DecapsG {
                        key,
                        ct,
                        m_prime,
                        matrix,
                    },
                })
            }
        }
    }

    /// The parameter set this job runs under.
    pub fn params(&self) -> KyberParams {
        self.params
    }

    /// The hash jobs the current stage is waiting on (empty once done).
    pub fn pending(&self) -> &[HashJob] {
        &self.pending
    }

    /// Whether the job has produced its result.
    pub fn is_done(&self) -> bool {
        matches!(self.stage, Stage::Done(_))
    }

    /// The finished result.
    ///
    /// # Panics
    ///
    /// Panics if the job is not done.
    pub fn into_result(self) -> KemResult {
        match self.stage {
            Stage::Done(result) => result,
            _ => panic!("KemJob::into_result before the job finished"),
        }
    }

    /// Reads one output per pending hash job (in pending order),
    /// performs the stage's CPU work and stages the next round. The
    /// outputs stay the caller's, so their buffers can serve the next
    /// round (see [`KemStaging`]).
    ///
    /// # Panics
    ///
    /// Panics if `outputs.len()` differs from `pending().len()`, an
    /// output is shorter than its job requested, or the job is already
    /// done.
    pub fn advance(&mut self, outputs: &[Vec<u8>]) {
        assert_eq!(
            outputs.len(),
            self.pending.len(),
            "one output per pending hash job"
        );
        for (job, output) in self.pending.iter().zip(outputs) {
            assert!(
                output.len() >= job.output_len,
                "output shorter than requested"
            );
        }
        let params = self.params;
        let stage = std::mem::replace(&mut self.stage, Stage::Done(placeholder()));
        let (stage, pending) = step(params, stage, outputs);
        self.stage = stage;
        self.pending = pending;
    }
}

/// A throwaway result used only while `advance` swaps stages.
fn placeholder() -> KemResult {
    KemResult::Decaps {
        shared_secret: [0u8; 32],
    }
}

/// One stage transition: consume the outputs, do the CPU work, publish
/// the next stage and its pending jobs.
fn step(params: KyberParams, stage: Stage, outputs: &[Vec<u8>]) -> (Stage, Vec<HashJob>) {
    let k = params.k;
    match stage {
        Stage::KeygenG { z } => {
            let digest = &outputs[0];
            let mut rho = [0u8; 32];
            let mut sigma = [0u8; 32];
            rho.copy_from_slice(&digest[..32]);
            sigma.copy_from_slice(&digest[32..64]);
            let matrix = MatrixSampler::new(&rho, k);
            let mut pending = matrix.jobs();
            for nonce in 0..2 * k {
                let mut input = sigma.to_vec();
                input.push(nonce as u8);
                pending.push(HashJob {
                    params: SpongeParams::shake(256),
                    input,
                    output_len: 64 * params.eta1,
                });
            }
            (Stage::KeygenExpand { z, rho, matrix }, pending)
        }
        Stage::KeygenExpand { z, rho, mut matrix } => {
            let split = matrix.awaiting();
            matrix.absorb(&outputs[..split]);
            let mut s: Vec<Poly> = outputs[split..]
                .iter()
                .map(|stream| sample_cbd(&stream[..64 * params.eta1], params.eta1))
                .collect();
            let e = s.split_off(k);
            keygen_after_expand(z, rho, matrix, s, e)
        }
        Stage::KeygenRetry {
            z,
            rho,
            mut matrix,
            s,
            e,
        } => {
            matrix.absorb(outputs);
            keygen_after_expand(z, rho, matrix, s, e)
        }
        Stage::KeygenHashEk { z, ek, dk_pke } => {
            // dk = dk_pke ‖ ek ‖ H(ek) ‖ z.
            let mut dk = dk_pke;
            dk.extend_from_slice(&ek);
            dk.extend_from_slice(&outputs[0][..32]);
            dk.extend_from_slice(&z);
            (Stage::Done(KemResult::Keygen { ek, dk }), Vec::new())
        }
        Stage::EncapsH { key, m, mut matrix } => {
            let h = &outputs[0];
            matrix.absorb(&outputs[1..]);
            // G(m ‖ H(ek)) → (K, r).
            let mut input = m.to_vec();
            input.extend_from_slice(&h[..32]);
            let mut pending = vec![HashJob {
                params: SpongeParams::sha3(512),
                input,
                output_len: 64,
            }];
            pending.extend(matrix.jobs());
            (Stage::EncapsG { key, m, matrix }, pending)
        }
        Stage::EncapsG { key, m, mut matrix } => {
            let digest = &outputs[0];
            let mut shared = [0u8; 32];
            let mut coins = [0u8; 32];
            shared.copy_from_slice(&digest[..32]);
            coins.copy_from_slice(&digest[32..64]);
            matrix.absorb(&outputs[1..]);
            let mut pending = prf_jobs(params, &coins);
            pending.extend(matrix.jobs());
            (
                Stage::EncapsPrf {
                    key,
                    m,
                    shared,
                    matrix,
                },
                pending,
            )
        }
        Stage::EncapsPrf {
            key,
            m,
            shared,
            mut matrix,
        } => {
            let split = 2 * k + 1;
            let noise = Noise::from_streams(params, &outputs[..split]);
            matrix.absorb(&outputs[split..]);
            encaps_after_prf(params, key, m, shared, noise, matrix)
        }
        Stage::EncapsRetry {
            key,
            m,
            shared,
            noise,
            mut matrix,
        } => {
            matrix.absorb(outputs);
            encaps_after_prf(params, key, m, shared, noise, matrix)
        }
        Stage::DecapsG {
            key,
            ct,
            m_prime,
            mut matrix,
        } => {
            let digest = &outputs[0];
            let mut k_prime = [0u8; 32];
            let mut coins = [0u8; 32];
            k_prime.copy_from_slice(&digest[..32]);
            coins.copy_from_slice(&digest[32..64]);
            let mut k_bar = [0u8; 32];
            k_bar.copy_from_slice(&outputs[1][..32]);
            matrix.absorb(&outputs[2..]);
            let mut pending = prf_jobs(params, &coins);
            pending.extend(matrix.jobs());
            (
                Stage::DecapsPrf {
                    key,
                    ct,
                    m_prime,
                    k_prime,
                    k_bar,
                    matrix,
                },
                pending,
            )
        }
        Stage::DecapsPrf {
            key,
            ct,
            m_prime,
            k_prime,
            k_bar,
            mut matrix,
        } => {
            let split = 2 * k + 1;
            let noise = Noise::from_streams(params, &outputs[..split]);
            matrix.absorb(&outputs[split..]);
            decaps_after_prf(params, key, ct, m_prime, k_prime, k_bar, noise, matrix)
        }
        Stage::DecapsRetry {
            key,
            ct,
            m_prime,
            k_prime,
            k_bar,
            noise,
            mut matrix,
        } => {
            matrix.absorb(outputs);
            decaps_after_prf(params, key, ct, m_prime, k_prime, k_bar, noise, matrix)
        }
        Stage::Done(_) => panic!("KemJob::advance after the job finished"),
    }
}

/// Keygen once the CBD secrets are in hand: either keep retrying the
/// matrix, or compute `t̂ = Â∘ŝ + ê`, serialize, and stage `H(ek)`.
fn keygen_after_expand(
    z: [u8; 32],
    rho: [u8; 32],
    matrix: MatrixSampler,
    s: Vec<Poly>,
    e: Vec<Poly>,
) -> (Stage, Vec<HashJob>) {
    if !matrix.done() {
        let pending = matrix.jobs();
        return (
            Stage::KeygenRetry {
                z,
                rho,
                matrix,
                s,
                e,
            },
            pending,
        );
    }
    let (t_hat, s_hat) = keygen_polys(&matrix.take(), &s, &e);
    let mut ek = encode_vector(&t_hat, 12);
    ek.extend_from_slice(&rho);
    let dk_pke = encode_vector(&s_hat, 12);
    let pending = vec![HashJob {
        params: SpongeParams::sha3(256),
        input: ek.clone(),
        output_len: 32,
    }];
    (Stage::KeygenHashEk { z, ek, dk_pke }, pending)
}

/// Encaps once the noise is sampled: keep retrying the matrix, or
/// encrypt and finish.
fn encaps_after_prf(
    params: KyberParams,
    key: EncapsKey,
    m: [u8; 32],
    shared: [u8; 32],
    noise: Noise,
    matrix: MatrixSampler,
) -> (Stage, Vec<HashJob>) {
    if !matrix.done() {
        let pending = matrix.jobs();
        return (
            Stage::EncapsRetry {
                key,
                m,
                shared,
                noise,
                matrix,
            },
            pending,
        );
    }
    let a_hat = matrix.take();
    let ct = encrypt_bytes(params, &a_hat, &key.t_hat, &m, &noise);
    (
        Stage::Done(KemResult::Encaps {
            ct,
            shared_secret: shared,
        }),
        Vec::new(),
    )
}

/// Decaps once the noise is sampled: keep retrying the matrix, or
/// re-encrypt, compare, and select K′ or the implicit-rejection K̄.
#[allow(clippy::too_many_arguments)]
fn decaps_after_prf(
    params: KyberParams,
    key: DecapsKey,
    ct: Vec<u8>,
    m_prime: [u8; 32],
    k_prime: [u8; 32],
    k_bar: [u8; 32],
    noise: Noise,
    matrix: MatrixSampler,
) -> (Stage, Vec<HashJob>) {
    if !matrix.done() {
        let pending = matrix.jobs();
        return (
            Stage::DecapsRetry {
                key,
                ct,
                m_prime,
                k_prime,
                k_bar,
                noise,
                matrix,
            },
            pending,
        );
    }
    let a_hat = matrix.take();
    let ct_prime = encrypt_bytes(params, &a_hat, &key.t_hat, &m_prime, &noise);
    // Implicit rejection: a mismatched re-encryption yields K̄ = J(z ‖ c)
    // — indistinguishable from a real secret, never an error.
    let shared_secret = if ct_prime == ct { k_prime } else { k_bar };
    (Stage::Done(KemResult::Decaps { shared_secret }), Vec::new())
}

/// The 2k+1 `PRF` jobs of one encryption: `r` (η₁, nonces `0..k`), `e₁`
/// (η₂, nonces `k..2k`) and `e₂` (η₂, nonce `2k`).
fn prf_jobs(params: KyberParams, coins: &[u8; 32]) -> Vec<HashJob> {
    (0..=2 * params.k)
        .map(|nonce| {
            let eta = if nonce < params.k {
                params.eta1
            } else {
                params.eta2
            };
            let mut input = coins.to_vec();
            input.push(nonce as u8);
            HashJob {
                params: SpongeParams::shake(256),
                input,
                output_len: 64 * eta,
            }
        })
        .collect()
}

/// K-PKE.Encrypt from pre-expanded parts: the matrix, the public vector,
/// the message and the sampled noise (FIPS 203 Algorithm 14, hash-free
/// tail). Returns the byte-encoded ciphertext, compressed as it is
/// packed.
fn encrypt_bytes(
    params: KyberParams,
    a_hat: &[Vec<Poly>],
    t_hat: &[Poly],
    m: &[u8; 32],
    noise: &Noise,
) -> Vec<u8> {
    let (u, v) = encrypt_polys(a_hat, t_hat, m, noise);
    let mut ct = encode_vector(&u, params.du);
    ct.extend_from_slice(&encode_vector(&[v], params.dv));
    ct
}

/// K-PKE.Decrypt from byte-encoded inputs (FIPS 203 Algorithm 15).
fn decrypt_bytes(params: KyberParams, s_hat: &[Poly], ct: &[u8]) -> [u8; 32] {
    let split = 32 * params.du as usize * params.k;
    let u = decode_vector(&ct[..split], params.du);
    let v = decode_vector(&ct[split..], params.dv)[0];
    decrypt_polys(s_hat, &u, &v)
}

/// The buffers one [`KemJob`] round is hashed in: a fresh sponge state
/// and an output buffer per pending hash job.
///
/// Both are kept across rounds, so a job's later rounds reuse the
/// states' and the outputs' capacity instead of allocating them again.
/// [`run_kem_job`] and the service's scheduler stage every round
/// through one.
#[derive(Debug, Clone, Default)]
pub struct KemStaging {
    states: Vec<SpongeState>,
    /// Every buffer staged so far; the first `staged` hold this round's
    /// outputs.
    outputs: Vec<Vec<u8>>,
    staged: usize,
}

impl KemStaging {
    /// Empty staging; the first round sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages `pending` (a job's [`KemJob::pending`]) and appends one
    /// one-shot operation per hash job to `items`, each on a fresh state
    /// writing its output buffer.
    pub fn push_items<'a>(&'a mut self, pending: &'a [HashJob], items: &mut Vec<StreamItem<'a>>) {
        self.states.clear();
        self.states.extend(
            pending
                .iter()
                .map(|hash_job| SpongeState::new(hash_job.params)),
        );
        if self.outputs.len() < pending.len() {
            self.outputs.resize_with(pending.len(), Vec::new);
        }
        self.staged = pending.len();
        for (output, hash_job) in self.outputs.iter_mut().zip(pending) {
            output.clear();
            output.resize(hash_job.output_len, 0);
        }
        items.extend(
            self.states
                .iter_mut()
                .zip(&mut self.outputs)
                .zip(pending)
                .map(|((state, out), hash_job)| StreamItem {
                    state,
                    op: StreamOp::one_shot(&hash_job.input, out),
                }),
        );
    }

    /// The staged round's outputs, in pending order: what
    /// [`KemJob::advance`] reads once the round has been driven.
    pub fn outputs(&self) -> &[Vec<u8>] {
        &self.outputs[..self.staged]
    }
}

/// Drives one [`KemJob`] to completion on a local backend: each round,
/// every pending hash job — whatever its sponge parameters — rides one
/// [`drive_stream`] call as a one-shot operation on a fresh state, the
/// single-caller analogue of the service scheduler's cross-request
/// batching.
pub fn run_kem_job<B: PermutationBackend>(job: &mut KemJob, backend: &mut B) {
    let mut staging = KemStaging::new();
    while !job.is_done() {
        let mut items = Vec::new();
        staging.push_items(job.pending(), &mut items);
        drive_stream(backend, &mut items);
        job.advance(staging.outputs());
    }
}

/// `ML-KEM.KeyGen_internal(d, z)` (FIPS 203 Algorithm 16): derives the
/// byte-encoded `(ek, dk)` pair on the given backend.
pub fn ml_kem_keygen<B: PermutationBackend>(
    params: KyberParams,
    d: &[u8; 32],
    z: &[u8; 32],
    mut backend: B,
) -> (Vec<u8>, Vec<u8>) {
    let mut job =
        KemJob::new(params, KemOp::Keygen { d: *d, z: *z }).expect("keygen never rejects");
    run_kem_job(&mut job, &mut backend);
    match job.into_result() {
        KemResult::Keygen { ek, dk } => (ek, dk),
        _ => unreachable!("keygen job yields keygen result"),
    }
}

/// `ML-KEM.Encaps_internal(ek, m)` (FIPS 203 Algorithm 17): the
/// byte-encoded ciphertext and the 32-byte shared secret.
///
/// # Errors
///
/// [`KemError::EncapsKeyLength`] / [`KemError::NonCanonicalKey`] when
/// `ek` fails the §7.2 input checks.
pub fn ml_kem_encaps<B: PermutationBackend>(
    params: KyberParams,
    ek: &[u8],
    m: &[u8; 32],
    mut backend: B,
) -> Result<(Vec<u8>, [u8; 32]), KemError> {
    let mut job = KemJob::new(
        params,
        KemOp::Encaps {
            ek: ek.to_vec(),
            m: *m,
        },
    )?;
    run_kem_job(&mut job, &mut backend);
    match job.into_result() {
        KemResult::Encaps { ct, shared_secret } => Ok((ct, shared_secret)),
        _ => unreachable!("encaps job yields encaps result"),
    }
}

/// `ML-KEM.Decaps(dk, c)` (FIPS 203 Algorithm 18): the 32-byte shared
/// secret, with implicit rejection — a tampered ciphertext yields the
/// J-derived secret, never an error and never the real secret.
///
/// # Errors
///
/// [`KemError::DecapsKeyLength`] / [`KemError::CiphertextLength`] when
/// the inputs fail the §7.3 length checks.
pub fn ml_kem_decaps<B: PermutationBackend>(
    params: KyberParams,
    dk: &[u8],
    ct: &[u8],
    mut backend: B,
) -> Result<[u8; 32], KemError> {
    let mut job = KemJob::new(
        params,
        KemOp::Decaps {
            dk: dk.to_vec(),
            ct: ct.to_vec(),
        },
    )?;
    run_kem_job(&mut job, &mut backend);
    match job.into_result() {
        KemResult::Decaps { shared_secret } => Ok(shared_secret),
        _ => unreachable!("decaps job yields decaps result"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KYBER_Q;
    use krv_sha3::{
        hash_batch, BatchRequest, ReferenceBackend, Sha3_256, Sha3_512, Shake256, Sponge, Xof,
    };

    fn seeds(tag: u8) -> ([u8; 32], [u8; 32], [u8; 32]) {
        let mut d = [0u8; 32];
        let mut z = [0u8; 32];
        let mut m = [0u8; 32];
        for i in 0..32 {
            d[i] = (i as u8).wrapping_mul(3) ^ tag;
            z[i] = (i as u8).wrapping_mul(5) ^ tag.wrapping_add(1);
            m[i] = (i as u8).wrapping_mul(7) ^ tag.wrapping_add(2);
        }
        (d, z, m)
    }

    #[test]
    fn encaps_decaps_round_trip_all_sets() {
        for (params, tag) in [
            (KyberParams::KYBER512, 0x10u8),
            (KyberParams::KYBER768, 0x20),
            (KyberParams::KYBER1024, 0x30),
        ] {
            let (d, z, m) = seeds(tag);
            let (ek, dk) = ml_kem_keygen(params, &d, &z, ReferenceBackend::new());
            assert_eq!(ek.len(), params.ek_len(), "{}", params.label());
            assert_eq!(dk.len(), params.dk_len(), "{}", params.label());
            let (ct, shared) =
                ml_kem_encaps(params, &ek, &m, ReferenceBackend::new()).expect("valid ek");
            assert_eq!(ct.len(), params.ct_len(), "{}", params.label());
            let recovered =
                ml_kem_decaps(params, &dk, &ct, ReferenceBackend::new()).expect("valid inputs");
            assert_eq!(shared, recovered, "{}", params.label());
        }
    }

    #[test]
    fn dk_layout_embeds_ek_hash_and_z() {
        let params = KyberParams::KYBER768;
        let (d, z, _) = seeds(0x44);
        let (ek, dk) = ml_kem_keygen(params, &d, &z, ReferenceBackend::new());
        let k = params.k;
        assert_eq!(&dk[384 * k..768 * k + 32], &ek[..], "embedded ek");
        assert_eq!(
            &dk[768 * k + 32..768 * k + 64],
            &Sha3_256::digest(&ek)[..],
            "cached H(ek)"
        );
        assert_eq!(&dk[768 * k + 64..], &z[..], "implicit-rejection seed");
    }

    #[test]
    fn shared_secret_matches_explicit_g() {
        // K must be the first half of G(m ‖ H(ek)).
        let params = KyberParams::KYBER512;
        let (d, z, m) = seeds(0x55);
        let (ek, _) = ml_kem_keygen(params, &d, &z, ReferenceBackend::new());
        let (_, shared) = ml_kem_encaps(params, &ek, &m, ReferenceBackend::new()).unwrap();
        let mut g = Sha3_512::new();
        g.update(&m);
        g.update(&Sha3_256::digest(&ek));
        assert_eq!(shared, g.finalize()[..32]);
    }

    #[test]
    fn tampered_ciphertext_yields_the_j_secret() {
        for params in KyberParams::ALL {
            let (d, z, m) = seeds(0x66);
            let (ek, dk) = ml_kem_keygen(params, &d, &z, ReferenceBackend::new());
            let (ct, shared) = ml_kem_encaps(params, &ek, &m, ReferenceBackend::new()).unwrap();
            for flip in [0usize, ct.len() / 2, ct.len() - 1] {
                let mut tampered = ct.clone();
                tampered[flip] ^= 0x01;
                let rejected = ml_kem_decaps(params, &dk, &tampered, ReferenceBackend::new())
                    .expect("length is still valid");
                assert_ne!(
                    rejected,
                    shared,
                    "{} flip {flip}: real secret",
                    params.label()
                );
                // The rejection secret is exactly J(z ‖ c̃) = SHAKE256.
                let mut j = Shake256::new();
                j.update(&z);
                j.update(&tampered);
                assert_eq!(
                    rejected.to_vec(),
                    j.squeeze(32),
                    "{} flip {flip}: K̄ = J(z ‖ c)",
                    params.label()
                );
            }
        }
    }

    /// `ek` with its `coefficient`-th 12-bit field set to `value`.
    fn plant(ek: &[u8], coefficient: usize, value: u16) -> Vec<u8> {
        let mut ek = ek.to_vec();
        for bit in 0..12 {
            let position = 12 * coefficient + bit;
            let mask = 1 << (position % 8);
            if value >> bit & 1 == 1 {
                ek[position / 8] |= mask;
            } else {
                ek[position / 8] &= !mask;
            }
        }
        ek
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        let params = KyberParams::KYBER512;
        let (d, z, m) = seeds(0x77);
        let (ek, dk) = ml_kem_keygen(params, &d, &z, ReferenceBackend::new());
        let (ct, _) = ml_kem_encaps(params, &ek, &m, ReferenceBackend::new()).unwrap();

        assert_eq!(
            ml_kem_encaps(params, &ek[..ek.len() - 1], &m, ReferenceBackend::new()).unwrap_err(),
            KemError::EncapsKeyLength {
                expected: params.ek_len(),
                got: params.ek_len() - 1,
            }
        );
        // FIPS 203 §7.2 modulus check, for every set: q or 4095 planted
        // in a 12-bit field of t̂ — coefficients 0 and 255 (the first
        // block's ends), 256 (the second block's start) and 256k − 1 (the
        // key's last) — names exactly that coefficient, and q − 1 in the
        // same field parses.
        for params in KyberParams::ALL {
            let (ek, _) = ml_kem_keygen(params, &d, &z, ReferenceBackend::new());
            let last = 256 * params.k - 1;
            for coefficient in [0, 255, 256, last] {
                for value in [KYBER_Q, 4095] {
                    assert_eq!(
                        ml_kem_encaps(
                            params,
                            &plant(&ek, coefficient, value),
                            &m,
                            ReferenceBackend::new()
                        )
                        .unwrap_err(),
                        KemError::NonCanonicalKey { coefficient },
                        "{} coefficient {coefficient} = {value}",
                        params.label()
                    );
                }
                let edge = plant(&ek, coefficient, KYBER_Q - 1);
                assert!(
                    ml_kem_encaps(params, &edge, &m, ReferenceBackend::new()).is_ok(),
                    "{} coefficient {coefficient} = q − 1",
                    params.label()
                );
            }
        }
        assert_eq!(
            ml_kem_decaps(params, &dk[..10], &ct, ReferenceBackend::new()).unwrap_err(),
            KemError::DecapsKeyLength {
                expected: params.dk_len(),
                got: 10,
            }
        );
        assert_eq!(
            ml_kem_decaps(params, &dk, &ct[..ct.len() - 2], ReferenceBackend::new()).unwrap_err(),
            KemError::CiphertextLength {
                expected: params.ct_len(),
                got: params.ct_len() - 2,
            }
        );
        // Errors format human-readably.
        assert!(KemError::NonCanonicalKey { coefficient: 9 }
            .to_string()
            .contains("coefficient 9"));
    }

    #[test]
    fn wrong_decaps_key_never_errors_and_never_matches() {
        // Decapsulating under the wrong key is indistinguishable from a
        // tampered ciphertext: a secret comes back, just not the one.
        let params = KyberParams::KYBER768;
        let (d, z, m) = seeds(0x88);
        let (ek, _) = ml_kem_keygen(params, &d, &z, ReferenceBackend::new());
        let (d2, z2, _) = seeds(0x99);
        let (_, other_dk) = ml_kem_keygen(params, &d2, &z2, ReferenceBackend::new());
        let (ct, shared) = ml_kem_encaps(params, &ek, &m, ReferenceBackend::new()).unwrap();
        let recovered = ml_kem_decaps(params, &other_dk, &ct, ReferenceBackend::new()).unwrap();
        assert_ne!(recovered, shared);
    }

    #[test]
    fn staged_job_matches_the_library_driver_under_any_grouping() {
        // Drive a KemJob one hash at a time (worst-case grouping) and
        // check the result matches the batched library driver.
        let params = KyberParams::KYBER512;
        let (d, z, m) = seeds(0xAB);
        let (ek, dk) = ml_kem_keygen(params, &d, &z, ReferenceBackend::new());
        let (ct_batched, shared_batched) =
            ml_kem_encaps(params, &ek, &m, ReferenceBackend::new()).unwrap();

        let mut job = KemJob::new(params, KemOp::Encaps { ek: ek.clone(), m }).unwrap();
        while !job.is_done() {
            let outputs: Vec<Vec<u8>> = job
                .pending()
                .to_vec()
                .iter()
                .map(|hash_job| {
                    let requests = [BatchRequest::new(&hash_job.input, hash_job.output_len)];
                    hash_batch(hash_job.params, ReferenceBackend::new(), &requests)
                        .pop()
                        .unwrap()
                })
                .collect();
            job.advance(&outputs);
        }
        match job.into_result() {
            KemResult::Encaps { ct, shared_secret } => {
                assert_eq!(ct, ct_batched);
                assert_eq!(shared_secret, shared_batched);
            }
            _ => unreachable!(),
        }
        // Same for decaps.
        let mut job = KemJob::new(params, KemOp::Decaps { dk, ct: ct_batched }).unwrap();
        let mut backend = ReferenceBackend::new();
        run_kem_job(&mut job, &mut backend);
        match job.into_result() {
            KemResult::Decaps { shared_secret } => assert_eq!(shared_secret, shared_batched),
            _ => unreachable!(),
        }
    }

    /// Counts the states it permutes.
    #[derive(Default)]
    struct Counting(usize);

    impl PermutationBackend for Counting {
        fn permute_all(&mut self, states: &mut [krv_keccak::KeccakState]) {
            self.0 += states.len();
            ReferenceBackend::new().permute_all(states);
        }
    }

    #[test]
    fn the_library_driver_spends_only_the_hash_jobs_own_permutations() {
        // run_kem_job may pack a round's hash jobs however it likes, but
        // the permutations it issues must be exactly those a standalone
        // Sponge spends on each HashJob it was handed: none for a squeeze
        // ending on a rate boundary (SampleNTT's 3 × 168 B), none for
        // mixing sponge parameters in one drive.
        for params in KyberParams::ALL {
            let (d, z, m) = seeds(0xC3);
            let (ek, dk) = ml_kem_keygen(params, &d, &z, ReferenceBackend::new());
            let (ct, _) = ml_kem_encaps(params, &ek, &m, ReferenceBackend::new()).unwrap();
            for op in [
                KemOp::Keygen { d, z },
                KemOp::Encaps { ek: ek.clone(), m },
                KemOp::Decaps {
                    dk: dk.clone(),
                    ct: ct.clone(),
                },
            ] {
                let label = format!("{} {}", params.label(), op.tag());
                let job = KemJob::new(params, op).unwrap();
                let mut driven = Counting::default();
                let mut library = job.clone();
                run_kem_job(&mut library, &mut driven);

                let mut standalone = 0;
                let mut stepped = job;
                while !stepped.is_done() {
                    let outputs: Vec<Vec<u8>> = stepped
                        .pending()
                        .iter()
                        .map(|hash_job| {
                            let mut sponge = Sponge::new(hash_job.params, Counting::default());
                            sponge.absorb(&hash_job.input);
                            let output = sponge.squeeze(hash_job.output_len);
                            standalone += sponge.into_backend().0;
                            output
                        })
                        .collect();
                    stepped.advance(&outputs);
                }
                assert_eq!(driven.0, standalone, "{label}");
                assert_eq!(library.into_result(), stepped.into_result(), "{label}");
            }
        }
    }

    #[test]
    fn kem_ops_tag_their_kind() {
        let (d, z, m) = seeds(0);
        assert_eq!(KemOp::Keygen { d, z }.tag(), "keygen");
        assert_eq!(KemOp::Encaps { ek: vec![], m }.tag(), "encaps");
        assert_eq!(
            KemOp::Decaps {
                dk: vec![],
                ct: vec![]
            }
            .tag(),
            "decaps"
        );
    }
}
