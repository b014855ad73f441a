//! The four workloads: what traffic each sends, at which fixed rates, and
//! the seeded inputs with their expected outputs.
//!
//! Every input comes from `krv_testkit::Rng` seeded by the run's
//! `--seed`, and every expected output is computed during set-up by the
//! sequential reference implementations, outside any timed window. Each
//! workload cycles through a ring of such inputs; the program keeps no
//! cache, so repeating a ring entry costs it the same work as a fresh one.

use krv_kyber::{ml_kem_decaps, ml_kem_encaps, ml_kem_keygen, KemOp, KemResult, KyberParams};
use krv_service::{ServiceConfig, TierPolicy};
use krv_sha3::tree::krv_tree_hash256;
use krv_sha3::{ReferenceBackend, Sha3_256, Shake128, Shake256};
use krv_testkit::Rng;
use std::time::Duration;

/// Salts keeping the input stream and the arrival schedule independent.
const INPUT_SALT: u64 = 0x1A9C_0DE5;
const ARRIVAL_SALT: u64 = 0x0A77_1BA1;

/// Output length of every SHAKE128 request and of the tree digest.
pub const DIGEST_LEN: usize = 32;
/// SHAKE256 squeeze length of the streamed session.
pub const SQUEEZE_LEN: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireSmall,
    BulkMirrored,
    KemMixed,
    StreamTree,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WireSmall,
        Workload::BulkMirrored,
        Workload::KemMixed,
        Workload::StreamTree,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            Workload::WireSmall => "wire-small",
            Workload::BulkMirrored => "bulk-mirrored",
            Workload::KemMixed => "kem-mixed",
            Workload::StreamTree => "stream-tree",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the traffic crosses loopback TCP to the daemon (otherwise
    /// it goes straight into an in-process `Service`).
    pub const fn over_wire(self) -> bool {
        !matches!(self, Workload::BulkMirrored)
    }

    /// Operations kept in flight during the closed phase: deep enough
    /// that the service always has a full batch (`workers × SN` = 8
    /// states) waiting. A stream-tree operation is two sessions (SHAKE256
    /// and tree) pipelined together, and one of them already keeps the
    /// service busy.
    pub const fn closed_window(self) -> usize {
        match self {
            Workload::WireSmall | Workload::BulkMirrored | Workload::KemMixed => 64,
            Workload::StreamTree => 1,
        }
    }

    /// The fixed arrival rate of the open phase, in operations per
    /// second. Fixed here, never derived at run time, so that a faster
    /// program faces the same offered load as a slower one. Each sits well
    /// below the slowest closed-phase capacity seen on the 2-core reference
    /// host (BENCHMARK.md), so a slow stretch of a shared host does not tip
    /// the open phase into refusals.
    pub const fn open_rate(self) -> f64 {
        match self {
            Workload::WireSmall => 1_000.0,
            Workload::BulkMirrored => 2_500.0,
            Workload::KemMixed => 200.0,
            Workload::StreamTree => 6.0,
        }
    }

    /// Open-phase operations per CPU-time stretch: one second of
    /// arrivals.
    pub fn cpu_stretch(self) -> usize {
        self.open_rate().ceil() as usize
    }

    /// The shipped service defaults, except that `bulk-mirrored` serves
    /// from the native tier with the recommended simulator mirror.
    pub fn service_config(self) -> ServiceConfig {
        let mut config = ServiceConfig::default();
        if self == Workload::BulkMirrored {
            config.tier =
                TierPolicy::native().with_mirror_every(TierPolicy::RECOMMENDED_MIRROR_EVERY);
        }
        config
    }

    /// Distinct inputs generated per run; operations cycle through them.
    pub const fn ring_len(self) -> usize {
        match self {
            Workload::WireSmall => 4096,
            Workload::BulkMirrored => 512,
            Workload::KemMixed => 72,
            Workload::StreamTree => 8,
        }
    }

    /// Leading operations replayed through the simulator for
    /// `sim_cycles_per_op`: whole stratified blocks, enough that the mean
    /// barely moves between seeds.
    pub const fn replay_len(self) -> usize {
        match self {
            Workload::WireSmall => 1024,
            Workload::BulkMirrored => 256,
            Workload::KemMixed => 72,
            Workload::StreamTree => 8,
        }
    }

    /// The open phase's arrival schedule: seeded Poisson arrivals, except
    /// evenly spaced ones for `stream-tree`, whose operations are few and
    /// long enough that Poisson bursts queueing behind one another would
    /// set its tail latency instead of the program.
    pub fn arrivals(self, seed: u64) -> Arrivals {
        let arrivals = Arrivals::new(seed ^ ARRIVAL_SALT, self.open_rate());
        if self == Workload::StreamTree {
            arrivals.paced()
        } else {
            arrivals
        }
    }

    /// The run's input ring with expected outputs.
    pub fn inputs(self, seed: u64) -> Vec<Input> {
        self.inputs_prefix(seed, self.ring_len())
    }

    /// The operation `setup_s` waits for: one of the workload's kind and
    /// of a fixed size for every seed (the shortest message, or an
    /// ML-KEM-512 keygen), so that set-up times starting the program
    /// rather than how much hashing the seed happened to draw.
    pub fn setup_input(self, seed: u64) -> Input {
        let mut rng = Rng::new(seed ^ INPUT_SALT);
        match self {
            Workload::WireSmall => hash_input(HashAlg::Sha3_256, rng.bytes(32)),
            Workload::BulkMirrored => hash_input(HashAlg::Shake128, rng.bytes(4096)),
            Workload::KemMixed => kem_ring(&mut rng, 1).remove(0),
            Workload::StreamTree => stream_input(rng.bytes(4096)),
        }
    }

    /// The first `count` inputs of the ring [`Self::inputs`] generates.
    pub fn inputs_prefix(self, seed: u64, count: usize) -> Vec<Input> {
        let mut rng = Rng::new(seed ^ INPUT_SALT);
        match self {
            Workload::WireSmall => hash_ring(&mut rng, count, 32, 513, true),
            Workload::BulkMirrored => hash_ring(&mut rng, count, 4096, 16_385, false),
            Workload::KemMixed => kem_ring(&mut rng, count),
            Workload::StreamTree => stream_ring(&mut rng, count, self.ring_len()),
        }
    }
}

/// The one-shot hash functions the workloads request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashAlg {
    Sha3_256,
    Shake128,
}

/// One operation's input and the output it must produce.
#[derive(Debug, Clone)]
pub enum Input {
    Hash {
        alg: HashAlg,
        message: Vec<u8>,
        expected: Vec<u8>,
    },
    Kem {
        params: KyberParams,
        op: KemOp,
        expected: KemResult,
    },
    /// One message hashed twice over streaming sessions: a SHAKE256
    /// session squeezing [`SQUEEZE_LEN`] bytes and a KRV tree session.
    Stream {
        message: Vec<u8>,
        shake: Vec<u8>,
        tree: Vec<u8>,
    },
}

/// What the program answered for one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    Digest(Vec<u8>),
    Kem(KemResult),
    Stream { shake: Vec<u8>, tree: Vec<u8> },
}

impl Input {
    /// Whether `output` is exactly what this input must produce.
    pub fn accepts(&self, output: &Output) -> bool {
        match (self, output) {
            (Input::Hash { expected, .. }, Output::Digest(got)) => got == expected,
            (Input::Kem { expected, .. }, Output::Kem(got)) => got == expected,
            (Input::Stream { shake, tree, .. }, Output::Stream { shake: s, tree: t }) => {
                s == shake && t == tree
            }
            _ => false,
        }
    }

    /// Corrupts the expected output, for the check that a wrong answer
    /// fails the run.
    pub fn plant_fault(&mut self) {
        match self {
            Input::Hash { expected, .. } => expected[0] ^= 1,
            Input::Kem { expected, .. } => match expected {
                KemResult::Keygen { ek, .. } => ek[0] ^= 1,
                KemResult::Encaps { shared_secret, .. } | KemResult::Decaps { shared_secret } => {
                    shared_secret[0] ^= 1
                }
            },
            Input::Stream { shake, .. } => shake[0] ^= 1,
        }
    }
}

/// Indices `0..count` in a seeded random order (Fisher–Yates).
fn shuffled(rng: &mut Rng, count: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..count).collect();
    for i in (1..count).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// A uniform draw in `[0, 1)`.
fn unit(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Stratum `stratum` of `strata` equal slices of `lo..hi`, one uniform
/// draw inside it. Stratified draws keep a block's mean cost nearly the
/// same for every seed, which keeps run-to-run spread low without fixing
/// the inputs.
fn stratified(rng: &mut Rng, lo: usize, hi: usize, stratum: usize, strata: usize) -> usize {
    let width = (hi - lo) as f64 / strata as f64;
    (lo + ((stratum as f64 + unit(rng)) * width) as usize).min(hi - 1)
}

/// Blocks of 64 one-shot hash requests with lengths stratified over
/// `lo..hi`. With `mixed`, even strata are SHA3-256 and odd strata
/// SHAKE128, so both functions cover the whole length range; otherwise
/// every request is SHAKE128.
fn hash_ring(rng: &mut Rng, count: usize, lo: usize, hi: usize, mixed: bool) -> Vec<Input> {
    const BLOCK: usize = 64;
    let mut ring = Vec::with_capacity(count);
    while ring.len() < count {
        for stratum in shuffled(rng, BLOCK) {
            let len = stratified(rng, lo, hi, stratum, BLOCK);
            let message = rng.bytes(len);
            let alg = if mixed && stratum % 2 == 0 {
                HashAlg::Sha3_256
            } else {
                HashAlg::Shake128
            };
            ring.push(hash_input(alg, message));
        }
    }
    ring.truncate(count);
    ring
}

/// A one-shot hash input with its expected digest.
fn hash_input(alg: HashAlg, message: Vec<u8>) -> Input {
    let expected = match alg {
        HashAlg::Sha3_256 => Sha3_256::digest(&message).to_vec(),
        HashAlg::Shake128 => Shake128::digest(&message, DIGEST_LEN),
    };
    Input::Hash {
        alg,
        message,
        expected,
    }
}

fn seed32(rng: &mut Rng) -> [u8; 32] {
    rng.bytes(32).try_into().expect("32 bytes requested")
}

/// KeyGen, Encaps and Decaps in rotation over ML-KEM-512/768/1024, so
/// every nine consecutive operations cover all nine combinations. Keys
/// and ciphertexts come from fresh seeded key pairs, and the expected
/// results from the library on the reference backend.
fn kem_ring(rng: &mut Rng, count: usize) -> Vec<Input> {
    let mut reference = ReferenceBackend::new();
    (0..count)
        .map(|index| {
            let params = KyberParams::ALL[index % 3];
            let (d, z) = (seed32(rng), seed32(rng));
            let (ek, dk) = ml_kem_keygen(params, &d, &z, &mut reference);
            let m = seed32(rng);
            let (op, expected) = match (index / 3) % 3 {
                0 => (KemOp::Keygen { d, z }, KemResult::Keygen { ek, dk }),
                1 => {
                    let (ct, shared_secret) =
                        ml_kem_encaps(params, &ek, &m, &mut reference).expect("fresh ek is valid");
                    (
                        KemOp::Encaps { ek, m },
                        KemResult::Encaps { ct, shared_secret },
                    )
                }
                _ => {
                    let (ct, _) =
                        ml_kem_encaps(params, &ek, &m, &mut reference).expect("fresh ek is valid");
                    let shared_secret =
                        ml_kem_decaps(params, &dk, &ct, &mut reference).expect("fresh dk is valid");
                    (
                        KemOp::Decaps { dk, ct },
                        KemResult::Decaps { shared_secret },
                    )
                }
            };
            Input::Kem {
                params,
                op,
                expected,
            }
        })
        .collect()
}

/// 256 KiB messages (one full 64-leaf tree window) plus a tail of up to
/// 16 KiB stratified over `strata`, each with its SHAKE256 and KRV
/// tree-hash digests.
fn stream_ring(rng: &mut Rng, count: usize, strata: usize) -> Vec<Input> {
    const BASE: usize = 256 << 10;
    shuffled(rng, strata)
        .into_iter()
        .take(count)
        .map(|stratum| {
            let len = stratified(rng, BASE, BASE + (16 << 10), stratum, strata);
            stream_input(rng.bytes(len))
        })
        .collect()
}

/// A stream input with its SHAKE256 and KRV tree-hash digests.
fn stream_input(message: Vec<u8>) -> Input {
    let shake = Shake256::digest(&message, SQUEEZE_LEN);
    let tree = krv_tree_hash256(&message, DIGEST_LEN, b"");
    Input::Stream {
        message,
        shake,
        tree,
    }
}

/// A seeded Poisson process: exponential gaps at a fixed mean rate,
/// yielding each arrival's offset from the start of the phase.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: Rng,
    rate: f64,
    at: f64,
    paced: bool,
}

impl Arrivals {
    pub fn new(seed: u64, rate: f64) -> Self {
        assert!(rate > 0.0, "an arrival rate must be positive");
        Self {
            rng: Rng::new(seed),
            rate,
            at: 0.0,
            paced: false,
        }
    }

    /// The same rate with every gap exactly `1 / rate`.
    pub fn paced(self) -> Self {
        Self {
            paced: true,
            ..self
        }
    }
}

impl Iterator for Arrivals {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        self.at += if self.paced {
            1.0 / self.rate
        } else {
            -(1.0 - unit(&mut self.rng)).ln() / self.rate
        };
        Some(Duration::from_secs_f64(self.at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_and_on_rate() {
        let draws = 100_000;
        let a: Vec<Duration> = Arrivals::new(42, 5_000.0).take(draws).collect();
        let b: Vec<Duration> = Arrivals::new(42, 5_000.0).take(draws).collect();
        assert_eq!(a, b, "the same seed gives the same schedule");
        assert_ne!(
            a,
            Arrivals::new(43, 5_000.0).take(draws).collect::<Vec<_>>()
        );
        let rate = draws as f64 / a.last().unwrap().as_secs_f64();
        assert!(
            (rate / 5_000.0 - 1.0).abs() < 0.02,
            "mean rate {rate:.1}/s is not within 2 % of 5000/s"
        );
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets never go back");
    }

    #[test]
    fn inputs_are_seeded_and_self_consistent() {
        for workload in [Workload::WireSmall, Workload::BulkMirrored] {
            let a = workload.inputs(5);
            let b = workload.inputs(5);
            assert_eq!(a.len(), workload.ring_len());
            for (x, y) in a.iter().zip(&b) {
                match (x, y) {
                    (
                        Input::Hash {
                            message: m1,
                            expected: e1,
                            ..
                        },
                        Input::Hash {
                            message: m2,
                            expected: e2,
                            ..
                        },
                    ) => assert!(m1 == m2 && e1 == e2),
                    _ => panic!("hash workloads generate hash inputs"),
                }
            }
        }
        let ring = Workload::WireSmall.inputs(9);
        let sha3 = ring
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Input::Hash {
                        alg: HashAlg::Sha3_256,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(sha3 * 2, ring.len(), "an even SHA3-256 / SHAKE128 split");
        for input in &ring {
            let Input::Hash { message, .. } = input else {
                unreachable!()
            };
            assert!((32..=512).contains(&message.len()));
        }
    }

    #[test]
    fn kem_ring_rotates_through_every_combination() {
        let ring = kem_ring(&mut Rng::new(3), 9);
        let combos: Vec<(usize, &str)> = ring
            .iter()
            .map(|input| match input {
                Input::Kem { params, op, .. } => (params.k, op.tag()),
                _ => unreachable!(),
            })
            .collect();
        for k in [2, 3, 4] {
            for tag in ["keygen", "encaps", "decaps"] {
                assert!(combos.contains(&(k, tag)), "missing {k}/{tag}");
            }
        }
    }

    #[test]
    fn prefixes_match_the_full_ring() {
        for workload in Workload::ALL {
            let full = workload.inputs_prefix(11, 2);
            let first = workload.inputs_prefix(11, 1);
            assert_eq!(
                format!("{:?}", full[0]),
                format!("{:?}", first[0]),
                "{workload:?}"
            );
        }
    }

    #[test]
    fn the_setup_input_has_one_size_for_every_seed() {
        let shape = |input: &Input| match input {
            Input::Hash { alg, message, .. } => format!("{alg:?} {}", message.len()),
            Input::Kem { params, op, .. } => format!("{} {}", params.k, op.tag()),
            Input::Stream { message, .. } => message.len().to_string(),
        };
        for workload in Workload::ALL {
            let shapes: Vec<String> = (0..8)
                .map(|seed| shape(&workload.setup_input(seed)))
                .collect();
            assert!(
                shapes.iter().all(|s| *s == shapes[0]),
                "{workload:?}: {shapes:?}"
            );
        }
    }

    #[test]
    fn a_planted_fault_is_rejected() {
        let mut input = Workload::WireSmall.inputs(1).swap_remove(0);
        let Input::Hash { expected, .. } = &input else {
            unreachable!()
        };
        let right = Output::Digest(expected.clone());
        assert!(input.accepts(&right));
        input.plant_fault();
        assert!(!input.accepts(&right));
    }
}
