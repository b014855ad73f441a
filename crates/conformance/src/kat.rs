//! Known-answer tests: embedded NIST FIPS 202 vectors run against every
//! backend through both the one-shot digest path and the work-scheduled
//! batch path.
//!
//! The expected digests in [`crate::vectors`] come from an independent
//! SHA-3 implementation (OpenSSL, via the generator script
//! `gen_vectors.py`), so agreement here anchors the whole workspace —
//! reference permutation, sponge layer, vector kernels, session path,
//! engine pool — to an external oracle rather than to itself.

use krv_core::BackendKind;
use krv_service::{
    HashRequest, Service, ServiceConfig, ShardConfig, ShardedService, Ticket, TierPolicy,
};
use krv_sha3::{hash_batch, hex, BatchRequest, PermutationBackend, Sponge, SpongeParams};
use krv_testkit::CaseReport;
use std::time::Duration;

/// The six FIPS 202 functions, as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// SHA3-224 (rate 144 bytes).
    Sha3_224,
    /// SHA3-256 (rate 136 bytes).
    Sha3_256,
    /// SHA3-384 (rate 104 bytes).
    Sha3_384,
    /// SHA3-512 (rate 72 bytes).
    Sha3_512,
    /// SHAKE128 (rate 168 bytes).
    Shake128,
    /// SHAKE256 (rate 136 bytes).
    Shake256,
}

impl Algorithm {
    /// All six functions, in FIPS 202 presentation order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Sha3_224,
        Algorithm::Sha3_256,
        Algorithm::Sha3_384,
        Algorithm::Sha3_512,
        Algorithm::Shake128,
        Algorithm::Shake256,
    ];

    /// The function's display name.
    pub const fn name(self) -> &'static str {
        match self {
            Algorithm::Sha3_224 => "SHA3-224",
            Algorithm::Sha3_256 => "SHA3-256",
            Algorithm::Sha3_384 => "SHA3-384",
            Algorithm::Sha3_512 => "SHA3-512",
            Algorithm::Shake128 => "SHAKE128",
            Algorithm::Shake256 => "SHAKE256",
        }
    }

    /// Sponge parameters (rate + domain separation) of the function.
    pub fn params(self) -> SpongeParams {
        match self {
            Algorithm::Sha3_224 => SpongeParams::sha3(224),
            Algorithm::Sha3_256 => SpongeParams::sha3(256),
            Algorithm::Sha3_384 => SpongeParams::sha3(384),
            Algorithm::Sha3_512 => SpongeParams::sha3(512),
            Algorithm::Shake128 => SpongeParams::shake(128),
            Algorithm::Shake256 => SpongeParams::shake(256),
        }
    }

    /// The fixed digest length for the hash functions, `None` for XOFs.
    pub const fn digest_len(self) -> Option<usize> {
        match self {
            Algorithm::Sha3_224 => Some(28),
            Algorithm::Sha3_256 => Some(32),
            Algorithm::Sha3_384 => Some(48),
            Algorithm::Sha3_512 => Some(64),
            Algorithm::Shake128 | Algorithm::Shake256 => None,
        }
    }
}

/// A KAT message: an explicit literal or a length of the deterministic
/// byte pattern shared with the vector generator.
#[derive(Debug, Clone, Copy)]
pub enum KatMessage {
    /// Literal message bytes.
    Literal(&'static [u8]),
    /// `pattern_message(len)`.
    Pattern(usize),
}

impl KatMessage {
    /// Materializes the message bytes.
    pub fn bytes(&self) -> Vec<u8> {
        match *self {
            KatMessage::Literal(bytes) => bytes.to_vec(),
            KatMessage::Pattern(len) => pattern_message(len),
        }
    }

    /// The message length in bytes.
    pub fn len(&self) -> usize {
        match *self {
            KatMessage::Literal(bytes) => bytes.len(),
            KatMessage::Pattern(len) => len,
        }
    }

    /// Whether the message is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One known-answer vector.
#[derive(Debug, Clone, Copy)]
pub struct KatEntry {
    /// The input message.
    pub message: KatMessage,
    /// Output bytes to squeeze (the digest length for hash functions).
    pub output_len: usize,
    /// Expected output, lowercase hex.
    pub digest_hex: &'static str,
}

/// The full vector set of one FIPS 202 function.
#[derive(Debug, Clone, Copy)]
pub struct KatSuite {
    /// Which function the vectors target.
    pub algorithm: Algorithm,
    /// Short messages: the boundary lengths around one and two rate
    /// blocks, plus the classic `"abc"` example.
    pub short: &'static [KatEntry],
    /// Long messages spanning many rate blocks.
    pub long: &'static [KatEntry],
    /// Monte Carlo chain checkpoint after 100 iterations
    /// (`md ← H(md)`, seeded with `pattern_message(32)`).
    pub monte_smoke: (usize, &'static str),
    /// Monte Carlo checkpoint after 1000 iterations.
    pub monte_full: (usize, &'static str),
}

/// The deterministic KAT message pattern.
///
/// Kept in byte-for-byte lockstep with `pattern` in `gen_vectors.py`
/// (there is a pinned test): `byte[i] = (167·i + 31·len + 13) mod 256`.
pub fn pattern_message(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 167 + len * 31 + 13) & 0xFF) as u8)
        .collect()
}

/// How deep to run a suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Short vectors only — the `cargo test` tier.
    Short,
    /// Short + long vectors + the 100-iteration Monte Carlo chain.
    Smoke,
    /// Everything, with the 1000-iteration Monte Carlo chain.
    Full,
}

/// The outcome of one (backend, algorithm) suite run.
#[derive(Debug, Clone)]
pub struct KatOutcome {
    /// Backend label (pass-matrix row key).
    pub backend: String,
    /// Algorithm name (pass-matrix column key).
    pub algorithm: &'static str,
    /// Vectors checked (counting digest path, batch path and the Monte
    /// Carlo chain as separate cases).
    pub cases: usize,
    /// Every divergence from the embedded expectation.
    pub failures: Vec<CaseReport>,
}

impl KatOutcome {
    /// Whether every vector matched.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One-shot digest through the sponge layer over any backend.
pub fn digest_with(
    backend: &mut dyn PermutationBackend,
    params: SpongeParams,
    message: &[u8],
    output_len: usize,
) -> Vec<u8> {
    let mut sponge = Sponge::new(params, backend);
    sponge.absorb(message);
    sponge.squeeze(output_len)
}

/// Runs one KAT suite on one backend at the given tier.
///
/// Every selected vector is checked twice — through the one-shot digest
/// path and through a single ragged [`hash_batch`] call carrying the
/// whole vector set — and the Monte Carlo chain (smoke tier and up) is
/// checked through the digest path.
pub fn run_suite(kind: &BackendKind, suite: &KatSuite, tier: Tier) -> KatOutcome {
    let mut backend = kind.instantiate(backend_states(kind));
    let params = suite.algorithm.params();
    let mut failures = Vec::new();
    let mut cases = 0;
    let entries: Vec<&KatEntry> = match tier {
        Tier::Short => suite.short.iter().collect(),
        Tier::Smoke | Tier::Full => suite.short.iter().chain(suite.long.iter()).collect(),
    };

    // Digest path: one sponge per vector.
    let mut messages: Vec<Vec<u8>> = Vec::with_capacity(entries.len());
    for entry in &entries {
        let message = entry.message.bytes();
        let got = digest_with(backend.as_mut(), params, &message, entry.output_len);
        cases += 1;
        if hex(&got) != entry.digest_hex {
            failures.push(CaseReport::new(
                format!("kat/{}/digest", suite.algorithm.name()),
                message.len() as u64,
                format!(
                    "message len {} → {} != expected {}",
                    message.len(),
                    hex(&got),
                    entry.digest_hex
                ),
            ));
        }
        messages.push(message);
    }

    // Batch path: the whole (ragged) vector set in one scheduled call.
    let requests: Vec<BatchRequest<'_>> = entries
        .iter()
        .zip(&messages)
        .map(|(entry, message)| BatchRequest::new(message, entry.output_len))
        .collect();
    let outputs = hash_batch(params, &mut backend, &requests);
    for (entry, output) in entries.iter().zip(&outputs) {
        cases += 1;
        if hex(output) != entry.digest_hex {
            failures.push(CaseReport::new(
                format!("kat/{}/batch", suite.algorithm.name()),
                entry.message.len() as u64,
                format!(
                    "message len {} → {} != expected {}",
                    entry.message.len(),
                    hex(output),
                    entry.digest_hex
                ),
            ));
        }
    }

    // Monte Carlo chain: digest feeding the next iteration's message.
    if tier >= Tier::Smoke {
        let (iterations, expected) = match tier {
            Tier::Full => suite.monte_full,
            _ => suite.monte_smoke,
        };
        let output_len = suite.algorithm.digest_len().unwrap_or(32);
        let mut md = pattern_message(32);
        for _ in 0..iterations {
            md = digest_with(backend.as_mut(), params, &md, output_len);
        }
        cases += 1;
        if hex(&md) != expected {
            failures.push(CaseReport::new(
                format!("kat/{}/monte", suite.algorithm.name()),
                iterations as u64,
                format!(
                    "{iterations}-iteration chain → {} != expected {expected}",
                    hex(&md)
                ),
            ));
        }
    }

    KatOutcome {
        backend: kind.label(),
        algorithm: suite.algorithm.name(),
        cases,
        failures,
    }
}

/// The pass-matrix row key of the simulator-tier serving path.
pub const SERVICE_LABEL: &str = "service/e64m8x2";

/// The pass-matrix row key of the native-tier serving path (with the
/// simulator mirroring every dispatch group as a differential oracle).
pub const NATIVE_SERVICE_LABEL: &str = "service/native+mirror";

/// Runs one KAT suite through the serving path: every selected vector is
/// submitted as an independent request to a continuous-batching
/// [`Service`] over an engine pool, so the digests additionally cross the
/// admission queue, the micro-batch scheduler and the supervised
/// dispatch. The Monte Carlo chain (smoke tier and up) round-trips
/// sequentially, each link riding its own micro-batch.
pub fn run_service_suite(suite: &KatSuite, tier: Tier) -> KatOutcome {
    tiered_service_suite(suite, tier, TierPolicy::simulator(), SERVICE_LABEL)
}

/// Runs one KAT suite through the serving path with the **native tier**
/// primary and the simulator mirroring every dispatch group: the vectors
/// check the served digests against the external oracle while the online
/// mirror simultaneously diffs native against simulated output — a
/// latched mismatch fails the row via the health check.
pub fn run_native_service_suite(suite: &KatSuite, tier: Tier) -> KatOutcome {
    tiered_service_suite(
        suite,
        tier,
        TierPolicy::native().with_mirror_every(1),
        NATIVE_SERVICE_LABEL,
    )
}

/// The pass-matrix row key of the sharded serving path.
pub const SHARDED_SERVICE_LABEL: &str = "service/sharded-x2";

/// Runs one KAT suite through the **sharded** serving path: every
/// selected vector is submitted as its own client to a two-shard
/// [`ShardedService`], so the digests additionally cross the
/// consistent-hash routing and the per-shard queues and schedulers, and
/// the health check runs against the bucket-wise **merged** metrics.
pub fn run_sharded_service_suite(suite: &KatSuite, tier: Tier) -> KatOutcome {
    let service = ShardedService::start(ShardConfig {
        shards: 2,
        service: ServiceConfig {
            sn: 2,
            workers: 2,
            queue_capacity: 1024,
            max_wait: Duration::from_micros(50),
            tier: TierPolicy::simulator(),
            fair_share: None,
        },
    });
    let params = suite.algorithm.params();
    let mut failures = Vec::new();
    let mut cases = 0;
    let entries: Vec<&KatEntry> = match tier {
        Tier::Short => suite.short.iter().collect(),
        Tier::Smoke | Tier::Full => suite.short.iter().chain(suite.long.iter()).collect(),
    };

    // One burst, one client id per vector: the routing hash spreads the
    // burst across both shards before the first ticket is awaited.
    let tickets: Vec<Ticket> = entries
        .iter()
        .enumerate()
        .map(|(client, entry)| {
            service
                .submit_as(
                    client as u64,
                    HashRequest::new(entry.message.bytes(), params, entry.output_len),
                )
                .expect("KAT burst fits the shard queues")
        })
        .collect();
    for (entry, ticket) in entries.iter().zip(tickets) {
        cases += 1;
        match ticket.wait().result {
            Ok(output) if hex(&output) == entry.digest_hex => {}
            Ok(output) => failures.push(CaseReport::new(
                format!("kat/{}/sharded", suite.algorithm.name()),
                entry.message.len() as u64,
                format!(
                    "message len {} → {} != expected {}",
                    entry.message.len(),
                    hex(&output),
                    entry.digest_hex
                ),
            )),
            Err(error) => failures.push(CaseReport::new(
                format!("kat/{}/sharded", suite.algorithm.name()),
                entry.message.len() as u64,
                format!(
                    "message len {} → request failed: {error}",
                    entry.message.len()
                ),
            )),
        }
    }

    let report = service.shutdown();
    if report.timeouts != 0
        || report.worker_failures != 0
        || report.rejected != 0
        || report.throttled != 0
        || report.completed != cases as u64
    {
        failures.push(CaseReport::new(
            format!("kat/{}/sharded-health", suite.algorithm.name()),
            0,
            format!(
                "unhealthy sharded run: {} completed of {cases}, {} timeouts, \
                 {} worker failures, {} rejections, {} throttled",
                report.completed,
                report.timeouts,
                report.worker_failures,
                report.rejected,
                report.throttled
            ),
        ));
    }

    KatOutcome {
        backend: SHARDED_SERVICE_LABEL.to_string(),
        algorithm: suite.algorithm.name(),
        cases,
        failures,
    }
}

fn tiered_service_suite(
    suite: &KatSuite,
    tier: Tier,
    policy: TierPolicy,
    label: &str,
) -> KatOutcome {
    let service = Service::start(ServiceConfig {
        sn: 2,
        workers: 2,
        queue_capacity: 1024,
        // A tight window: the KAT burst rarely fills every slot, and the
        // sequential Monte Carlo chain pays the window on every link.
        max_wait: Duration::from_micros(50),
        tier: policy,
        fair_share: None,
    });
    let params = suite.algorithm.params();
    let mut failures = Vec::new();
    let mut cases = 0;
    let entries: Vec<&KatEntry> = match tier {
        Tier::Short => suite.short.iter().collect(),
        Tier::Smoke | Tier::Full => suite.short.iter().chain(suite.long.iter()).collect(),
    };

    // One burst: every vector submitted before the first ticket is
    // awaited, so the scheduler actually forms multi-request batches.
    let tickets: Vec<Ticket> = entries
        .iter()
        .map(|entry| {
            service
                .submit(HashRequest::new(
                    entry.message.bytes(),
                    params,
                    entry.output_len,
                ))
                .expect("KAT burst fits the queue")
        })
        .collect();
    for (entry, ticket) in entries.iter().zip(tickets) {
        cases += 1;
        let completion = ticket.wait();
        match completion.result {
            Ok(output) if hex(&output) == entry.digest_hex => {}
            Ok(output) => failures.push(CaseReport::new(
                format!("kat/{}/service", suite.algorithm.name()),
                entry.message.len() as u64,
                format!(
                    "message len {} → {} != expected {}",
                    entry.message.len(),
                    hex(&output),
                    entry.digest_hex
                ),
            )),
            Err(error) => failures.push(CaseReport::new(
                format!("kat/{}/service", suite.algorithm.name()),
                entry.message.len() as u64,
                format!(
                    "message len {} → request failed: {error}",
                    entry.message.len()
                ),
            )),
        }
    }

    // Monte Carlo chain: each digest is resubmitted as the next message,
    // so the chain crosses the queue and scheduler on every iteration.
    if tier >= Tier::Smoke {
        let (iterations, expected) = match tier {
            Tier::Full => suite.monte_full,
            _ => suite.monte_smoke,
        };
        let output_len = suite.algorithm.digest_len().unwrap_or(32);
        let mut md = pattern_message(32);
        let mut failed = None;
        for _ in 0..iterations {
            let ticket = service
                .submit(HashRequest::new(md.clone(), params, output_len))
                .expect("chain link admitted");
            match ticket.wait().result {
                Ok(next) => md = next,
                Err(error) => {
                    failed = Some(error);
                    break;
                }
            }
        }
        cases += 1;
        if let Some(error) = failed {
            failures.push(CaseReport::new(
                format!("kat/{}/service-monte", suite.algorithm.name()),
                iterations as u64,
                format!("chain link failed: {error}"),
            ));
        } else if hex(&md) != expected {
            failures.push(CaseReport::new(
                format!("kat/{}/service-monte", suite.algorithm.name()),
                iterations as u64,
                format!(
                    "{iterations}-iteration chain → {} != expected {expected}",
                    hex(&md)
                ),
            ));
        }
    }

    let report = service.shutdown();
    if report.timeouts != 0
        || report.worker_failures != 0
        || report.rejected != 0
        || report.mirror_mismatches != 0
    {
        failures.push(CaseReport::new(
            format!("kat/{}/service-health", suite.algorithm.name()),
            0,
            format!(
                "unhealthy serving run: {} timeouts, {} worker failures, {} rejections, \
                 {} mirror mismatches",
                report.timeouts, report.worker_failures, report.rejected, report.mirror_mismatches
            ),
        ));
    }
    if policy.mirror_every != 0 && report.mirrored == 0 && report.completed != 0 {
        failures.push(CaseReport::new(
            format!("kat/{}/service-health", suite.algorithm.name()),
            0,
            "mirroring was configured but no request was mirrored".to_string(),
        ));
    }

    KatOutcome {
        backend: label.to_string(),
        algorithm: suite.algorithm.name(),
        cases,
        failures,
    }
}

/// States per engine pass for each backend variant: varied on purpose so
/// the suites cover different packing shapes.
pub fn backend_states(kind: &BackendKind) -> usize {
    match kind {
        BackendKind::Reference => 1,
        BackendKind::Engine(_) => 3,
        // A different packing than the compiled rows, so the tier pair
        // also crosses two staging shapes.
        BackendKind::Interpreted(_) => 2,
        BackendKind::Session(_) | BackendKind::Pool { .. } => 2,
        // The native backend's group width is fixed by its LaneWidth;
        // the `sn` argument is ignored by `instantiate`.
        BackendKind::Native(_) => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::SUITES;

    #[test]
    fn pattern_matches_generator_script() {
        // First bytes of pattern(8) as produced by gen_vectors.py.
        assert_eq!(pattern_message(8), vec![5, 172, 83, 250, 161, 72, 239, 150]);
        assert_eq!(pattern_message(0), Vec::<u8>::new());
    }

    #[test]
    fn suites_cover_all_six_functions() {
        let names: Vec<&str> = SUITES.iter().map(|s| s.algorithm.name()).collect();
        for algorithm in Algorithm::ALL {
            assert!(names.contains(&algorithm.name()), "{}", algorithm.name());
        }
    }

    #[test]
    fn suites_include_rate_boundary_lengths() {
        for suite in &SUITES {
            let rate = suite.algorithm.params().rate_bytes();
            let lens: Vec<usize> = suite.short.iter().map(|e| e.message.len()).collect();
            for boundary in [0, rate - 1, rate, rate + 1, 2 * rate] {
                assert!(
                    lens.contains(&boundary),
                    "{} misses boundary length {boundary}",
                    suite.algorithm.name()
                );
            }
        }
    }

    #[test]
    fn reference_backend_passes_short_tier() {
        for suite in &SUITES {
            let outcome = run_suite(&BackendKind::Reference, suite, Tier::Short);
            assert!(
                outcome.passed(),
                "{}: {:?}",
                suite.algorithm.name(),
                outcome.failures
            );
            assert!(outcome.cases >= 2 * suite.short.len());
        }
    }

    #[test]
    fn reference_backend_passes_monte_carlo_smoke() {
        for suite in &SUITES {
            let outcome = run_suite(&BackendKind::Reference, suite, Tier::Smoke);
            assert!(
                outcome.passed(),
                "{}: {:?}",
                suite.algorithm.name(),
                outcome.failures
            );
        }
    }
}
