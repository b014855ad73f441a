//! ML-KEM conformance: embedded FIPS 203 known-answer vectors run
//! against every backend in the roster, plus a seeded differential fuzz
//! family cross-checking the full KeyGen/Encaps/Decaps pipeline between
//! each backend and the scalar reference.
//!
//! The expected values in [`crate::kem_vectors`] come from an
//! independent Python implementation of FIPS 203 (`gen_kem_vectors.py`,
//! written to the standard's pseudocode over OpenSSL's SHA-3), so
//! agreement here anchors the whole Kyber pipeline — NTT algebra,
//! rejection/CBD sampling, ByteEncode/Compress serialization, the
//! staged hash-job scheduler and the implicit-rejection FO transform —
//! to external ground truth. Each vector is checked through KeyGen,
//! Encaps, Decaps **and** a tampered-ciphertext Decaps whose output
//! must equal the vector's `J(z ‖ ct′)` implicit-rejection secret.

use crate::kat::{backend_states, KatOutcome};
use crate::kem_vectors::{MlKemVector, ML_KEM_VECTORS};
use krv_core::BackendKind;
use krv_kyber::{ml_kem_decaps, ml_kem_encaps, ml_kem_keygen, KemResult, KyberParams};
use krv_service::{KemRequest, KemTicket, Service, ServiceConfig, TierPolicy};
use krv_sha3::{hex, PermutationBackend, Shake256, Xof};
use krv_testkit::{shrink, CaseReport, Rng};
use std::time::Duration;

/// The pass-matrix column key of the ML-KEM rows.
pub const KEM_ALGORITHM: &str = "ML-KEM";

/// The pass-matrix row key of the KEM serving path (native tier with
/// the simulator mirroring every staged dispatch group).
pub const KEM_SERVICE_LABEL: &str = "service/kem+mirror";

/// Decodes lowercase hex (the embedded vector format).
fn unhex(text: &str) -> Vec<u8> {
    assert_eq!(text.len() % 2, 0, "ragged hex string");
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("embedded vectors are valid hex"))
        .collect()
}

fn seed32(text: &str) -> [u8; 32] {
    let bytes = unhex(text);
    let mut out = [0u8; 32];
    out.copy_from_slice(&bytes);
    out
}

/// Maps a vector's module rank to the workspace parameter set.
fn params_for(vector: &MlKemVector) -> KyberParams {
    match vector.k {
        2 => KyberParams::KYBER512,
        3 => KyberParams::KYBER768,
        4 => KyberParams::KYBER1024,
        other => panic!("no FIPS 203 parameter set has k={other}"),
    }
}

/// The vectors selected at a tier: the short (test) tier takes one
/// vector per parameter set, deeper tiers take all of them.
fn select(tier: crate::kat::Tier) -> Vec<&'static MlKemVector> {
    match tier {
        crate::kat::Tier::Short => ML_KEM_VECTORS.iter().step_by(2).collect(),
        _ => ML_KEM_VECTORS.iter().collect(),
    }
}

/// Runs the embedded ML-KEM vectors on one backend: KeyGen, Encaps and
/// Decaps against the external expectations, plus the tampered-
/// ciphertext Decaps that must yield the implicit-rejection secret.
pub fn run_kem_suite(kind: &BackendKind, tier: crate::kat::Tier) -> KatOutcome {
    let mut backend = kind.instantiate(backend_states(kind));
    let mut failures = Vec::new();
    let mut cases = 0;
    for vector in select(tier) {
        cases += check_vector(backend.as_mut(), vector, &mut failures);
    }
    KatOutcome {
        backend: kind.label(),
        algorithm: KEM_ALGORITHM,
        cases,
        failures,
    }
}

/// Checks one vector on one backend; returns the case count.
fn check_vector(
    backend: &mut dyn PermutationBackend,
    vector: &MlKemVector,
    failures: &mut Vec<CaseReport>,
) -> usize {
    let params = params_for(vector);
    let set = vector.set;
    let mut fail = |stage: &str, detail: String| {
        failures.push(CaseReport::new(format!("kem/{set}/{stage}"), 0, detail));
    };

    // KeyGen from (d, z).
    let (ek, dk) = ml_kem_keygen(
        params,
        &seed32(vector.d_hex),
        &seed32(vector.z_hex),
        &mut *backend,
    );
    if hex(&ek) != vector.ek_hex {
        fail("keygen", format!("ek {} != expected", preview(&ek)));
    }
    if hex(&dk) != vector.dk_hex {
        fail("keygen", format!("dk {} != expected", preview(&dk)));
    }

    // Encaps under the *expected* ek (so a keygen failure does not
    // cascade), against the expected ciphertext and shared secret.
    let expected_ek = unhex(vector.ek_hex);
    let m = seed32(vector.m_hex);
    match ml_kem_encaps(params, &expected_ek, &m, &mut *backend) {
        Ok((ct, shared)) => {
            if hex(&ct) != vector.ct_hex {
                fail("encaps", format!("ct {} != expected", preview(&ct)));
            }
            if hex(&shared) != vector.shared_hex {
                fail("encaps", format!("secret {} != expected", hex(&shared)));
            }
        }
        Err(error) => fail("encaps", format!("rejected a valid key: {error}")),
    }

    // Decaps of the expected ciphertext must recover the secret.
    let expected_dk = unhex(vector.dk_hex);
    let expected_ct = unhex(vector.ct_hex);
    match ml_kem_decaps(params, &expected_dk, &expected_ct, &mut *backend) {
        Ok(shared) if hex(&shared) == vector.shared_hex => {}
        Ok(shared) => fail("decaps", format!("secret {} != expected", hex(&shared))),
        Err(error) => fail("decaps", format!("rejected a valid input: {error}")),
    }

    // Implicit rejection: the tampered ciphertext must yield exactly
    // J(z ‖ ct′) — never an error, never the real secret.
    let mut tampered = expected_ct;
    tampered[vector.tamper_index] ^= 0x01;
    match ml_kem_decaps(params, &expected_dk, &tampered, &mut *backend) {
        Ok(shared) if hex(&shared) == vector.rejection_hex => {}
        Ok(shared) => fail(
            "reject",
            format!("rejection secret {} != expected", hex(&shared)),
        ),
        Err(error) => fail("reject", format!("tampered ct errored: {error}")),
    }
    4
}

/// Runs the embedded ML-KEM vectors through the **serving path**: every
/// vector's KeyGen, Encaps, Decaps and tampered-ciphertext Decaps is
/// submitted as its own request to a continuous-batching [`Service`],
/// all in one burst, so the staged hash jobs additionally cross the
/// admission queue, the micro-batch scheduler and the cross-request
/// SHAKE packing — on the native tier, with the simulator mirroring
/// every dispatch group as an online differential oracle. A latched
/// mirror mismatch or a lost request fails the row via the health
/// check, exactly like the hash serving rows.
pub fn run_service_kem_suite(tier: crate::kat::Tier) -> KatOutcome {
    let service = Service::start(ServiceConfig {
        sn: 2,
        workers: 2,
        queue_capacity: 1024,
        max_wait: Duration::from_micros(50),
        tier: TierPolicy::native().with_mirror_every(1),
        fair_share: None,
    });
    let mut failures = Vec::new();
    let mut cases = 0;
    let vectors = select(tier);

    // One burst: all operations of all vectors submitted before the
    // first ticket is awaited, so concurrent KEM jobs actually share
    // dispatch groups.
    let mut tickets: Vec<(String, &'static str, KemTicket)> = Vec::new();
    for vector in &vectors {
        let params = params_for(vector);
        let mut submit = |stage: &'static str, request: KemRequest| {
            let ticket = service
                .submit_kem(request)
                .expect("KEM burst fits the queue");
            tickets.push((format!("kem/{}/{stage}", vector.set), stage, ticket));
        };
        submit(
            "keygen",
            KemRequest::keygen(params, seed32(vector.d_hex), seed32(vector.z_hex)),
        );
        submit(
            "encaps",
            KemRequest::encaps(params, unhex(vector.ek_hex), seed32(vector.m_hex)),
        );
        submit(
            "decaps",
            KemRequest::decaps(params, unhex(vector.dk_hex), unhex(vector.ct_hex)),
        );
        let mut tampered = unhex(vector.ct_hex);
        tampered[vector.tamper_index] ^= 0x01;
        submit(
            "reject",
            KemRequest::decaps(params, unhex(vector.dk_hex), tampered),
        );
    }
    let mut outcomes = tickets.into_iter();
    for vector in &vectors {
        for _ in 0..4 {
            let (case, stage, ticket) = outcomes.next().expect("4 tickets per vector");
            cases += 1;
            let mut fail = |detail: String| {
                failures.push(CaseReport::new(case.clone(), 0, detail));
            };
            match ticket.wait().result {
                Ok(KemResult::Keygen { ek, dk }) => {
                    if hex(&ek) != vector.ek_hex {
                        fail(format!("served ek {} != expected", preview(&ek)));
                    }
                    if hex(&dk) != vector.dk_hex {
                        fail(format!("served dk {} != expected", preview(&dk)));
                    }
                }
                Ok(KemResult::Encaps { ct, shared_secret }) => {
                    if hex(&ct) != vector.ct_hex {
                        fail(format!("served ct {} != expected", preview(&ct)));
                    }
                    if hex(&shared_secret) != vector.shared_hex {
                        fail(format!("served secret {} != expected", hex(&shared_secret)));
                    }
                }
                Ok(KemResult::Decaps { shared_secret }) => {
                    let expected = match stage {
                        "decaps" => vector.shared_hex,
                        _ => vector.rejection_hex,
                    };
                    if hex(&shared_secret) != expected {
                        fail(format!("served secret {} != expected", hex(&shared_secret)));
                    }
                }
                Err(error) => fail(format!("request failed: {error}")),
            }
        }
    }

    // Health check: every operation completed on the native tier, the
    // mirror actually ran, and it latched no divergence.
    let report = service.shutdown();
    if report.completed != cases as u64
        || report.worker_failures != 0
        || report.kem_invalid != 0
        || report.mirrored == 0
        || report.mirror_mismatches != 0
    {
        failures.push(CaseReport::new(
            "kem/service-health",
            0,
            format!(
                "unhealthy KEM serving run: {} completed of {cases}, {} worker failures, \
                 {} invalid, {} mirrored, {} mirror mismatches",
                report.completed,
                report.worker_failures,
                report.kem_invalid,
                report.mirrored,
                report.mirror_mismatches
            ),
        ));
    }

    KatOutcome {
        backend: KEM_SERVICE_LABEL.to_string(),
        algorithm: KEM_ALGORITHM,
        cases,
        failures,
    }
}

/// A short displayable prefix of a long byte string.
fn preview(bytes: &[u8]) -> String {
    if bytes.len() <= 16 {
        hex(bytes)
    } else {
        format!("{}…({} B)", hex(&bytes[..16]), bytes.len())
    }
}

/// One differential-fuzz input: the three 32-byte seeds driving a full
/// deterministic KeyGen → Encaps → tamper → Decaps pipeline.
type KemSeeds = ([u8; 32], [u8; 32], [u8; 32]);

/// The full deterministic pipeline on one backend, as comparable bytes:
/// `(ek, dk, ct, shared, decapsed, rejection)`.
#[allow(clippy::type_complexity)]
fn pipeline(
    backend: &mut dyn PermutationBackend,
    params: KyberParams,
    seeds: &KemSeeds,
    tamper_index: usize,
) -> (Vec<u8>, Vec<u8>, Vec<u8>, [u8; 32], [u8; 32], [u8; 32]) {
    let (d, z, m) = seeds;
    let (ek, dk) = ml_kem_keygen(params, d, z, &mut *backend);
    let (ct, shared) = ml_kem_encaps(params, &ek, m, &mut *backend).expect("own key is valid");
    let decapsed = ml_kem_decaps(params, &dk, &ct, &mut *backend).expect("own ct is valid");
    let mut tampered = ct.clone();
    let flip = tamper_index % tampered.len();
    tampered[flip] ^= 0x01;
    let rejection =
        ml_kem_decaps(params, &dk, &tampered, &mut *backend).expect("tampered ct never errors");
    (ek, dk, ct, shared, decapsed, rejection)
}

/// Diffs the pipeline between `backend` and the scalar reference.
/// Returns the first diverging stage name, if any.
fn kem_mismatch(
    backend: &mut dyn PermutationBackend,
    params: KyberParams,
    seeds: &KemSeeds,
    tamper_index: usize,
) -> Option<&'static str> {
    let got = pipeline(backend, params, seeds, tamper_index);
    let expected = pipeline(
        &mut krv_sha3::ReferenceBackend::new(),
        params,
        seeds,
        tamper_index,
    );
    if got.0 != expected.0 {
        return Some("ek");
    }
    if got.1 != expected.1 {
        return Some("dk");
    }
    if got.2 != expected.2 {
        return Some("ct");
    }
    if got.3 != expected.3 {
        return Some("shared");
    }
    if got.4 != expected.4 {
        return Some("decapsed");
    }
    if got.5 != expected.5 {
        return Some("rejection");
    }
    None
}

/// Fuzzes one backend's ML-KEM pipeline against the reference for
/// `cases` cases. Every case also self-checks the FO invariants on the
/// backend under test (decaps recovers the secret; the tampered
/// ciphertext's secret differs and matches `J(z ‖ ct′)` recomputed on
/// the reference). Failing seed triples shrink by zeroing bytes.
pub fn fuzz_kem_backend(
    backend: &mut dyn PermutationBackend,
    label: &str,
    cases: usize,
    seed: u64,
) -> crate::diff::FuzzReport {
    let mut mismatches = Vec::new();
    for case in 0..cases {
        let case_seed = seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Rng::new(case_seed);
        let params = *rng.pick(&KyberParams::ALL);
        let seeds: KemSeeds = (random32(&mut rng), random32(&mut rng), random32(&mut rng));
        let tamper_index = rng.below(params.ct_len());

        // Cross-backend differential.
        if kem_mismatch(backend, params, &seeds, tamper_index).is_some() {
            let minimal = shrink(seeds, shrink_seeds, |candidate| {
                kem_mismatch(backend, params, candidate, tamper_index).is_some()
            });
            let stage = kem_mismatch(backend, params, &minimal, tamper_index).unwrap_or("ek");
            mismatches.push(CaseReport::new(
                format!("kem-diff/{label}"),
                case_seed,
                format!(
                    "{}: {stage} diverged from reference; minimized seeds d={} z={} m={}",
                    params.label(),
                    hex(&minimal.0),
                    hex(&minimal.1),
                    hex(&minimal.2)
                ),
            ));
            continue;
        }

        // FO-transform invariants on the backend under test.
        let (_, _, ct, shared, decapsed, rejection) =
            pipeline(backend, params, &seeds, tamper_index);
        if decapsed != shared {
            mismatches.push(CaseReport::new(
                format!("kem-diff/{label}"),
                case_seed,
                format!("{}: decaps lost the shared secret", params.label()),
            ));
        }
        if rejection == shared {
            mismatches.push(CaseReport::new(
                format!("kem-diff/{label}"),
                case_seed,
                format!("{}: tampered ct yielded the real secret", params.label()),
            ));
        }
        let mut j = Shake256::new();
        j.update(&seeds.1);
        let mut tampered = ct;
        tampered[tamper_index % params.ct_len()] ^= 0x01;
        j.update(&tampered);
        if j.squeeze(32) != rejection {
            mismatches.push(CaseReport::new(
                format!("kem-diff/{label}"),
                case_seed,
                format!("{}: rejection secret is not J(z ‖ ct′)", params.label()),
            ));
        }
    }
    crate::diff::FuzzReport {
        backend: format!("kem/{label}"),
        cases,
        mismatches,
    }
}

/// Candidate shrinks for a failing seed triple: zero the first nonzero
/// byte of each seed (strictly-simpler inputs, so the descent ends).
fn shrink_seeds(current: &KemSeeds) -> Vec<KemSeeds> {
    let mut candidates = Vec::new();
    for part in 0..3 {
        let bytes = match part {
            0 => &current.0,
            1 => &current.1,
            _ => &current.2,
        };
        if let Some(pos) = bytes.iter().position(|&b| b != 0) {
            let mut next = *current;
            match part {
                0 => next.0[pos] = 0,
                1 => next.1[pos] = 0,
                _ => next.2[pos] = 0,
            }
            candidates.push(next);
        }
    }
    candidates
}

fn random32(rng: &mut Rng) -> [u8; 32] {
    let bytes = rng.bytes(32);
    let mut out = [0u8; 32];
    out.copy_from_slice(&bytes);
    out
}

/// Runs the ML-KEM differential campaign over the conformance roster,
/// splitting `total_cases` evenly (the reference is the oracle and is
/// skipped).
pub fn run_kem_fuzz(total_cases: usize, seed: u64) -> Vec<crate::diff::FuzzReport> {
    let roster: Vec<BackendKind> = BackendKind::conformance_roster()
        .into_iter()
        .filter(|kind| *kind != BackendKind::Reference)
        .collect();
    let per_backend = total_cases.div_ceil(roster.len()).max(1);
    roster
        .iter()
        .enumerate()
        .map(|(index, kind)| {
            let mut backend = kind.instantiate(backend_states(kind));
            fuzz_kem_backend(
                backend.as_mut(),
                &kind.label(),
                per_backend,
                seed ^ ((index as u64) << 48),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kat::Tier;

    #[test]
    fn vectors_cover_all_three_sets_twice() {
        assert_eq!(ML_KEM_VECTORS.len(), 6);
        for params in KyberParams::ALL {
            let count = ML_KEM_VECTORS
                .iter()
                .filter(|v| v.set == params.label())
                .count();
            assert_eq!(count, 2, "{}", params.label());
        }
        for vector in ML_KEM_VECTORS {
            let params = params_for(vector);
            assert_eq!(vector.ek_hex.len(), 2 * params.ek_len(), "{}", vector.set);
            assert_eq!(vector.dk_hex.len(), 2 * params.dk_len(), "{}", vector.set);
            assert_eq!(vector.ct_hex.len(), 2 * params.ct_len(), "{}", vector.set);
        }
    }

    #[test]
    fn reference_backend_passes_kem_vectors() {
        // The workspace implementation against the independent Python
        // oracle: full vectors, all three parameter sets.
        let outcome = run_kem_suite(&BackendKind::Reference, Tier::Smoke);
        assert_eq!(outcome.cases, 4 * ML_KEM_VECTORS.len());
        assert!(outcome.passed(), "{:#?}", outcome.failures);
    }

    #[test]
    fn service_lane_passes_kem_vectors_under_the_mirror() {
        let outcome = run_service_kem_suite(Tier::Short);
        assert_eq!(outcome.backend, KEM_SERVICE_LABEL);
        assert_eq!(outcome.algorithm, KEM_ALGORITHM);
        assert_eq!(outcome.cases, 4 * select(Tier::Short).len());
        assert!(outcome.passed(), "{:#?}", outcome.failures);
    }

    #[test]
    fn reference_vs_reference_fuzz_is_clean() {
        let mut backend = krv_sha3::ReferenceBackend::new();
        let report = fuzz_kem_backend(&mut backend, "reference", 3, 0x5EED_C0DE);
        assert!(report.passed(), "{:?}", report.mismatches);
    }
}
