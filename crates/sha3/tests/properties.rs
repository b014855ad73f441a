//! Property-based tests of the sponge and hash layer.

use krv_sha3::{
    hash_batch, BatchRequest, DomainSeparator, ReferenceBackend, Sha3_224, Sha3_256, Sha3_384,
    Sha3_512, Shake128, Shake256, Sponge, SpongeParams, Xof,
};
use krv_testkit::cases;

#[test]
fn chunked_absorption_is_equivalent() {
    cases(64, |rng| {
        let len = rng.below(2000);
        let message = rng.bytes(len);
        let oneshot = Sha3_256::digest(&message);
        let mut hasher = Sha3_256::new();
        let mut cuts: Vec<usize> = (0..rng.below(8))
            .map(|_| rng.below(message.len() + 1))
            .collect();
        cuts.sort_unstable();
        let mut start = 0;
        for cut in cuts {
            hasher.update(&message[start..cut.max(start)]);
            start = cut.max(start);
        }
        hasher.update(&message[start..]);
        assert_eq!(hasher.finalize(), oneshot);
    });
}

#[test]
fn chunked_squeezing_is_equivalent() {
    cases(64, |rng| {
        let seed_len = rng.below(100);
        let seed = rng.bytes(seed_len);
        let lens: Vec<usize> = (0..1 + rng.below(5)).map(|_| 1 + rng.below(199)).collect();
        let total: usize = lens.iter().sum();
        let mut reference = Shake128::new();
        reference.update(&seed);
        let expected = reference.squeeze(total);
        let mut xof = Shake128::new();
        xof.update(&seed);
        let mut streamed = Vec::new();
        for len in lens {
            streamed.extend(xof.squeeze(len));
        }
        assert_eq!(streamed, expected);
    });
}

#[test]
fn digests_differ_across_functions() {
    cases(32, |rng| {
        // The four hash functions and two XOFs must never collide on
        // their common 28-byte prefix (they have distinct capacities).
        let len = rng.below(300);
        let message = rng.bytes(len);
        let digests: Vec<Vec<u8>> = vec![
            Sha3_224::digest(&message).to_vec(),
            Sha3_256::digest(&message).to_vec(),
            Sha3_384::digest(&message).to_vec(),
            Sha3_512::digest(&message).to_vec(),
            Shake128::digest(&message, 28),
            Shake256::digest(&message, 28),
        ];
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(&digests[i][..28], &digests[j][..28], "{i} vs {j}");
            }
        }
    });
}

#[test]
fn batch_matches_individual_for_random_inputs() {
    cases(32, |rng| {
        let len = rng.below(500);
        let n = 1 + rng.below(6);
        let seed = rng.next_u64();
        let inputs: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                (0..len)
                    .map(|j| (seed.wrapping_mul(i as u64 + 1).wrapping_add(j as u64)) as u8)
                    .collect()
            })
            .collect();
        // Equal lengths: the Kyber matrix-expansion shape.
        let requests: Vec<BatchRequest<'_>> =
            inputs.iter().map(|v| BatchRequest::new(v, 64)).collect();
        let outputs = hash_batch(SpongeParams::shake(128), ReferenceBackend::new(), &requests);
        for (input, output) in inputs.iter().zip(&outputs) {
            let mut xof = Shake128::new();
            xof.update(input);
            assert_eq!(output.clone(), xof.squeeze(64));
        }
    });
}

#[test]
fn scheduled_batch_matches_individual_for_mixed_lengths() {
    cases(32, |rng| {
        let n = rng.below(12);
        let messages: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let len = rng.below(700);
                rng.bytes(len)
            })
            .collect();
        let requests: Vec<BatchRequest<'_>> = messages
            .iter()
            .map(|m| BatchRequest::new(m, 1 + rng.below(400)))
            .collect();
        let outputs = hash_batch(SpongeParams::shake(128), ReferenceBackend::new(), &requests);
        for (request, output) in requests.iter().zip(&outputs) {
            let mut xof = Shake128::new();
            xof.update(request.message);
            assert_eq!(*output, xof.squeeze(request.output_len));
        }
    });
}

#[test]
fn sponge_output_depends_on_domain() {
    cases(32, |rng| {
        let len = rng.below(200);
        let message = rng.bytes(len);
        let mut outputs = Vec::new();
        for domain in [
            DomainSeparator::Sha3,
            DomainSeparator::Shake,
            DomainSeparator::Keccak,
        ] {
            let mut sponge = Sponge::new(SpongeParams::new(136, domain), ReferenceBackend::new());
            sponge.absorb(&message);
            outputs.push(sponge.squeeze(32));
        }
        assert_ne!(&outputs[0], &outputs[1]);
        assert_ne!(&outputs[0], &outputs[2]);
        assert_ne!(&outputs[1], &outputs[2]);
    });
}

/// The padding-critical message lengths for a sponge with the given
/// rate: empty, one byte below/at/above a full block, and two blocks
/// (where `pad10*1` lands in every possible position relative to the
/// block boundary).
fn rate_boundary_lengths(rate: usize) -> [usize; 6] {
    [0, rate - 1, rate, rate + 1, 2 * rate, 2 * rate + 1]
}

#[test]
fn rate_boundary_lengths_roundtrip_through_hash_batch() {
    // Every boundary length, hashed alone and inside a batch, must agree
    // with the one-shot digest — for each of the six functions' rates.
    for params in [
        SpongeParams::sha3(224),
        SpongeParams::sha3(256),
        SpongeParams::sha3(384),
        SpongeParams::sha3(512),
        SpongeParams::shake(128),
        SpongeParams::shake(256),
    ] {
        let rate = params.rate_bytes();
        let messages: Vec<Vec<u8>> = rate_boundary_lengths(rate)
            .iter()
            .map(|&len| (0..len).map(|i| (i * 31 + len) as u8).collect())
            .collect();
        let requests: Vec<BatchRequest<'_>> =
            messages.iter().map(|m| BatchRequest::new(m, 48)).collect();
        let batched = hash_batch(params, ReferenceBackend::new(), &requests);
        for (message, output) in messages.iter().zip(&batched) {
            let mut sponge = Sponge::new(params, ReferenceBackend::new());
            sponge.absorb(message);
            assert_eq!(
                *output,
                sponge.squeeze(48),
                "rate {rate}, len {}",
                message.len()
            );
        }
    }
}

#[test]
fn digest_batch_handles_rate_boundaries_per_function() {
    // The typed front-ends (fixed-width digests and XOFs) over the
    // boundary lengths of their own rate.
    let lens = rate_boundary_lengths(136); // SHA3-256 / SHAKE256 rate
    let messages: Vec<Vec<u8>> = lens
        .iter()
        .map(|&len| (0..len).map(|i| (i ^ len) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = messages.iter().map(|m| m.as_slice()).collect();
    for (message, digest) in messages
        .iter()
        .zip(Sha3_256::digest_batch(ReferenceBackend::new(), &refs))
    {
        assert_eq!(digest, Sha3_256::digest(message), "len {}", message.len());
    }
    for (message, digest) in
        messages
            .iter()
            .zip(Shake256::digest_batch(ReferenceBackend::new(), &refs, 64))
    {
        assert_eq!(
            digest,
            Shake256::digest(message, 64),
            "len {}",
            message.len()
        );
    }
}

#[test]
fn ragged_batches_spanning_rate_boundaries_match_one_shot() {
    cases(24, |rng| {
        // Batches mixing boundary lengths with random ones, random
        // request counts, random output lengths — all must match the
        // per-message one-shot path.
        let rate = *rng.pick(&[104usize, 136, 168]);
        let params = match rate {
            104 => SpongeParams::sha3(384),
            136 => SpongeParams::shake(256),
            _ => SpongeParams::shake(128),
        };
        let n = 1 + rng.below(9);
        let messages: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let len = if rng.next_bool() {
                    rate_boundary_lengths(rate)[rng.below(6)]
                } else {
                    rng.below(3 * rate)
                };
                rng.bytes(len)
            })
            .collect();
        let requests: Vec<BatchRequest<'_>> = messages
            .iter()
            .map(|m| BatchRequest::new(m, 1 + rng.below(200)))
            .collect();
        let outputs = hash_batch(params, ReferenceBackend::new(), &requests);
        for (request, output) in requests.iter().zip(&outputs) {
            let mut sponge = Sponge::new(params, ReferenceBackend::new());
            sponge.absorb(request.message);
            assert_eq!(
                *output,
                sponge.squeeze(request.output_len),
                "rate {rate}, len {}",
                request.message.len()
            );
        }
    });
}

/// A backend that mimics an `SN`-states-wide engine over the reference
/// permutation: each `permute_all` is served in `⌈n / SN⌉` passes of at
/// most `SN` states, like a `VectorKeccakEngine` would run them. Lets
/// the batch schedulers be exercised against widths the batch size does
/// not divide, without depending on the engine crate.
struct SnWideBackend {
    sn: usize,
    passes: u64,
}

impl SnWideBackend {
    fn new(sn: usize) -> Self {
        Self { sn, passes: 0 }
    }
}

impl krv_sha3::PermutationBackend for SnWideBackend {
    fn permute_all(&mut self, states: &mut [krv_keccak::KeccakState]) {
        for chunk in states.chunks_mut(self.sn) {
            assert!(chunk.len() <= self.sn, "pass wider than the hardware");
            ReferenceBackend::new().permute_all(chunk);
            self.passes += 1;
        }
    }

    fn parallel_states(&self) -> usize {
        self.sn
    }
}

#[test]
fn empty_batch_returns_no_outputs() {
    // The degenerate scheduler input: no requests, no permutations.
    let mut backend = SnWideBackend::new(4);
    let outputs = hash_batch(SpongeParams::sha3(256), &mut backend, &[]);
    assert!(outputs.is_empty());
    assert_eq!(backend.passes, 0, "an empty batch must not touch hardware");
}

#[test]
fn zero_length_messages_hash_to_the_empty_digest_in_any_batch() {
    cases(24, |rng| {
        // Batches mixing empty messages with random ones: every empty
        // message must produce exactly the digest of b"".
        let n = 1 + rng.below(9);
        let messages: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                if rng.next_bool() {
                    Vec::new()
                } else {
                    let len = 1 + rng.below(400);
                    rng.bytes(len)
                }
            })
            .collect();
        let requests: Vec<BatchRequest<'_>> =
            messages.iter().map(|m| BatchRequest::new(m, 32)).collect();
        let outputs = hash_batch(
            SpongeParams::sha3(256),
            SnWideBackend::new(1 + rng.below(5)),
            &requests,
        );
        for (message, output) in messages.iter().zip(&outputs) {
            assert_eq!(*output, Sha3_256::digest(message).to_vec());
            if message.is_empty() {
                assert_eq!(*output, Sha3_256::digest(b"").to_vec());
            }
        }
    });
}

#[test]
fn zero_output_requests_coexist_with_squeezing_neighbours() {
    cases(24, |rng| {
        // output_len = 0 is legal: the request drains immediately after
        // absorbing, while neighbours keep squeezing long outputs.
        let n = 1 + rng.below(8);
        let messages: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let len = rng.below(300);
                rng.bytes(len)
            })
            .collect();
        let wants: Vec<usize> = (0..n)
            .map(|i| if i % 2 == 0 { 0 } else { 1 + rng.below(500) })
            .collect();
        let requests: Vec<BatchRequest<'_>> = messages
            .iter()
            .zip(&wants)
            .map(|(m, &want)| BatchRequest::new(m, want))
            .collect();
        let outputs = hash_batch(SpongeParams::shake(128), SnWideBackend::new(3), &requests);
        assert_eq!(outputs.len(), n);
        for ((message, &want), output) in messages.iter().zip(&wants).zip(&outputs) {
            assert_eq!(output.len(), want);
            assert_eq!(*output, Shake128::digest(message, want));
        }
    });
}

#[test]
fn batch_sizes_off_the_backend_width_still_match_one_shot() {
    cases(24, |rng| {
        // Batch sizes deliberately not multiples of the backend's SN —
        // the ragged final pass must hash exactly like the full ones.
        let sn = 2 + rng.below(4); // 2..=5
        let n = 1 + rng.below(3 * sn); // frequently n % sn != 0
        let messages: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let len = rng.below(400);
                rng.bytes(len)
            })
            .collect();
        let requests: Vec<BatchRequest<'_>> = messages
            .iter()
            .map(|m| BatchRequest::new(m, 1 + rng.below(100)))
            .collect();
        let mut backend = SnWideBackend::new(sn);
        let outputs = hash_batch(SpongeParams::shake(256), &mut backend, &requests);
        assert!(backend.passes > 0);
        for (request, output) in requests.iter().zip(&outputs) {
            assert_eq!(
                *output,
                Shake256::digest(request.message, request.output_len),
                "sn {sn}, n {n}, len {}",
                request.message.len()
            );
        }
    });
}

#[test]
fn appending_a_byte_changes_the_digest() {
    cases(64, |rng| {
        let len = rng.below(300);
        let message = rng.bytes(len);
        let mut extended = message.clone();
        extended.push(rng.next_u32() as u8);
        assert_ne!(Sha3_256::digest(&message), Sha3_256::digest(&extended));
    });
}
