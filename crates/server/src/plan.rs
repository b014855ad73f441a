//! From wire algorithm + params block to a serving plan.
//!
//! [`WireAlgorithm::params`] only covers the six FIPS 202 ids; the SP
//! 800-185 family derives its sponge parameters, stream framing prefix
//! and finalize suffix from the request's [`AlgorithmParams`]. This
//! module centralizes that derivation so the one-shot path and the
//! session table frame messages identically — a streamed session and a
//! one-shot request for the same algorithm absorb byte-identical
//! sponge input.

use crate::protocol::{tuple_entries, AlgorithmParams, WireAlgorithm, MAX_OUTPUT_LEN};
use krv_sha3::sp800_185::{
    cshake_params, cshake_stream_prefix, kmac_stream_prefix, output_length_suffix,
    tuple_entry_prefix,
};
use krv_sha3::tree::TreeMode;
use krv_sha3::SpongeParams;

/// How the serving layer runs one wire algorithm instance.
#[derive(Debug, Clone)]
pub(crate) enum ServePlan {
    /// One sponge run flat: the FIPS 202 six, cSHAKE, KMAC, TupleHash.
    Flat(FlatPlan),
    /// A chunked tree, served as service tree requests: ParallelHash and
    /// the KRV tree-hash.
    Tree(TreePlan),
}

/// A single-sponge serving plan.
#[derive(Debug, Clone)]
pub(crate) struct FlatPlan {
    /// The sponge (rate + domain) the whole message runs through.
    pub params: SpongeParams,
    /// Framing bytes absorbed before the message (the `bytepad`ed
    /// cSHAKE header, KMAC's encoded key block). Empty for FIPS 202 and
    /// degenerate cSHAKE.
    pub prefix: Vec<u8>,
    /// TupleHash: every chunk is one tuple entry and absorbs behind its
    /// `left_encode(len·8)` entry header.
    pub tuple: bool,
}

/// A chunked-tree serving plan.
#[derive(Debug, Clone)]
pub(crate) struct TreePlan {
    /// The leaf/root geometry.
    pub mode: TreeMode,
    /// The root cSHAKE customization string.
    pub customization: Vec<u8>,
}

/// Builds the serving plan for a validated algorithm + params pair.
pub(crate) fn plan(algorithm: WireAlgorithm, params: &AlgorithmParams) -> ServePlan {
    let bits = algorithm.security_bits();
    let flat = |sponge: SpongeParams, prefix: Vec<u8>, tuple: bool| {
        ServePlan::Flat(FlatPlan {
            params: sponge,
            prefix,
            tuple,
        })
    };
    match algorithm {
        WireAlgorithm::CShake128 | WireAlgorithm::CShake256 => flat(
            cshake_params(bits, &params.name, &params.customization),
            cshake_stream_prefix(bits, &params.name, &params.customization),
            false,
        ),
        WireAlgorithm::Kmac128 | WireAlgorithm::Kmac256 => flat(
            cshake_params(bits, b"KMAC", &params.customization),
            kmac_stream_prefix(bits, &params.key, &params.customization),
            false,
        ),
        WireAlgorithm::TupleHash128 | WireAlgorithm::TupleHash256 => flat(
            cshake_params(bits, b"TupleHash", &params.customization),
            cshake_stream_prefix(bits, b"TupleHash", &params.customization),
            true,
        ),
        WireAlgorithm::ParallelHash128 | WireAlgorithm::ParallelHash256 => {
            ServePlan::Tree(TreePlan {
                mode: TreeMode::parallel_hash(bits, params.block_size as usize),
                customization: params.customization.clone(),
            })
        }
        WireAlgorithm::TreeHash256 => ServePlan::Tree(TreePlan {
            mode: TreeMode::krv_tree256(),
            customization: params.customization.clone(),
        }),
        fips => flat(fips.params(), Vec::new(), false),
    }
}

/// The framing bytes a flat session absorbs at FINALIZE, before the
/// pad: KMAC and TupleHash bind `right_encode(L·8)` (with `L = 0`
/// selecting their XOF variants); everything else absorbs nothing.
pub(crate) fn finalize_suffix(algorithm: WireAlgorithm, output_len: usize) -> Vec<u8> {
    match algorithm {
        WireAlgorithm::Kmac128
        | WireAlgorithm::Kmac256
        | WireAlgorithm::TupleHash128
        | WireAlgorithm::TupleHash256 => output_length_suffix(output_len),
        _ => Vec::new(),
    }
}

/// Validates a FINALIZE's declared output length against its algorithm
/// and returns the session's squeeze budget: `Some(total)` bounds the
/// SQUEEZE frames that may follow, `None` is an unbounded XOF.
///
/// # Errors
///
/// A static reason string for the `SESSION_STATE` error reply.
pub(crate) fn finalize_budget(
    algorithm: WireAlgorithm,
    output_len: usize,
) -> Result<Option<usize>, &'static str> {
    debug_assert!(output_len <= MAX_OUTPUT_LEN, "decoder bounds output_len");
    if let Some(fixed) = algorithm.fixed_output_len() {
        return if output_len == 0 || output_len == fixed {
            Ok(Some(fixed))
        } else {
            Err("SHA-3 sessions squeeze exactly the fixed digest length")
        };
    }
    match algorithm {
        WireAlgorithm::Shake128
        | WireAlgorithm::Shake256
        | WireAlgorithm::CShake128
        | WireAlgorithm::CShake256 => {
            if output_len == 0 {
                Ok(None)
            } else {
                Err("plain XOF sessions declare no output length; squeeze freely")
            }
        }
        WireAlgorithm::Kmac128
        | WireAlgorithm::Kmac256
        | WireAlgorithm::TupleHash128
        | WireAlgorithm::TupleHash256 => {
            // L = 0 is the arbitrary-length XOF variant; a nonzero L is
            // bound into the suffix and caps the squeezes.
            Ok((output_len > 0).then_some(output_len))
        }
        WireAlgorithm::ParallelHash128
        | WireAlgorithm::ParallelHash256
        | WireAlgorithm::TreeHash256 => {
            // The root digest is one flat squeeze of exactly L bytes,
            // bound into the root's right_encode(L·8) — it must be
            // declared up front.
            if output_len == 0 {
                Err("tree sessions must declare their output length at FINALIZE")
            } else {
                Ok(Some(output_len))
            }
        }
        WireAlgorithm::Sha3_224
        | WireAlgorithm::Sha3_256
        | WireAlgorithm::Sha3_384
        | WireAlgorithm::Sha3_512 => {
            unreachable!("fixed-output algorithms returned above")
        }
    }
}

/// Assembles the flat one-shot message for a non-tree algorithm:
/// framing prefix, the payload (entry-framed for TupleHash), and the
/// finalize suffix — exactly the bytes a streamed session absorbs.
pub(crate) fn flat_message(
    plan: &FlatPlan,
    algorithm: WireAlgorithm,
    payload: &[u8],
    output_len: usize,
) -> Vec<u8> {
    let mut message = plan.prefix.clone();
    if plan.tuple {
        for entry in tuple_entries(payload) {
            message.extend_from_slice(&tuple_entry_prefix(entry.len()));
            message.extend_from_slice(entry);
        }
    } else {
        message.extend_from_slice(payload);
    }
    message.extend_from_slice(&finalize_suffix(algorithm, output_len));
    message
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::encode_tuple_payload;
    use krv_sha3::sp800_185::{kmac256, tuple_hash128, CShake256};
    use krv_sha3::{hash_batch, BatchRequest, ReferenceBackend, Sha3_256, Shake256};

    fn digest_flat(message: &[u8], params: SpongeParams, len: usize) -> Vec<u8> {
        let mut outputs = hash_batch(
            params,
            ReferenceBackend::new(),
            &[BatchRequest::new(message, len)],
        );
        outputs.pop().expect("one request")
    }

    #[test]
    fn fips_plans_are_prefix_free_passthrough() {
        let ServePlan::Flat(plan) = plan(WireAlgorithm::Sha3_256, &AlgorithmParams::none()) else {
            panic!("FIPS is flat")
        };
        assert!(plan.prefix.is_empty());
        assert!(!plan.tuple);
        let message = flat_message(&plan, WireAlgorithm::Sha3_256, b"abc", 32);
        assert_eq!(message, b"abc");
        assert_eq!(
            digest_flat(&message, plan.params, 32),
            Sha3_256::digest(b"abc")
        );
    }

    #[test]
    fn degenerate_cshake_plans_reduce_to_shake() {
        let params = AlgorithmParams::cshake(&b""[..], &b""[..]);
        let ServePlan::Flat(plan) = plan(WireAlgorithm::CShake256, &params) else {
            panic!("cSHAKE is flat")
        };
        assert!(plan.prefix.is_empty(), "empty N and S degenerate to SHAKE");
        let message = flat_message(&plan, WireAlgorithm::CShake256, b"data", 0);
        assert_eq!(
            digest_flat(&message, plan.params, 64),
            Shake256::digest(b"data", 64)
        );
    }

    #[test]
    fn flat_messages_reproduce_the_oneshot_wrappers() {
        let cshake = AlgorithmParams::cshake(&b"Email Signature"[..], &b"ctx"[..]);
        let ServePlan::Flat(cplan) = plan(WireAlgorithm::CShake256, &cshake) else {
            panic!()
        };
        let message = flat_message(&cplan, WireAlgorithm::CShake256, b"payload", 0);
        assert_eq!(
            digest_flat(&message, cplan.params, 48),
            CShake256::digest(b"Email Signature", b"ctx", b"payload", 48)
        );

        let kmac = AlgorithmParams::kmac(&b"top secret key"[..], &b"tag"[..]);
        let ServePlan::Flat(kplan) = plan(WireAlgorithm::Kmac256, &kmac) else {
            panic!()
        };
        let message = flat_message(&kplan, WireAlgorithm::Kmac256, b"message", 64);
        assert_eq!(
            digest_flat(&message, kplan.params, 64),
            kmac256(b"top secret key", b"message", 64, b"tag")
        );

        let tuple = AlgorithmParams::customization(&b"tuple ctx"[..]);
        let ServePlan::Flat(tplan) = plan(WireAlgorithm::TupleHash128, &tuple) else {
            panic!()
        };
        let payload = encode_tuple_payload(&[b"abc", b"", b"tail"]);
        assert!(tplan.tuple);
        let message = flat_message(&tplan, WireAlgorithm::TupleHash128, &payload, 32);
        assert_eq!(
            digest_flat(&message, tplan.params, 32),
            tuple_hash128(&[b"abc", b"", b"tail"], 32, b"tuple ctx")
        );
    }

    #[test]
    fn tree_plans_carry_the_right_geometry() {
        let params = AlgorithmParams::parallel_hash(8192, &b"par"[..]);
        let ServePlan::Tree(tree) = plan(WireAlgorithm::ParallelHash256, &params) else {
            panic!("ParallelHash is a tree")
        };
        assert_eq!(tree.mode.block_size(), 8192);
        assert_eq!(tree.mode.leaf_len(), 64);
        assert_eq!(tree.customization, b"par");

        let ServePlan::Tree(krv) = plan(
            WireAlgorithm::TreeHash256,
            &AlgorithmParams::customization(&b""[..]),
        ) else {
            panic!("the KRV tree-hash is a tree")
        };
        assert_eq!(krv.mode.block_size(), 4096);
        assert_eq!(krv.mode.leaf_len(), 32);
    }

    #[test]
    fn finalize_budgets_enforce_the_per_algorithm_rules() {
        use WireAlgorithm::*;
        assert_eq!(finalize_budget(Sha3_256, 0), Ok(Some(32)));
        assert_eq!(finalize_budget(Sha3_256, 32), Ok(Some(32)));
        assert!(finalize_budget(Sha3_256, 33).is_err());
        assert_eq!(finalize_budget(Shake256, 0), Ok(None));
        assert!(finalize_budget(Shake128, 32).is_err());
        assert_eq!(finalize_budget(CShake256, 0), Ok(None));
        assert_eq!(finalize_budget(Kmac256, 0), Ok(None), "KMACXOF");
        assert_eq!(finalize_budget(Kmac256, 64), Ok(Some(64)));
        assert_eq!(finalize_budget(TupleHash128, 32), Ok(Some(32)));
        assert!(finalize_budget(TreeHash256, 0).is_err());
        assert_eq!(finalize_budget(ParallelHash256, 64), Ok(Some(64)));
    }

    #[test]
    fn finalize_suffixes_only_bind_kmac_and_tuplehash() {
        assert!(finalize_suffix(WireAlgorithm::Shake256, 0).is_empty());
        assert!(finalize_suffix(WireAlgorithm::CShake128, 0).is_empty());
        assert_eq!(
            finalize_suffix(WireAlgorithm::Kmac256, 64),
            output_length_suffix(64)
        );
        assert_eq!(
            finalize_suffix(WireAlgorithm::TupleHash256, 0),
            output_length_suffix(0),
            "the XOF variant still binds right_encode(0)"
        );
    }
}
