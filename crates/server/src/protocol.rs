//! The versioned binary wire protocol of the remote hashing daemon.
//!
//! Every message travels as one **frame**: a little-endian `u32` length
//! prefix followed by that many body bytes. A body always starts with
//! the same header — [`MAGIC`], [`VERSION`], a kind byte, and a caller
//! chosen `u64` request id echoed verbatim in the response — followed by
//! a kind-specific payload:
//!
//! | kind | direction | payload |
//! |---|---|---|
//! | `0x01` HASH | request | algorithm `u8`, output len `u32`, deadline µs `u64` (0 = none), params block, payload len `u32`, payload bytes |
//! | `0x02` STATS | request | empty |
//! | `0x03` OPEN | request | session `u64`, algorithm `u8`, params block |
//! | `0x04` ABSORB | request | session `u64`, chunk len `u32`, chunk bytes |
//! | `0x05` FINALIZE | request | session `u64`, output len `u32` (0 = unbounded XOF) |
//! | `0x06` SQUEEZE | request | session `u64`, len `u32` |
//! | `0x07` CLOSE | request | session `u64` |
//! | `0x08` KEM_KEYGEN | request | set `u8`, deadline µs `u64`, seed d (32 B), seed z (32 B) |
//! | `0x09` KEM_ENCAPS | request | set `u8`, deadline µs `u64`, randomness m (32 B), ek len `u32`, ek bytes |
//! | `0x0A` KEM_DECAPS | request | set `u8`, deadline µs `u64`, dk len `u32`, dk bytes, ct len `u32`, ct bytes |
//! | `0x81` DIGEST | response | digest len `u32`, digest bytes |
//! | `0x82` ERROR | response | code `u8`, detail len `u16`, UTF-8 detail |
//! | `0x83` STATS | response | fixed-width [`MetricsSnapshot`], 344 B of `u64`s: the counters in the order of the ledger's counter table ([`MetricsSnapshot::counters`]), 4 gauges, 3 [`QuantileSummary`] blocks |
//! | `0x84` OPENED | response | session `u64` |
//! | `0x85` ABSORBED | response | session `u64` |
//! | `0x86` FINALIZED | response | session `u64` |
//! | `0x87` SQUEEZED | response | session `u64`, len `u32`, output bytes |
//! | `0x88` CLOSED | response | session `u64` |
//! | `0x89` KEM_KEYS | response | ek len `u32`, ek bytes, dk len `u32`, dk bytes |
//! | `0x8A` KEM_CIPHERTEXT | response | ct len `u32`, ct bytes, shared secret (32 B) |
//! | `0x8B` KEM_SECRET | response | shared secret (32 B) |
//!
//! The KEM kinds serve FIPS 203 ML-KEM under a one-byte **parameter-set
//! id** ([`KemParameterSet`]: 1 = ML-KEM-512, 2 = ML-KEM-768,
//! 3 = ML-KEM-1024). The wire API is deterministic — key generation
//! carries its `(d, z)` seeds and encapsulation its randomness `m` — so
//! results are reproducible and the caller owns randomness. A key or
//! ciphertext of the wrong shape for its set is a *request*-level
//! [`ErrorCode::BadKey`] (the connection survives); an unknown set id is
//! a fatal [`ProtocolError::UnknownParameterSet`].
//!
//! The **params block** (HASH and OPEN) carries the SP 800-185
//! parameters: function name len `u32` + bytes, key len `u32` + bytes,
//! customization len `u32` + bytes, block size `u32`. Every field an
//! algorithm does not use must be empty/zero — see
//! [`AlgorithmParams::validate`].
//!
//! Streaming sessions follow a strict per-session state machine,
//! `OPEN → ABSORB* → FINALIZE → SQUEEZE* → CLOSE`, with session ids
//! chosen by the client and scoped to the connection. Out-of-order
//! session frames are answered with a typed error
//! ([`ErrorCode::SessionState`] / [`ErrorCode::BadSession`]) and close
//! the offending connection; quota errors
//! ([`ErrorCode::SessionLimit`]) are survivable.
//!
//! All integers are little-endian. Decoding is **strict**: unknown
//! magic, version, kind, algorithm or error code, truncated or trailing
//! bytes, and over-limit lengths are all typed [`ProtocolError`]s — a
//! server treats any of them as a fatal protocol violation for that
//! connection (never for the daemon), and a client surfaces them to the
//! caller.

use krv_service::{MetricsSnapshot, QuantileSummary};
use krv_sha3::SpongeParams;
use std::io::{self, IoSlice, Read, Write};
use std::time::Duration;

/// The four magic bytes opening every frame body (`b"KRVH"`).
pub const MAGIC: [u8; 4] = *b"KRVH";

/// Protocol version this implementation speaks. Version 2 grew the
/// STATS reply by the tier counters (`native_served`,
/// `simulator_served`, `mirrored`, `mirror_mismatches`); version 3
/// added the fair-share `throttled` counter; version 4 added streaming
/// sessions (OPEN/ABSORB/FINALIZE/SQUEEZE/CLOSE), the SP 800-185
/// algorithm ids with their params block, and the stream counters in
/// the STATS reply; version 5 added the ML-KEM kinds
/// (KEM_KEYGEN/KEM_ENCAPS/KEM_DECAPS), the `BadKey` error code and the
/// KEM counters in the STATS reply. Older peers are rejected rather
/// than mis-decoded.
pub const VERSION: u8 = 5;

/// Fixed header length of every frame body: magic, version, kind, id.
pub const HEADER_LEN: usize = 4 + 1 + 1 + 8;

/// Length of the `u32` prefix in front of every frame body.
const PREFIX_LEN: usize = 4;

/// The protocol's frame-size limit: the largest frame body either side
/// accepts, **shared by client and server** (both sides read with this
/// bound and size their requests against it). A larger declared length
/// is rejected before any allocation. [`MAX_CHUNK_LEN`] and
/// [`MAX_OUTPUT_LEN`] are derived to always fit inside it.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// The largest ABSORB chunk the protocol carries: [`DEFAULT_MAX_FRAME`]
/// minus the frame header, session id and length field (rounded down to
/// a comfortable 64-byte margin), so a maximal chunk's frame never
/// trips the frame limit. A larger declared chunk is rejected with the
/// typed [`ProtocolError::OversizedChunk`] — by the client before it
/// writes, and by the server's strict decoder if a client writes one
/// anyway. Streaming a longer message is what multiple ABSORB frames
/// are for.
pub const MAX_CHUNK_LEN: usize = DEFAULT_MAX_FRAME - 64;

/// Upper bound on the requested output length (64 KiB): a HASH
/// request's digest, a FINALIZE's declared total, and each SQUEEZE's
/// slice. Far above any digest, far below anything that could amplify
/// a small request into an unbounded response.
pub const MAX_OUTPUT_LEN: usize = 1 << 16;

/// Upper bound on each SP 800-185 parameter string (function name, key,
/// customization) in a params block.
pub const MAX_PARAM_LEN: usize = 1 << 16;

const KIND_HASH: u8 = 0x01;
const KIND_STATS: u8 = 0x02;
const KIND_OPEN: u8 = 0x03;
const KIND_ABSORB: u8 = 0x04;
const KIND_FINALIZE: u8 = 0x05;
const KIND_SQUEEZE: u8 = 0x06;
const KIND_CLOSE: u8 = 0x07;
const KIND_KEM_KEYGEN: u8 = 0x08;
const KIND_KEM_ENCAPS: u8 = 0x09;
const KIND_KEM_DECAPS: u8 = 0x0A;
const KIND_DIGEST: u8 = 0x81;
const KIND_ERROR: u8 = 0x82;
const KIND_STATS_REPLY: u8 = 0x83;
const KIND_OPENED: u8 = 0x84;
const KIND_ABSORBED: u8 = 0x85;
const KIND_FINALIZED: u8 = 0x86;
const KIND_SQUEEZED: u8 = 0x87;
const KIND_CLOSED: u8 = 0x88;
const KIND_KEM_KEYS: u8 = 0x89;
const KIND_KEM_CIPHERTEXT: u8 = 0x8A;
const KIND_KEM_SECRET: u8 = 0x8B;

/// Why a frame failed strict decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The body ended before a declared field ended.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that remained.
        got: usize,
    },
    /// The frame does not start with [`MAGIC`].
    BadMagic {
        /// The four bytes observed instead.
        got: [u8; 4],
    },
    /// A version this implementation does not speak.
    BadVersion {
        /// The version byte observed.
        got: u8,
    },
    /// A kind byte outside the protocol.
    UnknownKind {
        /// The kind byte observed.
        got: u8,
    },
    /// A valid kind travelling in the wrong direction (a response kind
    /// decoded as a request, or vice versa).
    UnexpectedKind {
        /// The kind byte observed.
        got: u8,
    },
    /// An algorithm id outside [`WireAlgorithm::ALL`].
    UnknownAlgorithm {
        /// The algorithm byte observed.
        got: u8,
    },
    /// An error code outside [`ErrorCode`].
    UnknownErrorCode {
        /// The code byte observed.
        got: u8,
    },
    /// A KEM parameter-set id outside [`KemParameterSet::ALL`].
    UnknownParameterSet {
        /// The set byte observed.
        got: u8,
    },
    /// A frame whose declared length exceeds the negotiated limit.
    OversizedFrame {
        /// Declared body length.
        len: usize,
        /// The limit in force.
        max: usize,
    },
    /// An ABSORB chunk above [`MAX_CHUNK_LEN`].
    OversizedChunk {
        /// Declared chunk length.
        len: usize,
    },
    /// A requested output length above [`MAX_OUTPUT_LEN`].
    OversizedOutput {
        /// Requested output length.
        len: usize,
    },
    /// A fixed-output hash function requested with the wrong length.
    WrongOutputLen {
        /// The algorithm requested.
        algorithm: WireAlgorithm,
        /// Its fixed digest length.
        expected: usize,
        /// The length requested instead.
        got: usize,
    },
    /// A params block that is invalid for its algorithm (a key on a
    /// keyless function, a missing block size, an over-long string, …).
    BadParams {
        /// The algorithm the params were for.
        algorithm: WireAlgorithm,
        /// What was wrong.
        reason: &'static str,
    },
    /// A TupleHash one-shot payload whose entry framing (`u32` length
    /// before each entry) does not cover the payload exactly.
    BadTuplePayload,
    /// Bytes left over after the last declared field.
    TrailingBytes {
        /// How many bytes remained.
        extra: usize,
    },
    /// An error detail that is not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} more bytes, got {got}")
            }
            ProtocolError::BadMagic { got } => write!(f, "bad magic {got:02x?}"),
            ProtocolError::BadVersion { got } => write!(f, "unsupported protocol version {got}"),
            ProtocolError::UnknownKind { got } => write!(f, "unknown frame kind {got:#04x}"),
            ProtocolError::UnexpectedKind { got } => {
                write!(f, "frame kind {got:#04x} travelling in the wrong direction")
            }
            ProtocolError::UnknownAlgorithm { got } => write!(f, "unknown algorithm id {got}"),
            ProtocolError::UnknownErrorCode { got } => write!(f, "unknown error code {got}"),
            ProtocolError::UnknownParameterSet { got } => {
                write!(f, "unknown ML-KEM parameter-set id {got}")
            }
            ProtocolError::OversizedFrame { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            ProtocolError::OversizedChunk { len } => {
                write!(
                    f,
                    "ABSORB chunk of {len} bytes exceeds the {MAX_CHUNK_LEN}-byte limit"
                )
            }
            ProtocolError::OversizedOutput { len } => {
                write!(
                    f,
                    "output length {len} exceeds the {MAX_OUTPUT_LEN}-byte limit"
                )
            }
            ProtocolError::WrongOutputLen {
                algorithm,
                expected,
                got,
            } => write!(
                f,
                "{} produces {expected} bytes, request asked for {got}",
                algorithm.name()
            ),
            ProtocolError::BadParams { algorithm, reason } => {
                write!(f, "bad params for {}: {reason}", algorithm.name())
            }
            ProtocolError::BadTuplePayload => {
                write!(f, "TupleHash payload entry framing does not add up")
            }
            ProtocolError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last field")
            }
            ProtocolError::BadUtf8 => write!(f, "error detail is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The wire algorithms: the six FIPS 202 functions plus the SP 800-185
/// derived functions and the KRV tree-hash, as one-byte wire ids.
///
/// Ids are part of the protocol: they never change meaning across
/// versions, and every id round-trips through [`Self::from_id`]. Ids
/// `7..=15` (the SP 800-185 family) carry their parameters — function
/// name, key, customization, block size — in the request's params
/// block; see [`AlgorithmParams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum WireAlgorithm {
    /// SHA3-224, id 1.
    Sha3_224 = 1,
    /// SHA3-256, id 2.
    Sha3_256 = 2,
    /// SHA3-384, id 3.
    Sha3_384 = 3,
    /// SHA3-512, id 4.
    Sha3_512 = 4,
    /// SHAKE128, id 5.
    Shake128 = 5,
    /// SHAKE256, id 6.
    Shake256 = 6,
    /// cSHAKE128 (SP 800-185 §3), id 7. Params: function name `N`,
    /// customization `S`. Both empty degenerates to SHAKE128 (§3.3).
    CShake128 = 7,
    /// cSHAKE256 (SP 800-185 §3), id 8.
    CShake256 = 8,
    /// KMAC128 (SP 800-185 §4), id 9. Params: key `K`, customization
    /// `S`. Output length 0 selects the KMACXOF variant.
    Kmac128 = 9,
    /// KMAC256 (SP 800-185 §4), id 10.
    Kmac256 = 10,
    /// TupleHash128 (SP 800-185 §5), id 11. Params: customization `S`.
    /// A one-shot payload carries `u32`-length-framed entries; each
    /// streamed ABSORB chunk is one whole tuple entry.
    TupleHash128 = 11,
    /// TupleHash256 (SP 800-185 §5), id 12.
    TupleHash256 = 12,
    /// ParallelHash128 (SP 800-185 §6), id 13. Params: customization
    /// `S`, block size `B` (required nonzero). Served as a chunked
    /// tree: each HASH or session operation is one service tree request,
    /// whose leaves ride the batch's rounds beside the root.
    ParallelHash128 = 13,
    /// ParallelHash256 (SP 800-185 §6), id 14.
    ParallelHash256 = 14,
    /// The KRV tree-hash, id 15: 32-byte SHAKE256 leaves over fixed
    /// 4 KiB chunks, `cSHAKE256("KRV-TreeHash", S)` root. Params:
    /// customization `S`; block size 0 or 4096. Served as a chunked tree
    /// like ParallelHash.
    TreeHash256 = 15,
}

impl WireAlgorithm {
    /// Every algorithm, in wire-id order.
    pub const ALL: [WireAlgorithm; 15] = [
        WireAlgorithm::Sha3_224,
        WireAlgorithm::Sha3_256,
        WireAlgorithm::Sha3_384,
        WireAlgorithm::Sha3_512,
        WireAlgorithm::Shake128,
        WireAlgorithm::Shake256,
        WireAlgorithm::CShake128,
        WireAlgorithm::CShake256,
        WireAlgorithm::Kmac128,
        WireAlgorithm::Kmac256,
        WireAlgorithm::TupleHash128,
        WireAlgorithm::TupleHash256,
        WireAlgorithm::ParallelHash128,
        WireAlgorithm::ParallelHash256,
        WireAlgorithm::TreeHash256,
    ];

    /// The six FIPS 202 ids (no params block fields in use).
    pub const FIPS: [WireAlgorithm; 6] = [
        WireAlgorithm::Sha3_224,
        WireAlgorithm::Sha3_256,
        WireAlgorithm::Sha3_384,
        WireAlgorithm::Sha3_512,
        WireAlgorithm::Shake128,
        WireAlgorithm::Shake256,
    ];

    /// The wire id.
    pub const fn id(self) -> u8 {
        self as u8
    }

    /// The algorithm of a wire id.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownAlgorithm`] for an id outside `1..=15`.
    pub fn from_id(id: u8) -> Result<Self, ProtocolError> {
        match id {
            1 => Ok(WireAlgorithm::Sha3_224),
            2 => Ok(WireAlgorithm::Sha3_256),
            3 => Ok(WireAlgorithm::Sha3_384),
            4 => Ok(WireAlgorithm::Sha3_512),
            5 => Ok(WireAlgorithm::Shake128),
            6 => Ok(WireAlgorithm::Shake256),
            7 => Ok(WireAlgorithm::CShake128),
            8 => Ok(WireAlgorithm::CShake256),
            9 => Ok(WireAlgorithm::Kmac128),
            10 => Ok(WireAlgorithm::Kmac256),
            11 => Ok(WireAlgorithm::TupleHash128),
            12 => Ok(WireAlgorithm::TupleHash256),
            13 => Ok(WireAlgorithm::ParallelHash128),
            14 => Ok(WireAlgorithm::ParallelHash256),
            15 => Ok(WireAlgorithm::TreeHash256),
            got => Err(ProtocolError::UnknownAlgorithm { got }),
        }
    }

    /// The function's display name.
    pub const fn name(self) -> &'static str {
        match self {
            WireAlgorithm::Sha3_224 => "SHA3-224",
            WireAlgorithm::Sha3_256 => "SHA3-256",
            WireAlgorithm::Sha3_384 => "SHA3-384",
            WireAlgorithm::Sha3_512 => "SHA3-512",
            WireAlgorithm::Shake128 => "SHAKE128",
            WireAlgorithm::Shake256 => "SHAKE256",
            WireAlgorithm::CShake128 => "cSHAKE128",
            WireAlgorithm::CShake256 => "cSHAKE256",
            WireAlgorithm::Kmac128 => "KMAC128",
            WireAlgorithm::Kmac256 => "KMAC256",
            WireAlgorithm::TupleHash128 => "TupleHash128",
            WireAlgorithm::TupleHash256 => "TupleHash256",
            WireAlgorithm::ParallelHash128 => "ParallelHash128",
            WireAlgorithm::ParallelHash256 => "ParallelHash256",
            WireAlgorithm::TreeHash256 => "KRV-TreeHash256",
        }
    }

    /// Whether this is one of the six FIPS 202 ids (params-free).
    pub const fn is_fips(self) -> bool {
        (self as u8) <= 6
    }

    /// Whether this algorithm is served as a chunked tree (one service
    /// tree request per HASH or session operation): ParallelHash and the
    /// KRV tree-hash.
    pub const fn is_tree(self) -> bool {
        matches!(
            self,
            WireAlgorithm::ParallelHash128
                | WireAlgorithm::ParallelHash256
                | WireAlgorithm::TreeHash256
        )
    }

    /// The security level in bits (the Keccak capacity is twice this).
    pub const fn security_bits(self) -> usize {
        match self {
            WireAlgorithm::Sha3_224 => 224,
            WireAlgorithm::Sha3_256 | WireAlgorithm::Sha3_384 | WireAlgorithm::Sha3_512 => {
                match self {
                    WireAlgorithm::Sha3_384 => 384,
                    WireAlgorithm::Sha3_512 => 512,
                    _ => 256,
                }
            }
            WireAlgorithm::Shake128
            | WireAlgorithm::CShake128
            | WireAlgorithm::Kmac128
            | WireAlgorithm::TupleHash128
            | WireAlgorithm::ParallelHash128 => 128,
            _ => 256,
        }
    }

    /// The sponge parameters the service hashes a FIPS 202 algorithm
    /// with.
    ///
    /// # Panics
    ///
    /// Panics for the SP 800-185 ids (`7..=15`): their sponge
    /// parameters depend on the request's [`AlgorithmParams`] (empty
    /// `N`/`S` degenerates cSHAKE to SHAKE), so the serving layer
    /// derives them from the params block instead.
    pub fn params(self) -> SpongeParams {
        match self {
            WireAlgorithm::Sha3_224 => SpongeParams::sha3(224),
            WireAlgorithm::Sha3_256 => SpongeParams::sha3(256),
            WireAlgorithm::Sha3_384 => SpongeParams::sha3(384),
            WireAlgorithm::Sha3_512 => SpongeParams::sha3(512),
            WireAlgorithm::Shake128 => SpongeParams::shake(128),
            WireAlgorithm::Shake256 => SpongeParams::shake(256),
            other => panic!(
                "{} derives its sponge from AlgorithmParams, not WireAlgorithm::params",
                other.name()
            ),
        }
    }

    /// The fixed digest length of the hash functions, `None` for the
    /// XOFs and the SP 800-185 family (whose output length travels in
    /// the request).
    pub const fn fixed_output_len(self) -> Option<usize> {
        match self {
            WireAlgorithm::Sha3_224 => Some(28),
            WireAlgorithm::Sha3_256 => Some(32),
            WireAlgorithm::Sha3_384 => Some(48),
            WireAlgorithm::Sha3_512 => Some(64),
            _ => None,
        }
    }
}

/// The ML-KEM parameter sets, as one-byte wire ids.
///
/// Ids are part of the protocol and never change meaning across
/// versions. Each id maps to the [`krv_kyber::KyberParams`] the service
/// runs the operation under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum KemParameterSet {
    /// ML-KEM-512 (k = 2), id 1.
    MlKem512 = 1,
    /// ML-KEM-768 (k = 3), id 2.
    MlKem768 = 2,
    /// ML-KEM-1024 (k = 4), id 3.
    MlKem1024 = 3,
}

impl KemParameterSet {
    /// Every parameter set, in wire-id order.
    pub const ALL: [KemParameterSet; 3] = [
        KemParameterSet::MlKem512,
        KemParameterSet::MlKem768,
        KemParameterSet::MlKem1024,
    ];

    /// The wire id.
    pub const fn id(self) -> u8 {
        self as u8
    }

    /// The parameter set of a wire id.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownParameterSet`] for an id outside `1..=3`.
    pub fn from_id(id: u8) -> Result<Self, ProtocolError> {
        match id {
            1 => Ok(KemParameterSet::MlKem512),
            2 => Ok(KemParameterSet::MlKem768),
            3 => Ok(KemParameterSet::MlKem1024),
            got => Err(ProtocolError::UnknownParameterSet { got }),
        }
    }

    /// The FIPS 203 parameters the service runs this set under.
    pub const fn params(self) -> krv_kyber::KyberParams {
        match self {
            KemParameterSet::MlKem512 => krv_kyber::KyberParams::KYBER512,
            KemParameterSet::MlKem768 => krv_kyber::KyberParams::KYBER768,
            KemParameterSet::MlKem1024 => krv_kyber::KyberParams::KYBER1024,
        }
    }

    /// The set's display name.
    pub const fn name(self) -> &'static str {
        match self {
            KemParameterSet::MlKem512 => "ML-KEM-512",
            KemParameterSet::MlKem768 => "ML-KEM-768",
            KemParameterSet::MlKem1024 => "ML-KEM-1024",
        }
    }
}

/// The SP 800-185 parameters of a HASH or OPEN request: one uniform
/// block on the wire, with every unused field required empty/zero.
///
/// | field | used by |
/// |---|---|
/// | `name` (`N`) | cSHAKE only (KMAC/TupleHash/ParallelHash fix it) |
/// | `key` (`K`) | KMAC only |
/// | `customization` (`S`) | every SP 800-185 id |
/// | `block_size` (`B`) | ParallelHash (required), TreeHash256 (0 or 4096) |
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AlgorithmParams {
    /// The cSHAKE function name `N`.
    pub name: Vec<u8>,
    /// The KMAC key `K`.
    pub key: Vec<u8>,
    /// The customization string `S`.
    pub customization: Vec<u8>,
    /// The ParallelHash/tree block size `B` in bytes.
    pub block_size: u32,
}

impl AlgorithmParams {
    /// The empty params block every FIPS 202 request carries.
    pub fn none() -> Self {
        Self::default()
    }

    /// Params for cSHAKE: function name `N` and customization `S`.
    pub fn cshake(name: impl Into<Vec<u8>>, customization: impl Into<Vec<u8>>) -> Self {
        Self {
            name: name.into(),
            customization: customization.into(),
            ..Self::default()
        }
    }

    /// Params for KMAC: key `K` and customization `S`.
    pub fn kmac(key: impl Into<Vec<u8>>, customization: impl Into<Vec<u8>>) -> Self {
        Self {
            key: key.into(),
            customization: customization.into(),
            ..Self::default()
        }
    }

    /// Params for TupleHash and the KRV tree-hash: customization `S`.
    pub fn customization(customization: impl Into<Vec<u8>>) -> Self {
        Self {
            customization: customization.into(),
            ..Self::default()
        }
    }

    /// Params for ParallelHash: block size `B` and customization `S`.
    pub fn parallel_hash(block_size: u32, customization: impl Into<Vec<u8>>) -> Self {
        Self {
            customization: customization.into(),
            block_size,
            ..Self::default()
        }
    }

    /// Checks the block against its algorithm: unused fields must be
    /// empty/zero, used strings at most [`MAX_PARAM_LEN`] bytes,
    /// ParallelHash's block size nonzero, TreeHash256's 0 or 4096.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadParams`] naming the first violated rule.
    pub fn validate(&self, algorithm: WireAlgorithm) -> Result<(), ProtocolError> {
        let fail = |reason| Err(ProtocolError::BadParams { algorithm, reason });
        let uses_name = matches!(
            algorithm,
            WireAlgorithm::CShake128 | WireAlgorithm::CShake256
        );
        let uses_key = matches!(algorithm, WireAlgorithm::Kmac128 | WireAlgorithm::Kmac256);
        if !uses_name && !self.name.is_empty() {
            return fail("function name is only a cSHAKE parameter");
        }
        if !uses_key && !self.key.is_empty() {
            return fail("key is only a KMAC parameter");
        }
        if algorithm.is_fips() && !self.customization.is_empty() {
            return fail("FIPS 202 functions take no customization");
        }
        for (field, reason) in [
            (&self.name, "function name exceeds MAX_PARAM_LEN"),
            (&self.key, "key exceeds MAX_PARAM_LEN"),
            (&self.customization, "customization exceeds MAX_PARAM_LEN"),
        ] {
            if field.len() > MAX_PARAM_LEN {
                return fail(reason);
            }
        }
        match algorithm {
            WireAlgorithm::ParallelHash128 | WireAlgorithm::ParallelHash256 => {
                if self.block_size == 0 {
                    return fail("ParallelHash requires a nonzero block size");
                }
            }
            WireAlgorithm::TreeHash256 => {
                if self.block_size != 0 && self.block_size != 4096 {
                    return fail("the KRV tree-hash block size is fixed at 4096");
                }
            }
            _ => {
                if self.block_size != 0 {
                    return fail("block size is only a tree parameter");
                }
            }
        }
        Ok(())
    }

    fn encode_into(&self, body: &mut Vec<u8>) {
        for field in [&self.name, &self.key, &self.customization] {
            body.extend_from_slice(&(field.len() as u32).to_le_bytes());
            body.extend_from_slice(field);
        }
        body.extend_from_slice(&self.block_size.to_le_bytes());
    }

    fn encoded_len(&self) -> usize {
        3 * 4 + self.name.len() + self.key.len() + self.customization.len() + 4
    }

    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, ProtocolError> {
        Ok(Self {
            name: cursor.bytes_u32_len()?,
            key: cursor.bytes_u32_len()?,
            customization: cursor.bytes_u32_len()?,
            block_size: cursor.u32()?,
        })
    }
}

/// Why the server answered a request with an [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Backpressure: the admission queue or the connection's in-flight
    /// window is full. Retry later.
    Busy = 1,
    /// The request's deadline elapsed before it was dispatched.
    Deadline = 2,
    /// The engine pool failed the request after its retry.
    Internal = 3,
    /// The daemon is draining; no new requests are admitted.
    ShuttingDown = 4,
    /// A session frame named a session this connection does not hold
    /// (never opened, already closed, or reaped for idleness) — or an
    /// OPEN reused a live session id. Fatal to the connection.
    BadSession = 5,
    /// A session frame out of order: ABSORB after FINALIZE, SQUEEZE
    /// before it, a second FINALIZE, squeezing past the declared output
    /// length, … Fatal to the connection.
    SessionState = 6,
    /// A session quota: too many open sessions on the connection, or a
    /// tree message (one-shot, or a session's bytes so far) needing more
    /// leaves than the server's leaf cap. A refused session is poisoned
    /// until CLOSE; the connection survives.
    SessionLimit = 7,
    /// A KEM key or ciphertext failed FIPS 203 input validation (wrong
    /// length for its parameter set, or a non-canonical encapsulation
    /// key). A caller error; the connection survives.
    BadKey = 8,
}

impl ErrorCode {
    /// The error code of a wire byte.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownErrorCode`] outside `1..=8`.
    pub fn from_byte(byte: u8) -> Result<Self, ProtocolError> {
        match byte {
            1 => Ok(ErrorCode::Busy),
            2 => Ok(ErrorCode::Deadline),
            3 => Ok(ErrorCode::Internal),
            4 => Ok(ErrorCode::ShuttingDown),
            5 => Ok(ErrorCode::BadSession),
            6 => Ok(ErrorCode::SessionState),
            7 => Ok(ErrorCode::SessionLimit),
            8 => Ok(ErrorCode::BadKey),
            got => Err(ProtocolError::UnknownErrorCode { got }),
        }
    }

    /// The code's display name.
    pub const fn name(self) -> &'static str {
        match self {
            ErrorCode::Busy => "BUSY",
            ErrorCode::Deadline => "DEADLINE",
            ErrorCode::Internal => "INTERNAL",
            ErrorCode::ShuttingDown => "SHUTTING_DOWN",
            ErrorCode::BadSession => "BAD_SESSION",
            ErrorCode::SessionState => "SESSION_STATE",
            ErrorCode::SessionLimit => "SESSION_LIMIT",
            ErrorCode::BadKey => "BAD_KEY",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A client → server frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Hash `payload` one-shot and respond with the squeezed output.
    Hash {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// Which wire algorithm to run.
        algorithm: WireAlgorithm,
        /// Output bytes to squeeze (the digest length for the hash
        /// functions, caller-chosen for the XOFs and SP 800-185
        /// functions).
        output_len: usize,
        /// Deadline relative to admission; `None` waits indefinitely.
        deadline: Option<Duration>,
        /// The SP 800-185 parameters (empty for FIPS 202).
        params: AlgorithmParams,
        /// The message to hash. For TupleHash this is the
        /// `u32`-length-framed entry sequence.
        payload: Vec<u8>,
    },
    /// Return the service's [`MetricsSnapshot`].
    Stats {
        /// Caller-chosen id echoed in the response.
        id: u64,
    },
    /// Open a streaming session under a client-chosen session id.
    Open {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// The session id, scoped to this connection.
        session: u64,
        /// Which wire algorithm the session runs.
        algorithm: WireAlgorithm,
        /// The SP 800-185 parameters (empty for FIPS 202).
        params: AlgorithmParams,
    },
    /// Absorb one chunk into a session (one tuple entry for TupleHash).
    Absorb {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// The session to absorb into.
        session: u64,
        /// The chunk, at most [`MAX_CHUNK_LEN`] bytes.
        chunk: Vec<u8>,
    },
    /// End a session's absorb phase and bind its output length.
    Finalize {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// The session to finalize.
        session: u64,
        /// The declared total output length: required for the tree
        /// algorithms, bound into KMAC/TupleHash (0 selects their XOF
        /// variants), 0 for the plain XOFs, and 0 or the fixed digest
        /// length for SHA-3.
        output_len: usize,
    },
    /// Squeeze the next `len` output bytes from a finalized session.
    Squeeze {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// The session to squeeze.
        session: u64,
        /// Output bytes wanted, at most [`MAX_OUTPUT_LEN`] per frame.
        len: usize,
    },
    /// Close a session, releasing its state at any phase.
    Close {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// The session to close.
        session: u64,
    },
    /// Generate an ML-KEM key pair from explicit seeds, answered with
    /// [`Response::KemKeys`].
    KemKeygen {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// The parameter set to generate under.
        set: KemParameterSet,
        /// Deadline relative to admission; `None` waits indefinitely.
        deadline: Option<Duration>,
        /// The 32-byte key-generation seed d.
        d: [u8; 32],
        /// The 32-byte implicit-rejection seed z.
        z: [u8; 32],
    },
    /// Encapsulate a shared secret to `ek`, answered with
    /// [`Response::KemCiphertext`] (or [`ErrorCode::BadKey`] for a
    /// malformed key).
    KemEncaps {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// The parameter set `ek` belongs to.
        set: KemParameterSet,
        /// Deadline relative to admission; `None` waits indefinitely.
        deadline: Option<Duration>,
        /// The 32-byte encapsulation randomness m.
        m: [u8; 32],
        /// The byte-encoded encapsulation key.
        ek: Vec<u8>,
    },
    /// Decapsulate `ct` under `dk`, answered with
    /// [`Response::KemSecret`] (implicit rejection included — a
    /// tampered ciphertext still yields a secret, just not the
    /// encapsulated one).
    KemDecaps {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// The parameter set the key and ciphertext belong to.
        set: KemParameterSet,
        /// Deadline relative to admission; `None` waits indefinitely.
        deadline: Option<Duration>,
        /// The byte-encoded decapsulation key.
        dk: Vec<u8>,
        /// The byte-encoded ciphertext.
        ct: Vec<u8>,
    },
}

impl Request {
    /// The request id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Hash { id, .. }
            | Request::Stats { id }
            | Request::Open { id, .. }
            | Request::Absorb { id, .. }
            | Request::Finalize { id, .. }
            | Request::Squeeze { id, .. }
            | Request::Close { id, .. }
            | Request::KemKeygen { id, .. }
            | Request::KemEncaps { id, .. }
            | Request::KemDecaps { id, .. } => *id,
        }
    }

    /// Encodes the frame body (without the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        [&self.frame_head()[PREFIX_LEN..], self.frame_tail()].concat()
    }

    /// The frame's wire bytes up to its tail: the length prefix, the
    /// header and every field but HASH's payload and ABSORB's chunk. For
    /// every other kind this is the whole frame.
    pub(crate) fn frame_head(&self) -> Vec<u8> {
        match self {
            Request::Hash {
                id,
                algorithm,
                output_len,
                deadline,
                params,
                payload,
            } => hash_head(
                *id,
                *algorithm,
                *output_len,
                *deadline,
                params,
                payload.len(),
            ),
            Request::Stats { id } => framed(KIND_STATS, *id, 0, 0, |_| {}),
            Request::Open {
                id,
                session,
                algorithm,
                params,
            } => framed(KIND_OPEN, *id, 8 + 1 + params.encoded_len(), 0, |out| {
                out.extend_from_slice(&session.to_le_bytes());
                out.push(algorithm.id());
                params.encode_into(out);
            }),
            Request::Absorb { id, session, chunk } => absorb_head(*id, *session, chunk.len()),
            Request::Finalize {
                id,
                session,
                output_len,
            } => framed(KIND_FINALIZE, *id, 8 + 4, 0, |out| {
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&(*output_len as u32).to_le_bytes());
            }),
            Request::Squeeze { id, session, len } => framed(KIND_SQUEEZE, *id, 8 + 4, 0, |out| {
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&(*len as u32).to_le_bytes());
            }),
            Request::Close { id, session } => framed(KIND_CLOSE, *id, 8, 0, |out| {
                out.extend_from_slice(&session.to_le_bytes());
            }),
            Request::KemKeygen {
                id,
                set,
                deadline,
                d,
                z,
            } => framed(KIND_KEM_KEYGEN, *id, 1 + 8 + 32 + 32, 0, |out| {
                out.push(set.id());
                out.extend_from_slice(&encode_deadline(*deadline).to_le_bytes());
                out.extend_from_slice(d);
                out.extend_from_slice(z);
            }),
            Request::KemEncaps {
                id,
                set,
                deadline,
                m,
                ek,
            } => framed(KIND_KEM_ENCAPS, *id, 1 + 8 + 32 + 4 + ek.len(), 0, |out| {
                out.push(set.id());
                out.extend_from_slice(&encode_deadline(*deadline).to_le_bytes());
                out.extend_from_slice(m);
                out.extend_from_slice(&(ek.len() as u32).to_le_bytes());
                out.extend_from_slice(ek);
            }),
            Request::KemDecaps {
                id,
                set,
                deadline,
                dk,
                ct,
            } => framed(
                KIND_KEM_DECAPS,
                *id,
                1 + 8 + 4 + dk.len() + 4 + ct.len(),
                0,
                |out| {
                    out.push(set.id());
                    out.extend_from_slice(&encode_deadline(*deadline).to_le_bytes());
                    out.extend_from_slice(&(dk.len() as u32).to_le_bytes());
                    out.extend_from_slice(dk);
                    out.extend_from_slice(&(ct.len() as u32).to_le_bytes());
                    out.extend_from_slice(ct);
                },
            ),
        }
    }

    /// The bytes a frame carries behind its head: HASH's payload or
    /// ABSORB's chunk, each the last field of its kind; empty for every
    /// other kind.
    pub(crate) fn frame_tail(&self) -> &[u8] {
        match self {
            Request::Hash { payload, .. } => payload,
            Request::Absorb { chunk, .. } => chunk,
            _ => &[],
        }
    }

    /// Strictly decodes a frame body.
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`]; see the module table for the layout every
    /// field is checked against. Params blocks are validated against
    /// their algorithm, ABSORB chunks against [`MAX_CHUNK_LEN`], and a
    /// TupleHash one-shot payload against its entry framing.
    pub fn decode(body: &[u8]) -> Result<Self, ProtocolError> {
        let mut cursor = Cursor::new(body);
        let (kind, id) = cursor.header()?;
        let request = match kind {
            KIND_HASH => {
                let algorithm = WireAlgorithm::from_id(cursor.u8()?)?;
                let output_len = cursor.u32()? as usize;
                if output_len > MAX_OUTPUT_LEN {
                    return Err(ProtocolError::OversizedOutput { len: output_len });
                }
                if let Some(expected) = algorithm.fixed_output_len() {
                    if output_len != expected {
                        return Err(ProtocolError::WrongOutputLen {
                            algorithm,
                            expected,
                            got: output_len,
                        });
                    }
                }
                let deadline_us = cursor.u64()?;
                let params = AlgorithmParams::decode(&mut cursor)?;
                params.validate(algorithm)?;
                let payload = cursor.bytes_u32_len()?;
                if matches!(
                    algorithm,
                    WireAlgorithm::TupleHash128 | WireAlgorithm::TupleHash256
                ) {
                    validate_tuple_framing(&payload)?;
                }
                Request::Hash {
                    id,
                    algorithm,
                    output_len,
                    deadline: (deadline_us > 0).then(|| Duration::from_micros(deadline_us)),
                    params,
                    payload,
                }
            }
            KIND_STATS => Request::Stats { id },
            KIND_OPEN => {
                let session = cursor.u64()?;
                let algorithm = WireAlgorithm::from_id(cursor.u8()?)?;
                let params = AlgorithmParams::decode(&mut cursor)?;
                params.validate(algorithm)?;
                Request::Open {
                    id,
                    session,
                    algorithm,
                    params,
                }
            }
            KIND_ABSORB => {
                let session = cursor.u64()?;
                let declared = cursor.u32()? as usize;
                if declared > MAX_CHUNK_LEN {
                    return Err(ProtocolError::OversizedChunk { len: declared });
                }
                let chunk = cursor.take(declared)?.to_vec();
                Request::Absorb { id, session, chunk }
            }
            KIND_FINALIZE => {
                let session = cursor.u64()?;
                let output_len = cursor.u32()? as usize;
                if output_len > MAX_OUTPUT_LEN {
                    return Err(ProtocolError::OversizedOutput { len: output_len });
                }
                Request::Finalize {
                    id,
                    session,
                    output_len,
                }
            }
            KIND_SQUEEZE => {
                let session = cursor.u64()?;
                let len = cursor.u32()? as usize;
                if len > MAX_OUTPUT_LEN {
                    return Err(ProtocolError::OversizedOutput { len });
                }
                Request::Squeeze { id, session, len }
            }
            KIND_CLOSE => Request::Close {
                id,
                session: cursor.u64()?,
            },
            KIND_KEM_KEYGEN => {
                let set = KemParameterSet::from_id(cursor.u8()?)?;
                let deadline_us = cursor.u64()?;
                Request::KemKeygen {
                    id,
                    set,
                    deadline: decode_deadline(deadline_us),
                    d: cursor.array_32()?,
                    z: cursor.array_32()?,
                }
            }
            KIND_KEM_ENCAPS => {
                let set = KemParameterSet::from_id(cursor.u8()?)?;
                let deadline_us = cursor.u64()?;
                Request::KemEncaps {
                    id,
                    set,
                    deadline: decode_deadline(deadline_us),
                    m: cursor.array_32()?,
                    ek: cursor.bytes_u32_len()?,
                }
            }
            KIND_KEM_DECAPS => {
                let set = KemParameterSet::from_id(cursor.u8()?)?;
                let deadline_us = cursor.u64()?;
                Request::KemDecaps {
                    id,
                    set,
                    deadline: decode_deadline(deadline_us),
                    dk: cursor.bytes_u32_len()?,
                    ct: cursor.bytes_u32_len()?,
                }
            }
            KIND_DIGEST | KIND_ERROR | KIND_STATS_REPLY | KIND_OPENED | KIND_ABSORBED
            | KIND_FINALIZED | KIND_SQUEEZED | KIND_CLOSED | KIND_KEM_KEYS
            | KIND_KEM_CIPHERTEXT | KIND_KEM_SECRET => {
                return Err(ProtocolError::UnexpectedKind { got: kind })
            }
            got => return Err(ProtocolError::UnknownKind { got }),
        };
        cursor.finish()?;
        Ok(request)
    }
}

/// Checks that a TupleHash one-shot payload is exactly a sequence of
/// `u32`-length-prefixed entries.
fn validate_tuple_framing(payload: &[u8]) -> Result<(), ProtocolError> {
    let mut at = 0;
    while at < payload.len() {
        if payload.len() - at < 4 {
            return Err(ProtocolError::BadTuplePayload);
        }
        let len = u32::from_le_bytes(payload[at..at + 4].try_into().expect("len 4")) as usize;
        at += 4;
        if payload.len() - at < len {
            return Err(ProtocolError::BadTuplePayload);
        }
        at += len;
    }
    Ok(())
}

/// Iterates the entries of a valid TupleHash one-shot payload (framing
/// previously checked by [`Request::decode`]).
pub fn tuple_entries(payload: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut at = 0;
    std::iter::from_fn(move || {
        if at >= payload.len() {
            return None;
        }
        let len = u32::from_le_bytes(payload[at..at + 4].try_into().expect("len 4")) as usize;
        at += 4;
        let entry = &payload[at..at + len];
        at += len;
        Some(entry)
    })
}

/// Frames `entries` into a TupleHash one-shot payload.
pub fn encode_tuple_payload(entries: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    for entry in entries {
        out.extend_from_slice(&(entry.len() as u32).to_le_bytes());
        out.extend_from_slice(entry);
    }
    out
}

/// A server → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The squeezed output of a [`Request::Hash`].
    Digest {
        /// The request id this answers.
        id: u64,
        /// The output bytes.
        bytes: Vec<u8>,
    },
    /// A request that completed without output.
    Error {
        /// The request id this answers.
        id: u64,
        /// Why there is no output.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// The service metrics answering a [`Request::Stats`].
    Stats {
        /// The request id this answers.
        id: u64,
        /// The snapshot at the time the request was served. Boxed so
        /// the common digest/error variants stay small.
        snapshot: Box<MetricsSnapshot>,
    },
    /// A session is open and ready to absorb.
    Opened {
        /// The request id this answers.
        id: u64,
        /// The session id echoed back.
        session: u64,
    },
    /// An ABSORB chunk has been absorbed into the session state.
    Absorbed {
        /// The request id this answers.
        id: u64,
        /// The session id echoed back.
        session: u64,
    },
    /// The session is finalized and ready to squeeze.
    Finalized {
        /// The request id this answers.
        id: u64,
        /// The session id echoed back.
        session: u64,
    },
    /// The next output bytes of a finalized session.
    Squeezed {
        /// The request id this answers.
        id: u64,
        /// The session id echoed back.
        session: u64,
        /// The squeezed bytes, exactly the requested length.
        bytes: Vec<u8>,
    },
    /// The session is closed and its id free for reuse.
    Closed {
        /// The request id this answers.
        id: u64,
        /// The session id echoed back.
        session: u64,
    },
    /// The freshly derived key pair answering a [`Request::KemKeygen`].
    KemKeys {
        /// The request id this answers.
        id: u64,
        /// The encapsulation (public) key.
        ek: Vec<u8>,
        /// The decapsulation (secret) key.
        dk: Vec<u8>,
    },
    /// The ciphertext and shared secret answering a [`Request::KemEncaps`].
    KemCiphertext {
        /// The request id this answers.
        id: u64,
        /// The ciphertext to transmit to the key holder.
        ct: Vec<u8>,
        /// The 32-byte shared secret established by encapsulation.
        shared_secret: [u8; 32],
    },
    /// The shared secret answering a [`Request::KemDecaps`].
    ///
    /// Implicit rejection means a tampered ciphertext still yields a
    /// secret — just not the one the sender derived — so this response
    /// carries no validity flag.
    KemSecret {
        /// The request id this answers.
        id: u64,
        /// The 32-byte decapsulated shared secret.
        shared_secret: [u8; 32],
    },
}

impl Response {
    /// The request id the response answers.
    pub fn id(&self) -> u64 {
        match self {
            Response::Digest { id, .. }
            | Response::Error { id, .. }
            | Response::Stats { id, .. }
            | Response::Opened { id, .. }
            | Response::Absorbed { id, .. }
            | Response::Finalized { id, .. }
            | Response::Squeezed { id, .. }
            | Response::Closed { id, .. }
            | Response::KemKeys { id, .. }
            | Response::KemCiphertext { id, .. }
            | Response::KemSecret { id, .. } => *id,
        }
    }

    /// Encodes the frame body (without the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = self.frame();
        body.drain(..PREFIX_LEN);
        body
    }

    /// The frame's wire bytes, length prefix included: what the daemon
    /// queues for the socket.
    pub(crate) fn frame(&self) -> Vec<u8> {
        match self {
            Response::Digest { id, bytes } => framed(KIND_DIGEST, *id, 4 + bytes.len(), 0, |out| {
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }),
            Response::Error { id, code, detail } => {
                let detail = &detail.as_bytes()[..detail.len().min(usize::from(u16::MAX))];
                framed(KIND_ERROR, *id, 1 + 2 + detail.len(), 0, |out| {
                    out.push(*code as u8);
                    out.extend_from_slice(&(detail.len() as u16).to_le_bytes());
                    out.extend_from_slice(detail);
                })
            }
            Response::Stats { id, snapshot } => {
                framed(KIND_STATS_REPLY, *id, SNAPSHOT_LEN, 0, |out| {
                    encode_snapshot(snapshot, out);
                })
            }
            Response::Opened { id, session } => session_ack(KIND_OPENED, *id, *session),
            Response::Absorbed { id, session } => session_ack(KIND_ABSORBED, *id, *session),
            Response::Finalized { id, session } => session_ack(KIND_FINALIZED, *id, *session),
            Response::Squeezed { id, session, bytes } => {
                framed(KIND_SQUEEZED, *id, 8 + 4 + bytes.len(), 0, |out| {
                    out.extend_from_slice(&session.to_le_bytes());
                    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                    out.extend_from_slice(bytes);
                })
            }
            Response::Closed { id, session } => session_ack(KIND_CLOSED, *id, *session),
            Response::KemKeys { id, ek, dk } => {
                framed(KIND_KEM_KEYS, *id, 4 + ek.len() + 4 + dk.len(), 0, |out| {
                    out.extend_from_slice(&(ek.len() as u32).to_le_bytes());
                    out.extend_from_slice(ek);
                    out.extend_from_slice(&(dk.len() as u32).to_le_bytes());
                    out.extend_from_slice(dk);
                })
            }
            Response::KemCiphertext {
                id,
                ct,
                shared_secret,
            } => framed(KIND_KEM_CIPHERTEXT, *id, 4 + ct.len() + 32, 0, |out| {
                out.extend_from_slice(&(ct.len() as u32).to_le_bytes());
                out.extend_from_slice(ct);
                out.extend_from_slice(shared_secret);
            }),
            Response::KemSecret { id, shared_secret } => {
                framed(KIND_KEM_SECRET, *id, 32, 0, |out| {
                    out.extend_from_slice(shared_secret);
                })
            }
        }
    }

    /// Strictly decodes a frame body.
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`]; request kinds decode as
    /// [`ProtocolError::UnexpectedKind`].
    pub fn decode(body: &[u8]) -> Result<Self, ProtocolError> {
        let mut cursor = Cursor::new(body);
        let (kind, id) = cursor.header()?;
        let response = match kind {
            KIND_DIGEST => Response::Digest {
                id,
                bytes: cursor.bytes_u32_len()?,
            },
            KIND_ERROR => {
                let code = ErrorCode::from_byte(cursor.u8()?)?;
                let len = usize::from(cursor.u16()?);
                let detail = String::from_utf8(cursor.take(len)?.to_vec())
                    .map_err(|_| ProtocolError::BadUtf8)?;
                Response::Error { id, code, detail }
            }
            KIND_STATS_REPLY => Response::Stats {
                id,
                snapshot: Box::new(decode_snapshot(&mut cursor)?),
            },
            KIND_OPENED => Response::Opened {
                id,
                session: cursor.u64()?,
            },
            KIND_ABSORBED => Response::Absorbed {
                id,
                session: cursor.u64()?,
            },
            KIND_FINALIZED => Response::Finalized {
                id,
                session: cursor.u64()?,
            },
            KIND_SQUEEZED => {
                let session = cursor.u64()?;
                let bytes = cursor.bytes_u32_len()?;
                Response::Squeezed { id, session, bytes }
            }
            KIND_CLOSED => Response::Closed {
                id,
                session: cursor.u64()?,
            },
            KIND_KEM_KEYS => Response::KemKeys {
                id,
                ek: cursor.bytes_u32_len()?,
                dk: cursor.bytes_u32_len()?,
            },
            KIND_KEM_CIPHERTEXT => Response::KemCiphertext {
                id,
                ct: cursor.bytes_u32_len()?,
                shared_secret: cursor.array_32()?,
            },
            KIND_KEM_SECRET => Response::KemSecret {
                id,
                shared_secret: cursor.array_32()?,
            },
            KIND_HASH | KIND_STATS | KIND_OPEN | KIND_ABSORB | KIND_FINALIZE | KIND_SQUEEZE
            | KIND_CLOSE | KIND_KEM_KEYGEN | KIND_KEM_ENCAPS | KIND_KEM_DECAPS => {
                return Err(ProtocolError::UnexpectedKind { got: kind })
            }
            got => return Err(ProtocolError::UnknownKind { got }),
        };
        cursor.finish()?;
        Ok(response)
    }
}

/// Builds a frame's wire bytes: the length prefix, the header, then the
/// kind's fields as `fields` writes them (about `capacity` bytes). The
/// body runs `tail` bytes past the fields: HASH's payload or ABSORB's
/// chunk, which the client writes from the caller's buffer. Every
/// request head and every response is built here.
fn framed(
    kind: u8,
    id: u64,
    capacity: usize,
    tail: usize,
    fields: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::with_capacity(PREFIX_LEN + HEADER_LEN + capacity);
    out.extend_from_slice(&[0; PREFIX_LEN]);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&id.to_le_bytes());
    fields(&mut out);
    let body_len = out.len() - PREFIX_LEN + tail;
    out[..PREFIX_LEN].copy_from_slice(&prefix(body_len));
    out
}

/// The length prefix of a `body_len`-byte frame body: the one place its
/// format is written, for requests and responses alike.
fn prefix(body_len: usize) -> [u8; PREFIX_LEN] {
    (body_len as u32).to_le_bytes()
}

/// A HASH frame's head: everything before the payload, which travels as
/// the frame's tail.
pub(crate) fn hash_head(
    id: u64,
    algorithm: WireAlgorithm,
    output_len: usize,
    deadline: Option<Duration>,
    params: &AlgorithmParams,
    payload_len: usize,
) -> Vec<u8> {
    let capacity = 1 + 4 + 8 + params.encoded_len() + 4;
    framed(KIND_HASH, id, capacity, payload_len, |out| {
        out.push(algorithm.id());
        out.extend_from_slice(&(output_len as u32).to_le_bytes());
        out.extend_from_slice(&encode_deadline(deadline).to_le_bytes());
        params.encode_into(out);
        out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    })
}

/// An ABSORB frame's head: everything before the chunk, which travels as
/// the frame's tail.
pub(crate) fn absorb_head(id: u64, session: u64, chunk_len: usize) -> Vec<u8> {
    framed(KIND_ABSORB, id, 8 + 4, chunk_len, |out| {
        out.extend_from_slice(&session.to_le_bytes());
        out.extend_from_slice(&(chunk_len as u32).to_le_bytes());
    })
}

/// A session acknowledgement frame: just the session id.
fn session_ack(kind: u8, id: u64, session: u64) -> Vec<u8> {
    framed(kind, id, 8, 0, |out| {
        out.extend_from_slice(&session.to_le_bytes());
    })
}

/// Encodes an optional deadline as whole microseconds; zero means "none".
fn encode_deadline(deadline: Option<Duration>) -> u64 {
    deadline.map_or(0, |d| d.as_micros().min(u128::from(u64::MAX)) as u64)
}

/// Inverse of [`encode_deadline`]: zero decodes back to `None`.
fn decode_deadline(deadline_us: u64) -> Option<Duration> {
    (deadline_us > 0).then(|| Duration::from_micros(deadline_us))
}

/// Fixed encoded length of a [`MetricsSnapshot`]: the ledger's table
/// counters and four gauges as `u64`s, then three six-field
/// [`QuantileSummary`] blocks (344 bytes at protocol v5).
const SNAPSHOT_LEN: usize = (MetricsSnapshot::COUNTERS + 4) * 8 + 3 * 6 * 8;

fn encode_snapshot(snapshot: &MetricsSnapshot, out: &mut Vec<u8>) {
    let counters = snapshot.counters().map(|(_, value)| value);
    let gauges = [
        snapshot.queue_depth as u64,
        snapshot.mean_batch_fill.to_bits(),
        snapshot.alive_workers as u64,
        snapshot.batch_slots as u64,
    ];
    for value in counters.into_iter().chain(gauges) {
        out.extend_from_slice(&value.to_le_bytes());
    }
    for quantiles in [&snapshot.queue_ns, &snapshot.service_ns, &snapshot.e2e_ns] {
        for value in [
            quantiles.count,
            quantiles.mean.to_bits(),
            quantiles.p50,
            quantiles.p90,
            quantiles.p99,
            quantiles.max,
        ] {
            out.extend_from_slice(&value.to_le_bytes());
        }
    }
}

fn decode_snapshot(cursor: &mut Cursor<'_>) -> Result<MetricsSnapshot, ProtocolError> {
    let mut snapshot = MetricsSnapshot::default();
    for counter in snapshot.counters_mut() {
        *counter = cursor.u64()?;
    }
    snapshot.queue_depth = cursor.u64()? as usize;
    snapshot.mean_batch_fill = f64::from_bits(cursor.u64()?);
    snapshot.alive_workers = cursor.u64()? as usize;
    snapshot.batch_slots = cursor.u64()? as usize;
    for quantiles in [
        &mut snapshot.queue_ns,
        &mut snapshot.service_ns,
        &mut snapshot.e2e_ns,
    ] {
        *quantiles = QuantileSummary {
            count: cursor.u64()?,
            mean: f64::from_bits(cursor.u64()?),
            p50: cursor.u64()?,
            p90: cursor.u64()?,
            p99: cursor.u64()?,
            max: cursor.u64()?,
        };
    }
    Ok(snapshot)
}

/// A strict little-endian reader over one frame body.
struct Cursor<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(body: &'a [u8]) -> Self {
        Self { body, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let remaining = self.body.len() - self.at;
        if remaining < n {
            return Err(ProtocolError::Truncated {
                needed: n,
                got: remaining,
            });
        }
        let slice = &self.body[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn bytes_u32_len(&mut self) -> Result<Vec<u8>, ProtocolError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn array_32(&mut self) -> Result<[u8; 32], ProtocolError> {
        Ok(self.take(32)?.try_into().expect("len 32"))
    }

    /// Checks magic, version, and reads the kind and request id.
    fn header(&mut self) -> Result<(u8, u64), ProtocolError> {
        let magic = self.take(4)?;
        if magic != MAGIC {
            return Err(ProtocolError::BadMagic {
                got: magic.try_into().expect("len 4"),
            });
        }
        let version = self.u8()?;
        if version != VERSION {
            return Err(ProtocolError::BadVersion { got: version });
        }
        let kind = self.u8()?;
        let id = self.u64()?;
        Ok((kind, id))
    }

    /// Rejects trailing bytes after the last field.
    fn finish(self) -> Result<(), ProtocolError> {
        if self.at != self.body.len() {
            return Err(ProtocolError::TrailingBytes {
                extra: self.body.len() - self.at,
            });
        }
        Ok(())
    }
}

/// Writes one length-prefixed frame around an encoded body.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame(writer: &mut impl Write, body: &[u8]) -> io::Result<()> {
    send_frame(writer, &prefix(body.len()), body)
}

/// Writes one frame given as its head (length prefix first) and its
/// tail, in vectored writes until both are out: a payload goes from the
/// caller's buffer to the writer uncopied, and the head never leaves in
/// a write of its own.
///
/// # Errors
///
/// Propagates the underlying I/O error; a writer that accepts nothing
/// fails with [`io::ErrorKind::WriteZero`].
pub(crate) fn send_frame(writer: &mut impl Write, head: &[u8], tail: &[u8]) -> io::Result<()> {
    let mut parts = [IoSlice::new(head), IoSlice::new(tail)];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match writer.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one length-prefixed frame body.
///
/// Returns `Ok(None)` on a clean close (EOF before the first length
/// byte); EOF anywhere later is an [`io::ErrorKind::UnexpectedEof`]. A
/// declared length beyond `max_frame` is surfaced as
/// [`ProtocolError::OversizedFrame`] without reading or allocating the
/// body.
///
/// # Errors
///
/// I/O errors from the reader; the oversized-frame protocol error rides
/// in the `Ok` layer so the caller can distinguish it from transport
/// failure.
pub fn read_frame(
    reader: &mut impl Read,
    max_frame: usize,
) -> io::Result<Option<Result<Vec<u8>, ProtocolError>>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match reader.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max_frame {
        return Ok(Some(Err(ProtocolError::OversizedFrame {
            len,
            max: max_frame,
        })));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(Some(Ok(body)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let quantiles = |scale: u64| QuantileSummary {
            count: 10 * scale,
            mean: 1234.5 * scale as f64,
            p50: 1000 * scale,
            p90: 2000 * scale,
            p99: 3000 * scale,
            max: 4000 * scale,
        };
        MetricsSnapshot {
            submitted: 100,
            completed: 90,
            timeouts: 4,
            rejected: 3,
            throttled: 5,
            worker_failures: 2,
            retries: 1,
            batches: 25,
            native_served: 60,
            simulator_served: 30,
            mirrored: 12,
            mirror_mismatches: 1,
            stream_ops: 17,
            stream_absorbed: 4096,
            stream_squeezed: 96,
            kem_keygen: 6,
            kem_encaps: 5,
            kem_decaps: 9,
            kem_hash_jobs: 40,
            kem_dispatches: 11,
            kem_invalid: 2,
            queue_depth: 7,
            mean_batch_fill: 0.875,
            alive_workers: 2,
            batch_slots: 8,
            queue_ns: quantiles(1),
            service_ns: quantiles(2),
            e2e_ns: quantiles(3),
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Hash {
                id: 42,
                algorithm: WireAlgorithm::Sha3_256,
                output_len: 32,
                deadline: Some(Duration::from_micros(1500)),
                params: AlgorithmParams::none(),
                payload: b"the message".to_vec(),
            },
            Request::Hash {
                id: u64::MAX,
                algorithm: WireAlgorithm::Shake128,
                output_len: 133,
                deadline: None,
                params: AlgorithmParams::none(),
                payload: Vec::new(),
            },
            Request::Hash {
                id: 3,
                algorithm: WireAlgorithm::Kmac256,
                output_len: 64,
                deadline: None,
                params: AlgorithmParams::kmac(&b"a key"[..], &b"a context"[..]),
                payload: b"authenticated".to_vec(),
            },
            Request::Hash {
                id: 4,
                algorithm: WireAlgorithm::TupleHash128,
                output_len: 32,
                deadline: None,
                params: AlgorithmParams::customization(&b"tuple ctx"[..]),
                payload: encode_tuple_payload(&[b"one", b"", b"three"]),
            },
            Request::Hash {
                id: 5,
                algorithm: WireAlgorithm::ParallelHash256,
                output_len: 64,
                deadline: None,
                params: AlgorithmParams::parallel_hash(8, &b""[..]),
                payload: vec![0x5A; 100],
            },
            Request::Stats { id: 7 },
            Request::Open {
                id: 8,
                session: 0xBEEF,
                algorithm: WireAlgorithm::CShake256,
                params: AlgorithmParams::cshake(&b"Email Signature"[..], &b""[..]),
            },
            Request::Absorb {
                id: 9,
                session: 0xBEEF,
                chunk: vec![1, 2, 3],
            },
            Request::Finalize {
                id: 10,
                session: 0xBEEF,
                output_len: 0,
            },
            Request::Squeeze {
                id: 11,
                session: 0xBEEF,
                len: 64,
            },
            Request::Close {
                id: 12,
                session: 0xBEEF,
            },
            Request::KemKeygen {
                id: 13,
                set: KemParameterSet::MlKem768,
                deadline: Some(Duration::from_micros(2500)),
                d: [0x11; 32],
                z: [0x22; 32],
            },
            Request::KemEncaps {
                id: 14,
                set: KemParameterSet::MlKem512,
                deadline: None,
                m: [0x33; 32],
                ek: vec![0x44; 800],
            },
            Request::KemDecaps {
                id: 15,
                set: KemParameterSet::MlKem1024,
                deadline: Some(Duration::from_micros(9)),
                dk: vec![0x55; 3168],
                ct: vec![0x66; 1568],
            },
        ];
        for request in requests {
            let decoded = Request::decode(&request.encode()).expect("round trip");
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Digest {
                id: 9,
                bytes: vec![0xAB; 48],
            },
            Response::Error {
                id: 10,
                code: ErrorCode::Busy,
                detail: "queue full at depth 1024".into(),
            },
            Response::Error {
                id: 13,
                code: ErrorCode::SessionState,
                detail: "SQUEEZE before FINALIZE".into(),
            },
            Response::Stats {
                id: 11,
                snapshot: Box::new(sample_snapshot()),
            },
            Response::Opened { id: 1, session: 2 },
            Response::Absorbed { id: 3, session: 2 },
            Response::Finalized { id: 4, session: 2 },
            Response::Squeezed {
                id: 5,
                session: 2,
                bytes: vec![0xCD; 32],
            },
            Response::Closed { id: 6, session: 2 },
            Response::KemKeys {
                id: 13,
                ek: vec![0xEE; 1184],
                dk: vec![0xDD; 2400],
            },
            Response::KemCiphertext {
                id: 14,
                ct: vec![0xCC; 768],
                shared_secret: [0x77; 32],
            },
            Response::KemSecret {
                id: 15,
                shared_secret: [0x88; 32],
            },
            Response::Error {
                id: 16,
                code: ErrorCode::BadKey,
                detail: "encapsulation key must be 1184 bytes".into(),
            },
        ];
        for response in responses {
            let decoded = Response::decode(&response.encode()).expect("round trip");
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn kem_parameter_set_ids_are_stable_and_exhaustive() {
        for (index, set) in KemParameterSet::ALL.into_iter().enumerate() {
            assert_eq!(set.id() as usize, index + 1, "ids are 1-based and dense");
            assert_eq!(KemParameterSet::from_id(set.id()), Ok(set));
        }
        assert_eq!(KemParameterSet::MlKem512.params().ek_len(), 800);
        assert_eq!(KemParameterSet::MlKem768.params().ek_len(), 1184);
        assert_eq!(KemParameterSet::MlKem1024.params().ek_len(), 1568);
        assert_eq!(KemParameterSet::MlKem512.params().k, 2);
        assert_eq!(KemParameterSet::MlKem768.params().k, 3);
        assert_eq!(KemParameterSet::MlKem1024.params().k, 4);
        assert_eq!(KemParameterSet::MlKem768.name(), "ML-KEM-768");
        assert_eq!(
            KemParameterSet::from_id(0),
            Err(ProtocolError::UnknownParameterSet { got: 0 })
        );
        assert_eq!(
            KemParameterSet::from_id(4),
            Err(ProtocolError::UnknownParameterSet { got: 4 })
        );
        // An unknown set id is connection-fatal at decode time, before
        // any key material is even read.
        let mut frame = Request::KemKeygen {
            id: 1,
            set: KemParameterSet::MlKem512,
            deadline: None,
            d: [0; 32],
            z: [0; 32],
        }
        .encode();
        frame[HEADER_LEN] = 9;
        assert_eq!(
            Request::decode(&frame),
            Err(ProtocolError::UnknownParameterSet { got: 9 })
        );
    }

    #[test]
    fn algorithm_ids_are_stable_and_exhaustive() {
        for (index, algorithm) in WireAlgorithm::ALL.into_iter().enumerate() {
            assert_eq!(
                algorithm.id() as usize,
                index + 1,
                "ids are 1-based and dense"
            );
            assert_eq!(WireAlgorithm::from_id(algorithm.id()), Ok(algorithm));
        }
        assert_eq!(
            WireAlgorithm::from_id(0),
            Err(ProtocolError::UnknownAlgorithm { got: 0 })
        );
        assert_eq!(
            WireAlgorithm::from_id(16),
            Err(ProtocolError::UnknownAlgorithm { got: 16 })
        );
        for algorithm in WireAlgorithm::FIPS {
            assert!(algorithm.is_fips());
            assert!(!algorithm.is_tree());
        }
        assert!(WireAlgorithm::TreeHash256.is_tree());
        assert!(WireAlgorithm::ParallelHash128.is_tree());
        assert!(!WireAlgorithm::Kmac256.is_tree());
        assert_eq!(WireAlgorithm::CShake128.security_bits(), 128);
        assert_eq!(WireAlgorithm::Sha3_384.security_bits(), 384);
        assert_eq!(WireAlgorithm::TreeHash256.security_bits(), 256);
    }

    #[test]
    fn params_validation_enforces_per_algorithm_rules() {
        // FIPS 202: everything empty.
        assert!(AlgorithmParams::none()
            .validate(WireAlgorithm::Sha3_256)
            .is_ok());
        assert!(matches!(
            AlgorithmParams::customization(&b"ctx"[..]).validate(WireAlgorithm::Sha3_256),
            Err(ProtocolError::BadParams { .. })
        ));
        // Keys only for KMAC.
        assert!(AlgorithmParams::kmac(&b"k"[..], &b""[..])
            .validate(WireAlgorithm::Kmac128)
            .is_ok());
        assert!(matches!(
            AlgorithmParams::kmac(&b"k"[..], &b""[..]).validate(WireAlgorithm::CShake128),
            Err(ProtocolError::BadParams { .. })
        ));
        // Function names only for cSHAKE.
        assert!(matches!(
            AlgorithmParams::cshake(&b"N"[..], &b""[..]).validate(WireAlgorithm::TupleHash128),
            Err(ProtocolError::BadParams { .. })
        ));
        // ParallelHash needs a block size; others must not carry one.
        assert!(matches!(
            AlgorithmParams::customization(&b""[..]).validate(WireAlgorithm::ParallelHash128),
            Err(ProtocolError::BadParams { .. })
        ));
        assert!(AlgorithmParams::parallel_hash(8, &b""[..])
            .validate(WireAlgorithm::ParallelHash128)
            .is_ok());
        assert!(matches!(
            AlgorithmParams::parallel_hash(8, &b""[..]).validate(WireAlgorithm::Kmac128),
            Err(ProtocolError::BadParams { .. })
        ));
        // The KRV tree block size is fixed.
        assert!(AlgorithmParams::customization(&b""[..])
            .validate(WireAlgorithm::TreeHash256)
            .is_ok());
        assert!(AlgorithmParams::parallel_hash(4096, &b""[..])
            .validate(WireAlgorithm::TreeHash256)
            .is_ok());
        assert!(matches!(
            AlgorithmParams::parallel_hash(512, &b""[..]).validate(WireAlgorithm::TreeHash256),
            Err(ProtocolError::BadParams { .. })
        ));
        // Oversized strings are rejected.
        let oversized = AlgorithmParams::customization(vec![0u8; MAX_PARAM_LEN + 1]);
        assert!(matches!(
            oversized.validate(WireAlgorithm::CShake256),
            Err(ProtocolError::BadParams { .. })
        ));
    }

    #[test]
    fn tuple_payload_framing_round_trips_and_rejects_mismatches() {
        let entries: [&[u8]; 3] = [b"abc", b"", b"01234567"];
        let payload = encode_tuple_payload(&entries);
        assert!(validate_tuple_framing(&payload).is_ok());
        let decoded: Vec<&[u8]> = tuple_entries(&payload).collect();
        assert_eq!(decoded, entries);
        // A truncated or over-declared framing fails.
        assert_eq!(
            validate_tuple_framing(&payload[..payload.len() - 1]),
            Err(ProtocolError::BadTuplePayload)
        );
        assert_eq!(
            validate_tuple_framing(&[0xFF, 0xFF, 0xFF]),
            Err(ProtocolError::BadTuplePayload)
        );
        let over_declared = encode_tuple_payload(&[b"abc"])[..5].to_vec();
        assert_eq!(
            validate_tuple_framing(&over_declared),
            Err(ProtocolError::BadTuplePayload)
        );
    }

    #[test]
    fn strict_decode_rejects_each_malformation_with_its_typed_error() {
        let good = Request::Hash {
            id: 1,
            algorithm: WireAlgorithm::Sha3_256,
            output_len: 32,
            deadline: None,
            params: AlgorithmParams::none(),
            payload: b"abc".to_vec(),
        }
        .encode();
        assert!(Request::decode(&good).is_ok());

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            Request::decode(&bad_magic),
            Err(ProtocolError::BadMagic { got: *b"XRVH" })
        );

        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert_eq!(
            Request::decode(&bad_version),
            Err(ProtocolError::BadVersion { got: 9 })
        );

        let mut bad_kind = good.clone();
        bad_kind[5] = 0x7F;
        assert_eq!(
            Request::decode(&bad_kind),
            Err(ProtocolError::UnknownKind { got: 0x7F })
        );

        let response_kind = Response::Digest {
            id: 1,
            bytes: vec![0; 4],
        }
        .encode();
        assert_eq!(
            Request::decode(&response_kind),
            Err(ProtocolError::UnexpectedKind { got: 0x81 })
        );

        let truncated = &good[..good.len() - 1];
        assert!(matches!(
            Request::decode(truncated),
            Err(ProtocolError::Truncated { .. })
        ));

        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(
            Request::decode(&trailing),
            Err(ProtocolError::TrailingBytes { extra: 1 })
        );

        let wrong_output = Request::Hash {
            id: 1,
            algorithm: WireAlgorithm::Sha3_512,
            output_len: 32,
            deadline: None,
            params: AlgorithmParams::none(),
            payload: Vec::new(),
        }
        .encode();
        assert_eq!(
            Request::decode(&wrong_output),
            Err(ProtocolError::WrongOutputLen {
                algorithm: WireAlgorithm::Sha3_512,
                expected: 64,
                got: 32,
            })
        );

        let oversized_output = Request::Hash {
            id: 1,
            algorithm: WireAlgorithm::Shake256,
            output_len: MAX_OUTPUT_LEN + 1,
            deadline: None,
            params: AlgorithmParams::none(),
            payload: Vec::new(),
        }
        .encode();
        assert_eq!(
            Request::decode(&oversized_output),
            Err(ProtocolError::OversizedOutput {
                len: MAX_OUTPUT_LEN + 1
            })
        );

        // A params block the algorithm does not allow.
        let bad_params = Request::Hash {
            id: 1,
            algorithm: WireAlgorithm::Sha3_256,
            output_len: 32,
            deadline: None,
            params: AlgorithmParams::customization(&b"nope"[..]),
            payload: Vec::new(),
        }
        .encode();
        assert!(matches!(
            Request::decode(&bad_params),
            Err(ProtocolError::BadParams { .. })
        ));

        // An ABSORB chunk over the named protocol limit. The declared
        // length is checked before the bytes, exactly like the frame
        // limit, so an ABSORB head without its chunk is enough.
        let oversized_chunk = absorb_head(1, 7, MAX_CHUNK_LEN + 1);
        assert_eq!(
            Request::decode(&oversized_chunk[PREFIX_LEN..]),
            Err(ProtocolError::OversizedChunk {
                len: MAX_CHUNK_LEN + 1
            })
        );

        // A SQUEEZE over the output cap.
        let oversized_squeeze = Request::Squeeze {
            id: 1,
            session: 7,
            len: MAX_OUTPUT_LEN + 1,
        }
        .encode();
        assert_eq!(
            Request::decode(&oversized_squeeze),
            Err(ProtocolError::OversizedOutput {
                len: MAX_OUTPUT_LEN + 1
            })
        );

        // A malformed TupleHash one-shot payload.
        let bad_tuple = Request::Hash {
            id: 1,
            algorithm: WireAlgorithm::TupleHash256,
            output_len: 64,
            deadline: None,
            params: AlgorithmParams::none(),
            payload: vec![0xFF; 3],
        }
        .encode();
        assert_eq!(
            Request::decode(&bad_tuple),
            Err(ProtocolError::BadTuplePayload)
        );
    }

    #[test]
    fn max_chunk_frames_fit_the_shared_frame_limit() {
        // The named limits are consistent by construction: a maximal
        // ABSORB chunk's whole frame body stays within the frame limit
        // both sides read with.
        let frame = Request::Absorb {
            id: u64::MAX,
            session: u64::MAX,
            chunk: vec![0u8; MAX_CHUNK_LEN],
        }
        .encode();
        assert!(frame.len() <= DEFAULT_MAX_FRAME, "{}", frame.len());
        assert!(Request::decode(&frame).is_ok());
        // And the largest SQUEEZED response fits too.
        let response = Response::Squeezed {
            id: u64::MAX,
            session: u64::MAX,
            bytes: vec![0u8; MAX_OUTPUT_LEN],
        }
        .encode();
        assert!(response.len() <= DEFAULT_MAX_FRAME);
    }

    #[test]
    fn frame_io_round_trips_and_enforces_the_length_limit() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").expect("write");
        write_frame(&mut wire, b"").expect("write");
        let mut reader = wire.as_slice();
        assert_eq!(
            read_frame(&mut reader, 64).expect("read").expect("frame"),
            Ok(b"hello".to_vec())
        );
        assert_eq!(
            read_frame(&mut reader, 64).expect("read").expect("frame"),
            Ok(Vec::new())
        );
        assert!(read_frame(&mut reader, 64).expect("read").is_none(), "EOF");

        let mut oversized = Vec::new();
        write_frame(&mut oversized, &[0u8; 100]).expect("write");
        assert_eq!(
            read_frame(&mut oversized.as_slice(), 64)
                .expect("read")
                .expect("frame"),
            Err(ProtocolError::OversizedFrame { len: 100, max: 64 })
        );

        // EOF mid-prefix and mid-body are transport errors, not clean closes.
        let mut partial = wire[..2].to_vec();
        assert!(read_frame(&mut partial.as_slice(), 64).is_err());
        partial = wire[..7].to_vec();
        assert!(read_frame(&mut partial.as_slice(), 64).is_err());

        // A writer that takes a few bytes a call still gets the whole
        // frame, head and tail.
        let mut trickle = Trickle(Vec::new());
        write_frame(&mut trickle, &[0xA5; 8193]).expect("write");
        assert_eq!(
            read_frame(&mut trickle.0.as_slice(), 1 << 14)
                .expect("read")
                .expect("frame"),
            Ok(vec![0xA5; 8193])
        );
    }

    /// Takes at most seven bytes a call.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(7);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn snapshot_encoding_is_fixed_width_and_lossless() {
        let snapshot = sample_snapshot();
        let mut encoded = Vec::new();
        encode_snapshot(&snapshot, &mut encoded);
        assert_eq!(encoded.len(), SNAPSHOT_LEN);
        let mut cursor = Cursor::new(&encoded);
        let decoded = decode_snapshot(&mut cursor).expect("decode");
        cursor.finish().expect("nothing trailing");
        assert_eq!(decoded, snapshot);
    }

    /// The round trip above holds for any counter order the encoder and
    /// decoder share; this pins the order itself, and the field widths,
    /// to the v5 bytes.
    #[test]
    fn snapshot_encoding_keeps_the_v5_wire_layout() {
        let mut encoded = Vec::new();
        encode_snapshot(&sample_snapshot(), &mut encoded);
        assert_eq!(SNAPSHOT_LEN, 344);
        assert_eq!(encoded.len(), SNAPSHOT_LEN);
        let digest: String = krv_sha3::Sha3_256::digest(&encoded)
            .iter()
            .map(|byte| format!("{byte:02x}"))
            .collect();
        assert_eq!(
            digest,
            "e8de2377f9496a162a5c79f6ed493dc452ae32186d8e5f97e43e0417e43fa6d8"
        );
    }

    #[test]
    fn errors_and_codes_format_human_readably() {
        assert_eq!(ErrorCode::Busy.to_string(), "BUSY");
        assert_eq!(ErrorCode::from_byte(2), Ok(ErrorCode::Deadline));
        assert_eq!(ErrorCode::from_byte(5), Ok(ErrorCode::BadSession));
        assert_eq!(ErrorCode::from_byte(6), Ok(ErrorCode::SessionState));
        assert_eq!(ErrorCode::from_byte(7), Ok(ErrorCode::SessionLimit));
        assert_eq!(ErrorCode::from_byte(8), Ok(ErrorCode::BadKey));
        assert_eq!(ErrorCode::BadKey.to_string(), "BAD_KEY");
        assert_eq!(
            ErrorCode::from_byte(0),
            Err(ProtocolError::UnknownErrorCode { got: 0 })
        );
        assert_eq!(
            ErrorCode::from_byte(9),
            Err(ProtocolError::UnknownErrorCode { got: 9 })
        );
        let text = ProtocolError::OversizedFrame { len: 10, max: 5 }.to_string();
        assert!(text.contains("10") && text.contains("5"), "{text}");
        assert!(ProtocolError::BadUtf8.to_string().contains("UTF-8"));
        assert!(ProtocolError::OversizedChunk { len: 1 }
            .to_string()
            .contains("ABSORB"));
    }
}
