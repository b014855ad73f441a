//! The remote hashing daemon: the network serving layer of the
//! reproduction.
//!
//! Everything below this crate is in-process: the simulated vector
//! engines ([`krv_core`]), the batch scheduler ([`krv_sha3`]) and the
//! continuous-batching service ([`krv_service`]) all require linking the
//! workspace. This crate turns that stack into a **daemon** — the shape
//! the paper's accelerator would take as a shared co-processor serving
//! host systems — with three pieces:
//!
//! * [`protocol`] — a versioned binary wire protocol: length-prefixed
//!   frames, magic/version header, per-request ids, one-byte algorithm
//!   ids covering all six FIPS 202 functions, the SP 800-185 derived
//!   functions (cSHAKE/KMAC/TupleHash/ParallelHash at both security
//!   levels) and the KRV tree hash — each with its per-algorithm
//!   parameter block (key, function name, customization, block size) —
//!   plus XOF output lengths, optional deadlines, **stateful streaming
//!   sessions** (`OPEN → ABSORB* → FINALIZE → SQUEEZE* → CLOSE` for
//!   chunked input and chunked XOF output), **ML-KEM key exchange**
//!   (protocol v5: `KEM_KEYGEN`/`KEM_ENCAPS`/`KEM_DECAPS` with typed
//!   [`KemParameterSet`] ids for all three FIPS 203 parameter sets,
//!   answered with framed keys, ciphertexts and shared secrets; a
//!   malformed key is a request-level `BAD_KEY` error, an unknown
//!   parameter-set id a connection-fatal violation), and strict
//!   decoding whose every failure is a typed [`ProtocolError`].
//! * [`Server`] — the daemon: an accept loop feeding a **fixed pool of
//!   I/O threads** that multiplex every connection over non-blocking
//!   sockets, each blocked in `poll(2)` until a socket is ready, a
//!   completion wakes it or a deadline passes (the `poll` module; the
//!   crate's one foreign call, which makes the daemon unix-only), in
//!   front of N independent [`krv_service::ShardedService`] shards.
//!   A completed request's callback writes its response to the socket
//!   itself.
//!   Requests route to shards by a stable hash of the connection token,
//!   per-client fair-share admission throttles floods, and `STATS`
//!   replies merge every shard's raw metrics. Service outcomes map onto
//!   the wire (`QueueFull`/`ClientThrottled` → `BUSY`, `TimedOut` →
//!   `DEADLINE`, `WorkerFailure` → `INTERNAL`); protocol violations
//!   close the offending connection and nothing else; shutdown stops
//!   accepting, drains every in-flight request, then closes.
//!   Per-connection **session tables** enforce the streaming state
//!   machine (out-of-order frames are connection-fatal typed errors,
//!   like framing violations), cap live sessions per connection, reap
//!   idle sessions, and carry every session through the service one
//!   operation at a time as its live state: a sponge for the flat
//!   algorithms, a tree's root and open leaf for ParallelHash and the
//!   KRV tree-hash, whose leaves the service packs into shared rounds.
//!   A session never holds the whole message, and a one-shot tree is
//!   one service request.
//! * [`Client`] — the matching blocking/pipelining client used by the
//!   tests, the `remote_digest` example and the `netbench` load
//!   harness, plus [`StreamingSession`] for incremental absorb/squeeze
//!   over a session.
//!
//! # Example
//!
//! ```
//! use krv_server::{Client, Server, ServerConfig, WireAlgorithm};
//! use krv_sha3::Sha3_256;
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let client = Client::connect(server.local_addr()).unwrap();
//! let digest = client.digest(WireAlgorithm::Sha3_256, b"abc").unwrap();
//! assert_eq!(digest, Sha3_256::digest(b"abc"));
//! drop(client);
//! let report = server.shutdown();
//! assert_eq!(report.completed, 1);
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("krv-server is unix-only: its I/O threads wait in poll(2)");

mod client;
mod conn;
mod plan;
mod poll;
pub mod protocol;
mod server;
mod session;

pub use client::{Client, ClientError, PendingReply, RemoteError, Reply, StreamingSession};
pub use protocol::{
    AlgorithmParams, ErrorCode, KemParameterSet, ProtocolError, Request, Response, WireAlgorithm,
};
pub use server::{Server, ServerConfig};
