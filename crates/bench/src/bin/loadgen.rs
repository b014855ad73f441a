//! Load generator for the continuous-batching hashing service.
//!
//! Drives a [`krv_service::Service`] under three serving-bench
//! disciplines and records the results into `BENCH_service.json`
//! (repo root):
//!
//! * **closed loop** — a fixed number of in-flight bursts: submit a
//!   burst, wait for every ticket, repeat. Measures sustained service
//!   throughput, which is compared against hashing the identical
//!   workload through a *direct* pooled [`hash_batch`] call (no queue,
//!   no scheduler) — the batching overhead must stay small.
//! * **native loop** — the same closed-loop discipline with the service
//!   routed to the host-native tier and the simulator mirroring every
//!   `MIRROR_EVERY`-th dispatch group as an online differential oracle.
//!   Measures wall permutations per second against a *reference-direct*
//!   [`hash_batch`] run of the identical workload, and asserts the
//!   oracle sampled without a single mismatch.
//! * **tree loop** — bursts of KRV tree-hash messages, each one
//!   [`TreeRequest`] whose 4096-byte leaves the scheduler packs into
//!   shared rounds beside the root absorbing their digests.
//!   Measured against direct pooled [`TreeMode::digest`] calls of the
//!   identical workload, with every digest cross-checked between the
//!   two paths and anchored to the scalar reference.
//! * **KEM loop** — bursts of mixed ML-KEM KeyGen/Encaps/Decaps
//!   operations cycling through all three FIPS 203 parameter sets,
//!   submitted through the service's KEM lane so concurrent operations'
//!   SHAKE stages pack into shared dispatch groups. Measured in
//!   operations per second against the identical sequential workload
//!   through direct [`krv_kyber`] calls on the same pool, every served
//!   result cross-checked against its direct twin, and the
//!   cross-request **batch occupancy** (staged hash jobs per shared
//!   dispatch) reported — it must exceed 1, the proof that requests
//!   actually share dispatches. A Poisson open sub-phase then offers
//!   KEM arrivals with deadlines and counts the BUSY/DEADLINE shed.
//! * **open loop** — Poisson arrivals at a configured rate, submitted
//!   with a deadline, regardless of completions. Measures tail latency
//!   under load the way a real front-end would experience it.
//!
//! Every ticket records which tier served it
//! ([`krv_service::RequestTiming::tier`]), so the JSON reports per-tier
//! served counts for each phase.
//!
//! All phases run on a deterministic SplitMix64-seeded workload. The
//! latency figures come from the service's own
//! [`krv_testkit::LatencyHistogram`]-backed metrics.
//!
//! ```text
//! loadgen [--smoke] [--seed N] [--rounds N] [--burst N] [--seconds S] [--rate R]
//! ```
//!
//! `--smoke` shrinks the run to CI scale (a couple of seconds) and
//! turns the health expectations into hard assertions: zero timeouts,
//! zero rejections, zero worker failures at low load, and closed-loop
//! service throughput ≥ 85 % of the direct pooled path. It also
//! verifies the emitted JSON carries every schema field CI greps for.
//!
//! Run with: `cargo run --release -p krv-bench --bin loadgen`

use krv_bench::Health;
use krv_core::{EnginePool, KernelKind};
use krv_kyber::{ml_kem_decaps, ml_kem_encaps, ml_kem_keygen, KemOp, KemResult, KyberParams};
use krv_service::{
    HashRequest, KemRequest, MetricsSnapshot, QuantileSummary, Service, ServiceConfig,
    StreamOutput, Ticket, TierKind, TierPolicy, TreeRequest,
};
use krv_sha3::tree::{krv_tree_hash256, TreeMode, TreeState};
use krv_sha3::{hash_batch, BatchRequest, ReferenceBackend, SpongeParams};
use krv_testkit::Rng;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Closed-loop message length: a dozen rate blocks of SHAKE128, so the
/// simulated compute dominates scheduling overhead and the lockstep
/// batches pack the pool's state slots fully. Sized to the compiled
/// simulator tier — at ~3.5× the interpreted throughput, the old
/// 600-byte requests were cheap enough for per-request queue/ticket
/// costs to eat into the service-vs-direct ratio.
const CLOSED_MSG_LEN: usize = 2100;
const OUTPUT_LEN: usize = 32;
/// Deadline handed to every load-generated request. Generous at smoke
/// load: a miss signals a scheduler stall, not an overloaded host.
const DEADLINE: Duration = Duration::from_millis(500);
/// Default workload seed ("load" in hexspeak).
const DEFAULT_SEED: u64 = 0x10AD_0001;
/// XOR'd into the seed for the open-loop phase so the two phases draw
/// independent streams even under a user-supplied `--seed`.
const OPEN_LOOP_SALT: u64 = 0x04E4_A221;
/// XOR'd into the seed for the native-tier phase, for the same reason.
const NATIVE_SALT: u64 = 0x0A71_0E17;
/// XOR'd into the seed for the tree-hash phase, for the same reason.
const TREE_SALT: u64 = 0x07EE_0001;
/// XOR'd into the seed for the ML-KEM phase, for the same reason.
const KEM_SALT: u64 = 0x04B4_5D01;
/// Tree-loop message length: sixteen full 4096-byte KRV tree blocks, so
/// every message is a two-round tree request — its sixteen leaves
/// beside the root, then the root's fold.
const TREE_MSG_LEN: usize = 16 * 4096;
/// Native-loop message length: 25 full SHAKE128 rate blocks, so padding
/// adds a 26th and each request costs 26 permutations. Long messages
/// amortize the per-request queue/ticket overhead, putting the
/// measurement on the permutation kernel rather than the channel.
const NATIVE_MSG_LEN: usize = 4200;
/// SHAKE128 rate in bytes (FIPS 202): 1600/8 − 2·128/8.
const SHAKE128_RATE: usize = 168;
/// Mirror one dispatch group in this many through the simulator tier.
/// Group 0 is always sampled, so even the smoke run exercises the
/// oracle. The compiled simulator tier is ~3.5× cheaper than the
/// interpreted one, so this rate — twice the 1/32 the interpreted tier
/// afforded — keeps the oracle near the historical budget of roughly a
/// third of native wall time. Measured below as the
/// mirrored/unmirrored throughput ratio and asserted against
/// [`MIRROR_OVERHEAD_BOUND`].
const MIRROR_EVERY: u32 = TierPolicy::RECOMMENDED_MIRROR_EVERY;
/// Ceiling on the relative mirroring overhead
/// (`unmirrored_pps / mirrored_pps − 1`). The compiled simulator runs
/// at roughly 1/6 the native kernel's in-service speed, so 1/16
/// sampling predicts ~0.38; the bound leaves headroom for scheduler
/// jitter while still catching a regression to interpreted-tier
/// economics (which would land well above 1.0 at this rate).
const MIRROR_OVERHEAD_BOUND: f64 = 0.60;
/// Acceptance floor for the native tier through the full service stack:
/// it must beat the sequential-reference wall throughput recorded when
/// the tier was introduced (≈725 k perm/s on the growth host).
const NATIVE_PERM_FLOOR: f64 = 725_000.0;

struct Options {
    smoke: bool,
    seed: u64,
    rounds: usize,
    burst_batches: usize,
    open_seconds: f64,
    open_rate: Option<f64>,
}

impl Options {
    fn parse() -> Options {
        let mut options = Options {
            smoke: false,
            seed: DEFAULT_SEED,
            rounds: 40,
            burst_batches: 4,
            open_seconds: 3.0,
            open_rate: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut numeric = |name: &str| -> f64 {
                args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("{name} needs a number");
                    std::process::exit(2);
                })
            };
            match arg.as_str() {
                "--smoke" => {
                    options.smoke = true;
                    options.rounds = 16;
                    options.open_seconds = 1.0;
                }
                "--seed" => options.seed = numeric("--seed") as u64,
                "--rounds" => options.rounds = numeric("--rounds") as usize,
                "--burst" => options.burst_batches = numeric("--burst") as usize,
                "--seconds" => options.open_seconds = numeric("--seconds"),
                "--rate" => options.open_rate = Some(numeric("--rate")),
                "--help" | "-h" => {
                    println!(
                        "usage: loadgen [--smoke] [--seed N] [--rounds N] [--burst N] \
                         [--seconds S] [--rate R]"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument `{other}` (try --help)");
                    std::process::exit(2);
                }
            }
        }
        options
    }
}

fn main() -> std::io::Result<()> {
    let options = Options::parse();
    let config = ServiceConfig::default();

    println!(
        "service loadgen: {} workers × SN {} = {} slots, max_wait {:?}, seed {:#x}",
        config.workers,
        config.sn,
        config.batch_slots(),
        config.max_wait,
        options.seed
    );

    let closed = run_closed_loop(&options, config);
    println!(
        "closed loop: {} requests → {:.0} req/s service vs {:.0} req/s direct ({:.1} %), \
         fill {:.2}, e2e p99 {:.2} ms, tiers sim/native {}/{}",
        closed.requests,
        closed.service_rps,
        closed.direct_rps,
        100.0 * closed.ratio,
        closed.metrics.mean_batch_fill,
        closed.metrics.e2e_ns.p99 as f64 / 1e6,
        closed.simulator_served,
        closed.native_served,
    );

    let native = run_native_loop(&options, config);
    println!(
        "native loop: {} requests × {} perms → {:.0} perm/s service vs {:.0} perm/s \
         reference-direct ({:.2}x), mirrored {} ({} mismatches, {:.1} % overhead), \
         e2e p99 {:.2} ms",
        native.requests,
        native.perms_per_request,
        native.service_pps,
        native.reference_pps,
        native.speedup,
        native.metrics.mirrored,
        native.metrics.mirror_mismatches,
        100.0 * native.mirroring_overhead,
        native.metrics.e2e_ns.p99 as f64 / 1e6,
    );

    let tree = run_tree_loop(&options, config);
    println!(
        "tree loop: {} messages × {} leaves → {:.1} MiB/s service vs {:.1} MiB/s direct \
         ({:.1} %), {} digests cross-checked, e2e p99 {:.2} ms",
        tree.messages,
        tree.leaves_per_message,
        tree.service_mibps,
        tree.direct_mibps,
        100.0 * tree.ratio,
        tree.digest_checks,
        tree.metrics.e2e_ns.p99 as f64 / 1e6,
    );

    let kem = run_kem_loop(&options, config);
    println!(
        "kem loop: {} ops → {:.0} op/s service vs {:.0} op/s direct ({:.1} %), \
         occupancy {:.2} hash jobs/dispatch, {} results cross-checked, e2e p99 {:.2} ms",
        kem.operations,
        kem.service_ops,
        kem.direct_ops,
        100.0 * kem.ratio,
        kem.occupancy,
        kem.result_checks,
        kem.metrics.e2e_ns.p99 as f64 / 1e6,
    );
    println!(
        "kem open: offered {:.0} op/s for {:.1} s → {} completed, {} timeouts, {} rejected",
        kem.open_offered_ops,
        options.open_seconds,
        kem.open_metrics.completed,
        kem.open_metrics.timeouts,
        kem.open_metrics.rejected,
    );

    let open_rate = options
        .open_rate
        .unwrap_or_else(|| (closed.service_rps * 0.3).clamp(200.0, 2000.0));
    let open = run_open_loop(&options, config, open_rate);
    println!(
        "open loop: offered {:.0} req/s for {:.1} s → {} completed, {} timeouts, \
         {} rejected, e2e p99 {:.2} ms",
        open.offered_rps,
        options.open_seconds,
        open.metrics.completed,
        open.metrics.timeouts,
        open.metrics.rejected,
        open.metrics.e2e_ns.p99 as f64 / 1e6,
    );

    let json = render_json(&options, config, &closed, &native, &tree, &kem, &open);
    std::fs::write("BENCH_service.json", &json)?;
    println!("wrote BENCH_service.json");

    check_schema(&json);
    if options.smoke {
        health(&closed, &native, &tree, &kem, &open).exit_on_failure("smoke");
        println!("smoke: healthy (no timeouts, rejections, worker failures or mirror mismatches)");
    }
    Ok(())
}

#[derive(Default)]
struct ClosedLoopResult {
    requests: u64,
    service_rps: f64,
    direct_rps: f64,
    ratio: f64,
    native_served: u64,
    simulator_served: u64,
    metrics: MetricsSnapshot,
}

/// Waits for every ticket in `tickets`, panicking on failure, and
/// returns how many completions each tier served as
/// `(simulator, native)`.
fn drain_tickets(tickets: Vec<krv_service::Ticket>, context: &str) -> (u64, u64) {
    let mut simulator = 0u64;
    let mut native = 0u64;
    for ticket in tickets {
        let completion = ticket.wait();
        completion
            .result
            .unwrap_or_else(|err| panic!("{context} request failed: {err}"));
        match completion.timing.tier {
            TierKind::Simulator => simulator += 1,
            TierKind::Native => native += 1,
        }
    }
    (simulator, native)
}

/// Closed loop: `rounds` bursts of `burst_batches × batch_slots`
/// uniform-length messages, each burst fully awaited before the next is
/// submitted. The identical workload then runs as direct pooled
/// `hash_batch` calls for the overhead comparison.
fn run_closed_loop(options: &Options, config: ServiceConfig) -> ClosedLoopResult {
    let burst = options.burst_batches * config.batch_slots();
    let mut rng = Rng::new(options.seed);
    let bursts: Vec<Vec<Vec<u8>>> = (0..options.rounds)
        .map(|_| (0..burst).map(|_| rng.bytes(CLOSED_MSG_LEN)).collect())
        .collect();

    // Service path. A warm-up round first: the pool spawns lazily and
    // the kernel image decodes once, neither of which is steady-state.
    let service = Service::start(config);
    let warmup: Vec<_> = bursts[0]
        .iter()
        .map(|m| service.submit(request(m)).expect("warm-up admitted"))
        .collect();
    for ticket in warmup {
        ticket.wait().result.expect("warm-up completes");
    }
    let started = Instant::now();
    let mut native_served = 0u64;
    let mut simulator_served = 0u64;
    for messages in &bursts {
        let tickets: Vec<_> = messages
            .iter()
            .map(|m| service.submit(request(m)).expect("closed loop fits queue"))
            .collect();
        let (sim, native) = drain_tickets(tickets, "closed-loop");
        simulator_served += sim;
        native_served += native;
    }
    let service_elapsed = started.elapsed();
    let metrics = service.shutdown();
    let requests = (options.rounds * burst) as u64;
    let service_rps = requests as f64 / service_elapsed.as_secs_f64();

    // Direct path: the same bursts through pooled `hash_batch`, no
    // queue, no scheduler thread, no tickets.
    let mut pool = EnginePool::new(KernelKind::E64Lmul8, config.sn, config.workers);
    let warm: Vec<BatchRequest<'_>> = bursts[0]
        .iter()
        .map(|m| BatchRequest::new(m, OUTPUT_LEN))
        .collect();
    hash_batch(SpongeParams::shake(128), &mut pool, &warm);
    let started = Instant::now();
    for messages in &bursts {
        let direct: Vec<BatchRequest<'_>> = messages
            .iter()
            .map(|m| BatchRequest::new(m, OUTPUT_LEN))
            .collect();
        hash_batch(SpongeParams::shake(128), &mut pool, &direct);
    }
    let direct_elapsed = started.elapsed();
    let direct_rps = requests as f64 / direct_elapsed.as_secs_f64();

    ClosedLoopResult {
        requests,
        service_rps,
        direct_rps,
        ratio: service_rps / direct_rps,
        native_served,
        simulator_served,
        metrics,
    }
}

#[derive(Default)]
struct NativeLoopResult {
    requests: u64,
    perms_per_request: u64,
    service_pps: f64,
    unmirrored_pps: f64,
    mirroring_overhead: f64,
    reference_pps: f64,
    speedup: f64,
    native_served: u64,
    simulator_served: u64,
    metrics: MetricsSnapshot,
}

/// One service-side pass of the native-tier closed loop at the given
/// mirror sampling rate: wall permutations per second plus the per-tier
/// served counts and final metrics.
fn native_service_pass(
    bursts: &[Vec<Vec<u8>>],
    mut config: ServiceConfig,
    mirror_every: u32,
    perms_per_request: u64,
) -> (f64, u64, u64, MetricsSnapshot) {
    config.tier = TierPolicy::native().with_mirror_every(mirror_every);
    let service = Service::start(config);
    let warmup: Vec<_> = bursts[0]
        .iter()
        .map(|m| service.submit(request(m)).expect("warm-up admitted"))
        .collect();
    drain_tickets(warmup, "native warm-up");
    let started = Instant::now();
    let mut native_served = 0u64;
    let mut simulator_served = 0u64;
    for messages in bursts {
        let tickets: Vec<_> = messages
            .iter()
            .map(|m| service.submit(request(m)).expect("native loop fits queue"))
            .collect();
        let (sim, native) = drain_tickets(tickets, "native-loop");
        simulator_served += sim;
        native_served += native;
    }
    let elapsed = started.elapsed();
    let metrics = service.shutdown();
    let permutations = (bursts.len() as u64 * bursts[0].len() as u64 * perms_per_request) as f64;
    let pps = permutations / elapsed.as_secs_f64();
    (pps, native_served, simulator_served, metrics)
}

/// Native-tier closed loop: the same burst discipline as
/// [`run_closed_loop`], but the service routes production traffic to
/// the host-native lane-parallel backend and mirrors one dispatch
/// group in [`MIRROR_EVERY`] through the simulator as a differential
/// oracle. Throughput is counted in permutations per second (each
/// [`NATIVE_MSG_LEN`]-byte SHAKE128 request costs a fixed number of
/// Keccak-f\[1600\] passes) and compared against a sequential
/// reference-direct [`hash_batch`] run of the identical workload. The
/// identical workload also runs once with mirroring off, putting a
/// measured number on the oracle's overhead.
fn run_native_loop(options: &Options, config: ServiceConfig) -> NativeLoopResult {
    let burst = options.burst_batches * config.batch_slots();
    let mut rng = Rng::new(options.seed ^ NATIVE_SALT);
    let bursts: Vec<Vec<Vec<u8>>> = (0..options.rounds)
        .map(|_| (0..burst).map(|_| rng.bytes(NATIVE_MSG_LEN)).collect())
        .collect();
    // Full rate blocks + the padding block; the 32-byte output fits in
    // the first squeeze, so no extra permutation there.
    let perms_per_request = (NATIVE_MSG_LEN / SHAKE128_RATE + 1) as u64;

    let (service_pps, native_served, simulator_served, metrics) =
        native_service_pass(&bursts, config, MIRROR_EVERY, perms_per_request);
    // The same workload with the oracle off: the throughput delta is
    // the price of mirroring.
    let (unmirrored_pps, _, _, _) = native_service_pass(&bursts, config, 0, perms_per_request);
    let mirroring_overhead = (unmirrored_pps / service_pps - 1.0).max(0.0);

    // Reference-direct: the identical workload through the sequential
    // software reference, no queue, no scheduler, no mirroring.
    let requests = (options.rounds * burst) as u64;
    let permutations = (requests * perms_per_request) as f64;
    let mut reference = ReferenceBackend::new();
    let warm: Vec<BatchRequest<'_>> = bursts[0]
        .iter()
        .map(|m| BatchRequest::new(m, OUTPUT_LEN))
        .collect();
    hash_batch(SpongeParams::shake(128), &mut reference, &warm);
    let started = Instant::now();
    for messages in &bursts {
        let direct: Vec<BatchRequest<'_>> = messages
            .iter()
            .map(|m| BatchRequest::new(m, OUTPUT_LEN))
            .collect();
        hash_batch(SpongeParams::shake(128), &mut reference, &direct);
    }
    let reference_elapsed = started.elapsed();
    let reference_pps = permutations / reference_elapsed.as_secs_f64();

    NativeLoopResult {
        requests,
        perms_per_request,
        service_pps,
        unmirrored_pps,
        mirroring_overhead,
        reference_pps,
        speedup: service_pps / reference_pps,
        native_served,
        simulator_served,
        metrics,
    }
}

#[derive(Default)]
struct TreeLoopResult {
    messages: u64,
    leaves_per_message: u64,
    service_mibps: f64,
    direct_mibps: f64,
    ratio: f64,
    digest_checks: u64,
    simulator_served: u64,
    native_served: u64,
    metrics: MetricsSnapshot,
}

/// Waits for every tree ticket, returning the digests in submission
/// order plus the per-tier served counts.
fn drain_digests(tickets: Vec<Ticket<StreamOutput<TreeState>>>) -> (Vec<Vec<u8>>, u64, u64) {
    let mut digests = Vec::with_capacity(tickets.len());
    let mut simulator = 0u64;
    let mut native = 0u64;
    for ticket in tickets {
        let completion = ticket.wait();
        let digest = completion
            .result
            .unwrap_or_else(|err| panic!("tree request failed: {err}"))
            .output;
        match completion.timing.tier {
            TierKind::Simulator => simulator += 1,
            TierKind::Native => native += 1,
        }
        digests.push(digest);
    }
    (digests, simulator, native)
}

/// Tree-hash closed loop: bursts of [`TREE_MSG_LEN`]-byte messages,
/// each hashed under the KRV tree mode *through the service* as one
/// [`TreeRequest`], so the burst's leaves pack the batch's rounds
/// beside their roots. The identical workload runs as
/// direct pooled [`TreeMode::digest`] calls for the overhead
/// comparison, and every service digest is checked against its direct
/// twin (the first also against the scalar reference).
fn run_tree_loop(options: &Options, config: ServiceConfig) -> TreeLoopResult {
    let mode = TreeMode::krv_tree256();
    let burst = options.burst_batches;
    let mut rng = Rng::new(options.seed ^ TREE_SALT);
    let bursts: Vec<Vec<Vec<u8>>> = (0..options.rounds)
        .map(|_| (0..burst).map(|_| rng.bytes(TREE_MSG_LEN)).collect())
        .collect();
    let leaves_per_message = mode.leaf_count(TREE_MSG_LEN) as u64;

    // One burst through the service: one tree request per message, all
    // in flight at once.
    let tree_burst = |service: &Service, messages: &[Vec<u8>]| -> (Vec<Vec<u8>>, u64, u64) {
        let tickets = messages
            .iter()
            .map(|message| {
                let request = TreeRequest::digest(mode, b"", message.as_slice(), OUTPUT_LEN)
                    .with_deadline(DEADLINE);
                service.submit(request).expect("tree burst fits queue")
            })
            .collect();
        drain_digests(tickets)
    };

    let service = Service::start(config);
    tree_burst(&service, &bursts[0]); // warm-up
    let started = Instant::now();
    let mut service_digests = Vec::new();
    let mut simulator_served = 0u64;
    let mut native_served = 0u64;
    for messages in &bursts {
        let (digests, sim, native) = tree_burst(&service, messages);
        service_digests.extend(digests);
        simulator_served += sim;
        native_served += native;
    }
    let service_elapsed = started.elapsed();
    let metrics = service.shutdown();

    // Direct path: the same messages through pooled `TreeMode::digest`
    // — the leaves still ride `hash_batch`, but with no queue, tickets
    // or scheduler thread between them and the pool.
    let mut pool = EnginePool::new(KernelKind::E64Lmul8, config.sn, config.workers);
    mode.digest(&mut pool, &bursts[0][0], b"", OUTPUT_LEN); // warm-up
    let started = Instant::now();
    let direct_digests: Vec<Vec<u8>> = bursts
        .iter()
        .flat_map(|messages| messages.iter())
        .map(|message| mode.digest(&mut pool, message, b"", OUTPUT_LEN))
        .collect();
    let direct_elapsed = started.elapsed();

    // Correctness: the served trees, the pooled one-shot and the scalar
    // reference all agree.
    assert_eq!(service_digests.len(), direct_digests.len());
    let mut digest_checks = 0u64;
    for (index, (service_digest, direct_digest)) in
        service_digests.iter().zip(&direct_digests).enumerate()
    {
        assert_eq!(
            service_digest, direct_digest,
            "tree digest mismatch between service and direct paths at message {index}"
        );
        digest_checks += 1;
    }
    assert_eq!(
        service_digests[0],
        krv_tree_hash256(&bursts[0][0], OUTPUT_LEN, b""),
        "pooled tree digest disagrees with the scalar reference"
    );

    let messages = service_digests.len() as u64;
    let mib = (messages * TREE_MSG_LEN as u64) as f64 / (1u64 << 20) as f64;
    let service_mibps = mib / service_elapsed.as_secs_f64();
    let direct_mibps = mib / direct_elapsed.as_secs_f64();
    TreeLoopResult {
        messages,
        leaves_per_message,
        service_mibps,
        direct_mibps,
        ratio: service_mibps / direct_mibps,
        digest_checks,
        simulator_served,
        native_served,
        metrics,
    }
}

#[derive(Default)]
struct KemLoopResult {
    operations: u64,
    service_ops: f64,
    direct_ops: f64,
    ratio: f64,
    /// Staged hash jobs per shared `hash_batch` dispatch across the
    /// closed-loop run. Above 1 means concurrent operations' SHAKE
    /// stages actually merged into shared dispatch groups — the
    /// cross-request batching the KEM lane exists for.
    occupancy: f64,
    result_checks: u64,
    metrics: MetricsSnapshot,
    open_offered_ops: f64,
    open_submitted: u64,
    open_metrics: MetricsSnapshot,
}

/// Valid key material for one parameter set, generated once directly so
/// the load's encaps/decaps operations have real inputs.
struct KemFixture {
    ek: Vec<u8>,
    dk: Vec<u8>,
    ct: Vec<u8>,
}

/// A 32-byte seed drawn from the workload stream.
fn seed32(rng: &mut Rng) -> [u8; 32] {
    rng.bytes(32).try_into().expect("32 bytes requested")
}

/// One deterministic KEM operation for slot `index` of a burst: the
/// parameter sets and the three operation kinds interleave so every
/// burst mixes all nine (set × kind) combinations in the scheduler's
/// shared KEM rounds.
fn planned_kem_op(index: usize, rng: &mut Rng, fixtures: &[KemFixture]) -> KemRequest {
    let set = index % KyberParams::ALL.len();
    let params = KyberParams::ALL[set];
    let request = match (index / KyberParams::ALL.len()) % 3 {
        0 => KemRequest::keygen(params, seed32(rng), seed32(rng)),
        1 => KemRequest::encaps(params, fixtures[set].ek.clone(), seed32(rng)),
        _ => KemRequest::decaps(params, fixtures[set].dk.clone(), fixtures[set].ct.clone()),
    };
    request.with_deadline(DEADLINE)
}

/// The same operation through the direct library path on `pool` — no
/// queue, no scheduler, no cross-request packing.
fn direct_kem(request: &KemRequest, pool: &mut EnginePool) -> KemResult {
    match &request.op {
        KemOp::Keygen { d, z } => {
            let (ek, dk) = ml_kem_keygen(request.params, d, z, &mut *pool);
            KemResult::Keygen { ek, dk }
        }
        KemOp::Encaps { ek, m } => {
            let (ct, shared_secret) =
                ml_kem_encaps(request.params, ek, m, &mut *pool).expect("fixture ek is valid");
            KemResult::Encaps { ct, shared_secret }
        }
        KemOp::Decaps { dk, ct } => {
            let shared_secret =
                ml_kem_decaps(request.params, dk, ct, &mut *pool).expect("fixture dk/ct are valid");
            KemResult::Decaps { shared_secret }
        }
    }
}

/// ML-KEM closed loop plus a Poisson open sub-phase.
///
/// Closed: `rounds` bursts of mixed KeyGen/Encaps/Decaps operations
/// over all three parameter sets, each burst fully awaited, measured in
/// operations per second against the identical sequential workload
/// through direct `ml_kem_*` calls on an identically-shaped pool. Every
/// served result must be byte-identical to its direct twin, and the
/// shutdown metrics yield the cross-request batch occupancy
/// (`kem_hash_jobs / kem_dispatches`).
///
/// Open: Poisson KEM arrivals for `open_seconds` at ~30 % of the
/// measured closed-loop rate, every operation carrying [`DEADLINE`];
/// tickets are dropped and the service's own counters record the
/// completed/DEADLINE/BUSY split.
fn run_kem_loop(options: &Options, config: ServiceConfig) -> KemLoopResult {
    let mut rng = Rng::new(options.seed ^ KEM_SALT);

    // Fixtures: one direct keygen + encaps per parameter set gives the
    // load's encaps ops a valid key and its decaps ops a valid
    // key/ciphertext pair (and warms the pool's lazy spawn).
    let mut pool = EnginePool::new(KernelKind::E64Lmul8, config.sn, config.workers);
    let fixtures: Vec<KemFixture> = KyberParams::ALL
        .iter()
        .map(|&params| {
            let (d, z, m) = (seed32(&mut rng), seed32(&mut rng), seed32(&mut rng));
            let (ek, dk) = ml_kem_keygen(params, &d, &z, &mut pool);
            let (ct, _) = ml_kem_encaps(params, &ek, &m, &mut pool).expect("fresh ek is valid");
            KemFixture { ek, dk, ct }
        })
        .collect();

    let burst = options.burst_batches * config.batch_slots();
    let bursts: Vec<Vec<KemRequest>> = (0..options.rounds)
        .map(|_| {
            (0..burst)
                .map(|index| planned_kem_op(index, &mut rng, &fixtures))
                .collect()
        })
        .collect();

    // Service path: whole bursts in flight at once, so the lockstep
    // stage loop has concurrent operations to pack.
    let service = Service::start(config);
    let warmup: Vec<_> = bursts[0]
        .iter()
        .map(|op| service.submit_kem(op.clone()).expect("warm-up admitted"))
        .collect();
    for ticket in warmup {
        ticket.wait().result.expect("warm-up completes");
    }
    let started = Instant::now();
    let mut service_results = Vec::with_capacity(options.rounds * burst);
    for ops in &bursts {
        let tickets: Vec<_> = ops
            .iter()
            .map(|op| {
                service
                    .submit_kem(op.clone())
                    .expect("kem burst fits queue")
            })
            .collect();
        for ticket in tickets {
            let completion = ticket.wait();
            service_results.push(
                completion
                    .result
                    .unwrap_or_else(|err| panic!("kem-loop operation failed: {err}")),
            );
        }
    }
    let service_elapsed = started.elapsed();
    let metrics = service.shutdown();
    let operations = service_results.len() as u64;
    let service_ops = operations as f64 / service_elapsed.as_secs_f64();

    // Direct path: the identical operations, sequential, through the
    // library on the same pool shape. Intra-operation batching still
    // applies (a keygen's k×k matrix expansion rides one `hash_batch`);
    // what the service adds on top is the *cross*-operation packing.
    for op in &bursts[0] {
        direct_kem(op, &mut pool); // warm-up
    }
    let started = Instant::now();
    let direct_results: Vec<KemResult> = bursts
        .iter()
        .flat_map(|ops| ops.iter())
        .map(|op| direct_kem(op, &mut pool))
        .collect();
    let direct_elapsed = started.elapsed();
    let direct_ops = operations as f64 / direct_elapsed.as_secs_f64();

    // Correctness: the queued, staged, cross-packed path must agree
    // with the direct library on every operation.
    assert_eq!(service_results.len(), direct_results.len());
    let mut result_checks = 0u64;
    for (index, (served, direct)) in service_results.iter().zip(&direct_results).enumerate() {
        assert_eq!(
            served, direct,
            "KEM result mismatch between service and direct paths at operation {index}"
        );
        result_checks += 1;
    }

    let occupancy = metrics.kem_hash_jobs as f64 / (metrics.kem_dispatches.max(1)) as f64;

    // Open sub-phase: Poisson KEM arrivals with deadlines; the service's
    // counters record what completed, what timed out (DEADLINE) and
    // what admission shed (BUSY).
    let open_rate = (service_ops * 0.3).clamp(10.0, 400.0);
    let service = Service::start(config);
    let mut rng = Rng::new(options.seed ^ KEM_SALT ^ OPEN_LOOP_SALT);
    let started = Instant::now();
    let horizon = Duration::from_secs_f64(options.open_seconds);
    let mut next_arrival = Duration::ZERO;
    let mut open_submitted = 0u64;
    let mut arrival = 0usize;
    while next_arrival < horizon {
        let now = started.elapsed();
        if now < next_arrival {
            std::thread::sleep(next_arrival - now);
        }
        let request = planned_kem_op(arrival, &mut rng, &fixtures);
        arrival += 1;
        // Open loop: a rejection is recorded by the service and the
        // arrival process keeps going regardless.
        let _ = service.submit_kem(request);
        open_submitted += 1;
        let uniform = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let gap = -(1.0 - uniform).ln() / open_rate;
        next_arrival += Duration::from_secs_f64(gap);
    }
    let open_metrics = service.shutdown();

    KemLoopResult {
        operations,
        service_ops,
        direct_ops,
        ratio: service_ops / direct_ops,
        occupancy,
        result_checks,
        metrics,
        open_offered_ops: open_submitted as f64 / options.open_seconds,
        open_submitted,
        open_metrics,
    }
}

#[derive(Default)]
struct OpenLoopResult {
    offered_rps: f64,
    submitted: u64,
    metrics: MetricsSnapshot,
}

/// Open loop: Poisson arrivals at `rate` for `open_seconds`, mixing
/// SHA3-256 and SHAKE128 requests of random length (both sponge
/// parameter groups cross the scheduler), every request carrying a
/// deadline. Tickets are dropped on the floor — the service's own
/// metrics are the measurement.
fn run_open_loop(options: &Options, config: ServiceConfig, rate: f64) -> OpenLoopResult {
    let service = Service::start(config);
    let mut rng = Rng::new(options.seed ^ OPEN_LOOP_SALT);
    let started = Instant::now();
    let horizon = Duration::from_secs_f64(options.open_seconds);
    let mut next_arrival = Duration::ZERO;
    let mut submitted = 0u64;
    while next_arrival < horizon {
        let now = started.elapsed();
        if now < next_arrival {
            std::thread::sleep(next_arrival - now);
        }
        let len = rng.below(400);
        let message = rng.bytes(len);
        let request = if rng.next_bool() {
            HashRequest::sha3_256(message)
        } else {
            HashRequest::shake128(message, OUTPUT_LEN)
        };
        // Open loop: a rejection is recorded by the service and the
        // arrival process keeps going regardless.
        let _ = service.submit(request.with_deadline(DEADLINE));
        submitted += 1;
        // Exponential inter-arrival times — a Poisson process.
        let uniform = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let gap = -(1.0 - uniform).ln() / rate;
        next_arrival += Duration::from_secs_f64(gap);
    }
    let metrics = service.shutdown();
    OpenLoopResult {
        offered_rps: submitted as f64 / options.open_seconds,
        submitted,
        metrics,
    }
}

fn request(message: &[u8]) -> HashRequest {
    HashRequest::shake128(message, OUTPUT_LEN).with_deadline(DEADLINE)
}

fn quantiles_json(label: &str, q: &QuantileSummary) -> String {
    format!(
        "\"{label}\": {{ \"count\": {}, \"mean_ns\": {:.0}, \"p50_ns\": {}, \
         \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {} }}",
        q.count, q.mean, q.p50, q.p90, q.p99, q.max
    )
}

fn render_json(
    options: &Options,
    config: ServiceConfig,
    closed: &ClosedLoopResult,
    native: &NativeLoopResult,
    tree: &TreeLoopResult,
    kem: &KemLoopResult,
    open: &OpenLoopResult,
) -> String {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"service\",");
    let _ = writeln!(json, "  \"seed\": {},", options.seed);
    let _ = writeln!(json, "  \"smoke\": {},", options.smoke);
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let _ = writeln!(json, "  \"nproc\": {nproc},");
    let _ = writeln!(
        json,
        "  \"config\": {{ \"kernel\": \"{}\", \"sn\": {}, \"workers\": {}, \
         \"batch_slots\": {}, \"queue_capacity\": {}, \"max_wait_us\": {} }},",
        KernelKind::E64Lmul8.label(),
        config.sn,
        config.workers,
        config.batch_slots(),
        config.queue_capacity,
        config.max_wait.as_micros()
    );
    let _ = writeln!(json, "  \"closed_loop\": {{");
    let _ = writeln!(json, "    \"requests\": {},", closed.requests);
    let _ = writeln!(json, "    \"message_len\": {CLOSED_MSG_LEN},");
    let _ = writeln!(
        json,
        "    \"service_requests_per_sec\": {:.1},",
        closed.service_rps
    );
    let _ = writeln!(
        json,
        "    \"direct_pooled_requests_per_sec\": {:.1},",
        closed.direct_rps
    );
    let _ = writeln!(json, "    \"service_vs_direct\": {:.3},", closed.ratio);
    let _ = writeln!(
        json,
        "    \"mean_batch_fill\": {:.3},",
        closed.metrics.mean_batch_fill
    );
    let _ = writeln!(json, "    \"timeouts\": {},", closed.metrics.timeouts);
    let _ = writeln!(json, "    \"rejected\": {},", closed.metrics.rejected);
    let _ = writeln!(json, "    \"native_served\": {},", closed.native_served);
    let _ = writeln!(
        json,
        "    \"simulator_served\": {},",
        closed.simulator_served
    );
    let _ = writeln!(
        json,
        "    {},",
        quantiles_json("queue_wait", &closed.metrics.queue_ns)
    );
    let _ = writeln!(
        json,
        "    {},",
        quantiles_json("service_time", &closed.metrics.service_ns)
    );
    let _ = writeln!(
        json,
        "    {}",
        quantiles_json("e2e_latency", &closed.metrics.e2e_ns)
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"native_loop\": {{");
    let _ = writeln!(json, "    \"requests\": {},", native.requests);
    let _ = writeln!(json, "    \"message_len\": {NATIVE_MSG_LEN},");
    let _ = writeln!(
        json,
        "    \"perms_per_request\": {},",
        native.perms_per_request
    );
    let _ = writeln!(json, "    \"mirror_every\": {MIRROR_EVERY},");
    let _ = writeln!(
        json,
        "    \"service_permutations_per_sec\": {:.1},",
        native.service_pps
    );
    let _ = writeln!(
        json,
        "    \"reference_direct_permutations_per_sec\": {:.1},",
        native.reference_pps
    );
    let _ = writeln!(
        json,
        "    \"speedup_vs_reference_direct\": {:.3},",
        native.speedup
    );
    let _ = writeln!(
        json,
        "    \"unmirrored_permutations_per_sec\": {:.1},",
        native.unmirrored_pps
    );
    let _ = writeln!(
        json,
        "    \"mirroring_overhead\": {:.3},",
        native.mirroring_overhead
    );
    let _ = writeln!(json, "    \"native_served\": {},", native.native_served);
    let _ = writeln!(
        json,
        "    \"simulator_served\": {},",
        native.simulator_served
    );
    let _ = writeln!(json, "    \"mirrored\": {},", native.metrics.mirrored);
    let _ = writeln!(
        json,
        "    \"mirror_mismatches\": {},",
        native.metrics.mirror_mismatches
    );
    let _ = writeln!(
        json,
        "    \"mean_batch_fill\": {:.3},",
        native.metrics.mean_batch_fill
    );
    let _ = writeln!(json, "    \"timeouts\": {},", native.metrics.timeouts);
    let _ = writeln!(json, "    \"rejected\": {},", native.metrics.rejected);
    let _ = writeln!(
        json,
        "    {}",
        quantiles_json("e2e_latency", &native.metrics.e2e_ns)
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"tree_loop\": {{");
    let _ = writeln!(json, "    \"messages\": {},", tree.messages);
    let _ = writeln!(json, "    \"message_len\": {TREE_MSG_LEN},");
    let _ = writeln!(
        json,
        "    \"leaves_per_message\": {},",
        tree.leaves_per_message
    );
    let _ = writeln!(
        json,
        "    \"service_mib_per_sec\": {:.2},",
        tree.service_mibps
    );
    let _ = writeln!(
        json,
        "    \"direct_mib_per_sec\": {:.2},",
        tree.direct_mibps
    );
    let _ = writeln!(json, "    \"service_vs_direct\": {:.3},", tree.ratio);
    let _ = writeln!(json, "    \"digest_checks\": {},", tree.digest_checks);
    let _ = writeln!(
        json,
        "    \"mean_batch_fill\": {:.3},",
        tree.metrics.mean_batch_fill
    );
    let _ = writeln!(json, "    \"timeouts\": {},", tree.metrics.timeouts);
    let _ = writeln!(json, "    \"rejected\": {},", tree.metrics.rejected);
    let _ = writeln!(json, "    \"native_served\": {},", tree.native_served);
    let _ = writeln!(json, "    \"simulator_served\": {},", tree.simulator_served);
    let _ = writeln!(
        json,
        "    {}",
        quantiles_json("e2e_latency", &tree.metrics.e2e_ns)
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"kem_loop\": {{");
    let _ = writeln!(json, "    \"operations\": {},", kem.operations);
    let _ = writeln!(json, "    \"service_ops_per_sec\": {:.1},", kem.service_ops);
    let _ = writeln!(
        json,
        "    \"direct_pooled_ops_per_sec\": {:.1},",
        kem.direct_ops
    );
    let _ = writeln!(json, "    \"service_vs_direct\": {:.3},", kem.ratio);
    let _ = writeln!(json, "    \"batch_occupancy\": {:.3},", kem.occupancy);
    let _ = writeln!(
        json,
        "    \"kem_hash_jobs\": {},",
        kem.metrics.kem_hash_jobs
    );
    let _ = writeln!(
        json,
        "    \"kem_dispatches\": {},",
        kem.metrics.kem_dispatches
    );
    let _ = writeln!(json, "    \"kem_keygen\": {},", kem.metrics.kem_keygen);
    let _ = writeln!(json, "    \"kem_encaps\": {},", kem.metrics.kem_encaps);
    let _ = writeln!(json, "    \"kem_decaps\": {},", kem.metrics.kem_decaps);
    let _ = writeln!(json, "    \"kem_invalid\": {},", kem.metrics.kem_invalid);
    let _ = writeln!(json, "    \"result_checks\": {},", kem.result_checks);
    let _ = writeln!(
        json,
        "    \"mean_batch_fill\": {:.3},",
        kem.metrics.mean_batch_fill
    );
    let _ = writeln!(json, "    \"timeouts\": {},", kem.metrics.timeouts);
    let _ = writeln!(json, "    \"rejected\": {},", kem.metrics.rejected);
    let _ = writeln!(
        json,
        "    {},",
        quantiles_json("e2e_latency", &kem.metrics.e2e_ns)
    );
    let _ = writeln!(json, "    \"kem_open\": {{");
    let _ = writeln!(
        json,
        "      \"offered_ops_per_sec\": {:.1},",
        kem.open_offered_ops
    );
    let _ = writeln!(json, "      \"seconds\": {:.1},", options.open_seconds);
    let _ = writeln!(json, "      \"deadline_ms\": {},", DEADLINE.as_millis());
    let _ = writeln!(json, "      \"submitted\": {},", kem.open_submitted);
    let _ = writeln!(json, "      \"completed\": {},", kem.open_metrics.completed);
    let _ = writeln!(json, "      \"timeouts\": {},", kem.open_metrics.timeouts);
    let _ = writeln!(json, "      \"rejected\": {},", kem.open_metrics.rejected);
    let _ = writeln!(
        json,
        "      \"worker_failures\": {},",
        kem.open_metrics.worker_failures
    );
    let _ = writeln!(
        json,
        "      \"kem_invalid\": {},",
        kem.open_metrics.kem_invalid
    );
    let _ = writeln!(
        json,
        "      {}",
        quantiles_json("e2e_latency", &kem.open_metrics.e2e_ns)
    );
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"open_loop\": {{");
    let _ = writeln!(
        json,
        "    \"offered_requests_per_sec\": {:.1},",
        open.offered_rps
    );
    let _ = writeln!(json, "    \"seconds\": {:.1},", options.open_seconds);
    let _ = writeln!(json, "    \"deadline_ms\": {},", DEADLINE.as_millis());
    let _ = writeln!(json, "    \"submitted\": {},", open.submitted);
    let _ = writeln!(json, "    \"completed\": {},", open.metrics.completed);
    let _ = writeln!(json, "    \"timeouts\": {},", open.metrics.timeouts);
    let _ = writeln!(json, "    \"rejected\": {},", open.metrics.rejected);
    let _ = writeln!(
        json,
        "    \"worker_failures\": {},",
        open.metrics.worker_failures
    );
    let _ = writeln!(
        json,
        "    \"native_served\": {},",
        open.metrics.native_served
    );
    let _ = writeln!(
        json,
        "    \"simulator_served\": {},",
        open.metrics.simulator_served
    );
    let _ = writeln!(
        json,
        "    \"mean_batch_fill\": {:.3},",
        open.metrics.mean_batch_fill
    );
    let _ = writeln!(
        json,
        "    {}",
        quantiles_json("e2e_latency", &open.metrics.e2e_ns)
    );
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    json
}

/// Every key CI's schema check greps for. Kept in one place so the
/// emitter and the check cannot drift apart.
const SCHEMA_KEYS: &[&str] = &[
    "\"benchmark\": \"service\"",
    "\"nproc\":",
    "\"config\":",
    "\"batch_slots\":",
    "\"closed_loop\":",
    "\"service_requests_per_sec\":",
    "\"direct_pooled_requests_per_sec\":",
    "\"service_vs_direct\":",
    "\"mean_batch_fill\":",
    "\"queue_wait\":",
    "\"service_time\":",
    "\"e2e_latency\":",
    "\"p99_ns\":",
    "\"native_loop\":",
    "\"service_permutations_per_sec\":",
    "\"reference_direct_permutations_per_sec\":",
    "\"speedup_vs_reference_direct\":",
    "\"native_served\":",
    "\"simulator_served\":",
    "\"mirrored\":",
    "\"mirror_mismatches\":",
    "\"mirroring_overhead\":",
    "\"tree_loop\":",
    "\"leaves_per_message\":",
    "\"service_mib_per_sec\":",
    "\"direct_mib_per_sec\":",
    "\"digest_checks\":",
    "\"kem_loop\":",
    "\"service_ops_per_sec\":",
    "\"direct_pooled_ops_per_sec\":",
    "\"batch_occupancy\":",
    "\"kem_hash_jobs\":",
    "\"kem_dispatches\":",
    "\"result_checks\":",
    "\"kem_open\":",
    "\"offered_ops_per_sec\":",
    "\"open_loop\":",
    "\"offered_requests_per_sec\":",
    "\"timeouts\":",
    "\"rejected\":",
    "\"worker_failures\":",
];

fn check_schema(json: &str) {
    for key in SCHEMA_KEYS {
        assert!(
            json.contains(key),
            "BENCH_service.json is missing schema key {key}"
        );
    }
    println!("schema: all {} required keys present", SCHEMA_KEYS.len());
}

fn health(
    closed: &ClosedLoopResult,
    native: &NativeLoopResult,
    tree: &TreeLoopResult,
    kem: &KemLoopResult,
    open: &OpenLoopResult,
) -> Health {
    let mut health = Health::new();
    health.check_eq(closed.metrics.timeouts, 0, "closed-loop deadline misses");
    health.check_eq(closed.metrics.rejected, 0, "closed-loop rejections");
    health.check_eq(closed.metrics.worker_failures, 0, "closed-loop failures");
    health.check_eq(
        closed.simulator_served,
        closed.requests,
        "closed-loop requests the default tier policy served from the simulator",
    );
    health.check_eq(open.metrics.timeouts, 0, "open-loop deadline misses");
    health.check_eq(open.metrics.rejected, 0, "open-loop rejections");
    health.check_eq(open.metrics.worker_failures, 0, "open-loop failures");
    health.check(closed.ratio >= 0.85, || {
        format!(
            "service sustained only {:.1} % of the direct pooled throughput",
            100.0 * closed.ratio
        )
    });
    health.check_eq(native.metrics.timeouts, 0, "native-loop deadline misses");
    health.check_eq(native.metrics.rejected, 0, "native-loop rejections");
    health.check_eq(
        native.native_served,
        native.requests,
        "native-loop requests the native tier policy served from the native backend",
    );
    health.check_eq(native.simulator_served, 0, "native-loop simulator leakage");
    health.check(native.metrics.mirrored > 0, || {
        "the differential oracle never sampled a dispatch group".to_string()
    });
    health.check_eq(
        native.metrics.mirror_mismatches,
        0,
        "simulator oracle disagreements with the native tier",
    );
    health.check(native.mirroring_overhead <= MIRROR_OVERHEAD_BOUND, || {
        format!(
            "mirroring 1/{MIRROR_EVERY} of dispatch groups cost {:.1} % of native wall time \
             (bound {:.0} %) — the simulator tier has gotten too expensive to sample at this rate",
            100.0 * native.mirroring_overhead,
            100.0 * MIRROR_OVERHEAD_BOUND
        )
    });
    health.check_eq(tree.metrics.timeouts, 0, "tree-loop deadline misses");
    health.check_eq(tree.metrics.rejected, 0, "tree-loop rejections");
    health.check_eq(tree.metrics.worker_failures, 0, "tree-loop failures");
    health.check_eq(tree.digest_checks, tree.messages, "tree digests checked");
    health.check_eq(
        tree.simulator_served,
        tree.messages,
        "tree requests served on the default simulator tier",
    );
    // The queue and the leaf→root round barrier cost something over the
    // fused direct call; the scheduler must still keep most of it.
    health.check(tree.ratio >= 0.40, || {
        format!(
            "tree loop sustained only {:.1} % of the direct pooled throughput",
            100.0 * tree.ratio
        )
    });
    health.check(native.service_pps >= NATIVE_PERM_FLOOR, || {
        format!(
            "native tier sustained only {:.0} perm/s through the service \
             (floor {NATIVE_PERM_FLOOR:.0})",
            native.service_pps
        )
    });
    health.check_eq(kem.metrics.timeouts, 0, "kem-loop deadline misses");
    health.check_eq(kem.metrics.rejected, 0, "kem-loop rejections");
    health.check_eq(kem.metrics.worker_failures, 0, "kem-loop failures");
    health.check_eq(kem.metrics.kem_invalid, 0, "kem-loop invalid inputs");
    health.check_eq(kem.result_checks, kem.operations, "KEM results checked");
    // The KEM lane's whole point: concurrent operations' SHAKE stages
    // must merge into shared dispatches, so each dispatch group carries
    // more than one staged hash job on average.
    health.check(kem.occupancy > 1.0, || {
        format!(
            "cross-request KEM batch occupancy was only {:.2} hash jobs per dispatch — \
             concurrent operations are not sharing dispatch groups",
            kem.occupancy
        )
    });
    // Admission, staging and ticketing ride on top of the same hash
    // work the direct path does; cross-request packing must pay for
    // them.
    health.check(kem.ratio >= 0.85, || {
        format!(
            "KEM lane sustained only {:.1} % of the direct library throughput",
            100.0 * kem.ratio
        )
    });
    health.check_eq(
        kem.open_metrics.worker_failures,
        0,
        "kem-open worker failures",
    );
    health.check_eq(
        kem.open_metrics.kem_invalid,
        0,
        "kem-open invalid inputs (fixtures must be valid)",
    );
    health
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_closed_loop_gate_does_not_hide_the_checks_after_it() {
        // Everything healthy but the ≥ 0.85 closed-loop gate, a mirror
        // mismatch and the KEM ratio.
        let closed = ClosedLoopResult {
            ratio: 0.5,
            ..ClosedLoopResult::default()
        };
        let mut native = NativeLoopResult {
            service_pps: NATIVE_PERM_FLOOR,
            ..NativeLoopResult::default()
        };
        native.metrics.mirrored = 10;
        native.metrics.mirror_mismatches = 1;
        let tree = TreeLoopResult {
            ratio: 1.0,
            ..TreeLoopResult::default()
        };
        let kem = KemLoopResult {
            ratio: 0.7,
            occupancy: 2.0,
            ..KemLoopResult::default()
        };
        let health = health(&closed, &native, &tree, &kem, &OpenLoopResult::default());
        assert_eq!(
            health.failures(),
            [
                "service sustained only 50.0 % of the direct pooled throughput",
                "simulator oracle disagreements with the native tier: 1 != 0",
                "KEM lane sustained only 70.0 % of the direct library throughput",
            ]
        );
    }
}
