//! Per-layer probes, run after the timed phases of a traced run. Each
//! replays the workload's own inputs through one layer's public entry
//! points and reports that layer's counts and times:
//!
//! * `server` — the workload over loopback TCP to a fresh daemon, in an
//!   open loop at the workload's rate, plus the codec cost of its frames;
//! * `service` — the same open loop into an in-process `Service`, with the
//!   per-ticket `RequestTiming`s, then one operation at a time for the
//!   submit and wake-up costs;
//! * `sha3` — the inputs through `hash_batch`/`drive_stream`/`TreeMode`/
//!   `ml_kem_*` on the serving tier, permutation time split from driver
//!   time;
//! * `core`, `native` — the engine pool, a single engine and the native
//!   kernel on a fixed batch of states;
//! * `kyber` — ML-KEM operations on the native backend.

use crate::lane::{closed_loop, kem_set, open_loop, Feed, Lane, Sample, Target};
use crate::replay::{replay, Counted, Tier};
use crate::stats::{percentile, sorted};
use crate::workload::{HashAlg, Input, Workload, DIGEST_LEN, SQUEEZE_LEN};
use krv_core::{EnginePool, KernelKind, VectorKeccakEngine};
use krv_keccak::KeccakState;
use krv_kyber::{KemOp, KemResult};
use krv_native::NativeBackend;
use krv_server::protocol::MAX_CHUNK_LEN;
use krv_server::{AlgorithmParams, Client, Request, Response, Server, ServerConfig, WireAlgorithm};
use krv_service::{MetricsSnapshot, Service, TierKind};
use krv_sha3::PermutationBackend;
use krv_testkit::Rng;
use std::time::{Duration, Instant};

/// Salt separating the probes' arrival schedule from the main run's.
const PROBE_SALT: u64 = 0x9E0B_E5A1;

/// Measured numbers the probes cannot take themselves: they come from the
/// main run (wall-clock, generator and process diagnostics) or from
/// process start.
pub struct FromRun {
    pub calibrate_ms: f64,
    pub passes_per_op: f64,
    /// Closed-phase operations per wall second (untraced quarters).
    pub ops_per_s: f64,
    /// Open-phase latency percentiles from due time, in milliseconds.
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub beyond_p99: f64,
    pub late_ms_p99: f64,
    pub late_ms_max: f64,
    pub threads: f64,
    pub trace_overhead: f64,
    pub steal_share: f64,
}

/// Probe results by metric name, plus the waterfall check of the server
/// layer: how far `self + queue + dispatch + complete` lands from the
/// round trip, as a share of it.
pub struct Probed {
    pub metrics: Vec<(&'static str, f64)>,
    pub waterfall_gap: f64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn p(values: Vec<f64>, q: f64) -> f64 {
    percentile(&sorted(values), q).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A short closed loop that fills the program's lazy caches before a
/// probe measures it.
fn warm_up(
    lane: &Lane<'_>,
    feed: &mut Feed<'_>,
    workload: Workload,
    secs: f64,
    layer: &str,
) -> Result<(), String> {
    let warm = closed_loop(
        lane,
        feed,
        workload.closed_window(),
        Duration::from_secs_f64(secs / 4.0),
        false,
    );
    match warm.tally.wrong.first() {
        Some(detail) => Err(format!("{layer} probe: {detail}")),
        None => Ok(()),
    }
}

fn check(samples: &[Sample], wrong: &[String], layer: &str) -> Result<(), String> {
    match wrong.first() {
        Some(detail) => Err(format!("{layer} probe: {detail}")),
        None if samples.is_empty() => Err(format!("{layer} probe: no operations ran")),
        None => Ok(()),
    }
}

struct WireProbe {
    rtt_us: Vec<f64>,
    busy_share: f64,
    frames_per_op: f64,
    mismatches: u64,
}

fn wire_probe(
    workload: Workload,
    ring: &[Input],
    seed: u64,
    secs: f64,
) -> Result<WireProbe, String> {
    let config = ServerConfig {
        service: workload.service_config(),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let lane = Lane::new(Target::Wire(&client));
    let mut feed = Feed::new(ring);
    warm_up(&lane, &mut feed, workload, secs, "server")?;
    let frames_before = lane.frames();
    let open = open_loop(
        &lane,
        &mut feed,
        &mut workload.arrivals(seed ^ PROBE_SALT),
        Duration::from_secs_f64(secs),
        workload.cpu_stretch(),
        &mut || 0.0,
    );
    check(&open.samples, &open.tally.wrong, "server")?;
    let attempted = open.tally.attempted as f64;
    let busy: u64 = open
        .tally
        .failures
        .iter()
        .filter(|(kind, _)| kind == "BUSY")
        .map(|(_, n)| n)
        .sum();
    let frames_per_op = ratio((lane.frames() - frames_before) as f64, attempted);
    let rtt_us = open
        .samples
        .iter()
        .filter_map(|s| s.outcome.as_ref())
        .map(|o| us(o.elapsed))
        .collect();
    drop(client);
    let metrics = server.shutdown();
    Ok(WireProbe {
        rtt_us,
        busy_share: ratio(busy as f64, attempted),
        frames_per_op,
        mismatches: metrics.mirror_mismatches,
    })
}

struct ServiceProbe {
    op_us: Vec<f64>,
    queue_us: Vec<f64>,
    dispatch_us: Vec<f64>,
    fill: Vec<f64>,
    complete_us: Vec<f64>,
    submit_ns: Vec<f64>,
    metrics: MetricsSnapshot,
}

fn service_probe(
    workload: Workload,
    ring: &[Input],
    seed: u64,
    secs: f64,
) -> Result<ServiceProbe, String> {
    let service = Service::start(workload.service_config());
    let lane = Lane::new(Target::Service(&service));
    let mut feed = Feed::new(ring);
    warm_up(&lane, &mut feed, workload, secs, "service")?;
    let open = open_loop(
        &lane,
        &mut feed,
        &mut workload.arrivals(seed ^ PROBE_SALT),
        Duration::from_secs_f64(secs),
        workload.cpu_stretch(),
        &mut || 0.0,
    );
    check(&open.samples, &open.tally.wrong, "service")?;
    let outcomes: Vec<_> = open
        .samples
        .iter()
        .filter_map(|s| s.outcome.as_ref())
        .collect();
    let timings: Vec<_> = outcomes.iter().flat_map(|o| o.timings.iter()).collect();
    // One operation at a time: the wake-up after completion and the cost
    // of the submitting call, without queueing behind other operations.
    let single = closed_loop(
        &lane,
        &mut feed,
        1,
        Duration::from_secs_f64(secs / 4.0),
        true,
    );
    check(&single.samples, &single.tally.wrong, "service")?;
    let complete_us = single
        .samples
        .iter()
        .filter_map(|s| s.outcome.as_ref())
        .map(|o| us(o.woke.saturating_duration_since(o.done_at)))
        .collect();
    let submit_ns = single
        .samples
        .iter()
        .map(|s| s.start_call.as_secs_f64() * 1e9)
        .collect();
    let op_us = outcomes.iter().map(|o| us(o.elapsed)).collect();
    let queue_us = timings.iter().map(|t| us(t.queue)).collect();
    let dispatch_us = timings.iter().map(|t| us(t.service)).collect();
    let fill = timings
        .iter()
        .map(|t| ratio(t.batch_size as f64, t.batch_slots as f64))
        .collect();
    Ok(ServiceProbe {
        op_us,
        queue_us,
        dispatch_us,
        fill,
        complete_us,
        submit_ns,
        metrics: service.shutdown(),
    })
}

/// The request frames one operation sends and the responses it gets.
fn frames(input: &Input, id: u64) -> (Vec<Request>, Vec<Response>) {
    match input {
        Input::Hash {
            alg,
            message,
            expected,
        } => (
            vec![Request::Hash {
                id,
                algorithm: match alg {
                    HashAlg::Sha3_256 => WireAlgorithm::Sha3_256,
                    HashAlg::Shake128 => WireAlgorithm::Shake128,
                },
                output_len: DIGEST_LEN,
                deadline: None,
                params: AlgorithmParams::none(),
                payload: message.clone(),
            }],
            vec![Response::Digest {
                id,
                bytes: expected.clone(),
            }],
        ),
        Input::Kem {
            params,
            op,
            expected,
        } => {
            let set = kem_set(*params);
            let request = match op.clone() {
                KemOp::Keygen { d, z } => Request::KemKeygen {
                    id,
                    set,
                    deadline: None,
                    d,
                    z,
                },
                KemOp::Encaps { ek, m } => Request::KemEncaps {
                    id,
                    set,
                    deadline: None,
                    m,
                    ek,
                },
                KemOp::Decaps { dk, ct } => Request::KemDecaps {
                    id,
                    set,
                    deadline: None,
                    dk,
                    ct,
                },
            };
            let response = match expected.clone() {
                KemResult::Keygen { ek, dk } => Response::KemKeys { id, ek, dk },
                KemResult::Encaps { ct, shared_secret } => Response::KemCiphertext {
                    id,
                    ct,
                    shared_secret,
                },
                KemResult::Decaps { shared_secret } => Response::KemSecret { id, shared_secret },
            };
            (vec![request], vec![response])
        }
        Input::Stream {
            message,
            shake,
            tree,
        } => {
            let mut requests = Vec::new();
            let mut responses = Vec::new();
            for (session, algorithm, output, squeeze) in [
                (1, WireAlgorithm::Shake256, 0, shake),
                (2, WireAlgorithm::TreeHash256, DIGEST_LEN, tree),
            ] {
                requests.push(Request::Open {
                    id,
                    session,
                    algorithm,
                    params: AlgorithmParams::none(),
                });
                responses.push(Response::Opened { id, session });
                for chunk in message.chunks(MAX_CHUNK_LEN) {
                    requests.push(Request::Absorb {
                        id,
                        session,
                        chunk: chunk.to_vec(),
                    });
                    responses.push(Response::Absorbed { id, session });
                }
                requests.push(Request::Finalize {
                    id,
                    session,
                    output_len: output,
                });
                responses.push(Response::Finalized { id, session });
                requests.push(Request::Squeeze {
                    id,
                    session,
                    len: squeeze.len(),
                });
                responses.push(Response::Squeezed {
                    id,
                    session,
                    bytes: squeeze.clone(),
                });
                requests.push(Request::Close { id, session });
                responses.push(Response::Closed { id, session });
            }
            debug_assert_eq!(shake.len(), SQUEEZE_LEN);
            (requests, responses)
        }
    }
}

/// Mean nanoseconds per frame to decode the workload's request frames and
/// to encode its responses, repeated for at least `secs`.
fn codec_probe(ring: &[Input], secs: f64) -> Result<(f64, f64), String> {
    let count = if matches!(ring.first(), Some(Input::Stream { .. })) {
        2
    } else {
        256
    };
    let (requests, responses): (Vec<_>, Vec<_>) = ring
        .iter()
        .take(count)
        .enumerate()
        .map(|(id, input)| frames(input, id as u64))
        .unzip();
    let requests: Vec<Request> = requests.into_iter().flatten().collect();
    let responses: Vec<Response> = responses.into_iter().flatten().collect();
    let bodies: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
    for (body, request) in bodies.iter().zip(&requests) {
        if Request::decode(body).as_ref() != Ok(request) {
            return Err("codec probe: a request frame does not round-trip".to_string());
        }
    }
    let timed = |per_pass: &mut dyn FnMut()| {
        let started = Instant::now();
        let mut passes = 0u64;
        while passes == 0 || started.elapsed().as_secs_f64() < secs {
            per_pass();
            passes += 1;
        }
        started.elapsed().as_secs_f64() * 1e9 / passes as f64
    };
    let decode = timed(&mut || {
        for body in &bodies {
            std::hint::black_box(Request::decode(std::hint::black_box(body)).ok());
        }
    }) / bodies.len() as f64;
    let encode = timed(&mut || {
        for response in &responses {
            std::hint::black_box(std::hint::black_box(response).encode());
        }
    }) / responses.len() as f64;
    Ok((decode, encode))
}

/// Seeded states for the permutation-rate probes.
fn states(count: usize) -> Vec<KeccakState> {
    let mut rng = Rng::new(0x0057_47E5);
    (0..count)
        .map(|_| {
            let mut lanes = [0u64; 25];
            lanes.iter_mut().for_each(|lane| *lane = rng.next_u64());
            KeccakState::from_lanes(lanes)
        })
        .collect()
}

/// States permuted per second by `backend` on a 64-state batch.
fn perm_rate(backend: &mut impl PermutationBackend, secs: f64) -> f64 {
    let mut batch = states(64);
    backend.permute_all(&mut batch);
    let started = Instant::now();
    let mut permuted = 0u64;
    while started.elapsed().as_secs_f64() < secs {
        backend.permute_all(&mut batch);
        permuted += batch.len() as u64;
    }
    permuted as f64 / started.elapsed().as_secs_f64()
}

/// Replays `inputs` repeatedly on `tier` for at least `secs`; returns the
/// counted backend, the total time inside the entry points and the
/// operations replayed.
fn timed_replay(
    inputs: &[Input],
    tier: Tier,
    batch: usize,
    secs: f64,
) -> Result<(Counted, Duration, u64), String> {
    let mut backend = Counted::new(tier);
    let mut entry = Duration::ZERO;
    let mut ops = 0u64;
    let started = Instant::now();
    while ops == 0 || started.elapsed().as_secs_f64() < secs {
        let run = replay(inputs, &mut backend, batch);
        if let Some(detail) = run.wrong.first() {
            return Err(format!("sha3 probe: {detail}"));
        }
        entry += run.entry;
        ops += run.ops;
    }
    Ok((backend, entry, ops))
}

/// Runs every probe and assembles the per-layer metrics.
pub fn run(
    workload: Workload,
    ring: &[Input],
    seed: u64,
    secs: f64,
    from_run: &FromRun,
) -> Result<Probed, String> {
    // Long enough for a few dozen arrivals even at the slowest open rate.
    let open_secs = secs.max(8.0 / workload.open_rate());
    let wire = wire_probe(workload, ring, seed, open_secs)?;
    let service = service_probe(workload, ring, seed, open_secs)?;
    let (decode_ns, encode_ns) = codec_probe(ring, secs / 10.0)?;
    let config = workload.service_config();
    let m = &service.metrics;
    if wire.mismatches + m.mirror_mismatches != 0 {
        return Err("service probe: the mirror oracle saw a mismatch".to_string());
    }

    let serving_tier = || match config.tier.primary {
        TierKind::Native => Tier::Native(NativeBackend::new()),
        TierKind::Simulator => Tier::simulator(),
    };
    let sha3_inputs = &ring[..workload.replay_len().min(256).min(ring.len())];
    let (sha3, sha3_entry, _) = timed_replay(
        sha3_inputs,
        serving_tier(),
        config.batch_slots(),
        secs / 10.0,
    )?;

    let kem_inputs: Vec<Input> = match workload {
        Workload::KemMixed => ring.to_vec(),
        _ => Workload::KemMixed.inputs_prefix(seed, 9),
    };
    let (_, kem_entry, kem_replayed) = timed_replay(
        &kem_inputs,
        Tier::Native(NativeBackend::new()),
        1,
        secs / 10.0,
    )?;

    let mut pool = EnginePool::new(KernelKind::E64Lmul8, 4, 2);
    let mut engine = VectorKeccakEngine::new(KernelKind::E64Lmul8, 4);
    let pool_rate = perm_rate(&mut pool, secs / 10.0);
    let engine_rate = perm_rate(&mut engine, secs / 10.0);
    let mut native = NativeBackend::new();
    let native_rate = perm_rate(&mut native, secs / 10.0);

    let rtt_p50 = p(wire.rtt_us.clone(), 0.5);
    let op_p50 = p(service.op_us.clone(), 0.5);
    let queue_p50 = p(service.queue_us.clone(), 0.5);
    let dispatch_p50 = p(service.dispatch_us.clone(), 0.5);
    let complete_p50 = p(service.complete_us.clone(), 0.5);
    let self_p50 = rtt_p50 - op_p50;
    let waterfall = self_p50 + queue_p50 + dispatch_p50 + complete_p50;
    let kem_ops = (m.kem_keygen + m.kem_encaps + m.kem_decaps) as f64;

    let metrics = vec![
        ("server.rtt_us_p50", rtt_p50),
        ("server.rtt_us_p99", p(wire.rtt_us, 0.99)),
        ("server.self_us_p50", self_p50),
        ("server.decode_ns", decode_ns),
        ("server.encode_ns", encode_ns),
        ("server.busy_share", wire.busy_share),
        ("server.frames_per_op", wire.frames_per_op),
        ("service.queue_us_p50", queue_p50),
        ("service.queue_us_p90", p(service.queue_us, 0.9)),
        ("service.dispatch_us_p50", dispatch_p50),
        ("service.complete_us_p50", complete_p50),
        ("service.submit_ns_p50", p(service.submit_ns, 0.5)),
        (
            "service.batch_fill",
            ratio(service.fill.iter().sum(), service.fill.len() as f64),
        ),
        (
            "service.reqs_per_batch",
            ratio(m.completed as f64, m.batches as f64),
        ),
        (
            "service.mirror_share",
            ratio(m.mirrored as f64, m.completed as f64),
        ),
        ("service.mirror_mismatches", m.mirror_mismatches as f64),
        (
            "service.kem_occupancy",
            ratio(m.kem_hash_jobs as f64, m.kem_dispatches as f64),
        ),
        ("service.refused", (m.rejected + m.throttled) as f64),
        ("service.retries", m.retries as f64),
        (
            "sha3.driver_self_share",
            ratio(
                sha3_entry.saturating_sub(sha3.permute).as_secs_f64(),
                sha3_entry.as_secs_f64(),
            ),
        ),
        (
            "sha3.states_per_call",
            ratio(sha3.states as f64, sha3.calls as f64),
        ),
        ("core.pool_perm_per_s", pool_rate),
        ("core.engine_perm_per_s", engine_rate),
        ("core.pool_speedup_wall", ratio(pool_rate, engine_rate)),
        ("core.nproc", crate::host::nproc() as f64),
        (
            "core.cycles_per_pass",
            crate::replay::CYCLES_PER_PASS as f64,
        ),
        ("core.passes_per_op", from_run.passes_per_op),
        ("native.perm_per_s", native_rate),
        ("native.lanes", native.width().lanes() as f64),
        ("native.calibrate_ms", from_run.calibrate_ms),
        ("kyber.op_us_native", us(kem_entry) / kem_replayed as f64),
        (
            "kyber.hash_jobs_per_op",
            ratio(m.kem_hash_jobs as f64, kem_ops),
        ),
        ("wall.ops_per_s", from_run.ops_per_s),
        ("wall.p50_ms", from_run.p50_ms),
        ("wall.p90_ms", from_run.p90_ms),
        ("wall.p99_ms", from_run.p99_ms),
        ("wall.beyond_p99", from_run.beyond_p99),
        ("gen.late_ms_p99", from_run.late_ms_p99),
        ("gen.late_ms_max", from_run.late_ms_max),
        ("proc.threads", from_run.threads),
        ("proc.trace_overhead", from_run.trace_overhead),
        ("proc.steal_share", from_run.steal_share),
    ];
    Ok(Probed {
        metrics,
        waterfall_gap: ratio(waterfall - rtt_p50, rtt_p50),
    })
}
