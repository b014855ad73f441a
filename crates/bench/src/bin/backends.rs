//! Backend comparison: reference vs the simulator's stepper vs compiled
//! single-engine vs pooled vs the host-native lane-parallel kernel at
//! every compiled width.
//!
//! Hashes the same mixed-length SHAKE128 batch through the
//! drain-and-refill scheduler on each execution backend, checks the
//! outputs are bit-identical, and records permutations per second into
//! `BENCH_backends.json` (repo root) so future changes have a
//! performance trajectory to compare against.
//!
//! Two throughput figures are recorded per backend:
//!
//! * **wall** — host wall-clock permutations/sec of the simulation
//!   itself (depends on the machine). The pool runs its modelled
//!   engines on the calling thread, so `pooled_wall_speedup_vs_single`
//!   is the pool's overhead over one engine, ≈ 1 by construction; and
//! * **simulated** — permutations/sec of the modelled hardware at the
//!   paper's 100 MHz clock, computed from the deterministic critical
//!   path (the busiest engine's cycles). This figure is
//!   host-independent: a pool of `W` workers approaches `W ×` the
//!   single-engine rate by construction.
//!
//! The wall figures are additionally anchored to the seed revision's
//! interpreter (8,387 perm/s single-engine on the original stepping
//! loop) as `wall_speedup_vs_seed`, so the fast-path engine's win is
//! visible in the JSON itself, and `cycles_per_pass` pins the
//! deterministic simulated cost of one full hardware pass.
//!
//! ```text
//! backends [--messages N] [--check]
//! ```
//!
//! `--check` re-derives the simulated invariants (which are independent
//! of the message count and the host) and fails if they drift from the
//! committed `BENCH_backends.json` — the CI smoke guard that the wall
//! clock optimisations never move the modelled hardware numbers. It
//! additionally pins the compiled tier's contract: one E64/LMUL=8 pass
//! costs exactly 1,909 cycles, the compiled tier and the stepper agree
//! on outputs and critical path, and the compiled tier's device-resident
//! wall speedup over the stepper stays at or above 3×.
//!
//! Run with: `cargo run --release -p krv-bench --bin backends`

use krv_core::{EnginePool, KernelKind, VectorKeccakEngine};
use krv_keccak::KeccakState;
use krv_native::{LaneWidth, NativeBackend};
use krv_sha3::{hash_batch, BatchRequest, PermutationBackend, ReferenceBackend, SpongeParams};
use krv_testkit::{LatencyHistogram, Rng};
use std::fmt::Write as _;
use std::time::Instant;

const MESSAGES: usize = 1000;
const OUTPUT_LEN: usize = 32;
const SN: usize = 4;
/// Modelled engines of the pooled row.
const WORKERS: usize = 4;
const CLOCK_HZ: f64 = 100e6;

/// The deterministic cycles of one full E64/LMUL=8 hardware pass at
/// SN = 4 (prologue + 24 rounds + epilogue on the paper's timing
/// model). The compiled tier must preserve this exactly: the whole
/// point of the specialized transfer functions is wall speed with
/// bit-identical timing, so `--check` pins the constant itself, not
/// just agreement with the committed JSON.
const EXPECTED_CYCLES_PER_PASS: u64 = 1909;

/// `--check` floor for the compiled tier's wall speedup over the
/// stepper, measured device-resident (kernel passes only, no host
/// staging) so the ratio is robust to host load.
const COMPILED_SPEEDUP_FLOOR: f64 = 3.0;

/// Single-engine wall-clock permutations/sec of the seed revision's
/// per-instruction interpreter on the reference host, recorded before
/// any host-side fast path landed. The committed baseline for
/// `wall_speedup_vs_seed`.
const SEED_SINGLE_ENGINE_WALL: f64 = 8_387.0;

/// Counts the individual state permutations the schedule performs (the
/// logical work, identical for every backend).
struct CountingBackend {
    inner: ReferenceBackend,
    permutations: u64,
}

impl PermutationBackend for CountingBackend {
    fn permute_all(&mut self, states: &mut [KeccakState]) {
        self.permutations += states.len() as u64;
        self.inner.permute_all(states);
    }
}

/// Accumulates the deterministic critical-path cycles of an engine
/// backend across every dispatch of a batch.
struct CyclesBackend<B> {
    inner: B,
    critical_path: u64,
}

impl<B> CyclesBackend<B> {
    fn new(inner: B) -> Self {
        Self {
            inner,
            critical_path: 0,
        }
    }
}

/// The critical-path cycles a backend spent on its most recent
/// dispatch (a single `permute_all` call, possibly many passes).
trait DispatchCycles: PermutationBackend {
    /// Hardware passes executed so far (cumulative).
    fn passes(&self) -> u64;
    /// Critical-path cycles of the dispatch since `passes_before`.
    fn dispatch_critical_path(&self, passes_before: u64) -> u64;
}

impl DispatchCycles for VectorKeccakEngine {
    fn passes(&self) -> u64 {
        self.permutations()
    }

    fn dispatch_critical_path(&self, passes_before: u64) -> u64 {
        // A single engine serializes its passes, and per-pass cycles
        // are data-independent for a fixed kernel: the dispatch costs
        // passes × per-pass cycles back to back.
        let per_pass = self.last_metrics().map_or(0, |m| m.total_cycles);
        (self.permutations() - passes_before) * per_pass
    }
}

impl DispatchCycles for EnginePool {
    fn passes(&self) -> u64 {
        self.permutations()
    }

    fn dispatch_critical_path(&self, _passes_before: u64) -> u64 {
        // The pool's metrics already cover the whole dispatch: the
        // busiest worker's cycles are the critical path.
        self.last_metrics().map_or(0, |m| m.max_cycles)
    }
}

impl<B: DispatchCycles> PermutationBackend for CyclesBackend<B> {
    fn permute_all(&mut self, states: &mut [KeccakState]) {
        if states.is_empty() {
            return;
        }
        let before = self.inner.passes();
        self.inner.permute_all(states);
        self.critical_path += self.inner.dispatch_critical_path(before);
    }

    fn parallel_states(&self) -> usize {
        self.inner.parallel_states()
    }
}

struct Row {
    name: &'static str,
    detail: String,
    wall_perms_per_sec: f64,
    /// Per-run wall-time distribution of the whole batch (the same
    /// log-bucketed histogram the serving layer reports percentiles
    /// from).
    wall_hist: LatencyHistogram,
    simulated_perms_per_sec: Option<f64>,
}

/// Times `runs` executions of `body`, one histogram sample per run.
/// The median (p50) is the headline rate — the same robust choice the
/// previous median-of-runs stopwatch made — and the tail percentiles go
/// into the JSON alongside it.
fn measure(runs: usize, mut body: impl FnMut()) -> LatencyHistogram {
    let mut hist = LatencyHistogram::new();
    for _ in 0..runs {
        let start = Instant::now();
        body();
        hist.record_duration(start.elapsed());
    }
    hist
}

/// Permutations/sec at the distribution's median batch time.
fn median_rate(hist: &LatencyHistogram, permutations: u64) -> f64 {
    permutations as f64 * 1e9 / hist.percentile(0.5) as f64
}

/// The deterministic cost of one full hardware pass (stage + kernel +
/// read-back for SN states), independent of message count and host.
fn probe_cycles_per_pass() -> u64 {
    let mut probe = VectorKeccakEngine::new(KernelKind::E64Lmul8, SN);
    let mut states = vec![KeccakState::new(); SN];
    probe
        .permute_slice(&mut states)
        .expect("kernel pass on zero states");
    probe
        .last_metrics()
        .expect("metrics after a pass")
        .total_cycles
}

/// Device-resident wall seconds per hardware pass for one engine tier:
/// keeps the states on the simulated device and times back-to-back
/// kernel passes, so host staging and scheduler noise stay out of the
/// compiled-vs-stepper ratio. Best of five windows.
fn probe_pass_seconds(compiled: bool) -> f64 {
    const PASSES: u64 = 64;
    let mut engine = VectorKeccakEngine::with_compiled(KernelKind::E64Lmul8, SN, compiled);
    let states = vec![KeccakState::new(); SN];
    let mut session = engine.session();
    session.load(&states).expect("session load");
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        session.permute_times(PASSES).expect("kernel pass");
        best = best.min(start.elapsed().as_secs_f64() / PASSES as f64);
    }
    best
}

/// Extracts the numeric value following `"key":` in flat JSON text.
fn extract_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = text.find(&needle)? + needle.len();
    let rest = text[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() -> std::io::Result<()> {
    let mut messages = MESSAGES;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--messages" => {
                let value = args.next().and_then(|v| v.parse().ok());
                let Some(value) = value else {
                    eprintln!("--messages needs a positive integer");
                    std::process::exit(2);
                };
                messages = value;
            }
            "--check" => check = true,
            "--help" | "-h" => {
                println!("usage: backends [--messages N] [--check]");
                return Ok(());
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }

    let mut rng = Rng::new(0xBAC4_E2D5);
    let inputs: Vec<Vec<u8>> = (0..messages)
        .map(|_| {
            let len = rng.below(600);
            rng.bytes(len)
        })
        .collect();
    let requests: Vec<BatchRequest<'_>> = inputs
        .iter()
        .map(|m| BatchRequest::new(m, OUTPUT_LEN))
        .collect();
    let params = SpongeParams::shake(128);

    // Logical permutation count and the reference outputs (the oracle).
    let mut counting = CountingBackend {
        inner: ReferenceBackend::new(),
        permutations: 0,
    };
    let expected = hash_batch(params, &mut counting, &requests);
    let permutations = counting.permutations;
    let cycles_per_pass = probe_cycles_per_pass();

    if check {
        return run_check(params, &requests, &expected, permutations, cycles_per_pass);
    }

    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    println!("{messages} mixed-length SHAKE128 messages, {permutations} permutations per batch\n");

    let mut rows = Vec::new();

    let reference = measure(5, || {
        let out = hash_batch(params, ReferenceBackend::new(), &requests);
        assert_eq!(out, expected);
    });
    rows.push(Row {
        name: "reference",
        detail: "software Keccak-f[1600], sequential".into(),
        wall_perms_per_sec: median_rate(&reference, permutations),
        wall_hist: reference,
        simulated_perms_per_sec: None,
    });

    // The stepper — the engine with the compiled tier switched off, and
    // the denominator of `compiled_wall_speedup_vs_interpreted`. Its
    // simulated figure must equal the compiled rows': the tier changes
    // wall time only, never modelled cycles.
    let mut interp = CyclesBackend::new(VectorKeccakEngine::with_compiled(
        KernelKind::E64Lmul8,
        SN,
        false,
    ));
    let interpreted = measure(5, || {
        interp.critical_path = 0;
        let out = hash_batch(params, &mut interp, &requests);
        assert_eq!(out, expected);
    });
    let interp_wall = median_rate(&interpreted, permutations);
    let interp_sim = permutations as f64 * CLOCK_HZ / interp.critical_path as f64;
    rows.push(Row {
        name: "interpreted",
        detail: format!(
            "{}, SN = {SN}, stepper (reference)",
            KernelKind::E64Lmul8.label()
        ),
        wall_perms_per_sec: interp_wall,
        wall_hist: interpreted,
        simulated_perms_per_sec: Some(interp_sim),
    });

    let mut engine = CyclesBackend::new(VectorKeccakEngine::new(KernelKind::E64Lmul8, SN));
    let single = measure(10, || {
        engine.critical_path = 0;
        let out = hash_batch(params, &mut engine, &requests);
        assert_eq!(out, expected);
    });
    let single_sim = permutations as f64 * CLOCK_HZ / engine.critical_path as f64;
    rows.push(Row {
        name: "single-engine",
        detail: format!("{}, SN = {SN}, compiled tier", KernelKind::E64Lmul8.label()),
        wall_perms_per_sec: median_rate(&single, permutations),
        wall_hist: single,
        simulated_perms_per_sec: Some(single_sim),
    });

    let mut pool = CyclesBackend::new(EnginePool::new(KernelKind::E64Lmul8, SN, WORKERS));
    let pooled = measure(10, || {
        pool.critical_path = 0;
        let out = hash_batch(params, &mut pool, &requests);
        assert_eq!(out, expected);
    });
    let pooled_sim = permutations as f64 * CLOCK_HZ / pool.critical_path as f64;
    rows.push(Row {
        name: "pooled",
        detail: format!(
            "{}, {WORKERS} workers × SN = {SN}, compiled tier",
            KernelKind::E64Lmul8.label()
        ),
        wall_perms_per_sec: median_rate(&pooled, permutations),
        wall_hist: pooled,
        simulated_perms_per_sec: Some(pooled_sim),
    });

    // The host-native word-parallel kernel, one row per compiled lane
    // width. No simulated figure: this tier runs real host code, so its
    // only meaningful number is the wall clock.
    let mut native_best_wall = 0.0f64;
    for width in LaneWidth::ALL {
        let name = match width {
            LaneWidth::X1 => "native-x1",
            LaneWidth::X2 => "native-x2",
            LaneWidth::X4 => "native-x4",
            LaneWidth::X8 => "native-x8",
        };
        let mut backend = NativeBackend::with_width(width);
        let hist = measure(5, || {
            let out = hash_batch(params, &mut backend, &requests);
            assert_eq!(out, expected);
        });
        let wall = median_rate(&hist, permutations);
        native_best_wall = native_best_wall.max(wall);
        rows.push(Row {
            name,
            detail: format!("host word-parallel, {} states/call", width.lanes()),
            wall_perms_per_sec: wall,
            wall_hist: hist,
            simulated_perms_per_sec: None,
        });
    }

    let reference_wall = rows[0].wall_perms_per_sec;
    let single_wall = rows[2].wall_perms_per_sec;
    let pooled_wall = rows[3].wall_perms_per_sec;
    let wall_speedup_vs_seed = single_wall / SEED_SINGLE_ENGINE_WALL;
    let pooled_wall_speedup = pooled_wall / single_wall;
    let compiled_wall_speedup = single_wall / interp_wall;
    let native_wall_speedup_vs_reference = native_best_wall / reference_wall;

    println!(
        "{:<16} {:>14} {:>18} {:>12}",
        "backend", "wall perms/s", "simulated perms/s", "sim speedup"
    );
    for row in &rows {
        println!(
            "{:<16} {:>14.0} {:>18} {:>12}",
            row.name,
            row.wall_perms_per_sec,
            row.simulated_perms_per_sec
                .map_or("—".into(), |v| format!("{v:.0}")),
            row.simulated_perms_per_sec
                .map_or("—".into(), |v| format!("{:.2}x", v / single_sim)),
        );
    }

    // Hand-built JSON: the container has no serde, and the shape is flat.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"backends\",");
    let _ = writeln!(json, "  \"messages\": {messages},");
    let _ = writeln!(json, "  \"output_len\": {OUTPUT_LEN},");
    let _ = writeln!(json, "  \"permutations_per_batch\": {permutations},");
    let _ = writeln!(json, "  \"workers\": {WORKERS},");
    let _ = writeln!(json, "  \"nproc\": {nproc},");
    let _ = writeln!(json, "  \"sn\": {SN},");
    let _ = writeln!(json, "  \"simulated_clock_hz\": {CLOCK_HZ:.0},");
    let _ = writeln!(json, "  \"cycles_per_pass\": {cycles_per_pass},");
    let _ = writeln!(
        json,
        "  \"seed_single_engine_wall_permutations_per_sec\": {SEED_SINGLE_ENGINE_WALL:.0},"
    );
    let _ = writeln!(
        json,
        "  \"wall_speedup_vs_seed\": {wall_speedup_vs_seed:.2},"
    );
    let _ = writeln!(
        json,
        "  \"pooled_wall_speedup_vs_single\": {pooled_wall_speedup:.2},"
    );
    let _ = writeln!(
        json,
        "  \"compiled_wall_speedup_vs_interpreted\": {compiled_wall_speedup:.2},"
    );
    let _ = writeln!(
        json,
        "  \"native_wall_speedup_vs_reference\": {native_wall_speedup_vs_reference:.2},"
    );
    let _ = writeln!(json, "  \"backends\": [");
    for (index, row) in rows.iter().enumerate() {
        let comma = if index + 1 < rows.len() { "," } else { "" };
        let mut entry = format!(
            "    {{ \"name\": \"{}\", \"detail\": \"{}\", \"wall_permutations_per_sec\": {:.1}",
            row.name, row.detail, row.wall_perms_per_sec,
        );
        let _ = write!(
            entry,
            ", \"batch_wall_ns_p50\": {}, \"batch_wall_ns_p90\": {}, \"batch_wall_ns_max\": {}",
            row.wall_hist.percentile(0.50),
            row.wall_hist.percentile(0.90),
            row.wall_hist.max(),
        );
        if let Some(sim) = row.simulated_perms_per_sec {
            let _ = write!(
                entry,
                ", \"simulated_permutations_per_sec\": {:.1}, \"simulated_speedup_vs_single_engine\": {:.3}",
                sim,
                sim / single_sim,
            );
        }
        let _ = writeln!(json, "{entry} }}{comma}");
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_backends.json", &json)?;
    println!("\nwrote BENCH_backends.json");

    println!(
        "single-engine wall speedup vs seed interpreter ({SEED_SINGLE_ENGINE_WALL:.0} perm/s): {wall_speedup_vs_seed:.2}x"
    );
    println!(
        "compiled tier wall speedup vs stepper: {compiled_wall_speedup:.2}x (floor {COMPILED_SPEEDUP_FLOOR:.1}x)"
    );
    println!(
        "best native wall speedup vs sequential reference: {native_wall_speedup_vs_reference:.2}x"
    );
    let pooled_speedup = pooled_sim / single_sim;
    println!("pooled simulated speedup: {pooled_speedup:.2}x (critical path, host-independent)");
    Ok(())
}

/// `--check`: verify correctness on this message count and compare the
/// host-independent simulated invariants against the committed JSON.
fn run_check(
    params: SpongeParams,
    requests: &[BatchRequest<'_>],
    expected: &[Vec<u8>],
    permutations: u64,
    cycles_per_pass: u64,
) -> std::io::Result<()> {
    let mut engine = CyclesBackend::new(VectorKeccakEngine::new(KernelKind::E64Lmul8, SN));
    let out = hash_batch(params, &mut engine, requests);
    assert_eq!(out, expected, "single-engine outputs diverged");

    // The stepper must agree with the compiled tier on both outputs and
    // the deterministic critical path: the compiled tier is a wall-clock
    // optimisation with bit-identical simulated timing.
    let mut interp = CyclesBackend::new(VectorKeccakEngine::with_compiled(
        KernelKind::E64Lmul8,
        SN,
        false,
    ));
    let out = hash_batch(params, &mut interp, requests);
    assert_eq!(out, expected, "stepper outputs diverged");
    assert_eq!(
        interp.critical_path, engine.critical_path,
        "compiled tier changed the simulated critical path"
    );

    let mut pool = CyclesBackend::new(EnginePool::new(KernelKind::E64Lmul8, SN, 2));
    let out = hash_batch(params, &mut pool, requests);
    assert_eq!(out, expected, "pooled outputs diverged");

    for width in LaneWidth::ALL {
        let out = hash_batch(params, NativeBackend::with_width(width), requests);
        assert_eq!(out, expected, "native {width} outputs diverged");
    }

    let single_sim = permutations as f64 * CLOCK_HZ / engine.critical_path as f64;
    println!(
        "check: {permutations} permutations, cycles/pass {cycles_per_pass}, \
         simulated single-engine {single_sim:.0} perm/s"
    );
    assert_eq!(
        cycles_per_pass, EXPECTED_CYCLES_PER_PASS,
        "one full E64/LMUL=8 pass at SN = {SN} must cost exactly \
         {EXPECTED_CYCLES_PER_PASS} cycles"
    );

    // Live wall-clock floor, device-resident so the ratio cancels host
    // staging and survives a loaded machine.
    let interp_pass = probe_pass_seconds(false);
    let compiled_pass = probe_pass_seconds(true);
    let live_speedup = interp_pass / compiled_pass;
    println!(
        "check: device-resident pass time stepper {:.2}us, compiled {:.2}us \
         — speedup {live_speedup:.2}x (floor {COMPILED_SPEEDUP_FLOOR:.1}x)",
        interp_pass * 1e6,
        compiled_pass * 1e6,
    );
    assert!(
        live_speedup >= COMPILED_SPEEDUP_FLOOR,
        "compiled tier wall speedup {live_speedup:.2}x fell below the \
         {COMPILED_SPEEDUP_FLOOR:.1}x floor"
    );

    let committed = std::fs::read_to_string("BENCH_backends.json")?;
    let mut drifted = false;
    match extract_number(&committed, "cycles_per_pass") {
        Some(value) if value == cycles_per_pass as f64 => {
            println!("check: cycles_per_pass matches committed value ({cycles_per_pass})");
        }
        Some(value) => {
            eprintln!(
                "check: cycles_per_pass drifted — committed {value:.0}, measured {cycles_per_pass}"
            );
            drifted = true;
        }
        None => {
            eprintln!("check: committed BENCH_backends.json has no cycles_per_pass field");
            drifted = true;
        }
    }
    match extract_number(&committed, "sn") {
        Some(value) if value == SN as f64 => {}
        _ => {
            eprintln!("check: committed sn does not match SN = {SN}");
            drifted = true;
        }
    }
    match extract_number(&committed, "compiled_wall_speedup_vs_interpreted") {
        Some(value) if value >= COMPILED_SPEEDUP_FLOOR => {
            println!("check: committed compiled speedup {value:.2}x meets the floor");
        }
        Some(value) => {
            eprintln!(
                "check: committed compiled_wall_speedup_vs_interpreted {value:.2}x \
                 is below the {COMPILED_SPEEDUP_FLOOR:.1}x floor"
            );
            drifted = true;
        }
        None => {
            eprintln!(
                "check: committed BENCH_backends.json has no \
                 compiled_wall_speedup_vs_interpreted field"
            );
            drifted = true;
        }
    }
    if drifted {
        eprintln!("check: simulated invariants drifted from BENCH_backends.json");
        std::process::exit(1);
    }
    println!("check: simulated invariants match BENCH_backends.json");
    Ok(())
}
