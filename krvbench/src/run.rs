//! One workload run in its own process: set-up, warm-up, the closed and
//! open phases, the simulated-cycle replay, and (traced) the per-layer
//! probes; then the result line and the run record.

use crate::host;
use crate::json::{number, quote};
use crate::lane::{closed_loop, open_loop, Closed, Feed, Lane, Open, Tally, Target, Verdict};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::{self, FromRun};
use crate::replay::simulated_cycles;
use crate::speed;
use crate::stats::{median, percentile, sorted};
use crate::trace;
use crate::workload::{Input, Workload};
use krv_native::LaneWidth;
use krv_server::{Client, Server, ServerConfig};
use krv_service::Service;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Fresh processes timed for `setup_s`; the median is reported.
const SETUP_REPEATS: usize = 21;
/// Share of the measured time given to the closed phase; the open phase,
/// which `cpu_us_per_op` is measured over, has the rest.
const CLOSED_SHARE: f64 = 0.25;
/// Fewest open-phase samples a latency stretch holds: one second of
/// arrivals, or more seconds for the slow workloads, so that each
/// stretch's p90 has at least ten samples beyond it.
const STRETCH_SAMPLES: f64 = 100.0;

pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time: [`CLOSED_SHARE`] of it closed phase, the rest open
    /// phase.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
    /// Corrupts one expected output, so a correct program must fail the
    /// run (the check that output checking works).
    pub plant_fault: bool,
}

/// The timed phases' results.
struct Phases {
    warm: Tally,
    closed: Closed,
    /// Untraced runs: readings of the host's speed (reference
    /// permutations per CPU second) just before the open phase, and one at
    /// the end of each of its CPU stretches.
    speed_before: Vec<f64>,
    speed_between: Vec<f64>,
    /// Closed-phase operations completed per wall second, over the
    /// untraced parts of the phase.
    wall_rate: f64,
    /// Peak resident memory at the end of the closed phase, in MiB.
    closed_rss_mib: f64,
    threads: usize,
    open: Open,
    trace_overhead: f64,
    mirror_mismatches: u64,
    /// Share of the host's CPU time the hypervisor gave to other guests
    /// during the timed phases.
    steal_share: f64,
}

impl Phases {
    /// The open phase's CPU microseconds per operation, stretch by
    /// stretch, at the nominal reference speed: each stretch scaled by the
    /// mean of the readings at its two ends (the last one taken, where a
    /// stretch has none at its end). A core slowed by another guest takes
    /// more CPU time for the same work and reads a lower reference speed
    /// in the same proportion. Traced runs take no readings and are not
    /// scaled.
    fn scaled_cpu_us(&self) -> Vec<f64> {
        let nominal = speed::NOMINAL_PERM_PER_CPU_S;
        let ends: Vec<f64> = std::iter::once(median_or(&self.speed_before, nominal))
            .chain(self.speed_between.iter().copied())
            .collect();
        let end = |i: usize| ends[i.min(ends.len() - 1)];
        let mut scaled = Vec::new();
        for (i, us) in self.open.cpu_us_per_op.iter().enumerate() {
            scaled.push(us * (end(i) + end(i + 1)) / 2.0 / nominal);
        }
        scaled
    }
}

/// Runs the warm-up, the closed phase and the open phase through `lane`.
/// Traced, the closed phase alternates untraced and traced quarters so
/// the two throughputs compare under the same conditions.
fn drive(lane: &Lane<'_>, ring: &[Input], options: &RunOptions) -> Phases {
    let workload = options.workload;
    let window = workload.closed_window();
    let closed_time = Duration::from_secs_f64(options.seconds * CLOSED_SHARE);
    let open_time = Duration::from_secs_f64(options.seconds * (1.0 - CLOSED_SHARE));
    let mut feed = Feed::new(ring);
    let steal_before = host::steal_ticks();
    let warm_secs = (options.seconds / 10.0).clamp(0.2, 2.0);
    let warm = closed_loop(
        lane,
        &mut feed,
        window,
        Duration::from_secs_f64(warm_secs),
        false,
    );

    let (closed, wall_rate, trace_overhead) = if options.trace {
        let mut rates = [0.0f64; 2];
        let mut closed = Closed::default();
        for quarter in 0..4 {
            let traced = quarter % 2 == 1;
            trace::set_enabled(traced);
            let part = closed_loop(lane, &mut feed, window, closed_time / 4, false);
            trace::set_enabled(false);
            rates[usize::from(traced)] += part.rate() / 2.0;
            closed.merge(part);
        }
        (closed, rates[0], 1.0 - rates[1] / rates[0])
    } else {
        let closed = closed_loop(lane, &mut feed, window, closed_time, false);
        let rate = median_or(&closed.bucket_rates, closed.rate());
        (closed, rate, 0.0)
    };
    let closed_rss_mib = host::peak_rss_mib();
    let threads = host::thread_count();

    // Untraced, the host's speed is read before the open phase and at the
    // end of every CPU stretch in it, so that each stretch is scaled by
    // readings of its own minute.
    let speed_before = if options.trace {
        Vec::new()
    } else {
        speed::readings(host::nproc())
    };
    let mut speed_between = Vec::new();
    let mut read_between = || {
        if options.trace {
            return 0.0;
        }
        let (speed, cpu_s) = speed::reading(host::nproc());
        speed_between.push(speed);
        cpu_s
    };
    trace::set_enabled(options.trace);
    let open = open_loop(
        lane,
        &mut feed,
        &mut workload.arrivals(options.seed),
        open_time,
        workload.cpu_stretch(),
        &mut read_between,
    );
    trace::set_enabled(false);
    Phases {
        warm: warm.tally,
        closed,
        speed_before,
        speed_between,
        wall_rate,
        closed_rss_mib,
        threads,
        open,
        trace_overhead,
        mirror_mismatches: 0,
        steal_share: host::steal_share(steal_before, host::steal_ticks()),
    }
}

fn server_config(workload: Workload) -> ServerConfig {
    ServerConfig {
        service: workload.service_config(),
        ..ServerConfig::default()
    }
}

/// Starts the program with its shipped configuration, drives it, and
/// shuts it down.
fn drive_program(ring: &[Input], options: &RunOptions) -> Result<Phases, String> {
    let workload = options.workload;
    if workload.over_wire() {
        let server = Server::bind("127.0.0.1:0", server_config(workload))
            .map_err(|e| format!("bind: {e}"))?;
        let client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let phases = drive(&Lane::new(Target::Wire(&client)), ring, options);
        // The daemon drains a connection until its peer closes it.
        drop(client);
        let metrics = server.shutdown();
        Ok(Phases {
            mirror_mismatches: metrics.mirror_mismatches,
            ..phases
        })
    } else {
        let service = Service::start(workload.service_config());
        let phases = drive(&Lane::new(Target::Service(&service)), ring, options);
        let metrics = service.shutdown();
        Ok(Phases {
            mirror_mismatches: metrics.mirror_mismatches,
            ..phases
        })
    }
}

/// One set-up: the process CPU seconds and the wall seconds from starting
/// the program to its first verified answer.
pub struct SetupTime {
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// Times one set-up in this process. Run as a child of `run`, so that
/// lazy process-wide caches start cold each time.
pub fn setup_probe(workload: Workload, seed: u64) -> Result<SetupTime, String> {
    let input = workload.setup_input(seed);
    let cpu_before = host::cpu_seconds();
    let started = Instant::now();
    // Read on the first answer, before shutdown adds its own work.
    let answered = || SetupTime {
        cpu_s: host::cpu_seconds() - cpu_before,
        wall_s: started.elapsed().as_secs_f64(),
    };
    let (outcome, time) = if workload.over_wire() {
        let server = Server::bind("127.0.0.1:0", server_config(workload))
            .map_err(|e| format!("bind: {e}"))?;
        let client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let lane = Lane::new(Target::Wire(&client));
        let op = lane.start(&input)?;
        let outcome = lane.finish(&input, op);
        let time = answered();
        drop(client);
        server.shutdown();
        (outcome, time)
    } else {
        let service = Service::start(workload.service_config());
        let lane = Lane::new(Target::Service(&service));
        let op = lane.start(&input)?;
        let outcome = lane.finish(&input, op);
        let time = answered();
        service.shutdown();
        (outcome, time)
    };
    match outcome.verdict {
        Verdict::Ok => Ok(time),
        Verdict::Failed(kind) => Err(format!("set-up request failed: {kind}")),
        Verdict::Wrong(detail) => Err(format!("set-up request: {detail}")),
    }
}

/// Runs `setup-probe` in `repeats` fresh processes, one after another,
/// each just after a reading of the host's speed; returns each reading
/// with its set-up.
fn measure_setup(
    workload: Workload,
    seed: u64,
    repeats: usize,
) -> Result<Vec<(f64, SetupTime)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..repeats)
        .map(|_| {
            let (speed, _) = speed::reading(host::nproc());
            let output = Command::new(&exe)
                .args(["setup-probe", "--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn setup probe: {e}"))?;
            if !output.status.success() {
                return Err(format!("setup probe exited with {}", output.status));
            }
            String::from_utf8_lossy(&output.stdout)
                .lines()
                .last()
                .and_then(|line| {
                    let mut fields = line.strip_prefix("setup ")?.split_whitespace();
                    let time = SetupTime {
                        cpu_s: fields.next()?.parse().ok()?,
                        wall_s: fields.next()?.parse().ok()?,
                    };
                    Some((speed, time))
                })
                .ok_or_else(|| "setup probe printed no time".to_string())
        })
        .collect()
}

fn list(values: impl IntoIterator<Item = f64>) -> String {
    values
        .into_iter()
        .map(number)
        .collect::<Vec<_>>()
        .join(", ")
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// Open-phase latencies in seconds; a failed operation counts as never
/// answered, so it misses every latency percentile.
fn open_latencies(open: &Open) -> Vec<f64> {
    sorted(
        open.samples
            .iter()
            .map(|s| s.latency.unwrap_or(f64::INFINITY))
            .collect(),
    )
}

/// The open phase's p50 and p90 latencies (milliseconds) in consecutive
/// stretches of `width_s` seconds of due time. The run reports the median
/// stretch, so a burst of outside interference moves only the stretches
/// it overlaps; a failed operation counts as never answered.
fn open_stretches(open: &Open, width_s: f64, phase_s: f64) -> (Vec<f64>, Vec<f64>) {
    let count = (phase_s / width_s).floor().max(1.0) as usize;
    let mut stretches: Vec<Vec<f64>> = vec![Vec::new(); count];
    for sample in &open.samples {
        let slot = ((sample.at.as_secs_f64() / width_s) as usize).min(count - 1);
        stretches[slot].push(sample.latency.unwrap_or(f64::INFINITY));
    }
    stretches
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(|s| {
            let s = sorted(s);
            (latency_ms(&s, 0.5, phase_s), latency_ms(&s, 0.9, phase_s))
        })
        .unzip()
}

/// The median of `values`, or `fallback` when there are none.
fn median_or(values: &[f64], fallback: f64) -> f64 {
    if values.is_empty() {
        fallback
    } else {
        median(values)
    }
}

/// A latency percentile in milliseconds; an infinite one (failures past
/// the rank) reads as the whole phase length.
fn latency_ms(sorted: &[f64], q: f64, phase_s: f64) -> f64 {
    let value = percentile(sorted, q).unwrap_or(f64::INFINITY);
    ms(if value.is_finite() { value } else { phase_s })
}

fn metrics_json(values: &[(&str, f64)], declared: &[(&str, &str, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit, _)) in declared.iter().enumerate() {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .expect("every declared metric is measured");
        let _ = write!(
            out,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            quote(name),
            number(value),
            quote(unit)
        );
    }
    out.push('}');
    out
}

fn result_line(correct: bool, tally: &Tally, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.attempted.max(1),
        tally.failed
    )
}

/// Runs one workload and prints its result line; returns the exit code.
pub fn run(options: &RunOptions) -> i32 {
    if let Some(var) = host::PROGRAM_SELECTORS
        .iter()
        .find(|var| std::env::var_os(var).is_some())
    {
        eprintln!(
            "krvbench: {var} is set; it selects a different program than the shipped \
             defaults, so the run is refused (unset it)"
        );
        return 2;
    }
    let workload = options.workload;
    let name = workload.name();
    // The first call in the process pays the native lane calibration.
    let calibrate_ms = {
        let started = Instant::now();
        LaneWidth::detect();
        ms(started.elapsed().as_secs_f64())
    };

    let setup = if options.trace {
        Vec::new()
    } else {
        let repeats = if options.smoke { 1 } else { SETUP_REPEATS };
        match measure_setup(workload, options.seed, repeats) {
            Ok(times) => times,
            Err(e) => {
                eprintln!("krvbench: {name}: set-up failed: {e}");
                return 1;
            }
        }
    };

    let mut ring = workload.inputs(options.seed);
    if options.plant_fault {
        ring[0].plant_fault();
    }
    let phases = match drive_program(&ring, options) {
        Ok(phases) => phases,
        Err(e) => {
            eprintln!("krvbench: {name}: {e}");
            return 1;
        }
    };
    let mut tally = Tally::default();
    tally.merge(&phases.closed.tally);
    tally.merge(&phases.open.tally);
    let mut problems: Vec<String> = phases
        .warm
        .wrong
        .iter()
        .chain(&tally.wrong)
        .cloned()
        .collect();
    if phases.mirror_mismatches != 0 {
        problems.push(format!("{} mirror mismatches", phases.mirror_mismatches));
    }
    if phases.closed.tally.attempted == phases.closed.tally.failed {
        problems.push("the closed phase finished no operation".to_string());
    }
    let (sim_cycles, passes_per_op) = match simulated_cycles(&ring, workload.replay_len()) {
        Ok(found) => found,
        Err(e) => {
            problems.push(e);
            (0.0, 0.0)
        }
    };

    let open_s = options.seconds * (1.0 - CLOSED_SHARE);
    let stretch_s = (STRETCH_SAMPLES / workload.open_rate()).max(1.0);
    let (open_p50, open_p90) = open_stretches(&phases.open, stretch_s, open_s);
    let scaled_cpu_us = phases.scaled_cpu_us();

    let mut detail = String::new();
    let (declared, values): (&[_], Vec<(&str, f64)>) = if options.trace && problems.is_empty() {
        let latencies = open_latencies(&phases.open);
        let p99 = percentile(&latencies, 0.99).unwrap_or(0.0);
        let lateness = sorted(phases.open.lateness.clone());
        let from_run = FromRun {
            calibrate_ms,
            passes_per_op,
            ops_per_s: phases.wall_rate,
            p50_ms: median_or(&open_p50, 0.0),
            p90_ms: median_or(&open_p90, 0.0),
            p99_ms: latency_ms(&latencies, 0.99, open_s),
            beyond_p99: latencies.iter().filter(|&&l| l > p99).count() as f64,
            late_ms_p99: ms(percentile(&lateness, 0.99).unwrap_or(0.0)),
            late_ms_max: ms(lateness.last().copied().unwrap_or(0.0)),
            threads: phases.threads as f64,
            trace_overhead: phases.trace_overhead,
            steal_share: phases.steal_share,
        };
        let probe_secs = if options.smoke { 0.4 } else { 1.5 };
        match probes::run(workload, &ring, options.seed, probe_secs, &from_run) {
            Ok(probed) => {
                let _ = write!(
                    detail,
                    ", \"waterfall_gap\": {}",
                    number(probed.waterfall_gap)
                );
                (&PER_LAYER, probed.metrics)
            }
            Err(e) => {
                problems.push(e);
                (&PER_LAYER, Vec::new())
            }
        }
    } else {
        let attempted = tally.attempted.max(1) as f64;
        // Each set-up's CPU time at the nominal speed, by the reading
        // taken just before it.
        let setup_cpu: Vec<f64> = setup
            .iter()
            .map(|(speed, s)| s.cpu_s * speed / speed::NOMINAL_PERM_PER_CPU_S)
            .collect();
        (
            &END_TO_END,
            vec![
                ("cpu_us_per_op", median_or(&scaled_cpu_us, 0.0)),
                ("ok_share", (attempted - tally.failed as f64) / attempted),
                ("setup_s", median_or(&setup_cpu, 0.0)),
                ("peak_rss_mib", phases.closed_rss_mib),
                ("sim_cycles_per_op", sim_cycles),
            ],
        )
    };
    if options.trace {
        let path = options
            .out
            .join(format!("{name}-seed{}.trace.jsonl", options.seed));
        match trace::write_jsonl(&path) {
            Ok((spans, dropped)) => {
                eprintln!(
                    "krvbench: {name}: {spans} spans ({dropped} over the cap) in {}",
                    path.display()
                )
            }
            Err(e) => eprintln!("krvbench: {name}: could not write {}: {e}", path.display()),
        }
    }

    let correct = problems.is_empty();
    for problem in &problems {
        eprintln!("krvbench: {name}: INCORRECT: {problem}");
    }
    let metrics = if correct {
        metrics_json(&values, declared)
    } else {
        "{}".to_string()
    };
    let line = result_line(correct, &tally, &metrics);

    let failures: Vec<String> = tally
        .failures
        .iter()
        .map(|(kind, n)| format!("{}: {n}", quote(kind)))
        .collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"host\": {}, \"result\": {line}, \"detail\": {{\"ops_attempted\": {}, \
         \"ops_failed\": {}, \"failures\": {{{}}}, \"closed_completed\": {}, \
         \"open_samples\": {}, \"setup_cpu_s\": [{}], \"setup_wall_s\": [{}], \
         \"setup_ref_perm_per_cpu_s\": [{}], \
         \"closed_ops_per_s\": [{}], \"open_cpu_us\": [{}], \
         \"ref_perm_per_cpu_s_before\": [{}], \"ref_perm_per_cpu_s_open\": [{}], \
         \"open_scaled_cpu_us\": [{}], \
         \"open_p50_ms\": [{}], \"open_p90_ms\": [{}], \"steal_share\": {}, \"native_lanes\": {}{detail}}}}}",
        quote(name),
        options.seed,
        number(options.seconds),
        options.trace,
        options.smoke,
        host::provenance_json(options.seed),
        tally.attempted,
        tally.failed,
        failures.join(", "),
        phases.closed.completed,
        phases.open.samples.len(),
        list(setup.iter().map(|(_, s)| s.cpu_s)),
        list(setup.iter().map(|(_, s)| s.wall_s)),
        list(setup.iter().map(|(speed, _)| *speed)),
        list(phases.closed.bucket_rates.iter().copied()),
        list(phases.open.cpu_us_per_op.iter().copied()),
        list(phases.speed_before.iter().copied()),
        list(phases.speed_between.iter().copied()),
        list(scaled_cpu_us.iter().copied()),
        list(open_p50.iter().copied()),
        list(open_p90.iter().copied()),
        number(phases.steal_share),
        LaneWidth::detect().lanes(),
    );
    let file = options.out.join(format!(
        "{name}-seed{}{}.json",
        options.seed,
        if options.trace { "-trace" } else { "" }
    ));
    if let Err(e) =
        std::fs::create_dir_all(&options.out).and_then(|()| std::fs::write(&file, &record))
    {
        eprintln!("krvbench: {name}: could not write {}: {e}", file.display());
    }
    println!("{line}");
    if correct {
        0
    } else {
        1
    }
}
