//! `krvbench` — the end-to-end benchmark of the keccak-rvv serving stack
//! with per-layer attribution. See `BENCHMARK.md` for the workloads, the
//! metrics and how each per-layer metric maps to an end-to-end one.
//!
//! ```text
//! krvbench run --workload NAME --seed N [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
//! krvbench all [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
//! krvbench agree DIR_A DIR_B [--paired] [--benchmark PATH]
//! ```
//!
//! `run` prints one JSON result line as the last line of standard output
//! and writes the full run record, with the host and provenance, to
//! `DIR/<workload>-seed<N>[-trace].json` (default `target/krvbench/runs`).

mod agree;
mod host;
mod json;
mod lane;
mod metrics;
mod probes;
mod replay;
mod run;
mod speed;
mod stats;
mod trace;
mod workload;

use run::RunOptions;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use workload::Workload;

const USAGE: &str = "usage:
  krvbench run --workload NAME --seed N [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
  krvbench all [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
  krvbench agree DIR_A DIR_B [--paired] [--benchmark PATH]
workloads: wire-small, bulk-mirrored, kem-mixed, stream-tree";

/// Measured seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 24.0;
/// Measured seconds of a `--smoke` run.
const SMOKE_SECONDS: f64 = 1.0;

fn main() {
    std::process::exit(dispatch(&std::env::args().skip(1).collect::<Vec<_>>()));
}

fn dispatch(args: &[String]) -> i32 {
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let rest = &args[1..];
    let parsed = match command.as_str() {
        "agree" => return agree::main(rest),
        "run" | "all" | "setup-probe" => parse_run(rest, command != "all"),
        _ => Err(format!("unknown command `{command}`")),
    };
    let options = match parsed {
        Ok(options) => options,
        Err(e) => {
            eprintln!("krvbench: {e}\n{USAGE}");
            return 2;
        }
    };
    match command.as_str() {
        "run" => run::run(&options),
        "all" => all(&options),
        _ => match run::setup_probe(options.workload, options.seed) {
            Ok(time) => {
                println!("setup {:?} {:?}", time.cpu_s, time.wall_s);
                0
            }
            Err(e) => {
                eprintln!("krvbench: setup probe: {e}");
                1
            }
        },
    }
}

fn parse_run(args: &[String], needs_workload: bool) -> Result<RunOptions, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut options = RunOptions {
        workload: Workload::WireSmall,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: PathBuf::from("target/krvbench/runs"),
        plant_fault: false,
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| iter.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed needs an integer")?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                options.trace = match iter.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        iter.next();
                        false
                    }
                    Some("1") => {
                        iter.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => options.smoke = true,
            "--out" => options.out = PathBuf::from(value("--out")?),
            "--plant-fault" => options.plant_fault = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match workload {
        Some(w) => options.workload = w,
        None if needs_workload => return Err("--workload is required".into()),
        None => {}
    }
    if let Some(seed) = seed {
        options.seed = seed;
    }
    options.seconds = seconds.unwrap_or(if options.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(options)
}

/// Runs every workload in turn, each in its own child process so that
/// set-up, peak memory and lazy caches are never shared between them.
fn all(options: &RunOptions) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("krvbench: current_exe: {e}");
            return 1;
        }
    };
    let mut status = 0;
    for workload in Workload::ALL {
        let mut command = Command::new(&exe);
        command
            .args(["run", "--workload", workload.name()])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&options.out)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if options.smoke {
            command.arg("--smoke");
        }
        match command.output() {
            Ok(output) => {
                let stdout = String::from_utf8_lossy(&output.stdout);
                println!(
                    "{} {}",
                    workload.name(),
                    stdout.lines().last().unwrap_or("(no result)")
                );
                if !output.status.success() {
                    status = 1;
                }
            }
            Err(e) => {
                eprintln!("krvbench: spawn {}: {e}", workload.name());
                status = 1;
            }
        }
    }
    status
}
