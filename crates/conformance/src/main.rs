//! The `conformance` binary: run the full differential conformance
//! suite and print the backend × function pass matrix.
//!
//! ```text
//! conformance [--smoke | --full] [--seed N] [--cases N] [--oracle-cases N]
//! ```
//!
//! `--smoke` (the default) runs the short + long KAT vectors with the
//! 100-iteration Monte Carlo chain, 500 differential-fuzz cases and 12
//! cases per instruction-oracle and compiled-tier scenario — seconds in a
//! release build, suitable for CI. `--full` is the nightly tier: 1000
//! Monte Carlo iterations, 5000 fuzz cases, 100 cases per scenario.
//!
//! Exits nonzero if any layer reports a divergence.

use krv_conformance::{run, Tier};

fn main() {
    let mut tier = Tier::Smoke;
    let mut seed: u64 = 0x5EED_CAFE;
    let mut fuzz_cases: Option<usize> = None;
    let mut oracle_cases: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => tier = Tier::Smoke,
            "--full" => tier = Tier::Full,
            "--seed" => seed = parse_next(&mut args, "--seed"),
            "--cases" => fuzz_cases = Some(parse_next(&mut args, "--cases")),
            "--oracle-cases" => oracle_cases = Some(parse_next(&mut args, "--oracle-cases")),
            "--help" | "-h" => {
                println!(
                    "usage: conformance [--smoke | --full] [--seed N] \
                     [--cases N] [--oracle-cases N]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }

    let (fuzz, oracle) = match tier {
        Tier::Full => (5000, 100),
        _ => (500, 12),
    };
    let fuzz = fuzz_cases.unwrap_or(fuzz);
    let oracle = oracle_cases.unwrap_or(oracle);

    let tier_name = match tier {
        Tier::Short => "short",
        Tier::Smoke => "smoke",
        Tier::Full => "full",
    };
    println!(
        "conformance: tier={tier_name} seed={seed:#x} fuzz-cases={fuzz} \
         oracle-cases={oracle}/instruction\n"
    );

    let report = run(tier, fuzz, oracle, seed);
    println!("{}", report.render());

    if report.passed() {
        println!("conformance: all layers clean");
    } else {
        eprintln!(
            "conformance: {} failure(s) — see report above",
            report.failures().len()
        );
        std::process::exit(1);
    }
}

/// Parses the value following a flag, exiting with a usage error if it
/// is missing or malformed.
fn parse_next<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(text) = args.next() else {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    };
    let Ok(value) = text.parse() else {
        eprintln!("{flag}: invalid value `{text}`");
        std::process::exit(2);
    };
    value
}
