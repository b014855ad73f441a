//! `krvbench agree`: compares two sets of run records, per workload and
//! per end-to-end metric, against the bounds `BENCHMARK.json` declares.
//!
//! Each pairing reads `agree` (medians within the bound), `differs` (the
//! second set's median is worse or better by more than the bound) or
//! `unresolved` (a set's interquartile spread is wider than the bound, so
//! the medians cannot be told apart — unless every run of one set beats
//! every run of the other). With `--paired`, the first set is the parent
//! and the second the change, runs pair by seed, and a gain is claimed
//! only when the change wins at least nine of ten pairs and the medians
//! differ by more than the parent's interquartile distance.

use crate::json::Json;
use crate::stats::{median, quartiles, relative_iqr};
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric's declaration.
struct Bound {
    name: String,
    bound: f64,
    higher_is_better: bool,
}

/// Values by workload, then metric, then seed.
type Runs = BTreeMap<String, BTreeMap<String, BTreeMap<u64, f64>>>;

fn bounds(benchmark: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(benchmark)
        .map_err(|e| format!("read {}: {e}", benchmark.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|metric| {
            Some(Bound {
                name: metric.get("name")?.as_str()?.to_string(),
                bound: metric.get("bound")?.as_f64()?,
                higher_is_better: metric.get("better")?.as_str()? == "higher",
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry".to_string())
}

/// Reads every untraced run record (`*.json`) in `dir`.
fn load(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let record = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if record.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let (Some(workload), Some(seed), Some(metrics)) = (
            record.get("workload").and_then(Json::as_str),
            record.get("seed").and_then(Json::as_f64),
            record
                .get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(Json::as_object),
        ) else {
            return Err(format!("{}: not a krvbench run record", path.display()));
        };
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                runs.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .insert(seed as u64, value);
            }
        }
    }
    Ok(runs)
}

/// How the second set compares with the first on one metric.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Agree,
    Worse,
    Better,
    Unresolved,
}

/// Compares the runs `a` and `b` of one metric under `bound` (a share of
/// `a`'s median).
pub fn compare(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    if a.len() < 2 || b.len() < 2 {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    // Positive: the second set is worse.
    let worse = if higher_is_better { ma - mb } else { mb - ma } / ma.abs().max(f64::MIN_POSITIVE);
    let beats = |x: &[f64], y: &[f64]| {
        x.iter().all(|&u| {
            y.iter()
                .all(|&v| if higher_is_better { u > v } else { u < v })
        })
    };
    if relative_iqr(a).max(relative_iqr(b)) > bound && !beats(a, b) && !beats(b, a) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Agree
    }
}

/// The paired gain rule: the change (`b`) beats the parent (`a`) in at
/// least nine tenths of the pairs, ties counting for neither, and the
/// medians differ by more than the parent's interquartile distance.
pub fn paired_gain(pairs: &[(f64, f64)], higher_is_better: bool) -> bool {
    if pairs.is_empty() {
        return false;
    }
    let wins = pairs
        .iter()
        .filter(|(a, b)| if higher_is_better { b > a } else { b < a })
        .count();
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (q1, q3) = quartiles(&parent);
    wins * 10 >= pairs.len() * 9 && (median(&change) - median(&parent)).abs() > q3 - q1
}

/// `krvbench agree DIR_A DIR_B [--paired] [--benchmark PATH]`.
pub fn main(args: &[String]) -> i32 {
    let mut dirs = Vec::new();
    let mut paired = false;
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--paired" => paired = true,
            "--benchmark" => match iter.next() {
                Some(path) => benchmark = path.clone(),
                None => {
                    eprintln!("--benchmark needs a path");
                    return 2;
                }
            },
            dir => dirs.push(dir.to_string()),
        }
    }
    let [a_dir, b_dir] = dirs.as_slice() else {
        eprintln!("usage: krvbench agree DIR_A DIR_B [--paired] [--benchmark PATH]");
        return 2;
    };
    let loaded = bounds(Path::new(&benchmark))
        .and_then(|b| Ok((b, load(Path::new(a_dir))?, load(Path::new(b_dir))?)));
    let (bounds, a, b) = match loaded {
        Ok(found) => found,
        Err(e) => {
            eprintln!("krvbench agree: {e}");
            return 2;
        }
    };

    let mut clean = true;
    println!(
        "{:<14} {:<18} {:<10} {:>14} {:>14} {:>8} {:>8} {:>8} {:>7}",
        "workload",
        "metric",
        "verdict",
        "median A",
        "median B",
        "B vs A",
        "iqr A",
        "iqr B",
        "bound"
    );
    let workloads: Vec<&String> = a
        .keys()
        .chain(b.keys())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    for workload in workloads {
        for bound in &bounds {
            let pick = |runs: &Runs| -> BTreeMap<u64, f64> {
                runs.get(workload)
                    .and_then(|m| m.get(&bound.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (ra, rb) = (pick(&a), pick(&b));
            let va: Vec<f64> = ra.values().copied().collect();
            let vb: Vec<f64> = rb.values().copied().collect();
            let verdict = compare(&va, &vb, bound.bound, bound.higher_is_better);
            clean &= verdict == Verdict::Agree;
            let word = match verdict {
                Verdict::Agree => "agree",
                Verdict::Worse => "differs-",
                Verdict::Better => "differs+",
                Verdict::Unresolved => "unresolved",
            };
            let (ma, mb) = (median(&va), median(&vb));
            let mut line = format!(
                "{workload:<14} {:<18} {word:<10} {ma:>14.6} {mb:>14.6} {:>+7.2}% {:>7.2}% {:>7.2}% {:>6.1}%",
                bound.name,
                100.0 * (mb - ma) / ma,
                100.0 * relative_iqr(&va),
                100.0 * relative_iqr(&vb),
                100.0 * bound.bound
            );
            if paired {
                let pairs: Vec<(f64, f64)> = ra
                    .iter()
                    .filter_map(|(seed, &x)| rb.get(seed).map(|&y| (x, y)))
                    .collect();
                let gain = paired_gain(&pairs, bound.higher_is_better);
                let _ = std::fmt::Write::write_fmt(
                    &mut line,
                    format_args!(
                        "  {} pairs: {}",
                        pairs.len(),
                        if gain { "gain" } else { "no gain" }
                    ),
                );
            }
            // Simulated cycles depend only on the inputs: the same seed
            // must read the same value bit for bit.
            if bound.name == "sim_cycles_per_op" {
                let same_seed: Vec<bool> = ra
                    .iter()
                    .filter_map(|(seed, x)| rb.get(seed).map(|y| x.to_bits() == y.to_bits()))
                    .collect();
                if !same_seed.is_empty() {
                    let identical = same_seed.iter().all(|&same| same);
                    clean &= identical;
                    line.push_str(if identical {
                        "  same-seed runs bit-identical"
                    } else {
                        "  SAME-SEED RUNS DIFFER"
                    });
                }
            }
            println!("{line}");
        }
    }
    if clean {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            compare(&a, &[100.2, 100.8, 99.4, 100.0, 99.9], 0.1, true),
            Verdict::Agree
        );
        assert_eq!(
            compare(&a, &[80.0, 81.0, 79.0, 80.5, 79.5], 0.1, true),
            Verdict::Worse
        );
        assert_eq!(
            compare(&a, &[80.0, 81.0, 79.0, 80.5, 79.5], 0.1, false),
            Verdict::Better
        );
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(compare(&a, &noisy, 0.1, true), Verdict::Unresolved);
        // A wide spread still resolves when every run of one side wins.
        let wide_but_separated = [200.0, 300.0, 250.0, 220.0, 280.0];
        assert_eq!(compare(&a, &wide_but_separated, 0.1, true), Verdict::Better);
        assert_eq!(compare(&a, &[1.0], 0.1, true), Verdict::Unresolved);
    }

    #[test]
    fn paired_gain_needs_nine_of_ten_and_a_margin() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 100.1, 99.8, 100.3, 99.9,
        ];
        let better: Vec<(f64, f64)> = base.iter().map(|&x| (x, x * 1.05)).collect();
        assert!(paired_gain(&better, true));
        assert!(!paired_gain(&better, false));
        let mut mixed = better.clone();
        mixed[0].1 = 50.0;
        mixed[1].1 = 50.0;
        assert!(!paired_gain(&mixed, true), "8 of 10 is not enough");
        let tiny: Vec<(f64, f64)> = base.iter().map(|&x| (x, x + 0.01)).collect();
        assert!(!paired_gain(&tiny, true), "within the parent's spread");
    }
}
