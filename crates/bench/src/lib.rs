//! The benchmark harness: regenerates paper Tables 7 and 8 and the §4.2
//! comparison ratios from live simulator measurements.
//!
//! Binaries:
//!
//! * `table7` — the 64-bit architecture table (paper Table 7)
//! * `table8` — the 32-bit architecture table (paper Table 8)
//! * `comparisons` — the speedup/area ratios quoted in paper §4.2
//! * `figures` — ASCII renders of paper Figures 5–8 driven by the real
//!   layout code and simulator
//!
//! Criterion benches (`benches/`) measure host-side throughput of the
//! reference permutation, the batch SHA-3 API and the simulator itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use krv_area::{slices, AreaArch};
use krv_baselines::{paper_rows, ReferenceDesign, ScalarKeccak};
use krv_core::{KernelKind, VectorKeccakEngine};

/// One measured row of Table 7 or 8.
#[derive(Debug, Clone)]
pub struct ArchRow {
    /// Row label in the paper's style.
    pub label: String,
    /// Parallel Keccak states (`SN`).
    pub states: usize,
    /// Elements per vector register.
    pub elenum: usize,
    /// Measured cycles per round.
    pub cycles_per_round: u64,
    /// Measured whole-permutation cycles.
    pub permutation_cycles: u64,
    /// Measured cycles per byte.
    pub cycles_per_byte: f64,
    /// Measured throughput, (bits/cycle) × 10⁻³.
    pub throughput_millibits: f64,
    /// Modelled area in slices.
    pub slices: f64,
}

/// The paper's evaluated state counts: 1, 3 and 6 parallel states.
pub const STATE_COUNTS: [usize; 3] = [1, 3, 6];

/// Measures one architecture row on the simulator.
///
/// # Panics
///
/// Panics if the validated kernel traps (internal bug).
pub fn measure_arch(kind: KernelKind, states: usize) -> ArchRow {
    let mut engine = VectorKeccakEngine::new(kind, states);
    let metrics = engine.measure().expect("validated kernel runs");
    let elenum = 5 * states;
    let arch = match kind {
        KernelKind::E32Lmul8 => AreaArch::Simd32,
        _ => AreaArch::Simd64,
    };
    ArchRow {
        label: format!(
            "{} (EleNum={elenum}, {states} state{})",
            kind.label(),
            plural(states)
        ),
        states,
        elenum,
        cycles_per_round: metrics.cycles_per_round,
        permutation_cycles: metrics.permutation_cycles,
        cycles_per_byte: metrics.cycles_per_byte(),
        throughput_millibits: metrics.throughput_millibits_per_cycle(),
        slices: slices(arch, elenum),
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Measures the scalar Ibex baseline as an [`ArchRow`].
///
/// # Panics
///
/// Panics if the validated baseline traps (internal bug).
pub fn measure_scalar() -> ArchRow {
    let mut baseline = ScalarKeccak::new();
    let metrics = baseline.measure().expect("validated baseline runs");
    ArchRow {
        label: "Ibex core (hand-written RV32IM asm; paper ran compiled C)".into(),
        states: 1,
        elenum: 0,
        cycles_per_round: metrics.cycles_per_round,
        permutation_cycles: metrics.permutation_cycles,
        cycles_per_byte: metrics.cycles_per_byte(),
        throughput_millibits: metrics.throughput_millibits_per_cycle(),
        slices: slices(AreaArch::IbexOnly, 1),
    }
}

/// All measured rows of Table 7 (64-bit architectures).
pub fn table7_rows() -> Vec<ArchRow> {
    let mut rows = Vec::new();
    for kind in [KernelKind::E64Lmul1, KernelKind::E64Lmul8] {
        for &states in &STATE_COUNTS {
            rows.push(measure_arch(kind, states));
        }
    }
    rows
}

/// All measured rows of Table 8 (32-bit architectures + scalar baseline).
pub fn table8_rows() -> Vec<ArchRow> {
    let mut rows = vec![measure_scalar()];
    for &states in &STATE_COUNTS {
        rows.push(measure_arch(KernelKind::E32Lmul8, states));
    }
    rows
}

fn format_row(label: &str, cpr: &str, cpb: &str, tput: &str, area: &str) -> String {
    format!("| {label:<58} | {cpr:>12} | {cpb:>11} | {tput:>15} | {area:>9} |\n")
}

fn header(title: &str) -> String {
    let mut text = String::new();
    text.push_str(&format!("{title}\n"));
    text.push_str(&format_row(
        "Implementation",
        "cycles/round",
        "cycles/byte",
        "tput (mb/cc)",
        "slices",
    ));
    text.push_str(&format_row(
        &"-".repeat(58),
        &"-".repeat(12),
        &"-".repeat(11),
        &"-".repeat(15),
        &"-".repeat(9),
    ));
    text
}

fn reference_line(row: &ReferenceDesign) -> String {
    format_row(
        row.name,
        &row.cycles_per_round
            .map_or("-".into(), |v| format!("{v:.0}")),
        &row.cycles_per_byte
            .map_or("-".into(), |v| format!("{v:.1}")),
        &format!("{:.2}", row.throughput_millibits),
        &row.area_slices
            .map_or("(sim only)".into(), |v| v.to_string()),
    )
}

fn arch_line(row: &ArchRow) -> String {
    format_row(
        &row.label,
        &row.cycles_per_round.to_string(),
        &format!("{:.1}", row.cycles_per_byte),
        &format!("{:.2}", row.throughput_millibits),
        &format!("{:.0}", row.slices),
    )
}

/// Renders Table 7 (64-bit architectures vs Rawat's vector extensions).
pub fn render_table7() -> String {
    let mut text = header(
        "Table 7: 64-bit architectures (measured on the cycle-accurate simulator; slices from the calibrated area model)",
    );
    for reference in paper_rows().iter().filter(|r| r.table7) {
        text.push_str(&reference_line(reference));
    }
    for row in table7_rows() {
        text.push_str(&arch_line(&row));
    }
    text
}

/// Renders Table 8 (32-bit architectures vs published ASIPs and the
/// scalar baseline).
pub fn render_table8() -> String {
    let mut text = header(
        "Table 8: 32-bit architectures (measured on the cycle-accurate simulator; slices from the calibrated area model)",
    );
    for reference in paper_rows().iter().filter(|r| !r.table7) {
        text.push_str(&reference_line(reference));
    }
    for row in table8_rows() {
        text.push_str(&arch_line(&row));
    }
    text
}

/// One §4.2 comparison, paper-claimed vs measured.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// What is being compared.
    pub description: &'static str,
    /// The paper's claimed factor.
    pub paper_factor: f64,
    /// Our measured/modelled factor.
    pub measured_factor: f64,
}

/// Computes every comparison ratio quoted in paper §4.2.
pub fn comparisons() -> Vec<Comparison> {
    let lmul1 = measure_arch(KernelKind::E64Lmul1, 6);
    let lmul8 = measure_arch(KernelKind::E64Lmul8, 6);
    let e32 = measure_arch(KernelKind::E32Lmul8, 6);
    let scalar = measure_scalar();
    let refs = paper_rows();
    let by_name = |name: &str| -> ReferenceDesign {
        refs.iter()
            .find(|r| r.name.starts_with(name))
            .expect("known reference row")
            .clone()
    };
    let mips = by_name("MIPS Co-processor");
    let dasip = by_name("DASIP");
    let rawat = by_name("Vector Extensions");
    vec![
        Comparison {
            description: "64-bit LMUL=8 vs LMUL=1 throughput",
            paper_factor: 1.35,
            measured_factor: lmul8.throughput_millibits / lmul1.throughput_millibits,
        },
        Comparison {
            description: "64-bit vs 32-bit throughput (LMUL=8)",
            paper_factor: 1.91, // 3620 / 1892 cycles
            measured_factor: lmul8.throughput_millibits / e32.throughput_millibits,
        },
        Comparison {
            description: "32-bit (EleNum=30) vs scalar C baseline, performance",
            paper_factor: 117.9,
            measured_factor: e32.throughput_millibits / scalar.throughput_millibits,
        },
        Comparison {
            description: "32-bit (EleNum=30) vs scalar C baseline, area",
            paper_factor: 111.2,
            measured_factor: e32.slices / scalar.slices,
        },
        Comparison {
            description: "32-bit (EleNum=30) vs MIPS Co-processor ISE, throughput",
            paper_factor: 45.7,
            measured_factor: e32.throughput_millibits / mips.throughput_millibits,
        },
        Comparison {
            description: "32-bit (EleNum=30) vs MIPS Co-processor ISE, area",
            paper_factor: 6.3,
            measured_factor: e32.slices / mips.area_slices.expect("published") as f64,
        },
        Comparison {
            description: "32-bit (EleNum=30) vs DASIP, throughput",
            paper_factor: 43.2,
            measured_factor: e32.throughput_millibits / dasip.throughput_millibits,
        },
        Comparison {
            description: "32-bit (EleNum=30) vs DASIP, area",
            paper_factor: 31.5,
            measured_factor: e32.slices / dasip.area_slices.expect("published") as f64,
        },
        Comparison {
            description: "64-bit LMUL=8 (EleNum=30) vs Rawat vector extensions",
            paper_factor: 5.3,
            measured_factor: lmul8.throughput_millibits / rawat.throughput_millibits,
        },
    ]
}

/// Renders the §4.2 comparison report.
pub fn render_comparisons() -> String {
    let mut text = String::from(
        "Paper §4.2 comparison ratios: paper-claimed vs reproduced\n\
         | comparison                                                  | paper | measured |\n\
         |-------------------------------------------------------------|-------|----------|\n",
    );
    for cmp in comparisons() {
        text.push_str(&format!(
            "| {:<59} | {:>5.1} | {:>8.1} |\n",
            cmp.description, cmp.paper_factor, cmp.measured_factor
        ));
    }
    text
}

/// The failed checks of a smoke run's health gate, collected so that
/// one failing check does not hide the ones after it.
#[derive(Debug, Default)]
pub struct Health {
    failures: Vec<String>,
}

impl Health {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `failure()` unless `ok`.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(failure());
        }
    }

    /// Records a failure naming `what` and both values unless they are
    /// equal.
    pub fn check_eq<T: PartialEq + std::fmt::Debug>(&mut self, left: T, right: T, what: &str) {
        self.check(left == right, || format!("{what}: {left:?} != {right:?}"));
    }

    /// The failures recorded so far, in check order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Prints every failure and exits with status 1 if there is any.
    pub fn exit_on_failure(&self, run: &str) {
        if self.failures.is_empty() {
            return;
        }
        eprintln!("{run}: {} health check(s) failed:", self.failures.len());
        for failure in &self.failures {
            eprintln!("  - {failure}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_rows_match_paper_cycle_counts() {
        let rows = table7_rows();
        assert_eq!(rows.len(), 6);
        for row in &rows[..3] {
            assert_eq!(row.cycles_per_round, 103, "{}", row.label);
            assert_eq!(row.permutation_cycles, 2564);
        }
        for row in &rows[3..] {
            assert_eq!(row.cycles_per_round, 75, "{}", row.label);
        }
        // Throughput scales linearly with the number of states.
        assert!((rows[2].throughput_millibits / rows[0].throughput_millibits - 6.0).abs() < 1e-9);
    }

    #[test]
    fn table8_rows_match_paper_cycle_counts() {
        let rows = table8_rows();
        assert_eq!(rows.len(), 4);
        for row in &rows[1..] {
            assert_eq!(row.cycles_per_round, 147, "{}", row.label);
        }
        // The scalar baseline is orders of magnitude slower.
        assert!(rows[0].cycles_per_round > 1000);
    }

    #[test]
    fn renders_contain_all_rows() {
        let t7 = render_table7();
        assert!(t7.contains("Vector Extensions"));
        assert!(t7.contains("64-bit with LMUL=8 (EleNum=30, 6 states)"));
        let t8 = render_table8();
        assert!(t8.contains("DASIP"));
        assert!(t8.contains("32-bit with LMUL=8 (EleNum=30, 6 states)"));
    }

    #[test]
    fn comparison_shapes_hold() {
        for cmp in comparisons() {
            // Direction must match: every paper factor > 1 must be
            // reproduced > 1 (who wins is preserved).
            assert!(
                cmp.measured_factor > 1.0,
                "{}: measured {:.2}",
                cmp.description,
                cmp.measured_factor
            );
            // Within 2× of the claimed factor (the scalar-baseline ratios
            // differ because our baseline is hand-written assembly, not
            // compiled C — see EXPERIMENTS.md).
            let ratio = cmp.measured_factor / cmp.paper_factor;
            assert!(
                (0.4..2.5).contains(&ratio),
                "{}: paper {:.1} vs measured {:.1}",
                cmp.description,
                cmp.paper_factor,
                cmp.measured_factor
            );
        }
    }

    #[test]
    fn health_keeps_every_failure_in_check_order() {
        let mut health = Health::new();
        health.check(true, || unreachable!("a passing check builds no message"));
        health.check(false, || "first".to_string());
        health.check_eq(1, 1, "equal");
        health.check_eq(2, 3, "counts");
        assert_eq!(health.failures(), ["first", "counts: 2 != 3"]);
    }
}
