//! The pass matrix: backends as rows, FIPS 202 functions as columns,
//! rendered as fixed-width text for the `conformance` binary and the
//! experiment log.

use crate::compiledtier::CompiledTierOutcome;
use crate::diff::FuzzReport;
use crate::kat::KatOutcome;
use crate::oracle::OracleOutcome;
use krv_testkit::CaseReport;

/// A backend × algorithm grid of KAT outcomes.
#[derive(Debug, Clone, Default)]
pub struct PassMatrix {
    /// Row order (backend labels, first-seen order).
    rows: Vec<String>,
    /// Column order (algorithm names, first-seen order).
    columns: Vec<&'static str>,
    /// Cells in insertion order.
    cells: Vec<KatOutcome>,
}

impl PassMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one suite outcome.
    pub fn record(&mut self, outcome: KatOutcome) {
        if !self.rows.contains(&outcome.backend) {
            self.rows.push(outcome.backend.clone());
        }
        if !self.columns.contains(&outcome.algorithm) {
            self.columns.push(outcome.algorithm);
        }
        self.cells.push(outcome);
    }

    /// Whether every recorded cell passed.
    pub fn passed(&self) -> bool {
        self.cells.iter().all(KatOutcome::passed)
    }

    /// Total vectors checked across all cells.
    pub fn total_cases(&self) -> usize {
        self.cells.iter().map(|c| c.cases).sum()
    }

    /// Every failure across all cells, flattened.
    pub fn failures(&self) -> Vec<&CaseReport> {
        self.cells.iter().flat_map(|c| c.failures.iter()).collect()
    }

    /// The cell for (backend, algorithm), if recorded.
    fn cell(&self, backend: &str, algorithm: &str) -> Option<&KatOutcome> {
        self.cells
            .iter()
            .find(|c| c.backend == backend && c.algorithm == algorithm)
    }

    /// Renders the grid: one row per backend, `pass`/`FAIL` (with the
    /// case count) per algorithm.
    pub fn render(&self) -> String {
        let label_width = self
            .rows
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(0)
            .max("backend".len());
        let col_width = self
            .columns
            .iter()
            .map(|c| c.len())
            .max()
            .unwrap_or(0)
            .max("FAIL(999)".len());
        let mut out = String::new();
        out.push_str(&format!("{:<label_width$}", "backend"));
        for column in &self.columns {
            out.push_str(&format!("  {column:>col_width$}"));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{row:<label_width$}"));
            for column in &self.columns {
                let text = match self.cell(row, column) {
                    None => "-".to_string(),
                    Some(cell) if cell.passed() => format!("pass({})", cell.cases),
                    Some(cell) => format!("FAIL({})", cell.failures.len()),
                };
                out.push_str(&format!("  {text:>col_width$}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Renders the differential-fuzz summary table.
pub fn render_fuzz(reports: &[FuzzReport]) -> String {
    let width = reports
        .iter()
        .map(|r| r.backend.len())
        .max()
        .unwrap_or(0)
        .max("backend".len());
    let mut out = format!("{:<width$}  {:>7}  result\n", "backend", "cases");
    for report in reports {
        let result = if report.passed() {
            "pass".to_string()
        } else {
            format!("FAIL ({} mismatches)", report.mismatches.len())
        };
        out.push_str(&format!(
            "{:<width$}  {:>7}  {result}\n",
            report.backend, report.cases
        ));
    }
    out
}

/// Renders the instruction-oracle summary table (one row per
/// instruction × execution tier).
pub fn render_oracle(outcomes: &[OracleOutcome]) -> String {
    let width = outcomes
        .iter()
        .map(|o| o.op.len())
        .max()
        .unwrap_or(0)
        .max("instruction".len());
    let tier_width = outcomes
        .iter()
        .map(|o| o.tier.len())
        .max()
        .unwrap_or(0)
        .max("tier".len());
    let mut out = format!(
        "{:<width$}  {:<tier_width$}  {:>7}  result\n",
        "instruction", "tier", "cases"
    );
    for outcome in outcomes {
        let result = if outcome.passed() {
            "pass".to_string()
        } else {
            format!("FAIL ({} divergences)", outcome.failures.len())
        };
        out.push_str(&format!(
            "{:<width$}  {:<tier_width$}  {:>7}  {result}\n",
            outcome.op, outcome.tier, outcome.cases
        ));
    }
    out
}

/// Renders the compiled-tier differential summary table.
pub fn render_compiledtier(outcomes: &[CompiledTierOutcome]) -> String {
    let width = outcomes
        .iter()
        .map(|o| o.scenario.len())
        .max()
        .unwrap_or(0)
        .max("scenario".len());
    let mut out = format!("{:<width$}  {:>7}  result\n", "scenario", "cases");
    for outcome in outcomes {
        let result = if outcome.passed() {
            "pass".to_string()
        } else {
            format!("FAIL ({} divergences)", outcome.failures.len())
        };
        out.push_str(&format!(
            "{:<width$}  {:>7}  {result}\n",
            outcome.scenario, outcome.cases
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(backend: &str, algorithm: &'static str, failures: usize) -> KatOutcome {
        KatOutcome {
            backend: backend.to_string(),
            algorithm,
            cases: 10,
            failures: (0..failures)
                .map(|i| CaseReport::new("t", i as u64, "boom"))
                .collect(),
        }
    }

    #[test]
    fn matrix_renders_rows_and_columns_in_order() {
        let mut matrix = PassMatrix::new();
        matrix.record(outcome("reference", "SHA3-256", 0));
        matrix.record(outcome("engine/e64m8", "SHA3-256", 0));
        matrix.record(outcome("reference", "SHAKE128", 0));
        let text = matrix.render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("SHA3-256") && lines[0].contains("SHAKE128"));
        assert!(lines[1].starts_with("reference"));
        assert!(lines[2].starts_with("engine/e64m8"));
        assert!(lines[1].contains("pass(10)"));
        assert!(lines[2].contains('-'), "missing cell renders as dash");
        assert!(matrix.passed());
        assert_eq!(matrix.total_cases(), 30);
    }

    #[test]
    fn failures_flip_the_matrix_and_render_as_fail() {
        let mut matrix = PassMatrix::new();
        matrix.record(outcome("pool/e64m8x2", "SHA3-512", 3));
        assert!(!matrix.passed());
        assert_eq!(matrix.failures().len(), 3);
        assert!(matrix.render().contains("FAIL(3)"));
    }

    #[test]
    fn fuzz_and_oracle_tables_render() {
        let fuzz = vec![FuzzReport {
            backend: "engine/e64m1".to_string(),
            cases: 100,
            mismatches: Vec::new(),
        }];
        assert!(render_fuzz(&fuzz).contains("pass"));
        let oracle = vec![OracleOutcome {
            op: "vpi.vi (all)",
            tier: "compiled",
            cases: 5,
            failures: vec![CaseReport::new("oracle", 1, "bad lane")],
        }];
        assert!(render_oracle(&oracle).contains("FAIL (1 divergences)"));
        let compiled = vec![
            CompiledTierOutcome {
                scenario: "scalar loop + memory",
                cases: 8,
                failures: Vec::new(),
            },
            CompiledTierOutcome {
                scenario: "keccak theta/chi idiom blocks (m1+m8)",
                cases: 8,
                failures: Vec::new(),
            },
        ];
        let text = render_compiledtier(&compiled);
        assert!(text.contains("scalar loop + memory") && text.contains("pass"));
        assert!(text.contains("idiom blocks") && text.contains("pass"));
    }
}
