//! Keeps the README's paper-claim table honest: every check the table
//! names must exist in its experiment's golden report
//! (`tests/golden/<experiment>.json`) with `"passed": true`, and the
//! table must cover every claim of the paper the registry reproduces.
//! No experiment runs here; the goldens themselves are pinned to fresh
//! runs by `tests/golden.rs`.

use std::path::PathBuf;

use serde_json::Value;

/// The section heading the table sits under.
const HEADING: &str = "## Paper claims and the checks that test them";

/// Claims the table must cover: each prefixes the claim cell of at
/// least one row.
const REQUIRED_CLAIMS: [&str; 7] = [
    "Theorem 1",
    "Proposition 1",
    "Proposition 2",
    "Algorithm 2 / Theorem 2",
    "Appendix A",
    "Appendix B",
    "§6 follow-up",
];

/// One table row: the claim, its experiment, and the named checks.
struct Row {
    claim: String,
    experiment: String,
    checks: Vec<String>,
}

fn repo_path(relative: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative)
}

/// The backticked names in one table cell, in order.
fn code_spans(cell: &str) -> Vec<String> {
    cell.split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// Parses the rows of the table under [`HEADING`] in `readme`.
fn claim_table(readme: &str) -> Vec<Row> {
    let section = readme
        .split_once(HEADING)
        .unwrap_or_else(|| panic!("README.md has no `{HEADING}` section"))
        .1;
    section
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2) // the header and its separator
        .map(|line| {
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            assert_eq!(cells.len(), 3, "a claim row has three cells: {line}");
            let experiment = code_spans(cells[1]);
            assert_eq!(experiment.len(), 1, "one experiment per row: {line}");
            Row {
                claim: cells[0].to_string(),
                experiment: experiment[0].clone(),
                checks: code_spans(cells[2]),
            }
        })
        .collect()
}

/// `name -> passed` for every check in a golden report.
fn golden_checks(experiment: &str) -> Vec<(String, bool)> {
    let path = repo_path(&format!("tests/golden/{experiment}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("no golden for `{experiment}` at {}: {e}", path.display()));
    let report: Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()));
    let Some(Value::Array(checks)) = report.get("checks") else {
        panic!("{} has no checks array", path.display());
    };
    checks
        .iter()
        .map(|check| match (check.get("name"), check.get("passed")) {
            (Some(Value::String(name)), Some(Value::Bool(passed))) => (name.clone(), *passed),
            _ => panic!("malformed check in {}: {check:?}", path.display()),
        })
        .collect()
}

#[test]
fn every_claimed_check_passes_in_its_golden() {
    let readme = std::fs::read_to_string(repo_path("README.md")).expect("README.md is readable");
    let rows = claim_table(&readme);
    for required in REQUIRED_CLAIMS {
        assert!(
            rows.iter().any(|row| row.claim.starts_with(required)),
            "no README claim row for {required}"
        );
    }
    for row in &rows {
        assert!(!row.checks.is_empty(), "{}: names no check", row.claim);
        let golden = golden_checks(&row.experiment);
        for check in &row.checks {
            let passed = golden
                .iter()
                .find(|(name, _)| name == check)
                .unwrap_or_else(|| {
                    panic!(
                        "{}: `{check}` is not a check of tests/golden/{}.json",
                        row.claim, row.experiment
                    )
                })
                .1;
            assert!(
                passed,
                "{}: `{check}` does not pass in its golden",
                row.claim
            );
        }
    }
}
