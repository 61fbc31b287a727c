//! Golden-file regression tests: the structured JSON reports of
//! `goc run <exp> --json --quick --seed 7` are snapshotted under
//! `tests/golden/` for every registered experiment (a test pins the
//! list to the registry, so a new experiment cannot skip its golden).
//! A future perf or simplicity refactor that silently changes *results*
//! (tables, charts, check verdicts, artifacts) fails here; throughput is
//! free to float because the comparator strips the timing conventions
//! the reports follow:
//!
//! * `params` whose key contains `secs` or `per_sec`,
//! * report items (tables/charts) whose title contains `timing`,
//! * notes starting with `timing:`,
//! * the `detail` of checks whose name contains `wall` (their pass/fail
//!   verdict is still compared),
//! * artifacts whose name contains `timing`.
//!
//! The same normalized report must also come back unchanged at 4 worker
//! threads: the thread count is a speed knob, never a result knob.
//!
//! Regenerate after an *intentional* result change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```
//!
//! and commit the refreshed files under `tests/golden/`.

use std::path::PathBuf;
use std::sync::OnceLock;

use gameofcoins::experiments::{self, RunContext};
use serde_json::Value;

/// Every registered experiment, in registry order.
const GOLDEN_EXPERIMENTS: [&str; 19] = [
    "fig1",
    "prop1",
    "thm1",
    "appendix_a",
    "appendix_b",
    "prop2",
    "alg2",
    "speed",
    "attack",
    "asym",
    "cross",
    "ablation",
    "sync",
    "poa",
    "scale",
    "schedulers",
    "churn",
    "ensemble",
    "serve",
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The normalized `threads = 1` report of a golden experiment, run once
/// per test binary and shared by every test that compares against it.
fn reference(name: &str) -> Value {
    static REFERENCES: [OnceLock<Value>; GOLDEN_EXPERIMENTS.len()] =
        [const { OnceLock::new() }; GOLDEN_EXPERIMENTS.len()];
    let slot = GOLDEN_EXPERIMENTS
        .iter()
        .position(|&golden| golden == name)
        .expect("a golden experiment");
    REFERENCES[slot]
        .get_or_init(|| normalized_run(name, 1))
        .clone()
}

/// A fresh run of `name` at `threads` workers, timing stripped.
fn normalized_run(name: &str, threads: usize) -> Value {
    let mut report = run_report_json(name, threads);
    normalize(&mut report);
    report
}

fn run_report_json(name: &str, threads: usize) -> Value {
    let experiment = experiments::find(name).expect("experiment is registered");
    let ctx = RunContext {
        seed: 7,
        quick: true,
        threads,
        ..RunContext::default()
    };
    let report = experiment.run(&ctx);
    serde_json::from_str(&report.to_json()).expect("reports serialize to valid JSON")
}

fn contains_timing_key(key: &str) -> bool {
    key.contains("secs") || key.contains("per_sec")
}

/// Whether a report item (table/chart/note) carries timing content.
fn is_timing_item(item: &Value) -> bool {
    if let Some(payload) = item.get("Table").or_else(|| item.get("Chart")) {
        matches!(payload.get("title"), Some(Value::String(t)) if t.contains("timing"))
    } else if let Some(Value::String(note)) = item.get("Note") {
        note.starts_with("timing:")
    } else {
        false
    }
}

/// Blanks the `detail` of a wall-clock check (its verdict still counts).
fn blank_wall_detail(check: &mut Value) {
    let is_wall = matches!(check.get("name"), Some(Value::String(n)) if n.contains("wall"));
    if !is_wall {
        return;
    }
    if let Value::Object(fields) = check {
        for (key, value) in fields.iter_mut() {
            if key == "detail" {
                *value = Value::String(String::new());
            }
        }
    }
}

/// Strips the timing conventions listed in the module docs, in place.
/// (The vendored `serde_json::Value` models objects as ordered
/// key/value vectors.)
fn normalize(report: &mut Value) {
    let Value::Object(fields) = report else {
        panic!("report must be a JSON object");
    };
    for (key, value) in fields.iter_mut() {
        match (key.as_str(), value) {
            ("params", Value::Array(params)) => params.retain(|entry| match entry {
                Value::Array(kv) => {
                    !matches!(kv.first(), Some(Value::String(k)) if contains_timing_key(k))
                }
                _ => true,
            }),
            ("items", Value::Array(items)) => items.retain(|item| !is_timing_item(item)),
            ("checks", Value::Array(checks)) => {
                checks.iter_mut().for_each(blank_wall_detail);
            }
            ("artifacts", Value::Array(artifacts)) => artifacts.retain(
                |a| !matches!(a.get("name"), Some(Value::String(n)) if n.contains("timing")),
            ),
            _ => {}
        }
    }
}

#[test]
fn golden_reports_are_stable() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = golden_dir();
    for name in GOLDEN_EXPERIMENTS {
        let path = dir.join(format!("{name}.json"));
        let fresh = reference(name);
        if update {
            std::fs::create_dir_all(&dir).expect("golden dir is writable");
            let text = serde_json::to_string_pretty(&fresh).expect("normalized report serializes");
            std::fs::write(&path, text + "\n").expect("golden file is writable");
            eprintln!("[updated {}]", path.display());
            continue;
        }
        let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden",
                path.display()
            )
        });
        let mut golden: Value = serde_json::from_str(&stored)
            .unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()));
        // Normalize the stored side too, so hand-edits or past timing
        // leaks cannot make the comparison asymmetric.
        normalize(&mut golden);
        assert_eq!(
            fresh,
            golden,
            "`goc run {name} --json --quick --seed 7` diverged from tests/golden/{name}.json; \
             if the change is intentional, regenerate with UPDATE_GOLDEN=1 cargo test --test golden"
        );
    }
}

#[test]
fn golden_runs_are_deterministic() {
    // The premise of the snapshot: same context, same report.
    for name in GOLDEN_EXPERIMENTS {
        let fresh = normalized_run(name, 1);
        assert_eq!(
            fresh,
            reference(name),
            "{name} is not deterministic under a fixed context"
        );
    }
}

#[test]
fn every_registered_experiment_has_a_golden() {
    let registered: Vec<&str> = experiments::registry().iter().map(|e| e.name()).collect();
    assert_eq!(GOLDEN_EXPERIMENTS.to_vec(), registered);
}

/// Strips what echoes the worker-thread count by design, and nothing
/// else: the `ensemble` experiment's `threads` param.
fn strip_thread_echoes(report: &mut Value) {
    let Value::Object(fields) = report else {
        panic!("report must be a JSON object");
    };
    for (key, value) in fields.iter_mut() {
        if let ("params", Value::Array(params)) = (key.as_str(), value) {
            params.retain(|entry| {
                !matches!(entry, Value::Array(kv)
                    if matches!(kv.first(), Some(Value::String(k)) if k == "threads"))
            });
        }
    }
}

#[test]
fn reports_are_thread_invariant() {
    for name in GOLDEN_EXPERIMENTS {
        let mut four = normalized_run(name, 4);
        let mut one = reference(name);
        strip_thread_echoes(&mut four);
        strip_thread_echoes(&mut one);
        assert_eq!(one, four, "{name} changed between 1 and 4 worker threads");
    }
}

#[test]
fn normalizer_strips_timing_but_keeps_results() {
    let mut report: Value = serde_json::from_str(
        r#"{
            "experiment": "demo",
            "params": [["miners", "10"], ["wall_secs", "1.2"], ["steps_per_sec", "99"]],
            "items": [
                {"Note": "timing: 3ms"},
                {"Note": "real result"},
                {"Table": {"title": "throughput timing", "headers": [], "rows": []}},
                {"Table": {"title": "results", "headers": [], "rows": []}}
            ],
            "checks": [
                {"name": "wall_clock_within_budget", "passed": true, "detail": "took 1.2 s"},
                {"name": "converged", "passed": true, "detail": "45 steps"}
            ],
            "artifacts": [
                {"name": "scale_timing.csv", "contents": "x"},
                {"name": "scale.csv", "contents": "y"}
            ]
        }"#,
    )
    .unwrap();
    normalize(&mut report);
    let text = serde_json::to_string(&report).unwrap();
    assert!(!text.contains("wall_secs"));
    assert!(!text.contains("per_sec"));
    assert!(!text.contains("timing"));
    assert!(!text.contains("took 1.2 s"));
    // Results and verdicts survive.
    assert!(text.contains("real result"));
    assert!(text.contains("results"));
    assert!(text.contains("45 steps"));
    assert!(text.contains("wall_clock_within_budget"));
    assert!(text.contains("scale.csv"));
}
