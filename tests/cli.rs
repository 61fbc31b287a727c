//! Integration tests for the `goc` command-line interface.

use std::process::Command;

fn goc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_goc"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn learn_prints_convergence_and_payoffs() {
    let out = goc(&[
        "learn",
        "--powers",
        "13,11,7,5,3,2",
        "--rewards",
        "17,10",
        "--scheduler",
        "max-gain",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("converged after"));
    assert!(stdout.contains("payoff"));
}

#[test]
fn enumerate_lists_equilibria() {
    let out = goc(&["enumerate", "--powers", "2,1", "--rewards", "1,1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("2 pure equilibria"));
}

#[test]
fn design_reaches_a_target() {
    let out = goc(&[
        "design",
        "--powers",
        "13,11,7,5,3,2",
        "--rewards",
        "17,10",
        "--scheduler",
        "min-gain",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("reached"));
    assert!(stdout.contains("postings"));
}

#[test]
fn simulate_draws_a_chart() {
    let out = goc(&[
        "simulate",
        "--miners",
        "20",
        "--days",
        "3",
        "--shock-day",
        "1",
        "--seed",
        "7",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("BCH share"));
    assert!(stdout.contains("blocks:"));
}

#[test]
fn list_names_every_registered_experiment() {
    let out = goc(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for experiment in gameofcoins::experiments::registry() {
        assert!(
            stdout.contains(experiment.name()),
            "`goc list` is missing {}",
            experiment.name()
        );
    }
}

#[test]
fn run_emits_a_machine_readable_report() {
    let out = goc(&["run", "prop1", "--json", "--quick"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let report = gameofcoins::analysis::RunReport::from_json(&stdout)
        .expect("stdout of `goc run --json` is a RunReport");
    assert_eq!(report.experiment, "prop1");
    assert!(report.passed());
    assert!(!report.checks.is_empty());
}

#[test]
fn run_ascii_renders_checks() {
    let out = goc(&["run", "prop1", "--quick"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("prop1"));
    assert!(stdout.contains("[PASS]"));
}

#[test]
fn run_rejects_unknown_experiments() {
    let out = goc(&["run", "frobnicate"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown experiment"));
}

#[test]
fn stray_positional_arguments_are_rejected() {
    for args in [
        vec!["run", "prop1", "bogus"],
        vec!["learn", "--powers", "2,1", "--rewards", "1,1", "extra"],
        vec!["sweep", "mysweep.json"],
        vec!["list", "surplus"],
    ] {
        let out = goc(&args);
        assert!(
            !out.status.success(),
            "args {args:?} unexpectedly succeeded"
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("unexpected argument"), "stderr: {stderr}");
    }
}

#[test]
fn run_ensemble_honours_replicas_and_threads() {
    let out = goc(&[
        "run",
        "ensemble",
        "--json",
        "--quick",
        "--seed",
        "7",
        "--replicas",
        "4",
        "--threads",
        "2",
    ]);
    assert!(
        out.status.success(),
        "run ensemble failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let report = gameofcoins::analysis::RunReport::from_json(&stdout)
        .expect("stdout of `goc run ensemble --json` is a RunReport");
    assert_eq!(report.experiment, "ensemble");
    assert!(report.passed());
    let flagship = report
        .params
        .iter()
        .find(|(k, _)| k == "flagship_replicas")
        .expect("flagship_replicas param");
    assert_eq!(flagship.1, "4");
    let threads = report
        .params
        .iter()
        .find(|(k, _)| k == "threads")
        .expect("threads param");
    assert_eq!(threads.1, "2");

    // Degenerate replica counts are rejected at parse time.
    let out = goc(&["run", "ensemble", "--replicas", "0"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--replicas"), "stderr: {stderr}");
}

#[test]
fn run_trace_records_every_ensemble_replica() {
    let dir = std::env::temp_dir().join(format!("goc_trace_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    let out = goc(&[
        "run",
        "ensemble",
        "--quick",
        "--replicas",
        "2",
        "--trace",
        trace_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "traced run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace_path).expect("the trace file is written");
    let trace = serde_json::parse_value(&text).expect("the trace is Chrome JSON");
    let Some(serde_json::Value::Array(events)) = trace.get("traceEvents") else {
        panic!("no traceEvents array in {text}");
    };
    // The experiment runs several ensembles, so only the per-replica
    // shape is pinned: every replica start pairs with one dynamics span.
    let count = |name: &str, ph: &str| {
        let (name, ph) = (
            serde_json::Value::String(name.into()),
            serde_json::Value::String(ph.into()),
        );
        events
            .iter()
            .filter(|e| e.get("name") == Some(&name) && e.get("ph") == Some(&ph))
            .count()
    };
    let starts = count("replica_start", "i");
    assert!(starts >= 1, "no replica_start in the trace");
    assert_eq!(count("dynamics_run", "B"), starts);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_fans_out_and_preserves_input_order() {
    let dir = std::env::temp_dir().join(format!("goc_sweep_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("sweep.json");
    std::fs::write(
        &spec_path,
        r#"{"runs": [
            {"experiment": "cross", "seed": 0, "quick": true},
            {"experiment": "prop1", "seed": 0, "quick": true}
        ]}"#,
    )
    .unwrap();
    let out = goc(&[
        "sweep",
        "--spec",
        spec_path.to_str().unwrap(),
        "--threads",
        "2",
    ]);
    assert!(
        out.status.success(),
        "sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let reports: Vec<gameofcoins::analysis::RunReport> =
        serde_json::from_str(&stdout).expect("sweep output is a JSON array of reports");
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].experiment, "cross");
    assert_eq!(reports[1].experiment, "prop1");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_runs_a_scenario_spec_file() {
    use gameofcoins::sim::ScenarioSpec;
    let dir = std::env::temp_dir().join(format!("goc_scenario_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("scenario.json");
    let mut spec = ScenarioSpec::asymmetric();
    spec.horizon_days = 2.0;
    std::fs::write(&spec_path, serde_json::to_string_pretty(&spec).unwrap()).unwrap();
    let out = goc(&["simulate", "--spec", spec_path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "simulate --spec failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("scenario `asymmetric`"), "stdout: {stdout}");
    assert!(stdout.contains("B share"));
    assert!(stdout.contains("blocks: A"));

    // Malformed and invalid scenario files are rejected with errors.
    let bad_path = dir.join("bad.json");
    std::fs::write(&bad_path, "{not json").unwrap();
    let out = goc(&["simulate", "--spec", bad_path.to_str().unwrap()]);
    assert!(!out.status.success());
    spec.chains.clear();
    std::fs::write(&bad_path, serde_json::to_string(&spec).unwrap()).unwrap();
    let out = goc(&["simulate", "--spec", bad_path.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("no chains"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_rejects_bad_specs() {
    let out = goc(&["sweep"]);
    assert!(!out.status.success());
    let dir = std::env::temp_dir().join(format!("goc_sweep_bad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("bad.json");
    std::fs::write(&spec_path, r#"{"runs": [{"experiment": "nope"}]}"#).unwrap();
    let out = goc(&["sweep", "--spec", spec_path.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown experiment"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_input_fails_with_usage() {
    for args in [
        vec!["learn"],                                      // missing flags
        vec!["learn", "--powers", "abc", "--rewards", "1"], // parse error
        vec!["learn", "--powers", "2,1", "--bogus", "x"],   // unknown flag
        vec!["frobnicate"],                                 // unknown command
        vec![],                                             // no command
    ] {
        let out = goc(&args);
        assert!(
            !out.status.success(),
            "args {args:?} unexpectedly succeeded"
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("error") || stderr.contains("USAGE"));
    }
}

#[test]
fn help_succeeds() {
    let out = goc(&["help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("USAGE"));
}

#[test]
fn equal_powers_design_is_rejected_cleanly() {
    // §5 requires strictly distinct powers; the CLI must surface the
    // library's validation error rather than panic.
    let out = goc(&["design", "--powers", "5,5,3", "--rewards", "7,4"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("distinct"), "stderr: {stderr}");
}

#[test]
fn serve_help_documents_the_service_flags() {
    let out = goc(&["serve", "--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("--addr"), "stdout: {stdout}");
    assert!(stdout.contains("--max-sessions"), "stdout: {stdout}");
    assert!(stdout.contains("--max-inflight"), "stdout: {stdout}");
    assert!(stdout.contains("admission"), "stdout: {stdout}");
}

#[test]
fn request_help_shows_the_wire_forms() {
    let out = goc(&["request", "--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Status"), "stdout: {stdout}");
    assert!(stdout.contains("RunEnsemble"), "stdout: {stdout}");
    assert!(stdout.contains("Shutdown"), "stdout: {stdout}");
}

#[test]
fn serve_zero_caps_are_rejected_up_front() {
    let out = goc(&["serve", "--max-inflight", "0"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("in-flight cap"), "stderr: {stderr}");

    let out = goc(&["serve", "--max-sessions", "0"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("session cap"), "stderr: {stderr}");
}

#[test]
fn request_rejects_bad_arguments_before_connecting() {
    // Invalid request JSON fails at parse time — no server needed.
    let out = goc(&["request", "127.0.0.1:1", "{not json"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("invalid request JSON"), "stderr: {stderr}");

    // A missing positional is a usage error.
    let out = goc(&["request", "127.0.0.1:1"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("goc request <ADDR>"), "stderr: {stderr}");
}

#[test]
fn serve_and_request_round_trip_over_tcp() {
    use std::io::{BufRead, BufReader, Write};

    let mut child = Command::new(env!("CARGO_BIN_EXE_goc"))
        .args(["serve", "--addr", "127.0.0.1:0", "--max-sessions", "4"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let banner = lines.next().expect("server prints a banner").unwrap();
    let addr = banner
        .strip_prefix("goc-server listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();

    // Status round-trips as JSON frames on stdout.
    let out = goc(&["request", &addr, "\"Status\""]);
    assert!(
        out.status.success(),
        "request failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"Status\""), "stdout: {stdout}");
    assert!(stdout.contains("\"sessions\""), "stdout: {stdout}");

    // An ensemble request streams Accepted then a Report frame.
    let out = goc(&[
        "request",
        &addr,
        r#"{"RunEnsemble":{"spec":{"name":"cli","replicas":2,"miners":32,"horizon_days":30.0,"seed":7}}}"#,
    ]);
    assert!(
        out.status.success(),
        "ensemble request failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"Accepted\""), "stdout: {stdout}");
    assert!(stdout.contains("\"Ensemble\""), "stdout: {stdout}");

    // A named rejection exits non-zero and names the reason on stderr.
    let out = goc(&[
        "request",
        &addr,
        r#"{"RunExperiment":{"experiment":"no_such_experiment"}}"#,
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("rejected (unknown_experiment)"),
        "stderr: {stderr}"
    );

    // Raw garbage frames are rejected by name and the session survives.
    {
        let stream = std::net::TcpStream::connect(&addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{this is not a frame\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("MalformedFrame"), "frame: {line}");

        // One byte past the 8 MiB default cap: discarded, named, and
        // the very same connection still answers a valid frame.
        let mut oversized = vec![b'z'; 8 * 1024 * 1024 + 1];
        oversized.push(b'\n');
        writer.write_all(&oversized).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("FrameTooLarge"), "frame: {line}");

        writer
            .write_all(b"{\"version\":1,\"id\":3,\"request\":\"Status\"}\n")
            .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"Report\""), "frame: {line}");
    }

    // Shutdown drains the server; the child exits 0 and reports its
    // served/rejected accounting.
    let out = goc(&["request", &addr, "\"Shutdown\""]);
    assert!(
        out.status.success(),
        "shutdown failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let status = child.wait().expect("server exits");
    assert!(status.success(), "server exited with {status}");
    let drained = lines
        .map(|l| l.unwrap())
        .find(|l| l.starts_with("drained:"))
        .expect("server prints its drain summary");
    assert!(drained.contains("rejected by name"), "line: {drained}");
}
