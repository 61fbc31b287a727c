//! `goc` — command-line interface to the Game of Coins library.
//!
//! ```text
//! goc list
//! goc run fig1 [--json] [--quick] [--seed 0]
//! goc sweep    --spec sweep.json [--threads N] [--out FILE]
//! goc learn    --powers 13,11,7,5,3,2 --rewards 17,10 [--scheduler round-robin] [--seed 0]
//! goc enumerate --powers 13,11,7,5,3,2 --rewards 17,10
//! goc design   --powers 13,11,7,5,3,2 --rewards 17,10 [--scheduler min-gain] [--seed 0]
//! goc simulate [--miners 120] [--days 80] [--shock-day 30] [--seed 2017]
//! goc simulate --spec scenario.json
//! goc serve    [--addr 127.0.0.1:0] [--max-sessions 16] [--max-inflight 4] [--threads N]
//!              [--metrics] [--trace FILE] [--http HOST:PORT]
//! goc request  <ADDR> <REQUEST-JSON>
//! ```
//!
//! `list` shows the experiment registry; `run` executes a registered
//! experiment, rendering its structured report as ASCII or JSON; `sweep`
//! fans a JSON list of experiment runs across worker threads (reports
//! come back in input order). The classic commands remain: `learn` runs
//! better-response learning from the all-on-c0 configuration;
//! `enumerate` lists all pure equilibria (small games); `design` picks
//! the two Lemma-2 equilibria and runs Algorithm 2 between them;
//! `simulate` runs the Figure 1 BTC/BCH market and prints the hashrate
//! chart. `serve` boots the registry-backed Game-of-Coins service
//! (line-delimited JSON over TCP, with admission control) and runs
//! until a `Shutdown` request drains it; `request` sends one request
//! to a running server and prints the streamed response frames.
//!
//! Flight recording: `goc run <exp> --trace FILE` and `goc serve
//! --trace FILE` hand an enabled flight recorder to the run (inside the
//! experiment's or the server's `Observe` handle) and dump its retained
//! window as Chrome Trace Event Format JSON (load it at
//! `chrome://tracing` or `ui.perfetto.dev`); `goc serve --http ADDR`
//! additionally serves `GET /metrics`, `/healthz`, and `/trace` for
//! scrapers.

use std::process::ExitCode;

use gameofcoins::analysis::chart::{ascii_chart, Series};
use gameofcoins::analysis::{fmt_f64, Table};
use gameofcoins::design::{design, DesignOptions, DesignProblem};
use gameofcoins::experiments::service::registry_server;
use gameofcoins::experiments::{self, RunContext, SweepSpec};
use gameofcoins::game::{equilibrium, CoinId, Configuration, Game};
use gameofcoins::learning::{Dynamics, LearningOptions, SchedulerKind};
use gameofcoins::proto::{Client, ReportPayload, Request, Response};
use gameofcoins::server::{HttpExporter, ServerConfig};
use gameofcoins::sim::scenario::{btc_bch, BtcBchParams, DAY};
use gameofcoins::sim::ScenarioSpec;
use gameofcoins::telemetry::trace::{TraceRecorder, DEFAULT_LANE_CAPACITY};
use gameofcoins::telemetry::{Observe, Registry};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Options::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Only `run` (the experiment name) and `request` (address + JSON)
    // take positional arguments; stray tokens anywhere else are typos,
    // not input.
    let expected_positionals = match command.as_str() {
        "run" => 1,
        "request" => 2,
        _ => 0,
    };
    let result = if opts.help {
        // Per-command help for the service verbs; the general usage
        // covers everything else.
        match command.as_str() {
            "serve" => println!("{SERVE_USAGE}"),
            "request" => println!("{REQUEST_USAGE}"),
            _ => println!("{USAGE}"),
        }
        Ok(())
    } else if opts.positional.len() > expected_positionals {
        Err(format!(
            "unexpected argument `{}`",
            opts.positional[expected_positionals]
        ))
    } else {
        match command.as_str() {
            "list" => cmd_list(),
            "run" => cmd_run(&opts),
            "sweep" => cmd_sweep(&opts),
            "learn" => cmd_learn(&opts),
            "enumerate" => cmd_enumerate(&opts),
            "design" => cmd_design(&opts),
            "simulate" => cmd_simulate(&opts),
            "serve" => cmd_serve(&opts),
            "request" => cmd_request(&opts),
            "help" | "--help" | "-h" => {
                println!("{USAGE}");
                Ok(())
            }
            other => Err(format!("unknown command `{other}`")),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "goc — Game of Coins (Spiegelman, Keidar, Tennenholtz; ICDCS 2021)

USAGE:
  goc list
  goc run <EXPERIMENT> [--json] [--quick] [--seed N] [--scheduler NAME] [--turnover PCT]
               [--replicas N] [--threads N] [--trace FILE]
  goc sweep     --spec FILE [--threads N] [--out FILE]
  goc learn     --powers P1,P2,.. --rewards F1,F2,.. [--scheduler NAME] [--seed N]
  goc enumerate --powers P1,P2,.. --rewards F1,F2,..
  goc design    --powers P1,P2,.. --rewards F1,F2,.. [--scheduler NAME] [--seed N]
  goc simulate  [--miners N] [--days D] [--shock-day D] [--seed N]
  goc simulate  --spec FILE    (a declarative ScenarioSpec JSON)
  goc serve     [--addr HOST:PORT] [--max-sessions N] [--max-inflight N] [--threads N]
                [--metrics] [--trace FILE] [--http HOST:PORT]
  goc request   <ADDR> <REQUEST-JSON>    (e.g. goc request 127.0.0.1:4317 '\"Status\"',
                or the shorthand '{\"request\":\"metrics\"}')

`goc list` names every registered experiment. The `churn` experiment
drives miner arrivals/departures and coin launches/retirements as
incremental tracker deltas; `--turnover PCT` sets its population
turnover target in percent (default 10). The `ensemble` experiment runs
Monte-Carlo replica fleets on the work-stealing executor: `--replicas N`
sets its flagship replica count (default 64) and `--threads N` its
worker count (the equilibrium census is bit-identical at any thread
count; only wall clock changes). A sweep spec is JSON:
  {\"runs\": [{\"experiment\": \"fig1\", \"seed\": 1, \"quick\": true}, ...]}
(an entry may also pin \"scheduler\" to a SchedulerKind variant name,
e.g. \"MinGain\", for experiments that sweep schedulers, or set
\"turnover_pct\" for `churn` / \"replicas\" for `ensemble`).
Reports come back in input order regardless of completion order.
A scenario spec for `goc simulate --spec` is a serialized
`gameofcoins::sim::ScenarioSpec` (serialize a preset to start).
`goc run <exp> --trace FILE` hands the run an enabled flight recorder
and dumps its spans as Chrome Trace Event Format JSON (chrome://tracing).

`goc serve` boots the Game-of-Coins service (see `goc serve --help`);
`goc request` sends one JSON request to a running server (see
`goc request --help`).

SCHEDULERS: round-robin | uniform-random | max-gain | min-gain |
            largest-miner-first | smallest-miner-first";

const SERVE_USAGE: &str = "goc serve — run the Game-of-Coins service over TCP

USAGE:
  goc serve [--addr HOST:PORT] [--max-sessions N] [--max-inflight N] [--threads N]
            [--metrics] [--trace FILE] [--http HOST:PORT]

The server speaks the goc-proto wire protocol: line-delimited JSON
request/response envelopes (protocol v2; v1 envelopes remain accepted).
Every registered experiment is servable, ensembles run on the shared
work-stealing executor, and admission control is strict — a bounded
in-flight queue, per-session request budgets, and replica/population
caps, each refusing by name instead of queueing unboundedly. A
`Shutdown` request drains in-flight work and exits 0. The live
telemetry registry (sessions, served, per-reason rejections, in-flight
gauge, per-kind request latency) is queryable at any time with
`goc request <ADDR> '{\"request\":\"metrics\"}'`.

OPTIONS:
  --addr HOST:PORT   bind address (default 127.0.0.1:0 — an ephemeral
                     port, printed once bound)
  --max-sessions N   concurrent client sessions (default 16, must be ≥ 1)
  --max-inflight N   bounded in-flight compute queue (default 4, must be ≥ 1)
  --threads N        worker threads per compute request
  --metrics          print the final metrics exposition (Prometheus-style
                     text) after the drain summary
  --trace FILE       record into an enabled flight recorder; on drain,
                     dump every retained span — request admission and
                     serve spans keyed by the wire correlation id, plus
                     replica, snapshot and dynamics spans — as Chrome
                     Trace Event Format JSON
  --http HOST:PORT   also serve GET /metrics (Prometheus text),
                     /healthz, and /trace (recorder JSON) over plain
                     HTTP — the scrape endpoint, printed as
                     `goc-http listening on ADDR` once bound";

const REQUEST_USAGE: &str = "goc request — send one request to a running goc server

USAGE:
  goc request <ADDR> <REQUEST-JSON>

Prints every streamed response frame as one JSON line and exits 0 on a
Report, nonzero on a named rejection or execution error.

REQUESTS (the JSON forms of goc-proto's Request enum; optional fields
may be omitted):
  '\"Status\"'       load/limit counters (free; answered while draining)
  '\"Metrics\"'      the live telemetry registry, printed as Prometheus-
                   style text exposition (free; protocol v2)
  '\"Shutdown\"'     drain in-flight work and stop the server
  '{\"RunEnsemble\":{\"spec\":{\"name\":\"wire\",\"miners\":1000,\"replicas\":16,
     \"horizon_days\":30.0,\"seed\":7}}}'
  '{\"RunExperiment\":{\"experiment\":\"prop1\",\"quick\":true}}'
  '{\"Sweep\":{\"runs\":[{\"experiment\":\"prop1\",\"quick\":true}, ...]}}'

The free verbs also take a lowercase shorthand that needs no shell
escaping: '{\"request\":\"status\"}', '{\"request\":\"metrics\"}',
'{\"request\":\"shutdown\"}'.";

/// Parsed command-line options (manual parsing; no CLI dependency).
#[derive(Debug, Default)]
struct Options {
    positional: Vec<String>,
    powers: Option<Vec<u64>>,
    rewards: Option<Vec<u64>>,
    scheduler: Option<String>,
    seed: u64,
    miners: usize,
    days: f64,
    shock_day: f64,
    json: bool,
    quick: bool,
    spec: Option<String>,
    out: Option<String>,
    threads: Option<usize>,
    turnover: Option<u32>,
    replicas: Option<usize>,
    addr: Option<String>,
    max_sessions: Option<usize>,
    max_inflight: Option<usize>,
    metrics: bool,
    trace: Option<String>,
    http: Option<String>,
    help: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Options {
            seed: 0,
            miners: 120,
            days: 80.0,
            shock_day: 30.0,
            ..Options::default()
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("flag {flag} needs a value"))
            };
            match flag.as_str() {
                "--powers" => o.powers = Some(parse_list(value()?)?),
                "--rewards" => o.rewards = Some(parse_list(value()?)?),
                "--scheduler" => o.scheduler = Some(value()?.to_string()),
                "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--miners" => o.miners = value()?.parse().map_err(|e| format!("--miners: {e}"))?,
                "--days" => o.days = value()?.parse().map_err(|e| format!("--days: {e}"))?,
                "--shock-day" => {
                    o.shock_day = value()?.parse().map_err(|e| format!("--shock-day: {e}"))?
                }
                "--json" => o.json = true,
                "--quick" => o.quick = true,
                "--spec" => o.spec = Some(value()?.to_string()),
                "--out" => o.out = Some(value()?.to_string()),
                "--threads" => {
                    o.threads = Some(value()?.parse().map_err(|e| format!("--threads: {e}"))?)
                }
                "--turnover" => {
                    let pct: u32 = value()?.parse().map_err(|e| format!("--turnover: {e}"))?;
                    if pct == 0 || pct > 100 {
                        return Err("--turnover: percentage must be in 1..=100".into());
                    }
                    o.turnover = Some(pct);
                }
                "--replicas" => {
                    let n: usize = value()?.parse().map_err(|e| format!("--replicas: {e}"))?;
                    if n == 0 {
                        return Err("--replicas: replica count must be ≥ 1".into());
                    }
                    o.replicas = Some(n);
                }
                "--addr" => o.addr = Some(value()?.to_string()),
                // Degenerate service limits are parse errors, not
                // surprises at the first refused request.
                "--max-sessions" => {
                    let n: usize = value()?
                        .parse()
                        .map_err(|e| format!("--max-sessions: {e}"))?;
                    if n == 0 {
                        return Err("--max-sessions: session cap must be ≥ 1".into());
                    }
                    o.max_sessions = Some(n);
                }
                "--max-inflight" => {
                    let n: usize = value()?
                        .parse()
                        .map_err(|e| format!("--max-inflight: {e}"))?;
                    if n == 0 {
                        return Err("--max-inflight: in-flight cap must be ≥ 1".into());
                    }
                    o.max_inflight = Some(n);
                }
                "--metrics" => o.metrics = true,
                "--trace" => o.trace = Some(value()?.to_string()),
                "--http" => o.http = Some(value()?.to_string()),
                "--help" | "-h" => o.help = true,
                other if !other.starts_with('-') => o.positional.push(other.to_string()),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(o)
    }

    fn game(&self) -> Result<Game, String> {
        let powers = self
            .powers
            .as_ref()
            .ok_or("missing --powers (e.g. --powers 13,11,7)")?;
        let rewards = self
            .rewards
            .as_ref()
            .ok_or("missing --rewards (e.g. --rewards 17,10)")?;
        Game::build(powers, rewards).map_err(|e| e.to_string())
    }

    fn scheduler_kind(&self) -> Result<SchedulerKind, String> {
        let name = self.scheduler.as_deref().unwrap_or("round-robin");
        SchedulerKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!("unknown scheduler `{name}`"))
    }
}

fn parse_list(s: &str) -> Result<Vec<u64>, String> {
    s.split(',')
        .map(|part| {
            part.trim()
                .parse::<u64>()
                .map_err(|e| format!("`{part}`: {e}"))
        })
        .collect()
}

fn cmd_list() -> Result<(), String> {
    let mut table = Table::new(vec!["experiment", "regenerates"]);
    for experiment in experiments::registry() {
        table.row(vec![
            experiment.name().to_string(),
            experiment.describe().to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("run one with `goc run <experiment> [--json] [--quick] [--seed N]`");
    println!("`churn` also takes `--turnover PCT` (population turnover target, default 10%)");
    println!(
        "`ensemble` also takes `--replicas N` (Monte-Carlo replicas, default 64) and \
         `--threads N` (worker threads; results are thread-invariant)"
    );
    println!(
        "`serve` boots throwaway wire servers and hammers them with concurrent clients; \
         the standing service is `goc serve` (add `--metrics` for a final telemetry \
         exposition), queried with `goc request` — including the live registry via \
         `goc request <ADDR> '{{\"request\":\"metrics\"}}'`"
    );
    Ok(())
}

fn cmd_run(opts: &Options) -> Result<(), String> {
    let name = opts
        .positional
        .first()
        .ok_or("missing experiment name (try `goc list`)")?;
    let experiment = experiments::find(name)
        .ok_or_else(|| format!("unknown experiment `{name}` (try `goc list`)"))?;
    let ctx = RunContext {
        seed: opts.seed,
        quick: opts.quick,
        // Only pin a kind when the flag was given; experiments sweep all
        // bundled kinds otherwise.
        scheduler: match opts.scheduler {
            Some(_) => Some(opts.scheduler_kind()?),
            None => None,
        },
        turnover_pct: opts.turnover,
        replicas: opts.replicas,
        threads: opts
            .threads
            .unwrap_or_else(gameofcoins::analysis::default_threads),
        observe: Observe {
            tracer: recorder(opts.trace.is_some()),
            ..Observe::off()
        },
    };
    let report = experiment.run(&ctx);
    if opts.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_ascii());
        for artifact in &report.artifacts {
            experiments::write_results(&artifact.name, &artifact.contents);
        }
    }
    if let Some(path) = &opts.trace {
        dump_trace(path, &ctx.observe.tracer)?;
    }
    if report.passed() {
        Ok(())
    } else {
        let (ok, total) = report.check_counts();
        Err(format!(
            "experiment `{name}` failed ({ok}/{total} checks passed)"
        ))
    }
}

fn cmd_sweep(opts: &Options) -> Result<(), String> {
    let path = opts
        .spec
        .as_deref()
        .ok_or("missing --spec FILE (a JSON sweep specification)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec: SweepSpec =
        serde_json::from_str(&text).map_err(|e| format!("invalid sweep spec {path}: {e}"))?;
    let threads = opts
        .threads
        .unwrap_or_else(gameofcoins::analysis::default_threads);
    let reports = experiments::sweep(&spec, threads)?;
    let json = serde_json::to_string_pretty(&reports)
        .map_err(|e| format!("cannot serialize reports: {e}"))?;
    match &opts.out {
        Some(out) => {
            std::fs::write(out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
            for report in &reports {
                eprintln!("{}", report.summary_line());
            }
            eprintln!("[written {out}]");
        }
        None => println!("{json}"),
    }
    let failed: Vec<&str> = reports
        .iter()
        .filter(|r| !r.passed())
        .map(|r| r.experiment.as_str())
        .collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "sweep had failing experiments: {}",
            failed.join(", ")
        ))
    }
}

fn cmd_learn(opts: &Options) -> Result<(), String> {
    let game = opts.game()?;
    let kind = opts.scheduler_kind()?;
    let start = Configuration::uniform(CoinId(0), game.system()).map_err(|e| e.to_string())?;
    let mut sched = kind.build(opts.seed);
    let outcome = Dynamics::new(&game)
        .start(&start)
        .scheduler(sched.as_mut())
        .options(LearningOptions {
            record_path: true,
            ..LearningOptions::default()
        })
        .run()
        .map_err(|e| e.to_string())?;
    println!("start: {start}");
    for mv in &outcome.path {
        println!("  {mv}");
    }
    println!(
        "converged after {} steps at {} (scheduler: {})",
        outcome.steps, outcome.final_config, kind
    );
    let mut table = Table::new(vec!["miner", "power", "coin", "payoff"]);
    for m in game.system().miners() {
        table.row(vec![
            m.id().to_string(),
            m.power().to_string(),
            outcome.final_config.coin_of(m.id()).to_string(),
            game.payoff(m.id(), &outcome.final_config).to_string(),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

fn cmd_enumerate(opts: &Options) -> Result<(), String> {
    let game = opts.game()?;
    let eqs = equilibrium::enumerate_equilibria(&game, 1 << 22).map_err(|e| e.to_string())?;
    println!("{} pure equilibria:", eqs.len());
    let mut table = Table::new(vec!["#", "configuration", "welfare", "payoffs"]);
    for (i, s) in eqs.iter().enumerate() {
        let payoffs: Vec<String> = game
            .payoffs(s)
            .iter()
            .map(|p| fmt_f64(p.to_f64()))
            .collect();
        table.row(vec![
            i.to_string(),
            s.to_string(),
            fmt_f64(game.welfare(s).to_f64()),
            payoffs.join(" "),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

fn cmd_design(opts: &Options) -> Result<(), String> {
    let game = opts.game()?;
    let kind = opts.scheduler_kind()?;
    let (s0, sf) = equilibrium::two_equilibria(&game).map_err(|e| e.to_string())?;
    println!("steering the market from {s0} to {sf} …");
    let problem = DesignProblem::new(game, s0, sf).map_err(|e| e.to_string())?;
    let mut sched = kind.build(opts.seed);
    let outcome = design(
        &problem,
        sched.as_mut(),
        DesignOptions {
            verify_invariants: true,
            ..DesignOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut table = Table::new(vec!["stage", "iterations", "steps", "cost"]);
    for s in &outcome.stages {
        table.row(vec![
            s.stage.to_string(),
            s.iterations.to_string(),
            s.steps.to_string(),
            fmt_f64(s.cost),
        ]);
    }
    println!("{}", table.render());
    println!(
        "reached {} — total {} postings, {} steps, cost {}",
        outcome.final_config,
        outcome.total_iterations,
        outcome.total_steps,
        fmt_f64(outcome.total_cost)
    );
    Ok(())
}

fn cmd_serve(opts: &Options) -> Result<(), String> {
    let config = ServerConfig {
        addr: opts
            .addr
            .clone()
            .unwrap_or_else(|| "127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let config = ServerConfig {
        max_sessions: opts.max_sessions.unwrap_or(config.max_sessions),
        max_inflight: opts.max_inflight.unwrap_or(config.max_inflight),
        threads: opts.threads.unwrap_or(config.threads),
        ..config
    };
    // `--trace` and `--http`'s `/trace` both need a live recorder;
    // without either the server keeps the free disabled one.
    let observe = Observe {
        registry: Registry::new(),
        tracer: recorder(opts.trace.is_some() || opts.http.is_some()),
    };
    // The handle outlives the server: with --metrics the final
    // exposition prints after the drain summary, and --trace dumps the
    // recorder after it.
    let server = registry_server(config, observe.clone()).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "goc-server listening on {addr} (protocol v{})",
        gameofcoins::proto::PROTOCOL_VERSION
    );
    if let Some(http_addr) = &opts.http {
        let exporter = HttpExporter::bind(http_addr, observe.clone())
            .map_err(|e| format!("cannot bind the HTTP exporter on {http_addr}: {e}"))?;
        let bound = exporter.local_addr().map_err(|e| e.to_string())?;
        exporter.spawn();
        println!("goc-http listening on {bound} (GET /metrics /healthz /trace)");
    }
    println!("stop it with: goc request {addr} '\"Shutdown\"'");
    let summary = server.run().map_err(|e| e.to_string())?;
    println!(
        "drained: {} requests served, {} rejected by name",
        summary.served, summary.rejected
    );
    if opts.metrics {
        print!("{}", observe.registry.render_text());
    }
    if let Some(path) = &opts.trace {
        dump_trace(path, &observe.tracer)?;
    }
    Ok(())
}

/// An enabled flight recorder at the default lane capacity when `on`,
/// else the free disabled one.
fn recorder(on: bool) -> TraceRecorder {
    if on {
        TraceRecorder::new(DEFAULT_LANE_CAPACITY)
    } else {
        TraceRecorder::disabled()
    }
}

/// Writes the recorder's retained window as Chrome Trace Event Format
/// JSON (load it at chrome://tracing or ui.perfetto.dev) and says what
/// landed — including how many records the ring overwrote.
fn dump_trace(path: &str, tracer: &TraceRecorder) -> Result<(), String> {
    let snapshot = tracer.snapshot();
    std::fs::write(path, snapshot.to_chrome_json())
        .map_err(|e| format!("cannot write trace {path}: {e}"))?;
    eprintln!(
        "[trace: {} events written to {path}, {} overwritten in the ring]",
        snapshot.events.len(),
        snapshot.dropped
    );
    Ok(())
}

fn cmd_request(opts: &Options) -> Result<(), String> {
    let [addr, json] = opts.positional.as_slice() else {
        return Err("usage: goc request <ADDR> <REQUEST-JSON> (see `goc request --help`)".into());
    };
    let request = parse_request(json)?;
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let reply = client.request(request).map_err(|e| e.to_string())?;
    // Frames print exactly as they travelled: one JSON envelope per
    // line — except a metrics report, whose payload IS a text format;
    // it prints verbatim so the output pastes straight into tooling.
    for frame in &reply.frames {
        if let Response::Report(ReportPayload::Metrics { text, .. }) = &frame.response {
            print!("{text}");
            continue;
        }
        println!(
            "{}",
            serde_json::to_string(frame).map_err(|e| format!("cannot render frame: {e}"))?
        );
    }
    match reply.terminal() {
        Response::Report(_) => Ok(()),
        Response::Rejected { reason, detail } => Err(format!("rejected ({reason}): {detail}")),
        Response::Error { detail } => Err(format!("execution failed: {detail}")),
        other => Err(format!("stream ended without a terminal frame: {other:?}")),
    }
}

/// Parses the request argument: the canonical `Request` JSON forms,
/// plus a `{\"request\":\"status|metrics|shutdown\"}` shorthand for the
/// free verbs (lowercase, so it is typeable without shell escapes for
/// the enum's exact capitalization).
fn parse_request(json: &str) -> Result<Request, String> {
    let canonical: Result<Request, _> = serde_json::from_str(json);
    if let Ok(request) = canonical {
        return Ok(request);
    }
    let value: serde_json::Value =
        serde_json::from_str(json).map_err(|e| format!("invalid request JSON: {e}"))?;
    if let serde_json::Value::Object(pairs) = &value {
        let shorthand = pairs.iter().find_map(|(key, v)| match v {
            serde_json::Value::String(name) if key == "request" => Some(name.as_str()),
            _ => None,
        });
        if let Some(name) = shorthand {
            return match name {
                "status" => Ok(Request::Status),
                "metrics" => Ok(Request::Metrics),
                "shutdown" => Ok(Request::Shutdown),
                other => Err(format!(
                    "unknown request shorthand `{other}` (status | metrics | shutdown)"
                )),
            };
        }
    }
    Err(format!(
        "invalid request JSON `{json}` (see `goc request --help`)"
    ))
}

fn cmd_simulate(opts: &Options) -> Result<(), String> {
    // With --spec, run an arbitrary declarative scenario from disk;
    // otherwise the classic parameterized Figure 1 market.
    let (mut sim, coin_names, description) = match &opts.spec {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let spec: ScenarioSpec = serde_json::from_str(&text)
                .map_err(|e| format!("invalid scenario spec {path}: {e}"))?;
            let sim = spec.build().map_err(|e| e.to_string())?;
            let names: Vec<String> = spec.chains.iter().map(|c| c.name.clone()).collect();
            let description = format!(
                "scenario `{}` over {} days ({} miners)",
                spec.name,
                spec.horizon_days,
                spec.miners.count()
            );
            (sim, names, description)
        }
        None => {
            let sim = btc_bch(BtcBchParams {
                num_miners: opts.miners,
                horizon_days: opts.days,
                shock_day: opts.shock_day,
                revert_day: opts.shock_day + 15.0,
                seed: opts.seed.max(1),
                ..BtcBchParams::default()
            });
            let description = format!(
                "BTC/BCH migration over {} days ({} miners)",
                opts.days, opts.miners
            );
            (sim, vec!["BTC".into(), "BCH".into()], description)
        }
    };
    let metrics = sim.run().clone();
    let days: Vec<f64> = metrics.times.iter().map(|t| t / DAY).collect();
    // Chart the shares of every coin beyond the first (the first coin's
    // share is their complement); single-coin scenarios chart coin 0.
    let charted: Vec<usize> = if metrics.num_coins() > 1 {
        (1..metrics.num_coins()).collect()
    } else {
        vec![0]
    };
    let shares: Vec<Vec<f64>> = charted
        .iter()
        .map(|&c| {
            (0..metrics.len())
                .map(|t| metrics.hashrate_share(c, t))
                .collect()
        })
        .collect();
    const SYMBOLS: [char; 6] = ['#', 'o', '*', '+', 'x', '%'];
    let labels: Vec<String> = charted
        .iter()
        .map(|&c| format!("{} share", coin_names[c]))
        .collect();
    let series: Vec<Series<'_>> = charted
        .iter()
        .zip(&shares)
        .zip(&labels)
        .enumerate()
        .map(|(i, ((_, values), label))| Series {
            name: label,
            values,
            symbol: SYMBOLS[i % SYMBOLS.len()],
        })
        .collect();
    println!("hashrate share — {description}:");
    println!("{}", ascii_chart(&days, &series, 72, 12));
    let blocks: Vec<String> = sim
        .chains()
        .iter()
        .zip(&coin_names)
        .map(|(chain, name)| format!("{name} {}", chain.height()))
        .collect();
    println!(
        "blocks: {}; switches: {}",
        blocks.join(", "),
        metrics.total_switches
    );
    Ok(())
}
