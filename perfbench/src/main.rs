//! The Game-of-Coins service benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wire-1k|ensemble-100k|churn-sched-20k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` boots a `goc_server::Server` in this process, drives the
//! workload's closed loops over loopback TCP for `--seconds`, checks every
//! report, and prints the end-to-end metrics. `--trace 1` serves a fixed,
//! seed-chosen sample of the same requests and replays each through the
//! layers' public calls, printing the per-layer metrics; its length is
//! set by the sample, not by `--seconds`, so its counts repeat exactly
//! for a seed. The last line of standard output is one JSON object; a
//! summary for the noise record goes to standard error.

mod measure;
mod replay;
mod service;
mod workload;

use std::process::ExitCode;
use std::thread;
use std::time::Duration;

use workload::Workload;

/// A run still going after this is stuck (a server that stopped
/// answering, say): it exits with no result, inside the 180 s a run
/// may take.
const DEADLINE: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    thread::spawn(|| {
        thread::sleep(DEADLINE);
        eprintln!(
            "perfbench: no result after {} s; giving up",
            DEADLINE.as_secs()
        );
        std::process::exit(1);
    });
    let result = if args.trace {
        replay::run(args.workload, args.seed)
    } else {
        service::run(args.workload, args.seed, args.seconds)
    };
    match result {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}
