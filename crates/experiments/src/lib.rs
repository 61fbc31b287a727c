//! # goc-experiments — the experiment registry
//!
//! Every figure and claim of the paper is regenerated by a registered
//! [`Experiment`]: a named unit that takes a [`RunContext`] and returns
//! a structured [`RunReport`] (tables, charts, pass/fail checks, CSV
//! artifacts). [`registry`] lists them all; the `goc` CLI drives them
//! (`goc list`, `goc run <name> [--json]`, `goc sweep --spec FILE`).
//!
//! | name | paper artifact |
//! |------|----------------|
//! | `fig1` | Figure 1(a)/(b): BTC→BCH price jump and hashrate migration |
//! | `prop1` | Proposition 1: no exact potential |
//! | `thm1` | Theorem 1: all better-response learning converges |
//! | `appendix_a` | Appendix A: greedy equilibrium construction |
//! | `appendix_b` | Appendix B: symmetric-case ordinal potential |
//! | `prop2` | Proposition 2: a better equilibrium exists |
//! | `alg2` | Algorithm 2 / Theorem 2: reward design reaches s_f |
//! | `speed` | Discussion: convergence speed across market shapes |
//! | `attack` | Discussion: steering into a 51%-dominated configuration |
//! | `asym` | Discussion: the asymmetric (restricted coins) case |
//! | `cross` | Static game vs mechanistic simulator cross-validation |
//! | `ablation` | naive single-shot designer vs Algorithm 2; H₁ strictness fix |
//! | `sync` | synchronous best response cycles (why the model is sequential) |
//! | `poa` | equilibrium welfare spread, reachability, exact path lengths |
//! | `scale` | large-population engine: incremental dynamics + cohorts at 100k miners |
//! | `schedulers` | incremental scheduler protocol: every SchedulerKind at 100k+ miners |
//! | `churn` | dynamic population: miner churn + coin lifecycle deltas at 100k miners |
//! | `ensemble` | Monte-Carlo replica ensembles: equilibrium distributions at 100k miners |
//! | `serve` | service layer under load: wire protocol, admission control, graceful drain |
//!
//! ```
//! use goc_experiments::{registry, RunContext};
//!
//! let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
//! assert!(names.contains(&"fig1"));
//!
//! let ctx = RunContext { quick: true, ..RunContext::default() };
//! let report = goc_experiments::find("prop1").unwrap().run(&ctx);
//! assert!(report.passed());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::path::{Path, PathBuf};

use goc_analysis::{parallel_map, RunReport};
use goc_proto::ExperimentRequest;
use goc_telemetry::Observe;
use serde::{Deserialize, Serialize};

pub mod experiments;
pub mod service;

/// Shared inputs of an experiment run.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Seed offset folded into every internal RNG seed, so the same
    /// experiment can be replicated across seeds (`goc sweep`).
    pub seed: u64,
    /// Worker threads for internal parameter sweeps.
    pub threads: usize,
    /// Reduced trial counts for smoke tests and CI.
    pub quick: bool,
    /// Restrict scheduler sweeps to one kind (`None` = all bundled
    /// kinds). Named in sweep spec files via serde (e.g.
    /// `"scheduler": "MinGain"`); honoured by the `schedulers` and
    /// `churn` experiments.
    pub scheduler: Option<goc_learning::SchedulerKind>,
    /// Population-turnover target in percent for churn sweeps
    /// (`None` = the experiment default, 10). Set by `goc run churn
    /// --turnover N` and sweep spec files.
    pub turnover_pct: Option<u32>,
    /// Monte-Carlo replica count for the `ensemble` experiment's
    /// flagship run (`None` = the experiment default, 64 full / 8
    /// quick). Set by `goc run ensemble --replicas N` and sweep spec
    /// files.
    pub replicas: Option<usize>,
    /// Where the run's metrics and trace records go ([`Observe::off`]
    /// by default). Experiments that run ensembles hand it on; `goc run
    /// --trace` puts an enabled recorder here, and a server hands its
    /// own handle to the experiments it runs.
    pub observe: Observe,
}

impl Default for RunContext {
    fn default() -> Self {
        RunContext {
            seed: 0,
            threads: goc_analysis::default_threads(),
            quick: false,
            scheduler: None,
            turnover_pct: None,
            replicas: None,
            observe: Observe::off(),
        }
    }
}

impl RunContext {
    /// The context an [`ExperimentRequest`] describes — a sweep-file
    /// entry or a wire request — run on `threads` workers and observed
    /// on `observe`. Unset knobs take their defaults: seed 0, full mode,
    /// and the experiment's own scheduler, turnover and replica count.
    pub fn of(request: &ExperimentRequest, threads: usize, observe: &Observe) -> Self {
        RunContext {
            seed: request.seed.unwrap_or(0),
            threads,
            quick: request.quick.unwrap_or(false),
            scheduler: request.scheduler,
            turnover_pct: request.turnover_pct,
            replicas: request.replicas,
            observe: observe.clone(),
        }
    }

    /// `full` when `quick` is unset, else `quick` — picks trial counts.
    pub fn scale(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The scheduler kinds an experiment should sweep: all bundled kinds,
    /// or just the one the context pins.
    pub fn scheduler_kinds(&self) -> Vec<goc_learning::SchedulerKind> {
        match self.scheduler {
            Some(kind) => vec![kind],
            None => goc_learning::SchedulerKind::ALL.to_vec(),
        }
    }
}

/// A registered, runnable experiment.
pub trait Experiment: Send + Sync {
    /// Registry name (stable; used by `goc run <name>`).
    fn name(&self) -> &'static str;

    /// One-line description of the paper artifact it regenerates.
    fn describe(&self) -> &'static str;

    /// Runs the experiment, returning its structured report.
    ///
    /// Reports are deterministic in the context: same `ctx`, same
    /// report (internal sweeps preserve input order).
    fn run(&self, ctx: &RunContext) -> RunReport;
}

/// All registered experiments, in the paper's presentation order.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(experiments::fig1::Fig1),
        Box::new(experiments::prop1::Prop1),
        Box::new(experiments::thm1::Thm1),
        Box::new(experiments::appendix_a::AppendixA),
        Box::new(experiments::appendix_b::AppendixB),
        Box::new(experiments::prop2::Prop2),
        Box::new(experiments::alg2::Alg2),
        Box::new(experiments::speed::Speed),
        Box::new(experiments::attack::Attack),
        Box::new(experiments::asym::Asym),
        Box::new(experiments::cross::Cross),
        Box::new(experiments::ablation::Ablation),
        Box::new(experiments::sync::Sync),
        Box::new(experiments::poa::Poa),
        Box::new(experiments::scale::Scale),
        Box::new(experiments::schedulers::Schedulers),
        Box::new(experiments::churn::Churn),
        Box::new(experiments::ensemble::Ensemble),
        Box::new(experiments::serve::Serve),
    ]
}

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<Box<dyn Experiment>> {
    registry().into_iter().find(|e| e.name() == name)
}

/// A sweep specification (`goc sweep --spec FILE`): a list of experiment
/// runs fanned across worker threads, reported in input order. Each
/// entry is the wire's [`ExperimentRequest`], so a spec file's `runs`
/// and a wire `Sweep`'s `runs` are the same JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// The runs, in output order.
    pub runs: Vec<ExperimentRequest>,
}

impl SweepSpec {
    /// A sweep over every registered experiment (quick mode).
    pub fn all_quick() -> Self {
        SweepSpec {
            runs: registry()
                .iter()
                .map(|e| ExperimentRequest::quick(e.name()))
                .collect(),
        }
    }

    /// Validates that every named experiment exists.
    ///
    /// # Errors
    ///
    /// Returns the first unknown experiment name.
    pub fn validate(&self) -> Result<(), String> {
        for run in &self.runs {
            if find(&run.experiment).is_none() {
                return Err(format!("unknown experiment `{}`", run.experiment));
            }
        }
        Ok(())
    }
}

/// Runs a sweep across `threads` workers via
/// [`goc_analysis::parallel_map`]; reports come back in input order
/// regardless of completion order.
///
/// # Errors
///
/// Fails fast (before running anything) if the spec names an unknown
/// experiment.
pub fn sweep(spec: &SweepSpec, threads: usize) -> Result<Vec<RunReport>, String> {
    spec.validate()?;
    Ok(parallel_map(&spec.runs, threads, |run| {
        // Experiments' internal sweeps stay single-threaded: the sweep
        // itself is the parallelism.
        let ctx = RunContext::of(run, 1, &Observe::off());
        find(&run.experiment).expect("validated above").run(&ctx)
    }))
}

/// Directory where experiment CSVs are written (`results/` under the
/// workspace root, or the current directory as a fallback).
pub fn results_dir() -> PathBuf {
    let candidates = [
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"),
        PathBuf::from("results"),
    ];
    for c in &candidates {
        if std::fs::create_dir_all(c).is_ok() {
            return c.clone();
        }
    }
    PathBuf::from(".")
}

/// Writes `contents` to `results/<name>` and reports the path on stdout.
pub fn write_results(name: &str, contents: &str) {
    let path = results_dir().join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_writable() {
        let dir = results_dir();
        let probe = dir.join(".probe");
        std::fs::write(&probe, "ok").unwrap();
        std::fs::remove_file(&probe).unwrap();
    }

    #[test]
    fn registry_names_are_unique_and_findable() {
        let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 19);
        for name in &names {
            assert!(find(name).is_some(), "{name} not findable");
            assert!(!find(name).unwrap().describe().is_empty());
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate registry names");
    }

    #[test]
    fn sweep_validates_experiment_names() {
        let spec = SweepSpec {
            runs: vec![ExperimentRequest::quick("nonsense")],
        };
        assert!(spec.validate().is_err());
        assert!(sweep(&spec, 2).is_err());
        assert!(SweepSpec::all_quick().validate().is_ok());
    }
}
