//! [`RegistryBackend`]: the production [`goc_server::Backend`] lowering
//! wire requests onto the experiment registry.
//!
//! `goc-server` cannot depend on this crate (the `serve` experiment
//! lives here, which would close a dependency cycle), so experiment
//! execution is injected: the server handles `RunEnsemble` itself and
//! delegates `RunExperiment`/`Sweep` to a [`goc_server::Backend`]. This
//! module provides the registry-aware implementation the `goc serve`
//! verb and the `serve` experiment boot with, plus [`registry_server`],
//! the one-call constructor both use.

use goc_analysis::{try_parallel_map, RunReport};
use goc_proto::ExperimentRequest;
use goc_server::{Backend, Server, ServerConfig, ServerError};
use goc_telemetry::Observe;

use crate::{find, RunContext};

/// A [`Backend`] over [`crate::registry`]: every registered experiment
/// is servable, and sweeps fan across the shared work-stealing
/// executor exactly like `goc sweep` does locally.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegistryBackend;

/// Builds the [`RunContext`] a wire request describes, observed on the
/// server's handle. Sweep runs pin `threads` to 1 (the sweep itself is
/// the parallelism — the same convention as [`crate::sweep`]); single
/// runs get the server's pool.
fn context_of(request: &ExperimentRequest, threads: usize, observe: &Observe) -> RunContext {
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

impl Backend for RegistryBackend {
    fn has_experiment(&self, name: &str) -> bool {
        find(name).is_some()
    }

    fn run_experiment(
        &self,
        request: &ExperimentRequest,
        threads: usize,
        observe: &Observe,
    ) -> Result<RunReport, String> {
        let experiment = find(&request.experiment)
            .ok_or_else(|| format!("unknown experiment `{}`", request.experiment))?;
        Ok(experiment.run(&context_of(request, threads.max(1), observe)))
    }

    fn sweep(
        &self,
        runs: &[ExperimentRequest],
        threads: usize,
        observe: &Observe,
        progress: &mut dyn FnMut(usize, usize),
    ) -> Result<Vec<RunReport>, String> {
        // Validate every name up front so a miss never reaches the
        // executor as a panic (the server's admission control already
        // rejects unknown names; this keeps the backend safe alone).
        for run in runs {
            if find(&run.experiment).is_none() {
                return Err(format!("unknown experiment `{}`", run.experiment));
            }
        }
        let threads = threads.max(1);
        let total = runs.len();
        let mut reports = Vec::with_capacity(total);
        // Chunked so the session can stream a `Progress` frame per
        // completed batch instead of going silent for the whole sweep.
        for chunk in runs.chunks(threads) {
            let batch = try_parallel_map(chunk, threads, |run| {
                find(&run.experiment)
                    .expect("validated above")
                    .run(&context_of(run, 1, observe))
            })
            .map_err(|e| e.to_string())?;
            reports.extend(batch);
            progress(reports.len(), total);
        }
        Ok(reports)
    }
}

/// Binds a server backed by the full experiment registry — the
/// production configuration behind `goc serve` — recording on
/// `observe` (see [`Server::bind_observed`]).
///
/// # Errors
///
/// As [`Server::bind`]: a degenerate config or an unbindable address.
pub fn registry_server(config: ServerConfig, observe: Observe) -> Result<Server, ServerError> {
    Server::bind_observed(config, Box::new(RegistryBackend), observe)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_sees_the_whole_registry() {
        let backend = RegistryBackend;
        for experiment in crate::registry() {
            assert!(backend.has_experiment(experiment.name()));
        }
        assert!(!backend.has_experiment("no_such_experiment"));
    }

    #[test]
    fn backend_runs_experiments_and_names_misses() {
        let backend = RegistryBackend;
        let report = backend
            .run_experiment(&ExperimentRequest::quick("prop1"), 2, &Observe::off())
            .unwrap();
        assert_eq!(report.experiment, "prop1");
        assert!(report.passed());
        let miss = backend
            .run_experiment(&ExperimentRequest::quick("nonsense"), 2, &Observe::off())
            .unwrap_err();
        assert!(miss.contains("nonsense"));
    }

    #[test]
    fn backend_sweeps_report_chunked_progress_in_input_order() {
        let backend = RegistryBackend;
        let runs = vec![
            ExperimentRequest::quick("prop1"),
            ExperimentRequest::quick("appendix_b"),
            ExperimentRequest::quick("prop2"),
        ];
        let mut ticks: Vec<(usize, usize)> = Vec::new();
        let reports = backend
            .sweep(&runs, 2, &Observe::off(), &mut |done, total| {
                ticks.push((done, total))
            })
            .unwrap();
        let names: Vec<&str> = reports.iter().map(|r| r.experiment.as_str()).collect();
        assert_eq!(names, vec!["prop1", "appendix_b", "prop2"]);
        assert_eq!(ticks.last(), Some(&(3, 3)));
        assert!(ticks.iter().all(|&(done, total)| done <= total));
        let bad = backend.sweep(
            &[ExperimentRequest::quick("nope")],
            2,
            &Observe::off(),
            &mut |_, _| {},
        );
        assert!(bad.unwrap_err().contains("nope"));
    }
}
