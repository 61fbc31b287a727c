//! [`RegistryBackend`]: the production [`goc_server::Backend`] lowering
//! wire experiment runs onto the experiment registry.
//!
//! `goc-server` cannot depend on this crate (the `serve` experiment
//! lives here, which would close a dependency cycle), so experiment
//! execution is injected: the server handles `RunEnsemble` itself,
//! chunks a `Sweep` across its workers itself, and asks a
//! [`goc_server::Backend`] only whether an experiment exists and to run
//! one. This module provides the registry-aware implementation the
//! `goc serve` verb and the `serve` experiment boot with, plus
//! [`registry_server`], the one-call constructor both use.

use goc_analysis::RunReport;
use goc_proto::ExperimentRequest;
use goc_server::{Backend, Server, ServerConfig, ServerError};
use goc_telemetry::Observe;

use crate::{find, RunContext};

/// A [`Backend`] over [`crate::registry`]: every registered experiment
/// is servable, each run in the [`RunContext::of`] its request
/// describes.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegistryBackend;

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
        Ok(experiment.run(&RunContext::of(request, threads.max(1), observe)))
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
    use goc_proto::{Client, RejectReason, ReportPayload, Request};

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
        // The server chunks a wire sweep by its worker count and runs
        // every entry through the registry backend: 3 runs on 2 workers
        // is two chunks, so two `Progress` frames.
        let config = ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        };
        let server = registry_server(config, Observe::off()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());
        let mut client = Client::connect(addr).unwrap();
        let runs = vec![
            ExperimentRequest::quick("prop1"),
            ExperimentRequest::quick("appendix_b"),
            ExperimentRequest::quick("prop2"),
        ];
        let reply = client.request(Request::Sweep { runs }).unwrap();
        let Some(ReportPayload::Sweep(reports)) = reply.report() else {
            panic!("expected a sweep report, got {:?}", reply.terminal());
        };
        let names: Vec<&str> = reports.iter().map(|r| r.experiment.as_str()).collect();
        assert_eq!(names, vec!["prop1", "appendix_b", "prop2"]);
        assert_eq!(reply.progress_frames(), 2);
        let bad = client
            .request(Request::Sweep {
                runs: vec![ExperimentRequest::quick("nope")],
            })
            .unwrap();
        let (reason, detail) = bad.rejection().expect("an unknown run is refused");
        assert_eq!(reason, RejectReason::UnknownExperiment);
        assert!(detail.contains("nope"));
        let ack = client.request(Request::Shutdown).unwrap();
        assert_eq!(ack.report(), Some(&ReportPayload::ShutdownAck));
        assert_eq!(handle.join().unwrap().served, 1);
    }
}
