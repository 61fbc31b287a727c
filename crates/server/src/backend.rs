//! [`Backend`]: the compute substrate behind the session loop.
//!
//! The server crate deliberately does not depend on the experiment
//! registry (`goc-experiments` hosts the `serve` experiment, which
//! would make the dependency circular). Instead, experiment execution
//! is injected through this trait; `goc-experiments` provides the
//! production `RegistryBackend` lowering runs onto
//! `sweep::try_parallel_map`, and [`EnsembleOnlyBackend`] serves
//! deployments (and tests) that only need ensemble/status traffic.
//! `RunEnsemble` requests never reach the backend — the server lowers
//! them onto [`goc_analysis::ensemble::run_observed`] directly, which
//! already rides the shared work-stealing executor. Both backend calls
//! receive the server's [`Observe`] handle, so the experiments they run
//! record where the server does.

use goc_analysis::RunReport;
use goc_proto::ExperimentRequest;
use goc_telemetry::Observe;

/// Executes experiment requests on behalf of the server.
///
/// Implementations must be cheap to call concurrently from many
/// session threads; the server's in-flight gate bounds how many calls
/// run at once.
pub trait Backend: Send + Sync + 'static {
    /// Whether `name` is a runnable experiment (admission check — a
    /// miss rejects with `RejectReason::UnknownExperiment` before any
    /// work is queued).
    fn has_experiment(&self, name: &str) -> bool;

    /// Runs one experiment to completion on up to `threads` workers,
    /// recording on `observe`.
    ///
    /// # Errors
    ///
    /// A display string for the failed run (surfaced to the client as
    /// `Response::Error`).
    fn run_experiment(
        &self,
        request: &ExperimentRequest,
        threads: usize,
        observe: &Observe,
    ) -> Result<RunReport, String>;

    /// Runs a validated sweep, reporting `(done, total)` after each
    /// completed chunk so the session can stream `Progress` frames.
    ///
    /// # Errors
    ///
    /// As [`Backend::run_experiment`], for the first failing run.
    fn sweep(
        &self,
        runs: &[ExperimentRequest],
        threads: usize,
        observe: &Observe,
        progress: &mut dyn FnMut(usize, usize),
    ) -> Result<Vec<RunReport>, String>;
}

/// A [`Backend`] with no experiment registry: every experiment lookup
/// misses, so sessions can only submit `RunEnsemble`, `Status`, and
/// `Shutdown`. Useful for ensemble-serving deployments and for tests
/// that exercise admission control without the registry crate.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnsembleOnlyBackend;

impl Backend for EnsembleOnlyBackend {
    fn has_experiment(&self, _name: &str) -> bool {
        false
    }

    fn run_experiment(
        &self,
        request: &ExperimentRequest,
        _threads: usize,
        _observe: &Observe,
    ) -> Result<RunReport, String> {
        Err(format!(
            "no experiment registry in this server (requested `{}`)",
            request.experiment
        ))
    }

    fn sweep(
        &self,
        _runs: &[ExperimentRequest],
        _threads: usize,
        _observe: &Observe,
        _progress: &mut dyn FnMut(usize, usize),
    ) -> Result<Vec<RunReport>, String> {
        Err("no experiment registry in this server".to_string())
    }
}
