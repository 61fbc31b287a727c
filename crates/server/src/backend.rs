//! [`Backend`]: the experiment registry behind the session loop.
//!
//! The server crate deliberately does not depend on the experiment
//! registry (`goc-experiments` hosts the `serve` experiment, which
//! would make the dependency circular). Instead, experiment execution
//! is injected through this trait's two calls: an admission lookup and
//! one experiment run. `goc-experiments` provides the production
//! `RegistryBackend`, and [`EnsembleOnlyBackend`] serves deployments
//! (and tests) that only need ensemble/status traffic. The server owns
//! the fan-out: `RunEnsemble` goes to
//! [`goc_analysis::ensemble::run_observed`] directly, and a `Sweep` is
//! chunked across the server's workers with [`goc_analysis::parallel_map`],
//! one [`Backend::run_experiment`] per entry and one `Progress` frame per
//! chunk. Every backend run receives the server's [`Observe`] handle, so
//! the experiments it runs record where the server does.

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
}
