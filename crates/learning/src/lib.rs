//! # goc-learning — better-response learning dynamics
//!
//! Executes the paper's *better-response learning*: arbitrary sequences of
//! individual improvement steps over a `goc-game` mining game. Theorem 1
//! proves every such sequence converges to a pure equilibrium; this crate
//! lets you run the sequences under a spectrum of [`Scheduler`]s (from
//! round-robin best response to adversarially slow min-gain) and audit the
//! ordinal-potential monotonicity along the way.
//!
//! Every run is assembled by the [`Dynamics`] builder — the single entry
//! point. A run starts from a configuration ([`Dynamics::start`]) or a
//! live tracker ([`Dynamics::from_tracker`], e.g. a snapshot fork), and
//! one optional [`StepObserver`] closure watches its steps.
//! [`run_with_churn`] and [`run_incremental_from`] are one-line builder
//! calls kept for their narrow signatures.
//!
//! ```
//! use goc_game::{CoinId, Configuration, Game};
//! use goc_learning::{Dynamics, SchedulerKind};
//!
//! let game = Game::build(&[5, 3, 2], &[9, 4])?;
//! let start = Configuration::uniform(CoinId(0), game.system())?;
//! for kind in SchedulerKind::ALL {
//!     let mut sched = kind.build(42);
//!     let outcome = Dynamics::new(&game)
//!         .start(&start)
//!         .scheduler(sched.as_mut())
//!         .run()?;
//!     assert!(outcome.converged); // Theorem 1, for every scheduler
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dynamics;
pub mod instrument;
pub mod scheduler;
pub mod simultaneous;
pub mod stats;

pub use dynamics::{
    run_incremental_from, run_with_churn, ChurnEvent, ChurnPlan, Dynamics, LearningError,
    LearningOptions, LearningOutcome,
};
pub use instrument::{DynamicsObserver, StepObserver};
pub use scheduler::{
    LargestMinerFirst, MaxGain, MinGain, RoundRobin, Scheduler, SchedulerError, SchedulerKind,
    SmallestMinerFirst, UniformRandom,
};
pub use simultaneous::{run_simultaneous, SyncOutcome};
pub use stats::{convergence_trials, ConvergenceSummary};
