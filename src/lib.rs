//! # gameofcoins
//!
//! A production-quality Rust reproduction of **"Game of Coins"**
//! (Alexander Spiegelman, Idit Keidar, Moshe Tennenholtz; ICDCS 2021):
//! strategic mining in multi-cryptocurrency markets as a game, the
//! convergence of arbitrary better-response learning (Theorem 1), and
//! dynamic reward design steering learners between equilibria
//! (Algorithm 2 / Theorem 2) — plus the proof-of-work market substrate
//! needed to regenerate the paper's Figure 1 mechanistically.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`game`] — the exact-arithmetic mining game: systems, configurations,
//!   payoffs, the ordinal potential, equilibria, assumption checkers.
//! * [`learning`] — better-response dynamics under pluggable schedulers.
//! * [`design`] — Algorithms 1–2: reward design between equilibria with
//!   invariant verification and cost accounting.
//! * [`chain`] — proof-of-work chains: difficulty adjustment, fee market,
//!   whale transactions, mining races.
//! * [`market`] — exchange-rate processes and scheduled shocks.
//! * [`sim`] — the discrete-event simulator coupling all of the above;
//!   scenarios are declarative [`sim::spec::ScenarioSpec`] values (the
//!   Figure 1 preset and friends live there, with convenience builders
//!   in [`sim::scenario`]).
//! * [`analysis`] — statistics, tables, charts, welfare/security
//!   metrics, and the structured [`analysis::report::RunReport`] that
//!   every registered experiment returns.
//! * [`experiments`] — the experiment registry: every figure and claim
//!   of the paper as a named, runnable [`experiments::Experiment`]
//!   (drive it with `goc list` / `goc run <name>` / `goc sweep`).
//! * [`proto`] — the versioned line-delimited JSON wire protocol:
//!   request/response envelopes, the framing [`proto::Connection`],
//!   and the blocking [`proto::Client`].
//! * [`server`] — the TCP service: session loop, admission control
//!   (bounded in-flight queue, per-session budgets, replica/population
//!   caps), graceful drain (serve it with `goc serve`, query it with
//!   `goc request`).
//!
//! ## Quickstart
//!
//! ```
//! use gameofcoins::game::{equilibrium, Game};
//! use gameofcoins::learning::{Dynamics, SchedulerKind};
//! use gameofcoins::design::{design, DesignOptions, DesignProblem};
//!
//! // Six miners with distinct powers over two coins (weights 17 vs 10).
//! let game = Game::build(&[13, 11, 7, 5, 3, 2], &[17, 10])?;
//!
//! // Better-response learning converges from anywhere (Theorem 1) …
//! let start = gameofcoins::game::Configuration::uniform(
//!     gameofcoins::game::CoinId(0), game.system())?;
//! let mut sched = SchedulerKind::UniformRandom.build(7);
//! let outcome = Dynamics::new(&game)
//!     .start(&start)
//!     .scheduler(sched.as_mut())
//!     .run()?;
//! assert!(outcome.converged);
//!
//! // … and a manipulator can steer the market between any two equilibria
//! // at bounded cost (Algorithm 2).
//! let (s0, sf) = equilibrium::two_equilibria(&game)?;
//! let problem = DesignProblem::new(game, s0, sf.clone())?;
//! let design_outcome = design(&problem, sched.as_mut(), DesignOptions::default())?;
//! assert_eq!(design_outcome.final_config, sf);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use goc_analysis as analysis;
pub use goc_chain as chain;
pub use goc_design as design;
pub use goc_experiments as experiments;
pub use goc_game as game;
pub use goc_learning as learning;
pub use goc_market as market;
pub use goc_proto as proto;
pub use goc_server as server;
pub use goc_sim as sim;
pub use goc_telemetry as telemetry;

/// Convenient single-import prelude for examples and downstream users.
pub mod prelude {
    pub use goc_analysis::{ascii_chart, fmt_f64, RunReport, Series, Summary, Table, TableData};
    pub use goc_chain::{Blockchain, ChainParams, DifficultyRule};
    pub use goc_design::{design, DesignOptions, DesignOutcome, DesignProblem};
    pub use goc_experiments::{registry, Experiment, RunContext, SweepSpec};
    pub use goc_game::{
        equilibrium, potential, CoinId, Configuration, Game, GameError, MinerId, Ratio, Rewards,
        System,
    };
    pub use goc_learning::{Dynamics, LearningOptions, LearningOutcome, Scheduler, SchedulerKind};
    pub use goc_market::{
        Gbm, Market, Price, ScheduledShock, WhaleBudget, WhaleInjection, WhalePlan,
    };
    pub use goc_proto::{Client, Connection, ProtoError, RejectReason, Request, Response};
    pub use goc_server::{Backend, Server, ServerConfig};
    pub use goc_sim::{MinerAgent, OracleKind, ScenarioSpec, SimConfig, Simulation};
}
