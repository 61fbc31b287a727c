//! # goc-sim — discrete-event market/mining simulator
//!
//! Couples `goc-chain` proof-of-work chains, `goc-market` price processes,
//! and a population of profit-switching miner agents into a deterministic
//! discrete-event simulation. This is the mechanistic counterpart of the
//! paper's static game: agents follow the whattomine-style profitability
//! signal the paper's §1 describes, and the headline scenario regenerates
//! **Figure 1** (the Nov 2017 BTC→BCH hashrate migration).
//!
//! ```
//! use goc_sim::scenario::{btc_bch, BtcBchParams};
//!
//! let mut sim = btc_bch(BtcBchParams {
//!     num_miners: 40,
//!     horizon_days: 3.0,
//!     shock_day: 1.0,
//!     revert_day: 2.0,
//!     ..BtcBchParams::default()
//! });
//! let metrics = sim.run();
//! println!("{}", metrics.to_csv(&["BTC", "BCH"]));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agent;
pub mod bridge;
pub mod engine;
pub mod event;
pub mod fixtures;
pub mod metrics;
pub mod scenario;
pub mod spec;

pub use agent::{MinerAgent, OracleKind};
pub use bridge::{
    churn_time_zero, churn_timeline, churn_universe, coin_weights, snapshot_game, stride_deltas,
    ChurnUniverse,
};
pub use engine::{SimConfig, Simulation};
pub use event::{Event, EventKind, EventQueue};
pub use metrics::SimMetrics;
pub use spec::{
    Assignment, ChainFlavor, ChainSpec, ChurnSpec, CohortChurnSpec, CohortSpec, CoinEventSpec,
    CoinLifecycle, DifficultyInit, MinerPopulation, MinerSpec, PriceSpec, ScenarioSpec, ShockSpec,
    SimChurn, SpecError, WhaleSpec,
};
