//! # goc-game — the "Game of Coins" mining game
//!
//! Core model of *Game of Coins* (Spiegelman, Keidar, Tennenholtz; ICDCS
//! 2021): a finite set of miners `Π` with integer mining powers chooses
//! among a finite set of coins `C` with rewards `F : C → R₊`; coin `c`
//! divides `F(c)` among its miners proportionally to power, so miner `p`
//! earns `u_p(s) = m_p · F(s.p) / M_{s.p}(s)`.
//!
//! This crate provides:
//!
//! * the exact-rational arithmetic backbone ([`ratio`]),
//! * the model itself ([`system`], [`config`], [`game`]),
//! * the ordinal potential of Theorem 1 and the no-exact-potential
//!   machinery of Proposition 1 ([`potential`]),
//! * equilibrium existence, enumeration, and the two-equilibria
//!   construction of §4 ([`equilibrium`]),
//! * checkers for the paper's Assumptions 1–2 ([`assumptions`]),
//! * deterministic random-game generation ([`gen`]),
//! * the incremental state layer for large populations ([`tracker`]),
//!   the churn delta vocabulary it applies and undoes ([`delta`]), and
//!   the lazy move-discovery protocol schedulers run on ([`source`]), and
//! * the paper's canonical example games ([`paper`]).
//!
//! Learning dynamics live in `goc-learning`; reward design (Algorithms 1
//! and 2) lives in `goc-design`.
//!
//! ## Quickstart
//!
//! ```
//! use goc_game::{equilibrium, potential, CoinId, Configuration, Game, MinerId};
//!
//! // Two miners (powers 2 and 1) over two unit-reward coins.
//! let game = Game::build(&[2, 1], &[1, 1])?;
//!
//! // Everyone starts on c0; p1 has a better response to c1.
//! let s = Configuration::uniform(CoinId(0), game.system())?;
//! let masses = s.masses(game.system());
//! assert_eq!(game.best_response(MinerId(1), &s, &masses), Some(CoinId(1)));
//!
//! // Taking it strictly increases the ordinal potential (Theorem 1) …
//! let s2 = s.with_move(MinerId(1), CoinId(1));
//! assert!(potential::strictly_increases(&game, &s, &s2));
//!
//! // … and lands in one of the game's two pure equilibria.
//! assert!(game.is_stable(&s2));
//! assert_eq!(equilibrium::enumerate_equilibria(&game, 1 << 16)?.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod assumptions;
pub mod config;
pub mod delta;
pub mod equilibrium;
pub mod error;
pub mod game;
pub mod gen;
pub mod ids;
mod key;
pub mod paper;
pub mod paths;
pub mod potential;
pub mod ratio;
pub mod snapshot;
pub mod source;
pub mod system;
pub mod tracker;

pub use config::{num_configurations, Configuration, ConfigurationIter, Masses};
pub use delta::{AppliedDelta, Delta};
pub use error::GameError;
pub use game::{Game, Move, Rewards};
pub use ids::{CoinId, MinerId};
pub use ratio::{Extended, Ratio};
pub use snapshot::{Snapshot, SnapshotError};
pub use source::{Extremum, MoveSource};
pub use system::{Power, System, SystemBuilder, MAX_UNIT};
pub use tracker::{ActiveSubgame, MassTracker};
