//! Profit-switching miner agents.
//!
//! Each agent periodically estimates revenue-per-hash on every coin and
//! moves to the most profitable one if the gain clears an inertia
//! threshold (switching has real frictions: pool setup, payout latency,
//! reconfiguration). This is precisely the behaviour the paper's §1
//! motivates with whattomine.com, and its *better-response* structure is
//! what the static game abstracts.

use serde::{Deserialize, Serialize};

/// How agents estimate per-coin profitability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OracleKind {
    /// The whattomine formula: `reward × price / difficulty`. Reacts to
    /// congestion only through difficulty-adjustment lag — the realistic
    /// model, and the one used for Figure 1.
    Difficulty,
    /// The static-game better response: `reward × price / (hashrate ×
    /// spacing)`, i.e. congestion priced instantaneously. Used by the
    /// cross-validation experiment to tie the simulator to `goc-game`.
    Hashrate,
}

/// What an agent does after a profitability evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Keep mining the current coin (or stay offline).
    Stay,
    /// Move hashrate to another coin.
    Switch(usize),
    /// Power the rig off: every coin mines at a loss net of electricity.
    PowerOff,
    /// Power the rig back on onto the given coin.
    PowerOn(usize),
}

/// A profit-switching miner.
///
/// `cost_per_hash` models electricity (fiat per hash): the whattomine
/// profitability the paper's §1 cites is *net* of power cost, and a
/// miner whose best net margin is negative powers off entirely —
/// capitulation, the mechanism behind bear-market hashrate declines and
/// minority-chain death spirals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MinerAgent {
    /// Hash power (hashes per second).
    pub hashrate: f64,
    /// The coin currently mined (last mined, when offline).
    pub coin: usize,
    /// Seconds between profitability evaluations.
    pub eval_interval: f64,
    /// Relative gain required to switch (0.05 = move only for +5%).
    pub inertia: f64,
    /// Electricity cost per hash (fiat); 0.0 disables capitulation.
    pub cost_per_hash: f64,
    /// Whether the rig is currently hashing.
    pub active: bool,
}

impl Default for MinerAgent {
    fn default() -> Self {
        MinerAgent {
            hashrate: 1.0,
            coin: 0,
            eval_interval: 3_600.0,
            inertia: 0.0,
            cost_per_hash: 0.0,
            active: true,
        }
    }
}

impl MinerAgent {
    /// Picks an action given per-coin *revenue*-per-hash estimates
    /// (electricity is netted internally).
    ///
    /// Rules, in order: an offline rig powers on iff some coin clears a
    /// positive net margin (by more than the inertia factor relative to
    /// zero is vacuous, so any positive margin suffices); an online rig
    /// powers off iff every coin's net margin is negative; otherwise it
    /// switches to the best coin if that beats the current net margin by
    /// more than the inertia factor. Ties prefer the lowest coin index.
    pub fn decide(&self, revenue_per_hash: &[f64]) -> Decision {
        debug_assert!(self.coin < revenue_per_hash.len());
        let net = |c: usize| revenue_per_hash[c] - self.cost_per_hash;
        let (mut best, mut best_value) = (0usize, net(0));
        for c in 1..revenue_per_hash.len() {
            if net(c) > best_value {
                best = c;
                best_value = net(c);
            }
        }
        if !self.active {
            return if best_value > 0.0 {
                Decision::PowerOn(best)
            } else {
                Decision::Stay
            };
        }
        if best_value < 0.0 {
            // best_value bounds net(self.coin) from above, so every coin
            // is a strict loss. Exactly-zero margins stay online (no
            // churn at the break-even point).
            return Decision::PowerOff;
        }
        let current = net(self.coin);
        if best != self.coin
            && best_value > current.max(0.0) * (1.0 + self.inertia) + f64::MIN_POSITIVE
        {
            Decision::Switch(best)
        } else {
            Decision::Stay
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent(coin: usize, inertia: f64) -> MinerAgent {
        MinerAgent {
            hashrate: 10.0,
            coin,
            inertia,
            ..MinerAgent::default()
        }
    }

    #[test]
    fn moves_to_clearly_better_coin() {
        assert_eq!(agent(0, 0.05).decide(&[1.0, 2.0]), Decision::Switch(1));
    }

    #[test]
    fn inertia_blocks_marginal_gains() {
        assert_eq!(agent(0, 0.10).decide(&[1.0, 1.05]), Decision::Stay);
        assert_eq!(agent(0, 0.01).decide(&[1.0, 1.05]), Decision::Switch(1));
    }

    #[test]
    fn never_moves_to_equal_or_worse() {
        assert_eq!(agent(1, 0.0).decide(&[1.0, 1.0]), Decision::Stay);
        assert_eq!(agent(1, 0.0).decide(&[0.5, 1.0]), Decision::Stay);
    }

    #[test]
    fn ties_prefer_lowest_index_among_strictly_better() {
        // Both alternatives equal and strictly better: pick coin 0.
        assert_eq!(agent(2, 0.0).decide(&[2.0, 2.0, 1.0]), Decision::Switch(0));
    }

    #[test]
    fn zero_current_profitability_switches_on_any_gain() {
        assert_eq!(agent(0, 0.5).decide(&[0.0, 0.1]), Decision::Switch(1));
    }

    #[test]
    fn powers_off_when_everything_is_unprofitable() {
        let costly = MinerAgent {
            cost_per_hash: 2.0,
            ..agent(0, 0.05)
        };
        assert_eq!(costly.decide(&[1.0, 1.5]), Decision::PowerOff);
        // A single profitable coin keeps (or switches) it online.
        assert_eq!(costly.decide(&[1.0, 2.5]), Decision::Switch(1));
        assert_eq!(costly.decide(&[2.5, 1.0]), Decision::Stay);
    }

    #[test]
    fn powers_on_when_margins_return() {
        let offline = MinerAgent {
            cost_per_hash: 2.0,
            active: false,
            ..agent(0, 0.05)
        };
        assert_eq!(offline.decide(&[1.0, 1.5]), Decision::Stay);
        assert_eq!(offline.decide(&[1.0, 2.5]), Decision::PowerOn(1));
        // Comes back onto the best net-margin coin, not the old one.
        assert_eq!(offline.decide(&[3.0, 2.5]), Decision::PowerOn(0));
    }

    #[test]
    fn switches_away_from_a_loss_making_coin() {
        // Current coin is below cost but another clears it: move, even
        // though the relative-gain rule would be degenerate at a
        // negative base.
        let costly = MinerAgent {
            cost_per_hash: 2.0,
            ..agent(0, 0.50)
        };
        assert_eq!(costly.decide(&[1.0, 2.1]), Decision::Switch(1));
    }

    #[test]
    fn free_power_agents_never_power_off() {
        assert_eq!(agent(0, 0.0).decide(&[0.0, 0.0]), Decision::Stay);
    }
}
