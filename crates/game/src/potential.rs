//! Potential functions (paper §3 and Appendices A–C).
//!
//! * [`compare`] — the ordinal potential of **Theorem 1** as an order:
//!   configurations are ranked by the lexicographic order of their sorted
//!   `⟨RPU_c(s), c⟩` lists. Every better-response step strictly increases
//!   this order, so arbitrary better-response learning converges.
//! * [`PotentialTable`] — the literal integer `rank(list(s))` of the paper,
//!   computed by exhaustive enumeration for small games.
//! * [`symmetric_potential`] — Appendix B's `H(s) = Σ_c 1/M_c(s)` for the
//!   constant-reward case, which strictly *decreases* along better-response
//!   steps.
//! * [`four_cycle_defect`] / [`has_exact_potential`] — the Monderer–Shapley
//!   4-cycle condition behind **Proposition 1** (the game has no exact
//!   potential in general).

use std::cmp::Ordering;
use std::collections::BTreeSet;

use crate::config::{Configuration, ConfigurationIter};
use crate::error::GameError;
use crate::game::Game;
use crate::ids::{CoinId, MinerId};
use crate::ratio::{Extended, Ratio};

/// The sorted list `list(s)` of `⟨RPU_c(s), c⟩` pairs, ascending
/// lexicographically (paper §3).
///
/// # Examples
///
/// ```
/// use goc_game::{potential, CoinId, Configuration, Game};
///
/// let game = Game::build(&[2, 1], &[1, 1])?;
/// let s = Configuration::uniform(CoinId(0), game.system())?;
/// let list = potential::rpu_list(&game, &s);
/// assert_eq!(list[0].1, CoinId(0)); // occupied coin sorts first
/// assert!(list[1].0.is_infinite()); // empty coin has RPU +inf
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn rpu_list(game: &Game, s: &Configuration) -> Vec<(Extended, CoinId)> {
    let masses = s.masses(game.system());
    let mut list: Vec<(Extended, CoinId)> = game
        .system()
        .coin_ids()
        .map(|c| (game.rpu(c, &masses), c))
        .collect();
    list.sort();
    list
}

/// Compares two configurations by the ordinal potential of Theorem 1.
///
/// `compare(g, s, s') == Ordering::Less` means `H(s) < H(s')`; a better
/// response step from `s` always yields `Less` against its successor.
///
/// # Examples
///
/// ```
/// use std::cmp::Ordering;
/// use goc_game::{potential, CoinId, Configuration, Game, MinerId};
///
/// let game = Game::build(&[2, 1], &[1, 1])?;
/// let s = Configuration::uniform(CoinId(0), game.system())?;
/// let s2 = s.with_move(MinerId(1), CoinId(1)); // a better response of p1
/// assert_eq!(potential::compare(&game, &s, &s2), Ordering::Less);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compare(game: &Game, a: &Configuration, b: &Configuration) -> Ordering {
    rpu_list(game, a).cmp(&rpu_list(game, b))
}

/// Whether the potential strictly increases from `before` to `after` —
/// what Theorem 1 guarantees for every better-response step.
pub fn strictly_increases(game: &Game, before: &Configuration, after: &Configuration) -> bool {
    compare(game, before, after) == Ordering::Less
}

/// The literal integer potential `H(s) = rank(list(s))` of Theorem 1,
/// tabulated by exhaustive enumeration. Only for small games.
///
/// # Examples
///
/// ```
/// use goc_game::{potential::PotentialTable, CoinId, Configuration, Game, MinerId};
///
/// let game = Game::build(&[2, 1], &[1, 1])?;
/// let table = PotentialTable::new(&game, 1 << 16)?;
/// let s = Configuration::uniform(CoinId(0), game.system())?;
/// let s2 = s.with_move(MinerId(1), CoinId(1));
/// assert!(table.rank(&game, &s) < table.rank(&game, &s2));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PotentialTable {
    lists: Vec<Vec<(Extended, CoinId)>>,
}

impl PotentialTable {
    /// Enumerates all configurations of `game` and tabulates the distinct
    /// RPU lists in ascending order.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::TooLarge`] if `|C|^n` exceeds `limit`.
    pub fn new(game: &Game, limit: u128) -> Result<Self, GameError> {
        check_enumeration_size(game, limit)?;
        let set: BTreeSet<Vec<(Extended, CoinId)>> = ConfigurationIter::new(game.system())
            .map(|s| rpu_list(game, &s))
            .collect();
        Ok(PotentialTable {
            lists: set.into_iter().collect(),
        })
    }

    /// The rank of `s`'s RPU list among all attainable lists (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `s` belongs to a different game than the table was built
    /// for (its list is then absent).
    pub fn rank(&self, game: &Game, s: &Configuration) -> usize {
        let list = rpu_list(game, s);
        self.lists
            .binary_search(&list)
            .expect("configuration belongs to the tabulated game")
    }

    /// Number of distinct potential levels.
    pub fn levels(&self) -> usize {
        self.lists.len()
    }
}

/// Appendix B's potential for the symmetric case (`F` constant):
/// `H(s) = Σ_c 1/M_c(s)`, which strictly **decreases** along every better
/// response step. Returns [`Extended::Infinite`] when some coin is
/// unoccupied (the paper implicitly considers configurations covering all
/// coins; see `DESIGN.md`).
pub fn symmetric_potential(game: &Game, s: &Configuration) -> Extended {
    let masses = s.masses(game.system());
    let mut total = Ratio::ZERO;
    for c in game.system().coin_ids() {
        let m = masses.mass_of(c);
        if m == 0 {
            return Extended::Infinite;
        }
        total = total + Ratio::new(1, m as i128).expect("mass is positive");
    }
    Extended::Finite(total)
}

/// The Monderer–Shapley 4-cycle defect used to prove **Proposition 1**.
///
/// Consider the closed path `s → (s₋p, cp) → ((s₋p,cp)₋q, cq) → back`,
/// where the deviators alternate `p, q, p, q` and the final two steps undo
/// the first two. A game admits an *exact* potential iff this sum of the
/// deviators' payoff changes is zero for every such cycle (Monderer &
/// Shapley 1996, Theorem 2.8).
pub fn four_cycle_defect(
    game: &Game,
    s: &Configuration,
    p: MinerId,
    q: MinerId,
    cp: CoinId,
    cq: CoinId,
) -> Ratio {
    let s0 = s.clone();
    let s1 = s0.with_move(p, cp);
    let s2 = s1.with_move(q, cq);
    let s3 = s2.with_move(p, s0.coin_of(p));
    // Fourth step returns q to s0.coin_of(q), i.e. back to s0.
    let d1 = game.payoff(p, &s1) - game.payoff(p, &s0);
    let d2 = game.payoff(q, &s2) - game.payoff(q, &s1);
    let d3 = game.payoff(p, &s3) - game.payoff(p, &s2);
    let d4 = game.payoff(q, &s0) - game.payoff(q, &s3);
    d1 + d2 + d3 + d4
}

/// Exhaustively checks the Monderer–Shapley 4-cycle condition: returns `true` iff
/// every 4-cycle defect vanishes, i.e. the game has an exact potential.
///
/// # Errors
///
/// Returns [`GameError::TooLarge`] if `|C|^n` exceeds `limit`.
pub fn has_exact_potential(game: &Game, limit: u128) -> Result<bool, GameError> {
    check_enumeration_size(game, limit)?;
    let n = game.system().num_miners();
    let k = game.system().num_coins();
    for s in ConfigurationIter::new(game.system()) {
        for pi in 0..n {
            for qi in 0..n {
                if pi == qi {
                    continue;
                }
                let (p, q) = (MinerId(pi), MinerId(qi));
                for cpi in 0..k {
                    let cp = CoinId(cpi);
                    if cp == s.coin_of(p) {
                        continue;
                    }
                    for cqi in 0..k {
                        let cq = CoinId(cqi);
                        if cq == s.coin_of(q) {
                            continue;
                        }
                        if !four_cycle_defect(game, &s, p, q, cp, cq).is_zero() {
                            return Ok(false);
                        }
                    }
                }
            }
        }
    }
    Ok(true)
}

/// Guards exhaustive enumeration: errors if `|C|^n > limit`, reporting
/// the exact configuration count (saturated on overflow).
pub(crate) fn check_enumeration_size(game: &Game, limit: u128) -> Result<(), GameError> {
    let configurations = crate::config::num_configurations(game.system());
    if configurations > limit {
        return Err(GameError::TooLarge {
            configurations,
            limit,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use crate::game::Game;

    fn cfg(game: &Game, coins: &[usize]) -> Configuration {
        Configuration::new(coins.iter().map(|&c| CoinId(c)).collect(), game.system()).unwrap()
    }

    #[test]
    fn potential_increases_on_better_response() {
        let g = Game::build(&[2, 1], &[1, 1]).unwrap();
        let s = cfg(&g, &[0, 0]);
        let masses = s.masses(g.system());
        for p in g.system().miner_ids() {
            for c in g.better_responses(p, &s, &masses) {
                let next = s.with_move(p, c);
                assert!(strictly_increases(&g, &s, &next), "{p} -> {c}");
            }
        }
    }

    #[test]
    fn potential_table_orders_all_levels() {
        let g = Game::build(&[2, 1], &[3, 2]).unwrap();
        let table = PotentialTable::new(&g, 1 << 16).unwrap();
        assert!(table.levels() >= 2);
        // Table rank ordering must agree with the comparator on all pairs.
        let all: Vec<Configuration> = ConfigurationIter::new(g.system()).collect();
        for a in &all {
            for b in &all {
                let by_rank = table.rank(&g, a).cmp(&table.rank(&g, b));
                assert_eq!(by_rank, compare(&g, a, b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn table_guard_rejects_large_games() {
        let g = Game::build(&[1; 30], &[1, 1, 1, 1]).unwrap();
        assert!(matches!(
            PotentialTable::new(&g, 1 << 20),
            Err(GameError::TooLarge { .. })
        ));
    }

    #[test]
    fn prop1_no_exact_potential() {
        // The paper's counterexample: powers (2,1), rewards (1,1).
        let g = Game::build(&[2, 1], &[1, 1]).unwrap();
        let s1 = cfg(&g, &[0, 0]);
        // The specific cycle from the proof (s1→s2→s3→s4→s1, deviators
        // alternating p2, p1): the paper computes the sum of deviator
        // payoff changes as 2/3.
        let defect = four_cycle_defect(&g, &s1, MinerId(1), MinerId(0), CoinId(1), CoinId(1));
        assert_eq!(defect, Ratio::new(2, 3).unwrap());
        assert!(!has_exact_potential(&g, 1 << 16).unwrap());
    }

    #[test]
    fn trivial_game_has_exact_potential() {
        // A single coin: no moves at all, so the condition holds vacuously.
        let g = Game::build(&[2, 1], &[1]).unwrap();
        assert!(has_exact_potential(&g, 1 << 16).unwrap());
    }

    #[test]
    fn symmetric_potential_decreases() {
        let g = Game::build(&[2, 1, 1, 3], &[5, 5]).unwrap();
        let s = cfg(&g, &[0, 0, 1, 1]);
        let masses = s.masses(g.system());
        for p in g.system().miner_ids() {
            for c in g.better_responses(p, &s, &masses) {
                let next = s.with_move(p, c);
                let before = symmetric_potential(&g, &s);
                let after = symmetric_potential(&g, &next);
                assert!(after < before, "{p} -> {c}: {before} !> {after}");
            }
        }
    }

    #[test]
    fn symmetric_potential_infinite_on_empty_coin() {
        let g = Game::build(&[2, 1], &[5, 5]).unwrap();
        assert_eq!(
            symmetric_potential(&g, &cfg(&g, &[0, 0])),
            Extended::Infinite
        );
        assert!(matches!(
            symmetric_potential(&g, &cfg(&g, &[0, 1])),
            Extended::Finite(_)
        ));
    }

    #[test]
    fn rpu_list_sorted() {
        let g = Game::build(&[4, 2, 1], &[9, 3, 7]).unwrap();
        let s = cfg(&g, &[0, 1, 2]);
        let list = rpu_list(&g, &s);
        for w in list.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(list.len(), 3);
    }
}
