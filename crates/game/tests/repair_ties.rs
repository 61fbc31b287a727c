//! Property suite for the decision cache's in-place repair of the groups
//! on a shift's two coins, on games built to tie: every reward and every
//! power drawn from two values, so post-move payoffs of different coins
//! are often exactly equal. A group on the vacated coin keeps its cached
//! best only while it still beats the risen payoff, a group on the
//! joined coin is displaced only by the vacated coin (the lower coin id
//! winning a tie), and a stable group on the joined coin is re-probed.
//! A launch is repaired as a vacated coin; a retirement, and undoing a
//! launch or a retirement, re-probe every group. Under random moves,
//! arrivals, departures, launches, retirements and undos, every active
//! miner's [`MoveSource::improving_move_for`] must equal the best
//! response of the dense active subgame recomputed from scratch.

use proptest::prelude::*;

use goc_game::{
    CoinId, Configuration, Delta, Game, GameError, MassTracker, MinerId, Move, MoveSource,
};

/// A tie-prone game: 4–9 miners of power 1 or 2 over 3–5 coins of
/// reward 1 or 2, a random start, a random initial activity mask (miner
/// 0 always active) and one dormant coin, whose would-be active
/// residents start on the next coin instead.
fn tie_prone_game() -> impl Strategy<Value = (Game, Configuration, Vec<bool>, Vec<bool>)> {
    (4usize..10, 3usize..6).prop_flat_map(|(n, k)| {
        let powers = proptest::collection::vec(1u64..3, n);
        let rewards = proptest::collection::vec(1u64..3, k);
        let assignment = proptest::collection::vec(0usize..k, n);
        let active = proptest::collection::vec(0u8..4, n);
        (powers, rewards, assignment, active, 0..k).prop_map(move |(p, r, a, active, dormant)| {
            let game = Game::build(&p, &r).expect("valid parameters");
            // Three in four miners start active.
            let active: Vec<bool> = active
                .iter()
                .enumerate()
                .map(|(i, &x)| i == 0 || x != 0)
                .collect();
            let coins = a
                .into_iter()
                .zip(&active)
                .map(|(c, &on)| CoinId(if on && c == dormant { (c + 1) % k } else { c }))
                .collect();
            let config = Configuration::new(coins, game.system()).expect("valid assignment");
            let live = (0..k).map(|c| c != dormant).collect();
            (game, config, active, live)
        })
    })
}

/// Asserts that every miner's cached pick is the oracle's best response
/// over the dense active subgame (dormant miners have none).
fn assert_picks_match_oracle(src: &mut MoveSource<'_>) -> Result<(), TestCaseError> {
    let sub = src.tracker().active_subgame().expect("an active miner");
    let masses = sub.config.masses(sub.game.system());
    prop_assert_eq!(src.is_stable(), sub.game.is_stable(&sub.config));
    let miners = src.game().system().num_miners();
    let mut dense_of = vec![None; miners];
    for (dense, &p) in sub.miners.iter().enumerate() {
        dense_of[p.index()] = Some(MinerId(dense));
    }
    let config = src.config().clone();
    for p in (0..miners).map(MinerId) {
        let expected = dense_of[p.index()].and_then(|dp| {
            let to = sub.game.best_response(dp, &sub.config, &masses)?;
            Some(Move {
                miner: p,
                from: config.coin_of(p),
                to: sub.coins[to.index()],
            })
        });
        prop_assert_eq!(src.improving_move_for(p), expected, "{} in {}", p, config);
    }
    Ok(())
}

/// One step of a driven sequence.
enum Op {
    Apply(Delta),
    Undo,
}

/// The next operation from three raw draws: a move (twice as likely as
/// the others) to a live coin, an arrival, a departure, a coin launch, a
/// coin retirement, or an undo. `None` when the draw does not apply (no
/// dormant miner, a last active miner, no dormant coin, fewer than three
/// live coins to retire from, an empty undo stack).
fn choose(src: &MoveSource<'_>, op: usize, a: usize, b: usize) -> Option<Op> {
    let system = src.game().system();
    let tracker = src.tracker();
    let (active, dormant): (Vec<MinerId>, Vec<MinerId>) = system
        .miner_ids()
        .partition(|&p| tracker.is_miner_active(p));
    let (live, unlaunched): (Vec<CoinId>, Vec<CoinId>) =
        system.coin_ids().partition(|&c| tracker.is_coin_active(c));
    let coin = live[b % live.len()];
    match op % 7 {
        0 | 1 => Some(Op::Apply(Delta::Move {
            miner: active[a % active.len()],
            to: coin,
        })),
        2 if !dormant.is_empty() => Some(Op::Apply(Delta::InsertMiner {
            miner: dormant[a % dormant.len()],
            coin: (a % 2 == 1).then_some(coin),
        })),
        3 if active.len() >= 2 => Some(Op::Apply(Delta::RemoveMiner {
            miner: active[a % active.len()],
        })),
        4 if !unlaunched.is_empty() => Some(Op::Apply(Delta::LaunchCoin {
            coin: unlaunched[b % unlaunched.len()],
        })),
        // Two live coins must remain.
        5 if live.len() >= 3 => Some(Op::Apply(Delta::RetireCoin { coin })),
        6 if tracker.depth() > 0 => Some(Op::Undo),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn repaired_picks_match_the_oracle_on_tied_games(
        (game, start, active, live) in tie_prone_game(),
        ops in proptest::collection::vec((0usize..64, 0usize..64, 0usize..64), 1..40),
    ) {
        let tracker = MassTracker::with_activity(&game, &start, &active, &live)
            .expect("no active miner starts on the dormant coin");
        let mut src = MoveSource::over(tracker);
        assert_picks_match_oracle(&mut src)?;
        for (op, a, b) in ops {
            match choose(&src, op, a, b) {
                Some(Op::Apply(delta)) => match src.apply_delta(delta) {
                    // Fails atomically: the oracle below sees the old state.
                    Ok(_) | Err(GameError::NoPlacement { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("{delta}: {e}"))),
                },
                Some(Op::Undo) => {
                    src.undo_delta().expect("a delta to undo");
                }
                None => continue,
            }
            assert_picks_match_oracle(&mut src)?;
        }
    }
}
