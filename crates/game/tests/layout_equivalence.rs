//! Property suite for the arena group index behind the sealed accessor
//! surface (`gid_of` / `members_of` / `min_member` / `successor_member`
//! / `member_count`): under random delta churn — including emptied
//! classes whose member slab is released and later reused by a
//! retire/relaunch cycle — every query must agree with a scratch
//! `BTreeSet` oracle rebuilt from the tracker's observable state.
//!
//! The small random games keep every class inside one storage run; a
//! second generator builds classes of hundreds of members that span
//! several runs and drives them with move orders that land inserts at
//! run fronts and in run middles, so runs split, drain and are dropped.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use goc_game::{CoinId, Configuration, Delta, Game, MassTracker, MinerId, Snapshot};

/// A random small game plus a random configuration.
fn game_and_config() -> impl Strategy<Value = (Game, Configuration)> {
    (3usize..8, 2usize..5).prop_flat_map(|(n, k)| {
        let powers = proptest::collection::vec(1u64..10, n);
        let rewards = proptest::collection::vec(1u64..200, k);
        let assignment = proptest::collection::vec(0usize..k, n);
        (powers, rewards, assignment).prop_map(|(p, r, a)| {
            let game = Game::build(&p, &r).expect("valid parameters");
            let config = Configuration::new(a.into_iter().map(CoinId).collect(), game.system())
                .expect("valid assignment");
            (game, config)
        })
    })
}

/// [`game_and_config`], restricted when `restrict` is odd: each miner
/// may mine its start coin plus the coins whose bits its seed sets.
fn any_game_and_config() -> impl Strategy<Value = (Game, Configuration)> {
    (
        game_and_config(),
        0usize..2,
        proptest::collection::vec(0usize..64, 3usize..7),
    )
        .prop_map(|((game, config), restrict, seeds)| {
            if restrict == 0 {
                return (game, config);
            }
            let k = game.system().num_coins();
            let rows: Vec<Vec<bool>> = game
                .system()
                .miner_ids()
                .map(|p| {
                    let bits = seeds[p.index() % seeds.len()];
                    (0..k)
                        .map(|c| c == config.coin_of(p).index() || (bits >> c) & 1 == 1)
                        .collect()
                })
                .collect();
            let game = game
                .with_restrictions(rows)
                .expect("every miner keeps its own coin");
            (game, config)
        })
}

/// Chooses the next delta from three raw random draws, keeping the
/// population non-degenerate (≥ 1 active miner, ≥ 1 live coin). The
/// launch/retire arms drive the slab free-list: retiring a coin empties
/// its groups (releasing their slabs), relaunching refills them.
fn choose_delta(tracker: &MassTracker<'_>, op: usize, a: usize, b: usize) -> Option<Delta> {
    let system = tracker.game().system();
    let active_miners: Vec<MinerId> = system
        .miner_ids()
        .filter(|&p| tracker.is_miner_active(p))
        .collect();
    let dormant_miners: Vec<MinerId> = system
        .miner_ids()
        .filter(|&p| !tracker.is_miner_active(p))
        .collect();
    let live_coins: Vec<CoinId> = system
        .coin_ids()
        .filter(|&c| tracker.is_coin_active(c))
        .collect();
    let dormant_coins: Vec<CoinId> = system
        .coin_ids()
        .filter(|&c| !tracker.is_coin_active(c))
        .collect();
    match op % 5 {
        0 if !active_miners.is_empty() => Some(Delta::Move {
            miner: active_miners[a % active_miners.len()],
            to: live_coins[b % live_coins.len()],
        }),
        1 if !dormant_miners.is_empty() => Some(Delta::InsertMiner {
            miner: dormant_miners[a % dormant_miners.len()],
            coin: if b.is_multiple_of(2) {
                None
            } else {
                Some(live_coins[b % live_coins.len()])
            },
        }),
        2 if active_miners.len() >= 2 => Some(Delta::RemoveMiner {
            miner: active_miners[a % active_miners.len()],
        }),
        3 if !dormant_coins.is_empty() => Some(Delta::LaunchCoin {
            coin: dormant_coins[a % dormant_coins.len()],
        }),
        4 if live_coins.len() >= 2 => Some(Delta::RetireCoin {
            coin: live_coins[a % live_coins.len()],
        }),
        _ => None,
    }
}

/// Rebuilds the group partition from scratch as ordered sets keyed by
/// the tracker's own group ids, then checks every sealed accessor
/// against it.
fn assert_matches_oracle(tracker: &MassTracker<'_>) -> Result<(), TestCaseError> {
    let system = tracker.game().system();
    let mut oracle: BTreeMap<u32, BTreeSet<MinerId>> = BTreeMap::new();
    for p in system.miner_ids() {
        if tracker.is_miner_active(p) {
            oracle.entry(tracker.gid_of(p)).or_default().insert(p);
        }
    }

    for gid in 0..tracker.group_count() as u32 {
        let members: Vec<MinerId> = tracker.members_of(gid).collect();
        prop_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "group {} iterates out of order: {:?}",
            gid,
            members
        );
        let expected = oracle.get(&gid).cloned().unwrap_or_default();
        prop_assert_eq!(
            members.iter().copied().collect::<BTreeSet<_>>(),
            expected.clone(),
            "group {} members diverged",
            gid
        );
        prop_assert_eq!(tracker.member_count(gid), expected.len());
        prop_assert_eq!(tracker.min_member(gid), expected.first().copied());

        // Successor queries from every interesting start point.
        let n = system.num_miners();
        for start in 0..=n {
            let start = MinerId(start);
            prop_assert_eq!(
                tracker.successor_member(gid, start),
                expected.range(start..).next().copied(),
                "group {} successor from {} diverged",
                gid,
                start
            );
        }
    }

    // Members of one group share a strategic class: same coin, same
    // power (and in unrestricted games, nothing else splits a class).
    for (gid, members) in &oracle {
        let rep = *members.first().expect("oracle groups are nonempty");
        for &p in members {
            prop_assert_eq!(tracker.coin_of(p), tracker.coin_of(rep));
            prop_assert_eq!(system.power_of(p), system.power_of(rep));
            prop_assert_eq!(tracker.gid_of(p), *gid);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arena accessors agree with the scratch oracle after every delta
    /// of a random churn sequence, and after the full rewind.
    #[test]
    fn arena_index_matches_btree_oracle(
        (game, start) in game_and_config(),
        ops in proptest::collection::vec((0usize..64, 0usize..64, 0usize..64), 1..40),
    ) {
        let mut tracker = MassTracker::new(&game, &start).expect("valid start");
        assert_matches_oracle(&tracker)?;
        let mut applied = 0usize;
        for &(op, a, b) in &ops {
            let Some(delta) = choose_delta(&tracker, op, a, b) else {
                continue;
            };
            if tracker.apply_delta(delta).is_ok() {
                applied += 1;
            }
            assert_matches_oracle(&tracker)?;
        }
        for _ in 0..applied {
            prop_assert!(tracker.undo_delta().is_some());
            assert_matches_oracle(&tracker)?;
        }
    }

    /// Slab reuse keeps emptied-then-refilled classes exact: drain a
    /// coin's groups via retirement (their slabs go to the free list),
    /// relaunch, and move miners back onto the coin (the slabs are
    /// reacquired) — the accessors must stay oracle-exact throughout.
    #[test]
    fn retire_relaunch_reuses_slabs_exactly(
        (game, start) in game_and_config(),
        coin in 0usize..4,
        movers in proptest::collection::vec(0usize..64, 1..8),
    ) {
        let k = game.system().num_coins();
        let target = CoinId(coin % k);
        let mut tracker = MassTracker::new(&game, &start).expect("valid start");
        if k < 2 {
            return Ok(());
        }
        tracker
            .apply_delta(Delta::RetireCoin { coin: target })
            .expect("unrestricted retirement relocates");
        assert_matches_oracle(&tracker)?;
        tracker
            .apply_delta(Delta::LaunchCoin { coin: target })
            .expect("relaunch of a retired coin");
        assert_matches_oracle(&tracker)?;
        let n = game.system().num_miners();
        for &m in &movers {
            tracker
                .apply_delta(Delta::Move { miner: MinerId(m % n), to: target })
                .expect("move onto the relaunched coin");
            assert_matches_oracle(&tracker)?;
        }
        while tracker.undo_delta().is_some() {}
        assert_matches_oracle(&tracker)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The bulk build is the runtime insert path in one pass: a tracker
    /// built with random activity masks equals an all-dormant tracker
    /// that receives the same miners in id order through
    /// `Delta::InsertMiner` onto their start coins — same group ids,
    /// members and cursor, and a byte-identical snapshot.
    #[test]
    fn bulk_build_matches_inserts_in_id_order(
        (game, start) in any_game_and_config(),
        miner_bits in 0u64..256,
        coin_bits in 1u64..32,
    ) {
        let system = game.system();
        let coin_active: Vec<bool> = system.coin_ids().map(|c| (coin_bits >> c.index()) & 1 == 1).collect();
        // A miner can only start active on a live coin.
        let miner_active: Vec<bool> = system
            .miner_ids()
            .map(|p| (miner_bits >> p.index()) & 1 == 1 && coin_active[start.coin_of(p).index()])
            .collect();
        let built = MassTracker::with_activity(&game, &start, &miner_active, &coin_active)
            .expect("active miners start on live coins");
        let dormant = vec![false; system.num_miners()];
        let mut grown = MassTracker::with_activity(&game, &start, &dormant, &coin_active)
            .expect("no active miner");
        for p in system.miner_ids().filter(|p| miner_active[p.index()]) {
            grown
                .apply_delta(Delta::InsertMiner { miner: p, coin: Some(start.coin_of(p)) })
                .expect("a live, permitted start coin");
        }
        for p in system.miner_ids().filter(|p| miner_active[p.index()]) {
            prop_assert_eq!(built.gid_of(p), grown.gid_of(p));
        }
        prop_assert_eq!(Snapshot::of(&built).encode(), Snapshot::of(&grown).encode());
        assert_matches_oracle(&built)?;
    }
}

/// A game whose classes span several member-storage runs: 600–2000
/// miners with one or two powers over two or three coins. Every miner
/// starts on coin 0, so that coin holds one or two classes of at least
/// 300 members.
fn multi_run_game() -> impl Strategy<Value = Game> {
    (600usize..2001, 1usize..3, 2usize..4).prop_flat_map(|(n, classes, k)| {
        let powers = proptest::collection::vec(1u64..10, classes);
        let rewards = proptest::collection::vec(1u64..200, k);
        (powers, rewards).prop_map(move |(classes, rewards)| {
            let powers: Vec<u64> = (0..n).map(|i| classes[i % classes.len()]).collect();
            Game::build(&powers, &rewards).expect("valid parameters")
        })
    })
}

/// Every miner id in one of three orders: descending (each insert lands
/// in front of its class), interleaved from both ends, or the even ids
/// ascending followed by the odd ids descending (inserts into the middle
/// of a class).
fn move_order(n: usize, kind: usize) -> Vec<MinerId> {
    let ids: Vec<usize> = match kind % 3 {
        0 => (0..n).rev().collect(),
        1 => (0..n)
            .map(|i| if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 })
            .collect(),
        _ => (0..n)
            .step_by(2)
            .chain((0..n).filter(|i| i % 2 == 1).rev())
            .collect(),
    };
    ids.into_iter().map(MinerId).collect()
}

/// Applies `delta`, checking the oracle every 97th application.
fn apply_checked(
    tracker: &mut MassTracker<'_>,
    delta: Delta,
    tick: &mut usize,
) -> Result<(), TestCaseError> {
    tracker.apply_delta(delta).expect("legal delta");
    *tick += 1;
    if tick.is_multiple_of(97) {
        assert_matches_oracle(tracker)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Classes spanning several runs stay oracle-exact while moves split
    /// and drain their runs, while retirements empty them onto the free
    /// list and moves onto the relaunched coin refill them, and through
    /// the full rewind.
    #[test]
    fn multi_run_classes_match_btree_oracle(
        game in multi_run_game(),
        kind in 0usize..3,
        keep in 2usize..5,
    ) {
        let n = game.system().num_miners();
        let k = game.system().num_coins();
        let start = Configuration::uniform(CoinId(0), game.system()).expect("valid start");
        let mut tracker = MassTracker::new(&game, &start).expect("valid start");
        assert_matches_oracle(&tracker)?;
        let mut tick = 0;
        // Spread everyone over the other coins, then bring all but every
        // `keep`-th miner back to coin 0 in another order.
        for (i, &p) in move_order(n, kind).iter().enumerate() {
            let to = CoinId(1 + i % (k - 1));
            apply_checked(&mut tracker, Delta::Move { miner: p, to }, &mut tick)?;
        }
        assert_matches_oracle(&tracker)?;
        for (i, &p) in move_order(n, kind + 1).iter().enumerate() {
            if i % keep != 0 {
                apply_checked(&mut tracker, Delta::Move { miner: p, to: CoinId(0) }, &mut tick)?;
            }
        }
        assert_matches_oracle(&tracker)?;
        // Retire/relaunch cycles: each retirement empties the coin's
        // multi-run classes; the moves back refill them.
        for cycle in 0..2 {
            let coin = CoinId(cycle % k);
            apply_checked(&mut tracker, Delta::RetireCoin { coin }, &mut tick)?;
            assert_matches_oracle(&tracker)?;
            prop_assert_eq!(tracker.mass_of(coin), 0);
            apply_checked(&mut tracker, Delta::LaunchCoin { coin }, &mut tick)?;
            for (i, &p) in move_order(n, kind + 2 + cycle).iter().enumerate() {
                if i % keep != 1 {
                    apply_checked(&mut tracker, Delta::Move { miner: p, to: coin }, &mut tick)?;
                }
            }
            assert_matches_oracle(&tracker)?;
        }
        while tracker.undo_delta().is_some() {
            tick += 1;
            if tick.is_multiple_of(97) {
                assert_matches_oracle(&tracker)?;
            }
        }
        prop_assert_eq!(tracker.config(), &start);
        assert_matches_oracle(&tracker)?;
    }
}
