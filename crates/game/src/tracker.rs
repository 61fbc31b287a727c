//! Incremental game state for large populations.
//!
//! Every query on [`Game`] ([`Game::better_responses`],
//! [`crate::potential::rpu_list`], [`crate::potential::symmetric_potential`],
//! …) recomputes the per-coin mass table from the full miner vector, which
//! costs `O(miners)` before the `O(coins)` question is even asked. That is
//! fine for the paper's toy games and hopeless for 100k-miner populations.
//!
//! [`MassTracker`] is the incremental counterpart: it owns a configuration
//! and maintains, under single-delta transitions
//! ([`MassTracker::apply_delta`] / [`MassTracker::undo_delta`], with the
//! classic [`MassTracker::apply`] / [`MassTracker::undo`] as the move-only
//! shorthand),
//!
//! * the per-coin mass table `M_c(s)` — `O(1)` per move,
//! * a **group index** partitioning the *active* miners into strategic
//!   equivalence classes (same coin, same power, same coin restrictions).
//!   All members of a group share payoff, better-response set, and
//!   stability, so whole-population questions ([`MassTracker::is_stable`],
//!   [`MassTracker::find_improving_move`]) cost `O(groups × coins)`
//!   instead of `O(miners × coins)`. With cohort-structured populations
//!   (few distinct hashrate classes) `groups ≪ miners`.
//! * an **activity mask** over the declared miner/coin universe (the
//!   [`crate::delta`] churn device): dormant miners carry no mass and
//!   belong to no group; retired or unlaunched coins are not legal
//!   targets and drop out of every potential. The four population deltas
//!   ([`crate::Delta::InsertMiner`], [`crate::Delta::RemoveMiner`],
//!   [`crate::Delta::LaunchCoin`], [`crate::Delta::RetireCoin`]) splice
//!   the group index and patch masses/payoffs in one class-table lookup
//!   plus one slab edit (see below) — plus
//!   `O(residents × coins)` for a retirement's forced relocations —
//!   with **no rebuild**.
//!
//! The group index is a **flat arena**, not a tree. Each class's members
//! live in one slab: a short list of sorted runs of `u32` ids, each at
//! most `RUN` (256) long with its own head offset. A class is found by
//! one index into a dense table from `(coin, family)` to group id, where
//! a *family* is a `(power, restriction)` pair, and emptied classes hand
//! their slab to a free list for the next launch. The cost model per
//! member edit:
//!
//! * removing the minimum — the dominant pattern while dynamics
//!   converge — is a head bump, and inserting above the maximum is a
//!   push, both `O(1)`;
//! * an insert or removal anywhere else is a binary search over the
//!   run maxima plus a memmove inside one run (at most `RUN` ids); a run
//!   that overflows splits in two, and an emptied run is dropped;
//! * the minimum is `O(1)`, the successor two binary searches.
//!
//! A class of at most `RUN` members is a single run, which behaves like
//! the single sorted vector this layout replaced. That vector cost
//! `O(members)` per mid-class insert, and from a random start almost
//! every step (0.99 per step) inserts mid-class: 100 000 miners in 24
//! classes shifted 3 258 ids (26 KB) per insert, 200 000 miners 6 504.
//! With runs, no per-step term grows with the class.
//!
//! Every tracker comes out of one bulk loader, whether built by
//! [`MassTracker::new`] / [`MassTracker::with_activity`] or forked and
//! decoded by [`crate::snapshot`]: a walk over the active miners in id
//! order that sums the masses and appends each miner to its class's
//! last run — members arrive ascending, so no run is searched or
//! shifted. A fresh build numbers classes by first encounter; a restore
//! adopts a captured class table and cursor. Each miner's class is one
//! table lookup, so a build costs `O(miners + coins × families)` on any
//! game, a restricted game's family per miner included. Families are
//! numbered in ascending `(power, restriction)` order by one sort over
//! the universe when a tracker is built from a game (`new`,
//! `with_activity`, snapshot decode); every clone, snapshot and fork
//! shares that numbering, so a fork repeats no sort. The ascending
//! numbering makes a row-by-row scan of the table the canonical class
//! order `(coin, power, restriction)`.
//!
//! The layout is deliberately *not* part of the API: accessors expose
//! iterators ([`MassTracker::members_of`]), `Option<MinerId>`
//! ([`MassTracker::min_member`], [`MassTracker::successor_member`]) and
//! counts ([`MassTracker::member_count`]) — never a slice or a
//! collection type — so the layout can change again without touching a
//! caller, and CI greps this file to keep std collections out of the hot
//! path.
//!
//! Per-miner queries ([`MassTracker::payoff`],
//! [`MassTracker::better_responses`], [`MassTracker::rpu_list`],
//! [`MassTracker::symmetric_potential`]) therefore evaluate in `O(coins)`
//! (or `O(coins log coins)` for the sorted list) per step.
//!
//! The naive recompute-from-scratch path on [`Game`] remains the **test
//! oracle**: with the whole universe active it is consulted directly, and
//! under churn [`MassTracker::active_subgame`] projects the active
//! population into a dense game the naive path evaluates. The property
//! suites in `crates/game/tests` assert exact agreement on random games,
//! random interleaved delta sequences, and apply/undo round-trips.
//!
//! # Examples
//!
//! ```
//! use goc_game::{CoinId, Configuration, Delta, Game, MassTracker, MinerId};
//!
//! let game = Game::build(&[2, 1], &[1, 1])?;
//! let start = Configuration::uniform(CoinId(0), game.system())?;
//! let mut tracker = MassTracker::new(&game, &start)?;
//! assert_eq!(tracker.best_response(MinerId(1)), Some(CoinId(1)));
//!
//! let mv = tracker.apply(MinerId(1), CoinId(1));
//! assert!(tracker.is_stable());
//! tracker.undo();
//! assert_eq!(tracker.config(), &start);
//! assert_eq!(mv.from, CoinId(0));
//!
//! // Population churn is a first-class delta: p1 goes offline …
//! tracker.apply_delta(Delta::RemoveMiner { miner: MinerId(1) })?;
//! assert_eq!(tracker.active_miner_count(), 1);
//! // … and comes back, placed by best response onto the empty coin.
//! tracker.apply_delta(Delta::InsertMiner { miner: MinerId(1), coin: None })?;
//! assert_eq!(tracker.coin_of(MinerId(1)), CoinId(1));
//! # Ok::<(), goc_game::GameError>(())
//! ```

use std::sync::Arc;

use crate::config::{Configuration, Masses};
use crate::delta::{AppliedDelta, Delta};
use crate::error::GameError;
use crate::game::{Game, Move, Rewards};
use crate::ids::{CoinId, MinerId};
use crate::key::{GainKey, RpuKey};
use crate::ratio::{Extended, Ratio};
use crate::snapshot::SnapshotError;
use crate::system::System;

/// Longest run of one class's member storage, in ids (physical length,
/// dead head prefix included). Runs of 128, 256 and 512 measured alike
/// per step from random starts of 1k–200k miners; 256 keeps every
/// 1000-miner class (about 42 members) a single run and a mid-class
/// memmove under 1 KiB. A power of two, so a run grown by pushes fills
/// its allocation exactly.
const RUN: usize = 256;

/// One sorted run of member ids whose live region is `ids[head..]`.
/// Ids are stored as `u32`, half the bytes of a [`MinerId`], so a
/// memmove or a cache line carries twice as many.
#[derive(Debug, Clone)]
struct Run {
    ids: Vec<u32>,
    head: usize,
}

impl Run {
    fn live(&self) -> &[u32] {
        &self.ids[self.head..]
    }

    fn first(&self) -> u32 {
        self.ids[self.head]
    }

    fn last(&self) -> u32 {
        *self.ids.last().expect("runs are never empty")
    }

    fn is_empty(&self) -> bool {
        self.head == self.ids.len()
    }

    /// Splits a full run at the middle of its live region, returning
    /// the upper half.
    fn split(&mut self) -> Run {
        // The remove-min compaction keeps a full run's dead prefix below
        // half of it, so both halves are non-empty.
        debug_assert!(
            self.ids.len() - self.head >= 2,
            "splitting a near-empty run"
        );
        let mid = self.head + (self.ids.len() - self.head) / 2;
        let upper = Run {
            ids: self.ids[mid..].to_vec(),
            head: 0,
        };
        self.ids.truncate(mid);
        upper
    }
}

/// One group's member storage: its members ascending by id, split into
/// sorted runs of at most [`RUN`] ids each (`runs[i]`'s maximum is below
/// `runs[i + 1]`'s minimum, and no run is empty). Only `runs[0]` ever
/// has a dead head prefix. The [module docs](self) give the cost model.
#[derive(Debug, Clone, Default)]
struct MemberSlab {
    runs: Vec<Run>,
    /// Live members over all runs, so counts stay `O(1)`.
    len: usize,
}

impl MemberSlab {
    /// The live members, ascending by id.
    fn live(&self) -> impl Iterator<Item = MinerId> + '_ {
        self.runs
            .iter()
            .flat_map(Run::live)
            .map(|&id| MinerId(id as usize))
    }

    fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    fn first(&self) -> Option<MinerId> {
        self.runs.first().map(|run| MinerId(run.first() as usize))
    }

    /// The index of the first run whose maximum is `≥ p` (`runs.len()`
    /// when `p` is above every member).
    fn run_for(&self, p: u32) -> usize {
        self.runs.partition_point(|run| run.last() < p)
    }

    /// Appends `p`, which is above every member: `O(1)`. Every member
    /// the bulk loader places arrives this way, in id order.
    fn push(&mut self, p: u32) {
        debug_assert!(
            self.runs.last().is_none_or(|run| run.last() < p),
            "{p} is not above every member"
        );
        self.len += 1;
        match self.runs.last_mut() {
            Some(run) if run.ids.len() < RUN => run.ids.push(p),
            _ => self.runs.push(Run {
                ids: vec![p],
                head: 0,
            }),
        }
    }

    /// Inserts `p` (not already a member), keeping every run sorted.
    /// `O(1)` for a push above the maximum or into a run's front slack —
    /// the two patterns the dynamics produce — and otherwise a binary
    /// search over the runs plus a memmove of at most [`RUN`] ids.
    fn insert(&mut self, p: MinerId) {
        let p = id32(p);
        let mut i = self.run_for(p);
        if i == self.runs.len() {
            return self.push(p);
        }
        self.len += 1;
        let run = &mut self.runs[i];
        if p < run.first() && run.head > 0 {
            run.head -= 1;
            run.ids[run.head] = p;
            return;
        }
        if run.ids.len() == RUN {
            let upper = run.split();
            let into_upper = p > run.last();
            self.runs.insert(i + 1, upper);
            i += usize::from(into_upper);
        }
        let run = &mut self.runs[i];
        let at = run.head + run.live().partition_point(|&q| q < p);
        debug_assert!(run.ids.get(at) != Some(&p), "{p} already a member");
        run.ids.insert(at, p);
    }

    /// Removes member `p`. `O(1)` for the minimum (head bump, amortized
    /// compaction); otherwise a binary search over the runs plus a
    /// memmove of at most [`RUN`] ids.
    fn remove(&mut self, p: MinerId) {
        let p = id32(p);
        debug_assert!(!self.is_empty(), "removing {p} from an empty slab");
        self.len -= 1;
        let i = if self.runs[0].first() == p {
            let run = &mut self.runs[0];
            run.head += 1;
            // Reclaim the dead prefix once it dominates, so long
            // insert/remove-min cycles stay bounded in memory.
            if run.head >= 32 && run.head * 2 >= run.ids.len() {
                run.ids.drain(..run.head);
                run.head = 0;
            }
            0
        } else {
            let i = self.run_for(p);
            let run = &mut self.runs[i];
            let at = run.head + run.live().partition_point(|&q| q < p);
            debug_assert_eq!(run.ids.get(at), Some(&p), "{p} is not a member");
            run.ids.remove(at);
            i
        };
        if self.runs[i].is_empty() {
            self.runs.remove(i);
        }
    }

    /// The smallest live member `≥ start`: two binary searches.
    fn successor(&self, start: MinerId) -> Option<MinerId> {
        let start = u32::try_from(start.index()).ok()?;
        let live = self.runs.get(self.run_for(start))?.live();
        Some(MinerId(live[live.partition_point(|&q| q < start)] as usize))
    }
}

/// A miner id as the group index stores it. Lossless: the bulk loader
/// asserts the universe fits ([`assert_u32_ids`]).
fn id32(p: MinerId) -> u32 {
    debug_assert!(u32::try_from(p.index()).is_ok(), "{p} exceeds u32 ids");
    p.index() as u32
}

/// Asserts that every id of an `n`-miner universe fits a `u32`.
fn assert_u32_ids(n: usize) {
    assert!(
        u32::try_from(n).is_ok(),
        "{n} miners exceed the group index's u32 ids"
    );
}

/// `(coin, power, restriction discriminator)` — the discriminator is `0`
/// for unrestricted games and `miner index + 1` in restricted games (each
/// miner its own class). The key order (coin first) is part of the
/// [`crate::source::MoveSource`] contract: class enumeration is
/// coin-major, so the eager scheduler oracle can reproduce it from a
/// flat move list.
pub(crate) type GroupKey = (u32, u64, u32);

/// A class key without its coin: `(power, restriction discriminator)`.
/// Miners of one family on one coin form one class.
type Family = (u64, u32);

/// The families of a game's whole universe, dormant miners included
/// (they may arrive later), numbered in ascending `(power, rkey)` order.
/// One sort derives them when a tracker is built from a game (`new`,
/// `with_activity`, snapshot decode); every clone, snapshot and fork of
/// that tracker shares the result by `Arc`.
#[derive(Debug)]
pub(crate) struct Families {
    /// Family id of each miner of the universe.
    of: Vec<u32>,
    /// Family id → `(power, rkey)`, ascending.
    keys: Vec<Family>,
}

impl Families {
    /// Derives the families of `game`'s universe: one sort of its
    /// miners' `(power, rkey)` pairs, then a binary search per miner.
    pub(crate) fn new(game: &Game) -> Arc<Families> {
        let system = game.system();
        assert_u32_ids(system.num_miners());
        let restricted = game.is_restricted();
        let family = |p: MinerId| (system.power_of(p), if restricted { id32(p) + 1 } else { 0 });
        let mut keys: Vec<Family> = system.miner_ids().map(family).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.shrink_to_fit();
        let of = system
            .miner_ids()
            .map(|p| keys.partition_point(|&key| key < family(p)) as u32)
            .collect();
        Arc::new(Families { of, keys })
    }
}

/// Sentinel slot for groups that currently have no members (their slab
/// is parked on the free list — group ids are historical and never die,
/// but emptied classes should not pin member storage).
const NO_SLOT: u32 = u32::MAX;

/// Sentinel gid of a class that has not been minted yet.
const NO_GID: u32 = u32::MAX;

/// Partition of the **active** miners into strategic equivalence classes,
/// maintained under deltas (dormant miners belong to no group). The
/// layout is arena-style and flat: member slabs ([`MemberSlab`], each a
/// short list of bounded sorted runs) indexed through a gid → slot table
/// with a free list, and a dense `(coin, family)` → gid table — no tree
/// nodes anywhere on the apply/undo hot path. Only [`MassTracker::load`]
/// builds one.
#[derive(Debug, Clone)]
pub(crate) struct GroupIndex {
    /// Group id of each miner (stale while a miner is dormant).
    of: Vec<u32>,
    /// gid → slab slot, or [`NO_SLOT`] while the group is empty.
    slot_of: Vec<u32>,
    /// Member storage arena; slots are recycled through `free`.
    slabs: Vec<MemberSlab>,
    /// Slots of released (empty) slabs, ready for reuse.
    free: Vec<u32>,
    /// gid → class key: historical group-id order, the
    /// [`crate::snapshot`] capture order.
    keys: Vec<GroupKey>,
    /// The universe's families, shared with every clone, snapshot and
    /// fork.
    pub(crate) families: Arc<Families>,
    /// `(coin, family)` → gid at `coin × families + family`, or
    /// [`NO_GID`] while that class is unminted. Rows run in coin order
    /// and families ascend within a row, so a scan yields the classes in
    /// canonical key order (coin, power, rkey).
    table: Vec<u32>,
    /// Round-robin cursor for [`MassTracker::find_improving_move`]
    /// (captured and restored by [`crate::snapshot`] — forks must resume
    /// the round-robin exactly where the original stood to replay
    /// identical trajectories).
    pub(crate) cursor: usize,
}

impl GroupIndex {
    /// Whether the members of the class keyed `key` may mine `c`
    /// (restricted classes are singletons, keyed by member id + 1).
    pub(crate) fn class_allows(game: &Game, (_, _, rkey): GroupKey, c: CoinId) -> bool {
        rkey == 0 || game.allowed(MinerId(rkey as usize - 1), c)
    }

    /// Number of classes ever minted (group ids are historical: emptied
    /// classes keep their id so the cursor and snapshots stay stable).
    pub(crate) fn group_count(&self) -> usize {
        self.keys.len()
    }

    /// The class keys in historical group-id order.
    pub(crate) fn class_keys(&self) -> &[GroupKey] {
        &self.keys
    }

    /// `(key, gid)` pairs in canonical class order (coin, power, rkey).
    pub(crate) fn classes(&self) -> impl Iterator<Item = (GroupKey, u32)> + '_ {
        self.table
            .iter()
            .filter(|&&gid| gid != NO_GID)
            .map(|&gid| (self.keys[gid as usize], gid))
    }

    /// The live members of group `gid`, ascending by id (none for
    /// emptied classes).
    fn members(&self, gid: u32) -> impl Iterator<Item = MinerId> + '_ {
        let slot = self.slot_of[gid as usize];
        (slot != NO_SLOT)
            .then(|| self.slabs[slot as usize].live())
            .into_iter()
            .flatten()
    }

    /// The smallest member of group `gid`, `O(1)`.
    fn min(&self, gid: u32) -> Option<MinerId> {
        match self.slot_of[gid as usize] {
            NO_SLOT => None,
            slot => self.slabs[slot as usize].first(),
        }
    }

    /// The smallest member of group `gid` that is `≥ start`,
    /// `O(log members)` (two binary searches).
    fn successor(&self, gid: u32, start: MinerId) -> Option<MinerId> {
        match self.slot_of[gid as usize] {
            NO_SLOT => None,
            slot => self.slabs[slot as usize].successor(start),
        }
    }

    /// Number of live members of group `gid`, `O(1)`.
    fn member_count(&self, gid: u32) -> usize {
        match self.slot_of[gid as usize] {
            NO_SLOT => 0,
            slot => self.slabs[slot as usize].len,
        }
    }

    /// The table entry of family `family` on coin `coin`.
    fn at(&self, coin: usize, family: u32) -> usize {
        coin * self.families.keys.len() + family as usize
    }

    /// Adopts a captured class table for [`MassTracker::load`]: `keys`
    /// in historical group-id order and the round-robin `cursor`,
    /// rejecting a table no tracker could have written. A key whose
    /// family no miner has is returned by gid instead, for the loader to
    /// reject after its walk, so an active miner the table does not
    /// cover is named first.
    fn adopt(
        &mut self,
        game: &Game,
        keys: &[GroupKey],
        cursor: usize,
    ) -> Result<Option<usize>, SnapshotError> {
        let corrupted = |reason| Err(SnapshotError::Corrupted { reason });
        if cursor != 0 && cursor >= keys.len() {
            return corrupted(format!(
                "cursor {cursor} out of range for {} groups",
                keys.len()
            ));
        }
        let mut stray = None;
        for (gid, &key @ (coin, power, rkey)) in keys.iter().enumerate() {
            if coin as usize >= game.system().num_coins() {
                return corrupted(format!("group {gid} keys coin {coin} outside the universe"));
            }
            if !game.is_restricted() && rkey != 0 {
                return corrupted(format!(
                    "group {gid} carries restriction key {rkey} in an unrestricted game"
                ));
            }
            let Ok(family) = self.families.keys.binary_search(&(power, rkey)) else {
                stray = stray.or(Some(gid));
                continue;
            };
            let at = self.at(coin as usize, family as u32);
            if self.table[at] != NO_GID {
                return corrupted(format!("duplicate group key {key:?}"));
            }
            self.table[at] = gid as u32;
        }
        self.keys = keys.to_vec();
        self.slot_of = vec![NO_SLOT; keys.len()];
        self.cursor = cursor;
        Ok(stray)
    }

    /// The gid of `p`'s class on `coin`: one table lookup, minting the
    /// class (born empty) on its first member.
    fn class_of(&mut self, p: MinerId, coin: CoinId) -> u32 {
        let family = self.families.of[p.index()];
        let at = self.at(coin.index(), family);
        if self.table[at] == NO_GID {
            let (power, rkey) = self.families.keys[family as usize];
            self.table[at] = self.keys.len() as u32;
            self.keys.push((coin.index() as u32, power, rkey));
            self.slot_of.push(NO_SLOT);
        }
        self.table[at]
    }

    /// The slab of group `gid`, acquiring one (a released slab first)
    /// while the group is empty.
    fn slab(&mut self, gid: u32) -> &mut MemberSlab {
        if self.slot_of[gid as usize] == NO_SLOT {
            self.slot_of[gid as usize] = self.free.pop().unwrap_or_else(|| {
                self.slabs.push(MemberSlab::default());
                (self.slabs.len() - 1) as u32
            });
        }
        &mut self.slabs[self.slot_of[gid as usize] as usize]
    }

    fn insert(&mut self, p: MinerId, coin: CoinId) {
        let gid = self.class_of(p, coin);
        self.of[p.index()] = gid;
        self.slab(gid).insert(p);
    }

    fn remove(&mut self, p: MinerId) {
        let gid = self.of[p.index()] as usize;
        let slot = self.slot_of[gid];
        debug_assert_ne!(slot, NO_SLOT, "removing {p} from an empty group");
        let slab = &mut self.slabs[slot as usize];
        slab.remove(p);
        if slab.is_empty() {
            // Release the slab (its runs are already dropped) so emptied
            // classes do not pin member storage; a later refill reuses it.
            self.slot_of[gid] = NO_SLOT;
            self.free.push(slot);
        }
    }

    fn move_miner(&mut self, p: MinerId, to: CoinId) {
        self.remove(p);
        self.insert(p, to);
    }

    /// Group ids of every class minted on coin `c` (some may be empty),
    /// by power then rkey: row `c` of the table.
    pub(crate) fn groups_on(&self, c: CoinId) -> impl Iterator<Item = u32> + '_ {
        let row = self.at(c.index(), 0)..self.at(c.index() + 1, 0);
        self.table[row].iter().copied().filter(|&gid| gid != NO_GID)
    }
}

/// The dense projection of a (possibly churned) tracker state: a fresh
/// [`Game`] over exactly the active miners and coins, plus the id maps
/// back into the universe. This is the **naive oracle** of every churn
/// equivalence test: build the subgame, recompute from scratch, compare.
#[derive(Debug, Clone)]
pub struct ActiveSubgame {
    /// The dense game over the active population.
    pub game: Game,
    /// The active miners' configuration, in dense ids.
    pub config: Configuration,
    /// `miners[dense] = universe id` (ascending).
    pub miners: Vec<MinerId>,
    /// `coins[dense] = universe id` (ascending).
    pub coins: Vec<CoinId>,
}

/// Incrementally-maintained view of a configuration inside a game: masses,
/// the Appendix-B potential, a miner group index, and the activity masks
/// of the churn vocabulary, all updated in `O(1)`–`O(log)` per delta. See
/// the [module docs](self) for the cost model.
#[derive(Debug, Clone)]
pub struct MassTracker<'g> {
    game: &'g Game,
    config: Configuration,
    masses: Masses,
    groups: GroupIndex,
    miner_active: Vec<bool>,
    coin_active: Vec<bool>,
    active_miners: usize,
    active_coins: usize,
    undo: Vec<AppliedDelta>,
    record_undo: bool,
}

impl<'g> MassTracker<'g> {
    /// Builds a tracker over `start` in `game`, with the whole universe
    /// active. Costs one sort of the miners by family plus
    /// `O(miners + coins × families)`.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::ConfigLengthMismatch`] /
    /// [`GameError::CoinOutOfRange`] if `start` does not fit the game's
    /// system.
    pub fn new(game: &'g Game, start: &Configuration) -> Result<Self, GameError> {
        let n = game.system().num_miners();
        let k = game.system().num_coins();
        Self::with_activity(game, start, &vec![true; n], &vec![true; k])
    }

    /// Builds a tracker with an explicit activity state: `miner_active[p]`
    /// / `coin_active[c]` declare who is online and which coins are live
    /// at time zero — dormant entries are the churn reserve that
    /// [`Delta::InsertMiner`] / [`Delta::LaunchCoin`] later activate.
    ///
    /// # Errors
    ///
    /// * Shape errors as in [`MassTracker::new`].
    /// * [`GameError::CoinInactive`] if an active miner starts on a
    ///   dormant coin.
    ///
    /// # Panics
    ///
    /// Panics if a mask length does not match the system.
    pub fn with_activity(
        game: &'g Game,
        start: &Configuration,
        miner_active: &[bool],
        coin_active: &[bool],
    ) -> Result<Self, GameError> {
        let system = game.system();
        assert_eq!(
            miner_active.len(),
            system.num_miners(),
            "miner activity mask must cover the universe"
        );
        assert_eq!(
            coin_active.len(),
            system.num_coins(),
            "coin activity mask must cover the universe"
        );
        // Re-validate the shape so a tracker can never silently index out
        // of range (Configurations from a different system are accepted by
        // the type system).
        let config = Configuration::new(start.as_slice().to_vec(), system)?;
        Self::load(
            game,
            Families::new(game),
            config,
            miner_active.to_vec(),
            coin_active.to_vec(),
            None,
        )
        .map_err(|e| match e {
            SnapshotError::Game(e) => e,
            e => unreachable!("a fresh build has no class table to reject: {e}"),
        })
    }

    /// The one bulk loader behind every tracker: a walk over the active
    /// miners in id order that sums the masses, checks each miner's coin
    /// is live, and pushes the miner straight into its class's runs.
    /// `families` must be derived from `game`.
    ///
    /// With `captured = None` the build is fresh: group ids follow first
    /// encounter and the cursor starts at 0. With `Some((keys, cursor))`
    /// it restores a [`crate::snapshot`]: `keys[gid]` names each
    /// historical class and the round-robin resumes at `cursor`. A
    /// captured table no tracker could have written — a coin outside
    /// the universe, a restriction key in an unrestricted game, a
    /// duplicate key, an out-of-range cursor, an active miner whose
    /// class is missing, or a class of a family no miner has — is a
    /// named [`SnapshotError::Corrupted`].
    ///
    /// Costs `O(miners + coins × families + classes)`: each miner's class
    /// is one lookup in the dense `(coin, family)` table (a restore
    /// first fills it from the captured keys, one binary search over
    /// the families per class).
    pub(crate) fn load(
        game: &'g Game,
        families: Arc<Families>,
        config: Configuration,
        miner_active: Vec<bool>,
        coin_active: Vec<bool>,
        captured: Option<(&[GroupKey], usize)>,
    ) -> Result<Self, SnapshotError> {
        let system = game.system();
        debug_assert_eq!(families.of.len(), system.num_miners());
        let mut groups = GroupIndex {
            of: vec![0; system.num_miners()],
            slot_of: Vec::new(),
            slabs: Vec::new(),
            free: Vec::new(),
            keys: Vec::new(),
            table: vec![NO_GID; system.num_coins() * families.keys.len()],
            families,
            cursor: 0,
        };
        let corrupted = |reason| SnapshotError::Corrupted { reason };
        let stray = match captured {
            None => None,
            Some((keys, cursor)) => groups.adopt(game, keys, cursor)?,
        };
        // A restore may not mint: every active miner's class is captured.
        let adopted = captured.map_or(usize::MAX, |(keys, _)| keys.len());
        let mut masses = Masses::zero(system.num_coins());
        for p in system.miner_ids().filter(|p| miner_active[p.index()]) {
            let coin = config.coin_of(p);
            if !coin_active[coin.index()] {
                return Err(GameError::CoinInactive { coin }.into());
            }
            masses.add(coin, system.power_of(p));
            let gid = groups.class_of(p, coin);
            if gid as usize >= adopted {
                return Err(corrupted(format!("active miner {p} has no group key")));
            }
            groups.of[p.index()] = gid;
            groups.slab(gid).push(id32(p));
        }
        if let Some(gid) = stray {
            let (_, power, rkey) = groups.keys[gid];
            return Err(corrupted(format!(
                "group {gid} keys power {power} with restriction key {rkey}, which no miner has"
            )));
        }
        Ok(MassTracker {
            game,
            config,
            masses,
            groups,
            active_miners: miner_active.iter().filter(|&&a| a).count(),
            active_coins: coin_active.iter().filter(|&&a| a).count(),
            miner_active,
            coin_active,
            undo: Vec::new(),
            record_undo: true,
        })
    }

    /// The group index, for [`crate::snapshot`] capture.
    pub(crate) fn group_index(&self) -> &GroupIndex {
        &self.groups
    }

    /// The class key of group `gid`.
    pub(crate) fn class_key(&self, gid: u32) -> GroupKey {
        self.groups.keys[gid as usize]
    }

    /// Enables or disables undo recording (on by default). Long-running
    /// dynamics loops that never rewind disable it so a million-step
    /// convergence does not retain a million-entry history; while
    /// disabled, [`MassTracker::apply_delta`] pushes nothing and
    /// [`MassTracker::undo_delta`] can only rewind deltas recorded
    /// earlier.
    pub fn set_undo_recording(&mut self, record: bool) {
        self.record_undo = record;
    }

    /// The game this tracker evaluates (borrowed for the tracker's full
    /// lifetime, so callers may outlive the tracker itself).
    pub fn game(&self) -> &'g Game {
        self.game
    }

    /// The current configuration (entries of dormant miners are their
    /// last coin and carry no mass).
    pub fn config(&self) -> &Configuration {
        &self.config
    }

    /// Consumes the tracker, returning the final configuration.
    pub fn into_config(self) -> Configuration {
        self.config
    }

    /// The maintained per-coin mass table (active miners only).
    pub fn masses(&self) -> &Masses {
        &self.masses
    }

    /// Mass of coin `c` (`M_c(s)`), `O(1)`.
    pub fn mass_of(&self, c: CoinId) -> u128 {
        self.masses.mass_of(c)
    }

    /// The coin currently mined by `p` (last mined, for dormant miners).
    pub fn coin_of(&self, p: MinerId) -> CoinId {
        self.config.coin_of(p)
    }

    /// Whether miner `p` is currently online.
    pub fn is_miner_active(&self, p: MinerId) -> bool {
        self.miner_active[p.index()]
    }

    /// Whether coin `c` is currently live.
    pub fn is_coin_active(&self, c: CoinId) -> bool {
        self.coin_active[c.index()]
    }

    /// The miner activity mask over the universe.
    pub fn miner_activity(&self) -> &[bool] {
        &self.miner_active
    }

    /// The coin activity mask over the universe.
    pub fn coin_activity(&self) -> &[bool] {
        &self.coin_active
    }

    /// Number of currently active miners.
    pub fn active_miner_count(&self) -> usize {
        self.active_miners
    }

    /// Number of currently live coins.
    pub fn active_coin_count(&self) -> usize {
        self.active_coins
    }

    /// Number of strategic equivalence classes currently present
    /// (including classes emptied by moves or departures).
    pub fn group_count(&self) -> usize {
        self.groups.group_count()
    }

    /// Depth of the undo stack (number of un-undone applied deltas).
    pub fn depth(&self) -> usize {
        self.undo.len()
    }

    // ------------------------------------------------------------------
    // O(coins) queries
    // ------------------------------------------------------------------

    /// `RPU_c(s)`, `O(1)`.
    pub fn rpu(&self, c: CoinId) -> Extended {
        self.game.rpu(c, &self.masses)
    }

    /// Miner `p`'s payoff `u_p(s)`, `O(1)`. A dormant miner earns zero.
    pub fn payoff(&self, p: MinerId) -> Ratio {
        if !self.miner_active[p.index()] {
            return Ratio::ZERO;
        }
        self.game
            .payoff_with(p, self.config.coin_of(p), &self.masses)
    }

    /// Whether moving `p` to `to` is a better-response step, `O(1)`.
    /// Always false for dormant miners and retired target coins.
    /// Decided on unreduced RPU keys: exactly
    /// [`Game::is_better_response`], without its gcds.
    pub fn is_better_response(&self, p: MinerId, to: CoinId) -> bool {
        let from = self.config.coin_of(p);
        self.miner_active[p.index()]
            && self.coin_active[to.index()]
            && to != from
            && self.game.allowed(p, to)
            && self.rpu_key(p, to, from) > self.rpu_key(p, from, from)
    }

    /// The payoff gain of moving `p` to `to`, `O(1)`.
    pub fn gain(&self, p: MinerId, to: CoinId) -> Ratio {
        self.game.gain(p, to, &self.config, &self.masses)
    }

    /// All better-response steps of `p` over the live coins, `O(coins)`.
    pub fn better_responses(&self, p: MinerId) -> Vec<CoinId> {
        self.improving_targets(p).collect()
    }

    /// [`MassTracker::better_responses`] without the collection: the
    /// targets in coin order, computed as the iterator is driven.
    pub(crate) fn improving_targets(&self, p: MinerId) -> impl Iterator<Item = CoinId> + '_ {
        self.game
            .system()
            .coin_ids()
            .filter(move |&c| self.is_better_response(p, c))
    }

    /// [`Game::rpu_after_join`] under the maintained masses, as an
    /// unreduced comparison key.
    pub(crate) fn rpu_key(&self, p: MinerId, c: CoinId, current: CoinId) -> RpuKey {
        RpuKey::after_join(self.game, p, c, current, &self.masses)
    }

    /// [`MassTracker::rpu_key`] for any miner of power `power`.
    pub(crate) fn power_rpu_key(&self, power: u64, c: CoinId, current: CoinId) -> RpuKey {
        RpuKey::for_power(self.game, power, c, current, &self.masses)
    }

    /// [`MassTracker::gain`] as an unreduced comparison key.
    pub(crate) fn gain_key(&self, p: MinerId, to: CoinId) -> GainKey {
        GainKey::of(self.game, p, to, self.config.coin_of(p), &self.masses)
    }

    /// `p`'s best response over the live coins (or `None` if stable),
    /// `O(coins)`. Identical to [`Game::best_response`] when the whole
    /// universe is active.
    pub fn best_response(&self, p: MinerId) -> Option<CoinId> {
        if !self.miner_active[p.index()] {
            return None;
        }
        let from = self.config.coin_of(p);
        let current = self.game.rpu_after_join(p, from, from, &self.masses);
        let mut best: Option<(Ratio, CoinId)> = None;
        for c in self.game.system().coin_ids() {
            if c == from || !self.coin_active[c.index()] || !self.game.allowed(p, c) {
                continue;
            }
            let target = self.game.rpu_after_join(p, c, from, &self.masses);
            if target > current && best.is_none_or(|(b, _)| target > b) {
                best = Some((target, c));
            }
        }
        best.map(|(_, c)| c)
    }

    /// The sorted `⟨RPU_c(s), c⟩` list of Theorem 1's ordinal potential
    /// over the **live** coins, `O(coins log coins)` — no population
    /// rescan.
    pub fn rpu_list(&self) -> Vec<(Extended, CoinId)> {
        let mut list: Vec<(Extended, CoinId)> = self
            .game
            .system()
            .coin_ids()
            .filter(|&c| self.coin_active[c.index()])
            .map(|c| (self.rpu(c), c))
            .collect();
        list.sort();
        list
    }

    /// Appendix B's potential `H(s) = Σ_c 1/M_c(s)` over the live coins
    /// (infinite when some live coin is unoccupied), `O(coins)` over the
    /// maintained masses — no population rescan. (A running accumulator
    /// would be `O(1)` but overflows `i128` on many-coin games whose
    /// masses are coprime; summing on demand keeps exactly the naive
    /// path's envelope.)
    pub fn symmetric_potential(&self) -> Extended {
        let mut total = Ratio::ZERO;
        for c in self.game.system().coin_ids() {
            if !self.coin_active[c.index()] {
                continue;
            }
            match self.masses.mass_of(c) {
                0 => return Extended::Infinite,
                m => {
                    total = total
                        .checked_add(inv(m))
                        .expect("potential sum fits i128 for supported systems");
                }
            }
        }
        Extended::Finite(total)
    }

    // ------------------------------------------------------------------
    // O(groups × coins) whole-population queries
    // ------------------------------------------------------------------

    /// Whether the configuration is stable, `O(groups × coins)`.
    pub fn is_stable(&self) -> bool {
        (0..self.groups.group_count() as u32)
            .filter_map(|gid| self.groups.min(gid))
            .all(|rep| self.best_response(rep).is_none())
    }

    /// The unstable miners, in id order. Costs `O(groups × coins)` plus
    /// the output size (stability is decided once per group).
    pub fn unstable_miners(&self) -> Vec<MinerId> {
        let unstable = self.unstable_group_mask();
        self.game
            .system()
            .miner_ids()
            .filter(|p| self.miner_active[p.index()] && unstable[self.gid_of(*p) as usize])
            .collect()
    }

    /// All better-response steps over all active miners, in miner-id then
    /// coin order — exactly [`Game::improving_moves`] on the active
    /// subgame, but better responses are computed once per group
    /// (`O(groups × coins)` plus output).
    pub fn improving_moves(&self) -> Vec<Move> {
        let mut per_group: Vec<Option<Vec<CoinId>>> = vec![None; self.groups.group_count()];
        for (gid, slot) in per_group.iter_mut().enumerate() {
            if let Some(rep) = self.groups.min(gid as u32) {
                *slot = Some(self.better_responses(rep));
            }
        }
        let mut out = Vec::new();
        for p in self.game.system().miner_ids() {
            if !self.miner_active[p.index()] {
                continue;
            }
            let gid = self.gid_of(p) as usize;
            let from = self.config.coin_of(p);
            if let Some(targets) = &per_group[gid] {
                out.extend(targets.iter().map(|&to| Move { miner: p, from, to }));
            }
        }
        out
    }

    fn unstable_group_mask(&self) -> Vec<bool> {
        (0..self.groups.group_count() as u32)
            .map(|gid| {
                self.groups
                    .min(gid)
                    .is_some_and(|rep| self.best_response(rep).is_some())
            })
            .collect()
    }

    /// Finds one better-response step by round-robin over the strategic
    /// groups, or `None` if the configuration is stable. Amortized
    /// `O(coins)` per returned move while the dynamics make progress;
    /// a full stability sweep (`O(groups × coins)`) only when converged.
    ///
    /// The cursor persists across calls, so repeated
    /// `find_improving_move` / [`MassTracker::apply`] loops cycle fairly
    /// over the groups — a population-free round-robin best-response
    /// dynamics.
    pub fn find_improving_move(&mut self) -> Option<Move> {
        let count = self.groups.group_count();
        for offset in 0..count {
            let gid = (self.groups.cursor + offset) % count;
            let Some(rep) = self.groups.min(gid as u32) else {
                continue;
            };
            if let Some(to) = self.best_response(rep) {
                // Advance past this group so its remaining members do not
                // starve the others.
                self.groups.cursor = (gid + 1) % count;
                return Some(Move {
                    miner: rep,
                    from: self.config.coin_of(rep),
                    to,
                });
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // The naive oracle under churn
    // ------------------------------------------------------------------

    /// Projects the active population into a dense [`Game`] plus the
    /// matching configuration — the state a from-scratch rebuild would
    /// see. With the whole universe active the projection is the
    /// identity on ids. `O(miners + coins)`; this is the oracle path,
    /// not a production query.
    ///
    /// # Errors
    ///
    /// [`GameError::NoMiners`] / [`GameError::NoCoins`] when the active
    /// population or coin set is empty.
    pub fn active_subgame(&self) -> Result<ActiveSubgame, GameError> {
        let system = self.game.system();
        let coins: Vec<CoinId> = system
            .coin_ids()
            .filter(|&c| self.coin_active[c.index()])
            .collect();
        let miners: Vec<MinerId> = system
            .miner_ids()
            .filter(|&p| self.miner_active[p.index()])
            .collect();
        if miners.is_empty() {
            return Err(GameError::NoMiners);
        }
        if coins.is_empty() {
            return Err(GameError::NoCoins);
        }
        let powers: Vec<u64> = miners.iter().map(|&p| system.power_of(p)).collect();
        let dense_system = System::new(&powers, coins.len())?;
        let rewards =
            Rewards::from_ratios(coins.iter().map(|&c| self.game.reward_of(c)).collect())?;
        let mut game = Game::new(dense_system, rewards)?;
        if self.game.is_restricted() {
            let rows: Vec<Vec<bool>> = miners
                .iter()
                .map(|&p| coins.iter().map(|&c| self.game.allowed(p, c)).collect())
                .collect();
            game = game.with_restrictions(rows)?;
        }
        let mut dense_coin = vec![usize::MAX; system.num_coins()];
        for (dense, &c) in coins.iter().enumerate() {
            dense_coin[c.index()] = dense;
        }
        let assignment: Vec<CoinId> = miners
            .iter()
            .map(|&p| CoinId(dense_coin[self.config.coin_of(p).index()]))
            .collect();
        let config = Configuration::new(assignment, game.system())?;
        Ok(ActiveSubgame {
            game,
            config,
            miners,
            coins,
        })
    }

    // ------------------------------------------------------------------
    // Group-index queries (the scheduler-protocol surface)
    // ------------------------------------------------------------------
    //
    // These are the *only* windows into the group partition: they expose
    // queries (iterators, options, counts), never the storage, so the index
    // layout can keep evolving without touching a caller. No method here
    // names a collection type.

    /// The group id of miner `p` — the strategic equivalence class `p`
    /// currently belongs to (stale for dormant miners). Group ids are
    /// historical: a class keeps its id even while emptied.
    pub fn gid_of(&self, p: MinerId) -> u32 {
        self.groups.of[p.index()]
    }

    /// The live members of group `gid` in id order (none for emptied
    /// classes), `O(1)` per member.
    pub fn members_of(&self, gid: u32) -> impl Iterator<Item = MinerId> + '_ {
        self.groups.members(gid)
    }

    /// The smallest member of group `gid` — its canonical representative
    /// under the scheduler tie-break — or `None` while the class is
    /// empty. `O(1)`.
    pub fn min_member(&self, gid: u32) -> Option<MinerId> {
        self.groups.min(gid)
    }

    /// The smallest member of group `gid` with id `≥ start`, or `None`.
    /// `O(log members)` (a binary search over the class's runs, then one
    /// inside a run) — the round-robin successor query.
    pub fn successor_member(&self, gid: u32, start: MinerId) -> Option<MinerId> {
        self.groups.successor(gid, start)
    }

    /// Number of live members of group `gid`, `O(1)`.
    pub fn member_count(&self, gid: u32) -> usize {
        self.groups.member_count(gid)
    }

    /// `(key, gid)` pairs in canonical class order (coin, power, rkey).
    pub(crate) fn classes(&self) -> impl Iterator<Item = (GroupKey, u32)> + '_ {
        self.groups.classes()
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Moves `p` to `to`, updating masses and the group index in one
    /// class-table lookup plus two slab edits (each `O(1)` at a
    /// class end, otherwise bounded by one run), and pushes the move onto
    /// the undo stack. Returns the
    /// applied move (with its `from` coin). Shorthand for a
    /// [`Delta::Move`] through [`MassTracker::apply_delta`].
    ///
    /// The move need not be a better response — the tracker follows any
    /// move sequence exactly (that is what the equivalence suite
    /// exercises).
    ///
    /// # Panics
    ///
    /// Panics if `p` or `to` is out of range for the game's system, or if
    /// the move is illegal under the current activity state (dormant
    /// miner, retired coin) — population-aware callers use
    /// [`MassTracker::apply_delta`] and handle the error.
    pub fn apply(&mut self, p: MinerId, to: CoinId) -> Move {
        assert!(
            to.index() < self.game.system().num_coins(),
            "{to} out of range"
        );
        match self.apply_delta(Delta::Move { miner: p, to }) {
            Ok(AppliedDelta::Move(mv)) => mv,
            Ok(_) => unreachable!("a move delta applies as a move"),
            Err(e) => panic!("illegal move: {e}"),
        }
    }

    /// Applies one churn [`Delta`], validating it against the current
    /// activity state, and pushes the resolved [`AppliedDelta`] onto the
    /// undo stack. One class-table lookup plus slab edits bounded by one
    /// run for moves, insertions, removals, and launches;
    /// `O(residents × coins)` for a retirement (the forced relocations).
    ///
    /// # Errors
    ///
    /// * [`GameError::MinerInactive`] / [`GameError::MinerActive`] on a
    ///   move/removal of a dormant miner or an insertion of an active one.
    /// * [`GameError::CoinInactive`] / [`GameError::CoinActive`] on a
    ///   retired move target, retirement of a dormant coin, or launch of
    ///   a live one.
    /// * [`GameError::CoinOutOfRange`] if a referenced coin is outside
    ///   the universe.
    /// * [`GameError::NoPlacement`] if an arrival or a forced relocation
    ///   has no active permitted coin (the delta fails atomically: no
    ///   state changes).
    ///
    /// # Panics
    ///
    /// Panics if a miner id is outside the universe.
    pub fn apply_delta(&mut self, delta: Delta) -> Result<AppliedDelta, GameError> {
        let applied = self.apply_delta_inner(delta)?;
        if self.record_undo {
            self.undo.push(applied.clone());
        }
        Ok(applied)
    }

    fn check_coin(&self, coin: CoinId) -> Result<(), GameError> {
        if coin.index() >= self.game.system().num_coins() {
            return Err(GameError::CoinOutOfRange {
                coin,
                coins: self.game.system().num_coins(),
            });
        }
        Ok(())
    }

    fn apply_delta_inner(&mut self, delta: Delta) -> Result<AppliedDelta, GameError> {
        match delta {
            Delta::Move { miner, to } => {
                self.check_coin(to)?;
                if !self.miner_active[miner.index()] {
                    return Err(GameError::MinerInactive { miner });
                }
                if !self.coin_active[to.index()] {
                    return Err(GameError::CoinInactive { coin: to });
                }
                let from = self.config.coin_of(miner);
                if from != to {
                    self.shift(miner, from, to);
                }
                Ok(AppliedDelta::Move(Move { miner, from, to }))
            }
            Delta::InsertMiner { miner, coin } => {
                if self.miner_active[miner.index()] {
                    return Err(GameError::MinerActive { miner });
                }
                let coin = match coin {
                    Some(c) => {
                        self.check_coin(c)?;
                        if !self.coin_active[c.index()] {
                            return Err(GameError::CoinInactive { coin: c });
                        }
                        if !self.game.allowed(miner, c) {
                            return Err(GameError::NoPlacement { miner });
                        }
                        c
                    }
                    None => self
                        .forced_placement(miner)
                        .ok_or(GameError::NoPlacement { miner })?,
                };
                let previous = self.config.coin_of(miner);
                self.miner_active[miner.index()] = true;
                self.active_miners += 1;
                self.masses.add(coin, self.game.system().power_of(miner));
                self.config.apply_move(miner, coin);
                self.groups.insert(miner, coin);
                Ok(AppliedDelta::InsertMiner {
                    miner,
                    coin,
                    previous,
                })
            }
            Delta::RemoveMiner { miner } => {
                if !self.miner_active[miner.index()] {
                    return Err(GameError::MinerInactive { miner });
                }
                let coin = self.config.coin_of(miner);
                self.deactivate_miner(miner, coin);
                Ok(AppliedDelta::RemoveMiner { miner, coin })
            }
            Delta::LaunchCoin { coin } => {
                self.check_coin(coin)?;
                if self.coin_active[coin.index()] {
                    return Err(GameError::CoinActive { coin });
                }
                debug_assert_eq!(self.masses.mass_of(coin), 0, "dormant coins carry no mass");
                self.coin_active[coin.index()] = true;
                self.active_coins += 1;
                Ok(AppliedDelta::LaunchCoin { coin })
            }
            Delta::RetireCoin { coin } => {
                self.check_coin(coin)?;
                if !self.coin_active[coin.index()] {
                    return Err(GameError::CoinInactive { coin });
                }
                let mut residents: Vec<MinerId> = Vec::new();
                let gids: Vec<u32> = self.groups.groups_on(coin).collect();
                for gid in gids {
                    residents.extend(self.groups.members(gid));
                }
                residents.sort_unstable();
                // Atomicity precheck: every resident must have somewhere
                // legal to go (existence depends only on activity and
                // restrictions, not on masses, so checking up front is
                // exact).
                for &p in &residents {
                    let placeable = self.game.system().coin_ids().any(|c| {
                        c != coin && self.coin_active[c.index()] && self.game.allowed(p, c)
                    });
                    if !placeable {
                        return Err(GameError::NoPlacement { miner: p });
                    }
                }
                self.coin_active[coin.index()] = false;
                self.active_coins -= 1;
                // Forced relocation by best response, in miner-id order,
                // each against the masses its predecessors left.
                let mut relocations = Vec::with_capacity(residents.len());
                for p in residents {
                    let to = self
                        .forced_placement(p)
                        .expect("prechecked: a permitted active coin exists");
                    self.shift(p, coin, to);
                    relocations.push(Move {
                        miner: p,
                        from: coin,
                        to,
                    });
                }
                Ok(AppliedDelta::RetireCoin { coin, relocations })
            }
        }
    }

    /// Reverts the most recent un-undone [`MassTracker::apply`], returning
    /// the move that was undone (`None` on an empty stack).
    ///
    /// # Panics
    ///
    /// Panics if the top of the stack is a population delta — mixed
    /// histories rewind through [`MassTracker::undo_delta`].
    pub fn undo(&mut self) -> Option<Move> {
        match self.undo.last()? {
            AppliedDelta::Move(_) => match self.undo_delta() {
                Some(AppliedDelta::Move(mv)) => Some(mv),
                _ => unreachable!("the top of the stack was a move"),
            },
            other => panic!("undo() reached a population delta ({other}); use undo_delta()"),
        }
    }

    /// Reverts the most recent un-undone [`MassTracker::apply_delta`],
    /// returning the delta that was undone (`None` on an empty stack).
    /// Every variant rewinds exactly: a retirement re-launches the coin
    /// and walks the forced relocations backwards.
    pub fn undo_delta(&mut self) -> Option<AppliedDelta> {
        let applied = self.undo.pop()?;
        match &applied {
            AppliedDelta::Move(mv) => {
                if mv.from != mv.to {
                    self.shift(mv.miner, mv.to, mv.from);
                }
            }
            AppliedDelta::InsertMiner {
                miner,
                coin,
                previous,
            } => {
                self.deactivate_miner(*miner, *coin);
                self.config.apply_move(*miner, *previous);
            }
            AppliedDelta::RemoveMiner { miner, coin } => {
                self.miner_active[miner.index()] = true;
                self.active_miners += 1;
                self.masses.add(*coin, self.game.system().power_of(*miner));
                self.config.apply_move(*miner, *coin);
                self.groups.insert(*miner, *coin);
            }
            AppliedDelta::LaunchCoin { coin } => {
                debug_assert_eq!(self.masses.mass_of(*coin), 0, "launch undone after moves");
                self.coin_active[coin.index()] = false;
                self.active_coins -= 1;
            }
            AppliedDelta::RetireCoin { coin, relocations } => {
                self.coin_active[coin.index()] = true;
                self.active_coins += 1;
                for mv in relocations.iter().rev() {
                    self.shift(mv.miner, mv.to, mv.from);
                }
            }
        }
        Some(applied)
    }

    fn deactivate_miner(&mut self, p: MinerId, coin: CoinId) {
        self.miner_active[p.index()] = false;
        self.active_miners -= 1;
        self.masses.remove(coin, self.game.system().power_of(p));
        self.groups.remove(p);
    }

    /// The RPU miner `p` would experience after joining `c` from nowhere
    /// (`F(c) / (M_c + m_p)`): the placement objective of arrivals and
    /// forced relocations.
    fn joined_rpu(&self, p: MinerId, c: CoinId) -> RpuKey {
        let mass = self.masses.mass_of(c) + u128::from(self.game.system().power_of(p));
        RpuKey::new(self.game.reward_of(c), mass)
    }

    /// The best active permitted coin to place `p` on (highest post-join
    /// RPU, ties to the lowest coin id), or `None` if no active coin is
    /// permitted. Placement is *forced*: unlike a better response it
    /// needs no current payoff to beat.
    fn forced_placement(&self, p: MinerId) -> Option<CoinId> {
        let mut best: Option<(RpuKey, CoinId)> = None;
        for c in self.game.system().coin_ids() {
            if !self.coin_active[c.index()] || !self.game.allowed(p, c) {
                continue;
            }
            let v = self.joined_rpu(p, c);
            if best.is_none_or(|(b, _)| v > b) {
                best = Some((v, c));
            }
        }
        best.map(|(_, c)| c)
    }

    fn shift(&mut self, p: MinerId, from: CoinId, to: CoinId) {
        let power = self.game.system().power_of(p);
        self.masses.apply_move(power, from, to);
        self.config.apply_move(p, to);
        self.groups.move_miner(p, to);
    }
}

fn inv(mass: u128) -> Ratio {
    Ratio::new(1, mass as i128).expect("mass is positive")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::potential;

    fn cfg(game: &Game, coins: &[usize]) -> Configuration {
        Configuration::new(coins.iter().map(|&c| CoinId(c)).collect(), game.system()).unwrap()
    }

    #[test]
    fn validates_start_shape() {
        let game = Game::build(&[2, 1], &[1, 1]).unwrap();
        let other = Game::build(&[1, 1, 1], &[1, 1]).unwrap();
        let foreign = Configuration::uniform(CoinId(0), other.system()).unwrap();
        assert!(matches!(
            MassTracker::new(&game, &foreign),
            Err(GameError::ConfigLengthMismatch { .. })
        ));
    }

    #[test]
    fn matches_naive_queries_after_moves() {
        let game = Game::build(&[5, 3, 3, 2, 1], &[9, 4, 2]).unwrap();
        let start = cfg(&game, &[0, 0, 1, 2, 0]);
        let mut t = MassTracker::new(&game, &start).unwrap();
        let moves = [
            (MinerId(0), CoinId(1)),
            (MinerId(4), CoinId(2)),
            (MinerId(2), CoinId(0)),
            (MinerId(0), CoinId(0)),
        ];
        for (p, c) in moves {
            t.apply(p, c);
            let s = t.config().clone();
            let masses = s.masses(game.system());
            assert_eq!(t.masses(), &masses);
            assert_eq!(t.rpu_list(), potential::rpu_list(&game, &s));
            assert_eq!(
                t.symmetric_potential(),
                potential::symmetric_potential(&game, &s)
            );
            assert_eq!(t.improving_moves(), game.improving_moves(&s));
            assert_eq!(t.unstable_miners(), game.unstable_miners(&s));
            assert_eq!(t.is_stable(), game.is_stable(&s));
            for p in game.system().miner_ids() {
                assert_eq!(t.payoff(p), game.payoff(p, &s));
                assert_eq!(t.best_response(p), game.best_response(p, &s, &masses));
            }
        }
    }

    #[test]
    fn undo_round_trips() {
        let game = Game::build(&[4, 2, 1], &[6, 3]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        let baseline = t.symmetric_potential();
        t.apply(MinerId(1), CoinId(1));
        t.apply(MinerId(2), CoinId(1));
        t.apply(MinerId(2), CoinId(1)); // same-coin no-op still undoes
        assert_eq!(t.depth(), 3);
        while t.undo().is_some() {}
        assert_eq!(t.config(), &start);
        assert_eq!(t.masses(), &start.masses(game.system()));
        assert_eq!(t.symmetric_potential(), baseline);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.undo(), None);
    }

    #[test]
    fn groups_collapse_equal_powers() {
        // 6 unit miners on one coin: one group; splitting creates a second.
        let game = Game::build(&[1; 6], &[3, 3]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        assert_eq!(t.group_count(), 1);
        t.apply(MinerId(3), CoinId(1));
        assert_eq!(t.group_count(), 2);
        // All members of a group report identical stability.
        let masses = t.config().masses(game.system());
        for p in game.system().miner_ids() {
            assert_eq!(
                t.best_response(p),
                game.best_response(p, t.config(), &masses)
            );
        }
    }

    #[test]
    fn restricted_games_split_groups_per_miner() {
        let game = Game::build(&[1, 1], &[2, 2])
            .unwrap()
            .with_restrictions(vec![vec![true, false], vec![true, true]])
            .unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let t = MassTracker::new(&game, &start).unwrap();
        assert_eq!(t.group_count(), 2);
        // p0 may not leave c0; p1 may.
        assert_eq!(t.best_response(MinerId(0)), None);
        assert_eq!(t.best_response(MinerId(1)), Some(CoinId(1)));
        assert_eq!(t.improving_moves(), game.improving_moves(t.config()));
    }

    #[test]
    fn find_improving_move_drives_convergence() {
        let game = Game::build(&[8, 5, 3, 2, 1, 1], &[9, 6, 2]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        let mut steps = 0;
        while let Some(mv) = t.find_improving_move() {
            assert!(t.is_better_response(mv.miner, mv.to), "{mv} not improving");
            t.apply(mv.miner, mv.to);
            steps += 1;
            assert!(steps < 10_000, "did not converge");
        }
        assert!(t.is_stable());
        assert!(game.is_stable(t.config()));
        assert!(steps >= 2);
    }

    #[test]
    fn potential_accumulator_tracks_occupancy() {
        let game = Game::build(&[2, 1], &[5, 5]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        assert_eq!(t.symmetric_potential(), Extended::Infinite);
        t.apply(MinerId(1), CoinId(1));
        assert_eq!(
            t.symmetric_potential(),
            Extended::Finite(Ratio::new(3, 2).unwrap())
        );
        t.undo();
        assert_eq!(t.symmetric_potential(), Extended::Infinite);
    }

    #[test]
    fn undo_recording_can_be_disabled() {
        let game = Game::build(&[4, 2, 1], &[6, 3]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        t.apply(MinerId(0), CoinId(1));
        t.set_undo_recording(false);
        t.apply(MinerId(1), CoinId(1));
        t.apply(MinerId(2), CoinId(1));
        // Only the recorded move is on the stack; state is still exact.
        assert_eq!(t.depth(), 1);
        assert_eq!(t.masses(), &t.config().masses(game.system()));
        let undone = t.undo().unwrap();
        assert_eq!(undone.miner, MinerId(0));
        assert_eq!(t.undo(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn apply_rejects_unknown_coins() {
        let game = Game::build(&[2, 1], &[1, 1]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        t.apply(MinerId(0), CoinId(7));
    }

    #[test]
    fn into_config_returns_current_state() {
        let game = Game::build(&[2, 1], &[1, 1]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        t.apply(MinerId(1), CoinId(1));
        let final_config = t.into_config();
        assert_eq!(final_config.coin_of(MinerId(1)), CoinId(1));
    }

    // ------------------------------------------------------------------
    // Churn deltas
    // ------------------------------------------------------------------

    #[test]
    fn insert_and_remove_patch_masses_and_groups() {
        let game = Game::build(&[4, 2, 1], &[6, 3]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t =
            MassTracker::with_activity(&game, &start, &[true, true, false], &[true, true]).unwrap();
        assert_eq!(t.active_miner_count(), 2);
        assert_eq!(t.mass_of(CoinId(0)), 6);
        assert_eq!(t.payoff(MinerId(2)), Ratio::ZERO);

        // p2 arrives by best response: the empty coin 1 pays 3/1 > 6/7.
        let applied = t
            .apply_delta(Delta::InsertMiner {
                miner: MinerId(2),
                coin: None,
            })
            .unwrap();
        assert_eq!(
            applied,
            AppliedDelta::InsertMiner {
                miner: MinerId(2),
                coin: CoinId(1),
                previous: CoinId(0)
            }
        );
        assert_eq!(t.mass_of(CoinId(1)), 1);
        assert_eq!(t.active_miner_count(), 3);

        // Departures free the mass again.
        t.apply_delta(Delta::RemoveMiner { miner: MinerId(0) })
            .unwrap();
        assert_eq!(t.mass_of(CoinId(0)), 2);
        assert_eq!(t.active_miner_count(), 2);
        assert!(!t.is_miner_active(MinerId(0)));

        // Deltas are rejected with named errors, not silent corruption.
        assert_eq!(
            t.apply_delta(Delta::RemoveMiner { miner: MinerId(0) }),
            Err(GameError::MinerInactive { miner: MinerId(0) })
        );
        assert_eq!(
            t.apply_delta(Delta::InsertMiner {
                miner: MinerId(2),
                coin: None
            }),
            Err(GameError::MinerActive { miner: MinerId(2) })
        );
        assert_eq!(
            t.apply_delta(Delta::Move {
                miner: MinerId(0),
                to: CoinId(1)
            }),
            Err(GameError::MinerInactive { miner: MinerId(0) })
        );

        // Full rewind restores the initial activity state exactly.
        while t.undo_delta().is_some() {}
        assert_eq!(t.active_miner_count(), 2);
        assert_eq!(t.mass_of(CoinId(0)), 6);
        assert_eq!(t.mass_of(CoinId(1)), 0);
        assert!(!t.is_miner_active(MinerId(2)));
    }

    #[test]
    fn launch_and_retire_toggle_the_coin_universe() {
        // Coin 2 starts dormant; after launch it attracts a mover; the
        // retirement of coin 1 forcibly relocates its residents.
        let game = Game::build(&[3, 2, 1], &[6, 3, 4]).unwrap();
        let start = cfg(&game, &[0, 1, 1]);
        let mut t =
            MassTracker::with_activity(&game, &start, &[true; 3], &[true, true, false]).unwrap();
        assert_eq!(t.active_coin_count(), 2);
        // The dormant coin is invisible to every query.
        assert_eq!(t.rpu_list().len(), 2);
        assert!(t
            .better_responses(MinerId(2))
            .iter()
            .all(|&c| c != CoinId(2)));
        assert_eq!(
            t.apply_delta(Delta::Move {
                miner: MinerId(2),
                to: CoinId(2)
            }),
            Err(GameError::CoinInactive { coin: CoinId(2) })
        );

        t.apply_delta(Delta::LaunchCoin { coin: CoinId(2) })
            .unwrap();
        assert_eq!(t.active_coin_count(), 3);
        assert_eq!(
            t.apply_delta(Delta::LaunchCoin { coin: CoinId(2) }),
            Err(GameError::CoinActive { coin: CoinId(2) })
        );
        // The fresh coin pays 4/(1+1) = 2 to p2 vs 3/3 = 1 staying: a
        // better response the launch made legal.
        assert!(t.is_better_response(MinerId(2), CoinId(2)));
        t.apply(MinerId(2), CoinId(2));

        // Retiring coin 1 relocates p1 (power 2): targets pay 6/5 (c0)
        // vs 4/3 (c2) — forced best response picks c2.
        let applied = t
            .apply_delta(Delta::RetireCoin { coin: CoinId(1) })
            .unwrap();
        let AppliedDelta::RetireCoin { coin, relocations } = &applied else {
            panic!("expected a retirement, got {applied}");
        };
        assert_eq!(*coin, CoinId(1));
        assert_eq!(
            relocations.as_slice(),
            &[Move {
                miner: MinerId(1),
                from: CoinId(1),
                to: CoinId(2)
            }]
        );
        assert_eq!(t.mass_of(CoinId(1)), 0);
        assert!(!t.is_coin_active(CoinId(1)));
        // The whole history unwinds exactly.
        while t.undo_delta().is_some() {}
        assert_eq!(t.config(), &start);
        assert_eq!(t.masses(), &start.masses(game.system()));
        assert!(!t.is_coin_active(CoinId(2)));
        assert!(t.is_coin_active(CoinId(1)));
    }

    #[test]
    fn retirement_is_atomic_when_a_restricted_miner_is_stranded() {
        // p0 may only mine c0: retiring c0 must fail atomically.
        let game = Game::build(&[2, 1], &[1, 1])
            .unwrap()
            .with_restrictions(vec![vec![true, false], vec![true, true]])
            .unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        let before = t.clone();
        assert_eq!(
            t.apply_delta(Delta::RetireCoin { coin: CoinId(0) }),
            Err(GameError::NoPlacement { miner: MinerId(0) })
        );
        assert_eq!(t.config(), before.config());
        assert_eq!(t.masses(), before.masses());
        assert_eq!(t.active_coin_count(), 2);
        assert_eq!(t.depth(), 0);
        // Retiring c1 instead relocates p1 back onto its permitted coin.
        let applied = t.apply_delta(Delta::RetireCoin { coin: CoinId(1) });
        assert!(applied.is_ok());
        assert_eq!(t.coin_of(MinerId(1)), CoinId(0));
    }

    #[test]
    fn active_subgame_projects_the_churned_state() {
        let game = Game::build(&[5, 3, 2, 1], &[9, 4, 2]).unwrap();
        let start = cfg(&game, &[0, 1, 1, 2]);
        let mut t = MassTracker::new(&game, &start).unwrap();
        // All-active: the projection is the identity on ids.
        let sub = t.active_subgame().unwrap();
        assert_eq!(sub.game.system().num_miners(), 4);
        assert_eq!(sub.config, start);

        t.apply_delta(Delta::RemoveMiner { miner: MinerId(1) })
            .unwrap();
        t.apply_delta(Delta::RetireCoin { coin: CoinId(2) })
            .unwrap();
        let sub = t.active_subgame().unwrap();
        assert_eq!(sub.miners, vec![MinerId(0), MinerId(2), MinerId(3)]);
        assert_eq!(sub.coins, vec![CoinId(0), CoinId(1)]);
        assert_eq!(sub.game.system().num_miners(), 3);
        assert_eq!(sub.game.system().num_coins(), 2);
        // Dense masses equal the tracker's masses on the live coins.
        let dense_masses = sub.config.masses(sub.game.system());
        for (dense, &c) in sub.coins.iter().enumerate() {
            assert_eq!(dense_masses.mass_of(CoinId(dense)), t.mass_of(c));
        }
        // Tracker stability answers exactly as the naive dense oracle.
        assert_eq!(t.is_stable(), sub.game.is_stable(&sub.config));
    }

    #[test]
    #[should_panic(expected = "population delta")]
    fn move_only_undo_rejects_population_deltas() {
        let game = Game::build(&[2, 1], &[1, 1]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        t.apply_delta(Delta::RemoveMiner { miner: MinerId(1) })
            .unwrap();
        t.undo();
    }

    #[test]
    fn with_activity_rejects_active_miners_on_dormant_coins() {
        let game = Game::build(&[2, 1], &[1, 1]).unwrap();
        let start = cfg(&game, &[0, 1]);
        assert_eq!(
            MassTracker::with_activity(&game, &start, &[true, true], &[true, false]).err(),
            Some(GameError::CoinInactive { coin: CoinId(1) })
        );
        // A dormant miner may point at a dormant coin.
        let t = MassTracker::with_activity(&game, &start, &[true, false], &[true, false]).unwrap();
        assert_eq!(t.active_miner_count(), 1);
        assert_eq!(t.active_coin_count(), 1);
    }
}
