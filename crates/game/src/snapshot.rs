//! Versioned binary snapshots of incremental game state.
//!
//! Everything else in the workspace serializes through JSON, which is
//! fine for reports and wire envelopes but hopeless as a forking
//! primitive: rebuilding a 100k-miner [`MassTracker`] from a JSON
//! `Game` + `Configuration` parses the whole population again for
//! every Monte-Carlo replica. A [`Snapshot`] is the binary counterpart
//! — a self-contained, versioned, checksummed encoding of a tracker's
//! observable state:
//!
//! * the [`Game`] (system powers and names, exact rational rewards,
//!   optional restriction matrix),
//! * the [`Configuration`] and the maintained per-coin [`Masses`],
//! * the miner/coin activity masks of the churn vocabulary,
//! * the strategic group index in **historical group-id order** plus
//!   the round-robin cursor — the two pieces of state a from-scratch
//!   rebuild cannot recover (group ids record first-encounter history,
//!   and the cursor steers [`MassTracker::find_improving_move`]), so
//!   forks replay *bit-identical* trajectories.
//!
//! The undo stack is deliberately **not** captured: a fork starts a new
//! history (`depth() == 0`, undo recording on).
//!
//! A snapshot builds trackers the way [`MassTracker::new`] does, through
//! the tracker's one bulk loader: [`Snapshot::fork_at`] is a fresh build
//! at a new start, while [`Snapshot::fork`] and decoding restore the
//! captured class table and cursor. A snapshot shares the captured
//! tracker's strategic families (its miners numbered by
//! `(power, restriction)`), so neither fork sorts the population again;
//! only decoding derives them anew.
//!
//! # Wire format (version 1)
//!
//! ```text
//! magic  "GOCS"                       4 bytes
//! version u16 LE                      2 bytes
//! payload length u64 LE               8 bytes
//! payload                             (see `encode`)  — all LE,
//!                                     length-prefixed strings
//! checksum u64 LE                     FNV-1a over every prior byte
//! ```
//!
//! Decoding never panics and never yields partial state: every failure
//! is a named [`SnapshotError`], corruption is caught by the checksum
//! (any single bit flip changes the FNV-1a digest), truncation by
//! bounds-checked reads, and the decoded state is semantically
//! re-validated by restoring a tracker from it (masses recomputed from
//! the configuration and activity masks, the class table checked for
//! out-of-range coins and cursors, stray restriction keys, duplicates,
//! classes of a family no miner has, and active miners it does not
//! cover) before a [`Snapshot`] is handed back.
//!
//! # Examples
//!
//! ```
//! use goc_game::{CoinId, Configuration, Game, MassTracker, Snapshot};
//!
//! let game = Game::build(&[3, 2, 1], &[5, 5])?;
//! let start = Configuration::uniform(CoinId(0), game.system())?;
//! let tracker = MassTracker::new(&game, &start)?;
//!
//! let bytes = Snapshot::of(&tracker).encode();
//! let snap = Snapshot::try_from(bytes.as_slice())?;
//! let fork = snap.fork();
//! assert_eq!(fork.config(), tracker.config());
//! assert_eq!(fork.masses(), tracker.masses());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::sync::Arc;

use crate::config::{Configuration, Masses};
use crate::error::GameError;
use crate::game::{Game, Rewards};
use crate::ids::CoinId;
use crate::ratio::Ratio;
use crate::system::SystemBuilder;
use crate::tracker::{Families, GroupKey, MassTracker};

/// The 4-byte snapshot magic (`"GOCS"`).
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"GOCS";

/// The current (and only) snapshot wire version.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Bytes of the fixed header: magic + version + payload length.
const HEADER_LEN: usize = 4 + 2 + 8;

/// Decoding failures. Every variant names exactly what went wrong;
/// decoding never panics and never returns partially-filled state.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The buffer does not start with [`SNAPSHOT_MAGIC`].
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The version field names a format this build cannot read.
    UnsupportedVersion {
        /// The version actually found.
        found: u16,
    },
    /// The buffer ends before a read completes.
    Truncated {
        /// Bytes the failing read needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Bytes remain after the declared payload and checksum.
    TrailingBytes {
        /// Number of surplus bytes.
        extra: usize,
    },
    /// The trailing FNV-1a digest does not match the frame.
    ChecksumMismatch {
        /// Digest stored in the frame.
        stored: u64,
        /// Digest recomputed over the frame.
        computed: u64,
    },
    /// The frame parsed but the decoded state is inconsistent.
    Corrupted {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// Rebuilding the model from decoded fields failed validation.
    Game(GameError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic { found } => {
                write!(
                    f,
                    "bad snapshot magic {found:?} (expected {SNAPSHOT_MAGIC:?})"
                )
            }
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated snapshot: read needs {needed} bytes, {have} available"
                )
            }
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after snapshot frame")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )
            }
            SnapshotError::Corrupted { reason } => write!(f, "corrupted snapshot: {reason}"),
            SnapshotError::Game(e) => write!(f, "snapshot state fails validation: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<GameError> for SnapshotError {
    fn from(e: GameError) -> Self {
        SnapshotError::Game(e)
    }
}

// ---------------------------------------------------------------------
// FNV-1a
// ---------------------------------------------------------------------

/// 64-bit FNV-1a over a byte slice (the same digest the equilibrium
/// fingerprints use): cheap, dependency-free, and any single-bit flip
/// changes it.
fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// ---------------------------------------------------------------------
// Little-endian writer / bounds-checked reader
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i128(out: &mut Vec<u8>, v: i128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// [`put_str`] of miner `i`'s default name `p{i}`, its digits written
/// right to left on the stack (a 100k-miner encode formats no strings).
fn put_default_name(out: &mut Vec<u8>, mut i: usize) {
    let mut name = [0u8; 21]; // 'p' + the 20 digits of `usize::MAX`
    let mut start = name.len();
    loop {
        start -= 1;
        name[start] = b'0' + (i % 10) as u8;
        i /= 10;
        if i == 0 {
            break;
        }
    }
    start -= 1;
    name[start] = b'p';
    put_u64(out, (name.len() - start) as u64);
    out.extend_from_slice(&name[start..]);
}

/// Cursor over an untrusted buffer. Every read is bounds-checked and
/// every length/count field is validated against the bytes actually
/// remaining *before* any allocation, so a corrupt length cannot
/// trigger a huge `Vec` reservation.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i128(&mut self) -> Result<i128, SnapshotError> {
        Ok(i128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a count that prefixes `min_item_size`-byte (or larger)
    /// items; rejects counts the remaining bytes cannot possibly hold.
    fn count(&mut self, min_item_size: usize) -> Result<usize, SnapshotError> {
        let raw = self.u64()?;
        let limit = (self.remaining() / min_item_size.max(1)) as u64;
        if raw > limit {
            return Err(SnapshotError::Truncated {
                needed: (raw as usize).saturating_mul(min_item_size.max(1)),
                have: self.remaining(),
            });
        }
        Ok(raw as usize)
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Corrupted {
            reason: "name is not valid UTF-8".to_string(),
        })
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupted {
                reason: format!("flag byte must be 0 or 1, found {b}"),
            }),
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

/// A self-contained capture of a [`MassTracker`]'s observable state —
/// game, configuration, masses, activity masks, and the group index's
/// historical id order plus round-robin cursor. Obtain one with
/// [`Snapshot::of`], persist it with [`Snapshot::encode`], restore it
/// with `Snapshot::try_from(&bytes[..])`, and spawn trackers with the
/// `fork*` family. See the [module docs](self) for the wire format.
#[derive(Debug, Clone)]
pub struct Snapshot {
    game: Game,
    config: Configuration,
    masses: Masses,
    miner_active: Vec<bool>,
    coin_active: Vec<bool>,
    /// Group keys in historical group-id order (including classes
    /// emptied by later moves — their ids still pace the cursor).
    keys: Vec<GroupKey>,
    cursor: usize,
    /// The game's strategic families, shared with the captured tracker
    /// and every fork, so no fork re-derives them.
    families: Arc<Families>,
}

impl Snapshot {
    /// Captures `tracker`'s current state (the undo stack is not part
    /// of a snapshot — forks start a fresh history).
    pub fn of(tracker: &MassTracker<'_>) -> Snapshot {
        let index = tracker.group_index();
        Snapshot {
            game: tracker.game().clone(),
            config: tracker.config().clone(),
            masses: tracker.masses().clone(),
            miner_active: tracker.miner_activity().to_vec(),
            coin_active: tracker.coin_activity().to_vec(),
            keys: index.class_keys().to_vec(),
            cursor: index.cursor,
            families: Arc::clone(&index.families),
        }
    }

    /// The snapshot's game (forks borrow it).
    pub fn game(&self) -> &Game {
        &self.game
    }

    /// The captured configuration.
    pub fn config(&self) -> &Configuration {
        &self.config
    }

    /// The captured per-coin mass table.
    pub fn masses(&self) -> &Masses {
        &self.masses
    }

    /// The captured miner activity mask.
    pub fn miner_activity(&self) -> &[bool] {
        &self.miner_active
    }

    /// The captured coin activity mask.
    pub fn coin_activity(&self) -> &[bool] {
        &self.coin_active
    }

    /// Serializes to the version-1 wire format (see the
    /// [module docs](self)).
    pub fn encode(&self) -> Vec<u8> {
        let system = self.game.system();
        let n = system.num_miners();
        let k = system.num_coins();
        let mut payload = Vec::with_capacity(32 * n + 64 * k + 64);
        put_u64(&mut payload, n as u64);
        put_u64(&mut payload, k as u64);
        for miner in system.miners() {
            match miner.custom_name() {
                Some(name) => put_str(&mut payload, name),
                None => put_default_name(&mut payload, miner.id().index()),
            }
            put_u64(&mut payload, system.power_of(miner.id()));
        }
        for coin in system.coins() {
            put_str(&mut payload, coin.name());
        }
        for (_, reward) in self.game.rewards().iter() {
            put_i128(&mut payload, reward.numerator());
            put_i128(&mut payload, reward.denominator());
        }
        payload.push(u8::from(self.game.is_restricted()));
        if self.game.is_restricted() {
            for p in system.miner_ids() {
                for c in system.coin_ids() {
                    payload.push(u8::from(self.game.allowed(p, c)));
                }
            }
        }
        for &coin in self.config.as_slice() {
            put_u64(&mut payload, coin.index() as u64);
        }
        for &active in &self.miner_active {
            payload.push(u8::from(active));
        }
        for &active in &self.coin_active {
            payload.push(u8::from(active));
        }
        put_u64(&mut payload, self.keys.len() as u64);
        for &(coin, power, rkey) in &self.keys {
            put_u32(&mut payload, coin);
            put_u64(&mut payload, power);
            put_u32(&mut payload, rkey);
        }
        put_u64(&mut payload, self.cursor as u64);

        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u16(&mut out, SNAPSHOT_VERSION);
        put_u64(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        let digest = fnv1a(&out);
        put_u64(&mut out, digest);
        out
    }

    /// Spawns a tracker in exactly the captured state, borrowing the
    /// snapshot's own game: same configuration, masses, activity,
    /// group ids, and cursor — so the fork's
    /// [`MassTracker::find_improving_move`] trajectory is bit-identical
    /// to the original's. The fork starts with an empty undo stack and
    /// recording enabled.
    pub fn fork(&self) -> MassTracker<'_> {
        MassTracker::load(
            &self.game,
            Arc::clone(&self.families),
            self.config.clone(),
            self.miner_active.clone(),
            self.coin_active.clone(),
            Some((&self.keys, self.cursor)),
        )
        .expect("a snapshot restores the state it captured")
    }

    /// Spawns a tracker over the snapshot's game and activity masks but
    /// at a **different** starting configuration — the ensemble's
    /// population fork: one snapshot carries the expensive shared state
    /// (game, masks), each replica supplies its own random start. The
    /// group index is built fresh (first-encounter id order, cursor 0):
    /// this is exactly [`MassTracker::with_activity`] over the
    /// snapshot's game and masks, except that the game's strategic
    /// families are shared with the snapshot rather than derived again.
    ///
    /// # Errors
    ///
    /// * [`SnapshotError::Game`] wrapping the shape/activity errors of
    ///   [`MassTracker::with_activity`].
    pub fn fork_at(&self, start: &Configuration) -> Result<MassTracker<'_>, SnapshotError> {
        MassTracker::load(
            &self.game,
            Arc::clone(&self.families),
            Configuration::new(start.as_slice().to_vec(), self.game.system())?,
            self.miner_active.clone(),
            self.coin_active.clone(),
            None,
        )
    }
}

impl TryFrom<&[u8]> for Snapshot {
    type Error = SnapshotError;

    fn try_from(bytes: &[u8]) -> Result<Self, Self::Error> {
        // --- Frame ---------------------------------------------------
        let mut r = Reader::new(bytes);
        let magic = r.take(4)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic {
                found: magic.try_into().unwrap(),
            });
        }
        let version = r.u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let payload_len = r.u64()? as usize;
        let have = r.remaining();
        let framed = payload_len.checked_add(8).ok_or(SnapshotError::Truncated {
            needed: usize::MAX,
            have,
        })?;
        if have < framed {
            return Err(SnapshotError::Truncated {
                needed: framed,
                have,
            });
        }
        if have > framed {
            return Err(SnapshotError::TrailingBytes {
                extra: have - framed,
            });
        }
        let body_end = HEADER_LEN + payload_len;
        let stored = u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().unwrap());
        let computed = fnv1a(&bytes[..body_end]);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }

        // --- Payload -------------------------------------------------
        let mut r = Reader {
            buf: &bytes[..body_end],
            pos: HEADER_LEN,
        };
        // Each miner record is at least name-length (8) + power (8).
        let n = {
            let raw = r.u64()?;
            if raw > (r.remaining() / 16) as u64 {
                return Err(SnapshotError::Truncated {
                    needed: (raw as usize).saturating_mul(16),
                    have: r.remaining(),
                });
            }
            raw as usize
        };
        let k = {
            let raw = r.u64()?;
            if raw > (r.remaining() / 8) as u64 {
                return Err(SnapshotError::Truncated {
                    needed: (raw as usize).saturating_mul(8),
                    have: r.remaining(),
                });
            }
            raw as usize
        };
        let mut builder = SystemBuilder::new();
        for _ in 0..n {
            let name = r.string()?;
            let power = r.u64()?;
            builder.named_miner(name, power);
        }
        for _ in 0..k {
            builder.named_coin(r.string()?);
        }
        let system = builder.build()?;
        let mut rewards = Vec::with_capacity(k);
        for c in 0..k {
            let num = r.i128()?;
            let den = r.i128()?;
            rewards.push(Ratio::new(num, den).map_err(|_| SnapshotError::Corrupted {
                reason: format!("reward of coin {c} has a zero denominator"),
            })?);
        }
        let mut game = Game::new(system, Rewards::from_ratios(rewards)?)?;
        if r.bool()? {
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let row = r.take(k)?;
                let mut out = Vec::with_capacity(k);
                for &b in row {
                    out.push(match b {
                        0 => false,
                        1 => true,
                        other => {
                            return Err(SnapshotError::Corrupted {
                                reason: format!("restriction byte must be 0 or 1, found {other}"),
                            })
                        }
                    });
                }
                rows.push(out);
            }
            game = game.with_restrictions(rows)?;
        }
        let mut assignment = Vec::with_capacity(n);
        for _ in 0..n {
            let raw = r.u64()?;
            if raw >= k as u64 {
                return Err(SnapshotError::Game(GameError::CoinOutOfRange {
                    coin: CoinId(raw as usize),
                    coins: k,
                }));
            }
            assignment.push(CoinId(raw as usize));
        }
        let config = Configuration::new(assignment, game.system())?;
        let mut miner_active = Vec::with_capacity(n);
        for _ in 0..n {
            miner_active.push(r.bool()?);
        }
        let mut coin_active = Vec::with_capacity(k);
        for _ in 0..k {
            coin_active.push(r.bool()?);
        }
        let groups = r.count(16)?;
        let mut keys: Vec<GroupKey> = Vec::with_capacity(groups);
        for _ in 0..groups {
            let coin = r.u32()?;
            let power = r.u64()?;
            let rkey = r.u32()?;
            keys.push((coin, power, rkey));
        }
        let cursor = r.u64()? as usize;
        if r.pos != body_end {
            return Err(SnapshotError::TrailingBytes {
                extra: body_end - r.pos,
            });
        }

        // --- Semantic validation ------------------------------------
        // Restoring a tracker re-checks everything the wire cannot be
        // trusted with: masses are recomputed from the configuration and
        // activity masks, and the class table is checked against the
        // active population.
        let families = Families::new(&game);
        let masses = MassTracker::load(
            &game,
            Arc::clone(&families),
            config.clone(),
            miner_active.clone(),
            coin_active.clone(),
            Some((&keys, cursor)),
        )?
        .masses()
        .clone();

        Ok(Snapshot {
            game,
            config,
            masses,
            miner_active,
            coin_active,
            keys,
            cursor,
            families,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Delta;
    use crate::ids::MinerId;

    fn tracker_fixture(game: &Game) -> MassTracker<'_> {
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut tracker = MassTracker::new(game, &start).unwrap();
        while let Some(mv) = tracker.find_improving_move() {
            tracker.apply(mv.miner, mv.to);
        }
        tracker
    }

    #[test]
    fn round_trip_preserves_observable_state() {
        let game = Game::build(&[8, 5, 3, 2, 1, 1], &[7, 4, 2]).unwrap();
        let tracker = tracker_fixture(&game);
        let bytes = Snapshot::of(&tracker).encode();
        let snap = Snapshot::try_from(bytes.as_slice()).unwrap();
        let fork = snap.fork();
        assert_eq!(fork.config(), tracker.config());
        assert_eq!(fork.masses(), tracker.masses());
        assert_eq!(fork.group_count(), tracker.group_count());
        assert_eq!(fork.miner_activity(), tracker.miner_activity());
        assert_eq!(fork.coin_activity(), tracker.coin_activity());
        assert_eq!(*fork.game(), game);
        assert_eq!(fork.depth(), 0);
    }

    #[test]
    fn fork_replays_the_same_trajectory() {
        let game = Game::build(&[8, 5, 3, 2, 1, 1], &[7, 4, 2]).unwrap();
        let start = Configuration::uniform(CoinId(2), game.system()).unwrap();
        let mut original = MassTracker::new(&game, &start).unwrap();
        // Capture mid-dynamics so the cursor is nontrivial.
        for _ in 0..2 {
            if let Some(mv) = original.find_improving_move() {
                original.apply(mv.miner, mv.to);
            }
        }
        let bytes = Snapshot::of(&original).encode();
        let snap = Snapshot::try_from(bytes.as_slice()).unwrap();
        let mut fork = snap.fork();
        loop {
            let a = original.find_improving_move();
            let b = fork.find_improving_move();
            assert_eq!(a, b, "fork diverged from the original");
            match a {
                Some(mv) => {
                    original.apply(mv.miner, mv.to);
                    fork.apply(mv.miner, mv.to);
                }
                None => break,
            }
        }
        assert_eq!(fork.config(), original.config());
    }

    #[test]
    fn fork_at_matches_with_activity() {
        let game = Game::build(&[8, 5, 3, 2, 1, 1], &[7, 4, 2]).unwrap();
        let tracker = tracker_fixture(&game);
        let snap = Snapshot::of(&tracker);
        let start = Configuration::new(
            vec![
                CoinId(1),
                CoinId(0),
                CoinId(2),
                CoinId(1),
                CoinId(0),
                CoinId(2),
            ],
            game.system(),
        )
        .unwrap();
        let mut forked = snap.fork_at(&start).unwrap();
        let mut rebuilt = MassTracker::new(&game, &start).unwrap();
        assert_eq!(forked.config(), rebuilt.config());
        assert_eq!(forked.masses(), rebuilt.masses());
        assert_eq!(forked.group_count(), rebuilt.group_count());
        loop {
            let a = rebuilt.find_improving_move();
            let b = forked.find_improving_move();
            assert_eq!(a, b, "population fork diverged from a fresh rebuild");
            match a {
                Some(mv) => {
                    rebuilt.apply(mv.miner, mv.to);
                    forked.apply(mv.miner, mv.to);
                }
                None => break,
            }
        }
    }

    #[test]
    fn churned_tracker_round_trips_including_dormant_state() {
        let game = Game::build(&[8, 5, 3, 2, 1, 1], &[7, 4, 2]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let miner_active = vec![true, true, true, true, false, false];
        let coin_active = vec![true, true, false];
        let mut tracker =
            MassTracker::with_activity(&game, &start, &miner_active, &coin_active).unwrap();
        tracker
            .apply_delta(Delta::InsertMiner {
                miner: MinerId(4),
                coin: None,
            })
            .unwrap();
        tracker
            .apply_delta(Delta::RemoveMiner { miner: MinerId(1) })
            .unwrap();
        let bytes = Snapshot::of(&tracker).encode();
        let snap = Snapshot::try_from(bytes.as_slice()).unwrap();
        let fork = snap.fork();
        assert_eq!(fork.config(), tracker.config());
        assert_eq!(fork.masses(), tracker.masses());
        assert_eq!(fork.miner_activity(), tracker.miner_activity());
        assert_eq!(fork.coin_activity(), tracker.coin_activity());
        assert_eq!(fork.active_miner_count(), tracker.active_miner_count());
        assert_eq!(fork.active_coin_count(), tracker.active_coin_count());
        assert_eq!(fork.group_count(), tracker.group_count());
        let a = fork.active_subgame().unwrap();
        let b = tracker.active_subgame().unwrap();
        assert_eq!(a.config, b.config);
        assert_eq!(a.miners, b.miners);
        assert_eq!(a.coins, b.coins);
    }

    #[test]
    fn named_errors_for_bad_frames() {
        let game = Game::build(&[2, 1], &[1, 1]).unwrap();
        let tracker = tracker_fixture(&game);
        let bytes = Snapshot::of(&tracker).encode();

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Snapshot::try_from(bad.as_slice()),
            Err(SnapshotError::BadMagic { .. })
        ));

        let mut bad = bytes.clone();
        bad[4] = 0xFF;
        assert!(matches!(
            Snapshot::try_from(bad.as_slice()),
            Err(SnapshotError::UnsupportedVersion { found: 0xFF })
        ));

        assert!(matches!(
            Snapshot::try_from(&bytes[..bytes.len() - 3]),
            Err(SnapshotError::Truncated { .. })
        ));

        let mut long = bytes.clone();
        long.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(
            Snapshot::try_from(long.as_slice()),
            Err(SnapshotError::TrailingBytes { extra: 3 })
        ));

        let mut flipped = bytes.clone();
        let mid = HEADER_LEN + 5;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            Snapshot::try_from(flipped.as_slice()),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        assert!(matches!(
            Snapshot::try_from(&[] as &[u8]),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    /// A converged 6-miner fixture, its encoding and its class count.
    fn class_table_fixture() -> (Vec<u8>, usize) {
        let game = Game::build(&[8, 5, 3, 2, 1, 1], &[7, 4, 2]).unwrap();
        let tracker = tracker_fixture(&game);
        (Snapshot::of(&tracker).encode(), tracker.group_count())
    }

    /// Re-encodes `bytes` (a frame of `groups` classes) with its class
    /// table and cursor edited, re-sealing the payload length and the
    /// FNV-1a trailer so only semantic validation can object.
    fn with_class_table(
        bytes: &[u8],
        groups: usize,
        edit: impl FnOnce(&mut Vec<GroupKey>, &mut u64),
    ) -> Vec<u8> {
        let body_end = bytes.len() - 8;
        let table_at = body_end - 8 - 16 * groups - 8;
        let mut r = Reader {
            buf: &bytes[..body_end],
            pos: table_at,
        };
        assert_eq!(r.u64().unwrap(), groups as u64);
        let mut keys: Vec<GroupKey> = (0..groups)
            .map(|_| (r.u32().unwrap(), r.u64().unwrap(), r.u32().unwrap()))
            .collect();
        let mut cursor = r.u64().unwrap();
        edit(&mut keys, &mut cursor);
        let mut out = bytes[..table_at].to_vec();
        put_u64(&mut out, keys.len() as u64);
        for &(coin, power, rkey) in &keys {
            put_u32(&mut out, coin);
            put_u64(&mut out, power);
            put_u32(&mut out, rkey);
        }
        put_u64(&mut out, cursor);
        let payload_len = (out.len() - HEADER_LEN) as u64;
        out[6..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        let digest = fnv1a(&out);
        put_u64(&mut out, digest);
        out
    }

    /// The reason of the `Corrupted` error `bytes` must decode to.
    fn corrupted_reason(bytes: &[u8]) -> String {
        match Snapshot::try_from(bytes) {
            Err(SnapshotError::Corrupted { reason }) => reason,
            other => panic!("expected a Corrupted error, got {other:?}"),
        }
    }

    #[test]
    fn an_unedited_class_table_reseals_byte_identically() {
        let (bytes, groups) = class_table_fixture();
        assert_eq!(with_class_table(&bytes, groups, |_, _| {}), bytes);
    }

    #[test]
    fn decode_rejects_a_duplicate_class_key() {
        let (bytes, groups) = class_table_fixture();
        let bad = with_class_table(&bytes, groups, |keys, _| keys.push(keys[0]));
        assert!(corrupted_reason(&bad).contains("duplicate group key"));
    }

    #[test]
    fn decode_rejects_an_active_miner_without_a_class_key() {
        let (bytes, groups) = class_table_fixture();
        // Re-power every class on coin 0: its members keep their keys'
        // coin but no longer match any class.
        let bad = with_class_table(&bytes, groups, |keys, _| {
            for key in keys.iter_mut().filter(|key| key.0 == 0) {
                key.1 += 1000;
            }
        });
        assert!(corrupted_reason(&bad).contains("has no group key"));
    }

    #[test]
    fn decode_rejects_a_class_key_coin_outside_the_universe() {
        let (bytes, groups) = class_table_fixture();
        let bad = with_class_table(&bytes, groups, |keys, _| keys.push((3, 1, 0)));
        assert!(corrupted_reason(&bad).contains("keys coin 3 outside the universe"));
    }

    #[test]
    fn decode_rejects_a_restriction_key_in_an_unrestricted_game() {
        let (bytes, groups) = class_table_fixture();
        let bad = with_class_table(&bytes, groups, |keys, _| keys.push((0, 1, 5)));
        assert!(corrupted_reason(&bad).contains("restriction key 5 in an unrestricted game"));
    }

    #[test]
    fn decode_rejects_a_cursor_out_of_range() {
        let (bytes, groups) = class_table_fixture();
        let bad = with_class_table(&bytes, groups, |keys, cursor| {
            *cursor = keys.len() as u64;
        });
        assert!(corrupted_reason(&bad).contains("out of range"));
    }

    #[test]
    fn decode_rejects_a_class_key_no_miner_has() {
        // Unrestricted: no miner has power 1000.
        let (bytes, groups) = class_table_fixture();
        let bad = with_class_table(&bytes, groups, |keys, _| keys.push((0, 1000, 0)));
        assert!(corrupted_reason(&bad).contains("power 1000 with restriction key 0"));

        // Restricted: miner 0 (restriction key 1) has power 8, not 5, and
        // restriction key 7 would be miner 6 of a 6-miner universe.
        let game = Game::build(&[8, 5, 3, 2, 1, 1], &[7, 4, 2])
            .unwrap()
            .with_restrictions(
                (0..6)
                    .map(|i| (0..3).map(|c| c != i % 3).collect())
                    .collect(),
            )
            .unwrap();
        let start = (0..6).map(|i| CoinId((i + 1) % 3)).collect();
        let start = Configuration::new(start, game.system()).unwrap();
        let mut tracker = MassTracker::new(&game, &start).unwrap();
        while let Some(mv) = tracker.find_improving_move() {
            tracker.apply(mv.miner, mv.to);
        }
        let (bytes, groups) = (Snapshot::of(&tracker).encode(), tracker.group_count());
        assert!(Snapshot::try_from(bytes.as_slice()).is_ok());
        for (key, named) in [
            ((1, 5, 1), "power 5 with restriction key 1"),
            ((1, 1, 7), "power 1 with restriction key 7"),
        ] {
            let bad = with_class_table(&bytes, groups, |keys, _| keys.push(key));
            assert!(corrupted_reason(&bad).contains(named), "{key:?}");
        }
    }

    /// Encodes a four-miner game with the given (optional) miner names,
    /// decodes it, and returns the original, the decoded game and the
    /// bytes.
    fn named_round_trip(names: [Option<&str>; 4]) -> (Game, Game, Vec<u8>) {
        let mut builder = SystemBuilder::new();
        for (name, power) in names.into_iter().zip([5, 3, 2, 1]) {
            match name {
                Some(name) => builder.named_miner(name, power),
                None => builder.miner_with_power(power),
            };
        }
        let system = builder.coin().coin().build().unwrap();
        let game = Game::new(system, Rewards::from_integers(&[3, 2]).unwrap()).unwrap();
        let bytes = Snapshot::of(&tracker_fixture(&game)).encode();
        let decoded = Snapshot::try_from(bytes.as_slice()).unwrap().game().clone();
        (game, decoded, bytes)
    }

    fn miner_names(game: &Game) -> Vec<String> {
        let miners = game.system().miners();
        miners.iter().map(|m| m.name().into_owned()).collect()
    }

    #[test]
    fn default_names_encode_as_their_strings() {
        for i in [0, 9, 10, 99, 100, 12_345, usize::MAX] {
            let (mut derived, mut written) = (Vec::new(), Vec::new());
            put_default_name(&mut derived, i);
            put_str(&mut written, &format!("p{i}"));
            assert_eq!(derived, written, "miner {i}");
        }
    }

    #[test]
    fn default_miner_names_round_trip() {
        let (game, decoded, _) = named_round_trip([None; 4]);
        assert_eq!(decoded, game);
        assert_eq!(miner_names(&decoded), ["p0", "p1", "p2", "p3"]);
    }

    #[test]
    fn custom_miner_names_round_trip() {
        let (game, decoded, _) = named_round_trip([Some("whale"), None, Some("p1"), Some("")]);
        assert_eq!(decoded, game);
        assert_eq!(miner_names(&decoded), ["whale", "p1", "p1", ""]);
    }

    #[test]
    fn a_custom_name_equal_to_the_default_encodes_as_the_default() {
        let (game, decoded, bytes) = named_round_trip([Some("p0"), None, Some("p2"), Some("p3")]);
        let (unnamed, _, unnamed_bytes) = named_round_trip([None; 4]);
        assert_eq!(game, unnamed);
        assert_eq!(decoded, game);
        assert_eq!(bytes, unnamed_bytes);
        assert_eq!(miner_names(&decoded), ["p0", "p1", "p2", "p3"]);
    }
}
