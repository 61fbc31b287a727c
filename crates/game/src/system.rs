//! The system `⟨Π, C⟩`: a finite set of miners with mining powers and a
//! finite set of coins (paper §2).

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::GameError;
use crate::ids::{CoinId, MinerId};

/// Largest accepted mining power / organic reward. Keeping inputs within
/// `[1, 2^40]` guarantees every exact-rational intermediate in the library
/// (including Algorithm 2's designed rewards) fits in `i128`.
pub const MAX_UNIT: u64 = 1 << 40;

/// A miner's hash power, in abstract integer units.
///
/// Real hash rates are integers (hashes per second), so an integer unit
/// loses no generality; see `DESIGN.md` §1 for the exactness rationale.
///
/// # Examples
///
/// ```
/// use goc_game::Power;
/// let p = Power::new(10)?;
/// assert_eq!(p.get(), 10);
/// # Ok::<(), goc_game::GameError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Power(u64);

impl Power {
    /// Creates a validated power.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::PowerOutOfRange`] if `units` is `0` or exceeds
    /// [`MAX_UNIT`]. (The miner id in the error is a placeholder `p0`; the
    /// [`SystemBuilder`] re-reports with the real id.)
    pub fn new(units: u64) -> Result<Self, GameError> {
        if units == 0 || units > MAX_UNIT {
            return Err(GameError::PowerOutOfRange {
                miner: MinerId(0),
                power: units,
            });
        }
        Ok(Power(units))
    }

    /// The power in integer units.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A miner (player) in the system.
///
/// A miner with the default name `p{id}` stores no string: a
/// 100k-miner universe holds no per-miner heap allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Miner {
    id: MinerId,
    name: Option<String>,
    power: Power,
}

impl Miner {
    /// The miner's identifier.
    pub fn id(&self) -> MinerId {
        self.id
    }

    /// The miner's display name: the one it was built with, or `p{id}`.
    pub fn name(&self) -> Cow<'_, str> {
        match &self.name {
            Some(name) => Cow::Borrowed(name),
            None => Cow::Owned(format!("p{}", self.id.index())),
        }
    }

    /// The name the miner was built with, `None` for the default `p{id}`.
    pub(crate) fn custom_name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// The miner's mining power.
    pub fn power(&self) -> Power {
        self.power
    }
}

/// A coin (resource) in the system.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Coin {
    id: CoinId,
    name: String,
}

impl Coin {
    /// The coin's identifier.
    pub fn id(&self) -> CoinId {
        self.id
    }

    /// The coin's display name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A system `⟨Π, C⟩`: miners with powers, and coins.
///
/// Systems are immutable once built and are typically shared behind an
/// [`Arc`] by the games derived from them. Build one with
/// [`SystemBuilder`] or the [`System::new`] shorthand.
///
/// # Examples
///
/// ```
/// use goc_game::System;
///
/// // Three miners with powers 5, 3, 1 competing over two coins.
/// let system = System::new(&[5, 3, 1], 2)?;
/// assert_eq!(system.num_miners(), 3);
/// assert_eq!(system.num_coins(), 2);
/// assert_eq!(system.total_power(), 9);
/// # Ok::<(), goc_game::GameError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct System {
    miners: Vec<Miner>,
    coins: Vec<Coin>,
    total_power: u128,
}

impl System {
    /// Builds a system from raw powers and a coin count, with default names
    /// (`p0..`, `c0..`).
    ///
    /// # Errors
    ///
    /// Propagates [`SystemBuilder::build`] validation errors.
    pub fn new(powers: &[u64], num_coins: usize) -> Result<Arc<Self>, GameError> {
        SystemBuilder {
            miners: powers.iter().map(|&p| (None, p)).collect(),
            coins: vec![None; num_coins],
        }
        .build()
    }

    /// The miners, ordered by [`MinerId`].
    pub fn miners(&self) -> &[Miner] {
        &self.miners
    }

    /// The coins, ordered by [`CoinId`].
    pub fn coins(&self) -> &[Coin] {
        &self.coins
    }

    /// Number of miners `n = |Π|`.
    pub fn num_miners(&self) -> usize {
        self.miners.len()
    }

    /// Number of coins `|C|`.
    pub fn num_coins(&self) -> usize {
        self.coins.len()
    }

    /// A miner's power in integer units.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn power_of(&self, p: MinerId) -> u64 {
        self.miners[p.index()].power.get()
    }

    /// Total mining power `Σ_p m_p`.
    pub fn total_power(&self) -> u128 {
        self.total_power
    }

    /// Iterator over all miner ids.
    pub fn miner_ids(&self) -> impl Iterator<Item = MinerId> + '_ {
        (0..self.miners.len()).map(MinerId)
    }

    /// Iterator over all coin ids.
    pub fn coin_ids(&self) -> impl Iterator<Item = CoinId> + '_ {
        (0..self.coins.len()).map(CoinId)
    }

    /// Miner ids sorted by decreasing power; ties broken by id. The paper's
    /// §4–5 constructions index miners as `p_1 ≥ p_2 ≥ …` — this gives
    /// that order.
    pub fn ids_by_power_desc(&self) -> Vec<MinerId> {
        let mut ids: Vec<MinerId> = self.miner_ids().collect();
        ids.sort_by(|a, b| {
            self.power_of(*b)
                .cmp(&self.power_of(*a))
                .then(a.index().cmp(&b.index()))
        });
        ids
    }

    /// Whether all mining powers are strictly distinct, as required by the
    /// reward design of §5.
    pub fn powers_distinct(&self) -> bool {
        let mut powers: Vec<u64> = self.miners.iter().map(|m| m.power.get()).collect();
        powers.sort_unstable();
        powers.windows(2).all(|w| w[0] != w[1])
    }

    /// Smallest mining power in the system.
    pub fn min_power(&self) -> u64 {
        self.miners
            .iter()
            .map(|m| m.power.get())
            .min()
            .expect("system has at least one miner")
    }

    /// Largest mining power in the system.
    pub fn max_power(&self) -> u64 {
        self.miners
            .iter()
            .map(|m| m.power.get())
            .max()
            .expect("system has at least one miner")
    }
}

/// Incremental builder for [`System`].
///
/// # Examples
///
/// ```
/// use goc_game::SystemBuilder;
///
/// let mut b = SystemBuilder::new();
/// b.named_miner("whale", 1_000)
///  .named_miner("shrimp", 1)
///  .named_coin("BTC")
///  .named_coin("BCH");
/// let system = b.build()?;
/// assert_eq!(system.miners()[0].name(), "whale");
/// # Ok::<(), goc_game::GameError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SystemBuilder {
    miners: Vec<(Option<String>, u64)>,
    coins: Vec<Option<String>>,
}

impl SystemBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a miner with a default name.
    pub fn miner_with_power(&mut self, power: u64) -> &mut Self {
        self.miners.push((None, power));
        self
    }

    /// Adds a named miner.
    pub fn named_miner(&mut self, name: impl Into<String>, power: u64) -> &mut Self {
        self.miners.push((Some(name.into()), power));
        self
    }

    /// Adds a coin with a default name.
    pub fn coin(&mut self) -> &mut Self {
        self.coins.push(None);
        self
    }

    /// Adds a named coin.
    pub fn named_coin(&mut self, name: impl Into<String>) -> &mut Self {
        self.coins.push(Some(name.into()));
        self
    }

    /// Validates and builds the [`System`]. A miner named exactly its
    /// default `p{i}` is stored unnamed, so a system equals itself
    /// decoded from any codec that writes every name.
    ///
    /// # Errors
    ///
    /// * [`GameError::NoMiners`] / [`GameError::NoCoins`] on empty sets.
    /// * [`GameError::PowerOutOfRange`] if any power is `0` or exceeds
    ///   [`MAX_UNIT`].
    pub fn build(&self) -> Result<Arc<System>, GameError> {
        if self.miners.is_empty() {
            return Err(GameError::NoMiners);
        }
        if self.coins.is_empty() {
            return Err(GameError::NoCoins);
        }
        let mut miners = Vec::with_capacity(self.miners.len());
        let mut total_power: u128 = 0;
        for (i, (name, power)) in self.miners.iter().enumerate() {
            let id = MinerId(i);
            let power = Power::new(*power).map_err(|_| GameError::PowerOutOfRange {
                miner: id,
                power: *power,
            })?;
            total_power += u128::from(power.get());
            miners.push(Miner {
                id,
                name: name.as_ref().filter(|n| !is_default_name(n, i)).cloned(),
                power,
            });
        }
        let coins = self
            .coins
            .iter()
            .enumerate()
            .map(|(i, name)| Coin {
                id: CoinId(i),
                name: name.clone().unwrap_or_else(|| format!("c{i}")),
            })
            .collect();
        Ok(Arc::new(System {
            miners,
            coins,
            total_power,
        }))
    }
}

/// Whether `name` is the default name `p{i}` of miner `i`.
fn is_default_name(name: &str, i: usize) -> bool {
    name.strip_prefix('p').is_some_and(|digits| {
        digits.bytes().all(|b| b.is_ascii_digit())
            && (digits == "0" || !digits.starts_with('0'))
            && digits.parse() == Ok(i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_with_defaults() {
        let s = System::new(&[3, 2, 1], 2).unwrap();
        assert_eq!(s.num_miners(), 3);
        assert_eq!(s.num_coins(), 2);
        assert_eq!(s.miners()[1].name(), "p1");
        assert_eq!(s.coins()[0].name(), "c0");
        assert_eq!(s.total_power(), 6);
        assert_eq!(s.power_of(MinerId(0)), 3);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(System::new(&[], 2).unwrap_err(), GameError::NoMiners);
        assert_eq!(System::new(&[1], 0).unwrap_err(), GameError::NoCoins);
    }

    #[test]
    fn rejects_bad_power() {
        assert!(matches!(
            System::new(&[1, 0], 1).unwrap_err(),
            GameError::PowerOutOfRange {
                miner: MinerId(1),
                power: 0
            }
        ));
        assert!(System::new(&[MAX_UNIT + 1], 1).is_err());
        assert!(System::new(&[MAX_UNIT], 1).is_ok());
    }

    #[test]
    fn power_order_breaks_ties_by_id() {
        let s = System::new(&[2, 5, 5, 1], 1).unwrap();
        let order = s.ids_by_power_desc();
        assert_eq!(order, vec![MinerId(1), MinerId(2), MinerId(0), MinerId(3)]);
    }

    #[test]
    fn distinctness() {
        assert!(System::new(&[3, 2, 1], 1).unwrap().powers_distinct());
        assert!(!System::new(&[3, 2, 2], 1).unwrap().powers_distinct());
    }

    #[test]
    fn min_max_power() {
        let s = System::new(&[7, 2, 9], 1).unwrap();
        assert_eq!(s.min_power(), 2);
        assert_eq!(s.max_power(), 9);
    }

    #[test]
    fn named_entities() {
        let mut b = SystemBuilder::new();
        b.named_miner("alice", 4)
            .miner_with_power(2)
            .named_coin("BTC")
            .coin();
        let s = b.build().unwrap();
        assert_eq!(s.miners()[0].name(), "alice");
        assert_eq!(s.miners()[1].name(), "p1");
        assert_eq!(s.coins()[0].name(), "BTC");
        assert_eq!(s.coins()[1].name(), "c1");
        assert_eq!(s.miners()[0].id(), MinerId(0));
        assert_eq!(s.coins()[1].id(), CoinId(1));
    }

    /// Builds a three-miner system with the given (optional) names.
    fn named_system(names: [Option<&str>; 3]) -> Arc<System> {
        let mut b = SystemBuilder::new();
        for (name, power) in names.into_iter().zip([4, 2, 1]) {
            match name {
                Some(name) => b.named_miner(name, power),
                None => b.miner_with_power(power),
            };
        }
        b.coin().build().unwrap()
    }

    fn names(s: &System) -> Vec<String> {
        s.miners().iter().map(|m| m.name().into_owned()).collect()
    }

    #[test]
    fn default_names_are_derived_not_stored() {
        let s = named_system([None; 3]);
        assert_eq!(names(&s), ["p0", "p1", "p2"]);
        assert!(s.miners().iter().all(|m| m.name.is_none()));
        let json = serde_json::to_string(&*s).unwrap();
        assert_eq!(serde_json::from_str::<System>(&json).unwrap(), *s);
    }

    #[test]
    fn custom_names_are_kept() {
        // `p01` at index 1 and `p1` at index 2 are not default names.
        let s = named_system([Some("alice"), Some("p01"), Some("p1")]);
        assert_eq!(names(&s), ["alice", "p01", "p1"]);
        assert!(s.miners().iter().all(|m| m.name.is_some()));
        let json = serde_json::to_string(&*s).unwrap();
        assert_eq!(serde_json::from_str::<System>(&json).unwrap(), *s);
    }

    #[test]
    fn a_custom_name_equal_to_the_default_is_the_default() {
        let named = named_system([Some("p0"), Some("bob"), Some("p2")]);
        let unnamed = named_system([None, Some("bob"), None]);
        assert_eq!(named, unnamed);
        assert_eq!(names(&named), ["p0", "bob", "p2"]);
        assert!(named.miners()[0].name.is_none());
        assert!(named.miners()[2].name.is_none());
    }

    #[test]
    fn default_name_test_is_exact() {
        assert!(is_default_name("p0", 0));
        assert!(is_default_name("p12", 12));
        for (name, i) in [
            ("p", 0),
            ("p00", 0),
            ("p012", 12),
            ("p+1", 1),
            ("q1", 1),
            ("p1", 2),
        ] {
            assert!(!is_default_name(name, i), "{name} at {i}");
        }
    }
}
