//! Exact payoff comparison without gcds, for the decision cache.
//!
//! A post-move RPU is `F(c) / M` with `F(c)` a reduced [`Ratio`] and `M`
//! a positive mass. [`Game::rpu_after_join`] builds it as a [`Ratio`],
//! which reduces the quotient: up to three `u128` Euclid gcds per value,
//! all wasted when the value is only ever compared. [`RpuKey`] keeps the
//! unreduced pair and orders by cross multiplication,
//! `F_a.num·F_b.den·M_b` against `F_b.num·F_a.den·M_a`;
//! [`GainKey`] does the same for the payoff gain `m_p·(to − from)` of
//! [`Game::gain`].
//!
//! An [`RpuKey`] comparison runs on the cheapest width that is exact:
//!
//! * **narrow** — when `F.num` and `F.den·M` both fit `u64` on both
//!   sides (every bundled population: integer rewards, masses far below
//!   2^64), the two cross products are widening `u64 × u64 → u128`
//!   multiplies, which cannot overflow;
//! * **wide** — otherwise the same products in checked `u128`;
//! * **fallback** — should a `u128` product overflow, the reduced
//!   [`Ratio`]s are compared.
//!
//! So both orders are exact wherever the oracle is defined and agree
//! with it value for value (the proptests below pin that against
//! [`Game`] itself, one regime per path).

use std::cmp::Ordering;

use crate::config::Masses;
use crate::game::Game;
use crate::ids::{CoinId, MinerId};
use crate::ratio::Ratio;

/// The RPU `reward / mass` as an unreduced comparison key. Rewards are
/// non-negative ([`Rewards`](crate::Rewards) enforces it) and masses
/// positive, so the cross products are unsigned.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RpuKey {
    reward: Ratio,
    mass: u128,
}

impl RpuKey {
    pub(crate) fn new(reward: Ratio, mass: u128) -> RpuKey {
        debug_assert!(!reward.is_negative() && mass > 0);
        RpuKey { reward, mass }
    }

    /// [`Game::rpu_after_join`] as a key: the RPU of `c` for `p`, who
    /// mines `current`, once `p` is on `c`.
    pub(crate) fn after_join(
        game: &Game,
        p: MinerId,
        c: CoinId,
        current: CoinId,
        masses: &Masses,
    ) -> RpuKey {
        RpuKey::for_power(game, game.system().power_of(p), c, current, masses)
    }

    /// [`RpuKey::after_join`] for any miner of power `power`.
    pub(crate) fn for_power(
        game: &Game,
        power: u64,
        c: CoinId,
        current: CoinId,
        masses: &Masses,
    ) -> RpuKey {
        let joining = if c == current { 0 } else { u128::from(power) };
        RpuKey::new(game.reward_of(c), masses.mass_of(c) + joining)
    }

    /// The unreduced `(F.num, F.den·M)` when both fit `u64`.
    fn narrow_parts(self) -> Option<(u64, u64)> {
        let num = u64::try_from(self.reward.numerator()).ok()?;
        let den = u64::try_from(self.reward.denominator()).ok()?;
        let mass = u64::try_from(self.mass).ok()?;
        Some((num, den.checked_mul(mass)?))
    }

    /// The order by widening `u64` cross multiplication, `None` unless
    /// both keys are narrow. Each product is below 2^128, so none can
    /// overflow.
    fn narrow_cross(self, other: RpuKey) -> Option<Ordering> {
        let (a, b) = self.narrow_parts()?;
        let (c, d) = other.narrow_parts()?;
        Some((u128::from(a) * u128::from(d)).cmp(&(u128::from(c) * u128::from(b))))
    }

    /// The unreduced `(F.num, F.den·M)`, `None` on overflow.
    fn parts(self) -> Option<(u128, u128)> {
        let den = (self.reward.denominator() as u128).checked_mul(self.mass)?;
        Some((self.reward.numerator() as u128, den))
    }

    /// The reduced value, computed as [`Game::rpu_after_join`] does.
    fn ratio(self) -> Ratio {
        self.reward
            .checked_div_int(self.mass as i128)
            .expect("mass fits i128 by construction")
    }

    /// The order by `u128` cross multiplication, `None` on overflow.
    fn cross(self, other: RpuKey) -> Option<Ordering> {
        let (a, b) = self.parts()?;
        let (c, d) = other.parts()?;
        Some(a.checked_mul(d)?.cmp(&c.checked_mul(b)?))
    }

    /// The order off the narrow path: `u128` cross multiplication, or
    /// the reduced [`Ratio`]s should a product overflow. Kept out of
    /// line so the narrow path inlines into the probe loops.
    #[inline(never)]
    fn cmp_wide(self, other: RpuKey) -> Ordering {
        self.cross(other)
            .unwrap_or_else(|| self.ratio().cmp(&other.ratio()))
    }
}

impl Ord for RpuKey {
    #[inline]
    fn cmp(&self, other: &RpuKey) -> Ordering {
        match self.narrow_cross(*other) {
            Some(order) => order,
            None => self.cmp_wide(*other),
        }
    }
}

impl PartialOrd for RpuKey {
    fn partial_cmp(&self, other: &RpuKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RpuKey {
    fn eq(&self, other: &RpuKey) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RpuKey {}

/// The payoff gain `power·(to − from)` of a move between two RPUs, as an
/// unreduced comparison key. The signed fraction is formed once, at
/// construction, so a comparison costs two checked products.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GainKey {
    power: u128,
    to: RpuKey,
    from: RpuKey,
    /// `(numerator, denominator > 0)`, or `None` when forming it
    /// overflowed.
    fraction: Option<(i128, i128)>,
}

impl GainKey {
    /// [`Game::gain`] as a key: `p`'s gain from moving `from → to`.
    pub(crate) fn of(
        game: &Game,
        p: MinerId,
        to: CoinId,
        from: CoinId,
        masses: &Masses,
    ) -> GainKey {
        let power = u128::from(game.system().power_of(p));
        let to = RpuKey::after_join(game, p, to, from, masses);
        let from = RpuKey::after_join(game, p, from, from, masses);
        GainKey {
            power,
            to,
            from,
            fraction: unreduced_gain(power, to, from),
        }
    }

    /// The reduced value, computed as [`Game::gain`] does.
    fn ratio(self) -> Ratio {
        (self.to.ratio() - self.from.ratio())
            .checked_mul_int(self.power as i128)
            .expect("gain fits i128 by construction")
    }

    /// The order by `i128` cross multiplication, `None` on overflow.
    fn cross(self, other: GainKey) -> Option<Ordering> {
        let (n1, d1) = self.fraction?;
        let (n2, d2) = other.fraction?;
        Some(n1.checked_mul(d2)?.cmp(&n2.checked_mul(d1)?))
    }
}

/// `power·(a/b − c/d) = power·(a·d − c·b) / (b·d)`, unreduced; `None`
/// when a term leaves `i128`.
fn unreduced_gain(power: u128, to: RpuKey, from: RpuKey) -> Option<(i128, i128)> {
    let (a, b) = to.parts()?;
    let (c, d) = from.parts()?;
    // Both products are non-negative and below 2^127, so their
    // difference cannot overflow.
    let ad = i128::try_from(a.checked_mul(d)?).ok()?;
    let cb = i128::try_from(c.checked_mul(b)?).ok()?;
    let num = (ad - cb).checked_mul(i128::try_from(power).ok()?)?;
    let den = i128::try_from(b.checked_mul(d)?).ok()?;
    Some((num, den))
}

impl Ord for GainKey {
    fn cmp(&self, other: &GainKey) -> Ordering {
        self.cross(*other)
            .unwrap_or_else(|| self.ratio().cmp(&other.ratio()))
    }
}

impl PartialOrd for GainKey {
    fn partial_cmp(&self, other: &GainKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for GainKey {
    fn eq(&self, other: &GainKey) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for GainKey {}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::config::Configuration;
    use crate::game::Rewards;
    use crate::system::{System, MAX_UNIT};

    /// Every RPU key of `game` under `masses` — each miner, each coin it
    /// might mine, each coin it might join — beside the oracle's
    /// [`Game::rpu_after_join`] for the same triple.
    fn rpu_pairs(game: &Game, masses: &Masses) -> Vec<(RpuKey, Ratio)> {
        let mut out = Vec::new();
        for p in game.system().miner_ids() {
            for current in game.system().coin_ids() {
                for c in game.system().coin_ids() {
                    out.push((
                        RpuKey::after_join(game, p, c, current, masses),
                        game.rpu_after_join(p, c, current, masses),
                    ));
                }
            }
        }
        out
    }

    /// Every gain key of `game` under `masses` beside [`Game::gain`].
    fn gain_pairs(game: &Game, masses: &Masses) -> Vec<(GainKey, Ratio)> {
        let mut out = Vec::new();
        for from in game.system().coin_ids() {
            let s = Configuration::uniform(from, game.system()).expect("coin in range");
            for p in game.system().miner_ids() {
                for to in game.system().coin_ids() {
                    out.push((
                        GainKey::of(game, p, to, from, masses),
                        game.gain(p, to, &s, masses),
                    ));
                }
            }
        }
        out
    }

    /// Asserts that the keys order and compare equal exactly as their
    /// oracle values do, over every pair; returns how many pairs took
    /// the `Ratio` fallback and how many were non-zero ties between
    /// different representations.
    fn assert_orders_agree<K: Ord + Copy + std::fmt::Debug>(
        pairs: &[(K, Ratio)],
        cross: impl Fn(K, K) -> Option<Ordering>,
    ) -> Result<(usize, usize), TestCaseError> {
        let (mut fallbacks, mut ties) = (0, 0);
        for &(a, ra) in pairs {
            for &(b, rb) in pairs {
                prop_assert_eq!(a.cmp(&b), ra.cmp(&rb), "{:?} vs {:?}", a, b);
                prop_assert_eq!(a == b, ra == rb);
                fallbacks += usize::from(cross(a, b).is_none());
                ties +=
                    usize::from(ra == rb && !ra.is_zero() && format!("{a:?}") != format!("{b:?}"));
            }
        }
        Ok((fallbacks, ties))
    }

    fn game(powers: &[u64], rewards: Vec<Ratio>) -> Game {
        let system = System::new(powers, rewards.len()).expect("valid powers");
        Game::new(system, Rewards::from_ratios(rewards).expect("non-negative")).expect("game")
    }

    fn masses(values: &[u64]) -> Masses {
        let mut masses = Masses::zero(values.len());
        for (c, &m) in values.iter().enumerate() {
            masses.add(CoinId(c), m);
        }
        masses
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Integer rewards up to `MAX_UNIT` over masses near 2^60: the
        /// RPU cross products stay below 2^102, so every RPU comparison
        /// takes the fast path. Gains at these masses need the fallback
        /// (their denominators alone reach 2^122).
        #[test]
        fn integer_rewards_over_huge_masses(
            powers in proptest::collection::vec(1u64..(1 << 20), 2..4),
            rewards in proptest::collection::vec(1..=MAX_UNIT, 3),
            mass in proptest::collection::vec((1u64 << 59)..(1u64 << 61), 3),
        ) {
            let game = game(&powers, rewards.iter().map(|&r| Ratio::from(r)).collect());
            let masses = masses(&mass);
            let (fallbacks, _) = assert_orders_agree(&rpu_pairs(&game, &masses), RpuKey::cross)?;
            prop_assert_eq!(fallbacks, 0);
            assert_orders_agree(&gain_pairs(&game, &masses), GainKey::cross)?;
        }

        /// Integer rewards up to `MAX_UNIT` over masses below 2^20 — the
        /// scale of the bundled populations: every RPU comparison takes
        /// the narrow `u64` path, and gains take the fast path too.
        #[test]
        fn integer_rewards_over_population_masses(
            powers in proptest::collection::vec(1u64..(1 << 10), 2..4),
            rewards in proptest::collection::vec(1..=MAX_UNIT, 3),
            mass in proptest::collection::vec(1u64..(1 << 20), 3),
        ) {
            let game = game(&powers, rewards.iter().map(|&r| Ratio::from(r)).collect());
            let masses = masses(&mass);
            let pairs = rpu_pairs(&game, &masses);
            let (wide, _) = assert_orders_agree(&pairs, RpuKey::narrow_cross)?;
            prop_assert_eq!(wide, 0);
            let (fallbacks, _) = assert_orders_agree(&pairs, RpuKey::cross)?;
            prop_assert_eq!(fallbacks, 0);
            let (fallbacks, _) = assert_orders_agree(&gain_pairs(&game, &masses), GainKey::cross)?;
            prop_assert_eq!(fallbacks, 0);
        }

        /// Keys whose `F.num` and `F.den·M` straddle 2^64: coin 0 is
        /// always narrow (an integer reward over a mass below 2^40),
        /// coin 1 never is (its numerator is at least 2^64), and coin 2
        /// lands on either side. So narrow pairs, mixed narrow/wide
        /// pairs and wide pairs all occur (the widest of them overflow
        /// `u128` and reach the `Ratio` fallback); every order must
        /// match the oracle.
        #[test]
        fn keys_straddling_the_narrow_width(
            powers in proptest::collection::vec(1..=MAX_UNIT, 2..4),
            narrow in (1..=MAX_UNIT, 1u64..(1 << 40)),
            wide in (64u32..70, 0i128..(1 << 60), 50u32..63),
            straddle in (58u32..70, 0i128..(1 << 56), 1i128..64, 50u32..63),
            low in proptest::collection::vec(0u64..(1 << 48), 2),
        ) {
            let (w_bits, w_low, w_mass) = wide;
            let (s_bits, s_low, s_den, s_mass) = straddle;
            let rewards = vec![
                Ratio::from(narrow.0),
                Ratio::from_int((1 << w_bits) + w_low),
                Ratio::new((1 << s_bits) + s_low, s_den).unwrap(),
            ];
            let game = game(&powers, rewards);
            let mass = [narrow.1, (1 << w_mass) + low[0], (1 << s_mass) + low[1]];
            let pairs = rpu_pairs(&game, &masses(&mass));
            let (mut both, mut one) = (0, 0);
            for &(a, _) in &pairs {
                for &(b, _) in &pairs {
                    match (a.narrow_parts().is_some(), b.narrow_parts().is_some()) {
                        (true, true) => both += 1,
                        (true, false) | (false, true) => one += 1,
                        (false, false) => {}
                    }
                }
            }
            prop_assert!(both > 0 && one > 0, "{} narrow, {} mixed pairs", both, one);
            assert_orders_agree(&pairs, RpuKey::narrow_cross)?;
        }

        /// Designed-style rational rewards whose ~2^45 denominators push
        /// `F.num·F.den·M` past `u128` at masses near 2^60: the RPU order
        /// must come from the `Ratio` fallback. (Gains are out of the
        /// oracle's own range here: their difference overflows `i128`.)
        #[test]
        fn rational_rewards_force_the_rpu_fallback(
            powers in proptest::collection::vec(1..=MAX_UNIT, 2..4),
            rewards in proptest::collection::vec((0i128..(1 << 40), (1i128 << 44)..(1 << 46)), 3),
            mass in proptest::collection::vec((1u64 << 58)..(1u64 << 60), 3),
        ) {
            let rewards = rewards.iter().map(|&(n, d)| Ratio::new(n, d).unwrap()).collect();
            let game = game(&powers, rewards);
            let (fallbacks, _) =
                assert_orders_agree(&rpu_pairs(&game, &masses(&mass)), RpuKey::cross)?;
            prop_assert!(fallbacks > 0);
        }

        /// Rational rewards with ~2^46 denominators over small masses:
        /// the unreduced gain fractions fit, their cross products do
        /// not, so the gain order must come from the `Ratio` fallback.
        #[test]
        fn rational_rewards_force_the_gain_fallback(
            powers in proptest::collection::vec(1u64..256, 2..4),
            rewards in proptest::collection::vec((0i128..(1 << 40), (1i128 << 44)..(1 << 48)), 3),
            mass in proptest::collection::vec(1u64..4096, 3),
        ) {
            let rewards = rewards.iter().map(|&(n, d)| Ratio::new(n, d).unwrap()).collect();
            let game = game(&powers, rewards);
            let masses = masses(&mass);
            assert_orders_agree(&rpu_pairs(&game, &masses), RpuKey::cross)?;
            let (fallbacks, _) = assert_orders_agree(&gain_pairs(&game, &masses), GainKey::cross)?;
            prop_assert!(fallbacks > 0);
        }

        /// Small rewards (zero included) over small masses: exact ties
        /// between different representations (`2/4` against `1/2`,
        /// zero gains, equal gains of different miners) are common, and
        /// must compare equal — the `v == v_b` and `gain == g`
        /// tie-breaks of the decision cache rest on it.
        #[test]
        fn zero_rewards_and_exact_ties(
            powers in proptest::collection::vec(1u64..4, 2..4),
            rewards in proptest::collection::vec(0u64..7, 3..5),
            mass in proptest::collection::vec(1u64..7, 3..5),
        ) {
            let k = rewards.len().min(mass.len());
            let game = game(&powers, rewards[..k].iter().map(|&r| Ratio::from(r)).collect());
            let masses = masses(&mass[..k]);
            let (_, rpu_ties) = assert_orders_agree(&rpu_pairs(&game, &masses), RpuKey::cross)?;
            let (_, gain_ties) = assert_orders_agree(&gain_pairs(&game, &masses), GainKey::cross)?;
            // Count only draws that produced both kinds of tie.
            prop_assume!(rpu_ties > 0 && gain_ties > 0);
        }
    }
}
