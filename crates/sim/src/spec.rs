//! Declarative, serializable scenario specifications.
//!
//! A [`ScenarioSpec`] is plain data — chains, a market process, a miner
//! population, shocks, an optional whale campaign, the oracle, and the
//! horizon — that [`ScenarioSpec::build`]s into a runnable
//! [`Simulation`], and (via [`ScenarioSpec::game`]) snapshots into a
//! static `goc_game::Game` for the equilibrium/design machinery. Every
//! spec round-trips through serde JSON, so **new workloads are spec
//! files, not new binaries**: `goc simulate --spec scenario.json` runs
//! one from disk, and `goc sweep --spec sweep.json` fans a list of
//! registered experiment runs across cores.
//!
//! The paper scenarios ship as presets: [`ScenarioSpec::btc_bch`]
//! (Figure 1), [`ScenarioSpec::asymmetric`] (unequal-value two-coin
//! market), [`ScenarioSpec::whale_fee`] (fee-based manipulation, §1),
//! and [`ScenarioSpec::attack`] (the 51%-steering market of §6).
//!
//! ```
//! use goc_sim::spec::ScenarioSpec;
//!
//! let mut spec = ScenarioSpec::btc_bch();
//! spec.horizon_days = 3.0;
//! spec.shocks[0].day = 1.0;
//! spec.shocks[1].day = 2.0;
//!
//! // Round-trips as data …
//! let json = serde_json::to_string(&spec).unwrap();
//! let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
//! assert_eq!(spec, back);
//!
//! // … and builds into a runnable simulation.
//! let mut sim = back.build().unwrap();
//! assert_eq!(sim.run().num_coins(), 2);
//! ```

use serde::{Deserialize, Serialize};

use goc_chain::{Blockchain, ChainParams, FeeParams, SubsidySchedule};
use goc_game::{Configuration, Game};
use goc_market::{
    Gbm, JumpDiffusion, Market, MeanReverting, Price, ScheduledShock, WhaleBudget, WhaleInjection,
    WhalePlan,
};

use crate::agent::{MinerAgent, OracleKind};
use crate::bridge;
use crate::engine::{SimConfig, Simulation};
use crate::scenario::DAY;

/// Errors from validating or building a [`ScenarioSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec names no chains.
    NoChains,
    /// The miner population is empty.
    NoMiners,
    /// A shock, whale, or assignment refers to a coin index out of range.
    BadCoin {
        /// The offending index.
        coin: usize,
        /// Number of chains in the spec.
        chains: usize,
    },
    /// A numeric field is out of its legal range.
    BadValue(&'static str),
    /// Snapshotting into a static game failed.
    Game(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NoChains => write!(f, "scenario has no chains"),
            SpecError::NoMiners => write!(f, "scenario has no miners"),
            SpecError::BadCoin { coin, chains } => {
                write!(
                    f,
                    "coin index {coin} out of range (scenario has {chains} chains)"
                )
            }
            SpecError::BadValue(what) => write!(f, "invalid value for {what}"),
            SpecError::Game(e) => write!(f, "cannot snapshot a static game: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// The difficulty-rule flavour of a chain (a named preset over
/// `goc_chain::DifficultyRule`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChainFlavor {
    /// Bitcoin: 600 s spacing, 2016-block epoch retarget, 4x clamp.
    BitcoinLike,
    /// Bitcoin Cash (post-DAA): 600 s spacing, 144-block moving average.
    BchLike,
    /// Historical BCH Aug–Nov 2017: epoch retarget plus the one-sided
    /// Emergency Difficulty Adjustment.
    EdaLike,
}

/// How a chain's initial difficulty is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DifficultyInit {
    /// Start at the stationary point of the *initially assigned*
    /// hashrate: `max(H_chain, 1) × target_spacing`.
    SteadyState,
    /// An explicit difficulty (expected hashes per block).
    Explicit(f64),
}

/// A price process, declaratively.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PriceSpec {
    /// A constant price.
    Constant {
        /// The price.
        value: f64,
    },
    /// Geometric Brownian motion (drift per day, volatility per √day).
    Gbm {
        /// Initial price.
        initial: f64,
        /// Drift per day.
        drift: f64,
        /// Volatility per √day.
        volatility: f64,
    },
    /// GBM plus compound-Poisson jumps.
    JumpDiffusion {
        /// Initial price.
        initial: f64,
        /// Drift per day.
        drift: f64,
        /// Volatility per √day.
        volatility: f64,
        /// Expected jumps per day.
        jump_rate: f64,
        /// Mean log jump size.
        jump_mean: f64,
        /// Log jump size standard deviation.
        jump_sd: f64,
    },
    /// Mean-reverting log-price.
    MeanReverting {
        /// Initial price.
        initial: f64,
        /// Long-run mean price.
        mean: f64,
        /// Reversion speed per day.
        speed: f64,
        /// Volatility per √day.
        volatility: f64,
    },
}

impl PriceSpec {
    fn build(&self) -> Result<Price, SpecError> {
        let positive = |v: f64| {
            if v > 0.0 && v.is_finite() {
                Ok(v)
            } else {
                Err(SpecError::BadValue("price (must be positive and finite)"))
            }
        };
        // `1e999` in a spec file parses to +inf; a non-finite drift or
        // volatility silently poisons every downstream price with NaN,
        // so reject it here.
        let finite = |v: f64, what: &'static str| {
            if v.is_finite() {
                Ok(v)
            } else {
                Err(SpecError::BadValue(what))
            }
        };
        let non_negative = |v: f64, what: &'static str| {
            if v >= 0.0 && v.is_finite() {
                Ok(v)
            } else {
                Err(SpecError::BadValue(what))
            }
        };
        Ok(match *self {
            PriceSpec::Constant { value } => {
                Price::Constant(goc_market::ConstantPrice(positive(value)?))
            }
            PriceSpec::Gbm {
                initial,
                drift,
                volatility,
            } => Price::Gbm(Gbm::new(
                positive(initial)?,
                finite(drift, "price drift (must be finite)")?,
                non_negative(volatility, "price volatility (must be finite and ≥ 0)")?,
            )),
            PriceSpec::JumpDiffusion {
                initial,
                drift,
                volatility,
                jump_rate,
                jump_mean,
                jump_sd,
            } => Price::JumpDiffusion(JumpDiffusion::new(
                Gbm::new(
                    positive(initial)?,
                    finite(drift, "price drift (must be finite)")?,
                    non_negative(volatility, "price volatility (must be finite and ≥ 0)")?,
                ),
                non_negative(jump_rate, "jump rate (must be finite and ≥ 0)")?,
                finite(jump_mean, "jump mean (must be finite)")?,
                non_negative(jump_sd, "jump sd (must be finite and ≥ 0)")?,
            )),
            PriceSpec::MeanReverting {
                initial,
                mean,
                speed,
                volatility,
            } => Price::MeanReverting(MeanReverting::new(
                positive(initial)?,
                positive(mean)?,
                non_negative(speed, "reversion speed (must be finite and ≥ 0)")?,
                non_negative(volatility, "price volatility (must be finite and ≥ 0)")?,
            )),
        })
    }

    /// The process's price at time zero.
    pub fn initial(&self) -> f64 {
        match *self {
            PriceSpec::Constant { value } => value,
            PriceSpec::Gbm { initial, .. }
            | PriceSpec::JumpDiffusion { initial, .. }
            | PriceSpec::MeanReverting { initial, .. } => initial,
        }
    }
}

/// One chain of the scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainSpec {
    /// Display name ("BTC", "BCH", …).
    pub name: String,
    /// Difficulty-rule preset.
    pub flavor: ChainFlavor,
    /// Block subsidy in base units.
    pub subsidy: u64,
    /// Blocks per halving; `0` keeps the subsidy constant.
    pub halving_interval: u64,
    /// Organic fee accrual per second (base units).
    pub fee_rate: f64,
    /// Per-block fee collection cap.
    pub max_fees_per_block: u64,
    /// Initial difficulty policy.
    pub initial_difficulty: DifficultyInit,
    /// The chain's fiat price process.
    pub price: PriceSpec,
}

impl ChainSpec {
    /// A constant-subsidy chain at the steady-state difficulty with an
    /// uncapped zero-rate fee market — the common experimental setup.
    pub fn simple<S: Into<String>>(
        name: S,
        flavor: ChainFlavor,
        subsidy: u64,
        price: PriceSpec,
    ) -> Self {
        ChainSpec {
            name: name.into(),
            flavor,
            subsidy,
            halving_interval: 0,
            fee_rate: 0.0,
            max_fees_per_block: u64::MAX,
            initial_difficulty: DifficultyInit::SteadyState,
            price,
        }
    }

    fn params(&self, assigned_hashrate: f64) -> ChainParams {
        let difficulty = match self.initial_difficulty {
            DifficultyInit::SteadyState => assigned_hashrate.max(1.0) * 600.0,
            DifficultyInit::Explicit(d) => d,
        };
        let base = match self.flavor {
            ChainFlavor::BitcoinLike => ChainParams::bitcoin_like(&self.name, difficulty),
            ChainFlavor::BchLike => ChainParams::bch_like(&self.name, difficulty),
            ChainFlavor::EdaLike => ChainParams::bch_eda_like(&self.name, difficulty),
        };
        ChainParams {
            subsidy: if self.halving_interval == 0 {
                SubsidySchedule::constant(self.subsidy)
            } else {
                SubsidySchedule::new(self.subsidy, self.halving_interval)
            },
            fees: FeeParams {
                fee_rate: self.fee_rate,
                max_fees_per_block: self.max_fees_per_block,
            },
            ..base
        }
    }

    /// Fiat value this chain pays per second at steady state — the coin
    /// weight `F(c)` of the static game.
    pub fn weight(&self) -> f64 {
        self.subsidy as f64 * self.price.initial() / 600.0
    }
}

/// One miner **cohort**: `count` rigs sharing a hashrate class and a
/// switching strategy (the same evaluation cadence, inertia, and power
/// cost). The simulator aggregates a cohort into a *single* agent whose
/// hashrate is the cohort total, so event volume scales with the number
/// of distinct behaviours rather than head-count — the device that makes
/// 100k-miner scenarios run in seconds. [`ScenarioSpec::expanded`]
/// lazily materializes the individual rigs when a per-miner view is
/// needed (e.g. the static-game snapshot of [`ScenarioSpec::game`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CohortSpec {
    /// Display name ("asic-farms", "hobbyists", …).
    pub name: String,
    /// Number of rigs in the cohort (head-count).
    pub count: usize,
    /// Hashrate of **one** rig; the aggregated agent mines with
    /// `count × hashrate`.
    pub hashrate: f64,
    /// Initial coin (used by [`Assignment::Explicit`]).
    pub coin: usize,
    /// Hours between profitability evaluations.
    pub eval_hours: f64,
    /// Relative gain required to switch.
    pub inertia: f64,
    /// Electricity cost per hash (0 disables capitulation).
    pub cost_per_hash: f64,
}

impl CohortSpec {
    fn aggregated(&self) -> MinerAgent {
        MinerAgent {
            hashrate: self.count as f64 * self.hashrate,
            coin: self.coin,
            eval_interval: self.eval_hours * 3600.0,
            inertia: self.inertia,
            cost_per_hash: self.cost_per_hash,
            active: true,
        }
    }
}

/// The name the paper-adjacent literature uses for this layer: a miner
/// population description. Cohort populations are the
/// [`MinerSpec::Cohorts`] variant.
pub type MinerPopulation = MinerSpec;

/// The miner population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MinerSpec {
    /// Zipf-skewed hashrates `scale / (i+1)^exponent` with
    /// deterministically heterogeneous frictions: agent `i` (with
    /// `spread = i/count`) evaluates every
    /// `eval_hours × (0.5 + spread)` hours and needs a relative gain of
    /// `inertia × (0.5 + 1.5 × spread)` to move — identical agents herd,
    /// heterogeneous ones produce the marginal-miner response.
    Zipf {
        /// Number of agents.
        count: usize,
        /// Zipf skew (1.0 = classic).
        exponent: f64,
        /// Hashrate of the largest agent.
        scale: f64,
        /// Base evaluation interval in hours.
        eval_hours: f64,
        /// Base switching inertia (relative gain to move).
        inertia: f64,
        /// Electricity cost per hash (0 disables capitulation).
        cost_per_hash: f64,
    },
    /// Equal hashrates with linear staggering of frictions: agent `i`
    /// evaluates every `eval_hours × 3600 + eval_stagger_secs × i`
    /// seconds with inertia `inertia + inertia_step × i`.
    Uniform {
        /// Number of agents.
        count: usize,
        /// Per-agent hashrate.
        hashrate: f64,
        /// Base evaluation interval in hours.
        eval_hours: f64,
        /// Additional per-agent stagger in seconds.
        eval_stagger_secs: f64,
        /// Base switching inertia.
        inertia: f64,
        /// Additional per-agent inertia.
        inertia_step: f64,
        /// Electricity cost per hash.
        cost_per_hash: f64,
    },
    /// A fully explicit population (`coin` fields set the initial
    /// configuration when the assignment is [`Assignment::Explicit`]).
    Explicit(Vec<MinerAgent>),
    /// Aggregated hashrate-class cohorts: each entry simulates as one
    /// agent of the cohort's total hashrate (see [`CohortSpec`]).
    Cohorts(Vec<CohortSpec>),
}

impl MinerSpec {
    pub(crate) fn agents(&self) -> Vec<MinerAgent> {
        match self {
            MinerSpec::Zipf {
                count,
                exponent,
                scale,
                eval_hours,
                inertia,
                cost_per_hash,
            } => {
                let n = *count as f64;
                (0..*count)
                    .map(|i| {
                        let spread = i as f64 / n.max(1.0);
                        MinerAgent {
                            hashrate: scale / ((i + 1) as f64).powf(*exponent),
                            coin: 0,
                            eval_interval: eval_hours * 3600.0 * (0.5 + spread),
                            inertia: inertia * (0.5 + 1.5 * spread),
                            cost_per_hash: *cost_per_hash,
                            active: true,
                        }
                    })
                    .collect()
            }
            MinerSpec::Uniform {
                count,
                hashrate,
                eval_hours,
                eval_stagger_secs,
                inertia,
                inertia_step,
                cost_per_hash,
            } => (0..*count)
                .map(|i| MinerAgent {
                    hashrate: *hashrate,
                    coin: 0,
                    eval_interval: eval_hours * 3600.0 + eval_stagger_secs * i as f64,
                    inertia: inertia + inertia_step * i as f64,
                    cost_per_hash: *cost_per_hash,
                    active: true,
                })
                .collect(),
            MinerSpec::Explicit(agents) => agents.clone(),
            MinerSpec::Cohorts(cohorts) => cohorts.iter().map(CohortSpec::aggregated).collect(),
        }
    }

    /// Number of miners the spec describes (head-count: cohorts count
    /// every rig, not the aggregated agents). Saturates instead of
    /// wrapping, so absurd cohort counts cannot slip under validation's
    /// head-count cap in release builds.
    pub fn count(&self) -> usize {
        match self {
            MinerSpec::Zipf { count, .. } | MinerSpec::Uniform { count, .. } => *count,
            MinerSpec::Explicit(agents) => agents.len(),
            MinerSpec::Cohorts(cohorts) => cohorts
                .iter()
                .fold(0usize, |total, c| total.saturating_add(c.count)),
        }
    }

    /// Number of *simulated* agents: equals [`MinerSpec::count`] except
    /// for cohorts, which aggregate into one agent each.
    pub fn num_agents(&self) -> usize {
        match self {
            MinerSpec::Cohorts(cohorts) => cohorts.len(),
            other => other.count(),
        }
    }
}

/// How agents are initially distributed over the chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Assignment {
    /// Fill every coin `c ≥ 1` up to (≈5% above) its value share
    /// `F_c / ΣF`, taking the smallest agents first; the rest stay on
    /// coin 0. This is the pre-shock stationary point of Figure 1.
    ValueShare,
    /// Agent `i` mines coin `i mod k`.
    Modulo,
    /// Everyone starts on one coin.
    AllOn(usize),
    /// Agents `0..boundary` mine coin 0; the rest mine coin 1.
    Split {
        /// First agent index assigned to coin 1.
        boundary: usize,
    },
    /// Respect the `coin` fields of an [`MinerSpec::Explicit`]
    /// population.
    Explicit,
}

/// A scheduled multiplicative price shock, in days.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShockSpec {
    /// Day the shock fires.
    pub day: f64,
    /// Target coin.
    pub coin: usize,
    /// Multiplicative factor (3.2 = pump, 0.55 = retrace).
    pub factor: f64,
}

/// A whale fee campaign: periodic injections on one coin over a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WhaleSpec {
    /// Total fee budget (base units).
    pub budget: u64,
    /// Target coin.
    pub coin: usize,
    /// Fee per injection.
    pub fee: u64,
    /// First injection day.
    pub start_day: u64,
    /// Campaign end day (exclusive).
    pub end_day: u64,
    /// Hours between injections.
    pub every_hours: u64,
}

impl WhaleSpec {
    fn plan(&self) -> WhalePlan {
        let mut plan = WhalePlan::new(WhaleBudget::new(self.budget));
        let mut t = self.start_day * 86_400;
        // Clamp to hourly *before* converting to seconds so the step can
        // never drop below what validate()'s injection-count cap assumed.
        let step = self.every_hours.max(1) * 3600;
        while t < self.end_day * 86_400 {
            if !plan.add(WhaleInjection {
                at_secs: t,
                coin: self.coin,
                fee: self.fee,
            }) {
                break;
            }
            t += step;
        }
        plan
    }
}

/// Per-cohort miner churn: rigs of the cohort's hashrate class arrive
/// and depart as Poisson processes (exponential interarrivals, sampled
/// deterministically from the scenario seed).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CohortChurnSpec {
    /// Index into the [`MinerSpec::Cohorts`] population.
    pub cohort: usize,
    /// Expected rig arrivals per day.
    pub arrivals_per_day: f64,
    /// Expected rig departures per day.
    pub departures_per_day: f64,
    /// Size of the cohort's dormant reserve: at most this many rigs
    /// beyond the initial count can be online simultaneously (arrivals
    /// beyond it are dropped). Bounds the game universe.
    pub max_extra: usize,
}

/// What a scheduled coin-lifecycle event does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoinLifecycle {
    /// The coin goes live. A coin whose **first** scheduled event is a
    /// launch starts the scenario dormant (pre-launch).
    Launch,
    /// The coin is delisted; its miners are forcibly relocated.
    Retire,
}

/// One scheduled coin-lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoinEventSpec {
    /// Day the event fires.
    pub day: f64,
    /// Target coin.
    pub coin: usize,
    /// Launch or retire.
    pub event: CoinLifecycle,
}

/// Dynamic-population churn: arrival/departure processes per cohort plus
/// scheduled coin launches and retirements. The engine executes these as
/// simulation events ([`crate::Simulation`]); the bridge
/// ([`crate::bridge::churn_universe`]) lowers the same timeline to
/// `goc_game` tracker deltas over a pre-declared miner/coin universe.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Per-cohort arrival/departure processes (requires a
    /// [`MinerSpec::Cohorts`] population when nonempty).
    pub cohorts: Vec<CohortChurnSpec>,
    /// Scheduled coin launches and retirements.
    pub coins: Vec<CoinEventSpec>,
}

/// One materialized churn event of a simulation run, in engine terms
/// (cohort rigs resolved to the aggregated agent and its per-rig
/// hashrate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimChurn {
    /// One rig of `hashrate` joins aggregated agent `agent`.
    RigJoin {
        /// Aggregated-agent index (equals the cohort index).
        agent: usize,
        /// Per-rig hashrate.
        hashrate: f64,
    },
    /// One rig of `hashrate` leaves aggregated agent `agent`.
    RigLeave {
        /// Aggregated-agent index (equals the cohort index).
        agent: usize,
        /// Per-rig hashrate.
        hashrate: f64,
    },
    /// Coin `coin` goes live (`live`) or is delisted (`!live`).
    Coin {
        /// Coin index.
        coin: usize,
        /// New liveness.
        live: bool,
    },
}

impl ChurnSpec {
    /// Whether the spec schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.cohorts.is_empty() && self.coins.is_empty()
    }

    /// The initial coin-liveness mask: a coin starts dormant iff its
    /// first scheduled event is a [`CoinLifecycle::Launch`].
    pub fn initial_live(&self, num_coins: usize) -> Vec<bool> {
        let mut live = vec![true; num_coins];
        let mut seen = vec![false; num_coins];
        let mut events: Vec<&CoinEventSpec> = self.coins.iter().collect();
        events.sort_by(|a, b| a.day.total_cmp(&b.day));
        for e in events {
            if e.coin < num_coins && !seen[e.coin] {
                seen[e.coin] = true;
                if e.event == CoinLifecycle::Launch {
                    live[e.coin] = false;
                }
            }
        }
        live
    }

    /// Materializes the churn timeline: exponential interarrivals per
    /// cohort process (deterministic in `seed`), truncated at the
    /// horizon, merged with the scheduled coin events and sorted by
    /// time. Arrivals beyond a cohort's `max_extra` reserve are dropped
    /// here, so the engine and the game bridge see the same stream.
    pub fn timeline(&self, spec: &ScenarioSpec) -> Vec<(f64, SimChurn)> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let horizon_secs = spec.horizon_days * 86_400.0;
        let cohorts = match &spec.miners {
            MinerSpec::Cohorts(c) => c.as_slice(),
            _ => &[],
        };
        let mut out: Vec<(f64, SimChurn)> = Vec::new();
        for (i, churn) in self.cohorts.iter().enumerate() {
            let Some(cohort) = cohorts.get(churn.cohort) else {
                continue; // validate() rejects this; stay total anyway
            };
            let mut rng = SmallRng::seed_from_u64(
                spec.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)),
            );
            let mut sample = |rate_per_day: f64, join: bool, out: &mut Vec<(f64, SimChurn)>| {
                if rate_per_day <= 0.0 {
                    return;
                }
                let mut t = 0.0f64;
                loop {
                    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    t += -u.ln() / rate_per_day * 86_400.0;
                    if t >= horizon_secs {
                        break;
                    }
                    let kind = if join {
                        SimChurn::RigJoin {
                            agent: churn.cohort,
                            hashrate: cohort.hashrate,
                        }
                    } else {
                        SimChurn::RigLeave {
                            agent: churn.cohort,
                            hashrate: cohort.hashrate,
                        }
                    };
                    out.push((t, kind));
                }
            };
            sample(churn.arrivals_per_day, true, &mut out);
            sample(churn.departures_per_day, false, &mut out);
        }
        for e in &self.coins {
            out.push((
                e.day * 86_400.0,
                SimChurn::Coin {
                    coin: e.coin,
                    live: e.event == CoinLifecycle::Launch,
                },
            ));
        }
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Make the stream *effective* on the merged, time-ordered view:
        // arrivals beyond `initial + max_extra` concurrent rigs and
        // departures from an empty cohort are dropped here, so the
        // engine and the game-side bridge can both apply every surviving
        // event verbatim and stay in exact agreement.
        let mut active: Vec<usize> = cohorts.iter().map(|c| c.count).collect();
        let mut cap = active.clone();
        for churn in &self.cohorts {
            if let Some(c) = cap.get_mut(churn.cohort) {
                *c += churn.max_extra;
            }
        }
        out.retain(|(_, event)| match *event {
            SimChurn::RigJoin { agent, .. } => {
                if active[agent] < cap[agent] {
                    active[agent] += 1;
                    true
                } else {
                    false
                }
            }
            SimChurn::RigLeave { agent, .. } => {
                if active[agent] > 0 {
                    active[agent] -= 1;
                    true
                } else {
                    false
                }
            }
            SimChurn::Coin { .. } => true,
        });
        out
    }
}

/// A complete, serializable scenario description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (used in reports and sweep output).
    pub name: String,
    /// Simulation horizon in days.
    pub horizon_days: f64,
    /// Hours between metric snapshots.
    pub snapshot_hours: f64,
    /// RNG seed (runs are deterministic given the spec).
    pub seed: u64,
    /// The profitability oracle all agents use.
    pub oracle: OracleKind,
    /// The chains under simulation (at least one).
    pub chains: Vec<ChainSpec>,
    /// The miner population.
    pub miners: MinerSpec,
    /// Initial distribution of agents over chains.
    pub assignment: Assignment,
    /// Scheduled price shocks.
    pub shocks: Vec<ShockSpec>,
    /// Optional whale fee campaign.
    pub whale: Option<WhaleSpec>,
    /// Optional dynamic-population churn (miner arrivals/departures and
    /// coin launches/retirements).
    pub churn: Option<ChurnSpec>,
}

impl ScenarioSpec {
    /// Validates index ranges and numeric sanity.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.chains.is_empty() {
            return Err(SpecError::NoChains);
        }
        if self.miners.count() == 0 {
            return Err(SpecError::NoMiners);
        }
        if !(self.horizon_days > 0.0 && self.horizon_days.is_finite()) {
            return Err(SpecError::BadValue("horizon_days (must be positive)"));
        }
        if !(self.snapshot_hours > 0.0 && self.snapshot_hours.is_finite()) {
            return Err(SpecError::BadValue("snapshot_hours (must be positive)"));
        }
        let k = self.chains.len();
        let bad_coin = |coin: usize| SpecError::BadCoin { coin, chains: k };
        for shock in &self.shocks {
            if shock.coin >= k {
                return Err(bad_coin(shock.coin));
            }
            if !(shock.factor > 0.0 && shock.factor.is_finite()) {
                return Err(SpecError::BadValue("shock factor (must be positive)"));
            }
            if !(shock.day >= 0.0 && shock.day.is_finite()) {
                return Err(SpecError::BadValue(
                    "shock day (must be finite and non-negative)",
                ));
            }
        }
        if let Some(whale) = &self.whale {
            if whale.coin >= k {
                return Err(bad_coin(whale.coin));
            }
            if whale.fee == 0 {
                // A zero fee never depletes the budget, so the plan loop
                // would run once per step over the whole campaign window
                // with nothing to stop it.
                return Err(SpecError::BadValue("whale fee (must be positive)"));
            }
            if whale
                .end_day
                .checked_mul(86_400)
                .and_then(|end| whale.start_day.checked_mul(86_400).map(|_| end))
                .is_none()
            {
                return Err(SpecError::BadValue(
                    "whale campaign days (overflow converting to seconds)",
                ));
            }
            let steps = whale
                .end_day
                .saturating_sub(whale.start_day)
                .saturating_mul(24)
                / whale.every_hours.max(1);
            if steps > 10_000_000 {
                return Err(SpecError::BadValue(
                    "whale campaign (more than 10M scheduled injections)",
                ));
            }
        }
        for chain in &self.chains {
            if let DifficultyInit::Explicit(d) = chain.initial_difficulty {
                if !(d > 0.0 && d.is_finite()) {
                    return Err(SpecError::BadValue("initial difficulty (must be positive)"));
                }
            }
            // Surface bad price parameters at validation time, not mid-build.
            chain.price.build()?;
        }
        if let MinerSpec::Cohorts(cohorts) = &self.miners {
            for cohort in cohorts {
                if cohort.count == 0 {
                    return Err(SpecError::BadValue("cohort count (must be ≥ 1)"));
                }
                if cohort.coin >= k {
                    return Err(bad_coin(cohort.coin));
                }
                if !(cohort.hashrate > 0.0 && cohort.hashrate.is_finite()) {
                    return Err(SpecError::BadValue("cohort hashrate (must be positive)"));
                }
                if !(cohort.inertia >= 0.0 && cohort.inertia.is_finite()) {
                    return Err(SpecError::BadValue(
                        "cohort inertia (must be finite and ≥ 0)",
                    ));
                }
                if !(cohort.cost_per_hash >= 0.0 && cohort.cost_per_hash.is_finite()) {
                    return Err(SpecError::BadValue(
                        "cohort cost per hash (must be finite and ≥ 0)",
                    ));
                }
            }
            // `expanded()` materializes one agent per rig; cap the
            // head-count so a typo cannot request a terabyte of agents.
            if self.miners.count() > 10_000_000 {
                return Err(SpecError::BadValue(
                    "cohort head-count (more than 10M miners)",
                ));
            }
        }
        if let Some(churn) = &self.churn {
            let cohorts_len = match &self.miners {
                MinerSpec::Cohorts(c) => c.len(),
                _ if churn.cohorts.is_empty() => 0,
                _ => {
                    return Err(SpecError::BadValue(
                        "cohort churn (needs a Cohorts miner population)",
                    ))
                }
            };
            let mut seen_cohorts = std::collections::BTreeSet::new();
            for c in &churn.cohorts {
                if c.cohort >= cohorts_len {
                    return Err(SpecError::BadValue("churn cohort index (out of range)"));
                }
                if !seen_cohorts.insert(c.cohort) {
                    return Err(SpecError::BadValue(
                        "churn cohort index (appears more than once)",
                    ));
                }
                for rate in [c.arrivals_per_day, c.departures_per_day] {
                    if !(rate >= 0.0 && rate.is_finite()) {
                        return Err(SpecError::BadValue("churn rate (must be finite and ≥ 0)"));
                    }
                }
                // The reserve becomes real universe miners in the game
                // bridge; cap it like the cohort head-count.
                if c.max_extra > 1_000_000 {
                    return Err(SpecError::BadValue(
                        "churn reserve (more than 1M extra rigs)",
                    ));
                }
                let expected = (c.arrivals_per_day + c.departures_per_day) * self.horizon_days;
                if expected > 10_000_000.0 {
                    return Err(SpecError::BadValue(
                        "churn rates (more than 10M expected events)",
                    ));
                }
            }
            // Replay the coin lifecycle chronologically: launches only of
            // dormant coins, retirements only of live ones, and at least
            // one live coin at every instant.
            let mut live = churn.initial_live(k);
            for e in &churn.coins {
                if e.coin >= k {
                    return Err(bad_coin(e.coin));
                }
                if !(e.day >= 0.0 && e.day.is_finite()) {
                    return Err(SpecError::BadValue(
                        "coin event day (must be finite and non-negative)",
                    ));
                }
                // The engine drops events past the horizon while the
                // game-side bridge would still lower them — reject the
                // divergence up front.
                if e.day > self.horizon_days {
                    return Err(SpecError::BadValue("coin event day (beyond the horizon)"));
                }
            }
            let mut events: Vec<&CoinEventSpec> = churn.coins.iter().collect();
            events.sort_by(|a, b| a.day.total_cmp(&b.day));
            if live.iter().all(|&l| !l) {
                return Err(SpecError::BadValue(
                    "coin events (no coin is live at day 0)",
                ));
            }
            for e in events {
                match e.event {
                    CoinLifecycle::Launch => {
                        if live[e.coin] {
                            return Err(SpecError::BadValue("coin launch (coin is already live)"));
                        }
                        live[e.coin] = true;
                    }
                    CoinLifecycle::Retire => {
                        if !live[e.coin] {
                            return Err(SpecError::BadValue("coin retirement (coin is not live)"));
                        }
                        if live.iter().filter(|&&l| l).count() == 1 {
                            return Err(SpecError::BadValue(
                                "coin retirement (would leave no live coin)",
                            ));
                        }
                        live[e.coin] = false;
                    }
                }
            }
            // No agent may start the scenario on a pre-launch coin.
            let initial_live = churn.initial_live(k);
            let mut agents = self.miners.agents();
            self.assign(&mut agents);
            if agents.iter().any(|a| !initial_live[a.coin]) {
                return Err(SpecError::BadValue(
                    "initial assignment (an agent starts on a pre-launch coin)",
                ));
            }
        }
        // Agent timing must move the event clock forward: a non-positive
        // evaluation interval would reschedule the same instant forever
        // and hang the simulation.
        for agent in self.miners.agents() {
            if !(agent.eval_interval > 0.0 && agent.eval_interval.is_finite()) {
                return Err(SpecError::BadValue(
                    "miner eval interval (must be positive)",
                ));
            }
            if !(agent.hashrate > 0.0 && agent.hashrate.is_finite()) {
                return Err(SpecError::BadValue("miner hashrate (must be positive)"));
            }
        }
        if self.assignment == Assignment::ValueShare {
            let total_weight: f64 = self.chains.iter().map(ChainSpec::weight).sum();
            if !(total_weight > 0.0 && total_weight.is_finite()) {
                return Err(SpecError::BadValue(
                    "ValueShare assignment (needs a positive total coin weight)",
                ));
            }
        }
        match self.assignment {
            Assignment::AllOn(coin) if coin >= k => return Err(bad_coin(coin)),
            Assignment::Split { .. } if k < 2 => {
                return Err(SpecError::BadValue("Split assignment (needs ≥ 2 chains)"))
            }
            Assignment::Explicit => match &self.miners {
                MinerSpec::Explicit(agents) => {
                    if let Some(a) = agents.iter().find(|a| a.coin >= k) {
                        return Err(bad_coin(a.coin));
                    }
                }
                // Cohorts carry their own validated `coin` fields.
                MinerSpec::Cohorts(_) => {}
                _ => {
                    return Err(SpecError::BadValue(
                        "Explicit assignment (needs an Explicit or Cohorts miner population)",
                    ));
                }
            },
            _ => {}
        }
        Ok(())
    }

    /// Computes the initial per-agent coin assignment.
    pub(crate) fn assign(&self, agents: &mut [MinerAgent]) {
        let k = self.chains.len();
        match self.assignment {
            Assignment::Explicit => {}
            Assignment::AllOn(coin) => {
                for a in agents.iter_mut() {
                    a.coin = coin;
                }
            }
            Assignment::Modulo => {
                for (i, a) in agents.iter_mut().enumerate() {
                    a.coin = i % k;
                }
            }
            Assignment::Split { boundary } => {
                for (i, a) in agents.iter_mut().enumerate() {
                    a.coin = usize::from(i >= boundary);
                }
            }
            Assignment::ValueShare => {
                let total_weight: f64 = self.chains.iter().map(ChainSpec::weight).sum();
                let total_hash: f64 = agents.iter().map(|a| a.hashrate).sum();
                for a in agents.iter_mut() {
                    a.coin = 0;
                }
                let mut assigned = vec![false; agents.len()];
                for c in 1..k {
                    let share = self.chains[c].weight() / total_weight;
                    let mut acc = 0.0;
                    // Smallest agents first (populations are built in
                    // descending hashrate order), skipping any that
                    // would overshoot the ≈5% tolerance band.
                    for i in (0..agents.len()).rev() {
                        if !assigned[i] && acc + agents[i].hashrate <= share * total_hash * 1.05 {
                            acc += agents[i].hashrate;
                            assigned[i] = true;
                            agents[i].coin = c;
                        }
                    }
                }
            }
        }
    }

    /// Builds the runnable simulation.
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioSpec::validate`] failures.
    pub fn build(&self) -> Result<Simulation, SpecError> {
        self.validate()?;
        let mut agents = self.miners.agents();
        self.assign(&mut agents);

        let k = self.chains.len();
        let mut chain_hash = vec![0.0f64; k];
        for a in &agents {
            chain_hash[a.coin] += a.hashrate;
        }
        let chains: Vec<Blockchain> = self
            .chains
            .iter()
            .zip(&chain_hash)
            .map(|(spec, &h)| Blockchain::new(spec.params(h)))
            .collect();

        let mut market = Market::new(
            self.chains
                .iter()
                .map(|c| c.price.build())
                .collect::<Result<Vec<_>, _>>()?,
        );
        for shock in &self.shocks {
            market.schedule_shock(ScheduledShock {
                at: shock.day * DAY,
                coin: shock.coin,
                factor: shock.factor,
            });
        }

        let sim = Simulation::new(
            chains,
            market,
            agents,
            SimConfig {
                horizon: self.horizon_days * DAY,
                snapshot_interval: self.snapshot_hours * 3600.0,
                seed: self.seed,
                oracle: self.oracle,
            },
        );
        let sim = match &self.whale {
            Some(whale) => sim.with_whale_plan(whale.plan()),
            None => sim,
        };
        Ok(match &self.churn {
            Some(churn) if !churn.is_empty() => {
                sim.with_churn(churn.initial_live(k), churn.timeline(self))
            }
            _ => sim,
        })
    }

    /// The same scenario with every cohort **lazily expanded** into its
    /// individual rigs: the miner population becomes
    /// [`MinerSpec::Explicit`] (one agent per rig at the per-rig
    /// hashrate, on the coin the cohort was assigned) and the assignment
    /// becomes [`Assignment::Explicit`]. Non-cohort specs come back
    /// unchanged.
    ///
    /// Aggregation is a simulation device; expansion is the per-miner
    /// ground truth, which is why [`ScenarioSpec::game`] snapshots the
    /// expanded population.
    pub fn expanded(&self) -> ScenarioSpec {
        let MinerSpec::Cohorts(cohorts) = &self.miners else {
            return self.clone();
        };
        let mut aggregated = self.miners.agents();
        self.assign(&mut aggregated);
        let mut individuals = Vec::with_capacity(self.miners.count());
        for (cohort, agent) in cohorts.iter().zip(&aggregated) {
            individuals.extend((0..cohort.count).map(|_| MinerAgent {
                hashrate: cohort.hashrate,
                coin: agent.coin,
                eval_interval: agent.eval_interval,
                inertia: agent.inertia,
                cost_per_hash: agent.cost_per_hash,
                active: true,
            }));
        }
        ScenarioSpec {
            miners: MinerSpec::Explicit(individuals),
            assignment: Assignment::Explicit,
            // Cohort churn processes do not survive expansion (the
            // per-rig population has no cohorts to index); the coin
            // lifecycle does. The game-side churn view is
            // `bridge::churn_universe`, which builds the same rigs from
            // per-cohort runs *and* lowers the full timeline.
            churn: self.churn.as_ref().map(|c| ChurnSpec {
                cohorts: Vec::new(),
                coins: c.coins.clone(),
            }),
            ..self.clone()
        }
    }

    /// Snapshots the scenario's time-zero state into a static
    /// `goc_game::Game` plus the initial configuration — the exact-game
    /// view of this market (weights `subsidy × price / spacing`).
    ///
    /// Cohorts are expanded first ([`ScenarioSpec::expanded`]), so the
    /// snapshot always has one game miner per rig regardless of how the
    /// population was described.
    ///
    /// # Errors
    ///
    /// Propagates build failures and game-quantization errors.
    pub fn game(&self) -> Result<(Game, Configuration), SpecError> {
        // Validate *before* expanding: the cohort head-count cap must
        // guard the per-rig allocation expansion performs.
        self.validate()?;
        let sim = self.expanded().build()?;
        bridge::snapshot_game(&sim, 0.0, 1e-4).map_err(|e| SpecError::Game(e.to_string()))
    }

    // -----------------------------------------------------------------
    // Presets
    // -----------------------------------------------------------------

    /// The Figure 1 BTC/BCH migration scenario with the paper-calibrated
    /// defaults (see [`crate::scenario::BtcBchParams`]).
    pub fn btc_bch() -> Self {
        crate::scenario::BtcBchParams::default().to_spec()
    }

    /// An asymmetric two-coin market: equal prices but a 5:1 subsidy
    /// split, so chain B sustains ≈1/6 of the hashrate — the restricted
    /// "minority chain" setting of §6's discussion.
    pub fn asymmetric() -> Self {
        let total_hash = 6_000.0;
        ScenarioSpec {
            name: "asymmetric".into(),
            horizon_days: 30.0,
            snapshot_hours: 6.0,
            seed: 99,
            oracle: OracleKind::Hashrate,
            chains: vec![
                ChainSpec {
                    initial_difficulty: DifficultyInit::Explicit(total_hash * (5.0 / 6.0) * 600.0),
                    ..ChainSpec::simple(
                        "A",
                        ChainFlavor::BchLike,
                        10_000_000,
                        PriceSpec::Constant { value: 1.0 },
                    )
                },
                ChainSpec {
                    initial_difficulty: DifficultyInit::Explicit(total_hash * (1.0 / 6.0) * 600.0),
                    ..ChainSpec::simple(
                        "B",
                        ChainFlavor::BchLike,
                        2_000_000,
                        PriceSpec::Constant { value: 1.0 },
                    )
                },
            ],
            miners: MinerSpec::Uniform {
                count: 60,
                hashrate: 100.0,
                eval_hours: 3.0,
                eval_stagger_secs: 60.0,
                inertia: 0.02,
                inertia_step: 0.001,
                cost_per_hash: 0.0,
            },
            assignment: Assignment::Split { boundary: 50 },
            shocks: Vec::new(),
            whale: None,
            churn: None,
        }
    }

    /// The whale-fee manipulation scenario (§1, citing Liao & Katz): the
    /// asymmetric market plus a fee campaign on the minority chain over
    /// days 10–20.
    pub fn whale_fee() -> Self {
        ScenarioSpec {
            name: "whale_fee".into(),
            whale: Some(WhaleSpec {
                budget: 2_000_000_000,
                coin: 1,
                fee: 4_000_000,
                start_day: 10,
                end_day: 20,
                every_hours: 2,
            }),
            ..ScenarioSpec::asymmetric()
        }
    }

    /// The 51%-steering market of §6: seven miners with strictly
    /// distinct hashrates over two coins with an 8:5 value split — the
    /// market whose snapshot game ([`ScenarioSpec::game`]) drives the
    /// reward-design attack experiments.
    pub fn attack() -> Self {
        let powers = [900.0, 700.0, 500.0, 300.0, 200.0, 150.0, 100.0];
        let agents: Vec<MinerAgent> = powers
            .iter()
            .enumerate()
            .map(|(i, &hashrate)| MinerAgent {
                hashrate,
                coin: 0,
                eval_interval: 3600.0 * (1.0 + i as f64 / 7.0),
                inertia: 0.01,
                cost_per_hash: 0.0,
                active: true,
            })
            .collect();
        ScenarioSpec {
            name: "attack".into(),
            horizon_days: 20.0,
            snapshot_hours: 6.0,
            seed: 5,
            oracle: OracleKind::Hashrate,
            chains: vec![
                ChainSpec::simple(
                    "victim",
                    ChainFlavor::BchLike,
                    1_000_000,
                    PriceSpec::Constant { value: 8_000.0 },
                ),
                ChainSpec::simple(
                    "refuge",
                    ChainFlavor::BchLike,
                    1_000_000,
                    PriceSpec::Constant { value: 5_000.0 },
                ),
            ],
            miners: MinerSpec::Explicit(agents),
            assignment: Assignment::ValueShare,
            shocks: Vec::new(),
            whale: None,
            churn: None,
        }
    }

    /// All built-in presets, by name.
    pub fn presets() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::btc_bch(),
            ScenarioSpec::asymmetric(),
            ScenarioSpec::whale_fee(),
            ScenarioSpec::attack(),
        ]
    }

    /// Looks up a preset by its [`ScenarioSpec::name`].
    pub fn preset(name: &str) -> Option<ScenarioSpec> {
        ScenarioSpec::presets().into_iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_validates_builds_and_round_trips() {
        for spec in ScenarioSpec::presets() {
            spec.validate().expect("preset validates");
            let json = serde_json::to_string_pretty(&spec).expect("serializes");
            let back: ScenarioSpec = serde_json::from_str(&json).expect("parses");
            assert_eq!(spec, back, "{} did not round-trip", spec.name);
            let sim = back.build().expect("builds");
            assert_eq!(sim.chains().len(), spec.chains.len());
            assert_eq!(sim.agents().len(), spec.miners.count());
        }
    }

    #[test]
    fn btc_bch_spec_matches_the_scenario_builder() {
        let params = crate::scenario::BtcBchParams {
            num_miners: 40,
            ..crate::scenario::BtcBchParams::default()
        };
        let via_spec = params.to_spec().build().expect("builds");
        let direct = crate::scenario::btc_bch(params);
        assert_eq!(via_spec.agents(), direct.agents());
        assert_eq!(via_spec.chains()[0].params(), direct.chains()[0].params());
        assert_eq!(via_spec.chains()[1].params(), direct.chains()[1].params());
        assert_eq!(via_spec.market().prices(), direct.market().prices());
    }

    #[test]
    fn validation_catches_bad_indices() {
        let mut spec = ScenarioSpec::btc_bch();
        spec.shocks[0].coin = 9;
        assert_eq!(
            spec.validate(),
            Err(SpecError::BadCoin { coin: 9, chains: 2 })
        );

        let mut spec = ScenarioSpec::asymmetric();
        spec.whale = Some(WhaleSpec {
            budget: 1,
            coin: 5,
            fee: 1,
            start_day: 0,
            end_day: 1,
            every_hours: 1,
        });
        assert!(matches!(spec.validate(), Err(SpecError::BadCoin { .. })));

        let mut spec = ScenarioSpec::attack();
        spec.chains.clear();
        assert_eq!(spec.validate(), Err(SpecError::NoChains));
    }

    #[test]
    fn validation_catches_hang_inducing_timing() {
        // A zero evaluation interval would reschedule the same instant
        // forever; the spec layer must reject it instead of hanging.
        let mut spec = ScenarioSpec::asymmetric();
        spec.miners = MinerSpec::Uniform {
            count: 5,
            hashrate: 100.0,
            eval_hours: 0.0,
            eval_stagger_secs: 0.0,
            inertia: 0.0,
            inertia_step: 0.0,
            cost_per_hash: 0.0,
        };
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));

        let mut spec = ScenarioSpec::attack();
        if let MinerSpec::Explicit(agents) = &mut spec.miners {
            agents[0].eval_interval = 0.0;
        }
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));

        let mut spec = ScenarioSpec::asymmetric();
        spec.chains[0].initial_difficulty = DifficultyInit::Explicit(0.0);
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));

        let mut spec = ScenarioSpec::attack();
        if let MinerSpec::Explicit(agents) = &mut spec.miners {
            agents[0].hashrate = 0.0;
        }
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));
    }

    #[test]
    fn validation_catches_degenerate_whales_and_prices() {
        // Zero-fee whales never deplete their budget (unbounded plan).
        let mut spec = ScenarioSpec::whale_fee();
        spec.whale.as_mut().expect("preset has a whale").fee = 0;
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));

        // Campaign windows that overflow seconds, or schedule an absurd
        // number of injections, are rejected up front.
        let mut spec = ScenarioSpec::whale_fee();
        spec.whale.as_mut().expect("whale").end_day = u64::MAX;
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));
        let mut spec = ScenarioSpec::whale_fee();
        spec.whale.as_mut().expect("whale").end_day = 300_000_000_000;
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));

        // `1e999` in a spec file parses to +inf; validation must reject
        // it instead of letting NaN prices poison the metrics.
        let mut spec = ScenarioSpec::btc_bch();
        spec.chains[0].price = PriceSpec::Gbm {
            initial: 6000.0,
            drift: 0.0,
            volatility: f64::INFINITY,
        };
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));
        let mut spec = ScenarioSpec::btc_bch();
        spec.chains[0].price = PriceSpec::Gbm {
            initial: 6000.0,
            drift: f64::NAN,
            volatility: 0.01,
        };
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));
    }

    #[test]
    fn attack_spec_snapshots_into_a_designable_game() {
        let (game, config) = ScenarioSpec::attack().game().expect("snapshots");
        assert_eq!(game.system().num_miners(), 7);
        assert_eq!(game.system().num_coins(), 2);
        assert!(game.system().powers_distinct());
        // The 8:5 value split survives quantization.
        let ratio = game.reward_of(goc_game::CoinId(0)).to_f64()
            / game.reward_of(goc_game::CoinId(1)).to_f64();
        assert!((ratio - 1.6).abs() < 0.05, "ratio {ratio}");
        assert_eq!(config.len(), 7);
    }

    fn cohort_fixture(total: usize) -> ScenarioSpec {
        let classes = [
            ("farms", 4_000.0, 2.0, 0.01),
            ("pools", 800.0, 3.0, 0.02),
            ("hobby", 120.0, 5.0, 0.05),
            ("dorm", 40.0, 8.0, 0.08),
        ];
        let per = total / classes.len();
        ScenarioSpec {
            name: "cohort_fixture".into(),
            horizon_days: 5.0,
            snapshot_hours: 6.0,
            seed: 11,
            oracle: OracleKind::Hashrate,
            chains: vec![
                ChainSpec::simple(
                    "A",
                    ChainFlavor::BchLike,
                    5_000_000,
                    PriceSpec::Constant { value: 2.0 },
                ),
                ChainSpec::simple(
                    "B",
                    ChainFlavor::BchLike,
                    5_000_000,
                    PriceSpec::Constant { value: 1.0 },
                ),
            ],
            miners: MinerSpec::Cohorts(
                classes
                    .iter()
                    .enumerate()
                    .map(|(i, &(name, hashrate, eval_hours, inertia))| CohortSpec {
                        name: name.into(),
                        count: per,
                        hashrate,
                        coin: i % 2,
                        eval_hours,
                        inertia,
                        cost_per_hash: 0.0,
                    })
                    .collect(),
            ),
            assignment: Assignment::Explicit,
            shocks: Vec::new(),
            whale: None,
            churn: None,
        }
    }

    #[test]
    fn cohorts_aggregate_into_one_agent_each() {
        let spec = cohort_fixture(4_000);
        spec.validate().expect("cohort spec validates");
        assert_eq!(spec.miners.count(), 4_000);
        assert_eq!(spec.miners.num_agents(), 4);
        let sim = spec.build().expect("builds");
        assert_eq!(sim.agents().len(), 4);
        // Aggregated hashrate equals the cohort totals, per coin.
        assert_eq!(sim.hashrate_of(0), 1_000.0 * (4_000.0 + 120.0));
        assert_eq!(sim.hashrate_of(1), 1_000.0 * (800.0 + 40.0));
        // The spec round-trips as data like every other population.
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn cohort_expansion_matches_hand_built_individuals() {
        let spec = cohort_fixture(400);
        let expanded = spec.expanded();
        assert_eq!(expanded.miners.count(), 400);
        assert_eq!(expanded.miners.num_agents(), 400);
        assert_eq!(expanded.assignment, Assignment::Explicit);
        // Expansion is the identity on non-cohort specs.
        assert_eq!(expanded.expanded(), expanded);
        assert_eq!(ScenarioSpec::attack().expanded(), ScenarioSpec::attack());
        // Hand-build the same individuals and compare the populations.
        let MinerSpec::Cohorts(cohorts) = &spec.miners else {
            unreachable!()
        };
        let mut by_hand = Vec::new();
        for c in cohorts {
            for _ in 0..c.count {
                by_hand.push(MinerAgent {
                    hashrate: c.hashrate,
                    coin: c.coin,
                    eval_interval: c.eval_hours * 3600.0,
                    inertia: c.inertia,
                    cost_per_hash: c.cost_per_hash,
                    active: true,
                });
            }
        }
        assert_eq!(expanded.miners, MinerSpec::Explicit(by_hand));
    }

    #[test]
    fn cohort_game_snapshot_equals_expanded_individuals() {
        let spec = cohort_fixture(400);
        let (game, config) = spec.game().expect("cohort spec snapshots");
        let (game2, config2) = spec.expanded().game().expect("expanded spec snapshots");
        assert_eq!(game.system(), game2.system());
        assert_eq!(game.rewards(), game2.rewards());
        assert_eq!(config, config2);
        // One game miner per rig, not per cohort.
        assert_eq!(game.system().num_miners(), 400);
        // Deterministic per seed: a second snapshot is identical.
        let (game3, config3) = spec.game().expect("snapshots again");
        assert_eq!(game.system(), game3.system());
        assert_eq!(config, config3);
    }

    #[test]
    fn cohort_validation_catches_bad_fields() {
        let base = cohort_fixture(400);
        let cohorts = |spec: &ScenarioSpec| match &spec.miners {
            MinerSpec::Cohorts(c) => c.clone(),
            _ => unreachable!(),
        };

        let mut spec = base.clone();
        let mut c = cohorts(&base);
        c[0].count = 0;
        spec.miners = MinerSpec::Cohorts(c);
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));

        let mut spec = base.clone();
        let mut c = cohorts(&base);
        c[1].coin = 7;
        spec.miners = MinerSpec::Cohorts(c);
        assert_eq!(
            spec.validate(),
            Err(SpecError::BadCoin { coin: 7, chains: 2 })
        );

        let mut spec = base.clone();
        let mut c = cohorts(&base);
        c[2].hashrate = 0.0;
        spec.miners = MinerSpec::Cohorts(c);
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));

        let mut spec = base.clone();
        let mut c = cohorts(&base);
        c[3].inertia = f64::NAN;
        spec.miners = MinerSpec::Cohorts(c);
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));

        let mut spec = base.clone();
        let mut c = cohorts(&base);
        c[0].count = 100_000_000;
        spec.miners = MinerSpec::Cohorts(c);
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));

        let mut spec = base.clone();
        spec.miners = MinerSpec::Cohorts(Vec::new());
        assert_eq!(spec.validate(), Err(SpecError::NoMiners));
    }

    #[test]
    fn churn_validation_catches_bad_specs() {
        let base = crate::fixtures::scale_churn_scenario(80, 30.0, 1, 10);
        base.validate().expect("fixture validates");

        // Churn cohorts demand a Cohorts population.
        let mut spec = base.clone();
        spec.miners = MinerSpec::Uniform {
            count: 10,
            hashrate: 100.0,
            eval_hours: 2.0,
            eval_stagger_secs: 0.0,
            inertia: 0.01,
            inertia_step: 0.0,
            cost_per_hash: 0.0,
        };
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));

        // Out-of-range and duplicate cohort indices.
        let mut spec = base.clone();
        spec.churn.as_mut().unwrap().cohorts[0].cohort = 99;
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));
        let mut spec = base.clone();
        spec.churn.as_mut().unwrap().cohorts[1].cohort = 0;
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));

        // Degenerate rates and oversized reserves.
        let mut spec = base.clone();
        spec.churn.as_mut().unwrap().cohorts[0].arrivals_per_day = f64::NAN;
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));
        let mut spec = base.clone();
        spec.churn.as_mut().unwrap().cohorts[0].max_extra = 10_000_000;
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));

        // Coin-lifecycle coherence: launching a live coin, retiring a
        // dormant one, retiring the last live coin.
        let mut spec = base.clone();
        spec.churn.as_mut().unwrap().coins.push(CoinEventSpec {
            day: 5.0,
            coin: 0,
            event: CoinLifecycle::Launch,
        });
        // Coin 0's first event is now a launch, so it starts dormant —
        // and the initial assignment places agents on it.
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));
        let mut spec = base.clone();
        spec.churn.as_mut().unwrap().coins.push(CoinEventSpec {
            day: 29.0,
            coin: 2,
            event: CoinLifecycle::Retire,
        });
        spec.churn.as_mut().unwrap().coins.push(CoinEventSpec {
            day: 29.5,
            coin: 0,
            event: CoinLifecycle::Retire,
        });
        assert!(matches!(spec.validate(), Err(SpecError::BadValue(_))));
        let mut spec = base.clone();
        spec.churn.as_mut().unwrap().coins[1].coin = 9;
        assert!(matches!(spec.validate(), Err(SpecError::BadCoin { .. })));

        // A churny spec still round-trips as data.
        let json = serde_json::to_string(&base).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(base, back);
    }

    #[test]
    fn whale_plan_is_generated_within_budget() {
        let spec = ScenarioSpec::whale_fee();
        let whale = spec.whale.expect("preset has a whale");
        let plan = whale.plan();
        assert!(!plan.pending().is_empty());
        let planned: u64 = plan.pending().iter().map(|i| i.fee).sum();
        assert!(planned <= whale.budget);
        // Whale fees actually reach the chain during a run.
        let mut sim = spec.build().expect("builds");
        sim.run();
        let fees: u64 = sim.chains()[1].blocks().iter().map(|b| b.fees).sum();
        assert!(fees > 0, "whale fees never landed");
    }

    #[test]
    fn value_share_assignment_tracks_weights() {
        let spec = ScenarioSpec::btc_bch();
        let sim = spec.build().expect("builds");
        let share = sim.hashrate_of(1) / (sim.hashrate_of(0) + sim.hashrate_of(1));
        assert!((share - 1.0 / 11.0).abs() < 0.04, "BCH share {share}");
    }
}
