//! The three workloads and the request streams they derive from the
//! workload seed. The server only ever sees the generated specs.

use goc_analysis::ensemble::executor::replica_seed;
use goc_analysis::ensemble::EnsembleSpec;
use goc_learning::SchedulerKind;

/// Lowest population of a `churn-sched-20k` request.
const CHURN_MIN_MINERS: usize = 20_000;
/// Number of distinct populations `churn-sched-20k` draws from
/// (20 000–24 000). It is prime, so any non-zero stride walks every
/// population once before repeating one.
const CHURN_POPULATIONS: u64 = 4001;
/// Turnover percentage every `churn-sched-20k` request asks for.
const CHURN_TURNOVER_PCT: u32 = 10;

/// The seed of the warm-up batch. The batch is the same on every run, so
/// `setup_s` times the same work whatever `--seed` is.
const WARMUP_SEED: u64 = 0;

/// Sub-streams of the workload seed, so population, check and replay
/// choices never reuse each other's draws.
const STREAM_POPULATION: u64 = 0x706f_7075_6c61_7465;
const STREAM_CHECK: u64 = 0x6368_6563_6b00_0000;
const STREAM_REPLAY: u64 = 0x7265_706c_6179_0000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1 client + 1 scraper; 1000 miners × 2 replicas per request.
    Wire1k,
    /// 1 client; 100 000 miners × 4 replicas per request.
    Ensemble100k,
    /// 2 clients; 20 000–24 000 miners × 2 replicas, churn, all six
    /// schedulers in turn.
    ChurnSched20k,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "wire-1k" => Some(Workload::Wire1k),
            "ensemble-100k" => Some(Workload::Ensemble100k),
            "churn-sched-20k" => Some(Workload::ChurnSched20k),
            _ => None,
        }
    }

    /// Concurrent closed-loop clients.
    pub fn clients(self) -> usize {
        match self {
            Workload::ChurnSched20k => 2,
            _ => 1,
        }
    }

    /// Whether a scraper connection sends `Metrics` beside the clients.
    pub fn scrapes(self) -> bool {
        self == Workload::Wire1k
    }

    /// Requests in the fixed warm-up batch that ends each set-up.
    pub fn warmup_requests(self) -> u64 {
        match self {
            Workload::Wire1k => 600,
            Workload::Ensemble100k => 4,
            Workload::ChurnSched20k => 12,
        }
    }

    /// One in this many timed requests is re-run in process after the
    /// window and compared byte for byte.
    fn check_stride(self) -> u64 {
        match self {
            Workload::Wire1k => 256,
            Workload::Ensemble100k => 64,
            Workload::ChurnSched20k => 48,
        }
    }

    /// Requests the traced run replays layer by layer. `churn-sched-20k`
    /// replays two requests per scheduler.
    pub fn replay_requests(self) -> u64 {
        match self {
            Workload::Wire1k => 400,
            Workload::Ensemble100k => 8,
            Workload::ChurnSched20k => 2 * SchedulerKind::ALL.len() as u64,
        }
    }
}

/// Every request a workload sends, as a pure function of the seed and
/// the request's position in the stream.
#[derive(Debug, Clone)]
pub struct Requests {
    workload: Workload,
    seed: u64,
    population_offset: u64,
    population_stride: u64,
}

impl Requests {
    pub fn new(workload: Workload, seed: u64) -> Requests {
        let root = replica_seed(seed, STREAM_POPULATION as usize);
        Requests {
            workload,
            seed,
            population_offset: replica_seed(root, 0) % CHURN_POPULATIONS,
            population_stride: 1 + replica_seed(root, 1) % (CHURN_POPULATIONS - 1),
        }
    }

    /// The `j`-th request of the warm-up batch: the same for every seed.
    pub fn warmup(&self, j: u64) -> EnsembleSpec {
        Requests::new(self.workload, WARMUP_SEED).at(j)
    }

    /// The `i`-th request of the timed stream (after the warm-up
    /// positions, so under the warm-up seed no timed request repeats a
    /// warm-up population).
    pub fn timed(&self, i: u64) -> EnsembleSpec {
        self.at(self.workload.warmup_requests() + i)
    }

    /// Whether timed request `i` is one of the seed-chosen requests the
    /// run re-executes in process after the window.
    pub fn checked(&self, i: u64) -> bool {
        let stride = self.workload.check_stride();
        i % stride == replica_seed(self.seed, STREAM_CHECK as usize) % stride
    }

    /// First timed position the traced run replays; the replay takes
    /// consecutive requests from there, so `churn-sched-20k` covers every
    /// scheduler.
    pub fn replay_start(&self) -> u64 {
        replica_seed(self.seed, STREAM_REPLAY as usize) % 1000
    }

    fn at(&self, position: u64) -> EnsembleSpec {
        let seed = replica_seed(self.seed, position as usize);
        match self.workload {
            Workload::Wire1k => EnsembleSpec::new(1000, 2, seed),
            Workload::Ensemble100k => EnsembleSpec::new(100_000, 4, seed),
            Workload::ChurnSched20k => {
                let slot = (self.population_offset + position * self.population_stride)
                    % CHURN_POPULATIONS;
                let kind =
                    SchedulerKind::ALL[(position % SchedulerKind::ALL.len() as u64) as usize];
                EnsembleSpec::new(CHURN_MIN_MINERS + slot as usize, 2, seed)
                    .with_scheduler(kind)
                    .with_churn(CHURN_TURNOVER_PCT)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        for workload in [
            Workload::Wire1k,
            Workload::Ensemble100k,
            Workload::ChurnSched20k,
        ] {
            let a = Requests::new(workload, 7);
            let b = Requests::new(workload, 7);
            let c = Requests::new(workload, 8);
            for i in 0..20 {
                assert_eq!(a.timed(i), b.timed(i));
                assert_ne!(a.timed(i).seed, c.timed(i).seed);
                assert_eq!(a.warmup(i), c.warmup(i));
            }
        }
    }

    #[test]
    fn churn_populations_are_distinct_and_schedulers_cycle() {
        let requests = Requests::new(Workload::ChurnSched20k, 3);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..500 {
            let spec = requests.timed(i);
            assert!((20_000..=24_000).contains(&spec.miners));
            assert!(seen.insert(spec.miners), "population repeated at {i}");
        }
        let kinds: Vec<_> = (0..6).map(|i| requests.timed(i).scheduler).collect();
        for kind in SchedulerKind::ALL {
            assert!(kinds.contains(&Some(kind)));
        }
    }
}
