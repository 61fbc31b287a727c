//! Convergence statistics over repeated learning runs.
//!
//! The Theorem 1 / convergence-speed experiments repeat learning across
//! seeds and report step-count distributions; this module provides the
//! repetition harness and summary.

use goc_game::gen::random_config;
use goc_game::{Configuration, Game};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::dynamics::{Dynamics, LearningOptions};
use crate::scheduler::SchedulerKind;

/// Summary of step counts over a batch of learning runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceSummary {
    /// Number of runs.
    pub runs: usize,
    /// Runs that reached a stable configuration within the cap.
    pub converged: usize,
    /// Minimum steps among converged runs.
    pub min_steps: usize,
    /// Maximum steps among converged runs.
    pub max_steps: usize,
    /// Mean steps among converged runs.
    pub mean_steps: f64,
    /// Median steps among converged runs.
    pub median_steps: f64,
    /// 95th-percentile steps among converged runs.
    pub p95_steps: usize,
}

impl ConvergenceSummary {
    /// Summarizes a list of `(converged, steps)` observations.
    pub fn from_observations(obs: &[(bool, usize)]) -> Self {
        let mut steps: Vec<usize> = obs.iter().filter(|(ok, _)| *ok).map(|&(_, s)| s).collect();
        steps.sort_unstable();
        let converged = steps.len();
        let (min_steps, max_steps) = match (steps.first(), steps.last()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => (0, 0),
        };
        let mean_steps = if converged == 0 {
            0.0
        } else {
            steps.iter().sum::<usize>() as f64 / converged as f64
        };
        let median_steps = percentile(&steps, 0.5);
        let p95_steps = percentile(&steps, 0.95) as usize;
        ConvergenceSummary {
            runs: obs.len(),
            converged,
            min_steps,
            max_steps,
            mean_steps,
            median_steps,
            p95_steps,
        }
    }

    /// Fraction of runs that converged.
    pub fn convergence_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.converged as f64 / self.runs as f64
        }
    }
}

fn percentile(sorted: &[usize], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

/// Runs `repeats` learning trials of `scheduler_kind` on `game` from
/// uniformly random starting configurations and summarizes convergence.
///
/// Deterministic given `seed`.
pub fn convergence_trials(
    game: &Game,
    scheduler_kind: SchedulerKind,
    repeats: usize,
    seed: u64,
    options: LearningOptions,
) -> ConvergenceSummary {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut obs = Vec::with_capacity(repeats);
    for i in 0..repeats {
        let start: Configuration = random_config(&mut rng, game.system());
        let mut sched = scheduler_kind.build(seed.wrapping_add(i as u64));
        let outcome = Dynamics::new(game)
            .start(&start)
            .scheduler(sched.as_mut())
            .options(options)
            .run()
            .expect("bundled schedulers only return legal moves");
        obs.push((outcome.converged, outcome.steps));
    }
    ConvergenceSummary::from_observations(&obs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_and_mixed() {
        let empty = ConvergenceSummary::from_observations(&[]);
        assert_eq!(empty.runs, 0);
        assert_eq!(empty.convergence_rate(), 0.0);

        let mixed = ConvergenceSummary::from_observations(&[
            (true, 2),
            (true, 10),
            (false, 999),
            (true, 4),
        ]);
        assert_eq!(mixed.runs, 4);
        assert_eq!(mixed.converged, 3);
        assert_eq!(mixed.min_steps, 2);
        assert_eq!(mixed.max_steps, 10);
        assert!((mixed.mean_steps - 16.0 / 3.0).abs() < 1e-12);
        assert_eq!(mixed.median_steps, 4.0);
        assert_eq!(mixed.convergence_rate(), 0.75);
    }

    #[test]
    fn trials_always_converge_on_small_game() {
        let game = goc_game::paper::btc_bch_toy();
        let summary = convergence_trials(
            &game,
            SchedulerKind::UniformRandom,
            25,
            7,
            LearningOptions::default(),
        );
        assert_eq!(summary.runs, 25);
        assert_eq!(summary.converged, 25);
        assert!(summary.max_steps >= summary.min_steps);
    }

    #[test]
    fn trials_are_deterministic() {
        let game = goc_game::paper::btc_bch_toy();
        let a = convergence_trials(
            &game,
            SchedulerKind::MaxGain,
            10,
            3,
            LearningOptions::default(),
        );
        let b = convergence_trials(
            &game,
            SchedulerKind::MaxGain,
            10,
            3,
            LearningOptions::default(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn percentile_midpoints() {
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 0.5), 3.0);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.95), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
