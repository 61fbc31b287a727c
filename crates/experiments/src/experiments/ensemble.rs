//! **ensemble** — the Monte-Carlo measurement instrument.
//!
//! Theorem 1 is distributional: better-response learning converges to
//! *some* pure equilibrium, and which one — and how fast — depends on
//! the schedule and the seed. Every other experiment samples that
//! distribution once per context; this one maps it. It drives
//! [`goc_analysis::ensemble`]: thousands of deterministic replicas on
//! the work-stealing executor (per-replica RNG streams derived from the
//! root seed), folded through streaming aggregators into an equilibrium
//! census — distinct equilibria by canonical mass-vector fingerprint,
//! hit frequencies, and empirical price-of-anarchy/stability ratios.
//!
//! Checks:
//!
//! * **census coverage**: on a multi-equilibrium game, the replica set
//!   reaches ≥ 2 distinct equilibria and every converged replica is
//!   accounted for in the fingerprint census;
//! * **kinds × populations × replicas**: every scheduler kind's
//!   ensemble converges all replicas at every swept size;
//! * **thread invariance**: the same root seed yields a bit-identical
//!   aggregate at 1, 2, and the context's worker count (the property
//!   `ensemble_determinism.rs` pins exhaustively);
//! * **churn**: ensembles over the churny fixture absorb the
//!   coin lifecycle in every replica and still converge;
//! * **scale**: the flagship 100k-miner × ≥64-replica ensemble
//!   completes within the wall budget, with the measured 1→4-thread
//!   speedup reported (the near-linear assertion only applies on
//!   hardware with ≥ 4 cores — a 1-core CI box cannot exhibit it).
//!
//! Timing convention: wall-clock only ever appears in `secs`/`per_sec`
//! params, tables titled `timing`, and checks named `wall` — the golden
//! comparator strips exactly those. Recorded ensemble throughput is
//! the `ensemble` layer of `goc-bench`'s `baseline` bin (and the CI
//! perf gate).

use std::time::Instant;

use goc_analysis::ensemble::{run_observed, EnsembleReport, EnsembleSpec, Universes};
use goc_analysis::{RunReport, Table};

use crate::{Experiment, RunContext};

/// The ensemble experiment.
pub struct Ensemble;

/// Wall budget for the flagship ensemble (full mode), seconds.
const FLAGSHIP_BUDGET_SECS: f64 = 180.0;

/// Minimum 1→4-thread speedup accepted as "near-linear" when ≥ 4 cores
/// are actually available.
const MIN_SPEEDUP: f64 = 2.0;

/// Runs a spec on the context's `observe` handle or fails the report
/// with a named check (the bundled fixtures cannot fail; this keeps a
/// broken future edit diagnosable instead of panicking the whole
/// registry run).
fn run_or_flag(
    report: &mut RunReport,
    ctx: &RunContext,
    label: &str,
    spec: &EnsembleSpec,
    threads: usize,
) -> Option<EnsembleReport> {
    // A fresh slot per call: every spec builds its own universe, so
    // the 1→4-thread speedup check times the same work at each count.
    match run_observed(spec, threads, &ctx.observe, &Universes::new()) {
        Ok(result) => Some(result),
        Err(error) => {
            report.check(format!("{label}_runs"), false, error.to_string());
            None
        }
    }
}

impl Experiment for Ensemble {
    fn name(&self) -> &'static str {
        "ensemble"
    }

    fn describe(&self) -> &'static str {
        "Monte-Carlo replica ensembles: equilibrium distributions, fingerprints, PoA at 100k miners"
    }

    fn run(&self, ctx: &RunContext) -> RunReport {
        let mut report = RunReport::new(
            self.name(),
            "parallel replica ensembles and equilibrium-distribution analytics",
        );
        let threads = ctx.threads.max(1);
        let flagship_replicas = ctx.replicas.unwrap_or(ctx.scale(64, 8)).max(1);
        report
            .param("seed", ctx.seed.to_string())
            .param("threads", threads.to_string())
            .param("flagship_replicas", flagship_replicas.to_string());
        report.note(
            "replica seeds are SplitMix64 streams off the root seed; aggregates fold in \
             replica order, so every census below is bit-identical at any worker-thread \
             count — wall clock is the only thing --threads changes",
        );

        // -------------------------------------------------------------
        // Equilibrium census on a small multi-equilibrium game
        // -------------------------------------------------------------
        let census_spec = EnsembleSpec::new(24, ctx.scale(192, 48), ctx.seed.wrapping_add(17))
            .with_scheduler(goc_learning::SchedulerKind::UniformRandom);
        let mut census_rows = Table::new(vec![
            "fingerprint",
            "hits",
            "share",
            "potential",
            "welfare",
            "masses",
        ]);
        if let Some(result) = run_or_flag(&mut report, ctx, "census", &census_spec, threads) {
            let census = &result.aggregate.equilibria;
            for entry in &census.entries {
                census_rows.row(vec![
                    entry.fingerprint.clone(),
                    entry.hits.to_string(),
                    format!("{:.3}", entry.share),
                    format!("{:.6}", entry.potential),
                    format!("{:.1}", entry.welfare),
                    entry.masses.join("/"),
                ]);
            }
            report.table(
                format!(
                    "equilibrium census: {} miners × {} uniform-random replicas",
                    census_spec.miners, census_spec.replicas
                ),
                &census_rows,
            );
            report.check(
                "census_covers_every_converged_replica",
                result.aggregate.converged == result.aggregate.replicas
                    && census.total_hits == result.aggregate.converged as u64,
                format!(
                    "{} / {} replicas converged, {} census hits",
                    result.aggregate.converged, result.aggregate.replicas, census.total_hits
                ),
            );
            report.check(
                "census_reaches_multiple_equilibria",
                census.distinct >= 2,
                format!(
                    "{} distinct equilibria; empirical PoA {:.4}, PoS {:.4} \
                     (worst/modal vs best potential)",
                    census.distinct, census.poa_ratio, census.pos_ratio
                ),
            );
            report.param("census_distinct", census.distinct.to_string());
            report.param("census_poa", format!("{:.6}", census.poa_ratio));
            report.param("census_pos", format!("{:.6}", census.pos_ratio));
        }

        // -------------------------------------------------------------
        // Kinds × populations × replica counts
        // -------------------------------------------------------------
        let populations: &[usize] = if ctx.quick { &[500] } else { &[1_000, 10_000] };
        let replica_counts: &[usize] = if ctx.quick { &[6] } else { &[8, 24] };
        let kinds = ctx.scheduler_kinds();
        report
            .param("populations", format!("{populations:?}"))
            .param("replica_counts", format!("{replica_counts:?}"))
            .param(
                "schedulers",
                kinds.iter().map(|k| k.name()).collect::<Vec<_>>().join(","),
            );
        let mut sweep = Table::new(vec![
            "scheduler",
            "miners",
            "replicas",
            "converged",
            "distinct",
            "steps_mean",
            "steps_p90",
        ]);
        let mut sweep_timing = Table::new(vec!["scheduler", "miners", "replicas", "wall_ms"]);
        let top = *populations.last().expect("populations are nonempty");
        for &kind in &kinds {
            let mut all_converged = true;
            for &n in populations {
                for &replicas in replica_counts {
                    let spec = EnsembleSpec::new(n, replicas, ctx.seed).with_scheduler(kind);
                    let Some(result) = run_or_flag(
                        &mut report,
                        ctx,
                        &format!("{}_{n}x{replicas}", kind.name()),
                        &spec,
                        threads,
                    ) else {
                        all_converged = false;
                        continue;
                    };
                    all_converged &= result.aggregate.converged == replicas;
                    sweep.row(vec![
                        kind.name().to_string(),
                        n.to_string(),
                        replicas.to_string(),
                        result.aggregate.converged.to_string(),
                        result.aggregate.equilibria.distinct.to_string(),
                        format!("{:.1}", result.aggregate.steps.mean),
                        format!("{:.0}", result.aggregate.step_percentiles.p90),
                    ]);
                    sweep_timing.row(vec![
                        kind.name().to_string(),
                        n.to_string(),
                        replicas.to_string(),
                        format!("{:.1}", result.timing.total_wall_secs * 1e3),
                    ]);
                }
            }
            report.check(
                format!("{}_ensembles_converge_every_replica", kind.name()),
                all_converged,
                format!("populations {populations:?} × replicas {replica_counts:?}, top {top}"),
            );
        }
        report.table("scheduler ensembles (random starts per replica)", &sweep);
        report.table(
            "ensemble sweep timing (stripped from goldens)",
            &sweep_timing,
        );

        // -------------------------------------------------------------
        // Thread invariance of the aggregate
        // -------------------------------------------------------------
        let invariance_spec = EnsembleSpec::new(
            ctx.scale(2_000, 400),
            ctx.scale(24, 8),
            ctx.seed.wrapping_add(29),
        )
        .with_scheduler(goc_learning::SchedulerKind::UniformRandom);
        // Deduplicated: when the context's worker count is already 1 or
        // 2, a third run would re-execute an identical ensemble and
        // prove nothing.
        let mut counts = vec![1usize, 2];
        if !counts.contains(&threads) {
            counts.push(threads);
        }
        let runs: Vec<Option<EnsembleReport>> = counts
            .iter()
            .map(|&t| run_or_flag(&mut report, ctx, "invariance", &invariance_spec, t))
            .collect();
        if runs.iter().all(Option::is_some) {
            let jsons: Vec<String> = runs
                .iter()
                .map(|r| r.as_ref().expect("checked above").deterministic_json())
                .collect();
            let identical = jsons.windows(2).all(|pair| pair[0] == pair[1]);
            let distinct = runs[0]
                .as_ref()
                .expect("checked above")
                .aggregate
                .equilibria
                .distinct;
            report.check(
                "aggregate_is_thread_invariant",
                identical,
                format!(
                    "{distinct} distinct equilibria, byte-identical deterministic report at \
                     1 and 2 worker threads and at the run's own thread count"
                ),
            );
        }

        // -------------------------------------------------------------
        // Churny ensembles
        // -------------------------------------------------------------
        let turnover = ctx.turnover_pct.unwrap_or(10);
        let churn_spec = EnsembleSpec::new(
            ctx.scale(10_000, 1_000),
            ctx.scale(24, 6),
            ctx.seed.wrapping_add(41),
        )
        .with_churn(turnover);
        if let Some(result) = run_or_flag(&mut report, ctx, "churn", &churn_spec, threads) {
            report.check(
                "churny_ensemble_converges_and_absorbs_lifecycle",
                result.aggregate.converged == result.aggregate.replicas
                    && result.aggregate.churn_deltas >= result.aggregate.replicas as u64,
                format!(
                    "{} miners × {} replicas at {turnover}% turnover: {} deltas, {} distinct \
                     equilibria",
                    churn_spec.miners,
                    churn_spec.replicas,
                    result.aggregate.churn_deltas,
                    result.aggregate.equilibria.distinct
                ),
            );
            report.param(
                "churn_distinct",
                result.aggregate.equilibria.distinct.to_string(),
            );
        }

        // -------------------------------------------------------------
        // Flagship scale: 100k miners × ≥64 replicas (+ 1→4 threads)
        // -------------------------------------------------------------
        let flagship = EnsembleSpec::new(
            ctx.scale(100_000, 4_000),
            flagship_replicas,
            ctx.seed.wrapping_add(5),
        );
        let clock = Instant::now();
        if ctx.quick {
            if let Some(result) = run_or_flag(&mut report, ctx, "flagship", &flagship, threads) {
                self.flagship_checks(
                    &mut report,
                    &flagship,
                    &result,
                    clock.elapsed().as_secs_f64(),
                );
            }
        } else {
            // Full mode measures the same ensemble at 1 and 4 workers:
            // the aggregates must agree (determinism at scale) and the
            // wall-clock ratio is the reported parallel speedup.
            let t1 = run_or_flag(&mut report, ctx, "flagship", &flagship, 1);
            let t4 = run_or_flag(&mut report, ctx, "flagship", &flagship, 4);
            if let (Some(one), Some(four)) = (t1, t4) {
                report.check(
                    "flagship_aggregate_identical_at_1_and_4_threads",
                    one.deterministic_json() == four.deterministic_json(),
                    format!(
                        "{} distinct equilibria at {} miners",
                        one.aggregate.equilibria.distinct, flagship.miners
                    ),
                );
                let speedup = one.timing.total_wall_secs / four.timing.total_wall_secs.max(1e-9);
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                let (pass, detail) = if cores >= 4 {
                    (
                        speedup >= MIN_SPEEDUP,
                        format!(
                            "speedup ×{speedup:.2} from 1→4 threads on {cores} cores \
                             (floor ×{MIN_SPEEDUP:.1})"
                        ),
                    )
                } else {
                    (
                        true,
                        format!(
                            "only {cores} core(s) available — measured ×{speedup:.2}; \
                             near-linear scaling asserted on ≥4-core hardware only"
                        ),
                    )
                };
                report.check("flagship_wall_speedup_1_to_4_threads", pass, detail);
                report.param("flagship_speedup_wall_secs", format!("{speedup:.3}"));
                self.flagship_checks(&mut report, &flagship, &four, clock.elapsed().as_secs_f64());
            }
        }

        report.artifact("ensemble.csv", {
            let mut csv = String::from("scheduler,miners,replicas,converged,distinct\n");
            for row in sweep.rows() {
                csv.push_str(&format!(
                    "{},{},{},{},{}\n",
                    row[0], row[1], row[2], row[3], row[4]
                ));
            }
            csv
        });
        report
    }
}

impl Ensemble {
    /// Shared convergence/coverage/budget checks of the flagship run.
    fn flagship_checks(
        &self,
        report: &mut RunReport,
        spec: &EnsembleSpec,
        result: &EnsembleReport,
        elapsed_secs: f64,
    ) {
        let aggregate = &result.aggregate;
        let hits = aggregate.equilibria.total_hits;
        report.check(
            format!("flagship_{}x{}_converges", spec.miners, spec.replicas),
            aggregate.converged == aggregate.replicas,
            format!(
                "{} / {} replicas converged; {} distinct equilibria, steps mean {:.0} \
                 (p50 {:.0} / p99 {:.0})",
                aggregate.converged,
                aggregate.replicas,
                aggregate.equilibria.distinct,
                aggregate.steps.mean,
                aggregate.step_percentiles.p50,
                aggregate.step_percentiles.p99
            ),
        );
        report.check(
            "flagship_census_accounts_for_every_replica",
            hits == aggregate.converged as u64,
            format!(
                "{hits} census hits over {} distinct equilibria",
                aggregate.equilibria.distinct
            ),
        );
        report.check(
            "flagship_wall_clock_within_budget",
            elapsed_secs < FLAGSHIP_BUDGET_SECS,
            format!("{elapsed_secs:.1} s (budget {FLAGSHIP_BUDGET_SECS:.0} s)"),
        );
        report.param(
            "flagship_replicas_per_sec",
            format!("{:.2}", result.timing.replicas_per_sec),
        );
        report.param(
            "flagship_distinct",
            aggregate.equilibria.distinct.to_string(),
        );
    }
}
