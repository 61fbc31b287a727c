//! Quickstart: build a mining game, watch better-response learning
//! converge (Theorem 1), inspect the equilibrium landscape, and run a
//! reward-design manipulation (Algorithm 2).
//!
//! Run with `cargo run --example quickstart`.

use gameofcoins::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The game (paper §2) -----------------------------------------
    // Six miners with strictly decreasing powers; two coins whose weights
    // (think block reward × exchange rate) are 17 and 10.
    let game = Game::build(&[13, 11, 7, 5, 3, 2], &[17, 10])?;
    println!(
        "game: {} miners (total power {}), {} coins",
        game.system().num_miners(),
        game.system().total_power(),
        game.system().num_coins()
    );

    // --- 2. Better-response learning (paper §3, Theorem 1) ---------------
    // Start with everyone on coin 0 and let miners improve in random order.
    let start = Configuration::uniform(CoinId(0), game.system())?;
    let mut sched = SchedulerKind::UniformRandom.build(42);
    let outcome = Dynamics::new(&game)
        .start(&start)
        .scheduler(sched.as_mut())
        .options(LearningOptions {
            record_path: true,
            audit_potential: true, // assert the ordinal potential increases
            ..LearningOptions::default()
        })
        .run()?;
    println!(
        "learning converged in {} steps to {} (stable: {})",
        outcome.steps,
        outcome.final_config,
        game.is_stable(&outcome.final_config)
    );
    for mv in &outcome.path {
        println!("  step: {mv}");
    }

    // --- 3. The equilibrium landscape (paper §4) --------------------------
    let eqs = equilibrium::enumerate_equilibria(&game, 1 << 16)?;
    println!("the game has {} pure equilibria:", eqs.len());
    for (i, s) in eqs.iter().enumerate() {
        let payoffs: Vec<String> = game.payoffs(s).iter().map(|p| p.to_string()).collect();
        println!("  eq{i}: {s}  payoffs: [{}]", payoffs.join(", "));
    }

    // --- 4. Reward design (paper §5, Algorithm 2) -------------------------
    // A manipulator steers the market from one equilibrium to another by
    // temporarily boosting coin rewards, then stops paying: the target is
    // stable under the original rewards.
    let (s0, sf) = equilibrium::two_equilibria(&game)?;
    println!("designing a move from {s0} to {sf} …");
    let problem = DesignProblem::new(game.clone(), s0, sf.clone())?;
    let mut learners = SchedulerKind::MinGain.build(0); // adversarially slow
    let design_outcome = design(
        &problem,
        learners.as_mut(),
        DesignOptions {
            verify_invariants: true,
            ..DesignOptions::default()
        },
    )?;
    println!(
        "reached {} in {} stages / {} reward postings / {} learning steps; cost {:.1} reward units",
        design_outcome.final_config,
        design_outcome.stages.len(),
        design_outcome.total_iterations,
        design_outcome.total_steps,
        design_outcome.total_cost,
    );
    assert_eq!(design_outcome.final_config, sf);
    assert!(game.is_stable(&sf));
    println!("the manipulation is over and the system stays at the designed equilibrium.");
    Ok(())
}
