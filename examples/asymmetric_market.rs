//! The asymmetric case (paper §6): some coins are mineable only by a
//! subset of miners (ASIC vs GPU hardware classes). The paper leaves its
//! theory open; this example shows the extended model in action and that
//! better-response learning still converges empirically.
//!
//! Run with `cargo run --example asymmetric_market`.

use gameofcoins::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Eight miners over three coins:
    //   c0: SHA-256 coin   (ASIC farms only)
    //   c1: Ethash-like    (GPUs only)
    //   c2: CPU-friendly   (everyone)
    let game = Game::build(&[900, 800, 400, 350, 300, 120, 80, 50], &[6000, 3000, 800])?;
    let asic = |i: usize| i < 3; // the three biggest miners run ASIC farms
    let restrictions: Vec<Vec<bool>> = (0..8)
        .map(|i| {
            if asic(i) {
                vec![true, false, true]
            } else {
                vec![false, true, true]
            }
        })
        .collect();
    let game = game.with_restrictions(restrictions)?;
    println!("restricted market: ASIC miners p0-p2 (c0/c2), GPU miners p3-p7 (c1/c2)");

    // Run every scheduler from a deliberately bad start: everyone on the
    // shared CPU coin.
    let start = Configuration::uniform(CoinId(2), game.system())?;
    for kind in SchedulerKind::ALL {
        let mut sched = kind.build(3);
        let outcome = Dynamics::new(&game)
            .start(&start)
            .scheduler(sched.as_mut())
            .run()?;
        assert!(outcome.converged, "{kind} failed to converge");
        println!(
            "{kind:<22} converged in {:>3} steps to {}",
            outcome.steps, outcome.final_config
        );
    }

    // Show the final allocation's per-coin revenue-per-unit: restricted
    // equilibria need NOT equalize RPUs across hardware classes.
    let mut sched = SchedulerKind::RoundRobin.build(0);
    let outcome = Dynamics::new(&game)
        .start(&start)
        .scheduler(sched.as_mut())
        .run()?;
    let s = outcome.final_config;
    let masses = s.masses(game.system());
    println!("\nfinal allocation:");
    for c in game.system().coin_ids() {
        let miners: Vec<String> = s.miners_on(c).map(|p| p.to_string()).collect();
        println!(
            "  {c}: miners [{}], mass {}, RPU {}",
            miners.join(", "),
            masses.mass_of(c),
            game.rpu(c, &masses)
        );
    }
    Ok(())
}
