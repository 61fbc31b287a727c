//! API-contract tests (Rust API Guidelines): `Send`/`Sync` for the types
//! users move across threads, `Error` implementations, and `Display`
//! stability for identifiers used in output formats.

use gameofcoins::prelude::*;

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}
fn assert_error<T: std::error::Error>() {}
fn assert_debug<T: std::fmt::Debug>() {}
fn assert_clone<T: Clone>() {}

#[test]
fn core_types_are_send_and_sync() {
    assert_send::<Game>();
    assert_sync::<Game>();
    assert_send::<Configuration>();
    assert_sync::<Configuration>();
    assert_send::<System>();
    assert_sync::<System>();
    assert_send::<Rewards>();
    assert_sync::<Rewards>();
    assert_send::<Ratio>();
    assert_sync::<Ratio>();
    assert_send::<DesignProblem>();
    assert_sync::<DesignProblem>();
    assert_send::<Blockchain>();
    assert_sync::<Blockchain>();
    assert_send::<Market>();
    assert_sync::<Market>();
    assert_send::<Simulation>();
    // Simulation is intentionally not Sync (it owns its RNG), but it can
    // be moved to a worker thread, which the sweep runner relies on.
}

#[test]
fn scenario_api_types_are_send_sync_debug_clone() {
    // The scenario/report/registry layer is moved across threads by
    // `goc sweep` and embedded in user structs; lock in the auto traits.
    assert_send::<ScenarioSpec>();
    assert_sync::<ScenarioSpec>();
    assert_debug::<ScenarioSpec>();
    assert_clone::<ScenarioSpec>();
    assert_send::<RunReport>();
    assert_sync::<RunReport>();
    assert_debug::<RunReport>();
    assert_clone::<RunReport>();
    assert_send::<TableData>();
    assert_sync::<TableData>();
    assert_debug::<TableData>();
    assert_clone::<TableData>();
    assert_send::<RunContext>();
    assert_sync::<RunContext>();
    assert_debug::<RunContext>();
    assert_clone::<RunContext>();
    assert_send::<SweepSpec>();
    assert_sync::<SweepSpec>();
    assert_debug::<SweepSpec>();
    assert_clone::<SweepSpec>();
    assert_send::<gameofcoins::sim::SpecError>();
    assert_sync::<gameofcoins::sim::SpecError>();
    // Trait objects from the registry cross sweep worker threads.
    assert_send::<Box<dyn Experiment>>();
    assert_sync::<Box<dyn Experiment>>();
}

#[test]
fn spec_error_is_a_real_error() {
    assert_error::<gameofcoins::sim::SpecError>();
    let mut spec = ScenarioSpec::btc_bch();
    spec.chains.clear();
    let err = spec.build().unwrap_err();
    assert!(err.to_string().contains("no chains"));
}

#[test]
fn error_types_implement_error_send_sync() {
    assert_error::<GameError>();
    assert_send::<GameError>();
    assert_sync::<GameError>();
    assert_error::<gameofcoins::design::DesignError>();
    assert_send::<gameofcoins::design::DesignError>();
    assert_error::<gameofcoins::learning::LearningError>();
    assert_send::<gameofcoins::learning::LearningError>();
}

#[test]
fn games_can_be_shared_across_threads() {
    // The sweep pattern: one game, many worker threads.
    let game = Game::build(&[5, 3, 2], &[7, 4]).unwrap();
    let results: Vec<usize> = std::thread::scope(|scope| {
        (0..4u64)
            .map(|seed| {
                let game = &game;
                scope.spawn(move || {
                    let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
                    let mut sched = SchedulerKind::UniformRandom.build(seed);
                    Dynamics::new(game)
                        .start(&start)
                        .scheduler(sched.as_mut())
                        .run()
                        .unwrap()
                        .steps
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(results.len(), 4);
}

#[test]
fn display_formats_are_stable() {
    // Identifiers and moves appear in CSV output and logs; these formats
    // are a compatibility surface.
    assert_eq!(MinerId(3).to_string(), "p3");
    assert_eq!(CoinId(1).to_string(), "c1");
    assert_eq!(Ratio::new(3, 2).unwrap().to_string(), "3/2");
    assert_eq!(Ratio::from_int(7).to_string(), "7");
    let game = Game::build(&[2, 1], &[1, 1]).unwrap();
    let s = Configuration::uniform(CoinId(0), game.system()).unwrap();
    assert_eq!(s.to_string(), "⟨c0, c0⟩");
}

#[test]
fn default_constructors_agree_with_new() {
    // C-COMMON-TRAITS: Default and new coincide where both exist.
    use gameofcoins::learning::RoundRobin;
    let _ = RoundRobin::new();
    let _ = RoundRobin::default();
    let a = gameofcoins::game::Ratio::default();
    assert_eq!(a, Ratio::ZERO);
}

#[test]
fn service_layer_types_are_send_sync_debug_clone() {
    // Protocol values cross session threads and live inside the load
    // generator's per-client plans.
    assert_send::<Request>();
    assert_sync::<Request>();
    assert_debug::<Request>();
    assert_clone::<Request>();
    assert_send::<Response>();
    assert_sync::<Response>();
    assert_debug::<Response>();
    assert_clone::<Response>();
    assert_send::<RejectReason>();
    assert_sync::<RejectReason>();
    assert_send::<Connection<std::net::TcpStream>>();
    assert_send::<Client>();
    assert_send::<ServerConfig>();
    assert_sync::<ServerConfig>();
    assert_debug::<ServerConfig>();
    assert_clone::<ServerConfig>();
    // Backends are injected once and called from every session thread.
    assert_send::<Box<dyn Backend>>();
    assert_sync::<Box<dyn Backend>>();
}

#[test]
fn service_layer_errors_are_real_errors() {
    assert_error::<ProtoError>();
    assert_send::<ProtoError>();
    assert_sync::<ProtoError>();
    assert_error::<gameofcoins::server::ServerError>();
    assert_send::<gameofcoins::server::ServerError>();
    assert_error::<gameofcoins::server::ConfigError>();
    assert_send::<gameofcoins::server::ConfigError>();
}

#[test]
fn reject_reason_display_is_the_stable_snake_case_name() {
    // `goc request` surfaces rejections as `rejected (<name>)`; tests
    // and scripts match on these strings.
    assert_eq!(RejectReason::SessionLimit.to_string(), "session_limit");
    assert_eq!(RejectReason::InFlightLimit.to_string(), "in_flight_limit");
    assert_eq!(
        RejectReason::SessionBudgetExhausted.to_string(),
        "session_budget_exhausted"
    );
    assert_eq!(RejectReason::FrameTooLarge.to_string(), "frame_too_large");
}
