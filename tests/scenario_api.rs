//! Integration tests for the unified scenario API: declarative specs,
//! the experiment registry, and structured run reports.

use gameofcoins::analysis::{ReportItem, RunReport};
use gameofcoins::experiments::{self, RunContext, SweepSpec};
use gameofcoins::proto::ExperimentRequest;
use gameofcoins::sim::{
    Assignment, ChainFlavor, ChainSpec, CohortSpec, MinerAgent, MinerSpec, OracleKind, PriceSpec,
    ScenarioSpec,
};

#[test]
fn every_preset_round_trips_through_serde_json() {
    for spec in ScenarioSpec::presets() {
        let json = serde_json::to_string_pretty(&spec).expect("spec serializes");
        let back: ScenarioSpec = serde_json::from_str(&json).expect("spec parses");
        assert_eq!(spec, back, "{} lost data in the JSON round trip", spec.name);
    }
}

#[test]
fn edited_spec_json_builds_a_different_simulation() {
    // The scenario-as-data workflow: serialize a preset, edit fields in
    // the JSON (as a user would in a spec file), build the result.
    let spec = ScenarioSpec::btc_bch();
    let json = serde_json::to_string(&spec).expect("serializes");
    let mut edited: ScenarioSpec = serde_json::from_str(&json).expect("parses");
    edited.horizon_days = 2.0;
    edited.shocks.clear();
    edited.oracle = OracleKind::Difficulty;
    edited.miners = MinerSpec::Uniform {
        count: 10,
        hashrate: 50.0,
        eval_hours: 2.0,
        eval_stagger_secs: 120.0,
        inertia: 0.01,
        inertia_step: 0.0,
        cost_per_hash: 0.0,
    };
    edited.assignment = Assignment::Modulo;
    let mut sim = edited.build().expect("edited spec builds");
    let metrics = sim.run();
    assert_eq!(metrics.num_coins(), 2);
    assert!(!metrics.is_empty());
}

#[test]
fn spec_builds_are_deterministic() {
    let run = |spec: &ScenarioSpec| {
        let mut sim = spec.build().expect("builds");
        let m = sim.run().clone();
        (
            sim.chains()[0].height(),
            sim.chains()[1].height(),
            m.total_switches,
        )
    };
    let mut spec = ScenarioSpec::btc_bch();
    spec.horizon_days = 5.0;
    spec.shocks[0].day = 2.0;
    spec.shocks[1].day = 4.0;
    assert_eq!(run(&spec), run(&spec), "same spec, different runs");
    let mut other_seed = spec.clone();
    other_seed.seed += 1;
    assert_ne!(run(&spec), run(&other_seed), "seed had no effect");
}

#[test]
fn registered_experiments_are_deterministic_under_a_fixed_seed() {
    // Same context => byte-identical JSON report, including across
    // internal parallel sweeps (input-ordered outputs).
    let ctx = RunContext {
        seed: 7,
        quick: true,
        ..RunContext::default()
    };
    for name in ["prop1", "cross"] {
        let a = experiments::find(name).expect("registered").run(&ctx);
        let b = experiments::find(name).expect("registered").run(&ctx);
        assert_eq!(a.to_json(), b.to_json(), "{name} is nondeterministic");
    }
}

#[test]
fn reports_round_trip_and_carry_content() {
    let ctx = RunContext {
        quick: true,
        ..RunContext::default()
    };
    let report = experiments::find("prop1").expect("registered").run(&ctx);
    assert!(report.passed(), "prop1 must pass");
    assert!(
        report
            .items
            .iter()
            .any(|item| matches!(item, ReportItem::Table(_))),
        "prop1 report should contain a table"
    );
    let back = RunReport::from_json(&report.to_json()).expect("valid JSON");
    assert_eq!(report, back);
}

#[test]
fn sweep_preserves_input_order_and_seeds() {
    let spec = SweepSpec {
        runs: vec![
            ExperimentRequest {
                seed: Some(0),
                ..ExperimentRequest::quick("prop1")
            },
            ExperimentRequest {
                seed: Some(1),
                ..ExperimentRequest::quick("cross")
            },
            ExperimentRequest {
                seed: Some(2),
                ..ExperimentRequest::quick("prop1")
            },
        ],
    };
    let reports = experiments::sweep(&spec, 3).expect("sweep runs");
    assert_eq!(reports.len(), 3);
    assert_eq!(reports[0].experiment, "prop1");
    assert_eq!(reports[1].experiment, "cross");
    assert_eq!(reports[2].experiment, "prop1");
    assert!(reports.iter().all(RunReport::passed));
    // Parallel and serial sweeps agree exactly.
    let serial = experiments::sweep(&spec, 1).expect("serial sweep runs");
    let to_json = |rs: &[RunReport]| serde_json::to_string(&rs.to_vec()).unwrap();
    assert_eq!(to_json(&reports), to_json(&serial));
}

#[test]
fn sweep_specs_can_set_ensemble_replicas() {
    // A spec file can size the ensemble experiment's flagship fleet;
    // the field is optional and round-trips through JSON.
    let text = r#"{"runs": [{"experiment": "ensemble", "quick": true, "seed": 7,
                             "replicas": 3}]}"#;
    let spec: SweepSpec = serde_json::from_str(text).expect("spec parses");
    assert_eq!(spec.runs[0].replicas, Some(3));
    let back: SweepSpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
    assert_eq!(spec, back);
    let bare: SweepSpec =
        serde_json::from_str(r#"{"runs": [{"experiment": "ensemble"}]}"#).expect("spec parses");
    assert_eq!(bare.runs[0].replicas, None);

    // The pinned count reaches the experiment's flagship run.
    let reports = experiments::sweep(&spec, 1).expect("sweep runs");
    assert_eq!(reports.len(), 1);
    assert!(reports[0].passed(), "sized ensemble run must pass");
    assert!(
        reports[0]
            .params
            .iter()
            .any(|(k, v)| k == "flagship_replicas" && v == "3"),
        "flagship fleet is sized by the spec"
    );
}

#[test]
fn sweep_specs_can_name_schedulers() {
    // A spec file can pin a SchedulerKind by variant name; the field is
    // optional (missing => all kinds) and round-trips through JSON.
    let text = r#"{"runs": [{"experiment": "schedulers", "quick": true,
                             "scheduler": "MinGain"}]}"#;
    let spec: SweepSpec = serde_json::from_str(text).expect("spec parses");
    assert_eq!(
        spec.runs[0].scheduler,
        Some(gameofcoins::learning::SchedulerKind::MinGain)
    );
    let back: SweepSpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
    assert_eq!(spec, back);

    // Missing field deserializes as "all kinds".
    let bare: SweepSpec =
        serde_json::from_str(r#"{"runs": [{"experiment": "prop1"}]}"#).expect("spec parses");
    assert_eq!(bare.runs[0].scheduler, None);

    // The pinned kind reaches the experiment: its report sweeps exactly
    // one scheduler.
    let reports = experiments::sweep(&spec, 1).expect("sweep runs");
    assert_eq!(reports.len(), 1);
    assert!(reports[0].passed(), "pinned schedulers run must pass");
    let json = reports[0].to_json();
    assert!(json.contains("min-gain"), "report names the pinned kind");
    assert!(
        !json.contains("max-gain"),
        "other kinds must not be swept when one is pinned"
    );
}

#[test]
fn cohort_spec_snapshots_like_its_individual_miner_equivalent() {
    // A cohort population and the hand-written Explicit population it
    // abbreviates must produce the *same* static game snapshot — system,
    // rewards, and initial configuration — and do so deterministically
    // per seed, even though the cohort simulation aggregates each class
    // into a single agent.
    let chains = vec![
        ChainSpec::simple(
            "major",
            ChainFlavor::BchLike,
            4_000_000,
            PriceSpec::Constant { value: 3.0 },
        ),
        ChainSpec::simple(
            "minor",
            ChainFlavor::BchLike,
            4_000_000,
            PriceSpec::Constant { value: 1.0 },
        ),
    ];
    let classes = [(2_000.0, 3.0, 0.02, 0usize), (250.0, 6.0, 0.05, 1usize)];
    let cohorts: Vec<CohortSpec> = classes
        .iter()
        .enumerate()
        .map(|(i, &(hashrate, eval_hours, inertia, coin))| CohortSpec {
            name: format!("class{i}"),
            count: 60,
            hashrate,
            coin,
            eval_hours,
            inertia,
            cost_per_hash: 0.0,
        })
        .collect();
    let individuals: Vec<MinerAgent> = cohorts
        .iter()
        .flat_map(|c| {
            (0..c.count).map(|_| MinerAgent {
                hashrate: c.hashrate,
                coin: c.coin,
                eval_interval: c.eval_hours * 3600.0,
                inertia: c.inertia,
                cost_per_hash: c.cost_per_hash,
                active: true,
            })
        })
        .collect();
    let base = ScenarioSpec {
        name: "cohorts".into(),
        horizon_days: 5.0,
        snapshot_hours: 6.0,
        seed: 31,
        oracle: OracleKind::Hashrate,
        chains,
        miners: MinerSpec::Cohorts(cohorts),
        assignment: Assignment::Explicit,
        shocks: Vec::new(),
        whale: None,
        churn: None,
    };
    let by_hand = ScenarioSpec {
        name: "individuals".into(),
        miners: MinerSpec::Explicit(individuals),
        ..base.clone()
    };

    let (game_a, config_a) = base.game().expect("cohort spec snapshots");
    let (game_b, config_b) = by_hand.game().expect("individual spec snapshots");
    assert_eq!(game_a.system(), game_b.system());
    assert_eq!(game_a.rewards(), game_b.rewards());
    assert_eq!(config_a, config_b);
    assert_eq!(game_a.system().num_miners(), 120);

    // Determinism per seed: repeated snapshots are identical, and the
    // aggregated *simulation* still runs (with one agent per cohort).
    let (game_c, config_c) = base.game().expect("snapshots again");
    assert_eq!(game_a.system(), game_c.system());
    assert_eq!(config_a, config_c);
    let mut sim = base.build().expect("builds aggregated");
    assert_eq!(sim.agents().len(), 2);
    assert!(!sim.run().is_empty());
}

#[test]
fn attack_preset_feeds_the_design_pipeline() {
    // Spec -> static game -> two equilibria -> Algorithm 2: the full
    // declarative path from a market description to a designed outcome.
    use gameofcoins::design::{design, DesignOptions, DesignProblem};
    use gameofcoins::game::equilibrium;
    use gameofcoins::learning::SchedulerKind;

    let (game, _initial) = ScenarioSpec::attack().game().expect("snapshots");
    let (s0, sf) = equilibrium::two_equilibria(&game).expect("two equilibria");
    let problem = DesignProblem::new(game.clone(), s0, sf.clone()).expect("valid problem");
    let mut sched = SchedulerKind::RoundRobin.build(0);
    let outcome = design(&problem, sched.as_mut(), DesignOptions::default()).expect("designs");
    assert_eq!(outcome.final_config, sf);
    assert!(game.is_stable(&outcome.final_config));
}
