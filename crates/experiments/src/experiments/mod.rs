//! The registered experiments, one module per paper artifact.
//!
//! Each module exposes a unit struct implementing
//! [`crate::Experiment`] that builds a structured
//! [`goc_analysis::RunReport`]; `goc run <name>` drives it.

pub mod ablation;
pub mod alg2;
pub mod appendix_a;
pub mod appendix_b;
pub mod asym;
pub mod attack;
pub mod churn;
pub mod cross;
pub mod ensemble;
pub mod fig1;
pub mod poa;
pub mod prop1;
pub mod prop2;
pub mod scale;
pub mod schedulers;
pub mod serve;
pub mod speed;
pub mod sync;
pub mod thm1;
