//! # goc-analysis — experiment analysis toolkit
//!
//! Statistics, welfare/security metrics, ASCII tables and charts — and
//! the **parallel ensemble engine** ([`ensemble`]): Monte-Carlo replica
//! execution over a work-stealing executor with deterministic
//! per-replica RNG streams (the same executor backs [`parallel_map`],
//! the experiments' parameter-sweep runner), streaming
//! aggregators (Welford moments, percentile sketches), and an
//! equilibrium fingerprint index mapping the distribution of reached
//! equilibria.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chart;
pub mod ensemble;
pub mod report;
pub mod stats;
pub mod table;
pub mod welfare;

pub use chart::{ascii_chart, Series};
pub use ensemble::executor::{default_threads, parallel_map};
pub use ensemble::{EnsembleReport, EnsembleSpec};
pub use report::{Artifact, ChartData, Check, ReportItem, RunReport, SeriesData, TableData};
pub use stats::{gini, Histogram, LatencyStats, LatencySummary, Summary};
pub use table::{fmt_f64, Table};
pub use welfare::{dominance_of, max_dominance, payoffs_f64, welfare_efficiency};
