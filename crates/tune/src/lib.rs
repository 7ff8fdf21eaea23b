//! # lam-tune
//!
//! Model-guided autotuning over any catalog workload — the workflow the
//! paper's hybrid models exist for, promoted from ad-hoc example code to
//! a first-class subsystem. Everything runs over the object-safe
//! [`lam_core::catalog::DynWorkload`] surface and scores models through
//! their own batch entry point ([`lam_core::predict::PredictRow`]), so a
//! scenario registered at runtime is tunable exactly like a built-in.
//!
//! Three layers:
//!
//! * [`oracle::BudgetedOracle`] — measurement-budget accounting: every
//!   oracle evaluation is counted, memoized, and recorded into the
//!   incumbent trajectory that regret-vs-budget curves are plotted from;
//! * [`strategy`] — the [`strategy::Tuner`] trait and four deterministic,
//!   seeded strategies (`exhaustive`, `random`, `local`, `halving`);
//! * [`active`] — the active-learning loop: fit the hybrid on a tiny
//!   measured sample, let it propose the next measurements, refit, repeat
//!   under an explicit evaluation budget.
//!
//! ## Quick example
//!
//! ```no_run
//! use lam_core::catalog::WorkloadCatalog;
//! use lam_tune::{active_learn, ActiveLearnOptions};
//!
//! let entry = WorkloadCatalog::global().resolve("stencil-grid").unwrap();
//! let report = active_learn(
//!     entry.workload(),
//!     &ActiveLearnOptions {
//!         budget: 36, // ≈ 5% of the 729-config space
//!         ..ActiveLearnOptions::default()
//!     },
//! )
//! .unwrap();
//! println!(
//!     "best config #{} at {:.3} ms after {} measurements",
//!     report.best.index,
//!     report.best.oracle.unwrap() * 1e3,
//!     report.evaluations
//! );
//! ```

pub mod active;
pub mod lattice;
pub mod oracle;
pub mod report;
pub mod strategy;

pub use active::{active_learn, ActiveLearnOptions, ACTIVE_STRATEGY};
pub use lattice::ParamLattice;
pub use oracle::BudgetedOracle;
pub use report::{RankedConfig, TrajectoryPoint, TuneReport};
pub use strategy::{
    all_strategies, by_name, ExhaustiveRank, LocalSearch, RandomSearch, SuccessiveHalving,
    TuneRequest, Tuner, STRATEGY_NAMES,
};

use std::fmt;

/// Errors produced across the tuning subsystem.
#[derive(Debug)]
pub enum TuneError {
    /// The workload's configuration space is empty.
    EmptySpace(String),
    /// A request parameter is out of range.
    InvalidRequest(String),
    /// A strategy finished without a single oracle measurement (defensive:
    /// unreachable for a validated request).
    NoMeasurements,
    /// Refitting the model inside the active-learning loop failed.
    Fit(lam_ml::model::FitError),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::EmptySpace(w) => {
                write!(f, "workload `{w}` has an empty configuration space")
            }
            TuneError::InvalidRequest(m) => write!(f, "invalid tune request: {m}"),
            TuneError::NoMeasurements => write!(f, "tuning finished without any measurement"),
            TuneError::Fit(e) => write!(f, "model refit failed: {e}"),
        }
    }
}

impl std::error::Error for TuneError {}
