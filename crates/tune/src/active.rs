//! The active-learning loop — the paper's headline workflow as a tested
//! API instead of an example: *measure a tiny sample, fit the hybrid,
//! let the model propose what to measure next, refit, repeat.*
//!
//! Each round: fit a hybrid (the workload's own analytical model stacked
//! under extra trees, per its [`lam_core::hybrid::HybridConfig`]) on
//! everything measured so far, model-score the unmeasured remainder of
//! the space through the batched executor, measure the top proposals with
//! the oracle, and append them to the training set. The loop stops when
//! the evaluation budget (which *includes* the initial sample) is spent,
//! and the final report ranks the whole space under the last refit.

use crate::oracle::BudgetedOracle;
use crate::report::TuneReport;
use crate::strategy::TuneRequest;
use crate::TuneError;
use lam_core::batch::DEFAULT_MICRO_BATCH;
use lam_core::catalog::DynWorkload;
use lam_core::hybrid::HybridModel;
use lam_ml::forest::ExtraTreesRegressor;
use lam_ml::model::Regressor;
use lam_ml::rng::{splitmix64, Xoshiro256};
use lam_ml::tree::TreeParams;
use std::collections::BTreeMap;

/// Options of one active-learning run.
#[derive(Debug, Clone, Copy)]
pub struct ActiveLearnOptions {
    /// Total oracle evaluations, initial sample included.
    pub budget: usize,
    /// Initial measured sample, as a fraction of the space (the paper's
    /// protocol trains on ~3%).
    pub initial_fraction: f64,
    /// Configurations proposed (and measured) per refit round.
    pub proposals_per_round: usize,
    /// Ranked configurations in the final report.
    pub top_k: usize,
    /// Seed; the run is a pure function of (workload, options).
    pub seed: u64,
    /// Trees in the stacked extra-trees regressor.
    pub n_trees: usize,
}

impl Default for ActiveLearnOptions {
    fn default() -> Self {
        Self {
            budget: 32,
            initial_fraction: 0.03,
            proposals_per_round: 8,
            top_k: 5,
            seed: 0,
            n_trees: 30,
        }
    }
}

/// Strategy name under which active-learning reports label themselves.
pub const ACTIVE_STRATEGY: &str = "active";

/// Fit the workload's hybrid on the oracle's measurements so far.
fn fit_hybrid(
    workload: &dyn DynWorkload,
    rows: &[Vec<f64>],
    oracle: &BudgetedOracle<'_>,
    seed: u64,
    n_trees: usize,
) -> Result<HybridModel, TuneError> {
    let measured_rows: Vec<Vec<f64>> = oracle
        .measurements()
        .keys()
        .map(|&i| rows[i].clone())
        .collect();
    let ys: Vec<f64> = oracle.measurements().values().copied().collect();
    let data = lam_data::Dataset::from_rows(workload.feature_names(), &measured_rows, ys)
        .map_err(|e| TuneError::InvalidRequest(format!("measured sample not fittable: {e}")))?;
    let mut hybrid = HybridModel::new(
        workload.analytical_model(),
        Box::new(ExtraTreesRegressor::with_params(
            n_trees,
            TreeParams::default(),
            seed,
        )),
        workload.hybrid_config(),
    );
    hybrid.fit(&data).map_err(TuneError::Fit)?;
    Ok(hybrid)
}

/// Run the active-learning loop against `workload`.
pub fn active_learn(
    workload: &dyn DynWorkload,
    options: &ActiveLearnOptions,
) -> Result<TuneReport, TuneError> {
    if workload.space_size() == 0 {
        return Err(TuneError::EmptySpace(workload.name().to_string()));
    }
    if options.budget == 0 || options.proposals_per_round == 0 || options.top_k == 0 {
        return Err(TuneError::InvalidRequest(
            "budget, proposals_per_round, and top_k must all be >= 1".into(),
        ));
    }
    if !(0.0..=1.0).contains(&options.initial_fraction) {
        return Err(TuneError::InvalidRequest(format!(
            "initial_fraction {} outside [0, 1]",
            options.initial_fraction
        )));
    }
    let rows = workload.feature_rows();
    let n = rows.len();
    let mut oracle = BudgetedOracle::new(workload, options.budget.min(n));

    // Round 0: the seeded initial sample (at least one measurement, never
    // more than the budget).
    let n_init =
        ((n as f64 * options.initial_fraction).round() as usize).clamp(1, options.budget.min(n));
    let mut rng = Xoshiro256::seeded(options.seed);
    for index in rng.sample_indices(n, n_init) {
        oracle.measure(index);
    }

    // Refit → propose → measure, until the budget is gone.
    let mut round: u64 = 0;
    let model = loop {
        // One independent, reproducible fit seed per round.
        let mut seed_state = options.seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let fit_seed = splitmix64(&mut seed_state);
        let hybrid = fit_hybrid(workload, &rows, &oracle, fit_seed, options.n_trees)?;
        if oracle.remaining() == 0 {
            break hybrid;
        }
        let unmeasured: Vec<usize> = (0..n).filter(|&i| oracle.measured(i).is_none()).collect();
        if unmeasured.is_empty() {
            break hybrid;
        }
        let unmeasured_rows: Vec<Vec<f64>> = unmeasured.iter().map(|&i| rows[i].clone()).collect();
        let preds = crate::strategy::score_rows(&hybrid, &unmeasured_rows, DEFAULT_MICRO_BATCH);
        let mut order: Vec<usize> = (0..unmeasured.len()).collect();
        order.sort_by(|&a, &b| preds[a].total_cmp(&preds[b]).then(a.cmp(&b)));
        for &pos in order.iter().take(options.proposals_per_round) {
            if oracle.measure(unmeasured[pos]).is_none() {
                break;
            }
        }
        round += 1;
    };

    // Final ranking of the whole space under the last refit; the report
    // assembly (measured-first ordering, tie-breaks) is the same code
    // path every fixed-model strategy uses.
    let predictions = crate::strategy::score_rows(&model, &rows, DEFAULT_MICRO_BATCH);
    let scored: BTreeMap<usize, f64> = predictions.iter().copied().enumerate().collect();
    crate::strategy::finalize(
        workload,
        ACTIVE_STRATEGY,
        &TuneRequest {
            budget: options.budget,
            top_k: options.top_k,
            seed: options.seed,
        },
        &rows,
        &scored,
        oracle,
    )
}
