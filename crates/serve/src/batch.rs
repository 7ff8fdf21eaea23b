//! Serving-side batched inference: request-row validation in front of the
//! cache, executor and scheduler of [`lam_core::batch`].
//!
//! [`validate_rows`] is the input firewall that turns malformed client
//! rows into typed [`ServeError`]s before any model dispatch.

use crate::ServeError;

/// Validate request rows before any model dispatch: every row must carry
/// exactly `expected` features and every value must be finite.
///
/// This is the serving path's input firewall. A NaN or infinity that
/// slipped through would be cached under its bit pattern and then panic
/// the first non-total comparison downstream (k-NN's distance
/// `partial_cmp`, metric sorts), killing the handler thread — so reject
/// with a client error instead.
pub fn validate_rows(expected: usize, rows: &[Vec<f64>]) -> Result<(), ServeError> {
    for (i, row) in rows.iter().enumerate() {
        if row.len() != expected {
            return Err(ServeError::FeatureCount {
                expected,
                actual: row.len(),
                row: i,
            });
        }
        if let Some(col) = row.iter().position(|v| !v.is_finite()) {
            return Err(ServeError::NonFiniteFeature { row: i, col });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lam_core::batch::BatchEngine;
    use lam_core::predict::PredictRow;

    #[test]
    fn validate_rows_rejects_bad_input() {
        use crate::ServeError;
        assert!(validate_rows(2, &[vec![1.0, 2.0], vec![3.0, 4.0]]).is_ok());
        assert!(validate_rows(0, &[]).is_ok());
        assert!(matches!(
            validate_rows(2, &[vec![1.0]]),
            Err(ServeError::FeatureCount {
                expected: 2,
                actual: 1,
                row: 0
            })
        ));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                validate_rows(2, &[vec![1.0, 2.0], vec![1.0, bad]]),
                Err(ServeError::NonFiniteFeature { row: 1, col: 1 })
            ));
        }
    }

    #[test]
    fn reexported_engine_serves_validated_rows() {
        struct Toy;
        impl PredictRow for Toy {
            fn predict_row(&self, x: &[f64]) -> f64 {
                x[0] + 1.0
            }
        }
        let rows = vec![vec![1.0], vec![2.0]];
        validate_rows(1, &rows).unwrap();
        let engine = BatchEngine::default();
        let out = engine.predict(&Toy, &rows);
        assert_eq!(out.predictions, vec![2.0, 3.0]);
    }
}
