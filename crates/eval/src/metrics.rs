//! Localization-error metrics.

use stone_radio::Point2;

/// Mean Euclidean error between predictions and ground truth, in meters.
///
/// # Panics
///
/// Panics when the slices differ in length or are empty.
#[must_use]
pub fn mean_error_m(preds: &[Point2], truths: &[Point2]) -> f64 {
    assert_eq!(preds.len(), truths.len(), "prediction/truth count mismatch");
    assert!(!preds.is_empty(), "error over empty set is undefined");
    preds.iter().zip(truths).map(|(p, t)| p.distance(*t)).sum::<f64>() / preds.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(xs: &[f64]) -> Vec<Point2> {
        xs.iter().map(|&x| Point2::new(x, 0.0)).collect()
    }

    #[test]
    fn mean_error_basic() {
        let preds = pts(&[0.0, 1.0, 2.0]);
        let truths = pts(&[0.0, 0.0, 0.0]);
        assert_eq!(mean_error_m(&preds, &truths), 1.0);
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_errors_panic() {
        let _ = mean_error_m(&[], &[]);
    }
}
