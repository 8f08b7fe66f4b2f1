//! Reductions and row-wise transforms.

use crate::Tensor;

/// Sums a rank-2 tensor over its rows, producing one value per column.
///
/// This is the reduction used for bias gradients over a batch.
///
/// # Panics
///
/// Panics when `t` is not rank 2.
#[must_use]
pub fn sum_axis0(t: &Tensor) -> Tensor {
    let (m, n) = (t.rows(), t.cols());
    let mut out = Tensor::zeros(vec![n]);
    let o = out.as_mut_slice();
    for i in 0..m {
        for (ov, &v) in o.iter_mut().zip(t.row(i)) {
            *ov += v;
        }
    }
    out
}

/// Index of the maximum element of a slice (first occurrence on ties).
///
/// # Panics
///
/// Panics when `xs` is empty.
#[must_use]
pub fn argmax(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

/// Row-wise numerically-stable softmax of a rank-2 tensor.
///
/// # Panics
///
/// Panics when `t` is not rank 2.
#[must_use]
pub fn softmax_rows(t: &Tensor) -> Tensor {
    let (m, n) = (t.rows(), t.cols());
    let mut out = Tensor::zeros(vec![m, n]);
    for i in 0..m {
        let row = t.row(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let orow = out.row_mut(i);
        let mut sum = 0.0;
        for (o, &v) in orow.iter_mut().zip(row) {
            *o = (v - max).exp();
            sum += *o;
        }
        for o in orow.iter_mut() {
            *o /= sum;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_axis0_per_column() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 10., 20., 30.]).unwrap();
        assert_eq!(sum_axis0(&t).as_slice(), &[11., 22., 33.]);
    }

    #[test]
    fn argmax_first_tie() {
        assert_eq!(argmax(&[1., 5., 5., 2.]), 1);
        assert_eq!(argmax(&[3.]), 0);
        assert_eq!(argmax(&[-2., -1., -5.]), 1);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 1000., 1000., 1000.]).unwrap();
        let s = softmax_rows(&t);
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Larger logits get larger probabilities.
        assert!(s.at2(0, 2) > s.at2(0, 1) && s.at2(0, 1) > s.at2(0, 0));
        // Stable under large values (no NaN).
        assert!(s.row(1).iter().all(|v| v.is_finite()));
    }
}
