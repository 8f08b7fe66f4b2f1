//! Loss functions and their gradients.

use stone_tensor::{softmax_rows, Tensor};

/// Gradients of the triplet loss with respect to the three embedding
/// batches.
#[derive(Debug, Clone)]
pub struct TripletGrads {
    /// Gradient with respect to the anchor embeddings.
    pub anchor: Tensor,
    /// Gradient with respect to the positive embeddings.
    pub positive: Tensor,
    /// Gradient with respect to the negative embeddings.
    pub negative: Tensor,
}

/// Batch statistics reported alongside the triplet loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripletStats {
    /// Mean loss over the batch.
    pub loss: f32,
    /// Fraction of triplets violating the margin (i.e. contributing
    /// gradient). FaceNet calls these "active" triplets.
    pub active_fraction: f32,
    /// Mean anchor-positive squared distance.
    pub mean_pos_dist: f32,
    /// Mean anchor-negative squared distance.
    pub mean_neg_dist: f32,
}

/// FaceNet-style triplet loss (Eq. 2 of the STONE paper):
///
/// `L = mean_i max(0, ||f(a_i) - f(p_i)||² - ||f(a_i) - f(n_i)||² + margin)`.
///
/// # Example
///
/// ```
/// use stone_nn::TripletLoss;
/// use stone_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1, 2], vec![1.0, 0.0])?;
/// let p = Tensor::from_vec(vec![1, 2], vec![1.0, 0.0])?;
/// let n = Tensor::from_vec(vec![1, 2], vec![0.0, 1.0])?;
/// let (stats, _) = TripletLoss::new(0.2).loss(&a, &p, &n);
/// assert_eq!(stats.loss, 0.0); // perfectly separated triplet
/// # Ok::<(), stone_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TripletLoss {
    margin: f32,
}

impl TripletLoss {
    /// Creates a triplet loss with the given margin `α`.
    ///
    /// # Panics
    ///
    /// Panics when `margin` is negative.
    #[must_use]
    pub fn new(margin: f32) -> Self {
        assert!(margin >= 0.0, "triplet margin must be non-negative, got {margin}");
        Self { margin }
    }

    /// The margin `α`.
    #[must_use]
    pub fn margin(&self) -> f32 {
        self.margin
    }

    /// Computes the mean triplet loss and the gradients for the three
    /// embedding batches, each of shape `[batch, d]`.
    ///
    /// # Panics
    ///
    /// Panics when the three batches do not share the same shape.
    pub fn loss(
        &self,
        anchor: &Tensor,
        positive: &Tensor,
        negative: &Tensor,
    ) -> (TripletStats, TripletGrads) {
        assert_eq!(anchor.shape(), positive.shape(), "anchor/positive shape mismatch");
        assert_eq!(anchor.shape(), negative.shape(), "anchor/negative shape mismatch");
        let (b, d) = (anchor.rows(), anchor.cols());
        let inv_b = 1.0 / b as f32;

        let mut ga = Tensor::zeros(vec![b, d]);
        let mut gp = Tensor::zeros(vec![b, d]);
        let mut gn = Tensor::zeros(vec![b, d]);
        let mut total = 0.0;
        let mut active = 0usize;
        let mut pos_sum = 0.0;
        let mut neg_sum = 0.0;

        for i in 0..b {
            let (ar, pr, nr) = (anchor.row(i), positive.row(i), negative.row(i));
            let dpos: f32 = ar.iter().zip(pr).map(|(&x, &y)| (x - y) * (x - y)).sum();
            let dneg: f32 = ar.iter().zip(nr).map(|(&x, &y)| (x - y) * (x - y)).sum();
            pos_sum += dpos;
            neg_sum += dneg;
            let violation = dpos - dneg + self.margin;
            if violation > 0.0 {
                active += 1;
                total += violation;
                // dL/da = 2(n - p), dL/dp = 2(p - a), dL/dn = 2(a - n).
                let s = 2.0 * inv_b;
                for j in 0..d {
                    ga.row_mut(i)[j] = s * (nr[j] - pr[j]);
                    gp.row_mut(i)[j] = s * (pr[j] - ar[j]);
                    gn.row_mut(i)[j] = s * (ar[j] - nr[j]);
                }
            }
        }

        let stats = TripletStats {
            loss: total * inv_b,
            active_fraction: active as f32 * inv_b,
            mean_pos_dist: pos_sum * inv_b,
            mean_neg_dist: neg_sum * inv_b,
        };
        (stats, TripletGrads { anchor: ga, positive: gp, negative: gn })
    }
}

/// Contrastive (pairwise) loss as used by DeepFace-style Siamese encoders:
/// similar pairs (`label = true`) are pulled together with `d²`, dissimilar
/// pairs pushed apart with `max(0, margin - d)²`.
#[derive(Debug, Clone, Copy)]
pub struct ContrastiveLoss {
    margin: f32,
}

impl ContrastiveLoss {
    /// Creates a contrastive loss with the given margin.
    ///
    /// # Panics
    ///
    /// Panics when `margin` is negative.
    #[must_use]
    pub fn new(margin: f32) -> Self {
        assert!(margin >= 0.0, "contrastive margin must be non-negative, got {margin}");
        Self { margin }
    }

    /// Computes the mean loss and gradients for two `[batch, d]` embedding
    /// batches plus per-pair similarity labels.
    ///
    /// # Panics
    ///
    /// Panics when shapes or label counts disagree.
    pub fn loss(&self, left: &Tensor, right: &Tensor, same: &[bool]) -> (f32, Tensor, Tensor) {
        assert_eq!(left.shape(), right.shape(), "pair shape mismatch");
        assert_eq!(left.rows(), same.len(), "label count mismatch");
        let (b, d) = (left.rows(), left.cols());
        let inv_b = 1.0 / b as f32;
        let mut gl = Tensor::zeros(vec![b, d]);
        let mut gr = Tensor::zeros(vec![b, d]);
        let mut total = 0.0;
        for (i, &is_same) in same.iter().enumerate() {
            let (lr, rr) = (left.row(i), right.row(i));
            let dist: f32 = lr.iter().zip(rr).map(|(&x, &y)| (x - y) * (x - y)).sum::<f32>().sqrt();
            if is_same {
                total += dist * dist;
                for j in 0..d {
                    let diff = lr[j] - rr[j];
                    gl.row_mut(i)[j] = 2.0 * diff * inv_b;
                    gr.row_mut(i)[j] = -2.0 * diff * inv_b;
                }
            } else if dist < self.margin {
                let gap = self.margin - dist;
                total += gap * gap;
                let safe = dist.max(1e-8);
                for j in 0..d {
                    let diff = lr[j] - rr[j];
                    // d/dl (m - d)² = -2 (m - d) * diff / d
                    gl.row_mut(i)[j] = -2.0 * gap * diff / safe * inv_b;
                    gr.row_mut(i)[j] = 2.0 * gap * diff / safe * inv_b;
                }
            }
        }
        (total * inv_b, gl, gr)
    }
}

/// Softmax cross-entropy loss over integer class labels, fused with the
/// softmax for numerical stability.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossEntropyLoss {
    _priv: (),
}

impl CrossEntropyLoss {
    /// Creates a cross-entropy loss.
    #[must_use]
    pub fn new() -> Self {
        Self { _priv: () }
    }

    /// Computes mean negative log-likelihood of `labels` under
    /// `softmax(logits)` plus the gradient w.r.t. the logits.
    ///
    /// # Panics
    ///
    /// Panics when `labels.len() != logits.rows()` or any label is out of
    /// range.
    pub fn loss(&self, logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let (b, k) = (logits.rows(), logits.cols());
        assert_eq!(labels.len(), b, "label count mismatch");
        let probs = softmax_rows(logits);
        let inv_b = 1.0 / b as f32;
        let mut grad = probs.clone();
        let mut total = 0.0;
        for (i, &y) in labels.iter().enumerate() {
            assert!(y < k, "label {y} out of range for {k} classes");
            total -= probs.at2(i, y).max(1e-12).ln();
            let g = grad.row_mut(i);
            g[y] -= 1.0;
            for v in g.iter_mut() {
                *v *= inv_b;
            }
        }
        (total * inv_b, grad)
    }

    /// Classification accuracy of `logits` against `labels`.
    ///
    /// # Panics
    ///
    /// Panics when `labels.len() != logits.rows()`.
    #[must_use]
    pub fn accuracy(&self, logits: &Tensor, labels: &[usize]) -> f32 {
        let b = logits.rows();
        assert_eq!(labels.len(), b, "label count mismatch");
        let correct = (0..b).filter(|&i| stone_tensor::argmax(logits.row(i)) == labels[i]).count();
        correct as f32 / b as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplet_zero_when_separated() {
        let a = Tensor::from_vec(vec![1, 2], vec![1., 0.]).unwrap();
        let p = Tensor::from_vec(vec![1, 2], vec![0.9, 0.1]).unwrap();
        let n = Tensor::from_vec(vec![1, 2], vec![-1., 0.]).unwrap();
        let (stats, grads) = TripletLoss::new(0.2).loss(&a, &p, &n);
        assert_eq!(stats.loss, 0.0);
        assert_eq!(stats.active_fraction, 0.0);
        assert!(grads.anchor.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn triplet_active_when_violating() {
        let a = Tensor::from_vec(vec![1, 2], vec![0., 0.]).unwrap();
        let p = Tensor::from_vec(vec![1, 2], vec![1., 0.]).unwrap(); // dpos = 1
        let n = Tensor::from_vec(vec![1, 2], vec![0., 1.]).unwrap(); // dneg = 1
        let (stats, grads) = TripletLoss::new(0.5).loss(&a, &p, &n);
        assert!((stats.loss - 0.5).abs() < 1e-6);
        assert_eq!(stats.active_fraction, 1.0);
        // dL/da = 2(n - p) = 2*(-1, 1).
        assert_eq!(grads.anchor.as_slice(), &[-2., 2.]);
        assert_eq!(grads.positive.as_slice(), &[2., 0.]);
        assert_eq!(grads.negative.as_slice(), &[0., -2.]);
    }

    #[test]
    fn triplet_numerical_gradient() {
        // Central-difference check on a 2-triplet batch.
        let a = Tensor::from_vec(vec![2, 3], vec![0.1, 0.2, -0.3, 0.5, 0.0, 0.4]).unwrap();
        let p = Tensor::from_vec(vec![2, 3], vec![0.2, 0.1, -0.1, 0.4, 0.2, 0.6]).unwrap();
        let n = Tensor::from_vec(vec![2, 3], vec![0.0, 0.3, 0.2, 0.1, -0.2, 0.5]).unwrap();
        let loss_fn = TripletLoss::new(0.4);
        let (_, grads) = loss_fn.loss(&a, &p, &n);
        let eps = 1e-3;
        for idx in 0..a.len() {
            let mut ap = a.clone();
            ap.as_mut_slice()[idx] += eps;
            let mut am = a.clone();
            am.as_mut_slice()[idx] -= eps;
            let lp = loss_fn.loss(&ap, &p, &n).0.loss;
            let lm = loss_fn.loss(&am, &p, &n).0.loss;
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.anchor.as_slice()[idx];
            assert!((num - ana).abs() < 1e-2, "idx {idx}: {num} vs {ana}");
        }
    }

    #[test]
    fn contrastive_pulls_and_pushes() {
        let l = Tensor::from_vec(vec![2, 2], vec![0., 0., 0., 0.]).unwrap();
        let r = Tensor::from_vec(vec![2, 2], vec![1., 0., 1., 0.]).unwrap();
        // First pair same (penalized d²=1), second different with margin 2
        // (penalized (2-1)²=1).
        let (loss, gl, _) = ContrastiveLoss::new(2.0).loss(&l, &r, &[true, false]);
        assert!((loss - 1.0).abs() < 1e-6);
        // Same pair: descending the loss pulls left toward right at (1,0),
        // i.e. increases left-x, so the gradient is negative.
        assert!(gl.at2(0, 0) < 0.0);
        // Different pair: descending pushes left away from right, i.e.
        // decreases left-x, so the gradient is positive.
        assert!(gl.at2(1, 0) > 0.0);
    }

    #[test]
    fn cross_entropy_perfect_prediction() {
        let logits = Tensor::from_vec(vec![1, 3], vec![100., 0., 0.]).unwrap();
        let (loss, _) = CrossEntropyLoss::new().loss(&logits, &[0]);
        assert!(loss < 1e-6);
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        let logits = Tensor::zeros(vec![1, 4]);
        let (loss, grad) = CrossEntropyLoss::new().loss(&logits, &[2]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        // Gradient: probs - onehot = 0.25 everywhere except -0.75 at label.
        assert!((grad.at2(0, 2) + 0.75).abs() < 1e-5);
        assert!((grad.at2(0, 0) - 0.25).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_numerical_gradient() {
        let logits = Tensor::from_vec(vec![2, 3], vec![0.5, -0.2, 0.1, 0.0, 1.0, -1.0]).unwrap();
        let labels = [2usize, 0];
        let ce = CrossEntropyLoss::new();
        let (_, grad) = ce.loss(&logits, &labels);
        let eps = 1e-3;
        for idx in 0..logits.len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let num = (ce.loss(&lp, &labels).0 - ce.loss(&lm, &labels).0) / (2.0 * eps);
            let ana = grad.as_slice()[idx];
            assert!((num - ana).abs() < 1e-3, "idx {idx}: {num} vs {ana}");
        }
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Tensor::from_vec(vec![2, 2], vec![2., 1., 0., 3.]).unwrap();
        let acc = CrossEntropyLoss::new().accuracy(&logits, &[0, 1]);
        assert_eq!(acc, 1.0);
        let acc = CrossEntropyLoss::new().accuracy(&logits, &[1, 1]);
        assert_eq!(acc, 0.5);
    }
}
