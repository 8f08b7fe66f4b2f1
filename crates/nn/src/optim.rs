//! The Adam optimizer.

use stone_tensor::Tensor;

/// Exponential decay of the first-moment estimate.
const BETA1: f32 = 0.9;
/// Exponential decay of the second-moment estimate.
const BETA2: f32 = 0.999;
/// Denominator guard of the update.
const EPS: f32 = 1e-8;
/// L2 penalty added to each gradient.
const WEIGHT_DECAY: f32 = 0.0;

fn check_shapes(params: &[&mut Tensor], grads: &[Tensor]) {
    assert_eq!(params.len(), grads.len(), "optimizer param/grad count mismatch");
    for (p, g) in params.iter().zip(grads) {
        assert_eq!(p.shape(), g.shape(), "optimizer param/grad shape mismatch");
    }
}

/// Adam optimizer (Kingma & Ba) with betas (0.9, 0.999), updating
/// parameters in place from gradients.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive `lr`.
    #[must_use]
    pub fn with_lr(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Applies one update step.
    ///
    /// The flattened parameter and gradient lists must keep a stable order
    /// across steps (as produced by [`crate::Sequential::params_mut`] and
    /// a flattened [`crate::BackwardResult::param_grads`]); per-parameter
    /// state is keyed by position.
    ///
    /// # Panics
    ///
    /// Panics when `params` and `grads` disagree in length or shapes, or
    /// when the parameter list changes shape between steps.
    pub fn step(&mut self, params: &mut [&mut Tensor], grads: &[Tensor]) {
        check_shapes(params, grads);
        if self.m.is_empty() {
            self.m = grads.iter().map(|g| Tensor::zeros(g.shape().to_vec())).collect();
            self.v = grads.iter().map(|g| Tensor::zeros(g.shape().to_vec())).collect();
        }
        assert_eq!(self.m.len(), params.len(), "optimizer state size changed");
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        for (((p, g), m), v) in params.iter_mut().zip(grads).zip(&mut self.m).zip(&mut self.v) {
            for (((pv, &gv), mv), vv) in p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.as_mut_slice())
                .zip(v.as_mut_slice())
            {
                let grad = gv + WEIGHT_DECAY * *pv;
                *mv = BETA1 * *mv + (1.0 - BETA1) * grad;
                *vv = BETA2 * *vv + (1.0 - BETA2) * grad * grad;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                *pv -= self.lr * mhat / (vhat.sqrt() + EPS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_descend(opt: &mut Adam, steps: usize) -> f32 {
        // Minimize f(w) = (w - 3)² starting from w = 0.
        let mut w = Tensor::from_slice(&[0.0]);
        for _ in 0..steps {
            let grad = Tensor::from_slice(&[2.0 * (w.as_slice()[0] - 3.0)]);
            opt.step(&mut [&mut w], std::slice::from_ref(&grad));
        }
        w.as_slice()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::with_lr(0.3);
        let w = quadratic_descend(&mut opt, 300);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn step_rejects_mismatched_lists() {
        let mut opt = Adam::with_lr(0.1);
        let mut w = Tensor::from_slice(&[1.0]);
        opt.step(&mut [&mut w], &[]);
    }
}
