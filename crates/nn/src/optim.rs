//! First-order optimizers.

use stone_tensor::Tensor;

/// A first-order optimizer updating parameters in place from gradients.
///
/// The flattened parameter and gradient lists must keep a stable order
/// across steps (as produced by [`crate::Sequential::params_mut`] and
/// a flattened [`crate::BackwardResult::param_grads`]); per-parameter state
/// is keyed by position.
pub trait Optimizer {
    /// Applies one update step.
    ///
    /// # Panics
    ///
    /// Implementations panic when `params` and `grads` disagree in length or
    /// shapes, or when the parameter list changes shape between steps.
    fn step(&mut self, params: &mut [&mut Tensor], grads: &[Tensor]);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

fn check_shapes(params: &[&mut Tensor], grads: &[Tensor]) {
    assert_eq!(params.len(), grads.len(), "optimizer param/grad count mismatch");
    for (p, g) in params.iter().zip(grads) {
        assert_eq!(p.shape(), g.shape(), "optimizer param/grad shape mismatch");
    }
}

/// Adam optimizer (Kingma & Ba) with decoupled-style weight decay applied to
/// the gradient.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with explicit hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `lr`/`eps` or betas outside `[0, 1)`.
    #[must_use]
    pub fn new(lr: f32, beta1: f32, beta2: f32, eps: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0, 1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0, 1)");
        assert!(eps > 0.0, "eps must be positive");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Self { lr, beta1, beta2, eps, weight_decay, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Adam with standard betas (0.9, 0.999) and the given learning rate.
    #[must_use]
    pub fn with_lr(lr: f32) -> Self {
        Self::new(lr, 0.9, 0.999, 1e-8, 0.0)
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Tensor], grads: &[Tensor]) {
        check_shapes(params, grads);
        if self.m.is_empty() {
            self.m = grads.iter().map(|g| Tensor::zeros(g.shape().to_vec())).collect();
            self.v = grads.iter().map(|g| Tensor::zeros(g.shape().to_vec())).collect();
        }
        assert_eq!(self.m.len(), params.len(), "optimizer state size changed");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (((p, g), m), v) in params.iter_mut().zip(grads).zip(&mut self.m).zip(&mut self.v) {
            for (((pv, &gv), mv), vv) in p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.as_mut_slice())
                .zip(v.as_mut_slice())
            {
                let grad = gv + self.weight_decay * *pv;
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * grad;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * grad * grad;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                *pv -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_descend(opt: &mut dyn Optimizer, steps: usize) -> f32 {
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
    fn learning_rate_accessors() {
        let mut opt = Adam::with_lr(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn step_rejects_mismatched_lists() {
        let mut opt = Adam::with_lr(0.1);
        let mut w = Tensor::from_slice(&[1.0]);
        opt.step(&mut [&mut w], &[]);
    }
}
