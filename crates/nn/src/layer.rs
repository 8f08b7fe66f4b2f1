//! The [`Layer`] trait and its forward-pass [`Cache`].

use rand::rngs::StdRng;
use rand::SeedableRng;
use stone_tensor::Tensor;

/// Whether a forward pass is part of training or inference.
///
/// Stochastic layers ([`crate::Dropout`], [`crate::GaussianNoise`]) are
/// identity functions in [`Mode::Infer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Training pass: stochastic layers sample, caches are kept for backward.
    Train,
    /// Inference pass: deterministic; stochastic layers are identities.
    #[default]
    Infer,
}

/// Per-layer forward state consumed by the matching backward pass.
///
/// The contents are layer-specific; custom [`Layer`] implementations may
/// store whatever tensors and shape metadata they need.
#[derive(Debug, Clone, Default)]
pub struct Cache {
    /// Cached tensors (inputs, masks, normalized outputs, ...).
    pub tensors: Vec<Tensor>,
    /// Cached shape metadata (e.g. the pre-flatten shape).
    pub shape: Vec<usize>,
}

impl Cache {
    /// An empty cache for layers that need no backward state.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// A cache holding a single tensor.
    #[must_use]
    pub fn one(t: Tensor) -> Self {
        Self { tensors: vec![t], shape: Vec::new() }
    }
}

/// A differentiable network layer with explicit forward/backward passes.
///
/// Implementations must satisfy the contract that for any input `x` and
/// upstream gradient `g`, `backward(forward(x).1, g)` returns
/// `(∂L/∂x, [∂L/∂p for p in params()])` where `L` is any scalar with
/// `∂L/∂output = g`. The [`crate::gradcheck`] module verifies this
/// numerically for every layer in the crate.
///
/// `Send + Sync` are supertraits so a trained [`crate::Sequential`] can be
/// shared across threads behind an `Arc` — the serving layer keeps one
/// immutable model snapshot visible to every worker thread. Layers are plain
/// tensors and scalars, so the bound costs implementations nothing.
pub trait Layer: Send + Sync {
    /// Runs the layer on `x`, returning the output and the backward cache.
    ///
    /// `rng` is only consulted by stochastic layers in [`Mode::Train`].
    fn forward(&self, x: &Tensor, mode: Mode, rng: &mut StdRng) -> (Tensor, Cache);

    /// Inference pass that takes its input by value and keeps no backward
    /// state — what [`crate::Sequential::predict`] folds over the layers.
    ///
    /// Contract: the result is **bitwise** equal to
    /// `self.forward(&x, Mode::Infer, rng).0` for every input, thread
    /// count and matmul backend; an override may only skip work whose
    /// result `predict` drops (the cache, copies of the input). The
    /// default is exactly that forward pass. Overrides reuse the input's
    /// buffer where they can: identity layers return it, element-wise and
    /// shape layers rewrite it in place.
    fn infer(&self, x: Tensor) -> Tensor {
        // Inference never samples, so any seed serves.
        self.forward(&x, Mode::Infer, &mut StdRng::seed_from_u64(0)).0
    }

    /// Propagates `grad_out` backwards through the layer.
    ///
    /// Returns the gradient with respect to the layer input and the gradients
    /// with respect to each parameter, in the same order as [`Layer::params`].
    fn backward(&self, cache: &Cache, grad_out: &Tensor) -> (Tensor, Vec<Tensor>);

    /// Borrows the layer's trainable parameters (possibly empty).
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutably borrows the layer's trainable parameters (possibly empty).
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// A short human-readable layer name used in debug output.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_default_is_infer() {
        assert_eq!(Mode::default(), Mode::Infer);
    }

    #[test]
    fn cache_constructors() {
        assert!(Cache::empty().tensors.is_empty());
        let c = Cache::one(Tensor::ones(vec![2]));
        assert_eq!(c.tensors.len(), 1);
    }
}
