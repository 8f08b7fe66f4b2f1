//! Sequential composition of layers.

use rand::rngs::StdRng;
use stone_tensor::Tensor;

use crate::layer::{Cache, Layer, Mode};

/// Result of a backward pass through a [`Sequential`] network.
#[derive(Debug)]
pub struct BackwardResult {
    /// Gradient with respect to the network input.
    pub grad_input: Tensor,
    /// Per-layer parameter gradients, in layer order; entries for
    /// parameterless layers are empty vectors.
    pub param_grads: Vec<Vec<Tensor>>,
}

impl BackwardResult {
    /// Accumulates another backward result's parameter gradients into this
    /// one (used to realize weight sharing across Siamese towers).
    ///
    /// # Panics
    ///
    /// Panics when the two results come from differently-shaped networks.
    pub fn accumulate(&mut self, other: &BackwardResult) {
        assert_eq!(
            self.param_grads.len(),
            other.param_grads.len(),
            "cannot accumulate gradients from different networks"
        );
        for (mine, theirs) in self.param_grads.iter_mut().zip(&other.param_grads) {
            assert_eq!(mine.len(), theirs.len(), "parameter count mismatch");
            for (m, t) in mine.iter_mut().zip(theirs) {
                m.axpy_in_place(1.0, t);
            }
        }
    }
}

/// An ordered stack of layers sharing one forward/backward interface.
///
/// # Example
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use stone_nn::{Dense, Relu, Sequential};
/// use stone_tensor::Tensor;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let net = Sequential::new(vec![
///     Box::new(Dense::new(4, 8, &mut rng)),
///     Box::new(Relu::new()),
///     Box::new(Dense::new(8, 2, &mut rng)),
/// ]);
/// let y = net.predict(&Tensor::ones(vec![3, 4]));
/// assert_eq!(y.shape(), &[3, 2]);
/// ```
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a network from an ordered list of layers.
    #[must_use]
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the network has no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Borrows the layers.
    #[must_use]
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Runs a forward pass in the given mode without keeping caches.
    pub fn forward(&self, x: &Tensor, mode: Mode, rng: &mut StdRng) -> Tensor {
        let mut cur = x.clone();
        for layer in &self.layers {
            let (y, _) = layer.forward(&cur, mode, rng);
            cur = y;
        }
        cur
    }

    /// Deterministic inference pass (stochastic layers are identities, so no
    /// entropy is consumed).
    ///
    /// Folds [`Layer::infer`] over the layers, so a layer that overrides
    /// it builds no backward cache and copies no input; the result is
    /// bitwise equal to `self.forward(x, Mode::Infer, rng)`.
    #[must_use]
    pub fn predict(&self, x: &Tensor) -> Tensor {
        self.layers.iter().fold(x.clone(), |cur, layer| layer.infer(cur))
    }

    /// Training forward pass returning the output and per-layer caches.
    pub fn forward_train(&self, x: &Tensor, rng: &mut StdRng) -> (Tensor, Vec<Cache>) {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        for layer in &self.layers {
            let (y, cache) = layer.forward(&cur, Mode::Train, rng);
            caches.push(cache);
            cur = y;
        }
        (cur, caches)
    }

    /// Backward pass through the whole stack.
    ///
    /// # Panics
    ///
    /// Panics when `caches` does not come from a matching
    /// [`Sequential::forward_train`] call.
    pub fn backward(&self, caches: &[Cache], grad_out: &Tensor) -> BackwardResult {
        assert_eq!(caches.len(), self.layers.len(), "cache/layer count mismatch");
        let mut param_grads: Vec<Vec<Tensor>> = vec![Vec::new(); self.layers.len()];
        let mut grad = grad_out.clone();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let (gx, gp) = layer.backward(&caches[i], &grad);
            param_grads[i] = gp;
            grad = gx;
        }
        BackwardResult { grad_input: grad, param_grads }
    }

    /// Flattened list of all trainable parameters.
    #[must_use]
    pub fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Flattened mutable list of all trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    /// Total number of scalar parameters.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        write!(f, "Sequential({} params; {:?})", self.param_count(), names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten, Relu};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    fn tiny_net() -> Sequential {
        let mut r = rng();
        Sequential::new(vec![
            Box::new(Dense::new(3, 4, &mut r)),
            Box::new(Relu::new()),
            Box::new(Dense::new(4, 2, &mut r)),
        ])
    }

    #[test]
    fn forward_and_predict_agree_without_stochastic_layers() {
        let net = tiny_net();
        let x = Tensor::ones(vec![2, 3]);
        let mut r = rng();
        let a = net.forward(&x, Mode::Train, &mut r);
        let b = net.predict(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn backward_produces_grads_for_every_param() {
        let net = tiny_net();
        let x = Tensor::ones(vec![2, 3]);
        let mut r = rng();
        let (y, caches) = net.forward_train(&x, &mut r);
        let g = Tensor::ones(y.shape().to_vec());
        let res = net.backward(&caches, &g);
        assert_eq!(res.grad_input.shape(), x.shape());
        let flat: Vec<&Tensor> = res.param_grads.iter().flatten().collect();
        let params = net.params();
        assert_eq!(flat.len(), params.len());
        for (g, p) in flat.iter().zip(params) {
            assert_eq!(g.shape(), p.shape());
        }
    }

    #[test]
    fn accumulate_doubles_grads() {
        let net = tiny_net();
        let x = Tensor::ones(vec![1, 3]);
        let mut r = rng();
        let (y, caches) = net.forward_train(&x, &mut r);
        let g = Tensor::ones(y.shape().to_vec());
        let mut a = net.backward(&caches, &g);
        let b = net.backward(&caches, &g);
        a.accumulate(&b);
        for (ga, gb) in a.param_grads.iter().flatten().zip(b.param_grads.iter().flatten()) {
            for (x1, x2) in ga.as_slice().iter().zip(gb.as_slice()) {
                assert!((x1 - 2.0 * x2).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn param_count_counts_scalars() {
        let net = tiny_net();
        assert_eq!(net.param_count(), 3 * 4 + 4 + 4 * 2 + 2);
    }

    #[test]
    fn debug_lists_layers() {
        let net = Sequential::new(vec![Box::new(Flatten::new())]);
        assert!(format!("{net:?}").contains("flatten"));
    }
}
