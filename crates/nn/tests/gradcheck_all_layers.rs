//! Numerical gradient checks for every layer in the crate.
//!
//! These are the ground-truth tests for the manual backpropagation: if a
//! layer's backward pass disagrees with central differences, everything
//! downstream (the STONE trainer, SCNN baseline, ...) silently degrades.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stone_nn::gradcheck::check_layer;
use stone_nn::{Conv2d, Dense, Dropout, Flatten, GaussianNoise, L2Normalize, Mode, Relu};
use stone_tensor::{rng as trng, Tensor};

const EPS: f32 = 1e-3;
const TOL: f32 = 2e-2;

fn input(shape: Vec<usize>, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    trng::uniform_tensor(&mut rng, shape, -1.0, 1.0)
}

#[test]
fn dense_gradients() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut layer = Dense::new(4, 3, &mut rng);
    let x = input(vec![5, 4], 1);
    let r = check_layer(&mut layer, &x, Mode::Infer, 42, EPS);
    assert!(r.within(TOL), "{r:?}");
}

#[test]
fn conv2d_gradients() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut layer = Conv2d::new(2, 3, 2, 1, &mut rng);
    let x = input(vec![2, 2, 4, 4], 2);
    let r = check_layer(&mut layer, &x, Mode::Infer, 43, EPS);
    assert!(r.within(TOL), "{r:?}");
}

#[test]
fn conv2d_stride2_gradients() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut layer = Conv2d::new(1, 2, 2, 2, &mut rng);
    let x = input(vec![1, 1, 6, 6], 3);
    let r = check_layer(&mut layer, &x, Mode::Infer, 44, EPS);
    assert!(r.within(TOL), "{r:?}");
}

#[test]
fn relu_gradients() {
    // Shift the input away from the kink at 0 where the derivative is
    // undefined and the check would be meaningless.
    let mut x = input(vec![3, 4], 4);
    x.map_in_place(|v| if v.abs() < 0.05 { v + 0.1 } else { v });
    let r = check_layer(&mut Relu::new(), &x, Mode::Infer, 45, EPS);
    assert!(r.within(TOL), "{r:?}");
}

#[test]
fn dropout_train_gradients_with_fixed_mask() {
    // In Train mode the check reseeds the RNG before every forward pass, so
    // the mask is identical across evaluations and the function is
    // differentiable.
    let x = input(vec![4, 5], 8);
    let r = check_layer(&mut Dropout::new(0.4), &x, Mode::Train, 49, EPS);
    assert!(r.within(TOL), "{r:?}");
}

#[test]
fn gaussian_noise_train_gradients() {
    let x = input(vec![4, 5], 9);
    let r = check_layer(&mut GaussianNoise::new(0.1), &x, Mode::Train, 50, EPS);
    assert!(r.within(TOL), "{r:?}");
}

#[test]
fn flatten_gradients() {
    let x = input(vec![2, 3, 2, 2], 10);
    let r = check_layer(&mut Flatten::new(), &x, Mode::Infer, 51, EPS);
    assert!(r.within(TOL), "{r:?}");
}

#[test]
fn l2_normalize_gradients() {
    // Keep inputs away from the origin where normalization is singular.
    let mut x = input(vec![3, 4], 11);
    x.map_in_place(|v| v + if v >= 0.0 { 0.5 } else { -0.5 });
    let r = check_layer(&mut L2Normalize::new(), &x, Mode::Infer, 52, EPS);
    assert!(r.within(TOL), "{r:?}");
}
