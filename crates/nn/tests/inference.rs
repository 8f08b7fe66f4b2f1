//! Properties of the cache-free inference path.
//!
//! `Sequential::predict` folds `Layer::infer` over the layers: no backward
//! caches, no input copies, the fused convolution product. It must stay
//! bitwise equal to `forward(x, Mode::Infer)`, and each row of a batched
//! pass must equal the single-row pass of that row, at 1 and 2 threads.
//! Stacks are drawn from a seed, with non-zero biases, widths that are not
//! multiples of 8 and inputs holding exact zeros and negatives; a failure
//! names the seed that rebuilds its case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stone_nn::{
    Conv2d, Dense, Dropout, Flatten, GaussianNoise, L2Normalize, Layer, Mode, Relu, Sequential,
};
use stone_tensor::{simd_available, with_backend, MatmulBackend, Tensor};

const CASES: u64 = 32;

/// A random conv → dense stack and a batch of 2–12 inputs for it.
fn random_case(seed: u64) -> (Sequential, Tensor) {
    let mut rng = StdRng::seed_from_u64(seed);
    let channels = rng.gen_range(1..=3usize);
    let side = rng.gen_range(6..=11usize);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    if rng.gen_bool(0.5) {
        layers.push(Box::new(GaussianNoise::new(0.1)));
    }
    let (mut c, mut s) = (channels, side);
    for _ in 0..rng.gen_range(1..=2) {
        let kernel = rng.gen_range(2..=3usize).min(s);
        let stride = if s - kernel >= 2 && rng.gen_bool(0.3) { 2 } else { 1 };
        let filters = [3, 5, 7, 9, 13, 19][rng.gen_range(0..6usize)];
        layers.push(Box::new(Conv2d::new(c, filters, kernel, stride, &mut rng)));
        layers.push(Box::new(Relu::new()));
        if rng.gen_bool(0.5) {
            layers.push(Box::new(Dropout::new(0.25)));
        }
        (c, s) = (filters, (s - kernel) / stride + 1);
    }
    layers.push(Box::new(Flatten::new()));
    let mut features = c * s * s;
    for _ in 0..rng.gen_range(1..=2) {
        let width = [3, 5, 11, 19, 30][rng.gen_range(0..5usize)];
        layers.push(Box::new(Dense::new(features, width, &mut rng)));
        layers.push(Box::new(Relu::new()));
        if rng.gen_bool(0.3) {
            layers.push(Box::new(Dropout::new(0.5)));
        }
        features = width;
    }
    if rng.gen_bool(0.5) {
        layers.push(Box::new(L2Normalize::new()));
    }
    let mut net = Sequential::new(layers);
    // The layers start with zero biases; give every bias non-zero values.
    for p in net.params_mut().into_iter().filter(|p| p.rank() == 1) {
        for v in p.as_mut_slice() {
            *v = rng.gen_range(-0.5..0.5f32) + 0.01;
        }
    }
    let batch = rng.gen_range(2..=12usize);
    let x = Tensor::from_fn(vec![batch, channels, side, side], |_| {
        if rng.gen_bool(0.2) {
            0.0
        } else {
            rng.gen_range(-1.0..1.0f32)
        }
    });
    (net, x)
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: impl Fn() -> String) {
    assert_eq!(got.len(), want.len(), "{}: length", what());
    if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
        panic!("{}: element {i} is {}, expected {}", what(), got[i], want[i]);
    }
}

/// `predict(x)` is bitwise `forward(x, Mode::Infer)`.
fn check_predict_is_forward(seed: u64, net: &Sequential, x: &Tensor, at: &str) {
    let want = net.forward(x, Mode::Infer, &mut StdRng::seed_from_u64(seed));
    let got = net.predict(x);
    assert_eq!(got.shape(), want.shape(), "seed {seed}, {at}: shape");
    assert_bits_eq(got.as_slice(), want.as_slice(), || {
        format!("seed {seed}, {at}: predict != forward(Infer)")
    });
}

/// Each row of the batched `predict` is bitwise the batch-1 `predict`.
fn check_rows_are_independent(seed: u64, net: &Sequential, x: &Tensor, at: &str) {
    let full = net.predict(x);
    let sample_len = x.len() / x.shape()[0];
    let mut one_shape = x.shape().to_vec();
    one_shape[0] = 1;
    for (r, sample) in x.as_slice().chunks_exact(sample_len).enumerate() {
        let one = net.predict(&Tensor::from_vec(one_shape.clone(), sample.to_vec()).unwrap());
        assert_bits_eq(full.row(r), one.row(0), || {
            format!("seed {seed}, {at}: batch row {r} != its batch-1 predict")
        });
    }
}

/// The bit-equal mul+add backends on this machine. `STONE_NO_SIMD=1` is
/// the operator's kill-switch, so the SIMD backend is left out under it.
fn mul_add_backends() -> Vec<MatmulBackend> {
    let no_simd = std::env::var("STONE_NO_SIMD").is_ok_and(|v| !v.trim().is_empty() && v != "0");
    if simd_available() && !no_simd {
        vec![MatmulBackend::Portable, MatmulBackend::Simd]
    } else {
        vec![MatmulBackend::Portable]
    }
}

#[test]
fn predict_is_forward_and_rows_are_independent() {
    for seed in 0..CASES {
        let (net, x) = random_case(seed);
        for threads in [1, 2] {
            stone_par::with_threads(threads, || {
                // The environment's backend, FMA included: predict and
                // forward share every product, so they agree on any backend.
                check_predict_is_forward(seed, &net, &x, &format!("{threads} threads"));
                // Batch-1 dense layers take the narrow path, which never
                // contracts, so rows match only on the mul+add backends.
                for backend in mul_add_backends() {
                    with_backend(backend, || {
                        let at = format!("{threads} threads, {backend:?}");
                        check_predict_is_forward(seed, &net, &x, &at);
                        check_rows_are_independent(seed, &net, &x, &at);
                    });
                }
            });
        }
    }
}
