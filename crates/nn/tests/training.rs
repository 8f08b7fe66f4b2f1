//! End-to-end training sanity checks: the library must be able to actually
//! learn, not just compute gradients.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stone_nn::{
    Adam, Conv2d, CrossEntropyLoss, Dense, Flatten, L2Normalize, Mode, Relu, Sequential,
    TripletLoss,
};
use stone_tensor::Tensor;

fn train_step(
    net: &mut Sequential,
    opt: &mut Adam,
    x: &Tensor,
    grad_fn: impl Fn(&Tensor) -> (f32, Tensor),
    rng: &mut StdRng,
) -> f32 {
    let (out, caches) = net.forward_train(x, rng);
    let (loss, grad) = grad_fn(&out);
    let res = net.backward(&caches, &grad);
    let flat: Vec<Tensor> = res.param_grads.into_iter().flatten().collect();
    opt.step(&mut net.params_mut(), &flat);
    loss
}

#[test]
fn mlp_learns_xor() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut net = Sequential::new(vec![
        Box::new(Dense::new(2, 16, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(16, 2, &mut rng)),
    ]);
    let x = Tensor::from_vec(vec![4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]).unwrap();
    let labels = [0, 1, 1, 0];
    let ce = CrossEntropyLoss::new();
    let mut opt = Adam::with_lr(0.05);
    let mut last = f32::INFINITY;
    for _ in 0..400 {
        last = train_step(&mut net, &mut opt, &x, |out| ce.loss(out, &labels), &mut rng);
    }
    assert!(last < 0.01, "XOR loss did not converge: {last}");
    assert_eq!(ce.accuracy(&net.predict(&x), &labels), 1.0);
}

#[test]
fn cnn_classifier_overfits_small_set() {
    // 3-class toy problem: patterns concentrated in different image regions.
    let mut rng = StdRng::seed_from_u64(3);
    let side = 6;
    let n_per_class = 4;
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for class in 0..3usize {
        for k in 0..n_per_class {
            let mut img = vec![0.0f32; side * side];
            for i in 0..side {
                for j in 0..side {
                    let hot = match class {
                        0 => i < 2,
                        1 => j < 2,
                        _ => i >= 4,
                    };
                    img[i * side + j] =
                        if hot { 0.8 + 0.02 * k as f32 } else { 0.05 * ((i + j) % 3) as f32 };
                }
            }
            data.extend_from_slice(&img);
            labels.push(class);
        }
    }
    let n = labels.len();
    let x = Tensor::from_vec(vec![n, 1, side, side], data).unwrap();

    let mut net = Sequential::new(vec![
        Box::new(Conv2d::new(1, 8, 2, 1, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(8 * 5 * 5, 3, &mut rng)),
    ]);
    let ce = CrossEntropyLoss::new();
    let mut opt = Adam::with_lr(0.01);
    for _ in 0..60 {
        let _ = train_step(&mut net, &mut opt, &x, |out| ce.loss(out, &labels), &mut rng);
    }
    let logits = net.predict(&x);
    let acc = ce.accuracy(&logits, &labels);
    assert!(acc > 0.9, "CNN failed to overfit toy set: accuracy {acc}");
}

#[test]
fn triplet_training_separates_two_clusters() {
    // Two classes of 4-d inputs; after training with triplet loss, same-class
    // embedding distances must be smaller than cross-class distances.
    let mut rng = StdRng::seed_from_u64(11);
    let mut net = Sequential::new(vec![
        Box::new(Dense::new(4, 16, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(16, 3, &mut rng)),
        Box::new(L2Normalize::new()),
    ]);

    // Class prototypes with overlapping support so the task is non-trivial.
    let proto_a = [1.0f32, 0.8, 0.1, 0.0];
    let proto_b = [0.1f32, 0.0, 1.0, 0.9];
    let sample = |proto: &[f32; 4], rng: &mut StdRng| -> Vec<f32> {
        proto.iter().map(|&v| v + stone_tensor::rng::normal(rng, 0.0, 0.15)).collect()
    };

    let loss_fn = TripletLoss::new(0.3);
    let mut opt = Adam::with_lr(0.01);
    for _ in 0..250 {
        let batch = 8;
        let mut a = Vec::new();
        let mut p = Vec::new();
        let mut n = Vec::new();
        for i in 0..batch {
            let (pa, pb) = if i % 2 == 0 { (&proto_a, &proto_b) } else { (&proto_b, &proto_a) };
            a.extend(sample(pa, &mut rng));
            p.extend(sample(pa, &mut rng));
            n.extend(sample(pb, &mut rng));
        }
        let xa = Tensor::from_vec(vec![batch, 4], a).unwrap();
        let xp = Tensor::from_vec(vec![batch, 4], p).unwrap();
        let xn = Tensor::from_vec(vec![batch, 4], n).unwrap();

        let (ya, ca) = net.forward_train(&xa, &mut rng);
        let (yp, cp) = net.forward_train(&xp, &mut rng);
        let (yn, cn) = net.forward_train(&xn, &mut rng);
        let (_, grads) = loss_fn.loss(&ya, &yp, &yn);
        let mut back = net.backward(&ca, &grads.anchor);
        back.accumulate(&net.backward(&cp, &grads.positive));
        back.accumulate(&net.backward(&cn, &grads.negative));
        let flat: Vec<Tensor> = back.param_grads.into_iter().flatten().collect();
        opt.step(&mut net.params_mut(), &flat);
    }

    // Evaluate separation on fresh samples.
    let mut rng2 = StdRng::seed_from_u64(99);
    let embed =
        |v: Vec<f32>, net: &Sequential| net.predict(&Tensor::from_vec(vec![1, 4], v).unwrap());
    let mut same = 0.0;
    let mut diff = 0.0;
    let trials = 20;
    for _ in 0..trials {
        let a1 = embed(sample(&proto_a, &mut rng2), &net);
        let a2 = embed(sample(&proto_a, &mut rng2), &net);
        let b1 = embed(sample(&proto_b, &mut rng2), &net);
        same += a1.sq_distance(&a2);
        diff += a1.sq_distance(&b1);
    }
    same /= trials as f32;
    diff /= trials as f32;
    assert!(
        diff > same + 0.3,
        "triplet training failed to separate clusters: same {same:.3}, diff {diff:.3}"
    );
}

#[test]
fn embeddings_stay_on_unit_sphere_during_training() {
    let mut rng = StdRng::seed_from_u64(5);
    let net = Sequential::new(vec![
        Box::new(Dense::new(4, 8, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(8, 3, &mut rng)),
        Box::new(L2Normalize::new()),
    ]);
    let x = stone_tensor::rng::uniform_tensor(&mut rng, vec![6, 4], -1.0, 1.0);
    let y = net.forward(&x, Mode::Train, &mut rng);
    for i in 0..y.rows() {
        let norm: f32 = y.row(i).iter().map(|&v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4, "row {i} norm {norm}");
    }
}
