//! # stone-nn
//!
//! A layer-based neural-network library with **manual backpropagation**,
//! purpose-built for the STONE reproduction (DATE 2022). The repro
//! calibration notes flag `burn`/`tch-rs` as immature for custom contrastive
//! training, so this crate implements the required subset from scratch on top
//! of [`stone_tensor`]:
//!
//! * layers: [`Dense`], [`Conv2d`], [`Relu`], [`Dropout`], [`GaussianNoise`],
//!   [`Flatten`], [`L2Normalize`], composed with [`Sequential`];
//! * losses: [`TripletLoss`] (FaceNet-style, the heart of STONE),
//!   [`ContrastiveLoss`], [`CrossEntropyLoss`];
//! * the [`Adam`] optimizer;
//! * weight (de)serialization and central-difference [`gradcheck`] utilities.
//!
//! Every layer's `forward` returns an opaque [`Cache`]; `backward` consumes
//! it and returns the input gradient plus per-parameter gradients. A Siamese
//! network with shared weights is realized by running the *same*
//! [`Sequential`] over anchor/positive/negative batches and summing the three
//! parameter-gradient sets — mathematically identical to a weight-shared
//! triple tower.
//!
//! # Example: one training step
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use stone_nn::{Adam, CrossEntropyLoss, Dense, Relu, Sequential};
//! use stone_tensor::Tensor;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Dense::new(2, 8, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Dense::new(8, 2, &mut rng)),
//! ]);
//! let x = Tensor::from_vec(vec![4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.])?;
//! let labels = [0, 1, 1, 0];
//!
//! let (logits, caches) = net.forward_train(&x, &mut rng);
//! let (loss, grad) = CrossEntropyLoss::new().loss(&logits, &labels);
//! let grads = net.backward(&caches, &grad).param_grads;
//! Adam::with_lr(1e-2).step(&mut net.params_mut(), &grads.concat());
//! assert!(loss.is_finite());
//! # Ok::<(), stone_tensor::TensorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gradcheck;
mod init;
mod io;
mod layer;
mod layers;
mod loss;
mod optim;
mod sequential;

pub use init::{he_normal, xavier_uniform};
pub use io::{load_weights, save_weights, WeightIoError};
pub use layer::{Cache, Layer, Mode};
pub use layers::{Conv2d, Dense, Dropout, Flatten, GaussianNoise, L2Normalize, Relu};
pub use loss::{ContrastiveLoss, CrossEntropyLoss, TripletGrads, TripletLoss, TripletStats};
pub use optim::Adam;
pub use sequential::{BackwardResult, Sequential};
