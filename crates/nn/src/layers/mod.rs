//! Concrete layer implementations.

mod activations;
mod conv;
mod dense;
mod dropout;
mod noise;
mod norm;
mod shape_ops;

pub use activations::Relu;
pub use conv::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use noise::GaussianNoise;
pub use norm::L2Normalize;
pub use shape_ops::Flatten;
