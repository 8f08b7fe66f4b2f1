//! # stone-tensor
//!
//! A minimal, dependency-light dense `f32` tensor and linear-algebra substrate
//! for the STONE indoor-localization reproduction.
//!
//! The crate provides exactly what the higher layers need and nothing more:
//!
//! * [`Tensor`] — an owned, row-major, arbitrary-rank dense tensor;
//! * register-tiled matrix products ([`matmul`], [`matmul_at_b`],
//!   [`matmul_a_bt`]) with packed panels, an AVX2 microkernel behind runtime
//!   detection (`STONE_NO_SIMD=1` forces the bit-identical portable
//!   fallback; [`configured_backend`] reports the choice), and row-parallel
//!   dispatch. No kernel contracts a multiply-add into an FMA, so every
//!   backend, thread count and batch size gives the same bits;
//! * the fused convolution products used by the convolution layers in
//!   `stone-nn` ([`conv2d`] forward, [`conv2d_backward`] for the
//!   gradients), and the [`im2col`]/[`col2im`] lowering that defines them;
//! * seeded random fills (uniform and Box-Muller normal) in [`rng`];
//! * small dense solvers ([`linalg::solve`], [`linalg::ridge_regression`])
//!   used by the LT-KNN baseline's AP-imputation step.
//!
//! # Example
//!
//! ```
//! use stone_tensor::{matmul, Tensor};
//!
//! let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
//! let i = Tensor::eye(2);
//! assert_eq!(matmul(&a, &i).as_slice(), a.as_slice());
//! # Ok::<(), stone_tensor::TensorError>(())
//! ```

// Denied (not forbidden) so that exactly one module — `matmul::simd`, the
// AVX2 microkernel — can locally allow it; see that module's safety notes.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod conv;
mod error;
pub mod linalg;
mod matmul;
mod reduce;
pub mod rng;
mod tensor;

pub use conv::{col2im, im2col, Conv2dGeometry};
pub use error::TensorError;
pub use matmul::{
    configured_backend, conv2d, conv2d_backward, fma_available, matmul, matmul_a_bt,
    matmul_a_bt_scalar, matmul_at_b, matmul_at_b_scalar, matmul_scalar, simd_available,
    with_backend, MatmulBackend, PAR_MIN_MACS,
};
pub use reduce::{argmax, softmax_rows, sum_axis0};
pub use tensor::Tensor;

/// Convenient result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
