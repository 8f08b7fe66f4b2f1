use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

use crate::{Result, TensorError};

/// An owned, dense, row-major `f32` tensor of arbitrary rank.
///
/// `Tensor` is intentionally simple: it owns its data, all operations either
/// allocate a fresh result or mutate in place, and there are no views or
/// strides. The neural-network layers in `stone-nn` interpret rank-4 tensors
/// as `[batch, channels, height, width]` and rank-2 tensors as
/// `[rows, cols]`.
///
/// # Example
///
/// ```
/// use stone_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.at2(1, 2), 6.0);
/// # Ok::<(), stone_tensor::TensorError>(())
/// ```
#[derive(Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and flat row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the product of `shape`
    /// does not equal `data.len()`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(TensorError::LengthMismatch { expected, got: data.len() });
        }
        Ok(Self { shape, data })
    }

    /// Creates a tensor filled with zeros.
    #[must_use]
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n: usize = shape.iter().product();
        Self { shape, data: vec![0.0; n] }
    }

    /// Creates a tensor filled with ones.
    #[must_use]
    pub fn ones(shape: Vec<usize>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    #[must_use]
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let n: usize = shape.iter().product();
        Self { shape, data: vec![value; n] }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(vec![n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a rank-1 tensor from a slice.
    #[must_use]
    pub fn from_slice(data: &[f32]) -> Self {
        Self { shape: vec![data.len()], data: data.to_vec() }
    }

    /// Creates a tensor by evaluating `f` at each flat (row-major) index.
    #[must_use]
    pub fn from_fn(shape: Vec<usize>, mut f: impl FnMut(usize) -> f32) -> Self {
        let n: usize = shape.iter().product();
        Self { shape, data: (0..n).map(&mut f).collect() }
    }

    /// The shape of the tensor.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The rank (number of dimensions).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the flat row-major data.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat row-major data.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Number of rows of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not rank 2.
    #[must_use]
    pub fn rows(&self) -> usize {
        assert_eq!(self.rank(), 2, "rows() requires a rank-2 tensor, got rank {}", self.rank());
        self.shape[0]
    }

    /// Number of columns of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not rank 2.
    #[must_use]
    pub fn cols(&self) -> usize {
        assert_eq!(self.rank(), 2, "cols() requires a rank-2 tensor, got rank {}", self.rank());
        self.shape[1]
    }

    /// Element access for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not rank 2 or the index is out of bounds.
    #[must_use]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        let cols = self.cols();
        self.data[r * cols + c]
    }

    /// Sets one element of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not rank 2 or the index is out of bounds.
    pub fn set2(&mut self, r: usize, c: usize, v: f32) {
        let cols = self.cols();
        self.data[r * cols + c] = v;
    }

    /// Borrows row `r` of a rank-2 tensor as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not rank 2 or `r` is out of bounds.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        let cols = self.cols();
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutably borrows row `r` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not rank 2 or `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let cols = self.cols();
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Returns a new tensor with the given shape sharing this tensor's data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the new shape implies a
    /// different number of elements.
    pub fn reshape(&self, shape: Vec<usize>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::LengthMismatch { expected, got: self.data.len() });
        }
        Ok(Self { shape, data: self.data.clone() })
    }

    /// In-place variant of [`Tensor::reshape`], avoiding the data clone.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the new shape implies a
    /// different number of elements.
    pub fn reshape_in_place(&mut self, shape: Vec<usize>) -> Result<()> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::LengthMismatch { expected, got: self.data.len() });
        }
        self.shape = shape;
        Ok(())
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not rank 2.
    #[must_use]
    pub fn transposed(&self) -> Self {
        let (m, n) = (self.rows(), self.cols());
        let mut out = Self::zeros(vec![n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// Applies `f` elementwise, returning a new tensor.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` elementwise in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Ok(Self { shape: self.shape.clone(), data })
    }

    /// Adds `other * alpha` into `self` (axpy).
    ///
    /// # Panics
    ///
    /// Panics when shapes differ; this is a hot path used by the optimizers
    /// where a shape mismatch is a programming error.
    pub fn axpy_in_place(&mut self, alpha: f32, other: &Self) {
        assert_eq!(
            self.shape, other.shape,
            "axpy_in_place requires matching shapes ({:?} vs {:?})",
            self.shape, other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    #[must_use]
    pub fn dot(&self, other: &Self) -> f32 {
        assert_eq!(self.len(), other.len(), "dot requires equal lengths");
        self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).sum()
    }

    /// Squared Euclidean distance to `other` viewed as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    #[must_use]
    pub fn sq_distance(&self, other: &Self) -> f32 {
        assert_eq!(self.len(), other.len(), "sq_distance requires equal lengths");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Stacks rank-1 tensors (or slices) of equal length into a rank-2
    /// tensor, one input per row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when rows have differing
    /// lengths, or [`TensorError::InvalidDimension`] when `rows` is empty.
    pub fn stack_rows(rows: &[&[f32]]) -> Result<Self> {
        let first =
            rows.first().ok_or(TensorError::InvalidDimension { what: "empty row stack" })?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(TensorError::ShapeMismatch {
                    left: vec![rows.len(), cols],
                    right: vec![r.len()],
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self { shape: vec![rows.len(), cols], data })
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.len() <= 16 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(
                f,
                ", data=[{:.4}, {:.4}, ...; {} elems])",
                self.data[0],
                self.data[1],
                self.len()
            )
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Self { shape: vec![0], data: Vec::new() }
    }
}

impl Add for &Tensor {
    type Output = Tensor;

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a + b).expect("operand shapes must match for +")
    }
}

impl Sub for &Tensor {
    type Output = Tensor;

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a - b).expect("operand shapes must match for -")
    }
}

impl Mul for &Tensor {
    type Output = Tensor;

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    fn mul(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a * b).expect("operand shapes must match for *")
    }
}

impl AddAssign<&Tensor> for Tensor {
    /// Elementwise accumulate.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    fn add_assign(&mut self, rhs: &Tensor) {
        self.axpy_in_place(1.0, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
        let err = Tensor::from_vec(vec![2, 2], vec![1.0; 3]).unwrap_err();
        assert_eq!(err, TensorError::LengthMismatch { expected: 4, got: 3 });
    }

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(vec![3]).as_slice().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(vec![3]).as_slice().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(vec![3], 2.5).as_slice().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.at2(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn rank2_accessors() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.row(1), &[4., 5., 6.]);
        assert_eq!(t.at2(0, 2), 3.0);
    }

    #[test]
    fn reshape_checks_and_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r = t.reshape(vec![3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(vec![4, 2]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let tt = t.transposed().transposed();
        assert_eq!(tt, t);
    }

    #[test]
    fn transpose_values() {
        let t = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]).unwrap();
        let tr = t.transposed();
        assert_eq!(tr.as_slice(), &[1., 3., 2., 4.]);
    }

    #[test]
    fn elementwise_operators() {
        let a = Tensor::from_slice(&[1., 2., 3.]);
        let b = Tensor::from_slice(&[4., 5., 6.]);
        assert_eq!((&a + &b).as_slice(), &[5., 7., 9.]);
        assert_eq!((&b - &a).as_slice(), &[3., 3., 3.]);
        assert_eq!((&a * &b).as_slice(), &[4., 10., 18.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1., 1.]);
        let g = Tensor::from_slice(&[2., 4.]);
        a.axpy_in_place(0.5, &g);
        assert_eq!(a.as_slice(), &[2., 3.]);
    }

    #[test]
    fn dot_and_distance() {
        let a = Tensor::from_slice(&[3., 4.]);
        let b = Tensor::from_slice(&[1., 0.]);
        assert_eq!(a.dot(&b), 3.0);
        assert_eq!(a.sq_distance(&b), 4.0 + 16.0);
    }

    #[test]
    fn stack_rows_builds_matrix() {
        let m = Tensor::stack_rows(&[&[1., 2.], &[3., 4.], &[5., 6.]]).unwrap();
        assert_eq!(m.shape(), &[3, 2]);
        assert_eq!(m.row(2), &[5., 6.]);
        assert!(Tensor::stack_rows(&[&[1., 2.], &[3.]]).is_err());
        assert!(Tensor::stack_rows(&[]).is_err());
    }

    #[test]
    fn zip_map_shape_mismatch() {
        let a = Tensor::zeros(vec![2]);
        let b = Tensor::zeros(vec![3]);
        assert!(a.zip_map(&b, |x, y| x + y).is_err());
    }

    #[test]
    fn debug_is_never_empty() {
        let t = Tensor::zeros(vec![100]);
        let s = format!("{t:?}");
        assert!(s.contains("shape"));
    }
}
