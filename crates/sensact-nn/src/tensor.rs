//! A minimal n-dimensional tensor over `f64`.
//!
//! The first axis is conventionally the batch axis. Shapes are checked at
//! runtime with panics (these are programmer errors, not recoverable
//! conditions — consistent with how the rest of the workspace treats shape
//! bugs).

/// Dense row-major n-dimensional array of `f64`.
///
/// ```
/// use sensact_nn::Tensor;
/// let t = Tensor::zeros(vec![2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// A tensor filled with a constant.
    pub fn full(shape: Vec<usize>, value: f64) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match the shape product.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f64>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "Tensor::from_vec: buffer length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor { shape, data }
    }

    /// Shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of axes.
    pub(crate) fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Flat view of the backing buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat view of the backing buffer.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the backing buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Rows of a 2-D tensor: `(batch, features)` view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of range.
    pub fn row(&self, r: usize) -> &[f64] {
        assert_eq!(self.ndim(), 2, "row: tensor is not 2-D");
        let cols = self.shape[1];
        assert!(r < self.shape[0], "row {r} out of bounds");
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Same as [`Tensor::row`].
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert_eq!(self.ndim(), 2, "row_mut: tensor is not 2-D");
        let cols = self.shape[1];
        assert!(r < self.shape[0], "row {r} out of bounds");
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise combination of two same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub(crate) fn zip(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip: shape mismatch");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub(crate) fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Scaled copy.
    pub fn scaled(&self, alpha: f64) -> Tensor {
        self.map(|x| alpha * x)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Stack equal-length 1-D rows into a 2-D `[rows, cols]` tensor.
    ///
    /// # Panics
    ///
    /// Panics on ragged or empty input.
    pub fn stack_rows(rows: &[Vec<f64>]) -> Tensor {
        assert!(!rows.is_empty(), "stack_rows: no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "stack_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Tensor::from_vec(vec![rows.len(), cols], data)
    }
}

impl std::ops::Index<usize> for Tensor {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl std::ops::IndexMut<usize> for Tensor {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_views() {
        let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(t.sum(), 21.0);
        assert_eq!(Tensor::full(vec![3], 2.5).as_slice(), &[2.5, 2.5, 2.5]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![2], vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![2], vec![3.0, 5.0]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).as_slice(), &[2.0, 3.0]);
        assert_eq!(a.scaled(2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!(a.map(|x| x * x).as_slice(), &[1.0, 4.0]);
    }

    #[test]
    fn stack_rows_builds_matrix() {
        let t = Tensor::stack_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn row_mut_edits_in_place() {
        let mut t = Tensor::zeros(vec![2, 2]);
        t.row_mut(0)[1] = 9.0;
        assert_eq!(t.as_slice(), &[0.0, 9.0, 0.0, 0.0]);
    }
}
