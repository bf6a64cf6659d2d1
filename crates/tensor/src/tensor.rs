//! The dense tensor type.

use crate::alloc;
use crate::rng::Rng64;
use crate::shape::Shape;
use std::fmt;

/// A dense, contiguous, row-major `f32` tensor.
///
/// Cloning copies the buffer; the model layers treat tensors as values.
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = alloc::acquire(self.data.len());
        data.copy_from_slice(&self.data);
        Tensor::from_vec(data, self.shape.clone())
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        alloc::record_free(self.data.capacity() * std::mem::size_of::<f32>());
        alloc::release(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// Wraps an existing buffer. `data.len()` must equal `shape.numel()`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        alloc::record_alloc(data.capacity() * std::mem::size_of::<f32>());
        Tensor { data, shape }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let mut data = alloc::acquire(shape.numel());
        data.fill(value);
        Tensor::from_vec(data, shape)
    }

    /// A tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 0.0)
    }

    /// A tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// A rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor::full(Shape::scalar(), value)
    }

    /// The `n`-dimensional identity matrix (rank 2).
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Uniform random values in `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut Rng64) -> Self {
        let shape = shape.into();
        let mut data = alloc::acquire(shape.numel());
        for v in data.iter_mut() {
            *v = lo + (hi - lo) * rng.next_f32();
        }
        Tensor::from_vec(data, shape)
    }

    /// Standard-normal random values scaled by `std` around `mean`.
    pub fn rand_normal(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut Rng64) -> Self {
        let shape = shape.into();
        let mut data = alloc::acquire(shape.numel());
        for v in data.iter_mut() {
            *v = mean + std * rng.next_gaussian();
        }
        Tensor::from_vec(data, shape)
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Size of dimension `i`.
    #[inline]
    pub fn dim(&self, i: usize) -> usize {
        self.shape.dim(i)
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total element count.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the underlying buffer (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(mut self) -> Vec<f32> {
        let bytes = self.data.capacity() * std::mem::size_of::<f32>();
        alloc::record_free(bytes);
        alloc::unrecord_request(bytes);
        let data = std::mem::take(&mut self.data);
        std::mem::forget(self);
        data
    }

    /// The single value of a one-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() called on tensor with {} elements",
            self.numel()
        );
        self.data[0]
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let flat = self.flat_index(idx);
        self.data[flat] = value;
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.rank(),
            "index rank {} does not match tensor rank {}",
            idx.len(),
            self.rank()
        );
        let strides = self.shape.strides();
        let mut flat = 0;
        for (i, &x) in idx.iter().enumerate() {
            assert!(
                x < self.shape.dim(i),
                "index {x} out of bounds for dimension {i} of {}",
                self.shape
            );
            flat += x * strides[i];
        }
        flat
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            self.numel(),
            shape.numel(),
            "cannot reshape {} ({} elements) to {} ({} elements)",
            self.shape,
            self.numel(),
            shape,
            shape.numel()
        );
        let mut data = alloc::acquire(self.data.len());
        data.copy_from_slice(&self.data);
        Tensor::from_vec(data, shape)
    }

    /// Like [`reshape`](Self::reshape) but consumes `self`, avoiding a copy.
    pub fn into_reshape(self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(self.numel(), shape.numel(), "reshape element count mismatch");
        Tensor::from_vec(self.into_vec(), shape)
    }

    /// Re-dimensions the tensor in place, keeping its buffer: the new
    /// element count must fit the capacity the buffer was built with, so
    /// no allocator acquire happens. Leading elements keep their values;
    /// elements past the old length read zero.
    pub fn redim(&mut self, shape: impl Into<Shape>) {
        let shape = shape.into();
        assert!(
            shape.numel() <= self.data.capacity(),
            "cannot redim to {shape} ({} elements) within a buffer of {}",
            shape.numel(),
            self.data.capacity()
        );
        self.data.resize(shape.numel(), 0.0);
        self.shape = shape;
    }

    /// True when all elements are finite (no NaN/±inf). Useful as a training
    /// invariant check.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{:?}, ... {} more]",
                &self.data[..8],
                self.numel() - 8
            )
        }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.dims(), &[2, 2]);
        assert_eq!(t.at(&[1, 0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_wrong_length_panics() {
        Tensor::from_vec(vec![1.0, 2.0, 3.0], [2, 2]);
    }

    #[test]
    fn eye_is_identity() {
        let t = Tensor::eye(3);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 1]), 1.0);
        assert_eq!(t.at(&[0, 1]), 0.0);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut t = Tensor::zeros([2, 3, 4]);
        t.set(&[1, 2, 3], 7.5);
        assert_eq!(t.at(&[1, 2, 3]), 7.5);
        assert_eq!(t.as_slice()[12 + 2 * 4 + 3], 7.5);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), [2, 3]);
        let r = t.reshape([3, 2]);
        assert_eq!(r.at(&[2, 1]), 5.0);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_wrong_numel_panics() {
        Tensor::zeros([2, 3]).reshape([4, 2]);
    }

    #[test]
    fn redim_reuses_the_buffer_within_its_capacity() {
        let mut t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), [3, 2]);
        let ptr = t.as_slice().as_ptr();
        t.redim([1, 2]);
        assert_eq!((t.dims(), t.as_slice()), (&[1, 2][..], &[0.0, 1.0][..]));
        t.redim([2, 3]);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(t.as_slice().as_ptr(), ptr, "no reallocation");
    }

    #[test]
    #[should_panic(expected = "cannot redim")]
    fn redim_past_the_capacity_panics() {
        Tensor::zeros([2, 3]).redim([7]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }

    #[test]
    fn rand_uniform_in_range() {
        let mut rng = Rng64::new(42);
        let t = Tensor::rand_uniform([100], -1.0, 1.0, &mut rng);
        assert!(t.as_slice().iter().all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn rand_normal_roughly_centered() {
        let mut rng = Rng64::new(7);
        let t = Tensor::rand_normal([10_000], 0.0, 1.0, &mut rng);
        let mean: f32 = t.as_slice().iter().sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.05, "sample mean {mean} too far from 0");
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::zeros([3]);
        assert!(t.all_finite());
        t.set(&[1], f32::NAN);
        assert!(!t.all_finite());
    }

    #[test]
    fn into_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0], [2]);
        assert_eq!(t.into_vec(), vec![1.0, 2.0]);
    }
}
