//! The dense, row-major `f32` n-dimensional array.

use std::fmt;
use std::sync::Arc;

use rand::Rng;

use crate::broadcast::{broadcast_shape, BroadcastIter};
use crate::kernels;
use crate::shape::Shape;

#[allow(unused_imports)]
pub use crate::kernels::BMM_PARALLEL_FLOPS;

/// A dense, row-major `f32` tensor with `Arc`-backed storage.
///
/// Cloning an `Array` is a reference-count bump; mutation goes through
/// [`Array::data_mut`], which copies on write only when the storage is shared.
/// This lets model parameters enter an autodiff [`crate::Graph`] every training
/// step without copying the weight matrices. The shape is an inline
/// [`Shape`] (`Copy`, at most [`crate::shape::MAX_DIMS`] dims), so cloning
/// never allocates.
#[derive(Clone)]
pub struct Array {
    shape: Shape,
    data: Arc<Vec<f32>>,
}

impl Array {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// An array of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Array { shape, data: Arc::new(vec![0.0; n]) }
    }

    /// An array filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Array { shape, data: Arc::new(vec![value; n]) }
    }

    /// An array of ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Builds an array from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics when `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        Self::from_parts(shape.into(), data)
    }

    /// Builds an array from an already-converted [`Shape`] and a buffer (the
    /// allocation-free constructor the kernels and the arena use).
    ///
    /// # Panics
    /// Panics when `data.len()` does not match the shape's element count.
    #[inline]
    pub(crate) fn from_parts(shape: Shape, data: Vec<f32>) -> Self {
        let n = shape.numel();
        assert_eq!(n, data.len(), "from_vec: shape {shape:?} wants {n} elements, got {}", data.len());
        Array { shape, data: Arc::new(data) }
    }

    /// Wraps shared storage directly (the arena's reuse path).
    ///
    /// # Panics
    /// Panics when the storage length does not match the shape.
    #[inline]
    pub(crate) fn from_arc(shape: Shape, data: Arc<Vec<f32>>) -> Self {
        let n = shape.numel();
        assert_eq!(n, data.len(), "from_arc: shape {shape:?} wants {n} elements, got {}", data.len());
        Array { shape, data }
    }

    /// Consumes the array, returning its backing storage (for recycling).
    #[inline]
    pub(crate) fn into_data(self) -> Arc<Vec<f32>> {
        self.data
    }

    /// Wraps already-shared storage without copying (the public face of
    /// [`Array::from_arc`] for callers outside the crate, e.g. a serving
    /// layer viewing an arena buffer it just filled). The storage is still
    /// recyclable afterwards via [`crate::Arena::recycle_array`] once this
    /// array is the last owner.
    ///
    /// # Panics
    /// Panics when the storage length does not match the shape.
    pub fn from_shared(shape: impl Into<Shape>, data: Arc<Vec<f32>>) -> Self {
        Self::from_arc(shape.into(), data)
    }

    /// A 0-dimensional scalar.
    pub fn scalar(v: f32) -> Self {
        Array { shape: Shape::scalar(), data: Arc::new(vec![v]) }
    }

    /// Samples i.i.d. Gaussians with mean 0 and the given standard deviation
    /// (Box–Muller, driven by the caller's RNG for determinism).
    pub fn randn<R: Rng>(shape: impl Into<Shape>, std: f32, rng: &mut R) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Array { shape, data: Arc::new(data) }
    }

    /// Samples i.i.d. uniforms in `[lo, hi)`.
    pub fn uniform<R: Rng>(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut R) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let data: Vec<f32> = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Array { shape, data: Arc::new(data) }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The shape (dimensions) of the array.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        self.shape.as_slice()
    }

    /// The shape as the inline `Copy` type.
    #[inline]
    pub(crate) fn shape_inline(&self) -> Shape {
        self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the buffer (copy-on-write when shared).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// The single value of a scalar (or 1-element) array.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item: array has {} elements", self.data.len());
        self.data[0]
    }

    /// Element at a multi-index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Sets the element at a multi-index.
    pub fn set(&mut self, idx: &[usize], v: f32) {
        let i = self.flat_index(idx);
        self.data_mut()[i] = v;
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut flat = 0usize;
        for (d, (&i, &s)) in idx.iter().zip(self.shape.iter()).enumerate() {
            assert!(i < s, "index {i} out of bounds for dim {d} of size {s}");
            flat = flat * s + i;
        }
        flat
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reinterprets the buffer with a new shape of equal element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Array {
        let shape = shape.into();
        let n = shape.numel();
        assert_eq!(n, self.len(), "reshape: {:?} -> {shape:?} changes element count", self.shape);
        Array { shape, data: Arc::clone(&self.data) }
    }

    /// Transposes the last two dimensions (copies).
    pub fn transpose_last2(&self) -> Array {
        let nd = self.ndim();
        assert!(nd >= 2, "transpose_last2 requires ndim >= 2");
        let (r, c) = (self.shape[nd - 2], self.shape[nd - 1]);
        let batch: usize = self.shape[..nd - 2].iter().product();
        let mut out = vec![0.0f32; self.len()];
        kernels::transpose_last2_into(self.data(), &mut out, batch, r, c);
        let mut shape = self.shape;
        shape.swap(nd - 2, nd - 1);
        Array::from_parts(shape, out)
    }

    /// Extracts the half-open range `[start, start+len)` of the last dimension.
    pub fn slice_last(&self, start: usize, len: usize) -> Array {
        let nd = self.ndim();
        let w = self.shape[nd - 1];
        assert!(start + len <= w, "slice_last: {start}+{len} > {w}");
        let rows = self.len() / w;
        let mut out = vec![0.0f32; rows * len];
        kernels::slice_last_into(self.data(), &mut out, w, start, len);
        let mut shape = self.shape;
        shape[nd - 1] = len;
        Array::from_parts(shape, out)
    }

    // ------------------------------------------------------------------
    // Elementwise operations (broadcasting where noted)
    // ------------------------------------------------------------------

    /// Applies a function to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Array {
        let data: Vec<f32> = self.data().iter().map(|&x| f(x)).collect();
        Array { shape: self.shape, data: Arc::new(data) }
    }

    /// Elementwise binary op with NumPy-style right-aligned broadcasting.
    pub fn zip_broadcast(&self, other: &Array, f: impl Fn(f32, f32) -> f32) -> Array {
        let out_shape =
            if self.shape == other.shape { self.shape } else { broadcast_shape(&self.shape, &other.shape) };
        let mut data = vec![0.0f32; out_shape.numel()];
        kernels::zip_into(self.data(), &self.shape, other.data(), &other.shape, &out_shape, &mut data, f);
        Array { shape: out_shape, data: Arc::new(data) }
    }

    /// Elementwise sum with broadcasting.
    pub fn add(&self, other: &Array) -> Array {
        self.zip_broadcast(other, |a, b| a + b)
    }

    /// Elementwise (Hadamard) product with broadcasting.
    pub fn mul(&self, other: &Array) -> Array {
        self.zip_broadcast(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, c: f32) -> Array {
        self.map(|x| x * c)
    }

    /// In-place `self += other * c` for identically shaped arrays
    /// (the hot accumulation path of the backward pass and optimizers).
    pub fn axpy(&mut self, c: f32, other: &Array) {
        assert_eq!(self.shape, other.shape, "axpy: shape mismatch");
        let dst = self.data_mut();
        for (d, &s) in dst.iter_mut().zip(other.data.iter()) {
            *d += c * s;
        }
    }

    /// Sums `grad` (shaped like a broadcast output) back down to `target_shape`,
    /// summing over broadcast dimensions. Used by backward passes.
    pub fn reduce_to_shape(&self, target_shape: &[usize]) -> Array {
        if self.shape == *target_shape {
            return self.clone();
        }
        let mut out = Array::zeros(target_shape);
        {
            let dst = out.data_mut();
            let src = self.data();
            for (os, ot) in BroadcastIter::new(&self.shape, &self.shape, target_shape) {
                dst[ot] += src[os];
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Matrix multiplication
    // ------------------------------------------------------------------

    /// 2-D matrix product `[m,k] x [k,n] -> [m,n]` (blocked kernel).
    pub fn matmul(&self, other: &Array) -> Array {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D, got {:?}", self.shape);
        assert_eq!(other.ndim(), 2, "matmul rhs must be 2-D, got {:?}", other.shape);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul: inner dims {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        kernels::matmul_into(self.data(), other.data(), &mut out, m, k, n);
        Array::from_parts(Shape::of(&[m, n]), out)
    }

    /// Batched matrix product `[b,m,k] x [b,k,n] -> [b,m,n]`.
    ///
    /// Large batches (beyond [`BMM_PARALLEL_FLOPS`] multiply-adds) fan out
    /// across scoped threads; per-slice results are
    /// identical to the sequential path because each thread owns a disjoint
    /// output slice.
    pub fn bmm(&self, other: &Array) -> Array {
        assert_eq!(self.ndim(), 3, "bmm lhs must be 3-D, got {:?}", self.shape);
        assert_eq!(other.ndim(), 3, "bmm rhs must be 3-D, got {:?}", other.shape);
        let (b, m, k) = (self.shape[0], self.shape[1], self.shape[2]);
        let (b2, k2, n) = (other.shape[0], other.shape[1], other.shape[2]);
        assert_eq!(b, b2, "bmm: batch dims {b} vs {b2}");
        assert_eq!(k, k2, "bmm: inner dims {k} vs {k2}");
        let mut out = vec![0.0f32; b * m * n];
        kernels::bmm_into(self.data(), other.data(), &mut out, b, m, k, n);
        Array::from_parts(Shape::of(&[b, m, n]), out)
    }

    /// Affine map over the last dimension: `[... , k] x [k, f] -> [... , f]`.
    ///
    /// This is `Linear` applied with arbitrary leading (batch) dimensions.
    pub fn matmul_last(&self, w: &Array) -> Array {
        assert_eq!(w.ndim(), 2, "matmul_last: weight must be 2-D");
        let k = *self.shape.last().expect("matmul_last: scalar input");
        assert_eq!(k, w.shape[0], "matmul_last: inner dims {k} vs {}", w.shape[0]);
        let f = w.shape[1];
        let rows = self.len() / k;
        let mut out = vec![0.0f32; rows * f];
        kernels::matmul_into(self.data(), w.data(), &mut out, rows, k, f);
        let mut shape = self.shape;
        shape[self.ndim() - 1] = f;
        Array::from_parts(shape, out)
    }

    // ------------------------------------------------------------------
    // Reductions and normalizations
    // ------------------------------------------------------------------

    /// Sum of all elements (scalar array).
    pub fn sum_all(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements.
    pub fn mean_all(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum_all() / self.len() as f32
        }
    }

    /// Numerically stable softmax over the last dimension.
    pub fn softmax_last(&self) -> Array {
        let w = *self.shape.last().expect("softmax_last: scalar input");
        let mut out = vec![0.0f32; self.len()];
        kernels::softmax_last_into(self.data(), &mut out, w);
        Array::from_parts(self.shape, out)
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data().iter().map(|&x| x * x).sum()
    }
}

/// Worker threads for `tasks` independent, similarly-sized work items:
/// `min(`[`worker_cap`]`(), tasks)`, or 1 when there are fewer than 2 tasks.
/// This is the fan-out heuristic of [`Array::bmm`].
pub fn suggested_workers(tasks: usize) -> usize {
    if tasks < 2 {
        return 1;
    }
    worker_cap().min(tasks)
}

/// The process's core cap: the `STISAN_WORKERS` environment variable when
/// set to a positive integer, `min(cores, 8)` otherwise. It sizes
/// [`suggested_workers`], and the serving engine splits it across its
/// replicas: each gets `max(1, cap / replicas)` decoder lanes
/// ([`crate::Lanes`]). The variable is re-read on every call.
pub fn worker_cap() -> usize {
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    parse_worker_cap(std::env::var("STISAN_WORKERS").ok().as_deref(), cores)
}

/// [`worker_cap`] as a pure function of the variable's value and the core
/// count. Invalid or non-positive values fall back to `min(cores, 8)`.
fn parse_worker_cap(var: Option<&str>, cores: usize) -> usize {
    match var.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(w) if w >= 1 => w,
        _ => cores.clamp(1, 8),
    }
}

impl fmt::Debug for Array {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Array{:?} ", self.shape)?;
        if self.len() <= 16 {
            write!(f, "{:?}", self.data())
        } else {
            write!(f, "[{:?}, ... {} elements]", &self.data()[..8], self.len())
        }
    }
}

impl PartialEq for Array {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construct_and_index() {
        let a = Array::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.at(&[0, 2]), 3.0);
        assert_eq!(a.at(&[1, 0]), 4.0);
        assert_eq!(a.len(), 6);
        assert_eq!(a.ndim(), 2);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_len_mismatch() {
        Array::from_vec(vec![2, 2], vec![1.0; 3]);
    }

    #[test]
    fn clone_is_cow() {
        let a = Array::zeros(vec![4]);
        let mut b = a.clone();
        b.data_mut()[0] = 5.0;
        assert_eq!(a.at(&[0]), 0.0);
        assert_eq!(b.at(&[0]), 5.0);
    }

    #[test]
    fn matmul_known() {
        let a = Array::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        let b = Array::from_vec(vec![2, 2], vec![5., 6., 7., 8.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn bmm_matches_per_slice_matmul() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Array::randn(vec![3, 4, 5], 1.0, &mut rng);
        let b = Array::randn(vec![3, 5, 2], 1.0, &mut rng);
        let c = a.bmm(&b);
        for i in 0..3 {
            let ai = Array::from_vec(vec![4, 5], a.data()[i * 20..(i + 1) * 20].to_vec());
            let bi = Array::from_vec(vec![5, 2], b.data()[i * 10..(i + 1) * 10].to_vec());
            let ci = ai.matmul(&bi);
            for j in 0..8 {
                assert!((c.data()[i * 8 + j] - ci.data()[j]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn matmul_last_is_batched_linear() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Array::randn(vec![2, 3, 4], 1.0, &mut rng);
        let w = Array::randn(vec![4, 5], 1.0, &mut rng);
        let y = x.matmul_last(&w);
        assert_eq!(y.shape(), &[2, 3, 5]);
        let x2 = x.reshape(vec![6, 4]);
        let y2 = x2.matmul(&w);
        assert_eq!(y.data(), y2.data());
    }

    #[test]
    fn broadcast_add_bias() {
        let x = Array::from_vec(vec![2, 3], vec![0.; 6]);
        let b = Array::from_vec(vec![3], vec![1., 2., 3.]);
        let y = x.add(&b);
        assert_eq!(y.data(), &[1., 2., 3., 1., 2., 3.]);
    }

    #[test]
    fn broadcast_trailing_one() {
        let x = Array::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        let c = Array::from_vec(vec![2, 1], vec![10., 100.]);
        let y = x.mul(&c);
        assert_eq!(y.data(), &[10., 20., 300., 400.]);
    }

    #[test]
    fn reduce_to_shape_sums_broadcast_dims() {
        let g = Array::ones(vec![2, 3]);
        let r = g.reduce_to_shape(&[3]);
        assert_eq!(r.data(), &[2., 2., 2.]);
        let r2 = g.reduce_to_shape(&[2, 1]);
        assert_eq!(r2.data(), &[3., 3.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Array::from_vec(vec![2, 3], vec![1., 2., 3., -1., 0., 1.]);
        let s = a.softmax_last();
        for r in 0..2 {
            let sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotone within a row.
        assert!(s.at(&[0, 0]) < s.at(&[0, 1]));
    }

    #[test]
    fn softmax_fully_masked_row_is_zero() {
        let a = Array::from_vec(vec![1, 2], vec![f32::NEG_INFINITY, f32::NEG_INFINITY]);
        let s = a.softmax_last();
        assert_eq!(s.data(), &[0.0, 0.0]);
    }

    #[test]
    fn transpose_last2_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Array::randn(vec![2, 3, 4], 1.0, &mut rng);
        let t = a.transpose_last2();
        assert_eq!(t.shape(), &[2, 4, 3]);
        assert_eq!(a, t.transpose_last2());
        assert_eq!(a.at(&[1, 2, 3]), t.at(&[1, 3, 2]));
    }

    #[test]
    fn slice_last_extracts_columns() {
        let c = Array::from_vec(vec![2, 5], vec![1., 2., 5., 6., 7., 3., 4., 8., 9., 10.]);
        assert_eq!(c.slice_last(0, 2).data(), &[1., 2., 3., 4.]);
        assert_eq!(c.slice_last(2, 3).data(), &[5., 6., 7., 8., 9., 10.]);
    }

    #[test]
    fn bmm_parallel_matches_sequential() {
        // Big enough to cross the parallel threshold; verify against the
        // per-slice matmul reference.
        let mut rng = StdRng::seed_from_u64(11);
        let b = 32usize;
        let (m, k, n) = (60, 60, 60);
        let a = Array::randn(vec![b, m, k], 1.0, &mut rng);
        let c = Array::randn(vec![b, k, n], 1.0, &mut rng);
        assert!(b * m * k * n >= BMM_PARALLEL_FLOPS);
        let fast = a.bmm(&c);
        for i in 0..b {
            let ai = Array::from_vec(vec![m, k], a.data()[i * m * k..(i + 1) * m * k].to_vec());
            let ci = Array::from_vec(vec![k, n], c.data()[i * k * n..(i + 1) * k * n].to_vec());
            let want = ai.matmul(&ci);
            let got = &fast.data()[i * m * n..(i + 1) * m * n];
            for (x, y) in got.iter().zip(want.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "bmm slice {i} differs from its matmul");
            }
        }
    }

    #[test]
    fn worker_cap_parses_the_override() {
        // A single task never fans out, whatever the cap.
        assert_eq!(suggested_workers(1), 1);
        assert_eq!(parse_worker_cap(Some("3"), 2), 3);
        assert_eq!(parse_worker_cap(Some(" 2 "), 16), 2);
        // Values above the built-in 8-core ceiling are honoured: deployments
        // with more cores opt in explicitly.
        assert_eq!(parse_worker_cap(Some("12"), 4), 12);
        // Unset, garbage and non-positive values fall back to min(cores, 8).
        for bad in [None, Some("0"), Some("-2"), Some("lots"), Some("")] {
            assert_eq!(parse_worker_cap(bad, 2), 2, "{bad:?}");
            assert_eq!(parse_worker_cap(bad, 64), 8, "{bad:?}");
        }
    }

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Array::randn(vec![10_000], 2.0, &mut rng);
        let mean = a.mean_all();
        let var = a.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 1e4;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }
}
