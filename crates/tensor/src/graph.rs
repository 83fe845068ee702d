//! Tapes, and reverse-mode automatic differentiation over the owned one.
//!
//! Every forward op is written once, on the executor [`Exec`]; its tape type
//! decides what is kept beside each value. [`NoTape`] keeps nothing, so the
//! serving executor [`NoGrad`] never builds an [`Op`]. [`OwnedTape`] keeps
//! the [`Op`] that produced each value and whether it needs a gradient, so
//! [`Graph::backward`] can walk the tape in reverse, accumulating gradients.
//! Ops form a closed `enum`, so the whole backward pass is one auditable
//! `match` — no boxed closures, no lifetimes.

use std::sync::Arc;
use std::time::Instant;

use crate::array::Array;
use crate::exec::{Exec, Profiler};
use crate::kernels;

/// A handle to a value computed by an [`Exec`] (a plain index; `Copy`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// The closed set of differentiable operations. Payloads are what backward
/// reads, and nothing more.
pub(crate) enum Op {
    /// An input (parameter or constant).
    Leaf,
    /// Elementwise sum with broadcasting.
    Add(Var, Var),
    /// Elementwise difference with broadcasting.
    Sub(Var, Var),
    /// Elementwise product with broadcasting.
    Mul(Var, Var),
    /// Multiplication by a compile-time constant scalar.
    Scale(Var, f32),
    /// Addition of a constant scalar.
    AddScalar(Var),
    /// Elementwise negation.
    Neg(Var),
    /// Affine map over the last dimension: `x[..,k] · w[k,f] (+ b[f])`.
    Linear { x: Var, w: Var, b: Option<Var> },
    /// Batched matrix product `[b,m,k] x [b,k,n]`.
    Bmm(Var, Var),
    /// Transpose of the last two dimensions.
    TransposeLast2(Var),
    /// Rectified linear unit.
    Relu(Var),
    /// Logistic sigmoid.
    Sigmoid(Var),
    /// Hyperbolic tangent.
    Tanh(Var),
    /// Elementwise exponential.
    Exp(Var),
    /// Elementwise natural logarithm.
    Log(Var),
    /// Numerically stable `ln(1 + e^x)`.
    Softplus(Var),
    /// Softmax over the last dimension.
    SoftmaxLast(Var),
    /// Sum of all elements (scalar output).
    SumAll(Var),
    /// Mean of all elements (scalar output).
    MeanAll(Var),
    /// Sum over the last dimension (drops it).
    SumLast(Var),
    /// Sum of a 3-D array over axis 1: `[b,n,d] -> [b,d]`.
    SumAxis1(Var),
    /// Max of a 3-D array over axis 1: `[b,n,d] -> [b,d]` (gradient routes to
    /// the argmax).
    MaxAxis1(Var),
    /// Row lookup into a 2-D table: `out[i,:] = table[indices[i],:]`.
    Gather { table: Var, indices: Arc<Vec<usize>> },
    /// Per-row lookup along the last dim: `out[l,m] = v[l, idx[l*m_out+m]]`.
    GatherLast { v: Var, idx: Arc<Vec<usize>>, m_out: usize },
    /// Per-row scatter-add along the last dim (dual of `GatherLast`).
    ScatterAddLast { a: Var, idx: Arc<Vec<usize>>, k_out: usize },
    /// Concatenation along the last dimension.
    ConcatLast(Vec<Var>),
    /// Slice `[start, start+len)` of the last dimension.
    SliceLast { v: Var, start: usize, len: usize },
    /// Shape reinterpretation.
    Reshape(Var),
    /// Layer normalization over the last dimension with learned scale/shift.
    LayerNorm { x: Var, alpha: Var, beta: Var, eps: f32 },
    /// Elementwise product with a constant array (dropout masks etc.).
    MulConst(Var, Array),
    /// Elementwise sum with a constant array (attention masks etc.).
    AddConst(Var),
    /// Stacks `k` arrays of shape `[b,d]` into `[b,k,d]`.
    StackAxis1(Vec<Var>),
    /// Extracts step `idx` of a 3-D array: `[b,n,d] -> [b,d]`.
    SliceAxis1 { v: Var, idx: usize },
    /// Sliding-window unfold: `[b,n,d] -> [b, n-w+1, w*d]`.
    Unfold1 { v: Var, width: usize },
}

impl Op {
    /// The op's kind: the key of its backward row in the tape profiler,
    /// the same string its forward reports.
    fn kind(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::Scale(..) => "scale",
            Op::AddScalar(..) => "add_scalar",
            Op::Neg(..) => "neg",
            Op::Linear { .. } => "linear",
            Op::Bmm(..) => "bmm",
            Op::TransposeLast2(..) => "transpose",
            Op::Relu(..) => "relu",
            Op::Sigmoid(..) => "sigmoid",
            Op::Tanh(..) => "tanh",
            Op::Exp(..) => "exp",
            Op::Log(..) => "log",
            Op::Softplus(..) => "softplus",
            Op::SoftmaxLast(..) => "softmax",
            Op::SumAll(..) => "sum_all",
            Op::MeanAll(..) => "mean_all",
            Op::SumLast(..) => "sum_last",
            Op::SumAxis1(..) => "sum_axis1",
            Op::MaxAxis1(..) => "max_axis1",
            Op::Gather { .. } => "gather",
            Op::GatherLast { .. } => "gather_last",
            Op::ScatterAddLast { .. } => "scatter_add_last",
            Op::ConcatLast(..) => "concat_last",
            Op::SliceLast { .. } => "slice_last",
            Op::Reshape(..) => "reshape",
            Op::LayerNorm { .. } => "layer_norm",
            Op::MulConst(..) => "mul_const",
            Op::AddConst(..) => "add_const",
            Op::StackAxis1(..) => "stack_axis1",
            Op::SliceAxis1 { .. } => "slice_axis1",
            Op::Unfold1 { .. } => "unfold1",
        }
    }
}

/// What an [`Exec`] keeps beside each forward value: [`NoTape`] or
/// [`OwnedTape`].
pub trait Tape: Record {
    /// Whether ops are recorded for backward. It also picks the decoder of
    /// [`Exec::taad_scores`]: the recorded composition when `true`, the fused
    /// kernel (bit-identical to it) when `false`.
    const RECORDS: bool;
}

/// The serving tape: records nothing, so no [`Op`] is ever built.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoTape;

impl Tape for NoTape {
    const RECORDS: bool = false;
}

/// The training tape: the [`Op`] and `requires_grad` flag of every value,
/// and the gradient slots [`Graph::backward`] fills.
#[derive(Default)]
pub struct OwnedTape {
    ops: Vec<Op>,
    requires_grad: Vec<bool>,
    grads: Vec<Option<Array>>,
}

impl Tape for OwnedTape {
    const RECORDS: bool = true;
}

/// How the executor records through its tape. Sealed: the trait names the
/// crate-private [`Op`], so only the two tapes above implement it.
#[allow(private_bounds)]
pub(crate) mod sealed {
    use super::{NoTape, Op, OwnedTape, Var};

    pub trait Record: Default {
        /// Whether `v` needs a gradient.
        fn requires_grad(&self, v: Var) -> bool;
        /// Records the node of the value the executor is pushing. Only a
        /// recording tape calls `op`.
        fn record(&mut self, requires_grad: bool, op: impl FnOnce() -> Op);
    }

    impl Record for NoTape {
        #[inline]
        fn requires_grad(&self, _v: Var) -> bool {
            false
        }
        #[inline]
        fn record(&mut self, _requires_grad: bool, _op: impl FnOnce() -> Op) {}
    }

    impl Record for OwnedTape {
        #[inline]
        fn requires_grad(&self, v: Var) -> bool {
            self.requires_grad[v.0]
        }
        #[inline]
        fn record(&mut self, requires_grad: bool, op: impl FnOnce() -> Op) {
            self.ops.push(op());
            self.requires_grad.push(requires_grad);
        }
    }
}

use sealed::Record;

/// The serving executor: forward values only, every buffer from its arena.
pub type NoGrad = Exec<NoTape>;

/// The training executor: a reverse-mode autodiff tape.
pub type Graph = Exec<OwnedTape>;

impl Graph {
    /// The accumulated gradient of a node (after [`Graph::backward`]).
    pub fn grad(&self, v: Var) -> Option<&Array> {
        self.tape.grads.get(v.0).and_then(Option::as_ref)
    }

    /// Runs reverse-mode differentiation from scalar node `root`.
    ///
    /// Gradients accumulate into every `requires_grad` node reachable from
    /// `root`; read them with [`Graph::grad`].
    ///
    /// # Panics
    /// Panics when `root` is not a scalar.
    pub fn backward(&mut self, root: Var) {
        assert_eq!(self.value(root).len(), 1, "backward: root must be scalar");
        let profiler = match &self.prof {
            Profiler::Tape(p) => Some(Arc::clone(p)),
            _ => None,
        };
        let ops = std::mem::take(&mut self.tape.ops);
        self.tape.grads.resize(ops.len(), None);
        self.accumulate(root, Array::scalar(1.0));
        for i in (0..=root.0).rev() {
            if !self.rg(Var(i)) {
                continue;
            }
            let Some(g) = self.tape.grads[i].clone() else { continue };
            let t0 = profiler.as_ref().map(|_| Instant::now());
            self.backprop_op(i, &ops[i], &g);
            if let (Some(profiler), Some(t0)) = (&profiler, t0) {
                profiler.record_backward(ops[i].kind(), t0.elapsed().as_nanos() as u64);
            }
        }
        self.tape.ops = ops;
    }

    fn accumulate(&mut self, v: Var, g: Array) {
        if !self.rg(v) {
            return;
        }
        let slot = &mut self.tape.grads[v.0];
        match slot {
            Some(existing) => existing.axpy(1.0, &g),
            None => *slot = Some(g),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn backprop_op(&mut self, node: usize, op: &Op, g: &Array) {
        match op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                let ga = g.reduce_to_shape(self.value(*a).shape());
                let gb = g.reduce_to_shape(self.value(*b).shape());
                self.accumulate(*a, ga);
                self.accumulate(*b, gb);
            }
            Op::Sub(a, b) => {
                let ga = g.reduce_to_shape(self.value(*a).shape());
                let gb = g.reduce_to_shape(self.value(*b).shape()).scale(-1.0);
                self.accumulate(*a, ga);
                self.accumulate(*b, gb);
            }
            Op::Mul(a, b) => {
                let av = self.value(*a).clone();
                let bv = self.value(*b).clone();
                let ga = g.mul(&bv).reduce_to_shape(av.shape());
                let gb = g.mul(&av).reduce_to_shape(bv.shape());
                self.accumulate(*a, ga);
                self.accumulate(*b, gb);
            }
            Op::Scale(a, c) => self.accumulate(*a, g.scale(*c)),
            Op::AddScalar(a) => self.accumulate(*a, g.clone()),
            Op::Neg(a) => self.accumulate(*a, g.scale(-1.0)),
            Op::Linear { x, w, b } => {
                let xv = self.value(*x).clone();
                let wv = self.value(*w).clone();
                let k = *xv.shape().last().unwrap();
                let f = wv.shape()[1];
                let rows = xv.len() / k;
                if self.rg(*x) {
                    let gx = g.matmul_last(&wv.transpose_last2());
                    self.accumulate(*x, gx);
                }
                if self.rg(*w) {
                    let x2 = xv.reshape(vec![rows, k]);
                    let g2 = g.reshape(vec![rows, f]);
                    let gw = x2.transpose_last2().matmul(&g2);
                    self.accumulate(*w, gw);
                }
                if let Some(b) = b {
                    if self.rg(*b) {
                        let gb = g.reduce_to_shape(self.value(*b).shape());
                        self.accumulate(*b, gb);
                    }
                }
            }
            Op::Bmm(a, b) => {
                let av = self.value(*a).clone();
                let bv = self.value(*b).clone();
                if self.rg(*a) {
                    let ga = g.bmm(&bv.transpose_last2());
                    self.accumulate(*a, ga);
                }
                if self.rg(*b) {
                    let gb = av.transpose_last2().bmm(g);
                    self.accumulate(*b, gb);
                }
            }
            Op::TransposeLast2(a) => self.accumulate(*a, g.transpose_last2()),
            Op::Relu(a) => {
                let av = self.value(*a).clone();
                let ga = g.zip_broadcast(&av, |gy, x| if x > 0.0 { gy } else { 0.0 });
                self.accumulate(*a, ga);
            }
            Op::Sigmoid(a) => {
                let yv = self.value(Var(node)).clone();
                let ga = g.zip_broadcast(&yv, |gy, s| gy * s * (1.0 - s));
                self.accumulate(*a, ga);
            }
            Op::Tanh(a) => {
                let yv = self.value(Var(node)).clone();
                let ga = g.zip_broadcast(&yv, |gy, t| gy * (1.0 - t * t));
                self.accumulate(*a, ga);
            }
            Op::Exp(a) => {
                let yv = self.value(Var(node)).clone();
                let ga = g.mul(&yv);
                self.accumulate(*a, ga);
            }
            Op::Log(a) => {
                let av = self.value(*a).clone();
                let ga = g.zip_broadcast(&av, |gy, x| gy / x);
                self.accumulate(*a, ga);
            }
            Op::Softplus(a) => {
                let av = self.value(*a).clone();
                let ga = g.zip_broadcast(&av, |gy, x| gy * kernels::stable_sigmoid(x));
                self.accumulate(*a, ga);
            }
            Op::SoftmaxLast(a) => {
                let y = self.value(Var(node)).clone();
                let w = *y.shape().last().unwrap();
                let rows = y.len() / w;
                let mut ga = vec![0.0f32; y.len()];
                for r in 0..rows {
                    let yr = &y.data()[r * w..(r + 1) * w];
                    let gr = &g.data()[r * w..(r + 1) * w];
                    let dot: f32 = yr.iter().zip(gr).map(|(&yi, &gi)| yi * gi).sum();
                    for j in 0..w {
                        ga[r * w + j] = yr[j] * (gr[j] - dot);
                    }
                }
                self.accumulate(*a, Array::from_vec(y.shape().to_vec(), ga));
            }
            Op::SumAll(a) => {
                let shape = self.value(*a).shape().to_vec();
                self.accumulate(*a, Array::full(shape, g.item()));
            }
            Op::MeanAll(a) => {
                let shape = self.value(*a).shape().to_vec();
                let n: usize = shape.iter().product();
                self.accumulate(*a, Array::full(shape, g.item() / n as f32));
            }
            Op::SumLast(a) => {
                let shape = self.value(*a).shape().to_vec();
                let w = *shape.last().unwrap();
                let mut ga = Vec::with_capacity(g.len() * w);
                for &gv in g.data() {
                    ga.extend(std::iter::repeat_n(gv, w));
                }
                self.accumulate(*a, Array::from_vec(shape, ga));
            }
            Op::SumAxis1(a) => {
                let shape = self.value(*a).shape().to_vec();
                let (b, n, d) = (shape[0], shape[1], shape[2]);
                let mut ga = vec![0.0f32; b * n * d];
                for i in 0..b {
                    for j in 0..n {
                        ga[(i * n + j) * d..(i * n + j + 1) * d]
                            .copy_from_slice(&g.data()[i * d..(i + 1) * d]);
                    }
                }
                self.accumulate(*a, Array::from_vec(shape, ga));
            }
            Op::MaxAxis1(a) => {
                let av = self.value(*a).clone();
                let (b, n, d) = (av.shape()[0], av.shape()[1], av.shape()[2]);
                let mut ga = vec![0.0f32; b * n * d];
                for i in 0..b {
                    for k in 0..d {
                        // Recompute the argmax; first maximum wins.
                        let mut best = 0usize;
                        let mut best_v = f32::NEG_INFINITY;
                        for j in 0..n {
                            let x = av.data()[(i * n + j) * d + k];
                            if x > best_v {
                                best_v = x;
                                best = j;
                            }
                        }
                        ga[(i * n + best) * d + k] = g.data()[i * d + k];
                    }
                }
                self.accumulate(*a, Array::from_vec(av.shape().to_vec(), ga));
            }
            Op::Gather { table, indices } => {
                let tshape = self.value(*table).shape().to_vec();
                let d = tshape[1];
                let mut gt = Array::zeros(tshape);
                {
                    let dst = gt.data_mut();
                    for (row, &i) in indices.iter().enumerate() {
                        let src = &g.data()[row * d..(row + 1) * d];
                        for (o, &x) in dst[i * d..(i + 1) * d].iter_mut().zip(src) {
                            *o += x;
                        }
                    }
                }
                self.accumulate(*table, gt);
            }
            Op::GatherLast { v, idx, m_out } => {
                let vshape = self.value(*v).shape().to_vec();
                let k = *vshape.last().unwrap();
                let rows = idx.len() / m_out;
                let mut gv = vec![0.0f32; rows * k];
                for r in 0..rows {
                    for m in 0..*m_out {
                        gv[r * k + idx[r * m_out + m]] += g.data()[r * m_out + m];
                    }
                }
                self.accumulate(*v, Array::from_vec(vshape, gv));
            }
            Op::ScatterAddLast { a, idx, k_out } => {
                let ashape = self.value(*a).shape().to_vec();
                let m = *ashape.last().unwrap();
                let rows = idx.len() / m;
                let mut ga = vec![0.0f32; rows * m];
                for r in 0..rows {
                    for j in 0..m {
                        ga[r * m + j] = g.data()[r * k_out + idx[r * m + j]];
                    }
                }
                self.accumulate(*a, Array::from_vec(ashape, ga));
            }
            Op::ConcatLast(parts) => {
                let mut start = 0usize;
                for &p in parts {
                    let w = *self.value(p).shape().last().unwrap();
                    let gp = g.slice_last(start, w);
                    self.accumulate(p, gp);
                    start += w;
                }
            }
            Op::SliceLast { v, start, len } => {
                let vshape = self.value(*v).shape().to_vec();
                let w = *vshape.last().unwrap();
                let rows = g.len() / len;
                let mut gv = vec![0.0f32; rows * w];
                for r in 0..rows {
                    gv[r * w + start..r * w + start + len]
                        .copy_from_slice(&g.data()[r * len..(r + 1) * len]);
                }
                self.accumulate(*v, Array::from_vec(vshape, gv));
            }
            Op::Reshape(a) => {
                let shape = self.value(*a).shape().to_vec();
                self.accumulate(*a, g.reshape(shape));
            }
            Op::LayerNorm { x, alpha, beta, eps } => {
                let xv = self.value(*x).clone();
                let av = self.value(*alpha).clone();
                let (xhat, _mu, inv_std) = kernels::layer_norm_forward(&xv, *eps);
                let w = *xv.shape().last().unwrap();
                let rows = xv.len() / w;
                if self.rg(*alpha) {
                    let galpha = g.mul(&xhat).reduce_to_shape(&[w]);
                    self.accumulate(*alpha, galpha);
                }
                if self.rg(*beta) {
                    let gbeta = g.reduce_to_shape(&[w]);
                    self.accumulate(*beta, gbeta);
                }
                if self.rg(*x) {
                    let dxhat = g.mul(&av);
                    let mut gx = vec![0.0f32; xv.len()];
                    for r in 0..rows {
                        let dxr = &dxhat.data()[r * w..(r + 1) * w];
                        let xhr = &xhat.data()[r * w..(r + 1) * w];
                        let mean_dx: f32 = dxr.iter().sum::<f32>() / w as f32;
                        let mean_dx_xhat: f32 =
                            dxr.iter().zip(xhr).map(|(&a, &b)| a * b).sum::<f32>() / w as f32;
                        for j in 0..w {
                            gx[r * w + j] =
                                inv_std[r] * (dxr[j] - mean_dx - xhr[j] * mean_dx_xhat);
                        }
                    }
                    self.accumulate(*x, Array::from_vec(xv.shape().to_vec(), gx));
                }
            }
            Op::MulConst(a, c) => {
                let ga = g.mul(c).reduce_to_shape(self.value(*a).shape());
                self.accumulate(*a, ga);
            }
            Op::AddConst(a) => {
                let ga = g.reduce_to_shape(self.value(*a).shape());
                self.accumulate(*a, ga);
            }
            Op::StackAxis1(parts) => {
                let k = parts.len();
                let gshape = g.shape();
                let (b, d) = (gshape[0], gshape[2]);
                for (j, &p) in parts.iter().enumerate() {
                    let mut gp = Vec::with_capacity(b * d);
                    for i in 0..b {
                        gp.extend_from_slice(&g.data()[(i * k + j) * d..(i * k + j + 1) * d]);
                    }
                    self.accumulate(p, Array::from_vec(vec![b, d], gp));
                }
            }
            Op::SliceAxis1 { v, idx } => {
                let vshape = self.value(*v).shape().to_vec();
                let (b, n, d) = (vshape[0], vshape[1], vshape[2]);
                let mut gv = vec![0.0f32; b * n * d];
                for i in 0..b {
                    gv[(i * n + idx) * d..(i * n + idx + 1) * d]
                        .copy_from_slice(&g.data()[i * d..(i + 1) * d]);
                }
                self.accumulate(*v, Array::from_vec(vshape, gv));
            }
            Op::Unfold1 { v, width } => {
                let vshape = self.value(*v).shape().to_vec();
                let (b, n, d) = (vshape[0], vshape[1], vshape[2]);
                let windows = n - width + 1;
                let mut gv = vec![0.0f32; b * n * d];
                for i in 0..b {
                    for s in 0..windows {
                        let src = &g.data()[(i * windows + s) * width * d..(i * windows + s + 1) * width * d];
                        for (o, &x) in gv[(i * n + s) * d..(i * n + s + width) * d].iter_mut().zip(src) {
                            *o += x;
                        }
                    }
                }
                self.accumulate(*v, Array::from_vec(vshape, gv));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stisan_obs::TapeProfiler;

    #[test]
    fn forward_values_eager() {
        let mut g = Graph::new();
        let a = g.leaf(Array::from_vec(vec![2], vec![1., 2.]), true);
        let b = g.leaf(Array::from_vec(vec![2], vec![3., 4.]), true);
        let c = g.add(a, b);
        assert_eq!(g.value(c).data(), &[4., 6.]);
    }

    #[test]
    fn backward_add_mul() {
        let mut g = Graph::new();
        let a = g.leaf(Array::from_vec(vec![2], vec![1., 2.]), true);
        let b = g.leaf(Array::from_vec(vec![2], vec![3., 4.]), true);
        let c = g.mul(a, b);
        let s = g.sum_all(c);
        g.backward(s);
        assert_eq!(g.grad(a).unwrap().data(), &[3., 4.]);
        assert_eq!(g.grad(b).unwrap().data(), &[1., 2.]);
    }

    #[test]
    fn backward_matmul() {
        let mut g = Graph::new();
        let a = g.leaf(Array::from_vec(vec![1, 2], vec![1., 2.]), true);
        let b = g.leaf(Array::from_vec(vec![2, 1], vec![3., 4.]), true);
        let c = g.matmul(a, b);
        let s = g.sum_all(c);
        g.backward(s);
        assert_eq!(g.grad(a).unwrap().data(), &[3., 4.]);
        assert_eq!(g.grad(b).unwrap().data(), &[1., 2.]);
    }

    #[test]
    fn grad_accumulates_over_shared_node() {
        let mut g = Graph::new();
        let a = g.leaf(Array::scalar(3.0), true);
        let b = g.mul(a, a); // a^2 ; d/da = 2a = 6
        let s = g.sum_all(b);
        g.backward(s);
        assert!((g.grad(a).unwrap().item() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn no_grad_for_constants() {
        let mut g = Graph::new();
        let a = g.constant(Array::scalar(3.0));
        let b = g.leaf(Array::scalar(2.0), true);
        let c = g.mul(a, b);
        let s = g.sum_all(c);
        g.backward(s);
        assert!(g.grad(a).is_none());
        assert!((g.grad(b).unwrap().item() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let mut g = Graph::new();
        let a = g.leaf(Array::ones(vec![4]), true);
        let d = g.dropout(a, 0.5, false, &mut rng);
        assert_eq!(d, a);
    }

    #[test]
    fn gather_and_backward() {
        let mut g = Graph::new();
        let table = g.leaf(Array::from_vec(vec![3, 2], vec![1., 2., 3., 4., 5., 6.]), true);
        let e = g.gather(table, &[2, 0, 2], &[3]);
        assert_eq!(g.value(e).data(), &[5., 6., 1., 2., 5., 6.]);
        let s = g.sum_all(e);
        g.backward(s);
        assert_eq!(g.grad(table).unwrap().data(), &[1., 1., 0., 0., 2., 2.]);
    }

    #[test]
    fn unfold_shapes() {
        let mut g = Graph::new();
        let v = g.leaf(Array::from_vec(vec![1, 3, 2], vec![1., 2., 3., 4., 5., 6.]), true);
        let u = g.unfold1(v, 2);
        assert_eq!(g.value(u).shape(), &[1, 2, 4]);
        assert_eq!(g.value(u).data(), &[1., 2., 3., 4., 3., 4., 5., 6.]);
    }

    #[test]
    fn profiler_records_op_kinds_and_flops() {
        let p = Arc::new(TapeProfiler::new());
        let mut g = Graph::new();
        g.set_profiler(Arc::clone(&p));
        let a = g.leaf(Array::ones(vec![4, 3]), true);
        let b = g.leaf(Array::ones(vec![3, 2]), true);
        let c = g.matmul(a, b);
        let s = g.sum_all(c);
        g.backward(s);
        let rows = p.snapshot();
        let linear = rows.iter().find(|r| r.kind == "linear").expect("linear row");
        assert_eq!(linear.stats.count, 1);
        assert_eq!(linear.stats.flops, 2 * 4 * 3 * 2); // 2mkn, no bias
        assert_eq!(linear.stats.backward_count, 1);
        let sum = rows.iter().find(|r| r.kind == "sum_all").expect("sum_all row");
        assert_eq!(sum.stats.flops, 8); // one flop per input element
    }

    #[test]
    fn softmax_backward_rowwise() {
        // For y = softmax(x), sum(y) is constant 1 so grad of sum wrt x is 0.
        let mut g = Graph::new();
        let x = g.leaf(Array::from_vec(vec![1, 3], vec![0.3, -1.2, 2.0]), true);
        let y = g.softmax_last(x);
        let s = g.sum_all(y);
        g.backward(s);
        for &v in g.grad(x).unwrap().data() {
            assert!(v.abs() < 1e-6, "grad {v}");
        }
    }
}
