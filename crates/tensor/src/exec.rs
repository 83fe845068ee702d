//! Execution backends: the op-constructor surface shared by the autodiff
//! tape and the tape-free inference engine.
//!
//! [`Exec`] abstracts "something you can build a forward computation on".
//! Two backends implement it:
//!
//! * [`Graph`] — the reverse-mode tape. Records every op (operands, grad
//!   slots, profiler hooks) so [`Graph::backward`] can run afterwards.
//! * [`NoGrad`] — the serving backend. Stores *only* forward values: no op
//!   metadata, no gradient slots, no profiler bookkeeping. Sessions built on
//!   it cannot run backward, which is exactly the point. Every op writes its
//!   output into a buffer from an [`Arena`], so a warmed-up pass performs
//!   zero steady-state heap allocations.
//!
//! **Parity guarantee.** Every `Exec` method on both backends routes through
//! the same [`kernels`](crate::kernels) functions with the same per-element
//! arithmetic in the same order (the one fused op, [`Exec::taad_scores`],
//! runs those kernels panel by panel), so a forward pass produces bit-identical
//! `f32` values on either backend (asserted end-to-end by
//! `crates/serve/tests/parity.rs`), and the arena path is bit-identical to
//! the fresh-alloc path because the `_into` kernels have set semantics —
//! recycled buffer contents are never read.

use std::sync::Arc;

use rand::rngs::StdRng;

use crate::arena::Arena;
use crate::array::Array;
use crate::broadcast::broadcast_shape;
use crate::graph::{Graph, Var};
use crate::kernels;
use crate::shape::Shape;

/// The closed op-constructor surface a model forward pass needs.
///
/// Methods mirror the inherent constructors of [`Graph`] one-for-one (the
/// provided [`Exec::taad_scores`] is a composition of them); see those for
/// per-op semantics. Layers and models written against
/// `&mut Session<'_, E>` (with `E: Exec`) run unchanged on the tape or on
/// [`NoGrad`].
pub trait Exec {
    /// Adds an input node. `requires_grad` marks trainable parameters (a
    /// no-op hint on backends without gradients).
    fn leaf(&mut self, value: Array, requires_grad: bool) -> Var;
    /// The forward value of a node.
    fn value(&self, v: Var) -> &Array;

    /// Adds a non-trainable input node.
    fn constant(&mut self, value: Array) -> Var {
        self.leaf(value, false)
    }
    /// Clones a node's value out of the backend, cutting any gradient flow.
    fn detach(&self, v: Var) -> Array {
        self.value(v).clone()
    }

    /// Elementwise sum with broadcasting.
    fn add(&mut self, a: Var, b: Var) -> Var;
    /// Elementwise difference with broadcasting.
    fn sub(&mut self, a: Var, b: Var) -> Var;
    /// Elementwise product with broadcasting.
    fn mul(&mut self, a: Var, b: Var) -> Var;
    /// Multiplies by a scalar constant.
    fn scale(&mut self, a: Var, c: f32) -> Var;
    /// Adds a scalar constant.
    fn add_scalar(&mut self, a: Var, c: f32) -> Var;
    /// Elementwise negation.
    fn neg(&mut self, a: Var) -> Var;
    /// Affine map over the last dimension (`Linear` layer core).
    fn linear(&mut self, x: Var, w: Var, b: Option<Var>) -> Var;
    /// 2-D matrix product (alias of [`Exec::linear`] without bias).
    fn matmul(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(a).ndim(), 2, "matmul lhs must be 2-D");
        self.linear(a, b, None)
    }
    /// Batched 3-D matrix product.
    fn bmm(&mut self, a: Var, b: Var) -> Var;
    /// Transposes the last two dimensions.
    fn transpose_last2(&mut self, a: Var) -> Var;
    /// Rectified linear unit.
    fn relu(&mut self, a: Var) -> Var;
    /// Logistic sigmoid.
    fn sigmoid(&mut self, a: Var) -> Var;
    /// Hyperbolic tangent.
    fn tanh(&mut self, a: Var) -> Var;
    /// Elementwise exponential.
    fn exp(&mut self, a: Var) -> Var;
    /// Elementwise natural logarithm.
    fn log(&mut self, a: Var) -> Var;
    /// Numerically stable softplus `ln(1+e^x)`.
    fn softplus(&mut self, a: Var) -> Var;
    /// Softmax over the last dimension.
    fn softmax_last(&mut self, a: Var) -> Var;
    /// Sum of all elements (scalar output).
    fn sum_all(&mut self, a: Var) -> Var;
    /// Mean of all elements (scalar output).
    fn mean_all(&mut self, a: Var) -> Var;
    /// Sum over the last dimension.
    fn sum_last(&mut self, a: Var) -> Var;
    /// Sum of a 3-D array over axis 1.
    fn sum_axis1(&mut self, a: Var) -> Var;
    /// Max of a 3-D array over axis 1.
    fn max_axis1(&mut self, a: Var) -> Var;
    /// Embedding lookup: rows of a 2-D `table` selected by `indices`.
    fn gather(&mut self, table: Var, indices: &[usize], batch_shape: &[usize]) -> Var;
    /// Per-row lookup along the last dimension.
    fn gather_last(&mut self, v: Var, idx: Arc<Vec<usize>>, m_out: usize) -> Var;
    /// Per-row scatter-add along the last dimension.
    fn scatter_add_last(&mut self, a: Var, idx: Arc<Vec<usize>>, k_out: usize) -> Var;
    /// Concatenates along the last dimension.
    fn concat_last(&mut self, parts: &[Var]) -> Var;
    /// Slices the last dimension.
    fn slice_last(&mut self, v: Var, start: usize, len: usize) -> Var;
    /// Reinterprets the shape.
    fn reshape(&mut self, v: Var, shape: &[usize]) -> Var;
    /// Layer normalization over the last dimension with learned scale/shift.
    fn layer_norm(&mut self, x: Var, alpha: Var, beta: Var, eps: f32) -> Var;
    /// Elementwise product with a constant array (masking, dropout).
    fn mul_const(&mut self, a: Var, c: Array) -> Var;
    /// Elementwise sum with a constant array (attention masks, biases).
    fn add_const(&mut self, a: Var, c: Array) -> Var;
    /// Inverted dropout: identity at eval time. Backends without training
    /// support reject `training = true`.
    fn dropout(&mut self, a: Var, rate: f32, training: bool, rng: &mut StdRng) -> Var;
    /// Stacks `k` arrays of shape `[b,d]` into `[b,k,d]`.
    fn stack_axis1(&mut self, parts: &[Var]) -> Var;
    /// Extracts time step `idx`: `[b,n,d] -> [b,d]`.
    fn slice_axis1(&mut self, v: Var, idx: usize) -> Var;
    /// Sliding-window unfold over axis 1: `[b,n,d] -> [b, n-w+1, w*d]`.
    fn unfold1(&mut self, v: Var, width: usize) -> Var;

    /// Target-aware attention decoding (GeoSAN's decoder, STiSAN's TAAD,
    /// paper Eq 10–11): each candidate attends over the sequence positions
    /// it may see and is scored by the inner product with its attended
    /// summary, `y = Attn(C, F, F) · C`.
    ///
    /// * `f`: `[b, n, d]` encoder output;
    /// * `c`: `[b, m, d]` candidate representations;
    /// * `mask`: `[b, m, n]` additive mask (`0` where a candidate may
    ///   attend, `-1e9` elsewhere).
    ///
    /// Returns `[b, m]` scores. This composition is what the tape records
    /// (and differentiates); [`NoGrad`] overrides it with the fused
    /// [`kernels::taad_scores_into`], which is bit-identical to it.
    fn taad_scores(&mut self, f: Var, c: Var, mask: Array) -> Var {
        let d = self.value(f).shape()[2];
        let ft = self.transpose_last2(f);
        let logits = self.bmm(c, ft); // [b, m, n]
        let logits = self.scale(logits, 1.0 / (d as f32).sqrt());
        let logits = self.add_const(logits, mask);
        let w = self.softmax_last(logits);
        let s = self.bmm(w, f); // [b, m, d]
        let prod = self.mul(s, c);
        self.sum_last(prod) // [b, m]
    }

    /// A free-standing scratch array for building per-request constants
    /// (masks, positional matrices, interval biases) that will be fed back
    /// through [`Exec::mul_const`] / [`Exec::add_const`] / [`Exec::constant`].
    ///
    /// **Contents are unspecified** — callers must overwrite every element
    /// before the array is read (the same set-semantics contract as the
    /// `_into` kernels). The default allocates fresh zeroed storage;
    /// [`NoGrad`] overrides it to draw from its arena, which is what makes
    /// request-prep allocation-free on the serving path. Both sources are
    /// fully overwritten by the caller, so backends stay bit-identical.
    fn scratch_array(&mut self, shape: &[usize]) -> Array {
        Array::zeros(Shape::of(shape))
    }

    /// Offers a constant array's storage back to the backend once the caller
    /// no longer needs it (e.g. originals of masks whose clones were consumed
    /// by `add_const` during the block loop). Default: plain drop. [`NoGrad`]
    /// recycles unique storages into its arena; shared ones are dropped
    /// harmlessly.
    fn recycle_const(&mut self, c: Array) {
        drop(c);
    }
}

impl Exec for Graph {
    fn leaf(&mut self, value: Array, requires_grad: bool) -> Var {
        Graph::leaf(self, value, requires_grad)
    }
    fn value(&self, v: Var) -> &Array {
        Graph::value(self, v)
    }
    fn add(&mut self, a: Var, b: Var) -> Var {
        Graph::add(self, a, b)
    }
    fn sub(&mut self, a: Var, b: Var) -> Var {
        Graph::sub(self, a, b)
    }
    fn mul(&mut self, a: Var, b: Var) -> Var {
        Graph::mul(self, a, b)
    }
    fn scale(&mut self, a: Var, c: f32) -> Var {
        Graph::scale(self, a, c)
    }
    fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        Graph::add_scalar(self, a, c)
    }
    fn neg(&mut self, a: Var) -> Var {
        Graph::neg(self, a)
    }
    fn linear(&mut self, x: Var, w: Var, b: Option<Var>) -> Var {
        Graph::linear(self, x, w, b)
    }
    fn bmm(&mut self, a: Var, b: Var) -> Var {
        Graph::bmm(self, a, b)
    }
    fn transpose_last2(&mut self, a: Var) -> Var {
        Graph::transpose_last2(self, a)
    }
    fn relu(&mut self, a: Var) -> Var {
        Graph::relu(self, a)
    }
    fn sigmoid(&mut self, a: Var) -> Var {
        Graph::sigmoid(self, a)
    }
    fn tanh(&mut self, a: Var) -> Var {
        Graph::tanh(self, a)
    }
    fn exp(&mut self, a: Var) -> Var {
        Graph::exp(self, a)
    }
    fn log(&mut self, a: Var) -> Var {
        Graph::log(self, a)
    }
    fn softplus(&mut self, a: Var) -> Var {
        Graph::softplus(self, a)
    }
    fn softmax_last(&mut self, a: Var) -> Var {
        Graph::softmax_last(self, a)
    }
    fn sum_all(&mut self, a: Var) -> Var {
        Graph::sum_all(self, a)
    }
    fn mean_all(&mut self, a: Var) -> Var {
        Graph::mean_all(self, a)
    }
    fn sum_last(&mut self, a: Var) -> Var {
        Graph::sum_last(self, a)
    }
    fn sum_axis1(&mut self, a: Var) -> Var {
        Graph::sum_axis1(self, a)
    }
    fn max_axis1(&mut self, a: Var) -> Var {
        Graph::max_axis1(self, a)
    }
    fn gather(&mut self, table: Var, indices: &[usize], batch_shape: &[usize]) -> Var {
        Graph::gather(self, table, indices, batch_shape)
    }
    fn gather_last(&mut self, v: Var, idx: Arc<Vec<usize>>, m_out: usize) -> Var {
        Graph::gather_last(self, v, idx, m_out)
    }
    fn scatter_add_last(&mut self, a: Var, idx: Arc<Vec<usize>>, k_out: usize) -> Var {
        Graph::scatter_add_last(self, a, idx, k_out)
    }
    fn concat_last(&mut self, parts: &[Var]) -> Var {
        Graph::concat_last(self, parts)
    }
    fn slice_last(&mut self, v: Var, start: usize, len: usize) -> Var {
        Graph::slice_last(self, v, start, len)
    }
    fn reshape(&mut self, v: Var, shape: &[usize]) -> Var {
        Graph::reshape(self, v, shape)
    }
    fn layer_norm(&mut self, x: Var, alpha: Var, beta: Var, eps: f32) -> Var {
        Graph::layer_norm(self, x, alpha, beta, eps)
    }
    fn mul_const(&mut self, a: Var, c: Array) -> Var {
        Graph::mul_const(self, a, c)
    }
    fn add_const(&mut self, a: Var, c: Array) -> Var {
        Graph::add_const(self, a, c)
    }
    fn dropout(&mut self, a: Var, rate: f32, training: bool, rng: &mut StdRng) -> Var {
        Graph::dropout(self, a, rate, training, rng)
    }
    fn stack_axis1(&mut self, parts: &[Var]) -> Var {
        Graph::stack_axis1(self, parts)
    }
    fn slice_axis1(&mut self, v: Var, idx: usize) -> Var {
        Graph::slice_axis1(self, v, idx)
    }
    fn unfold1(&mut self, v: Var, width: usize) -> Var {
        Graph::unfold1(self, v, width)
    }
}

/// Unique mutable view of an arena buffer. The arena only hands out unique
/// `Arc`s, so `make_mut` never clones — this is a plain field projection
/// with no panic path.
#[inline]
fn buf_mut(arc: &mut Arc<Vec<f32>>) -> &mut [f32] {
    Arc::make_mut(arc).as_mut_slice()
}

/// The tape-free inference backend: stores forward values only.
///
/// Compared to [`Graph`], a `NoGrad` pass allocates no op metadata, no
/// gradient slots and never touches the tape profiler; `backward` simply
/// does not exist on it. Dropout is rejected in training mode — this backend
/// is for frozen weights.
///
/// Every op requests its output buffer from the backend's [`Arena`] and
/// writes it with the set-semantics `_into` kernels. [`NoGrad::new`] starts
/// with an empty arena (every request allocates, exactly like before);
/// [`NoGrad::with_arena`] resumes a pool recycled from a previous pass via
/// [`NoGrad::into_arena`], which is what makes steady-state serving
/// allocation-free. Both paths run the same kernels over buffers whose prior
/// contents are never read, so their outputs are bit-identical.
///
/// When serve-path profiling is on (`stisan_obs::flame`), each op is
/// timed into the per-kernel cost table and the flame tree. The flag is
/// captured once per backend at construction — one relaxed atomic load —
/// so the disabled path adds a single branch per op and nothing else.
pub struct NoGrad {
    vals: Vec<Array>,
    /// Serve-path profiling flag, captured at construction.
    prof: bool,
    arena: Arena,
}

impl Default for NoGrad {
    fn default() -> Self {
        NoGrad::new()
    }
}

impl NoGrad {
    /// An empty inference backend with a cold (empty) arena.
    pub fn new() -> Self {
        NoGrad::with_arena(Arena::new())
    }

    /// An inference backend that draws scratch buffers from `arena`.
    pub fn with_arena(mut arena: Arena) -> Self {
        let vals = arena.take_vals();
        NoGrad { vals, prof: stisan_obs::serve_profiling(), arena }
    }

    /// Tears the backend down, recycling every node value's storage into the
    /// arena and returning it for the next pass.
    pub fn into_arena(mut self) -> Arena {
        let vals = std::mem::take(&mut self.vals);
        self.arena.put_vals(vals);
        self.arena
    }

    /// Counters of the backing arena (pool hits/misses/drops).
    pub fn arena_stats(&self) -> crate::arena::ArenaStats {
        self.arena.stats()
    }

    /// Number of computed nodes.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether no nodes have been computed yet.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    fn push(&mut self, v: Array) -> Var {
        self.vals.push(v);
        Var(self.vals.len() - 1)
    }

    /// `per_elem` FLOPs per input element when profiling, else 0. Matches
    /// the tape profiler's elementwise conventions (`graph.rs::op_flops`).
    #[inline]
    fn ew_flops(&self, a: Var, per_elem: u64) -> u64 {
        if self.prof { per_elem * self.value(a).len() as u64 } else { 0 }
    }

    /// Elementwise FLOPs of a broadcasting binary op: `per_elem` per output
    /// element, with the output length taken as the larger operand's.
    #[inline]
    fn ew_flops2(&self, a: Var, b: Var, per_elem: u64) -> u64 {
        if self.prof {
            per_elem * self.value(a).len().max(self.value(b).len()) as u64
        } else {
            0
        }
    }

    /// Profiling guard for one kernel, when profiling is on. Kind names
    /// match [`Graph`]'s op kinds so tape and serve profiles line up.
    #[inline]
    fn guard(&self, kind: &'static str, flops: u64) -> Option<stisan_obs::flame::KernelGuard> {
        if self.prof { Some(stisan_obs::flame::kernel(kind, flops)) } else { None }
    }

    /// Unary elementwise op through the arena.
    #[inline]
    fn map_op(
        &mut self,
        kind: &'static str,
        a: Var,
        per_elem: u64,
        f: impl Fn(f32) -> f32,
    ) -> Var {
        let fl = self.ew_flops(a, per_elem);
        let g = self.guard(kind, fl);
        let sh = self.value(a).shape_inline();
        let mut buf = self.arena.take(sh.numel());
        kernels::map_into(self.value(a).data(), buf_mut(&mut buf), f);
        drop(g);
        self.push(Array::from_arc(sh, buf))
    }

    /// Broadcasting binary elementwise op through the arena.
    #[inline]
    fn zip_op(&mut self, kind: &'static str, a: Var, b: Var, f: impl Fn(f32, f32) -> f32) -> Var {
        let fl = self.ew_flops2(a, b, 1);
        let g = self.guard(kind, fl);
        let sh = {
            let (av, bv) = (self.value(a), self.value(b));
            if av.shape() == bv.shape() {
                av.shape_inline()
            } else {
                broadcast_shape(av.shape(), bv.shape())
            }
        };
        let mut buf = self.arena.take(sh.numel());
        {
            let (av, bv) = (self.value(a), self.value(b));
            kernels::zip_into(av.data(), av.shape(), bv.data(), bv.shape(), &sh, buf_mut(&mut buf), f);
        }
        drop(g);
        self.push(Array::from_arc(sh, buf))
    }

    /// Binary elementwise op against a constant array. The constant's
    /// storage is offered back to the arena afterwards (it is usually a
    /// per-request mask; shared or foreign storages are simply dropped).
    #[inline]
    fn zip_const_op(
        &mut self,
        kind: &'static str,
        a: Var,
        c: Array,
        f: impl Fn(f32, f32) -> f32,
    ) -> Var {
        let fl = if self.prof { self.value(a).len().max(c.len()) as u64 } else { 0 };
        let g = self.guard(kind, fl);
        let sh = {
            let av = self.value(a);
            if av.shape() == c.shape() {
                av.shape_inline()
            } else {
                broadcast_shape(av.shape(), c.shape())
            }
        };
        let mut buf = self.arena.take(sh.numel());
        {
            let av = self.value(a);
            kernels::zip_into(av.data(), av.shape(), c.data(), c.shape(), &sh, buf_mut(&mut buf), f);
        }
        drop(g);
        self.arena.recycle(c.into_data());
        self.push(Array::from_arc(sh, buf))
    }
}

impl Exec for NoGrad {
    fn leaf(&mut self, value: Array, _requires_grad: bool) -> Var {
        self.push(value)
    }
    fn value(&self, v: Var) -> &Array {
        &self.vals[v.0]
    }
    fn add(&mut self, a: Var, b: Var) -> Var {
        self.zip_op("add", a, b, |x, y| x + y)
    }
    fn sub(&mut self, a: Var, b: Var) -> Var {
        self.zip_op("sub", a, b, |x, y| x - y)
    }
    fn mul(&mut self, a: Var, b: Var) -> Var {
        self.zip_op("mul", a, b, |x, y| x * y)
    }
    fn scale(&mut self, a: Var, c: f32) -> Var {
        self.map_op("scale", a, 1, |x| x * c)
    }
    fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        self.map_op("add_scalar", a, 1, |x| x + c)
    }
    // Not `-x`: the tape's neg is `scale(-1.0)`, and the two differ on NaN
    // payloads — the multiply keeps frozen values bit-identical to the tape.
    #[allow(clippy::neg_multiply)]
    fn neg(&mut self, a: Var) -> Var {
        self.map_op("neg", a, 1, |x| x * -1.0)
    }
    fn linear(&mut self, x: Var, w: Var, b: Option<Var>) -> Var {
        let fl = if self.prof {
            kernels::linear_flops(self.value(x), self.value(w), b.is_some())
        } else {
            0
        };
        let g = self.guard("linear", fl);
        // A 1-D bias of the output width (every layer in this repo) takes
        // the fused arena path; any other broadcastable bias falls back to
        // the allocating kernel — both identical to `linear_forward`.
        let fused = match b {
            None => true,
            Some(bv) => {
                let (bvv, wv) = (self.value(bv), self.value(w));
                wv.ndim() == 2 && bvv.ndim() == 1 && bvv.len() == wv.shape()[1]
            }
        };
        let out = if fused {
            let (sh, rows, k, f_dim) = {
                let (xv, wv) = (self.value(x), self.value(w));
                assert_eq!(wv.ndim(), 2, "matmul_last: weight must be 2-D");
                let k = *xv.shape().last().expect("matmul_last: scalar input");
                assert_eq!(k, wv.shape()[0], "matmul_last: inner dims {k} vs {}", wv.shape()[0]);
                let f_dim = wv.shape()[1];
                let rows = xv.len() / k;
                let mut sh = xv.shape_inline();
                let nd = sh.len();
                sh[nd - 1] = f_dim;
                (sh, rows, k, f_dim)
            };
            let mut buf = self.arena.take(sh.numel());
            kernels::linear_forward_into(
                self.value(x).data(),
                self.value(w).data(),
                b.map(|bv| self.value(bv).data()),
                buf_mut(&mut buf),
                rows,
                k,
                f_dim,
            );
            Array::from_arc(sh, buf)
        } else {
            kernels::linear_forward(self.value(x), self.value(w), b.map(|bv| self.value(bv)))
        };
        drop(g);
        self.push(out)
    }
    fn bmm(&mut self, a: Var, b: Var) -> Var {
        let fl = if self.prof { kernels::bmm_flops(self.value(a), self.value(b)) } else { 0 };
        let g = self.guard("bmm", fl);
        let (bsz, m, k, n) = {
            let (av, bv) = (self.value(a), self.value(b));
            assert_eq!(av.ndim(), 3, "bmm lhs must be 3-D, got {:?}", av.shape());
            assert_eq!(bv.ndim(), 3, "bmm rhs must be 3-D, got {:?}", bv.shape());
            let (bsz, m, k) = (av.shape()[0], av.shape()[1], av.shape()[2]);
            let (b2, k2, n) = (bv.shape()[0], bv.shape()[1], bv.shape()[2]);
            assert_eq!(bsz, b2, "bmm: batch dims {bsz} vs {b2}");
            assert_eq!(k, k2, "bmm: inner dims {k} vs {k2}");
            (bsz, m, k, n)
        };
        let mut buf = self.arena.take(bsz * m * n);
        kernels::bmm_into(
            self.value(a).data(),
            self.value(b).data(),
            buf_mut(&mut buf),
            bsz,
            m,
            k,
            n,
        );
        drop(g);
        self.push(Array::from_arc(Shape::of(&[bsz, m, n]), buf))
    }
    fn transpose_last2(&mut self, a: Var) -> Var {
        let g = self.guard("transpose", 0);
        let (batch, r, c, sh) = {
            let av = self.value(a);
            let nd = av.ndim();
            assert!(nd >= 2, "transpose_last2 requires ndim >= 2");
            let (r, c) = (av.shape()[nd - 2], av.shape()[nd - 1]);
            let batch: usize = av.shape()[..nd - 2].iter().product();
            let mut sh = av.shape_inline();
            sh.swap(nd - 2, nd - 1);
            (batch, r, c, sh)
        };
        let mut buf = self.arena.take(sh.numel());
        kernels::transpose_last2_into(self.value(a).data(), buf_mut(&mut buf), batch, r, c);
        drop(g);
        self.push(Array::from_arc(sh, buf))
    }
    fn relu(&mut self, a: Var) -> Var {
        self.map_op("relu", a, 1, |x| x.max(0.0))
    }
    fn sigmoid(&mut self, a: Var) -> Var {
        self.map_op("sigmoid", a, 4, kernels::stable_sigmoid)
    }
    fn tanh(&mut self, a: Var) -> Var {
        self.map_op("tanh", a, 4, f32::tanh)
    }
    fn exp(&mut self, a: Var) -> Var {
        self.map_op("exp", a, 4, f32::exp)
    }
    fn log(&mut self, a: Var) -> Var {
        self.map_op("log", a, 4, f32::ln)
    }
    fn softplus(&mut self, a: Var) -> Var {
        self.map_op("softplus", a, 4, kernels::softplus_scalar)
    }
    fn softmax_last(&mut self, a: Var) -> Var {
        let fl = self.ew_flops(a, 5);
        let g = self.guard("softmax", fl);
        let (w, sh) = {
            let av = self.value(a);
            let w = *av.shape().last().expect("softmax_last: scalar input");
            (w, av.shape_inline())
        };
        let mut buf = self.arena.take(sh.numel());
        kernels::softmax_last_into(self.value(a).data(), buf_mut(&mut buf), w);
        drop(g);
        self.push(Array::from_arc(sh, buf))
    }
    fn sum_all(&mut self, a: Var) -> Var {
        let fl = self.ew_flops(a, 1);
        let g = self.guard("sum_all", fl);
        let s = self.value(a).sum_all();
        let mut buf = self.arena.take(1);
        buf_mut(&mut buf)[0] = s;
        drop(g);
        self.push(Array::from_arc(Shape::scalar(), buf))
    }
    fn mean_all(&mut self, a: Var) -> Var {
        let fl = self.ew_flops(a, 1);
        let g = self.guard("mean_all", fl);
        let s = self.value(a).mean_all();
        let mut buf = self.arena.take(1);
        buf_mut(&mut buf)[0] = s;
        drop(g);
        self.push(Array::from_arc(Shape::scalar(), buf))
    }
    fn sum_last(&mut self, a: Var) -> Var {
        let fl = self.ew_flops(a, 1);
        let g = self.guard("sum_last", fl);
        let (w, rows, sh) = {
            let av = self.value(a);
            let w = *av.shape().last().expect("sum_last: scalar input");
            let rows = av.len() / w.max(1);
            (w, rows, Shape::of(&av.shape()[..av.ndim() - 1]))
        };
        let mut buf = self.arena.take(rows);
        kernels::sum_last_into(self.value(a).data(), buf_mut(&mut buf), w);
        drop(g);
        self.push(Array::from_arc(sh, buf))
    }
    fn sum_axis1(&mut self, a: Var) -> Var {
        let fl = self.ew_flops(a, 1);
        let g = self.guard("sum_axis1", fl);
        let (b, n, d) = {
            let av = self.value(a);
            assert_eq!(av.ndim(), 3, "sum_axis1 requires a 3-D array");
            (av.shape()[0], av.shape()[1], av.shape()[2])
        };
        let mut buf = self.arena.take(b * d);
        kernels::sum_axis1_into(self.value(a).data(), buf_mut(&mut buf), b, n, d);
        drop(g);
        self.push(Array::from_arc(Shape::of(&[b, d]), buf))
    }
    fn max_axis1(&mut self, a: Var) -> Var {
        let fl = self.ew_flops(a, 1);
        let g = self.guard("max_axis1", fl);
        let (b, n, d) = {
            let av = self.value(a);
            assert_eq!(av.ndim(), 3, "max_axis1 requires a 3-D array");
            (av.shape()[0], av.shape()[1], av.shape()[2])
        };
        let mut buf = self.arena.take(b * d);
        kernels::max_axis1_into(self.value(a).data(), buf_mut(&mut buf), b, n, d);
        drop(g);
        self.push(Array::from_arc(Shape::of(&[b, d]), buf))
    }
    fn gather(&mut self, table: Var, indices: &[usize], batch_shape: &[usize]) -> Var {
        let g = self.guard("gather", 0);
        let (t_rows, d) = {
            let t = self.value(table);
            assert_eq!(t.ndim(), 2, "gather: table must be 2-D");
            (t.shape()[0], t.shape()[1])
        };
        let rows: usize = batch_shape.iter().product();
        assert_eq!(
            rows,
            indices.len(),
            "gather: batch shape {batch_shape:?} vs {} indices",
            indices.len()
        );
        let mut sh = Shape::of(batch_shape);
        sh.push(d);
        let mut buf = self.arena.take(rows * d);
        kernels::gather_rows_into(self.value(table).data(), t_rows, d, indices, buf_mut(&mut buf));
        drop(g);
        self.push(Array::from_arc(sh, buf))
    }
    fn gather_last(&mut self, v: Var, idx: Arc<Vec<usize>>, m_out: usize) -> Var {
        let g = self.guard("gather_last", 0);
        let (k, rows, sh) = {
            let vv = self.value(v);
            let k = *vv.shape().last().expect("gather_last: scalar input");
            let rows = vv.len() / k;
            let mut sh = vv.shape_inline();
            let nd = sh.len();
            sh[nd - 1] = m_out;
            (k, rows, sh)
        };
        assert_eq!(idx.len(), rows * m_out, "gather_last: index count mismatch");
        let mut buf = self.arena.take(rows * m_out);
        kernels::gather_last_into(self.value(v).data(), k, &idx, m_out, buf_mut(&mut buf));
        drop(g);
        self.push(Array::from_arc(sh, buf))
    }
    fn scatter_add_last(&mut self, a: Var, idx: Arc<Vec<usize>>, k_out: usize) -> Var {
        let fl = self.ew_flops(a, 1);
        let g = self.guard("scatter_add_last", fl);
        let (m, rows, sh) = {
            let av = self.value(a);
            let m = *av.shape().last().expect("scatter_add_last: scalar input");
            let rows = av.len() / m;
            let mut sh = av.shape_inline();
            let nd = sh.len();
            sh[nd - 1] = k_out;
            (m, rows, sh)
        };
        assert_eq!(idx.len(), rows * m, "scatter_add_last: index count mismatch");
        let mut buf = self.arena.take(rows * k_out);
        kernels::scatter_add_last_into(self.value(a).data(), m, &idx, k_out, buf_mut(&mut buf));
        drop(g);
        self.push(Array::from_arc(sh, buf))
    }
    fn concat_last(&mut self, parts: &[Var]) -> Var {
        let g = self.guard("concat_last", 0);
        assert!(!parts.is_empty(), "concat_last: no inputs");
        let (nd, rows, last_total, sh) = {
            let first = self.value(parts[0]);
            let nd = first.ndim();
            let mut last_total = 0usize;
            for &p in parts {
                let pv = self.value(p);
                assert_eq!(pv.ndim(), nd, "concat_last: rank mismatch");
                assert_eq!(
                    &pv.shape()[..nd - 1],
                    &first.shape()[..nd - 1],
                    "concat_last: leading dims differ"
                );
                last_total += pv.shape()[nd - 1];
            }
            let rows: usize = first.shape()[..nd - 1].iter().product();
            let mut sh = first.shape_inline();
            sh[nd - 1] = last_total;
            (nd, rows, last_total, sh)
        };
        let mut buf = self.arena.take(rows * last_total);
        {
            let dst = buf_mut(&mut buf);
            for r in 0..rows {
                let mut o = r * last_total;
                for &p in parts {
                    let pv = self.value(p);
                    let w = pv.shape()[nd - 1];
                    dst[o..o + w].copy_from_slice(&pv.data()[r * w..(r + 1) * w]);
                    o += w;
                }
            }
        }
        drop(g);
        self.push(Array::from_arc(sh, buf))
    }
    fn slice_last(&mut self, v: Var, start: usize, len: usize) -> Var {
        let g = self.guard("slice_last", 0);
        let (w, rows, sh) = {
            let vv = self.value(v);
            let nd = vv.ndim();
            let w = vv.shape()[nd - 1];
            assert!(start + len <= w, "slice_last: {start}+{len} > {w}");
            let rows = vv.len() / w;
            let mut sh = vv.shape_inline();
            sh[nd - 1] = len;
            (w, rows, sh)
        };
        let mut buf = self.arena.take(rows * len);
        kernels::slice_last_into(self.value(v).data(), buf_mut(&mut buf), w, start, len);
        drop(g);
        self.push(Array::from_arc(sh, buf))
    }
    fn reshape(&mut self, v: Var, shape: &[usize]) -> Var {
        let g = self.guard("reshape", 0);
        let out = self.value(v).reshape(shape);
        drop(g);
        self.push(out)
    }
    fn layer_norm(&mut self, x: Var, alpha: Var, beta: Var, eps: f32) -> Var {
        let fl = self.ew_flops(x, 8);
        let g = self.guard("layer_norm", fl);
        let (w, sh) = {
            let xv = self.value(x);
            let w = *xv.shape().last().expect("layer_norm: scalar input");
            (w, xv.shape_inline())
        };
        assert_eq!(self.value(alpha).shape(), &[w], "layer_norm: alpha must be [width]");
        assert_eq!(self.value(beta).shape(), &[w], "layer_norm: beta must be [width]");
        let mut buf = self.arena.take(sh.numel());
        kernels::layer_norm_affine_into(
            self.value(x).data(),
            self.value(alpha).data(),
            self.value(beta).data(),
            eps,
            buf_mut(&mut buf),
            w,
        );
        drop(g);
        self.push(Array::from_arc(sh, buf))
    }
    fn mul_const(&mut self, a: Var, c: Array) -> Var {
        self.zip_const_op("mul_const", a, c, |x, y| x * y)
    }
    fn add_const(&mut self, a: Var, c: Array) -> Var {
        self.zip_const_op("add_const", a, c, |x, y| x + y)
    }
    fn dropout(&mut self, a: Var, _rate: f32, training: bool, _rng: &mut StdRng) -> Var {
        assert!(!training, "NoGrad is inference-only: dropout cannot run in training mode");
        a
    }
    fn stack_axis1(&mut self, parts: &[Var]) -> Var {
        let g = self.guard("stack_axis1", 0);
        assert!(!parts.is_empty(), "stack_axis1: no inputs");
        let (b, d) = {
            let first = self.value(parts[0]);
            assert_eq!(first.ndim(), 2, "stack_axis1: parts must be 2-D");
            (first.shape()[0], first.shape()[1])
        };
        let k = parts.len();
        let mut buf = self.arena.take(b * k * d);
        {
            let dst = buf_mut(&mut buf);
            for (j, &p) in parts.iter().enumerate() {
                let pv = self.value(p);
                assert_eq!(pv.shape(), &[b, d], "stack_axis1: shape mismatch");
                kernels::stack_part_into(pv.data(), dst, j, b, k, d);
            }
        }
        drop(g);
        self.push(Array::from_arc(Shape::of(&[b, k, d]), buf))
    }
    fn slice_axis1(&mut self, v: Var, idx: usize) -> Var {
        let g = self.guard("slice_axis1", 0);
        let (b, n, d) = {
            let vv = self.value(v);
            assert_eq!(vv.ndim(), 3, "slice_axis1: input must be 3-D");
            (vv.shape()[0], vv.shape()[1], vv.shape()[2])
        };
        assert!(idx < n, "slice_axis1: step {idx} out of {n}");
        let mut buf = self.arena.take(b * d);
        kernels::slice_axis1_into(self.value(v).data(), buf_mut(&mut buf), idx, b, n, d);
        drop(g);
        self.push(Array::from_arc(Shape::of(&[b, d]), buf))
    }
    fn unfold1(&mut self, v: Var, width: usize) -> Var {
        let g = self.guard("unfold1", 0);
        let (b, n, d) = {
            let vv = self.value(v);
            assert_eq!(vv.ndim(), 3, "unfold1: input must be 3-D");
            (vv.shape()[0], vv.shape()[1], vv.shape()[2])
        };
        assert!(width >= 1 && width <= n, "unfold1: width {width} out of 1..={n}");
        let windows = n - width + 1;
        let mut buf = self.arena.take(b * windows * width * d);
        kernels::unfold1_into(self.value(v).data(), buf_mut(&mut buf), b, n, d, width);
        drop(g);
        self.push(Array::from_arc(Shape::of(&[b, windows, width * d]), buf))
    }
    fn taad_scores(&mut self, f: Var, c: Var, mask: Array) -> Var {
        let (b, m, n, d) = {
            let (fv, cv) = (self.value(f), self.value(c));
            assert_eq!(fv.ndim(), 3, "taad_scores: f must be [b, n, d], got {:?}", fv.shape());
            let (b, n, d) = (fv.shape()[0], fv.shape()[1], fv.shape()[2]);
            let m = cv.shape().get(1).copied().unwrap_or(0);
            assert_eq!(cv.shape(), &[b, m, d], "taad_scores: c must be [b, m, d]");
            assert_eq!(mask.shape(), &[b, m, n], "taad_scores: mask must be [b, m, n]");
            (b, m, n, d)
        };
        let fl = if self.prof { kernels::taad_flops(b, m, n, d) } else { 0 };
        let g = self.guard("taad", fl);
        let mut scratch = self.arena.take(kernels::taad_scratch_len(n, d));
        let mut buf = self.arena.take(b * m);
        kernels::taad_scores_into(
            self.value(f).data(),
            self.value(c).data(),
            mask.data(),
            buf_mut(&mut buf),
            buf_mut(&mut scratch),
            b,
            m,
            n,
            d,
        );
        drop(g);
        self.arena.recycle(scratch);
        self.arena.recycle(mask.into_data());
        self.push(Array::from_arc(Shape::of(&[b, m]), buf))
    }
    fn scratch_array(&mut self, shape: &[usize]) -> Array {
        let sh = Shape::of(shape);
        let buf = self.arena.take(sh.numel());
        Array::from_arc(sh, buf)
    }
    fn recycle_const(&mut self, c: Array) {
        self.arena.recycle(c.into_data());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Runs the same mixed op chain on both backends and asserts bit
    /// equality of the result — the micro version of the serve parity suite.
    #[test]
    fn nograd_matches_graph_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = Array::randn(vec![2, 4, 6], 1.0, &mut rng);
        let w = Array::randn(vec![6, 6], 1.0, &mut rng);
        let alpha = Array::ones(vec![6]);
        let beta = Array::zeros(vec![6]);
        let run = |e: &mut dyn Exec| -> Vec<u32> {
            let x = e.constant(x.clone());
            let w = e.constant(w.clone());
            let alpha = e.constant(alpha.clone());
            let beta = e.constant(beta.clone());
            let h = e.linear(x, w, None);
            let h = e.layer_norm(h, alpha, beta, 1e-5);
            let ht = e.transpose_last2(h);
            let logits = e.bmm(h, ht);
            let logits = e.scale(logits, 1.0 / (6.0f32).sqrt());
            let wts = e.softmax_last(logits);
            let out = e.bmm(wts, h);
            let out = e.relu(out);
            let pooled = e.sum_axis1(out);
            e.value(pooled).data().iter().map(|v| v.to_bits()).collect()
        };
        let mut g = Graph::new();
        let mut n = NoGrad::new();
        assert_eq!(run(&mut g), run(&mut n));
    }

    /// The same chain, run twice through a recycled arena: the second pass
    /// must hit the pool and still be bit-identical to the first.
    #[test]
    fn arena_reuse_is_bitwise_stable() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let x = Array::randn(vec![2, 4, 6], 1.0, &mut rng);
        let w = Array::randn(vec![6, 6], 1.0, &mut rng);
        let run = |n: &mut NoGrad| -> Vec<u32> {
            let x = n.constant(x.clone());
            let w = n.constant(w.clone());
            let h = Exec::linear(n, x, w, None);
            let ht = Exec::transpose_last2(n, h);
            let logits = Exec::bmm(n, h, ht);
            let wts = Exec::softmax_last(n, logits);
            let out = Exec::bmm(n, wts, h);
            let pooled = Exec::max_axis1(n, out);
            n.value(pooled).data().iter().map(|v| v.to_bits()).collect()
        };
        let mut n1 = NoGrad::new();
        let first = run(&mut n1);
        let arena = n1.into_arena();
        let mut n2 = NoGrad::with_arena(arena);
        let second = run(&mut n2);
        assert_eq!(first, second);
        let stats = n2.arena_stats();
        assert!(stats.hits > 0, "second pass should reuse pooled buffers: {stats:?}");
    }

    #[test]
    fn nograd_dropout_is_identity_at_eval() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut n = NoGrad::new();
        let a = n.constant(Array::ones(vec![4]));
        let d = Exec::dropout(&mut n, a, 0.5, false, &mut rng);
        assert_eq!(d, a);
    }

    #[test]
    #[should_panic(expected = "inference-only")]
    fn nograd_rejects_training_dropout() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut n = NoGrad::new();
        let a = n.constant(Array::ones(vec![4]));
        let _ = Exec::dropout(&mut n, a, 0.5, true, &mut rng);
    }
}
