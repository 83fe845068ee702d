//! The one forward executor.
//!
//! [`Exec`] is where every forward op is written, once: its shape checks, its
//! output buffer, the shared `_into` kernel, one profiling guard and one FLOP
//! count. The tape type `T` decides what else is kept (see [`crate::graph`]):
//!
//! * [`NoGrad`] = `Exec<NoTape>` — the serving executor. It records nothing,
//!   never builds an op, and over a warmed arena (resumed with
//!   [`Exec::with_arena`], returned by [`Exec::into_arena`]) a forward pass
//!   performs zero heap allocations. Dropout in training mode is rejected.
//! * [`Graph`] = `Exec<OwnedTape>` — the training executor. It records each
//!   value's op and `requires_grad` flag beside it, so [`Graph::backward`]
//!   can run afterwards. Its values are exact-size allocations, not arena
//!   buffers (see `Exec::take`).
//!
//! **Parity by construction.** Both instantiations run the same method
//! bodies, so a forward pass produces bit-identical `f32` values on either
//! (pinned end to end by `crates/serve/tests/parity.rs`). The one op whose
//! body depends on the tape is [`Exec::taad_scores`]: the tape records the
//! composition it differentiates, and the serving executor runs the fused
//! [`kernels::taad_scores_into`], which is bit-identical to it. A warm arena
//! is bit-identical to a cold one because the `_into` kernels have set
//! semantics: recycled buffer contents are never read.
//!
//! **Profiling.** Each op opens one guard that times it and charges its
//! FLOPs to the profiler the executor was built for: a recording executor
//! reports to the tape profiler (`stisan_obs::tape_profiler`), a serving one
//! to the serve kernel table and flame tree while serve profiling is on
//! (`stisan_obs::flame`). There is one FLOP convention: `kernels::*_flops`
//! for the matmuls and the fused decoder; here, `1` per output element for
//! arithmetic elementwise ops, `4` for transcendental ones, `5` per element
//! for softmax, `8` for layer norm, `1` per input element for reductions,
//! and `0` for data movement.

use std::sync::Arc;
use std::time::Instant;

use rand::Rng;
use stisan_obs::flame::KernelGuard;
use stisan_obs::TapeProfiler;

use crate::arena::{Arena, ArenaStats};
use crate::array::Array;
use crate::broadcast::broadcast_shape;
use crate::graph::{Op, Tape, Var};
#[cfg(doc)]
use crate::graph::{Graph, NoGrad};
use crate::kernels;
use crate::lanes;
use crate::shape::Shape;

/// Where an executor reports each op's forward cost.
pub(crate) enum Profiler {
    Off,
    /// A tape profiler; backward reports per-op time here too.
    Tape(Arc<TapeProfiler>),
    /// The serve kernel table and flame tree.
    Serve,
}

/// One op's profiling guard: charges the op's wall time and FLOPs to the
/// executor's profiler when dropped.
struct OpGuard {
    tape: Option<(Arc<TapeProfiler>, &'static str, u64, Instant)>,
    _serve: Option<KernelGuard>,
}

impl Drop for OpGuard {
    fn drop(&mut self) {
        if let Some((profiler, kind, flops, t0)) = &self.tape {
            profiler.record_forward(kind, t0.elapsed().as_nanos() as u64, *flops);
        }
    }
}

/// Unique mutable view of an arena buffer. The arena only hands out unique
/// `Arc`s, so `make_mut` never clones — this is a plain field projection
/// with no panic path.
#[inline]
fn buf_mut(arc: &mut Arc<Vec<f32>>) -> &mut [f32] {
    Arc::make_mut(arc).as_mut_slice()
}

/// The output shape of a broadcasting binary op.
#[inline]
fn zip_shape(a: &Array, b: &Array) -> Shape {
    if a.shape() == b.shape() {
        a.shape_inline()
    } else {
        broadcast_shape(a.shape(), b.shape())
    }
}

/// The forward executor over tape `T` (see the module documentation).
///
/// Shape errors panic with descriptive messages before any work is done.
pub struct Exec<T: Tape> {
    vals: Vec<Array>,
    pub(crate) tape: T,
    pub(crate) prof: Profiler,
    arena: Arena,
}

impl<T: Tape> Default for Exec<T> {
    fn default() -> Self {
        Exec::new()
    }
}

impl<T: Tape> Exec<T> {
    /// An executor with a cold (empty) arena. A recording executor attaches
    /// the global tape profiler when observability is on (see
    /// `stisan_obs::init`); a serving one reports to the serve kernel table
    /// when serve profiling is on. Either way the choice is made once, here,
    /// and a disabled profiler costs one branch per op.
    pub fn new() -> Self {
        Exec::with_arena(Arena::new())
    }

    /// An executor that draws every output buffer from `arena`.
    pub fn with_arena(mut arena: Arena) -> Self {
        let prof = if T::RECORDS {
            stisan_obs::tape_profiler().map_or(Profiler::Off, Profiler::Tape)
        } else if stisan_obs::serve_profiling() {
            Profiler::Serve
        } else {
            Profiler::Off
        };
        Exec { vals: arena.take_vals(), tape: T::default(), prof, arena }
    }

    /// Reports to an explicit tape profiler (e.g. a run-local one in tests).
    pub fn set_profiler(&mut self, profiler: Arc<TapeProfiler>) {
        self.prof = Profiler::Tape(profiler);
    }

    /// Tears the executor down, recycling every value's storage into the
    /// arena and returning it for the next pass.
    pub fn into_arena(mut self) -> Arena {
        let vals = std::mem::take(&mut self.vals);
        self.arena.put_vals(vals);
        self.arena
    }

    /// Counters of the backing arena (pool hits/misses/drops).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Number of computed values.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether no values have been computed yet.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Appends a value and records the op that made it.
    fn push(&mut self, value: Array, requires_grad: bool, op: impl FnOnce() -> Op) -> Var {
        self.tape.record(requires_grad, op);
        self.vals.push(value);
        Var(self.vals.len() - 1)
    }

    /// Whether `v` needs a gradient (never, on a tape that does not record).
    #[inline]
    pub(crate) fn rg(&self, v: Var) -> bool {
        self.tape.requires_grad(v)
    }

    /// Storage for an `n`-float value. The serving executor draws it from its
    /// arena. A recording one allocates it exactly: a tape keeps every value
    /// until backward, so a per-step arena would hand each buffer out once,
    /// and its power-of-two buffers left the trainer's process 10–12 MB
    /// larger (`serving_rss_mb` on the 10k-POI workloads of `BENCHMARK.json`).
    #[inline]
    fn take(&mut self, n: usize) -> Arc<Vec<f32>> {
        if T::RECORDS {
            Arc::new(vec![0.0; n])
        } else {
            self.arena.take(n)
        }
    }

    #[inline]
    fn guard(&self, kind: &'static str, flops: u64) -> OpGuard {
        match &self.prof {
            Profiler::Off => OpGuard { tape: None, _serve: None },
            Profiler::Tape(p) => {
                OpGuard { tape: Some((Arc::clone(p), kind, flops, Instant::now())), _serve: None }
            }
            Profiler::Serve => {
                OpGuard { tape: None, _serve: Some(stisan_obs::flame::kernel(kind, flops)) }
            }
        }
    }

    /// The body every buffer-producing op shares: under one `kind` guard
    /// charged `flops`, `kernel` fills a buffer of shape `sh`.
    #[inline]
    fn compute(
        &mut self,
        kind: &'static str,
        flops: u64,
        sh: Shape,
        kernel: impl FnOnce(&Self, &mut [f32]),
    ) -> Array {
        let g = self.guard(kind, flops);
        let mut buf = self.take(sh.numel());
        kernel(self, buf_mut(&mut buf));
        drop(g);
        Array::from_arc(sh, buf)
    }

    /// Unary elementwise op: `per_elem` FLOPs per element.
    #[inline]
    fn map_op(
        &mut self,
        kind: &'static str,
        a: Var,
        per_elem: u64,
        f: impl Fn(f32) -> f32,
        op: impl FnOnce() -> Op,
    ) -> Var {
        let sh = self.value(a).shape_inline();
        let v = self.compute(kind, per_elem * sh.numel() as u64, sh, |e, out| {
            kernels::map_into(e.value(a).data(), out, f)
        });
        self.push(v, self.rg(a), op)
    }

    /// Broadcasting binary elementwise op: one FLOP per output element.
    #[inline]
    fn zip_op(
        &mut self,
        kind: &'static str,
        a: Var,
        b: Var,
        f: impl Fn(f32, f32) -> f32,
        op: impl FnOnce() -> Op,
    ) -> Var {
        let sh = zip_shape(self.value(a), self.value(b));
        let v = self.compute(kind, sh.numel() as u64, sh, |e, out| {
            let (av, bv) = (e.value(a), e.value(b));
            kernels::zip_into(av.data(), av.shape(), bv.data(), bv.shape(), &sh, out, f)
        });
        self.push(v, self.rg(a) || self.rg(b), op)
    }

    /// Broadcasting binary elementwise op against a constant array: one
    /// FLOP per output element.
    #[inline]
    fn zip_const(&mut self, kind: &'static str, a: Var, c: &Array, f: impl Fn(f32, f32) -> f32) -> Array {
        let sh = zip_shape(self.value(a), c);
        self.compute(kind, sh.numel() as u64, sh, |e, out| {
            let av = e.value(a);
            kernels::zip_into(av.data(), av.shape(), c.data(), c.shape(), &sh, out, f)
        })
    }

    /// Adds an input node. `requires_grad` marks trainable parameters (a
    /// no-op on a tape that does not record).
    pub fn leaf(&mut self, value: Array, requires_grad: bool) -> Var {
        self.push(value, requires_grad, || Op::Leaf)
    }

    /// Adds a non-trainable input node.
    pub fn constant(&mut self, value: Array) -> Var {
        self.leaf(value, false)
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Array {
        &self.vals[v.0]
    }

    /// Clones a node's value out of the executor, cutting any gradient flow.
    pub fn detach(&self, v: Var) -> Array {
        self.value(v).clone()
    }

    /// Elementwise sum with broadcasting.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.zip_op("add", a, b, |x, y| x + y, || Op::Add(a, b))
    }

    /// Elementwise difference with broadcasting.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.zip_op("sub", a, b, |x, y| x - y, || Op::Sub(a, b))
    }

    /// Elementwise product with broadcasting.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.zip_op("mul", a, b, |x, y| x * y, || Op::Mul(a, b))
    }

    /// Multiplies by a scalar constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        self.map_op("scale", a, 1, |x| x * c, || Op::Scale(a, c))
    }

    /// Adds a scalar constant.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        self.map_op("add_scalar", a, 1, |x| x + c, || Op::AddScalar(a))
    }

    /// Elementwise negation. A multiply by `-1`, not `-x`: the two differ
    /// on NaN payloads, and the multiply is what `scale(-1.0)` computes.
    #[allow(clippy::neg_multiply)]
    pub fn neg(&mut self, a: Var) -> Var {
        self.map_op("neg", a, 1, |x| x * -1.0, || Op::Neg(a))
    }

    /// Affine map over the last dimension (`Linear` layer core): `x: [.., k]`,
    /// `w: [k, f]` and an optional bias `b: [f]`.
    pub fn linear(&mut self, x: Var, w: Var, b: Option<Var>) -> Var {
        let (sh, rows, k, f_dim) = {
            let (xv, wv) = (self.value(x), self.value(w));
            assert_eq!(wv.ndim(), 2, "matmul_last: weight must be 2-D");
            let k = *xv.shape().last().expect("matmul_last: scalar input");
            assert_eq!(k, wv.shape()[0], "matmul_last: inner dims {k} vs {}", wv.shape()[0]);
            let f_dim = wv.shape()[1];
            if let Some(b) = b {
                assert_eq!(self.value(b).shape(), &[f_dim], "linear: bias must be [{f_dim}]");
            }
            let mut sh = xv.shape_inline();
            let nd = sh.len();
            sh[nd - 1] = f_dim;
            (sh, xv.len() / k, k, f_dim)
        };
        let flops = kernels::linear_flops(self.value(x), self.value(w), b.is_some());
        let v = self.compute("linear", flops, sh, |e, out| {
            let bias = b.map(|b| e.value(b).data());
            kernels::linear_forward_into(e.value(x).data(), e.value(w).data(), bias, out, rows, k, f_dim)
        });
        let rg = self.rg(x) || self.rg(w) || b.is_some_and(|b| self.rg(b));
        self.push(v, rg, || Op::Linear { x, w, b })
    }

    /// 2-D matrix product (alias of [`Exec::linear`] without bias).
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(a).ndim(), 2, "matmul lhs must be 2-D");
        self.linear(a, b, None)
    }

    /// Batched 3-D matrix product.
    pub fn bmm(&mut self, a: Var, b: Var) -> Var {
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
        let flops = kernels::bmm_flops(self.value(a), self.value(b));
        let v = self.compute("bmm", flops, Shape::of(&[bsz, m, n]), |e, out| {
            kernels::bmm_into(e.value(a).data(), e.value(b).data(), out, bsz, m, k, n)
        });
        self.push(v, self.rg(a) || self.rg(b), || Op::Bmm(a, b))
    }

    /// Transposes the last two dimensions.
    pub fn transpose_last2(&mut self, a: Var) -> Var {
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
        let v = self.compute("transpose", 0, sh, |e, out| {
            kernels::transpose_last2_into(e.value(a).data(), out, batch, r, c)
        });
        self.push(v, self.rg(a), || Op::TransposeLast2(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.map_op("relu", a, 1, |x| x.max(0.0), || Op::Relu(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.map_op("sigmoid", a, 4, kernels::stable_sigmoid, || Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.map_op("tanh", a, 4, f32::tanh, || Op::Tanh(a))
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        self.map_op("exp", a, 4, f32::exp, || Op::Exp(a))
    }

    /// Elementwise natural logarithm.
    pub fn log(&mut self, a: Var) -> Var {
        self.map_op("log", a, 4, f32::ln, || Op::Log(a))
    }

    /// Numerically stable softplus `ln(1+e^x)`.
    pub fn softplus(&mut self, a: Var) -> Var {
        self.map_op("softplus", a, 4, kernels::softplus_scalar, || Op::Softplus(a))
    }

    /// Softmax over the last dimension.
    pub fn softmax_last(&mut self, a: Var) -> Var {
        let (w, sh) = {
            let av = self.value(a);
            (*av.shape().last().expect("softmax_last: scalar input"), av.shape_inline())
        };
        let v = self.compute("softmax", 5 * sh.numel() as u64, sh, |e, out| {
            kernels::softmax_last_into(e.value(a).data(), out, w)
        });
        self.push(v, self.rg(a), || Op::SoftmaxLast(a))
    }

    /// Sum of all elements (scalar output).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let flops = self.value(a).len() as u64;
        let v = self.compute("sum_all", flops, Shape::scalar(), |e, out| out[0] = e.value(a).sum_all());
        self.push(v, self.rg(a), || Op::SumAll(a))
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let flops = self.value(a).len() as u64;
        let v = self.compute("mean_all", flops, Shape::scalar(), |e, out| out[0] = e.value(a).mean_all());
        self.push(v, self.rg(a), || Op::MeanAll(a))
    }

    /// Sum over the last dimension.
    pub fn sum_last(&mut self, a: Var) -> Var {
        let (w, flops, sh) = {
            let av = self.value(a);
            let w = *av.shape().last().expect("sum_last: scalar input");
            (w, av.len() as u64, Shape::of(&av.shape()[..av.ndim() - 1]))
        };
        let v = self.compute("sum_last", flops, sh, |e, out| kernels::sum_last_into(e.value(a).data(), out, w));
        self.push(v, self.rg(a), || Op::SumLast(a))
    }

    /// `[b, n, d]` dims of a 3-D value.
    fn dims3(&self, v: Var, what: &str) -> (usize, usize, usize) {
        let s = self.value(v).shape();
        assert_eq!(s.len(), 3, "{what}: input must be 3-D, got {s:?}");
        (s[0], s[1], s[2])
    }

    /// Sum of a 3-D array over axis 1.
    pub fn sum_axis1(&mut self, a: Var) -> Var {
        let (b, n, d) = self.dims3(a, "sum_axis1");
        let v = self.compute("sum_axis1", (b * n * d) as u64, Shape::of(&[b, d]), |e, out| {
            kernels::sum_axis1_into(e.value(a).data(), out, b, n, d)
        });
        self.push(v, self.rg(a), || Op::SumAxis1(a))
    }

    /// Max of a 3-D array over axis 1 (time-dimension max pooling).
    pub fn max_axis1(&mut self, a: Var) -> Var {
        let (b, n, d) = self.dims3(a, "max_axis1");
        let v = self.compute("max_axis1", (b * n * d) as u64, Shape::of(&[b, d]), |e, out| {
            kernels::max_axis1_into(e.value(a).data(), out, b, n, d)
        });
        self.push(v, self.rg(a), || Op::MaxAxis1(a))
    }

    /// Embedding lookup: rows of a 2-D `table` selected by `indices`, shaped
    /// `batch_shape + [d]`.
    pub fn gather(&mut self, table: Var, indices: &[usize], batch_shape: &[usize]) -> Var {
        let (t_rows, d) = {
            let t = self.value(table);
            assert_eq!(t.ndim(), 2, "gather: table must be 2-D");
            (t.shape()[0], t.shape()[1])
        };
        let rows: usize = batch_shape.iter().product();
        assert_eq!(rows, indices.len(), "gather: batch shape {batch_shape:?} vs {} indices", indices.len());
        let mut sh = Shape::of(batch_shape);
        sh.push(d);
        let v = self.compute("gather", 0, sh, |e, out| {
            kernels::gather_rows_into(e.value(table).data(), t_rows, d, indices, out)
        });
        self.push(v, self.rg(table), || Op::Gather { table, indices: Arc::new(indices.to_vec()) })
    }

    /// `(rows, last dim, shape)` of `v` with its last dimension replaced by
    /// `last`.
    fn last_dim_swapped(&self, v: Var, last: usize, what: &str) -> (usize, usize, Shape) {
        let vv = self.value(v);
        let w = *vv.shape().last().unwrap_or_else(|| panic!("{what}: scalar input"));
        let mut sh = vv.shape_inline();
        let nd = sh.len();
        sh[nd - 1] = last;
        (vv.len() / w, w, sh)
    }

    /// Per-row lookup along the last dimension:
    /// `v: [..., K]`, `idx: flat [rows * m_out]` → `out: [..., m_out]`.
    pub fn gather_last(&mut self, v: Var, idx: Arc<Vec<usize>>, m_out: usize) -> Var {
        let (rows, k, sh) = self.last_dim_swapped(v, m_out, "gather_last");
        assert_eq!(idx.len(), rows * m_out, "gather_last: index count mismatch");
        let out = self.compute("gather_last", 0, sh, |e, out| {
            kernels::gather_last_into(e.value(v).data(), k, &idx, m_out, out)
        });
        self.push(out, self.rg(v), || Op::GatherLast { v, idx, m_out })
    }

    /// Per-row scatter-add along the last dimension (dual of `gather_last`):
    /// `a: [..., M]`, `idx: flat [rows * M]` → `out: [..., k_out]` where
    /// `out[r, idx[r,m]] += a[r, m]`.
    pub fn scatter_add_last(&mut self, a: Var, idx: Arc<Vec<usize>>, k_out: usize) -> Var {
        let (rows, m, sh) = self.last_dim_swapped(a, k_out, "scatter_add_last");
        assert_eq!(idx.len(), rows * m, "scatter_add_last: index count mismatch");
        let v = self.compute("scatter_add_last", (rows * m) as u64, sh, |e, out| {
            kernels::scatter_add_last_into(e.value(a).data(), m, &idx, k_out, out)
        });
        self.push(v, self.rg(a), || Op::ScatterAddLast { a, idx, k_out })
    }

    /// Concatenates along the last dimension.
    pub fn concat_last(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_last: no inputs");
        let (nd, rows, last_total, sh) = {
            let first = self.value(parts[0]);
            let nd = first.ndim();
            let mut last_total = 0usize;
            for &p in parts {
                let pv = self.value(p);
                assert_eq!(pv.ndim(), nd, "concat_last: rank mismatch");
                assert_eq!(&pv.shape()[..nd - 1], &first.shape()[..nd - 1], "concat_last: leading dims differ");
                last_total += pv.shape()[nd - 1];
            }
            let rows: usize = first.shape()[..nd - 1].iter().product();
            let mut sh = first.shape_inline();
            sh[nd - 1] = last_total;
            (nd, rows, last_total, sh)
        };
        let v = self.compute("concat_last", 0, sh, |e, dst| {
            for r in 0..rows {
                let mut o = r * last_total;
                for &p in parts {
                    let pv = e.value(p);
                    let w = pv.shape()[nd - 1];
                    dst[o..o + w].copy_from_slice(&pv.data()[r * w..(r + 1) * w]);
                    o += w;
                }
            }
        });
        let rg = parts.iter().any(|&p| self.rg(p));
        self.push(v, rg, || Op::ConcatLast(parts.to_vec()))
    }

    /// Slices the last dimension.
    pub fn slice_last(&mut self, v: Var, start: usize, len: usize) -> Var {
        let (_, w, sh) = self.last_dim_swapped(v, len, "slice_last");
        assert!(start + len <= w, "slice_last: {start}+{len} > {w}");
        let out = self.compute("slice_last", 0, sh, |e, out| {
            kernels::slice_last_into(e.value(v).data(), out, w, start, len)
        });
        self.push(out, self.rg(v), || Op::SliceLast { v, start, len })
    }

    /// Reinterprets the shape (a view: the storage is shared).
    pub fn reshape(&mut self, v: Var, shape: &[usize]) -> Var {
        let g = self.guard("reshape", 0);
        let out = self.value(v).reshape(shape);
        drop(g);
        self.push(out, self.rg(v), || Op::Reshape(v))
    }

    /// Layer normalization over the last dimension (Eq 9 of the paper).
    ///
    /// # Panics
    /// Panics, before computing anything, when `alpha`/`beta` are not
    /// `[width]`.
    pub fn layer_norm(&mut self, x: Var, alpha: Var, beta: Var, eps: f32) -> Var {
        let (w, sh) = {
            let xv = self.value(x);
            (*xv.shape().last().expect("layer_norm: scalar input"), xv.shape_inline())
        };
        assert_eq!(self.value(alpha).shape(), &[w], "layer_norm: alpha must be [width]");
        assert_eq!(self.value(beta).shape(), &[w], "layer_norm: beta must be [width]");
        let v = self.compute("layer_norm", 8 * sh.numel() as u64, sh, |e, out| {
            let (xv, av, bv) = (e.value(x), e.value(alpha), e.value(beta));
            kernels::layer_norm_affine_into(xv.data(), av.data(), bv.data(), eps, out, w)
        });
        let rg = self.rg(x) || self.rg(alpha) || self.rg(beta);
        self.push(v, rg, || Op::LayerNorm { x, alpha, beta, eps })
    }

    /// Elementwise product with a constant array (masking, dropout). A
    /// recording tape keeps `c` for backward; otherwise its storage goes
    /// back to the arena.
    pub fn mul_const(&mut self, a: Var, c: Array) -> Var {
        let v = self.zip_const("mul_const", a, &c, |x, y| x * y);
        let rg = self.rg(a);
        if T::RECORDS {
            self.push(v, rg, || Op::MulConst(a, c))
        } else {
            self.arena.recycle(c.into_data());
            self.push(v, rg, || Op::Leaf) // never built: this tape records nothing
        }
    }

    /// Elementwise sum with a constant array (attention masks, biases). The
    /// constant's storage goes back to the arena (backward does not read it).
    pub fn add_const(&mut self, a: Var, c: Array) -> Var {
        let v = self.zip_const("add_const", a, &c, |x, y| x + y);
        self.arena.recycle(c.into_data());
        self.push(v, self.rg(a), || Op::AddConst(a))
    }

    /// Inverted dropout: at train time multiplies by a Bernoulli mask scaled
    /// by `1/keep`; at eval time is the identity.
    ///
    /// # Panics
    /// Panics when `training` is set on an executor that does not record:
    /// the serving executor is for frozen weights.
    pub fn dropout<R: Rng>(&mut self, a: Var, rate: f32, training: bool, rng: &mut R) -> Var {
        assert!(T::RECORDS || !training, "NoGrad is inference-only: dropout cannot run in training mode");
        if !training || rate <= 0.0 {
            return a;
        }
        assert!(rate < 1.0, "dropout rate must be < 1");
        let keep = 1.0 - rate;
        let shape = self.value(a).shape_inline();
        let mask: Vec<f32> =
            (0..shape.numel()).map(|_| if rng.gen_range(0.0..1.0f32) < keep { 1.0 / keep } else { 0.0 }).collect();
        self.mul_const(a, Array::from_parts(shape, mask))
    }

    /// Stacks `k` arrays of shape `[b,d]` into `[b,k,d]`.
    pub fn stack_axis1(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "stack_axis1: no inputs");
        let (b, d) = {
            let first = self.value(parts[0]);
            assert_eq!(first.ndim(), 2, "stack_axis1: parts must be 2-D");
            (first.shape()[0], first.shape()[1])
        };
        let k = parts.len();
        for &p in parts {
            assert_eq!(self.value(p).shape(), &[b, d], "stack_axis1: shape mismatch");
        }
        let v = self.compute("stack_axis1", 0, Shape::of(&[b, k, d]), |e, dst| {
            for (j, &p) in parts.iter().enumerate() {
                kernels::stack_part_into(e.value(p).data(), dst, j, b, k, d);
            }
        });
        let rg = parts.iter().any(|&p| self.rg(p));
        self.push(v, rg, || Op::StackAxis1(parts.to_vec()))
    }

    /// Extracts time step `idx`: `[b,n,d] -> [b,d]`.
    pub fn slice_axis1(&mut self, v: Var, idx: usize) -> Var {
        let (b, n, d) = self.dims3(v, "slice_axis1");
        assert!(idx < n, "slice_axis1: step {idx} out of {n}");
        let out = self.compute("slice_axis1", 0, Shape::of(&[b, d]), |e, out| {
            kernels::slice_axis1_into(e.value(v).data(), out, idx, b, n, d)
        });
        self.push(out, self.rg(v), || Op::SliceAxis1 { v, idx })
    }

    /// Sliding-window unfold over axis 1: `[b,n,d] -> [b, n-w+1, w*d]`.
    pub fn unfold1(&mut self, v: Var, width: usize) -> Var {
        let (b, n, d) = self.dims3(v, "unfold1");
        assert!(width >= 1 && width <= n, "unfold1: width {width} out of 1..={n}");
        let sh = Shape::of(&[b, n - width + 1, width * d]);
        let out = self.compute("unfold1", 0, sh, |e, out| kernels::unfold1_into(e.value(v).data(), out, b, n, d, width));
        self.push(out, self.rg(v), || Op::Unfold1 { v, width })
    }

    /// Target-aware attention decoding (GeoSAN's decoder, STiSAN's TAAD,
    /// paper Eq 10–11): each candidate attends over the sequence positions
    /// it may see and is scored by the inner product with its attended
    /// summary, `y = Attn(C, F, F) · C`. Since `F` is both keys and values,
    /// that is `y = Σ_j p_j u_j` with `u = C·Fᵀ` and
    /// `p = softmax(u/√d + mask)`: one matrix product, not two.
    ///
    /// * `f`: `[b, n, d]` encoder output;
    /// * `c`: `[b, m, d]` candidate representations;
    /// * `mask`: `[b, m, n]` additive mask (`0` where a candidate may
    ///   attend, `-1e9` elsewhere), or `[b, 1, n]` when every candidate of a
    ///   sequence sees the same positions.
    ///
    /// Returns `[b, m]` scores. A recording tape ([`Tape::RECORDS`]) records
    /// the composition it differentiates, `bmm(c, fᵀ)` → scale → `+mask` →
    /// softmax → `mul(w, u)` → `sum_last`; the serving executor runs the
    /// fused [`kernels::taad_scores_into`] (kind `taad`), which is
    /// bit-identical to it and reports the same FLOPs. When its arena
    /// carries helper [`Lanes`](crate::Lanes), the candidate chunks are
    /// shared with them, with the same bits and one guard on the caller.
    pub fn taad_scores(&mut self, f: Var, c: Var, mask: Array) -> Var {
        let (b, n, d) = self.dims3(f, "taad_scores");
        let m = self.value(c).shape().get(1).copied().unwrap_or(0);
        assert_eq!(self.value(c).shape(), &[b, m, d], "taad_scores: c must be [b, m, d]");
        assert!(
            mask.shape() == [b, m, n] || mask.shape() == [b, 1, n],
            "taad_scores: mask must be [b, m, n] or [b, 1, n]"
        );
        if T::RECORDS {
            let ft = self.transpose_last2(f);
            let u = self.bmm(c, ft); // [b, m, n]
            let logits = self.scale(u, 1.0 / (d as f32).sqrt());
            let logits = self.add_const(logits, mask);
            let w = self.softmax_last(logits);
            let prod = self.mul(w, u);
            return self.sum_last(prod); // [b, m]
        }
        let g = self.guard("taad", kernels::taad_flops(b, m, n, d));
        let mut out = self.take(b * m);
        let (fv, cv) = (&self.vals[f.0], &self.vals[c.0]);
        match self.arena.lanes().cloned() {
            Some(split) => out = split.taad_scores(&mut self.arena, fv, cv, &mask, out),
            None => lanes::taad_serial(&mut self.arena, fv, cv, &mask, buf_mut(&mut out)),
        }
        drop(g);
        let v = Array::from_arc(Shape::of(&[b, m]), out);
        self.arena.recycle(mask.into_data());
        self.push(v, false, || Op::Leaf) // never built: this tape records nothing
    }

    /// A free-standing scratch array (from the arena, when serving), for
    /// building per-request constants (masks, positional matrices, interval biases)
    /// that will be fed back through [`Exec::mul_const`] /
    /// [`Exec::add_const`] / [`Exec::constant`].
    ///
    /// **Contents are unspecified** — callers must overwrite every element
    /// before the array is read (the same set-semantics contract as the
    /// `_into` kernels). This is what makes request prep allocation-free on
    /// a warm serving arena.
    pub fn scratch_array(&mut self, shape: &[usize]) -> Array {
        let sh = Shape::of(shape);
        let buf = self.take(sh.numel());
        Array::from_arc(sh, buf)
    }

    /// Offers a constant array's storage back to the arena once the caller
    /// no longer needs it (e.g. originals of masks whose clones were
    /// consumed by `add_const` during the block loop). Shared storages, and
    /// the exact-size ones a recording tape allocates, are dropped
    /// harmlessly.
    pub fn recycle_const(&mut self, c: Array) {
        self.arena.recycle(c.into_data());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, NoGrad};
    use rand::SeedableRng;

    /// Runs the same mixed op chain on both tapes and asserts bit equality
    /// of the result — the micro version of the serve parity suite.
    #[test]
    fn nograd_matches_graph_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = Array::randn(vec![2, 4, 6], 1.0, &mut rng);
        let w = Array::randn(vec![6, 6], 1.0, &mut rng);
        let alpha = Array::ones(vec![6]);
        let beta = Array::zeros(vec![6]);
        fn run<T: Tape>(e: &mut Exec<T>, x: &Array, w: &Array, alpha: &Array, beta: &Array) -> Vec<u32> {
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
        }
        let tape = run(&mut Graph::new(), &x, &w, &alpha, &beta);
        assert_eq!(tape, run(&mut NoGrad::new(), &x, &w, &alpha, &beta));
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
            let h = n.linear(x, w, None);
            let ht = n.transpose_last2(h);
            let logits = n.bmm(h, ht);
            let wts = n.softmax_last(logits);
            let out = n.bmm(wts, h);
            let pooled = n.max_axis1(out);
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
        let d = n.dropout(a, 0.5, false, &mut rng);
        assert_eq!(d, a);
    }

    #[test]
    #[should_panic(expected = "inference-only")]
    fn nograd_rejects_training_dropout() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut n = NoGrad::new();
        let a = n.constant(Array::ones(vec![4]));
        let _ = n.dropout(a, 0.5, true, &mut rng);
    }

    #[test]
    fn concat_and_reductions() {
        let mut g = NoGrad::new();
        let a = g.constant(Array::from_vec(vec![2, 2], vec![1., 2., 3., 4.]));
        let b = g.constant(Array::from_vec(vec![2, 3], vec![5., 6., 7., 8., 9., 10.]));
        let c = g.concat_last(&[a, b]);
        assert_eq!(g.value(c).shape(), &[2, 5]);
        assert_eq!(g.value(c).data(), &[1., 2., 5., 6., 7., 3., 4., 8., 9., 10.]);
        let x = g.constant(Array::from_vec(vec![2, 2, 2], vec![1., 2., 3., 4., 5., 6., 7., 8.]));
        let (last, axis1, all) = (g.sum_last(x), g.sum_axis1(x), g.sum_all(x));
        assert_eq!(g.value(last).data(), &[3., 7., 11., 15.]);
        assert_eq!(g.value(axis1).data(), &[4., 6., 12., 14.]);
        assert_eq!(g.value(all).item(), 36.0);
    }

    /// A two-sided broadcast `[3,1] + [1,4]` is 12 FLOPs — one per output
    /// element — in the tape profiler and in the serve kernel table alike,
    /// for `add` and for `add_const`.
    #[test]
    fn two_sided_broadcast_counts_the_output_on_both_tapes() {
        fn record<T: Tape>(e: &mut Exec<T>) {
            let col = e.constant(Array::ones(vec![3, 1]));
            let row = e.constant(Array::ones(vec![1, 4]));
            e.add(col, row);
            e.add_const(col, Array::ones(vec![1, 4]));
        }
        let flops = |rows: &[stisan_obs::OpKindRow], kind: &str| {
            rows.iter().find(|r| r.kind == kind).map(|r| r.stats.flops)
        };

        let tape = Arc::new(TapeProfiler::new());
        let mut g = Graph::new();
        g.set_profiler(Arc::clone(&tape));
        record(&mut g);
        let rows = tape.snapshot();
        assert_eq!((flops(&rows, "add"), flops(&rows, "add_const")), (Some(12), Some(12)));

        // The serve table is process-global; no other test in this binary
        // runs a serving `add` or `add_const`.
        let serve = &stisan_obs::init().serve_prof;
        stisan_obs::flame::enable();
        record(&mut NoGrad::new());
        stisan_obs::flame::disable();
        let rows = serve.kernels.snapshot();
        assert_eq!((flops(&rows, "add"), flops(&rows, "add_const")), (Some(12), Some(12)));
    }
}
