//! # stisan-tensor
//!
//! A small, dependency-light dense tensor library with reverse-mode automatic
//! differentiation, written from scratch as the numerical substrate for the
//! STiSAN (ICDE 2022) reproduction.
//!
//! The library provides:
//!
//! * [`Array`] — an immutable-by-default, row-major, `f32` n-dimensional array
//!   with `Arc`-backed storage (cheap clones, copy-on-write mutation),
//!   NumPy-style right-aligned broadcasting, 2-D and batched 3-D matrix
//!   multiplication, reductions, softmax and layer normalization kernels.
//! * [`Exec`] — the one forward executor: every op's shape checks, output
//!   buffer, kernel call, profiling and FLOP count are written once, on it.
//!   It is generic over a [`Tape`]: [`NoGrad`] (`Exec<NoTape>`) serves
//!   frozen weights and records nothing; [`Graph`] (`Exec<OwnedTape>`)
//!   records a closed-`enum` op per value, so [`Graph::backward`] can
//!   differentiate. The same layer/model code runs on either, with
//!   bit-identical forward values by construction.
//! * [`grad_check`](check::grad_check) — a central finite-difference gradient
//!   checker used by the test-suite to validate every differentiable op.
//!
//! Shape errors panic with descriptive messages (the convention of `ndarray`
//! and friends): a shape mismatch inside a model is a programming bug, not a
//! recoverable condition.
//!
//! ```
//! use stisan_tensor::{Array, Graph};
//!
//! let mut g = Graph::new();
//! let x = g.leaf(Array::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]), true);
//! let w = g.leaf(Array::from_vec(vec![3, 2], vec![0.5; 6]), true);
//! let y = g.matmul(x, w);
//! let loss = g.sum_all(y);
//! g.backward(loss);
//! assert_eq!(g.grad(w).unwrap().shape(), &[3, 2]);
//! ```

pub mod arena;
mod array;
mod broadcast;
pub mod check;
mod exec;
mod graph;
mod init;
pub mod kernels;
pub mod lanes;
pub mod quant;
mod shape;

pub use arena::{Arena, ArenaStats};
pub use array::{suggested_workers, worker_cap, Array};
pub use broadcast::{broadcast_shape, broadcast_shapes};
pub use exec::Exec;
pub use graph::{Graph, NoGrad, NoTape, OwnedTape, Tape, Var};
pub use lanes::Lanes;
pub use init::{xavier_uniform, normal_init};
pub use shape::{Shape, MAX_DIMS};
