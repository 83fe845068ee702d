//! Property-based tests of algebraic tensor invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stisan_tensor::{Array, NoGrad};

fn arr(shape: Vec<usize>, seed: u64) -> Array {
    let mut rng = StdRng::seed_from_u64(seed);
    Array::uniform(shape, -2.0, 2.0, &mut rng)
}

fn close(a: &Array, b: &Array, tol: f32) -> bool {
    a.shape() == b.shape()
        && a.data().iter().zip(b.data()).all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Matrix multiplication is associative (up to f32 rounding).
    #[test]
    fn matmul_associative(m in 1usize..5, k in 1usize..5, n in 1usize..5, p in 1usize..5, s in 0u64..100) {
        let a = arr(vec![m, k], s);
        let b = arr(vec![k, n], s + 1);
        let c = arr(vec![n, p], s + 2);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(close(&left, &right, 1e-4));
    }

    /// `(A B)ᵀ = Bᵀ Aᵀ`.
    #[test]
    fn matmul_transpose_identity(m in 1usize..5, k in 1usize..5, n in 1usize..5, s in 0u64..100) {
        let a = arr(vec![m, k], s);
        let b = arr(vec![k, n], s + 7);
        let lhs = a.matmul(&b).transpose_last2();
        let rhs = b.transpose_last2().matmul(&a.transpose_last2());
        prop_assert!(close(&lhs, &rhs, 1e-5));
    }

    /// Transpose is an involution.
    #[test]
    fn transpose_involution(b in 1usize..4, m in 1usize..5, n in 1usize..5, s in 0u64..100) {
        let a = arr(vec![b, m, n], s);
        prop_assert_eq!(a.transpose_last2().transpose_last2(), a);
    }

    /// Elementwise add/mul commute under broadcasting.
    #[test]
    fn add_mul_commutative(r in 1usize..5, c in 1usize..5, s in 0u64..100) {
        let a = arr(vec![r, c], s);
        let b = arr(vec![c], s + 3);
        prop_assert!(close(&a.add(&b), &b.add(&a), 1e-6));
        prop_assert!(close(&a.mul(&b), &b.mul(&a), 1e-6));
    }

    /// Softmax is invariant to adding a constant per row.
    #[test]
    fn softmax_shift_invariant(c in 2usize..6, shift in -5.0f32..5.0, s in 0u64..100) {
        let mut g = NoGrad::new();
        let a = g.constant(arr(vec![3, c], s));
        let shifted = g.add_scalar(a, shift);
        let (sa, ss) = (g.softmax_last(a), g.softmax_last(shifted));
        prop_assert!(close(g.value(sa), g.value(ss), 1e-5));
    }

    /// `sum_last` then `sum_all` equals `sum_all` directly.
    #[test]
    fn reduction_consistency(b in 1usize..4, n in 1usize..5, d in 1usize..5, s in 0u64..100) {
        let mut g = NoGrad::new();
        let a = g.constant(arr(vec![b, n, d], s));
        let (last, axis1) = (g.sum_last(a), g.sum_axis1(a));
        let (via_last, via_axis1, direct) = (g.sum_all(last), g.sum_all(axis1), g.sum_all(a));
        let [via_last, via_axis1, direct] = [via_last, via_axis1, direct].map(|v| g.value(v).item());
        prop_assert!((via_last - direct).abs() < 1e-3 * (1.0 + direct.abs()));
        prop_assert!((via_axis1 - direct).abs() < 1e-3 * (1.0 + direct.abs()));
    }

    /// `reduce_to_shape` is the exact adjoint of broadcasting:
    /// `sum(broadcast(b) * g) == sum(b * reduce(g))`.
    #[test]
    fn reduce_is_broadcast_adjoint(r in 1usize..5, c in 1usize..5, s in 0u64..100) {
        let b = arr(vec![c], s);
        let g = arr(vec![r, c], s + 11);
        let zeros = Array::zeros(vec![r, c]);
        let broadcast_b = zeros.add(&b);
        let lhs = broadcast_b.mul(&g).sum_all();
        let rhs = b.mul(&g.reduce_to_shape(&[c])).sum_all();
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()));
    }

    /// axpy is exactly `self + c * other`.
    #[test]
    fn axpy_definition(n in 1usize..16, c in -3.0f32..3.0, s in 0u64..100) {
        let a = arr(vec![n], s);
        let b = arr(vec![n], s + 5);
        let mut left = a.clone();
        left.axpy(c, &b);
        let right = a.add(&b.scale(c));
        prop_assert!(close(&left, &right, 1e-6));
    }
}
