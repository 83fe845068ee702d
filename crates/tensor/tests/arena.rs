//! Arena correctness at the execution-backend level: a recycled (even
//! deliberately poisoned) arena must be invisible in the numbers.
//!
//! The invariant (DESIGN.md §14): every `_into` kernel has *set* semantics —
//! each output element is written before it is read — so `NoGrad` can serve
//! a forward pass out of reused buffers without clearing them, and the
//! result is bit-identical to a fresh-allocation run. These tests attack
//! that invariant directly by filling recycled storage with a sentinel
//! between runs and by checking that concurrently-live node values never
//! share storage.

use stisan_tensor::{Array, NoGrad, Var};

/// A deterministic mini forward pass shaped like the model's hot loop
/// (linear → attention-style bmm/softmax → layer norm → reduction), touching
/// buffers of several size classes. Returns the final node.
fn chain(g: &mut NoGrad) -> Var {
    let x = g.constant(Array::from_vec(
        vec![2, 3, 8],
        (0..48).map(|i| ((i * 37) % 23) as f32 * 0.25 - 2.0).collect(),
    ));
    let w = g.constant(Array::from_vec(
        vec![8, 8],
        (0..64).map(|i| ((i * 29) % 17) as f32 * 0.125 - 1.0).collect(),
    ));
    let alpha = g.constant(Array::ones(vec![8]));
    let beta = g.constant(Array::from_vec(vec![8], vec![0.1; 8]));
    let x2 = g.reshape(x, &[6, 8]);
    let h = g.linear(x2, w, None);
    let h = g.relu(h);
    let h = g.reshape(h, &[2, 3, 8]);
    let ht = g.transpose_last2(h);
    let att = g.bmm(h, ht); // [2, 3, 3]
    let att = g.softmax_last(att);
    let mixed = g.bmm(att, h); // [2, 3, 8]
    let normed = g.layer_norm(mixed, alpha, beta, 1e-5);
    let s = g.sum_axis1(normed); // [2, 8]
    g.softmax_last(s)
}

fn run(g: &mut NoGrad) -> Vec<f32> {
    let y = chain(g);
    g.value(y).data().to_vec()
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: lane {i} diverged: {x:?} vs {y:?}"
        );
    }
}

/// Fresh-alloc and warm-arena runs are bit-identical, and the warm run
/// actually reuses pooled storage (it is not quietly re-allocating).
#[test]
fn warm_arena_is_bitwise_identical_and_reuses_storage() {
    let mut fresh = NoGrad::new();
    let baseline = run(&mut fresh);

    let arena = fresh.into_arena();
    assert!(arena.pooled_buffers() > 0, "recycling produced an empty pool");

    let mut warm = NoGrad::with_arena(arena);
    let rerun = run(&mut warm);
    assert_bits_eq(&baseline, &rerun, "warm arena");

    let stats = warm.arena_stats();
    assert!(stats.hits > 0, "warm run never hit the pool: {stats:?}");
}

/// Poisoning every pooled buffer with a sentinel between runs must not
/// change a single output bit: no kernel may read stale buffer contents.
#[test]
fn poisoned_arena_cannot_leak_into_results() {
    let mut fresh = NoGrad::new();
    let baseline = run(&mut fresh);

    let mut arena = fresh.into_arena();
    for sentinel in [f32::NAN, f32::INFINITY, -1.0e30, -0.0] {
        arena.poison(sentinel);
        let mut warm = NoGrad::with_arena(arena);
        let rerun = run(&mut warm);
        assert_bits_eq(&baseline, &rerun, "poisoned arena");
        arena = warm.into_arena();
    }
}

/// The arena stays bit-stable over many generations of reuse (no slow state
/// drift through the pool).
#[test]
fn many_generations_stay_bit_stable() {
    let mut g = NoGrad::new();
    let baseline = run(&mut g);
    let mut arena = g.into_arena();
    for generation in 0..10 {
        let mut warm = NoGrad::with_arena(arena);
        let rerun = run(&mut warm);
        assert_bits_eq(&baseline, &rerun, "generation");
        arena = warm.into_arena();
        assert!(
            arena.stats().recycled > 0,
            "generation {generation}: nothing recycled"
        );
    }
}

/// Two concurrently-live node values never alias the same storage, even
/// after heavy recycling — the arena hands each `take` a unique buffer.
#[test]
fn live_node_values_never_alias() {
    // Warm the pool first so the second run draws recycled buffers.
    let mut g = NoGrad::new();
    let _ = run(&mut g);
    let mut warm = NoGrad::with_arena(g.into_arena());
    let last = chain(&mut warm);

    // Collect the data pointers of every node with distinct contents
    // produced by real kernels (reshape intentionally shares its input's
    // storage, so compare only the chain's compute outputs).
    let a = chain(&mut warm); // a second, disjoint chain in the same session
    let pa = warm.value(a).data().as_ptr();
    let pl = warm.value(last).data().as_ptr();
    assert_ne!(pa, pl, "two live outputs share one buffer");
    assert_bits_eq(
        warm.value(a).data(),
        warm.value(last).data(),
        "same chain, same session",
    );
}

/// `Arena::clear` really drops pooled storage (memory pressure relief is
/// observable), and a cleared arena still serves bit-identical results.
#[test]
fn cleared_arena_still_serves_correctly() {
    let mut g = NoGrad::new();
    let baseline = run(&mut g);
    let mut arena = g.into_arena();
    assert!(arena.pooled_bytes() > 0);
    arena.clear();
    assert_eq!(arena.pooled_buffers(), 0);
    assert_eq!(arena.pooled_bytes(), 0);
    let mut cold = NoGrad::with_arena(arena);
    assert_bits_eq(&baseline, &run(&mut cold), "cleared arena");
}

/// Arena buffers handed to constants with shared ownership (e.g. model
/// parameters bound via `Arc` clones) are refused by the pool on recycle —
/// shared storage must never be handed out as scratch.
#[test]
fn shared_constants_are_not_pooled() {
    let param = Array::ones(vec![64]); // lives on: shared Arc
    let mut g = NoGrad::new();
    let v = g.constant(param.clone());
    let _ = g.relu(v);
    let arena = g.into_arena();
    let stats = arena.stats();
    assert!(stats.dropped >= 1, "shared param storage was pooled: {stats:?}");
    // And nothing in the pool aliases the still-live parameter.
    let mut arena = arena;
    let n = param.len();
    let buf = arena.take(n);
    assert_ne!(buf.as_ptr(), param.data().as_ptr(), "pool aliases a live param");
}
