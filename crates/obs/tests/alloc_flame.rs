//! End-to-end test of the continuous-profiling subsystem with the counting
//! allocator actually installed as the global allocator — the one
//! configuration the unit tests cannot exercise (a `#[global_allocator]`
//! is per-binary). Covers thread-local attribution, the allocation-free
//! registry hot path, the no-double-counting guarantee for nested frames,
//! and the folded-export-vs-wall-time tolerance.
//!
//! Everything lives in a single `#[test]` because the profiler and the
//! accounting switch are process-global: parallel test threads toggling
//! them would race.

use std::hint::black_box;
use std::time::{Duration, Instant};

use stisan_obs::{alloc, flame, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

/// Allocates and touches `bytes`, returning a checksum so the allocation
/// cannot be optimised away.
fn busy_alloc(bytes: usize) -> u64 {
    let v: Vec<u8> = black_box(vec![1u8; bytes]);
    v.iter().map(|&b| u64::from(b)).sum()
}

#[test]
fn profiling_end_to_end() {
    stisan_obs::init();
    alloc::enable();
    flame::enable();
    assert!(alloc::active(), "allocator is installed, so accounting must report active");

    // Thread attribution: this thread's counters move with its allocations.
    let t0 = alloc::thread_stats();
    black_box(busy_alloc(1 << 20));
    let t1 = alloc::thread_stats();
    assert!(
        t1.bytes - t0.bytes >= (1u64 << 20),
        "1 MiB allocation must show in thread bytes: {} -> {}",
        t0.bytes,
        t1.bytes
    );
    assert!(t1.allocs > t0.allocs, "allocation count must advance");
    let g = alloc::global_stats();
    assert!(g.bytes >= t1.bytes, "global bytes include this thread's");
    assert!(g.peak > 0, "peak live bytes must be tracked");

    // ...and another thread's churn must not land on this thread's counters.
    let before = alloc::thread_stats();
    std::thread::spawn(|| black_box(busy_alloc(1 << 20)))
        .join()
        .expect("worker thread");
    let after = alloc::thread_stats();
    assert!(
        after.bytes - before.bytes < (1u64 << 18),
        "other-thread bytes leaked into this thread's counters: {}",
        after.bytes - before.bytes
    );

    // Registry hot path: the first sight of a name allocates its cell; every
    // later inc / set_gauge / observe on it allocates nothing.
    let reg = stisan_obs::Registry::new();
    let touch = |reg: &stisan_obs::Registry| {
        reg.inc("it.counter", 1);
        reg.set_gauge("it.gauge", 0.5);
        reg.observe("it.hist", 12.0);
    };
    let cold0 = alloc::thread_stats();
    touch(&reg);
    let warm0 = alloc::thread_stats();
    for _ in 0..1_000 {
        touch(&reg);
    }
    let warm1 = alloc::thread_stats();
    assert!(warm0.allocs > cold0.allocs, "first sight must allocate, or the counter is dead");
    assert_eq!(
        (warm1.allocs - warm0.allocs, warm1.bytes - warm0.bytes),
        (0, 0),
        "registry calls on seen names allocated"
    );

    // Nested frames: the child's allocations are charged to the child
    // stack only — interval attribution cannot double-count the parent.
    let prof = stisan_obs::serve_profiler().expect("init provides a serve profiler");
    prof.reset();
    let wall = Instant::now();
    {
        let _root = flame::frame("it_root");
        std::thread::sleep(Duration::from_millis(3));
        black_box(busy_alloc(512 * 1024));
        {
            let _child = flame::frame("it_child");
            std::thread::sleep(Duration::from_millis(3));
            black_box(busy_alloc(1 << 20));
        }
    }
    let wall_us = wall.elapsed().as_micros() as u64;

    let rows = prof.snapshot();
    let get = |stack: &str| {
        rows.iter()
            .find(|r| r.stack == stack)
            .map(|r| r.stats)
            .unwrap_or_else(|| panic!("missing stack {stack:?} in {rows:?}"))
    };
    let root = get("it_root");
    let child = get("it_root;it_child");
    assert!(
        child.alloc_bytes >= (1u64 << 20),
        "child frame must carry its 1 MiB: {}",
        child.alloc_bytes
    );
    assert!(
        root.alloc_bytes >= 512 * 1024,
        "root frame must carry its own 512 KiB: {}",
        root.alloc_bytes
    );
    assert!(
        root.alloc_bytes < 512 * 1024 + 256 * 1024,
        "child's 1 MiB must not also be charged to the root frame (double count): {}",
        root.alloc_bytes
    );
    assert!(child.peak_bytes >= (1u64 << 20), "child peak window sees its scratch");

    // Folded export: parses, frames are `;`-clean, and the self-time counts
    // under `it_root` sum to the region's wall time within tolerance (the
    // intervals tile the region; slack covers clock reads and truncation).
    let folded = prof.to_folded();
    let parsed = flame::parse_folded(&folded).expect("exporter output must parse");
    let sum_us: u64 = parsed
        .iter()
        .filter(|(stack, _)| stack.first().map(String::as_str) == Some("it_root"))
        .map(|(_, c)| c)
        .sum();
    assert!(
        sum_us <= wall_us + 1_000,
        "folded self-times exceed region wall time: {sum_us} us > {wall_us} us"
    );
    assert!(
        sum_us + 1_000 >= wall_us,
        "folded self-times fall short of region wall time: {sum_us} us < {wall_us} us"
    );

    flame::disable();
    alloc::disable();
    assert!(!alloc::active(), "disable must stop accounting");
}
