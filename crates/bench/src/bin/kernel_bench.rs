//! `kernel_bench` — the cache-blocked production kernels against their naive
//! references (`stisan_tensor::kernels::naive`), on serving-shaped inputs.
//!
//! ```text
//! cargo run --release -p stisan-bench --bin kernel_bench -- [--smoke]
//!     [--iters n] [--seed s]
//! ```
//!
//! For each kernel the report prints iterations/second and p95 per-call
//! latency for both variants plus the blocked-over-naive speedup. The
//! differential suite (`crates/tensor/tests/kernel_diff.rs`) proves the two
//! variants agree bit for bit; this binary measures what that parity costs.
//! It is a developer's table, not a perf ledger: what the kernels cost a
//! served request is `tensor.kernels.*_us_per_req` in
//! `crates/e2e_bench/baseline/BENCH_e2e.json`.
//!
//! In full (non-smoke) mode the contraction kernels gate the run: blocked
//! must not be slower than naive, otherwise the blocking is dead weight.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stisan_tensor::kernels::{self, naive};
use stisan_tensor::Array;

struct Opts {
    smoke: bool,
    iters: usize,
    seed: u64,
}

fn parse() -> Opts {
    let mut o = Opts { smoke: false, iters: 200, seed: 42 };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].clone();
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).unwrap_or_else(|| panic!("flag {key} needs a value")).clone()
        };
        match key.as_str() {
            "--smoke" => o.smoke = true,
            "--iters" => o.iters = take(&mut i).parse().expect("bad --iters"),
            "--seed" => o.seed = take(&mut i).parse().expect("bad --seed"),
            other => panic!("unknown flag {other}; supported: --smoke --iters --seed"),
        }
        i += 1;
    }
    if o.smoke {
        o.iters = 20;
    }
    o
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 * q).ceil() as usize).clamp(1, sorted_ms.len()) - 1;
    sorted_ms[idx]
}

struct PathStats {
    rps: f64,
    p95_ms: f64,
}

/// Times `iters` calls of `f` (after two warm-up calls) and reports
/// calls/second plus p95 per-call latency.
fn time_variant(iters: usize, mut f: impl FnMut()) -> PathStats {
    f();
    f();
    let mut lat_ms = Vec::with_capacity(iters);
    let t0 = Instant::now();
    for _ in 0..iters {
        let t = Instant::now();
        f();
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let wall = t0.elapsed().as_secs_f64().max(1e-12);
    lat_ms.sort_by(|a, b| a.total_cmp(b));
    PathStats { rps: iters as f64 / wall, p95_ms: percentile(&lat_ms, 0.95) }
}

/// Benches one kernel's blocked and naive variants, prints the row, and
/// returns the blocked-over-naive speedup.
fn bench_pair(
    name: &str,
    iters: usize,
    mut blocked: impl FnMut(),
    mut reference: impl FnMut(),
) -> f64 {
    let b = time_variant(iters, &mut blocked);
    let n = time_variant(iters, &mut reference);
    let speedup = b.rps / n.rps.max(1e-12);
    println!(
        "{:<22} blocked {:>9.1}/s (p95 {:>7.3} ms)   naive {:>9.1}/s (p95 {:>7.3} ms)   {:>5.2}x",
        name, b.rps, b.p95_ms, n.rps, n.p95_ms, speedup
    );
    speedup
}

fn main() {
    let o = parse();
    let mut rng = StdRng::seed_from_u64(o.seed);
    // Serving-shaped inputs: transformer width 64, windows around the
    // model's max_len, and a catalogue-sized candidate axis that runs past
    // the 64-wide column panel (ragged tail exercised on purpose).
    let (m, k, n) = (96usize, 64usize, 1000usize);
    let (bsz, bm, bk, bn) = (8usize, 48usize, 64usize, 48usize);
    let (rows, lf) = (512usize, 200usize);
    let (sr, sw) = (2048usize, 64usize);
    let (xb, xn, xd) = (64usize, 48usize, 64usize);

    let a = Array::uniform(vec![m, k], -1.0, 1.0, &mut rng);
    let b = Array::uniform(vec![k, n], -1.0, 1.0, &mut rng);
    let ba = Array::uniform(vec![bsz, bm, bk], -1.0, 1.0, &mut rng);
    let bb = Array::uniform(vec![bsz, bk, bn], -1.0, 1.0, &mut rng);
    let x = Array::uniform(vec![rows, k], -1.0, 1.0, &mut rng);
    let w = Array::uniform(vec![k, lf], -1.0, 1.0, &mut rng);
    let bias = Array::uniform(vec![lf], -1.0, 1.0, &mut rng);
    let sm = Array::uniform(vec![sr, sw], -3.0, 3.0, &mut rng);
    let ln_alpha = Array::uniform(vec![sw], 0.5, 1.5, &mut rng);
    let ln_beta = Array::uniform(vec![sw], -0.5, 0.5, &mut rng);
    let mx = Array::uniform(vec![xb, xn, xd], -2.0, 2.0, &mut rng);

    // One output buffer per variant: the two timing closures live at once.
    let (mut out_mm_b, mut out_mm_n) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
    let (mut out_bmm_b, mut out_bmm_n) =
        (vec![0.0f32; bsz * bm * bn], vec![0.0f32; bsz * bm * bn]);
    let (mut out_lin_b, mut out_lin_n) = (vec![0.0f32; rows * lf], vec![0.0f32; rows * lf]);
    let (mut out_sm_b, mut out_sm_n) = (vec![0.0f32; sr * sw], vec![0.0f32; sr * sw]);
    let (mut out_max_b, mut out_max_n) = (vec![0.0f32; xb * xd], vec![0.0f32; xb * xd]);

    let mut gated_speedups: Vec<(&str, f64)> = Vec::new();

    let s = bench_pair(
        "matmul 96x64x1000",
        o.iters,
        || {
            kernels::matmul_into(a.data(), b.data(), &mut out_mm_b, m, k, n);
            std::hint::black_box(&out_mm_b);
        },
        || {
            naive::matmul_into(a.data(), b.data(), &mut out_mm_n, m, k, n);
            std::hint::black_box(&out_mm_n);
        },
    );
    gated_speedups.push(("matmul", s));

    // Small attention-shaped batch: under the 64-wide panel and under
    // BMM_PARALLEL_FLOPS, so this measures pure blocking overhead at the
    // window sizes self-attention actually runs at. Reported, not gated —
    // panel setup can lose a few percent here.
    bench_pair(
        "bmm 8x48x64x48",
        o.iters,
        || {
            kernels::bmm_into(ba.data(), bb.data(), &mut out_bmm_b, bsz, bm, bk, bn);
            std::hint::black_box(&out_bmm_b);
        },
        || {
            naive::bmm_into(ba.data(), bb.data(), &mut out_bmm_n, bsz, bm, bk, bn);
            std::hint::black_box(&out_bmm_n);
        },
    );

    // Candidate-scoring-shaped batch: crosses both the column panel and
    // BMM_PARALLEL_FLOPS, i.e. the production fan-out path. Gated.
    let (lb, lm, lk, ln) = (4usize, 96usize, 64usize, 200usize);
    assert!(
        2 * lb * lm * lk * ln >= kernels::BMM_PARALLEL_FLOPS,
        "large bmm shape no longer reaches the parallel path"
    );
    let la = Array::uniform(vec![lb, lm, lk], -1.0, 1.0, &mut rng);
    let lbm = Array::uniform(vec![lb, lk, ln], -1.0, 1.0, &mut rng);
    let (mut out_lbmm_b, mut out_lbmm_n) =
        (vec![0.0f32; lb * lm * ln], vec![0.0f32; lb * lm * ln]);
    let s = bench_pair(
        "bmm 4x96x64x200",
        o.iters,
        || {
            kernels::bmm_into(la.data(), lbm.data(), &mut out_lbmm_b, lb, lm, lk, ln);
            std::hint::black_box(&out_lbmm_b);
        },
        || {
            naive::bmm_into(la.data(), lbm.data(), &mut out_lbmm_n, lb, lm, lk, ln);
            std::hint::black_box(&out_lbmm_n);
        },
    );
    gated_speedups.push(("bmm", s));

    let s = bench_pair(
        "linear 512x64x200",
        o.iters,
        || {
            kernels::linear_forward_into(
                x.data(), w.data(), Some(bias.data()), &mut out_lin_b, rows, k, lf,
            );
            std::hint::black_box(&out_lin_b);
        },
        || {
            naive::linear_forward_into(
                x.data(), w.data(), Some(bias.data()), &mut out_lin_n, rows, k, lf,
            );
            std::hint::black_box(&out_lin_n);
        },
    );
    gated_speedups.push(("linear", s));

    bench_pair(
        "softmax 2048x64",
        o.iters,
        || {
            kernels::softmax_last_into(sm.data(), &mut out_sm_b, sw);
            std::hint::black_box(&out_sm_b);
        },
        || {
            naive::softmax_last_into(sm.data(), &mut out_sm_n, sw);
            std::hint::black_box(&out_sm_n);
        },
    );

    bench_pair(
        "layer_norm 2048x64",
        o.iters,
        || {
            std::hint::black_box(kernels::layer_norm_affine(&sm, &ln_alpha, &ln_beta, 1e-5));
        },
        || {
            std::hint::black_box(naive::layer_norm_affine(&sm, &ln_alpha, &ln_beta, 1e-5));
        },
    );

    bench_pair(
        "max_axis1 64x48x64",
        o.iters,
        || {
            kernels::max_axis1_into(mx.data(), &mut out_max_b, xb, xn, xd);
            std::hint::black_box(&out_max_b);
        },
        || {
            naive::max_axis1_into(mx.data(), &mut out_max_n, xb, xn, xd);
            std::hint::black_box(&out_max_n);
        },
    );

    if o.smoke {
        println!("smoke OK");
    } else {
        // The contraction kernels are the reason the blocked rewrites exist;
        // losing to the naive loop means the blocking is actively harmful.
        for (name, speedup) in &gated_speedups {
            assert!(
                *speedup >= 1.0,
                "acceptance: blocked {name} is slower than naive ({speedup:.2}x)"
            );
        }
    }
}
