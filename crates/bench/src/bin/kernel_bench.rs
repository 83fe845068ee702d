//! `kernel_bench` — the production kernels against their naive references
//! (`stisan_tensor::kernels::naive`), on serving-shaped inputs.
//!
//! ```text
//! cargo run --release -p stisan-bench --bin kernel_bench -- [--smoke]
//!     [--iters n] [--seed s]
//! ```
//!
//! For each kernel the report prints iterations/second and p95 per-call
//! latency for both variants plus the production-over-naive speedup; the
//! two variants' calls alternate, so a change in host speed hits both. The
//! first line names the matmul arm this CPU runs (`avx2` or `portable`).
//! The differential suite (`crates/tensor/tests/kernel_diff.rs`) proves the
//! two variants agree bit for bit; this binary measures what that parity
//! costs. It is a developer's table, not a perf ledger: what the kernels
//! cost a served request is `tensor.kernels.*_us_per_req` in
//! `crates/e2e_bench/baseline/BENCH_e2e.json`.
//!
//! In full (non-smoke) mode every contraction row gates the run — the
//! matmul, linear and `bmm` shapes, the decoder's own shapes, and the fused
//! decoder against its unfused composition: the production kernel must not
//! be slower than the reference it replaces. The `taad N lanes vs 1` row
//! runs the fused decoder split across every lane the core cap allows
//! against one lane; it gates only on a host with at least two cores.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stisan_tensor::kernels::{self, naive};
use stisan_tensor::{worker_cap, Arena, Array, Lanes};

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

/// Calls/second at the median per-call time (robust to the host's stalls)
/// and p95 per-call latency.
fn stats(mut lat_ms: Vec<f64>) -> PathStats {
    lat_ms.sort_by(|a, b| a.total_cmp(b));
    let rps = 1e3 / percentile(&lat_ms, 0.5).max(1e-9);
    PathStats { rps, p95_ms: percentile(&lat_ms, 0.95) }
}

fn time_ms(f: &mut impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Benches one kernel's production and reference variants, alternating
/// their calls (after two warm-up calls each), prints the row, and returns
/// the production-over-reference speedup.
fn bench_pair(name: &str, iters: usize, mut fast: impl FnMut(), mut reference: impl FnMut()) -> f64 {
    for _ in 0..2 {
        fast();
        reference();
    }
    let (mut lat_f, mut lat_r) = (Vec::with_capacity(iters), Vec::with_capacity(iters));
    for _ in 0..iters {
        lat_f.push(time_ms(&mut fast));
        lat_r.push(time_ms(&mut reference));
    }
    let (f, r) = (stats(lat_f), stats(lat_r));
    let speedup = f.rps / r.rps.max(1e-12);
    println!(
        "{:<24} fast {:>9.1}/s (p95 {:>7.3} ms)   reference {:>9.1}/s (p95 {:>7.3} ms)   {:>5.2}x",
        name, f.rps, f.p95_ms, r.rps, r.p95_ms, speedup
    );
    speedup
}

/// The decoder as the unfused composition of kernels the tape records
/// (`Exec::taad_scores`), over preallocated buffers: the reference the
/// fused [`kernels::taad_scores_into`] replaces.
struct ComposedDecoder {
    dims: (usize, usize, usize),
    ft: Vec<f32>,
    u: Vec<f32>,
    scaled: Vec<f32>,
    logits: Vec<f32>,
    wts: Vec<f32>,
    prod: Vec<f32>,
}

impl ComposedDecoder {
    fn new(m: usize, n: usize, d: usize) -> Self {
        ComposedDecoder {
            dims: (m, n, d),
            ft: vec![0.0; d * n],
            u: vec![0.0; m * n],
            scaled: vec![0.0; m * n],
            logits: vec![0.0; m * n],
            wts: vec![0.0; m * n],
            prod: vec![0.0; m * n],
        }
    }

    /// One sequence (`b = 1`): `f: [n,d]`, `c: [m,d]`, `mask: [m,n]`.
    fn run(&mut self, f: &[f32], c: &[f32], mask: &[f32], out: &mut [f32]) {
        let (m, n, d) = self.dims;
        let inv_sqrt_d = 1.0 / (d as f32).sqrt();
        kernels::transpose_last2_into(f, &mut self.ft, 1, n, d);
        kernels::bmm_into(c, &self.ft, &mut self.u, 1, m, d, n);
        kernels::map_into(&self.u, &mut self.scaled, |x| x * inv_sqrt_d);
        let sh = [m, n];
        kernels::zip_into(&self.scaled, &sh, mask, &sh, &sh, &mut self.logits, |x, y| x + y);
        kernels::softmax_last_into(&self.logits, &mut self.wts, n);
        kernels::zip_into(&self.wts, &sh, &self.u, &sh, &sh, &mut self.prod, |x, y| x * y);
        kernels::sum_last_into(&self.prod, out, n);
    }
}

fn main() {
    let o = parse();
    println!("matmul arm: {}", kernels::matmul_arm());
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
    let mut out_ln = vec![0.0f32; sr * sw];
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
    // BMM_PARALLEL_FLOPS, the window sizes self-attention runs at.
    let s = bench_pair(
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
    gated_speedups.push(("bmm attention", s));

    // The decoder's one contraction, `u = c·fᵀ` ([m,d]×[d,n]), over a full
    // 10k-POI scan and an 800-candidate two-stage request, at the served
    // window n = 20 and width d = 64.
    let (dn, dd) = (20usize, 64usize);
    for (dm, k, n) in [(10_000usize, dd, dn), (800, dd, dn)] {
        let da = Array::uniform(vec![dm, k], -1.0, 1.0, &mut rng);
        let db = Array::uniform(vec![k, n], -1.0, 1.0, &mut rng);
        let (mut out_f, mut out_n) = (vec![0.0f32; dm * n], vec![0.0f32; dm * n]);
        let s = bench_pair(
            &format!("bmm 1x{dm}x{k}x{n}"),
            o.iters,
            || {
                kernels::bmm_into(da.data(), db.data(), &mut out_f, 1, dm, k, n);
                std::hint::black_box(&out_f);
            },
            || {
                naive::bmm_into(da.data(), db.data(), &mut out_n, 1, dm, k, n);
                std::hint::black_box(&out_n);
            },
        );
        gated_speedups.push(("bmm decoder", s));
    }

    // The fused decoder against the composition it replaces, over a full
    // 10k-POI scan with the eval mask's -1e9 padding prefix. (At a few
    // hundred candidates every intermediate fits in L2 and the two tie.)
    {
        let dm = 10_000usize;
        let f = Array::uniform(vec![dn, dd], -1.0, 1.0, &mut rng);
        let c = Array::uniform(vec![dm, dd], -1.0, 1.0, &mut rng);
        let mut mask = vec![0.0f32; dm * dn];
        for row in mask.chunks_exact_mut(dn) {
            row[..3].fill(-1e9);
        }
        let mut scratch = vec![0.0f32; kernels::taad_scratch_len(dn, dd)];
        let mut composed = ComposedDecoder::new(dm, dn, dd);
        let (mut out_f, mut out_c) = (vec![0.0f32; dm], vec![0.0f32; dm]);
        let s = bench_pair(
            &format!("taad fused {dm}x{dn}x{dd}"),
            o.iters,
            || {
                kernels::taad_scores_into(
                    f.data(), c.data(), &mask, &mut out_f, &mut scratch, 1, dm, dn, dd,
                );
                std::hint::black_box(&out_f);
            },
            || {
                composed.run(f.data(), c.data(), &mask, &mut out_c);
                std::hint::black_box(&out_c);
            },
        );
        assert!(
            out_f.iter().zip(&out_c).all(|(x, y)| x.to_bits() == y.to_bits()),
            "fused decoder diverged from its composition"
        );
        gated_speedups.push(("taad fused", s));

        // The same call through helper lanes, as a serving replica runs it:
        // one lane (the serial kernel) against every lane the core cap
        // allows. Gated only where there is a second core to split onto.
        let (fa, ca) = (f.reshape(vec![1, dn, dd]), c.reshape(vec![1, dm, dd]));
        let ma = Array::from_vec(vec![1, dm, dn], mask);
        let (one, all) = (Lanes::new(1), Lanes::new(worker_cap()));
        let (mut arena_1, mut arena_all) = (Arena::new(), Arena::new());
        let (mut out_1, mut out_all) = (Arc::new(vec![0.0f32; dm]), Arc::new(vec![0.0f32; dm]));
        let s = bench_pair(
            &format!("taad {} lanes vs 1", all.count()),
            o.iters,
            || {
                let out = std::mem::take(&mut out_all);
                out_all = all.taad_scores(&mut arena_all, &fa, &ca, &ma, out);
            },
            || {
                let out = std::mem::take(&mut out_1);
                out_1 = one.taad_scores(&mut arena_1, &fa, &ca, &ma, out);
            },
        );
        assert!(
            out_all.iter().zip(out_1.iter()).all(|(x, y)| x.to_bits() == y.to_bits()),
            "split decoder diverged from the serial kernel"
        );
        let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        if cores >= 2 {
            gated_speedups.push(("taad split", s));
        }
    }

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
            let (a, b) = (ln_alpha.data(), ln_beta.data());
            kernels::layer_norm_affine_into(sm.data(), a, b, 1e-5, &mut out_ln, sw);
            std::hint::black_box(&out_ln);
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
        // The contraction kernels are the reason the register kernel and
        // the fused decoder exist; losing to the reference means they are
        // actively harmful.
        for (name, speedup) in &gated_speedups {
            assert!(
                *speedup >= 1.0,
                "acceptance: {name} is slower than its reference ({speedup:.2}x)"
            );
        }
    }
}
