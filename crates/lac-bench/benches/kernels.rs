//! Wall-time benchmarks: throughput of the cycle-accurate simulator and the
//! reference substrate. These measure *our implementation's* speed (wall
//! time per simulated kernel), complementing the model-generated
//! tables/figures that reproduce the paper's numbers.
//!
//! Self-contained harness (`harness = false`): the environment has no
//! crates.io access, so instead of criterion this runs each case a fixed
//! number of iterations after a warmup and reports min/mean wall time.
//!
//! ```sh
//! cargo bench -p lac-bench
//! ```

use lac_kernels::{Fft64Workload, GemmWorkload, Workload};
use lac_sim::{Lac, LacConfig};
use linalg_ref::{fft_radix4, gemm_blocked, BlockSizes, Complex, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn bench<F: FnMut()>(name: &str, iters: u32, mut f: F) {
    for _ in 0..2 {
        f(); // warmup
    }
    let mut best = f64::INFINITY;
    let total = Instant::now();
    for _ in 0..iters {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    let mean = total.elapsed().as_secs_f64() / iters as f64;
    println!(
        "{name:<28} {:>10.3} ms/iter (best {:>10.3} ms, {iters} iters)",
        mean * 1e3,
        best * 1e3
    );
}

fn bench_sim_gemm() {
    for &(mc, kc, n) in &[(16usize, 32usize, 32usize), (32, 64, 64)] {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::random(mc, kc, &mut rng);
        let b = Matrix::random(kc, n, &mut rng);
        let cm = Matrix::random(mc, n, &mut rng);
        let w = GemmWorkload::new(a, b, cm);
        bench(&format!("sim_gemm/{mc}x{kc}x{n}"), 10, || {
            let mut lac = Lac::new(LacConfig::default());
            w.run(&mut lac).unwrap();
        });
    }
}

fn bench_sim_fft64() {
    let signal: Vec<Complex> = (0..64)
        .map(|i| Complex::new((2.0 * i as f64).cos(), 0.0))
        .collect();
    let w = Fft64Workload::new(signal);
    bench("sim_fft64/fft64", 10, || {
        let mut lac = Lac::new(w.config(Default::default()));
        w.run(&mut lac).unwrap();
    });
}

fn bench_reference() {
    let mut rng = StdRng::seed_from_u64(2);
    let a = Matrix::random(128, 128, &mut rng);
    let b = Matrix::random(128, 128, &mut rng);
    bench("reference/gemm_blocked_128", 10, || {
        let mut cm = Matrix::zeros(128, 128);
        gemm_blocked(&a, &b, &mut cm, BlockSizes::default());
        std::hint::black_box(&cm);
    });
    let sig: Vec<Complex> = (0..4096).map(|i| Complex::cis(i as f64 * 0.01)).collect();
    bench("reference/fft_radix4_4096", 10, || {
        let mut x = sig.clone();
        fft_radix4(&mut x);
        std::hint::black_box(&x);
    });
}

fn main() {
    // `cargo test` runs bench targets with --test; nothing to assert here.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    bench_sim_gemm();
    bench_sim_fft64();
    bench_reference();
}
