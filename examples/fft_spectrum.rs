//! Spectral analysis on the hybrid LA/FFT core (Chapter 6.2): run the
//! 64-point radix-4 FFT workload on one `Lac` core to pick the
//! tones out of a noisy signal — the signal-processing workload the hybrid
//! PE design exists for.
//!
//! ```sh
//! cargo run --release --example fft_spectrum
//! ```

use lap::lac_kernels::{Details, Fft64Workload, Workload};
use lap::lac_sim::{Lac, LacConfig};
use lap::linalg_ref::Complex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

fn main() {
    // Two tones (bins 5 and 19) buried in noise.
    let n = 64usize;
    let mut rng = StdRng::seed_from_u64(2026);
    let signal: Vec<Complex> = (0..n)
        .map(|t| {
            let tone1 = Complex::cis(2.0 * PI * 5.0 * t as f64 / n as f64).scale(1.0);
            let tone2 = Complex::cis(2.0 * PI * 19.0 * t as f64 / n as f64).scale(0.6);
            let noise = Complex::new(rng.gen_range(-0.1..0.1), rng.gen_range(-0.1..0.1));
            tone1 + tone2 + noise
        })
        .collect();

    // The workload interleaves the signal into a private memory bank
    // and runs the transform; `config` grows the local stores to the
    // kernel's scratch minima when the base configuration is too small
    // (8 words of A/B memory would not hold the butterfly workspace).
    let workload = Fft64Workload::new(signal);
    let cfg = workload.config(LacConfig {
        sram_a_words: 8,
        sram_b_words: 8,
        ..Default::default()
    });
    let mut lac = Lac::new(cfg);
    let report = workload.run(&mut lac).expect("FFT schedule");
    workload
        .check(&report)
        .expect("matches the reference radix-4 FFT");
    let Details::Fft { spectrum } = &report.details else {
        unreachable!("fft reports spectrum")
    };

    // Find the peaks.
    let magnitude: Vec<f64> = spectrum.iter().map(|v| v.abs()).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| magnitude[b].partial_cmp(&magnitude[a]).unwrap());

    println!("64-point radix-4 FFT on the 4x4 hybrid core");
    let stats = lac.session_stats();
    println!("  cycles           : {}", stats.cycles);
    println!(
        "  bus transfers    : {} row, {} col",
        stats.row_bus_transfers, stats.col_bus_transfers
    );
    println!("  top spectral bins:");
    for &k in order.iter().take(3) {
        println!("    bin {k:2}  |X| = {:.2}", magnitude[k]);
    }
    assert_eq!(order[0], 5, "strongest tone at bin 5");
    assert_eq!(order[1], 19, "second tone at bin 19");
    assert!(
        magnitude[order[2]] < 0.3 * magnitude[order[1]],
        "noise floor well below"
    );
    println!("  tones detected at bins 5 and 19: OK");
}
