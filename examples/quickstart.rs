//! Quickstart: run a GEMM workload on one cycle-accurate Linear Algebra
//! Core (`Lac`), verify it against the reference BLAS, and read out
//! performance and energy the way the dissertation does.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lap::lac_kernels::{GemmWorkload, Workload};
use lap::lac_power::{EnergyModel, SessionEnergy};
use lap::lac_sim::{Lac, LacConfig};
use lap::linalg_ref::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A 4×4-PE core with the paper's canonical 16 KB/PE local store. Its
    // own counters are the session: they meter everything run on it.
    let mut lac = Lac::new(LacConfig::default());

    // Problem: C (32×64) += A (32×64) · B (64×64).
    let (mc, kc, n) = (32, 64, 64);
    let mut rng = StdRng::seed_from_u64(7);
    let a = Matrix::random(mc, kc, &mut rng);
    let b = Matrix::random(kc, n, &mut rng);
    let c0 = Matrix::random(mc, n, &mut rng);

    // The workload stages its operands into a private memory bank and
    // runs the overlapped GEMM microprogram (§3.4 schedule).
    let workload = GemmWorkload::new(a, b, c0);
    let report = workload.run(&mut lac).expect("schedule is hazard-free");

    // Verify against the reference (the workload knows its own ground truth).
    workload
        .check(&report)
        .expect("simulator result agrees with linalg-ref");

    // Performance and energy, exactly as the paper reports them.
    let stats = &report.stats;
    let energy = lac.energy_summary(&EnergyModel::lac_default());
    println!("GEMM {mc}x{kc}x{n} on a 4x4 LAC @ 1 GHz (double precision)");
    println!("  cycles            : {}", stats.cycles);
    println!("  MAC operations    : {}", stats.mac_ops);
    println!("  utilization       : {:.1}%", 100.0 * report.utilization);
    println!(
        "  ext. memory traffic: {} reads, {} writes",
        stats.ext_reads, stats.ext_writes
    );
    println!(
        "  avg ext bandwidth : {:.2} words/cycle",
        lac.session_stats().ext_words_per_cycle()
    );
    println!("  energy            : {:.2} uJ", energy.energy_nj / 1000.0);
    println!("  average power     : {:.1} mW", energy.avg_power_mw);
    println!("  efficiency        : {:.1} GFLOPS/W", energy.gflops_per_w);
    let session = lac.session_stats();
    println!(
        "  session           : {} cycles, {} flops",
        session.cycles,
        session.flops()
    );
}
