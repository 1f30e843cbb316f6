//! Appendix A — architecture extensions: divide/square-root options and MAC
//! extensions measured on the simulator.

use crate::Table;
use lac_bench::f;
use lac_fpu::DivSqrtImpl;
use lac_kernels::{
    BlockedCholWorkload, LuOptions, LuPanelWorkload, VecnormWorkload, VnormOptions, Workload,
};
use lac_power::{extensions::divsqrt_energy_pj, DivSqrtOption, EnergyModel};
use lac_sim::{Lac, LacConfig};
use linalg_ref::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn energy_model(imp: DivSqrtImpl, comparator: bool) -> EnergyModel {
    let opt = match imp {
        DivSqrtImpl::Software => DivSqrtOption::Software,
        DivSqrtImpl::Isolated => DivSqrtOption::Isolated,
        DivSqrtImpl::DiagonalPes => DivSqrtOption::DiagonalPes,
    };
    EnergyModel {
        sfu_energy_pj: divsqrt_energy_pj(opt),
        comparator_extension: comparator,
        ..EnergyModel::lac_default()
    }
}

/// Run one workload on a fresh session with the given div/sqrt option.
fn measure(w: &dyn Workload, imp: DivSqrtImpl) -> lac_sim::ExecStats {
    let base = LacConfig {
        divsqrt: imp,
        ..Default::default()
    };
    let mut lac = Lac::new(w.config(base));
    w.run(&mut lac)
        .unwrap_or_else(|e| panic!("{}: {e:?}", w.name()));
    *lac.session_stats()
}

/// Table A.2: cycle counts and dynamic energy for architecture options
/// (divide/sqrt implementation x MAC extensions) across algorithms and
/// problem sizes — all measured on the cycle-accurate simulator through
/// `Lac` cores.
pub fn tablea_2() -> Vec<Table> {
    let mut rng = StdRng::seed_from_u64(42);
    let mut rows = Vec::new();
    for imp in [
        DivSqrtImpl::Software,
        DivSqrtImpl::Isolated,
        DivSqrtImpl::DiagonalPes,
    ] {
        for kk in [16usize, 32] {
            let a = Matrix::random_spd(kk, &mut rng);
            let stats = measure(&BlockedCholWorkload::new(a), imp);
            let em = energy_model(imp, true);
            rows.push(vec![
                format!("{imp:?}"),
                format!("Cholesky {kk}x{kk}"),
                format!("{}", stats.cycles),
                f(em.energy_nj(&stats) / 1000.0),
            ]);
        }
        for k in [16usize, 64] {
            for comparator in [true, false] {
                let a = Matrix::random(k * 4, 4, &mut rng);
                let stats = measure(&LuPanelWorkload::new(a, LuOptions { comparator }), imp);
                let em = energy_model(imp, comparator);
                rows.push(vec![
                    format!("{imp:?}"),
                    format!("LU {}x4 (cmp={comparator})", k * 4),
                    format!("{}", stats.cycles),
                    f(em.energy_nj(&stats) / 1000.0),
                ]);
            }
        }
        for k in [16usize, 64] {
            for (label, opts) in [
                (
                    "none",
                    VnormOptions {
                        exponent_extension: false,
                        comparator: false,
                    },
                ),
                (
                    "cmp",
                    VnormOptions {
                        exponent_extension: false,
                        comparator: true,
                    },
                ),
                (
                    "exp",
                    VnormOptions {
                        exponent_extension: true,
                        comparator: false,
                    },
                ),
            ] {
                let x: Vec<f64> = (0..k * 4).map(|i| (i as f64).sin()).collect();
                let stats = measure(&VecnormWorkload::new(x, opts), imp);
                let em = energy_model(imp, opts.comparator);
                rows.push(vec![
                    format!("{imp:?}"),
                    format!("Vnorm {} ({label})", k * 4),
                    format!("{}", stats.cycles),
                    f(em.energy_nj(&stats) / 1000.0),
                ]);
            }
        }
    }
    vec![Table::new(
        "Table A.2 — cycles and dynamic energy per architecture option (simulated)",
        &["div/sqrt impl", "algorithm & size", "cycles", "energy [uJ]"],
        rows,
    )
    .note("paper shape: DiagonalPes fastest, Software slowest; comparator & exp extensions cut both axes")]
}
