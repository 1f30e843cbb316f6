//! The workload sweep: every `lac_kernels::registry()` workload on a
//! fresh `Lac` core (default configuration), verified against `linalg-ref`.

use crate::Table;
use lac_bench::{f, pct};
use lac_kernels::registry;
use lac_power::{EnergyModel, SessionEnergy};
use lac_sim::{Lac, LacConfig};

/// Cycles, utilization and energy of each registry workload; panics on a
/// run error or a mismatch with the reference.
pub fn workloads() -> Vec<Table> {
    let energy = EnergyModel::lac_default();
    let rows = registry()
        .iter()
        .map(|w| {
            let mut lac = Lac::new(w.config(LacConfig::default()));
            let report = w
                .run(&mut lac)
                .unwrap_or_else(|e| panic!("{}: {e:?}", w.name()));
            w.check(&report)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            let e = lac.energy_summary(&energy);
            vec![
                report.kernel.into(),
                format!("{}", report.stats.cycles),
                format!("{}", report.useful_flops),
                pct(report.utilization),
                f(e.energy_nj / 1000.0),
                f(e.gflops_per_w),
                "ok".into(),
            ]
        })
        .collect();
    vec![Table::new(
        "Workload sweep — every registry workload on the default 4x4 core",
        &[
            "workload",
            "cycles",
            "useful flops",
            "util",
            "energy [uJ]",
            "GFLOPS/W",
            "vs ref",
        ],
        rows,
    )]
}
