//! Chapter 5 — level-3 BLAS: SYRK, TRSM and SYR2K utilization on the core
//! and the resulting efficiency.

use crate::Table;
use lac_bench::{f, pct};
use lac_model::{syr2k_utilization, syrk_utilization, trsm_utilization_bw, CoreGemmModel};
use lac_power::{pe::core_metrics, PeModel};

/// Figure 5.8: SYRK utilization vs local store and bandwidth
/// (mc = kc = 256 regime), model + a cycle-accurate spot check.
pub fn fig5_8() -> Vec<Table> {
    let mut rows = Vec::new();
    for kb in [4usize, 8, 16, 24, 32, 40] {
        // map store to the largest mc=kc panel that fits (as in fig 3.4)
        let words = (kb * 1024 / 8) * 16; // aggregate
        let kc = (((words as f64 + 64.0).sqrt() - 8.0) as usize / 4 * 4).clamp(4, 256);
        let mut row = vec![format!("{kb}")];
        for bw_bytes in [1.0f64, 2.0, 4.0, 8.0] {
            row.push(pct(syrk_utilization(4, kc, kc, bw_bytes / 8.0 * 4.0, 5)));
        }
        rows.push(row);
    }
    vec![Table::new(
        "Figure 5.8 — SYRK utilization vs local store and bandwidth (nr=4)",
        &["KB/PE", "1 B/cyc", "2 B/cyc", "4 B/cyc", "8 B/cyc"],
        rows,
    )
    .note(
        "paper: ~90% at 20 KB/PE and 4 B/cycle; saturates below GEMM because of the diagonal tiles",
    )]
}

/// Figure 5.9: TRSM utilization vs local store and bandwidth.
pub fn fig5_9() -> Vec<Table> {
    let mut rows = Vec::new();
    for k in [4usize, 8, 16, 32, 64] {
        let mut row = vec![format!("{}", k * 4)];
        for bw_bytes in [1.0f64, 2.0, 4.0, 8.0] {
            row.push(pct(trsm_utilization_bw(4, k, 256, bw_bytes / 8.0 * 4.0, 5)));
        }
        rows.push(row);
    }
    vec![Table::new(
        "Figure 5.9 — TRSM utilization vs triangular size K and bandwidth (W=256, nr=4)",
        &["K", "1 B/cyc", "2 B/cyc", "4 B/cyc", "8 B/cyc"],
        rows,
    )
    .note("paper: ~95% at the 20 KB/PE, 4 B/cycle design point")]
}

/// Figure 5.10: utilization of the representative level-3 BLAS operations.
pub fn fig5_10() -> Vec<Table> {
    let mut rows = Vec::new();
    for kc in [32usize, 64, 128, 256] {
        let gemm = CoreGemmModel::new(4, 0.5, 512).utilization(kc, kc);
        rows.push(vec![
            format!("{kc}"),
            pct(gemm),
            pct(trsm_utilization_bw(4, kc / 4, kc, 0.5 * 4.0, 5)),
            pct(syrk_utilization(4, kc, kc, 2.0, 5)),
            pct(syr2k_utilization(4, kc, kc, 2.0, 5)),
        ]);
    }
    vec![Table::new(
        "Figure 5.10 — level-3 BLAS utilizations (nr=4, 4 B/cycle)",
        &["mc=kc", "GEMM", "TRSM", "SYRK", "SYR2K"],
        rows,
    )
    .note("paper at 20 KB/PE, 4 B/cycle: GEMM 100%, TRSM 95%, SYRK 90%, SYR2K 85%")]
}

/// Table 5.1: LAC efficiency for level-3 BLAS at 1.1 GHz — model-derived
/// utilizations applied to the PE power model.
pub fn table5_1() -> Vec<Table> {
    let pe = PeModel::default();
    let freq = 1.1;
    let ops: Vec<(&str, f64)> = vec![
        (
            "GEMM",
            CoreGemmModel::new(4, 0.5, 512).utilization(256, 256),
        ),
        ("TRSM", trsm_utilization_bw(4, 64, 256, 2.0, 5)),
        ("SYRK", syrk_utilization(4, 256, 256, 2.0, 5)),
        ("SYR2K", syr2k_utilization(4, 256, 256, 2.0, 5)),
    ];
    let rows = ops
        .into_iter()
        .map(|(name, util)| {
            let m = core_metrics(&pe, 4, freq, util);
            vec![
                name.into(),
                f(m.power_w / m.area_mm2),
                f(m.gflops_per_mm2),
                f(m.gflops_per_w),
                pct(util),
            ]
        })
        .collect();
    vec![Table::new(
        "Table 5.1 — LAC efficiency for level-3 BLAS at 1.1 GHz (DP, modeled)",
        &[
            "algorithm",
            "W/mm^2",
            "GFLOPS/mm^2",
            "GFLOPS/W",
            "utilization",
        ],
        rows,
    )
    .note(
        "paper (nr=4): GEMM 54.4 GFLOPS/W @100%, TRSM 51.7 @95%, SYRK 49.0 @90%, SYR2K 43.0 @79%",
    )]
}
