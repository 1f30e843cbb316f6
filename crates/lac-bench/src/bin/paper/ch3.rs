//! Chapter 3 — core design: the core's bandwidth/local-store trade-off and
//! the PE's power, area and frequency models.

use crate::Table;
use lac_bench::{f, pct};
use lac_model::CoreGemmModel;
use lac_power::{platform_cores_table, PeModel, Precision};

/// Figure 3.4: estimated core performance vs core<->on-chip bandwidth and
/// local-store size (nr in {4,8}, mc = kc, n = 512).
pub fn fig3_4() -> Vec<Table> {
    let table = |nr: usize| {
        let mut rows = Vec::new();
        for kb in [2usize, 4, 8, 12, 16, 20, 24, 32, 40] {
            let words = kb * 1024 / 8;
            let mut row = vec![format!("{kb}")];
            for bw_bytes in [1.0f64, 2.0, 3.0, 4.0, 8.0] {
                let m = CoreGemmModel::new(nr, bw_bytes / 8.0, 512);
                let pt = m.point_for_local_store(words);
                row.push(pct(pt.utilization));
            }
            rows.push(row);
        }
        Table::new(
            format!("Figure 3.4 — utilization vs local store (nr={nr}, n=512)"),
            &[
                "KB/PE", "1 B/cyc", "2 B/cyc", "3 B/cyc", "4 B/cyc", "8 B/cyc",
            ],
            rows,
        )
    };
    vec![
        table(4),
        table(8).note(
            "paper shape: utilization rises with store and bandwidth; 8 B/cyc nr=4 saturates near 100%",
        ),
    ]
}

/// Figure 3.5: bandwidth needed for peak performance vs local-store size.
pub fn fig3_5() -> Vec<Table> {
    let mut rows = Vec::new();
    for kb in [2usize, 4, 6, 8, 10, 12, 16, 20] {
        let words = kb * 1024 / 8;
        let mut row = vec![format!("{kb}")];
        for nr in [4usize, 8] {
            let m = CoreGemmModel::new(nr, 1e9, 512);
            let pt = m.point_for_local_store(words);
            row.push(f(m.peak_bandwidth(pt.kc) * 8.0)); // bytes/cycle
        }
        rows.push(row);
    }
    vec![Table::new(
        "Figure 3.5 — bytes/cycle needed for peak vs local store (n=512)",
        &["KB/PE", "nr=4", "nr=8"],
        rows,
    )
    .note("paper shape: demand falls as the store grows; nr=8 needs ~2x the nr=4 bandwidth at twice the kernel")]
}

/// Rows of mm^2/GFLOP, mW/GFLOP and energy-delay at each frequency (SP).
fn efficiency_rows(freqs: &[f64]) -> Vec<Vec<String>> {
    let pe = PeModel {
        precision: Precision::Single,
        ..Default::default()
    };
    freqs
        .iter()
        .map(|&fr| {
            let m = pe.metrics(fr);
            vec![
                format!("{fr:.2}"),
                f(1.0 / m.gflops_per_mm2),   // mm^2/GFLOP
                f(1000.0 / m.gflops_per_w),  // mW/GFLOP
                f(1000.0 / m.gflops2_per_w), // energy-delay (scaled)
            ]
        })
        .collect()
}

/// Figure 3.6: PE efficiency metrics vs frequency — 1 GHz is the sweet spot.
pub fn fig3_6() -> Vec<Table> {
    vec![Table::new(
        "Figure 3.6 — PE efficiency metrics vs frequency (SP)",
        &["GHz", "mm^2/GFLOP", "mW/GFLOP", "energy-delay (x1e-3)"],
        efficiency_rows(&[0.3, 0.5, 0.75, 1.0, 1.32, 1.6, 1.8, 2.08]),
    )
    .note("paper: \"1 GHz appears to be the sweet-spot of the design\"")]
}

/// Figure 3.7: power efficiency and energy-delay vs area efficiency across
/// frequencies.
pub fn fig3_7() -> Vec<Table> {
    vec![Table::new(
        "Figure 3.7 — trade-off: area vs power efficiency vs E-D (SP; low freq at bottom)",
        &["GHz", "mm^2/GFLOP", "mW/GFLOP", "energy-delay (x1e-3)"],
        efficiency_rows(&[2.08, 1.8, 1.32, 1.0, 0.75, 0.5, 0.3]),
    )
    .note(
        "paper: at 1 GHz, >2x area efficiency and E-D vs 0.3 GHz; 40% better power eff. vs 1.8 GHz",
    )]
}

/// Table 3.1: 45 nm scaled performance and area for a LAP PE with 16 KB of
/// dual-ported SRAM, across frequencies and precisions.
pub fn table3_1() -> Vec<Table> {
    let mut rows = Vec::new();
    for (prec, label, freqs) in [
        (Precision::Single, "SP", vec![2.08, 1.32, 0.98, 0.50]),
        (Precision::Double, "DP", vec![1.81, 0.95, 0.33, 0.20]),
    ] {
        let pe = PeModel {
            precision: prec,
            ..Default::default()
        };
        for fr in freqs {
            let m = pe.metrics(fr);
            rows.push(vec![
                label.into(),
                format!("{fr:.2}"),
                f(m.area_mm2),
                f(m.memory_mw),
                f(m.fmac_mw),
                f(m.pe_mw),
                f(m.w_per_mm2),
                f(m.gflops_per_mm2),
                f(m.gflops_per_w),
                f(m.gflops2_per_w),
            ]);
        }
    }
    vec![Table::new(
        "Table 3.1 — PE performance/area, 45 nm (model)",
        &[
            "prec",
            "GHz",
            "area mm^2",
            "mem mW",
            "FMAC mW",
            "PE mW",
            "W/mm^2",
            "GFLOP/mm^2",
            "GFLOPS/W",
            "GFLOPS^2/W",
        ],
        rows,
    )
    .note("paper anchors: SP@0.98GHz: 15.9 mW, 113 GFLOPS/W; DP@0.95GHz: 38 mW, 46.4 GFLOPS/W")]
}

/// Table 3.2: 45 nm scaled performance and area of various cores running
/// GEMM — published comparators plus our modeled LAC.
pub fn table3_2() -> Vec<Table> {
    let rows = platform_cores_table()
        .into_iter()
        .map(|r| {
            vec![
                r.name.into(),
                format!("{:?}", r.precision),
                f(r.w_per_mm2),
                f(r.gflops_per_mm2),
                f(r.gflops_per_w),
                pct(r.utilization),
            ]
        })
        .collect();
    vec![Table::new(
        "Table 3.2 — cores running GEMM (paper data + our modeled LAC)",
        &["core", "prec", "W/mm^2", "GFLOPS/mm^2", "GFLOPS/W", "util"],
        rows,
    )
    .note("paper LAC rows: SP 0.2 W/mm^2, 19.5 GFLOPS/mm^2, 104 GFLOPS/W; DP 0.3, 15.6, 47")]
}
