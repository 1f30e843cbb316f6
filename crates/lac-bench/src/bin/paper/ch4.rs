//! Chapter 4 — chip design: the memory hierarchy's bandwidth and capacity
//! trade-offs, the chip's area and power, and the comparison with GPUs and
//! CPUs.

use crate::Table;
use lac_bench::{f, pct};
use lac_model::{predict_csx, predict_fermi, ChipGemmModel};
use lac_power::compare::design_choice_table;
use lac_power::{
    chip_metrics, core_metrics, platform_systems_table, power_breakdown, NucaModel, PeModel,
    Precision, SramModel,
};

/// Figure 4.2: on-chip bandwidth vs memory size for different core
/// organizations and problem sizes (fixed 128 PEs total).
pub fn fig4_2() -> Vec<Table> {
    let mut rows = Vec::new();
    for (nr, s) in [(4usize, 8usize), (8, 2)] {
        for n in [512usize, 1024, 2048] {
            for mc in [32usize, 64, 128, 256, 512] {
                if mc > n {
                    continue;
                }
                let m = ChipGemmModel::new(nr, s, n, mc);
                rows.push(vec![
                    format!("nr={nr} S={s}"),
                    format!("{n}"),
                    format!("{mc}"),
                    f(m.onchip_words() * 8.0 / 1024.0 / 1024.0),
                    f(m.onchip_bandwidth() * 8.0),
                ]);
            }
        }
    }
    vec![Table::new(
        "Figure 4.2 — on-chip bandwidth vs memory size (util > 93% along curve)",
        &[
            "organization",
            "n",
            "mc=kc",
            "on-chip mem [MB]",
            "BW [bytes/cycle]",
        ],
        rows,
    )
    .note("paper shape: BW grows quadratically as memory shrinks; fewer/bigger cores demand much less")]
}

/// Figure 4.3: LAP performance vs on-chip memory for different core counts
/// and total on-chip bandwidths (relative to a single 4x4 core).
pub fn fig4_3() -> Vec<Table> {
    let mut rows = Vec::new();
    for (s, bw) in [
        (4usize, 1.0f64),
        (8, 2.0),
        (16, 4.0),
        (4, 4.0),
        (8, 8.0),
        (16, 16.0),
        (4, 8.0),
        (16, 32.0),
    ] {
        for mc in [32usize, 64, 128, 256] {
            let n = 4 * mc; // memory grows with the block size
            let m = ChipGemmModel::new(4, s, n, mc);
            let perf_rel = 100.0 * s as f64 * m.utilization(bw);
            rows.push(vec![
                format!("S={s} BW={bw}"),
                f(m.onchip_words() * 8.0 / 1024.0 / 1024.0),
                f(perf_rel),
            ]);
        }
    }
    vec![Table::new(
        "Figure 4.3 — relative performance [% of one core] vs on-chip memory",
        &["config (words/cyc)", "on-chip mem [MB]", "perf [%]"],
        rows,
    )
    .note("paper shape: same S/BW ratio => similar perf at small memory; more memory unlocks core scaling")]
}

/// Figure 4.5: external bandwidth vs on-chip memory size trade-off
/// (blocking layer of Figure 4.4), for several original problem sizes.
pub fn fig4_5() -> Vec<Table> {
    let mut rows = Vec::new();
    for n in [512usize, 1024, 2048] {
        for d in [1usize, 2, 4, 8] {
            let ns = n / d;
            let k = d.min(2); // sub-blocks held on chip
            let m = ChipGemmModel::new(4, 8, n, 128.min(ns));
            let mem_mb = (k * ns * ns) as f64 * 8.0 / 1024.0 / 1024.0;
            rows.push(vec![
                format!("{n}"),
                format!("{ns}"),
                f(mem_mb),
                f(m.offchip_bandwidth_shrunk(ns, k) * 8.0),
            ]);
        }
    }
    vec![Table::new(
        "Figure 4.5 — external bandwidth vs on-chip memory (util > 92%)",
        &[
            "n",
            "ns (sub-block)",
            "on-chip mem [MB]",
            "ext BW [bytes/cycle]",
        ],
        rows,
    )
    .note("paper shape: demand rises as memory shrinks; larger original problems demand less")]
}

/// Figure 4.6: LAP performance vs external off-chip bandwidth and on-chip
/// memory size (1.4 GHz, nr=4).
pub fn fig4_6() -> Vec<Table> {
    let freq = 1.4;
    let mut rows = Vec::new();
    for s in [4usize, 8, 16] {
        for z_bytes in [4.0f64, 8.0, 16.0, 24.0] {
            for n in [256usize, 512, 768, 1024] {
                let m = ChipGemmModel::new(4, s, n, 128.min(n));
                let util = m.utilization_offchip(z_bytes / 8.0);
                let gflops = 2.0 * (s * 16) as f64 * freq * util;
                rows.push(vec![
                    format!("S={s}"),
                    format!("{z_bytes}"),
                    f((n * n) as f64 * 8.0 / 1024.0 / 1024.0),
                    f(gflops),
                ]);
            }
        }
    }
    vec![Table::new(
        "Figure 4.6 — LAP GFLOPS vs off-chip BW and on-chip memory (1.4 GHz)",
        &["cores", "ext BW [B/cyc]", "on-chip mem [MB]", "GFLOPS"],
        rows,
    )
    .note("paper: 16 cores, 5 MB, 16 B/cycle => ~600 of 700 GFLOPS peak")]
}

/// Figure 4.7: area of a single PE vs local-store size (45 nm).
pub fn fig4_7() -> Vec<Table> {
    let mut rows = Vec::new();
    for kb in [2usize, 4, 6, 8, 10, 12, 14, 16, 18] {
        let pe = PeModel {
            local_store_bytes: kb * 1024,
            ..Default::default()
        };
        let sram = SramModel::new(kb * 1024, 2);
        rows.push(vec![
            format!("{kb}"),
            f(sram.area_mm2()),
            f(pe.fmac().area_mm2()),
            f(pe.area_mm2()),
        ]);
    }
    vec![Table::new(
        "Figure 4.7 — PE area vs local store (45 nm, DP)",
        &["KB", "local store mm^2", "FPU mm^2", "PE mm^2"],
        rows,
    )
    .note("paper: at 18 KB the store is ~2/3 of the PE, linear in capacity")]
}

/// Figure 4.8: leakage, local store, and total PE power efficiency vs
/// local-store size.
pub fn fig4_8() -> Vec<Table> {
    let mut rows = Vec::new();
    for kb in [2usize, 4, 6, 8, 10, 12, 14, 16, 18] {
        let pe = PeModel {
            local_store_bytes: kb * 1024,
            ..Default::default()
        };
        let m = pe.metrics(1.0);
        rows.push(vec![
            format!("{kb}"),
            f(m.pe_mw / m.gflops),
            f(m.memory_mw / m.gflops),
            f(m.fmac_mw / m.gflops),
            f(pe.sram().leakage_mw() / m.gflops),
        ]);
    }
    vec![Table::new(
        "Figure 4.8 — PE mW/GFLOP vs local store (1 GHz, DP)",
        &["KB", "PE", "local store", "FPU", "leakage"],
        rows,
    )
    .note("paper: FPU dominates; smaller stores use less power but raise density and on-chip BW demand")]
}

/// Figures 4.9/4.10: area and power efficiency of cores + on-chip SRAM for
/// a 128-MAC system (S=8 4x4 cores), across on-chip memory sizes.
pub fn fig4_9_10() -> Vec<Table> {
    let pe = PeModel::default();
    let mut rows = Vec::new();
    for mb in [0.25f64, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let bytes = (mb * 1024.0 * 1024.0) as usize;
        let cores = core_metrics(&pe, 4, 1.0, 0.95);
        let chip = chip_metrics(&pe, 4, 8, 1.0, 0.95, bytes, 4.0);
        let mem = SramModel::new(bytes, 2);
        rows.push(vec![
            f(mb),
            f(cores.area_mm2 * 8.0),
            f(mem.area_mm2()),
            f(chip.area_mm2),
            f(1000.0 / chip.gflops_per_w),
        ]);
    }
    vec![Table::new(
        "Figures 4.9/4.10 — area [mm^2] and power [mW/GFLOP] vs on-chip SRAM (S=8, n=2048)",
        &[
            "mem MB",
            "cores mm^2",
            "on-chip mem mm^2",
            "chip mm^2",
            "chip mW/GFLOP",
        ],
        rows,
    )
    .note("paper: with domain-specific SRAM nearly all chip power is in the cores; memory trade-offs negligible")]
}

/// Figures 4.11/4.12: the same 128-MAC system with NUCA caches instead of
/// SRAM — the memory now dominates both area and power at small sizes.
pub fn fig4_11_12() -> Vec<Table> {
    let pe = PeModel::default();
    let cores = core_metrics(&pe, 4, 1.0, 0.95);
    let mut rows = Vec::new();
    for mb in [0.25f64, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let bytes = (mb * 1024.0 * 1024.0) as usize;
        // Smaller memory must sustain higher bandwidth (Figure 4.2).
        let bw = 4.0 * (2.0 / mb).max(1.0);
        let nuca = NucaModel::new(bytes, bw);
        let mem_power_w = (nuca.power_mw(1.0, bw) + nuca.leakage_mw()) / 1000.0;
        let chip_area = cores.area_mm2 * 8.0 + nuca.area_mm2();
        let chip_power = cores.power_w * 8.0 + mem_power_w;
        let gflops = cores.gflops * 8.0;
        rows.push(vec![
            f(mb),
            f(cores.area_mm2 * 8.0),
            f(nuca.area_mm2()),
            f(chip_area),
            f(mem_power_w * 1000.0 / gflops),
            f(chip_power * 1000.0 / gflops),
        ]);
    }
    vec![Table::new(
        "Figures 4.11/4.12 — NUCA-based system (S=8, n=2048)",
        &[
            "mem MB",
            "cores mm^2",
            "NUCA mm^2",
            "chip mm^2",
            "mem mW/GFLOP",
            "chip mW/GFLOP",
        ],
        rows,
    )
    .note("paper: NUCA occupies more area than the cores in all cases; small fast NUCA is worst")]
}

/// One power-breakdown table per platform (mW per delivered GFLOPS), each
/// followed by its total.
fn power_breakdowns(figure: &str, platforms: [&str; 2]) -> Vec<Table> {
    platforms
        .into_iter()
        .map(|plat| {
            let b = power_breakdown(plat);
            let total: f64 = b.iter().map(|i| i.mw_per_gflops).sum();
            let rows = b
                .iter()
                .map(|i| {
                    vec![
                        i.component.into(),
                        f(i.mw_per_gflops),
                        format!("{:.1}%", 100.0 * i.mw_per_gflops / total),
                    ]
                })
                .collect();
            Table::new(
                format!("Figure {figure} — {plat} power breakdown (mW per delivered GFLOPS)"),
                &["component", "mW/GFLOPS", "share"],
                rows,
            )
            .footer(format!("total: {total:.1} mW/GFLOPS"))
        })
        .collect()
}

/// Figure 4.13: normalized power breakdown — GTX280 vs LAP, 65 nm.
pub fn fig4_13() -> Vec<Table> {
    power_breakdowns("4.13", ["gtx280", "lap-sp"])
}

/// Figure 4.14: normalized power breakdown — GTX480 vs LAP, 45 nm.
pub fn fig4_14() -> Vec<Table> {
    power_breakdowns("4.14", ["gtx480", "lap-sp"])
}

/// Figure 4.15: normalized power breakdown — Penryn vs LAP, 45 nm.
pub fn fig4_15() -> Vec<Table> {
    power_breakdowns("4.15", ["penryn", "lap-dp"])
}

/// Figure 4.16: GFLOPS/W comparison — GPUs/CPU vs equal-throughput LAPs.
pub fn fig4_16() -> Vec<Table> {
    let mk = |prec, s| {
        let pe = PeModel {
            precision: prec,
            ..Default::default()
        };
        chip_metrics(&pe, 4, s, 1.3, 0.9, 5 * 1024 * 1024, 4.0)
    };
    let rows = vec![
        vec!["GTX480 SGEMM (published)".into(), f(5.2)],
        vec![
            "LAP-30 SP (same throughput, modeled)".into(),
            f(mk(Precision::Single, 30).gflops_per_w),
        ],
        vec!["GTX480 DGEMM (published)".into(), f(2.6)],
        vec![
            "LAP-15 DP (modeled)".into(),
            f(mk(Precision::Double, 15).gflops_per_w),
        ],
        vec!["GTX280 SGEMM (published)".into(), f(2.6)],
        vec![
            "LAP-15 SP (modeled)".into(),
            f(mk(Precision::Single, 15).gflops_per_w),
        ],
        vec!["Penryn DGEMM (published)".into(), f(0.6)],
        vec![
            "LAP-2 DP (modeled)".into(),
            f(mk(Precision::Double, 2).gflops_per_w),
        ],
    ];
    vec![Table::new(
        "Figure 4.16 — chip-level GFLOPS/W",
        &["system", "GFLOPS/W"],
        rows,
    )
    .note("paper shape: each LAP an order of magnitude above its throughput-matched counterpart")]
}

/// Table 4.1: bandwidth and memory requirements of the memory-hierarchy
/// layers, partial vs full overlap.
pub fn table4_1() -> Vec<Table> {
    let m = ChipGemmModel::new(4, 8, 2048, 256);
    let rows = m
        .hierarchy_table()
        .into_iter()
        .map(|r| {
            vec![
                r.level.into(),
                r.variant.into(),
                if r.size_words.is_nan() {
                    "-".into()
                } else {
                    f(r.size_words)
                },
                f(r.bandwidth),
            ]
        })
        .collect();
    vec![Table::new(
        "Table 4.1 — memory hierarchy requirements (S=8, nr=4, n=2048, mc=kc=256)",
        &["layer", "overlap", "size [words]", "BW [words/cycle]"],
        rows,
    )]
}

/// Table 4.2: 45 nm scaled performance and area of systems running GEMM.
pub fn table4_2() -> Vec<Table> {
    let rows = platform_systems_table()
        .into_iter()
        .map(|r| {
            vec![
                r.name.into(),
                format!("{:?}", r.precision),
                f(r.gflops),
                f(r.w_per_mm2),
                f(r.gflops_per_mm2),
                f(r.gflops_per_w),
                f(r.gflops * r.gflops_per_w),
                pct(r.utilization),
            ]
        })
        .collect();
    vec![Table::new(
        "Table 4.2 — systems running GEMM",
        &[
            "system",
            "prec",
            "GFLOPS",
            "W/mm^2",
            "GFLOPS/mm^2",
            "GFLOPS/W",
            "GFLOPS^2/W",
            "util",
        ],
        rows,
    )
    .note("paper LAP rows: SP 1200 GFLOPS, 30-55 GFLOPS/W; DP 600 GFLOPS, 15-25 GFLOPS/W")]
}

/// Table 4.3: qualitative comparison of main design choices.
pub fn table4_3() -> Vec<Table> {
    let t = design_choice_table();
    let rows = t[1..]
        .iter()
        .map(|r| r.iter().map(|s| s.to_string()).collect())
        .collect();
    vec![Table::new(
        "Table 4.3 — design choices: CPUs vs GPUs vs LAP",
        &t[0],
        rows,
    )]
}

/// Section 4.3: model validation — predicted utilization ceilings for
/// Nvidia Fermi C2050 and ClearSpeed CSX700 vs measured GEMM results.
pub fn sec4_3_validation() -> Vec<Table> {
    let rows = [predict_fermi(), predict_csx()]
        .into_iter()
        .map(|p| {
            vec![
                p.name.into(),
                f(p.demanded_gbs),
                f(p.available_gbs),
                pct(p.predicted_utilization),
                pct(p.measured_utilization),
            ]
        })
        .collect();
    vec![Table::new(
        "Section 4.3 — memory-hierarchy model validation",
        &[
            "platform",
            "demanded GB/s",
            "available GB/s",
            "predicted ceiling",
            "measured",
        ],
        rows,
    )
    .note("paper: Fermi 74% predicted vs 70% measured; CSX 83% predicted vs 78% measured")]
}
