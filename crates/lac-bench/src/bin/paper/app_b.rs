//! Appendix B — the FFT core: its store and bandwidth requirements, the PE
//! SRAM options, and the three PE designs' power and area.

use crate::Table;
use lac_bench::{f, pct};
use lac_model::{FftCoreModel, FftVariant};
use lac_power::fft_pe_designs;
use lac_power::sram::sram_option_table;

/// Figure B.5: bandwidth required for full overlap, worst case, per problem.
pub fn figb_5() -> Vec<Table> {
    let m = FftCoreModel::default();
    let mut rows = Vec::new();
    for n in [64usize, 4096, 65536] {
        rows.push(vec![
            format!("{n}-pt 1D"),
            f(m.overlap_bandwidth()),
            f(m.avg_comm_load(n, FftVariant::Overlapped, 4.0)),
        ]);
    }
    vec![Table::new(
        "Figure B.5 — words/cycle for full overlap (cap: 4 doubles/cycle on the column buses)",
        &["problem", "worst-case demand", "average load"],
        rows,
    )]
}

/// Figure B.6: local store per PE and utilization, overlapped vs not.
pub fn figb_6() -> Vec<Table> {
    let m = FftCoreModel::default();
    let mut rows = Vec::new();
    for variant in [FftVariant::NonOverlapped, FftVariant::Overlapped] {
        rows.push(vec![
            format!("{variant:?}"),
            format!("{}", m.local_store_per_pe(variant)),
            f(m.local_store_per_pe(variant) as f64 * 8.0 / 1024.0),
            pct(m.utilization(variant, 4.0)),
        ]);
    }
    vec![Table::new(
        "Figure B.6 — FFT local store/PE and utilization",
        &["variant", "words/PE", "KB/PE", "utilization"],
        rows,
    )]
}

/// Figure B.7: average communication load on the core for a 64K 1D FFT.
pub fn figb_7() -> Vec<Table> {
    let m = FftCoreModel::default();
    let mut rows = Vec::new();
    for bw in [1.0f64, 2.0, 4.0] {
        rows.push(vec![
            f(bw),
            f(m.avg_comm_load(65536, FftVariant::Overlapped, bw)),
            f(m.avg_comm_load(65536, FftVariant::NonOverlapped, bw)),
        ]);
    }
    vec![Table::new(
        "Figure B.7 — average words/cycle, 64K-point 1D FFT",
        &["available BW", "overlapped", "non-overlapped"],
        rows,
    )]
}

/// Figures B.11/B.12/B.13: actual and maximum PE power, and PE area
/// breakdown, for the three designs at 1 GHz.
pub fn figb_11_12_13() -> Vec<Table> {
    let rows = fft_pe_designs(1.0)
        .iter()
        .map(|d| {
            vec![
                format!("{:?}", d.design),
                d.la_power_mw.map(f).unwrap_or("-".into()),
                d.fft_power_mw.map(f).unwrap_or("-".into()),
                f(d.max_power_mw),
                f(d.area_mm2),
            ]
        })
        .collect();
    vec![Table::new(
        "Figures B.11-13 — PE power (per workload, max) and area per design (1 GHz)",
        &["design", "LA mW", "FFT mW", "max mW", "area mm^2"],
        rows,
    )]
}

/// Table B.1: FFT core requirements for overlapped and non-overlapped
/// N x N 2D and N^2 1D transforms.
pub fn tableb_1() -> Vec<Table> {
    let m = FftCoreModel::default();
    let mut rows = Vec::new();
    for n in [256usize, 1024] {
        for variant in [FftVariant::NonOverlapped, FftVariant::Overlapped] {
            let (store, bw) = m.requirements(variant);
            rows.push(vec![
                format!("{n}x{n} 2D"),
                format!("{variant:?}"),
                format!("{store}"),
                f(bw),
                f(m.cycles_2d(n, variant, 4.0)),
            ]);
            rows.push(vec![
                format!("{} 1D", n * n),
                format!("{variant:?}"),
                format!("{store}"),
                f(bw),
                f(m.cycles_1d(n * n, variant, 4.0)),
            ]);
        }
    }
    vec![Table::new(
        "Table B.1 — FFT core requirements (store words/PE, BW words/cycle)",
        &["problem", "variant", "store/PE", "BW for overlap", "cycles"],
        rows,
    )]
}

/// Table B.2: PE SRAM options — area, energy, leakage (CACTI stand-in).
pub fn tableb_2() -> Vec<Table> {
    let rows = sram_option_table()
        .into_iter()
        .map(|r| vec![r.label, f(r.area_mm2), f(r.energy_pj), f(r.leakage_mw)])
        .collect();
    vec![Table::new(
        "Table B.2 — PE SRAM options (45 nm model)",
        &["configuration", "area mm^2", "pJ/access", "leakage mW"],
        rows,
    )]
}
