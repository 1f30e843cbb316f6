//! Chapter 6 — factorizations and the FFT: divide/square-root and
//! comparator extensions, the vector-norm and LU-panel kernels measured on
//! the simulator, Householder, and the hybrid LA/FFT core.

use crate::Table;
use lac_bench::f;
use lac_kernels::{LuOptions, LuPanelWorkload, VecnormWorkload, VnormOptions, Workload};
use lac_power::fft_designs::fft_platforms_table;
use lac_power::{divsqrt_area_breakdown, fft_pe_designs, DivSqrtOption, EnergyModel, PeDesign};
use lac_sim::{Lac, LacConfig};
use linalg_ref::householder::{house, house_simple};
use linalg_ref::Matrix;

/// Figure 6.5: LAC area breakdown with different divide/square-root options.
pub fn fig6_5() -> Vec<Table> {
    let rows = [
        DivSqrtOption::Software,
        DivSqrtOption::Isolated,
        DivSqrtOption::DiagonalPes,
    ]
    .into_iter()
    .map(|opt| {
        let b = divsqrt_area_breakdown(opt);
        vec![
            format!("{opt:?}"),
            f(b.pes_mm2),
            f(b.mac_extension_mm2),
            f(b.lookup_mm2),
            f(b.special_logic_mm2),
            f(b.total()),
        ]
    })
    .collect();
    vec![Table::new(
        "Figure 6.5 — LAC area with divide/sqrt extensions (mm^2, 45 nm)",
        &[
            "option",
            "PEs",
            "MAC ext",
            "lookup",
            "special logic",
            "total",
        ],
        rows,
    )
    .note("paper: all options within a few percent of the bare 16-PE array (~2.3-2.6 mm^2)")]
}

/// Figure 6.6: vector-norm inner-kernel power efficiency vs hardware
/// extensions and problem size — measured on the cycle-accurate simulator
/// on `Lac` cores.
pub fn fig6_6() -> Vec<Table> {
    let mut rows = Vec::new();
    for k in [16usize, 32, 64] {
        let n = k * 4;
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 37 % 100) as f64 - 50.0) / 25.0)
            .collect();
        let mut row = vec![format!("{n}")];
        for (label, opts) in [
            (
                "no ext (SW)",
                VnormOptions {
                    exponent_extension: false,
                    comparator: false,
                },
            ),
            (
                "comparator",
                VnormOptions {
                    exponent_extension: false,
                    comparator: true,
                },
            ),
            (
                "exp ext",
                VnormOptions {
                    exponent_extension: true,
                    comparator: false,
                },
            ),
        ] {
            let w = VecnormWorkload::new(x.clone(), opts);
            let mut lac = Lac::new(w.config(LacConfig::default()));
            let rep = w.run(&mut lac).expect(label);
            w.check(&rep).expect(label);
            let em = EnergyModel {
                comparator_extension: opts.comparator,
                ..EnergyModel::lac_default()
            };
            // Effective efficiency: only the 2K mathematically necessary
            // flops count; scaling passes are pure overhead (paper metric).
            let useful_gflop = 2.0 * n as f64 / 1e9;
            let seconds = rep.stats.cycles as f64 / 1e9;
            let watts = em.avg_power_mw(&rep.stats) / 1000.0;
            row.push(format!(
                "{} ({} cyc)",
                f(useful_gflop / seconds / watts),
                rep.stats.cycles
            ));
        }
        rows.push(row);
    }
    vec![Table::new(
        "Figure 6.6 — vector norm GFLOPS/W (simulated cycles + energy model)",
        &["vector length", "no ext", "comparator", "exp extension"],
        rows,
    )
    .note(
        "paper shape: exp extension best, comparator middle, software worst; gap grows with size",
    )]
}

/// Figure 6.7: LU-with-partial-pivoting inner-kernel power efficiency vs
/// extensions and panel height — measured on the simulator through
/// `Lac` cores.
pub fn fig6_7() -> Vec<Table> {
    let mut rows = Vec::new();
    for k in [16usize, 32, 64] {
        let kk = k * 4;
        // The 1e-7·i term breaks magnitude ties (the mod-19 pattern repeats),
        // which would otherwise make pivot choice implementation-defined.
        let a = Matrix::from_fn(kk, 4, |i, j| {
            (((i * 7 + j * 13) % 19) as f64 - 9.0) / 5.0
                + i as f64 * 1e-7
                + if i == j { 3.0 } else { 0.0 }
        });
        let mut row = vec![format!("{kk}x4")];
        for (label, comparator) in [("no comparator (SW)", false), ("comparator", true)] {
            let w = LuPanelWorkload::new(a.clone(), LuOptions { comparator });
            let mut lac = Lac::new(w.config(LacConfig::default()));
            let rep = w.run(&mut lac).expect(label);
            w.check(&rep).expect(label);
            let em = EnergyModel {
                comparator_extension: comparator,
                ..EnergyModel::lac_default()
            };
            row.push(format!(
                "{} ({} cyc)",
                f(em.gflops_per_w(&rep.stats)),
                rep.stats.cycles
            ));
        }
        rows.push(row);
    }
    vec![Table::new(
        "Figure 6.7 — LU(pp) panel GFLOPS/W (simulated cycles + energy model)",
        &["panel", "no comparator", "comparator"],
        rows,
    )
    .note("paper shape: the comparator extension's advantage grows with panel height")]
}

/// Figure 6.9: efficiency of the FFT/hybrid designs normalized to the
/// original LAC at 1 GHz.
pub fn fig6_9() -> Vec<Table> {
    let designs = fft_pe_designs(1.0);
    let base = designs
        .iter()
        .find(|d| d.design == PeDesign::DedicatedLinearAlgebra)
        .and_then(|d| d.la_gflops_per_w)
        .unwrap();
    let rows = designs
        .iter()
        .map(|d| {
            vec![
                format!("{:?}", d.design),
                d.la_gflops_per_w.map(|e| f(e / base)).unwrap_or("-".into()),
                d.fft_gflops_per_w
                    .map(|e| f(e / base))
                    .unwrap_or("-".into()),
                f(d.area_mm2 / designs[0].area_mm2),
            ]
        })
        .collect();
    vec![Table::new(
        "Figure 6.9 — efficiency normalized to the original LAC (1 GHz)",
        &["design", "LA eff (norm)", "FFT eff (norm)", "area (norm)"],
        rows,
    )
    .note("paper: the hybrid keeps ~all the LA efficiency while adding FFT capability")]
}

/// Table 6.1: Householder computation — simple vs efficient formulation
/// produce identical reflectors (demonstrated numerically).
pub fn table6_1() -> Vec<Table> {
    let cases: Vec<(f64, Vec<f64>)> = vec![
        (3.0, vec![4.0]),
        (-2.0, vec![1.0, 2.0, 2.0]),
        (0.5, vec![-0.1, 0.7, 0.3, -0.9]),
        (1e150, vec![1e150, -1e150]),
    ];
    let mut rows = Vec::new();
    for (a1, tail) in &cases {
        let simple = house_simple(*a1, tail);
        let eff = house(*a1, tail);
        rows.push(vec![
            format!("alpha1={a1:.1e}, |a21|={}", tail.len()),
            f(simple.rho),
            f(eff.rho),
            f(simple.tau),
            f(eff.tau),
            format!(
                "{:.1e}",
                (simple.rho - eff.rho).abs() + (simple.tau - eff.tau).abs()
            ),
        ]);
    }
    vec![Table::new(
        "Table 6.1 — Householder: simple vs efficient computation",
        &[
            "case",
            "rho (simple)",
            "rho (efficient)",
            "tau (simple)",
            "tau (efficient)",
            "|diff|",
        ],
        rows,
    )
    .note("the efficient form needs one norm of the tail instead of two passes — the LAC kernel uses it")]
}

/// Table 6.2 / B.3: the hybrid LA/FFT core vs alternatives for
/// cache-contained double-precision FFTs.
pub fn table6_2() -> Vec<Table> {
    let rows = fft_platforms_table()
        .into_iter()
        .map(|r| vec![r.name.into(), f(r.gflops_per_w)])
        .collect();
    let platforms = Table::new(
        "Table 6.2 — cache-contained DP FFT efficiency (45 nm scaled)",
        &["platform", "GFLOPS/W"],
        rows,
    );

    let designs = fft_pe_designs(1.0);
    let rows = designs
        .iter()
        .map(|d| {
            vec![
                format!("{:?}", d.design),
                f(d.area_mm2),
                d.la_power_mw.map(f).unwrap_or("-".into()),
                d.fft_power_mw.map(f).unwrap_or("-".into()),
                d.la_gflops_per_w.map(f).unwrap_or("-".into()),
                d.fft_gflops_per_w.map(f).unwrap_or("-".into()),
            ]
        })
        .collect();
    let pe_designs = Table::new(
        "Table B.3 — PE designs: dedicated LA, dedicated FFT, hybrid (1 GHz, DP)",
        &[
            "design",
            "area mm^2",
            "LA mW",
            "FFT mW",
            "LA GFLOPS/W",
            "FFT GFLOPS/W",
        ],
        rows,
    )
    .note("paper: hybrid within a few % of each dedicated design; order of magnitude above CPUs for FFT");
    vec![platforms, pe_designs]
}
