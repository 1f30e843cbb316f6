//! Event-count → energy conversion (§1.3: "by plugging in power consumption
//! numbers for MAC units, memories, register files, and buses, our simulator
//! is able to produce an accurate power profile of the overall execution").

use crate::components::{FmacModel, Precision, BUS_ENERGY_PJ_PER_WORD, RF_ENERGY_PJ};
use crate::sram::SramModel;
use lac_sim::ExecStats;

/// Converts simulator event counts into energy and average power.
#[derive(Clone, Copy, Debug)]
pub struct EnergyModel {
    pub precision: Precision,
    pub freq_ghz: f64,
    /// Per-PE A-memory configuration.
    pub sram_a: SramModel,
    /// Per-PE B-memory configuration.
    pub sram_b: SramModel,
    /// Idle power fraction of average dynamic power.
    pub idle_ratio: f64,
    /// Whether the §A.2 comparator extension exists; without it a compare
    /// costs a full FMAC pass of energy.
    pub comparator_extension: bool,
    /// Energy per SFU (divide/sqrt family) operation, pJ.
    pub sfu_energy_pj: f64,
}

impl EnergyModel {
    /// The canonical LAC design point: DP, 1 GHz, 12 KB + 4 KB local stores.
    pub fn lac_default() -> Self {
        Self {
            precision: Precision::Double,
            freq_ghz: 1.0,
            sram_a: SramModel::new(12 * 1024, 1),
            sram_b: SramModel::new(4 * 1024, 2),
            idle_ratio: 0.25,
            comparator_extension: true,
            sfu_energy_pj: 120.0, // several MAC-passes worth of multiplies
        }
    }

    fn fmac(&self) -> FmacModel {
        FmacModel::new(self.precision)
    }

    /// Total energy of a run, in nanojoules.
    pub fn energy_nj(&self, stats: &ExecStats) -> f64 {
        let mac_pj = self.fmac().energy_pj(self.freq_ghz);
        let cmp_pj = if self.comparator_extension {
            mac_pj * 0.15
        } else {
            mac_pj
        };
        let a_pj = self.sram_a.energy_pj_per_access();
        let b_pj = self.sram_b.energy_pj_per_access();
        let dyn_pj = (stats.mac_ops + stats.fma_ops) as f64 * mac_pj
            + stats.cmp_ops as f64 * cmp_pj
            + stats.sfu_ops as f64 * self.sfu_energy_pj
            + (stats.sram_a_reads + stats.sram_a_writes) as f64 * a_pj
            + (stats.sram_b_reads + stats.sram_b_writes) as f64 * b_pj
            + (stats.rf_reads + stats.rf_writes) as f64 * RF_ENERGY_PJ
            + (stats.row_bus_transfers + stats.col_bus_transfers) as f64
                * BUS_ENERGY_PJ_PER_WORD
            + (stats.ext_reads + stats.ext_writes) as f64 * 12.0 // on-chip bank access
            + stats.acc_accesses as f64 * 0.5;
        dyn_pj * (1.0 + self.idle_ratio) / 1000.0
    }

    /// Average power in mW over the run.
    pub fn avg_power_mw(&self, stats: &ExecStats) -> f64 {
        if stats.cycles == 0 {
            return 0.0;
        }
        let seconds = stats.cycles as f64 / (self.freq_ghz * 1e9);
        self.energy_nj(stats) * 1e-9 / seconds * 1e3
    }

    /// Power efficiency in GFLOPS/W for a run.
    pub fn gflops_per_w(&self, stats: &ExecStats) -> f64 {
        let seconds = stats.cycles as f64 / (self.freq_ghz * 1e9);
        let gflops = stats.flops() as f64 / seconds / 1e9;
        gflops / (self.avg_power_mw(stats) / 1000.0)
    }

    /// All three energy axes of a run at once.
    pub fn summarize(&self, stats: &ExecStats) -> EnergySummary {
        EnergySummary {
            energy_nj: self.energy_nj(stats),
            avg_power_mw: self.avg_power_mw(stats),
            gflops_per_w: self.gflops_per_w(stats),
        }
    }
}

/// Energy/power/efficiency of one run or session, as the paper reports them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergySummary {
    /// Total energy, nanojoules.
    pub energy_nj: f64,
    /// Average power over the run, milliwatts.
    pub avg_power_mw: f64,
    /// Power efficiency, GFLOPS/W.
    pub gflops_per_w: f64,
}

/// Energy reporting for a whole [`lac_sim::Lac`] session.
///
/// Lives here rather than on the core itself because `lac-power` depends
/// on `lac-sim` (for [`ExecStats`]); bring this trait into scope and every
/// core gains `.energy_summary(&model)` over its session counters.
pub trait SessionEnergy {
    fn energy_summary(&self, model: &EnergyModel) -> EnergySummary;
}

impl SessionEnergy for lac_sim::Lac {
    fn energy_summary(&self, model: &EnergyModel) -> EnergySummary {
        model.summarize(self.session_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_like_stats(cycles: u64) -> ExecStats {
        ExecStats {
            cycles,
            mac_ops: cycles * 16,
            sram_a_reads: cycles * 4,
            sram_b_reads: cycles * 16,
            row_bus_transfers: cycles * 4,
            active_cycles: cycles,
            ..Default::default()
        }
    }

    #[test]
    fn gemm_power_in_pe_envelope() {
        // A fully-active 4×4 DP core at 1 GHz should land near 16 PEs ×
        // ~40 mW (Table 3.1's neighbourhood).
        let m = EnergyModel::lac_default();
        let p = m.avg_power_mw(&gemm_like_stats(100_000));
        assert!((400.0..1000.0).contains(&p), "core power {p} mW");
    }

    #[test]
    fn gemm_efficiency_order_of_magnitude() {
        // DP GEMM at 1 GHz: tens of GFLOPS/W (the dissertation's headline).
        let m = EnergyModel::lac_default();
        let eff = m.gflops_per_w(&gemm_like_stats(100_000));
        assert!((25.0..80.0).contains(&eff), "efficiency {eff}");
    }

    #[test]
    fn idle_core_consumes_idle_power_only() {
        let m = EnergyModel::lac_default();
        let idle = ExecStats {
            cycles: 1000,
            ..Default::default()
        };
        assert_eq!(m.energy_nj(&idle), 0.0, "no events, no modeled energy");
    }

    #[test]
    fn comparator_extension_cheapens_compares() {
        let stats = ExecStats {
            cycles: 1000,
            cmp_ops: 1000,
            ..Default::default()
        };
        let with = EnergyModel::lac_default();
        let without = EnergyModel {
            comparator_extension: false,
            ..with
        };
        assert!(without.energy_nj(&stats) > 3.0 * with.energy_nj(&stats));
    }

    #[test]
    fn single_precision_cheaper() {
        let stats = gemm_like_stats(10_000);
        let dp = EnergyModel::lac_default();
        let sp = EnergyModel {
            precision: Precision::Single,
            ..dp
        };
        assert!(sp.energy_nj(&stats) < dp.energy_nj(&stats));
    }
}
