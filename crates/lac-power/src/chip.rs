//! Chip-level energy: price a multi-core [`ChipStats`] the way
//! [`crate::EnergyModel`] prices a single core's [`lac_sim::ExecStats`].
//!
//! A chip run costs the sum of its cores' dynamic energy plus *uncore*
//! energy the per-core model cannot see: the shared on-chip memory
//! interconnect pays an arbitration/wire premium per word crossing a core
//! boundary, and the uncore (NUCA banks, clock spine, off-chip PHY) burns
//! static power for the whole makespan regardless of which cores are busy —
//! a core that finishes early stops issuing MACs but does not power down
//! the fabric around it.

use crate::energy::{EnergyModel, EnergySummary};
use lac_sim::ChipStats;

/// Converts a chip run's merged statistics into energy and power.
///
/// ```
/// use lac_power::ChipEnergyModel;
/// use lac_sim::{ChipStats, ExecStats};
///
/// // Two cores: one busy for 10k cycles, one idle — a dependency-stalled
/// // chip run as `LacService::submit` would report it.
/// let busy = ExecStats {
///     cycles: 10_000,
///     mac_ops: 100_000,
///     sram_a_reads: 40_000,
///     ext_reads: 10_000,
///     active_cycles: 10_000,
///     ..Default::default()
/// };
/// let mut aggregate = ExecStats::default();
/// aggregate.merge(&busy);
/// let stats = ChipStats {
///     per_core: vec![busy, ExecStats::default()],
///     jobs_per_core: vec![1, 0],
///     makespan_cycles: 10_000,
///     aggregate,
/// };
///
/// let model = ChipEnergyModel::lap_default();
/// let e = model.summarize(&stats);
/// // Totals decompose into per-core dynamic energy plus the uncore.
/// assert!((e.total_nj - e.cores_nj - e.uncore_nj).abs() < 1e-9);
/// assert!(e.uncore_nj > 0.0, "the fabric never sleeps");
/// assert!(e.gflops_per_w > 0.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ChipEnergyModel {
    /// Per-core pricing (every shard is identical).
    pub core: EnergyModel,
    /// Interconnect/arbitration premium per external word moved between a
    /// core and the shared on-chip memory, pJ/word (on top of the bank
    /// access energy the core model already counts).
    pub uncore_pj_per_word: f64,
    /// Static uncore power per core, mW — NUCA leakage, clock distribution
    /// and the off-chip interface, burned over the whole makespan.
    pub uncore_static_mw_per_core: f64,
}

impl ChipEnergyModel {
    /// The dissertation's chip context: LAC cores next to a NUCA on-chip
    /// memory. ~8 pJ/word of interconnect on top of the bank access and a
    /// few mW of always-on uncore per core slot.
    pub fn lap_default() -> Self {
        Self {
            core: EnergyModel::lac_default(),
            uncore_pj_per_word: 8.0,
            uncore_static_mw_per_core: 5.0,
        }
    }

    /// Price one chip run. Per-core entries line up with
    /// `stats.per_core`.
    pub fn summarize(&self, stats: &ChipStats) -> ChipEnergy {
        self.summarize_over(stats, stats.makespan_cycles)
    }

    /// Price chip work over an explicit wall clock — the door for
    /// long-lived sessions: a `lac_sim::LacService` accumulates busy
    /// counters across submissions while its clock also advances through
    /// dependency stalls and idle gaps *between* batches, and the static
    /// uncore burns for all of it. `summarize` is the single-run special
    /// case (`wall = makespan`). `wall_cycles` must cover the busy time.
    pub fn summarize_over(&self, stats: &ChipStats, wall_cycles: u64) -> ChipEnergy {
        assert!(
            stats.per_core.iter().all(|s| s.cycles <= wall_cycles),
            "wall clock shorter than a core's busy time"
        );
        let per_core: Vec<EnergySummary> = stats
            .per_core
            .iter()
            .map(|s| self.core.summarize(s))
            .collect();
        let cores_nj: f64 = per_core.iter().map(|e| e.energy_nj).sum();

        let words = (stats.aggregate.ext_reads + stats.aggregate.ext_writes) as f64;
        let makespan_s = wall_cycles as f64 / (self.core.freq_ghz * 1e9);
        let uncore_nj = words * self.uncore_pj_per_word / 1000.0
            + self.uncore_static_mw_per_core * 1e-3 // mW → W
                * stats.per_core.len() as f64
                * makespan_s
                * 1e9; // J → nJ
        let total_nj = cores_nj + uncore_nj;

        let (avg_power_mw, gflops_per_w) = if wall_cycles == 0 {
            (0.0, 0.0)
        } else {
            let watts = total_nj * 1e-9 / makespan_s;
            let gflops = stats.flops() as f64 / makespan_s / 1e9;
            (watts * 1e3, gflops / watts)
        };

        ChipEnergy {
            per_core,
            cores_nj,
            uncore_nj,
            total_nj,
            avg_power_mw,
            gflops_per_w,
        }
    }

    /// Attribute a multi-tenant service lifetime's energy to its tenants.
    ///
    /// `per_tenant` holds each tenant's accumulated busy stats (e.g.
    /// `lac_sim::LacService::tenant_busy_stats`), `cores` the chip's core
    /// count and `wall_cycles` the service clock. Each tenant pays
    ///
    /// * its own **dynamic** energy — the per-core model priced over its
    ///   jobs' events, plus the interconnect premium on its external
    ///   words — and
    /// * a share of the **static uncore** burned over the whole wall
    ///   clock, split in proportion to busy cycles (the tenant that used
    ///   the chip more owns more of the fabric kept powered for it). With
    ///   no busy cycles anywhere the static burn is split evenly.
    ///
    /// Attribution is conserving: when `per_tenant` partitions the work of
    /// a [`ChipEnergyModel::summarize_over`] call, the tenant totals sum
    /// to its `total_nj` (the per-event core model is linear in the
    /// counters).
    pub fn attribute(
        &self,
        per_tenant: &[lac_sim::ExecStats],
        cores: usize,
        wall_cycles: u64,
    ) -> Vec<TenantEnergy> {
        let wall_s = wall_cycles as f64 / (self.core.freq_ghz * 1e9);
        let static_nj = self.uncore_static_mw_per_core * 1e-3 * cores as f64 * wall_s * 1e9;
        let busy_total: u64 = per_tenant.iter().map(|s| s.cycles).sum();
        per_tenant
            .iter()
            .map(|s| {
                let words = (s.ext_reads + s.ext_writes) as f64;
                let dynamic_nj =
                    self.core.summarize(s).energy_nj + words * self.uncore_pj_per_word / 1000.0;
                let share = if busy_total == 0 {
                    1.0 / per_tenant.len().max(1) as f64
                } else {
                    s.cycles as f64 / busy_total as f64
                };
                let static_share_nj = static_nj * share;
                TenantEnergy {
                    dynamic_nj,
                    static_share_nj,
                    total_nj: dynamic_nj + static_share_nj,
                }
            })
            .collect()
    }
}

/// One tenant's attributed share of a service lifetime's energy (see
/// [`ChipEnergyModel::attribute`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TenantEnergy {
    /// Core events + interconnect words of this tenant's own jobs, nJ.
    pub dynamic_nj: f64,
    /// This tenant's share of the always-on uncore static burn, nJ.
    pub static_share_nj: f64,
    /// `dynamic_nj + static_share_nj`.
    pub total_nj: f64,
}

/// Energy/power of one chip queue run, wall-clocked by the makespan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChipEnergy {
    /// Each core's own summary (power averaged over that core's busy
    /// cycles), in core order.
    pub per_core: Vec<EnergySummary>,
    /// Sum of per-core dynamic energy, nJ.
    pub cores_nj: f64,
    /// Interconnect + static uncore energy, nJ.
    pub uncore_nj: f64,
    /// Whole-chip energy, nJ.
    pub total_nj: f64,
    /// Chip power averaged over the makespan, mW.
    pub avg_power_mw: f64,
    /// Chip efficiency over the makespan, GFLOPS/W.
    pub gflops_per_w: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_sim::ExecStats;

    fn busy(cycles: u64) -> ExecStats {
        ExecStats {
            cycles,
            mac_ops: cycles * 16,
            sram_a_reads: cycles * 4,
            sram_b_reads: cycles * 16,
            ext_reads: cycles,
            active_cycles: cycles,
            ..Default::default()
        }
    }

    fn chip_stats(per_core: Vec<ExecStats>) -> ChipStats {
        let mut aggregate = ExecStats::default();
        for s in &per_core {
            aggregate.merge(s);
        }
        let makespan_cycles = per_core.iter().map(|s| s.cycles).max().unwrap_or(0);
        let jobs_per_core = per_core.iter().map(|_| 1).collect();
        ChipStats {
            per_core,
            jobs_per_core,
            makespan_cycles,
            aggregate,
        }
    }

    #[test]
    fn totals_decompose_into_cores_plus_uncore() {
        let m = ChipEnergyModel::lap_default();
        let stats = chip_stats(vec![busy(10_000), busy(8_000)]);
        let e = m.summarize(&stats);
        assert_eq!(e.per_core.len(), 2);
        assert!((e.total_nj - e.cores_nj - e.uncore_nj).abs() < 1e-9);
        assert!(e.uncore_nj > 0.0 && e.cores_nj > e.uncore_nj);
        assert!(e.avg_power_mw > 0.0 && e.gflops_per_w > 0.0);
    }

    #[test]
    fn idle_chip_still_pays_static_uncore() {
        let m = ChipEnergyModel::lap_default();
        let idle = ExecStats {
            cycles: 10_000,
            ..Default::default()
        };
        let e = m.summarize(&chip_stats(vec![idle, idle]));
        assert_eq!(e.cores_nj, 0.0, "no events, no core energy");
        assert!(e.uncore_nj > 0.0, "the fabric never sleeps");
    }

    #[test]
    fn doubling_cores_roughly_doubles_energy_at_equal_work_each() {
        let m = ChipEnergyModel::lap_default();
        let e2 = m.summarize(&chip_stats(vec![busy(10_000); 2]));
        let e4 = m.summarize(&chip_stats(vec![busy(10_000); 4]));
        let ratio = e4.total_nj / e2.total_nj;
        assert!((1.9..2.1).contains(&ratio), "ratio {ratio}");
        // Same makespan, twice the flops: double the power, same efficiency.
        assert!((e4.gflops_per_w / e2.gflops_per_w - 1.0).abs() < 0.05);
    }

    #[test]
    fn idle_between_batches_costs_static_energy_only() {
        // The same busy work priced over a 3x longer service clock: core
        // dynamic energy is unchanged, uncore grows by exactly the static
        // power over the extra wall time, efficiency drops.
        let m = ChipEnergyModel::lap_default();
        let stats = chip_stats(vec![busy(10_000); 2]);
        let tight = m.summarize_over(&stats, 10_000);
        let padded = m.summarize_over(&stats, 30_000);
        assert_eq!(tight.cores_nj, padded.cores_nj);
        let extra_s = 20_000.0 / (m.core.freq_ghz * 1e9);
        let expected_extra_nj = m.uncore_static_mw_per_core * 1e-3 * 2.0 * extra_s * 1e9;
        assert!((padded.uncore_nj - tight.uncore_nj - expected_extra_nj).abs() < 1e-6);
        assert!(padded.gflops_per_w < tight.gflops_per_w);
        // And summarize() is the wall = makespan special case.
        assert_eq!(m.summarize(&stats), tight);
    }

    #[test]
    #[should_panic(expected = "wall clock shorter")]
    fn wall_clock_cannot_undercut_busy_time() {
        let m = ChipEnergyModel::lap_default();
        m.summarize_over(&chip_stats(vec![busy(10_000)]), 5_000);
    }

    #[test]
    fn tenant_attribution_conserves_the_service_total() {
        // Two tenants partition a 2-core service's work 3:1; priced over a
        // padded wall clock, their attributed totals must sum exactly to
        // the chip summary (the core model is linear in the counters) and
        // split the static uncore 3:1.
        let m = ChipEnergyModel::lap_default();
        let stats = chip_stats(vec![busy(12_000), busy(4_000)]);
        let wall = 40_000;
        let whole = m.summarize_over(&stats, wall);
        let shares = m.attribute(&[busy(12_000), busy(4_000)], 2, wall);
        assert_eq!(shares.len(), 2);
        let sum: f64 = shares.iter().map(|t| t.total_nj).sum();
        assert!(
            (sum - whole.total_nj).abs() < 1e-6 * whole.total_nj,
            "attribution leaks energy: {sum} vs {}",
            whole.total_nj
        );
        assert!(
            (shares[0].static_share_nj / shares[1].static_share_nj - 3.0).abs() < 1e-9,
            "static split follows busy share"
        );
        assert!(shares[0].dynamic_nj > shares[1].dynamic_nj);
        for t in &shares {
            assert!((t.total_nj - t.dynamic_nj - t.static_share_nj).abs() < 1e-9);
        }
        // An all-idle service splits the static burn evenly.
        let idle = m.attribute(&[ExecStats::default(); 2], 2, wall);
        assert_eq!(idle[0], idle[1]);
        assert!(idle[0].static_share_nj > 0.0 && idle[0].dynamic_nj == 0.0);
    }

    #[test]
    fn chip_efficiency_stays_in_core_ballpark() {
        // Uncore overhead should cost a few percent, not change the
        // GFLOPS/W order of magnitude the single-core model reports.
        let m = ChipEnergyModel::lap_default();
        let core_eff = m.core.gflops_per_w(&busy(100_000));
        let chip_eff = m
            .summarize(&chip_stats(vec![busy(100_000); 4]))
            .gflops_per_w;
        assert!(chip_eff < core_eff, "uncore cannot be free");
        assert!(
            chip_eff > 0.7 * core_eff,
            "uncore should be a tax, not the bill"
        );
    }
}
