//! A fleet of solver loops sharded across a four-chip cluster — the
//! multi-chip deployment layer, end to end.
//!
//! Eight independent IPM-style solver loops fuse into one `JobGraph`
//! (`SolverFleet`), the cluster's `CostBins` partitioner bin-packs the
//! loops across chips (each loop is one dependency component, so no
//! edge crosses a chip and nothing pays the link), and the run is
//! verified against every loop's own `linalg-ref` chain. A second run
//! with the `Striped` stress partitioner scatters the same jobs across
//! chips to show what the modeled inter-chip transfers cost — same
//! bits out, very different makespan. Finally the cluster's tenant door
//! demonstrates an admission budget that spans all four chips.
//!
//! ```sh
//! cargo run --release --example cluster_fleet
//! ```

use lap::lac_kernels::{SolverFleet, SolverJob, SolverLoopParams};
use lap::lac_power::ClusterEnergyModel;
use lap::lac_sim::{
    ChipConfig, ClusterConfig, LacCluster, LacConfig, Partitioner, Scheduler, TenantConfig,
};

fn params() -> SolverLoopParams {
    SolverLoopParams {
        n: 16,
        rounds: 3,
        panels: 4,
        width: 8,
        salt: 2200,
    }
}

fn main() {
    // Four 2-core chips joined by a 4-words/cycle, 200-cycle-hop link.
    let chip = ChipConfig::new(2, LacConfig::default());
    let cfg = ClusterConfig::homogeneous(4, chip).with_link(4, 200);
    let energy = ClusterEnergyModel::lap_default();

    // --- Component sharding: the partitioner keeps each loop whole. ---
    let mut cluster: LacCluster<SolverJob> = LacCluster::new(cfg.clone());
    let fleet = SolverFleet::new(params(), 8);
    let run = cluster
        .run_graph(&fleet.graph, Scheduler::CriticalPath)
        .expect("hazard-free schedule");
    fleet
        .check(&run.outputs)
        .expect("all loops match linalg-ref");
    assert_eq!(run.events.transfer_events().count(), 0);
    let e = energy.summarize(&run.stats);
    println!(
        "cost-bins: {} jobs over {} waves on 4 chips",
        run.stats.jobs(),
        run.waves
    );
    println!(
        "  makespan {} cycles ({:.1}x vs serial), loads per chip {:?}",
        run.stats.makespan_cycles,
        run.stats.speedup(),
        run.partition.chip_cost
    );
    println!(
        "  {} link words, {:.1} uJ total ({:.1} uJ links)",
        run.stats.transferred_words,
        e.total_nj / 1000.0,
        e.link_nj / 1000.0
    );

    // --- Striped stress: every round edge crosses the link. ---
    let mut striped: LacCluster<SolverJob> =
        LacCluster::new(cfg.clone()).with_partitioner(Partitioner::Striped);
    let fleet2 = SolverFleet::new(params(), 8);
    let srun = striped
        .run_graph(&fleet2.graph, Scheduler::CriticalPath)
        .expect("striping changes cost, not correctness");
    assert_eq!(run.outputs, srun.outputs, "placement never changes bits");
    println!(
        "striped:   makespan {} cycles ({:.2}x slower), {} cut edges, {} link words, {} stall cycles",
        srun.stats.makespan_cycles,
        srun.stats.makespan_cycles as f64 / run.stats.makespan_cycles as f64,
        srun.partition.cut_edges.len(),
        srun.stats.transferred_words,
        srun.stats.transfer_stall_cycles
    );

    // --- Tenancy spans chips: one budget for the whole deployment. ---
    let mut tenanted: LacCluster<SolverJob> = LacCluster::new(cfg);
    let one_loop = SolverFleet::new(params(), 1);
    let budget = one_loop.total_cost();
    let bounded = tenanted.add_tenant(TenantConfig::new("bounded").with_admission_budget(budget));
    tenanted
        .enqueue(bounded, SolverFleet::new(params(), 1).graph)
        .expect("first loop fits the budget");
    let bounced = tenanted
        .enqueue(bounded, SolverFleet::new(params(), 1).graph)
        .expect_err("second loop exceeds the cluster-wide budget");
    println!(
        "tenancy:   budget {} bounced a {}-cost graph at {} in flight",
        bounced.budget, bounced.graph_cost, bounced.inflight_cost
    );
    let round = tenanted
        .run_admitted(Scheduler::FairShare)
        .expect("admitted round completes");
    println!(
        "  round ran {} graph(s) in {} cycles; budget drained to {}",
        round.graphs.len(),
        round.stats.makespan_cycles,
        tenanted.tenant_session(bounded).inflight_cost
    );
}
