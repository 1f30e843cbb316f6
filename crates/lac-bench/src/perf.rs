//! The perf benches. Each prints its table and returns its points, which
//! `--json-out` archives and `perf_compare` gates against
//! `bench/baselines/BENCH_<name>.json`.

pub mod chip_scaling;
pub mod cluster_scaling;
pub mod coordinator_scale;
pub mod dynamic_solver;
pub mod failure_drill;
pub mod service_latency;
pub mod service_throughput;
pub mod sim_speed;
pub mod solver_loop;

use lac_sim::{ChipConfig, ChipJob, ClusterConfig, LacCluster, LacConfig};

/// A cluster of `chips` chips, each of `cores` default cores.
fn cluster<J: ChipJob>(chips: usize, cores: usize) -> LacCluster<J> {
    let chip = ChipConfig::new(cores, LacConfig::default());
    LacCluster::new(ClusterConfig::homogeneous(chips, chip))
}
