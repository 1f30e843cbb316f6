//! Property tests (vendored proptest) for the multi-tenant streaming
//! service: whatever the tenant mix, budgets, costs and core count —
//!
//! * the fair-share planner dispatches at most one job per core per wave,
//!   is work-conserving, and keeps weight-normalized per-tenant cost
//!   usage within one job of each other while both tenants have work
//!   (the convergence invariant of deficit scheduling);
//! * admission backpressure is a pure function of the enqueue/run
//!   history: the same submission sequence admits and rejects
//!   identically on two fresh services, and rounds are bit-identical;
//! * a single-tenant `FairShare` run degrades to `CriticalPath`'s output
//!   bits (and the planners agree pick-by-pick).

use lap::lac_sim::{
    plan_wave, plan_wave_tenanted, ChipConfig, JobGraph, LacConfig, LacService, ProgramJob,
    Scheduler, TenantConfig,
};
use lap::lac_sim::{ExtOp, ProgramBuilder, Source};
use proptest::prelude::*;

/// One external load + one MAC + `extra` idle cycles, with a chosen
/// scheduler cost.
fn mac_job(extra: usize, cost: u64) -> ProgramJob {
    let cfg = LacConfig::default();
    let mut b = ProgramBuilder::new(cfg.nr);
    let t = b.push_step();
    b.ext(t, ExtOp::Load { col: 0, addr: 0 });
    b.pe_mut(t, 0, 0).reg_write = Some((0, Source::ColBus));
    let t = b.push_step();
    b.pe_mut(t, 0, 0).mac = Some((Source::Reg(0), Source::Reg(0)));
    b.idle(cfg.fpu.pipeline_depth + extra);
    let mut j = ProgramJob::new(b.build());
    j.cost = cost;
    j
}

/// A pseudo-random DAG over `costs` (same construction as
/// `tests/graph_props.rs`, without the execution log): job `j > 0` gets
/// up to two parents drawn from `seeds`.
fn random_dag(costs: &[u64], seeds: &[u64]) -> JobGraph<ProgramJob> {
    let mut graph = JobGraph::new();
    let mut ids = Vec::new();
    for (j, &cost) in costs.iter().enumerate() {
        let mut parents = Vec::new();
        if j > 0 {
            for take in 0..2usize {
                let seed = seeds[(2 * j + take) % seeds.len()];
                if !seed.is_multiple_of(3) {
                    parents.push(ids[(seed as usize) % j]);
                }
            }
        }
        ids.push(graph.add_after(mac_job(j % 8, cost), &parents));
    }
    graph
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fair_share_planner_is_quantum_capped_and_work_conserving(
        costs in prop::collection::vec(1u64..200, 1..40),
        tenants in 1usize..=4,
        cores in 1usize..=6,
        usage_seed in prop::collection::vec(0u64..500, 4..5),
    ) {
        let ready: Vec<usize> = (0..costs.len()).collect();
        let tenant_of: Vec<usize> = (0..costs.len()).map(|j| j % tenants).collect();
        let usage: Vec<u64> = (0..tenants).map(|t| usage_seed[t % usage_seed.len()]).collect();
        let weights = vec![1u64; tenants];
        let boost = vec![u64::MAX; tenants];
        let buckets = plan_wave_tenanted(
            &ready, &costs, &costs, &tenant_of, &usage, &weights, &boost, cores,
        );
        // At most one job per core per wave (the streaming quantum)…
        prop_assert!(buckets.iter().all(|b| b.len() <= 1));
        // …work-conserving: exactly min(ready, cores) jobs dispatch…
        let picked: Vec<usize> = buckets.iter().flatten().copied().collect();
        prop_assert_eq!(picked.len(), ready.len().min(cores));
        // …each a distinct ready job.
        let mut dedup = picked.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), picked.len());
        prop_assert!(picked.iter().all(|j| ready.contains(j)));
    }

    #[test]
    fn fair_share_cost_shares_converge_across_tenants(
        per_tenant_costs in prop::collection::vec(
            prop::collection::vec(1u64..50, 4..16), 2..4),
        cores in 1usize..=4,
    ) {
        // Every tenant submits one flat graph (all jobs ready from wave
        // 0, equal weights). While two tenants both still have
        // undispatched jobs, deficit picking keeps their cumulative
        // dispatched costs within one job of each other — the
        // convergence invariant that makes shares track weights.
        let tenants = per_tenant_costs.len();
        let max_cost = *per_tenant_costs.iter().flatten().max().unwrap();
        let mut svc: LacService<ProgramJob> =
            LacService::new(ChipConfig::new(cores, LacConfig::default()));
        let ids: Vec<_> = (0..tenants)
            .map(|t| svc.add_tenant(TenantConfig::new(format!("t{t}"))))
            .collect();
        for (t, costs) in per_tenant_costs.iter().enumerate() {
            let graph: JobGraph<ProgramJob> =
                costs.iter().enumerate().map(|(i, &c)| mac_job(i % 8, c)).collect();
            svc.enqueue(ids[t], graph).unwrap();
        }
        let round = svc.run_admitted(Scheduler::FairShare).unwrap();

        // Reconstruct each tenant's cumulative dispatched cost per wave.
        let mut cum = vec![vec![0u64; round.waves + 1]; tenants];
        let mut last_wave = vec![0usize; tenants];
        for (t, g) in round.graphs.iter().enumerate() {
            for (j, &w) in g.wave_of.iter().enumerate() {
                cum[t][w + 1] += per_tenant_costs[t][j];
                last_wave[t] = last_wave[t].max(w);
            }
        }
        for series in &mut cum {
            for w in 0..round.waves {
                series[w + 1] += series[w];
            }
        }
        for a in 0..tenants {
            for b in a + 1..tenants {
                for w in 0..round.waves {
                    // Both tenants still have jobs after wave w?
                    if last_wave[a] > w && last_wave[b] > w {
                        let (ca, cb) = (cum[a][w + 1], cum[b][w + 1]);
                        prop_assert!(
                            ca.abs_diff(cb) <= max_cost,
                            "after wave {}: tenant {} at {} vs tenant {} at {} \
                             (max job cost {})",
                            w, a, ca, b, cb, max_cost
                        );
                    }
                }
            }
        }
        // Work conservation over flat graphs: wave w dispatches
        // min(cores, remaining) jobs — no core idles while admitted
        // graphs have ready jobs.
        let total: usize = per_tenant_costs.iter().map(|c| c.len()).sum();
        let mut per_wave = vec![0usize; round.waves];
        for g in &round.graphs {
            for &w in &g.wave_of {
                per_wave[w] += 1;
            }
        }
        let mut remaining = total;
        for (w, &count) in per_wave.iter().enumerate() {
            prop_assert_eq!(
                count, remaining.min(cores),
                "wave {} dispatched {} of {} remaining on {} cores",
                w, count, remaining, cores
            );
            remaining -= count;
        }
    }

    #[test]
    fn backpressure_is_deterministic_and_rounds_bit_identical(
        graph_costs in prop::collection::vec(
            prop::collection::vec(1u64..20, 1..6), 2..8),
        budget in 10u64..60,
        cores in 1usize..=3,
    ) {
        // The same enqueue/run sequence on two fresh services: admission
        // decisions, rejection metadata and round results must all agree
        // — backpressure is a function of history, not host timing.
        let run = |_: ()| {
            let mut svc: LacService<ProgramJob> =
                LacService::new(ChipConfig::new(cores, LacConfig::default()));
            let t = svc.add_tenant(
                TenantConfig::new("bounded").with_admission_budget(budget));
            let mut decisions = Vec::new();
            for costs in &graph_costs {
                let graph: JobGraph<ProgramJob> =
                    costs.iter().enumerate().map(|(i, &c)| mac_job(i, c)).collect();
                match svc.enqueue(t, graph) {
                    Ok(ticket) => decisions.push((true, ticket.seq, 0, 0)),
                    Err(r) => decisions.push((false, 0, r.graph_cost, r.inflight_cost)),
                }
            }
            let round = svc.run_admitted(Scheduler::FairShare).unwrap();
            let outputs: Vec<_> = round.graphs.iter().map(|g| g.outputs.clone()).collect();
            let session = svc.tenant_session(t).clone();
            (decisions, outputs, round.stats, round.waves, session)
        };
        let first = run(());
        let second = run(());
        prop_assert_eq!(&first.0, &second.0, "admission decisions diverged");
        prop_assert_eq!(&first.1, &second.1, "round outputs diverged");
        prop_assert_eq!(&first.2, &second.2, "round stats diverged");
        prop_assert_eq!(first.3, second.3, "wave structure diverged");
        prop_assert_eq!(&first.4, &second.4, "tenant meters diverged");
        // And the budget was honored: everything admitted fit.
        prop_assert!(first.4.inflight_cost == 0);
        let admitted_cost: u64 = graph_costs
            .iter()
            .zip(&first.0)
            .filter(|(_, d)| d.0)
            .map(|(costs, _)| costs.iter().map(|&c| c.max(1)).sum::<u64>())
            .sum();
        prop_assert_eq!(first.4.cost_completed, admitted_cost);
    }

    #[test]
    fn single_tenant_fair_share_degrades_to_critical_path_bits(
        costs in prop::collection::vec(1u64..100, 1..24),
        seeds in prop::collection::vec(any::<u64>(), 6..7),
        cores in 1usize..=4,
    ) {
        // Chip door: same DAG under FairShare and CriticalPath — output
        // bits identical (the degradation guarantee rides the
        // placement-independence invariant).
        let mut chip_fs = LacService::new(ChipConfig::new(cores, LacConfig::default()));
        let fs = chip_fs.submit(&random_dag(&costs, &seeds), Scheduler::FairShare).unwrap();
        let mut chip_cp = LacService::new(ChipConfig::new(cores, LacConfig::default()));
        let cp = chip_cp.submit(&random_dag(&costs, &seeds), Scheduler::CriticalPath).unwrap();
        prop_assert_eq!(&fs.outputs, &cp.outputs);
        prop_assert_eq!(fs.stats.aggregate, cp.stats.aggregate, "same work either way");

        // Service door with one registered tenant agrees bit-for-bit too.
        let mut svc: LacService<ProgramJob> =
            LacService::new(ChipConfig::new(cores, LacConfig::default()));
        let t = svc.add_tenant(TenantConfig::new("only"));
        svc.enqueue(t, random_dag(&costs, &seeds)).unwrap();
        let round = svc.run_admitted(Scheduler::FairShare).unwrap();
        prop_assert_eq!(&round.graphs[0].outputs, &fs.outputs);

        // Planner-level agreement on the first quantum: FairShare's picks
        // are CriticalPath's highest-priority jobs, one per core.
        let ready: Vec<usize> = (0..costs.len().min(cores)).collect();
        let tenant_of = vec![0usize; costs.len()];
        let fair = plan_wave_tenanted(
            &ready, &costs, &costs, &tenant_of, &[0], &[1], &[u64::MAX], cores,
        );
        let cp_wave = plan_wave(Scheduler::CriticalPath, &ready, &costs, &costs, cores);
        let fair_jobs: Vec<usize> = fair.iter().flatten().copied().collect();
        let mut cp_jobs: Vec<usize> = cp_wave.iter().flatten().copied().collect();
        cp_jobs.sort_unstable();
        let mut fair_sorted = fair_jobs.clone();
        fair_sorted.sort_unstable();
        prop_assert_eq!(fair_sorted, cp_jobs, "same quantum, same job set");
    }
}
