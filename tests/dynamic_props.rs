//! Property tests for the continuation subsystem under real
//! convergence-driven clients (`IppmmWorkload`, `IpddpFleet`).
//!
//! The claims under test are the contract `lac_sim::dynamic` documents,
//! with every request served by the one driver
//! (`lac_traffic::run_open_loop_dynamic`) as a closed batch — a trace
//! whose arrivals are all due at tick 0:
//!
//! * **Bit-determinism** — a dynamic run's outputs, segment counts and
//!   iteration counts are a pure function of the request, identical
//!   across scheduler policies, service/cluster backends, warm reruns,
//!   and chip-loss replays.
//! * **Budget conservation** — every appended segment is charged against
//!   the tenant's `max_inflight_cost` exactly like a fresh submission:
//!   in-flight cost never exceeds the budget, drains to zero, and the
//!   completed-cost ledger adds up to what the outcomes report.
//! * **Typed backpressure** — a segment that can never fit surfaces as
//!   `OpenLoopError::AdmissionDeadlock`, not a hang.

// NB: the vendored proptest! shim's matcher does not accept `///` doc
// comments on the test fns — use `//` comments inside the block.

mod common;

use common::{qp, ALL_POLICIES};
use lap::lac_kernels::{IpddpParams, IppmmWorkload, KernelReport};
use lap::lac_sim::{
    ChipConfig, ChipJob, ClusterConfig, DynamicGraph, DynamicOutcome, FaultPlan, LacCluster,
    LacConfig, LacService, Scheduler, TenantConfig, TenantId,
};
use lap::lac_traffic::{
    run_open_loop_dynamic, ArrivalTrace, DynamicOpenLoopReport, OpenLoopBackend, OpenLoopConfig,
    OpenLoopError,
};
use proptest::prelude::*;

/// Every request's outcome, in request order, plus the rounds they took.
type Served<T> = (Vec<DynamicOutcome<T>>, u64);

/// Serve `requests` of tenant `t` to convergence as a closed batch.
fn serve<J: ChipJob>(
    backend: &mut impl OpenLoopBackend<J>,
    t: TenantId,
    requests: Vec<DynamicGraph<J>>,
    sched: Scheduler,
) -> Result<Served<J::Output>, OpenLoopError> {
    let batch = ArrivalTrace::batch(&[requests.len()]);
    let mut requests: Vec<_> = requests.into_iter().map(Some).collect();
    let cfg = OpenLoopConfig {
        sched,
        ..OpenLoopConfig::default()
    };
    let DynamicOpenLoopReport {
        mut completed,
        rounds,
        ..
    } = run_open_loop_dynamic(
        backend,
        &batch,
        &[t],
        |a| {
            requests[a.index as usize]
                .take()
                .expect("one arrival per request")
        },
        cfg,
    )?;
    completed.sort_by_key(|c| c.arrival.index);
    Ok((completed.into_iter().map(|c| c.outcome).collect(), rounds))
}

fn run_on_service(w: &IppmmWorkload, cores: usize, sched: Scheduler) -> Served<KernelReport> {
    let mut svc = LacService::new(ChipConfig::new(cores, LacConfig::default()));
    let t = svc.add_tenant(TenantConfig::new("qp"));
    let run = serve(&mut svc, t, vec![w.dynamic()], sched).expect("dynamic run");
    assert_eq!(svc.tenant_session(t).inflight_cost, 0);
    run
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Appended work is bit-deterministic: the same dynamic QP solve
    // produces the same output bits — and the same iteration count —
    // no matter the policy, the core count, the backend, or how many
    // times it reruns on a warm service.
    #[test]
    fn dynamic_outputs_are_bit_identical_across_policies_backends_and_reruns(
        salt in 100u64..100_000,
    ) {
        let w = qp(salt);
        let reference = w.reference().expect("reference IPM converges");
        let base = run_on_service(&w, 2, Scheduler::Fifo);
        w.check(&base.0[0]).expect("device solve matches linalg-ref");
        prop_assert_eq!(base.0[0].iterations(), reference.iterations);

        // Policies and core counts move *when* jobs run, never what they
        // compute — or how many segments the continuation appends.
        for sched in ALL_POLICIES {
            for cores in [1usize, 3] {
                let run = run_on_service(&w, cores, sched);
                prop_assert_eq!(&run, &base, "policy/core sweep diverged");
            }
        }

        // Warm rerun on one long-lived service: same bits again.
        let mut svc = LacService::new(ChipConfig::new(2, LacConfig::default()));
        let t = svc.add_tenant(TenantConfig::new("warm"));
        let first = serve(&mut svc, t, vec![w.dynamic()], Scheduler::FairShare).unwrap();
        let second = serve(&mut svc, t, vec![w.dynamic()], Scheduler::FairShare).unwrap();
        prop_assert_eq!(&first, &second, "warm rerun diverged");
        prop_assert_eq!(&first, &base);

        // Cluster backend: same request, modeled transfers, same bits.
        let mut cl = LacCluster::new(ClusterConfig::homogeneous(
            2,
            ChipConfig::new(1, LacConfig::default()),
        ));
        let t = cl.add_tenant(TenantConfig::new("cl"));
        let clustered = serve(&mut cl, t, vec![w.dynamic()], Scheduler::CriticalPath)
            .expect("cluster dynamic run");
        prop_assert_eq!(&clustered.0, &base.0, "cluster backend diverged");
    }

    // Tenant cost accounting stays conserved while graphs grow: with a
    // budget that admits one segment at a time, two concurrent dynamic
    // solves interleave through bounce-retry, the in-flight ledger
    // drains to zero, and completed cost equals what the outcomes claim
    // — appended segments included.
    #[test]
    fn inflight_cost_is_conserved_as_graphs_grow(
        (salt, slots) in (100u64..100_000, 1u64..3),
    ) {
        let w = qp(salt);
        let segment_cost = w.iteration_cost();
        let mut svc = LacService::new(ChipConfig::new(2, LacConfig::default()));
        let t = svc.add_tenant(
            TenantConfig::new("tight").with_admission_budget(slots * segment_cost),
        );
        let (outcomes, _) = serve(
            &mut svc,
            t,
            vec![w.dynamic(), w.dynamic()],
            Scheduler::FairShare,
        )
        .expect("both solves fit one segment at a time");
        for out in &outcomes {
            w.check(out).expect("interleaved solve matches linalg-ref");
            prop_assert_eq!(out.total_cost, out.iterations() as u64 * segment_cost);
            prop_assert_eq!(out.appended_cost, out.total_cost - segment_cost);
        }
        let s = svc.tenant_session(t);
        prop_assert_eq!(s.inflight_cost, 0, "ledger must drain");
        prop_assert_eq!(
            s.cost_completed,
            outcomes.iter().map(|o| o.total_cost).sum::<u64>()
        );
        if slots == 1 {
            // One slot, two requests: admission control must have bounced.
            prop_assert!(s.graphs_rejected > 0, "backpressure never engaged");
        }
    }

    // Chip loss mid-solve replays to the same bits: a cluster that loses
    // one of its chips requeues the dead chip's jobs and still produces
    // the exact outputs — and segment counts — of the fault-free run.
    #[test]
    fn continuation_survives_a_chip_kill_bit_identically(
        (salt, kill_tick) in (100u64..100_000, 1u64..20_000),
    ) {
        let w = qp(salt);
        let run = |fault: Option<FaultPlan>| {
            let mut cl = LacCluster::new(ClusterConfig::homogeneous(
                2,
                ChipConfig::new(1, LacConfig::default()),
            ));
            if let Some(plan) = fault {
                cl.inject_faults(plan);
            }
            let t = cl.add_tenant(TenantConfig::new("faulted"));
            serve(&mut cl, t, vec![w.dynamic()], Scheduler::FairShare)
                .expect("kill is survivable with one chip left")
                .0
        };
        let clean = run(None);
        let killed = run(Some(FaultPlan::new().kill(1, kill_tick)));
        prop_assert_eq!(&killed, &clean, "kill replay diverged");
        w.check(&killed[0]).expect("post-kill solve matches linalg-ref");
    }
}

/// A continuation whose appended segment can never fit its tenant's
/// budget must surface as typed backpressure, not a spin: the fleet's
/// initial two-member sweep costs more than one member's budget.
#[test]
fn undersized_budget_is_typed_backpressure() {
    let fleet = lap::lac_kernels::IpddpFleet::new(IpddpParams {
        members: 2,
        horizon: 8,
        salt: 91,
        ..IpddpParams::default()
    });
    let mut svc = LacService::new(ChipConfig::new(2, LacConfig::default()));
    let t =
        svc.add_tenant(TenantConfig::new("starved").with_admission_budget(fleet.sweep_cost() / 2));
    let err = serve(&mut svc, t, vec![fleet.dynamic()], Scheduler::Fifo).unwrap_err();
    match err {
        OpenLoopError::AdmissionDeadlock {
            tenant,
            segment,
            graph_cost,
            budget,
            ..
        } => {
            assert_eq!(tenant, t);
            assert_eq!(segment, 0, "the initial sweep already cannot fit");
            assert!(graph_cost > budget);
        }
        other => panic!("expected AdmissionDeadlock, got {other:?}"),
    }
    assert_eq!(svc.tenant_session(t).inflight_cost, 0);
}
