//! Property tests (vendored proptest) for the open-loop traffic layer:
//! whatever the seeds, process shapes and recorded samples —
//!
//! * histogram percentiles are monotone (p50 ≤ p99 ≤ p999), every
//!   reported percentile is an upper bound within the 12.5 % bucket
//!   granularity, and min ≤ p50, p999 ≤ max;
//! * histogram merge is exact (equals recording the union directly),
//!   commutative and associative;
//! * histograms are bit-deterministic: the same samples in any order
//!   produce identical state, and whole open-loop replays produce
//!   identical per-tenant histograms across reruns — with identical
//!   output bits across scheduler policies;
//! * arrival traces are bit-identical for a fixed seed and respect the
//!   configured mean rate within tolerance.

use lap::lac_sim::{
    ChipConfig, DynamicGraph, ExecStats, JobGraph, LacConfig, LacService, ProgramBuilder,
    ProgramJob, Scheduler, TenantConfig,
};
use lap::lac_traffic::{
    run_open_loop_dynamic, Arrival, ArrivalProcess, ArrivalTrace, DynamicOpenLoopReport,
    LatencyHistogram, OpenLoopConfig,
};
use proptest::prelude::*;

fn hist_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

/// A tiny two-job chain whose shape is salted by the arrival identity.
fn request(a: &Arrival) -> DynamicGraph<ProgramJob> {
    let job = |extra: usize, cost: u64| {
        let cfg = LacConfig::default();
        let mut b = ProgramBuilder::new(cfg.nr);
        b.idle(4 + extra);
        let mut j = ProgramJob::new(b.build());
        j.cost = cost;
        j
    };
    let mut g = JobGraph::new();
    let first = g.add(job((a.index as usize) % 3, 30 + 20 * a.tenant as u64));
    g.add_after(job((a.tenant + 1) % 3, 25), &[first]);
    DynamicGraph::fixed(g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn percentiles_are_monotone_and_bound_the_samples(
        samples in prop::collection::vec(0u64..2_000_000, 1..400),
    ) {
        let h = hist_of(&samples);
        let (p50, p99, p999) = (h.p50(), h.p99(), h.p999());
        prop_assert!(p50 <= p99 && p99 <= p999, "p50 {p50} p99 {p99} p999 {p999}");
        prop_assert!(h.min() <= p50);
        prop_assert!(p999 <= h.max());

        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for (q, got) in [(0.50, p50), (0.99, p99), (0.999, p999)] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            // Upper bound within the 1/8 bucket width (+1 for unit buckets).
            prop_assert!(got >= exact, "q={q}: {got} below exact {exact}");
            prop_assert!(got <= exact + exact / 8 + 1, "q={q}: {got} too far above {exact}");
        }
    }

    #[test]
    fn merge_is_exact_commutative_and_associative(
        a in prop::collection::vec(0u64..1_000_000, 0..200),
        b in prop::collection::vec(0u64..1_000_000, 0..200),
        c in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));

        // Exact: merging equals recording the union directly.
        let union: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let mut merged = ha.clone();
        merged.merge(&hb);
        merged.merge(&hc);
        prop_assert_eq!(&merged, &hist_of(&union));

        // Commutative + associative: any merge tree lands on the same bits.
        let mut cba = hc.clone();
        cba.merge(&hb);
        cba.merge(&ha);
        prop_assert_eq!(&merged, &cba);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&merged, &a_bc);
    }

    #[test]
    fn histograms_are_order_independent_and_deterministic(
        mut samples in prop::collection::vec(0u64..10_000_000, 1..300),
    ) {
        let forward = hist_of(&samples);
        prop_assert_eq!(&forward, &hist_of(&samples));
        samples.reverse();
        prop_assert_eq!(&forward, &hist_of(&samples));
    }

    #[test]
    fn traces_are_bit_identical_for_a_seed(
        seed in any::<u64>(),
        mean_gap in 2.0f64..500.0,
        horizon in 1_000u64..60_000,
    ) {
        let procs = [
            ArrivalProcess::Poisson { mean_gap },
            ArrivalProcess::OnOff {
                mean_gap_on: 3.0,
                mean_burst: 5.0,
                mean_gap_off: mean_gap * 4.0,
            },
            ArrivalProcess::Diurnal { mean_gap, period: horizon / 2 + 1, depth: 0.7 },
        ];
        let a = ArrivalTrace::generate(seed, horizon, &procs);
        prop_assert_eq!(&a, &ArrivalTrace::generate(seed, horizon, &procs));
        // And a different seed moves at least something (overwhelmingly
        // likely at these horizons; the exceptional empty-trace draw is
        // excluded).
        if !a.is_empty() {
            let b = ArrivalTrace::generate(seed ^ 0x5bd1_e995, horizon, &procs);
            prop_assert!(a != b || b.is_empty());
        }
    }

    #[test]
    fn poisson_traces_respect_the_mean_rate(
        seed in any::<u64>(),
        mean_gap in 20.0f64..200.0,
    ) {
        // Long horizon so the law of large numbers has room: ~5000 gaps.
        let horizon = (mean_gap * 5_000.0) as u64;
        let trace = ArrivalTrace::generate(seed, horizon, &[ArrivalProcess::Poisson { mean_gap }]);
        let expected = horizon as f64 / mean_gap;
        let got = trace.len() as f64;
        prop_assert!(
            (got - expected).abs() < 0.10 * expected,
            "seed {seed}: {got} arrivals vs ~{expected} expected"
        );
    }
}

/// Open-loop replays are bit-deterministic across reruns, and their
/// output bits are identical across scheduler policies (only the
/// latencies move). Driven over a fixed grid rather than proptest cases:
/// each replay runs a real service.
#[test]
fn open_loop_replays_are_deterministic_across_policies() {
    for seed in [1u64, 77, 901] {
        let trace = ArrivalTrace::generate(
            seed,
            12_000,
            &[
                ArrivalProcess::Poisson { mean_gap: 300.0 },
                ArrivalProcess::OnOff {
                    mean_gap_on: 20.0,
                    mean_burst: 4.0,
                    mean_gap_off: 1_500.0,
                },
            ],
        );
        let replay = |sched: Scheduler, slo_boost: bool| {
            let mut svc: LacService<ProgramJob> =
                LacService::new(ChipConfig::new(2, LacConfig::default()));
            let ids = vec![
                svc.add_tenant(TenantConfig::new("deadline").with_deadline(1_500)),
                svc.add_tenant(TenantConfig::new("batch")),
            ];
            run_open_loop_dynamic(
                &mut svc,
                &trace,
                &ids,
                request,
                OpenLoopConfig {
                    sched,
                    slo_boost,
                    ..OpenLoopConfig::default()
                },
            )
            .unwrap()
        };

        let base = replay(Scheduler::FairShare, false);
        assert_eq!(base.completed.len(), trace.len());
        // Rerun: the whole report — histograms included — is bit-identical.
        assert_eq!(
            base,
            replay(Scheduler::FairShare, false),
            "seed {seed}: rerun diverged"
        );

        // Across policies and SLO boosting, output bits never move.
        let bits = |r: &DynamicOpenLoopReport<ExecStats>| {
            let mut v: Vec<_> = r
                .completed
                .iter()
                .map(|c| (c.arrival, c.outcome.segments.clone()))
                .collect();
            v.sort_by_key(|(a, _)| (a.tenant, a.index));
            v
        };
        for (sched, slo) in [
            (Scheduler::FairShare, true),
            (Scheduler::CriticalPath, false),
            (Scheduler::Fifo, false),
            (Scheduler::LeastLoaded, false),
        ] {
            let other = replay(sched, slo);
            assert_eq!(
                bits(&base),
                bits(&other),
                "seed {seed}: outputs diverged under {sched:?} (slo={slo})"
            );
        }
    }
}
