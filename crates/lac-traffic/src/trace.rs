//! Deterministic seeded arrival-trace generation.
//!
//! An open-loop experiment is only as reproducible as its arrivals, so a
//! trace here is a **replayable value type**: [`ArrivalTrace::generate`]
//! is a pure function of `(seed, horizon, processes)` built on the
//! vendored deterministic `rand` (xoshiro256++ seeded via SplitMix64) —
//! the same inputs yield bit-identical [`Arrival`]s on every rerun
//! (property-tested in `tests/traffic_props.rs`). One independent random
//! stream per tenant keeps processes uncorrelated while staying
//! replayable tenant-by-tenant.
//!
//! Three process shapes cover the serving regimes the paper's workloads
//! meet in production (streams of small factorization chains — see
//! PAPERS.md on interior-point fleets): memoryless [`ArrivalProcess::
//! Poisson`] background load, [`ArrivalProcess::OnOff`] bursts (trains of
//! back-to-back requests separated by quiet gaps), and [`ArrivalProcess::
//! Diurnal`] rate modulation (a sinusoidal day/night cycle, sampled by
//! thinning).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One request arrival: which tenant, when (in simulated cycles), and its
/// per-tenant sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Arrival {
    /// Arrival tick on the simulated clock.
    pub tick: u64,
    /// Index of the generating stream — by convention the tenant's
    /// registration index ([`lac_sim::TenantId::index`]).
    pub tenant: usize,
    /// This arrival's position within its tenant's stream (dense, from 0).
    pub index: u64,
}

/// The stochastic shape of one tenant's arrival stream. All gaps are in
/// simulated cycles; every sampled gap is rounded and floored at 1 so the
/// clock always advances.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival gaps with the given
    /// mean — the classic open-loop background load.
    Poisson {
        /// Mean inter-arrival gap in cycles (the offered rate is
        /// `1 / mean_gap`).
        mean_gap: f64,
    },
    /// Bursty on-off arrivals: trains of requests with short `mean_gap_on`
    /// gaps, train lengths exponential with mean `mean_burst`, separated
    /// by exponential quiet gaps with mean `mean_gap_off`.
    OnOff {
        /// Mean gap between requests inside a burst.
        mean_gap_on: f64,
        /// Mean number of requests per burst.
        mean_burst: f64,
        /// Mean quiet gap between bursts.
        mean_gap_off: f64,
    },
    /// Diurnally modulated Poisson arrivals: the instantaneous rate is
    /// `(1/mean_gap) · (1 + depth · sin(2πt/period))`, sampled by
    /// thinning a Poisson stream at the peak rate.
    Diurnal {
        /// Mean inter-arrival gap at the *average* rate.
        mean_gap: f64,
        /// Modulation period in cycles (one simulated "day").
        period: u64,
        /// Modulation depth in `[0, 1)`: 0 is plain Poisson, 0.9 swings
        /// the rate between 0.1x and 1.9x the average.
        depth: f64,
    },
}

impl ArrivalProcess {
    /// The process's average inter-arrival gap — what the offered-load
    /// tolerance check in the property suite compares against.
    pub fn mean_gap(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { mean_gap } => mean_gap,
            ArrivalProcess::OnOff {
                mean_gap_on,
                mean_burst,
                mean_gap_off,
            } => {
                // Per burst: mean_burst arrivals over (mean_burst - 1)
                // on-gaps plus one off-gap (approximating with mean_burst
                // on-gaps keeps this a simple closed form).
                (mean_burst * mean_gap_on + mean_gap_off) / mean_burst
            }
            ArrivalProcess::Diurnal { mean_gap, .. } => mean_gap,
        }
    }
}

/// A replayable arrival trace: every tenant's arrivals merged in tick
/// order. Equal value = equal experiment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrivalTrace {
    arrivals: Vec<Arrival>,
    horizon: u64,
    streams: usize,
}

/// Sample an exponential gap with the given mean, rounded to whole cycles
/// and floored at 1.
fn exp_gap(rng: &mut StdRng, mean: f64) -> u64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    // Inverse CDF; (1 - u) keeps the argument in (0, 1].
    let g = -mean * (1.0 - u).ln();
    (g.round() as u64).max(1)
}

impl ArrivalTrace {
    /// Generate the trace: one independent seeded stream per process
    /// (stream `t` drives tenant index `t`), arrivals up to and including
    /// `horizon` ticks, merged by `(tick, tenant, index)`. Pure function
    /// of its arguments — same inputs, bit-identical trace.
    pub fn generate(seed: u64, horizon: u64, processes: &[ArrivalProcess]) -> Self {
        let mut arrivals = Vec::new();
        for (tenant, proc_) in processes.iter().enumerate() {
            // SplitMix64's golden-ratio increment decorrelates per-tenant
            // streams drawn from one experiment seed.
            let stream_seed =
                seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(tenant as u64 + 1));
            let mut rng = StdRng::seed_from_u64(stream_seed);
            let mut index = 0u64;
            let push = |tick: u64, index: &mut u64, arrivals: &mut Vec<Arrival>| {
                arrivals.push(Arrival {
                    tick,
                    tenant,
                    index: *index,
                });
                *index += 1;
            };
            match *proc_ {
                ArrivalProcess::Poisson { mean_gap } => {
                    assert!(mean_gap >= 1.0, "mean_gap must be at least one cycle");
                    let mut t = exp_gap(&mut rng, mean_gap);
                    while t <= horizon {
                        push(t, &mut index, &mut arrivals);
                        t += exp_gap(&mut rng, mean_gap);
                    }
                }
                ArrivalProcess::OnOff {
                    mean_gap_on,
                    mean_burst,
                    mean_gap_off,
                } => {
                    assert!(mean_gap_on >= 1.0 && mean_gap_off >= 1.0 && mean_burst >= 1.0);
                    let mut t = exp_gap(&mut rng, mean_gap_off);
                    'trace: loop {
                        let burst = (exp_gap(&mut rng, mean_burst)).max(1);
                        for _ in 0..burst {
                            if t > horizon {
                                break 'trace;
                            }
                            push(t, &mut index, &mut arrivals);
                            t += exp_gap(&mut rng, mean_gap_on);
                        }
                        t += exp_gap(&mut rng, mean_gap_off);
                        if t > horizon {
                            break;
                        }
                    }
                }
                ArrivalProcess::Diurnal {
                    mean_gap,
                    period,
                    depth,
                } => {
                    assert!(mean_gap >= 1.0, "mean_gap must be at least one cycle");
                    assert!((0.0..1.0).contains(&depth), "depth must be in [0, 1)");
                    assert!(period >= 1, "period must be at least one cycle");
                    // Thinning: candidates at the peak rate, each kept
                    // with probability rate(t)/peak — both draws always
                    // consumed, so the stream stays replayable.
                    let peak_gap = mean_gap / (1.0 + depth);
                    let mut t = exp_gap(&mut rng, peak_gap);
                    while t <= horizon {
                        let phase =
                            2.0 * std::f64::consts::PI * (t % period) as f64 / period as f64;
                        let accept = (1.0 + depth * phase.sin()) / (1.0 + depth);
                        if rng.gen_bool(accept.clamp(0.0, 1.0)) {
                            push(t, &mut index, &mut arrivals);
                        }
                        t += exp_gap(&mut rng, peak_gap);
                    }
                }
            }
        }
        arrivals.sort_unstable_by_key(|a| (a.tick, a.tenant, a.index));
        Self {
            arrivals,
            horizon,
            streams: processes.len(),
        }
    }

    /// Rebuild a trace from its parts — the replay half of file
    /// capture/replay (`lac_bench::trace_io` serializes the parts to
    /// JSON). Validates every invariant [`ArrivalTrace::generate`]
    /// guarantees, so a replayed trace is indistinguishable from a
    /// generated one: arrivals sorted by `(tick, tenant, index)`, ticks
    /// in `[0, horizon]`, tenants within `streams`, and per-tenant
    /// indices dense from 0. Tick 0 is "due at once" — a closed batch
    /// (see [`ArrivalTrace::batch`]); generated traces start at tick 1.
    pub fn from_parts(
        arrivals: Vec<Arrival>,
        horizon: u64,
        streams: usize,
    ) -> Result<Self, String> {
        let mut next_index = vec![0u64; streams];
        let mut last = None;
        for (i, a) in arrivals.iter().enumerate() {
            if a.tenant >= streams {
                return Err(format!(
                    "arrival {i}: tenant {} out of range (streams = {streams})",
                    a.tenant
                ));
            }
            if a.tick > horizon {
                return Err(format!(
                    "arrival {i}: tick {} outside [0, {horizon}]",
                    a.tick
                ));
            }
            let key = (a.tick, a.tenant, a.index);
            if last.is_some_and(|l| l >= key) {
                return Err(format!("arrival {i}: not sorted by (tick, tenant, index)"));
            }
            last = Some(key);
            if a.index != next_index[a.tenant] {
                return Err(format!(
                    "arrival {i}: tenant {} index {} breaks the dense sequence (expected {})",
                    a.tenant, a.index, next_index[a.tenant]
                ));
            }
            next_index[a.tenant] += 1;
        }
        Ok(Self {
            arrivals,
            horizon,
            streams,
        })
    }

    /// A closed batch: `requests[s]` arrivals on stream `s`, every one due
    /// at tick 0, so the driver admits them all into its first round
    /// without an idle gap — the closed-loop counterpart of a generated
    /// trace.
    pub fn batch(requests: &[usize]) -> Self {
        let arrivals = requests
            .iter()
            .enumerate()
            .flat_map(|(tenant, &n)| {
                (0..n as u64).map(move |index| Arrival {
                    tick: 0,
                    tenant,
                    index,
                })
            })
            .collect();
        Self::from_parts(arrivals, 0, requests.len()).expect("a batch is a valid trace")
    }

    /// All arrivals, sorted by `(tick, tenant, index)`.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Total arrivals across every stream.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when no stream produced an arrival within the horizon.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// The horizon the trace was generated to (inclusive).
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Number of generating streams (= tenants).
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// Arrivals of one tenant's stream.
    pub fn count_for(&self, tenant: usize) -> usize {
        self.arrivals.iter().filter(|a| a.tenant == tenant).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_bit_identical_for_a_seed() {
        let procs = [
            ArrivalProcess::Poisson { mean_gap: 97.0 },
            ArrivalProcess::OnOff {
                mean_gap_on: 5.0,
                mean_burst: 8.0,
                mean_gap_off: 900.0,
            },
            ArrivalProcess::Diurnal {
                mean_gap: 150.0,
                period: 10_000,
                depth: 0.8,
            },
        ];
        let a = ArrivalTrace::generate(42, 100_000, &procs);
        let b = ArrivalTrace::generate(42, 100_000, &procs);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = ArrivalTrace::generate(43, 100_000, &procs);
        assert_ne!(a, c, "a different seed changes the trace");
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let procs = [
            ArrivalProcess::Poisson { mean_gap: 97.0 },
            ArrivalProcess::OnOff {
                mean_gap_on: 5.0,
                mean_burst: 8.0,
                mean_gap_off: 900.0,
            },
        ];
        let trace = ArrivalTrace::generate(9, 50_000, &procs);
        let rebuilt =
            ArrivalTrace::from_parts(trace.arrivals().to_vec(), trace.horizon(), trace.streams())
                .unwrap();
        assert_eq!(rebuilt, trace);

        // Each invariant violation is a typed error, not a bad trace.
        let a = trace.arrivals().to_vec();
        assert!(
            ArrivalTrace::from_parts(a.clone(), 50_000, 1).is_err(),
            "tenant range"
        );
        assert!(
            ArrivalTrace::from_parts(a.clone(), 10, 2).is_err(),
            "tick past horizon"
        );
        let mut unsorted = a.clone();
        unsorted.swap(0, 1);
        assert!(
            ArrivalTrace::from_parts(unsorted, 50_000, 2).is_err(),
            "sortedness"
        );
        let mut sparse = a;
        sparse.remove(0);
        assert!(
            ArrivalTrace::from_parts(sparse, 50_000, 2).is_err(),
            "dense indices"
        );

        // Tick 0 is a valid "due at once" arrival: a closed batch.
        let batch = ArrivalTrace::batch(&[2, 1]);
        let ticks: Vec<(u64, usize, u64)> = batch
            .arrivals()
            .iter()
            .map(|a| (a.tick, a.tenant, a.index))
            .collect();
        assert_eq!(ticks, vec![(0, 0, 0), (0, 0, 1), (0, 1, 0)]);
        assert_eq!((batch.horizon(), batch.streams()), (0, 2));
    }

    #[test]
    fn poisson_respects_the_mean_rate() {
        let horizon = 1_000_000u64;
        let mean_gap = 250.0;
        let trace = ArrivalTrace::generate(7, horizon, &[ArrivalProcess::Poisson { mean_gap }]);
        let expected = horizon as f64 / mean_gap;
        let got = trace.len() as f64;
        assert!(
            (got - expected).abs() < 0.15 * expected,
            "got {got} arrivals, expected ~{expected}"
        );
    }

    #[test]
    fn streams_are_sorted_and_indexed_densely() {
        let procs = [
            ArrivalProcess::Poisson { mean_gap: 50.0 },
            ArrivalProcess::Poisson { mean_gap: 80.0 },
        ];
        let trace = ArrivalTrace::generate(1, 50_000, &procs);
        let mut last_tick = 0;
        let mut next_index = [0u64; 2];
        for a in trace.arrivals() {
            assert!(a.tick >= last_tick, "ticks must be sorted");
            assert!(a.tick >= 1 && a.tick <= 50_000);
            assert_eq!(a.index, next_index[a.tenant], "dense per-tenant indices");
            next_index[a.tenant] += 1;
            last_tick = a.tick;
        }
        assert_eq!(trace.count_for(0) + trace.count_for(1), trace.len());
    }
}
