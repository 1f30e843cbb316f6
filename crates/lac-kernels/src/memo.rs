//! Shape-keyed memoization of kernel microprograms.
//!
//! Kernel generators are pure functions of the problem *shape* (mesh
//! dimension, pipeline depth, SFU latency, block sizes) — the data flows
//! through external memory at run time. Rebuilding the identical
//! [`Program`] on every call wastes exactly the work the compiled
//! backend's [`lac_sim::ProgramCache`] is designed to skip: a fresh
//! `Program` has an empty structural-hash memo, so every run would
//! re-hash the whole instruction stream just to discover it is a cache
//! hit. This module keeps one `Arc<Program>` per `(kernel, shape)`
//! process-wide; repeated runs share the instance, its hash memoizes
//! once, and every compile-cache lookup after the first is O(1).
//!
//! The table is never evicted. Programs store only live PE micro-ops, at
//! 16 bytes each, so the solver shapes a campaign touches are small: the
//! `nr = 4` Cholesky kernel takes 3.5 KB, stacked TRSM with 12 tiles
//! 43 KB, a 16³ GEMM 147 KB, and the largest, the n = 52, kc = 8 SYRK
//! panel update, 440 KB. [`memo_totals`] reports the whole table; the
//! 41 shapes of `sim_speed`'s timed graph and `fleet_batch`-shaped fleet
//! take 3.76 MB.

use lac_sim::Program;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

type Key = (&'static str, Vec<u64>);

/// One shape's entry: inserted under the table lock, built outside it by
/// the first caller; racing callers wait on it instead of building again.
type Slot = Arc<OnceLock<Arc<Program>>>;

fn table() -> &'static Mutex<HashMap<Key, Slot>> {
    static TABLE: OnceLock<Mutex<HashMap<Key, Slot>>> = OnceLock::new();
    TABLE.get_or_init(Default::default)
}

/// One `Arc<Program>` per `(kernel, shape)`, built on first use.
///
/// `shape` must encode *every* input the generator reads — two calls
/// with equal keys get the same program back verbatim.
pub(crate) fn program(
    kernel: &'static str,
    shape: &[u64],
    build: impl FnOnce() -> Program,
) -> Arc<Program> {
    let key: Key = (kernel, shape.to_vec());
    let slot = Arc::clone(
        table()
            .lock()
            .expect("kernel program table poisoned")
            .entry(key)
            .or_default(),
    );
    Arc::clone(slot.get_or_init(|| Arc::new(build())))
}

/// What the process-wide kernel program memo holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoTotals {
    /// Distinct `(kernel, shape)` programs built so far.
    pub shapes: usize,
    /// The sum of their [`Program::heap_bytes`].
    pub heap_bytes: usize,
}

/// The memo's current totals. Every program a kernel generator has built
/// in this process stays in the memo, so this is the program store's
/// whole footprint.
pub fn memo_totals() -> MemoTotals {
    let table = table().lock().expect("kernel program table poisoned");
    let built = table.values().filter_map(|slot| slot.get());
    built.fold(MemoTotals::default(), |t, prog| MemoTotals {
        shapes: t.shapes + 1,
        heap_bytes: t.heap_bytes + prog.heap_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GemmDataLayout, GemmParams, SyrkDataLayout, SyrkParams};
    use lac_sim::ProgramBuilder;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn same_shape_shares_the_instance() {
        let build = || {
            let mut b = ProgramBuilder::new(2);
            b.idle(3);
            b.build()
        };
        let a = program("memo-test", &[2, 3], build);
        let b = program("memo-test", &[2, 3], build);
        assert!(Arc::ptr_eq(&a, &b));
        // The shared instance memoizes its structural hash once.
        assert_eq!(a.structural_hash(), b.structural_hash());
        let c = program("memo-test", &[2, 4], || {
            let mut b = ProgramBuilder::new(2);
            b.idle(4);
            b.build()
        });
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn racing_callers_build_once() {
        let builds = AtomicUsize::new(0);
        let key: Key = ("memo-race", vec![7]);
        // Holders of the shape's slot: the table plus one per caller.
        let holders = || {
            table()
                .lock()
                .unwrap()
                .get(&key)
                .map_or(0, Arc::strong_count)
        };
        let got: Vec<Arc<Program>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        program("memo-race", &[7], || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            // Finish only once all four callers hold the
                            // slot, so the other three must wait on it.
                            while holders() < 5 {
                                std::thread::yield_now();
                            }
                            ProgramBuilder::new(2).build()
                        })
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert!(got.iter().all(|p| Arc::ptr_eq(p, &got[0])));
    }

    /// The solver's SYRK panel update at n = 52, kc = 8 (default `nr = 4`,
    /// `p = 5`): the largest shape the solver workloads build.
    fn syrk_panel_52() -> Program {
        let lay = SyrkDataLayout::new(52, 8);
        crate::syrk::syrk_program(4, 5, &lay, &SyrkParams::new(52, 8))
    }

    #[test]
    fn structural_hashes_are_pinned() {
        // Recorded from the dense (one `PeInstr` per PE per cycle) store;
        // the packed store must hash exactly what it hashed.
        let cases = [
            (
                "chol [4, 5, 13]",
                crate::chol::cholesky_kernel_program(4, 5, 13),
                0x7172366367f08942bc414a8b06b67196,
            ),
            (
                "trsm-stacked m = 12",
                crate::trsm::trsm_stacked_program(4, 5, 13, 12),
                0x3099298b69090d2f586aadaa44c8ebcf,
            ),
            (
                "syrk n = 52, kc = 8",
                syrk_panel_52(),
                0xf8c61d59b6f48753d817ed4e6dc0338a,
            ),
            (
                "gemm 16 x 16 x 16",
                crate::gemm_program(
                    4,
                    5,
                    &GemmDataLayout::new(16, 16, 16),
                    &GemmParams::new(16, 16, 16),
                ),
                0x3d9fc61891b54dd0a549898c45b242ca,
            ),
        ];
        for (name, prog, pin) in cases {
            assert_eq!(prog.structural_hash(), pin, "{name}");
        }
    }

    #[test]
    fn compact_syrk_panel_fits_in_0_5_mb() {
        // About 27k live micro-ops at 16 bytes each.
        let prog = syrk_panel_52();
        assert_eq!(prog.len(), 1937);
        assert!(prog.heap_bytes() <= 500_000, "{} bytes", prog.heap_bytes());
    }

    #[test]
    fn totals_count_every_built_shape() {
        let before = memo_totals();
        let prog = program("memo-totals", &[1], || {
            let mut b = ProgramBuilder::new(2);
            b.idle(5);
            b.build()
        });
        let after = memo_totals();
        // Other tests may add shapes concurrently: this one is at least
        // counted.
        assert!(after.shapes > before.shapes);
        assert!(after.heap_bytes >= before.heap_bytes + prog.heap_bytes());
    }
}
