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
//! The table is never evicted. Programs are stored packed (only live PE
//! micro-ops), so the solver shapes a campaign touches are small: the
//! `nr = 4` Cholesky kernel takes 8.4 KB, stacked TRSM with 12 tiles
//! 122 KB, a 16³ GEMM 444 KB, and the largest, the n = 52, kc = 8 SYRK
//! panel update, 1.3 MB (9.1 MB when every PE slot of every cycle was
//! stored).

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
    fn packed_syrk_panel_fits_in_1_5_mb() {
        // 9.1 MB when every PE slot of all 1,937 cycles was stored.
        let prog = syrk_panel_52();
        assert_eq!(prog.len(), 1937);
        assert!(
            prog.heap_bytes() <= 1_500_000,
            "{} bytes",
            prog.heap_bytes()
        );
    }
}
