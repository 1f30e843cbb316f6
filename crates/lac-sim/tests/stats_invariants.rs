//! Property tests on the simulator's accounting invariants: randomly
//! generated hazard-free programs must always produce self-consistent
//! statistics (the power model's inputs).

use lac_sim::{ExtOp, ExternalMem, Lac, LacConfig, ProgramBuilder, Source};
use proptest::prelude::*;

fn cfg() -> LacConfig {
    LacConfig {
        nr: 4,
        sram_a_words: 64,
        sram_b_words: 64,
        ..Default::default()
    }
}

/// Build a random but structurally legal program: each "round" broadcasts
/// one A owner per row and MACs everywhere, optionally touching external
/// memory on distinct column buses.
fn random_program(rounds: &[(u8, bool)]) -> (ProgramBuilder, u64, u64) {
    let mut b = ProgramBuilder::new(4);
    let mut macs = 0u64;
    let mut ext = 0u64;
    for &(owner, do_ext) in rounds {
        let t = b.push_step();
        let oc = (owner % 4) as usize;
        for r in 0..4 {
            b.pe_mut(t, r, oc).row_write = Some(Source::SramA((owner % 16) as usize));
        }
        for r in 0..4 {
            for c in 0..4 {
                b.pe_mut(t, r, c).mac = Some((Source::RowBus, Source::SramB(r + c)));
                macs += 1;
            }
        }
        if do_ext {
            let t2 = b.push_step();
            for col in 0..4 {
                b.ext(t2, ExtOp::Load { col, addr: col });
                b.pe_mut(t2, col, col).reg_write = Some((0, Source::ColBus));
                ext += 1;
            }
        }
    }
    b.idle(cfg().fpu.pipeline_depth);
    (b, macs, ext)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn stats_are_self_consistent(rounds in prop::collection::vec((any::<u8>(), any::<bool>()), 1..20)) {
        let (b, macs, ext) = random_program(&rounds);
        let prog = b.build();
        let mut lac = Lac::new(cfg());
        let mut mem = ExternalMem::new(16);
        let stats = lac.run(&prog, &mut mem).unwrap();
        prop_assert_eq!(stats.cycles as usize, prog.len());
        prop_assert_eq!(stats.mac_ops, macs);
        prop_assert_eq!(stats.ext_reads, ext);
        prop_assert!(stats.active_cycles <= stats.cycles);
        prop_assert!(stats.utilization(4) <= 1.0 + 1e-12);
        // every broadcast was counted: one transfer per row bus per round
        prop_assert_eq!(stats.row_bus_transfers, 4 * rounds.len() as u64);
        // external loads ride the column buses
        prop_assert_eq!(stats.col_bus_transfers, ext);
    }

    #[test]
    fn per_run_deltas_sum_to_lifetime(split in 1usize..10) {
        let rounds: Vec<(u8, bool)> = (0..12).map(|i| (i as u8, i % 3 == 0)).collect();
        let (head, tail) = rounds.split_at(split.min(rounds.len() - 1));
        let mut lac = Lac::new(cfg());
        let mut mem = ExternalMem::new(16);
        let (b1, m1, e1) = random_program(head);
        let (b2, m2, e2) = random_program(tail);
        let s1 = lac.run(&b1.build(), &mut mem).unwrap();
        let s2 = lac.run(&b2.build(), &mut mem).unwrap();
        prop_assert_eq!(s1.mac_ops + s2.mac_ops, m1 + m2);
        prop_assert_eq!(s1.ext_reads + s2.ext_reads, e1 + e2);
        // lifetime counters equal the sum of the two run deltas
        prop_assert_eq!(lac.session_stats().mac_ops, s1.mac_ops + s2.mac_ops);
        prop_assert_eq!(lac.session_stats().cycles, s1.cycles + s2.cycles);
    }
}
