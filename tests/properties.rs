//! Workspace-level property tests: for arbitrary (small) shapes, seeds,
//! and configurations, the simulated Newton device computes the reference
//! product within the bf16 envelope and its command stream stays timing
//! legal.

use newton_aim::bf16::reduce::dot_error_bound;
use newton_aim::bf16::{slice, Bf16};
use newton_aim::core::config::NewtonConfig;
use newton_aim::core::layout::{Layout, MatrixMapping};
use newton_aim::core::system::NewtonSystem;
use newton_aim::core::tiling::{Schedule, ScheduleKind};
use newton_aim::dram::{Channel, DramConfig};
use newton_aim::workloads::{generator, reference, MvShape};
use proptest::prelude::*;

/// Reads the `m x n` matrix `mapping` placed back out of channel
/// storage.
fn extract(mapping: &MatrixMapping, ch: &Channel, m: usize, n: usize) -> Vec<Bf16> {
    let mut out = vec![Bf16::ZERO; m * n];
    for i in 0..m {
        for c in 0..mapping.num_chunks() {
            let start = c * mapping.row_elems();
            let (bank, dram_row, _) = mapping.location(i, start).unwrap();
            let len = mapping.chunk_elems(c);
            let row = ch.storage().row(bank, dram_row).unwrap();
            let values = slice::unpack(&row[..len * 2]).unwrap();
            out[i * n + start..][..len].copy_from_slice(&values);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Newton == reference for arbitrary small shapes under the full
    /// configuration (audited).
    #[test]
    fn newton_matches_reference(
        m in 1usize..48,
        n in 1usize..1100,
        seed in 0u64..1000,
        channels in 1usize..4,
    ) {
        let shape = MvShape::new(m, n);
        let matrix = generator::matrix(shape, seed);
        let vector = generator::vector(n, seed);
        let mut cfg = NewtonConfig::paper_default();
        cfg.channels = channels;
        let mut sys = NewtonSystem::new(cfg).unwrap();
        for ch in sys.channels_mut() {
            ch.channel_mut().enable_audit();
        }
        let run = sys.run_mv(&matrix, m, n, &vector).unwrap();
        let expect = reference::mv_f64(&matrix, m, n, &vector);
        for (got, want) in run.output.iter().zip(&expect) {
            let bound = dot_error_bound(n, 16, want.abs().max(1.0));
            prop_assert!((*got as f64 - want).abs() <= bound);
        }
        for ch in sys.channels() {
            let t = *ch.channel().timing();
            prop_assert!(ch.channel().audit().unwrap().validate(&t).is_empty());
        }
        // Residency attribution: every bank of every channel accounts for
        // every cycle of the run exactly once.
        for s in &run.channel_summaries {
            prop_assert!(!s.residency.is_empty());
            for (bank, r) in s.residency.iter().enumerate() {
                prop_assert_eq!(r.total(), s.end_cycle, "bank {} residency != elapsed", bank);
            }
        }
    }

    /// Layout round-trip: load + extract is the identity for arbitrary
    /// shapes, layouts, and base rows.
    #[test]
    fn layout_roundtrip(
        m in 1usize..40,
        n in 1usize..1200,
        base in 0usize..100,
        no_reuse in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let layout = if no_reuse { Layout::NoReuse } else { Layout::ChunkInterleaved };
        let mapping = MatrixMapping::new(layout, m, n, 16, 512, base).unwrap();
        let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
        let matrix = generator::matrix(MvShape::new(m, n), seed);
        mapping.load(&mut ch, &matrix).unwrap();
        prop_assert_eq!(extract(&mapping, &ch, m, n), matrix);
    }

    /// Schedule coverage: every (matrix row, chunk) pair is computed
    /// exactly once for arbitrary shapes and all three traversals.
    #[test]
    fn schedule_covers_iteration_space(
        m in 1usize..80,
        n in 1usize..1600,
        kind_sel in 0usize..3,
    ) {
        let kind = [
            ScheduleKind::InterleavedFullReuse,
            ScheduleKind::NoReuse,
            ScheduleKind::FourLatch,
        ][kind_sel];
        let mapping = MatrixMapping::new(kind.layout(), m, n, 16, 512, 0).unwrap();
        let sched = Schedule::build(kind, &mapping);
        let chunks = mapping.num_chunks();
        let mut seen = vec![0u32; m * chunks];
        for rs in sched.row_sets() {
            for w in &rs.work {
                seen[w.matrix_row * chunks + rs.chunk] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
        // Each matrix row is read out exactly the expected number of times.
        let mut reads = vec![0u32; m];
        for rs in sched.row_sets() {
            for r in &rs.read_after {
                reads[r.matrix_row] += 1;
            }
        }
        let expected = if kind == ScheduleKind::InterleavedFullReuse { chunks as u32 } else { 1 };
        prop_assert!(reads.iter().all(|&c| c == expected));
    }
}
