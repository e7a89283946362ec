//! Equivalence and coherence tests for the two engines of one channel.
//!
//! `TimingEngine::Reference` is the oracle: single commands, a scrub on
//! every activation, and the scalar kernels over the bytes each column read
//! returns. The event-skipping engine — trains, skipped scrubs of verified
//! rows and the SIMD kernel folding rows where storage keeps them — must
//! change *nothing* observable: outputs bit-for-bit, cycle counts, AiM
//! stats, command traces and substrate counters identical to the
//! oracle's, including across arbitrary interleavings of storage writes
//! and COMPs, whether a run comes through a plan or a mapping and
//! schedule.

use newton_bf16::Bf16;
use newton_core::config::{NewtonConfig, OptLevel, TimingEngine};
use newton_core::controller::{MvRun, NewtonChannel};
use newton_core::layout::MatrixMapping;
use newton_core::lut::ActivationKind;
use newton_core::plan::ChannelPlan;
use newton_core::tiling::{Schedule, ScheduleKind};
use proptest::prelude::*;

fn bf(v: f32) -> Bf16 {
    Bf16::from_f32(v)
}

fn cfg1(level: OptLevel) -> NewtonConfig {
    let mut c = NewtonConfig::at_level(level);
    c.channels = 1;
    c
}

fn mapping_and_schedule(cfg: &NewtonConfig, m: usize, n: usize) -> (MatrixMapping, Schedule) {
    let kind = if cfg.opts.interleaved_reuse {
        ScheduleKind::InterleavedFullReuse
    } else {
        ScheduleKind::NoReuse
    };
    let mapping = MatrixMapping::new(kind.layout(), m, n, cfg.dram.banks, cfg.row_elems(), 0)
        .expect("mapping");
    let schedule = Schedule::build(kind, &mapping);
    (mapping, schedule)
}

/// A one-channel `NewtonChannel` on `engine`.
fn channel_on(cfg: &NewtonConfig, engine: TimingEngine) -> NewtonChannel {
    let mut cfg = cfg.clone();
    cfg.engine = engine;
    NewtonChannel::new(&cfg, ActivationKind::Identity).expect("channel")
}

fn run_on(
    cfg: &NewtonConfig,
    engine: TimingEngine,
    m: usize,
    n: usize,
    matrix: &[Bf16],
    vectors: &[Vec<Bf16>],
) -> (Vec<MvRun>, NewtonChannel) {
    let (mapping, schedule) = mapping_and_schedule(cfg, m, n);
    let mut ch = channel_on(cfg, engine);
    ch.enable_trace();
    ch.load_matrix(&mapping, matrix).expect("load");
    let runs = vectors
        .iter()
        .map(|v| ch.run_mv(&mapping, &schedule, v, false).expect("run"))
        .collect();
    (runs, ch)
}

fn assert_runs_identical(
    a: &(Vec<MvRun>, NewtonChannel),
    b: &(Vec<MvRun>, NewtonChannel),
    tag: &str,
) {
    assert_eq!(a.0.len(), b.0.len());
    for (ra, rb) in a.0.iter().zip(&b.0) {
        let bits_a: Vec<u32> = ra.outputs.iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u32> = rb.outputs.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "{tag}: outputs must be bit-identical");
        assert_eq!(ra.start_cycle, rb.start_cycle, "{tag}: start cycles");
        assert_eq!(ra.end_cycle, rb.end_cycle, "{tag}: end cycles");
        assert_eq!(ra.stats, rb.stats, "{tag}: AiM stats");
    }
    assert!(
        a.1.trace().entries().eq(b.1.trace().entries()),
        "{tag}: command traces"
    );
    assert_eq!(
        a.1.channel().stats(),
        b.1.channel().stats(),
        "{tag}: substrate event counters"
    );
}

/// Both engines at every rung of the Fig. 9 ladder: ganged/complex on and
/// off covers the COMP train and the per-command loop, each followed by
/// the one row-set fold.
#[test]
fn engines_identical_across_the_opt_ladder() {
    for level in OptLevel::ladder() {
        let cfg = cfg1(level);
        let (m, n) = (24, 700);
        let matrix: Vec<Bf16> = (0..m * n)
            .map(|k| bf(((k % 29) as f32 - 14.0) / 8.0))
            .collect();
        let vectors: Vec<Vec<Bf16>> = (0..2)
            .map(|r| {
                (0..n)
                    .map(|k| bf(((k + r * 3) % 11) as f32 / 4.0 - 1.0))
                    .collect()
            })
            .collect();
        let reference = run_on(&cfg, TimingEngine::Reference, m, n, &matrix, &vectors);
        let production = run_on(&cfg, TimingEngine::EventSkipping, m, n, &matrix, &vectors);
        assert_runs_identical(&reference, &production, &format!("{level:?}"));
    }
}

/// Write a row, COMP against it, overwrite via `write_row`,
/// `write_column` and `flip_bit`, COMP again — production, which folds the
/// stored rows in place, must match the oracle (which decodes the bytes
/// each column read returns) bit-for-bit at every step.
#[test]
fn writes_between_runs_reach_the_next_run() {
    let cfg = cfg1(OptLevel::Full);
    let (m, n) = (16, 512);
    let (mapping, schedule) = mapping_and_schedule(&cfg, m, n);
    let matrix: Vec<Bf16> = (0..m * n).map(|k| bf((k % 9) as f32 / 2.0 - 2.0)).collect();
    let vector: Vec<Bf16> = (0..n).map(|k| bf((k % 5) as f32 / 2.0)).collect();

    let mut cached = channel_on(&cfg, TimingEngine::EventSkipping);
    let mut plain = channel_on(&cfg, TimingEngine::Reference);

    let compare = |cached: &mut NewtonChannel, plain: &mut NewtonChannel, tag: &str| {
        let a = cached.run_mv(&mapping, &schedule, &vector, false).unwrap();
        let b = plain.run_mv(&mapping, &schedule, &vector, false).unwrap();
        let bits_a: Vec<u32> = a.outputs.iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u32> = b.outputs.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "{tag}");
    };

    for ch in [&mut cached, &mut plain] {
        ch.load_matrix(&mapping, &matrix).unwrap();
    }
    compare(&mut cached, &mut plain, "initial");

    // Overwrite one full matrix row via write_row on both channels.
    let new_row = newton_bf16::slice::pack(&vec![bf(3.5); cfg.row_elems()]);
    for ch in [&mut cached, &mut plain] {
        ch.channel_mut()
            .storage_mut()
            .write_row(2, 0, &new_row)
            .unwrap();
    }
    compare(&mut cached, &mut plain, "after write_row");

    // Overwrite a single column I/O via write_column.
    let new_col = newton_bf16::slice::pack(&vec![bf(-1.25); cfg.subchunk_elems()]);
    for ch in [&mut cached, &mut plain] {
        ch.channel_mut()
            .storage_mut()
            .write_column(5, 0, 3, &new_col)
            .unwrap();
    }
    compare(&mut cached, &mut plain, "after write_column");

    // Fault injection (flip_bit) is seen too.
    for ch in [&mut cached, &mut plain] {
        ch.channel_mut().storage_mut().flip_bit(0, 0, 12).unwrap();
    }
    compare(&mut cached, &mut plain, "after flip_bit");
}

/// One mutation step of the random interleaving: applied identically to
/// every channel between COMPs.
#[derive(Debug, Clone)]
enum Mutation {
    WriteRow {
        bank: usize,
        row: usize,
        seed: u8,
    },
    WriteColumn {
        bank: usize,
        row: usize,
        col: usize,
        seed: u8,
    },
    FlipBit {
        bank: usize,
        row: usize,
        bit: usize,
    },
    /// One COMP run on every channel; `planned` picks whether the second
    /// production channel runs it through its plan.
    Comp {
        planned: bool,
    },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        2 => (0usize..16, 0usize..2, any::<u8>())
            .prop_map(|(bank, row, seed)| Mutation::WriteRow { bank, row, seed }),
        2 => (0usize..16, 0usize..2, 0usize..32, any::<u8>())
            .prop_map(|(bank, row, col, seed)| Mutation::WriteColumn { bank, row, col, seed }),
        1 => (0usize..16, 0usize..2, 0usize..8192)
            .prop_map(|(bank, row, bit)| Mutation::FlipBit { bank, row, bit }),
        3 => any::<bool>().prop_map(|planned| Mutation::Comp { planned }),
    ]
}

/// Output bits with every NaN collapsed to one pattern. The random row
/// bytes below hold NaNs of several payloads, and which payload an add of
/// two NaNs keeps is outside the SIMD kernel's contract with the scalar
/// oracle (see `newton_bf16::simd`); where the NaNs land is not.
fn bits_sans_nan_payload(run: &MvRun) -> Vec<u32> {
    let canonical = |v: &f32| if v.is_nan() { f32::NAN } else { *v }.to_bits();
    run.outputs.iter().map(canonical).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random interleavings of storage writes and COMPs: a production
    /// channel run by mapping and schedule, and one also run through a
    /// plan, both track the `Reference` oracle at every COMP.
    #[test]
    fn random_write_comp_interleavings_stay_coherent(
        ops in prop::collection::vec(mutation(), 1..24)
    ) {
        let cfg = cfg1(OptLevel::Full);
        let (m, n) = (32, 512);
        let (mapping, schedule) = mapping_and_schedule(&cfg, m, n);
        let matrix: Vec<Bf16> = (0..m * n).map(|k| bf((k % 17) as f32 / 4.0 - 2.0)).collect();
        let vector: Vec<Bf16> = (0..n).map(|k| bf((k % 3) as f32 - 1.0)).collect();

        let mut retained = channel_on(&cfg, TimingEngine::EventSkipping);
        let mut streamed = channel_on(&cfg, TimingEngine::EventSkipping);
        let mut reference = channel_on(&cfg, TimingEngine::Reference);
        let single_use = ChannelPlan::new(ScheduleKind::InterleavedFullReuse, mapping.clone());
        for ch in [&mut retained, &mut streamed, &mut reference] {
            ch.load_matrix(&mapping, &matrix).unwrap();
        }

        let row_bytes = cfg.row_elems() * 2;
        let col_bytes = cfg.subchunk_elems() * 2;
        for op in &ops {
            match op {
                Mutation::WriteRow { bank, row, seed } => {
                    let data: Vec<u8> =
                        (0..row_bytes).map(|i| (i as u8).wrapping_mul(*seed)).collect();
                    for ch in [&mut retained, &mut streamed, &mut reference] {
                        ch.channel_mut().storage_mut().write_row(*bank, *row, &data).unwrap();
                    }
                }
                Mutation::WriteColumn { bank, row, col, seed } => {
                    let data: Vec<u8> =
                        (0..col_bytes).map(|i| (i as u8).wrapping_add(*seed)).collect();
                    for ch in [&mut retained, &mut streamed, &mut reference] {
                        ch.channel_mut()
                            .storage_mut()
                            .write_column(*bank, *row, *col, &data)
                            .unwrap();
                    }
                }
                Mutation::FlipBit { bank, row, bit } => {
                    for ch in [&mut retained, &mut streamed, &mut reference] {
                        ch.channel_mut().storage_mut().flip_bit(*bank, *row, *bit).unwrap();
                    }
                }
                Mutation::Comp { planned } => {
                    let a = retained.run_mv(&mapping, &schedule, &vector, false).unwrap();
                    let s = if !*planned {
                        streamed.run_mv(&mapping, &schedule, &vector, false).unwrap()
                    } else {
                        streamed.run_planned(&single_use, &vector).unwrap()
                    };
                    let r = reference.run_mv(&mapping, &schedule, &vector, false).unwrap();
                    for run in [&a, &s] {
                        prop_assert_eq!(bits_sans_nan_payload(run), bits_sans_nan_payload(&r));
                        prop_assert_eq!(run.end_cycle, r.end_cycle);
                        prop_assert_eq!(run.stats, r.stats);
                    }
                }
            }
        }
        // Always end on a COMP so trailing writes are exercised.
        let a = retained.run_mv(&mapping, &schedule, &vector, false).unwrap();
        let s = streamed.run_planned(&single_use, &vector).unwrap();
        let r = reference.run_mv(&mapping, &schedule, &vector, false).unwrap();
        prop_assert_eq!(bits_sans_nan_payload(&a), bits_sans_nan_payload(&r));
        prop_assert_eq!(bits_sans_nan_payload(&s), bits_sans_nan_payload(&r));
        prop_assert_eq!(s.stats, r.stats);
    }
}
