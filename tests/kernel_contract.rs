//! Tier-1 smoke for the COMP kernel contract: the production functional
//! path (`FunctionalMode::Simd`, the lane-major batched kernel) must be
//! indistinguishable from the `Reference` oracle through `run_mv` —
//! outputs bit for bit, cycles and AiM command counters — including when
//! the weights in storage hold an infinity and a NaN, which send the
//! kernel down its full-rounding fallback.

use newton_aim::bf16::Bf16;
use newton_aim::core::config::NewtonConfig;
use newton_aim::core::controller::FunctionalMode;
use newton_aim::core::system::{NewtonSystem, SystemRun};
use newton_aim::workloads::{generator, MvShape};

fn run(mode: FunctionalMode, channels: usize, shape: MvShape, matrix: &[Bf16]) -> SystemRun {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = channels;
    let mut sys = NewtonSystem::new(cfg).expect("config");
    sys.set_functional_mode(mode);
    let vector = generator::vector(shape.n, 5);
    sys.run_mv(matrix, shape.m, shape.n, &vector).expect("run")
}

fn assert_simd_matches_reference(channels: usize, shape: MvShape) {
    let mut matrix = generator::matrix(shape, 5);
    // Different matrix rows, so each special owns its output.
    let (inf_row, nan_row) = (1, shape.m - 2);
    matrix[inf_row * shape.n + 17] = Bf16::INFINITY;
    matrix[nan_row * shape.n + shape.n - 5] = Bf16::NAN;

    let simd = run(FunctionalMode::Simd, channels, shape, &matrix);
    let reference = run(FunctionalMode::Reference, channels, shape, &matrix);

    let bits = |r: &SystemRun| r.output.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(&simd), bits(&reference), "{shape:?}: outputs");
    assert_eq!(simd.cycles, reference.cycles, "{shape:?}: cycles");
    assert_eq!(simd.stats, reference.stats, "{shape:?}: AiM stats");

    assert!(!simd.output[inf_row].is_finite() && simd.output[nan_row].is_nan());
    let finite = simd.output.iter().filter(|v| v.is_finite()).count();
    assert_eq!(
        finite,
        shape.m - 2,
        "{shape:?}: specials stay in their rows"
    );
}

#[test]
fn simd_kernel_matches_reference_on_a_1024_column_layer() {
    assert_simd_matches_reference(1, MvShape::new(48, 1024));
}

#[test]
fn simd_kernel_matches_reference_on_a_ragged_shape() {
    assert_simd_matches_reference(2, MvShape::new(50, 700));
}
