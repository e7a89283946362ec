//! Tier-1 smoke for the COMP kernel contract: the production functional
//! path (`FunctionalMode::Simd`, the lane-major batched kernel) must be
//! indistinguishable from the `Reference` oracle through `run_mv` —
//! outputs bit for bit, cycles and AiM command counters — including when
//! the weights in storage hold an infinity and a NaN, which send the
//! kernel down its full-rounding fallback. `run_mv` streams each weight row
//! through a scratch plane and a resident matrix retains its decoded rows;
//! the two decodes must agree with each other and with the oracle too.

use newton_aim::bf16::Bf16;
use newton_aim::core::config::NewtonConfig;
use newton_aim::core::controller::FunctionalMode;
use newton_aim::core::system::{NewtonSystem, SystemRun};
use newton_aim::workloads::{generator, MvShape};

fn system(mode: FunctionalMode, channels: usize) -> NewtonSystem {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = channels;
    let mut sys = NewtonSystem::new(cfg).expect("config");
    sys.set_functional_mode(mode);
    sys
}

fn run(mode: FunctionalMode, channels: usize, shape: MvShape, matrix: &[Bf16]) -> SystemRun {
    let vector = generator::vector(shape.n, 5);
    system(mode, channels)
        .run_mv(matrix, shape.m, shape.n, &vector)
        .expect("run")
}

/// The same product against a resident copy: decoded rows are retained.
fn run_resident(channels: usize, shape: MvShape, matrix: &[Bf16]) -> SystemRun {
    let mut sys = system(FunctionalMode::Simd, channels);
    let loaded = sys.load_matrix(matrix, shape.m, shape.n).expect("load");
    sys.run_resident(&loaded, &generator::vector(shape.n, 5))
        .expect("run")
}

fn bits(run: &SystemRun) -> Vec<u32> {
    run.output.iter().map(|v| v.to_bits()).collect()
}

fn assert_simd_matches_reference(channels: usize, shape: MvShape) {
    let mut matrix = generator::matrix(shape, 5);
    // Different matrix rows, so each special owns its output.
    let (inf_row, nan_row) = (1, shape.m - 2);
    matrix[inf_row * shape.n + 17] = Bf16::INFINITY;
    matrix[nan_row * shape.n + shape.n - 5] = Bf16::NAN;

    let simd = run(FunctionalMode::Simd, channels, shape, &matrix);
    let reference = run(FunctionalMode::Reference, channels, shape, &matrix);
    let resident = run_resident(channels, shape, &matrix);

    for (name, other) in [("reference", &reference), ("resident", &resident)] {
        assert_eq!(bits(&simd), bits(other), "{shape:?}: outputs vs {name}");
        assert_eq!(simd.cycles, other.cycles, "{shape:?}: cycles vs {name}");
        assert_eq!(simd.stats, other.stats, "{shape:?}: AiM stats vs {name}");
    }

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

/// Two different matrices through `run_mv` on one system land in the same
/// DRAM rows and the same scratch planes: the second product must be
/// computed from the second matrix's bytes. On the small shape every bank
/// holds one DRAM row, so the scratch still holds that very row's old
/// decode when the second product starts.
#[test]
fn back_to_back_run_mv_never_reuses_a_streamed_row() {
    for shape in [MvShape::new(32, 512), MvShape::new(50, 700)] {
        let vector = generator::vector(shape.n, 5);
        let matrices = [generator::matrix(shape, 5), generator::matrix(shape, 6)];
        let both = |mode| {
            let mut sys = system(mode, 2);
            matrices
                .each_ref()
                .map(|m| sys.run_mv(m, shape.m, shape.n, &vector).expect("run"))
        };
        let simd = both(FunctionalMode::Simd);
        let reference = both(FunctionalMode::Reference);
        for (s, r) in simd.iter().zip(&reference) {
            assert_eq!(bits(s), bits(r), "{shape:?}: outputs");
            assert_eq!(s.cycles, r.cycles, "{shape:?}: cycles");
            assert_eq!(s.stats, r.stats, "{shape:?}: AiM stats");
        }
        assert_ne!(bits(&simd[0]), bits(&simd[1]), "{shape:?}");
    }
}
