//! Tier-1 smoke for the COMP kernel contract: production's functional
//! path (the event-skipping engine's lane-major batched kernel) must be
//! indistinguishable from the oracle of `common/conformance.rs` through
//! `run_mv` and through a resident matrix, including when the weights in
//! storage hold an infinity and a NaN, which send the kernel down its
//! full-rounding fallback. Both fold the weight rows where storage keeps
//! them and must agree with each other and with the oracle, and so must
//! operands small enough that their products are subnormal `f32`s.

#[path = "common/conformance.rs"]
mod conformance;

use conformance::{assert_conformant, bits, load, pair, run_resident};
use newton_aim::bf16::reduce::comp_step;
use newton_aim::bf16::simd::{comp_row_set, LanePlane};
use newton_aim::bf16::Bf16;
use newton_aim::core::config::NewtonConfig;
use newton_aim::dram::faults::CounterRng;
use newton_aim::workloads::{generator, MvShape};

/// The lane-major plane of `row`.
fn plane(row: &[Bf16]) -> LanePlane {
    let mut plane = LanePlane::zeroed(row.len());
    plane.write(0, row);
    plane
}

fn config(channels: usize) -> NewtonConfig {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = channels;
    cfg
}

fn assert_simd_matches_reference(channels: usize, shape: MvShape) {
    let mut matrix = generator::matrix(shape, 5);
    // Different matrix rows, so each special owns its output.
    let (inf_row, nan_row) = (1, shape.m - 2);
    matrix[inf_row * shape.n + 17] = Bf16::INFINITY;
    matrix[nan_row * shape.n + shape.n - 5] = Bf16::NAN;
    let vector = generator::vector(shape.n, 5);

    let mut streamed = pair(&config(channels));
    let runs = streamed
        .each_mut()
        .map(|s| s.run_mv(&matrix, shape.m, shape.n, &vector).expect("run"));
    assert_conformant(&format!("{shape:?} run_mv"), &streamed, &runs);

    let mut resident = pair(&config(channels));
    let loaded = load(&mut resident, &matrix, shape.m, shape.n);
    let resident_runs = run_resident(&mut resident, &loaded, &vector);
    assert_conformant(&format!("{shape:?} resident"), &resident, &resident_runs);
    // Both are a first run on freshly written rows, so every activation
    // scrubs on both and the whole `AimStats` agrees.
    let (s, r) = (&runs[1], &resident_runs[1]);
    assert_eq!(bits(s), bits(r), "{shape:?}: decodes");
    assert_eq!(s.cycles, r.cycles, "{shape:?}: streamed vs resident cycles");
    assert_eq!(s.stats, r.stats, "{shape:?}: streamed vs resident stats");

    let simd = &runs[1];
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
        let mut systems = pair(&config(2));
        let outputs = [5, 6].map(|seed| {
            let matrix = generator::matrix(shape, seed);
            let runs = systems
                .each_mut()
                .map(|s| s.run_mv(&matrix, shape.m, shape.n, &vector).expect("run"));
            assert_conformant(&format!("{shape:?} matrix {seed}"), &systems, &runs);
            bits(&runs[1])
        });
        assert_ne!(outputs[0], outputs[1], "{shape:?}");
    }
}

/// Draw `k` of `rng` as a bf16 with a random sign and mantissa and a
/// magnitude in `[2^-72, 2^-59)`.
fn near_2_pow_minus_70(rng: &CounterRng, k: usize) -> Bf16 {
    let z = rng.u64_at(k as u64);
    let exponent = 127 - 72 + (z % 13) as u16;
    let sign = (z >> 16) as u16 & 0x8000;
    Bf16::from_bits(sign | exponent << 7 | (z >> 32) as u16 & 0x7F)
}

/// Products of operands near 2^-70 lie between 2^-144 and 2^-118, mostly
/// below the smallest normal `f32` (2^-126). The kernel must round such
/// subnormal products to bf16 as the scalar steps do, so each latch
/// equals theirs bit for bit, at two seeds.
#[test]
fn row_set_kernel_rounds_subnormal_products_like_the_scalar_steps() {
    const ELEMS: usize = 1024;
    for seed in [0x2E70, 0x2E71] {
        let rng = CounterRng::new(seed);
        let rows: Vec<Vec<Bf16>> = (0..16)
            .map(|bank| {
                (0..ELEMS)
                    .map(|e| near_2_pow_minus_70(&rng, bank * ELEMS + e))
                    .collect()
            })
            .collect();
        let inputs: Vec<Bf16> = (0..ELEMS)
            .map(|e| near_2_pow_minus_70(&rng, 16 * ELEMS + e))
            .collect();
        let planes: Vec<LanePlane> = rows.iter().map(|r| plane(r)).collect();
        let refs: Vec<&LanePlane> = planes.iter().collect();
        let mut latches = [Bf16::ZERO; 16];
        comp_row_set(&mut latches, &refs, &plane(&inputs), ELEMS / 16);
        let mut nonzero = 0;
        for (bank, (row, latch)) in rows.iter().zip(latches).enumerate() {
            let scalar = row
                .chunks(16)
                .zip(inputs.chunks(16))
                .fold(Bf16::ZERO, |l, (w, v)| comp_step(l, w, v));
            assert_eq!(
                latch.to_bits(),
                scalar.to_bits(),
                "bank {bank} seed {seed:#x}"
            );
            nonzero += usize::from(scalar.to_f32() != 0.0);
        }
        assert!(
            nonzero > 8,
            "seed {seed:#x}: the products must not all round to zero"
        );
    }
}
