//! The per-channel AiM compute state: global input buffer, per-bank MAC
//! units, and the activation LUT.
//!
//! Per the paper (Sec. III-B, Fig. 4): each bank has 16 multipliers
//! rate-matched to the 256-bit column I/O, a pipelined 16-to-1 adder tree
//! (15 adders) plus one accumulation adder, and a single bf16 result latch.
//! The input vector chunk lives in a DRAM-row-wide *global* buffer shared
//! by the entire channel, broadcast directly into the multiplier inputs
//! "without any further per-bank latching to save area".

use newton_bf16::reduce::{self, TreePrecision};
use newton_bf16::simd::{self, LanePlane};
use newton_bf16::Bf16;

use crate::error::AimError;
use crate::lut::{ActivationKind, ActivationLut};

/// The channel-wide, DRAM-row-wide input vector buffer (512 bf16 elements
/// for a 1 KB row), loaded one sub-chunk at a time by `GWRITE#`.
///
/// Alongside the bf16 elements the buffer maintains the same elements as
/// the batched COMP kernel's lane-major plane, so a row-set COMP needs no
/// per-COMP transposing pass (the kernel widens each block to `f32` once
/// per gang). The plane is updated on every write and can never go stale.
#[derive(Debug, Clone)]
pub struct GlobalBuffer {
    elems: Vec<Bf16>,
    lanes: LanePlane,
    subchunk: usize,
}

impl GlobalBuffer {
    /// Creates a zeroed buffer of `row_elems` elements with `subchunk`-wide
    /// write granularity.
    ///
    /// # Panics
    ///
    /// Panics if `subchunk` is zero or does not divide `row_elems`.
    #[must_use]
    pub(crate) fn new(row_elems: usize, subchunk: usize) -> GlobalBuffer {
        assert!(
            subchunk > 0 && row_elems.is_multiple_of(subchunk),
            "sub-chunk width {subchunk} must divide the row width {row_elems}"
        );
        GlobalBuffer {
            elems: vec![Bf16::ZERO; row_elems],
            lanes: LanePlane::zeroed(row_elems),
            subchunk,
        }
    }

    /// Number of sub-chunk slots (GWRITE commands to fill the buffer).
    #[must_use]
    pub(crate) fn subchunks(&self) -> usize {
        self.elems.len() / self.subchunk
    }

    /// Executes one `GWRITE#`: writes `data` into sub-chunk slot `index`.
    /// Short trailing data (a partial final sub-chunk) zero-fills the rest
    /// of the slot.
    ///
    /// # Errors
    ///
    /// [`AimError::Shape`] if `index` is out of range or `data` is longer
    /// than a sub-chunk.
    pub fn write_subchunk(&mut self, index: usize, data: &[Bf16]) -> Result<(), AimError> {
        if index >= self.subchunks() {
            return Err(AimError::Shape {
                what: "global buffer sub-chunk index",
                detail: format!("index {index} out of {}", self.subchunks()),
            });
        }
        if data.len() > self.subchunk {
            return Err(AimError::Shape {
                what: "global buffer write",
                detail: format!(
                    "{} elements exceed sub-chunk width {}",
                    data.len(),
                    self.subchunk
                ),
            });
        }
        let start = index * self.subchunk;
        self.elems[start..start + data.len()].copy_from_slice(data);
        for e in &mut self.elems[start + data.len()..start + self.subchunk] {
            *e = Bf16::ZERO;
        }
        self.lanes
            .write(start, &self.elems[start..start + self.subchunk]);
        Ok(())
    }

    /// The broadcast view of sub-chunk `index` (what every bank's
    /// multipliers receive during a COMP).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range (device-internal path; the
    /// controller validates indices).
    #[must_use]
    pub(crate) fn subchunk(&self, index: usize) -> &[Bf16] {
        let start = index * self.subchunk;
        &self.elems[start..start + self.subchunk]
    }
}

/// One bank's compute unit: 16 multipliers, the pipelined adder tree, and
/// the result latch(es).
///
/// With `latches = 4` this models the Sec. III-C "option in between" that
/// reuses the input across four matrix rows per bank; Newton proper uses a
/// single latch.
#[derive(Debug, Clone)]
pub struct MacUnit {
    latches: Vec<Bf16>,
    precision: TreePrecision,
}

impl MacUnit {
    /// Creates a unit with `latches` result latches.
    ///
    /// # Panics
    ///
    /// Panics if `latches` is zero.
    #[must_use]
    pub(crate) fn new(latches: usize, precision: TreePrecision) -> MacUnit {
        assert!(latches > 0, "a MAC unit needs at least one result latch");
        MacUnit {
            latches: vec![Bf16::ZERO; latches],
            precision,
        }
    }

    /// Clears every latch (start of a new accumulation scope).
    pub(crate) fn reset(&mut self) {
        for l in &mut self.latches {
            *l = Bf16::ZERO;
        }
    }

    /// Clears one latch.
    ///
    /// # Panics
    ///
    /// Panics if `latch` is out of range.
    fn reset_one(&mut self, latch: usize) {
        self.latches[latch] = Bf16::ZERO;
    }

    /// Executes one COMP step into latch `latch`: multiply the matrix
    /// sub-chunk by the broadcast input sub-chunk, reduce through the
    /// tree, accumulate. Chunks up to [`reduce::MAX_CHUNK`] elements run
    /// through the allocation-free kernels (bit-exact with the reference;
    /// longer operands fall back to the allocating reference path).
    ///
    /// # Panics
    ///
    /// Panics if `latch` is out of range or the operand lengths differ
    /// (device-internal invariants; the controller guarantees them).
    pub(crate) fn comp(&mut self, latch: usize, weights: &[Bf16], inputs: &[Bf16]) {
        let v = if weights.len() <= reduce::MAX_CHUNK {
            reduce::comp_step_noalloc(self.latches[latch], weights, inputs, self.precision)
        } else {
            reduce::comp_step(self.latches[latch], weights, inputs, self.precision)
        };
        self.latches[latch] = v;
    }

    /// The reference (allocating) form of [`MacUnit::comp`]: identical
    /// arithmetic through `reduce::comp_step`: the COMP kernel of the
    /// `TimingEngine::Reference` oracle.
    fn comp_reference(&mut self, latch: usize, weights: &[Bf16], inputs: &[Bf16]) {
        let v = reduce::comp_step(self.latches[latch], weights, inputs, self.precision);
        self.latches[latch] = v;
    }

    /// Preloads latch `latch` with a bias value (the AiM `WR_BIAS` data
    /// path: the host seeds the accumulator before the COMP stream so
    /// the readout is `bias + Σ w·x` with no extra host add).
    ///
    /// # Panics
    ///
    /// Panics if `latch` is out of range.
    fn preload(&mut self, latch: usize, value: Bf16) {
        self.latches[latch] = value;
    }

    /// Reads latch `latch` (the `READRES` data path).
    #[must_use]
    pub(crate) fn result(&self, latch: usize) -> Bf16 {
        self.latches[latch]
    }
}

/// The whole channel's AiM state.
#[derive(Debug)]
pub struct NewtonDevice {
    global: GlobalBuffer,
    macs: Vec<MacUnit>,
    lut: ActivationLut,
    subchunk: usize,
}

impl NewtonDevice {
    /// Creates the device for `banks` banks, `row_elems`-wide rows,
    /// `subchunk`-wide column I/Os, `latches` result latches per bank.
    ///
    /// # Errors
    ///
    /// [`AimError::Shape`] if `subchunk` exceeds [`reduce::MAX_CHUNK`]:
    /// the COMP data path reduces a sub-chunk through fixed stack scratch
    /// of that width, so a wider configuration must be rejected here
    /// rather than panicking mid-run in the controller's COMP.
    pub(crate) fn new(
        banks: usize,
        row_elems: usize,
        subchunk: usize,
        latches: usize,
        precision: TreePrecision,
        activation: ActivationKind,
    ) -> Result<NewtonDevice, AimError> {
        if subchunk > reduce::MAX_CHUNK {
            return Err(AimError::Shape {
                what: "device sub-chunk width",
                detail: format!(
                    "{subchunk} elements exceed the COMP data path maximum {}",
                    reduce::MAX_CHUNK
                ),
            });
        }
        Ok(NewtonDevice {
            global: GlobalBuffer::new(row_elems, subchunk),
            macs: (0..banks)
                .map(|_| MacUnit::new(latches, precision))
                .collect(),
            lut: ActivationLut::new(activation),
            subchunk,
        })
    }

    /// The global input buffer.
    #[must_use]
    pub(crate) fn global_buffer(&self) -> &GlobalBuffer {
        &self.global
    }

    /// Mutable access to the global buffer (the GWRITE path).
    pub fn global_buffer_mut(&mut self) -> &mut GlobalBuffer {
        &mut self.global
    }

    /// Resets every bank's latches.
    pub(crate) fn reset_latches(&mut self) {
        for m in &mut self.macs {
            m.reset();
        }
    }

    /// Clears a single latch on one bank (start of an accumulation scope
    /// in schedules that interleave latches across row groups).
    pub(crate) fn reset_latch(&mut self, bank: usize, latch: usize) {
        self.macs[bank].reset_one(latch);
    }

    /// Preloads one bank's latch with a bias value (the AiM `WR_BIAS`
    /// broadcast: one 256-bit GPR carries 16 bf16 biases, one per bank).
    pub fn preload_bias(&mut self, bank: usize, latch: usize, value: Bf16) {
        self.macs[bank].preload(latch, value);
    }

    /// Executes the compute half of a COMP on `bank` through the reference
    /// (allocating) reduction, the oracle's data path: the matrix
    /// sub-chunk bytes (as read from the bank's open row) are unpacked and
    /// multiply-accumulated against global-buffer sub-chunk `subchunk`
    /// into latch `latch`.
    ///
    /// # Panics
    ///
    /// Panics on malformed byte length (must be `2 * subchunk` bytes) —
    /// a wiring bug, not a runtime condition.
    pub(crate) fn comp_bank_reference(
        &mut self,
        bank: usize,
        latch: usize,
        subchunk: usize,
        row_bytes: &[u8],
    ) {
        debug_assert_eq!(row_bytes.len(), 2 * self.subchunk);
        let weights: Vec<Bf16> = row_bytes
            .chunks_exact(2)
            .map(|c| Bf16::from_le_bytes([c[0], c[1]]))
            .collect();
        let inputs = self.global.subchunk(subchunk);
        self.macs[bank].comp_reference(latch, &weights, inputs);
    }

    /// The compute half of a COMP over weights already decoded to
    /// [`Bf16`] (the decoded-weight cache's), through the production
    /// reduction.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` is not the device sub-chunk width.
    pub(crate) fn comp_bank_decoded(
        &mut self,
        bank: usize,
        latch: usize,
        subchunk: usize,
        weights: &[Bf16],
    ) {
        debug_assert_eq!(weights.len(), self.subchunk);
        let inputs = self.global.subchunk(subchunk);
        self.macs[bank].comp(latch, weights, inputs);
    }

    /// Batched row-set COMP: for every bank in `banks`, folds global-buffer
    /// sub-chunks `0..n_sub` against the bank's open row into latch
    /// `latch` — bit-exact with issuing
    /// [`comp_bank_decoded`](NewtonDevice::comp_bank_decoded) once per
    /// bank per sub-chunk in ascending order, and advances each bank's
    /// COMP counter by `n_sub`. `plane_of(bank)` is that row as a
    /// lane-major plane (the decoded-weight cache's). Banks are folded a
    /// gang at a time so their serial latch chains interleave (see
    /// [`newton_bf16::simd::comp_row_set`]); banks never interact, so any
    /// bank order gives the same result.
    ///
    /// # Panics
    ///
    /// Panics if the device sub-chunk width is not 16 (the kernel is fixed
    /// at the paper's 16-wide MAC tree; the controller takes the
    /// per-sub-chunk paths for other widths) or a plane is shorter than
    /// `n_sub` sub-chunks.
    pub(crate) fn comp_banks_row_simd<'a>(
        &mut self,
        banks: &[usize],
        latch: usize,
        n_sub: usize,
        plane_of: impl Fn(usize) -> &'a LanePlane,
    ) {
        assert_eq!(
            self.subchunk,
            reduce::TREE_ARITY,
            "SIMD COMP path requires 16-wide sub-chunks"
        );
        const GANG_MAX: usize = simd::MULTI_MAX_BANKS;
        let inputs = &self.global.lanes;
        for gang in banks.chunks(GANG_MAX) {
            let precision = self.macs[gang[0]].precision;
            let mut latches = [Bf16::ZERO; GANG_MAX];
            let mut planes = [inputs; GANG_MAX];
            for ((l, p), &bank) in latches.iter_mut().zip(&mut planes).zip(gang) {
                *l = self.macs[bank].latches[latch];
                *p = plane_of(bank);
            }
            simd::comp_row_set(
                &mut latches[..gang.len()],
                &planes[..gang.len()],
                inputs,
                n_sub,
                precision,
            );
            for (&bank, &l) in gang.iter().zip(&latches) {
                self.macs[bank].latches[latch] = l;
            }
        }
    }

    /// Reads bank `bank`'s latch `latch`, optionally through the channel's
    /// activation LUT (the Newton-no-reuse readout path).
    #[must_use]
    pub(crate) fn read_result(&self, bank: usize, latch: usize, through_lut: bool) -> Bf16 {
        let raw = self.macs[bank].result(latch);
        if through_lut {
            self.lut.apply(raw)
        } else {
            raw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bf(v: f32) -> Bf16 {
        Bf16::from_f32(v)
    }

    #[test]
    fn global_buffer_gwrite_fills_subchunks() {
        let mut g = GlobalBuffer::new(512, 16);
        assert_eq!(g.subchunks(), 32);
        assert_eq!(g.elems.len(), 512);
        g.write_subchunk(2, &[bf(1.5); 16]).unwrap();
        assert_eq!(g.subchunk(2), &vec![bf(1.5); 16][..]);
        assert_eq!(g.subchunk(1), &vec![Bf16::ZERO; 16][..]);
    }

    #[test]
    fn partial_gwrite_zero_fills_tail() {
        let mut g = GlobalBuffer::new(64, 16);
        g.write_subchunk(0, &[bf(2.0); 16]).unwrap();
        g.write_subchunk(0, &[bf(3.0); 5]).unwrap();
        let s = g.subchunk(0);
        assert!(s[..5].iter().all(|&x| x == bf(3.0)));
        assert!(s[5..].iter().all(|&x| x == Bf16::ZERO));
    }

    #[test]
    fn global_buffer_rejects_bad_writes() {
        let mut g = GlobalBuffer::new(64, 16);
        assert!(g.write_subchunk(4, &[bf(1.0); 16]).is_err());
        assert!(g.write_subchunk(0, &[bf(1.0); 17]).is_err());
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn global_buffer_rejects_non_dividing_subchunk() {
        let _ = GlobalBuffer::new(100, 16);
    }

    #[test]
    fn mac_unit_accumulates_and_resets() {
        let mut m = MacUnit::new(1, TreePrecision::Wide);
        let w = vec![bf(2.0); 16];
        let v = vec![bf(0.5); 16];
        m.comp(0, &w, &v);
        m.comp(0, &w, &v);
        assert_eq!(m.result(0).to_f32(), 32.0);
        m.reset();
        assert_eq!(m.result(0), Bf16::ZERO);
    }

    #[test]
    fn four_latch_variant_keeps_independent_accumulators() {
        let mut m = MacUnit::new(4, TreePrecision::Wide);
        for latch in 0..4 {
            m.comp(latch, &[bf(latch as f32 + 1.0); 16], &[bf(1.0); 16]);
        }
        for latch in 0..4 {
            assert_eq!(m.result(latch).to_f32(), 16.0 * (latch as f32 + 1.0));
        }
    }

    #[test]
    fn oversized_subchunk_is_rejected_at_construction() {
        // reduce::MAX_CHUNK bounds the COMP stack scratch: a wider
        // sub-chunk must fail construction, not panic mid-run.
        let err = NewtonDevice::new(2, 512, 128, 1, TreePrecision::Wide, ActivationKind::Relu)
            .unwrap_err();
        assert!(matches!(
            err,
            AimError::Shape {
                what: "device sub-chunk width",
                ..
            }
        ));
        // The boundary width itself is accepted.
        assert!(
            NewtonDevice::new(2, 512, 64, 1, TreePrecision::Wide, ActivationKind::Relu).is_ok()
        );
    }

    #[test]
    fn decoded_comp_path_matches_byte_path() {
        let mk = || {
            NewtonDevice::new(2, 512, 16, 1, TreePrecision::Wide, ActivationKind::Identity).unwrap()
        };
        let weights: Vec<Bf16> = (0..16).map(|i| bf(i as f32 * 0.375 - 2.0)).collect();
        let bytes = newton_bf16::slice::pack(&weights);
        let inputs = [bf(1.5); 16];

        let mut ref_dev = mk();
        ref_dev
            .global_buffer_mut()
            .write_subchunk(0, &inputs)
            .unwrap();
        ref_dev.comp_bank_reference(0, 0, 0, &bytes);

        let mut dec_dev = mk();
        dec_dev
            .global_buffer_mut()
            .write_subchunk(0, &inputs)
            .unwrap();
        dec_dev.comp_bank_decoded(0, 0, 0, &weights);

        let expect: f64 = weights.iter().map(|w| w.to_f64() * 1.5).sum();
        assert_eq!(ref_dev.read_result(0, 0, false).to_f64(), expect);
        assert_eq!(
            dec_dev.read_result(0, 0, false),
            ref_dev.read_result(0, 0, false)
        );
    }

    #[test]
    fn batched_row_set_matches_per_subchunk_comps_in_both_disciplines() {
        // 18 banks: one full gang of 16 plus a second gang of 2.
        const BANKS: usize = 18;
        for precision in [TreePrecision::Wide, TreePrecision::PerStage] {
            let mk = || {
                NewtonDevice::new(BANKS, 512, 16, 1, precision, ActivationKind::Identity).unwrap()
            };
            let n_sub = 5;
            let rows: Vec<Vec<Bf16>> = (0..BANKS)
                .map(|b| {
                    (0..512)
                        .map(|i| bf(((i + 31 * b) as f32 * 0.17) - 6.5))
                        .collect()
                })
                .collect();
            let planes: Vec<LanePlane> = rows.iter().map(|r| LanePlane::from_row(r)).collect();

            let mut step_dev = mk();
            let mut batch_dev = mk();
            for s in 0..n_sub {
                let chunk: Vec<Bf16> = (0..16)
                    .map(|i| bf((s * 16 + i) as f32 * 0.03 - 1.0))
                    .collect();
                step_dev
                    .global_buffer_mut()
                    .write_subchunk(s, &chunk)
                    .unwrap();
                batch_dev
                    .global_buffer_mut()
                    .write_subchunk(s, &chunk)
                    .unwrap();
            }
            let banks: Vec<usize> = (0..BANKS).rev().collect();
            for &b in &banks {
                step_dev.preload_bias(b, 0, bf(b as f32));
                batch_dev.preload_bias(b, 0, bf(b as f32));
                for s in 0..n_sub {
                    step_dev.comp_bank_decoded(b, 0, s, &rows[b][s * 16..(s + 1) * 16]);
                }
            }
            batch_dev.comp_banks_row_simd(&banks, 0, n_sub, |b| &planes[b]);

            for b in 0..BANKS {
                assert_eq!(
                    batch_dev.read_result(b, 0, false).to_bits(),
                    step_dev.read_result(b, 0, false).to_bits(),
                    "bank {b} precision {precision:?}"
                );
            }
        }
    }

    #[test]
    fn global_buffer_lane_plane_tracks_writes_exactly() {
        let mut g = GlobalBuffer::new(64, 16);
        g.write_subchunk(1, &[bf(-3.25); 10]).unwrap();
        for i in 0..64 {
            assert_eq!(
                g.lanes.get(i).to_bits(),
                g.subchunk(i / 16)[i % 16].to_f32().to_bits()
            );
        }
        assert_eq!(g.lanes.get(16), -3.25);
        assert_eq!(g.lanes.get(26), 0.0);
        // A non-16 write granularity keeps the plane in row order too.
        let mut g = GlobalBuffer::new(64, 32);
        g.write_subchunk(1, &[bf(2.0); 20]).unwrap();
        for i in 0..64 {
            let expect = if (32..52).contains(&i) { 2.0 } else { 0.0 };
            assert_eq!(g.lanes.get(i), expect, "element {i}");
        }
    }

    #[test]
    fn device_comp_bank_reads_bytes_and_uses_global_buffer() {
        let mut dev =
            NewtonDevice::new(2, 512, 16, 1, TreePrecision::Wide, ActivationKind::Relu).unwrap();
        dev.global_buffer_mut()
            .write_subchunk(0, &[bf(2.0); 16])
            .unwrap();
        let weights = newton_bf16::slice::pack(&[bf(-1.0); 16]);
        dev.comp_bank_reference(1, 0, 0, &weights);
        assert_eq!(dev.read_result(1, 0, false).to_f32(), -32.0);
        // Through the ReLU LUT the negative result clamps to zero.
        assert_eq!(dev.read_result(1, 0, true), Bf16::ZERO);
        // Bank 0 untouched.
        assert_eq!(dev.read_result(0, 0, false), Bf16::ZERO);
    }
}
