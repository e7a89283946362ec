//! The per-channel AiM compute state: global input buffer, per-bank MAC
//! units, and the activation LUT.
//!
//! Per the paper (Sec. III-B, Fig. 4): each bank has 16 multipliers
//! rate-matched to the 256-bit column I/O, a pipelined 16-to-1 adder tree
//! (15 adders) plus one accumulation adder, and a single bf16 result latch.
//! The input vector chunk lives in a DRAM-row-wide *global* buffer shared
//! by the entire channel, broadcast directly into the multiplier inputs
//! "without any further per-bank latching to save area".

use newton_bf16::reduce;
use newton_bf16::simd::{self, LanePlane};
use newton_bf16::Bf16;

use crate::error::AimError;
use crate::lut::{ActivationKind, ActivationLut};

/// The channel-wide, DRAM-row-wide input vector buffer (512 bf16 elements
/// for a 1 KB row), loaded one sub-chunk at a time by `GWRITE#`.
///
/// The elements are kept once, as the lane-major plane the production
/// row-set fold reads in place (the kernel widens each block to `f32`
/// once per gang). The reference engine's per-command COMPs, the fold at
/// sub-chunk widths other than 16, and `COPY_GBBK` read a sub-chunk back
/// out in row order.
#[derive(Debug, Clone)]
pub struct GlobalBuffer {
    lanes: LanePlane,
    subchunk: usize,
    subchunks: usize,
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
            lanes: LanePlane::zeroed(row_elems),
            subchunk,
            subchunks: row_elems / subchunk,
        }
    }

    /// Number of sub-chunk slots (GWRITE commands to fill the buffer).
    #[must_use]
    pub(crate) fn subchunks(&self) -> usize {
        self.subchunks
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
        let mut slot = [Bf16::ZERO; reduce::MAX_CHUNK];
        slot[..data.len()].copy_from_slice(data);
        self.lanes
            .write(index * self.subchunk, &slot[..self.subchunk]);
        Ok(())
    }

    /// The broadcast view of sub-chunk `index` (what every bank's
    /// multipliers receive during a COMP), read into `block`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range (device-internal path; the
    /// controller validates indices) or the sub-chunk is wider than
    /// `block` (`NewtonDevice::new` rejects such a width).
    pub(crate) fn subchunk<'a>(
        &self,
        index: usize,
        block: &'a mut [Bf16; reduce::MAX_CHUNK],
    ) -> &'a [Bf16] {
        let block = &mut block[..self.subchunk];
        self.lanes.read(index * self.subchunk, block);
        block
    }
}

/// One bank's compute unit: 16 multipliers, the pipelined adder tree, and
/// the result latch(es).
///
/// With `latches = 4` this models the Sec. III-C "option in between" that
/// reuses the input across four matrix rows per bank; Newton proper uses a
/// single latch.
#[derive(Debug, Clone)]
pub(crate) struct MacUnit {
    latches: Vec<Bf16>,
}

impl MacUnit {
    /// Creates a unit with `latches` result latches.
    ///
    /// # Panics
    ///
    /// Panics if `latches` is zero.
    #[must_use]
    pub(crate) fn new(latches: usize) -> MacUnit {
        assert!(latches > 0, "a MAC unit needs at least one result latch");
        MacUnit {
            latches: vec![Bf16::ZERO; latches],
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
    /// tree, accumulate, through the scalar oracle `reduce::comp_step`:
    /// the COMP kernel of the `TimingEngine::Reference` engine, and the
    /// production fold's step at sub-chunk widths other than 16.
    ///
    /// # Panics
    ///
    /// Panics if `latch` is out of range or the operand lengths differ
    /// (device-internal invariants; the controller guarantees them).
    fn comp_reference(&mut self, latch: usize, weights: &[Bf16], inputs: &[Bf16]) {
        self.latches[latch] = reduce::comp_step(self.latches[latch], weights, inputs);
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
            macs: (0..banks).map(|_| MacUnit::new(latches)).collect(),
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
    /// sub-chunk bytes (the column of the bank's open row, which the
    /// reference engine reads out of storage once the COMP's column read
    /// has succeeded) are unpacked and multiply-accumulated against
    /// `inputs` (the broadcast global-buffer sub-chunk, read once per
    /// ganged COMP by the caller) into latch `latch`.
    ///
    /// # Panics
    ///
    /// Panics on malformed byte length (must be `2 * subchunk` bytes) —
    /// a wiring bug, not a runtime condition.
    pub(crate) fn comp_bank_reference(
        &mut self,
        bank: usize,
        latch: usize,
        row_bytes: &[u8],
        inputs: &[Bf16],
    ) {
        debug_assert_eq!(row_bytes.len(), 2 * self.subchunk);
        let weights: Vec<Bf16> = row_bytes
            .chunks_exact(2)
            .map(|c| Bf16::from_le_bytes([c[0], c[1]]))
            .collect();
        self.macs[bank].comp_reference(latch, &weights, inputs);
    }

    /// The production COMP of a row-set: for every bank in `banks`, folds
    /// global-buffer sub-chunks `0..n_sub` against the bank's open row
    /// into latch `latch`, bit-exact with one
    /// [`comp_bank_reference`](NewtonDevice::comp_bank_reference) per bank
    /// per sub-chunk in ascending order. `plane_of(bank)` is that row
    /// where the storage keeps it, a lane-major plane.
    ///
    /// At the paper's 16-wide sub-chunks the banks are folded a gang at a
    /// time by [`newton_bf16::simd::comp_row_set`], so their serial latch
    /// chains interleave. Every built-in DRAM family has 256-bit columns;
    /// only test configurations reach another width, and there each
    /// column is read out of the plane and stepped through the oracle's
    /// scalar step. Banks never interact, so any bank order gives the
    /// same result.
    ///
    /// # Errors
    ///
    /// What `plane_of` returns for a bank (a bad address); no bank from
    /// it on is folded.
    ///
    /// # Panics
    ///
    /// Panics if a plane is shorter than `n_sub` sub-chunks.
    pub(crate) fn comp_row_set<'a, E>(
        &mut self,
        banks: &[usize],
        latch: usize,
        n_sub: usize,
        plane_of: impl Fn(usize) -> Result<&'a LanePlane, E>,
    ) -> Result<(), E> {
        if self.subchunk != reduce::TREE_ARITY {
            let width = self.subchunk;
            let mut weights = [Bf16::ZERO; reduce::MAX_CHUNK];
            let mut block = [Bf16::ZERO; reduce::MAX_CHUNK];
            for &bank in banks {
                let plane = plane_of(bank)?;
                for sub in 0..n_sub {
                    plane.read(sub * width, &mut weights[..width]);
                    let inputs = self.global.subchunk(sub, &mut block);
                    self.macs[bank].comp_reference(latch, &weights[..width], inputs);
                }
            }
            return Ok(());
        }
        const GANG_MAX: usize = simd::MULTI_MAX_BANKS;
        let inputs = &self.global.lanes;
        for gang in banks.chunks(GANG_MAX) {
            let mut latches = [Bf16::ZERO; GANG_MAX];
            let mut planes = [inputs; GANG_MAX];
            for ((l, p), &bank) in latches.iter_mut().zip(&mut planes).zip(gang) {
                *l = self.macs[bank].latches[latch];
                *p = plane_of(bank)?;
            }
            simd::comp_row_set(
                &mut latches[..gang.len()],
                &planes[..gang.len()],
                inputs,
                n_sub,
            );
            for (&bank, &l) in gang.iter().zip(&latches) {
                self.macs[bank].latches[latch] = l;
            }
        }
        Ok(())
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

    /// Sub-chunk `index` of `g`, in row order.
    fn sub(g: &GlobalBuffer, index: usize) -> Vec<Bf16> {
        let mut block = [Bf16::ZERO; reduce::MAX_CHUNK];
        g.subchunk(index, &mut block).to_vec()
    }

    /// Element `elem` of `g`'s plane (row order), widened to `f32`.
    fn elem(g: &GlobalBuffer, elem: usize) -> f32 {
        let mut e = [Bf16::ZERO];
        g.lanes.read(elem, &mut e);
        e[0].to_f32()
    }

    /// The lane-major plane of `row`.
    fn plane(row: &[Bf16]) -> LanePlane {
        let mut plane = LanePlane::zeroed(row.len());
        plane.write(0, row);
        plane
    }

    #[test]
    fn global_buffer_gwrite_fills_subchunks() {
        let mut g = GlobalBuffer::new(512, 16);
        assert_eq!(g.subchunks(), 32);
        g.write_subchunk(2, &[bf(1.5); 16]).unwrap();
        assert_eq!(sub(&g, 2), vec![bf(1.5); 16]);
        assert_eq!(sub(&g, 1), vec![Bf16::ZERO; 16]);
    }

    #[test]
    fn partial_gwrite_zero_fills_tail() {
        let mut g = GlobalBuffer::new(64, 16);
        g.write_subchunk(0, &[bf(2.0); 16]).unwrap();
        g.write_subchunk(0, &[bf(3.0); 5]).unwrap();
        let s = sub(&g, 0);
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
        let mut m = MacUnit::new(1);
        let w = vec![bf(2.0); 16];
        let v = vec![bf(0.5); 16];
        m.comp_reference(0, &w, &v);
        m.comp_reference(0, &w, &v);
        assert_eq!(m.result(0).to_f32(), 32.0);
        m.reset();
        assert_eq!(m.result(0), Bf16::ZERO);
    }

    #[test]
    fn four_latch_variant_keeps_independent_accumulators() {
        let mut m = MacUnit::new(4);
        for latch in 0..4 {
            m.comp_reference(latch, &[bf(latch as f32 + 1.0); 16], &[bf(1.0); 16]);
        }
        for latch in 0..4 {
            assert_eq!(m.result(latch).to_f32(), 16.0 * (latch as f32 + 1.0));
        }
    }

    #[test]
    fn oversized_subchunk_is_rejected_at_construction() {
        // reduce::MAX_CHUNK bounds the COMP stack scratch: a wider
        // sub-chunk must fail construction, not panic mid-run.
        let err = NewtonDevice::new(2, 512, 128, 1, ActivationKind::Relu).unwrap_err();
        assert!(matches!(
            err,
            AimError::Shape {
                what: "device sub-chunk width",
                ..
            }
        ));
        // The boundary width itself is accepted.
        assert!(NewtonDevice::new(2, 512, 64, 1, ActivationKind::Relu).is_ok());
    }

    #[test]
    fn row_set_fold_matches_per_subchunk_reference_comps() {
        // 18 banks: one full gang of 16 plus a second gang of 2; the
        // SIMD width and two scalar-step widths.
        const BANKS: usize = 18;
        for width in [16, 4, 32] {
            let mk = || NewtonDevice::new(BANKS, 512, width, 1, ActivationKind::Identity).unwrap();
            let n_sub = 5;
            let rows: Vec<Vec<Bf16>> = (0..BANKS)
                .map(|b| {
                    (0..512)
                        .map(|i| bf(((i + 31 * b) as f32 * 0.17) - 6.5))
                        .collect()
                })
                .collect();
            let planes: Vec<LanePlane> = rows.iter().map(|r| plane(r)).collect();

            let mut step_dev = mk();
            let mut fold_dev = mk();
            for s in 0..n_sub {
                let chunk: Vec<Bf16> = (0..width)
                    .map(|i| bf((s * width + i) as f32 * 0.03 - 1.0))
                    .collect();
                for dev in [&mut step_dev, &mut fold_dev] {
                    dev.global_buffer_mut().write_subchunk(s, &chunk).unwrap();
                }
            }
            let banks: Vec<usize> = (0..BANKS).rev().collect();
            for &b in &banks {
                step_dev.preload_bias(b, 0, bf(b as f32));
                fold_dev.preload_bias(b, 0, bf(b as f32));
                for s in 0..n_sub {
                    let inputs = sub(step_dev.global_buffer(), s);
                    let bytes = newton_bf16::slice::pack(&rows[b][s * width..(s + 1) * width]);
                    step_dev.comp_bank_reference(b, 0, &bytes, &inputs);
                }
            }
            fold_dev
                .comp_row_set(&banks, 0, n_sub, |b| Ok::<_, ()>(&planes[b]))
                .unwrap();

            for b in 0..BANKS {
                assert_eq!(
                    fold_dev.read_result(b, 0, false).to_bits(),
                    step_dev.read_result(b, 0, false).to_bits(),
                    "bank {b} width {width}"
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
                elem(&g, i).to_bits(),
                sub(&g, i / 16)[i % 16].to_f32().to_bits()
            );
        }
        assert_eq!(elem(&g, 16), -3.25);
        assert_eq!(elem(&g, 26), 0.0);
        // A non-16 write granularity keeps the plane in row order too.
        let mut g = GlobalBuffer::new(64, 32);
        g.write_subchunk(1, &[bf(2.0); 20]).unwrap();
        for i in 0..64 {
            let expect = if (32..52).contains(&i) { 2.0 } else { 0.0 };
            assert_eq!(elem(&g, i), expect, "element {i}");
        }
        assert_eq!(sub(&g, 1)[19..21], [bf(2.0), Bf16::ZERO]);
    }

    #[test]
    fn device_comp_bank_reads_bytes_and_uses_global_buffer() {
        let mut dev = NewtonDevice::new(2, 512, 16, 1, ActivationKind::Relu).unwrap();
        dev.global_buffer_mut()
            .write_subchunk(0, &[bf(2.0); 16])
            .unwrap();
        let weights = newton_bf16::slice::pack(&[bf(-1.0); 16]);
        dev.comp_bank_reference(1, 0, &weights, &sub(dev.global_buffer(), 0));
        assert_eq!(dev.read_result(1, 0, false).to_f32(), -32.0);
        // Through the ReLU LUT the negative result clamps to zero.
        assert_eq!(dev.read_result(1, 0, true), Bf16::ZERO);
        // Bank 0 untouched.
        assert_eq!(dev.read_result(0, 0, false), Bf16::ZERO);
    }
}
