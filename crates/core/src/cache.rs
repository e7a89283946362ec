//! Decoded-weight row cache: decode-once for resident matrices, a
//! streaming scratch for matrices that are read once.
//!
//! Functionally, every COMP re-reads the same matrix row bytes that were
//! written once per layer and re-decodes them from little-endian bf16
//! pairs — pure overhead for the *simulator* (the modeled hardware reads
//! the open row buffer directly). The COMP kernel wants a whole row as a
//! lane-major [`LanePlane`] (the row's bf16 bits, transposed: 2 bytes an
//! element, like the storage row itself, with the kernel widening to
//! `f32` as it loads); this module decodes storage bytes into one and
//! decides how long it lives ([`Residency`]):
//!
//! * A **resident** matrix is run many times, so its rows are retained,
//!   keyed by (bank, DRAM row), and stay coherent through the storage
//!   layer's per-row generation counters ([`Storage::row_generation`]):
//!   any `write_row`/`write_column`/`flip_bit` bumps the generation, and
//!   the next [`DecodedWeightCache::ensure_row`] re-decodes in place.
//! * A **single-use** matrix (`NewtonSystem::run_mv`: load, run once,
//!   drop — the paper's GEMV has no weight reuse, Sec. I-II) would fill a
//!   retained copy only to overwrite it on the next call. Its rows decode
//!   into one reusable scratch plane per bank and nothing is kept.
//!
//! The plane is the only decoded form. The cache only changes how the
//! functional result is computed — the timing model still issues the same
//! column reads, so cycle counts, stats, audit records, and traces are
//! identical with or without it.

use newton_bf16::simd::LanePlane;
use newton_dram::Storage;

use crate::error::AimError;

/// How long a decoded row is worth keeping: whether the plan that reads it
/// will run again. Decided by the entry point that built the plan, never
/// by a setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// The matrix stays loaded and is run repeatedly: retain decoded rows.
    Resident,
    /// The matrix is loaded, run once and dropped: stream rows through
    /// the per-bank scratch, retain nothing.
    SingleUse,
}

/// One retained row: the COMP kernel's lane-major plane of bf16 bits
/// (as many bytes as the storage row) and the storage generation the
/// decode observed.
#[derive(Debug)]
struct CachedRow {
    generation: u64,
    lanes: LanePlane,
}

/// Decoded matrix rows indexed directly by (bank, DRAM row).
///
/// Per-bank lanes grow lazily to the highest row retained, so lookup on
/// the COMP hot path is two array indexes — no hashing. Rows are
/// validated against [`Storage::row_generation`] on every
/// [`ensure_row`](DecodedWeightCache::ensure_row), so interleaved host
/// writes or fault injection can never serve stale weights.
#[derive(Debug)]
pub struct DecodedWeightCache {
    banks: Vec<Vec<Option<Box<CachedRow>>>>,
    /// Per bank: the streaming plane, and the DRAM row the latest
    /// `ensure_row` decoded into it (`None` when that call pinned a
    /// retained row instead). A scratch decode is only good until the
    /// bank's next `ensure_row`.
    scratch: Vec<(Option<usize>, LanePlane)>,
    row_elems: usize,
    decodes: u64,
    hits: u64,
}

impl DecodedWeightCache {
    /// Creates an empty cache for a `banks`-bank channel with
    /// `row_elems`-element rows. The scratch planes are allocated here;
    /// streaming never allocates afterwards.
    #[must_use]
    pub fn new(banks: usize, row_elems: usize) -> DecodedWeightCache {
        DecodedWeightCache {
            banks: (0..banks).map(|_| Vec::new()).collect(),
            scratch: (0..banks)
                .map(|_| (None, LanePlane::zeroed(row_elems)))
                .collect(),
            row_elems,
            decodes: 0,
            hits: 0,
        }
    }

    /// Makes (bank, row) readable through
    /// [`lanes`](DecodedWeightCache::lanes) until the bank's next
    /// `ensure_row`. A retained row whose generation is current is a hit
    /// under either residency. Otherwise the row bytes are decoded: under
    /// [`Residency::Resident`] into the row's retained plane (allocated on
    /// first touch, re-decoded in place when stale — scrub rewrite,
    /// injected fault); under [`Residency::SingleUse`] into the bank's
    /// scratch, leaving any stale retained copy stale and allocating
    /// nothing.
    ///
    /// # Errors
    ///
    /// Storage address errors (surfaced, never swallowed).
    pub fn ensure_row(
        &mut self,
        storage: &Storage,
        bank: usize,
        row: usize,
        residency: Residency,
    ) -> Result<(), AimError> {
        // Validates (bank, row) before any lane indexing below.
        let generation = storage.row_generation(bank, row)?;
        let lane = &mut self.banks[bank];
        let (streamed, scratch) = &mut self.scratch[bank];
        *streamed = None;
        if let Some(Some(cached)) = lane.get(row) {
            if cached.generation == generation {
                self.hits += 1;
                return Ok(());
            }
        }
        let bytes = storage.row(bank, row)?;
        match residency {
            Residency::Resident => {
                if lane.len() <= row {
                    lane.resize_with(row + 1, || None);
                }
                let row_elems = self.row_elems;
                let cached = lane[row].get_or_insert_with(|| {
                    Box::new(CachedRow {
                        generation,
                        lanes: LanePlane::zeroed(row_elems),
                    })
                });
                cached.generation = generation;
                cached.lanes.fill_le_bytes(bytes);
            }
            Residency::SingleUse => {
                scratch.fill_le_bytes(bytes);
                *streamed = Some(row);
            }
        }
        self.decodes += 1;
        Ok(())
    }

    /// The whole row as the batched COMP kernel's lane-major plane (the
    /// per-sub-chunk paths read their `Bf16` operands back out of it with
    /// [`LanePlane::read`]).
    ///
    /// # Panics
    ///
    /// Panics if (bank, row) is not what the bank's latest
    /// [`ensure_row`](DecodedWeightCache::ensure_row) pinned — a
    /// controller wiring bug, not a runtime condition.
    #[must_use]
    pub fn lanes(&self, bank: usize, row: usize) -> &LanePlane {
        let (streamed, scratch) = &self.scratch[bank];
        if *streamed == Some(row) {
            return scratch;
        }
        &self.banks[bank]
            .get(row)
            .and_then(Option::as_deref)
            .expect("decoded-weight cache: row read before ensure_row")
            .lanes
    }

    /// Drops every decoded row (e.g. after a recovery rewrote them).
    pub(crate) fn clear(&mut self) {
        for lane in &mut self.banks {
            lane.clear();
        }
        for (streamed, _) in &mut self.scratch {
            *streamed = None;
        }
    }

    /// Number of row decodes performed, retained (cold or invalidated) and
    /// streamed alike.
    #[must_use]
    pub fn decode_count(&self) -> u64 {
        self.decodes
    }

    /// Number of `ensure_row` calls satisfied by a current retained row.
    #[must_use]
    pub fn hit_count(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::Residency::{Resident, SingleUse};
    use super::*;
    use newton_bf16::Bf16;
    use newton_dram::DramConfig;

    fn storage() -> Storage {
        Storage::new(&DramConfig::hbm2e_like())
    }

    fn banks() -> usize {
        DramConfig::hbm2e_like().banks
    }

    fn bf(v: f32) -> Bf16 {
        Bf16::from_f32(v)
    }

    /// The `f32` bits of the first `elems` elements of `plane` (row
    /// order), rounded up to whole sub-chunks.
    fn plane_bits(plane: &LanePlane, elems: usize) -> Vec<u32> {
        let mut row = vec![Bf16::ZERO; elems.div_ceil(16) * 16];
        plane.read(0, &mut row);
        row.iter().map(|e| e.to_f32().to_bits()).collect()
    }

    /// Element `elem` of `plane` (row order), widened to `f32`.
    fn elem(plane: &LanePlane, elem: usize) -> f32 {
        let mut e = [Bf16::ZERO];
        plane.read(elem, &mut e);
        e[0].to_f32()
    }

    /// A row of ordinary values with the specials the kernel's rounding
    /// fallback exists for.
    fn special_row(elems: usize) -> Vec<Bf16> {
        let mut row: Vec<Bf16> = (0..elems).map(|i| bf(i as f32 / 16.0 - 9.0)).collect();
        row[3] = Bf16::INFINITY;
        row[17] = Bf16::NAN;
        row[40] = bf(-0.0);
        row[elems - 1] = Bf16::NEG_INFINITY;
        row
    }

    #[test]
    fn retained_rows_decode_once_and_hit_until_invalidated() {
        let mut s = storage();
        let row: Vec<Bf16> = (0..512).map(|i| bf(i as f32 / 16.0)).collect();
        s.write_row(2, 9, &newton_bf16::slice::pack(&row)).unwrap();

        let mut cache = DecodedWeightCache::new(banks(), 512);
        cache.ensure_row(&s, 2, 9, Resident).unwrap();
        cache.ensure_row(&s, 2, 9, Resident).unwrap();
        assert_eq!(cache.decode_count(), 1);
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(elem(cache.lanes(2, 9), 3), row[3].to_f32());
        let lanes_at = std::ptr::from_ref(cache.lanes(2, 9));

        // write_column bumps the generation -> re-decode with fresh data.
        s.write_column(2, 9, 0, &newton_bf16::slice::pack(&[bf(-7.0); 16]))
            .unwrap();
        cache.ensure_row(&s, 2, 9, Resident).unwrap();
        assert_eq!(cache.decode_count(), 2);
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(elem(cache.lanes(2, 9), 15), -7.0);
        // A stale row is re-decoded where it lies: no fresh box.
        assert_eq!(std::ptr::from_ref(cache.lanes(2, 9)), lanes_at);
        // Untouched tail of the row survives the partial overwrite.
        assert_eq!(elem(cache.lanes(2, 9), 16), row[16].to_f32());

        // flip_bit also invalidates.
        s.flip_bit(2, 9, 0).unwrap();
        cache.ensure_row(&s, 2, 9, Resident).unwrap();
        assert_eq!(cache.decode_count(), 3);
    }

    #[test]
    fn streamed_and_retained_decodes_build_identical_planes() {
        // A 512-element row is exactly one lane-major block; 33 columns
        // make a 528-element row whose second block is ragged.
        for cols_per_row in [32, 33] {
            let mut cfg = DramConfig::hbm2e_like();
            cfg.cols_per_row = cols_per_row;
            let elems = cfg.row_bytes() / 2;
            let mut s = Storage::new(&cfg);
            let row = special_row(elems);
            s.write_row(1, 4, &newton_bf16::slice::pack(&row)).unwrap();

            let mut retained = DecodedWeightCache::new(cfg.banks, elems);
            let mut streamed = DecodedWeightCache::new(cfg.banks, elems);
            retained.ensure_row(&s, 1, 4, Resident).unwrap();
            streamed.ensure_row(&s, 1, 4, SingleUse).unwrap();
            let bits = plane_bits(streamed.lanes(1, 4), elems);
            assert_eq!(
                bits,
                plane_bits(retained.lanes(1, 4), elems),
                "{elems} elements"
            );
            let expect: Vec<u32> = row.iter().map(|e| e.to_f32().to_bits()).collect();
            assert_eq!(bits[..elems], expect[..]);
            assert!(bits[elems..].iter().all(|&b| b == 0), "padding is +0.0");
        }
    }

    #[test]
    fn streamed_reads_see_every_kind_of_write_and_count_as_decodes_only() {
        let mut s = storage();
        let mut cache = DecodedWeightCache::new(banks(), 512);
        let fives = newton_bf16::slice::pack(&[bf(5.0); 512]);
        s.write_row(0, 3, &fives).unwrap();
        cache.ensure_row(&s, 0, 3, SingleUse).unwrap();
        assert_eq!(elem(cache.lanes(0, 3), 100), 5.0);

        s.write_row(0, 3, &newton_bf16::slice::pack(&[bf(6.0); 512]))
            .unwrap();
        cache.ensure_row(&s, 0, 3, SingleUse).unwrap();
        assert_eq!(elem(cache.lanes(0, 3), 100), 6.0);

        s.write_column(0, 3, 2, &newton_bf16::slice::pack(&[bf(-1.5); 16]))
            .unwrap();
        cache.ensure_row(&s, 0, 3, SingleUse).unwrap();
        assert_eq!(elem(cache.lanes(0, 3), 32), -1.5);
        assert_eq!(elem(cache.lanes(0, 3), 48), 6.0);

        // Bit 15 of element 0 is its sign.
        s.flip_bit(0, 3, 15).unwrap();
        cache.ensure_row(&s, 0, 3, SingleUse).unwrap();
        assert_eq!(elem(cache.lanes(0, 3), 0), -6.0);

        // Another row through the same bank's scratch replaces the first.
        s.write_row(0, 8, &fives).unwrap();
        cache.ensure_row(&s, 0, 8, SingleUse).unwrap();
        assert_eq!(elem(cache.lanes(0, 8), 0), 5.0);

        // Streaming never hits, not even on unchanged bytes.
        cache.ensure_row(&s, 0, 8, SingleUse).unwrap();
        assert_eq!((cache.decode_count(), cache.hit_count()), (6, 0));
    }

    #[test]
    fn a_stale_retained_row_is_never_served_and_a_current_one_always_is() {
        let mut s = storage();
        let mut cache = DecodedWeightCache::new(banks(), 512);
        s.write_row(5, 1, &newton_bf16::slice::pack(&[bf(1.0); 512]))
            .unwrap();
        cache.ensure_row(&s, 5, 1, Resident).unwrap();
        let retained_at = std::ptr::from_ref(cache.lanes(5, 1));

        // Current retained row: a hit from a single-use plan too, served
        // from the retained plane.
        cache.ensure_row(&s, 5, 1, SingleUse).unwrap();
        assert_eq!((cache.decode_count(), cache.hit_count()), (1, 1));
        assert_eq!(std::ptr::from_ref(cache.lanes(5, 1)), retained_at);

        // Stale retained row: the streamed read decodes the new bytes into
        // the scratch and leaves the retained copy alone...
        s.write_row(5, 1, &newton_bf16::slice::pack(&[bf(2.0); 512]))
            .unwrap();
        cache.ensure_row(&s, 5, 1, SingleUse).unwrap();
        assert_eq!(elem(cache.lanes(5, 1), 7), 2.0);
        assert_ne!(std::ptr::from_ref(cache.lanes(5, 1)), retained_at);
        assert_eq!((cache.decode_count(), cache.hit_count()), (2, 1));

        // ...so the next retained read still sees it stale, re-decodes in
        // place, and then hits; the scratch copy is not consulted again.
        cache.ensure_row(&s, 5, 1, Resident).unwrap();
        assert_eq!(elem(cache.lanes(5, 1), 7), 2.0);
        assert_eq!(std::ptr::from_ref(cache.lanes(5, 1)), retained_at);
        cache.ensure_row(&s, 5, 1, SingleUse).unwrap();
        assert_eq!((cache.decode_count(), cache.hit_count()), (3, 2));
    }

    #[test]
    fn unwritten_rows_decode_as_zero_and_cache_at_generation_zero() {
        let s = storage();
        let mut cache = DecodedWeightCache::new(banks(), 512);
        cache.ensure_row(&s, 0, 0, Resident).unwrap();
        cache.ensure_row(&s, 0, 0, Resident).unwrap();
        assert_eq!(cache.decode_count(), 1);
        assert!(plane_bits(cache.lanes(0, 0), 512).iter().all(|&b| b == 0));
    }

    #[test]
    fn clear_forces_re_decode() {
        let s = storage();
        let mut cache = DecodedWeightCache::new(banks(), 512);
        cache.ensure_row(&s, 0, 0, Resident).unwrap();
        cache.clear();
        cache.ensure_row(&s, 0, 0, Resident).unwrap();
        assert_eq!(cache.decode_count(), 2);
    }

    #[test]
    fn bad_addresses_are_surfaced() {
        let s = storage();
        let mut cache = DecodedWeightCache::new(banks(), 512);
        assert!(cache.ensure_row(&s, 99, 0, Resident).is_err());
        assert!(cache.ensure_row(&s, 99, 0, SingleUse).is_err());
    }
}
