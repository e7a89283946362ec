//! Decoded-weight row cache: decode-once for the COMP hot path.
//!
//! Functionally, every COMP re-reads the same matrix row bytes that were
//! written once per layer and re-decodes them from little-endian bf16
//! pairs — pure overhead for the *simulator* (the modeled hardware reads
//! the open row buffer directly). This cache keys pre-decoded rows by
//! (bank, DRAM row) and stays coherent through the storage layer's
//! per-row generation counters ([`Storage::row_generation`]): any
//! `write_row`/`write_column`/`flip_bit` bumps the generation, and the
//! next [`DecodedWeightCache::ensure_row`] re-decodes.
//!
//! The cache only changes how the functional result is computed — the
//! timing model still issues the same column reads, so cycle counts,
//! stats, audit records, and traces are identical with or without it.

use newton_bf16::simd::LanePlane;
use newton_bf16::Bf16;
use newton_dram::Storage;

use crate::error::AimError;

/// One decoded row: the bf16 elements, the same elements as the COMP
/// kernel's lane-major `f32` plane, and the storage generation the decode
/// observed.
#[derive(Debug)]
struct CachedRow {
    generation: u64,
    elems: Box<[Bf16]>,
    lanes: LanePlane,
}

/// Cache of decoded matrix rows indexed directly by (bank, DRAM row).
///
/// Per-bank lanes grow lazily to the highest row touched, so lookup on
/// the COMP hot path is two array indexes — no hashing. Rows are
/// validated against [`Storage::row_generation`] on every
/// [`ensure_row`](DecodedWeightCache::ensure_row), so interleaved host
/// writes or fault injection can never serve stale weights.
#[derive(Debug)]
pub struct DecodedWeightCache {
    banks: Vec<Vec<Option<Box<CachedRow>>>>,
    row_elems: usize,
    decodes: u64,
    hits: u64,
}

impl DecodedWeightCache {
    /// Creates an empty cache for a `banks`-bank channel with
    /// `row_elems`-element rows.
    #[must_use]
    pub fn new(banks: usize, row_elems: usize) -> DecodedWeightCache {
        DecodedWeightCache {
            banks: (0..banks).map(|_| Vec::new()).collect(),
            row_elems,
            decodes: 0,
            hits: 0,
        }
    }

    /// Makes (bank, row) present and current: decodes the row bytes if it
    /// was never cached or its storage generation moved since the cached
    /// decode; otherwise a no-op. A stale row (scrub rewrite, injected
    /// fault) is re-decoded into the buffers it already owns.
    ///
    /// # Errors
    ///
    /// Storage address errors (surfaced, never swallowed).
    pub fn ensure_row(
        &mut self,
        storage: &Storage,
        bank: usize,
        row: usize,
    ) -> Result<(), AimError> {
        // Validates (bank, row) before any lane indexing below.
        let generation = storage.row_generation(bank, row)?;
        let lane = &mut self.banks[bank];
        if lane.len() <= row {
            lane.resize_with(row + 1, || None);
        }
        if let Some(cached) = &lane[row] {
            if cached.generation == generation {
                self.hits += 1;
                return Ok(());
            }
        }
        let bytes = storage.row(bank, row)?;
        let row_elems = self.row_elems;
        let cached = lane[row].get_or_insert_with(|| {
            Box::new(CachedRow {
                generation,
                elems: vec![Bf16::ZERO; row_elems].into_boxed_slice(),
                lanes: LanePlane::zeroed(row_elems),
            })
        });
        cached.generation = generation;
        for (e, c) in cached.elems.iter_mut().zip(bytes.chunks_exact(2)) {
            *e = Bf16::from_le_bytes([c[0], c[1]]);
        }
        cached.lanes.fill(&cached.elems);
        self.decodes += 1;
        Ok(())
    }

    fn cached(&self, bank: usize, row: usize) -> &CachedRow {
        self.banks[bank]
            .get(row)
            .and_then(Option::as_deref)
            .expect("decoded-weight cache: row read before ensure_row")
    }

    /// The decoded bf16 sub-chunk `[sub * width, (sub + 1) * width)` of a
    /// row previously pinned by [`ensure_row`](DecodedWeightCache::ensure_row).
    ///
    /// # Panics
    ///
    /// Panics if the row is not cached or the sub-chunk is out of range —
    /// both are controller wiring bugs, not runtime conditions.
    #[must_use]
    pub fn subchunk(&self, bank: usize, row: usize, sub: usize, width: usize) -> &[Bf16] {
        &self.cached(bank, row).elems[sub * width..(sub + 1) * width]
    }

    /// The whole row as the batched COMP kernel's lane-major plane.
    ///
    /// # Panics
    ///
    /// Panics if the row is not cached (see
    /// [`subchunk`](DecodedWeightCache::subchunk)).
    #[must_use]
    pub fn lanes(&self, bank: usize, row: usize) -> &LanePlane {
        &self.cached(bank, row).lanes
    }

    /// Drops every cached row (e.g. when switching functional modes).
    pub fn clear(&mut self) {
        for lane in &mut self.banks {
            lane.clear();
        }
    }

    /// Number of row decodes performed (cold or invalidated).
    #[must_use]
    pub fn decode_count(&self) -> u64 {
        self.decodes
    }

    /// Number of `ensure_row` calls satisfied without re-decoding.
    #[must_use]
    pub fn hit_count(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn decodes_once_and_hits_until_invalidated() {
        let mut s = storage();
        let row: Vec<Bf16> = (0..512).map(|i| bf(i as f32 / 16.0)).collect();
        s.write_row(2, 9, &newton_bf16::slice::pack(&row)).unwrap();

        let mut cache = DecodedWeightCache::new(banks(), 512);
        cache.ensure_row(&s, 2, 9).unwrap();
        cache.ensure_row(&s, 2, 9).unwrap();
        assert_eq!(cache.decode_count(), 1);
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(cache.subchunk(2, 9, 1, 16), &row[16..32]);
        assert_eq!(cache.lanes(2, 9).get(3), row[3].to_f32());
        let (elems_at, lanes_at) = (
            cache.subchunk(2, 9, 0, 16).as_ptr(),
            std::ptr::from_ref(cache.lanes(2, 9)),
        );

        // write_column bumps the generation -> re-decode with fresh data.
        s.write_column(2, 9, 0, &newton_bf16::slice::pack(&[bf(-7.0); 16]))
            .unwrap();
        cache.ensure_row(&s, 2, 9).unwrap();
        assert_eq!(cache.decode_count(), 2);
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(cache.subchunk(2, 9, 0, 16), &[bf(-7.0); 16][..]);
        assert_eq!(cache.lanes(2, 9).get(15), -7.0);
        // A stale row is re-decoded where it lies: no fresh boxes.
        assert_eq!(cache.subchunk(2, 9, 0, 16).as_ptr(), elems_at);
        assert_eq!(std::ptr::from_ref(cache.lanes(2, 9)), lanes_at);
        // Untouched tail of the row survives the partial overwrite.
        assert_eq!(cache.subchunk(2, 9, 1, 16), &row[16..32]);

        // flip_bit also invalidates.
        s.flip_bit(2, 9, 0).unwrap();
        cache.ensure_row(&s, 2, 9).unwrap();
        assert_eq!(cache.decode_count(), 3);
    }

    #[test]
    fn unwritten_rows_decode_as_zero_and_cache_at_generation_zero() {
        let s = storage();
        let mut cache = DecodedWeightCache::new(banks(), 512);
        cache.ensure_row(&s, 0, 0).unwrap();
        cache.ensure_row(&s, 0, 0).unwrap();
        assert_eq!(cache.decode_count(), 1);
        assert!(cache.subchunk(0, 0, 0, 16).iter().all(|&w| w == Bf16::ZERO));
    }

    #[test]
    fn clear_forces_re_decode() {
        let s = storage();
        let mut cache = DecodedWeightCache::new(banks(), 512);
        cache.ensure_row(&s, 0, 0).unwrap();
        cache.clear();
        cache.ensure_row(&s, 0, 0).unwrap();
        assert_eq!(cache.decode_count(), 2);
    }

    #[test]
    fn bad_addresses_are_surfaced() {
        let s = storage();
        let mut cache = DecodedWeightCache::new(banks(), 512);
        assert!(cache.ensure_row(&s, 99, 0).is_err());
    }
}
