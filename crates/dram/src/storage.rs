//! Functional row storage: the actual bytes behind every (bank, row).
//!
//! Rows are lazily allocated (an untouched HBM2E channel is 512 MiB; a
//! typical Newton workload touches only the rows holding its matrix).
//! Reads of never-written rows return zeros, matching a simulator-reset
//! device.
//!
//! With ECC enabled (see [`Storage::enable_ecc`]), every 64-bit word of a
//! row carries a SECDED (72,64) check byte (see [`crate::ecc`]):
//! legitimate writes ([`write_row`](Storage::write_row),
//! [`write_column`](Storage::write_column)) encode, while
//! [`flip_bit`](Storage::flip_bit) and stuck-at cells deliberately do
//! *not* — they are the fault primitives whose damage the scrub paths
//! ([`scrub_row`](Storage::scrub_row),
//! [`check_column`](Storage::check_column)) must catch.
//!
//! A row also carries a *verified* flag ([`row_verified`](Storage::row_verified)):
//! a full-row scrub that corrects nothing sets it, and every change to a
//! stored byte or a check byte clears it. While it is set, a scrub of
//! the row would find nothing, so a caller may skip one.

use std::collections::BTreeMap;

use crate::config::DramConfig;
use crate::ecc::{self, Secded, WORD_BYTES};
use crate::error::DramError;

/// A materialized row: its bytes plus a generation counter that is bumped
/// on every mutation, letting derived caches (e.g. the decoded-weight cache
/// in `newton-core`) detect staleness without hashing the contents.
#[derive(Debug, Clone)]
struct RowSlot {
    data: Box<[u8]>,
    generation: u64,
    /// The last full-row scrub corrected nothing and no stored or check
    /// byte changed since. Kept beside `generation`, which the COMP after
    /// the activation that reads this flag reads from the same slot.
    verified: bool,
    /// SECDED check bytes, one per 64-bit word; present iff ECC is on.
    check: Option<Box<[u8]>>,
}

/// A persistent cell defect: the bit at `bit` always reads as `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StuckBit {
    bit: usize,
    value: bool,
}

/// Per-channel functional storage, indexed by bank and row.
///
/// Each bank's row vector grows on first write past its current length
/// (never beyond `rows_per_bank`), so constructing a channel costs O(banks)
/// rather than O(banks x rows): an untouched HBM2E bank directory would
/// otherwise be ~1.3 MB of `None`s per bank, paid on every system
/// construction in benchmark loops.
#[derive(Debug)]
pub struct Storage {
    banks: Vec<Vec<Option<RowSlot>>>,
    /// Addressable rows per bank (the bound for address validation; the
    /// per-bank vectors materialize lazily up to this).
    rows_per_bank: usize,
    row_bytes: usize,
    col_bytes: usize,
    cols_per_row: usize,
    /// Shared read-only zero row for never-written rows.
    zero_row: Box<[u8]>,
    /// Monotonic counter handing out fresh generations across all rows, so
    /// a row rewritten after a cache snapshot never reuses an old value.
    next_generation: u64,
    /// Whether rows carry SECDED check bytes.
    ecc: bool,
    /// Persistent stuck-at cells, re-asserted after every legitimate write
    /// (a rewrite cannot heal broken silicon). Keyed `(bank, row)` in a
    /// `BTreeMap` so iteration (and `Debug`) order is deterministic.
    stuck: BTreeMap<(usize, usize), Vec<StuckBit>>,
}

impl Storage {
    /// Creates empty (all-zero) storage for the given geometry.
    #[must_use]
    pub fn new(config: &DramConfig) -> Storage {
        Storage {
            banks: (0..config.banks).map(|_| Vec::new()).collect(),
            rows_per_bank: config.rows_per_bank,
            row_bytes: config.row_bytes(),
            col_bytes: config.col_bytes(),
            cols_per_row: config.cols_per_row,
            zero_row: vec![0u8; config.row_bytes()].into_boxed_slice(),
            next_generation: 0,
            ecc: false,
            stuck: BTreeMap::new(),
        }
    }

    /// Bytes per row.
    #[must_use]
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// Enables the SECDED (72,64) ECC model: every already-allocated row
    /// is encoded now, and every subsequent legitimate write keeps its
    /// check bytes current. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not word-aligned (row and column sizes
    /// must be multiples of 8 bytes; every built-in preset is).
    pub fn enable_ecc(&mut self) {
        assert!(
            self.row_bytes.is_multiple_of(WORD_BYTES) && self.col_bytes.is_multiple_of(WORD_BYTES),
            "SECDED model requires 8-byte-aligned rows and columns"
        );
        if self.ecc {
            return;
        }
        self.ecc = true;
        for bank in &mut self.banks {
            for slot in bank.iter_mut().flatten() {
                slot.check = Some(encode_checks(&slot.data));
            }
        }
    }

    /// Whether the ECC model is enabled.
    #[must_use]
    pub fn ecc_enabled(&self) -> bool {
        self.ecc
    }

    fn bump_generation(&mut self) -> u64 {
        self.next_generation += 1;
        self.next_generation
    }

    fn check_bank_row(&self, bank: usize, row: usize) -> Result<(), DramError> {
        if bank >= self.banks.len() {
            return Err(DramError::AddressOutOfRange {
                kind: "bank",
                index: bank,
                limit: self.banks.len(),
            });
        }
        if row >= self.rows_per_bank {
            return Err(DramError::AddressOutOfRange {
                kind: "row",
                index: row,
                limit: self.rows_per_bank,
            });
        }
        Ok(())
    }

    /// The row slot if it has been materialized (in-bounds rows beyond the
    /// lazily-grown vector read as never written).
    fn slot(&self, bank: usize, row: usize) -> Option<&RowSlot> {
        self.banks[bank].get(row).and_then(Option::as_ref)
    }

    /// Reads an entire row (zeros if never written).
    ///
    /// # Errors
    ///
    /// [`DramError::AddressOutOfRange`] for bad indices.
    pub fn row(&self, bank: usize, row: usize) -> Result<&[u8], DramError> {
        self.check_bank_row(bank, row)?;
        Ok(self
            .slot(bank, row)
            .map_or(&self.zero_row, |slot| &slot.data))
    }

    /// Current generation of a (bank, row): `0` for a never-written row,
    /// otherwise a value that strictly increases on every mutation of that
    /// row ([`write_row`](Storage::write_row),
    /// [`write_column`](Storage::write_column),
    /// [`flip_bit`](Storage::flip_bit), ECC scrub corrections). Caches
    /// keyed on (bank, row) stay coherent by re-checking this against
    /// their snapshot.
    ///
    /// # Errors
    ///
    /// [`DramError::AddressOutOfRange`] for bad indices.
    pub fn row_generation(&self, bank: usize, row: usize) -> Result<u64, DramError> {
        self.check_bank_row(bank, row)?;
        Ok(self.slot(bank, row).map_or(0, |slot| slot.generation))
    }

    /// Whether a scrub of `(bank, row)` is known to find nothing: ECC is
    /// on, and either the row was never written (all zeros is a valid
    /// codeword) or its last full-row [`scrub_row`](Storage::scrub_row)
    /// corrected nothing and no stored or check byte of it changed since.
    /// `false` with ECC off and for out-of-range indices.
    #[inline]
    #[must_use]
    pub fn row_verified(&self, bank: usize, row: usize) -> bool {
        self.ecc
            && bank < self.banks.len()
            && row < self.rows_per_bank
            && self.slot(bank, row).is_none_or(|slot| slot.verified)
    }

    /// Overwrites an entire row. With ECC on, the row is re-encoded;
    /// stuck-at cells then re-assert themselves (a rewrite cannot heal
    /// them, and their damage stays visible to the check bytes).
    ///
    /// # Errors
    ///
    /// [`DramError::AddressOutOfRange`] for bad indices;
    /// [`DramError::StorageSize`] if `data` is not exactly one row.
    pub fn write_row(&mut self, bank: usize, row: usize, data: &[u8]) -> Result<(), DramError> {
        self.check_bank_row(bank, row)?;
        if data.len() != self.row_bytes {
            return Err(DramError::StorageSize {
                expected: self.row_bytes,
                actual: data.len(),
            });
        }
        let generation = self.bump_generation();
        let ecc = self.ecc;
        let rows = &mut self.banks[bank];
        if rows.len() <= row {
            rows.resize_with(row + 1, || None);
        }
        match &mut rows[row] {
            // An existing slot keeps its buffers (a weight reload rewrites
            // the whole matrix; it should not also free and reallocate it).
            Some(slot) => {
                slot.generation = generation;
                slot.verified = false;
                slot.data.copy_from_slice(data);
                if let Some(check) = &mut slot.check {
                    for (w, c) in check.iter_mut().enumerate() {
                        *c = ecc::encode(word_at(data, w));
                    }
                }
            }
            empty => {
                *empty = Some(RowSlot {
                    data: data.into(),
                    generation,
                    verified: false,
                    check: ecc.then(|| encode_checks(data)),
                });
            }
        }
        self.reassert_stuck(bank, row, 0, self.row_bytes);
        Ok(())
    }

    /// Reads one column I/O worth of bytes from a row.
    ///
    /// # Errors
    ///
    /// [`DramError::AddressOutOfRange`] for bad bank/row/column indices.
    pub fn column(&self, bank: usize, row: usize, col: usize) -> Result<&[u8], DramError> {
        if col >= self.cols_per_row {
            return Err(DramError::AddressOutOfRange {
                kind: "column",
                index: col,
                limit: self.cols_per_row,
            });
        }
        let row_data = self.row(bank, row)?;
        let start = col * self.col_bytes;
        Ok(&row_data[start..start + self.col_bytes])
    }

    /// Writes one column I/O worth of bytes into a row, allocating the row
    /// if it was never touched. With ECC on, the covered words are
    /// re-encoded and stuck-at cells in the range re-assert themselves.
    ///
    /// # Errors
    ///
    /// [`DramError::AddressOutOfRange`] for bad indices;
    /// [`DramError::StorageSize`] if `data` is not exactly one column.
    pub fn write_column(
        &mut self,
        bank: usize,
        row: usize,
        col: usize,
        data: &[u8],
    ) -> Result<(), DramError> {
        self.check_bank_row(bank, row)?;
        if col >= self.cols_per_row {
            return Err(DramError::AddressOutOfRange {
                kind: "column",
                index: col,
                limit: self.cols_per_row,
            });
        }
        if data.len() != self.col_bytes {
            return Err(DramError::StorageSize {
                expected: self.col_bytes,
                actual: data.len(),
            });
        }
        let start = col * self.col_bytes;
        let end = start + self.col_bytes;
        let slot = self.slot_mut(bank, row);
        slot.data[start..end].copy_from_slice(data);
        if let Some(check) = &mut slot.check {
            for w in start / WORD_BYTES..end / WORD_BYTES {
                let word = word_at(&slot.data, w);
                check[w] = ecc::encode(word);
            }
        }
        self.reassert_stuck(bank, row, start, end);
        Ok(())
    }

    /// Flips one bit in a stored row — the transient-error injection hook
    /// for studying the paper's Sec. III-E ECC discussion ("only the
    /// matrix resides in the DRAM for long periods of time with the
    /// possibility of collecting transient errors"). Allocates the row if
    /// it was never written (flipping a bit of an all-zero row).
    ///
    /// Deliberately does **not** update check bytes: this models a cell
    /// upset, which the ECC scrub must detect.
    ///
    /// # Errors
    ///
    /// [`DramError::AddressOutOfRange`] for bad bank/row indices or a bit
    /// index beyond the row.
    pub fn flip_bit(&mut self, bank: usize, row: usize, bit: usize) -> Result<(), DramError> {
        self.check_bank_row(bank, row)?;
        if bit >= self.row_bytes * 8 {
            return Err(DramError::AddressOutOfRange {
                kind: "bit",
                index: bit,
                limit: self.row_bytes * 8,
            });
        }
        let slot = self.slot_mut(bank, row);
        slot.data[bit / 8] ^= 1 << (bit % 8);
        Ok(())
    }

    /// Declares the cell at `(bank, row, bit)` permanently stuck at
    /// `value`: the bit is forced now and re-asserted after every
    /// legitimate write to its row (scrub-rewrite cannot heal it). Like
    /// [`flip_bit`](Storage::flip_bit), check bytes are left alone so the
    /// defect stays visible to ECC.
    ///
    /// # Errors
    ///
    /// [`DramError::AddressOutOfRange`] for bad indices.
    pub fn set_stuck(
        &mut self,
        bank: usize,
        row: usize,
        bit: usize,
        value: bool,
    ) -> Result<(), DramError> {
        self.check_bank_row(bank, row)?;
        if bit >= self.row_bytes * 8 {
            return Err(DramError::AddressOutOfRange {
                kind: "bit",
                index: bit,
                limit: self.row_bytes * 8,
            });
        }
        let cells = self.stuck.entry((bank, row)).or_default();
        match cells.iter_mut().find(|c| c.bit == bit) {
            Some(c) => c.value = value,
            None => cells.push(StuckBit { bit, value }),
        }
        let slot = self.slot_mut(bank, row);
        set_bit(&mut slot.data, bit, value);
        Ok(())
    }

    /// Number of declared stuck-at cells.
    #[must_use]
    pub fn stuck_cells(&self) -> usize {
        self.stuck.values().map(Vec::len).sum()
    }

    /// Checks and corrects an entire row against its check bytes (the
    /// row-buffer-fill scrub performed on activation). Returns the number
    /// of corrected single-bit errors; corrections that change data bits
    /// bump the row generation so derived caches re-decode. A scrub that
    /// corrects nothing marks the row verified; one that corrects anything
    /// leaves it unverified until the next clean scrub.
    ///
    /// No-op (`Ok(0)`) when ECC is off or the row was never allocated (an
    /// all-zero row is a valid codeword).
    ///
    /// # Errors
    ///
    /// [`DramError::AddressOutOfRange`] for bad indices;
    /// [`DramError::Uncorrectable`] when any word has a detected
    /// multi-bit error.
    pub fn scrub_row(&mut self, bank: usize, row: usize) -> Result<u32, DramError> {
        let words = self.row_bytes / WORD_BYTES;
        self.scrub_words(bank, row, 0..words, true)
    }

    /// Checks and corrects the words backing one column (the per-fetch
    /// check on reads and COMP operand fetches). Semantics match
    /// [`scrub_row`](Storage::scrub_row) restricted to the column, except
    /// that a clean check never marks the row verified.
    ///
    /// # Errors
    ///
    /// [`DramError::AddressOutOfRange`] for bad indices;
    /// [`DramError::Uncorrectable`] on a detected multi-bit error.
    pub fn check_column(&mut self, bank: usize, row: usize, col: usize) -> Result<u32, DramError> {
        if col >= self.cols_per_row {
            return Err(DramError::AddressOutOfRange {
                kind: "column",
                index: col,
                limit: self.cols_per_row,
            });
        }
        let start = col * self.col_bytes / WORD_BYTES;
        let end = (col + 1) * self.col_bytes / WORD_BYTES;
        self.scrub_words(bank, row, start..end, false)
    }

    fn scrub_words(
        &mut self,
        bank: usize,
        row: usize,
        words: std::ops::Range<usize>,
        full_row: bool,
    ) -> Result<u32, DramError> {
        self.check_bank_row(bank, row)?;
        if !self.ecc {
            return Ok(0);
        }
        let Some(slot) = self.banks[bank].get_mut(row).and_then(Option::as_mut) else {
            return Ok(0);
        };
        let check = slot
            .check
            .as_mut()
            .expect("ECC-enabled rows always carry check bytes");
        let mut corrected = 0u32;
        let mut data_fixed = false;
        for w in words {
            let word = word_at(&slot.data, w);
            match ecc::decode(word, check[w]) {
                Secded::Clean => {}
                Secded::CorrectedData { data, .. } => {
                    slot.data[w * WORD_BYTES..(w + 1) * WORD_BYTES]
                        .copy_from_slice(&data.to_le_bytes());
                    corrected += 1;
                    data_fixed = true;
                }
                Secded::CorrectedCheck { check: fixed } => {
                    check[w] = fixed;
                    corrected += 1;
                }
                Secded::Uncorrectable => {
                    return Err(DramError::Uncorrectable { bank, row });
                }
            }
        }
        if data_fixed {
            self.next_generation += 1;
            slot.generation = self.next_generation;
        }
        if corrected > 0 {
            slot.verified = false;
        } else if full_row {
            slot.verified = true;
        }
        Ok(corrected)
    }

    /// Number of rows that have been materialized (allocated) so far.
    #[must_use]
    pub fn allocated_rows(&self) -> usize {
        self.banks
            .iter()
            .map(|b| b.iter().filter(|r| r.is_some()).count())
            .sum()
    }

    /// Every materialized `(bank, row)` pair, in (bank, row) order — the
    /// deterministic target universe for fault campaigns.
    #[must_use]
    pub fn allocated_row_indices(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (b, bank) in self.banks.iter().enumerate() {
            for (r, slot) in bank.iter().enumerate() {
                if slot.is_some() {
                    out.push((b, r));
                }
            }
        }
        out
    }

    /// The row slot a mutation is about to change: materialized with
    /// zeros (a valid codeword: ECC check bytes of a zero word are zero)
    /// if it was never written, given a fresh generation and marked
    /// unverified.
    fn slot_mut(&mut self, bank: usize, row: usize) -> &mut RowSlot {
        let generation = self.bump_generation();
        let row_bytes = self.row_bytes;
        let ecc = self.ecc;
        if self.banks[bank].len() <= row {
            self.banks[bank].resize_with(row + 1, || None);
        }
        let slot = self.banks[bank][row].get_or_insert_with(|| RowSlot {
            data: vec![0u8; row_bytes].into_boxed_slice(),
            generation,
            verified: false,
            check: ecc.then(|| vec![0u8; row_bytes / WORD_BYTES].into_boxed_slice()),
        });
        slot.generation = generation;
        slot.verified = false;
        slot
    }

    /// Forces every stuck cell of `(bank, row)` whose bit lies in byte
    /// range `[byte_start, byte_end)` back to its stuck value, without
    /// touching check bytes.
    fn reassert_stuck(&mut self, bank: usize, row: usize, byte_start: usize, byte_end: usize) {
        let Some(cells) = self.stuck.get(&(bank, row)) else {
            return;
        };
        // `stuck` and `banks` are disjoint fields; clone the short defect
        // list to keep the borrows simple.
        let cells = cells.clone();
        let Some(slot) = self.banks[bank].get_mut(row).and_then(Option::as_mut) else {
            return;
        };
        for c in &cells {
            if (byte_start * 8..byte_end * 8).contains(&c.bit) {
                set_bit(&mut slot.data, c.bit, c.value);
            }
        }
    }
}

#[inline]
fn word_at(data: &[u8], w: usize) -> u64 {
    u64::from_le_bytes(
        data[w * WORD_BYTES..(w + 1) * WORD_BYTES]
            .try_into()
            .expect("word-aligned row"),
    )
}

#[inline]
fn set_bit(data: &mut [u8], bit: usize, value: bool) {
    if value {
        data[bit / 8] |= 1 << (bit % 8);
    } else {
        data[bit / 8] &= !(1 << (bit % 8));
    }
}

fn encode_checks(data: &[u8]) -> Box<[u8]> {
    (0..data.len() / WORD_BYTES)
        .map(|w| ecc::encode(word_at(data, w)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storage() -> Storage {
        Storage::new(&DramConfig::hbm2e_like())
    }

    #[test]
    fn unwritten_rows_read_as_zero() {
        let s = storage();
        assert!(s.row(3, 100).unwrap().iter().all(|&b| b == 0));
        assert!(s.column(3, 100, 31).unwrap().iter().all(|&b| b == 0));
        assert_eq!(s.allocated_rows(), 0);
    }

    #[test]
    fn row_write_read_roundtrip() {
        let mut s = storage();
        let data: Vec<u8> = (0..1024).map(|i| (i % 256) as u8).collect();
        s.write_row(0, 5, &data).unwrap();
        assert_eq!(s.row(0, 5).unwrap(), &data[..]);
        // Column 2 covers bytes 64..96.
        assert_eq!(s.column(0, 5, 2).unwrap(), &data[64..96]);
        assert_eq!(s.allocated_rows(), 1);
    }

    #[test]
    fn column_write_allocates_and_preserves_rest() {
        let mut s = storage();
        s.write_column(1, 7, 3, &[0xFFu8; 32]).unwrap();
        let row = s.row(1, 7).unwrap();
        assert!(row[..96].iter().all(|&b| b == 0));
        assert!(row[96..128].iter().all(|&b| b == 0xFF));
        assert!(row[128..].iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        let mut s = storage();
        assert!(matches!(
            s.row(16, 0),
            Err(DramError::AddressOutOfRange { kind: "bank", .. })
        ));
        assert!(matches!(
            s.row(0, 32_768),
            Err(DramError::AddressOutOfRange { kind: "row", .. })
        ));
        assert!(matches!(
            s.column(0, 0, 32),
            Err(DramError::AddressOutOfRange { kind: "column", .. })
        ));
        assert!(matches!(
            s.write_column(0, 0, 32, &[0u8; 32]),
            Err(DramError::AddressOutOfRange { kind: "column", .. })
        ));
    }

    #[test]
    fn flip_bit_injects_and_reverts_faults() {
        let mut s = storage();
        s.write_row(0, 3, &vec![0u8; 1024]).unwrap();
        s.flip_bit(0, 3, 17).unwrap();
        assert_eq!(s.row(0, 3).unwrap()[2], 0b10, "bit 17 = byte 2 bit 1");
        // Flipping again restores the original value.
        s.flip_bit(0, 3, 17).unwrap();
        assert!(s.row(0, 3).unwrap().iter().all(|&b| b == 0));
        // Works on never-written rows too.
        s.flip_bit(1, 0, 0).unwrap();
        assert_eq!(s.row(1, 0).unwrap()[0], 1);
        // Bounds.
        assert!(s.flip_bit(0, 3, 1024 * 8).is_err());
        assert!(s.flip_bit(16, 0, 0).is_err());
    }

    #[test]
    fn generations_start_at_zero_and_bump_on_every_mutation() {
        let mut s = storage();
        assert_eq!(s.row_generation(0, 5).unwrap(), 0, "unwritten row");

        s.write_row(0, 5, &vec![0u8; 1024]).unwrap();
        let g1 = s.row_generation(0, 5).unwrap();
        assert!(g1 > 0);

        s.write_column(0, 5, 2, &[0xAAu8; 32]).unwrap();
        let g2 = s.row_generation(0, 5).unwrap();
        assert!(g2 > g1, "write_column must bump the generation");

        s.flip_bit(0, 5, 3).unwrap();
        let g3 = s.row_generation(0, 5).unwrap();
        assert!(g3 > g2, "flip_bit must bump the generation");

        // Other rows are unaffected, and a row first touched later still
        // gets a generation never seen on any row before.
        assert_eq!(s.row_generation(0, 6).unwrap(), 0);
        s.write_column(1, 0, 0, &[0u8; 32]).unwrap();
        assert!(s.row_generation(1, 0).unwrap() > g3);

        // Reads never bump.
        let _ = s.row(0, 5).unwrap();
        let _ = s.column(0, 5, 0).unwrap();
        assert_eq!(s.row_generation(0, 5).unwrap(), g3);

        // Bounds.
        assert!(s.row_generation(16, 0).is_err());
    }

    #[test]
    fn a_row_is_verified_only_by_a_clean_full_row_scrub() {
        let mut s = storage();
        // With ECC off no row is ever verified, scrubbed or not.
        s.write_row(0, 1, &vec![0x3Cu8; 1024]).unwrap();
        assert_eq!(s.scrub_row(0, 1).unwrap(), 0);
        assert!(!s.row_verified(0, 1) && !s.row_verified(0, 2));

        s.enable_ecc();
        // An unallocated row is a valid all-zero codeword.
        assert!(s.row_verified(0, 2));
        assert!(!s.row_verified(16, 0) && !s.row_verified(0, 32_768));
        // Reads and clean column checks do not verify; a clean scrub does.
        let _ = s.row(0, 1).unwrap();
        assert_eq!(s.check_column(0, 1, 0).unwrap(), 0);
        assert!(!s.row_verified(0, 1));
        assert_eq!(s.scrub_row(0, 1).unwrap(), 0);
        assert!(s.row_verified(0, 1));

        // A correcting scrub leaves the row unverified; the next clean
        // one verifies it.
        s.flip_bit(0, 1, 9).unwrap();
        assert!(!s.row_verified(0, 1), "fault injection clears");
        assert_eq!(s.scrub_row(0, 1).unwrap(), 1);
        assert!(!s.row_verified(0, 1), "a correcting scrub does not verify");
        assert_eq!(s.scrub_row(0, 1).unwrap(), 0);
        assert!(s.row_verified(0, 1));

        // Every other mutator clears the flag, on an allocated row and on
        // one it allocates.
        type Mutator = fn(&mut Storage, usize) -> Result<(), DramError>;
        let mutators: [Mutator; 4] = [
            |s, row| s.write_row(0, row, &[0x11u8; 1024]),
            |s, row| s.write_column(0, row, 2, &[0u8; 32]),
            |s, row| s.flip_bit(0, row, 77),
            |s, row| s.set_stuck(0, row, 5, true),
        ];
        for (i, mutate) in mutators.iter().enumerate() {
            s.scrub_row(0, 1).unwrap();
            s.scrub_row(0, 1).unwrap();
            assert!(s.row_verified(0, 1));
            mutate(&mut s, 1).unwrap();
            assert!(!s.row_verified(0, 1), "mutator {i} on a written row");
            let fresh = 10 + i;
            assert!(s.row_verified(0, fresh));
            mutate(&mut s, fresh).unwrap();
            assert!(!s.row_verified(0, fresh), "mutator {i} on a fresh row");
        }
    }

    #[test]
    fn wrong_sizes_are_rejected() {
        let mut s = storage();
        assert!(matches!(
            s.write_row(0, 0, &[0u8; 100]),
            Err(DramError::StorageSize {
                expected: 1024,
                actual: 100
            })
        ));
        assert!(matches!(
            s.write_column(0, 0, 0, &[0u8; 31]),
            Err(DramError::StorageSize {
                expected: 32,
                actual: 31
            })
        ));
    }

    #[test]
    fn ecc_scrub_is_a_noop_without_faults_or_when_disabled() {
        let mut s = storage();
        let data: Vec<u8> = (0..1024).map(|i| (i * 13 % 256) as u8).collect();
        s.write_row(0, 1, &data).unwrap();
        // ECC off: scrub never touches anything.
        assert_eq!(s.scrub_row(0, 1).unwrap(), 0);
        s.enable_ecc();
        assert!(s.ecc_enabled());
        // Clean rows (encoded on enable) scrub clean, generation unchanged.
        let g = s.row_generation(0, 1).unwrap();
        assert_eq!(s.scrub_row(0, 1).unwrap(), 0);
        assert_eq!(s.row_generation(0, 1).unwrap(), g);
        // Unallocated rows are implicitly valid zero codewords.
        assert_eq!(s.scrub_row(5, 99).unwrap(), 0);
        assert_eq!(s.check_column(5, 99, 0).unwrap(), 0);
        // enable_ecc is idempotent.
        s.enable_ecc();
        assert_eq!(s.scrub_row(0, 1).unwrap(), 0);
    }

    #[test]
    fn ecc_corrects_single_bit_and_bumps_generation() {
        let mut s = storage();
        s.enable_ecc();
        let data: Vec<u8> = (0..1024).map(|i| (i * 7 % 256) as u8).collect();
        s.write_row(2, 9, &data).unwrap();
        s.flip_bit(2, 9, 1234).unwrap();
        let g_faulty = s.row_generation(2, 9).unwrap();
        assert_ne!(s.row(2, 9).unwrap(), &data[..]);
        assert_eq!(s.scrub_row(2, 9).unwrap(), 1);
        assert_eq!(s.row(2, 9).unwrap(), &data[..], "scrub restored the row");
        assert!(
            s.row_generation(2, 9).unwrap() > g_faulty,
            "correction must invalidate derived caches"
        );
        // Second scrub: clean.
        assert_eq!(s.scrub_row(2, 9).unwrap(), 0);
    }

    #[test]
    fn ecc_check_column_corrects_only_the_covered_words() {
        let mut s = storage();
        s.enable_ecc();
        s.write_row(0, 0, &vec![0x5Au8; 1024]).unwrap();
        // Column 3 covers bytes 96..128 = bits 768..1024.
        s.flip_bit(0, 0, 800).unwrap();
        s.flip_bit(0, 0, 8).unwrap(); // outside column 3
        assert_eq!(s.check_column(0, 0, 3).unwrap(), 1);
        assert_eq!(s.column(0, 0, 3).unwrap(), &[0x5Au8; 32][..]);
        // The out-of-column fault is still there for the row scrub.
        assert_eq!(s.scrub_row(0, 0).unwrap(), 1);
        assert_eq!(s.row(0, 0).unwrap(), &vec![0x5Au8; 1024][..]);
    }

    #[test]
    fn ecc_detects_double_bit_as_uncorrectable() {
        let mut s = storage();
        s.enable_ecc();
        s.write_row(1, 4, &vec![0xC3u8; 1024]).unwrap();
        // Two flips in the same 64-bit word (word 0 = bits 0..64).
        s.flip_bit(1, 4, 3).unwrap();
        s.flip_bit(1, 4, 40).unwrap();
        assert_eq!(
            s.scrub_row(1, 4),
            Err(DramError::Uncorrectable { bank: 1, row: 4 })
        );
        assert_eq!(
            s.check_column(1, 4, 0),
            Err(DramError::Uncorrectable { bank: 1, row: 4 })
        );
        // Flips in *different* words are each corrected.
        let mut s = storage();
        s.enable_ecc();
        s.write_row(1, 4, &vec![0xC3u8; 1024]).unwrap();
        s.flip_bit(1, 4, 3).unwrap();
        s.flip_bit(1, 4, 100).unwrap();
        assert_eq!(s.scrub_row(1, 4).unwrap(), 2);
    }

    #[test]
    fn legitimate_writes_reencode_faulty_rows() {
        let mut s = storage();
        s.enable_ecc();
        let data = vec![0x11u8; 1024];
        s.write_row(0, 7, &data).unwrap();
        s.flip_bit(0, 7, 64).unwrap();
        s.flip_bit(0, 7, 65).unwrap(); // double-bit in word 1
        assert!(s.scrub_row(0, 7).is_err());
        // Host rewrite (the scrub-rewrite path): row is healthy again.
        s.write_row(0, 7, &data).unwrap();
        assert_eq!(s.scrub_row(0, 7).unwrap(), 0);
        // Column writes re-encode their words too.
        s.flip_bit(0, 7, 0).unwrap();
        s.write_column(0, 7, 0, &[0x22u8; 32]).unwrap();
        assert_eq!(s.scrub_row(0, 7).unwrap(), 0);
    }

    #[test]
    fn stuck_cells_survive_rewrites_and_stay_visible_to_ecc() {
        let mut s = storage();
        s.enable_ecc();
        let data = vec![0xFFu8; 1024];
        s.write_row(3, 2, &data).unwrap();
        s.set_stuck(3, 2, 8, false).unwrap();
        assert_eq!(s.stuck_cells(), 1);
        assert_eq!(s.row(3, 2).unwrap()[1], 0xFE, "cell forced low");
        // The scrub sees (and corrects the read value of) the defect...
        assert_eq!(s.scrub_row(3, 2).unwrap(), 1);
        // ...but a rewrite brings it right back.
        s.write_row(3, 2, &data).unwrap();
        assert_eq!(s.row(3, 2).unwrap()[1], 0xFE, "rewrite cannot heal it");
        assert_eq!(s.scrub_row(3, 2).unwrap(), 1);
        // Two stuck cells in one word: permanently uncorrectable.
        s.set_stuck(3, 2, 9, false).unwrap();
        s.write_row(3, 2, &data).unwrap();
        assert_eq!(
            s.scrub_row(3, 2),
            Err(DramError::Uncorrectable { bank: 3, row: 2 })
        );
        // Redeclaring a cell updates it in place.
        s.set_stuck(3, 2, 9, true).unwrap();
        assert_eq!(s.stuck_cells(), 2);
    }

    #[test]
    fn rewriting_a_row_reuses_its_buffer() {
        let mut s = storage();
        s.enable_ecc();
        s.write_row(4, 6, &[0xFFu8; 1024]).unwrap();
        s.set_stuck(4, 6, 8, false).unwrap();
        let at = s.row(4, 6).unwrap().as_ptr();
        let g1 = s.row_generation(4, 6).unwrap();

        s.write_row(4, 6, &[0x77u8; 1024]).unwrap();
        let row = s.row(4, 6).unwrap();
        assert_eq!(row.as_ptr(), at, "an existing slot is overwritten in place");
        assert_eq!((row[0], row[1], row[1023]), (0x77, 0x76, 0x77));
        assert!(
            s.row_generation(4, 6).unwrap() > g1,
            "generation strictly increases"
        );
        // Checks were re-encoded over the new bytes, then the stuck cell
        // reasserted itself: exactly that one defect is visible to ECC.
        assert_eq!(s.scrub_row(4, 6).unwrap(), 1);
    }

    #[test]
    fn allocated_row_indices_are_ordered() {
        let mut s = storage();
        s.write_column(2, 5, 0, &[0u8; 32]).unwrap();
        s.write_column(0, 9, 0, &[0u8; 32]).unwrap();
        s.write_column(2, 1, 0, &[0u8; 32]).unwrap();
        assert_eq!(s.allocated_row_indices(), vec![(0, 9), (2, 1), (2, 5)]);
    }
}
