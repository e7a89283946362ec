//! Functional row storage: the actual bytes behind every (bank, row).
//!
//! **The contract is logical.** A row is `row_bytes` bytes in row order;
//! column `c` is bytes `c * col_bytes..(c + 1) * col_bytes`, bit `k` is
//! bit `k % 8` of byte `k / 8`, and ECC word `w` is bytes `8w..8w + 8`
//! read little-endian. Every accessor takes and returns these positions,
//! so no caller can tell how a row is kept.
//!
//! **The memory is in the MAC lanes' order.** Each row is kept once, as a
//! [`LanePlane`]: byte `p` is the low (`p` even) or high half of bf16
//! element `p / 2`, and each element sits where the COMP kernel reads it
//! (`newton_bf16::simd` is the one place that knows the index math).
//! [`Storage::lanes`] hands a row to the kernel, which folds it in place,
//! as Newton's multipliers compute on the row the sense amplifiers hold
//! (Sec. III-B): no second, decoded copy of a weight exists, so nothing
//! has to be kept coherent with one. The paper's 1 KiB row is exactly one
//! 512-element block of the layout; a row of any other geometry (8-bit
//! columns, a byte count that is odd or not a whole number of blocks) is
//! padded with zeros up to whole blocks, beyond its last logical byte,
//! where no accessor reaches. A row write transposes its bytes into the
//! row once, with sequential stores.
//!
//! Rows are lazily allocated (an untouched HBM2E channel is 512 MiB; a
//! typical Newton workload touches only the rows holding its matrix).
//! Reads of never-written rows return zeros, matching a simulator-reset
//! device.
//!
//! **ECC words stay logical.** With ECC enabled (see
//! [`Storage::enable_ecc`]), every logical 64-bit word of a row carries a
//! SECDED (72,64) check byte (see [`crate::ecc`]), gathered from and
//! corrected into the word's four lanes: legitimate writes
//! ([`write_row`](Storage::write_row),
//! [`write_column`](Storage::write_column)) encode, while
//! [`flip_bit`](Storage::flip_bit) and stuck-at cells deliberately do
//! *not* — they are the fault primitives whose damage the scrub paths
//! (`Storage::scrub_row`, `Storage::check_column`) must catch.
//!
//! A row also carries a *verified* flag ([`row_verified`](Storage::row_verified)):
//! a full-row scrub that corrects nothing sets it, and every change to a
//! stored byte or a check byte clears it. While it is set, a scrub of
//! the row would find nothing, so a caller may skip one.

use std::collections::BTreeMap;

use newton_bf16::simd::LanePlane;

use crate::config::DramConfig;
use crate::ecc::{self, Secded, WORD_BYTES};
use crate::error::DramError;

/// A materialized row: its bytes, in the kernel's lane order.
#[derive(Debug, Clone)]
struct RowSlot {
    data: LanePlane,
    /// The last full-row scrub corrected nothing and no stored or check
    /// byte changed since.
    verified: bool,
    /// SECDED check bytes, one per logical 64-bit word; present iff ECC
    /// is on.
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
    zero_row: LanePlane,
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
            zero_row: LanePlane::zeroed(config.row_bytes().div_ceil(2)),
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
    /// # Errors
    ///
    /// [`DramError::InvalidConfig`] if the geometry is not word-aligned
    /// (row and column sizes must be multiples of 8 bytes; every built-in
    /// preset is). ECC then stays off.
    pub fn enable_ecc(&mut self) -> Result<(), DramError> {
        if !(self.row_bytes.is_multiple_of(WORD_BYTES) && self.col_bytes.is_multiple_of(WORD_BYTES))
        {
            return Err(DramError::InvalidConfig(format!(
                "the SECDED model protects {WORD_BYTES}-byte words: a {}-byte column and a {}-byte row do not hold whole words",
                self.col_bytes, self.row_bytes
            )));
        }
        if self.ecc {
            return Ok(());
        }
        self.ecc = true;
        let words = self.row_bytes / WORD_BYTES;
        for bank in &mut self.banks {
            for slot in bank.iter_mut().flatten() {
                let mut check = vec![0; words].into_boxed_slice();
                encode_words(&slot.data, &mut check, 0..words);
                slot.check = Some(check);
            }
        }
        Ok(())
    }

    /// Whether the ECC model is enabled.
    #[must_use]
    pub(crate) fn ecc_enabled(&self) -> bool {
        self.ecc
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

    fn check_column_index(&self, col: usize) -> Result<(), DramError> {
        if col >= self.cols_per_row {
            return Err(DramError::AddressOutOfRange {
                kind: "column",
                index: col,
                limit: self.cols_per_row,
            });
        }
        Ok(())
    }

    /// The row slot if it has been materialized (in-bounds rows beyond the
    /// lazily-grown vector read as never written).
    fn slot(&self, bank: usize, row: usize) -> Option<&RowSlot> {
        self.banks[bank].get(row).and_then(Option::as_ref)
    }

    /// The row as it is kept: the plane the COMP kernel folds in place
    /// (all zeros if never written). Its bytes past
    /// [`row_bytes`](Storage::row_bytes) are zero padding.
    ///
    /// # Errors
    ///
    /// [`DramError::AddressOutOfRange`] for bad indices.
    pub fn lanes(&self, bank: usize, row: usize) -> Result<&LanePlane, DramError> {
        self.check_bank_row(bank, row)?;
        Ok(self
            .slot(bank, row)
            .map_or(&self.zero_row, |slot| &slot.data))
    }

    /// A copy of an entire row's bytes (zeros if never written).
    ///
    /// # Errors
    ///
    /// [`DramError::AddressOutOfRange`] for bad indices.
    pub fn row(&self, bank: usize, row: usize) -> Result<Vec<u8>, DramError> {
        let mut bytes = vec![0; self.row_bytes];
        self.lanes(bank, row)?.read_le_bytes(0, &mut bytes);
        Ok(bytes)
    }

    /// Whether a scrub of `(bank, row)` is known to find nothing: ECC is
    /// on, and either the row was never written (all zeros is a valid
    /// codeword) or its last full-row scrub (`Storage::scrub_row`)
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
        // An existing slot keeps its buffers (a weight reload rewrites the
        // whole matrix; it should not also free and reallocate it).
        let slot = self.slot_mut(bank, row);
        slot.data.store_le_bytes(data);
        if let Some(check) = &mut slot.check {
            let words = check.len();
            encode_words(&slot.data, check, 0..words);
        }
        self.reassert_stuck(bank, row, 0, self.row_bytes);
        Ok(())
    }

    /// Copies one column I/O worth of bytes from a row into `out`.
    ///
    /// # Errors
    ///
    /// [`DramError::AddressOutOfRange`] for bad bank/row/column indices;
    /// [`DramError::StorageSize`] if `out` is not exactly one column.
    pub fn read_column(
        &self,
        bank: usize,
        row: usize,
        col: usize,
        out: &mut [u8],
    ) -> Result<(), DramError> {
        self.check_column_index(col)?;
        if out.len() != self.col_bytes {
            return Err(DramError::StorageSize {
                expected: self.col_bytes,
                actual: out.len(),
            });
        }
        self.lanes(bank, row)?
            .read_le_bytes(col * self.col_bytes, out);
        Ok(())
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
        self.check_column_index(col)?;
        if data.len() != self.col_bytes {
            return Err(DramError::StorageSize {
                expected: self.col_bytes,
                actual: data.len(),
            });
        }
        let start = col * self.col_bytes;
        let end = start + self.col_bytes;
        let slot = self.slot_mut(bank, row);
        slot.data.write_le_bytes(start, data);
        if let Some(check) = &mut slot.check {
            encode_words(&slot.data, check, start / WORD_BYTES..end / WORD_BYTES);
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
        self.check_bit(bit)?;
        let data = &mut self.slot_mut(bank, row).data;
        let (w, mask) = word_bit(bit);
        data.set_le_word(w, data.le_word(w) ^ mask);
        Ok(())
    }

    fn check_bit(&self, bit: usize) -> Result<(), DramError> {
        if bit >= self.row_bytes * 8 {
            return Err(DramError::AddressOutOfRange {
                kind: "bit",
                index: bit,
                limit: self.row_bytes * 8,
            });
        }
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
        self.check_bit(bit)?;
        let cells = self.stuck.entry((bank, row)).or_default();
        match cells.iter_mut().find(|c| c.bit == bit) {
            Some(c) => c.value = value,
            None => cells.push(StuckBit { bit, value }),
        }
        let slot = self.slot_mut(bank, row);
        set_bit(&mut slot.data, bit, value);
        Ok(())
    }

    /// Checks and corrects an entire row against its check bytes (the
    /// row-buffer-fill scrub performed on activation). Returns the number
    /// of corrected single-bit errors. A scrub that corrects nothing marks
    /// the row verified; one that corrects anything leaves it unverified
    /// until the next clean scrub.
    ///
    /// No-op (`Ok(0)`) when ECC is off or the row was never allocated (an
    /// all-zero row is a valid codeword).
    ///
    /// # Errors
    ///
    /// [`DramError::AddressOutOfRange`] for bad indices;
    /// [`DramError::Uncorrectable`] when any word has a detected
    /// multi-bit error.
    pub(crate) fn scrub_row(&mut self, bank: usize, row: usize) -> Result<u32, DramError> {
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
    pub(crate) fn check_column(
        &mut self,
        bank: usize,
        row: usize,
        col: usize,
    ) -> Result<u32, DramError> {
        self.check_column_index(col)?;
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
        for w in words {
            match ecc::decode(slot.data.le_word(w), check[w]) {
                Secded::Clean => {}
                Secded::CorrectedData { data, .. } => {
                    slot.data.set_le_word(w, data);
                    corrected += 1;
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
        if corrected > 0 {
            slot.verified = false;
        } else if full_row {
            slot.verified = true;
        }
        Ok(corrected)
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
    /// if it was never written, and marked unverified.
    fn slot_mut(&mut self, bank: usize, row: usize) -> &mut RowSlot {
        let words = self.row_bytes / WORD_BYTES;
        let (zero_row, ecc) = (&self.zero_row, self.ecc);
        let rows = &mut self.banks[bank];
        if rows.len() <= row {
            rows.resize_with(row + 1, || None);
        }
        let slot = rows[row].get_or_insert_with(|| RowSlot {
            data: zero_row.clone(),
            verified: false,
            check: ecc.then(|| vec![0u8; words].into_boxed_slice()),
        });
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
        let Some(slot) = self.banks[bank].get_mut(row).and_then(Option::as_mut) else {
            return;
        };
        for c in cells {
            if (byte_start * 8..byte_end * 8).contains(&c.bit) {
                set_bit(&mut slot.data, c.bit, c.value);
            }
        }
    }
}

/// The logical 64-bit word holding row bit `bit`, and the bit's mask in it.
#[inline]
fn word_bit(bit: usize) -> (usize, u64) {
    (bit / (8 * WORD_BYTES), 1 << (bit % (8 * WORD_BYTES)))
}

#[inline]
fn set_bit(data: &mut LanePlane, bit: usize, value: bool) {
    let (w, mask) = word_bit(bit);
    let word = data.le_word(w);
    data.set_le_word(w, if value { word | mask } else { word & !mask });
}

/// Re-encodes the check bytes of logical words `words` of `data`.
fn encode_words(data: &LanePlane, check: &mut [u8], words: std::ops::Range<usize>) {
    for w in words {
        check[w] = ecc::encode(data.le_word(w));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newton_bf16::Bf16;

    fn storage() -> Storage {
        Storage::new(&DramConfig::hbm2e_like())
    }

    /// Column `col` of `(bank, row)`, as a read returns it.
    fn column(s: &Storage, bank: usize, row: usize, col: usize) -> Result<Vec<u8>, DramError> {
        let mut out = vec![0; s.col_bytes];
        s.read_column(bank, row, col, &mut out)?;
        Ok(out)
    }

    #[test]
    fn unwritten_rows_read_as_zero() {
        let s = storage();
        assert!(s.row(3, 100).unwrap().iter().all(|&b| b == 0));
        assert!(column(&s, 3, 100, 31).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn row_write_read_roundtrip() {
        let mut s = storage();
        let data: Vec<u8> = (0..1024).map(|i| (i % 256) as u8).collect();
        s.write_row(0, 5, &data).unwrap();
        assert_eq!(s.row(0, 5).unwrap(), &data[..]);
        // Column 2 covers bytes 64..96.
        assert_eq!(column(&s, 0, 5, 2).unwrap(), &data[64..96]);
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
            column(&s, 0, 0, 32),
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

    /// The plane the kernel folds is the row itself: its elements are
    /// the row's little-endian bf16 pairs, and every mutation shows in it
    /// at once, with nothing to invalidate.
    #[test]
    fn the_kernel_reads_the_stored_row() {
        let mut s = storage();
        let elems = |s: &Storage| {
            let mut out = vec![Bf16::ZERO; 512];
            s.lanes(0, 5).unwrap().read(0, &mut out);
            out
        };
        assert!(elems(&s).iter().all(|e| e.to_bits() == 0), "unwritten row");
        let row: Vec<Bf16> = (0..512).map(|i| Bf16::from_f32(i as f32 - 200.0)).collect();
        s.write_row(0, 5, &newton_bf16::slice::pack(&row)).unwrap();
        assert_eq!(elems(&s), row);

        s.write_column(0, 5, 2, &[0xAAu8; 32]).unwrap();
        assert!(elems(&s)[32..48].iter().all(|e| e.to_bits() == 0xAAAA));
        assert_eq!(elems(&s)[48..], row[48..]);
        // Bit 16 * 70 + 15 is the sign of element 70.
        s.flip_bit(0, 5, 16 * 70 + 15).unwrap();
        assert_eq!(elems(&s)[70], -row[70]);
        assert!(s.lanes(16, 0).is_err() && s.lanes(0, 32_768).is_err());
    }

    #[test]
    fn a_row_is_verified_only_by_a_clean_full_row_scrub() {
        let mut s = storage();
        // With ECC off no row is ever verified, scrubbed or not.
        s.write_row(0, 1, &vec![0x3Cu8; 1024]).unwrap();
        assert_eq!(s.scrub_row(0, 1).unwrap(), 0);
        assert!(!s.row_verified(0, 1) && !s.row_verified(0, 2));

        s.enable_ecc().unwrap();
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
        s.enable_ecc().unwrap();
        assert!(s.ecc_enabled());
        // Clean rows (encoded on enable) scrub clean.
        assert_eq!(s.scrub_row(0, 1).unwrap(), 0);
        assert_eq!(s.row(0, 1).unwrap(), data);
        // Unallocated rows are implicitly valid zero codewords.
        assert_eq!(s.scrub_row(5, 99).unwrap(), 0);
        assert_eq!(s.check_column(5, 99, 0).unwrap(), 0);
        // enable_ecc is idempotent.
        s.enable_ecc().unwrap();
        assert_eq!(s.scrub_row(0, 1).unwrap(), 0);
    }

    #[test]
    fn ecc_on_columns_of_part_words_is_a_typed_error() {
        let mut cfg = DramConfig::hbm2e_like();
        cfg.col_io_bits = 32;
        let mut s = Storage::new(&cfg);
        assert!(matches!(s.enable_ecc(), Err(DramError::InvalidConfig(_))));
        assert!(!s.ecc_enabled());
    }

    #[test]
    fn ecc_corrects_single_bit_in_the_stored_row() {
        let mut s = storage();
        s.enable_ecc().unwrap();
        let data: Vec<u8> = (0..1024).map(|i| (i * 7 % 256) as u8).collect();
        s.write_row(2, 9, &data).unwrap();
        s.flip_bit(2, 9, 1234).unwrap();
        assert_ne!(s.row(2, 9).unwrap(), &data[..]);
        assert_eq!(s.scrub_row(2, 9).unwrap(), 1);
        assert_eq!(s.row(2, 9).unwrap(), &data[..], "scrub restored the row");
        let mut elems = vec![Bf16::ZERO; 512];
        s.lanes(2, 9).unwrap().read(0, &mut elems);
        assert_eq!(newton_bf16::slice::pack(&elems), data, "the kernel sees it");
        // Second scrub: clean.
        assert_eq!(s.scrub_row(2, 9).unwrap(), 0);
    }

    #[test]
    fn ecc_check_column_corrects_only_the_covered_words() {
        let mut s = storage();
        s.enable_ecc().unwrap();
        s.write_row(0, 0, &vec![0x5Au8; 1024]).unwrap();
        // Column 3 covers bytes 96..128 = bits 768..1024.
        s.flip_bit(0, 0, 800).unwrap();
        s.flip_bit(0, 0, 8).unwrap(); // outside column 3
        assert_eq!(s.check_column(0, 0, 3).unwrap(), 1);
        assert_eq!(column(&s, 0, 0, 3).unwrap(), &[0x5Au8; 32][..]);
        // The out-of-column fault is still there for the row scrub.
        assert_eq!(s.scrub_row(0, 0).unwrap(), 1);
        assert_eq!(s.row(0, 0).unwrap(), &vec![0x5Au8; 1024][..]);
    }

    #[test]
    fn ecc_detects_double_bit_as_uncorrectable() {
        let mut s = storage();
        s.enable_ecc().unwrap();
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
        s.enable_ecc().unwrap();
        s.write_row(1, 4, &vec![0xC3u8; 1024]).unwrap();
        s.flip_bit(1, 4, 3).unwrap();
        s.flip_bit(1, 4, 100).unwrap();
        assert_eq!(s.scrub_row(1, 4).unwrap(), 2);
    }

    #[test]
    fn legitimate_writes_reencode_faulty_rows() {
        let mut s = storage();
        s.enable_ecc().unwrap();
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
        s.enable_ecc().unwrap();
        let data = vec![0xFFu8; 1024];
        s.write_row(3, 2, &data).unwrap();
        s.set_stuck(3, 2, 8, false).unwrap();
        assert_eq!(s.stuck.values().map(Vec::len).sum::<usize>(), 1);
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
        assert_eq!(s.stuck.values().map(Vec::len).sum::<usize>(), 2);
    }

    #[test]
    fn rewriting_a_row_keeps_its_stuck_cells_and_reencodes() {
        let mut s = storage();
        s.enable_ecc().unwrap();
        s.write_row(4, 6, &[0xFFu8; 1024]).unwrap();
        s.set_stuck(4, 6, 8, false).unwrap();

        s.write_row(4, 6, &[0x77u8; 1024]).unwrap();
        let row = s.row(4, 6).unwrap();
        assert_eq!((row[0], row[1], row[1023]), (0x77, 0x76, 0x77));
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
