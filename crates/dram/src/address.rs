//! Physical address mapping and super-page allocation.
//!
//! Newton's matrix layout "expects physical address contiguity", which the
//! paper guarantees with super pages (Sec. III-E). This module provides the
//! address decomposition a memory controller performs — physical byte
//! address to `(bank, row, column, offset)` — and a simple super-page
//! allocator that hands out physically contiguous row ranges.

use crate::config::DramConfig;
use crate::error::DramError;

/// How consecutive row-sized blocks of the physical address space map onto
/// banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Interleave {
    /// Consecutive rows rotate across banks (row N of the address space is
    /// row N / banks of bank N % banks). This is the mapping Newton's
    /// chunk-interleaved matrix layout relies on: consecutive 1 KB chunks
    /// land in consecutive banks.
    #[default]
    BankInterleaved,
    /// Each bank's rows are contiguous in the address space (bank 0's rows
    /// first, then bank 1's, ...).
    BankSequential,
}

/// A decoded physical location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Bank index.
    pub bank: usize,
    /// Row within the bank.
    pub row: usize,
    /// Column I/O index within the row.
    pub col: usize,
    /// Byte offset within the column I/O.
    pub offset: usize,
}

/// Maps physical byte addresses to channel coordinates and back.
#[derive(Debug, Clone)]
pub struct AddressMapper {
    row_bytes: usize,
    col_bytes: usize,
    banks: usize,
    rows_per_bank: usize,
    interleave: Interleave,
}

impl AddressMapper {
    /// Creates a mapper for the given geometry and interleave scheme.
    #[must_use]
    pub fn new(config: &DramConfig, interleave: Interleave) -> AddressMapper {
        AddressMapper {
            row_bytes: config.row_bytes(),
            col_bytes: config.col_bytes(),
            banks: config.banks,
            rows_per_bank: config.rows_per_bank,
            interleave,
        }
    }

    /// Total mappable bytes.
    #[must_use]
    pub(crate) fn capacity(&self) -> usize {
        self.banks * self.rows_per_bank * self.row_bytes
    }

    /// Decodes a physical byte address.
    ///
    /// # Errors
    ///
    /// [`DramError::AddressOutOfRange`] when `addr` exceeds capacity.
    pub fn decode(&self, addr: usize) -> Result<Location, DramError> {
        if addr >= self.capacity() {
            return Err(DramError::AddressOutOfRange {
                kind: "physical address",
                index: addr,
                limit: self.capacity(),
            });
        }
        let row_block = addr / self.row_bytes;
        let within = addr % self.row_bytes;
        let (bank, row) = match self.interleave {
            Interleave::BankInterleaved => (row_block % self.banks, row_block / self.banks),
            Interleave::BankSequential => (
                row_block / self.rows_per_bank,
                row_block % self.rows_per_bank,
            ),
        };
        Ok(Location {
            bank,
            row,
            col: within / self.col_bytes,
            offset: within % self.col_bytes,
        })
    }

    /// Encodes channel coordinates back to a physical byte address.
    ///
    /// # Errors
    ///
    /// [`DramError::AddressOutOfRange`] for any out-of-range coordinate.
    pub fn encode(&self, loc: Location) -> Result<usize, DramError> {
        if loc.bank >= self.banks {
            return Err(DramError::AddressOutOfRange {
                kind: "bank",
                index: loc.bank,
                limit: self.banks,
            });
        }
        if loc.row >= self.rows_per_bank {
            return Err(DramError::AddressOutOfRange {
                kind: "row",
                index: loc.row,
                limit: self.rows_per_bank,
            });
        }
        let cols_per_row = self.row_bytes / self.col_bytes;
        if loc.col >= cols_per_row {
            return Err(DramError::AddressOutOfRange {
                kind: "column",
                index: loc.col,
                limit: cols_per_row,
            });
        }
        if loc.offset >= self.col_bytes {
            return Err(DramError::AddressOutOfRange {
                kind: "offset",
                index: loc.offset,
                limit: self.col_bytes,
            });
        }
        let row_block = match self.interleave {
            Interleave::BankInterleaved => loc.row * self.banks + loc.bank,
            Interleave::BankSequential => loc.bank * self.rows_per_bank + loc.row,
        };
        Ok(row_block * self.row_bytes + loc.col * self.col_bytes + loc.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper(il: Interleave) -> AddressMapper {
        AddressMapper::new(&DramConfig::hbm2e_like(), il)
    }

    #[test]
    fn bank_interleaved_rotates_consecutive_rows() {
        let m = mapper(Interleave::BankInterleaved);
        // First 1 KB row block -> bank 0 row 0; next -> bank 1 row 0; ...
        for bank in 0..16 {
            let loc = m.decode(bank * 1024).unwrap();
            assert_eq!((loc.bank, loc.row, loc.col, loc.offset), (bank, 0, 0, 0));
        }
        // The 17th row block wraps to bank 0 row 1.
        let loc = m.decode(16 * 1024).unwrap();
        assert_eq!((loc.bank, loc.row), (0, 1));
    }

    #[test]
    fn bank_sequential_fills_one_bank_first() {
        let m = mapper(Interleave::BankSequential);
        let loc = m.decode(1024).unwrap();
        assert_eq!((loc.bank, loc.row), (0, 1));
        let loc = m.decode(32_768 * 1024).unwrap();
        assert_eq!((loc.bank, loc.row), (1, 0));
    }

    #[test]
    fn decode_encode_roundtrip_both_schemes() {
        for il in [Interleave::BankInterleaved, Interleave::BankSequential] {
            let m = mapper(il);
            for addr in [0usize, 31, 32, 1023, 1024, 123_456, m.capacity() - 1] {
                let loc = m.decode(addr).unwrap();
                assert_eq!(m.encode(loc).unwrap(), addr, "{il:?} addr {addr}");
            }
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let m = mapper(Interleave::BankInterleaved);
        assert!(m.decode(m.capacity()).is_err());
        assert!(m
            .encode(Location {
                bank: 16,
                row: 0,
                col: 0,
                offset: 0
            })
            .is_err());
        assert!(m
            .encode(Location {
                bank: 0,
                row: 40_000,
                col: 0,
                offset: 0
            })
            .is_err());
        assert!(m
            .encode(Location {
                bank: 0,
                row: 0,
                col: 32,
                offset: 0
            })
            .is_err());
        assert!(m
            .encode(Location {
                bank: 0,
                row: 0,
                col: 0,
                offset: 32
            })
            .is_err());
    }

    #[test]
    fn column_and_offset_decode_within_row() {
        let m = mapper(Interleave::BankInterleaved);
        let loc = m.decode(3 * 32 + 7).unwrap();
        assert_eq!((loc.bank, loc.row, loc.col, loc.offset), (0, 0, 3, 7));
    }
}
