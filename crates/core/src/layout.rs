//! Matrix-to-DRAM layouts: the chunk-interleaved layout (Sec. III-A,
//! Fig. 3) and the Newton-no-reuse alternative (Sec. III-C).
//!
//! In the **chunk-interleaved** layout, the filter matrix is cut into
//! DRAM-row-wide chunks (512 bf16 elements) and interleaved so that "the
//! first matrix row's first chunk is followed by the second matrix row's
//! first chunk, and so on", continuing to the next bank upon filling a
//! DRAM row, and "the first chunk of all the matrix rows is followed by
//! the second chunk of all the matrix rows". Every DRAM row therefore
//! holds exactly one chunk of one matrix row, and the 16 banks of a
//! channel hold chunks of 16 *different* matrix rows at the same DRAM row
//! index — the unit one `G_ACT`+`COMP` row-set processes.
//!
//! In the **no-reuse** layout, a full matrix row is laid out contiguously
//! in one bank ("occupying contiguous DRAM rows if necessary"), the next
//! matrix row goes to the next bank, wrapping around.

use newton_bf16::{slice, Bf16};
use newton_dram::Channel;

use crate::error::AimError;

/// Which matrix layout is resident in DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// DRAM-row-wide chunk interleaving (full input reuse). The paper's
    /// Newton layout.
    #[default]
    ChunkInterleaved,
    /// Full matrix rows contiguous per bank (Newton-no-reuse).
    NoReuse,
}

/// A placed matrix: shape plus the mapping from matrix coordinates to
/// `(bank, DRAM row, element)` within one channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixMapping {
    layout: Layout,
    /// Matrix rows mapped into this channel.
    m: usize,
    /// Matrix columns (elements per matrix row).
    n: usize,
    /// Logical-to-physical bank map. Entry `l` names the physical bank
    /// serving logical bank `l`; the identity map in the common case, a
    /// shorter non-contiguous map after bank retirement (graceful
    /// degradation spreads the matrix over the surviving banks).
    bank_map: Vec<usize>,
    /// bf16 elements per DRAM row (the chunk width).
    row_elems: usize,
    /// First DRAM row used (lets several matrices coexist per bank).
    base_row: usize,
}

impl MatrixMapping {
    /// Creates a mapping for an `m x n` matrix on a channel with `banks`
    /// banks and `row_elems`-element rows, starting at `base_row`.
    ///
    /// # Errors
    ///
    /// [`AimError::Shape`] for zero dimensions.
    pub fn new(
        layout: Layout,
        m: usize,
        n: usize,
        banks: usize,
        row_elems: usize,
        base_row: usize,
    ) -> Result<MatrixMapping, AimError> {
        MatrixMapping::with_bank_map(layout, m, n, (0..banks).collect(), row_elems, base_row)
    }

    /// Creates a mapping over an explicit set of physical banks: logical
    /// bank `l` lives in physical bank `bank_map[l]`. This is the
    /// degraded-mode constructor — after retiring a bank, the system
    /// rebuilds the mapping over the survivors. The map is strictly
    /// ascending, so every row-set's banks are in ascending order and
    /// each 4-bank activation cluster is one contiguous run of them.
    ///
    /// # Errors
    ///
    /// [`AimError::Shape`] for zero dimensions, an empty bank map, or a
    /// bank map that is not strictly ascending.
    pub fn with_bank_map(
        layout: Layout,
        m: usize,
        n: usize,
        bank_map: Vec<usize>,
        row_elems: usize,
        base_row: usize,
    ) -> Result<MatrixMapping, AimError> {
        if m == 0 || n == 0 {
            return Err(AimError::Shape {
                what: "matrix",
                detail: format!("dimensions must be positive, got {m} x {n}"),
            });
        }
        if bank_map.is_empty() || row_elems == 0 {
            return Err(AimError::Shape {
                what: "channel geometry",
                detail: format!("banks={}, row_elems={row_elems}", bank_map.len()),
            });
        }
        if bank_map.windows(2).any(|w| w[0] >= w[1]) {
            return Err(AimError::Shape {
                what: "bank map",
                detail: format!("physical banks not strictly ascending in {bank_map:?}"),
            });
        }
        Ok(MatrixMapping {
            layout,
            m,
            n,
            bank_map,
            row_elems,
            base_row,
        })
    }

    /// The layout scheme.
    #[must_use]
    pub(crate) fn layout(&self) -> Layout {
        self.layout
    }

    /// Matrix rows in this channel.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Matrix columns.
    #[must_use]
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Logical banks the mapping spreads across (the length of the bank
    /// map; physical-bank count of the channel may be larger after
    /// retirement).
    #[must_use]
    pub(crate) fn banks(&self) -> usize {
        self.bank_map.len()
    }

    /// The physical bank serving logical bank `logical`.
    ///
    /// # Panics
    ///
    /// Panics if `logical >= self.banks()`.
    #[must_use]
    pub(crate) fn physical_bank(&self, logical: usize) -> usize {
        self.bank_map[logical]
    }

    /// bf16 elements per DRAM row (the chunk width).
    #[must_use]
    pub fn row_elems(&self) -> usize {
        self.row_elems
    }

    /// Chunks per matrix row: `ceil(n / row_elems)` (Algorithm 1's
    /// `numChunks`).
    #[must_use]
    pub fn num_chunks(&self) -> usize {
        self.n.div_ceil(self.row_elems)
    }

    /// Row groups: `ceil(m / banks)` (Algorithm 1's `r`, the vertical tile
    /// positions).
    #[must_use]
    pub(crate) fn row_groups(&self) -> usize {
        self.m.div_ceil(self.banks())
    }

    /// DRAM rows needed per bank.
    #[must_use]
    pub fn rows_per_bank(&self) -> usize {
        self.num_chunks() * self.row_groups()
    }

    /// Elements in chunk `c` of a matrix row (the last chunk may be
    /// partial).
    #[must_use]
    pub fn chunk_elems(&self, c: usize) -> usize {
        let start = c * self.row_elems;
        self.n.saturating_sub(start).min(self.row_elems)
    }

    /// Maps matrix element `(i, j)` to `(bank, dram_row, element_index)`.
    ///
    /// # Errors
    ///
    /// [`AimError::Shape`] for out-of-range coordinates.
    pub fn location(&self, i: usize, j: usize) -> Result<(usize, usize, usize), AimError> {
        if i >= self.m || j >= self.n {
            return Err(AimError::Shape {
                what: "matrix coordinate",
                detail: format!("({i}, {j}) outside {} x {}", self.m, self.n),
            });
        }
        let c = j / self.row_elems;
        let w = j % self.row_elems;
        Ok(match self.layout {
            Layout::ChunkInterleaved => {
                let bank = self.bank_map[i % self.banks()];
                let slot = i / self.banks();
                let dram_row = self.base_row + c * self.row_groups() + slot;
                (bank, dram_row, w)
            }
            Layout::NoReuse => {
                let bank = self.bank_map[i % self.banks()];
                let group = i / self.banks();
                let dram_row = self.base_row + group * self.num_chunks() + c;
                (bank, dram_row, w)
            }
        })
    }

    /// The DRAM row that holds chunk `c` of the matrix rows in row-group
    /// `g` (same row index in every active bank, by construction of both
    /// layouts).
    #[must_use]
    pub(crate) fn group_dram_row(&self, g: usize, c: usize) -> usize {
        match self.layout {
            Layout::ChunkInterleaved => self.base_row + c * self.row_groups() + g,
            Layout::NoReuse => self.base_row + g * self.num_chunks() + c,
        }
    }

    /// The matrix row handled by *logical* bank `bank` in row-group `g`,
    /// if any (the last group may leave trailing banks idle — Sec. III-D
    /// issue (3)).
    #[must_use]
    pub(crate) fn matrix_row_for(&self, g: usize, bank: usize) -> Option<usize> {
        let i = g * self.banks() + bank;
        (i < self.m).then_some(i)
    }

    /// Writes the matrix (row-major, `m * n` elements) into the channel's
    /// backing storage according to this mapping. Partial chunks and the
    /// tails of partial row-groups are zero-filled.
    ///
    /// This is a functional (host/DMA) load; the timing of getting the
    /// matrix into memory is not part of any evaluated experiment (the
    /// matrix is resident across inputs).
    ///
    /// # Errors
    ///
    /// [`AimError::Shape`] if `matrix.len() != m * n`;
    /// [`AimError::CapacityExceeded`] if the mapping overflows the bank;
    /// [`AimError::Dram`] on storage failures.
    pub fn load(&self, channel: &mut Channel, matrix: &[Bf16]) -> Result<(), AimError> {
        if matrix.len() != self.m * self.n {
            return Err(AimError::Shape {
                what: "matrix buffer",
                detail: format!(
                    "expected {} elements ({} x {}), got {}",
                    self.m * self.n,
                    self.m,
                    self.n,
                    matrix.len()
                ),
            });
        }
        self.load_strided(channel, matrix, 0, 1)
    }

    /// Writes this channel's rows of a *shared* row-major matrix into the
    /// channel's backing storage: local row `li` is global row
    /// `offset + li * stride`. With `offset = channel_index` and
    /// `stride = channel_count` this scatters a round-robin row
    /// distribution straight from the global matrix — no per-channel
    /// intermediate copy (the old `O(m·n)` staging allocation per channel
    /// per layer load).
    ///
    /// # Errors
    ///
    /// [`AimError::Shape`] if `stride` is zero or the last local row
    /// (`offset + (m - 1) * stride`) lies outside `matrix`;
    /// [`AimError::CapacityExceeded`] if the mapping overflows the bank;
    /// [`AimError::Dram`] on storage failures.
    pub(crate) fn load_strided(
        &self,
        channel: &mut Channel,
        matrix: &[Bf16],
        offset: usize,
        stride: usize,
    ) -> Result<(), AimError> {
        if stride == 0 {
            return Err(AimError::Shape {
                what: "matrix stride",
                detail: "stride must be positive".into(),
            });
        }
        let last = offset + (self.m - 1) * stride;
        if !matrix.len().is_multiple_of(self.n) || last >= matrix.len() / self.n {
            return Err(AimError::Shape {
                what: "strided matrix buffer",
                detail: format!(
                    "{} elements ({} rows of {}) cannot supply local row {} = global row {}",
                    matrix.len(),
                    matrix.len() / self.n,
                    self.n,
                    self.m - 1,
                    last
                ),
            });
        }
        let rows_per_bank = channel.config().rows_per_bank;
        if self.base_row + self.rows_per_bank() > rows_per_bank {
            return Err(AimError::CapacityExceeded {
                required_rows: self.base_row + self.rows_per_bank(),
                available_rows: rows_per_bank,
            });
        }
        let row_bytes = channel.config().row_bytes();
        let mut buf = vec![0u8; row_bytes];
        for li in 0..self.m {
            let gi = offset + li * stride;
            for c in 0..self.num_chunks() {
                let (bank, dram_row, _) = self.location(li, c * self.row_elems)?;
                let len = self.chunk_elems(c);
                let src = &matrix[gi * self.n + c * self.row_elems..][..len];
                buf.fill(0);
                slice::pack_into(src, &mut buf[..len * 2]);
                channel.storage_mut().write_row(bank, dram_row, &buf)?;
            }
        }
        Ok(())
    }

    /// Reads the matrix back out of channel storage (round-trip testing).
    ///
    /// # Errors
    ///
    /// [`AimError::Dram`] on storage failures.
    pub fn extract(&self, channel: &Channel) -> Result<Vec<Bf16>, AimError> {
        let mut out = vec![Bf16::ZERO; self.m * self.n];
        for i in 0..self.m {
            for c in 0..self.num_chunks() {
                let (bank, dram_row, _) = self.location(i, c * self.row_elems)?;
                let len = self.chunk_elems(c);
                let row = channel.storage().row(bank, dram_row)?;
                let vals = slice::unpack(&row[..len * 2]).expect("even byte count");
                out[i * self.n + c * self.row_elems..][..len].copy_from_slice(&vals);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newton_dram::DramConfig;

    fn mapping(layout: Layout, m: usize, n: usize) -> MatrixMapping {
        MatrixMapping::new(layout, m, n, 16, 512, 0).unwrap()
    }

    #[test]
    fn figure_3_interleaving_16_banks() {
        // Fig. 3: 16 banks, 1 KB rows; the first 16 matrix rows' first
        // chunks occupy DRAM row 0 of banks 0..16.
        let map = mapping(Layout::ChunkInterleaved, 32, 1024);
        assert_eq!(map.num_chunks(), 2);
        assert_eq!(map.row_groups(), 2);
        for i in 0..16 {
            let (bank, row, w) = map.location(i, 0).unwrap();
            assert_eq!((bank, row, w), (i, 0, 0));
        }
        // Matrix row 16 wraps to bank 0, next DRAM row.
        assert_eq!(map.location(16, 0).unwrap(), (0, 1, 0));
        // Chunk 1 of all rows follows chunk 0 of all rows.
        assert_eq!(map.location(0, 512).unwrap(), (0, 2, 0));
        assert_eq!(map.location(17, 513).unwrap(), (1, 3, 1));
    }

    #[test]
    fn no_reuse_keeps_matrix_row_in_one_bank() {
        let map = mapping(Layout::NoReuse, 32, 1024);
        // Matrix row 0: both chunks in bank 0, consecutive DRAM rows.
        assert_eq!(map.location(0, 0).unwrap(), (0, 0, 0));
        assert_eq!(map.location(0, 512).unwrap(), (0, 1, 0));
        // Matrix row 1 in bank 1.
        assert_eq!(map.location(1, 0).unwrap(), (1, 0, 0));
        // Matrix row 16 wraps to bank 0, rows 2..4.
        assert_eq!(map.location(16, 0).unwrap(), (0, 2, 0));
        assert_eq!(map.location(16, 1023).unwrap(), (0, 3, 511));
    }

    #[test]
    fn group_dram_row_matches_location() {
        for layout in [Layout::ChunkInterleaved, Layout::NoReuse] {
            let map = mapping(layout, 40, 1200);
            for g in 0..map.row_groups() {
                for c in 0..map.num_chunks() {
                    for bank in 0..16 {
                        if let Some(i) = map.matrix_row_for(g, bank) {
                            let (b, row, _) = map.location(i, c * 512).unwrap();
                            assert_eq!(b, bank);
                            assert_eq!(row, map.group_dram_row(g, c), "{layout:?} g={g} c={c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn last_group_leaves_trailing_banks_idle() {
        let map = mapping(Layout::ChunkInterleaved, 20, 512);
        assert_eq!(map.row_groups(), 2);
        assert_eq!(map.matrix_row_for(1, 3), Some(19));
        assert_eq!(map.matrix_row_for(1, 4), None);
    }

    #[test]
    fn partial_chunk_sizes() {
        let map = mapping(Layout::ChunkInterleaved, 4, 700);
        assert_eq!(map.num_chunks(), 2);
        assert_eq!(map.chunk_elems(0), 512);
        assert_eq!(map.chunk_elems(1), 188);
    }

    #[test]
    fn load_extract_roundtrip_both_layouts() {
        for layout in [Layout::ChunkInterleaved, Layout::NoReuse] {
            let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
            let (m, n) = (21, 700); // deliberately ragged
            let map = MatrixMapping::new(layout, m, n, 16, 512, 5).unwrap();
            let matrix: Vec<Bf16> = (0..m * n)
                .map(|k| Bf16::from_f32(((k % 251) as f32) - 125.0))
                .collect();
            map.load(&mut ch, &matrix).unwrap();
            assert_eq!(map.extract(&ch).unwrap(), matrix, "{layout:?}");
            // base_row honored: row 0 of bank 0 untouched.
            assert!(ch.storage().row(0, 0).unwrap().iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn strided_load_matches_staged_copy() {
        // A 3-channel round-robin distribution of a ragged global matrix:
        // loading channel 1's rows via stride must leave storage identical
        // to staging the rows into a contiguous copy first.
        let (m, n, channels) = (11, 700, 3);
        let global: Vec<Bf16> = (0..m * n)
            .map(|k| Bf16::from_f32(((k % 113) as f32) - 56.0))
            .collect();
        for layout in [Layout::ChunkInterleaved, Layout::NoReuse] {
            for ch in 0..channels {
                let local_m = m / channels + usize::from(m % channels > ch);
                let map = MatrixMapping::new(layout, local_m, n, 16, 512, 2).unwrap();
                let staged: Vec<Bf16> = (0..local_m)
                    .flat_map(|li| {
                        let gi = li * channels + ch;
                        global[gi * n..(gi + 1) * n].to_vec()
                    })
                    .collect();
                let mut a = Channel::new(DramConfig::hbm2e_like()).unwrap();
                let mut b = Channel::new(DramConfig::hbm2e_like()).unwrap();
                map.load(&mut a, &staged).unwrap();
                map.load_strided(&mut b, &global, ch, channels).unwrap();
                assert_eq!(
                    map.extract(&a).unwrap(),
                    map.extract(&b).unwrap(),
                    "{layout:?} ch={ch}"
                );
            }
        }
    }

    #[test]
    fn strided_load_rejects_bad_geometry() {
        let map = mapping(Layout::ChunkInterleaved, 4, 512);
        let global = vec![Bf16::ONE; 10 * 512];
        let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
        // stride 0 is meaningless.
        assert!(map.load_strided(&mut ch, &global, 0, 0).is_err());
        // last local row (3) at stride 3 from offset 2 = global row 11 > 9.
        assert!(map.load_strided(&mut ch, &global, 2, 3).is_err());
        // ragged buffer (not a whole number of rows).
        assert!(map.load_strided(&mut ch, &global[..513], 0, 1).is_err());
        // in-range stride works.
        map.load_strided(&mut ch, &global, 1, 2).unwrap();
    }

    #[test]
    fn shape_errors() {
        assert!(MatrixMapping::new(Layout::ChunkInterleaved, 0, 5, 16, 512, 0).is_err());
        assert!(MatrixMapping::new(Layout::ChunkInterleaved, 5, 0, 16, 512, 0).is_err());
        let map = mapping(Layout::ChunkInterleaved, 4, 512);
        assert!(map.location(4, 0).is_err());
        assert!(map.location(0, 512).is_err());
        let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
        assert!(map.load(&mut ch, &[Bf16::ZERO; 3]).is_err());
    }

    #[test]
    fn bank_map_remaps_around_retired_banks() {
        // 15 surviving banks after retiring physical bank 3.
        let survivors: Vec<usize> = (0..16).filter(|&b| b != 3).collect();
        let map =
            MatrixMapping::with_bank_map(Layout::ChunkInterleaved, 30, 512, survivors, 512, 0)
                .unwrap();
        assert_eq!(map.banks(), 15);
        assert_eq!(map.physical_bank(2), 2);
        assert_eq!(map.physical_bank(3), 4, "map skips the retired bank");
        assert_eq!(map.row_groups(), 2);
        for i in 0..30 {
            let (bank, _, _) = map.location(i, 0).unwrap();
            assert_ne!(bank, 3, "no element may land in the retired bank");
        }
        // Functional load/extract still round-trips over the survivors.
        let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
        let matrix: Vec<Bf16> = (0..30 * 512)
            .map(|k| Bf16::from_f32((k % 97) as f32))
            .collect();
        map.load(&mut ch, &matrix).unwrap();
        assert_eq!(map.extract(&ch).unwrap(), matrix);
        assert!(ch.storage().row(3, 0).unwrap().iter().all(|&b| b == 0));
        // Degenerate maps rejected.
        for bad in [vec![0, 1, 1], vec![0, 2, 1]] {
            let map = MatrixMapping::with_bank_map(Layout::ChunkInterleaved, 4, 512, bad, 512, 0);
            assert!(map.is_err());
        }
        let empty = MatrixMapping::with_bank_map(Layout::ChunkInterleaved, 4, 512, vec![], 512, 0);
        assert!(empty.is_err());
    }

    #[test]
    fn capacity_overflow_detected() {
        let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
        let map = MatrixMapping::new(Layout::ChunkInterleaved, 16, 512, 16, 512, 32_767).unwrap();
        // Needs base_row + 1 = 32768 rows: exactly fits.
        let matrix = vec![Bf16::ONE; 16 * 512];
        map.load(&mut ch, &matrix).unwrap();
        let map = MatrixMapping::new(Layout::ChunkInterleaved, 32, 512, 16, 512, 32_767).unwrap();
        assert!(matches!(
            map.load(&mut ch, &vec![Bf16::ONE; 32 * 512]),
            Err(AimError::CapacityExceeded { .. })
        ));
    }
}
