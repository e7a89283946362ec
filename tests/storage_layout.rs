//! Tier-1 check that how `Storage` keeps a row in memory cannot be seen
//! through its contract. A `CounterRng`-driven sequence of row writes,
//! column writes, bit flips, stuck cells, activation scrubs and column
//! checks runs on a channel and, beside it, on a shadow that keeps every
//! row as a plain `Vec<u8>` of logical bytes. After every step each
//! touched row must read back as the shadow's bytes, with the shadow's
//! verified flags and allocated rows, and every scrub and column check
//! must end as the shadow's SECDED model says: a word one bit away from
//! what was last encoded is corrected, a word two bits away is
//! uncorrectable. No step lets a word drift three bits, where SECDED
//! promises nothing.
//!
//! Scrubs and checks go through the channel, the way a run reaches them:
//! an activation scrubs the whole row, and an activation that skips its
//! fill scrub followed by an external read checks just the read column.
//! Each sequence runs with ECC off and with ECC switched on part way, on
//! the paper's 32-column row, on a row that is not a whole number of
//! 16-element sub-chunks, and on a row of 8-bit columns and an odd byte
//! count (where ECC cannot be switched on).

use std::collections::BTreeMap;

use newton_aim::dram::faults::CounterRng;
use newton_aim::dram::{Channel, DramConfig};

/// The sequence touches rows `0..ROWS` of banks `0..BANKS`.
const BANKS: usize = 3;
const ROWS: usize = 3;
const STEPS: u64 = 2_500;

/// One row as the shadow keeps it: the logical bytes, the bytes as of
/// the last encode (what SECDED will restore a one-bit error to), and
/// the verified flag.
#[derive(Clone)]
struct ShadowRow {
    bytes: Vec<u8>,
    code: Vec<u8>,
    verified: bool,
}

struct Shadow {
    row_bytes: usize,
    col_bytes: usize,
    ecc: bool,
    rows: BTreeMap<(usize, usize), ShadowRow>,
    /// `(bank, row, bit, value)` in declaration order.
    stuck: Vec<(usize, usize, usize, bool)>,
}

fn bit_of(bytes: &[u8], bit: usize) -> bool {
    bytes[bit / 8] >> (bit % 8) & 1 == 1
}

fn set_bit(bytes: &mut [u8], bit: usize, value: bool) {
    if value {
        bytes[bit / 8] |= 1 << (bit % 8);
    } else {
        bytes[bit / 8] &= !(1 << (bit % 8));
    }
}

impl Shadow {
    fn new(cfg: &DramConfig) -> Shadow {
        Shadow {
            row_bytes: cfg.row_bytes(),
            col_bytes: cfg.col_bytes(),
            ecc: false,
            rows: BTreeMap::new(),
            stuck: Vec::new(),
        }
    }

    /// The row a mutation changes: all zeros if never written (a valid
    /// codeword), and no longer verified.
    fn touch(&mut self, bank: usize, row: usize) -> &mut ShadowRow {
        let zero = vec![0u8; self.row_bytes];
        let r = self.rows.entry((bank, row)).or_insert(ShadowRow {
            bytes: zero.clone(),
            code: zero,
            verified: false,
        });
        r.verified = false;
        r
    }

    /// Forces the stuck cells of `(bank, row)` inside bytes `range` back
    /// to their values.
    fn reassert(&mut self, bank: usize, row: usize, range: std::ops::Range<usize>) {
        let cells: Vec<_> = self.stuck.clone();
        let r = self.rows.get_mut(&(bank, row)).expect("written");
        for (b, rw, bit, value) in cells {
            if (b, rw) == (bank, row) && range.contains(&(bit / 8)) {
                set_bit(&mut r.bytes, bit, value);
            }
        }
    }

    fn write_row(&mut self, bank: usize, row: usize, data: &[u8]) {
        let r = self.touch(bank, row);
        r.bytes.copy_from_slice(data);
        r.code.copy_from_slice(data);
        self.reassert(bank, row, 0..self.row_bytes);
    }

    fn write_column(&mut self, bank: usize, row: usize, col: usize, data: &[u8]) {
        let range = col * self.col_bytes..(col + 1) * self.col_bytes;
        let r = self.touch(bank, row);
        r.bytes[range.clone()].copy_from_slice(data);
        r.code[range.clone()].copy_from_slice(data);
        self.reassert(bank, row, range);
    }

    fn flip_bit(&mut self, bank: usize, row: usize, bit: usize) {
        let r = self.touch(bank, row);
        let v = bit_of(&r.bytes, bit);
        set_bit(&mut r.bytes, bit, !v);
    }

    fn set_stuck(&mut self, bank: usize, row: usize, bit: usize, value: bool) {
        match self
            .stuck
            .iter_mut()
            .find(|c| (c.0, c.1, c.2) == (bank, row, bit))
        {
            Some(c) => c.3 = value,
            None => self.stuck.push((bank, row, bit, value)),
        }
        set_bit(&mut self.touch(bank, row).bytes, bit, value);
    }

    fn enable_ecc(&mut self) {
        self.ecc = true;
        for r in self.rows.values_mut() {
            r.code = r.bytes.clone();
        }
    }

    /// Bits by which 64-bit word `w` of `(bank, row)` differs from what
    /// was last encoded there.
    fn distance(&self, bank: usize, row: usize, w: usize) -> u32 {
        self.rows.get(&(bank, row)).map_or(0, |r| {
            (w * 8..((w + 1) * 8).min(self.row_bytes))
                .map(|i| (r.bytes[i] ^ r.code[i]).count_ones())
                .sum()
        })
    }

    /// SECDED over words `words` of `(bank, row)`, in order: returns the
    /// words corrected, or `None` at the first uncorrectable word (the
    /// words before it stay corrected; the channel counts only the
    /// detection).
    fn scrub(
        &mut self,
        bank: usize,
        row: usize,
        words: std::ops::Range<usize>,
        full: bool,
    ) -> Option<u64> {
        if !self.ecc {
            return Some(0);
        }
        let Some(r) = self.rows.get_mut(&(bank, row)) else {
            return Some(0);
        };
        let mut corrected = 0;
        for w in words {
            let span = w * 8..(w + 1) * 8;
            let d: u32 = span
                .clone()
                .map(|i| (r.bytes[i] ^ r.code[i]).count_ones())
                .sum();
            match d {
                0 => {}
                1 => {
                    let code = r.code[span.clone()].to_vec();
                    r.bytes[span].copy_from_slice(&code);
                    corrected += 1;
                }
                2 => return None,
                _ => unreachable!("no step lets a word drift three bits"),
            }
        }
        if corrected > 0 {
            r.verified = false;
        } else if full {
            r.verified = true;
        }
        Some(corrected)
    }

    fn verified(&self, bank: usize, row: usize) -> bool {
        self.ecc && self.rows.get(&(bank, row)).is_none_or(|r| r.verified)
    }

    fn bytes(&self, bank: usize, row: usize) -> Vec<u8> {
        self.rows
            .get(&(bank, row))
            .map_or_else(|| vec![0; self.row_bytes], |r| r.bytes.clone())
    }
}

/// Draws from a `CounterRng` stream in order.
struct Draw {
    rng: CounterRng,
    k: u64,
}

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.k += 1;
        (self.rng.u64_at(self.k) % n as u64) as usize
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.below(256) as u8).collect()
    }
}

fn close(ch: &mut Channel, bank: usize) {
    let at = ch.earliest_precharge(bank);
    ch.issue_precharge(at, bank).expect("precharge");
}

/// An activation of `(bank, row)`, which scrubs the row, then a
/// precharge: the words corrected, or `None` if the scrub hit an
/// uncorrectable word.
fn scrub_row(ch: &mut Channel, bank: usize, row: usize) -> Option<u64> {
    let (corrected, uncorrectable) = (ch.stats().ecc_corrected, ch.stats().ecc_uncorrectable);
    let at = ch.earliest_activate(bank);
    let outcome = ch.issue_activate(at, bank, row);
    close(ch, bank);
    match outcome {
        Ok(_) => Some(ch.stats().ecc_corrected - corrected),
        Err(e) => {
            assert_eq!(ch.stats().ecc_uncorrectable, uncorrectable + 1, "{e:?}");
            None
        }
    }
}

/// An activation of `(bank, row)` without the fill scrub, an external
/// read of column `col`, which checks the column's words, and a
/// precharge: the column's bytes and the words corrected, or `None` on
/// an uncorrectable word.
fn check_column(ch: &mut Channel, bank: usize, row: usize, col: usize) -> Option<(Vec<u8>, u64)> {
    let (corrected, uncorrectable) = (ch.stats().ecc_corrected, ch.stats().ecc_uncorrectable);
    let at = ch.earliest_activate(bank);
    ch.issue_ganged_activate_prescrubbed(at, &[(bank, row)])
        .expect("activate");
    let rd = ch.earliest_column_read(at, bank);
    let outcome = ch.issue_column_read_external(rd, bank, col);
    close(ch, bank);
    match outcome {
        Ok((_, data)) => Some((data, ch.stats().ecc_corrected - corrected)),
        Err(e) => {
            assert_eq!(ch.stats().ecc_uncorrectable, uncorrectable + 1, "{e:?}");
            None
        }
    }
}

/// Runs one sequence on `cfg` and checks the channel against the shadow
/// after every step. With `ecc`, ECC is requested a third of the way in
/// and must come on exactly when the geometry holds whole 64-bit words.
fn run_sequence(cfg: &DramConfig, ecc: bool, seed: u64) {
    let ctx = format!(
        "{} cols x {} bits, ecc {ecc}, seed {seed}",
        cfg.cols_per_row, cfg.col_io_bits
    );
    let mut ch = Channel::new(cfg.clone()).expect("config");
    ch.disable_refresh();
    let mut shadow = Shadow::new(cfg);
    let mut draw = Draw {
        rng: CounterRng::new(seed),
        k: 0,
    };
    let (row_bytes, col_bytes, cols) = (cfg.row_bytes(), cfg.col_bytes(), cfg.cols_per_row);
    // Scrubs, words corrected and uncorrectable detections, over both
    // kinds of check.
    let (mut scrubs, mut corrected, mut uncorrectable) = (0, 0, 0);
    for step in 0..STEPS {
        if ecc && step == STEPS / 3 {
            let on = ch.storage_mut().enable_ecc().is_ok();
            assert_eq!(on, row_bytes % 8 == 0 && col_bytes % 8 == 0, "{ctx}");
            if on {
                shadow.enable_ecc();
            }
        }
        let (bank, row) = (draw.below(BANKS), draw.below(ROWS));
        let storage = ch.storage_mut();
        match draw.below(16) {
            0 | 1 => {
                let data = draw.bytes(row_bytes);
                storage.write_row(bank, row, &data).expect("write_row");
                shadow.write_row(bank, row, &data);
            }
            2..=4 => {
                let (col, data) = (draw.below(cols), draw.bytes(col_bytes));
                storage
                    .write_column(bank, row, col, &data)
                    .expect("write_column");
                shadow.write_column(bank, row, col, &data);
            }
            5..=8 => {
                let bit = draw.below(row_bytes * 8);
                let word = bit / 64;
                let d = shadow.distance(bank, row, word);
                let now = shadow
                    .rows
                    .get(&(bank, row))
                    .is_some_and(|r| bit_of(&r.bytes, bit));
                let was = shadow
                    .rows
                    .get(&(bank, row))
                    .is_some_and(|r| bit_of(&r.code, bit));
                // A flip moves the word one bit nearer or further.
                if d + u32::from(now == was) <= 2 {
                    storage.flip_bit(bank, row, bit).expect("flip_bit");
                    shadow.flip_bit(bank, row, bit);
                }
            }
            9 => {
                let (bit, value) = (draw.below(row_bytes * 8), draw.below(2) == 1);
                let word = bit / 64;
                let in_word =
                    |c: &&(usize, usize, usize, bool)| (c.0, c.1, c.2 / 64) == (bank, row, word);
                let cells = shadow.stuck.iter().filter(in_word).count();
                let known = shadow
                    .stuck
                    .iter()
                    .any(|c| (c.0, c.1, c.2) == (bank, row, bit));
                let now = shadow
                    .rows
                    .get(&(bank, row))
                    .is_some_and(|r| bit_of(&r.bytes, bit));
                let was = shadow
                    .rows
                    .get(&(bank, row))
                    .is_some_and(|r| bit_of(&r.code, bit));
                let d = shadow.distance(bank, row, word) - u32::from(now != was)
                    + u32::from(value != was);
                // At most two stuck cells a word, so a rewrite leaves at
                // most two bits for SECDED to see.
                if (known || cells < 2) && d <= 2 {
                    storage.set_stuck(bank, row, bit, value).expect("set_stuck");
                    shadow.set_stuck(bank, row, bit, value);
                }
            }
            10..=12 => {
                let got = scrub_row(&mut ch, bank, row);
                let words = row_bytes / 8;
                let want = shadow.scrub(bank, row, 0..words, true);
                assert_eq!(got, want, "{ctx}: scrub of ({bank}, {row}) at step {step}");
                scrubs += 1;
                corrected += got.unwrap_or(0);
                uncorrectable += u32::from(got.is_none());
            }
            _ => {
                let col = draw.below(cols);
                let got = check_column(&mut ch, bank, row, col);
                let words = col * col_bytes / 8..(col + 1) * col_bytes / 8;
                let want = shadow.scrub(bank, row, words, false).map(|n| {
                    let bytes = shadow.bytes(bank, row);
                    (bytes[col * col_bytes..(col + 1) * col_bytes].to_vec(), n)
                });
                assert_eq!(
                    got, want,
                    "{ctx}: column {col} of ({bank}, {row}) at step {step}"
                );
                corrected += got.as_ref().map_or(0, |g| g.1);
                uncorrectable += u32::from(got.is_none());
            }
        }
        let storage = ch.storage();
        for b in 0..BANKS {
            for r in 0..ROWS {
                let stored = storage.row(b, r).expect("row").to_vec();
                assert!(
                    stored == shadow.bytes(b, r),
                    "{ctx}: bytes of ({b}, {r}) after step {step}"
                );
                assert_eq!(
                    storage.row_verified(b, r),
                    shadow.verified(b, r),
                    "{ctx}: verified flag of ({b}, {r}) after step {step}"
                );
            }
        }
        let allocated: Vec<_> = shadow.rows.keys().copied().collect();
        assert_eq!(
            storage.allocated_row_indices(),
            allocated,
            "{ctx}: after step {step}"
        );
    }
    assert!(scrubs > STEPS / 8, "{ctx}: {scrubs} scrubs");
    if shadow.ecc {
        assert!(
            corrected > 0 && uncorrectable > 0,
            "{ctx}: {corrected} words corrected, {uncorrectable} uncorrectable"
        );
    }
}

fn geometry(cols_per_row: usize, col_io_bits: usize) -> DramConfig {
    DramConfig {
        cols_per_row,
        col_io_bits,
        ..DramConfig::hbm2e_like()
    }
}

#[test]
fn the_paper_row_layout_is_invisible() {
    for seed in [1, 2] {
        for ecc in [false, true] {
            run_sequence(&DramConfig::hbm2e_like(), ecc, seed);
        }
    }
}

#[test]
fn a_row_of_part_sub_chunks_and_one_of_odd_bytes_keep_the_contract() {
    // 37 columns of 8 bytes: 148 elements, nine 16-element sub-chunks
    // and a part one. 45 columns of one byte: 45 bytes, ECC impossible.
    for cfg in [geometry(37, 64), geometry(45, 8)] {
        for ecc in [false, true] {
            run_sequence(&cfg, ecc, 3);
        }
    }
}
