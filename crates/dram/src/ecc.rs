//! SECDED (72,64) extended-Hamming code over 64-bit storage words.
//!
//! Newton computes on real DRAM cells, and a DRAM maker ships nothing
//! without an error-correction story: every 64-bit word of a row is
//! protected by 8 check bits — 7 positional Hamming parities plus one
//! overall parity — giving single-error correction and double-error
//! detection (SECDED), the standard on-die ECC geometry for HBM2E-class
//! parts.
//!
//! Construction: the 64 data bits occupy codeword positions `1..=71`
//! skipping the powers of two; parity bit `j` (stored at check-byte bit
//! `j`, codeword position `2^j`) covers every position with bit `j` set.
//! Check-byte bit 7 is the overall parity of the other 71 bits, which is
//! what upgrades plain Hamming SEC to SECDED.
//!
//! Decoding a received `(data, check)` pair:
//!
//! * syndrome 0, overall parity even → clean;
//! * overall parity odd → exactly one bit flipped: the syndrome names its
//!   codeword position (0 = the overall-parity bit itself), so the error
//!   is corrected in data or check;
//! * syndrome ≠ 0 with even overall parity → an even number of flips:
//!   **detected uncorrectable** (reported, never silently miscorrected).

use crate::timing::Cycle;

/// Bytes of data protected by one check byte.
pub(crate) const WORD_BYTES: usize = 8;

/// Codeword position of data bit `i`: the `(i+1)`-th non-power-of-two
/// position in `1..=71`.
const fn data_positions() -> [u8; 64] {
    let mut out = [0u8; 64];
    let mut pos = 1u8;
    let mut i = 0;
    while i < 64 {
        if !pos.is_power_of_two() {
            out[i] = pos;
            i += 1;
        }
        pos += 1;
    }
    out
}

const POSITIONS: [u8; 64] = data_positions();

/// `MASKS[j]`: the data bits whose codeword position has bit `j` set —
/// the coverage mask of parity bit `j`.
const fn parity_masks() -> [u64; 7] {
    let mut masks = [0u64; 7];
    let mut i = 0;
    while i < 64 {
        let pos = POSITIONS[i];
        let mut j = 0;
        while j < 7 {
            if pos & (1 << j) != 0 {
                masks[j] |= 1 << i;
            }
            j += 1;
        }
        i += 1;
    }
    masks
}

const MASKS: [u64; 7] = parity_masks();

/// Data-bit index for codeword position `p`, or `-1` when `p` is a parity
/// position or out of range.
const fn position_to_bit() -> [i8; 128] {
    let mut rev = [-1i8; 128];
    let mut i = 0;
    while i < 64 {
        rev[POSITIONS[i] as usize] = i as i8;
        i += 1;
    }
    rev
}

const REV: [i8; 128] = position_to_bit();

/// Encodes one 64-bit word into its SECDED check byte.
#[inline]
#[must_use]
pub(crate) fn encode(data: u64) -> u8 {
    let mut check = 0u8;
    let mut ones = data.count_ones();
    for (j, mask) in MASKS.iter().enumerate() {
        let p = ((data & mask).count_ones() & 1) as u8;
        check |= p << j;
        ones += u32::from(p);
    }
    // Bit 7: overall parity over the 64 data bits and 7 parity bits, so
    // the full 72-bit codeword always has even parity.
    check | (((ones & 1) as u8) << 7)
}

/// Outcome of decoding one `(data, check)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Secded {
    /// No error.
    Clean,
    /// A single data bit was flipped; `data` is the corrected word.
    CorrectedData {
        /// The corrected 64-bit word.
        data: u64,
        /// The data-bit index that was flipped.
        bit: u32,
    },
    /// A single check bit was flipped; `check` is the corrected byte (the
    /// data word was intact).
    CorrectedCheck {
        /// The corrected check byte.
        check: u8,
    },
    /// An even number of flips (or an aliased multi-bit pattern): detected
    /// but not correctable.
    Uncorrectable,
}

/// Decodes a received `(data, check)` pair.
#[inline]
#[must_use]
pub(crate) fn decode(data: u64, check: u8) -> Secded {
    let mut syndrome = 0u8;
    for (j, mask) in MASKS.iter().enumerate() {
        let p = ((data & mask).count_ones() & 1) as u8;
        syndrome |= (p ^ ((check >> j) & 1)) << j;
    }
    let overall_even = (data.count_ones() + u32::from(check).count_ones()) & 1 == 0;
    match (syndrome, overall_even) {
        (0, true) => Secded::Clean,
        // Overall parity flipped alone: the error is check-byte bit 7.
        (0, false) => Secded::CorrectedCheck {
            check: check ^ 0x80,
        },
        (s, false) => {
            if s.is_power_of_two() {
                // A parity bit at position 2^j flipped; data is intact.
                let j = s.trailing_zeros();
                Secded::CorrectedCheck {
                    check: check ^ (1 << j),
                }
            } else {
                match REV.get(s as usize).copied().unwrap_or(-1) {
                    b if b >= 0 => {
                        let bit = b as u32;
                        Secded::CorrectedData {
                            data: data ^ (1u64 << bit),
                            bit,
                        }
                    }
                    // Syndrome names no valid position: aliased multi-bit.
                    _ => Secded::Uncorrectable,
                }
            }
        }
        // Nonzero syndrome with even overall parity: double-bit error.
        (_, true) => Secded::Uncorrectable,
    }
}

/// Per-bank ECC event counters, accumulated by the channel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EccCounters {
    /// Corrected single-bit errors per bank.
    pub corrected: Vec<u64>,
    /// Detected-uncorrectable errors per bank.
    pub uncorrectable: Vec<u64>,
}

impl EccCounters {
    /// Zeroed counters for `banks` banks.
    #[must_use]
    pub(crate) fn new(banks: usize) -> EccCounters {
        EccCounters {
            corrected: vec![0; banks],
            uncorrectable: vec![0; banks],
        }
    }
}

/// A retention-decay horizon: rows left unrefreshed past
/// `refi_multiple × tREFI` are considered stale (candidates for decay
/// under a fault campaign).
#[must_use]
pub(crate) fn retention_deadline(last_refresh: Cycle, t_refi: Cycle, refi_multiple: u64) -> Cycle {
    last_refresh.saturating_add(t_refi.saturating_mul(refi_multiple))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_skip_powers_of_two_and_cover_64_bits() {
        for (i, &p) in POSITIONS.iter().enumerate() {
            assert!(!p.is_power_of_two(), "data bit {i} at parity position {p}");
            assert!((3..=71).contains(&p));
        }
        let mut sorted = POSITIONS;
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert!(w[0] < w[1], "duplicate codeword position");
        }
    }

    #[test]
    fn clean_words_decode_clean() {
        for data in [0u64, u64::MAX, 0xDEAD_BEEF_0123_4567, 1, 1 << 63] {
            let check = encode(data);
            assert_eq!(decode(data, check), Secded::Clean, "data={data:#x}");
        }
    }

    #[test]
    fn every_single_data_bit_flip_is_corrected() {
        let data = 0xA5C3_0F18_2B4D_6E97u64;
        let check = encode(data);
        for bit in 0..64 {
            let got = decode(data ^ (1 << bit), check);
            assert_eq!(got, Secded::CorrectedData { data, bit }, "bit {bit}");
        }
    }

    #[test]
    fn every_single_check_bit_flip_is_corrected() {
        let data = 0x0123_4567_89AB_CDEFu64;
        let check = encode(data);
        for bit in 0..8 {
            let got = decode(data, check ^ (1 << bit));
            assert_eq!(got, Secded::CorrectedCheck { check }, "check bit {bit}");
        }
    }

    #[test]
    fn double_bit_flips_are_detected_never_miscorrected() {
        let data = 0x5A5A_1234_8765_F0E1u64;
        let check = encode(data);
        // Data-data pairs.
        for a in 0..64u32 {
            for b in (a + 1)..64 {
                let corrupt = data ^ (1 << a) ^ (1 << b);
                assert_eq!(decode(corrupt, check), Secded::Uncorrectable, "{a},{b}");
            }
        }
        // Data-check pairs.
        for a in 0..64u32 {
            for c in 0..8u32 {
                let got = decode(data ^ (1 << a), check ^ (1 << c));
                assert_eq!(got, Secded::Uncorrectable, "data {a}, check {c}");
            }
        }
        // Check-check pairs.
        for a in 0..8u32 {
            for b in (a + 1)..8 {
                let got = decode(data, check ^ (1 << a) ^ (1 << b));
                assert_eq!(got, Secded::Uncorrectable, "check {a},{b}");
            }
        }
    }

    #[test]
    fn corrections_recover_the_exact_word_across_patterns() {
        // Structured sample of data words: every correction must restore
        // the original bits exactly (bit-exact GEMV depends on it).
        for k in 0..256u64 {
            let data = k
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left((k % 64) as u32);
            let check = encode(data);
            let bit = (k % 64) as u32;
            match decode(data ^ (1 << bit), check) {
                Secded::CorrectedData { data: d, bit: b } => {
                    assert_eq!((d, b), (data, bit));
                }
                other => panic!("expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_word_has_zero_check() {
        // The all-zero row (unallocated storage) is implicitly a valid
        // codeword, so lazily-allocated rows need no special casing.
        assert_eq!(encode(0), 0);
        assert_eq!(decode(0, 0), Secded::Clean);
    }

    #[test]
    fn retention_deadline_saturates() {
        assert_eq!(retention_deadline(100, 3900, 4), 100 + 4 * 3900);
        assert_eq!(retention_deadline(Cycle::MAX - 1, 3900, 4), Cycle::MAX);
    }
}
