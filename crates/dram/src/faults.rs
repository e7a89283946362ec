//! Deterministic fault-injection campaigns over functional row storage.
//!
//! The paper's Sec. III-E notes that with Newton "only the matrix resides
//! in the DRAM for long periods of time with the possibility of collecting
//! transient errors" — so campaigns here target *allocated* rows (the
//! resident matrix), drawing every coordinate from a counter-based
//! splitmix-style generator: the same [`CampaignSpec`] always injects the
//! same faults, independent of thread count, iteration order, or platform
//! (the property the determinism suite locks in).
//!
//! Four fault classes are modelled:
//!
//! * **single-bit flips** — one flipped bit per 64-bit word, each in a
//!   distinct word, so a SECDED scrub must correct all of them exactly;
//! * **double-bit words** — two flipped bits in one word: detected
//!   uncorrectable, exercising the scrub-rewrite / bank-retirement path;
//! * **stuck-at cells** — permanent defects re-asserted after every
//!   rewrite (see [`Storage::set_stuck`](crate::Storage::set_stuck));
//! * **retention decay** — extra single-bit flips in every resident row
//!   once the channel has gone longer than `refi_multiple × tREFI` without
//!   a refresh (a coarse model of cells leaking past their retention
//!   time).
//!
//! All injection goes through [`Storage::flip_bit`](crate::Storage) /
//! `set_stuck`, i.e. the generation-counter path, so decoded-weight caches
//! above the channel invalidate correctly.

use std::collections::BTreeSet;

use crate::channel::Channel;
use crate::ecc::{self, WORD_BYTES};
use crate::error::DramError;
use crate::timing::Cycle;

/// The golden-ratio Weyl increment of splitmix64.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64's output function: a bijective 64-bit finalizer.
///
/// splitmix64 is the public-domain seeding generator of Vigna's xoshiro
/// family; its output function is a bijective avalanche mix, so distinct
/// counters never collide for a fixed seed.
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A counter-based RNG: `u64_at(k)` depends only on the seed and `k` —
/// the splitmix64 output function applied to the `k`-th point of a Weyl
/// sequence. A sequential generator forces a serial dependency (element
/// `k` needs elements `0..k` first); here any draw can be computed
/// independently of the others, so any partition of an index space onto
/// any number of threads produces identical bytes. Fault campaigns draw
/// their coordinates from it, and it is the workspace's one generator:
/// the workload, arrival and trace generators import it from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    key: u64,
}

impl CounterRng {
    /// A generator for the given seed. Seeds are whitened through
    /// [`mix64`] so nearby seeds (0, 1, 2, …) yield unrelated streams.
    #[must_use]
    pub fn new(seed: u64) -> CounterRng {
        CounterRng { key: mix64(seed) }
    }

    /// The `k`-th 64-bit value of the stream — the splitmix64 output for
    /// state `key + (k + 1) · golden`, wrapping at every step (the last
    /// counter, `u64::MAX`, is as good as any).
    #[inline]
    #[must_use]
    pub fn u64_at(&self, k: u64) -> u64 {
        mix64(
            self.key
                .wrapping_add((k.wrapping_add(1)).wrapping_mul(GOLDEN)),
        )
    }

    /// The `k`-th value mapped to `[0, 1)` with 24 bits of mantissa
    /// (exact in `f32`).
    #[inline]
    #[must_use]
    fn unit_f32_at(&self, k: u64) -> f32 {
        const SCALE: f32 = 1.0 / (1 << 24) as f32;
        (self.u64_at(k) >> 40) as f32 * SCALE
    }

    /// The `k`-th value mapped uniformly to `[lo, hi)`.
    #[inline]
    #[must_use]
    pub fn range_f32_at(&self, k: u64, lo: f32, hi: f32) -> f32 {
        lo + self.unit_f32_at(k) * (hi - lo)
    }

    /// The `k`-th value mapped to `[0, 1)` with 53 bits of mantissa
    /// (exact in `f64`) — used where `f32` granularity would quantize a
    /// continuous distribution too coarsely (e.g. exponential
    /// inter-arrival gaps).
    #[inline]
    #[must_use]
    pub fn unit_f64_at(&self, k: u64) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        (self.u64_at(k) >> 11) as f64 * SCALE
    }
}

/// Retention-decay parameters of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionSpec {
    /// Rows are stale once the channel has gone more than
    /// `refi_multiple × tREFI` cycles without an all-bank refresh.
    pub refi_multiple: u64,
    /// Single-bit flips injected into each stale resident row.
    pub flips_per_stale_row: usize,
}

/// A deterministic fault-injection campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Seed of the counter stream every coordinate is drawn from.
    pub seed: u64,
    /// Single-bit flips, each in a distinct 64-bit word.
    pub single_bit_flips: usize,
    /// Words receiving exactly two bit flips (uncorrectable under SECDED).
    pub double_bit_words: usize,
    /// Permanently stuck cells (value drawn from the stream).
    pub stuck_cells: usize,
    /// Optional retention-decay model.
    pub retention: Option<RetentionSpec>,
}

impl CampaignSpec {
    /// The same campaign re-keyed for one channel of a multi-channel
    /// system: decorrelates the streams while keeping the whole system a
    /// pure function of the base seed.
    #[must_use]
    pub fn for_channel(&self, channel: usize) -> CampaignSpec {
        CampaignSpec {
            seed: mix64(self.seed ^ (channel as u64).wrapping_mul(GOLDEN)),
            ..*self
        }
    }
}

/// Which fault class an injected fault belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A lone flipped bit (correctable under SECDED).
    SingleFlip,
    /// One of the two flips of a double-bit word (uncorrectable).
    DoubleFlip,
    /// A cell permanently stuck at `value`.
    StuckAt {
        /// The value the cell is stuck at.
        value: bool,
    },
    /// A retention-decay flip in a stale row.
    RetentionFlip,
}

/// One concretely injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Fault class.
    pub kind: FaultKind,
    /// Bank of the affected row.
    pub bank: usize,
    /// Affected row.
    pub row: usize,
    /// Flipped/stuck bit index within the row.
    pub bit: usize,
}

/// Word-granular fault targets: every fault class claims whole 64-bit
/// words so the classes never alias into accidental multi-bit patterns.
struct TargetPicker {
    rng: CounterRng,
    ctr: u64,
    used: BTreeSet<(usize, usize)>,
}

/// Bounded re-draw attempts before a picker gives up (the word universe
/// of even one resident row dwarfs any realistic campaign, so exhaustion
/// only happens for degenerate tiny configurations).
const MAX_ATTEMPTS: usize = 64;

impl TargetPicker {
    fn draw(&mut self) -> u64 {
        let v = self.rng.u64_at(self.ctr);
        self.ctr += 1;
        v
    }

    /// A not-yet-used word: `(row-list index, word index)`.
    fn pick_word(&mut self, rows: usize, words_per_row: usize) -> Option<(usize, usize)> {
        for _ in 0..MAX_ATTEMPTS {
            let ri = (self.draw() % rows as u64) as usize;
            let w = (self.draw() % words_per_row as u64) as usize;
            if self.used.insert((ri, w)) {
                return Some((ri, w));
            }
        }
        None
    }

    /// A not-yet-used word within one specific row.
    fn pick_word_in_row(&mut self, ri: usize, words_per_row: usize) -> Option<usize> {
        for _ in 0..MAX_ATTEMPTS {
            let w = (self.draw() % words_per_row as u64) as usize;
            if self.used.insert((ri, w)) {
                return Some(w);
            }
        }
        None
    }
}

/// Injects `spec` into `channel`'s resident (allocated) rows, observing
/// retention staleness as of cycle `now`. Returns every injected fault in
/// injection order — a deterministic function of `(spec, resident rows,
/// last refresh)`.
///
/// # Errors
///
/// Propagates storage addressing errors (impossible for well-formed
/// internal draws, but surfaced rather than unwrapped).
pub fn inject(
    channel: &mut Channel,
    now: Cycle,
    spec: &CampaignSpec,
) -> Result<Vec<InjectedFault>, DramError> {
    let rows = channel.storage().allocated_row_indices();
    if rows.is_empty() {
        return Ok(Vec::new());
    }
    let words_per_row = channel.storage().row_bytes() / WORD_BYTES;
    let mut picker = TargetPicker {
        rng: CounterRng::new(spec.seed),
        ctr: 0,
        used: BTreeSet::new(),
    };
    let mut out = Vec::new();

    for _ in 0..spec.single_bit_flips {
        let Some((ri, w)) = picker.pick_word(rows.len(), words_per_row) else {
            break;
        };
        let (bank, row) = rows[ri];
        let bit = w * 64 + (picker.draw() % 64) as usize;
        channel.storage_mut().flip_bit(bank, row, bit)?;
        out.push(InjectedFault {
            kind: FaultKind::SingleFlip,
            bank,
            row,
            bit,
        });
    }

    for _ in 0..spec.double_bit_words {
        let Some((ri, w)) = picker.pick_word(rows.len(), words_per_row) else {
            break;
        };
        let (bank, row) = rows[ri];
        let b1 = (picker.draw() % 64) as usize;
        let mut b2 = (picker.draw() % 64) as usize;
        while b2 == b1 {
            b2 = (picker.draw() % 64) as usize;
        }
        for b in [b1, b2] {
            let bit = w * 64 + b;
            channel.storage_mut().flip_bit(bank, row, bit)?;
            out.push(InjectedFault {
                kind: FaultKind::DoubleFlip,
                bank,
                row,
                bit,
            });
        }
    }

    for _ in 0..spec.stuck_cells {
        let Some((ri, w)) = picker.pick_word(rows.len(), words_per_row) else {
            break;
        };
        let (bank, row) = rows[ri];
        let bit = w * 64 + (picker.draw() % 64) as usize;
        let value = picker.draw() & 1 == 1;
        channel.storage_mut().set_stuck(bank, row, bit, value)?;
        out.push(InjectedFault {
            kind: FaultKind::StuckAt { value },
            bank,
            row,
            bit,
        });
    }

    if let Some(r) = &spec.retention {
        let deadline = ecc::retention_deadline(
            channel.last_refresh(),
            channel.timing().t_refi,
            r.refi_multiple,
        );
        if now > deadline {
            for (ri, &(bank, row)) in rows.iter().enumerate() {
                for _ in 0..r.flips_per_stale_row {
                    let Some(w) = picker.pick_word_in_row(ri, words_per_row) else {
                        break;
                    };
                    let bit = w * 64 + (picker.draw() % 64) as usize;
                    channel.storage_mut().flip_bit(bank, row, bit)?;
                    out.push(InjectedFault {
                        kind: FaultKind::RetentionFlip,
                        bank,
                        row,
                        bit,
                    });
                }
            }
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn loaded_channel() -> Channel {
        let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
        for bank in 0..4 {
            for row in 0..4 {
                let data: Vec<u8> = (0..1024).map(|i| ((i + bank + row) % 256) as u8).collect();
                ch.storage_mut().write_row(bank, row, &data).unwrap();
            }
        }
        ch
    }

    #[test]
    fn values_are_pure_functions_of_seed_and_counter() {
        let a = CounterRng::new(42);
        let b = CounterRng::new(42);
        // `u64::MAX` is the counter whose `+ 1` must wrap, not overflow.
        for k in [0u64, 1, 17, 1 << 40, u64::MAX] {
            assert_eq!(a.u64_at(k), b.u64_at(k));
        }
        assert_ne!(a.u64_at(0), a.u64_at(1));
        assert_ne!(CounterRng::new(42).u64_at(0), CounterRng::new(43).u64_at(0));
    }

    #[test]
    fn nearby_seeds_and_counters_decorrelate() {
        // Adjacent counters differ in roughly half their bits.
        let rng = CounterRng::new(7);
        for k in 0..64u64 {
            let d = (rng.u64_at(k) ^ rng.u64_at(k + 1)).count_ones();
            assert!((8..=56).contains(&d), "k={k} hamming={d}");
        }
    }

    #[test]
    fn unit_values_cover_the_interval() {
        let rng = CounterRng::new(3);
        let vals: Vec<f32> = (0..4096).map(|k| rng.unit_f32_at(k)).collect();
        assert!(vals.iter().all(|&v| (0.0..1.0).contains(&v)));
        assert!(vals.iter().any(|&v| v < 0.01));
        assert!(vals.iter().any(|&v| v > 0.99));
        let mean = vals.iter().sum::<f32>() / vals.len() as f32;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn range_mapping_is_bounded_and_two_sided() {
        let rng = CounterRng::new(9);
        let vals: Vec<f32> = (0..1024)
            .map(|k| rng.range_f32_at(k, -0.25, 0.25))
            .collect();
        assert!(vals.iter().all(|&v| (-0.25..0.25).contains(&v)));
        assert!(vals.iter().any(|&v| v < 0.0) && vals.iter().any(|&v| v > 0.0));
    }

    #[test]
    fn mix64_is_a_bijection_on_samples() {
        // Spot-check injectivity over a structured sample set.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i * 0x1_0001)));
        }
        assert_eq!(mix64(0), 0, "splitmix finalizer fixes zero");
    }

    #[test]
    fn same_spec_injects_identical_faults() {
        let spec = CampaignSpec {
            seed: 42,
            single_bit_flips: 10,
            double_bit_words: 2,
            stuck_cells: 3,
            retention: None,
        };
        let f1 = inject(&mut loaded_channel(), 0, &spec).unwrap();
        let f2 = inject(&mut loaded_channel(), 0, &spec).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(
            f1.len(),
            10 + 2 * 2 + 3,
            "every requested fault lands (universe is large)"
        );
    }

    #[test]
    fn fault_classes_never_share_a_word() {
        let spec = CampaignSpec {
            seed: 9,
            single_bit_flips: 50,
            double_bit_words: 10,
            stuck_cells: 10,
            retention: None,
        };
        let faults = inject(&mut loaded_channel(), 0, &spec).unwrap();
        let mut words = BTreeSet::new();
        for f in &faults {
            let fresh = words.insert((f.bank, f.row, f.bit / 64));
            assert!(
                fresh || matches!(f.kind, FaultKind::DoubleFlip),
                "only double-bit faults may revisit a word: {f:?}"
            );
        }
    }

    #[test]
    fn single_flips_are_correctable_doubles_are_not() {
        let mut ch = loaded_channel();
        ch.storage_mut().enable_ecc().unwrap();
        let spec = CampaignSpec {
            seed: 1,
            single_bit_flips: 8,
            double_bit_words: 0,
            stuck_cells: 0,
            retention: None,
        };
        inject(&mut ch, 0, &spec).unwrap();
        let mut corrected = 0;
        for (bank, row) in ch.storage().allocated_row_indices() {
            corrected += ch.storage_mut().scrub_row(bank, row).unwrap();
        }
        assert_eq!(corrected, 8);

        let mut ch = loaded_channel();
        ch.storage_mut().enable_ecc().unwrap();
        let spec = CampaignSpec {
            seed: 1,
            single_bit_flips: 0,
            double_bit_words: 1,
            stuck_cells: 0,
            retention: None,
        };
        let faults = inject(&mut ch, 0, &spec).unwrap();
        assert_eq!(faults.len(), 2);
        assert_eq!(
            ch.storage_mut().scrub_row(faults[0].bank, faults[0].row),
            Err(DramError::Uncorrectable {
                bank: faults[0].bank,
                row: faults[0].row
            })
        );
    }

    #[test]
    fn retention_decay_fires_only_past_the_deadline() {
        let spec = CampaignSpec {
            seed: 3,
            single_bit_flips: 0,
            double_bit_words: 0,
            stuck_cells: 0,
            retention: Some(RetentionSpec {
                refi_multiple: 4,
                flips_per_stale_row: 2,
            }),
        };
        let mut ch = loaded_channel();
        let t_refi = ch.timing().t_refi;
        // Fresh (last refresh at 0, now inside the window): nothing decays.
        assert!(inject(&mut ch, 4 * t_refi, &spec).unwrap().is_empty());
        // Past the window: every resident row decays.
        let faults = inject(&mut ch, 4 * t_refi + 1, &spec).unwrap();
        assert_eq!(faults.len(), 16 * 2, "16 resident rows × 2 flips");
        assert!(faults.iter().all(|f| f.kind == FaultKind::RetentionFlip));
    }

    #[test]
    fn per_channel_specs_decorrelate() {
        let base = CampaignSpec {
            seed: 11,
            single_bit_flips: 5,
            double_bit_words: 0,
            stuck_cells: 0,
            retention: None,
        };
        let f0 = inject(&mut loaded_channel(), 0, &base.for_channel(0)).unwrap();
        let f1 = inject(&mut loaded_channel(), 0, &base.for_channel(1)).unwrap();
        assert_ne!(f0, f1, "channels draw from decorrelated streams");
        assert_eq!(base.for_channel(2), base.for_channel(2), "still pure");
    }

    #[test]
    fn empty_storage_injects_nothing() {
        let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
        let spec = CampaignSpec {
            seed: 5,
            single_bit_flips: 100,
            double_bit_words: 100,
            stuck_cells: 100,
            retention: None,
        };
        assert!(inject(&mut ch, 0, &spec).unwrap().is_empty());
    }
}
