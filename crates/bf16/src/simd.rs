//! Explicit-width, autovectorizer-friendly bf16 COMP kernels.
//!
//! The scalar kernels in [`reduce`](crate::reduce) walk the 16-wide MAC
//! tree through `Bf16` values one element at a time, with a data-dependent
//! branch (the NaN check) inside every rounding step. These kernels compute
//! the *same arithmetic DAG* over fixed-width blocks of `f32` lanes with
//! straight-line tree levels and a branchless rounding select, so the
//! compiler's autovectorizer can emit SIMD code on stable Rust — no nightly
//! features, no `unsafe`, no target-specific intrinsics.
//!
//! Bit-exactness contract: every function here is proven (exhaustively for
//! the rounding lane, property-tested for the kernels) to produce the same
//! bits as its scalar oracle in [`reduce`](crate::reduce):
//!
//! * `round_bf16_f32` ≡ `Bf16::from_f32(x).to_f32()` for **all** `f32`
//!   bit patterns, including NaN quieting and overflow-to-infinity.
//! * [`comp_row_set`], the kernel the simulator runs, folds a whole row of
//!   sub-chunk COMPs for every bank of a row-set in one pass over
//!   lane-major [`LanePlane`]s and equals one
//!   [`comp_step_noalloc`](crate::reduce::comp_step_noalloc) per bank per
//!   sub-chunk step for step, latch value included: identical product
//!   rounding, the identical `(0,1)(2,3)…` pairwise tree-level structure of
//!   [`tree_reduce_wide_into`](crate::reduce::tree_reduce_wide_into), and in
//!   the per-stage discipline the per-stage bf16 rounding order of the
//!   paper's 16-wide adder tree.
//! * [`comp_subchunks16_multi`] does the same over row-major planes.
//!
//! The row-major [`comp_subchunks16_multi`] takes plain slices of exact
//! `f32` widenings (`Bf16::to_f32` is exact) with each sub-chunk's 16
//! elements contiguous, so every adder-tree level is a horizontal pair-sum
//! the vectorizer must build from shuffles; production code stopped calling
//! it when [`comp_row_set`] landed, and it is kept only because the
//! benchmark's kernel probe still times it. [`comp_row_set`] takes
//! [`LanePlane`]s, which keep the bf16 bits (2 bytes an element, as the
//! modelled DRAM row holds them) and store a block of 32 sub-chunks as
//! `[element][sub-chunk]`: products and all four tree levels are then
//! vertical passes over 32 contiguous lanes with no shuffle. The kernel
//! widens as it loads — each input block once per gang into a stack block
//! of `f32`, each weight inside the product loop (a shift into the high
//! half, which is exact) — so products and sums round exactly as they
//! would on `f32` planes. The decoded-weight cache and the device global
//! buffer maintain such planes, and only this module knows their index
//! math.
//!
//! One carve-out: NaN **inputs** are outside the cross-kernel contract.
//! When both operands of an `f32` addition are NaN, hardware returns one
//! operand's payload, and which operand that is depends on codegen operand
//! order — it is ambiguous even between two differently compiled *scalar*
//! kernels, so no kernel pair can promise matching payloads there. NaNs
//! *produced* from non-NaN inputs are not affected: `inf - inf` and
//! `0 × inf` yield the single canonical indefinite NaN in every path, and
//! additions over identical NaN bit patterns are order-insensitive, so
//! bit-exactness holds for all non-NaN inputs including infinities,
//! subnormals, and mid-tree NaN creation (covered by tests below). Each
//! kernel individually remains fully deterministic for any input.

use crate::reduce::{TreePrecision, TREE_ARITY};
use crate::scalar::Bf16;

/// Branchless `Bf16::from_f32(x).to_f32()` on raw `f32` bits.
///
/// For non-NaN inputs this is round-to-nearest-even to the top 16 bits
/// (`bits + 0x7FFF + lsb` then truncate), which also carries overflow into
/// the infinity encoding exactly like the scalar path. NaNs keep their top
/// bits and gain the quiet bit, again exactly like the scalar path. The NaN
/// select is a mask blend, not a branch, so a lane loop over this function
/// vectorizes.
#[inline]
#[must_use]
fn round_bf16_bits(bits: u32) -> u32 {
    let is_nan = u32::from((bits & 0x7FFF_FFFF) > 0x7F80_0000).wrapping_neg();
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1)) & 0xFFFF_0000;
    let quiet = ((bits >> 16) | 0x0040) << 16;
    (rounded & !is_nan) | (quiet & is_nan)
}

/// [`round_bf16_bits`] lifted to `f32`: the value `x` rounds to when stored
/// in a bf16 register and read back.
#[inline]
#[must_use]
fn round_bf16_f32(x: f32) -> f32 {
    f32::from_bits(round_bf16_bits(x.to_bits()))
}

/// Sub-chunks per batched-fold block: the flat per-level passes below run
/// over fixed stack scratch of this many sub-chunks at a time (32 × 16
/// `f32` = 2 KiB — a whole hbm2e-like row), so the fold allocates nothing
/// regardless of row width.
const BLOCK_SUBS: usize = 32;
const BLOCK_ELEMS: usize = BLOCK_SUBS * TREE_ARITY;

/// One flat adder-tree level over a block: `out[i] = in[2i] + in[2i+1]`
/// for `i in 0..n`, rounded per element when `ROUND`. Because sub-chunks
/// are laid out contiguously and every level width divides 16, adjacent
/// global pairs never straddle a sub-chunk boundary — the per-sub tree
/// levels of the whole block collapse into one vectorizable pass.
#[inline]
fn tree_level_flat<const ROUND: bool>(input: &[f32], out: &mut [f32], n: usize) {
    for (o, pair) in out[..n].iter_mut().zip(input[..2 * n].chunks_exact(2)) {
        let s = pair[0] + pair[1];
        *o = if ROUND { round_bf16_f32(s) } else { s };
    }
}

/// Fused products + first adder level over a block: for each operand pair
/// `(2i, 2i+1)`, round the two products and emit their sum (rounded when
/// `ROUND`). Identical arithmetic to a pass that rounds every product
/// followed by [`tree_level_flat`], but the rounded products never
/// round-trip through memory — the level-1 value is formed in registers.
#[inline]
fn products_level1_flat<const ROUND: bool>(
    weights: &[f32],
    inputs: &[f32],
    out: &mut [f32],
    n: usize,
) {
    for ((o, w), v) in out[..n]
        .iter_mut()
        .zip(weights[..2 * n].chunks_exact(2))
        .zip(inputs[..2 * n].chunks_exact(2))
    {
        let p0 = f32::from_bits(round_bf16_bits((w[0] * v[0]).to_bits()));
        let p1 = f32::from_bits(round_bf16_bits((w[1] * v[1]).to_bits()));
        let s = p0 + p1;
        *o = if ROUND { round_bf16_f32(s) } else { s };
    }
}

/// [`round_bf16_bits`] minus the NaN blend: five integer ops per lane
/// instead of the full select. Equal to [`round_bf16_bits`] on **every
/// non-NaN pattern** — finite values (including those that round-carry
/// *into* the infinity encoding) and ±infinity itself, whose low half is
/// zero and so passes through unchanged — and on quiet NaNs whose low
/// half is zero, for the same reason. Only a NaN with a non-zero low half
/// or a clear quiet bit can differ (the carry may even walk it out of the
/// NaN encoding), which is why the kernels using this either test the
/// products or test the tree roots for an all-ones exponent and fall back.
/// Pinned exhaustively over the high half in the tests below.
#[inline]
#[must_use]
fn round_bf16_bits_finite(bits: u32) -> u32 {
    bits.wrapping_add(0x7FFF + ((bits >> 16) & 1)) & 0xFFFF_0000
}

/// A bf16 bit pattern as the `f32` it widens to exactly.
#[inline(always)]
fn widen(bits: u16) -> f32 {
    f32::from_bits(u32::from(bits) << 16)
}

/// The clean-block variant of [`products_level1_flat`]: rounds products
/// with [`round_bf16_bits_finite`] while OR-accumulating an
/// exponent-is-all-ones detector over the raw product bits. Returns `true`
/// if any product was infinite or NaN — in which case the output is
/// untrusted and the caller must redo the block through the full path.
/// When it returns `false`, the output is bit-identical to
/// [`products_level1_flat`] (level-1 sums are always rounded through the
/// full [`round_bf16_f32`], since sums can overflow independently).
#[inline]
fn products_level1_flat_clean<const ROUND: bool>(
    weights: &[f32],
    inputs: &[f32],
    out: &mut [f32],
    n: usize,
) -> bool {
    let mut special = 0u32;
    for ((o, w), v) in out[..n]
        .iter_mut()
        .zip(weights[..2 * n].chunks_exact(2))
        .zip(inputs[..2 * n].chunks_exact(2))
    {
        let b0 = (w[0] * v[0]).to_bits();
        let b1 = (w[1] * v[1]).to_bits();
        special |= u32::from(b0 & 0x7F80_0000 == 0x7F80_0000);
        special |= u32::from(b1 & 0x7F80_0000 == 0x7F80_0000);
        let s =
            f32::from_bits(round_bf16_bits_finite(b0)) + f32::from_bits(round_bf16_bits_finite(b1));
        *o = if ROUND { round_bf16_f32(s) } else { s };
    }
    special != 0
}

/// Adder-tree roots of one block: products + four flat tree levels, with
/// rounding per level when `ROUND` (per-stage discipline). `roots[s]` is
/// the tree output of sub-chunk `s`; only the first `wb.len() / 16` slots
/// are written. The clean-path product pass handles the common all-finite
/// case; if any product hits the inf/NaN encoding the block is redone
/// through the full rounding path (identical bits in every case).
#[inline]
fn block_roots<const ROUND: bool>(wb: &[f32], vb: &[f32], roots: &mut [f32; BLOCK_SUBS]) {
    let elems = wb.len();
    let mut l1 = [0f32; BLOCK_ELEMS / 2];
    let mut l2 = [0f32; BLOCK_ELEMS / 4];
    let mut l3 = [0f32; BLOCK_ELEMS / 8];
    if products_level1_flat_clean::<ROUND>(wb, vb, &mut l1, elems / 2) {
        products_level1_flat::<ROUND>(wb, vb, &mut l1, elems / 2);
    }
    tree_level_flat::<ROUND>(&l1, &mut l2, elems / 4);
    tree_level_flat::<ROUND>(&l2, &mut l3, elems / 8);
    tree_level_flat::<ROUND>(&l3, roots, elems / 16);
}

/// The most latch chains one gang interleaves; [`comp_subchunks16_multi`]
/// and [`comp_row_set`] fold a larger gang this many banks at a time
/// (Newton gangs all 16 banks of a channel, so one pass covers every real
/// configuration).
pub const MULTI_MAX_BANKS: usize = 16;

/// Multi-bank batched fold over row-major planes: for each consecutive
/// 16-element sub-chunk of `weights[k]` (bank `k`'s row plane) × the
/// shared `inputs` plane (exact `f32` widenings), one tree reduction and
/// one accumulation into `latches[k]` in the given `precision` — step for
/// step identical to calling
/// [`comp_step_noalloc`](crate::reduce::comp_step_noalloc) once per bank
/// per sub-chunk, in sub-chunk order, on the bf16 values the planes widen.
/// Banks never interact: the per-bank arithmetic DAG is `block_roots`
/// plus the serial latch chain `latch ← round(latch + root)`, which is
/// `Bf16::accumulate_wide` (Wide) or the bf16 `latch + tree` addition
/// (PerStage); only the *schedule* is shared. Stack scratch only, whatever
/// the row width.
///
/// The point of computing banks together is the latch chain. Per bank it
/// is a true serial dependence — `acc = round(acc + root)` cannot overlap
/// with itself — so folding banks one at a time leaves the core waiting
/// on ~10-cycle round-trips, 32 per row. Interleaving transposes the
/// chain: for each sub-chunk, all banks' latch updates happen side by
/// side (a flat, vectorizable pass over [`MULTI_MAX_BANKS`] independent
/// accumulators), so the serial latency is paid once per sub-chunk for
/// the whole gang instead of once per (bank, sub-chunk).
///
/// # Panics
///
/// Panics if `latches` and `weights` differ in length, any plane's length
/// differs from `inputs.len()`, or the length is not a multiple of
/// [`TREE_ARITY`].
pub fn comp_subchunks16_multi(
    latches: &mut [Bf16],
    weights: &[&[f32]],
    inputs: &[f32],
    precision: TreePrecision,
) {
    assert_eq!(
        latches.len(),
        weights.len(),
        "one latch per bank weight plane"
    );
    for plane in weights {
        assert_eq!(
            plane.len(),
            inputs.len(),
            "weight/input planes must pair up"
        );
    }
    assert_eq!(
        inputs.len() % TREE_ARITY,
        0,
        "batched COMP planes must be whole 16-element sub-chunks"
    );
    let nb = latches.len();
    if nb == 0 {
        return;
    }
    if nb > MULTI_MAX_BANKS {
        for (latches, weights) in latches
            .chunks_mut(MULTI_MAX_BANKS)
            .zip(weights.chunks(MULTI_MAX_BANKS))
        {
            comp_subchunks16_multi(latches, weights, inputs, precision);
        }
        return;
    }
    let mut acc = [0f32; MULTI_MAX_BANKS];
    for (a, l) in acc.iter_mut().zip(latches.iter()) {
        *a = l.to_f32();
    }
    let mut base = 0usize;
    while base < inputs.len() {
        let elems = (inputs.len() - base).min(BLOCK_ELEMS);
        let n_sub = elems / TREE_ARITY;
        let vb = &inputs[base..base + elems];
        // Roots transposed to `[sub][bank]` so the latch pass below walks
        // contiguous rows of independent accumulators.
        let mut roots_t = [0f32; BLOCK_SUBS * MULTI_MAX_BANKS];
        let mut roots = [0f32; BLOCK_SUBS];
        for (k, plane) in weights.iter().enumerate() {
            match precision {
                TreePrecision::Wide => {
                    block_roots::<false>(&plane[base..base + elems], vb, &mut roots);
                }
                TreePrecision::PerStage => {
                    block_roots::<true>(&plane[base..base + elems], vb, &mut roots);
                }
            }
            for (sub, &r) in roots.iter().take(n_sub).enumerate() {
                roots_t[sub * nb + k] = r;
            }
        }
        for sub in 0..n_sub {
            let row = &roots_t[sub * nb..(sub + 1) * nb];
            for (a, &r) in acc[..nb].iter_mut().zip(row) {
                *a = round_bf16_f32(*a + r);
            }
        }
        base += elems;
    }
    for (l, &a) in latches.iter_mut().zip(acc.iter()) {
        *l = Bf16::from_f32(a);
    }
}

/// A row of bf16 values, stored as their bits **lane-major** for
/// [`comp_row_set`].
///
/// The row is cut into 16-element sub-chunks and the sub-chunks into
/// blocks of 32. Inside a block the layout is
/// `[element j][sub-chunk s]`: element `j` of sub-chunk `s` of block `b`
/// lives at `b * 512 + j * 32 + s`, so the 32 sub-chunks' `j`-th elements
/// are contiguous. The last block is padded with `+0.0` to full size.
/// This module is the only place that knows the index math.
///
/// Each element costs 2 bytes, as in the DRAM row; the kernel widens it
/// to `f32` exactly (low 16 bits zero, the precondition of its hoisted
/// inf/NaN test) as it loads.
#[derive(Debug, Clone)]
pub struct LanePlane {
    lanes: Box<[u16]>,
    n_sub: usize,
}

impl LanePlane {
    /// An all-zero plane with room for `elems` elements (rounded up to
    /// whole sub-chunks).
    #[must_use]
    pub fn zeroed(elems: usize) -> LanePlane {
        let n_sub = elems.div_ceil(TREE_ARITY);
        let blocks = n_sub.div_ceil(BLOCK_SUBS);
        LanePlane {
            lanes: vec![0; blocks * BLOCK_ELEMS].into_boxed_slice(),
            n_sub,
        }
    }

    /// A plane holding `row` (a ragged tail sub-chunk is zero-filled).
    #[must_use]
    pub fn from_row(row: &[Bf16]) -> LanePlane {
        let mut plane = LanePlane::zeroed(row.len());
        plane.fill(row);
        plane
    }

    /// Number of 16-element sub-chunks the plane holds.
    #[must_use]
    pub fn n_sub(&self) -> usize {
        self.n_sub
    }

    /// Overwrites the whole plane with `row`, zero-filling whatever `row`
    /// does not cover.
    ///
    /// # Panics
    ///
    /// Panics if `row` is longer than the plane.
    pub fn fill(&mut self, row: &[Bf16]) {
        self.fill_with(row, Bf16::to_bits);
    }

    /// [`fill`](LanePlane::fill) from the row as DRAM stores it:
    /// little-endian bf16 pairs, decoded straight into the plane with no
    /// intermediate [`Bf16`] row.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is odd-sized or holds more elements than the plane.
    pub fn fill_le_bytes(&mut self, bytes: &[u8]) {
        let (row, odd) = bytes.as_chunks::<2>();
        assert!(odd.is_empty(), "{} bytes are not bf16 pairs", bytes.len());
        self.fill_with(row, u16::from_le_bytes);
    }

    /// The one transposing fill; `bits` gives an element's bf16 bits.
    /// Whole blocks are transposed with sequential writes and no
    /// per-element index arithmetic (rows are decoded cold on the
    /// weight-reload path, so this loop is paid per use there).
    #[inline]
    fn fill_with<T: Copy>(&mut self, row: &[T], bits: impl Fn(T) -> u16) {
        assert!(
            row.len() <= self.n_sub * TREE_ARITY,
            "row of {} elements exceeds the plane's {} sub-chunks",
            row.len(),
            self.n_sub
        );
        let blocks = row.chunks(BLOCK_ELEMS).chain(std::iter::repeat(&[][..]));
        for (lanes, block) in self.lanes.chunks_exact_mut(BLOCK_ELEMS).zip(blocks) {
            for (j, lane_row) in lanes.chunks_exact_mut(BLOCK_SUBS).enumerate() {
                if block.len() == BLOCK_ELEMS {
                    for (lane, sub) in lane_row.iter_mut().zip(block.chunks_exact(TREE_ARITY)) {
                        *lane = bits(sub[j]);
                    }
                } else {
                    for (s, lane) in lane_row.iter_mut().enumerate() {
                        *lane = block.get(s * TREE_ARITY + j).map_or(0, |&e| bits(e));
                    }
                }
            }
        }
    }

    /// Overwrites elements `start..start + values.len()` (row order).
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the plane.
    pub fn write(&mut self, start: usize, values: &[Bf16]) {
        for (elem, v) in (start..).zip(values) {
            self.lanes[lane_index(elem)] = v.to_bits();
        }
    }

    /// Reads elements `start..start + out.len()` (row order) back as
    /// [`Bf16`] — the inverse of [`write`](LanePlane::write).
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the plane.
    pub fn read(&self, start: usize, out: &mut [Bf16]) {
        for (elem, o) in (start..).zip(out) {
            *o = Bf16::from_bits(self.lanes[lane_index(elem)]);
        }
    }

    /// Element `elem` (row order), widened to `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `elem` is past the plane.
    #[must_use]
    pub fn get(&self, elem: usize) -> f32 {
        widen(self.lanes[lane_index(elem)])
    }

    #[inline]
    fn block(&self, b: usize) -> &[u16; BLOCK_ELEMS] {
        self.lanes[b * BLOCK_ELEMS..][..BLOCK_ELEMS]
            .try_into()
            .expect("sliced to one block")
    }
}

/// Lane-major position of row element `elem`.
#[inline]
fn lane_index(elem: usize) -> usize {
    let (sub, j) = (elem / TREE_ARITY, elem % TREE_ARITY);
    (sub / BLOCK_SUBS) * BLOCK_ELEMS + j * BLOCK_SUBS + sub % BLOCK_SUBS
}

type LaneRow = [f32; BLOCK_SUBS];

/// The 32 adder-tree roots of one lane-major block: 16 product rows
/// reduced through four levels of vertical adds, every pass a straight
/// loop over 32 contiguous lanes. Per sub-chunk (= per lane) this is the
/// arithmetic DAG of [`block_roots`]: products rounded to bf16, the
/// `(0,1)(2,3)…` pairing, per-level rounding when `ROUND`. The weights
/// `w` are bf16 bits, widened as they are multiplied; the inputs `v` come
/// widened already.
///
/// With `FULL` unset every rounding is [`round_bf16_bits_finite`], which
/// is only trusted when no root comes out inf/NaN (see [`comp_row_set`]).
#[inline]
fn lane_block_roots<const ROUND: bool, const FULL: bool>(
    w: &[u16; BLOCK_ELEMS],
    v: &[f32; BLOCK_ELEMS],
    roots: &mut LaneRow,
) {
    #[inline(always)]
    fn round<const FULL: bool>(x: f32) -> f32 {
        let bits = x.to_bits();
        f32::from_bits(if FULL {
            round_bf16_bits(bits)
        } else {
            round_bf16_bits_finite(bits)
        })
    }
    let product = |j: usize| -> LaneRow {
        let (wj, vj) = (
            &w[j * BLOCK_SUBS..][..BLOCK_SUBS],
            &v[j * BLOCK_SUBS..][..BLOCK_SUBS],
        );
        let mut out = [0f32; BLOCK_SUBS];
        for ((o, &x), &y) in out.iter_mut().zip(wj).zip(vj) {
            *o = round::<FULL>(widen(x) * y);
        }
        out
    };
    let add = |a: LaneRow, b: LaneRow| -> LaneRow {
        let mut out = [0f32; BLOCK_SUBS];
        for ((o, &x), &y) in out.iter_mut().zip(&a).zip(&b) {
            *o = if ROUND { round::<FULL>(x + y) } else { x + y };
        }
        out
    };
    // Depth-first, so a row of partial sums is consumed right after it is
    // produced (measured faster than finishing each tree level in turn).
    let quad = |i: usize| {
        add(
            add(product(4 * i), product(4 * i + 1)),
            add(product(4 * i + 2), product(4 * i + 3)),
        )
    };
    *roots = add(add(quad(0), quad(1)), add(quad(2), quad(3)));
}

/// [`lane_block_roots`] with the inf/NaN decision hoisted out of the
/// product loop: the block is computed with the five-op finite rounding,
/// then the `n` roots that will be folded are tested once for an
/// all-ones exponent, and only a hit redoes the block with the full
/// rounding.
///
/// Sound because the two roundings differ only on NaNs, and a NaN
/// anywhere in a sub-chunk's DAG always reaches that sub-chunk's root:
/// every operand is bf16-valued or a sum of such, so a NaN is either the
/// IEEE default NaN (`0 × inf`, `inf - inf`) or a propagated operand
/// payload — low half zero both ways, which [`round_bf16_bits_finite`]
/// passes through — and NaN is absorbing under add. An infinity (a
/// product or sum that overflows) is rounded correctly by the fast path;
/// it shares the all-ones exponent, so it is a false positive that takes
/// the slow path and gets the same bits.
#[inline]
fn lane_block_roots_checked<const ROUND: bool>(
    w: &[u16; BLOCK_ELEMS],
    v: &[f32; BLOCK_ELEMS],
    n: usize,
    roots: &mut LaneRow,
) {
    lane_block_roots::<ROUND, false>(w, v, roots);
    let mut special = 0u32;
    for r in &roots[..n] {
        special |= u32::from(r.to_bits() & 0x7F80_0000 == 0x7F80_0000);
    }
    if special != 0 {
        lane_block_roots::<ROUND, true>(w, v, roots);
    }
}

/// The production COMP kernel: folds sub-chunks `0..n_sub` of every
/// bank's weight row against the shared input row into that bank's latch.
/// `latches[k]` pairs with `weights[k]`; all planes are lane-major
/// ([`LanePlane`]).
///
/// Bit-exact with one [`comp_step_noalloc`](crate::reduce::comp_step_noalloc)
/// per bank per sub-chunk in ascending order, and with the row-major
/// [`comp_subchunks16_multi`]: the per-sub-chunk arithmetic DAG
/// and the serial latch chain are the same, only laid out so that every
/// tree level is a vertical add. As there, the latch chains of a gang run
/// side by side, one flat pass per sub-chunk over up to
/// [`MULTI_MAX_BANKS`] accumulators; a larger gang is folded
/// [`MULTI_MAX_BANKS`] banks at a time.
///
/// Blocks are always computed 32 lanes wide; lanes at or past `n_sub` are
/// never folded into a latch, so what they hold cannot matter.
///
/// # Panics
///
/// Panics if `latches` and `weights` differ in length, or `n_sub`
/// exceeds any plane's [`LanePlane::n_sub`].
pub fn comp_row_set(
    latches: &mut [Bf16],
    weights: &[&LanePlane],
    inputs: &LanePlane,
    n_sub: usize,
    precision: TreePrecision,
) {
    assert_eq!(
        latches.len(),
        weights.len(),
        "one latch per bank weight plane"
    );
    assert!(
        weights.iter().all(|p| n_sub <= p.n_sub) && n_sub <= inputs.n_sub,
        "n_sub {n_sub} exceeds a plane"
    );
    for (latches, weights) in latches
        .chunks_mut(MULTI_MAX_BANKS)
        .zip(weights.chunks(MULTI_MAX_BANKS))
    {
        comp_gang(latches, weights, inputs, n_sub, precision);
    }
}

/// [`comp_row_set`] for one gang of at most [`MULTI_MAX_BANKS`] banks.
fn comp_gang(
    latches: &mut [Bf16],
    weights: &[&LanePlane],
    inputs: &LanePlane,
    n_sub: usize,
    precision: TreePrecision,
) {
    let nb = latches.len();
    let mut acc = [0f32; MULTI_MAX_BANKS];
    for (a, l) in acc.iter_mut().zip(latches.iter()) {
        *a = l.to_f32();
    }
    // Roots transposed to `[sub][bank]` so the latch pass below walks
    // contiguous rows of independent accumulators.
    let mut roots_t = [0f32; BLOCK_SUBS * MULTI_MAX_BANKS];
    let mut roots = [0f32; BLOCK_SUBS];
    let mut vb = [0f32; BLOCK_ELEMS];
    for b in 0..n_sub.div_ceil(BLOCK_SUBS) {
        let n = (n_sub - b * BLOCK_SUBS).min(BLOCK_SUBS);
        for (v, &bits) in vb.iter_mut().zip(inputs.block(b)) {
            *v = widen(bits);
        }
        for (k, plane) in weights.iter().enumerate() {
            let wb = plane.block(b);
            match precision {
                TreePrecision::Wide => lane_block_roots_checked::<false>(wb, &vb, n, &mut roots),
                TreePrecision::PerStage => lane_block_roots_checked::<true>(wb, &vb, n, &mut roots),
            }
            for (sub, &r) in roots[..n].iter().enumerate() {
                roots_t[sub * nb + k] = r;
            }
        }
        for row in roots_t[..n * nb].chunks_exact(nb) {
            for (a, &r) in acc[..nb].iter_mut().zip(row) {
                *a = round_bf16_f32(*a + r);
            }
        }
    }
    for (l, &a) in latches.iter_mut().zip(acc.iter()) {
        *l = Bf16::from_f32(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::comp_step_noalloc;

    /// Deterministic 64-bit mixer (splitmix64 finalizer) — no external
    /// crates on the bf16 test path.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform over all non-NaN bf16 bit patterns (NaN inputs are outside
    /// the cross-kernel contract — see the module docs).
    fn random_bf16(state: &mut u64) -> Bf16 {
        let b = Bf16::from_bits(mix(state) as u16);
        if b.is_nan() {
            Bf16::ZERO
        } else {
            b
        }
    }

    fn bits_of(b: Bf16) -> u16 {
        b.to_bits()
    }

    const BOTH: [TreePrecision; 2] = [TreePrecision::Wide, TreePrecision::PerStage];

    #[test]
    fn round_lane_matches_scalar_for_every_high_half_and_tie_pattern() {
        // Every possible top-16-bit pattern (sign, exponent, mantissa head)
        // crossed with the low-half patterns that exercise every rounding
        // case: exact, just-below-tie, tie (even and odd), just-above-tie,
        // and all-ones (carry propagation).
        for hi in 0..=0xFFFFu32 {
            for lo in [0x0000u32, 0x0001, 0x7FFF, 0x8000, 0x8001, 0xFFFF] {
                let x = f32::from_bits((hi << 16) | lo);
                let oracle = Bf16::from_f32(x).to_f32().to_bits();
                assert_eq!(
                    round_bf16_bits(x.to_bits()),
                    oracle,
                    "bits {:#010x}",
                    (hi << 16) | lo
                );
            }
        }
    }

    #[test]
    fn round_lane_matches_scalar_on_random_f32_bits() {
        let mut state = 0x00D1_CE00u64;
        for _ in 0..1_000_000 {
            let bits = mix(&mut state) as u32;
            let x = f32::from_bits(bits);
            assert_eq!(
                round_bf16_bits(bits),
                Bf16::from_f32(x).to_f32().to_bits(),
                "bits {bits:#010x}"
            );
        }
    }

    #[test]
    fn finite_round_equals_full_round_off_nan_for_every_high_half_and_tie_pattern() {
        // Same sweep as the full rounding's: every high half crossed with
        // the boundary low halves. The hoisted inf/NaN fallback of the
        // batched kernels rests on exactly this equality.
        for hi in 0..=0xFFFFu32 {
            for lo in [0x0000u32, 0x0001, 0x7FFF, 0x8000, 0x8001, 0xFFFF] {
                let bits = (hi << 16) | lo;
                let is_nan = (bits & 0x7FFF_FFFF) > 0x7F80_0000;
                let quiet_low_zero = is_nan && lo == 0 && hi & 0x0040 != 0;
                if !is_nan || quiet_low_zero {
                    assert_eq!(
                        round_bf16_bits_finite(bits),
                        round_bf16_bits(bits),
                        "bits {bits:#010x}"
                    );
                }
            }
        }
        // ±inf explicitly, and a NaN the finite form does get wrong (which
        // is why a fallback exists at all).
        for inf in [0x7F80_0000u32, 0xFF80_0000] {
            assert_eq!(round_bf16_bits_finite(inf), inf);
        }
        assert_ne!(
            round_bf16_bits_finite(0x7FFF_FFFF),
            round_bf16_bits(0x7FFF_FFFF)
        );
    }

    fn widen_row(row: &[Bf16]) -> Vec<f32> {
        row.iter().map(|x| x.to_f32()).collect()
    }

    /// The scalar oracle of every batched fold here: one
    /// [`comp_step_noalloc`] per 16-element sub-chunk, in order.
    fn scalar_chain(latch: Bf16, row: &[Bf16], inputs: &[Bf16], precision: TreePrecision) -> Bf16 {
        row.chunks(TREE_ARITY)
            .zip(inputs.chunks(TREE_ARITY))
            .fold(latch, |l, (w, v)| comp_step_noalloc(l, w, v, precision))
    }

    /// Runs one gang through the row-major [`comp_subchunks16_multi`] and
    /// checks every latch against that bank's scalar chain.
    fn check_row_major(
        rows: &[Vec<Bf16>],
        inputs: &[Bf16],
        latches0: &[Bf16],
        precision: TreePrecision,
        ctx: &str,
    ) {
        let planes: Vec<Vec<f32>> = rows.iter().map(|r| widen_row(r)).collect();
        let refs: Vec<&[f32]> = planes.iter().map(Vec::as_slice).collect();
        let mut multi = latches0.to_vec();
        comp_subchunks16_multi(&mut multi, &refs, &widen_row(inputs), precision);
        for (k, row) in rows.iter().enumerate() {
            assert_eq!(
                bits_of(multi[k]),
                bits_of(scalar_chain(latches0[k], row, inputs, precision)),
                "bank {k} of {} {precision:?} {ctx}",
                rows.len()
            );
        }
    }

    #[test]
    fn multi_bank_fold_matches_per_bank_scalar_chains() {
        let mut state = 0x5151_u64;
        // A lone bank, gang sizes 3 and the full 16, and 18 banks (folded
        // sixteen and then two), at row widths that exercise partial and
        // multiple blocks. Full-range operands, infinities included.
        for nb in [1usize, 3, 16, MULTI_MAX_BANKS + 2] {
            for n_sub in [1usize, 2, 3, 5, 7, 32, 45] {
                for precision in BOTH {
                    let rows: Vec<Vec<Bf16>> = (0..nb)
                        .map(|_| (0..n_sub * 16).map(|_| random_bf16(&mut state)).collect())
                        .collect();
                    let inputs: Vec<Bf16> =
                        (0..n_sub * 16).map(|_| random_bf16(&mut state)).collect();
                    let latches0: Vec<Bf16> = (0..nb).map(|_| random_bf16(&mut state)).collect();
                    check_row_major(
                        &rows,
                        &inputs,
                        &latches0,
                        precision,
                        &format!("n_sub={n_sub}"),
                    );
                }
            }
        }
    }

    #[test]
    fn multi_bank_fold_matches_scalar_chains_on_special_values() {
        // One bank's plane carries infinities and a NaN (forcing the
        // full-path redo of its blocks), the neighbours stay tame — the
        // interleaved schedule must not let the special bank perturb
        // them. Four banks take the interleaved path; eighteen put the
        // special bank in the first pass and tame ones in the second.
        let n_sub = 32;
        for nb in [4usize, MULTI_MAX_BANKS + 2] {
            let mut state = 0x7272_u64;
            let mut rows: Vec<Vec<Bf16>> = (0..nb)
                .map(|_| (0..n_sub * 16).map(|_| tame_bf16(&mut state)).collect())
                .collect();
            rows[1][5] = Bf16::INFINITY;
            rows[1][100] = Bf16::NAN;
            rows[1][300] = Bf16::NEG_INFINITY;
            let inputs: Vec<Bf16> = (0..n_sub * 16)
                .map(|_| match tame_bf16(&mut state) {
                    // Keep the planted products away from `0 x inf`.
                    v if v.is_zero() => Bf16::ONE,
                    v => v,
                })
                .collect();
            let latches0: Vec<Bf16> = (0..nb).map(|_| tame_bf16(&mut state)).collect();
            for precision in BOTH {
                check_row_major(&rows, &inputs, &latches0, precision, "specials in bank 1");
            }
        }
    }

    #[test]
    fn multi_bank_fold_with_zero_subchunks_returns_the_latches() {
        let mut latches = [Bf16::from_f32(1.625), Bf16::NEG_ZERO];
        comp_subchunks16_multi(&mut latches, &[&[], &[]], &[], TreePrecision::Wide);
        assert_eq!(bits_of(latches[0]), bits_of(Bf16::from_f32(1.625)));
        assert_eq!(bits_of(latches[1]), bits_of(Bf16::NEG_ZERO));
        comp_subchunks16_multi(&mut [], &[], &[0.0; 16], TreePrecision::Wide);
    }

    #[test]
    #[should_panic(expected = "whole 16-element sub-chunks")]
    fn multi_bank_fold_rejects_ragged_planes() {
        comp_subchunks16_multi(
            &mut [Bf16::ZERO],
            &[&[0.0; 8]],
            &[0.0; 8],
            TreePrecision::Wide,
        );
    }

    /// Moderate magnitudes only: no product, sum or latch of these comes
    /// near an overflow, so a planted special is the only one in a run.
    fn tame_bf16(state: &mut u64) -> Bf16 {
        Bf16::from_f32(((mix(state) % 2001) as f32 - 1000.0) / 256.0)
    }

    /// Runs one row-set through [`comp_row_set`] and checks every latch
    /// against the per-sub-chunk scalar steps and against the row-major
    /// [`comp_subchunks16_multi`].
    fn check_row_set(
        rows: &[Vec<Bf16>],
        inputs: &[Bf16],
        latches0: &[Bf16],
        n_sub: usize,
        precision: TreePrecision,
        ctx: &str,
    ) -> Vec<Bf16> {
        let planes: Vec<LanePlane> = rows.iter().map(|r| LanePlane::from_row(r)).collect();
        let refs: Vec<&LanePlane> = planes.iter().collect();
        let mut lane_major = latches0.to_vec();
        comp_row_set(
            &mut lane_major,
            &refs,
            &LanePlane::from_row(inputs),
            n_sub,
            precision,
        );

        let elems = n_sub * TREE_ARITY;
        let wide: Vec<Vec<f32>> = rows.iter().map(|r| widen_row(&r[..elems])).collect();
        let wide_refs: Vec<&[f32]> = wide.iter().map(Vec::as_slice).collect();
        let mut row_major = latches0.to_vec();
        comp_subchunks16_multi(
            &mut row_major,
            &wide_refs,
            &widen_row(&inputs[..elems]),
            precision,
        );

        for (k, row) in rows.iter().enumerate() {
            let scalar = scalar_chain(latches0[k], &row[..elems], &inputs[..elems], precision);
            assert_eq!(
                bits_of(lane_major[k]),
                bits_of(scalar),
                "vs scalar steps: bank {k} n_sub={n_sub} {precision:?} {ctx}"
            );
            assert_eq!(
                bits_of(lane_major[k]),
                bits_of(row_major[k]),
                "vs row-major: bank {k} n_sub={n_sub} {precision:?} {ctx}"
            );
        }
        lane_major
    }

    #[test]
    fn lane_plane_holds_rows_of_any_length_in_row_order() {
        let mut state = 0x1A9E_u64;
        for len in [0usize, 1, 15, 16, 17, 511, 512, 513, 700, 1024, 1030] {
            // Every bit pattern, NaN payloads included: a plane only stores.
            let row: Vec<Bf16> = (0..len)
                .map(|_| Bf16::from_bits(mix(&mut state) as u16))
                .collect();
            let mut plane = LanePlane::from_row(&row);
            assert_eq!(plane.n_sub(), len.div_ceil(16));
            let capacity = plane.n_sub() * 16;
            for i in 0..capacity {
                let expect = row.get(i).map_or(0.0, |e| e.to_f32());
                assert_eq!(
                    plane.get(i).to_bits(),
                    expect.to_bits(),
                    "len {len} elem {i}"
                );
            }
            // The byte fill builds the identical plane and `read` returns
            // the identical row.
            let mut from_bytes = LanePlane::zeroed(len);
            from_bytes.fill_le_bytes(&crate::slice::pack(&row));
            let mut back = vec![Bf16::ONE; capacity];
            from_bytes.read(0, &mut back);
            for (i, b) in back.iter().enumerate() {
                assert_eq!(from_bytes.get(i).to_bits(), plane.get(i).to_bits());
                assert_eq!(b.to_bits(), row.get(i).map_or(0, |e| e.to_bits()));
            }
            // `write` lands where `fill` would have put the same elements,
            // and a shorter refill zeroes what it no longer covers.
            if len >= 40 {
                let mut patched = row.clone();
                patched[20..40].fill(Bf16::ONE);
                plane.write(20, &patched[20..40]);
                for (i, e) in patched.iter().enumerate() {
                    assert_eq!(plane.get(i).to_bits(), e.to_f32().to_bits());
                }
                plane.fill(&row[..len / 2]);
                for i in 0..capacity {
                    let expect = row[..len / 2].get(i).map_or(0.0, |e| e.to_f32());
                    assert_eq!(plane.get(i).to_bits(), expect.to_bits());
                }
            }
        }
    }

    #[test]
    fn row_set_kernel_matches_scalar_steps_and_row_major_fold() {
        // Full-range operands (infinities included, so overflow, inf - inf
        // and 0 x inf all occur and the slow-path redo runs often), gangs
        // below, at and above MULTI_MAX_BANKS, row widths around the
        // 32-sub-chunk block edge.
        let mut state = 0x1A7E_3A30u64;
        for nb in [1usize, 3, 16, 18] {
            for n_sub in [1usize, 7, 31, 32, 33, 45, 64] {
                for precision in BOTH {
                    let rows: Vec<Vec<Bf16>> = (0..nb)
                        .map(|_| (0..n_sub * 16).map(|_| random_bf16(&mut state)).collect())
                        .collect();
                    let inputs: Vec<Bf16> =
                        (0..n_sub * 16).map(|_| random_bf16(&mut state)).collect();
                    let latches0: Vec<Bf16> = (0..nb).map(|_| random_bf16(&mut state)).collect();
                    check_row_set(&rows, &inputs, &latches0, n_sub, precision, "random");
                }
            }
        }
    }

    #[test]
    fn row_set_kernel_survives_a_special_in_every_block_position() {
        // One special per run, planted at every (element j, sub-chunk s)
        // of a block: an infinite weight, a NaN weight, a product that
        // overflows f32, and a product that is finite in f32 but
        // round-carries into the infinity encoding. Bank 1 stays tame and
        // must not notice.
        let carry = (Bf16::from_bits(0x5FB5), Bf16::from_bits(0x5F35));
        let p = carry.0.to_f32() * carry.1.to_f32();
        assert!(p.is_finite() && round_bf16_f32(p).is_infinite());
        let plants = [
            ("inf", Bf16::INFINITY, None),
            ("nan", Bf16::NAN, None),
            ("overflow", Bf16::MAX, Some(Bf16::from_f32(-2.0))),
            ("carry", carry.0, Some(carry.1)),
        ];
        let mut state = 0x5BEC_1A15u64;
        let n_sub = 32;
        let rows: Vec<Vec<Bf16>> = (0..2)
            .map(|_| (0..n_sub * 16).map(|_| tame_bf16(&mut state)).collect())
            .collect();
        let inputs: Vec<Bf16> = (0..n_sub * 16).map(|_| tame_bf16(&mut state)).collect();
        let latches0 = [tame_bf16(&mut state), tame_bf16(&mut state)];
        for precision in BOTH {
            let clean = check_row_set(&rows, &inputs, &latches0, n_sub, precision, "clean");
            assert!(clean.iter().all(|l| l.is_finite()));
            for (name, weight, input) in plants {
                for pos in 0..n_sub * 16 {
                    let (mut rows, mut inputs) = (rows.clone(), inputs.clone());
                    rows[0][pos] = weight;
                    match input {
                        Some(v) => inputs[pos] = v,
                        // Keep the planted product away from `0 x inf`.
                        None if inputs[pos].is_zero() => inputs[pos] = Bf16::ONE,
                        None => {}
                    }
                    let ctx = format!("{name} at j={} s={}", pos % 16, pos / 16);
                    let out = check_row_set(&rows, &inputs, &latches0, n_sub, precision, &ctx);
                    assert!(!out[0].is_finite(), "{ctx}: the special must surface");
                    if input.is_none() {
                        assert_eq!(bits_of(out[1]), bits_of(clean[1]), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn both_folds_match_scalar_chains_on_a_palette_of_special_values() {
        // No NaN *inputs* (outside the contract, see module docs) — but
        // plenty of NaN *creation*: 0 × inf products and inf - inf adder
        // stages, which canonicalize identically in every path.
        let specials = [
            Bf16::ZERO,
            Bf16::NEG_ZERO,
            Bf16::ONE,
            Bf16::INFINITY,
            Bf16::NEG_INFINITY,
            Bf16::MAX,
            Bf16::from_bits(0x0080), // smallest positive normal
            Bf16::from_bits(0x0001), // smallest subnormal
            Bf16::from_f32(-2.5),
        ];
        let mut state = 0x5EEDu64;
        let mut pick = |n: usize| -> Vec<Bf16> {
            (0..n)
                .map(|_| specials[(mix(&mut state) as usize) % specials.len()])
                .collect()
        };
        for _ in 0..2_500 {
            // One sub-chunk is a single 16-wide tree; two add a latch
            // that may already be infinite or NaN.
            for n_sub in [1usize, 2] {
                let rows = [pick(n_sub * 16), pick(n_sub * 16)];
                let (inputs, latches0) = (pick(n_sub * 16), pick(2));
                for precision in BOTH {
                    check_row_set(&rows, &inputs, &latches0, n_sub, precision, "palette");
                }
            }
        }
    }

    #[test]
    fn lanes_past_n_sub_are_computed_but_never_folded() {
        // A `-0.0` latch fed only `-0.0` roots must stay `-0.0`; folding a
        // single padded lane (root `+0.0`) would flip it to `+0.0`.
        let neg_zero_products = |elems: usize| -> (Vec<Bf16>, Vec<Bf16>) {
            (vec![-Bf16::ONE; elems], vec![Bf16::ZERO; elems])
        };
        for n_sub in [1usize, 7, 31, 33, 45] {
            for precision in BOTH {
                let (row, inputs) = neg_zero_products(n_sub * 16);
                let out = check_row_set(
                    &[row],
                    &inputs,
                    &[Bf16::NEG_ZERO],
                    n_sub,
                    precision,
                    "-0.0 latch, zero-padded plane",
                );
                assert_eq!(bits_of(out[0]), bits_of(Bf16::NEG_ZERO));

                // The same with live data past `n_sub`: a wider plane whose
                // unfolded lanes hold infinities and NaNs.
                let (mut row, mut inputs) = neg_zero_products(64 * 16);
                for e in n_sub * 16..64 * 16 {
                    row[e] = [Bf16::INFINITY, Bf16::NAN, Bf16::ONE][e % 3];
                    inputs[e] = [Bf16::NEG_INFINITY, Bf16::ONE, Bf16::NAN][e % 3];
                }
                let out = check_row_set(
                    &[row],
                    &inputs,
                    &[Bf16::NEG_ZERO],
                    n_sub,
                    precision,
                    "-0.0 latch, specials past n_sub",
                );
                assert_eq!(bits_of(out[0]), bits_of(Bf16::NEG_ZERO));
            }
        }
    }

    #[test]
    fn row_set_kernel_with_nothing_to_fold_returns_the_latches() {
        let plane = LanePlane::zeroed(512);
        let mut latches = [Bf16::from_f32(1.625), Bf16::NEG_ZERO];
        comp_row_set(
            &mut latches,
            &[&plane, &plane],
            &plane,
            0,
            TreePrecision::Wide,
        );
        assert_eq!(bits_of(latches[0]), bits_of(Bf16::from_f32(1.625)));
        assert_eq!(bits_of(latches[1]), bits_of(Bf16::NEG_ZERO));
        comp_row_set(&mut [], &[], &plane, 32, TreePrecision::Wide);
    }

    #[test]
    #[should_panic(expected = "exceeds a plane")]
    fn row_set_kernel_rejects_n_sub_past_a_plane() {
        let (short, long) = (LanePlane::zeroed(16), LanePlane::zeroed(512));
        comp_row_set(&mut [Bf16::ZERO], &[&short], &long, 2, TreePrecision::Wide);
    }
}
