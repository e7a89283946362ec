//! Explicit-width, autovectorizer-friendly bf16 COMP kernels.
//!
//! The scalar kernels in [`reduce`](crate::reduce) walk the 16-wide MAC
//! tree through `Bf16` values one element at a time, with a data-dependent
//! branch (the NaN check) inside every rounding step. These kernels compute
//! the *same arithmetic DAG* over fixed-width lane arrays (`[u32; 8]` /
//! `[f32; 16]` blocks with straight-line tree levels) and a branchless
//! rounding select, so the compiler's autovectorizer can emit SIMD code on
//! stable Rust — no nightly features, no `unsafe`, no target-specific
//! intrinsics.
//!
//! Bit-exactness contract: every function here is proven (exhaustively for
//! the rounding lane, property-tested for the kernels) to produce the same
//! bits as its scalar oracle in [`reduce`](crate::reduce):
//!
//! * [`round_bf16_f32`] ≡ `Bf16::from_f32(x).to_f32()` for **all** `f32`
//!   bit patterns, including NaN quieting and overflow-to-infinity.
//! * [`dot16_wide_simd`] ≡ [`dot16_wide`](crate::reduce::dot16_wide) —
//!   identical product rounding and the identical `(0,1)(2,3)…` pairwise
//!   tree-level structure of
//!   [`tree_reduce_wide_into`](crate::reduce::tree_reduce_wide_into).
//! * [`dot16_per_stage_simd`] ≡
//!   [`dot16_per_stage`](crate::reduce::dot16_per_stage), preserving the
//!   per-stage bf16 rounding order of the paper's 16-wide adder tree.
//! * The batched [`comp_subchunks16_wide`] / [`comp_subchunks16_per_stage`]
//!   fold a whole row of sub-chunk COMPs in one pass and equal the
//!   corresponding `comp_step_*` loop step for step, latch value included.
//! * [`comp_row_set`], the kernel the simulator runs, does the same for
//!   every bank of a row-set over lane-major [`LanePlane`]s.
//!
//! Two layouts of the same exact `f32` widenings (`Bf16::to_f32` is exact,
//! so no information is lost). The row-major kernels
//! ([`comp_subchunks16`], [`comp_subchunks16_multi`]) take plain slices
//! with each sub-chunk's 16 elements contiguous, so every adder-tree level
//! is a horizontal pair-sum the vectorizer must build from shuffles; they
//! are kept as test references and for the benchmark's kernel probe.
//! [`comp_row_set`] takes [`LanePlane`]s, which store a block of 32
//! sub-chunks as `[element][sub-chunk]`: products and all four tree levels
//! are then vertical passes over 32 contiguous lanes with no shuffle. The
//! decoded-weight cache and the device global buffer maintain such planes,
//! and only this module knows their index math.
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

/// Lane width of the explicit-width rounding blocks. Eight `u32` lanes map
/// onto two SSE2 vectors or one AVX2 vector without the compiler having to
/// guess a profitable width.
pub const LANES: usize = 8;

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
pub fn round_bf16_bits(bits: u32) -> u32 {
    let is_nan = u32::from((bits & 0x7FFF_FFFF) > 0x7F80_0000).wrapping_neg();
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1)) & 0xFFFF_0000;
    let quiet = ((bits >> 16) | 0x0040) << 16;
    (rounded & !is_nan) | (quiet & is_nan)
}

/// [`round_bf16_bits`] lifted to `f32`: the value `x` rounds to when stored
/// in a bf16 register and read back.
#[inline]
#[must_use]
pub fn round_bf16_f32(x: f32) -> f32 {
    f32::from_bits(round_bf16_bits(x.to_bits()))
}

/// Rounds [`LANES`] packed `f32` bit patterns to bf16-valued bit patterns
/// in place — the `u32x8`-style block the kernels below are built from.
#[inline]
pub fn round_bf16_lanes(lanes: &mut [u32; LANES]) {
    for lane in lanes.iter_mut() {
        *lane = round_bf16_bits(*lane);
    }
}

/// Rounds every element of an `f32` slice to its bf16 value in place,
/// processing [`LANES`]-wide blocks (the remainder goes through the same
/// scalar lane function, so the result is identical for any length).
#[inline]
pub fn round_bf16_slice(values: &mut [f32]) {
    let mut chunks = values.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        let mut lanes = [0u32; LANES];
        for (l, v) in lanes.iter_mut().zip(chunk.iter()) {
            *l = v.to_bits();
        }
        round_bf16_lanes(&mut lanes);
        for (v, l) in chunk.iter_mut().zip(lanes.iter()) {
            *v = f32::from_bits(*l);
        }
    }
    for v in chunks.into_remainder() {
        *v = round_bf16_f32(*v);
    }
}

/// One straight-line pass of the 16-input wide adder tree: the exact
/// `(0,1)(2,3)…` pairing of
/// [`tree_reduce_wide_into`](crate::reduce::tree_reduce_wide_into) for a
/// full 16-element level, unrolled into fixed 8/4/2/1 levels so there is no
/// loop-carried dependence for the vectorizer to trip over.
#[inline]
#[must_use]
fn tree16_wide(p: &[f32; TREE_ARITY]) -> f32 {
    let mut l1 = [0f32; 8];
    for i in 0..8 {
        l1[i] = p[2 * i] + p[2 * i + 1];
    }
    let mut l2 = [0f32; 4];
    for i in 0..4 {
        l2[i] = l1[2 * i] + l1[2 * i + 1];
    }
    let l3 = [l2[0] + l2[1], l2[2] + l2[3]];
    l3[0] + l3[1]
}

/// The same tree with strict per-stage bf16 rounding: every adder output is
/// rounded back to a bf16 value before feeding the next stage, matching
/// [`tree_reduce_bf16_into`](crate::reduce::tree_reduce_bf16_into) on a
/// full 16-element level. Inputs must already be bf16-valued.
#[inline]
#[must_use]
fn tree16_per_stage(p: &[f32; TREE_ARITY]) -> f32 {
    let mut l1 = [0u32; 8];
    for i in 0..8 {
        l1[i] = (p[2 * i] + p[2 * i + 1]).to_bits();
    }
    round_bf16_lanes(&mut l1);
    let mut l2 = [0f32; 4];
    for i in 0..4 {
        l2[i] = round_bf16_f32(f32::from_bits(l1[2 * i]) + f32::from_bits(l1[2 * i + 1]));
    }
    let l3 = [round_bf16_f32(l2[0] + l2[1]), round_bf16_f32(l2[2] + l2[3])];
    round_bf16_f32(l3[0] + l3[1])
}

/// The 16 rounded products `round(w[i] * v[i])` of a COMP step, from exact
/// `f32` planes. Each product is rounded to its bf16 value exactly as
/// `Bf16::mul_round` does.
#[inline]
#[must_use]
fn products16(weights: &[f32; TREE_ARITY], inputs: &[f32; TREE_ARITY]) -> [f32; TREE_ARITY] {
    let mut bits = [[0u32; LANES]; 2];
    for (half, lanes) in bits.iter_mut().enumerate() {
        for (i, b) in lanes.iter_mut().enumerate() {
            let j = half * LANES + i;
            *b = (weights[j] * inputs[j]).to_bits();
        }
        round_bf16_lanes(lanes);
    }
    let mut p = [0f32; TREE_ARITY];
    for (j, v) in p.iter_mut().enumerate() {
        *v = f32::from_bits(bits[j / LANES][j % LANES]);
    }
    p
}

#[inline]
fn widen16(values: &[Bf16; TREE_ARITY]) -> [f32; TREE_ARITY] {
    let mut wide = [0f32; TREE_ARITY];
    for (w, v) in wide.iter_mut().zip(values.iter()) {
        *w = v.to_f32();
    }
    wide
}

/// SIMD-friendly [`dot16_wide`](crate::reduce::dot16_wide): one full COMP
/// step (16 rounded products, wide `f32` tree) over exact `f32` planes.
#[inline]
#[must_use]
pub fn dot16_wide_planes_simd(weights: &[f32; TREE_ARITY], inputs: &[f32; TREE_ARITY]) -> f32 {
    tree16_wide(&products16(weights, inputs))
}

/// SIMD-friendly [`dot16_wide`](crate::reduce::dot16_wide) over bf16
/// operands (widened on entry; `Bf16::to_f32` is exact).
#[inline]
#[must_use]
pub fn dot16_wide_simd(weights: &[Bf16; TREE_ARITY], inputs: &[Bf16; TREE_ARITY]) -> f32 {
    dot16_wide_planes_simd(&widen16(weights), &widen16(inputs))
}

/// SIMD-friendly [`dot16_per_stage`](crate::reduce::dot16_per_stage) over
/// exact `f32` planes: rounded products, then per-stage rounded tree. The
/// root is a bf16-valued `f32`; `Bf16::from_f32` on it is the identity.
#[inline]
#[must_use]
pub fn dot16_per_stage_planes_simd(
    weights: &[f32; TREE_ARITY],
    inputs: &[f32; TREE_ARITY],
) -> Bf16 {
    Bf16::from_f32(tree16_per_stage(&products16(weights, inputs)))
}

/// SIMD-friendly [`dot16_per_stage`](crate::reduce::dot16_per_stage) over
/// bf16 operands.
#[inline]
#[must_use]
pub fn dot16_per_stage_simd(weights: &[Bf16; TREE_ARITY], inputs: &[Bf16; TREE_ARITY]) -> Bf16 {
    dot16_per_stage_planes_simd(&widen16(weights), &widen16(inputs))
}

/// Folds a whole row of 16-wide COMP steps into the result latch in one
/// pass: for each consecutive 16-element sub-chunk of `weights` × `inputs`
/// (exact `f32` planes), performs one tree reduction and one latch
/// accumulation in the given `precision` — step for step identical to
/// calling [`comp_step_prewidened`](crate::reduce::comp_step_prewidened)
/// (Wide) or [`comp_step_noalloc`](crate::reduce::comp_step_noalloc)
/// (PerStage, with the bf16 weights these planes widen) once per sub-chunk,
/// in sub-chunk order.
///
/// # Panics
///
/// Panics if the slices differ in length or the length is not a multiple
/// of [`TREE_ARITY`].
#[must_use]
pub fn comp_subchunks16(
    latch: Bf16,
    weights: &[f32],
    inputs: &[f32],
    precision: TreePrecision,
) -> Bf16 {
    assert_eq!(
        weights.len(),
        inputs.len(),
        "weight/input planes must pair up"
    );
    assert_eq!(
        weights.len() % TREE_ARITY,
        0,
        "batched COMP planes must be whole 16-element sub-chunks"
    );
    match precision {
        TreePrecision::Wide => comp_subchunks16_wide(latch, weights, inputs),
        TreePrecision::PerStage => comp_subchunks16_per_stage(latch, weights, inputs),
    }
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
/// `ROUND`). Identical arithmetic to a [`products16`]-style pass followed
/// by [`tree_level_flat`], but the rounded products never round-trip
/// through memory — the level-1 value is formed in registers.
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

/// Wide-discipline batched fold: `latch ← round(latch + tree(sub))` per
/// sub-chunk. The latch stays a bf16-valued `f32` across iterations, so
/// each step is exactly `Bf16::accumulate_wide`. Internally the fold runs
/// level by level over [`BLOCK_SUBS`]-sub-chunk blocks (products for every
/// sub-chunk, then each tree level flat across the block) — the same
/// arithmetic DAG per sub-chunk, so bit-exactness with the per-sub-chunk
/// scalar steps is preserved, but every pass is a straight-line lane loop.
#[inline]
#[must_use]
fn comp_subchunks16_wide(latch: Bf16, weights: &[f32], inputs: &[f32]) -> Bf16 {
    let mut acc = latch.to_f32();
    for (wb, vb) in weights.chunks(BLOCK_ELEMS).zip(inputs.chunks(BLOCK_ELEMS)) {
        let mut roots = [0f32; BLOCK_SUBS];
        block_roots::<false>(wb, vb, &mut roots);
        for &root in roots.iter().take(wb.len() / 16) {
            acc = round_bf16_f32(acc + root);
        }
    }
    Bf16::from_f32(acc)
}

/// Per-stage batched fold: `latch ← round(latch + root)` per sub-chunk,
/// where `root` is the per-stage-rounded tree output — exactly the
/// `latch + tree` bf16 addition of the scalar per-stage step. Flattened
/// across [`BLOCK_SUBS`]-sub-chunk blocks like the wide fold, with every
/// adder output rounded before the next level.
#[inline]
#[must_use]
fn comp_subchunks16_per_stage(latch: Bf16, weights: &[f32], inputs: &[f32]) -> Bf16 {
    let mut acc = latch.to_f32();
    for (wb, vb) in weights.chunks(BLOCK_ELEMS).zip(inputs.chunks(BLOCK_ELEMS)) {
        let mut roots = [0f32; BLOCK_SUBS];
        block_roots::<true>(wb, vb, &mut roots);
        for &root in roots.iter().take(wb.len() / 16) {
            acc = round_bf16_f32(acc + root);
        }
    }
    Bf16::from_f32(acc)
}

/// Bank gangs larger than this fall back to independent per-bank folds in
/// [`comp_subchunks16_multi`] (Newton gangs all 16 banks of a channel, so
/// the interleaved path covers every real configuration).
pub const MULTI_MAX_BANKS: usize = 16;

/// Multi-bank batched fold: one [`comp_subchunks16`] per bank, computed
/// together. `latches[k]` is folded against `weights[k]` (bank `k`'s row
/// plane) and the shared `inputs` plane — bit-exact with calling
/// [`comp_subchunks16`] once per bank, because banks never interact: the
/// per-bank arithmetic DAG is [`block_roots`] plus the same serial latch
/// chain, only *scheduled* differently.
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
        for (latch, plane) in latches.iter_mut().zip(weights) {
            *latch = comp_subchunks16(*latch, plane, inputs, precision);
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

/// A row of bf16 values, exactly widened to `f32` and stored **lane-major**
/// for [`comp_row_set`].
///
/// The row is cut into 16-element sub-chunks and the sub-chunks into
/// blocks of 32. Inside a block the layout is
/// `[element j][sub-chunk s]`: element `j` of sub-chunk `s` of block `b`
/// lives at `b * 512 + j * 32 + s`, so the 32 sub-chunks' `j`-th elements
/// are contiguous. The last block is padded with `+0.0` to full size.
/// This module is the only place that knows the index math.
///
/// A plane can only be filled from [`Bf16`] values or their little-endian
/// bytes, so every lane is an exact widening (low 16 bits zero) — the
/// precondition of the kernel's hoisted inf/NaN test, and what makes
/// [`read`](LanePlane::read) lossless.
#[derive(Debug, Clone)]
pub struct LanePlane {
    lanes: Box<[f32]>,
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
            lanes: vec![0.0; blocks * BLOCK_ELEMS].into_boxed_slice(),
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
        self.fill_with(row, Bf16::to_f32);
    }

    /// [`fill`](LanePlane::fill) from the row as DRAM stores it:
    /// little-endian bf16 pairs, decoded straight into the plane with no
    /// intermediate [`Bf16`] row. Every lane is still an exact widening.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is odd-sized or holds more elements than the plane.
    pub fn fill_le_bytes(&mut self, bytes: &[u8]) {
        let (row, odd) = bytes.as_chunks::<2>();
        assert!(odd.is_empty(), "{} bytes are not bf16 pairs", bytes.len());
        self.fill_with(row, |pair| Bf16::from_le_bytes(pair).to_f32());
    }

    /// The one transposing fill; `widen` must be an exact bf16 widening.
    /// Whole blocks are transposed with sequential writes and no
    /// per-element index arithmetic (rows are decoded cold on the
    /// weight-reload path, so this loop is paid per use there).
    #[inline]
    fn fill_with<T: Copy>(&mut self, row: &[T], widen: impl Fn(T) -> f32) {
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
                        *lane = widen(sub[j]);
                    }
                } else {
                    for (s, lane) in lane_row.iter_mut().enumerate() {
                        *lane = block.get(s * TREE_ARITY + j).map_or(0.0, |&e| widen(e));
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
            self.lanes[lane_index(elem)] = v.to_f32();
        }
    }

    /// Reads elements `start..start + out.len()` (row order) back as
    /// [`Bf16`] — the inverse of [`write`](LanePlane::write), exact because
    /// every lane's low 16 bits are zero.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the plane.
    pub fn read(&self, start: usize, out: &mut [Bf16]) {
        for (elem, o) in (start..).zip(out) {
            *o = Bf16::from_bits((self.lanes[lane_index(elem)].to_bits() >> 16) as u16);
        }
    }

    /// Element `elem` (row order) as stored.
    ///
    /// # Panics
    ///
    /// Panics if `elem` is past the plane.
    #[must_use]
    pub fn get(&self, elem: usize) -> f32 {
        self.lanes[lane_index(elem)]
    }

    #[inline]
    fn block(&self, b: usize) -> &[f32; BLOCK_ELEMS] {
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
/// `(0,1)(2,3)…` pairing, per-level rounding when `ROUND`.
///
/// With `FULL` unset every rounding is [`round_bf16_bits_finite`], which
/// is only trusted when no root comes out inf/NaN (see [`comp_row_set`]).
#[inline]
fn lane_block_roots<const ROUND: bool, const FULL: bool>(
    w: &[f32; BLOCK_ELEMS],
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
            *o = round::<FULL>(x * y);
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
    w: &[f32; BLOCK_ELEMS],
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
/// Bit-exact with one [`comp_step_prewidened`](crate::reduce::comp_step_prewidened)
/// (Wide) or [`comp_step_noalloc`](crate::reduce::comp_step_noalloc)
/// (PerStage) per bank per sub-chunk in ascending order, and with the
/// row-major [`comp_subchunks16_multi`]: the per-sub-chunk arithmetic DAG
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
    for b in 0..n_sub.div_ceil(BLOCK_SUBS) {
        let n = (n_sub - b * BLOCK_SUBS).min(BLOCK_SUBS);
        let vb = inputs.block(b);
        for (k, plane) in weights.iter().enumerate() {
            let wb = plane.block(b);
            match precision {
                TreePrecision::Wide => lane_block_roots_checked::<false>(wb, vb, n, &mut roots),
                TreePrecision::PerStage => lane_block_roots_checked::<true>(wb, vb, n, &mut roots),
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
    use crate::reduce::{
        comp_step_noalloc, comp_step_prewidened, dot16_per_stage, dot16_wide, dot16_wide_prewidened,
    };

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

    #[test]
    fn round_slice_matches_lane_for_ragged_lengths() {
        let mut state = 7u64;
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 64] {
            let values: Vec<f32> = (0..len)
                .map(|_| f32::from_bits(mix(&mut state) as u32))
                .collect();
            let mut rounded = values.clone();
            round_bf16_slice(&mut rounded);
            for (r, v) in rounded.iter().zip(values.iter()) {
                assert_eq!(r.to_bits(), round_bf16_f32(*v).to_bits());
            }
        }
    }

    #[test]
    fn dot16_kernels_match_scalar_oracles_on_random_operands() {
        let mut state = 0xAB5E_11E5u64;
        for _ in 0..20_000 {
            let w: [Bf16; 16] = core::array::from_fn(|_| random_bf16(&mut state));
            let v: [Bf16; 16] = core::array::from_fn(|_| random_bf16(&mut state));
            let wide = dot16_wide(&w, &v);
            assert_eq!(dot16_wide_simd(&w, &v).to_bits(), wide.to_bits());
            let w_plane: [f32; 16] = core::array::from_fn(|i| w[i].to_f32());
            let v_plane: [f32; 16] = core::array::from_fn(|i| v[i].to_f32());
            assert_eq!(
                dot16_wide_planes_simd(&w_plane, &v_plane).to_bits(),
                dot16_wide_prewidened(&w_plane, &v).to_bits()
            );
            let staged = dot16_per_stage(&w, &v);
            assert_eq!(bits_of(dot16_per_stage_simd(&w, &v)), bits_of(staged));
            assert_eq!(
                bits_of(dot16_per_stage_planes_simd(&w_plane, &v_plane)),
                bits_of(staged)
            );
        }
    }

    #[test]
    fn dot16_kernels_match_scalar_oracles_on_special_values() {
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
            Bf16::MIN_POSITIVE,
            Bf16::from_bits(0x0001), // smallest subnormal
            Bf16::from_f32(-2.5),
        ];
        let mut state = 0x5EEDu64;
        for _ in 0..5_000 {
            let w: [Bf16; 16] =
                core::array::from_fn(|_| specials[(mix(&mut state) as usize) % specials.len()]);
            let v: [Bf16; 16] =
                core::array::from_fn(|_| specials[(mix(&mut state) as usize) % specials.len()]);
            assert_eq!(
                dot16_wide_simd(&w, &v).to_bits(),
                dot16_wide(&w, &v).to_bits()
            );
            assert_eq!(
                bits_of(dot16_per_stage_simd(&w, &v)),
                bits_of(dot16_per_stage(&w, &v))
            );
        }
    }

    #[test]
    fn batched_wide_fold_matches_per_subchunk_scalar_steps() {
        let mut state = 0xB47C_4ED0u64;
        for n_sub in [1usize, 2, 3, 7, 32] {
            let w: Vec<Bf16> = (0..n_sub * 16).map(|_| random_bf16(&mut state)).collect();
            let v: Vec<Bf16> = (0..n_sub * 16).map(|_| random_bf16(&mut state)).collect();
            let w_plane: Vec<f32> = w.iter().map(|x| x.to_f32()).collect();
            let v_plane: Vec<f32> = v.iter().map(|x| x.to_f32()).collect();
            let latch0 = random_bf16(&mut state);

            let mut oracle = latch0;
            for s in 0..n_sub {
                oracle = comp_step_prewidened(
                    oracle,
                    &w_plane[s * 16..(s + 1) * 16],
                    &v[s * 16..(s + 1) * 16],
                    TreePrecision::Wide,
                );
            }
            let batched = comp_subchunks16(latch0, &w_plane, &v_plane, TreePrecision::Wide);
            assert_eq!(bits_of(batched), bits_of(oracle), "n_sub={n_sub}");
        }
    }

    #[test]
    fn batched_per_stage_fold_matches_per_subchunk_scalar_steps() {
        let mut state = 0x9E15_7A6Eu64;
        for n_sub in [1usize, 2, 5, 32] {
            let w: Vec<Bf16> = (0..n_sub * 16).map(|_| random_bf16(&mut state)).collect();
            let v: Vec<Bf16> = (0..n_sub * 16).map(|_| random_bf16(&mut state)).collect();
            let w_plane: Vec<f32> = w.iter().map(|x| x.to_f32()).collect();
            let v_plane: Vec<f32> = v.iter().map(|x| x.to_f32()).collect();
            let latch0 = random_bf16(&mut state);

            let mut oracle = latch0;
            for s in 0..n_sub {
                oracle = comp_step_noalloc(
                    oracle,
                    &w[s * 16..(s + 1) * 16],
                    &v[s * 16..(s + 1) * 16],
                    TreePrecision::PerStage,
                );
            }
            let batched = comp_subchunks16(latch0, &w_plane, &v_plane, TreePrecision::PerStage);
            assert_eq!(bits_of(batched), bits_of(oracle), "n_sub={n_sub}");
        }
    }

    #[test]
    fn batched_fold_with_zero_subchunks_returns_the_latch() {
        let latch = Bf16::from_f32(1.625);
        assert_eq!(
            bits_of(comp_subchunks16(latch, &[], &[], TreePrecision::Wide)),
            bits_of(latch)
        );
    }

    #[test]
    #[should_panic(expected = "whole 16-element sub-chunks")]
    fn batched_fold_rejects_ragged_planes() {
        let _ = comp_subchunks16(Bf16::ZERO, &[0.0; 8], &[0.0; 8], TreePrecision::Wide);
    }

    #[test]
    fn multi_bank_fold_matches_per_bank_folds() {
        let mut state = 0x5151_u64;
        // Cover the interleaved path at gang sizes 1, 3, and the full 16,
        // plus the >MULTI_MAX_BANKS fallback, at row widths that exercise
        // partial and multiple blocks.
        for &nb in &[1usize, 3, 16, MULTI_MAX_BANKS + 2] {
            for &n_sub in &[1usize, 7, 32, 45] {
                for &precision in &[TreePrecision::Wide, TreePrecision::PerStage] {
                    let planes: Vec<Vec<f32>> = (0..nb)
                        .map(|_| {
                            (0..n_sub * 16)
                                .map(|_| random_bf16(&mut state).to_f32())
                                .collect()
                        })
                        .collect();
                    let inputs: Vec<f32> = (0..n_sub * 16)
                        .map(|_| random_bf16(&mut state).to_f32())
                        .collect();
                    let latches0: Vec<Bf16> = (0..nb).map(|_| random_bf16(&mut state)).collect();

                    let refs: Vec<&[f32]> = planes.iter().map(Vec::as_slice).collect();
                    let mut multi = latches0.clone();
                    comp_subchunks16_multi(&mut multi, &refs, &inputs, precision);

                    for k in 0..nb {
                        let single = comp_subchunks16(latches0[k], &planes[k], &inputs, precision);
                        assert_eq!(
                            bits_of(multi[k]),
                            bits_of(single),
                            "nb={nb} n_sub={n_sub} bank={k} {precision:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn multi_bank_fold_matches_per_bank_folds_on_special_values() {
        // One bank's plane carries infinities and NaNs (forcing the
        // full-path redo of its blocks), the neighbours stay finite — the
        // interleaved schedule must not let the special bank perturb them.
        let n_sub = 32;
        let mut state = 0x7272_u64;
        let mut planes: Vec<Vec<f32>> = (0..4)
            .map(|_| {
                (0..n_sub * 16)
                    .map(|_| random_bf16(&mut state).to_f32())
                    .collect()
            })
            .collect();
        planes[1][5] = f32::INFINITY;
        planes[1][100] = f32::NAN;
        planes[1][300] = f32::NEG_INFINITY;
        let inputs: Vec<f32> = (0..n_sub * 16)
            .map(|_| random_bf16(&mut state).to_f32())
            .collect();
        let latches0: Vec<Bf16> = (0..4).map(|_| random_bf16(&mut state)).collect();

        for &precision in &[TreePrecision::Wide, TreePrecision::PerStage] {
            let refs: Vec<&[f32]> = planes.iter().map(Vec::as_slice).collect();
            let mut multi = latches0.clone();
            comp_subchunks16_multi(&mut multi, &refs, &inputs, precision);
            for k in 0..4 {
                let single = comp_subchunks16(latches0[k], &planes[k], &inputs, precision);
                assert_eq!(bits_of(multi[k]), bits_of(single), "bank={k} {precision:?}");
            }
        }
    }
    /// Moderate magnitudes only: no product, sum or latch of these comes
    /// near an overflow, so a planted special is the only one in a run.
    fn tame_bf16(state: &mut u64) -> Bf16 {
        Bf16::from_f32(((mix(state) % 2001) as f32 - 1000.0) / 256.0)
    }

    fn widen(row: &[Bf16]) -> Vec<f32> {
        row.iter().map(|x| x.to_f32()).collect()
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
        let wide: Vec<Vec<f32>> = rows.iter().map(|r| widen(&r[..elems])).collect();
        let wide_refs: Vec<&[f32]> = wide.iter().map(Vec::as_slice).collect();
        let mut row_major = latches0.to_vec();
        comp_subchunks16_multi(
            &mut row_major,
            &wide_refs,
            &widen(&inputs[..elems]),
            precision,
        );

        for (k, row) in rows.iter().enumerate() {
            let mut scalar = latches0[k];
            for s in 0..n_sub {
                let span = s * TREE_ARITY..(s + 1) * TREE_ARITY;
                scalar = match precision {
                    TreePrecision::Wide => comp_step_prewidened(
                        scalar,
                        &wide[k][span.clone()],
                        &inputs[span],
                        precision,
                    ),
                    TreePrecision::PerStage => {
                        comp_step_noalloc(scalar, &row[span.clone()], &inputs[span], precision)
                    }
                };
            }
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

    const BOTH: [TreePrecision; 2] = [TreePrecision::Wide, TreePrecision::PerStage];

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
    fn lanes_past_n_sub_are_computed_but_never_folded() {
        // A `-0.0` latch fed only `-0.0` roots must stay `-0.0`; folding a
        // single padded lane (root `+0.0`) would flip it to `+0.0`.
        let neg_zero_products = |elems: usize| -> (Vec<Bf16>, Vec<Bf16>) {
            (vec![Bf16::NEG_ONE; elems], vec![Bf16::ZERO; elems])
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
