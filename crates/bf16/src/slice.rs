//! Bulk conversions and DRAM-row byte packing for bf16 buffers.
//!
//! Newton's DRAM rows store matrix chunks as contiguous little-endian bf16
//! words ("512 bfloat16 elements per DRAM row", Sec. III-C). These helpers
//! convert between `f32` host data, [`Bf16`] buffers, and the raw row bytes
//! that `newton-dram` banks store.

use crate::Bf16;
use std::error::Error;
use std::fmt;

/// An error decoding bf16 elements from raw bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeBytesError {
    len: usize,
}

impl fmt::Display for DecodeBytesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "byte buffer length {} is not a multiple of 2 (bf16 element size)",
            self.len
        )
    }
}

impl Error for DecodeBytesError {}

/// Converts a slice of `f32` to a vector of [`Bf16`] (round-to-nearest-even
/// per element).
///
/// # Example
///
/// ```
/// use newton_bf16::{Bf16, slice};
/// let v = slice::from_f32(&[1.0, 2.0]);
/// assert_eq!(v, vec![Bf16::ONE, Bf16::from_f32(2.0)]);
/// ```
#[must_use]
pub fn from_f32(values: &[f32]) -> Vec<Bf16> {
    values.iter().copied().map(Bf16::from_f32).collect()
}

/// Packs bf16 elements into little-endian bytes, the layout DRAM rows use.
///
/// # Example
///
/// ```
/// use newton_bf16::{Bf16, slice};
/// let bytes = slice::pack(&[Bf16::from_bits(0x0201)]);
/// assert_eq!(bytes, vec![0x01, 0x02]);
/// ```
#[must_use]
pub fn pack(values: &[Bf16]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 2);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Packs bf16 elements into a pre-existing byte buffer region.
///
/// # Panics
///
/// Panics if `out.len() != values.len() * 2`.
pub fn pack_into(values: &[Bf16], out: &mut [u8]) {
    assert_eq!(
        out.len(),
        values.len() * 2,
        "pack_into: output buffer must be exactly 2 bytes per element"
    );
    for (v, chunk) in values.iter().zip(out.chunks_exact_mut(2)) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

/// Unpacks little-endian bytes into bf16 elements.
///
/// # Errors
///
/// Returns [`DecodeBytesError`] if `bytes.len()` is odd.
///
/// # Example
///
/// ```
/// use newton_bf16::{Bf16, slice};
/// let vals = slice::unpack(&[0x80, 0x3F]).unwrap();
/// assert_eq!(vals, vec![Bf16::ONE]);
/// ```
pub fn unpack(bytes: &[u8]) -> Result<Vec<Bf16>, DecodeBytesError> {
    if !bytes.len().is_multiple_of(2) {
        return Err(DecodeBytesError { len: bytes.len() });
    }
    Ok(bytes
        .chunks_exact(2)
        .map(|c| Bf16::from_le_bytes([c[0], c[1]]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip_preserves_representable_values() {
        let input = [0.0_f32, 1.0, -2.5, 0.15625, 1024.0];
        let bf = from_f32(&input);
        let back: Vec<f32> = bf.iter().map(|v| v.to_f32()).collect();
        assert_eq!(back, input.to_vec());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let values: Vec<Bf16> = (0..512u16).map(Bf16::from_bits).collect();
        let bytes = pack(&values);
        assert_eq!(bytes.len(), 1024);
        assert_eq!(unpack(&bytes).unwrap(), values);
    }

    #[test]
    fn pack_into_writes_exact_region() {
        let values = [Bf16::ONE, -Bf16::ONE];
        let mut buf = [0u8; 4];
        pack_into(&values, &mut buf);
        assert_eq!(unpack(&buf).unwrap(), values.to_vec());
    }

    #[test]
    #[should_panic(expected = "2 bytes per element")]
    fn pack_into_rejects_wrong_size() {
        pack_into(&[Bf16::ONE], &mut [0u8; 4]);
    }

    #[test]
    fn unpack_rejects_odd_lengths() {
        let err = unpack(&[1, 2, 3]).unwrap_err();
        assert!(err.to_string().contains("not a multiple of 2"));
    }
}
