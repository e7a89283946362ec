//! Autoregressive decode-stream workload: N per-token GEMVs against one
//! resident weight matrix.
//!
//! Token generation in a decoder-only model is a stream of matrix–vector
//! products against weights that never change between tokens: the
//! command schedule is identical for every token, only the input-vector
//! bits differ. A [`DecodeStreamSpec`] pins that stream down
//! reproducibly: one seeded weight matrix and one seeded input per token
//! position, so a full-stream run can be checked token-by-token
//! regardless of timing engine or thread width.

use newton_bf16::Bf16;

use crate::generator;
use crate::suite::MvShape;

/// One decode stream: `tokens` GEMVs of the same `m x n` resident
/// matrix, with per-token seeded inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeStreamSpec {
    /// Output length of every per-token GEMV.
    pub m: usize,
    /// Input (hidden-state) length.
    pub n: usize,
    /// Number of tokens decoded (GEMVs issued).
    pub tokens: usize,
    /// Base seed; the weight matrix and every token input derive from it.
    pub seed: u64,
}

/// Seed-space split between the resident weights and the token inputs,
/// so a token stream never aliases its own matrix bytes.
const TOKEN_SEED_SALT: u64 = 0xdec0_de00_0000_0001;

impl DecodeStreamSpec {
    /// A spec; all dimensions must be non-zero.
    ///
    /// # Panics
    ///
    /// Panics when `m`, `n`, or `tokens` is zero.
    #[must_use]
    pub fn new(m: usize, n: usize, tokens: usize, seed: u64) -> DecodeStreamSpec {
        assert!(m > 0 && n > 0, "decode stream needs a non-empty matrix");
        assert!(tokens > 0, "decode stream needs at least one token");
        DecodeStreamSpec { m, n, tokens, seed }
    }

    /// The resident weight matrix (row-major `m x n`, Xavier-scaled).
    #[must_use]
    pub fn matrix(&self) -> Vec<Bf16> {
        generator::matrix(MvShape::new(self.m, self.n), self.seed)
    }

    /// The input vector for token position `t` (each position distinct,
    /// all derived from the stream seed).
    ///
    /// # Panics
    ///
    /// Panics when `t >= self.tokens`.
    #[must_use]
    pub fn token_input(&self, t: usize) -> Vec<Bf16> {
        assert!(t < self.tokens, "token {t} out of range {}", self.tokens);
        generator::vector(self.n, self.seed ^ TOKEN_SEED_SALT.wrapping_add(t as u64))
    }

    /// All token inputs, in stream order.
    #[must_use]
    pub fn token_inputs(&self) -> Vec<Vec<Bf16>> {
        (0..self.tokens).map(|t| self.token_input(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_tokens_distinct() {
        let spec = DecodeStreamSpec::new(16, 256, 4, 11);
        assert_eq!(spec.matrix(), spec.matrix());
        let inputs = spec.token_inputs();
        assert_eq!(inputs.len(), 4);
        assert_eq!(inputs[2], spec.token_input(2));
        for w in inputs.windows(2) {
            assert_ne!(w[0], w[1], "token inputs must differ");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn token_index_is_bounds_checked() {
        let spec = DecodeStreamSpec::new(4, 16, 2, 1);
        let _ = spec.token_input(2);
    }
}
