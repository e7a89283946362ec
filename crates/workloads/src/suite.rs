//! The Table II benchmark layers.

use std::fmt;

/// A matrix–vector product shape: `[m x n] * [n x 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MvShape {
    /// Matrix rows (output length).
    pub m: usize,
    /// Matrix columns (input length).
    pub n: usize,
}

impl MvShape {
    /// Creates a shape.
    #[must_use]
    pub const fn new(m: usize, n: usize) -> MvShape {
        MvShape { m, n }
    }

    /// Matrix footprint in bytes at bf16.
    #[must_use]
    pub fn matrix_bytes(&self) -> usize {
        self.m * self.n * 2
    }

    /// Multiply-accumulate operations per inference.
    #[must_use]
    pub fn macs(&self) -> usize {
        self.m * self.n
    }
}

impl fmt::Display for MvShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} x {}", self.m, self.n)
    }
}

/// The eight benchmark layers of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// GNMT LSTM shape 1: 4096 x 1024.
    GnmtS1,
    /// GNMT LSTM shape 2: 4096 x 2048.
    GnmtS2,
    /// BERT shape 1: 1024 x 1024 (attention projections).
    BertS1,
    /// BERT shape 2: 1024 x 4096 (FFN down-projection).
    BertS2,
    /// BERT shape 3: 4096 x 1024 (FFN up-projection).
    BertS3,
    /// AlexNet FC layer 6: 21632 x 2048 (as published in Table II).
    AlexNetL6,
    /// AlexNet FC layer 7: 2048 x 2048.
    AlexNetL7,
    /// DLRM shape 1: 512 x 256.
    DlrmS1,
}

impl Benchmark {
    /// All benchmarks in Table II order.
    #[must_use]
    pub fn all() -> [Benchmark; 8] {
        [
            Benchmark::GnmtS1,
            Benchmark::GnmtS2,
            Benchmark::BertS1,
            Benchmark::BertS2,
            Benchmark::BertS3,
            Benchmark::AlexNetL6,
            Benchmark::AlexNetL7,
            Benchmark::DlrmS1,
        ]
    }

    /// The MV shape, exactly per Table II.
    #[must_use]
    pub fn shape(self) -> MvShape {
        match self {
            Benchmark::GnmtS1 => MvShape::new(4096, 1024),
            Benchmark::GnmtS2 => MvShape::new(4096, 2048),
            Benchmark::BertS1 => MvShape::new(1024, 1024),
            Benchmark::BertS2 => MvShape::new(1024, 4096),
            Benchmark::BertS3 => MvShape::new(4096, 1024),
            Benchmark::AlexNetL6 => MvShape::new(21632, 2048),
            Benchmark::AlexNetL7 => MvShape::new(2048, 2048),
            Benchmark::DlrmS1 => MvShape::new(512, 256),
        }
    }

    /// The paper's display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::GnmtS1 => "GNMTs1",
            Benchmark::GnmtS2 => "GNMTs2",
            Benchmark::BertS1 => "BERTs1",
            Benchmark::BertS2 => "BERTs2",
            Benchmark::BertS3 => "BERTs3",
            Benchmark::AlexNetL6 => "AlexNetL6",
            Benchmark::AlexNetL7 => "AlexNetL7",
            Benchmark::DlrmS1 => "DLRMs1",
        }
    }

    /// A stable per-benchmark RNG seed for data generation.
    #[must_use]
    pub fn seed(self) -> u64 {
        match self {
            Benchmark::GnmtS1 => 0x6e31,
            Benchmark::GnmtS2 => 0x6e32,
            Benchmark::BertS1 => 0xbe31,
            Benchmark::BertS2 => 0xbe32,
            Benchmark::BertS3 => 0xbe33,
            Benchmark::AlexNetL6 => 0xa1e6,
            Benchmark::AlexNetL7 => 0xa1e7,
            Benchmark::DlrmS1 => 0xd131,
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_shapes_match_the_paper() {
        let expect = [
            ("GNMTs1", 4096, 1024),
            ("GNMTs2", 4096, 2048),
            ("BERTs1", 1024, 1024),
            ("BERTs2", 1024, 4096),
            ("BERTs3", 4096, 1024),
            ("AlexNetL6", 21632, 2048),
            ("AlexNetL7", 2048, 2048),
            ("DLRMs1", 512, 256),
        ];
        for (b, (name, m, n)) in Benchmark::all().iter().zip(expect) {
            assert_eq!(b.name(), name);
            assert_eq!(b.shape(), MvShape::new(m, n));
            assert_eq!(b.to_string(), name);
        }
    }

    #[test]
    fn shape_helpers() {
        let s = Benchmark::DlrmS1.shape();
        assert_eq!(s.matrix_bytes(), 512 * 256 * 2);
        assert_eq!(s.macs(), 512 * 256);
        assert_eq!(s.to_string(), "512 x 256");
    }

    #[test]
    fn seeds_are_distinct() {
        let mut seeds: Vec<u64> = Benchmark::all().iter().map(|b| b.seed()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8);
    }
}
