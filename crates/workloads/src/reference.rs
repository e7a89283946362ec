//! Reference numerics: exact (`f64`) matrix–vector products, activations,
//! and chained model execution for validating the simulator's outputs.

use newton_bf16::Bf16;

/// `f64` matrix–vector product of a row-major `m x n` bf16 matrix.
///
/// # Panics
///
/// Panics if the buffer sizes disagree with `m`/`n`.
#[must_use]
pub fn mv_f64(matrix: &[Bf16], m: usize, n: usize, vector: &[Bf16]) -> Vec<f64> {
    assert_eq!(matrix.len(), m * n, "matrix size mismatch");
    assert_eq!(vector.len(), n, "vector size mismatch");
    let v: Vec<f64> = vector.iter().map(|x| x.to_f64()).collect();
    (0..m)
        .map(|i| {
            matrix[i * n..(i + 1) * n]
                .iter()
                .zip(&v)
                .map(|(w, x)| w.to_f64() * x)
                .sum()
        })
        .collect()
}

/// The activation functions used by the end-to-end models, applied in
/// `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Identity.
    #[default]
    Identity,
    /// `max(0, x)`.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the function.
    #[must_use]
    pub(crate) fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }
}

/// Range-based batch normalization (divide by the max absolute value),
/// matching the simulator's host-side normalization.
fn normalize_range(values: &mut [f64]) {
    let max_abs = values.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
    if max_abs > 0.0 {
        for v in values {
            *v /= max_abs;
        }
    }
}

/// One reference layer description for [`run_model_f64`].
#[derive(Debug, Clone, Copy)]
pub struct RefLayer<'a> {
    /// Row-major `m x n` weights.
    pub matrix: &'a [Bf16],
    /// Output length.
    pub m: usize,
    /// Input length.
    pub n: usize,
    /// Activation applied after (optional) normalization.
    pub activation: Activation,
    /// Whether range normalization runs before the activation.
    pub batch_norm: bool,
    /// Keep only the first `k` outputs for the next layer.
    pub output_keep: Option<usize>,
}

/// Chained reference model execution mirroring
/// `newton_core::system::NewtonSystem::run_model`, including the bf16
/// re-rounding of each intermediate vector (the physical GWRITE path).
///
/// # Panics
///
/// Panics on inconsistent shapes.
#[must_use]
pub fn run_model_f64(layers: &[RefLayer<'_>], input: &[Bf16]) -> Vec<f64> {
    let mut vec_bf: Vec<Bf16> = input.to_vec();
    let mut out_f64: Vec<f64> = Vec::new();
    for layer in layers {
        assert_eq!(vec_bf.len(), layer.n, "layer input length mismatch");
        let mut out = mv_f64(layer.matrix, layer.m, layer.n, &vec_bf);
        if layer.batch_norm {
            normalize_range(&mut out);
        }
        for v in &mut out {
            *v = layer.activation.apply(*v);
        }
        if let Some(k) = layer.output_keep {
            out.truncate(k);
        }
        vec_bf = out.iter().map(|&x| Bf16::from_f64(x)).collect();
        out_f64 = out;
    }
    out_f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bf(v: f32) -> Bf16 {
        Bf16::from_f32(v)
    }

    #[test]
    fn mv_matches_hand_computation() {
        // [1 2; 3 4] * [5; 6] = [17; 39]
        let m = vec![bf(1.0), bf(2.0), bf(3.0), bf(4.0)];
        let v = vec![bf(5.0), bf(6.0)];
        assert_eq!(mv_f64(&m, 2, 2, &v), vec![17.0, 39.0]);
    }

    #[test]
    #[should_panic(expected = "matrix size mismatch")]
    fn mv_rejects_bad_shapes() {
        let _ = mv_f64(&[bf(1.0)], 2, 2, &[bf(1.0), bf(2.0)]);
    }

    #[test]
    fn activations_cover_the_cases() {
        assert_eq!(Activation::Identity.apply(-2.0), -2.0);
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!((Activation::Tanh.apply(100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_range_scales_to_unit_max() {
        let mut v = vec![-4.0, 2.0, 1.0];
        normalize_range(&mut v);
        assert_eq!(v, vec![-1.0, 0.5, 0.25]);
        let mut z = vec![0.0, 0.0];
        normalize_range(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn chained_model_with_keep_and_norm() {
        // Layer 1: 4x2 ones, input [1, 1] -> [2,2,2,2]; keep 2 -> [2,2].
        // Layer 2: 2x2 identity-ish with relu on negated values.
        let w1 = vec![bf(1.0); 8];
        let w2 = vec![bf(-1.0), bf(0.0), bf(0.0), bf(1.0)];
        let layers = [
            RefLayer {
                matrix: &w1,
                m: 4,
                n: 2,
                activation: Activation::Identity,
                batch_norm: true, // [2,2,2,2] -> [1,1,1,1]
                output_keep: Some(2),
            },
            RefLayer {
                matrix: &w2,
                m: 2,
                n: 2,
                activation: Activation::Relu,
                batch_norm: false,
                output_keep: None,
            },
        ];
        let out = run_model_f64(&layers, &[bf(1.0), bf(1.0)]);
        assert_eq!(out, vec![0.0, 1.0]);
    }
}
