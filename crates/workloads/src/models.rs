//! End-to-end model graphs for the right half of Figure 8.
//!
//! The paper's end-to-end runs chain the Table II layers into full models
//! ("GNMT, BERT, AlexNet, and DLRM"), "include activation functions and
//! batch normalization" (Sec. V-A), and for AlexNet account for the
//! conv-dominated portion Newton does not accelerate (the FC layers are
//! ~15% of GPU inference time but most of the parameters, Sec. IV).
//!
//! Exact model internals (attention, LSTM gate elementwise math) are not
//! matrix–vector products and contribute negligibly; they are modeled as
//! host-side output folding (`output_keep`) and normalization exposure,
//! which is also how the paper treats them ("the fully-connected layers
//! account for more than 99% of the run time").

use crate::reference::Activation;
use crate::suite::{Benchmark, MvShape};

/// One layer of an end-to-end model.
#[derive(Debug, Clone, Copy)]
pub struct ModelLayer {
    /// The MV shape.
    pub shape: MvShape,
    /// The Table II benchmark this layer instantiates.
    pub benchmark: Benchmark,
    /// Post-layer activation.
    pub activation: Activation,
    /// Whether (batch/layer) normalization follows the layer.
    pub batch_norm: bool,
    /// Host-side output folding: keep the first `k` outputs as the next
    /// layer's input (LSTM gate folding, FC tail truncation).
    pub output_keep: Option<usize>,
}

/// A complete end-to-end benchmark model.
#[derive(Debug, Clone)]
pub struct EndToEndModel {
    /// Display name (Fig. 8's right section).
    pub name: &'static str,
    /// The FC layer sequence Newton executes.
    pub layers: Vec<ModelLayer>,
    /// Fraction of *GPU* end-to-end inference time spent in these FC
    /// layers (1.0-ish for the NLP/recommendation models, 0.15 for
    /// AlexNet whose conv layers dominate).
    pub fc_fraction_gpu: f64,
}

impl EndToEndModel {
    /// GNMT: an 8-layer LSTM stack. Each LSTM step is one stacked-gate MV
    /// (`4096 x n` = four 1024-wide gates); gate folding keeps a 2048-wide
    /// `[x, h]` input for the next layer.
    #[must_use]
    fn gnmt() -> EndToEndModel {
        let mut layers = vec![ModelLayer {
            shape: Benchmark::GnmtS1.shape(),
            benchmark: Benchmark::GnmtS1,
            activation: Activation::Tanh,
            batch_norm: false,
            output_keep: Some(2048),
        }];
        for _ in 0..7 {
            layers.push(ModelLayer {
                shape: Benchmark::GnmtS2.shape(),
                benchmark: Benchmark::GnmtS2,
                activation: Activation::Tanh,
                batch_norm: false,
                output_keep: Some(2048),
            });
        }
        EndToEndModel {
            name: "GNMT",
            layers,
            fc_fraction_gpu: 0.995,
        }
    }

    /// BERT-large: 24 encoder blocks of Q/K/V/O projections (BERTs1), the
    /// FFN up-projection (BERTs3) and down-projection (BERTs2), with layer
    /// normalization after attention output and after the FFN.
    #[must_use]
    pub fn bert() -> EndToEndModel {
        let mut layers = Vec::with_capacity(24 * 6);
        for _ in 0..24 {
            for i in 0..4 {
                layers.push(ModelLayer {
                    shape: Benchmark::BertS1.shape(),
                    benchmark: Benchmark::BertS1,
                    activation: Activation::Identity,
                    batch_norm: i == 3, // layer norm after the output projection
                    output_keep: None,
                });
            }
            layers.push(ModelLayer {
                shape: Benchmark::BertS3.shape(),
                benchmark: Benchmark::BertS3,
                activation: Activation::Relu, // GELU approximated by ReLU
                batch_norm: false,
                output_keep: None,
            });
            layers.push(ModelLayer {
                shape: Benchmark::BertS2.shape(),
                benchmark: Benchmark::BertS2,
                activation: Activation::Identity,
                batch_norm: true,
                output_keep: None,
            });
        }
        EndToEndModel {
            name: "BERT",
            layers,
            fc_fraction_gpu: 0.995,
        }
    }

    /// AlexNet's two FC layers (the conv-dominated 85% of GPU time is
    /// carried in `fc_fraction_gpu`).
    #[must_use]
    fn alexnet() -> EndToEndModel {
        EndToEndModel {
            name: "AlexNet",
            layers: vec![
                ModelLayer {
                    shape: Benchmark::AlexNetL6.shape(),
                    benchmark: Benchmark::AlexNetL6,
                    activation: Activation::Relu,
                    batch_norm: false,
                    output_keep: Some(2048),
                },
                ModelLayer {
                    shape: Benchmark::AlexNetL7.shape(),
                    benchmark: Benchmark::AlexNetL7,
                    activation: Activation::Relu,
                    batch_norm: false,
                    output_keep: None,
                },
            ],
            fc_fraction_gpu: 0.15,
        }
    }

    /// DLRM: a six-layer MLP of the Table II shape with ReLU and batch
    /// normalization (recommendation models are normalization-heavy —
    /// Sec. III-C's batch-norm pipelining discussion).
    #[must_use]
    pub fn dlrm() -> EndToEndModel {
        let layers = (0..6)
            .map(|i| ModelLayer {
                shape: Benchmark::DlrmS1.shape(),
                benchmark: Benchmark::DlrmS1,
                activation: Activation::Relu,
                batch_norm: true,
                output_keep: if i == 5 { None } else { Some(256) },
            })
            .collect();
        EndToEndModel {
            name: "DLRM",
            layers,
            fc_fraction_gpu: 0.995,
        }
    }

    /// All four end-to-end models in Fig. 8 order.
    #[must_use]
    pub fn all() -> Vec<EndToEndModel> {
        vec![
            EndToEndModel::gnmt(),
            EndToEndModel::bert(),
            EndToEndModel::alexnet(),
            EndToEndModel::dlrm(),
        ]
    }

    /// Total MAC operations per inference.
    #[must_use]
    pub fn total_macs(&self) -> usize {
        self.layers.iter().map(|l| l.shape.macs()).sum()
    }

    /// Total weight bytes at bf16.
    #[must_use]
    pub fn total_weight_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.shape.matrix_bytes()).sum()
    }

    /// Input length of the first layer.
    #[must_use]
    pub fn input_len(&self) -> usize {
        self.layers[0].shape.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_chain_dimensionally() {
        for model in EndToEndModel::all() {
            // Each layer's kept output length is the next layer's input.
            let chains = model
                .layers
                .windows(2)
                .all(|w| w[0].output_keep.unwrap_or(w[0].shape.m) == w[1].shape.n);
            assert!(chains, "{} does not chain", model.name);
            assert!(!model.layers.is_empty());
        }
    }

    #[test]
    fn bert_large_has_24_blocks_of_6_layers() {
        let bert = EndToEndModel::bert();
        assert_eq!(bert.layers.len(), 144);
        // ~302 M parameters, close to the paper's "340 M elements in
        // Google's BERT" (which includes embeddings we do not run).
        let params = bert.total_macs();
        assert!((290_000_000..320_000_000).contains(&params), "{params}");
    }

    #[test]
    fn alexnet_fc_fraction_matches_the_paper() {
        let alex = EndToEndModel::alexnet();
        assert_eq!(alex.fc_fraction_gpu, 0.15);
        assert_eq!(alex.layers.len(), 2);
        // FC6 dominates the parameters.
        assert!(alex.layers[0].shape.matrix_bytes() > 10 * alex.layers[1].shape.matrix_bytes());
    }

    #[test]
    fn gnmt_folds_gates_to_2048() {
        let gnmt = EndToEndModel::gnmt();
        assert_eq!(gnmt.layers.len(), 8);
        assert_eq!(gnmt.layers[0].output_keep, Some(2048));
        assert_eq!(gnmt.layers[1].shape.n, 2048);
    }

    #[test]
    fn dlrm_is_normalization_heavy() {
        let dlrm = EndToEndModel::dlrm();
        assert!(dlrm.layers.iter().all(|l| l.batch_norm));
        assert_eq!(dlrm.layers.len(), 6);
        // Small model: the whole thing is well under one refresh window
        // per layer (the Fig. 8 DLRM discussion).
        assert!(dlrm.total_weight_bytes() < 2 << 20);
    }

    #[test]
    fn model_totals_are_consistent() {
        for model in EndToEndModel::all() {
            assert_eq!(model.total_weight_bytes(), model.total_macs() * 2);
            assert_eq!(model.input_len(), model.layers[0].shape.n);
        }
    }
}
