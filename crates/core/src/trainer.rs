//! The Siamese triplet-loss trainer (Sec. IV.A/IV.E of the paper).
//!
//! Weight sharing across the anchor/positive/negative towers is realized by
//! running the *same* [`Sequential`] over the three batches and summing the
//! three parameter-gradient sets before each optimizer step.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stone_dataset::FingerprintDataset;
use stone_nn::{Adam, Sequential, TripletLoss};
use stone_tensor::Tensor;

use crate::augment::ApDropoutAugmenter;
use crate::encoder::{build_encoder, EncoderConfig};
use crate::preprocess::ImageCodec;
use crate::triplet::{
    FloorplanAwareSelector, RssiHardSelector, SelectorKind, TrainIndex, TripletSelector,
    UniformSelector,
};

/// Hyperparameters of one STONE training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Embedding dimension `d` (paper: 3–10).
    pub embed_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Triplets drawn per epoch.
    pub triplets_per_epoch: usize,
    /// Triplets per optimizer step.
    pub batch_size: usize,
    /// Triplet margin `α` (Eq. 2).
    pub margin: f32,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Upper bound of the AP turn-off augmentation (Eq. 4; paper: 0.90).
    pub p_upper: f32,
    /// Triplet selection strategy (paper: floorplan-aware).
    pub selector: SelectorKind,
    /// Spatial σ of the floorplan-aware selector, in meters.
    pub selector_sigma_m: f64,
    /// Extra AP-masked variants of each offline fingerprint enrolled into
    /// the embedding-KNN reference set (besides the clean embedding).
    ///
    /// The paper embeds "the RSSI fingerprints from the offline phase"
    /// (Fig. 2); enrolling augmented variants extends that set with the same
    /// Eq. 4 turn-off augmentation used in training, so that a query missing
    /// half its APs finds like-masked references of the correct RP. This is
    /// the enrollment-side counterpart of the long-term augmentation.
    pub enroll_augment: usize,
}

impl TrainerConfig {
    /// A configuration sized for the single-core machines this reproduction
    /// targets (see `DESIGN.md`); used by benches in quick mode.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            embed_dim: 8,
            epochs: 8,
            triplets_per_epoch: 320,
            batch_size: 32,
            margin: 0.4,
            learning_rate: 1e-3,
            p_upper: 0.90,
            selector: SelectorKind::FloorplanAware,
            selector_sigma_m: 4.0,
            enroll_augment: 2,
        }
    }

    /// The default figure-bench schedule: long enough for the encoder to
    /// converge on the evaluation suites, still minutes-scale on one core.
    #[must_use]
    pub fn standard() -> Self {
        Self { epochs: 12, triplets_per_epoch: 384, ..Self::quick() }
    }

    /// A longer schedule closer to the paper's training budget.
    #[must_use]
    pub fn paper() -> Self {
        Self { epochs: 20, triplets_per_epoch: 512, ..Self::quick() }
    }

    fn validate(&self) {
        assert!(self.epochs > 0, "epochs must be positive");
        assert!(self.batch_size > 0, "batch size must be positive");
        assert!(self.triplets_per_epoch >= self.batch_size, "epoch must hold at least one batch");
        assert!(self.learning_rate > 0.0, "learning rate must be positive");
    }
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self::quick()
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean triplet loss over the epoch.
    pub loss: f32,
    /// Mean fraction of margin-violating (gradient-contributing) triplets.
    pub active_fraction: f32,
}

/// A trained Siamese encoder plus its preprocessing codec.
pub struct TrainedEncoder {
    net: Sequential,
    codec: ImageCodec,
    history: Vec<EpochStats>,
}

impl TrainedEncoder {
    /// Reassembles a trained encoder from its parts — the deserialization
    /// hook of the model round-trip (`StoneLocalizer::save`/`load`).
    ///
    /// # Panics
    ///
    /// Panics when the network's input layout cannot match the codec (no
    /// parameters at all).
    #[must_use]
    pub fn from_parts(net: Sequential, codec: ImageCodec, history: Vec<EpochStats>) -> Self {
        assert!(!net.params().is_empty(), "encoder network has no parameters");
        Self { net, codec, history }
    }

    /// The preprocessing codec matching this encoder's input layout.
    #[must_use]
    pub fn codec(&self) -> &ImageCodec {
        &self.codec
    }

    /// The underlying network (e.g. for weight export via
    /// [`stone_nn::save_weights`]).
    #[must_use]
    pub fn net(&self) -> &Sequential {
        &self.net
    }

    /// Training history, one entry per epoch.
    #[must_use]
    pub fn history(&self) -> &[EpochStats] {
        &self.history
    }

    /// Embeds one raw dBm fingerprint onto the unit hypersphere.
    #[must_use]
    pub fn embed(&self, rssi: &[f32]) -> Vec<f32> {
        let x = self.codec.encode_batch(&[rssi]);
        self.net.predict(&x).into_vec()
    }

    /// Embeds a batch of raw fingerprints; returns `[n, d]`.
    #[must_use]
    pub fn embed_batch(&self, raw: &[&[f32]]) -> Tensor {
        let x = self.codec.encode_batch(raw);
        self.net.predict(&x)
    }
}

impl std::fmt::Debug for TrainedEncoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TrainedEncoder(side={}, params={}, epochs={})",
            self.codec.side(),
            self.net.param_count(),
            self.history.len()
        )
    }
}

/// Trains STONE encoders from fingerprint datasets.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SiameseTrainer {
    cfg: TrainerConfig,
}

impl SiameseTrainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics on an internally inconsistent configuration.
    #[must_use]
    pub fn new(cfg: TrainerConfig) -> Self {
        cfg.validate();
        Self { cfg }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// Trains an encoder on the offline dataset.
    ///
    /// # Panics
    ///
    /// Panics when the dataset has records at fewer than two RPs or an AP
    /// universe too small for the convolutional architecture.
    #[must_use]
    pub fn train(&self, ds: &FingerprintDataset, seed: u64) -> TrainedEncoder {
        let mut rng = StdRng::seed_from_u64(seed);
        let codec = ImageCodec::new(ds.ap_count());
        let enc_cfg = EncoderConfig::paper(codec.side(), self.cfg.embed_dim);
        let mut net = build_encoder(&enc_cfg, &mut rng);

        let index = TrainIndex::new(ds);
        let selector: Box<dyn TripletSelector> = match self.cfg.selector {
            SelectorKind::FloorplanAware => {
                Box::new(FloorplanAwareSelector::new(self.cfg.selector_sigma_m))
            }
            SelectorKind::Uniform => Box::new(UniformSelector),
            SelectorKind::RssiHard => Box::new(RssiHardSelector::new(ds, 5)),
        };
        let augmenter = ApDropoutAugmenter::new(self.cfg.p_upper);
        let loss_fn = TripletLoss::new(self.cfg.margin);
        let mut opt = Adam::with_lr(self.cfg.learning_rate);

        // Pre-encode every training record once; augmentation copies these.
        let images: Vec<Vec<f32>> = ds.records().iter().map(|r| codec.encode(&r.rssi)).collect();

        let steps = self.cfg.triplets_per_epoch / self.cfg.batch_size;
        let mut history = Vec::with_capacity(self.cfg.epochs);
        for epoch in 0..self.cfg.epochs {
            let mut loss_sum = 0.0;
            let mut active_sum = 0.0;
            for _ in 0..steps {
                let mut anchors = Vec::with_capacity(self.cfg.batch_size);
                let mut positives = Vec::with_capacity(self.cfg.batch_size);
                let mut negatives = Vec::with_capacity(self.cfg.batch_size);
                for _ in 0..self.cfg.batch_size {
                    let t = selector.select(&index, &mut rng);
                    let mut a = images[t.anchor].clone();
                    let mut p = images[t.positive].clone();
                    let mut n = images[t.negative].clone();
                    augmenter.augment(&mut a, &mut rng);
                    augmenter.augment(&mut p, &mut rng);
                    augmenter.augment(&mut n, &mut rng);
                    anchors.push(a);
                    positives.push(p);
                    negatives.push(n);
                }
                let xa = codec.batch_to_tensor(&anchors);
                let xp = codec.batch_to_tensor(&positives);
                let xn = codec.batch_to_tensor(&negatives);

                let (ya, ca) = net.forward_train(&xa, &mut rng);
                let (yp, cp) = net.forward_train(&xp, &mut rng);
                let (yn, cn) = net.forward_train(&xn, &mut rng);
                let (stats, grads) = loss_fn.loss(&ya, &yp, &yn);
                loss_sum += stats.loss;
                active_sum += stats.active_fraction;

                if stats.active_fraction > 0.0 {
                    // Shared weights: sum the three towers' gradients.
                    let mut back = net.backward(&ca, &grads.anchor);
                    back.accumulate(&net.backward(&cp, &grads.positive));
                    back.accumulate(&net.backward(&cn, &grads.negative));
                    let flat: Vec<Tensor> = back.param_grads.into_iter().flatten().collect();
                    opt.step(&mut net.params_mut(), &flat);
                }
            }
            history.push(EpochStats {
                epoch,
                loss: loss_sum / steps as f32,
                active_fraction: active_sum / steps as f32,
            });
        }

        TrainedEncoder { net, codec, history }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stone_dataset::{office_suite, SuiteConfig};

    fn tiny_trainer() -> SiameseTrainer {
        SiameseTrainer::new(TrainerConfig {
            embed_dim: 4,
            epochs: 2,
            triplets_per_epoch: 32,
            batch_size: 8,
            ..TrainerConfig::quick()
        })
    }

    #[test]
    fn training_produces_history_and_unit_embeddings() {
        let suite = office_suite(&SuiteConfig::tiny(1));
        let enc = tiny_trainer().train(&suite.train, 3);
        assert_eq!(enc.history().len(), 2);
        let e = enc.embed(&suite.train.records()[0].rssi);
        assert_eq!(e.len(), 4);
        let norm: f32 = e.iter().map(|&v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let suite = office_suite(&SuiteConfig::tiny(2));
        let a = tiny_trainer().train(&suite.train, 9);
        let b = tiny_trainer().train(&suite.train, 9);
        assert_eq!(
            a.embed(&suite.train.records()[0].rssi),
            b.embed(&suite.train.records()[0].rssi)
        );
        let c = tiny_trainer().train(&suite.train, 10);
        assert_ne!(
            a.embed(&suite.train.records()[0].rssi),
            c.embed(&suite.train.records()[0].rssi)
        );
    }

    #[test]
    fn loss_decreases_over_training() {
        let suite = office_suite(&SuiteConfig::tiny(3));
        let trainer = SiameseTrainer::new(TrainerConfig {
            embed_dim: 4,
            epochs: 6,
            triplets_per_epoch: 64,
            batch_size: 16,
            ..TrainerConfig::quick()
        });
        let enc = trainer.train(&suite.train, 4);
        let first = enc.history().first().unwrap().loss;
        let last = enc.history().last().unwrap().loss;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "at least one batch")]
    fn config_validation() {
        let _ = SiameseTrainer::new(TrainerConfig {
            triplets_per_epoch: 4,
            batch_size: 32,
            ..TrainerConfig::quick()
        });
    }
}
