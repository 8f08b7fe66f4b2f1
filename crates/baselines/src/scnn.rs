//! SCNN baseline \[6\] (Tiku & Pasricha, "Overcoming Security
//! Vulnerabilities in Deep Learning-Based Indoor Localization Frameworks on
//! Mobile Devices", TECS 2020).
//!
//! SCNN is a convolutional RP *classifier* over fingerprint images, trained
//! with cross-entropy. It is built to withstand high RSSI variability (AP
//! spoofing) but — like any sample→label classifier trained on one
//! collection instance — it overfits the offline fingerprints and degrades
//! sharply under long-term temporal variation (the paper's Figs. 5/6).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use stone::ImageCodec;
use stone_dataset::{FingerprintDataset, Framework, Localizer, RpId};
use stone_nn::{Adam, Conv2d, CrossEntropyLoss, Dense, Dropout, Flatten, Relu, Sequential};
use stone_radio::Point2;
use stone_tensor::{argmax, Tensor};

/// Training hyperparameters of the SCNN baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScnnBuilder {
    /// Filters in the first convolution.
    pub conv1_filters: usize,
    /// Filters in the second convolution.
    pub conv2_filters: usize,
    /// Units of the fully-connected layer.
    pub fc_units: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Dropout probability.
    pub dropout: f32,
}

impl Default for ScnnBuilder {
    fn default() -> Self {
        Self {
            conv1_filters: 32,
            conv2_filters: 64,
            fc_units: 128,
            epochs: 20,
            batch_size: 32,
            learning_rate: 1e-3,
            dropout: 0.2,
        }
    }
}

impl ScnnBuilder {
    /// A shorter training schedule for unit tests.
    #[must_use]
    pub fn quick() -> Self {
        Self { epochs: 8, ..Self::default() }
    }
}

impl Framework for ScnnBuilder {
    fn name(&self) -> &str {
        "SCNN"
    }

    fn fit(&self, train: &FingerprintDataset, seed: u64) -> Box<dyn Localizer> {
        Box::new(ScnnLocalizer::fit(train, self, seed))
    }
}

/// The deployed SCNN classifier.
pub struct ScnnLocalizer {
    net: Sequential,
    codec: ImageCodec,
    /// RP (label, position) per dense class index.
    classes: Vec<(RpId, Point2)>,
    final_train_accuracy: f32,
}

impl ScnnLocalizer {
    /// Trains the classifier on the offline dataset.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset or an AP universe too small for the
    /// convolutional trunk.
    #[must_use]
    pub fn fit(train: &FingerprintDataset, cfg: &ScnnBuilder, seed: u64) -> Self {
        assert!(!train.is_empty(), "training set must be non-empty");
        let mut rng = StdRng::seed_from_u64(seed);
        let codec = ImageCodec::new(train.ap_count());
        let side = codec.side();
        assert!(side >= 3, "AP universe too small for two 2x2 convolutions");

        // Dense class set: only RPs that actually have records.
        let mut classes: Vec<(RpId, Point2)> = Vec::new();
        let mut class_of_rp = vec![usize::MAX; train.rps().len()];
        for r in train.records() {
            let idx = train.rp_index(r.rp).expect("registered RP");
            if class_of_rp[idx] == usize::MAX {
                class_of_rp[idx] = classes.len();
                classes.push((r.rp, train.rp_position(r.rp).expect("registered RP")));
            }
        }
        let n_classes = classes.len();

        let conv_out = side - 2;
        let mut net = Sequential::new(vec![
            Box::new(Conv2d::new(1, cfg.conv1_filters, 2, 1, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dropout::new(cfg.dropout)),
            Box::new(Conv2d::new(cfg.conv1_filters, cfg.conv2_filters, 2, 1, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(cfg.conv2_filters * conv_out * conv_out, cfg.fc_units, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(cfg.fc_units, n_classes, &mut rng)),
        ]);

        let images: Vec<Vec<f32>> = train.records().iter().map(|r| codec.encode(&r.rssi)).collect();
        let labels: Vec<usize> = train
            .records()
            .iter()
            .map(|r| class_of_rp[train.rp_index(r.rp).expect("registered RP")])
            .collect();

        let ce = CrossEntropyLoss::new();
        let mut opt = Adam::with_lr(cfg.learning_rate);
        let mut order: Vec<usize> = (0..images.len()).collect();
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size) {
                let batch_imgs: Vec<Vec<f32>> = chunk.iter().map(|&i| images[i].clone()).collect();
                let batch_labels: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                let x = codec.batch_to_tensor(&batch_imgs);
                let (logits, caches) = net.forward_train(&x, &mut rng);
                let (_, grad) = ce.loss(&logits, &batch_labels);
                let back = net.backward(&caches, &grad);
                let flat: Vec<Tensor> = back.param_grads.into_iter().flatten().collect();
                opt.step(&mut net.params_mut(), &flat);
            }
        }

        let x_all = codec.batch_to_tensor(&images);
        let final_train_accuracy = ce.accuracy(&net.predict(&x_all), &labels);

        Self { net, codec, classes, final_train_accuracy }
    }

    /// Training-set accuracy after the final epoch (overfitting indicator).
    #[must_use]
    pub fn train_accuracy(&self) -> f32 {
        self.final_train_accuracy
    }

    /// Number of RP classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }
}

impl Localizer for ScnnLocalizer {
    fn name(&self) -> &str {
        "SCNN"
    }

    fn locate(&self, rssi: &[f32]) -> Point2 {
        let x = self.codec.encode_batch(&[rssi]);
        let logits = self.net.predict(&x);
        self.classes[argmax(logits.row(0))].1
    }
}

impl std::fmt::Debug for ScnnLocalizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ScnnLocalizer(classes={}, train_acc={:.2})",
            self.classes.len(),
            self.final_train_accuracy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stone_dataset::{office_suite, SuiteConfig};

    #[test]
    fn overfits_training_instance() {
        let suite = office_suite(&SuiteConfig::tiny(1));
        let scnn = ScnnLocalizer::fit(&suite.train, &ScnnBuilder::quick(), 1);
        assert!(
            scnn.train_accuracy() > 0.8,
            "SCNN failed to fit its own training set: {}",
            scnn.train_accuracy()
        );
        assert_eq!(scnn.class_count(), suite.train.rps().len());
    }

    #[test]
    fn locate_returns_a_class_position() {
        let suite = office_suite(&SuiteConfig::tiny(2));
        let scnn = ScnnLocalizer::fit(&suite.train, &ScnnBuilder::quick(), 2);
        let r = &suite.train.records()[0];
        let p = scnn.locate(&r.rssi);
        assert!(suite.train.rps().iter().any(|rp| rp.pos == p));
    }

    #[test]
    fn framework_interface() {
        let suite = office_suite(&SuiteConfig::tiny(3));
        let fw = ScnnBuilder::quick();
        assert_eq!(Framework::name(&fw), "SCNN");
        let loc = fw.fit(&suite.train, 3);
        assert!(!loc.requires_retraining());
    }

    #[test]
    fn deterministic_per_seed() {
        let suite = office_suite(&SuiteConfig::tiny(4));
        let a = ScnnLocalizer::fit(&suite.train, &ScnnBuilder::quick(), 7);
        let b = ScnnLocalizer::fit(&suite.train, &ScnnBuilder::quick(), 7);
        let q = &suite.buckets[4].trajectories[0].fingerprints[0].rssi;
        assert_eq!(a.locate(q), b.locate(q));
    }
}
