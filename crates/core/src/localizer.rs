//! The deployable STONE localizer (the paper's Fig. 2 pipeline).

use stone_dataset::{FingerprintDataset, Framework, Localizer};
use stone_radio::Point2;

use crate::knn::{EmbeddingKnn, KnnMode};
use crate::trainer::{SiameseTrainer, TrainedEncoder, TrainerConfig};

/// A [`StoneConfig`] field that failed validation, with enough detail to fix
/// it — returned by [`StoneConfig::validate`] *before* any training time is
/// spent, instead of a panic deep inside the trainer or the KNN head.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `knn_k` is zero (the KNN head needs at least one neighbour).
    ZeroKnnK,
    /// `trainer.embed_dim` is zero (embeddings need at least one dimension).
    ZeroEmbedDim,
    /// `trainer.margin` is not a finite, non-negative number.
    BadMargin {
        /// The offending value.
        margin: f32,
    },
    /// `trainer.learning_rate` is not a finite, positive number.
    BadLearningRate {
        /// The offending value.
        learning_rate: f32,
    },
    /// `trainer.p_upper` is outside `[0, 1]` (it is a probability bound).
    BadPUpper {
        /// The offending value.
        p_upper: f32,
    },
    /// `trainer.selector_sigma_m` is not a finite, positive number (the
    /// floorplan-aware selector's spatial scale).
    BadSelectorSigma {
        /// The offending value.
        sigma_m: f64,
    },
    /// `trainer.epochs` is zero.
    ZeroEpochs,
    /// `trainer.batch_size` is zero.
    ZeroBatchSize,
    /// `trainer.triplets_per_epoch` is smaller than `trainer.batch_size`,
    /// so an epoch would hold no optimizer step at all.
    EpochSmallerThanBatch {
        /// Triplets drawn per epoch.
        triplets_per_epoch: usize,
        /// Triplets per optimizer step.
        batch_size: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroKnnK => write!(f, "knn_k must be at least 1"),
            ConfigError::ZeroEmbedDim => write!(f, "trainer.embed_dim must be at least 1"),
            ConfigError::BadMargin { margin } => {
                write!(f, "trainer.margin must be finite and non-negative, got {margin}")
            }
            ConfigError::BadLearningRate { learning_rate } => {
                write!(f, "trainer.learning_rate must be finite and positive, got {learning_rate}")
            }
            ConfigError::BadPUpper { p_upper } => {
                write!(f, "trainer.p_upper must be a probability in [0, 1], got {p_upper}")
            }
            ConfigError::BadSelectorSigma { sigma_m } => {
                write!(f, "trainer.selector_sigma_m must be finite and positive, got {sigma_m}")
            }
            ConfigError::ZeroEpochs => write!(f, "trainer.epochs must be at least 1"),
            ConfigError::ZeroBatchSize => write!(f, "trainer.batch_size must be at least 1"),
            ConfigError::EpochSmallerThanBatch { triplets_per_epoch, batch_size } => write!(
                f,
                "trainer.triplets_per_epoch ({triplets_per_epoch}) must be at least \
                 trainer.batch_size ({batch_size}) so an epoch holds one optimizer step"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full STONE configuration: trainer hyperparameters plus the KNN head.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoneConfig {
    /// Siamese-encoder training configuration.
    pub trainer: TrainerConfig,
    /// Neighbour count of the embedding-space KNN.
    pub knn_k: usize,
    /// Position-estimation mode of the KNN head.
    pub knn_mode: KnnMode,
}

impl StoneConfig {
    /// Quick configuration (single-core bench scale).
    ///
    /// The KNN head defaults to distance-weighted regression over the
    /// embeddings: unlike the pure classifier, a single embedding confusion
    /// then costs a blended position instead of a full jump to the wrong
    /// RP, which matters once the channel has drifted for months. The
    /// paper's plain classifier remains available via
    /// [`StoneBuilder::with_knn_mode`].
    #[must_use]
    pub fn quick() -> Self {
        Self { trainer: TrainerConfig::quick(), knn_k: 5, knn_mode: KnnMode::WeightedRegression }
    }

    /// Paper-scale configuration.
    #[must_use]
    pub fn paper() -> Self {
        Self { trainer: TrainerConfig::paper(), ..Self::quick() }
    }

    /// Checks every field that would otherwise only blow up mid-training
    /// (or, worse, *after* training, when the KNN head is first built).
    ///
    /// [`StoneBuilder::fit`] calls this up front, and the serving layer's
    /// retraining paths can call it before spending minutes of encoder
    /// training on a configuration that cannot be deployed.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.knn_k == 0 {
            return Err(ConfigError::ZeroKnnK);
        }
        let t = &self.trainer;
        if t.embed_dim == 0 {
            return Err(ConfigError::ZeroEmbedDim);
        }
        if !t.margin.is_finite() || t.margin < 0.0 {
            return Err(ConfigError::BadMargin { margin: t.margin });
        }
        if !t.learning_rate.is_finite() || t.learning_rate <= 0.0 {
            return Err(ConfigError::BadLearningRate { learning_rate: t.learning_rate });
        }
        if !t.p_upper.is_finite() || !(0.0..=1.0).contains(&t.p_upper) {
            return Err(ConfigError::BadPUpper { p_upper: t.p_upper });
        }
        if !t.selector_sigma_m.is_finite() || t.selector_sigma_m <= 0.0 {
            return Err(ConfigError::BadSelectorSigma { sigma_m: t.selector_sigma_m });
        }
        if t.epochs == 0 {
            return Err(ConfigError::ZeroEpochs);
        }
        if t.batch_size == 0 {
            return Err(ConfigError::ZeroBatchSize);
        }
        if t.triplets_per_epoch < t.batch_size {
            return Err(ConfigError::EpochSmallerThanBatch {
                triplets_per_epoch: t.triplets_per_epoch,
                batch_size: t.batch_size,
            });
        }
        Ok(())
    }
}

impl Default for StoneConfig {
    fn default() -> Self {
        Self::quick()
    }
}

/// Builder/trainer for [`StoneLocalizer`]; implements
/// [`stone_dataset::Framework`] so it can be evaluated side-by-side with the
/// baselines.
///
/// # Example
///
/// ```no_run
/// use stone::StoneBuilder;
/// use stone_dataset::{office_suite, Localizer, SuiteConfig};
///
/// let suite = office_suite(&SuiteConfig::tiny(1));
/// let localizer = StoneBuilder::quick().with_embed_dim(6).fit(&suite.train, 1);
/// let _ = localizer.locate(&suite.train.records()[0].rssi);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StoneBuilder {
    cfg: StoneConfig,
}

impl StoneBuilder {
    /// Builder with [`StoneConfig::quick`] defaults.
    #[must_use]
    pub fn quick() -> Self {
        Self { cfg: StoneConfig::quick() }
    }

    /// Builder with [`StoneConfig::paper`] defaults.
    #[must_use]
    pub fn paper() -> Self {
        Self { cfg: StoneConfig::paper() }
    }

    /// Builder from an explicit configuration.
    #[must_use]
    pub fn from_config(cfg: StoneConfig) -> Self {
        Self { cfg }
    }

    /// The current configuration.
    #[must_use]
    pub fn config(&self) -> &StoneConfig {
        &self.cfg
    }

    /// Sets the embedding dimension `d`.
    #[must_use]
    pub fn with_embed_dim(mut self, d: usize) -> Self {
        self.cfg.trainer.embed_dim = d;
        self
    }

    /// Sets the triplet margin `α`.
    #[must_use]
    pub fn with_margin(mut self, margin: f32) -> Self {
        self.cfg.trainer.margin = margin;
        self
    }

    /// Sets the augmentation upper bound `p_upper` (Eq. 4).
    #[must_use]
    pub fn with_p_upper(mut self, p_upper: f32) -> Self {
        self.cfg.trainer.p_upper = p_upper;
        self
    }

    /// Sets the triplet-selection strategy.
    #[must_use]
    pub fn with_selector(mut self, selector: crate::SelectorKind) -> Self {
        self.cfg.trainer.selector = selector;
        self
    }

    /// Sets the number of training epochs.
    #[must_use]
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.cfg.trainer.epochs = epochs;
        self
    }

    /// Sets the KNN neighbour count.
    #[must_use]
    pub fn with_knn_k(mut self, k: usize) -> Self {
        self.cfg.knn_k = k;
        self
    }

    /// Sets the KNN position mode.
    #[must_use]
    pub fn with_knn_mode(mut self, mode: KnnMode) -> Self {
        self.cfg.knn_mode = mode;
        self
    }

    /// Runs the full offline phase: trains the Siamese encoder, embeds the
    /// offline fingerprints, and fits the KNN head.
    ///
    /// # Panics
    ///
    /// Panics **before any training work** when the configuration is invalid
    /// (see [`StoneConfig::validate`] — e.g. a zero `knn_k` used to survive
    /// the whole encoder training only to panic while fitting the KNN head),
    /// and when the dataset has records at fewer than two RPs.
    #[must_use]
    pub fn fit(&self, train: &FingerprintDataset, seed: u64) -> StoneLocalizer {
        use rand::SeedableRng;

        if let Err(e) = self.cfg.validate() {
            panic!("invalid StoneConfig: {e}");
        }
        let encoder = SiameseTrainer::new(self.cfg.trainer).train(train, seed);
        let mut knn = EmbeddingKnn::new(self.cfg.knn_k, self.cfg.knn_mode);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xE7_20_11);
        let augmenter = crate::ApDropoutAugmenter::new(self.cfg.trainer.p_upper);
        let codec = *encoder.codec();

        // Embed in batches to amortize the forward pass: each record's clean
        // image plus `enroll_augment` AP-masked variants (see
        // `TrainerConfig::enroll_augment`).
        let records = train.records();
        for chunk in records.chunks(32) {
            let mut images: Vec<Vec<f32>> = Vec::new();
            let mut meta = Vec::new();
            for r in chunk {
                let pos = train.rp_position(r.rp).expect("record RP is registered");
                let clean = codec.encode(&r.rssi);
                for k in 0..=self.cfg.trainer.enroll_augment {
                    let mut img = clean.clone();
                    if k > 0 {
                        augmenter.augment(&mut img, &mut rng);
                    }
                    images.push(img);
                    meta.push((r.rp, pos));
                }
            }
            let x = codec.batch_to_tensor(&images);
            let emb = encoder.net().predict(&x);
            for (i, (rp, pos)) in meta.into_iter().enumerate() {
                knn.insert(emb.row(i).to_vec(), rp, pos);
            }
        }
        StoneLocalizer { cfg: self.cfg, encoder, knn }
    }
}

impl Framework for StoneBuilder {
    fn name(&self) -> &str {
        "STONE"
    }

    fn fit(&self, train: &FingerprintDataset, seed: u64) -> Box<dyn Localizer> {
        Box::new(StoneBuilder::fit(self, train, seed))
    }
}

/// A deployed STONE model: Siamese encoder + embedding KNN. Requires **no
/// re-training** after deployment — the paper's headline property.
pub struct StoneLocalizer {
    cfg: StoneConfig,
    encoder: TrainedEncoder,
    knn: EmbeddingKnn,
}

impl StoneLocalizer {
    /// Reassembles a localizer from its parts — the deserialization hook of
    /// [`StoneLocalizer::load`].
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid or disagrees with the KNN
    /// head (`knn_k`, `knn_mode`).
    #[must_use]
    pub fn from_parts(cfg: StoneConfig, encoder: TrainedEncoder, knn: EmbeddingKnn) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid StoneConfig: {e}");
        }
        assert_eq!(cfg.knn_k, knn.k(), "config knn_k disagrees with the KNN head");
        assert_eq!(cfg.knn_mode, knn.mode(), "config knn_mode disagrees with the KNN head");
        Self { cfg, encoder, knn }
    }

    /// The configuration this model was trained with.
    #[must_use]
    pub fn config(&self) -> &StoneConfig {
        &self.cfg
    }

    /// The trained encoder (for weight export or embedding inspection).
    #[must_use]
    pub fn encoder(&self) -> &TrainedEncoder {
        &self.encoder
    }

    /// The KNN head.
    #[must_use]
    pub fn knn(&self) -> &EmbeddingKnn {
        &self.knn
    }

    /// Serializes the whole deployable model — configuration, encoder
    /// weights and the reference-embedding set — into the versioned binary
    /// format of [`crate::model_io`]. [`StoneLocalizer::load`] restores a
    /// model whose `embed`, `locate` and `locate_batch` outputs are
    /// **bitwise identical** to this one's.
    #[must_use]
    pub fn save(&self) -> Vec<u8> {
        crate::model_io::save(self)
    }

    /// Deserializes a model produced by [`StoneLocalizer::save`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelIoError`] when the bytes are truncated,
    /// corrupted, of an unknown version, or describe an invalid
    /// configuration. A failed load never panics — the serving layer feeds
    /// this from disk and from the network.
    pub fn load(bytes: &[u8]) -> Result<Self, crate::ModelIoError> {
        crate::model_io::load(bytes)
    }

    /// Embeds a raw fingerprint (unit-norm vector of length `d`).
    #[must_use]
    pub fn embed(&self, rssi: &[f32]) -> Vec<f32> {
        self.encoder.embed(rssi)
    }

    /// Scans per encoder forward pass in the batched online path: large
    /// enough to amortize per-call overhead (weight packing, thread
    /// dispatch), small enough to bound the activation working set.
    const LOCATE_BATCH: usize = 64;

    /// Embeds a batch of raw fingerprints in one encoder forward pass.
    ///
    /// Every layer of the encoder is row-independent at inference time, so
    /// each returned embedding is bitwise identical to what
    /// [`StoneLocalizer::embed`] produces for that fingerprint alone — the
    /// batch only amortizes the per-pass overhead (and unlocks the parallel
    /// matmul once the batched product crosses the size threshold).
    ///
    /// # Example
    ///
    /// ```no_run
    /// use stone::StoneBuilder;
    /// use stone_dataset::{office_suite, SuiteConfig};
    ///
    /// let suite = office_suite(&SuiteConfig::tiny(1));
    /// let loc = StoneBuilder::quick().fit(&suite.train, 1);
    /// let raws: Vec<&[f32]> =
    ///     suite.train.records().iter().take(8).map(|r| r.rssi.as_slice()).collect();
    /// let embeddings = loc.embed_batch(&raws);
    /// assert_eq!(embeddings.len(), 8);
    /// assert_eq!(embeddings[0], loc.embed(raws[0]));
    /// ```
    #[must_use]
    pub fn embed_batch(&self, rssi: &[&[f32]]) -> Vec<Vec<f32>> {
        if rssi.is_empty() {
            return Vec::new();
        }
        let emb = self.encoder.embed_batch(rssi);
        (0..emb.rows()).map(|i| emb.row(i).to_vec()).collect()
    }

    /// Predicts positions for a batch of scans: chunked batched encoder
    /// forward passes followed by a parallel KNN sweep. Equal to calling
    /// [`Localizer::locate`] per scan, in order.
    ///
    /// # Example
    ///
    /// ```no_run
    /// use stone::StoneBuilder;
    /// use stone_dataset::{office_suite, Localizer, SuiteConfig};
    ///
    /// let suite = office_suite(&SuiteConfig::tiny(1));
    /// let loc = StoneBuilder::quick().fit(&suite.train, 1);
    /// let raws: Vec<&[f32]> =
    ///     suite.train.records().iter().map(|r| r.rssi.as_slice()).collect();
    /// assert_eq!(loc.locate_batch(&raws)[0], loc.locate(raws[0]));
    /// ```
    #[must_use]
    pub fn locate_batch(&self, rssi: &[&[f32]]) -> Vec<Point2> {
        let mut out = Vec::with_capacity(rssi.len());
        for chunk in rssi.chunks(Self::LOCATE_BATCH) {
            out.extend(self.knn.locate_batch(&self.embed_batch(chunk)));
        }
        out
    }
}

impl Localizer for StoneLocalizer {
    fn name(&self) -> &str {
        "STONE"
    }

    fn locate(&self, rssi: &[f32]) -> Point2 {
        self.knn.locate(&self.embed(rssi))
    }

    fn locate_trajectory(&mut self, traj: &stone_dataset::Trajectory) -> Vec<Point2> {
        // Batched override of the default scan-by-scan walk: one encoder
        // forward pass per LOCATE_BATCH scans. Same results, amortized cost
        // (this is what the parallel experiment runner leans on).
        let raws: Vec<&[f32]> = traj.fingerprints.iter().map(|f| f.rssi.as_slice()).collect();
        self.locate_batch(&raws)
    }
}

impl std::fmt::Debug for StoneLocalizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StoneLocalizer({:?}, knn_entries={})", self.encoder, self.knn.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::TrainerConfig;
    use stone_dataset::{office_suite, SuiteConfig};

    fn tiny_builder() -> StoneBuilder {
        StoneBuilder::from_config(StoneConfig {
            trainer: TrainerConfig {
                embed_dim: 4,
                epochs: 3,
                triplets_per_epoch: 64,
                batch_size: 16,
                ..TrainerConfig::quick()
            },
            knn_k: 3,
            knn_mode: KnnMode::Classify,
        })
    }

    #[test]
    fn fit_and_locate_returns_floorplan_position() {
        let suite = office_suite(&SuiteConfig::tiny(1));
        let loc = tiny_builder().fit(&suite.train, 1);
        let p = loc.locate(&suite.train.records()[0].rssi);
        let b = suite.env.floorplan().bounds();
        assert!(b.contains(p), "{p} outside floorplan");
    }

    #[test]
    fn training_fingerprints_locate_near_their_rp() {
        // On its own training data a localizer must be decently accurate.
        let suite = office_suite(&SuiteConfig::tiny(2));
        let loc = tiny_builder().fit(&suite.train, 2);
        let mut total = 0.0;
        let records = suite.train.records();
        for r in records {
            total += loc.locate(&r.rssi).distance(r.pos);
        }
        let mean = total / records.len() as f64;
        // RPs are 6 m apart in the tiny suite; training error must beat a
        // random guess (which would be tens of meters) comfortably.
        assert!(mean < 8.0, "training-set mean error {mean:.2} m");
    }

    #[test]
    fn builder_setters_apply() {
        let b = StoneBuilder::quick()
            .with_embed_dim(5)
            .with_margin(0.7)
            .with_p_upper(0.3)
            .with_epochs(2)
            .with_knn_k(7)
            .with_knn_mode(KnnMode::WeightedRegression)
            .with_selector(crate::SelectorKind::Uniform);
        assert_eq!(b.config().trainer.embed_dim, 5);
        assert_eq!(b.config().trainer.margin, 0.7);
        assert_eq!(b.config().trainer.p_upper, 0.3);
        assert_eq!(b.config().trainer.epochs, 2);
        assert_eq!(b.config().knn_k, 7);
        assert_eq!(b.config().knn_mode, KnnMode::WeightedRegression);
        assert_eq!(b.config().trainer.selector, crate::SelectorKind::Uniform);
    }

    #[test]
    fn validate_catches_every_degenerate_field() {
        let ok = StoneConfig::quick();
        assert_eq!(ok.validate(), Ok(()));

        let cases: Vec<(StoneConfig, &str)> = vec![
            (StoneConfig { knn_k: 0, ..ok }, "knn_k"),
            (
                StoneConfig { trainer: TrainerConfig { embed_dim: 0, ..ok.trainer }, ..ok },
                "embed_dim",
            ),
            (
                StoneConfig { trainer: TrainerConfig { margin: f32::NAN, ..ok.trainer }, ..ok },
                "margin",
            ),
            (
                StoneConfig {
                    trainer: TrainerConfig { margin: f32::INFINITY, ..ok.trainer },
                    ..ok
                },
                "margin",
            ),
            (
                StoneConfig { trainer: TrainerConfig { learning_rate: 0.0, ..ok.trainer }, ..ok },
                "learning_rate",
            ),
            (
                StoneConfig { trainer: TrainerConfig { p_upper: 1.5, ..ok.trainer }, ..ok },
                "p_upper",
            ),
            (
                StoneConfig {
                    trainer: TrainerConfig { selector_sigma_m: f64::NAN, ..ok.trainer },
                    ..ok
                },
                "selector_sigma_m",
            ),
            (
                StoneConfig {
                    trainer: TrainerConfig { selector_sigma_m: 0.0, ..ok.trainer },
                    ..ok
                },
                "selector_sigma_m",
            ),
            (
                StoneConfig {
                    trainer: TrainerConfig { selector_sigma_m: -1.0, ..ok.trainer },
                    ..ok
                },
                "selector_sigma_m",
            ),
            (
                StoneConfig {
                    trainer: TrainerConfig { selector_sigma_m: f64::INFINITY, ..ok.trainer },
                    ..ok
                },
                "selector_sigma_m",
            ),
            (StoneConfig { trainer: TrainerConfig { epochs: 0, ..ok.trainer }, ..ok }, "epochs"),
            (
                StoneConfig { trainer: TrainerConfig { batch_size: 0, ..ok.trainer }, ..ok },
                "batch_size",
            ),
            (
                StoneConfig {
                    trainer: TrainerConfig { triplets_per_epoch: 4, batch_size: 32, ..ok.trainer },
                    ..ok
                },
                "triplets_per_epoch",
            ),
        ];
        for (cfg, field) in cases {
            let err = cfg.validate().expect_err(field);
            assert!(err.to_string().contains(field), "error for {field} not descriptive: {err}");
        }
    }

    #[test]
    fn fit_rejects_zero_knn_k_before_training() {
        // A zero k used to survive the entire encoder training and only
        // panic while fitting the KNN head; now fit refuses up front with
        // the field name in the message.
        let suite = office_suite(&SuiteConfig::tiny(4));
        let builder = StoneBuilder::from_config(StoneConfig { knn_k: 0, ..StoneConfig::quick() });
        let err = std::panic::catch_unwind(|| builder.fit(&suite.train, 1))
            .expect_err("fit must reject knn_k = 0");
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("knn_k"), "panic message not descriptive: {msg}");
    }

    #[test]
    fn localizer_exposes_its_config() {
        let suite = office_suite(&SuiteConfig::tiny(5));
        let builder = tiny_builder();
        let loc = builder.fit(&suite.train, 1);
        assert_eq!(loc.config(), builder.config());
    }

    #[test]
    fn framework_trait_object_works() {
        let suite = office_suite(&SuiteConfig::tiny(3));
        let fw: Box<dyn Framework> = Box::new(tiny_builder());
        assert_eq!(fw.name(), "STONE");
        let mut loc = fw.fit(&suite.train, 3);
        assert!(!loc.requires_retraining());
        let out = loc.locate_trajectory(&suite.buckets[0].trajectories[0]);
        assert_eq!(out.len(), suite.buckets[0].trajectories[0].len());
    }
}
