//! SELE baseline \[18\] (Pandey et al., "SELE: RSS Based Siamese Embedding
//! Location Estimator for a Dynamic IoT Environment", IoT Journal 2021).
//!
//! SELE is the contrastive-loss relative of STONE discussed in the paper's
//! related work (Sec. II): a few-shot Siamese embedding over raw RSS vectors
//! trained with *pairwise* contrastive loss. It avoids overfitting the
//! label–sample relationship like STONE does, but it lacks STONE's long-term
//! augmentation and floorplan-aware mining — which, per the paper, leaves it
//! "highly susceptible to long-term temporal variations and removal of APs"
//! and forces monthly recalibration. That recalibration is modelled by
//! [`Localizer::adapt`]: the encoder stays frozen while the KNN reference
//! embeddings are refreshed with confidence-gated pseudo-labelled scans.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use stone::{EmbeddingKnn, ImageCodec, KnnMode};
use stone_dataset::{FingerprintDataset, Framework, Localizer, RpId};
use stone_nn::{Adam, ContrastiveLoss, Dense, L2Normalize, Relu, Sequential};
use stone_radio::Point2;
use stone_tensor::Tensor;

/// Training hyperparameters of the SELE baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeleBuilder {
    /// Embedding dimension.
    pub embed_dim: usize,
    /// Hidden widths of the two-layer MLP encoder.
    pub hidden: (usize, usize),
    /// Contrastive margin for dissimilar pairs.
    pub margin: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Pairs per epoch.
    pub pairs_per_epoch: usize,
    /// Pairs per optimizer step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Neighbour count of the embedding KNN.
    pub knn_k: usize,
    /// Recalibration blend rate toward pseudo-labelled scans.
    pub refresh_rate: f32,
}

impl Default for SeleBuilder {
    fn default() -> Self {
        Self {
            embed_dim: 8,
            hidden: (128, 64),
            margin: 1.0,
            epochs: 10,
            pairs_per_epoch: 384,
            batch_size: 32,
            learning_rate: 1e-3,
            knn_k: 5,
            refresh_rate: 0.3,
        }
    }
}

impl SeleBuilder {
    /// A shorter schedule for unit tests.
    #[must_use]
    pub fn quick() -> Self {
        Self { epochs: 4, pairs_per_epoch: 128, ..Self::default() }
    }
}

impl Framework for SeleBuilder {
    fn name(&self) -> &str {
        "SELE"
    }

    fn fit(&self, train: &FingerprintDataset, seed: u64) -> Box<dyn Localizer> {
        Box::new(SeleLocalizer::fit(train, self, seed))
    }
}

/// The deployed SELE model.
pub struct SeleLocalizer {
    net: Sequential,
    knn: EmbeddingKnn,
    ap_count: usize,
    refresh_rate: f32,
    recalibration_count: usize,
}

impl SeleLocalizer {
    /// Trains the contrastive Siamese encoder and fits the embedding KNN.
    ///
    /// # Panics
    ///
    /// Panics when the dataset is empty or has fewer than two RPs.
    #[must_use]
    pub fn fit(train: &FingerprintDataset, cfg: &SeleBuilder, seed: u64) -> Self {
        assert!(!train.is_empty(), "training set must be non-empty");
        let mut rng = StdRng::seed_from_u64(seed);
        let ap_count = train.ap_count();

        let mut net = Sequential::new(vec![
            Box::new(Dense::new(ap_count, cfg.hidden.0, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(cfg.hidden.0, cfg.hidden.1, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(cfg.hidden.1, cfg.embed_dim, &mut rng)),
            Box::new(L2Normalize::new()),
        ]);

        // Group records per RP for pair sampling.
        let mut by_rp: Vec<Vec<usize>> = vec![Vec::new(); train.rps().len()];
        for (i, r) in train.records().iter().enumerate() {
            by_rp[train.rp_index(r.rp).expect("registered RP")].push(i);
        }
        let occupied: Vec<usize> = (0..by_rp.len()).filter(|&i| !by_rp[i].is_empty()).collect();
        assert!(occupied.len() >= 2, "SELE needs records at >= 2 RPs");

        let normalized: Vec<Vec<f32>> = train
            .records()
            .iter()
            .map(|r| r.rssi.iter().map(|&v| ImageCodec::normalize(v)).collect())
            .collect();

        let loss_fn = ContrastiveLoss::new(cfg.margin);
        let mut opt = Adam::with_lr(cfg.learning_rate);
        let steps = (cfg.pairs_per_epoch / cfg.batch_size).max(1);
        for _ in 0..cfg.epochs {
            for _ in 0..steps {
                let mut left = Vec::with_capacity(cfg.batch_size * ap_count);
                let mut right = Vec::with_capacity(cfg.batch_size * ap_count);
                let mut same = Vec::with_capacity(cfg.batch_size);
                for b in 0..cfg.batch_size {
                    let rp_a = occupied[rng.gen_range(0..occupied.len())];
                    let i = by_rp[rp_a][rng.gen_range(0..by_rp[rp_a].len())];
                    let (j, is_same) = if b % 2 == 0 {
                        // Similar pair: same RP.
                        (by_rp[rp_a][rng.gen_range(0..by_rp[rp_a].len())], true)
                    } else {
                        // Dissimilar pair: any other RP.
                        let mut rp_b = occupied[rng.gen_range(0..occupied.len())];
                        while rp_b == rp_a && occupied.len() > 1 {
                            rp_b = occupied[rng.gen_range(0..occupied.len())];
                        }
                        (by_rp[rp_b][rng.gen_range(0..by_rp[rp_b].len())], false)
                    };
                    left.extend_from_slice(&normalized[i]);
                    right.extend_from_slice(&normalized[j]);
                    same.push(is_same);
                }
                let xl = Tensor::from_vec(vec![cfg.batch_size, ap_count], left)
                    .expect("batch assembled consistently");
                let xr = Tensor::from_vec(vec![cfg.batch_size, ap_count], right)
                    .expect("batch assembled consistently");
                let (yl, cl) = net.forward_train(&xl, &mut rng);
                let (yr, cr) = net.forward_train(&xr, &mut rng);
                let (_, gl, gr) = loss_fn.loss(&yl, &yr, &same);
                let mut back = net.backward(&cl, &gl);
                back.accumulate(&net.backward(&cr, &gr));
                let flat: Vec<Tensor> = back.param_grads.into_iter().flatten().collect();
                opt.step(&mut net.params_mut(), &flat);
            }
        }

        // Fit the embedding KNN over the offline survey.
        let mut knn = EmbeddingKnn::new(cfg.knn_k, KnnMode::WeightedRegression);
        for (i, r) in train.records().iter().enumerate() {
            let x = Tensor::from_vec(vec![1, ap_count], normalized[i].clone())
                .expect("normalized record has ap_count entries");
            let e = net.predict(&x).into_vec();
            let pos = train.rp_position(r.rp).expect("registered RP");
            knn.insert(e, r.rp, pos);
        }

        Self { net, knn, ap_count, refresh_rate: cfg.refresh_rate, recalibration_count: 0 }
    }

    /// How many recalibrations have happened since deployment.
    #[must_use]
    pub fn recalibration_count(&self) -> usize {
        self.recalibration_count
    }

    fn embed(&self, rssi: &[f32]) -> Vec<f32> {
        let q: Vec<f32> = rssi.iter().map(|&v| ImageCodec::normalize(v)).collect();
        let x = Tensor::from_vec(vec![1, self.ap_count], q).expect("query has ap_count entries");
        self.net.predict(&x).into_vec()
    }
}

impl Localizer for SeleLocalizer {
    fn name(&self) -> &str {
        "SELE"
    }

    fn locate(&self, rssi: &[f32]) -> Point2 {
        self.knn.locate(&self.embed(rssi))
    }

    fn adapt(&mut self, scans: &[Vec<f32>]) {
        if scans.is_empty() || self.refresh_rate <= 0.0 {
            return;
        }
        self.recalibration_count += 1;
        // Pseudo-label each scan with the frozen encoder + current KNN and
        // insert the confident half as fresh reference embeddings.
        let mut scored: Vec<(f32, Vec<f32>, RpId, Point2)> = scans
            .iter()
            .map(|s| {
                let e = self.embed(s);
                let rp = self.knn.classify(&e);
                let pos = self.knn.locate(&e);
                // Confidence proxy: embedding distance to the closest
                // reference entry.
                let d = self.knn.nearest_distance(&e);
                (d, e, rp, pos)
            })
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        scored.truncate(scans.len().div_ceil(2));
        for (_, e, rp, pos) in scored {
            self.knn.insert(e, rp, pos);
        }
    }

    fn requires_retraining(&self) -> bool {
        true
    }
}

impl std::fmt::Debug for SeleLocalizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SeleLocalizer(aps={}, knn_entries={}, recalibrations={})",
            self.ap_count,
            self.knn.len(),
            self.recalibration_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stone_dataset::{office_suite, SuiteConfig};

    #[test]
    fn trains_and_locates_within_bounds() {
        let suite = office_suite(&SuiteConfig::tiny(1));
        let sele = SeleLocalizer::fit(&suite.train, &SeleBuilder::quick(), 1);
        let r = &suite.train.records()[0];
        let p = sele.locate(&r.rssi);
        assert!(suite.env.floorplan().bounds().contains(p), "{p} out of bounds");
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let suite = office_suite(&SuiteConfig::tiny(2));
        let sele = SeleLocalizer::fit(&suite.train, &SeleBuilder::quick(), 2);
        let e = sele.embed(&suite.train.records()[0].rssi);
        let n: f32 = e.iter().map(|&v| v * v).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-4);
    }

    #[test]
    fn recalibration_grows_reference_set() {
        let suite = office_suite(&SuiteConfig::tiny(3));
        let mut sele = SeleLocalizer::fit(&suite.train, &SeleBuilder::quick(), 3);
        let before = sele.knn.len();
        sele.adapt(&suite.buckets[4].raw_scans());
        assert!(sele.knn.len() > before);
        assert_eq!(sele.recalibration_count(), 1);
        assert!(sele.requires_retraining());
    }

    #[test]
    fn framework_interface() {
        let suite = office_suite(&SuiteConfig::tiny(4));
        let fw = SeleBuilder::quick();
        assert_eq!(Framework::name(&fw), "SELE");
        let mut loc = fw.fit(&suite.train, 4);
        let out = loc.locate_trajectory(&suite.buckets[0].trajectories[0]);
        assert_eq!(out.len(), suite.buckets[0].trajectories[0].len());
    }
}
