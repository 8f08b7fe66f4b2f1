//! LT-KNN baseline \[21\] (Montoliu et al., "A New Methodology for
//! Long-Term Maintenance of WiFi Fingerprinting Radio Maps", IPIN 2018).
//!
//! LT-KNN keeps plain KNN competitive over the long term by (a) **imputing**
//! the RSSI of removed APs with per-AP ridge regressions fitted on the
//! offline radio map, and (b) **re-fitting** the radio map every collection
//! instance using newly collected unlabeled fingerprints (pseudo-labeled by
//! the current model). The paper re-trains it at every CI/month — exactly
//! what [`Localizer::adapt`] models here.

use stone::ImageCodec;
use stone_dataset::{FingerprintDataset, Framework, Localizer, MISSING_RSSI_DBM};
use stone_radio::Point2;
use stone_tensor::{linalg, Tensor};

/// Builder for the LT-KNN baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LtKnnBuilder {
    k: usize,
    /// Ridge regularization of the imputation regressions.
    lambda: f32,
    /// Radio-map refresh rate toward pseudo-labeled new scans (0 disables
    /// map refitting, 1 replaces entries outright).
    refresh_rate: f32,
}

impl LtKnnBuilder {
    /// Creates the builder.
    ///
    /// # Panics
    ///
    /// Panics when `k` is zero, `lambda` is negative, or `refresh_rate` is
    /// outside `[0, 1]`.
    #[must_use]
    pub fn new(k: usize, lambda: f32, refresh_rate: f32) -> Self {
        assert!(k > 0, "k must be at least 1");
        assert!(lambda >= 0.0, "lambda must be non-negative");
        assert!((0.0..=1.0).contains(&refresh_rate), "refresh rate must be in [0, 1]");
        Self { k, lambda, refresh_rate }
    }
}

impl Default for LtKnnBuilder {
    fn default() -> Self {
        Self::new(3, 1e-2, 0.2)
    }
}

impl Framework for LtKnnBuilder {
    fn name(&self) -> &str {
        "LT-KNN"
    }

    fn fit(&self, train: &FingerprintDataset, _seed: u64) -> Box<dyn Localizer> {
        Box::new(LtKnnLocalizer::fit(train, self.k, self.lambda, self.refresh_rate))
    }
}

/// The deployed LT-KNN model.
#[derive(Debug, Clone)]
pub struct LtKnnLocalizer {
    k: usize,
    lambda: f32,
    refresh_rate: f32,
    /// Normalized radio map (mutated by [`Localizer::adapt`]).
    map: Vec<Vec<f32>>,
    positions: Vec<Point2>,
    /// Pristine offline map used as regression training data.
    offline_map: Vec<Vec<f32>>,
    /// APs observed in the offline phase.
    trained_visible: Vec<bool>,
    /// Regression imputers for currently-removed APs:
    /// `(ap, feature_aps, weights, intercept)`.
    imputers: Vec<(usize, Vec<usize>, Vec<f32>, f32)>,
    retrain_count: usize,
}

impl LtKnnLocalizer {
    /// Builds the model from the offline dataset.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset or invalid hyperparameters (see
    /// [`LtKnnBuilder::new`]).
    #[must_use]
    pub fn fit(train: &FingerprintDataset, k: usize, lambda: f32, refresh_rate: f32) -> Self {
        assert!(k > 0, "k must be at least 1");
        assert!(!train.is_empty(), "training set must be non-empty");
        let mut map = Vec::with_capacity(train.len());
        let mut positions = Vec::with_capacity(train.len());
        for r in train.records() {
            let norm: Vec<f32> = r.rssi.iter().map(|&v| ImageCodec::normalize(v)).collect();
            map.push(norm);
            positions.push(train.rp_position(r.rp).expect("record RP registered"));
        }
        let trained_visible = train.ap_visibility();
        Self {
            k,
            lambda,
            refresh_rate,
            offline_map: map.clone(),
            map,
            positions,
            trained_visible,
            imputers: Vec::new(),
            retrain_count: 0,
        }
    }

    /// How many times [`Localizer::adapt`] has re-fitted the model — the
    /// maintenance cost STONE avoids.
    #[must_use]
    pub fn retrain_count(&self) -> usize {
        self.retrain_count
    }

    /// Number of APs currently imputed by regression.
    #[must_use]
    pub fn imputed_ap_count(&self) -> usize {
        self.imputers.len()
    }

    /// Fills removed-AP entries of a normalized query via the fitted
    /// regressions.
    fn impute(&self, query: &mut [f32]) {
        for (ap, feats, w, b) in &self.imputers {
            let mut v = *b;
            for (fi, wi) in feats.iter().zip(w) {
                v += query[*fi] * wi;
            }
            query[*ap] = v.clamp(0.0, 1.0);
        }
    }

    fn k_nearest(&self, query: &[f32]) -> Vec<(usize, f32)> {
        let mut d: Vec<(usize, f32)> = self
            .map
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let dist: f32 = m.iter().zip(query).map(|(&a, &b)| (a - b) * (a - b)).sum();
                (i, dist)
            })
            .collect();
        d.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
        d.truncate(self.k);
        d
    }

    fn weighted_position(&self, neigh: &[(usize, f32)]) -> Point2 {
        let mut wx = 0.0;
        let mut wy = 0.0;
        let mut ws = 0.0;
        for &(i, d) in neigh {
            let w = 1.0 / (f64::from(d) + 1e-6);
            wx += self.positions[i].x * w;
            wy += self.positions[i].y * w;
            ws += w;
        }
        Point2::new(wx / ws, wy / ws)
    }

    /// Fits one ridge regression predicting `target_ap` from `features`
    /// over the pristine offline map. Returns `None` when the system is
    /// degenerate.
    fn fit_imputer(&self, target_ap: usize, features: &[usize]) -> Option<(Vec<f32>, f32)> {
        let m = self.offline_map.len();
        let p = features.len();
        if m == 0 || p == 0 {
            return None;
        }
        // Design matrix with a trailing intercept column.
        let mut x = Tensor::zeros(vec![m, p + 1]);
        let mut y = vec![0.0f32; m];
        for (row, fp) in self.offline_map.iter().enumerate() {
            for (col, &f) in features.iter().enumerate() {
                x.set2(row, col, fp[f]);
            }
            x.set2(row, p, 1.0);
            y[row] = fp[target_ap];
        }
        let w = linalg::ridge_regression(&x, &y, self.lambda).ok()?;
        let intercept = w[p];
        Some((w[..p].to_vec(), intercept))
    }
}

impl Localizer for LtKnnLocalizer {
    fn name(&self) -> &str {
        "LT-KNN"
    }

    fn locate(&self, rssi: &[f32]) -> Point2 {
        let mut query: Vec<f32> = rssi.iter().map(|&v| ImageCodec::normalize(v)).collect();
        self.impute(&mut query);
        let neigh = self.k_nearest(&query);
        self.weighted_position(&neigh)
    }

    fn adapt(&mut self, scans: &[Vec<f32>]) {
        if scans.is_empty() {
            return;
        }
        self.retrain_count += 1;

        // 1. Which trained APs are still alive in the new collection?
        let ap_count = self.trained_visible.len();
        let mut alive = vec![false; ap_count];
        for s in scans {
            for (i, &v) in s.iter().enumerate() {
                if v > MISSING_RSSI_DBM {
                    alive[i] = true;
                }
            }
        }
        let removed: Vec<usize> =
            (0..ap_count).filter(|&i| self.trained_visible[i] && !alive[i]).collect();
        let features: Vec<usize> =
            (0..ap_count).filter(|&i| self.trained_visible[i] && alive[i]).collect();

        // 2. Re-fit the per-AP imputation regressions.
        self.imputers.clear();
        // Cap the feature set: tiny ridge systems stay well-conditioned and
        // fast. Features are chosen by correlation with the target AP.
        const MAX_FEATURES: usize = 12;
        for &ap in &removed {
            let target: Vec<f32> = self.offline_map.iter().map(|fp| fp[ap]).collect();
            let mut ranked: Vec<(usize, f32)> = features
                .iter()
                .map(|&f| {
                    let col: Vec<f32> = self.offline_map.iter().map(|fp| fp[f]).collect();
                    (f, linalg::pearson(&col, &target).abs())
                })
                .collect();
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite correlations"));
            let chosen: Vec<usize> =
                ranked.into_iter().take(MAX_FEATURES).map(|(f, _)| f).collect();
            if let Some((w, b)) = self.fit_imputer(ap, &chosen) {
                self.imputers.push((ap, chosen, w, b));
            }
        }

        // 3. Refresh the radio map toward the new collection: pseudo-label
        //    each scan with the current model and blend the *confident*
        //    half (smallest match distances) into their nearest map
        //    entries. Blending low-confidence matches would let the
        //    self-training loop corrupt the map once errors grow.
        if self.refresh_rate > 0.0 {
            let beta = self.refresh_rate;
            let mut matched: Vec<(usize, f32, Vec<f32>)> = scans
                .iter()
                .map(|s| {
                    let mut q: Vec<f32> = s.iter().map(|&v| ImageCodec::normalize(v)).collect();
                    self.impute(&mut q);
                    let (best, dist) = self.k_nearest(&q)[0];
                    (best, dist, q)
                })
                .collect();
            matched.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
            matched.truncate(scans.len().div_ceil(2));
            for (best, _, q) in matched {
                for (m, &v) in self.map[best].iter_mut().zip(&q) {
                    *m = (1.0 - beta) * *m + beta * v;
                }
            }
        }
    }

    fn requires_retraining(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stone_dataset::{office_suite, SuiteConfig};

    #[test]
    fn behaves_like_knn_before_any_change() {
        let suite = office_suite(&SuiteConfig::tiny(1));
        let loc = LtKnnLocalizer::fit(&suite.train, 3, 1e-2, 0.3);
        let r = &suite.train.records()[0];
        assert!(loc.locate(&r.rssi).distance(r.pos) < 3.0);
        assert_eq!(loc.imputed_ap_count(), 0);
    }

    #[test]
    fn adapt_fits_imputers_for_removed_aps() {
        let suite = office_suite(&SuiteConfig::tiny(2));
        let mut loc = LtKnnLocalizer::fit(&suite.train, 3, 1e-2, 0.0);
        // Simulate a collection where APs 0..5 (if trained-visible) vanish.
        let mut scans = suite.buckets[0].raw_scans();
        for s in &mut scans {
            for v in s.iter_mut().take(5) {
                *v = MISSING_RSSI_DBM;
            }
        }
        loc.adapt(&scans);
        let vis = suite.train.ap_visibility();
        let expected = vis.iter().take(5).filter(|&&b| b).count();
        assert_eq!(loc.imputed_ap_count(), expected);
        assert_eq!(loc.retrain_count(), 1);
        assert!(loc.requires_retraining());
    }

    #[test]
    fn imputation_improves_post_removal_accuracy() {
        let suite = office_suite(&SuiteConfig::tiny(3));
        // Post-removal bucket (CI 13): many trained APs now read -100.
        let bucket = &suite.buckets[13];
        let eval = |loc: &mut dyn Localizer| -> f64 {
            let traj = &bucket.trajectories[0];
            let preds = loc.locate_trajectory(traj);
            preds.iter().zip(&traj.fingerprints).map(|(p, f)| p.distance(f.pos)).sum::<f64>()
                / preds.len() as f64
        };
        let mut plain = LtKnnLocalizer::fit(&suite.train, 3, 1e-2, 0.0);
        let err_no_adapt = eval(&mut plain);
        let mut adapted = LtKnnLocalizer::fit(&suite.train, 3, 1e-2, 0.3);
        // The paper re-trains LT-KNN at every CI; replay that here.
        for b in suite.buckets.iter().take(14) {
            adapted.adapt(&b.raw_scans());
        }
        let err_adapt = eval(&mut adapted);
        assert!(
            err_adapt <= err_no_adapt + 0.5,
            "adaptation hurt badly: {err_adapt:.2} vs {err_no_adapt:.2}"
        );
    }

    #[test]
    fn adapt_ignores_empty_scan_sets() {
        let suite = office_suite(&SuiteConfig::tiny(4));
        let mut loc = LtKnnLocalizer::fit(&suite.train, 3, 1e-2, 0.3);
        loc.adapt(&[]);
        assert_eq!(loc.retrain_count(), 0);
    }
}
