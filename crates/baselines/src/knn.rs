//! KNN / LearnLoc baseline \[11\]: Euclidean matching of raw normalized
//! fingerprints.

use stone::ImageCodec;
use stone_dataset::{FingerprintDataset, Framework, Localizer};
use stone_radio::Point2;

/// Builder for the plain-KNN baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnnBuilder {
    k: usize,
}

impl KnnBuilder {
    /// Creates the builder with neighbour count `k`.
    ///
    /// # Panics
    ///
    /// Panics when `k` is zero.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        Self { k }
    }
}

impl Default for KnnBuilder {
    fn default() -> Self {
        Self::new(3)
    }
}

impl Framework for KnnBuilder {
    fn name(&self) -> &str {
        "KNN"
    }

    fn fit(&self, train: &FingerprintDataset, _seed: u64) -> Box<dyn Localizer> {
        Box::new(KnnLocalizer::fit(train, self.k))
    }
}

/// The deployed KNN model: normalized radio map plus Euclidean search.
#[derive(Debug, Clone)]
pub struct KnnLocalizer {
    k: usize,
    map: Vec<Vec<f32>>, // normalized [0, 1] fingerprints
    positions: Vec<Point2>,
}

impl KnnLocalizer {
    /// Builds the radio map from the offline dataset.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset or `k == 0`.
    #[must_use]
    pub fn fit(train: &FingerprintDataset, k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        assert!(!train.is_empty(), "training set must be non-empty");
        let mut map = Vec::with_capacity(train.len());
        let mut positions = Vec::with_capacity(train.len());
        for r in train.records() {
            map.push(r.rssi.iter().map(|&v| ImageCodec::normalize(v)).collect());
            positions.push(train.rp_position(r.rp).expect("record RP registered"));
        }
        Self { k, map, positions }
    }

    /// Number of stored radio-map entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when the radio map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
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
}

impl Localizer for KnnLocalizer {
    fn name(&self) -> &str {
        "KNN"
    }

    fn locate(&self, rssi: &[f32]) -> Point2 {
        let query: Vec<f32> = rssi.iter().map(|&v| ImageCodec::normalize(v)).collect();
        let neigh = self.k_nearest(&query);
        // Inverse-distance-weighted average of neighbour positions — the
        // LearnLoc formulation.
        let mut wx = 0.0;
        let mut wy = 0.0;
        let mut ws = 0.0;
        for &(i, d) in &neigh {
            let w = 1.0 / (f64::from(d) + 1e-6);
            wx += self.positions[i].x * w;
            wy += self.positions[i].y * w;
            ws += w;
        }
        Point2::new(wx / ws, wy / ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stone_dataset::{office_suite, SuiteConfig};

    #[test]
    fn perfect_match_returns_rp_position() {
        let suite = office_suite(&SuiteConfig::tiny(1));
        let loc = KnnLocalizer::fit(&suite.train, 1);
        let r = &suite.train.records()[0];
        let p = loc.locate(&r.rssi);
        assert!(p.distance(r.pos) < 1e-6, "got {p}, expected {}", r.pos);
    }

    #[test]
    fn accurate_on_same_instance_walk() {
        let suite = office_suite(&SuiteConfig::tiny(2));
        let fw = KnnBuilder::default();
        let mut loc = fw.fit(&suite.train, 0);
        let traj = &suite.buckets[0].trajectories[0];
        let preds = loc.locate_trajectory(traj);
        let mean: f64 =
            preds.iter().zip(&traj.fingerprints).map(|(p, f)| p.distance(f.pos)).sum::<f64>()
                / preds.len() as f64;
        assert!(mean < 6.0, "CI0 mean error {mean:.2} m");
    }

    #[test]
    fn does_not_retrain() {
        let suite = office_suite(&SuiteConfig::tiny(3));
        let mut loc = KnnBuilder::default().fit(&suite.train, 0);
        assert!(!loc.requires_retraining());
        // adapt must be a no-op.
        let before = loc.locate(&suite.train.records()[0].rssi);
        loc.adapt(&suite.buckets[5].raw_scans());
        let after = loc.locate(&suite.train.records()[0].rssi);
        assert_eq!(before, after);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_training() {
        let ds = FingerprintDataset::new("empty", 4, vec![]);
        let _ = KnnLocalizer::fit(&ds, 3);
    }
}
