//! The fingerprint dataset container.

use std::collections::BTreeMap;

use stone_radio::Point2;

use crate::types::{Fingerprint, ReferencePoint, RpId, MISSING_RSSI_DBM};

/// A labelled fingerprint dataset over a fixed AP universe.
///
/// Rows are [`Fingerprint`]s; the RP list doubles as the label set. This is
/// the "fingerprint database" of the paper's Fig. 2.
///
/// # Example
///
/// ```
/// use stone_dataset::{office_suite, SuiteConfig};
///
/// let suite = office_suite(&SuiteConfig::tiny(1));
/// let per_rp = suite.train.records_per_rp();
/// assert!(per_rp.values().all(|&n| n >= 1));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FingerprintDataset {
    name: String,
    ap_count: usize,
    rps: Vec<ReferencePoint>,
    records: Vec<Fingerprint>,
}

impl FingerprintDataset {
    /// Creates an empty dataset over `ap_count` APs and the given RP set.
    #[must_use]
    pub fn new(name: impl Into<String>, ap_count: usize, rps: Vec<ReferencePoint>) -> Self {
        Self { name: name.into(), ap_count, rps, records: Vec::new() }
    }

    /// Dataset name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Size of the AP universe (the fingerprint vector length).
    #[must_use]
    pub fn ap_count(&self) -> usize {
        self.ap_count
    }

    /// The reference points (label set).
    #[must_use]
    pub fn rps(&self) -> &[ReferencePoint] {
        &self.rps
    }

    /// All records.
    #[must_use]
    pub fn records(&self) -> &[Fingerprint] {
        &self.records
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when the dataset holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics when the fingerprint's RSSI length differs from the dataset's
    /// AP universe, or its RP is unknown.
    pub fn push(&mut self, fp: Fingerprint) {
        assert_eq!(fp.rssi.len(), self.ap_count, "fingerprint AP-universe mismatch");
        assert!(self.rps.iter().any(|rp| rp.id == fp.rp), "unknown RP {}", fp.rp);
        self.records.push(fp);
    }

    /// Position of an RP.
    #[must_use]
    pub fn rp_position(&self, id: RpId) -> Option<Point2> {
        self.rps.iter().find(|rp| rp.id == id).map(|rp| rp.pos)
    }

    /// Dense label index of an RP (position in [`FingerprintDataset::rps`]),
    /// used by classifier baselines.
    #[must_use]
    pub fn rp_index(&self, id: RpId) -> Option<usize> {
        self.rps.iter().position(|rp| rp.id == id)
    }

    /// Record count per RP.
    #[must_use]
    pub fn records_per_rp(&self) -> BTreeMap<RpId, usize> {
        let mut map = BTreeMap::new();
        for r in &self.records {
            *map.entry(r.rp).or_insert(0) += 1;
        }
        map
    }

    /// Mean number of visible APs per record (0 when empty).
    #[must_use]
    pub fn mean_visible_aps(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.visible_ap_count() as f64).sum::<f64>()
            / self.records.len() as f64
    }

    /// Per-AP visibility: `true` when the AP is observed in at least one
    /// record.
    #[must_use]
    pub fn ap_visibility(&self) -> Vec<bool> {
        let mut seen = vec![false; self.ap_count];
        for r in &self.records {
            for (i, &v) in r.rssi.iter().enumerate() {
                if v > MISSING_RSSI_DBM {
                    seen[i] = true;
                }
            }
        }
        seen
    }

    /// Bare RSSI vectors of all records (used as unlabeled adaptation data).
    #[must_use]
    pub fn raw_scans(&self) -> Vec<Vec<f32>> {
        self.records.iter().map(|r| r.rssi.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stone_radio::SimTime;

    fn sample_dataset() -> FingerprintDataset {
        let rps = vec![
            ReferencePoint { id: RpId(0), pos: Point2::new(0.0, 0.0) },
            ReferencePoint { id: RpId(1), pos: Point2::new(1.0, 0.0) },
        ];
        let mut ds = FingerprintDataset::new("t", 3, rps);
        for k in 0..5 {
            ds.push(Fingerprint {
                rssi: vec![-40.0 - k as f32, MISSING_RSSI_DBM, -70.0],
                rp: RpId(k % 2),
                pos: Point2::new(f64::from(k % 2), 0.0),
                time: SimTime::start(),
                ci: 0,
            });
        }
        ds
    }

    #[test]
    fn push_and_counts() {
        let ds = sample_dataset();
        assert_eq!(ds.len(), 5);
        let per_rp = ds.records_per_rp();
        assert_eq!(per_rp[&RpId(0)], 3);
        assert_eq!(per_rp[&RpId(1)], 2);
    }

    #[test]
    #[should_panic(expected = "AP-universe mismatch")]
    fn push_rejects_wrong_width() {
        let mut ds = sample_dataset();
        ds.push(Fingerprint {
            rssi: vec![-40.0],
            rp: RpId(0),
            pos: Point2::new(0.0, 0.0),
            time: SimTime::start(),
            ci: 0,
        });
    }

    #[test]
    #[should_panic(expected = "unknown RP")]
    fn push_rejects_unknown_rp() {
        let mut ds = sample_dataset();
        ds.push(Fingerprint {
            rssi: vec![-40.0, -50.0, -60.0],
            rp: RpId(9),
            pos: Point2::new(0.0, 0.0),
            time: SimTime::start(),
            ci: 0,
        });
    }

    #[test]
    fn visibility_and_means() {
        let ds = sample_dataset();
        assert_eq!(ds.ap_visibility(), vec![true, false, true]);
        assert_eq!(ds.mean_visible_aps(), 2.0);
    }

    #[test]
    fn rp_lookups() {
        let ds = sample_dataset();
        assert_eq!(ds.rp_position(RpId(1)), Some(Point2::new(1.0, 0.0)));
        assert_eq!(ds.rp_index(RpId(1)), Some(1));
        assert_eq!(ds.rp_position(RpId(5)), None);
    }
}
