//! Core fingerprinting types.

use stone_radio::{Point2, SimTime};

/// RSSI value recorded for an access point that was not observed in a scan,
/// in dBm (the paper's convention, Sec. IV.A).
pub const MISSING_RSSI_DBM: f32 = -100.0;

/// Stable identifier of a reference point (RP) on the floorplan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RpId(pub u32);

impl std::fmt::Display for RpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RP{:03}", self.0)
    }
}

/// A surveyed reference point: a labelled location on the floorplan.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ReferencePoint {
    /// Identifier (the classification label).
    pub id: RpId,
    /// Surveyed position, in meters.
    pub pos: Point2,
}

/// One WiFi scan annotated with ground truth.
///
/// `rssi` has one entry per AP in the environment's universe, in dBm;
/// unobserved APs hold [`MISSING_RSSI_DBM`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Fingerprint {
    /// RSSI per AP, in dBm; -100 marks a missing AP.
    pub rssi: Vec<f32>,
    /// Reference point at (or nearest to) which the scan was captured.
    pub rp: RpId,
    /// Ground-truth capture position, in meters.
    pub pos: Point2,
    /// Capture time.
    pub time: SimTime,
    /// Collection-instance index (months for UJI; CI 0–15 for
    /// Office/Basement).
    pub ci: usize,
}

impl Fingerprint {
    /// Number of APs observed (RSSI above the missing sentinel).
    #[must_use]
    pub fn visible_ap_count(&self) -> usize {
        self.rssi.iter().filter(|&&v| v > MISSING_RSSI_DBM).count()
    }

    /// Indices of observed APs.
    #[must_use]
    pub fn visible_aps(&self) -> Vec<usize> {
        self.rssi
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| (v > MISSING_RSSI_DBM).then_some(i))
            .collect()
    }
}

/// An ordered walk along the floorplan: consecutive scans captured while a
/// user moves RP-to-RP. Non-sequential frameworks localize each entry
/// independently; GIFT consumes consecutive pairs.
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Trajectory {
    /// Scans in walk order.
    pub fingerprints: Vec<Fingerprint>,
}

impl Trajectory {
    /// Creates a trajectory from ordered fingerprints.
    #[must_use]
    pub fn new(fingerprints: Vec<Fingerprint>) -> Self {
        Self { fingerprints }
    }

    /// Number of scans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// Returns `true` when the trajectory holds no scans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }

    /// Ground-truth start position.
    ///
    /// # Panics
    ///
    /// Panics on an empty trajectory.
    #[must_use]
    pub fn start_pos(&self) -> Point2 {
        self.fingerprints.first().expect("trajectory must not be empty").pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(rssi: Vec<f32>, x: f64) -> Fingerprint {
        Fingerprint { rssi, rp: RpId(0), pos: Point2::new(x, 0.0), time: SimTime::start(), ci: 0 }
    }

    #[test]
    fn visible_ap_counting() {
        let f = fp(vec![-40.0, MISSING_RSSI_DBM, -80.0], 0.0);
        assert_eq!(f.visible_ap_count(), 2);
        assert_eq!(f.visible_aps(), vec![0, 2]);
    }

    #[test]
    fn trajectory_geometry() {
        let t = Trajectory::new(vec![fp(vec![], 0.0), fp(vec![], 1.0), fp(vec![], 3.0)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.start_pos(), Point2::new(0.0, 0.0));
    }

    #[test]
    fn rp_display() {
        assert_eq!(RpId(4).to_string(), "RP004");
    }
}
