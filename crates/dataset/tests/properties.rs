//! Property-based tests for dataset invariants.

use proptest::prelude::*;
use stone_dataset::{io, office_suite, SuiteConfig, MISSING_RSSI_DBM};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fingerprint_rssi_values_valid(seed in 0u64..50) {
        let suite = office_suite(&SuiteConfig::tiny(seed));
        for r in suite.train.records() {
            prop_assert_eq!(r.rssi.len(), suite.train.ap_count());
            for &v in &r.rssi {
                prop_assert!((MISSING_RSSI_DBM..=0.0).contains(&v));
            }
        }
    }

    #[test]
    fn bucket_times_strictly_increase(seed in 0u64..50) {
        let suite = office_suite(&SuiteConfig::tiny(seed));
        for w in suite.buckets.windows(2) {
            prop_assert!(w[0].time.hours() < w[1].time.hours());
        }
    }

    #[test]
    fn trajectories_visit_every_rp_once(seed in 0u64..50) {
        let suite = office_suite(&SuiteConfig::tiny(seed));
        let n_rps = suite.train.rps().len();
        for b in &suite.buckets {
            for t in &b.trajectories {
                prop_assert_eq!(t.len(), n_rps);
                let mut seen: Vec<_> = t.fingerprints.iter().map(|f| f.rp).collect();
                seen.sort();
                seen.dedup();
                prop_assert_eq!(seen.len(), n_rps);
            }
        }
    }

    #[test]
    fn csv_roundtrip_is_lossless(seed in 0u64..30) {
        let suite = office_suite(&SuiteConfig::tiny(seed));
        let back = io::from_csv("p", &io::to_csv(&suite.train)).unwrap();
        // Bit-exact round trip: RSSI, labels, positions and timestamps.
        prop_assert_eq!(back.records(), suite.train.records());
        prop_assert_eq!(back.rps(), suite.train.rps());
    }

    #[test]
    fn visibility_matrix_dimensions(seed in 0u64..30) {
        let suite = office_suite(&SuiteConfig::tiny(seed));
        let vis = suite.visibility_matrix();
        prop_assert_eq!(vis.len(), suite.buckets.len());
        for row in &vis {
            prop_assert_eq!(row.len(), suite.train.ap_count());
        }
        // Every bucket must observe at least one AP (a dead building would
        // invalidate every experiment downstream).
        for (i, row) in vis.iter().enumerate() {
            prop_assert!(row.iter().any(|&v| v), "bucket {} observed nothing", i);
        }
    }
}
