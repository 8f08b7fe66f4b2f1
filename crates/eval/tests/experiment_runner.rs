//! Integration tests for the experiment runner against real suites and
//! frameworks.

use stone_baselines::{KnnBuilder, LtKnnBuilder};
use stone_dataset::{office_suite, Framework, SuiteConfig};
use stone_eval::Experiment;

#[test]
fn runner_produces_one_series_per_framework() {
    let suite = office_suite(&SuiteConfig::tiny(50));
    let knn = KnnBuilder::default();
    let lt = LtKnnBuilder::default();
    let frameworks: Vec<&dyn Framework> = vec![&knn, &lt];
    let report = Experiment::new(50).run(&suite, &frameworks);
    assert_eq!(report.series.len(), 2);
    assert_eq!(report.suite, "Office");
    for s in &report.series {
        assert_eq!(s.mean_errors_m.len(), suite.buckets.len());
    }
}

#[test]
fn adaptation_happens_after_evaluation_not_before() {
    // LT-KNN and KNN share the same radio map at CI0 (no adaptation has
    // happened yet), so their CI0 errors must be identical; afterwards the
    // two series may diverge.
    let suite = office_suite(&SuiteConfig::tiny(51));
    let knn = KnnBuilder::default();
    let lt = LtKnnBuilder::default();
    let frameworks: Vec<&dyn Framework> = vec![&knn, &lt];
    let report = Experiment::new(51).run(&suite, &frameworks);
    let a = &report.series_for("KNN").unwrap().mean_errors_m;
    let b = &report.series_for("LT-KNN").unwrap().mean_errors_m;
    assert!(
        (a[0] - b[0]).abs() < 1e-9,
        "CI0 must be evaluated before any adaptation: {} vs {}",
        a[0],
        b[0]
    );
}

#[test]
fn retraining_flag_reported_per_framework() {
    let suite = office_suite(&SuiteConfig::tiny(52));
    let knn = KnnBuilder::default();
    let lt = LtKnnBuilder::default();
    let frameworks: Vec<&dyn Framework> = vec![&knn, &lt];
    let report = Experiment::new(52).run(&suite, &frameworks);
    assert!(!report.series_for("KNN").unwrap().requires_retraining);
    assert!(report.series_for("LT-KNN").unwrap().requires_retraining);
}

#[test]
fn improvement_metrics_are_consistent() {
    let suite = office_suite(&SuiteConfig::tiny(53));
    let knn = KnnBuilder::new(1);
    let knn3 = KnnBuilder::default();
    // Two KNN variants give a deterministic pair to compare.
    struct Named<'a>(&'a KnnBuilder, &'static str);
    impl Framework for Named<'_> {
        fn name(&self) -> &str {
            self.1
        }
        fn fit(
            &self,
            train: &stone_dataset::FingerprintDataset,
            seed: u64,
        ) -> Box<dyn stone_dataset::Localizer> {
            self.0.fit(train, seed)
        }
    }
    let a = Named(&knn, "KNN-1");
    let b = Named(&knn3, "KNN-3");
    let frameworks: Vec<&dyn Framework> = vec![&a, &b];
    let report = Experiment::new(53).run(&suite, &frameworks);
    let imp_ab = report.mean_improvement_m("KNN-1", "KNN-3");
    let imp_ba = report.mean_improvement_m("KNN-3", "KNN-1");
    assert!((imp_ab + imp_ba).abs() < 1e-9, "improvement must be antisymmetric");
}
