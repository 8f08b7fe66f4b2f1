//! The long-term evaluation loop.

use std::fmt::Write as _;

use stone_dataset::{EvalBucket, Framework, Localizer, LongTermSuite};
use stone_radio::Point2;

use crate::metrics::mean_error_m;

/// One framework's error series over a suite's buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesResult {
    /// Framework name.
    pub framework: String,
    /// Mean localization error per bucket, in meters.
    pub mean_errors_m: Vec<f64>,
    /// Whether the framework used post-deployment re-training.
    pub requires_retraining: bool,
}

impl SeriesResult {
    /// Mean error across all buckets.
    #[must_use]
    pub fn overall_mean_m(&self) -> f64 {
        if self.mean_errors_m.is_empty() {
            return f64::NAN;
        }
        self.mean_errors_m.iter().sum::<f64>() / self.mean_errors_m.len() as f64
    }

    /// Worst bucket error.
    #[must_use]
    pub fn worst_m(&self) -> f64 {
        self.mean_errors_m.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Evaluates frameworks over long-term suites.
///
/// # Example
///
/// ```no_run
/// use stone_baselines::KnnBuilder;
/// use stone_dataset::{office_suite, Framework, SuiteConfig};
/// use stone_eval::Experiment;
///
/// let suite = office_suite(&SuiteConfig::tiny(1));
/// let knn = KnnBuilder::default();
/// let frameworks: Vec<&dyn Framework> = vec![&knn];
/// let report = Experiment::new(1).run(&suite, &frameworks);
/// println!("{}", report.render_table());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    seed: u64,
}

impl Experiment {
    /// Creates an experiment with the given training/evaluation seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Trains every framework on the suite's offline set, then walks the
    /// bucket timeline (see the crate docs for the retraining policy).
    ///
    /// Frameworks are independent tasks and are evaluated **concurrently**
    /// (up to `STONE_THREADS` at a time). Each task's randomness derives
    /// only from the experiment seed and the framework itself — never from
    /// scheduling — and the result series is ordered by input position, so
    /// a parallel run is byte-identical to a serial (`STONE_THREADS=1`)
    /// one. Buckets within a task stay sequential: bucket `t` must be
    /// evaluated before the localizer may adapt on bucket `t`'s scans.
    ///
    /// # Panics
    ///
    /// Panics when the suite has no buckets or a bucket has no trajectories.
    #[must_use]
    pub fn run(&self, suite: &LongTermSuite, frameworks: &[&dyn Framework]) -> ExperimentReport {
        assert!(!suite.buckets.is_empty(), "suite has no evaluation buckets");
        let series = stone_par::par_map(frameworks, |_, fw| self.evaluate_one(suite, *fw));
        ExperimentReport { suite: suite.name.clone(), bucket_labels: suite.bucket_labels(), series }
    }

    /// Localizes every scan of one bucket and returns the mean error.
    ///
    /// # Panics
    ///
    /// Panics when the bucket has no test points.
    fn evaluate_bucket(loc: &mut dyn Localizer, bucket: &EvalBucket) -> f64 {
        let mut preds: Vec<Point2> = Vec::new();
        let mut truths: Vec<Point2> = Vec::new();
        for traj in &bucket.trajectories {
            preds.extend(loc.locate_trajectory(traj));
            truths.extend(traj.fingerprints.iter().map(|f| f.pos));
        }
        assert!(!preds.is_empty(), "bucket {} has no test points", bucket.label);
        mean_error_m(&preds, &truths)
    }

    /// Trains one framework and walks it through the bucket timeline — the
    /// body of one parallel evaluation task.
    fn evaluate_one(&self, suite: &LongTermSuite, fw: &dyn Framework) -> SeriesResult {
        let mut loc = fw.fit(&suite.train, self.seed);
        let mut errors = Vec::with_capacity(suite.buckets.len());
        for bucket in &suite.buckets {
            errors.push(Self::evaluate_bucket(loc.as_mut(), bucket));
            // Offer this bucket's unlabeled scans for refitting before
            // the next bucket (LT-KNN's monthly recalibration).
            loc.adapt(&bucket.raw_scans());
        }
        SeriesResult {
            framework: fw.name().to_string(),
            mean_errors_m: errors,
            requires_retraining: loc.requires_retraining(),
        }
    }
}

/// Results of one [`Experiment::run`]: the data behind Figs. 5 and 6.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Suite name.
    pub suite: String,
    /// Bucket labels (x-axis).
    pub bucket_labels: Vec<String>,
    /// One series per framework.
    pub series: Vec<SeriesResult>,
}

impl ExperimentReport {
    /// Looks up a framework's series by name.
    #[must_use]
    pub fn series_for(&self, framework: &str) -> Option<&SeriesResult> {
        self.series.iter().find(|s| s.framework == framework)
    }

    /// Mean improvement of `ours` over `theirs` across buckets, in meters
    /// (positive = `ours` is better).
    ///
    /// # Panics
    ///
    /// Panics when either framework is missing from the report.
    #[must_use]
    pub fn mean_improvement_m(&self, ours: &str, theirs: &str) -> f64 {
        let a = self.series_for(ours).expect("framework in report");
        let b = self.series_for(theirs).expect("framework in report");
        b.overall_mean_m() - a.overall_mean_m()
    }

    /// Largest per-bucket relative improvement of `ours` over `theirs`, in
    /// percent (the paper's "up to X% better" statements).
    ///
    /// # Panics
    ///
    /// Panics when either framework is missing from the report.
    #[must_use]
    pub fn max_improvement_pct(&self, ours: &str, theirs: &str) -> f64 {
        let a = self.series_for(ours).expect("framework in report");
        let b = self.series_for(theirs).expect("framework in report");
        a.mean_errors_m
            .iter()
            .zip(&b.mean_errors_m)
            .map(|(&ea, &eb)| if eb > 0.0 { (eb - ea) / eb * 100.0 } else { 0.0 })
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The series in canonical render order: sorted by framework name
    /// (stable, so duplicates keep their relative input order).
    ///
    /// Rendering through this view makes every textual artifact a function
    /// of the report's *contents* only — independent of roster order and,
    /// in particular, of the completion order of the parallel runner — so
    /// outputs from repeated runs diff cleanly.
    fn canonical_series(&self) -> Vec<&SeriesResult> {
        let mut view: Vec<&SeriesResult> = self.series.iter().collect();
        view.sort_by(|a, b| a.framework.cmp(&b.framework));
        view
    }

    /// Renders the report as a fixed-width ASCII table (frameworks × buckets,
    /// plus overall means), the textual equivalent of Figs. 5/6. Rows are in
    /// canonical (framework-name) order.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Mean localization error (m) — suite: {}", self.suite);
        let name_w = self
            .series
            .iter()
            .map(|s| s.framework.len() + 2)
            .chain(std::iter::once(10))
            .max()
            .unwrap_or(10);
        let _ = write!(out, "{:<name_w$}", "framework");
        for l in &self.bucket_labels {
            let _ = write!(out, "{l:>7}");
        }
        let _ = writeln!(out, "{:>8}{:>9}", "mean", "retrain?");
        for s in self.canonical_series() {
            let _ = write!(out, "{:<name_w$}", s.framework);
            for e in &s.mean_errors_m {
                let _ = write!(out, "{e:>7.2}");
            }
            let _ = writeln!(
                out,
                "{:>8.2}{:>9}",
                s.overall_mean_m(),
                if s.requires_retraining { "yes" } else { "no" }
            );
        }
        out
    }

    /// Serializes the report as CSV (`framework,bucket,label,error_m`).
    /// Rows are in canonical (framework-name, bucket) order.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("framework,bucket,label,error_m\n");
        for s in self.canonical_series() {
            for (i, (l, e)) in self.bucket_labels.iter().zip(&s.mean_errors_m).enumerate() {
                let _ = writeln!(out, "{},{},{},{:.4}", s.framework, i, l, e);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ExperimentReport {
        ExperimentReport {
            suite: "demo".into(),
            bucket_labels: vec!["B0".into(), "B1".into()],
            series: vec![
                SeriesResult {
                    framework: "A".into(),
                    mean_errors_m: vec![1.0, 2.0],
                    requires_retraining: false,
                },
                SeriesResult {
                    framework: "B".into(),
                    mean_errors_m: vec![2.0, 4.0],
                    requires_retraining: true,
                },
            ],
        }
    }

    #[test]
    fn overall_and_worst() {
        let r = report();
        assert_eq!(r.series[0].overall_mean_m(), 1.5);
        assert_eq!(r.series[1].worst_m(), 4.0);
    }

    #[test]
    fn improvements() {
        let r = report();
        assert_eq!(r.mean_improvement_m("A", "B"), 1.5);
        assert_eq!(r.max_improvement_pct("A", "B"), 50.0);
    }

    #[test]
    fn table_contains_all_frameworks_and_buckets() {
        let r = report();
        let t = r.render_table();
        assert!(t.contains("A") && t.contains("B"));
        assert!(t.contains("B0") && t.contains("B1"));
        assert!(t.contains("yes") && t.contains("no"));
    }

    #[test]
    fn csv_row_count() {
        let r = report();
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 1 + 2 * 2);
        assert!(csv.starts_with("framework,bucket,label,error_m"));
    }

    #[test]
    fn rendering_is_independent_of_series_order() {
        // The parallel runner guarantees input order, but the textual
        // artifacts must not even depend on that: scrambling the series
        // vector must not change the table or the CSV.
        let r = report();
        let mut scrambled = r.clone();
        scrambled.series.reverse();
        assert_eq!(r.render_table(), scrambled.render_table());
        assert_eq!(r.to_csv(), scrambled.to_csv());
    }

    #[test]
    fn series_lookup() {
        let r = report();
        assert!(r.series_for("A").is_some());
        assert!(r.series_for("Z").is_none());
    }
}
