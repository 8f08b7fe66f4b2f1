//! # stone-eval
//!
//! Experiment runner and report rendering for the STONE reproduction.
//!
//! [`Experiment`] evaluates any set of [`stone_dataset::Framework`]s over a
//! [`stone_dataset::LongTermSuite`], producing per-bucket mean localization
//! errors (the series plotted in the paper's Figs. 5 and 6). Reports render
//! as ASCII tables, CSV, and shaded heatmaps (Fig. 7).
//!
//! **Retraining policy**: after a bucket is evaluated, each localizer is
//! offered that bucket's unlabeled scans via [`stone_dataset::Localizer::adapt`].
//! Frameworks that re-train post-deployment (LT-KNN) use them to refit
//! before the *next* bucket — i.e. bucket `t` is always evaluated with
//! knowledge from buckets `< t` only, mirroring the paper's monthly
//! recalibration workflow without evaluating on the adaptation data itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiment;
mod heatmap;
mod metrics;

pub use experiment::{Experiment, ExperimentReport, SeriesResult};
pub use heatmap::Heatmap;
pub use metrics::mean_error_m;
