//! # stone-dataset
//!
//! Long-term WiFi fingerprint datasets for the STONE reproduction.
//!
//! This crate owns the domain vocabulary shared by every localization
//! framework in the workspace:
//!
//! * [`Fingerprint`], [`ReferencePoint`], [`FingerprintDataset`] — labelled
//!   RSSI vectors collected at reference points (RPs) over time;
//! * [`Trajectory`] and [`EvalBucket`] — ordered test walks grouped into the
//!   paper's evaluation timeline (months for UJI, collection instances for
//!   Office/Basement);
//! * the [`Localizer`] / [`Framework`] traits implemented by STONE and all
//!   four baselines;
//! * suite builders ([`uji_suite`], [`office_suite`], [`basement_suite`])
//!   that drive the `stone-radio` simulator through the exact collection
//!   schedules of Sec. V.A (CI 0–2 at 8 AM/3 PM/9 PM of day 0, CI 3–8 daily,
//!   CI 9–15 monthly; UJI monthly over 15 months) including the AP-removal
//!   events of Fig. 4;
//! * sharded suite plans ([`uji_plan`], [`office_plan`], [`basement_plan`]
//!   → [`SuitePlan`]): every survey RP and every bucket is generated from
//!   its own seed-derived RNG stream, so construction parallelizes
//!   bitwise-deterministically and any one bucket can be materialized on
//!   demand;
//! * CSV import/export of datasets ([`io`]).
//!
//! # Example
//!
//! ```
//! use stone_dataset::{office_suite, SuiteConfig};
//!
//! let suite = office_suite(&SuiteConfig::tiny(7));
//! assert_eq!(suite.buckets.len(), 16); // CI 0..=15
//! assert!(suite.train.len() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
pub mod io;
mod suites;
mod traits;
mod types;

pub use dataset::FingerprintDataset;
pub use suites::{
    basement_plan, basement_suite, office_plan, office_suite, uji_plan, uji_suite, EvalBucket,
    LongTermSuite, SuiteConfig, SuiteKind, SuitePlan,
};
pub use traits::{Framework, Localizer};
pub use types::{Fingerprint, ReferencePoint, RpId, Trajectory, MISSING_RSSI_DBM};
