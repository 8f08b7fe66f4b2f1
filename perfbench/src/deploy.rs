//! The deployments the workloads run against, built the same way on every
//! run: the venue suite, the fitted model and, for the serving workloads,
//! the scan pool with each scan's expected position.
//!
//! The deployment is fixed (seed [`DEPLOY_SEED`]); the run's `--seed` only
//! drives the traffic over it. So `fit_s` and `mean_error_m` measure the same
//! training run and the same model on every run, and `mean_error_m` is
//! checked bit for bit against the value recorded in [`EXPECTED_MEAN_ERROR_M`].

use std::time::Instant;

use stone_repro::core::TrainerConfig;
use stone_repro::dataset::{
    office_plan, uji_plan, Localizer, LongTermSuite, SuiteConfig, SuitePlan, MISSING_RSSI_DBM,
};
use stone_repro::eval::mean_error_m;
use stone_repro::prelude::*;
use stone_repro::radio::DeviceModel;

use crate::stats::median;

/// Seed of every deployment's suite and model fit.
pub const DEPLOY_SEED: u64 = 7;

/// Set-up repetitions per run of a serving workload; `setup_s` and the
/// set-up timings are their medians.
pub const SETUP_REPEATS: usize = 5;
/// Bucket walks per serving set-up repetition.
pub const SETUP_WALKS: usize = 2;
/// Fit-and-walk cycles of a serving deployment after its window. Together
/// with the set-up repetitions they give `fit_s` and `eval_scans_per_s`
/// samples from both ends of the run: a median over the set-up alone (5
/// fits within ~3 s) moved by ~20 % between identical runs on a shared
/// 2-vCPU host.
pub const REMEASURES: usize = 16;
/// The same for `longterm_uji`, whose set-up is only suite generation
/// (~50 ms), so more repetitions cost little and steady its median.
pub const SUITE_REPEATS: usize = 21;

/// `mean_error_m` of each deployment's bucket walk, as `f64` bits
/// (office 1.0995240488607692 m, UJI 4.544146821544792 m). Any change to
/// the numerics of training or inference moves these.
pub const EXPECTED_MEAN_ERROR_M: [(&str, u64); 2] =
    [("office", 0x3ff1_97a6_8770_5c33), ("uji", 0x4012_2d34_d30b_0767)];

/// Whether `value` is the recorded `mean_error_m` of `deployment`.
pub fn mean_error_matches(deployment: &str, value: f64) -> bool {
    EXPECTED_MEAN_ERROR_M.iter().any(|&(d, bits)| d == deployment && bits == value.to_bits())
}

/// The loadgen's office deployment: the 48 m corridor surveyed at 3
/// fingerprints per RP (432 enrolled references) with a short training
/// schedule — serving cost depends on the architecture and the reference
/// set, not on how long the encoder trained.
pub fn office_builder() -> StoneBuilder {
    StoneBuilder::from_config(StoneConfig {
        trainer: TrainerConfig {
            epochs: 2,
            triplets_per_epoch: 64,
            batch_size: 32,
            ..TrainerConfig::quick()
        },
        ..StoneConfig::quick()
    })
}

pub fn office() -> SuitePlan {
    office_plan(&SuiteConfig::new(DEPLOY_SEED).with_train_fpr(3))
}

/// The paper's Fig. 5 miniature: 15 monthly buckets, ~50 % of APs removed
/// at month 11, fitted with `StoneConfig::quick()`.
pub fn uji() -> SuitePlan {
    uji_plan(&SuiteConfig::new(DEPLOY_SEED))
}

/// The loadgen's device-heterogeneity mix.
pub fn device_mix() -> [(&'static str, DeviceModel); 4] {
    [
        ("lg-v20", DeviceModel::lg_v20()),
        ("ideal", DeviceModel::ideal()),
        ("lg-v20-6dB", DeviceModel { offset_db: -6.0, ..DeviceModel::lg_v20() }),
        ("lg-v20+3dB", DeviceModel { offset_db: 3.0, ..DeviceModel::lg_v20() }),
    ]
}

/// Re-measures a survey scan through a device: visible APs pass through
/// `observe`, missing APs stay missing.
fn through_device(rssi: &[f32], dev: &DeviceModel) -> Vec<f32> {
    rssi.iter()
        .map(|&v| {
            if v > MISSING_RSSI_DBM {
                dev.observe(f64::from(v)).map_or(MISSING_RSSI_DBM, |o| o as f32)
            } else {
                v
            }
        })
        .collect()
}

/// Timings of one bucket walk plus its score.
pub struct Walk {
    pub preds: Vec<Point2>,
    /// `locate_trajectory` wall time per trajectory, seconds.
    pub per_trajectory_s: Vec<f64>,
    pub scans_per_s: f64,
    pub mean_error_m: f64,
}

/// Walks every bucket's trajectories with `locate_trajectory` in `order`
/// (indices into the suite's trajectory list), then scores the answers in
/// suite order, so the score does not depend on the walk order.
pub fn walk(model: &mut StoneLocalizer, suite: &LongTermSuite, order: &[usize]) -> Walk {
    let trajs: Vec<_> = suite.buckets.iter().flat_map(|b| &b.trajectories).collect();
    let mut answers: Vec<Vec<Point2>> = vec![Vec::new(); trajs.len()];
    let mut per_trajectory_s = Vec::with_capacity(trajs.len());
    let start = Instant::now();
    for &i in order {
        let t = Instant::now();
        answers[i] = model.locate_trajectory(trajs[i]);
        per_trajectory_s.push(t.elapsed().as_secs_f64());
    }
    let wall = start.elapsed().as_secs_f64();
    let preds: Vec<Point2> = answers.into_iter().flatten().collect();
    let truths: Vec<Point2> =
        trajs.iter().flat_map(|t| t.fingerprints.iter().map(|f| f.pos)).collect();
    Walk {
        scans_per_s: preds.len() as f64 / wall,
        mean_error_m: mean_error_m(&preds, &truths),
        preds,
        per_trajectory_s,
    }
}

/// Trajectory count of a suite.
pub fn trajectory_count(suite: &LongTermSuite) -> usize {
    suite.buckets.iter().map(|b| b.trajectories.len()).sum()
}

/// A serving deployment: the published blob, the model it loads to, and the
/// traffic pool with the oracle's answer for every scan.
pub struct Serving {
    pub blob: Vec<u8>,
    pub model: StoneLocalizer,
    pub suite: LongTermSuite,
    pub pool: Vec<Vec<f32>>,
    /// Direct `StoneLocalizer::locate` of each pool scan.
    pub expected: Vec<Point2>,
    /// Median set-up timings over the repetitions.
    pub setup_s: f64,
    pub suite_build_ms: f64,
    pub mean_error_m: f64,
    /// `StoneBuilder::fit` wall times, s, and bucket-walk rates, scans/s.
    pub fits: Vec<f64>,
    pub rates: Vec<f64>,
    /// Every repetition produced the same blob and score, the walk's batched
    /// answers equal the direct ones, and the score is the recorded one.
    pub checks: Vec<(&'static str, bool)>,
}

impl Serving {
    /// Median `StoneBuilder::fit` wall time, s.
    pub fn fit_s(&self) -> f64 {
        median(&self.fits)
    }

    /// Median bucket-walk rate, scans/s.
    pub fn eval_scans_per_s(&self) -> f64 {
        median(&self.rates)
    }

    /// Fits the deployment and walks its buckets [`REMEASURES`] more times;
    /// every fit must save the deployed blob and every walk score the
    /// deployed error.
    pub fn remeasure(&mut self) {
        let order: Vec<usize> = (0..trajectory_count(&self.suite)).collect();
        let mut repeats = true;
        for _ in 0..REMEASURES {
            let t = Instant::now();
            let fitted = office_builder().fit(&self.suite.train, DEPLOY_SEED);
            self.fits.push(t.elapsed().as_secs_f64());
            repeats &= fitted.save() == self.blob;
            let w = walk(&mut self.model, &self.suite, &order);
            self.rates.push(w.scans_per_s);
            repeats &= w.mean_error_m.to_bits() == self.mean_error_m.to_bits();
        }
        self.checks.push(("remeasures_repeat_bitwise", repeats));
    }
}

/// Builds the office serving deployment [`SETUP_REPEATS`] times. With
/// `devices`, pool scan `i` first passes through device `i % 4` of the mix.
/// The first repetition is timed from `process_start`.
pub fn serving(process_start: Instant, devices: bool) -> Serving {
    let mut setup = Vec::new();
    let mut builds = Vec::new();
    let mut fits = Vec::new();
    let mut rates = Vec::new();
    let mut blobs_equal = true;
    let mut batch_equals_direct = true;
    let mut last: Option<Serving> = None;
    for rep in 0..SETUP_REPEATS {
        let start = if rep == 0 { process_start } else { Instant::now() };
        let t = Instant::now();
        let suite = office().build();
        builds.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let fitted = office_builder().fit(&suite.train, DEPLOY_SEED);
        fits.push(t.elapsed().as_secs_f64());
        let blob = fitted.save();
        let mut model = StoneLocalizer::load(&blob).expect("a saved model loads");
        let order: Vec<usize> = (0..trajectory_count(&suite)).collect();
        let walks: Vec<Walk> = (0..SETUP_WALKS).map(|_| walk(&mut model, &suite, &order)).collect();
        rates.extend(walks.iter().map(|w| w.scans_per_s));
        let w = &walks[0];
        let raw: Vec<Vec<f32>> = suite.buckets.iter().flat_map(|b| b.raw_scans()).collect();
        let mix = device_mix();
        let pool: Vec<Vec<f32>> = if devices {
            raw.iter().enumerate().map(|(i, r)| through_device(r, &mix[i % mix.len()].1)).collect()
        } else {
            raw
        };
        let expected: Vec<Point2> = pool.iter().map(|s| model.locate(s)).collect();
        let mean_error_m = w.mean_error_m;
        if !devices {
            batch_equals_direct &= w.preds.iter().zip(&expected).all(|(a, b)| same_point(*a, *b));
        }
        setup.push(start.elapsed().as_secs_f64());
        if let Some(prev) = &last {
            blobs_equal &= prev.blob == blob && prev.mean_error_m == mean_error_m;
        }
        last = Some(Serving {
            blob,
            model,
            suite,
            pool,
            expected,
            setup_s: 0.0,
            suite_build_ms: 0.0,
            mean_error_m,
            fits: Vec::new(),
            rates: Vec::new(),
            checks: Vec::new(),
        });
    }
    let mut s = last.expect("at least one set-up repetition");
    s.setup_s = median(&setup);
    s.suite_build_ms = median(&builds);
    s.fits = fits;
    s.rates = rates;
    s.checks = vec![
        ("setup_repeats_identical", blobs_equal),
        ("walk_batch_equals_direct_locate", batch_equals_direct),
        ("mean_error_m_recorded", mean_error_matches("office", s.mean_error_m)),
    ];
    s
}

/// Bitwise position equality (the serving contract: batching never changes
/// an answer, not even in the last bit).
pub fn same_point(a: Point2, b: Point2) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}
