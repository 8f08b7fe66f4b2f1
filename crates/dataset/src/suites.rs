//! Long-term evaluation suites mirroring the paper's three test venues and
//! collection timelines (Sec. V.A, Fig. 3).
//!
//! # Sharded generation
//!
//! Suite construction is *sharded*: every independently generatable unit —
//! each reference point's offline survey, each evaluation bucket — draws
//! from its own RNG stream, derived purely from `(master seed, unit
//! identity)` via [`stone_radio::derive_stream_seed`]. No RNG state is
//! threaded between units, so:
//!
//! * units can be generated on any thread, in any order, with
//!   **bitwise-identical** output at any `STONE_THREADS` value (pinned by
//!   `tests/parallel_determinism.rs`);
//! * a single bucket can be materialized **on demand** without generating
//!   the ones before it ([`SuitePlan::bucket`]), bitwise-identical to its
//!   twin in the built suite — which is how [`SuitePlan::build`] fans the
//!   buckets out over `STONE_THREADS` threads.
//!
//! [`uji_suite`]/[`office_suite`]/[`basement_suite`] remain the one-call
//! materializing builders; they are now thin wrappers over
//! [`uji_plan`]/[`office_plan`]/[`basement_plan`] + [`SuitePlan::build`].

use rand::rngs::StdRng;
use rand::SeedableRng;
use stone_radio::{derive_stream_seed, presets, ApSchedule, Point2, RadioEnvironment, SimTime};

use crate::dataset::FingerprintDataset;
use crate::types::{Fingerprint, ReferencePoint, RpId, Trajectory, MISSING_RSSI_DBM};

/// Which of the paper's three venues a suite models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteKind {
    /// UJI-like library hall, monthly buckets over 15 months.
    Uji,
    /// Office corridor path, CI 0–15 over ≈8 months.
    Office,
    /// Basement corridor path, CI 0–15 over ≈8 months.
    Basement,
}

impl SuiteKind {
    /// Stable venue tag folded into every RNG stream of the suite, so the
    /// same master seed yields unrelated streams across venues.
    fn venue_tag(self) -> u64 {
        match self {
            SuiteKind::Uji => 0,
            SuiteKind::Office => 1,
            SuiteKind::Basement => 2,
        }
    }
}

impl std::fmt::Display for SuiteKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuiteKind::Uji => write!(f, "UJI"),
            SuiteKind::Office => write!(f, "Office"),
            SuiteKind::Basement => write!(f, "Basement"),
        }
    }
}

/// Configuration shared by the suite builders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteConfig {
    /// Master seed for the environment, schedules, and collection noise.
    pub seed: u64,
    /// Fingerprints per RP in the offline (training) set. `None` uses the
    /// paper's value for the suite (9 for UJI, 6 for Office/Basement).
    pub train_fpr: Option<usize>,
    /// Test trajectories generated per evaluation bucket.
    pub trajectories_per_bucket: usize,
    /// Keep every `rp_stride`-th reference point (1 = paper-scale paths;
    /// larger values shrink the suite for fast unit tests).
    pub rp_stride: usize,
}

impl SuiteConfig {
    /// Paper-scale configuration.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed, train_fpr: None, trajectories_per_bucket: 2, rp_stride: 1 }
    }

    /// A miniature configuration for unit tests: sparse RPs, one trajectory
    /// per bucket.
    #[must_use]
    pub fn tiny(seed: u64) -> Self {
        Self { seed, train_fpr: Some(3), trajectories_per_bucket: 1, rp_stride: 6 }
    }

    /// Returns the config with a different training FPR (Fig. 7 sweeps).
    #[must_use]
    pub fn with_train_fpr(mut self, fpr: usize) -> Self {
        self.train_fpr = Some(fpr);
        self
    }
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self::new(0)
    }
}

/// One evaluation time bucket: a month (UJI) or collection instance
/// (Office/Basement) with its test trajectories.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalBucket {
    /// Display label ("M03", "CI07", ...).
    pub label: String,
    /// Bucket index (month number or CI number).
    pub ci: usize,
    /// Nominal collection time of the bucket.
    pub time: SimTime,
    /// Test walks captured in this bucket.
    pub trajectories: Vec<Trajectory>,
}

impl EvalBucket {
    /// All fingerprints across the bucket's trajectories.
    #[must_use]
    pub fn fingerprints(&self) -> Vec<&Fingerprint> {
        self.trajectories.iter().flat_map(|t| &t.fingerprints).collect()
    }

    /// Per-AP visibility across the bucket (the rows of the paper's Fig. 4).
    #[must_use]
    pub fn ap_visibility(&self, ap_count: usize) -> Vec<bool> {
        let mut seen = vec![false; ap_count];
        for fp in self.fingerprints() {
            for (i, &v) in fp.rssi.iter().enumerate() {
                if v > MISSING_RSSI_DBM {
                    seen[i] = true;
                }
            }
        }
        seen
    }

    /// Bare RSSI vectors of the bucket (unlabeled adaptation data for
    /// frameworks that re-train, like LT-KNN).
    #[must_use]
    pub fn raw_scans(&self) -> Vec<Vec<f32>> {
        self.fingerprints().into_iter().map(|f| f.rssi.clone()).collect()
    }
}

/// A complete long-term evaluation suite: environment, offline training set
/// and the timeline of evaluation buckets.
#[derive(Debug, Clone)]
pub struct LongTermSuite {
    /// Venue kind.
    pub kind: SuiteKind,
    /// Human-readable name.
    pub name: String,
    /// The simulated radio environment (already carrying its AP schedule).
    pub env: RadioEnvironment,
    /// Offline-phase training data (day 0).
    pub train: FingerprintDataset,
    /// Evaluation buckets in chronological order.
    pub buckets: Vec<EvalBucket>,
}

impl LongTermSuite {
    /// Bucket labels in order (the x-axis of Figs. 5/6).
    #[must_use]
    pub fn bucket_labels(&self) -> Vec<String> {
        self.buckets.iter().map(|b| b.label.clone()).collect()
    }

    /// Visibility matrix over buckets × APs (the paper's Fig. 4).
    #[must_use]
    pub fn visibility_matrix(&self) -> Vec<Vec<bool>> {
        self.buckets.iter().map(|b| b.ap_visibility(self.train.ap_count())).collect()
    }
}

/// RNG-stream domains. The stream tag of a generation unit is
/// `(domain << 56) | (venue << 48) | unit index`, which is collision-free
/// by construction (indices are far below 2⁴⁸).
const DOMAIN_SETUP: u64 = 1;
const DOMAIN_SURVEY: u64 = 2;
const DOMAIN_BUCKET: u64 = 3;

/// The RNG of one generation unit: a pure function of the master seed and
/// the unit's identity, never of scheduling or of other units.
fn stream_rng(seed: u64, domain: u64, kind: SuiteKind, index: u64) -> StdRng {
    debug_assert!(index < 1 << 48, "unit index overflows the stream tag");
    let tag = (domain << 56) | (kind.venue_tag() << 48) | index;
    StdRng::seed_from_u64(derive_stream_seed(seed, tag))
}

/// Scans the environment at `pos`/`t` into a dense RSSI vector with -100 for
/// missing APs.
fn scan_vector(env: &RadioEnvironment, pos: Point2, t: SimTime, rng: &mut StdRng) -> Vec<f32> {
    env.scan(pos, t, rng).into_iter().map(|v| v.map_or(MISSING_RSSI_DBM, |x| x as f32)).collect()
}

/// Collects `fpr` stationary fingerprints at one RP (its shard of the
/// offline survey).
fn survey_rp(
    env: &RadioEnvironment,
    rp: &ReferencePoint,
    t: SimTime,
    fpr: usize,
    rng: &mut StdRng,
) -> Vec<Fingerprint> {
    (0..fpr)
        .map(|k| {
            // Paper: 6 fingerprints per RP within a 30 s window.
            let t_k = t.plus_hours(k as f64 * 5.0 / 3600.0);
            Fingerprint {
                rssi: scan_vector(env, rp.pos, t_k, rng),
                rp: rp.id,
                pos: rp.pos,
                time: t_k,
                ci: 0,
            }
        })
        .collect()
}

/// Walks the RP sequence (forward or reversed), scanning at each RP; the
/// walk advances ~10 s per RP like a real user capturing while moving.
fn walk_trajectory(
    env: &RadioEnvironment,
    rps: &[ReferencePoint],
    t_start: SimTime,
    ci: usize,
    reverse: bool,
    rng: &mut StdRng,
) -> Trajectory {
    let order: Vec<&ReferencePoint> =
        if reverse { rps.iter().rev().collect() } else { rps.iter().collect() };
    let fps = order
        .into_iter()
        .enumerate()
        .map(|(k, rp)| {
            let t_k = t_start.plus_hours(k as f64 * 10.0 / 3600.0);
            Fingerprint {
                rssi: scan_vector(env, rp.pos, t_k, rng),
                rp: rp.id,
                pos: rp.pos,
                time: t_k,
                ci,
            }
        })
        .collect();
    Trajectory::new(fps)
}

/// Serpentine ordering of a grid of RPs (row by row, alternating direction)
/// so UJI trajectories are physically contiguous walks.
fn serpentine(cols: usize, rps: Vec<ReferencePoint>) -> Vec<ReferencePoint> {
    let mut out = Vec::with_capacity(rps.len());
    for (r, chunk) in rps.chunks(cols).enumerate() {
        if r % 2 == 0 {
            out.extend_from_slice(chunk);
        } else {
            out.extend(chunk.iter().rev().copied());
        }
    }
    out
}

/// A fully-specified suite whose data has **not** been generated yet: the
/// environment, RP path, collection timeline and seed — everything needed to
/// materialize any unit of the suite independently of the others.
///
/// The plan is the sharding boundary. [`SuitePlan::build`] materializes
/// everything (buckets in parallel); [`SuitePlan::bucket`] materializes one
/// bucket on demand.
///
/// # Example
///
/// ```
/// use stone_dataset::{office_plan, SuiteConfig};
///
/// let plan = office_plan(&SuiteConfig::tiny(7));
/// assert_eq!(plan.bucket_count(), 16); // CI 0..=15
/// // Materialize only the last bucket — no other bucket is generated.
/// let last = plan.bucket(15);
/// assert_eq!(last.label, "CI15");
/// ```
#[derive(Debug, Clone)]
pub struct SuitePlan {
    kind: SuiteKind,
    name: String,
    env: RadioEnvironment,
    rps: Vec<ReferencePoint>,
    /// Offline-survey collection time.
    train_t0: SimTime,
    /// Resolved fingerprints-per-RP of the offline survey.
    train_fpr: usize,
    /// Evaluation timeline: `(label, ci, walk start time)` per bucket.
    timeline: Vec<(String, usize, SimTime)>,
    trajectories_per_bucket: usize,
    seed: u64,
}

impl SuitePlan {
    /// Number of evaluation buckets in the timeline.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.timeline.len()
    }

    /// Materializes the offline training set. Each RP's stationary survey
    /// is an independent generation unit (its RNG stream is tagged by the
    /// RP id), fanned out over `STONE_THREADS` threads; output is
    /// bitwise-identical at any thread count.
    #[must_use]
    pub fn train(&self) -> FingerprintDataset {
        let per_rp: Vec<Vec<Fingerprint>> = stone_par::par_map(&self.rps, |_, rp| {
            let mut rng = stream_rng(self.seed, DOMAIN_SURVEY, self.kind, u64::from(rp.id.0));
            survey_rp(&self.env, rp, self.train_t0, self.train_fpr, &mut rng)
        });
        let mut train = FingerprintDataset::new(
            format!("{}-train", self.name.to_lowercase()),
            self.env.ap_count(),
            self.rps.clone(),
        );
        for fp in per_rp.into_iter().flatten() {
            train.push(fp);
        }
        train
    }

    /// Materializes evaluation bucket `i` — a pure function of
    /// `(plan, i)`: the bucket's RNG stream is tagged by its CI index, so
    /// no other bucket needs to exist for this one to be exact.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range of the timeline.
    #[must_use]
    pub fn bucket(&self, i: usize) -> EvalBucket {
        let (label, ci, time) = &self.timeline[i];
        let mut rng = stream_rng(self.seed, DOMAIN_BUCKET, self.kind, *ci as u64);
        let trajectories = (0..self.trajectories_per_bucket.max(1))
            .map(|k| {
                // Stagger walk start times by 2 min and alternate
                // direction so buckets aren't a single snapshot.
                let t = time.plus_hours(k as f64 * 2.0 / 60.0);
                walk_trajectory(&self.env, &self.rps, t, *ci, k % 2 == 1, &mut rng)
            })
            .collect();
        EvalBucket { label: label.clone(), ci: *ci, time: *time, trajectories }
    }

    /// Materializes the whole suite: the offline survey (sharded per RP)
    /// and every evaluation bucket, buckets fanned out over
    /// `STONE_THREADS` threads. Bitwise-identical at any thread count.
    #[must_use]
    pub fn build(&self) -> LongTermSuite {
        let train = self.train();
        let buckets = stone_par::par_map(&self.timeline, |i, _| self.bucket(i));
        LongTermSuite {
            kind: self.kind,
            name: self.name.clone(),
            env: self.env.clone(),
            train,
            buckets,
        }
    }
}

/// Plans the UJI-like suite: RP grid in an open hall, training on day 0
/// (up to 9 FPR), 15 monthly evaluation buckets, ~50% AP removal at month
/// 11 (Sec. V.A.1, V.B).
#[must_use]
pub fn uji_plan(cfg: &SuiteConfig) -> SuitePlan {
    let mut env = presets::uji_hall_environment(cfg.seed);
    let mut rng = stream_rng(cfg.seed, DOMAIN_SETUP, SuiteKind::Uji, 0);

    // 7 × 7 grid, 4 m pitch, inside the hall.
    let cols = 7usize;
    let mut rps = Vec::new();
    for r in 0..7usize {
        for c in 0..cols {
            rps.push(ReferencePoint {
                id: RpId((r * cols + c) as u32),
                pos: Point2::new(4.0 + c as f64 * 4.0, 3.0 + r as f64 * 4.0),
            });
        }
    }
    let rps: Vec<ReferencePoint> =
        serpentine(cols, rps).into_iter().step_by(cfg.rp_stride.max(1)).collect();

    // ~50% of APs disappear around month 11; light replacement churn before.
    let ap_ids: Vec<_> = env.aps().iter().map(|a| a.id).collect();
    let mut schedule = ApSchedule::mass_removal(&ap_ids, 0.5, SimTime::from_months(11.0), &mut rng);
    schedule.add_scattered_replacements(
        &ap_ids,
        0.08,
        SimTime::from_months(2.0),
        SimTime::from_months(10.0),
        &mut rng,
    );
    env.set_schedule(schedule);

    let timeline: Vec<(String, usize, SimTime)> = (1..=15)
        .map(|m| (format!("M{m:02}"), m, SimTime::from_months(m as f64).plus_hours(10.0)))
        .collect();

    SuitePlan {
        kind: SuiteKind::Uji,
        name: "UJI".into(),
        env,
        rps,
        train_t0: SimTime::from_hours(10.0),
        train_fpr: cfg.train_fpr.unwrap_or(9),
        timeline,
        trajectories_per_bucket: cfg.trajectories_per_bucket,
        seed: cfg.seed,
    }
}

/// Builds the UJI-like suite (see [`uji_plan`]).
#[must_use]
pub fn uji_suite(cfg: &SuiteConfig) -> LongTermSuite {
    uji_plan(cfg).build()
}

/// The Office/Basement CI timeline (Sec. V.A.2): CI 0–2 on day 0 at
/// 8 AM / 3 PM / 9 PM, CI 3–8 on consecutive days, CI 9–15 monthly.
fn ci_timeline() -> Vec<(String, usize, SimTime)> {
    (0..16)
        .map(|ci| {
            let t = match ci {
                0 => SimTime::from_hours(8.0),
                1 => SimTime::from_hours(15.0),
                2 => SimTime::from_hours(21.0),
                3..=8 => SimTime::from_days((ci - 2) as f64).plus_hours(10.0),
                _ => SimTime::from_days(6.0 + 30.0 * (ci - 8) as f64).plus_hours(10.0),
            };
            (format!("CI{ci:02}"), ci, t)
        })
        .collect()
}

fn corridor_plan(
    kind: SuiteKind,
    mut env: RadioEnvironment,
    length_m: f64,
    cfg: &SuiteConfig,
) -> SuitePlan {
    let mut rng = stream_rng(cfg.seed, DOMAIN_SETUP, kind, 0);

    // RPs every 1 m along the corridor centerline (paper: measurements 1 m
    // apart), thinned by `rp_stride` for tiny configs.
    let n = length_m.floor() as usize;
    let rps: Vec<ReferencePoint> = (0..n)
        .map(|k| ReferencePoint { id: RpId(k as u32), pos: Point2::new(0.5 + k as f64, 1.0) })
        .step_by(cfg.rp_stride.max(1))
        .collect();

    let timeline = ci_timeline();
    // ~20% of APs disappear after CI 11 (Fig. 4), plus light churn late in
    // the deployment.
    let ci11 = timeline[11].2;
    let ap_ids: Vec<_> = env.aps().iter().map(|a| a.id).collect();
    let mut schedule = ApSchedule::mass_removal(&ap_ids, 0.2, ci11, &mut rng);
    schedule.add_scattered_replacements(&ap_ids, 0.05, ci11, timeline[15].2, &mut rng);
    env.set_schedule(schedule);

    // Training: a subset of CI 0 (early morning). Evaluation walks start
    // half an hour after the stationary survey so the CI 0 bucket tests
    // *unseen* fingerprints from the same instance.
    let train_t0 = timeline[0].2;
    let eval_timeline: Vec<(String, usize, SimTime)> =
        timeline.iter().map(|(l, ci, t)| (l.clone(), *ci, t.plus_hours(0.5))).collect();

    SuitePlan {
        kind,
        name: format!("{kind}"),
        env,
        rps,
        train_t0,
        train_fpr: cfg.train_fpr.unwrap_or(6),
        timeline: eval_timeline,
        trajectories_per_bucket: cfg.trajectories_per_bucket,
        seed: cfg.seed,
    }
}

/// Plans the Office-like suite: a 48 m corridor with drywall offices,
/// CI 0–15 timeline, ~20% AP removal after CI 11.
#[must_use]
pub fn office_plan(cfg: &SuiteConfig) -> SuitePlan {
    corridor_plan(SuiteKind::Office, presets::office_environment(cfg.seed), 48.0, cfg)
}

/// Builds the Office-like suite (see [`office_plan`]).
#[must_use]
pub fn office_suite(cfg: &SuiteConfig) -> LongTermSuite {
    office_plan(cfg).build()
}

/// Plans the Basement-like suite: a 61 m corridor through metal-heavy labs,
/// CI 0–15 timeline, ~20% AP removal after CI 11.
#[must_use]
pub fn basement_plan(cfg: &SuiteConfig) -> SuitePlan {
    corridor_plan(SuiteKind::Basement, presets::basement_environment(cfg.seed), 61.0, cfg)
}

/// Builds the Basement-like suite (see [`basement_plan`]).
#[must_use]
pub fn basement_suite(cfg: &SuiteConfig) -> LongTermSuite {
    basement_plan(cfg).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn office_timeline_matches_paper() {
        let tl = ci_timeline();
        assert_eq!(tl.len(), 16);
        // CI 0-2: same day, 8 AM / 3 PM / 9 PM.
        assert_eq!(tl[0].2.hours(), 8.0);
        assert_eq!(tl[1].2.hours(), 15.0);
        assert_eq!(tl[2].2.hours(), 21.0);
        // CI 3-8: consecutive days.
        for (ci, entry) in tl.iter().enumerate().take(9).skip(3) {
            assert!((entry.2.days() - (ci - 2) as f64).abs() < 0.5);
        }
        // CI 9-15: ~30 days apart.
        for ci in 10..=15 {
            let gap = tl[ci].2.days() - tl[ci - 1].2.days();
            assert!((gap - 30.0).abs() < 0.1, "gap {gap} at CI{ci}");
        }
    }

    #[test]
    fn tiny_office_suite_shape() {
        let suite = office_suite(&SuiteConfig::tiny(1));
        assert_eq!(suite.buckets.len(), 16);
        assert_eq!(suite.kind, SuiteKind::Office);
        assert_eq!(suite.train.records_per_rp().values().max(), Some(&3));
        // Stride 6 over 48 RPs -> 8 RPs.
        assert_eq!(suite.train.rps().len(), 8);
        for b in &suite.buckets {
            assert_eq!(b.trajectories.len(), 1);
            assert_eq!(b.trajectories[0].len(), 8);
        }
    }

    #[test]
    fn uji_suite_has_15_monthly_buckets() {
        let suite = uji_suite(&SuiteConfig::tiny(2));
        assert_eq!(suite.buckets.len(), 15);
        assert_eq!(suite.kind, SuiteKind::Uji);
        for (i, b) in suite.buckets.iter().enumerate() {
            assert!((b.time.months() - (i + 1) as f64).abs() < 0.1);
        }
    }

    #[test]
    fn ap_visibility_drops_after_removal_event() {
        let suite = office_suite(&SuiteConfig::tiny(3));
        let vis = suite.visibility_matrix();
        let count = |row: &Vec<bool>| row.iter().filter(|&&b| b).count();
        let before = count(&vis[9]);
        let after = count(&vis[14]);
        assert!(
            (after as f64) < before as f64 * 0.95,
            "visibility did not drop: {before} -> {after}"
        );
    }

    #[test]
    fn uji_visibility_halves_after_month_11() {
        let suite = uji_suite(&SuiteConfig::tiny(4));
        let vis = suite.visibility_matrix();
        let count = |idx: usize| vis[idx].iter().filter(|&&b| b).count();
        // Bucket index 9 = month 10 (pre-removal), 11 = month 12 (post).
        let before = count(9);
        let after = count(11);
        assert!(
            (after as f64) < before as f64 * 0.75,
            "UJI visibility did not collapse: {before} -> {after}"
        );
    }

    #[test]
    fn training_labels_cover_all_rps() {
        let suite = basement_suite(&SuiteConfig::tiny(5));
        let per_rp = suite.train.records_per_rp();
        assert_eq!(per_rp.len(), suite.train.rps().len());
    }

    #[test]
    fn trajectories_alternate_direction() {
        let cfg = SuiteConfig { trajectories_per_bucket: 2, ..SuiteConfig::tiny(6) };
        let suite = office_suite(&cfg);
        let b = &suite.buckets[0];
        let first = &b.trajectories[0].fingerprints;
        let second = &b.trajectories[1].fingerprints;
        assert_eq!(first.first().unwrap().rp, second.last().unwrap().rp);
    }

    #[test]
    fn suites_are_deterministic_per_seed() {
        let a = office_suite(&SuiteConfig::tiny(9));
        let b = office_suite(&SuiteConfig::tiny(9));
        assert_eq!(a.train.records(), b.train.records());
        assert_eq!(
            a.buckets[5].trajectories[0].fingerprints,
            b.buckets[5].trajectories[0].fingerprints
        );
    }

    #[test]
    fn on_demand_bucket_equals_built_bucket() {
        // A bucket is a pure function of (plan, index): materializing
        // bucket 12 alone must reproduce the fully-built suite's bucket 12.
        let cfg = SuiteConfig::tiny(10);
        let plan = office_plan(&cfg);
        let suite = plan.build();
        assert_eq!(plan.bucket(12), suite.buckets[12]);
        assert_eq!(plan.bucket(0), suite.buckets[0]);
    }

    #[test]
    fn streamed_buckets_match_built_suite() {
        let cfg = SuiteConfig::tiny(11);
        let plan = uji_plan(&cfg);
        let suite = plan.build();
        let streamed: Vec<EvalBucket> = (0..plan.bucket_count()).map(|i| plan.bucket(i)).collect();
        assert_eq!(streamed, suite.buckets);
        assert_eq!(plan.train().records(), suite.train.records());
    }

    #[test]
    fn plan_exposes_suite_shape() {
        let plan = basement_plan(&SuiteConfig::tiny(12));
        assert_eq!(plan.bucket_count(), 16);
    }

    #[test]
    fn buckets_use_independent_rng_streams() {
        // Regenerating bucket 5 must not depend on whether buckets 0..5
        // were generated first — pin that by comparing against a fresh plan
        // that only ever touches bucket 5.
        let cfg = SuiteConfig::tiny(13);
        let plan = office_plan(&cfg);
        let all: Vec<EvalBucket> = (0..plan.bucket_count()).map(|i| plan.bucket(i)).collect();
        let only_five = office_plan(&cfg).bucket(5);
        assert_eq!(only_five, all[5]);
    }

    #[test]
    fn serpentine_orders_grid_contiguously() {
        let rps: Vec<ReferencePoint> = (0..6)
            .map(|k| ReferencePoint {
                id: RpId(k),
                pos: Point2::new(f64::from(k % 3), f64::from(k / 3)),
            })
            .collect();
        let s = serpentine(3, rps);
        // Max step between consecutive RPs must be 1 m (grid pitch).
        for w in s.windows(2) {
            assert!(w[0].pos.distance(w[1].pos) <= 1.0 + 1e-9);
        }
    }
}
