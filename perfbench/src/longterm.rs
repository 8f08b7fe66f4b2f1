//! `longterm_uji`: the paper's Fig. 5 miniature. Each cycle fits STONE on
//! the day-0 survey, then walks every monthly bucket with
//! `locate_trajectory` and scores it. The run's seed orders the walk.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use stone_repro::dataset::LongTermSuite;
use stone_repro::prelude::*;

use crate::deploy::{self, same_point, DEPLOY_SEED, SUITE_REPEATS};
use crate::layers::{self, Prof};
use crate::stats::{median, sorted};
use crate::{put_latency, Args, Outcome};

/// Bucket walks after each fit.
pub const WALKS_PER_CYCLE: usize = 4;
/// Cycles per run, however short the window: `fit_s` is the median of at
/// least three ~7-s fits. One fit per run moved it by ~20 % between
/// identical runs on a shared 2-vCPU host.
pub const MIN_CYCLES: usize = 3;

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let mut setup = Vec::new();
    let mut builds = Vec::new();
    let mut suites_equal = true;
    let mut last: Option<LongTermSuite> = None;
    for rep in 0..SUITE_REPEATS {
        let start = if rep == 0 { process_start } else { Instant::now() };
        let t = Instant::now();
        let suite = deploy::uji().build();
        builds.push(t.elapsed().as_secs_f64() * 1e3);
        setup.push(start.elapsed().as_secs_f64());
        suites_equal &= last.as_ref().is_none_or(|prev| prev.buckets == suite.buckets);
        last = Some(suite);
    }
    let suite = last.expect("at least one set-up repetition");
    let trajectories = deploy::trajectory_count(&suite);
    let mut order: Vec<usize> = (0..trajectories).collect();
    order.shuffle(&mut StdRng::seed_from_u64(args.seed));

    let prof_before = Prof::now();
    let builder = StoneBuilder::quick();
    let (mut fits, mut rates, mut cycle_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut ok) = (0u64, 0u64);
    let mut reference: Option<Vec<Point2>> = None;
    let mut mean_error: Option<f64> = None;
    let mut errors_repeat = true;
    let start = Instant::now();
    let window = args.window().as_secs_f64();
    let model = loop {
        let t = Instant::now();
        let mut fitted = builder.fit(&suite.train, DEPLOY_SEED);
        fits.push(t.elapsed().as_secs_f64());
        let mut trajectory_ms = Vec::new();
        for _ in 0..WALKS_PER_CYCLE {
            let w = deploy::walk(&mut fitted, &suite, &order);
            let reference = reference.get_or_insert_with(|| w.preds.clone());
            attempted += w.preds.len() as u64;
            ok += w.preds.iter().zip(reference.iter()).filter(|(a, b)| same_point(**a, **b)).count()
                as u64;
            let first = *mean_error.get_or_insert(w.mean_error_m);
            errors_repeat &= first.to_bits() == w.mean_error_m.to_bits();
            rates.push(w.scans_per_s);
            trajectory_ms.extend(w.per_trajectory_s.iter().map(|s| s * 1e3));
        }
        cycle_ms.push(sorted(&trajectory_ms));
        // Start another cycle while the window is open.
        if fits.len() >= MIN_CYCLES && start.elapsed().as_secs_f64() >= window {
            break fitted;
        }
    };
    let wall = start.elapsed().as_secs_f64();
    let prof_after = Prof::now();
    let mean_error = mean_error.expect("at least one walk");

    let mut out = Outcome::new(attempted, ok);
    out.check("setup_repeats_identical", suites_equal);
    out.check("walks_repeat_bitwise", ok == attempted && errors_repeat);
    out.check("mean_error_m_recorded", deploy::mean_error_matches("uji", mean_error));
    out.params = vec![
        ("loop", "closed (fit, then walks)".into()),
        ("suite", "uji_plan, 15 monthly buckets, ~50% APs removed at month 11".into()),
        ("trajectories", trajectories.to_string()),
        ("walks_per_cycle", WALKS_PER_CYCLE.to_string()),
        ("cycles", fits.len().to_string()),
        ("stone_config", "quick".into()),
        ("window_s", format!("{wall:.3}")),
    ];
    put_latency(&mut out.e2e, &mut out.diag, &cycle_ms);
    let e = &mut out.e2e;
    e.put("setup_s", median(&setup), "s", setup.len() as u64);
    e.put("ok_per_s", ok as f64 / wall, "1/s", ok);
    e.put("ok_frac", ok as f64 / attempted as f64, "ratio", attempted);
    e.put("fit_s", median(&fits), "s", fits.len() as u64);
    e.put("eval_scans_per_s", median(&rates), "1/s", rates.len() as u64);
    e.put("mean_error_m", mean_error, "m", attempted / rates.len() as u64);

    if args.trace {
        let m = &mut out.layer;
        layers::put_no_serve(m);
        layers::put_absent(m, &layers::PUBLISH_METRIC);
        layers::put_absent(m, &layers::NET_METRICS);
        let pool: Vec<Vec<f32>> = suite.buckets.iter().flat_map(|b| b.raw_scans()).collect();
        layers::put_core_and_nn(m, &model, &pool);
        layers::put_trainer(m, &model, &suite.train, DEPLOY_SEED, median(&fits));
        prof_after.put_since(&prof_before, m);
        m.put("dataset.suite_build_ms", median(&builds), "ms", builds.len() as u64);
    }
    out
}
