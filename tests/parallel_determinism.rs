//! The parallel subsystem's contract (see `docs/PERFORMANCE.md`): every
//! parallel path — tiled matmul, the encoder's training gradients,
//! batched embedding, parallel KNN sweep,
//! suite sharding, the `LocalizationServer` batch executors, and the
//! concurrent experiment runner — produces **bitwise-identical** results
//! at thread counts 1, 2 and 8, and the AVX2 matmul microkernel is
//! bit-equal to the `STONE_NO_SIMD` portable fallback. Since PR 6 every
//! parallel region runs on the long-lived `stone-par` worker pool, so
//! these tests also pin that results are independent of pool state
//! (warm, cold, shared across tests), and they cover the sub-2²⁰-MAC
//! sizes that only parallelize now that dispatch costs ~3.3 µs.
//!
//! `stone_par::with_threads` and `stone_tensor::with_backend` install
//! process-wide overrides, so every test in this binary takes
//! `THREAD_LOCK` before touching them. Apart from the explicit
//! portable-vs-AVX2 comparison, every test runs on the environment's
//! backend: AVX2 by default, portable under `STONE_NO_SIMD=1`.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rand::rngs::StdRng;
use rand::SeedableRng;
use stone::{
    build_encoder, EmbeddingKnn, EncoderConfig, KnnMode, StoneBuilder, StoneConfig, TrainerConfig,
};
use stone_baselines::{KnnBuilder, LtKnnBuilder};
use stone_dataset::{
    basement_plan, office_plan, office_suite, uji_plan, uji_suite, Framework, Localizer,
    LongTermSuite, RpId, SuiteConfig, SuitePlan,
};
use stone_eval::{Experiment, ExperimentReport};
use stone_par::with_threads;
use stone_radio::Point2;
use stone_serve::{LocalizationServer, ModelRegistry, ServerConfig};
use stone_tensor::{
    configured_backend, matmul, matmul_a_bt, matmul_at_b, rng::uniform_tensor, with_backend,
    MatmulBackend, Tensor,
};

static THREAD_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    THREAD_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Runs `f` at every thread count and asserts all results equal the
/// single-thread one.
fn assert_thread_invariant<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) {
    let baseline = with_threads(1, &f);
    for nt in THREAD_COUNTS {
        assert_eq!(with_threads(nt, &f), baseline, "diverged at {nt} threads");
    }
}

#[test]
fn matmul_variants_are_bitwise_identical_across_thread_counts() {
    let _g = lock();
    let mut rng = StdRng::seed_from_u64(11);
    // 168·118·90 ≈ 1.78M MACs — comfortably above the parallel threshold
    // (2²⁰ since the PR 4 re-derivation), with split points that don't
    // divide evenly at 2 or 8 threads and ragged register-tile edges in
    // every dimension.
    let a = uniform_tensor(&mut rng, vec![168, 118], -2.0, 2.0);
    let b = uniform_tensor(&mut rng, vec![118, 90], -2.0, 2.0);
    let at = uniform_tensor(&mut rng, vec![118, 168], -2.0, 2.0);
    let bt = uniform_tensor(&mut rng, vec![90, 118], -2.0, 2.0);
    assert_thread_invariant(|| -> Vec<Vec<f32>> {
        vec![
            matmul(&a, &b).into_vec(),
            matmul_at_b(&at, &b).into_vec(),
            matmul_a_bt(&a, &bt).into_vec(),
        ]
    });
}

#[test]
fn simd_kernels_are_bitwise_identical_to_no_simd_fallback() {
    let _g = lock();
    if configured_backend() != MatmulBackend::Simd {
        // Either a single-backend machine (no AVX2: the contract is vacuous
        // here) or STONE_NO_SIMD=1, the operator's AVX2 kill-switch, which
        // `with_backend(Simd)` would override by design (it's a test hook).
        // Honor it so the CI no-SIMD job never executes AVX2 code; the
        // default-environment run of this test covers the comparison.
        return;
    }
    // The AVX2 microkernel must be an execution strategy, never a numerics
    // change: bit-equality with the portable fallback on every variant,
    // over tiled, ragged-edge and narrow (< one tile) shapes, serial and
    // threaded.
    let mut rng = StdRng::seed_from_u64(13);
    for (m, k, n) in [(168, 118, 90), (64, 64, 64), (13, 29, 11), (3, 500, 40), (1, 64, 8)] {
        let a = uniform_tensor(&mut rng, vec![m, k], -2.0, 2.0);
        let b = uniform_tensor(&mut rng, vec![k, n], -2.0, 2.0);
        let at = uniform_tensor(&mut rng, vec![k, m], -2.0, 2.0);
        let bt = uniform_tensor(&mut rng, vec![n, k], -2.0, 2.0);
        let run = || -> Vec<Vec<f32>> {
            vec![
                matmul(&a, &b).into_vec(),
                matmul_at_b(&at, &b).into_vec(),
                matmul_a_bt(&a, &bt).into_vec(),
            ]
        };
        for nt in THREAD_COUNTS {
            let portable = with_backend(MatmulBackend::Portable, || with_threads(nt, run));
            let simd = with_backend(MatmulBackend::Simd, || with_threads(nt, run));
            assert_eq!(portable, simd, "{m}x{k}x{n} diverged at {nt} threads");
        }
    }
}

#[test]
fn matmul_parallel_path_equals_pre_parallel_reference() {
    let _g = lock();
    // Freeze the semantics: the tiled/parallel kernel must match the naive
    // triple loop (the seed implementation) exactly, element order and
    // all, not just approximately. 128·112·80 ≈ 1.15M MACs keeps the
    // parallel dispatch engaged above the PR 4 threshold.
    let mut rng = StdRng::seed_from_u64(12);
    let a = uniform_tensor(&mut rng, vec![128, 112], -1.0, 1.0);
    let b = uniform_tensor(&mut rng, vec![112, 80], -1.0, 1.0);
    let mut naive = Tensor::zeros(vec![128, 80]);
    for i in 0..128 {
        for p in 0..112 {
            let av = a.at2(i, p);
            if av != 0.0 {
                for j in 0..80 {
                    let v = naive.at2(i, j) + av * b.at2(p, j);
                    naive.set2(i, j, v);
                }
            }
        }
    }
    for nt in THREAD_COUNTS {
        let c = with_threads(nt, || matmul(&a, &b));
        assert_eq!(c.as_slice(), naive.as_slice(), "{nt} threads");
    }
}

#[test]
fn sub_threshold_matmuls_are_bitwise_identical_across_thread_counts() {
    let _g = lock();
    let mut rng = StdRng::seed_from_u64(17);
    // Shapes straddling the PR 6 threshold re-derivation (PAR_MIN_MACS
    // 2²⁰ → 2¹⁸ against pool dispatch):
    //   90·70·60  = 378K MACs — serial before the pool, parallel now;
    //   64·64·64  = 262 144 = exactly 2¹⁸ — the boundary engages (>=);
    //   40·40·40  = 64K — still serial on every path.
    // Bitwise equality across thread counts must hold in all three
    // regimes, with ragged tile edges and uneven row splits throughout.
    for (m, k, n) in [(90, 70, 60), (64, 64, 64), (40, 40, 40)] {
        let a = uniform_tensor(&mut rng, vec![m, k], -2.0, 2.0);
        let b = uniform_tensor(&mut rng, vec![k, n], -2.0, 2.0);
        let at = uniform_tensor(&mut rng, vec![k, m], -2.0, 2.0);
        let bt = uniform_tensor(&mut rng, vec![n, k], -2.0, 2.0);
        assert_thread_invariant(|| -> Vec<Vec<f32>> {
            vec![
                matmul(&a, &b).into_vec(),
                matmul_at_b(&at, &b).into_vec(),
                matmul_a_bt(&a, &bt).into_vec(),
            ]
        });
    }
}

#[test]
fn knn_sweep_and_batch_parallelize_deterministically_at_new_thresholds() {
    let _g = lock();
    // 2 100 references × dim 8 = 16.8K MACs per sweep — above the PR 6
    // sweep threshold (2¹⁴) but far below the spawn-era 2¹⁸, so this
    // venue-sized registry used to run serial and now exercises the
    // parallel sweep. Deterministic synthetic embeddings, no RNG.
    let mut knn = EmbeddingKnn::new(5, KnnMode::WeightedRegression);
    for i in 0..2100u32 {
        let e: Vec<f32> = (0..8).map(|d| ((i * 8 + d) as f32 * 0.377).sin()).collect();
        knn.insert(e, RpId(i % 40), Point2::new(f64::from(i % 7), f64::from(i % 13)));
    }
    let q: Vec<f32> = (0..8).map(|d| (d as f32 * 0.731).cos()).collect();
    assert_thread_invariant(|| knn.locate(&q));
    // 12 queries × 2 100 references = 25.2K pairs — above the new batch
    // threshold (2¹² = 4 096), below the spawn-era 2¹⁵ = 32 768: a
    // serve-sized coalesced batch that only parallelizes since PR 6.
    let queries: Vec<Vec<f32>> =
        (0..12u32).map(|i| (0..8).map(|d| ((i * 8 + d) as f32 * 0.911).sin()).collect()).collect();
    assert_thread_invariant(|| knn.locate_batch(&queries));
    // Query independence: the batch path must equal per-query locate
    // (pure scalar sweeps — no matmul, so no backend pinning needed).
    let singles: Vec<_> = queries.iter().map(|qq| knn.locate(qq)).collect();
    assert_eq!(knn.locate_batch(&queries), singles);
}

#[test]
fn localization_server_batching_is_deterministic_across_thread_counts() {
    let _g = lock();
    // The executor's batch *composition* depends on arrival timing, so
    // this pins determinism only because results are independent of batch
    // grouping: the narrow and tiled paths are bit-equal.
    let suite = office_suite(&SuiteConfig::tiny(43));
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("venue", tiny_stone().fit(&suite.train, 43));
    let snapshot = registry.snapshot("venue").expect("published");
    let scans: Vec<Vec<f32>> = suite
        .buckets
        .iter()
        .flat_map(|b| b.trajectories.iter().flat_map(|t| &t.fingerprints))
        .map(|f| f.rssi.clone())
        .take(24)
        .collect();
    let direct: Vec<_> =
        with_threads(1, || scans.iter().map(|s| snapshot.model().locate(s)).collect());
    for nt in THREAD_COUNTS {
        let answers: Vec<_> = with_threads(nt, || {
            let server = LocalizationServer::start(
                Arc::clone(&registry),
                ServerConfig { max_batch: 8, queue_capacity: 64, ..ServerConfig::default() },
            );
            let handle = server.handle();
            let tickets: Vec<_> =
                scans.iter().map(|s| handle.submit("venue", s).expect("enqueue")).collect();
            tickets.into_iter().map(|t| t.wait().expect("answered").position).collect()
        });
        assert_eq!(answers, direct, "served positions diverged at {nt} threads");
    }
}

fn tiny_stone() -> StoneBuilder {
    StoneBuilder::from_config(StoneConfig {
        trainer: TrainerConfig {
            embed_dim: 3,
            epochs: 2,
            triplets_per_epoch: 32,
            batch_size: 16,
            ..TrainerConfig::quick()
        },
        ..StoneConfig::quick()
    })
}

#[test]
fn embed_batch_matches_single_scan_embeddings_across_thread_counts() {
    let _g = lock();
    let suite = office_suite(&SuiteConfig::tiny(41));
    let loc = tiny_stone().fit(&suite.train, 41);
    let raws: Vec<&[f32]> =
        suite.train.records().iter().take(20).map(|r| r.rssi.as_slice()).collect();
    assert_thread_invariant(|| loc.embed_batch(&raws));
    let singles: Vec<Vec<f32>> = raws.iter().map(|r| loc.embed(r)).collect();
    assert_eq!(loc.embed_batch(&raws), singles, "batched forward != per-scan forward");
}

#[test]
fn locate_batch_matches_single_scan_locate() {
    let _g = lock();
    let suite = office_suite(&SuiteConfig::tiny(42));
    let loc = tiny_stone().fit(&suite.train, 42);
    let raws: Vec<&[f32]> =
        suite.buckets[0].trajectories[0].fingerprints.iter().map(|f| f.rssi.as_slice()).collect();
    assert_thread_invariant(|| loc.locate_batch(&raws));
    let singles: Vec<_> = raws.iter().map(|r| loc.locate(r)).collect();
    assert_eq!(loc.locate_batch(&raws), singles);
}

/// The comparable content of a suite: train records, bucket labels, and
/// per-trajectory fingerprints.
type SuiteBytes =
    (Vec<stone_dataset::Fingerprint>, Vec<String>, Vec<Vec<Vec<stone_dataset::Fingerprint>>>);

/// Every byte of a suite the frameworks consume. (`LongTermSuite` itself
/// holds the simulator, which has no `PartialEq`.)
fn suite_fingerprint(s: &LongTermSuite) -> SuiteBytes {
    (
        s.train.records().to_vec(),
        s.bucket_labels(),
        s.buckets
            .iter()
            .map(|b| b.trajectories.iter().map(|t| t.fingerprints.clone()).collect())
            .collect(),
    )
}

#[test]
fn sharded_suite_generation_is_bitwise_identical_across_thread_counts() {
    let _g = lock();
    // Property over both suite families and two seeds each: the sharded
    // generator (per-RP survey streams + per-bucket streams) must emit the
    // same bytes at STONE_THREADS ∈ {1, 2, 8}.
    type SuiteBuilder = Box<dyn Fn() -> LongTermSuite>;
    for seed in [7, 91] {
        let builders: [(&str, SuiteBuilder); 2] = [
            ("uji", Box::new(move || uji_suite(&SuiteConfig::tiny(seed)))),
            ("office", Box::new(move || office_suite(&SuiteConfig::tiny(seed)))),
        ];
        for (name, build) in builders {
            let baseline = with_threads(1, || suite_fingerprint(&build()));
            for nt in THREAD_COUNTS {
                assert_eq!(
                    with_threads(nt, || suite_fingerprint(&build())),
                    baseline,
                    "{name} seed {seed} diverged at {nt} threads"
                );
            }
        }
    }
}

#[test]
fn streamed_bucket_equals_materialized_twin_at_any_thread_count() {
    let _g = lock();
    let cfg = SuiteConfig::tiny(23);
    let plans: [(&str, SuitePlan); 3] =
        [("uji", uji_plan(&cfg)), ("office", office_plan(&cfg)), ("basement", basement_plan(&cfg))];
    for (name, plan) in plans {
        // Build in parallel; materialize each bucket on demand, serially
        // and at 8 threads — every bucket must be byte-identical either way.
        let built = with_threads(8, || plan.build());
        for nt in THREAD_COUNTS {
            let streamed: Vec<_> =
                with_threads(nt, || (0..plan.bucket_count()).map(|i| plan.bucket(i)).collect());
            assert_eq!(streamed, built.buckets, "{name} streamed diverged at {nt} threads");
        }
        assert_eq!(
            with_threads(1, || plan.train().records().to_vec()),
            built.train.records(),
            "{name} survey diverged"
        );
    }
}

/// The bits of one seeded training pass of the paper encoder on UJI's
/// 10 × 10 images: `forward_train` (noise and dropout draws included),
/// then `backward` of a fixed upstream gradient. The input gradient comes
/// first, then every parameter gradient in layer order.
fn encoder_gradient_bits(batch: usize) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(29);
    let net = build_encoder(&EncoderConfig::paper(10, 8), &mut rng);
    let x = uniform_tensor(&mut rng, vec![batch, 1, 10, 10], 0.0, 1.0);
    let (y, caches) = net.forward_train(&x, &mut rng);
    let dy = uniform_tensor(&mut rng, y.shape().to_vec(), -1.0, 1.0);
    let grads = net.backward(&caches, &dy);
    std::iter::once(&grads.grad_input)
        .chain(grads.param_grads.iter().flatten())
        .map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn encoder_training_gradients_are_bitwise_identical_across_threads_and_backends() {
    let _g = lock();
    // The trainer's per-tower batch, and a ragged one (9 = 8 + 1 rows; an
    // uneven sample split at 2, 3 and 8 threads).
    for batch in [32, 9] {
        let baseline = with_threads(1, || encoder_gradient_bits(batch));
        assert_eq!(baseline.len(), 1 + 8, "input gradient plus 4 weights and 4 biases");
        for nt in [2, 3, 8] {
            let got = with_threads(nt, || encoder_gradient_bits(batch));
            assert!(got == baseline, "batch {batch}: gradients diverged at {nt} threads");
        }
        // The baseline ran on the configured backend. When that is AVX2,
        // the portable kernel must match it; under STONE_NO_SIMD=1, or on a
        // CPU without AVX2, there is no second backend (see
        // `simd_kernels_are_bitwise_identical_to_no_simd_fallback`).
        if configured_backend() == MatmulBackend::Simd {
            for nt in [1, 2] {
                let portable = with_backend(MatmulBackend::Portable, || {
                    with_threads(nt, || encoder_gradient_bits(batch))
                });
                assert!(portable == baseline, "batch {batch}: portable diverged at {nt} threads");
            }
        }
    }
}

fn run_experiment(seed: u64) -> ExperimentReport {
    let suite = office_suite(&SuiteConfig::tiny(seed));
    let stone = tiny_stone();
    let knn = KnnBuilder::default();
    let lt = LtKnnBuilder::default();
    let frameworks: Vec<&dyn Framework> = vec![&stone, &knn, &lt];
    Experiment::new(seed).run(&suite, &frameworks)
}

#[test]
fn parallel_experiment_run_is_byte_identical_across_thread_counts() {
    let _g = lock();
    let baseline = with_threads(1, || run_experiment(77));
    for nt in THREAD_COUNTS {
        let report = with_threads(nt, || run_experiment(77));
        assert_eq!(report, baseline, "report diverged at {nt} threads");
        assert_eq!(report.to_csv(), baseline.to_csv(), "CSV diverged at {nt} threads");
        assert_eq!(
            report.render_table(),
            baseline.render_table(),
            "table diverged at {nt} threads"
        );
    }
    // Series order is the input roster order, not completion order.
    let names: Vec<&str> = baseline.series.iter().map(|s| s.framework.as_str()).collect();
    assert_eq!(names, vec!["STONE", "KNN", "LT-KNN"]);
}
