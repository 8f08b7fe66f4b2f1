//! Criterion micro-benchmarks for the on-device hot paths.
//!
//! The paper's motivation (Sec. I) includes running the whole pipeline on a
//! smartphone; these benches measure the per-scan inference cost of each
//! component on this machine: preprocessing, encoder forward pass, KNN
//! query, triplet selection and one full training step — plus two kinds
//! of pairs documented in `docs/PERFORMANCE.md`:
//!
//! * **serial-vs-parallel** (large matmul at 1 thread vs. the
//!   `STONE_THREADS` budget, batch-1 vs. batch-32 embedding, serial vs.
//!   sharded paper-scale UJI suite generation) — on a single-core machine
//!   these tie; the speedup appears with the core count;
//! * **scalar-vs-tiled** (the PR 3 blocked kernels vs. the register-tiled
//!   microkernels over encoder-shaped products: the serving-scale cube,
//!   tall-skinny, ragged-remainder and fused-transpose shapes) — the
//!   per-core speedup, visible even on one core. Set `STONE_NO_SIMD=1` to
//!   measure the portable fallback instead of AVX2;
//! * **uncoalesced-vs-coalesced serving** (`stone-serve` with `max_batch`
//!   1 vs. 64 under 4 closed-loop client threads) — what the batching
//!   server's adaptive coalescing buys end to end, channels included;
//! * **spawn-vs-pool dispatch** (one tiny fork-join region through the
//!   PR 6 worker pool vs. the scoped-spawn strategy it replaced) — the
//!   per-region overhead that sets every parallel-dispatch threshold;
//! * **FMA opt-in** (`matmul` on the `STONE_FMA=1` contracted kernel at
//!   the serving cube, next to the default AVX2 entry) — the per-core
//!   headroom the opt-in buys, where the CPU supports it.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use stone::{
    build_encoder, EmbeddingKnn, EncoderConfig, FloorplanAwareSelector, ImageCodec, KnnMode,
    StoneBuilder, StoneConfig, TrainIndex, TrainerConfig, TripletSelector,
};
use stone_dataset::{office_suite, uji_plan, Localizer, SuiteConfig};
use stone_radio::Point2;

fn quick_suite() -> stone_dataset::LongTermSuite {
    office_suite(&SuiteConfig::new(42))
}

fn bench_preprocess(c: &mut Criterion) {
    let suite = quick_suite();
    let codec = ImageCodec::new(suite.train.ap_count());
    let rssi = suite.train.records()[0].rssi.clone();
    c.bench_function("preprocess/encode_fingerprint", |b| {
        b.iter(|| black_box(codec.encode(black_box(&rssi))))
    });
}

fn bench_encoder_forward(c: &mut Criterion) {
    let suite = quick_suite();
    let codec = ImageCodec::new(suite.train.ap_count());
    let mut rng = StdRng::seed_from_u64(0);
    let net = build_encoder(&EncoderConfig::paper(codec.side(), 8), &mut rng);
    let x = codec.encode_batch(&[suite.train.records()[0].rssi.as_slice()]);
    c.bench_function("encoder/forward_single_scan", |b| {
        b.iter(|| black_box(net.predict(black_box(&x))))
    });
}

fn bench_locate(c: &mut Criterion) {
    let suite = quick_suite();
    let cfg = StoneConfig {
        trainer: TrainerConfig {
            epochs: 1,
            triplets_per_epoch: 32,
            batch_size: 32,
            ..TrainerConfig::quick()
        },
        ..StoneConfig::quick()
    };
    let loc = StoneBuilder::from_config(cfg).fit(&suite.train, 1);
    let rssi = suite.buckets[0].trajectories[0].fingerprints[0].rssi.clone();
    c.bench_function("stone/locate_single_scan", |b| {
        b.iter(|| black_box(loc.locate(black_box(&rssi))))
    });
}

fn bench_matmul_serial_vs_parallel(c: &mut Criterion) {
    use stone_tensor::{matmul, rng::uniform_tensor};
    let mut rng = StdRng::seed_from_u64(5);
    // 256³ = 16.8M MACs: far above the parallel threshold, the shape of a
    // batched encoder dense layer at serving scale.
    let a = uniform_tensor(&mut rng, vec![256, 256], -1.0, 1.0);
    let b = uniform_tensor(&mut rng, vec![256, 256], -1.0, 1.0);
    c.bench_function("matmul/256x256x256_serial_1thread", |bch| {
        bch.iter(|| stone_par::with_threads(1, || black_box(matmul(black_box(&a), black_box(&b)))))
    });
    c.bench_function("matmul/256x256x256_parallel_max_threads", |bch| {
        bch.iter(|| black_box(matmul(black_box(&a), black_box(&b))))
    });
}

fn bench_matmul_scalar_vs_tiled(c: &mut Criterion) {
    use stone_tensor::{
        matmul, matmul_a_bt, matmul_a_bt_scalar, matmul_at_b, matmul_at_b_scalar, matmul_scalar,
        rng::uniform_tensor, Tensor,
    };
    let mut rng = StdRng::seed_from_u64(6);
    let mut mk = |m: usize, k: usize| uniform_tensor(&mut rng, vec![m, k], -1.0, 1.0);

    // Scalar-vs-tiled pairs over encoder-shaped products, so the per-core
    // microkernel speedup (not just thread scaling) is visible in bench
    // output. `*_scalar` is the PR 3 blocked serial kernel kept as the
    // reference baseline; both entries run serial to isolate the kernels.
    type Pair = (&'static str, fn(&Tensor, &Tensor) -> Tensor, fn(&Tensor, &Tensor) -> Tensor);
    let pairs: [(Pair, Tensor, Tensor); 5] = [
        // The serving-scale cube of the serial-vs-parallel pair above.
        (("matmul/256x256x256", matmul_scalar, matmul), mk(256, 256), mk(256, 256)),
        // Tall-skinny: a batched embedding head (batch 1024, fc 32 → dim 8).
        (("matmul/1024x32x8_tall_skinny", matmul_scalar, matmul), mk(1024, 32), mk(32, 8)),
        // Ragged at every tile edge: no dimension is a multiple of 8.
        (("matmul/129x67x250_remainder", matmul_scalar, matmul), mk(129, 67), mk(67, 250)),
        // The two fused-transpose gradient products at the same cube.
        (("matmul_at_b/256x256x256", matmul_at_b_scalar, matmul_at_b), mk(256, 256), mk(256, 256)),
        (("matmul_a_bt/256x256x256", matmul_a_bt_scalar, matmul_a_bt), mk(256, 256), mk(256, 256)),
    ];
    for ((name, scalar, tiled), a, b) in pairs {
        c.bench_function(&format!("{name}_scalar"), |bch| {
            bch.iter(|| {
                stone_par::with_threads(1, || black_box(scalar(black_box(&a), black_box(&b))))
            })
        });
        c.bench_function(&format!("{name}_tiled"), |bch| {
            bch.iter(|| {
                stone_par::with_threads(1, || black_box(tiled(black_box(&a), black_box(&b))))
            })
        });
    }
}

fn bench_dispatch_spawn_vs_pool(c: &mut Criterion) {
    // The PR 6 tentpole measured directly: the cost of one tiny two-arm
    // fork-join region through the long-lived worker pool vs. the
    // spawn-per-region strategy it replaced (reproduced inline with raw
    // `thread::scope`, the way `par_chunks` used to run). The gap between
    // these entries is what justified dropping PAR_MIN_MACS 2²⁰ → 2¹⁸ and
    // the KNN thresholds with it — see docs/PERFORMANCE.md ("Knobs").
    let mut buf = vec![0.0f32; 16];
    // Warm the pool so the pool entry measures steady-state dispatch, not
    // the one-time lazy worker spawn.
    stone_par::with_threads(2, || stone_par::par_chunks(&mut buf, 8, |_, _| {}));
    c.bench_function("dispatch/forkjoin_region_pool_2threads", |b| {
        b.iter(|| {
            stone_par::with_threads(2, || {
                stone_par::par_chunks(black_box(&mut buf), 8, |_, block| {
                    for v in block.iter_mut() {
                        *v += 1.0;
                    }
                });
            })
        })
    });
    c.bench_function("dispatch/forkjoin_region_scoped_spawn_2threads", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                let (lo, hi) = buf.split_at_mut(8);
                s.spawn(|| {
                    for v in hi.iter_mut() {
                        *v += 1.0;
                    }
                });
                for v in lo.iter_mut() {
                    *v += 1.0;
                }
            });
        })
    });
    black_box(&buf);
}

fn bench_matmul_fma(c: &mut Criterion) {
    use stone_tensor::{fma_available, matmul, rng::uniform_tensor, with_backend, MatmulBackend};
    if !fma_available() {
        return; // entry only exists where the opt-in backend can run
    }
    let mut rng = StdRng::seed_from_u64(9);
    let a = uniform_tensor(&mut rng, vec![256, 256], -1.0, 1.0);
    let b = uniform_tensor(&mut rng, vec![256, 256], -1.0, 1.0);
    // The STONE_FMA=1 row for docs/PERFORMANCE.md, next to the default
    // AVX2 entry at the same serving-scale cube; serial to isolate the
    // kernel (thread scaling is the serial-vs-parallel pair's job).
    c.bench_function("matmul/256x256x256_fma_serial_1thread", |bch| {
        bch.iter(|| {
            stone_par::with_threads(1, || {
                with_backend(MatmulBackend::Fma, || black_box(matmul(black_box(&a), black_box(&b))))
            })
        })
    });
}

fn bench_embed_batch(c: &mut Criterion) {
    let suite = quick_suite();
    let codec = ImageCodec::new(suite.train.ap_count());
    let mut rng = StdRng::seed_from_u64(0);
    let net = build_encoder(&EncoderConfig::paper(codec.side(), 8), &mut rng);
    let raws: Vec<&[f32]> = suite.train.records()[..32].iter().map(|r| r.rssi.as_slice()).collect();
    let singles: Vec<_> = raws.iter().map(|r| codec.encode_batch(&[r])).collect();
    let batch = codec.encode_batch(&raws);
    // 32 batch-1 forward passes vs. one batch-32 pass: the gap is the
    // per-pass overhead `embed_batch`/`locate_batch` amortize.
    c.bench_function("encoder/forward_32_scans_batch1", |b| {
        b.iter(|| {
            for x in &singles {
                black_box(net.predict(black_box(x)));
            }
        })
    });
    c.bench_function("encoder/forward_32_scans_batch32", |b| {
        b.iter(|| black_box(net.predict(black_box(&batch))))
    });
}

fn bench_knn_query(c: &mut Criterion) {
    // 4096 references × 16 dims, k = 8 — an enrolled paper-scale reference
    // set. `nearest` quickselects the top k (O(N) + O(k log k)) instead of
    // fully sorting all N distances; this entry tracks that win.
    let mut rng = StdRng::seed_from_u64(13);
    let mut knn = EmbeddingKnn::new(8, KnnMode::Classify);
    use rand::Rng as _;
    for i in 0..4096u32 {
        let e: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        knn.insert(e, stone_dataset::RpId(i % 64), Point2::new(f64::from(i % 8), 0.0));
    }
    let q: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    c.bench_function("knn/classify_4096refs_dim16_k8", |b| {
        b.iter(|| black_box(knn.classify(black_box(&q))))
    });
}

fn bench_suite_generation(c: &mut Criterion) {
    // Paper-scale UJI generation (49 RPs × 9 FPR survey + 15 buckets × 2
    // walks): the serial-vs-sharded pair documented in
    // `docs/PERFORMANCE.md`. Each survey RP and each bucket draws from its
    // own seed-derived RNG stream, so the sharded entry is bitwise-equal to
    // the serial one — the gap is pure thread scaling.
    let cfg = SuiteConfig::new(42);
    c.bench_function("suite/uji_generation_serial_1thread", |b| {
        b.iter(|| stone_par::with_threads(1, || black_box(uji_plan(black_box(&cfg)).build())))
    });
    c.bench_function("suite/uji_generation_sharded_max_threads", |b| {
        b.iter(|| black_box(uji_plan(black_box(&cfg)).build()))
    });
}

fn bench_serve_batching(c: &mut Criterion) {
    use std::sync::Arc;
    use stone_serve::{LocalizationServer, ModelRegistry, ServerConfig};

    // The serving pair documented in docs/PERFORMANCE.md: 4 closed-loop
    // client threads fire 64 single-scan queries at the server, once with
    // batching disabled and once with adaptive coalescing (the default).
    // Both entries include the client threads and channel traffic — this
    // measures the served path end to end, not just the kernels.
    let suite = quick_suite();
    let cfg = StoneConfig {
        trainer: TrainerConfig {
            epochs: 1,
            triplets_per_epoch: 32,
            batch_size: 32,
            ..TrainerConfig::quick()
        },
        ..StoneConfig::quick()
    };
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("office", StoneBuilder::from_config(cfg).fit(&suite.train, 1));
    let scans: Vec<Vec<f32>> = suite.buckets.iter().flat_map(|b| b.raw_scans()).take(64).collect();

    for (name, max_batch) in
        [("serve/64scans_4clients_uncoalesced", 1), ("serve/64scans_4clients_coalesced", 64)]
    {
        let mut server = LocalizationServer::start(
            Arc::clone(&registry),
            ServerConfig { max_batch, ..ServerConfig::default() },
        );
        c.bench_function(name, |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for client in 0..4 {
                        let handle = server.handle();
                        let scans = &scans;
                        s.spawn(move || {
                            for scan in scans.iter().skip(client * 16).take(16) {
                                black_box(handle.locate("office", scan).expect("answered"));
                            }
                        });
                    }
                });
            })
        });
        server.shutdown();
    }
}

fn bench_triplet_selection(c: &mut Criterion) {
    let suite = quick_suite();
    let index = TrainIndex::new(&suite.train);
    let sel = FloorplanAwareSelector::default();
    c.bench_function("trainer/floorplan_aware_select", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(7),
            |mut rng| black_box(sel.select(&index, &mut rng)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_training_step(c: &mut Criterion) {
    let suite = quick_suite();
    let codec = ImageCodec::new(suite.train.ap_count());
    let mut rng = StdRng::seed_from_u64(0);
    let net = build_encoder(&EncoderConfig::paper(codec.side(), 8), &mut rng);
    let raws: Vec<&[f32]> = suite.train.records()[..16].iter().map(|r| r.rssi.as_slice()).collect();
    let x = codec.encode_batch(&raws);
    c.bench_function("trainer/forward_backward_batch16", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(3),
            |mut rng| {
                let (y, caches) = net.forward_train(black_box(&x), &mut rng);
                let g = stone_tensor::Tensor::ones(y.shape().to_vec());
                black_box(net.backward(&caches, &g))
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_preprocess,
        bench_encoder_forward,
        bench_dispatch_spawn_vs_pool,
        bench_matmul_serial_vs_parallel,
        bench_matmul_scalar_vs_tiled,
        bench_matmul_fma,
        bench_embed_batch,
        bench_locate,
        bench_knn_query,
        bench_serve_batching,
        bench_suite_generation,
        bench_triplet_selection,
        bench_training_step
);
criterion_main!(micro);
