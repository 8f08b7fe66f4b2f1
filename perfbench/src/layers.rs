//! Per-layer measurements for the traced run. Every number comes from
//! outside the program: timing calls into a crate's public functions, or
//! reading telemetry the program already exports (`stone_obs` stage spans,
//! the `STONE_PROF` counters, `StatsSnapshot`).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use stone_repro::core::SiameseTrainer;
use stone_repro::dataset::FingerprintDataset;
use stone_repro::nn::Mode;
use stone_repro::obs::{global, span_ledger, span_snapshot, Stage};
use stone_repro::prelude::*;
use stone_repro::serve::StatsSnapshot;
use stone_repro::tensor::Tensor;

use crate::stats::{grouped_quantile_us, median, Metrics};

/// Wall-clock budget of each batch-size probe.
const PROBE_BUDGET: Duration = Duration::from_millis(300);
/// Fewest timed calls per probe, however slow.
const PROBE_MIN_CALLS: usize = 16;

const KERNELS: [&str; 3] = ["matmul", "matmul_at_b", "matmul_a_bt"];

/// The `STONE_PROF` counters the tensor kernels and the worker pool feed.
#[derive(Clone, Copy, Default)]
pub struct Prof {
    calls: [u64; 3],
    busy_us: [u64; 3],
    macs: [u64; 3],
    regions: u64,
    pooled: u64,
    inline: u64,
}

impl Prof {
    pub fn now() -> Prof {
        let reg = global();
        let kernel = |name: &str, k: &str| reg.counter(name, &[("kernel", k)]).get();
        Prof {
            calls: KERNELS.map(|k| kernel("stone_prof_kernel_calls_total", k)),
            busy_us: KERNELS.map(|k| kernel("stone_prof_kernel_busy_us_total", k)),
            macs: KERNELS.map(|k| kernel("stone_prof_kernel_work_total", k)),
            regions: reg.counter("stone_pool_regions_total", &[]).get(),
            pooled: reg.counter("stone_pool_tasks_total", &[("kind", "pooled")]).get(),
            inline: reg.counter("stone_pool_tasks_total", &[("kind", "inline")]).get(),
        }
    }

    /// Counter deltas from `earlier` to `self`, as `tensor.*` and `par.*`
    /// metrics.
    pub fn put_since(&self, earlier: &Prof, m: &mut Metrics) {
        for (i, k) in KERNELS.iter().enumerate() {
            let calls = self.calls[i] - earlier.calls[i];
            let busy_us = self.busy_us[i] - earlier.busy_us[i];
            let macs = self.macs[i] - earlier.macs[i];
            m.put(format!("tensor.{k}.calls"), calls as f64, "count", calls);
            m.put(format!("tensor.{k}.busy_ms"), busy_us as f64 / 1e3, "ms", calls);
            let rate = if busy_us == 0 { 0.0 } else { macs as f64 / (busy_us as f64 * 1e3) };
            m.put(format!("tensor.{k}.macs_per_ns"), rate, "MAC/ns", calls);
        }
        let regions = self.regions - earlier.regions;
        m.put("par.regions", regions as f64, "count", regions);
        m.put("par.tasks_pooled", (self.pooled - earlier.pooled) as f64, "count", regions);
        m.put("par.tasks_inline", (self.inline - earlier.inline) as f64, "count", regions);
    }
}

/// Five-stage traces of the requests whose trace ids fall strictly inside
/// `(low, high)`: only traces with all five spans resident in the ring.
pub struct Stages {
    /// Per-stage µs samples, ascending, indexed by `Stage as usize`.
    pub by_stage: [Vec<u64>; 5],
    /// Five-stage sum (the server-side latency) per trace id.
    pub sums: HashMap<u64, u64>,
}

impl Stages {
    pub fn collect(low: u64, high: u64) -> Stages {
        let mut traces: HashMap<u64, [Option<u64>; 5]> = HashMap::new();
        for rec in span_snapshot() {
            if rec.trace_id > low && rec.trace_id < high {
                traces.entry(rec.trace_id).or_default()[rec.stage as usize] = Some(rec.dur_us);
            }
        }
        let mut by_stage: [Vec<u64>; 5] = Default::default();
        let mut sums = HashMap::new();
        for (id, durs) in traces {
            if durs.iter().any(Option::is_none) {
                continue;
            }
            let durs = durs.map(Option::unwrap);
            for (samples, d) in by_stage.iter_mut().zip(durs) {
                samples.push(d);
            }
            sums.insert(id, durs.iter().sum());
        }
        for s in &mut by_stage {
            s.sort_unstable();
        }
        Stages { by_stage, sums }
    }

    /// The stage shares of the mean five-stage sum; they add up to 100 %
    /// when the stages tile each request's latency.
    pub fn shares_sum_to_100(&self) -> bool {
        let n = self.sums.len();
        if n == 0 {
            return false;
        }
        let total: u64 = self.sums.values().sum();
        let shares: f64 =
            self.by_stage.iter().map(|s| 100.0 * s.iter().sum::<u64>() as f64 / total as f64).sum();
        (shares - 100.0).abs() < 1e-6
    }

    pub fn put(&self, m: &mut Metrics) {
        let n = self.sums.len() as u64;
        let stage = |s: Stage| &self.by_stage[s as usize];
        m.put(
            "serve.queue_wait_us.p50",
            grouped_quantile_us(stage(Stage::QueueWait), 0.5),
            "us",
            n,
        );
        m.put(
            "serve.queue_wait_us.p99",
            grouped_quantile_us(stage(Stage::QueueWait), 0.99),
            "us",
            n,
        );
        m.put("serve.collect_us.p50", grouped_quantile_us(stage(Stage::Collect), 0.5), "us", n);
        m.put("serve.snapshot_us.p50", grouped_quantile_us(stage(Stage::Snapshot), 0.5), "us", n);
        m.put("serve.infer_us.p50", grouped_quantile_us(stage(Stage::Infer), 0.5), "us", n);
        m.put(
            "serve.write_back_us.p50",
            grouped_quantile_us(stage(Stage::WriteBack), 0.5),
            "us",
            n,
        );
    }
}

/// Zeros for the serve-span metrics on a workload that does not run the
/// server.
pub fn put_no_serve(m: &mut Metrics) {
    for name in [
        "serve.queue_wait_us.p50",
        "serve.queue_wait_us.p99",
        "serve.collect_us.p50",
        "serve.snapshot_us.p50",
        "serve.infer_us.p50",
        "serve.write_back_us.p50",
    ] {
        m.put(name, 0.0, "us", 0);
    }
    put_batches(m, None);
}

/// Zeros for the metrics of a layer the workload does not exercise.
pub fn put_absent(m: &mut Metrics, names: &[(&str, &'static str)]) {
    for &(name, unit) in names {
        m.put(name, 0.0, unit, 0);
    }
}

pub const NET_METRICS: [(&str, &str); 4] = [
    ("net.overhead_us.p50", "us"),
    ("net.overhead_us.p99", "us"),
    ("net.frames_decoded", "count"),
    ("loadgen.lag_us.p99", "us"),
];
pub const PUBLISH_METRIC: [(&str, &str); 1] = [("serve.publish_ms.p50", "ms")];
pub const TRAIN_METRICS: [(&str, &str); 3] =
    [("train.encoder_s", "s"), ("train.enroll_s", "s"), ("train.step_ms", "ms")];

/// `serve.mean_batch` and `serve.batches` from the batch-histogram delta
/// between two server snapshots.
pub fn put_batches(m: &mut Metrics, window: Option<(&StatsSnapshot, &StatsSnapshot)>) {
    let (batches, requests) = window.map_or((0, 0), |(before, after)| {
        after.batch_hist.iter().enumerate().fold((0u64, 0u64), |(b, r), (i, &c)| {
            let d = c - before.batch_hist.get(i).copied().unwrap_or(0);
            (b + d, r + d * (i as u64 + 1))
        })
    });
    let mean = if batches == 0 { 0.0 } else { requests as f64 / batches as f64 };
    m.put("serve.mean_batch", mean, "count", batches);
    m.put("serve.batches", batches as f64, "count", batches);
}

/// Waits (up to 2 s) for every opened span to close — the write-back span
/// of a request is recorded just after its reply is delivered.
pub fn span_ledger_balances() -> bool {
    let until = Instant::now() + Duration::from_secs(2);
    loop {
        let (opened, closed) = span_ledger();
        if opened == closed {
            return true;
        }
        if Instant::now() > until {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Times `call(i)` for i = 0, 1, 2, … until the probe budget is spent;
/// returns the median call time in µs and the call count.
fn probe(mut call: impl FnMut(usize)) -> (f64, u64) {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < PROBE_MIN_CALLS || start.elapsed() < PROBE_BUDGET {
        let t = Instant::now();
        call(times.len());
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (median(&times), times.len() as u64)
}

/// The pool cut into batches of `b` scans.
fn batches(pool: &[Vec<f32>], b: usize) -> Vec<Vec<&[f32]>> {
    pool.chunks_exact(b).map(|c| c.iter().map(Vec::as_slice).collect()).collect()
}

/// `core.*` (preprocess, encode, KNN) and `nn.*` (each encoder layer) per
/// scan at batch 1 and batch 64, timed on the workload's own scan pool.
pub fn put_core_and_nn(m: &mut Metrics, model: &StoneLocalizer, pool: &[Vec<f32>]) {
    let codec = model.encoder().codec();
    let net = model.encoder().net();
    for b in [1usize, 64] {
        let raws = batches(pool, b);
        let inputs: Vec<Tensor> = raws.iter().map(|r| codec.encode_batch(r)).collect();
        let embeddings: Vec<Vec<Vec<f32>>> = inputs
            .iter()
            .map(|x| {
                let e = net.predict(x);
                (0..e.rows()).map(|i| e.row(i).to_vec()).collect()
            })
            .collect();
        let per_scan = |(us, n): (f64, u64)| (us / b as f64, n);
        let (us, n) = per_scan(probe(|i| {
            std::hint::black_box(codec.encode_batch(&raws[i % raws.len()]));
        }));
        m.put(format!("core.preprocess_us_per_scan.b{b}"), us, "us", n);
        let (us, n) = per_scan(probe(|i| {
            std::hint::black_box(net.predict(&inputs[i % inputs.len()]));
        }));
        m.put(format!("core.encode_us_per_scan.b{b}"), us, "us", n);
        let (us, n) = per_scan(probe(|i| {
            std::hint::black_box(model.knn().locate_batch(&embeddings[i % embeddings.len()]));
        }));
        m.put(format!("core.knn_us_per_scan.b{b}"), us, "us", n);

        // Each encoder layer on the input the layers before it produce.
        let layers = net.layers();
        let mut rng = StdRng::seed_from_u64(0);
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); layers.len()];
        let start = Instant::now();
        let mut passes = 0;
        while passes < PROBE_MIN_CALLS || start.elapsed() < PROBE_BUDGET {
            let mut x = inputs[passes % inputs.len()].clone();
            for (layer, t) in layers.iter().zip(&mut times) {
                let s = Instant::now();
                let (y, _) = layer.forward(&x, Mode::Infer, &mut rng);
                t.push(s.elapsed().as_secs_f64() * 1e6 / b as f64);
                x = y;
            }
            passes += 1;
        }
        for (i, (layer, t)) in layers.iter().zip(&times).enumerate() {
            m.put(format!("nn.{i:02}_{}_us.b{b}", layer.name()), median(t), "us", passes as u64);
        }
    }
}

/// `train.step_ms`: one `forward_train` + `backward` on a batch of 96
/// training images (one triplet step's worth of tower passes), median of
/// several steps; `train.encoder_s`: one `SiameseTrainer::train`.
pub fn put_trainer(
    m: &mut Metrics,
    model: &StoneLocalizer,
    train: &FingerprintDataset,
    seed: u64,
    fit_s: f64,
) {
    let codec = model.encoder().codec();
    let net = model.encoder().net();
    let images: Vec<Vec<f32>> =
        train.records().iter().cycle().take(96).map(|r| codec.encode(&r.rssi)).collect();
    let x = codec.batch_to_tensor(&images);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps = Vec::new();
    for _ in 0..8 {
        let t = Instant::now();
        let (y, caches) = net.forward_train(&x, &mut rng);
        let grads = net.backward(&caches, &Tensor::ones(y.shape().to_vec()));
        std::hint::black_box(grads);
        steps.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.put("train.step_ms", median(&steps), "ms", steps.len() as u64);
    let t = Instant::now();
    std::hint::black_box(SiameseTrainer::new(model.config().trainer).train(train, seed));
    let encoder_s = t.elapsed().as_secs_f64();
    m.put("train.encoder_s", encoder_s, "s", 1);
    m.put("train.enroll_s", fit_s - encoder_s, "s", 1);
}
