//! The repository's benchmark: three workloads over the STONE serving and
//! training stack, each checked for correct answers.
//!
//! ```text
//! perfbench --workload <inproc_saturated|fleet_16venue|longterm_uji>
//!           --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` (kernel counters and stage spans on) the per-layer
//! metrics. The line before it is the full record of the run: workload,
//! seed, machine, code version, parameters, checks, and every metric with
//! its sample count. See `perfbench/README.md`.

mod deploy;
mod fleet;
mod inproc;
mod layers;
mod longterm;
mod stats;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use stats::{metrics_json, Metrics, Obj};

/// Length of the slices whose medians the serving metrics report, s.
pub const SLICE_S: f64 = 1.0;

pub const WORKLOADS: [&str; 3] = ["inproc_saturated", "fleet_16venue", "longterm_uji"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let value = |flag: &str| -> Result<&str, String> {
            let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
            argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
        };
        let workload = value("--workload")?.to_string();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
        }
        let number = |flag: &str| -> Result<u64, String> {
            value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
        };
        let trace = match number("--trace")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        };
        let seconds = number("--seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args { workload, seed: number("--seed")?, seconds, trace })
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// The window cut into slices of [`SLICE_S`] (one slice when shorter):
    /// (slice count, slice length in s).
    pub fn slicing(&self) -> (usize, f64) {
        let n = ((self.seconds as f64 / SLICE_S) as usize).max(1);
        (n, self.seconds as f64 / n as f64)
    }
}

/// What a workload hands back: counts, checks, parameters and metrics.
pub struct Outcome {
    pub attempted: u64,
    pub ok: u64,
    /// Named pass/fail checks: ledgers, the oracle, determinism.
    pub checks: Vec<(String, bool)>,
    /// False when the generator could not keep the intended schedule.
    pub valid: bool,
    pub params: Vec<(&'static str, String)>,
    pub e2e: Metrics,
    pub layer: Metrics,
    /// Printed in the record only.
    pub diag: Metrics,
}

impl Outcome {
    pub fn new(attempted: u64, ok: u64) -> Outcome {
        Outcome {
            attempted,
            ok,
            checks: Vec::new(),
            valid: true,
            params: Vec::new(),
            e2e: Metrics::default(),
            layer: Metrics::default(),
            diag: Metrics::default(),
        }
    }

    pub fn check(&mut self, name: &str, pass: bool) {
        self.checks.push((name.to_string(), pass));
    }

    /// The end-to-end metrics of a serving workload. `answers` holds each
    /// correct answer as (send offset into the window in s, latency in ms).
    pub fn put_serving_e2e(
        &mut self,
        dep: &deploy::Serving,
        setup_s: f64,
        args: &Args,
        answers: &[(f64, f64)],
    ) {
        let (n, slice_s) = args.slicing();
        let completions: Vec<(f64, f64)> =
            answers.iter().map(|&(at, ms)| (at + ms / 1e3, 0.0)).collect();
        let per_slice: Vec<f64> = stats::slices(&completions, slice_s, n)
            .iter()
            .map(|s| s.len() as f64 / slice_s)
            .collect();
        put_latency(&mut self.e2e, &mut self.diag, &stats::slices(answers, slice_s, n));
        let e = &mut self.e2e;
        e.put("setup_s", setup_s, "s", deploy::SETUP_REPEATS as u64);
        e.put("ok_per_s", stats::median(&per_slice), "1/s", self.ok);
        e.put("ok_frac", self.ok as f64 / self.attempted.max(1) as f64, "ratio", self.attempted);
        e.put("fit_s", dep.fit_s(), "s", dep.fits.len() as u64);
        e.put("eval_scans_per_s", dep.eval_scans_per_s(), "1/s", dep.rates.len() as u64);
        e.put("mean_error_m", dep.mean_error_m, "m", dep.pool.len() as u64);
    }

    fn correct(&self) -> bool {
        self.ok == self.attempted && self.checks.iter().all(|&(_, pass)| pass)
    }
}

/// `latency_p50_ms` (end to end) and `latency_p95_ms`/`latency_p99_ms`
/// (record only): the median over the run's slices of each slice's
/// percentile, from latencies in ms. The tails stay out of the end-to-end
/// set: on this 2-vCPU box they moved by 30-60 % between identical runs
/// (on the fleet they fall among the ~4 % of requests queued behind a warm
/// republish), against 3-9 % for the median.
pub fn put_latency(e2e: &mut Metrics, diag: &mut Metrics, slices: &[Vec<f64>]) {
    let n = slices.iter().map(Vec::len).sum::<usize>() as u64;
    e2e.put("latency_p50_ms", stats::median_of_slices(slices, 0.5), "ms", n);
    diag.put("latency_p95_ms", stats::median_of_slices(slices, 0.95), "ms", n);
    diag.put("latency_p99_ms", stats::median_of_slices(slices, 0.99), "ms", n);
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit, when the benchmark runs inside a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "none".into(),
    }
}

/// FNV-1a digest over the paths and bytes of every source file the
/// benchmark builds, so records from an exported tree (no `.git`) still name
/// the code they measured.
fn source_digest() -> String {
    fn walk(path: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        if path.is_dir() {
            let Ok(entries) = std::fs::read_dir(path) else { return };
            for e in entries.flatten() {
                walk(&e.path(), out);
            }
        } else if path.extension().is_some_and(|x| x == "rs" || x == "toml" || x == "lock") {
            out.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench/src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The e2e metric whose untraced-vs-traced ratio is each workload's
/// tracing overhead, and whether higher is better.
fn overhead_metric(workload: &str) -> (&'static str, bool) {
    match workload {
        "inproc_saturated" => ("ok_per_s", true),
        "fleet_16venue" => ("latency_p50_ms", false),
        _ => ("fit_s", false),
    }
}

/// Runs this workload once more with tracing off, in a child process (the
/// kernel counters are latched per process), and returns its value of the
/// overhead metric.
fn untraced_reference(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
        .env_remove("STONE_PROF")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("untraced reference run failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    let (name, _) = overhead_metric(&args.workload);
    let key = format!("\"{name}\":{{\"value\":");
    let at = last.find(&key).ok_or(format!("no {name} in the reference result"))? + key.len();
    let rest = &last[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].parse().map_err(|e| format!("reference {name}: {e}"))
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let reference = if args.trace {
        match untraced_reference(&args) {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    // The kernel counters read STONE_PROF once, at their first use; set it
    // before any kernel runs so the traced run counts and the untraced run
    // does not.
    std::env::set_var("STONE_PROF", if args.trace { "1" } else { "0" });
    let process_start = Instant::now();
    let mut out = match args.workload.as_str() {
        "inproc_saturated" => inproc::run(&args, process_start),
        "fleet_16venue" => fleet::run(&args, process_start),
        _ => longterm::run(&args, process_start),
    };
    out.e2e.put("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    if let Some(untraced) = reference {
        let (name, higher_is_better) = overhead_metric(&args.workload);
        let traced = out.e2e.get(name).expect("overhead metric measured");
        let ratio = if higher_is_better { untraced / traced } else { traced / untraced };
        out.layer.put("obs.trace_overhead_pct", 100.0 * (ratio - 1.0), "%", 2);
    }

    let correct = out.correct();
    let params = out.params.iter().fold(Obj::new(), |o, (k, v)| o.str(k, v));
    let checks = out.checks.iter().fold(Obj::new(), |o, (k, v)| o.bool(k, *v));
    let mut all = Metrics::default();
    all.0.extend(out.e2e.0.iter().chain(&out.diag.0).cloned());
    if args.trace {
        all.0.extend(out.layer.0.iter().cloned());
    }
    let record = Obj::new()
        .str("workload", &args.workload)
        .int("seed", args.seed)
        .int("seconds", args.seconds)
        .bool("trace", args.trace)
        .str("git_rev", &git_rev())
        .str("source_digest", &source_digest())
        .int("nproc", std::thread::available_parallelism().map_or(1, |n| n.get() as u64))
        .int("max_threads", stone_repro::par::max_threads() as u64)
        .bool("simd_available", stone_repro::tensor::simd_available())
        .bool("fma_available", stone_repro::tensor::fma_available())
        .bool("correct", correct)
        .bool("valid", out.valid)
        .int("attempted", out.attempted)
        .int("failed", out.attempted - out.ok)
        .obj("params", params)
        .obj("checks", checks)
        .obj("metrics", metrics_json(&all, true));
    for (name, pass) in &out.checks {
        if !pass {
            eprintln!("perfbench: check failed: {name}");
        }
    }
    for m in &all.0 {
        eprintln!("{:<36} {:>16.6} {:<7} n={}", m.name, m.value, m.unit, m.base);
    }
    println!("{}", Obj::new().obj("record", record).finish());
    let shown = if args.trace { &out.layer } else { &out.e2e };
    let result = Obj::new()
        .bool("correct", correct)
        .int("attempted", out.attempted)
        .int("failed", out.attempted - out.ok)
        .obj("metrics", metrics_json(shown, false));
    println!("{}", result.finish());
    ExitCode::SUCCESS
}
