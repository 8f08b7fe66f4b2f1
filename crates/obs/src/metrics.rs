//! Metrics registry and Prometheus-style text exposition.
//!
//! A [`Registry`] owns named metrics — [`Counter`], [`Gauge`],
//! [`Histogram`] — keyed by `(name, labels)`. Handles are cheap `Arc`
//! clones over atomics: callers resolve a handle once (registration
//! takes a mutex) and update it lock-free forever after, which is the
//! same discipline the serving stats use. [`Registry::render`] emits
//! the classic text format:
//!
//! ```text
//! # TYPE stone_pool_tasks_total counter
//! stone_pool_tasks_total{kind="pooled"} 128
//! ```
//!
//! [`parse_exposition`] is the strict inverse used by the round-trip
//! tests, including the admin document fetched over TCP: every
//! non-comment line must parse back into a `(name, labels, value)` sample.
//!
//! Histograms use the workspace's power-of-two microsecond buckets
//! (bucket *i* counts observations in `[2^i, 2^(i+1))` µs) rendered as
//! cumulative `_bucket{le="..."}` lines plus `_count` and `_sum`, so any
//! Prometheus-compatible reader can consume them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of power-of-two histogram buckets; bucket `i` counts
/// observations in `[2^i, 2^(i+1))` µs, with the top bucket clamping
/// everything at or above 2³⁹ µs (~6.4 days).
pub const HIST_BUCKETS: usize = 40;

/// Bucket index for a microsecond observation (0 maps to bucket 0).
pub fn pow2_bucket(us: u64) -> usize {
    ((63 - us.max(1).leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that moves both ways.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum_us: AtomicU64,
}

/// A power-of-two microsecond histogram.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    /// Record one observation in microseconds.
    pub fn observe_us(&self, us: u64) {
        self.0.buckets[pow2_bucket(us)].fetch_add(1, Ordering::Relaxed);
        self.0.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Snapshot of the raw bucket counts.
    pub fn buckets(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        for (o, b) in out.iter_mut().zip(self.0.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Sum of all observed values, in µs.
    pub fn sum_us(&self) -> u64 {
        self.0.sum_us.load(Ordering::Relaxed)
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

type MetricKey = (String, Vec<(String, String)>);

/// A registry of named metrics. Registration (the `counter` / `gauge` /
/// `histogram` get-or-create calls) takes a mutex; updates through the
/// returned handles are lock-free.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<MetricKey, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        (name.to_string(), labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<MetricKey, Metric>> {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get or create the counter `name{labels}`.
    ///
    /// # Panics
    /// If the same `(name, labels)` was already registered as a
    /// different metric type — a programming error, not a runtime state.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut map = self.lock();
        let entry = map
            .entry(Self::key(name, labels))
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))));
        match entry {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Get or create the gauge `name{labels}` (same contract as
    /// [`Registry::counter`]).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut map = self.lock();
        let entry = map
            .entry(Self::key(name, labels))
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicI64::new(0)))));
        match entry {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Get or create the histogram `name{labels}` (same contract as
    /// [`Registry::counter`]).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let mut map = self.lock();
        let entry = map.entry(Self::key(name, labels)).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(HistInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum_us: AtomicU64::new(0),
            })))
        });
        match entry {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Render every registered metric as exposition text, sorted by
    /// `(name, labels)` so output order is canonical.
    pub fn render(&self) -> String {
        let snapshot: Vec<(MetricKey, Metric)> = {
            let map = self.lock();
            map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
        };
        let mut out = String::new();
        let mut last_name: Option<(String, &'static str)> = None;
        for ((name, labels), metric) in snapshot {
            let owned: Vec<(&str, &str)> =
                labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            let needs_type = last_name.as_ref().map(|(n, _)| n != &name).unwrap_or(true);
            if needs_type {
                write_type(&mut out, &name, metric.kind());
                last_name = Some((name.clone(), metric.kind()));
            }
            match metric {
                Metric::Counter(c) => write_sample(&mut out, &name, &owned, c.get() as f64),
                Metric::Gauge(g) => write_sample(&mut out, &name, &owned, g.get() as f64),
                Metric::Histogram(h) => {
                    write_pow2_histogram(&mut out, &name, &owned, &h.buckets(), Some(h.sum_us()))
                }
            }
        }
        out
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry that the kernel-profiling hooks feed.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Escapes a label value so that [`parse_exposition`] reads it back
/// exactly, newlines included.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn fmt_value(buf: &mut String, value: f64) {
    // Counters/gauges are integers in this workspace; render them
    // without a fractional part so the text round-trips exactly.
    if value.fract() == 0.0 && value.abs() < 9e15 {
        buf.push_str(&format!("{}", value as i64));
    } else {
        buf.push_str(&format!("{value}"));
    }
}

/// Append a `# TYPE name kind` header line.
pub fn write_type(buf: &mut String, name: &str, kind: &str) {
    buf.push_str("# TYPE ");
    buf.push_str(name);
    buf.push(' ');
    buf.push_str(kind);
    buf.push('\n');
}

/// Append one `name{labels} value` sample line. Exposed so other crates
/// can render their own snapshots (the serving stats, the wire ledger)
/// in the same format without double-registering.
pub fn write_sample(buf: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    buf.push_str(name);
    if !labels.is_empty() {
        buf.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            buf.push_str(k);
            buf.push_str("=\"");
            buf.push_str(&escape_label(v));
            buf.push('"');
        }
        buf.push('}');
    }
    buf.push(' ');
    fmt_value(buf, value);
    buf.push('\n');
}

/// Render a power-of-two microsecond histogram as cumulative
/// `name_bucket{le="..."}` lines plus `name_count` (and `name_sum` when
/// the sum was tracked). Empty buckets are skipped — only the cumulative
/// count at each populated upper edge plus the `+Inf` line are emitted,
/// which keeps 40-bucket histograms compact on the wire.
pub fn write_pow2_histogram(
    buf: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    buckets: &[u64; HIST_BUCKETS],
    sum_us: Option<u64>,
) {
    let bucket_name = format!("{name}_bucket");
    let mut cumulative = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        cumulative += count;
        let le = format!("{}", 1u128 << (i + 1));
        let mut le_labels: Vec<(&str, &str)> = labels.to_vec();
        le_labels.push(("le", le.as_str()));
        write_sample(buf, &bucket_name, &le_labels, cumulative as f64);
    }
    let mut inf_labels: Vec<(&str, &str)> = labels.to_vec();
    inf_labels.push(("le", "+Inf"));
    write_sample(buf, &bucket_name, &inf_labels, cumulative as f64);
    if let Some(sum) = sum_us {
        write_sample(buf, &format!("{name}_sum"), labels, sum as f64);
    }
    write_sample(buf, &format!("{name}_count"), labels, cumulative as f64);
}

/// One parsed exposition sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// Label pairs, in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Strictly parse exposition text: every non-empty, non-comment line
/// must be a valid `name{labels} value` sample. Returns the samples or
/// a description of the first malformed line.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_line(line).map_err(|e| format!("line {}: {e}: {line:?}", lineno + 1))?);
    }
    Ok(out)
}

fn parse_line(line: &str) -> Result<Sample, String> {
    let (ident, value_str) = match line.find('{') {
        Some(brace) => {
            let close = line.rfind('}').ok_or("unterminated label block")?;
            if close < brace {
                return Err("mismatched braces".into());
            }
            (&line[..close + 1], line[close + 1..].trim())
        }
        None => {
            let sp = line.find(' ').ok_or("missing value")?;
            (&line[..sp], line[sp + 1..].trim())
        }
    };
    let (name, labels) = match ident.find('{') {
        Some(brace) => {
            let name = &ident[..brace];
            let inner = &ident[brace + 1..ident.len() - 1];
            (name, parse_labels(inner)?)
        }
        None => (ident, Vec::new()),
    };
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
        return Err(format!("invalid metric name {name:?}"));
    }
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse::<f64>().map_err(|_| "invalid value")?,
    };
    Ok(Sample { name: name.to_string(), labels, value })
}

fn parse_labels(inner: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = inner;
    while !rest.is_empty() {
        let eq = rest.find("=\"").ok_or("label missing =\"")?;
        let key = &rest[..eq];
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("invalid label name {key:?}"));
        }
        // Scan for the closing quote, honoring \", \\ and \n escapes.
        let mut value = String::new();
        let bytes = &rest[eq + 2..];
        let mut chars = bytes.char_indices();
        let mut closed_at = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    _ => return Err("bad escape in label value".into()),
                },
                '"' => {
                    closed_at = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let closed_at = closed_at.ok_or("unterminated label value")?;
        labels.push((key.to_string(), value));
        rest = &bytes[closed_at + 1..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err("expected , between labels".into());
        }
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_register_and_update() {
        let reg = Registry::new();
        let c = reg.counter("reqs_total", &[("venue", "office")]);
        c.inc();
        c.add(2);
        // Re-registration returns the same underlying atomic.
        assert_eq!(reg.counter("reqs_total", &[("venue", "office")]).get(), 3);
        let g = reg.gauge("depth", &[]);
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        let h = reg.histogram("lat_us", &[]);
        h.observe_us(3);
        h.observe_us(300);
        assert_eq!(h.buckets().iter().sum::<u64>(), 2);
        assert_eq!(h.sum_us(), 303);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x", &[]);
        reg.gauge("x", &[]);
    }

    #[test]
    fn render_parses_back_exactly() {
        let reg = Registry::new();
        reg.counter("a_total", &[("venue", "of\"fi\\ce\nb")]).add(7);
        reg.gauge("b_depth", &[]).set(-4);
        let h = reg.histogram("c_us", &[("venue", "x")]);
        h.observe_us(1);
        h.observe_us(1_000_000);
        let text = reg.render();
        let samples = parse_exposition(&text).expect("render output parses");
        let find =
            |name: &str| -> Vec<&Sample> { samples.iter().filter(|s| s.name == name).collect() };
        assert_eq!(find("a_total")[0].value, 7.0);
        assert_eq!(find("a_total")[0].labels[0].1, "of\"fi\\ce\nb");
        assert_eq!(find("b_depth")[0].value, -4.0);
        assert_eq!(find("c_us_count")[0].value, 2.0);
        assert_eq!(find("c_us_sum")[0].value, 1_000_001.0);
        // Cumulative +Inf bucket equals the count.
        let inf = find("c_us_bucket")
            .into_iter()
            .find(|s| s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf"))
            .expect("+Inf bucket present");
        assert_eq!(inf.value, 2.0);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "no_value",
            "name{unclosed 1",
            "name{k=\"v\" 1",
            "na me 1",
            "name{k=v} 1",
            "name 12abc",
        ] {
            assert!(parse_exposition(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn pow2_bucket_edges() {
        assert_eq!(pow2_bucket(0), 0);
        assert_eq!(pow2_bucket(1), 0);
        assert_eq!(pow2_bucket(2), 1);
        assert_eq!(pow2_bucket(3), 1);
        assert_eq!(pow2_bucket(4), 2);
        assert_eq!(pow2_bucket(u64::MAX), HIST_BUCKETS - 1);
    }
}
