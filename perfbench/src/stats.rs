//! Sample statistics and the JSON the benchmark prints.

use std::fmt::Write as _;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an ascending sample;
/// 0 for an empty one.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Cuts a run into `slices` equal slices of `slice_s` seconds and sorts each
/// one's values: `samples` are `(offset into the run in s, value)`; samples
/// past the last slice are dropped.
pub fn slices(samples: &[(f64, f64)], slice_s: f64, slices: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); slices];
    for &(at, v) in samples {
        if let Some(s) = out.get_mut((at / slice_s) as usize) {
            s.push(v);
        }
    }
    for s in &mut out {
        s.sort_by(f64::total_cmp);
    }
    out
}

/// Median over the non-empty slices of each slice's `q` quantile. A short
/// burst of interference from outside the program moves one or two slices,
/// not the median.
pub fn median_of_slices(slices: &[Vec<f64>], q: f64) -> f64 {
    let per: Vec<f64> = slices.iter().filter(|s| !s.is_empty()).map(|s| quantile(s, q)).collect();
    median(&per)
}

/// Quantile of whole-microsecond durations, read as grouped data: a span
/// recorded as `v` µs lasted somewhere in `[v, v + 1)`, so the quantile
/// interpolates inside that class instead of snapping to the integer every
/// tied sample shares.
pub fn grouped_quantile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let target = q * sorted.len() as f64;
    let mut below = 0usize;
    let mut i = 0;
    while i < sorted.len() {
        let v = sorted[i];
        let at = sorted[i..].iter().take_while(|&&x| x == v).count();
        if (below + at) as f64 >= target {
            return v as f64 + (target - below as f64) / at as f64;
        }
        below += at;
        i += at;
    }
    *sorted.last().unwrap() as f64 + 1.0
}

/// One reported number: value, unit, and the sample count or base it was
/// computed from (0 when the workload does not exercise the layer).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub base: u64,
}

/// An ordered metric set.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, base: u64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric { name, value, unit, base });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Minimal JSON writer: enough for flat objects of strings, numbers,
/// booleans and nested objects, with proper string escaping.
#[derive(Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, k: &str) {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        write_str(&mut self.buf, k);
        self.buf.push(':');
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        write_str(&mut self.buf, v);
        self
    }

    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        assert!(v.is_finite(), "JSON number {k} is not finite");
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn obj(mut self, k: &str, v: Obj) -> Self {
        self.key(k);
        self.buf.push_str(&v.finish());
        self
    }

    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

fn write_str(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// `{"name": {"value": v, "unit": u}, ...}` — with `with_base`, each entry
/// also carries its sample count as `"n"`.
pub fn metrics_json(metrics: &Metrics, with_base: bool) -> Obj {
    metrics.0.iter().fold(Obj::new(), |o, m| {
        let mut entry = Obj::new().num("value", m.value).str("unit", m.unit);
        if with_base {
            entry = entry.int("n", m.base);
        }
        o.obj(&m.name, entry)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn grouped_quantile_splits_ties() {
        // Ten samples all at 3 µs: the median sits mid-class.
        assert_eq!(grouped_quantile_us(&[3; 10], 0.5), 3.5);
        assert_eq!(grouped_quantile_us(&[1, 1, 2, 2], 0.5), 2.0);
    }

    #[test]
    fn json_escapes_and_nests() {
        let s = Obj::new().str("a\"", "x\ny").obj("m", Obj::new().num("v", 1.5)).finish();
        assert_eq!(s, r#"{"a\"":"x\u000ay","m":{"v":1.5}}"#);
    }
}
