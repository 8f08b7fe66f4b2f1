//! CSV import/export of fingerprint datasets.
//!
//! The format mirrors common public fingerprint datasets (one row per scan,
//! one column per AP, then label columns):
//!
//! ```text
//! ap000,ap001,...,rp,x,y,time_h,ci
//! -62,-100,...,3,4.5,1,8,0
//! ```
//!
//! Floats are written with `{}` (Rust's shortest round-trip
//! representation), **never** with a fixed precision: `from_csv(to_csv(ds))`
//! reproduces every record bit-for-bit, which the workspace serialization
//! tests pin down. [`from_csv`] refuses any non-finite number.

use std::fmt::Write as _;

use stone_radio::{Point2, SimTime};

use crate::dataset::FingerprintDataset;
use crate::types::{Fingerprint, ReferencePoint, RpId};

/// Errors produced when parsing a CSV dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CsvError {
    /// The header row is missing or malformed.
    BadHeader,
    /// A data row has the wrong number of fields or an unparsable or
    /// non-finite value.
    BadRow {
        /// 1-based row number (excluding the header).
        row: usize,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::BadHeader => write!(f, "missing or malformed CSV header"),
            CsvError::BadRow { row } => write!(f, "malformed CSV data row {row}"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Serializes a dataset to CSV. Lossless: see the module docs.
#[must_use]
pub fn to_csv(ds: &FingerprintDataset) -> String {
    let mut out = String::new();
    for i in 0..ds.ap_count() {
        let _ = write!(out, "ap{i:03},");
    }
    out.push_str("rp,x,y,time_h,ci\n");
    for r in ds.records() {
        for v in &r.rssi {
            let _ = write!(out, "{v},");
        }
        let _ = writeln!(out, "{},{},{},{},{}", r.rp.0, r.pos.x, r.pos.y, r.time.hours(), r.ci);
    }
    out
}

/// Parses one data row: `ap_count` RSSI fields, then `rp,x,y,time_h,ci`.
/// `None` when the field count is wrong or a field does not parse, or when
/// a number is not finite once converted to the type it is stored as (an
/// RSSI of `1e39` parses as an f64 but overflows its f32) or a time is
/// negative.
fn parse_row(line: &str, ap_count: usize) -> Option<Fingerprint> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != ap_count + 5 {
        return None;
    }
    let float = |s: &str| s.trim().parse::<f64>().ok();
    let finite = |s: &str| float(s).filter(|v| v.is_finite());
    let rssi = fields[..ap_count]
        .iter()
        .map(|f| float(f).map(|v| v as f32).filter(|v| v.is_finite()))
        .collect::<Option<Vec<f32>>>()?;
    let rp = RpId(fields[ap_count].trim().parse::<u32>().ok()?);
    let pos = Point2::new(finite(fields[ap_count + 1])?, finite(fields[ap_count + 2])?);
    let time = SimTime::from_hours(finite(fields[ap_count + 3]).filter(|&h| h >= 0.0)?);
    let ci = fields[ap_count + 4].trim().parse::<usize>().ok()?;
    Some(Fingerprint { rssi, rp, pos, time, ci })
}

/// Parses a dataset from CSV produced by [`to_csv`].
///
/// Reference-point positions are reconstructed from the first record seen
/// for each RP id.
///
/// # Errors
///
/// Returns [`CsvError`] on a malformed header or row, including a row
/// holding a non-finite number (`NaN`, `inf`, or a value beyond the range
/// of the type it is stored as).
pub fn from_csv(name: &str, text: &str) -> Result<FingerprintDataset, CsvError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or(CsvError::BadHeader)?;
    let cols: Vec<&str> = header.split(',').collect();
    if cols.len() < 6 || cols[cols.len() - 5..] != ["rp", "x", "y", "time_h", "ci"] {
        return Err(CsvError::BadHeader);
    }
    let ap_count = cols.len() - 5;

    let mut rps: Vec<ReferencePoint> = Vec::new();
    let mut records: Vec<Fingerprint> = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fp = parse_row(line, ap_count).ok_or(CsvError::BadRow { row: i + 1 })?;
        if !rps.iter().any(|r| r.id == fp.rp) {
            rps.push(ReferencePoint { id: fp.rp, pos: fp.pos });
        }
        records.push(fp);
    }

    let mut ds = FingerprintDataset::new(name, ap_count, rps);
    for r in records {
        ds.push(r);
    }
    Ok(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::{office_suite, SuiteConfig};

    #[test]
    fn roundtrip_reproduces_dataset_exactly() {
        let suite = office_suite(&SuiteConfig::tiny(1));
        let csv = to_csv(&suite.train);
        let back = from_csv("roundtrip", &csv).unwrap();
        assert_eq!(back.ap_count(), suite.train.ap_count());
        // Full-precision serialization: records must be bit-identical, not
        // merely close — `{:.4}` truncation silently moved positions.
        assert_eq!(back.records(), suite.train.records());
        assert_eq!(back.rps(), suite.train.rps());
    }

    #[test]
    fn roundtrip_preserves_awkward_floats() {
        // Values with no short decimal representation must survive exactly.
        let rps = vec![ReferencePoint { id: RpId(0), pos: Point2::new(1.0 / 3.0, 2.0_f64.sqrt()) }];
        let mut ds = FingerprintDataset::new("awkward", 2, rps.clone());
        ds.push(Fingerprint {
            rssi: vec![-63.123_456_f32, -0.000_012_3_f32],
            rp: RpId(0),
            pos: rps[0].pos,
            time: SimTime::from_hours(1e-7),
            ci: 3,
        });
        let back = from_csv("awkward", &to_csv(&ds)).unwrap();
        assert_eq!(back.records(), ds.records());
        assert_eq!(back.rps(), ds.rps());
    }

    #[test]
    fn rejects_bad_header() {
        assert_eq!(from_csv("x", "a,b,c\n").unwrap_err(), CsvError::BadHeader);
        assert_eq!(from_csv("x", "").unwrap_err(), CsvError::BadHeader);
    }

    #[test]
    fn rejects_bad_row() {
        let text = "ap000,rp,x,y,time_h,ci\n-40.0,0,0.0,0.0,1.0\n";
        assert_eq!(from_csv("x", text).unwrap_err(), CsvError::BadRow { row: 1 });
        let text2 = "ap000,rp,x,y,time_h,ci\n-40.0,zz,0.0,0.0,1.0,0\n";
        assert_eq!(from_csv("x", text2).unwrap_err(), CsvError::BadRow { row: 1 });
        // Non-finite values, checked after conversion to the stored type:
        // 1e39 is a finite f64 but overflows the f32 RSSI. A negative time
        // has no `SimTime` either.
        for row in [
            "NaN,0,0.0,0.0,1.0,0",
            "-40.0,0,inf,0.0,1.0,0",
            "-40.0,0,0.0,0.0,NaN,0",
            "1e39,0,0.0,0.0,1.0,0",
            "-40.0,0,0.0,0.0,-1.0,0",
        ] {
            let text = format!("ap000,rp,x,y,time_h,ci\n-40.0,0,0.0,0.0,1.0,0\n{row}\n");
            assert_eq!(from_csv("x", &text).unwrap_err(), CsvError::BadRow { row: 2 }, "{row}");
        }
    }

    #[test]
    fn skips_blank_lines() {
        let text = "ap000,rp,x,y,time_h,ci\n-40.0,0,0.0,0.0,1.0,0\n\n";
        let ds = from_csv("x", text).unwrap();
        assert_eq!(ds.len(), 1);
    }
}
