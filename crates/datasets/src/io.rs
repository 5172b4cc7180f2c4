//! CSV import/export of `(score, label)` datasets.
//!
//! Real deployments run their own proxy over their own data; this module
//! lets them dump per-record scores and (where available) labels to a
//! two-column CSV and run the SUPG pipeline unchanged. The format is
//! deliberately minimal: a `score,label` header followed by one
//! `<float>,<0|1>` row per record.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::labeled::LabeledData;

/// Errors arising from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural or value-level parse failure, with the 1-based line.
    Parse {
        /// 1-based line number of the offending row.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// The file contained a header but no data rows.
    Empty,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::Parse { line, message } => write!(f, "line {line}: {message}"),
            CsvError::Empty => write!(f, "no data rows"),
        }
    }
}

impl std::error::Error for CsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Serializes a dataset as `score,label` CSV text.
pub fn to_csv_string(data: &LabeledData) -> String {
    let mut out = String::with_capacity(16 * data.len() + 16);
    out.push_str("score,label\n");
    for (&s, &l) in data.scores().iter().zip(data.labels()) {
        // `{:e}` keeps full precision for the sub-normal synthetic scores.
        let _ = writeln!(out, "{:e},{}", s, u8::from(l));
    }
    out
}

/// Writes a dataset to `path` as CSV.
pub fn write_csv(data: &LabeledData, path: &Path) -> Result<(), CsvError> {
    fs::write(path, to_csv_string(data))?;
    Ok(())
}

/// Parses one trimmed, non-empty `score,label` row.
fn parse_row(line: &str, line_no: usize) -> Result<(f64, bool), CsvError> {
    let (score_str, label_str) = line.split_once(',').ok_or_else(|| CsvError::Parse {
        line: line_no,
        message: format!("expected `score,label`, got {line:?}"),
    })?;
    let score: f64 = score_str.trim().parse().map_err(|e| CsvError::Parse {
        line: line_no,
        message: format!("bad score {score_str:?}: {e}"),
    })?;
    if !score.is_finite() || !(0.0..=1.0).contains(&score) {
        return Err(CsvError::Parse {
            line: line_no,
            message: format!("score {score} outside [0, 1]"),
        });
    }
    let label = match label_str.trim() {
        "0" | "false" => false,
        "1" | "true" => true,
        other => {
            return Err(CsvError::Parse {
                line: line_no,
                message: format!("bad label {other:?} (expected 0/1/true/false)"),
            })
        }
    };
    Ok((score, label))
}

/// Parses a dataset from CSV text (with or without the header row).
pub fn from_csv_string(text: &str) -> Result<LabeledData, CsvError> {
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if idx == 0 && line.eq_ignore_ascii_case("score,label") {
            continue;
        }
        let (score, label) = parse_row(line, line_no)?;
        scores.push(score);
        labels.push(label);
    }
    if scores.is_empty() {
        return Err(CsvError::Empty);
    }
    Ok(LabeledData::new(scores, labels))
}

/// Reads a dataset from a CSV file.
pub fn read_csv(path: &Path) -> Result<LabeledData, CsvError> {
    from_csv_string(&fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> LabeledData {
        LabeledData::new(vec![0.9, 1e-200, 0.25], vec![true, false, false])
    }

    #[test]
    fn round_trips_through_string() {
        let d = toy();
        let csv = to_csv_string(&d);
        let back = from_csv_string(&csv).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn round_trips_through_file() {
        let d = toy();
        let path = std::env::temp_dir().join("supg_io_test.csv");
        write_csv(&d, &path).unwrap();
        let back = read_csv(&path).unwrap();
        let _ = fs::remove_file(&path);
        assert_eq!(back, d);
    }

    #[test]
    fn accepts_headerless_and_boolean_labels() {
        let back = from_csv_string("0.5,true\n0.25,0\n").unwrap();
        assert_eq!(back.labels(), &[true, false]);
    }

    #[test]
    fn reports_line_numbers_on_errors() {
        let err = from_csv_string("score,label\n0.5,1\noops\n").unwrap_err();
        match err {
            CsvError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_out_of_range_scores_and_bad_labels() {
        assert!(matches!(
            from_csv_string("1.5,1\n"),
            Err(CsvError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            from_csv_string("0.5,maybe\n"),
            Err(CsvError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            from_csv_string("score,label\n"),
            Err(CsvError::Empty)
        ));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Scores across the full admissible range, weighted toward the
        /// hard cases: sub-normals (the synthetic generators emit scores
        /// down to ~1e-308) and the interval endpoints.
        fn score_strategy() -> impl Strategy<Value = f64> {
            prop_oneof![
                0.0f64..=1.0,
                0.0f64..=1.0,
                // Sub-normal magnitudes: any mantissa with a zero biased
                // exponent; bits in [0, 2^52) map onto [0, MIN_POSITIVE).
                (0u64..(1u64 << 52)).prop_map(f64::from_bits),
                Just(0.0f64),
                Just(1.0f64),
                Just(f64::MIN_POSITIVE),
            ]
        }

        proptest! {
            // CSV serialization is exact: `{:e}` emits the shortest
            // round-trippable decimal, so every score — including
            // sub-normals — parses back to the identical bits.
            #[test]
            fn csv_round_trip_is_bit_exact(
                rows in proptest::prop::collection::vec((score_strategy(), any::<bool>()), 1..200),
            ) {
                let (scores, labels): (Vec<f64>, Vec<bool>) = rows.into_iter().unzip();
                let d = LabeledData::new(scores, labels);
                let back = from_csv_string(&to_csv_string(&d)).unwrap();
                prop_assert_eq!(back.len(), d.len());
                for (a, b) in back.scores().iter().zip(d.scores()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                prop_assert_eq!(back.labels(), d.labels());
            }
        }
    }
}
