//! Plain CSV export for experiment outputs.
//!
//! Every benchmark harness writes its rows through these helpers so the
//! figures can be re-plotted from flat files. Hand-rolled on purpose: the
//! format is trivial and a dependency would be heavier than the code.

use std::fs::File;
use std::io::{BufWriter, Error, ErrorKind, Result, Write};
use std::path::Path;

/// Writes `header` then `rows` to `path` as CSV. Fields containing commas,
/// quotes, or newlines are quoted.
///
/// Every row must have exactly `header.len()` fields; a mismatch returns an
/// [`ErrorKind::InvalidInput`] error (in release builds too — a ragged CSV
/// silently mis-aligns every downstream plot). The file is created before
/// rows are validated, so a failed write may leave a partial file behind.
pub fn write_csv<P: AsRef<Path>>(path: P, header: &[&str], rows: &[Vec<String>]) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(
        w,
        "{}",
        header
            .iter()
            .map(|h| escape(h))
            .collect::<Vec<_>>()
            .join(",")
    )?;
    for (i, row) in rows.iter().enumerate() {
        if row.len() != header.len() {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                format!(
                    "CSV row {i} has {} fields but the header has {}",
                    row.len(),
                    header.len()
                ),
            ));
        }
        writeln!(
            w,
            "{}",
            row.iter().map(|f| escape(f)).collect::<Vec<_>>().join(",")
        )?;
    }
    w.flush()
}

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_escapes() {
        let dir = std::env::temp_dir().join("elephant_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.csv");
        write_csv(
            &path,
            &["a", "b"],
            &[
                vec!["1".into(), "plain".into()],
                vec!["2".into(), "has,comma".into()],
                vec!["3".into(), "has\"quote".into()],
            ],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,plain\n2,\"has,comma\"\n3,\"has\"\"quote\"\n");
    }

    #[test]
    fn rejects_ragged_rows() {
        let dir = std::env::temp_dir().join("elephant_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged.csv");
        let err = write_csv(
            &path,
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["lonely".into()]],
        )
        .expect_err("ragged row must fail");
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        assert!(err.to_string().contains("row 1"), "got: {err}");
    }
}
