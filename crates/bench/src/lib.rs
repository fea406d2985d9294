//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation.
//!
//! Each experiment lives in [`experiments`] as a function returning the
//! rendered rows/series, and [`registry`] indexes them by stable id in
//! paper order. The `run_all` binary executes the whole registry (writing
//! the combined report that `EXPERIMENTS.md` is checked against); `run_all
//! --only <id>` prints one experiment and `run_all --list` shows the ids.

pub mod check;
pub mod experiments;
pub mod registry;
pub mod report;

/// Formats a floating value with a fixed width for table output.
pub fn cell(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Renders a header followed by aligned rows.
pub fn table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = format!("== {title} ==\n");
    let fmt_row = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let out = table(
            "demo",
            &["name", "value"],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["longer".into(), "2.50".into()],
            ],
        );
        assert!(out.contains("== demo =="));
        assert!(out.contains("longer"));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn cell_formats() {
        assert_eq!(cell(1.2345, 2), "1.23");
        assert_eq!(cell(10.0, 0), "10");
    }
}
