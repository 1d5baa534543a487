//! Plain-text table rendering for the figure/table harness.

/// Render a table with a header row; columns are right-aligned except the
/// first.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i == 0 {
                line.push_str(&format!("{:<w$}", c, w = widths[i]));
            } else {
                line.push_str(&format!("  {:>w$}", c, w = widths[i]));
            }
        }
        line.push('\n');
        line
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Format a ratio as `1.234`.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let t = render(
            &["wl", "speedup"],
            &[vec!["VADD".into(), f3(1.25)], vec!["KMN".into(), f3(1.668)]],
        );
        assert!(t.contains("VADD"));
        assert!(t.contains("1.668"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        render(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.179), "17.9%");
    }
}
