//! Plain-text table rendering for the figure harnesses.
//!
//! Every figure harness prints its series as an aligned text table; this
//! module keeps the formatting in one place.

/// A simple column-aligned text table builder.
///
/// ```
/// use zerodev_common::table::Table;
/// let mut t = Table::new(&["app", "speedup"]);
/// t.row(&["vips".to_string(), "0.98".to_string()]);
/// let s = t.render();
/// assert!(s.contains("vips"));
/// assert!(s.lines().count() >= 3);
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: &[String]) {
        let mut v: Vec<String> = cells.to_vec();
        while v.len() < self.header.len() {
            v.push(String::new());
        }
        self.rows.push(v);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns and a separator rule.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate().take(widths.len()) {
                if i > 0 {
                    line.push_str("  ");
                }
                // Right-align numeric-looking cells, left-align text.
                let numeric = c
                    .chars()
                    .all(|ch| ch.is_ascii_digit() || "+-.%eE".contains(ch))
                    && !c.is_empty();
                if numeric {
                    line.push_str(&format!("{c:>w$}", w = widths[i]));
                } else {
                    line.push_str(&format!("{c:<w$}", w = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let rule_len = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }
}

/// Geometric mean of a slice of positive values (the paper's GEOMEAN bars).
///
/// # Panics
/// Panics if `values` is empty or any value is non-positive.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean.
///
/// # Panics
/// Panics if `values` is empty.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha".into(), "1.000".into()]);
        t.row(&["b".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with('-'));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn numeric_cells_right_align() {
        let mut t = Table::new(&["col"]);
        t.row(&["5".into()]);
        t.row(&["500".into()]);
        let s = t.render();
        assert!(s.contains("  5\n"), "short numbers padded left: {s}");
    }

    #[test]
    fn geomean_matches_hand_calc() {
        let g = geomean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert!((geomean(&[0.9, 0.9, 0.9]) - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn mean_works() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
