//! Plain-text table and CSV rendering for experiment output.

use std::fmt::Write as _;

/// One column of a [`Table`]: its header, and how a row renders into
/// the column's cell.
pub type Column<R> = (&'static str, fn(&R) -> String);

/// A fixed-width table over an experiment's rows, each column described
/// once by a [`Column`], rendered aligned or as CSV; used by the CLI.
///
/// ```
/// use abg::report::Table;
///
/// let rows = [(2, 1.08), (100, 1.31)];
/// let t = Table::new(
///     &rows,
///     &[
///         ("factor", |r| r.0.to_string()),
///         ("ratio", |r| r.1.to_string()),
///     ],
/// );
/// let text = t.render();
/// assert!(text.contains("factor"));
/// assert_eq!(text.lines().count(), 4);
/// assert_eq!(t.render_csv(), "factor,ratio\n2,1.08\n100,1.31\n");
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Renders each of `rows` into one cell per column.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    pub fn new<R>(rows: &[R], columns: &[Column<R>]) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        Self {
            headers: columns.iter().map(|c| c.0.to_string()).collect(),
            rows: rows
                .iter()
                .map(|r| columns.iter().map(|c| (c.1)(r)).collect())
                .collect(),
        }
    }

    /// Renders the table with aligned columns and a header separator.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (w, cell)) in widths.iter().zip(cells).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}");
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        for (i, w) in widths.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&"-".repeat(*w));
        }
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV (no quoting: cells are numeric or plain
    /// identifiers in this codebase).
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// A terminal line chart for experiment series: each named series is
/// drawn with its own glyph over a shared y-scale.
///
/// Intended for the CLI's `--plot` mode, where eyeballing a trajectory
/// (Figures 1/4) or a sweep (Figures 5/6) beats reading a column of
/// numbers.
#[derive(Debug, Clone)]
pub struct Chart {
    series: Vec<(String, char, Vec<f64>)>,
    height: usize,
}

impl Chart {
    /// Creates an empty chart of the given height in rows.
    ///
    /// # Panics
    ///
    /// Panics if `height < 2`.
    pub fn new(height: usize) -> Self {
        assert!(height >= 2, "a chart needs at least two rows");
        Self {
            series: Vec::new(),
            height,
        }
    }

    /// Adds a named series drawn with `glyph`.
    pub fn series(&mut self, name: &str, glyph: char, values: &[f64]) -> &mut Self {
        self.series.push((name.to_string(), glyph, values.to_vec()));
        self
    }

    /// Renders the chart; series drawn later overdraw earlier ones where
    /// they collide.
    ///
    /// # Panics
    ///
    /// Panics if no series were added or every value is non-finite.
    pub fn render(&self) -> String {
        assert!(!self.series.is_empty(), "chart has no series");
        let finite: Vec<f64> = self
            .series
            .iter()
            .flat_map(|(_, _, v)| v.iter().copied())
            .filter(|v| v.is_finite())
            .collect();
        assert!(!finite.is_empty(), "chart has no finite values");
        let max = finite.iter().cloned().fold(f64::MIN, f64::max);
        let min = finite.iter().cloned().fold(f64::MAX, f64::min);
        let span = (max - min).max(1e-12);
        let width = self
            .series
            .iter()
            .map(|(_, _, v)| v.len())
            .max()
            .unwrap_or(0);

        let mut grid = vec![vec![' '; width]; self.height];
        for (_, glyph, values) in &self.series {
            for (x, &v) in values.iter().enumerate() {
                if !v.is_finite() {
                    continue;
                }
                let norm = (v - min) / span;
                let y = ((1.0 - norm) * (self.height - 1) as f64).round() as usize;
                grid[y.min(self.height - 1)][x] = *glyph;
            }
        }

        let mut out = String::new();
        for (i, row) in grid.iter().enumerate() {
            let label = if i == 0 {
                format!("{max:>9.2} |")
            } else if i == self.height - 1 {
                format!("{min:>9.2} |")
            } else {
                format!("{:>9} |", "")
            };
            out.push_str(&label);
            out.extend(row.iter());
            out.push('\n');
        }
        let _ = writeln!(out, "{:>9} +{}", "", "-".repeat(width));
        for (name, glyph, _) in &self.series {
            let _ = writeln!(out, "{:>11}{glyph} = {name}", "");
        }
        out
    }
}

/// Formats a float with 3 decimal places (the precision used throughout
/// the experiment tables).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a boolean as a check mark / cross for bound tables.
pub fn mark(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "VIOLATED"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two `u32`s, rendered as plain numbers.
    const PAIR: [Column<(u32, u32)>; 2] = [
        ("a", |r| r.0.to_string()),
        ("long-header", |r| r.1.to_string()),
    ];

    #[test]
    fn renders_aligned_columns() {
        let s = Table::new(&[(1, 2), (100, 3)], &PAIR).render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
        assert_eq!(lines[2], "  1            2");
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = Table::new(&[(1, 2), (3, 4)], &PAIR).render_csv();
        assert_eq!(csv, "a,long-header\n1,2\n3,4\n");
    }

    #[test]
    fn helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(mark(true), "ok");
        assert_eq!(mark(false), "VIOLATED");
    }

    #[test]
    fn chart_renders_extremes_on_first_and_last_rows() {
        let mut c = Chart::new(5);
        c.series("rise", '#', &[0.0, 1.0, 2.0, 3.0, 4.0]);
        let s = c.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains('#'), "max on the top row: {s}");
        assert!(lines[4].contains('#'), "min on the bottom row: {s}");
        assert!(s.contains("# = rise"));
        assert!(s.contains("4.00"));
        assert!(s.contains("0.00"));
    }

    #[test]
    fn chart_overlays_multiple_series() {
        let mut c = Chart::new(4);
        c.series("a", 'a', &[1.0, 1.0])
            .series("b", 'b', &[2.0, 2.0]);
        let s = c.render();
        assert!(s.contains('a') && s.contains('b'));
    }

    #[test]
    fn chart_skips_non_finite_points() {
        let mut c = Chart::new(3);
        c.series("gappy", '*', &[1.0, f64::NAN, 3.0]);
        let s = c.render();
        assert_eq!(s.matches('*').count(), 3, "2 points + legend glyph: {s}");
    }

    #[test]
    fn chart_handles_constant_series() {
        let mut c = Chart::new(3);
        c.series("flat", '-', &[5.0; 8]);
        let s = c.render();
        assert!(s.contains("5.00"));
    }

    #[test]
    #[should_panic(expected = "no series")]
    fn empty_chart_rejected() {
        let _ = Chart::new(3).render();
    }
}
