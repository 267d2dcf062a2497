//! Result tables in the shape of the paper's figures.

use std::fmt;

use crate::json;

/// One series row: a machine configuration's per-workload values, with an optional
/// 95% confidence half-interval per value (present under multi-seed replication).
#[derive(Clone, Debug)]
pub struct SeriesRow {
    /// Series (configuration) name.
    pub name: String,
    /// Per-workload values (means under multi-seed replication).
    pub values: Vec<f64>,
    /// Per-workload 95% confidence half-intervals, when the values are means over
    /// several seeds (`None` for single-seed point estimates).
    pub ci95: Option<Vec<f64>>,
}

/// A table with one row per series (machine configuration) and one column per
/// workload, plus an arithmetic-mean column — the shape of every bar chart in the
/// paper's evaluation.
#[derive(Clone, Debug)]
pub struct SeriesTable {
    /// Table title (e.g. `"Figure 5 (top): % loads re-executed"`).
    pub title: String,
    /// The metric's unit, shown in the header.
    pub unit: String,
    /// Workload (column) names.
    pub workloads: Vec<String>,
    /// Series rows.
    pub series: Vec<SeriesRow>,
}

impl SeriesTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, unit: impl Into<String>, workloads: Vec<String>) -> Self {
        SeriesTable {
            title: title.into(),
            unit: unit.into(),
            workloads,
            series: Vec::new(),
        }
    }

    /// Appends a series row of point estimates.
    ///
    /// # Panics
    ///
    /// Panics if the number of values does not match the number of workloads.
    pub fn push_series(&mut self, name: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.workloads.len(),
            "series length must match the workload count"
        );
        self.series.push(SeriesRow {
            name: name.into(),
            values,
            ci95: None,
        });
    }

    /// Appends a series row of means with their 95% confidence half-intervals.
    ///
    /// # Panics
    ///
    /// Panics if either vector's length does not match the number of workloads.
    pub fn push_series_ci(&mut self, name: impl Into<String>, values: Vec<f64>, ci95: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.workloads.len(),
            "series length must match the workload count"
        );
        assert_eq!(
            ci95.len(),
            self.workloads.len(),
            "confidence-interval length must match the workload count"
        );
        self.series.push(SeriesRow {
            name: name.into(),
            values,
            ci95: Some(ci95),
        });
    }

    /// The arithmetic mean of a series row.
    pub fn mean(values: &[f64]) -> f64 {
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    /// Looks up a value by series and workload name.
    pub fn value(&self, series: &str, workload: &str) -> Option<f64> {
        let col = self.workloads.iter().position(|w| w == workload)?;
        let row = self.series.iter().find(|r| r.name == series)?;
        row.values.get(col).copied()
    }

    /// Looks up a 95% confidence half-interval by series and workload name (present
    /// only under multi-seed replication).
    pub fn ci95(&self, series: &str, workload: &str) -> Option<f64> {
        let col = self.workloads.iter().position(|w| w == workload)?;
        let row = self.series.iter().find(|r| r.name == series)?;
        row.ci95.as_ref()?.get(col).copied()
    }

    /// Whether any series carries confidence intervals.
    fn has_ci(&self) -> bool {
        self.series.iter().any(|r| r.ci95.is_some())
    }

    /// Emits the table as a JSON object:
    /// `{"title", "unit", "workloads": [..],
    ///   "series": [{"name", "values", "mean", "ci95"?}]}`.
    pub fn to_json(&self) -> String {
        json::object([
            ("title", json::string(&self.title)),
            ("unit", json::string(&self.unit)),
            (
                "workloads",
                json::array(self.workloads.iter().map(|w| json::string(w))),
            ),
            (
                "series",
                json::array(self.series.iter().map(|row| {
                    let mut fields = vec![
                        ("name", json::string(&row.name)),
                        (
                            "values",
                            json::array(row.values.iter().map(|v| json::number(*v))),
                        ),
                        ("mean", json::number(Self::mean(&row.values))),
                    ];
                    if let Some(ci) = &row.ci95 {
                        fields.push(("ci95", json::array(ci.iter().map(|v| json::number(*v)))));
                    }
                    json::object(fields)
                })),
            ),
        ])
    }
}

impl fmt::Display for SeriesTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{}]", self.title, self.unit)?;
        let name_width = self
            .series
            .iter()
            .map(|r| r.name.len())
            .chain(std::iter::once(6))
            .max()
            .unwrap_or(6);
        // Mean ± CI cells ("12.34±0.56") need wider columns than point estimates.
        let cell = if self.has_ci() { 14 } else { 8 };
        write!(f, "{:name_width$}", "")?;
        for w in &self.workloads {
            write!(f, " {w:>cell$.cell$}")?;
        }
        writeln!(f, " {:>cell$}", "avg")?;
        for row in &self.series {
            write!(f, "{:name_width$}", row.name)?;
            for (i, v) in row.values.iter().enumerate() {
                match row.ci95.as_ref().and_then(|ci| ci.get(i)) {
                    Some(ci) => write!(f, " {:>cell$}", format!("{v:.2}\u{b1}{ci:.2}"))?,
                    None => write!(f, " {v:>cell$.2}")?,
                }
            }
            writeln!(f, " {:>cell$.2}", Self::mean(&row.values))?;
        }
        Ok(())
    }
}

/// A complete figure reproduction: one or more tables (e.g. re-execution rate on top,
/// speedup on the bottom) plus free-form notes.
#[derive(Clone, Debug)]
pub struct FigureReport {
    /// Which paper artifact this reproduces (e.g. `"Figure 5"`).
    pub figure: String,
    /// The constituent tables.
    pub tables: Vec<SeriesTable>,
    /// Free-form notes comparing against the paper's reported numbers.
    pub notes: Vec<String>,
}

impl FigureReport {
    /// Emits the report as a JSON object:
    /// `{"figure", "tables": [..], "notes": [..]}` (see [`SeriesTable::to_json`]).
    pub fn to_json(&self) -> String {
        json::object([
            ("figure", json::string(&self.figure)),
            (
                "tables",
                json::array(self.tables.iter().map(|t| t.to_json())),
            ),
            (
                "notes",
                json::array(self.notes.iter().map(|n| json::string(n))),
            ),
        ])
    }
}

impl fmt::Display for FigureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "==== {} ====", self.figure)?;
        for t in &self.tables {
            writeln!(f)?;
            write!(f, "{t}")?;
        }
        if !self.notes.is_empty() {
            writeln!(f)?;
            for n in &self.notes {
                writeln!(f, "note: {n}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SeriesTable {
        let mut t = SeriesTable::new("test", "%", vec!["a".into(), "b".into()]);
        t.push_series("s1", vec![1.0, 3.0]);
        t.push_series("s2", vec![2.0, 4.0]);
        t
    }

    #[test]
    fn mean_and_lookup() {
        let t = table();
        assert_eq!(SeriesTable::mean(&t.series[0].values), 2.0);
        assert_eq!(t.value("s2", "b"), Some(4.0));
        assert_eq!(t.value("s2", "c"), None);
        assert_eq!(t.value("s3", "a"), None);
        assert_eq!(t.ci95("s2", "b"), None, "point estimates have no CI");
    }

    #[test]
    fn display_contains_all_series_and_workloads() {
        let rendered = table().to_string();
        for needle in ["test", "s1", "s2", "avg"] {
            assert!(rendered.contains(needle), "missing {needle} in\n{rendered}");
        }
    }

    #[test]
    fn ci_rows_render_mean_plus_minus_interval() {
        let mut t = table();
        t.push_series_ci("s3", vec![5.0, 6.0], vec![0.25, 0.5]);
        let rendered = t.to_string();
        assert!(
            rendered.contains("5.00\u{b1}0.25") && rendered.contains("6.00\u{b1}0.50"),
            "CI cells missing in\n{rendered}"
        );
        assert_eq!(t.ci95("s3", "b"), Some(0.5));
        let j = t.to_json();
        assert!(j.contains("\"ci95\":[0.25,0.5]"), "missing ci95 in {j}");
    }

    #[test]
    #[should_panic(expected = "series length")]
    fn mismatched_series_length_panics() {
        let mut t = table();
        t.push_series("bad", vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "confidence-interval length")]
    fn mismatched_ci_length_panics() {
        let mut t = table();
        t.push_series_ci("bad", vec![1.0, 2.0], vec![0.1]);
    }

    #[test]
    fn json_shape_is_valid_and_complete() {
        let report = FigureReport {
            figure: "Figure \"0\"".into(),
            tables: vec![table()],
            notes: vec!["shape only".into()],
        };
        let j = report.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"figure\":\"Figure \\\"0\\\"\""));
        assert!(j.contains("\"workloads\":[\"a\",\"b\"]"));
        assert!(j.contains("\"name\":\"s1\""));
        assert!(j.contains("\"values\":[1,3]"));
        assert!(j.contains("\"mean\":2"));
        assert!(j.contains("\"notes\":[\"shape only\"]"));
        // Balanced braces/brackets (a cheap structural sanity check).
        let depth_ok = j.chars().try_fold(0i32, |d, c| match c {
            '{' | '[' => Some(d + 1),
            '}' | ']' => {
                if d > 0 {
                    Some(d - 1)
                } else {
                    None
                }
            }
            _ => Some(d),
        });
        assert_eq!(depth_ok, Some(0));
    }

    #[test]
    fn figure_report_display() {
        let report = FigureReport {
            figure: "Figure 0".into(),
            tables: vec![table()],
            notes: vec!["shape only".into()],
        };
        let s = report.to_string();
        assert!(s.contains("==== Figure 0 ===="));
        assert!(s.contains("note: shape only"));
    }
}
