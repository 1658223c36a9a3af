//! Structured, schema-versioned experiment reports.
//!
//! Every experiment in this crate produces a [`Report`]: the same
//! series/rows the paper plots, but as typed data instead of formatted
//! text. One report renders two ways —
//!
//! * [`Report::render`] — the human-readable tables `all_experiments`
//!   prints (and `results/all_experiments.txt` records);
//! * [`Report::to_json`] — a machine-checkable JSON document
//!   ([`SCHEMA_VERSION`]-stamped) that the CI perf gate
//!   ([`gate`], `src/bin/perf_gate.rs`) diffs against the committed
//!   baselines in `results/baseline/`.
//!
//! The JSON side embeds raw values (plus [`gpu_sim::KernelProfile`] /
//! [`gpu_sim::AccessTally`] snapshots where an experiment measures
//! them), so a regression in a kernel, the timing model or the
//! interpreter shows up as a numeric delta — not as a prose diff a
//! human has to notice.
//!
//! Error discipline: metrics **reject non-finite values at
//! construction** ([`Report::metric`]). A `geomean` of an empty series
//! is NaN, NaN has no JSON encoding, and a baseline with a silent NaN
//! hole would gate nothing — so the failure is loud and early, and the
//! JSON writer double-checks (`tbs_json` refuses non-finite numbers).

pub mod gate;

use std::fmt;
use std::path::{Path, PathBuf};

use crate::table::Table;
use gpu_sim::{AccessTally, KernelProfile};
use tbs_json::{Json, JsonError};

/// Version stamp written into every report and baseline document.
/// Bump on any backwards-incompatible change to the JSON layout; the
/// loader rejects mismatches instead of misreading old files.
pub const SCHEMA_VERSION: u32 = 1;

/// Document-type tag, so a report file can't be mistaken for a baseline
/// (and vice versa) by tools that only sniff the first fields.
pub const REPORT_KIND: &str = "tbs-bench/report";

/// Errors raised while building, encoding or decoding reports.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// A metric value was NaN or infinite (e.g. a geomean over an
    /// empty series) — rejected instead of propagated into JSON.
    NonFinite { id: String },
    /// A summary statistic was requested over an empty series.
    EmptySeries { what: String },
    /// Underlying JSON parse/render failure.
    Json(JsonError),
    /// Structurally valid JSON that does not match the report schema.
    Schema(String),
    /// Filesystem failure while reading/writing a report document.
    Io(String),
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::NonFinite { id } => {
                write!(f, "metric `{id}` is non-finite (empty or invalid series?)")
            }
            ReportError::EmptySeries { what } => write!(f, "empty series for {what}"),
            ReportError::Json(e) => write!(f, "{e}"),
            ReportError::Schema(s) => write!(f, "schema error: {s}"),
            ReportError::Io(s) => write!(f, "io error: {s}"),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<JsonError> for ReportError {
    fn from(e: JsonError) -> Self {
        ReportError::Json(e)
    }
}

// ---------------------------------------------------------------------
// cells & tables
// ---------------------------------------------------------------------

/// One table cell: a raw value with its display form, or plain text.
/// Keeping the number next to its formatting lets the same table drive
/// both the rendered report and the machine-readable JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Num { value: f64, text: String },
    Text(String),
}

impl Cell {
    /// Integer cell (sizes, counts).
    pub fn int(v: u64) -> Cell {
        Cell::Num {
            value: v as f64,
            text: v.to_string(),
        }
    }

    /// Seconds, formatted like the paper's tables (µs → s).
    pub fn secs(v: f64) -> Cell {
        Cell::Num {
            value: v,
            text: crate::table::fmt_secs(v),
        }
    }

    /// Speedup/ratio cell rendered as `5.5x`.
    pub fn x(v: f64) -> Cell {
        Cell::Num {
            value: v,
            text: crate::table::fmt_x(v),
        }
    }

    /// Ratio rendered with three decimals (`1.123x`).
    pub fn x3(v: f64) -> Cell {
        Cell::Num {
            value: v,
            text: format!("{v:.3}x"),
        }
    }

    /// Fraction rendered as a percentage.
    pub fn pct(v: f64) -> Cell {
        Cell::Num {
            value: v,
            text: crate::table::fmt_pct(v),
        }
    }

    /// Bandwidth rendered as GB/s / TB/s (raw value in GB/s).
    pub fn bw(gbps: f64) -> Cell {
        Cell::Num {
            value: gbps,
            text: crate::table::fmt_bw(gbps),
        }
    }

    /// Arbitrary numeric cell with custom display text.
    pub fn num(value: f64, text: impl Into<String>) -> Cell {
        Cell::Num {
            value,
            text: text.into(),
        }
    }

    /// Label/annotation cell.
    pub fn text(s: impl Into<String>) -> Cell {
        Cell::Text(s.into())
    }

    /// The display form (what the text tables print).
    pub fn display(&self) -> &str {
        match self {
            Cell::Num { text, .. } => text,
            Cell::Text(s) => s,
        }
    }

    fn to_json(&self) -> Json {
        match self {
            Cell::Num { value, text } => Json::obj().with("v", *value).with("t", text.as_str()),
            Cell::Text(s) => Json::obj().with("t", s.as_str()),
        }
    }

    fn from_json(j: &Json) -> Result<Cell, ReportError> {
        let text = j
            .get("t")
            .and_then(Json::as_str)
            .ok_or_else(|| ReportError::Schema("cell missing `t`".into()))?
            .to_string();
        match j.get("v") {
            Some(v) => Ok(Cell::Num {
                value: v
                    .as_f64()
                    .ok_or_else(|| ReportError::Schema("cell `v` not a number".into()))?,
                text,
            }),
            None => Ok(Cell::Text(text)),
        }
    }
}

/// A named series table: one x-column plus value columns, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesTable {
    /// Short identifier (`"times"`, `"speedups"`, …).
    pub name: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Cell>>,
}

impl SeriesTable {
    pub fn new(name: &str, columns: &[&str]) -> SeriesTable {
        SeriesTable {
            name: name.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: Vec<Cell>) -> &mut SeriesTable {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width mismatch in table `{}`",
            self.name
        );
        self.rows.push(cells);
        self
    }

    /// Render through the fixed-width [`Table`] builder.
    pub fn render(&self) -> String {
        let headers: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        let mut t = Table::new(&headers);
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| c.display().to_string()).collect();
            t.row(&cells);
        }
        t.render()
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name.as_str())
            .with(
                "columns",
                Json::Arr(
                    self.columns
                        .iter()
                        .map(|c| Json::from(c.as_str()))
                        .collect(),
                ),
            )
            .with(
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| Json::Arr(r.iter().map(Cell::to_json).collect()))
                        .collect(),
                ),
            )
    }

    fn from_json(j: &Json) -> Result<SeriesTable, ReportError> {
        let name = str_field(j, "table", "name")?;
        let columns = j
            .get("columns")
            .and_then(Json::as_arr)
            .ok_or_else(|| ReportError::Schema("table missing `columns`".into()))?
            .iter()
            .map(|c| {
                c.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ReportError::Schema("non-string column".into()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut rows = Vec::new();
        for row in j
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| ReportError::Schema("table missing `rows`".into()))?
        {
            let cells = row
                .as_arr()
                .ok_or_else(|| ReportError::Schema("row is not an array".into()))?
                .iter()
                .map(Cell::from_json)
                .collect::<Result<Vec<_>, _>>()?;
            if cells.len() != columns.len() {
                return Err(ReportError::Schema(format!(
                    "row width {} != column count {} in table `{name}`",
                    cells.len(),
                    columns.len()
                )));
            }
            rows.push(cells);
        }
        Ok(SeriesTable {
            name,
            columns,
            rows,
        })
    }
}

// ---------------------------------------------------------------------
// metrics
// ---------------------------------------------------------------------

/// A named scalar the perf gate can band-check. `unit` is a display
/// tag (`"x"`, `"s"`, `"ratio"`, `"ops/s"`, …), not a conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub id: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    /// Construct a metric, rejecting NaN/±inf.
    pub fn checked(id: &str, value: f64, unit: &str) -> Result<Metric, ReportError> {
        if !value.is_finite() {
            return Err(ReportError::NonFinite { id: id.to_string() });
        }
        Ok(Metric {
            id: id.to_string(),
            value,
            unit: unit.to_string(),
        })
    }
}

// ---------------------------------------------------------------------
// the report
// ---------------------------------------------------------------------

/// A complete experiment report: tables for humans and artifacts,
/// metrics for the gate, optional profiler/tally snapshots for deep
/// diffing.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Machine identifier, also the JSON filename stem (`"fig2"`).
    pub name: String,
    /// Human title (first rendered line).
    pub title: String,
    /// Workload/device context, rendered in parentheses under the title.
    pub context: String,
    pub tables: Vec<SeriesTable>,
    pub metrics: Vec<Metric>,
    /// Labelled [`KernelProfile`] snapshots (Tables II–IV style).
    pub profiles: Vec<(String, KernelProfile)>,
    /// Whole-kernel [`AccessTally`] snapshot for functional runs.
    pub tally: Option<AccessTally>,
    /// Trailing prose: the paper's reported values and interpretation.
    pub notes: String,
}

impl Report {
    pub fn new(name: &str, title: &str) -> Report {
        Report {
            name: name.to_string(),
            title: title.to_string(),
            context: String::new(),
            tables: Vec::new(),
            metrics: Vec::new(),
            profiles: Vec::new(),
            tally: None,
            notes: String::new(),
        }
    }

    /// Builder-style context line.
    pub fn with_context(mut self, context: &str) -> Report {
        self.context = context.to_string();
        self
    }

    pub fn push_table(&mut self, t: SeriesTable) -> &mut Report {
        self.tables.push(t);
        self
    }

    /// Add a gate-checkable metric; fails on non-finite values (the
    /// empty-geomean NaN path ends here, loudly).
    pub fn metric(&mut self, id: &str, value: f64, unit: &str) -> Result<(), ReportError> {
        self.metrics.push(Metric::checked(id, value, unit)?);
        Ok(())
    }

    pub fn push_note(&mut self, note: &str) -> &mut Report {
        if !self.notes.is_empty() && !self.notes.ends_with('\n') {
            self.notes.push('\n');
        }
        self.notes.push_str(note);
        self
    }

    /// Look up a metric value by id.
    pub fn metric_value(&self, id: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.id == id).map(|m| m.value)
    }

    /// Render the human-readable report (what `all_experiments` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        if !self.context.is_empty() {
            out.push_str(&format!("({})\n", self.context));
        }
        for t in &self.tables {
            out.push('\n');
            out.push_str(&t.render());
        }
        if !self.metrics.is_empty() {
            out.push('\n');
            for m in &self.metrics {
                let v = if m.value.abs() >= 1e-3 && m.value.abs() < 1e7 {
                    format!("{:.4}", m.value)
                } else {
                    format!("{:.4e}", m.value)
                };
                out.push_str(&format!("  {} = {} {}\n", m.id, v, m.unit));
            }
        }
        if !self.notes.is_empty() {
            out.push('\n');
            out.push_str(&self.notes);
            if !self.notes.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }

    /// Encode as a schema-versioned JSON document.
    pub fn to_json(&self) -> Result<Json, ReportError> {
        let mut j = Json::obj()
            .with("schema", SCHEMA_VERSION)
            .with("kind", REPORT_KIND)
            .with("name", self.name.as_str())
            .with("title", self.title.as_str())
            .with("context", self.context.as_str())
            .with(
                "tables",
                Json::Arr(self.tables.iter().map(SeriesTable::to_json).collect()),
            )
            .with(
                "metrics",
                Json::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            Json::obj()
                                .with("id", m.id.as_str())
                                .with("value", m.value)
                                .with("unit", m.unit.as_str())
                        })
                        .collect(),
                ),
            )
            .with(
                "profiles",
                Json::Arr(
                    self.profiles
                        .iter()
                        .map(|(label, p)| {
                            Json::obj()
                                .with("label", label.as_str())
                                .with("profile", p.to_json())
                        })
                        .collect(),
                ),
            );
        if let Some(t) = &self.tally {
            j.push("tally", t.to_json());
        }
        j.push("notes", self.notes.as_str());
        // Validate now (non-finite table values etc.) so callers get the
        // error at build time, not at write time.
        j.render()?;
        Ok(j)
    }

    /// Strict inverse of [`Report::to_json`].
    pub fn from_json(j: &Json) -> Result<Report, ReportError> {
        let schema = j
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or_else(|| ReportError::Schema("missing `schema`".into()))?;
        if schema != SCHEMA_VERSION as u64 {
            return Err(ReportError::Schema(format!(
                "schema version {schema} != supported {SCHEMA_VERSION}"
            )));
        }
        let kind = str_field(j, "report", "kind")?;
        if kind != REPORT_KIND {
            return Err(ReportError::Schema(format!(
                "kind `{kind}` is not `{REPORT_KIND}`"
            )));
        }
        let mut r = Report::new(
            &str_field(j, "report", "name")?,
            &str_field(j, "report", "title")?,
        );
        r.context = str_field(j, "report", "context")?;
        r.notes = str_field(j, "report", "notes")?;
        for t in arr_field(j, "report", "tables")? {
            r.tables.push(SeriesTable::from_json(t)?);
        }
        for m in arr_field(j, "report", "metrics")? {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| ReportError::Schema("metric missing `value`".into()))?;
            r.metrics.push(Metric::checked(
                &str_field(m, "metric", "id")?,
                value,
                &str_field(m, "metric", "unit")?,
            )?);
        }
        for p in arr_field(j, "report", "profiles")? {
            let label = str_field(p, "profile entry", "label")?;
            let profile = p
                .get("profile")
                .ok_or_else(|| ReportError::Schema("profile entry missing `profile`".into()))?;
            r.profiles.push((label, KernelProfile::from_json(profile)?));
        }
        if let Some(t) = j.get("tally") {
            r.tally = Some(AccessTally::from_json(t)?);
        }
        Ok(r)
    }

    /// Write `<dir>/<name>.json`, creating the directory if needed.
    pub fn write_json(&self, dir: &Path) -> Result<PathBuf, ReportError> {
        let text = self.to_json()?.render()?;
        std::fs::create_dir_all(dir).map_err(|e| ReportError::Io(format!("{dir:?}: {e}")))?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, text).map_err(|e| ReportError::Io(format!("{path:?}: {e}")))?;
        Ok(path)
    }
}

fn str_field(j: &Json, ty: &str, key: &str) -> Result<String, ReportError> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ReportError::Schema(format!("{ty} missing string `{key}`")))
}

fn arr_field<'a>(j: &'a Json, ty: &str, key: &str) -> Result<&'a [Json], ReportError> {
    j.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| ReportError::Schema(format!("{ty} missing array `{key}`")))
}

// ---------------------------------------------------------------------
// bin plumbing
// ---------------------------------------------------------------------

/// Where a bin should mirror its reports as JSON, if anywhere: the
/// value of a `--json DIR` argument.
pub fn json_dir() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--json" {
            return args.next().map(PathBuf::from);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("demo", "Demo — a sample report").with_context("B = 1024");
        let mut t = SeriesTable::new("times", &["N", "Naive", "speedup"]);
        t.row(vec![Cell::int(1024), Cell::secs(0.5), Cell::x(5.5)]);
        t.row(vec![
            Cell::text("total"),
            Cell::secs(1.25e-4),
            Cell::x3(1.001),
        ]);
        r.push_table(t);
        r.metric("speedup.geomean", 5.5, "x").unwrap();
        r.push_note("paper: ~5.5x");
        r
    }

    #[test]
    fn renders_tables_metrics_and_notes() {
        let text = sample().render();
        assert!(text.starts_with("Demo — a sample report\n(B = 1024)\n"));
        assert!(text.contains("Naive"));
        assert!(text.contains("5.5x"));
        assert!(text.contains("speedup.geomean = 5.5000 x"));
        assert!(text.ends_with("paper: ~5.5x\n"));
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let j = r.to_json().unwrap();
        let text = j.render().unwrap();
        let back = Report::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn rejects_nan_metrics() {
        let mut r = Report::new("bad", "Bad");
        let e = r.metric("g", crate::geomean(&[]), "x").unwrap_err();
        assert!(matches!(e, ReportError::NonFinite { .. }), "{e}");
        assert!(r.metrics.is_empty(), "failed metric must not be recorded");
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let mut j = sample().to_json().unwrap();
        if let Json::Obj(pairs) = &mut j {
            pairs[0].1 = Json::Num(99.0);
        }
        assert!(matches!(Report::from_json(&j), Err(ReportError::Schema(_))));
    }

    #[test]
    fn rejects_ragged_rows() {
        let mut j = sample().to_json().unwrap();
        let text = j.render().unwrap();
        // Recreate and mutilate: drop one cell from the first row.
        j = Json::parse(&text).unwrap();
        let tweaked = text.replacen("\"t\": \"1024\"", "\"t\": \"1024\", \"extra\": 0", 1);
        assert!(Report::from_json(&Json::parse(&tweaked).unwrap()).is_ok());
        // Removing a whole cell breaks the width check.
        let r = Report::from_json(&j).unwrap();
        let mut bad = r.to_json().unwrap();
        if let Some(Json::Arr(tables)) = bad_get_mut(&mut bad, "tables") {
            if let Some(Json::Arr(rows)) = bad_get_mut(&mut tables[0], "rows") {
                if let Json::Arr(cells) = &mut rows[0] {
                    cells.pop();
                }
            }
        }
        assert!(matches!(
            Report::from_json(&bad),
            Err(ReportError::Schema(_))
        ));
    }

    fn bad_get_mut<'a>(j: &'a mut Json, key: &str) -> Option<&'a mut Json> {
        match j {
            Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[test]
    fn write_json_lands_in_dir() {
        let dir = std::env::temp_dir().join("tbs_report_test");
        let path = sample().write_json(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"kind\": \"tbs-bench/report\""));
        std::fs::remove_file(path).ok();
    }
}
