//! `svwsim profile` — phase breakdowns from one or more event journals.
//!
//! Parses `--events` journals (tolerating the torn lines kill-tolerant framing
//! allows) and reconstructs per-cell lifecycles, then reports where sweep wall
//! time actually goes: trace-acquire (with the decode share of it) vs simulate
//! vs result I/O, in aggregate and per workload, plus the top-N slowest cells and a per-worker
//! utilization table. This is the measurement tool that decides perf work —
//! e.g. whether trace decode really dominates warm sweeps.
//!
//! Multiple journals (one per process) can be profiled together; per-cell
//! timestamps are deltas within one journal, so mixing files from different
//! processes stays meaningful. Event kinds this binary does not emit are
//! ignored, so journals written by older binaries still profile.

use crate::events::{kind, read_events, Event};
use crate::json;

/// Accumulated per-phase time, in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTotals {
    /// Trace acquisition (cache fetch or generation), decode included.
    pub acquire_us: f64,
    /// The part of `acquire_us` spent decoding an on-disk trace representation.
    /// Nested inside acquisition, so it is not a separate phase of the sum.
    pub decode_us: f64,
    /// Cycle-level simulation.
    pub simulate_us: f64,
    /// Result write (JSONL append).
    pub write_us: f64,
}

impl PhaseTotals {
    /// Sum of the disjoint phases (decode is already inside acquire).
    pub fn sum_us(&self) -> f64 {
        self.acquire_us + self.simulate_us + self.write_us
    }

    fn add(&mut self, other: &PhaseTotals) {
        self.acquire_us += other.acquire_us;
        self.decode_us += other.decode_us;
        self.simulate_us += other.simulate_us;
        self.write_us += other.write_us;
    }
}

/// One reconstructed cell lifecycle (from `planned` to its last event).
#[derive(Clone, Debug)]
pub struct CellProfile {
    /// Matrix label.
    pub matrix: String,
    /// Workload name.
    pub workload: String,
    /// Machine-configuration label.
    pub config: String,
    /// Workload-generation seed.
    pub seed: u64,
    /// Worker thread that processed the cell.
    pub worker: Option<u64>,
    /// Simulated cycles (when the cell was simulated).
    pub cycles: Option<u64>,
    /// Per-phase durations attributed to this cell.
    pub phases: PhaseTotals,
    /// Wall time from `planned` to the cell's last event (same-journal delta).
    pub wall_us: f64,
    first_ts: u64,
}

/// Per-workload aggregate row.
#[derive(Clone, Debug)]
pub struct WorkloadPhases {
    /// Workload name.
    pub workload: String,
    /// Simulated cells attributed to the workload.
    pub cells: usize,
    /// Phase totals across those cells.
    pub phases: PhaseTotals,
}

/// Per-worker utilization row.
#[derive(Clone, Debug)]
pub struct WorkerProfile {
    /// Worker id.
    pub worker: u64,
    /// Cells the worker simulated.
    pub cells: usize,
    /// Total measured phase time on the worker.
    pub busy_us: f64,
    /// Busy time as a fraction of the journal's wall span (0 when unknown).
    pub utilization_pct: f64,
}

/// Everything `svwsim profile` reports.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// Journal files profiled.
    pub files: usize,
    /// Malformed lines skipped across all files.
    pub malformed_lines: usize,
    /// Cells simulated.
    pub simulated: usize,
    /// Cells restored from results files.
    pub restored: usize,
    /// Cells served by the content-addressed result cache (`cell_cached`) —
    /// counted separately, never folded into `simulated` or `restored`.
    pub cached: usize,
    /// Cells that failed.
    pub failed: usize,
    /// Aggregate phase totals across all cells.
    pub totals: PhaseTotals,
    /// Sum of per-cell wall times (`planned` → last event).
    pub cell_wall_us: f64,
    /// Per-workload aggregates, sorted by descending total phase time.
    pub per_workload: Vec<WorkloadPhases>,
    /// The top-N slowest cells by wall time, slowest first.
    pub slowest: Vec<CellProfile>,
    /// Per-worker utilization, sorted by worker id.
    pub workers: Vec<WorkerProfile>,
    /// Longest single-journal wall span (basis for utilization).
    pub span_us: f64,
}

/// Profiles `files` (pairs of display name and journal content), keeping the
/// `top_n` slowest cells.
pub fn profile_events(files: &[(String, String)], top_n: usize) -> ProfileReport {
    let mut report = ProfileReport {
        files: files.len(),
        ..ProfileReport::default()
    };
    let mut cells: Vec<CellProfile> = Vec::new();
    // Index into `cells` of the currently open lifecycle per identity, scoped
    // to one journal at a time (timestamps don't compare across journals).
    for (_, content) in files {
        let (events, malformed) = read_events(content);
        report.malformed_lines += malformed;
        let mut open: std::collections::HashMap<(String, String, String, u64), usize> =
            std::collections::HashMap::new();
        let mut min_ts = u64::MAX;
        let mut max_ts = 0u64;
        for ev in &events {
            min_ts = min_ts.min(ev.ts_us);
            max_ts = max_ts.max(ev.ts_us);
            match ev.ev.as_str() {
                kind::PLANNED => {
                    let (Some(m), Some(w), Some(c), Some(s)) =
                        (&ev.matrix, &ev.workload, &ev.config, ev.seed)
                    else {
                        continue;
                    };
                    let idx = cells.len();
                    cells.push(CellProfile {
                        matrix: m.clone(),
                        workload: w.clone(),
                        config: c.clone(),
                        seed: s,
                        worker: ev.worker,
                        cycles: None,
                        phases: PhaseTotals::default(),
                        wall_us: 0.0,
                        first_ts: ev.ts_us,
                    });
                    open.insert((m.clone(), w.clone(), c.clone(), s), idx);
                }
                kind::TRACE_ACQUIRED
                | kind::DECODED
                | kind::SIMULATED
                | kind::WRITTEN
                | kind::RESTORED
                | kind::CACHED
                | kind::FAILED => {
                    match ev.ev.as_str() {
                        kind::SIMULATED => report.simulated += 1,
                        kind::RESTORED => report.restored += 1,
                        kind::CACHED => report.cached += 1,
                        kind::FAILED => report.failed += 1,
                        _ => {}
                    }
                    let Some(cell) = cell_for(&mut cells, &open, ev) else {
                        continue;
                    };
                    let dur = ev.dur_us.unwrap_or(0.0).max(0.0);
                    match ev.ev.as_str() {
                        kind::TRACE_ACQUIRED => cell.phases.acquire_us += dur,
                        kind::DECODED => cell.phases.decode_us += dur,
                        kind::SIMULATED => {
                            cell.phases.simulate_us += dur;
                            cell.cycles = ev.cycles;
                        }
                        kind::WRITTEN => cell.phases.write_us += dur,
                        _ => {}
                    }
                    cell.wall_us = cell
                        .wall_us
                        .max(ev.ts_us.saturating_sub(cell.first_ts) as f64);
                }
                _ => {}
            }
        }
        if max_ts > min_ts {
            report.span_us = report.span_us.max((max_ts - min_ts) as f64);
        }
    }

    // Aggregate.
    let mut by_workload: std::collections::HashMap<String, WorkloadPhases> =
        std::collections::HashMap::new();
    let mut by_worker: std::collections::HashMap<u64, WorkerProfile> =
        std::collections::HashMap::new();
    for cell in &cells {
        report.totals.add(&cell.phases);
        report.cell_wall_us += cell.wall_us;
        let w = by_workload
            .entry(cell.workload.clone())
            .or_insert_with(|| WorkloadPhases {
                workload: cell.workload.clone(),
                cells: 0,
                phases: PhaseTotals::default(),
            });
        if cell.phases.simulate_us > 0.0 {
            w.cells += 1;
        }
        w.phases.add(&cell.phases);
        if let Some(id) = cell.worker {
            let row = by_worker.entry(id).or_insert_with(|| WorkerProfile {
                worker: id,
                cells: 0,
                busy_us: 0.0,
                utilization_pct: 0.0,
            });
            if cell.phases.simulate_us > 0.0 {
                row.cells += 1;
            }
            row.busy_us += cell.phases.sum_us();
        }
    }
    report.per_workload = by_workload.into_values().collect();
    report
        .per_workload
        .sort_by(|a, b| b.phases.sum_us().total_cmp(&a.phases.sum_us()));
    report.workers = by_worker.into_values().collect();
    report.workers.sort_by_key(|w| w.worker);
    if report.span_us > 0.0 {
        for w in &mut report.workers {
            w.utilization_pct = 100.0 * w.busy_us / report.span_us;
        }
    }
    cells.sort_by(|a, b| b.wall_us.total_cmp(&a.wall_us));
    cells.truncate(top_n);
    report.slowest = cells;
    report
}

fn cell_for<'a>(
    cells: &'a mut [CellProfile],
    open: &std::collections::HashMap<(String, String, String, u64), usize>,
    ev: &Event,
) -> Option<&'a mut CellProfile> {
    let (Some(m), Some(w), Some(c), Some(s)) = (&ev.matrix, &ev.workload, &ev.config, ev.seed)
    else {
        return None;
    };
    let idx = *open.get(&(m.clone(), w.clone(), c.clone(), s))?;
    cells.get_mut(idx)
}

fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2} s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.1} ms", us / 1e3)
    } else {
        format!("{us:.0} \u{b5}s")
    }
}

impl ProfileReport {
    /// Renders the human-readable profile.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {} simulated, {} restored, {} cached, {} failed \
             ({} journal file(s), {} malformed line(s))\n",
            self.simulated,
            self.restored,
            self.cached,
            self.failed,
            self.files,
            self.malformed_lines,
        ));

        out.push_str("\nphase breakdown (aggregate):\n");
        let sum = self.totals.sum_us();
        let share = |us: f64| {
            if sum > 0.0 {
                format!("{:5.1}%", 100.0 * us / sum)
            } else {
                "    -".to_string()
            }
        };
        // Decode is part of trace-acquire: an indented row, not a summed phase.
        let rows = [
            ("trace-acquire", self.totals.acquire_us),
            ("  decode", self.totals.decode_us),
            ("simulate", self.totals.simulate_us),
            ("write", self.totals.write_us),
        ];
        out.push_str(&format!(
            "  {:<14} {:>10} {:>7}\n",
            "phase", "total", "share"
        ));
        for (name, us) in rows {
            out.push_str(&format!(
                "  {:<14} {:>10} {:>7}\n",
                name,
                fmt_us(us),
                share(us)
            ));
        }
        out.push_str(&format!("  {:<14} {:>10}\n", "sum", fmt_us(sum)));
        if self.cell_wall_us > 0.0 {
            out.push_str(&format!(
                "  {:<14} {:>10}  (phases cover {:.1}%)\n",
                "cell wall time",
                fmt_us(self.cell_wall_us),
                100.0 * sum / self.cell_wall_us
            ));
        }

        if !self.per_workload.is_empty() {
            out.push_str("\nphase breakdown (per workload):\n");
            out.push_str(&format!(
                "  {:<12} {:>5} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "workload", "cells", "acquire", "(decode)", "simulate", "write", "total"
            ));
            for w in &self.per_workload {
                out.push_str(&format!(
                    "  {:<12} {:>5} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                    w.workload,
                    w.cells,
                    fmt_us(w.phases.acquire_us),
                    fmt_us(w.phases.decode_us),
                    fmt_us(w.phases.simulate_us),
                    fmt_us(w.phases.write_us),
                    fmt_us(w.phases.sum_us()),
                ));
            }
        }

        if !self.slowest.is_empty() {
            out.push_str(&format!("\ntop {} slowest cell(s):\n", self.slowest.len()));
            out.push_str(&format!(
                "  {:>10} {:>10} {:<12} {:<22} {:>6} {:>6}\n",
                "wall", "simulate", "workload", "config", "seed", "worker"
            ));
            for cell in &self.slowest {
                out.push_str(&format!(
                    "  {:>10} {:>10} {:<12} {:<22} {:>6} {:>6}\n",
                    fmt_us(cell.wall_us),
                    fmt_us(cell.phases.simulate_us),
                    cell.workload,
                    cell.config,
                    cell.seed,
                    cell.worker.map_or("-".to_string(), |w| w.to_string()),
                ));
            }
        }

        if !self.workers.is_empty() {
            out.push_str("\nper-worker utilization:\n");
            out.push_str(&format!(
                "  {:>6} {:>6} {:>10} {:>12}\n",
                "worker", "cells", "busy", "utilization"
            ));
            for w in &self.workers {
                let util = if self.span_us > 0.0 {
                    format!("{:.1}%", w.utilization_pct)
                } else {
                    "-".to_string()
                };
                out.push_str(&format!(
                    "  {:>6} {:>6} {:>10} {:>12}\n",
                    w.worker,
                    w.cells,
                    fmt_us(w.busy_us),
                    util
                ));
            }
        }
        out
    }

    /// Renders the profile as a JSON object (nested arrays for the tables).
    pub fn to_json(&self) -> String {
        let phases_json = |p: &PhaseTotals| {
            json::object([
                ("acquire_us", json::number(p.acquire_us)),
                ("decode_us", json::number(p.decode_us)),
                ("simulate_us", json::number(p.simulate_us)),
                ("write_us", json::number(p.write_us)),
                ("sum_us", json::number(p.sum_us())),
            ])
        };
        json::object([
            ("files", json::uint(self.files as u64)),
            ("malformed_lines", json::uint(self.malformed_lines as u64)),
            ("simulated", json::uint(self.simulated as u64)),
            ("restored", json::uint(self.restored as u64)),
            ("cached", json::uint(self.cached as u64)),
            ("failed", json::uint(self.failed as u64)),
            ("phases", phases_json(&self.totals)),
            ("cell_wall_us", json::number(self.cell_wall_us)),
            ("span_us", json::number(self.span_us)),
            (
                "per_workload",
                json::array(self.per_workload.iter().map(|w| {
                    json::object([
                        ("workload", json::string(&w.workload)),
                        ("cells", json::uint(w.cells as u64)),
                        ("phases", phases_json(&w.phases)),
                    ])
                })),
            ),
            (
                "slowest",
                json::array(self.slowest.iter().map(|c| {
                    json::object([
                        ("matrix", json::string(&c.matrix)),
                        ("workload", json::string(&c.workload)),
                        ("config", json::string(&c.config)),
                        ("seed", json::uint(c.seed)),
                        ("wall_us", json::number(c.wall_us)),
                        ("phases", phases_json(&c.phases)),
                    ])
                })),
            ),
            (
                "workers",
                json::array(self.workers.iter().map(|w| {
                    json::object([
                        ("worker", json::uint(w.worker)),
                        ("cells", json::uint(w.cells as u64)),
                        ("busy_us", json::number(w.busy_us)),
                        ("utilization_pct", json::number(w.utilization_pct)),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal() -> String {
        let lines = [
            r#"{"ev":"sweep_started","ts_us":0,"cells":2,"jobs":1}"#,
            r#"{"ev":"planned","ts_us":10,"matrix":"fig5","workload":"gcc","config":"a","seed":1,"worker":0}"#,
            r#"{"ev":"trace_acquired","ts_us":110,"matrix":"fig5","workload":"gcc","config":"a","seed":1,"worker":0,"source":"cache","bytes":2048,"dur_us":100}"#,
            r#"{"ev":"decoded","ts_us":191,"matrix":"fig5","workload":"gcc","config":"a","seed":1,"worker":0,"dur_us":80}"#,
            r#"{"ev":"simulated","ts_us":991,"matrix":"fig5","workload":"gcc","config":"a","seed":1,"worker":0,"cycles":5000,"dur_us":800}"#,
            r#"{"ev":"written","ts_us":1011,"matrix":"fig5","workload":"gcc","config":"a","seed":1,"worker":0,"dur_us":20}"#,
            r#"{"ev":"planned","ts_us":1020,"matrix":"fig5","workload":"vpr.r","config":"a","seed":1,"worker":0}"#,
            r#"{"ev":"restored","ts_us":1021,"matrix":"fig5","workload":"vpr.r","config":"a","seed":1,"worker":0}"#,
            r#"{"ev":"planned","ts_us":1030,"matrix":"fig5","workload":"mesa","config":"a","seed":1,"worker":0}"#,
            r#"{"ev":"cell_cached","ts_us":1031,"matrix":"fig5","workload":"mesa","config":"a","seed":1,"worker":0}"#,
            "torn line without newline-terminated json",
        ];
        lines.join("\n")
    }

    #[test]
    fn phases_and_counts_are_aggregated() {
        let report = profile_events(&[("test".to_string(), journal())], 5);
        assert_eq!(report.simulated, 1);
        assert_eq!(report.restored, 1);
        assert_eq!(report.cached, 1);
        assert_eq!(report.malformed_lines, 1);
        assert_eq!(report.totals.acquire_us, 100.0);
        assert_eq!(report.totals.decode_us, 80.0);
        assert_eq!(report.totals.simulate_us, 800.0);
        assert_eq!(report.totals.write_us, 20.0);
        // gcc's wall: planned at 10, written at 1011.
        assert_eq!(report.slowest[0].wall_us, 1001.0);
        assert!(report.totals.sum_us() <= report.cell_wall_us);
        assert_eq!(report.workers.len(), 1);
        assert_eq!(report.workers[0].cells, 1);
        assert_eq!(report.per_workload[0].workload, "gcc");
    }

    /// Decode happens inside trace acquisition (the runner times it as a portion
    /// of acquire), so counting it as its own phase would cover more than the
    /// cells' wall time. The phases must add up to at most 100%.
    #[test]
    fn decode_nested_in_acquire_is_not_counted_twice() {
        let journal = [
            r#"{"ev":"planned","ts_us":0,"matrix":"fig5","workload":"gcc","config":"a","seed":1,"worker":0}"#,
            r#"{"ev":"trace_acquired","ts_us":200,"matrix":"fig5","workload":"gcc","config":"a","seed":1,"worker":0,"source":"cache","bytes":2048,"dur_us":200}"#,
            r#"{"ev":"decoded","ts_us":200,"matrix":"fig5","workload":"gcc","config":"a","seed":1,"worker":0,"dur_us":150}"#,
            r#"{"ev":"simulated","ts_us":900,"matrix":"fig5","workload":"gcc","config":"a","seed":1,"worker":0,"cycles":5000,"dur_us":700}"#,
            r#"{"ev":"written","ts_us":930,"matrix":"fig5","workload":"gcc","config":"a","seed":1,"worker":0,"dur_us":20}"#,
        ]
        .join("\n");
        let report = profile_events(&[("test".to_string(), journal)], 5);
        assert_eq!(report.totals.decode_us, 150.0);
        assert_eq!(report.totals.sum_us(), 920.0);
        assert!(report.totals.sum_us() <= report.cell_wall_us);
        assert_eq!(report.workers[0].busy_us, 920.0);
        let text = report.render();
        assert!(
            text.contains("\n    decode "),
            "decode is an indented row: {text}"
        );
        assert!(text.contains("(phases cover 98.9%)"), "{text}");
    }

    #[test]
    fn render_mentions_every_section() {
        let report = profile_events(&[("test".to_string(), journal())], 5);
        let text = report.render();
        assert!(text.contains("phase breakdown (aggregate)"));
        assert!(text.contains("trace-acquire"));
        assert!(text.contains("phase breakdown (per workload)"));
        assert!(text.contains("slowest cell"));
        assert!(text.contains("per-worker utilization"));
    }

    #[test]
    fn json_output_is_self_describing() {
        let report = profile_events(&[("test".to_string(), journal())], 5);
        let text = report.to_json();
        assert!(text.contains("\"simulated\":1"));
        assert!(text.contains("\"cached\":1"));
        assert!(text.contains("\"per_workload\""));
        assert!(text.contains("\"workers\""));
    }
}
