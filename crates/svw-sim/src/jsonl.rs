//! Streaming JSONL results: one flat JSON object per finished `(workload,
//! configuration, seed)` cell, appended (and flushed) the moment the cell completes.
//!
//! Because every line is self-describing and written atomically-enough (single
//! `write_all` + flush of a `\n`-terminated line), an interrupted sweep leaves a
//! prefix of valid lines plus at most one truncated line. Re-running the same sweep
//! with the same `--out` file *resumes*: cells whose line is already present are
//! restored from the file instead of being re-simulated. Failed cells are re-tried on
//! resume (their line records the failure, not a result).
//!
//! Restored statistics are *lossless*: every scalar counter the reports consume and
//! the nested substrate statistics (branch predictor, cache hierarchy, SVW
//! internals) round-trip through flattened `bp_*` / `l1d_*` / `l2_*` / `svw_*`
//! fields, 41 counters in all, so a resumed sweep is indistinguishable from an
//! uninterrupted one — including for substrate-level figures. Lines written by
//! older versions (missing the substrate or fingerprint fields) fail to parse and
//! their cells are simply re-simulated.
//!
//! Each line also records the workload profile's parameter *fingerprint* and the
//! machine's [`MachineConfig::fingerprint`](svw_cpu::MachineConfig::fingerprint),
//! making the stream safe to move between machines: resume refuses to restore a
//! cell whose workload or machine definition has changed.
//!
//! Resume matches a cell by its [`SimKey`] alone: what it simulates, not what a
//! render calls it. A line restores every planned cell with the same model
//! version, config fingerprint, workload fingerprint, trace length and seed,
//! whichever matrix or configuration name it was written under. The `matrix`,
//! `config` and `spec_fingerprint` fields stay on every line for renders and
//! readers; they are not part of the identity.
//!
//! Result schema 3 added `config_fingerprint`. Schema 4 dropped seven
//! counters: the five instruction-cache fields, always 0 because the model has
//! no instruction cache, and the SVW-side mismatch and wrap-drain counts, which
//! duplicated `reexec_flushes` and `wrap_drains`. Lines of any other schema
//! fail to parse and their cells are re-simulated.

use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use svw_core::SvwStats;
use svw_cpu::{BranchPredictorStats, CacheStats, CpuStats, HierarchyStats};

use crate::json;

/// How many `CpuStats` counters a cell line carries.
const STAT_FIELDS: usize = 41;

/// The scalar `CpuStats` counters that round-trip through the JSONL stream, in
/// emission order, each named and paired with its place in `s`. The nested
/// substrate statistics are flattened so restored cells are lossless. The
/// destructure is exhaustive, so a new counter fails to compile here instead
/// of restoring as 0.
fn stat_fields(s: &mut CpuStats) -> [(&'static str, &mut u64); STAT_FIELDS] {
    let CpuStats {
        cycles,
        committed,
        loads_retired,
        stores_retired,
        loads_marked,
        loads_filtered,
        loads_reexecuted,
        reexecuted_fsq_loads,
        reexecuted_reuse_loads,
        reexecuted_bypass_loads,
        loads_eliminated,
        eliminations_reuse,
        eliminations_bypass,
        eliminations_squash,
        reexec_flushes,
        ordering_flushes,
        wrap_drains,
        branch_mispredictions,
        commit_stalled_on_reexec,
        reexec_port_conflicts,
        fwd_buffer_lookups,
        fwd_buffer_hits,
        store_set_squashes,
        branch_predictor:
            BranchPredictorStats {
                predictions: bp_predictions,
                mispredictions: bp_mispredictions,
            },
        hierarchy:
            HierarchyStats {
                l1d:
                    CacheStats {
                        reads: l1d_reads,
                        writes: l1d_writes,
                        read_misses: l1d_read_misses,
                        write_misses: l1d_write_misses,
                        dirty_evictions: l1d_dirty_evictions,
                    },
                l2:
                    CacheStats {
                        reads: l2_reads,
                        writes: l2_writes,
                        read_misses: l2_read_misses,
                        write_misses: l2_write_misses,
                        dirty_evictions: l2_dirty_evictions,
                    },
                memory_accesses: mem_accesses,
            },
        svw:
            SvwStats {
                marked_loads: svw_marked_loads,
                filtered_loads: svw_filtered_loads,
                reexecuted_loads: svw_reexecuted_loads,
                ssbf_store_updates: svw_ssbf_store_updates,
                ssbf_invalidation_updates: svw_ssbf_invalidation_updates,
            },
    } = s;
    // Each field is named by its binding, so a name cannot drift from its field.
    macro_rules! named {
        ($($field:ident),*) => {
            [$((stringify!($field), $field)),*]
        };
    }
    named![
        cycles,
        committed,
        loads_retired,
        stores_retired,
        loads_marked,
        loads_filtered,
        loads_reexecuted,
        reexecuted_fsq_loads,
        reexecuted_reuse_loads,
        reexecuted_bypass_loads,
        loads_eliminated,
        eliminations_reuse,
        eliminations_bypass,
        eliminations_squash,
        reexec_flushes,
        ordering_flushes,
        wrap_drains,
        branch_mispredictions,
        commit_stalled_on_reexec,
        reexec_port_conflicts,
        fwd_buffer_lookups,
        fwd_buffer_hits,
        store_set_squashes,
        bp_predictions,
        bp_mispredictions,
        l1d_reads,
        l1d_writes,
        l1d_read_misses,
        l1d_write_misses,
        l1d_dirty_evictions,
        l2_reads,
        l2_writes,
        l2_read_misses,
        l2_write_misses,
        l2_dirty_evictions,
        mem_accesses,
        svw_marked_loads,
        svw_filtered_loads,
        svw_reexecuted_loads,
        svw_ssbf_store_updates,
        svw_ssbf_invalidation_updates
    ]
}

/// One experiment cell as recorded in the JSONL stream: what it simulates (its
/// [`SimKey`]) plus the names a render files it under.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct CellId {
    /// Matrix label (artifact name, e.g. `"fig5"` or `"summary/SSQ"`).
    pub matrix: String,
    /// Workload name.
    pub workload: String,
    /// Configuration name.
    pub config: String,
    /// Workload-generation seed.
    pub seed: u64,
    /// Per-workload dynamic trace length.
    pub trace_len: u64,
    /// The workload profile's parameter fingerprint
    /// ([`svw_workloads::WorkloadProfile::fingerprint`]). Part of the key:
    /// results produced by a *different* workload definition (an edited profile, an
    /// older binary) never restore on resume or hit in the result cache.
    pub fingerprint: u64,
    /// The machine's fingerprint ([`svw_cpu::MachineConfig::fingerprint`]). Part
    /// of the key: a preset edited under its old name never restores or hits,
    /// and two names for one machine share their results.
    pub config_fingerprint: u64,
    /// Behavioural model version the cell was simulated under
    /// ([`svw_cpu::MachineConfig::model_version`]). Part of the key: results
    /// from different model versions are never mixed on resume or in the result
    /// cache.
    pub model_version: u32,
    /// Fingerprint of the experiment spec's canonical form
    /// ([`crate::registry::spec_fingerprint`]); `0` for ad-hoc cells that were not
    /// enumerated from a spec (e.g. `svwsim run`). Recorded for readers, not part
    /// of the key: a spec edit that leaves every machine unchanged reuses results.
    pub spec_fingerprint: u64,
}

/// What a cell simulates: the only identity the result cache and `--out`
/// resume match on. The result schema is implied, since lines and entries of
/// another schema never parse.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub struct SimKey {
    /// Behavioural model version.
    pub model_version: u32,
    /// [`CellId::config_fingerprint`].
    pub config_fingerprint: u64,
    /// [`CellId::fingerprint`] (the workload's).
    pub fingerprint: u64,
    /// Per-workload dynamic trace length.
    pub trace_len: u64,
    /// Workload-generation seed.
    pub seed: u64,
}

impl CellId {
    /// The cell's simulation key.
    pub fn sim_key(&self) -> SimKey {
        SimKey {
            model_version: self.model_version,
            config_fingerprint: self.config_fingerprint,
            fingerprint: self.fingerprint,
            trace_len: self.trace_len,
            seed: self.seed,
        }
    }
}

/// Serializes one finished cell as a single JSONL line (no trailing newline).
pub fn cell_line(id: &CellId, result: &Result<CpuStats, String>) -> String {
    let mut fields: Vec<(&str, String)> = vec![
        ("matrix", json::string(&id.matrix)),
        ("workload", json::string(&id.workload)),
        ("config", json::string(&id.config)),
        ("seed", json::uint(id.seed)),
        ("trace_len", json::uint(id.trace_len)),
        ("fingerprint", json::uint(id.fingerprint)),
        ("config_fingerprint", json::uint(id.config_fingerprint)),
        ("schema", json::uint(crate::registry::RESULT_SCHEMA_VERSION)),
        ("model_version", json::uint(u64::from(id.model_version))),
        ("spec_fingerprint", json::uint(id.spec_fingerprint)),
    ];
    match result {
        Ok(stats) => {
            fields.push(("status", json::string("ok")));
            for (name, value) in stat_fields(&mut stats.clone()) {
                fields.push((name, json::uint(*value)));
            }
            // Derived metrics for human and downstream consumers (not read back).
            fields.push(("ipc", json::number(stats.ipc())));
            fields.push(("reexec_rate", json::number(stats.reexec_rate())));
            fields.push(("filter_rate", json::number(stats.filter_rate())));
        }
        Err(msg) => {
            fields.push(("status", json::string("failed")));
            fields.push(("error", json::string(msg)));
        }
    }
    json::object(fields)
}

/// The identity and status fields of a cell line, in the order [`cell_line`]
/// writes them.
const HEAD_FIELDS: [&str; 11] = [
    "matrix",
    "workload",
    "config",
    "seed",
    "trace_len",
    "fingerprint",
    "config_fingerprint",
    "schema",
    "model_version",
    "spec_fingerprint",
    "status",
];

/// The fields after the stat fields: the derived metrics of an ok cell (not
/// read back) and a failed cell's error.
const TAIL_FIELDS: [&str; 4] = ["ipc", "reexec_rate", "filter_rate", "error"];

/// How many fields a cell line can carry.
const LINE_FIELDS: usize = HEAD_FIELDS.len() + STAT_FIELDS + TAIL_FIELDS.len();

/// Every field a cell line can carry, in the order [`cell_line`] writes them.
fn line_fields() -> &'static [&'static str; LINE_FIELDS] {
    static FIELDS: OnceLock<[&str; LINE_FIELDS]> = OnceLock::new();
    FIELDS.get_or_init(|| {
        let stats = stat_fields(&mut CpuStats::default()).map(|(name, _)| name);
        let mut fields = [""; LINE_FIELDS];
        let names = HEAD_FIELDS.iter().chain(&stats).chain(&TAIL_FIELDS);
        for (field, name) in fields.iter_mut().zip(names) {
            *field = name;
        }
        fields
    })
}

/// A field's value as an unsigned integer.
fn uint(value: &Option<json::Value>) -> Result<u64, Unreadable> {
    value
        .as_ref()
        .and_then(json::Value::as_u64)
        .ok_or(Unreadable::Malformed)
}

/// A field's value as a string.
fn text<'v>(value: &'v Option<json::Value>) -> Result<&'v str, Unreadable> {
    value
        .as_ref()
        .and_then(json::Value::as_str)
        .ok_or(Unreadable::Malformed)
}

/// Why a line is not a cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Unreadable {
    /// A well-formed line written under another result schema.
    OtherSchema,
    /// Anything else: a line cut short by an interrupted write, a missing or
    /// mistyped field, or no flat JSON object at all.
    Malformed,
}

/// Parses one JSONL line back into its cell identity and result. Lines with
/// `status: "failed"` yield `Err(error)`; malformed lines yield `None`.
pub fn parse_cell_line(line: &str) -> Option<(CellId, Result<CpuStats, String>)> {
    read_cell_line(line).ok()
}

/// [`parse_cell_line`], saying why a line is not a cell. One pass over the
/// line: each field goes to its slot by name, found at the position after the
/// previous field's (where [`cell_line`] puts it) or else by a search. The
/// first occurrence of a duplicated key wins, and fields a cell does not read
/// are ignored.
fn read_cell_line(line: &str) -> Result<(CellId, Result<CpuStats, String>), Unreadable> {
    let fields = line_fields();
    let mut values: [Option<json::Value>; LINE_FIELDS] = [const { None }; LINE_FIELDS];
    let mut next = 0;
    json::visit_flat_object(line, |key, value| {
        let slot = if fields.get(next).is_some_and(|&f| f == key) {
            next
        } else if let Some(slot) = fields.iter().position(|&f| f == key) {
            slot
        } else {
            return;
        };
        next = slot + 1;
        values[slot].get_or_insert(value);
    })
    .ok_or(Unreadable::Malformed)?;

    #[rustfmt::skip]
    let [
        matrix, workload, config, seed, trace_len, fingerprint, config_fingerprint, schema,
        model_version, spec_fingerprint, status, stats @ .., _ipc, _reexec_rate, _filter_rate, error,
    ] = &values;
    // Lines written under a different result schema (e.g. by an older binary
    // that predates the config fingerprint) are re-simulated.
    if uint(schema)? != crate::registry::RESULT_SCHEMA_VERSION {
        return Err(Unreadable::OtherSchema);
    }
    let id = CellId {
        matrix: text(matrix)?.to_string(),
        workload: text(workload)?.to_string(),
        config: text(config)?.to_string(),
        seed: uint(seed)?,
        trace_len: uint(trace_len)?,
        fingerprint: uint(fingerprint)?,
        config_fingerprint: uint(config_fingerprint)?,
        model_version: u32::try_from(uint(model_version)?).map_err(|_| Unreadable::Malformed)?,
        spec_fingerprint: uint(spec_fingerprint)?,
    };
    match text(status)? {
        "ok" => {
            let mut restored = CpuStats::default();
            for ((_, field), value) in stat_fields(&mut restored).into_iter().zip(stats) {
                *field = uint(value)?;
            }
            Ok((id, Ok(restored)))
        }
        "failed" => {
            let msg = text(error).unwrap_or("unknown failure").to_string();
            Ok((id, Err(msg)))
        }
        _ => Err(Unreadable::Malformed),
    }
}

/// An append-only JSONL results file shared by all sweep workers, with the already-
/// present cells indexed by [`SimKey`] for resume.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    file: Mutex<fs::File>,
    /// Successfully simulated cells found in the file at open time (last line wins).
    restored: HashMap<SimKey, CpuStats>,
    /// Lines of successful cells found in the file at open time.
    restored_lines: usize,
    /// Lines at open time that did not parse (e.g. one truncated by a kill).
    skipped_lines: usize,
    /// Those of `skipped_lines` written under another result schema.
    other_schema_lines: usize,
}

impl JsonlSink {
    /// Opens (or creates) the results file at `path`, indexing any cells already
    /// present so the sweep can skip them.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let mut restored = HashMap::new();
        let mut restored_lines = 0usize;
        let mut skipped_lines = 0usize;
        let mut other_schema_lines = 0usize;
        let mut ends_mid_line = false;
        if let Ok(existing) = fs::read_to_string(&path) {
            // A run killed mid-write leaves a final line without its newline; it must
            // be terminated before appending, or the first new record would be
            // corrupted by concatenation.
            ends_mid_line = !existing.is_empty() && !existing.ends_with('\n');
            for line in existing.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                match read_cell_line(line) {
                    Ok((id, Ok(stats))) => {
                        restored.insert(id.sim_key(), stats);
                        restored_lines += 1;
                    }
                    // Failed cells are re-tried on resume; their line is kept for the
                    // record but not restored.
                    Ok((_, Err(_))) => {}
                    Err(why) => {
                        skipped_lines += 1;
                        other_schema_lines += usize::from(why == Unreadable::OtherSchema);
                    }
                }
            }
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        if ends_mid_line {
            file.write_all(b"\n")?;
        }
        Ok(JsonlSink {
            path,
            file: Mutex::new(file),
            restored,
            restored_lines,
            skipped_lines,
            other_schema_lines,
        })
    }

    /// The file this sink appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// How many finished cells were found at open time. Every planned cell
    /// whose [`SimKey`] one of them has is restored instead of simulated.
    pub fn restored_count(&self) -> usize {
        self.restored_lines
    }

    /// How many lines at open time did not parse: a line truncated by an
    /// interrupted run, or one written under another result schema.
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// How many of the [`skipped_lines`](Self::skipped_lines) are whole lines
    /// written under another result schema; the rest were cut short or are
    /// otherwise malformed.
    pub fn other_schema_lines(&self) -> usize {
        self.other_schema_lines
    }

    /// The restored statistics for `id`'s [`SimKey`], if a cell with that key
    /// finished in a previous run (under any matrix or configuration name).
    pub fn lookup(&self, id: &CellId) -> Option<CpuStats> {
        self.restored.get(&id.sim_key()).cloned()
    }

    /// Appends one finished cell and flushes, so an interrupted sweep loses at most
    /// the cells still in flight.
    pub fn append(&self, id: &CellId, result: &Result<CpuStats, String>) -> std::io::Result<()> {
        let mut line = cell_line(id, result);
        line.push('\n');
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

/// The line parser this module had before the one-pass reader, kept as the
/// reference the tests compare [`parse_cell_line`] against: each field is
/// found by a search over the reference flat-object parser's pairs.
#[cfg(test)]
pub(crate) mod reference {
    use super::{json, stat_fields, CellId, CpuStats};
    use crate::json::Scalar;
    use crate::registry::RESULT_SCHEMA_VERSION;

    fn cell_of(fields: &[(String, Scalar)]) -> Option<(CellId, Result<CpuStats, String>)> {
        let lookup = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        if lookup("schema")?.as_u64()? != RESULT_SCHEMA_VERSION {
            return None;
        }
        let id = CellId {
            matrix: lookup("matrix")?.as_str()?.to_string(),
            workload: lookup("workload")?.as_str()?.to_string(),
            config: lookup("config")?.as_str()?.to_string(),
            seed: lookup("seed")?.as_u64()?,
            trace_len: lookup("trace_len")?.as_u64()?,
            fingerprint: lookup("fingerprint")?.as_u64()?,
            config_fingerprint: lookup("config_fingerprint")?.as_u64()?,
            model_version: u32::try_from(lookup("model_version")?.as_u64()?).ok()?,
            spec_fingerprint: lookup("spec_fingerprint")?.as_u64()?,
        };
        match lookup("status")?.as_str()? {
            "ok" => {
                let mut stats = CpuStats::default();
                for (name, value) in stat_fields(&mut stats) {
                    *value = lookup(name)?.as_u64()?;
                }
                Some((id, Ok(stats)))
            }
            "failed" => {
                let msg = lookup("error")
                    .and_then(Scalar::as_str)
                    .unwrap_or("unknown failure")
                    .to_string();
                Some((id, Err(msg)))
            }
            _ => None,
        }
    }

    /// Whether the one-pass readers read `line` as the references do: the
    /// same flat-object pairs and the same cell, and a line counted as of
    /// another schema exactly when it is a well-formed object whose first
    /// `schema` is another integer. Names the first disagreement.
    pub(crate) fn disagreement(line: &str) -> Option<String> {
        let pairs = json::reference::parse_flat_object(line);
        if json::parse_flat_object(line) != pairs {
            return Some(format!("parse_flat_object differs on {line:?}"));
        }
        let read = super::read_cell_line(line);
        let expected = pairs.as_deref().and_then(cell_of);
        let same = match (&read, &expected) {
            (Err(_), None) => true,
            (Ok(cell), Some(expected)) => format!("{cell:?}") == format!("{expected:?}"),
            _ => false,
        };
        if !same {
            return Some(format!("parse_cell_line differs on {line:?}"));
        }
        let first_schema = pairs
            .iter()
            .flatten()
            .find(|(key, _)| key == "schema")
            .and_then(|(_, value)| value.as_u64());
        let other_schema = first_schema.is_some_and(|v| v != RESULT_SCHEMA_VERSION);
        let counted = read.err() == Some(super::Unreadable::OtherSchema);
        (counted != other_schema).then(|| format!("schema classification differs on {line:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Scalar;
    use proptest::prelude::*;

    /// Every counter set, each to a distinct value.
    fn nonzero_stats() -> CpuStats {
        let mut s = CpuStats::default();
        for (i, (_, value)) in stat_fields(&mut s).into_iter().enumerate() {
            *value = (i as u64 + 1) * 1_000_000_007;
        }
        s
    }

    #[test]
    fn every_stat_field_round_trips() {
        let id = CellId {
            matrix: "fig5".into(),
            workload: "perl.d".into(),
            config: "+SVW+UPD".into(),
            seed: 7,
            trace_len: 60_000,
            fingerprint: 0xdead_beef_0123_4567,
            config_fingerprint: 0x7654_3210_fedc_ba98,
            model_version: 2,
            spec_fingerprint: 0x0123_4567_89ab_cdef,
        };
        let stats = nonzero_stats();
        let line = cell_line(&id, &Ok(stats.clone()));
        let (rid, result) = parse_cell_line(&line).expect("parses");
        assert_eq!(rid, id);
        let mut restored = result.expect("ok cell");
        let names: Vec<&str> = stat_fields(&mut restored).map(|(name, _)| name).into();
        for (name, value) in stat_fields(&mut stats.clone()) {
            assert_eq!(names.iter().filter(|&&n| n == name).count(), 1, "{name}");
            assert!(line.contains(&format!("\"{name}\":{value},")), "{name}");
        }
        // Lossless resume: the restored struct — including the nested substrate
        // statistics — must equal the original in every field.
        assert_eq!(
            format!("{restored:?}"),
            format!("{stats:?}"),
            "restored stats must be indistinguishable from the originals"
        );
    }

    #[test]
    fn failed_cells_round_trip_their_error() {
        let id = CellId {
            matrix: "m".into(),
            workload: "w".into(),
            config: "c \"q\"".into(),
            seed: 1,
            trace_len: 10,
            fingerprint: 1,
            config_fingerprint: 2,
            model_version: 1,
            spec_fingerprint: 0,
        };
        let line = cell_line(&id, &Err("boom: index 3 out of range".into()));
        let (rid, result) = parse_cell_line(&line).expect("parses");
        assert_eq!(rid, id);
        assert_eq!(result.unwrap_err(), "boom: index 3 out of range");
    }

    #[test]
    fn sink_restores_ok_cells_and_retries_failed_ones() {
        let dir = std::env::temp_dir().join(format!("svw-jsonl-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.jsonl");
        let ok_id = CellId {
            matrix: "m".into(),
            workload: "a".into(),
            config: "c".into(),
            seed: 1,
            trace_len: 100,
            fingerprint: 42,
            config_fingerprint: 43,
            model_version: 1,
            spec_fingerprint: 7,
        };
        let failed_id = CellId {
            workload: "b".into(),
            fingerprint: 44,
            ..ok_id.clone()
        };
        {
            let sink = JsonlSink::open(&path).unwrap();
            assert_eq!(sink.restored_count(), 0);
            sink.append(&ok_id, &Ok(nonzero_stats())).unwrap();
            sink.append(&failed_id, &Err("poisoned".into())).unwrap();
        }
        // Simulate a kill mid-write: append a truncated line.
        {
            use std::io::Write as _;
            let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"matrix\":\"m\",\"workloa").unwrap();
        }
        let sink = JsonlSink::open(&path).unwrap();
        assert_eq!(sink.restored_count(), 1, "only the ok cell is restored");
        assert_eq!(sink.skipped_lines(), 1, "the truncated line is skipped");
        assert!(sink.lookup(&ok_id).is_some());
        assert!(sink.lookup(&failed_id).is_none(), "failed cells re-run");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn line_fields_are_in_the_order_cell_line_writes_them() {
        let ok = cell_line(&sample_id(), &Ok(nonzero_stats()));
        let failed = cell_line(&sample_id(), &Err("e".into()));
        let keys = |line: &str| -> Vec<String> {
            json::parse_flat_object(line)
                .expect("parses")
                .into_iter()
                .map(|(key, _)| key)
                .collect()
        };
        let fields = line_fields();
        assert_eq!(keys(&ok), fields[..LINE_FIELDS - 1]);
        let head = HEAD_FIELDS.len();
        assert_eq!(keys(&failed)[..head], fields[..head]);
        assert_eq!(keys(&failed)[head..], fields[LINE_FIELDS - 1..]);
    }

    fn sample_id() -> CellId {
        CellId {
            matrix: "m".into(),
            workload: "w".into(),
            config: "c".into(),
            seed: 1,
            trace_len: 10,
            fingerprint: 1,
            config_fingerprint: 2,
            model_version: 1,
            spec_fingerprint: 0,
        }
    }

    /// Characters a generated name or error is drawn from: quoting, escapes,
    /// JSON structure, control characters and non-ASCII.
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', 'u', '{', '}', ':', ',', '\n', '\t', '\r', '\u{0}',
        '\u{1f}', '\u{7f}', 'é', '€', '\u{fffd}', '😀',
    ];

    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..CHARS.len(), 0..12)
            .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
    }

    /// Counters and ids at the edges: 0, `u64::MAX` and 2^53 + 1, which an
    /// `f64` would round.
    fn number() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(u64::MAX),
            Just((1u64 << 53) + 1),
            0u64..1_000,
            0u64..u64::MAX,
        ]
    }

    fn cell() -> impl Strategy<Value = (CellId, Result<CpuStats, String>)> {
        (
            (text(), text(), text()),
            proptest::collection::vec(number(), 6..7),
            proptest::collection::vec(number(), 41..42),
            prop_oneof![3 => Just(None), 1 => text().prop_map(Some)],
        )
            .prop_map(|((matrix, workload, config), ids, counters, error)| {
                let id = CellId {
                    matrix,
                    workload,
                    config,
                    seed: ids[0],
                    trace_len: ids[1],
                    fingerprint: ids[2],
                    config_fingerprint: ids[3],
                    model_version: ids[4] as u32,
                    spec_fingerprint: ids[5],
                };
                let result = match error {
                    Some(msg) => Err(msg),
                    None => {
                        let mut stats = CpuStats::default();
                        for ((_, field), value) in stat_fields(&mut stats).into_iter().zip(counters)
                        {
                            *field = value;
                        }
                        Ok(stats)
                    }
                };
                (id, result)
            })
    }

    /// One rewrite of a line's fields.
    #[derive(Clone, Debug)]
    enum Edit {
        /// Swap two fields.
        Swap(usize, usize),
        /// Insert a copy of field `from` at `to`, with its own value or
        /// another (raw JSON text).
        Duplicate {
            from: usize,
            to: usize,
            value: Option<String>,
        },
    }

    fn edit() -> impl Strategy<Value = Edit> {
        let other_value = prop_oneof![
            number().prop_map(json::uint),
            text().prop_map(|t| json::string(&t)),
            Just("null".to_string()),
            Just("true".to_string()),
            Just("-1.5e3".to_string()),
        ];
        prop_oneof![
            (0usize..64, 0usize..64).prop_map(|(a, b)| Edit::Swap(a, b)),
            (0usize..64, 0usize..64).prop_map(|(from, to)| Edit::Duplicate {
                from,
                to,
                value: None
            }),
            (0usize..64, 0usize..64, other_value).prop_map(|(from, to, value)| {
                Edit::Duplicate {
                    from,
                    to,
                    value: Some(value),
                }
            }),
        ]
    }

    /// `line` with `edits` applied to its fields and the whitespace picked by
    /// `spaces` around every token.
    fn rewrite(line: &str, edits: &[Edit], spaces: &[usize]) -> String {
        const SPACES: [&str; 6] = ["", " ", "\t", "\n", "\r\n  ", "\x0c"];
        let mut fields: Vec<(String, String)> = json::parse_flat_object(line)
            .expect("a cell line parses")
            .into_iter()
            .map(|(key, value)| {
                let raw = match value {
                    Scalar::Str(s) => json::string(&s),
                    Scalar::Num(raw) => raw,
                    Scalar::Bool(b) => b.to_string(),
                    Scalar::Null => "null".to_string(),
                };
                (json::string(&key), raw)
            })
            .collect();
        for edit in edits {
            let n = fields.len();
            match edit {
                Edit::Swap(a, b) => fields.swap(a % n, b % n),
                Edit::Duplicate { from, to, value } => {
                    let mut copy = fields[from % n].clone();
                    if let Some(value) = value {
                        copy.1 = value.clone();
                    }
                    fields.insert(to % (n + 1), copy);
                }
            }
        }
        let mut space = spaces.iter().cycle().map(|&i| SPACES[i % SPACES.len()]);
        let mut space = || space.next().unwrap_or("");
        let mut out = format!("{}{{", space());
        for (i, (key, value)) in fields.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out += &format!(
                "{sep}{}{key}{}:{}{value}{}",
                space(),
                space(),
                space(),
                space()
            );
        }
        out + &format!("}}{}", space())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        /// Lines `cell_line` writes read back to their cell, and both readers
        /// agree on them, before and after their fields are permuted,
        /// duplicated and spaced out.
        #[test]
        fn the_one_pass_reader_reads_lines_as_the_reference_does(
            cell in cell(),
            edits in proptest::collection::vec(edit(), 0..6),
            spaces in proptest::collection::vec(0usize..6, 1..40),
        ) {
            let line = cell_line(&cell.0, &cell.1);
            let expected = Some(cell);
            prop_assert_eq!(format!("{:?}", parse_cell_line(&line)), format!("{expected:?}"));
            prop_assert_eq!(reference::disagreement(&line), None);

            let edited = rewrite(&line, &edits, &spaces);
            prop_assert_eq!(reference::disagreement(&edited), None);
            let same_values = edits
                .iter()
                .all(|e| matches!(e, Edit::Swap(..) | Edit::Duplicate { value: None, .. }));
            if same_values {
                prop_assert_eq!(format!("{:?}", parse_cell_line(&edited)), format!("{expected:?}"));
            }
        }
    }
}
