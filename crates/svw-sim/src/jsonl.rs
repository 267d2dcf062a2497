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
use std::sync::Mutex;

use svw_core::SvwStats;
use svw_cpu::{BranchPredictorStats, CacheStats, CpuStats, HierarchyStats};

use crate::json::{self, Scalar};

/// The scalar `CpuStats` counters that round-trip through the JSONL stream, in
/// emission order, each named and paired with its place in `s`. The nested
/// substrate statistics are flattened so restored cells are lossless. The
/// destructure is exhaustive, so a new counter fails to compile here instead
/// of restoring as 0.
fn stat_fields(s: &mut CpuStats) -> [(&'static str, &mut u64); 41] {
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

/// Parses one JSONL line back into its cell identity and result. Lines with
/// `status: "failed"` yield `Err(error)`; malformed lines yield `None`.
pub fn parse_cell_line(line: &str) -> Option<(CellId, Result<CpuStats, String>)> {
    let fields = json::parse_flat_object(line)?;
    let lookup = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    // Lines written under a different result schema (e.g. by an older binary
    // that predates the config fingerprint) fail to parse and are re-simulated.
    if lookup("schema")?.as_u64()? != crate::registry::RESULT_SCHEMA_VERSION {
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
}

impl JsonlSink {
    /// Opens (or creates) the results file at `path`, indexing any cells already
    /// present so the sweep can skip them.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let mut restored = HashMap::new();
        let mut restored_lines = 0usize;
        let mut skipped_lines = 0usize;
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
                match parse_cell_line(line) {
                    Some((id, Ok(stats))) => {
                        restored.insert(id.sim_key(), stats);
                        restored_lines += 1;
                    }
                    // Failed cells are re-tried on resume; their line is kept for the
                    // record but not restored.
                    Some((_, Err(_))) => {}
                    None => skipped_lines += 1,
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
