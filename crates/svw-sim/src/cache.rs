//! Content-addressed global result cache: memoize finished cells across sweeps,
//! users, and CI (`--result-cache DIR`, `svwsim cache stats|gc|verify`).
//!
//! A finished cell is addressed by what it simulates, its
//! [`SimKey`]: `(result schema, model version, config fingerprint, workload
//! fingerprint, trace length, seed)`. The matrix label, the configuration name
//! and the spec fingerprint are not part of it, so every artifact that asks for
//! the same machine on the same trace shares one entry, and a preset edited
//! under its old name misses. This module turns the key into an address: an
//! FNV-1a hash selects a fanout directory and entry file under the cache root,
//! the entry holds the canonical JSONL line plus an integrity checksum, and a
//! lookup re-parses the stored line back into lossless [`CpuStats`]. A cell
//! simulated once — by any sweep, any user sharing the directory — is never
//! simulated again.
//!
//! Layering (cheapest first):
//!
//! 1. **Striped in-process index** — a fixed set of mutex-striped maps, so the
//!    rounds of an adaptive sweep or the matrices of a multi-table artifact pay
//!    the disk read once per process;
//! 2. **On-disk fanout store** — `ROOT/xx/<hash>.svwr` entries written via
//!    tmp+rename, so concurrent sweeps can share one directory with no
//!    locking protocol: a reader sees either the complete entry or nothing.
//!
//! Safety properties:
//!
//! * **Key mismatches miss.** The hash covers the whole key, and a matched
//!   entry's stored line is re-parsed and its key compared against the
//!   requested one — a different model version, machine, workload, or result
//!   schema can never be served.
//! * **Corruption is a miss, never a failure.** A torn entry (a crashed
//!   writer's truncated tmp leftover, a bad checksum, an unparsable line) is
//!   treated as absent on lookup; [`ResultCache::verify`] counts and prunes
//!   such entries, and [`ResultCache::gc`] bounds the store by
//!   least-recently-used eviction (file access time, falling back to mtime).
//! * **Only successes are stored.** Failed cells re-run, exactly as they do on
//!   JSONL resume.
//!
//! Results served from the cache are byte-identical to re-simulating: the
//! stored line *is* the canonical [`cell_line`] serialization, whose stats
//! round-trip losslessly (the jsonl unit tests enforce this).
//!
//! The cache is storage only and counts nothing. [`ResultCache::store`] says
//! whether it wrote an entry, and the runner counts hits, misses, stores and
//! store errors in [`crate::obs::SweepMetrics`].

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

use svw_cpu::CpuStats;

use crate::jsonl::{cell_line, parse_cell_line, CellId, SimKey};

/// Entry-file magic: format version 2 of the result-cache entry layout (keyed
/// by [`SimKey`]; version 1 entries were keyed by the full [`CellId`]).
const ENTRY_MAGIC: &str = "svwr2";

/// Extension of committed entry files (`<hash>.svwr`).
const ENTRY_EXT: &str = "svwr";

/// Bytes the first read of an entry file asks for. An entry is a header and
/// one cell line, ~1.2 KB for the builtin artifacts' names, so one read takes
/// the whole file.
const ENTRY_READ_BYTES: usize = 4096;

/// Mutex stripes of the in-process index.
const INDEX_STRIPES: usize = 16;

/// FNV-1a offset basis (the same parameters the spec registry and trace keys
/// use; kept private per module so each hash domain is self-contained).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// How a [`ResultCache`] participates in a sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// Serve hits and publish freshly simulated cells (the default).
    #[default]
    ReadWrite,
    /// Serve hits but never write — for CI runs that must not grow a shared
    /// store, or for consuming a read-only mount.
    ReadOnly,
    /// Publish fresh results but never serve a hit — for deliberately
    /// re-simulating (e.g. validating a store, or warming it from scratch)
    /// while still sharing the outcome.
    WriteOnly,
}

impl CacheMode {
    /// Parses the CLI syntax `rw` / `ro` / `wo` (`--result-cache-mode`).
    pub fn parse(s: &str) -> Result<CacheMode, String> {
        match s {
            "rw" => Ok(CacheMode::ReadWrite),
            "ro" => Ok(CacheMode::ReadOnly),
            "wo" => Ok(CacheMode::WriteOnly),
            other => Err(format!(
                "invalid result-cache mode {other:?} (expected rw, ro, or wo)"
            )),
        }
    }

    /// The stable label used in summaries.
    pub fn label(self) -> &'static str {
        match self {
            CacheMode::ReadWrite => "rw",
            CacheMode::ReadOnly => "ro",
            CacheMode::WriteOnly => "wo",
        }
    }
}

/// What `svwsim cache stats` reports about an on-disk store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Committed entries (`*.svwr` files).
    pub entries: u64,
    /// Total bytes of committed entries.
    pub bytes: u64,
    /// Fanout directories present.
    pub fanout_dirs: u64,
    /// Abandoned `*.tmp.*` files from interrupted writers.
    pub tmp_leftovers: u64,
}

/// What `svwsim cache verify` found (and, with pruning, removed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Entries examined.
    pub checked: u64,
    /// Entries whose checksum, parse, and address all verified.
    pub valid: u64,
    /// Entries that failed verification (torn, corrupt, or misaddressed).
    pub corrupt: u64,
    /// Corrupt entries removed (always equals `corrupt` when pruning).
    pub pruned: u64,
    /// Abandoned tmp files removed.
    pub tmp_removed: u64,
}

/// What `svwsim cache gc` evicted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Committed entries before collection.
    pub entries_before: u64,
    /// Committed bytes before collection.
    pub bytes_before: u64,
    /// Entries evicted (least-recently-used first).
    pub evicted: u64,
    /// Bytes reclaimed from evicted entries.
    pub bytes_evicted: u64,
    /// Abandoned tmp files removed.
    pub tmp_removed: u64,
}

/// A content-addressed store of finished cell results shared by concurrent
/// sweeps: an in-process index striped across mutexes over an on-disk fanout
/// directory of checksummed canonical JSONL entries. See the module docs for
/// the layout and safety properties.
#[derive(Debug)]
pub struct ResultCache {
    root: PathBuf,
    mode: CacheMode,
    index: Vec<Mutex<HashMap<SimKey, CpuStats>>>,
}

/// Process-global in-flight-write sequence. Shared across *instances* so two
/// caches opened on the same directory in one process (same pid) can never
/// race each other onto the same tmp filename.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl ResultCache {
    /// Opens (creating if needed) the store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>, mode: CacheMode) -> io::Result<ResultCache> {
        let root = dir.into();
        fs::create_dir_all(&root)?;
        Ok(ResultCache {
            root,
            mode,
            index: (0..INDEX_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The mode this instance was opened with.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// The content address of `id`: FNV-1a over a stable serialization of its
    /// [`SimKey`] and the result schema. A new model version, an edited
    /// machine or workload, a different seed or trace length lands at a
    /// different address (and a colliding address is still rejected by the
    /// stored line's key check on lookup).
    pub fn cache_key(id: &CellId) -> u64 {
        let SimKey {
            model_version,
            config_fingerprint,
            fingerprint,
            trace_len,
            seed,
        } = id.sim_key();
        let key = format!(
            "{}\u{1f}{model_version}\u{1f}{config_fingerprint}\u{1f}{fingerprint}\u{1f}{trace_len}\u{1f}{seed}",
            crate::registry::RESULT_SCHEMA_VERSION,
        );
        fnv1a(key.as_bytes())
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.root
            .join(format!("{:02x}", key >> 56))
            .join(format!("{key:016x}.{ENTRY_EXT}"))
    }

    fn index_stripe(&self, key: u64) -> &Mutex<HashMap<SimKey, CpuStats>> {
        &self.index[(key as usize) % INDEX_STRIPES]
    }

    /// Looks up `id`, consulting the in-process index first and the on-disk
    /// store second. Returns `None` on a miss — including when the entry is
    /// torn or corrupt (a crashed writer never breaks a sweep) and always
    /// under [`CacheMode::WriteOnly`].
    pub fn lookup(&self, id: &CellId) -> Option<CpuStats> {
        if self.mode == CacheMode::WriteOnly {
            return None;
        }
        let (key, sim_key) = (Self::cache_key(id), id.sim_key());
        {
            let stripe = self
                .index_stripe(key)
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if let Some(stats) = stripe.get(&sim_key) {
                return Some(stats.clone());
            }
        }
        let stats = read_entry(&self.entry_path(key), sim_key)?;
        self.index_stripe(key)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(sim_key, stats.clone());
        Some(stats)
    }

    /// Publishes one successfully simulated cell: atomically (tmp+rename)
    /// writes the checksummed canonical line, so a concurrent reader sees
    /// either the whole entry or nothing. Returns whether it wrote an entry:
    /// `false` under [`CacheMode::ReadOnly`], and when an entry with the same
    /// [`SimKey`] is already indexed in-process. I/O errors are returned for
    /// the caller to aggregate into a sweep warning — never to abort on.
    pub fn store(&self, id: &CellId, stats: &CpuStats) -> io::Result<bool> {
        if self.mode == CacheMode::ReadOnly {
            return Ok(false);
        }
        let key = Self::cache_key(id);
        {
            let mut stripe = self
                .index_stripe(key)
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if stripe.insert(id.sim_key(), stats.clone()).is_some() {
                return Ok(false);
            }
        }
        let payload = cell_line(id, &Ok(stats.clone()));
        let entry = format!(
            "{ENTRY_MAGIC} {:016x}\n{payload}\n",
            fnv1a(payload.as_bytes())
        );
        let path = self.entry_path(key);
        fs::create_dir_all(path.parent().expect("entry path has a fanout parent"))?;
        // Unique per process *and* per in-flight write, so concurrent sweeps
        // sharing the directory never collide on the tmp name.
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut file = fs::File::create(&tmp)?;
        let write = file
            .write_all(entry.as_bytes())
            .and_then(|()| file.flush())
            .and_then(|()| {
                drop(file);
                fs::rename(&tmp, &path)
            });
        if write.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        write.map(|()| true)
    }

    /// Scans the on-disk store: entry/byte totals, fanout directories, and
    /// abandoned tmp files (`svwsim cache stats`).
    pub fn stats(&self) -> io::Result<StoreStats> {
        let mut out = StoreStats::default();
        for dir in fanout_dirs(&self.root)? {
            out.fanout_dirs += 1;
            for entry in walk_files(&dir)? {
                if is_tmp(&entry.path) {
                    out.tmp_leftovers += 1;
                } else if entry.path.extension().is_some_and(|e| e == ENTRY_EXT) {
                    out.entries += 1;
                    out.bytes += entry.len;
                }
            }
        }
        Ok(out)
    }

    /// Re-checksums every entry, pruning the ones that fail (torn writes,
    /// bit rot, misaddressed files) and removing abandoned tmp files
    /// (`svwsim cache verify`). Lookups already treat these as misses; verify
    /// makes the store clean again and reports how much was wrong.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        for dir in fanout_dirs(&self.root)? {
            for entry in walk_files(&dir)? {
                if is_tmp(&entry.path) {
                    fs::remove_file(&entry.path)?;
                    report.tmp_removed += 1;
                    continue;
                }
                if entry.path.extension().is_none_or(|e| e != ENTRY_EXT) {
                    continue;
                }
                report.checked += 1;
                if entry_is_valid(&entry.path) {
                    report.valid += 1;
                } else {
                    report.corrupt += 1;
                    fs::remove_file(&entry.path)?;
                    report.pruned += 1;
                }
            }
        }
        Ok(report)
    }

    /// Size-bounded garbage collection (`svwsim cache gc --max-bytes N`):
    /// removes abandoned tmp files, then evicts committed entries least-
    /// recently-used first (file access time, falling back to mtime) until
    /// the store fits in `max_bytes`.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        let mut entries: Vec<FileInfo> = Vec::new();
        for dir in fanout_dirs(&self.root)? {
            for entry in walk_files(&dir)? {
                if is_tmp(&entry.path) {
                    fs::remove_file(&entry.path)?;
                    report.tmp_removed += 1;
                } else if entry.path.extension().is_some_and(|e| e == ENTRY_EXT) {
                    report.entries_before += 1;
                    report.bytes_before += entry.len;
                    entries.push(entry);
                }
            }
        }
        let mut live_bytes = report.bytes_before;
        // Oldest access first; ties break on path so eviction order is stable.
        entries.sort_by(|a, b| a.used.cmp(&b.used).then_with(|| a.path.cmp(&b.path)));
        for entry in entries {
            if live_bytes <= max_bytes {
                break;
            }
            fs::remove_file(&entry.path)?;
            live_bytes -= entry.len;
            report.evicted += 1;
            report.bytes_evicted += entry.len;
        }
        Ok(report)
    }
}

/// One candidate file in the store, with the metadata GC sorts on.
struct FileInfo {
    path: PathBuf,
    len: u64,
    used: SystemTime,
}

fn is_tmp(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.contains(".tmp."))
}

/// The store's first-level fanout directories (other stray files are ignored).
fn fanout_dirs(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs = Vec::new();
    for entry in fs::read_dir(root)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            dirs.push(entry.path());
        }
    }
    dirs.sort();
    Ok(dirs)
}

fn walk_files(dir: &Path) -> io::Result<Vec<FileInfo>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if !meta.is_file() {
            continue;
        }
        let used = meta
            .accessed()
            .or_else(|_| meta.modified())
            .unwrap_or(SystemTime::UNIX_EPOCH);
        files.push(FileInfo {
            path: entry.path(),
            len: meta.len(),
            used,
        });
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// Opens the entry file at `path` and hands its text to `read`: `None` when
/// the file cannot be opened or read or is not UTF-8. An entry that fits
/// [`ENTRY_READ_BYTES`] costs one `open` and one `read`. A regular file
/// returns fewer bytes than asked only at its end, so a short read is the
/// whole file; were one ever cut short, the cut entry would fail its framing
/// or checksum and be a miss. A file that fills the buffer is read to its end.
fn read_entry_file<T>(path: &Path, read: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    let mut file = fs::File::open(path).ok()?;
    let mut buf = [0u8; ENTRY_READ_BYTES];
    let len = loop {
        match file.read(&mut buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            result => break result.ok()?,
        }
    };
    if len < buf.len() {
        return read(std::str::from_utf8(&buf[..len]).ok()?);
    }
    let mut whole = buf.to_vec();
    file.read_to_end(&mut whole).ok()?;
    read(std::str::from_utf8(&whole).ok()?)
}

/// Parses and fully validates one entry file against the requested key.
/// Every failure mode — unreadable, torn (no trailing newline), bad magic, bad
/// checksum, unparsable line, failed-status line, key mismatch — is a silent
/// miss.
fn read_entry(path: &Path, key: SimKey) -> Option<CpuStats> {
    read_entry_file(path, |content| {
        match parse_cell_line(validate_entry(content)?) {
            Some((stored_id, Ok(stats))) if stored_id.sim_key() == key => Some(stats),
            _ => None,
        }
    })
}

/// Structural validation shared by lookup and verify: returns the payload line
/// when the envelope (magic, checksum, framing) is intact.
fn validate_entry(content: &str) -> Option<&str> {
    let (header, rest) = content.split_once('\n')?;
    let payload = rest.strip_suffix('\n')?;
    if payload.contains('\n') {
        return None;
    }
    let (magic, checksum) = header.split_once(' ')?;
    if magic != ENTRY_MAGIC {
        return None;
    }
    let checksum = u64::from_str_radix(checksum, 16).ok()?;
    if checksum != fnv1a(payload.as_bytes()) {
        return None;
    }
    Some(payload)
}

/// Full validation of one entry file on disk: envelope intact, line parses to
/// a successful cell, and the file sits at the key's content address.
fn entry_is_valid(path: &Path) -> bool {
    let stored_id = read_entry_file(path, |content| {
        match parse_cell_line(validate_entry(content)?) {
            Some((id, Ok(_))) => Some(id),
            _ => None,
        }
    });
    let Some(id) = stored_id else {
        return false;
    };
    let expected = format!("{:016x}.{ENTRY_EXT}", ResultCache::cache_key(&id));
    path.file_name()
        .is_some_and(|n| n.to_str() == Some(expected.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use svw_cpu::MachineConfig;

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("svw-result-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_id(seed: u64) -> CellId {
        CellId {
            matrix: "fig5".into(),
            workload: "gzip".into(),
            config: "+SVW+UPD".into(),
            seed,
            trace_len: 3_000,
            fingerprint: 0xfeed_f00d,
            config_fingerprint: 0x5151_5151,
            model_version: 1,
            spec_fingerprint: 0xabcd,
        }
    }

    fn sample_stats(tag: u64) -> CpuStats {
        CpuStats {
            cycles: 1_000 + tag,
            committed: 900,
            ..CpuStats::default()
        }
    }

    #[test]
    fn store_then_lookup_round_trips_losslessly() {
        let dir = test_dir("roundtrip");
        let cache = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        let id = sample_id(1);
        let stats = sample_stats(7);
        assert!(cache.lookup(&id).is_none(), "cold store misses");
        assert!(cache.store(&id, &stats).unwrap(), "the first store writes");
        assert!(
            !cache.store(&id, &stats).unwrap(),
            "an indexed key is not written again"
        );
        let hit = cache.lookup(&id).expect("stored entry hits");
        assert_eq!(
            format!("{hit:?}"),
            format!("{stats:?}"),
            "lossless round-trip"
        );
        // A second instance (fresh in-process index) reads it from disk.
        let other = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        assert!(other.lookup(&id).is_some(), "visible across instances");
        assert_eq!(cache.stats().unwrap().entries, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lineage_and_identity_differences_always_miss() {
        let dir = test_dir("lineage");
        let cache = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        let preset = crate::presets::config_by_name("nlq-svw").unwrap();
        let id = CellId {
            config_fingerprint: preset.fingerprint(),
            ..sample_id(1)
        };
        cache.store(&id, &sample_stats(0)).unwrap();
        let mut model_bump = id.clone();
        model_bump.model_version = 2;
        let mut workload_drift = id.clone();
        workload_drift.fingerprint ^= 1;
        // The preset keeps its name, but the machine it names has changed.
        let mut stale_preset = id.clone();
        stale_preset.config_fingerprint = MachineConfig {
            rob_size: 64,
            ..preset
        }
        .fingerprint();
        for miss in [&model_bump, &workload_drift, &stale_preset] {
            let fresh = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
            assert!(fresh.lookup(miss).is_none(), "{miss:?} must miss on disk");
            assert!(
                cache.lookup(miss).is_none(),
                "{miss:?} must miss in-process"
            );
        }
        // Names and the spec are not the machine: the same simulation under
        // another matrix, configuration name or spec hits.
        let mut spec_drift = id.clone();
        spec_drift.spec_fingerprint ^= 1;
        let mut renamed = id.clone();
        renamed.matrix = "summary/NLQ".into();
        renamed.config = "NLQ spec-SSBF".into();
        for hit in [&spec_drift, &renamed] {
            let fresh = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
            assert!(fresh.lookup(hit).is_some(), "{hit:?} must hit on disk");
            assert!(cache.lookup(hit).is_some(), "{hit:?} must hit in-process");
        }
        assert!(cache.lookup(&id).is_some(), "the original still hits");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_of_the_previous_format_miss_and_verify_prunes_them() {
        let dir = test_dir("svwr1");
        let cache = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        let id = sample_id(1);
        cache.store(&id, &sample_stats(0)).unwrap();
        // Rewrite the entry in place under the old magic, checksum intact.
        let path = cache.entry_path(ResultCache::cache_key(&id));
        let content = fs::read_to_string(&path).unwrap();
        let (header, payload) = content.split_once('\n').unwrap();
        let old = header.replacen(ENTRY_MAGIC, "svwr1", 1);
        fs::write(&path, format!("{old}\n{payload}")).unwrap();

        let fresh = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        assert!(fresh.lookup(&id).is_none(), "an svwr1 entry is a miss");
        let report = fresh.verify().unwrap();
        assert_eq!((report.checked, report.pruned), (1, 1), "{report:?}");
        assert!(!path.exists(), "verify removed the svwr1 entry");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_corrupt_entries_are_misses_and_verify_prunes_them() {
        let dir = test_dir("torn");
        let cache = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        let (good, torn, corrupt) = (sample_id(1), sample_id(2), sample_id(3));
        cache.store(&good, &sample_stats(0)).unwrap();
        // A torn entry: a writer died after the header, mid-payload.
        let torn_path = cache.entry_path(ResultCache::cache_key(&torn));
        fs::create_dir_all(torn_path.parent().unwrap()).unwrap();
        fs::write(&torn_path, "svwr2 0123456789abcdef\n{\"matrix\":\"fi").unwrap();
        // A corrupt entry: intact framing, flipped payload byte.
        cache.store(&corrupt, &sample_stats(0)).unwrap();
        let corrupt_path = cache.entry_path(ResultCache::cache_key(&corrupt));
        let mut bytes = fs::read(&corrupt_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        fs::write(&corrupt_path, &bytes).unwrap();
        // And an abandoned tmp file next to them.
        fs::write(torn_path.with_extension("svwr.tmp.999"), "partial").unwrap();

        let fresh = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        assert!(fresh.lookup(&torn).is_none(), "torn entry is a miss");
        assert!(fresh.lookup(&corrupt).is_none(), "corrupt entry is a miss");
        assert!(fresh.lookup(&good).is_some(), "good entry still hits");

        let report = fresh.verify().unwrap();
        assert_eq!(report.checked, 3);
        assert_eq!(report.valid, 1);
        assert_eq!(report.corrupt, 2);
        assert_eq!(report.pruned, 2);
        assert_eq!(report.tmp_removed, 1);
        // The store is clean now.
        let again = fresh.verify().unwrap();
        assert_eq!((again.checked, again.corrupt, again.tmp_removed), (1, 0, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_bounds_the_store_and_clears_tmp_leftovers() {
        let dir = test_dir("gc");
        let cache = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        for seed in 0..8 {
            cache.store(&sample_id(seed), &sample_stats(seed)).unwrap();
        }
        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 8);
        let entry_bytes = stats.bytes / 8;
        fs::write(dir.join("00"), "").ok(); // ignored stray (not a dir)
        let tmp = cache
            .entry_path(ResultCache::cache_key(&sample_id(0)))
            .with_extension("svwr.tmp.1234");
        fs::write(&tmp, "abandoned").unwrap();

        let cap = entry_bytes * 3;
        let report = cache.gc(cap).unwrap();
        assert_eq!(report.entries_before, 8);
        assert_eq!(report.tmp_removed, 1);
        assert!(report.evicted >= 5, "evicts below the cap: {report:?}");
        assert!(report.bytes_before - report.bytes_evicted <= cap);
        let after = cache.stats().unwrap();
        assert_eq!(after.entries, 8 - report.evicted);
        assert_eq!(after.tmp_leftovers, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_never_writes_and_write_only_never_serves() {
        let dir = test_dir("modes");
        let ro = ResultCache::open(&dir, CacheMode::ReadOnly).unwrap();
        let id = sample_id(1);
        assert!(
            !ro.store(&id, &sample_stats(0)).unwrap(),
            "read-only writes nothing"
        );
        assert_eq!(ro.stats().unwrap().entries, 0, "read-only stored nothing");

        let wo = ResultCache::open(&dir, CacheMode::WriteOnly).unwrap();
        assert!(wo.store(&id, &sample_stats(0)).unwrap());
        assert_eq!(wo.stats().unwrap().entries, 1);
        assert!(wo.lookup(&id).is_none(), "write-only never serves");
        assert!(
            ResultCache::open(&dir, CacheMode::ReadOnly)
                .unwrap()
                .lookup(&id)
                .is_some(),
            "but the entry is there for readers"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_share_one_directory_safely() {
        let dir = test_dir("concurrent");
        fs::create_dir_all(&dir).unwrap();
        std::thread::scope(|scope| {
            for writer in 0..4 {
                let dir = &dir;
                scope.spawn(move || {
                    let cache = ResultCache::open(dir, CacheMode::ReadWrite).unwrap();
                    // Overlapping key ranges: every entry is written by at
                    // least two threads, racing tmp+rename on the same path.
                    for seed in 0..32 {
                        let id = sample_id(seed + (writer % 2) * 16);
                        cache.store(&id, &sample_stats(id.seed)).unwrap();
                        assert!(cache.lookup(&id).is_some());
                    }
                });
            }
        });
        let cache = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        let report = cache.verify().unwrap();
        assert_eq!(report.corrupt, 0, "no torn entries after racing writers");
        assert_eq!(report.valid, 48, "all 48 distinct ids committed");
        for seed in 0..48 {
            assert!(cache.lookup(&sample_id(seed)).is_some(), "seed {seed} hits");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every truncation and every single-byte replacement of a real entry is
    /// a miss or the stored cell, never a panic. The damaged line reads as the
    /// reference parsers read it for every truncation, and at every position
    /// for one byte of each class the grammar tells apart (checking all 256
    /// there would take minutes in a debug build).
    #[test]
    fn damaged_entries_miss_and_parse_as_the_reference_does() {
        const CLASSES: &[u8] = b"\"\\{}[,: \t\n\r\x0b\x0c019-+.eEaflnrstuAFx/_\x00\x1f\x7f\x80\xff";
        let dir = test_dir("damaged");
        let cache = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        let id = sample_id(1);
        let stats = sample_stats(3);
        cache.store(&id, &stats).unwrap();
        let entry = fs::read(cache.entry_path(ResultCache::cache_key(&id))).unwrap();
        let _ = fs::remove_dir_all(&dir);
        let payload_start = entry.iter().position(|&b| b == b'\n').unwrap() + 1;

        let lookup = |bytes: &[u8]| {
            let hit = std::str::from_utf8(bytes)
                .ok()
                .and_then(validate_entry)
                .and_then(parse_cell_line);
            if let Some((stored_id, result)) = hit {
                assert_eq!(stored_id, id);
                assert_eq!(
                    format!("{result:?}"),
                    format!("{:?}", Ok::<_, String>(&stats))
                );
            }
        };
        let agree = |bytes: &[u8]| {
            let line = String::from_utf8_lossy(&bytes[payload_start.min(bytes.len())..]);
            let line = line.strip_suffix('\n').unwrap_or(&line);
            if let Some(why) = crate::jsonl::reference::disagreement(line) {
                panic!("{why}");
            }
        };
        for len in 0..=entry.len() {
            lookup(&entry[..len]);
            agree(&entry[..len]);
        }
        let mut damaged = entry.clone();
        for pos in 0..entry.len() {
            for byte in 0..=u8::MAX {
                damaged[pos] = byte;
                lookup(&damaged);
                if CLASSES.contains(&byte) {
                    agree(&damaged);
                }
            }
            damaged[pos] = entry[pos];
        }
    }
}
