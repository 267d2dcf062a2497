//! The on-disk trace cache.

use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use svw_isa::Program;
use svw_workloads::WorkloadProfile;

use crate::{write_program, TraceError, TraceReader, FILE_EXTENSION};

/// Whether a cache request was served from disk or had to generate (and capture) the
/// trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The trace was read back from a previously captured file.
    Hit,
    /// The trace was generated and a new file was captured.
    Miss,
}

impl CacheOutcome {
    /// Returns `true` for [`CacheOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        self == CacheOutcome::Hit
    }
}

/// Timing and volume measurements for one trace acquisition.
///
/// Filled in by [`TraceCache::get_or_generate_metered`]; a generation (miss) reports
/// only `generate`. Durations not applicable to the path taken stay zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchMeter {
    /// Bytes read from disk (the `.svwt` file); 0 when generated.
    pub bytes_read: u64,
    /// Time spent decoding the on-disk representation into a [`Program`].
    pub decode: std::time::Duration,
    /// Time spent generating the trace from its workload profile (miss path).
    pub generate: std::time::Duration,
}

/// A directory of `.svwt` files keyed by `(profile fingerprint, trace length, seed)`.
///
/// The key lives in the file name, so lookups are a single `open`; the profile
/// fingerprint covers every behavioural knob, so editing a profile in source
/// automatically misses (and re-captures) rather than replaying a stale trace. Files
/// are written to a unique temporary name and atomically renamed into place, which
/// makes concurrent populations (e.g. the parallel experiment runner, or two
/// processes) safe: the worst case is the same trace being generated twice.
///
/// A corrupt or mismatching cache entry is treated as a miss and silently
/// re-captured — the cache is a pure performance artifact and never changes results.
#[derive(Clone, Debug)]
pub struct TraceCache {
    dir: PathBuf,
}

/// Distinguishes temporary files created by concurrent captures within one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl TraceCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(TraceCache { dir })
    }

    /// The default cache location: `$SVW_TRACE_CACHE` if set, else
    /// `$HOME/.cache/svw/traces`, else a directory under the system temp dir.
    pub fn default_dir() -> PathBuf {
        if let Some(d) = std::env::var_os("SVW_TRACE_CACHE") {
            return d.into();
        }
        if let Some(h) = std::env::var_os("HOME") {
            return Path::new(&h).join(".cache").join("svw").join("traces");
        }
        std::env::temp_dir().join("svw-traces")
    }

    /// Opens the default cache (see [`TraceCache::default_dir`]).
    pub fn open_default() -> std::io::Result<Self> {
        Self::new(Self::default_dir())
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a given `(profile, trace_len, seed)` key maps to.
    pub fn path_for(&self, profile: &WorkloadProfile, trace_len: usize, seed: u64) -> PathBuf {
        self.dir.join(format!(
            "{}-l{trace_len}-s{seed}-{:016x}.{FILE_EXTENSION}",
            profile.name,
            profile.fingerprint()
        ))
    }

    /// Returns the cached trace for the key, generating and capturing it on a miss,
    /// with a [`FetchMeter`] describing how long the decode (hit) or generation
    /// (miss) took and how many bytes were read. The returned program is identical
    /// to `profile.generate(trace_len, seed)` either way.
    pub fn get_or_generate_metered(
        &self,
        profile: &WorkloadProfile,
        trace_len: usize,
        seed: u64,
    ) -> Result<(Program, CacheOutcome, FetchMeter), TraceError> {
        let path = self.path_for(profile, trace_len, seed);
        let decode_start = std::time::Instant::now();
        if let Some(program) = self.try_read(&path, profile, trace_len, seed) {
            let meter = FetchMeter {
                bytes_read: fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
                decode: decode_start.elapsed(),
                generate: std::time::Duration::ZERO,
            };
            return Ok((program, CacheOutcome::Hit, meter));
        }
        let (program, generate) = profile.generate_timed(trace_len, seed);
        self.capture(&path, &program, trace_len, seed, profile.fingerprint())?;
        let meter = FetchMeter {
            bytes_read: 0,
            decode: std::time::Duration::ZERO,
            generate,
        };
        Ok((program, CacheOutcome::Miss, meter))
    }

    fn try_read(
        &self,
        path: &Path,
        profile: &WorkloadProfile,
        trace_len: usize,
        seed: u64,
    ) -> Option<Program> {
        let reader = TraceReader::open(path).ok()?;
        let h = reader.header();
        if h.fingerprint != profile.fingerprint()
            || h.seed != seed
            || h.requested_len != trace_len as u64
        {
            return None;
        }
        reader.read_program().ok()
    }

    fn capture(
        &self,
        path: &Path,
        program: &Program,
        trace_len: usize,
        seed: u64,
        fingerprint: u64,
    ) -> Result<(), TraceError> {
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let file = BufWriter::new(fs::File::create(&tmp)?);
        let result = write_program(file, program, trace_len, seed, fingerprint);
        match result {
            Ok(()) => {
                fs::rename(&tmp, path)?;
                Ok(())
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e.into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(
        cache: &TraceCache,
        profile: &WorkloadProfile,
        len: usize,
        seed: u64,
    ) -> (Program, CacheOutcome) {
        let (program, outcome, _) = cache.get_or_generate_metered(profile, len, seed).unwrap();
        (program, outcome)
    }

    fn temp_cache(tag: &str) -> TraceCache {
        let dir =
            std::env::temp_dir().join(format!("svw-trace-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TraceCache::new(dir).unwrap()
    }

    #[test]
    fn miss_then_hit_returns_identical_programs() {
        let cache = temp_cache("hit");
        let profile = WorkloadProfile::quicktest();
        let (a, out_a) = get(&cache, &profile, 1_200, 5);
        assert_eq!(out_a, CacheOutcome::Miss);
        let (b, out_b) = get(&cache, &profile, 1_200, 5);
        assert_eq!(out_b, CacheOutcome::Hit);
        assert_eq!(a.instructions(), b.instructions());
        assert_eq!(a.instructions(), profile.generate(1_200, 5).instructions());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn distinct_keys_get_distinct_files() {
        let cache = temp_cache("keys");
        let p = WorkloadProfile::quicktest();
        let a = cache.path_for(&p, 1000, 1);
        let b = cache.path_for(&p, 1000, 2);
        let c = cache.path_for(&p, 2000, 1);
        let mut q = p.clone();
        q.chase_frac += 0.01;
        let d = cache.path_for(&q, 1000, 1);
        let all = [&a, &b, &c, &d];
        for (i, x) in all.iter().enumerate() {
            for y in &all[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn profile_edit_invalidates_the_entry() {
        let cache = temp_cache("invalidate");
        let p = WorkloadProfile::quicktest();
        let (_, first) = get(&cache, &p, 900, 2);
        assert_eq!(first, CacheOutcome::Miss);
        let mut edited = p.clone();
        edited.redundancy_frac += 0.05;
        let (_, second) = get(&cache, &edited, 900, 2);
        assert_eq!(
            second,
            CacheOutcome::Miss,
            "different fingerprint, different file"
        );
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entry_is_recaptured() {
        let cache = temp_cache("corrupt");
        let p = WorkloadProfile::quicktest();
        let (_, _) = get(&cache, &p, 800, 3);
        let path = cache.path_for(&p, 800, 3);
        let mut bytes = fs::read(&path).unwrap();
        let idx = bytes.len() - 12;
        bytes[idx] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (program, outcome) = get(&cache, &p, 800, 3);
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(program.instructions(), p.generate(800, 3).instructions());
        // And the entry is healthy again.
        let (_, again) = get(&cache, &p, 800, 3);
        assert_eq!(again, CacheOutcome::Hit);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_file_whose_header_names_another_key_is_regenerated() {
        let cache = temp_cache("header-key");
        let p = WorkloadProfile::quicktest();
        let path = cache.path_for(&p, 700, 4);
        // Valid traces whose header names another seed, length or fingerprint,
        // each filed under the key (700, 4).
        for (len, seed, fingerprint) in [
            (700, 5, p.fingerprint()),
            (701, 4, p.fingerprint()),
            (700, 4, !p.fingerprint()),
        ] {
            let file = BufWriter::new(fs::File::create(&path).unwrap());
            write_program(file, &p.generate(len, seed), len, seed, fingerprint).unwrap();
            let (program, outcome) = get(&cache, &p, 700, 4);
            assert_eq!(
                outcome,
                CacheOutcome::Miss,
                "header ({len}, {seed}, {fingerprint:x})"
            );
            assert_eq!(program.instructions(), p.generate(700, 4).instructions());
            assert_eq!(
                get(&cache, &p, 700, 4).1,
                CacheOutcome::Hit,
                "regenerated in place"
            );
        }
        // An entry of format version 1 misses too.
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(get(&cache, &p, 700, 4).1, CacheOutcome::Miss);
        assert_eq!(get(&cache, &p, 700, 4).1, CacheOutcome::Hit);
        let _ = fs::remove_dir_all(cache.dir());
    }
}
