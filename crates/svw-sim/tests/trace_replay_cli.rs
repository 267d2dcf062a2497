//! `svwsim run --trace`: a captured `.svwt` file is decoded in full and replayed
//! on the same `Cpu` path as every other cell — so it prints exactly what
//! `run --workload` prints for the captured `(workload, trace length, seed)`,
//! runs under the differential oracle, and rejects a damaged file with a clean
//! `error:` (exit 2) before simulating anything.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SVWSIM: &str = env!("CARGO_BIN_EXE_svwsim");

fn svwsim(args: &[&str]) -> Output {
    Command::new(SVWSIM)
        .args(args)
        .output()
        .expect("svwsim runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Captures `gzip` at 3000 instructions, seed 4, into a fresh directory.
fn capture(tag: &str) -> (PathBuf, PathBuf) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("trace-replay-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("gzip.svwt");
    let out = svwsim(&[
        "capture",
        "--workload",
        "gzip",
        "--trace-len",
        "3000",
        "--seed",
        "4",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "capture failed: {}", stderr(&out));
    (dir, trace)
}

#[test]
fn trace_replay_json_is_byte_identical_to_the_workload_run() {
    let (dir, trace) = capture("json");
    let replay = svwsim(&[
        "run",
        "--trace",
        trace.to_str().unwrap(),
        "--config",
        "ssq-svw",
        "--json",
    ]);
    assert!(replay.status.success(), "{}", stderr(&replay));
    let direct = svwsim(&[
        "run",
        "--workload",
        "gzip",
        "--trace-len",
        "3000",
        "--seed",
        "4",
        "--config",
        "ssq-svw",
        "--no-cache",
        "--json",
    ]);
    assert!(direct.status.success(), "{}", stderr(&direct));
    assert!(!replay.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&replay.stdout),
        String::from_utf8_lossy(&direct.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_replay_runs_under_the_oracle_and_fails_on_a_divergence() {
    let (dir, trace) = capture("oracle");
    let path = trace.to_str().unwrap();
    let clean = svwsim(&["run", "--trace", path, "--oracle"]);
    assert!(clean.status.success(), "{}", stderr(&clean));

    // Negative control: a fault injected into the checker's view of one load
    // must fail the replay and name the first divergent instruction.
    let fault = svwsim(&["run", "--trace", path, "--oracle", "--inject-fault", "3"]);
    assert!(
        !fault.status.success(),
        "the oracle missed an injected fault"
    );
    let err = stderr(&fault);
    assert!(err.starts_with("error: "), "{err}");
    assert!(err.contains("first divergent instruction seq"), "{err}");
    assert!(
        fault.stdout.is_empty(),
        "no report is printed for a failed replay"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_traces_fail_with_a_clean_error_before_simulating() {
    let (dir, trace) = capture("corrupt");
    let bytes = std::fs::read(&trace).unwrap();

    // A flipped byte partway through the records: the header still opens, so
    // the damage is found while decoding, before any cycle is simulated.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x5A;
    // A hostile record count (2^50) must be a decode error, not an aborted
    // allocation (exit 134).
    let mut hostile = bytes;
    hostile[32..40].copy_from_slice(&(1u64 << 50).to_le_bytes());

    for (name, image) in [("flipped.svwt", flipped), ("hostile.svwt", hostile)] {
        let path = dir.join(name);
        std::fs::write(&path, image).unwrap();
        let path = path.to_str().unwrap();
        let out = svwsim(&["run", "--trace", path, "--json"]);
        assert_eq!(out.status.code(), Some(2), "{name}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(
            err.starts_with(&format!("error: cannot read {path}: ")),
            "{name}: {err}"
        );
        assert!(out.stdout.is_empty(), "{name}: nothing is simulated");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bytes_after_the_trailer_are_rejected_by_inspect_and_replay() {
    let (dir, trace) = capture("trailing");
    let mut bytes = std::fs::read(&trace).unwrap();
    bytes.extend_from_slice(b"GARBAGE");
    let path = dir.join("trailing.svwt");
    std::fs::write(&path, bytes).unwrap();
    let path = path.to_str().unwrap();
    for args in [
        vec!["inspect", path],
        vec!["run", "--trace", path, "--json"],
    ] {
        let out = svwsim(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(
            err.contains("7 trailing bytes after the trailer"),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing is printed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
