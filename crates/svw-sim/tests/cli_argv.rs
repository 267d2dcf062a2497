//! `svwsim` argv end to end, through the real binary.
//!
//! - The binary's stdout equals the golden render corpus byte for byte (the
//!   corpus test, `golden_renders.rs`, checks only the library path).
//! - Every invocation shape the CI workflow and the benchmark harness use is
//!   accepted and exits 0.
//! - Malformed argv is an `error: …` with exit 2 — never a run with defaults.
//!
//! Every invocation runs with `$SVW_RESULT_CACHE` removed, its own trace cache,
//! and a per-test working directory, so relative file names stay inside it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SVWSIM: &str = env!("CARGO_BIN_EXE_svwsim");

/// A fresh working directory for one test.
fn workdir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-argv-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn command(dir: &Path) -> Command {
    let mut cmd = Command::new(SVWSIM);
    cmd.current_dir(dir)
        .env_remove("SVW_RESULT_CACHE")
        .env("SVW_TRACE_CACHE", dir.join("traces"));
    cmd
}

/// Runs `svwsim` with `line` split on spaces.
fn svwsim(dir: &Path, line: &str) -> Output {
    command(dir)
        .args(line.split(' '))
        .output()
        .expect("svwsim runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_ok(dir: &Path, line: &str) -> Output {
    let out = svwsim(dir, line);
    assert!(
        out.status.success(),
        "`svwsim {line}` exited {:?}: {}",
        out.status.code(),
        stderr(&out)
    );
    out
}

fn assert_rejected(dir: &Path, line: &str) -> String {
    let out = svwsim(dir, line);
    let err = stderr(&out);
    assert_eq!(
        out.status.code(),
        Some(2),
        "`svwsim {line}` must exit 2: {err}"
    );
    assert!(err.starts_with("error: "), "`svwsim {line}` stderr: {err}");
    assert!(out.stdout.is_empty(), "`svwsim {line}` printed a report");
    err
}

fn corpus(files: &[&str]) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/renders");
    files
        .iter()
        .map(|f| std::fs::read_to_string(dir.join(f)).unwrap())
        .collect()
}

#[test]
fn stdout_equals_the_golden_render_corpus() {
    let dir = workdir("corpus");
    for (line, files) in [
        (
            "sweep --figure fig5 --trace-len 2000 --seeds 2",
            &["fig5.v1.txt"][..],
        ),
        (
            "sweep --figure fig5 --trace-len 2000 --seeds 2 --json",
            &["fig5.v1.json"],
        ),
        (
            "sweep --figure fig5 --trace-len 2000 --seeds 2 --model-version 2",
            &["fig5.v2.txt"],
        ),
        ("fig5 2000 1 --seeds 2", &["fig5.v1.txt"]),
        (
            "tables --trace-len 2000 --seeds 2",
            &["ssn-width.v1.txt", "spec-ssbf.v1.txt", "summary.v1.txt"],
        ),
    ] {
        let out = assert_ok(&dir, line);
        assert!(
            String::from_utf8_lossy(&out.stdout) == corpus(files),
            "`svwsim {line}` differs from {files:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives the distributed-adaptive protocol to convergence: coordinate until
/// it exits 0, draining each requeue plan over two shards.
fn coordinate_to_convergence(dir: &Path, args: &str) {
    for _ in 0..20 {
        let out = svwsim(
            dir,
            &format!(
                "coordinate cs0.jsonl cs1.jsonl {args} \
                 --plan-out round.plan.jsonl --out cmerged.jsonl"
            ),
        );
        match out.status.code() {
            Some(0) => return,
            Some(3) => {
                for i in 0..2 {
                    assert_ok(
                        dir,
                        &format!("sweep --plan round.plan.jsonl --shard {i}/2 --out cs{i}.jsonl"),
                    );
                }
            }
            code => panic!("coordinate exited {code:?}: {}", stderr(&out)),
        }
    }
    panic!("coordinate did not converge");
}

#[test]
fn every_ci_and_benchmark_invocation_shape_is_accepted() {
    let dir = workdir("accepted");
    let d = dir.as_path();
    const N: &str = "--trace-len 400";
    // CI: cold + warm trace cache; multi-seed JSONL stream and resume.
    assert_ok(d, &format!("sweep --figure fig8 {N} --verbose"));
    assert_ok(
        d,
        &format!("sweep --figure fig8 {N} --seeds 2 --out r.jsonl"),
    );
    // CI: sharded sweep, merge, re-render from the merged file.
    for i in 0..3 {
        assert_ok(
            d,
            &format!("sweep --figure fig8 {N} --shard {i}/3 --out shard{i}.jsonl"),
        );
    }
    assert_ok(
        d,
        &format!(
            "merge shard0.jsonl shard1.jsonl shard2.jsonl --figure fig8 {N} --out merged.jsonl"
        ),
    );
    assert_ok(d, &format!("sweep --figure fig8 {N} --out merged.jsonl"));
    assert_ok(
        d,
        &format!("sweep --figure fig8 {N} --out merged.jsonl --json"),
    );
    // CI: adaptive sampling and the coordinated equivalent.
    let adaptive = format!("--figure fig8 {N} --ci-target 25 --min-seeds 2 --max-seeds 4");
    assert_ok(d, &format!("sweep {adaptive} --stats"));
    coordinate_to_convergence(d, &adaptive);
    assert_ok(d, &format!("sweep {adaptive} --out cmerged.jsonl"));
    assert_ok(d, &format!("sweep {adaptive} --out cmerged.jsonl --json"));
    // CI: observability.
    assert_ok(
        d,
        &format!(
            "sweep --figure fig8 {N} --seeds 2 --events ev.jsonl --metrics-out m.prom \
             --progress --stats-json st.json"
        ),
    );
    assert_ok(
        d,
        &format!(
            "sweep --figure fig8 {N} --seeds 2 --events ev2.jsonl --metrics-out m2.prom --json"
        ),
    );
    assert_ok(d, "profile ev.jsonl --top 3");
    assert_ok(d, "profile ev.jsonl --json");
    // CI: the experiment registry.
    assert_ok(d, "experiments validate");
    assert_ok(d, "experiments list");
    let shown = assert_ok(d, "experiments show fig8");
    std::fs::write(dir.join("pinned.toml"), &shown.stdout).unwrap();
    assert_ok(d, &format!("sweep --spec builtin:fig8 {N}"));
    assert_ok(d, &format!("sweep --spec builtin:fig8 {N} --json"));
    assert_ok(d, &format!("sweep --spec pinned.toml {N}"));
    assert_ok(
        d,
        &format!("sweep --figure fig8 {N} --model-version 2 --out v2.jsonl"),
    );
    // CI: the differential oracle, and trace capture and replay.
    assert_ok(d, &format!("sweep --figure fig8 {N} --oracle"));
    assert_ok(
        d,
        &format!("sweep --figure fig8 {N} --oracle --model-version 2"),
    );
    assert_ok(d, &format!("sweep --figure adversarial-ssbf {N} --oracle"));
    assert_ok(
        d,
        &format!("capture --workload vortex {N} --seed 5 --out replay.svwt"),
    );
    assert_ok(d, "run --trace replay.svwt --config ssq-svw --oracle");
    assert_ok(d, "run --trace replay.svwt --config ssq-svw --json");
    assert_ok(
        d,
        &format!("run --workload vortex {N} --seed 5 --config ssq-svw --no-cache --json"),
    );
    // The oracle's negative control parses and fails on the divergence only.
    let fault = svwsim(
        d,
        &format!("run --workload gzip {N} --oracle --inject-fault 3"),
    );
    assert!(
        !fault.status.success(),
        "the oracle missed an injected fault"
    );
    assert!(stderr(&fault).contains("first divergent instruction seq"));
    // CI: the result cache and its management commands.
    assert_ok(d, &format!("sweep --figure fig8 {N} --result-cache rcache"));
    assert_ok(
        d,
        &format!("sweep --figure fig8 {N} --result-cache rcache --json"),
    );
    let off = command(d)
        .env("SVW_RESULT_CACHE", "rcache")
        .args([
            "sweep",
            "--figure",
            "fig8",
            "--trace-len",
            "400",
            "--no-result-cache",
        ])
        .output()
        .unwrap();
    assert!(off.status.success(), "{}", stderr(&off));
    assert_ok(d, "cache stats --result-cache rcache");
    assert_ok(d, "cache verify --result-cache rcache");
    assert_ok(d, "cache gc --result-cache rcache --max-bytes 4096");
    // The benchmark harness: sweep (--figure A | --spec F) --trace-len N --seed S
    // --jobs 1 (--result-cache D | --no-result-cache) [--oracle] [--json] [--out F].
    for source in ["--figure fig8", "--spec pinned.toml"] {
        let base = format!("sweep {source} {N} --seed 3 --jobs 1");
        assert_ok(d, &format!("{base} --no-result-cache"));
        assert_ok(d, &format!("{base} --result-cache pb-rc --json"));
        assert_ok(
            d,
            &format!("{base} --result-cache pb-rc --oracle --out pb.jsonl"),
        );
        assert_ok(
            d,
            &format!("{base} --no-result-cache --oracle --json --out pb2.jsonl"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_argv_is_an_error_with_exit_2() {
    let dir = workdir("rejected");
    let d = dir.as_path();
    assert_ok(d, "capture --workload gcc --trace-len 400 --out g.svwt");
    for line in [
        "bogus-command",
        // Figure shortcuts and their positional [trace_len] [seed].
        "fig5 abc",
        "fig5 0",
        "fig5 -3",
        "fig5 2000 xyz",
        "fig5 2000 1 extra",
        "tables extra",
        // Values and value syntax.
        "sweep --figure fig8 --trace-len 0",
        "sweep --figure fig8 --trace-len abc",
        "sweep --figure fig8 --seeds 0",
        "sweep --figure fig8 --jobs garbage",
        "sweep --figure fig8 --out",
        "sweep --figure fig8 --model-version 0",
        "sweep --figure fig8 --model-version 3",
        "sweep --figure fig8 --ci-target 0",
        "sweep --figure fig8 --shard 3/2",
        "sweep --figure fig8 --result-cache rc --result-cache-mode bogus",
        // Unknown names and modes.
        "sweep --figure nosuch --trace-len 400",
        "sweep --figure fig8 --bogus",
        "sweep",
        "sweep --figure fig8 --spec builtin:fig8",
        // Cross-flag rules.
        "sweep --figure fig8 --inject-fault 3",
        "sweep --figure fig8 --min-seeds 2",
        "sweep --figure fig8 --seeds 2 --ci-target 5",
        "sweep --figure fig8 --ci-target 5 --shard 0/2",
        "sweep --figure fig8 --result-cache-mode rw",
        // Plan mode.
        "sweep --plan p.plan.jsonl --seeds 2 --out x.jsonl",
        "sweep --plan p.plan.jsonl --json --out x.jsonl",
        "sweep --plan p.plan.jsonl --ci-target 5 --out x.jsonl",
        "sweep --plan p.plan.jsonl --model-version 2 --out x.jsonl",
        "sweep --plan p.plan.jsonl",
        "sweep --plan missing.plan.jsonl --out x.jsonl",
        // run.
        "run",
        "run --workload nosuch",
        "run --workload gcc --config nosuch",
        "run --workload gcc --shard 0/2",
        "run --workload gcc --ci-target 5",
        "run --workload gcc --substrate",
        "run --trace g.svwt --seeds 3",
        "run --trace g.svwt --stats",
        "run --trace g.svwt --events e.jsonl",
        "run --trace g.svwt --result-cache rc",
        "run --trace missing.svwt",
        // capture.
        "capture",
        "capture --workload nosuch --out x.svwt",
        "capture --workload all --out x.svwt",
        "capture --workload gcc",
        "capture --workload gcc --out a.svwt --out-dir b",
        "capture --workload gcc --out x.svwt --result-cache rc",
        "capture --workload gcc --out x.svwt --model-version 2",
        "capture --workload gcc --out x.svwt --events e.jsonl",
        "capture --workload gcc --out x.svwt --oracle",
        // inspect.
        "inspect",
        "inspect g.svwt g.svwt",
        "inspect missing.svwt",
        "inspect g.svwt --result-cache rc",
        "inspect g.svwt --shard 0/2",
        // merge.
        "merge s.jsonl --out m.jsonl",
        "merge s.jsonl --figure fig8",
        "merge --figure fig8 --out m.jsonl",
        "merge s.jsonl --figure fig8 --out m.jsonl --result-cache rc",
        "merge s.jsonl --figure fig8 --out m.jsonl --stats",
        // profile.
        "profile",
        "profile e.jsonl --result-cache rc",
        "profile e.jsonl --events x.jsonl",
        "profile e.jsonl --model-version 2",
        "profile e.jsonl --out x",
        "profile e.jsonl --top abc",
        "profile e.jsonl --bogus",
        // experiments.
        "experiments",
        "experiments bogus",
        "experiments show",
        "experiments show fig8 --json",
        "experiments validate --json",
        "experiments validate --bogus",
        "experiments list --out x",
        "experiments list --model-version 2",
        "experiments list --result-cache rc",
        // cache.
        "cache",
        "cache bogus --result-cache rc",
        "cache stats",
        "cache stats --result-cache rc --out x",
        "cache stats --result-cache rc --no-result-cache",
        "cache stats --result-cache rc --result-cache-mode ro",
        "cache stats --result-cache rc --max-bytes 5",
        "cache stats --result-cache rc --model-version 2",
        "cache gc --result-cache rc",
        "cache gc --result-cache rc --max-bytes abc",
    ] {
        assert_rejected(d, line);
    }
    let coordinate =
        "coordinate c0.jsonl --figure fig8 --ci-target 25 --plan-out p.jsonl --out m.jsonl";
    for extra in [
        "--shard 0/2",
        "--seeds 2",
        "--jobs 2",
        "--json",
        "--oracle",
        "--bogus",
    ] {
        assert_rejected(d, &format!("{coordinate} {extra}"));
    }
    for line in [
        "coordinate c0.jsonl --figure fig8 --plan-out p.jsonl --out m.jsonl",
        "coordinate c0.jsonl --figure tables --ci-target 25 --plan-out p.jsonl --out m.jsonl",
        "coordinate c0.jsonl --figure fig8 --ci-target 25 --out m.jsonl",
        "coordinate c0.jsonl --figure fig8 --ci-target 25 --plan-out p.jsonl",
        "coordinate --figure fig8 --ci-target 25 --plan-out p.jsonl --out m.jsonl",
    ] {
        assert_rejected(d, line);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flags_a_command_ignores_are_rejected() {
    let dir = workdir("ignored");
    let d = dir.as_path();
    assert_ok(d, "capture --workload gcc --trace-len 400 --out g.svwt");
    assert_ok(d, "sweep --figure fig8 --trace-len 400 --events e.jsonl");
    let coordinate =
        "coordinate c0.jsonl --figure fig8 --ci-target 25 --plan-out p.jsonl --out m.jsonl";
    for line in [
        "capture --workload gcc --out g2.svwt --seeds 5 --jobs 3",
        "inspect g.svwt --trace-len 7 --seeds 9 --jobs 2 --no-cache --cache-dir /nonexist --verbose",
        "run --trace g.svwt --trace-len 9 --seed 77 --jobs 2 --no-cache",
        "experiments list --trace-len 9 --seeds 4 --jobs 3",
        "profile e.jsonl --jobs 3 --seeds 3",
        "cache stats --result-cache rc --trace-len 5 --jobs 3 --verbose --no-cache",
        &format!("{coordinate} --verbose --no-cache --cache-dir /x"),
        "sweep --plan p.plan.jsonl --out x.jsonl --model-version 1",
        &format!("{coordinate} --jobs 0"),
    ] {
        let err = assert_rejected(d, line);
        assert!(err.contains(" does not apply to "), "`svwsim {line}`: {err}");
    }
    assert!(
        !dir.join("g2.svwt").exists(),
        "a rejected capture writes nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn hostile_argv_is_an_error_not_a_panic_or_an_abort() {
    use std::os::unix::ffi::OsStrExt;
    let dir = workdir("hostile");
    let d = dir.as_path();
    let out = command(d)
        .arg("inspect")
        .arg(std::ffi::OsStr::from_bytes(b"trace-\xff.svwt"))
        .output()
        .unwrap();
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "non-UTF-8 argument: {err}");
    assert!(
        err.starts_with("error: argument \"trace-\\xFF.svwt\" is not valid UTF-8"),
        "{err}"
    );
    // 2^50 instructions or seeds would abort on allocation, and 2^64 - 1
    // instructions would wrap the generator's capacity and run without bound.
    for line in [
        "capture --workload gcc --trace-len 1125899906842624 --out g.svwt",
        "sweep --figure fig8 --trace-len 18446744073709551615",
        "fig8 1125899906842624",
        "sweep --figure fig8 --seeds 1125899906842624",
        "run --workload gcc --seeds 1125899906842624",
        "sweep --figure fig8 --seed 18446744073709551615 --seeds 2",
        "sweep --figure fig8 --json --json",
    ] {
        assert_rejected(d, line);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
