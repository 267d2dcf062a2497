//! `svwsim` argv end to end, through the real binary.
//!
//! - The binary's stdout equals the golden render corpus byte for byte (the
//!   corpus test, `golden_renders.rs`, checks only the library path).
//! - Every invocation shape the CI workflow and the benchmark harness use is
//!   accepted and exits 0.
//! - Malformed argv is an `error: …` with exit 2 — never a run with defaults.
//!   So is every shape of the removed multi-process sweep path.
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

#[test]
fn every_ci_and_benchmark_invocation_shape_is_accepted() {
    let dir = workdir("accepted");
    let d = dir.as_path();
    const N: &str = "--trace-len 400";
    // CI: cold + warm trace cache; multi-seed JSONL stream, resume, and
    // re-renders from the complete file.
    assert_ok(d, &format!("sweep --figure fig8 {N} --verbose"));
    assert_ok(
        d,
        &format!("sweep --figure fig8 {N} --seeds 2 --out r.jsonl"),
    );
    assert_ok(
        d,
        &format!("sweep --figure fig8 {N} --seeds 2 --out r.jsonl --json"),
    );
    // CI: adaptive sampling, and its re-render from the complete file.
    let adaptive = format!("--figure fig8 {N} --ci-target 25 --min-seeds 2 --max-seeds 4");
    assert_ok(d, &format!("sweep {adaptive} --stats"));
    assert_ok(d, &format!("sweep {adaptive} --out a.jsonl"));
    assert_ok(d, &format!("sweep {adaptive} --out a.jsonl --json"));
    // CI: observability.
    assert_ok(
        d,
        &format!(
            "sweep --figure fig8 {N} --seeds 2 --events ev.jsonl --progress \
             --stats-json st.json"
        ),
    );
    assert_ok(
        d,
        &format!(
            "sweep --figure fig8 {N} --seeds 2 --events ev2.jsonl --stats-json st2.json --json"
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

/// The sweep counterpart of the `run` negative control: every cell of the
/// sweep fails the oracle, and the exit code and message count them.
#[test]
fn a_sweep_that_fails_the_oracle_exits_1() {
    let dir = workdir("oracle-sweep-fault");
    let out = svwsim(
        &dir,
        "sweep --figure fig8 --trace-len 400 --oracle --inject-fault 3",
    );
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("cell(s) failed verification"), "stderr: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An output file that cannot be created fails the call before any cell runs,
/// not after the whole sweep: the `--out` stream of the same call stays empty.
/// The removed `--metrics-out` is rejected just as early, as an unknown flag.
#[test]
fn an_unwritable_output_path_fails_before_any_cell_runs() {
    let dir = workdir("unwritable-output");
    for (flag, error) in [
        ("--stats-json", "cannot write --stats-json"),
        ("--metrics-out", "unknown flag --metrics-out"),
    ] {
        let line = format!("sweep --figure fig8 --trace-len 400 --out r.jsonl {flag} missing/m");
        let err = assert_rejected(&dir, &line);
        assert!(err.contains(error), "`svwsim {line}` stderr: {err}");
        let streamed = std::fs::read_to_string(dir.join("r.jsonl")).unwrap_or_default();
        assert_eq!(streamed.lines().count(), 0, "`svwsim {line}` ran cells");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The result-cache counts are counted once, so every output agrees: the
/// summary line, `--stats-json` and the store itself. `tables` plans 285
/// cells with 270 distinct simulations, so 15 cells repeat a key already
/// stored and write nothing; a read-only cache writes nothing at all.
#[test]
fn every_output_agrees_on_the_result_cache_counts() {
    let dir = workdir("cache-counts");
    let d = dir.as_path();
    let run = assert_ok(
        d,
        "tables --trace-len 1000 --jobs 1 --result-cache rc --stats-json s.json",
    );
    let err = stderr(&run);
    assert!(
        err.contains("[svwsim] result cache rc (mode rw): 0 cached, 285 simulated, 270 stored\n"),
        "{err}"
    );
    let stats = std::fs::read_to_string(dir.join("s.json")).unwrap();
    assert!(stats.contains("\"stores\":270,"), "{stats}");
    let entries = assert_ok(d, "cache stats --result-cache rc --json");
    assert!(
        String::from_utf8_lossy(&entries.stdout).contains("\"entries\":270,"),
        "{}",
        String::from_utf8_lossy(&entries.stdout)
    );

    let run = assert_ok(
        d,
        "sweep --figure fig8 --trace-len 1000 --jobs 1 --result-cache ro-rc \
         --result-cache-mode ro --stats-json ro.json",
    );
    let err = stderr(&run);
    assert!(
        err.contains("[svwsim] result cache ro-rc (mode ro): 0 cached, 30 simulated, 0 stored\n"),
        "{err}"
    );
    let stats = std::fs::read_to_string(dir.join("ro.json")).unwrap();
    assert!(stats.contains("\"stores\":0,"), "{stats}");
    let written = std::fs::read_dir(dir.join("ro-rc")).unwrap().count();
    assert_eq!(written, 0, "a read-only cache leaves its directory empty");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The first and last `--progress` lines of `svwsim {line}`.
fn progress_bounds(dir: &Path, line: &str) -> (String, String) {
    let err = stderr(&assert_ok(dir, line));
    let lines: Vec<&str> = err
        .lines()
        .filter(|l| l.starts_with("[svwsim] progress: "))
        .collect();
    let (Some(first), Some(last)) = (lines.first(), lines.last()) else {
        panic!("`svwsim {line}` printed no progress line: {err}");
    };
    (first.to_string(), last.to_string())
}

/// `--progress` counts every cell a sweep plans. An adaptive render plans
/// every workload to `--max-seeds` from its first line, so its ETA is an
/// upper bound, and ends at the cells it ran. Fixed renders and `run` plan
/// their whole matrix.
#[test]
fn the_progress_total_is_every_cell_the_sweep_can_run() {
    let dir = workdir("progress");
    let d = dir.as_path();
    let fig8 = "sweep --figure fig8 --trace-len 400 --jobs 1 --progress";
    for (flags, first, last) in [
        ("--seeds 2", "1/60 cells", "60/60 cells"),
        (
            "--ci-target 1e-6 --min-seeds 2 --max-seeds 4",
            "1/120 cells",
            "120/120 cells",
        ),
        (
            "--ci-target 1e9 --min-seeds 2 --max-seeds 4",
            "1/120 cells",
            "60/60 cells",
        ),
    ] {
        let (got_first, got_last) = progress_bounds(d, &format!("{fig8} {flags}"));
        assert!(got_first.contains(first), "{flags}: {got_first}");
        assert!(got_last.contains(last), "{flags}: {got_last}");
    }
    let (first, last) = progress_bounds(
        d,
        "run --workload gcc --trace-len 400 --seeds 3 --jobs 1 --progress",
    );
    assert!(first.contains("1/3 cells"), "{first}");
    assert!(last.contains("3/3 cells"), "{last}");
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
        "sweep --figure fig8 --result-cache-mode rw",
        // Removed flags.
        "sweep --figure fig8 --trace-len 400 --metrics-out m.prom",
        "tables --trace-len 400 --stats --metrics-out m.prom",
        // run.
        "run",
        "run --workload nosuch",
        "run --workload gcc --config nosuch",
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
    let _ = std::fs::remove_dir_all(&dir);
}

/// The multi-process sweep path (`merge`, `coordinate`, `--shard`, `--plan`,
/// `--plan-out`) no longer exists. Every shape that drove it is an error with
/// exit 2, so a cluster job script that still passes `--shard auto` fails
/// instead of silently running the full matrix in every task.
#[test]
fn removed_distributed_sweep_surface_fails_loudly() {
    let dir = workdir("removed");
    let d = dir.as_path();
    assert_ok(d, "capture --workload gcc --trace-len 400 --out g.svwt");
    for line in [
        "merge s.jsonl --figure fig8 --out m.jsonl",
        "merge shard0.jsonl shard1.jsonl shard2.jsonl --figure fig8 --trace-len 400 --out merged.jsonl",
        "merge s.jsonl --figure fig8 --out m.jsonl --result-cache rc",
        "coordinate c0.jsonl --figure fig8 --ci-target 25 --plan-out p.jsonl --out m.jsonl",
        "coordinate cs0.jsonl cs1.jsonl --figure fig8 --trace-len 400 --ci-target 25 \
         --min-seeds 2 --max-seeds 4 --plan-out round.plan.jsonl --out cmerged.jsonl",
        "sweep --figure fig8 --shard 0/2",
        "sweep --figure fig8 --trace-len 400 --shard 0/3 --out shard0.jsonl",
        "sweep --figure fig8 --trace-len 400 --shard auto --out auto.jsonl",
        "sweep --figure fig8 --ci-target 5 --shard 0/2",
        "sweep --plan p.plan.jsonl",
        "sweep --plan round.plan.jsonl --shard 0/2 --out cs0.jsonl",
        "sweep --figure fig8 --trace-len 400 --plan-out p.plan.jsonl",
        "run --workload gcc --shard 0/2",
        "inspect g.svwt --shard 0/2",
    ] {
        let line: String = line.split_whitespace().collect::<Vec<_>>().join(" ");
        assert_rejected(d, &line);
    }
    let slurm = command(d)
        .env("SLURM_PROCID", "0")
        .env("SLURM_NTASKS", "2")
        .args([
            "sweep",
            "--figure",
            "fig8",
            "--trace-len",
            "400",
            "--shard",
            "auto",
        ])
        .output()
        .unwrap();
    assert_eq!(slurm.status.code(), Some(2), "{}", stderr(&slurm));
    assert!(
        slurm.stdout.is_empty(),
        "a --shard auto task rendered the artifact"
    );
    for file in [
        "m.jsonl",
        "merged.jsonl",
        "cmerged.jsonl",
        "shard0.jsonl",
        "auto.jsonl",
        "cs0.jsonl",
    ] {
        assert!(
            !dir.join(file).exists(),
            "a rejected invocation wrote {file}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The distinct seeds of the cells in a `--out` JSONL stream.
fn streamed_seeds(path: &Path) -> Vec<u64> {
    let mut seeds: Vec<u64> = std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(|line| {
            svw_sim::jsonl::parse_cell_line(line)
                .expect("a cell line")
                .0
                .seed
        })
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

/// A spec's `[adaptive]` block sets the `--ci-target` seed bounds, and an
/// explicit `--min-seeds`/`--max-seeds` still wins over it.
#[test]
fn a_specs_adaptive_block_bounds_ci_target_sampling() {
    let dir = workdir("spec-adaptive");
    let d = dir.as_path();
    let shown = String::from_utf8(assert_ok(d, "experiments show fig8").stdout).unwrap();
    assert!(shown.contains("min_seeds = 3\nmax_seeds = 10\n"), "{shown}");
    // Dropping the pinned fingerprint keeps the edited spec valid.
    let edited = |min: u64, max: u64| -> String {
        shown
            .lines()
            .filter(|line| !line.starts_with("fingerprint = "))
            .map(|line| match line {
                "min_seeds = 3" => format!("min_seeds = {min}"),
                "max_seeds = 10" => format!("max_seeds = {max}"),
                _ => line.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    std::fs::write(dir.join("f.toml"), edited(2, 4)).unwrap();
    let sweep = "sweep --spec f.toml --trace-len 400 --ci-target 0.01";
    // An unreachable target runs every workload to the spec's max_seeds.
    assert_ok(d, &format!("{sweep} --out a.jsonl"));
    assert_eq!(streamed_seeds(&dir.join("a.jsonl")), [1, 2, 3, 4]);
    // The flag overrides the spec's max_seeds; its min_seeds still holds, so
    // one round of extra seeds runs past the base round of two.
    let capped = assert_ok(d, &format!("{sweep} --max-seeds 3 --out b.jsonl"));
    assert_eq!(streamed_seeds(&dir.join("b.jsonl")), [1, 2, 3]);
    let cells = std::fs::read_to_string(dir.join("b.jsonl"))
        .unwrap()
        .lines()
        .count();
    assert!(
        String::from_utf8_lossy(&capped.stdout).contains(&format!(
            "adaptive sampling ({} extra seed-cell(s))",
            cells / 3
        )),
        "{}",
        String::from_utf8_lossy(&capped.stdout)
    );
    // Spec bounds outside the flags' ranges are errors, not huge allocations.
    std::fs::write(dir.join("huge.toml"), edited(2, 5000)).unwrap();
    let err = assert_rejected(d, "sweep --spec huge.toml --trace-len 400 --ci-target 1");
    assert!(err.contains("--max-seeds"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flags_a_command_ignores_are_rejected() {
    let dir = workdir("ignored");
    let d = dir.as_path();
    assert_ok(d, "capture --workload gcc --trace-len 400 --out g.svwt");
    assert_ok(d, "sweep --figure fig8 --trace-len 400 --events e.jsonl");
    for line in [
        "capture --workload gcc --out g2.svwt --seeds 5 --jobs 3",
        "inspect g.svwt --trace-len 7 --seeds 9 --jobs 2 --no-cache --cache-dir /nonexist --verbose",
        "run --trace g.svwt --trace-len 9 --seed 77 --jobs 2 --no-cache",
        "experiments list --trace-len 9 --seeds 4 --jobs 3",
        "profile e.jsonl --jobs 3 --seeds 3",
        "cache stats --result-cache rc --trace-len 5 --jobs 3 --verbose --no-cache",
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
