//! Golden render corpus: every builtin artifact's exact output bytes.
//!
//! `tests/golden/renders/` holds the text and `--json` render of all ten
//! builtin artifacts at `--trace-len 2000 --seeds 2`, at model versions 1 and 2
//! — exactly what `svwsim sweep --figure ART --trace-len 2000 --seeds 2
//! [--model-version 2] [--json]` prints on stdout. This test renders each
//! artifact once per model version through the default execution path (shared
//! decode arenas, recycled worker arenas, more than one job) and compares both
//! formats byte for byte, so any change to simulated behaviour, aggregation or
//! formatting shows up as a reviewable diff of the corpus.
//!
//! On a mismatch the actual renders are written under the target directory and
//! the failure names that directory: an *intentional* change is reviewed by
//! diffing it against the corpus and copying the files over — and a behaviour
//! change must come with a model-version bump, never a silent re-pin.

use std::path::{Path, PathBuf};

use svw_sim::{json, render_artifact, ExperimentCtx, RunOptions, ARTIFACT_NAMES};
use svw_workloads::TraceArenas;

const TRACE_LEN: usize = 2_000;
const SEEDS: [u64; 2] = [1, 2];
const MODEL_VERSIONS: [u32; 2] = [1, 2];

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/renders")
}

/// `(file name, rendered bytes)` for every artifact × model version × format,
/// formatted exactly as the CLI prints one artifact.
fn render_corpus() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for &version in &MODEL_VERSIONS {
        let arenas = TraceArenas::new();
        let ctx = ExperimentCtx {
            seeds: SEEDS.to_vec(),
            model_version: version,
            opts: RunOptions {
                jobs: 2,
                arenas: Some(&arenas),
                ..RunOptions::default()
            },
            ..ExperimentCtx::new(TRACE_LEN, SEEDS[0])
        };
        for &(name, _) in ARTIFACT_NAMES {
            let report = render_artifact(&ctx, name).unwrap_or_else(|e| panic!("{name}: {e}"));
            out.push((format!("{name}.v{version}.txt"), format!("{report}\n")));
            out.push((
                format!("{name}.v{version}.json"),
                format!("{}\n", json::array([report.to_json()])),
            ));
        }
    }
    out
}

#[test]
fn every_artifact_renders_byte_identically_to_the_committed_corpus() {
    let actual = render_corpus();
    let mut mismatched = Vec::new();
    for (file, bytes) in &actual {
        let expected = std::fs::read_to_string(corpus_dir().join(file)).unwrap_or_default();
        if &expected != bytes {
            mismatched.push(file.as_str());
        }
    }
    let committed = std::fs::read_dir(corpus_dir())
        .expect("the golden render corpus directory exists")
        .count();
    if mismatched.is_empty() && committed == actual.len() {
        return;
    }
    let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-renders-actual");
    let _ = std::fs::remove_dir_all(&dump);
    std::fs::create_dir_all(&dump).expect("create the actual-render directory");
    for (file, bytes) in &actual {
        std::fs::write(dump.join(file), bytes).expect("write an actual render");
    }
    panic!(
        "{} of {} renders differ from tests/golden/renders ({committed} file(s) committed): {}\n\
         actual renders written to {}\n\
         review with `diff -r {} {}`",
        mismatched.len(),
        actual.len(),
        mismatched.join(", "),
        dump.display(),
        corpus_dir().display(),
        dump.display(),
    );
}
