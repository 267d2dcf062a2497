//! Golden render corpus: every builtin artifact's exact output bytes.
//!
//! `tests/golden/renders/` holds the text and `--json` render of all ten
//! builtin artifacts at `--trace-len 2000 --seeds 2`, at model versions 1 and 2
//! — exactly what `svwsim sweep --figure ART --trace-len 2000 --seeds 2
//! [--model-version 2] [--json]` prints on stdout — plus fig6 and fig8 with
//! `--substrate` (`ART-substrate.vN.*`), whose tables pin the SSBF lookup and
//! update traffic per 1k committed instructions. At model version 1 the three
//! `tables` artifacts are also pinned as one adaptive render
//! (`ART-adaptive.v1.*`: `svwsim tables --trace-len 2000 --ci-target 25
//! --min-seeds 2 --max-seeds 3`), whose notes record each workload's seed
//! count. This test renders the corpus once per model version through the
//! default execution path — the ten artifacts as one render, the two
//! `--substrate` renders as another, the adaptive `tables` as a third (traces
//! shared across artifacts, recycled worker arenas, more than one job) — and
//! compares both formats byte for byte, so any change to simulated behaviour,
//! aggregation or formatting shows up as a reviewable diff of the corpus.
//!
//! On a mismatch the actual renders are written under the target directory and
//! the failure names that directory: an *intentional* change is reviewed by
//! diffing it against the corpus and copying the files over — and a behaviour
//! change must come with a model-version bump, never a silent re-pin.

use std::path::{Path, PathBuf};

use svw_sim::{
    artifact_resolved, builtin_specs, json, render_specs, AdaptiveOpts, ExperimentCtx,
    ResolvedSpec, RunOptions,
};

const TRACE_LEN: usize = 2_000;
const SEEDS: [u64; 2] = [1, 2];
const MODEL_VERSIONS: [u32; 2] = [1, 2];
/// Artifacts additionally pinned with the substrate-level tables appended.
const SUBSTRATE_ARTIFACTS: [&str; 2] = ["fig6", "fig8"];
/// The `tables` artifacts, additionally pinned as one adaptive render at v1.
const TABLES: [&str; 3] = ["ssn-width", "spec-ssbf", "summary"];
/// The adaptive policy of that render: loose enough that some workloads stop
/// at `min_seeds` and others run to `max_seeds`.
const ADAPTIVE: AdaptiveOpts = AdaptiveOpts {
    ci_target_pct: 25.0,
    min_seeds: 2,
    max_seeds: 3,
};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/renders")
}

/// `(file name, rendered bytes)` for every artifact × model version × format,
/// formatted exactly as the CLI prints one artifact.
fn render_corpus() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for &version in &MODEL_VERSIONS {
        let ctx = ExperimentCtx {
            seeds: SEEDS.to_vec(),
            model_version: version,
            opts: RunOptions {
                jobs: 2,
                ..RunOptions::default()
            },
            ..ExperimentCtx::new(TRACE_LEN, SEEDS[0])
        };
        let substrate_ctx = ExperimentCtx {
            substrate: true,
            ..ctx.clone()
        };
        let adaptive_ctx = ExperimentCtx {
            seeds: vec![SEEDS[0]],
            adaptive: Some(ADAPTIVE),
            ..ctx.clone()
        };
        let all: Vec<&str> = builtin_specs().iter().map(|s| s.name.as_str()).collect();
        let mut renders = vec![
            (&ctx, &all[..], ""),
            (&substrate_ctx, &SUBSTRATE_ARTIFACTS[..], "-substrate"),
        ];
        if version == 1 {
            renders.push((&adaptive_ctx, &TABLES[..], "-adaptive"));
        }
        for (ctx, names, suffix) in renders {
            let specs: Vec<ResolvedSpec> = names
                .iter()
                .map(|name| artifact_resolved(name, version).expect("builtin artifact"))
                .collect();
            let reports = render_specs(ctx, &specs).unwrap_or_else(|e| panic!("v{version}: {e}"));
            for (resolved, report) in specs.iter().zip(reports) {
                let stem = format!("{}{suffix}", resolved.spec.name);
                out.push((format!("{stem}.v{version}.txt"), format!("{report}\n")));
                out.push((
                    format!("{stem}.v{version}.json"),
                    format!("{}\n", json::array([report.to_json()])),
                ));
            }
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
