//! Every hand-rolled parser that reads input from outside the program returns
//! an error on hostile input and never panics: the experiment spec parser and
//! resolver, the `--out` JSONL cell line, the flat JSON object reader, the
//! `--events` journal line, and `.svwr` result-cache entry decoding.
//!
//! Each case takes valid seed inputs — a builtin spec, a `--out` line, an
//! `--events` line and a cache entry — and damages them with truncations, bit
//! flips and token splices.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use svw_sim::events::kind;
use svw_sim::jsonl::{cell_line, parse_cell_line};
use svw_sim::{
    json, parse_event_line, registry, run_cells, CacheMode, CellId, EventSink, ResultCache,
    RunOptions,
};
use svw_workloads::WorkloadProfile;

/// Tokens the splices insert: structure, quoting, escapes and numbers at and
/// past the edges of their types.
const TOKENS: &[&str] = &[
    "\"",
    "\\",
    "\\u",
    "{",
    "}",
    "[",
    "]",
    "[[matrix]]",
    "[adaptive]",
    "=",
    ",",
    ":",
    "\n",
    "#",
    "-",
    "+",
    ".",
    "e",
    "-1",
    "0",
    "1.2.3",
    "1e309",
    "NaN",
    "18446744073709551616",
    "99999999999999999999999",
    "null",
    "true",
    "\"\"",
    " ",
    "\u{fffd}",
];

/// One way of damaging a seed input.
#[derive(Clone, Debug)]
enum Mutation {
    /// Keep only the first `n % len` bytes.
    Truncate(usize),
    /// Flip bit `n % 8` of byte `(n / 8) % len`.
    FlipBit(usize),
    /// Insert `TOKENS[token]` at byte `at % (len + 1)`.
    Splice { at: usize, token: usize },
    /// Copy `len` bytes from `from` over the bytes at `to` (a span of the seed
    /// spliced into itself).
    Repeat { from: usize, to: usize, len: usize },
}

impl Mutation {
    fn apply(&self, bytes: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        let n = bytes.len();
        match *self {
            Mutation::Truncate(k) => bytes.truncate(k % n),
            Mutation::FlipBit(k) => bytes[(k / 8) % n] ^= 1 << (k % 8),
            Mutation::Splice { at, token } => {
                let at = at % (n + 1);
                bytes.splice(at..at, TOKENS[token].bytes());
            }
            Mutation::Repeat { from, to, len } => {
                let from = from % n;
                let span: Vec<u8> = bytes[from..(from + len).min(n)].to_vec();
                let to = to % n;
                let end = (to + span.len()).min(n);
                bytes.splice(to..end, span);
            }
        }
    }
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..1 << 16).prop_map(Mutation::Truncate),
        (0usize..1 << 19).prop_map(Mutation::FlipBit),
        (0usize..1 << 16, 0..TOKENS.len()).prop_map(|(at, token)| Mutation::Splice { at, token }),
        (0usize..1 << 16, 0usize..1 << 16, 1usize..48)
            .prop_map(|(from, to, len)| Mutation::Repeat { from, to, len }),
    ]
}

/// The valid inputs every case starts from.
struct Seeds {
    /// `(cell identity, --out line)` of one simulated cell.
    cell: (CellId, String),
    /// One `simulated` journal line for that cell.
    event: String,
    /// A result cache holding that cell, and the path of its one entry file.
    cache_dir: PathBuf,
    entry_path: PathBuf,
    entry: Vec<u8>,
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svw-parsers-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The one `.svwr` file under `root`.
fn entry_file(root: &Path) -> PathBuf {
    let mut found = Vec::new();
    for fanout in std::fs::read_dir(root).unwrap() {
        let fanout = fanout.unwrap().path();
        if fanout.is_dir() {
            for entry in std::fs::read_dir(&fanout).unwrap() {
                found.push(entry.unwrap().path());
            }
        }
    }
    assert_eq!(found.len(), 1, "one stored cell, one entry file: {found:?}");
    found.remove(0)
}

fn seeds() -> &'static Seeds {
    static SEEDS: OnceLock<Seeds> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let dir = temp_dir("seeds");
        let cache_dir = dir.join("cache");
        let rc = ResultCache::open(&cache_dir, CacheMode::ReadWrite).unwrap();
        let opts = RunOptions {
            result_cache: Some(&rc),
            ..RunOptions::default()
        };
        let workloads = [WorkloadProfile::quicktest()];
        let configs = [svw_sim::presets::config_by_name("nlq-svw").unwrap()];
        let result = run_cells("fuzz", &workloads, &configs, 500, &[3], 0, &opts);
        let stats = result.cells[0]
            .stats()
            .expect("the seed cell simulates")
            .clone();
        let id = CellId {
            matrix: "fuzz".to_string(),
            workload: workloads[0].name.clone(),
            config: configs[0].name.clone(),
            seed: 3,
            trace_len: 500,
            fingerprint: workloads[0].fingerprint(),
            config_fingerprint: configs[0].fingerprint(),
            model_version: 1,
            spec_fingerprint: 0,
        };
        let line = cell_line(&id, &Ok(stats.clone()));

        let journal = dir.join("events.jsonl");
        let sink = EventSink::open(&journal).unwrap();
        sink.emit_cell(
            kind::SIMULATED,
            &id,
            1,
            [
                ("cycles", json::uint(stats.cycles)),
                ("dur_us", json::number(1234.5)),
            ],
        );
        drop(sink);
        let event = std::fs::read_to_string(&journal)
            .unwrap()
            .trim_end()
            .to_string();

        let entry_path = entry_file(&cache_dir);
        let entry = std::fs::read(&entry_path).unwrap();
        Seeds {
            cell: (id, line),
            event,
            cache_dir,
            entry_path,
            entry,
        }
    })
}

fn damaged(seed: &[u8], mutations: &[Mutation]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for m in mutations {
        m.apply(&mut bytes);
    }
    bytes
}

/// Runs `parse`, turning a panic into a test failure that names the input.
fn no_panic(what: &str, input: &[u8], parse: impl FnOnce()) -> Result<(), TestCaseError> {
    prop_assert!(
        catch_unwind(AssertUnwindSafe(parse)).is_ok(),
        "{what} panicked on {:?}",
        String::from_utf8_lossy(input)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Damaged seeds parse to `Ok`/`Err` (or `Some`/`None`), never a panic.
    #[test]
    fn damaged_inputs_are_errors_not_panics(
        spec in 0usize..64,
        mutations in proptest::collection::vec(mutation_strategy(), 1..5),
    ) {
        let seeds = seeds();
        let sources = registry::builtin_spec_sources();
        let (name, source) = sources[spec % sources.len()];

        let text = damaged(source.as_bytes(), &mutations);
        no_panic("parse_spec + resolve_spec", &text, || {
            let content = String::from_utf8_lossy(&text);
            if let Ok(spec) = registry::parse_spec(&content, name) {
                for version in 1..=registry::LATEST_MODEL_VERSION {
                    let _ = registry::resolve_spec(&spec, version);
                }
            }
        })?;

        // Every line-shaped seed goes through every line parser.
        for seed in [seeds.cell.1.as_bytes(), seeds.event.as_bytes()] {
            let line = damaged(seed, &mutations);
            let content = String::from_utf8_lossy(&line);
            no_panic("parse_cell_line", &line, || {
                let _ = parse_cell_line(&content);
            })?;
            no_panic("parse_flat_object", &line, || {
                let _ = json::parse_flat_object(&content);
            })?;
            no_panic("parse_event_line", &line, || {
                let _ = parse_event_line(&content);
            })?;
        }

        // A damaged entry file is a miss (or, if the damage left it intact, a
        // hit for the stored cell), and verify prunes it; neither panics.
        let entry = damaged(&seeds.entry, &mutations);
        std::fs::write(&seeds.entry_path, &entry).unwrap();
        no_panic(".svwr lookup and verify", &entry, || {
            let rc = ResultCache::open(&seeds.cache_dir, CacheMode::ReadOnly).unwrap();
            if let Some(stats) = rc.lookup(&seeds.cell.0) {
                assert_eq!(cell_line(&seeds.cell.0, &Ok(stats)), seeds.cell.1);
            }
            let _ = rc.verify();
        })?;
    }
}
