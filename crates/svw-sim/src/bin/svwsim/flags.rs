//! The `svwsim` flag table. Each flag is declared once — name, value syntax,
//! default, accepted range, the commands (or modes) that take it, and its help
//! line — and the parser, the error for a flag given to a command that does not
//! take it, and the OPTIONS section of `svwsim help` all read this one table.

use svw_sim::{DEFAULT_SEED, DEFAULT_TRACE_LEN, LATEST_MODEL_VERSION};

/// The longest `--trace-len`: about 720 MB of generated instructions.
const MAX_TRACE_LEN: u64 = 10_000_000;
/// The most seeds `--seeds`, `--min-seeds` and `--max-seeds` accept.
const MAX_SEEDS: u64 = 1_000;

// Where a flag applies: one bit per command, or per mode of a command that a
// flag or subcommand selects.
const CAPTURE: u16 = 1;
const INSPECT: u16 = 1 << 1;
const RUN_TRACE: u16 = 1 << 2;
const RUN_WORKLOAD: u16 = 1 << 3;
const SWEEP: u16 = 1 << 4;
const SHORTCUT: u16 = 1 << 5;
const PROFILE: u16 = 1 << 6;
const EXPERIMENTS_LIST: u16 = 1 << 7;
const EXPERIMENTS: u16 = 1 << 8;
const CACHE: u16 = 1 << 9;
const CACHE_GC: u16 = 1 << 10;
/// Artifact renders: `sweep --figure|--spec`, `fig5`..`fig8` and `tables`.
const ARTIFACT: u16 = SWEEP | SHORTCUT;
/// Everything that runs cells on the scheduler, and so reads or writes the
/// result cache.
const SCHEDULER: u16 = RUN_WORKLOAD | ARTIFACT;
/// Everything that simulates.
const SIMULATE: u16 = RUN_TRACE | SCHEDULER;

/// The scope bits in help order, with their names.
const SCOPE_NAMES: [(u16, &str); 11] = [
    (CAPTURE, "capture"),
    (INSPECT, "inspect"),
    (RUN_TRACE, "run --trace"),
    (RUN_WORKLOAD, "run --workload"),
    (SWEEP, "sweep"),
    (SHORTCUT, "fig5-fig8/tables"),
    (PROFILE, "profile"),
    (EXPERIMENTS_LIST, "experiments list"),
    (EXPERIMENTS, "experiments show|validate"),
    (CACHE, "cache stats|verify"),
    (CACHE_GC, "cache gc"),
];

/// What a flag's value is.
pub enum Kind {
    /// No value: the flag is present or not.
    Switch,
    /// An unsigned integer in `min..=max`.
    Int {
        min: u64,
        max: u64,
        default: Option<u64>,
    },
    /// A decimal number.
    Float,
    /// Free text: a path, a name, or a syntax the command parses itself.
    Text { default: Option<&'static str> },
}

pub struct Flag {
    pub name: &'static str,
    /// The value's placeholder in help; empty for a switch.
    pub value: &'static str,
    pub kind: Kind,
    /// The scope bits of the commands and modes that take the flag.
    pub scope: u16,
    /// Help text; `\n` starts a continuation line.
    pub help: &'static str,
}

use Kind::{Float, Int, Switch, Text};

const fn int(min: u64, max: u64, default: Option<u64>) -> Kind {
    Int { min, max, default }
}

const TEXT: Kind = Text { default: None };
const ANY: u64 = u64::MAX;

#[rustfmt::skip]
pub const FLAGS: [Flag; 32] = [
    // What to simulate.
    Flag { name: "--workload", value: "NAME", kind: TEXT, scope: CAPTURE | RUN_WORKLOAD,
           help: "workload to generate (capture also takes `all`)" },
    Flag { name: "--trace", value: "FILE", kind: TEXT, scope: RUN_TRACE,
           help: "replay a captured .svwt trace, decoded in full first" },
    Flag { name: "--config", value: "NAME", kind: Text { default: Some("nlq-svw") },
           scope: RUN_TRACE | RUN_WORKLOAD,
           help: "machine configuration (`--config list` prints the names)" },
    Flag { name: "--figure", value: "ART", kind: TEXT, scope: SWEEP,
           help: "artifact to sweep" },
    Flag { name: "--spec", value: "SPEC", kind: TEXT, scope: SWEEP,
           help: "experiment spec to sweep: FILE.toml or builtin:NAME" },
    Flag { name: "--trace-len", value: "N",
           kind: int(1, MAX_TRACE_LEN, Some(DEFAULT_TRACE_LEN as u64)),
           scope: CAPTURE | RUN_WORKLOAD | ARTIFACT,
           help: "per-workload dynamic instructions" },
    Flag { name: "--seed", value: "N", kind: int(0, ANY, Some(DEFAULT_SEED)),
           scope: CAPTURE | RUN_WORKLOAD | ARTIFACT,
           help: "first workload-generation seed" },
    Flag { name: "--seeds", value: "K", kind: int(1, MAX_SEEDS, Some(1)),
           scope: RUN_WORKLOAD | ARTIFACT,
           help: "replication: run seeds seed..seed+K; reports aggregate to\n\
                  mean ± 95% CI per cell" },
    Flag { name: "--ci-target", value: "PCT", kind: Float, scope: ARTIFACT,
           help: "adaptive replication to a 95% CI of IPC within PCT% of the mean" },
    Flag { name: "--min-seeds", value: "K", kind: int(2, MAX_SEEDS, Some(3)),
           scope: ARTIFACT,
           help: "adaptive: seeds before the first CI check; the spec's\n\
                  [adaptive] min_seeds when it has one, else the default" },
    Flag { name: "--max-seeds", value: "K", kind: int(2, MAX_SEEDS, Some(10)),
           scope: ARTIFACT,
           help: "adaptive: hard per-workload seed ceiling; the spec's\n\
                  [adaptive] max_seeds when it has one, else the default" },
    Flag { name: "--model-version", value: "N",
           kind: int(1, LATEST_MODEL_VERSION as u64, Some(1)),
           scope: RUN_TRACE | RUN_WORKLOAD | ARTIFACT,
           help: "simulator model version: v1 is the byte-identical baseline, v2\n\
                  fixes the issue-stage FP-budget quirk; results record it in\n\
                  their lineage, so resume and the result cache never mix versions" },
    Flag { name: "--substrate", value: "", kind: Switch, scope: ARTIFACT,
           help: "append substrate-level tables (SSBF lookup/update traffic, L2\n\
                  miss rate) to every artifact report, text and JSON" },
    // How to run it.
    Flag { name: "--jobs", value: "N", kind: int(0, ANY, Some(0)), scope: SCHEDULER,
           help: "worker threads; 0 means all available parallelism" },
    Flag { name: "--oracle", value: "", kind: Switch, scope: SIMULATE,
           help: "cross-check every simulated cell against the in-order golden\n\
                  model (docs/VERIFICATION.md); a divergence fails the cell, names\n\
                  the first divergent instruction, and the run exits nonzero.\n\
                  Results stay byte-identical with the checker on" },
    Flag { name: "--inject-fault", value: "N", kind: int(0, ANY, None), scope: SIMULATE,
           help: "corrupt the oracle checker's view of the N-th committed load\n\
                  (0-based) in every cell, proving the oracle catches it; the\n\
                  simulation is untouched. Requires --oracle" },
    Flag { name: "--no-cache", value: "", kind: Switch, scope: SCHEDULER,
           help: "regenerate workloads instead of using the trace cache" },
    Flag { name: "--cache-dir", value: "DIR", kind: TEXT, scope: SCHEDULER,
           help: "trace cache root (default $SVW_TRACE_CACHE, else\n\
                  ~/.cache/svw/traces)" },
    Flag { name: "--result-cache", value: "DIR", kind: TEXT,
           scope: SCHEDULER | CACHE | CACHE_GC,
           help: "content-addressed result cache: a cell found by its full\n\
                  identity skips acquisition, decode and simulation, and every\n\
                  fresh cell is published back; renders stay byte-identical\n\
                  (default $SVW_RESULT_CACHE; see docs/CACHING.md)" },
    Flag { name: "--no-result-cache", value: "", kind: Switch, scope: SCHEDULER,
           help: "ignore --result-cache and $SVW_RESULT_CACHE (A/B check)" },
    Flag { name: "--result-cache-mode", value: "rw|ro|wo", kind: Text { default: Some("rw") },
           scope: SCHEDULER,
           help: "rw reads and publishes; ro never writes (a read-only shared\n\
                  store); wo never reads (re-simulate but still warm the store)" },
    // Where results go.
    Flag { name: "--out", value: "FILE", kind: TEXT,
           scope: CAPTURE | RUN_TRACE | SCHEDULER,
           help: "stream per-cell results to FILE as JSONL and resume from it;\n\
                  capture writes the trace there" },
    Flag { name: "--out-dir", value: "DIR", kind: TEXT, scope: CAPTURE,
           help: "capture each workload into DIR/NAME.svwt" },
    Flag { name: "--json", value: "", kind: Switch,
           scope: INSPECT | RUN_TRACE | RUN_WORKLOAD | ARTIFACT | PROFILE
               | EXPERIMENTS_LIST | CACHE | CACHE_GC,
           help: "emit machine-readable JSON instead of text" },
    Flag { name: "--top", value: "N", kind: int(0, ANY, Some(5)), scope: PROFILE,
           help: "how many of the slowest cells to list" },
    Flag { name: "--max-bytes", value: "N", kind: int(0, ANY, None), scope: CACHE_GC,
           help: "the store size gc evicts down to" },
    // Observability: none of these changes any artifact byte.
    Flag { name: "--verbose", value: "", kind: Switch, scope: SIMULATE,
           help: "log trace-cache, result-cache and timing activity to stderr" },
    Flag { name: "--stats", value: "", kind: Switch, scope: SCHEDULER,
           help: "dump per-worker scheduler statistics (cells drained, resets vs\n\
                  rebuilds) and trace-acquisition counters to stderr" },
    Flag { name: "--stats-json", value: "FILE", kind: TEXT, scope: SCHEDULER,
           help: "write the --stats counters to FILE as one JSON object" },
    Flag { name: "--events", value: "FILE", kind: TEXT, scope: SCHEDULER,
           help: "append a kill-tolerant per-cell lifecycle event journal to FILE;\n\
                  analyze it with `svwsim profile`" },
    Flag { name: "--progress", value: "", kind: Switch, scope: SCHEDULER,
           help: "live progress lines on stderr (cells done/total, cells/s, ETA;\n\
                  adaptive runs add the worst per-workload relative CI)" },
    Flag { name: "--metrics-out", value: "FILE", kind: TEXT, scope: SCHEDULER,
           help: "write an end-of-run metrics snapshot (counters, gauges, phase\n\
                  histograms) to FILE in Prometheus text format" },
];

fn index(name: &str) -> usize {
    FLAGS
        .iter()
        .position(|f| f.name == name)
        .unwrap_or_else(|| panic!("{name} is not in the flag table"))
}

/// Where one invocation runs.
pub struct Scope {
    pub bit: u16,
    /// How errors name it: the command, or the command and its mode.
    pub label: String,
    /// How many positional arguments it takes at most.
    pub positionals: usize,
}

/// The scope of `command` — or of the mode of it that the `given` flags or its
/// subcommand `sub` select.
pub fn scope_of(
    command: &str,
    given: impl Fn(&str) -> bool,
    sub: Option<&str>,
) -> Result<Scope, String> {
    let scope = |bit, label: &str, positionals| Scope {
        bit,
        label: label.to_string(),
        positionals,
    };
    let with_sub = |base: &str| match sub {
        Some(sub) => format!("{base} {sub}"),
        None => base.to_string(),
    };
    Ok(match command {
        "capture" => scope(CAPTURE, command, 0),
        "inspect" => scope(INSPECT, command, usize::MAX),
        "run" if given("--trace") => scope(RUN_TRACE, "run --trace", 0),
        "run" => scope(RUN_WORKLOAD, "run --workload", 0),
        "sweep" => scope(SWEEP, command, 0),
        // The figure shortcuts take the historical positional [trace_len] [seed].
        "fig5" | "fig6" | "fig7" | "fig8" => scope(SHORTCUT, command, 2),
        "tables" => scope(SHORTCUT, command, 0),
        "profile" => scope(PROFILE, command, usize::MAX),
        "experiments" if sub == Some("list") => scope(EXPERIMENTS_LIST, "experiments list", 1),
        "experiments" => scope(EXPERIMENTS, &with_sub(command), usize::MAX),
        "cache" if sub == Some("gc") => scope(CACHE_GC, "cache gc", 1),
        "cache" => scope(CACHE, &with_sub(command), 1),
        _ => return Err(format!("unknown command {command:?}")),
    })
}

/// A parsed flag value.
enum Value {
    Switch,
    Int(u64),
    Float(f64),
    Text(String),
}

fn parse_value(flag: &Flag, raw: String) -> Result<Value, String> {
    let invalid = |expected: String| format!("invalid value {raw:?} for {}: {expected}", flag.name);
    match flag.kind {
        Switch => Ok(Value::Switch),
        Int { min, max, .. } => match raw.parse::<u64>() {
            Ok(n) if (min..=max).contains(&n) => Ok(Value::Int(n)),
            _ if max == ANY => Err(invalid("expected an unsigned integer".to_string())),
            _ => Err(invalid(format!("expected an integer in {min}..={max}"))),
        },
        Float => raw
            .parse()
            .map(Value::Float)
            .map_err(|_| invalid("expected a number".to_string())),
        Text { .. } => Ok(Value::Text(raw)),
    }
}

/// One invocation's arguments, checked against the table.
pub struct Args {
    /// The value of each flag that was given, indexed like [`FLAGS`].
    values: Vec<Option<Value>>,
    /// The arguments that are not flags or flag values, in order.
    pub positionals: Vec<String>,
}

impl Args {
    /// Parses `argv` (the arguments after the command). Rejects an unknown
    /// command or flag, a repeated flag, a missing or out-of-range value, a flag
    /// the command's scope does not take, and surplus positional arguments.
    pub fn parse(command: &str, argv: Vec<String>) -> Result<Args, String> {
        let mut args = Args {
            values: FLAGS.iter().map(|_| None).collect(),
            positionals: Vec::new(),
        };
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if !arg.starts_with('-') || arg == "-" {
                args.positionals.push(arg);
                continue;
            }
            let i = FLAGS
                .iter()
                .position(|f| f.name == arg)
                .ok_or_else(|| format!("unknown flag {arg}"))?;
            if args.values[i].is_some() {
                return Err(format!("{arg} is given more than once"));
            }
            let flag = &FLAGS[i];
            let raw = match flag.kind {
                Switch => String::new(),
                _ => argv
                    .next()
                    .ok_or_else(|| format!("{arg} needs a value ({})", flag.value))?,
            };
            args.values[i] = Some(parse_value(flag, raw)?);
        }

        let sub = args.positionals.first().map(String::as_str);
        let scope = scope_of(command, |name| args.has(name), sub)?;
        for (flag, value) in FLAGS.iter().zip(&args.values) {
            if value.is_some() && flag.scope & scope.bit == 0 {
                return Err(format!("{} does not apply to {}", flag.name, scope.label));
            }
        }
        if let Some(extra) = args.positionals.get(scope.positionals) {
            return Err(format!("unexpected argument {extra:?}"));
        }
        if scope.bit == SHORTCUT {
            // Positional [trace_len] [seed] override the flags, parsed like them.
            for (name, raw) in ["--trace-len", "--seed"]
                .into_iter()
                .zip(args.positionals.split_off(0))
            {
                args.values[index(name)] = Some(parse_value(&FLAGS[index(name)], raw)?);
            }
        }

        if args.has("--inject-fault") && !args.has("--oracle") {
            return Err("--inject-fault requires --oracle (it corrupts the oracle checker's view of a load, not the simulation)".to_string());
        }
        let seeds: u64 = args.num(if args.has("--ci-target") {
            "--max-seeds"
        } else {
            "--seeds"
        });
        if args.num::<u64>("--seed").checked_add(seeds - 1).is_none() {
            return Err("--seed is too large: its replication seeds overflow 64 bits".to_string());
        }
        Ok(args)
    }

    /// Whether the flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.values[index(name)].is_some()
    }

    /// An integer flag's value, or its default.
    pub fn int(&self, name: &str) -> Option<u64> {
        let i = index(name);
        match (&self.values[i], &FLAGS[i].kind) {
            (Some(Value::Int(n)), _) => Some(*n),
            (None, Int { default, .. }) => *default,
            _ => None,
        }
    }

    /// The value of an integer flag that has a default. Panics if the flag has
    /// none or its range does not fit `T` — both mistakes in the table.
    pub fn num<T: TryFrom<u64>>(&self, name: &str) -> T {
        self.int(name)
            .and_then(|n| T::try_from(n).ok())
            .unwrap_or_else(|| panic!("{name} has no default that fits its type"))
    }

    /// An integer flag's value if given, else `fallback` if set, else the
    /// flag's default. `fallback` comes from outside the command line (a spec
    /// file), so it is checked against the flag's range like a given value.
    pub fn num_or<T: TryFrom<u64>>(&self, name: &str, fallback: Option<u64>) -> Result<T, String> {
        let i = index(name);
        match (fallback, &FLAGS[i].kind) {
            (Some(n), Int { min, max, .. }) if !self.has(name) => {
                if !(min..=max).contains(&&n) {
                    return Err(format!("{n} is outside the range of {name}, {min}..={max}"));
                }
                Ok(T::try_from(n)
                    .unwrap_or_else(|_| panic!("{name}'s range does not fit its type")))
            }
            _ => Ok(self.num(name)),
        }
    }

    pub fn float(&self, name: &str) -> Option<f64> {
        match self.values[index(name)] {
            Some(Value::Float(x)) => Some(x),
            _ => None,
        }
    }

    /// A text flag's value, or its default.
    pub fn text(&self, name: &str) -> Option<&str> {
        let i = index(name);
        match (&self.values[i], &FLAGS[i].kind) {
            (Some(Value::Text(s)), _) => Some(s),
            (None, Text { default }) => *default,
            _ => None,
        }
    }

    /// The value of a text flag that has a default. Panics if the flag has
    /// none — a mistake in the table.
    pub fn str(&self, name: &str) -> &str {
        self.text(name)
            .unwrap_or_else(|| panic!("{name} has no default"))
    }
}

/// The OPTIONS section of `svwsim help`: every flag in the table with its
/// help, default, range and the commands that take it.
pub fn options_help() -> String {
    const INDENT: usize = 24;
    const WIDTH: usize = 80;
    let mut out = String::from("OPTIONS:\n");
    for flag in &FLAGS {
        let mut lines: Vec<String> = flag.help.lines().map(str::to_string).collect();
        match flag.kind {
            Int { min, max, default } => {
                let default = default.map(|d| format!("default {d}"));
                let range = (max != ANY).then(|| format!("range {min}..={max}"));
                let facts: Vec<String> = default.into_iter().chain(range).collect();
                if !facts.is_empty() {
                    lines.push(facts.join(", "));
                }
            }
            Text { default: Some(d) } => lines.push(format!("default {d}")),
            _ => {}
        }
        let mut applies = String::from("for");
        for (_, name) in SCOPE_NAMES.iter().filter(|(bit, _)| flag.scope & bit != 0) {
            if INDENT + applies.len() + name.len() + 2 > WIDTH {
                lines.push(format!("{applies},"));
                applies = format!("   {name}");
            } else {
                applies += if applies == "for" { " " } else { ", " };
                applies += name;
            }
        }
        lines.push(applies);

        let head = format!("    {} {}", flag.name, flag.value);
        let head = head.trim_end();
        if head.len() < INDENT {
            out += &format!("{head:<INDENT$}{}\n", lines.remove(0));
        } else {
            out += &format!("{head}\n");
        }
        for line in lines {
            out += &format!("{:INDENT$}{line}\n", "");
        }
    }
    out
}
