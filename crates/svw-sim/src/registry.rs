//! Declarative experiment registry: schema-versioned [`ExperimentSpec`]s,
//! canonical TOML serialization, spec fingerprints, and result lineage.
//!
//! Every artifact family the simulator can render (Figures 5–8, the §3.6
//! sensitivity tables, the §6 summary) is described by a declarative spec —
//! a small TOML document naming the workloads, a config axis, the renderer,
//! the metrics of interest, and adaptive-sampling defaults. The builtin specs
//! ship embedded in the binary (`crates/svw-sim/specs/*.toml`) and are parsed
//! once on first use; user-defined sweeps load the same format from disk via
//! `svwsim sweep --spec FILE`.
//!
//! # Canonical form and fingerprints
//!
//! [`canonical_toml`] re-emits a spec with fixed key order, quoting, and
//! whitespace, so two specs with the same meaning serialize to the same
//! bytes. [`spec_fingerprint`] is the FNV-1a 64 hash of that canonical form;
//! it is the `spec_fingerprint` carried as lineage by every JSONL cell line and
//! result-cache entry, letting resume and the cache distinguish "same
//! experiment definition" from "definition drifted". A spec may pin its
//! own fingerprint (`fingerprint = "…"`); parsing fails if the pinned value
//! no longer matches the canonical content.
//!
//! # Model versions
//!
//! The behavioural model itself is versioned independently of the specs:
//! model v1 reproduces the historical binary byte-for-byte (quirks included),
//! and each later version records exactly what it changes
//! ([`model_divergence`]). Resolution ([`resolve_spec`]) stamps a model
//! version onto every [`MachineConfig`] it produces, and the version rides
//! with the spec fingerprint through the whole pipeline so results simulated
//! under different models are never reconciled as interchangeable.

use std::fmt;
use std::sync::OnceLock;

use svw_cpu::MachineConfig;
use svw_workloads::WorkloadProfile;

use crate::presets;

/// Schema version of the spec TOML format accepted by [`parse_spec`].
pub const SPEC_SCHEMA_VERSION: u64 = 1;

/// Schema version stamped on every JSONL result line and plan-file header.
///
/// Version 2 added the lineage fields (`model_version`, `spec_fingerprint`);
/// version 3 added `config_fingerprint`, which with the model version, the
/// workload fingerprint, the trace length and the seed is the key results are
/// matched on; version 4 dropped the five always-zero instruction-cache
/// counters and the SVW-side duplicates of `reexec_flushes` and `wrap_drains`. Lines written under any other schema
/// fail to parse and their cells are re-simulated, per the resume contract
/// documented in [`crate::jsonl`].
pub const RESULT_SCHEMA_VERSION: u64 = 4;

/// Highest behavioural model version this binary implements.
pub const LATEST_MODEL_VERSION: u32 = 2;

/// Renderers the binary knows how to dispatch; spec `renderer` keys must name
/// one of these. Most builtin artifacts name a renderer of their own; renderers
/// may also be shared (both `adversarial-*` specs render through
/// `"adversarial"`).
pub const RENDERER_NAMES: &[&str] = &[
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "ssn-width",
    "spec-ssbf",
    "substrate-ssbf",
    "summary",
    "adversarial",
];

/// Returns the recorded reason a model version's results diverge from the
/// byte-identical v1 baseline, or `None` for v1 itself (and unknown versions).
pub fn model_divergence(model_version: u32) -> Option<&'static str> {
    match model_version {
        2 => Some(
            "issue stage no longer stops scanning while FP issue bandwidth remains \
             (v1 quirk: the early-exit check ignored budget_fp, so a ready FP op \
             could wait a cycle even with FP slots free)",
        ),
        _ => None,
    }
}

/// A parse or validation failure, anchored to a `file:line` location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// Path (or `builtin:NAME` pseudo-path) of the offending spec.
    pub file: String,
    /// 1-based line number the error is anchored to.
    pub line: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Which workloads a matrix sweeps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadSelector {
    /// The full SPEC2000 integer suite (`workloads = "spec2000int"`).
    Spec2000Int,
    /// An explicit list of profile names (`workloads = ["crafty", …]`).
    Named(Vec<String>),
}

/// Adaptive-sampling defaults a spec ships with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdaptiveDefaults {
    /// Seeds every cell starts with.
    pub min_seeds: u64,
    /// Hard cap on seeds per cell.
    pub max_seeds: u64,
}

/// One workload × config sub-matrix of a spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecMatrix {
    /// Matrix label; becomes the `matrix` identity field of every cell.
    pub label: String,
    /// Workloads this matrix sweeps.
    pub workloads: WorkloadSelector,
    /// Name of the config axis (see [`config_axis_names`]).
    pub configs: String,
    /// Index (into the config axis) of the unfiltered configuration a paired
    /// reduction is measured against. Only the `summary` renderer reads this.
    pub unfiltered_idx: Option<usize>,
    /// Index of the SVW-filtered configuration of the paired reduction.
    pub svw_idx: Option<usize>,
}

/// A declarative experiment: everything needed to enumerate, simulate, and
/// render one artifact family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExperimentSpec {
    /// Spec schema version (currently always [`SPEC_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Short artifact name (`fig5`, `summary`, …) used on the command line.
    pub name: String,
    /// One-line human description shown by `svwsim experiments list`.
    pub description: String,
    /// Renderer that turns the simulated matrices into a report.
    pub renderer: String,
    /// Metric names the renderer reports (informational).
    pub metrics: Vec<String>,
    /// Adaptive-sampling defaults, if the spec declares any.
    pub adaptive: Option<AdaptiveDefaults>,
    /// The workload × config sub-matrices, in declaration order.
    pub matrices: Vec<SpecMatrix>,
    /// Fingerprint the spec pinned for itself, if any. Verified against the
    /// canonical content at parse time; never part of the canonical form.
    pub pinned_fingerprint: Option<u64>,
}

/// One resolved sub-matrix: concrete workload profiles and configs.
#[derive(Clone, Debug)]
pub struct ResolvedMatrix {
    /// Matrix label (identity field of every cell).
    pub label: String,
    /// Concrete workload profiles, in sweep order.
    pub workloads: Vec<WorkloadProfile>,
    /// Concrete machine configs with the model version applied.
    pub configs: Vec<MachineConfig>,
    /// See [`SpecMatrix::unfiltered_idx`].
    pub unfiltered_idx: Option<usize>,
    /// See [`SpecMatrix::svw_idx`].
    pub svw_idx: Option<usize>,
}

/// A spec resolved against this binary: concrete matrices plus the lineage
/// triple (result schema, model version, spec fingerprint) its results carry.
#[derive(Clone, Debug)]
pub struct ResolvedSpec {
    /// The spec this resolution came from.
    pub spec: ExperimentSpec,
    /// FNV-1a 64 fingerprint of the spec's canonical TOML form.
    pub fingerprint: u64,
    /// Behavioural model version stamped on every config.
    pub model_version: u32,
    /// Concrete matrices, in spec order.
    pub matrices: Vec<ResolvedMatrix>,
}

// ---------------------------------------------------------------------------
// Config axes
// ---------------------------------------------------------------------------

/// Constructor for a named configuration axis.
type AxisFn = fn() -> Vec<MachineConfig>;

/// Named config axes specs may reference, mapping to the preset constructors.
const CONFIG_AXES: &[(&str, AxisFn)] = &[
    ("fig5-nlq", presets::fig5_nlq_configs),
    ("fig6-ssq", presets::fig6_ssq_configs),
    ("fig7-rle", presets::fig7_rle_configs),
    ("fig8-ssbf", presets::fig8_ssbf_configs),
    ("ssn-width", presets::ssn_width_configs),
    ("ssbf-update-policy", presets::ssbf_update_policy_configs),
];

/// Names of the config axes a spec's `configs` key may reference.
pub fn config_axis_names() -> Vec<&'static str> {
    CONFIG_AXES.iter().map(|(name, _)| *name).collect()
}

/// Instantiates a named config axis, or `None` if the axis is unknown.
pub fn config_axis(name: &str) -> Option<Vec<MachineConfig>> {
    CONFIG_AXES
        .iter()
        .find(|(axis, _)| *axis == name)
        .map(|(_, make)| make())
}

// ---------------------------------------------------------------------------
// Did-you-mean suggestions
// ---------------------------------------------------------------------------

fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Picks the candidate closest to `name` by edit distance, if any is close
/// enough to plausibly be a typo.
pub fn suggest<'a>(name: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    let mut best: Option<(usize, &str)> = None;
    for cand in candidates {
        let d = edit_distance(name, cand);
        if best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, cand));
        }
    }
    let (d, cand) = best?;
    let threshold = (name.chars().count().max(cand.chars().count()) / 3).max(1);
    (d <= threshold).then_some(cand)
}

/// Formats a ` (did you mean "X"?)` suffix for an unknown-name diagnostic,
/// or an empty string when no candidate is close enough.
pub fn did_you_mean<'a>(name: &str, candidates: impl IntoIterator<Item = &'a str>) -> String {
    match suggest(name, candidates) {
        Some(cand) => format!(" (did you mean {cand:?}?)"),
        None => String::new(),
    }
}

// ---------------------------------------------------------------------------
// TOML-subset parser
// ---------------------------------------------------------------------------

enum TomlValue {
    Str(String),
    Int(u64),
    StrArray(Vec<String>),
}

impl TomlValue {
    fn kind(&self) -> &'static str {
        match self {
            TomlValue::Str(_) => "a string",
            TomlValue::Int(_) => "an integer",
            TomlValue::StrArray(_) => "a string array",
        }
    }
}

fn err(file: &str, line: usize, message: impl Into<String>) -> SpecError {
    SpecError {
        file: file.to_string(),
        line,
        message: message.into(),
    }
}

/// Parses a quoted string starting at `s[0] == '"'`; returns the string and
/// the rest of the line after the closing quote.
fn parse_quoted(s: &str, file: &str, line: usize) -> Result<(String, String), SpecError> {
    debug_assert!(s.starts_with('"'));
    let mut out = String::new();
    let mut chars = s[1..].chars();
    loop {
        match chars.next() {
            None => return Err(err(file, line, "unterminated string")),
            Some('"') => return Ok((out, chars.as_str().to_string())),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                other => {
                    return Err(err(
                        file,
                        line,
                        format!(
                            "unsupported escape \\{} (only \\\" and \\\\ are supported)",
                            other.map(String::from).unwrap_or_default()
                        ),
                    ));
                }
            },
            Some(c) => out.push(c),
        }
    }
}

fn expect_end(rest: &str, file: &str, line: usize) -> Result<(), SpecError> {
    let rest = rest.trim_start();
    if rest.is_empty() || rest.starts_with('#') {
        Ok(())
    } else {
        Err(err(
            file,
            line,
            format!("unexpected trailing content {rest:?}"),
        ))
    }
}

fn parse_value(raw: &str, file: &str, line: usize) -> Result<TomlValue, SpecError> {
    let raw = raw.trim_start();
    if raw.starts_with('"') {
        let (s, rest) = parse_quoted(raw, file, line)?;
        expect_end(&rest, file, line)?;
        return Ok(TomlValue::Str(s));
    }
    if let Some(body) = raw.strip_prefix('[') {
        let mut rest = body.to_string();
        let mut items = Vec::new();
        loop {
            let cursor = rest.trim_start().to_string();
            if let Some(after) = cursor.strip_prefix(']') {
                expect_end(after, file, line)?;
                return Ok(TomlValue::StrArray(items));
            }
            if !cursor.starts_with('"') {
                return Err(err(file, line, "arrays may only contain quoted strings"));
            }
            let (item, after) = parse_quoted(&cursor, file, line)?;
            items.push(item);
            let after = after.trim_start();
            if let Some(next) = after.strip_prefix(',') {
                rest = next.to_string();
            } else if after.starts_with(']') {
                rest = after.to_string();
            } else {
                return Err(err(file, line, "expected ',' or ']' in array"));
            }
        }
    }
    let bare = raw.split('#').next().unwrap_or("").trim();
    if bare.is_empty() {
        return Err(err(file, line, "missing value"));
    }
    match bare.parse::<u64>() {
        Ok(n) => Ok(TomlValue::Int(n)),
        Err(_) => Err(err(
            file,
            line,
            format!("cannot parse value {bare:?} (expected a quoted string, a string array, or a non-negative integer)"),
        )),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Section {
    Root,
    Adaptive,
    Matrix,
}

struct PendingMatrix {
    line: usize,
    label: Option<String>,
    workloads: Option<WorkloadSelector>,
    configs: Option<String>,
    unfiltered_idx: Option<usize>,
    svw_idx: Option<usize>,
}

fn finish_matrix(m: PendingMatrix, file: &str) -> Result<SpecMatrix, SpecError> {
    let label = m
        .label
        .ok_or_else(|| err(file, m.line, "[[matrix]] is missing required key \"label\""))?;
    let workloads = m.workloads.ok_or_else(|| {
        err(
            file,
            m.line,
            format!("[[matrix]] {label:?} is missing required key \"workloads\""),
        )
    })?;
    let configs = m.configs.ok_or_else(|| {
        err(
            file,
            m.line,
            format!("[[matrix]] {label:?} is missing required key \"configs\""),
        )
    })?;
    Ok(SpecMatrix {
        label,
        workloads,
        configs,
        unfiltered_idx: m.unfiltered_idx,
        svw_idx: m.svw_idx,
    })
}

fn workload_selector(
    value: TomlValue,
    file: &str,
    line: usize,
) -> Result<WorkloadSelector, SpecError> {
    let known = svw_workloads::spec2000int_names();
    match value {
        TomlValue::Str(s) if s == "spec2000int" => Ok(WorkloadSelector::Spec2000Int),
        TomlValue::Str(s) => Err(err(
            file,
            line,
            format!("unknown workload set {s:?} (expected \"spec2000int\" or an array of profile names)"),
        )),
        TomlValue::StrArray(names) => {
            if names.is_empty() {
                return Err(err(file, line, "workload list may not be empty"));
            }
            for name in &names {
                if WorkloadProfile::by_name(name).is_none() {
                    return Err(err(
                        file,
                        line,
                        format!(
                            "unknown workload profile {name:?}{}",
                            did_you_mean(name, known.iter().copied())
                        ),
                    ));
                }
            }
            Ok(WorkloadSelector::Named(names))
        }
        other => Err(err(
            file,
            line,
            format!("\"workloads\" must be \"spec2000int\" or a string array, not {}", other.kind()),
        )),
    }
}

fn as_str(value: TomlValue, key: &str, file: &str, line: usize) -> Result<String, SpecError> {
    match value {
        TomlValue::Str(s) => Ok(s),
        other => Err(err(
            file,
            line,
            format!("{key:?} must be a string, not {}", other.kind()),
        )),
    }
}

fn as_int(value: TomlValue, key: &str, file: &str, line: usize) -> Result<u64, SpecError> {
    match value {
        TomlValue::Int(n) => Ok(n),
        other => Err(err(
            file,
            line,
            format!("{key:?} must be an integer, not {}", other.kind()),
        )),
    }
}

fn set_once<T>(
    slot: &mut Option<T>,
    value: T,
    key: &str,
    file: &str,
    line: usize,
) -> Result<(), SpecError> {
    if slot.is_some() {
        return Err(err(file, line, format!("duplicate key {key:?}")));
    }
    *slot = Some(value);
    Ok(())
}

/// Parses an [`ExperimentSpec`] from TOML source. `file` is the path (or
/// `builtin:NAME`) used to anchor `file:line` diagnostics.
///
/// Beyond syntax, this validates semantics that are knowable statically:
/// the schema version, that `configs` names a known axis, that workload
/// names resolve, that the renderer exists, and that a pinned fingerprint
/// (if declared) matches the canonical content.
pub fn parse_spec(content: &str, file: &str) -> Result<ExperimentSpec, SpecError> {
    let mut section = Section::Root;
    let mut schema_version: Option<(u64, usize)> = None;
    let mut name: Option<String> = None;
    let mut description: Option<String> = None;
    let mut renderer: Option<(String, usize)> = None;
    let mut metrics: Option<Vec<String>> = None;
    let mut pinned: Option<(u64, usize)> = None;
    let mut adaptive_min: Option<(u64, usize)> = None;
    let mut adaptive_max: Option<(u64, usize)> = None;
    let mut adaptive_line = 0usize;
    let mut matrices: Vec<PendingMatrix> = Vec::new();
    let mut last_line = 0usize;

    for (idx, raw_line) in content.lines().enumerate() {
        let line = idx + 1;
        last_line = line;
        let trimmed = raw_line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if trimmed == "[[matrix]]" {
            matrices.push(PendingMatrix {
                line,
                label: None,
                workloads: None,
                configs: None,
                unfiltered_idx: None,
                svw_idx: None,
            });
            section = Section::Matrix;
            continue;
        }
        if trimmed == "[adaptive]" {
            if adaptive_line != 0 {
                return Err(err(file, line, "duplicate [adaptive] table"));
            }
            adaptive_line = line;
            section = Section::Adaptive;
            continue;
        }
        if trimmed.starts_with('[') {
            return Err(err(
                file,
                line,
                format!("unknown table {trimmed} (expected [adaptive] or [[matrix]])"),
            ));
        }
        let Some((key, value_raw)) = trimmed.split_once('=') else {
            return Err(err(
                file,
                line,
                format!("expected `key = value`, got {trimmed:?}"),
            ));
        };
        let key = key.trim();
        let value = parse_value(value_raw, file, line)?;
        match section {
            Section::Root => match key {
                "schema_version" => {
                    let v = as_int(value, key, file, line)?;
                    if v != SPEC_SCHEMA_VERSION {
                        return Err(err(
                            file,
                            line,
                            format!(
                                "unsupported spec schema version {v} (this binary supports {SPEC_SCHEMA_VERSION})"
                            ),
                        ));
                    }
                    set_once(&mut schema_version, (v, line), key, file, line)?;
                }
                "name" => {
                    let v = as_str(value, key, file, line)?;
                    if v.is_empty() {
                        return Err(err(file, line, "\"name\" may not be empty"));
                    }
                    set_once(&mut name, v, key, file, line)?;
                }
                "description" => {
                    let v = as_str(value, key, file, line)?;
                    set_once(&mut description, v, key, file, line)?;
                }
                "renderer" => {
                    let v = as_str(value, key, file, line)?;
                    if !RENDERER_NAMES.contains(&v.as_str()) {
                        return Err(err(
                            file,
                            line,
                            format!(
                                "unknown renderer {v:?}{} (known renderers: {})",
                                did_you_mean(&v, RENDERER_NAMES.iter().copied()),
                                RENDERER_NAMES.join(", ")
                            ),
                        ));
                    }
                    set_once(&mut renderer, (v, line), key, file, line)?;
                }
                "metrics" => match value {
                    TomlValue::StrArray(list) => set_once(&mut metrics, list, key, file, line)?,
                    other => {
                        return Err(err(
                            file,
                            line,
                            format!("\"metrics\" must be a string array, not {}", other.kind()),
                        ));
                    }
                },
                "fingerprint" => {
                    let v = as_str(value, key, file, line)?;
                    let parsed =
                        u64::from_str_radix(v.trim_start_matches("0x"), 16).map_err(|_| {
                            err(
                                file,
                                line,
                                format!("\"fingerprint\" must be a hex string, got {v:?}"),
                            )
                        })?;
                    set_once(&mut pinned, (parsed, line), key, file, line)?;
                }
                other => {
                    return Err(err(
                        file,
                        line,
                        format!(
                            "unknown key {other:?}{} (root keys: schema_version, name, description, renderer, metrics, fingerprint)",
                            did_you_mean(
                                other,
                                [
                                    "schema_version",
                                    "name",
                                    "description",
                                    "renderer",
                                    "metrics",
                                    "fingerprint"
                                ]
                            )
                        ),
                    ));
                }
            },
            Section::Adaptive => match key {
                "min_seeds" => {
                    let v = as_int(value, key, file, line)?;
                    set_once(&mut adaptive_min, (v, line), key, file, line)?;
                }
                "max_seeds" => {
                    let v = as_int(value, key, file, line)?;
                    set_once(&mut adaptive_max, (v, line), key, file, line)?;
                }
                other => {
                    return Err(err(
                        file,
                        line,
                        format!(
                            "unknown [adaptive] key {other:?}{} ([adaptive] keys: min_seeds, max_seeds)",
                            did_you_mean(other, ["min_seeds", "max_seeds"])
                        ),
                    ));
                }
            },
            Section::Matrix => {
                let m = matrices.last_mut().expect("matrix section implies entry");
                match key {
                    "label" => {
                        let v = as_str(value, key, file, line)?;
                        if v.is_empty() {
                            return Err(err(file, line, "\"label\" may not be empty"));
                        }
                        set_once(&mut m.label, v, key, file, line)?;
                    }
                    "workloads" => {
                        let sel = workload_selector(value, file, line)?;
                        set_once(&mut m.workloads, sel, key, file, line)?;
                    }
                    "configs" => {
                        let v = as_str(value, key, file, line)?;
                        if config_axis(&v).is_none() {
                            let axes = config_axis_names();
                            return Err(err(
                                file,
                                line,
                                format!(
                                    "unknown config axis {v:?}{} (known axes: {})",
                                    did_you_mean(&v, axes.iter().copied()),
                                    axes.join(", ")
                                ),
                            ));
                        }
                        set_once(&mut m.configs, v, key, file, line)?;
                    }
                    "unfiltered_idx" => {
                        let v = as_int(value, key, file, line)? as usize;
                        set_once(&mut m.unfiltered_idx, v, key, file, line)?;
                    }
                    "svw_idx" => {
                        let v = as_int(value, key, file, line)? as usize;
                        set_once(&mut m.svw_idx, v, key, file, line)?;
                    }
                    other => {
                        return Err(err(
                            file,
                            line,
                            format!(
                                "unknown [[matrix]] key {other:?}{} ([[matrix]] keys: label, workloads, configs, unfiltered_idx, svw_idx)",
                                did_you_mean(
                                    other,
                                    ["label", "workloads", "configs", "unfiltered_idx", "svw_idx"]
                                )
                            ),
                        ));
                    }
                }
            }
        }
    }

    let last_line = last_line.max(1);
    if schema_version.is_none() {
        return Err(err(
            file,
            last_line,
            "missing required key \"schema_version\"",
        ));
    }
    let name = name.ok_or_else(|| err(file, last_line, "missing required key \"name\""))?;
    let description =
        description.ok_or_else(|| err(file, last_line, "missing required key \"description\""))?;
    let (renderer, _) =
        renderer.ok_or_else(|| err(file, last_line, "missing required key \"renderer\""))?;
    let adaptive = match (adaptive_min, adaptive_max) {
        (None, None) if adaptive_line == 0 => None,
        (Some((min, _)), Some((max, line))) => {
            if min < 2 {
                return Err(err(file, line, "min_seeds must be at least 2"));
            }
            if max < min {
                return Err(err(file, line, "max_seeds must be >= min_seeds"));
            }
            Some(AdaptiveDefaults {
                min_seeds: min,
                max_seeds: max,
            })
        }
        _ => {
            return Err(err(
                file,
                adaptive_line.max(1),
                "[adaptive] requires both min_seeds and max_seeds",
            ));
        }
    };
    let matrices = matrices
        .into_iter()
        .map(|m| finish_matrix(m, file))
        .collect::<Result<Vec<_>, _>>()?;
    if matrices.is_empty() {
        return Err(err(file, last_line, "spec defines no [[matrix]]"));
    }
    {
        let mut labels: Vec<&str> = matrices.iter().map(|m| m.label.as_str()).collect();
        labels.sort_unstable();
        if let Some(dup) = labels.windows(2).find(|w| w[0] == w[1]) {
            return Err(err(
                file,
                last_line,
                format!("duplicate matrix label {:?}", dup[0]),
            ));
        }
    }

    let spec = ExperimentSpec {
        schema_version: SPEC_SCHEMA_VERSION,
        name,
        description,
        renderer,
        metrics: metrics.unwrap_or_default(),
        adaptive,
        matrices,
        pinned_fingerprint: pinned.map(|(v, _)| v),
    };
    if let Some((want, line)) = pinned {
        let got = spec_fingerprint(&spec);
        if want != got {
            return Err(err(
                file,
                line,
                format!(
                    "spec fingerprint mismatch: pinned {want:016x}, canonical content fingerprints to {got:016x} — the spec changed without updating its pinned fingerprint"
                ),
            ));
        }
    }
    Ok(spec)
}

// ---------------------------------------------------------------------------
// Canonical serialization + fingerprint
// ---------------------------------------------------------------------------

fn toml_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn toml_str_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| toml_str(s)).collect();
    format!("[{}]", quoted.join(", "))
}

/// Re-emits a spec in canonical TOML: fixed key order, quoting, and
/// whitespace, with comments and the pinned fingerprint stripped. Two specs
/// that mean the same thing canonicalize to identical bytes; this is the
/// content [`spec_fingerprint`] hashes.
pub fn canonical_toml(spec: &ExperimentSpec) -> String {
    let mut out = String::new();
    out.push_str(&format!("schema_version = {}\n", spec.schema_version));
    out.push_str(&format!("name = {}\n", toml_str(&spec.name)));
    out.push_str(&format!("description = {}\n", toml_str(&spec.description)));
    out.push_str(&format!("renderer = {}\n", toml_str(&spec.renderer)));
    if !spec.metrics.is_empty() {
        out.push_str(&format!("metrics = {}\n", toml_str_array(&spec.metrics)));
    }
    if let Some(adaptive) = &spec.adaptive {
        out.push_str("\n[adaptive]\n");
        out.push_str(&format!("min_seeds = {}\n", adaptive.min_seeds));
        out.push_str(&format!("max_seeds = {}\n", adaptive.max_seeds));
    }
    for m in &spec.matrices {
        out.push_str("\n[[matrix]]\n");
        out.push_str(&format!("label = {}\n", toml_str(&m.label)));
        match &m.workloads {
            WorkloadSelector::Spec2000Int => out.push_str("workloads = \"spec2000int\"\n"),
            WorkloadSelector::Named(names) => {
                out.push_str(&format!("workloads = {}\n", toml_str_array(names)));
            }
        }
        out.push_str(&format!("configs = {}\n", toml_str(&m.configs)));
        if let Some(idx) = m.unfiltered_idx {
            out.push_str(&format!("unfiltered_idx = {idx}\n"));
        }
        if let Some(idx) = m.svw_idx {
            out.push_str(&format!("svw_idx = {idx}\n"));
        }
    }
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 hash of the spec's canonical TOML form — the `spec_fingerprint`
/// lineage field carried by JSONL cell lines and result-cache entries.
pub fn spec_fingerprint(spec: &ExperimentSpec) -> u64 {
    fnv1a(canonical_toml(spec).as_bytes())
}

// ---------------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------------

/// Resolves a spec against this binary at the given model version: expands
/// workload selectors to concrete profiles, instantiates the config axes, and
/// stamps `model_version` onto every config. Fails if `model_version` is not
/// one this binary implements.
pub fn resolve_spec(spec: &ExperimentSpec, model_version: u32) -> Result<ResolvedSpec, String> {
    if !(1..=LATEST_MODEL_VERSION).contains(&model_version) {
        return Err(format!(
            "unknown model version {model_version} (this binary implements 1..={LATEST_MODEL_VERSION})"
        ));
    }
    let mut matrices = Vec::with_capacity(spec.matrices.len());
    for m in &spec.matrices {
        let workloads = match &m.workloads {
            WorkloadSelector::Spec2000Int => WorkloadProfile::spec2000int(),
            WorkloadSelector::Named(names) => names
                .iter()
                .map(|name| {
                    WorkloadProfile::by_name(name).ok_or_else(|| {
                        format!("matrix {:?}: unknown workload profile {name:?}", m.label)
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let configs = config_axis(&m.configs)
            .ok_or_else(|| format!("matrix {:?}: unknown config axis {:?}", m.label, m.configs))?
            .into_iter()
            .map(|c| c.with_model_version(model_version))
            .collect::<Vec<_>>();
        for (what, idx) in [("unfiltered_idx", m.unfiltered_idx), ("svw_idx", m.svw_idx)] {
            if let Some(idx) = idx {
                if idx >= configs.len() {
                    return Err(format!(
                        "matrix {:?}: {what} {idx} is out of range for axis {:?} ({} configs)",
                        m.label,
                        m.configs,
                        configs.len()
                    ));
                }
            }
        }
        matrices.push(ResolvedMatrix {
            label: m.label.clone(),
            workloads,
            configs,
            unfiltered_idx: m.unfiltered_idx,
            svw_idx: m.svw_idx,
        });
    }
    Ok(ResolvedSpec {
        spec: spec.clone(),
        fingerprint: spec_fingerprint(spec),
        model_version,
        matrices,
    })
}

// ---------------------------------------------------------------------------
// Builtin specs
// ---------------------------------------------------------------------------

const BUILTIN_SPEC_SOURCES: &[(&str, &str)] = &[
    ("fig5", include_str!("../specs/fig5.toml")),
    ("fig6", include_str!("../specs/fig6.toml")),
    ("fig7", include_str!("../specs/fig7.toml")),
    ("fig8", include_str!("../specs/fig8.toml")),
    ("ssn-width", include_str!("../specs/ssn-width.toml")),
    ("spec-ssbf", include_str!("../specs/spec-ssbf.toml")),
    (
        "substrate-ssbf",
        include_str!("../specs/substrate-ssbf.toml"),
    ),
    ("summary", include_str!("../specs/summary.toml")),
    (
        "adversarial-ssbf",
        include_str!("../specs/adversarial-ssbf.toml"),
    ),
    (
        "adversarial-svw",
        include_str!("../specs/adversarial-svw.toml"),
    ),
];

/// Raw TOML source of every builtin spec, keyed by artifact name.
pub fn builtin_spec_sources() -> &'static [(&'static str, &'static str)] {
    BUILTIN_SPEC_SOURCES
}

/// The parsed builtin specs, in artifact order. Parsed once; a builtin that
/// fails to parse is a build defect, so this panics rather than propagating.
pub fn builtin_specs() -> &'static [ExperimentSpec] {
    static SPECS: OnceLock<Vec<ExperimentSpec>> = OnceLock::new();
    SPECS.get_or_init(|| {
        BUILTIN_SPEC_SOURCES
            .iter()
            .map(|(name, src)| {
                let spec = parse_spec(src, &format!("builtin:{name}"))
                    .unwrap_or_else(|e| panic!("builtin spec is invalid: {e}"));
                assert_eq!(
                    spec.name, *name,
                    "builtin spec file name and spec name disagree"
                );
                spec
            })
            .collect()
    })
}

/// Looks up a builtin spec by artifact name.
pub fn spec_by_name(name: &str) -> Option<&'static ExperimentSpec> {
    builtin_specs().iter().find(|s| s.name == name)
}

/// Names of all builtin specs, in artifact order.
pub fn builtin_names() -> Vec<&'static str> {
    builtin_specs().iter().map(|s| s.name.as_str()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_specs_parse_and_cover_every_renderer() {
        let specs = builtin_specs();
        // Artifact names are unique, every spec names a known renderer, and
        // every renderer is exercised by at least one builtin spec. Renderers
        // may be shared, so this is a coverage contract, not a 1:1 pairing.
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "builtin artifact names collide");
        for spec in specs {
            assert!(
                RENDERER_NAMES.contains(&spec.renderer.as_str()),
                "{} names unknown renderer {}",
                spec.name,
                spec.renderer
            );
            assert!(!spec.description.is_empty());
            assert!(spec.adaptive.is_some());
        }
        for renderer in RENDERER_NAMES {
            assert!(
                specs.iter().any(|s| s.renderer == *renderer),
                "renderer {renderer} has no builtin spec exercising it"
            );
        }
    }

    #[test]
    fn builtin_specs_round_trip_through_canonical_toml() {
        for spec in builtin_specs() {
            let canonical = canonical_toml(spec);
            let reparsed = parse_spec(&canonical, "canonical").expect("canonical form parses");
            assert_eq!(&reparsed, spec, "round-trip changed {}", spec.name);
            assert_eq!(canonical_toml(&reparsed), canonical);
            assert_eq!(spec_fingerprint(&reparsed), spec_fingerprint(spec));
        }
    }

    #[test]
    fn fingerprint_is_sensitive_to_content_not_comments() {
        let (_, src) = BUILTIN_SPEC_SOURCES[0];
        let spec = parse_spec(src, "a").unwrap();
        let commented = format!("# a leading comment\n{src}");
        let same = parse_spec(&commented, "b").unwrap();
        assert_eq!(spec_fingerprint(&spec), spec_fingerprint(&same));

        let mut altered = spec.clone();
        altered.description.push('!');
        assert_ne!(spec_fingerprint(&spec), spec_fingerprint(&altered));
    }

    #[test]
    fn pinned_fingerprint_round_trips_and_mismatch_fails_with_location() {
        let spec = spec_by_name("fig5").unwrap();
        let fp = spec_fingerprint(spec);
        let pinned_src = format!("fingerprint = \"{fp:016x}\"\n{}", canonical_toml(spec));
        let parsed = parse_spec(&pinned_src, "pinned.toml").expect("matching pin parses");
        assert_eq!(parsed.pinned_fingerprint, Some(fp));
        assert_eq!(spec_fingerprint(&parsed), fp);

        let bad_src = format!(
            "fingerprint = \"{:016x}\"\n{}",
            fp ^ 1,
            canonical_toml(spec)
        );
        let e = parse_spec(&bad_src, "pinned.toml").unwrap_err();
        assert_eq!(e.file, "pinned.toml");
        assert_eq!(e.line, 1);
        assert!(e.message.contains("fingerprint mismatch"), "{e}");
    }

    #[test]
    fn unknown_axis_fails_with_file_line_and_suggestion() {
        let src = "schema_version = 1\nname = \"x\"\ndescription = \"d\"\nrenderer = \"fig5\"\n\n[[matrix]]\nlabel = \"x\"\nworkloads = \"spec2000int\"\nconfigs = \"fig5-nlqq\"\n";
        let e = parse_spec(src, "custom.toml").unwrap_err();
        assert_eq!((e.file.as_str(), e.line), ("custom.toml", 9));
        assert!(e.message.contains("unknown config axis"), "{e}");
        assert!(e.message.contains("did you mean \"fig5-nlq\"?"), "{e}");
    }

    #[test]
    fn bad_schema_version_fails_with_file_line() {
        let e = parse_spec("schema_version = 99\n", "v.toml").unwrap_err();
        assert_eq!((e.file.as_str(), e.line), ("v.toml", 1));
        assert!(
            e.message.contains("unsupported spec schema version 99"),
            "{e}"
        );
    }

    #[test]
    fn unknown_workload_and_renderer_fail_with_suggestions() {
        let src = "schema_version = 1\nname = \"x\"\ndescription = \"d\"\nrenderer = \"fig55\"\n";
        let e = parse_spec(src, "r.toml").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("did you mean \"fig5\"?"), "{e}");

        let src = "schema_version = 1\nname = \"x\"\ndescription = \"d\"\nrenderer = \"fig5\"\n\n[[matrix]]\nlabel = \"x\"\nworkloads = [\"craftyy\"]\nconfigs = \"fig5-nlq\"\n";
        let e = parse_spec(src, "w.toml").unwrap_err();
        assert_eq!(e.line, 8);
        assert!(e.message.contains("did you mean \"crafty\"?"), "{e}");
    }

    #[test]
    fn resolution_applies_model_version_to_every_config() {
        let spec = spec_by_name("summary").unwrap();
        let resolved = resolve_spec(spec, 2).unwrap();
        assert_eq!(resolved.model_version, 2);
        assert_eq!(resolved.matrices.len(), 3);
        for m in &resolved.matrices {
            assert!(m.configs.iter().all(|c| c.model_version == 2));
        }
        assert!(resolve_spec(spec, 0).is_err());
        assert!(resolve_spec(spec, LATEST_MODEL_VERSION + 1).is_err());
    }

    #[test]
    fn suggest_rejects_distant_names() {
        assert_eq!(suggest("fig5", ["fig6", "summary"]), Some("fig6"));
        assert_eq!(suggest("zzzzzz", ["fig5", "summary"]), None);
        assert_eq!(
            did_you_mean("sumary", ["fig5", "summary"]),
            " (did you mean \"summary\"?)"
        );
    }

    #[test]
    fn model_divergence_is_recorded_for_v2_only() {
        assert!(model_divergence(1).is_none());
        assert!(model_divergence(2).is_some());
    }
}
