//! Golden exact-statistics test: absolute cycle-level anchors for the pipeline.
//!
//! Every other tier-1 test compares two paths of the same binary (recycled vs
//! fresh, oracle on vs off, cached vs simulated), so an instruction that issued
//! one cycle early would pass them all. This test pins the exact timing and
//! event counters of a small matrix of cells against committed values, chosen so
//! that every issue-stage special case is exercised:
//!
//! * the conventional LQ (associative ordering search → ordering flushes that
//!   stop the issue stage's select mid-way);
//! * the NLQ (marking loads that issue past unresolved stores, store-set waits);
//! * the SSQ (forwarding buffers and the single forwarding-SQ port);
//! * RLE (eliminated loads that dispatch pre-issued);
//! * narrow SSNs (wrap drains);
//! * model versions 1 and 2 (the FP issue-budget early exit);
//! * SPEC-like and adversarial (`adv.*`) workloads.
//!
//! The expected table lives in `tests/golden/exact_stats.txt`. On a mismatch the
//! failure message prints the complete actual table, so an *intentional* model
//! change is a reviewable diff of that file — and must come with a model-version
//! bump, never a silent re-pin.

use std::sync::Arc;

use svw_cpu::{Cpu, CpuStats, MachineConfig, SimArena};
use svw_sim::presets;
use svw_workloads::WorkloadProfile;

const TRACE_LEN: usize = 2_000;
const SEED: u64 = 7;
const WORKLOADS: [&str; 5] = ["gcc", "vortex", "adv.chain", "adv.alias", "adv.ssq"];
const GOLDEN: &str = include_str!("golden/exact_stats.txt");

/// The builtin workloads plus `fp-mix`, an FP-heavy mix with little dependence
/// (many FP ops ready at once).
fn workloads() -> Vec<WorkloadProfile> {
    let mut out: Vec<WorkloadProfile> = WORKLOADS
        .iter()
        .map(|name| WorkloadProfile::by_name(name).expect("builtin workload"))
        .collect();
    out.push(WorkloadProfile {
        name: "fp-mix".to_string(),
        fp_frac: 0.30,
        branch_frac: 0.10,
        dependence_density: 0.1,
        branch_entropy: 0.02,
        ..WorkloadProfile::quicktest()
    });
    out
}

/// The configuration matrix: (short label, machine configuration).
///
/// `narrow-issue` is the NLQ+SVW machine with one issue slot per non-FP class
/// (two integer), so the integer, memory and branch budgets are regularly all
/// spent in one cycle while FP slots remain — the case where the model-v1
/// early exit (which ignores the FP budget) and model v2 disagree.
fn configs() -> Vec<(&'static str, MachineConfig)> {
    let fig5 = presets::fig5_nlq_configs();
    let mut narrow = fig5[3].clone();
    narrow.issue_int = 2;
    narrow.issue_load = 1;
    narrow.issue_store = 1;
    narrow.issue_branch = 1;
    let fig6 = presets::fig6_ssq_configs();
    let fig7 = presets::fig7_rle_configs();
    let ssn = presets::ssn_width_configs();
    let policy = presets::ssbf_update_policy_configs();
    let mut out = vec![
        ("conv-lq", fig5[0].clone()),
        ("nlq-full", fig5[1].clone()),
        ("nlq-svw", fig5[3].clone()),
        ("nlq-atomic-ssbf", policy[1].clone()),
        ("ssq-full", fig6[1].clone()),
        ("ssq-svw", fig6[3].clone()),
        ("ssq-ssn8", ssn[0].clone()),
        ("rle-full", fig7[1].clone()),
        ("rle-svw", fig7[2].clone()),
        ("narrow-issue", narrow.clone()),
    ];
    for (label, cfg) in [
        ("conv-lq", &fig5[0]),
        ("nlq-svw", &fig5[3]),
        ("ssq-svw", &fig6[3]),
        ("rle-svw", &fig7[2]),
        ("narrow-issue", &narrow),
    ] {
        out.push((label, cfg.clone().with_model_version(2)));
    }
    out
}

/// One golden line: the cell identity followed by the pinned counters.
fn line(workload: &str, label: &str, cfg: &MachineConfig, s: &CpuStats) -> String {
    format!(
        "{workload} {label} v{}: cycles={} committed={} marked={} filtered={} \
         reexecuted={} eliminated={} commit_stalled_on_reexec={} reexec_port_conflicts={} \
         ordering_flushes={} reexec_flushes={} wrap_drains={} store_set_squashes={} \
         fwd_buffer_lookups={} fwd_buffer_hits={} svw.marked={} svw.filtered={} \
         svw.reexecuted={} svw.ssbf_store_updates={} \
         l1d_read_misses={} l2_read_misses={} memory_accesses={}",
        cfg.model_version,
        s.cycles,
        s.committed,
        s.loads_marked,
        s.loads_filtered,
        s.loads_reexecuted,
        s.loads_eliminated,
        s.commit_stalled_on_reexec,
        s.reexec_port_conflicts,
        s.ordering_flushes,
        s.reexec_flushes,
        s.wrap_drains,
        s.store_set_squashes,
        s.fwd_buffer_lookups,
        s.fwd_buffer_hits,
        s.svw.marked_loads,
        s.svw.filtered_loads,
        s.svw.reexecuted_loads,
        s.svw.ssbf_store_updates,
        s.hierarchy.l1d.read_misses,
        s.hierarchy.l2.read_misses,
        s.hierarchy.memory_accesses,
    )
}

#[test]
fn pipeline_statistics_match_the_committed_golden_table() {
    let configs = configs();
    // One recycled arena for every cell: the golden values must also hold when
    // each cell inherits a pipeline that the previous (different) cell used.
    let mut arena = SimArena::new();
    let mut actual = String::new();
    for profile in workloads() {
        let name = profile.name.as_str();
        let program = profile.generate(TRACE_LEN, SEED);
        for (label, cfg) in &configs {
            let cfg = Arc::new(cfg.clone());
            let stats = Cpu::recycle(&mut arena, &cfg, &program).run();
            assert_eq!(stats.committed, program.len() as u64, "{name} {label}");
            actual.push_str(&line(name, label, &cfg, &stats));
            actual.push('\n');
        }
    }
    if actual != GOLDEN {
        let first_diff = actual
            .lines()
            .zip(GOLDEN.lines())
            .find(|(a, g)| a != g)
            .map_or_else(
                || "line count differs".to_string(),
                |(a, g)| format!("expected: {g}\n  actual: {a}"),
            );
        panic!(
            "pipeline statistics diverged from tests/golden/exact_stats.txt\n  \
             {first_diff}\n\nfull actual table:\n{actual}"
        );
    }
}

/// The matrix really covers the special cases it claims to: each family's
/// distinguishing counter is non-zero somewhere in the golden table.
#[test]
fn golden_table_exercises_every_issue_stage_special_case() {
    let nonzero = |label: &str, key: &str| {
        GOLDEN.lines().any(|l| {
            l.split(' ').nth(1) == Some(label)
                && l.split(' ')
                    .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
                    .is_some_and(|v| v != "0")
        })
    };
    assert!(
        nonzero("conv-lq", "ordering_flushes"),
        "ordering-flush path"
    );
    assert!(nonzero("nlq-svw", "store_set_squashes"), "store-set waits");
    assert!(nonzero("ssq-svw", "fwd_buffer_lookups"), "SSQ forwarding");
    assert!(
        nonzero("rle-svw", "eliminated"),
        "pre-issued eliminated loads"
    );
    assert!(nonzero("ssq-ssn8", "wrap_drains"), "SSN wrap drains");
    assert!(
        nonzero("nlq-full", "reexec_flushes"),
        "re-execution flushes"
    );
    assert_eq!(GOLDEN.lines().count(), workloads().len() * configs().len());
    let counters = |version: &str| {
        let prefix = format!("fp-mix narrow-issue {version}:");
        GOLDEN
            .lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .expect("fp-mix narrow-issue row")
    };
    assert_ne!(
        counters("v1"),
        counters("v2"),
        "model versions 1 and 2 must differ on fp-mix × narrow-issue (the FP-budget early exit)"
    );
}
