//! Benchmarks of the decode-once trace arenas versus legacy per-cell decode.
//!
//! `decode/*` measures what a sweep pays to hand N cells the same trace:
//! the legacy path decodes once per cell; the arena path decodes once and
//! serves the rest from the registry.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use svw_workloads::{TraceArenas, TraceKey, WorkloadProfile};

/// One trace shared by a plausible config-sweep's worth of cells.
const BENCH_TRACE_LEN: usize = 20_000;
const CELLS: usize = 8;

fn bench_decode_sharing(c: &mut Criterion) {
    let profile = WorkloadProfile::by_name("gcc").expect("gcc profile exists");
    let key = TraceKey::of(&profile, BENCH_TRACE_LEN, 1);

    let mut group = c.benchmark_group("decode");
    group.sample_size(10);

    // Legacy: every cell decodes (here: generates) the trace for itself.
    group.bench_function("per_cell_x8", |b| {
        b.iter(|| {
            for _ in 0..CELLS {
                black_box(profile.generate(BENCH_TRACE_LEN, 1));
            }
        })
    });

    // Arena: the first cell decodes and publishes; the rest clone the Arc.
    group.bench_function("shared_arena_x8", |b| {
        b.iter(|| {
            let arenas = TraceArenas::new();
            arenas.register(&key, CELLS);
            for _ in 0..CELLS {
                let program = match arenas.lookup(&key) {
                    Some(program) => program,
                    None => {
                        let program = Arc::new(profile.generate(BENCH_TRACE_LEN, 1));
                        arenas.publish(&key, program.clone());
                        program
                    }
                };
                black_box(program.len());
                arenas.release(&key, 1);
            }
        })
    });

    group.finish();
}

criterion_group!(decode, bench_decode_sharing);
criterion_main!(decode);
