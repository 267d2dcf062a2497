//! Throughput benchmarks for the `.svwt` trace codec: instructions/second for
//! capture (encode) and replay (decode), plus the end-to-end comparison the cache
//! cares about — regenerating a workload versus reading its captured trace back.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use svw_trace::{read_program_from_slice, write_program_to_vec};
use svw_workloads::WorkloadProfile;

/// Long enough to amortize header costs, short enough for repeated sampling.
const BENCH_TRACE_LEN: usize = 50_000;

fn bench_codec(c: &mut Criterion) {
    let profile = WorkloadProfile::by_name("gcc").expect("gcc profile exists");
    let program = profile.generate(BENCH_TRACE_LEN, 1);
    let bytes = write_program_to_vec(&program, BENCH_TRACE_LEN, 1, profile.fingerprint());
    let insts = program.len() as u64;

    let mut group = c.benchmark_group("trace_codec");
    group.sample_size(10);
    group.throughput(Throughput::Elements(insts));

    group.bench_function("encode", |b| {
        b.iter(|| {
            black_box(write_program_to_vec(
                black_box(&program),
                BENCH_TRACE_LEN,
                1,
                profile.fingerprint(),
            ))
        })
    });

    group.bench_function("decode_materialized", |b| {
        b.iter(|| black_box(read_program_from_slice(black_box(&bytes)).unwrap()))
    });

    // The alternative the cache replaces: regenerating the workload from scratch.
    group.bench_function("generate_from_scratch", |b| {
        b.iter(|| black_box(profile.generate(BENCH_TRACE_LEN, 1)))
    });

    group.finish();
}

criterion_group!(trace_codec, bench_codec);
criterion_main!(trace_codec);
