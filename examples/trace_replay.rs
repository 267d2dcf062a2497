//! Trace capture and replay: capture a workload to the `.svwt` format, decode it
//! back with `TraceReader::read_program`, and show that the timing model cannot
//! tell the replay from the directly generated program — plus what a trace-cache
//! miss (generate and capture) and a hit (read and decode) each cost.
//!
//! Run with: `cargo run --release --example trace_replay`

use svw::core::SvwConfig;
use svw::cpu::{Cpu, LsqOrganization, MachineConfig, ReexecMode};
use svw::trace::{TraceCache, TraceReader};
use svw::workloads::WorkloadProfile;

fn config() -> MachineConfig {
    MachineConfig::eight_wide(
        "nlq-svw",
        LsqOrganization::Nlq {
            store_exec_bandwidth: 2,
        },
        ReexecMode::Svw(SvwConfig::paper_default()),
    )
}

fn main() {
    let profile = WorkloadProfile::by_name("gcc").expect("gcc profile exists");
    let (trace_len, seed) = (100_000, 1);

    // Capture: generate once, serialize to the compact binary format.
    let program = profile.generate(trace_len, seed);
    let bytes = svw::trace::write_program_to_vec(&program, trace_len, seed, profile.fingerprint());
    println!(
        "captured {}: {} instructions -> {} bytes ({:.1} B/inst)",
        program.name(),
        program.len(),
        bytes.len(),
        bytes.len() as f64 / program.len() as f64,
    );

    // Replay: decode the whole trace (checksum verified), then simulate it.
    let reader = TraceReader::new(bytes.as_slice()).expect("valid header");
    println!(
        "header: workload {}, seed {}, {} records",
        reader.header().name,
        reader.header().seed,
        reader.header().count
    );
    let replayed_program = reader.read_program().expect("valid trace");
    let direct = Cpu::new(config(), &program).run();
    let replayed = Cpu::new(config(), &replayed_program).run();
    println!(
        "direct   IPC {:.4}, {:.2}% loads re-executed",
        direct.ipc(),
        direct.reexec_rate()
    );
    println!(
        "replayed IPC {:.4}, {:.2}% loads re-executed",
        replayed.ipc(),
        replayed.reexec_rate()
    );
    assert_eq!(format!("{direct:?}"), format!("{replayed:?}"));
    println!("direct and replayed runs produced identical statistics");

    // The cache: first acquisition generates and captures, the second reads back.
    let dir = std::env::temp_dir().join("svw-example-trace-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = TraceCache::new(&dir).expect("cache dir is writable");
    let (_, first, miss) = cache
        .get_or_generate_metered(&profile, trace_len, seed)
        .expect("capture works");
    let (_, second, hit) = cache
        .get_or_generate_metered(&profile, trace_len, seed)
        .expect("replay works");
    println!(
        "cache: first acquisition {first:?} generated in {:?}, second {second:?} decoded {} bytes in {:?}",
        miss.generate, hit.bytes_read, hit.decode
    );
    let _ = std::fs::remove_dir_all(&dir);
}
