//! Property and determinism tests for the `.svwt` codec: encode→decode is the
//! identity on arbitrary generated programs, damaged images decode to an error
//! (never a panic or an aborted allocation), capture is byte-deterministic and
//! matches pinned images, and a replayed trace drives the timing model to exactly
//! the same statistics as the directly generated program.

use proptest::prelude::*;

use svw_cpu::{Cpu, LsqOrganization, MachineConfig, ReexecMode};
use svw_trace::{read_program_from_slice, write_program_to_vec};
use svw_workloads::WorkloadProfile;

/// A strategy over workload profiles: one of the sixteen SPEC-like profiles or the
/// quicktest profile, optionally with perturbed behaviour knobs (so the codec is
/// exercised on address/mix patterns beyond the named presets).
fn profile_strategy() -> impl Strategy<Value = WorkloadProfile> {
    (0usize..17, 0u64..4).prop_map(|(which, tweak)| {
        let mut p = if which == 16 {
            WorkloadProfile::quicktest()
        } else {
            WorkloadProfile::spec2000int().swap_remove(which)
        };
        match tweak {
            1 => p.chase_frac = (p.chase_frac + 0.05).min(0.3),
            2 => p.silent_store_frac = (p.silent_store_frac + 0.1).min(0.5),
            3 => p.footprint_words = (p.footprint_words / 2).max(1 << 10),
            _ => {}
        }
        p
    })
}

/// One way of damaging a valid `.svwt` image.
#[derive(Clone, Debug)]
enum Damage {
    /// Keep only the first `n % len` bytes.
    Truncate(usize),
    /// Flip bit `n % 8` of byte `(n / 8) % len`.
    FlipBit(usize),
    /// Overwrite the little-endian header field at this byte offset (seed,
    /// fingerprint, requested length or record count) with a value.
    Overwrite(usize, u64),
}

impl Damage {
    fn apply(&self, bytes: &mut Vec<u8>) {
        match *self {
            Damage::Truncate(n) => bytes.truncate(n % bytes.len()),
            Damage::FlipBit(n) => {
                let len = bytes.len();
                bytes[(n / 8) % len] ^= 1 << (n % 8);
            }
            Damage::Overwrite(offset, value) => {
                bytes[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
            }
        }
    }
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    let value = prop_oneof![
        0u64..4_096,
        Just(1u64 << 50),
        Just(u64::MAX),
        0u64..u64::MAX,
    ];
    prop_oneof![
        (0usize..1 << 16).prop_map(Damage::Truncate),
        (0usize..1 << 19).prop_map(Damage::FlipBit),
        // Header layout: magic (4), version (2), flags (2), then the four u64s.
        (0usize..4, value).prop_map(|(field, v)| Damage::Overwrite(8 + 8 * field, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Encode→decode is the identity for arbitrary generated programs.
    #[test]
    fn encode_decode_is_identity(
        profile in profile_strategy(),
        len in 200usize..2_500,
        seed in 0u64..1_000,
    ) {
        let program = profile.generate(len, seed);
        let bytes = write_program_to_vec(&program, len, seed, profile.fingerprint());
        let replayed = read_program_from_slice(&bytes).unwrap();
        prop_assert_eq!(program.name(), replayed.name());
        prop_assert_eq!(program.instructions(), replayed.instructions());
    }

    /// The compact format is actually compact: well under the ~56 bytes/inst of the
    /// in-memory representation.
    #[test]
    fn encoding_is_compact(seed in 0u64..50) {
        let profile = WorkloadProfile::quicktest();
        let program = profile.generate(2_000, seed);
        let bytes = write_program_to_vec(&program, 2_000, seed, profile.fingerprint());
        let per_inst = bytes.len() as f64 / program.len() as f64;
        prop_assert!(per_inst < 16.0, "encoding costs {per_inst:.1} bytes/inst");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A truncated, bit-flipped or header-overwritten image decodes to an error or
    /// to the original instructions — never a panic, never an aborted allocation.
    /// The checksum covers the header, so any change to a header byte is an error.
    #[test]
    fn damaged_images_decode_to_an_error_or_the_original(
        len in 50usize..800,
        seed in 0u64..1_000,
        damage in damage_strategy(),
    ) {
        let profile = WorkloadProfile::quicktest();
        let program = profile.generate(len, seed);
        let original = write_program_to_vec(&program, len, seed, profile.fingerprint());
        let mut bytes = original.clone();
        damage.apply(&mut bytes);
        // magic..count (40 bytes), the one-byte name length, then the name.
        let header_len = 41 + program.name().len();
        let header_damaged = bytes.len() < header_len || bytes[..header_len] != original[..header_len];
        if let Ok(decoded) = read_program_from_slice(&bytes) {
            prop_assert!(!header_damaged, "{:?} damaged the header, yet it decoded", damage);
            prop_assert_eq!(decoded.instructions(), program.instructions());
        }
    }
}

/// Same `(profile, trace_len, seed)` ⇒ byte-identical `.svwt` images.
#[test]
fn capture_is_byte_deterministic() {
    for name in ["gcc", "mcf", "vortex"] {
        let profile = WorkloadProfile::by_name(name).unwrap();
        let a = write_program_to_vec(&profile.generate(3_000, 7), 3_000, 7, profile.fingerprint());
        let b = write_program_to_vec(&profile.generate(3_000, 7), 3_000, 7, profile.fingerprint());
        assert_eq!(a, b, "{name}: capture must be byte-deterministic");
        let c = write_program_to_vec(&profile.generate(3_000, 8), 3_000, 8, profile.fingerprint());
        assert_ne!(a, c, "{name}: different seeds give different traces");
    }
}

/// The format's absolute anchor: these images' lengths and trailer checksums
/// were recorded from `svwsim capture --workload W --trace-len 3000 --seed 7`, so
/// a change to the encoder that moves a single byte of the format fails here,
/// not only against the previous build's output.
#[test]
fn pinned_images_keep_their_length_and_checksum() {
    for (name, len, checksum) in [
        ("gcc", 29_732, 0x8397_79d6_ba3d_e7c8_u64),
        ("mcf", 29_678, 0xd723_5d72_d9b3_8b72),
        ("vortex", 33_365, 0x4398_dda6_7105_6daa),
    ] {
        let profile = WorkloadProfile::by_name(name).unwrap();
        let image =
            write_program_to_vec(&profile.generate(3_000, 7), 3_000, 7, profile.fingerprint());
        assert_eq!(image.len(), len, "{name}: image length");
        let trailer = u64::from_le_bytes(image[len - 8..].try_into().unwrap());
        assert_eq!(
            trailer, checksum,
            "{name}: trailer checksum {trailer:#018x}"
        );
    }
}

fn nlq_svw_config() -> MachineConfig {
    MachineConfig::eight_wide(
        "nlq-svw",
        LsqOrganization::Nlq {
            store_exec_bandwidth: 2,
        },
        ReexecMode::Svw(svw_core::SvwConfig::paper_default()),
    )
}

/// Replaying a captured trace produces exactly the statistics of the generated
/// program — the timing model cannot tell the difference.
#[test]
fn replayed_trace_reproduces_cpu_stats() {
    let profile = WorkloadProfile::by_name("gcc").unwrap();
    let program = profile.generate(5_000, 11);
    let bytes = write_program_to_vec(&program, 5_000, 11, profile.fingerprint());

    let direct = Cpu::new(nlq_svw_config(), &program).run();

    let materialized_program = read_program_from_slice(&bytes).unwrap();
    let materialized = Cpu::new(nlq_svw_config(), &materialized_program).run();

    assert_eq!(format!("{direct:?}"), format!("{materialized:?}"));
    assert!(direct.committed >= 5_000);
}
