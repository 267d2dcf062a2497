//! Workload profiles: the tunable behavioural parameters of a synthetic benchmark.

use svw_isa::Program;

use crate::generator::Generator;
use crate::spec;

/// The behavioural parameters of one synthetic workload.
///
/// Fractions are of the dynamic instruction stream (mix parameters) or of the dynamic
/// load/store streams (behaviour parameters) and are *targets*: the generator
/// constructs static code whose dynamic behaviour approximates them.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadProfile {
    /// Workload name (e.g. `"gcc"`).
    pub name: String,
    /// Fraction of dynamic instructions that are loads.
    pub load_frac: f64,
    /// Fraction of dynamic instructions that are stores.
    pub store_frac: f64,
    /// Fraction of dynamic instructions that are (conditional + unconditional)
    /// branches.
    pub branch_frac: f64,
    /// Fraction of dynamic instructions that are floating-point operations.
    pub fp_frac: f64,
    /// Branch "entropy": 0.0 = every static branch is strongly biased (easy to
    /// predict), 1.0 = branch outcomes are essentially random.
    pub branch_entropy: f64,
    /// Memory footprint of the strided / irregular heap streams, in 8-byte words.
    pub footprint_words: u64,
    /// Fraction of dynamic loads engineered to read an address written by a nearby
    /// older store (in-flight store-to-load forwarding candidates).
    pub forwarding_frac: f64,
    /// Fraction of dynamic loads engineered to repeat a recent load's base+offset with
    /// no intervening store (redundant loads eligible for load reuse).
    pub redundancy_frac: f64,
    /// Fraction of dynamic stores engineered to rewrite the value already in memory
    /// (silent stores).
    pub silent_store_frac: f64,
    /// Fraction of dynamic loads that belong to a pointer-chasing (load-to-load
    /// dependent, cache-unfriendly) stream.
    pub chase_frac: f64,
    /// Average ALU dependence-chain tightness: probability that an ALU operation
    /// consumes the result of one of the last few instructions (higher = less ILP).
    pub dependence_density: f64,
    /// Average loop trip count of the generated inner loops (shapes branch behaviour
    /// and code reuse).
    pub mean_trip_count: u32,
}

impl WorkloadProfile {
    /// Returns the sixteen SPEC2000-integer-like profiles used throughout the
    /// reproduction (`bzip2`, `crafty`, `eon.c`, `eon.k`, `eon.r`, `gap`, `gcc`,
    /// `gzip`, `mcf`, `parser`, `perl.d`, `perl.s`, `twolf`, `vortex`, `vpr.p`,
    /// `vpr.r`), in the paper's figure order.
    pub fn spec2000int() -> Vec<WorkloadProfile> {
        spec::spec2000int()
    }

    /// Returns the adversarial stress profiles (`adv.*`) used by the
    /// differential-oracle verification sweeps — generators tuned to attack the
    /// SVW/SSBF mechanisms (serialising dependence chains, same-granule aliasing,
    /// store-queue pressure, branch-misprediction storms) rather than to resemble
    /// a benchmark.
    pub fn adversarial() -> Vec<WorkloadProfile> {
        crate::adversarial::adversarial()
    }

    /// Looks up one of the named profiles — the sixteen SPEC-like ones or the
    /// adversarial `adv.*` family.
    pub fn by_name(name: &str) -> Option<WorkloadProfile> {
        Self::spec2000int()
            .into_iter()
            .chain(Self::adversarial())
            .find(|p| p.name == name)
    }

    /// A small, quick-to-simulate profile for examples, smoke tests and documentation.
    pub fn quicktest() -> WorkloadProfile {
        WorkloadProfile {
            name: "quicktest".to_string(),
            load_frac: 0.26,
            store_frac: 0.12,
            branch_frac: 0.13,
            fp_frac: 0.02,
            branch_entropy: 0.15,
            footprint_words: 1 << 14,
            forwarding_frac: 0.12,
            redundancy_frac: 0.20,
            silent_store_frac: 0.05,
            chase_frac: 0.05,
            dependence_density: 0.4,
            mean_trip_count: 12,
        }
    }

    /// Generates a resolved dynamic trace of approximately `num_insts` instructions
    /// using the deterministic `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile's fractions are not sane (see [`WorkloadProfile::validate`]).
    pub fn generate(&self, num_insts: usize, seed: u64) -> Program {
        self.validate();
        Generator::new(self, seed).generate(num_insts)
    }

    /// [`WorkloadProfile::generate`] plus the wall time the generation took, so
    /// instrumented runners can attribute trace-acquisition cost without timing
    /// around the call themselves.
    ///
    /// # Panics
    ///
    /// Panics if the profile's fractions are not sane (see [`WorkloadProfile::validate`]).
    pub fn generate_timed(&self, num_insts: usize, seed: u64) -> (Program, std::time::Duration) {
        let start = std::time::Instant::now();
        let program = self.generate(num_insts, seed);
        (program, start.elapsed())
    }

    /// A stable 64-bit fingerprint of every behavioural parameter (FNV-1a over the
    /// name and the raw bits of each knob). Two profiles share a fingerprint exactly
    /// when they would generate identical traces for the same `(num_insts, seed)`, so
    /// the trace cache uses it as part of its key: editing a profile automatically
    /// invalidates that profile's cached traces.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        mix(self.name.as_bytes());
        for f in [
            self.load_frac,
            self.store_frac,
            self.branch_frac,
            self.fp_frac,
            self.branch_entropy,
            self.forwarding_frac,
            self.redundancy_frac,
            self.silent_store_frac,
            self.chase_frac,
            self.dependence_density,
        ] {
            mix(&f.to_bits().to_le_bytes());
        }
        mix(&self.footprint_words.to_le_bytes());
        mix(&self.mean_trip_count.to_le_bytes());
        h
    }

    /// Checks that the profile's parameters are internally consistent.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is outside `[0, 1]`, the mix sums to more than 0.95 (no
    /// room for integer operations), or the footprint is zero.
    pub fn validate(&self) {
        let fracs = [
            self.load_frac,
            self.store_frac,
            self.branch_frac,
            self.fp_frac,
            self.branch_entropy,
            self.forwarding_frac,
            self.redundancy_frac,
            self.silent_store_frac,
            self.chase_frac,
            self.dependence_density,
        ];
        for f in fracs {
            assert!(
                (0.0..=1.0).contains(&f),
                "profile fraction {f} out of range in {}",
                self.name
            );
        }
        let mix = self.load_frac + self.store_frac + self.branch_frac + self.fp_frac;
        assert!(
            mix <= 0.95,
            "instruction mix of {} leaves no room for integer operations",
            self.name
        );
        assert!(self.footprint_words > 0, "footprint must be non-zero");
        assert!(
            self.mean_trip_count >= 1,
            "mean trip count must be at least 1"
        );
    }
}

/// The identity of one generated trace: the workload profile's parameter
/// [fingerprint](WorkloadProfile::fingerprint) plus the requested length and
/// generation seed — the same key the on-disk trace cache files are named by.
/// Keys carry the fingerprint rather than the profile itself, so editing a
/// profile changes the key instead of replaying a stale trace.
#[derive(Clone, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceKey {
    /// The workload profile's parameter fingerprint
    /// ([`WorkloadProfile::fingerprint`]).
    pub fingerprint: u64,
    /// Requested dynamic trace length.
    pub trace_len: u64,
    /// Workload-generation seed.
    pub seed: u64,
}

impl TraceKey {
    /// The key of `profile`'s trace at `(trace_len, seed)`.
    pub fn of(profile: &WorkloadProfile, trace_len: usize, seed: u64) -> TraceKey {
        TraceKey {
            fingerprint: profile.fingerprint(),
            trace_len: trace_len as u64,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_spec_profiles_are_valid_and_distinct() {
        let profiles = WorkloadProfile::spec2000int();
        assert_eq!(profiles.len(), 16);
        for p in &profiles {
            p.validate();
        }
        let mut names: Vec<&str> = profiles.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16, "profile names must be unique");
    }

    #[test]
    fn by_name_finds_known_and_rejects_unknown() {
        assert!(WorkloadProfile::by_name("mcf").is_some());
        assert!(WorkloadProfile::by_name("vortex").is_some());
        assert!(WorkloadProfile::by_name("linpack").is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_fraction_panics() {
        let mut p = WorkloadProfile::quicktest();
        p.load_frac = 1.5;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "no room")]
    fn oversubscribed_mix_panics() {
        let mut p = WorkloadProfile::quicktest();
        p.load_frac = 0.5;
        p.store_frac = 0.3;
        p.branch_frac = 0.2;
        p.validate();
    }

    #[test]
    fn fingerprints_are_stable_and_parameter_sensitive() {
        let a = WorkloadProfile::quicktest();
        assert_eq!(a.fingerprint(), WorkloadProfile::quicktest().fingerprint());
        let mut b = a.clone();
        b.load_frac += 0.01;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.name = "quicktest2".to_string();
        assert_ne!(a.fingerprint(), c.fingerprint());
        // All sixteen named profiles are pairwise distinct.
        let fps: std::collections::HashSet<u64> = WorkloadProfile::spec2000int()
            .iter()
            .map(|p| p.fingerprint())
            .collect();
        assert_eq!(fps.len(), 16);
    }

    #[test]
    fn keys_follow_the_profile_fingerprint() {
        let p = WorkloadProfile::quicktest();
        let k = TraceKey::of(&p, 1_000, 7);
        assert_eq!(k.fingerprint, p.fingerprint());
        assert_eq!((k.trace_len, k.seed), (1_000, 7));
        let mut edited = p.clone();
        edited.load_frac += 0.01;
        assert_ne!(TraceKey::of(&edited, 1_000, 7), k, "edits change the key");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p = WorkloadProfile::quicktest();
        let a = p.generate(2_000, 7);
        let b = p.generate(2_000, 7);
        let c = p.generate(2_000, 8);
        assert_eq!(a.instructions(), b.instructions());
        assert_ne!(a.instructions(), c.instructions());
    }

    #[test]
    fn generated_mix_tracks_profile_targets() {
        let p = WorkloadProfile::quicktest();
        let prog = p.generate(30_000, 3);
        let s = prog.stats();
        assert!(
            (s.load_fraction() - p.load_frac).abs() < 0.08,
            "load fraction {} vs target {}",
            s.load_fraction(),
            p.load_frac
        );
        assert!(
            (s.store_fraction() - p.store_frac).abs() < 0.06,
            "store fraction {} vs target {}",
            s.store_fraction(),
            p.store_frac
        );
        assert!(s.branch_fraction() > 0.03);
        assert!(s.forwarding_fraction() > 0.02);
        assert!(s.silent_stores > 0);
    }
}
