//! Decode-once shared trace arenas.
//!
//! A *trace arena* is the decoded, immutable instruction stream of one trace —
//! an [`Arc<Program>`] keyed by [`TraceKey`] — shared by every simulation cell
//! that consumes that trace. The sweep engine already shares a trace between the
//! cells of one plan; [`TraceArenas`] extends the sharing *across* plans (the
//! matrices of a multi-table artifact, adaptive re-rounds), so each
//! `(workload fingerprint, trace_len, seed)` stream is decoded exactly once per
//! process however many sweeps consume it.
//!
//! Lifetime is reference-counted by *registered uses*, not by `Arc` clones:
//! every holder that wants an arena kept warm registers a use up front
//! ([`TraceArenas::register`]) and releases it when done
//! ([`TraceArenas::release`]) — on every path, including failed or panicked
//! cells — so peak memory is bounded by the arenas with live registrations, not
//! by the whole matrix. An arena whose last use is released is dropped
//! immediately; a later lookup simply decodes again.
//!
//! Sharing never changes results: the arena stores the same `Program` a cell
//! would generate for itself, which the decode-sharing tests compare byte for
//! byte against a per-cell generate-and-simulate reference.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use svw_isa::Program;

use crate::WorkloadProfile;

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

/// One arena slot: the decoded program (lazily published by the first consumer
/// that decodes it) plus the number of registered uses still outstanding.
#[derive(Debug)]
struct ArenaSlot {
    program: Option<Arc<Program>>,
    remaining: usize,
}

/// A process-wide registry of decoded trace arenas (see the module docs).
///
/// All methods are `&self` and thread-safe: workers of concurrent sweeps may
/// look up, publish, and release arenas freely.
#[derive(Debug, Default)]
pub struct TraceArenas {
    slots: Mutex<HashMap<TraceKey, ArenaSlot>>,
    /// Programs decoded (published) into the registry.
    decodes: AtomicU64,
    /// Lookups served from an already-decoded arena.
    shared_hits: AtomicU64,
    /// High-water mark of simultaneously decoded arenas.
    peak_decoded: AtomicU64,
}

impl TraceArenas {
    /// Creates an empty registry.
    pub fn new() -> Self {
        TraceArenas::default()
    }

    /// Registers `uses` future consumers of `key`'s arena. The arena (once
    /// decoded) stays warm until every registered use has been released.
    pub fn register(&self, key: &TraceKey, uses: usize) {
        if uses == 0 {
            return;
        }
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let slot = slots.entry(key.clone()).or_insert(ArenaSlot {
            program: None,
            remaining: 0,
        });
        slot.remaining += uses;
    }

    /// Releases `uses` registered consumers of `key`. When the last use goes,
    /// the slot (and the decoded program, if any) is dropped immediately.
    ///
    /// Releasing a key with no registered uses is a no-op: a defensive choice so
    /// a failed cell's cleanup can never underflow the count.
    pub fn release(&self, key: &TraceKey, uses: usize) {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(slot) = slots.get_mut(key) {
            slot.remaining = slot.remaining.saturating_sub(uses);
            if slot.remaining == 0 {
                slots.remove(key);
            }
        }
    }

    /// The decoded arena for `key`, if a consumer has already published it.
    /// A hit is counted as a shared decode (the caller skipped a decode).
    pub fn lookup(&self, key: &TraceKey) -> Option<Arc<Program>> {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let hit = slots.get(key).and_then(|s| s.program.clone());
        if hit.is_some() {
            self.shared_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Publishes a freshly decoded arena for `key`. A publish for a key with no
    /// registered uses (e.g. every consumer already finished via the legacy
    /// path) is dropped on the floor rather than retained unreclaimably.
    pub fn publish(&self, key: &TraceKey, program: Arc<Program>) {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let Some(slot) = slots.get_mut(key) else {
            return;
        };
        if slot.program.is_none() {
            slot.program = Some(program);
            self.decodes.fetch_add(1, Ordering::Relaxed);
            let live = slots.values().filter(|s| s.program.is_some()).count() as u64;
            self.peak_decoded.fetch_max(live, Ordering::Relaxed);
        }
    }

    /// Programs decoded into the registry so far.
    pub fn decodes(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }

    /// Lookups served from an already-decoded arena.
    pub fn shared_hits(&self) -> u64 {
        self.shared_hits.load(Ordering::Relaxed)
    }

    /// High-water mark of simultaneously decoded arenas.
    pub fn peak_decoded(&self) -> u64 {
        self.peak_decoded.load(Ordering::Relaxed)
    }

    /// Number of arenas currently holding a decoded program.
    pub fn live_decoded(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .filter(|s| s.program.is_some())
            .count()
    }

    /// Number of keys with registered (unreleased) uses.
    pub fn live_keys(&self) -> usize {
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// An RAII registration of a set of trace keys: registers one use per key on
/// construction, releases them all on drop. Used by multi-matrix artifacts to
/// keep their arenas warm across the matrices of the artifact (and *only* that
/// long), whatever path the render takes — including early returns and panics.
pub struct ArenaPin<'a> {
    arenas: &'a TraceArenas,
    keys: Vec<TraceKey>,
}

impl<'a> ArenaPin<'a> {
    /// Registers one use of every distinct key in `keys` (duplicates are
    /// de-duplicated so the pin holds exactly one use per key).
    pub fn new(arenas: &'a TraceArenas, mut keys: Vec<TraceKey>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        for key in &keys {
            arenas.register(key, 1);
        }
        ArenaPin { arenas, keys }
    }
}

impl Drop for ArenaPin<'_> {
    fn drop(&mut self) {
        for key in &self.keys {
            self.arenas.release(key, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> TraceKey {
        TraceKey::of(&WorkloadProfile::quicktest(), 500, seed)
    }

    fn program() -> Arc<Program> {
        Arc::new(WorkloadProfile::quicktest().generate(500, 1))
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
    fn register_publish_lookup_release_lifecycle() {
        let arenas = TraceArenas::new();
        let k = key(1);
        assert!(arenas.lookup(&k).is_none());
        arenas.register(&k, 2);
        // Publish, then both registered uses see the same arena.
        arenas.publish(&k, program());
        let a = arenas.lookup(&k).expect("published");
        let b = arenas.lookup(&k).expect("still warm");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(arenas.decodes(), 1);
        assert_eq!(arenas.shared_hits(), 2);
        arenas.release(&k, 1);
        assert!(arenas.lookup(&k).is_some(), "one use still registered");
        arenas.release(&k, 1);
        assert!(arenas.lookup(&k).is_none(), "dropped after the last use");
        assert_eq!(arenas.live_keys(), 0);
    }

    #[test]
    fn publish_without_registration_is_dropped() {
        let arenas = TraceArenas::new();
        let k = key(2);
        arenas.publish(&k, program());
        assert_eq!(arenas.decodes(), 0);
        assert!(arenas.lookup(&k).is_none());
        assert_eq!(arenas.live_keys(), 0, "nothing retained unreclaimably");
    }

    #[test]
    fn release_never_underflows() {
        let arenas = TraceArenas::new();
        let k = key(3);
        arenas.release(&k, 5); // no-op
        arenas.register(&k, 1);
        arenas.release(&k, 99); // saturates to zero, slot dropped
        assert_eq!(arenas.live_keys(), 0);
    }

    #[test]
    fn pin_holds_exactly_one_use_per_distinct_key() {
        let arenas = TraceArenas::new();
        let (k1, k2) = (key(4), key(5));
        {
            let _pin = ArenaPin::new(&arenas, vec![k1.clone(), k2.clone(), k1.clone()]);
            assert_eq!(arenas.live_keys(), 2);
            arenas.register(&k1, 1);
            arenas.publish(&k1, program());
            arenas.release(&k1, 1);
            // The pin's use keeps the arena warm after the sweep's own release.
            assert!(arenas.lookup(&k1).is_some());
        }
        // Dropping the pin releases everything.
        assert_eq!(arenas.live_keys(), 0);
        assert!(arenas.lookup(&k1).is_none());
        assert!(arenas.lookup(&k2).is_none());
    }

    #[test]
    fn peak_tracks_simultaneously_decoded_arenas() {
        let arenas = TraceArenas::new();
        let (k1, k2) = (key(6), key(7));
        arenas.register(&k1, 1);
        arenas.register(&k2, 1);
        arenas.publish(&k1, program());
        arenas.publish(&k2, program());
        assert_eq!(arenas.peak_decoded(), 2);
        arenas.release(&k1, 1);
        assert_eq!(arenas.live_decoded(), 1);
        assert_eq!(arenas.peak_decoded(), 2, "peak is a high-water mark");
    }
}
