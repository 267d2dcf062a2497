//! A sparse functional memory image.
//!
//! Both the oracle executor and the out-of-order core's committed-state model use this
//! structure, and both initialise untouched memory with the same deterministic
//! address-hash so they agree on the value of any location that has never been written.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{Addr, MemWidth, Value};

/// A deterministic multiplicative hasher for integer keys (addresses, PCs).
///
/// The memory image sits on the simulator's hottest path — every simulated load that
/// does not forward reads it — and the standard library's default SipHash is built
/// for HashDoS resistance this closed-world simulator does not need. One
/// multiply-xorshift round mixes word addresses (whose low bits are already zero)
/// well, and a fixed seed keeps every run identical.
#[derive(Clone, Default)]
pub struct IntKeyHasher(u64);

impl Hasher for IntKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (FNV-1a); the integer-key fast paths below are the ones
        // that matter.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let mut x = (v ^ self.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 32;
        self.0 = x;
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// A `HashMap` keyed by integers using [`IntKeyHasher`] — deterministic and fast.
pub type IntKeyMap<K, V> = HashMap<K, V, BuildHasherDefault<IntKeyHasher>>;

/// A sparse, word-granular functional memory image.
///
/// Storage is keyed by 8-byte-aligned word address; sub-word (4-byte) accesses are
/// merged into the containing word. Accesses must be naturally aligned and must not
/// cross an 8-byte boundary — the workload generator guarantees this, and the methods
/// assert it.
#[derive(Clone, Debug, Default)]
pub struct MemoryImage {
    words: IntKeyMap<Addr, Value>,
}

impl MemoryImage {
    /// Creates an empty image. Every location initially holds the deterministic
    /// background pattern returned by [`MemoryImage::background`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every written word (every location reads the background pattern
    /// again), retaining the underlying hash-table capacity for reuse.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// The deterministic background value of an 8-byte word that has never been
    /// written. A multiplicative hash of the word address keeps untouched memory
    /// value-diverse so that accidental "silent stores" essentially never occur unless
    /// a workload engineers them.
    #[inline]
    pub fn background(word_addr: Addr) -> Value {
        (word_addr >> 3)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31)
            ^ 0xA5A5_5A5A_DEAD_BEEF
    }

    #[inline]
    fn word_of(addr: Addr) -> Addr {
        addr & !0x7
    }

    #[inline]
    fn check_alignment(addr: Addr, width: MemWidth) {
        assert_eq!(
            addr % width.bytes(),
            0,
            "unaligned {width} access at {addr:#x}"
        );
    }

    /// Reads `width` bytes at `addr`, zero-extended to 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if the access is not naturally aligned.
    pub fn read(&self, addr: Addr, width: MemWidth) -> Value {
        Self::check_alignment(addr, width);
        let word_addr = Self::word_of(addr);
        let word = self
            .words
            .get(&word_addr)
            .copied()
            .unwrap_or_else(|| Self::background(word_addr));
        match width {
            MemWidth::W8 => word,
            MemWidth::W4 => {
                let shift = (addr - word_addr) * 8;
                (word >> shift) & width.mask()
            }
        }
    }

    /// Writes the low `width` bytes of `value` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the access is not naturally aligned.
    pub fn write(&mut self, addr: Addr, width: MemWidth, value: Value) {
        Self::check_alignment(addr, width);
        let word_addr = Self::word_of(addr);
        let old = self
            .words
            .get(&word_addr)
            .copied()
            .unwrap_or_else(|| Self::background(word_addr));
        let new = match width {
            MemWidth::W8 => value,
            MemWidth::W4 => {
                let shift = (addr - word_addr) * 8;
                let mask = width.mask() << shift;
                (old & !mask) | ((value & width.mask()) << shift)
            }
        };
        self.words.insert(word_addr, new);
    }

    /// Returns `true` if writing `value` with `width` at `addr` would leave memory
    /// unchanged — i.e. the write would be a *silent store*.
    pub fn would_be_silent(&self, addr: Addr, width: MemWidth, value: Value) -> bool {
        self.read(addr, width) == (value & width.mask())
    }

    /// Every touched word and its current value, sorted by address. Differential
    /// verification compares two images with this (hash-map iteration order is not
    /// deterministic, so the sort keeps divergence reports stable).
    pub fn touched_snapshot(&self) -> Vec<(Addr, Value)> {
        let mut words: Vec<(Addr, Value)> = self.words.iter().map(|(&a, &v)| (a, v)).collect();
        words.sort_unstable();
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_of_untouched_memory_is_background() {
        let m = MemoryImage::new();
        assert_eq!(
            m.read(0x1000, MemWidth::W8),
            MemoryImage::background(0x1000)
        );
        // Two different words have different background values (value diversity).
        assert_ne!(m.read(0x1000, MemWidth::W8), m.read(0x1008, MemWidth::W8));
    }

    #[test]
    fn write_then_read_roundtrip_w8() {
        let mut m = MemoryImage::new();
        m.write(0x2000, MemWidth::W8, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.read(0x2000, MemWidth::W8), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn write_then_read_roundtrip_w4() {
        let mut m = MemoryImage::new();
        m.write(0x2000, MemWidth::W4, 0x1234_5678);
        m.write(0x2004, MemWidth::W4, 0x9ABC_DEF0);
        assert_eq!(m.read(0x2000, MemWidth::W4), 0x1234_5678);
        assert_eq!(m.read(0x2004, MemWidth::W4), 0x9ABC_DEF0);
        // The containing quadword sees both halves.
        assert_eq!(m.read(0x2000, MemWidth::W8), 0x9ABC_DEF0_1234_5678);
    }

    #[test]
    fn sub_word_write_preserves_other_half() {
        let mut m = MemoryImage::new();
        m.write(0x3000, MemWidth::W8, 0x1111_1111_2222_2222);
        m.write(0x3004, MemWidth::W4, 0xFFFF_FFFF);
        assert_eq!(m.read(0x3000, MemWidth::W8), 0xFFFF_FFFF_2222_2222);
        assert_eq!(m.read(0x3000, MemWidth::W4), 0x2222_2222);
    }

    #[test]
    fn w4_write_masks_high_bits() {
        let mut m = MemoryImage::new();
        m.write(0x4000, MemWidth::W4, 0xFFFF_FFFF_0000_0001);
        assert_eq!(m.read(0x4000, MemWidth::W4), 1);
    }

    #[test]
    fn silent_store_detection() {
        let mut m = MemoryImage::new();
        m.write(0x5000, MemWidth::W8, 42);
        assert!(m.would_be_silent(0x5000, MemWidth::W8, 42));
        assert!(!m.would_be_silent(0x5000, MemWidth::W8, 43));
        // A store of the background value to untouched memory is also silent.
        let bg = MemoryImage::background(0x6000);
        assert!(m.would_be_silent(0x6000, MemWidth::W8, bg));
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_read_panics() {
        let m = MemoryImage::new();
        let _ = m.read(0x1001, MemWidth::W4);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_write_panics() {
        let mut m = MemoryImage::new();
        m.write(0x1004, MemWidth::W8, 0);
    }
}
