//! Deterministic hashing for simulation state.
//!
//! `std`'s default `RandomState` seeds SipHash differently on every process
//! start. That is the right call for a network service and the wrong one for
//! a simulation: any state that ever iterates a hash table would make runs
//! irreproducible, and SipHash's per-lookup cost is pure overhead against an
//! adversary that does not exist inside a closed experiment. This module
//! provides the workspace's one sanctioned hash algorithm: an FxHash-style
//! multiply-and-rotate hasher (the scheme rustc itself uses for interned
//! IDs), fixed seed, identical on every run and every platform with the same
//! endianness of results (the hash is computed over little-endian words, so
//! values are portable).
//!
//! Clippy's `disallowed_types` (configured in the workspace's `clippy.toml`
//! files) rejects `std::collections::HashMap`/`HashSet` and `RandomState`
//! anywhere else in the workspace; simulation state uses [`DetHashMap`] /
//! [`DetHashSet`] instead.
//!
//! Every table operation routes through [`DetState::build_hasher`], which
//! bumps a thread-local probe counter — the data-plane analogue of
//! [`EngineCounters`](crate::EngineCounters) — so benches can report how much
//! hashing a scenario actually does. Read it with [`hash_probes`], or
//! [`take_hash_probes`] to read-and-reset (worker threads flush into an
//! aggregate this way).

use std::cell::Cell;
#[expect(
    clippy::disallowed_types,
    reason = "the deterministic aliases below are the one sanctioned use"
)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// The FxHash multiplier (a 64-bit truncation of pi's digits, as used by
/// Firefox and rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

thread_local! {
    static HASH_PROBES: Cell<u64> = const { Cell::new(0) };
}

/// Hash-table probes (one per map/set operation) performed by the current
/// thread through [`DetState`] since the last [`take_hash_probes`].
pub fn hash_probes() -> u64 {
    HASH_PROBES.with(Cell::get)
}

/// Reads and resets the current thread's probe counter. Worker threads call
/// this when they finish and add the result into a shared total.
pub fn take_hash_probes() -> u64 {
    HASH_PROBES.with(|c| c.replace(0))
}

/// An FxHash-style word-at-a-time hasher: fold each input word in with a
/// rotate, xor, and multiply. Not collision-resistant against adversaries —
/// exactly as strong as it needs to be for trusted simulation keys, and
/// several times cheaper than SipHash on the small integer keys (PIDs, host
/// IDs, interned path symbols) the data plane uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" | "" and "a" | "b" prefixes differ.
            self.add_word(u64::from_le_bytes(tail) ^ (rest.len() as u64));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_word(i as u64);
        self.add_word((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }
}

/// A [`BuildHasher`] producing [`FxHasher`]s from a fixed seed. Replaces
/// `RandomState` throughout the workspace; construct maps with
/// `DetHashMap::default()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetState;

impl BuildHasher for DetState {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        HASH_PROBES.with(|c| c.set(c.get() + 1));
        FxHasher::default()
    }
}

/// A `HashMap` with deterministic, fast hashing — the only hash map
/// simulation state may use.
///
/// # Examples
///
/// ```
/// use sprite_sim::DetHashMap;
///
/// let mut m: DetHashMap<u32, &str> = DetHashMap::default();
/// m.insert(7, "seven");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// ```
#[expect(
    clippy::disallowed_types,
    reason = "fixed-seed hasher, not RandomState"
)]
pub type DetHashMap<K, V> = HashMap<K, V, DetState>;

/// A `HashSet` with deterministic, fast hashing; see [`DetHashMap`].
#[expect(
    clippy::disallowed_types,
    reason = "fixed-seed hasher, not RandomState"
)]
pub type DetHashSet<T> = HashSet<T, DetState>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn hashing_is_reproducible() {
        assert_eq!(hash_of(b"hello world"), hash_of(b"hello world"));
        let mut a = FxHasher::default();
        a.write_u64(0xdead_beef);
        let mut b = FxHasher::default();
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(hash_of(b"a"), hash_of(b"b"));
        assert_ne!(hash_of(b"ab"), hash_of(b"a"));
        // Tail-length folding: same padded word, different lengths.
        assert_ne!(hash_of(&[1, 0]), hash_of(&[1]));
        let mut a = FxHasher::default();
        a.write_u64(1);
        let mut b = FxHasher::default();
        b.write_u32(1);
        // u64 and u32 writes of the same value fold the same word; that is
        // fine (keys of one map share a type), just document the behavior.
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn map_iteration_order_is_stable_across_tables() {
        let mut a: DetHashMap<u64, u64> = DetHashMap::default();
        let mut b: DetHashMap<u64, u64> = DetHashMap::default();
        for i in 0..1000 {
            a.insert(i * 7919, i);
            b.insert(i * 7919, i);
        }
        let ka: Vec<u64> = a.keys().copied().collect();
        let kb: Vec<u64> = b.keys().copied().collect();
        assert_eq!(ka, kb, "identical insertions iterate identically");
    }

    #[test]
    fn probe_counter_counts_operations() {
        let before = hash_probes();
        let mut m: DetHashMap<u32, u32> = DetHashMap::default();
        m.insert(1, 1);
        m.insert(2, 2);
        let _ = m.get(&1);
        let probes = hash_probes() - before;
        assert!(probes >= 3, "3 operations must probe at least 3 times");
    }

    #[test]
    fn take_resets() {
        let mut m: DetHashMap<u32, u32> = DetHashMap::default();
        m.insert(1, 1);
        assert!(take_hash_probes() > 0);
        let after = hash_probes();
        assert_eq!(after, 0);
    }
}
