//! State digesting for replay auditing.
//!
//! Every quantitative claim in the reproduction rests on runs being
//! bit-deterministic: serial and parallel executions of the same seeded
//! scenario must traverse *identical* state trajectories, not merely print
//! the same tables. [`StateDigest`] is the primitive that makes the
//! trajectory itself checkable: an FNV-1a 64-bit accumulator that
//! subsystems fold their observable state into (PCBs in PID order, host
//! resident lists, network counters, the wire horizon). The engine samples
//! the digest at fixed event-count checkpoints (see
//! [`Engine::audit_every`](crate::Engine::audit_every)), producing a
//! **digest stream** — and two runs replay identically if and only if their
//! streams match checkpoint for checkpoint. When they do not, the first
//! divergent checkpoint bounds the event window where determinism broke,
//! which is what the bench harness's bisecting reporter narrows down.
//!
//! FNV-1a is deliberately boring: byte-order-stable, dependency-free, and
//! cheap enough to hash a 120-host cluster's kernel state thousands of
//! times per run. It is not collision-resistant against adversaries; the
//! inputs are trusted simulation state.

use crate::SimTime;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a 64-bit accumulator over simulation state.
///
/// Integers are folded in little-endian byte order so digests are
/// platform-stable. Variable-length inputs (`write_bytes`, `write_str`)
/// fold their length first so concatenation ambiguities cannot collide.
///
/// # Examples
///
/// ```
/// use sprite_sim::StateDigest;
///
/// let mut a = StateDigest::new();
/// a.write_u64(7);
/// a.write_str("pid1.1");
/// let mut b = StateDigest::new();
/// b.write_u64(7);
/// b.write_str("pid1.1");
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StateDigest {
    hash: u64,
}

impl Default for StateDigest {
    fn default() -> Self {
        StateDigest::new()
    }
}

impl StateDigest {
    /// A fresh accumulator at the FNV offset basis.
    pub fn new() -> Self {
        StateDigest { hash: FNV_OFFSET }
    }

    /// Folds raw bytes (prefixed by their length).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.fold_u64(bytes.len() as u64);
        for &b in bytes {
            self.hash = (self.hash ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    fn fold_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.hash = (self.hash ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.fold_u64(v);
    }

    /// Folds a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.fold_u64(v as u64);
    }

    /// Folds a `u8`.
    pub fn write_u8(&mut self, v: u8) {
        self.fold_u64(v as u64);
    }

    /// Folds a `usize` widened to 64 bits.
    pub fn write_usize(&mut self, v: usize) {
        self.fold_u64(v as u64);
    }

    /// Folds a boolean as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.fold_u64(v as u64);
    }

    /// Folds a string's bytes (length-prefixed).
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Folds an optional `u64`: a presence byte, then the value.
    pub fn write_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.fold_u64(1);
                self.fold_u64(x);
            }
            None => self.fold_u64(0),
        }
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

/// One sampled point of a digest stream: after `events` events had
/// executed, at simulated time `at`, the state hashed to `digest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Events the engine had executed when the sample was taken.
    pub events: u64,
    /// Simulated time of the sample.
    pub at: SimTime,
    /// The state digest at that point.
    pub digest: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_reproducible_and_order_sensitive() {
        let mut a = StateDigest::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = StateDigest::new();
        b.write_u64(1);
        b.write_u64(2);
        assert_eq!(a.finish(), b.finish());
        let mut c = StateDigest::new();
        c.write_u64(2);
        c.write_u64(1);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        let mut a = StateDigest::new();
        a.write_bytes(b"ab");
        a.write_bytes(b"");
        let mut b = StateDigest::new();
        b.write_bytes(b"a");
        b.write_bytes(b"b");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn option_presence_is_distinguished() {
        let mut a = StateDigest::new();
        a.write_opt_u64(Some(0));
        let mut b = StateDigest::new();
        b.write_opt_u64(None);
        b.write_u64(0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a over the empty byte string is the offset basis; the length
        // prefix (zero) folds eight zero bytes first.
        let d = StateDigest::new();
        assert_eq!(d.finish(), FNV_OFFSET);
    }
}
