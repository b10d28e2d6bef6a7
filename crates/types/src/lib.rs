//! Core identifiers, system configuration, and combinatorics shared by the
//! whole `minsync` stack.
//!
//! `minsync` is a reproduction of *Minimal Synchrony for Asynchronous
//! Byzantine Consensus* (Bouzid, Mostéfaoui, Raynal — PODC 2015). This crate
//! holds the vocabulary of that paper:
//!
//! * [`ProcessId`] — the processes `p_1 … p_n` (0-based internally),
//! * [`Round`] — the round counter `r ≥ 1` of the round-based objects,
//! * [`SystemConfig`] — `n`, `t` with the paper's resilience bound `t < n/3`,
//!   quorum sizes, and the *m-valued feasibility* predicate `n − t > m·t`,
//! * [`RoundSchedule`] — the paper's `coord(r)` and `F(r)` maps (Section 5.2),
//!   built on exact [`combinatorics`] (binomial coefficients and
//!   lexicographic unranking of fixed-size subsets),
//! * [`BisourceSpec`] — a concrete ✸⟨x⟩bisource assignment (Section 4).
//!
//! It also holds the stack's one non-cryptographic digest, [`Fnv1a`]:
//! trace files, committed-log digests and effect-trace digests all fold
//! their bytes through it.
//!
//! # Example
//!
//! ```rust
//! use minsync_types::{SystemConfig, RoundSchedule, Round};
//!
//! # fn main() -> Result<(), minsync_types::ConfigError> {
//! let cfg = SystemConfig::new(7, 2)?;            // n = 7, t = 2 (t < n/3)
//! assert_eq!(cfg.quorum(), 5);                   // n − t
//! assert_eq!(cfg.m_max(), 2);                    // ⌊(n − (t+1)) / t⌋
//! assert!(cfg.feasible(2) && !cfg.feasible(3));  // n − t > m·t
//!
//! let sched = RoundSchedule::new(&cfg, 0)?;      // k = 0: |F(r)| = n − t
//! assert_eq!(sched.alpha(), 21);                 // C(7, 5)
//! assert_eq!(sched.coordinator(Round::new(8)).index(), 0); // p1 again
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisource;
pub mod check;
pub mod combinatorics;
mod config;
mod error;
mod id;
mod round;
mod schedule;
mod tally;
mod value;

pub use bisource::BisourceSpec;
pub use config::SystemConfig;
pub use error::ConfigError;
pub use id::{ProcSet, ProcessId};
pub use round::Round;
pub use schedule::RoundSchedule;
pub use tally::Tally;
pub use value::Value;

/// 64-bit FNV-1a.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The empty-input state.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Folds `word`'s little-endian bytes in.
    pub fn write_u64(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    /// The digest of everything folded in so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Hashes formatted output as the formatter produces it, so digesting a
/// `Debug` rendering never materializes a `String`.
impl core::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> core::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// [`Fnv1a`] over one byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.write(bytes);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        let mut streamed = Fnv1a::new();
        streamed.write(b"foo");
        core::fmt::Write::write_str(&mut streamed, "b").unwrap();
        streamed.write(b"ar");
        assert_eq!(streamed.finish(), fnv1a(b"foobar"));
        let mut word = Fnv1a::new();
        word.write_u64(0x0102_0304_0506_0708);
        assert_eq!(word.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }

    #[test]
    fn proc_set_deduplicates_members() {
        let mut s = ProcSet::default();
        for i in [3, 0, 127] {
            assert!(s.insert(ProcessId::new(i)));
            assert!(!s.insert(ProcessId::new(i)));
        }
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "outside a 128-process set")]
    fn proc_set_refuses_an_index_beyond_its_capacity() {
        ProcSet::default().insert(ProcessId::new(128));
    }
}
