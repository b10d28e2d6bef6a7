//! Message authentication for the `minsync` stack: per-message MACs for the
//! TCP transport, and the SHA-256 [`Digest`] the SMR layer agrees on in
//! place of a batch (DESIGN.md §6) — nothing else.
//!
//! The paper's model (Section 2.1) *assumes* a Byzantine process cannot
//! impersonate another. The simulator and threaded substrates enforce that
//! structurally (the router stamps true sender ids); the TCP transport
//! cannot — a socket claims whatever sender id it likes. This crate closes
//! that gap with an [`Authenticator`]: a per-process object that tags
//! outgoing bytes and verifies claimed senders. There are no signatures:
//! the paper's algorithm is signature-free, and so is every layer above
//! this crate (DESIGN.md §1).
//!
//! The one implementation is offline-friendly (the build environment has
//! no network, so everything is hand-rolled and pinned to published test
//! vectors — see [`hash`] and [`hmac`]): [`HmacAuthenticator`] holds
//! **pairwise symmetric keys**. A trusted dealer
//! ([`HmacAuthenticator::deal`]) derives one key per unordered process
//! pair from a cluster master secret and hands each replica only the `n`
//! keys involving it. MACs are HMAC-SHA256 truncated to [`MAC_LEN`] bytes
//! over `direction ‖ payload`, so a Byzantine *member* still cannot forge
//! traffic between two *other* correct members (it lacks their pair key),
//! and a tag for `i → j` never verifies as `j → i` (the direction is part
//! of the MAC input). Each key's HMAC pads are absorbed once, at dealing
//! time ([`hmac::HmacKey`]), and a frame is streamed through the saved
//! states: no allocation and no copy per tag.
//!
//! The crate's one `unsafe` island is the SHA-NI compression kernel in
//! [`hash`], reached only after runtime detection finds the instructions;
//! everywhere else `unsafe` stays an error.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod hash;
pub mod hmac;

use core::fmt::{self, Write as _};

use minsync_types::ProcessId;

use hash::Sha256;
use hmac::{hmac_sha256, HmacKey};

/// MAC tag length in bytes (HMAC-SHA256 truncated; 128-bit tags).
pub const MAC_LEN: usize = 16;

/// Symmetric key length in bytes.
pub const KEY_LEN: usize = 32;

/// A per-message authentication tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mac(pub [u8; MAC_LEN]);

impl fmt::Debug for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mac({})", to_hex(&self.0))
    }
}

/// Constant-time byte-slice equality: the comparison cost never depends on
/// *where* two tags differ, so a forger learns nothing from timing a
/// verifier (standard MAC-checking hygiene, even though this repository's
/// adversaries are in-process).
fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Per-process authentication: MAC tagging/verification for point-to-point
/// transport frames.
///
/// Implementations are shared by reference (`Arc<dyn Authenticator>`, one
/// per replica, handed to the mesh and to attacker threads alike), hence
/// `Send + Sync`.
///
/// Design note: `tag` takes the *receiver* (and `verify` the claimed
/// *sender*) because the HMAC implementation keys MACs per process pair —
/// a single per-sender key would let any cluster member forge any other
/// member's tags toward everyone, which is exactly the impersonation this
/// crate exists to prevent.
pub trait Authenticator: Send + Sync + fmt::Debug {
    /// The process this authenticator belongs to.
    fn me(&self) -> ProcessId;

    /// Tags `msg` for the channel `me → to`.
    fn tag(&self, to: ProcessId, msg: &[u8]) -> Mac;

    /// Verifies a tag for the channel `from → me`.
    fn verify(&self, from: ProcessId, msg: &[u8], mac: &Mac) -> bool;
}

/// Domain-separation labels: every construction in this crate hashes under
/// a distinct prefix so a value from one context never verifies in another.
mod domain {
    pub(crate) const PAIR: &[u8] = b"MSYN-AUTH-PAIR";
    pub(crate) const SELF: &[u8] = b"MSYN-AUTH-SELF";
    pub(crate) const MAC: &[u8] = b"MSYN-AUTH-MAC";
}

fn id_bytes(p: ProcessId) -> [u8; 4] {
    u32::try_from(p.index())
        .expect("process ids fit u32")
        .to_le_bytes()
}

// ---------------------------------------------------------------------------
// HMAC authenticator (pairwise keys)
// ---------------------------------------------------------------------------

/// Keyed-HMAC authenticator over pairwise symmetric keys (see crate docs).
///
/// `keys[j]` is the key shared with process `j` (`keys[me]` is a private
/// self key, never used on a wire). MAC input is
/// `MAC-domain ‖ from ‖ to ‖ msg`, binding the channel direction; the four
/// pieces are streamed through `macs[j]`, the key's precomputed
/// [`HmacKey`], so tagging or verifying a frame neither copies it nor
/// allocates.
#[derive(Clone)]
pub struct HmacAuthenticator {
    me: ProcessId,
    keys: Vec<[u8; KEY_LEN]>,
    macs: Vec<HmacKey>,
}

impl fmt::Debug for HmacAuthenticator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        f.debug_struct("HmacAuthenticator")
            .field("me", &self.me)
            .field("n", &self.keys.len())
            .finish()
    }
}

impl HmacAuthenticator {
    /// Trusted-dealer key distribution: derives the `n·(n−1)/2` pair keys
    /// from `master` and returns one authenticator per process, each
    /// holding **only its own** keyring — the object model enforces that a
    /// Byzantine member handed `ring[b]` cannot compute the key shared by
    /// two other processes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn deal(master: &[u8], n: usize) -> Vec<HmacAuthenticator> {
        assert!(n >= 2, "a cluster of one authenticates nothing");
        let pair_key = |i: usize, j: usize| -> [u8; KEY_LEN] {
            let (lo, hi) = (i.min(j), i.max(j));
            let mut input = Vec::with_capacity(domain::PAIR.len() + 8);
            input.extend_from_slice(domain::PAIR);
            input.extend_from_slice(&(lo as u32).to_le_bytes());
            input.extend_from_slice(&(hi as u32).to_le_bytes());
            hmac_sha256(master, &input)
        };
        (0..n)
            .map(|i| {
                let keys = (0..n)
                    .map(|j| {
                        if i == j {
                            let mut input = domain::SELF.to_vec();
                            input.extend_from_slice(&(i as u32).to_le_bytes());
                            hmac_sha256(master, &input)
                        } else {
                            pair_key(i, j)
                        }
                    })
                    .collect();
                HmacAuthenticator::from_keys(ProcessId::new(i), keys)
            })
            .collect()
    }

    fn from_keys(me: ProcessId, keys: Vec<[u8; KEY_LEN]>) -> Self {
        let macs = keys.iter().map(|key| HmacKey::new(key)).collect();
        HmacAuthenticator { me, keys, macs }
    }

    /// Cluster size this keyring was dealt for.
    pub fn n(&self) -> usize {
        self.keys.len()
    }

    /// Serializes the keyring for a CLI/env handoff:
    /// `me(4) ‖ n(4) ‖ n·KEY_LEN key bytes`, hex-encoded. The orchestrator
    /// deals keyrings in-process and passes each child only its own ring.
    pub fn to_hex(&self) -> String {
        let mut bytes = Vec::with_capacity(8 + self.keys.len() * KEY_LEN);
        bytes.extend_from_slice(&id_bytes(self.me));
        bytes.extend_from_slice(&(self.keys.len() as u32).to_le_bytes());
        for key in &self.keys {
            bytes.extend_from_slice(key);
        }
        to_hex(&bytes)
    }

    /// Parses a [`HmacAuthenticator::to_hex`] keyring.
    pub fn from_hex(s: &str) -> Option<HmacAuthenticator> {
        let bytes = from_hex(s)?;
        if bytes.len() < 8 {
            return None;
        }
        let me = u32::from_le_bytes(bytes[..4].try_into().ok()?) as usize;
        let n = u32::from_le_bytes(bytes[4..8].try_into().ok()?) as usize;
        if n < 2 || me >= n || bytes.len() != 8 + n * KEY_LEN {
            return None;
        }
        let keys = bytes[8..]
            .chunks_exact(KEY_LEN)
            .map(|c| c.try_into().expect("exact chunk"))
            .collect();
        Some(HmacAuthenticator::from_keys(ProcessId::new(me), keys))
    }

    fn mac(&self, from: ProcessId, to: ProcessId, msg: &[u8]) -> Option<Mac> {
        let peer = if from == self.me { to } else { from };
        let key = self.macs.get(peer.index())?;
        let full = key.mac(&[domain::MAC, &id_bytes(from), &id_bytes(to), msg]);
        Some(Mac(full[..MAC_LEN].try_into().expect("truncation fits")))
    }
}

impl Authenticator for HmacAuthenticator {
    fn me(&self) -> ProcessId {
        self.me
    }

    fn tag(&self, to: ProcessId, msg: &[u8]) -> Mac {
        self.mac(self.me, to, msg)
            .expect("receiver id within the dealt cluster")
    }

    fn verify(&self, from: ProcessId, msg: &[u8], mac: &Mac) -> bool {
        if from == self.me {
            return false; // nobody else holds our self key
        }
        match self.mac(from, self.me, msg) {
            Some(expected) => ct_eq(&expected.0, &mac.0),
            None => false, // out-of-range claimed sender
        }
    }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Digest of a value's `Debug` rendering — the same "canonical bytes of a
/// generic value" convention the conformance layer's effect digests use, so
/// digests over `V: Debug` (the SMR layer's agreed-on digests and its
/// commit-prefix gauge) need no extra codec bound.
pub fn debug_digest<T: fmt::Debug>(value: &T) -> [u8; 32] {
    let mut hasher = DebugHasher(Sha256::new());
    write!(hasher, "{value:?}").expect("hashing a rendering never fails");
    hasher.0.finalize()
}

/// Streams a `Debug` rendering into the hash as it is written: the bytes
/// `format!` would have built, without building them.
struct DebugHasher(Sha256);

impl fmt::Write for DebugHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.update(s.as_bytes());
        Ok(())
    }
}

/// The SHA-256 [`debug_digest`] of a value, as a value in its own right:
/// what the SMR layer runs the paper's consensus over in place of the
/// batch it stands for (DESIGN.md §6). Fixed-size and `Copy`, ordered and
/// hashable, so it satisfies `minsync_types::Value`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The digest of `value`.
    pub fn of<T: fmt::Debug>(value: &T) -> Digest {
        Digest(debug_digest(value))
    }
}

/// The first four bytes in hex: enough to tell digests apart in a trace.
impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", to_hex(&self.0[..4]))
    }
}

/// Lowercase hex encoding.
pub fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Strict lowercase/uppercase hex decoding (`None` on odd length or
/// non-hex characters).
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            Some((hi * 16 + lo) as u8)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Vec<HmacAuthenticator> {
        HmacAuthenticator::deal(b"test-master-secret", n)
    }

    #[test]
    fn pairwise_macs_verify_and_bind_direction() {
        let ring = ring(4);
        let msg = b"slot 7 ack";
        let tag = ring[1].tag(ProcessId::new(2), msg);
        assert!(ring[2].verify(ProcessId::new(1), msg, &tag));
        // Wrong claimed sender, wrong message, wrong receiver: all fail.
        assert!(!ring[2].verify(ProcessId::new(3), msg, &tag));
        assert!(!ring[2].verify(ProcessId::new(1), b"slot 8 ack", &tag));
        assert!(!ring[3].verify(ProcessId::new(1), msg, &tag));
        // Reflection: the same pair key, opposite direction — must fail,
        // the direction is in the MAC input.
        assert!(!ring[1].verify(ProcessId::new(2), msg, &tag));
    }

    #[test]
    fn a_byzantine_member_cannot_forge_between_two_others() {
        let ring = ring(4);
        let msg = b"forged checkpoint";
        // Member 3 (Byzantine) tries to make 2 accept traffic "from 1".
        // Its best move with its own keyring is tagging with one of its
        // keys — none of which is the (1,2) pair key.
        for to in 0..4usize {
            let forged = ring[3].tag(ProcessId::new(to % 4), msg);
            assert!(!ring[2].verify(ProcessId::new(1), msg, &forged));
        }
        // Out-of-range and self-claimed senders are rejected outright.
        assert!(!ring[2].verify(
            ProcessId::new(77),
            msg,
            &ring[3].tag(ProcessId::new(2), msg)
        ));
        assert!(!ring[2].verify(ProcessId::new(2), msg, &ring[2].tag(ProcessId::new(2), msg)));
    }

    #[test]
    fn distinct_masters_and_clusters_are_incompatible() {
        let a = HmacAuthenticator::deal(b"master-a", 4);
        let b = HmacAuthenticator::deal(b"master-b", 4);
        let msg = b"hello";
        let tag = a[0].tag(ProcessId::new(1), msg);
        assert!(!b[1].verify(ProcessId::new(0), msg, &tag));
    }

    #[test]
    fn keyring_hex_round_trips_and_rejects_garbage() {
        let ring = ring(4);
        let hex = ring[2].to_hex();
        let back = HmacAuthenticator::from_hex(&hex).expect("round-trips");
        assert_eq!(back.me(), ProcessId::new(2));
        assert_eq!(back.n(), 4);
        let msg = b"post-serialization";
        let tag = back.tag(ProcessId::new(0), msg);
        assert!(ring[0].verify(ProcessId::new(2), msg, &tag));

        assert!(HmacAuthenticator::from_hex("abc").is_none(), "odd length");
        assert!(HmacAuthenticator::from_hex("zz").is_none(), "non-hex");
        assert!(HmacAuthenticator::from_hex("").is_none(), "too short");
        // me >= n.
        let mut bytes = 9u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&[0; 4 * KEY_LEN]);
        assert!(HmacAuthenticator::from_hex(&to_hex(&bytes)).is_none());
    }

    #[test]
    fn hex_round_trips() {
        let bytes = [0x00u8, 0x0f, 0xf0, 0xff, 0x5a];
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert_eq!(to_hex(&bytes), "000ff0ff5a");
        assert!(from_hex("0").is_none());
        assert!(from_hex("0g").is_none());
    }

    #[test]
    fn debug_digest_separates_values() {
        assert_ne!(debug_digest(&1u64), debug_digest(&2u64));
        assert_eq!(debug_digest(&vec![1, 2]), debug_digest(&vec![1, 2]));
    }

    #[test]
    fn digest_is_the_debug_digest_with_a_short_rendering() {
        let d = Digest::of(&vec![1u64, 2]);
        assert_eq!(d.0, debug_digest(&vec![1u64, 2]));
        assert_ne!(d, Digest::of(&vec![1u64, 3]));
        assert_eq!(format!("{d:?}"), format!("Digest({}…)", to_hex(&d.0[..4])));
    }

    /// The streamed, precomputed-pad MAC is the one-shot HMAC over
    /// `domain ‖ from ‖ to ‖ msg` under the pair key, truncated — at every
    /// padding boundary of the inner hash — and one tag recorded before the
    /// pads were precomputed still verifies.
    #[test]
    fn tags_equal_the_one_shot_over_the_concatenated_input() {
        let ring = ring(4);
        let (from, to) = (ProcessId::new(1), ProcessId::new(2));
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        for len in [0, 1, 55, 56, 64, 4096] {
            let msg = &data[..len];
            let mut input = domain::MAC.to_vec();
            input.extend_from_slice(&id_bytes(from));
            input.extend_from_slice(&id_bytes(to));
            input.extend_from_slice(msg);
            let expected = hmac_sha256(&ring[1].keys[2], &input);
            let tag = ring[1].tag(to, msg);
            assert_eq!(tag.0, expected[..MAC_LEN], "{len} bytes");
            assert!(ring[2].verify(from, msg, &tag), "{len} bytes");
        }
        assert_eq!(
            to_hex(&ring[1].tag(to, &data[..64]).0),
            "d4cb5472c625883dbf16e03b55b322d5"
        );
    }

    #[test]
    fn deal_is_deterministic() {
        let a = ring(4);
        let b = ring(4);
        let msg = b"replayable";
        assert_eq!(
            a[0].tag(ProcessId::new(1), msg),
            b[0].tag(ProcessId::new(1), msg)
        );
    }
}
