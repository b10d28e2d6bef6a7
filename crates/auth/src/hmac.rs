//! HMAC-SHA256 (RFC 2104) over the hand-rolled hash, pinned to the RFC 4231
//! test vectors.

use crate::hash::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// The RFC 2104 key preprocessing: keys longer than the 64-byte block are
/// hashed down first, shorter keys are zero-padded.
fn block_key(key: &[u8]) -> [u8; BLOCK_LEN] {
    let mut block_key = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        block_key[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
    } else {
        block_key[..key.len()].copy_from_slice(key);
    }
    block_key
}

/// `HMAC-SHA256(key, msg)` — the reference one-shot [`HmacKey`] is tested
/// against.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; DIGEST_LEN] {
    let block_key = block_key(key);
    let mut inner = Sha256::new();
    let ipad: Vec<u8> = block_key.iter().map(|b| b ^ 0x36).collect();
    inner.update(&ipad);
    inner.update(msg);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    let opad: Vec<u8> = block_key.iter().map(|b| b ^ 0x5c).collect();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// An HMAC-SHA256 key with both pads already absorbed: the inner and outer
/// hash states after their first block, computed once per key. A MAC then
/// costs the message's own compressions plus two, with no allocation and
/// no copy of the message — per frame, that is what is left of the auth
/// cost once frames are small.
///
/// Deliberately not `Debug`: the midstates are key material.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Absorbs `key`'s pads.
    pub fn new(key: &[u8]) -> Self {
        let block_key = block_key(key);
        let mut inner = Sha256::new();
        inner.update(&block_key.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&block_key.map(|b| b ^ 0x5c));
        HmacKey { inner, outer }
    }

    /// `HMAC-SHA256(key, pieces[0] ‖ pieces[1] ‖ …)`, byte-identical to
    /// [`hmac_sha256`] over the concatenation.
    pub fn mac(&self, pieces: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut inner = self.inner.clone();
        for piece in pieces {
            inner.update(piece);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{paths, pinned};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 4231 test cases 1, 2, 6, and 7 — short key, short-key-with-
    /// padding, oversized key, and oversized key with long data — on both
    /// compression paths.
    #[test]
    fn rfc4231_vectors() {
        for (path, kernel) in paths() {
            pinned(kernel, || {
                // Case 1.
                assert_eq!(
                    hex(&hmac_sha256(&[0x0b; 20], b"Hi There")),
                    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
                    "{path}"
                );
                // Case 2: "Jefe" / "what do ya want for nothing?".
                assert_eq!(
                    hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
                    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
                    "{path}"
                );
                // Case 6: 131-byte key (hashed down), "Test Using Larger
                // Than Block-Size Key - Hash Key First".
                assert_eq!(
                    hex(&hmac_sha256(
                        &[0xaa; 131],
                        b"Test Using Larger Than Block-Size Key - Hash Key First"
                    )),
                    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
                    "{path}"
                );
                // Case 7: 131-byte key, long data.
                assert_eq!(
                    hex(&hmac_sha256(
                        &[0xaa; 131],
                        b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm."
                    )),
                    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
                    "{path}"
                );
            });
        }
    }

    /// The precomputed-midstate path against the one-shot, across the
    /// padding boundaries of the inner hash, key lengths on both sides of
    /// the block size, and every way of cutting the message in two.
    #[test]
    fn midstate_key_matches_the_one_shot() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        for key in [&b"Jefe"[..], &[0x0b; 32], &[0xaa; 64], &[0xaa; 131]] {
            let fast = HmacKey::new(key);
            for len in [0, 1, 55, 56, 64, 4096] {
                let msg = &data[..len];
                let expected = hmac_sha256(key, msg);
                assert_eq!(fast.mac(&[msg]), expected, "{len} bytes, one piece");
                for cut in [0, len / 2, len] {
                    let (a, b) = msg.split_at(cut);
                    assert_eq!(fast.mac(&[a, b]), expected, "{len} bytes cut at {cut}");
                }
            }
        }
    }

    /// The midstate key, on each path, against the one-shot on the scalar
    /// path: every length 0..=300 and 1 MiB.
    #[test]
    fn midstate_key_matches_the_one_shot_on_every_length() {
        let data: Vec<u8> = (0..1u32 << 20)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        let lengths: Vec<usize> = (0..=300).chain([data.len()]).collect();
        let paths = paths();
        let (_, scalar) = paths[0];
        let expected: Vec<_> = pinned(scalar, || {
            lengths
                .iter()
                .map(|&len| hmac_sha256(b"Jefe", &data[..len]))
                .collect()
        });
        for (path, kernel) in paths {
            pinned(kernel, || {
                let key = HmacKey::new(b"Jefe");
                for (&len, expected) in lengths.iter().zip(&expected) {
                    assert_eq!(&key.mac(&[&data[..len]]), expected, "{path}, {len} bytes");
                }
            });
        }
    }

    #[test]
    fn distinct_keys_distinct_macs() {
        let m = b"the same message";
        assert_ne!(hmac_sha256(b"key-a", m), hmac_sha256(b"key-b", m));
        assert_ne!(hmac_sha256(b"key-a", m), hmac_sha256(b"key-a", b"other"));
    }
}
