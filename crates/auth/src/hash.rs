//! SHA-256 (FIPS 180-4), hand-rolled, with two compression functions under
//! one [`Sha256`].
//!
//! The build environment has no network access, so there is no `sha2` crate
//! to pull. The portable path is the standard compression function written
//! out long-hand (`compress_scalar`), pinned to the NIST test vectors below.
//! On x86-64 CPUs with the SHA extensions, `update` and `finalize` hand
//! their runs of whole blocks to a SHA-NI kernel instead (module `ni`), which
//! keeps the state in two vector registers across the run — a 4 KiB payload
//! is one call of 64 blocks.
//!
//! Nothing picks the path but the CPU. Each call that compresses asks
//! `is_x86_feature_detected!` (a cached load) once and falls back to the
//! scalar function when `sha`, `ssse3` or `sse4.1` is missing. The kernel is
//! the crate's only `unsafe` code, and it is safe to run for one reason: the
//! only function pointer that reaches it is built inside the branch where
//! that check succeeded, so no caller can execute its instructions on a CPU
//! without them. It reads the state and the blocks through unaligned loads
//! within their bounds and writes nothing but the state. Both paths give
//! identical bytes; the tests run every vector through each and compare
//! them on random blocks, every length up to 300 bytes at every cut, and a
//! 1 MiB input.

/// Digest length in bytes.
pub const DIGEST_LEN: usize = 32;

/// Internal block size in bytes (also the HMAC block size).
pub const BLOCK_LEN: usize = 64;

/// The 64 round constants: fractional parts of the cube roots of the first
/// 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: fractional parts of the square roots of the first 8
/// primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A compression function over a run of whole blocks: `blocks.len()` is a
/// multiple of [`BLOCK_LEN`].
type Compress = fn(&mut [u32; 8], &[u8]);

/// Incremental SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    /// Total message length in bytes (the padding encodes it in bits).
    total: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hash state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        let fill = self.buf_len;
        if fill + data.len() < BLOCK_LEN {
            // `data` fits inside the partial block; nothing to compress.
            self.buf[fill..fill + data.len()].copy_from_slice(data);
            self.buf_len += data.len();
            return;
        }
        let compress = kernel();
        let mut rest = data;
        if fill > 0 {
            let (head, tail) = rest.split_at(BLOCK_LEN - fill);
            self.buf[fill..].copy_from_slice(head);
            compress(&mut self.state, &self.buf);
            rest = tail;
        }
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Pads, runs the final blocks, and returns the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // `update` leaves `buf_len < BLOCK_LEN`, so the 0x80 marker always
        // fits; the 8 length bytes need a second block when it lands past
        // byte 55.
        let mut pad = [0u8; 2 * BLOCK_LEN];
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[self.buf_len] = 0x80;
        let len = if self.buf_len < BLOCK_LEN - 8 {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        pad[len - 8..len].copy_from_slice(&self.total.wrapping_mul(8).to_be_bytes());
        kernel()(&mut self.state, &pad[..len]);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }
}

/// The compression function this CPU runs: the SHA-NI kernel when the CPU
/// has the instructions, the scalar one otherwise.
fn kernel() -> Compress {
    #[cfg(test)]
    if let Some(pinned) = PINNED.with(std::cell::Cell::get) {
        return pinned;
    }
    #[cfg(target_arch = "x86_64")]
    if let Some(ni) = ni::detected() {
        return ni;
    }
    compress_scalar
}

/// The FIPS 180-4 compression function, one block at a time: the portable
/// path, and the oracle the SHA-NI kernel is tested against.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The SHA-NI kernel (Intel SHA extensions): `sha256rnds2` runs two rounds,
/// `sha256msg1`/`sha256msg2` extend the message schedule four words at a
/// time.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::{Compress, BLOCK_LEN, K};

    /// The kernel as a safe [`Compress`], or `None` when this CPU lacks an
    /// instruction it runs (`sse2` is in the x86-64 baseline).
    pub(super) fn detected() -> Option<Compress> {
        if !(is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        {
            return None;
        }
        let kernel: Compress = |state, blocks| {
            // SAFETY: this pointer is built only past the check above, so
            // the CPU has `sha`, `ssse3` and `sse4.1` (and `sse2`, which
            // every x86-64 CPU has): all `compress` is compiled to use.
            unsafe { compress(state, blocks) }
        };
        Some(kernel)
    }

    /// Compresses `blocks` (whole blocks; a shorter tail is ignored) into
    /// `state`, keeping it in `abef`/`cdgh` registers across the run.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // The instructions hold the state as (a, b, e, f) and (c, d, g, h),
        // highest lane first.
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        for block in blocks.chunks_exact(BLOCK_LEN) {
            let (abef0, cdgh0) = (abef, cdgh);
            let words = block.as_ptr().cast::<__m128i>();
            // A sliding window of the next four schedule quads: each step
            // consumes `w[0]` and appends the quad after `w[3]` (past the
            // last one, the window just rotates).
            let mut w = [
                _mm_shuffle_epi8(_mm_loadu_si128(words), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(words.add(1)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(words.add(2)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(words.add(3)), bswap),
            ];
            for quad in 0..16 {
                let wk = _mm_add_epi32(w[0], _mm_loadu_si128(K.as_ptr().add(4 * quad).cast()));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                let next = if quad < 12 {
                    // W[t] = W[t-16] + σ0(W[t-15])  (msg1)
                    //      + W[t-7]                 (alignr)
                    //      + σ1(W[t-2])             (msg2), four t at once.
                    let partial = _mm_add_epi32(
                        _mm_sha256msg1_epu32(w[0], w[1]),
                        _mm_alignr_epi8(w[3], w[2], 4),
                    );
                    _mm_sha256msg2_epu32(partial, w[3])
                } else {
                    w[0]
                };
                w = [w[1], w[2], w[3], next];
            }
            abef = _mm_add_epi32(abef, abef0);
            cdgh = _mm_add_epi32(cdgh, cdgh0);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(
            state.as_mut_ptr().add(4).cast(),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }
}

#[cfg(test)]
thread_local! {
    /// The kernel a test pinned on this thread, in place of detection.
    static PINNED: std::cell::Cell<Option<Compress>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with every [`Sha256`] on this thread compressing through
/// `kernel`.
#[cfg(test)]
pub(crate) fn pinned<R>(kernel: Compress, f: impl FnOnce() -> R) -> R {
    let outer = PINNED.with(|p| p.replace(Some(kernel)));
    let out = f();
    PINNED.with(|p| p.set(outer));
    out
}

/// The SHA-NI kernel, or `None` — saying so on stderr, so that a test's
/// hardware half never passes silently on a CPU without it.
#[cfg(test)]
pub(crate) fn hardware() -> Option<Compress> {
    #[cfg(target_arch = "x86_64")]
    if let Some(ni) = ni::detected() {
        return Some(ni);
    }
    eprintln!("this CPU has no SHA extensions: the SHA-NI half of this test did not run");
    None
}

/// Both paths by name: the scalar one always, the SHA-NI kernel when the
/// CPU has it.
#[cfg(test)]
pub(crate) fn paths() -> Vec<(&'static str, Compress)> {
    let scalar: Compress = compress_scalar;
    std::iter::once(("scalar", scalar))
        .chain(hardware().map(|ni| ("sha-ni", ni)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `len` seeded pseudo-random bytes (splitmix64).
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// NIST FIPS 180-4 / NSRL example vectors — the implementation is
    /// pinned to these on both paths: any change to either compression
    /// function, the padding, or endianness breaks this test.
    #[test]
    fn nist_vectors() {
        for (path, kernel) in paths() {
            pinned(kernel, || {
                assert_eq!(
                    hex(&Sha256::digest(b"")),
                    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                    "{path}"
                );
                assert_eq!(
                    hex(&Sha256::digest(b"abc")),
                    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                    "{path}"
                );
                assert_eq!(
                    hex(&Sha256::digest(
                        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
                    )),
                    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                    "{path}"
                );
                // One million 'a's: exercises many-block hashing and the
                // length counter well past one block.
                let mut h = Sha256::new();
                for _ in 0..1_000 {
                    h.update(&[b'a'; 1_000]);
                }
                assert_eq!(
                    hex(&h.finalize()),
                    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                    "{path}"
                );
            });
        }
    }

    /// The padding boundaries: 55 bytes is the longest message whose
    /// marker and length share its last block, 56–63 need a block of their
    /// own for the length, 64 starts a fresh one (and the same one block
    /// later). Outputs recorded from the byte-at-a-time padding this
    /// replaced.
    #[test]
    fn padding_boundary_lengths() {
        let data: Vec<u8> = (0..120u16).map(|i| (i % 251) as u8).collect();
        for (path, kernel) in paths() {
            for (len, expected) in [
                (
                    55,
                    "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
                ),
                (
                    56,
                    "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
                ),
                (
                    63,
                    "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
                ),
                (
                    64,
                    "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
                ),
                (
                    119,
                    "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
                ),
                (
                    120,
                    "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
                ),
            ] {
                let digest = pinned(kernel, || Sha256::digest(&data[..len]));
                assert_eq!(hex(&digest), expected, "{path}, {len} bytes");
            }
        }
    }

    /// Incremental updates split at every boundary agree with one-shot.
    #[test]
    fn incremental_split_invariance() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let reference = Sha256::digest(&data);
        for cut in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finalize(), reference, "split at {cut}");
        }
    }

    /// The SHA-NI kernel against the scalar oracle on 10 000 seeded random
    /// blocks, each compressed from the initial state and chained through
    /// one running state — then the whole run in one call, which keeps the
    /// state in registers from block to block.
    #[test]
    fn kernels_agree_on_random_blocks() {
        let Some(ni) = hardware() else {
            return;
        };
        let blocks = random_bytes(1, 10_000 * BLOCK_LEN);
        let (mut scalar_chain, mut ni_chain) = (H0, H0);
        for (i, block) in blocks.chunks_exact(BLOCK_LEN).enumerate() {
            let (mut scalar, mut hw) = (H0, H0);
            compress_scalar(&mut scalar, block);
            ni(&mut hw, block);
            assert_eq!(hw, scalar, "block {i} from the initial state");
            compress_scalar(&mut scalar_chain, block);
            ni(&mut ni_chain, block);
            assert_eq!(ni_chain, scalar_chain, "block {i} chained");
        }
        let mut run = H0;
        ni(&mut run, &blocks);
        assert_eq!(run, scalar_chain, "one call over the whole run");
    }

    /// Whole digests through each path, pinned explicitly: every length
    /// 0..=300 (every padding case, one to five blocks), each also split
    /// into two updates at every cut, and a 1 MiB input.
    #[test]
    fn digests_agree_on_every_length_and_cut() {
        let Some(ni) = hardware() else {
            return;
        };
        let data = random_bytes(2, 300);
        for len in 0..=data.len() {
            let msg = &data[..len];
            let reference = pinned(compress_scalar, || Sha256::digest(msg));
            for (path, kernel) in [("scalar", compress_scalar as Compress), ("sha-ni", ni)] {
                pinned(kernel, || {
                    assert_eq!(Sha256::digest(msg), reference, "{path}, {len} bytes");
                    for cut in 0..=len {
                        let mut h = Sha256::new();
                        h.update(&msg[..cut]);
                        h.update(&msg[cut..]);
                        assert_eq!(h.finalize(), reference, "{path}, {len} bytes cut at {cut}");
                    }
                });
            }
        }
        let big = random_bytes(3, 1 << 20);
        assert_eq!(
            pinned(ni, || Sha256::digest(&big)),
            pinned(compress_scalar, || Sha256::digest(&big)),
            "1 MiB"
        );
    }
}
