//! Hand-rolled binary wire codec for the `minsync` stack.
//!
//! Every other substrate in this repository exchanges messages as in-memory
//! Rust values; the TCP transport (`minsync-transport`) needs *bytes*. The
//! build environment has no network access, so there is no serde — this
//! crate is the manual, dependency-free replacement: a [`Wire`] trait
//! (`encode_into` / `decode`) implemented for every message type that
//! crosses a socket, plus the two pieces of connection plumbing every byte
//! protocol needs:
//!
//! * **Length-prefixed framing** ([`encode_frame`] / [`split_frame`]): each
//!   message travels as a little-endian `u32` length followed by the
//!   encoded body. The length is validated against a hard cap *before* any
//!   allocation, so a Byzantine peer announcing a multi-gigabyte frame
//!   costs the receiver four bytes of header, not memory
//!   ([`DEFAULT_MAX_FRAME`]).
//! * **A versioned handshake header** ([`Hello`]): the first bytes on every
//!   connection are a magic tag, the codec version, the sender's claimed
//!   process id, the cluster size, and a key-confirmation tag (all zeros on
//!   unauthenticated clusters). Mismatches reject the connection before any
//!   protocol traffic is parsed.
//! * **Authenticated frames** ([`encode_frame_tagged`] /
//!   [`verify_frame_tag`]): on authenticated clusters every frame carries a
//!   [`minsync_auth::Mac`] over its body appended after it, and receivers
//!   verify the tag **before** handing the body to any decoder — forged
//!   bytes are rejected by a constant-time tag check, never parsed. The
//!   frame cap applies to the *body*: a maximum-size message still fits an
//!   authenticated frame (readers allow [`FRAME_TAG_OVERHEAD`] extra bytes
//!   via [`tagged_frame_cap`]).
//!
//! # Encoding rules
//!
//! The format is deliberately boring: all integers are fixed-width
//! little-endian, enums are a one-byte tag followed by the variant's
//! fields, structs are their fields in order, and sequences are a `u32`
//! count followed by the elements. Each enum or struct layout is declared
//! once, as a `tag => Variant { fields }` table that generates both the
//! encoder and the decoder, so the two cannot drift apart. A tag is fixed
//! by its table line, not by declaration order, and a retired tag is never
//! reused. Decoders must consume input exactly: trailing bytes inside a
//! frame are an error ([`decode_frame`]), truncated input is an error, and
//! every invalid tag or out-of-range value is an error — a decoder never
//! panics on attacker-controlled bytes (property-tested in
//! `tests/prop_wire.rs`).
//!
//! Sequence decoding is allocation-bounded: a declared element count is
//! checked against the *remaining input length* before reserving anything,
//! so the largest possible allocation is proportional to the frame size,
//! which the framing layer already capped.
//!
//! # Versioning
//!
//! [`WIRE_VERSION`] must be bumped whenever any `Wire` implementation (or
//! the framing / handshake layout) changes incompatibly. Peers with
//! different versions refuse each other at handshake time — a cluster is
//! always all-old or all-new.
//!
//! ```rust
//! use minsync_wire::{decode_frame, encode_frame, Wire, DEFAULT_MAX_FRAME};
//! use minsync_smr::SmrMsg;
//! use minsync_workload::Batch;
//!
//! let msg: SmrMsg<Batch> = SmrMsg::Ack { slot: 7 };
//! let mut frame = Vec::new();
//! encode_frame(&msg, &mut frame, DEFAULT_MAX_FRAME).unwrap();
//! let (payload, consumed) = minsync_wire::split_frame(&frame, DEFAULT_MAX_FRAME)
//!     .unwrap()
//!     .expect("complete frame");
//! assert_eq!(consumed, frame.len());
//! assert_eq!(decode_frame::<SmrMsg<Batch>>(payload).unwrap(), msg);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

/// Implements [`Wire`] for an enum from its one layout table,
/// `Type<G…> { tag => Variant { fields } | Variant(bindings) | Variant, … }`:
/// `encode_into` writes the tag and then each listed field in order,
/// `decode` reads them back in the same order, and any other tag is
/// [`WireError::InvalidTag`] naming the type. (A tuple variant's binding
/// names only drive the repetition when decoding.)
macro_rules! wire_enum {
    ($ty:ident $(<$($g:ident),+>)? {
        $($tag:literal => $variant:ident $({ $($field:ident),+ })? $(( $($bind:ident),+ ))?),+ $(,)?
    }) => {
        impl$(<$($g: $crate::Wire),+>)? $crate::Wire for $ty$(<$($g),+>)? {
            fn encode_into(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $({ $($field),+ })? $(( $($bind),+ ))? => {
                        out.push($tag);
                        $($($crate::Wire::encode_into($field, out);)+)?
                        $($($crate::Wire::encode_into($bind, out);)+)?
                    })+
                }
            }

            fn decode(input: &mut &[u8]) -> Result<Self, $crate::WireError> {
                match <u8 as $crate::Wire>::decode(input)? {
                    $($tag => Ok($ty::$variant
                        $({ $($field: $crate::Wire::decode(input)?),+ })?
                        $(( $({ let $bind = $crate::Wire::decode(input)?; $bind }),+ ))?),)+
                    tag => Err($crate::WireError::InvalidTag { ty: stringify!($ty), tag }),
                }
            }
        }
    };
}

/// Implements [`Wire`] for a struct from its field list,
/// `Type<G…> { fields }`: the fields, in the listed order.
macro_rules! wire_struct {
    ($ty:ident $(<$($g:ident),+>)? { $($field:ident),+ $(,)? }) => {
        impl$(<$($g: $crate::Wire),+>)? $crate::Wire for $ty$(<$($g),+>)? {
            fn encode_into(&self, out: &mut Vec<u8>) {
                $($crate::Wire::encode_into(&self.$field, out);)+
            }

            fn decode(input: &mut &[u8]) -> Result<Self, $crate::WireError> {
                Ok($ty { $($field: $crate::Wire::decode(input)?),+ })
            }
        }
    };
}

mod impls;
mod trace;

use core::fmt;

use minsync_auth::{Authenticator, Mac, MAC_LEN};
use minsync_types::ProcessId;

/// Codec version carried in every [`Hello`]. Bump on any incompatible
/// change to an encoding, the framing, or the handshake itself.
///
/// History: v1 — original framing and 14-byte `Hello`; v2 — `Hello` grew
/// the key-confirmation tag and frames may carry per-message MACs.
pub const WIRE_VERSION: u16 = 2;

/// Magic tag opening every connection — rejects accidental cross-protocol
/// connections (a browser, a port scanner) with a clean error instead of a
/// confusing decode failure.
pub const MAGIC: [u8; 4] = *b"MSYN";

/// Default hard cap on one frame's payload length (1 MiB). A correct
/// replica's largest message is a batch of a few hundred `u64` commands —
/// orders of magnitude below this; anything larger is garbage or an attack.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Why a decode failed. All variants are *data* errors: the input bytes
/// cannot be a valid encoding. Transports must treat any of them as a
/// Byzantine (or foreign) peer and drop the connection — never the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// An enum tag byte matched no variant.
    InvalidTag {
        /// The type being decoded.
        ty: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A structurally valid field carried an out-of-range value (e.g. a
    /// zero round number).
    InvalidValue(&'static str),
    /// A frame header announced a payload beyond the configured cap.
    FrameTooLarge {
        /// Announced payload length.
        len: usize,
        /// Configured cap.
        cap: usize,
    },
    /// A frame's payload decoded successfully but left bytes unconsumed.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A handshake did not start with [`MAGIC`].
    BadMagic,
    /// A handshake carried a different [`WIRE_VERSION`].
    VersionMismatch {
        /// The version this side speaks.
        ours: u16,
        /// The version the peer announced.
        theirs: u16,
    },
    /// An authentication tag failed to verify (or was missing): the claimed
    /// sender does not hold the channel key. Transports must cut the
    /// connection exactly like a decode error.
    AuthFailed,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::InvalidTag { ty, tag } => write!(f, "invalid tag {tag:#04x} for {ty}"),
            WireError::InvalidValue(what) => write!(f, "invalid value: {what}"),
            WireError::FrameTooLarge { len, cap } => {
                write!(f, "frame of {len} bytes exceeds the {cap}-byte cap")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete value")
            }
            WireError::BadMagic => write!(f, "handshake does not start with the MSYN magic"),
            WireError::VersionMismatch { ours, theirs } => {
                write!(
                    f,
                    "wire version mismatch: ours {ours}, peer announced {theirs}"
                )
            }
            WireError::AuthFailed => write!(f, "authentication tag failed to verify"),
        }
    }
}

impl std::error::Error for WireError {}

/// A type with a canonical binary encoding (see the crate docs for the
/// format rules).
///
/// `decode` takes `&mut &[u8]` and advances the slice past the bytes it
/// consumed, so implementations compose by plain sequencing. The contract
/// is round-trip identity: for every value, `decode(encode(v)) == v` with
/// all input consumed — property-tested for every implementation in this
/// crate.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `input`, advancing it past the
    /// consumed bytes.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the bytes are not a valid encoding; `input`'s
    /// position is unspecified after an error.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError>;

    /// Convenience: this value's encoding as a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Appends one length-prefixed frame carrying `msg` to `out`.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] if the encoded body exceeds `cap` (the
/// frame is not written in that case).
pub fn encode_frame<T: Wire>(msg: &T, out: &mut Vec<u8>, cap: usize) -> Result<(), WireError> {
    let header_at = out.len();
    out.extend_from_slice(&[0, 0, 0, 0]);
    msg.encode_into(out);
    let len = out.len() - header_at - 4;
    if len > cap || u32::try_from(len).is_err() {
        out.truncate(header_at);
        return Err(WireError::FrameTooLarge { len, cap });
    }
    out[header_at..header_at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// A zero-length frame used as an idle-connection liveness probe.
///
/// A writer with nothing to send cannot otherwise discover that its peer
/// closed the connection (TCP only reports the break on the *next* write),
/// so idle writers emit these probes periodically. Receivers skip them
/// before MAC verification and before the codec: a keepalive carries no
/// payload, so forging one achieves nothing.
pub const KEEPALIVE_FRAME: [u8; 4] = [0, 0, 0, 0];

/// Control-frame tag of an RTT probe (see [`control_frame`]).
pub const PING_TAG: u8 = 0xC5;

/// Control-frame tag of an RTT probe's echo, carrying the probe's stamp
/// back unchanged.
pub const PONG_TAG: u8 = 0xC6;

/// Payload length of a ping/pong control frame: one tag byte plus the
/// originator's 8-byte stamp.
pub const CONTROL_LEN: usize = 9;

/// Builds a ping/pong control frame (header + tag + little-endian stamp).
///
/// Like [`KEEPALIVE_FRAME`], control frames are connection-level plumbing:
/// receivers recognize them *before* MAC verification and before the
/// codec. That is sound for the same reason the keepalive is: they carry
/// no protocol data, so forging one can at worst perturb a health gauge.
/// Ambiguity with real payloads is excluded structurally — with
/// authentication on, every data payload carries a [`MAC_LEN`]-byte tag
/// and is therefore longer than [`CONTROL_LEN`]; without it, the codec
/// never emits a 9-byte message whose first byte is in the `0xC5..=0xC6`
/// range (enum discriminants are small integers).
pub fn control_frame(tag: u8, stamp: u64) -> [u8; 13] {
    let mut out = [0u8; 13];
    out[..4].copy_from_slice(&(CONTROL_LEN as u32).to_le_bytes());
    out[4] = tag;
    out[5..].copy_from_slice(&stamp.to_le_bytes());
    out
}

/// Recognizes a ping/pong control frame's payload, returning its tag and
/// stamp. `None` for anything else — the payload is then ordinary data.
pub fn split_control(payload: &[u8]) -> Option<(u8, u64)> {
    if payload.len() != CONTROL_LEN || !(payload[0] == PING_TAG || payload[0] == PONG_TAG) {
        return None;
    }
    let stamp = u64::from_le_bytes(payload[1..].try_into().expect("8-byte slice"));
    Some((payload[0], stamp))
}

/// Attempts to split one frame off the front of `buf`.
///
/// Returns `Ok(None)` while the buffer holds only a partial frame (read
/// more bytes and retry — this is what lets stream readers survive
/// arbitrary packetization), or `Ok(Some((payload, consumed)))` where
/// `consumed` covers the header and payload.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] as soon as a header announces a payload
/// beyond `cap` — before any of the payload arrives, so an attacker cannot
/// make the receiver buffer toward an absurd length.
pub fn split_frame(buf: &[u8], cap: usize) -> Result<Option<(&[u8], usize)>, WireError> {
    let Some(header) = buf.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(header.try_into().expect("4-byte slice")) as usize;
    if len > cap {
        return Err(WireError::FrameTooLarge { len, cap });
    }
    match buf.get(4..4 + len) {
        Some(payload) => Ok(Some((payload, 4 + len))),
        None => Ok(None),
    }
}

/// Decodes a frame payload as exactly one `T`.
///
/// # Errors
///
/// Any decode error of `T`, or [`WireError::TrailingBytes`] if the payload
/// holds more than one value — a frame carries exactly one message.
pub fn decode_frame<T: Wire>(mut payload: &[u8]) -> Result<T, WireError> {
    let value = T::decode(&mut payload)?;
    if payload.is_empty() {
        Ok(value)
    } else {
        Err(WireError::TrailingBytes {
            extra: payload.len(),
        })
    }
}

/// [`decode_frame`], plus the wall-clock cost of the call in nanoseconds —
/// the telemetry layer's codec-timing probe. The measurement wraps only the
/// decode itself; the caller decides whether to record it, so untraced
/// paths keep calling [`decode_frame`] directly and pay nothing.
pub fn decode_frame_timed<T: Wire>(payload: &[u8]) -> (Result<T, WireError>, u64) {
    let start = std::time::Instant::now();
    let res = decode_frame(payload);
    (res, start.elapsed().as_nanos() as u64)
}

// ---------------------------------------------------------------------------
// Authenticated framing
// ---------------------------------------------------------------------------

/// Bytes an authenticated frame adds after the body (the MAC tag).
pub const FRAME_TAG_OVERHEAD: usize = MAC_LEN;

/// The frame-length cap a *reader* must apply on an authenticated
/// connection: the body cap plus the tag. Using the bare body cap would
/// reject a maximum-size message the moment authentication is enabled —
/// the accounting bug this helper exists to prevent (unit-tested at the
/// exact boundary below).
pub const fn tagged_frame_cap(cap: usize) -> usize {
    cap + FRAME_TAG_OVERHEAD
}

/// Appends one authenticated frame: length prefix, encoded body, then the
/// MAC over the body for the channel `auth.me() → to`.
///
/// The `cap` check applies to the **body** (symmetric with the reader's
/// [`tagged_frame_cap`]), so any message sendable unauthenticated is
/// sendable authenticated.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] if the encoded body exceeds `cap` (the
/// frame is not written in that case).
pub fn encode_frame_tagged<T: Wire>(
    msg: &T,
    out: &mut Vec<u8>,
    cap: usize,
    auth: &dyn Authenticator,
    to: ProcessId,
) -> Result<(), WireError> {
    let header_at = out.len();
    out.extend_from_slice(&[0, 0, 0, 0]);
    msg.encode_into(out);
    let body_len = out.len() - header_at - 4;
    if body_len > cap || u32::try_from(body_len + MAC_LEN).is_err() {
        out.truncate(header_at);
        return Err(WireError::FrameTooLarge { len: body_len, cap });
    }
    let mac = auth.tag(to, &out[header_at + 4..]);
    out.extend_from_slice(&mac.0);
    out[header_at..header_at + 4].copy_from_slice(&((body_len + MAC_LEN) as u32).to_le_bytes());
    Ok(())
}

/// Verifies an authenticated frame payload's trailing MAC for the channel
/// `from → auth.me()` and returns the body (everything before the tag),
/// ready for [`decode_frame`]. This runs **before** any decoding: forged
/// bytes never reach a parser.
///
/// # Errors
///
/// [`WireError::AuthFailed`] if the payload is too short to carry a tag or
/// the tag does not verify.
pub fn verify_frame_tag<'a>(
    payload: &'a [u8],
    auth: &dyn Authenticator,
    from: ProcessId,
) -> Result<&'a [u8], WireError> {
    let Some(body_len) = payload.len().checked_sub(MAC_LEN) else {
        return Err(WireError::AuthFailed);
    };
    let (body, tag) = payload.split_at(body_len);
    let mac = Mac(tag.try_into().expect("exactly MAC_LEN bytes"));
    if auth.verify(from, body, &mac) {
        Ok(body)
    } else {
        Err(WireError::AuthFailed)
    }
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// The fixed-size header opening every connection, sent before any frame.
///
/// On an **authenticated** cluster `auth_tag` carries a key-confirmation
/// MAC over the header fields for the dialed peer (build with
/// [`Hello::authenticated`], check with [`Hello::verify_auth`]): completing
/// the handshake proves the dialer holds the channel key, so a claimed
/// sender id is *proven*, not trusted. On unauthenticated clusters the tag
/// is all zeros and ignored — the paper's no-impersonation assumption
/// (Section 2.1) is then inherited from the network, as before.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// The sender's claimed process id.
    pub sender: ProcessId,
    /// The cluster size the sender was configured with; receivers reject a
    /// mismatch (two clusters accidentally sharing ports fail fast).
    pub n: u32,
    /// Key-confirmation tag over the preceding header fields (zeros when
    /// the cluster runs unauthenticated).
    pub auth_tag: [u8; MAC_LEN],
}

/// Encoded size of a [`Hello`] in bytes
/// (magic + version + sender + n + auth tag).
pub const HELLO_LEN: usize = HELLO_MAC_COVERED + MAC_LEN;

/// The [`Hello`] prefix the key-confirmation tag covers
/// (magic + version + sender + n).
const HELLO_MAC_COVERED: usize = 4 + 2 + 4 + 4;

impl Hello {
    /// An unauthenticated handshake header (all-zero tag).
    pub fn new(sender: ProcessId, n: u32) -> Self {
        Hello {
            sender,
            n,
            auth_tag: [0; MAC_LEN],
        }
    }

    /// An authenticated handshake header for the connection
    /// `auth.me() → to`: the tag MACs the header fields (magic and version
    /// included), so a receiver verifying it knows the dialer holds the
    /// pair key *and* meant this exact header.
    pub fn authenticated(n: u32, auth: &dyn Authenticator, to: ProcessId) -> Self {
        let mut hello = Hello::new(auth.me(), n);
        hello.auth_tag = auth.tag(to, &hello.mac_covered()).0;
        hello
    }

    /// The header bytes the key-confirmation tag covers.
    fn mac_covered(&self) -> [u8; HELLO_MAC_COVERED] {
        let mut out = [0u8; HELLO_MAC_COVERED];
        out[..4].copy_from_slice(&MAGIC);
        out[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
        out[6..10].copy_from_slice(
            &u32::try_from(self.sender.index())
                .unwrap_or(u32::MAX)
                .to_le_bytes(),
        );
        out[10..14].copy_from_slice(&self.n.to_le_bytes());
        out
    }

    /// Verifies the key-confirmation tag against the claimed sender — the
    /// receiver-side half of [`Hello::authenticated`]. Returns false for a
    /// zeroed (unauthenticated) tag: on an authenticated cluster a legacy
    /// or forged handshake must not pass.
    pub fn verify_auth(&self, auth: &dyn Authenticator) -> bool {
        auth.verify(
            self.sender,
            &self.mac_covered(),
            &minsync_auth::Mac(self.auth_tag),
        )
    }

    /// Appends the handshake header to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.mac_covered());
        out.extend_from_slice(&self.auth_tag);
    }

    /// Decodes and validates a handshake header from the front of `input`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] on short input, [`WireError::BadMagic`] /
    /// [`WireError::VersionMismatch`] on foreign or incompatible peers.
    pub fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let Some(bytes) = input.get(..HELLO_LEN) else {
            return Err(WireError::Truncated);
        };
        if bytes[..4] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
        if version != WIRE_VERSION {
            return Err(WireError::VersionMismatch {
                ours: WIRE_VERSION,
                theirs: version,
            });
        }
        let sender = u32::from_le_bytes(bytes[6..10].try_into().expect("4 bytes"));
        let n = u32::from_le_bytes(bytes[10..14].try_into().expect("4 bytes"));
        let auth_tag = bytes[14..HELLO_LEN].try_into().expect("MAC_LEN bytes");
        *input = &input[HELLO_LEN..];
        Ok(Hello {
            sender: ProcessId::new(sender as usize),
            n,
            auth_tag,
        })
    }

    /// Convenience: the header as a fresh buffer (always [`HELLO_LEN`]
    /// bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HELLO_LEN);
        self.encode_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        encode_frame(&7u64, &mut buf, DEFAULT_MAX_FRAME).unwrap();
        encode_frame(&9u64, &mut buf, DEFAULT_MAX_FRAME).unwrap();
        let (payload, used) = split_frame(&buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(decode_frame::<u64>(payload).unwrap(), 7);
        let (payload2, used2) = split_frame(&buf[used..], DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(decode_frame::<u64>(payload2).unwrap(), 9);
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn timed_codec_matches_untimed_and_reports_a_cost() {
        let mut frame = Vec::new();
        encode_frame(&7u64, &mut frame, DEFAULT_MAX_FRAME).unwrap();
        let (payload, _) = split_frame(&frame, DEFAULT_MAX_FRAME).unwrap().unwrap();
        let (value, dec_ns) = decode_frame_timed::<u64>(payload);
        assert_eq!(value, decode_frame::<u64>(payload));
        assert_eq!(value.unwrap(), 7);
        // Instant is monotonic, so the cost is well-defined (possibly 0 on
        // coarse clocks) — just make sure it is plausible, not huge.
        assert!(dec_ns < 1_000_000_000);
    }

    #[test]
    fn keepalive_splits_as_an_empty_frame() {
        // A keepalive probe is an ordinary zero-length frame: it splits off
        // cleanly (consuming exactly its header) and never reaches the
        // codec, and a frame queued right behind it is unaffected.
        let mut buf = KEEPALIVE_FRAME.to_vec();
        encode_frame(&7u64, &mut buf, DEFAULT_MAX_FRAME).unwrap();
        let (payload, used) = split_frame(&buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert!(payload.is_empty());
        assert_eq!(used, KEEPALIVE_FRAME.len());
        let (next, _) = split_frame(&buf[used..], DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(decode_frame::<u64>(next).unwrap(), 7);
    }

    #[test]
    fn control_frames_split_and_roundtrip() {
        // A ping splits off as an ordinary frame whose payload the control
        // recognizer claims; a data frame queued right behind is unaffected.
        let mut buf = control_frame(PING_TAG, 0xDEAD_BEEF_0042).to_vec();
        encode_frame(&7u64, &mut buf, DEFAULT_MAX_FRAME).unwrap();
        let (payload, used) = split_frame(&buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(split_control(payload), Some((PING_TAG, 0xDEAD_BEEF_0042)));
        let (next, _) = split_frame(&buf[used..], DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(split_control(next), None, "data payloads are not control");
        assert_eq!(decode_frame::<u64>(next).unwrap(), 7);
        let pong = control_frame(PONG_TAG, u64::MAX);
        let (payload, _) = split_frame(&pong, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(split_control(payload), Some((PONG_TAG, u64::MAX)));
    }

    #[test]
    fn control_recognizer_rejects_near_misses() {
        assert_eq!(split_control(&[]), None);
        assert_eq!(split_control(&[PING_TAG]), None, "truncated stamp");
        assert_eq!(split_control(&[0x00; 9]), None, "wrong tag");
        assert_eq!(split_control(&[PING_TAG; 10]), None, "wrong length");
    }

    #[test]
    fn partial_frames_ask_for_more() {
        let mut buf = Vec::new();
        encode_frame(&0xAABBu64, &mut buf, DEFAULT_MAX_FRAME).unwrap();
        for cut in 0..buf.len() {
            assert_eq!(split_frame(&buf[..cut], DEFAULT_MAX_FRAME).unwrap(), None);
        }
    }

    #[test]
    fn oversized_header_rejected_before_payload_arrives() {
        let header = (u32::MAX).to_le_bytes();
        assert_eq!(
            split_frame(&header, 1024),
            Err(WireError::FrameTooLarge {
                len: u32::MAX as usize,
                cap: 1024
            })
        );
    }

    #[test]
    fn encode_frame_respects_the_cap() {
        let big: Vec<u64> = vec![0; 100];
        let mut buf = Vec::new();
        let err = encode_frame(&big, &mut buf, 16).unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge { cap: 16, .. }));
        assert!(buf.is_empty(), "failed frame leaves the buffer untouched");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = 3u64.encode();
        payload.push(0xFF);
        assert_eq!(
            decode_frame::<u64>(&payload),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn hello_round_trips() {
        let hello = Hello::new(ProcessId::new(3), 7);
        let bytes = hello.encode();
        assert_eq!(bytes.len(), HELLO_LEN);
        let mut input = bytes.as_slice();
        assert_eq!(Hello::decode(&mut input).unwrap(), hello);
        assert!(input.is_empty());
    }

    #[test]
    fn hello_rejects_magic_version_and_truncation() {
        let hello = Hello::new(ProcessId::new(0), 4);
        let good = hello.encode();

        let mut short = &good[..HELLO_LEN - 1];
        assert_eq!(Hello::decode(&mut short), Err(WireError::Truncated));

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            Hello::decode(&mut bad_magic.as_slice()),
            Err(WireError::BadMagic)
        );

        let mut bad_version = good.clone();
        bad_version[4] = WIRE_VERSION as u8 + 1;
        assert!(matches!(
            Hello::decode(&mut bad_version.as_slice()),
            Err(WireError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn errors_display_helpfully() {
        let s = WireError::InvalidTag {
            ty: "SmrMsg",
            tag: 9,
        }
        .to_string();
        assert!(s.contains("SmrMsg"));
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::AuthFailed.to_string().contains("tag"));
    }

    // -- authenticated framing --------------------------------------------

    use minsync_auth::HmacAuthenticator;

    fn pair() -> (HmacAuthenticator, HmacAuthenticator) {
        let mut ring = HmacAuthenticator::deal(b"wire-test-master", 4).into_iter();
        let a = ring.next().unwrap();
        let b = ring.next().unwrap();
        (a, b)
    }

    #[test]
    fn tagged_frames_round_trip_through_verification() {
        let (a, b) = pair();
        let mut buf = Vec::new();
        encode_frame_tagged(
            &0xFEEDu64,
            &mut buf,
            DEFAULT_MAX_FRAME,
            &a,
            ProcessId::new(1),
        )
        .unwrap();
        let (payload, used) = split_frame(&buf, tagged_frame_cap(DEFAULT_MAX_FRAME))
            .unwrap()
            .unwrap();
        assert_eq!(used, buf.len());
        let body = verify_frame_tag(payload, &b, ProcessId::new(0)).unwrap();
        assert_eq!(decode_frame::<u64>(body).unwrap(), 0xFEED);
    }

    #[test]
    fn forged_and_truncated_tags_fail_before_decode() {
        let (a, b) = pair();
        let mut buf = Vec::new();
        encode_frame_tagged(&7u64, &mut buf, DEFAULT_MAX_FRAME, &a, ProcessId::new(1)).unwrap();
        let (payload, _) = split_frame(&buf, tagged_frame_cap(DEFAULT_MAX_FRAME))
            .unwrap()
            .unwrap();
        // Bit-flip anywhere — body or tag — and verification fails.
        for i in 0..payload.len() {
            let mut flipped = payload.to_vec();
            flipped[i] ^= 0x01;
            assert_eq!(
                verify_frame_tag(&flipped, &b, ProcessId::new(0)),
                Err(WireError::AuthFailed),
                "bit flip at {i} must be caught"
            );
        }
        // Wrong claimed sender: the pair key differs.
        assert_eq!(
            verify_frame_tag(payload, &b, ProcessId::new(2)),
            Err(WireError::AuthFailed)
        );
        // Too short to even hold a tag.
        assert_eq!(
            verify_frame_tag(&payload[..MAC_LEN - 1], &b, ProcessId::new(0)),
            Err(WireError::AuthFailed)
        );
    }

    /// The `DEFAULT_MAX_FRAME` accounting fix, pinned exactly at the
    /// boundary: a body of exactly `cap` bytes must encode and pass a
    /// reader using [`tagged_frame_cap`], while `cap + 1` must fail on the
    /// encode side — authentication adds overhead without stealing payload
    /// capacity or over-admitting.
    #[test]
    fn tagged_frame_boundary_exactly_at_the_cap() {
        let (a, b) = pair();
        let cap = 4 + 256; // Vec<u8> encodes as u32 count + bytes
        let body_at_cap: Vec<u8> = vec![0xAB; 256];
        let mut buf = Vec::new();
        encode_frame_tagged(&body_at_cap, &mut buf, cap, &a, ProcessId::new(1))
            .expect("a body of exactly cap bytes fits an authenticated frame");
        assert_eq!(buf.len(), 4 + cap + FRAME_TAG_OVERHEAD);
        // A reader still applying the bare cap would reject this frame —
        // the exact bug the tagged cap prevents.
        assert!(matches!(
            split_frame(&buf, cap),
            Err(WireError::FrameTooLarge { .. })
        ));
        let (payload, _) = split_frame(&buf, tagged_frame_cap(cap)).unwrap().unwrap();
        let body = verify_frame_tag(payload, &b, ProcessId::new(0)).unwrap();
        assert_eq!(decode_frame::<Vec<u8>>(body).unwrap(), body_at_cap);
        // One byte past the cap: rejected at encode time, buffer untouched.
        let over: Vec<u8> = vec![0xAB; 257];
        let mut buf2 = Vec::new();
        assert!(matches!(
            encode_frame_tagged(&over, &mut buf2, cap, &a, ProcessId::new(1)),
            Err(WireError::FrameTooLarge { .. })
        ));
        assert!(buf2.is_empty());
    }

    #[test]
    fn authenticated_hello_verifies_and_rejects_forgery() {
        let ring = HmacAuthenticator::deal(b"hello-master", 4);
        let hello = Hello::authenticated(4, &ring[1], ProcessId::new(2));
        assert_eq!(hello.sender, ProcessId::new(1));
        let decoded = Hello::decode(&mut hello.encode().as_slice()).unwrap();
        assert!(decoded.verify_auth(&ring[2]));
        // The wrong receiver, a zeroed tag, and a lying sender id all fail.
        assert!(!decoded.verify_auth(&ring[3]));
        assert!(!Hello::new(ProcessId::new(1), 4).verify_auth(&ring[2]));
        let mut lying = hello;
        lying.sender = ProcessId::new(3);
        assert!(!lying.verify_auth(&ring[2]));
    }
}
