//! Codec property tests: encode→decode round-trip identity for every
//! [`Wire`] implementation, and a decoder fuzz pass asserting that
//! arbitrary bytes — truncations of valid encodings, mutated frames, raw
//! garbage, absurd length announcements — never panic and never make the
//! decoder allocate beyond the frame cap.

use minsync_auth::HmacAuthenticator;
use minsync_broadcast::RbMsg;
use minsync_core::{CbId, ProtocolMsg, RbTag};
use minsync_net::sim::{CauseRecord, EffectRecord, InvocationCause};
use minsync_net::{Effect, TimerId, VirtualTime};
use minsync_smr::{Digest, SmrMsg};
use minsync_types::{ProcessId, Round};
use minsync_wire::{
    decode_frame, encode_frame, encode_frame_tagged, split_frame, tagged_frame_cap,
    verify_frame_tag, Hello, Wire, WireError, DEFAULT_MAX_FRAME,
};
use minsync_workload::Batch;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies for every message type that crosses a socket
// ---------------------------------------------------------------------------

fn arb_round() -> impl Strategy<Value = Round> {
    (1u64..1 << 48).prop_map(Round::new)
}

fn arb_process() -> impl Strategy<Value = ProcessId> {
    (0usize..128).prop_map(ProcessId::new)
}

fn arb_batch() -> impl Strategy<Value = Batch> {
    proptest::collection::vec(any::<u64>(), 0..40).prop_map(Batch)
}

fn arb_cb_id() -> impl Strategy<Value = CbId> {
    prop_oneof![
        Just(CbId::ConsValid),
        arb_round().prop_map(CbId::AcProp),
        arb_round().prop_map(CbId::EaProp),
    ]
}

fn arb_rb_tag() -> impl Strategy<Value = RbTag> {
    prop_oneof![
        arb_cb_id().prop_map(RbTag::CbVal),
        arb_round().prop_map(RbTag::AcEst),
        Just(RbTag::Decide),
    ]
}

fn arb_digest() -> impl Strategy<Value = Digest> {
    proptest::collection::vec(any::<u8>(), 32..33)
        .prop_map(|bytes| Digest(bytes.try_into().expect("32 bytes")))
}

/// Reliable-broadcast messages over the values `value()` draws: batches in
/// consensus-level traces, digests inside SMR slot traffic.
fn arb_rb_msg<S: Strategy + 'static>(
    value: fn() -> S,
) -> impl Strategy<Value = RbMsg<RbTag, S::Value>> {
    prop_oneof![
        (arb_rb_tag(), value()).prop_map(|(tag, value)| RbMsg::Init { tag, value }),
        (arb_process(), arb_rb_tag(), value()).prop_map(|(origin, tag, value)| RbMsg::Echo {
            origin,
            tag,
            value
        }),
        (arb_process(), arb_rb_tag(), value()).prop_map(|(origin, tag, value)| RbMsg::Ready {
            origin,
            tag,
            value
        }),
    ]
}

fn arb_protocol_msg_of<S: Strategy + 'static>(
    value: fn() -> S,
) -> impl Strategy<Value = ProtocolMsg<S::Value>> {
    prop_oneof![
        arb_rb_msg(value).prop_map(ProtocolMsg::Rb),
        (arb_round(), value()).prop_map(|(round, value)| ProtocolMsg::EaProp2 { round, value }),
        (arb_round(), value()).prop_map(|(round, value)| ProtocolMsg::EaCoord { round, value }),
        (arb_round(), proptest::option::of(value()))
            .prop_map(|(round, value)| ProtocolMsg::EaRelay { round, value }),
    ]
}

fn arb_protocol_msg() -> impl Strategy<Value = ProtocolMsg<Batch>> {
    arb_protocol_msg_of(arb_batch)
}

fn arb_smr_msg() -> impl Strategy<Value = SmrMsg<Batch>> {
    prop_oneof![
        (any::<u64>(), arb_protocol_msg_of(arb_digest))
            .prop_map(|(slot, msg)| SmrMsg::Slot { slot, msg }),
        any::<u64>().prop_map(|slot| SmrMsg::Ack { slot }),
        (any::<u64>(), arb_batch()).prop_map(|(slot, value)| SmrMsg::Checkpoint { slot, value }),
        (any::<u64>(), arb_batch()).prop_map(|(slot, value)| SmrMsg::Payload { slot, value }),
    ]
}

fn arb_timer_id() -> impl Strategy<Value = TimerId> {
    any::<u64>().prop_map(TimerId::from_raw)
}

fn arb_vtime() -> impl Strategy<Value = VirtualTime> {
    any::<u64>().prop_map(VirtualTime::from_ticks)
}

/// Effects as a conformance trace records them: protocol messages out,
/// batches as outputs.
fn arb_effect() -> impl Strategy<Value = Effect<ProtocolMsg<Batch>, Batch>> {
    prop_oneof![
        (arb_process(), arb_protocol_msg()).prop_map(|(to, msg)| Effect::Send { to, msg }),
        arb_protocol_msg().prop_map(|msg| Effect::Broadcast { msg }),
        (arb_timer_id(), any::<u64>()).prop_map(|(id, delay)| Effect::SetTimer { id, delay }),
        arb_timer_id().prop_map(|id| Effect::CancelTimer { id }),
        arb_batch().prop_map(Effect::Output),
        Just(Effect::Halt),
    ]
}

fn arb_cause_record() -> impl Strategy<Value = CauseRecord<ProtocolMsg<Batch>>> {
    let cause = prop_oneof![
        Just(InvocationCause::Start),
        (arb_process(), arb_protocol_msg())
            .prop_map(|(from, msg)| InvocationCause::Deliver { from, msg }),
        arb_timer_id().prop_map(|id| InvocationCause::Timer { id }),
    ];
    (arb_vtime(), arb_process(), cause).prop_map(|(time, process, cause)| CauseRecord {
        time,
        process,
        cause,
    })
}

fn arb_effect_record() -> impl Strategy<Value = EffectRecord<ProtocolMsg<Batch>, Batch>> {
    (
        arb_vtime(),
        arb_process(),
        proptest::collection::vec(arb_effect(), 0..8),
    )
        .prop_map(|(time, process, effects)| EffectRecord {
            time,
            process,
            effects,
        })
}

fn round_trips<T: Wire + PartialEq + std::fmt::Debug>(value: &T) -> Result<(), TestCaseError> {
    let bytes = value.encode();
    let mut input = bytes.as_slice();
    let back = T::decode(&mut input).expect("valid encoding decodes");
    prop_assert_eq!(&back, value);
    prop_assert!(input.is_empty(), "decode must consume exactly the encoding");
    // And through the framing layer.
    let mut frame = Vec::new();
    encode_frame(value, &mut frame, DEFAULT_MAX_FRAME).expect("fits the cap");
    let (payload, used) = split_frame(&frame, DEFAULT_MAX_FRAME)
        .expect("header valid")
        .expect("frame complete");
    prop_assert_eq!(used, frame.len());
    prop_assert_eq!(&decode_frame::<T>(payload).expect("frame decodes"), value);
    Ok(())
}

proptest! {
    #[test]
    fn primitives_round_trip(a in any::<u8>(), b in any::<u16>(), c in any::<u32>(), d in any::<u64>(), e in any::<bool>()) {
        round_trips(&a)?;
        round_trips(&b)?;
        round_trips(&c)?;
        round_trips(&d)?;
        round_trips(&e)?;
    }

    #[test]
    fn composites_round_trip(v in proptest::collection::vec(any::<u64>(), 0..50), o in proptest::option::of(any::<u64>())) {
        round_trips(&v)?;
        round_trips(&o)?;
    }

    #[test]
    fn ids_and_rounds_round_trip(p in arb_process(), r in arb_round()) {
        round_trips(&p)?;
        round_trips(&r)?;
    }

    #[test]
    fn tags_round_trip(id in arb_cb_id(), tag in arb_rb_tag()) {
        round_trips(&id)?;
        round_trips(&tag)?;
    }

    #[test]
    fn rb_messages_round_trip(msg in arb_rb_msg(arb_batch)) {
        round_trips(&msg)?;
    }

    #[test]
    fn protocol_messages_round_trip(msg in arb_protocol_msg()) {
        round_trips(&msg)?;
    }

    #[test]
    fn smr_messages_round_trip(msg in arb_smr_msg()) {
        round_trips(&msg)?;
    }

    #[test]
    fn digests_round_trip(digest in arb_digest()) {
        round_trips(&digest)?;
        prop_assert_eq!(digest.encode().len(), 32);
    }

    #[test]
    fn batches_round_trip(batch in arb_batch()) {
        round_trips(&batch)?;
    }

    /// Trace records (the conformance fixture payload) round-trip like any
    /// other wire type.
    #[test]
    fn trace_records_round_trip(cause in arb_cause_record(), effects in arb_effect_record()) {
        round_trips(&cause)?;
        round_trips(&effects)?;
    }

    /// Truncating a trace record anywhere fails cleanly — committed
    /// fixture files cut short must error, not panic.
    #[test]
    fn trace_record_truncations_fail_cleanly(
        cause in arb_cause_record(),
        effects in arb_effect_record(),
        cut_seed in any::<u64>(),
    ) {
        let bytes = cause.encode();
        let cut = (cut_seed as usize) % bytes.len().max(1);
        prop_assert!(CauseRecord::<ProtocolMsg<Batch>>::decode(&mut &bytes[..cut]).is_err());
        let bytes = effects.encode();
        let cut = (cut_seed as usize) % bytes.len().max(1);
        prop_assert!(
            EffectRecord::<ProtocolMsg<Batch>, Batch>::decode(&mut &bytes[..cut]).is_err()
        );
    }

    /// Point mutations and raw garbage never panic the trace-record
    /// decoders.
    #[test]
    fn trace_record_mutations_never_panic(
        effects in arb_effect_record(),
        at_seed in any::<u64>(),
        flip in 1u8..=255,
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = effects.encode();
        let at = (at_seed as usize) % bytes.len();
        bytes[at] ^= flip;
        let _ = EffectRecord::<ProtocolMsg<Batch>, Batch>::decode(&mut bytes.as_slice());
        let _ = CauseRecord::<ProtocolMsg<Batch>>::decode(&mut garbage.as_slice());
        let _ = EffectRecord::<ProtocolMsg<Batch>, Batch>::decode(&mut garbage.as_slice());
        let _ = Effect::<ProtocolMsg<Batch>, Batch>::decode(&mut garbage.as_slice());
    }

    // -----------------------------------------------------------------------
    // Decoder fuzz: hostile bytes never panic, never over-allocate
    // -----------------------------------------------------------------------

    /// Every strict prefix of a valid encoding fails with `Truncated` (or
    /// an invalid-tag/value error if the cut lands inside a tag) — never a
    /// panic, never a bogus success that consumed the wrong length.
    #[test]
    fn truncations_fail_cleanly(msg in arb_smr_msg(), cut_seed in any::<u64>()) {
        let bytes = msg.encode();
        let cut = (cut_seed as usize) % bytes.len().max(1);
        let mut input = &bytes[..cut];
        let _ = SmrMsg::<Batch>::decode(&mut input); // must not panic
        prop_assert!(decode_frame::<SmrMsg<Batch>>(&bytes[..cut]).is_err());
    }

    /// Point mutations either still decode (the flipped byte was payload)
    /// or fail cleanly — never panic.
    #[test]
    fn mutations_never_panic(msg in arb_smr_msg(), at_seed in any::<u64>(), flip in 1u8..=255) {
        let mut bytes = msg.encode();
        let at = (at_seed as usize) % bytes.len();
        bytes[at] ^= flip;
        let _ = decode_frame::<SmrMsg<Batch>>(&bytes);
        let mut hello = Hello::new(ProcessId::new(1), 4).encode();
        let h_at = at % hello.len();
        hello[h_at] ^= flip;
        let _ = Hello::decode(&mut hello.as_slice());
    }

    /// Raw garbage never panics the decoders.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_frame::<SmrMsg<Batch>>(&bytes);
        let _ = decode_frame::<ProtocolMsg<Batch>>(&bytes);
        let _ = decode_frame::<Batch>(&bytes);
        let _ = Hello::decode(&mut bytes.as_slice());
        let _ = split_frame(&bytes, DEFAULT_MAX_FRAME);
    }

    /// A frame header may announce any length: beyond the cap it must be
    /// rejected at the header, below it the decoder may only be asked for
    /// as many bytes as actually arrived — allocation stays bounded by the
    /// cap either way.
    #[test]
    fn frame_cap_bounds_allocation(len in any::<u32>(), cap in 16usize..4096) {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xAB; 64]);
        match split_frame(&bytes, cap) {
            Err(WireError::FrameTooLarge { len: l, cap: c }) => {
                prop_assert_eq!((l, c), (len as usize, cap));
                prop_assert!(len as usize > cap);
            }
            Ok(None) => prop_assert!(len as usize <= cap && len as usize > 64),
            Ok(Some((payload, used))) => {
                prop_assert!(payload.len() <= cap);
                prop_assert_eq!(used, 4 + payload.len());
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// A hostile element count inside a frame cannot make `Vec::decode`
    /// reserve beyond the input it actually has.
    #[test]
    fn sequence_counts_cannot_over_allocate(count in any::<u32>(), body in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut bytes = count.to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        let result = Vec::<u64>::decode(&mut bytes.as_slice());
        if count as usize > body.len() {
            prop_assert_eq!(result, Err(WireError::Truncated));
        }
    }

    // -----------------------------------------------------------------------
    // Authenticated frames: tampering is rejected, never a panic
    // -----------------------------------------------------------------------

    /// Authenticated frames survive the round trip; any single bit flip,
    /// truncation, or sender-id lie fails verification cleanly (and the
    /// body is never handed to the decoder on failure).
    #[test]
    fn tagged_frames_reject_tampering_without_panicking(
        msg in arb_smr_msg(),
        at_seed in any::<u64>(),
        flip in 1u8..=255,
        cut_seed in any::<u64>(),
    ) {
        let ring = HmacAuthenticator::deal(b"prop-wire-master", 4);
        let mut frame = Vec::new();
        encode_frame_tagged(&msg, &mut frame, DEFAULT_MAX_FRAME, &ring[0], ProcessId::new(1))
            .expect("fits the cap");
        let (payload, used) = split_frame(&frame, tagged_frame_cap(DEFAULT_MAX_FRAME))
            .expect("header valid")
            .expect("frame complete");
        prop_assert_eq!(used, frame.len());
        let body = verify_frame_tag(payload, &ring[1], ProcessId::new(0))
            .expect("genuine tag verifies");
        prop_assert_eq!(&decode_frame::<SmrMsg<Batch>>(body).expect("decodes"), &msg);
        // One flipped bit anywhere — body or tag — is caught by the MAC.
        let mut flipped = payload.to_vec();
        let at = (at_seed as usize) % flipped.len();
        flipped[at] ^= flip;
        prop_assert_eq!(
            verify_frame_tag(&flipped, &ring[1], ProcessId::new(0)),
            Err(WireError::AuthFailed)
        );
        // Truncations and sender-id lies fail cleanly too.
        let cut = (cut_seed as usize) % payload.len();
        prop_assert!(verify_frame_tag(&payload[..cut], &ring[1], ProcessId::new(0)).is_err());
        prop_assert!(verify_frame_tag(payload, &ring[1], ProcessId::new(2)).is_err());
        prop_assert!(verify_frame_tag(payload, &ring[1], ProcessId::new(77)).is_err());
    }
}
