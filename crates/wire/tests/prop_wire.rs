//! Codec property tests: encode→decode round-trip identity for every
//! [`Wire`] implementation, and a decoder fuzz pass asserting that
//! arbitrary bytes — truncations of valid encodings, mutated frames, raw
//! garbage, absurd length announcements — never panic and never make the
//! decoder allocate beyond the frame cap. One table pins every tagged
//! variant's bytes.

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
        (arb_rb_tag(), value()).prop_map(|(tag, value)| RbMsg::Relay { tag, value }),
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

// ---------------------------------------------------------------------------
// Every tagged layout, pinned byte for byte
// ---------------------------------------------------------------------------

/// Encodes `value`, checks that it decodes back to itself, and returns the
/// bytes as lowercase hex.
fn pinned_hex<T: Wire + PartialEq + std::fmt::Debug>(value: &T) -> String {
    let bytes = value.encode();
    assert_eq!(
        &decode_frame::<T>(&bytes).expect("valid encoding decodes"),
        value
    );
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The first tag `T` does not use decodes to `InvalidTag` naming `T`.
fn assert_unused_tag<T: Wire + std::fmt::Debug>(ty: &'static str, tag: u8) {
    assert_eq!(
        T::decode(&mut [tag].as_slice()).unwrap_err(),
        WireError::InvalidTag { ty, tag },
        "{ty} tag {tag}"
    );
}

/// One exemplar of every variant of the 14 tagged enums, plus both trace
/// records, against its literal bytes. The conformance fixtures pin only
/// the variants their recorded runs happen to emit; this pins them all, so
/// a codec change that moves any tag or field order fails here by name.
#[test]
fn every_variant_encodes_to_its_pinned_bytes() {
    use minsync_core::{AcNodeEvent, AcTag, BotEvent, BotMsg, ConsensusEvent, EaNodeEvent};
    use minsync_smr::SmrEvent;

    macro_rules! pin {
        ($value:expr => $hex:literal) => {
            (stringify!($value), pinned_hex(&$value), $hex)
        };
    }

    let r = Round::new(2);
    let p = ProcessId::new(1);
    let id = TimerId::from_raw(3);
    let init = RbMsg::Init {
        tag: RbTag::Decide,
        value: 0x2Au8,
    };
    let table = [
        pin!(CbId::ConsValid => "00"),
        pin!(CbId::AcProp(r) => "010200000000000000"),
        pin!(CbId::EaProp(r) => "020200000000000000"),
        pin!(RbTag::CbVal(CbId::AcProp(r)) => "00010200000000000000"),
        pin!(RbTag::AcEst(r) => "010200000000000000"),
        pin!(RbTag::Decide => "02"),
        pin!(init.clone() => "00022a"),
        pin!(RbMsg::Echo { origin: p, tag: RbTag::AcEst(r), value: 0x2Au8 } => "01010000000102000000000000002a"),
        pin!(RbMsg::Ready { origin: p, tag: RbTag::Decide, value: 0x2Au8 } => "0201000000022a"),
        pin!(RbMsg::Relay { tag: RbTag::CbVal(CbId::AcProp(r)), value: 0x2Au8 } => "03000102000000000000002a"),
        pin!(ProtocolMsg::Rb(init.clone()) => "0000022a"),
        pin!(ProtocolMsg::EaProp2 { round: r, value: 0x2Au8 } => "0102000000000000002a"),
        pin!(ProtocolMsg::EaCoord { round: r, value: 0x2Au8 } => "0202000000000000002a"),
        pin!(ProtocolMsg::<u8>::EaRelay { round: r, value: None } => "03020000000000000000"),
        pin!(ProtocolMsg::EaRelay { round: r, value: Some(0x2Au8) } => "030200000000000000012a"),
        pin!(SmrMsg::<u8>::Slot { slot: 7, msg: ProtocolMsg::EaCoord { round: r, value: Digest([0xDD; 32]) } } => "000700000000000000020200000000000000dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd"),
        pin!(SmrMsg::<u8>::Ack { slot: 7 } => "010700000000000000"),
        pin!(SmrMsg::Checkpoint { slot: 7, value: 0x2Au8 } => "0207000000000000002a"),
        pin!(SmrMsg::Payload { slot: 7, value: Batch(vec![5]) } => "050700000000000000010000000500000000000000"),
        pin!(Effect::<u8, u8>::Send { to: p, msg: 0x2A } => "00010000002a"),
        pin!(Effect::<u8, u8>::Broadcast { msg: 0x2A } => "012a"),
        pin!(Effect::<u8, u8>::SetTimer { id, delay: 9 } => "0203000000000000000900000000000000"),
        pin!(Effect::<u8, u8>::CancelTimer { id } => "030300000000000000"),
        pin!(Effect::<u8, u8>::Output(0x2B) => "042b"),
        pin!(Effect::<u8, u8>::Halt => "05"),
        pin!(InvocationCause::<u8>::Start => "00"),
        pin!(InvocationCause::Deliver { from: p, msg: 0x2Au8 } => "01010000002a"),
        pin!(InvocationCause::<u8>::Timer { id } => "020300000000000000"),
        pin!(AcTag::Commit => "00"),
        pin!(AcTag::Adopt => "01"),
        pin!(ConsensusEvent::<u8>::RoundStarted { round: r } => "000200000000000000"),
        pin!(ConsensusEvent::EaReturned { round: r, value: 0x2Au8, fast: true } => "0102000000000000002a01"),
        pin!(ConsensusEvent::AcReturned { round: r, tag: AcTag::Adopt, value: 0x2Au8 } => "020200000000000000012a"),
        pin!(ConsensusEvent::DecideBroadcast { round: r, value: 0x2Au8 } => "0302000000000000002a"),
        pin!(ConsensusEvent::Decided { value: 0x2Au8 } => "042a"),
        pin!(AcNodeEvent::Returned { tag: AcTag::Commit, value: 0x2Au8 } => "00002a"),
        pin!(EaNodeEvent::Returned { round: r, value: 0x2Au8, fast: true } => "0002000000000000002a01"),
        pin!(BotMsg::CertRb(RbMsg::Init { tag: (), value: 0x2Au8 }) => "00002a"),
        pin!(BotMsg::<u8>::Inner(ProtocolMsg::EaProp2 { round: r, value: 0x2B }) => "010102000000000000002b"),
        pin!(BotEvent::Decided { value: 0x2Au8 } => "002a"),
        pin!(BotEvent::<u8>::DecidedBottom => "01"),
        pin!(SmrEvent::Committed { slot: 7, command: 0x2Au8 } => "0007000000000000002a"),
        pin!(SmrEvent::<u8>::Retired { through: 7 } => "010700000000000000"),
        pin!(CauseRecord { time: VirtualTime::from_ticks(9), process: p, cause: InvocationCause::<u8>::Timer { id } } => "090000000000000001000000020300000000000000"),
        pin!(EffectRecord { time: VirtualTime::from_ticks(9), process: p, effects: vec![Effect::<u8, u8>::Output(0x2B), Effect::Halt] } => "09000000000000000100000002000000042b05"),
    ];
    let moved: Vec<String> = table
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(what, got, want)| format!("{what}\n  pinned {want}\n  now    {got}"))
        .collect();
    assert!(moved.is_empty(), "layouts moved:\n{}", moved.join("\n"));

    assert_unused_tag::<CbId>("CbId", 3);
    assert_unused_tag::<RbTag>("RbTag", 3);
    assert_unused_tag::<RbMsg<RbTag, u8>>("RbMsg", 4);
    assert_unused_tag::<ProtocolMsg<u8>>("ProtocolMsg", 4);
    assert_unused_tag::<SmrMsg<u8>>("SmrMsg", 3);
    assert_unused_tag::<Effect<u8, u8>>("Effect", 6);
    assert_unused_tag::<InvocationCause<u8>>("InvocationCause", 3);
    assert_unused_tag::<AcTag>("AcTag", 2);
    assert_unused_tag::<ConsensusEvent<u8>>("ConsensusEvent", 5);
    assert_unused_tag::<AcNodeEvent<u8>>("AcNodeEvent", 1);
    assert_unused_tag::<EaNodeEvent<u8>>("EaNodeEvent", 1);
    assert_unused_tag::<BotMsg<u8>>("BotMsg", 2);
    assert_unused_tag::<BotEvent<u8>>("BotEvent", 2);
    assert_unused_tag::<SmrEvent<u8>>("SmrEvent", 2);
}
