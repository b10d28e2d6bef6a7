//! [`Wire`] layouts for the *trace* layer: the records a recorded
//! simulation run is made of ([`EffectRecord`], [`CauseRecord`],
//! [`Effect`]) and the protocol *output* types they embed, each declared
//! once as a layout table.
//!
//! The transport codec in [`crate::impls`] covers what crosses a socket;
//! this module covers what goes into a `minsync-conformance` trace file —
//! a complete, versioned, byte-stable transcript of an execution. The
//! same encoding rules apply (fixed-width little-endian integers, one-byte
//! enum tags fixed by each type's table, `u32`-counted sequences), so a
//! trace file is decodable with nothing but this crate.

use minsync_core::{AcNodeEvent, AcTag, BotEvent, BotMsg, ConsensusEvent, EaNodeEvent};
use minsync_net::sim::{CauseRecord, EffectRecord, InvocationCause};
use minsync_net::{Effect, TimerId, VirtualTime};
use minsync_smr::SmrEvent;

use crate::{Wire, WireError};

impl Wire for () {
    fn encode_into(&self, _out: &mut Vec<u8>) {}

    fn decode(_input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(
            &u32::try_from(self.len())
                .expect("string fits u32")
                .to_le_bytes(),
        );
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        let Some(bytes) = input.get(..len) else {
            return Err(WireError::Truncated);
        };
        let s = core::str::from_utf8(bytes)
            .map_err(|_| WireError::InvalidValue("string is not UTF-8"))?
            .to_owned();
        *input = &input[len..];
        Ok(s)
    }
}

impl Wire for VirtualTime {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.ticks().encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(VirtualTime::from_ticks(u64::decode(input)?))
    }
}

impl Wire for TimerId {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.get().encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(TimerId::from_raw(u64::decode(input)?))
    }
}

wire_enum!(Effect<M, O> {
    0 => Send { to, msg },
    1 => Broadcast { msg },
    2 => SetTimer { id, delay },
    3 => CancelTimer { id },
    4 => Output(output),
    5 => Halt,
});

wire_enum!(InvocationCause<M> {
    0 => Start,
    1 => Deliver { from, msg },
    2 => Timer { id },
});

wire_struct!(CauseRecord<M> { time, process, cause });

wire_struct!(EffectRecord<M, O> { time, process, effects });

// ---------------------------------------------------------------------------
// Protocol output (telemetry) types — these never cross a socket, but they
// appear inside `Effect::Output` entries of a recorded trace.
// ---------------------------------------------------------------------------

wire_enum!(AcTag {
    0 => Commit,
    1 => Adopt,
});

wire_enum!(ConsensusEvent<V> {
    0 => RoundStarted { round },
    1 => EaReturned { round, value, fast },
    2 => AcReturned { round, tag, value },
    3 => DecideBroadcast { round, value },
    4 => Decided { value },
});

wire_enum!(AcNodeEvent<V> {
    0 => Returned { tag, value },
});

wire_enum!(EaNodeEvent<V> {
    0 => Returned { round, value, fast },
});

wire_enum!(BotMsg<V> {
    0 => CertRb(rb),
    1 => Inner(inner),
});

wire_enum!(BotEvent<V> {
    0 => Decided { value },
    1 => DecidedBottom,
});

wire_enum!(SmrEvent<V> {
    0 => Committed { slot, command },
    1 => Retired { through },
});

#[cfg(test)]
mod tests {
    use super::*;
    use minsync_core::ProtocolMsg;
    use minsync_types::{ProcessId, Round};

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.encode();
        let mut input = bytes.as_slice();
        let back = T::decode(&mut input).expect("decodes");
        assert_eq!(back, value);
        assert!(input.is_empty(), "all bytes consumed");
    }

    #[test]
    fn trace_primitives_round_trip() {
        round_trip(());
        round_trip(String::new());
        round_trip("hello τ′ world".to_owned());
        round_trip(VirtualTime::from_ticks(u64::MAX));
        round_trip(TimerId::from_raw(0xDEAD_BEEF_0000_0001));
    }

    #[test]
    fn non_utf8_strings_are_rejected() {
        let mut bytes = 2u32.encode();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(
            String::decode(&mut bytes.as_slice()),
            Err(WireError::InvalidValue("string is not UTF-8"))
        );
    }

    #[test]
    fn effects_round_trip() {
        type E = Effect<ProtocolMsg<u64>, ConsensusEvent<u64>>;
        round_trip::<E>(Effect::Send {
            to: ProcessId::new(3),
            msg: ProtocolMsg::EaCoord {
                round: Round::new(2),
                value: 9,
            },
        });
        round_trip::<E>(Effect::Broadcast {
            msg: ProtocolMsg::EaProp2 {
                round: Round::new(1),
                value: 0,
            },
        });
        round_trip::<E>(Effect::SetTimer {
            id: TimerId::from_raw(7),
            delay: 100,
        });
        round_trip::<E>(Effect::CancelTimer {
            id: TimerId::from_raw(7),
        });
        round_trip::<E>(Effect::Output(ConsensusEvent::Decided { value: 4 }));
        round_trip::<E>(Effect::Halt);
    }

    #[test]
    fn records_round_trip() {
        round_trip::<CauseRecord<ProtocolMsg<u64>>>(CauseRecord {
            time: VirtualTime::from_ticks(5),
            process: ProcessId::new(1),
            cause: InvocationCause::Deliver {
                from: ProcessId::new(0),
                msg: ProtocolMsg::EaCoord {
                    round: Round::new(1),
                    value: 11,
                },
            },
        });
        round_trip::<CauseRecord<u64>>(CauseRecord {
            time: VirtualTime::ZERO,
            process: ProcessId::new(0),
            cause: InvocationCause::Start,
        });
        round_trip::<CauseRecord<u64>>(CauseRecord {
            time: VirtualTime::from_ticks(9),
            process: ProcessId::new(2),
            cause: InvocationCause::Timer {
                id: TimerId::from_raw(3),
            },
        });
        round_trip::<EffectRecord<u64, u64>>(EffectRecord {
            time: VirtualTime::from_ticks(1),
            process: ProcessId::new(1),
            effects: vec![Effect::Broadcast { msg: 2 }, Effect::Output(3)],
        });
    }

    #[test]
    fn protocol_events_round_trip() {
        let r = Round::new(4);
        round_trip(AcTag::Commit);
        round_trip(AcTag::Adopt);
        round_trip::<ConsensusEvent<u64>>(ConsensusEvent::RoundStarted { round: r });
        round_trip::<ConsensusEvent<u64>>(ConsensusEvent::EaReturned {
            round: r,
            value: 8,
            fast: true,
        });
        round_trip::<ConsensusEvent<u64>>(ConsensusEvent::AcReturned {
            round: r,
            tag: AcTag::Adopt,
            value: 8,
        });
        round_trip::<ConsensusEvent<u64>>(ConsensusEvent::DecideBroadcast { round: r, value: 8 });
        round_trip::<ConsensusEvent<u64>>(ConsensusEvent::Decided { value: 8 });
        round_trip::<AcNodeEvent<u64>>(AcNodeEvent::Returned {
            tag: AcTag::Commit,
            value: 6,
        });
        round_trip::<EaNodeEvent<u64>>(EaNodeEvent::Returned {
            round: r,
            value: 6,
            fast: false,
        });
        round_trip::<BotMsg<u64>>(BotMsg::CertRb(minsync_broadcast::RbMsg::Init {
            tag: (),
            value: 12,
        }));
        round_trip::<BotMsg<u64>>(BotMsg::Inner(ProtocolMsg::EaRelay {
            round: r,
            value: None,
        }));
        round_trip::<BotEvent<u64>>(BotEvent::Decided { value: 12 });
        round_trip::<BotEvent<u64>>(BotEvent::DecidedBottom);
        round_trip::<SmrEvent<u64>>(SmrEvent::Committed {
            slot: 1,
            command: 42,
        });
        round_trip::<SmrEvent<u64>>(SmrEvent::Retired { through: 3 });
    }
}
