//! [`Wire`] implementations for every type that crosses a socket: integer
//! primitives, sequences and options, and the protocol / SMR / workload
//! message types (see the crate docs for the format rules).

use minsync_broadcast::RbMsg;
use minsync_core::{CbId, ProtocolMsg, RbTag};
use minsync_smr::{Digest, SmrMsg};
use minsync_types::{ProcessId, Round};
use minsync_workload::Batch;

use crate::{Wire, WireError};

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// Splits `N` bytes off the front of `input`, or fails with `Truncated`.
fn take<'a, const N: usize>(input: &mut &'a [u8]) -> Result<&'a [u8; N], WireError> {
    let Some(bytes) = input.get(..N) else {
        return Err(WireError::Truncated);
    };
    *input = &input[N..];
    Ok(bytes.try_into().expect("exactly N bytes"))
}

macro_rules! int_wire {
    ($($ty:ty => $len:literal),* $(,)?) => {$(
        impl Wire for $ty {
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                Ok(<$ty>::from_le_bytes(*take::<$len>(input)?))
            }
        }
    )*};
}

int_wire!(u8 => 1, u16 => 2, u32 => 4, u64 => 8);

impl Wire for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag { ty: "bool", tag }),
        }
    }
}

impl<V: Wire> Wire for Option<V> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(V::decode(input)?)),
            tag => Err(WireError::InvalidTag { ty: "Option", tag }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(
            &u32::try_from(self.len())
                .expect("sequence fits u32")
                .to_le_bytes(),
        );
        for item in self {
            item.encode_into(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        // Allocation bound: every element encodes to ≥ 1 byte, so a count
        // exceeding the remaining input cannot be honest — reject before
        // reserving anything (the frame cap bounds `input.len()`).
        if len > input.len() {
            return Err(WireError::Truncated);
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(input)?);
        }
        Ok(items)
    }
}

// ---------------------------------------------------------------------------
// minsync-types
// ---------------------------------------------------------------------------

impl Wire for ProcessId {
    fn encode_into(&self, out: &mut Vec<u8>) {
        u32::try_from(self.index())
            .expect("process ids fit u32")
            .encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ProcessId::new(u32::decode(input)? as usize))
    }
}

impl Wire for Round {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.get().encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u64::decode(input)? {
            0 => Err(WireError::InvalidValue("round numbers are 1-based")),
            r => Ok(Round::new(r)),
        }
    }
}

// ---------------------------------------------------------------------------
// Broadcast / protocol layer
// ---------------------------------------------------------------------------

wire_enum!(CbId {
    0 => ConsValid,
    1 => AcProp(round),
    2 => EaProp(round),
});

wire_enum!(RbTag {
    0 => CbVal(id),
    1 => AcEst(round),
    2 => Decide,
});

wire_enum!(RbMsg<T, V> {
    0 => Init { tag, value },
    1 => Echo { origin, tag, value },
    2 => Ready { origin, tag, value },
    3 => Relay { tag, value },
});

wire_enum!(ProtocolMsg<V> {
    0 => Rb(rb),
    1 => EaProp2 { round, value },
    2 => EaCoord { round, value },
    3 => EaRelay { round, value },
});

// ---------------------------------------------------------------------------
// SMR / workload layer
// ---------------------------------------------------------------------------

/// 32 raw bytes, no length prefix.
impl Wire for Digest {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Digest(*take::<32>(input)?))
    }
}

wire_enum!(SmrMsg<V> {
    0 => Slot { slot, msg },
    1 => Ack { slot },
    2 => Checkpoint { slot, value },
    // Tags 3 and 4 (the deleted signature path) are retired, never reused.
    5 => Payload { slot, value },
});

impl Wire for Batch {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Batch(Vec::decode(input)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.encode();
        let mut input = bytes.as_slice();
        let back = T::decode(&mut input).expect("decodes");
        assert_eq!(back, value);
        assert!(input.is_empty(), "all bytes consumed");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0xABu8);
        round_trip(0xAB_CDu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(true);
        round_trip(Some(7u64));
        round_trip(Option::<u64>::None);
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
    }

    #[test]
    fn protocol_messages_round_trip() {
        let r = Round::new(5);
        round_trip(ProcessId::new(11));
        round_trip(r);
        round_trip(CbId::AcProp(r));
        round_trip(RbTag::CbVal(CbId::EaProp(r)));
        round_trip::<ProtocolMsg<Batch>>(ProtocolMsg::Rb(RbMsg::Echo {
            origin: ProcessId::new(2),
            tag: RbTag::Decide,
            value: Batch(vec![1, 2, 3]),
        }));
        round_trip::<ProtocolMsg<Batch>>(ProtocolMsg::EaRelay {
            round: r,
            value: None,
        });
        round_trip(Digest([0xA5; 32]));
        round_trip::<SmrMsg<Batch>>(SmrMsg::Slot {
            slot: 9,
            msg: ProtocolMsg::EaCoord {
                round: r,
                value: Digest::of(&Batch(Vec::new())),
            },
        });
        round_trip::<SmrMsg<Batch>>(SmrMsg::Payload {
            slot: 9,
            value: Batch(vec![7, 8]),
        });
        round_trip::<SmrMsg<Batch>>(SmrMsg::Ack { slot: 3 });
        round_trip::<SmrMsg<Batch>>(SmrMsg::Checkpoint {
            slot: 4,
            value: Batch(vec![u64::MAX]),
        });
    }

    #[test]
    fn zero_round_is_invalid() {
        let bytes = 0u64.encode();
        assert_eq!(
            Round::decode(&mut bytes.as_slice()),
            Err(WireError::InvalidValue("round numbers are 1-based"))
        );
    }

    #[test]
    fn bogus_tags_are_errors_not_panics() {
        for ty_bytes in [
            vec![9u8],                            // SmrMsg tag
            vec![0u8, 0, 0, 0, 0, 0, 0, 0, 0, 9], // Slot with bad ProtocolMsg tag
            vec![2u8],                            // bool out of range is tag 2
        ] {
            let _ = SmrMsg::<Batch>::decode(&mut ty_bytes.as_slice());
            let _ = bool::decode(&mut ty_bytes.as_slice());
        }
        assert_eq!(
            bool::decode(&mut [7u8].as_slice()),
            Err(WireError::InvalidTag { ty: "bool", tag: 7 })
        );
        // A payload cut anywhere is an error, never a panic or a short value.
        let payload = SmrMsg::<Batch>::Payload {
            slot: 3,
            value: Batch(vec![1, 2, 3]),
        }
        .encode();
        assert_eq!(payload[0], 5);
        for cut in 0..payload.len() {
            assert_eq!(
                SmrMsg::<Batch>::decode(&mut &payload[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
        // The retired signature-path tags stay invalid, whatever follows.
        for tag in [3u8, 4] {
            let mut body = [0u8; 16];
            body[0] = tag;
            assert_eq!(
                SmrMsg::<Batch>::decode(&mut body.as_slice()),
                Err(WireError::InvalidTag { ty: "SmrMsg", tag })
            );
        }
    }

    #[test]
    fn sequence_count_is_checked_against_remaining_input() {
        // Claims 2^32 − 1 elements with a 4-byte body: must fail fast
        // without allocating.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        assert_eq!(
            Vec::<u64>::decode(&mut bytes.as_slice()),
            Err(WireError::Truncated)
        );
    }
}
