//! Ready-made message mutators for [`FilterNode`](crate::FilterNode),
//! targeting the specific mechanisms of the paper's algorithms.

use minsync_broadcast::RbMsg;
use minsync_core::{CbId, ProtocolMsg, RbTag};
use minsync_types::{ProcessId, Value};

/// Equivocates the initial proposal: the wrapped node's `CB_VAL(ConsValid)`
/// `INIT` carries `value_a` to destinations in the first half of the id
/// space and `value_b` to the rest. Everything else (echoes, readies, later
/// rounds) flows unchanged — the node keeps "honestly" running on its own
/// proposal, which is the subtlest version of this attack.
///
/// Bracha's RB defeats it: at most one of the two values can gather an echo
/// quorum, so correct processes never CB-validate both as coming from this
/// origin.
pub fn equivocate_proposal<V: Value>(
    n: usize,
    value_a: V,
    value_b: V,
) -> impl FnMut(ProcessId, &ProtocolMsg<V>) -> Option<ProtocolMsg<V>> + Send {
    move |to: ProcessId, msg: &ProtocolMsg<V>| {
        if let ProtocolMsg::Rb(RbMsg::Init {
            tag: RbTag::CbVal(CbId::ConsValid),
            ..
        }) = msg
        {
            let forged = if to.index() < n / 2 {
                value_a.clone()
            } else {
                value_b.clone()
            };
            return Some(ProtocolMsg::Rb(RbMsg::Init {
                tag: RbTag::CbVal(CbId::ConsValid),
                value: forged,
            }));
        }
        Some(msg.clone())
    }
}

/// Mutes the coordinator role: drops every outgoing `EA_COORD`, so in every
/// round this process coordinates, correct processes fall back to the timer
/// / `⊥`-relay path — the paper's worst case for EA progress. All other
/// behavior stays honest.
pub fn mute_coordinator<V: Value>(
) -> impl FnMut(ProcessId, &ProtocolMsg<V>) -> Option<ProtocolMsg<V>> + Send {
    move |_to: ProcessId, msg: &ProtocolMsg<V>| match msg {
        ProtocolMsg::EaCoord { .. } => None,
        other => Some(other.clone()),
    }
}

/// A coordinator that *splits* instead of muting: when championing, it
/// sends `value_a` as `EA_COORD` to half the processes and `value_b` to the
/// other half, trying to make their relays disagree. (EA tolerates this —
/// its validity property is deliberately weak — and the consensus layer's
/// AC object prevents the split from violating agreement.)
pub fn split_coordinator<V: Value>(
    n: usize,
    value_a: V,
    value_b: V,
) -> impl FnMut(ProcessId, &ProtocolMsg<V>) -> Option<ProtocolMsg<V>> + Send {
    move |to: ProcessId, msg: &ProtocolMsg<V>| match msg {
        ProtocolMsg::EaCoord { round, .. } => {
            let forged = if to.index() < n / 2 {
                value_a.clone()
            } else {
                value_b.clone()
            };
            Some(ProtocolMsg::EaCoord {
                round: *round,
                value: forged,
            })
        }
        other => Some(other.clone()),
    }
}

/// Withholds all RB `ECHO` / `READY` participation: the process still
/// initiates its own broadcasts but never helps anyone else's instance
/// complete — a "free rider" liveness attack on the RB layer.
pub fn withhold_rb_support<V: Value>(
) -> impl FnMut(ProcessId, &ProtocolMsg<V>) -> Option<ProtocolMsg<V>> + Send {
    move |_to: ProcessId, msg: &ProtocolMsg<V>| match msg {
        ProtocolMsg::Rb(RbMsg::Echo { .. }) | ProtocolMsg::Rb(RbMsg::Ready { .. }) => None,
        other => Some(other.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minsync_types::Round;

    #[test]
    fn equivocator_forges_only_consvalid_inits() {
        let mut m = equivocate_proposal::<u64>(4, 1, 2);
        let init = ProtocolMsg::Rb(RbMsg::Init {
            tag: RbTag::CbVal(CbId::ConsValid),
            value: 9u64,
        });
        // First half gets value_a...
        match m(ProcessId::new(0), &init) {
            Some(ProtocolMsg::Rb(RbMsg::Init { value, .. })) => assert_eq!(value, 1),
            other => panic!("unexpected: {other:?}"),
        }
        // ...second half gets value_b.
        match m(ProcessId::new(3), &init) {
            Some(ProtocolMsg::Rb(RbMsg::Init { value, .. })) => assert_eq!(value, 2),
            other => panic!("unexpected: {other:?}"),
        }
        // Other messages flow untouched.
        let echo = ProtocolMsg::Rb(RbMsg::Echo {
            origin: ProcessId::new(2),
            tag: RbTag::CbVal(CbId::ConsValid),
            value: 9u64,
        });
        assert_eq!(m(ProcessId::new(0), &echo), Some(echo.clone()));
    }

    #[test]
    fn mute_coordinator_drops_only_coord() {
        let mut m = mute_coordinator::<u64>();
        let coord = ProtocolMsg::EaCoord {
            round: Round::FIRST,
            value: 5u64,
        };
        assert_eq!(m(ProcessId::new(0), &coord), None);
        let relay = ProtocolMsg::EaRelay {
            round: Round::FIRST,
            value: Some(5u64),
        };
        assert_eq!(m(ProcessId::new(0), &relay), Some(relay.clone()));
    }

    #[test]
    fn split_coordinator_forges_per_half() {
        let mut m = split_coordinator::<u64>(4, 10, 20);
        let coord = ProtocolMsg::EaCoord {
            round: Round::FIRST,
            value: 5u64,
        };
        match m(ProcessId::new(1), &coord) {
            Some(ProtocolMsg::EaCoord { value, .. }) => assert_eq!(value, 10),
            other => panic!("unexpected: {other:?}"),
        }
        match m(ProcessId::new(2), &coord) {
            Some(ProtocolMsg::EaCoord { value, .. }) => assert_eq!(value, 20),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn withholder_blocks_echo_and_ready() {
        let mut m = withhold_rb_support::<u64>();
        let echo = ProtocolMsg::Rb(RbMsg::Echo {
            origin: ProcessId::new(1),
            tag: RbTag::Decide,
            value: 5u64,
        });
        assert_eq!(m(ProcessId::new(0), &echo), None);
        let init = ProtocolMsg::Rb(RbMsg::Init {
            tag: RbTag::Decide,
            value: 5u64,
        });
        assert!(m(ProcessId::new(0), &init).is_some());
    }
}
