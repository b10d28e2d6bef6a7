//! Wire messages of the consensus stack.
//!
//! Everything reliable rides inside [`RbMsg`] instances keyed by [`RbTag`];
//! the eventual-agreement object's plain (best-effort) broadcasts —
//! `EA_PROP2`, `EA_COORD`, `EA_RELAY` of Figure 3 — travel outside RB,
//! exactly as in the paper (footnote 2 explains why `EA_PROP2` is *not*
//! reliable: the coordinator logic of lines 11–14 consumes the raw
//! messages).

use minsync_broadcast::RbMsg;
use minsync_types::Round;

/// Identifies a cooperative-broadcast instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CbId {
    /// `CB[0]` of Figure 4 — the initial `VALID(v_i)` exchange.
    ConsValid,
    /// The CB instance inside round `r`'s adopt-commit object (Figure 2
    /// line 1, `AC_PROP`).
    AcProp(Round),
    /// The CB instance inside round `r` of the EA object (Figure 3 line 1,
    /// `EA_PROP1`).
    EaProp(Round),
}

/// Tags multiplexing every reliable-broadcast use onto one [`RbEngine`]
/// (instances are keyed `(origin, RbTag)`).
///
/// [`RbEngine`]: minsync_broadcast::RbEngine
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RbTag {
    /// `CB_VAL` of some CB instance (Figure 1 line 1).
    CbVal(CbId),
    /// `AC_EST` of round `r`'s adopt-commit object (Figure 2 line 2).
    AcEst(Round),
    /// `DECIDE` (Figure 4 line 7). One instance per process: a correct
    /// process RB-broadcasts `DECIDE` at most once (its committed estimate
    /// can never change afterwards — see the CONS-Agreement proof).
    Decide,
}

/// Top-level protocol message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtocolMsg<V> {
    /// Broadcast-layer traffic (`CB_VAL`, `AC_EST`, `DECIDE`): Bracha's
    /// three phases, and the relay rule's `CB(v)` for `CB_VAL`.
    Rb(RbMsg<RbTag, V>),
    /// Figure 3 line 2: best-effort broadcast of the CB-validated value.
    EaProp2 {
        /// EA round.
        round: Round,
        /// The `aux_i` value.
        value: V,
    },
    /// Figure 3 line 13: the round coordinator champions a value.
    EaCoord {
        /// EA round.
        round: Round,
        /// Championed value `w`.
        value: V,
    },
    /// Figure 3 line 18: relay of the coordinator's value, or `None` (the
    /// paper's `⊥`) if the relaying process's timer expired first.
    EaRelay {
        /// EA round.
        round: Round,
        /// `Some(v)` = witnessed the coordinator's value; `None` = suspect.
        value: Option<V>,
    },
}

/// `RB_KINDS[use][phase]`: the metrics label of an RB message, by its tag's
/// use (`CB_VAL`, `AC_EST`, `DECIDE`) and its phase (`INIT`, `ECHO`,
/// `READY`, or the relay rule's `RELAY`).
const RB_KINDS: [[&str; 4]; 3] = [
    ["CB_VAL/INIT", "CB_VAL/ECHO", "CB_VAL/READY", "CB_VAL/RELAY"],
    ["AC_EST/INIT", "AC_EST/ECHO", "AC_EST/READY", "AC_EST/RELAY"],
    ["DECIDE/INIT", "DECIDE/ECHO", "DECIDE/READY", "DECIDE/RELAY"],
];

impl<V> ProtocolMsg<V> {
    /// Classifier for per-kind message metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolMsg::Rb(rb) => {
                let (phase, tag) = match rb {
                    RbMsg::Init { tag, .. } => (0, tag),
                    RbMsg::Echo { tag, .. } => (1, tag),
                    RbMsg::Ready { tag, .. } => (2, tag),
                    RbMsg::Relay { tag, .. } => (3, tag),
                };
                let row = match tag {
                    RbTag::CbVal(_) => 0,
                    RbTag::AcEst(_) => 1,
                    RbTag::Decide => 2,
                };
                RB_KINDS[row][phase]
            }
            ProtocolMsg::EaProp2 { .. } => "EA_PROP2",
            ProtocolMsg::EaCoord { .. } => "EA_COORD",
            ProtocolMsg::EaRelay { .. } => "EA_RELAY",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rules;
    use minsync_broadcast::{Carrier, Tag};
    use minsync_types::ProcessId;

    #[test]
    fn kinds_cover_all_variants() {
        let r = Round::FIRST;
        let m: ProtocolMsg<u64> = ProtocolMsg::Rb(RbMsg::Init {
            tag: RbTag::CbVal(CbId::ConsValid),
            value: 1,
        });
        assert_eq!(m.kind(), "CB_VAL/INIT");
        let m: ProtocolMsg<u64> = ProtocolMsg::Rb(RbMsg::Echo {
            origin: ProcessId::new(0),
            tag: RbTag::AcEst(r),
            value: 1,
        });
        assert_eq!(m.kind(), "AC_EST/ECHO");
        let m: ProtocolMsg<u64> = ProtocolMsg::Rb(RbMsg::Ready {
            origin: ProcessId::new(0),
            tag: RbTag::Decide,
            value: 1,
        });
        assert_eq!(m.kind(), "DECIDE/READY");
        let m: ProtocolMsg<u64> = ProtocolMsg::Rb(RbMsg::Relay {
            tag: RbTag::CbVal(CbId::AcProp(r)),
            value: 1,
        });
        assert_eq!(m.kind(), "CB_VAL/RELAY");
        assert_eq!(
            ProtocolMsg::<u64>::EaProp2 { round: r, value: 1 }.kind(),
            "EA_PROP2"
        );
        assert_eq!(
            ProtocolMsg::<u64>::EaCoord { round: r, value: 1 }.kind(),
            "EA_COORD"
        );
        assert_eq!(
            ProtocolMsg::<u64>::EaRelay {
                round: r,
                value: None
            }
            .kind(),
            "EA_RELAY"
        );
    }

    #[test]
    fn rb_tags_order_and_compare() {
        // Needed for BTreeMap keys.
        let a = RbTag::CbVal(CbId::AcProp(Round::new(1)));
        let b = RbTag::CbVal(CbId::AcProp(Round::new(2)));
        assert!(a < b);
        assert_ne!(RbTag::Decide, RbTag::AcEst(Round::FIRST));
    }

    #[test]
    fn cb_val_and_decide_are_counted_ac_est_is_plain() {
        let cb = RbTag::CbVal(CbId::ConsValid);
        assert_eq!(cb.carrier(Rules::PAPER), Carrier::Counted);
        for rules in Rules::ALL {
            assert_eq!(RbTag::Decide.carrier(rules), Carrier::Counted);
            assert_eq!(RbTag::AcEst(Round::FIRST).carrier(rules), Carrier::Bracha);
        }
    }

    #[test]
    fn only_cb_val_is_relayed() {
        assert_eq!(
            RbTag::CbVal(CbId::EaProp(Round::FIRST)).carrier(Rules::SLOT),
            Carrier::Relay
        );
        for rules in Rules::ALL {
            assert_ne!(RbTag::Decide.carrier(rules), Carrier::Relay);
            assert_ne!(RbTag::AcEst(Round::FIRST).carrier(rules), Carrier::Relay);
        }
    }
}
