//! Adversarial delay oracles for the simulator's
//! [`ScheduleOracle`] seam.
//!
//! These control *when* messages arrive on the channels the model leaves
//! asynchronous — the other half of the adversary. Every delay they pick is
//! a [`ScheduleCommand::Stretch`], so they cannot violate (eventually-)timely
//! bounds: the simulator keeps a channel that is timely at send time on its
//! own schedule, and clamps a stretched delay on a not-yet-stabilized one to
//! the paper's `max(τ, τ′) + δ` rule.

use minsync_core::ProtocolMsg;
use minsync_net::sim::{ScheduleCommand, ScheduleOracle};
use minsync_net::VirtualTime;
use minsync_types::{ProcessId, Value};

/// Delays only the messages of the given kinds (per
/// [`ProtocolMsg::kind`]), letting everything else flow at the channel's
/// sampled default. `EA_COORD` + `EA_RELAY` with a delay just above the
/// timeout curve is the sharpest attack on the EA object's coordinator
/// phase that the model permits.
#[derive(Clone, Debug)]
pub struct KindTargetedOracle {
    /// Message kinds to slow down (e.g. `"EA_COORD"`).
    pub kinds: Vec<&'static str>,
    /// Delay for targeted kinds.
    pub delay: u64,
}

impl<V: Value> ScheduleOracle<ProtocolMsg<V>> for KindTargetedOracle {
    fn command(
        &mut self,
        _from: ProcessId,
        _to: ProcessId,
        _at: VirtualTime,
        msg: &ProtocolMsg<V>,
        _default: u64,
    ) -> ScheduleCommand {
        if self.kinds.contains(&msg.kind()) {
            ScheduleCommand::Stretch(self.delay)
        } else {
            ScheduleCommand::Default
        }
    }
}

/// Isolates a victim process: everything *to or from* it crawls at
/// `delay`, everything else is fast. Against a correct protocol the victim
/// must still decide (it reaches no quorum itself, but RB-Termination-2
/// eventually carries the decision to it).
#[derive(Clone, Debug)]
pub struct IsolateProcessOracle {
    /// The victim.
    pub victim: ProcessId,
    /// Delay for the victim's traffic.
    pub delay: u64,
}

impl<M> ScheduleOracle<M> for IsolateProcessOracle {
    fn command(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        _at: VirtualTime,
        _msg: &M,
        _default: u64,
    ) -> ScheduleCommand {
        if from == self.victim || to == self.victim {
            ScheduleCommand::Stretch(self.delay)
        } else {
            ScheduleCommand::Default
        }
    }
}

/// The strongest model-legal network adversary against the consensus
/// stack, for binary (0/1) value domains: it works to keep the system
/// split so that *only* the bisource's timely channels can ever unify it.
///
/// Three rules (all delays finite, all (eventually-)timely bounds still
/// enforced by the simulator):
///
/// 1. **Aux splitting** — reliable-broadcast traffic of the CB instances
///    (`CB_VAL(ConsValid)`, `CB_VAL(EaProp)`, `CB_VAL(AcProp)`) and of
///    `AC_EST` carrying value `v` is slowed by `split_extra` toward destinations
///    whose parity differs from `v`. Every process therefore validates and
///    witnesses its "own" value first: EA's line-4 fast path never fires
///    unanimously across the system and adopt-commit's MFA keeps returning
///    each side's own value — the split persists.
/// 2. **Coordinator starvation** — `EA_COORD` and `EA_RELAY` on
///    asynchronous channels crawl at `coord_relay_delay`, so relays beat
///    timers only where the model *guarantees* timeliness.
/// 3. Everything else flows at the channel's sampled default.
///
/// Against this adversary, termination is exactly the paper's Lemma 3
/// story: a round coordinated by the bisource, after stabilization, with
/// `X⁺ ⊆ F(r)` and timeouts above `2δ`. Experiments E3/E5/E6/E8 use it to
/// surface the round-complexity structure that benign schedules hide.
#[derive(Clone, Debug)]
pub struct SplitBrainOracle {
    /// Extra delay for cross-parity value traffic (rule 1).
    pub split_extra: u64,
    /// Delay for `EA_COORD` on async channels (rule 2).
    pub coord_delay: u64,
    /// Delay for non-⊥ `EA_RELAY` (witnessing relays crawl…).
    pub value_relay_delay: u64,
    /// Delay for `⊥` relays (…while suspicion spreads fast, so relay
    /// quorums fill with ⊥ wherever the model allows it).
    pub bottom_relay_delay: u64,
    /// When the round schedule is known, witness relays *from `F(r)`
    /// members* get this extra delay on top of `value_relay_delay`: line 7
    /// only accepts non-⊥ relays from `F(r)`, so the sharpest adversary
    /// makes exactly those the slowest. Convergence then genuinely requires
    /// the `X⁺ ⊆ F(r)` alignment the §5.4 bounds count.
    pub f_member_relay_extra: u64,
    /// The schedule used for the F-membership rule (None disables it).
    pub schedule: Option<minsync_types::RoundSchedule>,
}

impl Default for SplitBrainOracle {
    fn default() -> Self {
        SplitBrainOracle {
            split_extra: 60,
            coord_delay: 1_000,
            value_relay_delay: 1_000,
            bottom_relay_delay: 100,
            f_member_relay_extra: 500,
            schedule: None,
        }
    }
}

impl SplitBrainOracle {
    /// Default tuning plus schedule awareness (the F-membership rule).
    pub fn with_schedule(schedule: minsync_types::RoundSchedule) -> Self {
        SplitBrainOracle {
            schedule: Some(schedule),
            ..Default::default()
        }
    }
}

impl ScheduleOracle<ProtocolMsg<u64>> for SplitBrainOracle {
    fn command(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        _at: VirtualTime,
        msg: &ProtocolMsg<u64>,
        default: u64,
    ) -> ScheduleCommand {
        use minsync_core::{CbId, RbTag};
        match msg {
            ProtocolMsg::EaCoord { .. } => ScheduleCommand::Stretch(self.coord_delay),
            ProtocolMsg::EaRelay {
                round,
                value: Some(_),
            } => {
                let from_f = self
                    .schedule
                    .as_ref()
                    .is_some_and(|s| s.f_set(*round).contains(&from));
                if from_f {
                    ScheduleCommand::Stretch(self.value_relay_delay + self.f_member_relay_extra)
                } else {
                    ScheduleCommand::Stretch(self.value_relay_delay)
                }
            }
            ProtocolMsg::EaRelay { value: None, .. } => {
                ScheduleCommand::Stretch(self.bottom_relay_delay)
            }
            // Cross-parity EA_PROP2 is slowed too: otherwise a coordinator
            // can champion another parity's proposal (arriving before its
            // own CB instance resolves) and flip itself through its
            // always-timely self-channel relay.
            ProtocolMsg::EaProp2 { value, .. } if (to.index() % 2) as u64 != *value % 2 => {
                ScheduleCommand::Stretch(default + self.split_extra)
            }
            ProtocolMsg::Rb(rb) => {
                let (tag, value) = (rb.tag(), rb.value());
                let splittable = matches!(
                    tag,
                    RbTag::CbVal(CbId::ConsValid)
                        | RbTag::CbVal(CbId::EaProp(_))
                        | RbTag::CbVal(CbId::AcProp(_))
                        | RbTag::AcEst(_)
                );
                if splittable && (to.index() % 2) as u64 != *value % 2 {
                    ScheduleCommand::Stretch(default + self.split_extra)
                } else {
                    ScheduleCommand::Default
                }
            }
            _ => ScheduleCommand::Default,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minsync_broadcast::RbMsg;
    use minsync_core::{CbId, RbTag};
    use minsync_types::Round;
    use ScheduleCommand::Stretch;

    /// `o`'s command for `msg` from `from` to `to` at t = 0, with a sampled
    /// default of 5 ticks.
    fn ask<M>(o: &mut impl ScheduleOracle<M>, from: usize, to: usize, msg: &M) -> ScheduleCommand {
        o.command(
            ProcessId::new(from),
            ProcessId::new(to),
            VirtualTime::ZERO,
            msg,
            5,
        )
    }

    #[test]
    fn kind_targeted_hits_only_selected_kinds() {
        let mut o = KindTargetedOracle {
            kinds: vec!["EA_COORD"],
            delay: 900,
        };
        let coord: ProtocolMsg<u64> = ProtocolMsg::EaCoord {
            round: Round::FIRST,
            value: 1,
        };
        let relay: ProtocolMsg<u64> = ProtocolMsg::EaRelay {
            round: Round::FIRST,
            value: None,
        };
        assert_eq!(ask(&mut o, 0, 1, &coord), Stretch(900));
        assert_eq!(ask(&mut o, 0, 1, &relay), ScheduleCommand::Default);
    }

    #[test]
    fn isolation_targets_victim_traffic_both_ways() {
        let mut o = IsolateProcessOracle {
            victim: ProcessId::new(2),
            delay: 777,
        };
        assert_eq!(
            [(2, 0), (1, 2), (0, 1)].map(|(from, to)| ask(&mut o, from, to, &1u32)),
            [Stretch(777), Stretch(777), ScheduleCommand::Default]
        );
    }

    #[test]
    fn split_brain_slows_cross_parity_cb_traffic() {
        let mut o = SplitBrainOracle::default();
        let msg: ProtocolMsg<u64> = ProtocolMsg::Rb(RbMsg::Init {
            tag: RbTag::CbVal(CbId::EaProp(Round::FIRST)),
            value: 1,
        });
        // Value 1 toward an even process: slowed past the sampled 5 ticks.
        assert_eq!(ask(&mut o, 3, 0, &msg), Stretch(65));
        // Value 1 toward an odd process: the channel's own schedule.
        assert_eq!(ask(&mut o, 3, 1, &msg), ScheduleCommand::Default);
    }

    #[test]
    fn split_brain_leaves_decide_alone() {
        let mut o = SplitBrainOracle::default();
        let msg: ProtocolMsg<u64> = ProtocolMsg::Rb(RbMsg::Init {
            tag: RbTag::Decide,
            value: 1,
        });
        assert_eq!(
            ask(&mut o, 3, 0, &msg),
            ScheduleCommand::Default,
            "DECIDE traffic must not be split"
        );
    }

    #[test]
    fn split_brain_starves_coordinator_traffic() {
        let mut o = SplitBrainOracle::default();
        let coord: ProtocolMsg<u64> = ProtocolMsg::EaCoord {
            round: Round::FIRST,
            value: 0,
        };
        assert_eq!(ask(&mut o, 0, 1, &coord), Stretch(1_000));
        let witness: ProtocolMsg<u64> = ProtocolMsg::EaRelay {
            round: Round::FIRST,
            value: Some(0),
        };
        let suspect: ProtocolMsg<u64> = ProtocolMsg::EaRelay {
            round: Round::FIRST,
            value: None,
        };
        assert_eq!(
            (ask(&mut o, 0, 1, &witness), ask(&mut o, 0, 1, &suspect)),
            (Stretch(1_000), Stretch(100)),
            "witness relays must crawl behind ⊥ relays"
        );
    }
}
