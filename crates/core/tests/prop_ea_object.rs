//! Property tests driving the [`EaObject`] state machine directly with
//! arbitrary (including Byzantine-shaped) input sequences.

mod common;

use minsync_broadcast::RbEngine;
use minsync_core::{CbId, EaAction, EaObject, RbTag, Rules, TimeoutPolicy};
use minsync_types::{ProcessId, Round, RoundSchedule, SystemConfig};
use proptest::prelude::*;

fn ea(me: usize, n: usize, t: usize) -> EaObject<u64> {
    let cfg = SystemConfig::new(n, t).unwrap();
    EaObject::new(
        cfg,
        RoundSchedule::new(&cfg, 0).unwrap(),
        ProcessId::new(me),
        TimeoutPolicy::paper(),
    )
}

/// One adversarial stimulus to the object.
#[derive(Clone, Debug)]
enum Stim {
    CbVal { from: usize, value: u64 },
    Prop2 { from: usize, value: u64 },
    Coord { from: usize, value: u64 },
    Relay { from: usize, value: Option<u64> },
    Timer,
}

fn stim_strategy(n: usize) -> impl Strategy<Value = Stim> {
    prop_oneof![
        (0..n, 0u64..3).prop_map(|(from, value)| Stim::CbVal { from, value }),
        (0..n, 0u64..3).prop_map(|(from, value)| Stim::Prop2 { from, value }),
        (0..n, 0u64..3).prop_map(|(from, value)| Stim::Coord { from, value }),
        (0..n, proptest::option::of(0u64..3)).prop_map(|(from, value)| Stim::Relay { from, value }),
        Just(Stim::Timer),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever arrives, in whatever order: no panics, at most one
    /// `Returned` per round, at most one relay broadcast per round, at most
    /// one champion per round, and any returned value with an all-correct
    /// F(r) witness chain is sane.
    #[test]
    fn ea_object_invariants_under_arbitrary_inputs(
        me in 0usize..4,
        propose_at in 0usize..20,
        stims in proptest::collection::vec(stim_strategy(4), 1..60),
    ) {
        let mut obj = ea(me, 4, 1);
        let r = Round::FIRST;
        let cfg = SystemConfig::new(4, 1).unwrap();
        let mut rb = RbEngine::new(cfg, ProcessId::new(me), Rules::PAPER);
        let mut returned = 0usize;
        let mut relays = 0usize;
        let mut champions = 0usize;
        let mut count_actions = |actions: Vec<EaAction<u64>>| {
            for a in actions {
                match a {
                    EaAction::Returned { .. } => returned += 1,
                    EaAction::Broadcast(minsync_core::ProtocolMsg::EaRelay { .. }) => relays += 1,
                    EaAction::Broadcast(minsync_core::ProtocolMsg::EaCoord { .. }) => {
                        champions += 1
                    }
                    _ => {}
                }
            }
        };
        for (i, stim) in stims.iter().enumerate() {
            if i == propose_at {
                count_actions(obj.propose(r, 1));
            }
            let actions = match *stim {
                Stim::CbVal { from, value } => {
                    let valid = common::deliver(&mut rb, cfg, RbTag::CbVal(CbId::EaProp(r)), from, value);
                    valid.map_or_else(Vec::new, |v| obj.on_cb_valid(r, v))
                }
                Stim::Prop2 { from, value } => obj.on_prop2(ProcessId::new(from), r, value),
                Stim::Coord { from, value } => obj.on_coord(ProcessId::new(from), r, value),
                Stim::Relay { from, value } => obj.on_relay(ProcessId::new(from), r, value),
                Stim::Timer => obj.on_timer_expired(r),
            };
            count_actions(actions);
        }
        prop_assert!(returned <= 1, "EA_propose returned {returned} times");
        prop_assert!(relays <= 1, "EA_RELAY broadcast {relays} times");
        prop_assert!(champions <= 1, "EA_COORD broadcast {champions} times");
        if returned == 1 {
            prop_assert!(obj.has_returned(r));
        }
    }

    /// EA-Validity (Lemma 1): if every correct process ea-proposes `v` and
    /// only `v` is CB-valid, the object can only return `v` — under any
    /// message schedule, including Byzantine prop2 junk (whose values never
    /// validate) and arbitrary coordinator messages for *other* values.
    #[test]
    fn ea_validity_under_unanimous_proposals(
        me in 0usize..4,
        order in proptest::collection::vec(0usize..4, 4..12),
        junk_from in 0usize..4,
    ) {
        let v = 7u64;
        let mut obj = ea(me, 4, 1);
        let r = Round::FIRST;
        let mut actions = obj.propose(r, v);
        // Byzantine junk prop2 first: never validates, never qualifies.
        actions.extend(obj.on_prop2(ProcessId::new(junk_from), r, 99));
        // CB validation of v from t+1 = 2 origins.
        actions.extend(obj.on_cb_valid(r, v));
        // Correct prop2s (first per sender counts) in arbitrary order.
        for &p in &order {
            actions.extend(obj.on_prop2(ProcessId::new(p), r, v));
        }
        let returns: Vec<&EaAction<u64>> = actions
            .iter()
            .filter(|a| matches!(a, EaAction::Returned { .. }))
            .collect();
        for a in returns {
            if let EaAction::Returned { value, .. } = a {
                prop_assert_eq!(*value, v, "EA-Validity violated");
            }
        }
    }
}
