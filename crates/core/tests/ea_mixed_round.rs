//! A documented edge of Figure 3 (see DESIGN.md §4): within one round, a
//! process can return via the line-4 fast path while another returns the
//! coordinator's champion — and the two values may differ.
//!
//! This does **not** violate the EA specification: EA-Validity only
//! constrains rounds where all correct processes propose the same value,
//! and EA-Eventual-agreement only promises infinitely many *good* rounds —
//! which Lemma 3 supplies through the bisource. The test pins down the
//! behavior so the subtlety stays visible, and checks the liveness bridge
//! (fast-returners still arm their timer and relay).

use minsync_core::{EaAction, EaObject, ProtocolMsg, TimeoutPolicy};
use minsync_types::{ProcessId, Round, RoundSchedule, SystemConfig};

fn ea(me: usize) -> EaObject<u64> {
    let cfg = SystemConfig::new(4, 1).unwrap();
    EaObject::new(
        cfg,
        RoundSchedule::new(&cfg, 0).unwrap(),
        ProcessId::new(me),
        TimeoutPolicy::paper(),
    )
}

/// Validates `value` at round `r` via two distinct RB origins.
fn validate(obj: &mut EaObject<u64>, r: Round, value: u64, origins: [usize; 2]) {
    let _ = obj.on_cb_val_delivered(ProcessId::new(origins[0]), r, value);
    let _ = obj.on_cb_val_delivered(ProcessId::new(origins[1]), r, value);
}

#[test]
fn fast_path_and_champion_can_disagree_within_a_round() {
    let r = Round::FIRST;

    // Process A (p2): sees a unanimous 0-witness → fast-returns 0.
    let mut a = ea(1);
    let _ = a.propose(r, 0);
    validate(&mut a, r, 0, [0, 1]);
    validate(&mut a, r, 9, [2, 3]);
    let mut acts_a = Vec::new();
    for p in 0..3 {
        acts_a.extend(a.on_prop2(ProcessId::new(p), r, 0));
    }
    let fast_a = acts_a.iter().find_map(|x| match x {
        EaAction::Returned { value, fast, .. } => Some((*value, *fast)),
        _ => None,
    });
    assert_eq!(fast_a, Some((0, true)), "A fast-returns 0: {acts_a:?}");
    // Liveness bridge: despite returning, A armed its round timer so it
    // will still relay (⊥ on expiry, or the champion).
    assert!(
        acts_a
            .iter()
            .any(|x| matches!(x, EaAction::SetTimer { .. })),
        "bridge: fast path must still arm the timer: {acts_a:?}"
    );

    // Process B (p4): sees a mixed witness → timer path; the round-1
    // coordinator (p1 ∈ F(1)) champions 9; B relays and returns it.
    let mut b = ea(3);
    let _ = b.propose(r, 9);
    validate(&mut b, r, 0, [0, 1]);
    validate(&mut b, r, 9, [2, 3]);
    let _ = b.on_prop2(ProcessId::new(0), r, 0);
    let _ = b.on_prop2(ProcessId::new(1), r, 9);
    let _ = b.on_prop2(ProcessId::new(2), r, 0);
    // Coordinator's champion arrives before B's timer expires.
    let acts = b.on_coord(ProcessId::new(0), r, 9);
    assert!(
        acts.contains(&EaAction::Broadcast(ProtocolMsg::EaRelay {
            round: r,
            value: Some(9)
        })),
        "B relays the champion: {acts:?}"
    );
    // Relay quorum: the coordinator's own relay (9, from F(1)) plus ⊥s.
    let mut acts_b = Vec::new();
    acts_b.extend(b.on_relay(ProcessId::new(0), r, Some(9)));
    acts_b.extend(b.on_relay(ProcessId::new(2), r, None));
    acts_b.extend(b.on_relay(ProcessId::new(3), r, Some(9)));
    let slow_b = acts_b.iter().find_map(|x| match x {
        EaAction::Returned { value, fast, .. } => Some((*value, *fast)),
        _ => None,
    });
    assert_eq!(
        slow_b,
        Some((9, false)),
        "B returns the champion: {acts_b:?}"
    );

    // The documented tension: same round, two correct processes, two
    // different returns (0 fast at A, 9 slow at B). EA tolerates this —
    // the consensus layer's adopt-commit absorbs it, and Lemma 3's rounds
    // (bisource-coordinated, X⁺ ⊆ F(r), timeout > 2δ) are the ones that
    // actually unify the system.
    assert_ne!(fast_a.unwrap().0, slow_b.unwrap().0);
}

#[test]
fn mixed_round_does_not_break_consensus_safety() {
    // End-to-end: engineered proposals that maximize fast/slow mixing must
    // still satisfy agreement + validity (the AC layer's job).
    use minsync_core::{ConsensusConfig, ConsensusEvent, ConsensusNode};
    use minsync_net::sim::{OutputRecord, SimBuilder};
    use minsync_net::{ChannelTiming, DelayLaw, NetworkTopology};
    use minsync_types::check;

    let system = SystemConfig::new(4, 1).unwrap();
    let cfg = ConsensusConfig::paper(system);
    for seed in 0..10 {
        let topo = NetworkTopology::uniform(
            4,
            ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 35 }),
        );
        let mut builder = SimBuilder::new(topo).seed(seed).max_events(3_000_000);
        for v in [0u64, 9, 0, 9] {
            builder = builder.node(ConsensusNode::new(cfg, v).unwrap());
        }
        let mut sim = builder.build();
        let decided = |outs: &[OutputRecord<ConsensusEvent<u64>>]| -> Vec<(ProcessId, u64)> {
            outs.iter()
                .filter_map(|o| Some((o.process, *o.event.as_decision()?)))
                .collect()
        };
        let report = sim.run_until(|outs| decided(outs).len() == 4);
        let decisions = decided(&report.outputs);
        let found = check::consensus(ProcessId::all(4), decisions, |v| [0, 9].contains(v));
        assert!(found.is_empty(), "seed {seed}: {found:?}");
    }
}
