//! End-to-end tests of the ⊥-validity variant (Section 7): consensus with
//! no m-feasibility requirement, deciding ⊥ when correct processes
//! disagree.

use minsync::adversary::SilentNode;
use minsync::core::bot_variant::{BotConsensusNode, BotEvent, BotMsg};
use minsync::core::ConsensusConfig;
use minsync::net::sim::SimBuilder;
use minsync::net::{ChannelTiming, DelayLaw, NetworkTopology};
use minsync::types::{check, ProcessId, SystemConfig};

type Msg = BotMsg<u64>;
type Out = BotEvent<u64>;

/// The decisions (`None` is ⊥) of the correct `proposals`, followed by
/// `silent` silent Byzantine processes, after asserting agreement and
/// validity (⊥ or a proposed value).
fn decisions(
    proposals: &[u64],
    silent: usize,
    topo: NetworkTopology,
    seed: u64,
) -> Vec<(ProcessId, Option<u64>)> {
    let n = proposals.len() + silent;
    let cfg = ConsensusConfig::paper(SystemConfig::new(n, (n - 1) / 3).unwrap());
    let mut builder = SimBuilder::new(topo).seed(seed).max_events(5_000_000);
    for &p in proposals {
        builder = builder.node(BotConsensusNode::new(cfg, p).unwrap());
    }
    for _ in 0..silent {
        builder = builder.node(SilentNode::<Msg, Out>::new());
    }
    let report = builder
        .build()
        .run_until(|outs| outs.len() == proposals.len());
    let d: Vec<(ProcessId, Option<u64>)> = report
        .outputs
        .iter()
        .map(|o| match &o.event {
            BotEvent::Decided { value } => (o.process, Some(*value)),
            BotEvent::DecidedBottom => (o.process, None),
        })
        .collect();
    let valid = |v: &Option<u64>| v.map_or(true, |v| proposals.contains(&v));
    let mut found = check::agreement(d.iter().copied());
    found.extend(check::validity(d.iter().copied(), valid));
    assert!(found.is_empty(), "{proposals:?}, seed {seed}: {found:?}");
    d
}

/// The agreed decision of [`decisions`], after asserting that every
/// correct process decided.
fn run(proposals: &[u64], silent: usize, topo: NetworkTopology, seed: u64) -> Option<u64> {
    let d = decisions(proposals, silent, topo, seed);
    let decided = d.iter().map(|&(p, _)| (p, ()));
    let found = check::termination(ProcessId::all(proposals.len()), decided, &());
    assert!(found.is_empty(), "seed {seed}: {found:?}");
    d[0].1
}

#[test]
fn unanimous_proposals_decide_the_value_not_bottom() {
    let d = run(&[42, 42, 42, 42], 0, NetworkTopology::all_timely(4, 3), 1);
    assert_eq!(
        d,
        Some(42),
        "obligation: all-same input must decide the value"
    );
}

#[test]
fn all_distinct_proposals_agree_possibly_on_bottom() {
    // m = n distinct values: infeasible for the main algorithm, fine here.
    for seed in 0..5 {
        run(
            &[10, 20, 30, 40],
            0,
            NetworkTopology::all_timely(4, 3),
            seed,
        );
    }
}

#[test]
fn works_under_asynchrony() {
    let topo = NetworkTopology::uniform(
        4,
        ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 15 }),
    );
    for seed in 0..3 {
        run(&[7, 7, 8, 9], 0, topo.clone(), seed);
    }
}

#[test]
fn seven_processes_majority_value_can_win() {
    // 5 of 7 propose 1: 1 certifies (> (n+t)/2 = 4 deliveries reachable);
    // whether it wins depends on timing, but the decision is 1 or ⊥ and
    // never 2 (only two proposers — can never certify).
    for seed in 0..3 {
        let d = run(
            &[1, 1, 1, 1, 1, 2, 2],
            0,
            NetworkTopology::all_timely(7, 2),
            seed,
        );
        assert_ne!(d, Some(2), "2 can never certify with 2 proposers");
    }
}

#[test]
fn silent_byzantine_processes_unanimous_and_all_distinct_decide_but_a_split_stalls() {
    let timely = |n| NetworkTopology::all_timely(n, 3);
    // Unanimous: the value certifies and is decided.
    assert_eq!(run(&[5, 5, 5], 1, timely(4), 1), Some(5));
    // All distinct: no value can certify, every watch resolves 0.
    assert_eq!(run(&[5, 7, 9], 1, timely(4), 1), None);
    assert_eq!(run(&[1, 2, 3, 4, 5], 2, timely(7), 1), None);
    // Known gap (the module docs' Termination bullet): t silent processes
    // keep a split's watches pending forever, and nobody decides.
    assert_eq!(decisions(&[5, 5, 7], 1, timely(4), 1), []);
    assert_eq!(decisions(&[1, 1, 1, 1, 2], 2, timely(7), 1), []);
}
