//! End-to-end tests of the ⊥-validity variant (Section 7): consensus with
//! no m-feasibility requirement, deciding ⊥ when correct processes
//! disagree.

use minsync::core::bot_variant::{BotConsensusNode, BotEvent, BotMsg};
use minsync::core::ConsensusConfig;
use minsync::net::sim::SimBuilder;
use minsync::net::{ChannelTiming, DelayLaw, NetworkTopology, Node};
use minsync::types::{check, ProcessId, SystemConfig};

type Msg = BotMsg<u64>;
type Out = BotEvent<u64>;

/// The agreed decision (`None` is ⊥), after asserting termination of every
/// process, agreement, and validity (⊥ or a proposed value).
fn run(proposals: &[u64], topo: NetworkTopology, seed: u64) -> Option<u64> {
    let n = proposals.len();
    let t = (n - 1) / 3;
    let system = SystemConfig::new(n, t).unwrap();
    let cfg = ConsensusConfig::paper(system);
    let mut builder = SimBuilder::new(topo).seed(seed).max_events(5_000_000);
    for &p in proposals {
        let node: Box<dyn Node<Msg = Msg, Output = Out>> =
            Box::new(BotConsensusNode::new(cfg, p).unwrap());
        builder = builder.boxed_node(node);
    }
    let mut sim = builder.build();
    let report = sim.run_until(|outs| outs.len() == n);
    let d: Vec<(ProcessId, Option<u64>)> = report
        .outputs
        .iter()
        .map(|o| match &o.event {
            BotEvent::Decided { value } => (o.process, Some(*value)),
            BotEvent::DecidedBottom => (o.process, None),
        })
        .collect();
    let valid = |v: &Option<u64>| v.map_or(true, |v| proposals.contains(&v));
    let found = check::consensus(ProcessId::all(n), d.iter().copied(), valid);
    assert!(found.is_empty(), "seed {seed}: {found:?}");
    d[0].1
}

#[test]
fn unanimous_proposals_decide_the_value_not_bottom() {
    let d = run(&[42, 42, 42, 42], NetworkTopology::all_timely(4, 3), 1);
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
        run(&[10, 20, 30, 40], NetworkTopology::all_timely(4, 3), seed);
    }
}

#[test]
fn works_under_asynchrony() {
    let topo = NetworkTopology::uniform(
        4,
        ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 15 }),
    );
    for seed in 0..3 {
        run(&[7, 7, 8, 9], topo.clone(), seed);
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
            NetworkTopology::all_timely(7, 2),
            seed,
        );
        assert_ne!(d, Some(2), "2 can never certify with 2 proposers");
    }
}
