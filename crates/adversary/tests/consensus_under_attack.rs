//! Consensus (Figure 4) under every adversary in the library: termination,
//! agreement, and validity must survive `t` Byzantine processes plus
//! adversarial asynchronous scheduling.

use minsync_adversary::{mutators, oracles, FilterNode, RandomProtocolNode, SilentNode};
use minsync_core::{ConsensusConfig, ConsensusEvent, ConsensusNode, ProtocolMsg};
use minsync_net::sim::{OutputRecord, RunReport, SimBuilder};
use minsync_net::{ChannelTiming, DelayLaw, NetworkTopology, VirtualTime};
use minsync_types::{check, BisourceSpec, ProcessId, SystemConfig};

type Msg = ProtocolMsg<u64>;
type Out = ConsensusEvent<u64>;
type BoxedNode = Box<dyn minsync_net::Node<Msg = Msg, Output = Out>>;

fn consensus(cfg: ConsensusConfig, v: u64) -> BoxedNode {
    Box::new(ConsensusNode::new(cfg, v).unwrap())
}

/// The decisions of the `correct` processes, in decision order.
fn decisions(outputs: &[OutputRecord<Out>], correct: &[usize]) -> Vec<(ProcessId, u64)> {
    let own = outputs
        .iter()
        .filter(|o| correct.contains(&o.process.index()));
    own.filter_map(|o| Some((o.process, *o.event.as_decision()?)))
        .collect()
}

/// `(process, decision tick)` for every decision, in decision order.
fn decision_ticks(report: &RunReport<Out>) -> Vec<(usize, u64)> {
    report
        .outputs
        .iter()
        .filter(|o| o.event.as_decision().is_some())
        .map(|o| (o.process.index(), o.time.ticks()))
        .collect()
}

/// Theorem 4 over the `correct` processes: each decided, on one value,
/// one of `proposed`.
fn assert_decided(report: &RunReport<Out>, correct: &[usize], proposed: &[u64]) {
    let expected = correct.iter().map(|&p| ProcessId::new(p));
    let d = decisions(&report.outputs, correct);
    let found = check::consensus(expected, d, |v| proposed.contains(v));
    assert!(found.is_empty(), "{found:?}");
}

/// Runs `nodes` until every `correct` process decided, then
/// [`assert_decided`].
fn assert_consensus(
    topo: NetworkTopology,
    nodes: Vec<BoxedNode>,
    correct: &[usize],
    proposed: &[u64],
    seed: u64,
) {
    let mut builder = SimBuilder::new(topo).seed(seed).max_events(3_000_000);
    for n in nodes {
        builder = builder.boxed_node(n);
    }
    let mut sim = builder.build();
    let report = sim.run_until(|outs| decisions(outs, correct).len() == correct.len());
    assert_decided(&report, correct, proposed);
}

#[test]
fn survives_silent_byzantine() {
    let system = SystemConfig::new(4, 1).unwrap();
    let cfg = ConsensusConfig::paper(system);
    for seed in 0..5 {
        let nodes: Vec<BoxedNode> = vec![
            consensus(cfg, 8),
            consensus(cfg, 9),
            consensus(cfg, 8),
            Box::new(SilentNode::<Msg, Out>::new()),
        ];
        assert_consensus(
            NetworkTopology::all_timely(4, 3),
            nodes,
            &[0, 1, 2],
            &[8, 9],
            seed,
        );
    }
}

#[test]
fn survives_two_silent_in_seven() {
    let system = SystemConfig::new(7, 2).unwrap();
    let cfg = ConsensusConfig::paper(system);
    let nodes: Vec<BoxedNode> = vec![
        consensus(cfg, 1),
        consensus(cfg, 2),
        consensus(cfg, 1),
        consensus(cfg, 2),
        consensus(cfg, 1),
        Box::new(SilentNode::<Msg, Out>::new()),
        Box::new(SilentNode::<Msg, Out>::new()),
    ];
    assert_consensus(
        NetworkTopology::all_timely(7, 2),
        nodes,
        &[0, 1, 2, 3, 4],
        &[1, 2],
        11,
    );
}

#[test]
fn survives_proposal_equivocator() {
    let system = SystemConfig::new(4, 1).unwrap();
    let cfg = ConsensusConfig::paper(system);
    for seed in 0..5 {
        // The equivocator "honestly" runs consensus but its initial
        // CB_VAL(ConsValid) INIT claims 100 to half and 200 to the rest.
        let byz = FilterNode::new(
            ConsensusNode::new(cfg, 100u64).unwrap(),
            mutators::equivocate_proposal::<u64>(4, 100, 200),
        );
        let nodes: Vec<BoxedNode> = vec![
            consensus(cfg, 5),
            consensus(cfg, 6),
            consensus(cfg, 5),
            Box::new(byz),
        ];
        // 100/200 must never be decided: neither can gather an RB echo
        // quorum as a single instance value... (they can actually: RB
        // echo quorum counts one value; equivocation means *at most one*
        // of them completes). Correct decisions must come from {5, 6} ∪
        // {the one equivocated value that completed}: the AC output-domain
        // property only allows values CB-validated as correct-process
        // proposals — 100/200 have a single (Byzantine) proposer, so
        // cb_valid never admits them.
        assert_consensus(
            NetworkTopology::all_timely(4, 3),
            nodes,
            &[0, 1, 2],
            &[5, 6],
            seed,
        );
    }
}

#[test]
fn survives_mute_coordinator() {
    let system = SystemConfig::new(4, 1).unwrap();
    let cfg = ConsensusConfig::paper(system);
    // p1 coordinates rounds 1, 5, 9, …; muting it forces the ⊥-relay path
    // in those rounds.
    let byz = FilterNode::new(
        ConsensusNode::new(cfg, 7u64).unwrap(),
        mutators::mute_coordinator::<u64>(),
    );
    let nodes: Vec<BoxedNode> = vec![
        Box::new(byz),
        consensus(cfg, 7),
        consensus(cfg, 9),
        consensus(cfg, 9),
    ];
    assert_consensus(
        NetworkTopology::all_timely(4, 3),
        nodes,
        &[1, 2, 3],
        &[7, 9],
        2,
    );
}

#[test]
fn survives_split_coordinator() {
    let system = SystemConfig::new(4, 1).unwrap();
    let cfg = ConsensusConfig::paper(system);
    for seed in 0..5 {
        let byz = FilterNode::new(
            ConsensusNode::new(cfg, 3u64).unwrap(),
            mutators::split_coordinator::<u64>(4, 3, 4),
        );
        let nodes: Vec<BoxedNode> = vec![
            Box::new(byz),
            consensus(cfg, 3),
            consensus(cfg, 4),
            consensus(cfg, 3),
        ];
        assert_consensus(
            NetworkTopology::all_timely(4, 3),
            nodes,
            &[1, 2, 3],
            &[3, 4],
            seed,
        );
    }
}

#[test]
fn survives_rb_support_withholder() {
    let system = SystemConfig::new(4, 1).unwrap();
    let cfg = ConsensusConfig::paper(system);
    let byz = FilterNode::new(
        ConsensusNode::new(cfg, 1u64).unwrap(),
        mutators::withhold_rb_support::<u64>(),
    );
    let nodes: Vec<BoxedNode> = vec![
        consensus(cfg, 1),
        Box::new(byz),
        consensus(cfg, 2),
        consensus(cfg, 2),
    ];
    assert_consensus(
        NetworkTopology::all_timely(4, 3),
        nodes,
        &[0, 2, 3],
        &[1, 2],
        4,
    );
}

#[test]
fn safety_holds_under_fuzzer() {
    // The fuzzer only *adds* messages; every wait is on distinct-sender
    // counts, so junk can pollute witnesses but never block progress.
    // Safety and termination must both hold.
    let system = SystemConfig::new(4, 1).unwrap();
    let cfg = ConsensusConfig::paper(system);
    for seed in 0..8 {
        let nodes: Vec<BoxedNode> = vec![
            consensus(cfg, 5),
            consensus(cfg, 6),
            consensus(cfg, 6),
            Box::new(RandomProtocolNode::<u64, Out>::new(vec![5, 6, 77, 99], 3)),
        ];
        assert_consensus(
            NetworkTopology::all_timely(4, 3),
            nodes,
            &[0, 1, 2],
            &[5, 6],
            seed,
        );
    }
}

#[test]
fn terminates_with_bisource_despite_adversarial_async_noise() {
    // Background channels asynchronous and adversarially slowed; only the
    // bisource's channels stabilize. The paper's headline claim: this is
    // enough.
    let system = SystemConfig::new(4, 1).unwrap();
    let cfg = ConsensusConfig::paper(system);
    let x = [ProcessId::new(0), ProcessId::new(1)];
    let spec = BisourceSpec::new(&system, ProcessId::new(1), x, x, system.plurality()).unwrap();
    let topo = NetworkTopology::uniform(
        4,
        ChannelTiming::asynchronous(DelayLaw::Uniform { min: 5, max: 60 }),
    )
    .with_bisource(&spec, VirtualTime::from_ticks(40), 4);
    let nodes: Vec<BoxedNode> = vec![
        consensus(cfg, 1),
        consensus(cfg, 2),
        consensus(cfg, 1),
        Box::new(SilentNode::<Msg, Out>::new()),
    ];
    let mut builder = SimBuilder::new(topo).seed(9).max_events(3_000_000);
    for n in nodes {
        builder = builder.boxed_node(n);
    }
    // Adversary stretches EA_COORD / EA_RELAY on asynchronous channels.
    let mut sim = builder
        .with_schedule_oracle(oracles::KindTargetedOracle {
            kinds: vec!["EA_COORD", "EA_RELAY"],
            delay: 300,
        })
        .build();
    let report = sim.run_until(|outs| decisions(outs, &[0, 1, 2]).len() == 3);
    assert_decided(&report, &[0, 1, 2], &[1, 2]);
    // Pinned execution: the decision ticks and the message count depend on
    // every delay the oracle stretched and on every bound that clamped one.
    assert_eq!(decision_ticks(&report), [(1, 527), (0, 535), (2, 547)]);
    assert_eq!(report.metrics.messages_sent, 536);
}

#[test]
fn isolated_victim_still_decides() {
    let system = SystemConfig::new(4, 1).unwrap();
    let cfg = ConsensusConfig::paper(system);
    let topo = NetworkTopology::uniform(4, ChannelTiming::asynchronous(DelayLaw::Fixed(2)));
    let nodes: Vec<BoxedNode> = vec![
        consensus(cfg, 1),
        consensus(cfg, 1),
        consensus(cfg, 2),
        consensus(cfg, 2),
    ];
    let mut builder = SimBuilder::new(topo).seed(13).max_events(3_000_000);
    for n in nodes {
        builder = builder.boxed_node(n);
    }
    let mut sim = builder
        .with_schedule_oracle(oracles::IsolateProcessOracle {
            victim: ProcessId::new(3),
            delay: 500,
        })
        .build();
    let report = sim.run_until(|outs| decisions(outs, &[0, 1, 2, 3]).len() == 4);
    assert_decided(&report, &[0, 1, 2, 3], &[1, 2]);
    // Pinned execution, as above: p3 decides last, ≈ one stretch later.
    assert_eq!(
        decision_ticks(&report),
        [(1, 32), (0, 32), (2, 32), (3, 530)]
    );
    assert_eq!(report.metrics.messages_sent, 756);
}

#[test]
fn survives_replay_attack() {
    use minsync_adversary::ReplayNode;
    let system = SystemConfig::new(4, 1).unwrap();
    let cfg = ConsensusConfig::paper(system);
    for seed in 0..5 {
        let nodes: Vec<BoxedNode> = vec![
            consensus(cfg, 5),
            consensus(cfg, 6),
            consensus(cfg, 5),
            Box::new(ReplayNode::<Msg, Out>::new(2)),
        ];
        assert_consensus(
            NetworkTopology::all_timely(4, 3),
            nodes,
            &[0, 1, 2],
            &[5, 6],
            seed,
        );
    }
}
