//! Consensus (Figure 4) under every adversary in the library: termination,
//! agreement, and validity must survive `t` Byzantine processes plus
//! adversarial asynchronous scheduling.

use minsync_adversary::{mutators, oracles, FilterNode, RandomProtocolNode, SilentNode};
use minsync_core::{ConsensusConfig, ConsensusEvent, ConsensusNode, ProtocolMsg};
use minsync_net::sim::{RunReport, SimBuilder};
use minsync_net::{ChannelTiming, DelayLaw, NetworkTopology, VirtualTime};
use minsync_types::{BisourceSpec, ProcessId, SystemConfig};

type Msg = ProtocolMsg<u64>;
type Out = ConsensusEvent<u64>;
type BoxedNode = Box<dyn minsync_net::Node<Msg = Msg, Output = Out>>;

fn consensus(cfg: ConsensusConfig, v: u64) -> BoxedNode {
    Box::new(ConsensusNode::new(cfg, v).unwrap())
}

fn decisions(report: &RunReport<Out>, correct: &[usize]) -> Vec<(usize, u64)> {
    report
        .outputs
        .iter()
        .filter(|o| correct.contains(&o.process.index()))
        .filter_map(|o| o.event.as_decision().map(|v| (o.process.index(), *v)))
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

fn run_to_decisions(
    topo: NetworkTopology,
    nodes: Vec<BoxedNode>,
    correct: Vec<usize>,
    seed: u64,
) -> (Vec<(usize, u64)>, RunReport<Out>) {
    let need = correct.len();
    let mut builder = SimBuilder::new(topo).seed(seed).max_events(3_000_000);
    for n in nodes {
        builder = builder.boxed_node(n);
    }
    let mut sim = builder.build();
    let correct_for_pred = correct.clone();
    let report = sim.run_until(move |outs| {
        outs.iter()
            .filter(|o| correct_for_pred.contains(&o.process.index()))
            .filter(|o| o.event.as_decision().is_some())
            .count()
            == need
    });
    (decisions(&report, &correct), report)
}

fn assert_agreement_validity(d: &[(usize, u64)], proposed: &[u64], n_correct: usize) {
    assert_eq!(d.len(), n_correct, "termination violated: {d:?}");
    let v = d[0].1;
    assert!(d.iter().all(|&(_, x)| x == v), "agreement violated: {d:?}");
    assert!(
        proposed.contains(&v),
        "validity violated: decided {v}, proposed {proposed:?}"
    );
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
        let (d, _) = run_to_decisions(
            NetworkTopology::all_timely(4, 3),
            nodes,
            vec![0, 1, 2],
            seed,
        );
        assert_agreement_validity(&d, &[8, 9], 3);
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
    let (d, _) = run_to_decisions(
        NetworkTopology::all_timely(7, 2),
        nodes,
        vec![0, 1, 2, 3, 4],
        11,
    );
    assert_agreement_validity(&d, &[1, 2], 5);
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
        let (d, _) = run_to_decisions(
            NetworkTopology::all_timely(4, 3),
            nodes,
            vec![0, 1, 2],
            seed,
        );
        // 100/200 must never be decided: neither can gather an RB echo
        // quorum as a single instance value... (they can actually: RB
        // echo quorum counts one value; equivocation means *at most one*
        // of them completes). Correct decisions must come from {5, 6} ∪
        // {the one equivocated value that completed}: the AC output-domain
        // property only allows values CB-validated as correct-process
        // proposals — 100/200 have a single (Byzantine) proposer, so
        // cb_valid never admits them.
        assert_agreement_validity(&d, &[5, 6], 3);
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
    let (d, _) = run_to_decisions(NetworkTopology::all_timely(4, 3), nodes, vec![1, 2, 3], 2);
    assert_agreement_validity(&d, &[7, 9], 3);
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
        let (d, _) = run_to_decisions(
            NetworkTopology::all_timely(4, 3),
            nodes,
            vec![1, 2, 3],
            seed,
        );
        assert_agreement_validity(&d, &[3, 4], 3);
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
    let (d, _) = run_to_decisions(NetworkTopology::all_timely(4, 3), nodes, vec![0, 2, 3], 4);
    assert_agreement_validity(&d, &[1, 2], 3);
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
        let (d, _) = run_to_decisions(
            NetworkTopology::all_timely(4, 3),
            nodes,
            vec![0, 1, 2],
            seed,
        );
        assert_agreement_validity(&d, &[5, 6], 3);
    }
}

#[test]
fn terminates_with_bisource_despite_adversarial_async_noise() {
    // Background channels asynchronous and adversarially slowed; only the
    // bisource's channels stabilize. The paper's headline claim: this is
    // enough.
    let system = SystemConfig::new(4, 1).unwrap();
    let cfg = ConsensusConfig::paper(system);
    let spec = BisourceSpec::symmetric(&system, ProcessId::new(1), system.plurality()).unwrap();
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
    let need = 3;
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
    let report = sim.run_until(move |outs| {
        outs.iter()
            .filter(|o| o.process.index() < 3)
            .filter(|o| o.event.as_decision().is_some())
            .count()
            == need
    });
    let d = decisions(&report, &[0, 1, 2]);
    assert_agreement_validity(&d, &[1, 2], 3);
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
    let report = sim.run_until(|outs| {
        outs.iter()
            .filter(|o| o.event.as_decision().is_some())
            .count()
            == 4
    });
    let d = decisions(&report, &[0, 1, 2, 3]);
    assert_agreement_validity(&d, &[1, 2], 4);
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
        let (d, _) = run_to_decisions(
            NetworkTopology::all_timely(4, 3),
            nodes,
            vec![0, 1, 2],
            seed,
        );
        assert_agreement_validity(&d, &[5, 6], 3);
    }
}
