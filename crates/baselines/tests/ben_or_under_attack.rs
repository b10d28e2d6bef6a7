//! Ben-Or under adversarial behaviors — documents the resilience boundary
//! the module docs state: silent/crash faults are tolerated at n > 3t; the
//! classic analysis needs n > 5t for full Byzantine equivocation, which the
//! n = 7, t = 1 configuration satisfies.

use minsync_adversary::{FilterNode, SilentNode};
use minsync_baselines::{BenOrEvent, BenOrMsg, BenOrNode};
use minsync_net::sim::{OutputRecord, SimBuilder};
use minsync_net::{ChannelTiming, DelayLaw, NetworkTopology, Node};
use minsync_types::{check, ProcessId, SystemConfig};

type BoxedNode = Box<dyn Node<Msg = BenOrMsg, Output = BenOrEvent>>;

/// Runs `nodes` until the `correct` processes decided, and asserts
/// Theorem 4 over them: each decided, on one value, one of `proposed`.
fn run(nodes: Vec<BoxedNode>, correct: Vec<usize>, proposed: &[u8], seed: u64) {
    let n = nodes.len();
    let topo = NetworkTopology::uniform(
        n,
        ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 10 }),
    );
    let mut builder = SimBuilder::new(topo).seed(seed).max_events(20_000_000);
    for node in nodes {
        builder = builder.boxed_node(node);
    }
    let decided = |outs: &[OutputRecord<BenOrEvent>]| -> Vec<(ProcessId, u8)> {
        let own = outs.iter().filter(|o| correct.contains(&o.process.index()));
        own.filter_map(|o| match o.event {
            BenOrEvent::Decided { value, .. } => Some((o.process, value)),
            _ => None,
        })
        .collect()
    };
    let report = builder
        .build()
        .run_until(|outs| decided(outs).len() == correct.len());
    let d = decided(&report.outputs);
    let expected = correct.iter().map(|&p| ProcessId::new(p));
    let found = check::consensus(expected, d, |v| proposed.contains(v));
    assert!(found.is_empty(), "seed {seed}: {found:?}");
}

#[test]
fn tolerates_silent_fault() {
    let cfg = SystemConfig::new(4, 1).unwrap();
    for seed in 0..4 {
        let nodes: Vec<BoxedNode> = vec![
            Box::new(BenOrNode::new(cfg, 0, 100_000)),
            Box::new(BenOrNode::new(cfg, 1, 100_000)),
            Box::new(BenOrNode::new(cfg, 0, 100_000)),
            Box::new(SilentNode::<BenOrMsg, BenOrEvent>::new()),
        ];
        run(nodes, vec![0, 1, 2], &[0, 1], seed);
    }
}

#[test]
fn equivocating_reporter_tolerated_at_n7_t1() {
    // n = 7 > 5t = 5: the super-majority threshold (n+t)/2 defeats a single
    // equivocator that reports 0 to half the system and 1 to the rest.
    let cfg = SystemConfig::new(7, 1).unwrap();
    for seed in 0..4 {
        let byz = FilterNode::new(
            BenOrNode::new(cfg, 0, 100_000),
            |to: ProcessId, msg: &BenOrMsg| match *msg {
                BenOrMsg::Report { round, .. } => Some(BenOrMsg::Report {
                    round,
                    value: (to.index() % 2) as u8,
                }),
                BenOrMsg::Propose { round, .. } => Some(BenOrMsg::Propose {
                    round,
                    value: Some((to.index() % 2) as u8),
                }),
            },
        );
        let mut nodes: Vec<BoxedNode> = (0..6)
            .map(|i| Box::new(BenOrNode::new(cfg, (i % 2) as u8, 100_000)) as BoxedNode)
            .collect();
        nodes.push(Box::new(byz));
        run(nodes, (0..6).collect(), &[0, 1], seed);
    }
}

#[test]
fn unanimous_validity_holds_under_equivocator() {
    // All correct propose 1; the decision must be 1 (the equivocator cannot
    // fabricate a 0 super-majority: it contributes one report per process).
    let cfg = SystemConfig::new(7, 1).unwrap();
    let byz = FilterNode::new(
        BenOrNode::new(cfg, 0, 100_000),
        |_to: ProcessId, msg: &BenOrMsg| match *msg {
            BenOrMsg::Report { round, .. } => Some(BenOrMsg::Report { round, value: 0 }),
            BenOrMsg::Propose { round, .. } => Some(BenOrMsg::Propose {
                round,
                value: Some(0),
            }),
        },
    );
    let mut nodes: Vec<BoxedNode> = (0..6)
        .map(|_| Box::new(BenOrNode::new(cfg, 1, 100_000)) as BoxedNode)
        .collect();
    nodes.push(Box::new(byz));
    run(nodes, (0..6).collect(), &[1], 7);
}
