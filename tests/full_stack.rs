//! Cross-crate integration tests exercised through the `minsync` facade:
//! determinism, bisource sweeps, threaded runtime, and the run builder.

use std::time::Duration;

use minsync::core::{ConsensusConfig, ConsensusEvent, ConsensusNode, ProtocolMsg, Rules};
use minsync::harness::{ConsensusRunBuilder, FaultPlan, TopologySpec};
use minsync::net::threaded::{run_threaded, ThreadedConfig, ThreadedOutput};
use minsync::net::{DelayLaw, NetworkTopology, Node};
use minsync::types::{check, ProcessId, SystemConfig};

#[test]
fn determinism_same_seed_same_everything() {
    let run = |seed: u64| {
        let o = ConsensusRunBuilder::new(7, 2)
            .unwrap()
            .proposals([1, 2, 1, 2, 1, 2, 1])
            .faults(FaultPlan::silent(2))
            .seed(seed)
            .run()
            .unwrap();
        (
            o.decided_value(),
            o.decision_latency(),
            o.total_messages(),
            o.rounds_to_decide(),
        )
    };
    let a = run(1234);
    let b = run(1234);
    assert_eq!(a, b, "identical seeds must replay identically");
    // And different seeds generally differ in at least the latency.
    let c = run(99);
    assert!(
        a != c || a.0 == c.0,
        "sanity: decisions may match, metrics differ"
    );
}

#[test]
fn every_bisource_identity_suffices() {
    // The paper never requires knowing *which* process is the bisource;
    // consensus must terminate whoever it is.
    let system = SystemConfig::new(4, 1).unwrap();
    for ell in 0..4 {
        let o = ConsensusRunBuilder::new(4, 1)
            .unwrap()
            .proposals([0, 1, 0, 1])
            .topology(TopologySpec::standard(ell, &system))
            .seed(7)
            .run()
            .unwrap();
        assert!(o.all_decided(), "bisource p{} failed", ell + 1);
        assert!(o.agreement_holds() && o.validity_holds());
    }
}

#[test]
fn late_stabilization_still_terminates() {
    let system = SystemConfig::new(4, 1).unwrap();
    let o = ConsensusRunBuilder::new(4, 1)
        .unwrap()
        .proposals([0, 1, 0, 1])
        .topology(TopologySpec::AsyncWithBisource {
            bisource: ProcessId::new(2),
            strength: system.plurality(),
            tau: 2_000,
            delta: 4,
            noise: DelayLaw::Uniform { min: 1, max: 50 },
        })
        .seed(3)
        .run()
        .unwrap();
    assert!(o.all_decided());
    assert!(o.agreement_holds() && o.validity_holds());
}

#[test]
fn threaded_runtime_runs_the_same_consensus_automaton() {
    let system = SystemConfig::new(4, 1).unwrap();
    let cfg = ConsensusConfig::paper(system);
    let nodes: Vec<Box<dyn Node<Msg = ProtocolMsg<u64>, Output = ConsensusEvent<u64>>>> =
        [5u64, 6, 5, 6]
            .into_iter()
            .map(|v| {
                Box::new(ConsensusNode::new(cfg, v).unwrap()) as Box<dyn Node<Msg = _, Output = _>>
            })
            .collect();
    let decided = |outs: &[ThreadedOutput<ConsensusEvent<u64>>]| -> Vec<(ProcessId, u64)> {
        outs.iter()
            .filter_map(|o| Some((o.process, *o.event.as_decision()?)))
            .collect()
    };
    let report = run_threaded(
        NetworkTopology::all_timely(4, 2),
        nodes,
        ThreadedConfig {
            tick: Duration::from_micros(100),
            timeout: Duration::from_secs(30),
            seed: 1,
        },
        |outs| decided(outs).len() == 4,
    );
    assert!(!report.timed_out, "threaded consensus timed out");
    let found = check::consensus(ProcessId::all(4), decided(&report.outputs), |v| {
        [5, 6].contains(v)
    });
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn message_kind_metrics_are_collected() {
    let o = ConsensusRunBuilder::new(4, 1)
        .unwrap()
        .proposals([1, 1, 1, 1])
        .seed(5)
        .run()
        .unwrap();
    let m = o.metrics();
    assert!(
        m.sent_of_kind("CB_VAL/INIT") >= 4,
        "every process starts CB[0]"
    );
    assert!(m.sent_of_kind("CB_VAL/ECHO") > 0);
    assert!(m.sent_of_kind("EA_PROP2") > 0);
    assert!(m.sent_of_kind("DECIDE/INIT") > 0);
    // Under a log slot's rules every CB wave is `CB(v)` by relay.
    let o = ConsensusRunBuilder::new(4, 1)
        .unwrap()
        .rules(Rules::SLOT)
        .proposals([1, 1, 1, 1])
        .seed(5)
        .run()
        .unwrap();
    let m = o.metrics();
    assert!(m.sent_of_kind("CB_VAL/RELAY") >= 16, "CB[0] is n² sends");
    assert_eq!(
        m.sent_of_kind("CB_VAL/INIT") + m.sent_of_kind("CB_VAL/ECHO"),
        0
    );
    assert!(m.sent_of_kind("DECIDE/INIT") > 0);
}

#[test]
fn unanimous_inputs_decide_in_the_first_round() {
    // All-same proposals: CB[0] = {v}, EA fast path, AC obligation — the
    // whole stack should finish in round 1.
    let o = ConsensusRunBuilder::new(4, 1)
        .unwrap()
        .proposals([9, 9, 9, 9])
        .topology(TopologySpec::AllTimely { delta: 2 })
        .seed(2)
        .run()
        .unwrap();
    assert!(o.all_decided());
    assert_eq!(o.decided_value(), Some(9));
    assert_eq!(
        o.commit_round(),
        Some(1),
        "unanimous case must commit in round 1"
    );
    assert!(
        o.rounds_to_decide() <= 2,
        "decision (t+1 DECIDE deliveries) lands in round 1 or just after"
    );
}

#[test]
fn ten_processes_three_faults() {
    let o = ConsensusRunBuilder::new(10, 3)
        .unwrap()
        .proposals((0..10).map(|i| (i % 2) as u64))
        .faults(FaultPlan::silent(3))
        .seed(8)
        .run()
        .unwrap();
    assert!(o.all_decided());
    assert!(o.agreement_holds() && o.validity_holds());
}

#[test]
fn thirteen_processes_four_faults_stress() {
    // The largest classic configuration in the test suite: n = 13, t = 4,
    // with a mixed adversary (2 silent + proposals split 7/6).
    let o = ConsensusRunBuilder::new(13, 4)
        .unwrap()
        .proposals((0..13).map(|i| (i % 2) as u64))
        .faults(FaultPlan::silent(4))
        .seed(21)
        .max_events(20_000_000)
        .run()
        .unwrap();
    assert!(o.all_decided());
    assert!(o.agreement_holds() && o.validity_holds());
}

#[test]
fn three_valued_consensus_at_n13() {
    // m = 3 is feasible at n = 13, t = 3 (m_max = 3): a genuinely
    // multi-valued instance beyond the binary cases.
    let o = ConsensusRunBuilder::new(13, 3)
        .unwrap()
        .proposals((0..13).map(|i| (i % 3) as u64))
        .faults(FaultPlan::silent(3))
        .seed(4)
        .max_events(20_000_000)
        .run()
        .unwrap();
    assert!(o.all_decided());
    assert!(o.agreement_holds() && o.validity_holds());
    assert!(o.decided_value().unwrap() <= 2);
}
