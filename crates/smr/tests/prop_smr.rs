//! Property test: replicated-log safety over random seeds and slot counts.

use minsync_core::ConsensusConfig;
use minsync_net::sim::SimBuilder;
use minsync_net::{ChannelTiming, DelayLaw, NetworkTopology};
use minsync_smr::{commits, committed_count, ReplicaNode, TwoClientSource};
use minsync_types::{check, ProcessId, SystemConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// All replicas commit identical logs of well-formed commands, for any
    /// seed and slot count, on a noisy asynchronous network.
    #[test]
    fn logs_are_identical_and_well_formed(seed in any::<u64>(), slots in 1u64..5) {
        let system = SystemConfig::new(4, 1).unwrap();
        let cfg = ConsensusConfig::paper(system);
        let topo = NetworkTopology::uniform(
            4,
            ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 15 }),
        );
        let mut builder = SimBuilder::new(topo).seed(seed).max_events(10_000_000);
        for i in 0..4 {
            builder = builder.node(ReplicaNode::new(
                cfg,
                TwoClientSource::new(1 + (i as u64 % 2)),
                slots,
            ));
        }
        let mut sim = builder.build();
        let report =
            sim.run_until(move |outs| (0..4).all(|p| committed_count(outs, ProcessId::new(p)) >= slots));
        // Every replica commits exactly `slots` slots, the logs agree, and
        // per-client sequence numbers commit in order without gaps.
        let mut found = check::prefix(commits(&report.outputs));
        let counts = ProcessId::all(4).map(|p| (p, committed_count(&report.outputs, p)));
        found.extend(check::termination(ProcessId::all(4), counts, &slots));
        let log = commits(&report.outputs).filter(|c| c.0.index() == 0).map(|c| *c.2);
        found.extend(check::fifo(log, |c| (TwoClientSource::client_of(c), c % 1000)));
        prop_assert!(found.is_empty(), "{:?}", found);
    }
}
