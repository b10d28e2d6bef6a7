//! A replicated command log (state-machine replication) built from repeated
//! consensus instances — the application the paper's introduction
//! motivates, using the `minsync-smr` crate.
//!
//! Four replicas serve two clients. Each log slot runs one instance of the
//! paper's consensus; replicas propose the next pending command of "their"
//! client (two distinct proposals per slot keeps the m-valued feasibility
//! `n − t > m·t` satisfied for n = 4, t = 1). One replica is Byzantine-
//! silent; the remaining three still build identical logs.
//!
//! ```text
//! cargo run --example replicated_log
//! ```

use minsync::adversary::SilentNode;
use minsync::core::ConsensusConfig;
use minsync::net::sim::SimBuilder;
use minsync::net::{NetworkTopology, Node};
use minsync::smr::{commits, committed_count, ReplicaNode, SmrEvent, SmrMsg, TwoClientSource};
use minsync::types::{check, ProcessId, SystemConfig};

type Msg = SmrMsg<u64>;
type Out = SmrEvent<u64>;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const SLOTS: u64 = 6;
    let system = SystemConfig::new(4, 1)?;
    let cfg = ConsensusConfig::paper(system);

    let mut builder = SimBuilder::new(NetworkTopology::all_timely(4, 3)).seed(77);
    for i in 0..3 {
        // Replicas 1, 3 push client 1's commands; replica 2 client 2's.
        builder = builder.node(ReplicaNode::new(
            cfg,
            TwoClientSource::new(1 + (i as u64 % 2)),
            SLOTS,
        ));
    }
    // The fourth replica is Byzantine-silent.
    builder = builder.boxed_node(
        Box::new(SilentNode::<Msg, Out>::new()) as Box<dyn Node<Msg = Msg, Output = Out>>
    );

    let mut sim = builder.build();
    let report = sim.run_until(|outs| ProcessId::all(3).all(|p| committed_count(outs, p) >= SLOTS));

    println!("replicated log after {SLOTS} slots (3 correct replicas + 1 silent Byzantine):");
    for p in ProcessId::all(3) {
        let entries: Vec<String> = commits(&report.outputs)
            .filter(|c| c.0 == p)
            .map(|(_, _, c)| format!("c{}#{}", TwoClientSource::client_of(*c), c % 1000))
            .collect();
        println!("  replica {}: [{}]", p.index(), entries.join(", "));
    }

    let mut found = check::prefix(commits(&report.outputs));
    let counts = ProcessId::all(3).map(|p| (p, committed_count(&report.outputs, p)));
    found.extend(check::termination(ProcessId::all(3), counts, &SLOTS));
    assert!(found.is_empty(), "replica logs diverged: {found:?}");
    println!(
        "all replica logs identical ✓ ({} messages total)",
        report.metrics.messages_sent
    );
    Ok(())
}
