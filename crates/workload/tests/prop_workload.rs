//! Property tests for the batched SMR pipeline: identical logs across
//! replicas for random seeds/arrival rates, and identical logs across the
//! simulator and the threaded runtime for single-group workloads.

use std::time::Duration;

use minsync_core::ConsensusConfig;
use minsync_net::sim::SimBuilder;
use minsync_net::threaded::{run_threaded, ThreadedConfig};
use minsync_net::{ChannelTiming, DelayLaw, NetworkTopology, Node};
use minsync_smr::{ReplicaNode, SmrEvent, SmrMsg};
use minsync_types::SystemConfig;
use minsync_workload::{
    command, ArrivalProcess, Batch, ClientPopulation, DrainCursor, WorkloadSpec,
};
use proptest::prelude::*;

type Msg = SmrMsg<Batch>;
type Out = SmrEvent<Batch>;

fn population(groups: usize, mean_gap: f64, seed: u64) -> (SystemConfig, ClientPopulation) {
    let system = SystemConfig::new(4, 1).unwrap();
    let pop = WorkloadSpec {
        groups,
        clients_per_group: 2,
        commands_per_client: 6,
        arrivals: ArrivalProcess::Poisson { mean_gap },
        seed,
    }
    .generate(&system)
    .unwrap();
    (system, pop)
}

fn replica_nodes(
    system: SystemConfig,
    pop: &ClientPopulation,
    batch: usize,
) -> Vec<Box<dyn Node<Msg = Msg, Output = Out>>> {
    let cfg = ConsensusConfig::paper(system);
    (0..system.n())
        .map(|i| {
            Box::new(ReplicaNode::new(
                cfg,
                pop.source_for(i, batch),
                pop.slots_upper_bound(batch),
            )) as Box<dyn Node<Msg = Msg, Output = Out>>
        })
        .collect()
}

/// Flattens one replica's committed batches into its command sequence.
fn flatten(events: impl Iterator<Item = Out>) -> Vec<u64> {
    let mut out = Vec::new();
    for event in events {
        if let SmrEvent::Committed { command, .. } = event {
            out.extend_from_slice(command.commands());
        }
    }
    out
}

fn sim_command_logs(
    system: SystemConfig,
    pop: &ClientPopulation,
    batch: usize,
    seed: u64,
    topo: NetworkTopology,
) -> Vec<Vec<u64>> {
    let total = pop.total_commands();
    let n = system.n();
    let mut builder = SimBuilder::new(topo).seed(seed).max_events(30_000_000);
    for node in replica_nodes(system, pop, batch) {
        builder = builder.boxed_node(node);
    }
    let mut sim = builder.build();
    let mut drained = DrainCursor::new(n, total);
    let report = sim.run_until(|outs| drained.advance(outs, |o| (o.process, &o.event)));
    (0..n)
        .map(|p| {
            flatten(
                report
                    .outputs
                    .iter()
                    .filter(|o| o.process.index() == p)
                    .map(|o| o.event.clone()),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Batched logs agree across replicas, contain every command exactly
    /// once, and respect per-client order — for random seeds, arrival
    /// rates, batch caps, and group counts, on a noisy asynchronous
    /// network.
    #[test]
    fn batched_logs_agree_across_replicas(
        seed in any::<u64>(),
        mean_gap in 1u64..24,
        batch in 1usize..9,
        groups in 1usize..3,
    ) {
        let (system, pop) = population(groups, mean_gap as f64, seed);
        let topo = NetworkTopology::uniform(
            4,
            ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 12 }),
        );
        let logs = sim_command_logs(system, &pop, batch, seed, topo);
        let reference = &logs[0];
        prop_assert_eq!(reference.len(), pop.total_commands(), "every command committed");
        for log in &logs {
            prop_assert_eq!(log, reference, "replica logs diverged");
        }
        // Exactly-once, in per-client order.
        let mut next_seq = std::collections::BTreeMap::new();
        for &cmd in reference {
            let client = command::client_of(cmd);
            let expected = next_seq.entry(client).or_insert(0u64);
            prop_assert_eq!(command::seq_of(cmd), *expected, "client {} out of order", client);
            *expected += 1;
        }
    }
}

proptest! {
    // Threaded runs cost wall-clock time; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For single-group workloads the committed command sequence is a pure
    /// function of the commit stream, so the simulator and the threaded
    /// runtime produce bit-identical logs — for random workload seeds,
    /// arrival rates, and batch caps.
    #[test]
    fn sim_and_threaded_commit_identical_logs(
        seed in any::<u64>(),
        mean_gap in 1u64..16,
        batch in 1usize..7,
    ) {
        let (system, pop) = population(1, mean_gap as f64, seed);
        let total = pop.total_commands();

        let sim_logs = sim_command_logs(
            system,
            &pop,
            batch,
            seed,
            NetworkTopology::all_timely(4, 3),
        );

        let mut drained = DrainCursor::new(4, total);
        let report = run_threaded(
            NetworkTopology::all_timely(4, 3),
            replica_nodes(system, &pop, batch),
            ThreadedConfig {
                tick: Duration::from_micros(50),
                timeout: Duration::from_secs(60),
                seed: seed ^ 1,
            },
            |outs| drained.advance(outs, |o| (o.process, &o.event)),
        );
        prop_assert!(!report.timed_out, "threaded run timed out");
        for (p, sim_log) in sim_logs.iter().enumerate() {
            let threaded_log = flatten(
                report
                    .outputs
                    .iter()
                    .filter(|o| o.process.index() == p)
                    .map(|o| o.event.clone()),
            );
            prop_assert_eq!(
                &threaded_log[..total],
                &sim_log[..total],
                "substrates diverged at replica {}",
                p
            );
        }
    }
}
