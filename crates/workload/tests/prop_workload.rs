//! Property tests for the batched SMR pipeline: identical logs across
//! replicas for random seeds/arrival rates, and identical logs across the
//! simulator and the threaded runtime for single-group workloads.

use std::time::Duration;

use minsync_net::sim::{RunReport, SimBuilder};
use minsync_net::threaded::{run_threaded, ThreadedConfig};
use minsync_net::{ChannelTiming, DelayLaw, NetworkTopology, Node};
use minsync_smr::{commits, SmrEvent, SmrMsg};
use minsync_types::{ProcessId, SystemConfig};
use minsync_workload::{
    log_violations, ArrivalProcess, Batch, ClientPopulation, DrainCursor, WorkloadSpec,
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
    (0..system.n())
        .map(|i| Box::new(pop.replica(system, i, batch)) as Box<dyn Node<Msg = Msg, Output = Out>>)
        .collect()
}

fn sim_report(
    system: SystemConfig,
    pop: &ClientPopulation,
    batch: usize,
    seed: u64,
    topo: NetworkTopology,
) -> RunReport<Out> {
    let mut builder = SimBuilder::new(topo).seed(seed).max_events(30_000_000);
    for node in replica_nodes(system, pop, batch) {
        builder = builder.boxed_node(node);
    }
    let mut drained = DrainCursor::new(system.n(), pop.total_commands());
    builder
        .build()
        .run_until(|outs| drained.advance(outs, |o| (o.process, &o.event)))
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
        let report = sim_report(system, &pop, batch, seed, topo);
        let found = log_violations(commits(&report.outputs), 4, pop.total_commands());
        prop_assert!(found.is_empty(), "{:?}", found);
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

        let sim = sim_report(system, &pop, batch, seed, NetworkTopology::all_timely(4, 3));
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
        // Threaded replica p answers to id 4 + p: one prefix check spans
        // both substrates, and each of the eight replicas committed `total`.
        let threaded_commits = report.outputs.iter().filter_map(|o| {
            let (slot, batch) = o.event.as_committed()?;
            Some((ProcessId::new(4 + o.process.index()), slot, batch))
        });
        let found = log_violations(commits(&sim.outputs).chain(threaded_commits), 8, total);
        prop_assert!(found.is_empty(), "sim ≡ threaded: {:?}", found);
    }
}
