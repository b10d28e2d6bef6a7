//! E10 — end-to-end replicated-service throughput and latency.
//!
//! The paper motivates its consensus object as the engine of state-machine
//! replication; E10 measures the repo *as* a replicated service: client
//! populations from `minsync-workload` submit commands, `minsync-smr`
//! replicas agree on batches of them, and the table reports commands per
//! 1000 virtual ticks plus p50/p95/p99 submit→commit latency.
//!
//! Sweeps: system size `n`, batch cap (batch = 1 is the unbatched
//! pipeline — the headline result is batching's ≥ 2× commands-per-tick
//! advantage), arrival process/rate, network shape (all-timely vs
//! asynchronous-with-eventual-bisource), and Byzantine riders (silent
//! replicas and a future-slot flooder). Every run asserts that all correct
//! replicas commit identical command sequences; the `sim↔threaded` case
//! additionally replays the workload on the threaded runtime and asserts
//! the logs match the simulator's bit for bit.

use std::time::Duration;

use minsync_adversary::{FloodNode, SilentNode};
use minsync_core::{ConsensusConfig, ProtocolMsg};
use minsync_net::sim::SimBuilder;
use minsync_net::threaded::{run_threaded, ThreadedConfig};
use minsync_net::Node;
use minsync_smr::{commits, Digest, ReplicaNode, SmrEvent, SmrMsg};
use minsync_types::{ProcessId, Round, SystemConfig};
use minsync_workload::{
    account, log_violations, ArrivalProcess, Batch, ClientPopulation, DrainCursor, WorkloadReport,
    WorkloadSpec,
};

use crate::topology::TopologySpec;
use crate::Table;

type Msg = SmrMsg<Batch>;
type Out = SmrEvent<Batch>;

/// Byzantine riders for a workload run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rider {
    None,
    /// `count` silent replicas in the top slots.
    Silent(usize),
    /// One future-slot flooder in the top slot.
    Flood,
}

impl Rider {
    fn faulty(self) -> usize {
        match self {
            Rider::None => 0,
            Rider::Silent(c) => c,
            Rider::Flood => 1,
        }
    }

    fn label(self) -> String {
        match self {
            Rider::None => "none".into(),
            Rider::Silent(c) => format!("silent×{c}"),
            Rider::Flood => "flood×1".into(),
        }
    }
}

/// One fully-specified E10 measurement.
struct CaseSpec {
    case: &'static str,
    n: usize,
    t: usize,
    groups: usize,
    batch: usize,
    clients_per_group: usize,
    commands_per_client: usize,
    arrivals: ArrivalProcess,
    topo: TopologySpec,
    topo_label: &'static str,
    rider: Rider,
    seed: u64,
}

struct CaseResult {
    spec: CaseSpec,
    report: WorkloadReport,
    messages: u64,
}

/// Builds the replica line-up for a case and runs it on the simulator until
/// every correct replica drained the workload, asserting identical command
/// logs across the correct replicas.
///
/// # Panics
///
/// Panics if logs diverge, a command commits out of per-client order, or
/// the run stalls before draining the workload.
fn run_case(spec: CaseSpec) -> CaseResult {
    let system = SystemConfig::new(spec.n, spec.t).expect("valid system");
    let pop = WorkloadSpec {
        groups: spec.groups,
        clients_per_group: spec.clients_per_group,
        commands_per_client: spec.commands_per_client,
        arrivals: spec.arrivals,
        seed: spec.seed,
    }
    .generate(&system)
    .expect("feasible workload");
    let total = pop.total_commands();
    let topo = spec.topo.build(&system).expect("valid topology");
    let faulty = spec.rider.faulty();
    let correct = spec.n - faulty;

    let mut builder = SimBuilder::new(topo)
        .seed(spec.seed)
        .max_events(100_000_000)
        .classify(SmrMsg::classify);
    for node in replica_lineup(system, &pop, spec.batch, spec.rider) {
        builder = builder.boxed_node(node);
    }
    let mut sim = builder.build();
    let mut drained = DrainCursor::new(correct, total);
    let report = sim.run_until(|outs| drained.advance(outs, |o| (o.process, &o.event)));

    // Identical logs across every correct replica, every command committed
    // exactly once, in per-client order.
    let correct_commits = commits(&report.outputs).filter(|c| c.0.index() < correct);
    let found = log_violations(correct_commits, correct, total);
    assert!(
        found.is_empty(),
        "E10 {}: {found:?} ({:?})",
        spec.case,
        report.reason
    );

    let workload = account(&pop, &report.outputs, ProcessId::new(0));
    CaseResult {
        spec,
        report: workload,
        messages: report.metrics.messages_sent,
    }
}

fn replica_lineup(
    system: SystemConfig,
    pop: &ClientPopulation,
    batch: usize,
    rider: Rider,
) -> Vec<Box<dyn Node<Msg = Msg, Output = Out>>> {
    let cfg = ConsensusConfig::paper(system);
    let n = system.n();
    let faulty = rider.faulty();
    let target = pop.slots_upper_bound(batch);
    let mut nodes: Vec<Box<dyn Node<Msg = Msg, Output = Out>>> = (0..n - faulty)
        .map(|i| {
            Box::new(ReplicaNode::new(cfg, pop.source_for(i, batch), target))
                as Box<dyn Node<Msg = Msg, Output = Out>>
        })
        .collect();
    for _ in 0..faulty {
        match rider {
            Rider::Silent(_) => nodes.push(Box::new(SilentNode::<Msg, Out>::new())),
            Rider::Flood => nodes.push(Box::new(FloodNode::<Msg, Out, _>::new(
                2,
                8,
                2_000,
                // Slot garbage and bogus proposals, alternating, swept over
                // every future slot.
                move |i| {
                    let slot = 2 + (i / 2 % (target.max(3) - 2));
                    let value = Batch(vec![u64::MAX]);
                    if i % 2 == 0 {
                        SmrMsg::Slot {
                            slot,
                            msg: ProtocolMsg::EaProp2 {
                                round: Round::FIRST,
                                value: Digest([0xFF; 32]),
                            },
                        }
                    } else {
                        SmrMsg::Payload { slot, value }
                    }
                },
            ))),
            Rider::None => unreachable!("no faulty slots to fill"),
        }
    }
    nodes
}

/// Runs the `sim↔threaded` case: a single-group workload (whose log is a
/// pure function of the commit stream) replayed on both substrates must
/// commit bit-identical command sequences.
///
/// Returns the simulator-side report for the table row.
fn run_cross_substrate(quick: bool, seed: u64) -> (WorkloadReport, u64) {
    let system = SystemConfig::new(4, 1).expect("valid system");
    let pop = WorkloadSpec {
        groups: 1,
        clients_per_group: 2,
        commands_per_client: if quick { 8 } else { 16 },
        arrivals: ArrivalProcess::Poisson { mean_gap: 2.0 },
        seed,
    }
    .generate(&system)
    .expect("feasible workload");
    let total = pop.total_commands();
    let batch = 8;
    let cfg = ConsensusConfig::paper(system);
    let topo = minsync_net::NetworkTopology::all_timely(4, 3);

    let nodes = |_: ()| -> Vec<Box<dyn Node<Msg = Msg, Output = Out>>> {
        (0..4)
            .map(|i| {
                Box::new(ReplicaNode::new(
                    cfg,
                    pop.source_for(i, batch),
                    pop.slots_upper_bound(batch),
                )) as Box<dyn Node<Msg = Msg, Output = Out>>
            })
            .collect()
    };

    let mut builder = SimBuilder::new(topo.clone()).seed(seed);
    for node in nodes(()) {
        builder = builder.boxed_node(node);
    }
    let mut sim = builder.build();
    let mut drained = DrainCursor::new(4, total);
    let sim_report = sim.run_until(|outs| drained.advance(outs, |o| (o.process, &o.event)));

    let mut drained = DrainCursor::new(4, total);
    let threaded = run_threaded(
        topo,
        nodes(()),
        ThreadedConfig {
            tick: Duration::from_micros(50),
            timeout: Duration::from_secs(60),
            seed,
        },
        |outs| drained.advance(outs, |o| (o.process, &o.event)),
    );
    assert!(
        !threaded.timed_out,
        "E10 sim↔threaded: threaded run timed out"
    );
    // Threaded replica p answers to id 4 + p: one prefix check spans both
    // substrates.
    let threaded_commits = threaded.outputs.iter().filter_map(|o| {
        let (slot, batch) = o.event.as_committed()?;
        Some((ProcessId::new(4 + o.process.index()), slot, batch))
    });
    let found = log_violations(
        commits(&sim_report.outputs).chain(threaded_commits),
        8,
        total,
    );
    assert!(found.is_empty(), "E10 sim↔threaded: {found:?}");
    (
        account(&pop, &sim_report.outputs, ProcessId::new(0)),
        sim_report.metrics.messages_sent,
    )
}

/// The per-(n, t) batch sweep on an all-timely network — the batching
/// headline. Returns the results keyed by batch cap.
fn batch_sweep(n: usize, t: usize, quick: bool, seed: u64) -> Vec<CaseResult> {
    let caps: &[usize] = if quick { &[1, 8] } else { &[1, 16, 64] };
    let commands_per_client = if quick { 12 } else { 16 };
    caps.iter()
        .map(|&batch| {
            run_case(CaseSpec {
                case: "batch",
                n,
                t,
                groups: 2,
                batch,
                clients_per_group: n, // population scales with the system
                commands_per_client,
                arrivals: ArrivalProcess::Poisson { mean_gap: 0.5 },
                topo: TopologySpec::AllTimely { delta: 3 },
                topo_label: "timely",
                rider: Rider::None,
                seed,
            })
        })
        .collect()
}

/// Runs E10.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E10 — Batched SMR throughput/latency (commands per 1000 ticks, latency in ticks)",
        [
            "case",
            "n",
            "t",
            "topology",
            "faults",
            "m",
            "batch",
            "arrivals",
            "cmds",
            "msgs",
            "ticks",
            "cmds/ktick",
            "p50",
            "p95",
            "p99",
        ],
    );
    let seed = 1;
    let mut results: Vec<CaseResult> = Vec::new();

    // 1. The batch sweep: unbatched (batch = 1) vs batched pipelines.
    let sizes: &[(usize, usize)] = if quick { &[(4, 1)] } else { &[(4, 1), (10, 3)] };
    for &(n, t) in sizes {
        results.extend(batch_sweep(n, t, quick, seed));
    }

    // 2. Arrival processes: rate sweep, bursts, closed loop.
    let arrival_shapes: Vec<ArrivalProcess> = if quick {
        vec![ArrivalProcess::Bursty {
            burst: 8,
            period: 64,
        }]
    } else {
        vec![
            ArrivalProcess::Poisson { mean_gap: 4.0 },
            ArrivalProcess::Poisson { mean_gap: 16.0 },
            ArrivalProcess::Bursty {
                burst: 16,
                period: 256,
            },
            ArrivalProcess::ClosedLoop { think: 8 },
        ]
    };
    for arrivals in arrival_shapes {
        results.push(run_case(CaseSpec {
            case: "arrivals",
            n: 4,
            t: 1,
            groups: 2,
            batch: 8,
            clients_per_group: 4,
            commands_per_client: if quick { 12 } else { 24 },
            arrivals,
            topo: TopologySpec::AllTimely { delta: 3 },
            topo_label: "timely",
            rider: Rider::None,
            seed,
        }));
    }

    // 3. Topology and Byzantine riders: the eventual bisource regime, and
    //    silent/flooding adversaries riding along.
    let eventual = |t: usize| TopologySpec::AsyncWithBisource {
        bisource: ProcessId::new(0),
        strength: t + 1,
        tau: 40,
        delta: 4,
        noise: TopologySpec::default_noise(),
    };
    let rider_cases: Vec<(usize, usize, TopologySpec, &'static str, Rider)> = if quick {
        vec![
            (4, 1, eventual(1), "bisource", Rider::None),
            (
                4,
                1,
                TopologySpec::AllTimely { delta: 3 },
                "timely",
                Rider::Silent(1),
            ),
        ]
    } else {
        vec![
            (10, 3, eventual(3), "bisource", Rider::None),
            (
                10,
                3,
                TopologySpec::AllTimely { delta: 3 },
                "timely",
                Rider::Silent(3),
            ),
            (10, 3, eventual(3), "bisource", Rider::Silent(3)),
            (
                10,
                3,
                TopologySpec::AllTimely { delta: 3 },
                "timely",
                Rider::Flood,
            ),
        ]
    };
    for (n, t, topo, topo_label, rider) in rider_cases {
        results.push(run_case(CaseSpec {
            case: "riders",
            n,
            t,
            groups: 2,
            batch: if quick { 8 } else { 16 },
            clients_per_group: 4,
            commands_per_client: if quick { 12 } else { 24 },
            arrivals: ArrivalProcess::Poisson { mean_gap: 1.0 },
            topo,
            topo_label,
            rider,
            seed,
        }));
    }

    for r in &results {
        table.push_row([
            r.spec.case.to_string(),
            r.spec.n.to_string(),
            r.spec.t.to_string(),
            r.spec.topo_label.to_string(),
            r.spec.rider.label(),
            r.spec.groups.to_string(),
            r.spec.batch.to_string(),
            r.spec.arrivals.label(),
            r.report.commands.to_string(),
            r.messages.to_string(),
            r.report.last_commit_tick.to_string(),
            format!("{:.2}", r.report.cmds_per_ktick()),
            r.report.latency.p50.to_string(),
            r.report.latency.p95.to_string(),
            r.report.latency.p99.to_string(),
        ]);
    }

    // 4. Cross-substrate equivalence (asserts identical logs internally).
    let (cross, cross_msgs) = run_cross_substrate(quick, seed);
    table.push_row([
        "sim↔threaded".to_string(),
        "4".to_string(),
        "1".to_string(),
        "timely".to_string(),
        "none".to_string(),
        "1".to_string(),
        "8".to_string(),
        "poisson(gap=2)".to_string(),
        cross.commands.to_string(),
        cross_msgs.to_string(),
        cross.last_commit_tick.to_string(),
        format!("{:.2}", cross.cmds_per_ktick()),
        cross.latency.p50.to_string(),
        cross.latency.p95.to_string(),
        cross.latency.p99.to_string(),
    ]);

    // 5. The headline: batching speedup per system size (largest batch vs
    //    the unbatched pipeline, same workload).
    for &(n, t) in sizes {
        let sweep: Vec<&CaseResult> = results
            .iter()
            .filter(|r| r.spec.case == "batch" && r.spec.n == n)
            .collect();
        let unbatched = sweep
            .iter()
            .find(|r| r.spec.batch == 1)
            .expect("batch=1 row");
        let best = sweep.last().expect("non-empty sweep");
        let speedup = best.report.cmds_per_ktick() / unbatched.report.cmds_per_ktick();
        table.push_row([
            "speedup".to_string(),
            n.to_string(),
            t.to_string(),
            "timely".to_string(),
            "none".to_string(),
            "2".to_string(),
            format!("{}vs1", best.spec.batch),
            "—".to_string(),
            "—".to_string(),
            "—".to_string(),
            "—".to_string(),
            format!("{speedup:.2}×"),
            "—".to_string(),
            "—".to_string(),
            "—".to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table_covers_all_cases() {
        let table = run(true);
        let cases: std::collections::BTreeSet<&str> =
            table.rows().iter().map(|r| r[0].as_str()).collect();
        assert!(cases.contains("batch"));
        assert!(cases.contains("arrivals"));
        assert!(cases.contains("riders"));
        assert!(cases.contains("sim↔threaded"));
        assert!(cases.contains("speedup"));
    }

    #[test]
    fn batching_beats_the_unbatched_pipeline() {
        let sweep = batch_sweep(4, 1, true, 7);
        let unbatched = sweep.iter().find(|r| r.spec.batch == 1).unwrap();
        let batched = sweep.iter().find(|r| r.spec.batch > 1).unwrap();
        let speedup = batched.report.cmds_per_ktick() / unbatched.report.cmds_per_ktick();
        assert!(
            speedup >= 2.0,
            "batching speedup below the 2× bar: {speedup:.2}"
        );
    }

    #[test]
    fn flood_rider_does_not_stall_the_service() {
        let r = run_case(CaseSpec {
            case: "riders",
            n: 4,
            t: 1,
            groups: 2,
            batch: 8,
            clients_per_group: 2,
            commands_per_client: 6,
            arrivals: ArrivalProcess::Poisson { mean_gap: 1.0 },
            topo: TopologySpec::AllTimely { delta: 3 },
            topo_label: "timely",
            rider: Rider::Flood,
            seed: 3,
        });
        assert_eq!(r.report.commands, 24);
    }
}
