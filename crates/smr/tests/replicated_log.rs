//! Integration tests of the replicated log: identical logs across replicas
//! under asynchrony and Byzantine faults, pipelined slots, log GC, and the
//! bounded future-slot buffer under a flooding adversary.

use std::ops::Range;

use minsync_adversary::{FilterNode, FloodNode, SilentNode};
use minsync_core::ConsensusConfig;
use minsync_net::sim::{OutputRecord, ScheduleCommand, SimBuilder};
use minsync_net::{ChannelTiming, DelayLaw, NetworkTopology, Node, VirtualTime};
use minsync_smr::{
    commits, committed_count, Digest, ReplicaNode, SmrEvent, SmrLimits, SmrMsg, TwoClientSource,
};
use minsync_telemetry::Registry;
use minsync_types::{check, ProcessId, SystemConfig};

type Msg = SmrMsg<u64>;
type Out = SmrEvent<u64>;

fn run_replicas(
    n: usize,
    t: usize,
    slots: u64,
    silent: usize,
    topo: NetworkTopology,
    seed: u64,
) -> Vec<OutputRecord<Out>> {
    let system = SystemConfig::new(n, t).unwrap();
    let cfg = ConsensusConfig::paper(system);
    let mut builder = SimBuilder::new(topo).seed(seed).max_events(20_000_000);
    let correct = n - silent;
    for i in 0..n {
        if i < correct {
            builder = builder.node(ReplicaNode::new(
                cfg,
                TwoClientSource::new(1 + (i as u64 % 2)),
                slots,
            ));
        } else {
            builder = builder
                .boxed_node(Box::new(SilentNode::<Msg, Out>::new())
                    as Box<dyn Node<Msg = Msg, Output = Out>>);
        }
    }
    let mut sim = builder.build();
    let report = sim.run_until(move |outs| {
        (0..correct).all(|p| committed_count(outs, minsync_types::ProcessId::new(p)) >= slots)
    });
    report.outputs
}

/// Replicas `replicas`, and no other process, each committed exactly
/// `slots` slots, and the logs are prefix-consistent.
fn assert_logs_identical(outputs: &[OutputRecord<Out>], replicas: Range<usize>, slots: u64) {
    let ids = || replicas.clone().map(ProcessId::new);
    let mut found = check::prefix(commits(outputs));
    let counts = ids().map(|p| (p, committed_count(outputs, p)));
    found.extend(check::termination(ids(), counts, &slots));
    assert!(found.is_empty(), "{found:?}");
    let others = commits(outputs).filter(|c| !replicas.contains(&c.0.index()));
    assert_eq!(others.count(), 0, "only replicas {replicas:?} commit");
}

/// Replica `p`'s committed commands, in commit order.
fn log_of(outputs: &[OutputRecord<Out>], p: usize) -> Vec<u64> {
    let own = commits(outputs).filter(|c| c.0.index() == p);
    own.map(|c| *c.2).collect()
}

#[test]
fn four_replicas_six_slots_synchronous() {
    let logs = run_replicas(4, 1, 6, 0, NetworkTopology::all_timely(4, 3), 1);
    assert_logs_identical(&logs, 0..4, 6);
}

#[test]
fn logs_agree_under_asynchrony() {
    let topo = NetworkTopology::uniform(
        4,
        ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 20 }),
    );
    for seed in 0..3 {
        let logs = run_replicas(4, 1, 5, 0, topo.clone(), seed);
        assert_logs_identical(&logs, 0..4, 5);
    }
}

#[test]
fn tolerates_silent_replica() {
    let logs = run_replicas(4, 1, 5, 1, NetworkTopology::all_timely(4, 3), 3);
    assert_logs_identical(&logs, 0..3, 5);
}

#[test]
fn seven_replicas_two_silent() {
    let logs = run_replicas(7, 2, 4, 2, NetworkTopology::all_timely(7, 2), 5);
    assert_logs_identical(&logs, 0..5, 4);
}

#[test]
fn every_committed_command_is_well_formed() {
    let logs = run_replicas(4, 1, 6, 0, NetworkTopology::all_timely(4, 3), 9);
    // Only the two clients' commands, each client's in order without gaps.
    for p in 0..4 {
        let log = log_of(&logs, p);
        let found = check::fifo(log.iter().copied(), |c| {
            (TwoClientSource::client_of(c), c % 1000)
        });
        assert!(found.is_empty(), "{found:?}");
        let clients = check::validity(log.iter().map(|&c| (ProcessId::new(p), c)), |&c| {
            matches!(TwoClientSource::client_of(c), 1 | 2)
        });
        assert!(clients.is_empty(), "{clients:?}");
    }
}

#[test]
fn same_seed_same_log() {
    let a = run_replicas(4, 1, 5, 0, NetworkTopology::all_timely(4, 3), 11);
    let b = run_replicas(4, 1, 5, 0, NetworkTopology::all_timely(4, 3), 11);
    assert_eq!(a, b);
}

/// With every replica correct, acks retire every slot: each replica
/// announces `Retired` reaching the full log, so live state (instances,
/// ack sets, values) is dropped behind the pipeline.
#[test]
fn all_correct_run_retires_the_whole_log() {
    const SLOTS: u64 = 8;
    let system = SystemConfig::new(4, 1).unwrap();
    let cfg = ConsensusConfig::paper(system);
    let mut builder = SimBuilder::new(NetworkTopology::all_timely(4, 3)).seed(21);
    for i in 0..4 {
        builder = builder.node(ReplicaNode::new(
            cfg,
            TwoClientSource::new(1 + (i as u64 % 2)),
            SLOTS,
        ));
    }
    let mut sim = builder.build();
    let report = sim.run_until(|outs| {
        (0..4).all(|p| {
            outs.iter()
                .filter(|o| o.process.index() == p)
                .any(|o| matches!(o.event, SmrEvent::Retired { through } if through >= SLOTS))
        })
    });
    assert!(
        (0..4).all(|p| {
            report
                .outputs
                .iter()
                .filter(|o| o.process.index() == p)
                .any(|o| matches!(o.event, SmrEvent::Retired { through } if through >= SLOTS))
        }),
        "every replica retired the full log"
    );
    // Retirement floors only ever advance.
    for p in 0..4 {
        let floors: Vec<u64> = report
            .outputs
            .iter()
            .filter(|o| o.process.index() == p)
            .filter_map(|o| match o.event {
                SmrEvent::Retired { through } => Some(through),
                _ => None,
            })
            .collect();
        assert!(
            floors.windows(2).all(|w| w[0] < w[1]),
            "floor regressed: {floors:?}"
        );
    }
}

/// Regression test for the two bounded buffers: a Byzantine flooder
/// spraying bogus proposals and slot garbage at every *in-range* future
/// slot (so every copy reaches the horizon/buffer logic rather than the
/// out-of-range early return) must not stop the correct replicas from
/// building identical logs, and the flood volume must vastly exceed what
/// any replica is allowed to hold. The drops are the flooder's alone: the
/// same lineup with the flooder silent drops nothing. The exact
/// `future_drops`/`buffered_len`/per-sender-cell arithmetic of the same
/// drop paths is pinned sans-io by the unit tests in `minsync-smr`.
#[test]
fn flooding_adversary_cannot_break_liveness_or_memory() {
    // The log is long (64 target slots) but the run only needs the first
    // few commits: the flood's slot sweep stays inside `target_slots`, so
    // replicas at slot ~2 see slots up to 64 — some within the horizon
    // (buffered until the 32-message cap, one payload cell per slot), most
    // beyond it (dropped).
    const TARGET: u64 = 64;
    const CHECK: u64 = 6;
    let n = 4;
    let system = SystemConfig::new(n, 1).unwrap();
    let cfg = ConsensusConfig::paper(system);
    let limits = SmrLimits {
        window: 8,
        future_horizon: 16,
        max_buffered: 32, // tiny on purpose: the flood must overflow it
        ckpt_retry: 0,
    };
    let run = |rider: Box<dyn Node<Msg = Msg, Output = Out>>| {
        let registries: Vec<Registry> = (0..n - 1).map(|_| Registry::new()).collect();
        let mut builder = SimBuilder::new(NetworkTopology::all_timely(n, 3))
            .seed(13)
            .max_events(20_000_000);
        for (i, registry) in registries.iter().enumerate() {
            builder = builder.node(
                ReplicaNode::new(cfg, TwoClientSource::new(1 + (i as u64 % 2)), TARGET)
                    .with_limits(limits)
                    .with_registry(registry),
            );
        }
        let mut sim = builder.boxed_node(rider).build();
        let report = sim.run_until(move |outs| {
            (0..n - 1).all(|p| committed_count(outs, ProcessId::new(p)) >= CHECK)
        });
        let drops: Vec<u64> = registries
            .iter()
            .map(|r| r.snapshot().counter("smr.future_drops").unwrap_or(0))
            .collect();
        (report, drops)
    };
    let (report, drops) = run(Box::new(FloodNode::<Msg, Out, _>::new(1, 16, 200, |i| {
        let slot = 2 + (i / 2 % (TARGET - 1));
        if i % 2 == 0 {
            SmrMsg::Slot {
                slot,
                msg: minsync_core::ProtocolMsg::EaProp2 {
                    round: minsync_types::Round::FIRST,
                    value: Digest::of(&0xDEADu64),
                },
            }
        } else {
            SmrMsg::Payload {
                slot,
                value: 0xDEAD,
            }
        }
    })));
    // The flood really flowed (16 msgs × 200 bursts × n destinations),
    // and each replica could buffer at most 32 of those ~1600 slot
    // messages and 17 of those ~1600 payloads.
    assert!(
        report.metrics.sent_by_process(ProcessId::new(n - 1)) >= 10_000,
        "flood too small to prove anything"
    );
    assert!(
        drops.iter().all(|&d| d > 2_000),
        "every replica refused most of the flood: {drops:?}"
    );
    // Liveness: every correct replica committed the checked prefix; the
    // logs are prefix-consistent, and no flooded command entered one.
    let outputs = &report.outputs;
    let correct = || ProcessId::all(n - 1);
    let reached = correct().filter(|&p| committed_count(outputs, p) >= CHECK);
    let mut found = check::prefix(commits(outputs));
    found.extend(check::termination(correct(), reached.map(|p| (p, ())), &()));
    let values = commits(outputs).map(|(p, _, &c)| (p, c));
    found.extend(check::validity(values, |&c| c != 0xDEAD));
    assert!(found.is_empty(), "{found:?}");
    // With the fourth replica silent instead, nothing is dropped: honest
    // traffic never comes near either bound.
    let (_, quiet) = run(Box::new(SilentNode::<Msg, Out>::new()));
    assert_eq!(quiet, [0, 0, 0], "honest traffic was dropped");
}

/// Counters of each of the first `replicas` replicas after a run.
fn counters(registries: &[Registry], name: &str) -> Vec<u64> {
    registries
        .iter()
        .map(|r| r.snapshot().counter(name).unwrap_or(0))
        .collect()
}

/// Two proposals per slot (the crate doc-test's population): whichever
/// wins, the two replicas that proposed the other value commit the winner's
/// payload — shipped to them once by its proposers — and the logs agree.
/// With the payloads held back past the decision the losers park and
/// commit on arrival; the log is the same.
#[test]
fn losing_proposers_commit_the_winners_payload() {
    const SLOTS: u64 = 6;
    let cfg = ConsensusConfig::paper(SystemConfig::new(4, 1).unwrap());
    let run = |late_payloads: bool| {
        let registries: Vec<Registry> = (0..4).map(|_| Registry::new()).collect();
        let topo = NetworkTopology::uniform(
            4,
            ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 5 }),
        );
        let mut builder = SimBuilder::new(topo).seed(7).with_schedule_oracle(
            move |_f: ProcessId, _t: ProcessId, _at: VirtualTime, msg: &Msg, _d: u64| match msg {
                SmrMsg::Payload { .. } if late_payloads => ScheduleCommand::After(2_000),
                _ => ScheduleCommand::Default,
            },
        );
        for (i, registry) in registries.iter().enumerate() {
            builder = builder.node(
                ReplicaNode::new(cfg, TwoClientSource::new(1 + (i as u64 % 2)), SLOTS)
                    .with_registry(registry),
            );
        }
        let mut sim = builder.build();
        let report =
            sim.run_until(|outs| (0..4).all(|p| committed_count(outs, ProcessId::new(p)) >= SLOTS));
        assert_logs_identical(&report.outputs, 0..4, SLOTS);
        (
            log_of(&report.outputs, 0),
            counters(&registries, "smr.payload_waits"),
            counters(&registries, "smr.payload_mismatch"),
        )
    };
    let (log, waits, mismatch) = run(false);
    // Every slot, two replicas committed a command they did not propose.
    for client in [1, 2] {
        assert!(
            log.iter().any(|&c| TwoClientSource::client_of(c) == client),
            "client {client} never won a slot: {log:?}"
        );
    }
    assert_eq!(waits, [0; 4], "payloads land long before the decision");
    assert_eq!(mismatch, [0; 4]);

    let (late_log, waits, _) = run(true);
    assert!(
        late_log
            .iter()
            .all(|&c| matches!(TwoClientSource::client_of(c), 1 | 2)),
        "{late_log:?}"
    );
    assert!(
        waits.iter().sum::<u64>() >= SLOTS,
        "each slot's losers decided before the winner's payload: {waits:?}"
    );
}

/// A replica that runs the protocol honestly — on its own digest — but
/// never ships the payload.
fn digest_only(
    cfg: ConsensusConfig,
    source: impl FnMut(u64) -> u64 + Send + 'static,
    slots: u64,
    limits: SmrLimits,
) -> Box<dyn Node<Msg = Msg, Output = Out>> {
    Box::new(FilterNode::new(
        ReplicaNode::new(cfg, source, slots).with_limits(limits),
        |_to, msg: &Msg| match msg {
            SmrMsg::Payload { .. } | SmrMsg::Checkpoint { .. } => None,
            other => Some(other.clone()),
        },
    ))
}

/// CONS-Validity over digests (DESIGN.md §6): a Byzantine proposer running
/// the protocol on a digest nobody holds the preimage of cannot get it
/// decided — one process is not `t + 1` — so no correct replica is ever
/// left waiting for a payload that does not exist.
#[test]
fn a_digest_without_a_payload_is_never_decided() {
    const SLOTS: u64 = 5;
    let cfg = ConsensusConfig::paper(SystemConfig::new(4, 1).unwrap());
    let registries: Vec<Registry> = (0..3).map(|_| Registry::new()).collect();
    let mut builder = SimBuilder::new(NetworkTopology::all_timely(4, 3)).seed(3);
    for registry in &registries {
        builder = builder
            .node(ReplicaNode::new(cfg, |slot: u64| 100 + slot, SLOTS).with_registry(registry));
    }
    builder = builder.boxed_node(digest_only(
        cfg,
        |slot| 900 + slot,
        SLOTS,
        SmrLimits::default(),
    ));
    let mut sim = builder.build();
    let report =
        sim.run_until(|outs| (0..3).all(|p| committed_count(outs, ProcessId::new(p)) >= SLOTS));
    assert_logs_identical(&report.outputs, 0..3, SLOTS);
    let expected: Vec<u64> = (1..=SLOTS).map(|slot| 100 + slot).collect();
    assert_eq!(log_of(&report.outputs, 0), expected);
    assert_eq!(counters(&registries, "smr.payload_waits"), [0; 3]);
}

/// Lossy links (outside the paper's model; `ckpt_retry` is the repair): a
/// slot with two proposals whose only correct proposer of the winning one
/// loses the first copy of its payload to every peer. Its second supporter
/// is a Byzantine replica that never ships a payload, so nobody else can
/// supply it, and a lone holder's checkpoints are one short of `t + 1`:
/// only the head-of-line replay, re-sending the payload while the slot is
/// still in flight, lets the other two commit what was decided.
#[test]
fn ckpt_retry_replays_a_lost_payload() {
    const SLOTS: u64 = 4;
    const LONE: usize = 1;
    let cfg = ConsensusConfig::paper(SystemConfig::new(4, 1).unwrap());
    let limits = SmrLimits {
        ckpt_retry: 10,
        ..SmrLimits::default()
    };
    let lone = |slot: u64| 100 + slot;
    let mut seen = std::collections::BTreeSet::new();
    // Replicas 0 (Byzantine) and 1 support the lone value, and on an
    // all-timely network their messages are processed first: it wins.
    let mut builder = SimBuilder::new(NetworkTopology::all_timely(4, 3))
        .seed(5)
        .max_events(2_000_000)
        .with_schedule_oracle(
            move |from: ProcessId, to: ProcessId, _at: VirtualTime, msg: &Msg, _d: u64| match msg {
                SmrMsg::Payload { slot, .. }
                    if from.index() == LONE && seen.insert((*slot, to)) =>
                {
                    ScheduleCommand::Drop
                }
                _ => ScheduleCommand::Default,
            },
        )
        .boxed_node(digest_only(cfg, lone, SLOTS, limits))
        .node(ReplicaNode::new(cfg, lone, SLOTS).with_limits(limits));
    for _ in 2..4 {
        builder =
            builder.node(ReplicaNode::new(cfg, |slot: u64| 200 + slot, SLOTS).with_limits(limits));
    }
    let mut sim = builder.build();
    let report =
        sim.run_until(|outs| (1..4).all(|p| committed_count(outs, ProcessId::new(p)) >= SLOTS));
    assert!(
        report.metrics.messages_suppressed >= 3 * SLOTS,
        "the oracle dropped the lone proposer's first payload copies"
    );
    assert_logs_identical(&report.outputs, 1..4, SLOTS);
    let expected: Vec<u64> = (1..=SLOTS).map(lone).collect();
    assert_eq!(
        log_of(&report.outputs, 2),
        expected,
        "the lone proposer's value must win, or the run proves nothing about the replay"
    );
}
