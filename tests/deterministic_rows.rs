//! The deterministic rows: every count the simulator produces for three
//! short closed-loop populations, compared for equality against constants
//! in this file. The populations are built from public APIs exactly as
//! `benchmark/src/spec.rs` builds `sim_n4_timely`, `sim_n7_bisource_silent`
//! and `sim_n20_timely` (think time 0, one routing group, clients = batch
//! = 8, correct replicas in the low ids), so a row here moves iff the
//! benchmark's count rows move.
//!
//! Nothing below is wall-clock: a run is exact per seed, so a difference is
//! a protocol, simulator or workload change, never noise. A PR that means
//! to move a row edits the constant and says why in CHANGES.md.

use minsync::adversary::SilentNode;
use minsync::core::ConsensusConfig;
use minsync::net::sim::SimBuilder;
use minsync::net::{ChannelTiming, DelayLaw, NetworkTopology, VirtualTime};
use minsync::smr::{collect_logs, ReplicaNode, SmrEvent, SmrMsg};
use minsync::transport::LogDigest;
use minsync::types::{BisourceSpec, ProcessId, SystemConfig};
use minsync::workload::{account, ArrivalProcess, Batch, DrainCursor, WorkloadSpec};

const CLIENTS: usize = 8;
const SEED: u64 = 11;

/// n=4 t=1, all timely, 60 slots. Per commit: 916 messages, of which
/// `CB_VAL/*` 576, `AC_EST/*` 144, `DECIDE/*` 144, `EA_*` 36, `SMR_ACK` 16;
/// the 16 on top of 60 × 916 are slot 61's `CB_VAL/INIT`, sent before the
/// stop predicate fires.
const N4_TIMELY: &[(&str, u64)] = &[
    ("messages_sent", 54_976),
    ("messages_delivered", 54_881),
    ("timers_fired", 0),
    ("events_processed", 55_065),
    ("last_commit_tick", 2_880),
    ("log_slots", 60),
    ("log_digest", 1_678_938_114_058_546_041),
    ("AC_EST/ECHO", 3_840),
    ("AC_EST/INIT", 960),
    ("AC_EST/READY", 3_840),
    ("CB_VAL/ECHO", 15_360),
    ("CB_VAL/INIT", 3_856),
    ("CB_VAL/READY", 15_360),
    ("DECIDE/ECHO", 3_840),
    ("DECIDE/INIT", 960),
    ("DECIDE/READY", 3_840),
    ("EA_COORD", 240),
    ("EA_PROP2", 960),
    ("EA_RELAY", 960),
    ("SMR_ACK", 960),
];

/// n=7 t=2 with two silent replicas under the bisource regime, 60 slots,
/// seed 11 (the only population whose delays are drawn from the seed). The
/// log is `N4_TIMELY`'s: same clients, same batches, same slots.
const N7_BISOURCE_SILENT: &[(&str, u64)] = &[
    ("messages_sent", 147_224),
    ("messages_delivered", 147_070),
    ("timers_fired", 8),
    ("events_processed", 147_088),
    ("last_commit_tick", 28_698),
    ("log_slots", 60),
    ("log_digest", 1_678_938_114_058_546_041),
    ("AC_EST/ECHO", 10_500),
    ("AC_EST/INIT", 2_100),
    ("AC_EST/READY", 10_500),
    ("CB_VAL/ECHO", 42_070),
    ("CB_VAL/INIT", 8_435),
    ("CB_VAL/READY", 42_000),
    ("DECIDE/ECHO", 10_500),
    ("DECIDE/INIT", 2_100),
    ("DECIDE/READY", 10_493),
    ("EA_COORD", 665),
    ("EA_PROP2", 3_157),
    ("EA_RELAY", 2_604),
    ("SMR_ACK", 2_100),
];

/// n=20 t=6, all timely, 3 slots: 99 620 messages per commit plus slot 4's
/// 400 `CB_VAL/INIT` (the benchmark's 25-slot trial reads 99 636 = 99 620 +
/// 400 / 25).
const N20_TIMELY: &[(&str, u64)] = &[
    ("messages_sent", 299_260),
    ("messages_delivered", 288_067),
    ("timers_fired", 0),
    ("events_processed", 288_144),
    ("last_commit_tick", 144),
    ("log_slots", 3),
    ("log_digest", 16_733_735_748_791_105_565),
    ("AC_EST/ECHO", 24_000),
    ("AC_EST/INIT", 1_200),
    ("AC_EST/READY", 24_000),
    ("CB_VAL/ECHO", 96_000),
    ("CB_VAL/INIT", 5_200),
    ("CB_VAL/READY", 96_000),
    ("DECIDE/ECHO", 24_000),
    ("DECIDE/INIT", 1_200),
    ("DECIDE/READY", 24_000),
    ("EA_COORD", 60),
    ("EA_PROP2", 1_200),
    ("EA_RELAY", 1_200),
    ("SMR_ACK", 1_200),
];

/// The paper's regime: every channel asynchronous with uniform 1–40-tick
/// delays, except those of a ⟨t+1⟩bisource at p0, timely (bound 4) from
/// time 0.
fn bisource_regime(system: &SystemConfig) -> NetworkTopology {
    let spec = BisourceSpec::adjacent(system, ProcessId::new(0), system.plurality())
        .expect("process 0 with strength t+1 is a valid bisource");
    let noise = DelayLaw::Uniform { min: 1, max: 40 };
    NetworkTopology::uniform(system.n(), ChannelTiming::asynchronous(noise)).with_bisource(
        &spec,
        VirtualTime::ZERO,
        4,
    )
}

/// Runs `slots` commands per client (one slot carries one command of each)
/// on `topology` with the top `silent` ids Byzantine-silent, until every
/// correct replica has drained them, and returns the rows: the simulator's
/// counters, replica 0's last commit tick, the slots and [`LogDigest`] of
/// the log up to its last command (equal at every correct replica), then
/// `kind_counts()` under [`SmrMsg::classify`].
fn rows(
    system: SystemConfig,
    silent: usize,
    topology: NetworkTopology,
    slots: usize,
) -> Vec<(&'static str, u64)> {
    let pop = WorkloadSpec {
        groups: 1,
        clients_per_group: CLIENTS,
        commands_per_client: slots,
        arrivals: ArrivalProcess::ClosedLoop { think: 0 },
        seed: SEED,
    }
    .generate(&system)
    .expect("one routing group is feasible for every (n, t)");
    let total = pop.total_commands();

    let cfg = ConsensusConfig::paper(system);
    let correct = system.n() - silent;
    let mut builder = SimBuilder::new(topology)
        .seed(SEED)
        .max_events(u64::MAX)
        .classify(SmrMsg::classify);
    let target = pop.slots_upper_bound(CLIENTS);
    for i in 0..correct {
        builder = builder.node(ReplicaNode::new(cfg, pop.source_for(i, CLIENTS), target));
    }
    for _ in 0..silent {
        builder = builder.node(SilentNode::<SmrMsg<Batch>, SmrEvent<Batch>>::new());
    }
    let mut sim = builder.build();
    let mut drained = DrainCursor::new(correct, total);
    let report = sim.run_until(|outs| drained.advance(outs, |o| (o.process, &o.event)));

    // The fold `minsync-node` reports: slots up to the one carrying the
    // last command.
    let logs = collect_logs(&report.outputs);
    let log_of = |replica: usize| {
        let (mut digest, mut slots, mut commands) = (LogDigest::new(), 0u64, 0usize);
        for (&slot, batch) in &logs[&replica] {
            if commands >= total {
                break;
            }
            digest.fold_slot(slot, batch.commands());
            slots += 1;
            commands += batch.len();
        }
        assert_eq!(commands, total, "replica {replica} did not drain");
        (slots, digest.value())
    };
    let (log_slots, log_digest) = log_of(0);
    for replica in 1..correct {
        assert_eq!(
            log_of(replica),
            (log_slots, log_digest),
            "replica {replica}'s log differs from replica 0's"
        );
    }

    let m = &report.metrics;
    let last_commit_tick = account(&pop, &report.outputs, ProcessId::new(0)).last_commit_tick;
    let mut rows = vec![
        ("messages_sent", m.messages_sent),
        ("messages_delivered", m.messages_delivered),
        ("timers_fired", m.timers_fired),
        ("events_processed", m.events_processed),
        ("last_commit_tick", last_commit_tick),
        ("log_slots", log_slots),
        ("log_digest", log_digest),
    ];
    rows.extend(m.kind_counts());
    rows
}

#[test]
fn n4_timely_rows_are_pinned() {
    let system = SystemConfig::new(4, 1).expect("valid (n, t)");
    let timely = NetworkTopology::all_timely(4, 3);
    assert_eq!(rows(system, 0, timely, 60), N4_TIMELY);
}

#[test]
fn n7_bisource_silent_rows_are_pinned() {
    let system = SystemConfig::new(7, 2).expect("valid (n, t)");
    let bisource = bisource_regime(&system);
    assert_eq!(rows(system, 2, bisource, 60), N7_BISOURCE_SILENT);
}

#[test]
fn n20_timely_rows_are_pinned() {
    let system = SystemConfig::new(20, 6).expect("valid (n, t)");
    let timely = NetworkTopology::all_timely(20, 3);
    assert_eq!(rows(system, 0, timely, 3), N20_TIMELY);
}
