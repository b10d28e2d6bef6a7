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
use minsync::net::sim::{SimBuilder, Simulation};
use minsync::net::{ChannelTiming, DelayLaw, Effect, NetworkTopology, VirtualTime};
use minsync::smr::{commits, ReplicaNode, SmrEvent, SmrMsg};
use minsync::transport::LogDigest;
use minsync::types::{BisourceSpec, ProcessId, SystemConfig};
use minsync::wire::{encode_frame, DEFAULT_MAX_FRAME};
use minsync::workload::{
    account, ArrivalProcess, Batch, ClientPopulation, DrainCursor, WorkloadSpec,
};

type Msg = SmrMsg<Batch>;
type Out = SmrEvent<Batch>;

const CLIENTS: usize = 8;
const SEED: u64 = 11;

/// n=4 t=1, all timely, 60 slots. Per commit: 928 messages, of which
/// `CB_VAL/*` 576, `AC_EST/*` 144, `DECIDE/*` 144, `EA_*` 36, `SMR_ACK` 16
/// — all over 32-byte digests — and `SMR_PAYLOAD` n(n−1) = 12, the only
/// ones that carry the batch; the 28 on top of 60 × 928 are slot 61's 12
/// payloads and 16 `CB_VAL/INIT`, sent before the stop predicate fires.
const N4_TIMELY: &[(&str, u64)] = &[
    ("messages_sent", 55_708),
    ("messages_delivered", 55_601),
    ("timers_fired", 0),
    ("events_processed", 55_785),
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
    ("SMR_PAYLOAD", 732),
];

/// n=7 t=2 with two silent replicas under the bisource regime, 60 slots,
/// seed 11 (the only population whose delays are drawn from the seed — so
/// the 30 payload sends per slot, 5 correct proposers × 6 peers, shift
/// every later draw and every count with them). The log is `N4_TIMELY`'s:
/// same clients, same batches, same slots.
const N7_BISOURCE_SILENT: &[(&str, u64)] = &[
    ("messages_sent", 149_362),
    ("messages_delivered", 149_193),
    ("timers_fired", 10),
    ("events_processed", 149_212),
    ("last_commit_tick", 28_468),
    ("log_slots", 60),
    ("log_digest", 1_678_938_114_058_546_041),
    ("AC_EST/ECHO", 10_500),
    ("AC_EST/INIT", 2_100),
    ("AC_EST/READY", 10_500),
    ("CB_VAL/ECHO", 42_091),
    ("CB_VAL/INIT", 8_442),
    ("CB_VAL/READY", 42_000),
    ("DECIDE/ECHO", 10_500),
    ("DECIDE/INIT", 2_100),
    ("DECIDE/READY", 10_500),
    ("EA_COORD", 693),
    ("EA_PROP2", 3_269),
    ("EA_RELAY", 2_737),
    ("SMR_ACK", 2_100),
    ("SMR_PAYLOAD", 1_830),
];

/// n=20 t=6, all timely, 3 slots: 100 000 messages per commit — 380 of
/// them `SMR_PAYLOAD` — plus slot 4's 380 payloads and 400 `CB_VAL/INIT`.
const N20_TIMELY: &[(&str, u64)] = &[
    ("messages_sent", 300_780),
    ("messages_delivered", 289_207),
    ("timers_fired", 0),
    ("events_processed", 289_284),
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
    ("SMR_PAYLOAD", 1_520),
];

/// (Total, per commit) encoded bytes of the n=4, 512-client population over
/// 5 slots; see `n4_bulk_encoded_bytes_per_commit_are_pinned`. With the
/// 4 KiB batch in every one of the 916 messages of a commit this read
/// (18 565 816, 3 713 163); with the batch in the 12 `SMR_PAYLOAD`s only
/// and a 32-byte digest everywhere else it is 36.6× less.
const N4_BULK_ENCODED_BYTES: (u64, u64) = (507_248, 101_449);

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

/// One command per client per slot, `slots` slots, closed loop, on
/// `topology` with the top `silent` ids Byzantine-silent, run until every
/// correct replica has drained the population.
fn run(
    system: SystemConfig,
    silent: usize,
    topology: NetworkTopology,
    clients: usize,
    slots: usize,
    record_effects: bool,
) -> (Simulation<Msg, Out>, ClientPopulation) {
    let pop = WorkloadSpec {
        groups: 1,
        clients_per_group: clients,
        commands_per_client: slots,
        arrivals: ArrivalProcess::ClosedLoop { think: 0 },
        seed: SEED,
    }
    .generate(&system)
    .expect("one routing group is feasible for every (n, t)");

    let cfg = ConsensusConfig::paper(system);
    let correct = system.n() - silent;
    let mut builder = SimBuilder::new(topology)
        .seed(SEED)
        .max_events(u64::MAX)
        .classify(SmrMsg::classify);
    if record_effects {
        builder = builder.record_effects(usize::MAX);
    }
    let target = pop.slots_upper_bound(clients);
    for i in 0..correct {
        builder = builder.node(ReplicaNode::new(cfg, pop.source_for(i, clients), target));
    }
    for _ in 0..silent {
        builder = builder.node(SilentNode::<Msg, Out>::new());
    }
    let mut sim = builder.build();
    let mut drained = DrainCursor::new(correct, pop.total_commands());
    sim.run_until(|outs| drained.advance(outs, |o| (o.process, &o.event)));
    (sim, pop)
}

/// The rows of one [`run`] with [`CLIENTS`] clients: the simulator's
/// counters, replica 0's last commit tick, the slots and [`LogDigest`] of
/// the log up to its last command (equal at every correct replica), then
/// `kind_counts()` under [`SmrMsg::classify`].
fn rows(
    system: SystemConfig,
    silent: usize,
    topology: NetworkTopology,
    slots: usize,
) -> Vec<(&'static str, u64)> {
    let correct = system.n() - silent;
    let (sim, pop) = run(system, silent, topology, CLIENTS, slots, false);
    let total = pop.total_commands();

    // The fold `minsync-node` reports: slots up to the one carrying the
    // last command.
    let log_of = |replica: usize| {
        let (mut digest, mut slots, mut commands) = (LogDigest::new(), 0u64, 0usize);
        for (_, slot, batch) in commits(sim.outputs()).filter(|c| c.0.index() == replica) {
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

    let m = sim.metrics();
    let last_commit_tick = account(&pop, sim.outputs(), ProcessId::new(0)).last_commit_tick;
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

/// Σ `encode_frame` length over every message sent (a broadcast is `n`
/// sends) while the n=4 all-timely population with 512 clients — the
/// benchmark's `tcp_n4_bulk_auth` values, 4 KiB batches — commits 5 slots,
/// and that sum per commit.
#[test]
fn n4_bulk_encoded_bytes_per_commit_are_pinned() {
    const SLOTS: usize = 5;
    let system = SystemConfig::new(4, 1).expect("valid (n, t)");
    let timely = NetworkTopology::all_timely(4, 3);
    let (sim, _) = run(system, 0, timely, 512, SLOTS, true);
    let mut frame = Vec::new();
    let mut frame_len = |msg: &Msg| {
        frame.clear();
        encode_frame(msg, &mut frame, DEFAULT_MAX_FRAME).expect("within the frame cap");
        frame.len() as u64
    };
    let bytes: u64 = sim
        .effect_trace()
        .iter()
        .flat_map(|rec| rec.effects.iter())
        .map(|effect| match effect {
            Effect::Send { msg, .. } => frame_len(msg),
            Effect::Broadcast { msg } => system.n() as u64 * frame_len(msg),
            _ => 0,
        })
        .sum();
    assert_eq!((bytes, bytes / SLOTS as u64), N4_BULK_ENCODED_BYTES);
}
