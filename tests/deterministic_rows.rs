//! The deterministic rows: every count the simulator produces for three
//! short closed-loop populations, compared for equality against constants
//! in this file. The populations are built from public APIs exactly as
//! `benchmark/src/spec.rs` builds `sim_n4_timely`, `sim_n7_bisource_silent`
//! and `sim_n20_timely` (think time 0, one routing group, clients = batch
//! = 8, correct replicas in the low ids), so a row here moves iff the
//! benchmark's count rows move.
//!
//! Each population is pinned under three rule sets: `Rules::SLOT`, the
//! replica's own, which the benchmark and every replicated log run;
//! `Rules::PAPER`, Figures 1–4 as printed (the reproduction row); and
//! `Rules::SKIP_EA`, round 1 straight to adopt-commit with CB by Figure 1.
//! The log digest is the same under all three.
//!
//! Nothing below is wall-clock: a run is exact per seed, so a difference is
//! a protocol, simulator or workload change, never noise. A PR that means
//! to move a row edits the constant and says why in CHANGES.md.

use minsync::adversary::SilentNode;
use minsync::core::{ConsensusConfig, Rules};
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

/// n=4 t=1, all timely, 60 slots. Per commit: 416 messages, of which
/// `CB_VAL/RELAY` 64 (four relay-rule CB waves of n² = 16: `CB[0]` and
/// round 1's `AC_PROP`, then round 2's `EA_PROP1` and `AC_PROP`, which run
/// before the decision lands; see DESIGN.md §9 and §10), `AC_EST/*` 144,
/// `DECIDE/*` 144, round 2's `EA_*` 36, `SMR_ACK` 16 — all over 32-byte
/// digests — and `SMR_PAYLOAD` n(n−1) = 12, the only ones that carry the
/// batch; the 28 on top of 60 × 416 are slot 61's 12 payloads and 16
/// `CB_VAL/RELAY`, sent before the stop predicate fires.
const N4_TIMELY: &[(&str, u64)] = &[
    ("messages_sent", 24_988),
    ("messages_delivered", 24_896),
    ("timers_fired", 0),
    ("events_processed", 25_080),
    ("last_commit_tick", 1_440),
    ("log_slots", 60),
    ("log_digest", 1_678_938_114_058_546_041),
    ("AC_EST/ECHO", 3_840),
    ("AC_EST/INIT", 960),
    ("AC_EST/READY", 3_840),
    ("CB_VAL/RELAY", 3_856),
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
/// same clients, same batches, same slots. The `EA_*` traffic is round
/// 2's, entered after a round-1 commit. With CB at
/// one message delay, round 2 gets further before the decision lands than
/// it did under Figure 1: 231 round-2 `AC_EST/INIT`s on top of one per
/// correct replica and slot, and 14 round timers.
const N7_BISOURCE_SILENT: &[(&str, u64)] = &[
    ("messages_sent", 64_571),
    ("messages_delivered", 64_473),
    ("timers_fired", 14),
    ("events_processed", 64_499),
    ("last_commit_tick", 15_449),
    ("log_slots", 60),
    ("log_digest", 1_678_938_114_058_546_041),
    ("AC_EST/ECHO", 11_571),
    ("AC_EST/INIT", 2_331),
    ("AC_EST/READY", 10_626),
    ("CB_VAL/RELAY", 8_393),
    ("DECIDE/ECHO", 10_500),
    ("DECIDE/INIT", 2_100),
    ("DECIDE/READY", 10_500),
    ("EA_COORD", 420),
    ("EA_PROP2", 2_100),
    ("EA_RELAY", 2_100),
    ("SMR_ACK", 2_100),
    ("SMR_PAYLOAD", 1_830),
];

/// n=20 t=6, all timely, 3 slots: 36 000 messages per commit — 380 of
/// them `SMR_PAYLOAD` — plus slot 4's 380 payloads and 400 `CB_VAL/RELAY`.
const N20_TIMELY: &[(&str, u64)] = &[
    ("messages_sent", 108_780),
    ("messages_delivered", 101_786),
    ("timers_fired", 0),
    ("events_processed", 101_863),
    ("last_commit_tick", 72),
    ("log_slots", 3),
    ("log_digest", 16_733_735_748_791_105_565),
    ("AC_EST/ECHO", 24_000),
    ("AC_EST/INIT", 1_200),
    ("AC_EST/READY", 24_000),
    ("CB_VAL/RELAY", 5_200),
    ("DECIDE/ECHO", 24_000),
    ("DECIDE/INIT", 1_200),
    ("DECIDE/READY", 24_000),
    ("EA_COORD", 60),
    ("EA_PROP2", 1_200),
    ("EA_RELAY", 1_200),
    ("SMR_ACK", 1_200),
    ("SMR_PAYLOAD", 1_520),
];

/// `N4_TIMELY` under `Rules::PAPER`: 928 messages per commit in 48 ticks
/// (16 message delays). Each CB wave is Figure 1's n reliable broadcasts,
/// 4 + 16 + 16 = 36 messages per broadcast and 144 per wave; four waves
/// (`CB[0]`, round 1's `EA_PROP1` and `AC_PROP`, round 2's `EA_PROP1` — its
/// `AC_PROP` does not start before the decision lands) make 576. Round 1's
/// `EA_*` wave is the 36 `EA_*` per commit; `AC_EST`, `DECIDE`, `SMR_ACK`
/// and `SMR_PAYLOAD` are as under `SLOT`.
const N4_TIMELY_PAPER: &[(&str, u64)] = &[
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

/// `N4_TIMELY` under `Rules::SKIP_EA`: 748 messages per commit in 36 ticks
/// (12 message delays). Three Figure 1 CB waves (`CB[0]`, round 1's
/// `AC_PROP`, round 2's `EA_PROP1`), and no `EA_*` message: round 2's EA
/// wave does not get past `EA_PROP1` before the decision lands.
const N4_TIMELY_SKIP_EA: &[(&str, u64)] = &[
    ("messages_sent", 44_908),
    ("messages_delivered", 44_801),
    ("timers_fired", 0),
    ("events_processed", 44_805),
    ("last_commit_tick", 2_160),
    ("log_slots", 60),
    ("log_digest", 1_678_938_114_058_546_041),
    ("AC_EST/ECHO", 3_840),
    ("AC_EST/INIT", 960),
    ("AC_EST/READY", 3_840),
    ("CB_VAL/ECHO", 11_520),
    ("CB_VAL/INIT", 2_896),
    ("CB_VAL/READY", 11_520),
    ("DECIDE/ECHO", 3_840),
    ("DECIDE/INIT", 960),
    ("DECIDE/READY", 3_840),
    ("SMR_ACK", 960),
    ("SMR_PAYLOAD", 732),
];

/// `N7_BISOURCE_SILENT` under `Rules::PAPER`: round 1's EA wave is on
/// every slot's path, and 10 round timers fire.
const N7_BISOURCE_SILENT_PAPER: &[(&str, u64)] = &[
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

/// `N7_BISOURCE_SILENT` under `Rules::SKIP_EA`: no round timer fires; the
/// `EA_*` traffic is round 2's.
const N7_BISOURCE_SILENT_SKIP_EA: &[(&str, u64)] = &[
    ("messages_sent", 121_551),
    ("messages_delivered", 121_404),
    ("timers_fired", 0),
    ("events_processed", 121_411),
    ("last_commit_tick", 21_459),
    ("log_slots", 60),
    ("log_digest", 1_678_938_114_058_546_041),
    ("AC_EST/ECHO", 10_500),
    ("AC_EST/INIT", 2_100),
    ("AC_EST/READY", 10_500),
    ("CB_VAL/ECHO", 31_633),
    ("CB_VAL/INIT", 6_349),
    ("CB_VAL/READY", 31_500),
    ("DECIDE/ECHO", 10_500),
    ("DECIDE/INIT", 2_100),
    ("DECIDE/READY", 10_500),
    ("EA_COORD", 266),
    ("EA_PROP2", 1_099),
    ("EA_RELAY", 574),
    ("SMR_ACK", 2_100),
    ("SMR_PAYLOAD", 1_830),
];

/// `N20_TIMELY` under `Rules::PAPER`: 100 000 messages per commit, plus
/// slot 4's 380 payloads and 400 `CB_VAL/INIT`.
const N20_TIMELY_PAPER: &[(&str, u64)] = &[
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

/// `N20_TIMELY` under `Rules::SKIP_EA`: 82 780 messages per commit.
const N20_TIMELY_SKIP_EA: &[(&str, u64)] = &[
    ("messages_sent", 249_120),
    ("messages_delivered", 237_547),
    ("timers_fired", 0),
    ("events_processed", 237_567),
    ("last_commit_tick", 108),
    ("log_slots", 3),
    ("log_digest", 16_733_735_748_791_105_565),
    ("AC_EST/ECHO", 24_000),
    ("AC_EST/INIT", 1_200),
    ("AC_EST/READY", 24_000),
    ("CB_VAL/ECHO", 72_000),
    ("CB_VAL/INIT", 4_000),
    ("CB_VAL/READY", 72_000),
    ("DECIDE/ECHO", 24_000),
    ("DECIDE/INIT", 1_200),
    ("DECIDE/READY", 24_000),
    ("SMR_ACK", 1_200),
    ("SMR_PAYLOAD", 1_520),
];

/// (Total, per commit) encoded bytes of the n=4, 512-client population over
/// 5 slots; see `n4_bulk_encoded_bytes_per_commit_are_pinned`. With the 4 KiB batch in every
/// one of the 916 messages of a commit this read (18 565 816, 3 713 163);
/// the batch now rides in the 12 `SMR_PAYLOAD`s only, with a 32-byte digest
/// everywhere else. With every CB wave by relay it is 52.1× less.
const N4_BULK_ENCODED_BYTES: (u64, u64) = (356_208, 71_241);

/// `N4_BULK_ENCODED_BYTES` under `Rules::PAPER`.
const N4_BULK_ENCODED_BYTES_PAPER: (u64, u64) = (507_248, 101_449);

/// `N4_BULK_ENCODED_BYTES` under `Rules::SKIP_EA`.
const N4_BULK_ENCODED_BYTES_SKIP_EA: (u64, u64) = (453_848, 90_769);

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
/// `topology` with the top `silent` ids Byzantine-silent, every slot under
/// `rules` (`None`: the replica's own, as in the benchmark), run until every
/// correct replica has drained the population.
fn run(
    rules: Option<Rules>,
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

    let correct = system.n() - silent;
    let mut builder = SimBuilder::new(topology)
        .seed(SEED)
        .max_events(u64::MAX)
        .classify(SmrMsg::classify);
    if record_effects {
        builder = builder.record_effects(usize::MAX);
    }
    let cfg = ConsensusConfig {
        rules,
        ..ConsensusConfig::paper(system)
    };
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
    rules: Option<Rules>,
    system: SystemConfig,
    silent: usize,
    topology: NetworkTopology,
    slots: usize,
) -> Vec<(&'static str, u64)> {
    let correct = system.n() - silent;
    let (sim, pop) = run(rules, system, silent, topology, CLIENTS, slots, false);
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

/// Under each rule set: a replica given none runs `Rules::SLOT`, as the
/// benchmark's replicas do, and one given `SLOT` explicitly runs the same.
#[test]
fn n4_timely_rows_are_pinned() {
    let system = SystemConfig::new(4, 1).expect("valid (n, t)");
    for (rules, pinned) in [
        (None, N4_TIMELY),
        (Some(Rules::SLOT), N4_TIMELY),
        (Some(Rules::PAPER), N4_TIMELY_PAPER),
        (Some(Rules::SKIP_EA), N4_TIMELY_SKIP_EA),
    ] {
        let timely = NetworkTopology::all_timely(4, 3);
        assert_eq!(rows(rules, system, 0, timely, 60), pinned, "{rules:?}");
    }
}

#[test]
fn n7_bisource_silent_rows_are_pinned() {
    let system = SystemConfig::new(7, 2).expect("valid (n, t)");
    for (rules, pinned) in [
        (None, N7_BISOURCE_SILENT),
        (Some(Rules::PAPER), N7_BISOURCE_SILENT_PAPER),
        (Some(Rules::SKIP_EA), N7_BISOURCE_SILENT_SKIP_EA),
    ] {
        let bisource = bisource_regime(&system);
        assert_eq!(rows(rules, system, 2, bisource, 60), pinned, "{rules:?}");
    }
}

#[test]
fn n20_timely_rows_are_pinned() {
    let system = SystemConfig::new(20, 6).expect("valid (n, t)");
    for (rules, pinned) in [
        (None, N20_TIMELY),
        (Some(Rules::PAPER), N20_TIMELY_PAPER),
        (Some(Rules::SKIP_EA), N20_TIMELY_SKIP_EA),
    ] {
        let timely = NetworkTopology::all_timely(20, 3);
        assert_eq!(rows(rules, system, 0, timely, 3), pinned, "{rules:?}");
    }
}

/// Σ `encode_frame` length over every message sent (a broadcast is `n`
/// sends) while the n=4 all-timely population with 512 clients — the
/// benchmark's `tcp_n4_bulk_auth` values, 4 KiB batches — commits 5 slots,
/// and that sum per commit, under each rule set.
#[test]
fn n4_bulk_encoded_bytes_per_commit_are_pinned() {
    const SLOTS: usize = 5;
    let system = SystemConfig::new(4, 1).expect("valid (n, t)");
    for (rules, pinned) in [
        (None, N4_BULK_ENCODED_BYTES),
        (Some(Rules::PAPER), N4_BULK_ENCODED_BYTES_PAPER),
        (Some(Rules::SKIP_EA), N4_BULK_ENCODED_BYTES_SKIP_EA),
    ] {
        let timely = NetworkTopology::all_timely(4, 3);
        let (sim, _) = run(rules, system, 0, timely, 512, SLOTS, true);
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
        assert_eq!((bytes, bytes / SLOTS as u64), pinned, "{rules:?}");
    }
}
