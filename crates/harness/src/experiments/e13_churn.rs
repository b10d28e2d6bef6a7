//! E13 — liveness under churn: progress resumes after partitions heal,
//! crashed replicas rejoin, the timely source moves, and an adaptive
//! adversary follows the current champion.
//!
//! The paper's liveness argument is conditional: consensus terminates once
//! the network holds a timely bisource for long enough. E13 probes the
//! *recovery* side of that claim — disrupt the network, then measure how
//! long after the disruption ends every replica is back at the log's
//! front, asserting that the drain stays within a bound of a clean
//! baseline and the committed logs stay identical.
//!
//! Four disruption families, each written once as a [`ChurnPlan`] and run
//! on two substrates:
//!
//! * **partition+heal** — a minority side is cut off, then the cut closes;
//! * **crash+rejoin** — one replica vanishes mid-log and comes back
//!   (simulator: total isolation; cluster: SIGKILL, then a same-port
//!   restart that recovers its prefix from the write-ahead log and
//!   catches up through the checkpoint push);
//! * **moving GST** — single-process isolation rotates over the whole
//!   system, so no round interval has a stable bisource until the
//!   rotation ends;
//! * **adaptive champion** — the round-robin schedule's round-1
//!   coordinator is muted while it champions a value. Replicas run round 1
//!   without EA (DESIGN.md §10), so its value rides in its `AC_PROP(1)` CB
//!   (relayed `CB(v)`, DESIGN.md §9) and its `AC_EST(1)` INIT, and the
//!   simulator drops exactly those.
//!   Message-content targeting needs the simulator's schedule seam; the
//!   cluster approximates it by pulsing a partition around the same
//!   process (`PART`/`HEAL` over the control pipe cannot see rounds). Both
//!   open and close on the same plan steps.
//!
//! Every plan opens on commit progress, not at a clock time: once an
//! observer it leaves connected has committed `OPEN_SLOT`, so the fault
//! lands mid-log however fast the protocol runs. Its later steps are
//! spaced in ticks. Simulator runs are virtual-time-deterministic (a
//! `PlanOracle` over a seeded simulation); cluster runs are real
//! `minsync-node` processes on 127.0.0.1, where a partition really loses
//! frames (blocked at the fault switch, never replayed), so recovery
//! leans on the `ckpt_retry` repair path the node binary enables. A step
//! that never fires fails the run on either substrate, and every plan must
//! drop something (the `dropped` column): the simulator cases assert it
//! here, the suite's `run_checked` for every partitioning cluster plan.

use minsync_broadcast::RbMsg;
use minsync_core::{CbId, ProtocolMsg, RbTag};
use minsync_net::sim::OutputRecord;
use minsync_smr::{SmrEvent, SmrMsg};
use minsync_telemetry::watch_name;
use minsync_transport::cluster::{ChurnAction, ChurnPlan, ClusterReport, ClusterSpec, Trigger};
use minsync_types::{Round, SystemConfig};
use minsync_workload::Batch;

use super::{
    churn_sim, churn_spec, outlasting_cluster_commands, outlasting_commands, run_checked, ticks_ms,
    PlanOracle,
};
use crate::Table;

type Msg = SmrMsg<Batch>;

/// Recovery bound, in ticks past `baseline + the tick the plan closed`
/// (its last step fired), asserted on every simulator case: covers the
/// round timeouts that grew while the plan was open (Figure 3's
/// `timer[r] = r`, one tick per round) plus the checkpoint push cadence
/// over the recovered tail.
const RECOVERY_SLACK: u64 = 20_000;

/// The four disruption families.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scenario {
    PartitionHeal,
    CrashRejoin,
    MovingGst,
    AdaptiveChampion,
}

impl Scenario {
    const ALL: [Scenario; 4] = [
        Scenario::PartitionHeal,
        Scenario::CrashRejoin,
        Scenario::MovingGst,
        Scenario::AdaptiveChampion,
    ];

    fn label(self) -> &'static str {
        match self {
            Scenario::PartitionHeal => "partition+heal",
            Scenario::CrashRejoin => "crash+rejoin",
            Scenario::MovingGst => "moving GST",
            Scenario::AdaptiveChampion => "adaptive champion",
        }
    }
}

/// Slot whose commit opens every plan, at an observer the opening step
/// leaves connected. Under the slot rules (DESIGN.md §9, §10) a simulator
/// slot takes 24 ticks, so the plans open near tick 48.
const OPEN_SLOT: u64 = 2;

/// Ticks a partition or a crash stays open (100 ms at the cluster's
/// 200 µs tick).
const WINDOW: u32 = 500;

/// The process adaptive champion mutes: the round-robin schedule names p0
/// round 1's coordinator at every size.
const CHAMPION: usize = 0;

/// Ticks of one moving-GST turn, and of one champion pulse or the gap
/// between two: short enough that every step fires while the log still
/// grows on both substrates.
const SPAN: u32 = 50;

/// Commands per client of the clean cluster run each size's workload is
/// sized from ([`outlasting_cluster_commands`]), as the simulator's is from
/// a clean run's pace ([`outlasting_commands`]).
const CLUSTER_PROBE_COMMANDS: usize = 96;

/// The one churn plan for `scenario` at size `n`, run by the simulator
/// and the cluster alike. Every plan opens when an uncut observer has
/// committed [`OPEN_SLOT`]; a replica it cuts off cannot drain while cut,
/// which keeps the run alive until the next step.
fn plan(scenario: Scenario, n: usize) -> ChurnPlan {
    let victim = n - 1;
    let slot = OPEN_SLOT;
    let open = |replica| Trigger::Floor { replica, slot };
    let cut = |p| ChurnAction::Partition { side: vec![p] };
    match scenario {
        Scenario::PartitionHeal => ChurnPlan::new()
            .step(open(0), cut(victim))
            .step(Trigger::Ticks(WINDOW), ChurnAction::Heal),
        Scenario::CrashRejoin => ChurnPlan::new()
            .step(open(0), ChurnAction::Kill { id: victim })
            .step(Trigger::Ticks(WINDOW), ChurnAction::Restart { id: victim }),
        Scenario::MovingGst => {
            // The isolated singleton rotates over the whole system: each
            // `Partition` replaces the previous cut wholesale.
            let span = Trigger::Ticks(SPAN);
            let mut plan = ChurnPlan::new().step(open(victim), cut(0));
            for p in 1..n {
                plan = plan.step(span, cut(p));
            }
            plan.step(span, ChurnAction::Heal)
        }
        // On the cluster the pulses cut the champion off; the simulator
        // mutes its round-1 INITs instead.
        Scenario::AdaptiveChampion => {
            let pulse = Trigger::Ticks(SPAN);
            ChurnPlan::new()
                .step(open(victim), cut(CHAMPION))
                .step(pulse, ChurnAction::Heal)
                .step(pulse, cut(CHAMPION))
                .step(pulse, ChurnAction::Heal)
        }
    }
}

/// Adaptive champion's simulator target: what carries a process's value
/// into round 1's adopt-commit — its `AC_PROP(1)` CB, which a slot sends
/// by relay (`CB(v)`, DESIGN.md §9), and its `AC_EST(1)` INIT
/// (`PlanOracle` drops them from the cut side only).
fn is_round1_ac_init(msg: &Msg) -> bool {
    let SmrMsg::Slot {
        msg: ProtocolMsg::Rb(rb),
        ..
    } = msg
    else {
        return false;
    };
    matches!(
        rb,
        RbMsg::Relay {
            tag: RbTag::CbVal(CbId::AcProp(Round::FIRST)),
            ..
        } | RbMsg::Init {
            tag: RbTag::CbVal(CbId::AcProp(Round::FIRST)) | RbTag::AcEst(Round::FIRST),
            ..
        }
    )
}

/// Ticks from a plan's opening step to its last one.
fn plan_ticks(plan: &ChurnPlan) -> u64 {
    let spans = plan.steps.iter().map(|step| match step.at {
        Trigger::Ticks(d) => u64::from(d),
        Trigger::Floor { .. } => 0,
    });
    spans.sum()
}

/// The simulator's `recovery` column: ticks from `closed`, the tick the
/// plan's last step fired, until each of the `n` replicas has committed
/// the highest slot any replica had committed by `closed`.
fn recovery_ticks(outputs: &[OutputRecord<SmrEvent<Batch>>], n: usize, closed: u64) -> u64 {
    let commits = outputs.iter().filter_map(|o| {
        let (slot, _) = o.event.as_committed()?;
        Some((o.process.index(), o.time.ticks(), slot))
    });
    let front = commits
        .clone()
        .filter(|&(_, at, _)| at <= closed)
        .map(|c| c.2)
        .max();
    let mut reached = vec![None; n];
    for (p, at, _) in commits.filter(|&(.., slot)| Some(slot) >= front) {
        reached[p].get_or_insert(at);
    }
    let reached = reached
        .into_iter()
        .map(|at| at.expect("every replica reaches the front"));
    reached.max().unwrap_or(closed).saturating_sub(closed)
}

/// The cluster's `recovery` column, [`recovery_ticks`] on the wall clock:
/// milliseconds from the plan's last fired step until every correct
/// replica's sampled `watch.p<id>.commit_floor` reached the highest floor
/// any replica's samples showed by then. A sample's stamp counts child
/// ticks from the child's start: the bootstrap broadcast, or the step that
/// restarted it (its series starts afresh there).
fn recovery_ms(report: &ClusterReport, spec: &ClusterSpec, plan: &ChurnPlan) -> f64 {
    let ms = |at: &std::time::Duration| at.as_secs_f64() * 1000.0;
    let closed = report.fired.last().map_or(0.0, ms);
    let restarts = plan.steps.iter().zip(&report.fired);
    let restarts = restarts.filter_map(|(step, at)| match step.action {
        ChurnAction::Restart { id } => Some((id, ms(at))),
        _ => None,
    });
    let floors: Vec<Vec<(f64, u64)>> = (report.replicas.iter())
        .map(|r| {
            let start = restarts.clone().rfind(|&(id, _)| id == r.id);
            let start = start.map_or(0.0, |(_, at)| at);
            let name = watch_name(r.id, "commit_floor");
            let points = r.series.points();
            points
                .filter_map(|p| Some((start + ticks_ms(spec, p.at), p.values.gauge(&name)?)))
                .collect()
        })
        .collect();
    let samples = floors.iter().flatten();
    let front = samples
        .filter(|&&(at, _)| at <= closed)
        .map(|&(_, floor)| floor)
        .max();
    let reached = floors.iter().map(|points| {
        let first = points.iter().find(|&&(_, floor)| Some(floor) >= front);
        first.expect("every replica drains past the front").0
    });
    reached.fold(closed, f64::max) - closed
}

/// Runs E13.
///
/// # Panics
///
/// Panics if any case stalls, diverges, or overshoots the recovery bound.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E13 — liveness under churn: drain vs a clean baseline, and recovery (sim ticks / cluster ms)",
        [
            "scenario",
            "substrate",
            "n",
            "t",
            "cmds",
            "baseline",
            "churned",
            "recovery",
            "dropped",
        ],
    );
    let sizes: &[(usize, usize)] = if quick { &[(4, 1)] } else { &[(4, 1), (7, 2)] };
    let seed = 13;

    for &(n, t) in sizes {
        // Simulator: one clean baseline per size, then every scenario. The
        // log outlasts the longest plan, so every step fires while it
        // still grows.
        let system = SystemConfig::new(n, t).expect("valid system");
        let plan_spans = Scenario::ALL.map(|s| plan_ticks(&plan(s, n)));
        let span = plan_spans.into_iter().max().unwrap_or(0);
        let commands_per_client = outlasting_commands(system, seed, span);
        let total = 2 * commands_per_client;
        let sim = |label: &str, plan| {
            let case = format!("E13 {label} n={n} seed={seed}");
            churn_sim(&case, system, seed, commands_per_client, plan, n, None)
        };
        let base_ticks = sim("baseline", PlanOracle::default()).0.final_time.ticks();
        for scenario in Scenario::ALL {
            // Adaptive champion mutes what the champion sends in round 1.
            let content =
                (scenario == Scenario::AdaptiveChampion).then_some(is_round1_ac_init as _);
            let oracle = PlanOracle {
                content,
                ..PlanOracle::new(&plan(scenario, n))
            };
            let (churned, _, fired) = sim(scenario.label(), oracle);
            let ticks = churned.final_time.ticks();
            let dropped = churned.metrics.messages_suppressed;
            assert!(
                dropped > 0,
                "E13 {} n={n}: the plan dropped nothing",
                scenario.label()
            );
            let closed = fired[fired.len() - 1];
            let bound = base_ticks + closed + RECOVERY_SLACK;
            assert!(
                ticks <= bound,
                "E13 {} n={n}: drained at tick {ticks}, past the recovery bound {bound}",
                scenario.label()
            );
            table.push_row([
                scenario.label().to_string(),
                "sim".to_string(),
                n.to_string(),
                t.to_string(),
                total.to_string(),
                base_ticks.to_string(),
                ticks.to_string(),
                format!("+{}", recovery_ticks(&churned.outputs, n, closed)),
                dropped.to_string(),
            ]);
        }

        // Cluster: a clean probe sizes the log to outlast the longest plan
        // at its pace; then one clean baseline per size (an empty plan) and
        // every scenario as a real process-level disruption, each column on
        // the orchestrator's one clock from the bootstrap broadcast.
        let probe = churn_spec(n, t, CLUSTER_PROBE_COMMANDS, seed);
        let clean = run_checked("E13 probe", &probe, Some(&ChurnPlan::new()));
        let span = probe.tick * u32::try_from(span).expect("a plan spans few ticks");
        let commands = outlasting_cluster_commands(&clean, CLUSTER_PROBE_COMMANDS, span);
        let spec = churn_spec(n, t, commands, seed);
        let base_ms = drain_ms(&run_checked("E13 baseline", &spec, Some(&ChurnPlan::new())));
        for scenario in Scenario::ALL {
            let plan = plan(scenario, n);
            let report = run_checked(&format!("E13 {}", scenario.label()), &spec, Some(&plan));
            let recovery = recovery_ms(&report, &spec, &plan);
            if matches!(scenario, Scenario::PartitionHeal | Scenario::CrashRejoin) {
                assert!(
                    recovery > 0.0,
                    "E13 {} n={n}: the cut replica was back at the front when the plan closed",
                    scenario.label()
                );
            }
            table.push_row([
                scenario.label().to_string(),
                "cluster".to_string(),
                n.to_string(),
                t.to_string(),
                spec.total_commands().to_string(),
                format!("{base_ms:.1}"),
                format!("{:.1}", drain_ms(&report)),
                format!("+{recovery:.1}"),
                report.sum_counters("mesh.outbound_dropped.").to_string(),
            ]);
        }
    }
    table
}

/// When a cluster run's last correct replica drained, in milliseconds from
/// the bootstrap broadcast (a restarted replica's own wall clock would
/// start again at its restart).
fn drain_ms(report: &ClusterReport) -> f64 {
    report.last_drain().as_secs_f64() * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_crash_rejoin_column_spans_the_outage() {
        // The victim cannot drain while it is down, so a short log spans
        // the outage too.
        let spec = churn_spec(4, 1, CLUSTER_PROBE_COMMANDS, 13);
        let down = spec.tick * WINDOW;
        let plan = plan(Scenario::CrashRejoin, 4);
        let drained_ms = drain_ms(&run_checked("E13 crash+rejoin", &spec, Some(&plan)));
        assert!(
            drained_ms >= down.as_secs_f64() * 1000.0,
            "drained {drained_ms:.1} ms after bootstrap, inside the {down:?} outage"
        );
    }

    #[test]
    fn scenario_labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> =
            Scenario::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), Scenario::ALL.len());
    }

    #[test]
    fn the_champion_coordinates_round_1() {
        for (n, t) in [(4, 1), (7, 2)] {
            let system = SystemConfig::new(n, t).expect("valid system");
            let schedule = minsync_types::RoundSchedule::new(&system, 0).expect("k = 0");
            assert_eq!(schedule.coordinator(Round::FIRST).index(), CHAMPION);
        }
    }

    #[test]
    fn moving_gst_plan_rotates_then_heals() {
        let plan = plan(Scenario::MovingGst, 4);
        assert_eq!(plan.steps.len(), 5, "four rotations and a heal");
        assert!(matches!(plan.steps[4].action, ChurnAction::Heal));
    }

    #[test]
    fn sim_partition_recovers_with_identical_logs() {
        // One deterministic end-to-end case kept test-suite-fast; the full
        // matrix runs through `run` (exercised by the suite-level test and
        // the experiments binary). The log outlasts the plan, as in `run`,
        // so the survivors are still committing commands when the cut heals.
        let system = SystemConfig::new(4, 1).expect("valid system");
        let plan = plan(Scenario::PartitionHeal, 4);
        let commands = outlasting_commands(system, 13, plan_ticks(&plan));
        let run = |label, plan| churn_sim(label, system, 13, commands, plan, 4, None);
        let (base, ..) = run("E13 baseline", PlanOracle::default());
        let partition = PlanOracle::new(&plan);
        let (churned, _, fired) = run("E13 partition+heal", partition);
        let (base, ticks) = (base.final_time.ticks(), churned.final_time.ticks());
        let suppressed = churned.metrics.messages_suppressed;
        assert!(suppressed > 0, "the window must actually drop traffic");
        assert!(ticks <= base + fired[1] + RECOVERY_SLACK);
        // The victim missed the slots committed while it was cut off.
        assert!(recovery_ticks(&churned.outputs, 4, fired[1]) > 0);
    }

    #[test]
    #[should_panic(expected = "never fired before the drain")]
    fn a_plan_keyed_past_the_workload_fails_loudly() {
        let system = SystemConfig::new(4, 1).expect("valid system");
        let (replica, slot) = (0, 1_000);
        let late = Trigger::Floor { replica, slot };
        let late = ChurnPlan::new().step(late, ChurnAction::Partition { side: vec![3] });
        churn_sim("E13 late", system, 13, 8, PlanOracle::new(&late), 4, None);
    }
}
