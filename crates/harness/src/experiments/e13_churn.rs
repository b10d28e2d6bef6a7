//! E13 — liveness under churn: progress resumes after partitions heal,
//! crashed replicas rejoin, the timely source moves, and an adaptive
//! adversary follows the current champion.
//!
//! The paper's liveness argument is conditional: consensus terminates once
//! the network holds a timely bisource for long enough. E13 probes the
//! *recovery* side of that claim — disrupt the network for a declared
//! window, then measure how far past a clean baseline the system needs to
//! drain the same workload, asserting the overshoot is bounded and the
//! committed logs stay identical.
//!
//! Four disruption families, each on two substrates:
//!
//! * **partition+heal** — a minority side is cut off, then the cut closes;
//! * **crash+rejoin** — one replica vanishes mid-log and comes back
//!   (simulator: total isolation; cluster: SIGKILL, then a same-port
//!   restart that recovers its prefix from the write-ahead log and
//!   catches up through the checkpoint push);
//! * **moving GST** — single-process isolation rotates over the whole
//!   system, so no round interval has a stable bisource until the
//!   rotation ends;
//! * **adaptive champion** — drops exactly the `EA_COORD` messages, i.e.
//!   whatever process is the current round's coordinator is muted the
//!   moment it champions a value. Message-content targeting needs the
//!   simulator's schedule seam; the cluster approximates it by pulsing a
//!   partition around the round-robin schedule's first coordinator
//!   (`PART`/`HEAL` over the control pipe cannot see rounds).
//!
//! Simulator runs are virtual-time-deterministic ([`ChurnOracle`] windows
//! over a seeded simulation); cluster runs are real `minsync-node`
//! processes on 127.0.0.1 driven by a [`ChurnPlan`], where a partition
//! really loses frames (blocked at the fault switch, never replayed), so
//! recovery leans on the `ckpt_retry` repair path the node binary enables.
//! The suite's `run_checked` also asserts that every partitioning plan
//! dropped frames (the `dropped` column): a late cut measures nothing.

use std::time::Duration;

use minsync_adversary::ChurnOracle;
use minsync_core::ProtocolMsg;
use minsync_smr::SmrMsg;
use minsync_transport::cluster::{ChurnAction, ChurnPlan};
use minsync_types::{ProcessId, SystemConfig};
use minsync_workload::Batch;

use super::{churn_sim, churn_spec, run_checked, slowest};
use crate::Table;

type Msg = SmrMsg<Batch>;

/// Recovery bound, in ticks past `baseline + window span`, asserted on
/// every simulator case: covers the round timeouts that grew while the
/// window was open (Figure 3's `timer[r] = r`, one tick per round) plus
/// the checkpoint push cadence over the recovered tail.
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

/// Simulator-side churn windows for one scenario. All windows open at tick
/// 100 (mid-arrivals for every workload size E13 uses) and close by tick
/// 700, so every case shares the "disrupt, then heal" shape the recovery
/// bound is measured against.
fn sim_oracle(scenario: Scenario, n: usize) -> ChurnOracle<Msg> {
    let victim = ProcessId::new(n - 1);
    match scenario {
        Scenario::PartitionHeal => ChurnOracle::new().partition(100, 600, vec![victim]),
        Scenario::CrashRejoin => ChurnOracle::new().isolate(100, 600, victim),
        Scenario::MovingGst => ChurnOracle::new().rotating_isolation(n, 100, 600 / n as u64),
        Scenario::AdaptiveChampion => ChurnOracle::new().targeted(100, 600, |_, _, msg: &Msg| {
            matches!(
                msg,
                SmrMsg::Slot {
                    msg: ProtocolMsg::EaCoord { .. },
                    ..
                }
            )
        }),
    }
}

/// Last tick at which any simulator window is still open.
fn sim_window_end(scenario: Scenario, n: usize) -> u64 {
    match scenario {
        Scenario::MovingGst => 100 + (600 / n as u64) * n as u64,
        _ => 600,
    }
}

/// Commands per client on the cluster: still committing when the first
/// disruption lands ≈ 10 ms in (the simulator's 8–20 drain in a few ms),
/// and inside the flow-control window a rejoiner starts with.
const CLUSTER_COMMANDS_PER_CLIENT: usize = 48;

/// Cluster-side churn plan for one scenario. Step offsets are wall-clock
/// milliseconds from the moment every child holds the peer list, and they
/// are deliberately *early* (first disruption ≈ 10 ms in): a late
/// disruption would fire into an already-finished run and measure
/// nothing. The laggard each plan creates cannot report until its heal
/// (or restart) step fires, which keeps the orchestrator loop alive
/// through the whole plan.
fn cluster_plan(scenario: Scenario, n: usize) -> ChurnPlan {
    let ms = Duration::from_millis;
    let victim = n - 1;
    match scenario {
        Scenario::PartitionHeal => ChurnPlan::new()
            .step(ms(10), ChurnAction::Partition { side: vec![victim] })
            .step(ms(150), ChurnAction::Heal),
        Scenario::CrashRejoin => ChurnPlan::new()
            .step(ms(15), ChurnAction::Kill { id: victim })
            .step(ms(120), ChurnAction::Restart { id: victim }),
        Scenario::MovingGst => {
            // The isolated singleton rotates over the whole system: each
            // `Partition` replaces the previous blocked set wholesale.
            let mut plan = ChurnPlan::new();
            for p in 0..n {
                plan = plan.step(
                    ms(10 + 40 * p as u64),
                    ChurnAction::Partition { side: vec![p] },
                );
            }
            plan.step(ms(10 + 40 * n as u64), ChurnAction::Heal)
        }
        Scenario::AdaptiveChampion => ChurnPlan::new()
            // Round-robin schedules start at process 0: pulse a partition
            // around it (see the module docs on why the cluster can only
            // approximate message-level targeting).
            .step(ms(10), ChurnAction::Partition { side: vec![0] })
            .step(ms(60), ChurnAction::Heal)
            .step(ms(110), ChurnAction::Partition { side: vec![0] })
            .step(ms(160), ChurnAction::Heal),
    }
}

/// Runs E13.
///
/// # Panics
///
/// Panics if any case stalls, diverges, or overshoots the recovery bound.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E13 — liveness under churn: recovery past a clean baseline (sim ticks / cluster ms)",
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
    let commands_per_client = if quick { 8 } else { 20 };
    let seed = 13;

    for &(n, t) in sizes {
        let total = 2 * commands_per_client;
        // Simulator: one clean baseline per size, then every scenario.
        let system = SystemConfig::new(n, t).expect("valid system");
        let sim = |label: &str, oracle| {
            let case = format!("E13 {label} n={n} seed={seed}");
            churn_sim(&case, system, seed, commands_per_client, oracle, n, None).0
        };
        let base_ticks = sim("baseline", None).final_time.ticks();
        for scenario in Scenario::ALL {
            let churned = sim(scenario.label(), Some(sim_oracle(scenario, n)));
            let ticks = churned.final_time.ticks();
            let bound = base_ticks + sim_window_end(scenario, n) + RECOVERY_SLACK;
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
                format!("+{}", ticks.saturating_sub(base_ticks)),
                churned.metrics.messages_suppressed.to_string(),
            ]);
        }

        // Cluster: one clean baseline per size (an empty plan), then every
        // scenario as a real process-level disruption.
        let spec = churn_spec(n, t, CLUSTER_COMMANDS_PER_CLIENT, seed);
        let base = run_checked("E13 baseline", &spec, Some(&ChurnPlan::new()));
        let base_ms = slowest(&base).wall.as_secs_f64() * 1000.0;
        for scenario in Scenario::ALL {
            let plan = cluster_plan(scenario, n);
            let report = run_checked(&format!("E13 {}", scenario.label()), &spec, Some(&plan));
            let wall = slowest(&report).wall.as_secs_f64() * 1000.0;
            let dropped = report.sum_counters("mesh.outbound_dropped.");
            table.push_row([
                scenario.label().to_string(),
                "cluster".to_string(),
                n.to_string(),
                t.to_string(),
                spec.total_commands().to_string(),
                format!("{base_ms:.1}"),
                format!("{wall:.1}"),
                format!("+{:.1}", (wall - base_ms).max(0.0)),
                dropped.to_string(),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> =
            Scenario::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), Scenario::ALL.len());
    }

    #[test]
    fn moving_gst_plan_rotates_then_heals() {
        let plan = cluster_plan(Scenario::MovingGst, 4);
        assert_eq!(plan.steps.len(), 5, "four rotations and a heal");
        assert!(matches!(plan.steps[4].action, ChurnAction::Heal));
    }

    #[test]
    fn sim_partition_recovers_with_identical_logs() {
        // One deterministic end-to-end case kept test-suite-fast; the full
        // matrix runs through `run` (exercised by the suite-level test and
        // the experiments binary).
        let system = SystemConfig::new(4, 1).expect("valid system");
        let (base, _) = churn_sim("E13 baseline", system, 13, 8, None, 4, None);
        let oracle = Some(sim_oracle(Scenario::PartitionHeal, 4));
        let (churned, _) = churn_sim("E13 partition+heal", system, 13, 8, oracle, 4, None);
        let (base, ticks) = (base.final_time.ticks(), churned.final_time.ticks());
        let suppressed = churned.metrics.messages_suppressed;
        assert!(suppressed > 0, "the window must actually drop traffic");
        assert!(ticks <= base + 600 + RECOVERY_SLACK);
    }
}
