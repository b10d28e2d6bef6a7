//! End-to-end churn orchestration: real `minsync-node` processes disrupted
//! mid-run by the [`ChurnPlan`] verbs — a message-level partition that
//! heals, and a crash (SIGKILL) followed by a same-port restart that
//! recovers from the write-ahead log. Both must end with every replica
//! draining the full workload onto digest-identical logs.

use std::time::Duration;

use minsync_transport::cluster::{
    run_churn_cluster, ChurnAction, ChurnPlan, ClusterSpec, LogDigest, Trigger,
};
use minsync_workload::ArrivalProcess;

/// 2 clients × 48 commands, one command per slot, sampled every 10 ms so
/// a plan can open on replica 0's commit floor.
fn spec(seed: u64) -> ClusterSpec {
    ClusterSpec {
        commands_per_client: 48,
        batch: 1,
        arrivals: ArrivalProcess::Poisson { mean_gap: 100.0 },
        seed,
        stats_period: Some(Duration::from_millis(10)),
        ..ClusterSpec::default()
    }
}

/// Opens a plan once replica 0, which no plan here cuts off, has
/// committed 8 slots.
const OPEN: Trigger = Trigger::Floor {
    replica: 0,
    slot: 8,
};

#[test]
fn partition_heals_and_the_cluster_drains() {
    let spec = spec(11);
    let plan = ChurnPlan::new()
        .step(OPEN, ChurnAction::Partition { side: vec![3] })
        .step(Trigger::Ticks(1_500), ChurnAction::Heal);
    let report = run_churn_cluster(&spec, &plan).expect("churn cluster runs");
    let violations = report.violations();
    assert!(violations.is_empty(), "partition+heal: {violations:?}");
    assert_ne!(report.replicas[0].digest, LogDigest::new().value());
    // The cut must have landed while the log was still growing: the cut
    // replica's own sends to the other side were dropped at its switch.
    let dropped = report.replicas[3]
        .snapshot
        .sum_counters("mesh.outbound_dropped.");
    assert!(
        dropped > 0,
        "the partition dropped nothing: it fired after the drain"
    );
}

/// The victim commits a prefix, is cut off (the partition keeps the run
/// alive: it cannot drain alone), is killed, and comes back after the heal
/// with its write-ahead log.
#[test]
fn killed_replica_restarts_from_wal_with_an_identical_log() {
    let spec = spec(12);
    let plan = ChurnPlan::new()
        .step(OPEN, ChurnAction::Partition { side: vec![2] })
        .step(Trigger::Ticks(500), ChurnAction::Kill { id: 2 })
        .step(Trigger::Ticks(250), ChurnAction::Heal)
        .step(Trigger::Ticks(250), ChurnAction::Restart { id: 2 });
    let report = run_churn_cluster(&spec, &plan).expect("churn cluster runs");
    let violations = report.violations();
    assert!(
        violations.is_empty(),
        "kill+restart from WAL: {violations:?}"
    );
    let recovered = report.replicas[2].snapshot.counter("smr.recovered_slots");
    assert!(
        recovered.is_some_and(|n| n > 0),
        "the restarted victim replayed no WAL prefix: {recovered:?}"
    );
}
