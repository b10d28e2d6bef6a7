//! End-to-end churn orchestration: real `minsync-node` processes disrupted
//! mid-run by the [`ChurnPlan`] verbs — a message-level partition that
//! heals, and a crash (SIGKILL) followed by a same-port restart that
//! recovers from the write-ahead log. Both must end with every replica
//! draining the full workload onto digest-identical logs.

use std::time::Duration;

use minsync_transport::cluster::{
    run_churn_cluster, ChurnAction, ChurnPlan, ClusterSpec, LogDigest,
};
use minsync_workload::ArrivalProcess;

/// 2 clients × 48 commands, one command per slot. Arrival ticks only
/// stamp commands for latency accounting — every command is pending from
/// the start — so a run drains as fast as the replicas commit slots, not
/// at the clients' pace. 96 slots outlast a step at 80 ms in debug and
/// release builds, while the prefix committed by then stays under the
/// 64-slot flow-control window a rejoiner starts with.
fn spec(seed: u64) -> ClusterSpec {
    ClusterSpec {
        commands_per_client: 48,
        batch: 1,
        arrivals: ArrivalProcess::Poisson { mean_gap: 100.0 },
        seed,
        ..ClusterSpec::default()
    }
}

#[test]
fn partition_heals_and_the_cluster_drains() {
    let spec = spec(11);
    let plan = ChurnPlan::new()
        .step(
            Duration::from_millis(80),
            ChurnAction::Partition { side: vec![3] },
        )
        .step(Duration::from_millis(380), ChurnAction::Heal);
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
        .step(
            Duration::from_millis(80),
            ChurnAction::Partition { side: vec![2] },
        )
        .step(Duration::from_millis(180), ChurnAction::Kill { id: 2 })
        .step(Duration::from_millis(230), ChurnAction::Heal)
        .step(Duration::from_millis(280), ChurnAction::Restart { id: 2 });
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
