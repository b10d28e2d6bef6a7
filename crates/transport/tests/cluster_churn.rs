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

/// A workload slow enough (~20 ms between commands per client) that the
/// plan's disruptions land mid-run, and small enough (≤ 48 slots) to stay
/// inside the SMR flow-control window a rejoiner starts with.
fn spec(seed: u64) -> ClusterSpec {
    ClusterSpec {
        commands_per_client: 20,
        batch: 4,
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
}

#[test]
fn killed_replica_restarts_from_wal_with_an_identical_log() {
    let spec = spec(12);
    let plan = ChurnPlan::new()
        .step(Duration::from_millis(100), ChurnAction::Kill { id: 2 })
        .step(Duration::from_millis(350), ChurnAction::Restart { id: 2 });
    let report = run_churn_cluster(&spec, &plan).expect("churn cluster runs");
    let violations = report.violations();
    assert!(
        violations.is_empty(),
        "kill+restart from WAL: {violations:?}"
    );
}
