//! Orchestrator fail-fast: a child that dies before announcing its port
//! must surface as an immediate protocol error carrying the exit status,
//! not as a harness-timeout minutes later.
//!
//! Lives in its own test binary because it points `MINSYNC_NODE_BIN` at a
//! deliberately-broken "replica" — an environment variable is process
//! -global, so sharing a binary with the real cluster tests would race.

use std::time::{Duration, Instant};

use minsync_transport::cluster::{run_cluster, ClusterError, ClusterSpec};

#[test]
fn child_dying_before_port_fails_fast_with_its_exit_status() {
    // `false` exits 1 without ever printing a PORT line.
    std::env::set_var("MINSYNC_NODE_BIN", "/bin/false");
    let start = Instant::now();
    let err = run_cluster(&ClusterSpec::default()).expect_err("a cluster of /bin/false cannot run");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "fail-fast took {:?} — the orchestrator waited toward its deadline",
        start.elapsed()
    );
    match err {
        ClusterError::Protocol { what, .. } => {
            assert!(
                what.contains("exited before announcing its port"),
                "unexpected protocol error: {what}"
            );
            assert!(
                what.contains("exit status: 1"),
                "error should carry the child's exit status: {what}"
            );
        }
        other => panic!("expected a protocol error, got: {other}"),
    }
}
