//! Orchestrator fail-fast, phase two: a child that announces its port and
//! *then* dies (the after-handshake crash) must still surface as an
//! immediate protocol error naming the dead replica and its exit status —
//! never as a generic io error or a harness timeout.
//!
//! Lives in its own test binary because it points `MINSYNC_NODE_BIN` at a
//! deliberately-broken "replica" — an environment variable is process
//! -global, so sharing a binary with the other cluster tests would race.

#![cfg(unix)]

use std::time::{Duration, Instant};

use minsync_transport::cluster::{run_cluster, ClusterError, ClusterSpec};

#[test]
fn child_dying_after_port_fails_fast_naming_the_victim() {
    // A "replica" that completes the port handshake, then drops dead.
    use std::os::unix::fs::PermissionsExt;
    let dir = std::env::temp_dir().join(format!("minsync-fake-node-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("fake-node.sh");
    std::fs::write(&script, "#!/bin/sh\necho 'PORT 1'\nexit 3\n").unwrap();
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
    std::env::set_var("MINSYNC_NODE_BIN", &script);

    let start = Instant::now();
    let err =
        run_cluster(&ClusterSpec::default()).expect_err("a cluster of exiting stubs cannot run");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "fail-fast took {:?} — the orchestrator waited toward its deadline",
        start.elapsed()
    );
    let _ = std::fs::remove_dir_all(&dir);
    // Which phase catches the death depends on pipe-close timing (the EOF
    // racing the peer-list write racing the report wait), but every path
    // must name a replica and carry its exit status.
    match err {
        ClusterError::Protocol { id, what } => {
            assert!(id < 4, "protocol errors name a real replica, got {id}");
            assert!(
                what.contains("exit status: 3"),
                "error should carry the child's exit status: {what}"
            );
            assert!(
                !what.contains("before announcing its port"),
                "the child did announce its port; the error blames the wrong phase: {what}"
            );
        }
        other => panic!("expected a protocol error, got: {other}"),
    }
}
