//! Real multi-process cluster tests: n OS processes on 127.0.0.1 reach
//! digest-identical committed logs over TCP, with and without Byzantine
//! riders. These are the tier-1 teeth behind the E11 experiment.

use std::time::Duration;

use minsync_transport::cluster::{run_cluster, Behavior, ClusterSpec};

/// Points the orchestrator at the binary Cargo built for this test run.
fn use_built_binary() {
    std::env::set_var("MINSYNC_NODE_BIN", env!("CARGO_BIN_EXE_minsync-node"));
}

fn spec(n: usize, t: usize, riders: Vec<Behavior>) -> ClusterSpec {
    ClusterSpec {
        n,
        t,
        seed: 7,
        riders,
        ..ClusterSpec::default()
    }
}

#[test]
fn all_correct_cluster_agrees_over_tcp() {
    use_built_binary();
    let report = run_cluster(&spec(4, 1, vec![])).expect("cluster runs");
    assert_eq!(report.replicas.len(), 4);
    let violations = report.violations();
    assert!(violations.is_empty(), "all-correct: {violations:?}");
    for r in &report.replicas {
        assert!(r.wall > Duration::ZERO);
    }
    assert!(report.cmds_per_sec() > 0.0);
}

#[test]
fn silent_rider_does_not_stall_the_cluster() {
    use_built_binary();
    let report = run_cluster(&spec(4, 1, vec![Behavior::Silent])).expect("cluster runs");
    assert_eq!(report.replicas.len(), 3, "three correct replicas report");
    let violations = report.violations();
    assert!(violations.is_empty(), "silent rider: {violations:?}");
}

#[test]
fn flooding_rider_is_survived_and_disconnected() {
    use_built_binary();
    let report = run_cluster(&spec(4, 1, vec![Behavior::Flood])).expect("cluster runs");
    assert_eq!(report.replicas.len(), 3);
    let violations = report.violations();
    assert!(violations.is_empty(), "flooding rider: {violations:?}");
    // The flooder's garbage-byte arm must have been cut at least once
    // somewhere in the cluster — the decode-error-disconnect defense at
    // work (the protocol-spam arm is absorbed by the SMR bounded buffers).
    let cuts = report.sum_counters("mesh.decode_disconnects")
        + report.sum_counters("mesh.handshake_rejects");
    assert!(cuts >= 1, "no replica ever cut the garbage dialer");
}

/// An authenticated cluster (per-frame MACs, key-confirmed handshakes)
/// drains and agrees exactly like a plain one — the MAC layer must be
/// transparent to honest traffic.
#[test]
fn authenticated_cluster_agrees_over_tcp() {
    use_built_binary();
    let mut spec = spec(4, 1, vec![]);
    spec.auth = true;
    let report = run_cluster(&spec).expect("authenticated cluster runs");
    assert_eq!(report.replicas.len(), 4);
    let violations = report.violations();
    assert!(violations.is_empty(), "authenticated: {violations:?}");
    assert_eq!(
        report.sum_counters("mesh.auth_rejects"),
        0,
        "honest traffic must always verify"
    );
}

/// An impersonator rider forging other replicas' identities against an
/// authenticated cluster: every forged stream is severed at the MAC layer
/// (`auth_rejects`), its valid-MAC garbage arm is cut at the codec, and the
/// committed logs stay digest-identical with full liveness.
#[test]
fn authenticated_cluster_severs_an_impersonator() {
    use_built_binary();
    let mut spec = spec(4, 1, vec![Behavior::Impersonate]);
    spec.auth = true;
    let report = run_cluster(&spec).expect("cluster runs");
    assert_eq!(report.replicas.len(), 3);
    let violations = report.violations();
    assert!(
        violations.is_empty(),
        "forged identities must not steer agreement: {violations:?}"
    );
    let auth_rejects = report.sum_counters("mesh.auth_rejects");
    assert!(auth_rejects >= 1, "no replica ever severed a forged stream");
    // The impersonator's valid-MAC-but-undecodable arm passes the MAC
    // check and must die at the codec instead.
    let cuts = report.sum_counters("mesh.decode_disconnects");
    assert!(cuts >= 1, "the valid-MAC garbage arm was never cut");
}

/// The same impersonator against an *unauthenticated* cluster: its forged
/// checkpoint votes pass for `t + 1` distinct correct senders, and the
/// cluster commits the attacker's command — the committed log differs from
/// a clean run of the *identical* workload. (This is the attack
/// demonstration; the defense is the test above.)
#[test]
fn unauthenticated_cluster_accepts_the_forged_stream() {
    use_built_binary();
    let clean = run_cluster(&spec(4, 1, vec![Behavior::Silent])).expect("clean cluster");
    let poisoned = run_cluster(&spec(4, 1, vec![Behavior::Impersonate])).expect("poisoned cluster");
    assert_eq!(poisoned.replicas.len(), 3);
    assert_eq!(
        poisoned.sum_counters("mesh.auth_rejects"),
        0,
        "nothing to sever without keys"
    );
    // The flood test proves model-legal noise cannot move the m=1 log; the
    // impersonator's forgery *does* move it.
    assert!(
        poisoned
            .replicas
            .iter()
            .all(|r| r.digest != clean.replicas[0].digest),
        "no replica committed the forged command: clean={:016x} poisoned={:?}",
        clean.replicas[0].digest,
        poisoned
            .replicas
            .iter()
            .map(|r| (r.id, r.digest))
            .collect::<Vec<_>>()
    );
}

/// A cluster run with live sampling: every correct replica prints a
/// `SAMPLE <at>` line and a `STAT v1` block over its control pipe each
/// period, the orchestrator parses them into per-replica series carrying
/// the `watch.p<i>.*` health gauges, and the local watchdogs stay silent
/// on a clean run — all while the final report is exactly as healthy as an
/// unsampled one.
#[test]
fn sampled_cluster_streams_health_gauges_without_alarms() {
    use_built_binary();
    let mut spec = spec(4, 1, vec![]);
    // The node tightens its mesh ping cadence to the sampling period, and
    // emits one closing sample at STOP — so even a short run ends with a
    // series whose tail has seen at least one ping round-trip. A longer
    // workload and a short period give the run several periodic samples.
    spec.commands_per_client = 64;
    let period = Duration::from_millis(2);
    spec.stats_period = Some(period);
    let half_period_ticks = (period.as_micros() / spec.tick.as_micros() / 2) as u64;
    let report = run_cluster(&spec).expect("sampled cluster runs");
    assert_eq!(report.replicas.len(), 4);
    let violations = report.violations();
    assert!(violations.is_empty(), "sampled: {violations:?}");
    for r in &report.replicas {
        assert!(!r.series.is_empty(), "replica {} streamed no samples", r.id);
        // The closing sample is taken after the final report, so the tail
        // carries the report's summary, the replica's own watch plane at
        // its drained state, and the mesh's per-peer RTT estimators.
        let state = &r.series.latest().expect("non-empty").values;
        for gauge in ["node.digest", "node.committed_commands"] {
            assert_eq!(
                state.gauge(gauge),
                r.snapshot.gauge(gauge),
                "replica {} {gauge}: last sample vs report",
                r.id
            );
        }
        // The floor may still climb past the report: slots after the one
        // carrying the last command keep committing until STOP.
        let floor = format!("watch.p{}.commit_floor", r.id);
        let (last, reported) = (state.gauge(&floor), r.snapshot.gauge(&floor));
        assert!(
            reported > Some(0) && last >= reported,
            "replica {}: floor {last:?} after report {reported:?}",
            r.id
        );
        assert!(
            (0..4).any(|p| state
                .gauge(&format!("link.rtt_ewma.p{p}"))
                .is_some_and(|v| v > 0)),
            "replica {} observed no peer RTT",
            r.id
        );
        // One late turn yields one sample, not a burst: periodic samples
        // sit at least half a period apart (the closing one may not).
        let stamps: Vec<u64> = r.series.points().map(|p| p.at).collect();
        let mut gaps = stamps[..stamps.len() - 1].windows(2).map(|w| w[1] - w[0]);
        assert!(
            gaps.all(|gap| gap >= half_period_ticks),
            "replica {} sampled in a burst: {stamps:?}",
            r.id
        );
        // Clean run: the local watchdog never fired.
        assert_eq!(state.counter("watchdog.alarms").unwrap_or(0), 0);
        assert_eq!(r.snapshot.counter("watchdog.alarms").unwrap_or(0), 0);
    }
}

/// The deterministic m=1 workload commits the *same* log whether the
/// flooder is present or not — Byzantine noise cannot steer agreement.
#[test]
fn flood_and_clean_clusters_commit_identical_logs() {
    use_built_binary();
    let clean = run_cluster(&spec(4, 1, vec![])).expect("clean cluster");
    let noisy = run_cluster(&spec(4, 1, vec![Behavior::Flood])).expect("noisy cluster");
    assert_eq!(
        clean.replicas[0].digest, noisy.replicas[0].digest,
        "m=1 log must be independent of Byzantine interference"
    );
}
