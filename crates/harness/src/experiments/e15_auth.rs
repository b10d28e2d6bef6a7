//! E15 — authenticated transport vs an impersonator.
//!
//! PR 5's TCP cluster trusted whatever sender id a socket announced — the
//! paper's no-impersonation assumption held only by convention. This
//! experiment measures the `minsync-auth` layer closing that gap, in two
//! adversarial arms:
//!
//! 1. **Severing** — a real multi-process cluster with an impersonator
//!    rider (forged handshakes claiming `t + 1` other replicas' identities,
//!    poison checkpoint votes, replayed captured traffic, and MAC games
//!    under its own keys). With per-frame MACs on, every forged stream must
//!    be severed at the MAC layer (`auth_rejects`), the valid-MAC garbage
//!    arm at the codec (`cuts`), and the committed logs must stay
//!    digest-identical with full liveness.
//! 2. **Acceptance** — the same attacker against an *unauthenticated*
//!    cluster: its forged checkpoint votes pass for `t + 1` distinct
//!    correct senders and the cluster commits a command no client ever
//!    submitted, visible as a digest split against a clean run of the
//!    identical workload.
//!
//! A third, all-correct arm runs the benchmark's bulk shape (4 KiB batches
//! over MAC'd sockets) for a few slots, so CI sends a multi-KiB value
//! through the authenticated path at all. The MAC-on-every-frame
//! throughput cost is the `tcp_n4_bulk_auth` workload and the `auth.*`
//! rows of `benchmark/`; the forged-tag fuzz coverage lives in
//! `crates/wire/tests/prop_wire.rs`.

use minsync_transport::cluster::{Behavior, ClusterSpec};
use minsync_workload::ArrivalProcess;

use super::{rider_spec, run_checked, slowest};
use crate::Table;

fn spec(n: usize, t: usize, auth: bool, riders: Vec<Behavior>) -> ClusterSpec {
    ClusterSpec {
        auth,
        ..rider_spec(n, t, riders)
    }
}

/// One severing-arm row: authenticated cluster + impersonator rider.
fn severing_row(n: usize, t: usize) -> [String; 7] {
    let spec = spec(n, t, true, vec![Behavior::Impersonate]);
    let report = run_checked("E15", &spec, None);
    let auth_rejects = report.sum_counters("mesh.auth_rejects");
    let cuts = report.sum_counters("mesh.decode_disconnects");
    assert!(
        auth_rejects > 0,
        "E15 n={n}: no replica ever severed a forged stream at the MAC layer"
    );
    assert!(
        cuts > 0,
        "E15 n={n}: the valid-MAC garbage arm was never cut at the codec"
    );
    let wall = slowest(&report).wall;
    [
        n.to_string(),
        t.to_string(),
        "auth+impersonator".to_string(),
        format!("{:.1}", wall.as_secs_f64() * 1000.0),
        format!("{:.0}", report.cmds_per_sec()),
        auth_rejects.to_string(),
        cuts.to_string(),
    ]
}

/// The bulk arm: the benchmark's `tcp_n4_bulk_auth` shape — 512 closed-loop
/// clients, 4 KiB batches, MACs on — for 20 slots, all replicas correct. The
/// one place outside `benchmark/` where a multi-KiB value crosses a MAC'd
/// socket; [`run_checked`] asserts agreement, liveness and that no
/// defence counter (`smr.future_drops`, `mesh.auth_rejects`,
/// `smr.payload_waits`, `smr.payload_mismatch`) moved.
fn bulk_row() -> [String; 7] {
    const CLIENTS: usize = 512;
    const SLOTS: usize = 20;
    let report = run_checked(
        "E15 bulk",
        &ClusterSpec {
            clients_per_group: CLIENTS,
            commands_per_client: SLOTS,
            batch: CLIENTS,
            arrivals: ArrivalProcess::ClosedLoop { think: 0 },
            seed: 7,
            auth: true,
            ..ClusterSpec::default()
        },
        None,
    );
    let slots = report.replicas[0].slots;
    [
        "bulk".to_string(),
        "4".to_string(),
        "1".to_string(),
        format!("auth, {CLIENTS}-command batches"),
        format!("agreed, {slots} slots, {:.0} cmds/s", report.cmds_per_sec()),
        "auth_rejects=0".to_string(),
        "cuts=0".to_string(),
    ]
}

/// The acceptance arm: the same impersonator against an unauthenticated
/// cluster steers the committed log away from a clean run's.
///
/// Returns `(clean digest, poisoned digests)` for the table.
fn acceptance_digests(n: usize, t: usize) -> (u64, Vec<u64>) {
    // Silent rider in both runs: the correct-replica line-up (and hence the
    // clean digest) must be identical across the comparison.
    let clean = run_checked("E15", &spec(n, t, false, vec![Behavior::Silent]), None);
    let poisoned = run_checked(
        "E15 unauth",
        &spec(n, t, false, vec![Behavior::Impersonate]),
        None,
    );
    for r in &poisoned.replicas {
        // `>=`, not `==`: the forged commands *add* to the committed count
        // (the workload sources refuse to let a foreign batch consume real
        // pending commands), so a poisoned log overshoots the client total.
        assert!(
            r.committed >= poisoned.total_commands,
            "E15 unauth n={n}: replica {} stalled at {}/{}",
            r.id,
            r.committed,
            poisoned.total_commands
        );
        assert_eq!(
            r.snapshot.counter("mesh.auth_rejects").unwrap_or(0),
            0,
            "nothing to sever without keys"
        );
    }
    let digests: Vec<u64> = poisoned.replicas.iter().map(|r| r.digest).collect();
    assert!(
        digests.iter().all(|&d| d != clean.replicas[0].digest),
        "E15 unauth n={n}: no replica committed the forged command"
    );
    (clean.replicas[0].digest, digests)
}

/// Runs E15.
///
/// # Panics
///
/// Panics if any arm's assertion fails: the authenticated cluster must
/// sever the impersonator with digest-identical logs, and the
/// unauthenticated cluster must accept the forgery.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E15 — Authenticated transport: impersonator severed vs accepted",
        ["arm", "n", "t", "detail", "result", "MAC layer", "codec"],
    );
    let sizes: &[(usize, usize)] = if quick { &[(4, 1)] } else { &[(4, 1), (7, 2)] };

    // Arm 1: severing.
    for &(n, t) in sizes {
        let [n_s, t_s, detail, wall, cps, rejects, cuts] = severing_row(n, t);
        table.push_row([
            "sever".to_string(),
            n_s,
            t_s,
            detail,
            format!("agreed, {wall} ms, {cps} cmds/s"),
            format!("auth_rejects={rejects}"),
            format!("cuts={cuts}"),
        ]);
    }

    table.push_row(bulk_row());

    // Arm 2: acceptance (n = 4 suffices — the property is binary).
    let (clean, poisoned) = acceptance_digests(4, 1);
    table.push_row([
        "accept".to_string(),
        "4".to_string(),
        "1".to_string(),
        "unauth+impersonator".to_string(),
        format!("poisoned: {:016x} → {:016x}", clean, poisoned[0]),
        "—".to_string(),
        "—".to_string(),
    ]);

    table
}
