//! E15 — authenticated transport vs an impersonator, and certificate
//! catch-up accounting.
//!
//! PR 5's TCP cluster trusted whatever sender id a socket announced — the
//! paper's no-impersonation assumption held only by convention. This
//! experiment measures the `minsync-auth` layer closing that gap, in three
//! arms:
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
//! 3. **Certificate accounting** (E9-style message counting) — a laggard
//!    replica catching up `k` committed slots needs `t + 1` matching
//!    checkpoint echoes per slot on the echo path, but exactly one
//!    [`minsync_smr::SmrMsg::CertCheckpoint`] per slot once commit acks
//!    carry signatures ([`minsync_smr::SmrMsg::SigAck`]) and assemble an
//!    `n − t` quorum certificate — the concrete step toward the Θ(n²)
//!    bound of Civit et al. (PAPERS.md).
//!
//! The MAC-on-every-frame throughput cost is the `tcp_n4_bulk_auth`
//! workload and the `auth.*` rows of `benchmark/`; the forged-tag fuzz
//! coverage lives in `crates/wire/tests/prop_wire.rs`.

use std::sync::Arc;

use minsync_auth::{Authenticator, HmacAuthenticator};
use minsync_net::{Effect, Env, Node};
use minsync_smr::{commit_statement, ReplicaNode, SmrEvent, SmrMsg};
use minsync_transport::cluster::{run_cluster, Behavior, ClusterReport, ClusterSpec};
use minsync_types::{ProcessId, SystemConfig};
use minsync_workload::ArrivalProcess;

use crate::Table;

fn spec(n: usize, t: usize, auth: bool, riders: Vec<Behavior>) -> ClusterSpec {
    ClusterSpec {
        n,
        t,
        clients_per_group: 4,
        arrivals: ArrivalProcess::Poisson { mean_gap: 1.0 },
        seed: 7,
        riders,
        auth,
        ..ClusterSpec::default()
    }
}

/// Runs one cluster case, asserting agreement and liveness of the correct
/// replicas.
///
/// # Panics
///
/// Panics if the cluster cannot be spawned (build `minsync-node` first —
/// `cargo build --release -p minsync-transport`), a correct replica
/// stalls, or the committed-log digests diverge.
fn run_case(spec: &ClusterSpec) -> ClusterReport {
    let report = run_cluster(spec).unwrap_or_else(|e| {
        panic!(
            "E15 n={} auth={} riders={:?}: cluster failed: {e}",
            spec.n, spec.auth, spec.riders
        )
    });
    let violations = report.violations();
    assert!(
        violations.is_empty(),
        "E15 n={} auth={}: {violations:?}",
        spec.n,
        spec.auth
    );
    for r in &report.replicas {
        if spec.riders.iter().all(|&b| b == Behavior::Silent) {
            // With no rider actively injecting traffic (silent ones only
            // occupy fault slots), the flow-control cap and the MAC check
            // must stay untouched — a nonzero counter means an honest frame
            // was discarded. Read straight off the child's registry
            // snapshot. Retired drops can race honestly (a peer's late
            // slot relay vs. the straggler's own ack on another TCP
            // stream), so they are surfaced but not asserted; see E11.
            let counter = |name: &str| r.snapshot.counter(name).unwrap_or(0);
            assert_eq!(
                counter("smr.future_drops"),
                0,
                "E15 clean run dropped future traffic"
            );
            assert_eq!(
                counter("mesh.auth_rejects"),
                0,
                "E15 clean run rejected a frame"
            );
        }
    }
    report
}

/// One severing-arm row: authenticated cluster + impersonator rider.
fn severing_row(n: usize, t: usize) -> [String; 7] {
    let spec = spec(n, t, true, vec![Behavior::Impersonate]);
    let report = run_case(&spec);
    let auth_rejects: u64 = report.replicas.iter().map(|r| r.auth_rejects).sum();
    let cuts: u64 = report.replicas.iter().map(|r| r.decode_disconnects).sum();
    assert!(
        auth_rejects > 0,
        "E15 n={n}: no replica ever severed a forged stream at the MAC layer"
    );
    assert!(
        cuts > 0,
        "E15 n={n}: the valid-MAC garbage arm was never cut at the codec"
    );
    let slowest = report
        .replicas
        .iter()
        .max_by_key(|r| r.wall)
        .expect("at least one correct replica");
    [
        n.to_string(),
        t.to_string(),
        "auth+impersonator".to_string(),
        format!("{:.1}", slowest.wall.as_secs_f64() * 1000.0),
        format!("{:.0}", report.cmds_per_sec()),
        auth_rejects.to_string(),
        cuts.to_string(),
    ]
}

/// The acceptance arm: the same impersonator against an unauthenticated
/// cluster steers the committed log away from a clean run's.
///
/// Returns `(clean digest, poisoned digests)` for the table.
fn acceptance_digests(n: usize, t: usize) -> (u64, Vec<u64>) {
    // Silent rider in both runs: the correct-replica line-up (and hence the
    // clean digest) must be identical across the comparison.
    let clean = run_case(&spec(n, t, false, vec![Behavior::Silent]));
    let poisoned = run_cluster(&spec(n, t, false, vec![Behavior::Impersonate]))
        .unwrap_or_else(|e| panic!("E15 unauth n={n}: cluster failed: {e}"));
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

// ---------------------------------------------------------------------------
// Certificate accounting (arm 3)
// ---------------------------------------------------------------------------

type Msg = SmrMsg<u64>;
type Out = SmrEvent<u64>;
type Replica = ReplicaNode<u64, fn(u64) -> u64>;

/// The value committed at `slot` in the accounting scenario.
fn slot_value(slot: u64) -> u64 {
    1000 + slot
}

/// Builds a replica whose proposals follow the shared deterministic stream
/// (m = 1 feasibility: every replica proposes the same value per slot).
fn accounting_replica(
    system: SystemConfig,
    slots: u64,
    certs: Option<&HmacAuthenticator>,
) -> Replica {
    let cfg = minsync_core::ConsensusConfig::paper(system);
    let node = ReplicaNode::new(cfg, slot_value as fn(u64) -> u64, slots);
    match certs {
        Some(auth) => node.with_certs(Arc::new(auth.clone())),
        None => node,
    }
}

/// Drives `count` server replicas to `slots` committed slots, feeding each
/// the `t + 1` checkpoint votes (and, in cert mode, the `n − t` commit
/// signatures) it needs — the committed state a laggard will catch up to.
fn prime_servers(
    system: SystemConfig,
    ring: &[HmacAuthenticator],
    count: usize,
    slots: u64,
    certs: bool,
) -> Vec<(usize, Replica, Env<Msg, Out>)> {
    let n = system.n();
    let t = system.t();
    let laggard_id = n - 1;
    (0..count)
        .map(|i| {
            let mut node = accounting_replica(system, slots, certs.then(|| &ring[i]));
            let mut env: Env<Msg, Out> = Env::new(n, 0);
            env.prepare(ProcessId::new(i), minsync_net::VirtualTime::ZERO);
            node.on_start(&mut env);
            let _ = env.take_buffer();
            // Checkpoint votes double as cumulative acks, so the voters
            // must never include the laggard: a server that believes the
            // laggard already committed would (correctly) refuse to serve
            // it catch-up evidence.
            let voters: Vec<usize> = (0..n)
                .filter(|&p| p != i && p != laggard_id)
                .take(t + 1)
                .collect();
            for slot in 1..=slots {
                // `t + 1` matching checkpoint votes commit the slot…
                for &peer in &voters {
                    node.on_message(
                        ProcessId::new(peer),
                        SmrMsg::Checkpoint {
                            slot,
                            value: slot_value(slot),
                        },
                        &mut env,
                    );
                }
                if certs {
                    // …and `n − t − 1` peer signatures (plus the server's
                    // own, added on commit) complete the quorum cert.
                    let statement = commit_statement(slot, &slot_value(slot));
                    for peer in (0..n).filter(|&p| p != i).take(n - t - 1) {
                        node.on_message(
                            ProcessId::new(peer),
                            SmrMsg::SigAck {
                                slot,
                                sig: ring[peer].sign(&statement),
                            },
                            &mut env,
                        );
                    }
                }
            }
            assert_eq!(node.committed_count(), slots, "server {i} failed to prime");
            let _ = env.take_buffer();
            (i, node, env)
        })
        .collect()
}

/// Result of one catch-up accounting run.
struct CatchUp {
    /// Catch-up messages delivered to the laggard, `(kind, count)`.
    delivered: Vec<(&'static str, u64)>,
    /// Slots the laggard committed.
    committed: u64,
}

impl CatchUp {
    fn total(&self) -> u64 {
        self.delivered.iter().map(|(_, c)| c).sum()
    }
}

/// Runs the catch-up scenario: committed servers answer a fresh laggard's
/// consensus traffic with their cheapest available evidence. Without
/// certificates the laggard needs `t + 1` matching echoes from *distinct*
/// servers per slot (a single echoer could be Byzantine); with them a
/// single correct server's certified checkpoint is self-authenticating, so
/// one server — and one message per slot — suffices. Counts every message
/// delivered to the laggard until it has committed all `slots`.
fn catch_up(n: usize, t: usize, slots: u64, certs: bool) -> CatchUp {
    let system = SystemConfig::new(n, t).expect("valid system");
    let ring = HmacAuthenticator::deal(b"e15-cert-accounting", n);
    let servers_needed = if certs { 1 } else { t + 1 };
    let mut servers = prime_servers(system, &ring, servers_needed, slots, certs);
    let laggard_id = n - 1;
    let mut laggard = accounting_replica(system, slots, certs.then(|| &ring[laggard_id]));
    let mut lenv: Env<Msg, Out> = Env::new(n, 0);
    lenv.prepare(ProcessId::new(laggard_id), minsync_net::VirtualTime::ZERO);
    laggard.on_start(&mut lenv);

    let mut delivered: Vec<(&'static str, u64)> = Vec::new();
    let mut count = |kind: &'static str| match delivered.iter_mut().find(|(k, _)| *k == kind) {
        Some((_, c)) => *c += 1,
        None => delivered.push((kind, 1)),
    };
    // Round-based pump: the laggard's outgoing consensus traffic reaches
    // the servers, and only traffic *addressed to the laggard* flows back —
    // the catch-up cost being measured. A bounded round count turns a
    // regression into an assertion failure instead of a hang.
    for _ in 0..(4 * slots + 8) {
        if laggard.committed_count() >= slots {
            break;
        }
        let outgoing = lenv.take_buffer();
        for effect in outgoing {
            match effect {
                Effect::Broadcast { msg } => {
                    for (_, node, env) in servers.iter_mut() {
                        node.on_message(ProcessId::new(laggard_id), msg.clone(), env);
                    }
                }
                Effect::Send { to, msg } => {
                    if let Some((_, node, env)) =
                        servers.iter_mut().find(|(i, _, _)| *i == to.index())
                    {
                        node.on_message(ProcessId::new(laggard_id), msg, env);
                    }
                }
                _ => {}
            }
        }
        for (server, _, env) in servers.iter_mut() {
            for effect in env.take_buffer() {
                if let Effect::Send { to, msg } = effect {
                    if to.index() == laggard_id {
                        // Delivered under the *server's* id: the echo
                        // plurality requires distinct senders.
                        count(SmrMsg::classify(&msg));
                        laggard.on_message(ProcessId::new(*server), msg, &mut lenv);
                    }
                }
            }
        }
    }
    CatchUp {
        delivered,
        committed: laggard.committed_count(),
    }
}

/// Runs E15.
///
/// # Panics
///
/// Panics if any arm's assertion fails: the authenticated cluster must
/// sever the impersonator with digest-identical logs, the unauthenticated
/// cluster must accept the forgery, and the certificate path must cost
/// fewer catch-up messages per slot than the echo path.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E15 — Authenticated transport: impersonator severed, certificate catch-up accounting",
        ["arm", "n", "t", "detail", "result", "messages", "msgs/slot"],
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

    // Arm 3: certificate accounting.
    let slots = if quick { 4 } else { 8 };
    let cert_sizes: &[(usize, usize)] = if quick {
        &[(4, 1)]
    } else {
        &[(4, 1), (7, 2), (10, 3)]
    };
    for &(n, t) in cert_sizes {
        let echo = catch_up(n, t, slots, false);
        let cert = catch_up(n, t, slots, true);
        assert_eq!(echo.committed, slots, "echo catch-up stalled at n={n}");
        assert_eq!(cert.committed, slots, "cert catch-up stalled at n={n}");
        assert!(
            cert.total() < echo.total(),
            "E15 n={n}: certificates did not reduce catch-up messages \
             (echo {} vs cert {})",
            echo.total(),
            cert.total()
        );
        for (label, run) in [("echo", &echo), ("cert", &cert)] {
            table.push_row([
                "catch-up".to_string(),
                n.to_string(),
                t.to_string(),
                format!("{label}, {slots} slots"),
                format!("{:?}", run.delivered),
                run.total().to_string(),
                format!("{:.1}", run.total() as f64 / slots as f64),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_catch_up_costs_t_plus_1_per_slot() {
        let run = catch_up(4, 1, 3, false);
        assert_eq!(run.committed, 3);
        // Exactly t + 1 = 2 matching echoes per slot, nothing else.
        assert_eq!(run.delivered, [("SMR_CKPT", 6)]);
    }

    #[test]
    fn cert_catch_up_costs_one_message_per_slot() {
        let run = catch_up(4, 1, 3, true);
        assert_eq!(run.committed, 3);
        assert_eq!(run.total(), 3, "{:?}", run.delivered);
        assert_eq!(run.delivered[0].0, "SMR_CERT_CKPT");
    }

    #[test]
    fn cert_savings_grow_with_n() {
        for (n, t) in [(4, 1), (7, 2), (10, 3)] {
            let echo = catch_up(n, t, 2, false);
            let cert = catch_up(n, t, 2, true);
            assert_eq!(echo.total(), 2 * (t as u64 + 1), "echo is t+1 per slot");
            assert_eq!(cert.total(), 2, "cert is 1 per slot");
        }
    }
}
