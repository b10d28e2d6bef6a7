//! One replica of the batched SMR + workload pipeline, run as a real OS
//! process over the TCP mesh — the unit the cluster orchestrator spawns.
//!
//! ```text
//! minsync-node --id I --n N --t T --listen 127.0.0.1:0
//!              [--peers a0,a1,…]           # else bootstrap over stdin
//!              [--auth-keys HEX]           # this replica's MAC keyring
//!              [--wal PATH]                # durable committed-log file
//!              [--window W]                # SMR pipelining window override
//!              [--trace PATH]              # structured trace dump (JSONL)
//!              [--stats-period MS]         # live STAT v1 sampling
//!              --groups M --clients C --commands K --batch B
//!              --arrival poisson:G|bursty:B/P|closed:T
//!              --seed S --behavior correct|silent|flood|impersonate
//!              --tick-us US --timeout-ms MS
//! ```
//!
//! With `--auth-keys` (an [`HmacAuthenticator::to_hex`] keyring from the
//! orchestrator's dealer) the mesh authenticates its handshake and MACs
//! every frame; forged streams are severed and counted in the
//! `mesh.auth_rejects` metric of the statistics snapshot.
//!
//! With `--trace` the mesh, SMR layer, and codec record structured trace
//! events into a bounded ring; when the run ends the ring is dumped as
//! JSONL to the named path (readable by `minsync-trace` and the
//! `minsync-telemetry` analyzer), with client `Submitted` stage events
//! back-filled from the workload's arrival schedule.
//!
//! With `--stats-period` the process prints one live sample over the
//! control pipe every period — a `SAMPLE <at>` line followed by the
//! registry's `STAT v1` block (see `minsync_telemetry::timeseries`) — and
//! runs a local invariant watchdog over the same snapshots: alarms surface
//! as `watchdog.alarms*` counters in the samples and the final statistics
//! block, and as `alarm` records in the `--trace` ring.
//!
//! With `--wal` a correct replica appends every committed slot to the
//! named file ([`Wal`]: one wire frame per slot, written before the slot's
//! ack) and, on startup, replays the whole records the file already holds
//! and cuts off a torn tail — the crash half of crash-recovery. A
//! restarted replica thus rejoins with its pre-crash log intact and
//! catches the tail over the checkpoint path; the churn orchestrator leans
//! on this for `ChurnAction::Restart`. The log survives a SIGKILL, not
//! power loss (nothing calls `sync_data`).
//!
//! Control pipe (see `minsync_transport::cluster`): the process prints
//! `PORT <p>` once its listener is bound; if `--peers` was not given it
//! then reads one `PEERS <addr0> … <addrN−1>` line from stdin. Mid-run the
//! orchestrator may inject link faults: `PART <ids…>` drops all outbound
//! traffic to the listed peers (replacing any previous set) and `HEAL`
//! clears every rule. A correct replica prints its statistics block (a
//! `STAT v1 … END STAT` registry snapshot followed by `DONE`) the moment
//! its workload drains, then *keeps serving* acks and checkpoints for
//! laggards until `STOP` arrives on stdin (or stdin closes), bounded by
//! `--timeout-ms`. Byzantine behaviors never report; they run until
//! `STOP`.

#![forbid(unsafe_code)]

use std::io::{BufRead, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use minsync_adversary::impersonate::{forged_hello, tagged_frame, tampered_frame};
use minsync_adversary::{CaptureHandle, CaptureNode, FloodNode, SilentNode};
use minsync_auth::{Authenticator, HmacAuthenticator};
use minsync_core::ProtocolMsg;
use minsync_net::driver::WallClock;
use minsync_net::sim::OutputRecord;
use minsync_net::{Node, VirtualTime};
use minsync_smr::{Digest, SmrEvent, SmrLimits, SmrMsg};
use minsync_telemetry::trace::{TraceMeta, TraceRecorder, DEFAULT_TRACE_CAPACITY};
use minsync_telemetry::{Registry, Watchdog, WatchdogConfig};
use minsync_transport::cluster::{control, parse_arrival, Behavior, LogDigest};
use minsync_transport::mesh::{LinkFaults, MeshConfig, MeshOutput, TcpMesh};
use minsync_transport::wal::Wal;
use minsync_types::{ProcessId, Round, SystemConfig};
use minsync_wire::{encode_frame, Hello, DEFAULT_MAX_FRAME, WIRE_VERSION};
use minsync_workload::{account, ArrivalProcess, Batch, ClientPopulation, WorkloadSpec};

type Msg = SmrMsg<Batch>;
type Out = SmrEvent<Batch>;

struct Args {
    id: usize,
    n: usize,
    t: usize,
    listen: SocketAddr,
    peers: Option<Vec<SocketAddr>>,
    groups: usize,
    clients: usize,
    commands: usize,
    batch: usize,
    arrival: ArrivalProcess,
    seed: u64,
    behavior: Behavior,
    tick: Duration,
    timeout: Duration,
    auth: Option<Arc<HmacAuthenticator>>,
    wal: Option<PathBuf>,
    ckpt_retry: u64,
    window: Option<u64>,
    trace: Option<PathBuf>,
    stats_period: Option<Duration>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        id: 0,
        n: 4,
        t: 1,
        listen: "127.0.0.1:0".parse().expect("static addr"),
        peers: None,
        groups: 1,
        clients: 2,
        commands: 8,
        batch: 8,
        arrival: ArrivalProcess::Poisson { mean_gap: 2.0 },
        seed: 1,
        behavior: Behavior::Correct,
        tick: Duration::from_micros(200),
        timeout: Duration::from_secs(30),
        auth: None,
        wal: None,
        ckpt_retry: 0,
        window: None,
        trace: None,
        stats_period: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag {
            "--id" => args.id = value.parse().map_err(|e| format!("--id: {e}"))?,
            "--n" => args.n = value.parse().map_err(|e| format!("--n: {e}"))?,
            "--t" => args.t = value.parse().map_err(|e| format!("--t: {e}"))?,
            "--listen" => args.listen = value.parse().map_err(|e| format!("--listen: {e}"))?,
            "--peers" => {
                let peers: Result<Vec<SocketAddr>, _> = value.split(',').map(str::parse).collect();
                args.peers = Some(peers.map_err(|e| format!("--peers: {e}"))?);
            }
            "--groups" => args.groups = value.parse().map_err(|e| format!("--groups: {e}"))?,
            "--clients" => args.clients = value.parse().map_err(|e| format!("--clients: {e}"))?,
            "--commands" => {
                args.commands = value.parse().map_err(|e| format!("--commands: {e}"))?
            }
            "--batch" => args.batch = at_least_one(flag, value)? as usize,
            "--arrival" => {
                args.arrival =
                    parse_arrival(value).ok_or_else(|| format!("--arrival: bad spec {value}"))?
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--behavior" => {
                args.behavior = Behavior::parse(value)
                    .ok_or_else(|| format!("--behavior: unknown behavior {value}"))?
            }
            "--tick-us" => args.tick = Duration::from_micros(at_least_one(flag, value)?),
            "--timeout-ms" => {
                args.timeout =
                    Duration::from_millis(value.parse().map_err(|e| format!("--timeout-ms: {e}"))?)
            }
            "--auth-keys" => {
                args.auth = Some(Arc::new(
                    HmacAuthenticator::from_hex(value)
                        .ok_or("--auth-keys: malformed keyring".to_string())?,
                ))
            }
            "--wal" => args.wal = Some(PathBuf::from(value)),
            "--ckpt-retry" => {
                args.ckpt_retry = value.parse().map_err(|e| format!("--ckpt-retry: {e}"))?
            }
            "--window" => args.window = Some(at_least_one(flag, value)?),
            "--trace" => args.trace = Some(PathBuf::from(value)),
            "--stats-period" => {
                args.stats_period = Some(Duration::from_millis(at_least_one(flag, value)?))
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if args.id >= args.n {
        return Err(format!("--id {} out of range for --n {}", args.id, args.n));
    }
    if let Some(auth) = &args.auth {
        if auth.me().index() != args.id || auth.n() != args.n {
            return Err(format!(
                "--auth-keys is for replica {} of {}, not replica {} of {}",
                auth.me().index(),
                auth.n(),
                args.id,
                args.n
            ));
        }
    }
    Ok(args)
}

/// Parses `flag`'s value as a count that must be at least 1: a zero batch
/// proposes nothing, a zero tick makes every timer due at once.
fn at_least_one(flag: &str, value: &str) -> Result<u64, String> {
    match value.parse() {
        Ok(0) => Err(format!("{flag}: must be at least 1")),
        parsed => parsed.map_err(|e| format!("{flag}: {e}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("minsync-node: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(args) {
        eprintln!("minsync-node: {e}");
        std::process::exit(1);
    }
}

fn run(args: Args) -> Result<(), String> {
    let me = ProcessId::new(args.id);
    let mesh = TcpMesh::bind(me, args.listen).map_err(|e| format!("bind {}: {e}", args.listen))?;
    let port = mesh
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .port();
    println!("{} {port}", control::PORT);
    std::io::stdout().flush().ok();

    // Stop flag: raised by STOP on stdin, or by stdin closing (the
    // orchestrator died — never outlive it). Link faults: flipped by
    // PART/HEAL on stdin, consulted by the mesh on every send.
    let stop_flag = Arc::new(AtomicBool::new(false));
    let faults = Arc::new(LinkFaults::new(args.n));
    let peers = match args.peers.clone() {
        Some(peers) => {
            spawn_stdin_watcher(Arc::clone(&stop_flag), Arc::clone(&faults), None);
            peers
        }
        None => {
            let (peers_tx, peers_rx) = std::sync::mpsc::channel::<Vec<SocketAddr>>();
            spawn_stdin_watcher(Arc::clone(&stop_flag), Arc::clone(&faults), Some(peers_tx));
            peers_rx
                .recv_timeout(args.timeout)
                .map_err(|_| "no PEERS line arrived on stdin".to_string())?
        }
    };
    if peers.len() != args.n {
        return Err(format!(
            "peer list has {} addresses for --n {}",
            peers.len(),
            args.n
        ));
    }

    let system = SystemConfig::new(args.n, args.t).map_err(|e| format!("system config: {e}"))?;
    let pop = WorkloadSpec {
        groups: args.groups,
        clients_per_group: args.clients,
        commands_per_client: args.commands,
        arrivals: args.arrival,
        seed: args.seed,
    }
    .generate(&system)
    .map_err(|e| format!("workload: {e}"))?;
    let total: usize = pop.total_commands();
    let target = pop.slots_upper_bound(args.batch);

    // One registry backs every counter in the process (mesh + SMR layer);
    // the statistics block is its snapshot. The trace ring only exists
    // when `--trace` asked for it — untraced runs keep zero-cost hooks.
    let registry = Arc::new(Registry::new());
    let trace = args
        .trace
        .as_ref()
        .map(|_| Arc::new(TraceRecorder::new(DEFAULT_TRACE_CAPACITY)));

    let mut config = MeshConfig {
        tick: args.tick,
        timeout: args.timeout,
        seed: args.seed,
        auth: args.auth.clone().map(|a| a as Arc<dyn Authenticator>),
        faults: Some(Arc::clone(&faults)),
        registry: Some(Arc::clone(&registry)),
        trace: trace.clone(),
        ..MeshConfig::default()
    };
    if let Some(period) = args.stats_period {
        // Health probes must outpace the sampler: tighten the ping cadence
        // to the sampling period so every sample can carry fresh RTT.
        config.keepalive = config.keepalive.min(period);
    }
    let node: Box<dyn Node<Msg = Msg, Output = Out>> = match args.behavior {
        Behavior::Correct => {
            // Under fault injection, links lose frames outright (a
            // partition blocks a frame at the fault switch; nothing
            // replays it), so the churn orchestrator passes `--ckpt-retry`
            // to enable the repair timer: a dropped state-transfer reply
            // must be a delay, never a permanent wedge. It stays off by
            // default — the repair's ack re-broadcasts speed up slot
            // retirement enough that honest late instance traffic starts
            // landing on retired slots, and clean runs assert those drop
            // counters stay zero.
            let mut limits = SmrLimits {
                ckpt_retry: args.ckpt_retry,
                ..SmrLimits::default()
            };
            if let Some(window) = args.window {
                limits.window = window;
            }
            let mut replica = pop
                .replica(system, args.id, args.batch)
                .with_limits(limits)
                .with_registry(&registry)
                .with_watch(&registry, args.id);
            if let Some(trace) = &trace {
                replica = replica.with_trace(Arc::clone(trace));
            }
            if let Some(path) = &args.wal {
                let (mut wal, prefix) =
                    Wal::open(path).map_err(|e| format!("opening WAL {}: {e}", path.display()))?;
                // WAL writes must succeed: acking a commit the log lost would
                // strand us after a restart (peers refuse to re-serve acked
                // slots).
                replica = replica.with_recovered_prefix(prefix).with_commit_log(
                    move |_, batch: &Batch| {
                        wal.append(batch).expect("WAL append failed");
                    },
                );
            }
            Box::new(replica)
        }
        Behavior::Silent => Box::new(SilentNode::<Msg, Out>::new()),
        Behavior::Impersonate => {
            // The in-protocol half is a silent recorder (it occupies a
            // fault slot and contributes nothing to quorums); the attack
            // itself runs in dialer threads forging *other* replicas'
            // identities at the byte level.
            let capture: CaptureNode<Msg, Out> = CaptureNode::new(1024);
            spawn_impersonator_dialers(
                me,
                args.n,
                args.t,
                &peers,
                args.auth.clone(),
                capture.handle(),
                Arc::clone(&stop_flag),
            );
            Box::new(capture)
        }
        Behavior::Flood => {
            // Protocol-level spam: bursts of future-slot garbage, plus raw
            // garbage bytes dialed straight at every peer (the transport
            // must disconnect those connections, not die).
            spawn_garbage_dialers(me, args.n, &peers, Arc::clone(&stop_flag));
            Box::new(FloodNode::<Msg, Out, _>::new(2, 64, u64::MAX, move |i| {
                let slot = 2 + (i / 2 % target.max(3));
                let value = Batch(vec![u64::MAX]);
                if i % 2 == 0 {
                    SmrMsg::Slot {
                        slot,
                        msg: ProtocolMsg::EaProp2 {
                            round: Round::FIRST,
                            value: Digest([0xFF; 32]),
                        },
                    }
                } else {
                    SmrMsg::Payload { slot, value }
                }
            }))
        }
    };

    // A correct replica reports the moment it drains, then lingers (serving
    // acks/checkpoints to laggards) until STOP; Byzantine behaviors just
    // run until STOP. With `--stats-period`, every period the stop probe
    // also feeds a registry snapshot to a local invariant watchdog, whose
    // alarm totals land back in the registry (`watchdog.alarms*`), and
    // prints one `SAMPLE <at>` + `STAT v1` sample over the control pipe.
    let mut reported = args.behavior != Behavior::Correct;
    let clock = WallClock::new(std::time::Instant::now(), args.tick);
    let stop = {
        let stop_flag = Arc::clone(&stop_flag);
        let registry = Arc::clone(&registry);
        let pop = &pop;
        // The probe runs once per loop turn: count what the outputs gained
        // since the last turn instead of rescanning the whole history.
        let (mut cursor, mut committed) = (0, 0);
        let mut watchdog = Watchdog::new(WatchdogConfig::default()).with_registry(&registry);
        if let Some(trace) = &trace {
            watchdog = watchdog.with_trace(Arc::clone(trace));
        }
        let mut next_sample = args.stats_period.map(|p| std::time::Instant::now() + p);
        move |outs: &[MeshOutput<Out>], _counters: &minsync_transport::mesh::MeshCounters| {
            committed += committed_commands(&outs[cursor..]);
            cursor = outs.len();
            if !reported && committed >= total {
                reported = true;
                print_stats(pop, outs, me, clock, &registry);
            }
            // STOP (or stdin EOF — the orchestrator is gone) ends the run
            // unconditionally: the orchestrator only sends STOP after every
            // correct replica reported, and an orphan must never linger.
            let stopping = stop_flag.load(Ordering::Relaxed);
            if let (Some(period), Some(due)) = (args.stats_period, next_sample) {
                // One sample per period, plus a closing sample on the way
                // out so the stream tail always carries the drained state.
                let now = std::time::Instant::now();
                if stopping || now >= due {
                    let at = clock.ticks();
                    // Observe first, sample second: alarms this observation
                    // raises bump `watchdog.alarms*` counters that the
                    // sample about to ship already carries.
                    watchdog.observe(args.id as u32, at, &registry.snapshot());
                    let text = registry.snapshot().to_text();
                    print!("{} {at}\n{text}", control::SAMPLE);
                    std::io::stdout().flush().ok();
                    // From now, not from `due`: a turn k periods late must
                    // not owe k back-to-back samples.
                    next_sample = Some(due.max(now) + period);
                }
            }
            stopping
        }
    };
    let report = mesh.run(node, &peers, &config, stop);

    if let (Some(trace), Some(path)) = (&trace, &args.trace) {
        let committed = report.outputs.iter().filter_map(|o| o.event.as_committed());
        pop.backfill_submitted(trace, me.index() as u32, committed);
        let dump = trace.dump(&TraceMeta {
            source: "tcp".into(),
            tick_ns: args.tick.as_nanos() as u64,
            seed: args.seed,
        });
        std::fs::write(path, dump)
            .map_err(|e| format!("writing trace dump {}: {e}", path.display()))?;
    }

    if args.behavior == Behavior::Correct
        && report.timed_out
        && committed_commands(&report.outputs) < total
    {
        return Err(format!(
            "timed out at {}/{} commands",
            committed_commands(&report.outputs),
            total
        ));
    }
    Ok(())
}

/// Commands committed so far in a mesh output stream.
fn committed_commands(outs: &[MeshOutput<Out>]) -> usize {
    outs.iter()
        .filter_map(|o| o.event.as_committed())
        .map(|(_, batch)| batch.len())
        .sum()
}

/// Prints the statistics block the orchestrator parses (see
/// `cluster::parse_stats`), ending in `DONE`: the run's summary numbers
/// are written into the shared registry as `node.*` gauges and the whole
/// registry — mesh and SMR counters included — goes out as one
/// `STAT v1 … END STAT` snapshot.
fn print_stats(
    pop: &ClientPopulation,
    outs: &[MeshOutput<Out>],
    me: ProcessId,
    clock: WallClock,
    registry: &Registry,
) {
    let mut digest = LogDigest::new();
    let mut slots = 0u64;
    let mut commands = 0usize;
    let mut wall = Duration::ZERO;
    let total = pop.total_commands();
    for out in outs {
        if let Some((slot, batch)) = out.event.as_committed() {
            wall = wall.max(out.elapsed);
            if commands >= total {
                // The stop condition cuts at `total` *commands*, but under
                // churn the log can keep growing with empty slots — how
                // many land before this replica's cutoff is a race, so
                // they stay out of the digest. Everything up to the slot
                // carrying the last command is prefix-identical by
                // agreement.
                continue;
            }
            digest.fold_slot(slot, batch.commands());
            slots += 1;
            commands += batch.len();
        }
    }
    // Latency accounting reuses the workload crate: mesh outputs become
    // OutputRecords at their tick-converted emission times.
    let records: Vec<OutputRecord<Out>> = outs
        .iter()
        .map(|o| OutputRecord {
            time: VirtualTime::from_ticks(clock.ticks_of(o.elapsed)),
            process: me,
            event: o.event.clone(),
        })
        .collect();
    let workload = account(pop, &records, me);
    let lat = workload.latency;
    // Run-summary gauges: all integers (the registry holds no floats), so
    // the two fractional quantities ship scaled — wall time in
    // microseconds, mean latency in milliticks.
    registry
        .gauge("node.committed_commands")
        .set(commands as u64);
    registry.gauge("node.committed_slots").set(slots);
    registry.gauge("node.digest").set(digest.value());
    registry.gauge("node.wall_us").set(wall.as_micros() as u64);
    registry.gauge("node.lat_count").set(lat.count as u64);
    registry.gauge("node.lat_p50").set(lat.p50);
    registry.gauge("node.lat_p95").set(lat.p95);
    registry.gauge("node.lat_p99").set(lat.p99);
    registry
        .gauge("node.lat_mean_milli")
        .set((lat.mean * 1000.0).round() as u64);
    // This process's OS threads: the mesh loop and the stdin watcher for a
    // correct replica. Left unset where there is no `/proc`.
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        registry.gauge("node.threads").set(tasks.count() as u64);
    }
    print!("{}", registry.snapshot().to_text());
    println!("{}", control::DONE);
    std::io::stdout().flush().ok();
}

/// Watches stdin: forwards the bootstrap `PEERS` line (if a sender is
/// given), applies `PART`/`HEAL` link-fault rules, and raises the stop
/// flag on `STOP` or EOF.
fn spawn_stdin_watcher(
    stop_flag: Arc<AtomicBool>,
    faults: Arc<LinkFaults>,
    peers_tx: Option<std::sync::mpsc::Sender<Vec<SocketAddr>>>,
) {
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        let mut peers_tx = peers_tx;
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            let line = line.trim().to_string();
            if let Some(rest) = line.strip_prefix(control::PEERS) {
                let peers: Result<Vec<SocketAddr>, _> =
                    rest.split_whitespace().map(str::parse).collect();
                if let (Some(tx), Ok(peers)) = (peers_tx.take(), peers) {
                    let _ = tx.send(peers);
                }
            } else if let Some(rest) = line.strip_prefix(control::PART) {
                let blocked: Result<Vec<usize>, _> =
                    rest.split_whitespace().map(str::parse).collect();
                if let Ok(blocked) = blocked {
                    faults.set_blocked(&blocked);
                }
            } else if line == control::HEAL {
                faults.heal();
            } else if line == control::STOP {
                stop_flag.store(true, Ordering::Relaxed);
            }
        }
        // EOF: the orchestrator is gone — stop regardless.
        stop_flag.store(true, Ordering::Relaxed);
    });
}

/// Slots the impersonator tries to poison with forged checkpoint votes.
const POISON_SLOTS: u64 = 3;
/// The attacker-chosen command the forged checkpoint votes inject. One
/// *global* value, deliberately: victims the storm misses catch up through
/// the ordinary checkpoint path (their poisoned peers' echoes match, so
/// `t + 1` votes assemble), keeping the poisoned cluster *live* — the
/// demonstration is that an unauthenticated cluster cleanly commits a
/// command no client ever submitted, measured as a digest split against a
/// clean run of the identical workload.
const POISON_COMMAND: u64 = 0xDEAD_BEEF;
/// Rounds of the forged-identity arms (~1s at the dialer cadence). Against
/// an unauthenticated mesh each forged handshake *evicts* the genuine
/// sender's connection (the epoch rule sides with the newest claimant), so
/// an endless storm is a trivial denial of service that would mask the
/// subtler result: bounding it to the cluster's startup window shows the
/// poison landing in the committed logs *and* the cluster then draining —
/// divergence, not just downtime. The MAC-game arm has no such side effect
/// and runs until STOP.
const FORGERY_ROUNDS: u64 = 64;

/// The impersonator's dialer threads: every peer is attacked on three
/// byte-level arms, repeating until STOP.
///
/// 1. **Forged identities** — dial claiming each of `t + 1` *other*
///    replicas (zero-tag handshakes, since the attacker holds none of their
///    keys) and stream poison checkpoint votes for the victim's first
///    slots. An unauthenticated victim counts them toward the `t + 1`
///    checkpoint plurality and commits values no correct replica proposed;
///    an authenticated victim severs the connection at key confirmation,
///    before the forgery can claim the genuine sender's connection epoch.
/// 2. **MAC games** (requires the attacker's own keyring) — a genuine
///    handshake as itself, then a well-formed frame with one tag bit
///    flipped (severed at the MAC check) and a correctly-MAC'd frame over
///    undecodable garbage (severed at the codec — proving the MAC is
///    verified first and the codec still guards behind it).
/// 3. **Replay** — genuine traffic the capture node observed, re-encoded
///    and re-sent under a forged identity.
fn spawn_impersonator_dialers(
    me: ProcessId,
    n: usize,
    t: usize,
    peers: &[SocketAddr],
    auth: Option<Arc<HmacAuthenticator>>,
    captured: CaptureHandle<Msg>,
    stop_flag: Arc<AtomicBool>,
) {
    for (victim, &addr) in peers.iter().enumerate() {
        if victim == me.index() {
            continue;
        }
        // `t + 1` identities the attacker holds no keys for — never the
        // victim's own id (the handshake refuses that outright, keys or
        // not, so it would test nothing).
        let claims: Vec<ProcessId> = (0..n)
            .filter(|&p| p != victim && p != me.index())
            .take(t + 1)
            .map(ProcessId::new)
            .collect();
        let auth = auth.clone();
        let captured = Arc::clone(&captured);
        let stop_flag = Arc::clone(&stop_flag);
        std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop_flag.load(Ordering::Relaxed) {
                let forging = round < FORGERY_ROUNDS;
                // Arm 1: forged hellos carrying poison checkpoint votes.
                for &claim in claims.iter().filter(|_| forging) {
                    if let Ok(mut s) = TcpStream::connect_timeout(&addr, Duration::from_millis(250))
                    {
                        let mut bytes = forged_hello(claim, n as u32);
                        for slot in 1..=POISON_SLOTS {
                            let poison: Msg = SmrMsg::Checkpoint {
                                slot,
                                value: Batch(vec![POISON_COMMAND]),
                            };
                            encode_frame(&poison, &mut bytes, DEFAULT_MAX_FRAME)
                                .expect("a one-command poison batch fits any cap");
                        }
                        let _ = s.write_all(&bytes);
                    }
                }
                // Arm 2: MAC games under the attacker's own identity —
                // both shapes every round, each on its own connection
                // (each costs the attacker that connection), so even the
                // shortest run sees a MAC-severed *and* a codec-severed
                // stream.
                if let Some(auth) = &auth {
                    let to = ProcessId::new(victim);
                    let shapes = [
                        tampered_frame(&round.to_le_bytes(), auth.as_ref(), to),
                        tagged_frame(&[0xFF; 9], auth.as_ref(), to),
                    ];
                    for frame in shapes {
                        if let Ok(mut s) =
                            TcpStream::connect_timeout(&addr, Duration::from_millis(250))
                        {
                            let mut bytes =
                                Hello::authenticated(n as u32, auth.as_ref(), to).encode();
                            bytes.extend_from_slice(&frame);
                            let _ = s.write_all(&bytes);
                        }
                    }
                }
                // Arm 3: replay captured genuine traffic, forged sender.
                let replay: Vec<Msg> = if forging {
                    let seen = captured.lock().expect("capture transcript poisoned");
                    seen.iter().rev().take(8).map(|(_, m)| m.clone()).collect()
                } else {
                    Vec::new()
                };
                if !replay.is_empty() {
                    if let Ok(mut s) = TcpStream::connect_timeout(&addr, Duration::from_millis(250))
                    {
                        let mut bytes = forged_hello(claims[0], n as u32);
                        for msg in &replay {
                            let _ = encode_frame(msg, &mut bytes, DEFAULT_MAX_FRAME);
                        }
                        let _ = s.write_all(&bytes);
                    }
                }
                round += 1;
                std::thread::sleep(Duration::from_millis(15));
            }
        });
    }
}

/// The byte-level arm of the flooder: dials every peer and writes garbage
/// in both shapes the reader must survive — a valid handshake followed by
/// an undecodable frame, and a connection that fails the handshake
/// outright. Repeats until stopped.
fn spawn_garbage_dialers(
    me: ProcessId,
    n: usize,
    peers: &[SocketAddr],
    stop_flag: Arc<AtomicBool>,
) {
    for (peer, &addr) in peers.iter().enumerate() {
        if peer == me.index() {
            continue;
        }
        let stop_flag = Arc::clone(&stop_flag);
        std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop_flag.load(Ordering::Relaxed) {
                // Shape 1: honest handshake, garbage frame — must cost this
                // connection a decode-disconnect on the receiver.
                if let Ok(mut s) = TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
                    let mut bytes = Hello::new(me, n as u32).encode();
                    bytes.extend_from_slice(&8u32.to_le_bytes());
                    bytes.extend_from_slice(&round.to_le_bytes()); // bogus tag byte first
                    bytes[minsync_wire::HELLO_LEN + 4] = 0xFF;
                    let _ = s.write_all(&bytes);
                }
                // Shape 2: a foreign protocol — must be rejected at the
                // handshake.
                if let Ok(mut s) = TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
                    let mut junk = *b"GET / HTTP/1.1\r\n";
                    junk[15] = WIRE_VERSION as u8; // vary the bytes a little
                    let _ = s.write_all(&junk);
                }
                round += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
        });
    }
}
