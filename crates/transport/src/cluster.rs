//! Localhost cluster orchestration: spawn `n` `minsync-node` OS processes,
//! bootstrap their port assignments over a stdin/stdout control pipe, and
//! collect per-replica committed-log digests and latency statistics.
//!
//! The bootstrap avoids fixed ports entirely (parallel test runs never
//! collide): every child binds `127.0.0.1:0`, reports the kernel-assigned
//! port as a `PORT <p>` control line, the orchestrator gathers all `n`
//! ports and writes one `PEERS <addr0> … <addrN−1>` line back to every
//! child, and only then does the mesh start dialing. When a correct child
//! drains its workload it emits its statistics block (ending in `DONE`) but
//! **keeps serving** — laggards may still need its acks and checkpoints —
//! until the orchestrator broadcasts `STOP` (or closes the pipe), at which
//! point the child tears its mesh down and exits. Byzantine children never
//! report; they run until `STOP`.
//!
//! The control-line grammar lives in [`control`], shared with the
//! `minsync-node` binary so the two sides cannot drift.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use minsync_auth::HmacAuthenticator;
use minsync_telemetry::{watch_name, Snapshot, TimeSeries, SNAPSHOT_FOOTER};
use minsync_types::check::{self, Violation};
use minsync_types::{Fnv1a, ProcessId};
use minsync_workload::ArrivalProcess;

/// How one replica slot behaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Behavior {
    /// An honest replica running the full SMR + workload pipeline.
    Correct,
    /// Byzantine-silent: participates in nothing (occupies a fault slot).
    Silent,
    /// Byzantine-flooding: broadcasts bursts of future-slot protocol spam
    /// *and* dials peers with raw garbage bytes (exercising both the
    /// bounded-buffer and the decode-error-disconnect defenses).
    Flood,
    /// Byzantine-impersonating: dials peers claiming *other* replicas'
    /// identities — forged handshakes carrying poison checkpoint votes,
    /// replays of captured genuine traffic, and (when it holds keys of its
    /// own) MAC games probing the verify-before-decode pipeline. An
    /// unauthenticated cluster accepts the forged streams; an authenticated
    /// one must sever every arm of the attack.
    Impersonate,
}

impl Behavior {
    /// The `--behavior` CLI value.
    pub fn arg(self) -> &'static str {
        match self {
            Behavior::Correct => "correct",
            Behavior::Silent => "silent",
            Behavior::Flood => "flood",
            Behavior::Impersonate => "impersonate",
        }
    }

    /// Parses a `--behavior` CLI value.
    pub fn parse(s: &str) -> Option<Behavior> {
        match s {
            "correct" => Some(Behavior::Correct),
            "silent" => Some(Behavior::Silent),
            "flood" => Some(Behavior::Flood),
            "impersonate" => Some(Behavior::Impersonate),
            _ => None,
        }
    }
}

/// Control-pipe line grammar shared by the orchestrator and `minsync-node`.
pub mod control {
    /// Child → parent: "my listener is bound on this port".
    pub const PORT: &str = "PORT";
    /// Parent → child: the full space-separated peer address list.
    pub const PEERS: &str = "PEERS";
    /// Parent → child: drop all outbound traffic to the listed peer ids
    /// (replacing any previous `PART` set) — the fault-injection verb
    /// behind cluster partitions and rotating isolation.
    pub const PART: &str = "PART";
    /// Parent → child: clear every `PART` rule.
    pub const HEAL: &str = "HEAL";
    /// Parent → child: tear down and exit.
    pub const STOP: &str = "STOP";
    /// Child → parent: end of the statistics block.
    pub const DONE: &str = "DONE";
    /// Child → parent: `SAMPLE <at>` opens one live sample, the `STAT v1`
    /// block that follows, taken at the child's tick `at`.
    pub const SAMPLE: &str = "SAMPLE";
}

/// Serializes an [`ArrivalProcess`] as a CLI argument (`poisson:G`,
/// `bursty:B/P`, `closed:T`).
pub fn arrival_to_arg(a: &ArrivalProcess) -> String {
    match a {
        ArrivalProcess::Poisson { mean_gap } => format!("poisson:{mean_gap}"),
        ArrivalProcess::Bursty { burst, period } => format!("bursty:{burst}/{period}"),
        ArrivalProcess::ClosedLoop { think } => format!("closed:{think}"),
    }
}

/// Parses the [`arrival_to_arg`] encoding.
pub fn parse_arrival(s: &str) -> Option<ArrivalProcess> {
    let (kind, rest) = s.split_once(':')?;
    match kind {
        "poisson" => Some(ArrivalProcess::Poisson {
            mean_gap: rest
                .parse()
                .ok()
                .filter(|g: &f64| g.is_finite() && *g > 0.0)?,
        }),
        "bursty" => {
            let (burst, period) = rest.split_once('/')?;
            Some(ArrivalProcess::Bursty {
                burst: burst.parse().ok().filter(|b: &usize| *b > 0)?,
                period: period.parse().ok()?,
            })
        }
        "closed" => Some(ArrivalProcess::ClosedLoop {
            think: rest.parse().ok()?,
        }),
        _ => None,
    }
}

/// FNV-1a over a committed log: each entry hashed as
/// `(slot, batch length, commands…)`. Two replicas report equal digests iff
/// they committed identical batches to identical slots — the cluster-wide
/// agreement check, compressed to eight bytes per replica so it fits a
/// control line.
#[derive(Clone, Copy, Debug, Default)]
pub struct LogDigest(Fnv1a);

impl LogDigest {
    /// An empty-log digest.
    pub fn new() -> Self {
        LogDigest(Fnv1a::new())
    }

    /// Folds one committed `(slot, commands)` entry into the digest (call
    /// in commit order).
    pub fn fold_slot(&mut self, slot: u64, commands: &[u64]) {
        self.0.write_u64(slot);
        self.0.write_u64(commands.len() as u64);
        for &cmd in commands {
            self.0.write_u64(cmd);
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0.finish()
    }
}

/// Everything needed to spawn one cluster.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// System size.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// Workload routing groups `m` (use 1 for digest-comparable logs).
    pub groups: usize,
    /// Client streams per group.
    pub clients_per_group: usize,
    /// Commands per client.
    pub commands_per_client: usize,
    /// Batch cap of the proposal sources.
    pub batch: usize,
    /// Arrival process of every client.
    pub arrivals: ArrivalProcess,
    /// Cluster seed (workload generation and derived per-replica streams).
    pub seed: u64,
    /// Behaviors for the top replica ids: `riders[k]` is replica
    /// `n − riders.len() + k`; all lower ids are correct.
    pub riders: Vec<Behavior>,
    /// Authenticate the mesh: a dealer keyed off `seed` hands every child
    /// its pairwise-MAC keyring (`--auth-keys`), and each child MACs its
    /// handshake and every frame. Riders receive their *own* genuine
    /// keyring — a corrupt replica legitimately holds its keys; what it
    /// must not hold is anyone else's.
    pub auth: bool,
    /// Wall-clock duration of one virtual tick inside each child.
    pub tick: Duration,
    /// Per-child wall-clock cap.
    pub child_timeout: Duration,
    /// Orchestrator-side cap on the whole cluster run.
    pub harness_timeout: Duration,
    /// Override the SMR pipelining window (`SmrLimits::window`) of every
    /// correct child; `None` keeps the crate default. `Some(1)` serializes
    /// the log — one slot must commit before the next starts — which is
    /// the baseline the E16 pipelining comparison measures against.
    pub window: Option<u64>,
    /// Hand every correct child a `--trace` path inside this directory
    /// (`trace-<id>.jsonl`): the mesh + SMR trace ring is dumped there
    /// when the child stops, ready for `minsync-trace` or the
    /// `minsync-telemetry` analyzer. `None` disables tracing (and its
    /// cost) entirely.
    pub trace_dir: Option<PathBuf>,
    /// Ask every correct child for live samples (`SAMPLE <at>` plus a
    /// `STAT v1` block) at this wall-clock period (`--stats-period`); the
    /// orchestrator parses them into each [`ReplicaStats::series`] and the
    /// children run their local watchdogs over the same snapshots. `None`
    /// keeps the control pipe quiet until the final report.
    pub stats_period: Option<Duration>,
}

/// `minsync-node`'s own flag defaults (n = 4, t = 1, one group of 2 clients
/// × 8 commands, batch 8, Poisson arrivals, 200 µs ticks) with a 60 s child
/// and a 120 s orchestrator cap — write `ClusterSpec { <what differs>,
/// ..ClusterSpec::default() }`.
impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            n: 4,
            t: 1,
            groups: 1,
            clients_per_group: 2,
            commands_per_client: 8,
            batch: 8,
            arrivals: ArrivalProcess::Poisson { mean_gap: 2.0 },
            seed: 1,
            riders: Vec::new(),
            auth: false,
            tick: Duration::from_micros(200),
            child_timeout: Duration::from_secs(60),
            harness_timeout: Duration::from_secs(120),
            window: None,
            trace_dir: None,
            stats_period: None,
        }
    }
}

impl ClusterSpec {
    /// Total client commands the workload will submit.
    pub fn total_commands(&self) -> usize {
        self.groups * self.clients_per_group * self.commands_per_client
    }

    /// Number of correct replicas (`n` minus the rider slots).
    pub fn correct(&self) -> usize {
        self.n - self.riders.len()
    }
}

/// One correct replica's report, parsed off its control pipe.
#[derive(Clone, Debug)]
pub struct ReplicaStats {
    /// Replica id.
    pub id: usize,
    /// Client commands committed.
    pub committed: usize,
    /// Log slots committed (including no-op batches).
    pub slots: u64,
    /// Committed-log digest ([`LogDigest`]).
    pub digest: u64,
    /// Wall-clock time from mesh start to workload drain.
    pub wall: Duration,
    /// Latency sample size.
    pub lat_count: usize,
    /// Submit→commit latency percentiles, in virtual ticks.
    pub lat_p50: u64,
    /// 95th percentile, ticks.
    pub lat_p95: u64,
    /// 99th percentile, ticks.
    pub lat_p99: u64,
    /// Mean latency, ticks.
    pub lat_mean: f64,
    /// The child's full metrics snapshot (`STAT v1`): the `node.*` gauges
    /// the summary fields above were extracted from, and every transport
    /// and SMR counter — `mesh.outbound_dropped.p<i>`,
    /// `mesh.decode_disconnects`, `mesh.handshake_rejects`,
    /// `mesh.auth_rejects`, `smr.future_drops`, `smr.retired_drops`, … —
    /// by name.
    pub snapshot: Snapshot,
    /// The child's live samples ([`ClusterSpec::stats_period`]; empty
    /// without one): each point is its whole registry snapshot at one
    /// sampling instant, in [`snapshot`](Self::snapshot)'s format — ready
    /// for [`minsync_telemetry::Watchdog::observe`] replay or
    /// detection-latency measurement.
    pub series: TimeSeries,
}

/// Result of one cluster run: every *correct* replica's stats.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Per-correct-replica statistics, ordered by id.
    pub replicas: Vec<ReplicaStats>,
    /// Total commands the workload submitted.
    pub total_commands: usize,
    /// Orchestrator-side wall-clock for the whole run (spawn to reap).
    pub elapsed: Duration,
    /// When each [`ChurnPlan`] step fired, from the bootstrap broadcast
    /// (empty without a plan).
    pub fired: Vec<Duration>,
    /// When each correct replica (by id) reported its drain, on the same
    /// clock as [`fired`](Self::fired). Unlike [`ReplicaStats::wall`],
    /// which a restarted replica starts again, this spans its outage.
    pub drained: Vec<Duration>,
}

impl ClusterReport {
    /// Every way this run falls short of "the cluster agreed and drained",
    /// through [`minsync_types::check`]: [`check::agreement`] over the
    /// `(id, digest)` pairs, one entry listing them all (digests in hex) if
    /// two differ, and [`check::termination`] over `(id, committed)`
    /// against [`total_commands`](Self::total_commands), one entry per
    /// replica that committed another count. Empty on a good run.
    pub fn violations(&self) -> Vec<Violation> {
        let id = |r: &ReplicaStats| ProcessId::new(r.id);
        let digests = self
            .replicas
            .iter()
            .map(|r| (id(r), format!("{:016x}", r.digest)));
        let mut found = check::agreement(digests);
        let committed = self.replicas.iter().map(|r| (id(r), r.committed));
        let ids = self.replicas.iter().map(id);
        found.extend(check::termination(ids, committed, &self.total_commands));
        found
    }

    /// When the last correct replica reported its drain, from the
    /// bootstrap broadcast ([`drained`](Self::drained)).
    pub fn last_drain(&self) -> Duration {
        self.drained.iter().copied().max().unwrap_or_default()
    }

    /// Every counter whose name starts with `prefix`, summed over the
    /// correct replicas' snapshots (`mesh.outbound_dropped.` sums the
    /// per-peer drops too).
    pub fn sum_counters(&self, prefix: &str) -> u64 {
        let replicas = self.replicas.iter();
        replicas.map(|r| r.snapshot.sum_counters(prefix)).sum()
    }

    /// Cluster throughput in commands per wall-clock second, measured at
    /// the slowest correct replica.
    pub fn cmds_per_sec(&self) -> f64 {
        let slowest = self
            .replicas
            .iter()
            .map(|r| r.wall)
            .max()
            .unwrap_or_default();
        if slowest.is_zero() {
            return 0.0;
        }
        self.total_commands as f64 / slowest.as_secs_f64()
    }
}

/// Why a cluster run failed.
#[derive(Clone, Debug)]
pub enum ClusterError {
    /// The `minsync-node` binary was not found (see [`node_binary`]).
    BinaryMissing(String),
    /// Spawning or piping a child failed.
    Io(String),
    /// A child misbehaved on the control pipe (bad line, early exit).
    Protocol {
        /// Offending replica id.
        id: usize,
        /// What went wrong.
        what: String,
    },
    /// The cluster did not complete within the harness timeout.
    Timeout {
        /// Replica ids that never finished their report.
        pending: Vec<usize>,
    },
    /// A [`ChurnPlan`] cannot run on the spec, or one of its steps never
    /// fired before every correct replica reported.
    Plan(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::BinaryMissing(hint) => write!(f, "minsync-node binary missing: {hint}"),
            ClusterError::Io(e) => write!(f, "cluster io error: {e}"),
            ClusterError::Protocol { id, what } => {
                write!(f, "replica {id} control-pipe violation: {what}")
            }
            ClusterError::Timeout { pending } => {
                write!(f, "cluster timed out; replicas still pending: {pending:?}")
            }
            ClusterError::Plan(what) => write!(f, "churn plan: {what}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Locates the `minsync-node` binary: the `MINSYNC_NODE_BIN` environment
/// variable if set (integration tests point it at `CARGO_BIN_EXE_…`),
/// otherwise a sibling of the current executable (walking a couple of
/// directories up covers `target/<profile>/deps/` test binaries). If
/// neither hits and a `cargo` is available (the `CARGO` environment
/// variable any cargo-launched process inherits, or plain `cargo` on
/// `PATH`), it builds the binary once — matching the running profile — and
/// retries, so `cargo test -p minsync-harness` on a clean target directory
/// does not fail on a bin another crate owns.
///
/// # Errors
///
/// [`ClusterError::BinaryMissing`] with a build hint.
pub fn node_binary() -> Result<PathBuf, ClusterError> {
    if let Ok(path) = std::env::var("MINSYNC_NODE_BIN") {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(ClusterError::BinaryMissing(format!(
            "MINSYNC_NODE_BIN points at {} which does not exist",
            path.display()
        )));
    }
    if let Some(found) = locate_near_current_exe() {
        return Ok(found);
    }
    // Fall back to building it. `current_exe` under `target/release`
    // selects the release profile so cluster perf matches the caller's.
    let release = std::env::current_exe()
        .ok()
        .is_some_and(|exe| exe.components().any(|c| c.as_os_str() == "release"));
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut build = Command::new(cargo);
    build.args(["build", "-p", "minsync-transport", "--bin", "minsync-node"]);
    if release {
        build.arg("--release");
    }
    let built = build
        .status()
        .map(|status| status.success())
        .unwrap_or(false);
    if built {
        if let Some(found) = locate_near_current_exe() {
            return Ok(found);
        }
    }
    Err(ClusterError::BinaryMissing(
        "build it with `cargo build --release -p minsync-transport` (or set MINSYNC_NODE_BIN)"
            .into(),
    ))
}

/// The sibling-of-`current_exe` search `node_binary` uses.
fn locate_near_current_exe() -> Option<PathBuf> {
    let name = format!("minsync-node{}", std::env::consts::EXE_SUFFIX);
    let exe = std::env::current_exe().ok()?;
    exe.ancestors()
        .skip(1)
        .take(3)
        .map(|dir| dir.join(&name))
        .find(|candidate| candidate.is_file())
}

/// Kill-on-drop guard: whatever goes wrong in the orchestrator, no child
/// process outlives it.
struct Reaper(Vec<Child>);

impl Drop for Reaper {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One line read off a child's stdout, or its EOF marker.
enum ChildLine {
    Line(usize, String),
    Eof(usize),
}

/// Collects per-child live samples out of the control-pipe line stream:
/// a `SAMPLE <at>` line and every line after it up to `END STAT`. Sample
/// lines are consumed here — they must not leak into the statistics
/// blocks — and collection is best-effort: a sample with a bad stamp or a
/// malformed block is dropped rather than failing the run, since the
/// samples are telemetry, not protocol.
struct StreamAssembler {
    series: Vec<TimeSeries>,
    /// Per child, the open sample: its stamp (`None` if unparseable) and
    /// the block's text so far.
    partial: Vec<Option<(Option<u64>, String)>>,
}

impl StreamAssembler {
    fn new(n: usize) -> StreamAssembler {
        StreamAssembler {
            series: (0..n).map(|_| TimeSeries::with_capacity(4096)).collect(),
            partial: vec![None; n],
        }
    }

    /// Routes one control line; true iff it belonged to a sample.
    fn consume(&mut self, id: usize, line: &str) -> bool {
        if let Some((at, text)) = &mut self.partial[id] {
            text.push_str(line);
            text.push('\n');
            if line.trim() == SNAPSHOT_FOOTER {
                if let (Some(at), Ok(values)) = (*at, Snapshot::parse(text)) {
                    self.series[id].push(at, values);
                }
                self.partial[id] = None;
            }
            true
        } else if let Some(stamp) = line.strip_prefix(control::SAMPLE) {
            self.partial[id] = Some((stamp.trim().parse().ok(), String::new()));
            true
        } else {
            false
        }
    }

    /// Discards a killed child's samples, a torn one included: the
    /// restarted incarnation's clock starts again at zero, so its series
    /// starts afresh.
    fn reset(&mut self, id: usize) {
        self.series[id] = TimeSeries::with_capacity(4096);
        self.partial[id] = None;
    }

    /// Moves a child's finished series out.
    fn take(&mut self, id: usize) -> TimeSeries {
        std::mem::replace(&mut self.series[id], TimeSeries::with_capacity(1))
    }
}

/// Spawns and runs one localhost cluster to completion (see the module
/// docs for the bootstrap protocol).
///
/// # Errors
///
/// [`ClusterError`] if the binary is missing, a child dies or violates the
/// control protocol, or the run exceeds [`ClusterSpec::harness_timeout`].
pub fn run_cluster(spec: &ClusterSpec) -> Result<ClusterReport, ClusterError> {
    orchestrate(spec, None)
}

/// Phase-4 tail drain: a sampled child prints one closing sample on its
/// way out — *after* phase 3 stopped routing at `DONE` — so the reader
/// threads still hold sample lines when the reaping finishes. Drain until
/// every pipe has delivered the EOFs it owes (best effort,
/// deadline-bounded: samples are telemetry, never worth failing a run
/// over), so each series ends at the replica's drained state.
fn drain_stream_tail(
    line_rx: &Receiver<ChildLine>,
    streams: &mut StreamAssembler,
    mut eofs_owed: Vec<usize>,
) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while eofs_owed.iter().any(|&owed| owed > 0) {
        match line_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(ChildLine::Line(id, line)) => {
                streams.consume(id, &line);
            }
            Ok(ChildLine::Eof(id)) => eofs_owed[id] = eofs_owed[id].saturating_sub(1),
            Err(_) => break,
        }
    }
}

/// One mid-run disruption in a [`ChurnPlan`].
#[derive(Clone, Debug)]
pub enum ChurnAction {
    /// Install a full bidirectional partition: every replica in `side`
    /// drops outbound traffic to every replica outside it and vice versa
    /// (each live child gets the `PART` rule for the complement of its own
    /// side).
    Partition {
        /// Replica ids on one side of the cut.
        side: Vec<usize>,
    },
    /// Clear every partition rule on every live replica.
    Heal,
    /// Kill a replica outright (SIGKILL) — a crash fault, no goodbye.
    Kill {
        /// Replica to kill.
        id: usize,
    },
    /// Respawn a previously killed replica on its original port with the
    /// peer list preloaded; it replays its committed prefix from its
    /// write-ahead log and catches the tail over the checkpoint path.
    Restart {
        /// Replica to restart.
        id: usize,
    },
}

/// When a [`ChurnStep`] fires. A step is armed once the step before it
/// has fired (the first one at the bootstrap broadcast, the moment every
/// child has received `PEERS`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Once replica `replica` has committed slot `slot`, so the fault
    /// lands mid-log however fast the protocol runs. A cluster reads the
    /// live `watch.p<i>.commit_floor` samples of a correct `replica`.
    Floor {
        /// The observing replica.
        replica: usize,
        /// The slot it must have committed.
        slot: u64,
    },
    /// This many ticks after the previous step fired (`d ×`
    /// [`ClusterSpec::tick`] on a cluster): for spans meant to be timed.
    Ticks(u32),
}

/// A [`ChurnAction`] and the [`Trigger`] that fires it.
#[derive(Clone, Debug)]
pub struct ChurnStep {
    /// When to act.
    pub at: Trigger,
    /// What to do.
    pub action: ChurnAction,
}

/// A scripted sequence of disruptions, executed in order while the
/// cluster works through its workload: by [`run_churn_cluster`] over
/// processes, and by the simulator harness in virtual time. A step that
/// never fires fails the run.
#[derive(Clone, Debug, Default)]
pub struct ChurnPlan {
    /// The scheduled steps.
    pub steps: Vec<ChurnStep>,
}

impl ChurnPlan {
    /// An empty plan (a churn run with no disruptions).
    pub fn new() -> ChurnPlan {
        ChurnPlan::default()
    }

    /// Appends one step, builder-style.
    #[must_use]
    pub fn step(mut self, at: Trigger, action: ChurnAction) -> ChurnPlan {
        self.steps.push(ChurnStep { at, action });
        self
    }
}

/// Checkpoint-retry period (node ticks) passed to every child of a churn
/// run via `--ckpt-retry`: a partition really loses frames at the fault
/// switch, so the replicas must run the lossy-link repair
/// (`SmrLimits::ckpt_retry` in `minsync-smr`) or a single dropped
/// state-transfer reply wedges a laggard forever. 100 ticks ≈ 20 ms at
/// the default 200 µs tick. Plain [`run_cluster`] children leave it off:
/// loss-free runs keep the exact default-trace behavior (and their drop
/// counters stay zero — the repair's ack re-broadcasts would otherwise
/// retire slots fast enough for honest late instance traffic to land on
/// retired slots).
const CHURN_CKPT_RETRY: u64 = 100;

/// Like [`run_cluster`], but executes a scripted [`ChurnPlan`] of
/// partitions, heals, crashes, and recoveries while the cluster runs.
///
/// Every correct replica is handed a write-ahead log in a per-run temp
/// directory, so a [`ChurnAction::Restart`] recovers the victim's committed
/// prefix from disk and catches the tail over the checkpoint path; its
/// fresh report (digest included) covers the recovered log, which is how
/// E13 asserts a rejoiner ends byte-identical to the replicas that never
/// crashed. Details worth knowing when writing plans:
///
/// * A plan that kills a correct replica must also restart it, or the run
///   times out waiting for the victim's report.
/// * A [`Trigger::Floor`] fires on the first live sample at or past its
///   slot, up to one [`ClusterSpec::stats_period`] late. Name an observer
///   the step does not cut off, unless the point is to cut the observer
///   at its own floor; [`ClusterReport::fired`] says when each step fired.
/// * Restarted children come back with an empty partition set; if a
///   partition is active at restart time the orchestrator re-sends the
///   matching `PART` rule.
///
/// # Errors
///
/// As [`run_cluster`], plus [`ClusterError::Plan`] if a
/// [`Trigger::Floor`] step lacks [`ClusterSpec::stats_period`] or a
/// correct observer (checked before anything is spawned), or a step has
/// not fired when every correct replica has reported: a fault that lands
/// after the drain tests nothing.
pub fn run_churn_cluster(
    spec: &ClusterSpec,
    plan: &ChurnPlan,
) -> Result<ClusterReport, ClusterError> {
    orchestrate(spec, Some(plan))
}

/// The one orchestrator behind [`run_cluster`] and [`run_churn_cluster`].
/// Without a plan the run is loss-free: no write-ahead logs, the checkpoint
/// retry off, and nothing scheduled between bootstrap and the reports.
fn orchestrate(
    spec: &ClusterSpec,
    plan: Option<&ChurnPlan>,
) -> Result<ClusterReport, ClusterError> {
    assert!(
        spec.riders.len() <= spec.t,
        "riders must fit the fault bound"
    );
    assert!(spec.correct() >= 1, "need at least one correct replica");
    let blind = |s: &&ChurnStep| match s.at {
        Trigger::Floor { replica, .. } => spec.stats_period.is_none() || replica >= spec.correct(),
        Trigger::Ticks(_) => false,
    };
    if let Some(step) = plan.and_then(|p| p.steps.iter().find(blind)) {
        let what = format!("{step:?} needs stats_period and a correct observer");
        return Err(ClusterError::Plan(what));
    }
    let bin = node_binary()?;
    let start = Instant::now();
    let deadline = start + spec.harness_timeout;

    // Each churn run gets its own WAL directory (removed on exit, success
    // or not); the sequence number keeps parallel runs in one process apart.
    static CHURN_DIR_SEQ: AtomicU64 = AtomicU64::new(0);
    let wal_dir = plan
        .map(|_| {
            TempDir::create(std::env::temp_dir().join(format!(
                "minsync-churn-{}-{}",
                std::process::id(),
                CHURN_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            )))
        })
        .transpose()?;
    let wal_path = |id: usize| {
        let dir = wal_dir.as_ref().filter(|_| id < spec.correct())?;
        Some(dir.0.join(format!("wal-{id}.log")))
    };
    let ckpt_retry = if plan.is_some() { CHURN_CKPT_RETRY } else { 0 };

    // The trusted dealer: pairwise MAC keys derived from the cluster seed,
    // serialized per replica so each child only ever sees its own keyring.
    let keyrings = spec.auth.then(|| {
        let master = cluster_master(spec.seed);
        HmacAuthenticator::deal(&master, spec.n)
    });
    let auth_hex = |id: usize| keyrings.as_ref().map(|k| k[id].to_hex());

    // Spawn every child with a piped control pipe.
    let mut children = Vec::with_capacity(spec.n);
    for id in 0..spec.n {
        let cfg = ChildConfig {
            id,
            behavior: behavior_of(spec, id),
            auth_hex: auth_hex(id),
            listen: "127.0.0.1:0".into(),
            peers: None,
            wal: wal_path(id),
            ckpt_retry,
        };
        children.push(spawn_replica(&bin, spec, &cfg)?);
    }

    // One reader thread per child funnels control lines into a channel, so
    // the orchestrator never blocks on a single quiet pipe.
    let (line_tx, line_rx) = channel::<ChildLine>();
    let mut stdins: Vec<Option<ChildStdin>> = Vec::with_capacity(spec.n);
    for (id, child) in children.iter_mut().enumerate() {
        stdins.push(Some(attach_reader(id, child, &line_tx)));
    }
    // `line_tx` stays alive: restarted children clone it for their reader
    // threads. Liveness comes from the deadline, not channel disconnect.
    let mut reaper = Reaper(children);

    // Phase 1: gather every child's kernel-assigned port.
    let mut ports: BTreeMap<usize, u16> = BTreeMap::new();
    let mut pending_lines: Vec<Vec<String>> = vec![Vec::new(); spec.n];
    while ports.len() < spec.n {
        if Instant::now() >= deadline {
            return Err(ClusterError::Timeout {
                pending: (0..spec.n).filter(|id| !ports.contains_key(id)).collect(),
            });
        }
        let Some(line) = recv_line(&line_rx, deadline)? else {
            continue;
        };
        match line {
            ChildLine::Line(id, line) => {
                if let Some(port) = line
                    .strip_prefix(control::PORT)
                    .and_then(|r| r.trim().parse::<u16>().ok())
                {
                    ports.insert(id, port);
                } else {
                    pending_lines[id].push(line);
                }
            }
            ChildLine::Eof(id) => {
                // Fail fast with the child's exit status rather than
                // letting the caller wait out the harness deadline. Name
                // the phase honestly: the victim may already have spoken.
                let when = if ports.contains_key(&id) {
                    "right after announcing its port"
                } else {
                    "before announcing its port"
                };
                return Err(ClusterError::Protocol {
                    id,
                    what: format!("exited {when} ({})", exit_status_of(&mut reaper.0[id])),
                });
            }
        }
    }

    // Phase 2: hand everyone the full peer list; the moment the last child
    // has it is the epoch that arms the plan's first step.
    let addrs: Vec<String> = (0..spec.n)
        .map(|id| format!("127.0.0.1:{}", ports[&id]))
        .collect();
    let peer_line = format!("{} {}\n", control::PEERS, addrs.join(" "));
    for (id, slot) in stdins.iter_mut().enumerate() {
        let stdin = slot.as_mut().expect("all children alive at bootstrap");
        if let Err(e) = stdin
            .write_all(peer_line.as_bytes())
            .and_then(|()| stdin.flush())
        {
            // A broken pipe here means the child died *after* announcing
            // its port; name the victim rather than reporting a generic
            // io error (or worse, timing out in phase 3).
            return Err(ClusterError::Protocol {
                id,
                what: format!(
                    "closed its control pipe before taking the peer list: {e} ({})",
                    exit_status_of(&mut reaper.0[id])
                ),
            });
        }
    }
    let epoch = Instant::now();

    // Phase 3: collect every correct replica's statistics block, routing
    // live samples into per-child series as they arrive and interleaving
    // the plan's steps.
    let steps = plan.map_or(&[][..], |p| &p.steps);
    // When the last step fired (the epoch before the first), and each
    // step's offset from the epoch.
    let mut last_fired = epoch;
    let mut fired = Vec::with_capacity(steps.len());
    let mut killed = vec![false; spec.n];
    // Killed incarnations owe the channel one EOF each; count them so a
    // stale EOF (or a stale line racing it) is never blamed on — or mixed
    // into the report of — the restarted incarnation.
    let mut stale_eofs = vec![0usize; spec.n];
    // EOFs of children that legitimately exited ahead of phase 4 (a done or
    // Byzantine process dying early) — already delivered, so not owed.
    let mut early_eofs = vec![0usize; spec.n];
    let mut partition: Option<Vec<usize>> = None;
    let mut blocks: Vec<Vec<String>> = pending_lines;
    let mut streams = StreamAssembler::new(spec.n);
    let mut done = vec![false; spec.n];
    let mut drained = vec![Duration::ZERO; spec.correct()];

    while (0..spec.correct()).any(|id| !done[id]) {
        // Fire every step whose trigger holds, in plan order.
        while let Some(step) = steps.get(fired.len()) {
            let ready = match step.at {
                // The floor in the replica's latest sample.
                Trigger::Floor { replica, slot } => {
                    let latest = streams.series[replica].latest();
                    let name = watch_name(replica, "commit_floor");
                    latest.and_then(|p| p.values.gauge(&name)) >= Some(slot)
                }
                Trigger::Ticks(d) => Instant::now() >= last_fired + spec.tick * d,
            };
            if !ready {
                break;
            }
            last_fired = Instant::now();
            fired.push(last_fired - epoch);
            match &step.action {
                ChurnAction::Partition { side } => {
                    for (id, stdin) in stdins.iter_mut().enumerate() {
                        send_part(stdin, id, side, spec.n);
                    }
                    partition = Some(side.clone());
                }
                ChurnAction::Heal => {
                    for stdin in stdins.iter_mut().flatten() {
                        let _ = stdin
                            .write_all(format!("{}\n", control::HEAL).as_bytes())
                            .and_then(|()| stdin.flush());
                    }
                    partition = None;
                }
                &ChurnAction::Kill { id } => {
                    assert!(!killed[id], "churn plan killed replica {id} twice");
                    killed[id] = true;
                    stale_eofs[id] += 1;
                    done[id] = false;
                    blocks[id].clear();
                    streams.reset(id);
                    stdins[id] = None;
                    let _ = reaper.0[id].kill();
                    let _ = reaper.0[id].wait();
                }
                &ChurnAction::Restart { id } => {
                    assert!(killed[id], "churn plan restarted live replica {id}");
                    let cfg = ChildConfig {
                        id,
                        behavior: behavior_of(spec, id),
                        auth_hex: auth_hex(id),
                        // SO_REUSEADDR (std sets it on Unix) lets the
                        // rejoiner re-bind the port its peers still dial.
                        listen: format!("127.0.0.1:{}", ports[&id]),
                        peers: Some(addrs.join(",")),
                        wal: wal_path(id),
                        ckpt_retry,
                    };
                    let mut child = spawn_replica(&bin, spec, &cfg)?;
                    stdins[id] = Some(attach_reader(id, &mut child, &line_tx));
                    reaper.0[id] = child;
                    killed[id] = false;
                    if let Some(side) = &partition {
                        send_part(&mut stdins[id], id, side, spec.n);
                    }
                }
            }
        }

        // Sleep until a pipe speaks, the next step comes due, or the
        // deadline — whichever is first.
        if Instant::now() >= deadline {
            return Err(ClusterError::Timeout {
                pending: (0..spec.correct()).filter(|&id| !done[id]).collect(),
            });
        }
        let wake = match steps.get(fired.len()).map(|s| s.at) {
            Some(Trigger::Ticks(d)) => last_fired + spec.tick * d,
            _ => deadline,
        };
        match recv_line(&line_rx, wake.min(deadline))? {
            Some(ChildLine::Line(id, line)) => {
                if stale_eofs[id] > 0 {
                    // Tail output of a killed incarnation still draining.
                } else if streams.consume(id, &line) {
                    // A sample line, absorbed into the series.
                } else if line.trim() == control::DONE {
                    done[id] = true;
                    if let Some(at) = drained.get_mut(id) {
                        *at = epoch.elapsed();
                    }
                } else if line.starts_with(control::PORT) {
                    // A restarted child re-announces its (unchanged) port.
                } else {
                    blocks[id].push(line);
                }
            }
            Some(ChildLine::Eof(id)) => {
                if stale_eofs[id] > 0 {
                    stale_eofs[id] -= 1;
                } else if done[id] || killed[id] || id >= spec.correct() {
                    early_eofs[id] += 1;
                } else {
                    return Err(ClusterError::Protocol {
                        id,
                        what: format!(
                            "exited before finishing its report ({})",
                            exit_status_of(&mut reaper.0[id])
                        ),
                    });
                }
            }
            None => {}
        }
    }
    drop(line_tx);
    if let Some(step) = steps.get(fired.len()) {
        return Err(ClusterError::Plan(format!(
            "step {} ({step:?}) never fired: every correct replica reported first",
            fired.len()
        )));
    }

    // Phase 4: everyone has reported — release the cluster.
    for stdin in stdins.iter_mut().flatten() {
        let _ = stdin.write_all(format!("{}\n", control::STOP).as_bytes());
        let _ = stdin.flush();
    }
    drop(stdins); // EOF doubles as STOP for children that missed the line
    for child in reaper.0.iter_mut() {
        let grace = Instant::now() + Duration::from_secs(5);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < grace => std::thread::sleep(Duration::from_millis(10)),
                _ => break, // Byzantine or wedged: the reaper's kill handles it
            }
        }
    }
    // Each live incarnation owes one EOF, plus whatever stale EOFs of
    // killed incarnations are still in flight.
    let eofs_owed = (0..spec.n)
        .map(|id| (stale_eofs[id] + usize::from(!killed[id])).saturating_sub(early_eofs[id]))
        .collect();
    drain_stream_tail(&line_rx, &mut streams, eofs_owed);

    let mut replicas = Vec::with_capacity(spec.correct());
    for (id, block) in blocks.iter().enumerate().take(spec.correct()) {
        let mut stats = parse_stats(id, block)?;
        stats.series = streams.take(id);
        replicas.push(stats);
    }
    Ok(ClusterReport {
        replicas,
        total_commands: spec.total_commands(),
        elapsed: start.elapsed(),
        fired,
        drained,
    })
}

/// Writes the `PART` rule replica `id` needs under a full bipartition:
/// members of `side` block the complement; everyone else blocks `side`.
/// Best effort — a dying child's broken pipe is not an orchestrator error.
fn send_part(stdin: &mut Option<ChildStdin>, id: usize, side: &[usize], n: usize) {
    let Some(stdin) = stdin.as_mut() else { return };
    let blocked: Vec<String> = if side.contains(&id) {
        (0..n)
            .filter(|p| !side.contains(p))
            .map(|p| p.to_string())
            .collect()
    } else {
        side.iter().map(|p| p.to_string()).collect()
    };
    let line = format!("{} {}\n", control::PART, blocked.join(" "));
    let _ = stdin
        .write_all(line.as_bytes())
        .and_then(|()| stdin.flush());
}

/// The behavior of replica `id` under `spec` (riders occupy the top ids).
fn behavior_of(spec: &ClusterSpec, id: usize) -> Behavior {
    if id >= spec.correct() {
        spec.riders[id - spec.correct()]
    } else {
        Behavior::Correct
    }
}

/// Per-child variations on the shared CLI: fresh children bind port 0 and
/// learn their peers over stdin; restarted children re-bind their old
/// port, take the peer list up front, and reopen their write-ahead log.
struct ChildConfig {
    id: usize,
    behavior: Behavior,
    auth_hex: Option<String>,
    listen: String,
    peers: Option<String>,
    wal: Option<PathBuf>,
    ckpt_retry: u64,
}

/// Spawns one `minsync-node` child with a piped control pipe.
fn spawn_replica(bin: &Path, spec: &ClusterSpec, cfg: &ChildConfig) -> Result<Child, ClusterError> {
    let mut command = Command::new(bin);
    if let Some(hex) = &cfg.auth_hex {
        command.arg("--auth-keys").arg(hex);
    }
    if let Some(peers) = &cfg.peers {
        command.arg("--peers").arg(peers);
    }
    if let Some(wal) = &cfg.wal {
        command.arg("--wal").arg(wal);
    }
    if cfg.ckpt_retry > 0 {
        command.arg("--ckpt-retry").arg(cfg.ckpt_retry.to_string());
    }
    if cfg.behavior == Behavior::Correct {
        if let Some(window) = spec.window {
            command.arg("--window").arg(window.to_string());
        }
        if let Some(period) = spec.stats_period {
            command
                .arg("--stats-period")
                .arg(period.as_millis().max(1).to_string());
        }
        if let Some(dir) = &spec.trace_dir {
            command
                .arg("--trace")
                .arg(dir.join(format!("trace-{}.jsonl", cfg.id)));
        }
    }
    command
        .arg("--id")
        .arg(cfg.id.to_string())
        .arg("--n")
        .arg(spec.n.to_string())
        .arg("--t")
        .arg(spec.t.to_string())
        .arg("--groups")
        .arg(spec.groups.to_string())
        .arg("--clients")
        .arg(spec.clients_per_group.to_string())
        .arg("--commands")
        .arg(spec.commands_per_client.to_string())
        .arg("--batch")
        .arg(spec.batch.to_string())
        .arg("--arrival")
        .arg(arrival_to_arg(&spec.arrivals))
        .arg("--seed")
        .arg(spec.seed.to_string())
        .arg("--behavior")
        .arg(cfg.behavior.arg())
        .arg("--tick-us")
        .arg(spec.tick.as_micros().to_string())
        .arg("--timeout-ms")
        .arg(spec.child_timeout.as_millis().to_string())
        .arg("--listen")
        .arg(&cfg.listen)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| ClusterError::Io(format!("spawning replica {}: {e}", cfg.id)))
}

/// Takes a freshly spawned child's pipes: its stdout gets a funnel thread
/// feeding `tx`, and its stdin comes back to the caller for control writes.
fn attach_reader(id: usize, child: &mut Child, tx: &Sender<ChildLine>) -> ChildStdin {
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let tx = tx.clone();
    std::thread::spawn(move || {
        let reader = BufReader::new(stdout);
        for line in reader.lines() {
            match line {
                Ok(line) => {
                    if tx.send(ChildLine::Line(id, line)).is_err() {
                        return;
                    }
                }
                Err(_) => break,
            }
        }
        let _ = tx.send(ChildLine::Eof(id));
    });
    stdin
}

/// Create-and-remove guard for the churn runner's WAL directory.
struct TempDir(PathBuf);

impl TempDir {
    fn create(path: PathBuf) -> Result<TempDir, ClusterError> {
        std::fs::create_dir_all(&path)
            .map_err(|e| ClusterError::Io(format!("creating WAL dir {}: {e}", path.display())))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The dealer's master secret for a cluster, derived from its seed (every
/// child of one cluster shares it; two clusters with different seeds never
/// cross-authenticate).
fn cluster_master(seed: u64) -> Vec<u8> {
    let mut master = b"minsync-cluster-master-".to_vec();
    master.extend_from_slice(&seed.to_le_bytes());
    master
}

/// Best-effort exit status of a child whose control pipe just closed. The
/// pipe's EOF races the process table, so poll briefly before giving up.
fn exit_status_of(child: &mut Child) -> String {
    for _ in 0..50 {
        match child.try_wait() {
            Ok(Some(status)) => return status.to_string(),
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(_) => break,
        }
    }
    "exit status unknown".into()
}

/// Receives one control line, or `None` if the pipes stay quiet until
/// `wake` (waits are clamped so a caller's deadline check runs regularly).
fn recv_line(rx: &Receiver<ChildLine>, wake: Instant) -> Result<Option<ChildLine>, ClusterError> {
    let wait = wake
        .saturating_duration_since(Instant::now())
        .clamp(Duration::from_millis(1), Duration::from_millis(50));
    match rx.recv_timeout(wait) {
        Ok(line) => Ok(Some(line)),
        Err(RecvTimeoutError::Timeout) => Ok(None),
        Err(RecvTimeoutError::Disconnected) => {
            Err(ClusterError::Io("all control pipes closed".into()))
        }
    }
}

/// Parses one correct replica's statistics block: a `minsync-telemetry`
/// registry snapshot (`STAT v1 … END STAT`). The summary fields come out of
/// `node.*` gauges, and the whole snapshot rides along in
/// [`ReplicaStats::snapshot`].
fn parse_stats(id: usize, block: &[String]) -> Result<ReplicaStats, ClusterError> {
    let text = block.join("\n");
    let snapshot = Snapshot::parse(&text).map_err(|what| ClusterError::Protocol { id, what })?;
    let gauge = |name: &str| -> Result<u64, ClusterError> {
        snapshot.gauge(name).ok_or_else(|| ClusterError::Protocol {
            id,
            what: format!("snapshot missing {name} gauge"),
        })
    };
    Ok(ReplicaStats {
        id,
        committed: gauge("node.committed_commands")? as usize,
        slots: gauge("node.committed_slots")?,
        digest: gauge("node.digest")?,
        wall: Duration::from_micros(gauge("node.wall_us")?),
        lat_count: gauge("node.lat_count")? as usize,
        lat_p50: gauge("node.lat_p50")?,
        lat_p95: gauge("node.lat_p95")?,
        lat_p99: gauge("node.lat_p99")?,
        lat_mean: gauge("node.lat_mean_milli")? as f64 / 1000.0,
        snapshot,
        series: TimeSeries::with_capacity(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn arrival_args_round_trip() {
        for a in [
            ArrivalProcess::Poisson { mean_gap: 2.5 },
            ArrivalProcess::Bursty {
                burst: 8,
                period: 64,
            },
            ArrivalProcess::ClosedLoop { think: 9 },
        ] {
            assert_eq!(parse_arrival(&arrival_to_arg(&a)), Some(a));
        }
        assert_eq!(parse_arrival("poisson:0"), None);
        assert_eq!(parse_arrival("poisson:inf"), None);
        assert_eq!(parse_arrival("poisson:1e999"), None);
        assert_eq!(parse_arrival("poisson:NaN"), None);
        assert_eq!(parse_arrival("nonsense"), None);
        assert_eq!(parse_arrival("bursty:0/4"), None);
    }

    #[test]
    fn log_digest_separates_slot_shapes() {
        // Same flattened commands, different batch boundaries: distinct.
        let mut a = LogDigest::new();
        a.fold_slot(1, &[1, 2]);
        a.fold_slot(2, &[3]);
        let mut b = LogDigest::new();
        b.fold_slot(1, &[1]);
        b.fold_slot(2, &[2, 3]);
        assert_ne!(a.value(), b.value());
        // Determinism.
        let mut c = LogDigest::new();
        c.fold_slot(1, &[1, 2]);
        c.fold_slot(2, &[3]);
        assert_eq!(a.value(), c.value());
    }

    #[test]
    fn snapshot_stats_round_trip_through_the_text_format() {
        // A node-side registry writes the block; the orchestrator-side
        // parser must recover every summary field exactly.
        let mut snap = Snapshot::empty();
        snap.set_gauge("node.committed_commands", 128);
        snap.set_gauge("node.committed_slots", 20);
        snap.set_gauge("node.digest", 0xcbf2_9ce4_8422_2325);
        snap.set_gauge("node.wall_us", 412_500);
        snap.set_gauge("node.lat_count", 128);
        snap.set_gauge("node.lat_p50", 10);
        snap.set_gauge("node.lat_p95", 25);
        snap.set_gauge("node.lat_p99", 40);
        snap.set_gauge("node.lat_mean_milli", 12_750);
        snap.set_counter("mesh.outbound_dropped.p0", 1);
        snap.set_counter("mesh.outbound_dropped.p2", 2);
        snap.set_counter("mesh.decode_disconnects", 1);
        snap.set_counter("mesh.auth_rejects", 2);
        snap.set_counter("mesh.keepalives", 9);
        snap.set_counter("smr.future_drops", 5);
        snap.set_counter("smr.retired_drops", 4);
        let block: Vec<String> = snap.to_text().lines().map(str::to_string).collect();
        let stats = parse_stats(2, &block).unwrap();
        assert_eq!(stats.committed, 128);
        assert_eq!(stats.slots, 20);
        assert_eq!(stats.digest, 0xcbf2_9ce4_8422_2325);
        assert!((stats.wall.as_secs_f64() - 0.4125).abs() < 1e-9);
        assert_eq!(stats.lat_p99, 40);
        assert!((stats.lat_mean - 12.75).abs() < 1e-9);
        // The full snapshot rides along for fields without a summary slot.
        assert_eq!(stats.snapshot.counter("mesh.keepalives"), Some(9));
    }

    /// The summary gauges `parse_stats` requires.
    const GAUGES: [&str; 9] = [
        "node.committed_commands",
        "node.committed_slots",
        "node.digest",
        "node.wall_us",
        "node.lat_count",
        "node.lat_p50",
        "node.lat_p95",
        "node.lat_p99",
        "node.lat_mean_milli",
    ];

    #[test]
    fn stats_block_parses_and_reports_missing_fields() {
        let mut snap = Snapshot::empty();
        for (value, name) in GAUGES.iter().enumerate() {
            snap.set_gauge(name, value as u64 + 1);
        }
        let block: Vec<String> = snap.to_text().lines().map(str::to_string).collect();
        let stats = parse_stats(2, &block).unwrap();
        assert_eq!((stats.committed, stats.slots, stats.digest), (1, 2, 3));

        // A snapshot missing any one summary gauge is a protocol error
        // naming the gauge, not a zero-filled report.
        for name in GAUGES {
            let gutted: Vec<String> = block
                .iter()
                .filter(|l| !l.contains(name))
                .cloned()
                .collect();
            assert_eq!(gutted.len(), block.len() - 1, "{name} has its own line");
            match parse_stats(2, &gutted) {
                Err(ClusterError::Protocol { id: 2, what }) => {
                    assert!(what.contains(name), "error should name {name}: {what}")
                }
                other => panic!("missing {name} must be a protocol error, got {other:?}"),
            }
        }

        // Anything that is not a `STAT v1` block — the positional grammar
        // early node builds printed included — is rejected, not guessed at.
        let positional = ["COMMITTED 128 20".to_string(), "DIGEST cbf2".to_string()];
        assert!(matches!(
            parse_stats(2, &positional),
            Err(ClusterError::Protocol { id: 2, .. })
        ));
    }

    /// The lines `minsync-node` prints for one live sample.
    fn sample_lines(at: &str, values: &Snapshot) -> Vec<String> {
        let text = format!("{} {at}\n{}", control::SAMPLE, values.to_text());
        text.lines().map(str::to_string).collect()
    }

    fn floor_at(level: u64) -> Snapshot {
        let mut values = Snapshot::empty();
        values.set_gauge("watch.p1.commit_floor", level);
        values.set_counter("mesh.pings", 2 * level);
        values
    }

    /// The series' points as `(at, values)` pairs.
    fn points(series: &TimeSeries) -> Vec<(u64, Snapshot)> {
        series.points().map(|p| (p.at, p.values.clone())).collect()
    }

    #[test]
    fn stream_assembler_keeps_interleaved_children_apart() {
        let mut streams = StreamAssembler::new(2);
        let a = sample_lines("100", &floor_at(3));
        let b = sample_lines("7", &floor_at(9));
        for (x, y) in a.iter().zip(&b) {
            assert!(streams.consume(0, x), "sample line {x:?} leaked");
            assert!(streams.consume(1, y), "sample line {y:?} leaked");
        }
        assert_eq!(points(&streams.take(0)), [(100, floor_at(3))]);
        assert_eq!(points(&streams.take(1)), [(7, floor_at(9))]);
    }

    #[test]
    fn stream_assembler_passes_a_report_after_samples_through_whole() {
        let mut report = floor_at(5);
        for (value, name) in GAUGES.iter().enumerate() {
            report.set_gauge(name, value as u64);
        }
        let mut lines = sample_lines("10", &floor_at(4));
        lines.extend(report.to_text().lines().map(str::to_string));
        lines.push(control::DONE.to_string());
        lines.extend(sample_lines("30", &report));
        let mut streams = StreamAssembler::new(1);
        let block: Vec<String> = lines
            .into_iter()
            .filter(|line| !streams.consume(0, line) && line != control::DONE)
            .collect();
        assert_eq!(parse_stats(0, &block).unwrap().snapshot, report);
        assert_eq!(points(&streams.take(0)), [(10, floor_at(4)), (30, report)]);
    }

    #[test]
    fn stream_assembler_drops_a_sample_with_a_bad_stamp() {
        let mut streams = StreamAssembler::new(1);
        for line in sample_lines("not-a-number", &floor_at(1)) {
            assert!(streams.consume(0, &line), "{line:?} leaked");
        }
        assert!(streams.take(0).is_empty());
    }

    #[test]
    fn stream_assembler_discards_a_sample_cut_by_a_kill() {
        let mut streams = StreamAssembler::new(1);
        let cut = sample_lines("50", &floor_at(2));
        for line in &cut[..cut.len() - 1] {
            assert!(streams.consume(0, line));
        }
        streams.reset(0);
        for line in sample_lines("3", &floor_at(6)) {
            assert!(streams.consume(0, &line));
        }
        assert_eq!(points(&streams.take(0)), [(3, floor_at(6))]);
    }

    /// Control lines a hostile or broken child might print: fragments of
    /// real samples, lines under a tag the format does not have, and
    /// arbitrary text.
    fn hostile_line() -> impl Strategy<Value = String> {
        const FRAGMENTS: [&str; 9] = [
            "SAMPLE 5",
            "SAMPLE x",
            "SAMPLE",
            "STAT v1",
            "END STAT",
            "CTR mesh.pings 1",
            "HST wire.encode_ns 3 40 2:1 6:2",
            "HST wire.encode_ns 1 1 64:1",
            "",
        ];
        prop_oneof![
            (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_string()),
            proptest::collection::vec(0x20u8..0x7f, 0..24)
                .prop_map(|bytes| bytes.into_iter().map(char::from).collect()),
        ]
    }

    /// What a hostile or broken child might print at once: one line of
    /// noise, or one sample — under a numeric or a bad stamp — whole, cut
    /// short, or with one line swapped for noise.
    fn hostile_burst() -> impl Strategy<Value = Vec<String>> {
        let stamp = proptest::option::of(any::<u64>());
        let sample = (stamp, 0u64..9, any::<usize>(), 0u8..3, hostile_line()).prop_map(
            |(stamp, level, pick, damage, noise)| {
                let stamp = stamp.map_or("x".to_string(), |at| at.to_string());
                let mut lines = sample_lines(&stamp, &floor_at(level));
                let i = pick % lines.len();
                match damage {
                    0 => {}
                    1 => lines.truncate(i),
                    _ => lines[i] = noise,
                }
                lines
            },
        );
        prop_oneof![hostile_line().prop_map(|line| vec![line]), sample]
    }

    proptest! {
        /// Hostile lines never panic the assembler; every point it pushes
        /// is a block `Snapshot::parse` accepted, stamped by a `SAMPLE`
        /// line that child printed; and a genuine sample still lands
        /// once a footer closes whatever the noise left open.
        #[test]
        fn stream_assembler_survives_hostile_lines(
            bursts in proptest::collection::vec((0usize..2, hostile_burst()), 0..24),
        ) {
            let mut streams = StreamAssembler::new(2);
            let mut stamps: [Vec<u64>; 2] = Default::default();
            for (id, burst) in &bursts {
                for line in burst {
                    let stamp = line.strip_prefix(control::SAMPLE).map(|s| s.trim().parse());
                    if let Some(Ok(at)) = stamp {
                        stamps[*id].push(at);
                    }
                    streams.consume(*id, line);
                }
            }
            for (id, stamps) in stamps.iter().enumerate() {
                for point in streams.series[id].points() {
                    prop_assert!(stamps.contains(&point.at));
                    let reparsed = Snapshot::parse(&point.values.to_text());
                    prop_assert_eq!(reparsed.as_ref(), Ok(&point.values));
                }
                streams.consume(id, SNAPSHOT_FOOTER);
                for line in sample_lines("77", &floor_at(8)) {
                    prop_assert!(streams.consume(id, &line));
                }
                let latest = streams.series[id].latest().map(|p| (p.at, p.values.clone()));
                prop_assert_eq!(latest, Some((77, floor_at(8))));
            }
        }
    }

    #[test]
    fn behavior_args_round_trip() {
        for b in [
            Behavior::Correct,
            Behavior::Silent,
            Behavior::Flood,
            Behavior::Impersonate,
        ] {
            assert_eq!(Behavior::parse(b.arg()), Some(b));
        }
        assert_eq!(Behavior::parse("evil"), None);
    }

    fn stats(id: usize, digest: u64, committed: usize, wall_ms: u64) -> ReplicaStats {
        ReplicaStats {
            id,
            committed,
            slots: 10,
            digest,
            wall: Duration::from_millis(wall_ms),
            lat_count: 100,
            lat_p50: 1,
            lat_p95: 2,
            lat_p99: 3,
            lat_mean: 1.5,
            snapshot: Snapshot::empty(),
            series: TimeSeries::with_capacity(1),
        }
    }

    #[test]
    fn report_helpers() {
        let report = ClusterReport {
            replicas: vec![stats(0, 7, 100, 500), stats(1, 7, 100, 250)],
            total_commands: 100,
            elapsed: Duration::from_secs(1),
            fired: Vec::new(),
            drained: vec![Duration::from_millis(40), Duration::from_millis(70)],
        };
        assert_eq!(report.cmds_per_sec(), 200.0);
        assert_eq!(report.last_drain(), Duration::from_millis(70));
    }

    #[test]
    fn a_floor_plan_without_samples_or_a_correct_observer_fails_before_spawning() {
        let plan = |replica| {
            let floor = Trigger::Floor { replica, slot: 1 };
            ChurnPlan::new().step(floor, ChurnAction::Heal)
        };
        let sampled = ClusterSpec {
            stats_period: Some(Duration::from_millis(10)),
            riders: vec![Behavior::Silent],
            ..ClusterSpec::default()
        };
        // No binary is looked up, so this holds on a clean target too.
        for (observer, spec) in [(0, &ClusterSpec::default()), (3, &sampled)] {
            let err = run_churn_cluster(spec, &plan(observer)).unwrap_err();
            let what = format!("replica: {observer}");
            assert!(
                matches!(&err, ClusterError::Plan(w) if w.contains(&what)),
                "{err}"
            );
        }
    }

    #[test]
    fn violations_name_the_diverged_digests_and_the_short_replica() {
        let report = |replicas| ClusterReport {
            replicas,
            total_commands: 100,
            elapsed: Duration::from_secs(1),
            fired: Vec::new(),
            drained: vec![Duration::from_millis(40), Duration::from_millis(70)],
        };
        let good = report(vec![stats(0, 7, 100, 1), stats(1, 7, 100, 1)]);
        assert!(good.violations().is_empty());

        let bad = report(vec![
            stats(0, 7, 100, 1),
            stats(1, 0xbad, 100, 1),
            stats(2, 7, 96, 1),
        ]);
        let violations = bad.violations();
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(
            violations[0].detail.contains("(0, \"0000000000000007\")")
                && violations[0].detail.contains("(1, \"0000000000000bad\")"),
            "digest entry lists (id, digest) pairs: {violations:?}"
        );
        assert_eq!(violations[1].detail, "p2 reached 96, not 100");
    }
}
