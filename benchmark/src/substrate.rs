//! One function per substrate that runs a workload's population to
//! completion through the repo's public entry points (`SimBuilder`,
//! `run_threaded`, `run_cluster`) and returns what was observed, plus the
//! correctness checks every such run must pass.

use std::sync::Arc;
use std::time::{Duration, Instant};

use minsync_net::sim::{Metrics, OutputRecord, SimBuilder, Simulation};
use minsync_net::threaded::{run_threaded, ThreadedConfig};
use minsync_net::{Effect, NetworkTopology};
use minsync_smr::SmrMsg;
use minsync_telemetry::Registry;
use minsync_transport::{run_cluster, ClusterReport, ClusterSpec, LogDigest};
use minsync_types::ProcessId;
use minsync_workload::{account, command, ClientPopulation, LatencyStats};

use crate::measure::CpuTimes;
use crate::spec::{Msg, Out, Workload, TICK};

/// Incremental stop predicate: "every correct replica has committed every
/// command". It keeps a cursor into the substrate's append-only output
/// slice and looks at each output once, so a run of `s` slots costs O(s)
/// predicate work; rescanning the slice on every call (what
/// `minsync_workload::committed_commands` does) is O(s²) and dominates a
/// 15 000-slot simulator run.
#[derive(Debug)]
pub struct CommitCursor {
    seen: usize,
    total: usize,
    committed: Vec<usize>,
    pending: usize,
}

impl CommitCursor {
    /// A cursor for `correct` replicas (ids `0..correct`) draining `total`
    /// commands each.
    pub fn new(correct: usize, total: usize) -> CommitCursor {
        CommitCursor {
            seen: 0,
            total,
            committed: vec![0; correct],
            pending: correct,
        }
    }

    /// Consumes the outputs appended since the last call; true once every
    /// correct replica is drained. `view` projects a substrate's output
    /// record to `(process, event)`.
    pub fn advance<R>(&mut self, outs: &[R], view: impl Fn(&R) -> (usize, &Out)) -> bool {
        for rec in &outs[self.seen..] {
            let (p, event) = view(rec);
            let Some((_, batch)) = event.as_committed() else {
                continue;
            };
            if p >= self.committed.len() || batch.is_empty() {
                continue;
            }
            let before = self.committed[p];
            self.committed[p] += batch.len();
            if before < self.total && self.committed[p] >= self.total {
                self.pending -= 1;
            }
        }
        self.seen = outs.len();
        self.pending == 0
    }
}

/// A committed log reduced to what the checks compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogSummary {
    /// [`LogDigest`] over the slots up to the one carrying the last
    /// command — the same fold `minsync-node` reports.
    pub digest: u64,
    /// Slots folded (including no-op slots in between).
    pub slots: u64,
    /// Slots folded that carried no command.
    pub noop_slots: u64,
    /// Commands folded.
    pub commands: usize,
    /// Every client's sequence numbers appeared in order, gap-free.
    pub client_order_ok: bool,
}

/// Folds one replica's commit stream (in commit order) the way
/// `minsync-node` does and checks per-client order on the way.
pub fn summarize_log<'a>(
    commits: impl Iterator<Item = (u64, &'a [u64])>,
    total: usize,
) -> LogSummary {
    let mut digest = LogDigest::new();
    let mut next_seq = std::collections::BTreeMap::new();
    let mut s = LogSummary {
        digest: 0,
        slots: 0,
        noop_slots: 0,
        commands: 0,
        client_order_ok: true,
    };
    for (slot, commands) in commits {
        if s.commands >= total {
            break;
        }
        digest.fold_slot(slot, commands);
        s.slots += 1;
        s.noop_slots += u64::from(commands.is_empty());
        s.commands += commands.len();
        for &cmd in commands {
            let seq = next_seq.entry(command::client_of(cmd)).or_insert(0u64);
            s.client_order_ok &= command::seq_of(cmd) == *seq;
            *seq += 1;
        }
    }
    s.digest = digest.value();
    s
}

/// What one simulator run produced.
#[derive(Debug)]
pub struct SimRun {
    /// Population generation + `SimBuilder::build`, seconds.
    pub setup_s: f64,
    /// Wall-clock of `run_until`, seconds.
    pub wall_s: f64,
    /// CPU of the benchmark process across `run_until`, seconds.
    pub cpu_s: f64,
    /// Commands in the population.
    pub total: usize,
    /// Each correct replica's log.
    pub logs: Vec<LogSummary>,
    /// Submit→commit latency at replica 0, virtual ticks.
    pub vlatency: LatencyStats,
    /// Virtual tick of replica 0's last command-carrying commit.
    pub last_commit_tick: u64,
    /// The simulator's counters.
    pub metrics: Metrics,
}

impl SimRun {
    /// A virtual-tick latency in wall-clock milliseconds, at the speed this
    /// run achieved: the shape of the latency distribution comes from
    /// virtual time (exact per seed), its scale from how fast the simulator
    /// got through that virtual time.
    pub fn ticks_to_ms(&self, ticks: u64) -> f64 {
        1e3 * self.wall_s * ticks as f64 / self.last_commit_tick.max(1) as f64
    }
}

fn sim_commits(outputs: &[OutputRecord<Out>], p: usize) -> impl Iterator<Item = (u64, &[u64])> {
    outputs
        .iter()
        .filter(move |o| o.process.index() == p)
        .filter_map(|o| o.event.as_committed())
        .map(|(slot, batch)| (slot, batch.commands()))
}

/// Population generation + `SimBuilder::build` for `w`: the simulator's
/// set-up. `registry`, when given, collects the replicas' `smr.*` counters
/// and the simulator's `sim.*` gauges; `record_effects` keeps every effect.
pub fn build_sim(
    w: &Workload,
    seed: u64,
    registry: Option<&Arc<Registry>>,
    record_effects: bool,
) -> (Simulation<Msg, Out>, ClientPopulation) {
    let pop = w.population(seed);
    let mut builder = SimBuilder::new(w.topology())
        .seed(seed)
        .max_events(u64::MAX)
        .classify(SmrMsg::classify);
    if let Some(registry) = registry {
        builder = builder.registry(Arc::clone(registry));
    }
    if record_effects {
        builder = builder.record_effects(usize::MAX);
    }
    for node in w.lineup(&pop, registry.map(Arc::as_ref)) {
        builder = builder.boxed_node(node);
    }
    (builder.build(), pop)
}

/// Runs `w`'s population on the simulator until every correct replica has
/// drained it.
pub fn run_sim(w: &Workload, seed: u64, registry: Option<&Arc<Registry>>) -> SimRun {
    let setup = Instant::now();
    let (mut sim, pop) = build_sim(w, seed, registry, false);
    let setup_s = setup.elapsed().as_secs_f64();
    let total = pop.total_commands();

    let correct = w.correct();
    let cpu = CpuTimes::now();
    let mut cursor = CommitCursor::new(correct, total);
    let start = Instant::now();
    let report = sim.run_until(|outs| cursor.advance(outs, |o| (o.process.index(), &o.event)));
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = CpuTimes::now().since(cpu).own_s;

    let observer = account(&pop, &report.outputs, ProcessId::new(0));
    SimRun {
        setup_s,
        wall_s,
        cpu_s,
        total,
        logs: (0..correct)
            .map(|p| summarize_log(sim_commits(&report.outputs, p), total))
            .collect(),
        vlatency: observer.latency,
        last_commit_tick: observer.last_commit_tick,
        metrics: report.metrics,
    }
}

/// Every message a simulator run of `w`'s population sends while committing
/// `w.trial_slots` slots — the corpus the codec and MAC rows are timed on.
/// A broadcast contributes its message once.
pub fn message_corpus(w: &Workload, seed: u64) -> Vec<Msg> {
    let (mut sim, pop) = build_sim(w, seed, None, true);
    let mut cursor = CommitCursor::new(w.correct(), pop.total_commands());
    sim.run_until(|outs| cursor.advance(outs, |o| (o.process.index(), &o.event)));
    sim.effect_trace()
        .iter()
        .flat_map(|rec| rec.effects.iter())
        .filter_map(|effect| match effect {
            Effect::Send { msg, .. } | Effect::Broadcast { msg } => Some(msg.clone()),
            _ => None,
        })
        .collect()
}

/// What one threaded-runtime run produced.
#[derive(Debug)]
pub struct ThreadedRun {
    /// Wall-clock of `run_threaded`, seconds.
    pub wall_s: f64,
    /// CPU of the benchmark process (all threads) across it, seconds.
    pub cpu_s: f64,
    /// The run hit its timeout.
    pub timed_out: bool,
    /// Each replica's log.
    pub logs: Vec<LogSummary>,
}

/// Runs `w`'s population on the threaded runtime with instant delivery
/// (`all_timely(n, 0)`): the same automata on OS threads and in-memory
/// channels, with wall-clock timers but no sockets.
pub fn run_threaded_pop(w: &Workload, seed: u64) -> ThreadedRun {
    let pop = w.population(seed);
    let total = pop.total_commands();
    let nodes = w.lineup(&pop, None);
    let correct = w.correct();
    let cpu = CpuTimes::now();
    let mut cursor = CommitCursor::new(correct, total);
    let start = Instant::now();
    let report = run_threaded(
        NetworkTopology::all_timely(w.n, 0),
        nodes,
        ThreadedConfig {
            tick: TICK,
            timeout: Duration::from_secs(60),
            seed,
        },
        |outs| cursor.advance(outs, |o| (o.process.index(), &o.event)),
    );
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = CpuTimes::now().since(cpu).own_s;
    let logs = (0..correct)
        .map(|p| {
            summarize_log(
                report
                    .outputs
                    .iter()
                    .filter(|o| o.process.index() == p)
                    .filter_map(|o| o.event.as_committed())
                    .map(|(slot, batch)| (slot, batch.commands())),
                total,
            )
        })
        .collect();
    ThreadedRun {
        wall_s,
        cpu_s,
        timed_out: report.timed_out,
        logs,
    }
}

/// What one cluster run produced.
#[derive(Debug)]
pub struct ClusterRun {
    /// The orchestrator's report.
    pub report: ClusterReport,
    /// CPU the replica processes used, from spawn to reap.
    pub cpu: CpuTimes,
}

impl ClusterRun {
    /// Wall-clock of the slowest correct replica, seconds.
    pub fn wall_s(&self) -> f64 {
        self.report
            .replicas
            .iter()
            .map(|r| r.wall.as_secs_f64())
            .fold(0.0, f64::max)
    }

    /// Spawn, port exchange, dial and reap: the part of the orchestrator's
    /// elapsed time no replica spent on the workload.
    pub fn setup_s(&self) -> f64 {
        (self.report.elapsed.as_secs_f64() - self.wall_s()).max(0.0)
    }

    /// Slots committed (replica 0's count; the checks make them all equal).
    pub fn slots(&self) -> u64 {
        self.report.replicas.first().map_or(0, |r| r.slots)
    }

    /// Sum of a `STAT v1` counter family over the correct replicas.
    pub fn sum_counters(&self, prefix: &str) -> u64 {
        self.report
            .replicas
            .iter()
            .map(|r| r.snapshot.sum_counters(prefix))
            .sum()
    }
}

/// Runs one cluster and charges it the children's CPU time. The children
/// are reaped inside `run_cluster`, so the `cutime`/`cstime` deltas around
/// the call are exactly theirs.
pub fn run_tcp(spec: &ClusterSpec) -> Result<ClusterRun, String> {
    let before = CpuTimes::now();
    let report = run_cluster(spec).map_err(|e| e.to_string())?;
    Ok(ClusterRun {
        report,
        cpu: CpuTimes::now().since(before),
    })
}

/// The correctness gate for a simulator or threaded run: every log complete,
/// equal, and in per-client order. Returns the misses.
pub fn check_logs(what: &str, logs: &[LogSummary], total: usize) -> Vec<String> {
    let mut misses = Vec::new();
    for (p, log) in logs.iter().enumerate() {
        if log.commands < total {
            misses.push(format!(
                "{what}: replica {p} committed {}/{total} commands",
                log.commands
            ));
        }
        if !log.client_order_ok {
            misses.push(format!(
                "{what}: replica {p} broke per-client sequence order"
            ));
        }
        if log.digest != logs[0].digest {
            misses.push(format!("{what}: replica {p}'s log digest differs"));
        }
    }
    misses
}

/// The correctness gate for a clean cluster run: digests agree with each
/// other and with `expect_digest` (the simulator's log of the same
/// population, whose per-client order [`check_logs`] verified), every
/// replica drained the population, and the defence counters stayed 0.
pub fn check_cluster(what: &str, run: &ClusterRun, expect_digest: u64) -> Vec<String> {
    let mut misses = Vec::new();
    for r in &run.report.replicas {
        if r.committed != run.report.total_commands {
            misses.push(format!(
                "{what}: replica {} committed {}/{} commands",
                r.id, r.committed, run.report.total_commands
            ));
        }
        if r.digest != expect_digest {
            misses.push(format!(
                "{what}: replica {}'s log digest {:016x} differs from the simulator's {:016x}",
                r.id, r.digest, expect_digest
            ));
        }
    }
    for counter in ["smr.future_drops", "mesh.auth_rejects", "smr.cert_rejects"] {
        let hits = run.sum_counters(counter);
        if hits != 0 {
            misses.push(format!("{what}: {counter} = {hits} on a clean run"));
        }
    }
    misses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;
    use minsync_smr::SmrEvent;
    use minsync_workload::Batch;

    fn commit(slot: u64, cmds: Vec<u64>) -> Out {
        SmrEvent::Committed {
            slot,
            command: Batch(cmds),
        }
    }

    #[test]
    fn cursor_sees_each_output_once_and_ignores_faulty_ids() {
        let mut cursor = CommitCursor::new(2, 2);
        let mut outs: Vec<(usize, Out)> = vec![(0, commit(1, vec![1, 2]))];
        fn view(r: &(usize, Out)) -> (usize, &Out) {
            (r.0, &r.1)
        }
        assert!(!cursor.advance(&outs, view));
        outs.push((5, commit(1, vec![1, 2]))); // not a correct replica
        outs.push((1, SmrEvent::Retired { through: 1 }));
        assert!(!cursor.advance(&outs, view));
        outs.push((1, commit(1, vec![1, 2])));
        assert!(cursor.advance(&outs, view));
        assert_eq!(cursor.committed, [2, 2]);
    }

    #[test]
    fn log_summary_matches_the_node_fold_and_flags_reordering() {
        let c = |client, seq| command::encode(client, seq);
        let good = [
            (1u64, vec![c(0, 0), c(1, 0)]),
            (2, vec![]),
            (3, vec![c(0, 1), c(1, 1)]),
        ];
        let s = summarize_log(good.iter().map(|(s, v)| (*s, v.as_slice())), 4);
        assert!(s.client_order_ok);
        assert_eq!((s.slots, s.noop_slots, s.commands), (3, 1, 4));
        let mut d = LogDigest::new();
        for (slot, cmds) in &good {
            d.fold_slot(*slot, cmds);
        }
        assert_eq!(s.digest, d.value());
        let bad = [(1u64, vec![c(0, 1)]), (2, vec![c(0, 0)])];
        let s = summarize_log(bad.iter().map(|(s, v)| (*s, v.as_slice())), 2);
        assert!(!s.client_order_ok);
    }

    #[test]
    fn simulator_run_passes_its_own_gate() {
        let w = workload("sim_n7_bisource_silent").unwrap().with_slots(5);
        let run = run_sim(&w, 3, None);
        assert_eq!(run.logs.len(), 5);
        assert!(check_logs("sim", &run.logs, run.total).is_empty());
        assert!(run.metrics.messages_sent > 0);
        assert!(!message_corpus(&w, 3).is_empty());
    }
}
