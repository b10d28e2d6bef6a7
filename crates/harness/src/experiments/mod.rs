//! The experiment suite E1–E11 plus E13–E17 (see `EXPERIMENTS.md` for
//! the paper-vs-measured record).
//!
//! Every experiment is a pure function `run(quick) -> Table`; `quick = true`
//! shrinks sweeps and seed counts so the whole suite stays test-suite-fast,
//! `quick = false` is the full configuration used to regenerate
//! `EXPERIMENTS.md` (via the `experiments` binary).

pub mod e10_smr;
pub mod e11_transport;
pub mod e13_churn;
pub mod e14_conformance;
pub mod e15_auth;
pub mod e16_telemetry;
pub mod e17_health;
pub mod e1_cb;
pub mod e2_ac;
pub mod e3_ea;
pub mod e4_consensus;
pub mod e5_rounds;
pub mod e6_k_sweep;
pub mod e7_baseline;
pub mod e8_timeouts;
pub mod e9_message_complexity;
pub mod ea_lab;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use minsync_net::sim::{RunReport, ScheduleCommand, ScheduleOracle, SimBuilder};
use minsync_net::{NetworkTopology, VirtualTime};
use minsync_smr::{commits, SmrEvent, SmrLimits, SmrMsg};
use minsync_telemetry::timeseries::TimeSeries;
use minsync_telemetry::Registry;
use minsync_transport::cluster::{
    run_churn_cluster, run_cluster, Behavior, ChurnAction, ChurnPlan, ChurnStep, ClusterReport,
    ClusterSpec, ReplicaStats, Trigger,
};
use minsync_types::{ProcessId, SystemConfig};
use minsync_workload::{log_violations, ArrivalProcess, Batch, DrainCursor, WorkloadSpec};

use crate::Table;

/// One catalog row: id, one-line description, and the experiment's entry
/// point (`quick` in, table out).
pub type Entry = (&'static str, &'static str, fn(bool) -> Table);

/// The experiment catalog, in the order the suite runs.
pub fn catalog() -> Vec<Entry> {
    vec![
        (
            "e1",
            "Cooperative broadcast (Figure 1 / Theorem 1): CB-Validity, CB-Set quality, message cost",
            e1_cb::run,
        ),
        (
            "e2",
            "Adopt-commit (Figure 2 / Theorem 2): AC properties under split and Byzantine proposals",
            e2_ac::run,
        ),
        (
            "e3",
            "Eventual agreement (Figure 3 / Theorem 3): convergence once the bisource stabilizes",
            e3_ea::run,
        ),
        (
            "e4",
            "Consensus (Figure 4 / Theorem 4): agreement/validity/termination, rounds and latency",
            e4_consensus::run,
        ),
        (
            "e5",
            "Round complexity vs the §5.4 bound with a from-start ⟨t+1⟩bisource",
            e5_rounds::run,
        ),
        (
            "e6",
            "Parameterized variant (§5.4): the k knob trading bisource strength for rounds",
            e6_k_sweep::run,
        ),
        (
            "e7",
            "Ben-Or baseline (footnote 1): deterministic stack vs randomized binary consensus",
            e7_baseline::run,
        ),
        (
            "e8",
            "Timeout policy f(r) and δ sensitivity (footnote 3)",
            e8_timeouts::run,
        ),
        (
            "e9",
            "Message complexity by primitive (per-kind counts across the stack)",
            e9_message_complexity::run,
        ),
        (
            "e10",
            "Batched SMR throughput/latency on the simulator (virtual-time, sim↔threaded equivalence)",
            e10_smr::run,
        ),
        (
            "e11",
            "TCP cluster: n OS processes over minsync-wire on 127.0.0.1, wall-clock throughput/latency, silent+flood riders",
            e11_transport::run,
        ),
        (
            "e13",
            "Liveness under churn: partition/heal, crash/rejoin via WAL, moving GST, adaptive champion targeting — sim + cluster",
            e13_churn::run,
        ),
        (
            "e14",
            "Conformance: schedule exploration (reorder/delay/drop) over all five stacks, consensus under both round-1 rules + ac-quorum mutation smoke",
            e14_conformance::run,
        ),
        (
            "e15",
            "Authenticated transport: an impersonator severed with MACs on, accepted with them off",
            e15_auth::run,
        ),
        (
            "e16",
            "Unified telemetry: per-substrate stage breakdowns, pipelining-window overlap, tracing overhead gate",
            e16_telemetry::run,
        ),
        (
            "e17",
            "Live health plane: clean-run alarm silence, per-fault detection latency (stall/divergence/backlog/auth), watchdog passivity",
            e17_health::run,
        ),
    ]
}

/// Picks the experiments the `experiments` binary's arguments name, in
/// catalog order; none named means all of them. A positional argument
/// that is not a catalog id (the value following `--csv` excepted) and a
/// flag other than `--quick`/`--list`/`--csv` are errors: a mistyped id
/// must not silently select nothing, or everything.
pub fn select(catalog: &[Entry], args: &[String]) -> Result<Vec<Entry>, String> {
    let mut named = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "--list" => {}
            "--csv" => {
                args.next().ok_or("--csv needs a directory")?;
            }
            id if catalog.iter().any(|(known, ..)| *known == id) => named.push(id),
            other => {
                let ids: Vec<&str> = catalog.iter().map(|(id, ..)| *id).collect();
                return Err(format!(
                    "unknown argument `{other}` (flags: --quick --list --csv DIR; \
                     experiment ids: {})",
                    ids.join(" ")
                ));
            }
        }
    }
    Ok(catalog
        .iter()
        .filter(|(id, ..)| named.is_empty() || named.contains(id))
        .copied()
        .collect())
}

/// Runs one orchestrated TCP cluster — [`run_churn_cluster`] under `plan`,
/// [`run_cluster`] without one — and applies every check whose
/// precondition `spec` and `plan` meet; `label` names the arm in panics:
///
/// * no [`ClusterReport::violations`], unless an impersonator rides an
///   unauthenticated mesh (outside the paper's no-impersonation
///   assumption: there E15 shows the forgery lands);
/// * per replica, `0 < mesh.writes ≤ mesh.frames_written` and at most two
///   threads (the mesh loop and the control-pipe reader);
/// * with a `stats_period`, a non-empty series per replica;
/// * under a plan that partitions, dropped frames: a cut that fires after
///   the drain measures nothing;
/// * on a plan-free run whose riders are all silent, zero defence counters.
///
/// # Panics
///
/// Panics if the cluster cannot be spawned (build `minsync-node` first —
/// `cargo build --release -p minsync-transport`) or a check fails.
pub(crate) fn run_checked(
    label: &str,
    spec: &ClusterSpec,
    plan: Option<&ChurnPlan>,
) -> ClusterReport {
    let case = format!(
        "{label} n={} auth={} riders={:?}",
        spec.n, spec.auth, spec.riders
    );
    let report = match plan {
        Some(plan) => run_churn_cluster(spec, plan),
        None => run_cluster(spec),
    }
    .unwrap_or_else(|e| panic!("{case}: cluster failed: {e}"));
    if spec.auth || !spec.riders.contains(&Behavior::Impersonate) {
        let violations = report.violations();
        assert!(violations.is_empty(), "{case}: {violations:?}");
    }
    for r in &report.replicas {
        let writes = r.snapshot.counter("mesh.writes").unwrap_or(0);
        let frames = r.snapshot.counter("mesh.frames_written").unwrap_or(0);
        assert!(
            0 < writes && writes <= frames,
            "{case}: replica {} wrote {frames} frames in {writes} writes",
            r.id
        );
        let threads = r.snapshot.gauge("node.threads");
        assert!(
            threads.map_or(true, |t| t <= 2),
            "{case}: replica {} ran {threads:?} threads",
            r.id
        );
        assert!(
            spec.stats_period.is_none() || !r.series.is_empty(),
            "{case}: replica {} streamed no samples",
            r.id
        );
    }
    let partitions = plan.is_some_and(|plan| {
        plan.steps
            .iter()
            .any(|s| matches!(s.action, ChurnAction::Partition { .. }))
    });
    if partitions {
        assert!(
            report.sum_counters("mesh.outbound_dropped.") > 0,
            "{case}: the partition dropped nothing"
        );
    }
    if plan.is_none() && spec.riders.iter().all(|b| *b == Behavior::Silent) {
        // With no rider actively injecting traffic (silent ones only occupy
        // fault slots), the flow-control cap and the MAC check must stay
        // untouched: future traffic is bounded by the pipeline width and no
        // honest frame fails verification, so a nonzero counter means honest
        // traffic was discarded. Read straight off the child's registry
        // snapshot — the metric names are the contract. Retired drops are
        // NOT zero by invariant — a peer's instance can answer a straggler's
        // echo *after* acking the slot, and that relay races the straggler's
        // own ack on a different TCP stream — so they are surfaced in E11's
        // table but only asserted in the deterministic sim (E13).
        // With one routing group every correct replica proposes the decided
        // batch itself, so no slot ever waits for its payload; with more, a
        // losing proposer may legitimately decide first. A churn run is
        // lossy by design (and its children run the checkpoint retry), so
        // these counters are not claims there.
        let mut zero = vec!["smr.future_drops", "mesh.auth_rejects"];
        if spec.groups == 1 {
            zero.extend(["smr.payload_waits", "smr.payload_mismatch"]);
        }
        for r in &report.replicas {
            for name in &zero {
                assert_eq!(
                    r.snapshot.counter(name).unwrap_or(0),
                    0,
                    "{case}: clean run counted {name} at replica {}",
                    r.id
                );
            }
        }
    }
    report
}

/// Converts a child-tick count of `spec`'s cluster to milliseconds.
pub(crate) fn ticks_ms(spec: &ClusterSpec, ticks: u64) -> f64 {
    ticks as f64 * spec.tick.as_secs_f64() * 1000.0
}

/// The slowest correct replica of a cluster run; its `wall` is the run's
/// drain time.
///
/// # Panics
///
/// Panics if the run has no correct replica.
pub(crate) fn slowest(report: &ClusterReport) -> &ReplicaStats {
    report
        .replicas
        .iter()
        .max_by_key(|r| r.wall)
        .expect("at least one correct replica")
}

/// E11 and E15's cluster: four Poisson clients per group, seed 7, `riders`
/// in the fault slots. Callers add their own knobs with struct-update
/// syntax.
pub(crate) fn rider_spec(n: usize, t: usize, riders: Vec<Behavior>) -> ClusterSpec {
    ClusterSpec {
        n,
        t,
        clients_per_group: 4,
        arrivals: ArrivalProcess::Poisson { mean_gap: 1.0 },
        seed: 7,
        riders,
        ..ClusterSpec::default()
    }
}

/// E13 and E17's cluster for mid-run faults: batch 4, arrivals 100 ticks
/// apart, and live samples every 10 ms, which a [`Trigger::Floor`] step
/// reads its observer's floor from. Arrival gaps are in child ticks, which
/// compress under load, so the log's length in wall clock is measured,
/// not derived ([`outlasting_cluster_commands`]).
pub(crate) fn churn_spec(n: usize, t: usize, commands_per_client: usize, seed: u64) -> ClusterSpec {
    ClusterSpec {
        n,
        t,
        commands_per_client,
        batch: 4,
        arrivals: ArrivalProcess::Poisson { mean_gap: 100.0 },
        seed,
        stats_period: Some(std::time::Duration::from_millis(CLUSTER_PERIOD_MS)),
        ..ClusterSpec::default()
    }
}

/// [`churn_spec`]'s sampling period, in wall-clock milliseconds.
pub(crate) const CLUSTER_PERIOD_MS: u64 = 10;

/// Commands per client that keep a [`churn_spec`] cluster's log growing for
/// `span` of wall clock past the drain of `clean`, a clean run of `probe`
/// commands per client, even at [`CLUSTER_PACE_SLACK`] times that run's
/// pace. A fault a plan opens on an early commit floor then lands mid-log,
/// with `span` of log left to commit: the cluster's mirror of
/// [`outlasting_commands`], whose probe drains in virtual time.
pub(crate) fn outlasting_cluster_commands(
    clean: &ClusterReport,
    probe: usize,
    span: std::time::Duration,
) -> usize {
    let drained = clean.last_drain().as_secs_f64().max(1e-3);
    let more = probe as f64 * CLUSTER_PACE_SLACK * span.as_secs_f64() / drained;
    probe + more.ceil() as usize
}

/// How much faster than its clean probe a loopback cluster run may drain
/// and still outlast its plan ([`outlasting_cluster_commands`]): the same
/// n = 4 lineup of 2 × 96 commands drains in 27–44 ms from one release run
/// to the next on a 2-vCPU x86-64 host.
const CLUSTER_PACE_SLACK: f64 = 2.0;

/// Checkpoint-retry period (in ticks) of [`churn_sim`]'s replicas: a
/// churn plan loses messages outright, so every replica runs the repair
/// path — the simulator-side mirror of the node binary's `--ckpt-retry`.
const CKPT_RETRY: u64 = 50;

/// Sampling period of [`churn_sim`]'s health plane, in virtual ticks.
pub(crate) const SIM_PERIOD: u64 = 25;

type Msg = SmrMsg<Batch>;

/// Runs a [`ChurnPlan`] in virtual time, as [`run_churn_cluster`] runs it
/// over processes: a step fires at the first message routed once its
/// trigger holds, a replica's floor being the highest cumulative
/// [`SmrMsg::Ack`] it has broadcast. `Kill` isolates a replica until
/// `Restart`; self-delivery always flows. With `content`, an open
/// partition mutes its side instead of cutting it off: it drops the
/// messages `content` selects that a member of the side sends, to every
/// recipient.
#[derive(Default)]
pub(crate) struct PlanOracle {
    steps: Vec<ChurnStep>,
    floors: BTreeMap<usize, u64>,
    side: Option<Vec<usize>>,
    killed: Vec<usize>,
    pub(crate) content: Option<fn(&Msg) -> bool>,
    /// The tick each step fired at, read back by [`churn_sim`].
    fired: Arc<Mutex<Vec<u64>>>,
}

impl PlanOracle {
    pub(crate) fn new(plan: &ChurnPlan) -> PlanOracle {
        PlanOracle {
            steps: plan.steps.clone(),
            ..PlanOracle::default()
        }
    }
}

impl ScheduleOracle<Msg> for PlanOracle {
    fn command(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        at: VirtualTime,
        msg: &Msg,
        _default: u64,
    ) -> ScheduleCommand {
        let (f, t) = (from.index(), to.index());
        if let SmrMsg::Ack { slot } = *msg {
            let floor = self.floors.entry(f).or_default();
            *floor = slot.max(*floor);
        }
        let mut fired = self.fired.lock().expect("unpoisoned");
        while let Some(step) = self.steps.get(fired.len()) {
            let ready = match step.at {
                Trigger::Floor { replica, slot } => self.floors.get(&replica) >= Some(&slot),
                Trigger::Ticks(d) => at.ticks() >= fired.last().unwrap_or(&0) + u64::from(d),
            };
            if !ready {
                break;
            }
            fired.push(at.ticks());
            match step.action {
                ChurnAction::Partition { ref side } => self.side = Some(side.clone()),
                ChurnAction::Heal => self.side = None,
                ChurnAction::Kill { id } => self.killed.push(id),
                ChurnAction::Restart { id } => self.killed.retain(|&k| k != id),
            }
        }
        let cut = match (&self.side, self.content) {
            (Some(side), Some(hit)) => side.contains(&f) && hit(msg),
            (Some(side), None) => side.contains(&f) != side.contains(&t),
            (None, _) => false,
        };
        if cut || (f != t && self.killed.iter().any(|&k| k == f || k == t)) {
            ScheduleCommand::Drop
        } else {
            ScheduleCommand::Default
        }
    }
}

/// E13 and E17's simulator run: one group of 2 clients, Poisson arrivals
/// 20 ticks apart, batch 4, every channel timely (δ = 3), and every
/// replica correct with the [`CKPT_RETRY`] repair on — `plan`'s churn is
/// the only adversary. With a `registry` the health plane is attached:
/// every replica's watch gauges, and a registry sample every
/// [`SIM_PERIOD`] ticks into the returned series (empty without one).
///
/// The run stops once replicas `0..awaited` have drained the workload.
/// Returns the run, the series, and the tick each plan step fired at.
///
/// # Panics
///
/// Panics if the awaited replicas stall short of the workload, the
/// committed logs violate [`log_violations`], or a plan step never fired
/// (a fault that lands after the drain tests nothing); `case` names the
/// run.
pub(crate) fn churn_sim(
    case: &str,
    system: SystemConfig,
    seed: u64,
    commands_per_client: usize,
    plan: PlanOracle,
    awaited: usize,
    registry: Option<Arc<Registry>>,
) -> (RunReport<SmrEvent<Batch>>, TimeSeries, Vec<u64>) {
    let pop = WorkloadSpec {
        groups: 1,
        clients_per_group: 2,
        commands_per_client,
        arrivals: ArrivalProcess::Poisson { mean_gap: 20.0 },
        seed,
    }
    .generate(&system)
    .expect("feasible workload");
    let total = pop.total_commands();
    let (steps, fired) = (plan.steps.clone(), Arc::clone(&plan.fired));
    let mut builder = SimBuilder::new(NetworkTopology::all_timely(system.n(), 3))
        .seed(seed)
        .max_events(100_000_000)
        .classify(SmrMsg::classify)
        .with_schedule_oracle(plan);
    if let Some(registry) = &registry {
        builder = builder
            .registry(Arc::clone(registry))
            .sample_stats(SIM_PERIOD);
    }
    for i in 0..system.n() {
        let mut node = pop.replica(system, i, 4).with_limits(SmrLimits {
            ckpt_retry: CKPT_RETRY,
            ..SmrLimits::default()
        });
        if let Some(registry) = &registry {
            node = node.with_watch(registry, i);
        }
        builder = builder.node(node);
    }
    let mut sim = builder.build();
    let mut drained = DrainCursor::new(awaited, total);
    let report = sim.run_until(|outs| drained.advance(outs, |o| (o.process, &o.event)));
    let found = log_violations(commits(&report.outputs), awaited, total);
    assert!(found.is_empty(), "{case}: {found:?} ({:?})", report.reason);
    let fired = std::mem::take(&mut *fired.lock().expect("unpoisoned"));
    if let Some(step) = steps.get(fired.len()) {
        panic!(
            "{case}: plan step {} ({step:?}) never fired before the drain",
            fired.len()
        );
    }
    (report, sim.stat_series().clone(), fired)
}

/// Commands per client that keep [`churn_sim`]'s log growing for `span`
/// ticks past the point a clean run of [`PROBE_COMMANDS`] per client
/// drains, at that run's pace and rounded up to whole probe runs. A fault
/// opened by that point (every plan opens on an early commit floor) then
/// lands mid-log however fast a slot is, with `span` ticks of log left.
pub(crate) fn outlasting_commands(system: SystemConfig, seed: u64, span: u64) -> usize {
    let case = format!("probe n={} seed={seed}", system.n());
    let clean = PlanOracle::default();
    let (run, ..) = churn_sim(&case, system, seed, PROBE_COMMANDS, clean, system.n(), None);
    let ticks = run.final_time.ticks().max(1);
    PROBE_COMMANDS * (1 + span.div_ceil(ticks) as usize)
}

/// Commands per client of [`outlasting_commands`]'s clean probe.
const PROBE_COMMANDS: usize = 16;

/// Seeds used per configuration.
pub(crate) fn seeds(quick: bool) -> Vec<u64> {
    if quick {
        vec![1]
    } else {
        vec![1, 2, 3, 4, 5]
    }
}

/// Standard (n, t) sweep.
pub(crate) fn systems(quick: bool) -> Vec<(usize, usize)> {
    if quick {
        vec![(4, 1)]
    } else {
        vec![(4, 1), (7, 2), (10, 3)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_produces_all_tables() {
        let catalog = catalog();
        assert_eq!(catalog.len(), 16);
        for (id, _, run) in catalog {
            let table = run(true);
            assert!(!table.rows().is_empty(), "{id} produced no rows");
        }
    }

    /// Routes `msg` from `from` to `to` at tick `at`; true iff dropped.
    fn drops(o: &mut PlanOracle, from: usize, to: usize, at: u64, msg: &Msg) -> bool {
        let at = VirtualTime::from_ticks(at);
        o.command(ProcessId::new(from), ProcessId::new(to), at, msg, 3) == ScheduleCommand::Drop
    }

    const PLAIN: Msg = SmrMsg::Ack { slot: 0 };

    #[test]
    fn plan_partition_cuts_only_crossing_traffic_while_open() {
        let cut = ChurnAction::Partition { side: vec![0, 1] };
        let plan = ChurnPlan::new().step(Trigger::Ticks(100), cut);
        let mut o = PlanOracle::new(&plan.step(Trigger::Ticks(100), ChurnAction::Heal));
        assert!(!drops(&mut o, 0, 2, 99, &PLAIN), "not due yet");
        assert!(drops(&mut o, 0, 2, 150, &PLAIN) && drops(&mut o, 2, 1, 150, &PLAIN));
        assert!(!drops(&mut o, 0, 1, 150, &PLAIN) && !drops(&mut o, 2, 3, 150, &PLAIN));
        assert!(!drops(&mut o, 0, 2, 250, &PLAIN), "healed");
        assert_eq!(*o.fired.lock().unwrap(), [150, 250], "fired when routed");
    }

    #[test]
    fn plan_empty_never_drops() {
        let mut o = PlanOracle::new(&ChurnPlan::new());
        assert!(!drops(&mut o, 1, 2, u64::MAX, &PLAIN) && !drops(&mut o, 0, 0, 0, &PLAIN));
        assert!(!drops(&mut PlanOracle::default(), 1, 2, u64::MAX, &PLAIN));
    }

    #[test]
    fn plan_kill_opened_by_a_floor_spares_self_delivery() {
        let (replica, slot) = (2, 3);
        let plan = ChurnPlan::new()
            .step(
                Trigger::Floor { replica, slot },
                ChurnAction::Kill { id: 1 },
            )
            .step(Trigger::Ticks(50), ChurnAction::Restart { id: 1 });
        let (mut o, ack) = (PlanOracle::new(&plan), SmrMsg::Ack { slot });
        assert!(!drops(&mut o, 1, 0, 10, &ack), "not the observer's ack");
        assert!(drops(&mut o, 2, 1, 20, &ack), "the observer's ack opens it");
        assert!(drops(&mut o, 1, 0, 30, &PLAIN) && !drops(&mut o, 1, 1, 30, &PLAIN));
        assert!(!drops(&mut o, 0, 2, 30, &PLAIN), "bystanders flow");
        assert!(!drops(&mut o, 1, 0, 70, &PLAIN), "restarted");
    }

    #[test]
    fn plan_content_arm_drops_what_it_selects_while_open() {
        let plan = ChurnPlan::new()
            .step(Trigger::Ticks(10), ChurnAction::Partition { side: vec![0] })
            .step(Trigger::Ticks(10), ChurnAction::Heal);
        let mut o = PlanOracle::new(&plan);
        o.content = Some(|m| matches!(m, SmrMsg::Ack { slot: 7 }));
        let hit = SmrMsg::Ack { slot: 7 };
        assert!(!drops(&mut o, 0, 1, 5, &hit), "not open yet");
        assert!(drops(&mut o, 0, 0, 10, &hit), "self-delivery too");
        assert!(drops(&mut o, 0, 2, 10, &hit), "to either side");
        assert!(!drops(&mut o, 2, 1, 10, &hit), "only the side's sends");
        assert!(!drops(&mut o, 0, 1, 10, &PLAIN), "only what it selects");
        assert!(!drops(&mut o, 0, 1, 20, &hit), "closed");
    }

    fn selected(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        select(&catalog(), &args).map(|picked| picked.iter().map(|(id, ..)| *id).collect())
    }

    #[test]
    fn select_runs_exactly_what_is_named_and_rejects_the_rest() {
        assert_eq!(selected(&["--quick"]).unwrap().len(), 16);
        assert_eq!(selected(&["e15", "e11"]).unwrap(), ["e11", "e15"]);
        // `--csv`'s value is a path, not an id.
        assert_eq!(
            selected(&["--quick", "--csv", "out", "e3"]).unwrap(),
            ["e3"]
        );
        for bad in ["e12", "e150", "E15", "e15,e16", "--help"] {
            let err = selected(&["e1", bad]).unwrap_err();
            assert!(err.contains(bad), "{err}");
            assert!(err.contains("e17"), "lists the valid ids: {err}");
        }
        assert!(selected(&["--csv"]).is_err(), "--csv without a value");
    }
}
