//! E17 — the live health plane: periodic stat samples, per-peer RTT
//! gauges, and the online invariant watchdog, measured end to end.
//!
//! The telemetry layer is *live*: every substrate can sample its metrics
//! registry while the run is in flight — a TCP replica prints each sample
//! as a `SAMPLE <at>` line and a `STAT v1` block, the format of its final
//! report — the transports estimate per-peer RTT and backlog, and
//! [`minsync_telemetry::watchdog::Watchdog`] folds the sampled series into
//! typed alarms. E17 answers two questions about that plane:
//!
//! 1. **Is it silent when nothing is wrong?** Clean runs at `n ∈ {4, 7}`
//!    on the simulator and on a real TCP cluster must raise zero alarms —
//!    both at the node-local watchdogs (`watchdog.alarms*` counters in the
//!    sampled series) and at an aggregator replaying every sampled series
//!    through tuned thresholds. The simulator arm also asserts the
//!    plane is *semantically passive*: the identical seed with sampling,
//!    watch gauges, and registry attached finishes at the identical
//!    virtual tick with the identical message count as a bare run.
//! 2. **Does each fault class trip the matching alarm, and how fast?**
//!    Faults are injected through the machinery earlier PRs built, never
//!    through test-only seams:
//!    * a [`ChurnOracle`] partition (sim) and a control-pipe `PART`
//!      (cluster) freeze the victim's commit floor → **Stall**, detected
//!      within `horizon + O(sampling period)` of the cut;
//!    * a crash (sim: permanent isolation; cluster: SIGKILL of the silent
//!      rider, no restart) → **Stall** from the victim's flat floor on the
//!      simulator, **QueueSaturation** on the cluster as the survivors'
//!      send queues to the dead peer pin above the limit;
//!    * an impersonator rider against an authenticated cluster →
//!      **AuthRejectRate** as the MAC-reject counter advances between
//!      samples;
//!    * E14's seeded `AcQuorumOffByOne` mutation under the conformance
//!      suite's semantic schedule → two halves decide different values,
//!      and an aggregator fed each replica's checkpoint report trips
//!      **Divergence** at the first cross-half report.
//!
//!    **QuorumRegress** is asserted to *never* fire: the protocol's
//!    cumulative-ack floors are monotone by construction, so that class
//!    firing anywhere would itself be a bug.
//!
//! Detection latency is *measured*, not assumed: the experiment scans each
//! sampled series for the first sample at which the watchdog raises
//! the expected class and reports the gap back to the injection time,
//! asserting it stays inside `horizon + a few sampling periods + slack`.
//!
//! Thresholds are tuned per substrate and per arm (the watchdog's
//! documented contract): clean arms run wide horizons so honest
//! inter-commit gaps never trip, detection arms run tight ones so the
//! fault is caught while its window is still open. One structural fact
//! keeps the stall detector honest everywhere: `watch.p<i>.submitted` is
//! the slot *target* (a deliberate upper bound), so a drained replica
//! reports a small positive pending count forever — the clean-arm horizon
//! must therefore exceed the post-drain sampling tail, which the arms
//! below account for.

use std::sync::Arc;
use std::time::Duration;

use minsync_adversary::ChurnOracle;
use minsync_conformance::semantic_decisions;
use minsync_core::{ConsensusConfig, SeededMutation};
use minsync_net::sim::SimBuilder;
use minsync_net::NetworkTopology;
use minsync_smr::{ReplicaNode, SmrLimits, SmrMsg};
use minsync_telemetry::timeseries::TimeSeries;
use minsync_telemetry::watchdog::{Alarm, AlarmClass, Watchdog, WatchdogConfig};
use minsync_telemetry::{watch_name, Registry, Snapshot};
use minsync_transport::cluster::{
    run_churn_cluster, Behavior, ChurnAction, ChurnPlan, ClusterReport, ClusterSpec,
};
use minsync_types::{check, ProcessId, SystemConfig};
use minsync_workload::{ArrivalProcess, Batch, DrainCursor, WorkloadSpec};

use super::churn_spec;
use crate::Table;

type Msg = SmrMsg<Batch>;

/// Wall-clock tick of every cluster child (`at` stamps in the streamed
/// series are multiples of this).
const TICK: Duration = Duration::from_micros(200);

/// Sampling period of every cluster arm, in wall-clock milliseconds.
const CLUSTER_PERIOD_MS: u64 = 10;

/// Commands per client in the cluster fault arms, so the log still grows
/// when the fault lands 8–10 ms in (8 per client drain in a few ms).
const FAULT_ARM_COMMANDS: usize = 64;

/// Sampling period of every simulator arm, in virtual ticks.
const SIM_PERIOD: u64 = 25;

/// Simulator checkpoint-retry period (ticks): partitioned/isolated
/// replicas must repair their log tail after the window closes, exactly as
/// in E13.
const CKPT_RETRY: u64 = 50;

/// Virtual tick at which every simulator fault window opens (mid-arrivals
/// for the workloads E17 uses).
const FAULT_AT: u64 = 100;

/// Converts a child-tick stamp to milliseconds.
fn ticks_to_ms(ticks: u64) -> f64 {
    ticks as f64 * TICK.as_secs_f64() * 1000.0
}

/// Aggregator thresholds for *clean* arms: horizons wide enough that
/// honest inter-commit gaps and the post-drain sampling tail never trip,
/// with every other detector at its production default.
fn clean_cfg(min_stall_horizon: u64) -> WatchdogConfig {
    WatchdogConfig {
        min_stall_horizon,
        rtt_multiplier: 8,
        ..WatchdogConfig::default()
    }
}

/// Replays every point of `series` through `wd` under one source id,
/// returning the alarms in raise order.
fn replay(wd: &mut Watchdog, source: u32, series: &TimeSeries) -> Vec<Alarm> {
    let mut raised = Vec::new();
    for point in series.points() {
        raised.extend(wd.observe(source, point.at, &point.values));
    }
    raised
}

/// Distinct alarm classes in `alarms`, in code order.
fn classes_of(alarms: &[Alarm]) -> Vec<AlarmClass> {
    let mut classes: Vec<AlarmClass> = alarms.iter().map(|a| a.class).collect();
    classes.sort();
    classes.dedup();
    classes
}

/// Panics unless every alarm is of `expected` class and at least one
/// fired; returns the first alarm.
fn expect_only(case: &str, alarms: &[Alarm], expected: AlarmClass) -> Alarm {
    assert!(
        !alarms.is_empty(),
        "E17 {case}: the fault raised no {expected:?} alarm"
    );
    assert_eq!(
        classes_of(alarms),
        vec![expected],
        "E17 {case}: unexpected alarm classes {:?}",
        classes_of(alarms)
    );
    alarms[0]
}

// ---------------------------------------------------------------------------
// Simulator arms
// ---------------------------------------------------------------------------

/// Outcome of one sampled simulator run.
struct SimRun {
    series: TimeSeries,
    final_ticks: u64,
    messages_sent: u64,
}

/// One SMR simulator run with the full health plane attached (watch
/// gauges on every replica, shared registry, periodic sampling), under an
/// optional churn oracle.
///
/// The run stops once replicas `0..awaited` have drained the workload
/// (`n` waits for everyone; the crash arm waits for its survivors).
fn sim_run(
    n: usize,
    t: usize,
    seed: u64,
    commands_per_client: usize,
    oracle: Option<ChurnOracle<Msg>>,
    awaited: usize,
    attach_plane: bool,
) -> SimRun {
    let system = SystemConfig::new(n, t).expect("valid system");
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
    let batch = 4;
    let target = pop.slots_upper_bound(batch);
    let cfg = ConsensusConfig::paper(system);
    let registry = Arc::new(Registry::new());

    let mut builder = SimBuilder::new(NetworkTopology::all_timely(n, 3))
        .seed(seed)
        .max_events(100_000_000)
        .classify(SmrMsg::classify);
    if attach_plane {
        builder = builder
            .registry(Arc::clone(&registry))
            .sample_stats(SIM_PERIOD);
    }
    if let Some(oracle) = oracle {
        builder = builder.with_schedule_oracle(oracle);
    }
    for i in 0..n {
        let mut node =
            ReplicaNode::new(cfg, pop.source_for(i, batch), target).with_limits(SmrLimits {
                ckpt_retry: CKPT_RETRY,
                ..SmrLimits::default()
            });
        if attach_plane {
            node = node.with_watch(&registry, i);
        }
        builder = builder.node(node);
    }
    let mut sim = builder.build();
    let mut drained = DrainCursor::new(awaited, total);
    let report = sim.run_until(|outs| drained.advance(outs, |o| (o.process, &o.event)));
    SimRun {
        series: sim.stat_series().clone(),
        final_ticks: report.final_time.ticks(),
        messages_sent: report.metrics.messages_sent,
    }
}

/// Clean simulator arm: the aggregator watchdog must stay silent over the
/// whole sampled series, and attaching the plane must not move the
/// execution (identical final tick, identical message count).
///
/// Returns `(samples, final ticks, messages)` for the table.
fn sim_clean(n: usize, t: usize, seed: u64, commands_per_client: usize) -> (u64, u64, u64) {
    let sampled = sim_run(n, t, seed, commands_per_client, None, n, true);
    let bare = sim_run(n, t, seed, commands_per_client, None, n, false);
    assert_eq!(
        (sampled.final_ticks, sampled.messages_sent),
        (bare.final_ticks, bare.messages_sent),
        "E17 sim-clean n={n}: the health plane perturbed the execution"
    );
    assert!(
        !sampled.series.is_empty(),
        "E17 sim-clean n={n}: sampling produced no series"
    );
    let mut wd = Watchdog::new(clean_cfg(400));
    let alarms = replay(&mut wd, Watchdog::GLOBAL, &sampled.series);
    assert!(
        alarms.is_empty(),
        "E17 sim-clean n={n}: clean run raised {alarms:?}"
    );
    // The RTT estimators must actually be feeding the plane: at least one
    // directed link carries a nonzero EWMA by the end of the run.
    let state = &sampled.series.latest().expect("non-empty").values;
    assert!(
        state
            .iter()
            .any(|(name, _)| name.starts_with("link.rtt_ewma.")),
        "E17 sim-clean n={n}: no link RTT gauge in the series"
    );
    (
        sampled.series.len() as u64,
        sampled.final_ticks,
        sampled.messages_sent,
    )
}

/// The two simulator stall arms: a healed partition and a permanent crash
/// (total isolation), both freezing the victim's commit floor.
///
/// Returns `(first victim alarm tick, detection latency in ticks,
/// horizon)`.
fn sim_stall(n: usize, t: usize, seed: u64, crash: bool) -> (u64, u64, u64) {
    let victim = n - 1;
    let commands_per_client = 16;
    // Tight horizon: detection must land while the survivors still have
    // work in flight (the series ends when the drain predicate fires).
    let horizon = 200;
    let case = if crash { "sim-crash" } else { "sim-partition" };
    // The victim holds the top id, so the survivors are `0..victim`.
    let (oracle, awaited) = if crash {
        (
            ChurnOracle::new().isolate(FAULT_AT, u64::MAX, ProcessId::new(victim)),
            victim,
        )
    } else {
        (
            ChurnOracle::new().partition(FAULT_AT, 2_000, vec![ProcessId::new(victim)]),
            n,
        )
    };
    let run = sim_run(n, t, seed, commands_per_client, Some(oracle), awaited, true);
    let mut wd = Watchdog::new(WatchdogConfig {
        min_stall_horizon: horizon,
        ..clean_cfg(horizon)
    });
    let alarms = replay(&mut wd, Watchdog::GLOBAL, &run.series);
    // Survivors that drain everything reachable may legitimately flatten
    // out while the window is open, so the class set — not the node set —
    // is what must stay pure.
    expect_only(case, &alarms, AlarmClass::Stall);
    let first_victim = alarms
        .iter()
        .find(|a| a.node == victim as u32)
        .unwrap_or_else(|| panic!("E17 {case}: victim p{victim} never stalled: {alarms:?}"));
    let latency = first_victim.at.saturating_sub(FAULT_AT);
    assert!(
        latency <= horizon + 4 * SIM_PERIOD,
        "E17 {case}: stall detected {latency} ticks after the cut \
         (horizon {horizon}, period {SIM_PERIOD})"
    );
    (first_victim.at, latency, horizon)
}

/// The divergence arm: E14's seeded `AcQuorumOffByOne` mutation under the
/// conformance suite's semantic schedule ([`semantic_decisions`]: delay
/// cross-half `READY`, `EA_COORD`, and value-carrying `EA_RELAY` traffic on
/// an asynchronous network) makes `{p0, p1}` and `{p2, p3}` decide
/// different values; an
/// aggregator watchdog fed each replica's checkpoint report in decision
/// order trips `Divergence` at the first cross-half report.
///
/// The same recorded schedule on the *unmutated* stack terminates with all
/// four processes deciding one value (asserted through
/// [`minsync_types::check`]), and the identical aggregator stays silent —
/// the alarm follows the bug, not the harness.
///
/// Returns `(reports until detection, total reports, divergent slot)`.
fn sim_divergence(max_events: u64) -> (usize, usize, u64) {
    // One checkpoint report per decision, in decision order: slot 1, the
    // decided value standing in for the prefix digest (u64-for-u64).
    fn feed(decisions: &[(ProcessId, u64)]) -> (Watchdog, Vec<Alarm>) {
        let mut wd = Watchdog::new(WatchdogConfig::default());
        let mut alarms = Vec::new();
        for (i, (p, v)) in decisions.iter().enumerate() {
            let mut snap = Snapshot::empty();
            snap.set_gauge(&watch_name(p.index(), "ckpt_slot"), 1);
            snap.set_gauge(&watch_name(p.index(), "ckpt_digest"), *v);
            alarms.extend(wd.observe(p.index() as u32, i as u64 + 1, &snap));
        }
        (wd, alarms)
    }

    let broken = semantic_decisions(Some(SeededMutation::AcQuorumOffByOne), max_events);
    assert!(
        !check::agreement(broken.iter().copied()).is_empty(),
        "E17 sim-divergence: the mutated run did not split ({broken:?})"
    );
    let (wd, alarms) = feed(&broken);
    let first = expect_only("sim-divergence", &alarms, AlarmClass::Divergence);
    assert_eq!(
        wd.raised_of(AlarmClass::Divergence),
        1,
        "one slot, one alarm"
    );

    let sound = semantic_decisions(None, max_events);
    let found = check::consensus(ProcessId::all(4), sound.iter().copied(), |v| {
        [3, 8].contains(v)
    });
    assert!(
        found.is_empty(),
        "E17 sim-divergence: the sound stack under the same schedule: {found:?}"
    );
    let (_, clean_alarms) = feed(&sound);
    assert!(
        clean_alarms.is_empty(),
        "E17 sim-divergence: sound decisions tripped {clean_alarms:?}"
    );
    (first.at as usize, broken.len(), first.detail)
}

// ---------------------------------------------------------------------------
// Cluster arms
// ---------------------------------------------------------------------------

fn cluster_spec(n: usize, t: usize, commands_per_client: usize, seed: u64) -> ClusterSpec {
    ClusterSpec {
        tick: TICK,
        stats_period: Some(Duration::from_millis(CLUSTER_PERIOD_MS)),
        ..churn_spec(n, t, commands_per_client, seed)
    }
}

/// Asserts the run itself stayed healthy (the plane must observe, never
/// steer) and that every correct replica streamed a series.
fn assert_cluster_healthy(case: &str, report: &ClusterReport) {
    let violations = report.violations();
    assert!(violations.is_empty(), "E17 {case}: {violations:?}");
    for r in &report.replicas {
        assert!(
            !r.series.is_empty(),
            "E17 {case}: replica {} streamed no samples",
            r.id
        );
    }
}

/// Clean cluster arm at one size: node-local watchdogs silent, aggregator
/// silent, RTT gauges present. Returns the largest count of points a
/// replica's series retained.
fn cluster_clean(n: usize, t: usize, seed: u64) -> u64 {
    let spec = cluster_spec(n, t, 8, seed);
    let report = run_churn_cluster(&spec, &ChurnPlan::new())
        .unwrap_or_else(|e| panic!("E17 tcp-clean n={n}: cluster failed: {e}"));
    assert_cluster_healthy("tcp-clean", &report);
    // Clean horizon: 500 ms of wall clock in 200 µs ticks — far above the
    // honest inter-commit gaps and the post-drain tail a loaded n = 7
    // lineup produces on shared loopback (observed up to ~360 ms), far
    // below the open window of any fault arm.
    let mut samples = 0;
    for r in &report.replicas {
        let state = &r.series.latest().expect("asserted non-empty").values;
        assert_eq!(
            state.counter("watchdog.alarms").unwrap_or(0),
            0,
            "E17 tcp-clean n={n}: replica {} local watchdog fired",
            r.id
        );
        assert!(
            (0..n).any(|p| state
                .gauge(&format!("link.rtt_ewma.p{p}"))
                .is_some_and(|v| v > 0)),
            "E17 tcp-clean n={n}: replica {} observed no peer RTT",
            r.id
        );
        let mut wd = Watchdog::new(clean_cfg(2_500));
        let alarms = replay(&mut wd, r.id as u32, &r.series);
        assert!(
            alarms.is_empty(),
            "E17 tcp-clean n={n}: replica {} series raised {alarms:?}",
            r.id
        );
        samples = samples.max(r.series.len() as u64);
    }
    samples
}

/// Cluster partition arm: `PART` cuts the victim off mid-run, `HEAL`
/// closes the cut, and the victim's own streamed series must show the
/// stall within the horizon. Returns `(latency ms, horizon ms)`.
fn cluster_stall(n: usize, t: usize, seed: u64) -> (f64, f64) {
    let victim = n - 1;
    let part_at_ms = 10;
    let spec = cluster_spec(n, t, FAULT_ARM_COMMANDS, seed);
    let plan = ChurnPlan::new()
        .step(
            Duration::from_millis(part_at_ms),
            ChurnAction::Partition { side: vec![victim] },
        )
        .step(Duration::from_millis(200), ChurnAction::Heal);
    let report = run_churn_cluster(&spec, &plan)
        .unwrap_or_else(|e| panic!("E17 tcp-partition n={n}: cluster failed: {e}"));
    assert_cluster_healthy("tcp-partition", &report);
    // 50 ms stall horizon in ticks; detection must land inside the 190 ms
    // window.
    let horizon = 250;
    let victim_series = &report
        .replicas
        .iter()
        .find(|r| r.id == victim)
        .expect("victim is correct and reports")
        .series;
    let mut wd = Watchdog::new(WatchdogConfig {
        min_stall_horizon: horizon,
        ..clean_cfg(horizon)
    });
    let alarms = replay(&mut wd, victim as u32, victim_series);
    let first = expect_only("tcp-partition", &alarms, AlarmClass::Stall);
    assert_eq!(first.node, victim as u32, "the victim's own floor stalled");
    let latency_ms = ticks_to_ms(first.at) - part_at_ms as f64;
    let horizon_ms = ticks_to_ms(horizon);
    assert!(
        latency_ms <= horizon_ms + 5.0 * CLUSTER_PERIOD_MS as f64 + 40.0,
        "E17 tcp-partition: stall detected {latency_ms:.1} ms after the cut \
         (horizon {horizon_ms:.0} ms)"
    );
    (latency_ms.max(0.0), horizon_ms)
}

/// Cluster crash arm: SIGKILL the silent rider and never restart it. The
/// survivors' connections to the dead peer fall into reconnect backoff while
/// the replicated log keeps broadcasting, so their `link.backlog.p<dead>`
/// gauges pin above the limit → `QueueSaturation`. Returns
/// `(latency ms, peak backlog)`.
fn cluster_crash_backlog(n: usize, t: usize, seed: u64) -> (f64, u64) {
    let dead = n - 1;
    let kill_at_ms = 8;
    let mut spec = cluster_spec(n, t, FAULT_ARM_COMMANDS, seed);
    spec.riders = vec![Behavior::Silent];
    let plan = ChurnPlan::new().step(
        Duration::from_millis(kill_at_ms),
        ChurnAction::Kill { id: dead },
    );
    let report = run_churn_cluster(&spec, &plan)
        .unwrap_or_else(|e| panic!("E17 tcp-crash n={n}: cluster failed: {e}"));
    assert_cluster_healthy("tcp-crash", &report);
    let cfg = WatchdogConfig {
        backlog_limit: 4,
        backlog_strikes: 2,
        ..clean_cfg(10_000)
    };
    let mut all = Vec::new();
    let mut peak = 0;
    for r in &report.replicas {
        let mut wd = Watchdog::new(cfg);
        all.extend(replay(&mut wd, r.id as u32, &r.series));
        let last = &r.series.latest().expect("asserted non-empty").values;
        peak = peak.max(last.gauge(&format!("link.backlog.p{dead}")).unwrap_or(0));
    }
    let first = expect_only("tcp-crash", &all, AlarmClass::QueueSaturation);
    let latency_ms = ticks_to_ms(first.at) - kill_at_ms as f64;
    (latency_ms.max(0.0), peak)
}

/// Cluster auth arm: an impersonator rider against an authenticated
/// cluster. Every forged stream is severed at the MAC layer, and the
/// per-sample advance of `mesh.auth_rejects` trips `AuthRejectRate` at
/// the aggregator (any post-baseline advance is hostile here — honest
/// traffic never fails a MAC, as E15 asserts). Returns
/// `(detection ms from run start, total rejects)`.
fn cluster_auth(n: usize, t: usize, seed: u64) -> (f64, u64) {
    let mut spec = cluster_spec(n, t, FAULT_ARM_COMMANDS, seed);
    spec.riders = vec![Behavior::Impersonate];
    spec.auth = true;
    let report = run_churn_cluster(&spec, &ChurnPlan::new())
        .unwrap_or_else(|e| panic!("E17 tcp-auth n={n}: cluster failed: {e}"));
    assert_cluster_healthy("tcp-auth", &report);
    let cfg = WatchdogConfig {
        auth_reject_limit: 0,
        ..clean_cfg(10_000)
    };
    let mut all = Vec::new();
    let mut rejects = 0;
    for r in &report.replicas {
        let mut wd = Watchdog::new(cfg);
        all.extend(replay(&mut wd, r.id as u32, &r.series));
        let last = &r.series.latest().expect("asserted non-empty").values;
        rejects += last.counter("mesh.auth_rejects").unwrap_or(0);
    }
    let first = expect_only("tcp-auth", &all, AlarmClass::AuthRejectRate);
    assert!(
        rejects >= 1,
        "E17 tcp-auth: no replica recorded a MAC reject"
    );
    (ticks_to_ms(first.at), rejects)
}

// ---------------------------------------------------------------------------
// The experiment
// ---------------------------------------------------------------------------

/// Runs E17.
///
/// # Panics
///
/// Panics if a clean run raises any alarm, a fault arm misses its class or
/// its latency bound, the health plane perturbs a simulator execution, or
/// `QuorumRegress` fires anywhere.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E17 — Live health plane: clean-run silence and per-fault detection latency",
        [
            "case",
            "substrate",
            "n",
            "fault",
            "alarm",
            "detect",
            "bound",
            "note",
        ],
    );
    let sizes: &[(usize, usize)] = if quick { &[(4, 1)] } else { &[(4, 1), (7, 2)] };
    let seed = 17;

    for &(n, t) in sizes {
        let (samples, ticks, msgs) = sim_clean(n, t, seed, if quick { 8 } else { 16 });
        table.push_row([
            "clean".to_string(),
            "sim".to_string(),
            n.to_string(),
            "none".to_string(),
            "none".to_string(),
            "—".to_string(),
            "—".to_string(),
            format!("{samples} samples, {ticks} ticks, {msgs} msgs (passivity asserted)"),
        ]);
    }
    for &(n, t) in sizes {
        let samples = cluster_clean(n, t, seed);
        table.push_row([
            "clean".to_string(),
            "tcp".to_string(),
            n.to_string(),
            "none".to_string(),
            "none".to_string(),
            "—".to_string(),
            "—".to_string(),
            format!("{samples} samples/replica max, local + aggregator silent"),
        ]);
    }

    // Fault arms run at n = 4: the detection mechanics are size-independent
    // and the clean arms above cover the larger lineup.
    let (at, latency, horizon) = sim_stall(4, 1, seed, false);
    table.push_row([
        "partition".to_string(),
        "sim".to_string(),
        "4".to_string(),
        format!("cut p3 at t={FAULT_AT}"),
        "stall".to_string(),
        format!("t={at}"),
        format!("≤ {} ticks", horizon + 4 * SIM_PERIOD),
        format!("{latency} ticks after the cut"),
    ]);
    let (at, latency, horizon) = sim_stall(4, 1, seed, true);
    table.push_row([
        "crash".to_string(),
        "sim".to_string(),
        "4".to_string(),
        format!("isolate p3 at t={FAULT_AT}, forever"),
        "stall".to_string(),
        format!("t={at}"),
        format!("≤ {} ticks", horizon + 4 * SIM_PERIOD),
        format!("{latency} ticks after the crash"),
    ]);
    let (reports, total, slot) = sim_divergence(if quick { 20_000 } else { 200_000 });
    table.push_row([
        "divergence".to_string(),
        "sim".to_string(),
        "4".to_string(),
        "AcQuorumOffByOne + semantic schedule".to_string(),
        "divergence".to_string(),
        format!("report {reports}/{total}"),
        "first cross-half report".to_string(),
        format!("slot {slot}; sound stack decides 4/4, one value, under the same schedule"),
    ]);

    let (latency_ms, horizon_ms) = cluster_stall(4, 1, seed);
    table.push_row([
        "partition".to_string(),
        "tcp".to_string(),
        "4".to_string(),
        "PART p3 at +10 ms, HEAL at +200 ms".to_string(),
        "stall".to_string(),
        format!("{latency_ms:.1} ms"),
        format!(
            "≤ {:.0} ms",
            horizon_ms + 5.0 * CLUSTER_PERIOD_MS as f64 + 40.0
        ),
        format!("horizon {horizon_ms:.0} ms, period {CLUSTER_PERIOD_MS} ms"),
    ]);
    let (latency_ms, peak) = cluster_crash_backlog(4, 1, seed);
    table.push_row([
        "crash".to_string(),
        "tcp".to_string(),
        "4".to_string(),
        "SIGKILL silent rider at +8 ms, no restart".to_string(),
        "queue_saturation".to_string(),
        format!("{latency_ms:.1} ms"),
        "backlog ≥ 4 × 2 samples".to_string(),
        format!("peak backlog {peak} frames"),
    ]);
    let (detect_ms, rejects) = cluster_auth(4, 1, seed);
    table.push_row([
        "impersonate".to_string(),
        "tcp".to_string(),
        "4".to_string(),
        "forged identities vs per-frame MACs".to_string(),
        "auth_reject_rate".to_string(),
        format!("{detect_ms:.1} ms"),
        "first post-baseline advance".to_string(),
        format!("{rejects} rejects severed"),
    ]);

    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clean_is_silent_and_passive() {
        let (samples, ticks, msgs) = sim_clean(4, 1, 7, 4);
        assert!(samples > 0 && ticks > 0 && msgs > 0);
    }

    #[test]
    fn sim_partition_stalls_the_victim() {
        let (at, latency, horizon) = sim_stall(4, 1, 7, false);
        assert!(at >= FAULT_AT + horizon);
        assert!(latency >= horizon, "cannot detect faster than the horizon");
    }

    #[test]
    fn sim_crash_stalls_the_victim() {
        let (_, latency, horizon) = sim_stall(4, 1, 7, true);
        assert!(latency >= horizon);
    }

    #[test]
    fn seeded_mutation_trips_divergence() {
        let (reports, total, slot) = sim_divergence(20_000);
        assert!(reports <= total);
        assert_eq!(slot, 1, "single-shot consensus reports slot 1");
    }
}
