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
//!    * a [`ChurnPlan`] partition (sim: dropped at the schedule seam;
//!      cluster: a control-pipe `PART`) freezes the victim's commit floor
//!      → **Stall**, detected within `horizon + O(sampling period)` of the
//!      cut. The cut fires once the victim itself has committed a slot,
//!      so its floor's last advance never precedes the cut;
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
//!
//! Every cluster arm goes through the suite's `run_checked`: the run must
//! still agree and drain (the plane observes, never steers), and every
//! replica must have streamed a series.

use std::sync::Arc;
use std::time::Duration;

use minsync_conformance::semantic_decisions;
use minsync_core::SeededMutation;
use minsync_telemetry::timeseries::TimeSeries;
use minsync_telemetry::watchdog::{Alarm, AlarmClass, Watchdog, WatchdogConfig};
use minsync_telemetry::{watch_name, Registry, Snapshot};
use minsync_transport::cluster::{
    Behavior, ChurnAction, ChurnPlan, ClusterReport, ClusterSpec, ReplicaStats, Trigger,
};
use minsync_types::{check, ProcessId, SystemConfig};

use super::{
    churn_sim, churn_spec, outlasting_cluster_commands, outlasting_commands, run_checked, ticks_ms,
    PlanOracle, CLUSTER_PERIOD_MS, SIM_PERIOD,
};
use crate::Table;

/// Commands per client in the clean cluster arms, so the drain spans at
/// least twice [`MIN_CLEAN_SAMPLES`] sampling periods (192 per client
/// drain in 4–5 periods at n = 4, too close to the floor).
const CLEAN_ARM_COMMANDS: usize = 384;

/// Wall clock every cluster fault arm's log keeps growing for past its
/// fault, sized from the n = 4 clean arm's pace
/// ([`outlasting_cluster_commands`]): five sampling periods, room for the
/// two backlog strikes of the crash arm behind a reconnect backoff.
const FAULT_SPAN: Duration = Duration::from_millis(5 * CLUSTER_PERIOD_MS);

/// Slot at whose commit every fault arm cuts: a partition or crash fires
/// once its victim has committed it (the cluster's silent rider commits
/// nothing, so replica 0 observes its kill).
const CUT_SLOT: u64 = 2;

/// Fewest points a clean cluster replica's series may hold: with fewer,
/// the aggregator replay has no interval to alarm from.
const MIN_CLEAN_SAMPLES: usize = 3;

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

/// Replays each replica's streamed series through a watchdog of its own
/// under `cfg`, its id as the source; returns every alarm raised, replica
/// by replica.
fn replay_replicas(report: &ClusterReport, cfg: WatchdogConfig) -> Vec<Alarm> {
    let replicas = report.replicas.iter();
    replicas
        .flat_map(|r| replay(&mut Watchdog::new(cfg), r.id as u32, &r.series))
        .collect()
}

/// The last sample a replica streamed ([`run_checked`] asserts there is
/// one whenever a sampling period is set).
fn last_sample(r: &ReplicaStats) -> &Snapshot {
    &r.series.latest().expect("checked non-empty").values
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

/// Clean simulator arm: the aggregator watchdog must stay silent over the
/// whole sampled series, and attaching the plane must not move the
/// execution (identical final tick, identical message count).
///
/// Returns `(samples, final ticks, messages)` for the table.
fn sim_clean(n: usize, t: usize, seed: u64, commands_per_client: usize) -> (u64, u64, u64) {
    let system = SystemConfig::new(n, t).expect("valid system");
    let case = format!("E17 sim-clean n={n}");
    let run = |plane| {
        let plan = PlanOracle::default();
        churn_sim(&case, system, seed, commands_per_client, plan, n, plane)
    };
    let (sampled, series, _) = run(Some(Arc::new(Registry::new())));
    let (bare, ..) = run(None);
    let final_ticks = sampled.final_time.ticks();
    assert_eq!(
        (final_ticks, sampled.metrics.messages_sent),
        (bare.final_time.ticks(), bare.metrics.messages_sent),
        "{case}: the health plane perturbed the execution"
    );
    assert!(!series.is_empty(), "{case}: sampling produced no series");
    let mut wd = Watchdog::new(clean_cfg(400));
    let alarms = replay(&mut wd, Watchdog::GLOBAL, &series);
    assert!(alarms.is_empty(), "{case}: clean run raised {alarms:?}");
    // The RTT estimators must actually be feeding the plane: at least one
    // directed link carries a nonzero EWMA by the end of the run.
    let state = &series.latest().expect("non-empty").values;
    assert!(
        state
            .iter()
            .any(|(name, _)| name.starts_with("link.rtt_ewma.")),
        "{case}: no link RTT gauge in the series"
    );
    let self_link = |p| format!("link.rtt_ewma.p{p}.p{p}");
    assert!(
        (0..n).all(|p| state.gauge(&self_link(p)).is_none()),
        "{case}: a self-delivery was exported as a link"
    );
    (
        series.len() as u64,
        final_ticks,
        sampled.metrics.messages_sent,
    )
}

/// The two simulator stall arms: a healed partition and a permanent crash
/// (total isolation), both cutting the victim off once it has committed
/// [`CUT_SLOT`] and freezing its commit floor.
///
/// Returns `(cut tick, first victim alarm tick, horizon)`.
fn sim_stall(n: usize, t: usize, seed: u64, crash: bool) -> (u64, u64, u64) {
    let victim = n - 1;
    // Tight horizon: detection must land while the survivors still have
    // work in flight (the series ends when the drain predicate fires).
    let horizon = 200;
    let system = SystemConfig::new(n, t).expect("valid system");
    // The survivors must still be committing one horizon and the detection
    // slack after the cut, or the series ends before the floor freezes.
    let commands = outlasting_commands(system, seed, horizon + 4 * SIM_PERIOD);
    let case = if crash { "sim-crash" } else { "sim-partition" };
    let (replica, slot) = (victim, CUT_SLOT);
    let cut = Trigger::Floor { replica, slot };
    // The victim holds the top id, so the survivors are `0..victim`.
    let (plan, awaited) = if crash {
        let plan = ChurnPlan::new().step(cut, ChurnAction::Kill { id: victim });
        (plan, victim)
    } else {
        let plan = ChurnPlan::new()
            .step(cut, ChurnAction::Partition { side: vec![victim] })
            .step(Trigger::Ticks(1_900), ChurnAction::Heal);
        (plan, n)
    };
    let plane = Some(Arc::new(Registry::new()));
    let label = format!("E17 {case}");
    let plan = PlanOracle::new(&plan);
    let (_, series, fired) = churn_sim(&label, system, seed, commands, plan, awaited, plane);
    let mut wd = Watchdog::new(WatchdogConfig {
        min_stall_horizon: horizon,
        ..clean_cfg(horizon)
    });
    let alarms = replay(&mut wd, Watchdog::GLOBAL, &series);
    // Survivors that drain everything reachable may legitimately flatten
    // out while the window is open, so the class set — not the node set —
    // is what must stay pure.
    expect_only(case, &alarms, AlarmClass::Stall);
    let first_victim = alarms
        .iter()
        .find(|a| a.node == victim as u32)
        .unwrap_or_else(|| panic!("E17 {case}: victim p{victim} never stalled: {alarms:?}"));
    let latency = first_victim.at.saturating_sub(fired[0]);
    assert!(
        latency <= horizon + 4 * SIM_PERIOD,
        "E17 {case}: stall detected {latency} ticks after the cut \
         (horizon {horizon}, period {SIM_PERIOD})"
    );
    (fired[0], first_victim.at, horizon)
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
            snap.set_gauge(&watch_name(p.index(), "commit_floor"), 1);
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

/// Clean cluster arm at one size: every replica streamed at least
/// [`MIN_CLEAN_SAMPLES`] points, node-local watchdogs silent, aggregator
/// silent, RTT gauges present. Returns the fewest and the most points a
/// replica's series retained, and the run.
fn cluster_clean(n: usize, t: usize, seed: u64) -> (usize, usize, ClusterReport) {
    let spec = churn_spec(n, t, CLEAN_ARM_COMMANDS, seed);
    let report = run_checked("E17 tcp-clean", &spec, Some(&ChurnPlan::new()));
    for r in &report.replicas {
        assert!(
            r.series.len() >= MIN_CLEAN_SAMPLES,
            "E17 tcp-clean n={n}: replica {} streamed {} samples, want ≥ {MIN_CLEAN_SAMPLES}",
            r.id,
            r.series.len()
        );
        let state = last_sample(r);
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
    }
    // Clean horizon: 500 ms of wall clock in 200 µs ticks — far above the
    // honest inter-commit gaps and the post-drain tail a loaded n = 7
    // lineup produces on shared loopback (observed up to ~360 ms), far
    // below the open window of any fault arm.
    let alarms = replay_replicas(&report, clean_cfg(2_500));
    assert!(
        alarms.is_empty(),
        "E17 tcp-clean n={n}: the replicas' series raised {alarms:?}"
    );
    let samples = report.replicas.iter().map(|r| r.series.len());
    let (min, max) = (samples.clone().min(), samples.max());
    (min.unwrap_or(0), max.unwrap_or(0), report)
}

/// Cluster partition arm: `PART` cuts the victim off once it has
/// committed [`CUT_SLOT`], `HEAL` closes the cut 190 ms later, and the
/// victim's own streamed series must show the stall within the horizon of
/// the cut. Returns `(latency ms, horizon ms)`.
fn cluster_stall(n: usize, t: usize, seed: u64, commands: usize) -> (f64, f64) {
    let victim = n - 1;
    let spec = churn_spec(n, t, commands, seed);
    let (replica, slot) = (victim, CUT_SLOT);
    let cut = Trigger::Floor { replica, slot };
    let plan = ChurnPlan::new()
        .step(cut, ChurnAction::Partition { side: vec![victim] })
        .step(Trigger::Ticks(950), ChurnAction::Heal);
    let report = run_checked("E17 tcp-partition", &spec, Some(&plan));
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
    let latency_ms = ticks_ms(&spec, first.at) - report.fired[0].as_secs_f64() * 1000.0;
    let horizon_ms = ticks_ms(&spec, horizon);
    assert!(
        latency_ms <= horizon_ms + 5.0 * CLUSTER_PERIOD_MS as f64 + 40.0,
        "E17 tcp-partition: stall detected {latency_ms:.1} ms after the cut \
         (horizon {horizon_ms:.0} ms)"
    );
    (latency_ms.max(0.0), horizon_ms)
}

/// Cluster crash arm: SIGKILL the silent rider once replica 0 has
/// committed [`CUT_SLOT`], and never restart it. The survivors'
/// connections to the dead peer fall into reconnect backoff while the
/// replicated log keeps broadcasting, so their `link.backlog.p<dead>`
/// gauges pin above the limit → `QueueSaturation`. Returns
/// `(latency ms, peak backlog)`.
fn cluster_crash_backlog(n: usize, t: usize, seed: u64, commands: usize) -> (f64, u64) {
    let dead = n - 1;
    let spec = ClusterSpec {
        riders: vec![Behavior::Silent],
        ..churn_spec(n, t, commands, seed)
    };
    let (replica, slot) = (0, CUT_SLOT);
    let plan = ChurnPlan::new().step(
        Trigger::Floor { replica, slot },
        ChurnAction::Kill { id: dead },
    );
    let report = run_checked("E17 tcp-crash", &spec, Some(&plan));
    let cfg = WatchdogConfig {
        backlog_limit: 4,
        backlog_strikes: 2,
        ..clean_cfg(10_000)
    };
    let first = expect_only(
        "tcp-crash",
        &replay_replicas(&report, cfg),
        AlarmClass::QueueSaturation,
    );
    let backlog = |r| last_sample(r).gauge(&format!("link.backlog.p{dead}"));
    let peak = report
        .replicas
        .iter()
        .filter_map(backlog)
        .max()
        .unwrap_or(0);
    let latency_ms = ticks_ms(&spec, first.at) - report.fired[0].as_secs_f64() * 1000.0;
    (latency_ms.max(0.0), peak)
}

/// Cluster auth arm: an impersonator rider against an authenticated
/// cluster. Every forged stream is severed at the MAC layer, and the
/// per-sample advance of `mesh.auth_rejects` trips `AuthRejectRate` at
/// the aggregator (any post-baseline advance is hostile here — honest
/// traffic never fails a MAC, as E15 asserts). Returns
/// `(detection ms from run start, total rejects)`.
fn cluster_auth(n: usize, t: usize, seed: u64, commands: usize) -> (f64, u64) {
    let spec = ClusterSpec {
        riders: vec![Behavior::Impersonate],
        auth: true,
        ..churn_spec(n, t, commands, seed)
    };
    let report = run_checked("E17 tcp-auth", &spec, Some(&ChurnPlan::new()));
    let cfg = WatchdogConfig {
        auth_reject_limit: 0,
        ..clean_cfg(10_000)
    };
    let first = expect_only(
        "tcp-auth",
        &replay_replicas(&report, cfg),
        AlarmClass::AuthRejectRate,
    );
    let rejects = |r| last_sample(r).counter("mesh.auth_rejects");
    let rejects: u64 = report.replicas.iter().filter_map(rejects).sum();
    assert!(
        rejects >= 1,
        "E17 tcp-auth: no replica recorded a MAC reject"
    );
    (ticks_ms(&spec, first.at), rejects)
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
    // The fault arms below run at n = 4, sized from its clean arm's pace.
    let mut fault_arm_commands = None;
    for &(n, t) in sizes {
        let (min, max, clean) = cluster_clean(n, t, seed);
        if n == 4 {
            let commands = outlasting_cluster_commands(&clean, CLEAN_ARM_COMMANDS, FAULT_SPAN);
            fault_arm_commands = Some(commands);
        }
        table.push_row([
            "clean".to_string(),
            "tcp".to_string(),
            n.to_string(),
            "none".to_string(),
            "none".to_string(),
            "—".to_string(),
            "—".to_string(),
            format!("{min}–{max} samples/replica, local + aggregator silent"),
        ]);
    }

    // Fault arms run at n = 4: the detection mechanics are size-independent
    // and the clean arms above cover the larger lineup.
    for (case, crash, fault) in [
        ("partition", false, "cut p3"),
        ("crash", true, "isolate p3 forever"),
    ] {
        let (cut, at, horizon) = sim_stall(4, 1, seed, crash);
        table.push_row([
            case.to_string(),
            "sim".to_string(),
            "4".to_string(),
            format!("{fault} at its slot {CUT_SLOT} (t={cut})"),
            "stall".to_string(),
            format!("t={at}"),
            format!("≤ {} ticks", horizon + 4 * SIM_PERIOD),
            format!("{} ticks after the cut", at - cut),
        ]);
    }
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

    let fault_arm_commands = fault_arm_commands.expect("every size list has n = 4");
    let (latency_ms, horizon_ms) = cluster_stall(4, 1, seed, fault_arm_commands);
    table.push_row([
        "partition".to_string(),
        "tcp".to_string(),
        "4".to_string(),
        format!("PART p3 at its slot {CUT_SLOT}, HEAL 190 ms later"),
        "stall".to_string(),
        format!("{latency_ms:.1} ms"),
        format!(
            "≤ {:.0} ms",
            horizon_ms + 5.0 * CLUSTER_PERIOD_MS as f64 + 40.0
        ),
        format!("horizon {horizon_ms:.0} ms, period {CLUSTER_PERIOD_MS} ms"),
    ]);
    let (latency_ms, peak) = cluster_crash_backlog(4, 1, seed, fault_arm_commands);
    table.push_row([
        "crash".to_string(),
        "tcp".to_string(),
        "4".to_string(),
        format!("SIGKILL silent rider at p0's slot {CUT_SLOT}, no restart"),
        "queue_saturation".to_string(),
        format!("{latency_ms:.1} ms"),
        "backlog ≥ 4 × 2 samples".to_string(),
        format!("peak backlog {peak} frames"),
    ]);
    let (detect_ms, rejects) = cluster_auth(4, 1, seed, fault_arm_commands);
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
        let (cut, at, horizon) = sim_stall(4, 1, 7, false);
        assert!(at >= cut + horizon, "cannot detect faster than the horizon");
    }

    #[test]
    fn sim_crash_stalls_the_victim() {
        let (cut, at, horizon) = sim_stall(4, 1, 7, true);
        assert!(at - cut >= horizon);
    }

    #[test]
    fn seeded_mutation_trips_divergence() {
        let (reports, total, slot) = sim_divergence(20_000);
        assert!(reports <= total);
        assert_eq!(slot, 1, "single-shot consensus reports slot 1");
    }
}
