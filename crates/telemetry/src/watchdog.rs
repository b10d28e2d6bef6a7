//! The online invariant watchdog: typed liveness/safety alarms computed
//! from periodic metric samples while the run is still in flight.
//!
//! The watchdog is pure and substrate-agnostic: it consumes nothing but
//! `(source, at, values)` observations — whole registry [`Snapshot`]s,
//! such as the points of a [`TimeSeries`](crate::timeseries::TimeSeries)
//! — and emits typed [`Alarm`]s. It never inspects protocol state, so the
//! same engine runs inside a `minsync-node` process (self-monitoring its
//! own registry), beside the simulator (one global registry carrying
//! every replica), and at a cluster aggregator (one series per remote
//! node).
//!
//! ## Metric-name contract
//!
//! Observations are keyed on well-known names:
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `watch.p<i>.commit_floor` | gauge | replica `i`'s contiguous committed-slot floor |
//! | `watch.p<i>.ack_floor` | gauge | replica `i`'s cumulative ack (quorum) floor |
//! | `watch.p<i>.submitted` | gauge | replica `i`'s slot target; `submitted − commit_floor` is pending |
//! | `watch.p<i>.ckpt_digest` | gauge | digest of `i`'s committed prefix up to `commit_floor` |
//! | `link.rtt_ewma.*` | gauge | per-directed-link RTT estimate, in ticks |
//! | `link.backlog.*` | gauge | per-peer outbound queue depth |
//! | `mesh.auth_rejects` | counter | authentication rejects at the transport |
//!
//! ## Alarm classes
//!
//! * **Stall** — a replica's commit floor has been flat while commands were
//!   pending for longer than the stall horizon. The horizon is *derived
//!   from the observed network*: `max(min_stall_horizon, rtt_multiplier ×
//!   max(link.rtt_ewma.*))`, so a slow-but-moving network widens the
//!   window instead of tripping it.
//! * **Divergence** — two replicas reported different commit digests for
//!   the same commit floor. This is the online mirror of the
//!   post-mortem digest comparison every experiment performs.
//! * **QuorumRegress** — a replica's ack (quorum) floor moved backwards,
//!   which the protocol's cumulative-ack design forbids.
//! * **QueueSaturation** — an outbound backlog gauge stayed at or above
//!   the limit for `backlog_strikes` consecutive observations.
//! * **AuthRejectRate** — the transport's MAC-reject counter advanced
//!   faster than the configured per-observation budget.
//!
//! Alarms are returned to the caller, retained in a bounded history,
//! mirrored into an attached trace ring as [`TraceKind::Alarm`] events,
//! and surfaced in `STAT v1` via `watchdog.alarms.*` counters when a
//! registry is attached — so a post-mortem snapshot shows what the live
//! plane saw.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use crate::registry::{Counter, MetricValue, Registry, Snapshot};
use crate::trace::{TraceKind, TraceRecorder};

/// Gauge-name prefix of the per-replica health gauges.
pub const WATCH_PREFIX: &str = "watch.p";

/// Builds the health-gauge name for replica `node`, field `field` (e.g.
/// `watch_name(3, "commit_floor")` → `"watch.p3.commit_floor"`).
pub fn watch_name(node: usize, field: &str) -> String {
    format!("{WATCH_PREFIX}{node}.{field}")
}

/// The typed alarm classes (codes are stable wire values used by
/// [`TraceKind::Alarm`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AlarmClass {
    /// Commit floor flat while submissions were pending, past the horizon.
    Stall,
    /// Conflicting commit digests for one checkpointed slot.
    Divergence,
    /// An ack/quorum floor moved backwards.
    QuorumRegress,
    /// An outbound backlog pinned at/above the limit.
    QueueSaturation,
    /// Transport auth rejects advancing past the per-observation budget.
    AuthRejectRate,
}

impl AlarmClass {
    /// Every class, in code order.
    pub const ALL: [AlarmClass; 5] = [
        AlarmClass::Stall,
        AlarmClass::Divergence,
        AlarmClass::QuorumRegress,
        AlarmClass::QueueSaturation,
        AlarmClass::AuthRejectRate,
    ];

    /// Stable numeric code (1-based; 0 is reserved).
    pub fn code(self) -> u32 {
        match self {
            AlarmClass::Stall => 1,
            AlarmClass::Divergence => 2,
            AlarmClass::QuorumRegress => 3,
            AlarmClass::QueueSaturation => 4,
            AlarmClass::AuthRejectRate => 5,
        }
    }

    /// Stable text label (used in `watchdog.alarms.<label>` counters).
    pub fn label(self) -> &'static str {
        match self {
            AlarmClass::Stall => "stall",
            AlarmClass::Divergence => "divergence",
            AlarmClass::QuorumRegress => "quorum_regress",
            AlarmClass::QueueSaturation => "queue_saturation",
            AlarmClass::AuthRejectRate => "auth_reject_rate",
        }
    }
}

/// One raised alarm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Alarm {
    /// What tripped.
    pub class: AlarmClass,
    /// The replica the evidence points at ([`Watchdog::GLOBAL`] when the
    /// evidence is not attributable to one replica).
    pub node: u32,
    /// Observation clock when the alarm was raised.
    pub at: u64,
    /// Class-specific evidence: flat-for duration (stall), slot
    /// (divergence), floor regression (quorum), backlog depth
    /// (saturation), reject delta (auth).
    pub detail: u64,
}

/// Tunable detection thresholds. Defaults suit tick-denominated clocks in
/// the few-thousand-ticks-per-run regime; experiments tighten or widen
/// them per substrate.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Stall horizon floor, in observation-clock units.
    pub min_stall_horizon: u64,
    /// Multiplier over the max observed `link.rtt_ewma.*` when deriving
    /// the stall horizon.
    pub rtt_multiplier: u64,
    /// Backlog depth at/above which an observation counts as a strike.
    pub backlog_limit: u64,
    /// Consecutive strikes before a [`AlarmClass::QueueSaturation`] fires.
    pub backlog_strikes: u32,
    /// Max tolerated `mesh.auth_rejects` advance between observations.
    pub auth_reject_limit: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            min_stall_horizon: 2_000,
            rtt_multiplier: 64,
            backlog_limit: 1_024,
            backlog_strikes: 3,
            auth_reject_limit: 64,
        }
    }
}

/// Per-replica detection state.
#[derive(Debug, Default)]
struct NodeState {
    commit_floor: u64,
    floor_changed_at: u64,
    seen: bool,
    stalled: bool,
    ack_floor: Option<u64>,
}

/// Per-source (per observed registry) state for metrics that are not
/// replica-scoped by name.
#[derive(Debug, Default)]
struct SourceState {
    auth_rejects: Option<u64>,
    backlog_strikes: u32,
    saturated: bool,
}

/// One checkpoint-slot record for divergence comparison.
#[derive(Debug)]
struct CkptEntry {
    digest: u64,
    alarmed: bool,
}

/// Interned alarm counters (`watchdog.alarms` + one per class).
#[derive(Debug)]
struct AlarmCounters {
    total: Counter,
    per_class: Vec<(AlarmClass, Counter)>,
}

/// The watchdog engine. See the [module docs](self) for the detection
/// rules and the metric-name contract.
#[derive(Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    trace: Option<Arc<TraceRecorder>>,
    counters: Option<AlarmCounters>,
    nodes: BTreeMap<u32, NodeState>,
    sources: BTreeMap<u32, SourceState>,
    ckpts: BTreeMap<u64, CkptEntry>,
    history: VecDeque<Alarm>,
    raised: u64,
}

/// Bounded alarm-history capacity.
const HISTORY_CAPACITY: usize = 1_024;

/// Checkpointed slots kept for divergence comparison (older evicted).
const CKPT_WINDOW: usize = 256;

impl Watchdog {
    /// Source/node id for alarms not attributable to one replica.
    pub const GLOBAL: u32 = u32::MAX;

    /// A fresh watchdog with the given thresholds.
    pub fn new(cfg: WatchdogConfig) -> Self {
        Watchdog {
            cfg,
            trace: None,
            counters: None,
            nodes: BTreeMap::new(),
            sources: BTreeMap::new(),
            ckpts: BTreeMap::new(),
            history: VecDeque::new(),
            raised: 0,
        }
    }

    /// Mirrors every raised alarm into `trace` as a [`TraceKind::Alarm`]
    /// event (stamped with the observation clock and the alarm's node).
    pub fn with_trace(mut self, trace: Arc<TraceRecorder>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Surfaces alarm totals in `registry` as `watchdog.alarms` and
    /// `watchdog.alarms.<class>` counters, so the final `STAT v1` snapshot
    /// records what the live plane saw.
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.counters = Some(AlarmCounters {
            total: registry.counter("watchdog.alarms"),
            per_class: AlarmClass::ALL
                .into_iter()
                .map(|c| {
                    (
                        c,
                        registry.counter(&format!("watchdog.alarms.{}", c.label())),
                    )
                })
                .collect(),
        });
        self
    }

    /// Feeds one observation: the cumulative metric state of `source` at
    /// observation clock `at`. Returns the alarms this observation raised
    /// (also counted in [`Watchdog::raised`] and mirrored to the sinks).
    ///
    /// `source` identifies the registry being observed — the replica id
    /// when each replica streams its own registry, or one shared id (e.g.
    /// [`Watchdog::GLOBAL`]) when a single registry carries every replica,
    /// as on the simulator.
    pub fn observe(&mut self, source: u32, at: u64, values: &Snapshot) -> Vec<Alarm> {
        let mut alarms = Vec::new();
        let horizon = self.stall_horizon(values);

        // Replica-scoped rules, driven by whatever `watch.p<i>.*` gauges
        // this snapshot carries.
        for node in watch_nodes(values) {
            let field = |f: &str| values.gauge(&watch_name(node as usize, f));
            let commit_floor = field("commit_floor").unwrap_or(0);
            let submitted = field("submitted").unwrap_or(0);
            let pending = submitted.saturating_sub(commit_floor);

            let state = self.nodes.entry(node).or_default();
            if !state.seen {
                state.seen = true;
                state.commit_floor = commit_floor;
                state.floor_changed_at = at;
            } else if commit_floor > state.commit_floor {
                state.commit_floor = commit_floor;
                state.floor_changed_at = at;
                state.stalled = false;
            }
            if pending == 0 {
                // Nothing owed: an idle replica is not a stalled one.
                state.floor_changed_at = at;
                state.stalled = false;
            } else {
                let flat_for = at.saturating_sub(state.floor_changed_at);
                if !state.stalled && flat_for >= horizon {
                    state.stalled = true;
                    alarms.push(Alarm {
                        class: AlarmClass::Stall,
                        node,
                        at,
                        detail: flat_for,
                    });
                }
            }

            if let Some(ack_floor) = field("ack_floor") {
                let state = self.nodes.entry(node).or_default();
                if let Some(prev) = state.ack_floor {
                    if ack_floor < prev {
                        alarms.push(Alarm {
                            class: AlarmClass::QuorumRegress,
                            node,
                            at,
                            detail: prev - ack_floor,
                        });
                    }
                }
                self.nodes.entry(node).or_default().ack_floor =
                    Some(ack_floor.max(self.nodes[&node].ack_floor.unwrap_or(0)));
            }

            if let (Some(slot), Some(digest)) = (field("commit_floor"), field("ckpt_digest")) {
                if let Some(alarm) = self.check_ckpt(node, at, slot, digest) {
                    alarms.push(alarm);
                }
            }
        }

        // Source-scoped rules: backlog saturation and auth-reject rate.
        let max_backlog = max_gauge_with_prefix(values, "link.backlog");
        let auth_rejects = values.counter("mesh.auth_rejects");
        let cfg = self.cfg;
        let src = self.sources.entry(source).or_default();
        match max_backlog {
            Some(depth) if depth >= cfg.backlog_limit => {
                src.backlog_strikes = src.backlog_strikes.saturating_add(1);
                if src.backlog_strikes >= cfg.backlog_strikes && !src.saturated {
                    src.saturated = true;
                    alarms.push(Alarm {
                        class: AlarmClass::QueueSaturation,
                        node: source,
                        at,
                        detail: depth,
                    });
                }
            }
            _ => {
                src.backlog_strikes = 0;
                src.saturated = false;
            }
        }
        if let Some(rejects) = auth_rejects {
            if let Some(prev) = src.auth_rejects {
                let delta = rejects.saturating_sub(prev);
                if delta > cfg.auth_reject_limit {
                    alarms.push(Alarm {
                        class: AlarmClass::AuthRejectRate,
                        node: source,
                        at,
                        detail: delta,
                    });
                }
            }
            src.auth_rejects = Some(rejects);
        }

        for alarm in &alarms {
            self.sink(*alarm);
        }
        alarms
    }

    /// Total alarms ever raised (including any evicted from the bounded
    /// history).
    pub fn raised(&self) -> u64 {
        self.raised
    }

    /// Alarms raised of one class (scans the bounded history).
    pub fn raised_of(&self, class: AlarmClass) -> usize {
        self.history.iter().filter(|a| a.class == class).count()
    }

    /// Stall horizon for this observation: `max(min_stall_horizon,
    /// rtt_multiplier × max(link.rtt_ewma.*))`.
    fn stall_horizon(&self, values: &Snapshot) -> u64 {
        let rtt = max_gauge_with_prefix(values, "link.rtt_ewma").unwrap_or(0);
        self.cfg
            .min_stall_horizon
            .max(rtt.saturating_mul(self.cfg.rtt_multiplier))
    }

    /// Records `node`'s checkpoint `(slot, digest)` and compares it with
    /// what other replicas reported for the same slot.
    fn check_ckpt(&mut self, node: u32, at: u64, slot: u64, digest: u64) -> Option<Alarm> {
        let alarm = match self.ckpts.get_mut(&slot) {
            None => {
                self.ckpts.insert(
                    slot,
                    CkptEntry {
                        digest,
                        alarmed: false,
                    },
                );
                None
            }
            Some(entry) if entry.digest == digest => None,
            Some(entry) if entry.alarmed => None,
            Some(entry) => {
                entry.alarmed = true;
                Some(Alarm {
                    class: AlarmClass::Divergence,
                    node,
                    at,
                    detail: slot,
                })
            }
        };
        // Evict checkpoints that fell out of the comparison window.
        while self.ckpts.len() > CKPT_WINDOW {
            let oldest = *self.ckpts.keys().next().expect("non-empty map");
            self.ckpts.remove(&oldest);
        }
        alarm
    }

    /// Retains `alarm` and mirrors it into the attached sinks.
    fn sink(&mut self, alarm: Alarm) {
        self.raised += 1;
        if self.history.len() == HISTORY_CAPACITY {
            self.history.pop_front();
        }
        self.history.push_back(alarm);
        if let Some(trace) = &self.trace {
            trace.record_at(
                alarm.at,
                alarm.node,
                TraceKind::Alarm {
                    class: alarm.class.code(),
                    detail: alarm.detail,
                },
            );
        }
        if let Some(counters) = &self.counters {
            counters.total.inc();
            if let Some((_, c)) = counters.per_class.iter().find(|(c, _)| *c == alarm.class) {
                c.inc();
            }
        }
    }
}

/// Replica ids present in `values` (every `watch.p<i>.…` name).
fn watch_nodes(values: &Snapshot) -> Vec<u32> {
    let mut nodes = Vec::new();
    for (name, _) in values.iter() {
        if let Some(rest) = name.strip_prefix(WATCH_PREFIX) {
            if let Some(id) = rest.split('.').next().and_then(|d| d.parse::<u32>().ok()) {
                if !nodes.contains(&id) {
                    nodes.push(id);
                }
            }
        }
    }
    nodes
}

/// Max gauge value among metrics whose name starts with `prefix`.
fn max_gauge_with_prefix(values: &Snapshot, prefix: &str) -> Option<u64> {
    values
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .filter_map(|(_, v)| match v {
            MetricValue::Gauge(g) => Some(*g),
            _ => None,
        })
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(entries: &[(&str, u64)]) -> Snapshot {
        let mut s = Snapshot::empty();
        for (name, v) in entries {
            s.set_gauge(name, *v);
        }
        s
    }

    fn cfg() -> WatchdogConfig {
        WatchdogConfig {
            min_stall_horizon: 100,
            rtt_multiplier: 10,
            backlog_limit: 50,
            backlog_strikes: 2,
            auth_reject_limit: 5,
        }
    }

    #[test]
    fn clean_progress_raises_nothing() {
        let mut wd = Watchdog::new(cfg());
        for i in 0..20u64 {
            let s = snap(&[("watch.p0.commit_floor", i), ("watch.p0.submitted", 100)]);
            assert!(wd.observe(0, i * 50, &s).is_empty(), "sample {i}");
        }
        assert_eq!(wd.raised(), 0);
    }

    #[test]
    fn flat_floor_with_pending_work_stalls_once() {
        let mut wd = Watchdog::new(cfg());
        let s = snap(&[("watch.p1.commit_floor", 3), ("watch.p1.submitted", 10)]);
        assert!(wd.observe(0, 0, &s).is_empty());
        assert!(wd.observe(0, 50, &s).is_empty(), "inside horizon");
        let alarms = wd.observe(0, 120, &s);
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].class, AlarmClass::Stall);
        assert_eq!(alarms[0].node, 1);
        assert_eq!(alarms[0].detail, 120);
        // Still flat: no re-raise until progress resumes.
        assert!(wd.observe(0, 500, &s).is_empty());
        // Progress re-arms the detector.
        let progressed = snap(&[("watch.p1.commit_floor", 4), ("watch.p1.submitted", 10)]);
        assert!(wd.observe(0, 510, &s).is_empty());
        assert!(wd.observe(0, 520, &progressed).is_empty());
        let again = wd.observe(0, 1_000, &progressed);
        assert_eq!(again.len(), 1, "a second stall episode fires again");
    }

    #[test]
    fn idle_replicas_never_stall() {
        let mut wd = Watchdog::new(cfg());
        let s = snap(&[("watch.p0.commit_floor", 20), ("watch.p0.submitted", 20)]);
        assert!(wd.observe(0, 0, &s).is_empty());
        assert!(wd.observe(0, 10_000, &s).is_empty());
    }

    #[test]
    fn observed_rtt_widens_the_stall_horizon() {
        let mut wd = Watchdog::new(cfg());
        let s = snap(&[
            ("watch.p0.commit_floor", 1),
            ("watch.p0.submitted", 10),
            ("link.rtt_ewma.p1", 40), // horizon = max(100, 10×40) = 400
        ]);
        assert!(wd.observe(0, 0, &s).is_empty());
        assert!(wd.observe(0, 200, &s).is_empty(), "inside widened horizon");
        let alarms = wd.observe(0, 450, &s);
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].class, AlarmClass::Stall);
    }

    #[test]
    fn divergent_checkpoints_trip_once_per_slot() {
        let mut wd = Watchdog::new(cfg());
        let a = snap(&[
            ("watch.p0.commit_floor", 7),
            ("watch.p0.ckpt_digest", 0xAAAA),
        ]);
        let b = snap(&[
            ("watch.p1.commit_floor", 7),
            ("watch.p1.ckpt_digest", 0xBBBB),
        ]);
        assert!(wd.observe(0, 10, &a).is_empty());
        let alarms = wd.observe(1, 20, &b);
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].class, AlarmClass::Divergence);
        assert_eq!(alarms[0].detail, 7);
        // The same conflicting report again must not re-fire.
        assert!(wd.observe(1, 30, &b).is_empty());
        // Matching digests at a new slot stay quiet.
        let a2 = snap(&[
            ("watch.p0.commit_floor", 8),
            ("watch.p0.ckpt_digest", 0xCCCC),
        ]);
        let b2 = snap(&[
            ("watch.p1.commit_floor", 8),
            ("watch.p1.ckpt_digest", 0xCCCC),
        ]);
        assert!(wd.observe(0, 40, &a2).is_empty());
        assert!(wd.observe(1, 50, &b2).is_empty());
    }

    #[test]
    fn divergence_window_keeps_the_last_256_slots() {
        let mut wd = Watchdog::new(WatchdogConfig::default());
        for slot in 1..=257u64 {
            let s = snap(&[
                ("watch.p0.commit_floor", slot),
                ("watch.p0.ckpt_digest", slot),
            ]);
            assert!(wd.observe(0, slot, &s).is_empty(), "slot {slot}");
        }
        // Slot 1 fell out of the window: a conflicting report is unseen.
        let evicted = snap(&[
            ("watch.p1.commit_floor", 1),
            ("watch.p1.ckpt_digest", 0xBAD),
        ]);
        assert!(wd.observe(1, 300, &evicted).is_empty());
        let kept = snap(&[
            ("watch.p1.commit_floor", 257),
            ("watch.p1.ckpt_digest", 0xBAD),
        ]);
        let alarms = wd.observe(1, 301, &kept);
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].class, AlarmClass::Divergence);
        assert_eq!(alarms[0].detail, 257);
    }

    #[test]
    fn ack_floor_regression_trips() {
        let mut wd = Watchdog::new(cfg());
        let hi = snap(&[("watch.p2.ack_floor", 9)]);
        let lo = snap(&[("watch.p2.ack_floor", 4)]);
        assert!(wd.observe(0, 0, &hi).is_empty());
        let alarms = wd.observe(0, 10, &lo);
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].class, AlarmClass::QuorumRegress);
        assert_eq!(alarms[0].detail, 5);
    }

    #[test]
    fn backlog_needs_consecutive_strikes() {
        let mut wd = Watchdog::new(cfg());
        let full = snap(&[("link.backlog.p3", 60)]);
        let ok = snap(&[("link.backlog.p3", 2)]);
        assert!(wd.observe(0, 0, &full).is_empty(), "one strike is noise");
        assert!(wd.observe(0, 1, &ok).is_empty(), "recovery resets strikes");
        assert!(wd.observe(0, 2, &full).is_empty());
        let alarms = wd.observe(0, 3, &full);
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].class, AlarmClass::QueueSaturation);
        assert_eq!(alarms[0].detail, 60);
        // Pinned: no re-fire until it drains.
        assert!(wd.observe(0, 4, &full).is_empty());
    }

    #[test]
    fn auth_reject_bursts_trip_per_interval() {
        let mut wd = Watchdog::new(cfg());
        let mut s = Snapshot::empty();
        s.set_counter("mesh.auth_rejects", 2);
        assert!(wd.observe(0, 0, &s).is_empty(), "baseline observation");
        s.set_counter("mesh.auth_rejects", 4);
        assert!(wd.observe(0, 1, &s).is_empty(), "slow trickle is fine");
        s.set_counter("mesh.auth_rejects", 40);
        let alarms = wd.observe(0, 2, &s);
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].class, AlarmClass::AuthRejectRate);
        assert_eq!(alarms[0].detail, 36);
    }

    #[test]
    fn sinks_record_alarms() {
        let registry = Registry::new();
        let trace = Arc::new(TraceRecorder::new(16));
        let mut wd = Watchdog::new(cfg())
            .with_registry(&registry)
            .with_trace(Arc::clone(&trace));
        let hi = snap(&[("watch.p0.ack_floor", 9)]);
        let lo = snap(&[("watch.p0.ack_floor", 1)]);
        wd.observe(0, 5, &hi);
        wd.observe(0, 6, &lo);
        assert_eq!(wd.raised(), 1);
        assert_eq!(wd.raised_of(AlarmClass::QuorumRegress), 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("watchdog.alarms"), Some(1));
        assert_eq!(snap.counter("watchdog.alarms.quorum_regress"), Some(1));
        let events = trace.events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].kind,
            TraceKind::Alarm {
                class: AlarmClass::QuorumRegress.code(),
                detail: 8
            }
        );
        assert_eq!(events[0].at, 6);
    }

    #[test]
    fn watch_names_parse_back() {
        let s = snap(&[
            ("watch.p0.commit_floor", 1),
            ("watch.p12.commit_floor", 1),
            ("watch.p12.ack_floor", 1),
            ("watchx.p9.commit_floor", 1),
            ("link.rtt_ewma.p1", 1),
        ]);
        assert_eq!(watch_nodes(&s), vec![0, 12]);
        assert_eq!(watch_name(3, "ckpt_digest"), "watch.p3.ckpt_digest");
    }
}
