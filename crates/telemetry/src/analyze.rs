//! The span-pairing analyzer: folds a flat event stream into per-slot
//! stage timelines, per-stage latency breakdowns, queue-residency
//! percentiles, and codec timing — the read side of the trace recorder.

use std::collections::BTreeMap;

use crate::trace::{TraceEvent, TraceKind};

/// Exact nearest-rank percentiles over a raw sample set (the analyzer runs
/// offline, so it can afford to keep every sample).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Percentiles {
    /// Sample size.
    pub count: usize,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

impl Percentiles {
    /// Summarizes `samples` (order irrelevant; zeroes for an empty set).
    pub fn of(mut samples: Vec<u64>) -> Percentiles {
        samples.sort_unstable();
        if samples.is_empty() {
            return Percentiles::default();
        }
        let n = samples.len();
        let rank = |p: usize| samples[((p * n).div_ceil(100)).saturating_sub(1).min(n - 1)];
        Percentiles {
            count: n,
            p50: rank(50),
            p95: rank(95),
            p99: rank(99),
            max: samples[n - 1],
        }
    }
}

/// The earliest observation of each pipeline stage for one log slot
/// (earliest across nodes: the cluster-level view of when the slot reached
/// the stage anywhere).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotTimeline {
    /// Log slot.
    pub slot: u64,
    /// Tick the slot's client batch finished arriving.
    pub submitted: Option<u64>,
    /// Tick the slot was first proposed.
    pub proposed: Option<u64>,
    /// Tick the slot was first committed.
    pub committed: Option<u64>,
    /// Tick a quorum of replicas had acked the slot.
    pub ack_quorum: Option<u64>,
}

impl SlotTimeline {
    /// End-to-end span covered by this timeline: first to last observed
    /// stage tick (`None` with fewer than two stages observed).
    pub fn total(&self) -> Option<u64> {
        let stages = [
            self.submitted,
            self.proposed,
            self.committed,
            self.ack_quorum,
        ];
        let first = stages.iter().flatten().min()?;
        let last = stages.iter().flatten().max()?;
        (last > first).then(|| last - first).or(Some(0))
    }
}

/// Folds slot-stage events into one [`SlotTimeline`] per slot, sorted by
/// slot. Non-stage events are ignored; repeated observations of a stage
/// keep the earliest tick.
pub fn slot_timelines(events: &[TraceEvent]) -> Vec<SlotTimeline> {
    let mut slots: BTreeMap<u64, SlotTimeline> = BTreeMap::new();
    let mut note = |slot: u64, at: u64, pick: fn(&mut SlotTimeline) -> &mut Option<u64>| {
        let tl = slots.entry(slot).or_insert_with(|| SlotTimeline {
            slot,
            ..SlotTimeline::default()
        });
        let cell = pick(tl);
        *cell = Some(cell.map_or(at, |prev| prev.min(at)));
    };
    for ev in events {
        match ev.kind {
            TraceKind::Submitted { slot } => note(slot, ev.at, |tl| &mut tl.submitted),
            TraceKind::Proposed { slot } => note(slot, ev.at, |tl| &mut tl.proposed),
            TraceKind::Committed { slot } => note(slot, ev.at, |tl| &mut tl.committed),
            TraceKind::AckQuorum { slot } => note(slot, ev.at, |tl| &mut tl.ack_quorum),
            _ => {}
        }
    }
    slots.into_values().collect()
}

/// One stage's latency summary across all slots that observed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageStats {
    /// Stage label (e.g. `"propose→commit"`).
    pub stage: &'static str,
    /// Latency percentiles in ticks.
    pub latency: Percentiles,
}

/// The commit pipeline's stage transitions, in order.
pub const STAGE_LABELS: [&str; 3] = ["client→propose", "propose→commit", "commit→ack-quorum"];

/// Raw per-slot stage latencies (ticks), keyed by [`STAGE_LABELS`] — the
/// sample sets behind [`stage_breakdown`], exposed for callers that
/// aggregate differently (E16 pins their count/min/mean/max).
pub fn stage_samples(timelines: &[SlotTimeline]) -> Vec<(&'static str, Vec<u64>)> {
    type StageSpan = fn(&SlotTimeline) -> (Option<u64>, Option<u64>);
    let spans: [StageSpan; 3] = [
        |tl| (tl.submitted, tl.proposed),
        |tl| (tl.proposed, tl.committed),
        |tl| (tl.committed, tl.ack_quorum),
    ];
    STAGE_LABELS
        .iter()
        .zip(spans)
        .map(|(&label, span)| {
            let samples = timelines
                .iter()
                .filter_map(|tl| match span(tl) {
                    (Some(a), Some(b)) => Some(b.saturating_sub(a)),
                    _ => None,
                })
                .collect();
            (label, samples)
        })
        .collect()
}

/// Per-stage latency percentiles over `timelines`. Stages no slot observed
/// end-to-end report zero counts (a stage missing entirely usually means
/// the producer did not emit that event type — e.g. no `Submitted` events
/// in a run without client arrival times).
pub fn stage_breakdown(timelines: &[SlotTimeline]) -> Vec<StageStats> {
    stage_samples(timelines)
        .into_iter()
        .map(|(stage, samples)| StageStats {
            stage,
            latency: Percentiles::of(samples),
        })
        .collect()
}

/// The `k` slots with the largest end-to-end span, slowest first.
pub fn slowest_slots(timelines: &[SlotTimeline], k: usize) -> Vec<(u64, u64)> {
    let mut spans: Vec<(u64, u64)> = timelines
        .iter()
        .filter_map(|tl| tl.total().map(|t| (tl.slot, t)))
        .collect();
    spans.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    spans.truncate(k);
    spans
}

/// Queue residency per queue id: FIFO-pairs each `Dequeue` with the oldest
/// unmatched `Enqueue` of the same queue *on the same node* and summarizes
/// the tick deltas. Unmatched enqueues (still resident at dump time) are
/// dropped.
pub fn queue_residency(events: &[TraceEvent]) -> Vec<(u32, Percentiles)> {
    let mut waiting: BTreeMap<(u32, u32), std::collections::VecDeque<u64>> = BTreeMap::new();
    let mut samples: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for ev in events {
        match ev.kind {
            TraceKind::Enqueue { queue, .. } => {
                waiting
                    .entry((ev.node, queue))
                    .or_default()
                    .push_back(ev.at);
            }
            TraceKind::Dequeue { queue, .. } => {
                if let Some(start) = waiting.entry((ev.node, queue)).or_default().pop_front() {
                    samples
                        .entry(queue)
                        .or_default()
                        .push(ev.at.saturating_sub(start));
                }
            }
            _ => {}
        }
    }
    samples
        .into_iter()
        .map(|(queue, s)| (queue, Percentiles::of(s)))
        .collect()
}

/// Codec cost summaries in nanoseconds: `("encode", …)` and
/// `("decode", …)` for whichever directions the trace observed.
pub fn codec_timing(events: &[TraceEvent]) -> Vec<(&'static str, Percentiles)> {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for ev in events {
        match ev.kind {
            TraceKind::FrameEncoded { nanos, .. } => enc.push(nanos),
            TraceKind::FrameDecoded { nanos, .. } => dec.push(nanos),
            _ => {}
        }
    }
    let mut out = Vec::new();
    if !enc.is_empty() {
        out.push(("encode", Percentiles::of(enc)));
    }
    if !dec.is_empty() {
        out.push(("decode", Percentiles::of(dec)));
    }
    out
}

/// Lines comparing two stage breakdowns (`a` vs `b`), one per stage
/// observed on either side — the `minsync-trace` diff view.
pub fn diff_breakdown(a: &[StageStats], b: &[StageStats]) -> Vec<String> {
    let mut lines = Vec::new();
    for label in STAGE_LABELS {
        let find = |set: &[StageStats]| set.iter().find(|s| s.stage == label).map(|s| s.latency);
        let (la, lb) = (find(a), find(b));
        let (la, lb) = match (la, lb) {
            (None, None) => continue,
            pair => (pair.0.unwrap_or_default(), pair.1.unwrap_or_default()),
        };
        if la.count == 0 && lb.count == 0 {
            continue;
        }
        let ratio = if la.p50 > 0 {
            format!("{:.2}×", lb.p50 as f64 / la.p50 as f64)
        } else {
            "—".to_string()
        };
        lines.push(format!(
            "{label:<20} p50 {:>8} → {:>8} ({ratio})  p99 {:>8} → {:>8}",
            la.p50, lb.p50, la.p99, lb.p99
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(at: u64, node: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent { at, node, kind }
    }

    #[test]
    fn timelines_take_earliest_observation_per_stage() {
        let events = [
            stage(10, 0, TraceKind::Submitted { slot: 1 }),
            stage(12, 0, TraceKind::Proposed { slot: 1 }),
            stage(20, 1, TraceKind::Committed { slot: 1 }),
            stage(18, 0, TraceKind::Committed { slot: 1 }), // earlier on node 0
            stage(30, 0, TraceKind::AckQuorum { slot: 1 }),
            stage(40, 0, TraceKind::Proposed { slot: 2 }),
        ];
        let tls = slot_timelines(&events);
        assert_eq!(tls.len(), 2);
        assert_eq!(tls[0].slot, 1);
        assert_eq!(tls[0].committed, Some(18));
        assert_eq!(tls[0].total(), Some(20));
        assert_eq!(tls[1].proposed, Some(40));
        assert_eq!(tls[1].total(), Some(0), "single-stage slot spans zero");
    }

    #[test]
    fn breakdown_covers_the_three_transitions() {
        let events = [
            stage(0, 0, TraceKind::Submitted { slot: 1 }),
            stage(5, 0, TraceKind::Proposed { slot: 1 }),
            stage(25, 0, TraceKind::Committed { slot: 1 }),
            stage(40, 0, TraceKind::AckQuorum { slot: 1 }),
        ];
        let stats = stage_breakdown(&slot_timelines(&events));
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].stage, "client→propose");
        assert_eq!(stats[0].latency.p50, 5);
        assert_eq!(stats[1].latency.p50, 20);
        assert_eq!(stats[2].latency.p50, 15);
    }

    #[test]
    fn slowest_slots_rank_by_span() {
        let events = [
            stage(0, 0, TraceKind::Proposed { slot: 1 }),
            stage(10, 0, TraceKind::Committed { slot: 1 }),
            stage(0, 0, TraceKind::Proposed { slot: 2 }),
            stage(50, 0, TraceKind::Committed { slot: 2 }),
        ];
        let tls = slot_timelines(&events);
        assert_eq!(slowest_slots(&tls, 1), [(2, 50)]);
        assert_eq!(slowest_slots(&tls, 10), [(2, 50), (1, 10)]);
    }

    #[test]
    fn queue_residency_pairs_fifo_per_node() {
        let events = [
            stage(0, 0, TraceKind::Enqueue { queue: 1, depth: 1 }),
            stage(2, 0, TraceKind::Enqueue { queue: 1, depth: 2 }),
            stage(3, 1, TraceKind::Enqueue { queue: 1, depth: 1 }), // other node
            stage(5, 0, TraceKind::Dequeue { queue: 1, depth: 1 }), // pairs with at=0
            stage(6, 0, TraceKind::Dequeue { queue: 1, depth: 0 }), // pairs with at=2
        ];
        let res = queue_residency(&events);
        assert_eq!(res.len(), 1);
        let (queue, p) = res[0];
        assert_eq!(queue, 1);
        assert_eq!(p.count, 2, "node 1's enqueue stays unmatched");
        assert_eq!(p.max, 5);
    }

    #[test]
    fn codec_timing_splits_directions() {
        let events = [
            stage(
                0,
                0,
                TraceKind::FrameEncoded {
                    bytes: 8,
                    nanos: 100,
                },
            ),
            stage(
                0,
                0,
                TraceKind::FrameDecoded {
                    bytes: 8,
                    nanos: 40,
                },
            ),
            stage(
                0,
                0,
                TraceKind::FrameDecoded {
                    bytes: 8,
                    nanos: 60,
                },
            ),
        ];
        let timing = codec_timing(&events);
        assert_eq!(timing.len(), 2);
        assert_eq!(timing[0].0, "encode");
        assert_eq!(timing[1].1.count, 2);
        assert!(codec_timing(&[]).is_empty());
    }

    #[test]
    fn diff_lines_report_ratios() {
        let a = stage_breakdown(&slot_timelines(&[
            stage(0, 0, TraceKind::Proposed { slot: 1 }),
            stage(10, 0, TraceKind::Committed { slot: 1 }),
        ]));
        let b = stage_breakdown(&slot_timelines(&[
            stage(0, 0, TraceKind::Proposed { slot: 1 }),
            stage(30, 0, TraceKind::Committed { slot: 1 }),
        ]));
        let lines = diff_breakdown(&a, &b);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("propose→commit"));
        assert!(lines[0].contains("3.00×"));
    }

    #[test]
    fn percentiles_match_nearest_rank() {
        let p = Percentiles::of((1..=100).collect());
        assert_eq!((p.p50, p.p95, p.p99, p.max), (50, 95, 99, 100));
        assert_eq!(Percentiles::of(Vec::new()), Percentiles::default());
    }

    #[test]
    fn analyzers_accept_an_empty_dump() {
        assert!(slot_timelines(&[]).is_empty());
        let stats = stage_breakdown(&[]);
        assert_eq!(stats.len(), STAGE_LABELS.len(), "all stages still listed");
        for s in stats {
            assert_eq!(s.latency, Percentiles::default());
        }
        assert!(slowest_slots(&[], 5).is_empty());
        assert!(queue_residency(&[]).is_empty());
        assert!(codec_timing(&[]).is_empty());
        assert!(diff_breakdown(&stage_breakdown(&[]), &stage_breakdown(&[])).is_empty());
    }

    #[test]
    fn analyzers_accept_a_single_event_dump() {
        // One lone stage observation: a timeline with a zero span, no
        // stage transition completed, nothing resident in any queue.
        let events = [stage(7, 0, TraceKind::Committed { slot: 3 })];
        let tls = slot_timelines(&events);
        assert_eq!(tls.len(), 1);
        assert_eq!(tls[0].total(), Some(0));
        for s in stage_breakdown(&tls) {
            assert_eq!(s.latency.count, 0, "{} completed from one event", s.stage);
        }
        assert_eq!(slowest_slots(&tls, 5), [(3, 0)]);
        // A lone dequeue (its enqueue predates the dump) yields no sample.
        let torn = [stage(7, 0, TraceKind::Dequeue { queue: 1, depth: 0 })];
        assert!(queue_residency(&torn).is_empty());
    }

    /// A ring-wrapped dump: the recorder evicted the oldest events, so the
    /// surviving window opens mid-flight — enqueues and early stage marks
    /// of old slots are gone. The analyzers must fold what remains without
    /// inventing samples for the missing halves.
    #[test]
    fn analyzers_accept_a_torn_ring_dump() {
        use crate::trace::{TraceMeta, TraceRecorder};

        let rec = TraceRecorder::new(4);
        // Slot 1 completes fully, then slot 2's tail events push slot 1's
        // head (and slot 2's own Proposed) out of the 4-slot ring.
        rec.record(stage(0, 0, TraceKind::Enqueue { queue: 1, depth: 1 }));
        rec.record(stage(1, 0, TraceKind::Proposed { slot: 1 }));
        rec.record(stage(5, 0, TraceKind::Committed { slot: 1 }));
        rec.record(stage(6, 0, TraceKind::Proposed { slot: 2 }));
        rec.record(stage(9, 0, TraceKind::Dequeue { queue: 1, depth: 0 }));
        rec.record(stage(12, 0, TraceKind::Committed { slot: 2 }));
        let meta = TraceMeta {
            source: "test".into(),
            tick_ns: 0,
            seed: 0,
        };
        let dump = crate::trace::parse_dump(&rec.dump(&meta)).expect("dump parses");
        assert_eq!(dump.dropped, 2, "the ring evicted the two oldest events");

        let tls = slot_timelines(&dump.events);
        assert_eq!(tls.len(), 2);
        // Slot 1 lost its Proposed mark: only the commit survives, so no
        // propose→commit sample for it; slot 2 kept both.
        assert_eq!(tls[0].proposed, None);
        assert_eq!(tls[0].committed, Some(5));
        let stats = stage_breakdown(&tls);
        let pc = stats
            .iter()
            .find(|s| s.stage == "propose→commit")
            .expect("stage listed");
        assert_eq!(pc.latency.count, 1, "only the untorn slot contributes");
        assert_eq!(pc.latency.p50, 6);
        // The enqueue at t=0 was evicted: the surviving dequeue stays
        // unmatched and produces no residency sample.
        assert!(queue_residency(&dump.events).is_empty());
    }
}
