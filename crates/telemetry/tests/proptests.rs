//! Property tests for the bounded trace ring and the `STAT v1` snapshot
//! codec (final reports and live samples alike).

use proptest::prelude::*;

use minsync_telemetry::trace::{TraceEvent, TraceKind, TraceRecorder};
use minsync_telemetry::Snapshot;

/// Names the registry would accept: non-empty, whitespace-free.
fn metric_name() -> impl Strategy<Value = String> {
    const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789._";
    proptest::collection::vec(0usize..CHARSET.len(), 1..17)
        .prop_map(|ixs| ixs.into_iter().map(|i| CHARSET[i] as char).collect())
}

/// Arbitrary printable-plus-newline text for hostile-input feeding.
fn hostile_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..96, 0..400).prop_map(|ixs| {
        ixs.into_iter()
            .map(|i| {
                if i < 95 {
                    (0x20 + i as u8) as char
                } else {
                    '\n'
                }
            })
            .collect()
    })
}

proptest! {
    /// The ring retains exactly the newest `capacity` events in order, and
    /// the drop counter equals the number of evicted events.
    #[test]
    fn trace_ring_wraparound_keeps_newest(
        capacity in 1usize..48,
        total in 0usize..160,
    ) {
        let rec = TraceRecorder::new(capacity);
        for i in 0..total {
            rec.record(TraceEvent {
                at: i as u64,
                node: (i % 7) as u32,
                kind: TraceKind::Submitted { slot: i as u64 },
            });
        }
        let events = rec.events();
        prop_assert_eq!(events.len(), total.min(capacity));
        prop_assert_eq!(rec.dropped(), total.saturating_sub(capacity) as u64);
        let expect_first = total.saturating_sub(capacity) as u64;
        for (i, ev) in events.iter().enumerate() {
            prop_assert_eq!(ev.at, expect_first + i as u64);
        }
    }

    /// Dump → parse is lossless for whatever survives the ring.
    #[test]
    fn trace_dump_roundtrips_after_wraparound(
        capacity in 1usize..32,
        total in 0usize..96,
        seed in any::<u64>(),
    ) {
        let rec = TraceRecorder::new(capacity);
        for i in 0..total {
            rec.record(TraceEvent {
                at: i as u64,
                node: i as u32,
                kind: TraceKind::Enqueue { queue: 1, depth: i as u64 },
            });
        }
        let meta = minsync_telemetry::trace::TraceMeta {
            source: "sim".into(),
            tick_ns: 0,
            seed,
        };
        let dump = minsync_telemetry::parse_dump(&rec.dump(&meta)).unwrap();
        prop_assert_eq!(dump.meta, meta);
        prop_assert_eq!(dump.dropped, rec.dropped());
        prop_assert_eq!(dump.events, rec.events());
    }

    /// The snapshot parser never panics on arbitrary input, and its
    /// output is bounded by the input: no more entries than lines.
    #[test]
    fn snapshot_parse_is_total_and_bounded(text in hostile_text()) {
        if let Ok(snap) = Snapshot::parse(&text) {
            prop_assert!(snap.iter().count() <= text.lines().count());
        }
    }

    /// Counter/gauge snapshots survive to_text → parse exactly, and a
    /// truncated rendering (footer lost) never parses.
    #[test]
    fn snapshot_roundtrips_and_rejects_torn_blocks(
        raw_entries in proptest::collection::vec((metric_name(), any::<u64>(), any::<bool>()), 0..12),
        cut in any::<usize>(),
    ) {
        let entries: std::collections::BTreeMap<String, (u64, bool)> = raw_entries
            .into_iter()
            .map(|(name, v, counter)| (name, (v, counter)))
            .collect();
        let mut snap = Snapshot::empty();
        for (name, (v, counter)) in &entries {
            if *counter {
                snap.set_counter(name, *v);
            } else {
                snap.set_gauge(name, *v);
            }
        }
        let text = snap.to_text();
        let parsed = Snapshot::parse(&text).expect("own rendering parses");
        for (name, (v, counter)) in &entries {
            let got = if *counter { parsed.counter(name) } else { parsed.gauge(name) };
            prop_assert_eq!(got, Some(*v), "{} did not survive the round trip", name);
        }
        prop_assert_eq!(parsed.iter().count(), entries.len());
        let boundary = cut % (text.len() + 1); // the text is ASCII
        match Snapshot::parse(&text[..boundary]) {
            // Only a cut that still carries the complete footer line (at
            // worst the trailing newline is gone) may parse, and it must
            // reproduce the full snapshot.
            Ok(p) => {
                prop_assert!(boundary >= text.len() - 1);
                prop_assert_eq!(p.iter().count(), entries.len());
            }
            Err(_) => prop_assert!(boundary < text.len()),
        }
    }
}
