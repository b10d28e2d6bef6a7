//! The structured trace recorder: a bounded ring of typed events stamped
//! with substrate time, dumpable as JSONL and parseable back.
//!
//! Every substrate expresses `at` in **ticks** (the simulator's virtual
//! time directly; wall-clock substrates divide elapsed time by their tick
//! length), so dumps from different substrates of the same seeded run are
//! directly comparable — the meta line carries `tick_ns` to convert back
//! to wall time where it is meaningful.

use std::sync::Mutex;

/// Default ring capacity (events) when a caller has no better number.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// What happened. Slot-stage events (`Submitted` → `Proposed` →
/// `Committed` → `AckQuorum`) drive the per-stage latency breakdown;
/// the rest profile the machinery underneath it. Effects and timers are
/// not here: the cause/effect trace (`minsync_conformance::trace`)
/// records each one with its content.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A frame left the codec (wall-clock substrates).
    FrameEncoded {
        /// Encoded frame length in bytes.
        bytes: u64,
        /// Wall-clock encode cost in nanoseconds.
        nanos: u64,
    },
    /// A frame passed the codec inbound.
    FrameDecoded {
        /// Decoded payload length in bytes.
        bytes: u64,
        /// Wall-clock decode cost in nanoseconds.
        nanos: u64,
    },
    /// Something entered a queue.
    Enqueue {
        /// Which queue (see the `queues` constants).
        queue: u32,
        /// Queue depth after the enqueue.
        depth: u64,
    },
    /// Something left a queue.
    Dequeue {
        /// Which queue.
        queue: u32,
        /// Queue depth after the dequeue.
        depth: u64,
    },
    /// One handler invocation's wall-clock cost.
    HandlerStep {
        /// Nanoseconds spent inside the handler plus its effect drain.
        nanos: u64,
    },
    /// A slot's client command batch finished arriving (stage 0).
    Submitted {
        /// Log slot.
        slot: u64,
    },
    /// A replica proposed the slot (stage 1).
    Proposed {
        /// Log slot.
        slot: u64,
    },
    /// A replica committed the slot (stage 2).
    Committed {
        /// Log slot.
        slot: u64,
    },
    /// A quorum of replicas acked the slot (stage 3).
    AckQuorum {
        /// Log slot.
        slot: u64,
    },
    /// The invariant watchdog raised an alarm (see
    /// [`watchdog`](crate::watchdog)).
    Alarm {
        /// Alarm class code ([`watchdog::AlarmClass::code`]).
        ///
        /// [`watchdog::AlarmClass::code`]: crate::watchdog::AlarmClass::code
        class: u32,
        /// Class-specific evidence (flat-for ticks, regressed floor, …).
        detail: u64,
    },
}

/// Well-known queue ids for [`TraceKind::Enqueue`]/[`TraceKind::Dequeue`].
pub mod queues {
    /// The simulator's central event queue.
    pub const SIM_EVENTS: u32 = 0;
    /// A wall-clock substrate's inbound message queue.
    pub const INBOX: u32 = 1;
    /// Base id of per-peer outbound queues: peer `p` is `OUTBOUND_BASE + p`.
    pub const OUTBOUND_BASE: u32 = 16;
}

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timestamp in ticks (virtual or wall-derived, per the meta line).
    pub at: u64,
    /// Process the event belongs to.
    pub node: u32,
    /// What happened.
    pub kind: TraceKind,
}

/// Run-level context written into a dump's first line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMeta {
    /// Substrate label (`"sim"`, `"threaded"`, `"tcp"`).
    pub source: String,
    /// Nanoseconds per tick (0 when ticks are purely virtual).
    pub tick_ns: u64,
    /// Seed of the traced run.
    pub seed: u64,
}

#[derive(Debug)]
struct Ring {
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the ring is full.
    head: usize,
    dropped: u64,
}

/// A bounded, thread-shared ring of [`TraceEvent`]s. When full, the newest
/// event overwrites the oldest and the drop counter advances — recording
/// never blocks on capacity and never allocates after the ring fills.
#[derive(Debug)]
pub struct TraceRecorder {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl TraceRecorder {
    /// A ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity trace ring records nothing");
        TraceRecorder {
            capacity,
            ring: Mutex::new(Ring {
                buf: Vec::new(),
                head: 0,
                dropped: 0,
            }),
        }
    }

    /// Records one event (O(1); overwrites the oldest event when full).
    pub fn record(&self, event: TraceEvent) {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.buf.len() < self.capacity {
            ring.buf.push(event);
        } else {
            let head = ring.head;
            ring.buf[head] = event;
            ring.head = (head + 1) % self.capacity;
            ring.dropped += 1;
        }
    }

    /// Convenience constructor + record.
    pub fn record_at(&self, at: u64, node: u32, kind: TraceKind) {
        self.record(TraceEvent { at, node, kind });
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring poisoned").buf.len()
    }

    /// True if nothing was recorded (or everything was drained).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten so far.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("trace ring poisoned").dropped
    }

    /// Copies the retained events out in recording order (oldest first)
    /// without draining.
    pub fn events(&self) -> Vec<TraceEvent> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        let mut out = Vec::with_capacity(ring.buf.len());
        out.extend_from_slice(&ring.buf[ring.head..]);
        out.extend_from_slice(&ring.buf[..ring.head]);
        out
    }

    /// Renders the retained events as a JSONL dump: one meta line, then one
    /// line per event, oldest first.
    pub fn dump(&self, meta: &TraceMeta) -> String {
        let events = self.events();
        let mut out = String::with_capacity(64 + events.len() * 48);
        out.push_str(&format!(
            "{{\"meta\":{{\"source\":\"{}\",\"tick_ns\":{},\"seed\":{},\"dropped\":{}}}}}\n",
            meta.source,
            meta.tick_ns,
            meta.seed,
            self.dropped()
        ));
        for ev in &events {
            out.push_str(&event_line(ev));
            out.push('\n');
        }
        out
    }
}

fn event_line(ev: &TraceEvent) -> String {
    let head = format!("{{\"at\":{},\"node\":{}", ev.at, ev.node);
    let tail = match ev.kind {
        TraceKind::FrameEncoded { bytes, nanos } => {
            format!(",\"ev\":\"enc\",\"bytes\":{bytes},\"nanos\":{nanos}")
        }
        TraceKind::FrameDecoded { bytes, nanos } => {
            format!(",\"ev\":\"dec\",\"bytes\":{bytes},\"nanos\":{nanos}")
        }
        TraceKind::Enqueue { queue, depth } => {
            format!(",\"ev\":\"enq\",\"queue\":{queue},\"depth\":{depth}")
        }
        TraceKind::Dequeue { queue, depth } => {
            format!(",\"ev\":\"deq\",\"queue\":{queue},\"depth\":{depth}")
        }
        TraceKind::HandlerStep { nanos } => format!(",\"ev\":\"step\",\"nanos\":{nanos}"),
        TraceKind::Submitted { slot } => format!(",\"ev\":\"submitted\",\"slot\":{slot}"),
        TraceKind::Proposed { slot } => format!(",\"ev\":\"proposed\",\"slot\":{slot}"),
        TraceKind::Committed { slot } => format!(",\"ev\":\"committed\",\"slot\":{slot}"),
        TraceKind::AckQuorum { slot } => format!(",\"ev\":\"ack-quorum\",\"slot\":{slot}"),
        TraceKind::Alarm { class, detail } => {
            format!(",\"ev\":\"alarm\",\"class\":{class},\"detail\":{detail}")
        }
    };
    format!("{head}{tail}}}")
}

/// A parsed trace dump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceDump {
    /// The run context from the meta line.
    pub meta: TraceMeta,
    /// Events overwritten before the dump was taken.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// Scans `line` for `"key":<u64>`.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)?;
    let digits: String = line[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Scans `line` for `"key":"<string>"`.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)?;
    let rest = &line[at + pat.len()..];
    rest.split('"').next()
}

/// Parses a dump produced by [`TraceRecorder::dump`].
///
/// # Errors
///
/// A human-readable description of the first malformed line.
pub fn parse_dump(text: &str) -> Result<TraceDump, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let meta_line = lines.next().ok_or("empty trace dump")?;
    if !meta_line.contains("\"meta\"") {
        return Err(format!("first line is not a meta line: {meta_line:?}"));
    }
    let meta = TraceMeta {
        source: field_str(meta_line, "source")
            .ok_or("meta line missing source")?
            .to_string(),
        tick_ns: field_u64(meta_line, "tick_ns").ok_or("meta line missing tick_ns")?,
        seed: field_u64(meta_line, "seed").ok_or("meta line missing seed")?,
    };
    let dropped = field_u64(meta_line, "dropped").unwrap_or(0);
    let mut events = Vec::new();
    for line in lines {
        events.push(parse_event(line)?);
    }
    Ok(TraceDump {
        meta,
        dropped,
        events,
    })
}

fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let at = field_u64(line, "at").ok_or_else(|| format!("event missing at: {line:?}"))?;
    let node =
        field_u64(line, "node").ok_or_else(|| format!("event missing node: {line:?}"))? as u32;
    let ev = field_str(line, "ev").ok_or_else(|| format!("event missing ev: {line:?}"))?;
    let need = |key: &str| {
        field_u64(line, key).ok_or_else(|| format!("{ev} event missing {key}: {line:?}"))
    };
    let kind = match ev {
        "enc" => TraceKind::FrameEncoded {
            bytes: need("bytes")?,
            nanos: need("nanos")?,
        },
        "dec" => TraceKind::FrameDecoded {
            bytes: need("bytes")?,
            nanos: need("nanos")?,
        },
        "enq" => TraceKind::Enqueue {
            queue: need("queue")? as u32,
            depth: need("depth")?,
        },
        "deq" => TraceKind::Dequeue {
            queue: need("queue")? as u32,
            depth: need("depth")?,
        },
        "step" => TraceKind::HandlerStep {
            nanos: need("nanos")?,
        },
        "submitted" => TraceKind::Submitted {
            slot: need("slot")?,
        },
        "proposed" => TraceKind::Proposed {
            slot: need("slot")?,
        },
        "committed" => TraceKind::Committed {
            slot: need("slot")?,
        },
        "ack-quorum" => TraceKind::AckQuorum {
            slot: need("slot")?,
        },
        "alarm" => TraceKind::Alarm {
            class: need("class")? as u32,
            detail: need("detail")?,
        },
        other => return Err(format!("unknown event type {other:?}")),
    };
    Ok(TraceEvent { at, node, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent { at, node: 0, kind }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops_exactly() {
        let rec = TraceRecorder::new(3);
        for i in 0..5 {
            rec.record(ev(i, TraceKind::Proposed { slot: i }));
        }
        assert_eq!(rec.dropped(), 2);
        let ats: Vec<u64> = rec.events().iter().map(|e| e.at).collect();
        assert_eq!(ats, [2, 3, 4], "oldest evicted, order preserved");
    }

    #[test]
    fn dump_roundtrips_every_kind() {
        let rec = TraceRecorder::new(64);
        let kinds = [
            TraceKind::FrameEncoded {
                bytes: 48,
                nanos: 210,
            },
            TraceKind::FrameDecoded {
                bytes: 48,
                nanos: 95,
            },
            TraceKind::Enqueue { queue: 1, depth: 5 },
            TraceKind::Dequeue { queue: 1, depth: 4 },
            TraceKind::HandlerStep { nanos: 1200 },
            TraceKind::Submitted { slot: 7 },
            TraceKind::Proposed { slot: 7 },
            TraceKind::Committed { slot: 7 },
            TraceKind::AckQuorum { slot: 7 },
            TraceKind::Alarm {
                class: 1,
                detail: 640,
            },
        ];
        for (i, &kind) in kinds.iter().enumerate() {
            rec.record(TraceEvent {
                at: i as u64,
                node: i as u32,
                kind,
            });
        }
        let meta = TraceMeta {
            source: "sim".into(),
            tick_ns: 200_000,
            seed: 7,
        };
        let dump = parse_dump(&rec.dump(&meta)).unwrap();
        assert_eq!(dump.meta, meta);
        assert_eq!(dump.dropped, 0);
        assert_eq!(dump.events.len(), kinds.len());
        for (i, &kind) in kinds.iter().enumerate() {
            assert_eq!(dump.events[i].kind, kind);
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_dump("").is_err());
        assert!(parse_dump("{\"at\":1}").is_err(), "no meta line");
        let meta = "{\"meta\":{\"source\":\"sim\",\"tick_ns\":0,\"seed\":0,\"dropped\":0}}";
        assert!(parse_dump(&format!("{meta}\n{{\"at\":1}}")).is_err());
        assert!(parse_dump(&format!("{meta}\n{{\"at\":1,\"node\":0,\"ev\":\"wat\"}}")).is_err());
    }
}
