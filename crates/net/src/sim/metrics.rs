use minsync_types::ProcessId;

use crate::VirtualTime;

/// Counters collected by the simulator, used by the experiment harness to
/// report message complexity and latency.
///
/// The per-sender and per-kind breakdowns are dense: a `Vec<u64>` indexed by
/// process id and a small interned table of `&'static str` kinds. Both were
/// `BTreeMap`s before, which put a tree probe (and an occasional node
/// allocation) on every single send — the hottest line in the simulator.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Total messages handed to the network (`send` calls, including
    /// self-sends and each fan-out copy of a broadcast).
    pub messages_sent: u64,
    /// Messages actually delivered to a live (non-halted) node.
    pub messages_delivered: u64,
    /// Messages dropped because the destination had halted.
    pub messages_dropped: u64,
    /// Messages suppressed by an installed
    /// [`ScheduleOracle`](crate::sim::ScheduleOracle) returning
    /// [`ScheduleCommand::Drop`](crate::sim::ScheduleCommand::Drop).
    pub messages_suppressed: u64,
    /// Timer firings delivered (cancelled timers excluded).
    pub timers_fired: u64,
    /// Events processed in total (starts + deliveries + timers).
    pub events_processed: u64,
    /// Per-sender message counts, indexed by process id (grown on demand).
    sent_by: Vec<u64>,
    /// Interned per message-kind counts, populated when a classifier is
    /// installed on the [`SimBuilder`](crate::sim::SimBuilder). Kinds are
    /// few, so lookups are a linear scan warmed by a last-hit cache.
    kinds: Vec<(&'static str, u64)>,
    /// Index into `kinds` of the most recently counted kind — consecutive
    /// sends overwhelmingly share a kind, so the common case is a single
    /// comparison.
    last_kind: usize,
    /// Latest event time processed.
    pub last_event_time: VirtualTime,
    /// High-water mark of the event queue, maintained on the push path (a
    /// quiescent drain pays nothing for it). Counts entries present in the
    /// queue after each push, which bounds every mid-dispatch length the old
    /// per-pop sampling could observe.
    pub max_queue_len: usize,
}

impl Metrics {
    /// Messages sent by one process (0 if none).
    pub fn sent_by_process(&self, p: ProcessId) -> u64 {
        self.sent_by.get(p.index()).copied().unwrap_or(0)
    }

    /// Messages of one classified kind (0 if none / no classifier).
    pub fn sent_of_kind(&self, kind: &str) -> u64 {
        self.kinds
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, c)| *c)
    }

    /// All classified kind counts, sorted by kind name (the iteration order
    /// the old `BTreeMap` representation gave for free).
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts = self.kinds.clone();
        counts.sort_unstable_by_key(|(k, _)| *k);
        counts
    }

    /// Counts `n` messages sent by `from`. Hot path: one bounds check and
    /// one add once the table covers the process.
    #[inline]
    pub(crate) fn record_sent(&mut self, from: ProcessId, n: u64) {
        self.messages_sent += n;
        let i = from.index();
        if i >= self.sent_by.len() {
            self.sent_by.resize(i + 1, 0);
        }
        self.sent_by[i] += n;
    }

    /// Counts `n` messages of classified `kind`. Hot path: the last-hit
    /// cache makes repeated kinds a single `&'static str` comparison
    /// (pointer + length for same-literal hits).
    #[inline]
    pub(crate) fn record_kind(&mut self, kind: &'static str, n: u64) {
        if let Some((k, c)) = self.kinds.get_mut(self.last_kind) {
            if str_eq_fast(k, kind) {
                *c += n;
                return;
            }
        }
        if let Some(i) = self.kinds.iter().position(|(k, _)| str_eq_fast(k, kind)) {
            self.kinds[i].1 += n;
            self.last_kind = i;
        } else {
            self.kinds.push((kind, n));
            self.last_kind = self.kinds.len() - 1;
        }
    }
}

/// `&'static str` equality with a pointer/length fast path: classifier
/// kinds are string literals, so repeated hits from the same call site
/// compare as two words without touching the bytes.
#[inline]
fn str_eq_fast(a: &'static str, b: &'static str) -> bool {
    (a.as_ptr() == b.as_ptr() && a.len() == b.len()) || a == b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_zero() {
        let m = Metrics::default();
        assert_eq!(m.messages_sent, 0);
        assert_eq!(m.sent_by_process(ProcessId::new(0)), 0);
        assert_eq!(m.sent_of_kind("ECHO"), 0);
        assert_eq!(m.last_event_time, VirtualTime::ZERO);
    }

    #[test]
    fn accessors_read_back_recorded_counts() {
        let mut m = Metrics::default();
        m.record_sent(ProcessId::new(2), 5);
        m.record_kind("READY", 7);
        assert_eq!(m.sent_by_process(ProcessId::new(2)), 5);
        assert_eq!(m.sent_by_process(ProcessId::new(0)), 0);
        assert_eq!(m.sent_of_kind("READY"), 7);
        assert_eq!(m.messages_sent, 5);
    }

    #[test]
    fn kind_interning_accumulates_and_sorts() {
        let mut m = Metrics::default();
        m.record_kind("ECHO", 1);
        m.record_kind("READY", 2);
        m.record_kind("ECHO", 3);
        assert_eq!(m.sent_of_kind("ECHO"), 4);
        assert_eq!(m.kind_counts(), [("ECHO", 4), ("READY", 2)]);
    }

    #[test]
    fn last_hit_cache_survives_interleaved_kinds() {
        let mut m = Metrics::default();
        for _ in 0..3 {
            m.record_kind("A", 1);
            m.record_kind("B", 1);
        }
        assert_eq!(m.sent_of_kind("A"), 3);
        assert_eq!(m.sent_of_kind("B"), 3);
    }

    #[test]
    fn kind_equality_falls_back_to_content() {
        // Two distinct statics with equal content must count together.
        static A: &str = "SAME";
        let b: &'static str = String::leak("SAME".to_string());
        let mut m = Metrics::default();
        m.record_kind(A, 1);
        m.record_kind(b, 1);
        assert_eq!(m.sent_of_kind("SAME"), 2);
        assert_eq!(m.kind_counts().len(), 1);
    }
}
