//! The metrics registry: interned counter and gauge handles, a text
//! snapshot format, and its parser.
//!
//! Hot-path discipline: recording into a [`Counter`] or [`Gauge`] is one
//! relaxed atomic operation — no floats, no locks, no allocation. The
//! registry's lock is taken only at *registration* time (interning a name)
//! and at *snapshot* time (end of run, or a periodic report), never per
//! sample.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing event count. Clones share the same cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (tests, default fields).
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins level (queue depth, live connections, a final report
/// value). Clones share the same cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn detached() -> Self {
        Gauge::default()
    }

    /// Overwrites the level.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One metric's value inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A [`Counter`] reading.
    Counter(u64),
    /// A [`Gauge`] reading.
    Gauge(u64),
}

/// A point-in-time copy of every metric in a [`Registry`], sorted by name —
/// the unit the text format serializes ([`Snapshot::to_text`] /
/// [`Snapshot::parse`]) and the cluster control pipe ships per replica.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    entries: Vec<(String, MetricValue)>,
}

/// First line of the text snapshot format (format version marker).
pub const SNAPSHOT_HEADER: &str = "STAT v1";
/// Last line of the text snapshot format.
pub const SNAPSHOT_FOOTER: &str = "END STAT";

impl Snapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        Snapshot::default()
    }

    /// True if no metric was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    fn set(&mut self, name: &str, value: MetricValue) {
        match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (name.to_string(), value)),
        }
    }

    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Sum of every counter whose name starts with `prefix`.
    pub fn sum_counters(&self, prefix: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .filter_map(|(_, v)| match v {
                MetricValue::Counter(c) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// Inserts or replaces a counter entry (compat shims and tests; live
    /// code records through [`Registry`] handles instead).
    pub fn set_counter(&mut self, name: &str, v: u64) {
        check_name(name);
        self.set(name, MetricValue::Counter(v));
    }

    /// Inserts or replaces a gauge entry.
    pub fn set_gauge(&mut self, name: &str, v: u64) {
        check_name(name);
        self.set(name, MetricValue::Gauge(v));
    }

    /// Renders the line-oriented text format:
    ///
    /// ```text
    /// STAT v1
    /// CTR smr.future_drops 0
    /// GGE watch.p0.commit_floor 128
    /// END STAT
    /// ```
    ///
    /// Every value is a named decimal `u64`. The format is
    /// self-describing (no positional fields), so producers may add metrics
    /// without breaking older parsers.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(SNAPSHOT_HEADER);
        out.push('\n');
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("CTR {name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("GGE {name} {v}\n"));
                }
            }
        }
        out.push_str(SNAPSHOT_FOOTER);
        out.push('\n');
        out
    }

    /// Parses text produced by [`Snapshot::to_text`]. Lines before the
    /// header and after the footer are ignored (the control pipe may wrap
    /// the block); malformed `CTR`/`GGE` lines and lines under any other
    /// tag inside it are errors.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed line, or a
    /// missing header.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let mut snap = Snapshot::empty();
        let mut inside = false;
        for line in text.lines() {
            let line = line.trim();
            if !inside {
                inside = line == SNAPSHOT_HEADER;
                continue;
            }
            if line == SNAPSHOT_FOOTER {
                return Ok(snap);
            }
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_ascii_whitespace();
            let tag = parts.next().unwrap_or_default();
            let name = parts
                .next()
                .ok_or_else(|| format!("snapshot line without a name: {line:?}"))?;
            let parse_u64 = |s: Option<&str>, what: &str| -> Result<u64, String> {
                s.ok_or_else(|| format!("snapshot line missing {what}: {line:?}"))?
                    .parse::<u64>()
                    .map_err(|_| format!("snapshot line has bad {what}: {line:?}"))
            };
            match tag {
                "CTR" => {
                    let v = parse_u64(parts.next(), "counter value")?;
                    snap.set(name, MetricValue::Counter(v));
                }
                "GGE" => {
                    let v = parse_u64(parts.next(), "gauge value")?;
                    snap.set(name, MetricValue::Gauge(v));
                }
                _ => return Err(format!("unknown snapshot tag: {line:?}")),
            }
        }
        if inside {
            Err("snapshot footer missing".to_string())
        } else {
            Err("snapshot header missing".to_string())
        }
    }
}

fn check_name(name: &str) {
    assert!(
        !name.is_empty() && !name.contains(char::is_whitespace),
        "metric name must be non-empty and whitespace-free: {name:?}"
    );
}

#[derive(Debug, Default)]
struct Inner {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
}

/// The interning registry: one per process (or per replica), shared by
/// every layer that records metrics. Requesting the same name twice
/// returns a handle to the same cell, so layers can meet at a metric
/// without threading handles through constructors.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Interns (or retrieves) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or contains whitespace (the text format
    /// is whitespace-delimited).
    pub fn counter(&self, name: &str) -> Counter {
        check_name(name);
        let mut inner = self.inner.lock().expect("registry poisoned");
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::detached();
        inner.counters.push((name.to_string(), c.clone()));
        c
    }

    /// Interns (or retrieves) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or contains whitespace.
    pub fn gauge(&self, name: &str) -> Gauge {
        check_name(name);
        let mut inner = self.inner.lock().expect("registry poisoned");
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge::detached();
        inner.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// Copies every metric out into a name-sorted [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut snap = Snapshot::empty();
        for (name, c) in &inner.counters {
            snap.set(name, MetricValue::Counter(c.get()));
        }
        for (name, g) in &inner.gauges {
            snap.set(name, MetricValue::Gauge(g.get()));
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_cells() {
        let reg = Registry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = reg.gauge("x.depth");
        reg.gauge("x.depth").set(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    #[should_panic(expected = "whitespace-free")]
    fn whitespace_names_rejected() {
        Registry::new().counter("bad name");
    }

    #[test]
    fn snapshot_roundtrips_through_text() {
        let reg = Registry::new();
        reg.counter("a.count").add(7);
        reg.gauge("b.level").set(u64::MAX);
        let snap = reg.snapshot();
        let parsed = Snapshot::parse(&snap.to_text()).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.counter("a.count"), Some(7));
        assert_eq!(parsed.gauge("b.level"), Some(u64::MAX));
    }

    #[test]
    fn parse_ignores_wrapping_lines_and_rejects_garbage() {
        let text = format!("noise\n{SNAPSHOT_HEADER}\nCTR a 1\n{SNAPSHOT_FOOTER}\ntrailing");
        let snap = Snapshot::parse(&text).unwrap();
        assert_eq!(snap.counter("a"), Some(1));
        assert!(Snapshot::parse("no header").is_err());
        assert!(Snapshot::parse(&format!("{SNAPSHOT_HEADER}\nCTR a 1")).is_err());
        assert!(
            Snapshot::parse(&format!("{SNAPSHOT_HEADER}\nXXX a 1\n{SNAPSHOT_FOOTER}")).is_err()
        );
        assert!(
            Snapshot::parse(&format!("{SNAPSHOT_HEADER}\nCTR a pear\n{SNAPSHOT_FOOTER}")).is_err()
        );
        // A retired tag (`HST`) is rejected like any unknown one.
        assert!(Snapshot::parse(&format!(
            "{SNAPSHOT_HEADER}\nHST wire.encode_ns 3 40 2:1 6:2\n{SNAPSHOT_FOOTER}"
        ))
        .is_err());
    }

    #[test]
    fn sum_counters_filters_by_prefix() {
        let mut s = Snapshot::empty();
        s.set_counter("mesh.drop.p0", 2);
        s.set_counter("mesh.drop.p1", 3);
        s.set_counter("smr.drop", 100);
        s.set_gauge("mesh.drop.level", 999);
        assert_eq!(s.sum_counters("mesh.drop."), 5);
    }
}
