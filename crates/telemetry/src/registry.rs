//! The metrics registry: interned counter/gauge/histogram handles, a text
//! snapshot format, and its parser.
//!
//! Hot-path discipline: recording into a [`Counter`], [`Gauge`], or
//! [`Histogram`] is one or three relaxed atomic adds — no floats, no locks,
//! no allocation. The registry's lock is taken only at *registration* time
//! (interning a name) and at *snapshot* time (end of run, or a periodic
//! report), never per sample.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of buckets in a [`Histogram`]: one per power of two of `u64`,
/// plus bucket 0 for the value zero.
pub const HIST_BUCKETS: usize = 64;

/// Bucket index of `v`: 0 for zero, otherwise the number of significant
/// bits clamped to the top bucket — bucket `b ≥ 1` covers
/// `[2^(b−1), 2^b − 1]`, and bucket 63 saturates at `u64::MAX`.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `b`.
pub fn bucket_floor(b: usize) -> u64 {
    match b {
        0 => 0,
        _ => 1u64 << (b - 1),
    }
}

/// Inclusive upper bound of bucket `b` (the top bucket absorbs everything
/// up to `u64::MAX`).
pub fn bucket_ceil(b: usize) -> u64 {
    match b {
        0 => 0,
        b if b >= HIST_BUCKETS - 1 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

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

    /// Raises the level by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Lowers the level by one, saturating at zero.
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCore {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

/// A fixed-bucket log2 histogram: 64 power-of-two buckets, a sample count,
/// and a saturating sum. Recording is three relaxed adds — no floats on the
/// hot path; percentiles are estimated from the buckets at snapshot time.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }
}

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn detached() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let core = &self.0;
        core.count.fetch_add(1, Ordering::Relaxed);
        // Saturating accumulation: a wrapped sum would silently corrupt the
        // mean, a pinned one is visibly pegged at the ceiling.
        let _ = core
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
        core.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current state out.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &self.0;
        HistogramSnapshot {
            count: core.count.load(Ordering::Relaxed),
            sum: core.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| core.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Per-bucket sample counts (see [`bucket_of`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Folds another snapshot into this one (bucket-wise; sums saturate).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
    }

    /// Nearest-rank percentile estimate: the upper bound of the bucket
    /// containing the rank (0 for an empty histogram). `p` is clamped to
    /// `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_ceil(b);
            }
        }
        bucket_ceil(HIST_BUCKETS - 1)
    }

    /// Arithmetic mean (0.0 when empty). Off the hot path by construction.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One metric's value inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A [`Counter`] reading.
    Counter(u64),
    /// A [`Gauge`] reading.
    Gauge(u64),
    /// A [`Histogram`] reading (boxed: the 64-bucket snapshot would
    /// otherwise inflate every counter/gauge entry to its size).
    Histogram(Box<HistogramSnapshot>),
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

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h.as_ref()),
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
    /// HST wire.encode_ns 128 40960 5:10 6:118
    /// END STAT
    /// ```
    ///
    /// Every value is a named decimal `u64`; histogram lines carry
    /// `count sum` then the non-empty `bucket:count` pairs. The format is
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
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("HST {name} {} {}", h.count, h.sum));
                    for (b, &c) in h.buckets.iter().enumerate() {
                        if c > 0 {
                            out.push_str(&format!(" {b}:{c}"));
                        }
                    }
                    out.push('\n');
                }
            }
        }
        out.push_str(SNAPSHOT_FOOTER);
        out.push('\n');
        out
    }

    /// Parses text produced by [`Snapshot::to_text`]. Lines before the
    /// header and after the footer are ignored (the control pipe may wrap
    /// the block); malformed `CTR`/`GGE`/`HST` lines inside it are errors.
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
                "HST" => {
                    let count = parse_u64(parts.next(), "histogram count")?;
                    let sum = parse_u64(parts.next(), "histogram sum")?;
                    let mut h = HistogramSnapshot {
                        count,
                        sum,
                        ..HistogramSnapshot::default()
                    };
                    for pair in parts {
                        let (b, c) = pair
                            .split_once(':')
                            .ok_or_else(|| format!("bad bucket pair {pair:?}: {line:?}"))?;
                        let b: usize = b
                            .parse()
                            .map_err(|_| format!("bad bucket index {pair:?}: {line:?}"))?;
                        if b >= HIST_BUCKETS {
                            return Err(format!("bucket index out of range: {line:?}"));
                        }
                        h.buckets[b] = c
                            .parse()
                            .map_err(|_| format!("bad bucket count {pair:?}: {line:?}"))?;
                    }
                    snap.set(name, MetricValue::Histogram(Box::new(h)));
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
    histograms: Vec<(String, Histogram)>,
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

    /// Interns (or retrieves) the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or contains whitespace.
    pub fn histogram(&self, name: &str) -> Histogram {
        check_name(name);
        let mut inner = self.inner.lock().expect("registry poisoned");
        if let Some((_, h)) = inner.histograms.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Histogram::detached();
        inner.histograms.push((name.to_string(), h.clone()));
        h
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
        for (name, h) in &inner.histograms {
            snap.set(name, MetricValue::Histogram(Box::new(h.snapshot())));
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 63);
        for b in 0..HIST_BUCKETS {
            assert!(bucket_floor(b) <= bucket_ceil(b));
            assert_eq!(bucket_of(bucket_floor(b)), b);
            assert_eq!(bucket_of(bucket_ceil(b)), b);
        }
    }

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
        g.dec();
        assert_eq!(g.get(), 8);
        let h = reg.histogram("x.lat");
        reg.histogram("x.lat").record(5);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn gauge_dec_saturates() {
        let g = Gauge::detached();
        g.dec();
        assert_eq!(g.get(), 0);
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
        let h = reg.histogram("c.lat");
        for v in [0, 1, 3, 900, u64::MAX] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let parsed = Snapshot::parse(&snap.to_text()).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.counter("a.count"), Some(7));
        assert_eq!(parsed.gauge("b.level"), Some(u64::MAX));
        assert_eq!(parsed.histogram("c.lat").unwrap().count, 5);
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
    }

    #[test]
    fn percentiles_estimate_to_bucket_ceilings() {
        let h = Histogram::detached();
        for _ in 0..99 {
            h.record(3); // bucket 2, ceil 3
        }
        h.record(1000); // bucket 10, ceil 1023
        let s = h.snapshot();
        assert_eq!(s.percentile(50.0), 3);
        assert_eq!(s.percentile(99.0), 3);
        assert_eq!(s.percentile(100.0), 1023);
        assert_eq!(HistogramSnapshot::default().percentile(50.0), 0);
    }

    #[test]
    fn merge_is_bucketwise() {
        let a = Histogram::detached();
        let b = Histogram::detached();
        a.record(1);
        b.record(1);
        b.record(100);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 102);
        assert_eq!(m.buckets[bucket_of(1)], 2);
        assert_eq!(m.buckets[bucket_of(100)], 1);
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
