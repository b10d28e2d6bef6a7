//! Periodic registry sampling: the live half of the telemetry layer.
//!
//! [`crate::Snapshot`]s are the unit of both halves. A run's final report
//! is one `STAT v1` block; a live sample is the same block, stamped with
//! the producer's clock and taken while the run is in flight. On a control
//! pipe a sample is one `SAMPLE <at>` line followed by the block:
//!
//! ```text
//! SAMPLE 1234
//! STAT v1
//! CTR mesh.pings 9
//! GGE watch.p0.commit_floor 17
//! END STAT
//! ```
//!
//! [`Snapshot::parse`] reads the block, and a [`TimeSeries`] on the
//! consuming side keeps the newest of the resulting [`SeriesPoint`]s in a
//! bounded ring — the per-node time-indexed series the
//! [`watchdog`](crate::watchdog) consumes. `at` is in the producer's own
//! tick units (virtual ticks on the simulator, wall-clock ticks elsewhere).

use std::collections::VecDeque;

use crate::registry::Snapshot;

/// One point of a time-indexed series: every metric as of one sampling
/// instant.
#[derive(Clone, Debug)]
pub struct SeriesPoint {
    /// Producer clock at sampling time.
    pub at: u64,
    /// The registry's snapshot at that instant.
    pub values: Snapshot,
}

/// A fixed-capacity ring of [`SeriesPoint`]s, oldest first. The ring
/// bounds memory no matter how long the producer runs: once full, each
/// push evicts the oldest point.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    capacity: usize,
    points: VecDeque<SeriesPoint>,
}

impl TimeSeries {
    /// A series retaining the most recent `capacity` points (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TimeSeries {
            capacity: capacity.max(1),
            points: VecDeque::new(),
        }
    }

    /// Appends the snapshot `values` taken at producer clock `at`.
    pub fn push(&mut self, at: u64, values: Snapshot) {
        if self.points.len() == self.capacity {
            self.points.pop_front();
        }
        self.points.push_back(SeriesPoint { at, values });
    }

    /// Retained points, oldest first.
    pub fn points(&self) -> impl Iterator<Item = &SeriesPoint> {
        self.points.iter()
    }

    /// The most recent point.
    pub fn latest(&self) -> Option<&SeriesPoint> {
        self.points.back()
    }

    /// Retained point count (≤ capacity).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no point has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    /// What a consumer holds once a sample crossed a pipe.
    fn shipped(registry: &Registry) -> Snapshot {
        Snapshot::parse(&registry.snapshot().to_text()).expect("own rendering parses")
    }

    #[test]
    fn first_sample_carries_every_nonzero_metric() {
        let registry = Registry::new();
        registry.counter("a.count").add(3);
        registry.counter("a.zero");
        registry.gauge("b.level").set(7);
        let mut series = TimeSeries::with_capacity(4);
        series.push(100, shipped(&registry));
        // Zeros too: the point is the whole registry.
        let point = series.latest().unwrap();
        assert_eq!((point.at, &point.values), (100, &registry.snapshot()));
    }

    #[test]
    fn series_reconstructs_cumulative_state() {
        let registry = Registry::new();
        let (c, g) = (registry.counter("n.commits"), registry.gauge("n.floor"));
        let mut series = TimeSeries::with_capacity(8);
        for (at, step) in [(10, 2), (20, 3)] {
            c.add(step);
            g.set(step);
            series.push(at, shipped(&registry));
        }
        assert_eq!(series.len(), 2);
        let latest = series.latest().unwrap();
        assert_eq!(latest.at, 20);
        assert_eq!(latest.values.counter("n.commits"), Some(5));
        assert_eq!(latest.values.gauge("n.floor"), Some(3));
        // The older point still shows the older state.
        let first = series.points().next().unwrap();
        assert_eq!(first.values.counter("n.commits"), Some(2));
    }

    #[test]
    fn series_ring_evicts_oldest() {
        let mut series = TimeSeries::with_capacity(2);
        for i in 0..5u64 {
            let mut values = Snapshot::empty();
            values.set_counter("c", i + 1);
            series.push(i * 10, values);
        }
        assert_eq!(series.len(), 2);
        assert_eq!(series.latest().unwrap().values.counter("c"), Some(5));
        assert_eq!(series.points().next().unwrap().at, 30);
        assert_eq!(TimeSeries::with_capacity(0).capacity, 1);
    }
}
