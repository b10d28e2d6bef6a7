use std::collections::BTreeMap;

use minsync_types::{BisourceSpec, ProcessId};

use crate::{ChannelTiming, VirtualTime};

#[cfg(test)]
use crate::DelayLaw;

/// Per-directed-channel timing assignment for a system of `n` processes.
///
/// A topology is a default timing plus sparse overrides — exactly how the
/// paper's assumptions are phrased ("all channels asynchronous except the
/// bisource's"). Self-channels are implicit and always timely with zero
/// delay (the paper's virtual self-channel).
///
/// ```rust
/// use minsync_net::{NetworkTopology, ChannelTiming, DelayLaw, VirtualTime};
/// use minsync_types::{BisourceSpec, SystemConfig, ProcessId};
///
/// # fn main() -> Result<(), minsync_types::ConfigError> {
/// let cfg = SystemConfig::new(4, 1)?;
/// let spec = BisourceSpec::adjacent(&cfg, ProcessId::new(0), cfg.plurality())?;
/// // Background asynchrony + an eventually-timely bisource stabilizing at τ = 50.
/// let topo = NetworkTopology::uniform(
///     4,
///     ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 20 }),
/// )
/// .with_bisource(&spec, VirtualTime::from_ticks(50), 3);
/// assert!(topo.timing(ProcessId::new(0), ProcessId::new(1)).is_timely_at(VirtualTime::from_ticks(50)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct NetworkTopology {
    n: usize,
    default: ChannelTiming,
    overrides: BTreeMap<(ProcessId, ProcessId), ChannelTiming>,
}

impl NetworkTopology {
    /// All `n·(n−1)` directed channels share `timing`.
    pub fn uniform(n: usize, timing: ChannelTiming) -> Self {
        assert!(n > 0, "topology needs at least one process");
        NetworkTopology {
            n,
            default: timing,
            overrides: BTreeMap::new(),
        }
    }

    /// Everything timely with bound `delta` — a synchronous network, handy
    /// for tests and fast-path benchmarks.
    pub fn all_timely(n: usize, delta: u64) -> Self {
        Self::uniform(n, ChannelTiming::timely(delta))
    }

    /// Number of processes.
    pub const fn n(&self) -> usize {
        self.n
    }

    /// Overrides the timing of the directed channel `from → to`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids or `from == to` (self-channels are virtual
    /// and always timely; they cannot be overridden).
    pub fn set(&mut self, from: ProcessId, to: ProcessId, timing: ChannelTiming) -> &mut Self {
        assert!(
            from.index() < self.n && to.index() < self.n,
            "channel endpoint out of range"
        );
        assert_ne!(from, to, "self-channels are virtual and always timely");
        self.overrides.insert((from, to), timing);
        self
    }

    /// Builder-style: make every channel of `spec` (inputs `X⁻ → ℓ`,
    /// outputs `ℓ → X⁺`) eventually timely with stabilization `tau` and
    /// bound `delta`.
    pub fn with_bisource(mut self, spec: &BisourceSpec, tau: VirtualTime, delta: u64) -> Self {
        for (from, to) in spec.timely_channels() {
            self.set(from, to, ChannelTiming::eventually_timely(tau, delta));
        }
        self
    }

    /// The timing of the directed channel `from → to`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids. `from == to` returns a zero-delay timely
    /// channel.
    pub fn timing(&self, from: ProcessId, to: ProcessId) -> ChannelTiming {
        assert!(
            from.index() < self.n && to.index() < self.n,
            "channel endpoint out of range"
        );
        if from == to {
            return ChannelTiming::timely(0);
        }
        self.overrides
            .get(&(from, to))
            .cloned()
            .unwrap_or_else(|| self.default.clone())
    }

    /// Iterates all directed channels `(from, to, timing)` with `from ≠ to`.
    pub fn channels(&self) -> impl Iterator<Item = (ProcessId, ProcessId, ChannelTiming)> + '_ {
        (0..self.n).flat_map(move |i| {
            (0..self.n).filter_map(move |j| {
                if i == j {
                    None
                } else {
                    let (from, to) = (ProcessId::new(i), ProcessId::new(j));
                    Some((from, to, self.timing(from, to)))
                }
            })
        })
    }

    /// Largest `delta` over all timely / eventually-timely channels, or
    /// `None` if every channel is asynchronous. Experiments use this to
    /// derive sensible horizons.
    pub fn max_delta(&self) -> Option<u64> {
        self.channels()
            .filter_map(|(_, _, t)| match t {
                ChannelTiming::Timely { delta } => Some(delta),
                ChannelTiming::EventuallyTimely { delta, .. } => Some(delta),
                ChannelTiming::Asynchronous { .. } => None,
            })
            .max()
    }

    /// Latest stabilization time over all eventually-timely channels
    /// (`VirtualTime::ZERO` if none).
    pub fn max_tau(&self) -> VirtualTime {
        self.channels()
            .filter_map(|(_, _, t)| match t {
                ChannelTiming::EventuallyTimely { tau, .. } => Some(tau),
                _ => None,
            })
            .max()
            .unwrap_or(VirtualTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minsync_types::SystemConfig;

    #[test]
    fn uniform_topology_serves_default() {
        let topo = NetworkTopology::all_timely(3, 7);
        assert_eq!(
            topo.timing(ProcessId::new(0), ProcessId::new(2)),
            ChannelTiming::timely(7)
        );
    }

    #[test]
    fn self_channel_is_zero_delay() {
        let topo = NetworkTopology::uniform(3, ChannelTiming::asynchronous(DelayLaw::Fixed(99)));
        assert_eq!(
            topo.timing(ProcessId::new(1), ProcessId::new(1)),
            ChannelTiming::timely(0)
        );
    }

    #[test]
    fn overrides_win_over_default() {
        let mut topo = NetworkTopology::all_timely(3, 7);
        topo.set(
            ProcessId::new(0),
            ProcessId::new(1),
            ChannelTiming::asynchronous(DelayLaw::Fixed(50)),
        );
        assert_eq!(
            topo.timing(ProcessId::new(0), ProcessId::new(1)),
            ChannelTiming::asynchronous(DelayLaw::Fixed(50))
        );
        // The reverse direction keeps the default: channels are directed.
        assert_eq!(
            topo.timing(ProcessId::new(1), ProcessId::new(0)),
            ChannelTiming::timely(7)
        );
    }

    #[test]
    #[should_panic(expected = "self-channels")]
    fn overriding_self_channel_panics() {
        let mut topo = NetworkTopology::all_timely(3, 1);
        topo.set(
            ProcessId::new(0),
            ProcessId::new(0),
            ChannelTiming::timely(1),
        );
    }

    #[test]
    fn with_bisource_marks_exactly_spec_channels() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let x = [ProcessId::new(0), ProcessId::new(2)];
        let spec = BisourceSpec::new(&cfg, ProcessId::new(2), x, x, cfg.plurality()).unwrap();
        let topo = NetworkTopology::uniform(4, ChannelTiming::asynchronous(DelayLaw::Fixed(30)))
            .with_bisource(&spec, VirtualTime::from_ticks(10), 2);
        let timely: Vec<_> = topo
            .channels()
            .filter(|(_, _, t)| matches!(t, ChannelTiming::EventuallyTimely { .. }))
            .map(|(a, b, _)| (a, b))
            .collect();
        let mut expected = spec.timely_channels();
        expected.sort();
        let mut got = timely.clone();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn channel_iteration_covers_all_ordered_pairs() {
        let topo = NetworkTopology::all_timely(4, 1);
        assert_eq!(topo.channels().count(), 12);
    }

    #[test]
    fn max_delta_and_tau() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let spec = BisourceSpec::adjacent(&cfg, ProcessId::new(0), 2).unwrap();
        let topo = NetworkTopology::uniform(
            4,
            ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 9 }),
        )
        .with_bisource(&spec, VirtualTime::from_ticks(77), 4);
        assert_eq!(topo.max_delta(), Some(4));
        assert_eq!(topo.max_tau(), VirtualTime::from_ticks(77));

        let all_async =
            NetworkTopology::uniform(3, ChannelTiming::asynchronous(DelayLaw::Fixed(1)));
        assert_eq!(all_async.max_delta(), None);
        assert_eq!(all_async.max_tau(), VirtualTime::ZERO);
    }
}
