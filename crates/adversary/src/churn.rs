//! Time-windowed churn injection for the simulator's
//! [`ScheduleOracle`] seam.
//!
//! The delay oracles in [`crate::oracles`] drive the same seam to shape
//! *how slow* asynchronous channels are; the churn oracle models *dynamic*
//! faults — partitions that heal, processes that vanish and come back, a
//! timely source that moves — by suppressing messages outright during
//! declared time windows. Drops are the one tool the schedule seam has that
//! timing bounds cannot veto, and they are sound against a correct
//! protocol: round advancement (the view synchronizer) retransmits state in
//! fresh-round messages and the SMR checkpoint path repairs any replica
//! that missed traffic, so progress must resume once the window closes —
//! exactly the liveness-under-churn property experiment E13 asserts.
//!
//! Everything here is virtual-time-driven and deterministic: the same
//! windows over the same seeded simulation give byte-identical executions.

use minsync_net::sim::{ScheduleCommand, ScheduleOracle};
use minsync_net::VirtualTime;
use minsync_types::ProcessId;

/// A [`Disruption::Targeted`] drop predicate: given sender, destination,
/// and the message, returns true for messages to suppress.
pub type DropPredicate<M> = Box<dyn FnMut(ProcessId, ProcessId, &M) -> bool + Send>;

/// What a [`ChurnWindow`] does to messages routed while it is open.
pub enum Disruption<M> {
    /// Bidirectional partition: messages crossing the cut between `side`
    /// and its complement are dropped. Self-delivery and intra-side traffic
    /// flow normally.
    Partition {
        /// One side of the cut (the other side is the complement).
        side: Vec<ProcessId>,
    },
    /// Total isolation of one process — the sim-side model of a crash (and,
    /// when windows rotate over processes, of a GST that moves because the
    /// timely source rotates). Self-delivery still flows, so the process
    /// keeps running and can be repaired by checkpoints after the window.
    Isolate {
        /// The isolated process.
        process: ProcessId,
    },
    /// Adaptive targeting: drops exactly the messages the host-supplied
    /// predicate selects (given sender, destination, and the message).
    /// The harness builds predicates with full protocol knowledge — e.g.
    /// "traffic from the coordinator of the round this message belongs
    /// to" — which is how an adversary that follows the current champion
    /// is expressed without this crate knowing the message schema.
    Targeted {
        /// Returns true for messages to suppress.
        predicate: DropPredicate<M>,
    },
}

impl<M> std::fmt::Debug for Disruption<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Disruption::Partition { side } => {
                f.debug_struct("Partition").field("side", side).finish()
            }
            Disruption::Isolate { process } => {
                f.debug_struct("Isolate").field("process", process).finish()
            }
            Disruption::Targeted { .. } => f.debug_struct("Targeted").finish_non_exhaustive(),
        }
    }
}

/// One disruption active during `[from, to)` in virtual time.
#[derive(Debug)]
pub struct ChurnWindow<M> {
    /// Window opens (inclusive).
    pub from: VirtualTime,
    /// Window closes (exclusive) — the "heal" instant.
    pub to: VirtualTime,
    /// What the window does.
    pub disruption: Disruption<M>,
}

impl<M> ChurnWindow<M> {
    fn blocks(&mut self, from: ProcessId, to: ProcessId, at: VirtualTime, msg: &M) -> bool {
        if at < self.from || at >= self.to {
            return false;
        }
        match &mut self.disruption {
            Disruption::Partition { side } => {
                from != to && side.contains(&from) != side.contains(&to)
            }
            Disruption::Isolate { process } => from != to && (from == *process || to == *process),
            Disruption::Targeted { predicate } => predicate(from, to, msg),
        }
    }
}

/// A [`ScheduleOracle`] that applies a set of [`ChurnWindow`]s: any message
/// routed while a window blocking it is open is suppressed; everything else
/// follows the channel's sampled default, so outside every window the
/// execution is byte-identical to an oracle-free run.
#[derive(Debug, Default)]
pub struct ChurnOracle<M> {
    windows: Vec<ChurnWindow<M>>,
}

impl<M> ChurnOracle<M> {
    /// An oracle with no windows (drops nothing).
    pub fn new() -> Self {
        ChurnOracle {
            windows: Vec::new(),
        }
    }

    /// Adds a window (builder style).
    pub fn window(mut self, w: ChurnWindow<M>) -> Self {
        self.windows.push(w);
        self
    }

    /// Partition `side` vs the rest during `[from, to)` ticks.
    pub fn partition(self, from: u64, to: u64, side: Vec<ProcessId>) -> Self {
        self.window(ChurnWindow {
            from: VirtualTime::from_ticks(from),
            to: VirtualTime::from_ticks(to),
            disruption: Disruption::Partition { side },
        })
    }

    /// Isolate `process` (crash model) during `[from, to)` ticks.
    pub fn isolate(self, from: u64, to: u64, process: ProcessId) -> Self {
        self.window(ChurnWindow {
            from: VirtualTime::from_ticks(from),
            to: VirtualTime::from_ticks(to),
            disruption: Disruption::Isolate { process },
        })
    }

    /// Drop messages matching `predicate` during `[from, to)` ticks.
    pub fn targeted(
        self,
        from: u64,
        to: u64,
        predicate: impl FnMut(ProcessId, ProcessId, &M) -> bool + Send + 'static,
    ) -> Self {
        self.window(ChurnWindow {
            from: VirtualTime::from_ticks(from),
            to: VirtualTime::from_ticks(to),
            disruption: Disruption::Targeted {
                predicate: Box::new(predicate),
            },
        })
    }

    /// A moving-GST schedule: processes `0..n` take turns being isolated,
    /// each for `span` ticks starting at `start` — operationally, the set
    /// of processes with timely connectivity rotates, so no single round
    /// interval has a stable bisource until the rotation ends.
    pub fn rotating_isolation(mut self, n: usize, start: u64, span: u64) -> Self {
        for p in 0..n {
            let from = start + p as u64 * span;
            self = self.isolate(from, from + span, ProcessId::new(p));
        }
        self
    }
}

impl<M> ScheduleOracle<M> for ChurnOracle<M> {
    fn command(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        at: VirtualTime,
        msg: &M,
        _default: u64,
    ) -> ScheduleCommand {
        if self.windows.iter_mut().any(|w| w.blocks(from, to, at, msg)) {
            ScheduleCommand::Drop
        } else {
            ScheduleCommand::Default
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn cmd(o: &mut ChurnOracle<u32>, from: usize, to: usize, at: u64) -> ScheduleCommand {
        o.command(p(from), p(to), VirtualTime::from_ticks(at), &0u32, 3)
    }

    #[test]
    fn partition_blocks_only_cut_crossing_traffic_inside_window() {
        let mut o = ChurnOracle::new().partition(100, 200, vec![p(0), p(1)]);
        assert_eq!(cmd(&mut o, 0, 2, 150), ScheduleCommand::Drop, "crosses cut");
        assert_eq!(cmd(&mut o, 2, 1, 150), ScheduleCommand::Drop, "other way");
        assert_eq!(
            cmd(&mut o, 0, 1, 150),
            ScheduleCommand::Default,
            "same side"
        );
        assert_eq!(
            cmd(&mut o, 2, 3, 150),
            ScheduleCommand::Default,
            "same side"
        );
        assert_eq!(cmd(&mut o, 0, 2, 99), ScheduleCommand::Default, "before");
        assert_eq!(cmd(&mut o, 0, 2, 200), ScheduleCommand::Default, "healed");
    }

    #[test]
    fn isolation_spares_self_delivery() {
        let mut o = ChurnOracle::new().isolate(0, 50, p(1));
        assert_eq!(cmd(&mut o, 1, 0, 10), ScheduleCommand::Drop);
        assert_eq!(cmd(&mut o, 0, 1, 10), ScheduleCommand::Drop);
        assert_eq!(
            cmd(&mut o, 1, 1, 10),
            ScheduleCommand::Default,
            "self flows"
        );
        assert_eq!(cmd(&mut o, 0, 2, 10), ScheduleCommand::Default);
    }

    #[test]
    fn rotation_covers_each_process_in_turn() {
        let mut o = ChurnOracle::new().rotating_isolation(3, 100, 50);
        assert_eq!(cmd(&mut o, 0, 1, 120), ScheduleCommand::Drop, "p0's turn");
        assert_eq!(
            cmd(&mut o, 0, 2, 170),
            ScheduleCommand::Default,
            "p0 healed"
        );
        assert_eq!(cmd(&mut o, 1, 2, 170), ScheduleCommand::Drop, "p1's turn");
        assert_eq!(cmd(&mut o, 2, 0, 220), ScheduleCommand::Drop, "p2's turn");
        assert_eq!(
            cmd(&mut o, 2, 0, 260),
            ScheduleCommand::Default,
            "rotation over"
        );
    }

    #[test]
    fn targeted_predicate_sees_sender_destination_and_message() {
        let mut o =
            ChurnOracle::new().targeted(0, 100, |from, _to, msg: &u32| from == p(2) && *msg == 7);
        assert_eq!(
            o.command(p(2), p(0), VirtualTime::from_ticks(5), &7u32, 3),
            ScheduleCommand::Drop
        );
        assert_eq!(
            o.command(p(2), p(0), VirtualTime::from_ticks(5), &8u32, 3),
            ScheduleCommand::Default
        );
        assert_eq!(
            o.command(p(1), p(0), VirtualTime::from_ticks(5), &7u32, 3),
            ScheduleCommand::Default
        );
    }

    #[test]
    fn empty_oracle_never_drops() {
        let mut o: ChurnOracle<u32> = ChurnOracle::new();
        for (from, to, at) in [(0, 1, 5), (1, 0, 5), (2, 2, 0), (3, 1, u64::MAX)] {
            assert_eq!(cmd(&mut o, from, to, at), ScheduleCommand::Default);
        }
    }
}
