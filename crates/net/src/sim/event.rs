use minsync_types::ProcessId;

use crate::TimerId;

/// What a scheduled event does when it fires. Plain data, 24 bytes: a
/// delivery names its message by its entry in the simulator's in-flight
/// table instead of carrying it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EventKind {
    /// Invoke `on_start` on a node (enqueued once per node at time zero).
    Start(ProcessId),
    /// Deliver a message.
    Deliver {
        /// True sender (stamped by the network — no impersonation).
        from: ProcessId,
        /// Destination.
        to: ProcessId,
        /// The message's entry in the in-flight table.
        msg: u32,
    },
    /// Fire a timer on a node (ignored if the timer was cancelled).
    Timer {
        /// Owner of the timer.
        process: ProcessId,
        /// Which timer.
        timer: TimerId,
    },
}

/// Why a simulation run stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// No events left: the system is quiescent.
    Quiescent,
    /// The caller's predicate became true.
    PredicateSatisfied,
    /// The configured event-count budget was exhausted.
    MaxEventsReached,
}

impl StopReason {
    /// True if the run ended for a benign reason (quiescence or predicate),
    /// false if it hit a resource cap.
    pub fn is_natural(self) -> bool {
        matches!(self, StopReason::Quiescent | StopReason::PredicateSatisfied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_small() {
        assert!(std::mem::size_of::<EventKind>() <= 24);
    }

    #[test]
    fn stop_reason_naturalness() {
        assert!(StopReason::Quiescent.is_natural());
        assert!(StopReason::PredicateSatisfied.is_natural());
        assert!(!StopReason::MaxEventsReached.is_natural());
    }
}
