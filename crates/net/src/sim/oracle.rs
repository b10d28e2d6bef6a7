use minsync_types::ProcessId;

use crate::VirtualTime;

/// One routing decision returned by a [`ScheduleOracle`]: leave the
/// message alone, delay it, or lose it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScheduleCommand {
    /// Let the channel's own law schedule the message.
    Default,
    /// Deliver after the given number of ticks, on any channel, clamped to
    /// whatever bound the channel's timing guarantees (a schedule cannot
    /// break a timely or stabilized eventually-timely channel).
    After(u64),
    /// Deliver after the given number of ticks, but only where the model
    /// leaves the channel asynchronous at send time: an
    /// [`Asynchronous`](crate::ChannelTiming::Asynchronous) channel takes
    /// the delay as-is, a pre-stabilization
    /// [`EventuallyTimely`](crate::ChannelTiming::EventuallyTimely) one
    /// clamps it to `max(τ, send time) + δ`, and a channel that is timely
    /// at send time keeps its sampled delivery. So on a timely channel with
    /// `δ = 400`, `After(100)` delivers at 100 ticks and `Stretch(100)` at
    /// 400.
    Stretch(u64),
    /// Suppress the message entirely. The simulator counts it in
    /// [`Metrics::messages_suppressed`](super::Metrics::messages_suppressed)
    /// and never delivers it. The *caller* is responsible for keeping drops
    /// within the model's `t`-faults budget — the simulator applies the
    /// command mechanically.
    Drop,
}

/// The simulator's network adversary: control over the delivery
/// *schedule* — stretched delays, reorderings, and message drops.
///
/// The paper's Byzantine processes "do not control the network", but the
/// network itself may be scheduled adversarially as long as every delay is
/// finite and (eventually-)timely channels respect their bounds. This is
/// the one seam for that adversary: the delay oracles of
/// `minsync-adversary` and the conformance explorer both drive it. It is
/// consulted once per routed message (after the channel law has sampled
/// its own delay, so installing an oracle that always returns
/// [`ScheduleCommand::Default`] leaves the execution byte-identical), and
/// its consultation order is deterministic — a recorded sequence of
/// commands indexed by consultation count reproduces the run exactly.
///
/// Channel guarantees are enforced by the simulator, not trusted to the
/// oracle: an [`After`](ScheduleCommand::After) or
/// [`Stretch`](ScheduleCommand::Stretch) delay is clamped so a timely
/// channel still delivers within `δ` and an eventually-timely channel
/// within `max(τ, send time) + δ`. Only [`Drop`](ScheduleCommand::Drop)
/// can exceed those bounds, and modelling a drop on a timely channel is
/// only sound for messages *from* a process the caller has designated
/// faulty.
pub trait ScheduleOracle<M>: Send {
    /// Picks the command for a message from `from` to `to` sent at `at`.
    /// `default` is the delay (in ticks) the channel's law sampled.
    fn command(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        at: VirtualTime,
        msg: &M,
        default: u64,
    ) -> ScheduleCommand;
}

/// Blanket impl so closures can serve as schedule oracles.
impl<M, F> ScheduleOracle<M> for F
where
    F: FnMut(ProcessId, ProcessId, VirtualTime, &M, u64) -> ScheduleCommand + Send,
{
    fn command(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        at: VirtualTime,
        msg: &M,
        default: u64,
    ) -> ScheduleCommand {
        self(from, to, at, msg, default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_schedule_oracles() {
        let mut oracle = |_f: ProcessId, _t: ProcessId, _at: VirtualTime, _m: &u32, d: u64| {
            if d > 5 {
                ScheduleCommand::Drop
            } else {
                ScheduleCommand::After(d + 1)
            }
        };
        let mut pick = |d| {
            ScheduleOracle::command(
                &mut oracle,
                ProcessId::new(0),
                ProcessId::new(1),
                VirtualTime::ZERO,
                &5u32,
                d,
            )
        };
        assert_eq!(pick(10), ScheduleCommand::Drop);
        assert_eq!(pick(3), ScheduleCommand::After(4));
    }
}
