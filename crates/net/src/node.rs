//! The automaton API: event-driven [`Node`]s that emit [`crate::Effect`]s.

use core::fmt::Debug;

use minsync_types::ProcessId;

use crate::Env;

/// Handle to a pending timer, returned by [`crate::Env::set_timer`].
///
/// Timer ids are unique per process within one execution. Figure 3 of the
/// paper keeps one timer per round (`timer_i[r]`); protocols map their round
/// (or other keys) to the `TimerId` the environment handed back.
///
/// # Allocation rule
///
/// Ids are allocated *in the [`Env`](crate::Env)*, from the per-process
/// [`TimerTable`](crate::TimerTable), at the moment
/// [`crate::Env::set_timer`] is called — before the substrate ever sees the
/// [`crate::Effect::SetTimer`] effect. A protocol can therefore store the
/// id in its state immediately, with no substrate round-trip and no
/// ordering hazard between "effect emitted" and "effect applied".
/// Substrates persist the table per process across handler invocations;
/// wrapper nodes hosting inner automata on child environments swap the
/// table in before driving the inner node and back out after
/// ([`Env::swap_timers`](crate::Env::swap_timers)).
///
/// # Representation
///
/// The raw `u64` packs a recycled *slot* in the low 32 bits and that slot's
/// *generation* in the high 32: two timers never share an id, and a firing
/// scheduled under an old generation is recognized as stale with one
/// integer comparison (see [`TimerTable`](crate::TimerTable)).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// Raw id, exposed for logging.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw representation — the inverse of
    /// [`TimerId::get`], for trace codecs that persist recorded executions.
    ///
    /// An id built this way is *foreign* to any live
    /// [`TimerTable`](crate::TimerTable): applying it via a `SetTimer`
    /// effect makes the table adopt the id's slot and generation.
    pub const fn from_raw(raw: u64) -> TimerId {
        TimerId(raw)
    }
}

/// An event-driven process automaton, written sans-io.
///
/// Handlers receive a `&mut Env<Msg, Output>` and *queue* effects
/// ([`crate::Env::send`], [`crate::Env::broadcast`],
/// [`crate::Env::set_timer`], [`crate::Env::output`], …) instead of calling
/// into the substrate; the substrate drains and interprets the queued
/// [`crate::Effect`]s after the handler returns. Because the node borrows
/// nothing from the substrate, the same automaton value runs unchanged on
/// the deterministic simulator and the threaded runtime, can be driven from
/// plain unit tests with a bare [`Env`], and whole line-ups can be swept
/// across seeds on parallel threads.
///
/// The paper assumes local processing takes zero time; accordingly, handler
/// invocations are atomic and instantaneous — all sends queued inside a
/// handler are stamped with the handler's invocation time.
///
/// Both correct protocol machines and Byzantine behaviors implement this
/// trait; the network layer stamps the true sender on every message, so a
/// Byzantine implementation can lie about anything except its identity
/// (Section 2.1: no impersonation). Byzantine wrappers get a strictly more
/// powerful API than the old callback design: they can intercept the
/// effect stream an honest inner automaton queued and rewrite it
/// wholesale (see `minsync-adversary`).
pub trait Node: Send {
    /// Protocol message type carried by the network.
    type Msg: Clone + Debug + Send + 'static;

    /// Observable output collected by the harness.
    type Output: Clone + Debug + Send + 'static;

    /// Invoked once at time zero, before any delivery.
    fn on_start(&mut self, env: &mut Env<Self::Msg, Self::Output>) {
        let _ = env;
    }

    /// Invoked when a message from `from` is received.
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        env: &mut Env<Self::Msg, Self::Output>,
    );

    /// Invoked when a timer armed with [`crate::Env::set_timer`] fires.
    fn on_timer(&mut self, timer: TimerId, env: &mut Env<Self::Msg, Self::Output>) {
        let _ = (timer, env);
    }

    /// A short label for traces and metrics (defaults to "node").
    fn label(&self) -> &'static str {
        "node"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Effect;

    #[test]
    fn timer_id_accessors() {
        let t = TimerId(9);
        assert_eq!(t.get(), 9);
        assert_eq!(format!("{t:?}"), "TimerId(9)");
        assert_eq!(TimerId::from_raw(t.get()), t);
    }

    // Compile-time check: Node stays object-safe (heterogeneous Byzantine
    // line-ups are stored as Box<dyn Node>).
    struct Nop;
    impl Node for Nop {
        type Msg = ();
        type Output = ();
        fn on_message(&mut self, _: ProcessId, _: (), _: &mut Env<(), ()>) {}
    }

    #[test]
    fn node_is_object_safe() {
        let b: Box<dyn Node<Msg = (), Output = ()>> = Box::new(Nop);
        assert_eq!(b.label(), "node");
    }

    /// A node is now a plain state machine: it can be driven from a unit
    /// test with a bare Env and its effects inspected directly.
    struct Echoer;
    impl Node for Echoer {
        type Msg = u32;
        type Output = u32;
        fn on_message(&mut self, from: ProcessId, msg: u32, env: &mut Env<u32, u32>) {
            env.send(from, msg + 1);
            env.output(msg);
        }
    }

    #[test]
    fn nodes_are_testable_without_a_substrate() {
        let mut env = Env::new(2, 0);
        Echoer.on_message(ProcessId::new(1), 5, &mut env);
        let effects: Vec<_> = env.drain().collect();
        assert_eq!(
            effects,
            [
                Effect::Send {
                    to: ProcessId::new(1),
                    msg: 6
                },
                Effect::Output(5)
            ]
        );
    }
}
