//! The sans-io effect layer: handlers *return* what they want done instead
//! of calling into the substrate.
//!
//! A [`crate::Node`] handler receives a `&mut Env<M, O>` and pushes
//! [`Effect`] values into it ([`Env::send`], [`Env::broadcast`],
//! [`Env::set_timer`], …). After the handler returns, the substrate (the
//! simulator or the threaded runtime) drains the buffer and interprets each
//! effect. Protocol automata therefore never hold a reference into the
//! substrate, which is what makes executions recordable ("effect traces"),
//! replayable, and runnable on many seeds in parallel.
//!
//! `Env` is a concrete struct — there is no trait object anywhere on the
//! node ↔ substrate boundary, so a handler invocation plus its effect drain
//! compiles to plain enum matching.

use std::fmt;

use minsync_types::ProcessId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{TimerId, TimerTable, VirtualTime};

/// One instruction from a node to its substrate.
///
/// `M` is the protocol message type, `O` the observable output type —
/// the same parameters as [`crate::Node`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Effect<M, O> {
    /// Send `msg` over the directed channel `me → to`. Sending to oneself
    /// is allowed (the paper's virtual self-channel) and is always timely.
    Send {
        /// Destination process.
        to: ProcessId,
        /// The message.
        msg: M,
    },
    /// The paper's unreliable (best-effort) broadcast: one copy of `msg` to
    /// every process including the sender. The substrate expands the fan-out
    /// once — single timestamp, one queue reservation of `n` slots — instead
    /// of `n` independent sends. A *correct* process broadcasts the same
    /// message to everyone; Byzantine behaviors rewrite a `Broadcast` into
    /// per-destination `Send`s to equivocate.
    Broadcast {
        /// The message.
        msg: M,
    },
    /// Arm a one-shot timer firing `delay` ticks after the emitting
    /// handler's invocation time, delivering [`crate::Node::on_timer`] with
    /// `id` (unless cancelled). The id was pre-allocated by
    /// [`Env::set_timer`], so the protocol already stored it before the
    /// substrate ever saw the effect.
    SetTimer {
        /// Pre-allocated timer id.
        id: TimerId,
        /// Delay in ticks from the handler's invocation time.
        delay: u64,
    },
    /// Cancel a pending timer (Figure 3 line 16, "disable `timer_i[r]`").
    /// Cancelling an already-fired or unknown timer is a no-op.
    CancelTimer {
        /// The timer to cancel.
        id: TimerId,
    },
    /// Emit an observable event (decision, telemetry) to the harness.
    Output(O),
    /// Mark this node as halted: the substrate stops delivering messages
    /// and timers to it. Used by Figure 4 line 9 ("decides v and stops").
    Halt,
}

/// The execution environment handed to every [`crate::Node`] handler: the
/// node's identity and clock plus a reusable effect buffer.
///
/// The substrate owns one `Env` per process (threaded runtime) or one
/// shared `Env` re-targeted per invocation (simulator); either way it calls
/// [`Env::prepare`] before a handler runs and [`Env::take_buffer`] /
/// [`Env::drain`] afterwards. `Env` observes nothing: the substrate's
/// [`crate::driver::StepHooks`] see each invocation's effects and time its
/// step.
///
/// # Timer-id allocation rule
///
/// [`Env::set_timer`] allocates the [`TimerId`] *immediately*, before the
/// substrate applies the effect, from the per-process [`TimerTable`] the
/// substrate threads through [`Env::swap_timers`]. Protocols can therefore
/// store the id in their state with no substrate round-trip. Wrapper nodes
/// that host an inner automaton on a child `Env` must swap the table into
/// the child before driving it and swap it back after, so ids stay unique
/// per process.
pub struct Env<M, O> {
    me: ProcessId,
    n: usize,
    now: VirtualTime,
    timers: TimerTable,
    rng: StdRng,
    effects: Vec<Effect<M, O>>,
}

impl<M, O> Env<M, O> {
    /// Creates an environment for a system of `n` processes, with the
    /// node-visible random stream seeded from `seed`. Identity and clock
    /// start at process 0 / time zero; the substrate re-targets them with
    /// [`Env::prepare`] before each handler invocation.
    pub fn new(n: usize, seed: u64) -> Self {
        Env {
            me: ProcessId::new(0),
            n,
            now: VirtualTime::ZERO,
            timers: TimerTable::new(),
            rng: StdRng::seed_from_u64(seed),
            effects: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Node-facing API (the old `Context` surface, minus the trait object)
    // ------------------------------------------------------------------

    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Total number of processes `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current time: the invocation time of the running handler. In the
    /// simulator this is exact virtual time; in the threaded runtime it is
    /// wall-clock time converted to ticks.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Draws a pseudo-random `u64` from this environment's seeded stream.
    /// Correct protocols in this stack are deterministic and never call
    /// this; randomized baselines (Ben-Or) and Byzantine behaviors do.
    pub fn random(&mut self) -> u64 {
        self.rng.gen()
    }

    /// Queues [`Effect::Send`].
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.push(Effect::Send { to, msg });
    }

    /// Queues [`Effect::Broadcast`].
    pub fn broadcast(&mut self, msg: M) {
        self.push(Effect::Broadcast { msg });
    }

    /// Allocates a fresh [`TimerId`] and queues [`Effect::SetTimer`] firing
    /// `delay` ticks from [`Env::now`]. The returned id is valid
    /// immediately (see the module docs for the allocation rule).
    pub fn set_timer(&mut self, delay: u64) -> TimerId {
        let id = self.timers.alloc();
        self.push(Effect::SetTimer { id, delay });
        id
    }

    /// Queues [`Effect::CancelTimer`].
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.push(Effect::CancelTimer { id });
    }

    /// Queues [`Effect::Output`].
    pub fn output(&mut self, event: O) {
        self.push(Effect::Output(event));
    }

    /// Queues [`Effect::Halt`].
    pub fn halt(&mut self) {
        self.push(Effect::Halt);
    }

    /// Queues an already-built effect (used by adversaries and adapters
    /// that rewrite effect streams).
    pub fn push(&mut self, effect: Effect<M, O>) {
        self.effects.push(effect);
    }

    // ------------------------------------------------------------------
    // Wrapper- and substrate-facing API
    // ------------------------------------------------------------------

    /// Current length of the effect buffer. A wrapper node records the mark
    /// before driving an inner automaton and rewrites everything the inner
    /// handler queued via [`Env::take_since`].
    pub fn mark(&self) -> usize {
        self.effects.len()
    }

    /// Removes and returns every effect queued at or after `mark`, leaving
    /// earlier effects in place.
    pub fn take_since(&mut self, mark: usize) -> Vec<Effect<M, O>> {
        self.effects.split_off(mark)
    }

    /// Drains all queued effects in emission order.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Effect<M, O>> {
        self.effects.drain(..)
    }

    /// Takes the whole buffer out (substrate-side: process it, then hand it
    /// back with [`Env::restore_buffer`] so its capacity is reused and
    /// steady-state handler invocations allocate nothing).
    pub fn take_buffer(&mut self) -> Vec<Effect<M, O>> {
        std::mem::take(&mut self.effects)
    }

    /// Returns a (cleared) buffer taken with [`Env::take_buffer`].
    pub fn restore_buffer(&mut self, mut buffer: Vec<Effect<M, O>>) {
        buffer.clear();
        self.effects = buffer;
    }

    /// Re-targets the environment at `me` / `now` for the next handler
    /// invocation. Substrate-side; the effect buffer is untouched.
    pub fn prepare(&mut self, me: ProcessId, now: VirtualTime) {
        self.me = me;
        self.now = now;
    }

    /// Swaps this environment's [`TimerTable`] with `other`'s.
    ///
    /// Two callers, one idiom: the simulator swaps the per-process table
    /// into its shared `Env` before a handler runs and back out after
    /// (allocation and liveness live in one place, so the exchange is two
    /// pointer-sized swaps); wrapper nodes hosting an inner automaton on a
    /// child `Env` swap the table in before driving the inner handler and —
    /// the swap being symmetric — call the same method again to return it.
    pub fn swap_timers<M2, O2>(&mut self, other: &mut Env<M2, O2>) {
        std::mem::swap(&mut self.timers, &mut other.timers);
    }

    /// Direct access to the timer table — **substrate-side only**. A
    /// wall-clock runtime keeps each process's table inside its own `Env`
    /// permanently and consults it when applying timer effects
    /// ([`TimerTable::arm`] / [`TimerTable::cancel`]) and deciding whether
    /// a due firing is still live ([`TimerTable::try_fire`]). Public so
    /// out-of-crate substrates (the TCP transport) can reuse the scheme;
    /// protocol automata must never touch it.
    pub fn timers_mut(&mut self) -> &mut TimerTable {
        &mut self.timers
    }
}

impl<M, O> fmt::Debug for Env<M, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Env")
            .field("me", &self.me)
            .field("n", &self.n)
            .field("now", &self.now)
            .field("timer_slots", &self.timers.capacity())
            .field("pending_effects", &self.effects.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effects_are_buffered_in_emission_order() {
        let mut env: Env<u32, &'static str> = Env::new(3, 0);
        env.send(ProcessId::new(1), 7);
        env.broadcast(9);
        let t = env.set_timer(5);
        env.cancel_timer(t);
        env.output("done");
        env.halt();
        let effects: Vec<_> = env.drain().collect();
        assert_eq!(
            effects,
            [
                Effect::Send {
                    to: ProcessId::new(1),
                    msg: 7
                },
                Effect::Broadcast { msg: 9 },
                Effect::SetTimer { id: t, delay: 5 },
                Effect::CancelTimer { id: t },
                Effect::Output("done"),
                Effect::Halt,
            ]
        );
    }

    #[test]
    fn timer_ids_are_visible_before_application() {
        let mut env: Env<(), ()> = Env::new(1, 0);
        let a = env.set_timer(1);
        let b = env.set_timer(2);
        assert_ne!(a, b, "ids unique without any substrate round-trip");
        // The queued effects carry the pre-allocated ids.
        let effects: Vec<_> = env.drain().collect();
        assert_eq!(
            effects,
            [
                Effect::SetTimer { id: a, delay: 1 },
                Effect::SetTimer { id: b, delay: 2 }
            ]
        );
    }

    #[test]
    fn mark_and_take_since_split_the_buffer() {
        let mut env: Env<u32, ()> = Env::new(2, 0);
        env.send(ProcessId::new(0), 1);
        let mark = env.mark();
        env.send(ProcessId::new(1), 2);
        env.broadcast(3);
        let tail = env.take_since(mark);
        assert_eq!(tail.len(), 2);
        assert_eq!(env.mark(), 1, "prefix untouched");
    }

    #[test]
    fn buffer_capacity_is_reused() {
        let mut env: Env<u32, ()> = Env::new(2, 0);
        for i in 0..100 {
            env.send(ProcessId::new(0), i);
        }
        let buf = env.take_buffer();
        let cap = buf.capacity();
        env.restore_buffer(buf);
        assert_eq!(env.mark(), 0);
        env.send(ProcessId::new(0), 1);
        assert!(env.take_buffer().capacity() >= cap.min(100));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a: Env<(), ()> = Env::new(1, 42);
        let mut b: Env<(), ()> = Env::new(1, 42);
        assert_eq!(a.random(), b.random());
    }

    #[test]
    fn prepare_retargets_identity_and_clock() {
        let mut env: Env<(), ()> = Env::new(4, 0);
        env.prepare(ProcessId::new(2), VirtualTime::from_ticks(9));
        assert_eq!(env.me(), ProcessId::new(2));
        assert_eq!(env.now(), VirtualTime::from_ticks(9));
        assert_eq!(env.n(), 4);
    }
}
