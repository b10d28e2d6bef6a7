//! The one place a [`Node`] is driven.
//!
//! Every substrate runs a handler the same way: re-target the [`Env`],
//! dispatch one [`InvocationCause`] to `on_start` / `on_message` /
//! `on_timer`, then interpret the queued [`Effect`]s in emission order.
//! [`step`] is that invocation, written once; what differs between
//! substrates is only where the effects go, which is the [`Link`] seam:
//!
//! | link | lives in | sends go to |
//! |------|----------|-------------|
//! | simulator | `sim::simulation` | the virtual-time event queue |
//! | threaded  | [`crate::threaded`] | the delay-router thread |
//! | TCP mesh  | `minsync-transport` | per-peer send queues + a self-queue |
//! | replayer  | `minsync-conformance` | `(seq, msg)` bookkeeping |
//!
//! The two wall-clock substrates additionally share [`WallClockLoop`]: the
//! `Instant` timer heap ([`WallTimers`]), the one wall-clock → tick
//! conversion ([`WallClock`]), and the node thread's loop body; each link
//! waits for inbound traffic its own way ([`WallClockLink::recv`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Debug;
use std::sync::Arc;
use std::time::{Duration, Instant};

use minsync_telemetry::trace::{TraceKind, TraceRecorder};
use minsync_types::ProcessId;

use crate::sim::InvocationCause;
use crate::{Effect, Env, Node, TimerId, VirtualTime};

/// Where one process's effects go. [`step`] is monomorphised over the
/// link, so interpreting effects stays a concrete enum match.
pub trait Link<M: Clone, O> {
    /// One message over the directed channel `me → to`.
    fn send(&mut self, to: ProcessId, msg: M);

    /// One copy of `msg` to each of the `n` processes, self included, in
    /// destination order.
    fn broadcast(&mut self, n: usize, msg: M) {
        for to in 0..n {
            self.send(ProcessId::new(to), msg.clone());
        }
    }

    /// Schedules one firing of `id`, `delay` ticks after the invocation
    /// time. Liveness stays with the [`crate::TimerTable`]; a link only
    /// has to hand the id back when it is due.
    fn set_timer(&mut self, id: TimerId, delay: u64);

    /// An observable event for the harness.
    fn output(&mut self, event: O);

    /// The process stops: no further invocations.
    fn halt(&mut self);
}

/// Sees one invocation's effects, in emission order, before they are
/// applied (effect recording, replay comparison).
pub type Recorder<'a, M, O> = &'a mut dyn FnMut(&[Effect<M, O>]);

/// Optional observers of one [`step`]; both absent on the hot path.
pub struct StepHooks<'a, M, O> {
    /// Trace ring: gets exactly one `HandlerStep` per invocation, timed
    /// across the handler *and* the application of its effects.
    pub trace: Option<&'a TraceRecorder>,
    /// Effect recorder, if any.
    pub record: Option<Recorder<'a, M, O>>,
}

/// Runs one atomic handler invocation of `node` as process `me` at `now`
/// and applies everything it queued to `link`, in emission order.
///
/// The caller has already decided the invocation happens (the process is
/// not halted; a timer cause survived [`crate::TimerTable::try_fire`]) and
/// has put the process's timer table into `env`.
pub fn step<M, O>(
    node: &mut dyn Node<Msg = M, Output = O>,
    cause: InvocationCause<M>,
    me: ProcessId,
    now: VirtualTime,
    env: &mut Env<M, O>,
    link: &mut impl Link<M, O>,
    hooks: StepHooks<'_, M, O>,
) where
    M: Clone + Debug + Send + 'static,
    O: Clone + Debug + Send + 'static,
{
    env.prepare(me, now);
    let started = step_start(hooks.trace);
    match cause {
        InvocationCause::Start => node.on_start(env),
        InvocationCause::Deliver { from, msg } => node.on_message(from, msg, env),
        InvocationCause::Timer { id } => node.on_timer(id, env),
    }
    let mut effects = env.take_buffer();
    if let Some(record) = hooks.record {
        record(&effects);
    }
    for effect in effects.drain(..) {
        match effect {
            Effect::Send { to, msg } => link.send(to, msg),
            Effect::Broadcast { msg } => link.broadcast(env.n(), msg),
            Effect::SetTimer { id, delay } => {
                env.timers_mut().arm(id);
                link.set_timer(id, delay);
            }
            Effect::CancelTimer { id } => env.timers_mut().cancel(id),
            Effect::Output(event) => link.output(event),
            Effect::Halt => link.halt(),
        }
    }
    // The buffer's capacity is recycled: a steady-state invocation
    // allocates nothing.
    env.restore_buffer(effects);
    note_step(hooks.trace, started, now, me.index() as u32);
}

/// Wall-clock start of a handler step, taken only when tracing (the
/// untraced hot loop never calls `Instant::now`).
fn step_start(trace: Option<&TraceRecorder>) -> Option<Instant> {
    trace.map(|_| Instant::now())
}

/// Records the handler step cost begun at `started` (no-op untraced).
fn note_step(trace: Option<&TraceRecorder>, started: Option<Instant>, now: VirtualTime, who: u32) {
    if let (Some(trace), Some(started)) = (trace, started) {
        let nanos = started.elapsed().as_nanos() as u64;
        trace.record_at(now.ticks(), who, TraceKind::HandlerStep { nanos });
    }
}

/// Longest any wall-clock loop (node thread, delay router, collector)
/// sleeps before re-checking its exit condition.
pub(crate) const MAX_WAIT: Duration = Duration::from_millis(10);

/// The wall-clock → virtual-tick conversion of one run.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    start: Instant,
    tick: Duration,
}

impl WallClock {
    /// A clock that read zero at `start`, one tick per `tick`.
    pub fn new(start: Instant, tick: Duration) -> Self {
        WallClock { start, tick }
    }

    /// Wall-clock time since the run started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Whole ticks in `elapsed`.
    pub fn ticks_of(&self, elapsed: Duration) -> u64 {
        (elapsed.as_nanos() / self.tick.as_nanos().max(1)) as u64
    }

    /// Whole ticks since the run started.
    pub fn ticks(&self) -> u64 {
        self.ticks_of(self.elapsed())
    }

    /// [`WallClock::ticks`] as the time handed to handlers.
    pub fn now(&self) -> VirtualTime {
        VirtualTime::from_ticks(self.ticks())
    }

    /// The instant `ticks` ticks from now.
    pub fn after(&self, ticks: u64) -> Instant {
        Instant::now() + self.tick * u32::try_from(ticks).unwrap_or(u32::MAX)
    }
}

#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct PendingTimer {
    due: Instant,
    id: TimerId,
}

/// The part of a wall-clock [`Link`] that [`WallClockLoop`] reads back:
/// armed firings on an `Instant` heap, and the halt flag.
pub struct WallTimers {
    clock: WallClock,
    heap: BinaryHeap<Reverse<PendingTimer>>,
    halted: bool,
}

impl WallTimers {
    /// No timers armed, not halted.
    pub fn new(clock: WallClock) -> Self {
        WallTimers {
            clock,
            heap: BinaryHeap::new(),
            halted: false,
        }
    }

    /// The run's clock.
    pub fn clock(&self) -> WallClock {
        self.clock
    }

    /// [`Link::set_timer`] of a wall-clock link.
    pub fn set(&mut self, id: TimerId, delay: u64) {
        let due = self.clock.after(delay);
        self.heap.push(Reverse(PendingTimer { due, id }));
    }

    /// [`Link::halt`] of a wall-clock link.
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// True once the node halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    fn pop_due(&mut self, now: Instant) -> Option<TimerId> {
        if self.heap.peek()?.0.due > now {
            return None;
        }
        self.heap.pop().map(|t| t.0.id)
    }

    /// Time until the next firing, capped at [`MAX_WAIT`].
    fn wait(&self) -> Duration {
        self.heap.peek().map_or(MAX_WAIT, |t| {
            let until = t.0.due.saturating_duration_since(Instant::now());
            until.min(MAX_WAIT)
        })
    }
}

/// A [`Link`] whose timers and halt flag live in a [`WallTimers`], which is
/// what lets [`WallClockLoop`] drive it.
pub trait WallClockLink<M: Clone, O>: Link<M, O> {
    /// The link's timer heap and halt flag.
    fn timers(&mut self) -> &mut WallTimers;

    /// Next message on the always-timely virtual self-channel, for links
    /// that keep one in memory.
    fn pop_self(&mut self) -> Option<(ProcessId, M)> {
        None
    }

    /// Waits at most `timeout` for the next message from another process:
    /// the loop's one blocking point. `None` when the wait ends without one.
    fn recv(&mut self, timeout: Duration) -> Option<(ProcessId, M)>;
}

/// One node's wall-clock event loop: *self-queue → due timers → inbound*,
/// every invocation through [`step`].
pub struct WallClockLoop<M, O> {
    me: ProcessId,
    env: Env<M, O>,
    trace: Option<Arc<TraceRecorder>>,
}

impl<M, O> WallClockLoop<M, O>
where
    M: Clone + Debug + Send + 'static,
    O: Clone + Debug + Send + 'static,
{
    /// A loop for process `me` of `n`, its node-visible random stream
    /// seeded from `seed`.
    pub fn new(me: ProcessId, n: usize, seed: u64, trace: Option<Arc<TraceRecorder>>) -> Self {
        let env = Env::new(n, seed);
        WallClockLoop { me, env, trace }
    }

    /// Starts `node` and drives it until it halts or `keep_going` returns
    /// false. `keep_going` runs at the top of every turn — including the
    /// turn that follows a halt, so a caller reporting off it sees the
    /// node's final effects.
    pub fn run<L: WallClockLink<M, O>>(
        &mut self,
        node: &mut dyn Node<Msg = M, Output = O>,
        link: &mut L,
        mut keep_going: impl FnMut(&L) -> bool,
    ) {
        let mut invoke = |this: &mut Self, link: &mut L, cause: InvocationCause<M>| {
            let hooks = StepHooks {
                trace: this.trace.as_deref(),
                record: None,
            };
            let now = link.timers().clock().now();
            step(node, cause, this.me, now, &mut this.env, link, hooks);
            link.timers().halted()
        };
        invoke(self, link, InvocationCause::Start);
        loop {
            let go = keep_going(link);
            if link.timers().halted() || !go {
                return;
            }
            while let Some((from, msg)) = link.pop_self() {
                if invoke(self, link, InvocationCause::Deliver { from, msg }) {
                    break;
                }
            }
            let now = Instant::now();
            let mut fired = false;
            while !link.timers().halted() {
                let Some(id) = link.timers().pop_due(now) else {
                    break;
                };
                if self.env.timers_mut().try_fire(id) {
                    fired = true;
                    invoke(self, link, InvocationCause::Timer { id });
                }
            }
            // A timer handler may have fed the self-channel: it goes first.
            if fired || link.timers().halted() {
                continue;
            }
            let wait = link.timers().wait();
            if let Some((from, msg)) = link.recv(wait) {
                invoke(self, link, InvocationCause::Deliver { from, msg });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;
    use std::sync::Mutex;

    use super::*;

    type Log = Rc<RefCell<Vec<String>>>;

    /// An in-memory link that writes down what reaches it. Self-addressed
    /// sends also land on a self-queue, as on the TCP mesh.
    struct FakeLink {
        me: ProcessId,
        log: Log,
        timers: WallTimers,
        self_queue: VecDeque<(ProcessId, u32)>,
        send_cost: Duration,
    }

    impl FakeLink {
        fn new(me: usize, log: &Log) -> Self {
            let clock = WallClock::new(Instant::now(), Duration::from_micros(100));
            FakeLink {
                me: ProcessId::new(me),
                log: Rc::clone(log),
                timers: WallTimers::new(clock),
                self_queue: VecDeque::new(),
                send_cost: Duration::ZERO,
            }
        }
    }

    impl Link<u32, u32> for FakeLink {
        fn send(&mut self, to: ProcessId, msg: u32) {
            std::thread::sleep(self.send_cost);
            self.log
                .borrow_mut()
                .push(format!("send p{} {msg}", to.index()));
            if to == self.me {
                self.self_queue.push_back((self.me, msg));
            }
        }

        fn set_timer(&mut self, id: TimerId, delay: u64) {
            self.log.borrow_mut().push(format!("timer {delay}"));
            self.timers.set(id, delay);
        }

        fn output(&mut self, event: u32) {
            self.log.borrow_mut().push(format!("output {event}"));
        }

        fn halt(&mut self) {
            self.log.borrow_mut().push("halt".into());
            self.timers.halt();
        }
    }

    impl WallClockLink<u32, u32> for FakeLink {
        fn timers(&mut self) -> &mut WallTimers {
            &mut self.timers
        }

        fn pop_self(&mut self) -> Option<(ProcessId, u32)> {
            self.self_queue.pop_front()
        }

        /// Nobody else ever sends: the wait runs out.
        fn recv(&mut self, timeout: Duration) -> Option<(ProcessId, u32)> {
            std::thread::sleep(timeout);
            None
        }
    }

    /// A node whose handlers are closures over the env.
    struct Scripted<S, D, T> {
        start: S,
        deliver: D,
        timer: T,
    }

    impl<S, D, T> Node for Scripted<S, D, T>
    where
        S: FnMut(&mut Env<u32, u32>) + Send,
        D: FnMut(u32, &mut Env<u32, u32>) + Send,
        T: FnMut(TimerId, &mut Env<u32, u32>) + Send,
    {
        type Msg = u32;
        type Output = u32;

        fn on_start(&mut self, env: &mut Env<u32, u32>) {
            (self.start)(env);
        }

        fn on_message(&mut self, _from: ProcessId, msg: u32, env: &mut Env<u32, u32>) {
            (self.deliver)(msg, env);
        }

        fn on_timer(&mut self, id: TimerId, env: &mut Env<u32, u32>) {
            (self.timer)(id, env);
        }
    }

    fn logged(log: &Log) -> Vec<String> {
        log.borrow().clone()
    }

    #[test]
    fn step_applies_effects_in_emission_order_after_showing_them_to_the_recorder() {
        let log = Log::default();
        let mut link = FakeLink::new(0, &log);
        let mut env = Env::new(3, 0);
        let mut node = Scripted {
            start: |env: &mut Env<u32, u32>| {
                env.send(ProcessId::new(1), 7);
                env.broadcast(9);
                let t = env.set_timer(5);
                env.cancel_timer(t);
                env.output(4);
                env.halt();
            },
            deliver: |_, _: &mut Env<u32, u32>| {},
            timer: |_, _: &mut Env<u32, u32>| {},
        };
        let mut record = |effects: &[Effect<u32, u32>]| {
            log.borrow_mut().push(format!("recorded {effects:?}"));
        };
        let hooks = StepHooks {
            trace: None,
            record: Some(&mut record),
        };
        let me = ProcessId::new(0);
        let now = VirtualTime::from_ticks(3);
        step(
            &mut node,
            InvocationCause::Start,
            me,
            now,
            &mut env,
            &mut link,
            hooks,
        );
        assert_eq!(
            logged(&log),
            [
                "recorded [Send { to: ProcessId(1), msg: 7 }, Broadcast { msg: 9 }, \
                 SetTimer { id: TimerId(0), delay: 5 }, CancelTimer { id: TimerId(0) }, \
                 Output(4), Halt]",
                "send p1 7",
                "send p0 9",
                "send p1 9",
                "send p2 9",
                "timer 5",
                "output 4",
                "halt",
            ]
        );
        assert_eq!(env.mark(), 0, "the drained buffer went back to the env");
    }

    #[test]
    fn one_handler_step_per_invocation_and_it_spans_effect_application() {
        let log = Log::default();
        let mut link = FakeLink::new(0, &log);
        link.send_cost = Duration::from_millis(5);
        let mut env = Env::new(2, 0);
        let mut node = Scripted {
            start: |_: &mut Env<u32, u32>| {},
            deliver: |_, _: &mut Env<u32, u32>| {},
            timer: |_, env: &mut Env<u32, u32>| env.send(ProcessId::new(1), 1),
        };
        let ring = TraceRecorder::new(64);
        let id = TimerId::from_raw(0);
        let hooks = StepHooks {
            trace: Some(&ring),
            record: None,
        };
        let (me, now) = (ProcessId::new(0), VirtualTime::from_ticks(9));
        let cause = InvocationCause::Timer { id };
        step(&mut node, cause, me, now, &mut env, &mut link, hooks);
        let events = ring.events();
        assert!(events.iter().all(|e| e.at == 9 && e.node == 0));
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        let steps: Vec<u64> = kinds
            .iter()
            .filter_map(|k| match k {
                TraceKind::HandlerStep { nanos } => Some(*nanos),
                _ => None,
            })
            .collect();
        assert_eq!(steps.len(), 1, "exactly one HandlerStep: {kinds:?}");
        assert!(
            steps[0] >= 5_000_000,
            "the step cost must include applying the send ({} ns)",
            steps[0]
        );
        assert!(matches!(kinds.last(), Some(TraceKind::HandlerStep { .. })));
    }

    /// Runs `node` on a [`WallClockLoop`] over a [`FakeLink`]; returns the
    /// number of `keep_going` calls and what the last one saw on the
    /// link's log.
    fn run_loop(
        node: &mut dyn Node<Msg = u32, Output = u32>,
        link: &mut FakeLink,
    ) -> (usize, Vec<String>) {
        let (mut calls, mut last_seen) = (0, Vec::new());
        WallClockLoop::new(link.me, 2, 0, None).run(node, link, |link| {
            calls += 1;
            last_seen = logged(&link.log);
            true
        });
        (calls, last_seen)
    }

    #[test]
    fn cancelled_and_stale_timers_never_reach_the_handler() {
        let log = Log::default();
        let mut link = FakeLink::new(0, &log);
        // Firings the table never armed: a recycled-slot generation and a
        // slot that does not exist. `try_fire` must drop both.
        link.timers.set(TimerId::from_raw(7 << 32), 0);
        link.timers.set(TimerId::from_raw(99), 0);
        // (`Node: Send`, so what the handlers share with the test is `Arc`.)
        let kept = Arc::new(Mutex::new(None));
        let fired = Arc::new(Mutex::new(Vec::new()));
        let (kept_in, fired_in) = (Arc::clone(&kept), Arc::clone(&fired));
        let mut node = Scripted {
            start: move |env: &mut Env<u32, u32>| {
                let dead = env.set_timer(0);
                env.cancel_timer(dead);
                *kept_in.lock().unwrap() = Some(env.set_timer(1));
            },
            deliver: |_, _: &mut Env<u32, u32>| {},
            timer: move |id, env: &mut Env<u32, u32>| {
                fired_in.lock().unwrap().push(id);
                env.halt();
            },
        };
        run_loop(&mut node, &mut link);
        let kept = kept.lock().unwrap().expect("start ran");
        assert_eq!(*fired.lock().unwrap(), [kept]);
    }

    #[test]
    fn halt_in_the_self_queue_stops_invocations_but_keep_going_runs_once_more() {
        let log = Log::default();
        let mut link = FakeLink::new(0, &log);
        let mut node = Scripted {
            start: |env: &mut Env<u32, u32>| {
                for msg in 1..=3 {
                    env.send(env.me(), msg);
                }
            },
            deliver: |msg, env: &mut Env<u32, u32>| {
                env.output(msg);
                if msg == 2 {
                    env.halt();
                }
            },
            timer: |_, _: &mut Env<u32, u32>| {},
        };
        let (calls, last_seen) = run_loop(&mut node, &mut link);
        let outputs = |seen: &[String]| seen.iter().filter(|l| l.starts_with("output")).count();
        assert_eq!(outputs(&logged(&log)), 2, "message 3 was never delivered");
        assert_eq!(link.self_queue.len(), 1);
        assert_eq!(calls, 2, "once before the drain, once on the halting turn");
        assert_eq!(
            outputs(&last_seen),
            2,
            "the last call saw the final effects"
        );
        assert_eq!(last_seen.last().map(String::as_str), Some("halt"));
    }
}
