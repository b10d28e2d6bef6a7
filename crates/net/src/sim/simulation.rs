use std::fmt::{Debug, Write as _};
use std::sync::Arc;

use minsync_telemetry::trace::{queues, TraceKind, TraceRecorder};
use minsync_telemetry::{Registry, TimeSeries};
use minsync_types::{Fnv1a, ProcessId};
use rand::rngs::SplitMix64;
use rand::SeedableRng;

use super::event::{EventKind, StopReason};
use super::metrics::Metrics;
use super::oracle::{ScheduleCommand, ScheduleOracle};
use super::queue::EventQueue;
use crate::driver::{step, Link, Recorder, StepHooks};
use crate::{ChannelTiming, Effect, Env, NetworkTopology, Node, TimerId, TimerTable, VirtualTime};

/// One observable event emitted by a node via [`crate::Env::output`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputRecord<O> {
    /// Virtual time of emission.
    pub time: VirtualTime,
    /// Emitting process.
    pub process: ProcessId,
    /// The event itself.
    pub event: O,
}

/// The effects one handler invocation queued, as recorded by
/// [`SimBuilder::record_effects`].
///
/// A full trace is a complete transcript of an execution: every send,
/// broadcast, timer operation, output, and halt of every process, in
/// invocation order. Zipped with [`SimBuilder::record_causes`], it is what
/// `minsync-conformance`'s `replay_direct` re-drives and checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EffectRecord<M, O> {
    /// Invocation time.
    pub time: VirtualTime,
    /// The process whose handler ran.
    pub process: ProcessId,
    /// Every effect the handler queued, in emission order (possibly none).
    pub effects: Vec<Effect<M, O>>,
}

/// What triggered one handler invocation: the start event, a message
/// delivery, or a timer firing.
///
/// Recorded (via [`SimBuilder::record_causes`]) in lockstep with the
/// [`EffectRecord`] stream, a cause trace turns a recorded run into a fully
/// self-contained transcript: `(cause, effects)` pairs are exactly the
/// input/output contract of the sans-io [`Node`] API, so the run can be
/// re-driven and checked without the simulator (see `minsync-conformance`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvocationCause<M> {
    /// `on_start` ran.
    Start,
    /// `on_message(from, msg)` ran.
    Deliver {
        /// The (claimed) sender.
        from: ProcessId,
        /// The delivered message.
        msg: M,
    },
    /// `on_timer(id)` ran (the firing survived cancellation checks).
    Timer {
        /// The fired timer.
        id: TimerId,
    },
}

/// One recorded invocation cause (see [`SimBuilder::record_causes`]).
///
/// When both cause and effect recording run uncapped, record `i` of the
/// cause trace describes the invocation whose effects are record `i` of the
/// effect trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CauseRecord<M> {
    /// Invocation time.
    pub time: VirtualTime,
    /// The process whose handler ran.
    pub process: ProcessId,
    /// What triggered the handler.
    pub cause: InvocationCause<M>,
}

/// Summary of a finished (or paused) run.
#[derive(Clone, Debug)]
pub struct RunReport<O> {
    /// All outputs emitted so far, in emission order.
    pub outputs: Vec<OutputRecord<O>>,
    /// Network and event counters.
    pub metrics: Metrics,
    /// Virtual time of the last processed event.
    pub final_time: VirtualTime,
    /// Why the run stopped.
    pub reason: StopReason,
}

impl<O: Clone> RunReport<O> {
    /// Outputs emitted by one process, in order.
    pub fn outputs_of(&self, p: ProcessId) -> impl Iterator<Item = &OutputRecord<O>> {
        self.outputs.iter().filter(move |r| r.process == p)
    }
}

/// Builder for a [`Simulation`]. Nodes must be added in process-id order;
/// `build` checks the count against the topology.
pub struct SimBuilder<M, O> {
    topology: NetworkTopology,
    seed: u64,
    nodes: Vec<Box<dyn Node<Msg = M, Output = O>>>,
    max_events: u64,
    classifier: Option<fn(&M) -> &'static str>,
    schedule: Option<Box<dyn ScheduleOracle<M>>>,
    record_effects: usize,
    record_causes: usize,
    trace: Option<Arc<TraceRecorder>>,
    registry: Option<Arc<Registry>>,
    sample_period: Option<u64>,
}

impl<M, O> SimBuilder<M, O>
where
    M: Clone + Debug + Send + 'static,
    O: Clone + Debug + Send + 'static,
{
    /// Starts a builder over `topology` (seed defaults to 0, event budget to
    /// 50 million).
    pub fn new(topology: NetworkTopology) -> Self {
        SimBuilder {
            topology,
            seed: 0,
            nodes: Vec::new(),
            max_events: 50_000_000,
            classifier: None,
            schedule: None,
            record_effects: 0,
            record_causes: 0,
            trace: None,
            registry: None,
            sample_period: None,
        }
    }

    /// Sets the RNG seed; identical seeds (with identical nodes and
    /// topology) give identical executions.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds the next node (process ids are assigned in insertion order).
    pub fn node(mut self, node: impl Node<Msg = M, Output = O> + 'static) -> Self {
        self.nodes.push(Box::new(node));
        self
    }

    /// Adds an already-boxed node (for heterogeneous line-ups built at
    /// runtime, e.g. honest + Byzantine mixes).
    pub fn boxed_node(mut self, node: Box<dyn Node<Msg = M, Output = O>>) -> Self {
        self.nodes.push(node);
        self
    }

    /// Caps the number of processed events (default 50 million).
    pub fn max_events(mut self, n: u64) -> Self {
        self.max_events = n;
        self
    }

    /// Installs a message classifier for per-kind metrics.
    pub fn classify(mut self, f: fn(&M) -> &'static str) -> Self {
        self.classifier = Some(f);
        self
    }

    /// Records the first `capacity` handler invocations as
    /// [`EffectRecord`]s — the full effect stream of the execution. Read
    /// them back via [`Simulation::effect_trace`]; digest them with
    /// [`Simulation::effect_trace_digest`]. Use `usize::MAX` for a
    /// complete (replayable) trace.
    pub fn record_effects(mut self, capacity: usize) -> Self {
        self.record_effects = capacity;
        self
    }

    /// Records the first `capacity` invocation causes as [`CauseRecord`]s —
    /// the input side of the transcript [`SimBuilder::record_effects`]
    /// records the output side of. Read them back via
    /// [`Simulation::cause_trace`]. Use `usize::MAX` (together with an
    /// uncapped effect trace) for a self-contained replayable transcript.
    pub fn record_causes(mut self, capacity: usize) -> Self {
        self.record_causes = capacity;
        self
    }

    /// Attaches a telemetry trace recorder. The simulator mirrors its
    /// execution into the ring — every central-queue enqueue/dequeue with
    /// depth and per-handler wall-clock step costs — stamped with virtual
    /// time (the effects themselves are [`SimBuilder::record_effects`]'s).
    /// Purely passive: RNG streams, event order, and effect traces are
    /// identical with and without a recorder attached.
    pub fn trace(mut self, trace: Arc<TraceRecorder>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches a metrics registry: when a run returns (and at each stat
    /// sample), each link's delay EWMA is exported into it as a
    /// `link.rtt_ewma.*` gauge, alongside whatever the nodes themselves
    /// record. The simulator's own counts stay in [`Metrics`].
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Enables periodic stat sampling: every `period` virtual ticks the
    /// attached registry (see [`SimBuilder::registry`]) is exported and
    /// its snapshot pushed onto a time series ([`Simulation::stat_series`])
    /// — the simulator's analog of the live `STAT v1` samples a TCP
    /// replica prints. Purely passive: sampling draws no randomness and
    /// schedules no events, so executions are identical with and without
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `period` is 0.
    pub fn sample_stats(mut self, period: u64) -> Self {
        assert!(period > 0, "a zero sampling period never advances");
        self.sample_period = Some(period);
        self
    }

    /// Installs the network adversary (see [`ScheduleOracle`]).
    ///
    /// The oracle is consulted once per routed message, *after* the channel
    /// law sampled its own delay — so an oracle answering
    /// [`ScheduleCommand::Default`] everywhere leaves the execution
    /// byte-identical to a build without one.
    pub fn with_schedule_oracle(self, oracle: impl ScheduleOracle<M> + 'static) -> Self {
        self.boxed_schedule_oracle(Box::new(oracle))
    }

    /// Installs an already-boxed network adversary (for oracles chosen at
    /// runtime).
    pub fn boxed_schedule_oracle(mut self, oracle: Box<dyn ScheduleOracle<M>>) -> Self {
        self.schedule = Some(oracle);
        self
    }

    /// Builds the simulation.
    ///
    /// # Panics
    ///
    /// Panics if the number of added nodes differs from `topology.n()`.
    pub fn build(self) -> Simulation<M, O> {
        assert_eq!(
            self.nodes.len(),
            self.topology.n(),
            "node count must match topology size"
        );
        let n = self.nodes.len();
        // The node-visible random stream (Env, stream 1) is derived from —
        // but distinct from — the delay-sampling stream (the base seed), so
        // recorded effect traces replay identically even when the replaying
        // nodes draw no randomness.
        let env_seed = crate::derive_stream(self.seed, 1);
        // Dense per-channel timing matrix (row-major `from · n + to`): the
        // routing hot path indexes instead of probing the topology's sparse
        // override map and cloning a `ChannelTiming` per message.
        let timings: Vec<ChannelTiming> = (0..n)
            .flat_map(|from| {
                let topology = &self.topology;
                (0..n).map(move |to| topology.timing(ProcessId::new(from), ProcessId::new(to)))
            })
            .collect();
        let n_links = n * n;
        let mut sim = Simulation {
            core: SimCore {
                timings,
                topology: self.topology,
                halted: vec![false; n],
                queue: EventQueue::new(),
                in_flight: InFlight::default(),
                now: VirtualTime::ZERO,
                me: ProcessId::new(0),
                rng: SplitMix64::seed_from_u64(self.seed),
                outputs: Vec::new(),
                metrics: Metrics::default(),
                classifier: self.classifier,
                schedule: self.schedule,
                trace: self.trace.clone(),
                registry: self.registry,
                link_ewma: vec![0; n_links],
            },
            nodes: self.nodes,
            timer_tables: (0..n).map(|_| TimerTable::new()).collect(),
            env: Env::new(n, env_seed),
            trace: self.trace,
            max_events: self.max_events,
            effect_trace: Vec::new(),
            effect_trace_capacity: self.record_effects,
            cause_trace: Vec::new(),
            cause_trace_capacity: self.record_causes,
            sample_period: self.sample_period,
            next_sample_at: self.sample_period.unwrap_or(0),
            stat_series: TimeSeries::with_capacity(4096),
        };
        for p in 0..n {
            sim.core
                .push_event(VirtualTime::ZERO, EventKind::Start(ProcessId::new(p)));
        }
        sim
    }
}

/// A deterministic discrete-event simulation of `n` nodes on a
/// [`NetworkTopology`].
///
/// The event loop is fully sans-io: a handler invocation pushes
/// [`Effect`]s into the shared [`Env`] and the loop drains the concrete
/// buffer afterwards — no `dyn Context` callbacks anywhere on the per-event
/// path (the only dynamic dispatch left is the single handler call on the
/// boxed node, which heterogeneous Byzantine line-ups require).
///
/// Each message in flight is stored once: a send or broadcast puts it in
/// the in-flight table, and the event queue holds only 24-byte events that
/// name the message by its entry. A delivery clones it from that one copy
/// when it pops, and the last delivery moves it out, so a broadcast makes
/// the same `n − 1` clones as `n` stored copies would, late instead of
/// early.
///
/// The steady-state loop is allocation-free: freed in-flight entries are
/// reused, the calendar queue ([`EventQueue`]) recycles its drained
/// buckets, per-send metrics are dense counters ([`Metrics`]), timer
/// cancellation is an O(1) generation check ([`TimerTable`]), and delay
/// sampling draws from a single-word SplitMix64 stream.
pub struct Simulation<M, O> {
    nodes: Vec<Box<dyn Node<Msg = M, Output = O>>>,
    /// Per-process timer tables; swapped into the shared [`Env`] for the
    /// duration of each handler invocation.
    timer_tables: Vec<TimerTable>,
    env: Env<M, O>,
    core: SimCore<M, O>,
    /// Same ring as the core's, reachable while `step` borrows the core.
    trace: Option<Arc<TraceRecorder>>,
    max_events: u64,
    effect_trace: Vec<EffectRecord<M, O>>,
    effect_trace_capacity: usize,
    cause_trace: Vec<CauseRecord<M>>,
    cause_trace_capacity: usize,
    /// Virtual-tick sampling period (see [`SimBuilder::sample_stats`]);
    /// `None` disables the live stat stream.
    sample_period: Option<u64>,
    /// Next virtual tick a sample is due at.
    next_sample_at: u64,
    /// The sample ring (what a live consumer would hold).
    stat_series: TimeSeries,
}

/// The simulated network: the event queue and everything an applied effect
/// touches. Kept apart from the nodes and the shared [`Env`] so one
/// invocation can borrow all three at once; it is the [`Link`] of whichever
/// process `me` the event being dispatched belongs to.
struct SimCore<M, O> {
    topology: NetworkTopology,
    /// Dense copy of the topology's per-channel timings, `from · n + to`.
    timings: Vec<ChannelTiming>,
    halted: Vec<bool>,
    queue: EventQueue<EventKind>,
    /// The messages the queued deliveries name.
    in_flight: InFlight<M>,
    now: VirtualTime,
    me: ProcessId,
    rng: SplitMix64,
    outputs: Vec<OutputRecord<O>>,
    metrics: Metrics,
    classifier: Option<fn(&M) -> &'static str>,
    schedule: Option<Box<dyn ScheduleOracle<M>>>,
    trace: Option<Arc<TraceRecorder>>,
    registry: Option<Arc<Registry>>,
    /// Dense per-directed-link EWMA of observed delivery delays, in ticks
    /// (row-major `from · n + to`), exported as `link.rtt_ewma.p<f>.p<t>`
    /// gauges — the simulator's analog of the TCP mesh's ping-measured
    /// RTT. Folded only when a registry is attached.
    link_ewma: Vec<u64>,
}

impl<M: Clone, O> Link<M, O> for SimCore<M, O> {
    fn send(&mut self, to: ProcessId, msg: M) {
        self.enqueue_message(self.me, to, msg);
    }

    fn broadcast(&mut self, _n: usize, msg: M) {
        self.enqueue_broadcast(self.me, msg);
    }

    fn set_timer(&mut self, id: TimerId, delay: u64) {
        let (process, time) = (self.me, self.now.saturating_add(delay));
        self.push_event(time, EventKind::Timer { process, timer: id });
    }

    fn output(&mut self, event: O) {
        self.outputs.push(OutputRecord {
            time: self.now,
            process: self.me,
            event,
        });
    }

    fn halt(&mut self) {
        self.halted[self.me.index()] = true;
    }
}

impl<M, O> Simulation<M, O>
where
    M: Clone + Debug + Send + 'static,
    O: Clone + Debug + Send + 'static,
{
    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.core.now
    }

    /// Outputs emitted so far.
    pub fn outputs(&self) -> &[OutputRecord<O>] {
        &self.core.outputs
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// The periodic stat stream recorded so far. Empty unless both
    /// [`SimBuilder::sample_stats`] and [`SimBuilder::registry`] were
    /// configured — sampling snapshots the registry, so without one there
    /// is nothing to record.
    pub fn stat_series(&self) -> &TimeSeries {
        &self.stat_series
    }

    /// Recorded per-invocation effect streams (empty unless
    /// [`SimBuilder::record_effects`] was used; capped at the configured
    /// capacity).
    pub fn effect_trace(&self) -> &[EffectRecord<M, O>] {
        &self.effect_trace
    }

    /// Recorded invocation causes (empty unless
    /// [`SimBuilder::record_causes`] was used; capped at the configured
    /// capacity). With both traces uncapped, entry `i` here caused entry
    /// `i` of [`Simulation::effect_trace`].
    pub fn cause_trace(&self) -> &[CauseRecord<M>] {
        &self.cause_trace
    }

    /// FNV-1a digest of the recorded effect trace (over the `Debug`
    /// rendering of every record). Two executions with equal digests queued
    /// the same effects at the same times in the same order — the golden
    /// value for replay tests.
    pub fn effect_trace_digest(&self) -> u64 {
        let mut hasher = Fnv1a::new();
        for record in &self.effect_trace {
            // Stream the Debug rendering straight into the hasher — same
            // bytes `format!` would produce, zero heap allocation.
            write!(hasher, "{record:?}").expect("fnv writer is infallible");
        }
        hasher.finish()
    }

    /// Immutable access to a node (for state inspection in tests). The node
    /// was added at position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn node(&self, p: ProcessId) -> &dyn Node<Msg = M, Output = O> {
        self.nodes[p.index()].as_ref()
    }

    /// Processes events until quiescence or the event budget; returns the
    /// report.
    pub fn run(&mut self) -> RunReport<O> {
        self.run_until(|_| false)
    }

    /// Processes events until `stop(outputs)` is true, quiescence, or the
    /// event budget.
    ///
    /// `stop` must be a pure function of the output slice. The loop
    /// re-evaluates it only when the outputs have grown since the last
    /// check (a predicate over an unchanged slice cannot change its mind),
    /// so events that emit nothing — the overwhelming majority — pay
    /// nothing for the predicate.
    pub fn run_until(&mut self, mut stop: impl FnMut(&[OutputRecord<O>]) -> bool) -> RunReport<O> {
        let mut checked_outputs = usize::MAX; // force one initial evaluation
        let reason = loop {
            if self.core.metrics.events_processed >= self.max_events {
                break StopReason::MaxEventsReached;
            }
            if checked_outputs != self.core.outputs.len() {
                checked_outputs = self.core.outputs.len();
                if stop(&self.core.outputs) {
                    break StopReason::PredicateSatisfied;
                }
            }
            let Some(next) = self.core.queue.peek_time() else {
                break StopReason::Quiescent;
            };
            if let Some(period) = self.sample_period {
                // Catch up on every sample boundary the event stream has
                // crossed: each sample reflects the state as of *entering*
                // its tick (events at exactly the boundary come after).
                while self.next_sample_at <= next.ticks() {
                    let at = self.next_sample_at;
                    self.take_sample(at);
                    self.next_sample_at += period;
                }
            }
            let (time, _seq, kind) = self.core.queue.pop().expect("peeked");
            self.dispatch(time, kind);
        };
        self.core.export_registry();
        if self.sample_period.is_some() {
            // One closing sample so the series' latest point carries the
            // final state even when the run ends off-boundary.
            self.take_sample(self.core.now.ticks());
        }
        RunReport {
            outputs: self.core.outputs.clone(),
            metrics: self.core.metrics.clone(),
            final_time: self.core.now,
            reason,
        }
    }

    /// Pops one event: decides whether it reaches a handler (halted
    /// processes and dead timer firings do not) and, if so, runs the
    /// invocation through [`step`].
    fn dispatch(&mut self, time: VirtualTime, kind: EventKind) {
        let core = &mut self.core;
        debug_assert!(time >= core.now, "event queue went backwards");
        let p = event_target(&kind);
        (core.now, core.me) = (time, p);
        core.metrics.events_processed += 1;
        core.metrics.last_event_time = time;
        if let Some(trace) = &core.trace {
            trace.record_at(
                time.ticks(),
                p.index() as u32,
                TraceKind::Dequeue {
                    queue: queues::SIM_EVENTS,
                    depth: core.queue.len() as u64,
                },
            );
        }
        if core.halted[p.index()] {
            if let EventKind::Deliver { msg, .. } = kind {
                core.in_flight.release(msg);
                core.metrics.messages_dropped += 1;
            }
            return;
        }
        let cause = match kind {
            EventKind::Start(_) => InvocationCause::Start,
            EventKind::Deliver { from, msg, .. } => {
                core.metrics.messages_delivered += 1;
                InvocationCause::Deliver {
                    from,
                    msg: core.in_flight.take(msg),
                }
            }
            EventKind::Timer { timer, .. } => {
                if !self.timer_tables[p.index()].try_fire(timer) {
                    return; // cancelled or stale generation
                }
                core.metrics.timers_fired += 1;
                InvocationCause::Timer { id: timer }
            }
        };
        // Recorded only on paths that reach the handler, so the cause and
        // effect traces stay in lockstep.
        if self.cause_trace.len() < self.cause_trace_capacity {
            self.cause_trace.push(CauseRecord {
                time,
                process: p,
                cause: cause.clone(),
            });
        }
        let recording = self.effect_trace.len() < self.effect_trace_capacity;
        let effect_trace = &mut self.effect_trace;
        let mut record = |effects: &[Effect<M, O>]| {
            effect_trace.push(EffectRecord {
                time,
                process: p,
                effects: effects.to_vec(),
            });
        };
        let hooks = StepHooks {
            trace: self.trace.as_deref(),
            record: recording.then_some(&mut record as Recorder<'_, M, O>),
        };
        // The per-process timer table moves into the shared env for the
        // invocation (so `set_timer` allocates without a round-trip) and
        // back to its per-process home after.
        std::mem::swap(&mut self.timer_tables[p.index()], self.env.timers_mut());
        let node = self.nodes[p.index()].as_mut();
        step(node, cause, p, time, &mut self.env, core, hooks);
        std::mem::swap(&mut self.timer_tables[p.index()], self.env.timers_mut());
    }

    /// Refreshes the `link.*` gauges and pushes the registry's snapshot at
    /// virtual tick `at` onto the in-memory stat series. No-op without a
    /// registry (there is nothing to snapshot).
    fn take_sample(&mut self, at: u64) {
        self.core.export_registry();
        if let Some(registry) = &self.core.registry {
            self.stat_series.push(at, registry.snapshot());
        }
    }
}

impl<M: Clone, O> SimCore<M, O> {
    /// Exports each link's delay EWMA into the attached registry (if any)
    /// as a `link.*` gauge; the simulator's own counts stay in [`Metrics`].
    /// Idempotent — values are overwritten, so calling at the end of every
    /// `run_until` leaves the latest estimates.
    fn export_registry(&self) {
        let Some(registry) = &self.registry else {
            return;
        };
        let n = self.topology.n();
        for (idx, &ewma) in self.link_ewma.iter().enumerate() {
            let (from, to) = (idx / n, idx % n);
            // A self-delivery is not a link.
            if ewma > 0 && from != to {
                registry
                    .gauge(&format!("link.rtt_ewma.p{from}.p{to}"))
                    .set(ewma);
            }
        }
    }

    /// Schedules one event and maintains the queue's high-water mark (the
    /// mark lives on the push path so pops pay nothing for it).
    fn push_event(&mut self, time: VirtualTime, kind: EventKind) {
        let target = self
            .trace
            .as_ref()
            .map(|_| event_target(&kind).index() as u32);
        self.queue.push(time, kind);
        if self.queue.len() > self.metrics.max_queue_len {
            self.metrics.max_queue_len = self.queue.len();
        }
        if let (Some(trace), Some(node)) = (&self.trace, target) {
            trace.record_at(
                self.now.ticks(),
                node,
                TraceKind::Enqueue {
                    queue: queues::SIM_EVENTS,
                    depth: self.queue.len() as u64,
                },
            );
        }
    }

    fn enqueue_message(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        self.metrics.record_sent(from, 1);
        if let Some(classify) = self.classifier {
            self.metrics.record_kind(classify(&msg), 1);
        }
        let msg = self.in_flight.store(msg);
        self.route(from, to, msg);
        self.in_flight.release(msg);
    }

    /// Expands one [`Effect::Broadcast`] into `n` deliveries in a single
    /// pass: the metrics are bumped once by `n`, the classifier runs once,
    /// and the message is stored once for all `n` deliveries. Per-channel
    /// delays are still sampled per destination (each directed edge has its
    /// own timing), in destination order, so executions are identical to
    /// `n` individual sends.
    fn enqueue_broadcast(&mut self, from: ProcessId, msg: M) {
        let n = self.topology.n();
        self.metrics.record_sent(from, n as u64);
        if let Some(classify) = self.classifier {
            self.metrics.record_kind(classify(&msg), n as u64);
        }
        let msg = self.in_flight.store(msg);
        for p in 0..n {
            self.route(from, ProcessId::new(p), msg);
        }
        self.in_flight.release(msg);
    }

    /// Samples the channel delay for `from → to`, lets the schedule oracle
    /// (if any) override it within the channel's bound, and enqueues a
    /// delivery of the in-flight entry `msg`.
    fn route(&mut self, from: ProcessId, to: ProcessId, msg: u32) {
        let idx = from.index() * self.topology.n() + to.index();
        let timing = &self.timings[idx];
        // The channel law always samples first — before the oracle gets a
        // say — so an oracle that defers everywhere leaves the RNG stream,
        // and therefore the execution, byte-identical to an oracle-free run.
        let mut deliver_at = timing.delivery_time(self.now, &mut self.rng);
        if let Some(schedule) = self.schedule.as_mut() {
            // The hard delivery bound this channel guarantees no matter
            // what the schedule asks for (`None` = asynchronous,
            // unbounded).
            let bound = match timing {
                ChannelTiming::Timely { delta } => Some(self.now.saturating_add(*delta)),
                ChannelTiming::EventuallyTimely { tau, delta, .. } => {
                    Some(self.now.max(*tau).saturating_add(*delta))
                }
                ChannelTiming::Asynchronous { .. } => None,
            };
            let timely = timing.is_timely_at(self.now);
            let default = deliver_at - self.now;
            deliver_at =
                match schedule.command(from, to, self.now, self.in_flight.get(msg), default) {
                    ScheduleCommand::Drop => {
                        self.metrics.messages_suppressed += 1;
                        return;
                    }
                    ScheduleCommand::Default => deliver_at,
                    ScheduleCommand::Stretch(_) if timely => deliver_at,
                    ScheduleCommand::After(d) | ScheduleCommand::Stretch(d) => {
                        let at = self.now.saturating_add(d);
                        bound.map_or(at, |b| at.min(b))
                    }
                };
        }
        self.note_link_delay(idx, deliver_at - self.now);
        self.in_flight.hold(msg);
        self.push_event(deliver_at, EventKind::Deliver { from, to, msg });
    }

    /// Folds one observed delivery delay (in ticks) into the directed
    /// link's EWMA, `new = (7·prev + delay) / 8`. Gated on the registry so
    /// the hot path of an unobserved run stays untouched; `idx` is the
    /// dense `from·n + to` channel index `route` already computed.
    fn note_link_delay(&mut self, idx: usize, delay: u64) {
        if self.registry.is_none() {
            return;
        }
        let delay = delay.max(1);
        let prev = self.link_ewma[idx];
        self.link_ewma[idx] = if prev == 0 {
            delay
        } else {
            (prev * 7 + delay) / 8
        };
    }
}

/// The messages in flight, one entry per send or broadcast: the message and
/// the number of holds on it — one per queued delivery, plus the sender's
/// while it routes. The last release frees the entry for reuse.
///
/// Why a table and not an `Rc<M>` per send, which would keep this count by
/// itself: both were measured on `sim_n20_timely` (10 alternating rounds,
/// 2-vCPU x86-64 guest). `Rc` ran as fast (1.04× the table's
/// `commands_per_s`), but its heap allocation per send leaves the
/// allocator's small-chunk caches in a state that slows the next
/// simulation's set-up. The benchmark's `setup_s` read 32 % above the old
/// per-delivery copies in 10 of 10 rounds, past that metric's 25 %
/// regression bound; with this table it read 9 % above.
struct InFlight<M> {
    entries: Vec<Entry<M>>,
    free: Vec<u32>,
}

struct Entry<M> {
    /// `None` while the entry is free.
    msg: Option<M>,
    holds: u32,
}

impl<M> Default for InFlight<M> {
    fn default() -> Self {
        InFlight {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<M: Clone> InFlight<M> {
    /// Stores `msg` with the sender's hold on it and returns its entry.
    fn store(&mut self, msg: M) -> u32 {
        let entry = Entry {
            msg: Some(msg),
            holds: 1,
        };
        match self.free.pop() {
            Some(id) => {
                self.entries[id as usize] = entry;
                id
            }
            None => {
                let id = u32::try_from(self.entries.len()).expect("in-flight table exhausted");
                self.entries.push(entry);
                id
            }
        }
    }

    fn get(&self, id: u32) -> &M {
        self.entries[id as usize]
            .msg
            .as_ref()
            .expect("a held entry holds its message")
    }

    /// Adds a hold: one more delivery of `id` is queued.
    fn hold(&mut self, id: u32) {
        self.entries[id as usize].holds += 1;
    }

    /// Drops one hold on `id`, freeing the entry with the last.
    fn release(&mut self, id: u32) {
        let entry = &mut self.entries[id as usize];
        entry.holds -= 1;
        if entry.holds == 0 {
            entry.msg = None;
            self.free.push(id);
        }
    }

    /// Drops one hold on `id` and returns its message: a clone while other
    /// holds remain, the stored copy itself with the last.
    fn take(&mut self, id: u32) -> M {
        let entry = &mut self.entries[id as usize];
        entry.holds -= 1;
        if entry.holds > 0 {
            return entry.msg.clone().expect("a held entry holds its message");
        }
        self.free.push(id);
        entry.msg.take().expect("a held entry holds its message")
    }

    /// Entries still held.
    #[cfg(test)]
    fn live(&self) -> usize {
        self.entries.len() - self.free.len()
    }
}

/// The process an event will be handed to — the node a queue-telemetry
/// event is attributed to.
fn event_target(kind: &EventKind) -> ProcessId {
    match kind {
        EventKind::Start(p) => *p,
        EventKind::Deliver { to, .. } => *to,
        EventKind::Timer { process, .. } => *process,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayLaw, TimerId};

    /// Echoes every message back to its sender, up to a hop budget.
    struct Echo {
        hops: u32,
    }

    #[derive(Clone, Debug, PartialEq, Eq)]
    enum EchoOut {
        Done(u32),
    }

    impl Node for Echo {
        type Msg = u32;
        type Output = EchoOut;

        fn on_start(&mut self, env: &mut Env<u32, EchoOut>) {
            if env.me() == ProcessId::new(0) {
                env.send(ProcessId::new(1), 0);
            }
        }

        fn on_message(&mut self, from: ProcessId, msg: u32, env: &mut Env<u32, EchoOut>) {
            if msg >= self.hops {
                env.output(EchoOut::Done(msg));
                env.halt();
            } else {
                env.send(from, msg + 1);
            }
        }
    }

    fn two_node_sim(delta: u64) -> Simulation<u32, EchoOut> {
        SimBuilder::new(NetworkTopology::all_timely(2, delta))
            .node(Echo { hops: 4 })
            .node(Echo { hops: 4 })
            .build()
    }

    #[test]
    fn ping_pong_terminates_with_correct_latency() {
        let mut sim = two_node_sim(10);
        let report = sim.run();
        assert_eq!(report.reason, StopReason::Quiescent);
        assert_eq!(report.outputs.len(), 1);
        assert_eq!(report.outputs[0].event, EchoOut::Done(4));
        // 5 hops of 10 ticks each.
        assert_eq!(report.outputs[0].time, VirtualTime::from_ticks(50));
        assert_eq!(report.metrics.messages_sent, 5);
        assert_eq!(report.metrics.messages_delivered, 5);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let topo = NetworkTopology::uniform(
            2,
            ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 50 }),
        );
        let run = |seed: u64| {
            let mut sim = SimBuilder::new(topo.clone())
                .seed(seed)
                .node(Echo { hops: 6 })
                .node(Echo { hops: 6 })
                .build();
            let r = sim.run();
            (r.final_time, r.metrics.messages_sent)
        };
        assert_eq!(run(3), run(3));
        // Different seeds almost surely give different finishing times.
        assert_ne!(run(3).0, run(4).0);
    }

    #[test]
    fn halted_nodes_drop_messages() {
        struct Spammer;
        impl Node for Spammer {
            type Msg = u32;
            type Output = EchoOut;
            fn on_start(&mut self, env: &mut Env<u32, EchoOut>) {
                if env.me() == ProcessId::new(0) {
                    // Halt immediately; peer's messages must be dropped.
                    env.halt();
                } else {
                    for _ in 0..3 {
                        env.send(ProcessId::new(0), 1);
                    }
                }
            }
            fn on_message(&mut self, _: ProcessId, _: u32, _: &mut Env<u32, EchoOut>) {
                panic!("halted node must not receive");
            }
        }
        let mut sim = SimBuilder::new(NetworkTopology::all_timely(2, 1))
            .node(Spammer)
            .node(Spammer)
            .build();
        let report = sim.run();
        assert_eq!(report.metrics.messages_dropped, 3);
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        struct TimerNode {
            fired: Vec<u64>,
            cancel_me: Option<TimerId>,
        }
        #[derive(Clone, Debug, PartialEq, Eq)]
        struct Fired(u64);
        impl Node for TimerNode {
            type Msg = ();
            type Output = Fired;
            fn on_start(&mut self, env: &mut Env<(), Fired>) {
                let _t10 = env.set_timer(10);
                let t5 = env.set_timer(5);
                let _t20 = env.set_timer(20);
                // Cancel the 5-tick timer right away — its id is usable
                // before the substrate ever applied the SetTimer effect.
                env.cancel_timer(t5);
                self.cancel_me = Some(t5);
            }
            fn on_message(&mut self, _: ProcessId, _: (), _: &mut Env<(), Fired>) {}
            fn on_timer(&mut self, timer: TimerId, env: &mut Env<(), Fired>) {
                self.fired.push(timer.get());
                env.output(Fired(env.now().ticks()));
            }
        }
        let mut sim = SimBuilder::new(NetworkTopology::all_timely(1, 1))
            .node(TimerNode {
                fired: vec![],
                cancel_me: None,
            })
            .build();
        let report = sim.run();
        let times: Vec<u64> = report
            .outputs
            .iter()
            .map(|o| match o.event {
                Fired(t) => t,
            })
            .collect();
        assert_eq!(times, [10, 20], "cancelled timer must not fire");
        assert_eq!(report.metrics.timers_fired, 2);
    }

    #[test]
    fn run_until_predicate_stops_early() {
        let mut sim = two_node_sim(10);
        let report = sim.run_until(|outs| !outs.is_empty());
        assert_eq!(report.reason, StopReason::PredicateSatisfied);
    }

    #[test]
    fn max_events_budget_enforced() {
        let mut sim = SimBuilder::new(NetworkTopology::all_timely(2, 10))
            .node(Echo { hops: u32::MAX })
            .node(Echo { hops: u32::MAX })
            .max_events(100)
            .build();
        let report = sim.run();
        assert_eq!(report.reason, StopReason::MaxEventsReached);
        assert_eq!(report.metrics.events_processed, 100);
    }

    #[test]
    fn classifier_counts_by_kind() {
        fn classify(m: &u32) -> &'static str {
            if m.is_multiple_of(2) {
                "even"
            } else {
                "odd"
            }
        }
        let mut sim = SimBuilder::new(NetworkTopology::all_timely(2, 10))
            .node(Echo { hops: 4 })
            .node(Echo { hops: 4 })
            .classify(classify)
            .build();
        let report = sim.run();
        assert_eq!(report.metrics.sent_of_kind("even"), 3); // 0, 2, 4
        assert_eq!(report.metrics.sent_of_kind("odd"), 2); // 1, 3
    }

    /// When the single ping of a two-node run lands, under an oracle that
    /// answers `cmd` to every consultation.
    fn ping_arrival(topo: NetworkTopology, cmd: ScheduleCommand) -> u64 {
        let mut sim = SimBuilder::new(topo)
            .node(Echo { hops: 0 })
            .node(Echo { hops: 0 })
            .with_schedule_oracle(
                move |_f: ProcessId, _t: ProcessId, _at: VirtualTime, _m: &u32, _d: u64| cmd,
            )
            .build();
        sim.run().outputs[0].time.ticks()
    }

    #[test]
    fn schedule_oracle_default_is_byte_identical_to_none() {
        let topo = NetworkTopology::uniform(
            2,
            ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 50 }),
        );
        let run = |with_oracle: bool| {
            let mut builder = SimBuilder::new(topo.clone())
                .seed(11)
                .record_effects(usize::MAX)
                .node(Echo { hops: 6 })
                .node(Echo { hops: 6 });
            if with_oracle {
                builder = builder.with_schedule_oracle(
                    |_f: ProcessId, _t: ProcessId, _at: VirtualTime, _m: &u32, _d: u64| {
                        ScheduleCommand::Default
                    },
                );
            }
            let mut sim = builder.build();
            sim.run();
            sim.effect_trace_digest()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn schedule_oracle_reorders_and_drops() {
        // Drop the first message outright: the ping-pong never starts and
        // the drop is counted as suppressed, not dropped-at-destination.
        let topo = NetworkTopology::uniform(2, ChannelTiming::asynchronous(DelayLaw::Fixed(1)));
        let mut sim = SimBuilder::new(topo.clone())
            .node(Echo { hops: 4 })
            .node(Echo { hops: 4 })
            .with_schedule_oracle(
                |_f: ProcessId, _t: ProcessId, _at: VirtualTime, _m: &u32, _d: u64| {
                    ScheduleCommand::Drop
                },
            )
            .build();
        let report = sim.run();
        assert_eq!(report.outputs.len(), 0);
        assert_eq!(report.metrics.messages_suppressed, 1);
        assert_eq!(report.metrics.messages_delivered, 0);

        // A chosen delay on an asynchronous channel is applied verbatim,
        // whether the oracle asks for it on any channel or only where the
        // model leaves the channel asynchronous.
        assert_eq!(ping_arrival(topo.clone(), ScheduleCommand::After(777)), 777);
        assert_eq!(ping_arrival(topo, ScheduleCommand::Stretch(777)), 777);
    }

    #[test]
    fn schedule_oracle_cannot_break_channel_bounds() {
        use ScheduleCommand::{After, Stretch};
        // Timely channel with δ = 7: a huge requested delay is clamped. A
        // stretch leaves the sampled delivery alone, even a short one.
        let timely = NetworkTopology::all_timely(2, 7);
        assert_eq!(ping_arrival(timely.clone(), After(u64::MAX)), 7);
        assert_eq!(ping_arrival(timely.clone(), After(1)), 1);
        assert_eq!(ping_arrival(timely.clone(), Stretch(u64::MAX)), 7);
        assert_eq!(ping_arrival(timely, Stretch(1)), 7);

        // Eventually-timely channel stabilizing at τ = 100 with δ = 5: a
        // message sent at t = 0 must still arrive by 105, and a stretch
        // below that bound applies before stabilization.
        let eventually = NetworkTopology::uniform(
            2,
            ChannelTiming::eventually_timely(VirtualTime::from_ticks(100), 5),
        );
        assert_eq!(ping_arrival(eventually.clone(), After(u64::MAX)), 105);
        assert_eq!(ping_arrival(eventually.clone(), Stretch(u64::MAX)), 105);
        assert_eq!(ping_arrival(eventually, Stretch(20)), 20);
    }

    #[test]
    fn cause_trace_aligns_with_effect_trace() {
        let mut sim = SimBuilder::new(NetworkTopology::all_timely(2, 10))
            .node(Echo { hops: 2 })
            .node(Echo { hops: 2 })
            .record_effects(usize::MAX)
            .record_causes(usize::MAX)
            .build();
        sim.run();
        let causes = sim.cause_trace();
        let effects = sim.effect_trace();
        assert_eq!(causes.len(), effects.len());
        for (c, e) in causes.iter().zip(effects) {
            assert_eq!((c.time, c.process), (e.time, e.process));
        }
        // 2 starts, then deliveries of payloads 0, 1, 2.
        assert_eq!(causes[0].cause, InvocationCause::Start);
        assert_eq!(causes[1].cause, InvocationCause::Start);
        assert_eq!(
            causes[2].cause,
            InvocationCause::Deliver {
                from: ProcessId::new(0),
                msg: 0
            }
        );
    }

    #[test]
    fn broadcast_reaches_everyone_including_self() {
        struct Caster {
            got: usize,
        }
        #[derive(Clone, Debug, PartialEq, Eq)]
        struct Got(usize);
        impl Node for Caster {
            type Msg = ();
            type Output = Got;
            fn on_start(&mut self, env: &mut Env<(), Got>) {
                if env.me() == ProcessId::new(0) {
                    env.broadcast(());
                }
            }
            fn on_message(&mut self, _: ProcessId, _: (), env: &mut Env<(), Got>) {
                self.got += 1;
                env.output(Got(self.got));
            }
        }
        let mut sim = SimBuilder::new(NetworkTopology::all_timely(3, 2))
            .node(Caster { got: 0 })
            .node(Caster { got: 0 })
            .node(Caster { got: 0 })
            .build();
        let report = sim.run();
        // All three processes (incl. the sender) got exactly one copy.
        assert_eq!(report.outputs.len(), 3);
        assert_eq!(report.metrics.messages_sent, 3);
    }

    #[test]
    fn in_flight_table_balances_drops_halts_and_copies() {
        // p0 broadcasts three heap-carrying messages; p1 and p2 echo what
        // they get back to p0; p3 halts at start. The oracle drops message 1
        // on its way to p2 and message 2 everywhere.
        struct Fan;
        impl Node for Fan {
            type Msg = Vec<u8>;
            type Output = Vec<u8>;
            fn on_start(&mut self, env: &mut Env<Vec<u8>, Vec<u8>>) {
                match env.me().index() {
                    0 => (0..3).for_each(|k| env.broadcast(vec![k; 64])),
                    3 => env.halt(),
                    _ => {}
                }
            }
            fn on_message(&mut self, from: ProcessId, m: Vec<u8>, env: &mut Env<Vec<u8>, Vec<u8>>) {
                if env.me().index() != 0 {
                    env.send(from, m.clone());
                }
                env.output(m);
            }
        }
        let oracle = |_: ProcessId, to: ProcessId, _: VirtualTime, m: &Vec<u8>, _: u64| {
            let dropped = m[0] == 2 || (m[0] == 1 && to.index() == 2);
            if dropped {
                ScheduleCommand::Drop
            } else {
                ScheduleCommand::Default
            }
        };
        let mut sim = SimBuilder::new(NetworkTopology::all_timely(4, 3))
            .node(Fan)
            .node(Fan)
            .node(Fan)
            .node(Fan)
            .with_schedule_oracle(oracle)
            .build();
        let report = sim.run();
        assert_eq!(report.reason, StopReason::Quiescent);
        assert!(report
            .outputs
            .iter()
            .all(|o| o.event == vec![o.event[0]; 64]));
        let mut got: Vec<(usize, u8)> = report
            .outputs
            .iter()
            .map(|o| (o.process.index(), o.event[0]))
            .collect();
        got.sort_unstable();
        // p0: its own 0 and 1, plus echoes of 0 (p1, p2) and 1 (p1).
        assert_eq!(
            got,
            [
                (0, 0),
                (0, 0),
                (0, 0),
                (0, 1),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 0)
            ]
        );
        assert_eq!(
            report.metrics.messages_dropped, 2,
            "0 and 1 reached halted p3"
        );
        assert_eq!(
            report.metrics.messages_suppressed, 5,
            "1 to p2, 2 to all four"
        );
        assert_eq!(sim.core.in_flight.live(), 0);
    }

    #[test]
    fn batched_broadcast_counts_match_individual_sends() {
        // The same fan-out expressed as one Broadcast effect or n Send
        // effects must produce identical metrics and deliveries.
        struct ByBroadcast;
        struct BySends;
        impl Node for ByBroadcast {
            type Msg = u8;
            type Output = u8;
            fn on_start(&mut self, env: &mut Env<u8, u8>) {
                env.broadcast(1);
            }
            fn on_message(&mut self, _: ProcessId, m: u8, env: &mut Env<u8, u8>) {
                env.output(m);
            }
        }
        impl Node for BySends {
            type Msg = u8;
            type Output = u8;
            fn on_start(&mut self, env: &mut Env<u8, u8>) {
                for p in 0..env.n() {
                    env.send(ProcessId::new(p), 1);
                }
            }
            fn on_message(&mut self, _: ProcessId, m: u8, env: &mut Env<u8, u8>) {
                env.output(m);
            }
        }
        fn classify(_: &u8) -> &'static str {
            "m"
        }
        let run = |broadcast: bool| {
            let mut b = SimBuilder::new(NetworkTopology::all_timely(4, 2))
                .seed(1)
                .classify(classify);
            for _ in 0..4 {
                b = if broadcast {
                    b.node(ByBroadcast)
                } else {
                    b.boxed_node(Box::new(BySends))
                };
            }
            let mut sim = b.build();
            let r = sim.run();
            (
                r.metrics.messages_sent,
                r.metrics.messages_delivered,
                r.metrics.sent_of_kind("m"),
                r.outputs.len(),
                r.final_time,
            )
        };
        assert_eq!(run(true), run(false));
        assert_eq!(run(true).0, 16);
    }

    #[test]
    fn effect_trace_records_every_invocation() {
        let mut sim = SimBuilder::new(NetworkTopology::all_timely(2, 10))
            .node(Echo { hops: 2 })
            .node(Echo { hops: 2 })
            .record_effects(usize::MAX)
            .build();
        sim.run();
        let trace = sim.effect_trace();
        // 2 starts + 3 deliveries (hops 0,1,2) = 5 invocations.
        assert_eq!(trace.len(), 5);
        // The start of p0 queued exactly one send.
        assert_eq!(trace[0].process, ProcessId::new(0));
        assert_eq!(
            trace[0].effects,
            [Effect::Send {
                to: ProcessId::new(1),
                msg: 0
            }]
        );
        // The start of p1 queued nothing — recorded anyway (replay needs
        // the invocation count to line up).
        assert_eq!(trace[1].effects, []);
    }

    #[test]
    fn telemetry_trace_is_passive_and_observes_the_run() {
        let topo = NetworkTopology::uniform(
            2,
            ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 9 }),
        );
        let run = |traced: bool| {
            let recorder = Arc::new(TraceRecorder::new(4096));
            let registry = Arc::new(Registry::new());
            let mut builder = SimBuilder::new(topo.clone())
                .seed(5)
                .node(Echo { hops: 5 })
                .node(Echo { hops: 5 })
                .record_effects(usize::MAX);
            if traced {
                builder = builder
                    .trace(Arc::clone(&recorder))
                    .registry(Arc::clone(&registry));
            }
            let mut sim = builder.build();
            sim.run();
            (sim.effect_trace_digest(), recorder, registry)
        };
        let (plain, ..) = run(false);
        let (traced, recorder, registry) = run(true);
        assert_eq!(
            plain, traced,
            "attaching telemetry must not perturb the run"
        );
        // The ring saw queue traffic and one step per invocation.
        let events = recorder.events();
        assert!(events.iter().any(
            |e| matches!(e.kind, TraceKind::Dequeue { queue, .. } if queue == queues::SIM_EVENTS)
        ));
        let steps = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::HandlerStep { .. }))
            .count();
        assert_eq!(steps, 8, "2 starts + 6 deliveries");
        // The registry got the link estimates and no copy of the metrics.
        let snap = registry.snapshot();
        assert!(snap.gauge("link.rtt_ewma.p0.p1").is_some());
        assert!(snap.iter().all(|(name, _)| name.starts_with("link.")));
    }

    #[test]
    fn stat_sampling_is_passive_and_records_a_series() {
        let topo = NetworkTopology::uniform(
            2,
            ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 9 }),
        );
        let run = |sampled: bool| {
            let registry = Arc::new(Registry::new());
            let mut builder = SimBuilder::new(topo.clone())
                .seed(5)
                .node(Echo { hops: 5 })
                .node(Echo { hops: 5 })
                .record_effects(usize::MAX)
                .registry(Arc::clone(&registry));
            if sampled {
                builder = builder.sample_stats(3);
            }
            let mut sim = builder.build();
            sim.run();
            (sim, registry)
        };
        let (plain, _) = run(false);
        let (sampled, registry) = run(true);
        assert_eq!(
            plain.effect_trace_digest(),
            sampled.effect_trace_digest(),
            "sampling must not perturb the run"
        );
        assert!(plain.stat_series().is_empty());
        let series = sampled.stat_series();
        assert!(series.len() >= 2, "periodic samples plus the closing one");
        // Boundary samples carry period-aligned stamps; the closing sample
        // lands at the final virtual time.
        let mut stamps: Vec<u64> = series.points().map(|p| p.at).collect();
        let closing = stamps.pop().expect("non-empty");
        assert!(stamps.iter().all(|at| at % 3 == 0));
        assert_eq!(closing, sampled.now().ticks());
        // The closing point is the live registry, whole.
        let live = registry.snapshot();
        assert_eq!(series.latest().unwrap().values, live);
        // Channel delays surfaced as per-directed-link EWMA gauges within
        // the law's 1..=9 tick envelope.
        let rtt = live
            .gauge("link.rtt_ewma.p0.p1")
            .expect("observed link exports a gauge");
        assert!((1..=9).contains(&rtt), "EWMA {rtt} outside the delay law");
    }

    #[test]
    fn effect_trace_digest_is_reproducible() {
        let digest = |seed: u64| {
            let topo = NetworkTopology::uniform(
                2,
                ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 9 }),
            );
            let mut sim = SimBuilder::new(topo)
                .seed(seed)
                .node(Echo { hops: 5 })
                .node(Echo { hops: 5 })
                .record_effects(usize::MAX)
                .build();
            sim.run();
            sim.effect_trace_digest()
        };
        assert_eq!(digest(7), digest(7), "same seed, same trace");
        assert_ne!(digest(7), digest(8), "different schedule, different trace");
    }
}
