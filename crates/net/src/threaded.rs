//! A live, multi-threaded runtime for the same [`Node`] automata the
//! simulator runs.
//!
//! Every process gets an OS thread; a router thread applies the
//! [`NetworkTopology`]'s per-channel delays in wall-clock time (one virtual
//! tick = [`ThreadedConfig::tick`]). This runtime exists for the examples —
//! it demonstrates that the sans-io automata are substrate-independent —
//! and makes no determinism promises: that is the simulator's job.
//!
//! Each node thread is a [`WallClockLoop`] over a router-handle
//! [`Link`]: sends and broadcasts go to the router (a broadcast travels as
//! *one* router command and is fanned out there, with a single send
//! timestamp), outputs flow to the collector, and the loop waits on the
//! node's inbox channel. What lives here is what is this substrate's own:
//! the delay router, the inboxes and the collector.

use std::collections::BinaryHeap;
use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use minsync_telemetry::trace::{queues, TraceKind, TraceRecorder};
use minsync_types::ProcessId;
use rand::rngs::SplitMix64;
use rand::SeedableRng;

use crate::driver::{Link, WallClock, WallClockLink, WallClockLoop, WallTimers, MAX_WAIT};
use crate::{NetworkTopology, Node, TimerId};

/// Stream-namespace tag of the threaded runtime (`"THRD"`), keeping its
/// derived seeds disjoint from every other consumer of the same base seed.
const THREADED_STREAM_TAG: u32 = 0x5448_5244;

/// Wall-clock execution parameters.
#[derive(Clone, Debug)]
pub struct ThreadedConfig {
    /// Wall-clock duration of one virtual tick (delays and timeouts in the
    /// topology/protocol are expressed in ticks).
    pub tick: Duration,
    /// Hard wall-clock cap on the whole run.
    pub timeout: Duration,
    /// RNG seed (per-thread RNGs are derived from it; scheduling is still
    /// OS-dependent, so runs are *not* reproducible).
    pub seed: u64,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            tick: Duration::from_micros(200),
            timeout: Duration::from_secs(30),
            seed: 0,
        }
    }
}

/// One output event with its wall-clock emission offset.
#[derive(Clone, Debug)]
pub struct ThreadedOutput<O> {
    /// Emitting process.
    pub process: ProcessId,
    /// Wall-clock offset from run start.
    pub elapsed: Duration,
    /// The event.
    pub event: O,
}

/// Result of a threaded run.
#[derive(Clone, Debug)]
pub struct ThreadedReport<O> {
    /// All outputs, in arrival order at the collector.
    pub outputs: Vec<ThreadedOutput<O>>,
    /// Total wall-clock duration.
    pub elapsed: Duration,
    /// True if the run hit [`ThreadedConfig::timeout`] before the stop
    /// predicate was satisfied.
    pub timed_out: bool,
}

enum RouterCmd<M> {
    Send {
        from: ProcessId,
        to: ProcessId,
        msg: M,
    },
    /// One broadcast = one command: the router expands the fan-out with a
    /// single send timestamp for all `n` copies.
    Broadcast { from: ProcessId, msg: M },
}

/// Runs `nodes` on OS threads until `stop` returns true over the collected
/// outputs, or the timeout elapses.
///
/// # Panics
///
/// Panics if `nodes.len() != topology.n()`.
pub fn run_threaded<M, O>(
    topology: NetworkTopology,
    nodes: Vec<Box<dyn Node<Msg = M, Output = O>>>,
    config: ThreadedConfig,
    stop: impl FnMut(&[ThreadedOutput<O>]) -> bool,
) -> ThreadedReport<O>
where
    M: Clone + Debug + Send + 'static,
    O: Clone + Debug + Send + 'static,
{
    run_threaded_with(topology, nodes, config, None, stop)
}

/// [`run_threaded`] mirrored into a telemetry trace ring when `trace` is
/// given: inbox enqueue/dequeue with depth and per-handler wall-clock step
/// costs. Timestamps
/// are wall-clock time divided by [`ThreadedConfig::tick`], so dumps line
/// up with simulator dumps of the same configuration.
///
/// # Panics
///
/// Panics if `nodes.len() != topology.n()`.
pub fn run_threaded_with<M, O>(
    topology: NetworkTopology,
    nodes: Vec<Box<dyn Node<Msg = M, Output = O>>>,
    config: ThreadedConfig,
    trace: Option<Arc<TraceRecorder>>,
    mut stop: impl FnMut(&[ThreadedOutput<O>]) -> bool,
) -> ThreadedReport<O>
where
    M: Clone + Debug + Send + 'static,
    O: Clone + Debug + Send + 'static,
{
    assert_eq!(nodes.len(), topology.n(), "node count must match topology");
    let n = nodes.len();
    let clock = WallClock::new(Instant::now(), config.tick);
    let shutdown = Arc::new(AtomicBool::new(false));

    let (router_tx, router_rx) = channel::<RouterCmd<M>>();
    let (output_tx, output_rx) = channel::<ThreadedOutput<O>>();

    // Unbounded like the router's own input: a bound here would cap no
    // memory, only let one slow node stall every delivery.
    let (inbox_txs, inbox_rxs): (Vec<_>, Vec<_>) =
        (0..n).map(|_| channel::<(ProcessId, M)>()).unzip();
    // Inbox depth tracking exists only for telemetry (std's channel has no
    // len()); untraced runs never touch the atomics.
    let inbox_depths: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();

    // Router thread: applies channel delays, then forwards into inboxes.
    let router_handle = {
        let shutdown = Arc::clone(&shutdown);
        let depths = inbox_depths.clone();
        let trace = trace.clone();
        // Tagged stream namespace (see `derive_stream`): local index 0 is
        // the router's delay-sampling stream, 1..=n the node envs —
        // disjoint from the simulator's and workload's bare indices.
        let mut rng = SplitMix64::seed_from_u64(crate::derive_stream(
            config.seed,
            crate::stream_of(THREADED_STREAM_TAG, 0),
        ));
        std::thread::spawn(move || {
            struct Pending<M> {
                due: Instant,
                seq: u64,
                to: ProcessId,
                from: ProcessId,
                msg: M,
            }
            impl<M> PartialEq for Pending<M> {
                fn eq(&self, o: &Self) -> bool {
                    self.due == o.due && self.seq == o.seq
                }
            }
            impl<M> Eq for Pending<M> {}
            impl<M> PartialOrd for Pending<M> {
                fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                    Some(self.cmp(o))
                }
            }
            impl<M> Ord for Pending<M> {
                fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                    // Min-heap by (due, seq).
                    (o.due, o.seq).cmp(&(self.due, self.seq))
                }
            }

            let mut heap: BinaryHeap<Pending<M>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut schedule = |heap: &mut BinaryHeap<Pending<M>>,
                                sent: crate::VirtualTime,
                                from: ProcessId,
                                to: ProcessId,
                                msg: M| {
                let delay = topology.timing(from, to).delivery_time(sent, &mut rng) - sent;
                let due = clock.after(delay);
                heap.push(Pending {
                    due,
                    seq,
                    to,
                    from,
                    msg,
                });
                seq += 1;
            };
            while !shutdown.load(Ordering::Relaxed) {
                // Deliver everything due.
                let now = Instant::now();
                while heap.peek().is_some_and(|p| p.due <= now) {
                    let p = heap.pop().expect("peeked");
                    // A closed inbox means the node is done: its worker
                    // owned the only receiver.
                    let to = p.to.index();
                    if inbox_txs[to].send((p.from, p.msg)).is_ok() {
                        if let Some(trace) = &trace {
                            let depth = depths[to].fetch_add(1, Ordering::Relaxed) + 1;
                            let kind = TraceKind::Enqueue {
                                queue: queues::INBOX,
                                depth,
                            };
                            trace.record_at(clock.ticks(), to as u32, kind);
                        }
                    }
                }
                let wait = heap.peek().map_or(MAX_WAIT, |p| {
                    p.due
                        .saturating_duration_since(Instant::now())
                        .min(MAX_WAIT)
                });
                match router_rx.recv_timeout(wait) {
                    Ok(RouterCmd::Send { from, to, msg }) => {
                        schedule(&mut heap, clock.now(), from, to, msg);
                    }
                    Ok(RouterCmd::Broadcast { from, msg }) => {
                        // One timestamp for the whole fan-out; per-channel
                        // delays still sampled per destination.
                        let sent = clock.now();
                        for p in 0..inbox_txs.len() {
                            schedule(&mut heap, sent, from, ProcessId::new(p), msg.clone());
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        // All node threads gone; flush what is due and exit.
                        if heap.is_empty() {
                            break;
                        }
                    }
                }
            }
        })
    };

    // Node threads. Each worker owns its inbox receiver outright, so a node
    // that halts or shuts down closes its inbox and the router's sends into
    // it fail instead of queueing for nobody.
    let mut handles = Vec::with_capacity(n);
    for (idx, (mut node, inbox)) in nodes.into_iter().zip(inbox_rxs).enumerate() {
        let me = ProcessId::new(idx);
        let mut link = RouterLink {
            me,
            timers: WallTimers::new(clock),
            router: router_tx.clone(),
            outputs: output_tx.clone(),
            inbox,
            trace: trace
                .clone()
                .map(|ring| (ring, Arc::clone(&inbox_depths[idx]))),
        };
        let ring = trace.clone();
        let shutdown = Arc::clone(&shutdown);
        let seed = crate::derive_stream(
            config.seed,
            crate::stream_of(THREADED_STREAM_TAG, idx as u32 + 1),
        );
        handles.push(std::thread::spawn(move || {
            WallClockLoop::new(me, n, seed, ring).run(node.as_mut(), &mut link, |_| {
                !shutdown.load(Ordering::Relaxed)
            });
        }));
    }
    drop(router_tx);
    drop(output_tx);

    // Collector loop on the calling thread.
    let mut collected: Vec<ThreadedOutput<O>> = Vec::new();
    let mut timed_out = false;
    loop {
        if stop(&collected) {
            break;
        }
        if clock.elapsed() >= config.timeout {
            timed_out = true;
            break;
        }
        match output_rx.recv_timeout(MAX_WAIT) {
            Ok(out) => collected.push(out),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    shutdown.store(true, Ordering::Relaxed);
    // Drain any last outputs without blocking.
    collected.extend(std::iter::from_fn(|| output_rx.try_recv().ok()));
    for h in handles {
        let _ = h.join();
    }
    let _ = router_handle.join();
    ThreadedReport {
        outputs: collected,
        elapsed: clock.elapsed(),
        timed_out,
    }
}

/// A node thread's [`Link`]: the handle into the delay router and the
/// collector, and the node's inbox.
struct RouterLink<M, O> {
    me: ProcessId,
    timers: WallTimers,
    router: Sender<RouterCmd<M>>,
    outputs: Sender<ThreadedOutput<O>>,
    inbox: Receiver<(ProcessId, M)>,
    /// The trace ring and the inbox's shadow depth (router: +1, `recv`: −1).
    trace: Option<(Arc<TraceRecorder>, Arc<AtomicU64>)>,
}

impl<M: Clone, O> Link<M, O> for RouterLink<M, O> {
    fn send(&mut self, to: ProcessId, msg: M) {
        let from = self.me;
        let _ = self.router.send(RouterCmd::Send { from, to, msg });
    }

    fn broadcast(&mut self, _n: usize, msg: M) {
        let from = self.me;
        let _ = self.router.send(RouterCmd::Broadcast { from, msg });
    }

    fn set_timer(&mut self, id: TimerId, delay: u64) {
        self.timers.set(id, delay);
    }

    fn output(&mut self, event: O) {
        let _ = self.outputs.send(ThreadedOutput {
            process: self.me,
            elapsed: self.timers.clock().elapsed(),
            event,
        });
    }

    fn halt(&mut self) {
        self.timers.halt();
    }
}

impl<M: Clone, O> WallClockLink<M, O> for RouterLink<M, O> {
    fn timers(&mut self) -> &mut WallTimers {
        &mut self.timers
    }

    /// The inbox closes only once the router exits, after the shutdown flag
    /// is up: the loop's next `keep_going` ends the run.
    fn recv(&mut self, timeout: Duration) -> Option<(ProcessId, M)> {
        let got = self.inbox.recv_timeout(timeout).ok()?;
        if let Some((ring, depth)) = &self.trace {
            let depth = depth
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                    Some(d.saturating_sub(1))
                })
                .unwrap_or(0)
                .saturating_sub(1);
            let kind = TraceKind::Dequeue {
                queue: queues::INBOX,
                depth,
            };
            ring.record_at(self.timers.clock().ticks(), self.me.index() as u32, kind);
        }
        Some(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChannelTiming, Env};

    struct Pinger;

    impl Node for Pinger {
        type Msg = u32;
        type Output = u32;

        fn on_start(&mut self, env: &mut Env<u32, u32>) {
            if env.me() == ProcessId::new(0) {
                env.broadcast(1);
            }
        }

        fn on_message(&mut self, _from: ProcessId, msg: u32, env: &mut Env<u32, u32>) {
            env.output(msg);
            env.halt();
        }
    }

    #[test]
    fn threaded_ping_delivers_to_all() {
        let topo = NetworkTopology::uniform(3, ChannelTiming::timely(1));
        let nodes: Vec<Box<dyn Node<Msg = u32, Output = u32>>> =
            vec![Box::new(Pinger), Box::new(Pinger), Box::new(Pinger)];
        let report = run_threaded(
            topo,
            nodes,
            ThreadedConfig {
                tick: Duration::from_micros(50),
                timeout: Duration::from_secs(10),
                seed: 1,
            },
            |outs| outs.len() >= 3,
        );
        assert!(!report.timed_out, "threaded run timed out");
        assert_eq!(report.outputs.len(), 3);
        assert!(report.outputs.iter().all(|o| o.event == 1));
    }

    struct TimerOnly;

    impl Node for TimerOnly {
        type Msg = ();
        type Output = &'static str;

        fn on_start(&mut self, env: &mut Env<(), &'static str>) {
            let keep = env.set_timer(5);
            let drop_me = env.set_timer(1);
            env.cancel_timer(drop_me);
            let _ = keep;
        }

        fn on_message(&mut self, _: ProcessId, _: (), _: &mut Env<(), &'static str>) {}

        fn on_timer(&mut self, _t: TimerId, env: &mut Env<(), &'static str>) {
            env.output("fired");
            env.halt();
        }
    }

    #[test]
    fn threaded_timers_fire_and_cancel() {
        let topo = NetworkTopology::all_timely(1, 1);
        let report = run_threaded(
            topo,
            vec![Box::new(TimerOnly) as Box<dyn Node<Msg = (), Output = &'static str>>],
            ThreadedConfig {
                tick: Duration::from_micros(100),
                timeout: Duration::from_secs(5),
                seed: 2,
            },
            |outs| !outs.is_empty(),
        );
        assert!(!report.timed_out);
        assert_eq!(report.outputs.len(), 1, "cancelled timer must not fire");
        assert_eq!(report.outputs[0].event, "fired");
    }

    /// p0 halts on start. p1 floods it with 70 000 messages, then sends one
    /// to itself; the router delivers in send order, so p1 hears itself
    /// only if the router got past the dead node's inbox.
    struct HaltOrFlood;

    impl Node for HaltOrFlood {
        type Msg = u32;
        type Output = &'static str;

        fn on_start(&mut self, env: &mut Env<u32, &'static str>) {
            if env.me() == ProcessId::new(0) {
                env.halt();
            } else {
                for i in 0..70_000 {
                    env.send(ProcessId::new(0), i);
                }
                env.send(env.me(), 0);
            }
        }

        fn on_message(&mut self, _: ProcessId, _: u32, env: &mut Env<u32, &'static str>) {
            env.output("past the flood");
        }
    }

    #[test]
    fn halted_node_with_a_full_inbox_does_not_wedge_the_router() {
        // Teardown joins the router, so a wedged router hangs the whole
        // call: run it aside and wait a bounded time for it to return.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let report = run_threaded(
                NetworkTopology::all_timely(2, 0),
                vec![
                    Box::new(HaltOrFlood) as Box<dyn Node<Msg = u32, Output = &'static str>>,
                    Box::new(HaltOrFlood),
                ],
                ThreadedConfig {
                    tick: Duration::from_micros(50),
                    timeout: Duration::from_secs(10),
                    seed: 4,
                },
                |outs| !outs.is_empty(),
            );
            let _ = done_tx.send(report);
        });
        let report = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("run_threaded never returned: the router is stuck on a closed inbox");
        assert!(!report.timed_out, "the router never got past the flood");
    }
}
