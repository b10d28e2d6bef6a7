//! The TCP mesh: a wall-clock substrate running one sans-io [`Node`] per
//! process over real `std::net` sockets.
//!
//! Where the threaded runtime (`minsync_net::threaded`) keeps every process
//! in one address space and routes messages through an in-memory router,
//! the mesh puts each process in its own OS process (or at least its own
//! mesh instance) and speaks the `minsync-wire` byte protocol over
//! `n · (n − 1)` directed TCP connections — one per ordered process pair,
//! mirroring the paper's directed-channel model. Each mesh instance:
//!
//! * **Dials** one outbound connection per peer from a dedicated *writer
//!   thread*. The node loop hands messages to writers through **bounded
//!   queues** with `try_send`: when a peer is slow, dead, or Byzantine and
//!   its queue fills, messages are dropped and counted
//!   ([`MeshReport::outbound_dropped`]) — a misbehaving peer can never
//!   stall the replica. Writers reconnect with exponential backoff; while
//!   one is dialing, its queue buffers up to capacity (delivered late
//!   after the re-handshake — protocols already tolerate arbitrary delay)
//!   and overflow beyond capacity is dropped and counted, so the paper's
//!   "reliable channel" assumption degrades to best-effort exactly at the
//!   moment the network itself misbehaves.
//! * **Coalesces** what its queue holds: a writer woken by one message
//!   drains everything else already queued (up to 16 KiB) into the same
//!   buffer — each message still its own encoded, MAC'd frame — and hands
//!   the burst to the kernel with one `write_all`
//!   ([`MeshCounters::writes`] vs [`MeshCounters::frames_written`]). The
//!   frames also go, as bytes, into a bounded replay ring that is re-sent
//!   after a reconnect.
//! * **Accepts** inbound connections on a listener; each gets a *reader
//!   thread* that first requires a valid [`Hello`] handshake (magic, codec
//!   version, cluster size, claimed sender id) and then decodes
//!   length-prefixed frames incrementally — arbitrary packetization is fine
//!   ([`minsync_wire::split_frame`] just waits for more bytes). Any decode
//!   error, oversized frame announcement, or handshake mismatch disconnects
//!   *that peer's connection* and counts it; the process never dies on
//!   received bytes.
//! * **Drives the node** with the code every substrate shares
//!   ([`minsync_net::driver`]): the node loop is a [`WallClockLoop`], every
//!   invocation a `driver::step`, and what this module adds is the
//!   [`Link`] those effects go to — per-peer writer queues, plus an
//!   in-memory queue for self-addressed traffic (the paper's always-timely
//!   virtual self-channel).
//!
//! Identity is *claimed* by default — see [`Hello`] — but a mesh configured
//! with an [`Authenticator`] ([`MeshConfig::auth`]) **proves** it: the
//! handshake carries a key-confirmation tag, every frame carries a MAC over
//! its body verified *before* the decoder sees a byte, and any forgery cuts
//! the connection and counts in [`MeshReport::auth_rejects`]. That closes
//! the paper's no-impersonation assumption (Section 2.1) over real sockets.
//! Delivery is FIFO per directed channel (TCP) with no cross-channel
//! ordering, exactly the guarantee the protocols were verified against on
//! the simulator.

use std::collections::VecDeque;
use std::fmt::Debug;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use minsync_auth::Authenticator;
use minsync_net::driver::{Link, WallClock, WallClockLink, WallClockLoop, WallTimers};
use minsync_net::{derive_stream, stream_of, Node, TimerId};
use minsync_telemetry::trace::{queues, TraceKind, TraceRecorder};
use minsync_telemetry::{Counter, Gauge, Registry};
use minsync_types::ProcessId;
use minsync_wire::{
    control_frame, decode_frame, decode_frame_timed, encode_frame, encode_frame_tagged,
    split_control, split_frame, tagged_frame_cap, verify_frame_tag, Hello, Wire, DEFAULT_MAX_FRAME,
    HELLO_LEN, KEEPALIVE_FRAME, MAGIC, PING_TAG, PONG_TAG,
};

/// Stream-namespace tag of the TCP mesh (`"MESH"`), keeping its derived
/// seeds disjoint from every other consumer of the same base seed.
const MESH_STREAM_TAG: u32 = 0x4D45_5348;

/// Tuning knobs of one mesh instance.
#[derive(Clone, Debug)]
pub struct MeshConfig {
    /// Wall-clock duration of one virtual tick (timer delays and
    /// [`Env::now`](minsync_net::Env::now) are expressed in ticks, as on
    /// every other substrate).
    pub tick: Duration,
    /// Hard wall-clock cap on the run.
    pub timeout: Duration,
    /// Cluster seed; this process's node-visible random stream is derived
    /// under the mesh's own stream-namespace tag
    /// ([`derive_stream`]`(seed, `[`stream_of`]`(MESH, me + 1))`), disjoint
    /// from the simulator's and workload generator's streams of the same
    /// base seed.
    pub seed: u64,
    /// Capacity of each per-peer outbound queue; overflow is dropped and
    /// counted, never blocked on.
    pub outbound_capacity: usize,
    /// Capacity of the inbound queue readers feed. A full inbox blocks the
    /// reader thread (TCP backpressure toward the sender), not the node.
    pub inbox_capacity: usize,
    /// Hard cap on one frame's payload (encode and decode side).
    pub max_frame: usize,
    /// First reconnect delay after a failed dial; doubles per failure.
    pub initial_backoff: Duration,
    /// Ceiling of the reconnect backoff.
    pub max_backoff: Duration,
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Idle interval after which a writer probes its connection with a
    /// keepalive frame (and notices a dead peer). Churn tests tighten this;
    /// the default matches the historical hard-coded 50 ms.
    pub keepalive: Duration,
    /// Cap on simultaneously live inbound connections (a Byzantine peer
    /// opening sockets in a loop exhausts this, not the process's threads).
    pub max_connections: usize,
    /// Message authentication. `None` (the default) runs the mesh open, as
    /// before: sender ids are trusted as claimed. `Some` requires a valid
    /// key-confirmation tag on every inbound handshake and a valid MAC on
    /// every inbound frame — checked **before** the payload reaches the
    /// decoder — and tags all outbound traffic. Note the frame cap
    /// ([`MeshConfig::max_frame`]) keeps applying to the message *body*:
    /// readers admit [`tagged_frame_cap`]`(max_frame)` bytes so the MAC
    /// rides for free instead of stealing payload capacity.
    pub auth: Option<Arc<dyn Authenticator>>,
    /// Per-peer outbound drop switches for fault injection. `None` (the
    /// default) sends everywhere; `Some` lets an orchestrator partition and
    /// heal links while the mesh runs (see [`LinkFaults`]). Blocked sends
    /// are counted per peer in [`MeshReport::outbound_dropped`].
    pub faults: Option<Arc<LinkFaults>>,
    /// Telemetry registry the mesh interns its transport counters in
    /// (`mesh.*` — see [`MeshCounters`]). `None` keeps them as detached
    /// handles: the report and stop-predicate accessors work either way.
    pub registry: Option<Arc<Registry>>,
    /// Structured-trace hook. When set, the mesh stamps effect, queue
    /// enqueue/dequeue, timer, handler-step, and frame codec-timing events
    /// into the shared ring (timestamps in ticks of [`MeshConfig::tick`]).
    /// Purely observational: the node's behaviour is unchanged.
    pub trace: Option<Arc<TraceRecorder>>,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            tick: Duration::from_micros(200),
            timeout: Duration::from_secs(30),
            seed: 0,
            outbound_capacity: 16 * 1024,
            inbox_capacity: 64 * 1024,
            max_frame: DEFAULT_MAX_FRAME,
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            connect_timeout: Duration::from_millis(250),
            keepalive: Duration::from_millis(50),
            max_connections: 64,
            auth: None,
            faults: None,
            registry: None,
            trace: None,
        }
    }
}

/// Per-peer outbound drop switches — the cluster-side analog of the
/// simulator's churn oracle. The orchestrator (or a `PART`/`HEAL` control
/// verb in `minsync-node`) flips flags while the mesh runs; a blocked peer's
/// traffic is counted into `outbound_dropped` and never reaches the socket,
/// so a symmetric pair of `LinkFaults` on both sides of a cut is a real
/// bidirectional partition. Healing is just clearing the flags: the writer
/// threads and their reconnect/backoff machinery never notice the fault,
/// which is exactly the "network came back" shape churn recovery must absorb.
#[derive(Debug)]
pub struct LinkFaults {
    blocked: Vec<AtomicBool>,
}

impl LinkFaults {
    /// All `n` links healthy.
    pub fn new(n: usize) -> Self {
        LinkFaults {
            blocked: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Starts dropping outbound traffic to `peer`.
    pub fn block(&self, peer: usize) {
        self.blocked[peer].store(true, Ordering::Relaxed);
    }

    /// Replaces the blocked set wholesale (the `PART` verb's semantics).
    pub fn set_blocked(&self, peers: &[usize]) {
        for (i, b) in self.blocked.iter().enumerate() {
            b.store(peers.contains(&i), Ordering::Relaxed);
        }
    }

    /// Heals every link.
    pub fn heal(&self) {
        for b in &self.blocked {
            b.store(false, Ordering::Relaxed);
        }
    }

    /// Is outbound traffic to `peer` currently suppressed?
    pub fn is_blocked(&self, peer: usize) -> bool {
        self.blocked[peer].load(Ordering::Relaxed)
    }
}

/// One output event with its wall-clock emission offset.
#[derive(Clone, Debug)]
pub struct MeshOutput<O> {
    /// Wall-clock offset from run start.
    pub elapsed: Duration,
    /// The event.
    pub event: O,
}

/// Result of a mesh run.
#[derive(Clone, Debug)]
pub struct MeshReport<O> {
    /// All outputs of the local node, in emission order.
    pub outputs: Vec<MeshOutput<O>>,
    /// Total wall-clock duration.
    pub elapsed: Duration,
    /// True if the run hit [`MeshConfig::timeout`] before the stop
    /// predicate was satisfied.
    pub timed_out: bool,
    /// Per-peer outbound messages dropped (full queue, or lost to a broken
    /// connection mid-write). Index = peer id; the self slot stays 0.
    pub outbound_dropped: Vec<u64>,
    /// Inbound connections dropped because their bytes failed to decode
    /// (garbage frames, oversized frame announcements, trailing bytes).
    pub decode_disconnects: u64,
    /// Inbound connections rejected at the handshake (bad magic, version
    /// or cluster-size mismatch, out-of-range or self-claiming sender id).
    pub handshake_rejects: u64,
    /// Inbound connections refused before the handshake because the
    /// [`MeshConfig::max_connections`] cap was reached.
    pub accept_rejects: u64,
    /// Successful writer re-connections after the first connect per peer.
    pub reconnects: u64,
    /// Inbound connections cut for failed authentication (a handshake tag
    /// or frame MAC that did not verify) — always 0 on an open mesh.
    pub auth_rejects: u64,
    /// Idle keepalive probes written by the writer threads.
    pub keepalives: u64,
    /// Failed dial attempts that triggered a reconnect-backoff sleep.
    pub dial_backoffs: u64,
    /// RTT probes written by the writer threads.
    pub pings: u64,
    /// Final per-peer RTT EWMA in ticks (see [`MeshCounters::rtt_ewma`]);
    /// index = peer id, 0 at the self slot and for peers never measured.
    pub rtt_ewma: Vec<u64>,
}

/// Live transport counters, shared across the mesh's threads and handed to
/// the stop predicate on every evaluation — a replica can report transport
/// health (drops, Byzantine disconnects) *while the mesh is still running*,
/// which is how `minsync-node` fills its statistics block before lingering
/// for laggards.
///
/// The counters are telemetry handles: when [`MeshConfig::registry`] is
/// set they are interned there under `mesh.*` names (per-peer drops as
/// `mesh.outbound_dropped.p<i>`, the connection count as the gauge
/// `mesh.live_connections`), so a registry snapshot carries transport
/// health with no extra plumbing. Without a registry they are detached
/// handles — same behaviour, just unnamed.
#[derive(Debug)]
pub struct MeshCounters {
    shutdown: AtomicBool,
    decode_disconnects: Counter,
    handshake_rejects: Counter,
    accept_rejects: Counter,
    reconnects: Counter,
    auth_rejects: Counter,
    keepalives: Counter,
    dial_backoffs: Counter,
    live_connections: Gauge,
    pings: Counter,
    writes: Counter,
    frames_written: Counter,
    outbound_dropped: Vec<Counter>,
    /// Per-peer RTT EWMA gauges (`link.rtt_ewma.p<i>`, in ticks): each
    /// writer pings its peer on the keepalive cadence, the peer's reader
    /// echoes a pong through its own writer queue, and this side's reader
    /// folds the measured round trip as `ewma ← (7·ewma + rtt) / 8` —
    /// so the estimate covers the wire *and* the peer's outbound backlog,
    /// which is exactly the responsiveness a repair policy cares about.
    rtt_ewma: Vec<Gauge>,
    /// Per-peer outbound queue depth gauges (`link.backlog.p<i>`).
    backlog: Vec<Gauge>,
    /// Per-sender handshake epochs: only the *newest* connection claiming a
    /// sender id stays alive (see `reader_loop`), so an attacker holding
    /// sockets open cannot pin connection slots — and a correct peer's
    /// reconnect always supersedes its own stale connection.
    sender_epochs: Vec<AtomicU64>,
}

impl MeshCounters {
    fn new(n: usize, registry: Option<&Registry>) -> Self {
        let counter = |name: &str| match registry {
            Some(r) => r.counter(name),
            None => Counter::detached(),
        };
        MeshCounters {
            shutdown: AtomicBool::new(false),
            decode_disconnects: counter("mesh.decode_disconnects"),
            handshake_rejects: counter("mesh.handshake_rejects"),
            accept_rejects: counter("mesh.accept_rejects"),
            reconnects: counter("mesh.reconnects"),
            auth_rejects: counter("mesh.auth_rejects"),
            keepalives: counter("mesh.keepalives"),
            dial_backoffs: counter("mesh.dial_backoffs"),
            live_connections: match registry {
                Some(r) => r.gauge("mesh.live_connections"),
                None => Gauge::detached(),
            },
            pings: counter("mesh.pings"),
            writes: counter("mesh.writes"),
            frames_written: counter("mesh.frames_written"),
            outbound_dropped: (0..n)
                .map(|p| counter(&format!("mesh.outbound_dropped.p{p}")))
                .collect(),
            rtt_ewma: (0..n)
                .map(|p| match registry {
                    Some(r) => r.gauge(&format!("link.rtt_ewma.p{p}")),
                    None => Gauge::detached(),
                })
                .collect(),
            backlog: (0..n)
                .map(|p| match registry {
                    Some(r) => r.gauge(&format!("link.backlog.p{p}")),
                    None => Gauge::detached(),
                })
                .collect(),
            sender_epochs: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Outbound messages dropped toward `peer` so far.
    pub fn outbound_dropped(&self, peer: usize) -> u64 {
        self.outbound_dropped[peer].get()
    }

    /// Inbound connections cut for undecodable bytes so far.
    pub fn decode_disconnects(&self) -> u64 {
        self.decode_disconnects.get()
    }

    /// Inbound connections refused at the handshake so far.
    pub fn handshake_rejects(&self) -> u64 {
        self.handshake_rejects.get()
    }

    /// Inbound connections refused at the connection cap so far.
    pub fn accept_rejects(&self) -> u64 {
        self.accept_rejects.get()
    }

    /// Successful writer re-connections so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.get()
    }

    /// Inbound connections cut for failed authentication so far.
    pub fn auth_rejects(&self) -> u64 {
        self.auth_rejects.get()
    }

    /// Idle keepalive probes written so far.
    pub fn keepalives(&self) -> u64 {
        self.keepalives.get()
    }

    /// Failed dial attempts (each followed by a backoff sleep) so far.
    pub fn dial_backoffs(&self) -> u64 {
        self.dial_backoffs.get()
    }

    /// RTT probes written so far (idle cadence plus under-load refreshes).
    pub fn pings(&self) -> u64 {
        self.pings.get()
    }

    /// `write_all` calls that carried protocol frames so far: writers
    /// coalesce each queued burst into one, so `frames_written ÷ writes`
    /// is the mean burst.
    pub fn writes(&self) -> u64 {
        self.writes.get()
    }

    /// Protocol frames written to sockets so far (replays excluded).
    pub fn frames_written(&self) -> u64 {
        self.frames_written.get()
    }

    /// Current RTT EWMA toward `peer`, in ticks (0 until the first pong).
    pub fn rtt_ewma(&self, peer: usize) -> u64 {
        self.rtt_ewma[peer].get()
    }

    /// Folds one measured round trip (in ticks) into `peer`'s EWMA gauge.
    fn observe_rtt(&self, peer: usize, rtt_ticks: u64) {
        let prev = self.rtt_ewma[peer].get();
        let next = if prev == 0 {
            rtt_ticks
        } else {
            (prev.saturating_mul(7).saturating_add(rtt_ticks)) / 8
        };
        self.rtt_ewma[peer].set(next.max(1));
    }
}

/// Wall-clock → tick trace context shared with the mesh's I/O threads, so
/// reader and writer threads can stamp queue and codec events on the same
/// clock as the node loop.
#[derive(Debug)]
struct TraceCtx {
    trace: Arc<TraceRecorder>,
    clock: WallClock,
    me: u32,
}

impl TraceCtx {
    fn record(&self, kind: TraceKind) {
        self.trace.record_at(self.clock.ticks(), self.me, kind);
    }
}

/// A bound listener, ready to run a node against a peer list.
///
/// Binding is split from running so a process can bind port 0, report the
/// kernel-assigned port to an orchestrator, and only then learn the full
/// peer list (the cluster bootstrap handshake in `minsync-node`).
#[derive(Debug)]
pub struct TcpMesh {
    me: ProcessId,
    listener: TcpListener,
}

impl TcpMesh {
    /// Binds the listening socket for process `me`.
    ///
    /// # Errors
    ///
    /// Any socket-level bind failure.
    pub fn bind(me: ProcessId, listen: SocketAddr) -> io::Result<Self> {
        let listener = TcpListener::bind(listen)?;
        Ok(TcpMesh { me, listener })
    }

    /// The actual bound address (resolves a port-0 bind).
    ///
    /// # Errors
    ///
    /// Any socket-level failure reading the local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs `node` against the peers at `peers` (index = process id;
    /// `peers[me]` is this process's own address and is never dialed) until
    /// `stop` returns true over the collected outputs and live transport
    /// counters, the node halts, or the timeout elapses. The node loop runs
    /// on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `peers.len() < 2` or `me` is out of range.
    pub fn run<M, O>(
        self,
        mut node: Box<dyn Node<Msg = M, Output = O>>,
        peers: &[SocketAddr],
        config: &MeshConfig,
        mut stop: impl FnMut(&[MeshOutput<O>], &MeshCounters) -> bool,
    ) -> MeshReport<O>
    where
        M: Wire + Clone + Debug + Send + 'static,
        O: Clone + Debug + Send + 'static,
    {
        let n = peers.len();
        let me = self.me;
        assert!(n >= 2, "a mesh of one process has no wires");
        assert!(me.index() < n, "process id out of range");
        let clock = WallClock::new(Instant::now(), config.tick);
        let shared = Arc::new(MeshCounters::new(n, config.registry.as_deref()));
        let trace_ctx = config.trace.as_ref().map(|trace| {
            Arc::new(TraceCtx {
                trace: Arc::clone(trace),
                clock,
                me: me.index() as u32,
            })
        });
        // Queue depths live beside the channels (the vendored channel has no
        // len()); they exist only to label trace events and are untouched —
        // like every hook here — when tracing is off.
        let inbox_depth = Arc::new(AtomicU64::new(0));

        // Outbound plumbing first (readers route pong echoes through the
        // writer queues, so the channels must exist before the acceptor):
        // one writer thread + bounded queue per peer.
        let mut peer_txs: Vec<Option<Sender<WriterCmd<M>>>> = Vec::with_capacity(n);
        let mut writers: Vec<JoinHandle<()>> = Vec::new();
        let outbound_depths: Vec<Arc<AtomicU64>> =
            (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
        for (peer, &addr) in peers.iter().enumerate() {
            if peer == me.index() {
                peer_txs.push(None);
                continue;
            }
            let (tx, rx) = bounded::<WriterCmd<M>>(config.outbound_capacity);
            peer_txs.push(Some(tx));
            writers.push(spawn_writer::<M>(
                WriterSpec {
                    me,
                    n: n as u32,
                    peer,
                    addr,
                    max_frame: config.max_frame,
                    initial_backoff: config.initial_backoff,
                    max_backoff: config.max_backoff,
                    connect_timeout: config.connect_timeout,
                    keepalive: config.keepalive,
                    auth: config.auth.clone(),
                    trace: trace_ctx.clone(),
                    depth: Arc::clone(&outbound_depths[peer]),
                    clock,
                },
                rx,
                Arc::clone(&shared),
            ));
        }

        // Inbound plumbing: readers feed one bounded inbox.
        let (inbox_tx, inbox_rx) = bounded::<(ProcessId, M)>(config.inbox_capacity);
        let acceptor = spawn_acceptor::<M>(
            self.listener,
            inbox_tx,
            Arc::clone(&shared),
            config.max_connections,
            ReaderConfig {
                me,
                n,
                max_frame: config.max_frame,
                auth: config.auth.clone(),
                trace: trace_ctx.clone(),
                inbox_depth: Arc::clone(&inbox_depth),
                pong_txs: peer_txs.clone(),
                clock,
            },
        );

        // The node loop, on this thread.
        let mut link = MeshLink {
            me,
            peer_txs,
            counters: &shared,
            self_queue: VecDeque::new(),
            timers: WallTimers::new(clock),
            outputs: Vec::new(),
            faults: config.faults.clone(),
            trace: trace_ctx,
            outbound_depths,
        };
        let seed = derive_stream(
            config.seed,
            stream_of(MESH_STREAM_TAG, me.index() as u32 + 1),
        );
        let trace = config.trace.clone().map(|ring| (ring, inbox_depth));
        let mut timed_out = false;
        WallClockLoop::new(me, n, seed, trace).run(
            node.as_mut(),
            &mut link,
            &inbox_rx,
            None,
            // The loop asks even on the halting turn: callers report off
            // the stop predicate (minsync-node prints its statistics block
            // there), and a node emitting its final Output and Halt in one
            // effect batch must not lose that last callback.
            |link| {
                if stop(&link.outputs, &shared) || link.timers.halted() {
                    return false;
                }
                timed_out = clock.elapsed() >= config.timeout;
                !timed_out
            },
        );

        // Teardown: flag everyone down, unblock readers stuck on a full
        // inbox by dropping the receiver, then join.
        shared.shutdown.store(true, Ordering::Relaxed);
        drop(inbox_rx);
        let MeshLink {
            outputs, peer_txs, ..
        } = link;
        drop(peer_txs);
        for w in writers {
            let _ = w.join();
        }
        let _ = acceptor.join();

        MeshReport {
            outputs,
            elapsed: clock.elapsed(),
            timed_out,
            outbound_dropped: (0..n).map(|p| shared.outbound_dropped(p)).collect(),
            decode_disconnects: shared.decode_disconnects(),
            handshake_rejects: shared.handshake_rejects(),
            accept_rejects: shared.accept_rejects(),
            reconnects: shared.reconnects(),
            auth_rejects: shared.auth_rejects(),
            keepalives: shared.keepalives(),
            dial_backoffs: shared.dial_backoffs(),
            pings: shared.pings(),
            rtt_ewma: (0..n).map(|p| shared.rtt_ewma(p)).collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// The node's link
// ---------------------------------------------------------------------------

/// The node loop's [`Link`]: the writer queues and the self-delivery queue.
struct MeshLink<'a, M, O> {
    me: ProcessId,
    /// Outbound queue per peer (`None` at the self slot).
    peer_txs: Vec<Option<Sender<WriterCmd<M>>>>,
    counters: &'a MeshCounters,
    /// The paper's virtual self-channel: always timely, in-memory.
    self_queue: VecDeque<(ProcessId, M)>,
    timers: WallTimers,
    outputs: Vec<MeshOutput<O>>,
    faults: Option<Arc<LinkFaults>>,
    trace: Option<Arc<TraceCtx>>,
    /// Shadow depths of the per-peer writer queues (trace labels only).
    outbound_depths: Vec<Arc<AtomicU64>>,
}

impl<M: Clone, O> Link<M, O> for MeshLink<'_, M, O> {
    /// Queues `msg` toward `to` without ever blocking: self-delivery goes
    /// through the local queue, remote delivery through the peer's bounded
    /// writer queue (overflow dropped and counted).
    fn send(&mut self, to: ProcessId, msg: M) {
        let to = to.index();
        match &self.peer_txs[to] {
            None => self.self_queue.push_back((self.me, msg)),
            Some(tx) => {
                // Injected link faults sit in front of the queue: a blocked
                // peer's traffic is counted as dropped and never queued, so a
                // heal does not release a backlog of stale partition-era
                // frames. The self-channel (above) is never faultable.
                if self.faults.as_ref().is_some_and(|f| f.is_blocked(to)) {
                    self.counters.outbound_dropped[to].inc();
                    return;
                }
                if tx.try_send(WriterCmd::Msg(msg)).is_err() {
                    self.counters.outbound_dropped[to].inc();
                } else {
                    let depth = self.outbound_depths[to].fetch_add(1, Ordering::Relaxed) + 1;
                    self.counters.backlog[to].set(depth);
                    if let Some(ctx) = &self.trace {
                        ctx.record(TraceKind::Enqueue {
                            queue: queues::OUTBOUND_BASE + to as u32,
                            depth,
                        });
                    }
                }
            }
        }
    }

    fn set_timer(&mut self, id: TimerId, delay: u64) {
        self.timers.set(id, delay);
    }

    fn output(&mut self, event: O) {
        self.outputs.push(MeshOutput {
            elapsed: self.timers.clock().elapsed(),
            event,
        });
    }

    fn halt(&mut self) {
        self.timers.halt();
    }
}

impl<M: Clone, O> WallClockLink<M, O> for MeshLink<'_, M, O> {
    fn timers(&mut self) -> &mut WallTimers {
        &mut self.timers
    }

    fn pop_self(&mut self) -> Option<(ProcessId, M)> {
        self.self_queue.pop_front()
    }
}

// ---------------------------------------------------------------------------
// Writer side
// ---------------------------------------------------------------------------

/// What rides a writer's queue: protocol messages from the node loop, or
/// pong echoes a reader owes the peer that pinged it (a reader cannot
/// write to its inbound socket's other direction — connections are
/// unidirectional — so the echo travels over this side's own outbound
/// connection to that peer).
enum WriterCmd<M> {
    /// A protocol message (framed through the codec, MAC'd, replayed).
    Msg(M),
    /// Echo of an RTT probe: the originator's stamp, returned verbatim as
    /// a raw control frame (no codec, no MAC, no replay).
    Pong(u64),
}

/// Everything a writer thread needs to know about its peer.
struct WriterSpec {
    me: ProcessId,
    n: u32,
    peer: usize,
    addr: SocketAddr,
    max_frame: usize,
    initial_backoff: Duration,
    max_backoff: Duration,
    connect_timeout: Duration,
    keepalive: Duration,
    auth: Option<Arc<dyn Authenticator>>,
    trace: Option<Arc<TraceCtx>>,
    /// Shadow depth of this writer's queue (trace labels and the
    /// `link.backlog.p<i>` gauge).
    depth: Arc<AtomicU64>,
    /// The mesh's clock: RTT probe stamps are its elapsed nanoseconds,
    /// shared with the readers that resolve the echoes.
    clock: WallClock,
}

/// Byte budget of a writer's [`ReplayRing`].
const WRITER_REPLAY_BYTES: usize = 1 << 20;

/// A writer stops draining its queue into the pending `write_all` once the
/// buffer holds this many bytes: a burst of small frames costs one syscall,
/// and a 4 KiB payload never waits behind more than this.
const COALESCE_BYTES: usize = 16 * 1024;

/// A writer's replay window: its most recent protocol frames, as one
/// contiguous byte queue plus each frame's length. Past the byte budget the
/// oldest frames are evicted — never the newest, however large. Holds `Msg`
/// frames only: pongs, pings and keepalives are best-effort and never
/// replayed.
struct ReplayRing {
    bytes: VecDeque<u8>,
    lens: VecDeque<u32>,
    budget: usize,
}

impl ReplayRing {
    fn new(budget: usize) -> Self {
        ReplayRing {
            bytes: VecDeque::new(),
            lens: VecDeque::new(),
            budget,
        }
    }

    /// Appends one encoded frame (a `memcpy`, no allocation per frame once
    /// the ring has grown), then evicts down to the budget.
    fn push(&mut self, frame: &[u8]) {
        self.bytes.extend(frame);
        self.lens
            .push_back(u32::try_from(frame.len()).expect("a frame's length fits its u32 prefix"));
        while self.bytes.len() > self.budget && self.lens.len() > 1 {
            let oldest = self
                .lens
                .pop_front()
                .expect("ring holds two frames or more");
            self.bytes.drain(..oldest as usize);
        }
    }

    /// The retained frames, oldest first, as two byte runs.
    fn as_slices(&self) -> (&[u8], &[u8]) {
        self.bytes.as_slices()
    }
}

/// Appends `msg`'s frame (MAC'd when the mesh authenticates) to `buf`,
/// stamping its codec time when tracing. `false` for an unsendable
/// (oversized) message, which leaves `buf` as it was.
fn encode_msg<M: Wire>(spec: &WriterSpec, msg: &M, buf: &mut Vec<u8>) -> bool {
    let start = buf.len();
    let to = ProcessId::new(spec.peer);
    let encode = |buf: &mut Vec<u8>| match &spec.auth {
        Some(auth) => encode_frame_tagged(msg, buf, spec.max_frame, auth.as_ref(), to),
        None => encode_frame(msg, buf, spec.max_frame),
    };
    // Untraced runs call the plain codec — the timing probe costs two clock
    // reads per frame, paid only when someone will look at the result.
    let encoded = match &spec.trace {
        Some(ctx) => {
            let t0 = Instant::now();
            let res = encode(buf);
            ctx.record(TraceKind::FrameEncoded {
                bytes: (buf.len() - start) as u64,
                nanos: t0.elapsed().as_nanos() as u64,
            });
            res
        }
        None => encode(buf),
    };
    encoded.is_ok()
}

fn spawn_writer<M>(
    spec: WriterSpec,
    rx: Receiver<WriterCmd<M>>,
    shared: Arc<MeshCounters>,
) -> JoinHandle<()>
where
    M: Wire + Send + 'static,
{
    std::thread::spawn(move || {
        let peer_id = ProcessId::new(spec.peer);
        let hello = match &spec.auth {
            Some(auth) => Hello::authenticated(spec.n, auth.as_ref(), peer_id),
            None => Hello::new(spec.me, spec.n),
        }
        .encode();
        let mut backoff = spec.initial_backoff;
        let mut connects = 0u64;
        let mut buf = Vec::new();
        // The protocol stack assumes reliable channels: every consensus
        // message is sent exactly once, so a frame that dies with a broken
        // connection is a liveness hole (most insidiously when the peer's
        // epoch rule evicts this connection — e.g. under an impersonation
        // storm — and TCP only reports the break on a *later* write). Two
        // mechanisms close the gap: recently written frames ride a bounded
        // replay ring that is re-sent wholesale after every reconnect
        // (every layer above dedups by sender, so duplicates are free), and
        // an idle writer probes the socket with keepalive frames so a dead
        // connection is noticed in ~100ms instead of never.
        let mut replay = ReplayRing::new(WRITER_REPLAY_BYTES);
        'reconnect: while !shared.shutdown() {
            let mut stream = match TcpStream::connect_timeout(&spec.addr, spec.connect_timeout) {
                Ok(s) => s,
                Err(_) => {
                    shared.dial_backoffs.inc();
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(spec.max_backoff);
                    continue 'reconnect;
                }
            };
            backoff = spec.initial_backoff;
            connects += 1;
            if connects > 1 {
                shared.reconnects.inc();
            }
            let _ = stream.set_nodelay(true);
            // A peer that accepts but never reads would otherwise pin this
            // thread in write_all forever (and hang shutdown): bound every
            // write, and treat a timeout like any broken connection.
            let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
            if stream.write_all(&hello).is_err() {
                continue 'reconnect;
            }
            let (older, newer) = replay.as_slices();
            if stream.write_all(older).is_err() || stream.write_all(newer).is_err() {
                continue 'reconnect;
            }
            // Seed the RTT estimate at establishment: one probe right after
            // the hello, then on the keepalive cadence. Without it a link
            // that lives shorter than one keepalive is never measured.
            shared.pings.inc();
            let stamp = spec.clock.elapsed().as_nanos() as u64;
            if stream.write_all(&control_frame(PING_TAG, stamp)).is_err() {
                continue 'reconnect;
            }
            let mut last_ping = Instant::now();
            loop {
                let mut next = match rx.recv_timeout(spec.keepalive) {
                    Ok(cmd) => Some(cmd),
                    Err(RecvTimeoutError::Timeout) => {
                        if shared.shutdown() {
                            return;
                        }
                        shared.keepalives.inc();
                        shared.pings.inc();
                        last_ping = Instant::now();
                        let stamp = spec.clock.elapsed().as_nanos() as u64;
                        buf.clear();
                        buf.extend_from_slice(&KEEPALIVE_FRAME);
                        buf.extend_from_slice(&control_frame(PING_TAG, stamp));
                        if stream.write_all(&buf).is_err() {
                            continue 'reconnect;
                        }
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => return,
                };
                // One burst, one syscall: drain what else is queued, up to
                // the byte budget, into `buf` and write it with one
                // `write_all`.
                buf.clear();
                let mut frames = 0u64;
                while let Some(cmd) = next {
                    if let WriterCmd::Msg(_) = cmd {
                        let depth = spec
                            .depth
                            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                                Some(d.saturating_sub(1))
                            })
                            .unwrap_or(0)
                            .saturating_sub(1);
                        shared.backlog[spec.peer].set(depth);
                        if let Some(ctx) = &spec.trace {
                            ctx.record(TraceKind::Dequeue {
                                queue: queues::OUTBOUND_BASE + spec.peer as u32,
                                depth,
                            });
                        }
                    }
                    if shared.shutdown() {
                        // Teardown outranks the backlog: against a slow (or
                        // byte-at-a-time Byzantine) reader, draining a full
                        // queue at up to one write timeout per burst could
                        // hold the mesh's join far past its wall-clock cap.
                        // The burst's protocol frames, the popped message
                        // included, are discarded — count them like every
                        // other drop.
                        let popped = u64::from(matches!(cmd, WriterCmd::Msg(_)));
                        shared.outbound_dropped[spec.peer].add(frames + popped);
                        return;
                    }
                    match cmd {
                        // Echo the peer's RTT probe. Raw control frame:
                        // best-effort (no replay ring) — a lost pong just
                        // skips one RTT observation.
                        WriterCmd::Pong(stamp) => {
                            buf.extend_from_slice(&control_frame(PONG_TAG, stamp));
                        }
                        WriterCmd::Msg(msg) => {
                            let start = buf.len();
                            if encode_msg(&spec, &msg, &mut buf) {
                                // Into the ring *before* the write: a failed
                                // write is then a retransmission matter, not
                                // a loss (the frame goes out with the replay
                                // on reconnect). Frames evicted past the byte
                                // budget may or may not have been delivered —
                                // they are not counted as drops, the ring is a
                                // best-effort replay window.
                                replay.push(&buf[start..]);
                                frames += 1;
                            } else {
                                // Oversized local message: unsendable, count it.
                                shared.outbound_dropped[spec.peer].inc();
                            }
                        }
                    }
                    next = if buf.len() < COALESCE_BYTES {
                        rx.try_recv().ok()
                    } else {
                        None
                    };
                }
                // Refresh the RTT estimate under load too: without this, a
                // busy connection would only ever be measured while idle.
                if frames > 0 && last_ping.elapsed() >= spec.keepalive {
                    last_ping = Instant::now();
                    shared.pings.inc();
                    let stamp = spec.clock.elapsed().as_nanos() as u64;
                    buf.extend_from_slice(&control_frame(PING_TAG, stamp));
                }
                if buf.is_empty() {
                    continue; // nothing but unsendable messages
                }
                if stream.write_all(&buf).is_err() {
                    continue 'reconnect;
                }
                if frames > 0 {
                    shared.writes.inc();
                    shared.frames_written.add(frames);
                }
            }
        }
    })
}

// ---------------------------------------------------------------------------
// Reader side
// ---------------------------------------------------------------------------

/// The per-connection knobs every reader inherits from the mesh.
struct ReaderConfig<M> {
    me: ProcessId,
    n: usize,
    max_frame: usize,
    auth: Option<Arc<dyn Authenticator>>,
    trace: Option<Arc<TraceCtx>>,
    /// Shadow depth of the inbox (trace labels only).
    inbox_depth: Arc<AtomicU64>,
    /// Writer queues (self slot `None`), for routing a pong echo back to
    /// whichever peer pinged this reader's connection.
    pong_txs: Vec<Option<Sender<WriterCmd<M>>>>,
    /// The clock RTT probe stamps are measured against (shared with the
    /// writer threads) and converted to ticks — the RTT gauges' unit — by.
    clock: WallClock,
}

// Manual impl: `derive(Clone)` would demand `M: Clone`, which readers
// never need (they only clone the channel handles).
impl<M> Clone for ReaderConfig<M> {
    fn clone(&self) -> Self {
        ReaderConfig {
            me: self.me,
            n: self.n,
            max_frame: self.max_frame,
            auth: self.auth.clone(),
            trace: self.trace.clone(),
            inbox_depth: Arc::clone(&self.inbox_depth),
            pong_txs: self.pong_txs.clone(),
            clock: self.clock,
        }
    }
}

fn spawn_acceptor<M>(
    listener: TcpListener,
    inbox: Sender<(ProcessId, M)>,
    shared: Arc<MeshCounters>,
    max_connections: usize,
    reader: ReaderConfig<M>,
) -> JoinHandle<()>
where
    M: Wire + Send + 'static,
{
    std::thread::spawn(move || {
        listener
            .set_nonblocking(true)
            .expect("listener nonblocking mode");
        let mut readers: Vec<JoinHandle<()>> = Vec::new();
        while !shared.shutdown() {
            // Reap finished readers as we go: a Byzantine peer cycling
            // short-lived connections must not accumulate dead threads'
            // stacks for the life of the run.
            readers.retain(|r| !r.is_finished());
            match listener.accept() {
                Ok((stream, _)) => {
                    if shared.live_connections.get() as usize >= max_connections {
                        // Socket-exhaustion defense: refuse, don't spawn —
                        // and count it, so a lockout is visible.
                        shared.accept_rejects.inc();
                        drop(stream);
                        continue;
                    }
                    shared.live_connections.inc();
                    let inbox = inbox.clone();
                    let shared = Arc::clone(&shared);
                    let reader = reader.clone();
                    readers.push(std::thread::spawn(move || {
                        reader_loop::<M>(stream, inbox, &shared, reader);
                        shared.live_connections.dec();
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        for r in readers {
            let _ = r.join();
        }
    })
}

/// Reads one connection until EOF, error, shutdown, or Byzantine bytes.
///
/// The loop tolerates arbitrary packetization: bytes accumulate in a local
/// buffer and frames are split off as they complete. The buffer stays
/// bounded by `max_frame` plus one read chunk — a peer announcing a larger
/// frame is disconnected at the header, before any payload is buffered.
fn reader_loop<M>(
    mut stream: TcpStream,
    inbox: Sender<(ProcessId, M)>,
    shared: &MeshCounters,
    config: ReaderConfig<M>,
) where
    M: Wire + Send + 'static,
{
    let ReaderConfig {
        me,
        n,
        max_frame,
        auth,
        trace,
        inbox_depth,
        pong_txs,
        clock,
    } = config;
    // With auth on, the sender's MAC tag rides inside the frame body, so a
    // max-size message legitimately occupies `max_frame + FRAME_TAG_OVERHEAD`
    // bytes on the wire. Admit exactly that much; the cap still binds.
    let read_cap = match auth {
        Some(_) => tagged_frame_cap(max_frame),
        None => max_frame,
    };
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut sender: Option<ProcessId> = None;
    // Two defenses keep connection slots reclaimable: connections that
    // never complete a valid Hello are cut at a deadline, and completing a
    // Hello claims the sender's *epoch* — only the newest connection per
    // claimed sender survives, so neither an attacker holding hello'd
    // sockets open nor a correct peer's own stale half-open connection can
    // pin a slot (the reconnect supersedes it).
    let mut my_epoch = 0;
    let opened = Instant::now();
    const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(5);
    while !shared.shutdown() {
        match sender {
            None if opened.elapsed() >= HANDSHAKE_DEADLINE => {
                shared.handshake_rejects.inc();
                return;
            }
            Some(from)
                if shared.sender_epochs[from.index()].load(Ordering::Relaxed) != my_epoch =>
            {
                return; // superseded by a newer connection from this sender
            }
            _ => {}
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // clean EOF
            Ok(k) => {
                buf.extend_from_slice(&chunk[..k]);
                if sender.is_none() {
                    // A foreign protocol is cut the moment its prefix
                    // diverges from the magic — don't hold the connection
                    // to the handshake deadline waiting for a full Hello
                    // that can no longer arrive.
                    let k = buf.len().min(MAGIC.len());
                    if buf[..k] != MAGIC[..k] {
                        shared.handshake_rejects.inc();
                        return;
                    }
                    if buf.len() < HELLO_LEN {
                        continue; // partial handshake: wait for more bytes
                    }
                    let mut input = buf.as_slice();
                    match Hello::decode(&mut input) {
                        Ok(hello)
                            if hello.n as usize == n
                                && hello.sender.index() < n
                                && hello.sender != me =>
                        {
                            // Key confirmation comes BEFORE the epoch claim:
                            // a forged Hello must not supersede (and thereby
                            // kill) the genuine sender's live connection.
                            if let Some(auth) = &auth {
                                if !hello.verify_auth(auth.as_ref()) {
                                    shared.auth_rejects.inc();
                                    return;
                                }
                            }
                            sender = Some(hello.sender);
                            my_epoch = shared.sender_epochs[hello.sender.index()]
                                .fetch_add(1, Ordering::Relaxed)
                                + 1;
                            buf.drain(..HELLO_LEN);
                        }
                        _ => {
                            // Foreign protocol, incompatible version, wrong
                            // cluster, or an impersonation attempt.
                            shared.handshake_rejects.inc();
                            return;
                        }
                    }
                }
                let from = sender.expect("handshake complete");
                let mut consumed = 0;
                loop {
                    match split_frame(&buf[consumed..], read_cap) {
                        Ok(None) => break,
                        Ok(Some((payload, used))) => {
                            if payload.is_empty() {
                                // Idle keepalive probe: liveness only. It is
                                // skipped before MAC verification — it has no
                                // payload, so forging one achieves nothing.
                                consumed += used;
                                continue;
                            }
                            if let Some((tag, stamp)) = split_control(payload) {
                                // RTT plumbing, recognized (like keepalives)
                                // before MAC verification: control frames
                                // carry no protocol data, so the worst a
                                // forgery can do is nudge a health gauge.
                                consumed += used;
                                if tag == PING_TAG {
                                    // The echo owed travels over our own
                                    // outbound connection to the pinger
                                    // (connections are unidirectional); a
                                    // full queue just drops the echo and
                                    // skips one RTT observation.
                                    if let Some(tx) = &pong_txs[from.index()] {
                                        let _ = tx.try_send(WriterCmd::Pong(stamp));
                                    }
                                } else {
                                    debug_assert_eq!(tag, PONG_TAG);
                                    let now = clock.elapsed().as_nanos() as u64;
                                    let rtt = Duration::from_nanos(now.saturating_sub(stamp));
                                    shared.observe_rtt(from.index(), clock.ticks_of(rtt).max(1));
                                }
                                continue;
                            }
                            // The MAC is checked before any byte reaches the
                            // codec: forged frames are cut without giving the
                            // decoder attacker-controlled input.
                            let body = match &auth {
                                Some(a) => match verify_frame_tag(payload, a.as_ref(), from) {
                                    Ok(body) => body,
                                    Err(_) => {
                                        shared.auth_rejects.inc();
                                        return;
                                    }
                                },
                                None => payload,
                            };
                            let decoded = match &trace {
                                Some(ctx) => {
                                    let (res, nanos) = decode_frame_timed::<M>(body);
                                    ctx.record(TraceKind::FrameDecoded {
                                        bytes: body.len() as u64,
                                        nanos,
                                    });
                                    res
                                }
                                None => decode_frame::<M>(body),
                            };
                            match decoded {
                                Ok(msg) => {
                                    consumed += used;
                                    if inbox.send((from, msg)).is_err() {
                                        return; // node loop is gone
                                    }
                                    if let Some(ctx) = &trace {
                                        let depth = inbox_depth.fetch_add(1, Ordering::Relaxed) + 1;
                                        ctx.record(TraceKind::Enqueue {
                                            queue: queues::INBOX,
                                            depth,
                                        });
                                    }
                                }
                                Err(_) => {
                                    shared.decode_disconnects.inc();
                                    return;
                                }
                            }
                        }
                        Err(_) => {
                            shared.decode_disconnects.inc();
                            return;
                        }
                    }
                }
                buf.drain(..consumed);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(len: usize, fill: u8) -> Vec<u8> {
        vec![fill; len]
    }

    fn replayed(ring: &ReplayRing) -> Vec<u8> {
        let (older, newer) = ring.as_slices();
        [older, newer].concat()
    }

    #[test]
    fn replay_ring_evicts_oldest_frames_down_to_the_byte_budget() {
        let mut ring = ReplayRing::new(100);
        for fill in 0..4 {
            ring.push(&frame(30, fill));
        }
        // 120 bytes > 100: the oldest 30-byte frame went, 90 remain.
        assert_eq!(ring.bytes.len(), 90);
        assert_eq!(Vec::from(ring.lens.clone()), [30, 30, 30]);
        ring.push(&frame(45, 4));
        // 135 → evict 30 → 105 → evict 30 → 75.
        assert_eq!(ring.bytes.len(), 75);
        assert_eq!(Vec::from(ring.lens.clone()), [30, 45]);
    }

    #[test]
    fn replay_bytes_are_the_retained_frames_in_order() {
        let mut ring = ReplayRing::new(64);
        let frames: Vec<Vec<u8>> = (0..10u8).map(|i| frame(7 + i as usize, i)).collect();
        for f in &frames {
            ring.push(f);
        }
        let kept = ring.lens.len();
        let expected: Vec<u8> = frames[frames.len() - kept..].concat();
        assert!(expected.len() <= 64);
        assert_eq!(replayed(&ring), expected);
        // The wrap-around of the byte queue is invisible to the replay.
        assert_eq!(
            ring.lens.iter().map(|&l| l as usize).sum::<usize>(),
            ring.bytes.len()
        );
    }

    #[test]
    fn replay_ring_keeps_a_single_over_budget_frame() {
        let mut ring = ReplayRing::new(16);
        ring.push(&frame(8, 1));
        ring.push(&frame(40, 2));
        assert_eq!(
            replayed(&ring),
            frame(40, 2),
            "the newest frame is never evicted"
        );
        ring.push(&frame(4, 3));
        assert_eq!(replayed(&ring), frame(4, 3));
    }
}
