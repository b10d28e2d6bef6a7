//! The TCP mesh: a wall-clock substrate running one sans-io [`Node`] per
//! process over real `std::net` sockets, on one thread.
//!
//! Where the threaded runtime (`minsync_net::threaded`) routes messages
//! through an in-memory router, the mesh puts each process in its own OS
//! process (or at least its own mesh instance) and speaks the
//! `minsync-wire` byte protocol over `n · (n − 1)` directed TCP connections,
//! mirroring the paper's directed-channel model. Like the paper's process,
//! a mesh instance is one sequential automaton: [`TcpMesh::run`] drives the
//! node with the code every substrate shares ([`WallClockLoop`] over this
//! module's [`Link`]) and does all socket work on the same thread. Each
//! turn it
//!
//! * **flushes** every connected peer: the node's sends wait, unencoded, in
//!   a per-peer queue of at most 16 Ki messages (overflow is dropped and
//!   counted in [`MeshReport::outbound_dropped`], so a slow, dead or
//!   Byzantine peer never stalls the replica); up to 16 KiB of them become
//!   frames, each encoded and MAC'd on its own, handed to the kernel with
//!   one nonblocking `write` (`mesh.writes` vs
//!   [`MeshCounters::frames_written`]). A partial write keeps its tail for
//!   the next turn; a tail stuck for 500 ms (a peer that accepts but never
//!   reads) costs the connection. Frames also enter a bounded replay ring,
//!   re-sent after a reconnect;
//! * **waits** in `poll(2)` on the listener, the inbound sockets, and the
//!   outbound sockets with bytes to send, until one is ready or the next
//!   timer, keepalive or dial is due;
//! * **reads** each ready inbound connection once. A connection owes a
//!   valid [`Hello`] (magic, codec version, cluster size, claimed sender)
//!   within 5 s, then yields length-prefixed frames under any
//!   packetization. Each connection hands the node at most 64 frames per
//!   turn, round-robin, and is read again only once they are used up, so a
//!   flooding peer gets an honest peer's share and its own TCP window
//!   pushes back on it alone. A decode error, oversized frame announcement
//!   or handshake mismatch cuts *that connection* and counts it; the
//!   process never dies on received bytes.
//!
//! Nothing in the loop waits on a peer except a dial, attempted only once
//! the peer's reconnect backoff has elapsed and bounded by 250 ms; on
//! loopback a refused dial returns at once.
//!
//! Identity is *claimed* by default — see [`Hello`] — but a mesh configured
//! with an [`Authenticator`] ([`MeshConfig::auth`]) **proves** it: the
//! handshake carries a key-confirmation tag, every frame carries a MAC over
//! its body verified *before* the decoder sees a byte, and any forgery cuts
//! the connection and counts in `mesh.auth_rejects`
//! ([`MeshCounters::auth_rejects`]). That closes
//! the paper's no-impersonation assumption (Section 2.1) over real sockets.
//! Delivery is FIFO per directed channel (TCP) with no cross-channel
//! ordering, exactly the guarantee the protocols were verified against on
//! the simulator.

use std::collections::VecDeque;
use std::fmt::Debug;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

use crate::poll::{self, PollFd, POLLIN, POLLOUT};

/// Stream-namespace tag of the TCP mesh (`"MESH"`), keeping its derived
/// seeds disjoint from every other consumer of the same base seed.
const MESH_STREAM_TAG: u32 = 0x4D45_5348;

/// Messages queued toward one peer; further sends are dropped and counted.
const OUTBOUND_CAPACITY: usize = 16 * 1024;

/// Hard cap on one frame's body, both directions.
const MAX_FRAME: usize = DEFAULT_MAX_FRAME;

/// First reconnect delay after a failed dial; doubles per failure.
const INITIAL_BACKOFF: Duration = Duration::from_millis(5);

/// Ceiling of the reconnect backoff.
const MAX_BACKOFF: Duration = Duration::from_millis(200);

/// Per-attempt TCP connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Cap on simultaneously live inbound connections: a Byzantine peer
/// opening sockets in a loop exhausts this, not the process's descriptors.
const MAX_CONNECTIONS: usize = 64;

/// An inbound connection that has not completed its [`Hello`] by then is
/// cut, so half-open or silent sockets cannot pin connection slots.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(5);

/// An outbound connection whose unsent bytes make no progress for this
/// long is cut and redialed: a peer that accepts but never reads.
const WRITE_STALL: Duration = Duration::from_millis(500);

/// Events one inbound connection may hand the node per turn before the
/// next connection's turn.
const FRAMES_PER_TURN: usize = 64;

/// Bytes one read takes off an inbound socket.
const READ_CHUNK: usize = 16 * 1024;

/// Byte budget of a peer's [`ReplayRing`].
const REPLAY_BYTES: usize = 1 << 20;

/// A flush stops encoding queued messages once this many bytes wait to be
/// written: a burst of small frames costs one syscall, and a 4 KiB payload
/// never waits behind more than this.
const COALESCE_BYTES: usize = 16 * 1024;

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
    /// Period of the RTT probe on every outbound connection; a connection
    /// that carried no protocol frame for a period also gets a keepalive
    /// frame, so a dead peer is noticed. Churn tests tighten this.
    pub keepalive: Duration,
    /// Message authentication. `None` (the default) runs the mesh open:
    /// sender ids are trusted as claimed. `Some` requires a valid
    /// key-confirmation tag on every inbound handshake and a valid MAC on
    /// every inbound frame — checked **before** the payload reaches the
    /// decoder — and tags all outbound traffic; a failed check cuts the
    /// connection and counts in `mesh.auth_rejects`. The frame cap
    /// ([`DEFAULT_MAX_FRAME`]) keeps applying to the message *body*: readers
    /// admit [`tagged_frame_cap`] bytes, so the MAC rides for free instead
    /// of stealing payload capacity.
    pub auth: Option<Arc<dyn Authenticator>>,
    /// Per-peer outbound drop switches for fault injection. `None` (the
    /// default) sends everywhere; `Some` lets an orchestrator partition and
    /// heal links while the mesh runs (see [`LinkFaults`]). Blocked sends
    /// are counted per peer in [`MeshReport::outbound_dropped`].
    pub faults: Option<Arc<LinkFaults>>,
    /// Telemetry registry the mesh interns its transport counters in
    /// (`mesh.*` — see [`MeshCounters`]). With `None` the report and
    /// stop-predicate accessors work all the same.
    pub registry: Option<Arc<Registry>>,
    /// Structured-trace hook. When set, the mesh stamps queue
    /// enqueue/dequeue, handler-step, and frame codec-timing events into
    /// the shared ring (timestamps in ticks of [`MeshConfig::tick`]).
    /// Purely observational: the node's behaviour is unchanged.
    pub trace: Option<Arc<TraceRecorder>>,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            tick: Duration::from_micros(200),
            timeout: Duration::from_secs(30),
            seed: 0,
            keepalive: Duration::from_millis(50),
            auth: None,
            faults: None,
            registry: None,
            trace: None,
        }
    }
}

/// Per-peer outbound drop switches — the cluster-side analog of the
/// simulator's churn oracle. The orchestrator (or a `PART`/`HEAL` control
/// verb, flipped from `minsync-node`'s stdin thread) sets flags while the
/// mesh runs; a blocked peer's traffic is counted into `outbound_dropped`
/// and never reaches its queue, so a symmetric pair of `LinkFaults` on both
/// sides of a cut is a real bidirectional partition. Healing is just
/// clearing the flags: the connections and their reconnect/backoff
/// machinery never notice the fault, which is exactly the "network came
/// back" shape churn recovery must absorb.
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
    /// Per-peer outbound messages dropped (full queue, blocked link, or an
    /// unsendable oversized message). Index = peer id; the self slot stays 0.
    /// Every other transport counter lives only in [`MeshCounters`] and
    /// the registry.
    pub outbound_dropped: Vec<u64>,
}

/// Live transport counters, handed to the stop predicate on every
/// evaluation — a replica can report transport health (drops, Byzantine
/// disconnects) *while the mesh is still running*, which is how
/// `minsync-node` fills its statistics block before lingering for
/// laggards.
///
/// The counters are telemetry handles interned in [`MeshConfig::registry`]
/// (or a private registry) under `mesh.*` names — per-peer drops as
/// `mesh.outbound_dropped.p<i>`, `mesh.writes` as the socket writes that
/// carried frames (`frames_written ÷ writes` is the mean burst) — so a
/// registry snapshot carries transport health with no extra plumbing.
#[derive(Debug)]
pub struct MeshCounters {
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
    /// outbound connection pings its peer on the keepalive cadence, the
    /// peer echoes a pong over its own connection back, and this side folds
    /// the measured round trip as `ewma ← (7·ewma + rtt) / 8` — so the
    /// estimate covers the wire *and* the peer's turn, which is exactly the
    /// responsiveness a repair policy cares about.
    rtt_ewma: Vec<Gauge>,
    /// Per-peer send-queue lengths (`link.backlog.p<i>`).
    backlog: Vec<Gauge>,
}

impl MeshCounters {
    fn new(n: usize, registry: Option<&Registry>) -> Self {
        let private = Registry::new();
        let registry = registry.unwrap_or(&private);
        let counter = |name: &str| registry.counter(name);
        let gauge = |name: &str| registry.gauge(name);
        MeshCounters {
            decode_disconnects: counter("mesh.decode_disconnects"),
            handshake_rejects: counter("mesh.handshake_rejects"),
            accept_rejects: counter("mesh.accept_rejects"),
            reconnects: counter("mesh.reconnects"),
            auth_rejects: counter("mesh.auth_rejects"),
            keepalives: counter("mesh.keepalives"),
            dial_backoffs: counter("mesh.dial_backoffs"),
            live_connections: gauge("mesh.live_connections"),
            pings: counter("mesh.pings"),
            writes: counter("mesh.writes"),
            frames_written: counter("mesh.frames_written"),
            outbound_dropped: (0..n)
                .map(|p| counter(&format!("mesh.outbound_dropped.p{p}")))
                .collect(),
            rtt_ewma: (0..n)
                .map(|p| gauge(&format!("link.rtt_ewma.p{p}")))
                .collect(),
            backlog: (0..n)
                .map(|p| gauge(&format!("link.backlog.p{p}")))
                .collect(),
        }
    }

    /// Outbound messages dropped toward `peer` so far.
    pub fn outbound_dropped(&self, peer: usize) -> u64 {
        self.outbound_dropped[peer].get()
    }

    /// Inbound connections cut for undecodable bytes so far (garbage
    /// frames, oversized frame announcements, trailing bytes).
    pub fn decode_disconnects(&self) -> u64 {
        self.decode_disconnects.get()
    }

    /// Inbound connections refused at the handshake so far (bad magic,
    /// version or cluster size, bad or self-claiming sender id, or 5 s
    /// without one).
    pub fn handshake_rejects(&self) -> u64 {
        self.handshake_rejects.get()
    }

    /// Successful re-connections after the first connect per peer so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.get()
    }

    /// Inbound connections cut for failed authentication so far (a
    /// handshake tag or frame MAC that did not verify) — always 0 on an
    /// open mesh.
    pub fn auth_rejects(&self) -> u64 {
        self.auth_rejects.get()
    }

    /// Protocol frames the kernel accepted so far (replays excluded).
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

    /// Counts an inbound connection cut for `why`.
    fn cut(&self, why: Cut) {
        match why {
            Cut::Handshake => self.handshake_rejects.inc(),
            Cut::Auth => self.auth_rejects.inc(),
            Cut::Decode => self.decode_disconnects.inc(),
        }
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
    /// counters, the node halts, or the timeout elapses. Everything — the
    /// node and every socket — runs on the calling thread.
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
        self.listener
            .set_nonblocking(true)
            .expect("listener nonblocking mode");
        let clock = WallClock::new(Instant::now(), config.tick);
        let ctx = MeshCtx::new(me, n, config, clock);
        let now = Instant::now();
        let mut link = MeshLink {
            listener: self.listener,
            peers: peers
                .iter()
                .enumerate()
                .map(|(p, &addr)| {
                    (p != me.index()).then(|| Peer::new(addr, ProcessId::new(p), &ctx, now))
                })
                .collect(),
            inbound: Vec::new(),
            ready: VecDeque::new(),
            ctx,
            self_queue: VecDeque::new(),
            timers: WallTimers::new(clock),
            outputs: Vec::new(),
            faults: config.faults.clone(),
            chunk: vec![0; READ_CHUNK],
        };
        let seed = derive_stream(
            config.seed,
            stream_of(MESH_STREAM_TAG, me.index() as u32 + 1),
        );
        let mut timed_out = false;
        WallClockLoop::new(me, n, seed, config.trace.clone()).run(
            node.as_mut(),
            &mut link,
            // The loop asks even on the halting turn: callers report off
            // the stop predicate (minsync-node prints its statistics block
            // there), and a node emitting its final Output and Halt in one
            // effect batch must not lose that last callback.
            |link| {
                if stop(&link.outputs, &link.ctx.counters) || link.timers.halted() {
                    return false;
                }
                timed_out = clock.elapsed() >= config.timeout;
                !timed_out
            },
        );
        // The node's last sends still reach the kernel (no dial, though:
        // teardown never waits on a peer).
        let now = Instant::now();
        for peer in link.peers.iter_mut().flatten() {
            if peer.stream.is_some() {
                peer.flush(now, &link.ctx);
            }
        }

        let c = &link.ctx.counters;
        MeshReport {
            elapsed: clock.elapsed(),
            timed_out,
            outbound_dropped: (0..n).map(|p| c.outbound_dropped(p)).collect(),
            outputs: link.outputs,
        }
    }
}

// ---------------------------------------------------------------------------
// The node's link
// ---------------------------------------------------------------------------

/// What every connection consults and no connection changes: the cluster's
/// rules, the clock, the counters and the trace hook.
struct MeshCtx {
    me: ProcessId,
    n: usize,
    auth: Option<Arc<dyn Authenticator>>,
    /// Largest frame a reader admits: with auth on, a max-size body plus
    /// its MAC tag.
    read_cap: usize,
    keepalive: Duration,
    /// RTT probe stamps are its elapsed nanoseconds; trace stamps its ticks.
    clock: WallClock,
    counters: MeshCounters,
    trace: Option<Arc<TraceRecorder>>,
}

impl MeshCtx {
    fn new(me: ProcessId, n: usize, config: &MeshConfig, clock: WallClock) -> Self {
        MeshCtx {
            me,
            n,
            auth: config.auth.clone(),
            read_cap: match config.auth {
                Some(_) => tagged_frame_cap(MAX_FRAME),
                None => MAX_FRAME,
            },
            keepalive: config.keepalive,
            clock,
            counters: MeshCounters::new(n, config.registry.as_deref()),
            trace: config.trace.clone(),
        }
    }

    /// An RTT probe's stamp: nanoseconds on the mesh clock.
    fn stamp(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Stamps `kind` into the trace ring, if there is one.
    fn record(&self, kind: TraceKind) {
        if let Some(trace) = &self.trace {
            trace.record_at(self.clock.ticks(), self.me.index() as u32, kind);
        }
    }
}

/// The node loop's [`Link`], and everything the mesh's one thread owns: the
/// listener, both sides of every connection, the self-channel and the
/// timers.
struct MeshLink<M, O> {
    listener: TcpListener,
    /// Outbound side per peer (`None` at the self slot).
    peers: Vec<Option<Peer<M>>>,
    /// Inbound connections, in accept order (the round-robin order).
    inbound: Vec<InConn>,
    /// The messages this turn decoded, in round-robin order, not yet handed
    /// to the node (the trace's inbox).
    ready: VecDeque<(ProcessId, M)>,
    ctx: MeshCtx,
    /// The paper's virtual self-channel: always timely, in-memory.
    self_queue: VecDeque<(ProcessId, M)>,
    timers: WallTimers,
    outputs: Vec<MeshOutput<O>>,
    faults: Option<Arc<LinkFaults>>,
    /// Read buffer shared by every inbound connection.
    chunk: Vec<u8>,
}

impl<M: Clone + Wire, O> Link<M, O> for MeshLink<M, O> {
    /// Queues `msg` toward `to` without ever blocking: self-delivery goes
    /// through the local queue, remote delivery into the peer's bounded
    /// send queue (overflow dropped and counted).
    fn send(&mut self, to: ProcessId, msg: M) {
        let to = to.index();
        let Some(peer) = &mut self.peers[to] else {
            self.self_queue.push_back((self.ctx.me, msg));
            return;
        };
        // Injected link faults sit in front of the queue: a blocked peer's
        // traffic is counted as dropped and never queued, so a heal does
        // not release a backlog of stale partition-era frames. The
        // self-channel (above) is never faultable.
        let blocked = self.faults.as_ref().is_some_and(|f| f.is_blocked(to));
        if blocked || peer.queue.len() >= OUTBOUND_CAPACITY {
            self.ctx.counters.outbound_dropped[to].inc();
            return;
        }
        peer.queue.push_back(msg);
        let depth = peer.queue.len() as u64;
        self.ctx.counters.backlog[to].set(depth);
        self.ctx.record(TraceKind::Enqueue {
            queue: queues::OUTBOUND_BASE + to as u32,
            depth,
        });
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

impl<M: Clone + Wire, O> WallClockLink<M, O> for MeshLink<M, O> {
    fn timers(&mut self) -> &mut WallTimers {
        &mut self.timers
    }

    fn pop_self(&mut self) -> Option<(ProcessId, M)> {
        self.self_queue.pop_front()
    }

    /// The next message this turn decoded; once they are all handed over,
    /// a new turn of socket I/O first.
    fn recv(&mut self, timeout: Duration) -> Option<(ProcessId, M)> {
        if self.ready.is_empty() {
            self.turn(timeout);
        }
        let got = self.ready.pop_front()?;
        self.ctx.record(TraceKind::Dequeue {
            queue: queues::INBOX,
            depth: self.ready.len() as u64,
        });
        Some(got)
    }
}

impl<M: Clone + Wire, O> MeshLink<M, O> {
    /// One turn of socket I/O: flush every peer, wait in `poll(2)`, read
    /// each ready connection once, accept, then let every connection hand
    /// over up to [`FRAMES_PER_TURN`] events, round-robin.
    fn turn(&mut self, timeout: Duration) {
        let now = Instant::now();
        let rejects = &self.ctx.counters.handshake_rejects;
        self.inbound.retain(|c| {
            let expired = c.bytes.sender.is_none() && now - c.opened >= HANDSHAKE_DEADLINE;
            if expired && !c.closed {
                rejects.inc();
            }
            !c.closed && !expired
        });
        for peer in self.peers.iter_mut().flatten() {
            peer.flush(now, &self.ctx);
        }

        // Frames left over from the last turn mean work now; otherwise sleep
        // until a socket is ready or the next timer, probe or dial is due.
        let mut wait = timeout;
        if self.inbound.iter().any(|c| !c.starved) {
            wait = Duration::ZERO;
        }
        let mut fds = Vec::with_capacity(1 + self.inbound.len() + self.peers.len());
        fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
        // One entry per inbound connection (index-aligned with `inbound`);
        // only a starved one asks to be read.
        for c in &self.inbound {
            let events = if c.starved { POLLIN } else { 0 };
            fds.push(PollFd::new(c.stream.as_raw_fd(), events));
        }
        for peer in self.peers.iter().flatten() {
            let Some(stream) = &peer.stream else {
                wait = wait.min(peer.out.next_dial.saturating_duration_since(now));
                continue;
            };
            let probe = peer.out.last_ping + self.ctx.keepalive;
            wait = wait.min(probe.saturating_duration_since(now));
            if !peer.out.unsent.is_empty() || !peer.queue.is_empty() {
                fds.push(PollFd::new(stream.as_raw_fd(), POLLOUT));
            }
        }
        poll::wait(&mut fds, wait).expect("poll(2) over the mesh's own sockets");

        for (c, fd) in self.inbound.iter_mut().zip(&fds[1..]) {
            if !c.starved || !fd.ready() {
                continue;
            }
            match c.stream.read(&mut self.chunk) {
                Ok(0) => c.closed = true,
                Ok(k) => {
                    c.bytes.feed(&self.chunk[..k]);
                    c.starved = false;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => c.closed = true,
            }
        }
        if fds[0].ready() {
            self.accept(Instant::now());
        }
        self.ctx
            .counters
            .live_connections
            .set(self.inbound.len() as u64);
        for i in 0..self.inbound.len() {
            self.drain(i);
        }
    }

    /// Takes every pending connection off the listener.
    fn accept(&mut self, now: Instant) {
        while let Ok((stream, _)) = self.listener.accept() {
            if self.inbound.len() >= MAX_CONNECTIONS {
                // Socket-exhaustion defense: refuse — and count it, so a
                // lockout is visible.
                self.ctx.counters.accept_rejects.inc();
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.inbound.push(InConn {
                stream,
                bytes: Inbound::default(),
                opened: now,
                starved: true,
                closed: false,
            });
        }
    }

    /// Acts on up to [`FRAMES_PER_TURN`] events of inbound connection `i`;
    /// its protocol messages join [`MeshLink::ready`].
    fn drain(&mut self, i: usize) {
        for _ in 0..FRAMES_PER_TURN {
            let c = &mut self.inbound[i];
            if c.closed || c.starved {
                return;
            }
            let event = match c.bytes.next::<M>(&self.ctx) {
                Ok(Some(event)) => event,
                Ok(None) => {
                    c.starved = true;
                    return;
                }
                Err(why) => {
                    c.closed = true;
                    self.ctx.counters.cut(why);
                    return;
                }
            };
            let from = c.bytes.sender.expect("events follow the handshake");
            match event {
                // Only the newest connection per sender lives, so neither
                // hello'd sockets held open nor a stale half-open one pin a
                // slot. With auth on the Hello was key-confirmed before it
                // got here: a forgery cannot evict the genuine connection.
                Event::Hello(_) => {
                    for (j, other) in self.inbound.iter_mut().enumerate() {
                        if j != i && other.bytes.sender == Some(from) {
                            other.closed = true;
                        }
                    }
                }
                // Connections are unidirectional: the echo travels over
                // this side's own connection to the pinger. Best-effort — a
                // lost pong just skips one RTT observation.
                Event::Ping(stamp) => {
                    if let Some(peer) = &mut self.peers[from.index()] {
                        if peer.stream.is_some() {
                            peer.out.pong(stamp);
                        }
                    }
                }
                Event::Pong(stamp) => {
                    let rtt = Duration::from_nanos(self.ctx.stamp().saturating_sub(stamp));
                    let ticks = self.ctx.clock.ticks_of(rtt).max(1);
                    self.ctx.counters.observe_rtt(from.index(), ticks);
                }
                Event::Msg(msg) => {
                    self.ready.push_back((from, msg));
                    self.ctx.record(TraceKind::Enqueue {
                        queue: queues::INBOX,
                        depth: self.ready.len() as u64,
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Outbound side
// ---------------------------------------------------------------------------

/// One remote peer's outbound side: the messages the node queued for it,
/// and the connection (while one is up) their frames leave on.
struct Peer<M> {
    addr: SocketAddr,
    to: ProcessId,
    queue: VecDeque<M>,
    stream: Option<TcpStream>,
    out: Outbound,
}

impl<M: Wire> Peer<M> {
    fn new(addr: SocketAddr, to: ProcessId, ctx: &MeshCtx, now: Instant) -> Self {
        let hello = match &ctx.auth {
            Some(auth) => Hello::authenticated(ctx.n as u32, auth.as_ref(), to),
            None => Hello::new(ctx.me, ctx.n as u32),
        };
        Peer {
            addr,
            to,
            queue: VecDeque::new(),
            stream: None,
            out: Outbound::new(hello.encode(), now),
        }
    }

    /// Dials if disconnected and due, then probes, coalesces the queue into
    /// the unsent bytes, and hands them to the kernel with one `write`.
    fn flush(&mut self, now: Instant, ctx: &MeshCtx) {
        let (counters, out) = (&ctx.counters, &mut self.out);
        if self.stream.is_none() {
            if now < out.next_dial {
                return;
            }
            let Ok(stream) = dial(self.addr) else {
                counters.dial_backoffs.inc();
                out.next_dial = now + out.backoff;
                out.backoff = (out.backoff * 2).min(MAX_BACKOFF);
                return;
            };
            self.stream = Some(stream);
            out.connected(now, ctx);
        }
        if out.unsent.is_empty() {
            out.progress = now;
        }
        // One probe per keepalive period, behind a keepalive frame when no
        // protocol frame went out since the last one.
        if now >= out.last_ping + ctx.keepalive {
            if !out.busy {
                out.unsent.extend_from_slice(&KEEPALIVE_FRAME);
                counters.keepalives.inc();
            }
            out.ping(now, ctx);
        }
        let to = self.to.index();
        while out.unsent.len() < COALESCE_BYTES {
            let Some(msg) = self.queue.pop_front() else {
                break;
            };
            ctx.record(TraceKind::Dequeue {
                queue: queues::OUTBOUND_BASE + to as u32,
                depth: self.queue.len() as u64,
            });
            if !out.encode(&msg, self.to, ctx) {
                // Oversized local message: unsendable, count it.
                counters.outbound_dropped[to].inc();
            }
        }
        counters.backlog[to].set(self.queue.len() as u64);
        let Some(stream) = self.stream.as_mut().filter(|_| !out.unsent.is_empty()) else {
            return;
        };
        let broken = match stream.write(&out.unsent) {
            Ok(k) => {
                if !out.ends.is_empty() {
                    counters.writes.inc();
                }
                counters.frames_written.add(out.wrote(k));
                if k > 0 {
                    out.progress = now;
                }
                false
            }
            Err(e) => e.kind() != io::ErrorKind::WouldBlock,
        };
        if broken || (!out.unsent.is_empty() && now - out.progress >= WRITE_STALL) {
            // The unsent frames are in the replay ring already; redial now.
            self.stream = None;
            out.unsent.clear();
            out.ends.clear();
            out.next_dial = now;
        }
    }
}

/// One nonblocking, unbuffered connection to `addr`.
fn dial(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// The bytes of one outbound connection, without the socket: what is due
/// on the wire next, the replay window, and the dial and probe schedule.
///
/// The protocols assume reliable channels, so a frame that dies with a
/// broken connection is a liveness hole — and TCP reports a break only on
/// a *later* write. Recent frames therefore ride a replay ring re-sent
/// after every reconnect (every layer above dedups by sender), and an idle
/// connection is probed every keepalive period, so a dead one is noticed.
struct Outbound {
    /// This side's [`Hello`] to the peer, first on every connection.
    hello: Vec<u8>,
    /// Bytes the kernel has not accepted yet, oldest first.
    unsent: Vec<u8>,
    /// Where each protocol frame queued in `unsent` ends, oldest first: a
    /// frame counts as written once a write passes its end.
    ends: VecDeque<usize>,
    replay: ReplayRing,
    connects: u64,
    backoff: Duration,
    /// Earliest next dial while disconnected.
    next_dial: Instant,
    last_ping: Instant,
    /// Protocol frames were queued since `last_ping` (an idle connection's
    /// probe rides behind a keepalive frame).
    busy: bool,
    /// Last time `unsent` was empty or a write made progress.
    progress: Instant,
}

impl Outbound {
    fn new(hello: Vec<u8>, now: Instant) -> Self {
        Outbound {
            hello,
            unsent: Vec::new(),
            ends: VecDeque::new(),
            replay: ReplayRing::new(REPLAY_BYTES),
            connects: 0,
            backoff: INITIAL_BACKOFF,
            next_dial: now,
            last_ping: now,
            busy: false,
            progress: now,
        }
    }

    /// A connection came up: the hello, the replay window, and an RTT
    /// probe right away — without it a link that lives shorter than one
    /// keepalive period is never measured.
    fn connected(&mut self, now: Instant, ctx: &MeshCtx) {
        self.connects += 1;
        if self.connects > 1 {
            ctx.counters.reconnects.inc();
        }
        self.backoff = INITIAL_BACKOFF;
        self.unsent.clear();
        self.unsent.extend_from_slice(&self.hello);
        let (older, newer) = self.replay.as_slices();
        self.unsent.extend_from_slice(older);
        self.unsent.extend_from_slice(newer);
        self.ends.clear();
        self.ping(now, ctx);
    }

    /// The kernel accepted the first `k` unsent bytes: drops them and
    /// returns how many protocol frames they completed — a frame split by a
    /// partial write counts once its last byte is out.
    fn wrote(&mut self, k: usize) -> u64 {
        self.unsent.drain(..k);
        let done = self.ends.iter().take_while(|&&end| end <= k).count();
        self.ends.drain(..done);
        for end in &mut self.ends {
            *end -= k;
        }
        done as u64
    }

    /// Appends an RTT probe.
    fn ping(&mut self, now: Instant, ctx: &MeshCtx) {
        self.unsent
            .extend_from_slice(&control_frame(PING_TAG, ctx.stamp()));
        ctx.counters.pings.inc();
        self.last_ping = now;
        self.busy = false;
    }

    /// Echoes a peer's RTT probe (never replayed); skipped while a full
    /// burst waits, so a ping flood cannot grow the buffer.
    fn pong(&mut self, stamp: u64) {
        if self.unsent.len() < COALESCE_BYTES {
            self.unsent
                .extend_from_slice(&control_frame(PONG_TAG, stamp));
        }
    }

    /// Appends `msg`'s frame (MAC'd when the mesh authenticates), stamping
    /// its codec time when tracing. `false` for an unsendable (oversized)
    /// message, which leaves the bytes as they were.
    fn encode<M: Wire>(&mut self, msg: &M, to: ProcessId, ctx: &MeshCtx) -> bool {
        let start = self.unsent.len();
        let encode = |buf: &mut Vec<u8>| match &ctx.auth {
            Some(auth) => encode_frame_tagged(msg, buf, MAX_FRAME, auth.as_ref(), to),
            None => encode_frame(msg, buf, MAX_FRAME),
        };
        // Untraced runs call the plain codec — the timing probe costs two
        // clock reads per frame, paid only when someone will look.
        let encoded = match &ctx.trace {
            Some(_) => {
                let t0 = Instant::now();
                let res = encode(&mut self.unsent);
                ctx.record(TraceKind::FrameEncoded {
                    bytes: (self.unsent.len() - start) as u64,
                    nanos: t0.elapsed().as_nanos() as u64,
                });
                res
            }
            None => encode(&mut self.unsent),
        };
        if encoded.is_err() {
            return false;
        }
        // Into the ring *before* the write: a failed write is then a
        // retransmission matter, not a loss. Frames evicted past the byte
        // budget may or may not have been delivered — they are not counted
        // as drops, the ring is a best-effort replay window.
        self.replay.push(&self.unsent[start..]);
        self.ends.push_back(self.unsent.len());
        self.busy = true;
        true
    }
}

/// A connection's replay window: its most recent protocol frames, as one
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

// ---------------------------------------------------------------------------
// Inbound side
// ---------------------------------------------------------------------------

/// An inbound connection: its socket and its bytes.
struct InConn {
    stream: TcpStream,
    bytes: Inbound,
    opened: Instant,
    /// Yields nothing more until more bytes arrive.
    starved: bool,
    /// Cut, superseded or closed by the peer: reaped next turn.
    closed: bool,
}

/// What an inbound connection yields.
#[derive(Debug, PartialEq)]
enum Event<M> {
    /// The handshake passed: every later event is from this sender.
    Hello(ProcessId),
    /// A protocol message.
    Msg(M),
    /// The peer's RTT probe, owed an echo.
    Ping(u64),
    /// The echo of one of this side's probes.
    Pong(u64),
}

/// Why an inbound connection is cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cut {
    /// Foreign protocol, incompatible version, wrong cluster, or an
    /// out-of-range or self-claiming sender id.
    Handshake,
    /// A handshake tag or frame MAC that does not verify.
    Auth,
    /// Undecodable bytes or an oversized frame announcement.
    Decode,
}

/// The bytes of one inbound connection, without the socket: a [`Hello`]
/// first, then frames, each checked before the codec sees it.
///
/// The buffer stays bounded by one frame plus one read: the shell feeds
/// bytes only once [`Inbound::next`] asked for more, and a peer announcing
/// an oversized frame is cut at the header, before any payload is kept.
#[derive(Default)]
struct Inbound {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed.
    at: usize,
    /// The sender, once the handshake passed.
    sender: Option<ProcessId>,
}

impl Inbound {
    /// Appends bytes read off the socket.
    fn feed(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.at);
        self.at = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// The next event the buffered bytes complete; `Ok(None)` until more
    /// bytes arrive.
    fn next<M: Wire>(&mut self, ctx: &MeshCtx) -> Result<Option<Event<M>>, Cut> {
        let Some(from) = self.sender else {
            // A foreign protocol is cut the moment its prefix diverges
            // from the magic, without waiting for a full Hello.
            let k = self.buf.len().min(MAGIC.len());
            if self.buf[..k] != MAGIC[..k] {
                return Err(Cut::Handshake);
            }
            if self.buf.len() < HELLO_LEN {
                return Ok(None);
            }
            let hello = Hello::decode(&mut self.buf.as_slice()).map_err(|_| Cut::Handshake)?;
            let sender = hello.sender;
            if hello.n as usize != ctx.n || sender.index() >= ctx.n || sender == ctx.me {
                return Err(Cut::Handshake);
            }
            if let Some(auth) = &ctx.auth {
                if !hello.verify_auth(auth.as_ref()) {
                    return Err(Cut::Auth);
                }
            }
            self.sender = Some(sender);
            self.at = HELLO_LEN;
            return Ok(Some(Event::Hello(sender)));
        };
        loop {
            let split = split_frame(&self.buf[self.at..], ctx.read_cap);
            let Some((payload, used)) = split.map_err(|_| Cut::Decode)? else {
                return Ok(None);
            };
            self.at += used;
            if payload.is_empty() {
                // Idle keepalive probe: liveness only. It is skipped before
                // MAC verification — it has no payload, so forging one
                // achieves nothing.
                continue;
            }
            // RTT plumbing, recognized (like keepalives) before MAC
            // verification: control frames carry no protocol data, so the
            // worst a forgery can do is nudge a health gauge.
            if let Some((tag, stamp)) = split_control(payload) {
                return Ok(Some(if tag == PING_TAG {
                    Event::Ping(stamp)
                } else {
                    Event::Pong(stamp)
                }));
            }
            // The MAC is checked before any byte reaches the codec: forged
            // frames are cut without giving the decoder attacker-controlled
            // input.
            let body = match &ctx.auth {
                Some(auth) => {
                    verify_frame_tag(payload, auth.as_ref(), from).map_err(|_| Cut::Auth)?
                }
                None => payload,
            };
            let decoded = match &ctx.trace {
                Some(_) => {
                    let (res, nanos) = decode_frame_timed::<M>(body);
                    ctx.record(TraceKind::FrameDecoded {
                        bytes: body.len() as u64,
                        nanos,
                    });
                    res
                }
                None => decode_frame::<M>(body),
            };
            return decoded
                .map(|msg| Some(Event::Msg(msg)))
                .map_err(|_| Cut::Decode);
        }
    }
}

#[cfg(test)]
mod tests {
    use minsync_auth::HmacAuthenticator;
    use minsync_wire::WIRE_VERSION;

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

    /// `frames_written` follows partial writes: a frame counts once the
    /// write that carries its last byte lands — not when the whole queue
    /// drains, and never for the hello, replay or probe bytes around it.
    #[test]
    fn partial_writes_retire_the_frames_they_complete() {
        let ctx = ctx(None);
        let now = Instant::now();
        let mut out = Outbound::new(b"hello".to_vec(), now);
        out.connected(now, &ctx);
        for msg in 0..4u64 {
            assert!(out.encode(&msg, ProcessId::new(1), &ctx));
        }
        out.pong(7);
        let total = out.unsent.len();
        let ends = Vec::from(out.ends.clone());
        assert_eq!(out.wrote(0), 0, "nothing written");
        assert_eq!(
            out.wrote(ends[0] - 1),
            0,
            "hello, ping and all but one byte of frame 0"
        );
        assert_eq!(
            out.wrote(1),
            1,
            "frame 0's last byte, ending on its boundary"
        );
        assert_eq!(
            out.wrote(ends[2] + 1 - ends[0]),
            2,
            "frames 1 and 2 and the first byte of frame 3 at once"
        );
        assert_eq!(out.unsent.len(), total - ends[2] - 1);
        assert_eq!(out.wrote(out.unsent.len()), 1, "frame 3 and the pong");
        assert!(out.unsent.is_empty() && out.ends.is_empty());
    }

    /// Process 0's view of a 4-process cluster, MAC'd or open.
    fn ctx(auth: Option<HmacAuthenticator>) -> MeshCtx {
        let config = MeshConfig {
            auth: auth.map(|a| Arc::new(a) as Arc<dyn Authenticator>),
            ..MeshConfig::default()
        };
        let clock = WallClock::new(Instant::now(), config.tick);
        MeshCtx::new(ProcessId::new(0), 4, &config, clock)
    }

    /// Feeds `bytes` one at a time, taking every event each byte
    /// completes; stops at the first cut.
    fn drip(ctx: &MeshCtx, bytes: &[u8]) -> (Vec<Event<u64>>, Option<Cut>) {
        let mut conn = Inbound::default();
        let mut events = Vec::new();
        for &b in bytes {
            conn.feed(&[b]);
            loop {
                match conn.next::<u64>(ctx) {
                    Ok(Some(event)) => events.push(event),
                    Ok(None) => break,
                    Err(why) => return (events, Some(why)),
                }
            }
        }
        (events, None)
    }

    /// Hostile and benign byte streams, dripped one byte at a time into
    /// the inbound state: each yields exactly its events, then its cut.
    #[test]
    fn inbound_bytes_yield_events_and_cuts_one_byte_at_a_time() {
        let keys = HmacAuthenticator::deal(b"mesh-inbound-table", 4);
        let (open, macd) = (ctx(None), ctx(Some(keys[0].clone())));
        let p1 = ProcessId::new(1);
        let hello = Hello::new(p1, 4).encode();
        let cat = |parts: &[&[u8]]| parts.concat();
        let plain = |v: u64| {
            let mut f = Vec::new();
            encode_frame(&v, &mut f, MAX_FRAME).unwrap();
            f
        };
        let tagged = |v: u64| {
            let mut f = Vec::new();
            encode_frame_tagged(&v, &mut f, MAX_FRAME, &keys[1], ProcessId::new(0)).unwrap();
            f
        };
        let genuine = Hello::authenticated(4, &keys[1], ProcessId::new(0)).encode();
        let mut forged_frame = tagged(7);
        *forged_frame.last_mut().unwrap() ^= 1;
        let mut future = hello.clone();
        future[4..6].copy_from_slice(&(WIRE_VERSION + 1).to_le_bytes());
        let ping = control_frame(PING_TAG, 5);
        let pong = control_frame(PONG_TAG, 9);

        type Case<'a> = (&'a str, &'a MeshCtx, Vec<u8>, Vec<Event<u64>>, Option<Cut>);
        let cases: Vec<Case> = vec![
            (
                "bad magic",
                &open,
                b"GET / HTTP/1.1\r\n".to_vec(),
                vec![],
                Some(Cut::Handshake),
            ),
            (
                "future version",
                &open,
                future,
                vec![],
                Some(Cut::Handshake),
            ),
            (
                "wrong n",
                &open,
                Hello::new(p1, 9).encode(),
                vec![],
                Some(Cut::Handshake),
            ),
            (
                "self-claim",
                &open,
                Hello::new(ProcessId::new(0), 4).encode(),
                vec![],
                Some(Cut::Handshake),
            ),
            (
                "out-of-range sender",
                &open,
                Hello::new(ProcessId::new(4), 4).encode(),
                vec![],
                Some(Cut::Handshake),
            ),
            (
                "oversized header",
                &open,
                cat(&[&hello, &u32::MAX.to_le_bytes()]),
                vec![Event::Hello(p1)],
                Some(Cut::Decode),
            ),
            (
                "trailing byte",
                &open,
                cat(&[&hello, &9u32.to_le_bytes(), &[0xFF; 9]]),
                vec![Event::Hello(p1)],
                Some(Cut::Decode),
            ),
            (
                "ping and pong between frames",
                &open,
                cat(&[&hello, &plain(7), &ping, &KEEPALIVE_FRAME, &pong, &plain(8)]),
                vec![
                    Event::Hello(p1),
                    Event::Msg(7),
                    Event::Ping(5),
                    Event::Pong(9),
                    Event::Msg(8),
                ],
                None,
            ),
            (
                "unconfirmed hello",
                &macd,
                hello.clone(),
                vec![],
                Some(Cut::Auth),
            ),
            (
                "forged frame MAC",
                &macd,
                cat(&[&genuine, &tagged(6), &forged_frame]),
                vec![Event::Hello(p1), Event::Msg(6)],
                Some(Cut::Auth),
            ),
            (
                "untagged frame",
                &macd,
                cat(&[&genuine, &plain(7)]),
                vec![Event::Hello(p1)],
                Some(Cut::Auth),
            ),
        ];
        for (name, ctx, bytes, events, cut) in cases {
            assert_eq!(drip(ctx, &bytes), (events, cut), "{name}");
        }
    }
}
