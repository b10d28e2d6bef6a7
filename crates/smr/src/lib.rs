//! State-machine replication on top of the paper's consensus: a pipeline of
//! independent consensus instances, one per log slot, with commit
//! acknowledgements, log garbage collection, and checkpoint catch-up.
//!
//! This is the application the paper's introduction motivates — and the
//! standard way a single-shot consensus object is consumed downstream. Each
//! [`ReplicaNode`] runs one [`ConsensusNode`] per slot behind a
//! slot-stamping adapter.
//!
//! **Value flow: agree on digests, ship each payload once.** A slot's
//! instance never sees the proposal `V`; it runs Figures 1–4 unmodified
//! over the proposal's 32-byte SHA-256 [`Digest`]. The proposal itself
//! crosses the network once per proposer: starting slot `s`, a replica
//! sends [`SmrMsg::Payload`] to each of the `n − 1` others (ahead of its
//! first consensus message), keeps its own copy, and proposes the digest.
//! A replica commits slot `s` when its instance has decided `d` **and** it
//! holds a payload whose digest is `d`. So a decision costs
//! O(n·|v| + n³·|h|) bytes where carrying `V` in every message cost
//! O(n³·|v|). Why that is safe — CONS-Validity over digests makes `d` some
//! *correct* replica's proposal, and that replica sent its payload to
//! everyone over reliable channels — is DESIGN.md §6. When every correct
//! replica proposes the same batch (one routing group) the decided payload
//! is the replica's own and is held at decide time; with several
//! proposals a losing proposer that decides first parks the decision
//! ([`ReplicaNode::payload_waits`]), keeps servicing reliable broadcast,
//! and commits when the payload lands.
//!
//! * slot `s + 1` starts locally once slot `s` commits (pipelined, not
//!   lock-stepped: different replicas may be several slots apart), subject
//!   to the flow-control window of [`SmrLimits`];
//! * messages for slots a replica has not reached yet are buffered and
//!   replayed on entry — up to the caps of [`SmrLimits`], so a Byzantine
//!   flooder cannot grow memory without bound (overflow is counted in
//!   [`ReplicaNode::future_drops`]). Both bounds are in bytes, not just
//!   entries: a buffered message is a fixed-size `ProtocolMsg<Digest>`,
//!   and payloads sit in per-sender cells — at most one per (slot within
//!   the horizon, sender), first one wins — so a flooder can displace
//!   nobody's payload;
//! * on commit a replica broadcasts [`SmrMsg::Ack`] — acks are
//!   **cumulative** (one floor per peer, O(n) ack state; a lost ack is
//!   repaired by any later one). Decided consensus instances are dropped
//!   as soon as an `n − t` quorum acked past them; once **all** `n`
//!   replicas acked a slot it is fully *retired* — its committed value and
//!   bookkeeping are dropped too and traffic for it is refused
//!   ([`ReplicaNode::retired_drops`]), announced via [`SmrEvent::Retired`].
//!   On all-correct runs live state therefore stays flat indefinitely. A
//!   replica that never acks (crashed, or Byzantine-silent) holds *value*
//!   retirement back — `recent` values then grow one per slot (instances
//!   and buffers stay bounded regardless) — which is inherent to "retire
//!   only what no correct replica can still need";
//! * laggards catch up in two ways: instances not yet past the quorum-ack
//!   floor still service reliable broadcast (RB-Termination-2 per slot),
//!   and committed replicas answer a laggard's slot traffic with
//!   [`SmrMsg::Checkpoint`] — which carries the value itself; `t + 1`
//!   matching checkpoints carry at least one correct sender, so the
//!   laggard may commit the certified value directly even if its buffers
//!   dropped the original protocol traffic or the payload (checkpoints
//!   double as acks from their sender). That is the only catch-up path,
//!   it needs no signatures and no pull message (DESIGN.md §5, §6).
//!
//! Proposals come from a [`ProposalSource`]: the application-supplied rule
//! for what a replica proposes in each slot. Sources are *batching* by
//! design: a value `V` may be a whole batch of client commands (see the
//! `minsync-workload` crate), amortizing one consensus instance over many
//! commands. **Feasibility caveat** — the paper's consensus is m-valued:
//! across the *correct* replicas, each slot may see at most
//! `⌊(n − t − 1)/t⌋` distinct proposals. Sources must derive their proposal
//! deterministically from the commit stream (which [`ProposalSource`]'s
//! contract makes natural), so that replicas sharing a command partition
//! propose identical values.
//!
//! ```rust
//! use minsync_net::{sim::SimBuilder, NetworkTopology};
//! use minsync_smr::{commits, committed_count, ReplicaNode, TwoClientSource};
//! use minsync_types::{check, ProcessId, SystemConfig};
//! use minsync_core::ConsensusConfig;
//!
//! # fn main() -> Result<(), minsync_types::ConfigError> {
//! let system = SystemConfig::new(4, 1)?;
//! let cfg = ConsensusConfig::paper(system);
//! let mut builder = SimBuilder::new(NetworkTopology::all_timely(4, 3)).seed(7);
//! for i in 0..4 {
//!     builder = builder.node(ReplicaNode::new(cfg, TwoClientSource::new(1 + (i as u64 % 2)), 4));
//! }
//! let mut sim = builder.build();
//! let report = sim.run_until(|outs| {
//!     (0..4).all(|p| committed_count(outs, ProcessId::new(p)) >= 4)
//! });
//! assert!(check::prefix(commits(&report.outputs)).is_empty(), "replicated logs agree");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::Arc;

pub use minsync_auth::Digest;
use minsync_core::{ConsensusConfig, ConsensusEvent, ConsensusNode, ProtocolMsg};
use minsync_net::sim::OutputRecord;
use minsync_net::{Effect, Env, Node, TimerId};
use minsync_telemetry::trace::{TraceKind, TraceRecorder};
use minsync_telemetry::{watch_name, Counter, Gauge, Registry};
use minsync_types::{Fnv1a, ProcSet, ProcessId, Tally, Value};

/// Live health gauges exported under the `watch.p<id>.*` naming contract
/// consumed by [`minsync_telemetry::watchdog`] (see
/// [`ReplicaNode::with_watch`]), plus the running commit-prefix digest
/// behind the `ckpt_digest` gauge.
struct WatchGauges {
    commit_floor: Gauge,
    ack_floor: Gauge,
    committed_cmds: Gauge,
    ckpt_slot: Gauge,
    ckpt_digest: Gauge,
    /// FNV-1a fold of every committed `(slot, Digest::of(value))`, in
    /// commit order — two replicas expose equal digests at equal floors
    /// iff their committed prefixes are identical.
    digest: Fnv1a,
}

impl WatchGauges {
    /// Folds one commit into the digest and publishes the new floor.
    /// `value` is the digest the slot committed under — the one consensus
    /// agreed on — so the gauge costs no second hash of the batch.
    fn on_commit(&mut self, slot: u64, value: Digest) {
        self.digest.write_u64(slot);
        self.digest.write(&value.0);
        self.commit_floor.set(slot);
        self.committed_cmds.set(slot);
        self.ckpt_slot.set(slot);
        self.ckpt_digest.set(self.digest.finish());
    }
}

/// Replica-to-replica traffic: slot-stamped consensus messages plus the GC
/// and catch-up control plane.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SmrMsg<V> {
    /// Consensus traffic for log slot `slot` (1-based). The instance
    /// agrees on the [`Digest`] of a proposal, never on the proposal: the
    /// ≈ 14·n³ messages of a decision are fixed-size whatever `V` is.
    Slot {
        /// The slot the wrapped message belongs to.
        slot: u64,
        /// The wrapped consensus-protocol message.
        msg: ProtocolMsg<Digest>,
    },
    /// "I committed every slot up to and including `slot`": broadcast by
    /// every replica on commit. Acks are **cumulative** (commits are in
    /// slot order), so receivers keep one floor per peer and any later ack
    /// repairs earlier lost ones. Once the minimum floor over **all** `n`
    /// replicas passes a slot (everyone committed — no correct process can
    /// ever need its traffic again) the slot is retired.
    Ack {
        /// The highest committed slot.
        slot: u64,
    },
    /// Catch-up state transfer: "slot `slot` decided `value`". Sent by a
    /// committed replica when it sees slot traffic from a peer that has not
    /// acked the slot. `t + 1` matching checkpoints contain at least one
    /// correct sender, so the receiver may commit `value` directly.
    Checkpoint {
        /// The decided slot.
        slot: u64,
        /// Its decided value.
        value: V,
    },
    /// "My proposal for slot `slot` is `value`": sent once by every
    /// proposer to each other replica, ahead of its first consensus
    /// message for the slot. The only slot-path message that carries a
    /// `V`; a replica commits a slot once its instance decided `d` and it
    /// holds a payload whose digest is `d`.
    Payload {
        /// The slot proposed for.
        slot: u64,
        /// The sender's proposal.
        value: V,
    },
}

impl<V> SmrMsg<V> {
    /// Classifier for [`minsync_net::sim::SimBuilder::classify`]: the
    /// wrapped protocol kind for slot traffic, `"SMR_PAYLOAD"` for
    /// proposal dissemination, `"SMR_ACK"` / `"SMR_CKPT"` for the control
    /// plane.
    pub fn classify(msg: &SmrMsg<V>) -> &'static str {
        match msg {
            SmrMsg::Slot { msg, .. } => msg.kind(),
            SmrMsg::Ack { .. } => "SMR_ACK",
            SmrMsg::Checkpoint { .. } => "SMR_CKPT",
            SmrMsg::Payload { .. } => "SMR_PAYLOAD",
        }
    }
}

/// Observable output of a replica.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SmrEvent<V> {
    /// Slot `slot` committed `command` at this replica.
    Committed {
        /// 1-based log slot.
        slot: u64,
        /// The decided value (a whole batch of client commands under a
        /// batching source).
        command: V,
    },
    /// Garbage collection progressed: slots `1..=through` are retired at
    /// this replica (instances, ack sets, and values dropped; traffic for
    /// them refused).
    Retired {
        /// New retirement floor.
        through: u64,
    },
}

impl<V> SmrEvent<V> {
    /// The committed `(slot, value)` if this is a commit event.
    pub fn as_committed(&self) -> Option<(u64, &V)> {
        match self {
            SmrEvent::Committed { slot, command } => Some((*slot, command)),
            SmrEvent::Retired { .. } => None,
        }
    }
}

/// Application rule deciding what a replica proposes for each slot.
///
/// The contract is commit-driven, which is what makes **batching** sources
/// natural and lets the replica garbage-collect its log:
///
/// * [`ProposalSource::on_commit`] is called exactly once per slot, in slot
///   order, with the decided value — the source folds the commit stream
///   into whatever state it needs (cursors into command queues, per-client
///   sequence numbers, …). The replica does **not** retain the committed
///   prefix for the source, so sources cannot re-read old slots.
/// * [`ProposalSource::propose`] is called exactly once per slot, in slot
///   order, after every earlier slot's `on_commit`. The returned value may
///   be a batch of many pending commands.
///
/// Implementations must keep the per-slot proposal diversity across correct
/// replicas within the m-valued feasibility bound (see crate docs): a
/// source's proposal should be a deterministic function of the commit
/// stream shared by every replica serving the same command partition.
pub trait ProposalSource<V>: Send {
    /// The proposal for `slot` (1-based).
    fn propose(&mut self, slot: u64) -> V;

    /// Notification that `slot` committed `value` (called in slot order,
    /// before any later [`ProposalSource::propose`]).
    fn on_commit(&mut self, slot: u64, value: &V);
}

/// Stateless closures are proposal sources that ignore the commit stream.
impl<V, F> ProposalSource<V> for F
where
    F: FnMut(u64) -> V + Send,
{
    fn propose(&mut self, slot: u64) -> V {
        self(slot)
    }

    fn on_commit(&mut self, _slot: u64, _value: &V) {}
}

/// A canonical feasibility-safe source: two client command streams
/// (commands encoded `client·1000 + seq`), each replica pushing one
/// client's next command — at most two distinct proposals per slot.
#[derive(Clone, Debug)]
pub struct TwoClientSource {
    preferred_client: u64,
    next_seq: u64,
}

impl TwoClientSource {
    /// Creates a source pushing `preferred_client`'s stream (1 or 2).
    ///
    /// # Panics
    ///
    /// Panics unless `preferred_client` is 1 or 2.
    pub fn new(preferred_client: u64) -> Self {
        assert!(
            preferred_client == 1 || preferred_client == 2,
            "two-client source serves clients 1 and 2"
        );
        TwoClientSource {
            preferred_client,
            next_seq: 0,
        }
    }

    /// Encodes a command.
    pub fn command(client: u64, seq: u64) -> u64 {
        client * 1000 + seq
    }

    /// The client of an encoded command.
    pub fn client_of(cmd: u64) -> u64 {
        cmd / 1000
    }
}

impl ProposalSource<u64> for TwoClientSource {
    fn propose(&mut self, _slot: u64) -> u64 {
        Self::command(self.preferred_client, self.next_seq)
    }

    fn on_commit(&mut self, _slot: u64, value: &u64) {
        // A commit of the preferred client's pending command advances its
        // stream; other clients' commits don't.
        if Self::client_of(*value) == self.preferred_client {
            self.next_seq += 1;
        }
    }
}

/// Resource bounds of one [`ReplicaNode`]: how far the pipeline may run
/// ahead and how much future-slot traffic may be buffered.
///
/// Both buffers are bounded in **bytes**, not just in entries:
///
/// * a buffered future-slot message is a `ProtocolMsg<Digest>` — fixed
///   size (a few dozen bytes) whatever `V` is — so [`Self::max_buffered`]
///   messages are at most `max_buffered × size_of::<ProtocolMsg<Digest>>()`
///   bytes;
/// * proposals ([`SmrMsg::Payload`], the one slot-path message that
///   carries a `V`) are held in per-sender cells outside that buffer: at
///   most one per (slot, sender), for slots in
///   `(committed, committed + 1 + future_horizon]` only, freed when the
///   slot commits — at most `n × (future_horizon + 1)` values, each at
///   most the substrate's frame cap. A sender's second payload for a slot
///   is ignored, so a flooder can displace nobody's payload, its own
///   included.
///
/// The defaults are generous enough that honest traffic is never dropped in
/// practice; shrink them in tests to exercise the drop paths. Even when a
/// bound is hit and honest traffic is discarded, liveness is preserved by
/// the [`SmrMsg::Checkpoint`] catch-up path.
#[derive(Clone, Copy, Debug)]
pub struct SmrLimits {
    /// Flow control: a replica does not start slot `s` until
    /// `s ≤ quorum_floor + window`, where `quorum_floor` is the highest
    /// in-order slot acked by `n − t` replicas. Bounds how far a fast
    /// replica can outrun the slowest quorum (and hence how much the
    /// others must buffer for it).
    pub window: u64,
    /// Messages and payloads for slots beyond `committed + 1 + horizon`
    /// are dropped — a flooder cannot reserve buffer space arbitrarily far
    /// in the future. Should comfortably exceed `window`.
    pub future_horizon: u64,
    /// Total cap on buffered future-slot messages across all slots
    /// (payloads are bounded separately, per sender — see above).
    pub max_buffered: usize,
    /// Checkpoint-retry period in ticks; `0` (the default) disables it.
    ///
    /// Checkpoint replies are rate-limited to once per peer per slot
    /// (`ckpt_sent`) so Byzantine slot-traffic cannot amplify into reply
    /// storms — but on a lossy link that single reply can be dropped,
    /// permanently wedging a laggard the rate limit now refuses to serve
    /// again. With a nonzero period the replica arms a recurring timer
    /// that clears the served-checkpoint marks, re-broadcasts its own
    /// cumulative ack floor, *pushes* one checkpoint per period to every
    /// peer whose floor trails (a quiescent rejoiner cannot be relied on
    /// to ask), and re-sends its head-of-line slot's own
    /// [`SmrMsg::Payload`] and every message that slot's consensus
    /// instance has broadcast so far (loss can wedge the next slot at
    /// **all** replicas at once — no one committed it, so there is no
    /// checkpoint to push; sub-protocol state and payload cells are keyed
    /// by sender, so the duplicates are no-ops). Amplification stays
    /// bounded: at most one reply per peer per slot per period, and one
    /// head-of-line replay per period. Enable this on lossy substrates
    /// (real sockets under fault injection, drop-oracle simulations); the
    /// default stays off so loss-free runs keep their recorded golden
    /// traces.
    pub ckpt_retry: u64,
}

impl Default for SmrLimits {
    fn default() -> Self {
        SmrLimits {
            window: 64,
            future_horizon: 128,
            max_buffered: 65_536,
            ckpt_retry: 0,
        }
    }
}

/// A write-ahead hook invoked synchronously on every commit (see
/// [`ReplicaNode::with_commit_log`]).
type CommitLog<V> = Box<dyn FnMut(u64, &V) + Send>;

/// One held proposal: who sent it, its digest, the value.
type PayloadCell<V> = (ProcessId, Digest, V);

/// Sends `value` as this replica's proposal for `slot` to each of the
/// `n − 1` other replicas.
fn send_payload<V: Value>(env: &mut Env<SmrMsg<V>, SmrEvent<V>>, slot: u64, value: &V) {
    let me = env.me();
    for p in (0..env.n()).map(ProcessId::new).filter(|p| *p != me) {
        env.send(
            p,
            SmrMsg::Payload {
                slot,
                value: value.clone(),
            },
        );
    }
}

/// The digest of `value`, taken from a cell already holding an equal value
/// when there is one: with one routing group every replica proposes the
/// same batch, so each replica hashes it once per slot — on whichever copy
/// it sees first — and compares the rest.
fn digest_among<V: Value>(cells: &[PayloadCell<V>], value: &V) -> Digest {
    cells
        .iter()
        .find(|(_, _, held)| held == value)
        .map_or_else(|| Digest::of(value), |(_, digest, _)| *digest)
}

/// One replica: a pipeline of consensus instances, one per log slot, plus
/// the ack/retire/checkpoint control plane described in the crate docs.
///
/// Slot instances run on a shared *child environment*: the replica drains
/// each instance's effect stream, stamps outgoing messages with the slot,
/// and maps freshly armed timers back to their slot — sans-io composition
/// with no context shims.
pub struct ReplicaNode<V, P> {
    cfg: ConsensusConfig,
    source: P,
    target_slots: u64,
    limits: SmrLimits,
    /// Highest started slot (slots start in order; the active, undecided
    /// instance is always slot `committed + 1` when `started > committed`).
    started: u64,
    /// Slots `1..=committed` are committed (commits are in slot order).
    committed: u64,
    /// Slots `1..=low_water` are retired (fully garbage-collected).
    low_water: u64,
    /// Highest slot acked by an `n − t` quorum — the `(n − t)`-th largest
    /// ack floor (flow control, and the instance-drop threshold).
    quorum_floor: u64,
    /// Live instances: the active slot plus decided slots not yet past the
    /// quorum-ack floor. Decided instances keep servicing reliable
    /// broadcast until an `n − t` quorum acked them; beyond that laggards
    /// are caught up via checkpoints, so the instances are dropped.
    instances: BTreeMap<u64, ConsensusNode<Digest>>,
    /// Committed-but-unretired values, kept for checkpoint replies.
    recent: BTreeMap<u64, V>,
    /// Buffered messages for not-yet-started slots.
    pending: BTreeMap<u64, Vec<(ProcessId, ProtocolMsg<Digest>)>>,
    /// Proposals held for uncommitted slots, one cell per sender (this
    /// replica's own included) with the digest it was proposed under. Bounded
    /// per sender (see [`SmrLimits`]); a slot's cells are freed on commit.
    payloads: BTreeMap<u64, Vec<PayloadCell<V>>>,
    /// `(slot, d)`: slot `committed + 1`'s instance decided `d` before a
    /// payload with that digest was held. The instance keeps servicing
    /// reliable broadcast; the commit happens on the matching
    /// [`SmrMsg::Payload`] or on `t + 1` checkpoints, whichever is first.
    parked: Option<(u64, Digest)>,
    /// Total buffered message count (the `max_buffered` gauge).
    buffered: usize,
    /// Per-peer **cumulative** ack floors: `ack_floors[p] = f` means `p`
    /// announced it committed every slot `≤ f`. O(n) total ack state, and
    /// a lost ack is repaired by any later one.
    ack_floors: Vec<u64>,
    /// Decided instances for slots `≤ min(quorum_floor, committed)` are
    /// dropped (laggards catch up via checkpoints); this floor tracks how
    /// far that has progressed.
    instance_floor: u64,
    /// Scratch buffer for the quorum-floor order statistic (no per-ack
    /// allocation).
    floor_scratch: Vec<u64>,
    /// Checkpoint-reply rate limit: peers already served, per slot.
    ckpt_sent: BTreeMap<u64, ProcSet>,
    /// Checkpoint votes per claimed value for slot `committed + 1`, one
    /// per sender.
    ckpt_votes: Tally<V>,
    /// Future-slot traffic dropped by the horizon/buffer caps.
    future_drops: u64,
    /// Traffic for retired slots refused.
    retired_drops: u64,
    /// Slots whose instance decided before the decided payload was held.
    payload_waits: u64,
    /// Payloads for the parked slot whose digest was not the decided one.
    payload_mismatch: u64,
    /// Telemetry mirrors of the drop counters, for substrates that consume
    /// the node by value (the TCP mesh moves it into its run loop, so
    /// `minsync-node` can no longer ask the replica itself after the run).
    /// Detached no-op handles until [`ReplicaNode::with_registry`] interns
    /// them in a shared registry.
    ctr_future_drops: Counter,
    ctr_retired_drops: Counter,
    ctr_payload_waits: Counter,
    ctr_payload_mismatch: Counter,
    /// Live health gauges (see [`ReplicaNode::with_watch`]); `None` keeps
    /// the hot path untouched.
    watch: Option<WatchGauges>,
    /// Stage-trace hook (see [`ReplicaNode::with_trace`]): records when
    /// slots are proposed, committed, and covered by an ack quorum.
    trace: Option<Arc<TraceRecorder>>,
    /// Crash-recovered committed prefix (slots `1..=len`), replayed into
    /// replica state and the output stream on start.
    recovered: Vec<V>,
    /// Write-ahead hook invoked synchronously on every commit, before the
    /// ack leaves the replica (see [`ReplicaNode::with_commit_log`]).
    commit_log: Option<CommitLog<V>>,
    /// The recurring lossy-link catch-up timer ([`SmrLimits::ckpt_retry`]);
    /// `None` when disabled.
    ckpt_retry_timer: Option<TimerId>,
    /// Every broadcast each in-flight slot instance has made, recorded
    /// only while `ckpt_retry` is enabled: the retry timer re-broadcasts
    /// the head-of-line slot's messages so a consensus instance wedged by
    /// message loss (the paper assumes reliable channels; dropped frames
    /// are a stronger adversary) eventually re-offers every peer its
    /// missing pieces. An entry is dropped when its slot commits, so the
    /// memory held is bounded by the instances still in flight.
    outbox: BTreeMap<u64, Vec<ProtocolMsg<Digest>>>,
    timer_slots: BTreeMap<TimerId, u64>,
    /// Child environment all slot instances run on (created lazily on
    /// first drive; seed irrelevant — slot instances are deterministic and
    /// never draw randomness).
    slot_env: Option<Env<ProtocolMsg<Digest>, ConsensusEvent<Digest>>>,
}

impl<V: Value, P: ProposalSource<V>> ReplicaNode<V, P> {
    /// Creates a replica that fills `target_slots` log slots, with default
    /// [`SmrLimits`].
    ///
    /// # Panics
    ///
    /// Panics if `target_slots == 0`.
    pub fn new(cfg: ConsensusConfig, source: P, target_slots: u64) -> Self {
        assert!(target_slots > 0, "need at least one slot");
        let n = cfg.system.n();
        ReplicaNode {
            cfg,
            source,
            target_slots,
            limits: SmrLimits::default(),
            started: 0,
            committed: 0,
            low_water: 0,
            quorum_floor: 0,
            instances: BTreeMap::new(),
            recent: BTreeMap::new(),
            pending: BTreeMap::new(),
            payloads: BTreeMap::new(),
            parked: None,
            buffered: 0,
            ack_floors: vec![0; n],
            instance_floor: 0,
            floor_scratch: Vec::with_capacity(n),
            ckpt_sent: BTreeMap::new(),
            ckpt_votes: Tally::default(),
            future_drops: 0,
            retired_drops: 0,
            payload_waits: 0,
            payload_mismatch: 0,
            ctr_future_drops: Counter::detached(),
            ctr_retired_drops: Counter::detached(),
            ctr_payload_waits: Counter::detached(),
            ctr_payload_mismatch: Counter::detached(),
            watch: None,
            trace: None,
            recovered: Vec::new(),
            commit_log: None,
            ckpt_retry_timer: None,
            outbox: BTreeMap::new(),
            timer_slots: BTreeMap::new(),
            slot_env: None,
        }
    }

    /// Interns the replica's counters in a shared telemetry [`Registry`]
    /// — `smr.future_drops`, `smr.retired_drops`, `smr.payload_waits` and
    /// `smr.payload_mismatch` — for substrates that consume the node by
    /// value: any snapshot of the registry reads them, any time.
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.ctr_future_drops = registry.counter("smr.future_drops");
        self.ctr_retired_drops = registry.counter("smr.retired_drops");
        self.ctr_payload_waits = registry.counter("smr.payload_waits");
        self.ctr_payload_mismatch = registry.counter("smr.payload_mismatch");
        self
    }

    /// Exports the replica's live health gauges into `registry` under the
    /// `watch.p<id>.*` naming contract that
    /// [`minsync_telemetry::watchdog::Watchdog`] consumes:
    /// `commit_floor` (contiguous committed-slot floor), `ack_floor` (the
    /// `n − t` quorum-ack floor), `submitted` (the slot target, so a
    /// watcher can tell an idle replica from a stalled one) with
    /// `committed_cmds` (slots committed so far), and
    /// `ckpt_slot`/`ckpt_digest` — a running FNV-1a fold of the committed
    /// prefix, the online cross-replica divergence signal. Pure
    /// observation: replica behaviour is byte-identical with and without
    /// it.
    pub fn with_watch(mut self, registry: &Registry, id: usize) -> Self {
        registry
            .gauge(&watch_name(id, "submitted"))
            .set(self.target_slots);
        self.watch = Some(WatchGauges {
            commit_floor: registry.gauge(&watch_name(id, "commit_floor")),
            ack_floor: registry.gauge(&watch_name(id, "ack_floor")),
            committed_cmds: registry.gauge(&watch_name(id, "committed_cmds")),
            ckpt_slot: registry.gauge(&watch_name(id, "ckpt_slot")),
            ckpt_digest: registry.gauge(&watch_name(id, "ckpt_digest")),
            digest: Fnv1a::new(),
        });
        self
    }

    /// Installs a stage-trace hook: the replica records
    /// [`TraceKind::Proposed`] when it starts a slot's consensus instance,
    /// [`TraceKind::Committed`] when the slot commits, and
    /// [`TraceKind::AckQuorum`] when an `n − t` quorum has acked it. The
    /// hook only appends to the bounded ring — replica behaviour is
    /// byte-identical with and without it.
    pub fn with_trace(mut self, trace: Arc<TraceRecorder>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Crash recovery: seeds the replica with the committed prefix it
    /// persisted before crashing — `log[i]` is the value of slot `i + 1`.
    ///
    /// On start the prefix is replayed (in slot order) into the proposal
    /// source, the `recent` checkpoint store, and the output stream, so a
    /// recovered replica's observable log is byte-identical to one that
    /// never crashed; one cumulative ack then announces the recovered
    /// floor, and everything past the prefix is caught up through the
    /// ordinary [`SmrMsg::Checkpoint`] path. That path is guaranteed to
    /// still have the tail: full retirement ([`SmrMsg::Ack`] floors)
    /// tracks the **minimum** floor across all replicas, and the crashed
    /// replica's floor froze at its last ack — no correct peer can have
    /// retired a slot the rejoiner is missing.
    ///
    /// The prefix itself comes from the replica's own stable storage (the
    /// standard crash-recovery assumption); it is trusted exactly as far
    /// as the replica trusts itself.
    ///
    /// # Panics
    ///
    /// Panics if the prefix exceeds `target_slots`.
    pub fn with_recovered_prefix(mut self, log: Vec<V>) -> Self {
        assert!(
            log.len() as u64 <= self.target_slots,
            "recovered prefix longer than the target log"
        );
        self.recovered = log;
        self
    }

    /// Installs a **write-ahead commit hook**, called synchronously for
    /// every fresh commit *before* the commit's ack effect is queued —
    /// i.e. strictly before any substrate can put the ack on a wire.
    ///
    /// This ordering is what makes [`Self::with_recovered_prefix`] sound
    /// against crash faults: ack floors are cumulative and never regress,
    /// so once a peer has seen `Ack { slot }` it will refuse to serve
    /// `slot` back via checkpoints. Persisting the slot first guarantees a
    /// replica never acks a commit its stable storage could lose.
    /// Replayed prefix slots do not re-invoke the hook (they are already
    /// persisted — that is where the prefix came from).
    pub fn with_commit_log(mut self, log: impl FnMut(u64, &V) + Send + 'static) -> Self {
        self.commit_log = Some(Box::new(log));
        self
    }

    /// Overrides the resource bounds.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `max_buffered == 0`.
    pub fn with_limits(mut self, limits: SmrLimits) -> Self {
        assert!(limits.window > 0, "a zero window never starts slot 1");
        assert!(limits.max_buffered > 0, "need some buffer space");
        self.limits = limits;
        self
    }

    /// Slots committed so far (commits are in slot order, so this is the
    /// committed prefix length).
    pub fn committed_count(&self) -> u64 {
        self.committed
    }

    /// Retirement floor: slots `1..=low_water` are garbage-collected.
    pub fn low_water(&self) -> u64 {
        self.low_water
    }

    /// Live consensus instances held right now (the active slot plus
    /// decided slots not yet past the quorum-ack floor).
    pub fn live_instances(&self) -> usize {
        self.instances.len()
    }

    /// Highest slot acked by an `n − t` quorum (the flow-control floor).
    pub fn quorum_floor(&self) -> u64 {
        self.quorum_floor
    }

    /// Future-slot messages currently buffered.
    pub fn buffered_len(&self) -> usize {
        self.buffered
    }

    /// Future-slot messages dropped by the horizon/buffer caps.
    pub fn future_drops(&self) -> u64 {
        self.future_drops
    }

    /// Messages refused because their slot was already retired.
    pub fn retired_drops(&self) -> u64 {
        self.retired_drops
    }

    /// Slots whose instance decided a digest before a payload with that
    /// digest was held (0 whenever every correct replica proposes the same
    /// value: a replica's own proposal is then the decided payload).
    pub fn payload_waits(&self) -> u64 {
        self.payload_waits
    }

    /// Payloads that arrived for a slot waiting on its decided payload
    /// and did not have the decided digest.
    pub fn payload_mismatch(&self) -> u64 {
        self.payload_mismatch
    }

    fn count_future_drop(&mut self) {
        self.future_drops += 1;
        self.ctr_future_drops.inc();
    }

    fn count_retired_drop(&mut self) {
        self.retired_drops += 1;
        self.ctr_retired_drops.inc();
    }

    /// Records a stage event stamped with the environment's clock and
    /// identity; a no-op when tracing is off.
    fn trace_stage(&self, env: &Env<SmrMsg<V>, SmrEvent<V>>, kind: TraceKind) {
        if let Some(trace) = &self.trace {
            trace.record_at(env.now().ticks(), env.me().index() as u32, kind);
        }
    }

    /// Starts every slot the pipeline and flow-control window allow.
    fn try_start(&mut self, env: &mut Env<SmrMsg<V>, SmrEvent<V>>) {
        while self.started < self.target_slots
            && self.started == self.committed
            && self.started < self.quorum_floor + self.limits.window
        {
            let slot = self.started + 1;
            self.started = slot;
            self.trace_stage(env, TraceKind::Proposed { slot });
            let proposal = self.source.propose(slot);
            // Ship the proposal once, ahead of the instance's first message
            // (on FIFO links a peer that sees our CB INIT already holds
            // what it names), then agree on its digest.
            send_payload(env, slot, &proposal);
            let cells = self.payloads.entry(slot).or_default();
            let digest = digest_among(cells, &proposal);
            cells.push((env.me(), digest, proposal));
            let node = ConsensusNode::new(self.cfg, digest).expect("config validated");
            self.instances.insert(slot, node);
            self.drive(slot, env, |node, ienv| node.on_start(ienv));
            for (from, msg) in self.pending.remove(&slot).unwrap_or_default() {
                self.buffered -= 1;
                self.drive(slot, env, |node, ienv| node.on_message(from, msg, ienv));
            }
        }
    }

    /// Runs one slot instance's handler on the child environment, then
    /// rewrites its effect stream into the outer one: messages are stamped
    /// with the slot, fresh timers are mapped to the slot, outputs are
    /// folded into replica state, and `Halt` is swallowed (slot instances
    /// never halt the replica).
    fn drive(
        &mut self,
        slot: u64,
        env: &mut Env<SmrMsg<V>, SmrEvent<V>>,
        f: impl FnOnce(
            &mut ConsensusNode<Digest>,
            &mut Env<ProtocolMsg<Digest>, ConsensusEvent<Digest>>,
        ),
    ) {
        let Some(node) = self.instances.get_mut(&slot) else {
            return;
        };
        let ienv = self.slot_env.get_or_insert_with(|| Env::new(env.n(), 0));
        ienv.prepare(env.me(), env.now());
        env.swap_timers(ienv);
        f(node, ienv);
        env.swap_timers(ienv);
        let mut events = Vec::new();
        for effect in ienv.drain() {
            match effect {
                Effect::Send { to, msg } => env.send(to, SmrMsg::Slot { slot, msg }),
                Effect::Broadcast { msg } => {
                    if self.limits.ckpt_retry > 0 {
                        self.outbox.entry(slot).or_default().push(msg.clone());
                    }
                    env.broadcast(SmrMsg::Slot { slot, msg });
                }
                Effect::SetTimer { id, delay } => {
                    self.timer_slots.insert(id, slot);
                    env.push(Effect::SetTimer { id, delay });
                }
                Effect::CancelTimer { id } => {
                    self.timer_slots.remove(&id);
                    env.push(Effect::CancelTimer { id });
                }
                Effect::Output(event) => events.push(event),
                Effect::Halt => {}
            }
        }
        for event in events {
            if let ConsensusEvent::Decided { value } = event {
                self.on_decided(slot, value, env);
            }
        }
    }

    /// Slot `slot`'s instance decided `digest`: commit the payload it
    /// names if held, else park the decision until the payload (or `t + 1`
    /// checkpoints) arrives. CONS-Validity makes `digest` some correct
    /// replica's proposal, and that replica sent its payload to everyone
    /// (DESIGN.md §6).
    fn on_decided(&mut self, slot: u64, digest: Digest, env: &mut Env<SmrMsg<V>, SmrEvent<V>>) {
        if slot != self.committed + 1 {
            return;
        }
        let held = self.payloads.get_mut(&slot).and_then(|cells| {
            let at = cells.iter().position(|(_, d, _)| *d == digest)?;
            Some(cells.swap_remove(at).2)
        });
        match held {
            Some(value) => self.commit(slot, digest, value, env),
            None => {
                self.parked = Some((slot, digest));
                self.payload_waits += 1;
                self.ctr_payload_waits.inc();
            }
        }
    }

    /// Stores `from`'s proposal for `slot` in its cell — the first one
    /// only, and only for slots within the horizon — and commits the slot
    /// if it was parked on exactly this payload.
    fn on_payload(
        &mut self,
        from: ProcessId,
        slot: u64,
        value: V,
        env: &mut Env<SmrMsg<V>, SmrEvent<V>>,
    ) {
        if slot == 0 || slot > self.target_slots {
            return; // out-of-range slot: Byzantine garbage
        }
        if slot <= self.low_water {
            self.count_retired_drop();
            return;
        }
        if slot <= self.committed {
            return; // late copy (a replay, or a laggard's proposal)
        }
        if slot > self.committed + 1 + self.limits.future_horizon {
            self.count_future_drop();
            return;
        }
        let cells = self.payloads.entry(slot).or_default();
        if cells.iter().any(|(sender, ..)| *sender == from) {
            return; // one cell per (slot, sender)
        }
        let digest = digest_among(cells, &value);
        if self.parked == Some((slot, digest)) {
            self.commit(slot, digest, value, env);
            return;
        }
        if self.parked.is_some_and(|(parked, _)| parked == slot) {
            self.payload_mismatch += 1;
            self.ctr_payload_mismatch.inc();
        }
        cells.push((from, digest, value));
    }

    /// Commits `slot` (in order only — duplicates and out-of-order calls
    /// are ignored): notifies the source, announces the commit, broadcasts
    /// the GC ack, and advances the pipeline.
    fn commit(
        &mut self,
        slot: u64,
        digest: Digest,
        value: V,
        env: &mut Env<SmrMsg<V>, SmrEvent<V>>,
    ) {
        if slot != self.committed + 1 {
            return;
        }
        if let Some(log) = &mut self.commit_log {
            log(slot, &value); // write-ahead: persist before the ack exists
        }
        self.committed = slot;
        self.trace_stage(env, TraceKind::Committed { slot });
        if let Some(watch) = &mut self.watch {
            watch.on_commit(slot, digest);
        }
        self.ckpt_votes = Tally::default();
        self.outbox.remove(&slot);
        self.payloads.remove(&slot);
        self.parked = None;
        self.source.on_commit(slot, &value);
        env.output(SmrEvent::Committed {
            slot,
            command: value.clone(),
        });
        self.recent.insert(slot, value);
        env.broadcast(SmrMsg::Ack { slot });
        self.note_ack(slot, env.me(), env);
        self.try_retire(env);
        self.try_start(env);
    }

    /// Raises one peer's cumulative ack floor and re-derives the quorum
    /// floor (the `(n − t)`-th largest floor), then drops instances the
    /// quorum has moved past. `env` is read-only here — only its clock and
    /// identity, for the ack-quorum stage trace.
    fn note_ack(&mut self, slot: u64, from: ProcessId, env: &Env<SmrMsg<V>, SmrEvent<V>>) {
        let floor = &mut self.ack_floors[from.index()];
        if slot <= *floor {
            return; // stale: acks are cumulative
        }
        *floor = slot;
        self.floor_scratch.clear();
        self.floor_scratch.extend_from_slice(&self.ack_floors);
        let k = self.cfg.system.quorum() - 1;
        let (_, kth, _) = self
            .floor_scratch
            .select_nth_unstable_by(k, |a, b| b.cmp(a));
        let prev = self.quorum_floor;
        self.quorum_floor = *kth;
        if let Some(watch) = &self.watch {
            watch.ack_floor.set(self.quorum_floor);
        }
        if self.trace.is_some() {
            // The floor is an order statistic of monotone per-peer floors,
            // so it never regresses: each newly covered slot is traced once.
            for covered in prev + 1..=self.quorum_floor {
                self.trace_stage(env, TraceKind::AckQuorum { slot: covered });
            }
        }
        // Decided instances behind the quorum floor are no longer needed
        // for catch-up (committed peers answer stragglers with
        // checkpoints), so their memory is reclaimed even while slower or
        // faulty replicas hold full retirement back.
        let settled = self.quorum_floor.min(self.committed);
        while self.instance_floor < settled {
            self.instance_floor += 1;
            self.instances.remove(&self.instance_floor);
        }
    }

    /// Retires every slot acked by **all** replicas (the minimum ack
    /// floor), dropping its remaining state — value, checkpoint-reply
    /// bookkeeping, and instance if still present. Only then is traffic
    /// for the slot refused: no correct replica can ever need it again.
    fn try_retire(&mut self, env: &mut Env<SmrMsg<V>, SmrEvent<V>>) {
        let all_floor = self.ack_floors.iter().copied().min().unwrap_or(0);
        let new_floor = all_floor.min(self.committed);
        if new_floor <= self.low_water {
            return;
        }
        for slot in self.low_water + 1..=new_floor {
            self.instances.remove(&slot);
            self.recent.remove(&slot);
            self.ckpt_sent.remove(&slot);
        }
        self.low_water = new_floor;
        env.output(SmrEvent::Retired { through: new_floor });
    }

    /// Answers a laggard's slot traffic with the committed value — once per
    /// peer per slot, and only for peers whose ack floor shows they have
    /// not committed the slot.
    fn checkpoint_reply(
        &mut self,
        slot: u64,
        to: ProcessId,
        env: &mut Env<SmrMsg<V>, SmrEvent<V>>,
    ) {
        if self.ack_floors[to.index()] >= slot {
            return; // the peer already committed this slot
        }
        let Some(value) = self.recent.get(&slot) else {
            return;
        };
        if !self.ckpt_sent.entry(slot).or_default().insert(to) {
            return; // already served
        }
        env.send(
            to,
            SmrMsg::Checkpoint {
                slot,
                value: value.clone(),
            },
        );
    }

    /// Counts a checkpoint vote for slot `committed + 1`; with `t + 1`
    /// matching votes (one of them necessarily correct) the certified value
    /// is committed directly — the laggard catch-up path.
    fn on_checkpoint(
        &mut self,
        from: ProcessId,
        slot: u64,
        value: V,
        env: &mut Env<SmrMsg<V>, SmrEvent<V>>,
    ) {
        if slot == 0 || slot > self.target_slots {
            return;
        }
        // A correct sender only checkpoints slots it committed, so the
        // message doubles as a cumulative ack — this also repairs acks a
        // far-behind replica dropped before catching up.
        if slot > self.ack_floors[from.index()] {
            self.note_ack(slot, from, env);
            self.try_retire(env);
            self.try_start(env);
        }
        if slot != self.committed + 1 {
            return; // stale, or unsolicited for a slot we cannot use yet
        }
        let Some(votes) = self.ckpt_votes.vote(from, &value) else {
            return; // one vote per sender
        };
        if votes >= self.cfg.system.plurality() {
            // Drop the local instance (its protocol run is moot) and any
            // buffered traffic for the slot, then adopt the decision.
            self.instances.remove(&slot);
            if let Some(msgs) = self.pending.remove(&slot) {
                self.buffered -= msgs.len();
            }
            let digest = digest_among(self.payloads.get(&slot).map_or(&[], Vec::as_slice), &value);
            self.commit(slot, digest, value, env);
        }
    }
}

impl<V: Value, P: ProposalSource<V> + core::fmt::Debug> core::fmt::Debug for ReplicaNode<V, P> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ReplicaNode")
            .field("source", &self.source)
            .field("committed", &self.committed)
            .field("low_water", &self.low_water)
            .field("buffered", &self.buffered)
            .finish()
    }
}

impl<V: Value, P: ProposalSource<V>> Node for ReplicaNode<V, P> {
    type Msg = SmrMsg<V>;
    type Output = SmrEvent<V>;

    fn on_start(&mut self, env: &mut Env<SmrMsg<V>, SmrEvent<V>>) {
        if !self.recovered.is_empty() {
            // Replay the crash-recovered prefix (see
            // [`ReplicaNode::with_recovered_prefix`]): state first, then
            // one cumulative ack instead of per-slot broadcasts.
            let prefix = std::mem::take(&mut self.recovered);
            for (i, value) in prefix.into_iter().enumerate() {
                let slot = i as u64 + 1;
                self.committed = slot;
                self.trace_stage(env, TraceKind::Committed { slot });
                if let Some(watch) = &mut self.watch {
                    watch.on_commit(slot, Digest::of(&value));
                }
                self.source.on_commit(slot, &value);
                env.output(SmrEvent::Committed {
                    slot,
                    command: value.clone(),
                });
                self.recent.insert(slot, value);
            }
            self.started = self.committed;
            env.broadcast(SmrMsg::Ack {
                slot: self.committed,
            });
            self.note_ack(self.committed, env.me(), env);
        }
        if self.limits.ckpt_retry > 0 {
            self.ckpt_retry_timer = Some(env.set_timer(self.limits.ckpt_retry));
        }
        self.try_start(env);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: SmrMsg<V>,
        env: &mut Env<SmrMsg<V>, SmrEvent<V>>,
    ) {
        match msg {
            SmrMsg::Slot { slot, msg } => {
                if slot == 0 || slot > self.target_slots {
                    return; // out-of-range slot: Byzantine garbage
                }
                if slot <= self.low_water {
                    self.count_retired_drop();
                    return;
                }
                if self.instances.contains_key(&slot) {
                    self.drive(slot, env, |node, ienv| node.on_message(from, msg, ienv));
                } else if slot <= self.committed {
                    // Committed here but the sender is still working on it:
                    // hand it the certified decision instead.
                    self.checkpoint_reply(slot, from, env);
                } else if slot > self.started {
                    // A replica ahead of us (or a flooder): buffer within
                    // the caps, drop beyond them.
                    if slot > self.committed + 1 + self.limits.future_horizon
                        || self.buffered >= self.limits.max_buffered
                    {
                        self.count_future_drop();
                    } else {
                        self.buffered += 1;
                        self.pending.entry(slot).or_default().push((from, msg));
                    }
                }
                // Started slots whose instance is gone were checkpoint-
                // committed; their late traffic needs no reply until we
                // commit them (handled by the `slot <= committed` arm).
            }
            SmrMsg::Ack { slot } => {
                // Acks are cumulative (a peer acks its whole committed
                // prefix), so one floor per peer is the entire ack state —
                // no horizon cap needed, and stale acks are free to ignore.
                if slot == 0 || slot > self.target_slots || slot <= self.ack_floors[from.index()] {
                    return;
                }
                self.note_ack(slot, from, env);
                self.try_retire(env);
                self.try_start(env);
            }
            SmrMsg::Checkpoint { slot, value } => {
                self.on_checkpoint(from, slot, value, env);
            }
            SmrMsg::Payload { slot, value } => {
                self.on_payload(from, slot, value, env);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, env: &mut Env<SmrMsg<V>, SmrEvent<V>>) {
        if self.ckpt_retry_timer == Some(timer) {
            // Lossy-link catch-up (see [`SmrLimits::ckpt_retry`]): forget
            // which checkpoints were already served, re-announce our own
            // floor, and *push* the next slot to every peer whose ack
            // floor trails our committed prefix. The push is what makes
            // recovery unconditional: a replica rejoining after a long
            // partition may have gone fully quiescent (its in-flight
            // instances backed off, every reply to it already marked
            // served and lost), so repair cannot rely on the laggard
            // asking — each period, up to one checkpoint per peer flows
            // from whoever holds the data, and each commit it unlocks
            // raises the floor that gates the next one.
            self.ckpt_sent.clear();
            if self.committed > 0 {
                env.broadcast(SmrMsg::Ack {
                    slot: self.committed,
                });
            }
            for p in 0..self.ack_floors.len() {
                let peer = ProcessId::new(p);
                let floor = self.ack_floors[p];
                if peer != env.me() && floor < self.committed {
                    self.checkpoint_reply(floor + 1, peer, env);
                }
            }
            // Loss can also wedge the *next* slot's consensus at every
            // replica at once — no one committed it, so there is no
            // checkpoint to push. Replay everything our head-of-line
            // slot has said, our proposal first: receivers key payload
            // cells and sub-protocol state by sender (duplicates are
            // no-ops), and peers already past the slot answer with a
            // checkpoint instead.
            let head = self.committed + 1;
            let me = env.me();
            let own = self.payloads.get(&head).and_then(|cells| {
                cells
                    .iter()
                    .find_map(|(from, _, value)| (*from == me).then_some(value))
            });
            if let Some(value) = own {
                send_payload(env, head, value);
            }
            if let Some(msgs) = self.outbox.get(&head) {
                for msg in msgs {
                    env.broadcast(SmrMsg::Slot {
                        slot: head,
                        msg: msg.clone(),
                    });
                }
            }
            self.ckpt_retry_timer = Some(env.set_timer(self.limits.ckpt_retry));
            return;
        }
        if let Some(slot) = self.timer_slots.remove(&timer) {
            self.drive(slot, env, |node, ienv| node.on_timer(timer, ienv));
        }
    }

    fn label(&self) -> &'static str {
        "smr-replica"
    }
}

/// Commits observed so far at process `p` — the standard stop-predicate
/// helper for replicated-log runs (each [`SmrEvent::Committed`] is one
/// slot; [`SmrEvent::Retired`] markers are not counted).
pub fn committed_count<V: Value>(outputs: &[OutputRecord<SmrEvent<V>>], p: ProcessId) -> u64 {
    outputs
        .iter()
        .filter(|o| o.process == p)
        .filter(|o| matches!(o.event, SmrEvent::Committed { .. }))
        .count() as u64
}

/// Every [`SmrEvent::Committed`] in `outputs` as `(process, slot, value)`,
/// in output order: the commit stream [`minsync_types::check::prefix`]
/// takes ([`SmrEvent::Retired`] markers are skipped — retirement drops
/// *replica* state, not the observed history).
pub fn commits<V: Value>(
    outputs: &[OutputRecord<SmrEvent<V>>],
) -> impl Iterator<Item = (ProcessId, u64, &V)> {
    outputs
        .iter()
        .filter_map(|o| o.event.as_committed().map(|(slot, v)| (o.process, slot, v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minsync_types::{Round, SystemConfig};

    fn cfg4() -> ConsensusConfig {
        ConsensusConfig::paper(SystemConfig::new(4, 1).unwrap())
    }

    /// A syntactically valid protocol message for drop-path tests (its
    /// content never reaches an instance in those tests).
    fn garbage_msg() -> ProtocolMsg<Digest> {
        ProtocolMsg::EaProp2 {
            round: Round::FIRST,
            value: Digest([0; 32]),
        }
    }

    /// A started replica 0 of `cfg4()` (slot 1 proposed, start effects
    /// discarded) and its environment.
    fn started(
        limits: SmrLimits,
    ) -> (
        ReplicaNode<u64, TwoClientSource>,
        Env<SmrMsg<u64>, SmrEvent<u64>>,
    ) {
        let mut r = ReplicaNode::new(cfg4(), TwoClientSource::new(1), 1000).with_limits(limits);
        let mut env = Env::new(4, 0);
        env.prepare(ProcessId::new(0), minsync_net::VirtualTime::ZERO);
        r.on_start(&mut env);
        let _ = env.take_buffer();
        (r, env)
    }

    fn commits(env: &mut Env<SmrMsg<u64>, SmrEvent<u64>>) -> Vec<(u64, u64)> {
        env.drain()
            .filter_map(|e| match e {
                Effect::Output(SmrEvent::Committed { slot, command }) => Some((slot, command)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn two_client_source_advances_with_the_commit_stream() {
        let mut s = TwoClientSource::new(1);
        assert_eq!(s.propose(1), 1000);
        // One of client 1's commands committed → next seq.
        s.on_commit(1, &1000);
        assert_eq!(s.propose(2), 1001);
        // Client 2's commits don't advance client 1's stream.
        s.on_commit(2, &2000);
        assert_eq!(s.propose(3), 1001);
    }

    #[test]
    #[should_panic(expected = "clients 1 and 2")]
    fn bad_client_rejected() {
        let _ = TwoClientSource::new(3);
    }

    #[test]
    fn closures_are_proposal_sources() {
        let mut f = |slot: u64| slot * 10;
        assert_eq!(ProposalSource::propose(&mut f, 3), 30);
    }

    #[test]
    fn future_traffic_beyond_horizon_is_dropped_and_counted() {
        let mut r: ReplicaNode<u64, TwoClientSource> =
            ReplicaNode::new(cfg4(), TwoClientSource::new(1), 1000).with_limits(SmrLimits {
                window: 4,
                future_horizon: 8,
                max_buffered: 16,
                ckpt_retry: 0,
            });
        let mut env = Env::new(4, 0);
        env.prepare(ProcessId::new(0), minsync_net::VirtualTime::ZERO);
        r.on_start(&mut env);
        let _ = env.take_buffer();
        // Messages far beyond the horizon are refused outright.
        for i in 0..100u64 {
            r.on_message(
                ProcessId::new(3),
                SmrMsg::Slot {
                    slot: 500 + i,
                    msg: garbage_msg(),
                },
                &mut env,
            );
        }
        assert_eq!(r.buffered_len(), 0);
        assert_eq!(r.future_drops(), 100);
    }

    #[test]
    fn buffer_cap_bounds_in_horizon_flood() {
        let mut r: ReplicaNode<u64, TwoClientSource> =
            ReplicaNode::new(cfg4(), TwoClientSource::new(1), 1000).with_limits(SmrLimits {
                window: 64,
                future_horizon: 64,
                max_buffered: 16,
                ckpt_retry: 0,
            });
        let mut env = Env::new(4, 0);
        env.prepare(ProcessId::new(0), minsync_net::VirtualTime::ZERO);
        r.on_start(&mut env);
        let _ = env.take_buffer();
        // A flood of distinct in-horizon future slots: the total cap holds.
        for i in 0..200u64 {
            r.on_message(
                ProcessId::new(3),
                SmrMsg::Slot {
                    slot: 3 + (i % 60),
                    msg: garbage_msg(),
                },
                &mut env,
            );
        }
        assert_eq!(r.buffered_len(), 16);
        assert_eq!(r.future_drops(), 200 - 16);
    }

    /// The two byte bounds of [`SmrLimits`] under one flooder: slot
    /// garbage is capped by `max_buffered` fixed-size messages, payloads by
    /// one cell per (slot in horizon, sender) — and the flood displaces
    /// nothing an honest replica sent.
    #[test]
    fn payload_cells_are_bounded_per_sender_and_evict_nobody() {
        let (mut r, mut env) = started(SmrLimits {
            window: 4,
            future_horizon: 8,
            max_buffered: 16,
            ckpt_retry: 0,
        });
        let (honest, flooder) = (ProcessId::new(1), ProcessId::new(3));
        // An honest replica one slot ahead of us ships its proposal.
        r.on_message(
            honest,
            SmrMsg::Payload {
                slot: 2,
                value: 2000,
            },
            &mut env,
        );
        // The flooder sweeps every slot of the log three times over with
        // bogus proposals and slot garbage.
        let mut beyond_horizon = 0;
        for round in 0..3u64 {
            for slot in 1..=1000u64 {
                r.on_message(
                    flooder,
                    SmrMsg::Payload {
                        slot,
                        value: 0xDEAD + round,
                    },
                    &mut env,
                );
                r.on_message(
                    flooder,
                    SmrMsg::Slot {
                        slot,
                        msg: garbage_msg(),
                    },
                    &mut env,
                );
                beyond_horizon += u64::from(slot > 1 + 8);
            }
        }
        // Slots 1..=9 are within the horizon (`future_horizon + 1` of
        // them): one cell each, first wins.
        let held_from = |sender: ProcessId| {
            let cells = r.payloads.values().flatten();
            cells.filter(|(from, ..)| *from == sender).count()
        };
        assert_eq!(held_from(flooder), 8 + 1);
        assert_eq!(held_from(honest), 1, "honest payload evicted");
        assert_eq!(held_from(ProcessId::new(0)), 1, "own proposal");
        assert!(r
            .payloads
            .values()
            .flatten()
            .all(|(from, _, value)| *from != flooder || *value == 0xDEAD));
        assert_eq!(r.buffered_len(), 16);
        // Every drop is the flooder's: its payloads beyond the horizon,
        // plus all its slot garbage but the 16 buffered messages (slot 1 is
        // started, so its garbage reaches the instance instead).
        let garbage_dropped = 3 * 999 - 16;
        assert_eq!(r.future_drops(), beyond_horizon + garbage_dropped);
        assert!(commits(&mut env).is_empty());
    }

    /// The instance decided a digest whose payload is not held: no commit,
    /// the instance keeps servicing reliable broadcast, a non-matching
    /// payload is counted and kept, the matching one commits exactly once.
    #[test]
    fn a_decision_without_its_payload_parks_until_the_payload_arrives() {
        let (mut r, mut env) = started(SmrLimits::default());
        let winner = 2000u64;
        let d = Digest::of(&winner);
        r.on_decided(1, d, &mut env);
        assert_eq!(r.committed_count(), 0);
        assert_eq!((r.payload_waits(), r.payload_mismatch()), (1, 0));
        assert!(commits(&mut env).is_empty());
        // Parked, not stopped: a peer's RB INIT is still echoed.
        r.on_message(
            ProcessId::new(2),
            SmrMsg::Slot {
                slot: 1,
                msg: ProtocolMsg::Rb(minsync_broadcast::RbMsg::Init {
                    tag: minsync_core::RbTag::Decide,
                    value: d,
                }),
            },
            &mut env,
        );
        assert!(
            env.drain().any(|e| matches!(
                e,
                Effect::Broadcast {
                    msg: SmrMsg::Slot {
                        slot: 1,
                        msg: ProtocolMsg::Rb(minsync_broadcast::RbMsg::Echo { .. })
                    }
                }
            )),
            "reliable broadcast still serviced while parked"
        );
        // Not the decided payload: counted, not committed.
        r.on_message(
            ProcessId::new(3),
            SmrMsg::Payload {
                slot: 1,
                value: 666,
            },
            &mut env,
        );
        assert_eq!(r.committed_count(), 0);
        assert_eq!(r.payload_mismatch(), 1);
        // The decided payload: committed, once — a second copy from another
        // sender is a late copy of a committed slot.
        for from in [1, 2] {
            r.on_message(
                ProcessId::new(from),
                SmrMsg::Payload {
                    slot: 1,
                    value: winner,
                },
                &mut env,
            );
        }
        assert_eq!(r.committed_count(), 1);
        assert_eq!(commits(&mut env), [(1, winner)]);
        assert!(r.parked.is_none() && !r.payloads.contains_key(&1));
        assert_eq!((r.payload_waits(), r.payload_mismatch()), (1, 1));
    }

    /// A payload that arrived before the decision is committed at decision
    /// time, with no wait counted.
    #[test]
    fn a_decision_commits_a_payload_already_held() {
        let (mut r, mut env) = started(SmrLimits::default());
        r.on_message(
            ProcessId::new(1),
            SmrMsg::Payload {
                slot: 1,
                value: 2000,
            },
            &mut env,
        );
        r.on_decided(1, Digest::of(&2000u64), &mut env);
        assert_eq!(commits(&mut env), [(1, 2000)]);
        assert_eq!((r.payload_waits(), r.payload_mismatch()), (0, 0));
    }

    /// `t + 1` checkpoints beat the payload to a parked slot: they commit
    /// it and clear the parked state, and the payload, when it finally
    /// comes, is a late copy.
    #[test]
    fn checkpoints_commit_a_parked_slot_and_clear_it() {
        let (mut r, mut env) = started(SmrLimits::default());
        r.on_decided(1, Digest::of(&2000u64), &mut env);
        for p in [1, 2] {
            r.on_message(
                ProcessId::new(p),
                SmrMsg::Checkpoint {
                    slot: 1,
                    value: 2000,
                },
                &mut env,
            );
        }
        assert_eq!(r.committed_count(), 1);
        assert!(r.parked.is_none());
        r.on_message(
            ProcessId::new(3),
            SmrMsg::Payload {
                slot: 1,
                value: 2000,
            },
            &mut env,
        );
        assert_eq!(commits(&mut env), [(1, 2000)]);
        assert_eq!(r.payload_mismatch(), 0);
    }

    /// The lossy-link replay re-offers the head slot's proposal to every
    /// other replica, ahead of the recorded broadcasts that name it.
    #[test]
    fn ckpt_retry_replays_the_head_slots_own_payload() {
        let mut r: ReplicaNode<u64, TwoClientSource> =
            ReplicaNode::new(cfg4(), TwoClientSource::new(1), 10).with_limits(SmrLimits {
                ckpt_retry: 10,
                ..SmrLimits::default()
            });
        let mut env = Env::new(4, 0);
        env.prepare(ProcessId::new(0), minsync_net::VirtualTime::ZERO);
        r.on_start(&mut env);
        let start: Vec<_> = env.drain().collect();
        let retry = start
            .iter()
            .find_map(|e| match e {
                Effect::SetTimer { id, delay: 10 } => Some(*id),
                _ => None,
            })
            .expect("retry timer armed on start");
        let sends = |effects: &[Effect<SmrMsg<u64>, SmrEvent<u64>>]| -> Vec<String> {
            effects
                .iter()
                .filter(|e| matches!(e, Effect::Send { .. } | Effect::Broadcast { .. }))
                .map(|e| format!("{e:?}"))
                .collect()
        };
        let first = sends(&start);
        assert_eq!(
            first[..3],
            [1, 2, 3].map(|p| format!(
                "{:?}",
                Effect::<SmrMsg<u64>, SmrEvent<u64>>::Send {
                    to: ProcessId::new(p),
                    msg: SmrMsg::Payload {
                        slot: 1,
                        value: 1000
                    }
                }
            )),
            "the proposal goes to each other replica before any slot traffic"
        );
        r.on_timer(retry, &mut env);
        let replay: Vec<_> = env.drain().collect();
        assert_eq!(sends(&replay), first, "everything slot 1 said, again");
    }

    #[test]
    fn retired_traffic_is_refused() {
        let mut r: ReplicaNode<u64, TwoClientSource> =
            ReplicaNode::new(cfg4(), TwoClientSource::new(1), 10);
        // Force the floor up without running a full execution.
        r.low_water = 3;
        let mut env = Env::new(4, 0);
        env.prepare(ProcessId::new(0), minsync_net::VirtualTime::ZERO);
        r.on_message(
            ProcessId::new(2),
            SmrMsg::Slot {
                slot: 2,
                msg: garbage_msg(),
            },
            &mut env,
        );
        assert_eq!(r.retired_drops(), 1);
    }

    #[test]
    fn checkpoint_plurality_commits_directly() {
        let mut r: ReplicaNode<u64, TwoClientSource> =
            ReplicaNode::new(cfg4(), TwoClientSource::new(1), 10);
        let mut env = Env::new(4, 0);
        env.prepare(ProcessId::new(0), minsync_net::VirtualTime::ZERO);
        r.on_start(&mut env);
        let _ = env.take_buffer();
        // One vote is not enough; a second distinct sender is (t + 1 = 2).
        r.on_message(
            ProcessId::new(1),
            SmrMsg::Checkpoint { slot: 1, value: 77 },
            &mut env,
        );
        assert_eq!(r.committed_count(), 0);
        // Repeated votes from the same sender don't count.
        r.on_message(
            ProcessId::new(1),
            SmrMsg::Checkpoint { slot: 1, value: 77 },
            &mut env,
        );
        assert_eq!(r.committed_count(), 0);
        r.on_message(
            ProcessId::new(2),
            SmrMsg::Checkpoint { slot: 1, value: 77 },
            &mut env,
        );
        assert_eq!(r.committed_count(), 1);
        let committed: Vec<_> = env
            .drain()
            .filter_map(|e| match e {
                Effect::Output(SmrEvent::Committed { slot, command }) => Some((slot, command)),
                _ => None,
            })
            .collect();
        assert_eq!(committed, [(1, 77)]);
    }

    #[test]
    fn ckpt_retry_clears_the_served_marks_and_reannounces_the_floor() {
        let mut r: ReplicaNode<u64, TwoClientSource> =
            ReplicaNode::new(cfg4(), TwoClientSource::new(1), 10).with_limits(SmrLimits {
                ckpt_retry: 10,
                ..SmrLimits::default()
            });
        let mut env = Env::new(4, 0);
        env.prepare(ProcessId::new(0), minsync_net::VirtualTime::ZERO);
        r.on_start(&mut env);
        let retry = env
            .drain()
            .find_map(|e| match e {
                Effect::SetTimer { id, delay: 10 } => Some(id),
                _ => None,
            })
            .expect("retry timer armed on start");
        // Commit slot 1 through the checkpoint plurality.
        for p in [1, 2] {
            r.on_message(
                ProcessId::new(p),
                SmrMsg::Checkpoint { slot: 1, value: 77 },
                &mut env,
            );
        }
        assert_eq!(r.committed_count(), 1);
        let _ = env.take_buffer();
        let serves_checkpoint =
            |r: &mut ReplicaNode<u64, TwoClientSource>,
             env: &mut Env<SmrMsg<u64>, SmrEvent<u64>>| {
                r.on_message(
                    ProcessId::new(3),
                    SmrMsg::Slot {
                        slot: 1,
                        msg: garbage_msg(),
                    },
                    env,
                );
                env.drain().any(|e| {
                    matches!(
                        e,
                        Effect::Send {
                            msg: SmrMsg::Checkpoint { slot: 1, value: 77 },
                            ..
                        }
                    )
                })
            };
        assert!(serves_checkpoint(&mut r, &mut env), "first request served");
        assert!(
            !serves_checkpoint(&mut r, &mut env),
            "second request rate-limited"
        );
        // The retry timer forgives the marks, re-announces our floor, and
        // pushes the next slot to the one peer whose ack floor trails us
        // (3 never acked; 1 and 2 acked implicitly via their checkpoint
        // votes) — so a dropped reply is a delay, not a wedge, even if
        // the laggard never asks again.
        r.on_timer(retry, &mut env);
        let effects: Vec<_> = env.drain().collect();
        assert!(
            effects.iter().any(|e| matches!(
                e,
                Effect::Broadcast {
                    msg: SmrMsg::Ack { slot: 1 }
                }
            )),
            "cumulative ack re-broadcast"
        );
        let pushes: Vec<_> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    msg: SmrMsg::Checkpoint { slot: 1, value: 77 },
                } => Some(to.index()),
                _ => None,
            })
            .collect();
        assert_eq!(pushes, vec![3], "push goes to the laggard alone");
        assert!(
            effects
                .iter()
                .any(|e| matches!(e, Effect::SetTimer { delay: 10, .. })),
            "timer re-armed"
        );
    }

    #[test]
    fn commit_log_hook_sees_fresh_commits_only() {
        let wal: Arc<std::sync::Mutex<Vec<(u64, u64)>>> = Arc::default();
        let sink = Arc::clone(&wal);
        let mut r: ReplicaNode<u64, TwoClientSource> =
            ReplicaNode::new(cfg4(), TwoClientSource::new(1), 10)
                .with_recovered_prefix(vec![1000, 2000])
                .with_commit_log(move |slot, value| sink.lock().unwrap().push((slot, *value)));
        let mut env = Env::new(4, 0);
        env.prepare(ProcessId::new(0), minsync_net::VirtualTime::ZERO);
        r.on_start(&mut env);
        let _ = env.take_buffer();
        assert!(
            wal.lock().unwrap().is_empty(),
            "replayed slots are already persisted and must not re-log"
        );
        for p in [1, 2] {
            r.on_message(
                ProcessId::new(p),
                SmrMsg::Checkpoint { slot: 3, value: 77 },
                &mut env,
            );
        }
        assert_eq!(r.committed_count(), 3);
        assert_eq!(*wal.lock().unwrap(), [(3, 77)]);
    }

    #[test]
    fn watch_gauges_track_floors_and_prefix_digest() {
        // Drive commits through the replay path: three replicas, two with
        // identical logs, one diverging at slot 2.
        let run = |id: usize, log: Vec<u64>| -> Registry {
            let registry = Registry::new();
            let mut r: ReplicaNode<u64, TwoClientSource> =
                ReplicaNode::new(cfg4(), TwoClientSource::new(1), 10)
                    .with_watch(&registry, id)
                    .with_recovered_prefix(log);
            let mut env = Env::new(4, 0);
            env.prepare(ProcessId::new(id), minsync_net::VirtualTime::ZERO);
            r.on_start(&mut env);
            let _ = env.drain().count();
            registry
        };
        let a = run(0, vec![1000, 2000]).snapshot();
        let b = run(1, vec![1000, 2000]).snapshot();
        let c = run(2, vec![1000, 2001]).snapshot();
        assert_eq!(a.gauge("watch.p0.submitted"), Some(10));
        assert_eq!(a.gauge("watch.p0.commit_floor"), Some(2));
        assert_eq!(a.gauge("watch.p0.committed_cmds"), Some(2));
        assert_eq!(a.gauge("watch.p0.ckpt_slot"), Some(2));
        assert_eq!(
            a.gauge("watch.p0.ckpt_digest"),
            b.gauge("watch.p1.ckpt_digest"),
            "identical prefixes expose identical digests"
        );
        assert_ne!(
            a.gauge("watch.p0.ckpt_digest"),
            c.gauge("watch.p2.ckpt_digest"),
            "a diverging prefix exposes a different digest"
        );
        assert!(a.gauge("watch.p0.ack_floor").is_some());
    }

    #[test]
    fn recovered_prefix_replays_then_tail_catches_up_by_checkpoint() {
        let mut r: ReplicaNode<u64, TwoClientSource> =
            ReplicaNode::new(cfg4(), TwoClientSource::new(1), 10)
                .with_recovered_prefix(vec![1000, 2000, 1001]);
        let mut env = Env::new(4, 0);
        env.prepare(ProcessId::new(0), minsync_net::VirtualTime::ZERO);
        r.on_start(&mut env);
        assert_eq!(r.committed_count(), 3, "prefix replayed");
        let effects: Vec<_> = env.drain().collect();
        let committed: Vec<_> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Output(SmrEvent::Committed { slot, command }) => Some((*slot, *command)),
                _ => None,
            })
            .collect();
        assert_eq!(committed, [(1, 1000), (2, 2000), (3, 1001)]);
        let acks: Vec<_> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Broadcast {
                    msg: SmrMsg::Ack { slot },
                } => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(acks, [3], "one cumulative ack for the whole prefix");
        assert!(
            effects.iter().any(|e| matches!(
                e,
                Effect::Broadcast {
                    msg: SmrMsg::Slot { slot: 4, .. }
                }
            )),
            "the slot after the prefix starts immediately"
        );
        // The tail arrives through the ordinary checkpoint path (t + 1
        // matching votes).
        for p in [1, 2] {
            r.on_message(
                ProcessId::new(p),
                SmrMsg::Checkpoint { slot: 4, value: 77 },
                &mut env,
            );
        }
        assert_eq!(r.committed_count(), 4, "caught up past the prefix");
        // And the recovered slots are servable to other laggards.
        let _ = env.take_buffer();
        r.on_message(
            ProcessId::new(3),
            SmrMsg::Slot {
                slot: 2,
                msg: garbage_msg(),
            },
            &mut env,
        );
        assert!(
            env.drain().any(|e| matches!(
                e,
                Effect::Send {
                    to,
                    msg: SmrMsg::Checkpoint {
                        slot: 2,
                        value: 2000
                    }
                } if to == ProcessId::new(3)
            )),
            "recovered value serves checkpoint catch-up"
        );
    }

    #[test]
    fn conflicting_checkpoint_votes_do_not_certify() {
        let mut r: ReplicaNode<u64, TwoClientSource> =
            ReplicaNode::new(cfg4(), TwoClientSource::new(1), 10);
        let mut env = Env::new(4, 0);
        env.prepare(ProcessId::new(0), minsync_net::VirtualTime::ZERO);
        r.on_start(&mut env);
        let _ = env.take_buffer();
        r.on_message(
            ProcessId::new(1),
            SmrMsg::Checkpoint { slot: 1, value: 7 },
            &mut env,
        );
        r.on_message(
            ProcessId::new(2),
            SmrMsg::Checkpoint { slot: 1, value: 8 },
            &mut env,
        );
        assert_eq!(r.committed_count(), 0, "split votes must not certify");
    }

    #[test]
    fn cumulative_acks_retire_everything_with_one_ack_per_peer() {
        let mut r: ReplicaNode<u64, TwoClientSource> =
            ReplicaNode::new(cfg4(), TwoClientSource::new(1), 10);
        let mut env = Env::new(4, 0);
        env.prepare(ProcessId::new(0), minsync_net::VirtualTime::ZERO);
        r.on_start(&mut env);
        // Commit slots 1 and 2 via checkpoint certification (t + 1 = 2
        // matching votes each). The checkpoints double as acks from their
        // senders.
        for slot in 1..=2u64 {
            for peer in [1, 2] {
                r.on_message(
                    ProcessId::new(peer),
                    SmrMsg::Checkpoint {
                        slot,
                        value: 100 + slot,
                    },
                    &mut env,
                );
            }
        }
        assert_eq!(r.committed_count(), 2);
        // Floors: me = 2 (own commits), p1 = p2 = 2 (implicit), p3 = 0 —
        // a 3-of-4 quorum reaches slot 2, full retirement does not.
        assert_eq!(r.quorum_floor(), 2);
        assert_eq!(r.low_water(), 0);
        // The instances behind the quorum floor are gone; only the active
        // slot (3) remains.
        assert_eq!(r.live_instances(), 1);
        let _ = env.take_buffer();
        // ONE cumulative ack from the last peer retires both slots: the
        // floor covers its whole committed prefix, so earlier per-slot
        // acks lost to any cause are irrelevant.
        r.on_message(ProcessId::new(3), SmrMsg::Ack { slot: 2 }, &mut env);
        assert_eq!(r.low_water(), 2);
        let retired: Vec<_> = env
            .drain()
            .filter_map(|e| match e {
                Effect::Output(SmrEvent::Retired { through }) => Some(through),
                _ => None,
            })
            .collect();
        assert_eq!(retired, [2]);
    }

    #[test]
    fn stale_and_out_of_range_acks_are_ignored() {
        let mut r: ReplicaNode<u64, TwoClientSource> =
            ReplicaNode::new(cfg4(), TwoClientSource::new(1), 10);
        let mut env = Env::new(4, 0);
        env.prepare(ProcessId::new(0), minsync_net::VirtualTime::ZERO);
        r.on_start(&mut env);
        let _ = env.take_buffer();
        r.on_message(ProcessId::new(1), SmrMsg::Ack { slot: 4 }, &mut env);
        // A lower ack from the same peer cannot regress its floor, and
        // out-of-range acks change nothing.
        r.on_message(ProcessId::new(1), SmrMsg::Ack { slot: 2 }, &mut env);
        r.on_message(ProcessId::new(2), SmrMsg::Ack { slot: 999 }, &mut env);
        assert_eq!(r.quorum_floor(), 0, "one peer is not a quorum");
        r.on_message(ProcessId::new(2), SmrMsg::Ack { slot: 3 }, &mut env);
        // Floors 0 (me), 4, 3, 0: the 3rd largest is 0 — still no quorum
        // past any slot.
        assert_eq!(r.quorum_floor(), 0);
        r.on_message(ProcessId::new(3), SmrMsg::Ack { slot: 5 }, &mut env);
        // Floors 0, 4, 3, 5 → quorum (3) reaches slot 3.
        assert_eq!(r.quorum_floor(), 3);
        // Retirement still requires *everyone* — and our own floor is 0.
        assert_eq!(r.low_water(), 0);
    }

    #[test]
    fn classify_names_the_control_plane() {
        assert_eq!(SmrMsg::<u64>::classify(&SmrMsg::Ack { slot: 1 }), "SMR_ACK");
        assert_eq!(
            SmrMsg::<u64>::classify(&SmrMsg::Checkpoint { slot: 1, value: 0 }),
            "SMR_CKPT"
        );
        assert_eq!(
            SmrMsg::<u64>::classify(&SmrMsg::Payload { slot: 1, value: 0 }),
            "SMR_PAYLOAD"
        );
    }
}
