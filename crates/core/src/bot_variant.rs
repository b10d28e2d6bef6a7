//! The ⊥-validity variant of Section 7 ("A variant").
//!
//! The paper's main algorithm needs the m-valued feasibility condition
//! `n − t > m·t` so that no value proposed only by Byzantine processes can
//! ever be decided. Section 7 notes that, following [11, 24], the
//! algorithms "can be modified" to drop that requirement by letting correct
//! processes decide a default value `⊥` when they do not propose the same
//! value. The paper gives no construction; this module supplies one and
//! proves it in the comments.
//!
//! # Construction
//!
//! 1. **Certification.** Every process RB-broadcasts `CERT(v_i)`. A value
//!    `v` is *certified* at a process once RB-delivered from strictly more
//!    than `(n + t)/2` distinct processes.
//!    *At most one value can ever be certified system-wide*: two
//!    certification quorums intersect in more than `t` processes, hence in
//!    a correct process, which RB-broadcast a single `CERT` (RB-Unicity).
//!    *If all correct processes propose `v`*, then `n − t > (n + t)/2`
//!    (⇔ `n > 3t`) deliveries of `CERT(v)` eventually occur at every
//!    correct process, so `v` certifies everywhere.
//! 2. **Binary consensus.** Run the paper's consensus (always feasible for
//!    `m = 2`: `⌊(n − t − 1)/t⌋ ≥ 2` whenever `n > 3t`) on the bit
//!    `b_i = 1` iff some value was certified at `p_i` when its certification
//!    watch first resolves — concretely, `b_i = 1` if a value certifies
//!    before `CERT`s from `n − t` distinct processes were delivered without
//!    any value reaching the threshold, else `b_i = 0`.
//! 3. **Decision.** If the binary consensus decides `0`, decide `⊥`.
//!    If it decides `1`, wait until some value certifies locally (if `1`
//!    was decided, a correct process proposed `1`, so a certificate exists;
//!    by RB-Termination-2 its `> (n+t)/2` deliveries eventually occur at
//!    every correct process) and decide that value.
//!
//! # Properties
//!
//! * **⊥-Validity** — a non-`⊥` decision is certified, i.e. RB-delivered
//!   from `> (n+t)/2 ≥ t + 1` processes, at least one correct: it was
//!   proposed by a correct process. Byzantine-only values are never
//!   decided.
//! * **Obligation** — if all correct processes propose `v`: every correct
//!   process certifies `v`. Can a correct process still input `0`? Only if
//!   `n − t` `CERT`s arrive with no value at threshold — impossible, since
//!   any `n − t` senders include `≥ n − 2t` correct ones... but
//!   `n − 2t > (n + t)/2` fails in general, so a fast `0` input *is*
//!   possible when Byzantine `CERT`s pad the count. To close this, the
//!   watch resolves `0` only after `CERT`s from **all** `n − t` first
//!   senders are delivered *and* no value can reach the threshold even
//!   with every not-yet-delivered process voting for it — with all correct
//!   on `v`, `v` can always still reach it, so the watch never resolves
//!   `0`. Hence all correct process propose `1`, the binary consensus
//!   decides `1` (CONS-Validity), and `v` is decided.
//! * **Agreement** — the binary consensus agrees on the bit; if `1`, the
//!   certified value is unique (quorum intersection), so all correct
//!   processes decide it.
//! * **Termination** — the certification watch always resolves (`1` when a
//!   value certifies; `0` once no value can mathematically reach the
//!   threshold); the binary consensus terminates under the
//!   ✸⟨t+1⟩bisource; a decided `1` implies an eventually-visible
//!   certificate.

use minsync_broadcast::{RbAction, RbActions, RbEngine};
use minsync_net::{Effect, Env, Node, TimerId};
use minsync_types::{ConfigError, ProcessId, SystemConfig, Tally, Value};

use crate::consensus::{ConsensusConfig, ConsensusNode};
use crate::events::ConsensusEvent;
use crate::messages::ProtocolMsg;

/// Wire messages of the ⊥-variant: certification traffic plus the embedded
/// binary consensus.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BotMsg<V> {
    /// RB traffic of the certification exchange (`CERT` values).
    CertRb(minsync_broadcast::RbMsg<(), V>),
    /// The embedded binary consensus (proposals 0/1).
    Inner(ProtocolMsg<u8>),
}

impl<V> BotMsg<V> {
    /// Classifier for metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            BotMsg::CertRb(_) => "CERT",
            BotMsg::Inner(m) => m.kind(),
        }
    }
}

/// Output of the ⊥-variant node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BotEvent<V> {
    /// Decided a real value (proposed by a correct process).
    Decided {
        /// The value.
        value: V,
    },
    /// Decided the default value `⊥` (correct processes disagreed).
    DecidedBottom,
}

/// State of the certification watch (step 1 / step 2 input derivation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Watch {
    /// Still undetermined.
    Pending,
    /// Resolved with the given binary-consensus input.
    Resolved(u8),
}

/// Byzantine consensus with ⊥-validity (Section 7) — no `m`-feasibility
/// requirement on proposals.
///
/// Internally drives a certification exchange and an embedded
/// [`ConsensusNode`] on one bit; see the module docs for the construction
/// and its proof sketch. The embedded automaton runs on a *child
/// environment*: its queued effects are drained, its messages wrapped in
/// [`BotMsg::Inner`], and its outputs folded into this node's state —
/// sans-io composition with no context shims.
#[derive(Debug)]
pub struct BotConsensusNode<V> {
    system: SystemConfig,
    inner_cfg: ConsensusConfig,
    proposal: V,
    cert_rb: Option<RbEngine<(), V>>,
    /// Who certified what: distinct RB-origins delivered, per value.
    cert: Tally<V>,
    certified: Option<V>,
    watch: Watch,
    inner: ConsensusNode<u8>,
    /// Child environment the embedded consensus runs on (created lazily on
    /// first drive; seed irrelevant — the inner automaton is deterministic
    /// and never draws randomness).
    inner_env: Option<Env<ProtocolMsg<u8>, ConsensusEvent<u8>>>,
    inner_started: bool,
    /// Inner-consensus messages received before the certification watch
    /// resolved (other processes may start their binary consensus first);
    /// replayed in arrival order once `start_inner` runs.
    pending_inner: Vec<(ProcessId, ProtocolMsg<u8>)>,
    bit_decided: Option<u8>,
    done: bool,
}

type BotCtx<V> = Env<BotMsg<V>, BotEvent<V>>;

impl<V: Value> BotConsensusNode<V> {
    /// Creates a node proposing `proposal`.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the embedded binary consensus.
    pub fn new(cfg: ConsensusConfig, proposal: V) -> Result<Self, ConfigError> {
        Ok(BotConsensusNode {
            system: cfg.system,
            inner_cfg: cfg,
            proposal,
            cert_rb: None,
            cert: Tally::default(),
            certified: None,
            watch: Watch::Pending,
            // Placeholder proposal; replaced when the watch resolves.
            inner: ConsensusNode::new(cfg, 0)?,
            inner_env: None,
            inner_started: false,
            pending_inner: Vec::new(),
            bit_decided: None,
            done: false,
        })
    }

    fn apply_cert_rb(&mut self, actions: RbActions<(), V>, env: &mut BotCtx<V>) {
        for action in actions {
            match action {
                RbAction::Broadcast(m) => env.broadcast(BotMsg::CertRb(m)),
                RbAction::Deliver { origin, value, .. } => {
                    self.on_cert_delivered(origin, value, env)
                }
            }
        }
    }

    fn on_cert_delivered(&mut self, origin: ProcessId, value: V, env: &mut BotCtx<V>) {
        if self.cert.vote(origin, &value).is_none() {
            return; // RB-Unicity makes this unreachable; defensive.
        }
        self.recheck_certification(env);
    }

    fn recheck_certification(&mut self, env: &mut BotCtx<V>) {
        let threshold = self.system.certification_threshold();
        let n = self.system.n();
        if self.certified.is_none() {
            // Over half the processes back a certified value, so at most
            // one value can pass: the search order does not matter.
            if let Some((v, _)) = self.cert.iter().find(|&(_, s)| s >= threshold) {
                self.certified = Some(v.clone());
            }
        }
        if self.watch == Watch::Pending {
            if self.certified.is_some() {
                self.watch = Watch::Resolved(1);
            } else {
                // Resolve 0 only when no value can reach the threshold even
                // if every process not yet heard from supports it.
                let outstanding = n - self.cert.voters();
                let best = self.cert.iter().map(|(_, s)| s).max().unwrap_or(0);
                if best + outstanding < threshold {
                    self.watch = Watch::Resolved(0);
                }
            }
            if let Watch::Resolved(bit) = self.watch {
                self.start_inner(bit, env);
            }
        }
        self.try_finish(env);
    }

    fn start_inner(&mut self, bit: u8, env: &mut BotCtx<V>) {
        debug_assert!(!self.inner_started);
        self.inner_started = true;
        self.inner = ConsensusNode::new(self.inner_cfg, bit).expect("config validated in new()");
        self.drive_inner(env, |inner, ienv| inner.on_start(ienv));
        // Replay buffered inner traffic in arrival order.
        for (from, msg) in std::mem::take(&mut self.pending_inner) {
            self.drive_inner(env, |inner, ienv| inner.on_message(from, msg, ienv));
        }
    }

    /// Runs one embedded-consensus handler on the child environment, then
    /// maps its effect stream into the outer one: messages are wrapped in
    /// [`BotMsg::Inner`], timer effects pass through unchanged (the timer
    /// table is shared, so ids never collide with the outer node's),
    /// outputs are folded into local state, and `Halt` is swallowed (the
    /// embedded consensus never halts the outer node).
    fn drive_inner(
        &mut self,
        env: &mut BotCtx<V>,
        f: impl FnOnce(&mut ConsensusNode<u8>, &mut Env<ProtocolMsg<u8>, ConsensusEvent<u8>>),
    ) {
        let ienv = self.inner_env.get_or_insert_with(|| Env::new(env.n(), 0));
        ienv.prepare(env.me(), env.now());
        env.swap_timers(ienv);
        f(&mut self.inner, ienv);
        env.swap_timers(ienv);
        let mut events = Vec::new();
        for effect in ienv.drain() {
            match effect {
                Effect::Send { to, msg } => env.send(to, BotMsg::Inner(msg)),
                Effect::Broadcast { msg } => env.broadcast(BotMsg::Inner(msg)),
                Effect::SetTimer { id, delay } => env.push(Effect::SetTimer { id, delay }),
                Effect::CancelTimer { id } => env.push(Effect::CancelTimer { id }),
                Effect::Output(event) => events.push(event),
                Effect::Halt => {}
            }
        }
        self.consume_inner_events(events, env);
    }

    fn consume_inner_events(&mut self, events: Vec<ConsensusEvent<u8>>, env: &mut BotCtx<V>) {
        for ev in events {
            if let ConsensusEvent::Decided { value } = ev {
                self.bit_decided = Some(value);
            }
        }
        self.try_finish(env);
    }

    fn try_finish(&mut self, env: &mut BotCtx<V>) {
        if self.done {
            return;
        }
        match self.bit_decided {
            Some(0) => {
                self.done = true;
                env.output(BotEvent::DecidedBottom);
            }
            Some(_) => {
                // Wait until the (unique) certificate is visible locally.
                if let Some(v) = self.certified.clone() {
                    self.done = true;
                    env.output(BotEvent::Decided { value: v });
                }
            }
            None => {}
        }
    }
}

impl<V: Value> Node for BotConsensusNode<V> {
    type Msg = BotMsg<V>;
    type Output = BotEvent<V>;

    fn on_start(&mut self, env: &mut BotCtx<V>) {
        let mut rb = RbEngine::new(self.system, env.me());
        let actions = rb.broadcast((), self.proposal.clone());
        self.cert_rb = Some(rb);
        self.apply_cert_rb(actions, env);
    }

    fn on_message(&mut self, from: ProcessId, msg: BotMsg<V>, env: &mut BotCtx<V>) {
        match msg {
            BotMsg::CertRb(rb_msg) => {
                if let Some(mut rb) = self.cert_rb.take() {
                    let actions = rb.on_message(from, rb_msg);
                    self.cert_rb = Some(rb);
                    self.apply_cert_rb(actions, env);
                }
            }
            BotMsg::Inner(inner_msg) => {
                if self.inner_started {
                    self.drive_inner(env, |inner, ienv| inner.on_message(from, inner_msg, ienv));
                } else {
                    // The sender's watch resolved before ours: buffer until
                    // our binary consensus starts.
                    self.pending_inner.push((from, inner_msg));
                }
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, env: &mut BotCtx<V>) {
        if self.inner_started {
            self.drive_inner(env, |inner, ienv| inner.on_timer(timer, ienv));
        }
    }

    fn label(&self) -> &'static str {
        "bot-consensus"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::ConsensusConfig;
    use minsync_net::sim::SimBuilder;
    use minsync_net::{NetworkTopology, Node};
    use minsync_types::{check, SystemConfig};

    type Msg = BotMsg<u64>;
    type Out = BotEvent<u64>;

    /// The decisions (`None` is ⊥), after asserting Theorem 4 with ⊥ or a
    /// proposal valid.
    fn run(proposals: &[u64], seed: u64) -> Vec<Option<u64>> {
        let n = proposals.len();
        let t = (n - 1) / 3;
        let cfg = ConsensusConfig::paper(SystemConfig::new(n, t).unwrap());
        let mut builder = SimBuilder::new(NetworkTopology::all_timely(n, 3))
            .seed(seed)
            .max_events(3_000_000);
        for &p in proposals {
            let node: Box<dyn Node<Msg = Msg, Output = Out>> =
                Box::new(BotConsensusNode::new(cfg, p).unwrap());
            builder = builder.boxed_node(node);
        }
        let mut sim = builder.build();
        let report = sim.run_until(|outs| outs.len() == n);
        let d: Vec<(ProcessId, Option<u64>)> = report
            .outputs
            .iter()
            .map(|o| match &o.event {
                BotEvent::Decided { value } => (o.process, Some(*value)),
                BotEvent::DecidedBottom => (o.process, None),
            })
            .collect();
        let valid = |v: &Option<u64>| v.map_or(true, |v| proposals.contains(&v));
        let found = check::consensus(ProcessId::all(n), d.iter().copied(), valid);
        assert!(found.is_empty(), "seed {seed}: {found:?}");
        d.into_iter().map(|(_, v)| v).collect()
    }

    #[test]
    fn unanimous_decides_value() {
        assert_eq!(run(&[5, 5, 5, 5], 1), [Some(5); 4]);
    }

    #[test]
    fn all_distinct_agrees_bottom_or_proposed() {
        for seed in 0..4 {
            run(&[1, 2, 3, 4], seed);
        }
    }

    #[test]
    fn majority_never_loses_to_minority() {
        // 3 of 4 propose 9: 9 certifies (> (n+t)/2 = 2.5 → 3 deliveries);
        // 7 (one proposer) can never certify. Decision ∈ {9, ⊥}.
        for seed in 0..4 {
            let d = run(&[9, 9, 9, 7], seed);
            assert_ne!(d[0], Some(7), "seed {seed}: minority value certified?!");
        }
    }

    #[test]
    fn certification_watch_resolves_zero_only_when_mathematically_final() {
        let cfg = ConsensusConfig::paper(SystemConfig::new(4, 1).unwrap());
        let mut node: BotConsensusNode<u64> = BotConsensusNode::new(cfg, 1).unwrap();
        // Feed deliveries directly: 3 distinct values from 3 origins; the
        // 4th origin could still push any of them to the threshold (3), so
        // the watch must stay pending.
        node.cert.vote(ProcessId::new(0), &10);
        node.cert.vote(ProcessId::new(1), &20);
        // best = 1, outstanding = 2, threshold = 3: 1 + 2 = 3 ≥ 3 → pending.
        assert_eq!(node.watch, Watch::Pending);
        let outstanding = 4 - node.cert.voters();
        let best = node.cert.iter().map(|(_, s)| s).max().unwrap_or(0);
        assert!(best + outstanding >= cfg.system.certification_threshold());
    }

    #[test]
    fn kind_labels() {
        let m: BotMsg<u64> = BotMsg::Inner(ProtocolMsg::EaProp2 {
            round: minsync_types::Round::FIRST,
            value: 0,
        });
        assert_eq!(m.kind(), "EA_PROP2");
    }
}
