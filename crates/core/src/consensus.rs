//! The m-valued Byzantine consensus algorithm — Section 6, Figure 4.
//!
//! Each process: (line 1) runs `CB[0]` on its proposal to obtain an initial
//! estimate proposed by a correct process, then loops: (line 4) `EA_propose`
//! the estimate — liveness; (line 5) adopt the returned value if `CB[0]`
//! certifies it as a correct process's proposal — validity; (line 6) run the
//! round's adopt-commit object — agreement; (line 7) on `commit`,
//! RB-broadcast `DECIDE`. A when-clause (line 9) decides as soon as
//! `DECIDE(v)` is RB-delivered from `t + 1` distinct processes.
//!
//! # Departures from the listing (all documented in DESIGN.md)
//!
//! * A process RB-broadcasts `DECIDE` at most once: after a first commit its
//!   estimate can never change (CONS-Agreement proof), so re-broadcasting in
//!   later committing rounds would be a duplicate RB instance with identical
//!   content.
//! * "Decides and stops" (line 9) stops the round loop but keeps servicing
//!   the RB layer (echo/ready): RB-Termination-2 — which carries the
//!   remaining correct processes to their own decisions — requires correct
//!   processes to keep participating in reliable broadcast.
//! * [`ConsensusConfig::rules`] may opt into [`Rules::SKIP_EA`]: round 1
//!   skips lines 4–5 and enters adopt-commit with `CB[0]`'s value, already
//!   in `cb0`; agreement never uses EA, and round 1 then has no EA message,
//!   no round timer, and drops any round-1 EA traffic received (DESIGN.md
//!   §10). [`Rules::SLOT`] adds [`Carrier::Relay`]: every CB instance —
//!   `CB[0]`, each round's `AC_PROP` and `EA_PROP1` — travels by
//!   BV-broadcast's relay rule, with Figure 1's CB-Set properties
//!   (DESIGN.md §9); `AC_EST` and `DECIDE` stay Bracha's RB. `SLOT` is a
//!   log slot's default; `rules: None` here means [`Rules::PAPER`].

use std::collections::BTreeMap;

use minsync_broadcast::{Carrier, RbEngine, RbEvent, RbStep, Tag};
use minsync_net::{Env, Node, TimerId};
use minsync_types::{ConfigError, ProcessId, Round, RoundSchedule, SystemConfig, Value};

use crate::adopt_commit::AcRound;
use crate::events::{AcTag, ConsensusEvent};
use crate::eventual_agreement::{EaAction, EaObject};
use crate::messages::{CbId, ProtocolMsg, RbTag};
use crate::timeout::TimeoutPolicy;
use crate::view_sync::ViewSynchronizer;

/// A deliberately seeded protocol bug, used only by the conformance
/// suite's mutation smoke: the schedule explorer must be able to find the
/// violation the mutation introduces, or the explorer itself is broken.
///
/// Runtime-selected (a field on [`ConsensusConfig`]) rather than
/// feature-gated so a single workspace build carries both the sound and
/// the broken automaton without cargo feature unification poisoning every
/// other crate's artifacts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SeededMutation {
    /// Adopt-commit waits for a witness of `n − t − 1` estimates instead of
    /// `n − t` (Figure 2 line 3 off by one). With `n = 4, t = 1` two
    /// partitioned halves can each assemble a unanimous 2-witness and
    /// commit different values — an agreement violation.
    AcQuorumOffByOne,
}

/// A consensus instance's rule set: whether round 1 runs EA, and the
/// [`Carrier`] of each [`RbTag`] (its [`Tag::carrier`]). [`Rules::PAPER`]
/// is Figures 1–4 as printed; [`Rules::SLOT`] is what every
/// replicated-log slot runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Rules {
    /// Round 1 skips lines 4–5 (DESIGN.md §10): EA serves termination
    /// only, and round 1's estimate is `CB[0]`'s first valid value, already
    /// in `cb0`, so line 5 can change nothing validity needs. Round 1 then
    /// runs no EA instance (no EA messages, no round timer) and a unanimous
    /// slot decides in round 1 on any network.
    skip_ea: bool,
    /// The carrier of every CB instance's `CB_VAL` wave.
    cb: Carrier,
}

impl Rules {
    /// Figures 1–4 as printed.
    pub const PAPER: Rules = Rules {
        skip_ea: false,
        cb: Carrier::Counted,
    };
    /// Round 1 straight to adopt-commit (DESIGN.md §10), CB by Figure 1.
    pub const SKIP_EA: Rules = Rules {
        skip_ea: true,
        cb: Carrier::Counted,
    };
    /// Every replicated-log slot's rules: round 1 straight to adopt-commit
    /// and CB by relay (DESIGN.md §9, §10).
    pub const SLOT: Rules = Rules {
        skip_ea: true,
        cb: Carrier::Relay,
    };
    /// The three rule sets, in table order.
    pub const ALL: [Rules; 3] = [Rules::PAPER, Rules::SKIP_EA, Rules::SLOT];

    /// Whether round `r` runs no EA instance under these rules.
    fn skips_ea(self, r: Round) -> bool {
        r == Round::FIRST && self.skip_ea
    }
}

/// The one map from a rule set to carriers. `CB_VAL` (Figure 1 line 4) and
/// `DECIDE` (Figure 4 line 9) act on `t + 1` distinct origins, so the
/// engine counts them; `AC_EST` is plain RB. A CB instance's `CB_VAL` wave
/// travels as the rules say (DESIGN.md §9).
impl Tag for RbTag {
    type Rules = Rules;

    fn carrier(&self, rules: Rules) -> Carrier {
        match self {
            RbTag::CbVal(_) => rules.cb,
            RbTag::AcEst(_) => Carrier::Bracha,
            RbTag::Decide => Carrier::Counted,
        }
    }
}

/// Static parameters of one consensus instance.
#[derive(Clone, Copy, Debug)]
pub struct ConsensusConfig {
    /// System size and fault tolerance.
    pub system: SystemConfig,
    /// Tuning parameter `k` of Section 5.4 (`0` = the paper's basic
    /// algorithm; `k` requires a ⟨t+1+k⟩bisource but shrinks the helper-set
    /// schedule from `C(n, n−t)` to `C(n, n−t+k)` sets).
    pub k: usize,
    /// Timeout growth policy for the EA object (Figure 3 line 5 /
    /// footnote 3).
    pub timeout: TimeoutPolicy,
    /// Stop proposing after this many rounds (the process keeps servicing
    /// RB so others stay live, but initiates nothing new). `None` =
    /// unbounded, the paper's semantics.
    pub max_rounds: Option<u64>,
    /// Seeded bug for mutation testing. `None` (every production
    /// constructor) runs the paper's algorithm unmodified.
    pub mutation: Option<SeededMutation>,
    /// The rule set: how round 1 starts and how every CB wave travels.
    /// `None` lets the host choose once, at construction:
    /// [`ConsensusNode::new`] runs [`Rules::PAPER`], a replicated-log
    /// replica [`Rules::SLOT`]. Every host runs `Some(rules)` as given.
    pub rules: Option<Rules>,
}

impl ConsensusConfig {
    /// The paper's defaults: `k = 0`, `timer[r] = r`, unbounded rounds,
    /// and the host's own rule set (`rules: None`).
    pub fn paper(system: SystemConfig) -> Self {
        ConsensusConfig {
            system,
            k: 0,
            timeout: TimeoutPolicy::paper(),
            max_rounds: None,
            mutation: None,
            rules: None,
        }
    }

    /// Builds the round schedule implied by `system` and `k`.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from [`RoundSchedule::new`] (invalid `k`
    /// or combinatorial overflow).
    pub fn schedule(&self) -> Result<RoundSchedule, ConfigError> {
        RoundSchedule::new(&self.system, self.k)
    }
}

/// Where the round loop of Figure 4 currently blocks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Line 1: waiting for `CB[0]` to return.
    AwaitValid,
    /// Line 4: inside `EA_propose` for the current round.
    InEa,
    /// Line 6: inside the round's adopt-commit object.
    InAc,
    /// Stopped: decided, or `max_rounds` exhausted.
    Stopped,
}

/// The consensus automaton for one process — Figure 4 runnable on any
/// [`minsync_net`] substrate.
///
/// ```rust
/// use minsync_core::{ConsensusNode, ConsensusConfig, ConsensusEvent};
/// use minsync_net::{sim::SimBuilder, NetworkTopology};
/// use minsync_types::{check, ProcessId, SystemConfig};
///
/// # fn main() -> Result<(), minsync_types::ConfigError> {
/// let system = SystemConfig::new(4, 1)?;
/// let cfg = ConsensusConfig::paper(system);
/// let topo = NetworkTopology::all_timely(4, 5);
/// let mut builder = SimBuilder::new(topo).seed(42);
/// for value in [10u64, 20, 10, 20] {
///     builder = builder.node(ConsensusNode::new(cfg, value)?);
/// }
/// let mut sim = builder.build();
/// let report = sim.run_until(|outs| {
///     outs.iter().filter(|o| matches!(o.event, ConsensusEvent::Decided { .. })).count() == 4
/// });
/// let decided = report.outputs.iter().map(|o| (o.process, o.event.as_decision()));
/// let decisions = decided.filter_map(|(p, v)| Some((p, *v?)));
/// let found = check::consensus(ProcessId::all(4), decisions, |v| [10, 20].contains(v));
/// assert!(found.is_empty(), "{found:?}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ConsensusNode<V> {
    cfg: ConsensusConfig,
    /// `cfg.rules`, with `None` resolved to [`Rules::PAPER`].
    rules: Rules,
    proposal: V,
    /// The one broadcast layer: every RB instance, and the `t + 1` counts
    /// of every CB instance and of `DECIDE`.
    rb: Option<RbEngine<RbTag, V>>,
    /// `cb_valid` of `CB[0]` (line 1).
    cb0: Vec<V>,
    ea: EaObject<V>,
    ac_rounds: BTreeMap<Round, AcRound<V>>,
    est: V,
    phase: Phase,
    /// Round advancement + round-timer ownership (see [`ViewSynchronizer`]).
    sync: ViewSynchronizer,
    decide_broadcast: bool,
    decided: Option<V>,
}

type Ctx<V> = Env<ProtocolMsg<V>, ConsensusEvent<V>>;

impl<V: Value> ConsensusNode<V> {
    /// Creates a node that will propose `proposal`, under `cfg.rules` or,
    /// if that is `None`, [`Rules::PAPER`].
    ///
    /// The process id is taken from the substrate at `on_start`; one node
    /// value works for any slot.
    ///
    /// # Errors
    ///
    /// Propagates schedule construction errors (invalid `k`, combinatorial
    /// overflow).
    pub fn new(cfg: ConsensusConfig, proposal: V) -> Result<Self, ConfigError> {
        let schedule = cfg.schedule()?;
        Ok(ConsensusNode {
            cfg,
            rules: cfg.rules.unwrap_or(Rules::PAPER),
            proposal: proposal.clone(),
            rb: None,
            cb0: Vec::new(),
            // `me` is patched in on_start; placeholder id 0 is fine because
            // the EA object is rebuilt there.
            ea: EaObject::new(cfg.system, schedule, ProcessId::new(0), cfg.timeout),
            ac_rounds: BTreeMap::new(),
            est: proposal,
            phase: Phase::AwaitValid,
            sync: ViewSynchronizer::default(),
            decide_broadcast: false,
            decided: None,
        })
    }

    /// The decided value, if this process has decided.
    pub fn decision(&self) -> Option<&V> {
        self.decided.as_ref()
    }

    // ------------------------------------------------------------------
    // Effect plumbing
    // ------------------------------------------------------------------

    fn rb_broadcast(&mut self, tag: RbTag, value: V, env: &mut Ctx<V>) {
        let rb = self.rb.as_mut().expect("rb engine initialized at start");
        if let Some(first) = rb.broadcast(tag, value) {
            env.broadcast(ProtocolMsg::Rb(first));
        }
    }

    fn apply_ea(&mut self, actions: Vec<EaAction<V>>, env: &mut Ctx<V>) {
        for action in actions {
            match action {
                EaAction::RbBroadcast { tag, value } => self.rb_broadcast(tag, value, env),
                EaAction::Broadcast(msg) => env.broadcast(msg),
                EaAction::SetTimer { round, delay } => {
                    self.sync.arm(round, delay, env);
                }
                EaAction::CancelTimer { round } => {
                    self.sync.cancel(round, env);
                }
                EaAction::Returned { round, value, fast } => {
                    self.on_ea_returned(round, value, fast, env)
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Protocol steps
    // ------------------------------------------------------------------

    /// Applies one step of the broadcast layer: its broadcast, then its
    /// event. A decided process ignores EA/AC traffic (the layer itself
    /// stays live, see the module docs).
    fn apply_rb(&mut self, step: RbStep<RbTag, V>, env: &mut Ctx<V>) {
        if let Some(m) = step.broadcast {
            env.broadcast(ProtocolMsg::Rb(m));
        }
        let live = self.decided.is_none();
        match step.event {
            Some(RbEvent::CbValid { tag, value }) => match tag {
                RbTag::CbVal(CbId::ConsValid) => {
                    self.cb0.push(value.clone());
                    // Line 1 returns CB[0]'s first valid value: round 1.
                    if self.phase == Phase::AwaitValid {
                        self.est = value;
                        self.enter_round(Round::FIRST, env);
                    }
                }
                RbTag::CbVal(CbId::EaProp(r)) if live => {
                    let acts = self.ea.on_cb_valid(r, value);
                    self.apply_ea(acts, env);
                }
                RbTag::CbVal(CbId::AcProp(r)) if live => {
                    self.ac_round(r).on_cb_valid(value);
                    self.try_advance_ac(r, env);
                }
                // Line 9: DECIDE(v) RB-delivered from t + 1 processes.
                RbTag::Decide => self.on_decided(value, env),
                _ => {}
            },
            Some(RbEvent::RbDelivered {
                tag: RbTag::AcEst(r),
                origin,
                value,
            }) if live => {
                self.ac_round(r).on_est_delivered(origin, value);
                self.try_advance_ac(r, env);
            }
            _ => {}
        }
    }

    fn ac_round(&mut self, r: Round) -> &mut AcRound<V> {
        let system = self.cfg.system;
        let mutation = self.cfg.mutation;
        self.ac_rounds.entry(r).or_insert_with(|| {
            let ac = AcRound::new(system);
            match mutation {
                Some(SeededMutation::AcQuorumOffByOne) => {
                    ac.with_quorum_override(system.quorum().saturating_sub(1))
                }
                None => ac,
            }
        })
    }

    /// Lines 3–4: start round `r` and `EA_propose(r, est)`; under
    /// [`Rules::SKIP_EA`] and [`Rules::SLOT`], round 1 enters line 6 with
    /// `est` instead.
    fn enter_round(&mut self, r: Round, env: &mut Ctx<V>) {
        if let Some(max) = self.cfg.max_rounds {
            if r.get() > max {
                self.phase = Phase::Stopped;
                return;
            }
        }
        self.sync.advance_to(r);
        env.output(ConsensusEvent::RoundStarted { round: r });
        if self.rules.skips_ea(r) {
            self.enter_ac(r, env);
            return;
        }
        self.phase = Phase::InEa;
        let acts = self.ea.propose(r, self.est.clone());
        self.apply_ea(acts, env);
    }

    /// Line 5 plus entry into line 6.
    fn on_ea_returned(&mut self, round: Round, value: V, fast: bool, env: &mut Ctx<V>) {
        if self.decided.is_some() || self.phase != Phase::InEa || round != self.sync.current() {
            return;
        }
        // Line 5: adopt only values CB[0] certifies as coming from a
        // correct process.
        if self.cb0.contains(&value) {
            self.est = value.clone();
        }
        env.output(ConsensusEvent::EaReturned { round, value, fast });
        self.enter_ac(round, env);
    }

    /// Line 6, Figure 2 line 1: CB-broadcast `AC_PROP(est)`.
    fn enter_ac(&mut self, round: Round, env: &mut Ctx<V>) {
        self.phase = Phase::InAc;
        self.rb_broadcast(RbTag::CbVal(CbId::AcProp(round)), self.est.clone(), env);
        self.try_advance_ac(round, env);
    }

    /// One step of round `r`'s adopt-commit object, if the round loop is
    /// inside it: RB-broadcast the `AC_EST` it hands out, then act on its
    /// return.
    fn try_advance_ac(&mut self, r: Round, env: &mut Ctx<V>) {
        if self.phase != Phase::InAc || r != self.sync.current() {
            return;
        }
        let step = self.ac_round(r).advance();
        if let Some(est2) = step.est {
            self.rb_broadcast(RbTag::AcEst(r), est2, env);
        }
        let Some((tag, mfa)) = step.returned else {
            return;
        };
        // Figure 4 line 6: adopt the AC outcome as the new estimate.
        self.est = mfa.clone();
        env.output(ConsensusEvent::AcReturned {
            round: r,
            tag,
            value: mfa.clone(),
        });
        // Line 7.
        if tag == AcTag::Commit && !self.decide_broadcast {
            self.decide_broadcast = true;
            env.output(ConsensusEvent::DecideBroadcast {
                round: r,
                value: mfa.clone(),
            });
            self.rb_broadcast(RbTag::Decide, mfa, env);
        }
        // Line 8: next round.
        self.enter_round(r.next(), env);
    }

    /// Line 9: `DECIDE(v)` RB-delivered from `t + 1` distinct processes.
    fn on_decided(&mut self, value: V, env: &mut Ctx<V>) {
        if self.decided.is_some() {
            return;
        }
        self.decided = Some(value.clone());
        self.phase = Phase::Stopped;
        // Cancel every pending timer: the round loop is over. The RB layer
        // stays live (see module docs).
        self.sync.cancel_all(env);
        // Release per-round state: a decided process ignores EA/AC traffic,
        // so the accumulated round maps are dead weight. (The RB engine is
        // kept: other correct processes still need its echoes/readies.)
        self.ac_rounds.clear();
        self.ea.prune_below(Round::new(u64::MAX));
        env.output(ConsensusEvent::Decided { value });
    }
}

impl<V: Value> Node for ConsensusNode<V> {
    type Msg = ProtocolMsg<V>;
    type Output = ConsensusEvent<V>;

    fn on_start(&mut self, env: &mut Ctx<V>) {
        let me = env.me();
        self.rb = Some(RbEngine::new(self.cfg.system, me, self.rules));
        self.ea = EaObject::new(
            self.cfg.system,
            self.cfg.schedule().expect("validated in new()"),
            me,
            self.cfg.timeout,
        );
        // Line 1: CB[0].CB_broadcast VALID(v_i).
        self.rb_broadcast(RbTag::CbVal(CbId::ConsValid), self.proposal.clone(), env);
    }

    fn on_message(&mut self, from: ProcessId, msg: ProtocolMsg<V>, env: &mut Ctx<V>) {
        // EA traffic for a round no correct process runs EA in is Byzantine:
        // drop it before it allocates EA round state or an RB instance.
        let ea_round = match &msg {
            ProtocolMsg::Rb(m) => match m.tag() {
                RbTag::CbVal(CbId::EaProp(r)) => Some(*r),
                _ => None,
            },
            ProtocolMsg::EaProp2 { round, .. }
            | ProtocolMsg::EaCoord { round, .. }
            | ProtocolMsg::EaRelay { round, .. } => Some(*round),
        };
        if ea_round.is_some_and(|r| self.rules.skips_ea(r)) {
            return;
        }
        match msg {
            ProtocolMsg::Rb(rb_msg) => {
                // The RB layer is serviced forever — even after deciding —
                // so other correct processes retain RB-Termination-2.
                if let Some(rb) = self.rb.as_mut() {
                    let step = rb.on_message(from, rb_msg);
                    self.apply_rb(step, env);
                }
            }
            ProtocolMsg::EaProp2 { round, value } => {
                if self.decided.is_none() {
                    let acts = self.ea.on_prop2(from, round, value);
                    self.apply_ea(acts, env);
                }
            }
            ProtocolMsg::EaCoord { round, value } => {
                if self.decided.is_none() {
                    let acts = self.ea.on_coord(from, round, value);
                    self.apply_ea(acts, env);
                }
            }
            ProtocolMsg::EaRelay { round, value } => {
                if self.decided.is_none() {
                    let acts = self.ea.on_relay(from, round, value);
                    self.apply_ea(acts, env);
                }
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, env: &mut Ctx<V>) {
        if let Some(round) = self.sync.expire(timer) {
            if self.decided.is_none() {
                let acts = self.ea.on_timer_expired(round);
                self.apply_ea(acts, env);
            }
        }
    }

    fn label(&self) -> &'static str {
        "consensus"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minsync_broadcast::RbMsg;
    use minsync_net::sim::{OutputRecord, RunReport, SimBuilder};
    use minsync_net::{ChannelTiming, DelayLaw, Effect, NetworkTopology};
    use minsync_types::check;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn decisions(outputs: &[OutputRecord<ConsensusEvent<u64>>]) -> Vec<(ProcessId, u64)> {
        let decided = outputs.iter().map(|o| (o.process, o.event.as_decision()));
        decided.filter_map(|(p, v)| Some((p, *v?))).collect()
    }

    /// Runs one process per proposal (t = ⌊(n − 1)/3⌋) until all decided,
    /// and asserts Theorem 4 over all of them.
    fn decide(
        proposals: &[u64],
        topo: NetworkTopology,
        seed: u64,
    ) -> RunReport<ConsensusEvent<u64>> {
        decide_under(Rules::PAPER, proposals, topo, seed)
    }

    fn decide_under(
        rules: Rules,
        proposals: &[u64],
        topo: NetworkTopology,
        seed: u64,
    ) -> RunReport<ConsensusEvent<u64>> {
        let n = proposals.len();
        let system = SystemConfig::new(n, (n - 1) / 3).unwrap();
        let cfg = ConsensusConfig {
            rules: Some(rules),
            ..ConsensusConfig::paper(system)
        };
        let mut builder = SimBuilder::new(topo).seed(seed).max_events(5_000_000);
        for &p in proposals {
            builder = builder.node(ConsensusNode::new(cfg, p).unwrap());
        }
        let report = builder.build().run_until(|outs| decisions(outs).len() == n);
        let d = decisions(&report.outputs);
        let found = check::consensus(ProcessId::all(n), d, |v| proposals.contains(v));
        assert!(
            found.is_empty(),
            "seed {seed}: {found:?} ({:?})",
            report.reason
        );
        report
    }

    #[test]
    fn all_correct_same_proposal_decides_it() {
        decide(&[9, 9, 9, 9], NetworkTopology::all_timely(4, 3), 1);
    }

    #[test]
    fn split_proposals_agree_on_a_proposed_value() {
        decide(&[1, 2, 1, 2], NetworkTopology::all_timely(4, 3), 7);
    }

    #[test]
    fn decides_under_random_asynchrony() {
        let topo = NetworkTopology::uniform(
            4,
            ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 25 }),
        );
        for seed in 0..5 {
            decide(&[3, 3, 5, 5], topo.clone(), seed);
        }
    }

    /// The carrier table: under each rule set, each `RbTag` kind's engine
    /// acts on its own carrier's messages (Bracha hands each delivery out,
    /// Counted reports a value at `t + 1` origins, Relay at `2t + 1`
    /// senders) and drops every other carrier's before it allocates.
    #[test]
    fn every_rb_tag_travels_by_its_carrier_under_every_rule_set() {
        let system = SystemConfig::new(4, 1).unwrap();
        let kinds = [
            RbTag::CbVal(CbId::ConsValid),
            RbTag::AcEst(Round::FIRST),
            RbTag::Decide,
        ];
        let value = 7u64;
        let p = ProcessId::new;
        for rules in Rules::ALL {
            for tag in kinds {
                // Each message is fed, from its sender, to a fresh engine;
                // returns the events and the state it allocated.
                let feed = |msgs: Vec<(ProcessId, RbMsg<RbTag, u64>)>| {
                    let mut rb = RbEngine::new(system, p(0), rules);
                    let events: Vec<_> = msgs
                        .into_iter()
                        .filter_map(|(from, msg)| rb.on_message(from, msg).event)
                        .collect();
                    (events, rb.live_instances())
                };
                let senders = || (0..system.n()).map(p);
                let relays = senders().map(|from| (from, RbMsg::Relay { tag, value }));
                let origin = p(1);
                let bracha = senders().flat_map(|from| {
                    [
                        (from, RbMsg::Init { tag, value }),
                        (from, RbMsg::Echo { origin, tag, value }),
                        (from, RbMsg::Ready { origin, tag, value }),
                    ]
                });
                // `2t + 1` READYs for each of `t + 1` origins.
                let delivered = (0..system.plurality()).flat_map(|o| {
                    let origin = p(o);
                    (0..system.ready_threshold())
                        .map(move |s| (p(s), RbMsg::Ready { origin, tag, value }))
                });
                let valid = vec![RbEvent::CbValid { tag, value }];
                let carrier = tag.carrier(rules);
                let other = match carrier {
                    Carrier::Bracha => {
                        let each = (0..system.plurality()).map(|o| RbEvent::RbDelivered {
                            tag,
                            origin: p(o),
                            value,
                        });
                        let own = feed(delivered.collect()).0;
                        assert_eq!(own, each.collect::<Vec<_>>(), "{rules:?} {tag:?}");
                        feed(relays.collect())
                    }
                    Carrier::Counted => {
                        assert_eq!(feed(delivered.collect()).0, valid, "{rules:?} {tag:?}");
                        feed(relays.collect())
                    }
                    Carrier::Relay => {
                        let own = feed(relays.take(system.cb_accept_threshold()).collect()).0;
                        assert_eq!(own, valid, "{rules:?} {tag:?}");
                        feed(bracha.collect())
                    }
                };
                assert_eq!(other, (vec![], 0), "{rules:?} {tag:?} by {carrier:?}");
            }
        }
    }

    #[test]
    fn every_rule_set_decides_under_random_asynchrony() {
        let topo = NetworkTopology::uniform(
            7,
            ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 25 }),
        );
        for rules in Rules::ALL {
            for seed in 0..3 {
                decide_under(rules, &[3, 3, 5, 5, 3, 5, 3], topo.clone(), seed);
            }
        }
    }

    #[test]
    fn seven_processes_two_fault_slots_all_correct() {
        decide(&[1, 1, 1, 2, 2, 2, 1], NetworkTopology::all_timely(7, 2), 3);
    }

    #[test]
    fn round_telemetry_is_emitted() {
        let report = decide(&[4, 4, 4, 4], NetworkTopology::all_timely(4, 3), 1);
        assert!(report
            .outputs
            .iter()
            .any(|o| matches!(o.event, ConsensusEvent::RoundStarted { .. })));
        assert!(report
            .outputs
            .iter()
            .any(|o| matches!(o.event, ConsensusEvent::EaReturned { fast: true, .. })));
        assert!(report.outputs.iter().any(|o| matches!(
            o.event,
            ConsensusEvent::AcReturned {
                tag: AcTag::Commit,
                ..
            }
        )));
        assert!(report
            .outputs
            .iter()
            .any(|o| matches!(o.event, ConsensusEvent::DecideBroadcast { .. })));
    }

    /// A started n = 4, t = 1 node proposing 5 under the paper's rules.
    fn started_node() -> (ConsensusNode<u64>, Ctx<u64>) {
        let system = SystemConfig::new(4, 1).unwrap();
        let mut node = ConsensusNode::new(ConsensusConfig::paper(system), 5u64).unwrap();
        let mut env: Ctx<u64> = Env::new(4, 0);
        node.on_start(&mut env);
        (node, env)
    }

    /// 2t + 1 READYs make `node` deliver `(origin, tag)`'s instance of 5.
    fn deliver(node: &mut ConsensusNode<u64>, env: &mut Ctx<u64>, origin: usize, tag: RbTag) {
        let origin = ProcessId::new(origin);
        for sender in 0..node.cfg.system.ready_threshold() {
            let ready = RbMsg::Ready {
                origin,
                tag,
                value: 5,
            };
            node.on_message(ProcessId::new(sender), ProtocolMsg::Rb(ready), env);
        }
    }

    #[test]
    fn decided_node_keeps_no_ac_state() {
        let (mut node, mut env) = started_node();
        // Line 9: DECIDE(5) from t + 1 = 2 origins.
        deliver(&mut node, &mut env, 1, RbTag::Decide);
        deliver(&mut node, &mut env, 2, RbTag::Decide);
        assert_eq!(node.decision(), Some(&5));
        // A later round's AC traffic: CB-valid AC_PROP, n − t AC_ESTs.
        let later = Round::new(7);
        let prop = RbTag::CbVal(CbId::AcProp(later));
        for origin in 1..4 {
            deliver(&mut node, &mut env, origin, prop);
            deliver(&mut node, &mut env, origin, RbTag::AcEst(later));
        }
        assert!(node.ac_rounds.is_empty(), "decided, yet AC state");
    }

    #[test]
    fn ac_traffic_waits_while_ea_runs() {
        // Line 6 starts only once line 4's EA returned: a process inside
        // round 1's EA neither sends AC_EST(1) nor returns from AC(1),
        // whatever AC traffic of that round the others' progress brings.
        let (mut node, mut env) = started_node();
        // Line 1: CB[0] returns 5 at t + 1 = 2 origins; round 1's EA runs.
        deliver(&mut node, &mut env, 1, RbTag::CbVal(CbId::ConsValid));
        deliver(&mut node, &mut env, 2, RbTag::CbVal(CbId::ConsValid));
        assert_eq!(node.phase, Phase::InEa);
        let prop = RbTag::CbVal(CbId::AcProp(Round::FIRST));
        for origin in 1..4 {
            deliver(&mut node, &mut env, origin, prop);
            deliver(&mut node, &mut env, origin, RbTag::AcEst(Round::FIRST));
        }
        assert_eq!(node.phase, Phase::InEa);
        let ac_step = env.take_buffer().into_iter().find(|e| {
            matches!(
                e,
                Effect::Broadcast {
                    msg: ProtocolMsg::Rb(RbMsg::Init {
                        tag: RbTag::AcEst(_),
                        ..
                    })
                } | Effect::Output(ConsensusEvent::AcReturned { .. })
            )
        });
        assert_eq!(ac_step, None);
    }

    /// Round-1 EA traffic in every shape a Byzantine `from` can send: the
    /// three plain messages, all three phases of a `CB_VAL` instance under
    /// `EaProp(1)`, and its relay-rule `CB(v)`, for two values.
    fn round1_ea_spray(from: ProcessId) -> Vec<ProtocolMsg<u64>> {
        let (round, tag) = (Round::FIRST, RbTag::CbVal(CbId::EaProp(Round::FIRST)));
        let origin = ProcessId::new(0);
        [5u64, 6]
            .into_iter()
            .flat_map(|value| {
                [
                    ProtocolMsg::EaProp2 { round, value },
                    ProtocolMsg::EaCoord { round, value },
                    ProtocolMsg::EaRelay {
                        round,
                        value: Some(value),
                    },
                    ProtocolMsg::EaRelay { round, value: None },
                    ProtocolMsg::Rb(RbMsg::Init { tag, value }),
                    ProtocolMsg::Rb(RbMsg::Echo {
                        origin: from,
                        tag,
                        value,
                    }),
                    ProtocolMsg::Rb(RbMsg::Ready { origin, tag, value }),
                    ProtocolMsg::Rb(RbMsg::Relay { tag, value }),
                ]
            })
            .collect()
    }

    #[test]
    fn skip_ea_node_keeps_no_state_for_round1_ea_traffic() {
        let system = SystemConfig::new(4, 1).unwrap();
        for rules in [Rules::SKIP_EA, Rules::SLOT] {
            skip_ea_keeps_no_state(ConsensusConfig {
                rules: Some(rules),
                ..ConsensusConfig::paper(system)
            });
        }
    }

    fn skip_ea_keeps_no_state(cfg: ConsensusConfig) {
        let mut node = ConsensusNode::new(cfg, 5u64).unwrap();
        let mut env: Ctx<u64> = Env::new(4, 0);
        node.on_start(&mut env);
        env.drain().for_each(drop);
        let rb = |node: &ConsensusNode<u64>| node.rb.as_ref().unwrap().live_instances();
        let instances = rb(&node);
        for from in 1..4 {
            let from = ProcessId::new(from);
            for msg in round1_ea_spray(from) {
                node.on_message(from, msg, &mut env);
            }
        }
        assert_eq!(env.drain().count(), 0, "the spray caused effects");
        assert_eq!(node.ea.live_rounds(), 0, "EA state for a round with no EA");
        assert_eq!(rb(&node), instances, "RB instances for EA_PROP1(1)");
    }

    /// A Byzantine process that sprays round-1 EA traffic at everyone on
    /// start and on every RB `INIT` another process sends it, counting the
    /// messages it sent; with `spray` off it is silent.
    struct EaSprayer {
        spray: bool,
        sent: Arc<AtomicU64>,
    }

    impl Node for EaSprayer {
        type Msg = ProtocolMsg<u64>;
        type Output = ConsensusEvent<u64>;

        fn on_start(&mut self, env: &mut Ctx<u64>) {
            if self.spray {
                for msg in round1_ea_spray(env.me()) {
                    env.broadcast(msg);
                    self.sent.fetch_add(env.n() as u64, Ordering::Relaxed);
                }
            }
        }

        fn on_message(&mut self, from: ProcessId, msg: ProtocolMsg<u64>, env: &mut Ctx<u64>) {
            if from != env.me() && matches!(msg, ProtocolMsg::Rb(RbMsg::Init { .. })) {
                self.on_start(env);
            }
        }
    }

    #[test]
    fn skip_ea_decides_in_round1_as_without_a_round1_ea_spray() {
        let system = SystemConfig::new(4, 1).unwrap();
        for rules in [Rules::SKIP_EA, Rules::SLOT] {
            skip_ea_ignores_the_spray(ConsensusConfig {
                rules: Some(rules),
                ..ConsensusConfig::paper(system)
            });
        }
    }

    fn skip_ea_ignores_the_spray(cfg: ConsensusConfig) {
        // Outputs, and messages sent by the correct processes.
        let run = |spray: bool| {
            let mut builder = SimBuilder::new(NetworkTopology::all_timely(4, 3)).seed(5);
            for p in [1u64, 2, 1] {
                builder = builder.node(ConsensusNode::new(cfg, p).unwrap());
            }
            let sent = Arc::new(AtomicU64::new(0));
            let sprayer = EaSprayer {
                spray,
                sent: Arc::clone(&sent),
            };
            let mut sim = builder.node(sprayer).build();
            let report = sim.run_until(|outs| decisions(outs).len() == 3);
            let spray = sent.load(Ordering::Relaxed);
            let correct = report.metrics.messages_sent - spray;
            (report.outputs, correct, spray)
        };
        let ((sprayed, correct, spray), (silent, silent_correct, _)) = (run(true), run(false));
        assert!(spray > 0, "the sprayer sent nothing");
        assert_eq!(
            correct, silent_correct,
            "correct processes answered the spray"
        );
        assert_eq!(
            sprayed, silent,
            "the spray changed a correct process's outputs"
        );
        assert_eq!(
            decisions(&silent),
            [1, 0, 2].map(|p| (ProcessId::new(p), 1))
        );
        let committed = silent.iter().filter(|o| {
            matches!(
                o.event,
                ConsensusEvent::AcReturned {
                    round: Round::FIRST,
                    tag: AcTag::Commit,
                    ..
                }
            )
        });
        assert_eq!(committed.count(), 3, "every process commits in round 1");
        let round1_ea = silent.iter().filter(|o| {
            matches!(
                o.event,
                ConsensusEvent::EaReturned {
                    round: Round::FIRST,
                    ..
                }
            )
        });
        assert_eq!(round1_ea.count(), 0, "EaReturned for a round with no EA");
    }

    #[test]
    fn max_rounds_stops_the_loop() {
        // One process alone cannot decide; with max_rounds it must stop
        // cleanly instead of spinning. Use 4 correct processes but a cap of
        // 0 rounds: everyone stops right after line 1.
        let system = SystemConfig::new(4, 1).unwrap();
        let cfg = ConsensusConfig {
            max_rounds: Some(0),
            ..ConsensusConfig::paper(system)
        };
        let mut builder = SimBuilder::new(NetworkTopology::all_timely(4, 3)).seed(1);
        for _ in 0..4 {
            builder = builder.node(ConsensusNode::new(cfg, 1u64).unwrap());
        }
        let mut sim = builder.build();
        let report = sim.run();
        assert!(decisions(&report.outputs).is_empty());
        assert!(!report
            .outputs
            .iter()
            .any(|o| matches!(o.event, ConsensusEvent::RoundStarted { .. })));
    }
}
