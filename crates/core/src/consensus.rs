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

use std::collections::BTreeMap;

use minsync_broadcast::{CbInstance, RbAction, RbActions, RbEngine};
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
}

impl ConsensusConfig {
    /// The paper's defaults: `k = 0`, `timer[r] = r`, unbounded rounds.
    pub fn paper(system: SystemConfig) -> Self {
        ConsensusConfig {
            system,
            k: 0,
            timeout: TimeoutPolicy::paper(),
            max_rounds: None,
            mutation: None,
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
    /// Line 6, first half (Figure 2 line 1): waiting for the AC round's CB.
    AwaitAcCb,
    /// Line 6, second half (Figure 2 line 3): waiting for the AC witness.
    AwaitAcEst,
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
    proposal: V,
    me: Option<ProcessId>,
    rb: Option<RbEngine<RbTag, V>>,
    /// `CB[0]` of line 1.
    cb0: CbInstance<V>,
    ea: EaObject<V>,
    ac_rounds: BTreeMap<Round, AcRound<V>>,
    /// Counts RB-delivered `DECIDE(v)` per value; `t + 1` triggers decision.
    decide_votes: CbInstance<V>,
    est: V,
    phase: Phase,
    /// Round advancement + round-timer ownership (see [`ViewSynchronizer`]).
    sync: ViewSynchronizer,
    decide_broadcast: bool,
    decided: Option<V>,
}

type Ctx<V> = Env<ProtocolMsg<V>, ConsensusEvent<V>>;

impl<V: Value> ConsensusNode<V> {
    /// Creates a node that will propose `proposal`.
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
            proposal: proposal.clone(),
            me: None,
            rb: None,
            cb0: CbInstance::new(cfg.system),
            // `me` is patched in on_start; placeholder id 0 is fine because
            // the EA object is rebuilt there.
            ea: EaObject::new(cfg.system, schedule, ProcessId::new(0), cfg.timeout),
            ac_rounds: BTreeMap::new(),
            decide_votes: CbInstance::new(cfg.system),
            est: proposal,
            phase: Phase::AwaitValid,
            sync: ViewSynchronizer::new(cfg.timeout),
            decide_broadcast: false,
            decided: None,
        })
    }

    /// The decided value, if this process has decided.
    pub fn decision(&self) -> Option<&V> {
        self.decided.as_ref()
    }

    /// The round the loop is currently in.
    pub fn current_round(&self) -> Round {
        self.sync.current()
    }

    /// The view synchronizer (round position + live round timers) — exposed
    /// for harness/telemetry inspection.
    pub fn synchronizer(&self) -> &ViewSynchronizer {
        &self.sync
    }

    /// The current estimate `est_i`.
    pub fn estimate(&self) -> &V {
        &self.est
    }

    // ------------------------------------------------------------------
    // Effect plumbing
    // ------------------------------------------------------------------

    fn rb_broadcast(&mut self, tag: RbTag, value: V, env: &mut Ctx<V>) {
        let rb = self.rb.as_mut().expect("rb engine initialized at start");
        let actions = rb.broadcast(tag, value);
        self.apply_rb(actions, env);
    }

    fn apply_rb(&mut self, actions: RbActions<RbTag, V>, env: &mut Ctx<V>) {
        for action in actions {
            match action {
                RbAction::Broadcast(m) => env.broadcast(ProtocolMsg::Rb(m)),
                RbAction::Deliver { origin, tag, value } => {
                    self.on_rb_delivered(origin, tag, value, env)
                }
            }
        }
    }

    fn apply_ea(&mut self, actions: Vec<EaAction<V>>, env: &mut Ctx<V>) {
        for action in actions {
            match action {
                EaAction::RbBroadcast { tag, value } => self.rb_broadcast(tag, value, env),
                EaAction::Broadcast(msg) => env.broadcast(msg),
                EaAction::SetTimer { round, delay } => {
                    self.sync.arm_with(round, delay, env);
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

    fn on_rb_delivered(&mut self, origin: ProcessId, tag: RbTag, value: V, env: &mut Ctx<V>) {
        match tag {
            RbTag::CbVal(CbId::ConsValid) => {
                self.cb0.on_rb_delivered(origin, value);
                if self.phase == Phase::AwaitValid {
                    self.try_leave_line1(env);
                }
            }
            RbTag::CbVal(CbId::EaProp(r)) => {
                if self.decided.is_none() {
                    let acts = self.ea.on_cb_val_delivered(origin, r, value);
                    self.apply_ea(acts, env);
                }
            }
            RbTag::CbVal(CbId::AcProp(r)) => {
                self.ac_round(r).on_cb_val_delivered(origin, value);
                self.try_advance_ac(r, env);
            }
            RbTag::AcEst(r) => {
                self.ac_round(r).on_est_delivered(origin, value);
                self.try_advance_ac(r, env);
            }
            RbTag::Decide => {
                if let Some(v) = self.decide_votes.on_rb_delivered(origin, value) {
                    self.on_decided(v, env);
                }
            }
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

    /// Line 1 completion: `CB[0]` returned → enter round 1.
    fn try_leave_line1(&mut self, env: &mut Ctx<V>) {
        debug_assert_eq!(self.phase, Phase::AwaitValid);
        let Some(v) = self.cb0.returnable().cloned() else {
            return;
        };
        self.est = v;
        self.enter_round(Round::FIRST, env);
    }

    /// Lines 3–4: start round `r` and `EA_propose(r, est)`.
    fn enter_round(&mut self, r: Round, env: &mut Ctx<V>) {
        if let Some(max) = self.cfg.max_rounds {
            if r.get() > max {
                self.phase = Phase::Stopped;
                return;
            }
        }
        self.sync.advance_to(r);
        self.phase = Phase::InEa;
        env.output(ConsensusEvent::RoundStarted { round: r });
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
        if self.cb0.is_valid(&value) {
            self.est = value.clone();
        }
        env.output(ConsensusEvent::EaReturned { round, value, fast });
        // Line 6, Figure 2 line 1: CB-broadcast AC_PROP(est).
        self.phase = Phase::AwaitAcCb;
        self.ac_round(round); // materialize
        self.rb_broadcast(RbTag::CbVal(CbId::AcProp(round)), self.est.clone(), env);
        self.try_advance_ac(round, env);
    }

    fn try_advance_ac(&mut self, r: Round, env: &mut Ctx<V>) {
        if self.decided.is_some() || r != self.sync.current() {
            return;
        }
        if self.phase == Phase::AwaitAcCb {
            let Some(est2) = self.ac_round(r).cb_returnable().cloned() else {
                return;
            };
            // Figure 2 lines 1–2: the CB-returned value becomes the
            // estimate RB-broadcast as AC_EST.
            self.ac_round(r).mark_est_sent();
            self.phase = Phase::AwaitAcEst;
            self.rb_broadcast(RbTag::AcEst(r), est2, env);
            // rb_broadcast may have recursed into try_advance_ac and
            // completed the round; re-check the phase before continuing.
            if self.phase != Phase::AwaitAcEst || self.sync.current() != r {
                return;
            }
        }
        if self.phase == Phase::AwaitAcEst {
            let Some((tag, mfa)) = self.ac_round(r).try_complete() else {
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
                if self.decided.is_some() {
                    return;
                }
            }
            // Line 8: next round.
            self.enter_round(r.next(), env);
        }
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
        self.me = Some(me);
        self.rb = Some(RbEngine::new(self.cfg.system, me));
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
        match msg {
            ProtocolMsg::Rb(rb_msg) => {
                // The RB layer is serviced forever — even after deciding —
                // so other correct processes retain RB-Termination-2.
                if let Some(rb) = self.rb.as_mut() {
                    let actions = rb.on_message(from, rb_msg);
                    self.apply_rb(actions, env);
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
    use minsync_net::sim::{OutputRecord, RunReport, SimBuilder};
    use minsync_net::{ChannelTiming, DelayLaw, NetworkTopology};
    use minsync_types::check;

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
        let n = proposals.len();
        let cfg = ConsensusConfig::paper(SystemConfig::new(n, (n - 1) / 3).unwrap());
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
