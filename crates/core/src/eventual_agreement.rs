//! The round-based eventual agreement (EA) object — Section 5, Figure 3.
//!
//! EA provides `EA_propose(r, v)`, invoked once per round by every correct
//! process with consecutive round numbers. Its guarantees are deliberately
//! weak (EA-Validity only constrains all-same-input rounds), but under the
//! ✸⟨t+1⟩bisource assumption there are infinitely many rounds in which all
//! correct processes return one value ea-proposed by a correct process
//! (EA-Eventual agreement, Lemma 3) — which is exactly what the consensus
//! layer needs to terminate.
//!
//! Per round `r` (Figure 3):
//!
//! * lines 1–3: CB-broadcast the proposal (`EA_PROP1` over RB); once the
//!   CB instance returns `aux_i`, plain-broadcast `EA_PROP2[r](aux_i)`;
//!   wait for `n − t` `EA_PROP2` whose values are CB-valid;
//! * line 4: if that witness is unanimous, return its value (fast path);
//! * line 5: otherwise arm `timer[r]` with a growing timeout;
//! * lines 11–14 (coordinator): on the first `EA_PROP2[r]` from a member
//!   of `F(r)`, champion its value by broadcasting `EA_COORD[r]`;
//! * lines 15–19 (everyone): on `EA_COORD[r]` from the coordinator — or on
//!   timer expiry — broadcast `EA_RELAY[r]` carrying the championed value,
//!   or `⊥` if the timer fired first;
//! * lines 6–10: wait for `n − t` relays; return the first non-`⊥` relay
//!   value from an `F(r)` member, else the original proposal.
//!
//! # Implementation note (line-4 fast path and liveness)
//!
//! As printed, a process returning at line 4 never executes line 5, so its
//! `timer[r]` is never armed and — with a silent (Byzantine) coordinator —
//! it never broadcasts `EA_RELAY[r]`. Rounds mixing fast and slow returns
//! could then leave slow processes short of the `n − t` relays line 6 waits
//! for. We therefore treat lines 5 and 15–19 as unconditional round
//! infrastructure: a fast-returning process still arms its timer and still
//! relays; only its return value is produced early. This changes nothing
//! for processes following the paper's main path and restores
//! EA-Termination in mixed rounds (see DESIGN.md §4).

use std::collections::BTreeMap;

use minsync_broadcast::{RbEngine, RbEvent, RbStep};
use minsync_net::{Env, Node, TimerId};
use minsync_types::{ProcSet, ProcessId, Round, RoundSchedule, SystemConfig, Value};

use crate::consensus::Rules;
use crate::messages::{CbId, ProtocolMsg, RbTag};
use crate::timeout::TimeoutPolicy;
use crate::view_sync::ViewSynchronizer;

/// Effects the host must apply after feeding the EA object.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EaAction<V> {
    /// RB-broadcast `value` under `tag` through the host's RB engine
    /// (Figure 3 line 1: `tag` is always `CbVal(EaProp(r))`).
    RbBroadcast {
        /// RB instance tag.
        tag: RbTag,
        /// Value to broadcast.
        value: V,
    },
    /// Plain best-effort broadcast (`EA_PROP2` / `EA_COORD` / `EA_RELAY`).
    Broadcast(ProtocolMsg<V>),
    /// Arm `timer[round]` with `delay` ticks (Figure 3 line 5).
    SetTimer {
        /// The round whose timer to arm.
        round: Round,
        /// Timeout in ticks.
        delay: u64,
    },
    /// Disable `timer[round]` (Figure 3 line 16).
    CancelTimer {
        /// The round whose timer to cancel.
        round: Round,
    },
    /// `EA_propose(round, ·)` returned `value`; `fast` marks the line-4
    /// unanimity path.
    Returned {
        /// The round.
        round: Round,
        /// The returned value.
        value: V,
        /// True if returned at line 4.
        fast: bool,
    },
}

/// Progress of the proposing path within one round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    /// `EA_propose` not yet invoked for this round.
    NotProposed,
    /// Line 1: waiting for the CB instance to return `aux`.
    AwaitAux,
    /// Line 3: waiting for the `n − t` CB-valid `EA_PROP2` witness.
    AwaitProp2,
    /// Line 6: waiting for `n − t` relays.
    AwaitRelays,
    /// The invocation returned (line 4, 8, or 9).
    Returned,
}

/// Per-round state. When-clause state (coordinator / relay) is independent
/// of the proposing stage: those handlers are live even for rounds this
/// process has not reached.
#[derive(Clone, Debug)]
struct EaRound<V> {
    /// Line 1's `cb_valid`, in the order the host's engine reported it.
    cb_valid: Vec<V>,
    prop2: Vec<(ProcessId, V)>,
    prop2_senders: ProcSet,
    relays: Vec<(ProcessId, Option<V>)>,
    relay_senders: ProcSet,
    champion_sent: bool,
    coord_seen: bool,
    relay_sent: bool,
    timer_armed: bool,
    timer_expired: bool,
    proposal: Option<V>,
    stage: Stage,
}

impl<V> EaRound<V> {
    fn new() -> Self {
        EaRound {
            cb_valid: Vec::new(),
            prop2: Vec::new(),
            prop2_senders: ProcSet::default(),
            relays: Vec::new(),
            relay_senders: ProcSet::default(),
            champion_sent: false,
            coord_seen: false,
            relay_sent: false,
            timer_armed: false,
            timer_expired: false,
            proposal: None,
            stage: Stage::NotProposed,
        }
    }
}

/// The multi-round EA object state machine, hosted by a network node.
///
/// All methods return the [`EaAction`]s the host must apply; the host owns
/// the RB engine and the timers. Round state is created lazily so messages
/// for future rounds are buffered correctly.
#[derive(Clone, Debug)]
pub struct EaObject<V> {
    cfg: SystemConfig,
    schedule: RoundSchedule,
    me: ProcessId,
    policy: TimeoutPolicy,
    rounds: BTreeMap<Round, EaRound<V>>,
    /// Which block of `n` rounds `f_bitmap` describes (`u64::MAX` = none).
    f_block: u64,
    /// Dense membership bitmap of the cached block's helper set `F(r)`.
    f_bitmap: Vec<bool>,
}

impl<V: Value> EaObject<V> {
    /// Creates the EA object for process `me`.
    pub fn new(
        cfg: SystemConfig,
        schedule: RoundSchedule,
        me: ProcessId,
        policy: TimeoutPolicy,
    ) -> Self {
        EaObject {
            cfg,
            schedule,
            me,
            policy,
            rounds: BTreeMap::new(),
            f_block: u64::MAX,
            f_bitmap: Vec::new(),
        }
    }

    /// Refreshes the cached `F(r)` membership bitmap. The helper set is
    /// constant within each block of `n` rounds, so the combinatorial
    /// unranking (u128 arithmetic plus a fresh tree) runs once per block
    /// instead of once per received message; membership checks become one
    /// indexed load.
    fn refresh_f(&mut self, r: Round) {
        let block = (r.get() - 1) / self.cfg.n() as u64;
        if self.f_block == block {
            return;
        }
        self.f_bitmap.clear();
        self.f_bitmap.resize(self.cfg.n(), false);
        for p in self.schedule.f_set(r) {
            self.f_bitmap[p.index()] = true;
        }
        self.f_block = block;
    }

    /// The round schedule (coordinator and `F(r)` maps).
    pub fn schedule(&self) -> &RoundSchedule {
        &self.schedule
    }

    fn round(&mut self, r: Round) -> &mut EaRound<V> {
        self.rounds.entry(r).or_insert_with(EaRound::new)
    }

    /// Invokes `EA_propose(r, value)` (Figure 3 line 1).
    ///
    /// # Panics
    ///
    /// Panics if already proposed for `r` — the paper requires one
    /// invocation per round.
    pub fn propose(&mut self, r: Round, value: V) -> Vec<EaAction<V>> {
        let round = self.round(r);
        assert!(
            round.stage == Stage::NotProposed,
            "EA_propose({r}) invoked twice"
        );
        round.proposal = Some(value.clone());
        round.stage = Stage::AwaitAux;
        let mut actions = vec![EaAction::RbBroadcast {
            tag: RbTag::CbVal(CbId::EaProp(r)),
            value,
        }];
        actions.extend(self.advance(r));
        actions
    }

    /// `value` entered round `r`'s `cb_valid` (Figure 1 line 4; the
    /// host's engine reports each value once).
    pub fn on_cb_valid(&mut self, r: Round, value: V) -> Vec<EaAction<V>> {
        self.round(r).cb_valid.push(value);
        self.advance(r)
    }

    /// Feeds a received `EA_PROP2[r]` (first per sender; §2.1 dedup).
    /// Also runs the coordinator when-clause (lines 11–14).
    pub fn on_prop2(&mut self, from: ProcessId, r: Round, value: V) -> Vec<EaAction<V>> {
        let coord = self.schedule.coordinator(r);
        self.refresh_f(r);
        let in_f = self.f_bitmap.get(from.index()).copied().unwrap_or(false);
        let me = self.me;
        let round = self.round(r);
        if !round.prop2_senders.insert(from) {
            return Vec::new();
        }
        round.prop2.push((from, value.clone()));
        let mut actions = Vec::new();
        // Lines 11–14: the coordinator champions the first EA_PROP2 it
        // receives from an F(r) member — independent of its own stage.
        if me == coord && in_f && !round.champion_sent {
            round.champion_sent = true;
            actions.push(EaAction::Broadcast(ProtocolMsg::EaCoord {
                round: r,
                value,
            }));
        }
        actions.extend(self.advance(r));
        actions
    }

    /// Feeds a received `EA_COORD[r]` (lines 15–19; only the first message
    /// from the round's coordinator counts).
    pub fn on_coord(&mut self, from: ProcessId, r: Round, value: V) -> Vec<EaAction<V>> {
        if from != self.schedule.coordinator(r) {
            return Vec::new(); // not the coordinator: discard
        }
        let round = self.round(r);
        if round.coord_seen {
            return Vec::new();
        }
        round.coord_seen = true;
        let mut actions = Vec::new();
        if !round.relay_sent {
            round.relay_sent = true;
            if round.timer_armed && !round.timer_expired {
                actions.push(EaAction::CancelTimer { round: r });
            }
            let v_coord = if round.timer_expired {
                None
            } else {
                Some(value)
            };
            actions.push(EaAction::Broadcast(ProtocolMsg::EaRelay {
                round: r,
                value: v_coord,
            }));
        }
        actions.extend(self.advance(r));
        actions
    }

    /// Feeds a received `EA_RELAY[r]` (first per sender).
    pub fn on_relay(&mut self, from: ProcessId, r: Round, value: Option<V>) -> Vec<EaAction<V>> {
        let round = self.round(r);
        if !round.relay_senders.insert(from) {
            return Vec::new();
        }
        round.relays.push((from, value));
        self.advance(r)
    }

    /// The host's `timer[r]` fired.
    pub fn on_timer_expired(&mut self, r: Round) -> Vec<EaAction<V>> {
        let round = self.round(r);
        if round.timer_expired {
            return Vec::new();
        }
        round.timer_expired = true;
        let mut actions = Vec::new();
        if !round.relay_sent {
            round.relay_sent = true;
            actions.push(EaAction::Broadcast(ProtocolMsg::EaRelay {
                round: r,
                value: None,
            }));
        }
        actions.extend(self.advance(r));
        actions
    }

    /// Drives the proposing-path state machine of round `r`.
    fn advance(&mut self, r: Round) -> Vec<EaAction<V>> {
        let quorum = self.cfg.quorum();
        let policy = self.policy;
        self.refresh_f(r);
        let f_bitmap = &self.f_bitmap;
        let round = self.rounds.entry(r).or_insert_with(EaRound::new);
        let mut actions = Vec::new();
        loop {
            match round.stage {
                Stage::NotProposed | Stage::Returned => break,
                Stage::AwaitAux => {
                    // Line 1 completes when cb_valid ≠ ∅; line 2 broadcasts
                    // EA_PROP2(aux).
                    let Some(aux) = round.cb_valid.first().cloned() else {
                        break;
                    };
                    round.stage = Stage::AwaitProp2;
                    actions.push(EaAction::Broadcast(ProtocolMsg::EaProp2 {
                        round: r,
                        value: aux,
                    }));
                }
                Stage::AwaitProp2 => {
                    // Line 3: first n−t CB-valid prop2 values, in delivery
                    // order.
                    let witness: Vec<&V> = round
                        .prop2
                        .iter()
                        .filter(|(_, v)| round.cb_valid.contains(v))
                        .map(|(_, v)| v)
                        .take(quorum)
                        .collect();
                    if witness.len() < quorum {
                        break;
                    }
                    let first = witness[0].clone();
                    if witness.iter().all(|v| **v == first) {
                        // Line 4 fast path. Per the module-level note we
                        // still arm the timer so this process keeps
                        // participating in lines 15–19.
                        round.stage = Stage::Returned;
                        if !round.relay_sent && !round.timer_armed {
                            round.timer_armed = true;
                            actions.push(EaAction::SetTimer {
                                round: r,
                                delay: policy.timeout(r),
                            });
                        }
                        actions.push(EaAction::Returned {
                            round: r,
                            value: first,
                            fast: true,
                        });
                    } else {
                        // Line 5.
                        round.stage = Stage::AwaitRelays;
                        if !round.timer_armed {
                            round.timer_armed = true;
                            actions.push(EaAction::SetTimer {
                                round: r,
                                delay: policy.timeout(r),
                            });
                        }
                    }
                }
                Stage::AwaitRelays => {
                    // Line 6.
                    if round.relays.len() < quorum {
                        break;
                    }
                    round.stage = Stage::Returned;
                    // Lines 7–9: first non-⊥ relay from an F(r) member, in
                    // delivery order; otherwise the original proposal.
                    let witness_value = round
                        .relays
                        .iter()
                        .find(|(p, v)| {
                            v.is_some() && f_bitmap.get(p.index()).copied().unwrap_or(false)
                        })
                        .and_then(|(_, v)| v.clone());
                    let value = match witness_value {
                        Some(v) => v,
                        None => round
                            .proposal
                            .clone()
                            .expect("stage AwaitRelays implies proposal set"),
                    };
                    actions.push(EaAction::Returned {
                        round: r,
                        value,
                        fast: false,
                    });
                }
            }
        }
        actions
    }

    /// Whether `EA_propose(r, ·)` has returned at this process.
    pub fn has_returned(&self, r: Round) -> bool {
        self.rounds
            .get(&r)
            .is_some_and(|round| round.stage == Stage::Returned)
    }

    /// Releases state of rounds `< before` (long-lived hosts can bound
    /// memory once a round can no longer matter to them). When-clause
    /// participation for pruned rounds stops, which is safe only after this
    /// process decided or will never need those rounds' relays again.
    pub fn prune_below(&mut self, before: Round) {
        self.rounds.retain(|&r, _| r >= before);
    }

    /// Number of live round states (diagnostics).
    pub fn live_rounds(&self) -> usize {
        self.rounds.len()
    }
}

/// Telemetry emitted by the standalone [`EaNode`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EaNodeEvent<V> {
    /// `EA_propose(round, ·)` returned.
    Returned {
        /// The round.
        round: Round,
        /// Returned value.
        value: V,
        /// Line-4 fast path?
        fast: bool,
    },
}

/// A standalone node running the EA object round after round — experiment
/// E3's workhorse.
///
/// Each round it ea-proposes its current estimate and adopts whatever the
/// round returns, mirroring how the consensus layer uses EA (minus the
/// `CB[0]` validation). Halts after `max_rounds`.
#[derive(Debug)]
pub struct EaNode<V> {
    cfg: SystemConfig,
    estimate: V,
    max_rounds: u64,
    rb: Option<RbEngine<RbTag, V>>,
    ea: EaObject<V>,
    /// Round position + round-timer ownership.
    sync: ViewSynchronizer,
}

type EaCtx<V> = Env<ProtocolMsg<V>, EaNodeEvent<V>>;

impl<V: Value> EaNode<V> {
    /// Creates the node with its initial estimate.
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds == 0`.
    pub fn new(
        cfg: SystemConfig,
        schedule: RoundSchedule,
        me: ProcessId,
        policy: TimeoutPolicy,
        estimate: V,
        max_rounds: u64,
    ) -> Self {
        assert!(max_rounds > 0, "need at least one round");
        EaNode {
            cfg,
            estimate,
            max_rounds,
            rb: None,
            ea: EaObject::new(cfg, schedule, me, policy),
            sync: ViewSynchronizer::default(),
        }
    }

    fn apply(&mut self, actions: Vec<EaAction<V>>, env: &mut EaCtx<V>) {
        for action in actions {
            match action {
                EaAction::RbBroadcast { tag, value } => {
                    let rb = self.rb.as_mut().expect("started");
                    if let Some(init) = rb.broadcast(tag, value) {
                        env.broadcast(ProtocolMsg::Rb(init));
                    }
                }
                EaAction::Broadcast(msg) => env.broadcast(msg),
                EaAction::SetTimer { round, delay } => {
                    self.sync.arm(round, delay, env);
                }
                EaAction::CancelTimer { round } => {
                    self.sync.cancel(round, env);
                }
                EaAction::Returned { round, value, fast } => {
                    self.estimate = value.clone();
                    env.output(EaNodeEvent::Returned { round, value, fast });
                    if round.get() >= self.max_rounds {
                        env.halt();
                    } else if round == self.sync.current() {
                        self.sync.advance_to(round.next());
                        let next = self.ea.propose(self.sync.current(), self.estimate.clone());
                        self.apply(next, env);
                    }
                }
            }
        }
    }

    fn apply_rb(&mut self, step: RbStep<RbTag, V>, env: &mut EaCtx<V>) {
        if let Some(m) = step.broadcast {
            env.broadcast(ProtocolMsg::Rb(m));
        }
        if let Some(RbEvent::CbValid {
            tag: RbTag::CbVal(CbId::EaProp(r)),
            value,
        }) = step.event
        {
            let actions = self.ea.on_cb_valid(r, value);
            self.apply(actions, env);
        }
    }
}

impl<V: Value> Node for EaNode<V> {
    type Msg = ProtocolMsg<V>;
    type Output = EaNodeEvent<V>;

    fn on_start(&mut self, env: &mut EaCtx<V>) {
        self.rb = Some(RbEngine::new(self.cfg, env.me(), Rules::PAPER));
        let actions = self.ea.propose(Round::FIRST, self.estimate.clone());
        self.apply(actions, env);
    }

    fn on_message(&mut self, from: ProcessId, msg: ProtocolMsg<V>, env: &mut EaCtx<V>) {
        match msg {
            ProtocolMsg::Rb(rb_msg) => {
                if let Some(rb) = self.rb.as_mut() {
                    let step = rb.on_message(from, rb_msg);
                    self.apply_rb(step, env);
                }
            }
            ProtocolMsg::EaProp2 { round, value } => {
                let actions = self.ea.on_prop2(from, round, value);
                self.apply(actions, env);
            }
            ProtocolMsg::EaCoord { round, value } => {
                let actions = self.ea.on_coord(from, round, value);
                self.apply(actions, env);
            }
            ProtocolMsg::EaRelay { round, value } => {
                let actions = self.ea.on_relay(from, round, value);
                self.apply(actions, env);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, env: &mut EaCtx<V>) {
        if let Some(round) = self.sync.expire(timer) {
            let actions = self.ea.on_timer_expired(round);
            self.apply(actions, env);
        }
    }

    fn label(&self) -> &'static str {
        "eventual-agreement"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::new(4, 1).unwrap()
    }

    fn ea(me: usize) -> EaObject<u64> {
        let c = cfg();
        EaObject::new(
            c,
            RoundSchedule::new(&c, 0).unwrap(),
            ProcessId::new(me),
            TimeoutPolicy::paper(),
        )
    }

    #[test]
    fn propose_emits_rb_broadcast() {
        let mut obj = ea(0);
        let acts = obj.propose(Round::FIRST, 5);
        assert_eq!(
            acts,
            vec![EaAction::RbBroadcast {
                tag: RbTag::CbVal(CbId::EaProp(Round::FIRST)),
                value: 5
            }]
        );
    }

    #[test]
    #[should_panic(expected = "invoked twice")]
    fn double_propose_rejected() {
        let mut obj = ea(0);
        let _ = obj.propose(Round::FIRST, 5);
        let _ = obj.propose(Round::FIRST, 5);
    }

    #[test]
    fn aux_then_prop2_broadcast() {
        let mut obj = ea(0);
        let r = Round::FIRST;
        let _ = obj.propose(r, 5);
        let acts = obj.on_cb_valid(r, 5);
        assert!(
            acts.contains(&EaAction::Broadcast(ProtocolMsg::EaProp2 {
                round: r,
                value: 5
            })),
            "line 2 must fire once aux is available: {acts:?}"
        );
    }

    #[test]
    fn unanimous_witness_returns_fast_and_still_arms_timer() {
        let mut obj = ea(0);
        let r = Round::FIRST;
        let _ = obj.propose(r, 5);
        let _ = obj.on_cb_valid(r, 5);
        let mut acts = Vec::new();
        for p in 0..3 {
            acts.extend(obj.on_prop2(ProcessId::new(p), r, 5));
        }
        assert!(acts.iter().any(|a| matches!(
            a,
            EaAction::Returned {
                value: 5,
                fast: true,
                ..
            }
        )));
        // Liveness bridge: the timer is armed anyway.
        assert!(acts.iter().any(|a| matches!(a, EaAction::SetTimer { .. })));
    }

    #[test]
    fn mixed_witness_arms_timer_no_return() {
        let mut obj = ea(0);
        let r = Round::FIRST;
        let _ = obj.propose(r, 5);
        let _ = obj.on_cb_valid(r, 5);
        let _ = obj.on_cb_valid(r, 9);
        let mut acts = Vec::new();
        acts.extend(obj.on_prop2(ProcessId::new(0), r, 5));
        acts.extend(obj.on_prop2(ProcessId::new(1), r, 9));
        acts.extend(obj.on_prop2(ProcessId::new(2), r, 5));
        assert!(acts
            .iter()
            .any(|a| matches!(a, EaAction::SetTimer { delay: 1, .. })));
        assert!(!acts.iter().any(|a| matches!(a, EaAction::Returned { .. })));
    }

    #[test]
    fn invalid_prop2_values_never_qualify() {
        let mut obj = ea(1); // p2: not round 1's coordinator
        let r = Round::FIRST;
        let _ = obj.propose(r, 5);
        let _ = obj.on_cb_valid(r, 5);
        let mut acts = Vec::new();
        // 99 never becomes valid: three junk prop2s don't complete line 3.
        for p in 0..3 {
            acts.extend(obj.on_prop2(ProcessId::new(p), r, 99));
        }
        assert!(acts.is_empty());
    }

    #[test]
    fn coordinator_champions_first_f_member_prop2() {
        // Round 1 of n=4: coordinator p1 (index 0), F = {p1,p2,p3}.
        let mut obj = ea(0);
        let r = Round::FIRST;
        // No propose needed: lines 11–14 are a when-clause.
        let acts = obj.on_prop2(ProcessId::new(2), r, 7);
        assert!(acts.contains(&EaAction::Broadcast(ProtocolMsg::EaCoord {
            round: r,
            value: 7
        })));
        // Second F-member prop2 must not re-champion.
        let acts = obj.on_prop2(ProcessId::new(1), r, 8);
        assert!(!acts
            .iter()
            .any(|a| matches!(a, EaAction::Broadcast(ProtocolMsg::EaCoord { .. }))));
    }

    #[test]
    fn non_coordinator_never_champions() {
        let mut obj = ea(1); // p2 is not coordinator of round 1
        let acts = obj.on_prop2(ProcessId::new(2), Round::FIRST, 7);
        assert!(acts.is_empty());
    }

    #[test]
    fn prop2_from_outside_f_does_not_trigger_champion() {
        // Round 1, n=4: F(1) = {p1,p2,p3}; p4 (index 3) is outside.
        let mut obj = ea(0);
        let acts = obj.on_prop2(ProcessId::new(3), Round::FIRST, 7);
        assert!(acts.is_empty());
    }

    #[test]
    fn coord_message_triggers_relay_and_cancels_timer() {
        let mut obj = ea(1);
        let r = Round::FIRST;
        let _ = obj.propose(r, 5);
        let _ = obj.on_cb_valid(r, 5);
        let _ = obj.on_cb_valid(r, 9);
        let mut acts = Vec::new();
        acts.extend(obj.on_prop2(ProcessId::new(0), r, 5));
        acts.extend(obj.on_prop2(ProcessId::new(1), r, 9));
        acts.extend(obj.on_prop2(ProcessId::new(2), r, 5));
        assert!(acts.iter().any(|a| matches!(a, EaAction::SetTimer { .. })));
        // Coordinator of round 1 is p1 (index 0).
        let acts = obj.on_coord(ProcessId::new(0), r, 9);
        assert!(acts.contains(&EaAction::CancelTimer { round: r }));
        assert!(acts.contains(&EaAction::Broadcast(ProtocolMsg::EaRelay {
            round: r,
            value: Some(9)
        })));
    }

    #[test]
    fn coord_from_wrong_sender_ignored() {
        let mut obj = ea(1);
        let acts = obj.on_coord(ProcessId::new(2), Round::FIRST, 9);
        assert!(acts.is_empty(), "only coord(r) may champion");
    }

    #[test]
    fn timer_expiry_relays_bottom() {
        let mut obj = ea(1);
        let r = Round::FIRST;
        let acts = obj.on_timer_expired(r);
        assert!(acts.contains(&EaAction::Broadcast(ProtocolMsg::EaRelay {
            round: r,
            value: None
        })));
        // EA_COORD arriving after expiry changes nothing (relay already out).
        let acts = obj.on_coord(ProcessId::new(0), r, 9);
        assert!(acts.is_empty());
    }

    #[test]
    fn relay_quorum_returns_f_member_value() {
        let mut obj = ea(1);
        let r = Round::FIRST;
        let _ = obj.propose(r, 5);
        let _ = obj.on_cb_valid(r, 5);
        let _ = obj.on_cb_valid(r, 9);
        let _ = obj.on_prop2(ProcessId::new(0), r, 5);
        let _ = obj.on_prop2(ProcessId::new(1), r, 9);
        let _ = obj.on_prop2(ProcessId::new(2), r, 5);
        // Three relays; the non-⊥ one from F(1) = {p1,p2,p3} wins.
        let mut acts = Vec::new();
        acts.extend(obj.on_relay(ProcessId::new(3), r, None));
        acts.extend(obj.on_relay(ProcessId::new(0), r, Some(9)));
        acts.extend(obj.on_relay(ProcessId::new(2), r, None));
        assert!(
            acts.iter().any(|a| matches!(
                a,
                EaAction::Returned {
                    value: 9,
                    fast: false,
                    ..
                }
            )),
            "{acts:?}"
        );
    }

    #[test]
    fn all_bottom_relays_return_own_proposal() {
        let mut obj = ea(1);
        let r = Round::FIRST;
        let _ = obj.propose(r, 5);
        let _ = obj.on_cb_valid(r, 5);
        let _ = obj.on_cb_valid(r, 9);
        let _ = obj.on_prop2(ProcessId::new(0), r, 5);
        let _ = obj.on_prop2(ProcessId::new(1), r, 9);
        let _ = obj.on_prop2(ProcessId::new(2), r, 5);
        let mut acts = Vec::new();
        for p in 0..3 {
            acts.extend(obj.on_relay(ProcessId::new(p), r, None));
        }
        assert!(
            acts.iter().any(|a| matches!(
                a,
                EaAction::Returned {
                    value: 5,
                    fast: false,
                    ..
                }
            )),
            "line 9 must return the ea-proposed value: {acts:?}"
        );
    }

    #[test]
    fn non_f_member_relay_value_is_ignored_for_line7() {
        let mut obj = ea(1);
        let r = Round::FIRST;
        let _ = obj.propose(r, 5);
        let _ = obj.on_cb_valid(r, 5);
        let _ = obj.on_cb_valid(r, 9);
        let _ = obj.on_prop2(ProcessId::new(0), r, 5);
        let _ = obj.on_prop2(ProcessId::new(1), r, 9);
        let _ = obj.on_prop2(ProcessId::new(2), r, 5);
        // p4 ∉ F(1): its non-⊥ relay must not be selected.
        let mut acts = Vec::new();
        acts.extend(obj.on_relay(ProcessId::new(3), r, Some(77)));
        acts.extend(obj.on_relay(ProcessId::new(0), r, None));
        acts.extend(obj.on_relay(ProcessId::new(1), r, None));
        assert!(
            acts.iter().any(|a| matches!(
                a,
                EaAction::Returned {
                    value: 5,
                    fast: false,
                    ..
                }
            )),
            "{acts:?}"
        );
    }

    #[test]
    fn duplicate_prop2_and_relay_senders_discarded() {
        let mut obj = ea(1);
        let r = Round::FIRST;
        let _ = obj.on_prop2(ProcessId::new(2), r, 7);
        let acts = obj.on_prop2(ProcessId::new(2), r, 8);
        assert!(acts.is_empty());
        let _ = obj.on_relay(ProcessId::new(2), r, Some(1));
        let acts = obj.on_relay(ProcessId::new(2), r, Some(2));
        assert!(acts.is_empty());
    }

    #[test]
    fn prune_below_drops_old_rounds() {
        let mut obj = ea(0);
        for r in 1..=5u64 {
            let _ = obj.on_prop2(ProcessId::new(1), Round::new(r), 1);
        }
        assert_eq!(obj.live_rounds(), 5);
        obj.prune_below(Round::new(4));
        assert_eq!(obj.live_rounds(), 2);
    }

    #[test]
    fn messages_for_future_rounds_buffer() {
        let mut obj = ea(0);
        let future = Round::new(10);
        let _ = obj.on_prop2(ProcessId::new(1), future, 5);
        let _ = obj.on_cb_valid(future, 5);
        let _ = obj.on_prop2(ProcessId::new(2), future, 5);
        // Now propose: the buffered state counts immediately; one more
        // prop2 completes the witness.
        let acts = obj.propose(future, 5);
        assert!(acts
            .iter()
            .any(|a| matches!(a, EaAction::Broadcast(ProtocolMsg::EaProp2 { .. }))));
        let acts = obj.on_prop2(ProcessId::new(3), future, 5);
        assert!(
            acts.iter().any(|a| matches!(
                a,
                EaAction::Returned {
                    value: 5,
                    fast: true,
                    ..
                }
            )),
            "{acts:?}"
        );
    }
}
