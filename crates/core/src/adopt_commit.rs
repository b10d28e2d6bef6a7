//! The Byzantine adopt-commit object — Section 3, Figure 2.
//!
//! Adopt-commit encapsulates the *safety* half of agreement: it never lets
//! two correct processes leave with contradictory commitments
//! (AC-Quasi-agreement), forces a committed value whenever the correct
//! processes already agree (AC-Obligation), and never emits a value only
//! Byzantine processes proposed (AC-Output domain). One AC object guards
//! each consensus round.
//!
//! Figure 2, for process `p_i`:
//!
//! 1. `est_i ← CB_broadcast AC_PROP(v_i)` — run a CB instance; the value it
//!    returns (a value proposed by a *correct* process) becomes the
//!    estimate;
//! 2. `RB_broadcast AC_EST(est_i)`;
//! 3. wait until `AC_EST` messages were RB-delivered from `n − t` different
//!    processes **and** their values belong to `cb_valid_i` (both sides of
//!    the predicate are monotone: deliveries accumulate and `cb_valid` only
//!    grows, so the wait is re-evaluated on each event);
//! 4. `MFA_i ←` most frequent value among that witness set;
//! 5. return `⟨commit, MFA_i⟩` if the witness is unanimous, else
//!    `⟨adopt, MFA_i⟩`.
//!
//! [`AcRound`] runs these lines for one round: its host feeds it the CB
//! and RB events and applies the [`AcStep`]s it hands back. The consensus
//! automaton hosts one per round; [`AcNode`] wraps a single one as a
//! standalone network node for the E2 experiments.

use std::collections::BTreeMap;

use minsync_broadcast::{RbEngine, RbEvent, RbStep};
use minsync_net::{Env, Node};
use minsync_types::{ProcSet, ProcessId, Round, SystemConfig, Value};

use crate::consensus::Rules;
use crate::events::AcTag;
use crate::messages::{CbId, ProtocolMsg, RbTag};

/// Result of an adopt-commit invocation: the tag and the (most frequent)
/// value.
pub type AcOutcome<V> = (AcTag, V);

/// What one [`AcRound::advance`] hands its host. Over the object's life
/// each field is `Some` at most once, and `returned` never before `est`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AcStep<V> {
    /// Lines 1–2: the value line 1's CB returned, to RB-broadcast as
    /// `AC_EST`.
    pub est: Option<V>,
    /// Lines 4–7: the object's return.
    pub returned: Option<AcOutcome<V>>,
}

/// One adopt-commit object: Figure 2 for one process and one round.
///
/// The host performs the broadcasts and its engine counts the `AC_PROP` CB
/// instance; `AcRound` holds the values that CB reported valid (line 1),
/// the RB-delivered estimates (line 3's wait), and the order of the lines:
/// [`advance`](Self::advance) says what the host must do next.
#[derive(Clone, Debug)]
pub struct AcRound<V> {
    cfg: SystemConfig,
    /// Line 1's `cb_valid` (`AC_PROP` values), in the order they became
    /// valid.
    cb_valid: Vec<V>,
    /// RB-delivered `AC_EST` values in delivery order (first per origin —
    /// RB-Unicity makes later ones impossible anyway).
    ests: Vec<(ProcessId, V)>,
    est_senders: ProcSet,
    /// Set once lines 1–2 were handed out.
    est_sent: bool,
    /// Set once lines 4–7 were handed out.
    returned: bool,
    /// Witness size used by line 3 instead of `cfg.quorum()`, when set.
    ///
    /// This exists solely so the conformance suite can seed a deliberately
    /// broken adopt-commit (witness of `n − t − 1`) and prove the schedule
    /// explorer catches the resulting agreement violation. Production
    /// constructors never set it.
    quorum_override: Option<usize>,
}

impl<V: Value> AcRound<V> {
    /// Fresh state for one AC object.
    pub fn new(cfg: SystemConfig) -> Self {
        AcRound {
            cfg,
            cb_valid: Vec::new(),
            ests: Vec::new(),
            est_senders: ProcSet::default(),
            est_sent: false,
            returned: false,
            quorum_override: None,
        }
    }

    /// Replaces the line-3 witness size with `quorum` — a deliberately
    /// *unsound* knob for mutation testing (see the field docs). Passing
    /// anything below `cfg.quorum()` breaks AC-Quasi-agreement.
    #[must_use]
    pub fn with_quorum_override(mut self, quorum: usize) -> Self {
        self.quorum_override = Some(quorum);
        self
    }

    /// `value` entered this AC's `cb_valid` (Figure 1 line 4 applied to
    /// the `AC_PROP` exchange; the host's engine reports each value once).
    pub fn on_cb_valid(&mut self, value: V) {
        self.cb_valid.push(value);
    }

    /// The CB instance's current valid set, in the order it grew.
    pub fn cb_valid(&self) -> &[V] {
        &self.cb_valid
    }

    /// Feeds an RB delivery of `AC_EST(value)` from `from` (line 3).
    pub fn on_est_delivered(&mut self, from: ProcessId, value: V) {
        if self.est_senders.insert(from) {
            self.ests.push((from, value));
        }
    }

    /// Runs Figure 2 as far as the inputs so far allow. Line 1 returns once
    /// `cb_valid ≠ ∅`, with the first value that became valid, which
    /// line 2 RB-broadcasts; from then on, once line 3's wait holds,
    /// lines 4–7 return. Each is handed out once, so the host calls this
    /// after every input and applies what it gets.
    pub fn advance(&mut self) -> AcStep<V> {
        let est = self.cb_valid.first().filter(|_| !self.est_sent).cloned();
        self.est_sent |= est.is_some();
        let pending = self.est_sent && !self.returned;
        let returned = pending.then(|| self.witness_outcome()).flatten();
        self.returned |= returned.is_some();
        AcStep { est, returned }
    }

    /// Line 3's wait and, if it holds, lines 4–7.
    ///
    /// The witness set is the first `n − t` RB-delivered estimates (in
    /// delivery order) whose values are in `cb_valid` — a deterministic
    /// refinement of the paper's "the previous `(n−t)` messages".
    fn witness_outcome(&self) -> Option<AcOutcome<V>> {
        let quorum = self.quorum_override.unwrap_or_else(|| self.cfg.quorum());
        let witness: Vec<&V> = self
            .ests
            .iter()
            .filter(|(_, v)| self.cb_valid.contains(v))
            .map(|(_, v)| v)
            .take(quorum)
            .collect();
        if witness.len() < quorum {
            return None;
        }
        // Line 4: most frequent value; ties broken by smallest value so the
        // choice is deterministic ("if several, pi takes any of them").
        let mut counts: BTreeMap<&V, usize> = BTreeMap::new();
        for v in &witness {
            *counts.entry(v).or_insert(0) += 1;
        }
        let (mfa, count) = counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(v, c)| ((*v).clone(), *c))
            .expect("witness is non-empty");
        let tag = if count == quorum {
            AcTag::Commit
        } else {
            AcTag::Adopt
        };
        Some((tag, mfa))
    }

    /// Number of distinct `AC_EST` origins delivered so far.
    pub fn est_count(&self) -> usize {
        self.ests.len()
    }
}

/// Telemetry emitted by the standalone [`AcNode`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AcNodeEvent<V> {
    /// The AC object returned.
    Returned {
        /// Commit or adopt.
        tag: AcTag,
        /// The value.
        value: V,
    },
}

/// A standalone network node running a single `AC_propose(value)` call —
/// the paper's Figure 2 executed in isolation (experiment E2).
///
/// Message type is the full [`ProtocolMsg`] (EA messages are ignored), so
/// the same Byzantine behavior library applies.
#[derive(Debug)]
pub struct AcNode<V> {
    cfg: SystemConfig,
    rules: Rules,
    proposal: V,
    rb: Option<RbEngine<RbTag, V>>,
    ac: AcRound<V>,
}

type AcCtx<V> = Env<ProtocolMsg<V>, AcNodeEvent<V>>;

/// The standalone object's tags: round 1's `AC_PROP` CB and `AC_EST` RB.
const AC_PROP: RbTag = RbTag::CbVal(CbId::AcProp(Round::FIRST));
const AC_EST: RbTag = RbTag::AcEst(Round::FIRST);

impl<V: Value> AcNode<V> {
    /// A node that will propose `proposal` at start, its tags carried as
    /// `rules` name.
    pub fn new(cfg: SystemConfig, rules: Rules, proposal: V) -> Self {
        AcNode {
            cfg,
            rules,
            proposal,
            rb: None,
            ac: AcRound::new(cfg),
        }
    }

    fn apply(&mut self, step: RbStep<RbTag, V>, env: &mut AcCtx<V>) {
        if let Some(m) = step.broadcast {
            env.broadcast(ProtocolMsg::Rb(m));
        }
        match step.event {
            Some(RbEvent::CbValid { tag, value }) if tag == AC_PROP => self.ac.on_cb_valid(value),
            Some(RbEvent::RbDelivered { tag, origin, value }) if tag == AC_EST => {
                self.ac.on_est_delivered(origin, value)
            }
            _ => {}
        }
        let step = self.ac.advance();
        if let Some(est) = step.est {
            let rb = self.rb.as_mut().expect("started");
            if let Some(init) = rb.broadcast(AC_EST, est) {
                env.broadcast(ProtocolMsg::Rb(init));
            }
        }
        if let Some((tag, value)) = step.returned {
            env.output(AcNodeEvent::Returned { tag, value });
        }
    }
}

impl<V: Value> Node for AcNode<V> {
    type Msg = ProtocolMsg<V>;
    type Output = AcNodeEvent<V>;

    fn on_start(&mut self, env: &mut AcCtx<V>) {
        let rb = self
            .rb
            .insert(RbEngine::new(self.cfg, env.me(), self.rules));
        if let Some(init) = rb.broadcast(AC_PROP, self.proposal.clone()) {
            env.broadcast(ProtocolMsg::Rb(init));
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: ProtocolMsg<V>, env: &mut AcCtx<V>) {
        if let (ProtocolMsg::Rb(rb_msg), Some(rb)) = (msg, self.rb.as_mut()) {
            let step = rb.on_message(from, rb_msg);
            self.apply(step, env);
        }
    }

    fn label(&self) -> &'static str {
        "adopt-commit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::new(4, 1).unwrap()
    }

    /// Every mentioned value CB-valid, in first-mention order.
    fn round_with_cb(values: &[(usize, u64)]) -> AcRound<u64> {
        let mut ac = AcRound::new(cfg());
        for &(_, v) in values {
            if !ac.cb_valid().contains(&v) {
                ac.on_cb_valid(v);
            }
        }
        ac
    }

    const NOTHING: AcStep<u64> = AcStep {
        est: None,
        returned: None,
    };

    #[test]
    fn cb_valid_gates_line1() {
        let mut ac: AcRound<u64> = AcRound::new(cfg());
        assert_eq!(ac.advance(), NOTHING);
        ac.on_cb_valid(9);
        ac.on_cb_valid(4);
        assert_eq!(ac.advance().est, Some(9), "the first valid value");
        assert_eq!(ac.advance(), NOTHING, "line 2 runs once");
    }

    #[test]
    fn unanimous_witness_commits() {
        let mut ac = round_with_cb(&[(0, 5), (1, 5), (2, 5)]);
        for p in 0..3 {
            ac.on_est_delivered(ProcessId::new(p), 5);
        }
        assert_eq!(ac.advance().returned, Some((AcTag::Commit, 5)));
    }

    #[test]
    fn mixed_witness_adopts_most_frequent() {
        let mut ac = round_with_cb(&[(0, 5), (1, 5), (2, 7)]);
        ac.on_est_delivered(ProcessId::new(0), 5);
        ac.on_est_delivered(ProcessId::new(1), 7);
        ac.on_est_delivered(ProcessId::new(2), 5);
        assert_eq!(ac.advance().returned, Some((AcTag::Adopt, 5)));
    }

    #[test]
    fn tie_breaks_deterministically_to_smallest() {
        // n = 13, t = 3 → quorum 10, plurality 4, m_max = 3: three values
        // can be valid simultaneously (each backed by 4 distinct origins).
        let cfg13 = SystemConfig::new(13, 3).unwrap();
        let mut ac: AcRound<u64> = AcRound::new(cfg13);
        for v in [1u64, 2, 3] {
            ac.on_cb_valid(v);
        }
        // Witness of 10: four 2s, four 1s, two 3s → tie between 1 and 2.
        for (p, v) in [
            (0, 2u64),
            (1, 2),
            (2, 2),
            (3, 2),
            (4, 1),
            (5, 1),
            (6, 1),
            (7, 1),
            (8, 3),
            (9, 3),
        ] {
            ac.on_est_delivered(ProcessId::new(p), v);
        }
        // Tie between 1 and 2 → smallest (1) wins.
        assert_eq!(ac.advance().returned, Some((AcTag::Adopt, 1)));
    }

    #[test]
    fn invalid_values_do_not_qualify() {
        let mut ac = round_with_cb(&[(0, 5)]);
        // 99 is not CB-valid: these deliveries never qualify.
        ac.on_est_delivered(ProcessId::new(0), 99);
        ac.on_est_delivered(ProcessId::new(1), 99);
        ac.on_est_delivered(ProcessId::new(2), 99);
        assert_eq!(ac.advance().returned, None);
        // Valid ones eventually arrive.
        ac.on_est_delivered(ProcessId::new(3), 5);
        assert_eq!(ac.advance().returned, None, "only 1 valid est");
        let mut ac2 = round_with_cb(&[(0, 5)]);
        for p in 0..3 {
            ac2.on_est_delivered(ProcessId::new(p), 5);
        }
        assert_eq!(ac2.advance().returned, Some((AcTag::Commit, 5)));
    }

    #[test]
    fn late_cb_growth_unblocks_pending_ests() {
        // Estimates arrive before their value becomes valid: the wait
        // completes only after cb_valid catches up (monotone predicate).
        let mut ac = round_with_cb(&[(0, 5)]);
        assert_eq!(ac.advance().est, Some(5));
        for p in 0..3 {
            ac.on_est_delivered(ProcessId::new(p), 4);
        }
        assert_eq!(ac.advance(), NOTHING);
        ac.on_cb_valid(4);
        let step = ac.advance();
        assert_eq!(step.returned, Some((AcTag::Commit, 4)));
        assert_eq!(step.est, None, "line 2 ran before");
    }

    #[test]
    fn witness_is_first_quorum_in_delivery_order() {
        // 4 deliveries, quorum 3: the 4th must not affect the outcome.
        let mut ac = round_with_cb(&[(0, 5), (1, 6)]);
        ac.on_est_delivered(ProcessId::new(0), 5);
        ac.on_est_delivered(ProcessId::new(1), 5);
        ac.on_est_delivered(ProcessId::new(2), 5);
        ac.on_est_delivered(ProcessId::new(3), 6);
        assert_eq!(ac.advance().returned, Some((AcTag::Commit, 5)));
    }

    #[test]
    fn returns_once() {
        let mut ac = round_with_cb(&[(0, 5), (1, 6)]);
        for p in 0..3 {
            ac.on_est_delivered(ProcessId::new(p), 5);
        }
        assert_eq!(ac.advance().returned, Some((AcTag::Commit, 5)));
        // AC objects are one-shot: more deliveries return nothing more.
        ac.on_est_delivered(ProcessId::new(3), 6);
        assert_eq!(ac.advance(), NOTHING);
    }

    #[test]
    fn duplicate_est_senders_ignored() {
        let mut ac = round_with_cb(&[(0, 5)]);
        ac.on_est_delivered(ProcessId::new(0), 5);
        ac.on_est_delivered(ProcessId::new(0), 5);
        ac.on_est_delivered(ProcessId::new(0), 5);
        assert_eq!(ac.est_count(), 1);
        assert_eq!(ac.advance().returned, None);
    }

    #[test]
    fn quorum_override_shrinks_the_witness() {
        // n = 4, t = 1 → sound quorum 3. With the override at 2 the object
        // commits on a 2-unanimous witness — the seeded bug the conformance
        // explorer must catch.
        let mut ac = round_with_cb(&[(0, 5)]).with_quorum_override(2);
        ac.on_est_delivered(ProcessId::new(0), 5);
        assert_eq!(ac.advance().returned, None);
        ac.on_est_delivered(ProcessId::new(1), 5);
        assert_eq!(ac.advance().returned, Some((AcTag::Commit, 5)));
    }

    #[test]
    fn no_outcome_before_est_sent() {
        // A process cannot be waiting at line 3 before executing lines 1–2:
        // a witness that is complete before the CB returns waits for it,
        // and then both halves come out of one step.
        let mut ac: AcRound<u64> = AcRound::new(cfg());
        for p in 0..3 {
            ac.on_est_delivered(ProcessId::new(p), 5);
        }
        assert_eq!(ac.advance(), NOTHING);
        ac.on_cb_valid(5);
        let both = AcStep {
            est: Some(5),
            returned: Some((AcTag::Commit, 5)),
        };
        assert_eq!(ac.advance(), both);
    }
}
