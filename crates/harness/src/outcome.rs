use std::collections::BTreeMap;

use minsync_core::ConsensusEvent;
use minsync_net::sim::{Metrics, OutputRecord, StopReason};
use minsync_types::{check, ProcessId};

/// Everything measured in one consensus run, with the paper's three
/// correctness properties pre-evaluated over the *correct* processes.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    correct: Vec<usize>,
    correct_proposals: Vec<u64>,
    decisions: BTreeMap<usize, u64>,
    decision_times: BTreeMap<usize, u64>,
    decision_rounds: BTreeMap<usize, u64>,
    first_commit_round: Option<u64>,
    max_round_started: u64,
    metrics: Metrics,
    stop: StopReason,
}

impl RunOutcome {
    pub(crate) fn from_outputs(
        outputs: &[OutputRecord<ConsensusEvent<u64>>],
        correct: Vec<usize>,
        correct_proposals: Vec<u64>,
        metrics: Metrics,
        stop: StopReason,
    ) -> Self {
        let mut decisions = BTreeMap::new();
        let mut decision_times = BTreeMap::new();
        let mut decision_rounds = BTreeMap::new();
        let mut current_round: BTreeMap<usize, u64> = BTreeMap::new();
        let mut max_round_started = 0;
        let mut first_commit_round: Option<u64> = None;
        for rec in outputs {
            let p = rec.process.index();
            if !correct.contains(&p) {
                continue;
            }
            match &rec.event {
                ConsensusEvent::RoundStarted { round } => {
                    current_round.insert(p, round.get());
                    max_round_started = max_round_started.max(round.get());
                }
                ConsensusEvent::AcReturned { round, tag, .. }
                    if *tag == minsync_core::AcTag::Commit =>
                {
                    let r = round.get();
                    first_commit_round = Some(first_commit_round.map_or(r, |c: u64| c.min(r)));
                }
                ConsensusEvent::Decided { value } => {
                    decisions.entry(p).or_insert(*value);
                    decision_times.entry(p).or_insert(rec.time.ticks());
                    decision_rounds
                        .entry(p)
                        .or_insert(current_round.get(&p).copied().unwrap_or(0));
                }
                _ => {}
            }
        }
        RunOutcome {
            correct,
            correct_proposals,
            decisions,
            decision_times,
            decision_rounds,
            first_commit_round,
            max_round_started,
            metrics,
            stop,
        }
    }

    /// Earliest round in which a correct process obtained `⟨commit, ·⟩` from
    /// an adopt-commit object — the round count the §5.4 complexity bounds
    /// speak about (decision events fire one round later, once the `DECIDE`
    /// reliable broadcasts complete).
    pub fn commit_round(&self) -> Option<u64> {
        self.first_commit_round
    }

    /// Did every correct process decide? (CONS-Termination.)
    pub fn all_decided(&self) -> bool {
        let correct = self.correct.iter().map(|&p| ProcessId::new(p));
        check::termination(correct, self.decided().map(|(p, _)| (p, ())), &()).is_empty()
    }

    /// Do all correct decisions agree? (CONS-Agreement; vacuously true with
    /// no decisions.)
    pub fn agreement_holds(&self) -> bool {
        check::agreement(self.decided()).is_empty()
    }

    /// Is every correct decision a value proposed by a correct process?
    /// (CONS-Validity.)
    pub fn validity_holds(&self) -> bool {
        check::validity(self.decided(), |v| self.correct_proposals.contains(v)).is_empty()
    }

    /// The correct processes' decisions, as [`check`] takes them.
    fn decided(&self) -> impl Iterator<Item = (ProcessId, u64)> + '_ {
        self.decisions.iter().map(|(&p, &v)| (ProcessId::new(p), v))
    }

    /// The agreed value, if any correct process decided.
    pub fn decided_value(&self) -> Option<u64> {
        self.decisions.values().next().copied()
    }

    /// Per-process decisions (correct processes only).
    pub fn decisions(&self) -> &BTreeMap<usize, u64> {
        &self.decisions
    }

    /// Highest round in which any correct process decided (0 if none):
    /// the run's "rounds to decide".
    pub fn rounds_to_decide(&self) -> u64 {
        self.decision_rounds.values().copied().max().unwrap_or(0)
    }

    /// Highest round any correct process entered.
    pub fn max_round_started(&self) -> u64 {
        self.max_round_started
    }

    /// Virtual time at which the *last* correct process decided (`None` if
    /// some never did).
    pub fn decision_latency(&self) -> Option<u64> {
        if !self.all_decided() {
            return None;
        }
        self.decision_times.values().copied().max()
    }

    /// Total messages handed to the network.
    pub fn total_messages(&self) -> u64 {
        self.metrics.messages_sent
    }

    /// Full simulator metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Why the run stopped.
    pub fn stop_reason(&self) -> StopReason {
        self.stop
    }

    /// Correct slots of this run.
    pub fn correct_slots(&self) -> &[usize] {
        &self.correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minsync_net::VirtualTime;
    use minsync_types::{ProcessId, Round};

    fn rec(p: usize, t: u64, event: ConsensusEvent<u64>) -> OutputRecord<ConsensusEvent<u64>> {
        OutputRecord {
            time: VirtualTime::from_ticks(t),
            process: ProcessId::new(p),
            event,
        }
    }

    fn outcome(outputs: Vec<OutputRecord<ConsensusEvent<u64>>>) -> RunOutcome {
        RunOutcome::from_outputs(
            &outputs,
            vec![0, 1],
            vec![5, 6],
            Metrics::default(),
            StopReason::Quiescent,
        )
    }

    #[test]
    fn happy_path_properties() {
        let o = outcome(vec![
            rec(
                0,
                1,
                ConsensusEvent::RoundStarted {
                    round: Round::FIRST,
                },
            ),
            rec(
                1,
                1,
                ConsensusEvent::RoundStarted {
                    round: Round::FIRST,
                },
            ),
            rec(0, 9, ConsensusEvent::Decided { value: 5 }),
            rec(1, 11, ConsensusEvent::Decided { value: 5 }),
        ]);
        assert!(o.all_decided());
        assert!(o.agreement_holds());
        assert!(o.validity_holds());
        assert_eq!(o.decided_value(), Some(5));
        assert_eq!(o.rounds_to_decide(), 1);
        assert_eq!(o.decision_latency(), Some(11));
    }

    #[test]
    fn missing_decision_detected() {
        let o = outcome(vec![rec(0, 9, ConsensusEvent::Decided { value: 5 })]);
        assert!(!o.all_decided());
        assert_eq!(o.decision_latency(), None);
        assert!(o.agreement_holds(), "vacuous agreement with one decision");
    }

    #[test]
    fn disagreement_detected() {
        let o = outcome(vec![
            rec(0, 9, ConsensusEvent::Decided { value: 5 }),
            rec(1, 9, ConsensusEvent::Decided { value: 6 }),
        ]);
        assert!(!o.agreement_holds());
    }

    #[test]
    fn byzantine_value_decision_flagged() {
        let o = outcome(vec![rec(0, 9, ConsensusEvent::Decided { value: 99 })]);
        assert!(!o.validity_holds());
    }

    #[test]
    fn byzantine_outputs_ignored() {
        // Process 2 is not in the correct set: its fake decision must not
        // count.
        let o = RunOutcome::from_outputs(
            &[rec(2, 1, ConsensusEvent::Decided { value: 99 })],
            vec![0, 1],
            vec![5, 6],
            Metrics::default(),
            StopReason::Quiescent,
        );
        assert!(o.decisions().is_empty());
        assert!(o.validity_holds());
    }

    #[test]
    fn decision_round_tracks_latest_round_started() {
        let o = outcome(vec![
            rec(
                0,
                1,
                ConsensusEvent::RoundStarted {
                    round: Round::FIRST,
                },
            ),
            rec(
                0,
                5,
                ConsensusEvent::RoundStarted {
                    round: Round::new(2),
                },
            ),
            rec(0, 9, ConsensusEvent::Decided { value: 5 }),
            rec(
                1,
                2,
                ConsensusEvent::RoundStarted {
                    round: Round::FIRST,
                },
            ),
            rec(1, 9, ConsensusEvent::Decided { value: 5 }),
        ]);
        assert_eq!(o.rounds_to_decide(), 2);
        assert_eq!(o.max_round_started(), 2);
    }
}
