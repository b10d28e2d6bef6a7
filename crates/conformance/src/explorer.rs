//! Bounded schedule exploration over the simulator's
//! [`ScheduleOracle`] seam.
//!
//! A [`Schedule`] is a finite vector of [`ScheduleCommand`]s consumed one
//! per routed message (consultation order is deterministic, so the vector
//! *is* the schedule); messages past the end of the vector route normally.
//! [`explore`] enumerates schedules three ways — the empty schedule, a
//! bounded DFS over a small command alphabet, and seeded random walks —
//! runs a caller-supplied property check on each, and shrinks any
//! violating schedule to a minimal prefix with maximal `Default` content.
//!
//! [`run_protocol`] is the standard property check: it runs one of the
//! five protocol stacks (consensus under both round-1 rules) under the
//! schedule and checks agreement, validity, and (when no messages were
//! dropped) termination-on-quiescence through [`minsync_types::check`].

use minsync_core::{
    AcNode, AcNodeEvent, AcTag, BotConsensusNode, BotEvent, ConsensusConfig, ConsensusNode, EaNode,
    EaNodeEvent, Rules, TimeoutPolicy,
};
use minsync_net::sim::{
    OutputRecord, RunReport, ScheduleCommand, ScheduleOracle, SimBuilder, Simulation, StopReason,
};
use minsync_net::{NetworkTopology, Node, VirtualTime};
use minsync_smr::{commits, ReplicaNode, TwoClientSource};
use minsync_types::check::{self, Violation};
use minsync_types::{ProcessId, Round, RoundSchedule, SystemConfig};
use rand::rngs::SplitMix64;
use rand::{RngCore, SeedableRng};

/// One explored schedule: a decision per consulted message, plus the set
/// of processes whose messages may be dropped (the `t`-faults budget).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Command for the `i`-th consulted message; exhausted → `Default`.
    pub decisions: Vec<ScheduleCommand>,
    /// Processes designated faulty: `Drop` is honored only for messages
    /// *from* these processes, keeping every run inside the model.
    pub droppable: Vec<ProcessId>,
}

impl Schedule {
    /// The all-`Default` schedule (byte-identical to no oracle at all).
    pub fn empty() -> Self {
        Schedule {
            decisions: Vec::new(),
            droppable: Vec::new(),
        }
    }

    /// Commands that are not `Default` (the schedule's "interesting" part).
    pub fn active_decisions(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| **d != ScheduleCommand::Default)
            .count()
    }
}

/// A [`ScheduleOracle`] that replays a [`Schedule`] by consultation index.
///
/// Deterministic by construction: the simulator consults the oracle in a
/// fixed order, so index `i` always names the same message for a given
/// protocol line-up and seed.
pub struct VectorOracle {
    decisions: Vec<ScheduleCommand>,
    droppable: Vec<ProcessId>,
    index: usize,
}

impl VectorOracle {
    /// Builds the oracle for one run of `schedule`.
    pub fn new(schedule: &Schedule) -> Self {
        VectorOracle {
            decisions: schedule.decisions.clone(),
            droppable: schedule.droppable.clone(),
            index: 0,
        }
    }
}

impl<M> ScheduleOracle<M> for VectorOracle {
    fn command(
        &mut self,
        from: ProcessId,
        _to: ProcessId,
        _at: VirtualTime,
        _msg: &M,
        _default: u64,
    ) -> ScheduleCommand {
        let cmd = self
            .decisions
            .get(self.index)
            .copied()
            .unwrap_or(ScheduleCommand::Default);
        self.index += 1;
        match cmd {
            // Dropping from a non-designated process would exceed the
            // t-faults budget; demote to Default instead.
            ScheduleCommand::Drop if !self.droppable.contains(&from) => ScheduleCommand::Default,
            other => other,
        }
    }
}

/// A property violation, with the (shrunk) schedule that triggers it.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The broken property and its evidence.
    pub violation: Violation,
    /// Minimal violating schedule found by shrinking.
    pub schedule: Schedule,
}

/// Exploration budget and shape.
#[derive(Clone, Debug)]
pub struct ExplorerConfig {
    /// Random-walk schedules to try.
    pub random_schedules: usize,
    /// DFS enumerates all command vectors of this length…
    pub dfs_depth: usize,
    /// …capped at this many schedules total.
    pub dfs_limit: usize,
    /// Length of each random-walk decision vector.
    pub decision_horizon: usize,
    /// Tick delays available to `After` commands.
    pub palette: Vec<u64>,
    /// Processes whose messages may be dropped.
    pub droppable: Vec<ProcessId>,
    /// RNG seed for the random walks (exploration is deterministic).
    pub seed: u64,
}

impl ExplorerConfig {
    /// A small, CI-friendly budget.
    pub fn quick() -> Self {
        ExplorerConfig {
            random_schedules: 12,
            dfs_depth: 3,
            dfs_limit: 40,
            decision_horizon: 24,
            palette: vec![1, 2, 5, 8],
            droppable: Vec::new(),
            seed: 0x5eed_0e14,
        }
    }

    /// The full E14 budget.
    pub fn full() -> Self {
        ExplorerConfig {
            random_schedules: 40,
            dfs_depth: 4,
            dfs_limit: 100,
            ..ExplorerConfig::quick()
        }
    }
}

/// What [`explore`] did.
#[derive(Clone, Debug)]
pub struct ExplorationReport {
    /// Schedules actually run (including shrink probes).
    pub schedules_explored: usize,
    /// Violations found, each with its shrunk schedule.
    pub violations: Vec<Counterexample>,
}

/// Runs `check` over the configured schedule families, shrinking every
/// violating schedule to a minimal prefix.
///
/// `check` runs one full protocol execution under the given schedule and
/// returns the first property violation, if any. It must be deterministic
/// in the schedule — [`shrink`] relies on re-running it.
pub fn explore<F>(mut check: F, cfg: &ExplorerConfig) -> ExplorationReport
where
    F: FnMut(&Schedule) -> Result<(), Violation>,
{
    let mut explored = 0usize;
    let mut violations = Vec::new();
    let try_schedule = |schedule: Schedule,
                        explored: &mut usize,
                        violations: &mut Vec<Counterexample>,
                        check: &mut F| {
        *explored += 1;
        if let Err(violation) = check(&schedule) {
            let (shrunk, probes) = shrink(&schedule, check);
            *explored += probes;
            violations.push(Counterexample {
                violation,
                schedule: shrunk,
            });
        }
    };

    // Family 1: the undisturbed run.
    let mut base = Schedule::empty();
    base.droppable = cfg.droppable.clone();
    try_schedule(base, &mut explored, &mut violations, &mut check);

    // Family 2: bounded DFS — every command vector of length `dfs_depth`
    // over [Default, After(palette…), Drop], in mixed-radix order, capped
    // at `dfs_limit` schedules.
    let mut alphabet = vec![ScheduleCommand::Default];
    alphabet.extend(cfg.palette.iter().map(|&d| ScheduleCommand::After(d)));
    if !cfg.droppable.is_empty() {
        alphabet.push(ScheduleCommand::Drop);
    }
    let radix = alphabet.len();
    let mut digits = vec![0usize; cfg.dfs_depth];
    let mut emitted = 0usize;
    'dfs: loop {
        // Skip the all-zero vector: that's family 1 again.
        if digits.iter().any(|&d| d != 0) {
            let schedule = Schedule {
                decisions: digits.iter().map(|&d| alphabet[d]).collect(),
                droppable: cfg.droppable.clone(),
            };
            try_schedule(schedule, &mut explored, &mut violations, &mut check);
            emitted += 1;
            if emitted >= cfg.dfs_limit {
                break 'dfs;
            }
        }
        // Increment the mixed-radix counter.
        let mut pos = 0;
        loop {
            if pos == digits.len() {
                break 'dfs;
            }
            digits[pos] += 1;
            if digits[pos] < radix {
                break;
            }
            digits[pos] = 0;
            pos += 1;
        }
    }

    // Family 3: seeded random walks over longer horizons.
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    for _ in 0..cfg.random_schedules {
        let decisions = (0..cfg.decision_horizon)
            .map(|_| {
                let roll = rng.next_u64() % 100;
                if roll < 50 {
                    ScheduleCommand::Default
                } else if roll < 90 || cfg.droppable.is_empty() {
                    let pick = cfg.palette[(rng.next_u64() as usize) % cfg.palette.len()];
                    ScheduleCommand::After(pick)
                } else {
                    ScheduleCommand::Drop
                }
            })
            .collect();
        let schedule = Schedule {
            decisions,
            droppable: cfg.droppable.clone(),
        };
        try_schedule(schedule, &mut explored, &mut violations, &mut check);
    }

    ExplorationReport {
        schedules_explored: explored,
        violations,
    }
}

/// Shrinks a violating schedule to a minimal violating prefix, then
/// greedily `Default`s out remaining entries. Returns the shrunk schedule
/// and the number of check runs spent.
///
/// Precondition: `check(schedule)` is `Err`. The shrunk result still
/// violates (not necessarily with the same violation kind — any violation
/// counts, since all of them are bugs).
pub fn shrink<F>(schedule: &Schedule, check: &mut F) -> (Schedule, usize)
where
    F: FnMut(&Schedule) -> Result<(), Violation>,
{
    let mut probes = 0usize;
    let violates = |s: &Schedule, probes: &mut usize, check: &mut F| {
        *probes += 1;
        check(s).is_err()
    };

    // Binary search the minimal violating prefix: prefixes of a decision
    // vector are themselves schedules (the tail routes normally).
    let prefix = |len: usize| Schedule {
        decisions: schedule.decisions[..len].to_vec(),
        droppable: schedule.droppable.clone(),
    };
    let (mut lo, mut hi) = (0usize, schedule.decisions.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if violates(&prefix(mid), &mut probes, check) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut best = prefix(hi);

    // Greedy pass: knock surviving non-Default entries back to Default.
    // Bounded so pathological schedules can't stall the explorer.
    if best.active_decisions() <= 64 {
        for i in 0..best.decisions.len() {
            if best.decisions[i] == ScheduleCommand::Default || probes >= 128 {
                continue;
            }
            let saved = best.decisions[i];
            best.decisions[i] = ScheduleCommand::Default;
            if !violates(&best, &mut probes, check) {
                best.decisions[i] = saved;
            }
        }
    }
    (best, probes)
}

/// The five protocol stacks the explorer exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Figure 4 multivalued consensus, under the given rule set.
    Consensus(Rules),
    /// Figure 2 adopt-commit in isolation.
    AdoptCommit,
    /// Figure 3 eventual agreement, free-running rounds.
    EventualAgreement,
    /// The ⊥-variant (Section 5).
    Bot,
    /// The replicated log, slot 1.
    Smr,
}

impl Protocol {
    /// All five, consensus under each of [`Rules::ALL`], in
    /// experiment-table order.
    pub const ALL: [Protocol; 7] = [
        Protocol::Consensus(Rules::PAPER),
        Protocol::Consensus(Rules::SKIP_EA),
        Protocol::Consensus(Rules::SLOT),
        Protocol::AdoptCommit,
        Protocol::EventualAgreement,
        Protocol::Bot,
        Protocol::Smr,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Consensus(Rules::PAPER) => "consensus",
            Protocol::Consensus(Rules::SKIP_EA) => "consensus (skip EA)",
            Protocol::Consensus(Rules::SLOT) => "consensus (slot rules)",
            Protocol::Consensus(_) => "consensus (relay CB)",
            Protocol::AdoptCommit => "adopt-commit",
            Protocol::EventualAgreement => "eventual-agreement",
            Protocol::Bot => "bot-variant",
            Protocol::Smr => "smr",
        }
    }
}

/// Timely delay bound used for explorer topologies: large enough that the
/// `After` palette produces genuinely different interleavings.
const EXPLORER_DELTA: u64 = 8;

/// Binary proposal split used by every explorer run.
const PROPOSALS: [u64; 2] = [3, 8];

/// Every protocol run under the same schedule uses the same seed, so the
/// oracle's consultation indices are stable across shrink probes.
const SCHEDULE_SEED: u64 = 0xe14_5eed;

fn proposal_for(i: usize) -> u64 {
    PROPOSALS[i % 2]
}

/// Runs `protocol` with `n` processes under `schedule` and checks the
/// paper's properties through [`minsync_types::check`].
///
/// Safety is checked over the outputs of non-`droppable` processes (a
/// process whose messages were dropped is the designated faulty one — its
/// own outcome carries no guarantee): validity on every stack; agreement
/// for consensus and the ⊥-variant, quasi-agreement for adopt-commit, log
/// prefix consistency for SMR, and none for eventual agreement, which
/// promises none. Termination is checked only when `check_termination` is
/// set **and** the run applied no drops and went quiescent: every correct
/// process must then have produced its decision (EA: its round-1 return),
/// since nothing remained in flight. Budget exhaustion is never a
/// violation — it is inconclusive by construction.
///
/// # Errors
///
/// The first violated property and its evidence.
pub fn run_protocol(
    protocol: Protocol,
    n: usize,
    schedule: &Schedule,
    max_events: u64,
    check_termination: bool,
) -> Result<(), Violation> {
    let t = (n - 1) / 3;
    let system = SystemConfig::new(n, t).expect("explorer sizes satisfy n > 3t");
    // Round-1 timeout 33 > 2δ: under an undisturbed timely network the EA
    // fast path completes inside the first timeout, so runs converge fast
    // and the explorer spends its budget on the interesting schedules.
    let mut cfg = ConsensusConfig::paper(system);
    cfg.timeout = TimeoutPolicy::linear(1, 32);
    let proposed = |v: &u64| PROPOSALS.contains(v);
    let correct = |p: &ProcessId| !schedule.droppable.contains(p);

    // Per stack: the safety violations, the correct processes that
    // finished, and whether the run can prove a deadlock.
    let (mut found, finished, conclusive): (_, Vec<ProcessId>, _) = match protocol {
        Protocol::Consensus(rules) => {
            cfg.rules = Some(rules);
            let report = simulate(n, schedule, max_events, |i| {
                ConsensusNode::new(cfg, proposal_for(i)).expect("paper config is valid")
            })
            .run_until(|outs| {
                let decided = outs.iter().filter(|o| o.event.as_decision().is_some());
                decided.count() >= n
            });
            let decisions = outcomes(&report.outputs, correct, |e| e.as_decision().copied());
            let mut found = check::validity(decisions.iter().copied(), proposed);
            found.extend(check::agreement(decisions.iter().copied()));
            (found, processes(&decisions), quiescent(&report))
        }
        Protocol::AdoptCommit => {
            let report = simulate(n, schedule, max_events, |i| {
                AcNode::new(system, Rules::PAPER, proposal_for(i))
            })
            .run_until(|outs| outs.len() >= n);
            let returned = outcomes(&report.outputs, correct, |e| {
                let AcNodeEvent::Returned { tag, value } = e;
                Some((*tag == AcTag::Commit, *value))
            });
            let values = returned.iter().map(|&(p, (_, v))| (p, v));
            let mut found = check::validity(values, proposed);
            let tagged = returned.iter().map(|&(p, (commit, v))| (p, commit, v));
            found.extend(check::quasi_agreement(tagged));
            (found, processes(&returned), quiescent(&report))
        }
        Protocol::EventualAgreement => {
            let rounds = RoundSchedule::new(&system, 0).expect("k=0 is always valid");
            let report = simulate(n, schedule, max_events, |i| {
                let timeout = TimeoutPolicy::linear(1, 32);
                let me = ProcessId::new(i);
                EaNode::new(system, rounds.clone(), me, timeout, proposal_for(i), 2)
            })
            .run();
            let mut returned = outcomes(&report.outputs, correct, |e| {
                let EaNodeEvent::Returned { round, value, .. } = e;
                Some((*round, *value))
            });
            let values = returned.iter().map(|&(p, (_, v))| (p, v));
            let found = check::validity(values, proposed);
            // EA promises no agreement; a process terminates by returning
            // from round 1.
            returned.retain(|(_, (round, _))| *round == Round::FIRST);
            (found, processes(&returned), quiescent(&report))
        }
        Protocol::Bot => {
            let report = simulate(n, schedule, max_events, |i| {
                BotConsensusNode::new(cfg, proposal_for(i)).expect("paper config is valid")
            })
            .run_until(|outs| outs.len() >= n);
            // `None` is ⊥, which validity admits.
            let decisions = outcomes(&report.outputs, correct, |e| match e {
                BotEvent::Decided { value } => Some(Some(*value)),
                BotEvent::DecidedBottom => Some(None),
            });
            let values = decisions.iter().filter_map(|&(p, v)| Some((p, v?)));
            let mut found = check::validity(values, proposed);
            found.extend(check::agreement(decisions.iter().copied()));
            (found, processes(&decisions), quiescent(&report))
        }
        Protocol::Smr => {
            let report = simulate(n, schedule, max_events, |i| {
                ReplicaNode::new(cfg, TwoClientSource::new(1 + i as u64 % 2), 1)
            })
            .run_until(|outs| {
                let committed = outs.iter().filter(|o| o.event.as_committed().is_some());
                committed.count() >= n
            });
            let log: Vec<_> = commits(&report.outputs).filter(|c| correct(&c.0)).collect();
            let finished = log.iter().map(|c| c.0).collect();
            (check::prefix(log), finished, quiescent(&report))
        }
    };
    if check_termination && conclusive {
        let expected = ProcessId::all(n).filter(correct);
        let finished = finished.into_iter().map(|p| (p, ()));
        found.extend(check::termination(expected, finished, &()));
    }
    found.into_iter().next().map_or(Ok(()), Err)
}

/// `n` copies of `node(i)` on the explorer's all-timely network, routed by
/// `schedule`.
fn simulate<N: Node + 'static>(
    n: usize,
    schedule: &Schedule,
    max_events: u64,
    node: impl Fn(usize) -> N,
) -> Simulation<N::Msg, N::Output> {
    let mut builder = SimBuilder::new(NetworkTopology::all_timely(n, EXPLORER_DELTA))
        .seed(SCHEDULE_SEED)
        .max_events(max_events)
        .with_schedule_oracle(VectorOracle::new(schedule));
    for i in 0..n {
        builder = builder.node(node(i));
    }
    builder.build()
}

/// `f` of every output of a `correct` process, in output order.
fn outcomes<O, V>(
    outputs: &[OutputRecord<O>],
    correct: impl Fn(&ProcessId) -> bool,
    f: impl Fn(&O) -> Option<V>,
) -> Vec<(ProcessId, V)> {
    let own = outputs.iter().filter(|r| correct(&r.process));
    own.filter_map(|r| Some((r.process, f(&r.event)?)))
        .collect()
}

/// The processes behind `outcomes`, in order.
fn processes<V>(outcomes: &[(ProcessId, V)]) -> Vec<ProcessId> {
    outcomes.iter().map(|(p, _)| *p).collect()
}

/// Explorer policy for *whether* termination applies: only a quiescent run
/// with no drops applied can prove a deadlock.
fn quiescent<O>(report: &RunReport<O>) -> bool {
    report.reason == StopReason::Quiescent && report.metrics.messages_suppressed == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use minsync_types::check::ViolationKind;

    #[test]
    fn empty_schedule_passes_every_protocol() {
        for protocol in Protocol::ALL {
            run_protocol(protocol, 4, &Schedule::empty(), 30_000, true)
                .unwrap_or_else(|v| panic!("{}: {v}", protocol.name()));
        }
    }

    #[test]
    fn quick_exploration_of_consensus_is_clean() {
        let mut cfg = ExplorerConfig::quick();
        cfg.random_schedules = 4;
        cfg.dfs_limit = 10;
        for rules in Rules::ALL {
            let protocol = Protocol::Consensus(rules);
            let report = explore(|s| run_protocol(protocol, 4, s, 30_000, true), &cfg);
            assert!(report.schedules_explored >= 15);
            assert!(
                report.violations.is_empty(),
                "{}: unexpected violations: {:?}",
                protocol.name(),
                report.violations
            );
        }
    }

    #[test]
    fn shrink_finds_a_minimal_prefix() {
        // Synthetic property: "violates" iff the schedule delays at least
        // two of its first six messages by ≥5 ticks.
        let mut check = |s: &Schedule| {
            let long = s
                .decisions
                .iter()
                .take(6)
                .filter(|c| matches!(c, ScheduleCommand::After(d) if *d >= 5))
                .count();
            if long >= 2 {
                Err(Violation {
                    kind: ViolationKind::Agreement,
                    detail: "synthetic".to_string(),
                })
            } else {
                Ok(())
            }
        };
        let full = Schedule {
            decisions: vec![
                ScheduleCommand::After(8),
                ScheduleCommand::Default,
                ScheduleCommand::After(8),
                ScheduleCommand::After(8),
                ScheduleCommand::Drop,
                ScheduleCommand::After(1),
            ],
            droppable: vec![],
        };
        assert!(check(&full).is_err());
        let (shrunk, _probes) = shrink(&full, &mut check);
        assert_eq!(shrunk.decisions.len(), 3);
        assert_eq!(shrunk.active_decisions(), 2);
        assert!(check(&shrunk).is_err());
    }

    #[test]
    fn vector_oracle_respects_the_drop_budget() {
        let schedule = Schedule {
            decisions: vec![ScheduleCommand::Drop, ScheduleCommand::Drop],
            droppable: vec![ProcessId::new(0)],
        };
        let mut oracle = VectorOracle::new(&schedule);
        let cmd = ScheduleOracle::<u32>::command(
            &mut oracle,
            ProcessId::new(0),
            ProcessId::new(1),
            VirtualTime::ZERO,
            &7,
            3,
        );
        assert_eq!(cmd, ScheduleCommand::Drop);
        // Second decision targets a non-droppable sender: demoted.
        let cmd = ScheduleOracle::<u32>::command(
            &mut oracle,
            ProcessId::new(1),
            ProcessId::new(0),
            VirtualTime::ZERO,
            &7,
            3,
        );
        assert_eq!(cmd, ScheduleCommand::Default);
    }
}
