//! The mutation smoke: a positive control for the schedule explorer.
//!
//! A property harness that never fires is indistinguishable from one that
//! works. This module runs the consensus stack with a deliberately broken
//! variant — [`SeededMutation::AcQuorumOffByOne`], which shrinks the
//! adopt-commit witness quorum from `n − t` to `n − t − 1` — under an
//! adversarial schedule, and demands the agreement check actually trips.
//! The same schedule must leave the *unmutated* stack clean, proving the
//! violation comes from the seeded bug and not from the harness.
//!
//! The adversarial schedule is found semantically (delay cross-half
//! `READY` traffic and every `EA_COORD` message on an asynchronous
//! network, splitting the system into a {3,3} vs {8,8} partition long
//! enough for the weakened quorum to commit on one-sided witnesses), then
//! re-expressed as a plain decision vector — the explorer's native
//! [`Schedule`] form — and shrunk to a minimal violating prefix.

use std::sync::{Arc, Mutex};

use minsync_broadcast::RbMsg;
use minsync_core::{ConsensusConfig, ConsensusNode, ProtocolMsg, SeededMutation};
use minsync_net::sim::{ScheduleCommand, ScheduleOracle, SimBuilder};
use minsync_net::{ChannelTiming, DelayLaw, NetworkTopology, VirtualTime};
use minsync_types::check::{self, Violation, ViolationKind};
use minsync_types::{ProcessId, SystemConfig};

use crate::explorer::{shrink, Schedule, VectorOracle};

/// Outcome of the smoke, for reporting in E14 and asserting in tests.
#[derive(Clone, Debug)]
pub struct MutationSmoke {
    /// Did the harness catch the seeded bug?
    pub caught: bool,
    /// Did the identical schedule leave the unmutated stack clean?
    pub clean_without_mutation: bool,
    /// Length of the recorded decision vector (oracle consultations).
    pub consultations: usize,
    /// Length of the shrunk violating prefix.
    pub shrunk_len: usize,
    /// Non-`Default` decisions surviving in the shrunk prefix.
    pub shrunk_active: usize,
    /// Evidence from the violating run.
    pub detail: String,
}

const N: usize = 4;
const SEED: u64 = 0xb0b;
/// Proposals split by half: {p0, p1} propose 3, {p2, p3} propose 8.
const PROPOSALS: [u64; N] = [3, 3, 8, 8];
/// Cross-half `READY` traffic parks here — far past every decision.
const READY_DELAY: u64 = 50_000;
/// `EA_COORD` parks even later, so no coordinator value bridges the halves.
const COORD_DELAY: u64 = 100_000;
/// Cross-half `EA_RELAY(Some ·)` parks last: the coordinator's own relay
/// (its `EA_COORD` self-delivery is clamped to the zero-delay self channel,
/// so it always relays a value) must not reach the far half before that
/// half's all-⊥ relay quorum completes.
const RELAY_DELAY: u64 = 150_000;

fn half(p: ProcessId) -> usize {
    p.index() / 2
}

/// The semantic adversary: keep reliable-broadcast `READY` witnesses (by
/// RB *origin*, so neither half learns the other's values), coordinator
/// messages, and value-carrying relays from crossing the halves until long
/// after both halves have acted on one-sided evidence.
fn semantic_command(
    from: ProcessId,
    to: ProcessId,
    _at: VirtualTime,
    msg: &ProtocolMsg<u64>,
    _default: u64,
) -> ScheduleCommand {
    match msg {
        ProtocolMsg::Rb(RbMsg::Ready { origin, .. }) if half(*origin) != half(to) => {
            ScheduleCommand::After(READY_DELAY)
        }
        ProtocolMsg::EaCoord { .. } => ScheduleCommand::After(COORD_DELAY),
        ProtocolMsg::EaRelay { value: Some(_), .. } if half(from) != half(to) => {
            ScheduleCommand::After(RELAY_DELAY)
        }
        _ => ScheduleCommand::Default,
    }
}

/// Runs the split-proposal consensus line-up (mutated or not) on an
/// asynchronous network under `oracle`, until every process decided or
/// `max_events` ran out. Returns the decisions in decision order.
fn run(
    mutation: Option<SeededMutation>,
    oracle: impl ScheduleOracle<ProtocolMsg<u64>> + 'static,
    max_events: u64,
) -> Vec<(ProcessId, u64)> {
    let system = SystemConfig::new(N, 1).expect("n=4, t=1 is a valid resilience pair");
    let mut cfg = ConsensusConfig::paper(system);
    cfg.mutation = mutation;
    let topology = NetworkTopology::uniform(N, ChannelTiming::asynchronous(DelayLaw::Fixed(5)));
    let mut builder = SimBuilder::new(topology)
        .seed(SEED)
        .max_events(max_events)
        .with_schedule_oracle(oracle);
    for v in PROPOSALS {
        builder = builder.node(ConsensusNode::new(cfg, v).expect("paper config is valid"));
    }
    let mut sim = builder.build();
    sim.run_until(|outs| {
        outs.iter()
            .filter(|o| o.event.as_decision().is_some())
            .count()
            >= N
    });
    sim.outputs()
        .iter()
        .filter_map(|rec| rec.event.as_decision().map(|v| (rec.process, *v)))
        .collect()
}

/// The decisions of the split-proposal line-up `{3, 3, 8, 8}` (mutated or
/// not) under the semantic adversary's recorded decision vector, in
/// decision order. With [`SeededMutation::AcQuorumOffByOne`] the two halves
/// decide differently; under the same vector all four processes of the
/// unmutated stack decide 8.
pub fn semantic_decisions(
    mutation: Option<SeededMutation>,
    max_events: u64,
) -> Vec<(ProcessId, u64)> {
    let schedule = record_semantic_schedule(max_events);
    run(mutation, VectorOracle::new(&schedule), max_events)
}

/// Runs the consensus stack (mutated or not) under `schedule` and checks
/// agreement over decided values.
fn run_consensus(
    mutation: Option<SeededMutation>,
    schedule: &Schedule,
    max_events: u64,
) -> Result<(), Violation> {
    let found = check::agreement(run(mutation, VectorOracle::new(schedule), max_events));
    found.into_iter().next().map_or(Ok(()), Err)
}

/// Records the semantic adversary's decisions as a plain schedule by
/// running the mutated stack once with a recording wrapper around it.
fn record_semantic_schedule(max_events: u64) -> Schedule {
    let recorded: Arc<Mutex<Vec<ScheduleCommand>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&recorded);
    let oracle = move |from: ProcessId,
                       to: ProcessId,
                       at: VirtualTime,
                       msg: &ProtocolMsg<u64>,
                       default: u64| {
        let cmd = semantic_command(from, to, at, msg, default);
        sink.lock().expect("recorder mutex").push(cmd);
        cmd
    };
    run(Some(SeededMutation::AcQuorumOffByOne), oracle, max_events);
    let decisions = recorded.lock().expect("recorder mutex").clone();
    Schedule {
        decisions,
        droppable: Vec::new(),
    }
}

/// Runs the whole smoke: record the adversarial schedule, confirm it
/// breaks agreement on the mutated stack, shrink it, and confirm the same
/// schedule leaves the unmutated stack clean.
///
/// `max_events` bounds every individual run (the E14 `--quick` budget must
/// still catch the bug — decisions land around tick 50 000 but only a few
/// thousand events in).
pub fn mutation_smoke(max_events: u64) -> MutationSmoke {
    let schedule = record_semantic_schedule(max_events);
    let consultations = schedule.decisions.len();

    let mutated = Some(SeededMutation::AcQuorumOffByOne);
    let mut check = |s: &Schedule| run_consensus(mutated, s, max_events);
    let (caught, detail) = match check(&schedule) {
        Err(v) => (v.kind == ViolationKind::Agreement, v.detail),
        Ok(()) => (false, "no violation on the mutated stack".to_string()),
    };
    let (shrunk_len, shrunk_active, clean_without_mutation) = if caught {
        let (shrunk, _probes) = shrink(&schedule, &mut check);
        let clean = run_consensus(None, &shrunk, max_events).is_ok()
            && run_consensus(None, &schedule, max_events).is_ok();
        (shrunk.decisions.len(), shrunk.active_decisions(), clean)
    } else {
        (0, 0, false)
    };

    MutationSmoke {
        caught,
        clean_without_mutation,
        consultations,
        shrunk_len,
        shrunk_active,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explorer_catches_the_seeded_quorum_bug() {
        let smoke = mutation_smoke(20_000);
        assert!(smoke.caught, "seeded mutation not caught: {}", smoke.detail);
        assert!(
            smoke.clean_without_mutation,
            "violating schedule also trips the unmutated stack: {}",
            smoke.detail
        );
        assert!(smoke.shrunk_len <= smoke.consultations);
        assert!(smoke.shrunk_active >= 1, "shrunk schedule lost its teeth");
    }

    #[test]
    fn semantic_adversary_splits_only_the_mutated_stack() {
        let broken = semantic_decisions(Some(SeededMutation::AcQuorumOffByOne), 20_000);
        let mut values: Vec<u64> = broken.iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(broken.len(), N, "{broken:?}");
        assert_eq!(values, [3, 8], "each half decides its own: {broken:?}");
        // Under the same recorded vector the sound stack decides: all four
        // processes, one value.
        let sound = semantic_decisions(None, 20_000);
        let values: Vec<u64> = sound.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, [8; N], "{sound:?}");
    }

    #[test]
    fn unmutated_stack_survives_the_semantic_adversary() {
        let schedule = record_semantic_schedule(20_000);
        assert!(run_consensus(None, &schedule, 20_000).is_ok());
    }
}
