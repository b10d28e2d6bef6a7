//! The golden scenario registry: one canonical recorded run per protocol.
//!
//! Each [`GoldenScenario`] pairs a deterministic *recorder* (build the
//! simulator line-up, run it, encode the trace) with a *verifier* (decode
//! committed bytes, replay them through [`crate::replay::replay_direct`]).
//! Fixture files under `tests/fixtures/` are the recorder's output,
//! committed to the repo; the fixture test re-verifies them on every build,
//! and re-records to check the recorder itself — protocols, simulator and
//! wire format — hasn't drifted from the committed bytes.

use core::fmt::Debug;

use minsync_core::{
    AcNode, AcNodeEvent, BotConsensusNode, BotEvent, BotMsg, ConsensusConfig, ConsensusEvent,
    ConsensusNode, EaNode, EaNodeEvent, ProtocolMsg, Rules, TimeoutPolicy,
};
use minsync_net::sim::{OutputRecord, SimBuilder};
use minsync_net::{NetworkTopology, Node};
use minsync_smr::{ReplicaNode, SmrEvent, SmrMsg, TwoClientSource};
use minsync_types::{ProcessId, RoundSchedule, SystemConfig};
use minsync_wire::Wire;

use crate::replay::replay_direct;
use crate::trace::Trace;

/// One canonical recorded run: how to produce it and how to check it.
///
/// Both members are plain function pointers so the registry itself is a
/// static table — every scenario is fully determined by its code, never by
/// captured state.
#[derive(Clone, Copy)]
pub struct GoldenScenario {
    /// Stable scenario name; also the fixture file stem.
    pub name: &'static str,
    /// Runs the scenario on the simulator and returns the encoded trace.
    pub record: fn() -> Vec<u8>,
    /// Decodes `bytes` and replays them through [`replay_direct`],
    /// returning the first divergence as text.
    pub verify: fn(&[u8]) -> Result<(), String>,
}

/// All committed golden scenarios: the four core protocols plus SMR.
pub fn golden_scenarios() -> Vec<GoldenScenario> {
    vec![
        GoldenScenario {
            name: "consensus-n4",
            record: record_consensus,
            verify: verify_consensus,
        },
        GoldenScenario {
            name: "adopt-commit-n4",
            record: record_ac,
            verify: verify_ac,
        },
        GoldenScenario {
            name: "eventual-agreement-n4",
            record: record_ea,
            verify: verify_ea,
        },
        GoldenScenario {
            name: "bot-n4",
            record: record_bot,
            verify: verify_bot,
        },
        GoldenScenario {
            name: "smr-n4",
            record: record_smr,
            verify: verify_smr,
        },
    ]
}

/// A full node line-up for one scenario, in process-id order.
type Lineup<M, O> = Vec<Box<dyn Node<Msg = M, Output = O>>>;

const N: usize = 4;
/// One timely hop everywhere: small enough to keep fixtures compact,
/// non-zero so timer/delivery interleavings are realistic.
const DELTA: u64 = 2;

fn topology() -> NetworkTopology {
    NetworkTopology::all_timely(N, DELTA)
}

fn system() -> SystemConfig {
    SystemConfig::new(N, 1).expect("n=4, t=1 is a valid resilience pair")
}

/// Records a line-up to a stop condition and encodes the trace.
fn record_generic<M, O>(
    name: &'static str,
    seed: u64,
    nodes: Lineup<M, O>,
    stop: impl FnMut(&[OutputRecord<O>]) -> bool,
) -> Vec<u8>
where
    M: Wire + Clone + Debug + Send + PartialEq + 'static,
    O: Wire + Clone + Debug + Send + PartialEq + 'static,
{
    let mut builder = SimBuilder::new(topology())
        .seed(seed)
        .record_effects(usize::MAX)
        .record_causes(usize::MAX);
    for node in nodes {
        builder = builder.boxed_node(node);
    }
    let mut sim = builder.build();
    sim.run_until(stop);
    Trace::from_run(N as u32, seed, name, sim.cause_trace(), sim.effect_trace())
        .expect("uncapped cause/effect traces always align")
        .encode()
}

/// Decodes `bytes` and replays them with the scenario's fresh node
/// line-up.
fn verify_generic<M, O>(bytes: &[u8], make_nodes: fn() -> Lineup<M, O>) -> Result<(), String>
where
    M: Wire + Clone + Debug + Send + PartialEq + 'static,
    O: Wire + Clone + Debug + Send + PartialEq + 'static,
{
    let trace = Trace::<M, O>::decode(bytes).map_err(|e| format!("decode: {e}"))?;
    replay_direct(&trace, make_nodes()).map_err(|e| format!("replay: {e}"))
}

// --- consensus ---

fn consensus_nodes() -> Lineup<ProtocolMsg<u64>, ConsensusEvent<u64>> {
    consensus_lineup([3, 8, 3, 8])
}

fn consensus_lineup(proposals: [u64; N]) -> Lineup<ProtocolMsg<u64>, ConsensusEvent<u64>> {
    let cfg = ConsensusConfig::paper(system());
    proposals
        .into_iter()
        .map(|v| {
            Box::new(ConsensusNode::new(cfg, v).expect("paper config is valid"))
                as Box<dyn Node<Msg = ProtocolMsg<u64>, Output = ConsensusEvent<u64>>>
        })
        .collect()
}

fn record_consensus() -> Vec<u8> {
    record_generic("consensus-n4", 7, consensus_nodes(), |outs| {
        outs.iter()
            .filter(|o| o.event.as_decision().is_some())
            .count()
            >= N
    })
}

fn verify_consensus(bytes: &[u8]) -> Result<(), String> {
    verify_generic(bytes, consensus_nodes)
}

// --- adopt-commit ---

fn ac_nodes() -> Vec<Box<dyn Node<Msg = ProtocolMsg<u64>, Output = AcNodeEvent<u64>>>> {
    [5u64, 5, 9, 9]
        .into_iter()
        .map(|v| {
            Box::new(AcNode::new(system(), Rules::PAPER, v))
                as Box<dyn Node<Msg = ProtocolMsg<u64>, Output = AcNodeEvent<u64>>>
        })
        .collect()
}

fn record_ac() -> Vec<u8> {
    record_generic("adopt-commit-n4", 11, ac_nodes(), |outs| outs.len() >= N)
}

fn verify_ac(bytes: &[u8]) -> Result<(), String> {
    verify_generic(bytes, ac_nodes)
}

// --- eventual agreement ---

fn ea_nodes() -> Vec<Box<dyn Node<Msg = ProtocolMsg<u64>, Output = EaNodeEvent<u64>>>> {
    let cfg = system();
    let schedule = RoundSchedule::new(&cfg, 0).expect("k=0 is always valid");
    [3u64, 8, 3, 8]
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            Box::new(EaNode::new(
                cfg,
                schedule.clone(),
                ProcessId::new(i),
                TimeoutPolicy::paper(),
                v,
                3,
            )) as Box<dyn Node<Msg = ProtocolMsg<u64>, Output = EaNodeEvent<u64>>>
        })
        .collect()
}

fn record_ea() -> Vec<u8> {
    // EaNode halts itself after max_rounds; record to quiescence.
    record_generic("eventual-agreement-n4", 13, ea_nodes(), |_| false)
}

fn verify_ea(bytes: &[u8]) -> Result<(), String> {
    verify_generic(bytes, ea_nodes)
}

// --- bot variant ---

fn bot_nodes() -> Vec<Box<dyn Node<Msg = BotMsg<u64>, Output = BotEvent<u64>>>> {
    let cfg = ConsensusConfig::paper(system());
    [3u64, 8, 3, 8]
        .into_iter()
        .map(|v| {
            Box::new(BotConsensusNode::new(cfg, v).expect("paper config is valid"))
                as Box<dyn Node<Msg = BotMsg<u64>, Output = BotEvent<u64>>>
        })
        .collect()
}

fn record_bot() -> Vec<u8> {
    record_generic("bot-n4", 17, bot_nodes(), |outs| {
        outs.iter()
            .filter(|o| matches!(o.event, BotEvent::Decided { .. } | BotEvent::DecidedBottom))
            .count()
            >= N
    })
}

fn verify_bot(bytes: &[u8]) -> Result<(), String> {
    verify_generic(bytes, bot_nodes)
}

// --- SMR ---

const SMR_SLOTS: u64 = 2;

fn smr_nodes() -> Vec<Box<dyn Node<Msg = SmrMsg<u64>, Output = SmrEvent<u64>>>> {
    let cfg = ConsensusConfig::paper(system());
    (0..N)
        .map(|i| {
            let preferred = if i % 2 == 0 { 1 } else { 2 };
            Box::new(ReplicaNode::new(
                cfg,
                TwoClientSource::new(preferred),
                SMR_SLOTS,
            )) as Box<dyn Node<Msg = SmrMsg<u64>, Output = SmrEvent<u64>>>
        })
        .collect()
}

fn record_smr() -> Vec<u8> {
    record_generic("smr-n4", 19, smr_nodes(), |outs| {
        outs.iter()
            .filter(|o| matches!(o.event, SmrEvent::Committed { .. }))
            .count()
            >= N * SMR_SLOTS as usize
    })
}

fn verify_smr(bytes: &[u8]) -> Result<(), String> {
    verify_generic(bytes, smr_nodes)
}

#[cfg(test)]
mod tests {
    use minsync_net::sim::InvocationCause;
    use minsync_net::TimerId;
    use minsync_types::Round;

    use super::*;
    use crate::replay::ReplayError;

    #[test]
    fn every_scenario_records_and_verifies() {
        for scenario in golden_scenarios() {
            let bytes = (scenario.record)();
            assert!(!bytes.is_empty(), "{}: empty recording", scenario.name);
            (scenario.verify)(&bytes).unwrap_or_else(|e| {
                panic!("{}: fresh recording failed verify: {e}", scenario.name)
            });
        }
    }

    #[test]
    fn recording_is_deterministic() {
        for scenario in golden_scenarios() {
            let a = (scenario.record)();
            let b = (scenario.record)();
            assert_eq!(a, b, "{}: recorder is nondeterministic", scenario.name);
        }
    }

    #[test]
    fn corrupted_fixture_fails_verify() {
        let scenario = &golden_scenarios()[0];
        let mut bytes = (scenario.record)();
        // Flip a byte deep in the step stream (past header + name).
        let idx = bytes.len() - 9;
        bytes[idx] ^= 0x40;
        assert!((scenario.verify)(&bytes).is_err());
    }

    type ConsensusTrace = Trace<ProtocolMsg<u64>, ConsensusEvent<u64>>;

    fn consensus_trace() -> ConsensusTrace {
        Trace::decode(&record_consensus()).expect("fresh recording decodes")
    }

    /// Index and cause of the first delivery in `trace`.
    fn first_delivery(
        trace: &mut ConsensusTrace,
    ) -> (usize, &mut InvocationCause<ProtocolMsg<u64>>) {
        trace
            .steps
            .iter_mut()
            .map(|s| &mut s.cause.cause)
            .enumerate()
            .find(|(_, c)| matches!(c, InvocationCause::Deliver { .. }))
            .expect("the consensus recording delivers messages")
    }

    #[test]
    fn replay_names_the_process_whose_proposal_changed() {
        let err = replay_direct(&consensus_trace(), consensus_lineup([3, 8, 3, 9]));
        assert!(
            matches!(err, Err(ReplayError::EffectMismatch { process, .. }) if process == ProcessId::new(3)),
            "{err:?}"
        );
    }

    #[test]
    fn replay_rejects_a_delivery_nobody_sent() {
        let mut trace = consensus_trace();
        let (i, cause) = first_delivery(&mut trace);
        let InvocationCause::Deliver { msg, .. } = cause else {
            unreachable!()
        };
        *msg = ProtocolMsg::EaCoord {
            round: Round::new(99),
            value: 77,
        };
        let err = replay_direct(&trace, consensus_nodes());
        assert!(
            matches!(err, Err(ReplayError::Inconsistent { step, .. }) if step == i),
            "{err:?}"
        );
    }

    #[test]
    fn replay_rejects_a_timer_that_was_never_armed() {
        // Round 1 decides on this topology, so no timer ever fires: turn a
        // delivery into a firing of an id nobody armed.
        let mut trace = consensus_trace();
        let (i, cause) = first_delivery(&mut trace);
        *cause = InvocationCause::Timer {
            id: TimerId::from_raw(u64::MAX),
        };
        let process = trace.steps[i].cause.process;
        assert_eq!(
            replay_direct(&trace, consensus_nodes()),
            Err(ReplayError::StaleTimer { step: i, process })
        );
    }

    #[test]
    fn replay_rejects_a_line_up_one_node_short() {
        let mut nodes = consensus_nodes();
        nodes.pop();
        assert_eq!(
            replay_direct(&consensus_trace(), nodes),
            Err(ReplayError::WrongSize {
                expected: N,
                got: N - 1
            })
        );
    }
}
