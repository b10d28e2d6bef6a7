//! Shared measurement rig for the EA-object experiments (E3, E6, E8).
//!
//! Section 5.4 measures the EA algorithm by "the round `r` during which all
//! correct processes return the same value"; this module runs standalone
//! [`EaNode`]s under the split-brain network adversary and reports exactly
//! that round (and its virtual time).

use std::collections::BTreeMap;

use minsync_adversary::oracles::SplitBrainOracle;
use minsync_core::{EaNode, EaNodeEvent, TimeoutPolicy};
use minsync_net::sim::SimBuilder;
use minsync_net::{ChannelTiming, DelayLaw, NetworkTopology, VirtualTime};
use minsync_types::{BisourceSpec, ProcessId, RoundSchedule, SystemConfig};

/// Parameters of one EA convergence run.
#[derive(Clone, Debug)]
pub struct EaLabParams {
    /// Number of processes (all correct; the adversary is the network).
    pub n: usize,
    /// Fault tolerance parameter (quorum sizes; no slot is actually faulty).
    pub t: usize,
    /// Tuning parameter `k` of Section 5.4 (`F` sets of size `n − t + k`).
    pub k: usize,
    /// Bisource identity (0-based index); its `X` sets are placed
    /// *adjacently* (wrapping upward) with strength `t + 1 + k`.
    pub bisource: usize,
    /// Stabilization time of the bisource's channels.
    pub tau: u64,
    /// Post-stabilization bound δ.
    pub delta: u64,
    /// EA timeout policy.
    pub policy: TimeoutPolicy,
    /// RNG seed.
    pub seed: u64,
    /// Safety horizon on rounds.
    pub max_rounds: u64,
}

impl EaLabParams {
    /// Sensible defaults: n = 4, t = 1, k = 0, bisource p2, τ = 0, δ = 4,
    /// the paper's timeout policy.
    pub fn new(n: usize, t: usize) -> Self {
        EaLabParams {
            n,
            t,
            k: 0,
            bisource: 1,
            tau: 0,
            delta: 4,
            policy: TimeoutPolicy::paper(),
            seed: 1,
            max_rounds: 600,
        }
    }
}

/// Result: the first round in which all processes returned one value, plus
/// the virtual time of the last such return. `None` = no convergence
/// within `max_rounds` (reported as such in tables; it would contradict
/// Theorem 3 only if the horizon were infinite).
#[derive(Clone, Copy, Debug)]
pub struct EaConvergence {
    /// The agreeing round.
    pub round: u64,
    /// Virtual time of the last return of that round.
    pub time: u64,
}

/// Runs one convergence measurement.
pub fn converge(p: &EaLabParams) -> Option<EaConvergence> {
    let cfg = SystemConfig::new(p.n, p.t).ok()?;
    let schedule = RoundSchedule::new(&cfg, p.k).ok()?;
    let strength = p.t + 1 + p.k;
    let spec = BisourceSpec::adjacent(&cfg, ProcessId::new(p.bisource), strength).ok()?;
    let topo = NetworkTopology::uniform(
        p.n,
        ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 30 }),
    )
    .with_bisource(&spec, VirtualTime::from_ticks(p.tau), p.delta);

    let mut builder = SimBuilder::new(topo)
        .seed(p.seed)
        .max_events(80_000_000)
        .with_schedule_oracle(SplitBrainOracle::with_schedule(schedule.clone()));
    let correct: Vec<usize> = (0..p.n).collect();
    for i in 0..p.n {
        builder = builder.node(EaNode::new(
            cfg,
            schedule.clone(),
            ProcessId::new(i),
            p.policy,
            (i % 2) as u64,
            p.max_rounds,
        ));
    }
    let mut sim = builder.build();
    let correct_pred = correct.clone();
    let report = sim.run_until(move |outs| {
        first_agreement(
            outs.iter()
                .map(|o| (o.process.index(), &o.event, o.time.ticks())),
            &correct_pred,
        )
        .is_some()
    });
    first_agreement(
        report
            .outputs
            .iter()
            .map(|o| (o.process.index(), &o.event, o.time.ticks())),
        &correct,
    )
    .map(|(round, time)| EaConvergence { round, time })
}

/// First round in which every process in `correct` returned the same value;
/// returns (round, time of the last such return).
pub(crate) fn first_agreement<'a>(
    events: impl Iterator<Item = (usize, &'a EaNodeEvent<u64>, u64)>,
    correct: &[usize],
) -> Option<(u64, u64)> {
    let mut per_round: BTreeMap<u64, BTreeMap<usize, (u64, u64)>> = BTreeMap::new();
    for (p, ev, time) in events {
        let EaNodeEvent::Returned { round, value, .. } = ev;
        per_round
            .entry(round.get())
            .or_default()
            .insert(p, (*value, time));
    }
    for (round, by_proc) in per_round {
        if correct.iter().all(|p| by_proc.contains_key(p)) {
            let mut vals = correct.iter().map(|p| by_proc[p].0);
            let first = vals.next().expect("correct non-empty");
            if vals.all(|v| v == first) {
                let time = correct.iter().map(|p| by_proc[p].1).max().unwrap_or(0);
                return Some((round, time));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_converge() {
        let c = converge(&EaLabParams::new(4, 1)).expect("must converge");
        assert!(c.round >= 1);
    }

    #[test]
    fn k_equals_t_converges_fast() {
        // F = all processes: every bisource-coordinated round qualifies.
        let mut p = EaLabParams::new(4, 1);
        p.k = 1;
        p.policy = TimeoutPolicy::linear(10, 0);
        let c = converge(&p).expect("must converge");
        assert!(
            c.round <= 8,
            "k = t should converge within two coordinator cycles, got {}",
            c.round
        );
    }
}
