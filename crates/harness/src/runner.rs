use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use minsync_core::{ConsensusConfig, ConsensusEvent, ProtocolMsg, Rules, TimeoutPolicy};
use minsync_net::sim::{ScheduleOracle, SimBuilder};
use minsync_telemetry::trace::TraceRecorder;
use minsync_telemetry::Registry;
use minsync_types::SystemConfig;

use crate::faults::FaultPlan;
use crate::outcome::RunOutcome;
use crate::topology::TopologySpec;
use crate::HarnessError;

/// Builder for one fully-specified consensus run: system size, proposals,
/// fault plan, network shape, tuning parameter `k`, timeout policy, seed.
///
/// See the [crate docs](crate) for a complete example.
pub struct ConsensusRunBuilder {
    spec: RunSpec,
    oracle: Option<Box<dyn ScheduleOracle<ProtocolMsg<u64>>>>,
    registry: Option<Arc<Registry>>,
    trace: Option<Arc<TraceRecorder>>,
}

/// The cloneable, thread-shareable part of a [`ConsensusRunBuilder`]
/// (everything except the schedule oracle and the telemetry sinks), which
/// [`ConsensusRunBuilder::run_seeds`] clones once per seed.
#[derive(Clone)]
struct RunSpec {
    system: SystemConfig,
    proposals: Vec<u64>,
    faults: FaultPlan,
    topology: TopologySpec,
    seed: u64,
    k: usize,
    timeout: TimeoutPolicy,
    max_events: u64,
    max_rounds: Option<u64>,
    rules: Option<Rules>,
}

impl ConsensusRunBuilder {
    /// Starts a run description for `n` processes tolerating `t` faults.
    /// Defaults: proposals `i mod 2`, no faults, standard topology
    /// (async noise + immediate ⟨t+1⟩bisource at `p1`), seed 0, `k = 0`,
    /// the paper's timeout policy.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Config`] if `t ≥ n/3` or `n ≤ 1`.
    pub fn new(n: usize, t: usize) -> Result<Self, HarnessError> {
        let system = SystemConfig::new(n, t)?;
        Ok(ConsensusRunBuilder {
            spec: RunSpec {
                system,
                proposals: (0..n).map(|i| (i % 2) as u64).collect(),
                faults: FaultPlan::AllCorrect,
                topology: TopologySpec::standard(0, &system),
                seed: 0,
                k: 0,
                timeout: TimeoutPolicy::paper(),
                max_events: 10_000_000,
                max_rounds: None,
                rules: None,
            },
            oracle: None,
            registry: None,
            trace: None,
        })
    }

    /// Per-slot proposals (must supply exactly `n`).
    pub fn proposals(mut self, proposals: impl IntoIterator<Item = u64>) -> Self {
        self.spec.proposals = proposals.into_iter().collect();
        self
    }

    /// Installs a fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.spec.faults = faults;
        self
    }

    /// Chooses the network shape.
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.spec.topology = topology;
        self
    }

    /// RNG seed (runs are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Tuning parameter `k` of Section 5.4.
    pub fn k(mut self, k: usize) -> Self {
        self.spec.k = k;
        self
    }

    /// EA timeout policy.
    pub fn timeout_policy(mut self, timeout: TimeoutPolicy) -> Self {
        self.spec.timeout = timeout;
        self
    }

    /// The rule set every process runs (default [`Rules::PAPER`]).
    pub fn rules(mut self, rules: Rules) -> Self {
        self.spec.rules = Some(rules);
        self
    }

    /// Event budget (default 10 million).
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.spec.max_events = max_events;
        self
    }

    /// Cap on protocol rounds (processes stop proposing beyond it).
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.spec.max_rounds = Some(max_rounds);
        self
    }

    /// Installs the network adversary (see [`ScheduleOracle`]).
    pub fn schedule_oracle(
        mut self,
        oracle: impl ScheduleOracle<ProtocolMsg<u64>> + 'static,
    ) -> Self {
        self.oracle = Some(Box::new(oracle));
        self
    }

    /// Exports the simulator's per-link delay estimates into `registry`
    /// (as `link.rtt_ewma.*` gauges) when the run ends — the
    /// cross-substrate metrics surface of `minsync-telemetry`.
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Records structured trace events (effects, queue residency, handler
    /// steps, timer fires) into `trace` as the simulation executes.
    pub fn trace(mut self, trace: Arc<TraceRecorder>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Executes the run: simulates until every correct process decided (or
    /// the event budget is spent) and evaluates the outcome.
    ///
    /// # Errors
    ///
    /// Configuration errors (proposal count, fault plan, topology).
    pub fn run(self) -> Result<RunOutcome, HarnessError> {
        let spec = self.spec;
        let n = spec.system.n();
        if spec.proposals.len() != n {
            return Err(HarnessError::ProposalCount {
                expected: n,
                got: spec.proposals.len(),
            });
        }
        spec.faults.validate(&spec.system)?;
        let cons_cfg = ConsensusConfig {
            k: spec.k,
            timeout: spec.timeout,
            max_rounds: spec.max_rounds,
            rules: spec.rules,
            ..ConsensusConfig::paper(spec.system)
        };
        // Surface schedule errors (invalid k) eagerly.
        cons_cfg.schedule()?;
        let topo = spec.topology.build(&spec.system)?;

        let mut builder = SimBuilder::new(topo)
            .seed(spec.seed)
            .max_events(spec.max_events)
            .classify(ProtocolMsg::<u64>::kind);
        if let Some(oracle) = self.oracle {
            builder = builder.boxed_schedule_oracle(oracle);
        }
        if let Some(registry) = self.registry {
            builder = builder.registry(registry);
        }
        if let Some(trace) = self.trace {
            builder = builder.trace(trace);
        }
        for slot in 0..n {
            let node = spec
                .faults
                .build_node(slot, cons_cfg, spec.proposals[slot])?;
            builder = builder.boxed_node(node);
        }
        let mut sim = builder.build();

        let correct = spec.faults.correct_slots(n);
        let need = correct.len();
        let correct_pred = correct.clone();
        let report = sim.run_until(move |outs| {
            outs.iter()
                .filter(|o| correct_pred.contains(&o.process.index()))
                .filter(|o| matches!(o.event, ConsensusEvent::Decided { .. }))
                .count()
                == need
        });

        // Validity is judged against *correct* proposals only: whatever a
        // Byzantine slot claimed (e.g. an equivocator's two values) may
        // never be decided unless a correct process also proposed it.
        let correct_proposals: Vec<u64> = correct.iter().map(|&i| spec.proposals[i]).collect();
        Ok(RunOutcome::from_outputs(
            &report.outputs,
            correct,
            correct_proposals,
            report.metrics,
            report.reason,
        ))
    }

    /// Executes the same run description once per seed in `seeds`, fanned
    /// across `available_parallelism` scoped worker threads (each claims the
    /// next seed from a shared atomic index), and returns the outcomes sorted
    /// by seed.
    ///
    /// Sans-io makes this safe and exact: every per-seed simulation owns
    /// its nodes outright (no substrate borrows), so runs are fully
    /// independent and each parallel outcome is identical to what the same
    /// seed produces sequentially.
    ///
    /// # Errors
    ///
    /// Everything [`ConsensusRunBuilder::run`] can return, plus
    /// [`HarnessError::Unsupported`] if a schedule oracle is installed (a
    /// boxed oracle is single-run state and cannot be shared across
    /// threads — sweep without one, or loop over seeds sequentially).
    pub fn run_seeds(
        self,
        seeds: std::ops::Range<u64>,
    ) -> Result<Vec<(u64, RunOutcome)>, HarnessError> {
        if self.oracle.is_some() {
            return Err(HarnessError::Unsupported {
                reason: "run_seeds cannot share a boxed schedule oracle across threads".into(),
            });
        }
        if self.registry.is_some() || self.trace.is_some() {
            return Err(HarnessError::Unsupported {
                reason: "run_seeds would interleave telemetry from unrelated seeds; \
                         instrument single runs instead"
                    .into(),
            });
        }
        let spec = &self.spec;
        let seeds: Vec<u64> = seeds.collect();
        if seeds.is_empty() {
            return Ok(Vec::new());
        }
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
            .min(seeds.len());
        let next = AtomicUsize::new(0);
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        while let Some(&seed) = seeds.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let spec = RunSpec {
                                seed,
                                ..spec.clone()
                            };
                            let outcome = ConsensusRunBuilder {
                                spec,
                                oracle: None,
                                registry: None,
                                trace: None,
                            }
                            .run();
                            done.push(outcome.map(|o| (seed, o)));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("run_seeds worker panicked"))
                .collect()
        });
        let mut results = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
        results.sort_by_key(|(seed, _)| *seed);
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minsync_net::DelayLaw;

    #[test]
    fn default_run_reaches_agreement() {
        let o = ConsensusRunBuilder::new(4, 1)
            .unwrap()
            .proposals([7, 7, 8, 8])
            .seed(1)
            .run()
            .unwrap();
        assert!(o.all_decided());
        assert!(o.agreement_holds());
        assert!(o.validity_holds());
        assert!(o.rounds_to_decide() >= 1);
        assert!(o.total_messages() > 0);
    }

    #[test]
    fn proposal_count_checked() {
        let err = ConsensusRunBuilder::new(4, 1)
            .unwrap()
            .proposals([1, 2])
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            HarnessError::ProposalCount {
                expected: 4,
                got: 2
            }
        ));
    }

    #[test]
    fn fault_plan_checked() {
        let err = ConsensusRunBuilder::new(4, 1)
            .unwrap()
            .faults(FaultPlan::silent(2))
            .run()
            .unwrap_err();
        assert!(matches!(err, HarnessError::BadFaultPlan { .. }));
    }

    #[test]
    fn silent_fault_run_decides() {
        let o = ConsensusRunBuilder::new(4, 1)
            .unwrap()
            .proposals([3, 3, 4, 0])
            .faults(FaultPlan::silent(1))
            .seed(5)
            .run()
            .unwrap();
        assert!(o.all_decided());
        assert!(o.agreement_holds());
        assert!(o.validity_holds());
    }

    #[test]
    fn all_async_without_bisource_may_stall_but_stays_safe() {
        // No bisource, adversarially slow network, small budget: the run
        // may not terminate (the paper proves nothing without the
        // bisource) but safety must hold for whatever decisions happened.
        let o = ConsensusRunBuilder::new(4, 1)
            .unwrap()
            .proposals([0, 1, 0, 1])
            .topology(TopologySpec::AllAsync {
                noise: DelayLaw::Uniform { min: 1, max: 100 },
            })
            .max_events(200_000)
            .seed(3)
            .run()
            .unwrap();
        assert!(o.agreement_holds());
        assert!(o.validity_holds());
    }

    #[test]
    fn run_seeds_matches_sequential_runs() {
        let sweep = |seeds: std::ops::Range<u64>| {
            ConsensusRunBuilder::new(4, 1)
                .unwrap()
                .proposals([1, 2, 1, 2])
                .faults(FaultPlan::silent(1))
                .run_seeds(seeds)
                .unwrap()
        };
        // ≥ 4 seeds fanned across threads...
        let parallel = sweep(0..6);
        assert_eq!(parallel.len(), 6);
        // ...must be indistinguishable from running each seed alone.
        for (seed, outcome) in &parallel {
            let solo = ConsensusRunBuilder::new(4, 1)
                .unwrap()
                .proposals([1, 2, 1, 2])
                .faults(FaultPlan::silent(1))
                .seed(*seed)
                .run()
                .unwrap();
            assert_eq!(outcome.decided_value(), solo.decided_value(), "seed {seed}");
            assert_eq!(
                outcome.decision_latency(),
                solo.decision_latency(),
                "seed {seed}"
            );
            assert_eq!(
                outcome.total_messages(),
                solo.total_messages(),
                "seed {seed}"
            );
            assert!(outcome.agreement_holds() && outcome.validity_holds());
        }
        // And the sweep itself is reproducible.
        let again = sweep(0..6);
        for ((s1, a), (s2, b)) in parallel.iter().zip(again.iter()) {
            assert_eq!(s1, s2);
            assert_eq!(a.decided_value(), b.decided_value());
            assert_eq!(a.total_messages(), b.total_messages());
        }
    }

    #[test]
    fn run_seeds_rejects_oracle() {
        let err = ConsensusRunBuilder::new(4, 1)
            .unwrap()
            .schedule_oracle(
                |_f: minsync_types::ProcessId,
                 _t: minsync_types::ProcessId,
                 _at: minsync_net::VirtualTime,
                 _m: &ProtocolMsg<u64>,
                 _d: u64| minsync_net::sim::ScheduleCommand::Default,
            )
            .run_seeds(0..2)
            .unwrap_err();
        assert!(matches!(err, HarnessError::Unsupported { .. }));
    }

    #[test]
    fn run_seeds_empty_range_is_empty() {
        let out = ConsensusRunBuilder::new(4, 1)
            .unwrap()
            .run_seeds(5..5)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn same_seed_same_outcome() {
        let run = |seed| {
            let o = ConsensusRunBuilder::new(4, 1)
                .unwrap()
                .proposals([1, 2, 1, 2])
                .seed(seed)
                .run()
                .unwrap();
            (o.decided_value(), o.decision_latency(), o.total_messages())
        };
        assert_eq!(run(9), run(9));
    }
}
