//! The six workloads, pinned here rather than borrowed from the harness so
//! a change elsewhere in the repo cannot silently move the yardstick.
//!
//! Every workload is a closed loop with think time 0, one routing group and
//! `clients == batch`: each slot carries exactly one command per client, so
//! a client's submit→commit time is the duration of the slot that carried
//! its command.

use std::time::Duration;

use minsync_adversary::SilentNode;
use minsync_core::ConsensusConfig;
use minsync_net::{ChannelTiming, DelayLaw, NetworkTopology, Node, VirtualTime};
use minsync_smr::{ReplicaNode, SmrEvent, SmrMsg};
use minsync_telemetry::Registry;
use minsync_transport::ClusterSpec;
use minsync_types::{BisourceSpec, ProcessId, SystemConfig};
use minsync_workload::{ArrivalProcess, Batch, ClientPopulation, WorkloadSpec};

/// Message type of the replicated log under test.
pub type Msg = SmrMsg<Batch>;
/// Output type of the replicated log under test.
pub type Out = SmrEvent<Batch>;
/// A boxed replica (correct or Byzantine).
pub type BoxedNode = Box<dyn Node<Msg = Msg, Output = Out>>;

/// Wall-clock length of one tick on the TCP and threaded substrates; every
/// latency a replica reports is a whole number of these.
pub const TICK: Duration = Duration::from_micros(200);
/// Milliseconds per tick.
pub const TICK_MS: f64 = 0.2;
/// Delivery bound of the all-timely simulated networks, in virtual ticks.
pub const TIMELY_DELTA: u64 = 3;

/// Which substrate carries the workload end to end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Substrate {
    /// `n` `minsync-node` processes over loopback TCP (`run_cluster`).
    Tcp,
    /// The virtual-time simulator, in the benchmark process.
    Sim,
}

/// The simulated network of a workload (TCP workloads use it for their
/// simulator mirror only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// Every channel timely with bound [`TIMELY_DELTA`].
    Timely,
    /// The paper's regime: every channel asynchronous with uniform 1–40
    /// tick delays, except those of one ⟨t+1⟩bisource at process 0, timely
    /// from time 0 with bound 4.
    Bisource,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Where it runs.
    pub substrate: Substrate,
    /// System size.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// Byzantine-silent replicas in the top ids (simulator only).
    pub silent: usize,
    /// Clients, which is also the batch cap.
    pub clients: usize,
    /// MAC every frame (TCP only).
    pub auth: bool,
    /// Simulated network.
    pub net: Net,
    /// Slots (commands per client) of one measured trial.
    pub trial_slots: usize,
}

/// All workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "tcp_n4",
        substrate: Substrate::Tcp,
        n: 4,
        t: 1,
        silent: 0,
        clients: 8,
        auth: false,
        net: Net::Timely,
        trial_slots: 250,
    },
    Workload {
        name: "tcp_n4_bulk_auth",
        substrate: Substrate::Tcp,
        n: 4,
        t: 1,
        silent: 0,
        clients: 512,
        auth: true,
        net: Net::Timely,
        trial_slots: 60,
    },
    Workload {
        name: "tcp_n7",
        substrate: Substrate::Tcp,
        n: 7,
        t: 2,
        silent: 0,
        clients: 8,
        auth: false,
        net: Net::Timely,
        trial_slots: 100,
    },
    Workload {
        name: "sim_n4_timely",
        substrate: Substrate::Sim,
        n: 4,
        t: 1,
        silent: 0,
        clients: 8,
        auth: false,
        net: Net::Timely,
        trial_slots: 5000,
    },
    Workload {
        name: "sim_n7_bisource_silent",
        substrate: Substrate::Sim,
        n: 7,
        t: 2,
        silent: 2,
        clients: 8,
        auth: false,
        net: Net::Bisource,
        trial_slots: 1000,
    },
    Workload {
        name: "sim_n20_timely",
        substrate: Substrate::Sim,
        n: 20,
        t: 6,
        silent: 0,
        clients: 8,
        auth: false,
        net: Net::Timely,
        trial_slots: 25,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Replicas that run the protocol.
    pub fn correct(&self) -> usize {
        self.n - self.silent
    }

    /// The same workload at another trial length.
    pub fn with_slots(mut self, slots: usize) -> Workload {
        self.trial_slots = slots;
        self
    }

    /// The same population on an all-timely simulated network: the mirror
    /// whose exact message counts stand in for a TCP run's.
    pub fn timely_mirror(mut self) -> Workload {
        self.substrate = Substrate::Sim;
        self.net = Net::Timely;
        self
    }

    /// The system parameters.
    pub fn system(&self) -> SystemConfig {
        SystemConfig::new(self.n, self.t).expect("workload table holds valid (n, t)")
    }

    /// Generates the client population: `clients` closed-loop streams of
    /// `trial_slots` commands each, in one routing group.
    pub fn population(&self, seed: u64) -> ClientPopulation {
        WorkloadSpec {
            groups: 1,
            clients_per_group: self.clients,
            commands_per_client: self.trial_slots,
            arrivals: ArrivalProcess::ClosedLoop { think: 0 },
            seed,
        }
        .generate(&self.system())
        .expect("one routing group is feasible for every (n, t)")
    }

    /// The simulated network.
    pub fn topology(&self) -> NetworkTopology {
        match self.net {
            Net::Timely => NetworkTopology::all_timely(self.n, TIMELY_DELTA),
            Net::Bisource => {
                let system = self.system();
                let spec = BisourceSpec::adjacent(&system, ProcessId::new(0), system.plurality())
                    .expect("process 0 with strength t+1 is a valid bisource");
                let noise = DelayLaw::Uniform { min: 1, max: 40 };
                NetworkTopology::uniform(self.n, ChannelTiming::asynchronous(noise)).with_bisource(
                    &spec,
                    VirtualTime::ZERO,
                    4,
                )
            }
        }
    }

    /// The replica line-up over `pop`: correct replicas in the low ids,
    /// silent ones on top. `registry`, when given, collects the correct
    /// replicas' `smr.*` counters.
    pub fn lineup(&self, pop: &ClientPopulation, registry: Option<&Registry>) -> Vec<BoxedNode> {
        let cfg = ConsensusConfig::paper(self.system());
        let target = pop.slots_upper_bound(self.clients);
        let mut nodes: Vec<BoxedNode> = (0..self.correct())
            .map(|i| {
                let replica = ReplicaNode::new(cfg, pop.source_for(i, self.clients), target);
                Box::new(match registry {
                    Some(registry) => replica.with_registry(registry),
                    None => replica,
                }) as BoxedNode
            })
            .collect();
        for _ in 0..self.silent {
            nodes.push(Box::new(SilentNode::<Msg, Out>::new()));
        }
        nodes
    }

    /// The cluster description of a TCP workload: loopback, no injected
    /// delay, 200 µs tick, default pipelining window, no WAL.
    pub fn cluster_spec(&self, seed: u64) -> ClusterSpec {
        ClusterSpec {
            n: self.n,
            t: self.t,
            groups: 1,
            clients_per_group: self.clients,
            commands_per_client: self.trial_slots,
            batch: self.clients,
            arrivals: ArrivalProcess::ClosedLoop { think: 0 },
            seed,
            riders: Vec::new(),
            auth: self.auth,
            tick: TICK,
            child_timeout: Duration::from_secs(60),
            harness_timeout: Duration::from_secs(60),
            window: None,
            trace_dir: None,
            stats_period: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in WORKLOADS {
            assert_eq!(workload(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn every_slot_carries_one_command_per_client() {
        let w = workload("sim_n4_timely").unwrap().with_slots(3);
        let pop = w.population(1);
        assert_eq!(pop.total_commands(), 3 * w.clients);
        assert_eq!(pop.source_for(0, w.clients).cap(), w.clients);
    }
}
