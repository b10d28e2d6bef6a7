use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use minsync_core::ConsensusConfig;
use minsync_smr::ReplicaNode;
use minsync_telemetry::{TraceKind, TraceRecorder};
use minsync_types::SystemConfig;

use crate::{command, ArrivalProcess, Batch, BatchingSource};

/// Errors constructing a workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadError {
    /// The group count `m` violates the paper's feasibility bound
    /// `n − t > m·t` for the target system.
    Infeasible {
        /// Requested group count.
        groups: usize,
        /// System size.
        n: usize,
        /// Fault bound.
        t: usize,
    },
    /// A structural parameter was zero.
    Empty {
        /// Which parameter.
        what: &'static str,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Infeasible { groups, n, t } => write!(
                f,
                "m = {groups} routing groups violate n − t > m·t for (n, t) = ({n}, {t})"
            ),
            WorkloadError::Empty { what } => write!(f, "workload needs at least one {what}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Declarative description of a client population.
///
/// `groups` is the `m` of the feasibility bound: the client space is
/// partitioned into `m` routing groups (client `c` belongs to group
/// `c mod m`) and each log slot sees at most `m` distinct proposals.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Routing groups `m` (validated against `n − t > m·t`).
    pub groups: usize,
    /// Client streams per group.
    pub clients_per_group: usize,
    /// Commands issued by each client.
    pub commands_per_client: usize,
    /// Arrival process shared by every client (each client draws from its
    /// own seeded stream).
    pub arrivals: ArrivalProcess,
    /// Workload seed (command schedules are deterministic per seed).
    pub seed: u64,
}

impl WorkloadSpec {
    /// Materializes the population, validating the feasibility bound
    /// against `system`.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] on an infeasible group count or empty dimensions.
    pub fn generate(&self, system: &SystemConfig) -> Result<ClientPopulation, WorkloadError> {
        if self.groups == 0 {
            return Err(WorkloadError::Empty { what: "group" });
        }
        if self.clients_per_group == 0 {
            return Err(WorkloadError::Empty { what: "client" });
        }
        if self.commands_per_client == 0 {
            return Err(WorkloadError::Empty { what: "command" });
        }
        if !system.feasible(self.groups) {
            return Err(WorkloadError::Infeasible {
                groups: self.groups,
                n: system.n(),
                t: system.t(),
            });
        }
        let m = self.groups;
        let mut queues = Vec::with_capacity(m);
        let mut submit_of = BTreeMap::new();
        for g in 0..m {
            // Group g's clients are g, g + m, g + 2m, … — the canonical
            // "client space partitioned by residue" routing.
            let mut entries: Vec<(u64, u64, u64)> = Vec::new(); // (key tick, client, seq)
            for i in 0..self.clients_per_group {
                let client = (g + i * m) as u64;
                let ticks = self.arrivals.submit_ticks(
                    minsync_net::derive_stream(self.seed, client),
                    self.commands_per_client,
                );
                for (seq, &tick) in ticks.iter().enumerate() {
                    entries.push((tick, client, seq as u64));
                }
            }
            // Open-loop queues follow arrival order; the closed-loop queue
            // round-robins sequence numbers so any contiguous window of at
            // most `clients_per_group` commands has one command per client.
            match self.arrivals {
                ArrivalProcess::ClosedLoop { .. } => {
                    entries.sort_by_key(|&(_, client, seq)| (seq, client));
                }
                _ => entries.sort(),
            }
            let mut commands = Vec::with_capacity(entries.len());
            let mut submits = Vec::with_capacity(entries.len());
            for (tick, client, seq) in entries {
                let cmd = command::encode(client, seq);
                commands.push(cmd);
                submits.push(tick);
                submit_of.insert(cmd, tick);
            }
            queues.push(Arc::new(GroupQueue { commands, submits }));
        }
        Ok(ClientPopulation {
            spec: self.clone(),
            queues,
            submit_of,
        })
    }
}

/// One routing group's command queue, in proposal order.
#[derive(Debug)]
pub struct GroupQueue {
    pub(crate) commands: Vec<u64>,
    pub(crate) submits: Vec<u64>,
}

impl GroupQueue {
    /// The group's commands in proposal order.
    pub fn commands(&self) -> &[u64] {
        &self.commands
    }

    /// Submit ticks aligned with [`GroupQueue::commands`].
    pub fn submits(&self) -> &[u64] {
        &self.submits
    }
}

/// A generated client population: per-group command queues with submit
/// schedules, shared (cheaply, via `Arc`) by every replica's
/// [`BatchingSource`].
#[derive(Debug)]
pub struct ClientPopulation {
    spec: WorkloadSpec,
    queues: Vec<Arc<GroupQueue>>,
    submit_of: BTreeMap<u64, u64>,
}

impl ClientPopulation {
    /// One group's queue.
    pub fn group(&self, g: usize) -> &GroupQueue {
        &self.queues[g]
    }

    /// Total commands across all clients.
    pub fn total_commands(&self) -> usize {
        self.queues.iter().map(|q| q.commands.len()).sum()
    }

    /// The submit tick of an encoded command (`None` for unknown commands
    /// — e.g. Byzantine fabrications).
    pub fn submit_tick(&self, cmd: u64) -> Option<u64> {
        self.submit_of.get(&cmd).copied()
    }

    /// Back-fills `node`'s `Submitted` stage events into `trace`: a
    /// committed slot "finished arriving" at the latest submit tick among
    /// the commands its batch carries. The workload has no client
    /// processes to record the stage live, and the analyzer keeps the
    /// earliest observation per stage, so appending after the run is
    /// equivalent.
    pub fn backfill_submitted<'a>(
        &self,
        trace: &TraceRecorder,
        node: u32,
        committed: impl IntoIterator<Item = (u64, &'a Batch)>,
    ) {
        for (slot, batch) in committed {
            let arrived = batch
                .commands()
                .iter()
                .filter_map(|&cmd| self.submit_tick(cmd));
            if let Some(at) = arrived.max() {
                trace.record_at(at, node, TraceKind::Submitted { slot });
            }
        }
    }

    /// The arrival process.
    pub fn arrivals(&self) -> &ArrivalProcess {
        &self.spec.arrivals
    }

    /// A batching proposal source for `replica`, batching up to `batch_cap`
    /// commands per slot (clamped to one command per client for closed-loop
    /// populations, which keep at most one command per client in flight).
    ///
    /// # Panics
    ///
    /// Panics if `batch_cap == 0`.
    pub fn source_for(&self, replica: usize, batch_cap: usize) -> BatchingSource {
        assert!(batch_cap > 0, "a zero batch cap proposes nothing");
        let cap = match self.spec.arrivals {
            ArrivalProcess::ClosedLoop { .. } => batch_cap.min(self.spec.clients_per_group),
            _ => batch_cap,
        };
        BatchingSource::new(self.queues.clone(), replica, cap)
    }

    /// A safe `target_slots` for replicas draining this population with
    /// `batch_cap`-sized batches: in the worst interleaving each group
    /// needs `⌈commands/cap⌉` winning slots and groups alternate, plus
    /// slack for empty tail slots.
    pub fn slots_upper_bound(&self, batch_cap: usize) -> u64 {
        assert!(batch_cap > 0, "a zero batch cap proposes nothing");
        let per_group: u64 = self
            .queues
            .iter()
            .map(|q| (q.commands.len() as u64).div_ceil(batch_cap as u64))
            .sum();
        3 * per_group + 64
    }

    /// Replica `replica` of `system` draining this population in batches
    /// of up to `batch_cap`: the paper's consensus configuration,
    /// [`source_for`](Self::source_for)`(replica, batch_cap)` as its
    /// proposal source and [`slots_upper_bound`](Self::slots_upper_bound)
    /// `(batch_cap)` as its slot target. Callers chain the replica's
    /// `with_*` riders onto it.
    ///
    /// ```rust
    /// use minsync_net::{sim::SimBuilder, NetworkTopology};
    /// use minsync_smr::commits;
    /// use minsync_types::{ProcessId, SystemConfig};
    /// use minsync_workload::{account, log_violations, ArrivalProcess, DrainCursor, WorkloadSpec};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let system = SystemConfig::new(4, 1)?;
    /// let pop = WorkloadSpec {
    ///     groups: 2,
    ///     clients_per_group: 2,
    ///     commands_per_client: 4,
    ///     arrivals: ArrivalProcess::Poisson { mean_gap: 8.0 },
    ///     seed: 7,
    /// }
    /// .generate(&system)?;
    /// let mut builder = SimBuilder::new(NetworkTopology::all_timely(4, 3)).seed(7);
    /// for replica in 0..4 {
    ///     builder = builder.node(pop.replica(system, replica, 4)); // batches of up to 4
    /// }
    /// let total = pop.total_commands();
    /// let mut drained = DrainCursor::new(4, total);
    /// let report = builder
    ///     .build()
    ///     .run_until(|outs| drained.advance(outs, |o| (o.process, &o.event)));
    /// assert!(log_violations(commits(&report.outputs), 4, total).is_empty());
    /// let stats = account(&pop, &report.outputs, ProcessId::new(0));
    /// assert_eq!(stats.commands, total);
    /// assert!(stats.cmds_per_ktick() > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `batch_cap == 0`.
    pub fn replica(
        &self,
        system: SystemConfig,
        replica: usize,
        batch_cap: usize,
    ) -> ReplicaNode<Batch, BatchingSource> {
        ReplicaNode::new(
            ConsensusConfig::paper(system),
            self.source_for(replica, batch_cap),
            self.slots_upper_bound(batch_cap),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(groups: usize) -> WorkloadSpec {
        WorkloadSpec {
            groups,
            clients_per_group: 2,
            commands_per_client: 5,
            arrivals: ArrivalProcess::Poisson { mean_gap: 4.0 },
            seed: 1,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let system = SystemConfig::new(4, 1).unwrap();
        let a = spec(2).generate(&system).unwrap();
        let b = spec(2).generate(&system).unwrap();
        for g in 0..2 {
            assert_eq!(a.group(g).commands(), b.group(g).commands());
            assert_eq!(a.group(g).submits(), b.group(g).submits());
        }
        assert_eq!(a.total_commands(), 20);
    }

    #[test]
    fn clients_partition_by_residue() {
        let system = SystemConfig::new(4, 1).unwrap();
        let pop = spec(2).generate(&system).unwrap();
        for g in 0..2 {
            for &cmd in pop.group(g).commands() {
                assert_eq!(command::client_of(cmd) as usize % 2, g);
            }
        }
    }

    #[test]
    fn infeasible_group_count_rejected() {
        let system = SystemConfig::new(4, 1).unwrap(); // m_max = 2
        assert_eq!(
            spec(3).generate(&system).unwrap_err(),
            WorkloadError::Infeasible {
                groups: 3,
                n: 4,
                t: 1
            }
        );
        let msg = spec(3).generate(&system).unwrap_err().to_string();
        assert!(msg.contains("m = 3"));
    }

    #[test]
    fn zero_dimensions_rejected() {
        let system = SystemConfig::new(4, 1).unwrap();
        let mut s = spec(1);
        s.clients_per_group = 0;
        assert!(matches!(
            s.generate(&system),
            Err(WorkloadError::Empty { what: "client" })
        ));
    }

    #[test]
    fn open_loop_queue_is_ordered_by_submit_tick() {
        let system = SystemConfig::new(4, 1).unwrap();
        let pop = spec(2).generate(&system).unwrap();
        for g in 0..2 {
            let submits = pop.group(g).submits();
            assert!(submits.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn closed_loop_queue_round_robins_clients() {
        let system = SystemConfig::new(4, 1).unwrap();
        let pop = WorkloadSpec {
            arrivals: ArrivalProcess::ClosedLoop { think: 3 },
            ..spec(1)
        }
        .generate(&system)
        .unwrap();
        let cmds = pop.group(0).commands();
        // Two clients, round-robin: any window of two has both clients.
        for w in cmds.chunks(2) {
            if w.len() == 2 {
                assert_ne!(command::client_of(w[0]), command::client_of(w[1]));
            }
        }
        // Closed-loop sources clamp the batch cap to the client count.
        let src = pop.source_for(0, 64);
        assert_eq!(src.cap(), 2);
    }

    #[test]
    fn submit_tick_lookup_covers_all_commands() {
        let system = SystemConfig::new(4, 1).unwrap();
        let pop = spec(2).generate(&system).unwrap();
        for g in 0..2 {
            for &cmd in pop.group(g).commands() {
                assert!(pop.submit_tick(cmd).is_some());
            }
        }
        assert_eq!(pop.submit_tick(u64::MAX), None);
    }

    #[test]
    fn slots_upper_bound_covers_the_worst_interleaving() {
        let system = SystemConfig::new(4, 1).unwrap();
        let pop = spec(2).generate(&system).unwrap();
        // 10 commands per group, cap 4 → 3 slots per group → 3·6 + 64.
        assert_eq!(pop.slots_upper_bound(4), 82);
    }
}
