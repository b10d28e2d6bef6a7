//! Deterministic client workloads for the `minsync` replicated log: client
//! populations with seeded arrival processes, feasibility-respecting
//! command routing, batching proposal sources, and per-command
//! submit→commit latency accounting.
//!
//! The paper's consensus object is the engine of state-machine replication;
//! this crate supplies the *traffic*. A [`WorkloadSpec`] describes a client
//! population — how many command streams, how commands arrive
//! ([`ArrivalProcess`]: open-loop Poisson, open-loop bursts, or closed-loop
//! clients with think time), and how the client space is partitioned into
//! `m` routing **groups**. The partition is what keeps the paper's m-valued
//! feasibility bound `n − t > m·t` satisfied: every replica serving group
//! `g` derives group `g`'s next batch *deterministically from the commit
//! stream*, so each log slot sees at most `m` distinct proposals across the
//! correct replicas (checked against
//! [`SystemConfig::feasible`](minsync_types::SystemConfig::feasible) at
//! generation time).
//!
//! [`BatchingSource`] is the bridge to `minsync-smr`: a
//! [`ProposalSource`](minsync_smr::ProposalSource) whose values are whole
//! [`Batch`]es of client commands, amortizing one consensus instance over
//! many commands. Which group a replica champions rotates with the slot
//! number (`(replica + slot) mod m`), so no group can be starved by a
//! schedule that consistently favors one proposal.
//!
//! Because batches are pure functions of the agreed commit stream, batch
//! *content* never depends on a replica's local clock — that is what makes
//! logs reproducible across schedules and substrates (for `m = 1` they are
//! bit-identical between the simulator and the threaded runtime). Arrival
//! times instead drive the *accounting* ([`account`]): a command's latency
//! is `commit_tick − submit_tick` in virtual ticks, reported as
//! p50/p95/p99. When the consensus pipeline outruns an open-loop schedule
//! the difference saturates at zero (the pipeline was not the bottleneck);
//! under load — the regime the E10 experiment sweeps — latencies grow with
//! the backlog.
//!
//! [`ClientPopulation::replica`] builds the replica that drains a
//! population; its example runs one on the simulator end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod arrivals;
mod latency;
mod population;
mod source;

pub use arrivals::ArrivalProcess;
pub use latency::{account, committed_commands, DrainCursor, LatencyStats, WorkloadReport};
pub use population::{ClientPopulation, GroupQueue, WorkloadError, WorkloadSpec};
pub use source::BatchingSource;

use std::collections::BTreeMap;

use minsync_types::check::{self, Violation};
use minsync_types::ProcessId;

/// A batch of client commands — the value type a batching replicated log
/// agrees on. One consensus instance decides one `Batch`, amortizing its
/// cost over every command inside.
///
/// An empty batch is a valid no-op value (proposed only once a replica's
/// entire command space has drained).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Batch(pub Vec<u64>);

impl Batch {
    /// Number of commands in the batch.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the no-op batch.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The encoded commands, in commit order.
    pub fn commands(&self) -> &[u64] {
        &self.0
    }
}

/// The replicated-log properties of a batched run, through
/// [`minsync_types::check`]: the `(replica, slot, batch)` commits, in each
/// replica's commit order, are [prefix-consistent](check::prefix); replicas
/// `0..replicas` each committed exactly `total` commands
/// ([termination](check::termination)); and each replica's commands are
/// per-client exactly-once [FIFO](check::fifo) in [`command`]'s encoding.
/// Commits of several substrates are checked together under distinct ids.
pub fn log_violations<'a>(
    commits: impl IntoIterator<Item = (ProcessId, u64, &'a Batch)>,
    replicas: usize,
    total: usize,
) -> Vec<Violation> {
    let commits: Vec<(ProcessId, u64, &Batch)> = commits.into_iter().collect();
    let mut logs: BTreeMap<ProcessId, Vec<u64>> = BTreeMap::new();
    for &(p, _, batch) in &commits {
        logs.entry(p).or_default().extend(batch.commands());
    }
    let mut found = check::prefix(commits);
    let lengths = logs.iter().map(|(&p, log)| (p, log.len()));
    let short = check::termination(ProcessId::all(replicas), lengths, &total);
    found.extend(short);
    let decode = |cmd| (command::client_of(cmd), command::seq_of(cmd));
    for log in logs.into_values() {
        found.extend(check::fifo(log, decode));
    }
    found
}

/// Encoding of client commands as `u64`s: the client id in the high bits,
/// the client's sequence number in the low [`command::SEQ_BITS`].
pub mod command {
    /// Bits reserved for the per-client sequence number.
    pub const SEQ_BITS: u32 = 24;

    /// Encodes client `client`'s `seq`-th command.
    ///
    /// # Panics
    ///
    /// Panics if `seq` or `client` overflow their fields.
    pub fn encode(client: u64, seq: u64) -> u64 {
        assert!(seq < 1 << SEQ_BITS, "sequence number overflow");
        assert!(client < 1 << (64 - SEQ_BITS), "client id overflow");
        (client << SEQ_BITS) | seq
    }

    /// The client id of an encoded command.
    pub fn client_of(cmd: u64) -> u64 {
        cmd >> SEQ_BITS
    }

    /// The per-client sequence number of an encoded command.
    pub fn seq_of(cmd: u64) -> u64 {
        cmd & ((1 << SEQ_BITS) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_encoding_round_trips() {
        let c = command::encode(5, 77);
        assert_eq!(command::client_of(c), 5);
        assert_eq!(command::seq_of(c), 77);
        assert_eq!(command::client_of(command::encode(0, 0)), 0);
    }

    #[test]
    #[should_panic(expected = "sequence number overflow")]
    fn seq_overflow_rejected() {
        let _ = command::encode(1, 1 << command::SEQ_BITS);
    }

    #[test]
    fn batch_accessors() {
        let b = Batch(vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.commands(), [1, 2, 3]);
        assert!(Batch::default().is_empty());
    }
}
