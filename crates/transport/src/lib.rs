//! The socket-backed substrate: run the same sans-io automata every other
//! substrate runs — over real TCP connections, across real OS processes.
//!
//! The repository's other two substrates live in `minsync-net`: the
//! deterministic discrete-event simulator and the in-process threaded
//! runtime. This crate adds the third and most production-shaped one:
//!
//! * [`TcpMesh`] ([`mesh`]) — one mesh instance per process, speaking the
//!   `minsync-wire` byte protocol over nonblocking `std::net::TcpStream`s
//!   from one thread (a `poll(2)` loop, the crate's only `unsafe`), with
//!   bounded outbound queues (slow or Byzantine peers cost drops, never
//!   stalls), round-robin reads (a flooding peer gets an honest peer's
//!   share), decode-error disconnects (garbage bytes cost the sender its
//!   connection, never the receiver its process), reconnect with backoff,
//!   and wall-clock timers on the shared
//!   [`TimerTable`](minsync_net::TimerTable) generation scheme.
//! * [`cluster`] — a localhost orchestrator that spawns `n` `minsync-node`
//!   OS processes, bootstraps their port assignments over a stdin/stdout
//!   control pipe, and collects per-replica committed-log digests and
//!   latency statistics. This is what powers the E11 experiment and the CI
//!   loopback smoke job.
//!
//! * [`wal`] — a replica's write-ahead log of committed slots, one wire
//!   frame per slot, cut back after a torn tail on open.
//!
//! The `minsync-node` binary (in `src/bin/`) is one replica of the batched
//! SMR + workload pipeline from `minsync-smr` / `minsync-workload`, run on
//! a mesh; see the README's cluster walkthrough.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cluster;
pub mod mesh;
mod poll;
pub mod wal;

pub use cluster::{
    run_churn_cluster, run_cluster, Behavior, ChurnAction, ChurnPlan, ChurnStep, ClusterError,
    ClusterReport, ClusterSpec, LogDigest, ReplicaStats, Trigger,
};
pub use mesh::{LinkFaults, MeshConfig, MeshOutput, MeshReport, TcpMesh};
