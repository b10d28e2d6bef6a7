//! Deterministic discrete-event simulation of the paper's network model.
//!
//! A [`Simulation`] owns `n` boxed [`Node`](crate::Node) automata, an event
//! queue ordered by `(virtual time, sequence number)`, and a seeded RNG.
//! Message delivery times come from the per-channel
//! [`ChannelTiming`](crate::ChannelTiming) of the
//! [`NetworkTopology`](crate::NetworkTopology). An optional
//! [`ScheduleOracle`] is the network adversary: per message it may stretch
//! delays on the channels the model leaves asynchronous (clamped, before
//! stabilization, to the paper's `max(τ, τ′) + δ` bound), reorder within
//! every channel's bound, or drop. The `minsync-adversary` delay oracles and
//! the `minsync-conformance` schedule explorer both drive it.
//!
//! Identical seeds and inputs produce identical executions — trace hashes
//! are part of the integration test suite.

mod event;
mod metrics;
mod oracle;
mod queue;
mod simulation;

pub use event::StopReason;
pub use metrics::Metrics;
pub use oracle::{ScheduleCommand, ScheduleOracle};
pub use queue::EventQueue;
pub use simulation::{
    CauseRecord, EffectRecord, InvocationCause, OutputRecord, RunReport, SimBuilder, Simulation,
};
