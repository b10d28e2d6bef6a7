//! Deterministic discrete-event simulation of the paper's network model.
//!
//! A [`Simulation`] owns `n` boxed [`Node`](crate::Node) automata, an event
//! queue ordered by `(virtual time, sequence number)`, and a seeded RNG.
//! Message delivery times come from the per-channel
//! [`ChannelTiming`](crate::ChannelTiming) of the
//! [`NetworkTopology`](crate::NetworkTopology); an optional [`DelayOracle`]
//! lets an adversary pick delays on the channels the model leaves
//! asynchronous (and pre-stabilization eventually-timely channels, clamped
//! to the paper's `max(τ, τ′) + δ` bound), and an optional
//! [`ScheduleOracle`] additionally controls reorderings and drops — the
//! seam the `minsync-conformance` schedule explorer drives.
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
pub use oracle::{DelayOracle, ScheduleCommand, ScheduleOracle};
pub use queue::EventQueue;
pub use simulation::{
    CauseRecord, EffectRecord, InvocationCause, OutputRecord, RunReport, SimBuilder, Simulation,
};
