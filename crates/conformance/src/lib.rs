//! Conformance suite for the `minsync` stack.
//!
//! Two tools, both aimed at the same question — *does the implementation
//! still do exactly what it did when we last trusted it, and does it keep
//! the paper's properties on schedules nobody hand-picked?*
//!
//! * **Recorded traces** ([`trace`], [`replay`], [`scenario`]): a run of
//!   the deterministic simulator is captured as a versioned, [`Wire`]-encoded
//!   transcript — per-invocation `(cause, effects)` pairs, which is exactly
//!   the input/output contract of the sans-io [`Node`](minsync_net::Node)
//!   API. Committed trace files become regression fixtures: the one
//!   replayer, [`replay_direct`], drives fresh protocol automata through
//!   the recorded causes and asserts byte-identical effect streams, with no
//!   simulator in the loop; re-recording each scenario must reproduce its
//!   fixture byte for byte, which pins the simulator too.
//! * **Schedule exploration** ([`explorer`], [`mutation`]): a bounded
//!   DFS / random walk over message reorderings and drops (within the
//!   `t`-faults budget) through the simulator's
//!   [`ScheduleOracle`](minsync_net::sim::ScheduleOracle) seam, checking
//!   agreement, validity, and deadlock-freedom on every explored schedule
//!   and shrinking any violating schedule to a minimal prefix. A seeded
//!   mutation ([`SeededMutation`](minsync_core::SeededMutation)) provides
//!   the positive control: the explorer must catch it, or the explorer
//!   itself is broken.
//!
//! [`Wire`]: minsync_wire::Wire

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explorer;
pub mod mutation;
pub mod replay;
pub mod scenario;
pub mod trace;

pub use explorer::{
    explore, run_protocol, Counterexample, ExplorationReport, ExplorerConfig, Protocol, Schedule,
};
pub use mutation::{mutation_smoke, semantic_decisions, MutationSmoke};
pub use replay::{replay_direct, ReplayError};
pub use scenario::{golden_scenarios, GoldenScenario};
pub use trace::{Trace, TraceError, TraceStep, TRACE_MAGIC, TRACE_VERSION};
