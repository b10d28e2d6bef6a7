//! Unified observability layer for the minsync stack.
//!
//! Three pieces, shared by all three substrates (deterministic simulator,
//! threaded runtime, TCP cluster):
//!
//! - [`Registry`]: interned counter and gauge handles with a
//!   self-describing text [`Snapshot`] format (`STAT v1` … `END STAT`) that
//!   survives a stdout control pipe and round-trips through
//!   [`Snapshot::parse`]. No floats and no allocation on the hot path —
//!   a counter bump is one relaxed atomic add.
//! - [`TraceRecorder`]: a bounded ring of typed [`TraceEvent`]s (slot
//!   stage transitions, queue enqueue/dequeue depths, frame codec timing,
//!   handler step costs, watchdog alarms) stamped with virtual ticks or
//!   monotonic time, dumpable as JSONL and re-loadable with
//!   [`parse_dump`]. It keeps what the cause/effect trace cannot carry:
//!   the effects and timers themselves are recorded there, with content.
//! - the [`analyze`] module: span pairing over a dump — per-slot stage
//!   timelines, the client→propose→commit→ack-quorum latency breakdown,
//!   top-k slowest slots, queue-residency percentiles — consumed by the
//!   `minsync-trace` CLI and the E16 experiment.
//! - the [`timeseries`] module: periodic registry sampling — a live
//!   sample is a `SAMPLE <at>` line followed by the same `STAT v1` block,
//!   kept in a bounded [`TimeSeries`] ring on the consuming side — so a
//!   run can be watched while it is still in flight.
//! - the [`watchdog`] module: an online invariant [`Watchdog`] over those
//!   samples — stall, divergence, quorum-regress, queue-saturation and
//!   auth-reject-rate alarms, mirrored into the trace ring and `STAT v1`.
//!
//! The crate is dependency-free so every other crate in the workspace can
//! link it without cycles or feature plumbing.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

pub mod analyze;
pub mod registry;
pub mod timeseries;
pub mod trace;
pub mod watchdog;

pub use analyze::{
    codec_timing, diff_breakdown, queue_residency, slot_timelines, slowest_slots, stage_breakdown,
    stage_samples, Percentiles, SlotTimeline, StageStats, STAGE_LABELS,
};
pub use registry::{
    Counter, Gauge, MetricValue, Registry, Snapshot, SNAPSHOT_FOOTER, SNAPSHOT_HEADER,
};
pub use timeseries::{SeriesPoint, TimeSeries};
pub use trace::{
    parse_dump, queues, TraceDump, TraceEvent, TraceKind, TraceMeta, TraceRecorder,
    DEFAULT_TRACE_CAPACITY,
};
pub use watchdog::{watch_name, Alarm, AlarmClass, Watchdog, WatchdogConfig, WATCH_PREFIX};
