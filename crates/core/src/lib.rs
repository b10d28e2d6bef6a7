//! Core algorithms of *Minimal Synchrony for Asynchronous Byzantine
//! Consensus* (Bouzid, Mostéfaoui, Raynal — PODC 2015).
//!
//! This crate implements the paper's primary contribution on top of the
//! `minsync-broadcast` and `minsync-net` substrates:
//!
//! * [`adopt_commit`] — the Byzantine adopt-commit object (Figure 2), the
//!   safety guard of every round;
//! * [`eventual_agreement`] — the round-based EA object (Figure 3) whose
//!   liveness rests solely on the ✸⟨t+1⟩bisource assumption, including the
//!   parameterized `k` variant of Section 5.4 (via
//!   [`RoundSchedule`](minsync_types::RoundSchedule));
//! * [`consensus`] — the complete algorithm (Figure 4): signature-free
//!   m-valued Byzantine consensus with `t < n/3`, optimal in its synchrony
//!   assumption; [`ConsensusConfig::rules`] picks [`Rules::PAPER`] (the
//!   default here) or an opt-in rule set such as [`Rules::SLOT`], a log
//!   slot's default (DESIGN.md §9, §10);
//! * [`bot_variant`] — the ⊥-validity variant sketched in Section 7
//!   ("never decide a Byzantine value; decide ⊥ on disagreement").
//!
//! The protocols are event-driven automata implementing
//! [`Node`](minsync_net::Node); they run identically on the deterministic
//! simulator and the threaded runtime.
//!
//! # Quickstart
//!
//! ```rust
//! use minsync_core::{ConsensusNode, ConsensusConfig, ConsensusEvent};
//! use minsync_net::{sim::SimBuilder, NetworkTopology};
//! use minsync_types::SystemConfig;
//!
//! # fn main() -> Result<(), minsync_types::ConfigError> {
//! let system = SystemConfig::new(4, 1)?;
//! let cfg = ConsensusConfig::paper(system);
//! let mut builder = SimBuilder::new(NetworkTopology::all_timely(4, 5)).seed(7);
//! for v in [1u64, 2, 1, 2] {
//!     builder = builder.node(ConsensusNode::new(cfg, v)?);
//! }
//! let report = builder.build().run_until(|outs| {
//!     outs.iter().filter(|o| o.event.as_decision().is_some()).count() == 4
//! });
//! let first = report.outputs.iter().find_map(|o| o.event.as_decision()).unwrap();
//! assert!(*first == 1 || *first == 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod adopt_commit;
pub mod bot_variant;
pub mod consensus;
mod events;
pub mod eventual_agreement;
mod messages;
mod timeout;
pub mod view_sync;

pub use adopt_commit::{AcNode, AcNodeEvent, AcOutcome, AcRound, AcStep};
pub use bot_variant::{BotConsensusNode, BotEvent, BotMsg};
pub use consensus::{ConsensusConfig, ConsensusNode, Rules, SeededMutation};
pub use events::{AcTag, ConsensusEvent};
pub use eventual_agreement::{EaAction, EaNode, EaNodeEvent, EaObject};
pub use messages::{CbId, ProtocolMsg, RbTag};
pub use timeout::TimeoutPolicy;
pub use view_sync::ViewSynchronizer;
