//! Experiment harness reproducing every claim of *Minimal Synchrony for
//! Asynchronous Byzantine Consensus* (see `EXPERIMENTS.md` at the repo
//! root).
//!
//! The paper is a theory paper — its "figures" are algorithms — so the
//! experiment suite E1–E8 turns each algorithm (Figures 1–4) and each
//! quantitative claim (Section 5.4's `α·n` / `β·n` round bounds, the
//! timeout policy of footnote 3) into a measured, reproducible run:
//!
//! | Exp | Paper artifact | Module |
//! |-----|----------------|--------|
//! | E1  | Figure 1 (CB-broadcast) + feasibility `n − t > m·t` | [`experiments::e1_cb`] |
//! | E2  | Figure 2 (adopt-commit) | [`experiments::e2_ac`] |
//! | E3  | Figure 3 + Lemma 3 (EA convergence vs τ) | [`experiments::e3_ea`] |
//! | E4  | Figure 4 (consensus under fault mixes) | [`experiments::e4_consensus`] |
//! | E5  | §5.4 bound `α·n = C(n, n−t)·n` | [`experiments::e5_rounds`] |
//! | E6  | §5.4 parameterized `k` tradeoff | [`experiments::e6_k_sweep`] |
//! | E7  | footnote 1: vs randomized (Ben-Or) | [`experiments::e7_baseline`] |
//! | E8  | footnote 3: timeout policy & δ sensitivity | [`experiments::e8_timeouts`] |
//! | E9  | implicit RB message costs (Θ(n²)/Θ(n³)) | [`experiments::e9_message_complexity`] |
//! | E10 | SMR throughput/latency (batched replicated service) | [`experiments::e10_smr`] |
//! | E11 | the replicated service as a TCP cluster of OS processes | [`experiments::e11_transport`] |
//! | E13 | liveness under churn: partitions, crash/rejoin, moving GST | [`experiments::e13_churn`] |
//! | E14 | conformance: schedule exploration + mutation smoke | [`experiments::e14_conformance`] |
//! | E15 | authenticated transport vs an impersonator | [`experiments::e15_auth`] |
//! | E16 | telemetry: stage breakdowns, pipelining window, overhead | [`experiments::e16_telemetry`] |
//! | E17 | live health plane: alarm silence and detection latency | [`experiments::e17_health`] |
//!
//! The central entry point for programmatic use is [`ConsensusRunBuilder`]:
//!
//! ```rust
//! use minsync_harness::{ConsensusRunBuilder, FaultPlan};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let outcome = ConsensusRunBuilder::new(4, 1)?
//!     .proposals([1u64, 2, 1, 2])
//!     .faults(FaultPlan::silent(1))
//!     .seed(42)
//!     .run()?;
//! assert!(outcome.all_decided());
//! assert!(outcome.agreement_holds());
//! assert!(outcome.validity_holds());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cb_node;
mod error;
pub mod experiments;
mod faults;
mod outcome;
mod runner;
mod table;
mod topology;

pub use cb_node::{CbBroadcastNode, CbEvent, CbVal};
pub use error::HarnessError;
pub use faults::FaultPlan;
pub use outcome::RunOutcome;
pub use runner::ConsensusRunBuilder;
pub use table::Table;
pub use topology::TopologySpec;
