//! # minsync — Minimal Synchrony for Byzantine Consensus
//!
//! Umbrella crate for the reproduction of *Minimal Synchrony for
//! (Asynchronous) Byzantine Consensus* (Bouzid, Mostéfaoui, Raynal —
//! PODC 2015). It re-exports the whole stack so examples and downstream
//! users need a single dependency:
//!
//! * [`types`] — ids, rounds, system configuration, `F(r)` combinatorics,
//!   bisource specifications;
//! * [`net`] — deterministic discrete-event network simulator (per-channel
//!   timing models: timely, eventually timely, asynchronous) and a threaded
//!   live runtime;
//! * [`broadcast`] — Bracha reliable broadcast and the paper's cooperative
//!   broadcast (Figure 1);
//! * [`core`] — adopt-commit (Figure 2), eventual agreement (Figure 3, plus
//!   the parameterized variant of Section 5.4), the consensus algorithm
//!   (Figure 4), and the ⊥-validity variant (Section 7);
//! * [`auth`] — message authentication (hand-rolled SHA-256/HMAC pinned to
//!   published vectors, pairwise MACs — no signatures) closing the
//!   transport's no-impersonation gap;
//! * [`adversary`] — Byzantine behaviors and adversarial schedulers;
//! * [`baselines`] — Ben-Or-style randomized binary consensus for
//!   comparison;
//! * [`harness`] — experiment runner regenerating every claim of the paper
//!   (see `EXPERIMENTS.md`);
//! * [`smr`] — the batched replicated log (state-machine replication with
//!   commit acks, log GC, and checkpoint catch-up);
//! * [`workload`] — deterministic client populations, arrival processes,
//!   and submit→commit latency accounting for the replicated log;
//! * [`wire`] — the hand-rolled binary codec (`Wire` trait, length-prefixed
//!   framing with a hard cap, versioned handshake) every socket speaks;
//! * [`transport`] — the TCP mesh substrate and the localhost cluster
//!   orchestrator behind the `minsync-node` binary and experiment E11;
//! * [`conformance`] — recorded-trace fixtures (versioned wire format,
//!   replayers for every substrate) and the bounded schedule explorer
//!   checking agreement/validity/termination under reorder/delay/drop.
//!
//! # Quickstart
//!
//! ```rust
//! use minsync::harness::{ConsensusRunBuilder, FaultPlan};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 4 processes, 1 Byzantine slot left empty (all correct), binary values.
//! let report = ConsensusRunBuilder::new(4, 1)?
//!     .proposals([0u64, 1, 0, 1])
//!     .seed(7)
//!     .run()?;
//! assert!(report.agreement_holds());
//! assert!(report.validity_holds());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use minsync_adversary as adversary;
pub use minsync_auth as auth;
pub use minsync_baselines as baselines;
pub use minsync_broadcast as broadcast;
pub use minsync_conformance as conformance;
pub use minsync_core as core;
pub use minsync_harness as harness;
pub use minsync_net as net;
pub use minsync_smr as smr;
pub use minsync_transport as transport;
pub use minsync_types as types;
pub use minsync_wire as wire;
pub use minsync_workload as workload;
