//! Broadcast abstractions of the paper: Bracha's reliable broadcast
//! (Section 2.2) and the new cooperative broadcast (Section 2.3, Figure 1).
//!
//! Both live in one *engine*, [`RbEngine`]: a pure state machine hosted
//! inside a network node (the consensus automaton). The host feeds it
//! received messages; each call returns one [`RbStep`], at most one message
//! to best-effort-broadcast and at most one [`RbEvent`], which the host
//! applies in that order. This keeps the protocol logic independent of the
//! substrate and directly unit-testable.
//!
//! An RB instance is keyed by `(origin, tag)`; the tag type is generic so
//! one engine multiplexes every RB use of the consensus stack (`CB_VAL`,
//! `AC_EST`, `DECIDE`). The engine implements the paper's §2.1 rule of
//! discarding all but the first message of each kind from every sender.
//!
//! # Cooperative broadcast (Figure 1)
//!
//! CB is a one-shot **all-to-all** broadcast: every correct process
//! cb-broadcasts a value; each process maintains a read-only set `cb_valid`
//! and the operation returns a value from that set once it is non-empty.
//! Figure 1 implements it on top of RB:
//!
//! * line 1: `RB_broadcast CB_VAL(v_i)`;
//! * line 4: when `CB_VAL(v)` is RB-delivered from `t + 1` different
//!   processes, add `v` to `cb_valid_i` (at least one of the `t + 1` is
//!   correct, so `cb_valid` only ever contains values cb-broadcast by
//!   correct processes — CB-Set Validity);
//! * lines 2–3: wait until `cb_valid_i ≠ ∅`, return any value in it.
//!
//! Under the feasibility condition `n − t > m·t` some value is proposed by
//! `t + 1` correct processes, so every `cb_valid` set eventually fills
//! (CB-Set Termination) and, by RB-Termination-2, all correct processes end
//! up with equal sets (CB-Set Agreement).
//!
//! Line 4 is the engine's job: under a [`Tag`] whose carrier is
//! [`Carrier::Counted`], deliveries are not handed out; the engine emits [`RbEvent::CbValid`]
//! once per value, when `t + 1` distinct origins delivered it. The host
//! keeps only the values in the order they arrive — `cb_valid_i`, with its
//! first entry as line 3's deterministic "any value". `DECIDE` (Figure 4
//! line 9) is counted the same way.
//!
//! # Cooperative broadcast by relay (DESIGN.md §9)
//!
//! Figure 1 costs `n` reliable broadcasts per wave: about `2n³` messages and
//! three message delays. A tag whose carrier is [`Carrier::Relay`], under
//! the rule set its engine was built with ([`Tag::carrier`],
//! [`RbEngine::new`]), travels by BV-broadcast's relay rule instead: a
//! best-effort `CB(v)` for the own value, one relay of `v` at `t + 1`
//! distinct senders, and [`RbEvent::CbValid`] at `2t + 1`, which costs at
//! most `m·n²` messages and one delay. The host sees the same event either way. Both rules'
//! thresholds are [`SystemConfig`](minsync_types::SystemConfig) methods.
//!
//! # Example: four processes cb-broadcast and agree on `cb_valid`
//!
//! ```rust
//! use minsync_broadcast::{Carrier, RbEngine, RbEvent, RbMsg, Tag};
//! use minsync_types::{ProcessId, SystemConfig};
//!
//! /// The one CB instance's `CB_VAL` tag.
//! #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
//! struct CbVal;
//! impl Tag for CbVal {
//!     type Rules = ();
//!     fn carrier(&self, (): ()) -> Carrier {
//!         Carrier::Counted
//!     }
//! }
//!
//! # fn main() -> Result<(), minsync_types::ConfigError> {
//! let cfg = SystemConfig::new(4, 1)?; // t + 1 = 2
//! let mut engines: Vec<RbEngine<CbVal, u64>> = (0..4)
//!     .map(|i| RbEngine::new(cfg, ProcessId::new(i), ()))
//!     .collect();
//!
//! // Line 1 everywhere; then relay every broadcast to every engine until
//! // quiescence (a zero-delay, reliable network).
//! let mut wire: Vec<(ProcessId, RbMsg<CbVal, u64>)> = Vec::new();
//! for (i, v) in [7, 7, 9, 9].into_iter().enumerate() {
//!     wire.extend(engines[i].broadcast(CbVal, v).map(|m| (ProcessId::new(i), m)));
//! }
//! let mut cb_valid: Vec<Vec<u64>> = vec![Vec::new(); 4];
//! while let Some((from, msg)) = wire.pop() {
//!     for i in 0..4 {
//!         let step = engines[i].on_message(from, msg.clone());
//!         wire.extend(step.broadcast.map(|m| (ProcessId::new(i), m)));
//!         if let Some(RbEvent::CbValid { value, .. }) = step.event {
//!             cb_valid[i].push(value);
//!         }
//!     }
//! }
//! for set in &mut cb_valid {
//!     set.sort();
//!     assert_eq!(set, &[7, 9], "CB-Set Agreement, both values backed by t + 1");
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod rb;
mod relay;

pub use rb::{Carrier, RbEngine, RbEvent, RbMsg, RbStep, Tag};
