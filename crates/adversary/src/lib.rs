//! Byzantine process behaviors and adversarial network schedulers for the
//! `minsync` stack.
//!
//! The paper's failure model (Section 2.1) lets up to `t` processes behave
//! arbitrarily — crash, stay silent, send conflicting or garbage messages,
//! collude — but they can neither impersonate other processes nor control
//! the network schedule. This crate provides that adversary:
//!
//! * [`SilentNode`] — sends nothing, ever (the strongest *liveness* attack a
//!   single process can mount against quorum waits);
//! * [`CrashNode`] — wraps an honest automaton and kills it at a chosen
//!   virtual time (Byzantine subsumes crash);
//! * [`FloodNode`] — broadcasts timed bursts of generated garbage (the
//!   memory-pressure attack against future-slot/future-round buffers);
//! * [`FilterNode`] — wraps an honest automaton and rewrites/drops/redirects
//!   its *outgoing* messages per destination: the building block for
//!   equivocators, mute coordinators, and value-splitting colluders (see
//!   [`mutators`]);
//! * [`RandomProtocolNode`] — a protocol-aware fuzzer emitting syntactically
//!   valid but semantically hostile [`ProtocolMsg`] traffic;
//! * [`ReplayNode`] — records and replays observed messages, attacking every
//!   first-message-only dedup rule of §2.1 at once;
//! * [`CaptureNode`] and the [`impersonate`] forgery helpers — the one
//!   deliberately model-**illegal** behavior: it forges other processes'
//!   sender identities at the byte level, probing the assumption the others
//!   take for granted (an authenticated transport must sever it);
//! * [`oracles`] — delay oracles that stretch the channels the model leaves
//!   asynchronous as adversarially as the model allows. Each is a
//!   [`ScheduleOracle`](minsync_net::sim::ScheduleOracle), the simulator's
//!   one seam for scheduling the network.
//!
//! With one flagged exception ([`impersonate`]), everything here is
//! *model-legal*: safety properties of the protocols must hold against any
//! combination of these behaviors, and the test suites assert exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod filter;
mod flood;
pub mod impersonate;
pub mod mutators;
pub mod oracles;
mod random_node;
mod replay;
mod silent;

pub use filter::FilterNode;
pub use flood::FloodNode;
pub use impersonate::{CaptureHandle, CaptureNode};
pub use random_node::RandomProtocolNode;
pub use replay::ReplayNode;
pub use silent::{CrashNode, SilentNode};

// Re-exported for mutator signatures.
pub use minsync_core::ProtocolMsg;
