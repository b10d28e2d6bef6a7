//! Network substrate for the `minsync` Byzantine consensus stack — sans-io.
//!
//! The paper's model (Section 2.1) is an asynchronous reliable point-to-point
//! network: every ordered pair of processes is connected by a uni-directional
//! channel that does not lose, duplicate, modify, or create messages, and
//! whose delays are finite but otherwise arbitrary — unless the channel is
//! *(eventually) timely* (Section 4). This crate implements that model twice:
//!
//! * [`sim`] — a deterministic discrete-event simulator with virtual time.
//!   Channel behavior is a per-directed-edge [`ChannelTiming`]:
//!   [`ChannelTiming::Timely`], [`ChannelTiming::EventuallyTimely`] (the
//!   paper's `max(τ, τ′) + δ` delivery rule with hidden `τ`, `δ`), or
//!   [`ChannelTiming::Asynchronous`] with a pluggable delay law. Identical
//!   seeds yield identical executions, which makes the paper's *eventual*
//!   assumptions testable.
//! * [`threaded`] — a live runtime executing the same [`Node`] automata on
//!   OS threads with std channels and a delay-injecting router, for
//!   examples that want wall-clock behavior.
//!
//! # The sans-io automaton API
//!
//! Protocols are written once against [`Node`] / [`Env`] and run unchanged
//! on both substrates. A handler never calls into the substrate: it pushes
//! [`Effect`] values (sends, broadcasts, timer operations, outputs, halt)
//! into the concrete [`Env`] it was handed, and [`driver::step`] — the one
//! invocation step every substrate shares — drains the buffer after the
//! handler returns and applies it to the substrate's [`driver::Link`].
//! Consequences:
//!
//! * **No trait objects on the hot path.** The old `&mut dyn Context`
//!   callback surface is gone; draining effects is a plain enum match.
//! * **Nodes are plain state machines.** They borrow nothing from the
//!   substrate, so unit tests drive them with a bare [`Env`], the harness
//!   sweeps whole line-ups across seeds on parallel threads, and the
//!   simulator can record complete effect traces
//!   ([`sim::SimBuilder::record_effects`]) that replay byte-identically.
//! * **Timer ids are caller-visible immediately.** [`Env::set_timer`]
//!   allocates the [`TimerId`] from the per-process [`TimerTable`] *before*
//!   the substrate applies the effect — protocols store it in state with no
//!   substrate round-trip (see [`TimerId`] for the allocation rule).
//! * **Byzantine behaviors intercept effect streams.** A wrapper node runs
//!   an honest automaton, then rewrites everything it queued
//!   ([`Env::mark`] / [`Env::take_since`]) — drop, forge, or equivocate
//!   per destination — which is strictly more powerful than filtering
//!   callbacks.
//!
//! ## Migrating from the callback API
//!
//! | old (`ctx: &mut dyn Context<M, O>`) | new (`env: &mut Env<M, O>`)     |
//! |-------------------------------------|---------------------------------|
//! | `ctx.me()`, `ctx.n()`, `ctx.now()`  | `env.me()`, `env.n()`, `env.now()` (unchanged) |
//! | `ctx.send(to, msg)`                 | `env.send(to, msg)` → queues [`Effect::Send`] |
//! | `ctx.broadcast(msg)`                | `env.broadcast(msg)` → queues [`Effect::Broadcast`] (substrate expands the fan-out once) |
//! | `let t = ctx.set_timer(d)`          | `let t = env.set_timer(d)` — id pre-allocated in the env |
//! | `ctx.cancel_timer(t)`               | `env.cancel_timer(t)`           |
//! | `ctx.output(event)`                 | `env.output(event)`             |
//! | `ctx.halt()`                        | `env.halt()`                    |
//! | `ctx.random()`                      | `env.random()` (per-env seeded stream) |
//! | `impl Context for MyShim { … }`     | rewrite effects: `env.mark()` before driving the inner node, `env.take_since(mark)` after, push transformed effects |
//!
//! # Example: two nodes ping-pong on a simulated network
//!
//! ```rust
//! use minsync_net::{Node, Env, NetworkTopology, ChannelTiming, sim::SimBuilder};
//! use minsync_types::ProcessId;
//!
//! struct Ping { count: u32 }
//!
//! impl Node for Ping {
//!     type Msg = u32;
//!     type Output = u32;
//!
//!     fn on_start(&mut self, env: &mut Env<u32, u32>) {
//!         if env.me() == ProcessId::new(0) {
//!             env.send(ProcessId::new(1), 0);
//!         }
//!     }
//!
//!     fn on_message(&mut self, from: ProcessId, msg: u32, env: &mut Env<u32, u32>) {
//!         self.count += 1;
//!         if msg < 3 {
//!             env.send(from, msg + 1);
//!         } else {
//!             env.output(msg);
//!         }
//!     }
//! }
//!
//! let topo = NetworkTopology::uniform(2, ChannelTiming::timely(5));
//! let mut sim = SimBuilder::new(topo)
//!     .seed(1)
//!     .node(Ping { count: 0 })
//!     .node(Ping { count: 0 })
//!     .build();
//! let report = sim.run();
//! assert_eq!(report.outputs.len(), 1);
//! assert_eq!(report.outputs[0].event, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod channel;
pub mod driver;
mod effect;
mod node;
mod seed;
pub mod sim;
pub mod threaded;
mod time;
mod timer;
mod topology;

pub use channel::{ChannelTiming, DelayLaw};
pub use effect::{Effect, Env};
pub use node::{Node, TimerId};
pub use seed::{derive_stream, stream_of, SPLITMIX64_GOLDEN};
pub use time::VirtualTime;
pub use timer::TimerTable;
pub use topology::NetworkTopology;
