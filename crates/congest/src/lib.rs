//! A synchronous **CONGEST**-model simulator.
//!
//! The CONGEST model (Peleg, *Distributed Computing: A Locality-Sensitive
//! Approach*) is the execution model of the paper this workspace reproduces:
//! computation proceeds in synchronous rounds, and in each round every node
//! may send one `O(log n)`-bit message across each incident edge. This crate
//! provides:
//!
//! * the [`Protocol`] trait — per-node state machines with an
//!   inbox-driven `round` callback (the [`Inbox`] view merges direct
//!   messages with broadcast payloads read by reference) and a
//!   [`Context`] for sending — unicast `send`, or the **broadcast
//!   fabric**'s `send_all` / `send_all_except`, which store one payload
//!   copy per flooding sender instead of one per incident edge —
//!   scheduling wake-ups, charging local computation, and halting;
//! * the [`Network`] engine — deterministic round execution over any
//!   [`dhc_graph::Topology`] (a plain [`dhc_graph::Graph`], a zero-copy
//!   partition [`dhc_graph::ClassView`], or a future overlay topology)
//!   with **per-edge bandwidth enforcement**
//!   (more than `B` message-words across one directed edge in one round is
//!   a simulation error, exactly the CONGEST constraint). Each round runs
//!   as a **parallel compute phase** (active nodes execute independently
//!   against an immutable view, recording effects into private scratch;
//!   [`Config::engine_threads`] sets the worker count, served by a
//!   persistent worker pool) followed by a **deterministic commit
//!   fold** that applies the effects in ascending node-id order — on
//!   busy rounds without an active adversary the fold itself runs
//!   sharded across the pool, with a merge that reproduces the
//!   sequential fold bit for bit, so results are identical at every
//!   thread count; trace, k-machine layer and collector are fed by one
//!   walk over the committed effects after the fold, never from inside
//!   it;
//! * [`Metrics`] — rounds, messages, message-words, per-node send/receive/
//!   compute counters, sampled per-node memory high-water marks, and
//!   per-round congestion, feeding the paper's "fully distributed"
//!   experiments (E8);
//! * the [`machine`] module — an optional **k-machine accounting layer**
//!   ([`Network::new_with_machines`]): nodes are mapped to `k` machines
//!   ([`MachineMap`]), intra-machine messages are free, each directed
//!   machine-pair link carries a configurable word budget per k-machine
//!   round, and every executed CONGEST round *dilates* into
//!   `max(1, ⌈max link load / B⌉)` k-machine rounds. Pure observation:
//!   outcomes, [`Metrics`], and traces are bit-identical to the plain run.
//! * the [`adversary`] module — an optional **seeded fault layer**
//!   ([`Config::with_adversary`]): per-delivery message drop / duplicate /
//!   bounded delay with fixed-point probability knobs, plus node
//!   crash/restart schedules. Every fault is a pure function of the
//!   fault seed and the delivery's identity, drawn inside the commit
//!   fold (and redrawn by the walk after it), so faulty executions
//!   keep the engine's bit-identical-at-every-thread-count guarantee; a
//!   null adversary ([`Adversary::none`]) leaves the clean code paths
//!   untouched entirely.
//!
//! The engine is *event-efficient*: only nodes with a non-empty inbox or a
//! scheduled wake-up are invoked, so simulation cost is proportional to
//! traffic rather than `n × rounds`.
//!
//! # Example
//!
//! A two-node ping-pong protocol:
//!
//! ```
//! use dhc_congest::{Config, Context, Inbox, Network, Payload, Protocol};
//! use dhc_graph::Graph;
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl Payload for Ping {
//!     fn words(&self) -> usize { 1 }
//! }
//!
//! struct Node { hops_left: u32 }
//! impl Protocol for Node {
//!     type Msg = Ping;
//!     fn init(&mut self, ctx: &mut Context<'_, Ping>) {
//!         if ctx.node() == 0 {
//!             ctx.send(1, Ping(self.hops_left));
//!         }
//!     }
//!     fn round(&mut self, ctx: &mut Context<'_, Ping>, inbox: Inbox<'_, Ping>) {
//!         for (from, &Ping(k)) in inbox.iter() {
//!             if k == 0 {
//!                 ctx.halt(); // received the last ping
//!             } else {
//!                 ctx.send(from, Ping(k - 1));
//!                 if k == 1 { ctx.halt(); } // sent the last ping
//!             }
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), dhc_congest::SimError> {
//! let g = Graph::from_edges(2, [(0, 1)]).unwrap();
//! let nodes = vec![Node { hops_left: 3 }, Node { hops_left: 3 }];
//! let mut net = Network::new(&g, Config::default(), nodes)?;
//! net.run()?;
//! let (report, _nodes) = net.finish();
//! assert_eq!(report.metrics.messages, 4); // 3, 2, 1, 0
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
mod config;
mod context;
mod effects;
mod error;
pub mod machine;
mod mailbox;
mod metrics;
mod network;
mod parcommit;
mod payload;
mod scratch;
pub mod trace;

pub use adversary::{Adversary, CrashEvent};
pub use config::Config;
// Telemetry vocabulary (defined in `dhc-obs`, attached via
// [`Config::with_collector`]) — re-exported so engine users need not
// depend on the telemetry crate directly.
pub use context::Context;
pub use dhc_obs::{Collector, CollectorHandle, FaultObs, RoundObs, Span};
pub use error::SimError;
pub use machine::{MachineMap, MachineMetrics, MachineRoundLog};
pub use mailbox::{Inbox, InboxIter};
pub use metrics::{Metrics, Report};
pub use network::Network;
pub use payload::Payload;
pub use scratch::EngineScratch;
pub use trace::{Trace, TraceEvent};

/// Node identifier — same dense index space as [`dhc_graph::NodeId`].
pub type NodeId = dhc_graph::NodeId;

/// Per-node state machine executed by the [`Network`].
///
/// One value of the implementing type exists per node. The engine calls
/// [`init`](Protocol::init) once before round 1, then
/// [`round`](Protocol::round) in every round in which the node has incoming
/// messages or a scheduled wake-up. Messages sent in round `r` are delivered
/// at the start of round `r + 1`.
///
/// Protocols must be `Send` so a round's callbacks can execute on worker
/// threads (each node is still only ever touched by one thread at a time;
/// see [`Config::engine_threads`]). Per-node state is plain data in
/// practice, so the bound is satisfied automatically.
pub trait Protocol: Send {
    /// The message type exchanged by this protocol.
    type Msg: Payload;

    /// Called once, before the first round. Sends made here are delivered
    /// in round 1.
    fn init(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// Called in each round where this node is active, with an [`Inbox`]
    /// view over the messages delivered this round (sorted by sender id;
    /// broadcast payloads are read by reference from the round's shared
    /// broadcast arena, never copied per receiver).
    fn round(&mut self, ctx: &mut Context<'_, Self::Msg>, inbox: Inbox<'_, Self::Msg>);

    /// Approximate local memory footprint in machine words, sampled by the
    /// engine for the per-node memory metrics. The default (0) opts out.
    fn memory_words(&self) -> usize {
        0
    }
}
