//! # todr-net — a simulated partitionable network
//!
//! The network layer the whole `todr` stack communicates over. It models
//! exactly the failure assumptions of Amir & Tutu's system model (§2.1):
//!
//! * messages can be **lost** (configurable probability, plus permanent
//!   loss across partition boundaries);
//! * the network can **partition** into a finite number of disconnected
//!   components, and components can later **merge**;
//! * nodes can **crash** and subsequently **recover**;
//! * there is **no corruption** and there are **no Byzantine faults**.
//!
//! The central type is [`NetFabric`], an actor registered in a
//! [`todr_sim::World`]. Endpoint actors (group-communication daemons,
//! baseline protocol servers) send [`NetOp`] commands to the fabric; the
//! fabric applies the partition map, loss and latency models, and delivers
//! [`Datagram`]s to destination endpoint actors.
//!
//! Per source→destination pair, delivery is FIFO: latency jitter never
//! reorders two messages between the same two nodes, matching switched-LAN
//! behaviour and simplifying the layers above.
//!
//! A failure detector's heartbeats go as [`NetOp::Probe`]s: same counting,
//! loss, latency and FIFO clock as a datagram, but recorded in the
//! receiver's [`ProbeInbox`] rather than delivered as an event.
//!
//! ```
//! use todr_net::{Datagram, NetFabric, NetConfig, NetOp, NodeId};
//! use todr_sim::{Actor, Ctx, Payload, World};
//! use std::rc::Rc;
//!
//! struct Sink(Vec<u32>);
//! impl Actor for Sink {
//!     fn handle(&mut self, _ctx: &mut Ctx<'_>, payload: Payload) {
//!         if let Some(d) = payload.downcast_ref::<Datagram>() {
//!             self.0.push(*d.payload.downcast_ref::<u32>().unwrap());
//!         }
//!     }
//! }
//!
//! let mut world = World::new(1);
//! let fabric = world.add_actor("net", NetFabric::new(NetConfig::lan()));
//! let sink = world.add_actor("sink", Sink(Vec::new()));
//! let a = NodeId::new(0);
//! let b = NodeId::new(1);
//! world.with_actor(fabric, |f: &mut NetFabric| {
//!     f.register(a, sink);
//!     f.register(b, sink);
//! });
//! world.schedule_now(fabric, NetOp::unicast(a, b, Rc::new(7u32), 100));
//! world.run_to_quiescence();
//! world.with_actor(sink, |s: &mut Sink| assert_eq!(s.0, vec![7]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fabric;
mod latency;
mod node;
mod partition;
mod probe;

pub use fabric::{Datagram, NetConfig, NetFabric, NetOp, NetPayload};
pub use latency::LatencyModel;
pub use node::NodeId;
pub use partition::PartitionMap;
pub use probe::ProbeInbox;
