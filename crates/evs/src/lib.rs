//! # todr-evs — Extended Virtual Synchrony group communication
//!
//! A from-scratch group-communication layer providing the service the
//! paper's replication engine is built on (§4.1, citing Moser, Amir,
//! Melliar-Smith & Agarwal, *Extended Virtual Synchrony*, ICDCS 1994):
//!
//! * **membership**: each daemon tracks which peers it can currently
//!   reach (heartbeat failure detector) and runs a gather → flush →
//!   install protocol whenever connectivity changes, producing agreed
//!   configurations;
//! * **agreed (total) order**: within a regular configuration all
//!   application messages are delivered in one sequence, identical at
//!   every member (coordinator-based sequencing);
//! * **safe delivery**: a message is delivered in the *regular*
//!   configuration only once the daemon knows every member has received
//!   it (all-member acknowledgement stability); and
//! * **transitional configurations**: when the membership changes, each
//!   continuing group first receives a [`EvsEvent::TransConf`]
//!   notification listing the members that moved together, then the
//!   messages that were ordered but could not meet the safe-delivery
//!   requirement, then the next [`EvsEvent::RegConf`].
//!
//! Together these give the paper's §4.1 trichotomy: for any message and
//! any two group members, it is impossible that one delivered it as safe
//! in the regular configuration while the other never received it — the
//! second either delivers it (possibly in its transitional
//! configuration) or has crashed.
//!
//! ## Guarantees and non-guarantees
//!
//! Within one regular configuration, delivery is exactly-once and totally
//! ordered. Across configuration changes the daemon automatically
//! re-submits its own messages that were never sequenced, so submission
//! is **at-least-once** across view changes: consumers must deduplicate
//! by an application-level id, exactly as the engine's `redCut` does.
//!
//! The daemon assumes loss-free FIFO links *within a connected
//! component*, which [`todr_net::NetFabric`] provides when
//! `loss_probability` is 0 (Spread's link protocol provides the same to
//! the real system). Partitions are full message loss and are handled by
//! the membership protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod daemon;
mod fd;
mod membership;
mod order;
mod sequencer;
mod stability;
mod types;
mod wire;

pub use daemon::{EvsCmd, EvsConfig, EvsDaemon};
pub use types::{ConfId, Configuration, Delivery, EvsEvent};
