//! # todr-core — the Amir–Tutu replication engine
//!
//! This crate is the primary contribution of the reproduced paper:
//! a replication engine that converts the **total order + safe delivery**
//! service of an Extended Virtual Synchrony group-communication layer
//! ([`todr_evs`]) into a **global persistent consistent order** of
//! database actions across a partitionable network — *without* end-to-end
//! acknowledgements per action. One end-to-end exchange round runs only
//! on each membership change.
//!
//! ## The algorithm in one paragraph
//!
//! Each server colors every action it knows about ([`Color`]): **red** —
//! ordered only within the local component; **yellow** — delivered in a
//! transitional configuration of a primary component (order known, but
//! the server cannot tell whether the *next* primary saw it); **green** —
//! global order known, applied to the database; **white** — known green
//! everywhere, discardable. Servers in the *primary component* mark safe
//! deliveries green immediately. When the membership changes, servers
//! exchange state messages and missing actions (the **eventual path**
//! propagation), then — if the new component holds a dynamic-linear-voting
//! quorum of the last primary — run the **CPC** (Create Primary
//! Component) round under safe delivery. The EVS trichotomy (§4.1) plus
//! the persisted [`quorum::VulnerableRecord`] make the installation
//! decision crash-consistent even though consensus on "did the install
//! finish?" is impossible in an asynchronous system.
//!
//! ## State machine
//!
//! The engine implements the full eight-state machine of the paper's
//! Figure 4 and Appendix A: `NonPrim`, `RegPrim`, `TransPrim`,
//! `ExchangeStates`, `ExchangeActions`, `Construct`, `No`, `Un` — plus a
//! `Joining` bootstrap state for replicas entering the system online via
//! `PERSISTENT_JOIN` (§5.1) and a `Down` state for crashed servers.
//!
//! ## Layering
//!
//! ```text
//!   clients ──► ReplicationEngine (this crate)
//!                 │ submits/deliveries      │ forced writes
//!                 ▼                         ▼
//!               EvsDaemon (todr-evs)      DiskActor + StableStore
//!                 │                         (todr-storage)
//!                 ▼
//!               NetFabric (todr-net)  — partitions, latency, loss
//! ```
//!
//! All of it runs deterministically inside a [`todr_sim::World`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod engine;
mod exchange;
mod fastpath;
mod knowledge;
mod lease;
mod persist;
pub mod quorum;
mod semantics;
mod types;

pub use action::{Action, ActionId, ActionKind, ClientId};
pub use engine::{EngineState, ReplicationEngine};
pub use exchange::{retrans_plan, RetransPlan as ExchangeRetransPlan};
pub use persist::RecoveryError;
pub use quorum::{PrimComponent, VulnerableRecord, YellowRecord};
pub use semantics::{QuerySemantics, UpdateReplyPolicy};
pub use todr_db::ReadConsistency;
pub use types::{
    ClientReply, ClientRequest, Color, EngineConfig, EngineCtl, GreenBase, RequestId, StorageFault,
    TransferWire, CPU_PER_ACTION, LEASE_DURATION,
};

#[cfg(feature = "chaos-mutations")]
pub use types::ChaosMutation;
