//! # todr-shard — sharded replication groups, one database
//!
//! The replication engine of the reproduced paper funnels every action
//! through **one** EVS group's total order — correct, but a hard
//! throughput ceiling: adding replicas adds fan-out, never capacity.
//! This crate lifts that ceiling the way genuine partial replication
//! systems do (Sutra & Shapiro; see PAPERS.md): partition the key space
//! into `S` shards, give each shard its own *unchanged*
//! `ReplicationEngine` + EVS group, and add a thin deterministic
//! [`ShardRouter`] in front:
//!
//! * **Single-shard actions** (the overwhelming majority in a
//!   well-partitioned workload) are forwarded to the owning group
//!   verbatim — same message, same reply path, zero added protocol
//!   cost. Within its group the action enjoys the paper's full
//!   guarantees (Theorem 1 holds per group).
//! * **Cross-shard actions** run a genuine-partial-replication commit:
//!   the router submits an ordering marker (*prepare*) to every
//!   participating group, collects the markers' green positions,
//!   deterministically merges them into a transaction timestamp
//!   (`ts = max`), and then releases the per-group *commit* actions
//!   through per-shard FIFO queues so that any two transactions sharing
//!   a shard commit in the same relative order **in every group they
//!   share**. Only the groups that host a touched shard ever see the
//!   transaction — replicas never process traffic for shards they do
//!   not host.
//!
//! Commits are wrapped in [`todr_db::Op::Checked`] with a per-transaction
//! guard row, so a commit resubmitted after a timeout (contact crashed,
//! minority partition) applies **at most once** per group no matter how
//! many copies eventually reach the green order.
//!
//! The router is an ordinary [`todr_sim::Actor`]: fully deterministic,
//! schedulable, crash-free by construction (it is not a replica — a real
//! deployment replicates it per client session; here determinism is the
//! point).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod router;

pub use router::{
    classify, Route, RouterTick, ShardRouter, ShardRouterConfig, ShardTopology, ROUTER_CLIENT,
};

#[cfg(feature = "chaos-mutations")]
pub use router::ShardChaos;
