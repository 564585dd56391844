//! # todr-harness — clusters, workloads, metrics and the paper's
//! experiments
//!
//! Everything needed to stand up a full simulated deployment — network
//! fabric, disks, EVS daemons, replication engines (or baseline
//! protocols), clients — script failures against it, measure throughput
//! and latency in virtual time, and verify cross-replica consistency.
//!
//! Failures are described once: the [`fault`] module holds the step
//! vocabulary ([`fault::Step`]) and its one guarded executor
//! ([`fault::Faults`]), which scripted timelines, the randomized
//! property tests and todr-check's explored schedules all run through.
//!
//! Consistency is checked once: every [`cluster::Cluster`] streams each
//! replication group's typed event log through its own
//! [`oracle::TraceOracle`] at each consistency check, beside the few
//! checks only a state snapshot can make ([`checkers`]).
//!
//! The [`experiments`] module contains one driver per table/figure of
//! the paper's evaluation (§7); the repository examples are thin
//! wrappers around those drivers.
//!
//! ```
//! use todr_harness::cluster::{Cluster, ClusterConfig};
//! use todr_harness::client::ClientConfig;
//! use todr_sim::SimDuration;
//!
//! let mut cluster = Cluster::build(ClusterConfig::new(5, 42));
//! cluster.settle(); // form the initial primary component
//! let client = cluster.attach_client(0, ClientConfig::default());
//! cluster.run_for(SimDuration::from_secs(2));
//! let stats = cluster.client_stats(client);
//! assert!(stats.committed > 0);
//! cluster.check_consistency();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod checkers;
pub mod client;
pub mod cluster;
pub mod experiments;
pub mod fault;
pub mod metrics;
pub mod oracle;
