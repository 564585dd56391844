//! The repo's benchmark (see `README.md` in this directory): five named
//! workloads, exact-percentile virtual-time and host-time metrics,
//! per-layer counts, stage spans and layer drives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod drives;
pub mod eventlog;
pub mod gen;
pub mod layers;
pub mod report;
pub mod run;
pub mod stats;
pub mod workloads;
