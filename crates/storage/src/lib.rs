//! # todr-storage — simulated stable storage
//!
//! The replication algorithms in this repository are specified (Appendix A
//! of the paper) with explicit `** sync to disk` points: a server must not
//! proceed past such a point until the named state is durable, because the
//! correctness argument for recovery (the `vulnerable` record, the
//! `ongoingQueue`) relies on what survives a crash. This crate provides
//! the two halves of that mechanism:
//!
//! * [`StableStore`] — a typed record store plus append-only log with
//!   **staged/persisted** semantics. Mutations go to a staging area
//!   immediately; [`StableStore::commit_staged`] moves them to the
//!   persisted image (invoked when the simulated platter write completes),
//!   and [`StableStore::crash`] discards the staging area — exactly what a
//!   power failure does to an OS page cache.
//! * [`DiskActor`] — an actor charging virtual-time latency for forced
//!   writes, with **group commit**: every sync request that arrives while
//!   a platter write is in progress joins the next batch and completes
//!   with a single additional sync. Group commit is what lets the paper's
//!   engine sustain hundreds of actions per second through one disk
//!   (Figure 5(a)) while a single sequential client sees the full ~10 ms
//!   forced-write latency (§7 latency experiment).
//!
//! In `Delayed` mode ([`DiskMode::Delayed`]) sync requests complete
//! immediately, reproducing the paper's "engine with delayed writes"
//! configuration (Figure 5(b)); durability is traded away, which the
//! store models by committing staged data on acknowledgement.
//!
//! ## Fault injection
//!
//! Perfect media make the recovery path untestable, so the store also
//! models the ways real disks lie (see [`fault`](crate) methods on
//! [`StableStore`]): [`StableStore::crash_torn`] tears the final
//! in-flight record at a power failure, [`StableStore::inject_bit_flip`]
//! rots a persisted sector, and [`StableStore::inject_stale_sector`]
//! serves old payload bytes under a current-looking header. Every log
//! entry is a [`LogRecord`] sealed with a checksum and the writer's
//! incarnation epoch; [`StableStore::verify_log`] finds the first
//! invalid record and recovery decides — torn tail (truncate, rejoin,
//! re-fetch from peers) versus mid-log corruption (fail-stop). An entry
//! every replica logs is encoded once as a [`SharedEntry`]: the records
//! share its bytes, so the injectors damage copies, never shared bytes.
//! A named record is sealed too, with a checksum at the end of its own
//! bytes ([`encode_record`]); a record whose seal fails reads as
//! [`StorageError::RecordChecksum`], and a file store holding one fails
//! every record read at reopen.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! ## One state machine, two media
//!
//! [`StableStore`] is the only staged/persisted state machine. The
//! engine holds a [`StorageHandle`]: a `StableStore` image and, on the
//! file backend, a mirror of it on disk (one file of checksummed frames
//! per generation, each commit one append, and a `CURRENT` pointer a
//! checkpoint flips by rename). The mirror does only I/O:
//! each commit, crash and fault runs the image's own code once and the
//! mirror then writes its effect, so recovery and the oracles see the
//! same image on either backend. Records are typed at the edges
//! through a compact binary codec (see `codec.rs` and `serde::bin`)
//! that only this crate names, so no caller depends on what the bytes
//! look like.

mod api;
mod codec;
mod disk;
mod fault;
mod file;
mod store;

pub use api::{FileIoStats, StorageHandle};
pub use codec::{encode_record, seal_record, CodecError, CodecErrorKind};
pub use disk::{DiskActor, DiskDone, DiskMode, DiskOp, SyncToken};
pub use fault::InjectedFault;
pub use store::{
    IoError, IoOp, LogFault, LogFaultKind, LogRecord, SharedEntry, StableStore, StorageError,
};
