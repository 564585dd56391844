//! The disk actor: forced-write latency with group commit.
//!
//! The disk actor models *timing* only (when a platter sync completes);
//! what the platter holds afterwards is the [`crate::StableStore`]'s
//! business, including the failure modes injected by the fault layer
//! (`fault.rs`): a crash can tear the record in flight mid-write, and a
//! sector can later decode stale or bit-flipped. A sync completion here
//! therefore promises durability only for writes whose completion the
//! engine actually observed — exactly the paper's `vulnerable`-record
//! window.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};
use todr_sim::{metric, Actor, ActorId, Ctx, Payload, SimDuration};

/// Correlates a sync request with its completion notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SyncToken(pub u64);

impl fmt::Display for SyncToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sync#{}", self.0)
    }
}

/// Write-durability mode of a simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskMode {
    /// Forced writes: each platter sync takes `sync_latency` of virtual
    /// time; concurrent requests group-commit.
    Forced {
        /// Duration of one platter sync.
        sync_latency: SimDuration,
    },
    /// Delayed writes: sync requests complete immediately (the paper's
    /// Figure 5(b) "delayed writes" configuration). Durability across
    /// crashes is not guaranteed in this mode.
    Delayed,
}

impl DiskMode {
    /// The forced-write mode calibrated for this reproduction (§7 of the
    /// paper is dominated by a ~10 ms commodity-disk sync).
    pub const fn forced_default() -> Self {
        DiskMode::Forced {
            sync_latency: SimDuration::from_millis(10),
        }
    }
}

/// Requests accepted by [`DiskActor`].
#[derive(Debug)]
pub enum DiskOp {
    /// Request a forced write; a [`DiskDone`] carrying `token` will be
    /// sent to `reply_to` when the data is durable.
    Sync {
        /// Caller-chosen correlation token.
        token: SyncToken,
        /// Actor to notify on completion.
        reply_to: ActorId,
    },
    /// Discard queued/ in-flight work and bump the epoch (simulating the
    /// disk controller losing power together with its host). In-flight
    /// completions from before the reset are silently dropped.
    Reset,
}

/// Completion notification for a [`DiskOp::Sync`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskDone {
    /// Token from the corresponding request.
    pub token: SyncToken,
}

/// Internal completion event the disk schedules to itself.
struct PlatterDone {
    epoch: u64,
}

struct Waiter {
    token: SyncToken,
    reply_to: ActorId,
}

/// A simulated disk with forced-write latency and group commit.
///
/// At most one platter sync is in progress at a time. Requests arriving
/// while a sync is in flight queue up and are all satisfied by the *next*
/// sync (their data was not yet on the platter when the current one
/// started). With `k` concurrent committers this batches `k` requests per
/// ~`sync_latency`, which is the group-commit effect behind the engine's
/// throughput scaling in Figure 5(a).
pub struct DiskActor {
    mode: DiskMode,
    /// Requests being written by the in-flight sync.
    in_flight: Vec<Waiter>,
    /// Requests waiting for the next sync.
    queued: VecDeque<Waiter>,
    busy: bool,
    epoch: u64,
}

impl DiskActor {
    /// Creates a disk in the given mode.
    pub fn new(mode: DiskMode) -> Self {
        DiskActor {
            mode,
            in_flight: Vec::new(),
            queued: VecDeque::new(),
            busy: false,
            epoch: 0,
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> DiskMode {
        self.mode
    }

    fn start_sync(&mut self, ctx: &mut Ctx<'_>) {
        let DiskMode::Forced { sync_latency } = self.mode else {
            unreachable!("start_sync only used in Forced mode");
        };
        debug_assert!(!self.busy);
        self.busy = true;
        self.in_flight = self.queued.drain(..).collect();
        ctx.metrics().incr(metric!("storage.forced_writes"), 1);
        ctx.metrics().record_value(
            metric!("storage.group_commit_batch"),
            self.in_flight.len() as u64,
        );
        ctx.send_self_after(sync_latency, PlatterDone { epoch: self.epoch });
    }
}

impl Actor for DiskActor {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let payload = match payload.try_downcast::<PlatterDone>() {
            Ok(done) => {
                if done.epoch != self.epoch {
                    return; // completion from before a reset
                }
                self.busy = false;
                for w in std::mem::take(&mut self.in_flight) {
                    ctx.send_now(w.reply_to, DiskDone { token: w.token });
                }
                if !self.queued.is_empty() {
                    self.start_sync(ctx);
                }
                return;
            }
            Err(p) => p,
        };
        match payload.downcast::<DiskOp>() {
            Some(DiskOp::Sync { token, reply_to }) => {
                ctx.metrics().incr(metric!("storage.sync_requests"), 1);
                match self.mode {
                    DiskMode::Delayed => {
                        ctx.send_now(reply_to, DiskDone { token });
                    }
                    DiskMode::Forced { .. } => {
                        self.queued.push_back(Waiter { token, reply_to });
                        if !self.busy {
                            self.start_sync(ctx);
                        }
                    }
                }
            }
            Some(DiskOp::Reset) => {
                self.epoch += 1;
                self.busy = false;
                self.in_flight.clear();
                self.queued.clear();
            }
            None => panic!("DiskActor received an unknown payload type"),
        }
    }
}

impl fmt::Debug for DiskActor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskActor")
            .field("mode", &self.mode)
            .field("busy", &self.busy)
            .field("queued", &self.queued.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use todr_sim::{SimTime, World};

    struct Collector {
        done: Vec<(SyncToken, SimTime)>,
        disk: Option<ActorId>,
        autosend: u32,
    }

    impl Actor for Collector {
        fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            if let Some(done) = payload.downcast_ref::<DiskDone>() {
                self.done.push((done.token, ctx.now()));
                if self.autosend > 0 {
                    self.autosend -= 1;
                    let token = SyncToken(1000 + self.autosend as u64);
                    let disk = self.disk.unwrap();
                    let me = ctx.self_id();
                    ctx.send_now(
                        disk,
                        DiskOp::Sync {
                            token,
                            reply_to: me,
                        },
                    );
                }
            }
        }
    }

    fn setup(mode: DiskMode) -> (World, ActorId, ActorId) {
        let mut world = World::new(0);
        let disk = world.add_actor("disk", DiskActor::new(mode));
        let coll = world.add_actor(
            "coll",
            Collector {
                done: vec![],
                disk: Some(disk),
                autosend: 0,
            },
        );
        (world, disk, coll)
    }

    const LAT: SimDuration = SimDuration::from_millis(10);

    #[test]
    fn single_sync_takes_sync_latency() {
        let (mut world, disk, coll) = setup(DiskMode::Forced { sync_latency: LAT });
        world.schedule_now(
            disk,
            DiskOp::Sync {
                token: SyncToken(1),
                reply_to: coll,
            },
        );
        world.run_to_quiescence();
        world.with_actor(coll, |c: &mut Collector| {
            assert_eq!(c.done, vec![(SyncToken(1), SimTime::from_millis(10))]);
        });
    }

    #[test]
    fn group_commit_batches_concurrent_requests() {
        let (mut world, disk, coll) = setup(DiskMode::Forced { sync_latency: LAT });
        // First request starts a sync; the next 5 arrive while it is in
        // flight and share the *second* sync.
        world.schedule_now(
            disk,
            DiskOp::Sync {
                token: SyncToken(0),
                reply_to: coll,
            },
        );
        for i in 1..=5u64 {
            world.schedule(
                SimTime::from_millis(2),
                disk,
                DiskOp::Sync {
                    token: SyncToken(i),
                    reply_to: coll,
                },
            );
        }
        world.run_to_quiescence();
        world.with_actor(coll, |c: &mut Collector| {
            assert_eq!(c.done.len(), 6);
            assert_eq!(c.done[0], (SyncToken(0), SimTime::from_millis(10)));
            for (_, at) in &c.done[1..] {
                assert_eq!(*at, SimTime::from_millis(20));
            }
        });
        assert_eq!(world.metrics().counter("storage.sync_requests"), 6);
        assert_eq!(world.metrics().counter("storage.forced_writes"), 2);
    }

    #[test]
    fn sequential_requests_each_pay_full_latency() {
        let (mut world, disk, coll) = setup(DiskMode::Forced { sync_latency: LAT });
        world.with_actor(coll, |c: &mut Collector| c.autosend = 3);
        world.schedule_now(
            disk,
            DiskOp::Sync {
                token: SyncToken(1),
                reply_to: coll,
            },
        );
        world.run_to_quiescence();
        world.with_actor(coll, |c: &mut Collector| {
            let times: Vec<u64> = c.done.iter().map(|&(_, t)| t.as_millis()).collect();
            assert_eq!(times, vec![10, 20, 30, 40]);
        });
        assert_eq!(world.metrics().counter("storage.forced_writes"), 4);
    }

    #[test]
    fn delayed_mode_completes_immediately() {
        let (mut world, disk, coll) = setup(DiskMode::Delayed);
        world.schedule_now(
            disk,
            DiskOp::Sync {
                token: SyncToken(9),
                reply_to: coll,
            },
        );
        world.run_to_quiescence();
        world.with_actor(coll, |c: &mut Collector| {
            assert_eq!(c.done, vec![(SyncToken(9), SimTime::ZERO)]);
        });
        assert_eq!(world.metrics().counter("storage.forced_writes"), 0);
    }

    #[test]
    fn reset_drops_in_flight_completions() {
        let (mut world, disk, coll) = setup(DiskMode::Forced { sync_latency: LAT });
        world.schedule_now(
            disk,
            DiskOp::Sync {
                token: SyncToken(1),
                reply_to: coll,
            },
        );
        // Crash the disk at t=5ms, mid-sync.
        world.schedule(SimTime::from_millis(5), disk, DiskOp::Reset);
        world.run_to_quiescence();
        world.with_actor(coll, |c: &mut Collector| assert!(c.done.is_empty()));
        // The disk works again after reset.
        world.schedule_now(
            disk,
            DiskOp::Sync {
                token: SyncToken(2),
                reply_to: coll,
            },
        );
        world.run_to_quiescence();
        world.with_actor(coll, |c: &mut Collector| {
            assert_eq!(c.done.len(), 1);
            assert_eq!(c.done[0].0, SyncToken(2));
        });
    }
}
