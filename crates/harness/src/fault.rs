//! The one fault vocabulary and its one executor.
//!
//! A [`Step`] names a connectivity or process fault by flat replica
//! index. [`Faults`] is the only code that turns a step into
//! [`Cluster`] fault calls: it tracks which replicas are crashed or
//! departed and the per-group join, departure and corruption budgets,
//! and turns every step those guards refuse — or whose index is out of
//! range — into a no-op. Scripted timelines, explored schedules and
//! the randomized property tests all run through [`Faults::run`]: apply
//! a step, hold, check the safety invariants.
//!
//! ```
//! use todr_harness::cluster::{Cluster, ClusterConfig};
//! use todr_harness::fault::{Faults, Step};
//! use todr_sim::SimDuration;
//!
//! let ms = SimDuration::from_millis;
//! let mut cluster = Cluster::build(ClusterConfig::new(4, 9));
//! cluster.settle();
//! let mut faults = Faults::new(4, 1);
//! let timeline = [
//!     (Step::Quiet, ms(200)),
//!     (Step::Partition { groups: vec![vec![0, 1, 2], vec![3]] }, ms(800)),
//!     (Step::Crash { server: 3 }, ms(500)),
//!     (Step::Merge, ms(200)),
//! ];
//! faults.run(&mut cluster, timeline)?; // safety held after every hold
//! faults.heal(&mut cluster); // recovers 3
//! cluster.run_for(ms(2_000));
//! cluster.try_check_consistency()?;
//! # Ok::<(), Box<todr_harness::checkers::ConsistencyViolation>>(())
//! ```

use serde::{Deserialize, Serialize};
use todr_sim::SimDuration;

use crate::checkers::ConsistencyViolation;
use crate::cluster::Cluster;

/// One fault applied to a running cluster.
///
/// Server values index the *original* replica set `0..n`; replicas added
/// by [`Step::Join`] ride with the first [`Step::Split`] group and are
/// never crashed or removed. Steps are plain data — serializable, so a
/// failing schedule can be written to a counterexample artifact and
/// replayed bit-for-bit — and *permissive*: [`Faults`] re-applies the
/// legality guards, so any subsequence of a valid schedule is valid.
/// New kinds are appended, so no variant's declaration index or JSON
/// shape moves.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Step {
    /// Partition the original replicas into `[0, cut)` and `[cut, n)`;
    /// later joiners side with the first group.
    Split {
        /// The boundary index (no-op outside `1..n`).
        cut: usize,
    },
    /// Reconnect all partitions.
    Merge,
    /// Crash a server (volatile state lost; stable storage survives).
    Crash {
        /// The server to crash (no-op unless it is up).
        server: usize,
    },
    /// Recover a crashed server from its stable storage.
    Recover {
        /// The server to recover (no-op unless currently crashed).
        server: usize,
    },
    /// Bootstrap a brand-new replica online via `PERSISTENT_JOIN`.
    Join {
        /// The existing member to use as representative (no-op unless
        /// it is up and its group has had fewer than two joins).
        via: usize,
    },
    /// Permanently remove a server via `PERSISTENT_LEAVE`.
    Leave {
        /// The server to remove (no-op unless it is up and its group
        /// has had no departure yet).
        server: usize,
    },
    /// Crash a server with a torn write: the log append in flight
    /// reaches the platter only partially (same legality as
    /// [`Step::Crash`]).
    CrashTorn {
        /// The server to crash (no-op unless it is up).
        server: usize,
    },
    /// Serve a stale sector on a server's disk: one persisted log
    /// record's payload is silently replaced by an earlier record's,
    /// under a current-looking header. Surfaces at the server's next
    /// recovery scan. At most one per group (no-op afterwards, or if
    /// the server departed).
    CorruptSector {
        /// The server whose disk degrades.
        server: usize,
    },
    /// Let the cluster run undisturbed.
    Quiet,
    /// Split connectivity into arbitrary sets of server indices, joiners
    /// included (no-op if any index names no server). Scripted only:
    /// the schedule generator never draws it.
    Partition {
        /// The connectivity sets.
        groups: Vec<Vec<usize>>,
    },
    /// Administratively remove a crashed server by having `via` order a
    /// `PERSISTENT_LEAVE` on its behalf (§5.1, footnote 3). It then
    /// counts as departed. Scripted only: the schedule generator never
    /// draws it.
    RemoveReplica {
        /// The member that orders the removal (no-op unless it is up).
        via: usize,
        /// The replica removed (no-op unless it is crashed, in `via`'s
        /// group, and that group has had no departure yet).
        dead: usize,
    },
}

/// What the guards know about one original replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Up,
    Crashed,
    Departed,
}

/// The one executor: the legality guards plus the loop that applies a
/// timeline.
///
/// The join (at most two), departure (at most one [`Step::Leave`] or
/// [`Step::RemoveReplica`]) and corruption (at most one) budgets are
/// per replication group.
#[derive(Debug)]
pub struct Faults {
    n: usize,
    per_group: usize,
    status: Vec<Status>,
    joins: Vec<usize>,
    departures: Vec<usize>,
    corruptions: Vec<usize>,
}

impl Faults {
    /// Guards for a cluster of `n` original replicas placed evenly
    /// across `shards` groups (the cluster's own, validated counts).
    pub fn new(n: usize, shards: usize) -> Self {
        Faults {
            n,
            per_group: n / shards,
            status: vec![Status::Up; n],
            joins: vec![0; shards],
            departures: vec![0; shards],
            corruptions: vec![0; shards],
        }
    }

    /// Whether `i` names an original replica whose status is `status`.
    fn is(&self, i: usize, status: Status) -> bool {
        i < self.n && self.status[i] == status
    }

    /// Applies one step, or nothing if the guards refuse it.
    pub fn apply(&mut self, cluster: &mut Cluster, step: &Step) {
        let n = self.n;
        let group_of = |server: usize| server / self.per_group;
        match *step {
            Step::Split { cut } => {
                if (1..n).contains(&cut) {
                    // Partition only the original indices; later joiners
                    // ride with the first set. Each group splits by its
                    // own members: one the cut does not cross stays whole.
                    let a = (0..cut).chain(n..cluster.servers.len()).collect();
                    cluster.partition(&[a, (cut..n).collect()]);
                }
            }
            Step::Partition { ref groups } => {
                if groups.iter().flatten().all(|&i| i < cluster.servers.len()) {
                    cluster.partition(groups);
                }
            }
            Step::Merge => cluster.merge_all(),
            Step::Crash { server } => {
                if self.is(server, Status::Up) {
                    self.status[server] = Status::Crashed;
                    cluster.crash(server);
                }
            }
            Step::CrashTorn { server } => {
                if self.is(server, Status::Up) {
                    self.status[server] = Status::Crashed;
                    cluster.crash_torn(server);
                }
            }
            Step::Recover { server } => {
                if self.is(server, Status::Crashed) {
                    self.status[server] = Status::Up;
                    cluster.recover(server);
                }
            }
            Step::Join { via } => {
                if self.is(via, Status::Up) && self.joins[group_of(via)] < 2 {
                    self.joins[group_of(via)] += 1;
                    cluster.add_joiner(via);
                }
            }
            Step::Leave { server } => {
                // Never of a crashed server: that is RemoveReplica.
                if self.is(server, Status::Up) && self.departures[group_of(server)] == 0 {
                    self.status[server] = Status::Departed;
                    self.departures[group_of(server)] += 1;
                    cluster.leave(server);
                }
            }
            Step::RemoveReplica { via, dead } => {
                if self.is(via, Status::Up)
                    && self.is(dead, Status::Crashed)
                    && group_of(dead) == group_of(via)
                    && self.departures[group_of(dead)] == 0
                {
                    self.status[dead] = Status::Departed;
                    self.departures[group_of(dead)] += 1;
                    cluster.remove_replica(via, dead);
                }
            }
            Step::CorruptSector { server } => {
                // At most one latent media fault: the durability argument
                // needs every green action to keep at least one intact
                // durable copy, and a second corruption could (with bad
                // luck) hit the last one. A crashed server's disk can
                // still degrade.
                if server < n
                    && self.status[server] != Status::Departed
                    && self.corruptions[group_of(server)] == 0
                {
                    self.corruptions[group_of(server)] += 1;
                    cluster.corrupt_sector(server);
                }
            }
            Step::Quiet => {}
        }
    }

    /// Applies each step, holds for its duration, then checks the
    /// cross-replica safety invariants; stops at the first violation.
    pub fn run(
        &mut self,
        cluster: &mut Cluster,
        timeline: impl IntoIterator<Item = (Step, SimDuration)>,
    ) -> Result<(), Box<ConsistencyViolation>> {
        for (step, hold) in timeline {
            self.apply(cluster, &step);
            cluster.run_for(hold);
            cluster.try_check_consistency()?;
        }
        Ok(())
    }

    /// Reconnects everything and recovers every crashed replica that has
    /// not departed.
    pub fn heal(&mut self, cluster: &mut Cluster) {
        cluster.merge_all();
        for i in 0..self.n {
            if self.is(i, Status::Crashed) {
                self.status[i] = Status::Up;
                cluster.recover(i);
            }
        }
    }
}
