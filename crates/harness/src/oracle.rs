//! Trace oracles: the paper's service properties checked over the typed
//! [`ProtocolEvent`] log.
//!
//! The oracles follow the *whole history*, so they catch violations
//! that a comparison of states at one instant can miss (a green line
//! that regressed mid-run and recovered, two nodes that disagreed on a
//! green position that was later garbage-collected, a recovery that
//! restored more state than was ever persisted). Each clause maps to a
//! property of the paper — see the per-variant documentation on
//! [`TraceViolation`] and DESIGN.md's "Checking" section.
//!
//! [`TraceOracle`] is the one implementation, a fold fed one event at a
//! time: [`Cluster`](crate::cluster::Cluster) streams each group's log
//! through one at every consistency check, and [`check_trace`] replays
//! a finished log through a fresh one.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use todr_db::conflict::{conflicts, ActionClass};
use todr_db::keys::Footprint;
use todr_sim::{DeliveredSlot, EventColor, ProtocolEvent, ReadTier, RecordedEvent};

/// A violated trace property.
///
/// `node`, `creator`, `sender` values are raw replica indices as carried
/// by [`ProtocolEvent`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceViolation {
    /// Theorem 1 over the history: two replicas greened *different*
    /// actions at the same global green position.
    GreenOrderConflict {
        /// The disputed green position (0-based).
        position: u64,
        /// First replica and the `(creator, action_seq)` it greened.
        a: (u32, (u32, u64)),
        /// Second replica and the `(creator, action_seq)` it greened.
        b: (u32, (u32, u64)),
    },
    /// Theorem 2 over the history: within one incarnation of a replica
    /// (and since its last base adoption), a creator's green indices
    /// skipped or repeated — the replica greened `(creator, next)`
    /// right after `(creator, prev)` with `next != prev + 1`.
    FifoGap {
        /// The replica whose green sequence has the gap.
        node: u32,
        /// The creator whose indices jumped.
        creator: u32,
        /// Last index greened before the jump.
        prev: u64,
        /// The index greened next.
        next: u64,
    },
    /// An action's color moved backwards (e.g. green, then re-announced
    /// yellow) within one engine incarnation — §3's knowledge levels
    /// only ever increase.
    ColorRegression {
        /// Reporting replica.
        node: u32,
        /// Creator of the action.
        creator: u32,
        /// Creator-local action sequence.
        action_seq: u64,
        /// The color the action had already reached.
        had: EventColor,
        /// The lower color announced later.
        got: EventColor,
    },
    /// A green line moved backwards, stalled on a re-announcement, or
    /// rose by less than the green marks it closes, within one engine
    /// incarnation — the global persistent order is a strictly growing
    /// prefix, one position per mark.
    GreenLineRegression {
        /// Reporting replica.
        node: u32,
        /// The green line it had reached.
        from: u64,
        /// The value announced later.
        to: u64,
    },
    /// A recovery restored a green count *larger* than the green line
    /// the replica had ever announced before crashing — stable storage
    /// cannot know more than the live engine did.
    RecoveryOvershoot {
        /// The recovering replica.
        node: u32,
        /// The green count it reloaded from disk.
        restored: u64,
        /// The largest green line it announced before the crash.
        last_seen: u64,
    },
    /// Safe delivery ⇒ eventual green (§4.3): a surviving replica ended
    /// the run with an action stuck at yellow after the heal-and-drain
    /// window, i.e. a globally ordered action never reached the global
    /// persistent order.
    UnresolvedYellow {
        /// The surviving replica.
        node: u32,
        /// Creator of the stuck action.
        creator: u32,
        /// Creator-local action sequence.
        action_seq: u64,
    },
    /// Durability (§4.3, the `vulnerable`-record argument): a green
    /// action was *lost* — some replica claimed a green position during
    /// the run, but a surviving replica ended the run with a green line
    /// below it. Once an action is green it is globally ordered and
    /// durable at every member of the installing primary component;
    /// crashes, torn writes and single stale sectors may delay but never
    /// erase it, because recovery re-fetches missing actions from peers
    /// during the exchange round.
    GreenActionLost {
        /// The surviving replica that fell short.
        node: u32,
        /// Its green line at the end of the run.
        final_green: u64,
        /// The green count the run's claims require (highest claimed
        /// position + 1).
        needed: u64,
    },
    /// Fast path, receipt-time mirror (DESIGN.md §4e): an action was
    /// fast-committed although, when it turned red at its origin, a
    /// conflicting action from another creator was in flight (red or
    /// yellow, not yet green) there — the engine's conflict check must
    /// have demoted it. `other == action` flags an action whose own
    /// footprint was unbounded, which is never fast-eligible.
    FastCommitConflict {
        /// `(creator, action_seq)` of the fast-committed action.
        action: (u32, u64),
        /// The in-flight conflicting action it should have demoted for.
        other: (u32, u64),
    },
    /// Fast path: a fast-committed action never reached the global
    /// persistent order — the FastAck quorum guarantees it survives
    /// into every subsequent primary component, so after the heal-and-
    /// drain window it must be green somewhere (and
    /// [`Self::GreenActionLost`] then covers every survivor).
    FastCommitNeverGreen {
        /// `(creator, action_seq)` of the lost fast commit.
        action: (u32, u64),
    },
    /// Fast path, the revocation clause: a *conflicting* action the
    /// origin had never seen at receipt time ended up green at a lower
    /// global position than the fast-committed action — the reply the
    /// client already holds was computed from a prefix that is not a
    /// prefix of the final total order.
    FastCommitRevoked {
        /// `(creator, action_seq)` of the fast-committed action.
        action: (u32, u64),
        /// Its final global green position.
        position: u64,
        /// The conflicting action ordered ahead of it.
        other: (u32, u64),
        /// The conflicting action's (lower) green position.
        other_position: u64,
    },
    /// Read leases (DESIGN.md §4f): a linearizable read served locally
    /// under a lease returned a row version older than the number of
    /// strongly-acknowledged writes to that row that preceded the read
    /// in (virtual) real time. Every green/fast acknowledgement is a
    /// linearization point; a lease read served after it must observe
    /// the write. The check is a *necessary* condition — unacked green
    /// writes inflate `version`, so it can only under-approximate — but
    /// it has no false positives and catches the canonical stale-holder
    /// shapes (an expired lease still being served, a partitioned
    /// ex-member answering from a frozen green prefix).
    StaleLinearizableRead {
        /// The replica that served the stale read.
        node: u32,
        /// Fingerprint of the read row.
        key_fp: u64,
        /// The row version the read returned.
        version: u64,
        /// Distinct strongly-acked writes to that row before the read.
        acked_writes: u64,
    },
    /// Read leases: two replicas held leases sealed to *different*
    /// configurations at overlapping (virtual) times. All members of
    /// one regular primary configuration hold leases simultaneously by
    /// design; the timing discipline (2·heartbeat + lease duration <
    /// failure-detection timeout) must guarantee every old-configuration
    /// lease has drained before a new configuration can install and
    /// grant. Intervals are clipped at the holder's next transitional
    /// configuration or crash, mirroring the engine's conservative
    /// expiry.
    LeaseOverlap {
        /// First holder and the `(conf_seq, coordinator)` of its lease.
        a: (u32, (u64, u32)),
        /// Second holder and the `(conf_seq, coordinator)` of its lease.
        b: (u32, (u64, u32)),
    },
    /// EVS agreed order: two replicas delivered *different senders* at
    /// the same `(configuration, slot)`.
    DeliveryMismatch {
        /// Sequence number of the configuration.
        conf_seq: u64,
        /// Coordinator of the configuration.
        coordinator: u32,
        /// The agreed-order slot in dispute.
        seq: u64,
        /// First replica and the sender it delivered.
        a: (u32, u32),
        /// Second replica and the sender it delivered.
        b: (u32, u32),
    },
    /// EVS agreed order: one replica's delivery slots within a single
    /// configuration did not strictly increase.
    DeliverySeqRegression {
        /// Reporting replica.
        node: u32,
        /// Sequence number of the configuration.
        conf_seq: u64,
        /// Coordinator of the configuration.
        coordinator: u32,
        /// The slot it had reached.
        from: u64,
        /// The non-increasing slot announced later.
        to: u64,
    },
}

impl fmt::Display for TraceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceViolation::GreenOrderConflict { position, a, b } => write!(
                f,
                "green order conflict at position {position}: node {} greened \
                 ({}, {}), node {} greened ({}, {})",
                a.0, a.1 .0, a.1 .1, b.0, b.1 .0, b.1 .1
            ),
            TraceViolation::FifoGap {
                node,
                creator,
                prev,
                next,
            } => write!(
                f,
                "FIFO violated at node {node}: creator {creator}'s green \
                 indices went {prev} -> {next}"
            ),
            TraceViolation::ColorRegression {
                node,
                creator,
                action_seq,
                had,
                got,
            } => write!(
                f,
                "color regression at node {node}: action ({creator}, {action_seq}) \
                 was {had:?}, later announced {got:?}"
            ),
            TraceViolation::GreenLineRegression { node, from, to } => {
                write!(f, "green line at node {node} went {from} -> {to}")
            }
            TraceViolation::RecoveryOvershoot {
                node,
                restored,
                last_seen,
            } => write!(
                f,
                "node {node} recovered green count {restored} but had only \
                 announced {last_seen} before crashing"
            ),
            TraceViolation::UnresolvedYellow {
                node,
                creator,
                action_seq,
            } => write!(
                f,
                "action ({creator}, {action_seq}) still yellow at surviving \
                 node {node} at quiescence"
            ),
            TraceViolation::GreenActionLost {
                node,
                final_green,
                needed,
            } => write!(
                f,
                "green action lost: node {node} ended with green line \
                 {final_green} but the run greened {needed} positions"
            ),
            TraceViolation::FastCommitConflict { action, other } => {
                if action == other {
                    write!(
                        f,
                        "action ({}, {}) fast-committed with an unbounded footprint",
                        action.0, action.1
                    )
                } else {
                    write!(
                        f,
                        "action ({}, {}) fast-committed while conflicting action \
                         ({}, {}) was in flight at its origin",
                        action.0, action.1, other.0, other.1
                    )
                }
            }
            TraceViolation::FastCommitNeverGreen { action } => write!(
                f,
                "fast-committed action ({}, {}) never reached the global \
                 persistent order",
                action.0, action.1
            ),
            TraceViolation::FastCommitRevoked {
                action,
                position,
                other,
                other_position,
            } => write!(
                f,
                "fast commit revoked: action ({}, {}) greened at position \
                 {position} but conflicting action ({}, {}), unseen at its \
                 origin at receipt time, greened ahead at {other_position}",
                action.0, action.1, other.0, other.1
            ),
            TraceViolation::StaleLinearizableRead {
                node,
                key_fp,
                version,
                acked_writes,
            } => write!(
                f,
                "stale linearizable read at node {node}: row {key_fp:#018x} \
                 served at version {version} after {acked_writes} acknowledged \
                 writes"
            ),
            TraceViolation::LeaseOverlap { a, b } => write!(
                f,
                "lease overlap: node {} held a lease for conf ({}, {}) while \
                 node {} held one for conf ({}, {})",
                a.0, a.1 .0, a.1 .1, b.0, b.1 .0, b.1 .1
            ),
            TraceViolation::DeliveryMismatch {
                conf_seq,
                coordinator,
                seq,
                a,
                b,
            } => write!(
                f,
                "delivery mismatch in conf ({conf_seq}, {coordinator}) slot {seq}: \
                 node {} delivered sender {}, node {} delivered sender {}",
                a.0, a.1, b.0, b.1
            ),
            TraceViolation::DeliverySeqRegression {
                node,
                conf_seq,
                coordinator,
                from,
                to,
            } => write!(
                f,
                "delivery slots at node {node} in conf ({conf_seq}, {coordinator}) \
                 went {from} -> {to}"
            ),
        }
    }
}

impl std::error::Error for TraceViolation {}

/// What a passing [`TraceOracle`] covered, for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Events walked.
    pub events: u64,
    /// Green positions cross-checked between at least two replicas.
    pub green_positions_agreed: u64,
    /// Agreed-order delivery slots cross-checked between at least two
    /// replicas.
    pub deliveries_agreed: u64,
    /// Fast commits checked against their receipt-time snapshot and,
    /// at end of run, against the global green order.
    pub fast_commits_checked: u64,
    /// Lease-served linearizable reads checked against the acked-write
    /// counters.
    pub lease_reads_checked: u64,
    /// Lease grant/renewal intervals checked for cross-configuration
    /// overlap.
    pub lease_grants_checked: u64,
}

impl std::ops::AddAssign for TraceStats {
    fn add_assign(&mut self, other: TraceStats) {
        self.events += other.events;
        self.green_positions_agreed += other.green_positions_agreed;
        self.deliveries_agreed += other.deliveries_agreed;
        self.fast_commits_checked += other.fast_commits_checked;
        self.lease_reads_checked += other.lease_reads_checked;
        self.lease_grants_checked += other.lease_grants_checked;
    }
}

fn rank(c: EventColor) -> u8 {
    match c {
        EventColor::Red => 0,
        EventColor::Yellow => 1,
        EventColor::Green => 2,
        EventColor::White => 3,
    }
}

/// One lease grant or renewal, in log (= virtual-time) order.
#[derive(Debug)]
struct LeaseGrant {
    /// Position in the event log (tie-break for same-nanosecond cuts).
    idx: u64,
    /// Grant instant, nanoseconds.
    start: u64,
    /// Scheduled expiry, nanoseconds.
    expires: u64,
    /// Holder.
    node: u32,
    /// Sealing configuration: (conf_seq, coordinator).
    conf: (u64, u32),
}

/// How far past its dense end a [`Slots`] still grows its vector: a new
/// index beyond it is kept in the sparse map, so one event can make the
/// oracle allocate at most this many entries, whatever index it names.
const DENSE_WINDOW: u64 = 1 << 12;

/// A value with a reserved "nothing here" state, so [`Slots`] can keep
/// its dense part unwrapped.
trait Vacant: Copy + PartialEq {
    const VACANT: Self;
}

impl Vacant for u64 {
    const VACANT: u64 = 0;
}

/// Values keyed by an index that runs densely from 0 or 1 (a green
/// position, a delivery slot, a creator-local sequence): a vector,
/// grown only by new indices within [`DENSE_WINDOW`] of its end, and a
/// map for any index beyond. An index far ahead (a replayed log's tail,
/// a corrupted slot) is thus recorded, not rejected, in constant space:
/// the verdict never depends on where an index lands.
#[derive(Debug)]
struct Slots<T> {
    dense: Vec<T>,
    // Indices set while beyond the vector's reach. Once the vector has
    // grown over one, a later set of it lands in the vector and wins.
    sparse: BTreeMap<u64, T>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            dense: Vec::new(),
            sparse: BTreeMap::new(),
        }
    }
}

impl<T: Vacant> Slots<T> {
    /// The value at `index`, if one was set.
    fn get(&self, index: u64) -> Option<T> {
        let dense = usize::try_from(index).ok().and_then(|i| self.dense.get(i));
        match dense {
            Some(&v) if v != T::VACANT => Some(v),
            _ => self.sparse.get(&index).copied(),
        }
    }

    /// Sets the value at `index`.
    fn set(&mut self, index: u64, value: T) {
        let reach = self.dense.len() as u64 + DENSE_WINDOW;
        match usize::try_from(index) {
            Ok(i) if index < reach => {
                if i >= self.dense.len() {
                    self.dense.resize(i + 1, T::VACANT);
                }
                self.dense[i] = value;
            }
            _ => {
                self.sparse.insert(index, value);
            }
        }
    }

    /// One past the highest index set (0 if none).
    fn end(&self) -> u64 {
        let last = self.sparse.last_key_value();
        let sparse_end = last.map_or(0, |(&i, _)| i.saturating_add(1));
        sparse_end.max(self.dense.len() as u64)
    }
}

/// The first claim on a green position or delivery slot: who made it
/// and what it named.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Claim {
    node: u32,
    id: (u32, u64),
}

impl Vacant for Claim {
    /// An unclaimed entry.
    const VACANT: Claim = Claim {
        node: u32::MAX,
        id: (0, 0),
    };
}

/// What the fast-path clauses know of one action with a footprint.
#[derive(Debug)]
struct Fast {
    /// Static conflict class exported at creation time.
    class: ActionClass,
    /// Receipt-time conflict snapshot at its origin, once taken: `None`
    /// = clean, `Some(other)` = `other` was in flight and conflicting
    /// (`other == action` encodes an unbounded own footprint). Mirrors
    /// the engine's check, so a `FastCommit` against a non-clean
    /// snapshot is a violated promise.
    snapshot: Option<Option<(u32, u64)>>,
    /// Event index of the receipt-time check, once fast-committed.
    committed: Option<u64>,
    /// Its agreed global green position (0-based), once claimed.
    position: Option<u64>,
    /// Already counted as a strong acknowledgement.
    acked: bool,
}

/// A greened action with a footprint: its green position, then its
/// `(creator, seq)`.
type PlacedGreen = (u64, (u32, u64));

/// Every trace oracle as one fold over the event log.
///
/// [`observe`](Self::observe) checks the clauses that hold at every
/// prefix of the history and returns the first violation;
/// [`finish`](Self::finish) checks the end-of-run clauses (lease
/// overlap, durability, the fast-commit promise, eventual green). Feed
/// it one replication group's events, in log order, in as many calls
/// as you like: the verdict and [`TraceStats`] do not depend on where
/// the log was cut.
///
/// A Green with no earlier mark of its action at that node is accepted:
/// a replica that accepts an action as red and greens it in the same
/// step logs the Green alone (the fold). The folded Green sits right
/// where the Red would have been, with nothing in between, so the
/// in-flight set and the order of first orderings are what the Red
/// would have given (the action was never in flight between two
/// events), and a later lower color is still a
/// [`TraceViolation::ColorRegression`].
///
/// Per-incarnation state (colors, green lines, green runs, delivery
/// slots) is reset at each [`ProtocolEvent::EngineCrashed`], because a
/// recovering engine legitimately re-announces persisted actions from
/// red upwards. The cross-replica green-position map is **never** reset:
/// a green mark is a claim about the global order, and the global order
/// has no incarnations.
///
/// What it keeps is what is still in flight plus the global claims: an
/// action's color is kept only until it turns green, after which the
/// replica's per-creator green run (Theorem 2 makes it contiguous)
/// stands for it; the fast-path state holds only actions that exported
/// an [`ProtocolEvent::ActionFootprint`]. Whatever is kept per green
/// position, delivery slot or creator index sits in a vector indexed by
/// it, since those run densely from 0 or 1; an index far past the
/// highest one seen goes to a map beside it instead, so what one event
/// allocates does not depend on the index it names.
#[derive(Debug, Default)]
pub struct TraceOracle {
    stats: TraceStats,
    // position -> its first claim
    global_green: Slots<Claim>,
    // node -> (creator, action_seq) of each green mark since its last
    // GreenLineAdvance, in mark order: the next advance places them.
    pending_green: BTreeMap<u32, Vec<(u32, u64)>>,
    // node -> action -> highest color this incarnation, until it is
    // folded into `green_runs`
    colors: BTreeMap<u32, BTreeMap<(u32, u64), EventColor>>,
    // node -> creator -> (first, last) action_seq greened this
    // incarnation since the last base adoption: every seq in between is
    // green there (Theorem 2)
    green_runs: BTreeMap<u32, BTreeMap<u32, (u64, u64)>>,
    // node -> last announced green line this incarnation
    green_line: BTreeMap<u32, u64>,
    // node -> largest green line ever announced (across incarnations)
    best_green: BTreeMap<u32, u64>,
    // node -> green line at the latest event affecting it (advances and
    // recoveries; NOT cleared at crash — this is the end-of-run value
    // the durability oracle compares against the global claims)
    final_green: BTreeMap<u32, u64>,
    // node -> green count its latest recovery reloaded from its own log:
    // positions no event of this incarnation claimed (until a base
    // adoption replaces them)
    reloaded: BTreeMap<u32, u64>,
    // (conf_seq, coordinator) -> slot -> its first delivery: the node
    // and, in `id.0`, the sender
    deliveries: BTreeMap<(u64, u32), Slots<Claim>>,
    // (node, conf_seq, coordinator) -> last delivered slot
    deliv_seq: BTreeMap<(u32, u64, u32), u64>,

    // --- Fast-path (commutativity) oracle state. Inert unless the run
    // emitted `ActionFootprint`/`FastCommit` events (fast path on).
    //
    // action -> what the fast-path clauses know of it, for actions that
    // exported a footprint.
    footprints: BTreeMap<(u32, u64), Fast>,
    // node -> actions currently red/yellow there (mirrors the engine's
    // in-flight set the receipt-time conflict check scans).
    inflight: BTreeMap<u32, BTreeSet<(u32, u64)>>,
    // (node, creator) -> action_seq -> index of the first event that
    // ordered the action at that node (0: never), for actions with a
    // footprint. Cumulative across incarnations: used to decide whether
    // an origin had seen a conflicting action before it promised a fast
    // commit.
    first_seen: BTreeMap<(u32, u32), Slots<u64>>,
    // (node, creator) -> (event index, cut) of each base adopted there
    // that raised the creator's green cut: the actions up to the cut are
    // seen from that index on, with no event ordering them.
    base_cuts: BTreeMap<(u32, u32), Vec<(u64, u64)>>,
    // Fingerprint -> (green position, action) of the greened actions
    // touching it (read or write side), so the end-of-run revocation
    // scan is bucket-local instead of quadratic over the full green
    // history, and skips a later green before looking it up.
    greens_by_fp: BTreeMap<u64, Vec<PlacedGreen>>,
    // Greened actions with an unbounded footprint side: they conflict
    // with (nearly) everything, so every revocation scan visits them.
    unbounded_greens: Vec<PlacedGreen>,

    // --- Read-lease oracle state. Inert unless the run emitted
    // `ReadServed`/`UpdateAcked`/`LeaseGranted` events (read leases on).
    //
    // Acknowledged actions without a footprint (those with one carry
    // the mark in `footprints`). An action is one linearization point
    // no matter how many times its ack is re-announced.
    acked: BTreeSet<(u32, u64)>,
    // write fingerprint -> strongly-acked writes touching it so far.
    acked_writes_by_fp: BTreeMap<u64, u64>,
    lease_grants: Vec<LeaseGrant>,
    // node -> (log index, nanos) of its transitional-config and crash
    // events — the instants the engine conservatively expires a lease.
    lease_cuts: BTreeMap<u32, Vec<(u64, u64)>>,
}

impl TraceOracle {
    /// What the events observed so far covered.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// The EVS agreed-order clauses for one delivered slot: every member
    /// of a configuration delivers the same sender at a slot, and one
    /// member's slots in a configuration strictly increase. A run is
    /// checked slot by slot, so its verdict is that of its singles.
    fn observe_delivery(&mut self, d: DeliveredSlot) -> Result<(), TraceViolation> {
        let (node, coordinator, sender) = (d.node, d.coordinator, d.sender);
        let (conf_seq, seq) = (u64::from(d.conf_seq), u64::from(d.seq));
        let slots = self.deliveries.entry((conf_seq, coordinator)).or_default();
        match slots.get(seq) {
            None => {
                let id = (sender, 0);
                slots.set(seq, Claim { node, id });
            }
            Some(first) => {
                if first.id.0 != sender {
                    return Err(TraceViolation::DeliveryMismatch {
                        conf_seq,
                        coordinator,
                        seq,
                        a: (first.node, first.id.0),
                        b: (node, sender),
                    });
                }
                self.stats.deliveries_agreed += 1;
            }
        }
        if let Some(&prev) = self.deliv_seq.get(&(node, conf_seq, coordinator)) {
            if seq <= prev {
                return Err(TraceViolation::DeliverySeqRegression {
                    node,
                    conf_seq,
                    coordinator,
                    from: prev,
                    to: seq,
                });
            }
        }
        self.deliv_seq.insert((node, conf_seq, coordinator), seq);
        Ok(())
    }

    /// Checks one more event against every clause that holds at each
    /// prefix of the history.
    pub fn observe(&mut self, rec: &RecordedEvent) -> Result<(), TraceViolation> {
        self.stats.events += 1;
        let event_idx = self.stats.events;
        match rec.event {
            ProtocolEvent::ActionOrdered {
                node,
                creator,
                action_seq,
                color,
            } => {
                let id = (creator, action_seq);
                let folded = self
                    .green_runs
                    .get(&node)
                    .and_then(|runs| runs.get(&creator))
                    .is_some_and(|&(lo, hi)| lo <= action_seq && action_seq <= hi);
                let per_node = self.colors.entry(node).or_default();
                let had = per_node
                    .get(&id)
                    .copied()
                    .or(folded.then_some(EventColor::Green));
                if let Some(had) = had {
                    if rank(color) < rank(had) {
                        return Err(TraceViolation::ColorRegression {
                            node,
                            creator,
                            action_seq,
                            had,
                            got: color,
                        });
                    }
                }
                if !(folded && color == EventColor::Green) {
                    per_node.insert(id, color);
                }
                if color == EventColor::Green {
                    self.pending_green.entry(node).or_default().push(id);
                }
                if self.footprints.contains_key(&id) {
                    let seen = self.first_seen.entry((node, creator)).or_default();
                    if seen.get(action_seq).is_none() {
                        seen.set(action_seq, event_idx);
                    }
                }
                let node_inflight = self.inflight.entry(node).or_default();
                if rank(color) <= 1 {
                    node_inflight.insert(id);
                } else {
                    node_inflight.remove(&id);
                }
                // An action ordered red at its own origin: this is the
                // moment the engine runs its fast-path conflict check,
                // so mirror it. First ordering only — a re-ordering
                // after a crash can no longer fast-commit (the pending
                // reply died with the incarnation).
                if color == EventColor::Red && node == creator {
                    let footprints = &self.footprints;
                    if let Some(f) = footprints.get(&id).filter(|f| f.snapshot.is_none()) {
                        let fd = &f.class;
                        let conflict = if fd.unbounded() {
                            Some(id)
                        } else {
                            node_inflight
                                .iter()
                                .filter(|&&(c, _)| c != creator)
                                .find_map(|other| match footprints.get(other) {
                                    Some(o) => conflicts(fd, &o.class).then_some(*other),
                                    // Bodies without an exported class
                                    // (reconfigurations, lost
                                    // footprints) are conservatively
                                    // conflicting, as in the engine.
                                    None => Some(*other),
                                })
                        };
                        if let Some(f) = self.footprints.get_mut(&id) {
                            f.snapshot = Some(conflict);
                        }
                    }
                }
            }
            ProtocolEvent::GreenLineAdvance { node, green } => {
                // The advance closes the k marks made since the last one:
                // in mark order, they hold the k green positions just
                // below the announced line.
                let mut marks = self.pending_green.remove(&node).unwrap_or_default();
                let k = marks.len() as u64;
                let prev_line = self.green_line.get(&node).copied();
                // Line arithmetic checked: a replayed log can name any line.
                let regressed = match prev_line {
                    Some(prev) => prev.checked_add(k.max(1)).is_none_or(|next| green < next),
                    None => green < k,
                };
                if regressed {
                    return Err(TraceViolation::GreenLineRegression {
                        node,
                        from: prev_line.unwrap_or(0),
                        to: green,
                    });
                }
                self.green_line.insert(node, green);
                self.final_green.insert(node, green);
                let best = self.best_green.entry(node).or_insert(0);
                *best = (*best).max(green);
                // An advance that skips positions announces a base
                // adoption's jump, with or without marks to close: every
                // creator's run restarts before the first mark, and the
                // base replaces the reloaded prefix.
                if prev_line.is_some_and(|p| green > p + k) {
                    self.green_runs.remove(&node);
                    self.reloaded.remove(&node);
                }
                for (position, id) in (green - k..green).zip(marks.drain(..)) {
                    self.fold_green(node, id)?;
                    self.claim_green(node, position, id)?;
                }
                self.pending_green.insert(node, marks);
            }
            ProtocolEvent::EngineCrashed { node } => {
                self.colors.remove(&node);
                self.green_runs.remove(&node);
                self.pending_green.remove(&node);
                self.green_line.remove(&node);
                self.reloaded.remove(&node);
                self.inflight.remove(&node);
                self.deliv_seq.retain(|&(n, _, _), _| n != node);
                self.lease_cuts
                    .entry(node)
                    .or_default()
                    .push((event_idx, rec.at_nanos));
            }
            ProtocolEvent::EngineRecovered { node, green } => {
                if let Some(&best) = self.best_green.get(&node) {
                    if green > best {
                        return Err(TraceViolation::RecoveryOvershoot {
                            node,
                            restored: green,
                            last_seen: best,
                        });
                    }
                }
                // The restored green count is the floor for this
                // incarnation's strictly-increasing advances.
                if green > 0 {
                    self.green_line.insert(node, green);
                }
                self.final_green.insert(node, green);
                self.reloaded.insert(node, green);
            }
            ProtocolEvent::Delivered { .. } | ProtocolEvent::DeliveredRun(_) => {
                for slot in rec.event.delivered_slots() {
                    self.observe_delivery(slot)?;
                }
            }
            ProtocolEvent::ActionFootprint(ref f) => {
                let id = (f.node, f.action_seq);
                let rows = |fps: &[u64], all: bool| match all {
                    true => Footprint::all(),
                    false => fps.iter().copied().collect(),
                };
                let class = ActionClass {
                    writes: rows(&f.writes, f.writes_unbounded),
                    reads: rows(&f.reads, f.reads_unbounded),
                    commutative: f.commutative,
                    timestamped: f.timestamped,
                };
                match self.footprints.entry(id) {
                    Entry::Occupied(mut known) => known.get_mut().class = class,
                    Entry::Vacant(slot) => {
                        slot.insert(Fast {
                            class,
                            snapshot: None,
                            committed: None,
                            position: None,
                            acked: self.acked.remove(&id),
                        });
                    }
                }
            }
            ProtocolEvent::FastCommit { node, action_seq } => {
                let id = (node, action_seq);
                let receipt_idx = self.first_seen(node, id).unwrap_or(event_idx);
                let f = self.footprints.get_mut(&id);
                match f.as_ref().and_then(|f| f.snapshot) {
                    // The receipt-time mirror of the engine's check: a
                    // fast commit against a conflicting in-flight action
                    // (or with no recorded clean snapshot at all) is a
                    // promise the green order may break.
                    None => {
                        return Err(TraceViolation::FastCommitConflict {
                            action: id,
                            other: id,
                        });
                    }
                    Some(Some(other)) => {
                        return Err(TraceViolation::FastCommitConflict { action: id, other });
                    }
                    Some(None) => {
                        self.stats.fast_commits_checked += 1;
                        if let Some(f) = f {
                            f.committed.get_or_insert(receipt_idx);
                        }
                    }
                }
            }
            ProtocolEvent::BaseSubsumed { node, creator, cut } => {
                // The adopted base made every action of `creator` up to
                // `cut` green at `node` without a green mark: they are
                // seen there from now on, and what the node held red or
                // yellow of them is resolved and out of its in-flight set.
                self.base_cuts
                    .entry((node, creator))
                    .or_default()
                    .push((event_idx, cut));
                let above_cut = |&(c, seq): &(u32, u64)| c != creator || seq > cut;
                if let Some(per_node) = self.colors.get_mut(&node) {
                    per_node.retain(|id, _| above_cut(id));
                }
                if let Some(node_inflight) = self.inflight.get_mut(&node) {
                    node_inflight.retain(above_cut);
                }
            }
            ProtocolEvent::TransitionalConfig { node, .. } => {
                self.lease_cuts
                    .entry(node)
                    .or_default()
                    .push((event_idx, rec.at_nanos));
            }
            ProtocolEvent::UpdateAcked {
                creator,
                action_seq,
                ..
            } => {
                let id = (creator, action_seq);
                match self.footprints.get_mut(&id) {
                    Some(f) if !f.acked => {
                        f.acked = true;
                        // Unbounded write sets cannot be attributed to
                        // a row; skipping them keeps the staleness
                        // check a sound necessary condition.
                        for &fp in f.class.writes.rows() {
                            *self.acked_writes_by_fp.entry(fp).or_insert(0) += 1;
                        }
                    }
                    Some(_) => {}
                    None => {
                        self.acked.insert(id);
                    }
                }
            }
            // Only lease-served linearizable reads are checked: the
            // engine answers them without touching the total order,
            // so only the lease discipline keeps them fresh. Reads
            // routed through the ordered path are linearized by the
            // green order itself (and checked by the green-position
            // oracles); their serve instant can legitimately trail
            // their linearization point, so an ack-before-serve
            // comparison would false-positive on them. Snapshot and
            // overlay tiers promise no linearizability at all.
            ProtocolEvent::ReadServed {
                node,
                key_fp,
                tier: ReadTier::LeaseLinearizable,
                version,
            } => {
                self.stats.lease_reads_checked += 1;
                let acked_writes = self.acked_writes_by_fp.get(&key_fp).copied().unwrap_or(0);
                if version < acked_writes {
                    return Err(TraceViolation::StaleLinearizableRead {
                        node,
                        key_fp,
                        version,
                        acked_writes,
                    });
                }
            }
            ProtocolEvent::LeaseGranted {
                node,
                conf_seq,
                coordinator,
                expires_nanos,
                renewal: _,
            } => {
                self.lease_grants.push(LeaseGrant {
                    idx: event_idx,
                    start: rec.at_nanos,
                    expires: expires_nanos,
                    node,
                    conf: (u64::from(conf_seq), coordinator),
                });
            }
            _ => {}
        }
        Ok(())
    }

    /// Theorem 1 where a green mark meets its `GreenLineAdvance`: the
    /// first claim on `position` wins, and every later one must name the
    /// same action.
    fn claim_green(
        &mut self,
        node: u32,
        position: u64,
        id: (u32, u64),
    ) -> Result<(), TraceViolation> {
        let Some(first) = self.global_green.get(position) else {
            self.global_green.set(position, Claim { node, id });
            let first_green = self
                .footprints
                .get_mut(&id)
                .filter(|f| f.position.is_none());
            if let Some(f) = first_green {
                f.position = Some(position);
                let fd = &f.class;
                let entry = (position, id);
                if fd.unbounded() {
                    self.unbounded_greens.push(entry);
                }
                let both = fd.writes.rows().iter().chain(fd.reads.rows());
                let mut fps: Vec<u64> = both.copied().collect();
                fps.sort_unstable();
                fps.dedup();
                for fp in fps {
                    self.greens_by_fp.entry(fp).or_default().push(entry);
                }
            }
            return Ok(());
        };
        if first.id != id {
            return Err(TraceViolation::GreenOrderConflict {
                position,
                a: (first.node, first.id),
                b: (node, id),
            });
        }
        self.stats.green_positions_agreed += 1;
        Ok(())
    }

    /// Theorem 2 where a green mark meets its `GreenLineAdvance`: within
    /// one incarnation, each creator's green indices at `node` are
    /// contiguous since the last base adoption (an advance that skips
    /// positions). The action's color folds into the run.
    fn fold_green(&mut self, node: u32, (creator, seq): (u32, u64)) -> Result<(), TraceViolation> {
        let runs = self.green_runs.entry(node).or_default();
        match runs.entry(creator) {
            Entry::Occupied(mut run) => {
                let (lo, hi) = *run.get();
                if hi.checked_add(1) != Some(seq) {
                    return Err(TraceViolation::FifoGap {
                        node,
                        creator,
                        prev: hi,
                        next: seq,
                    });
                }
                run.insert((lo, seq));
            }
            Entry::Vacant(slot) => {
                slot.insert((seq, seq));
            }
        }
        if let Some(per_node) = self.colors.get_mut(&node) {
            per_node.remove(&(creator, seq));
        }
        Ok(())
    }

    /// Index of the first event that ordered `id` at `node`, if one did
    /// and `id` has a footprint.
    fn first_seen(&self, node: u32, (creator, seq): (u32, u64)) -> Option<u64> {
        self.first_seen.get(&(node, creator))?.get(seq)
    }

    /// Index of the first event after which `node` held `id`: the first
    /// that ordered it there, or a base adopted there that covers it.
    fn seen_at(&self, node: u32, (creator, seq): (u32, u64)) -> Option<u64> {
        let adopted = self.base_cuts.get(&(node, creator)).and_then(|cuts| {
            cuts.iter()
                .find(|&&(_, cut)| cut >= seq)
                .map(|&(idx, _)| idx)
        });
        let ordered = self.first_seen(node, (creator, seq));
        ordered.into_iter().chain(adopted).min()
    }

    /// The green count `node`'s latest recovery reloaded from its own
    /// log (0 if it never recovered, or adopted a base since): its green
    /// positions below it were restored silently, so no event of this
    /// incarnation claimed them.
    pub fn reloaded(&self, node: u32) -> u64 {
        self.reloaded.get(&node).copied().unwrap_or(0)
    }

    /// Theorems 1 and 2 over the green ids `node` reloaded at recovery,
    /// which the log never shows: `tail[i]` is its `(creator,
    /// action_seq)` at position `floor + i`, for positions below
    /// [`Self::reloaded`]. Each must equal the first claim on its
    /// position, and each creator's reloaded indices must be contiguous
    /// and run on into what `node` has greened since.
    pub fn check_reloaded(
        &self,
        node: u32,
        floor: u64,
        tail: &[(u32, u64)],
    ) -> Result<(), TraceViolation> {
        let mut last: BTreeMap<u32, u64> = BTreeMap::new();
        for (position, &id) in (floor..=u64::MAX).zip(tail) {
            if let Some(first) = self.global_green.get(position) {
                if first.id != id {
                    return Err(TraceViolation::GreenOrderConflict {
                        position,
                        a: (first.node, first.id),
                        b: (node, id),
                    });
                }
            }
            if let Some(prev) = last.insert(id.0, id.1) {
                if prev.checked_add(1) != Some(id.1) {
                    return Err(TraceViolation::FifoGap {
                        node,
                        creator: id.0,
                        prev,
                        next: id.1,
                    });
                }
            }
        }
        let runs = self.green_runs.get(&node);
        for (creator, prev) in last {
            if let Some(&(next, _)) = runs.and_then(|r| r.get(&creator)) {
                if prev.checked_add(1) != Some(next) {
                    return Err(TraceViolation::FifoGap {
                        node,
                        creator,
                        prev,
                        next,
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks the end-of-run clauses over the history observed so far
    /// and returns what the whole check covered.
    ///
    /// `survivors` are the raw node indices still in the system at the
    /// end of the run (non-crashed, non-departed); the eventual-green
    /// and durability clauses only apply to them — a departed or down
    /// replica is allowed to take unresolved yellows to its grave.
    pub fn finish(&self, survivors: &BTreeSet<u32>) -> Result<TraceStats, TraceViolation> {
        let mut stats = self.stats;

        // Lease safety: grant intervals sealed to *different*
        // configurations must be pairwise disjoint (co-members of one
        // configuration hold leases simultaneously by design). Each
        // interval is clipped at the holder's next transitional
        // configuration or crash, mirroring the engine's conservative
        // expiry; what remains is exactly the window in which the holder
        // would answer linearizable reads locally, so any
        // cross-configuration overlap means a stale holder could race a
        // new primary's writes.
        let mut live_ends: BTreeMap<(u64, u32), (u64, u32)> = BTreeMap::new();
        for grant in &self.lease_grants {
            stats.lease_grants_checked += 1;
            let cut = self
                .lease_cuts
                .get(&grant.node)
                .and_then(|cuts| cuts.iter().find(|&&(idx, _)| idx > grant.idx))
                .map(|&(_, nanos)| nanos);
            let end = match cut {
                Some(c) => grant.expires.min(c),
                None => grant.expires,
            };
            if end <= grant.start {
                continue;
            }
            for (&other_conf, &(other_end, other_node)) in &live_ends {
                if other_conf != grant.conf && other_end > grant.start {
                    return Err(TraceViolation::LeaseOverlap {
                        a: (other_node, other_conf),
                        b: (grant.node, grant.conf),
                    });
                }
            }
            let slot = live_ends.entry(grant.conf).or_insert((end, grant.node));
            if end > slot.0 {
                *slot = (end, grant.node);
            }
        }

        // Durability over the surviving membership: every green position
        // any replica ever claimed must be covered by every survivor's
        // final green line — a green action is never lost, no matter
        // what crashes, torn writes or (single) stale sectors the run
        // injected.
        let needed = self.global_green.end();
        if needed > 0 {
            for &node in survivors {
                let have = self.final_green.get(&node).copied().unwrap_or(0);
                if have < needed {
                    return Err(TraceViolation::GreenActionLost {
                        node,
                        final_green: have,
                        needed,
                    });
                }
            }
        }

        // The fast-commit promise, end to end. Every acknowledged fast
        // commit must (B) reach the global persistent order — the client
        // was told its update is durable — and (C) must not be preceded
        // in that order by any conflicting action its origin had not yet
        // seen when it ran the receipt-time check: such a predecessor
        // could have changed the answer the fast path already returned.
        // A fast commit's snapshot exists only for an action with a
        // footprint, and only greens with one are indexed.
        for (&f, fast) in &self.footprints {
            let Some(receipt_idx) = fast.committed else {
                continue;
            };
            let Some(pf) = fast.position else {
                return Err(TraceViolation::FastCommitNeverGreen { action: f });
            };
            let fd = &fast.class;
            // Bucket-local candidates: conflicting predecessors must
            // share a row fingerprint with `f` or carry an unbounded
            // side. The buckets are scanned in place (a green may sit in
            // several), and the violator reported is the smallest
            // action id, whichever bucket names it first.
            let buckets = fd.writes.rows().iter().chain(fd.reads.rows());
            let buckets = buckets.filter_map(|fp| self.greens_by_fp.get(fp));
            let mut revoked: Option<((u32, u64), u64)> = None;
            for &(pg, g) in buckets.chain([&self.unbounded_greens]).flatten() {
                if pg >= pf {
                    continue; // ordered after the fast commit: harmless
                }
                if g.0 == f.0 {
                    continue; // per-creator FIFO fixes same-creator order
                }
                if revoked.is_some_and(|(r, _)| r <= g) {
                    continue; // a smaller violator is already known
                }
                let Some(gd) = self.footprints.get(&g).map(|g| &g.class) else {
                    continue;
                };
                if !conflicts(fd, gd) {
                    continue;
                }
                let seen = self.seen_at(f.0, g);
                if seen.is_none_or(|s| s >= receipt_idx) {
                    revoked = Some((g, pg));
                }
            }
            if let Some((other, other_position)) = revoked {
                return Err(TraceViolation::FastCommitRevoked {
                    action: f,
                    position: pf,
                    other,
                    other_position,
                });
            }
        }

        // Safe delivery ⇒ eventual green, over the surviving membership.
        for (&node, per_node) in &self.colors {
            if !survivors.contains(&node) {
                continue;
            }
            for (&(creator, action_seq), &color) in per_node {
                if color == EventColor::Yellow {
                    return Err(TraceViolation::UnresolvedYellow {
                        node,
                        creator,
                        action_seq,
                    });
                }
            }
        }

        Ok(stats)
    }
}

/// Replays a whole event log through a fresh [`TraceOracle`] and checks
/// every clause, the end-of-run ones over `survivors` (see
/// [`TraceOracle::finish`]). A pure function of the event slice, so it
/// runs against a live world, a replayed counterexample, or a
/// deserialized event tail with identical results.
pub fn check_trace(
    events: &[RecordedEvent],
    survivors: &BTreeSet<u32>,
) -> Result<TraceStats, TraceViolation> {
    let mut oracle = TraceOracle::default();
    for rec in events {
        oracle.observe(rec)?;
    }
    oracle.finish(survivors)
}
