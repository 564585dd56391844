//! Trace oracles: the paper's service properties checked over the typed
//! [`ProtocolEvent`] log of a finished run.
//!
//! Where [`todr_harness::checkers`] compares *final states* of live
//! replicas, these oracles replay the *whole history* and catch
//! violations that final-state comparison can miss (a green line that
//! regressed mid-run and recovered, two nodes that disagreed on a green
//! position that was later garbage-collected, a recovery that restored
//! more state than was ever persisted). Each oracle maps to a property
//! of the paper — see the per-variant documentation on
//! [`TraceViolation`] and DESIGN.md's "Checking" section.
//!
//! [`check_trace`] is a pure function of the event slice, so it can run
//! against a live world, a replayed counterexample, or a deserialized
//! event tail with identical results.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use todr_db::conflict::{digests_conflict, ClassDigest};
use todr_sim::{EventColor, ProtocolEvent, ReadTier, RecordedEvent};

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
    /// A green line moved backwards (or stalled on a re-announcement)
    /// within one engine incarnation — the global persistent order is a
    /// strictly growing prefix.
    GreenLineRegression {
        /// Reporting replica.
        node: u32,
        /// The green line it had reached.
        from: u64,
        /// The non-increasing value announced later.
        to: u64,
    },
    /// A red line moved backwards within one engine incarnation.
    RedLineRegression {
        /// Reporting replica.
        node: u32,
        /// The red line it had reached.
        from: u64,
        /// The smaller value announced later.
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
            TraceViolation::RedLineRegression { node, from, to } => {
                write!(f, "red line at node {node} went {from} -> {to}")
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

/// What a passing [`check_trace`] covered, for reporting.
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

fn rank(c: EventColor) -> u8 {
    match c {
        EventColor::Red => 0,
        EventColor::Yellow => 1,
        EventColor::Green => 2,
        EventColor::White => 3,
    }
}

/// Replays the typed event log and checks every trace oracle.
///
/// `survivors` are the raw node indices still in the system at the end
/// of the run (non-crashed, non-departed); the eventual-green oracle
/// only applies to them — a departed or down replica is allowed to take
/// unresolved yellows to its grave.
///
/// Per-incarnation state (colors, green/red lines, delivery slots) is
/// reset at each [`ProtocolEvent::EngineCrashed`], because a recovering
/// engine legitimately re-announces persisted actions from red upwards.
/// The cross-replica green-position map is **never** reset: a green mark
/// is a claim about the global order, and the global order has no
/// incarnations.
pub fn check_trace(
    events: &[RecordedEvent],
    survivors: &BTreeSet<u32>,
) -> Result<TraceStats, TraceViolation> {
    let mut stats = TraceStats::default();

    // position -> (first claiming node, (creator, action_seq))
    let mut global_green: BTreeMap<u64, (u32, (u32, u64))> = BTreeMap::new();
    // node -> (creator, action_seq) of the last green mark awaiting its
    // GreenLineAdvance (emitted back-to-back by the engine).
    let mut pending_green: BTreeMap<u32, (u32, u64)> = BTreeMap::new();
    // node -> action -> highest color this incarnation
    let mut colors: BTreeMap<u32, BTreeMap<(u32, u64), EventColor>> = BTreeMap::new();
    // node -> last announced green/red line this incarnation
    let mut green_line: BTreeMap<u32, u64> = BTreeMap::new();
    let mut red_line: BTreeMap<u32, u64> = BTreeMap::new();
    // node -> largest green line ever announced (across incarnations)
    let mut best_green: BTreeMap<u32, u64> = BTreeMap::new();
    // node -> green line at the latest event affecting it (advances and
    // recoveries; NOT cleared at crash — this is the end-of-run value
    // the durability oracle compares against the global claims)
    let mut final_green: BTreeMap<u32, u64> = BTreeMap::new();
    // (conf_seq, coordinator, slot) -> (first delivering node, sender)
    let mut deliveries: BTreeMap<(u64, u32, u64), (u32, u32)> = BTreeMap::new();
    // (node, conf_seq, coordinator) -> last delivered slot
    let mut deliv_seq: BTreeMap<(u32, u64, u32), u64> = BTreeMap::new();

    // --- Fast-path (commutativity) oracle state. Inert unless the run
    // emitted `ActionFootprint`/`FastCommit` events (fast path on).
    //
    // action -> static conflict class exported at creation time.
    let mut footprints: BTreeMap<(u32, u64), ClassDigest> = BTreeMap::new();
    // node -> actions currently red/yellow there (mirrors the engine's
    // in-flight set the receipt-time conflict check scans).
    let mut inflight: BTreeMap<u32, BTreeSet<(u32, u64)>> = BTreeMap::new();
    // (node, action) -> index of the first event that ordered the
    // action at that node. Cumulative across incarnations: used to
    // decide whether an origin had seen a conflicting action before it
    // promised a fast commit.
    let mut first_seen: BTreeMap<(u32, (u32, u64)), u64> = BTreeMap::new();
    // action -> receipt-time conflict snapshot at its origin: `None` =
    // clean, `Some(other)` = `other` was in flight and conflicting
    // (`other == action` encodes an unbounded own footprint). Mirrors
    // the engine's check, so a `FastCommit` against a non-clean
    // snapshot is a violated promise.
    let mut fast_snapshot: BTreeMap<(u32, u64), Option<(u32, u64)>> = BTreeMap::new();
    // fast-committed action -> event index of its receipt-time check.
    let mut fast_committed: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    // action -> its agreed global green position (0-based).
    let mut green_position: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    // Fingerprint -> greened actions touching it (read or write side),
    // so the end-of-run revocation scan is bucket-local instead of
    // quadratic over the full green history.
    let mut greens_by_fp: BTreeMap<u64, Vec<(u32, u64)>> = BTreeMap::new();
    // Greened actions with an unbounded footprint side: they conflict
    // with (nearly) everything, so every revocation scan visits them.
    let mut unbounded_greens: Vec<(u32, u64)> = Vec::new();

    // --- Read-lease oracle state. Inert unless the run emitted
    // `ReadServed`/`UpdateAcked`/`LeaseGranted` events (read leases on).
    //
    // Actions already counted as strong acknowledgements. An action is
    // one linearization point no matter how many times its ack is
    // re-announced.
    let mut acked: BTreeSet<(u32, u64)> = BTreeSet::new();
    // write fingerprint -> strongly-acked writes touching it so far.
    let mut acked_writes_by_fp: BTreeMap<u64, u64> = BTreeMap::new();
    // One record per lease grant/renewal, in log (= virtual-time) order.
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
    let mut lease_grants: Vec<LeaseGrant> = Vec::new();
    // node -> (log index, nanos) of its transitional-config and crash
    // events — the instants the engine conservatively expires a lease.
    let mut lease_cuts: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    let mut event_idx: u64 = 0;

    for rec in events {
        stats.events += 1;
        event_idx += 1;
        match rec.event {
            ProtocolEvent::ActionOrdered {
                node,
                creator,
                action_seq,
                color,
            } => {
                let per_node = colors.entry(node).or_default();
                let entry = per_node.entry((creator, action_seq)).or_insert(color);
                if rank(color) < rank(*entry) {
                    return Err(TraceViolation::ColorRegression {
                        node,
                        creator,
                        action_seq,
                        had: *entry,
                        got: color,
                    });
                }
                *entry = color;
                if color == EventColor::Green {
                    pending_green.insert(node, (creator, action_seq));
                }
                let id = (creator, action_seq);
                first_seen.entry((node, id)).or_insert(event_idx);
                let node_inflight = inflight.entry(node).or_default();
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
                    if let Some(fd) = footprints.get(&id) {
                        if let Entry::Vacant(slot) = fast_snapshot.entry(id) {
                            let conflict = if !fd.fast_eligible() {
                                Some(id)
                            } else {
                                node_inflight
                                    .iter()
                                    .filter(|&&(c, _)| c != creator)
                                    .find_map(|other| match footprints.get(other) {
                                        Some(od) => digests_conflict(fd, od).then_some(*other),
                                        // Bodies without an exported
                                        // class (reconfigurations, lost
                                        // footprints) are conservatively
                                        // conflicting, as in the engine.
                                        None => Some(*other),
                                    })
                            };
                            slot.insert(conflict);
                        }
                    }
                }
            }
            ProtocolEvent::GreenLineAdvance { node, green } => {
                if let Some(&prev) = green_line.get(&node) {
                    if green <= prev {
                        return Err(TraceViolation::GreenLineRegression {
                            node,
                            from: prev,
                            to: green,
                        });
                    }
                }
                green_line.insert(node, green);
                final_green.insert(node, green);
                let best = best_green.entry(node).or_insert(0);
                *best = (*best).max(green);
                if let Some(id) = pending_green.remove(&node) {
                    let position = green - 1;
                    match global_green.get(&position) {
                        None => {
                            global_green.insert(position, (node, id));
                            green_position.entry(id).or_insert(position);
                            if let Some(fd) = footprints.get(&id) {
                                if fd.writes_unbounded || fd.reads_unbounded {
                                    unbounded_greens.push(id);
                                }
                                let mut fps: Vec<u64> =
                                    fd.writes.iter().chain(fd.reads.iter()).copied().collect();
                                fps.sort_unstable();
                                fps.dedup();
                                for fp in fps {
                                    greens_by_fp.entry(fp).or_default().push(id);
                                }
                            }
                        }
                        Some(&(first_node, first_id)) => {
                            if first_id != id {
                                return Err(TraceViolation::GreenOrderConflict {
                                    position,
                                    a: (first_node, first_id),
                                    b: (node, id),
                                });
                            }
                            stats.green_positions_agreed += 1;
                        }
                    }
                }
            }
            ProtocolEvent::RedLineAdvance { node, red } => {
                if let Some(&prev) = red_line.get(&node) {
                    if red < prev {
                        return Err(TraceViolation::RedLineRegression {
                            node,
                            from: prev,
                            to: red,
                        });
                    }
                }
                red_line.insert(node, red);
            }
            ProtocolEvent::EngineCrashed { node } => {
                colors.remove(&node);
                pending_green.remove(&node);
                green_line.remove(&node);
                red_line.remove(&node);
                inflight.remove(&node);
                deliv_seq.retain(|&(n, _, _), _| n != node);
                lease_cuts
                    .entry(node)
                    .or_default()
                    .push((event_idx, rec.at_nanos));
            }
            ProtocolEvent::EngineRecovered { node, green } => {
                if let Some(&best) = best_green.get(&node) {
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
                    green_line.insert(node, green);
                }
                final_green.insert(node, green);
            }
            ProtocolEvent::Delivered {
                node,
                conf_seq,
                coordinator,
                seq,
                sender,
                in_transitional: _,
            } => {
                match deliveries.get(&(conf_seq, coordinator, seq)) {
                    None => {
                        deliveries.insert((conf_seq, coordinator, seq), (node, sender));
                    }
                    Some(&(first_node, first_sender)) => {
                        if first_sender != sender {
                            return Err(TraceViolation::DeliveryMismatch {
                                conf_seq,
                                coordinator,
                                seq,
                                a: (first_node, first_sender),
                                b: (node, sender),
                            });
                        }
                        stats.deliveries_agreed += 1;
                    }
                }
                if let Some(&prev) = deliv_seq.get(&(node, conf_seq, coordinator)) {
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
                deliv_seq.insert((node, conf_seq, coordinator), seq);
            }
            ProtocolEvent::ActionFootprint(ref f) => {
                footprints.insert(
                    (f.node, f.action_seq),
                    ClassDigest {
                        writes: f.writes.clone(),
                        writes_unbounded: f.writes_unbounded,
                        reads: f.reads.clone(),
                        reads_unbounded: f.reads_unbounded,
                        commutative: f.commutative,
                        timestamped: f.timestamped,
                    },
                );
            }
            ProtocolEvent::FastCommit { node, action_seq } => {
                let id = (node, action_seq);
                match fast_snapshot.get(&id) {
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
                    Some(&Some(other)) => {
                        return Err(TraceViolation::FastCommitConflict { action: id, other });
                    }
                    Some(&None) => {
                        stats.fast_commits_checked += 1;
                        let receipt_idx = first_seen.get(&(node, id)).copied().unwrap_or(event_idx);
                        fast_committed.entry(id).or_insert(receipt_idx);
                    }
                }
            }
            ProtocolEvent::TransitionalConfig { node, .. } => {
                lease_cuts
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
                if acked.insert(id) {
                    if let Some(fd) = footprints.get(&id) {
                        // Unbounded write sets cannot be attributed to
                        // a row; skipping them keeps the staleness
                        // check a sound necessary condition.
                        if !fd.writes_unbounded {
                            let mut fps = fd.writes.clone();
                            fps.sort_unstable();
                            fps.dedup();
                            for fp in fps {
                                *acked_writes_by_fp.entry(fp).or_insert(0) += 1;
                            }
                        }
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
                stats.lease_reads_checked += 1;
                let acked_writes = acked_writes_by_fp.get(&key_fp).copied().unwrap_or(0);
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
                lease_grants.push(LeaseGrant {
                    idx: event_idx,
                    start: rec.at_nanos,
                    expires: expires_nanos,
                    node,
                    conf: (conf_seq, coordinator),
                });
            }
            _ => {}
        }
    }

    // Lease safety: grant intervals sealed to *different* configurations
    // must be pairwise disjoint (co-members of one configuration hold
    // leases simultaneously by design). Each interval is clipped at the
    // holder's next transitional configuration or crash, mirroring the
    // engine's conservative expiry; what remains is exactly the window
    // in which the holder would answer linearizable reads locally, so
    // any cross-configuration overlap means a stale holder could race a
    // new primary's writes.
    let mut live_ends: BTreeMap<(u64, u32), (u64, u32)> = BTreeMap::new();
    for grant in &lease_grants {
        stats.lease_grants_checked += 1;
        let cut = lease_cuts
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
    // final green line — a green action is never lost, no matter what
    // crashes, torn writes or (single) stale sectors the run injected.
    if let Some((&p_max, _)) = global_green.iter().next_back() {
        let needed = p_max + 1;
        for &node in survivors {
            let have = final_green.get(&node).copied().unwrap_or(0);
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
    // was told its update is durable — and (C) must not be preceded in
    // that order by any conflicting action its origin had not yet seen
    // when it ran the receipt-time check: such a predecessor could have
    // changed the answer the fast path already returned.
    for (&f, &receipt_idx) in &fast_committed {
        let Some(&pf) = green_position.get(&f) else {
            return Err(TraceViolation::FastCommitNeverGreen { action: f });
        };
        let fd = footprints
            .get(&f)
            .expect("fast-committed implies a recorded footprint");
        // Bucket-local candidate set: conflicting predecessors must
        // share a row fingerprint with `f` or carry an unbounded side.
        let mut candidates: BTreeSet<(u32, u64)> = BTreeSet::new();
        for fp in fd.writes.iter().chain(fd.reads.iter()) {
            if let Some(bucket) = greens_by_fp.get(fp) {
                candidates.extend(bucket.iter().copied());
            }
        }
        candidates.extend(unbounded_greens.iter().copied());
        for g in candidates {
            if g.0 == f.0 {
                continue; // per-creator FIFO fixes same-creator order
            }
            let Some(&pg) = green_position.get(&g) else {
                continue;
            };
            if pg >= pf {
                continue; // ordered after the fast commit: harmless
            }
            let gd = footprints
                .get(&g)
                .expect("indexed greens all have footprints");
            if !digests_conflict(fd, gd) {
                continue;
            }
            let seen = first_seen.get(&(f.0, g)).copied();
            if seen.is_none_or(|s| s >= receipt_idx) {
                return Err(TraceViolation::FastCommitRevoked {
                    action: f,
                    position: pf,
                    other: g,
                    other_position: pg,
                });
            }
        }
    }

    // Safe delivery ⇒ eventual green, over the surviving membership.
    for (&node, per_node) in &colors {
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

#[cfg(test)]
mod tests {
    use super::*;
    use todr_sim::{Footprint, ProtocolEvent as E};

    fn rec(event: E) -> RecordedEvent {
        RecordedEvent {
            at_nanos: 0,
            actor: 0,
            group: 0,
            event,
        }
    }

    fn green_mark(node: u32, creator: u32, action_seq: u64, green: u64) -> Vec<RecordedEvent> {
        vec![
            rec(E::ActionOrdered {
                node,
                creator,
                action_seq,
                color: EventColor::Green,
            }),
            rec(E::GreenLineAdvance { node, green }),
        ]
    }

    #[test]
    fn agreeing_histories_pass() {
        let mut events = Vec::new();
        for node in 0..3 {
            events.extend(green_mark(node, 0, 1, 1));
            events.extend(green_mark(node, 1, 1, 2));
        }
        let survivors: BTreeSet<u32> = (0..3).collect();
        let stats = check_trace(&events, &survivors).unwrap();
        assert_eq!(stats.green_positions_agreed, 4);
    }

    #[test]
    fn conflicting_green_positions_are_caught() {
        let mut events = Vec::new();
        events.extend(green_mark(0, 0, 1, 1));
        events.extend(green_mark(1, 2, 5, 1)); // different action at position 0
        let err = check_trace(&events, &BTreeSet::new()).unwrap_err();
        assert!(matches!(
            err,
            TraceViolation::GreenOrderConflict { position: 0, .. }
        ));
    }

    #[test]
    fn green_line_must_strictly_increase_within_incarnation() {
        let events = vec![
            rec(E::GreenLineAdvance { node: 0, green: 5 }),
            rec(E::GreenLineAdvance { node: 0, green: 5 }),
        ];
        let err = check_trace(&events, &BTreeSet::new()).unwrap_err();
        assert!(matches!(err, TraceViolation::GreenLineRegression { .. }));
    }

    #[test]
    fn crash_resets_incarnation_state() {
        // Green line drops across a crash/recovery: legal.
        let events = vec![
            rec(E::GreenLineAdvance { node: 0, green: 5 }),
            rec(E::EngineCrashed { node: 0 }),
            rec(E::EngineRecovered { node: 0, green: 3 }),
            rec(E::GreenLineAdvance { node: 0, green: 4 }),
        ];
        check_trace(&events, &BTreeSet::new()).unwrap();
    }

    #[test]
    fn recovery_cannot_restore_more_than_was_announced() {
        let events = vec![
            rec(E::GreenLineAdvance { node: 0, green: 5 }),
            rec(E::EngineCrashed { node: 0 }),
            rec(E::EngineRecovered { node: 0, green: 9 }),
        ];
        let err = check_trace(&events, &BTreeSet::new()).unwrap_err();
        assert!(matches!(
            err,
            TraceViolation::RecoveryOvershoot {
                restored: 9,
                last_seen: 5,
                ..
            }
        ));
    }

    #[test]
    fn color_regression_is_caught_and_reset_by_crash() {
        let regress = vec![
            rec(E::ActionOrdered {
                node: 0,
                creator: 1,
                action_seq: 1,
                color: EventColor::Green,
            }),
            rec(E::ActionOrdered {
                node: 0,
                creator: 1,
                action_seq: 1,
                color: EventColor::Red,
            }),
        ];
        assert!(matches!(
            check_trace(&regress, &BTreeSet::new()).unwrap_err(),
            TraceViolation::ColorRegression { .. }
        ));

        // The same re-announcement after a crash is a legal replay.
        let with_crash = vec![
            regress[0].clone(),
            rec(E::EngineCrashed { node: 0 }),
            regress[1].clone(),
        ];
        check_trace(&with_crash, &BTreeSet::new()).unwrap();
    }

    #[test]
    fn unresolved_yellow_flagged_only_for_survivors() {
        let events = vec![rec(E::ActionOrdered {
            node: 2,
            creator: 0,
            action_seq: 7,
            color: EventColor::Yellow,
        })];
        check_trace(&events, &BTreeSet::new()).unwrap();
        let survivors: BTreeSet<u32> = [2].into_iter().collect();
        assert!(matches!(
            check_trace(&events, &survivors).unwrap_err(),
            TraceViolation::UnresolvedYellow {
                node: 2,
                creator: 0,
                action_seq: 7
            }
        ));
    }

    #[test]
    fn lost_green_action_is_caught_at_survivors() {
        // Node 0 greens two positions, crashes, and recovers from a
        // stable store that only knew one of them — and never catches
        // back up. The greened position 1 has been lost at a survivor.
        let mut events = Vec::new();
        events.extend(green_mark(0, 0, 1, 1));
        events.extend(green_mark(0, 0, 2, 2));
        events.push(rec(E::EngineCrashed { node: 0 }));
        events.push(rec(E::EngineRecovered { node: 0, green: 1 }));

        // A non-survivor ending short is legal (it may still be down).
        check_trace(&events, &BTreeSet::new()).unwrap();

        let survivors: BTreeSet<u32> = [0].into_iter().collect();
        assert!(matches!(
            check_trace(&events, &survivors).unwrap_err(),
            TraceViolation::GreenActionLost {
                node: 0,
                final_green: 1,
                needed: 2,
            }
        ));

        // Catching back up to the claimed prefix clears the violation.
        events.extend(green_mark(0, 0, 2, 2));
        check_trace(&events, &survivors).unwrap();
    }

    #[test]
    fn survivor_that_never_greened_loses_every_claimed_position() {
        let mut events = Vec::new();
        events.extend(green_mark(0, 0, 1, 1));
        let survivors: BTreeSet<u32> = [3].into_iter().collect();
        assert!(matches!(
            check_trace(&events, &survivors).unwrap_err(),
            TraceViolation::GreenActionLost {
                node: 3,
                final_green: 0,
                needed: 1,
            }
        ));
    }

    #[test]
    fn delivery_sender_mismatch_is_caught() {
        let d = |node, sender| {
            rec(E::Delivered {
                node,
                conf_seq: 3,
                coordinator: 0,
                seq: 10,
                sender,
                in_transitional: false,
            })
        };
        check_trace(&[d(0, 4), d(1, 4)], &BTreeSet::new()).unwrap();
        assert!(matches!(
            check_trace(&[d(0, 4), d(1, 2)], &BTreeSet::new()).unwrap_err(),
            TraceViolation::DeliveryMismatch { seq: 10, .. }
        ));
    }

    #[test]
    fn delivery_slots_strictly_increase_per_node_and_conf() {
        let d = |seq| {
            rec(E::Delivered {
                node: 0,
                conf_seq: 3,
                coordinator: 0,
                seq,
                sender: 1,
                in_transitional: false,
            })
        };
        check_trace(&[d(1), d(2), d(5)], &BTreeSet::new()).unwrap();
        assert!(matches!(
            check_trace(&[d(2), d(2)], &BTreeSet::new()).unwrap_err(),
            TraceViolation::DeliverySeqRegression { .. }
        ));
    }

    // --- fast-path oracle clauses ---

    /// Footprint event for a single-row write action.
    fn footprint(node: u32, action_seq: u64, row: u64) -> RecordedEvent {
        rec(E::ActionFootprint(Box::new(Footprint {
            node,
            action_seq,
            writes: vec![row],
            writes_unbounded: false,
            reads: vec![],
            reads_unbounded: false,
            commutative: false,
            timestamped: false,
        })))
    }

    fn red(node: u32, creator: u32, action_seq: u64) -> RecordedEvent {
        rec(E::ActionOrdered {
            node,
            creator,
            action_seq,
            color: EventColor::Red,
        })
    }

    fn fast_commit(node: u32, action_seq: u64) -> RecordedEvent {
        rec(E::FastCommit { node, action_seq })
    }

    #[test]
    fn clean_fast_commit_that_greens_passes() {
        let mut events = vec![footprint(0, 1, 7), red(0, 0, 1), fast_commit(0, 1)];
        events.extend(green_mark(0, 0, 1, 1));
        let stats = check_trace(&events, &BTreeSet::new()).unwrap();
        assert_eq!(stats.fast_commits_checked, 1);
    }

    #[test]
    fn fast_commit_with_conflicting_inflight_action_is_flagged() {
        // Node 1's write to row 7 is red (in flight) at node 0 when
        // node 0's own action on the same row arrives back.
        let events = vec![
            footprint(0, 1, 7),
            footprint(1, 1, 7),
            red(0, 1, 1),
            red(0, 0, 1),
            fast_commit(0, 1),
        ];
        assert!(matches!(
            check_trace(&events, &BTreeSet::new()).unwrap_err(),
            TraceViolation::FastCommitConflict {
                action: (0, 1),
                other: (1, 1),
            }
        ));
    }

    #[test]
    fn disjoint_inflight_actions_do_not_block_the_fast_commit() {
        let mut events = vec![
            footprint(0, 1, 7),
            footprint(1, 1, 9), // different row: commutes
            red(0, 1, 1),
            red(0, 0, 1),
            fast_commit(0, 1),
        ];
        events.extend(green_mark(0, 1, 1, 1));
        events.extend(green_mark(0, 0, 1, 2));
        check_trace(&events, &BTreeSet::new()).unwrap();
    }

    #[test]
    fn inflight_body_without_a_footprint_is_conservatively_conflicting() {
        let events = vec![
            footprint(0, 1, 7),
            red(0, 1, 5), // no ActionFootprint for (1, 5)
            red(0, 0, 1),
            fast_commit(0, 1),
        ];
        assert!(matches!(
            check_trace(&events, &BTreeSet::new()).unwrap_err(),
            TraceViolation::FastCommitConflict {
                action: (0, 1),
                other: (1, 5),
            }
        ));
    }

    #[test]
    fn fast_commit_with_unbounded_footprint_is_flagged() {
        let events = vec![
            rec(E::ActionFootprint(Box::new(Footprint {
                node: 0,
                action_seq: 1,
                writes: vec![],
                writes_unbounded: true,
                reads: vec![],
                reads_unbounded: false,
                commutative: false,
                timestamped: false,
            }))),
            red(0, 0, 1),
            fast_commit(0, 1),
        ];
        assert!(matches!(
            check_trace(&events, &BTreeSet::new()).unwrap_err(),
            TraceViolation::FastCommitConflict {
                action: (0, 1),
                other: (0, 1),
            }
        ));
    }

    #[test]
    fn fast_commit_without_any_receipt_snapshot_is_flagged() {
        // A FastCommit with no prior own-red ordering (so no snapshot)
        // means the engine promised before the receipt check ran.
        let events = vec![footprint(0, 1, 7), fast_commit(0, 1)];
        assert!(matches!(
            check_trace(&events, &BTreeSet::new()).unwrap_err(),
            TraceViolation::FastCommitConflict {
                action: (0, 1),
                other: (0, 1),
            }
        ));
    }

    #[test]
    fn fast_commit_that_never_greens_is_flagged() {
        let events = vec![footprint(0, 1, 7), red(0, 0, 1), fast_commit(0, 1)];
        assert!(matches!(
            check_trace(&events, &BTreeSet::new()).unwrap_err(),
            TraceViolation::FastCommitNeverGreen { action: (0, 1) }
        ));
    }

    #[test]
    fn conflicting_unseen_predecessor_in_green_order_revokes_the_commit() {
        // Node 0 fast-commits its action on row 7, but a conflicting
        // action from node 1 — which node 0 had NOT seen at receipt
        // time — ends up *before* it in the global green order.
        let mut events = vec![
            footprint(0, 1, 7),
            footprint(1, 1, 7),
            red(0, 0, 1),
            fast_commit(0, 1),
        ];
        events.extend(green_mark(1, 1, 1, 1)); // (1,1) greens at position 0
        events.extend(green_mark(1, 0, 1, 2)); // (0,1) greens at position 1
        assert!(matches!(
            check_trace(&events, &BTreeSet::new()).unwrap_err(),
            TraceViolation::FastCommitRevoked {
                action: (0, 1),
                position: 1,
                other: (1, 1),
                other_position: 0,
            }
        ));
    }

    #[test]
    fn conflicting_predecessor_seen_before_receipt_is_fine_once_green() {
        // Same shape, but node 0 greened the conflicting (1,1) BEFORE
        // its own receipt check: the dirty view already included it,
        // so the promise holds.
        let mut events = vec![footprint(0, 1, 7), footprint(1, 1, 7)];
        events.extend(green_mark(0, 1, 1, 1)); // (1,1) green at origin first
        events.push(red(0, 0, 1));
        events.push(fast_commit(0, 1));
        events.extend(green_mark(0, 0, 1, 2));
        check_trace(&events, &BTreeSet::new()).unwrap();
    }

    // --- read-lease oracle clauses ---

    fn rec_at(at_nanos: u64, event: E) -> RecordedEvent {
        RecordedEvent {
            at_nanos,
            actor: 0,
            group: 0,
            event,
        }
    }

    fn update_acked(creator: u32, action_seq: u64) -> RecordedEvent {
        rec(E::UpdateAcked {
            node: creator,
            creator,
            action_seq,
        })
    }

    fn read_served(node: u32, key_fp: u64, tier: ReadTier, version: u64) -> RecordedEvent {
        rec(E::ReadServed {
            node,
            key_fp,
            tier,
            version,
        })
    }

    fn lease(at: u64, node: u32, conf: (u64, u32), expires: u64) -> RecordedEvent {
        rec_at(
            at,
            E::LeaseGranted {
                node,
                conf_seq: conf.0,
                coordinator: conf.1,
                expires_nanos: expires,
                renewal: false,
            },
        )
    }

    #[test]
    fn fresh_lease_read_after_acked_write_passes() {
        let events = vec![
            footprint(0, 1, 7),
            update_acked(0, 1),
            read_served(1, 7, ReadTier::LeaseLinearizable, 1),
        ];
        let stats = check_trace(&events, &BTreeSet::new()).unwrap();
        assert_eq!(stats.lease_reads_checked, 1);
    }

    #[test]
    fn stale_lease_read_is_caught() {
        let events = vec![
            footprint(0, 1, 7),
            update_acked(0, 1),
            read_served(1, 7, ReadTier::LeaseLinearizable, 0),
        ];
        assert!(matches!(
            check_trace(&events, &BTreeSet::new()).unwrap_err(),
            TraceViolation::StaleLinearizableRead {
                node: 1,
                key_fp: 7,
                version: 0,
                acked_writes: 1,
            }
        ));
    }

    #[test]
    fn non_lease_tiers_are_exempt_from_the_staleness_clause() {
        // Ordered linearizable reads are linearized by the green order
        // itself; snapshot and overlay tiers promise no freshness.
        let mut events = vec![footprint(0, 1, 7), update_acked(0, 1)];
        for tier in [
            ReadTier::OrderedLinearizable,
            ReadTier::GreenSnapshot,
            ReadTier::RedOverlay,
        ] {
            events.push(read_served(1, 7, tier, 0));
        }
        let stats = check_trace(&events, &BTreeSet::new()).unwrap();
        assert_eq!(stats.lease_reads_checked, 0);
    }

    #[test]
    fn re_announced_acks_count_as_one_linearization_point() {
        let events = vec![
            footprint(0, 1, 7),
            update_acked(0, 1),
            update_acked(0, 1),
            read_served(1, 7, ReadTier::LeaseLinearizable, 1),
        ];
        check_trace(&events, &BTreeSet::new()).unwrap();
    }

    #[test]
    fn acks_only_count_after_they_happened() {
        // The read precedes the second ack: version 1 is fresh enough.
        let events = vec![
            footprint(0, 1, 7),
            footprint(0, 2, 7),
            update_acked(0, 1),
            read_served(1, 7, ReadTier::LeaseLinearizable, 1),
            update_acked(0, 2),
        ];
        check_trace(&events, &BTreeSet::new()).unwrap();
    }

    #[test]
    fn unattributable_acks_are_skipped() {
        // No footprint for (0, 5), and (0, 6) writes unbounded: neither
        // can be pinned to a row, so neither raises the freshness floor.
        let events = vec![
            rec(E::ActionFootprint(Box::new(Footprint {
                node: 0,
                action_seq: 6,
                writes: vec![],
                writes_unbounded: true,
                reads: vec![],
                reads_unbounded: false,
                commutative: false,
                timestamped: false,
            }))),
            update_acked(0, 5),
            update_acked(0, 6),
            read_served(1, 7, ReadTier::LeaseLinearizable, 0),
        ];
        check_trace(&events, &BTreeSet::new()).unwrap();
    }

    #[test]
    fn co_members_of_one_configuration_may_hold_leases_together() {
        let events = vec![
            lease(0, 0, (5, 0), 100),
            lease(10, 1, (5, 0), 110),
            lease(20, 2, (5, 0), 120),
        ];
        let stats = check_trace(&events, &BTreeSet::new()).unwrap();
        assert_eq!(stats.lease_grants_checked, 3);
    }

    #[test]
    fn overlapping_leases_from_different_configurations_are_caught() {
        let events = vec![lease(0, 0, (5, 0), 100), lease(50, 1, (6, 1), 150)];
        assert!(matches!(
            check_trace(&events, &BTreeSet::new()).unwrap_err(),
            TraceViolation::LeaseOverlap {
                a: (0, (5, 0)),
                b: (1, (6, 1)),
            }
        ));
    }

    #[test]
    fn expired_leases_do_not_overlap_a_later_configuration() {
        let events = vec![lease(0, 0, (5, 0), 40), lease(50, 1, (6, 1), 150)];
        check_trace(&events, &BTreeSet::new()).unwrap();
    }

    #[test]
    fn transitional_config_clips_the_stale_holders_lease() {
        // Node 0's lease would run to t=100, but it saw a transitional
        // configuration at t=40 and expired it conservatively — so the
        // new configuration's grant at t=50 does not overlap.
        let events = vec![
            lease(0, 0, (5, 0), 100),
            rec_at(
                40,
                E::TransitionalConfig {
                    node: 0,
                    conf_seq: 5,
                },
            ),
            lease(50, 1, (6, 1), 150),
        ];
        check_trace(&events, &BTreeSet::new()).unwrap();
    }

    #[test]
    fn crash_clips_the_stale_holders_lease() {
        let events = vec![
            lease(0, 0, (5, 0), 100),
            rec_at(40, E::EngineCrashed { node: 0 }),
            lease(50, 1, (6, 1), 150),
        ];
        check_trace(&events, &BTreeSet::new()).unwrap();
    }

    #[test]
    fn only_the_holders_own_view_change_clips_its_lease() {
        // Node 2's transitional config says nothing about node 0's
        // lease: the overlap is still a violation.
        let events = vec![
            lease(0, 0, (5, 0), 100),
            rec_at(
                40,
                E::TransitionalConfig {
                    node: 2,
                    conf_seq: 5,
                },
            ),
            lease(50, 1, (6, 1), 150),
        ];
        assert!(matches!(
            check_trace(&events, &BTreeSet::new()).unwrap_err(),
            TraceViolation::LeaseOverlap { .. }
        ));
    }

    #[test]
    fn commutative_predecessor_does_not_revoke() {
        let cfp = |node, action_seq| {
            rec(E::ActionFootprint(Box::new(Footprint {
                node,
                action_seq,
                writes: vec![7],
                writes_unbounded: false,
                reads: vec![],
                reads_unbounded: false,
                commutative: true,
                timestamped: false,
            })))
        };
        // Two commutative increments of the same row from different
        // creators: order-insensitive, so no conflict either at receipt
        // time or in the green order.
        let mut events = vec![cfp(0, 1), cfp(1, 1), red(0, 1, 1), red(0, 0, 1)];
        events.push(fast_commit(0, 1));
        events.extend(green_mark(1, 1, 1, 1));
        events.extend(green_mark(1, 0, 1, 2));
        check_trace(&events, &BTreeSet::new()).unwrap();
    }
}
