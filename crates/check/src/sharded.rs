//! The cross-shard serializability oracle.
//!
//! Per group, a sharded deployment needs nothing new — Theorems 1 and 2
//! hold independently in every group, so the cluster keeps one trace
//! oracle ([`todr_harness::oracle::TraceOracle`]) per group and streams
//! it the group's own slice of the typed event log (filtered by the
//! [`RecordedEvent::group`] metric scope: node ids restart at 0 in
//! every group, so the merged log would alias replicas across groups).
//!
//! What *is* new is [`check_shard_trace`]: a pure function over the
//! router's `CrossShard*` protocol events that checks, for the whole
//! history,
//!
//! * **atomicity** — a transaction only ever touches the groups it
//!   declared, and is reported applied exactly when every participant
//!   committed it;
//! * **prepare/commit phasing** — in each group the commit lands
//!   strictly after the prepare marker in that group's green order;
//! * **deterministic merge** — the fixed cross-group timestamp is the
//!   max of the prepared green positions, as specified;
//! * **commit-order consistency** — any two transactions sharing two
//!   groups commit in the same relative order in both. This is the
//!   pairwise core of cross-shard serializability, and precisely the
//!   property the router's per-shard FIFO commit barrier exists to
//!   enforce — the `SkipCommitBarrier` chaos mutation breaks exactly
//!   this, and the mutation self-test proves this oracle catches it.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use todr_sim::{ProtocolEvent, RecordedEvent};

// ------------------------------------------------------------
// The cross-shard trace oracle
// ------------------------------------------------------------

/// A violation of the cross-shard transaction protocol, found by
/// replaying the router's `CrossShard*` event history.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardTraceViolation {
    /// A prepare/merge/commit/apply event named a transaction that was
    /// never started.
    EventWithoutStart {
        /// The phantom transaction id.
        txn: u64,
    },
    /// A transaction prepared or committed in a group outside its
    /// declared participant set, or was reported applied with a
    /// participant's commit missing.
    AtomicityViolation {
        /// The offending transaction.
        txn: u64,
        /// The group where the event is missing or misplaced.
        group: u32,
    },
    /// A commit was ordered at or before its own prepare marker in the
    /// same group's green order.
    PrepareCommitInversion {
        /// The offending transaction.
        txn: u64,
        /// The group whose green order shows the inversion.
        group: u32,
        /// The prepare marker's green position.
        prepared: u64,
        /// The commit's green position.
        committed: u64,
    },
    /// The merged timestamp differs from the deterministic max of the
    /// prepared green positions.
    MergeMismatch {
        /// The offending transaction.
        txn: u64,
        /// The timestamp the router announced.
        ts: u64,
        /// The max of the prepared positions it should have announced.
        max_prepared: u64,
    },
    /// Two transactions sharing two groups committed in opposite
    /// relative orders — the pairwise serializability violation the
    /// commit barrier prevents.
    CommitOrderConflict {
        /// Transaction committed first in `group_a` but second in
        /// `group_b`.
        txn_a: u64,
        /// Transaction committed second in `group_a` but first in
        /// `group_b`.
        txn_b: u64,
        /// One shared group.
        group_a: u32,
        /// The other shared group, disagreeing on the order.
        group_b: u32,
    },
    /// A transaction started but never applied, in a history that
    /// claims the router drained.
    UnfinishedTxn {
        /// The stuck transaction.
        txn: u64,
    },
}

impl std::fmt::Display for ShardTraceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardTraceViolation::EventWithoutStart { txn } => {
                write!(f, "cross-shard event for txn {txn} that was never started")
            }
            ShardTraceViolation::AtomicityViolation { txn, group } => write!(
                f,
                "txn {txn} violated atomicity in group {group} (event outside the \
                 participant set, or applied with that participant's commit missing)"
            ),
            ShardTraceViolation::PrepareCommitInversion {
                txn,
                group,
                prepared,
                committed,
            } => write!(
                f,
                "txn {txn} committed at green position {committed} in group {group}, \
                 not after its prepare marker at {prepared}"
            ),
            ShardTraceViolation::MergeMismatch {
                txn,
                ts,
                max_prepared,
            } => write!(
                f,
                "txn {txn} merged to timestamp {ts}, but the max prepared green \
                 position is {max_prepared}"
            ),
            ShardTraceViolation::CommitOrderConflict {
                txn_a,
                txn_b,
                group_a,
                group_b,
            } => write!(
                f,
                "txns {txn_a} and {txn_b} committed in opposite orders: \
                 {txn_a} first in group {group_a}, {txn_b} first in group {group_b}"
            ),
            ShardTraceViolation::UnfinishedTxn { txn } => {
                write!(
                    f,
                    "txn {txn} started but never applied in a drained history"
                )
            }
        }
    }
}

/// What a clean cross-shard history established.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardTraceStats {
    /// `CrossShard*` events replayed.
    pub events: u64,
    /// Transactions started.
    pub txns_started: u64,
    /// Transactions fully applied.
    pub txns_applied: u64,
    /// Adjacent commit-order comparisons performed across all group
    /// pairs (strict monotonicity of adjacent pairs implies it for all
    /// pairs, transitively).
    pub commit_pairs_checked: u64,
}

#[derive(Default)]
struct TxnTrace {
    participants: u64,
    prepared: BTreeMap<u32, u64>,
    ts: Option<u64>,
    /// group → (green position, submission attempt).
    committed: BTreeMap<u32, (u64, u16)>,
    applied: bool,
}

impl TxnTrace {
    fn participates(&self, group: u32) -> bool {
        group < 64 && self.participants & (1u64 << group) != 0
    }
}

/// Replays the `CrossShard*` slice of a finished run's event log and
/// checks atomicity, prepare/commit phasing, deterministic merge and
/// pairwise commit-order consistency over the whole history (see the
/// module docs). Pure: no world access, deterministic for a fixed log.
///
/// With `require_applied`, every started transaction must also have
/// been applied — pass `true` after a successful router drain, `false`
/// for histories cut mid-flight.
///
/// # Errors
///
/// Returns the first [`ShardTraceViolation`] encountered.
pub fn check_shard_trace(
    events: &[RecordedEvent],
    require_applied: bool,
) -> Result<ShardTraceStats, ShardTraceViolation> {
    let mut txns: BTreeMap<u64, TxnTrace> = BTreeMap::new();
    let mut stats = ShardTraceStats {
        events: 0,
        txns_started: 0,
        txns_applied: 0,
        commit_pairs_checked: 0,
    };
    for rec in events {
        match rec.event {
            ProtocolEvent::CrossShardStart { txn, participants } => {
                stats.events += 1;
                stats.txns_started += 1;
                txns.entry(txn).or_default().participants = participants;
            }
            ProtocolEvent::CrossShardPrepared {
                txn,
                group,
                green_seq,
            } => {
                stats.events += 1;
                let t = txns
                    .get_mut(&txn)
                    .ok_or(ShardTraceViolation::EventWithoutStart { txn })?;
                if !t.participates(group) {
                    return Err(ShardTraceViolation::AtomicityViolation { txn, group });
                }
                t.prepared.insert(group, green_seq);
            }
            ProtocolEvent::CrossShardMerged { txn, ts } => {
                stats.events += 1;
                let t = txns
                    .get_mut(&txn)
                    .ok_or(ShardTraceViolation::EventWithoutStart { txn })?;
                let max_prepared = t.prepared.values().copied().max().unwrap_or(0);
                if ts != max_prepared {
                    return Err(ShardTraceViolation::MergeMismatch {
                        txn,
                        ts,
                        max_prepared,
                    });
                }
                t.ts = Some(ts);
            }
            ProtocolEvent::CrossShardCommitted {
                txn,
                group,
                green_seq,
                attempt,
            } => {
                stats.events += 1;
                let t = txns
                    .get_mut(&txn)
                    .ok_or(ShardTraceViolation::EventWithoutStart { txn })?;
                if !t.participates(group) {
                    return Err(ShardTraceViolation::AtomicityViolation { txn, group });
                }
                if let Some(&prepared) = t.prepared.get(&group) {
                    if green_seq <= prepared {
                        return Err(ShardTraceViolation::PrepareCommitInversion {
                            txn,
                            group,
                            prepared,
                            committed: green_seq,
                        });
                    }
                }
                t.committed.insert(group, (green_seq, attempt));
            }
            ProtocolEvent::CrossShardApplied { txn } => {
                stats.events += 1;
                let t = txns
                    .get_mut(&txn)
                    .ok_or(ShardTraceViolation::EventWithoutStart { txn })?;
                for g in 0..64u32 {
                    if t.participates(g) && !t.committed.contains_key(&g) {
                        return Err(ShardTraceViolation::AtomicityViolation { txn, group: g });
                    }
                }
                t.applied = true;
                stats.txns_applied += 1;
            }
            _ => {}
        }
    }
    if require_applied {
        for (&txn, t) in &txns {
            if !t.applied {
                return Err(ShardTraceViolation::UnfinishedTxn { txn });
            }
        }
    }

    // Pairwise commit-order consistency: for every pair of groups, the
    // transactions committed in both must commit in the same relative
    // order in each. A retried commit can be recorded at a later
    // position than the one where its writes actually applied, so only
    // first-attempt positions are trusted for ordering (retries are
    // rare — a zero-retry history checks every pair).
    let mut groups_seen: BTreeSet<u32> = BTreeSet::new();
    for t in txns.values() {
        groups_seen.extend(t.committed.keys().copied());
    }
    let groups: Vec<u32> = groups_seen.into_iter().collect();
    for (i, &ga) in groups.iter().enumerate() {
        for &gb in &groups[i + 1..] {
            let mut shared: Vec<(u64, u64, u64)> = txns
                .iter()
                .filter_map(|(&txn, t)| {
                    let &(pa, aa) = t.committed.get(&ga)?;
                    let &(pb, ab) = t.committed.get(&gb)?;
                    (aa == 1 && ab == 1).then_some((pa, pb, txn))
                })
                .collect();
            shared.sort_unstable();
            for w in shared.windows(2) {
                let (_, pb_prev, txn_prev) = w[0];
                let (_, pb_next, txn_next) = w[1];
                stats.commit_pairs_checked += 1;
                if pb_next <= pb_prev {
                    return Err(ShardTraceViolation::CommitOrderConflict {
                        txn_a: txn_prev,
                        txn_b: txn_next,
                        group_a: ga,
                        group_b: gb,
                    });
                }
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(event: ProtocolEvent) -> RecordedEvent {
        RecordedEvent {
            at_nanos: 0,
            actor: 0,
            group: 0,
            event,
        }
    }

    fn start(txn: u64, participants: u64) -> RecordedEvent {
        rec(ProtocolEvent::CrossShardStart { txn, participants })
    }

    fn prepared(txn: u64, group: u32, green_seq: u64) -> RecordedEvent {
        rec(ProtocolEvent::CrossShardPrepared {
            txn,
            group,
            green_seq,
        })
    }

    fn merged(txn: u64, ts: u64) -> RecordedEvent {
        rec(ProtocolEvent::CrossShardMerged { txn, ts })
    }

    fn committed(txn: u64, group: u32, green_seq: u64) -> RecordedEvent {
        rec(ProtocolEvent::CrossShardCommitted {
            txn,
            group,
            green_seq,
            attempt: 1,
        })
    }

    fn applied(txn: u64) -> RecordedEvent {
        rec(ProtocolEvent::CrossShardApplied { txn })
    }

    /// A full, clean two-transaction history over groups {0, 1}.
    fn clean_history() -> Vec<RecordedEvent> {
        vec![
            start(1, 0b11),
            prepared(1, 0, 5),
            prepared(1, 1, 3),
            merged(1, 5),
            committed(1, 0, 6),
            committed(1, 1, 4),
            applied(1),
            start(2, 0b11),
            prepared(2, 0, 7),
            prepared(2, 1, 5),
            merged(2, 7),
            committed(2, 0, 8),
            committed(2, 1, 6),
            applied(2),
        ]
    }

    #[test]
    fn clean_history_passes() {
        let stats = check_shard_trace(&clean_history(), true).expect("clean history");
        assert_eq!(stats.txns_started, 2);
        assert_eq!(stats.txns_applied, 2);
        assert_eq!(stats.commit_pairs_checked, 1);
    }

    #[test]
    fn opposite_commit_orders_are_a_conflict() {
        // txn 1 before txn 2 in group 0, but after it in group 1.
        let history = vec![
            start(1, 0b11),
            prepared(1, 0, 5),
            prepared(1, 1, 9),
            merged(1, 9),
            committed(1, 0, 6),
            committed(1, 1, 11),
            applied(1),
            start(2, 0b11),
            prepared(2, 0, 7),
            prepared(2, 1, 3),
            merged(2, 7),
            committed(2, 0, 8),
            committed(2, 1, 10),
            applied(2),
        ];
        let err = check_shard_trace(&history, true).expect_err("conflicting orders");
        assert_eq!(
            err,
            ShardTraceViolation::CommitOrderConflict {
                txn_a: 1,
                txn_b: 2,
                group_a: 0,
                group_b: 1,
            }
        );
    }

    #[test]
    fn retried_commit_positions_are_not_trusted_for_ordering() {
        // The same opposite orders the conflict test flags, but txn 2's
        // group-1 commit came from a retry — its recorded position is
        // not where the writes applied, so the pair is (correctly) not
        // compared.
        let history = vec![
            start(1, 0b11),
            prepared(1, 0, 5),
            prepared(1, 1, 9),
            merged(1, 9),
            committed(1, 0, 6),
            committed(1, 1, 11),
            applied(1),
            start(2, 0b11),
            prepared(2, 0, 7),
            prepared(2, 1, 3),
            merged(2, 7),
            committed(2, 0, 8),
            rec(ProtocolEvent::CrossShardCommitted {
                txn: 2,
                group: 1,
                green_seq: 10,
                attempt: 2,
            }),
            applied(2),
        ];
        let stats = check_shard_trace(&history, true).expect("retry positions ignored");
        assert_eq!(stats.commit_pairs_checked, 0);
    }

    #[test]
    fn commit_outside_participants_is_atomicity_violation() {
        let history = vec![
            start(1, 0b01),
            prepared(1, 0, 5),
            merged(1, 5),
            committed(1, 1, 6),
        ];
        let err = check_shard_trace(&history, false).expect_err("non-participant commit");
        assert_eq!(
            err,
            ShardTraceViolation::AtomicityViolation { txn: 1, group: 1 }
        );
    }

    #[test]
    fn applied_without_all_commits_is_atomicity_violation() {
        let history = vec![
            start(1, 0b11),
            prepared(1, 0, 5),
            prepared(1, 1, 3),
            merged(1, 5),
            committed(1, 0, 6),
            applied(1),
        ];
        let err = check_shard_trace(&history, false).expect_err("premature apply");
        assert_eq!(
            err,
            ShardTraceViolation::AtomicityViolation { txn: 1, group: 1 }
        );
    }

    #[test]
    fn commit_at_or_before_prepare_is_an_inversion() {
        let history = vec![
            start(1, 0b01),
            prepared(1, 0, 5),
            merged(1, 5),
            committed(1, 0, 5),
        ];
        let err = check_shard_trace(&history, false).expect_err("inverted phases");
        assert_eq!(
            err,
            ShardTraceViolation::PrepareCommitInversion {
                txn: 1,
                group: 0,
                prepared: 5,
                committed: 5,
            }
        );
    }

    #[test]
    fn wrong_merge_timestamp_is_a_mismatch() {
        let history = vec![
            start(1, 0b11),
            prepared(1, 0, 5),
            prepared(1, 1, 9),
            merged(1, 5),
        ];
        let err = check_shard_trace(&history, false).expect_err("bad merge");
        assert_eq!(
            err,
            ShardTraceViolation::MergeMismatch {
                txn: 1,
                ts: 5,
                max_prepared: 9,
            }
        );
    }

    #[test]
    fn unstarted_txn_event_is_flagged() {
        let history = vec![prepared(7, 0, 5)];
        let err = check_shard_trace(&history, false).expect_err("phantom txn");
        assert_eq!(err, ShardTraceViolation::EventWithoutStart { txn: 7 });
    }

    #[test]
    fn unfinished_txn_only_flagged_when_required() {
        let history = vec![start(1, 0b11), prepared(1, 0, 5)];
        assert!(check_shard_trace(&history, false).is_ok());
        let err = check_shard_trace(&history, true).expect_err("stuck txn");
        assert_eq!(err, ShardTraceViolation::UnfinishedTxn { txn: 1 });
    }
}
