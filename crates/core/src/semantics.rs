//! Application-semantics knobs (§6 of the paper), and the rule that
//! says at which commit point each update is answered.
//!
//! The engine enforces one-copy serializability by default: updates are
//! acknowledged when green, queries are answered from green state in the
//! primary component. Applications that can tolerate weaker guarantees
//! opt in per request:
//!
//! * **weak queries** read the green (consistent but possibly obsolete)
//!   state even in a non-primary component;
//! * **dirty queries** additionally see the red actions known locally;
//! * **timestamp / commutative updates** are acknowledged as soon as the
//!   action is red — the database states converge once partitions heal,
//!   because such updates are order-insensitive ([`todr_db::Op::TsPut`],
//!   [`todr_db::Op::Incr`]).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use todr_db::{Query, ReadConsistency};
use todr_sim::{ActorId, SimTime};

use crate::action::ActionId;
use crate::types::RequestId;

/// How the query part of a request is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum QuerySemantics {
    /// One-copy serializable: answered from the green state in the
    /// primary component once every action this server created is green
    /// (§6 session causality: nothing in its `ongoingQueue`, and its red
    /// cut equals its green cut), so the session's own acknowledged
    /// updates are reflected — one answered early by the fast path too;
    /// waits in a non-primary component.
    #[default]
    Strict,
    /// Answered immediately from the green state, which may be obsolete
    /// in a non-primary component.
    Weak,
    /// Answered immediately from the green state *plus* locally known
    /// red actions (the "dirty version" of the database).
    Dirty,
}

/// When the update part of a request is acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum UpdateReplyPolicy {
    /// When the action is green (global persistent order) — the strict
    /// model.
    #[default]
    OnGreen,
    /// When the action is locally ordered (red). Only sound for
    /// commutative or timestamped updates; the engine still propagates
    /// and orders the action, so states converge after merges.
    OnRed,
    /// The commit fast path: acknowledged as soon as (a) the action is
    /// forced to local stable storage, (b) a weighted quorum of the
    /// current primary component holds the sequenced action (FastAck
    /// receipts), and (c) it conflicts with no in-flight (red or
    /// yellow-not-green) action at the origin. If a conflict is
    /// detected the request silently *demotes* to [`Self::OnGreen`]
    /// behaviour — same reply, just later. Requires
    /// [`EngineConfig::fast_path`](crate::EngineConfig); sound for any
    /// bounded-footprint action because the quorum of holders
    /// guarantees the action survives into every subsequent primary
    /// component ahead of anything not yet sequenced.
    Fast,
}

/// Where an update's commit can be acknowledged to its client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CommitPoint {
    /// Locally ordered (red).
    Red,
    /// Globally and persistently ordered (green).
    Green,
    /// A fast-path quorum holds the action ahead of its green mark.
    Fast,
}

impl UpdateReplyPolicy {
    /// Whether this policy answers an update at `point`: `OnRed` at red,
    /// the others at green, and `Fast` also at a fast quorum.
    pub(crate) fn answers_at(self, point: CommitPoint) -> bool {
        match point {
            CommitPoint::Red => self == UpdateReplyPolicy::OnRed,
            CommitPoint::Green => self != UpdateReplyPolicy::OnRed,
            CommitPoint::Fast => self == UpdateReplyPolicy::Fast,
        }
    }
}

/// A reply owed to a client once its action commits.
#[derive(Debug, Clone)]
pub(crate) struct PendingReply {
    pub request: RequestId,
    pub reply_to: ActorId,
    pub query: Option<Query>,
    pub submitted_at: SimTime,
    pub policy: UpdateReplyPolicy,
    /// `Some` when this is a consistency-tiered query-only read routed
    /// through the ordered path (no valid lease); the green reply emits
    /// a `ReadServed` event with the ordered tier.
    pub read_tier: Option<ReadConsistency>,
}

/// Removes and returns `id`'s pending reply if its policy answers at
/// `point` ([`UpdateReplyPolicy::answers_at`]); otherwise it stays. A
/// `Fast` update answered at its quorum is gone before it turns green.
pub(crate) fn take_reply(
    pending: &mut BTreeMap<ActionId, PendingReply>,
    id: ActionId,
    point: CommitPoint,
) -> Option<PendingReply> {
    let answers = pending.get(&id)?.policy.answers_at(point);
    answers.then(|| pending.remove(&id)).flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use todr_net::NodeId;

    #[test]
    fn each_policy_answers_at_its_commit_points() {
        use UpdateReplyPolicy::{OnGreen, OnRed};
        let points = [CommitPoint::Red, CommitPoint::Green, CommitPoint::Fast];
        for (policy, answers) in [
            (OnGreen, [false, true, false]),
            (OnRed, [true, false, false]),
            (UpdateReplyPolicy::Fast, [false, true, true]),
        ] {
            assert_eq!(
                points.map(|at| policy.answers_at(at)),
                answers,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn a_pending_reply_is_taken_at_its_commit_point_and_only_once() {
        let id = |index| ActionId {
            server: NodeId::new(0),
            index,
        };
        let mut pending = BTreeMap::new();
        for (index, policy) in [(0, UpdateReplyPolicy::OnRed), (1, UpdateReplyPolicy::Fast)] {
            let reply = PendingReply {
                request: RequestId(index),
                reply_to: ActorId::from_raw(0),
                query: None,
                submitted_at: SimTime::ZERO,
                policy,
                read_tier: None,
            };
            pending.insert(id(index), reply);
        }
        let (on_red, fast) = (id(0), id(1));
        assert!(take_reply(&mut pending, on_red, CommitPoint::Green).is_none());
        assert!(take_reply(&mut pending, on_red, CommitPoint::Red).is_some());
        assert!(take_reply(&mut pending, on_red, CommitPoint::Red).is_none());
        assert!(take_reply(&mut pending, fast, CommitPoint::Red).is_none());
        assert!(take_reply(&mut pending, fast, CommitPoint::Fast).is_some());
        assert!(take_reply(&mut pending, fast, CommitPoint::Green).is_none());
        assert!(pending.is_empty());
    }

    #[test]
    fn defaults_are_strict() {
        assert_eq!(QuerySemantics::default(), QuerySemantics::Strict);
        assert_eq!(UpdateReplyPolicy::default(), UpdateReplyPolicy::OnGreen);
    }
}
