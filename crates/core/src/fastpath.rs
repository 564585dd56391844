//! The commutativity commit fast path (extension A11, CURP-style): when
//! an own `Fast` action may be acknowledged before it turns green. Each
//! rule returns a decision; the engine applies it with its own sends,
//! replies, metrics and events.

use std::collections::{BTreeMap, BTreeSet};

use todr_db::conflict::{conflicts, ActionClass};
use todr_db::{Query, QueryResult};
use todr_net::NodeId;
use todr_sim::SimTime;

use crate::action::{ActionId, ActionKind, Body};
use crate::engine::EngineState;
use crate::knowledge::Knowledge;
use crate::quorum::{is_weighted_quorum, PrimComponent};
use crate::types::EngineConfig;

/// What an eager receipt of an action asks of the engine.
#[derive(Debug)]
pub(crate) enum Receipt<'a> {
    /// Another member's action: tell its creator this server holds it.
    Ack,
    /// An own action that did not ask for the fast path.
    Skip,
    /// Unbounded, or conflicts with an in-flight action: the reply waits
    /// for green.
    Demote,
    /// No conflict: answer `query` against the dirty view now — the
    /// agreed order up to this action, which nothing in flight or
    /// sequenced later can change — then [`FastPath::open`] its quorum.
    Open(Option<&'a Query>),
}

/// The reply a fast commit owes, fixed at receipt.
#[derive(Debug)]
pub(crate) struct FastReply {
    /// The query answer at receipt; any later would see successors.
    pub result: Option<QueryResult>,
    /// When the receipt-time check and read leave the CPU: charged then,
    /// so the work overlaps the FastAck round trip.
    pub ready_at: SimTime,
}

#[derive(Debug)]
struct FastPending {
    ackers: BTreeSet<NodeId>,
    reply: FastReply,
}

/// This server's open fast-path quorums.
#[derive(Debug)]
pub(crate) struct FastPath {
    /// With read leases on, any member may serve the row once the client
    /// learns of the commit, so *every* member of the configuration must
    /// hold the action first. (Older configurations' leases died at least
    /// `fail_timeout - 2·hb - LEASE_DURATION` before this one installed.)
    every_member: bool,
    #[cfg(feature = "chaos-mutations")]
    skip_conflict_check: bool,
    /// Scoped to one uninterrupted regular primary configuration.
    pending_fast: BTreeMap<ActionId, FastPending>,
}

impl FastPath {
    pub(crate) fn new(cfg: &EngineConfig) -> Self {
        FastPath {
            every_member: cfg.read_leases,
            #[cfg(feature = "chaos-mutations")]
            skip_conflict_check: cfg.chaos == Some(crate::types::ChaosMutation::SkipConflictCheck),
            pending_fast: BTreeMap::new(),
        }
    }

    /// Decides the receipt of `action` at `me` in the regular primary
    /// configuration. `wants_fast`: its client asked for the fast path
    /// and is still owed the reply.
    pub(crate) fn on_receipt<'a>(
        &self,
        k: &Knowledge,
        action: &'a Body,
        me: NodeId,
        wants_fast: bool,
    ) -> Receipt<'a> {
        let id = action.id;
        if id.server != me {
            return Receipt::Ack;
        }
        let (true, ActionKind::App { query, .. }) = (wants_fast, &action.kind) else {
            return Receipt::Skip;
        };
        match action.class() {
            Some(class) if !class.unbounded() && !self.conflict(k, class, id) => {
                Receipt::Open(query.as_ref())
            }
            _ => Receipt::Demote,
        }
    }

    /// Whether `class` conflicts with an in-flight (red or yellow)
    /// action of *another* creator: per-creator FIFO orders the same
    /// creator's actions on every path. A body that is missing or not a
    /// plain app action conflicts.
    fn conflict(&self, k: &Knowledge, class: &ActionClass, id: ActionId) -> bool {
        #[cfg(feature = "chaos-mutations")]
        if self.skip_conflict_check {
            // Injected bug: promise the fast commit regardless of what
            // is in flight. The FastCommitRevoked oracle must catch the
            // reply this issues against a conflicting concurrent action.
            return false;
        }
        k.in_flight()
            .filter(|(other, _)| other.server != id.server)
            .any(|(_, body)| {
                body.and_then(Body::class)
                    .is_none_or(|b| conflicts(class, b))
            })
    }

    /// Opens the quorum of own action `id`; its creator has acked it.
    pub(crate) fn open(&mut self, id: ActionId, reply: FastReply) {
        let ackers = BTreeSet::from([id.server]);
        self.pending_fast.insert(id, FastPending { ackers, reply });
    }

    /// Member `src` holds own action `id`. Returns the reply once the
    /// ackers are every one of the current configuration's `members`
    /// (read leases on) or a weighted quorum of `prim` (off).
    pub(crate) fn on_ack(
        &mut self,
        src: NodeId,
        id: ActionId,
        state: EngineState,
        members: Option<&[NodeId]>,
        prim: &PrimComponent,
        weights: &BTreeMap<NodeId, u64>,
    ) -> Option<FastReply> {
        if state != EngineState::RegPrim {
            return None; // stale ack from before a view change
        }
        // Absent: demoted, already committed, or cleared.
        let ackers = &mut self.pending_fast.get_mut(&id)?.ackers;
        ackers.insert(src);
        let quorum = if self.every_member {
            members.is_some_and(|m| m.iter().all(|n| ackers.contains(n)))
        } else {
            let ackers: Vec<NodeId> = ackers.iter().copied().collect();
            is_weighted_quorum(&ackers, prim, weights)
        };
        if !quorum {
            return None;
        }
        self.pending_fast.remove(&id).map(|pending| pending.reply)
    }

    /// Own action `id` went green first: the green reply answers it.
    pub(crate) fn on_green(&mut self, id: ActionId) {
        self.pending_fast.remove(&id);
    }

    /// Drops every open quorum (view change or crash); their replies
    /// fall back to firing on green. Returns how many it demoted.
    pub(crate) fn clear(&mut self) -> u64 {
        let demoted = self.pending_fast.len() as u64;
        self.pending_fast.clear();
        demoted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, ClientId};
    use crate::knowledge::Accept;
    use std::rc::Rc;
    use todr_db::Op;

    fn node(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn members() -> Vec<NodeId> {
        (0..3).map(node).collect()
    }

    fn fast_path(read_leases: bool) -> FastPath {
        let mut cfg = EngineConfig::new(node(0), members());
        cfg.read_leases = read_leases;
        FastPath::new(&cfg)
    }

    fn action(server: u32, index: u64, update: Op, query: Option<Query>) -> Rc<Body> {
        Body::new(Action {
            id: ActionId {
                server: node(server),
                index,
            },
            green_line: 0,
            client: ClientId(1),
            kind: ActionKind::App { query, update },
            size_bytes: 64,
        })
    }

    fn knowledge(in_flight: &[Rc<Body>]) -> Knowledge {
        let mut k = Knowledge::new(NodeId::new(0), members());
        for body in in_flight {
            assert!(matches!(k.accept_red(body), Accept::New));
        }
        k
    }

    fn reply() -> FastReply {
        FastReply {
            result: None,
            ready_at: SimTime::ZERO,
        }
    }

    fn own(index: u64) -> ActionId {
        ActionId {
            server: node(0),
            index,
        }
    }

    /// Opens own action `(0, index)` and acknowledges it from `acks` in
    /// turn (the engine's own ack first); returns after which ack, from
    /// 1, the reply came.
    fn committed_after(fast: &mut FastPath, index: u64, acks: &[u32]) -> Option<usize> {
        let (m, prim) = (members(), PrimComponent::initial(members()));
        fast.open(own(index), reply());
        (1..=acks.len()).find(|&i| {
            let (src, reg) = (node(acks[i - 1]), EngineState::RegPrim);
            let ack = fast.on_ack(src, own(index), reg, Some(&m), &prim, &BTreeMap::new());
            ack.is_some()
        })
    }

    #[test]
    fn without_leases_the_quorum_is_a_weighted_quorum() {
        assert_eq!(
            committed_after(&mut fast_path(false), 1, &[0, 2, 1]),
            Some(2)
        );
    }

    #[test]
    fn with_leases_the_quorum_is_every_current_member() {
        let mut fast = fast_path(true);
        assert_eq!(committed_after(&mut fast, 1, &[0, 1, 1, 2]), Some(4));
        // Without a current configuration there is no quorum at all.
        fast.open(own(2), reply());
        let prim = PrimComponent::initial(members());
        for src in 0..3 {
            let reg = EngineState::RegPrim;
            let ack = fast.on_ack(node(src), own(2), reg, None, &prim, &BTreeMap::new());
            assert!(ack.is_none());
        }
        // Nor outside the regular primary configuration.
        assert_eq!(committed_after(&mut fast, 3, &[]), None);
        let (m, trans) = (members(), EngineState::TransPrim);
        for src in 0..3 {
            let ack = fast.on_ack(node(src), own(3), trans, Some(&m), &prim, &BTreeMap::new());
            assert!(ack.is_none());
        }
    }

    #[test]
    fn an_in_flight_action_from_the_same_creator_does_not_demote() {
        let fast = fast_path(false);
        let mine = action(0, 1, Op::put("t", "a", 1), None);
        let next = action(0, 2, Op::put("t", "a", 2), Some(Query::get("t", "a")));
        let k = knowledge(&[Rc::clone(&mine), Rc::clone(&next)]);
        let receipt = fast.on_receipt(&k, &next, node(0), true);
        assert!(matches!(receipt, Receipt::Open(Some(_))));
        let theirs = action(1, 1, Op::put("t", "a", 3), None);
        let k = knowledge(&[theirs, mine, Rc::clone(&next)]);
        let receipt = fast.on_receipt(&k, &next, node(0), true);
        assert!(matches!(receipt, Receipt::Demote));
        assert!(matches!(
            fast.on_receipt(&k, &next, node(1), true),
            Receipt::Ack
        ));
        assert!(matches!(
            fast.on_receipt(&k, &next, node(0), false),
            Receipt::Skip
        ));
    }

    #[test]
    fn an_unbounded_class_demotes() {
        let fast = fast_path(false);
        let scan = action(0, 1, Op::Noop, Some(Query::scan("t", "")));
        let k = knowledge(std::slice::from_ref(&scan));
        let receipt = fast.on_receipt(&k, &scan, node(0), true);
        assert!(matches!(receipt, Receipt::Demote));
    }

    #[test]
    fn clear_returns_the_demotion_count() {
        let mut fast = fast_path(true);
        for index in 1..=3 {
            fast.open(own(index), reply());
        }
        fast.on_green(own(2));
        assert_eq!(fast.clear(), 2);
        assert_eq!(fast.clear(), 0);
        assert_eq!(committed_after(&mut fast, 1, &[0, 1, 2]), Some(3));
    }
}
