//! Membership phases and the pure decision logic of the flush round.
//!
//! A membership change runs in three phases:
//!
//! 1. **Gather** — every affected daemon multicasts `Join(attempt,
//!    proposal)` where `proposal` is its failure detector's current
//!    reachable set. The phase converges when every proposed member has
//!    announced the *same* proposal.
//! 2. **Flush** — every member reports to the new coordinator what it
//!    holds from its previous configuration (`FlushInfo`); the
//!    coordinator directs retransmissions until all members coming from
//!    the same old configuration hold the same message prefix
//!    (virtual synchrony: processes moving together deliver the same
//!    set).
//! 3. **Install** — the coordinator announces the new configuration;
//!    members deliver their transitional configuration, the remaining
//!    old messages, and finally the new regular configuration.
//!
//! This module contains the state carried through those phases and the
//! *pure* coordinator decision function [`evaluate_flush`], which is unit
//! tested in isolation; the daemon performs the sends.

use std::collections::{BTreeMap, BTreeSet};

use todr_net::NodeId;

use crate::types::ConfId;
use crate::wire::TransGroup;

/// Which membership phase the daemon is in.
#[derive(Debug)]
pub(crate) enum Phase {
    /// Operating inside an installed regular configuration.
    Steady,
    /// Converging on a membership proposal.
    Gather(GatherState),
    /// Exchanging old-configuration state before install.
    Flush(FlushState),
}

/// State of the gather phase.
#[derive(Debug)]
pub(crate) struct GatherState {
    /// Local attempt number (monotone per daemon).
    pub attempt: u64,
    /// The membership this daemon currently proposes (its reachable
    /// set).
    pub proposal: BTreeSet<NodeId>,
    /// Latest `Join` seen from each node: `(their attempt, their
    /// proposal)`.
    pub seen: BTreeMap<NodeId, (u64, BTreeSet<NodeId>)>,
}

impl GatherState {
    pub(crate) fn new(attempt: u64, me: NodeId, proposal: BTreeSet<NodeId>) -> Self {
        let mut seen = BTreeMap::new();
        seen.insert(me, (attempt, proposal.clone()));
        GatherState {
            attempt,
            proposal,
            seen,
        }
    }

    /// Records a peer's `Join`, keeping only its freshest announcement.
    pub(crate) fn record_join(&mut self, from: NodeId, attempt: u64, proposal: BTreeSet<NodeId>) {
        match self.seen.get(&from) {
            Some(&(prev, _)) if prev > attempt => {}
            _ => {
                self.seen.insert(from, (attempt, proposal));
            }
        }
    }

    /// Whether every proposed member has announced exactly this
    /// proposal.
    pub(crate) fn converged(&self) -> bool {
        self.proposal
            .iter()
            .all(|m| matches!(self.seen.get(m), Some((_, p)) if *p == self.proposal))
    }
}

/// What one member reported to the flush coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FlushInfoRec {
    pub old_conf: ConfId,
    pub have_upto: u64,
    pub stable_upto: u64,
    pub max_conf_seq: u32,
}

/// State of the flush phase.
#[derive(Debug)]
pub(crate) struct FlushState {
    /// Local attempt that led to this flush.
    pub attempt: u64,
    /// The converged membership (sorted).
    pub membership: Vec<NodeId>,
    /// The flush coordinator (minimum member id).
    pub coordinator: NodeId,
    /// Coordinator only: reports collected so far.
    pub infos: BTreeMap<NodeId, FlushInfoRec>,
    /// Coordinator only: whether retransmission requests were already
    /// issued (one round is always sufficient: the target prefix is
    /// fixed by the first full set of reports).
    pub retrans_issued: bool,
}

impl FlushState {
    pub(crate) fn new(attempt: u64, membership: Vec<NodeId>) -> Self {
        let coordinator = membership[0];
        FlushState {
            attempt,
            membership,
            coordinator,
            infos: BTreeMap::new(),
            retrans_issued: false,
        }
    }
}

/// One retransmission directive: `holder` must send
/// `from_seq..=to_seq` of `old_conf` to each node in `needy`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RetransPlan {
    pub holder: NodeId,
    pub old_conf: ConfId,
    pub from_seq: u64,
    pub to_seq: u64,
    pub needy: Vec<NodeId>,
}

/// The coordinator's next step in the flush round.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FlushDecision {
    /// Reports are still missing.
    Wait,
    /// Some members lack messages their old-configuration peers hold.
    NeedRetrans(Vec<RetransPlan>),
    /// All groups are equalized: install.
    Install {
        /// Sequence number for the new configuration's id.
        new_conf_seq: u32,
        /// Per-old-configuration transitional groups.
        groups: Vec<TransGroup>,
    },
}

/// Pure decision function run by the flush coordinator every time a
/// report arrives.
pub(crate) fn evaluate_flush(
    membership: &[NodeId],
    infos: &BTreeMap<NodeId, FlushInfoRec>,
) -> FlushDecision {
    if membership.iter().any(|m| !infos.contains_key(m)) {
        return FlushDecision::Wait;
    }

    // Group members by the configuration they come from.
    let mut groups: BTreeMap<ConfId, Vec<NodeId>> = BTreeMap::new();
    for (&node, info) in infos {
        groups.entry(info.old_conf).or_default().push(node);
    }

    let mut plans = Vec::new();
    let mut trans_groups = Vec::new();
    let mut max_conf_seq = 0;
    for (old_conf, members) in &groups {
        let target = members
            .iter()
            .map(|m| infos[m].have_upto)
            .max()
            .expect("non-empty group");
        let holder = members
            .iter()
            .copied()
            .find(|m| infos[m].have_upto == target)
            .expect("some member holds the maximum");
        let needy: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|m| infos[m].have_upto < target)
            .collect();
        // The minimum doubles as the non-emptiness check: no needy
        // member, no plan.
        if let Some(least) = needy.iter().map(|m| infos[m].have_upto).min() {
            plans.push(RetransPlan {
                holder,
                old_conf: *old_conf,
                from_seq: least + 1,
                to_seq: target,
                needy,
            });
        }
        trans_groups.push(TransGroup {
            old_conf: *old_conf,
            members: members.clone(),
            final_upto: target,
        });
        for m in members {
            max_conf_seq = max_conf_seq.max(infos[m].max_conf_seq);
        }
    }

    if plans.is_empty() {
        FlushDecision::Install {
            new_conf_seq: max_conf_seq + 1,
            groups: trans_groups,
        }
    } else {
        FlushDecision::NeedRetrans(plans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn set(ids: &[u32]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| n(i)).collect()
    }

    fn conf_id(seq: u32, coord: u32) -> ConfId {
        ConfId {
            seq,
            coordinator: n(coord),
        }
    }

    fn info(old: ConfId, have: u64, stable: u64, max_seq: u32) -> FlushInfoRec {
        FlushInfoRec {
            old_conf: old,
            have_upto: have,
            stable_upto: stable,
            max_conf_seq: max_seq,
        }
    }

    // ---- gather ----

    #[test]
    fn gather_converges_when_all_agree() {
        let mut g = GatherState::new(1, n(0), set(&[0, 1, 2]));
        assert!(!g.converged());
        g.record_join(n(1), 4, set(&[0, 1, 2]));
        assert!(!g.converged());
        g.record_join(n(2), 2, set(&[0, 1, 2]));
        assert!(g.converged());
    }

    #[test]
    fn gather_disagreement_blocks_convergence() {
        let mut g = GatherState::new(1, n(0), set(&[0, 1]));
        g.record_join(n(1), 1, set(&[0, 1, 2]));
        assert!(!g.converged());
        // n1 updates its proposal after its own FD drops n2.
        g.record_join(n(1), 2, set(&[0, 1]));
        assert!(g.converged());
    }

    #[test]
    fn gather_keeps_freshest_join_per_node() {
        let mut g = GatherState::new(1, n(0), set(&[0, 1]));
        g.record_join(n(1), 5, set(&[0, 1]));
        g.record_join(n(1), 3, set(&[1])); // stale, ignored
        assert!(g.converged());
    }

    #[test]
    fn singleton_gather_converges_immediately() {
        let g = GatherState::new(1, n(3), set(&[3]));
        assert!(g.converged());
    }

    // ---- flush ----

    #[test]
    fn flush_waits_for_all_reports() {
        let membership = vec![n(0), n(1)];
        let mut infos = BTreeMap::new();
        infos.insert(n(0), info(conf_id(1, 0), 5, 5, 1));
        assert_eq!(evaluate_flush(&membership, &infos), FlushDecision::Wait);
    }

    #[test]
    fn flush_installs_when_groups_equal() {
        let membership = vec![n(0), n(1)];
        let mut infos = BTreeMap::new();
        infos.insert(n(0), info(conf_id(1, 0), 5, 4, 1));
        infos.insert(n(1), info(conf_id(1, 0), 5, 5, 1));
        match evaluate_flush(&membership, &infos) {
            FlushDecision::Install {
                new_conf_seq,
                groups,
            } => {
                assert_eq!(new_conf_seq, 2);
                assert_eq!(groups.len(), 1);
                assert_eq!(groups[0].final_upto, 5);
                assert_eq!(groups[0].members, vec![n(0), n(1)]);
            }
            other => panic!("expected install, got {other:?}"),
        }
    }

    #[test]
    fn flush_requests_retransmission_for_lagging_member() {
        let membership = vec![n(0), n(1), n(2)];
        let mut infos = BTreeMap::new();
        infos.insert(n(0), info(conf_id(1, 0), 8, 6, 1));
        infos.insert(n(1), info(conf_id(1, 0), 6, 6, 1));
        infos.insert(n(2), info(conf_id(1, 0), 8, 8, 1));
        match evaluate_flush(&membership, &infos) {
            FlushDecision::NeedRetrans(plans) => {
                assert_eq!(plans.len(), 1);
                let p = &plans[0];
                assert_eq!(p.holder, n(0)); // first member holding max
                assert_eq!(p.from_seq, 7);
                assert_eq!(p.to_seq, 8);
                assert_eq!(p.needy, vec![n(1)]);
            }
            other => panic!("expected retrans, got {other:?}"),
        }
    }

    #[test]
    fn flush_merge_keeps_old_confs_separate() {
        // Two components merging: {0,1} from conf A, {2} from conf B.
        let membership = vec![n(0), n(1), n(2)];
        let mut infos = BTreeMap::new();
        infos.insert(n(0), info(conf_id(3, 0), 5, 5, 3));
        infos.insert(n(1), info(conf_id(3, 0), 5, 5, 3));
        infos.insert(n(2), info(conf_id(4, 2), 9, 9, 4));
        match evaluate_flush(&membership, &infos) {
            FlushDecision::Install {
                new_conf_seq,
                groups,
            } => {
                assert_eq!(new_conf_seq, 5); // max(3,4)+1
                assert_eq!(groups.len(), 2);
                // No cross-configuration retransmission was planned.
                assert_eq!(groups[0].members, vec![n(0), n(1)]);
                assert_eq!(groups[1].members, vec![n(2)]);
            }
            other => panic!("expected install, got {other:?}"),
        }
    }

    #[test]
    fn flush_retransmits_within_each_group_independently() {
        let membership = vec![n(0), n(1), n(2), n(3)];
        let mut infos = BTreeMap::new();
        infos.insert(n(0), info(conf_id(3, 0), 5, 5, 3));
        infos.insert(n(1), info(conf_id(3, 0), 2, 2, 3));
        infos.insert(n(2), info(conf_id(4, 2), 9, 9, 4));
        infos.insert(n(3), info(conf_id(4, 2), 9, 8, 4));
        match evaluate_flush(&membership, &infos) {
            FlushDecision::NeedRetrans(plans) => {
                assert_eq!(plans.len(), 1);
                assert_eq!(plans[0].old_conf, conf_id(3, 0));
                assert_eq!(plans[0].needy, vec![n(1)]);
                assert_eq!(plans[0].from_seq, 3);
                assert_eq!(plans[0].to_seq, 5);
            }
            other => panic!("expected retrans, got {other:?}"),
        }
    }

    #[test]
    fn flush_all_fresh_members_install_seq_one() {
        // Nodes that never installed anything report conf seq 0.
        let membership = vec![n(0), n(1)];
        let mut infos = BTreeMap::new();
        infos.insert(n(0), info(ConfId::initial(n(0)), 0, 0, 0));
        infos.insert(n(1), info(ConfId::initial(n(1)), 0, 0, 0));
        match evaluate_flush(&membership, &infos) {
            FlushDecision::Install {
                new_conf_seq,
                groups,
            } => {
                assert_eq!(new_conf_seq, 1);
                // Each fresh node forms its own (empty) group.
                assert_eq!(groups.len(), 2);
                assert!(groups.iter().all(|g| g.final_upto == 0));
            }
            other => panic!("expected install, got {other:?}"),
        }
    }
}
