//! Cross-replica safety checkers over state snapshots: executable
//! versions of the paper's Theorems 1 and 2, database convergence and
//! the single-primary rule.
//!
//! Every invariant has a fallible `verify_*` form over collected
//! [`ReplicaView`]s returning a typed [`ConsistencyError`]. The
//! cluster-level entry point is [`try_check_consistency`] (panicking
//! twin: [`check_consistency`]), which on failure attaches
//! the tail of the world's typed [`ProtocolEvent`](todr_sim::ProtocolEvent)
//! log so a violation report shows *what the protocol did* leading up
//! to the bad state, not just the bad state itself.

use std::collections::BTreeMap;
use std::fmt;

use todr_core::{ActionId, EngineState};
use todr_net::NodeId;
use todr_sim::RecordedEvent;

use crate::cluster::Cluster;

/// A snapshot of one replica's ordering state, for offline comparison.
#[derive(Debug, Clone)]
pub struct ReplicaView {
    /// The server.
    pub node: NodeId,
    /// Its protocol state.
    pub state: EngineState,
    /// Green action count.
    pub green_count: u64,
    /// First green position with a retained id.
    pub green_floor: u64,
    /// Green ids from `green_floor` on.
    pub green_tail: Vec<ActionId>,
    /// Database digest.
    pub db_digest: u64,
    /// Index of the last primary component this replica installed (or
    /// adopted); meaningful for the split-brain check only while
    /// `state` claims primary membership.
    pub prim_index: u64,
}

/// A violated safety invariant, as structured data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsistencyError {
    /// Theorem 1: two replicas disagree on the action at one green
    /// position.
    TotalOrder {
        /// The green position in dispute.
        position: u64,
        /// First replica and the id it holds there.
        a: (NodeId, ActionId),
        /// Second replica and the id it holds there.
        b: (NodeId, ActionId),
    },
    /// Theorem 2: a creator's indices jumped inside one green sequence.
    FifoOrder {
        /// The replica whose green sequence has the gap.
        node: NodeId,
        /// The creator whose indices jumped.
        creator: NodeId,
        /// Last index seen before the jump.
        prev: u64,
        /// The index that followed it.
        next: u64,
    },
    /// Two replicas at the same green count hold different databases.
    DbDivergence {
        /// First replica and its digest.
        a: (NodeId, u64),
        /// Second replica and its digest.
        b: (NodeId, u64),
        /// The shared green count.
        green_count: u64,
    },
    /// Two primary components are live at once.
    SplitBrain {
        /// Every replica claiming primary membership, with its primary
        /// index.
        claims: Vec<(NodeId, u64)>,
    },
}

impl fmt::Display for ConsistencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsistencyError::TotalOrder { position, a, b } => write!(
                f,
                "total order violated at green position {position}: {} has {}, {} has {}",
                a.0, a.1, b.0, b.1
            ),
            ConsistencyError::FifoOrder {
                node,
                creator,
                prev,
                next,
            } => write!(
                f,
                "FIFO violated at {node}: creator {creator} jumped {prev} -> {next}"
            ),
            ConsistencyError::DbDivergence { a, b, green_count } => write!(
                f,
                "replicas {} and {} diverged at green count {green_count}",
                a.0, b.0
            ),
            ConsistencyError::SplitBrain { claims } => {
                write!(f, "two primary components live at once: {claims:?}")
            }
        }
    }
}

impl std::error::Error for ConsistencyError {}

/// A [`ConsistencyError`] packaged with protocol context: the tail of
/// the typed event log at the moment the violation was detected.
#[derive(Debug, Clone)]
pub struct ConsistencyViolation {
    /// The violated invariant.
    pub error: ConsistencyError,
    /// The most recent typed protocol events (up to
    /// [`ConsistencyViolation::EVENT_TAIL`]), oldest first.
    pub recent_events: Vec<RecordedEvent>,
}

impl ConsistencyViolation {
    /// How many trailing events a violation carries.
    pub const EVENT_TAIL: usize = 32;
}

impl fmt::Display for ConsistencyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.error)?;
        if !self.recent_events.is_empty() {
            write!(f, "; last {} protocol events:", self.recent_events.len())?;
            for e in &self.recent_events {
                write!(f, "\n  [{} ns] {:?}", e.at_nanos, e.event)?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for ConsistencyViolation {}

/// What a passing consistency check covered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Live replicas compared.
    pub replicas_checked: usize,
    /// Smallest green count among them.
    pub min_green: u64,
    /// Largest green count among them.
    pub max_green: u64,
    /// Green positions actually compared pairwise (overlap of retained
    /// tails).
    pub positions_compared: u64,
}

/// Collects every live replica's view.
pub fn collect_views(cluster: &mut Cluster) -> Vec<ReplicaView> {
    (0..cluster.servers.len())
        .map(|i| {
            let node = cluster.servers[i].node;
            cluster.with_engine(i, |e| ReplicaView {
                node,
                state: e.state(),
                green_count: e.green_count(),
                green_floor: e.green_floor(),
                green_tail: e.green_tail().to_vec(),
                db_digest: e.db_digest(),
                prim_index: e.prim_component().prim_index,
            })
        })
        .collect()
}

/// Theorem 1 (Global Total Order): if two servers both performed their
/// `i`-th action, those actions are identical. Checked over the overlap
/// of retained green ids. Returns how many positions were compared.
pub fn verify_total_order(views: &[ReplicaView]) -> Result<u64, ConsistencyError> {
    let mut compared = 0;
    for a in views {
        for b in views {
            if a.node >= b.node {
                continue;
            }
            let lo = a.green_floor.max(b.green_floor);
            let hi = a.green_count.min(b.green_count);
            for pos in lo..hi {
                let ia = a.green_tail[(pos - a.green_floor) as usize];
                let ib = b.green_tail[(pos - b.green_floor) as usize];
                if ia != ib {
                    return Err(ConsistencyError::TotalOrder {
                        position: pos,
                        a: (a.node, ia),
                        b: (b.node, ib),
                    });
                }
                compared += 1;
            }
        }
    }
    Ok(compared)
}

/// Theorem 2 (Global FIFO Order): within one server's green sequence,
/// per-creator indices are strictly increasing and contiguous from the
/// first retained occurrence.
pub fn verify_fifo_order(views: &[ReplicaView]) -> Result<(), ConsistencyError> {
    for v in views {
        let mut last: BTreeMap<NodeId, u64> = BTreeMap::new();
        for id in &v.green_tail {
            if let Some(&prev) = last.get(&id.server) {
                if prev + 1 != id.index {
                    return Err(ConsistencyError::FifoOrder {
                        node: v.node,
                        creator: id.server,
                        prev,
                        next: id.index,
                    });
                }
            }
            last.insert(id.server, id.index);
        }
    }
    Ok(())
}

/// Database determinism: two replicas with the same green count must
/// hold databases with identical digests.
pub fn verify_db_convergence(views: &[ReplicaView]) -> Result<(), ConsistencyError> {
    for a in views {
        for b in views {
            if a.node < b.node && a.green_count == b.green_count && a.db_digest != b.db_digest {
                return Err(ConsistencyError::DbDivergence {
                    a: (a.node, a.db_digest),
                    b: (b.node, b.db_digest),
                    green_count: a.green_count,
                });
            }
        }
    }
    Ok(())
}

/// At most one primary component: the set of servers believing they are
/// in the primary must agree on a single primary index. Pure over the
/// collected views, so offline replay tools can run it too.
pub fn verify_single_primary(views: &[ReplicaView]) -> Result<(), ConsistencyError> {
    let prim_indices: Vec<(NodeId, u64)> = views
        .iter()
        .filter(|v| matches!(v.state, EngineState::RegPrim | EngineState::TransPrim))
        .map(|v| (v.node, v.prim_index))
        .collect();
    for window in prim_indices.windows(2) {
        if window[0].1 != window[1].1 {
            return Err(ConsistencyError::SplitBrain {
                claims: prim_indices,
            });
        }
    }
    Ok(())
}

/// Runs every safety check against the live (non-crashed, non-joining)
/// replicas of the cluster, one replication group at a time (node ids
/// restart at 0 in every group, and Theorem 1 holds per group),
/// returning what was covered or a violation carrying the offending
/// group's recent typed protocol events.
pub fn try_check_consistency(
    cluster: &mut Cluster,
) -> Result<ConsistencyReport, Box<ConsistencyViolation>> {
    let groups: Vec<u32> = cluster.servers.iter().map(|s| s.group).collect();
    let mut live: Vec<Vec<ReplicaView>> = vec![Vec::new(); cluster.config().shards as usize];
    for (view, group) in collect_views(cluster).into_iter().zip(groups) {
        if !matches!(view.state, EngineState::Down | EngineState::Joining) {
            live[group as usize].push(view);
        }
    }
    let run = |views: &[ReplicaView]| -> Result<u64, ConsistencyError> {
        let compared = verify_total_order(views)?;
        verify_fifo_order(views)?;
        verify_db_convergence(views)?;
        verify_single_primary(views)?;
        Ok(compared)
    };
    let mut positions_compared = 0;
    for (group, views) in live.iter().enumerate() {
        match run(views) {
            Ok(compared) => positions_compared += compared,
            Err(error) => {
                let member = cluster.servers.iter().find(|s| s.group as usize == group);
                let scope = cluster
                    .world
                    .actor_scope(member.expect("every group has a server").engine);
                let mut recent_events: Vec<RecordedEvent> = cluster
                    .world
                    .metrics()
                    .events()
                    .iter()
                    .rev()
                    .filter(|e| e.group == scope)
                    .take(ConsistencyViolation::EVENT_TAIL)
                    .cloned()
                    .collect();
                recent_events.reverse();
                return Err(Box::new(ConsistencyViolation {
                    error,
                    recent_events,
                }));
            }
        }
    }
    let greens = || live.iter().flatten().map(|v| v.green_count);
    Ok(ConsistencyReport {
        replicas_checked: greens().count(),
        min_green: greens().min().unwrap_or(0),
        max_green: greens().max().unwrap_or(0),
        positions_compared,
    })
}

/// Panicking wrapper over [`try_check_consistency`].
///
/// # Panics
///
/// Panics on the first violated invariant.
pub fn check_consistency(cluster: &mut Cluster) {
    if let Err(v) = try_check_consistency(cluster) {
        panic!("{v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(node: u32, floor: u64, tail: &[(u32, u64)]) -> ReplicaView {
        ReplicaView {
            node: NodeId::new(node),
            state: EngineState::NonPrim,
            green_count: floor + tail.len() as u64,
            green_floor: floor,
            green_tail: tail
                .iter()
                .map(|&(s, i)| ActionId {
                    server: NodeId::new(s),
                    index: i,
                })
                .collect(),
            db_digest: 0,
            prim_index: 0,
        }
    }

    #[test]
    fn total_order_accepts_consistent_prefixes() {
        let a = view(0, 0, &[(0, 1), (1, 1), (0, 2)]);
        let b = view(1, 0, &[(0, 1), (1, 1)]);
        assert_eq!(verify_total_order(&[a, b]), Ok(2));
    }

    #[test]
    fn total_order_violation_is_structured() {
        let a = view(0, 0, &[(0, 1), (1, 1)]);
        let b = view(1, 0, &[(1, 1), (0, 1)]);
        let err = verify_total_order(&[a, b]).unwrap_err();
        assert!(err.to_string().contains("total order violated"));
        match err {
            ConsistencyError::TotalOrder { position, a, b } => {
                assert_eq!(position, 0);
                assert_eq!(a.0, NodeId::new(0));
                assert_eq!(b.0, NodeId::new(1));
                assert_ne!(a.1, b.1);
            }
            other => panic!("wrong error kind: {other:?}"),
        }
    }

    #[test]
    fn total_order_respects_floors() {
        // b bootstrapped at position 2: only the overlap is compared.
        let a = view(0, 0, &[(0, 1), (1, 1), (0, 2)]);
        let b = view(1, 2, &[(0, 2)]);
        assert_eq!(verify_total_order(&[a, b]), Ok(1));
    }

    #[test]
    fn fifo_accepts_contiguous_creators() {
        let v = view(0, 0, &[(0, 1), (1, 1), (0, 2), (1, 2)]);
        assert_eq!(verify_fifo_order(&[v]), Ok(()));
    }

    #[test]
    fn fifo_rejects_gaps() {
        let v = view(0, 0, &[(0, 1), (0, 3)]);
        let err = verify_fifo_order(&[v]).unwrap_err();
        assert!(err.to_string().contains("FIFO violated"), "{err}");
    }

    #[test]
    fn db_convergence_rejects_digest_mismatch() {
        let mut a = view(0, 0, &[(0, 1)]);
        let mut b = view(1, 0, &[(0, 1)]);
        assert_eq!(verify_db_convergence(&[a.clone(), b.clone()]), Ok(()));
        a.db_digest = 1;
        b.db_digest = 2;
        let err = verify_db_convergence(&[a, b]).unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
    }

    #[test]
    fn single_primary_is_pure_over_views() {
        let mut a = view(0, 0, &[(0, 1)]);
        let mut b = view(1, 0, &[(0, 1)]);
        a.state = EngineState::RegPrim;
        a.prim_index = 3;
        b.state = EngineState::RegPrim;
        b.prim_index = 3;
        assert_eq!(verify_single_primary(&[a.clone(), b.clone()]), Ok(()));
        b.prim_index = 4;
        assert!(matches!(
            verify_single_primary(&[a, b]),
            Err(ConsistencyError::SplitBrain { .. })
        ));
    }

    #[test]
    fn violation_display_includes_events() {
        use todr_sim::ProtocolEvent;
        let v = ConsistencyViolation {
            error: ConsistencyError::DbDivergence {
                a: (NodeId::new(0), 1),
                b: (NodeId::new(1), 2),
                green_count: 7,
            },
            recent_events: vec![RecordedEvent {
                at_nanos: 42,
                actor: 3,
                group: 0,
                event: ProtocolEvent::GreenLineAdvance { node: 0, green: 7 },
            }],
        };
        let rendered = v.to_string();
        assert!(rendered.contains("diverged at green count 7"));
        assert!(rendered.contains("GreenLineAdvance"));
    }
}
