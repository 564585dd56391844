//! Cross-replica safety checks on a live [`Cluster`]: the trace oracle
//! over the typed event log, plus what only a state snapshot can show.
//!
//! [`Cluster::try_check_consistency`] feeds each replication group's
//! [`TraceOracle`](crate::oracle::TraceOracle) the events logged since the previous check, so every
//! clause of [`crate::oracle`] that holds at each prefix of the history
//! (Theorems 1 and 2 among them) is checked up to now. It then checks
//! what the log cannot show: the green ids a recovered replica reloaded
//! from its own log
//! ([`TraceOracle::check_reloaded`](crate::oracle::TraceOracle::check_reloaded)), equal database
//! digests at equal green counts, and one primary index among the
//! replicas claiming primary membership. [`Cluster::try_check_history`]
//! adds the oracle's end-of-run clauses. A violation carries the tail of
//! the offending group's event log, so a report shows *what the
//! protocol did* leading up to the bad state, not just the bad state.

use std::collections::BTreeSet;
use std::fmt;

use todr_core::EngineState;
use todr_net::NodeId;
use todr_sim::RecordedEvent;

use crate::cluster::Cluster;
use crate::oracle::{TraceStats, TraceViolation};

/// A snapshot of one replica's state, for the checks the event log
/// cannot make.
#[derive(Debug, Clone)]
pub struct ReplicaView {
    /// The server.
    pub node: NodeId,
    /// Its protocol state.
    pub state: EngineState,
    /// Green action count.
    pub green_count: u64,
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
    /// A clause of the trace oracle (Theorem 1, Theorem 2, …; see
    /// [`TraceViolation`]).
    Trace(TraceViolation),
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
            ConsistencyError::Trace(v) => write!(f, "{v}"),
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
/// the group's typed event log at the moment the violation was detected.
#[derive(Debug, Clone)]
pub struct ConsistencyViolation {
    /// The violated invariant.
    pub error: ConsistencyError,
    /// The replication group it broke in.
    pub group: u32,
    /// The group's most recent typed protocol events (up to
    /// [`ConsistencyViolation::EVENT_TAIL`]), oldest first; for a trace
    /// clause, ending at the violating event.
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
    /// What the trace oracles have covered so far, summed over groups.
    pub trace: TraceStats,
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

impl Cluster {
    /// `error`, found in `group`, with the group's last events among the
    /// first `upto` of the log.
    fn violation(
        &self,
        group: usize,
        error: ConsistencyError,
        upto: usize,
    ) -> Box<ConsistencyViolation> {
        let scope = self.oracles[group].0;
        let mut recent_events: Vec<RecordedEvent> = self.world.metrics().events()[..upto]
            .iter()
            .rev()
            .filter(|e| e.group == scope)
            .take(ConsistencyViolation::EVENT_TAIL)
            .cloned()
            .collect();
        recent_events.reverse();
        Box::new(ConsistencyViolation {
            error,
            group: group as u32,
            recent_events,
        })
    }

    /// Feeds each group's oracle the group's events logged since the
    /// previous call.
    fn observe_events(&mut self) -> Result<(), Box<ConsistencyViolation>> {
        let events = self.world.metrics().events();
        let from = self.observed;
        self.observed = events.len();
        for (k, rec) in events.iter().enumerate().skip(from) {
            let Some(g) = self.oracles.iter().position(|&(s, _)| s == rec.group) else {
                continue; // the router's own events
            };
            if let Err(v) = self.oracles[g].1.observe(rec) {
                return Err(self.violation(g, ConsistencyError::Trace(v), k + 1));
            }
        }
        Ok(())
    }

    /// Verifies cross-replica safety invariants, group by group: the
    /// trace oracle over the events logged since the previous check, the
    /// green ids recovered replicas reloaded, then database convergence
    /// and the single-primary rule over the live (non-crashed,
    /// non-joining) replicas. A violation carries the offending group's
    /// recent typed protocol events as context.
    pub fn try_check_consistency(
        &mut self,
    ) -> Result<ConsistencyReport, Box<ConsistencyViolation>> {
        self.observe_events()?;
        let mut live: Vec<Vec<ReplicaView>> = vec![Vec::new(); self.oracles.len()];
        for i in 0..self.servers.len() {
            let (node, g) = (self.servers[i].node, self.servers[i].group as usize);
            let reloaded = self.oracles[g].1.reloaded(node.index());
            let (view, floor, tail) = self.with_engine(i, |e| {
                let floor = e.green_floor();
                let n = (reloaded.saturating_sub(floor) as usize).min(e.green_tail().len());
                let tail: Vec<(u32, u64)> = e.green_tail()[..n]
                    .iter()
                    .map(|id| (id.server.index(), id.index))
                    .collect();
                let view = ReplicaView {
                    node,
                    state: e.state(),
                    green_count: e.green_count(),
                    db_digest: e.db_digest(),
                    prim_index: e.prim_component().prim_index,
                };
                (view, floor, tail)
            });
            if matches!(view.state, EngineState::Down | EngineState::Joining) {
                continue;
            }
            if let Err(v) = self.oracles[g].1.check_reloaded(node.index(), floor, &tail) {
                let upto = self.observed;
                return Err(self.violation(g, ConsistencyError::Trace(v), upto));
            }
            live[g].push(view);
        }
        for (g, views) in live.iter().enumerate() {
            if let Err(error) = verify_db_convergence(views).and(verify_single_primary(views)) {
                return Err(self.violation(g, error, self.observed));
            }
        }
        let mut trace = TraceStats::default();
        for (_, oracle) in &self.oracles {
            trace += oracle.stats();
        }
        let greens = || live.iter().flatten().map(|v| v.green_count);
        Ok(ConsistencyReport {
            replicas_checked: greens().count(),
            min_green: greens().min().unwrap_or(0),
            max_green: greens().max().unwrap_or(0),
            trace,
        })
    }

    /// Asserts cross-replica safety invariants (panicking wrapper over
    /// [`Cluster::try_check_consistency`]).
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn check_consistency(&mut self) {
        if let Err(v) = self.try_check_consistency() {
            panic!("{v}");
        }
    }

    /// Feeds the oracles the rest of the log, then checks their
    /// end-of-run clauses (durability, eventual green, lease overlap,
    /// the fast-commit promise) over each group's surviving (not
    /// [`EngineState::Down`]) replicas. Call it once the run has healed
    /// and drained; it returns what the whole trace check covered.
    pub fn try_check_history(&mut self) -> Result<TraceStats, Box<ConsistencyViolation>> {
        self.observe_events()?;
        let mut survivors = vec![BTreeSet::new(); self.oracles.len()];
        for i in 0..self.servers.len() {
            if self.engine_state(i) != EngineState::Down {
                let server = &self.servers[i];
                survivors[server.group as usize].insert(server.node.index());
            }
        }
        let mut stats = TraceStats::default();
        for (g, survivors) in survivors.iter().enumerate() {
            match self.oracles[g].1.finish(survivors) {
                Ok(s) => stats += s,
                Err(v) => return Err(self.violation(g, ConsistencyError::Trace(v), self.observed)),
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(node: u32, green_count: u64) -> ReplicaView {
        ReplicaView {
            node: NodeId::new(node),
            state: EngineState::NonPrim,
            green_count,
            db_digest: 0,
            prim_index: 0,
        }
    }

    #[test]
    fn db_convergence_rejects_digest_mismatch() {
        let mut a = view(0, 1);
        let mut b = view(1, 1);
        assert_eq!(verify_db_convergence(&[a.clone(), b.clone()]), Ok(()));
        a.db_digest = 1;
        b.db_digest = 2;
        let err = verify_db_convergence(&[a, b]).unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
    }

    #[test]
    fn single_primary_is_pure_over_views() {
        let mut a = view(0, 1);
        let mut b = view(1, 1);
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
            group: 0,
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
