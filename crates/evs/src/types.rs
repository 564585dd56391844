//! Application-facing types: configurations and deliveries.

use std::fmt;
use std::rc::Rc;

use serde::{Deserialize, Serialize};
use todr_net::NodeId;

/// Identifier of a regular configuration.
///
/// Uniqueness: the installing coordinator picks `seq` = 1 + the largest
/// configuration sequence number any member of the new configuration has
/// seen. Two components that split from the same configuration may pick
/// the same `seq`, but they necessarily have different coordinators, so
/// the pair is unique. Ordering by `(seq, coordinator)` gives a total
/// order consistent with causality on any single node's installation
/// history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ConfId {
    /// Monotonically growing configuration sequence number: a daemon
    /// installs at most `u32::MAX` configurations.
    pub seq: u32,
    /// The coordinator that installed the configuration.
    pub coordinator: NodeId,
}

impl ConfId {
    /// The sentinel id of a daemon's initial, not-yet-installed
    /// configuration.
    pub fn initial(node: NodeId) -> Self {
        ConfId {
            seq: 0,
            coordinator: node,
        }
    }
}

impl fmt::Display for ConfId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conf({},{})", self.seq, self.coordinator)
    }
}

/// A membership: a configuration id plus its member list (sorted by node
/// id).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Configuration {
    /// Configuration identifier.
    pub id: ConfId,
    /// Members, in ascending node-id order.
    pub members: Vec<NodeId>,
}

impl Configuration {
    /// Creates a configuration, sorting the members.
    pub fn new(id: ConfId, mut members: Vec<NodeId>) -> Self {
        members.sort_unstable();
        members.dedup();
        Configuration { id, members }
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.binary_search(&node).is_ok()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether there are no members (never true for installed
    /// configurations).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The configuration's coordinator (smallest member id).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is empty.
    pub fn coordinator(&self) -> NodeId {
        self.members[0]
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.id, self.members)
    }
}

/// One application message handed up by the daemon.
#[derive(Clone)]
pub struct Delivery {
    /// The node whose daemon submitted the message.
    pub sender: NodeId,
    /// The application payload (shared across all local deliveries).
    pub payload: Rc<dyn std::any::Any>,
    /// The regular configuration within which the message was sequenced.
    pub conf_id: ConfId,
    /// Global sequence number within `conf_id` — the agreed total order.
    pub seq: u64,
    /// `false`: delivered in the regular configuration with the full
    /// safe-delivery guarantee. `true`: delivered in the transitional
    /// configuration — ordered, but possibly missing at members of
    /// `conf_id` that went to a different component.
    pub in_transitional: bool,
    /// Set on the final delivery of each batch the daemon hands over at
    /// once. A batch's deliveries reach the application back to back at
    /// one instant, with nothing else of its in between, so it may
    /// defer per-batch work until it sees this flag.
    pub last_in_batch: bool,
}

/// A delivery slot as the event log records it. Slots count in `u64`;
/// the log's `u32` saturates, so a configuration past `u32::MAX`
/// messages repeats slot `u32::MAX` and fails the trace oracle's
/// slot-order check instead of aliasing an earlier slot.
pub(crate) fn log_slot(seq: u64) -> u32 {
    u32::try_from(seq).unwrap_or(u32::MAX)
}

/// How many deliveries at the head of `batch` the event log can keep as
/// one run: consecutive slots of one configuration, all in the regular
/// or all in the transitional configuration, each below the log's
/// `u32::MAX` saturation. At least 1 unless `batch` is empty.
pub(crate) fn run_len(batch: &[Delivery]) -> usize {
    let Some(first) = batch.first() else {
        return 0;
    };
    let same_run = |(i, d): (usize, &Delivery)| {
        d.conf_id == first.conf_id
            && d.in_transitional == first.in_transitional
            && first.seq.checked_add(i as u64) == Some(d.seq)
            && d.seq < u64::from(u32::MAX)
    };
    1 + batch
        .iter()
        .enumerate()
        .skip(1)
        .take_while(|&p| same_run(p))
        .count()
}

impl fmt::Debug for Delivery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Delivery")
            .field("sender", &self.sender)
            .field("conf_id", &self.conf_id)
            .field("seq", &self.seq)
            .field("in_transitional", &self.in_transitional)
            .field("last_in_batch", &self.last_in_batch)
            .finish_non_exhaustive()
    }
}

/// Events the daemon sends to its application actor.
#[derive(Debug, Clone)]
pub enum EvsEvent {
    /// A new regular configuration was installed.
    RegConf(Configuration),
    /// A transitional configuration: the members of the previous regular
    /// configuration that are moving together to the next one. Delivered
    /// before the remaining (non-safe) messages of the previous
    /// configuration.
    TransConf(Configuration),
    /// An application message.
    Deliver(Delivery),
    /// An early **receipt** of an application message: the coordinator
    /// has sequenced it and this daemon holds it, so its position in
    /// the agreed total order of the current regular configuration is
    /// fixed — but it is *not yet stable* (safe delivery has not been
    /// announced) and a [`EvsEvent::Deliver`] for the same message will
    /// follow. Only emitted when
    /// [`EvsConfig::eager_receipts`](crate::EvsConfig) is set. Should a
    /// view change intervene, every receipted message is still
    /// (transitionally) delivered at every daemon that receipted it —
    /// receipts never replace deliveries, they just reveal the agreed
    /// order one stability round earlier.
    Receipt(Delivery),
    /// A **read-lease renewal** signal for the named regular
    /// configuration: the daemon is in steady state and has heard a
    /// heartbeat from *every* member of that configuration within the
    /// last two heartbeat intervals — fresh, direct evidence that no
    /// membership change is brewing. Only emitted when
    /// [`EvsConfig::lease_heartbeats`](crate::EvsConfig) is set. The
    /// engine uses this to extend its epoch-sealed read lease; any
    /// membership doubt (a missing heartbeat, a gather round, a
    /// transitional configuration) silences the signal and the lease
    /// drains by timeout.
    LeaseRenew(ConfId),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn conf_id_ordering() {
        let a = ConfId {
            seq: 1,
            coordinator: n(5),
        };
        let b = ConfId {
            seq: 2,
            coordinator: n(0),
        };
        let c = ConfId {
            seq: 2,
            coordinator: n(3),
        };
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn configuration_sorts_and_dedups_members() {
        let conf = Configuration::new(ConfId::initial(n(0)), vec![n(3), n(1), n(3), n(2)]);
        assert_eq!(conf.members, vec![n(1), n(2), n(3)]);
        assert_eq!(conf.len(), 3);
        assert_eq!(conf.coordinator(), n(1));
        assert!(conf.contains(n(2)));
        assert!(!conf.contains(n(9)));
    }

    #[test]
    fn initial_conf_id_is_seq_zero() {
        let id = ConfId::initial(n(4));
        assert_eq!(id.seq, 0);
        assert_eq!(id.coordinator, n(4));
    }

    #[test]
    fn display_forms() {
        let id = ConfId {
            seq: 3,
            coordinator: n(1),
        };
        assert_eq!(id.to_string(), "conf(3,n1)");
    }

    #[test]
    fn a_run_is_consecutive_slots_of_one_configuration_below_saturation() {
        let conf = |seq| ConfId {
            seq,
            coordinator: n(0),
        };
        let d = |c: u32, seq: u64, in_transitional: bool| Delivery {
            sender: n(1),
            payload: Rc::new(()),
            conf_id: conf(c),
            seq,
            in_transitional,
            last_in_batch: false,
        };
        let max = u64::from(u32::MAX);
        assert_eq!(run_len(&[]), 0);
        assert_eq!(run_len(&[d(1, 5, false)]), 1);
        assert_eq!(
            run_len(&[d(1, 5, false), d(1, 6, false), d(1, 7, false)]),
            3
        );
        // A gap, another configuration or the transitional flag ends it.
        assert_eq!(run_len(&[d(1, 5, false), d(1, 7, false)]), 1);
        assert_eq!(run_len(&[d(1, 5, false), d(2, 6, false)]), 1);
        assert_eq!(run_len(&[d(1, 5, false), d(1, 6, true)]), 1);
        assert_eq!(run_len(&[d(1, 5, true), d(1, 6, true), d(1, 8, true)]), 2);
        // Slot u32::MAX and beyond saturate in the log: singles only.
        assert_eq!(run_len(&[d(1, max - 2, false), d(1, max - 1, false)]), 2);
        assert_eq!(run_len(&[d(1, max - 1, false), d(1, max, false)]), 1);
        assert_eq!(run_len(&[d(1, max, false), d(1, max + 1, false)]), 1);
    }

    #[test]
    fn log_slot_is_exact_up_to_u32_max_then_saturates() {
        assert_eq!(log_slot(0), 0);
        assert_eq!(log_slot(u64::from(u32::MAX)), u32::MAX);
        assert_eq!(log_slot(u64::from(u32::MAX) + 1), u32::MAX);
        assert_eq!(log_slot(u64::MAX), u32::MAX);
    }
}
