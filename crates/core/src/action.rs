//! Actions: the unit of replication.

use std::cell::OnceCell;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use serde::{Deserialize, Serialize};
use todr_db::keys::{write_set, Footprint};
use todr_db::{Op, Query};
use todr_net::NodeId;
use todr_storage::SharedEntry;

/// Identifier of a client, unique within the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Globally unique action identifier: the creating server plus that
/// server's action counter (`actionIndex` in the paper). Per-creator
/// indices are contiguous, which is what the `redCut` FIFO check relies
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ActionId {
    /// The server that created (stamped) the action.
    pub server: NodeId,
    /// The creator's action counter value (1-based).
    pub index: u64,
}

impl fmt::Display for ActionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.server, self.index)
    }
}

/// What an action does when it reaches the global order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActionKind {
    /// A client transaction: an optional query part and an update part
    /// (either may be trivial), per §2.2 of the paper.
    App {
        /// The query part, answered at the origin server when the action
        /// is applied.
        query: Option<Query>,
        /// The update part, applied at every server.
        update: Op,
    },
    /// `PERSISTENT_JOIN` (§5.1): announces a new replica. When this
    /// action turns green, every server extends its membership
    /// structures; the representative (the action's creator) starts the
    /// database transfer.
    PersistentJoin {
        /// The joining server.
        joiner: NodeId,
    },
    /// `PERSISTENT_LEAVE` (§5.1): permanently removes a replica (either
    /// voluntarily or administratively, e.g. after a permanent failure).
    PersistentLeave {
        /// The departing server.
        leaver: NodeId,
    },
}

/// An action message (the paper's `Action message` structure).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Action {
    /// Unique identifier (creator + index).
    pub id: ActionId,
    /// Number of actions the creator had marked green when it created
    /// this one; used to refresh `greenLines[creator]` when the action is
    /// ordered (input to the white line, i.e. garbage collection).
    pub green_line: u64,
    /// The requesting client (0 for engine-internal actions).
    pub client: ClientId,
    /// Payload.
    pub kind: ActionKind,
    /// Modelled payload size in bytes (the paper's evaluation uses
    /// 200-byte actions).
    pub size_bytes: u32,
}

/// An action as the replicas share it: one allocation per action, which
/// every replica that receives the multicast retains instead of a copy
/// of its own. It also carries the action's two log entries and its
/// write footprint: each is computed by the first replica that needs it
/// and shared by every later one.
pub(crate) struct Body {
    action: Action,
    accepted: OnceCell<SharedEntry>,
    greened: OnceCell<SharedEntry>,
    /// Boxed: only lease reads ask for it, and inline it would grow
    /// every body by 32 bytes.
    writes: OnceCell<Box<Footprint>>,
}

impl Body {
    pub(crate) fn new(action: Action) -> Rc<Body> {
        Rc::new(Body {
            action,
            accepted: OnceCell::new(),
            greened: OnceCell::new(),
            writes: OnceCell::new(),
        })
    }

    /// The action itself.
    pub(crate) fn action(&self) -> &Action {
        &self.action
    }

    /// The log entry that accepts this action (marks it red).
    pub(crate) fn accepted_entry(&self) -> &SharedEntry {
        self.accepted
            .get_or_init(|| crate::persist::accepted_entry(&self.action))
    }

    /// The log entry that marks this action green.
    pub(crate) fn green_entry(&self) -> &SharedEntry {
        self.greened
            .get_or_init(|| crate::persist::green_entry(self.action.id))
    }

    /// The rows this action writes. Membership actions write none.
    pub(crate) fn writes(&self) -> &Footprint {
        self.writes.get_or_init(|| {
            Box::new(match self.action.update() {
                Some(update) => write_set(update),
                None => Footprint::empty(),
            })
        })
    }
}

impl Deref for Body {
    type Target = Action;

    fn deref(&self) -> &Action {
        &self.action
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        self.action == other.action
    }
}

impl Eq for Body {}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.action.fmt(f)
    }
}

impl Action {
    /// Whether this is a reconfiguration action (join/leave).
    pub fn is_reconfiguration(&self) -> bool {
        matches!(
            self.kind,
            ActionKind::PersistentJoin { .. } | ActionKind::PersistentLeave { .. }
        )
    }

    /// The update part, if this is an application action.
    pub fn update(&self) -> Option<&Op> {
        match &self.kind {
            ActionKind::App { update, .. } => Some(update),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use todr_db::Value;

    fn aid(server: u32, index: u64) -> ActionId {
        ActionId {
            server: NodeId::new(server),
            index,
        }
    }

    #[test]
    fn action_id_orders_by_server_then_index() {
        assert!(aid(0, 5) < aid(1, 1));
        assert!(aid(1, 1) < aid(1, 2));
        assert_eq!(aid(2, 3).to_string(), "n2#3");
    }

    #[test]
    fn reconfiguration_classification() {
        let app = Action {
            id: aid(0, 1),
            green_line: 0,
            client: ClientId(1),
            kind: ActionKind::App {
                query: None,
                update: Op::put("t", "k", Value::Int(1)),
            },
            size_bytes: 200,
        };
        assert!(!app.is_reconfiguration());
        assert!(app.update().is_some());

        let join = Action {
            id: aid(0, 2),
            green_line: 0,
            client: ClientId(0),
            kind: ActionKind::PersistentJoin {
                joiner: NodeId::new(9),
            },
            size_bytes: 64,
        };
        assert!(join.is_reconfiguration());
        assert!(join.update().is_none());
    }
}
