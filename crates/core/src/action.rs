//! Actions: the unit of replication.

use std::cell::{OnceCell, RefCell};
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use serde::{Deserialize, Serialize};
use todr_db::conflict::{classify, ActionClass};
use todr_db::{Database, Op, Query};
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
/// of its own. It also carries the action's two log entries, its
/// conflict class and the green database it makes: each is computed by
/// the first replica that needs it and shared by every later one.
pub(crate) struct Body {
    action: Action,
    accepted: OnceCell<SharedEntry>,
    greened: OnceCell<SharedEntry>,
    /// Boxed: only lease reads and the fast path ask for it, and inline
    /// it would grow every body by 48 bytes.
    class: OnceCell<Box<ActionClass>>,
    /// The green applies of the update, until every replica has one.
    green: RefCell<GreenMemo>,
}

impl Body {
    pub(crate) fn new(action: Action) -> Rc<Body> {
        Rc::new(Body {
            action,
            accepted: OnceCell::new(),
            greened: OnceCell::new(),
            class: OnceCell::new(),
            green: RefCell::default(),
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

    /// Applies the update, if any, to the green database `db`: the one
    /// green-apply path. A replica on a version some earlier replica
    /// applied this update to takes the version that replica made —
    /// `apply` is a pure function of (state, op), so it is exactly what
    /// its own apply would make. A replica on any other version applies
    /// for itself and memoises its result beside the others, so a
    /// replica off the common version never splits the replicas on it,
    /// whatever order they green in. Once as many replicas as the server
    /// set holds have greened the action, no replica will look again
    /// and the memo lets its versions go. Returns whether the memo
    /// supplied the result.
    pub(crate) fn apply_green(&self, db: &mut Database, replicas: usize) -> bool {
        let Some(update) = self.action.update() else {
            return false;
        };
        let mut memo = self.green.borrow_mut();
        let parent = db.version();
        let shared = match memo.made_from(parent) {
            Some(made) => {
                *db = made.clone();
                true
            }
            None => {
                db.apply(update);
                memo.insert((parent, db.clone()));
                false
            }
        };
        memo.greened += 1;
        if memo.greened >= replicas {
            memo.first = None;
            memo.more = Vec::new();
        }
        shared
    }

    /// This action's conflict class: the rows it writes and reads, as
    /// the lease and fast-path checks compare them. `None` for a
    /// membership action.
    pub(crate) fn class(&self) -> Option<&ActionClass> {
        let ActionKind::App { query, update } = &self.action.kind else {
            return None;
        };
        Some(
            self.class
                .get_or_init(|| Box::new(classify(update, query.as_ref()))),
        )
    }
}

/// A body's green applies: for each version the update was applied to,
/// that version's id and the version it made. Nearly always one, held
/// inline.
#[derive(Default)]
struct GreenMemo {
    first: Option<(u64, Database)>,
    more: Vec<(u64, Database)>,
    /// Replicas that have greened the action.
    greened: usize,
}

impl GreenMemo {
    /// The version the update made from version `parent`, if memoised.
    fn made_from(&self, parent: u64) -> Option<&Database> {
        let mut all = self.first.iter().chain(&self.more);
        all.find(|(from, _)| *from == parent).map(|(_, made)| made)
    }

    fn insert(&mut self, entry: (u64, Database)) {
        match self.first {
            None => self.first = Some(entry),
            Some(_) => self.more.push(entry),
        }
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
    use todr_sim::SimRng;

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

    const TABLES: [&str; 4] = ["t", "u", "accounts", "history"];

    fn key(rng: &mut SimRng) -> String {
        format!("k{}", rng.gen_range(6))
    }

    /// A random update over a few rows, of every kind the green path
    /// applies: put, delete, incr, timestamped put, checked, batch and
    /// stored procedure.
    fn random_op(rng: &mut SimRng) -> Op {
        let table = TABLES[rng.gen_range(3) as usize];
        let k = key(rng);
        let n = rng.gen_range(100) as i64;
        match rng.gen_range(10) {
            0 => Op::put(table, k, n),
            1 => Op::put(table, k, "x".repeat(n as usize % 20)),
            2 => Op::delete(table, k),
            3 => Op::incr(table, k, n - 40),
            4 => Op::ts_put(table, k, n, rng.gen_range(8)),
            5 => Op::Checked {
                expect: vec![(table.into(), k, None)],
                then: vec![Op::put(table, key(rng), n)],
            },
            6 => Op::Batch((0..rng.gen_range(3)).map(|_| random_op(rng)).collect()),
            7 => Op::proc(
                "transfer",
                vec![Value::Text(k), Value::Text(key(rng)), Value::Int(n - 20)],
            ),
            _ => Op::proc(
                "append_history",
                vec![Value::Text(k), Value::Text("e".into())],
            ),
        }
    }

    fn app(index: u64, update: Op) -> Rc<Body> {
        Body::new(Action {
            id: aid(0, index),
            green_line: 0,
            client: ClientId(1),
            kind: ActionKind::App {
                query: None,
                update,
            },
            size_bytes: 200,
        })
    }

    /// One replica of the memo test: the database it greens through the
    /// memo, the updates it stands for, and what the memo rule says its
    /// version is (equal tokens: the same version).
    struct Replica {
        db: Database,
        history: Vec<Op>,
        token: u64,
    }

    impl Replica {
        /// The database equals a private replay of its history, applied
        /// without any memo, in every observable: digest, encoded and
        /// checkpoint bytes, counts, each row's version and `{:?}`.
        fn assert_matches_private_replay(&self, context: &str) {
            let mut private = Database::new();
            for op in &self.history {
                private.apply(op);
            }
            let bytes = serde::bin::to_vec(&private);
            assert_eq!(self.db.digest(), private.digest(), "{context}");
            assert_eq!(serde::bin::to_vec(&self.db), bytes, "{context}");
            let key: std::sync::Arc<[u8]> = b"base"[..].into();
            let checkpoint = self
                .db
                .encode_once(&key, || serde::bin::to_vec(&self.db).into());
            assert_eq!(&checkpoint[..], &bytes[..], "{context}");
            assert_eq!(
                self.db.applied_count(),
                private.applied_count(),
                "{context}"
            );
            assert_eq!(
                self.db.aborted_count(),
                private.aborted_count(),
                "{context}"
            );
            for table in TABLES {
                for k in (0..6).map(|i| format!("k{i}")) {
                    let (shared, own) = (
                        self.db.row_version(table, &k),
                        private.row_version(table, &k),
                    );
                    assert_eq!(shared, own, "{context}: {table}/{k}");
                }
            }
            assert_eq!(
                format!("{:?}", self.db),
                format!("{private:?}"),
                "{context}"
            );
            assert_eq!(self.db, private, "{context}");
        }
    }

    /// `k` in 2..=6 replicas green the same random updates in random
    /// interleavings through the memo. Replica 0 and any beyond the
    /// special roles stay in lock step; the last replica greens one
    /// different update and stays diverged; replica 1 (from three
    /// replicas) restarts from its decoded base; replica 2 (from four)
    /// lags and then adopts replica 0's snapshot. Every replica always
    /// equals a private replay of its own history; a replica takes the
    /// memo exactly when an earlier applier started from its version;
    /// replicas that start a step on one version end it on one version,
    /// all but the first having taken it; the diverged and restarted
    /// replicas never take it; and the memo is let go exactly when all
    /// `k` replicas have greened the action.
    #[test]
    fn the_green_memo_matches_a_private_replay() {
        let mut shared_total = 0;
        for seed in 0..150u64 {
            let mut rng = SimRng::new(seed);
            let k = 2 + rng.gen_range(5) as usize;
            let steps = 30 + rng.gen_range(30);
            let diverger = k - 1;
            let (restarter, adopter) = ((k >= 3).then_some(1), (k >= 4).then_some(2));
            let diverge_at = rng.gen_range(steps);
            let restart_at = rng.gen_range(steps);
            let (lag_from, adopt_at) = {
                let a = rng.gen_range(steps);
                (a / 2, a)
            };
            let mut replicas: Vec<Replica> = (0..k)
                .map(|_| Replica {
                    db: Database::new(),
                    history: Vec::new(),
                    token: 0,
                })
                .collect();
            let mut next_token = 1;
            let mut mint = || {
                next_token += 1;
                next_token
            };
            let mut order: Vec<usize> = (0..k).collect();
            for step in 0..steps {
                let context = format!("seed {seed} k {k} step {step}");
                if Some(1) == restarter.filter(|_| step == restart_at) {
                    let r = &mut replicas[1];
                    let Ok(db) = serde::bin::from_slice(&serde::bin::to_vec(&r.db)) else {
                        panic!("{context}: the base does not decode");
                    };
                    r.db = db;
                    r.token = mint();
                }
                if Some(2) == adopter.filter(|_| step == adopt_at) {
                    let donor = &replicas[0];
                    let (db, history, token) =
                        (donor.db.snapshot(), donor.history.clone(), donor.token);
                    replicas[2] = Replica { db, history, token };
                }
                let op = random_op(&mut rng);
                let body = app(step + 1, op.clone());
                let mut memo: Vec<(u64, u64)> = Vec::new();
                let mut other_memo: Vec<(u64, u64)> = Vec::new();
                let at_start: Vec<u64> = replicas.iter().map(|r| r.token).collect();
                let mut applied = vec![false; k];
                rng.shuffle(&mut order);
                for &i in &order {
                    if adopter == Some(i) && (lag_from..adopt_at).contains(&step) {
                        continue; // lagging behind until it adopts
                    }
                    let own = i == diverger && step == diverge_at;
                    let (body, op, memo) = if own {
                        let other = Op::put("t", "diverged", step as i64);
                        (app(step + 1, other.clone()), other, &mut other_memo)
                    } else {
                        (Rc::clone(&body), op.clone(), &mut memo)
                    };
                    let r = &mut replicas[i];
                    let hit = memo.iter().find(|(from, _)| *from == r.token);
                    let shared = body.apply_green(&mut r.db, k);
                    assert_eq!(shared, hit.is_some(), "{context}: replica {i}");
                    r.token = match hit {
                        Some(&(_, made)) => made,
                        None => {
                            let made = mint();
                            memo.push((r.token, made));
                            made
                        }
                    };
                    r.history.push(op);
                    applied[i] = !own;
                    let off = (i == diverger && step >= diverge_at)
                        || (Some(i) == restarter && step >= restart_at);
                    assert!(
                        !(off && shared),
                        "{context}: replica {i} is off the common version"
                    );
                    shared_total += u64::from(shared);
                }
                let memo = body.green.borrow();
                let all_greened = applied.iter().all(|&a| a);
                assert_eq!(memo.first.is_none(), all_greened, "{context}: memo kept");
                for (i, a) in replicas.iter().enumerate() {
                    for (j, b) in replicas.iter().enumerate().skip(i + 1) {
                        let same = a.db.version() == b.db.version();
                        assert_eq!(same, a.token == b.token, "{context}");
                        if applied[i] && applied[j] && at_start[i] == at_start[j] {
                            assert!(same, "{context}: {i} and {j} left lock step");
                        }
                    }
                }
                let r = &replicas[rng.gen_range(k as u64) as usize];
                r.assert_matches_private_replay(&context);
            }
            for (i, r) in replicas.iter().enumerate() {
                r.assert_matches_private_replay(&format!("seed {seed} replica {i}"));
            }
        }
        assert!(shared_total > 0, "the lock-step replicas share versions");
    }
}
