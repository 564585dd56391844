//! What the engine writes to stable storage and how it recovers.
//!
//! The engine persists two kinds of data through its
//! [`StorageHandle`] (the sim store's image, mirrored to files on the
//! file backend):
//!
//! * an **append-only log** of [`PersistEntry`] values — every action
//!   body once (a peer's when first accepted, i.e. marked red; an own
//!   one at its creation, so the `ongoingQueue` is the own bodies not
//!   yet red) and, by id, every own red mark and every green transition;
//! * small **records**: the base, the membership records, the creator
//!   counter (staged with each creation) and the incarnation.
//!
//! All writes are staged; the engine's `** sync to disk` points request a
//! forced write from the [`DiskActor`](todr_storage::DiskActor) and the
//! staging area is committed when the platter write completes. A crash
//! discards staged data, so recovery sees exactly the state as of the
//! last completed sync — which is the assumption the paper's recovery
//! procedure (Appendix A, CodeSegment A.13) is built on.

use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use todr_net::NodeId;
use todr_storage::{encode_record, LogFaultKind, SharedEntry, StorageHandle};

use crate::action::{Action, ActionId, Body};
use crate::knowledge::{Accept, Knowledge};
use crate::quorum::{VulnerableRecord, YellowRecord};
use crate::types::GreenBase;

/// Why recovery could not reconstruct a usable state from stable
/// storage.
///
/// Produced by `persist::recover` when the persisted image fails
/// validation; storage-level [`todr_storage::LogFault`]s map onto it
/// too. A fault confined to the final log record is repaired by
/// truncation (the paper's `vulnerable`-record argument makes a lost
/// red tail recoverable from peers); anything earlier fail-stops the
/// replica with one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// A named record's bytes failed to deserialize.
    CorruptRecord {
        /// The record key.
        key: String,
        /// Codec-level detail.
        detail: String,
    },
    /// A log entry's bytes failed to deserialize as a log entry, or a
    /// verified one does not follow from the base record and the entries
    /// before it (its action is not its creator's next red or, for a
    /// green mark, next green).
    UndecodableEntry {
        /// Zero-based index of the offending log entry.
        index: u64,
    },
    /// The log failed its integrity scan (checksum mismatch or
    /// incarnation-epoch regression) somewhere other than the
    /// truncatable tail.
    MidLogFault {
        /// Zero-based index of the first invalid log record.
        index: u64,
        /// Human-readable description of the fault.
        detail: String,
    },
}

impl RecoveryError {
    /// The log index the error points at, when it concerns the log.
    pub fn log_index(&self) -> Option<u64> {
        match self {
            RecoveryError::CorruptRecord { .. } => None,
            RecoveryError::UndecodableEntry { index }
            | RecoveryError::MidLogFault { index, .. } => Some(*index),
        }
    }
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::CorruptRecord { key, detail } => {
                write!(f, "record {key:?} is corrupt: {detail}")
            }
            RecoveryError::UndecodableEntry { index } => {
                write!(f, "log entry {index} does not decode or does not follow")
            }
            RecoveryError::MidLogFault { index, detail } => {
                write!(f, "log integrity fault at entry {index}: {detail}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// One entry in the persisted action log, as recovery reads it back.
#[derive(Debug, Deserialize)]
pub(crate) enum PersistEntry {
    /// An action body: a peer's, logged when the action is first
    /// accepted here; this server's own, logged when it is created.
    Accepted(Action),
    /// The action became green (global order position implied by entry
    /// order).
    Green(ActionId),
    /// An own action, logged at its creation, became red here.
    Red(ActionId),
}

/// The write side of [`PersistEntry`]: the same variants in the same
/// order, so the same bytes, with the body borrowed.
#[derive(Serialize)]
enum LogEntry<'a> {
    Accepted(&'a Action),
    Green(ActionId),
    Red(ActionId),
}

/// `action`'s [`PersistEntry::Accepted`], encoded. Each body is encoded
/// once and the entry shared by every replica that logs it
/// ([`Body::accepted_entry`]).
pub(crate) fn accepted_entry(action: &Action) -> SharedEntry {
    SharedEntry::encode(&LogEntry::Accepted(action))
}

/// `id`'s [`PersistEntry::Green`], encoded (once per body too:
/// [`Body::green_entry`]).
pub(crate) fn green_entry(id: ActionId) -> SharedEntry {
    SharedEntry::encode(&LogEntry::Green(id))
}

/// Record keys.
pub(crate) const K_BASE: &str = "base";
pub(crate) const K_PRIM: &str = "prim_component";
pub(crate) const K_ATTEMPT: &str = "attempt_index";
pub(crate) const K_VULNERABLE: &str = "vulnerable";
pub(crate) const K_YELLOW: &str = "yellow";
pub(crate) const K_GREEN_LINES: &str = "green_lines";
pub(crate) const K_SERVER_SET: &str = "server_set";
pub(crate) const K_ACTION_INDEX: &str = "action_index";
const K_INCARNATION: &str = "incarnation";

impl Knowledge {
    /// `MarkRed` ([`Knowledge::accept_red`]), staging what replays it
    /// when it accepts ([`Knowledge::stage_red`]).
    pub(crate) fn accept_staged(&mut self, store: &mut StorageHandle, action: &Rc<Body>) -> Accept {
        let logged = self.queued(&action.id).is_some();
        let verdict = self.accept_red(action);
        if verdict == Accept::New {
            self.stage_red(store, action, logged);
        }
        verdict
    }

    /// Stages a red body: its `Accepted` entry unless it is `logged` (an
    /// own action's, at its creation), and an own action's red mark.
    fn stage_red(&self, store: &mut StorageHandle, body: &Body, logged: bool) {
        if !logged {
            store.append_shared(body.accepted_entry());
        }
        if body.id.server == self.me {
            store.append_shared(&SharedEntry::encode(&LogEntry::Red(body.id)));
        }
    }

    /// Stages the membership records (Appendix A's `primComponent`,
    /// `attemptIndex`, `vulnerable`, `yellow`, `greenLines`,
    /// `serverSet`).
    pub(crate) fn save_records(&self, store: &mut StorageHandle) {
        store.put_record(K_PRIM, &self.prim_component);
        store.put_record(K_ATTEMPT, &self.attempt_index);
        store.put_record(K_VULNERABLE, &self.vulnerable);
        store.put_record(K_YELLOW, &self.yellow);
        store.put_record(K_GREEN_LINES, &self.green_lines);
        store.put_record(K_SERVER_SET, &self.server_set);
    }

    /// Compacts persistence: the current green state becomes the base
    /// record and the log restarts with the red bodies on top of it (an
    /// own one with its red mark), then the queued own bodies.
    /// The base record is a [`GreenBase`], so what recovery reads back
    /// is adopted by the rule every other base takes.
    ///
    /// The record is a function of the database version, the green
    /// count and the green cuts, so it is encoded once per version
    /// ([`todr_db::Database::encode_once`], keyed by the other two) and
    /// every replica that checkpoints that version at that count and
    /// those cuts stores the same bytes.
    pub(crate) fn save_base(&self, store: &mut StorageHandle) {
        let base = self.green_base();
        let key = encode_record(&(base.green_count, &base.green_cut));
        let bytes = self.db.encode_once(&key, || encode_record(&base));
        store.put_record_shared(K_BASE, bytes);
        store.truncate_log();
        for body in self.red_bodies() {
            self.stage_red(store, body, false);
        }
        for body in self.own_queue() {
            store.append_shared(body.accepted_entry());
        }
    }
}

/// Stages an own action at its creation ([`Knowledge::create_action`]):
/// its `Accepted` entry and the creator counter, its index.
pub(crate) fn stage_created(store: &mut StorageHandle, action: &Body) {
    store.put_record(K_ACTION_INDEX, &action.id.index);
    store.append_shared(action.accepted_entry());
}

/// The named record `key`, if any.
fn record<T: DeserializeOwned>(
    store: &StorageHandle,
    key: &str,
) -> Result<Option<T>, RecoveryError> {
    store
        .get_record(key)
        .map_err(|e| RecoveryError::CorruptRecord {
            key: key.to_string(),
            detail: e.to_string(),
        })
}

/// Reads the persisted image back (after a simulated crash): the base
/// record and the green lines, taken by the one adoption rule
/// ([`Knowledge::adopt_base`]), the live rules ([`Knowledge::queue_own`],
/// [`Knowledge::accept_red`], [`Knowledge::mark_green`]) folded over the
/// log on top of it — which rebuilds the green database and the
/// own-action queue as it goes — and the named records. `held` supplies
/// the primary component and server set for a store that never
/// completed a forced write holding them.
///
/// # Errors
///
/// Returns a [`RecoveryError`] when a named record or a log entry fails
/// to deserialize, or a `verified` entry does not follow. With fault
/// injection off this would be an engine bug; with it on, it is the
/// environmental condition the recovery protocol exists for —
/// [`recover`] decides between tail truncation and fail-stop.
pub(crate) fn load(
    store: &StorageHandle,
    held: &Knowledge,
    verified: bool,
) -> Result<Knowledge, RecoveryError> {
    let base: GreenBase = record(store, K_BASE)?.unwrap_or_default();
    // The base holds each creator's green prefix, so its cuts sum to its
    // count; and a green mark must still fit above that count.
    let sum = (base.green_cut.values()).try_fold(0, |sum: u64, &cut| sum.checked_add(cut));
    if sum != Some(base.green_count) || base.green_count == u64::MAX {
        let (key, detail) = (K_BASE.to_string(), "cuts and count disagree".to_string());
        return Err(RecoveryError::CorruptRecord { key, detail });
    }
    let log = store.read_log();
    let undecodable = |index| RecoveryError::UndecodableEntry { index };
    let entries: Vec<PersistEntry> = (log.iter().enumerate())
        .map(|(index, record)| record.decode().map_err(|_| undecodable(index as u64)))
        .collect::<Result<_, _>>()?;
    let green_lines = record(store, K_GREEN_LINES)?.unwrap_or_default();
    let mut k = Knowledge::new(held.me, []);
    k.adopt_base(base, &green_lines);
    k.prim_component = record(store, K_PRIM)?.unwrap_or_else(|| held.prim_component.clone());
    k.attempt_index = record(store, K_ATTEMPT)?.unwrap_or(0);
    k.vulnerable = record(store, K_VULNERABLE)?.unwrap_or_else(VulnerableRecord::invalid);
    k.yellow = record(store, K_YELLOW)?.unwrap_or_else(YellowRecord::invalid);
    k.server_set = record(store, K_SERVER_SET)?
        .filter(|set: &BTreeSet<NodeId>| !set.is_empty())
        .unwrap_or_else(|| held.server_set.clone());
    k.action_index = record(store, K_ACTION_INDEX)?.unwrap_or(0);
    // Only the `SkipChecksumVerify` mutation replays an unverified log,
    // where a stale sector is a no-op and a green mark is applied
    // whenever its body is red here.
    for (index, entry) in (0..).zip(entries) {
        let follows = match entry {
            PersistEntry::Accepted(action) if action.id.server == k.me => {
                k.queue_own(Body::new(action))
            }
            PersistEntry::Accepted(action) => k.accept_red(&Body::new(action)) == Accept::New,
            PersistEntry::Red(id) => {
                let body = k.queued(&id).cloned();
                body.is_some_and(|body| k.accept_red(&body) == Accept::New)
            }
            PersistEntry::Green(id) => {
                let next = k.next_green(id.server).filter(|body| body.id == id);
                let body = if verified { next } else { k.red_body(&id) };
                body.cloned().is_some_and(|body| k.mark_green(&body))
            }
        };
        if verified && !follows {
            return Err(undecodable(index));
        }
    }
    Ok(k)
}

/// `Recover`'s storage half (CodeSegment A.13, hardened): scan the log,
/// repair a torn final record, reload, and seal a new incarnation into
/// the epoch every later record carries. A checksum fault in the final
/// record only is the expected torn write: that append was never
/// acknowledged durable, and the exchange re-fetches what it held. A
/// fault anywhere earlier, or an epoch regression even at the tail, is
/// a [`RecoveryError::MidLogFault`]. With `verify` off (the
/// `SkipChecksumVerify` mutation) there is no scan, and the log is cut
/// at its first undecodable entry instead of failing.
///
/// Returns the truncated torn record's index — on failure too, for the
/// truncation has happened — and the reloaded knowledge.
pub(crate) fn recover(
    store: &mut StorageHandle,
    held: &Knowledge,
    verify: bool,
) -> (Option<u64>, Result<Knowledge, RecoveryError>) {
    let mut torn = None;
    let scan = if verify { store.verify_log() } else { Ok(()) };
    if let Err(fault) = scan {
        if fault.index + 1 != store.log_len() as u64 || fault.kind != LogFaultKind::Checksum {
            let (index, detail) = (fault.index, fault.to_string());
            return (None, Err(RecoveryError::MidLogFault { index, detail }));
        }
        store.truncate_log_from(fault.index);
        torn = Some(fault.index);
    }
    (torn, reload(store, held, verify))
}

/// [`recover`] after the scan: load, then seal the next incarnation.
fn reload(
    store: &mut StorageHandle,
    held: &Knowledge,
    verify: bool,
) -> Result<Knowledge, RecoveryError> {
    let k = match load(store, held, verify) {
        Err(RecoveryError::UndecodableEntry { index }) if !verify => {
            store.truncate_log_from(index);
            load(store, held, verify)?
        }
        loaded => loaded?,
    };
    // Unverified, a corrupt counter restarts at the first incarnation.
    let previous = record(store, K_INCARNATION).or_else(|e| if verify { Err(e) } else { Ok(None) });
    let incarnation = previous?.unwrap_or(0) + 1;
    store.put_record(K_INCARNATION, &incarnation);
    store.set_epoch(incarnation);
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionKind, ClientId};
    use crate::quorum::PrimComponent;
    use std::collections::BTreeMap;
    use std::rc::Rc;
    use todr_db::Op;
    use todr_storage::seal_record;

    /// The replica the stores belong to: it created none of the
    /// actions below but those of creator 9.
    const HOLDER: NodeId = NodeId::new(9);

    /// Loads on top of a replica that was configured with no servers.
    fn load(store: &StorageHandle) -> Result<Knowledge, RecoveryError> {
        super::load(store, &Knowledge::new(HOLDER, []), true)
    }

    fn action(server: u32, index: u64) -> Rc<Body> {
        Body::new(Action {
            id: ActionId {
                server: NodeId::new(server),
                index,
            },
            green_line: 0,
            client: ClientId(1),
            kind: ActionKind::App {
                query: None,
                update: Op::put("t", format!("{server}-{index}"), 1i64),
            },
            size_bytes: 200,
        })
    }

    #[test]
    fn load_from_empty_store_gives_defaults() {
        let store = StorageHandle::sim();
        let st = load(&store).expect("empty store loads");
        assert_eq!(st.retained(), 0);
        assert!(st.green_tail.is_empty());
        assert_eq!(st.attempt_index, 0);
        assert!(!st.vulnerable.valid);
    }

    #[test]
    fn log_replay_rebuilds_colors() {
        let mut store = StorageHandle::sim();
        let a1 = action(0, 1);
        let a2 = action(0, 2);
        let b1 = action(1, 1);
        store.append_shared(a1.accepted_entry());
        store.append_shared(b1.accepted_entry());
        store.append_shared(a1.green_entry());
        store.append_shared(a2.accepted_entry());
        store.commit_staged().unwrap();
        let st = load(&store).expect("clean log loads");
        assert_eq!(st.green_tail, vec![a1.id]);
        assert_eq!(
            st.red_bodies().map(|b| b.id).collect::<Vec<_>>(),
            vec![a2.id, b1.id] // ActionId order: (n0,2) < (n1,1)
        );
        assert_eq!(st.red_cut(NodeId::new(0)), 2);
        assert_eq!(st.red_cut(NodeId::new(1)), 1);
        assert_eq!(st.retained(), 3);
    }

    #[test]
    fn staged_entries_vanish_on_crash() {
        let mut store = StorageHandle::sim();
        store.append_shared(action(0, 1).accepted_entry());
        store.commit_staged().unwrap();
        store.append_shared(action(0, 2).accepted_entry());
        store.crash();
        let st = load(&store).expect("clean log loads");
        assert_eq!(st.retained(), 1);
        assert_eq!(st.red_cut(NodeId::new(0)), 1);
    }

    #[test]
    fn records_roundtrip() {
        let mut store = StorageHandle::sim();
        let prim = PrimComponent::initial((0..3).map(NodeId::new));
        store.put_record(K_PRIM, &prim);
        store.put_record(K_ATTEMPT, &7u64);
        let vul = VulnerableRecord::new_attempt(1, 2, (0..2).map(NodeId::new));
        store.put_record(K_VULNERABLE, &vul);
        store.append_shared(action(9, 1).accepted_entry());
        store.commit_staged().unwrap();
        let st = load(&store).expect("clean records load");
        assert_eq!(st.prim_component, prim);
        assert_eq!(st.attempt_index, 7);
        assert_eq!(st.vulnerable, vul);
        assert_eq!(st.own_queue().count(), 1);
    }

    /// The `base` record of [`pinned_base`], byte for byte, as the
    /// store held it when the record had a type of its own: a base
    /// written now must be the record an older store holds.
    const BASE_BYTES: [u8; 60] = [
        0xb1, 0x0c, 0x03, 0x0c, 0x03, 0x09, 0x01, 0x06, 0x01, 0x74, 0x08, 0x02, 0x0c, 0x04, 0x06,
        0x01, 0x6b, 0x0b, 0x0d, 0x02, 0x03, 0x07, 0x0a, 0x03, 0x01, 0x0c, 0x04, 0x06, 0x04, 0x62,
        0x6c, 0x6f, 0x62, 0x0b, 0x0d, 0x04, 0x07, 0x03, 0xab, 0xab, 0xab, 0x0a, 0x03, 0x01, 0x03,
        0x02, 0x03, 0x00, 0x03, 0x03, 0x09, 0x02, 0x03, 0x00, 0x03, 0x02, 0x03, 0x03, 0x03, 0x01,
    ];

    /// Two rows, three green actions, two creators' cuts.
    fn pinned_base() -> GreenBase {
        let mut db = todr_db::Database::new();
        db.apply(&Op::put("t", "k", 7i64));
        db.apply(&Op::put("t", "blob", vec![0xAB; 3]));
        GreenBase {
            db,
            green_count: 3,
            green_cut: [(NodeId::new(0), 2), (NodeId::new(3), 1)].into(),
        }
    }

    #[test]
    fn a_saved_base_is_the_pinned_record() {
        let sealed = seal_record(&BASE_BYTES);
        assert_eq!(&encode_record(&pinned_base())[..], &sealed[..]);
        let mut k = Knowledge::new(NodeId::new(0), []);
        k.adopt_base(pinned_base(), &BTreeMap::new());
        let mut store = StorageHandle::sim();
        k.save_base(&mut store);
        let saved = store.get_record_bytes(K_BASE);
        assert!(matches!(saved, Ok(Some(bytes)) if bytes == sealed));
    }

    #[test]
    fn a_base_whose_cuts_do_not_sum_to_its_count_is_corrupt() {
        for (green_count, cut) in [(4, 3), (2, 3), (u64::MAX, u64::MAX)] {
            let base = GreenBase {
                green_count,
                green_cut: [(NodeId::new(0), cut)].into(),
                ..pinned_base()
            };
            let mut store = StorageHandle::sim();
            store.put_record(K_BASE, &base);
            match load(&store) {
                Err(RecoveryError::CorruptRecord { key, .. }) => assert_eq!(key, K_BASE),
                other => panic!("{green_count}/{cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn the_pinned_record_loads_as_its_base() {
        let base = pinned_base();
        let mut store = StorageHandle::sim();
        store.put_record_bytes(K_BASE, seal_record(&BASE_BYTES));
        let st = super::load(&store, &Knowledge::new(NodeId::new(0), []), true);
        let st = st.expect("base loads");
        assert_eq!(st.green_base(), base);
        assert_eq!(st.db.row_version("t", "k"), base.db.row_version("t", "k"));
        assert_eq!((st.green_count, st.green_floor()), (3, 3));
        assert_eq!(st.red_cuts(), base.green_cut);
        assert_eq!(st.green_lines, [(NodeId::new(0), 3)].into());
    }

    #[test]
    fn a_record_whose_seal_fails_is_corrupt() {
        let sealed = seal_record(&BASE_BYTES);
        for (at, bit) in [(0, 0), (BASE_BYTES.len() / 2, 3), (sealed.len() - 1, 7)] {
            let mut damaged = sealed.clone();
            damaged[at] ^= 1 << bit;
            for bytes in [damaged, sealed[..sealed.len() - 1].to_vec()] {
                let mut store = StorageHandle::sim();
                store.put_record_bytes(K_BASE, bytes);
                match load(&store) {
                    Err(RecoveryError::CorruptRecord { key, detail }) => {
                        assert_eq!(key, K_BASE);
                        assert!(detail.contains("checksum"), "{detail}");
                    }
                    other => panic!("{at}.{bit}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_record_directory_written_as_json_fails_with_a_typed_error() {
        // What the store held before the binary codec: JSON text.
        let mut store = StorageHandle::sim();
        store.put_record_bytes(K_ATTEMPT, seal_record(b"7"));
        match load(&store).expect_err("JSON record must not be misread") {
            RecoveryError::CorruptRecord { key, .. } => assert_eq!(key, K_ATTEMPT),
            other => panic!("unexpected error {other:?}"),
        }
        let mut store = StorageHandle::sim();
        store.append_log(br#"{"Green":{"server":0,"index":1}}"#.to_vec());
        assert_eq!(
            load(&store).expect_err("JSON log entry must not be misread"),
            RecoveryError::UndecodableEntry { index: 0 }
        );
    }

    /// A store whose log holds, in order, each body's `Accepted` entry
    /// (`false`) or `Green` entry (`true`), durable.
    fn logged(entries: &[(Rc<Body>, bool)]) -> StorageHandle {
        let mut store = StorageHandle::sim();
        for (body, green) in entries {
            let entry = if *green {
                body.green_entry()
            } else {
                body.accepted_entry()
            };
            store.append_shared(entry);
        }
        assert!(store.commit_staged().is_ok());
        store
    }

    #[test]
    fn a_verified_entry_that_does_not_follow_is_a_typed_error() {
        // Sealed, so the scan passes: creator 0's second action with no
        // first, a duplicate, a green mark for an action never red, and
        // one past its creator's next red.
        let cases = [
            vec![(action(0, 2), false)],
            vec![(action(0, 1), false), (action(0, 1), false)],
            vec![(action(0, 1), false), (action(1, 1), true)],
            vec![
                (action(0, 1), false),
                (action(0, 2), false),
                (action(0, 2), true),
            ],
        ];
        for entries in cases {
            let store = logged(&entries);
            let index = entries.len() as u64 - 1;
            assert_eq!(
                load(&store).err(),
                Some(RecoveryError::UndecodableEntry { index })
            );
        }
        // Unverified, a stale duplicate is a no-op.
        let store = logged(&[(action(0, 1), false), (action(0, 1), false)]);
        let k = super::load(&store, &Knowledge::new(HOLDER, []), false);
        assert!(k.is_ok_and(|k| k.red_cut(NodeId::new(0)) == 1));
    }

    #[test]
    fn undecodable_log_entry_reports_its_index() {
        let mut store = StorageHandle::sim();
        store.append_shared(action(0, 1).accepted_entry());
        store.append_log(b"{ not a persist entry".to_vec());
        store.commit_staged().unwrap();
        assert_eq!(
            load(&store).expect_err("garbage entry must not load"),
            RecoveryError::UndecodableEntry { index: 1 }
        );
    }

    #[test]
    fn corrupt_named_record_reports_its_key() {
        let mut store = StorageHandle::sim();
        store.put_record(K_ATTEMPT, &"not a u64".to_string());
        store.commit_staged().unwrap();
        let err = load(&store).expect_err("corrupt record must not load");
        match err {
            RecoveryError::CorruptRecord { key, .. } => assert_eq!(key, K_ATTEMPT),
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(err_log_index(&store), None);
    }

    fn err_log_index(store: &StorageHandle) -> Option<u64> {
        load(store).expect_err("still corrupt").log_index()
    }

    /// A store whose log holds creator 0's actions `1..=n`, durable.
    fn durable(n: u64) -> StorageHandle {
        let mut store = StorageHandle::sim();
        for index in 1..=n {
            store.append_shared(action(0, index).accepted_entry());
        }
        assert!(store.commit_staged().is_ok());
        store
    }

    fn recover(
        store: &mut StorageHandle,
        verify: bool,
    ) -> (Option<u64>, Result<Knowledge, RecoveryError>) {
        super::recover(store, &Knowledge::new(HOLDER, []), verify)
    }

    #[test]
    fn recovery_truncates_a_torn_final_record_and_reports_its_index() {
        let mut store = durable(2);
        // With one entry staged, the torn crash tears exactly that one.
        store.append_shared(action(0, 3).accepted_entry());
        store.crash_torn(&mut todr_sim::SimRng::new(1));
        assert_eq!(store.log_len(), 3);
        let (torn, k) = recover(&mut store, true);
        assert_eq!(torn, Some(2));
        assert!(matches!(k, Ok(k) if k.red_cut(NodeId::new(0)) == 2));
        assert_eq!(store.log_len(), 2);
    }

    /// A fault in the final log record is cut as a torn write even when
    /// that record is an own action's `Accepted` entry, logged at its
    /// creation and committed before the action was sent. The counter
    /// committed with it keeps the next action off its index.
    #[test]
    fn a_cut_final_own_accept_leaves_its_index_used() {
        let me = NodeId::new(0);
        let kind = || action(0, 0).kind.clone();
        for seed in 0..8 {
            // Action 1 goes green into the base; the log restarts with a
            // peer's action, then action 2's creation.
            let mut store = StorageHandle::sim();
            let mut k = Knowledge::new(me, []);
            let own = k.create_action(&mut store, ClientId(1), kind(), 200);
            assert_eq!(k.accept_staged(&mut store, &own), Accept::New);
            assert!(k.mark_green(&own));
            k.save_base(&mut store);
            assert_eq!(k.accept_staged(&mut store, &action(1, 1)), Accept::New);
            assert!(store.commit_staged().is_ok());
            k.create_action(&mut store, ClientId(1), kind(), 200);
            assert!(store.commit_staged().is_ok());
            let rng = &mut todr_sim::SimRng::new(seed);
            if store.inject_bit_flip(rng).is_none_or(|f| f.index != 1) {
                continue; // the flip missed the final record
            }
            let (torn, k) = super::recover(&mut store, &Knowledge::new(me, []), true);
            assert_eq!(torn, Some(1));
            let Ok(mut k) = k else {
                panic!("a torn tail recovers");
            };
            assert_eq!((k.red_cut(me), k.own_queue().count()), (1, 0));
            let own = k.create_action(&mut store, ClientId(1), kind(), 200);
            assert_eq!(own.id.index, 3);
            return;
        }
        panic!("no seed flipped the final record");
    }

    /// The forced write that follows an own action's creation carries
    /// its body and the counter, however many actions are queued ahead
    /// of it (a partition queues them all).
    #[test]
    fn the_bytes_staged_for_a_queued_own_action_do_not_grow_with_the_queue() {
        let dir = std::env::temp_dir().join(format!("todr-persist-queue-{}", std::process::id()));
        let Ok(mut store) = StorageHandle::file(&dir) else {
            panic!("file store opens");
        };
        let mut k = Knowledge::new(NodeId::new(0), []);
        let mut written = Vec::new();
        for _ in 0..100 {
            k.create_action(&mut store, ClientId(1), action(0, 0).kind.clone(), 200);
            let before = store.io_stats().map(|io| io.file_bytes_written);
            assert!(store.commit_staged().is_ok());
            let after = store.io_stats().map(|io| io.file_bytes_written);
            written.push(after.zip(before).map_or(0, |(a, b)| a - b));
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(k.own_queue().count(), 100);
        assert!(written[0] > 0);
        assert!(written.iter().all(|&w| w == written[0]), "{written:?}");
    }

    #[test]
    fn a_checksum_fault_before_the_tail_is_a_mid_log_fault() {
        for seed in 0..8 {
            let mut store = durable(3);
            let rng = &mut todr_sim::SimRng::new(seed);
            let Some(hit) = store.inject_bit_flip(rng).filter(|f| f.index < 2) else {
                continue; // the flip hit the tail: that one is a torn write
            };
            let (torn, k) = recover(&mut store, true);
            assert_eq!(torn, None);
            assert!(
                matches!(k, Err(RecoveryError::MidLogFault { index, .. }) if index == hit.index)
            );
            assert_eq!(store.log_len(), 3, "a mid-log fault truncates nothing");
            return;
        }
        panic!("no seed flipped a record before the tail");
    }

    #[test]
    fn an_epoch_regression_at_the_tail_is_a_mid_log_fault_not_a_tear() {
        let mut store = durable(0);
        store.set_epoch(3);
        store.append_shared(action(0, 1).accepted_entry());
        assert!(store.commit_staged().is_ok());
        store.set_epoch(1);
        store.append_shared(action(0, 2).accepted_entry());
        assert!(store.commit_staged().is_ok());
        let (torn, k) = recover(&mut store, true);
        assert_eq!(torn, None);
        assert!(matches!(
            k,
            Err(RecoveryError::MidLogFault { index: 1, .. })
        ));
        assert_eq!(store.log_len(), 2);
    }

    #[test]
    fn unverified_recovery_cuts_the_log_at_its_first_undecodable_entry() {
        let mut store = durable(1);
        store.append_log(b"{ not a persist entry".to_vec());
        store.append_shared(action(0, 2).accepted_entry());
        assert!(store.commit_staged().is_ok());
        let (torn, k) = recover(&mut store, false);
        assert_eq!(torn, None);
        assert!(matches!(k, Ok(k) if k.red_cut(NodeId::new(0)) == 1));
        assert_eq!(store.log_len(), 1);
    }

    #[test]
    fn each_recovery_raises_the_incarnation_and_seals_the_epoch() {
        let mut store = durable(1);
        for incarnation in 1..=2u64 {
            assert!(recover(&mut store, true).1.is_ok());
            assert!(
                matches!(store.get_record::<u64>(K_INCARNATION), Ok(Some(i)) if i == incarnation)
            );
            assert_eq!(store.epoch(), incarnation);
            assert!(store.commit_staged().is_ok());
        }
    }

    #[test]
    fn truncating_an_undecodable_tail_makes_the_log_load() {
        let mut store = StorageHandle::sim();
        store.append_shared(action(0, 1).accepted_entry());
        store.append_log(b"{ torn".to_vec());
        store.commit_staged().unwrap();
        let index = load(&store).expect_err("torn tail").log_index().unwrap();
        store.truncate_log_from(index);
        let st = load(&store).expect("repaired log loads");
        assert_eq!(st.retained(), 1);
    }
}
