//! The deterministic state-machine database.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{bin, Deserialize, Serialize};

use crate::op::{Op, Query, QueryResult};
use crate::procs;
use crate::value::Value;

/// A row that has been written: its key, its value (none once deleted),
/// the timestamp of the timestamped update that last wrote it, and its
/// write version. The key is shared by every version's copy of the row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
struct Row {
    key: Rc<str>,
    /// `None` once deleted. The row itself stays: its version keeps
    /// counting, and probes for keys placed after it still pass through.
    value: Option<Value>,
    ts: Option<u64>,
    /// Applied writes that have touched the row; see
    /// [`Database::row_version`].
    version: u64,
}

/// [`Row`] as stored: the same fields, the key read as a `String`.
#[derive(Deserialize)]
struct StoredRow {
    key: String,
    value: Option<Value>,
    ts: Option<u64>,
    version: u64,
}

impl Row {
    /// Stores a copy of `value`, in the buffer the row already holds
    /// when the kinds match (see [`Value`]'s `clone_from`).
    fn store(&mut self, value: &Value) {
        match &mut self.value {
            Some(held) => held.clone_from(value),
            empty => *empty = Some(value.clone()),
        }
    }
}

/// A row in its table: the fingerprint slot it sits in and its position
/// in first-write order.
#[derive(Clone, PartialEq, Eq)]
struct Entry {
    slot: u64,
    pos: u64,
    row: Row,
}

/// Slot bits one trie level consumes.
const BITS: u32 = 5;

/// A trie node: one child per value of the next five slot bits.
#[derive(Clone, Default, PartialEq, Eq)]
struct Branch([Option<Child>; 1 << BITS]);

/// A leaf holds the one taken slot under its prefix; a branch holds
/// two or more. Versions share both by reference.
#[derive(Clone, PartialEq, Eq)]
enum Child {
    Leaf(Rc<Entry>),
    Branch(Rc<Branch>),
}

/// The child of a level-`shift` node that `slot` descends into.
fn index(slot: u64, shift: u32) -> usize {
    // Two slots that reach the same node agree below `shift`, and
    // distinct slots differ somewhere, so no descent passes bit 63.
    ((slot >> shift) & ((1 << BITS) - 1)) as usize
}

/// `slot`'s entry below `node`, inserting `make()` if the slot is free.
/// Every node on the way, and the entry, is first copied out of any
/// other version that shares it (path copying).
fn entry_mut(node: &mut Branch, slot: u64, shift: u32, make: impl FnOnce() -> Entry) -> &mut Entry {
    let child = &mut node.0[index(slot, shift)];
    if let Some(Child::Leaf(resident)) = child {
        let at = resident.slot;
        if at != slot {
            // Two slots share this prefix: the resident moves down a level.
            let mut below = Branch::default();
            below.0[index(at, shift + BITS)] = child.take();
            *child = Some(Child::Branch(Rc::new(below)));
        }
    }
    match child {
        Some(Child::Branch(below)) => entry_mut(Rc::make_mut(below), slot, shift + BITS, make),
        Some(Child::Leaf(entry)) => Rc::make_mut(entry),
        None => match child.insert(Child::Leaf(Rc::new(make()))) {
            Child::Leaf(entry) => Rc::make_mut(entry),
            Child::Branch(_) => unreachable!("a leaf was just stored"),
        },
    }
}

/// One table: every row ever written, each in its fingerprint slot of a
/// persistent hash trie and tagged with its first-write position.
///
/// A put is one probe and path-copies the few nodes above its row, so a
/// new version shares every other node with the one it was made from,
/// and a clone is one reference count. A key whose fingerprint slot is
/// taken by another key goes to the next free slot (linear probing);
/// rows are never removed, so a probe ends only at a free slot, and the
/// trie's shape is a function of the slots taken. First-write order is
/// a function of the applied op sequence, so replicas that applied the
/// same sequence encode their rows in the same order; key order is
/// rebuilt only by the readers that need it: scans and digests.
#[derive(Clone, Default, PartialEq, Eq)]
struct Table {
    root: Rc<Branch>,
    /// Rows ever written: the position the next new row takes.
    len: u64,
    /// Rows that hold a value.
    live: u64,
}

impl Table {
    /// The entry in `slot`, if the slot is taken.
    fn entry(&self, slot: u64) -> Option<&Entry> {
        let (mut node, mut shift) = (&*self.root, 0);
        loop {
            match node.0[index(slot, shift)].as_ref()? {
                Child::Leaf(entry) => return (entry.slot == slot).then_some(&**entry),
                Child::Branch(below) => (node, shift) = (below, shift + BITS),
            }
        }
    }

    fn find(&self, key: &str) -> Option<&Row> {
        let mut slot = key_fingerprint(key);
        loop {
            let row = &self.entry(slot)?.row;
            if *row.key == *key {
                return Some(row);
            }
            slot = slot.wrapping_add(1);
        }
    }

    /// Runs `f` on `key`'s row, appending a row with no value first if
    /// the key was never written.
    fn with_row<R>(&mut self, key: &str, f: impl FnOnce(&mut Row) -> R) -> R {
        let mut slot = key_fingerprint(key);
        while let Some(taken) = self.entry(slot) {
            if *taken.row.key == *key {
                break;
            }
            slot = slot.wrapping_add(1);
        }
        let pos = self.len;
        let entry = entry_mut(Rc::make_mut(&mut self.root), slot, 0, || Entry {
            slot,
            pos,
            row: Row {
                key: key.into(),
                value: None,
                ts: None,
                version: 0,
            },
        });
        if entry.pos == pos {
            self.len += 1;
        }
        counted(&mut self.live, &mut entry.row, f)
    }

    /// Appends `rows` (stored in first-write order) in that order, which
    /// gives every row back its position and its slot.
    fn from_rows(rows: Vec<StoredRow>) -> Table {
        let mut table = Table::default();
        for stored in rows {
            let key: Rc<str> = stored.key.into();
            let row = Row {
                key: Rc::clone(&key),
                value: stored.value,
                ts: stored.ts,
                version: stored.version,
            };
            table.with_row(&key, |slot| *slot = row);
        }
        table
    }

    /// Every entry, in trie order.
    fn entries(&self) -> Vec<&Entry> {
        fn walk<'a>(node: &'a Branch, out: &mut Vec<&'a Entry>) {
            for child in node.0.iter().flatten() {
                match child {
                    Child::Leaf(entry) => out.push(entry),
                    Child::Branch(below) => walk(below, out),
                }
            }
        }
        let mut entries = Vec::with_capacity(self.len as usize);
        walk(&self.root, &mut entries);
        entries
    }

    /// Every row, in first-write order.
    fn rows(&self) -> Vec<&Row> {
        let mut entries = self.entries();
        entries.sort_unstable_by_key(|e| e.pos);
        entries.into_iter().map(|e| &e.row).collect()
    }

    /// The rows that hold a value, in key order.
    fn live_rows(&self) -> Vec<(&str, &Value, Option<u64>)> {
        let mut rows: Vec<_> = self
            .entries()
            .into_iter()
            .filter_map(|e| Some((&*e.row.key, e.row.value.as_ref()?, e.row.ts)))
            .collect();
        rows.sort_unstable_by_key(|&(key, _, _)| key);
        rows
    }
}

/// The rows in first-write order and the live count, never the trie, so
/// that a `{:?}` of a database is the same in every process.
impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("rows", &self.rows())
            .field("live", &self.live)
            .finish_non_exhaustive()
    }
}

/// Runs `f` on `row`, keeping `live` in step with whether it holds a
/// value.
fn counted<R>(live: &mut u64, row: &mut Row, f: impl FnOnce(&mut Row) -> R) -> R {
    let was = row.value.is_some();
    let out = f(row);
    match (was, row.value.is_some()) {
        (false, true) => *live += 1,
        (true, false) => *live -= 1,
        _ => {}
    }
    out
}

/// FNV-1a over a row key: where [`Table`] first looks for it.
fn key_fingerprint(key: &str) -> u64 {
    key.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A table is stored as its rows in first-write order; loading appends
/// them again in that order, which puts every row back at its position
/// and in its slot.
impl Serialize for Table {
    fn to_value(&self) -> serde::Value {
        self.rows().to_value()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.rows().encode(out);
    }
}

impl Deserialize for Table {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Vec::<StoredRow>::from_value(v).map(Table::from_rows)
    }

    fn decode(r: &mut bin::Reader<'_>) -> Result<Self, bin::Error> {
        Vec::<StoredRow>::decode(r).map(Table::from_rows)
    }
}
/// Whether an applied operation took effect or deterministically aborted.
///
/// Aborts are not errors: they are a database state transition that every
/// replica computes identically (e.g. an interactive transaction whose
/// read set changed, §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ApplyOutcome {
    /// The update took effect.
    Applied,
    /// The update deterministically aborted; the database is unchanged.
    Aborted,
}

/// Per-table statistics (see [`Database::table_stats`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableStats {
    /// Table name.
    pub name: String,
    /// Number of rows.
    pub rows: u64,
}

/// A database version's content and what is memoised on it.
#[derive(Clone, Default)]
struct Version {
    /// See [`Database::version`].
    id: u64,
    tables: BTreeMap<Rc<str>, Table>,
    applied: u64,
    aborted: u64,
    /// The first [`Database::encode_once`] on this version.
    encoded: OnceCell<Encoding>,
}

/// An encoding memoised on a version: the caller's key, then the bytes.
type Encoding = (Arc<[u8]>, Arc<[u8]>);

/// A fresh version id; 0 is the empty database's.
fn mint() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The stored form: the fields of the version's content, in order.
#[derive(Serialize)]
struct Stored<'a> {
    tables: &'a BTreeMap<Rc<str>, Table>,
    applied: u64,
    aborted: u64,
}

/// [`Stored`], read back.
#[derive(Deserialize)]
struct Loaded {
    tables: BTreeMap<String, Table>,
    applied: u64,
    aborted: u64,
}

/// An in-memory, deterministic database: one immutable, structurally
/// shared version of the state.
///
/// All mutation goes through [`Database::apply`], which is a pure function
/// of `(current state, op)` — the state-machine property the replication
/// engine relies on. Two databases that applied the same op sequence from
/// the same initial state have equal [`Database::digest`]s.
///
/// A value is a handle on a version: a clone (or [`Database::snapshot`])
/// is one reference count and names the same [`Database::version`]. An
/// apply makes a new version that shares every table node with the old
/// one except the path to each row it writes, and a handle that is the
/// only one on its version edits it in place. A write finds its row, and
/// the row's version counter, in one probe of a hash trie; scans and
/// digests pay for key order instead: they sort the rows they read.
///
/// ```
/// use todr_db::{Database, Op, Value};
///
/// let mut a = Database::new();
/// let mut b = Database::new();
/// for db in [&mut a, &mut b] {
///     db.apply(&Op::put("t", "k", Value::Int(1)));
///     db.apply(&Op::incr("t", "k", 5));
/// }
/// assert_eq!(a.digest(), b.digest());
/// ```
#[derive(Clone, Default)]
pub struct Database(Rc<Version>);

/// Content equality; handles on one version are equal at once.
impl PartialEq for Database {
    fn eq(&self, other: &Database) -> bool {
        let (a, b) = (&*self.0, &*other.0);
        a.id == b.id || (a.tables == b.tables && a.applied == b.applied && a.aborted == b.aborted)
    }
}

impl Eq for Database {}

/// The content, never the version id, so that a `{:?}` of a database
/// is the same in every process.
impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.0.tables)
            .field("applied", &self.0.applied)
            .field("aborted", &self.0.aborted)
            .finish()
    }
}

impl Serialize for Database {
    fn to_value(&self) -> serde::Value {
        self.stored().to_value()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.stored().encode(out);
    }
}

/// A decoded database is a version of its own.
impl Deserialize for Database {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Loaded::from_value(v).map(Database::loaded)
    }

    fn decode(r: &mut bin::Reader<'_>) -> Result<Self, bin::Error> {
        Loaded::decode(r).map(Database::loaded)
    }
}

impl Database {
    /// An empty database. Every empty database is the one version 0.
    pub fn new() -> Self {
        Database::default()
    }

    fn stored(&self) -> Stored<'_> {
        Stored {
            tables: &self.0.tables,
            applied: self.0.applied,
            aborted: self.0.aborted,
        }
    }

    fn loaded(l: Loaded) -> Database {
        Database(Rc::new(Version {
            id: mint(),
            tables: l
                .tables
                .into_iter()
                .map(|(name, t)| (name.into(), t))
                .collect(),
            applied: l.applied,
            aborted: l.aborted,
            encoded: OnceCell::new(),
        }))
    }

    /// This version's id: a process-local name, equal for two handles
    /// only if they hold equal content. A clone keeps it; every edit,
    /// and every decode, makes a version with a fresh one. It never
    /// reaches an output.
    pub fn version(&self) -> u64 {
        self.0.id
    }

    /// The version to edit: this handle's own, copied first if another
    /// handle shares it, under a fresh id and with no memo.
    fn edit(&mut self) -> &mut Version {
        let version = Rc::make_mut(&mut self.0);
        version.id = mint();
        version.encoded.take();
        version
    }

    /// The bytes `encode` makes of this version together with `key`,
    /// shared: the first call on a version encodes and keeps the bytes,
    /// and a later call with the same key, through any handle on the
    /// version, takes them. A call with another key encodes for itself.
    /// `encode` must depend on nothing but this version's content and
    /// what `key` says.
    pub fn encode_once(&self, key: &Arc<[u8]>, encode: impl FnOnce() -> Arc<[u8]>) -> Arc<[u8]> {
        let memo = &self.0.encoded;
        match memo.get() {
            Some((held, bytes)) if held == key => Arc::clone(bytes),
            Some(_) => encode(),
            None => Arc::clone(&memo.get_or_init(|| (Arc::clone(key), encode())).1),
        }
    }

    /// Applies an update operation; deterministic in state and op.
    pub fn apply(&mut self, op: &Op) -> ApplyOutcome {
        let outcome = self.apply_inner(op);
        let version = self.edit();
        match outcome {
            ApplyOutcome::Applied => version.applied += 1,
            ApplyOutcome::Aborted => version.aborted += 1,
        }
        outcome
    }

    fn apply_inner(&mut self, op: &Op) -> ApplyOutcome {
        match op {
            Op::Put { table, key, value } => {
                self.write(table, key, |row| {
                    row.store(value);
                    row.ts = None;
                });
            }
            Op::Delete { table, key } => {
                self.write(table, key, |row| {
                    row.value = None;
                    row.ts = None;
                });
            }
            Op::Incr { table, key, delta } => {
                self.write(table, key, |row| match &mut row.value {
                    Some(Value::Int(n)) => *n = n.wrapping_add(*delta),
                    // A missing or non-integer row counts as 0.
                    other => *other = Some(Value::Int(*delta)),
                });
            }
            Op::TsPut {
                table,
                key,
                value,
                ts,
            } => {
                self.write(table, key, |row| {
                    // An older timestamp loses; the action still
                    // "applies" in the sense that replicas converge.
                    if row.ts.is_none_or(|old| *ts > old) {
                        row.store(value);
                        row.ts = Some(*ts);
                    }
                });
            }
            Op::Proc { name, args } => return procs::execute(self, name, args),
            Op::Checked { expect, then } => {
                for (table, key, expected) in expect {
                    let current = self.get(table, key);
                    if current != expected.as_ref() {
                        return ApplyOutcome::Aborted;
                    }
                }
                for op in then {
                    if self.apply_inner(op) == ApplyOutcome::Aborted {
                        return ApplyOutcome::Aborted;
                    }
                }
            }
            Op::Batch(ops) => {
                for op in ops {
                    if self.apply_inner(op) == ApplyOutcome::Aborted {
                        return ApplyOutcome::Aborted;
                    }
                }
            }
            Op::Noop => {}
        }
        ApplyOutcome::Applied
    }

    /// Runs `f` on row `(table, key)`, creating the table and an empty
    /// row as needed, and counts the write in the row's version.
    fn write<R>(&mut self, table: &str, key: &str, f: impl FnOnce(&mut Row) -> R) -> R {
        let tables = &mut self.edit().tables;
        let rows = match tables.get_mut(table) {
            Some(rows) => rows,
            None => tables.entry(table.into()).or_default(),
        };
        rows.with_row(key, |row| {
            row.version += 1;
            f(row)
        })
    }

    /// Evaluates a query against the current state.
    pub fn query(&self, q: &Query) -> QueryResult {
        match q {
            Query::Get { table, key } => QueryResult::Value(self.get(table, key).cloned()),
            Query::Scan { table, prefix } => {
                let rows = self
                    .0
                    .tables
                    .get(table.as_str())
                    .map(|t| {
                        t.live_rows()
                            .into_iter()
                            .filter(|(k, _, _)| k.starts_with(prefix.as_str()))
                            .map(|(k, value, _)| (k.to_string(), value.clone()))
                            .collect()
                    })
                    .unwrap_or_default();
                QueryResult::Rows(rows)
            }
            Query::Count { table } => {
                QueryResult::Count(self.0.tables.get(table.as_str()).map_or(0, |t| t.live))
            }
            Query::Digest => QueryResult::Digest(self.digest()),
        }
    }

    /// Direct read of a cell (used by stored procedures and tests).
    pub fn get(&self, table: &str, key: &str) -> Option<&Value> {
        self.read_row(table, key).0
    }

    /// A cell and its [`Database::row_version`] from one lookup: what a
    /// served read answers and the version it reports having observed.
    pub fn read_row(&self, table: &str, key: &str) -> (Option<&Value>, u64) {
        match self.0.tables.get(table).and_then(|t| t.find(key)) {
            Some(row) => (row.value.as_ref(), row.version),
            None => (None, 0),
        }
    }

    /// Direct write of a cell (used by stored procedures).
    pub fn put(&mut self, table: &str, key: &str, value: Value) {
        self.write(table, key, |row| {
            row.value = Some(value);
            row.ts = None;
        });
    }

    /// The write-version of a row: how many applied writes have touched
    /// `(table, key)` in this database's history (deletes and losing
    /// LWW puts included; never reset). Used by the linearizable-read
    /// oracle to detect stale reads — a linearizable read must observe
    /// a version at least as large as the number of acknowledged writes
    /// to the row at the time the read was served. Versions are
    /// observability, not replicated content: [`Database::digest`]
    /// leaves them out.
    pub fn row_version(&self, table: &str, key: &str) -> u64 {
        self.read_row(table, key).1
    }

    /// A 64-bit FNV-1a digest of the full content (tables, keys, values,
    /// timestamps), in table and key order. Equal digests mean equal
    /// states for all practical test purposes.
    pub fn digest(&self) -> u64 {
        fn eat(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x100000001b3);
            }
        }
        let mut h: u64 = 0xcbf29ce484222325;
        for (table, rows) in self.0.tables.iter().filter(|(_, t)| t.live > 0) {
            eat(&mut h, table.as_bytes());
            eat(&mut h, &[0xfe]);
            for (key, value, ts) in rows.live_rows() {
                eat(&mut h, key.as_bytes());
                eat(&mut h, &[0xff]);
                value.digest_into(&mut h);
                if let Some(ts) = ts {
                    eat(&mut h, &ts.to_le_bytes());
                }
            }
        }
        h
    }

    /// Number of successfully applied ops (excludes aborts).
    pub fn applied_count(&self) -> u64 {
        self.0.applied
    }

    /// Number of deterministically aborted ops.
    pub fn aborted_count(&self) -> u64 {
        self.0.aborted
    }

    /// Total number of rows across all tables.
    pub fn row_count(&self) -> u64 {
        self.0.tables.values().map(|t| t.live).sum()
    }

    /// Per-table statistics, in table-name order.
    pub fn table_stats(&self) -> Vec<TableStats> {
        self.0
            .tables
            .iter()
            .filter(|(_, t)| t.live > 0)
            .map(|(name, t)| TableStats {
                name: name.to_string(),
                rows: t.live,
            })
            .collect()
    }

    /// A snapshot for state transfer to a joining replica: a handle on
    /// this version, one reference count, which later applies to either
    /// handle leave alone. (A production engine would stream it.)
    pub fn snapshot(&self) -> Database {
        self.clone()
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete_cycle() {
        let mut db = Database::new();
        assert_eq!(db.apply(&Op::put("t", "k", 1i64)), ApplyOutcome::Applied);
        assert_eq!(db.get("t", "k"), Some(&Value::Int(1)));
        db.apply(&Op::delete("t", "k"));
        assert_eq!(db.get("t", "k"), None);
        assert_eq!(db.row_count(), 0);
    }

    #[test]
    fn incr_from_missing_row_starts_at_zero() {
        let mut db = Database::new();
        db.apply(&Op::incr("t", "k", 5));
        db.apply(&Op::incr("t", "k", -2));
        assert_eq!(db.get("t", "k"), Some(&Value::Int(3)));
    }

    #[test]
    fn incr_order_independence() {
        // The commutative class: any order converges.
        let deltas = [5i64, -3, 10, 7, -1];
        let mut forward = Database::new();
        let mut backward = Database::new();
        for d in deltas {
            forward.apply(&Op::incr("t", "k", d));
        }
        for d in deltas.iter().rev() {
            backward.apply(&Op::incr("t", "k", *d));
        }
        assert_eq!(forward.digest(), backward.digest());
    }

    #[test]
    fn ts_put_last_writer_wins_regardless_of_order() {
        let mut early_first = Database::new();
        early_first.apply(&Op::ts_put("t", "k", "old", 1));
        early_first.apply(&Op::ts_put("t", "k", "new", 2));
        let mut late_first = Database::new();
        late_first.apply(&Op::ts_put("t", "k", "new", 2));
        late_first.apply(&Op::ts_put("t", "k", "old", 1));
        assert_eq!(early_first.digest(), late_first.digest());
        assert_eq!(early_first.get("t", "k").unwrap().as_text(), Some("new"));
    }

    #[test]
    fn ts_put_equal_timestamp_keeps_existing() {
        let mut db = Database::new();
        db.apply(&Op::ts_put("t", "k", "first", 5));
        db.apply(&Op::ts_put("t", "k", "second", 5));
        assert_eq!(db.get("t", "k").unwrap().as_text(), Some("first"));
    }

    #[test]
    fn checked_applies_when_expectation_holds() {
        let mut db = Database::new();
        db.apply(&Op::put("t", "k", 10i64));
        let op = Op::Checked {
            expect: vec![("t".into(), "k".into(), Some(Value::Int(10)))],
            then: vec![Op::put("t", "k", 20i64)],
        };
        assert_eq!(db.apply(&op), ApplyOutcome::Applied);
        assert_eq!(db.get("t", "k"), Some(&Value::Int(20)));
    }

    #[test]
    fn checked_aborts_when_read_set_changed() {
        let mut db = Database::new();
        db.apply(&Op::put("t", "k", 11i64)); // changed since the read
        let op = Op::Checked {
            expect: vec![("t".into(), "k".into(), Some(Value::Int(10)))],
            then: vec![Op::put("t", "k", 20i64)],
        };
        assert_eq!(db.apply(&op), ApplyOutcome::Aborted);
        assert_eq!(db.get("t", "k"), Some(&Value::Int(11)));
        assert_eq!(db.aborted_count(), 1);
    }

    #[test]
    fn checked_expectation_of_absence() {
        let mut db = Database::new();
        let op = Op::Checked {
            expect: vec![("t".into(), "k".into(), None)],
            then: vec![Op::put("t", "k", 1i64)],
        };
        assert_eq!(db.apply(&op), ApplyOutcome::Applied);
    }

    #[test]
    fn batch_applies_in_order() {
        let mut db = Database::new();
        db.apply(&Op::Batch(vec![
            Op::put("t", "k", 1i64),
            Op::incr("t", "k", 10),
        ]));
        assert_eq!(db.get("t", "k"), Some(&Value::Int(11)));
    }

    #[test]
    fn scan_respects_prefix_and_order() {
        let mut db = Database::new();
        for k in ["a1", "a2", "b1", "a3"] {
            db.apply(&Op::put("t", k, k));
        }
        let QueryResult::Rows(rows) = db.query(&Query::scan("t", "a")) else {
            panic!("expected rows");
        };
        let keys: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a1", "a2", "a3"]);
    }

    #[test]
    fn scan_missing_table_is_empty() {
        let db = Database::new();
        assert_eq!(
            db.query(&Query::scan("none", "")),
            QueryResult::Rows(vec![])
        );
    }

    #[test]
    fn count_and_digest_queries() {
        let mut db = Database::new();
        db.apply(&Op::put("t", "a", 1i64));
        db.apply(&Op::put("t", "b", 2i64));
        assert_eq!(
            db.query(&Query::Count { table: "t".into() }),
            QueryResult::Count(2)
        );
        assert_eq!(db.query(&Query::Digest), QueryResult::Digest(db.digest()));
    }

    #[test]
    fn digest_sensitive_to_any_change() {
        let mut db = Database::new();
        db.apply(&Op::put("t", "k", 1i64));
        let d1 = db.digest();
        db.apply(&Op::put("t", "k", 2i64));
        let d2 = db.digest();
        db.apply(&Op::put("t2", "k", 1i64));
        let d3 = db.digest();
        assert_ne!(d1, d2);
        assert_ne!(d2, d3);
    }

    #[test]
    fn same_op_sequence_gives_same_digest() {
        let ops = vec![
            Op::put("a", "x", 1i64),
            Op::incr("a", "x", 4),
            Op::proc("append_history", vec!["k".into(), "e".into()]),
            Op::delete("a", "x"),
        ];
        let mut d1 = Database::new();
        let mut d2 = Database::new();
        for op in &ops {
            d1.apply(op);
            d2.apply(op);
        }
        assert_eq!(d1.digest(), d2.digest());
        assert_eq!(d1, d2);
    }

    #[test]
    fn snapshot_is_independent() {
        let mut db = Database::new();
        db.apply(&Op::put("t", "k", 1i64));
        let snap = db.snapshot();
        db.apply(&Op::put("t", "k", 2i64));
        assert_eq!(snap.get("t", "k"), Some(&Value::Int(1)));
        assert_eq!(db.get("t", "k"), Some(&Value::Int(2)));
    }

    #[test]
    fn noop_applies_without_changes() {
        let mut db = Database::new();
        let d = db.digest();
        assert_eq!(db.apply(&Op::Noop), ApplyOutcome::Applied);
        assert_eq!(db.digest(), d);
    }

    #[test]
    fn table_stats_reports_rows() {
        let mut db = Database::new();
        db.apply(&Op::put("t1", "a", 1i64));
        db.apply(&Op::put("t1", "b", 1i64));
        db.apply(&Op::put("t2", "a", 1i64));
        let stats = db.table_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "t1");
        assert_eq!(stats[0].rows, 2);
    }

    #[test]
    fn row_versions_count_applied_writes() {
        let mut db = Database::new();
        assert_eq!(db.row_version("t", "k"), 0);
        db.apply(&Op::put("t", "k", 1i64));
        db.apply(&Op::incr("t", "k", 1));
        assert_eq!(db.row_version("t", "k"), 2);
        // Deletes and losing LWW puts still advance the version.
        db.apply(&Op::delete("t", "k"));
        assert_eq!(db.row_version("t", "k"), 3);
        db.apply(&Op::ts_put("t", "k", "a", 5));
        db.apply(&Op::ts_put("t", "k", "stale", 4));
        assert_eq!(db.row_version("t", "k"), 5);
        // Aborted interactive transactions write nothing.
        db.apply(&Op::Checked {
            expect: vec![("t".into(), "k".into(), None)],
            then: vec![Op::put("t", "k", 9i64)],
        });
        assert_eq!(db.row_version("t", "k"), 5);
        // Stored-procedure writes flow through `put` and are counted.
        db.apply(&Op::proc("append_history", vec!["k".into(), "e".into()]));
        assert!(db.row_version("history", "k") >= 1);
    }

    #[test]
    fn versions_do_not_affect_digest() {
        let mut a = Database::new();
        a.apply(&Op::put("t", "k", 1i64));
        let d = a.digest();
        a.apply(&Op::delete("t", "x"));
        // Deleting a missing row changes versions but not content.
        assert_eq!(a.digest(), d);
        let b = Database::new();
        let mut c = Database::new();
        c.apply(&Op::delete("t", "x"));
        assert_eq!(b.digest(), c.digest());
    }

    #[test]
    fn a_key_whose_slot_is_taken_probes_to_the_next_free_one() {
        // Stand-in for a fingerprint collision: another row already sits
        // in `b`'s first slot.
        let home = key_fingerprint("b");
        let mut table = Table::default();
        let squatter = Row {
            key: "not-b".into(),
            value: Some(Value::Int(0)),
            ts: None,
            version: 1,
        };
        let root = Rc::make_mut(&mut table.root);
        entry_mut(root, home, 0, || Entry {
            slot: home,
            pos: 0,
            row: squatter.clone(),
        });
        (table.len, table.live) = (1, 1);
        for n in 1..=2 {
            table.with_row("b", |row| {
                row.version += 1;
                row.value = Some(Value::Int(n));
            });
        }
        let in_slot = |slot| table.entry(slot).map(|e| (e.pos, &e.row));
        assert_eq!(in_slot(home), Some((0, &squatter)));
        assert_eq!(
            in_slot(home.wrapping_add(1)).map(|(pos, row)| (pos, &*row.key)),
            Some((1, "b"))
        );
        assert_eq!(table.len, 2, "`b` appended once, after the squatter");
        let b = table.find("b").map(|b| (b.version, &b.value));
        assert_eq!(
            b,
            Some((2, &Some(Value::Int(2)))),
            "probed past the taken slot"
        );
        assert_eq!(table.live, 2);
        table.with_row("b", |row| row.value = None);
        assert_eq!(table.live, 1, "a delete leaves the row, not the count");
        assert!(table.find("b").is_some());
    }

    #[test]
    fn overwriting_a_row_reuses_its_buffer() {
        let mut db = Database::new();
        db.apply(&Op::put("t", "k", vec![1u8; 200]));
        let held = |db: &Database| match db.get("t", "k") {
            Some(Value::Bytes(v)) => v.as_ptr(),
            other => panic!("expected bytes, got {other:?}"),
        };
        let before = held(&db);
        db.apply(&Op::put("t", "k", vec![2u8; 200]));
        db.apply(&Op::ts_put("t", "k", vec![3u8; 150], 1));
        assert_eq!(held(&db), before);
        assert_eq!(db.get("t", "k"), Some(&Value::Bytes(vec![3; 150])));
    }

    #[test]
    fn serde_roundtrip_preserves_state() {
        // Snapshot transfer for joining replicas goes through serde.
        let mut db = Database::new();
        db.apply(&Op::put("t", "k", "v"));
        db.apply(&Op::ts_put("t", "ts", 9i64, 4));
        // Round-trip through the storage codec used elsewhere in the
        // workspace is covered in integration tests; here use the serde
        // data model directly via clone-equality.
        let snap = db.snapshot();
        assert_eq!(snap, db);
    }
}
