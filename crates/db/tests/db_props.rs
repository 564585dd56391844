//! Randomized (seeded, deterministic) tests of the database substrate:
//! the state-machine property (determinism) the whole replication scheme
//! rests on, and the algebraic claims behind the §6 relaxed-semantics
//! classes.

use std::collections::{BTreeMap, BTreeSet};

use todr_db::conflict::{classify, conflicts};
use todr_db::keys::{row_fingerprint, shard_of, write_set};
use todr_db::{ApplyOutcome, Database, Op, Query, QueryResult, Value};

/// A tiny self-contained splitmix64 generator, so these tests need no
/// dependency beyond `todr-db` itself.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn gen_value(rng: &mut Rng) -> Value {
    match rng.below(5) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Int(rng.next() as i64),
        3 => {
            let len = rng.below(13) as usize;
            Value::Text(
                (0..len)
                    .map(|_| (b'a' + rng.below(26) as u8) as char)
                    .collect(),
            )
        }
        _ => Value::Bytes((0..rng.below(16)).map(|_| rng.next() as u8).collect()),
    }
}

/// Small keyspace to force collisions.
fn gen_key(rng: &mut Rng) -> String {
    format!(
        "{}{}",
        (b'a' + rng.below(4) as u8) as char,
        (b'0' + rng.below(10) as u8) as char
    )
}

fn gen_table(rng: &mut Rng) -> String {
    if rng.below(2) == 0 {
        "t".into()
    } else {
        "u".into()
    }
}

fn gen_op(rng: &mut Rng) -> Op {
    match rng.below(7) {
        0 => Op::Put {
            table: gen_table(rng),
            key: gen_key(rng),
            value: gen_value(rng),
        },
        1 => Op::Delete {
            table: gen_table(rng),
            key: gen_key(rng),
        },
        2 => Op::Incr {
            table: gen_table(rng),
            key: gen_key(rng),
            delta: rng.next() as i32 as i64,
        },
        3 => Op::TsPut {
            table: gen_table(rng),
            key: gen_key(rng),
            value: gen_value(rng),
            ts: rng.below(1 << 32),
        },
        4 => Op::proc(
            "debit_if_sufficient",
            vec![Value::Text(gen_key(rng)), Value::Int(rng.below(500) as i64)],
        ),
        5 => Op::Batch(
            (0..rng.below(3))
                .map(|_| Op::Put {
                    table: gen_table(rng),
                    key: gen_key(rng),
                    value: gen_value(rng),
                })
                .collect(),
        ),
        _ => Op::Noop,
    }
}

fn gen_ops(rng: &mut Rng, max: u64) -> Vec<Op> {
    (0..rng.below(max)).map(|_| gen_op(rng)).collect()
}

fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed | 1;
    for i in (1..items.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

/// The state-machine property: identical op sequences from identical
/// states produce identical databases (digest, content, outcomes).
#[test]
fn apply_is_deterministic() {
    let mut rng = Rng(0xdb01);
    for _ in 0..256 {
        let ops = gen_ops(&mut rng, 60);
        let mut a = Database::new();
        let mut b = Database::new();
        for op in &ops {
            let ra = a.apply(op);
            let rb = b.apply(op);
            assert_eq!(ra, rb);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(&a, &b);
    }
}

/// Commutative class (§6): increments converge under any permutation.
#[test]
fn increments_commute() {
    let mut rng = Rng(0xdb02);
    for _ in 0..256 {
        let deltas: Vec<(String, i64)> = (0..1 + rng.below(29))
            .map(|_| (gen_key(&mut rng), rng.below(200) as i64 - 100))
            .collect();
        let mut forward = Database::new();
        for (k, d) in &deltas {
            forward.apply(&Op::incr("t", k.clone(), *d));
        }
        let mut shuffled = deltas.clone();
        let seed = rng.next();
        shuffle(&mut shuffled, seed);
        let mut backward = Database::new();
        for (k, d) in &shuffled {
            backward.apply(&Op::incr("t", k.clone(), *d));
        }
        assert_eq!(forward.digest(), backward.digest());
    }
}

/// Timestamp class (§6): last-writer-wins converges under any
/// permutation when timestamps are distinct.
#[test]
fn timestamped_puts_converge() {
    let mut rng = Rng(0xdb03);
    for _ in 0..256 {
        // Distinct timestamps by construction.
        let stamped: Vec<(String, i64, u64)> = (0..1 + rng.below(19))
            .enumerate()
            .map(|(i, _)| (gen_key(&mut rng), rng.next() as i64, i as u64 + 1))
            .collect();
        let mut forward = Database::new();
        for (k, v, ts) in &stamped {
            forward.apply(&Op::ts_put("t", k.clone(), Value::Int(*v), *ts));
        }
        let mut shuffled = stamped.clone();
        let seed = rng.next();
        shuffle(&mut shuffled, seed);
        let mut backward = Database::new();
        for (k, v, ts) in &shuffled {
            backward.apply(&Op::ts_put("t", k.clone(), Value::Int(*v), *ts));
        }
        assert_eq!(forward.digest(), backward.digest());
    }
}

/// Digests distinguish states: a put of a fresh value to a fresh key
/// always changes the digest.
#[test]
fn digest_changes_on_new_data() {
    let mut rng = Rng(0xdb04);
    for _ in 0..128 {
        let mut db = Database::new();
        for op in &gen_ops(&mut rng, 30) {
            db.apply(op);
        }
        let before = db.digest();
        db.apply(&Op::put("fresh_table", "fresh_key", Value::Int(424242)));
        assert_ne!(before, db.digest());
    }
}

/// Aborted ops leave no trace: a Checked op with a failing
/// expectation never changes the digest.
#[test]
fn aborts_are_clean() {
    let mut rng = Rng(0xdb05);
    for _ in 0..128 {
        let mut db = Database::new();
        for op in &gen_ops(&mut rng, 30) {
            db.apply(op);
        }
        let before = db.digest();
        let outcome = db.apply(&Op::Checked {
            expect: vec![(
                "no_such_table".into(),
                "k".into(),
                Some(Value::Int(123456789)),
            )],
            then: vec![Op::put("t", "x", Value::Int(1))],
        });
        assert_eq!(outcome, ApplyOutcome::Aborted);
        assert_eq!(before, db.digest());
    }
}

/// Snapshots are faithful: applying the same suffix to a snapshot
/// and to the original yields identical states.
#[test]
fn snapshots_are_faithful() {
    let mut rng = Rng(0xdb06);
    for _ in 0..128 {
        let prefix = gen_ops(&mut rng, 20);
        let suffix = gen_ops(&mut rng, 20);
        let mut original = Database::new();
        for op in &prefix {
            original.apply(op);
        }
        let mut snap = original.snapshot();
        for op in &suffix {
            original.apply(op);
            snap.apply(op);
        }
        assert_eq!(original.digest(), snap.digest());
    }
}

/// Query evaluation never mutates.
#[test]
fn queries_are_pure() {
    let mut rng = Rng(0xdb07);
    for _ in 0..128 {
        let mut db = Database::new();
        for op in &gen_ops(&mut rng, 25) {
            db.apply(op);
        }
        let t = gen_table(&mut rng);
        let k = gen_key(&mut rng);
        let before = db.digest();
        let _ = db.query(&Query::get(t.clone(), k.clone()));
        let _ = db.query(&Query::scan(t.clone(), ""));
        let _ = db.query(&Query::Count { table: t });
        let _ = db.query(&Query::Digest);
        assert_eq!(before, db.digest());
    }
}

#[test]
fn scan_results_are_sorted_and_consistent_with_get() {
    let mut db = Database::new();
    for k in ["b1", "a2", "a1", "c3", "a3"] {
        db.apply(&Op::put("t", k, k));
    }
    let QueryResult::Rows(rows) = db.query(&Query::scan("t", "a")) else {
        panic!("expected rows");
    };
    let keys: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, vec!["a1", "a2", "a3"]);
    for (k, v) in &rows {
        assert_eq!(db.get("t", k), Some(v));
    }
}

// ---------------------------------------------------------------
// The reference model: the database as it was first written — rows in
// string-keyed maps, row versions in a side map keyed by fingerprint —
// with the built-in procedures the generator draws spelled out again.
// ---------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct Model {
    tables: BTreeMap<String, BTreeMap<String, (Value, Option<u64>)>>,
    versions: BTreeMap<u64, u64>,
}

impl Model {
    fn bump(&mut self, table: &str, key: &str) {
        *self
            .versions
            .entry(row_fingerprint(table, key))
            .or_insert(0) += 1;
    }

    fn row(&mut self, table: &str, key: &str, fresh: Value) -> &mut (Value, Option<u64>) {
        self.bump(table, key);
        let rows = self.tables.entry(table.to_string()).or_default();
        rows.entry(key.to_string()).or_insert((fresh, None))
    }

    fn get(&self, table: &str, key: &str) -> Option<&Value> {
        self.tables.get(table)?.get(key).map(|(v, _)| v)
    }

    fn int(&self, key: &str) -> i64 {
        self.get("accounts", key)
            .and_then(Value::as_int)
            .unwrap_or(0)
    }

    fn put(&mut self, table: &str, key: &str, value: Value) {
        *self.row(table, key, Value::Null) = (value, None);
    }

    fn apply(&mut self, op: &Op) -> ApplyOutcome {
        match op {
            Op::Put { table, key, value } => self.put(table, key, value.clone()),
            Op::Delete { table, key } => {
                self.bump(table, key);
                if let Some(rows) = self.tables.get_mut(table) {
                    rows.remove(key);
                    if rows.is_empty() {
                        self.tables.remove(table);
                    }
                }
            }
            Op::Incr { table, key, delta } => {
                let row = self.row(table, key, Value::Int(0));
                row.0 = Value::Int(row.0.as_int().unwrap_or(0).wrapping_add(*delta));
            }
            Op::TsPut {
                table,
                key,
                value,
                ts,
            } => {
                let row = self.row(table, key, Value::Null);
                if row.1.is_none_or(|old| *ts > old) {
                    *row = (value.clone(), Some(*ts));
                }
            }
            Op::Proc { name, args } => return self.proc(name, args),
            Op::Checked { expect, then } => {
                if expect
                    .iter()
                    .any(|(t, k, want)| self.get(t, k) != want.as_ref())
                {
                    return ApplyOutcome::Aborted;
                }
                return self.apply_all(then);
            }
            Op::Batch(ops) => return self.apply_all(ops),
            Op::Noop => {}
        }
        ApplyOutcome::Applied
    }

    fn apply_all(&mut self, ops: &[Op]) -> ApplyOutcome {
        for op in ops {
            if self.apply(op) == ApplyOutcome::Aborted {
                return ApplyOutcome::Aborted;
            }
        }
        ApplyOutcome::Applied
    }

    fn proc(&mut self, name: &str, args: &[Value]) -> ApplyOutcome {
        match (name, args) {
            ("debit_if_sufficient", [Value::Text(key), Value::Int(amount)]) => {
                let balance = self.int(key);
                if balance < *amount || *amount < 0 {
                    return ApplyOutcome::Aborted;
                }
                self.put("accounts", key, Value::Int(balance - amount));
            }
            ("transfer", [Value::Text(from), Value::Text(to), Value::Int(amount)]) => {
                let balance = self.int(from);
                if balance < *amount || *amount < 0 {
                    return ApplyOutcome::Aborted;
                }
                let to_new = self.int(to) + amount;
                self.put("accounts", from, Value::Int(balance - amount));
                self.put("accounts", to, Value::Int(to_new));
            }
            _ => return ApplyOutcome::Aborted,
        }
        ApplyOutcome::Applied
    }

    fn digest(&self) -> u64 {
        fn eat(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x100000001b3);
            }
        }
        let mut h: u64 = 0xcbf29ce484222325;
        for (table, rows) in &self.tables {
            eat(&mut h, table.as_bytes());
            eat(&mut h, &[0xfe]);
            for (key, (value, ts)) in rows {
                eat(&mut h, key.as_bytes());
                eat(&mut h, &[0xff]);
                match value {
                    Value::Null => eat(&mut h, &[0]),
                    Value::Bool(b) => eat(&mut h, &[1, u8::from(*b)]),
                    Value::Int(n) => {
                        eat(&mut h, &[2]);
                        eat(&mut h, &n.to_le_bytes());
                    }
                    Value::Text(s) => {
                        eat(&mut h, &[3]);
                        eat(&mut h, s.as_bytes());
                    }
                    Value::Bytes(v) => {
                        eat(&mut h, &[4]);
                        eat(&mut h, v);
                    }
                }
                if let Some(ts) = ts {
                    eat(&mut h, &ts.to_le_bytes());
                }
            }
        }
        h
    }

    fn scan(&self, table: &str, prefix: &str) -> Vec<(String, Value)> {
        self.tables.get(table).map_or_else(Vec::new, |rows| {
            rows.iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, (v, _))| (k.clone(), v.clone()))
                .collect()
        })
    }
}

/// Ops over three tables and a 40-key space, so puts, deletes,
/// increments, timestamped puts and both procedures keep landing on the
/// same rows.
fn gen_model_op(rng: &mut Rng) -> Op {
    let table = ["t", "u", "accounts"][rng.below(3) as usize];
    let key = gen_key(rng);
    match rng.below(10) {
        0 | 1 => Op::put(table, key, gen_value(rng)),
        2 => Op::delete(table, key),
        3 | 4 => Op::incr(table, key, rng.below(200) as i64 - 50),
        5 => Op::ts_put(table, key, gen_value(rng), rng.below(8)),
        6 => Op::proc(
            "debit_if_sufficient",
            vec![Value::Text(key), Value::Int(rng.below(120) as i64 - 10)],
        ),
        7 => Op::proc(
            "transfer",
            vec![
                Value::Text(key),
                Value::Text(gen_key(rng)),
                Value::Int(rng.below(120) as i64 - 10),
            ],
        ),
        8 => Op::Batch((0..rng.below(4)).map(|_| gen_model_op(rng)).collect()),
        _ => Op::Checked {
            expect: vec![(table.to_string(), key, Some(gen_value(rng)))],
            then: vec![Op::put(table, gen_key(rng), Value::Int(1))],
        },
    }
}

/// The fingerprint-ordered layout answers every question the way the
/// string-keyed original does: outcomes, digest, each touched row's
/// version, row and table counts, scans in key order, and a snapshot or
/// storage round trip changes none of it.
#[test]
fn database_matches_the_reference_model() {
    let mut rng = Rng(0xdb08);
    for case in 0..200 {
        let mut db = Database::new();
        let mut model = Model::default();
        let mut touched: BTreeSet<(String, String)> = BTreeSet::new();
        for _ in 0..rng.below(120) {
            let op = gen_model_op(&mut rng);
            assert_eq!(db.apply(&op), model.apply(&op), "case {case}: {op:?}");
            for row in rows_of(&op) {
                touched.insert(row);
            }
        }
        let copies = [
            db.snapshot(),
            serde::bin::from_slice(&serde::bin::to_vec(&db)).expect("bin round trip"),
            serde::json::from_str(&serde::json::to_string(&db).expect("renders"))
                .expect("json round trip"),
        ];
        for copy in copies.iter().chain([&db]) {
            assert_eq!(copy, &db, "case {case}");
            assert_eq!(copy.digest(), model.digest(), "case {case}");
            for (t, k) in &touched {
                let version = model.versions.get(&row_fingerprint(t, k)).copied();
                assert_eq!(
                    copy.row_version(t, k),
                    version.unwrap_or(0),
                    "case {case} {t}/{k}"
                );
                assert_eq!(copy.get(t, k), model.get(t, k), "case {case} {t}/{k}");
            }
            let rows: usize = model.tables.values().map(BTreeMap::len).sum();
            assert_eq!(copy.row_count(), rows as u64, "case {case}");
            for table in ["t", "u", "accounts", "absent"] {
                let count = model.tables.get(table).map_or(0, BTreeMap::len) as u64;
                assert_eq!(
                    copy.query(&Query::Count {
                        table: table.into()
                    }),
                    QueryResult::Count(count)
                );
                for prefix in ["", "a", "b3", "d9", "z"] {
                    assert_eq!(
                        copy.query(&Query::scan(table, prefix)),
                        QueryResult::Rows(model.scan(table, prefix)),
                        "case {case} scan {table}/{prefix}"
                    );
                }
            }
            let stats: Vec<(String, u64)> = copy
                .table_stats()
                .into_iter()
                .map(|s| (s.name, s.rows))
                .collect();
            let expect: Vec<(String, u64)> = model
                .tables
                .iter()
                .map(|(t, rows)| (t.clone(), rows.len() as u64))
                .collect();
            assert_eq!(stats, expect, "case {case}");
        }
    }
}

/// Every `(table, key)` an op can write, procedures included.
fn rows_of(op: &Op) -> Vec<(String, String)> {
    match op {
        Op::Put { table, key, .. }
        | Op::Delete { table, key }
        | Op::Incr { table, key, .. }
        | Op::TsPut { table, key, .. } => vec![(table.clone(), key.clone())],
        Op::Proc { args, .. } => args
            .iter()
            .filter_map(|a| Some(("accounts".to_string(), a.as_text()?.to_string())))
            .collect(),
        Op::Checked { then: ops, .. } | Op::Batch(ops) => ops.iter().flat_map(rows_of).collect(),
        Op::Noop => Vec::new(),
    }
}

/// A table's layout is a function of the op sequence alone. Each
/// database's hash index draws its own random keys, so a layout read
/// off the index would differ between two databases fed the same ops,
/// and between a database and its decoded copy.
#[test]
fn table_layout_is_deterministic() {
    let mut rng = Rng(0xdb09);
    for case in 0..200 {
        let ops: Vec<Op> = (0..rng.below(150))
            .map(|_| gen_model_op(&mut rng))
            .collect();
        let cut = rng.below(ops.len() as u64 + 1) as usize;
        let (mut live, mut twin) = (Database::new(), Database::new());
        for op in &ops[..cut] {
            live.apply(op);
            twin.apply(op);
        }
        // A replica rebuilt from a base taken mid-sequence, then fed the
        // rest of the log.
        let mut rebuilt: Database =
            serde::bin::from_slice(&serde::bin::to_vec(&live)).expect("decodes");
        for op in &ops[cut..] {
            live.apply(op);
            twin.apply(op);
            rebuilt.apply(op);
        }

        // (a) Same ops, same bytes.
        let bytes = serde::bin::to_vec(&live);
        assert_eq!(bytes, serde::bin::to_vec(&twin), "case {case}");
        // (b) encode → decode → encode changes nothing.
        let decoded: Database = serde::bin::from_slice(&bytes).expect("decodes");
        assert_eq!(decoded, live, "case {case}");
        assert_eq!(serde::bin::to_vec(&decoded), bytes, "case {case}");
        // (c) base + replay is the live database.
        assert_eq!(rebuilt, live, "case {case} cut {cut}");
        assert_eq!(rebuilt.digest(), live.digest(), "case {case}");
        for (t, k) in ops.iter().flat_map(rows_of) {
            assert_eq!(
                rebuilt.row_version(&t, &k),
                live.row_version(&t, &k),
                "case {case} {t}/{k}"
            );
        }
        assert_eq!(format!("{rebuilt:?}"), format!("{live:?}"), "case {case}");
    }
}

/// A footprint written as row strings, `None` when unbounded: the
/// reference the fingerprint form is checked against.
type RowStrings = Option<BTreeSet<(String, String)>>;

/// The reference conflict class of one action.
struct RefClass {
    writes: RowStrings,
    reads: RowStrings,
    commutative: bool,
    timestamped: bool,
}

fn ref_writes(op: &Op, out: &mut RowStrings) {
    let mut add = |table: &str, key: &str| {
        if let Some(rows) = out {
            rows.insert((table.to_string(), key.to_string()));
        }
    };
    match op {
        Op::Put { table, key, .. }
        | Op::Delete { table, key }
        | Op::Incr { table, key, .. }
        | Op::TsPut { table, key, .. } => add(table, key),
        Op::Proc { .. } => *out = None,
        Op::Checked { expect, then } => {
            for (table, key, _) in expect {
                add(table, key);
            }
            then.iter().for_each(|inner| ref_writes(inner, out));
        }
        Op::Batch(ops) => ops.iter().for_each(|inner| ref_writes(inner, out)),
        Op::Noop => {}
    }
}

fn ref_class(update: &Op, query: Option<&Query>) -> RefClass {
    let mut writes = Some(BTreeSet::new());
    ref_writes(update, &mut writes);
    let reads = match query {
        None => Some(BTreeSet::new()),
        Some(Query::Get { table, key }) => Some(BTreeSet::from([(table.clone(), key.clone())])),
        Some(Query::Scan { .. } | Query::Count { .. } | Query::Digest) => None,
    };
    RefClass {
        writes,
        reads,
        commutative: update.is_commutative(),
        timestamped: update.is_timestamped(),
    }
}

fn ref_overlap(a: &RowStrings, b: &RowStrings) -> bool {
    match (a, b) {
        (None, None) => true,
        (None, Some(rows)) | (Some(rows), None) => !rows.is_empty(),
        (Some(a), Some(b)) => a.intersection(b).next().is_some(),
    }
}

fn ref_conflicts(a: &RefClass, b: &RefClass) -> bool {
    let order_insensitive = (a.commutative && b.commutative) || (a.timestamped && b.timestamped);
    (ref_overlap(&a.writes, &b.writes) && !order_insensitive)
        || ref_overlap(&a.reads, &b.writes)
        || ref_overlap(&a.writes, &b.reads)
}

fn gen_class_query(rng: &mut Rng) -> Option<Query> {
    match rng.below(7) {
        0 | 1 => None,
        2 | 3 => Some(Query::get(gen_table(rng), gen_key(rng))),
        4 => Some(Query::scan(gen_table(rng), "")),
        5 => Some(Query::Count {
            table: gen_table(rng),
        }),
        _ => Some(Query::Digest),
    }
}

/// The one conflict relation runs over row fingerprints. It never
/// misses a conflict the row-string reference finds, it is symmetric,
/// and with no two rows of the corpus sharing a fingerprint it finds
/// exactly the reference's conflicts.
#[test]
fn fingerprint_relation_never_misses_a_row_string_conflict() {
    let mut rng = Rng(0xdb0a);
    let actions: Vec<(Op, Option<Query>)> = (0..300)
        .map(|_| (gen_model_op(&mut rng), gen_class_query(&mut rng)))
        .collect();
    let exact: Vec<_> = actions
        .iter()
        .map(|(u, q)| (classify(u, q.as_ref()), ref_class(u, q.as_ref())))
        .collect();
    let mut rows = BTreeMap::new();
    for (_, r) in &exact {
        for (t, k) in r.writes.iter().chain(&r.reads).flatten() {
            let fp = row_fingerprint(t, k);
            assert_eq!(*rows.entry(fp).or_insert((t, k)), (t, k), "collision");
        }
    }
    let (mut found, mut clear) = (0, 0);
    for (a, ra) in &exact {
        for (b, rb) in &exact {
            let reference = ref_conflicts(ra, rb);
            assert_eq!(conflicts(a, b), reference, "{a:?} vs {b:?}");
            assert_eq!(conflicts(a, b), conflicts(b, a), "{a:?} vs {b:?}");
            assert_eq!(a.unbounded(), ra.writes.is_none() || ra.reads.is_none());
            if reference {
                found += 1;
            } else {
                clear += 1;
            }
        }
    }
    // The corpus exercises both verdicts, not one.
    assert!(
        found > 10_000 && clear > 10_000,
        "{found} conflicts, {clear} clear"
    );
}

/// The shard router's placement comes from the same fingerprints: a
/// footprint's `shards(n)` is each of its rows' `shard_of`, and an
/// unbounded one lands on every shard.
#[test]
fn footprint_shards_are_each_rows_shard_of() {
    let mut rng = Rng(0xdb0b);
    for _ in 0..2000 {
        let op = gen_model_op(&mut rng);
        let mut rows = Some(BTreeSet::new());
        ref_writes(&op, &mut rows);
        for shards in [1u32, 2, 3, 4, 7, 13] {
            let expect: BTreeSet<u32> = match &rows {
                Some(rows) => rows.iter().map(|(t, k)| shard_of(t, k, shards)).collect(),
                None => (0..shards).collect(),
            };
            assert_eq!(write_set(&op).shards(shards), expect, "{op:?}");
        }
    }
}
