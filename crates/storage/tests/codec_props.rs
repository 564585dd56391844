//! Randomized (seeded, deterministic) tests of the record codec and the
//! staged/persisted crash semantics: generated data must round-trip
//! exactly, a crash must behave exactly like "everything since the last
//! completed sync never happened", and — because stored bytes are
//! outside input once a disk has had them — no truncation or bit flip of
//! an encoding may panic the decoder, be silently ignored by it, or make
//! it allocate in proportion to anything but the input's length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use todr_core::{
    Action, ActionId, ActionKind, ClientId, GreenBase, PrimComponent, VulnerableRecord,
    YellowRecord,
};
use todr_db::{Database, Op, Query, Value};
use todr_net::{NodeId, NodeMap};
use todr_sim::SimRng;
use todr_storage::{CodecErrorKind, LogRecord, StableStore, StorageError};

// ---------------------------------------------------------------
// Allocation accounting: bytes requested by the current thread.
// ---------------------------------------------------------------

struct CountingAlloc;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = REQUESTED.try_with(|r| r.set(r.get().saturating_add(bytes)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the bytes it requested.
fn counting<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = REQUESTED.with(Cell::get);
    let result = f();
    (result, REQUESTED.with(Cell::get) - before)
}

// ---------------------------------------------------------------
// The codec through the crate's public surface
// ---------------------------------------------------------------

fn encode<T: Serialize>(value: &T) -> Vec<u8> {
    let mut store = StableStore::new();
    store.append_log_typed(value);
    let bytes = store.log_iter().next().expect("just appended").to_vec();
    bytes
}

fn record(bytes: &[u8]) -> LogRecord {
    LogRecord {
        epoch: 0,
        bytes: bytes.into(),
        checksum: 0,
    }
}

fn decode<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, StorageError> {
    record(bytes).decode()
}

/// What a decoder may allocate for `len` input bytes: in-memory forms are
/// larger than encodings (a B-tree node for a one-row table is ~1 KiB),
/// but by a constant factor — never by what a length field claims.
fn allocation_bound(len: usize) -> usize {
    256 * len + 4096
}

/// The properties every persisted type must have.
///
/// * the value round-trips;
/// * every strict prefix of its encoding fails to decode;
/// * every single-bit flip fails, or decodes to a value whose encoding
///   differs from the original (no bit is ignored) — all bits of
///   encodings up to 2 KiB, the head, tail and a seeded sample of larger
///   ones;
/// * none of those decodes panics or allocates beyond
///   [`allocation_bound`].
fn check_hostile_input_properties<T>(value: &T)
where
    T: Serialize + DeserializeOwned + PartialEq + Debug,
{
    let bytes = encode(value);
    assert_eq!(&decode::<T>(&bytes).expect("round trip"), value);

    let bound = allocation_bound(bytes.len());
    for cut in 0..bytes.len() {
        let torn = record(&bytes[..cut]);
        let (result, requested) = counting(|| torn.decode::<T>());
        assert!(result.is_err(), "prefix {cut}/{} decoded", bytes.len());
        assert!(requested <= bound, "prefix {cut} requested {requested} B");
    }

    let mut rng = SimRng::new(bytes.len() as u64);
    let positions: Vec<usize> = if bytes.len() <= 2048 {
        (0..bytes.len()).collect()
    } else {
        let sample = (0..512).map(|_| rng.gen_range(bytes.len() as u64) as usize);
        (0..64)
            .chain(bytes.len() - 16..bytes.len())
            .chain(sample)
            .collect()
    };
    for byte in positions {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1 << bit;
            let rotten = record(&flipped);
            let (result, requested) = counting(|| rotten.decode::<T>());
            assert!(
                requested <= bound,
                "flip {byte}.{bit} requested {requested} B"
            );
            if let Ok(other) = result {
                assert_ne!(encode(&other), bytes, "flip {byte}.{bit} was ignored");
            }
        }
    }
}

fn node(i: u32) -> NodeId {
    NodeId::new(i)
}

fn nodes(ids: impl IntoIterator<Item = u32>) -> BTreeSet<NodeId> {
    ids.into_iter().map(node).collect()
}

fn action(index: u64, kind: ActionKind) -> Action {
    Action {
        id: ActionId {
            server: node(3),
            index,
        },
        green_line: 1_000_000,
        client: ClientId(9),
        kind,
        size_bytes: 200,
    }
}

/// Every `Value` variant, with both byte-string extremes.
fn values() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Bool(true),
        Value::Int(i64::MIN),
        Value::Text("caf\u{e9} \u{1F600}".into()),
        Value::Bytes(Vec::new()),
        Value::Bytes(vec![0xAB; 200]),
        Value::Bytes((0..64 * 1024).map(|i| i as u8).collect()),
    ]
}

/// Every `Op` variant (the recursive ones nested once).
fn ops() -> Vec<Op> {
    let mut ops: Vec<Op> = values().into_iter().map(|v| Op::put("t", "k", v)).collect();
    ops.extend([
        Op::delete("t", "k"),
        Op::incr("t", "k", -7),
        Op::TsPut {
            table: "t".into(),
            key: "k".into(),
            value: Value::Int(1),
            ts: u64::MAX,
        },
        Op::Proc {
            name: "transfer".into(),
            args: vec![Value::Text("a".into()), Value::Int(5)],
        },
        Op::Checked {
            expect: vec![
                ("t".into(), "k".into(), Some(Value::Int(1))),
                ("t".into(), "absent".into(), None),
            ],
            then: vec![Op::incr("t", "k", 1), Op::Noop],
        },
        Op::Batch(vec![Op::put("t", "a", 1i64), Op::Batch(vec![Op::Noop])]),
        Op::Noop,
    ]);
    ops
}

#[test]
fn actions_of_every_kind_survive_hostile_input_checks() {
    let queries = [
        None,
        Some(Query::get("t", "k")),
        Some(Query::scan("t", "pre")),
        Some(Query::Count { table: "t".into() }),
        Some(Query::Digest),
    ];
    for (i, update) in ops().into_iter().enumerate() {
        let query = queries[i % queries.len()].clone();
        check_hostile_input_properties(&action(i as u64 + 1, ActionKind::App { query, update }));
    }
    check_hostile_input_properties(&action(1, ActionKind::PersistentJoin { joiner: node(7) }));
    check_hostile_input_properties(&action(2, ActionKind::PersistentLeave { leaver: node(0) }));
    // A vector of them: a sequence of actions in one document.
    let queue: Vec<Action> = ops()
        .into_iter()
        .take(3)
        .map(|update| {
            action(
                1,
                ActionKind::App {
                    query: None,
                    update,
                },
            )
        })
        .collect();
    check_hostile_input_properties(&queue);
}

#[test]
fn base_record_over_a_populated_database_survives_hostile_input_checks() {
    let mut db = Database::new();
    for i in 0..12i64 {
        db.apply(&Op::put("accounts", format!("k{i}"), i));
        db.apply(&Op::put("blobs", format!("b{i}"), vec![i as u8; 40]));
    }
    db.apply(&Op::incr("accounts", "k3", 5));
    db.apply(&Op::delete("accounts", "k4"));
    db.apply(&Op::TsPut {
        table: "lww".into(),
        key: "k".into(),
        value: Value::Text("v".into()),
        ts: 9,
    });
    assert!(db.row_version("accounts", "k3") >= 2, "versions populated");
    // The engine's base record: a database with its row-version clock,
    // the green count and the green cuts.
    let base = GreenBase {
        db,
        green_count: 27,
        green_cut: [(node(0), 20), (node(1), 7)].into(),
    };
    let back: GreenBase = decode(&encode(&base)).expect("round trip");
    assert_eq!(
        back.db.row_version("accounts", "k3"),
        base.db.row_version("accounts", "k3")
    );
    check_hostile_input_properties(&base);
}

#[test]
fn membership_records_survive_hostile_input_checks() {
    let mut prim = PrimComponent::initial((0..5).map(node));
    prim.prim_index = 4;
    prim.note_departure(node(2));
    check_hostile_input_properties(&prim);
    check_hostile_input_properties(&Some(prim));
    check_hostile_input_properties(&VulnerableRecord::invalid());
    check_hostile_input_properties(&VulnerableRecord::new_attempt(3, 1, (0..4).map(node)));
    check_hostile_input_properties(&YellowRecord::invalid());
    check_hostile_input_properties(&YellowRecord {
        valid: true,
        set: (1..6)
            .map(|index| ActionId {
                server: node(1),
                index,
            })
            .collect(),
    });
    // green lines, server set, attempt / action index / incarnation.
    let green_lines: BTreeMap<NodeId, u64> =
        (0..7).map(|i| (node(i), u64::from(i) * 1000)).collect();
    check_hostile_input_properties(&green_lines);
    // The engine keeps them as a `NodeMap`: the same bytes, and the same
    // verdict on every torn or flipped copy of them.
    let table = NodeMap::from(green_lines.clone());
    assert_eq!(encode(&table), encode(&green_lines));
    check_hostile_input_properties(&table);
    let bytes = encode(&green_lines);
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1 << bit;
            let as_map = decode::<BTreeMap<NodeId, u64>>(&flipped).map(NodeMap::from);
            let as_table = decode::<NodeMap<u64>>(&flipped);
            assert_eq!(as_table, as_map, "flip {byte}.{bit}");
        }
    }
    check_hostile_input_properties(&nodes(0..56));
    check_hostile_input_properties(&0u64);
    check_hostile_input_properties(&u64::MAX);
}

#[test]
fn awkward_shapes_survive_hostile_input_checks() {
    for nested in [None, Some(None), Some(Some(false)), Some(Some(true))] {
        check_hostile_input_properties::<Option<Option<bool>>>(&nested);
    }
    check_hostile_input_properties(&(u8::MAX, u16::MAX, u32::MAX, u64::MAX));
    check_hostile_input_properties(&(i8::MIN, i16::MIN, i32::MIN, i64::MIN, i64::MAX));
    check_hostile_input_properties(&(-1i64, 0i64, 1i64, 127u8, 128u64));
    check_hostile_input_properties(&BTreeMap::from([(0u64, -1i32), (u64::MAX, i32::MIN)]));
    check_hostile_input_properties(&BTreeMap::from([(-5i64, "neg".to_string())]));
    check_hostile_input_properties(&(1.5f64, -0.0f64, 'x', '\u{1F600}', ()));
    let mut rng = SimRng::new(0xd0c5);
    for _ in 0..24 {
        check_hostile_input_properties(&gen_doc(&mut rng));
    }
}

#[test]
fn a_length_field_never_sizes_an_allocation() {
    // `Vec<Action>` claiming 2^40 elements in a 12-byte document.
    let mut doc = encode(&Vec::<Action>::new());
    doc.truncate(doc.len() - 1);
    doc.extend([0x80, 0x80, 0x80, 0x80, 0x80, 0x40]);
    let hostile = record(&doc);
    let (result, requested) = counting(|| hostile.decode::<Vec<Action>>());
    match result {
        Err(StorageError::Deserialize(e)) => {
            assert!(
                matches!(e.kind, CodecErrorKind::LengthOverrun { .. }),
                "{e}"
            );
        }
        other => panic!("expected a length overrun, got {other:?}"),
    }
    assert!(
        requested < 256,
        "requested {requested} B for a hostile count"
    );

    // A count that passes the remaining-bytes check still reserves no
    // more than the input holds: 64 Ki one-byte elements of a 100+ byte
    // type must not reserve 64 Ki * size_of::<Action>() up front.
    let many: Vec<()> = vec![(); 64 * 1024];
    let doc = record(&encode(&many));
    let (result, requested) = counting(|| doc.decode::<Vec<Action>>());
    assert!(result.is_err(), "units are not actions");
    assert!(
        requested <= doc.bytes.len() + 256,
        "requested {requested} B"
    );
}

#[test]
fn runaway_nesting_is_a_typed_error() {
    let mut op = Op::Noop;
    for _ in 0..200 {
        op = Op::Batch(vec![op]);
    }
    match decode::<Op>(&encode(&op)) {
        Err(StorageError::Deserialize(e)) => assert_eq!(e.kind, CodecErrorKind::DepthExceeded),
        other => panic!("expected DepthExceeded, got {:?}", other.map(|_| ())),
    }
    // Ordinary nesting is far inside the bound.
    let mut op = Op::Noop;
    for _ in 0..16 {
        op = Op::Batch(vec![op]);
    }
    assert_eq!(decode::<Op>(&encode(&op)).expect("16 levels decode"), op);
}

#[test]
fn json_records_from_before_the_binary_codec_are_rejected_not_misread() {
    for old in [
        &b"7"[..],
        b"{\"valid\":false}",
        b"[1,2]",
        b"\"text\"",
        b"null",
    ] {
        match decode::<u64>(old) {
            Err(StorageError::Deserialize(e)) => {
                assert!(matches!(e.kind, CodecErrorKind::BadFormat { .. }), "{e}");
                assert_eq!(e.offset, 0);
            }
            other => panic!("JSON text decoded: {other:?}"),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Leaf {
    Unit,
    Flag(bool),
    Number(i64),
    Big(u64),
    Text(String),
    Pair(u32, String),
    Labeled { tag: String, value: i32 },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Doc {
    id: u64,
    name: String,
    opt: Option<i64>,
    nested_opt: Option<Option<bool>>,
    leaves: Vec<Leaf>,
    map: BTreeMap<u32, String>,
    text_map: BTreeMap<String, i64>,
    bytes: Vec<u8>,
}

/// Generates a string mixing ASCII, escapes, control chars and unicode.
fn gen_string(rng: &mut SimRng) -> String {
    const ALPHABET: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '\n',
        '\t',
        '\r',
        '\u{0007}',
        '/',
        '{',
        '}',
        '[',
        ']',
        ':',
        ',',
        '☃',
        'é',
        '中',
        '\u{1F600}',
    ];
    let len = rng.gen_range(12) as usize;
    (0..len).map(|_| *rng.choose(ALPHABET).unwrap()).collect()
}

fn gen_leaf(rng: &mut SimRng) -> Leaf {
    match rng.gen_range(7) {
        0 => Leaf::Unit,
        1 => Leaf::Flag(rng.gen_bool(0.5)),
        2 => Leaf::Number(rng.next_u64() as i64),
        3 => Leaf::Big(rng.next_u64()),
        4 => Leaf::Text(gen_string(rng)),
        5 => Leaf::Pair(rng.next_u64() as u32, gen_string(rng)),
        _ => Leaf::Labeled {
            tag: gen_string(rng),
            value: rng.next_u64() as i32,
        },
    }
}

fn gen_doc(rng: &mut SimRng) -> Doc {
    Doc {
        id: rng.next_u64(),
        name: gen_string(rng),
        opt: if rng.gen_bool(0.5) {
            Some(rng.next_u64() as i64)
        } else {
            None
        },
        nested_opt: match rng.gen_range(3) {
            0 => None,
            1 => Some(None),
            _ => Some(Some(rng.gen_bool(0.5))),
        },
        leaves: (0..rng.gen_range(6)).map(|_| gen_leaf(rng)).collect(),
        map: (0..rng.gen_range(5))
            .map(|_| (rng.next_u64() as u32, gen_string(rng)))
            .collect(),
        text_map: (0..rng.gen_range(5))
            .map(|_| (gen_string(rng), rng.next_u64() as i64))
            .collect(),
        bytes: (0..rng.gen_range(16))
            .map(|_| rng.next_u64() as u8)
            .collect(),
    }
}

/// Any serde-representable document survives a record round trip.
#[test]
fn records_round_trip() {
    let mut rng = SimRng::new(0x5ea1);
    for _ in 0..256 {
        let doc = gen_doc(&mut rng);
        let mut store = StableStore::new();
        store.put_record("doc", &doc);
        let back: Doc = store.get_record("doc").unwrap().expect("present");
        assert_eq!(back, doc);
    }
}

/// Log entries round-trip in order.
#[test]
fn log_round_trips() {
    let mut rng = SimRng::new(0x106);
    for _ in 0..64 {
        let docs: Vec<Leaf> = (0..rng.gen_range(20)).map(|_| gen_leaf(&mut rng)).collect();
        let mut store = StableStore::new();
        for d in &docs {
            store.append_log_typed(d);
        }
        let back: Vec<Leaf> = store.log_iter_typed().unwrap();
        assert_eq!(back, docs);
    }
}

/// Strings with every kind of awkward content survive (quotes,
/// unicode, control characters).
#[test]
fn strings_round_trip() {
    let mut rng = SimRng::new(0x57f1);
    for _ in 0..256 {
        let s = gen_string(&mut rng);
        let mut store = StableStore::new();
        store.put_record("s", &s);
        let back: String = store.get_record("s").unwrap().expect("present");
        assert_eq!(back, s);
    }
}

/// Crash = revert to the last committed image, no matter how writes,
/// commits and crashes interleave.
#[test]
fn crash_reverts_to_last_commit() {
    let mut rng = SimRng::new(0xc4a5);
    for _ in 0..128 {
        let mut store = StableStore::new();
        // The reference model: what a perfect device would hold.
        let mut committed: BTreeMap<u8, i64> = BTreeMap::new();
        let mut staged: BTreeMap<u8, i64> = BTreeMap::new();
        for _ in 0..rng.gen_range(40) {
            match rng.gen_range(4) {
                0 | 1 => {
                    let k = rng.gen_range(4) as u8;
                    let v = rng.next_u64() as i64;
                    store.put_record(&format!("k{k}"), &v);
                    staged.insert(k, v);
                }
                2 => {
                    store.commit_staged();
                    committed.extend(std::mem::take(&mut staged));
                }
                _ => {
                    store.crash();
                    staged.clear();
                }
            }
            // The store always reads as committed ⊕ staged.
            for key in 0u8..4 {
                let expect = staged.get(&key).or_else(|| committed.get(&key));
                let got: Option<i64> = store.get_record(&format!("k{key}")).unwrap();
                assert_eq!(got.as_ref(), expect);
            }
        }
    }
}

/// Integer keys in maps round-trip as integers.
#[test]
fn integer_keyed_maps_round_trip() {
    let mut rng = SimRng::new(0x1e4e);
    for _ in 0..128 {
        let map: BTreeMap<u64, i32> = (0..rng.gen_range(16))
            .map(|_| (rng.next_u64(), rng.next_u64() as i32))
            .collect();
        let mut store = StableStore::new();
        store.put_record("m", &map);
        let back: BTreeMap<u64, i32> = store.get_record("m").unwrap().expect("present");
        assert_eq!(back, map);
    }
}

/// Floats round-trip bit for bit.
#[test]
fn floats_round_trip() {
    let mut rng = SimRng::new(0xf10a7);
    let specials = [
        0.0f64,
        -0.0,
        f64::MIN_POSITIVE,
        1e-310,
        1e300,
        -2.5e-10,
        0.1,
    ];
    for i in 0..256 {
        let x = if i < specials.len() {
            specials[i]
        } else {
            f64::from_bits(rng.next_u64() & !(0x7ffu64 << 52) | ((1 + rng.gen_range(2045)) << 52))
        };
        let mut store = StableStore::new();
        store.put_record("f", &x);
        let back: f64 = store.get_record("f").unwrap().expect("present");
        assert_eq!(back.to_bits(), x.to_bits());
    }
}
