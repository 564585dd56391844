//! `NodeMap` against the `BTreeMap<NodeId, V>` it stands in for: random
//! operation sequences keep the same contents, order and equality; the
//! encodings are the same bytes; hostile input decodes to what the
//! `BTreeMap` decodes; and a far id costs one row, not its index.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use serde::bin::{to_vec, write_map, FORMAT};
use serde::Serialize;
use todr_net::{NodeId, NodeMap};
use todr_sim::SimRng;

struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local byte
// counter that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `f`'s result, and the heap bytes it asked for.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// Mostly dense ids, as a deployment uses them, with a few far ones.
fn key(rng: &mut SimRng) -> NodeId {
    match rng.gen_range(10) {
        0 => n(u32::MAX - rng.gen_range(2) as u32),
        1 => n(rng.gen_range(1 << 20) as u32),
        _ => n(rng.gen_range(12) as u32),
    }
}

fn assert_same(map: &NodeMap<u64>, reference: &BTreeMap<NodeId, u64>, context: &str) {
    let rows: Vec<(&NodeId, &u64)> = map.iter().collect();
    let expected: Vec<(&NodeId, &u64)> = reference.iter().collect();
    assert_eq!(rows, expected, "{context}");
    assert_eq!(map.len(), reference.len(), "{context}");
    assert_eq!(map.is_empty(), reference.is_empty(), "{context}");
    assert!(map.values().eq(reference.values()), "{context}");
    assert_eq!(format!("{map:?}"), format!("{reference:?}"), "{context}");
    // Equality is by contents, however the two maps were built.
    let rebuilt: NodeMap<u64> = reference.iter().rev().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(*map, rebuilt, "{context}");
    assert_eq!(to_vec(map), to_vec(reference), "{context}");
}

#[test]
fn random_operations_agree_with_a_btreemap() {
    for seed in 0..64 {
        let mut rng = SimRng::new(seed);
        let mut map = NodeMap::new();
        let mut reference = BTreeMap::new();
        for step in 0..200 {
            let id = key(&mut rng);
            let value = rng.gen_range(100);
            let op = rng.gen_range(8);
            match op {
                0 | 1 => assert_eq!(map.insert(id, value), reference.insert(id, value)),
                2 => assert_eq!(map.remove(&id), reference.remove(&id)),
                3 => {
                    assert_eq!(map.get(&id), reference.get(&id));
                    assert_eq!(map.contains_key(&id), reference.contains_key(&id));
                }
                4 => {
                    if let (Some(a), Some(b)) = (map.get_mut(&id), reference.get_mut(&id)) {
                        *a += value;
                        *b += value;
                    }
                }
                5 => {
                    *map.entry(id).or_insert(value) += 1;
                    *reference.entry(id).or_insert(value) += 1;
                }
                6 => {
                    *map.entry(id).or_default() += value;
                    *reference.entry(id).or_default() += value;
                }
                _ => {
                    let keep = |k: &NodeId, v: &mut u64| {
                        *v += 1;
                        !(u64::from(k.index()) + *v).is_multiple_of(3)
                    };
                    map.retain(keep);
                    reference.retain(keep);
                }
            }
            assert_same(
                &map,
                &reference,
                &format!("seed {seed}, step {step}, op {op}"),
            );
        }
        for (a, b) in map.values_mut().zip(reference.values_mut()) {
            *a *= 2;
            *b *= 2;
        }
        assert_same(&map, &reference, &format!("seed {seed}, doubled"));
    }
}

#[test]
fn encodings_are_the_btreemaps() {
    let mut rng = SimRng::new(7);
    for _ in 0..32 {
        let reference: BTreeMap<NodeId, u64> = (0..rng.gen_range(20))
            .map(|_| (key(&mut rng), rng.next_u64()))
            .collect();
        let map: NodeMap<u64> = reference.clone().into();
        assert_eq!(to_vec(&map), to_vec(&reference));
        let json = serde::json::to_string(&map).expect("renders");
        assert_eq!(json, serde::json::to_string(&reference).expect("renders"));
        let back: NodeMap<u64> = serde::json::from_str(&json).expect("parses");
        assert_eq!(back, map);
        let back: NodeMap<u64> = serde::bin::from_slice(&to_vec(&map)).expect("decodes");
        assert_eq!(back, map);
    }
}

/// A document holding `rows` as a map, in the given order, duplicates
/// and all: what a `BTreeMap` never writes, but a disk or peer might.
fn raw_map(rows: &[(NodeId, u64)]) -> Vec<u8> {
    let mut out = vec![FORMAT];
    write_map(&mut out, rows.len());
    for (id, value) in rows {
        id.encode(&mut out);
        value.encode(&mut out);
    }
    out
}

fn assert_decodes_alike(bytes: &[u8], context: &str) {
    let reference = serde::bin::from_slice::<BTreeMap<NodeId, u64>>(bytes);
    let map = serde::bin::from_slice::<NodeMap<u64>>(bytes);
    match (map, reference) {
        (Ok(map), Ok(reference)) => assert_same(&map, &reference, context),
        (Err(a), Err(b)) => assert_eq!(a, b, "{context}"),
        (map, reference) => panic!("{context}: {map:?} against {reference:?}"),
    }
}

#[test]
fn hostile_input_decodes_as_the_btreemap_does() {
    let max = n(u32::MAX);
    let shapes: [&[(NodeId, u64)]; 5] = [
        &[(n(3), 1), (n(1), 2), (n(2), 3)],
        &[(n(1), 1), (n(1), 2), (n(0), 3), (n(1), 4)],
        &[(max, 1), (n(0), 2), (max, 3)],
        &[(max, 9)],
        &[],
    ];
    for rows in shapes {
        assert_decodes_alike(&raw_map(rows), &format!("{rows:?}"));
    }
    let mut rng = SimRng::new(0x40de);
    for case in 0..200 {
        let rows: Vec<(NodeId, u64)> = (0..rng.gen_range(12))
            .map(|_| (key(&mut rng), rng.gen_range(1000)))
            .collect();
        let bytes = raw_map(&rows);
        assert_decodes_alike(&bytes, &format!("case {case}: {rows:?}"));
        // Torn and bit-flipped copies fail, or decode, alike.
        let cut = rng.gen_range(bytes.len() as u64) as usize;
        assert_decodes_alike(&bytes[..cut], &format!("case {case} cut at {cut}"));
        let mut flipped = bytes.clone();
        let at = rng.gen_range(bytes.len() as u64) as usize;
        flipped[at] ^= 1 << rng.gen_range(8);
        assert_decodes_alike(&flipped, &format!("case {case} flipped at {at}"));
    }
}

/// Room for rows, not for ids: looking up `u32::MAX` allocates nothing,
/// and inserting it into a 3-row map grows the rows once (to 6, the
/// vector's doubling), never toward 2^32 slots.
#[test]
fn a_far_id_costs_one_row_not_its_index() {
    let row = std::mem::size_of::<(NodeId, u64)>() as u64;
    let mut map: NodeMap<u64> = [(n(0), 1), (n(1), 2), (n(2), 3)].into();
    let far = n(u32::MAX);
    let (found, bytes) = allocated_by(|| map.get(&far).copied());
    assert_eq!((found, bytes), (None, 0));
    let (old, bytes) = allocated_by(|| map.insert(far, 4));
    assert_eq!(old, None);
    assert!(bytes <= 8 * row, "inserting {far} asked for {bytes} B");
    let (_, bytes) = allocated_by(|| *map.entry(n(u32::MAX - 1)).or_insert(5) += 1);
    assert!(bytes <= 8 * row, "a second far id asked for {bytes} B");
    let ids: Vec<u32> = map.iter().map(|(id, _)| id.index()).collect();
    assert_eq!(ids, [0, 1, 2, u32::MAX - 1, u32::MAX]);
}
