//! Key→shard extraction: the deterministic partition of the key space
//! and the read/write-set analysis a sharding router needs to classify
//! an action as single-shard or cross-shard.
//!
//! A row is named by its [`row_fingerprint`], a pure function of
//! `(table, key)` bytes — no placement table, no coordination — so every
//! router instance, every replica and every offline checker agrees on
//! where a row lives: [`shard_of`] is the fingerprint modulo the shard
//! count. A [`Footprint`] is the one form a set of rows takes, for the
//! router, the engine's conflict checks ([`crate::conflict`]) and the
//! exported events alike: sorted, deduplicated fingerprints, a single
//! row held inline. Ops whose row set cannot be determined statically
//! ([`Op::Proc`] reads and writes arbitrary rows at ordering time;
//! [`Query::Digest`] / [`Query::Count`] / [`Query::Scan`] read whole
//! tables) report [`Footprint::all`] and are treated as touching every
//! shard.

use std::collections::BTreeSet;

use crate::op::{Op, Query};

/// The stable 64-bit fingerprint of row `(table, key)`: FNV-1a over the
/// row coordinates. Stable across platforms and process runs; *not* a
/// randomized hash on purpose — the shard map is part of the replicated
/// protocol state, and footprints travel in events as these fingerprints.
pub fn row_fingerprint(table: &str, key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in table.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= 0xff; // separator outside the UTF-8 range: "ab"+"c" ≠ "a"+"bc"
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    for &b in key.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard that owns row `(table, key)` out of `shards` total.
///
/// # Panics
///
/// Panics if `shards` is 0 — an empty partition owns nothing.
pub fn shard_of(table: &str, key: &str, shards: u32) -> u32 {
    assert!(shards > 0, "shard count must be positive");
    shard(row_fingerprint(table, key), shards)
}

fn shard(fingerprint: u64, shards: u32) -> u32 {
    (fingerprint % u64::from(shards)) as u32
}

/// The set of rows an op or query touches, when statically known: the
/// sorted, deduplicated [`row_fingerprint`]s of its rows. Two distinct
/// rows that share a fingerprint count as one, so a collision can only
/// make two footprints overlap, never hide an overlap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint(Rows);

#[derive(Debug, Clone, Default, PartialEq, Eq)]
enum Rows {
    #[default]
    None,
    /// The common case, held inline.
    One(u64),
    /// Two or more, ascending.
    Many(Vec<u64>),
    /// Statically unbounded (stored procedures, table scans, digests).
    All,
}

impl Footprint {
    /// The empty footprint.
    pub fn empty() -> Self {
        Footprint(Rows::None)
    }

    /// The statically unbounded footprint: every row.
    pub fn all() -> Self {
        Footprint(Rows::All)
    }

    fn add(&mut self, fp: u64) {
        match &mut self.0 {
            Rows::None => self.0 = Rows::One(fp),
            Rows::One(one) if *one != fp => {
                let (lo, hi) = ((*one).min(fp), (*one).max(fp));
                self.0 = Rows::Many(vec![lo, hi]);
            }
            Rows::Many(rows) => {
                if let Err(at) = rows.binary_search(&fp) {
                    rows.insert(at, fp);
                }
            }
            Rows::One(_) | Rows::All => {}
        }
    }

    /// Folds `other` into `self`.
    pub fn union(&mut self, other: &Footprint) {
        match other.0 {
            Rows::All => self.0 = Rows::All,
            _ => other.rows().iter().for_each(|&fp| self.add(fp)),
        }
    }

    /// Whether no rows are touched.
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Rows::None)
    }

    /// Whether the footprint is statically unbounded.
    pub fn is_all(&self) -> bool {
        matches!(self.0, Rows::All)
    }

    /// The ascending fingerprints of a bounded footprint; empty for
    /// [`Footprint::all`].
    pub fn rows(&self) -> &[u64] {
        match &self.0 {
            Rows::One(fp) => std::slice::from_ref(fp),
            Rows::Many(rows) => rows,
            Rows::None | Rows::All => &[],
        }
    }

    /// Whether the row with fingerprint `fp` is touched;
    /// [`Footprint::all`] touches every row.
    pub fn contains(&self, fp: u64) -> bool {
        self.is_all() || self.rows().binary_search(&fp).is_ok()
    }

    /// Whether the two footprints share at least one row.
    /// [`Footprint::all`] intersects anything non-empty (and another
    /// `all`); an empty footprint intersects nothing.
    pub fn intersects(&self, other: &Footprint) -> bool {
        match (&self.0, &other.0) {
            (Rows::All, _) => !other.is_empty(),
            (_, Rows::All) => !self.is_empty(),
            _ => {
                let (a, b) = (self.rows(), other.rows());
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => return true,
                    }
                }
                false
            }
        }
    }

    /// The shards this footprint lands on, in ascending order: each
    /// row's [`shard_of`]. [`Footprint::all`] maps to every shard.
    pub fn shards(&self, shards: u32) -> BTreeSet<u32> {
        match self.0 {
            Rows::All => (0..shards).collect(),
            _ => self.rows().iter().map(|&fp| shard(fp, shards)).collect(),
        }
    }
}

/// A bounded footprint of the given fingerprints, in any order.
impl FromIterator<u64> for Footprint {
    fn from_iter<I: IntoIterator<Item = u64>>(fps: I) -> Self {
        let mut fp = Footprint::empty();
        fps.into_iter().for_each(|row| fp.add(row));
        fp
    }
}

/// The rows an update op writes (for [`Op::Checked`], also the rows its
/// `expect` clause *reads* — a replica must host a row to evaluate the
/// expectation, so the router treats guard reads as part of the
/// placement-relevant footprint).
pub fn write_set(op: &Op) -> Footprint {
    let mut fp = Footprint::empty();
    collect_writes(op, &mut fp);
    fp
}

fn collect_writes(op: &Op, fp: &mut Footprint) {
    match op {
        Op::Put { table, key, .. }
        | Op::Delete { table, key }
        | Op::Incr { table, key, .. }
        | Op::TsPut { table, key, .. } => fp.add(row_fingerprint(table, key)),
        Op::Proc { .. } => fp.0 = Rows::All,
        Op::Checked { expect, then } => {
            for (table, key, _) in expect {
                fp.add(row_fingerprint(table, key));
            }
            for inner in then {
                collect_writes(inner, fp);
            }
        }
        Op::Batch(ops) => {
            for inner in ops {
                collect_writes(inner, fp);
            }
        }
        Op::Noop => {}
    }
}

/// The rows a query reads. Scans, counts and digests are table- or
/// database-wide and report [`Footprint::all`].
pub fn read_set(query: &Query) -> Footprint {
    match query {
        Query::Get { table, key } => Footprint(Rows::One(row_fingerprint(table, key))),
        Query::Scan { .. } | Query::Count { .. } | Query::Digest => Footprint::all(),
    }
}

/// The combined footprint of one action: the update's write set plus
/// the optional query's read set.
pub fn action_footprint(update: &Op, query: Option<&Query>) -> Footprint {
    let mut fp = write_set(update);
    if let Some(q) = query {
        fp.union(&read_set(q));
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_maps_to_exactly_one_shard_in_range() {
        for shards in [1u32, 2, 3, 4, 7, 16] {
            for i in 0..200 {
                let key = format!("k{i}");
                let s = shard_of("bench", &key, shards);
                assert!(s < shards);
                // Same row, same shard — the function is pure.
                assert_eq!(s, shard_of("bench", &key, shards));
            }
        }
    }

    #[test]
    fn table_is_part_of_the_row_coordinates() {
        // ("ab","c") and ("a","bc") must hash differently: the
        // separator keeps table/key concatenation unambiguous.
        assert_ne!(row_fingerprint("ab", "c"), row_fingerprint("a", "bc"));
    }

    #[test]
    fn single_shard_spread_is_roughly_uniform() {
        let shards = 4u32;
        let mut counts = vec![0u32; shards as usize];
        for i in 0..400 {
            counts[shard_of("t", &format!("row-{i}"), shards) as usize] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 50, "shard {s} got only {c}/400 rows");
        }
    }

    #[test]
    fn write_sets_cover_each_variant() {
        assert!(write_set(&Op::Noop).is_empty());
        assert_eq!(
            write_set(&Op::put("t", "k", 1i64)),
            write_set(&Op::delete("t", "k"))
        );
        assert_eq!(
            write_set(&Op::Proc {
                name: "x".into(),
                args: vec![]
            }),
            Footprint::all()
        );
        let batch = Op::Batch(vec![Op::put("t", "a", 1i64), Op::incr("u", "b", 1)]);
        let rows = write_set(&batch);
        assert_eq!(rows.rows().len(), 2);
        assert!(rows.contains(row_fingerprint("t", "a")));
        assert!(rows.contains(row_fingerprint("u", "b")));
        // Checked: guard reads count toward placement.
        let checked = Op::Checked {
            expect: vec![("g".into(), "guard".into(), None)],
            then: vec![Op::put("t", "a", 1i64)],
        };
        let rows = write_set(&checked);
        assert!(rows.contains(row_fingerprint("g", "guard")));
        assert!(rows.contains(row_fingerprint("t", "a")));
        assert!(!rows.is_all(), "checked op has a bounded footprint");
    }

    #[test]
    fn read_sets_cover_each_variant() {
        assert!(!read_set(&Query::get("t", "k")).is_empty());
        assert_eq!(read_set(&Query::scan("t", "")), Footprint::all());
        assert_eq!(
            read_set(&Query::Count { table: "t".into() }),
            Footprint::all()
        );
        assert_eq!(read_set(&Query::Digest), Footprint::all());
    }

    #[test]
    fn intersects_covers_bounded_and_unbounded_cases() {
        let a = write_set(&Op::put("t", "k", 1i64));
        let b = write_set(&Op::put("t", "k", 2i64));
        let c = write_set(&Op::put("t", "other", 3i64));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(Footprint::all().intersects(&a));
        assert!(Footprint::all().intersects(&Footprint::all()));
        // The empty footprint intersects nothing, not even All.
        assert!(!Footprint::empty().intersects(&Footprint::all()));
        assert!(!Footprint::empty().intersects(&a));
    }

    #[test]
    fn fingerprints_are_sorted_and_deduplicated() {
        let fp = write_set(&Op::Batch(vec![
            Op::put("t", "b", 2i64),
            Op::put("t", "a", 1i64),
            Op::put("t", "a", 3i64),
            Op::put("t", "c", 3i64),
        ]));
        let fps = fp.rows();
        assert_eq!(fps.len(), 3);
        assert!(fps.windows(2).all(|w| w[0] < w[1]));
        assert!(fp.contains(row_fingerprint("t", "a")));
        assert!(!fp.contains(row_fingerprint("t", "d")));
        assert_eq!(fp, fps.iter().rev().copied().collect());
        assert!(Footprint::all().rows().is_empty());
        assert!(Footprint::all().contains(row_fingerprint("t", "d")));
    }

    #[test]
    fn footprint_shards_ascending_and_bounded() {
        let fp = action_footprint(
            &Op::Batch(vec![Op::put("t", "a", 1i64), Op::put("t", "b", 2i64)]),
            Some(&Query::get("t", "c")),
        );
        let shards = fp.shards(4);
        assert!(!shards.is_empty() && shards.len() <= 3);
        assert!(shards.iter().all(|&s| s < 4));
        assert_eq!(Footprint::all().shards(3), (0..3).collect());
    }
}
