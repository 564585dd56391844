//! Node identifiers, and the table keyed by them.

use std::collections::BTreeMap;
use std::fmt;

use serde::bin::{Error as BinError, Reader};
use serde::{Deserialize, Error, Serialize, Value};

/// Identifier of a node (a server machine) in the simulated network.
///
/// Node ids are small integers chosen by the experiment. They are distinct
/// from [`todr_sim::ActorId`]s: a node is a *location* in the network; the
/// fabric maps each node to the endpoint actor that receives its traffic.
///
/// ```
/// use todr_net::NodeId;
///
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(n.to_string(), "n3");
/// assert!(NodeId::new(1) < NodeId::new(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The raw index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A table with one row per node: a `BTreeMap<NodeId, V>` for the ids a
/// deployment actually uses, which are dense (`0..n`) in every one the
/// harness builds.
///
/// The rows are one vector sorted by id. A lookup first probes the slot
/// the id's index names, where a dense table keeps it, and falls back to
/// a binary search; memory grows with the rows, never with an id's
/// value. It iterates in ascending id, compares, prints, encodes and
/// decodes exactly as the `BTreeMap` would (a decoded map keeps the last
/// of duplicate keys).
///
/// ```
/// use todr_net::{NodeId, NodeMap};
///
/// let mut lines: NodeMap<u64> = [(NodeId::new(2), 5), (NodeId::new(0), 7)].into();
/// *lines.entry(NodeId::new(1)).or_insert(0) += 3;
/// assert_eq!(lines.get(&NodeId::new(1)), Some(&3));
/// let order: Vec<u32> = lines.iter().map(|(id, _)| id.index()).collect();
/// assert_eq!(order, [0, 1, 2]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct NodeMap<V> {
    /// Ascending, unique ids.
    rows: Vec<(NodeId, V)>,
}

impl<V> NodeMap<V> {
    /// An empty table.
    pub const fn new() -> Self {
        NodeMap { rows: Vec::new() }
    }

    /// An empty table with room for `rows` rows: a table sized once from
    /// a member set never grows (or moves) while that set holds.
    pub fn with_capacity(rows: usize) -> Self {
        NodeMap {
            rows: Vec::with_capacity(rows),
        }
    }

    /// `Ok(position)` of `id`'s row, or `Err(position)` where it would go.
    fn find(&self, id: NodeId) -> Result<usize, usize> {
        let slot = id.index() as usize;
        match self.rows.get(slot) {
            Some((at, _)) if *at == id => Ok(slot),
            _ => self.rows.binary_search_by_key(&id, |(at, _)| *at),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// `id`'s row.
    pub fn get(&self, id: &NodeId) -> Option<&V> {
        let at = self.find(*id).ok()?;
        Some(&self.rows[at].1)
    }

    /// `id`'s row, mutably.
    pub fn get_mut(&mut self, id: &NodeId) -> Option<&mut V> {
        let at = self.find(*id).ok()?;
        Some(&mut self.rows[at].1)
    }

    /// Whether `id` has a row.
    pub fn contains_key(&self, id: &NodeId) -> bool {
        self.find(*id).is_ok()
    }

    /// Sets `id`'s row, returning the value it replaces.
    pub fn insert(&mut self, id: NodeId, value: V) -> Option<V> {
        match self.find(id) {
            Ok(at) => Some(std::mem::replace(&mut self.rows[at].1, value)),
            Err(at) => {
                self.rows.insert(at, (id, value));
                None
            }
        }
    }

    /// Removes `id`'s row, returning its value.
    pub fn remove(&mut self, id: &NodeId) -> Option<V> {
        let at = self.find(*id).ok()?;
        Some(self.rows.remove(at).1)
    }

    /// `id`'s row, for in-place update or insertion.
    pub fn entry(&mut self, id: NodeId) -> Entry<'_, V> {
        let at = self.find(id);
        Entry { map: self, id, at }
    }

    /// Keeps only the rows `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&NodeId, &mut V) -> bool) {
        self.rows.retain_mut(|(id, value)| keep(id, value));
    }

    /// The rows in ascending id.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter(self.rows.iter())
    }

    /// The values in ascending id.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.rows.iter().map(|(_, value)| value)
    }

    /// The values in ascending id, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.rows.iter_mut().map(|(_, value)| value)
    }
}

impl<V> Default for NodeMap<V> {
    fn default() -> Self {
        NodeMap::new()
    }
}

impl<V: fmt::Debug> fmt::Debug for NodeMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A row of a [`NodeMap`], present or not: [`NodeMap::entry`].
pub struct Entry<'a, V> {
    map: &'a mut NodeMap<V>,
    id: NodeId,
    at: Result<usize, usize>,
}

impl<'a, V> Entry<'a, V> {
    /// The row's value, `default` inserted first if it has none.
    pub fn or_insert(self, default: V) -> &'a mut V {
        self.or_insert_with(|| default)
    }

    /// The row's value, `V::default()` inserted first if it has none.
    pub fn or_default(self) -> &'a mut V
    where
        V: Default,
    {
        self.or_insert_with(V::default)
    }

    fn or_insert_with(self, make: impl FnOnce() -> V) -> &'a mut V {
        let at = match self.at {
            Ok(at) => at,
            Err(at) => {
                self.map.rows.insert(at, (self.id, make()));
                at
            }
        };
        &mut self.map.rows[at].1
    }
}

/// The rows of a [`NodeMap`] in ascending id: [`NodeMap::iter`].
pub struct Iter<'a, V>(std::slice::Iter<'a, (NodeId, V)>);

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (&'a NodeId, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(id, value)| (id, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<'a, V> IntoIterator for &'a NodeMap<V> {
    type Item = (&'a NodeId, &'a V);
    type IntoIter = Iter<'a, V>;

    fn into_iter(self) -> Iter<'a, V> {
        self.iter()
    }
}

/// Rows in any order; of two with the same id the later one stays, as
/// `BTreeMap::from_iter` keeps it.
impl<V> FromIterator<(NodeId, V)> for NodeMap<V> {
    fn from_iter<I: IntoIterator<Item = (NodeId, V)>>(rows: I) -> Self {
        let mut rows: Vec<(NodeId, V)> = rows.into_iter().collect();
        // Stable: equal ids keep their arrival order, the last one last.
        rows.sort_by_key(|(id, _)| *id);
        rows.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        NodeMap { rows }
    }
}

impl<V, const N: usize> From<[(NodeId, V); N]> for NodeMap<V> {
    fn from(rows: [(NodeId, V); N]) -> Self {
        rows.into_iter().collect()
    }
}

impl<V> From<BTreeMap<NodeId, V>> for NodeMap<V> {
    fn from(map: BTreeMap<NodeId, V>) -> Self {
        NodeMap {
            rows: map.into_iter().collect(),
        }
    }
}

/// The `BTreeMap<NodeId, V>` encoding, byte for byte.
impl<V: Serialize> Serialize for NodeMap<V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(id, value)| (id.to_value(), value.to_value()))
                .collect(),
        )
    }

    fn encode(&self, out: &mut Vec<u8>) {
        serde::bin::write_map(out, self.len());
        for (id, value) in self {
            id.encode(out);
            value.encode(out);
        }
    }
}

/// What a `BTreeMap<NodeId, V>` decodes from the same input.
impl<V: Deserialize> Deserialize for NodeMap<V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        BTreeMap::from_value(v).map(NodeMap::from)
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, BinError> {
        (0..r.map()?)
            .map(|_| Ok((NodeId::decode(r)?, V::decode(r)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_display() {
        assert_eq!(NodeId::new(7).index(), 7);
        assert_eq!(NodeId::new(7).to_string(), "n7");
    }

    #[test]
    fn ordering_matches_index() {
        let mut v = vec![NodeId::new(3), NodeId::new(1), NodeId::new(2)];
        v.sort();
        assert_eq!(v, vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
    }
}
