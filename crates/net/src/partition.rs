//! Connectivity bookkeeping: which nodes can currently talk to which.

use std::collections::BTreeMap;

use crate::node::NodeId;

/// The current partition of the node universe into connected components.
///
/// Every node belongs to exactly one component (identified by a small
/// integer). Two nodes can exchange messages iff they are in the same
/// component and both are up. Initially all nodes share component `0`
/// (fully connected).
///
/// Components are held per [`NodeId::index`], so a lookup is an array
/// load, and every walk visits nodes in ascending id order.
///
/// ```
/// use todr_net::{NodeId, PartitionMap};
///
/// let n: Vec<NodeId> = (0..4).map(NodeId::new).collect();
/// let mut p = PartitionMap::fully_connected(n.iter().copied());
/// assert!(p.connected(n[0], n[3]));
///
/// // Split {0,1} from {2,3}.
/// p.split(&[vec![n[0], n[1]], vec![n[2], n[3]]]);
/// assert!(p.connected(n[0], n[1]));
/// assert!(!p.connected(n[1], n[2]));
///
/// p.merge_all();
/// assert!(p.connected(n[1], n[2]));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionMap {
    /// Per node index: its component, `None` if the node was never added.
    component: Vec<Option<u32>>,
}

impl PartitionMap {
    /// All `nodes` in one component.
    pub fn fully_connected(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut map = PartitionMap::default();
        for n in nodes {
            map.add_node(n);
        }
        map
    }

    /// Adds a node (to component 0 by default) if not present.
    pub fn add_node(&mut self, node: NodeId) {
        let i = node.index() as usize;
        if i >= self.component.len() {
            self.component.resize(i + 1, None);
        }
        self.component[i].get_or_insert(0);
    }

    /// Whether `node` is known to the map.
    pub fn contains(&self, node: NodeId) -> bool {
        self.get(node).is_some()
    }

    /// Re-partitions the universe into the given `groups`. Nodes not
    /// listed in any group each become a singleton component.
    ///
    /// # Panics
    ///
    /// Panics if a node appears in more than one group or is unknown.
    pub fn split(&mut self, groups: &[Vec<NodeId>]) {
        let mut assigned: Vec<Option<u32>> = vec![None; self.component.len()];
        for (i, group) in groups.iter().enumerate() {
            for &n in group {
                assert!(self.contains(n), "unknown node {n} in partition spec");
                let prev = assigned[n.index() as usize].replace(i as u32);
                assert!(prev.is_none(), "node {n} listed in two partition groups");
            }
        }
        let mut next = groups.len() as u32;
        for (comp, assigned) in self.component.iter_mut().zip(assigned) {
            let Some(comp) = comp else { continue };
            match assigned {
                Some(c) => *comp = c,
                None => {
                    *comp = next;
                    next += 1;
                }
            }
        }
    }

    /// Reconnects everything into a single component.
    pub fn merge_all(&mut self) {
        for comp in self.component.iter_mut().flatten() {
            *comp = 0;
        }
    }

    /// Merges the components containing `a` and `b` (all members of both
    /// components become mutually connected).
    ///
    /// # Panics
    ///
    /// Panics if either node is unknown.
    pub fn merge(&mut self, a: NodeId, b: NodeId) {
        let ca = self.component_of(a);
        let cb = self.component_of(b);
        for comp in self.component.iter_mut().flatten() {
            if *comp == cb {
                *comp = ca;
            }
        }
    }

    /// Whether `a` and `b` are currently in the same component.
    ///
    /// # Panics
    ///
    /// Panics if either node is unknown.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.component_of(a) == self.component_of(b)
    }

    /// The component index of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown.
    pub fn component_of(&self, node: NodeId) -> u32 {
        self.get(node)
            .unwrap_or_else(|| panic!("unknown node {node}"))
    }

    /// All nodes in the same component as `node`, including itself,
    /// in ascending id order.
    pub fn peers_of(&self, node: NodeId) -> Vec<NodeId> {
        let c = self.component_of(node);
        self.nodes()
            .filter(|&(_, comp)| comp == c)
            .map(|(n, _)| n)
            .collect()
    }

    /// The full membership grouped by component.
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        let mut by_comp: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
        for (n, c) in self.nodes() {
            by_comp.entry(c).or_default().push(n);
        }
        by_comp.into_values().collect()
    }

    fn get(&self, node: NodeId) -> Option<u32> {
        self.component.get(node.index() as usize).copied().flatten()
    }

    /// Every known node with its component, in ascending id order.
    fn nodes(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.component
            .iter()
            .enumerate()
            .filter_map(|(i, c)| Some((NodeId::new(i as u32), (*c)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn starts_fully_connected() {
        let ns = nodes(5);
        let p = PartitionMap::fully_connected(ns.iter().copied());
        for &a in &ns {
            for &b in &ns {
                assert!(p.connected(a, b));
            }
        }
        assert_eq!(p.components().len(), 1);
    }

    #[test]
    fn split_disconnects_groups() {
        let ns = nodes(5);
        let mut p = PartitionMap::fully_connected(ns.iter().copied());
        p.split(&[vec![ns[0], ns[1], ns[2]], vec![ns[3], ns[4]]]);
        assert!(p.connected(ns[0], ns[2]));
        assert!(p.connected(ns[3], ns[4]));
        assert!(!p.connected(ns[2], ns[3]));
        assert_eq!(
            p.components(),
            vec![vec![ns[0], ns[1], ns[2]], vec![ns[3], ns[4]]]
        );
    }

    #[test]
    fn unlisted_nodes_become_singletons() {
        let ns = nodes(4);
        let mut p = PartitionMap::fully_connected(ns.iter().copied());
        p.split(&[vec![ns[0], ns[1]]]);
        assert!(!p.connected(ns[2], ns[3]));
        assert!(!p.connected(ns[2], ns[0]));
        assert_eq!(p.peers_of(ns[2]), vec![ns[2]]);
    }

    #[test]
    fn merge_two_components() {
        let ns = nodes(6);
        let mut p = PartitionMap::fully_connected(ns.iter().copied());
        p.split(&[vec![ns[0], ns[1]], vec![ns[2], ns[3]], vec![ns[4], ns[5]]]);
        p.merge(ns[0], ns[2]);
        assert!(p.connected(ns[1], ns[3]));
        assert!(!p.connected(ns[1], ns[4]));
    }

    #[test]
    fn merge_all_restores_connectivity() {
        let ns = nodes(3);
        let mut p = PartitionMap::fully_connected(ns.iter().copied());
        p.split(&[vec![ns[0]], vec![ns[1]], vec![ns[2]]]);
        p.merge_all();
        assert!(p.connected(ns[0], ns[2]));
    }

    #[test]
    fn peers_are_sorted_and_include_self() {
        let ns = nodes(4);
        let p = PartitionMap::fully_connected(ns.iter().copied());
        assert_eq!(p.peers_of(ns[2]), ns);
    }

    #[test]
    #[should_panic(expected = "two partition groups")]
    fn duplicate_node_in_split_panics() {
        let ns = nodes(2);
        let mut p = PartitionMap::fully_connected(ns.iter().copied());
        p.split(&[vec![ns[0]], vec![ns[0], ns[1]]]);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn unknown_node_panics() {
        let p = PartitionMap::fully_connected(nodes(2));
        p.component_of(NodeId::new(9));
    }

    #[test]
    fn add_node_joins_component_zero() {
        let mut p = PartitionMap::fully_connected(nodes(2));
        p.add_node(NodeId::new(7));
        assert!(p.connected(NodeId::new(0), NodeId::new(7)));
    }
}
