//! Heartbeat failure detector.

use std::collections::BTreeSet;

use todr_net::NodeId;
use todr_sim::{SimDuration, SimTime};

/// Tracks which peers this daemon has heard from recently.
///
/// Every received frame and every folded probe refreshes the sender's
/// entry; a peer is
/// *reachable* while its last-heard time is within `fail_timeout`. The
/// daemon compares the reachable set against its installed configuration
/// on every tick and starts a membership round on any difference — this
/// covers failure, partition, merge, and the arrival of entirely new
/// nodes (the daemon learns of them from their heartbeats).
#[derive(Debug, Clone)]
pub(crate) struct FailureDetector {
    me: NodeId,
    fail_timeout: SimDuration,
    /// Per peer [`NodeId::index`]: when a frame from it last arrived.
    /// Indices past the end, and `None`, were never heard from.
    last_heard: Vec<Option<SimTime>>,
}

impl FailureDetector {
    pub(crate) fn new(me: NodeId, fail_timeout: SimDuration) -> Self {
        FailureDetector {
            me,
            fail_timeout,
            last_heard: Vec::new(),
        }
    }

    /// Records that a frame from `peer` arrived at `at`. A probe is
    /// folded after it arrived, possibly after a later frame from the
    /// same peer, so this never moves an entry back.
    pub(crate) fn heard_from(&mut self, peer: NodeId, at: SimTime) {
        if peer == self.me {
            return;
        }
        let i = peer.index() as usize;
        if i >= self.last_heard.len() {
            self.last_heard.resize(i + 1, None);
        }
        let last = &mut self.last_heard[i];
        *last = Some(last.map_or(at, |t| t.max(at)));
    }

    /// The currently reachable nodes in ascending order, `me` included.
    fn reachable_nodes(&self, now: SimTime) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.me.index() as usize;
        (0..self.last_heard.len().max(me + 1))
            .filter(move |&i| i == me || self.fresh(i, now, self.fail_timeout))
            .map(|i| NodeId::new(i as u32))
    }

    /// Whether the peer at index `i` was heard within `window` of `now`.
    fn fresh(&self, i: usize, now: SimTime, window: SimDuration) -> bool {
        self.last_heard
            .get(i)
            .copied()
            .flatten()
            .is_some_and(|t| now.saturating_since(t) <= window)
    }

    /// The currently reachable set, always including `me`.
    pub(crate) fn reachable(&self, now: SimTime) -> BTreeSet<NodeId> {
        self.reachable_nodes(now).collect()
    }

    /// Whether the reachable set is exactly `nodes`, given in ascending
    /// order without repeats — the per-tick comparison, without building
    /// the set.
    pub(crate) fn reachable_is<'a>(
        &self,
        nodes: impl IntoIterator<Item = &'a NodeId>,
        now: SimTime,
    ) -> bool {
        self.reachable_nodes(now).eq(nodes.into_iter().copied())
    }

    /// Whether `peer` is currently reachable (`me` always is).
    pub(crate) fn is_reachable(&self, peer: NodeId, now: SimTime) -> bool {
        peer == self.me || self.fresh(peer.index() as usize, now, self.fail_timeout)
    }

    /// Whether *every* node in `peers` was heard from within `window`
    /// of `now` (`me` counts as always fresh). Stricter than
    /// [`Self::reachable`]: lease renewal uses a window of two heartbeat
    /// intervals, far tighter than `fail_timeout`, so a lease stops
    /// being renewed well before the membership protocol even suspects
    /// a peer.
    pub(crate) fn all_fresh_within<'a>(
        &self,
        peers: impl IntoIterator<Item = &'a NodeId>,
        now: SimTime,
        window: SimDuration,
    ) -> bool {
        peers
            .into_iter()
            .all(|&p| p == self.me || self.fresh(p.index() as usize, now, window))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    const TIMEOUT: SimDuration = SimDuration::from_millis(200);

    #[test]
    fn self_is_always_reachable() {
        let fd = FailureDetector::new(n(0), TIMEOUT);
        assert_eq!(
            fd.reachable(SimTime::from_secs(100)),
            [n(0)].into_iter().collect()
        );
    }

    #[test]
    fn recent_peers_are_reachable() {
        let mut fd = FailureDetector::new(n(0), TIMEOUT);
        fd.heard_from(n(1), SimTime::from_millis(100));
        fd.heard_from(n(2), SimTime::from_millis(250));
        let at = SimTime::from_millis(300);
        let r = fd.reachable(at);
        assert!(r.contains(&n(1)));
        assert!(r.contains(&n(2)));
    }

    #[test]
    fn stale_peers_time_out() {
        let mut fd = FailureDetector::new(n(0), TIMEOUT);
        fd.heard_from(n(1), SimTime::from_millis(100));
        let r = fd.reachable(SimTime::from_millis(301));
        assert!(!r.contains(&n(1)));
    }

    #[test]
    fn hearing_again_refreshes() {
        let mut fd = FailureDetector::new(n(0), TIMEOUT);
        fd.heard_from(n(1), SimTime::from_millis(100));
        fd.heard_from(n(1), SimTime::from_millis(400));
        assert!(fd.reachable(SimTime::from_millis(550)).contains(&n(1)));
    }

    #[test]
    fn a_probe_folded_after_a_later_frame_never_lowers_last_heard() {
        let mut fd = FailureDetector::new(n(0), TIMEOUT);
        // A data frame from n(1) is handled at 300 ms; the probe n(1)
        // sent earlier landed at 120 ms and is folded only now.
        fd.heard_from(n(1), SimTime::from_millis(300));
        fd.heard_from(n(1), SimTime::from_millis(120));
        assert!(fd.reachable(SimTime::from_millis(450)).contains(&n(1)));
        let window = SimDuration::from_millis(100);
        assert!(fd.all_fresh_within(&[n(1)], SimTime::from_millis(390), window));
    }

    #[test]
    fn own_heartbeats_are_ignored() {
        let mut fd = FailureDetector::new(n(0), TIMEOUT);
        fd.heard_from(n(0), SimTime::from_millis(100));
        assert_eq!(fd.reachable(SimTime::from_millis(100)).len(), 1);
    }

    #[test]
    fn all_fresh_requires_every_peer_within_window() {
        let mut fd = FailureDetector::new(n(0), TIMEOUT);
        fd.heard_from(n(1), SimTime::from_millis(100));
        fd.heard_from(n(2), SimTime::from_millis(150));
        let window = SimDuration::from_millis(100);
        let peers = [n(0), n(1), n(2)];
        assert!(fd.all_fresh_within(&peers, SimTime::from_millis(190), window));
        // n(1) falls out of the tight window while still "reachable".
        let at = SimTime::from_millis(210);
        assert!(!fd.all_fresh_within(&peers, at, window));
        assert!(fd.reachable(at).contains(&n(1)));
        // Self never needs a heartbeat.
        assert!(fd.all_fresh_within(&[n(0)], SimTime::from_secs(100), window));
    }

    /// The node-indexed detector answers exactly as a `BTreeMap` keyed by
    /// node would, over random runs in which nodes far past the starting
    /// universe join, the detector restarts, and queries use both
    /// windows.
    #[test]
    fn node_indexed_detector_matches_a_map_reference() {
        use std::collections::BTreeMap;
        use todr_sim::SimRng;

        for seed in 0..64 {
            let mut rng = SimRng::new(seed);
            let me = n(rng.gen_range(5) as u32);
            let mut fd = FailureDetector::new(me, TIMEOUT);
            let mut reference: BTreeMap<NodeId, SimTime> = BTreeMap::new();
            let mut now = SimTime::ZERO;
            // Five initial members; joiners reach index 40.
            let mut universe = 5;
            for _ in 0..400 {
                now += SimDuration::from_millis(rng.gen_range(40));
                match rng.gen_range(20) {
                    0 if universe < 40 => universe += 1 + rng.gen_range(6),
                    1 => {
                        fd = FailureDetector::new(me, TIMEOUT);
                        reference.clear();
                    }
                    _ => {
                        let peer = n(rng.gen_range(universe) as u32);
                        fd.heard_from(peer, now);
                        if peer != me {
                            reference.insert(peer, now);
                        }
                    }
                }
                let fresh = |t: SimTime, window| now.saturating_since(t) <= window;
                let mut expect: BTreeSet<NodeId> = reference
                    .iter()
                    .filter(|&(_, &t)| fresh(t, TIMEOUT))
                    .map(|(&p, _)| p)
                    .collect();
                expect.insert(me);
                assert_eq!(fd.reachable(now), expect, "seed {seed}");
                assert!(fd.reachable_is(&expect, now), "seed {seed}");
                let mut other = expect.clone();
                let probe = n(rng.gen_range(universe + 1) as u32);
                if !other.remove(&probe) {
                    other.insert(probe);
                }
                assert!(!fd.reachable_is(&other, now), "seed {seed}");
                assert_eq!(
                    fd.is_reachable(probe, now),
                    expect.contains(&probe),
                    "seed {seed}"
                );
                let window = SimDuration::from_millis(rng.gen_range(120));
                let peers: Vec<NodeId> = (0..=universe as u32)
                    .map(n)
                    .filter(|_| rng.gen_bool(0.3))
                    .collect();
                let all_fresh = peers
                    .iter()
                    .all(|p| *p == me || reference.get(p).is_some_and(|&t| fresh(t, window)));
                assert_eq!(
                    fd.all_fresh_within(&peers, now, window),
                    all_fresh,
                    "seed {seed}"
                );
            }
        }
    }
}
