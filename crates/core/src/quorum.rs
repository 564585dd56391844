//! Primary-component bookkeeping: dynamic linear voting, the vulnerable
//! record, and the knowledge computation of the exchange phase.
//!
//! ## Dynamic linear voting (§3.1)
//!
//! A component may install the next primary component iff it contains a
//! (weighted) majority **of the last primary component** — not of the
//! whole server set. This lets the primary "walk" through a sequence of
//! partitions while guaranteeing uniqueness: two disjoint components
//! cannot both hold a majority of the same last primary.
//!
//! ## Vulnerability (§5)
//!
//! A server that votes to form a primary (sends its CPC message) first
//! forces a [`VulnerableRecord`] to stable storage. Until the server
//! *knows* how the attempt ended, it must not present itself as
//! knowledgeable about that primary — if it crashed mid-attempt, safe
//! messages may have been delivered in the installed primary that it has
//! no recollection of. The record is invalidated when the exchange phase
//! proves one of:
//!
//! * **(a) resolution by knowledge** — some reachable server's
//!   `primComponent` shows the attempt (or a later primary) completed;
//!   after synchronizing green actions with it the server is up to date;
//! * **(b) resolution by refutation** — a member of the attempt reports
//!   a *later configuration without having installed* (the paper's
//!   "case 3"): by the EVS trichotomy nobody can have installed, so
//!   there is nothing to know;
//! * **(c) resolution by enumeration** — across (possibly many)
//!   exchanges, every member of the attempt has been observed either
//!   still vulnerable to the same attempt or refuting it (the paper's
//!   `bits` array): the attempt completed nowhere.
//!
//! The paper's Appendix A presents (b)/(c) as bit-array manipulations;
//! this module implements the same invariant — *a server stays vulnerable
//! until it can prove it missed nothing* — with the three explicit rules
//! above, which makes the proof obligation visible in the code.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use todr_net::NodeId;

use crate::action::ActionId;

/// The last primary component known to a server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrimComponent {
    /// Index of the last installed primary component.
    pub prim_index: u64,
    /// Index of the attempt by which it was installed.
    pub attempt_index: u64,
    /// Its members.
    pub servers: BTreeSet<NodeId>,
    /// Members whose green `PERSISTENT_LEAVE` is known, and who are
    /// therefore discounted from the quorum base (see
    /// [`quorum_base`](Self::quorum_base)). Departures noted after the
    /// install are capped at one per incarnation — the bound the safety
    /// argument of [`note_departure`](Self::note_departure) needs.
    pub departed: BTreeSet<NodeId>,
}

impl PrimComponent {
    /// The initial primary component: the full configured server set,
    /// before any membership event.
    pub fn initial(servers: impl IntoIterator<Item = NodeId>) -> Self {
        PrimComponent {
            prim_index: 0,
            attempt_index: 0,
            servers: servers.into_iter().collect(),
            departed: BTreeSet::new(),
        }
    }

    /// The `(prim_index, attempt_index)` pair used to find the most
    /// up-to-date server during exchange.
    pub fn version(&self) -> (u64, u64) {
        (self.prim_index, self.attempt_index)
    }

    /// The membership that quorums are computed against: the installed
    /// members minus those whose permanent leave has been ordered.
    pub fn quorum_base(&self) -> BTreeSet<NodeId> {
        self.servers.difference(&self.departed).copied().collect()
    }

    /// Discounts `leaver` from the quorum base after its
    /// `PERSISTENT_LEAVE` was marked green, if the safety cap allows it.
    ///
    /// Without this, a primary that green-orders the leave of one of its
    /// own members can wedge forever: the next primary needs a majority
    /// of the *old* membership, which the departed member can no longer
    /// help form.
    ///
    /// Shrinking the base is only sound because it is capped at **one
    /// asymmetric departure per incarnation**: green marks are a prefix
    /// of one global order, so the *first* leaver greened after an
    /// install is unique — every server that shrinks at all discounts
    /// the same member. A component that has not yet learned the leave
    /// competes with the full base, and disjoint subsets of an
    /// `n`-member base cannot hold both a majority of `n` (at least
    /// `⌊n/2⌋+1` members) and a majority of `n-1` (at least
    /// `⌊(n-1)/2⌋+1` members, none of them the leaver): together that
    /// needs `n+1` distinct members even if the stale side counts the
    /// leaver itself. With two or more asymmetric departures the
    /// analogous bound fails (majorities of `n` and `n-2` *can* be
    /// disjoint), so further leaves wait for the next install, which
    /// re-bases membership symmetrically.
    ///
    /// Returns whether the base shrank.
    pub fn note_departure(&mut self, leaver: NodeId) -> bool {
        if self.servers.contains(&leaver) && self.departed.is_empty() {
            self.departed.insert(leaver);
            true
        } else {
            false
        }
    }
}

/// The persisted record of an installation attempt this server voted
/// for (the paper's `vulnerable` structure).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VulnerableRecord {
    /// Whether the record is live (`Valid` in the paper).
    pub valid: bool,
    /// `primComponent.prim_index` before the attempt.
    pub prim_index: u64,
    /// The attempt's index.
    pub attempt_index: u64,
    /// Servers attempting the installation.
    pub set: BTreeSet<NodeId>,
    /// Members of `set` whose outcome knowledge has been accounted for
    /// (the paper's `bits`, keyed by server for clarity). When every
    /// member is accounted for, the attempt provably completed nowhere.
    pub accounted: BTreeSet<NodeId>,
}

impl VulnerableRecord {
    /// An invalid (inactive) record.
    pub fn invalid() -> Self {
        VulnerableRecord {
            valid: false,
            prim_index: 0,
            attempt_index: 0,
            set: BTreeSet::new(),
            accounted: BTreeSet::new(),
        }
    }

    /// A fresh, valid record for an attempt.
    pub fn new_attempt(
        prim_index: u64,
        attempt_index: u64,
        set: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        VulnerableRecord {
            valid: true,
            prim_index,
            attempt_index,
            set: set.into_iter().collect(),
            accounted: BTreeSet::new(),
        }
    }
}

/// The yellow record: actions delivered in a transitional configuration
/// of a primary component (order known; survival of the primary
/// unknown).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct YellowRecord {
    /// Whether the record is live.
    pub valid: bool,
    /// Ordered identifiers of the yellow actions.
    pub set: Vec<ActionId>,
}

impl YellowRecord {
    /// An invalid (empty) record.
    pub fn invalid() -> Self {
        YellowRecord {
            valid: false,
            set: Vec::new(),
        }
    }
}

/// Whether `conf_members` may form the next primary component under
/// (weighted) dynamic linear voting.
///
/// `weights` maps servers to voting weights; servers absent from the map
/// weigh 1. Vulnerable servers must be resolved *before* this check (the
/// caller guarantees no reachable server is still vulnerable).
pub fn is_weighted_quorum(
    conf_members: &[NodeId],
    last_prim: &PrimComponent,
    weights: &BTreeMap<NodeId, u64>,
) -> bool {
    let weight = |n: &NodeId| weights.get(n).copied().unwrap_or(1);
    let base = last_prim.quorum_base();
    let total: u64 = base.iter().map(weight).sum();
    let present: u64 = base
        .iter()
        .filter(|n| conf_members.contains(n))
        .map(weight)
        .sum();
    // Strict majority: ties are NOT a quorum (two halves must never both
    // proceed).
    present * 2 > total
}

/// One server's exchange-relevant state, as carried in its State
/// message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnowledgeInput {
    /// The reporting server.
    pub server: NodeId,
    /// Its last known primary component.
    pub prim_component: PrimComponent,
    /// Its current attempt index.
    pub attempt_index: u64,
    /// Its vulnerable record.
    pub vulnerable: VulnerableRecord,
    /// Its yellow record.
    pub yellow: YellowRecord,
}

/// Output of [`compute_knowledge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputedKnowledge {
    /// The most advanced primary component among the participants.
    pub prim_component: PrimComponent,
    /// Servers that reported that primary component.
    pub updated_group: BTreeSet<NodeId>,
    /// The maximum attempt index among the updated group.
    pub attempt_index: u64,
    /// The combined yellow record (intersection over the valid yellow
    /// sets of the updated group), or invalid if none.
    pub yellow: YellowRecord,
    /// Per input server: its vulnerable record after resolution
    /// (rules (a)/(b)/(c) of the module docs).
    pub resolved_vulnerable: BTreeMap<NodeId, VulnerableRecord>,
}

/// The exchange phase's `ComputeKnowledge` (Appendix A, CodeSegment A.7),
/// as a pure function over the collected state messages.
pub fn compute_knowledge<'a>(
    inputs: impl IntoIterator<Item = &'a KnowledgeInput>,
) -> ComputedKnowledge {
    let inputs: Vec<&KnowledgeInput> = inputs.into_iter().collect();
    assert!(!inputs.is_empty(), "compute_knowledge needs >= 1 input");

    // 1. Most advanced primary component and the group reporting it.
    let best = inputs.iter().map(|i| i.prim_component.version()).max();
    let updated: Vec<&KnowledgeInput> = inputs
        .iter()
        .copied()
        .filter(|i| Some(i.prim_component.version()) == best)
        .collect();
    let mut prim_component = updated[0].prim_component.clone();
    // Same-version reporters agree on the installed membership but may
    // differ on whether the (unique) first post-install departure has
    // been greened locally yet; the union propagates it.
    for i in &updated {
        let departed = i.prim_component.departed.iter().copied();
        prim_component.departed.extend(departed);
    }
    let updated_group: BTreeSet<NodeId> = updated.iter().map(|i| i.server).collect();
    let attempt_index = updated.iter().map(|i| i.attempt_index).max().unwrap_or(0);

    // 2. Combined yellow: intersection of valid yellow sets within the
    // updated group. (Yellow actions of an *older* primary are obsolete:
    // a newer primary already decided the order past them.)
    let valid_yellows: Vec<&YellowRecord> = updated
        .iter()
        .filter(|i| i.yellow.valid)
        .map(|i| &i.yellow)
        .collect();
    let yellow = if valid_yellows.is_empty() {
        YellowRecord::invalid()
    } else {
        // Intersection, preserving the (identical) order: yellow sets
        // are ordered suffixes of the same primary's green order, so one
        // is a prefix of another; intersection keeps ids present in all.
        let mut set = valid_yellows[0].set.clone();
        for y in &valid_yellows[1..] {
            set.retain(|id| y.set.contains(id));
        }
        YellowRecord { valid: true, set }
    };

    // 3./4. Vulnerability resolution.
    let mut resolved_vulnerable = BTreeMap::new();
    for input in &inputs {
        let mut v = input.vulnerable.clone();
        if v.valid {
            resolve_vulnerable(&mut v, &inputs, &prim_component);
        }
        resolved_vulnerable.insert(input.server, v);
    }

    ComputedKnowledge {
        prim_component,
        updated_group,
        attempt_index,
        yellow,
        resolved_vulnerable,
    }
}

fn resolve_vulnerable(
    v: &mut VulnerableRecord,
    inputs: &[&KnowledgeInput],
    best_prim: &PrimComponent,
) {
    // Rule (a): the attempt (or something later) completed, and a
    // reachable server knows it. After green synchronization with that
    // server (which this exchange performs), the vulnerable server is up
    // to date.
    let attempt_completed_here = best_prim.prim_index > v.prim_index;
    if attempt_completed_here {
        v.valid = false;
        return;
    }

    // Rules (b)/(c): account for members of the attempt.
    for input in inputs {
        if !v.set.contains(&input.server) {
            continue;
        }
        let them = &input.vulnerable;
        if them.valid && them.prim_index == v.prim_index && them.attempt_index == v.attempt_index {
            // Still stuck at the same attempt: accounted for (it did not
            // install — installing clears vulnerability and advances
            // prim_index).
            v.accounted.insert(input.server);
        } else if !them.valid && input.prim_component.prim_index == v.prim_index {
            // Refutation (case 3): this member moved on without
            // installing. By the trichotomy nobody installed.
            v.valid = false;
            return;
        }
        // A member with a *different valid* vulnerable record (another
        // attempt) gives no information about ours.
    }

    // Rule (c): everyone in the attempt is accounted for and none
    // installed.
    if v.accounted.len() == v.set.len() {
        v.valid = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn ns(ids: &[u32]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| n(i)).collect()
    }

    fn prim(prim_index: u64, attempt: u64, servers: &[u32]) -> PrimComponent {
        PrimComponent {
            prim_index,
            attempt_index: attempt,
            servers: ns(servers),
            departed: BTreeSet::new(),
        }
    }

    fn input(server: u32, pc: PrimComponent) -> KnowledgeInput {
        KnowledgeInput {
            server: n(server),
            prim_component: pc,
            attempt_index: 0,
            vulnerable: VulnerableRecord::invalid(),
            yellow: YellowRecord::invalid(),
        }
    }

    // ---- quorum ----

    #[test]
    fn majority_of_last_primary_is_quorum() {
        let last = prim(3, 1, &[0, 1, 2, 3, 4]);
        let members = [n(0), n(1), n(2)];
        assert!(is_weighted_quorum(&members, &last, &BTreeMap::new()));
    }

    #[test]
    fn exactly_half_is_not_quorum() {
        let last = prim(3, 1, &[0, 1, 2, 3]);
        let members = [n(0), n(1)];
        assert!(!is_weighted_quorum(&members, &last, &BTreeMap::new()));
    }

    #[test]
    fn members_outside_last_primary_do_not_count() {
        let last = prim(3, 1, &[0, 1, 2]);
        // 5 members present, but only one from the last primary.
        let members = [n(0), n(5), n(6), n(7), n(8)];
        assert!(!is_weighted_quorum(&members, &last, &BTreeMap::new()));
    }

    #[test]
    fn weights_shift_the_majority() {
        let last = prim(1, 1, &[0, 1, 2]);
        let mut weights = BTreeMap::new();
        weights.insert(n(0), 3); // total = 3+1+1 = 5
        assert!(is_weighted_quorum(&[n(0)], &last, &weights));
        assert!(!is_weighted_quorum(&[n(1), n(2)], &last, &weights));
    }

    #[test]
    fn disjoint_components_cannot_both_have_quorum() {
        // Property over a specific configuration: any split of the last
        // primary yields at most one quorum side.
        let last = prim(1, 1, &[0, 1, 2, 3, 4]);
        let all: Vec<NodeId> = (0..5).map(n).collect();
        for mask in 0u32..32 {
            let side_a: Vec<NodeId> = all
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .map(|(_, &x)| x)
                .collect();
            let side_b: Vec<NodeId> = all
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) == 0)
                .map(|(_, &x)| x)
                .collect();
            let qa = is_weighted_quorum(&side_a, &last, &BTreeMap::new());
            let qb = is_weighted_quorum(&side_b, &last, &BTreeMap::new());
            assert!(!(qa && qb), "both sides of split {mask:#b} got quorum");
        }
    }

    #[test]
    fn departed_member_is_discounted_from_the_base() {
        // The wedge the explorer found: last primary {3,4}, then 4's
        // PERSISTENT_LEAVE goes green. Without the discount, server 3
        // can never again assemble a majority of {3,4}.
        let mut last = prim(3, 1, &[3, 4]);
        assert!(!is_weighted_quorum(
            &[n(0), n(1), n(2), n(3)],
            &last,
            &BTreeMap::new()
        ));
        assert!(last.note_departure(n(4)));
        assert_eq!(last.quorum_base(), ns(&[3]));
        assert!(is_weighted_quorum(
            &[n(0), n(1), n(2), n(3)],
            &last,
            &BTreeMap::new()
        ));
        // A component without the surviving member still has no quorum.
        assert!(!is_weighted_quorum(&[n(0), n(1)], &last, &BTreeMap::new()));
    }

    #[test]
    fn at_most_one_departure_per_incarnation() {
        let mut last = prim(3, 1, &[0, 1, 2, 3, 4]);
        assert!(last.note_departure(n(4)));
        assert!(!last.note_departure(n(3)), "second departure must wait");
        assert_eq!(last.quorum_base(), ns(&[0, 1, 2, 3]));
        // Repeating the same (already noted) leaver changes nothing.
        assert!(!last.note_departure(n(4)));
    }

    #[test]
    fn departure_of_a_non_member_is_ignored() {
        let mut last = prim(3, 1, &[0, 1, 2]);
        assert!(!last.note_departure(n(9)));
        assert_eq!(last.quorum_base(), ns(&[0, 1, 2]));
    }

    #[test]
    fn stale_and_shrunk_quorums_always_intersect() {
        // The safety bound behind the one-departure cap: a component
        // that knows the leave (base S \ {l}) and one that does not
        // (base S) can never both reach quorum from disjoint member
        // sets — even when the stale side counts the leaver itself.
        let all: Vec<NodeId> = (0..5).map(n).collect();
        let full = prim(1, 1, &[0, 1, 2, 3, 4]);
        let mut shrunk = prim(1, 1, &[0, 1, 2, 3, 4]);
        assert!(shrunk.note_departure(n(4)));
        for mask in 0u32..32 {
            let side_a: Vec<NodeId> = all
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .map(|(_, &x)| x)
                .collect();
            let side_b: Vec<NodeId> = all
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) == 0)
                .map(|(_, &x)| x)
                .collect();
            let qa = is_weighted_quorum(&side_a, &full, &BTreeMap::new());
            let qb = is_weighted_quorum(&side_b, &shrunk, &BTreeMap::new());
            assert!(
                !(qa && qb),
                "split {mask:#07b}: stale side and shrunk side both got quorum"
            );
        }
    }

    // ---- compute_knowledge ----

    #[test]
    fn most_advanced_primary_wins() {
        let inputs = vec![
            input(0, prim(2, 1, &[0, 1])),
            input(1, prim(3, 1, &[0, 1, 2])),
            input(2, prim(3, 1, &[0, 1, 2])),
        ];
        let k = compute_knowledge(&inputs);
        assert_eq!(k.prim_component.prim_index, 3);
        assert_eq!(k.updated_group, ns(&[1, 2]));
    }

    #[test]
    fn attempt_index_breaks_prim_ties() {
        let inputs = vec![input(0, prim(3, 1, &[0, 1])), input(1, prim(3, 2, &[0, 1]))];
        let k = compute_knowledge(&inputs);
        assert_eq!(k.prim_component.attempt_index, 2);
        assert_eq!(k.updated_group, ns(&[1]));
    }

    #[test]
    fn knowledge_merges_the_departure_across_reporters() {
        // Server 1 has greened the leave of 4 already; server 0 has not.
        // Both report the same installed primary; the exchange must
        // propagate the (unique) departure to the adopted component.
        let mut knows = prim(3, 1, &[3, 4]);
        assert!(knows.note_departure(n(4)));
        let inputs = vec![input(0, prim(3, 1, &[3, 4])), input(1, knows)];
        let k = compute_knowledge(&inputs);
        assert_eq!(k.prim_component.departed, ns(&[4]));
        assert_eq!(k.prim_component.quorum_base(), ns(&[3]));
        assert_eq!(k.updated_group, ns(&[0, 1]));
    }

    #[test]
    fn yellow_intersection_of_updated_group() {
        let a1 = ActionId {
            server: n(7),
            index: 1,
        };
        let a2 = ActionId {
            server: n(7),
            index: 2,
        };
        let mut i0 = input(0, prim(3, 1, &[0, 1]));
        i0.yellow = YellowRecord {
            valid: true,
            set: vec![a1, a2],
        };
        let mut i1 = input(1, prim(3, 1, &[0, 1]));
        i1.yellow = YellowRecord {
            valid: true,
            set: vec![a1],
        };
        // A stale server's yellow is ignored.
        let mut i2 = input(2, prim(2, 9, &[0, 1, 2]));
        i2.yellow = YellowRecord {
            valid: true,
            set: vec![a2],
        };
        let k = compute_knowledge(&[i0, i1, i2]);
        assert!(k.yellow.valid);
        assert_eq!(k.yellow.set, vec![a1]);
    }

    #[test]
    fn yellow_invalid_when_no_valid_yellow_in_group() {
        let k = compute_knowledge(&[input(0, prim(1, 1, &[0]))]);
        assert!(!k.yellow.valid);
    }

    #[test]
    fn vulnerable_resolved_by_later_primary() {
        // Rule (a): someone has prim_index 4 > our attempt's base 3.
        let mut i0 = input(0, prim(3, 1, &[0, 1]));
        i0.vulnerable = VulnerableRecord::new_attempt(3, 5, ns(&[0, 1]));
        let i1 = input(1, prim(4, 1, &[0, 1]));
        let k = compute_knowledge(&[i0, i1]);
        assert!(!k.resolved_vulnerable[&n(0)].valid);
    }

    #[test]
    fn vulnerable_resolved_by_refutation() {
        // Rule (b): a member of the attempt moved on without the
        // primary advancing -> nobody installed.
        let mut i0 = input(0, prim(3, 1, &[0, 1, 2]));
        i0.vulnerable = VulnerableRecord::new_attempt(3, 5, ns(&[0, 1, 2]));
        let i1 = input(1, prim(3, 1, &[0, 1, 2])); // invalid vulnerable, same prim
        let k = compute_knowledge(&[i0, i1]);
        assert!(!k.resolved_vulnerable[&n(0)].valid);
    }

    #[test]
    fn vulnerable_resolved_by_full_enumeration() {
        // Rule (c): all attempt members are still vulnerable to the same
        // attempt -> none installed.
        let attempt = VulnerableRecord::new_attempt(3, 5, ns(&[0, 1]));
        let mut i0 = input(0, prim(3, 1, &[0, 1]));
        i0.vulnerable = attempt.clone();
        let mut i1 = input(1, prim(3, 1, &[0, 1]));
        i1.vulnerable = attempt.clone();
        let k = compute_knowledge(&[i0, i1]);
        assert!(!k.resolved_vulnerable[&n(0)].valid);
        assert!(!k.resolved_vulnerable[&n(1)].valid);
    }

    #[test]
    fn vulnerable_persists_without_proof() {
        // Attempt involved {0,1,2}; only {0,1} are here, both vulnerable:
        // server 2 might have installed. Stay vulnerable.
        let attempt = VulnerableRecord::new_attempt(3, 5, ns(&[0, 1, 2]));
        let mut i0 = input(0, prim(3, 1, &[0, 1, 2]));
        i0.vulnerable = attempt.clone();
        let mut i1 = input(1, prim(3, 1, &[0, 1, 2]));
        i1.vulnerable = attempt.clone();
        let k = compute_knowledge(&[i0, i1]);
        assert!(k.resolved_vulnerable[&n(0)].valid, "must stay vulnerable");
        // But both members are now accounted for.
        assert_eq!(k.resolved_vulnerable[&n(0)].accounted, ns(&[0, 1]));
    }

    #[test]
    fn vulnerable_enumeration_accumulates_across_exchanges() {
        // Exchange 1: {0,1} of attempt {0,1,2} meet (see above).
        let attempt = VulnerableRecord::new_attempt(3, 5, ns(&[0, 1, 2]));
        let mut i0 = input(0, prim(3, 1, &[0, 1, 2]));
        i0.vulnerable = attempt.clone();
        let mut i1 = input(1, prim(3, 1, &[0, 1, 2]));
        i1.vulnerable = attempt.clone();
        let k1 = compute_knowledge(&[i0, i1]);
        let v0_after = k1.resolved_vulnerable[&n(0)].clone();
        assert!(v0_after.valid);

        // Exchange 2 (eventual path): 0 now meets 2, which is still
        // vulnerable to the same attempt. All three accounted -> done.
        let mut i0b = input(0, prim(3, 1, &[0, 1, 2]));
        i0b.vulnerable = v0_after;
        let mut i2 = input(2, prim(3, 1, &[0, 1, 2]));
        i2.vulnerable = attempt.clone();
        let k2 = compute_knowledge(&[i0b, i2]);
        assert!(!k2.resolved_vulnerable[&n(0)].valid);
    }

    #[test]
    fn different_attempt_gives_no_information() {
        let mut i0 = input(0, prim(3, 1, &[0, 1]));
        i0.vulnerable = VulnerableRecord::new_attempt(3, 5, ns(&[0, 1]));
        let mut i1 = input(1, prim(3, 1, &[0, 1]));
        i1.vulnerable = VulnerableRecord::new_attempt(3, 6, ns(&[0, 1])); // later attempt
        let k = compute_knowledge(&[i0, i1]);
        // Server 1's record is about attempt 6 — it refutes nothing
        // about attempt 5, but its valid vulnerability proves it did not
        // install *anything* at prim 3... conservatively we only account
        // identical attempts; 0 stays vulnerable.
        assert!(k.resolved_vulnerable[&n(0)].valid);
    }

    #[test]
    fn initial_primary_contains_everyone() {
        let p = PrimComponent::initial((0..3).map(n));
        assert_eq!(p.prim_index, 0);
        assert_eq!(p.servers, ns(&[0, 1, 2]));
    }
}
