//! One configuration's exchange round (Appendix A, CodeSegments
//! A.5–A.10). [`Round`] keeps its State messages, `RetransDone` markers
//! and CPC votes, and says when each set is complete; the engine sends,
//! marks, syncs and changes state around it.
//!
//! When the members have all shared their State messages, every server
//! deterministically computes the same [`RetransPlan`]: which member
//! retransmits the green suffix (the most-updated server) and which
//! member retransmits each creator's missing red actions.
//! Retransmissions flow through the group communication layer, so all
//! members receive them in one agreed order; each planned sender
//! finishes with a `RetransDone` marker, and the round completes when
//! every marker arrived.
//!
//! Facts that keep the plan small and duplicate-free:
//!
//! * green prefixes are consistent across servers (Global Total Order),
//!   so one sender covers everyone by sending positions
//!   `(min green, max green]`;
//! * an action that is green at its red-range holder is *provably*
//!   covered by the green path (a member lacking it must have a green
//!   line below its position), so red holders transmit only actions that
//!   are red at them;
//! * a server that inherited a database snapshot (an online-joined
//!   replica, §5.1) lacks green *bodies* below its `green_floor`; if no
//!   most-updated member can serve the whole needed range from bodies,
//!   the plan falls back to a **green-state snapshot** over the group —
//!   the receivers "inherit a database state which incorporated the
//!   effect of these actions", exactly the clause Theorem 2 (Global FIFO
//!   Order, dynamic) admits.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use serde::{Deserialize, Serialize};
use todr_evs::{ConfId, Configuration};
use todr_net::NodeId;

use crate::action::{ActionId, Body};
use crate::knowledge::Knowledge;
use crate::quorum::{compute_knowledge, is_weighted_quorum, KnowledgeInput, VulnerableRecord};

/// Modelled size of a State message in bytes (before its per-creator
/// and per-yellow-action entries).
const STATE_MSG_BYTES: u32 = 256;

/// The exchange-relevant part of one member's State message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemberProgress {
    /// Number of actions it has marked green.
    pub green_count: u64,
    /// Lowest green position it still holds a body for (`0` unless the
    /// server bootstrapped from a snapshot).
    pub green_floor: u64,
    /// Its `redCut`: per creator, the highest contiguous action index it
    /// holds.
    pub red_cut: BTreeMap<NodeId, u64>,
}

/// The paper's State message: a member's inputs to `ComputeKnowledge`
/// (which names it) and to the retransmission plan, in one configuration.
#[derive(Debug, Clone)]
pub(crate) struct StateMsg {
    pub conf: ConfId,
    pub knowledge: KnowledgeInput,
    pub progress: MemberProgress,
}

impl StateMsg {
    /// `me`'s State message in configuration `conf`.
    pub(crate) fn new(conf: ConfId, me: NodeId, k: &Knowledge) -> Self {
        StateMsg {
            conf,
            knowledge: KnowledgeInput {
                server: me,
                prim_component: k.prim_component.clone(),
                attempt_index: k.attempt_index,
                vulnerable: k.vulnerable.clone(),
                yellow: k.yellow.clone(),
            },
            progress: MemberProgress {
                green_count: k.green_count,
                green_floor: k.green_floor(),
                red_cut: k.red_cuts(),
            },
        }
    }

    /// Modelled wire size in bytes.
    pub(crate) fn size_bytes(&self) -> u32 {
        let entries = self.progress.red_cut.len() + self.knowledge.yellow.set.len();
        STATE_MSG_BYTES + entries as u32 * 12
    }
}

/// How the green suffix is brought to everyone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum GreenPath {
    /// Nothing to do: all members share the same green line.
    #[default]
    None,
    /// `(sender, from_pos, to_pos)`: the sender retransmits green
    /// positions `from_pos..to_pos` (0-based, half-open).
    Retrans(NodeId, u64, u64),
    /// No eligible sender holds all needed bodies: `sender` transfers
    /// its green database state (plus bookkeeping) instead.
    Snapshot(NodeId),
}

/// Who must retransmit what.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetransPlan {
    /// Green suffix transfer.
    pub green: GreenPath,
    /// Per creator with divergent red cuts: `(sender, creator,
    /// from_index, to_index)` — indices are 1-based and inclusive, like
    /// action ids. Senders transmit only the actions in range that are
    /// red at them (green ones are covered by the green path).
    pub red: Vec<(NodeId, NodeId, u64, u64)>,
    /// Every server that must send a `RetransDone` marker.
    pub senders: BTreeSet<NodeId>,
}

impl RetransPlan {
    /// Whether nothing needs to be exchanged.
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// `me`'s `Retrans` messages, in sending order: its green suffix with
    /// each position, then its red ranges minus the actions green at `me`
    /// (the green path covers them). A green-state snapshot is not one.
    pub(crate) fn retrans_of(&self, me: NodeId, k: &Knowledge) -> Vec<(Rc<Body>, Option<u64>)> {
        let mut resend = Vec::new();
        if let GreenPath::Retrans(sender, from, to) = self.green {
            if sender == me {
                for pos in from..to {
                    let id = k.green_tail[(pos - k.green_floor()) as usize];
                    let action = k.body(&id).expect("green body retained");
                    resend.push((Rc::clone(action), Some(pos)));
                }
            }
        }
        for &(_, server, from, to) in self.red.iter().filter(|red| red.0 == me) {
            let reds = (from..=to).filter_map(|index| k.red_body(&ActionId { server, index }));
            resend.extend(reds.map(|action| (Rc::clone(action), None)));
        }
        resend
    }
}

/// Computes the deterministic retransmission plan. Every member runs
/// this on identical inputs (the full set of State messages, each with
/// its sender) and obtains the identical plan.
pub fn retrans_plan<'a>(
    states: impl IntoIterator<Item = (NodeId, &'a MemberProgress)>,
) -> RetransPlan {
    let states: Vec<(NodeId, &MemberProgress)> = states.into_iter().collect();
    assert!(!states.is_empty(), "retrans plan needs >= 1 member");
    let mut plan = RetransPlan::default();

    // Green suffix: a most-updated member (ties -> smallest id) brings
    // everyone up to the maximum green line, provided it still holds the
    // bodies; otherwise it transfers its green state.
    let green = |(_, s): &(NodeId, &MemberProgress)| s.green_count;
    let min_green = states.iter().map(green).min().unwrap_or(0);
    let max_green = states.iter().map(green).max().unwrap_or(0);
    if max_green > min_green {
        let most_updated = states.iter().filter(|s| green(s) == max_green);
        let eligible = most_updated
            .clone()
            .filter(|(_, s)| s.green_floor <= min_green)
            .map(|&(server, _)| server)
            .min();
        let sender = match eligible {
            Some(sender) => {
                plan.green = GreenPath::Retrans(sender, min_green, max_green);
                sender
            }
            None => {
                let sender = most_updated.map(|&(server, _)| server).min();
                let sender = sender.expect("some member attains the maximum green count");
                plan.green = GreenPath::Snapshot(sender);
                sender
            }
        };
        plan.senders.insert(sender);
    }

    // Red ranges per creator.
    let creators: BTreeSet<NodeId> = states
        .iter()
        .flat_map(|(_, s)| s.red_cut.keys().copied())
        .collect();
    for creator in creators {
        let cut =
            |(_, s): &(NodeId, &MemberProgress)| s.red_cut.get(&creator).copied().unwrap_or(0);
        let min_cut = states.iter().map(cut).min().unwrap_or(0);
        let max_cut = states.iter().map(cut).max().unwrap_or(0);
        if max_cut > min_cut {
            let holders = states.iter().filter(|s| cut(s) == max_cut);
            let sender = holders.map(|&(server, _)| server).min();
            let sender = sender.expect("some member attains the maximum red cut");
            plan.red.push((sender, creator, min_cut + 1, max_cut));
            plan.senders.insert(sender);
        }
    }

    plan
}

/// Who of an awaited set of servers has sent its message: the round's
/// one "every member has sent X" rule, for the State messages, the
/// `RetransDone` markers and the CPC votes alike.
#[derive(Debug)]
struct Tally<T> {
    awaited: BTreeSet<NodeId>,
    heard: BTreeMap<NodeId, T>,
}

impl<T> Tally<T> {
    fn new(awaited: impl IntoIterator<Item = NodeId>) -> Self {
        Tally {
            awaited: awaited.into_iter().collect(),
            heard: BTreeMap::new(),
        }
    }

    /// Keeps `from`'s message unless `from` is not awaited or was heard
    /// already. True exactly once: when this completes the set.
    fn hear(&mut self, from: NodeId, msg: T) -> bool {
        if !self.awaited.contains(&from) || self.heard.contains_key(&from) {
            return false;
        }
        self.heard.insert(from, msg);
        self.heard.len() == self.awaited.len()
    }
}

/// One configuration's exchange round: its State messages, the planned
/// senders' `RetransDone` markers and the CPC votes.
#[derive(Debug)]
pub(crate) struct Round {
    conf: Configuration,
    states: Tally<StateMsg>,
    /// The planned senders' markers; `None` until the plan is ready.
    done: Option<Tally<()>>,
    votes: Tally<()>,
    /// Actions received by retransmission since the last
    /// `SyncCompleted` report.
    pub recovered: u64,
}

impl Round {
    /// The round of configuration `conf`, following `prev`:
    /// retransmissions delivered after `prev` last reported (late ones
    /// from an interrupted round) count toward this round's report.
    pub(crate) fn new(conf: Configuration, prev: Option<Round>) -> Self {
        Round {
            states: Tally::new(conf.members.iter().copied()),
            done: None,
            votes: Tally::new(conf.members.iter().copied()),
            recovered: prev.map_or(0, |r| r.recovered),
            conf,
        }
    }

    /// The round's configuration.
    pub(crate) fn conf(&self) -> &Configuration {
        &self.conf
    }

    /// Takes a member's State message. Returns the plan once every
    /// member's is in; a message for another configuration, from a
    /// non-member or repeated is ignored.
    pub(crate) fn on_state(&mut self, sm: StateMsg) -> Option<RetransPlan> {
        if sm.conf != self.conf.id || !self.states.hear(sm.knowledge.server, sm) {
            return None;
        }
        let progress = self.states.heard.iter().map(|(&s, sm)| (s, &sm.progress));
        let plan = retrans_plan(progress);
        self.done = Some(Tally::new(plan.senders.iter().copied()));
        Some(plan)
    }

    /// Takes `server`'s `RetransDone` marker. True once every planned
    /// sender's is in (never for an empty plan, which is done at once).
    pub(crate) fn on_retrans_done(&mut self, server: NodeId) -> bool {
        self.done.as_mut().is_some_and(|done| done.hear(server, ()))
    }

    /// `End_of_retrans`'s knowledge: raises `k`'s green lines to the
    /// State messages' and takes what `ComputeKnowledge` (A.7) over them
    /// establishes. If `IsQuorum` (A.8) holds — no member is still
    /// vulnerable and the members hold a weighted majority of the most
    /// advanced primary — `k`'s server votes for a new attempt,
    /// vulnerable until its outcome is known (§5). Returns whether it does.
    pub(crate) fn conclude(&self, k: &mut Knowledge, weights: &BTreeMap<NodeId, u64>) -> bool {
        for (&server, sm) in &self.states.heard {
            k.raise_green_line(server, sm.progress.green_count);
        }
        let known = compute_knowledge(self.states.heard.values().map(|sm| &sm.knowledge));
        let members = &self.conf.members;
        let vulnerable = |m: &NodeId| known.resolved_vulnerable.get(m).is_some_and(|v| v.valid);
        let quorum = !members.iter().any(vulnerable)
            && is_weighted_quorum(members, &known.prim_component, weights);
        k.prim_component = known.prim_component;
        k.attempt_index = known.attempt_index;
        k.yellow = known.yellow;
        k.vulnerable = known.resolved_vulnerable[&k.me].clone();
        if quorum {
            k.attempt_index += 1;
            let prim_index = k.prim_component.prim_index;
            let attempt = members.iter().copied();
            k.vulnerable = VulnerableRecord::new_attempt(prim_index, k.attempt_index, attempt);
        }
        quorum
    }

    /// Takes `server`'s CPC vote. True once every member has voted; a
    /// vote for another configuration or from a non-member is ignored.
    pub(crate) fn on_cpc(&mut self, server: NodeId, conf: ConfId) -> bool {
        conf == self.conf.id && self.votes.hear(server, ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum::{PrimComponent, YellowRecord};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn member(server: u32, green: u64, cuts: &[(u32, u64)]) -> (NodeId, MemberProgress) {
        let red_cut = cuts.iter().map(|&(s, c)| (n(s), c)).collect();
        let progress = MemberProgress {
            green_count: green,
            green_floor: 0,
            red_cut,
        };
        (n(server), progress)
    }

    /// A member that bootstrapped from a snapshot at `floor`.
    fn joined(server: u32, green: u64, floor: u64) -> (NodeId, MemberProgress) {
        let (server, mut progress) = member(server, green, &[]);
        progress.green_floor = floor;
        (server, progress)
    }

    fn plan(states: &[(NodeId, MemberProgress)]) -> RetransPlan {
        retrans_plan(states.iter().map(|(s, p)| (*s, p)))
    }

    #[test]
    fn identical_states_need_no_exchange() {
        let states = vec![
            member(0, 5, &[(0, 3), (1, 2)]),
            member(1, 5, &[(0, 3), (1, 2)]),
        ];
        let plan = plan(&states);
        assert!(plan.is_empty());
        assert_eq!(plan.green, GreenPath::None);
        assert!(plan.red.is_empty());
    }

    #[test]
    fn most_green_member_sends_suffix() {
        let states = vec![member(0, 3, &[]), member(1, 7, &[]), member(2, 5, &[])];
        let plan = plan(&states);
        assert_eq!(plan.green, GreenPath::Retrans(n(1), 3, 7));
        assert_eq!(plan.senders, [n(1)].into_iter().collect());
    }

    #[test]
    fn green_ties_resolve_to_smallest_id() {
        let states = vec![member(2, 7, &[]), member(1, 7, &[]), member(0, 3, &[])];
        let plan = plan(&states);
        assert_eq!(plan.green, GreenPath::Retrans(n(1), 3, 7));
    }

    #[test]
    fn red_ranges_are_per_creator() {
        let states = vec![
            member(0, 2, &[(0, 5), (1, 1)]),
            member(1, 2, &[(0, 2), (1, 4)]),
        ];
        let plan = plan(&states);
        assert_eq!(plan.green, GreenPath::None);
        assert_eq!(plan.red, vec![(n(0), n(0), 3, 5), (n(1), n(1), 2, 4)]);
        assert_eq!(plan.senders, [n(0), n(1)].into_iter().collect());
    }

    #[test]
    fn missing_red_cut_entries_count_as_zero() {
        // Member 1 has never heard of creator 2.
        let states = vec![member(0, 0, &[(2, 4)]), member(1, 0, &[])];
        let plan = plan(&states);
        assert_eq!(plan.red, vec![(n(0), n(2), 1, 4)]);
    }

    #[test]
    fn plan_is_identical_regardless_of_input_order() {
        let a = vec![
            member(0, 3, &[(0, 5)]),
            member(1, 7, &[(0, 2)]),
            member(2, 5, &[(0, 9)]),
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(plan(&a), plan(&b));
    }

    #[test]
    fn same_server_can_send_green_and_red() {
        let states = vec![
            member(0, 9, &[(0, 9), (1, 3)]),
            member(1, 4, &[(0, 4), (1, 3)]),
        ];
        let plan = plan(&states);
        assert_eq!(plan.green, GreenPath::Retrans(n(0), 4, 9));
        assert_eq!(plan.red, vec![(n(0), n(0), 5, 9)]);
        assert_eq!(plan.senders.len(), 1);
    }

    #[test]
    fn snapshot_fallback_when_sender_lacks_bodies() {
        // The most-updated member joined online at green position 800:
        // it cannot serve a member stuck at 500 from bodies.
        let plan = plan(&[joined(9, 1000, 800), member(1, 500, &[])]);
        assert_eq!(plan.green, GreenPath::Snapshot(n(9)));
        assert_eq!(plan.senders, [n(9)].into_iter().collect());
    }

    #[test]
    fn floor_below_min_green_is_harmless() {
        // The laggard is above the joiner's floor: bodies suffice.
        let plan = plan(&[joined(9, 1000, 800), member(1, 900, &[])]);
        assert_eq!(plan.green, GreenPath::Retrans(n(9), 900, 1000));
    }

    #[test]
    fn another_full_member_preferred_over_snapshot() {
        // Member 1 has floor 0 and the same green line as the joiner.
        let states = [
            joined(0, 1000, 800),
            member(1, 1000, &[]),
            member(2, 500, &[]),
        ];
        let plan = plan(&states);
        assert_eq!(plan.green, GreenPath::Retrans(n(1), 500, 1000));
    }

    fn conf(seq: u32, members: &[u32]) -> Configuration {
        let id = ConfId {
            seq,
            coordinator: n(members[0]),
        };
        Configuration::new(id, members.iter().map(|&m| n(m)).collect())
    }

    fn state(conf: &Configuration, (server, progress): (NodeId, MemberProgress)) -> StateMsg {
        let prim = PrimComponent::initial(conf.members.iter().copied());
        StateMsg {
            conf: conf.id,
            knowledge: KnowledgeInput {
                server,
                prim_component: prim,
                attempt_index: 0,
                vulnerable: VulnerableRecord::invalid(),
                yellow: YellowRecord::invalid(),
            },
            progress,
        }
    }

    #[test]
    fn the_plan_is_ready_once_every_member_sent_a_state_in_any_order() {
        let c = conf(4, &[0, 1, 2]);
        let mut round = Round::new(c.clone(), None);
        assert!(round.on_state(state(&c, member(2, 3, &[]))).is_none());
        // A repeat of member 2's message neither counts twice nor
        // replaces the first.
        assert!(round.on_state(state(&c, member(2, 9, &[]))).is_none());
        assert!(round.on_state(state(&c, member(0, 7, &[]))).is_none());
        let plan = round.on_state(state(&c, member(1, 5, &[])));
        assert_eq!(plan.map(|p| p.green), Some(GreenPath::Retrans(n(0), 3, 7)));
        let mut k = Knowledge::new(n(0), c.members.iter().copied());
        round.conclude(&mut k, &BTreeMap::new());
        assert_eq!(k.green_lines, [(n(0), 7), (n(1), 5), (n(2), 3)].into());
        // Complete: later repeats report nothing.
        assert!(round.on_state(state(&c, member(1, 5, &[]))).is_none());
    }

    #[test]
    fn a_state_for_another_configuration_or_from_a_non_member_is_ignored() {
        let c = conf(4, &[0, 1]);
        let stale = conf(3, &[0, 1]);
        let mut round = Round::new(c.clone(), None);
        assert!(round.on_state(state(&stale, member(0, 1, &[]))).is_none());
        assert!(round.on_state(state(&c, member(5, 1, &[]))).is_none());
        assert!(round.on_state(state(&c, member(1, 1, &[]))).is_none());
        // Member 0's stale message did not count: only its own does.
        assert!(round.on_state(state(&c, member(0, 1, &[]))).is_some());
    }

    #[test]
    fn retransmission_is_done_once_every_planned_sender_finished() {
        let c = conf(4, &[0, 1, 2]);
        let mut round = Round::new(c.clone(), None);
        // No plan yet: a marker means nothing.
        assert!(!round.on_retrans_done(n(0)));
        round.on_state(state(&c, member(0, 2, &[(0, 5), (1, 1)])));
        round.on_state(state(&c, member(1, 2, &[(0, 2), (1, 4)])));
        let plan = round.on_state(state(&c, member(2, 2, &[])));
        assert_eq!(plan.map(|p| p.senders.len()), Some(2));
        assert!(!round.on_retrans_done(n(2)), "member 2 is not a sender");
        assert!(!round.on_retrans_done(n(1)));
        assert!(!round.on_retrans_done(n(1)), "a repeat does not count");
        assert!(round.on_retrans_done(n(0)));
        assert!(!round.on_retrans_done(n(0)), "done is reported once");
    }

    #[test]
    fn every_member_votes_and_a_non_member_or_stale_vote_is_ignored() {
        let c = conf(4, &[0, 1]);
        let mut round = Round::new(c.clone(), None);
        assert!(!round.on_cpc(n(7), c.id), "non-member");
        assert!(!round.on_cpc(n(0), conf(3, &[0, 1]).id), "stale");
        assert!(!round.on_cpc(n(0), c.id));
        assert!(round.on_cpc(n(1), c.id));
        assert!(!round.on_cpc(n(1), c.id), "complete is reported once");
    }

    #[test]
    fn unreported_retransmissions_carry_into_the_next_round() {
        let mut round = Round::new(conf(4, &[0]), None);
        round.recovered = 2;
        let next = Round::new(conf(5, &[0]), Some(round));
        assert_eq!(next.recovered, 2);
    }

    #[test]
    fn a_quorum_votes_for_a_new_attempt_unless_a_member_is_vulnerable() {
        let c = conf(4, &[0, 1]);
        let mut round = Round::new(c.clone(), None);
        round.on_state(state(&c, member(0, 0, &[])));
        round.on_state(state(&c, member(1, 0, &[])));
        let mut k = Knowledge::new(n(0), c.members.iter().copied());
        assert!(round.conclude(&mut k, &BTreeMap::new()));
        assert_eq!((k.attempt_index, k.vulnerable.valid), (1, true));
        assert_eq!(k.vulnerable.set, [n(0), n(1)].into());

        let mut round = Round::new(c.clone(), None);
        let mut vulnerable = state(&c, member(0, 0, &[]));
        vulnerable.knowledge.vulnerable = VulnerableRecord::new_attempt(0, 1, [n(0), n(9)]);
        round.on_state(vulnerable);
        round.on_state(state(&c, member(1, 0, &[])));
        let mut k = Knowledge::new(n(1), c.members.iter().copied());
        assert!(!round.conclude(&mut k, &BTreeMap::new()));
        assert_eq!((k.attempt_index, k.vulnerable.valid), (0, false));
    }
}
