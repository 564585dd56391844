//! Per-configuration total order and stability tracking.
//!
//! Within one regular configuration the protocol is:
//!
//! 1. a sender forwards its message to the configuration **coordinator**
//!    (smallest node id) — `Submit`;
//! 2. the coordinator assigns the next global sequence number and
//!    multicasts the message to all members (itself included, via
//!    loopback) — `Sequenced`;
//! 3. members acknowledge contiguous receipt back to the coordinator
//!    (batched) — `Ack`;
//! 4. the coordinator advances the **stability line** to the minimum
//!    acknowledged sequence across *all* members and announces it
//!    (piggybacked on `Sequenced` or standalone `Stable`);
//! 5. members deliver messages up to the stability line as **safe** in
//!    the regular configuration.
//!
//! Messages above a member's delivered line are retained in its buffer:
//! they are what gets delivered in the *transitional* configuration on a
//! membership change, and what gets retransmitted to same-configuration
//! peers during the flush phase.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use todr_net::{NodeId, NodeMap};

use crate::types::{Configuration, Delivery};
use crate::wire::{SequencedMsg, SubmitItem};

/// Ordering state for the configuration this daemon currently inhabits.
#[derive(Debug)]
pub(crate) struct ConfOrdering {
    conf: Configuration,
    me: NodeId,
    /// Deliver on sequencing (agreed order) instead of waiting for the
    /// stability line (safe delivery). Used by consumers that provide
    /// their own end-to-end guarantees (COReL); the replication engine
    /// always uses safe delivery.
    agreed_mode: bool,

    // --- member side ---
    /// Highest contiguous global sequence number received.
    have_upto: u64,
    /// Highest sequence number delivered as safe (== the local stability
    /// line).
    delivered_upto: u64,
    /// Latest stability line heard from the coordinator.
    stable_upto: u64,
    /// Received, not-yet-safe messages, as a window: slot `i` holds
    /// sequence number `delivered_upto + 1 + i`. Every slot up to
    /// `have_upto` is filled; past it, a retransmission that landed
    /// beyond a hole fills its own slot and leaves `None` in between.
    buffer: VecDeque<Option<SequencedMsg>>,

    // --- sender side ---
    next_local_seq: u64,
    /// Own submissions not yet seen back as `Sequenced`:
    /// local_seq → (payload, size). Re-submitted in the next
    /// configuration if this one ends first.
    unsequenced: BTreeMap<u64, (Rc<dyn std::any::Any>, u32)>,

    // --- coordinator side ---
    next_seq: u64,
    acks: NodeMap<u64>,
    /// Cached minimum of `acks` — the low-water mark. Maintained
    /// incrementally so [`Self::on_ack`] only rescans the vector when
    /// the member that moved *was* the laggard, making ack processing
    /// O(1) amortized instead of O(members) per ack.
    acks_min: u64,
    announced_stable: u64,
    /// Round-robin cursor for [`Self::next_acker`] (cumulative-ack
    /// stability's rotating prompt-acker).
    ack_rr: usize,

    /// The member list as a shared slice, so every per-frame multicast
    /// bumps a refcount instead of cloning the `Vec`.
    members_shared: Rc<[NodeId]>,
}

impl ConfOrdering {
    /// Safe-delivery ordering (the default mode; used directly by unit
    /// tests — the daemon goes through [`ConfOrdering::with_mode`]).
    #[cfg(test)]
    pub(crate) fn new(conf: Configuration, me: NodeId) -> Self {
        Self::with_mode(conf, me, false)
    }

    pub(crate) fn with_mode(conf: Configuration, me: NodeId, agreed_mode: bool) -> Self {
        // Only the coordinator counts acks: a row per member, sized once.
        let acks = if conf.coordinator() == me {
            conf.members.iter().map(|&m| (m, 0)).collect()
        } else {
            NodeMap::new()
        };
        let members_shared: Rc<[NodeId]> = conf.members.as_slice().into();
        ConfOrdering {
            conf,
            me,
            agreed_mode,
            have_upto: 0,
            delivered_upto: 0,
            stable_upto: 0,
            buffer: VecDeque::new(),
            next_local_seq: 0,
            unsequenced: BTreeMap::new(),
            next_seq: 0,
            acks,
            acks_min: 0,
            announced_stable: 0,
            ack_rr: 0,
            members_shared,
        }
    }

    pub(crate) fn conf(&self) -> &Configuration {
        &self.conf
    }

    pub(crate) fn coordinator(&self) -> NodeId {
        self.conf.coordinator()
    }

    /// The configuration's member list as a shared slice (one allocation
    /// per configuration, refcount-bumped per multicast).
    pub(crate) fn members_shared(&self) -> Rc<[NodeId]> {
        Rc::clone(&self.members_shared)
    }

    /// Cumulative-ack stability: the member designated to ack the next
    /// `Sequenced` frame promptly. Rotates round-robin over the
    /// non-coordinator members (the coordinator acks its own frames via
    /// loopback), so every member's low-water mark is probed once per
    /// `members - 1` frames without any per-frame fan-in.
    pub(crate) fn next_acker(&mut self) -> Option<NodeId> {
        let members = &self.conf.members;
        if members.len() <= 1 {
            return None;
        }
        let mut idx = self.ack_rr % members.len();
        self.ack_rr = (self.ack_rr + 1) % members.len();
        if members[idx] == self.me {
            idx = self.ack_rr % members.len();
            self.ack_rr = (self.ack_rr + 1) % members.len();
        }
        Some(members[idx])
    }

    pub(crate) fn is_coordinator(&self) -> bool {
        self.coordinator() == self.me
    }

    pub(crate) fn have_upto(&self) -> u64 {
        self.have_upto
    }

    pub(crate) fn delivered_upto(&self) -> u64 {
        self.delivered_upto
    }

    /// Registers an application submission, returning the local sequence
    /// number to put in the `Submit` frame.
    pub(crate) fn register_submission(&mut self, payload: Rc<dyn std::any::Any>, size: u32) -> u64 {
        self.next_local_seq += 1;
        self.unsequenced
            .insert(self.next_local_seq, (payload, size));
        self.next_local_seq
    }

    /// Coordinator: assigns the next global sequence number.
    pub(crate) fn sequence(
        &mut self,
        sender: NodeId,
        local_seq: u64,
        payload: Rc<dyn std::any::Any>,
        size: u32,
    ) -> SequencedMsg {
        debug_assert!(self.is_coordinator());
        self.next_seq += 1;
        SequencedMsg {
            seq: self.next_seq,
            sender,
            local_seq,
            payload,
            size,
        }
    }

    /// Coordinator: sequences a packed batch of submissions from one
    /// sender. Each item gets its own consecutive global sequence number
    /// in item order — packing never changes the per-message order.
    pub(crate) fn sequence_batch(
        &mut self,
        sender: NodeId,
        items: &[SubmitItem],
    ) -> Vec<SequencedMsg> {
        items
            .iter()
            .map(|i| self.sequence(sender, i.local_seq, Rc::clone(&i.payload), i.size))
            .collect()
    }

    /// Member: handles a packed `Sequenced` frame by ordering each
    /// message individually (see [`Self::on_sequenced`]); returns every
    /// message that became safe-deliverable, in order.
    pub(crate) fn on_sequenced_batch(
        &mut self,
        msgs: &[SequencedMsg],
        piggy_stable: u64,
    ) -> Vec<Delivery> {
        let mut out = Vec::new();
        for msg in msgs {
            out.extend(self.on_sequenced(msg.clone(), piggy_stable));
        }
        out
    }

    /// Coordinator: the stability line to piggyback on outgoing frames.
    pub(crate) fn announced_stable(&self) -> u64 {
        self.announced_stable
    }

    /// Coordinator: processes an acknowledgement. Returns the new
    /// stability line if it advanced.
    pub(crate) fn on_ack(&mut self, from: NodeId, upto: u64) -> Option<u64> {
        debug_assert!(self.is_coordinator());
        let entry = self.acks.entry(from).or_insert(0);
        if upto <= *entry {
            return None;
        }
        let was_laggard = *entry == self.acks_min;
        *entry = upto;
        if !was_laggard {
            // Only a member sitting at the low-water mark can move it.
            return None;
        }
        self.acks_min = self.acks.values().copied().min().unwrap_or(0);
        if self.acks_min > self.announced_stable {
            self.announced_stable = self.acks_min;
            Some(self.acks_min)
        } else {
            None
        }
    }

    /// Member: handles a `Sequenced` frame. Returns the messages that
    /// became safe-deliverable (possibly empty).
    ///
    /// # Panics
    ///
    /// Panics if the sequence number is not contiguous — the transport
    /// guarantees per-pair FIFO, so a gap is a protocol bug.
    pub(crate) fn on_sequenced(&mut self, msg: SequencedMsg, piggy_stable: u64) -> Vec<Delivery> {
        assert_eq!(
            msg.seq,
            self.have_upto + 1,
            "non-contiguous sequenced message at {} in {}",
            self.me,
            self.conf.id
        );
        let seq = msg.seq;
        self.have_upto = seq;
        if msg.sender == self.me {
            self.unsequenced.remove(&msg.local_seq);
        }
        *self.slot(seq) = Some(msg);
        if self.agreed_mode {
            // Agreed order suffices: deliver as soon as sequenced.
            let upto = self.have_upto;
            self.on_stable(upto)
        } else {
            self.on_stable(piggy_stable)
        }
    }

    /// Member: handles a stability announcement. Returns newly
    /// safe-deliverable messages in order.
    pub(crate) fn on_stable(&mut self, upto: u64) -> Vec<Delivery> {
        if upto > self.stable_upto {
            self.stable_upto = upto;
        }
        self.deliver_upto(self.stable_upto.min(self.have_upto), false)
    }

    /// Delivers the window's front up to `upto` (at most `have_upto`),
    /// in sequence order.
    fn deliver_upto(&mut self, upto: u64, in_transitional: bool) -> Vec<Delivery> {
        let count = upto.saturating_sub(self.delivered_upto) as usize;
        let mut out = Vec::with_capacity(count);
        for msg in self.buffer.drain(..count) {
            let msg = msg.expect("buffer hole below have_upto");
            out.push(Delivery {
                sender: msg.sender,
                payload: msg.payload,
                conf_id: self.conf.id,
                seq: msg.seq,
                in_transitional,
                last_in_batch: false,
            });
        }
        self.delivered_upto += count as u64;
        out
    }

    /// The window slot of `seq`, which is above `delivered_upto`; the
    /// window grows to reach it.
    fn slot(&mut self, seq: u64) -> &mut Option<SequencedMsg> {
        let at = (seq - self.delivered_upto - 1) as usize;
        if at >= self.buffer.len() {
            self.buffer.resize(at + 1, None);
        }
        &mut self.buffer[at]
    }

    /// The retained message `seq`.
    fn buffered(&self, seq: u64) -> Option<&SequencedMsg> {
        let at = seq.checked_sub(self.delivered_upto + 1)?;
        self.buffer.get(usize::try_from(at).ok()?)?.as_ref()
    }

    /// Flush: messages in `from..=to` for retransmission to a peer that
    /// lacks them.
    ///
    /// # Panics
    ///
    /// Panics if the range is not fully present in the retained buffer
    /// (the flush protocol only asks holders for ranges above the global
    /// stability line, which holders retain).
    pub(crate) fn msgs_range(&self, from: u64, to: u64) -> Vec<SequencedMsg> {
        (from..=to)
            .map(|seq| {
                self.buffered(seq)
                    .unwrap_or_else(|| panic!("retrans range missing seq {seq}"))
                    .clone()
            })
            .collect()
    }

    /// Flush: merges retransmitted messages into the buffer, extending
    /// `have_upto` over any newly contiguous prefix.
    pub(crate) fn apply_retrans(&mut self, msgs: &[SequencedMsg]) {
        for msg in msgs {
            if msg.seq > self.delivered_upto {
                if msg.sender == self.me {
                    self.unsequenced.remove(&msg.local_seq);
                }
                self.slot(msg.seq).get_or_insert_with(|| msg.clone());
            }
        }
        while self.buffered(self.have_upto + 1).is_some() {
            self.have_upto += 1;
        }
    }

    /// Install: drains everything ordered-but-not-safe for delivery in
    /// the transitional configuration, in sequence order.
    pub(crate) fn take_transitional(&mut self) -> Vec<Delivery> {
        self.deliver_upto(self.have_upto, true)
    }

    /// Install: own submissions that were never sequenced in this
    /// configuration; the daemon re-submits them in the next one.
    pub(crate) fn take_unsequenced(&mut self) -> Vec<(Rc<dyn std::any::Any>, u32)> {
        std::mem::take(&mut self.unsequenced)
            .into_values()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ConfId;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn conf(members: &[u32]) -> Configuration {
        Configuration::new(
            ConfId {
                seq: 1,
                coordinator: n(members[0]),
            },
            members.iter().map(|&i| n(i)).collect(),
        )
    }

    fn msg(coord: &mut ConfOrdering, sender: NodeId, local_seq: u64) -> SequencedMsg {
        coord.sequence(sender, local_seq, Rc::new(local_seq), 200)
    }

    #[test]
    fn coordinator_is_min_member() {
        let o = ConfOrdering::new(conf(&[2, 0, 1]), n(0));
        assert!(o.is_coordinator());
        let o2 = ConfOrdering::new(conf(&[0, 1, 2]), n(1));
        assert!(!o2.is_coordinator());
    }

    #[test]
    fn messages_deliver_only_after_stability() {
        let mut coord = ConfOrdering::new(conf(&[0, 1, 2]), n(0));
        let mut member = ConfOrdering::new(conf(&[0, 1, 2]), n(1));

        let m1 = msg(&mut coord, n(2), 1);
        let delivered = member.on_sequenced(m1, 0);
        assert!(delivered.is_empty(), "not yet stable");
        assert_eq!(member.have_upto(), 1);

        // All three members ack seq 1.
        assert_eq!(coord.on_ack(n(0), 1), None);
        assert_eq!(coord.on_ack(n(1), 1), None);
        assert_eq!(coord.on_ack(n(2), 1), Some(1));

        let delivered = member.on_stable(1);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].seq, 1);
        assert!(!delivered[0].in_transitional);
        assert_eq!(member.delivered_upto(), 1);
    }

    #[test]
    fn stability_is_min_over_all_members() {
        let mut coord = ConfOrdering::new(conf(&[0, 1, 2]), n(0));
        for i in 1..=3u64 {
            let _ = msg(&mut coord, n(1), i);
        }
        coord.on_ack(n(0), 3);
        coord.on_ack(n(1), 3);
        // n2 has only acked 1: stability stops there.
        assert_eq!(coord.on_ack(n(2), 1), Some(1));
        assert_eq!(coord.on_ack(n(2), 3), Some(3));
    }

    #[test]
    fn piggybacked_stability_delivers_in_one_call() {
        let mut coord = ConfOrdering::new(conf(&[0, 1]), n(0));
        let mut member = ConfOrdering::new(conf(&[0, 1]), n(1));
        let m1 = msg(&mut coord, n(0), 1);
        member.on_sequenced(m1, 0);
        let m2 = msg(&mut coord, n(0), 2);
        // Coordinator announced stability 1 piggybacked on m2.
        let delivered = member.on_sequenced(m2, 1);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].seq, 1);
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn gap_in_sequence_panics() {
        let mut coord = ConfOrdering::new(conf(&[0, 1]), n(0));
        let mut member = ConfOrdering::new(conf(&[0, 1]), n(1));
        let _skipped = msg(&mut coord, n(0), 1);
        let m2 = msg(&mut coord, n(0), 2);
        member.on_sequenced(m2, 0);
    }

    #[test]
    fn transitional_takeout_returns_unsafe_suffix_in_order() {
        let mut coord = ConfOrdering::new(conf(&[0, 1]), n(0));
        let mut member = ConfOrdering::new(conf(&[0, 1]), n(1));
        for i in 1..=4u64 {
            let m = msg(&mut coord, n(0), i);
            member.on_sequenced(m, 0);
        }
        member.on_stable(2); // 1, 2 delivered safe
        let trans = member.take_transitional();
        let seqs: Vec<u64> = trans.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert!(trans.iter().all(|d| d.in_transitional));
        assert_eq!(member.delivered_upto(), 4);
    }

    #[test]
    fn retrans_fills_gap_and_extends_have() {
        let mut coord = ConfOrdering::new(conf(&[0, 1, 2]), n(0));
        let mut ahead = ConfOrdering::new(conf(&[0, 1, 2]), n(1));
        let mut behind = ConfOrdering::new(conf(&[0, 1, 2]), n(2));
        let mut msgs = Vec::new();
        for i in 1..=3u64 {
            let m = msg(&mut coord, n(0), i);
            ahead.on_sequenced(m.clone(), 0);
            msgs.push(m);
        }
        behind.on_sequenced(msgs[0].clone(), 0); // only got seq 1
        assert_eq!(behind.have_upto(), 1);

        // Flush: ahead retransmits 2..=3 to behind.
        let retrans = ahead.msgs_range(2, 3);
        behind.apply_retrans(&retrans);
        assert_eq!(behind.have_upto(), 3);
        let trans = behind.take_transitional();
        assert_eq!(trans.len(), 3);
    }

    #[test]
    fn retrans_ignores_already_delivered() {
        let mut coord = ConfOrdering::new(conf(&[0, 1]), n(0));
        let mut member = ConfOrdering::new(conf(&[0, 1]), n(1));
        let m1 = msg(&mut coord, n(0), 1);
        member.on_sequenced(m1.clone(), 0);
        member.on_stable(1); // delivered safe
        member.apply_retrans(&[m1]);
        assert!(member.take_transitional().is_empty());
    }

    #[test]
    fn own_sequenced_message_clears_unsequenced() {
        let mut coord = ConfOrdering::new(conf(&[0, 1]), n(0));
        let mut sender = ConfOrdering::new(conf(&[0, 1]), n(1));
        let ls = sender.register_submission(Rc::new(7u32), 200);
        assert_eq!(ls, 1);
        let m = coord.sequence(n(1), ls, Rc::new(7u32), 200);
        sender.on_sequenced(m, 0);
        assert!(sender.take_unsequenced().is_empty());
    }

    #[test]
    fn unsequenced_submissions_survive_for_resubmission() {
        let mut sender = ConfOrdering::new(conf(&[0, 1]), n(1));
        sender.register_submission(Rc::new(1u32), 200);
        sender.register_submission(Rc::new(2u32), 200);
        let pending = sender.take_unsequenced();
        assert_eq!(pending.len(), 2);
    }

    #[test]
    fn retrans_clears_own_unsequenced() {
        // A sender that never saw its message sequenced, but receives it
        // through flush retransmission, must not resubmit it.
        let mut coord = ConfOrdering::new(conf(&[0, 1]), n(0));
        let mut sender = ConfOrdering::new(conf(&[0, 1]), n(1));
        let ls = sender.register_submission(Rc::new(7u32), 200);
        let m = coord.sequence(n(1), ls, Rc::new(7u32), 200);
        sender.apply_retrans(&[m]);
        assert!(sender.take_unsequenced().is_empty());
    }

    #[test]
    fn packed_batches_are_ordered_per_message() {
        let mut coord = ConfOrdering::new(conf(&[0, 1]), n(0));
        let mut member = ConfOrdering::new(conf(&[0, 1]), n(1));
        let items: Vec<SubmitItem> = (1..=3u64)
            .map(|ls| SubmitItem {
                local_seq: ls,
                payload: Rc::new(ls),
                size: 200,
            })
            .collect();
        let msgs = coord.sequence_batch(n(1), &items);
        let seqs: Vec<u64> = msgs.iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        // The member orders each packed message individually; with the
        // piggybacked stability line covering the batch they all deliver.
        let delivered = member.on_sequenced_batch(&msgs, 0);
        assert!(delivered.is_empty());
        assert_eq!(member.have_upto(), 3);
        let delivered = member.on_stable(3);
        assert_eq!(
            delivered.iter().map(|d| d.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn duplicate_acks_do_not_regress_stability() {
        let mut coord = ConfOrdering::new(conf(&[0, 1]), n(0));
        let _ = msg(&mut coord, n(0), 1);
        let _ = msg(&mut coord, n(0), 2);
        coord.on_ack(n(0), 2);
        assert_eq!(coord.on_ack(n(1), 2), Some(2));
        assert_eq!(coord.on_ack(n(1), 1), None); // stale ack
        assert_eq!(coord.announced_stable(), 2);
    }

    #[test]
    fn incremental_low_water_mark_matches_full_rescan() {
        // Feed the amortized-min tracker an adversarial ack sequence and
        // cross-check every announcement against a naive min-over-all.
        let members: Vec<u32> = (0..7).collect();
        let mut coord = ConfOrdering::new(conf(&members), n(0));
        for i in 1..=40u64 {
            let _ = msg(&mut coord, n(1), i);
        }
        let mut naive: BTreeMap<NodeId, u64> = members.iter().map(|&m| (n(m), 0)).collect();
        let mut naive_announced = 0u64;
        // Acks arrive out of order, repeat, and regress.
        let script: &[(u32, u64)] = &[
            (3, 5),
            (1, 9),
            (0, 40),
            (2, 5),
            (4, 4),
            (5, 6),
            (6, 7),
            (4, 2), // stale
            (4, 9),
            (3, 9),
            (2, 9),
            (1, 9), // duplicate
            (5, 40),
            (6, 40),
            (1, 40),
            (2, 40),
            (3, 40),
            (4, 40),
        ];
        for &(from, upto) in script {
            let got = coord.on_ack(n(from), upto);
            let e = naive.get_mut(&n(from)).unwrap();
            *e = (*e).max(upto);
            let min = naive.values().copied().min().unwrap();
            let expect = if min > naive_announced {
                naive_announced = min;
                Some(min)
            } else {
                None
            };
            assert_eq!(got, expect, "divergence after ack ({from}, {upto})");
        }
        assert_eq!(coord.announced_stable(), 40);
    }

    /// The member's buffer as a map from sequence number, the form the
    /// window replaced, holding each message's `local_seq`: the reference
    /// the window is checked against.
    #[derive(Default)]
    struct MapBuffer {
        buffer: BTreeMap<u64, u64>,
        have_upto: u64,
        delivered_upto: u64,
        stable_upto: u64,
    }

    impl MapBuffer {
        fn sequenced(&mut self, m: &SequencedMsg) {
            self.have_upto = m.seq;
            self.buffer.insert(m.seq, m.local_seq);
        }

        fn stable(&mut self, upto: u64) -> Vec<(u64, u64)> {
            self.stable_upto = self.stable_upto.max(upto);
            self.deliver(self.stable_upto)
        }

        fn deliver(&mut self, upto: u64) -> Vec<(u64, u64)> {
            let mut out = Vec::new();
            while self.delivered_upto < upto.min(self.have_upto) {
                self.delivered_upto += 1;
                let seq = self.delivered_upto;
                out.extend(self.buffer.remove(&seq).map(|local| (seq, local)));
            }
            out
        }

        fn retrans(&mut self, msgs: &[SequencedMsg]) {
            for m in msgs.iter().filter(|m| m.seq > self.delivered_upto) {
                self.buffer.entry(m.seq).or_insert(m.local_seq);
            }
            while self.buffer.contains_key(&(self.have_upto + 1)) {
                self.have_upto += 1;
            }
        }

        fn range(&self, from: u64, to: u64) -> Option<Vec<(u64, u64)>> {
            (from..=to)
                .map(|seq| self.buffer.get(&seq).map(|&local| (seq, local)))
                .collect()
        }
    }

    /// What deliveries carry, comparable with [`MapBuffer`]'s: the
    /// sequence number and the `local_seq` the test stored as payload.
    fn seqs(deliveries: &[Delivery]) -> Vec<(u64, u64)> {
        let local = |d: &Delivery| d.payload.downcast_ref::<u64>().copied();
        deliveries
            .iter()
            .map(|d| (d.seq, local(d).unwrap_or(0)))
            .collect()
    }

    fn ranged(msgs: &[SequencedMsg]) -> Vec<(u64, u64)> {
        msgs.iter().map(|m| (m.seq, m.local_seq)).collect()
    }

    fn assert_agrees(window: &ConfOrdering, map: &MapBuffer, context: &str) {
        assert_eq!(window.have_upto(), map.have_upto, "{context}");
        assert_eq!(window.delivered_upto(), map.delivered_upto, "{context}");
        // The window holds exactly what the map holds: the filled prefix
        // and whatever landed beyond a hole.
        let held: Vec<u64> = (map.delivered_upto + 1..=map.delivered_upto + 64)
            .filter(|&seq| window.buffered(seq).is_some())
            .collect();
        assert_eq!(
            held,
            map.buffer.keys().copied().collect::<Vec<_>>(),
            "{context}"
        );
        assert!(
            window.buffer.len() as u64
                <= map
                    .buffer
                    .keys()
                    .max()
                    .map_or(0, |&s| s - map.delivered_upto),
            "{context}"
        );
    }

    #[test]
    fn a_retransmission_beyond_a_hole_waits_for_the_hole() {
        let mut coord = ConfOrdering::new(conf(&[0, 1, 2]), n(0));
        let msgs: Vec<SequencedMsg> = (1..=7).map(|i| msg(&mut coord, n(2), i)).collect();
        let mut member = ConfOrdering::new(conf(&[0, 1, 2]), n(1));
        let mut map = MapBuffer::default();
        for m in &msgs[..4] {
            assert!(member.on_sequenced(m.clone(), 0).is_empty());
            map.sequenced(m);
        }
        assert_eq!(seqs(&member.on_stable(2)), map.stable(2));
        assert_agrees(&member, &map, "1..=4 received, 1..=2 delivered");

        // 5 and 7 arrive; 6 is a hole, so only 5 extends the prefix.
        member.apply_retrans(&[msgs[4].clone(), msgs[6].clone()]);
        map.retrans(&[msgs[4].clone(), msgs[6].clone()]);
        assert_eq!(member.have_upto(), 5);
        assert_agrees(&member, &map, "5 and 7 retransmitted");
        assert_eq!(
            ranged(&member.msgs_range(3, 5)),
            map.range(3, 5).unwrap_or_default()
        );
        assert_eq!(map.range(3, 7), None, "the reference has the hole too");
        // Stability past the hole delivers only the filled prefix.
        assert_eq!(seqs(&member.on_stable(7)), map.stable(7));
        assert_agrees(&member, &map, "stable at 7 with 6 missing");

        // 6 fills the hole: the prefix runs on to 7.
        member.apply_retrans(&[msgs[5].clone(), msgs[6].clone()]);
        map.retrans(&[msgs[5].clone(), msgs[6].clone()]);
        assert_eq!(member.have_upto(), 7);
        assert_agrees(&member, &map, "6 retransmitted");
        assert_eq!(
            ranged(&member.msgs_range(6, 7)),
            map.range(6, 7).unwrap_or_default()
        );
        assert_eq!(
            seqs(&member.take_transitional()),
            map.deliver(map.have_upto)
        );
        assert_agrees(&member, &map, "transitional taken");
    }

    #[test]
    #[should_panic(expected = "retrans range missing seq 6")]
    fn a_range_across_a_hole_is_a_protocol_bug() {
        let mut coord = ConfOrdering::new(conf(&[0, 1]), n(0));
        let msgs: Vec<SequencedMsg> = (1..=7).map(|i| msg(&mut coord, n(0), i)).collect();
        let mut member = ConfOrdering::new(conf(&[0, 1]), n(1));
        member.apply_retrans(&[msgs[4].clone(), msgs[6].clone()]);
        member.msgs_range(5, 7);
    }

    /// Random receipt, stability, retransmission (holes included) and
    /// transitional take-out: the window and the map agree throughout.
    #[test]
    fn the_window_agrees_with_the_map_buffer() {
        for seed in 0..32 {
            let mut rng = todr_sim::SimRng::new(seed);
            let mut coord = ConfOrdering::new(conf(&[0, 1, 2]), n(0));
            let msgs: Vec<SequencedMsg> = (1..=40).map(|i| msg(&mut coord, n(2), i)).collect();
            let mut member = ConfOrdering::new(conf(&[0, 1, 2]), n(1));
            let mut map = MapBuffer::default();
            for step in 0..60 {
                let context = format!("seed {seed}, step {step}");
                match rng.gen_range(4) {
                    0 => {
                        if let Some(m) = msgs.get(member.have_upto() as usize) {
                            let piggy = rng.gen_range(m.seq + 1);
                            let got = member.on_sequenced(m.clone(), piggy);
                            map.sequenced(m);
                            assert_eq!(seqs(&got), map.stable(piggy), "{context}");
                        }
                    }
                    1 => {
                        let upto = rng.gen_range(41);
                        assert_eq!(seqs(&member.on_stable(upto)), map.stable(upto), "{context}");
                    }
                    2 => {
                        let from = rng.gen_range(40) as usize;
                        let batch: Vec<SequencedMsg> = msgs[from..]
                            .iter()
                            .take(1 + rng.gen_range(4) as usize)
                            .filter(|_| rng.gen_bool(0.7))
                            .cloned()
                            .collect();
                        member.apply_retrans(&batch);
                        map.retrans(&batch);
                    }
                    _ => {
                        let from = map.delivered_upto + 1;
                        if let Some(expected) = map.range(from, map.have_upto) {
                            let got = member.msgs_range(from, map.have_upto);
                            assert_eq!(ranged(&got), expected, "{context}");
                        }
                    }
                }
                assert_agrees(&member, &map, &context);
            }
            assert_eq!(
                seqs(&member.take_transitional()),
                map.deliver(map.have_upto)
            );
            assert_agrees(&member, &map, &format!("seed {seed}, transitional"));
        }
    }

    #[test]
    fn acker_rotation_covers_every_non_coordinator_member() {
        let mut coord = ConfOrdering::new(conf(&[0, 1, 2, 3]), n(0));
        let mut seen = Vec::new();
        for _ in 0..6 {
            seen.push(coord.next_acker().unwrap());
        }
        // Over two cycles every non-coordinator member is designated
        // twice and the coordinator never is.
        assert!(!seen.contains(&n(0)));
        for m in [1u32, 2, 3] {
            assert_eq!(seen.iter().filter(|&&x| x == n(m)).count(), 2, "member {m}");
        }
    }

    #[test]
    fn singleton_configuration_has_no_acker() {
        let mut solo = ConfOrdering::new(conf(&[4]), n(4));
        assert_eq!(solo.next_acker(), None);
    }
}
