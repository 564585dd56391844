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

use std::collections::BTreeMap;
use std::rc::Rc;

use todr_net::NodeId;

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
    /// Received, not-yet-safe messages: seq → message, covering
    /// `(delivered_upto, have_upto]`.
    buffer: BTreeMap<u64, SequencedMsg>,

    // --- sender side ---
    next_local_seq: u64,
    /// Own submissions not yet seen back as `Sequenced`:
    /// local_seq → (payload, size). Re-submitted in the next
    /// configuration if this one ends first.
    unsequenced: BTreeMap<u64, (Rc<dyn std::any::Any>, u32)>,

    // --- coordinator side ---
    next_seq: u64,
    acks: BTreeMap<NodeId, u64>,
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
        let acks = conf.members.iter().map(|&m| (m, 0)).collect();
        let members_shared: Rc<[NodeId]> = conf.members.as_slice().into();
        ConfOrdering {
            conf,
            me,
            agreed_mode,
            have_upto: 0,
            delivered_upto: 0,
            stable_upto: 0,
            buffer: BTreeMap::new(),
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
        self.have_upto = msg.seq;
        if msg.sender == self.me {
            self.unsequenced.remove(&msg.local_seq);
        }
        self.buffer.insert(msg.seq, msg);
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
        let mut out = Vec::new();
        while self.delivered_upto < self.stable_upto.min(self.have_upto) {
            let seq = self.delivered_upto + 1;
            let msg = self
                .buffer
                .remove(&seq)
                .expect("buffer hole below have_upto");
            self.delivered_upto = seq;
            out.push(Delivery {
                sender: msg.sender,
                payload: msg.payload,
                conf_id: self.conf.id,
                seq,
                in_transitional: false,
                last_in_batch: false,
            });
        }
        out
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
                self.buffer
                    .get(&seq)
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
                self.buffer.entry(msg.seq).or_insert_with(|| msg.clone());
            }
        }
        while self.buffer.contains_key(&(self.have_upto + 1)) {
            self.have_upto += 1;
        }
    }

    /// Install: drains everything ordered-but-not-safe for delivery in
    /// the transitional configuration, in sequence order.
    pub(crate) fn take_transitional(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        while self.delivered_upto < self.have_upto {
            let seq = self.delivered_upto + 1;
            let msg = self
                .buffer
                .remove(&seq)
                .expect("buffer hole below have_upto");
            self.delivered_upto = seq;
            out.push(Delivery {
                sender: msg.sender,
                payload: msg.payload,
                conf_id: self.conf.id,
                seq,
                in_transitional: true,
                last_in_batch: false,
            });
        }
        out
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
