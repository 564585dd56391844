//! Per-peer reliable FIFO channels (ARQ) — the "loss tolerant
//! architecture" underneath the membership and ordering protocols.
//!
//! The EVS protocols above assume that, within a connected component,
//! frames between two daemons arrive reliably and in order. The fabric
//! provides FIFO but may drop frames when a loss probability is
//! configured (§2.1: "the messages can be lost"). When
//! [`EvsConfig::reliable_links`](crate::EvsConfig) is on, every
//! non-heartbeat frame travels inside a [`LinkFrame`] with a per-peer
//! sequence number; receivers deliver in order and acknowledge
//! cumulatively, senders retransmit unacknowledged frames on a timer.
//!
//! Epochs make channels crash-safe: a daemon stamps its frames with its
//! incarnation (the monotone membership attempt counter); a receiver
//! seeing a newer epoch resets the inbound channel, and acknowledgements
//! for stale epochs are ignored.
//!
//! Retransmission to peers outside the reachable set is *paused*, not
//! abandoned: the queue (bounded by what was in flight when connectivity
//! broke) resumes when the peer becomes reachable again, preserving
//! sequence continuity across partitions. Only a peer restart — detected
//! by its epoch bump — discards the queue.

use std::collections::BTreeMap;
use std::rc::Rc;

use todr_net::NodeId;

use crate::wire::EvsWire;

/// The wire wrapper for reliable links.
#[derive(Debug, Clone)]
pub(crate) struct LinkFrame {
    /// Sender's incarnation.
    pub epoch: u64,
    /// Per-(sender, receiver, epoch) sequence number, starting at 1.
    /// `0` marks a pure acknowledgement frame.
    pub seq: u64,
    /// Cumulative acknowledgement: every frame of `ack_epoch` up to
    /// `ack` has been delivered by the sender of this frame.
    pub ack_epoch: u64,
    pub ack: u64,
    /// The actual protocol frame (`None` for pure acknowledgements).
    pub inner: Option<Rc<EvsWire>>,
}

/// Outbound state for one peer.
#[derive(Debug, Default)]
struct OutChannel {
    next_seq: u64,
    /// seq -> (frame, modelled size)
    unacked: BTreeMap<u64, (Rc<EvsWire>, u32)>,
}

/// Inbound state for one peer.
#[derive(Debug, Default)]
struct InChannel {
    epoch: u64,
    delivered_upto: u64,
    /// Out-of-order frames waiting for the gap to fill.
    buffer: BTreeMap<u64, Rc<EvsWire>>,
    /// Whether an acknowledgement is owed.
    ack_pending: bool,
}

/// What the receive path tells the daemon to do.
#[derive(Debug)]
pub(crate) struct RecvOutcome {
    /// Frames now deliverable, in order.
    pub deliver: Vec<Rc<EvsWire>>,
    /// Whether an acknowledgement should be scheduled.
    pub ack_due: bool,
}

/// All reliable channels of one daemon.
#[derive(Debug)]
pub(crate) struct LinkLayer {
    epoch: u64,
    out: BTreeMap<NodeId, OutChannel>,
    inbound: BTreeMap<NodeId, InChannel>,
}

impl LinkLayer {
    pub(crate) fn new(epoch: u64) -> Self {
        LinkLayer {
            epoch,
            out: BTreeMap::new(),
            inbound: BTreeMap::new(),
        }
    }

    /// Wraps `wire` for transmission to `peer`, registering it for
    /// retransmission until acknowledged.
    pub(crate) fn send(&mut self, peer: NodeId, wire: Rc<EvsWire>, size: u32) -> LinkFrame {
        let ch = self.out.entry(peer).or_default();
        ch.next_seq += 1;
        let seq = ch.next_seq;
        ch.unacked.insert(seq, (Rc::clone(&wire), size));
        let (ack_epoch, ack) = self.ack_for(peer);
        LinkFrame {
            epoch: self.epoch,
            seq,
            ack_epoch,
            ack,
            inner: Some(wire),
        }
    }

    fn ack_for(&self, peer: NodeId) -> (u64, u64) {
        self.inbound
            .get(&peer)
            .map(|ch| (ch.epoch, ch.delivered_upto))
            .unwrap_or((0, 0))
    }

    /// Builds a pure acknowledgement frame for `peer`, clearing its
    /// ack-pending mark.
    pub(crate) fn ack_frame(&mut self, peer: NodeId) -> LinkFrame {
        let (ack_epoch, ack) = self.ack_for(peer);
        if let Some(ch) = self.inbound.get_mut(&peer) {
            ch.ack_pending = false;
        }
        LinkFrame {
            epoch: self.epoch,
            seq: 0,
            ack_epoch,
            ack,
            inner: None,
        }
    }

    /// Processes a received frame from `peer`.
    pub(crate) fn receive(&mut self, peer: NodeId, frame: &LinkFrame) -> RecvOutcome {
        // Acknowledgement processing (every frame carries one).
        if frame.ack_epoch == self.epoch {
            if let Some(ch) = self.out.get_mut(&peer) {
                ch.unacked.retain(|&seq, _| seq > frame.ack);
            }
        }

        let mut outcome = RecvOutcome {
            deliver: Vec::new(),
            ack_due: false,
        };
        let Some(inner) = &frame.inner else {
            return outcome; // pure ack
        };
        if frame.ack_epoch != 0 && frame.ack_epoch < self.epoch {
            // Numbered for a dead incarnation of ours: the sender has not
            // heard of this one yet, and when it does it renumbers from 1
            // (below), so delivering or buffering this frame would put it
            // in a renumbered frame's place. `ack_epoch` 0 is safe: the
            // sender has no inbound channel from any incarnation of ours,
            // so hearing us is its first contact and it never renumbers.
            return outcome;
        }

        let ch = self.inbound.entry(peer).or_default();
        if frame.epoch > ch.epoch {
            let first_contact = ch.epoch == 0;
            // Peer restarted (or this is first contact): fresh inbound
            // channel...
            *ch = InChannel {
                epoch: frame.epoch,
                ..InChannel::default()
            };
            // ...and, on a restart, fresh *outbound* state as well: the
            // peer lost its inbound bookkeeping with the crash, so our
            // old sequence numbers would sit in its reorder buffer
            // forever. Frames queued for the dead incarnation are
            // dropped; the membership protocol re-synchronizes state.
            if !first_contact {
                self.out.remove(&peer);
            }
        } else if frame.epoch < ch.epoch {
            return outcome; // stale incarnation
        }

        if frame.seq <= ch.delivered_upto {
            // Duplicate: our ack was lost; re-ack.
            ch.ack_pending = true;
            outcome.ack_due = true;
            return outcome;
        }
        if frame.seq > ch.delivered_upto + 1 {
            ch.buffer.insert(frame.seq, Rc::clone(inner));
            ch.ack_pending = true;
            outcome.ack_due = true;
            return outcome;
        }
        // In-order: deliver it and any buffered successors.
        ch.delivered_upto = frame.seq;
        outcome.deliver.push(Rc::clone(inner));
        while let Some(next) = ch.buffer.remove(&(ch.delivered_upto + 1)) {
            ch.delivered_upto += 1;
            outcome.deliver.push(next);
        }
        ch.ack_pending = true;
        outcome.ack_due = true;
        outcome
    }

    /// Unacknowledged frames for peers selected by `keep`, for the
    /// retransmission timer: `(peer, frame, size)`. Queues for peers the
    /// failure detector cannot currently reach are retained but *paused*
    /// — dropping them would desynchronize the sequence numbers from the
    /// peer's persistent inbound state, and resetting them without an
    /// epoch bump would make fresh frames look like duplicates. The
    /// queues are bounded by what was in flight when connectivity was
    /// lost (nothing new is sent to peers outside the membership), and
    /// a genuine peer restart clears them via the epoch mechanism.
    pub(crate) fn retransmissions(
        &self,
        keep: &dyn Fn(NodeId) -> bool,
    ) -> Vec<(NodeId, LinkFrame, u32)> {
        let mut out = Vec::new();
        for (&peer, ch) in &self.out {
            if !keep(peer) {
                continue;
            }
            let (ack_epoch, ack) = self.ack_for(peer);
            for (&seq, (wire, size)) in &ch.unacked {
                out.push((
                    peer,
                    LinkFrame {
                        epoch: self.epoch,
                        seq,
                        ack_epoch,
                        ack,
                        inner: Some(Rc::clone(wire)),
                    },
                    *size,
                ));
            }
        }
        out
    }

    /// Whether anything awaits retransmission.
    pub(crate) fn has_in_flight(&self) -> bool {
        self.out.values().any(|ch| !ch.unacked.is_empty())
    }

    /// Peers that owe an acknowledgement.
    pub(crate) fn ack_pending_peers(&self) -> Vec<NodeId> {
        self.inbound
            .iter()
            .filter(|(_, ch)| ch.ack_pending)
            .map(|(&p, _)| p)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn wire() -> Rc<EvsWire> {
        Rc::new(EvsWire::Stable {
            conf: crate::types::ConfId::initial(n(9)),
            upto: 1,
        })
    }

    fn pipe(a: &mut LinkLayer, b: &mut LinkLayer, from: NodeId, frame: &LinkFrame) -> RecvOutcome {
        let _ = a;
        b.receive(from, frame)
    }

    #[test]
    fn in_order_delivery() {
        let mut tx = LinkLayer::new(1);
        let mut rx = LinkLayer::new(1);
        let f1 = tx.send(n(1), wire(), 10);
        let f2 = tx.send(n(1), wire(), 10);
        let o1 = pipe(&mut tx, &mut rx, n(0), &f1);
        assert_eq!(o1.deliver.len(), 1);
        let o2 = pipe(&mut tx, &mut rx, n(0), &f2);
        assert_eq!(o2.deliver.len(), 1);
    }

    #[test]
    fn gap_buffers_until_filled() {
        let mut tx = LinkLayer::new(1);
        let mut rx = LinkLayer::new(1);
        let f1 = tx.send(n(1), wire(), 10);
        let f2 = tx.send(n(1), wire(), 10);
        let f3 = tx.send(n(1), wire(), 10);
        // f1 lost; f2/f3 arrive first.
        assert!(rx.receive(n(0), &f2).deliver.is_empty());
        assert!(rx.receive(n(0), &f3).deliver.is_empty());
        // Retransmission of f1 releases all three, in order.
        let o = rx.receive(n(0), &f1);
        assert_eq!(o.deliver.len(), 3);
    }

    #[test]
    fn duplicates_are_suppressed_but_reacked() {
        let mut tx = LinkLayer::new(1);
        let mut rx = LinkLayer::new(1);
        let f1 = tx.send(n(1), wire(), 10);
        assert_eq!(rx.receive(n(0), &f1).deliver.len(), 1);
        let o = rx.receive(n(0), &f1);
        assert!(o.deliver.is_empty());
        assert!(o.ack_due, "lost ack must be repaired");
    }

    #[test]
    fn acks_clear_retransmission_queue() {
        let mut tx = LinkLayer::new(1);
        let mut rx = LinkLayer::new(1);
        let f1 = tx.send(n(1), wire(), 10);
        let _f2 = tx.send(n(1), wire(), 10);
        rx.receive(n(0), &f1);
        assert_eq!(tx.retransmissions(&|_| true).len(), 2);
        // rx acks seq 1.
        let ack = rx.ack_frame(n(0));
        tx.receive(n(1), &ack);
        let retx = tx.retransmissions(&|_| true);
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0].1.seq, 2);
    }

    #[test]
    fn piggybacked_acks_work_both_ways() {
        let mut a = LinkLayer::new(1);
        let mut b = LinkLayer::new(1);
        let fa = a.send(n(1), wire(), 10);
        b.receive(n(0), &fa);
        // b's next data frame carries the ack for a's seq 1.
        let fb = b.send(n(0), wire(), 10);
        a.receive(n(1), &fb);
        assert!(!a.has_in_flight());
    }

    #[test]
    fn peer_restart_resets_outbound_channel() {
        // Survivor has queued frames for the old incarnation.
        let mut survivor = LinkLayer::new(1);
        let mut peer_old = LinkLayer::new(2);
        // Establish contact in both directions first.
        let hello_old = peer_old.send(n(0), wire(), 10);
        survivor.receive(n(4), &hello_old);
        let f = survivor.send(n(4), wire(), 10);
        peer_old.receive(n(0), &f);
        let _lost = survivor.send(n(4), wire(), 10); // never delivered
        assert!(survivor.has_in_flight());

        // Peer crashes, restarts with a higher epoch, and speaks first.
        let mut peer_new = LinkLayer::new(9);
        let hello = peer_new.send(n(0), wire(), 10);
        survivor.receive(n(4), &hello);
        // Old queue dropped; the next frame starts from seq 1, which the
        // restarted peer's fresh inbound channel accepts immediately.
        assert!(!survivor.has_in_flight());
        let f2 = survivor.send(n(4), wire(), 10);
        assert_eq!(f2.seq, 1);
        assert_eq!(peer_new.receive(n(0), &f2).deliver.len(), 1);
    }

    #[test]
    fn frames_numbered_for_a_dead_incarnation_are_dropped() {
        let (tx_id, rx_id) = (n(0), n(1));
        let mut tx = LinkLayer::new(5);
        let mut rx_old = LinkLayer::new(1);
        let hello_old = rx_old.send(tx_id, wire(), 10);
        tx.receive(rx_id, &hello_old);
        let f1 = tx.send(rx_id, wire(), 10);
        assert_eq!(rx_old.receive(tx_id, &f1).deliver.len(), 1);

        // rx restarts; tx still numbers for the old incarnation.
        let mut rx = LinkLayer::new(3);
        let stale = tx.send(rx_id, wire(), 10);
        assert_eq!((stale.seq, stale.ack_epoch), (2, 1));
        let o = rx.receive(tx_id, &stale);
        assert!(o.deliver.is_empty() && !o.ack_due);

        // tx hears the new epoch and renumbers from 1: each renumbered
        // frame is delivered once, itself, in order.
        let hello = rx.send(tx_id, wire(), 10);
        tx.receive(rx_id, &hello);
        for seq in 1..=3 {
            let f = tx.send(rx_id, wire(), 10);
            assert_eq!((f.seq, f.ack_epoch), (seq, 3));
            let got = rx.receive(tx_id, &f).deliver;
            assert_eq!(got.len(), 1);
            assert!(f.inner.is_some_and(|w| Rc::ptr_eq(&got[0], &w)));
        }
    }

    #[test]
    fn newer_epoch_resets_inbound_channel() {
        let mut rx = LinkLayer::new(1);
        let mut tx_old = LinkLayer::new(3);
        let f_old = tx_old.send(n(1), wire(), 10);
        assert_eq!(rx.receive(n(0), &f_old).deliver.len(), 1);

        // Peer crashes and restarts with a higher epoch; seq restarts.
        let mut tx_new = LinkLayer::new(5);
        let f_new = tx_new.send(n(1), wire(), 10);
        assert_eq!(rx.receive(n(0), &f_new).deliver.len(), 1);

        // Stale frames from the old incarnation are ignored.
        let f_stale = tx_old.send(n(1), wire(), 10);
        assert!(rx.receive(n(0), &f_stale).deliver.is_empty());
    }

    #[test]
    fn stale_epoch_acks_do_not_clear_unacked() {
        let mut tx = LinkLayer::new(7);
        let _f = tx.send(n(1), wire(), 10);
        let stale_ack = LinkFrame {
            epoch: 1,
            seq: 0,
            ack_epoch: 3, // acks an older incarnation of us
            ack: 99,
            inner: None,
        };
        tx.receive(n(1), &stale_ack);
        assert!(tx.has_in_flight());
    }

    #[test]
    fn retransmissions_pause_for_filtered_peers() {
        let mut tx = LinkLayer::new(1);
        tx.send(n(1), wire(), 10);
        tx.send(n(2), wire(), 10);
        // n1 is unreachable: its queue is retained but not retransmitted.
        let retx = tx.retransmissions(&|p| p == n(2));
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0].0, n(2));
        // Reachability restored: the queue resumes where it left off.
        let retx = tx.retransmissions(&|_| true);
        assert_eq!(retx.len(), 2);
    }

    #[test]
    fn ack_pending_peers_reported_and_cleared() {
        let mut tx = LinkLayer::new(1);
        let mut rx = LinkLayer::new(1);
        let f = tx.send(n(1), wire(), 10);
        rx.receive(n(0), &f);
        assert_eq!(rx.ack_pending_peers(), vec![n(0)]);
        let _ = rx.ack_frame(n(0));
        assert!(rx.ack_pending_peers().is_empty());
    }
}
