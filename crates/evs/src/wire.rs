//! Wire frames exchanged between EVS daemons.

use std::collections::BTreeSet;
use std::rc::Rc;

use todr_net::NodeId;

use crate::types::{ConfId, Configuration};

/// A message that has been assigned a global sequence number by the
/// configuration coordinator.
#[derive(Clone)]
pub(crate) struct SequencedMsg {
    /// Global sequence number within the configuration.
    pub seq: u64,
    /// Submitting node.
    pub sender: NodeId,
    /// The sender's per-configuration submission counter (dedup key for
    /// the sender's own resubmission logic).
    pub local_seq: u64,
    /// Application payload.
    pub payload: Rc<dyn std::any::Any>,
    /// Application payload size in bytes (for the network model).
    pub size: u32,
}

impl std::fmt::Debug for SequencedMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SequencedMsg")
            .field("seq", &self.seq)
            .field("sender", &self.sender)
            .field("local_seq", &self.local_seq)
            .field("size", &self.size)
            .finish_non_exhaustive()
    }
}

/// One pending submission inside a (possibly packed) [`EvsWire::Submit`]
/// frame. Packing is a transport optimization only: each item keeps its
/// own `local_seq` and is sequenced individually by the coordinator, so
/// agreed/safe delivery semantics are per-message, exactly as if the
/// items had travelled in separate frames.
#[derive(Clone)]
pub(crate) struct SubmitItem {
    /// The sender's per-configuration submission counter.
    pub local_seq: u64,
    /// Application payload.
    pub payload: Rc<dyn std::any::Any>,
    /// Application payload size in bytes (for the network model).
    pub size: u32,
}

impl std::fmt::Debug for SubmitItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitItem")
            .field("local_seq", &self.local_seq)
            .field("size", &self.size)
            .finish_non_exhaustive()
    }
}

/// Per-old-configuration group carried in an [`EvsWire::Install`]: the
/// members moving together from `old_conf` and the final sequence number
/// they must all deliver before installing the new configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TransGroup {
    pub old_conf: ConfId,
    pub members: Vec<NodeId>,
    pub final_upto: u64,
}

/// Everything one daemon says to another.
///
/// Sizes: data-bearing frames carry the application payload size plus
/// [`HEADER_BYTES`]; control frames are costed at [`HEADER_BYTES`].
#[derive(Debug, Clone)]
///
/// Heartbeats are not frames: they go as fabric probes
/// ([`todr_net::NetOp::Probe`]), costed at [`HEADER_BYTES`].
pub(crate) enum EvsWire {
    // ----- total order within a regular configuration -----
    /// Sender → coordinator: please sequence these messages (one or
    /// more, packed into a single frame per sequencer round — the Spread
    /// message-packing optimization). Items are sequenced individually
    /// and in order.
    Submit {
        conf: ConfId,
        sender: NodeId,
        /// Cumulative receipt acknowledgment piggybacked on the
        /// submission: the sender has received every sequenced message
        /// up to here. Free under cumulative-ack stability (the frame
        /// was going to the coordinator anyway); `0` when the sender has
        /// nothing new to report or all-ack stability is active.
        ack_upto: u64,
        items: Rc<[SubmitItem]>,
    },
    /// Coordinator → members: messages in the agreed order (one or more
    /// consecutive sequence numbers packed into one frame).
    /// `stable_upto` piggybacks the current stability line.
    Sequenced {
        conf: ConfId,
        stable_upto: u64,
        /// Under cumulative-ack stability, the member designated to ack
        /// this frame promptly (the rotating low-water-mark probe);
        /// everyone else relies on piggybacked or deadline-driven acks.
        /// `None` under all-ack stability: every member acks.
        acker: Option<NodeId>,
        msgs: Rc<[SequencedMsg]>,
    },
    /// Member → coordinator: I have received everything up to `upto`.
    Ack {
        conf: ConfId,
        from: NodeId,
        upto: u64,
    },
    /// Coordinator → members: every member has received everything up to
    /// `upto` (the safe-delivery line).
    Stable { conf: ConfId, upto: u64 },

    // ----- membership -----
    /// Gather phase: `from` proposes the membership `proposal`.
    Join {
        from: NodeId,
        attempt: u64,
        proposal: BTreeSet<NodeId>,
    },
    /// Flush phase: member → new coordinator, describing what the member
    /// holds from its previous configuration.
    FlushInfo {
        from: NodeId,
        /// The converged membership this flush belongs to. Shared: one
        /// allocation per flush round at the sender, reference-bumped
        /// into the receiver's bookkeeping rather than cloned per frame.
        membership: Rc<[NodeId]>,
        /// The member's current (old) regular configuration.
        old_conf: ConfId,
        /// Highest contiguous sequence number received in `old_conf`.
        have_upto: u64,
        /// The member's local safe-delivery line in `old_conf`.
        stable_upto: u64,
        /// Highest configuration sequence number the member has seen
        /// (input to the new configuration's id).
        max_conf_seq: u32,
    },
    /// Coordinator → a member holding messages others lack: retransmit
    /// `from_seq..=to_seq` of `old_conf` to `needy`.
    RetransReq {
        old_conf: ConfId,
        from_seq: u64,
        to_seq: u64,
        needy: Vec<NodeId>,
    },
    /// Holder → needy member: the requested old-configuration messages.
    /// The message list is shared across all needy destinations of one
    /// retransmission round.
    Retrans {
        old_conf: ConfId,
        msgs: Rc<[SequencedMsg]>,
    },
    /// Coordinator → members: install `new_conf`. Members first deliver
    /// their transitional configuration and remaining messages (per
    /// their [`TransGroup`]), then the new regular configuration.
    Install {
        new_conf: Configuration,
        groups: Vec<TransGroup>,
    },
}

/// Modelled overhead of one EVS frame on the wire: a fixed header
/// (frame kind, configuration, sender or acker, ack or stability line,
/// item count).
pub(crate) const HEADER_BYTES: u32 = 48;

/// Modelled per-item sub-header cost inside a packed data frame (the
/// first item rides free under [`HEADER_BYTES`]).
pub(crate) const SUBHEADER_BYTES: u32 = 16;

impl EvsWire {
    /// The node that produced this frame (for failure-detector
    /// bookkeeping).
    pub(crate) fn origin(&self) -> Option<NodeId> {
        match self {
            EvsWire::Submit { sender, .. } => Some(*sender),
            EvsWire::Ack { from, .. } => Some(*from),
            EvsWire::Join { from, .. } => Some(*from),
            EvsWire::FlushInfo { from, .. } => Some(*from),
            // Sequenced/Stable/RetransReq/Install come from the
            // coordinator; Retrans from the holder. The datagram source
            // covers those cases.
            _ => None,
        }
    }

    /// The frame's kind, as a row label of the daemon's step profile.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            EvsWire::Submit { .. } => "submit",
            EvsWire::Sequenced { .. } => "sequenced",
            EvsWire::Ack { .. } => "ack",
            EvsWire::Stable { .. } => "stable",
            EvsWire::Join { .. } => "join",
            EvsWire::FlushInfo { .. } => "flush-info",
            EvsWire::RetransReq { .. } => "retrans-req",
            EvsWire::Retrans { .. } => "retrans",
            EvsWire::Install { .. } => "install",
        }
    }

    /// Modelled wire size of the frame.
    ///
    /// Packed data frames pay one [`HEADER_BYTES`] for the whole frame
    /// plus a 16-byte per-item sub-header for every item after the
    /// first, so a single-item frame costs exactly what the unpacked
    /// protocol charged.
    pub(crate) fn wire_size(&self) -> u32 {
        fn packed(total_payload: u32, items: usize) -> u32 {
            HEADER_BYTES + total_payload + SUBHEADER_BYTES * (items.saturating_sub(1) as u32)
        }
        match self {
            EvsWire::Submit { items, .. } => {
                packed(items.iter().map(|i| i.size).sum(), items.len())
            }
            EvsWire::Sequenced { msgs, .. } => {
                packed(msgs.iter().map(|m| m.size).sum(), msgs.len())
            }
            EvsWire::Retrans { msgs, .. } => {
                HEADER_BYTES + msgs.iter().map(|m| m.size + SUBHEADER_BYTES).sum::<u32>()
            }
            _ => HEADER_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn item(local_seq: u64, size: u32) -> SubmitItem {
        SubmitItem {
            local_seq,
            payload: Rc::new(()),
            size,
        }
    }

    #[test]
    fn wire_size_includes_payload() {
        let submit = EvsWire::Submit {
            conf: ConfId::initial(n(0)),
            sender: n(0),
            ack_upto: 0,
            items: vec![item(1, 200)].into(),
        };
        assert_eq!(submit.wire_size(), 248);
        let stable = EvsWire::Stable {
            conf: ConfId::initial(n(0)),
            upto: 4,
        };
        assert_eq!(stable.wire_size(), HEADER_BYTES);
    }

    #[test]
    fn packed_frames_amortize_the_header() {
        // Three 200-byte submissions in one frame: one 48-byte header
        // plus two 16-byte sub-headers, versus three full headers when
        // sent separately.
        let packed = EvsWire::Submit {
            conf: ConfId::initial(n(0)),
            sender: n(0),
            ack_upto: 0,
            items: vec![item(1, 200), item(2, 200), item(3, 200)].into(),
        };
        assert_eq!(packed.wire_size(), 48 + 600 + 32);
        let separate: u32 = (1..=3)
            .map(|i| {
                EvsWire::Submit {
                    conf: ConfId::initial(n(0)),
                    sender: n(0),
                    ack_upto: 0,
                    items: vec![item(i, 200)].into(),
                }
                .wire_size()
            })
            .sum();
        assert!(packed.wire_size() < separate);
    }

    #[test]
    fn empty_and_single_item_frames_charge_exactly_one_header() {
        // The `items.saturating_sub(1)` accounting at the edges: an
        // empty packed frame costs the bare header (no underflow to a
        // huge u32), and a single-item frame costs header + payload
        // with no sub-header charge — identical to the unpacked
        // protocol's cost for the same submission.
        let empty_submit = EvsWire::Submit {
            conf: ConfId::initial(n(0)),
            sender: n(0),
            ack_upto: 0,
            items: vec![].into(),
        };
        assert_eq!(empty_submit.wire_size(), HEADER_BYTES);
        let empty_seq = EvsWire::Sequenced {
            conf: ConfId::initial(n(0)),
            stable_upto: 0,
            acker: None,
            msgs: vec![].into(),
        };
        assert_eq!(empty_seq.wire_size(), HEADER_BYTES);
        let single = EvsWire::Submit {
            conf: ConfId::initial(n(0)),
            sender: n(0),
            ack_upto: 0,
            items: vec![item(1, 77)].into(),
        };
        assert_eq!(single.wire_size(), HEADER_BYTES + 77);
        // Growing a frame by one item always charges exactly one
        // sub-header plus the payload, regardless of current length.
        let double = EvsWire::Submit {
            conf: ConfId::initial(n(0)),
            sender: n(0),
            ack_upto: 0,
            items: vec![item(1, 77), item(2, 33)].into(),
        };
        assert_eq!(
            double.wire_size(),
            single.wire_size() + SUBHEADER_BYTES + 33
        );
    }

    #[test]
    fn origin_identifies_sender_frames() {
        let ack = EvsWire::Ack {
            conf: ConfId::initial(n(0)),
            from: n(3),
            upto: 4,
        };
        assert_eq!(ack.origin(), Some(n(3)));
        let stable = EvsWire::Stable {
            conf: ConfId::initial(n(0)),
            upto: 4,
        };
        assert_eq!(stable.origin(), None);
    }
}
