//! Packing and sequencer rounds: what a daemon holds back to fill a
//! frame (submissions of one instant; sequenced messages of one round),
//! and when it lets go ([`round_rule`]). The daemon owns the timers, the
//! metrics and the wire.

use std::rc::Rc;

use todr_sim::{SimDuration, SimTime};

use crate::wire::{SequencedMsg, SubmitItem};

/// How long a round holds sequenced messages (unless the apply backlog
/// says longer), and the arrival gap below which holding can pay. Only
/// consulted when `max_pack > 1`.
pub(crate) const PACK_WINDOW: SimDuration = SimDuration::from_micros(500);

/// What [`round_rule`] decides for a `Submit` that finds no round open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Round {
    /// Multicast what this `Submit` carried at once.
    CloseNow,
    /// Open a round that closes this long from now.
    Hold(SimDuration),
}

/// The sequencer round rule, from the `gap` since the previous
/// `Submit`, the node's apply `backlog` and `max_pack`. A one-message
/// frame cannot fill, and a `Submit` after a gap of a window or more
/// belongs to a stream too sparse for a second one to arrive in time:
/// both close at once. Otherwise the round runs one window, or, past
/// two windows of apply backlog, until it is one window from draining.
pub(crate) fn round_rule(gap: SimDuration, backlog: SimDuration, max_pack: usize) -> Round {
    if max_pack <= 1 || gap >= PACK_WINDOW {
        Round::CloseNow
    } else {
        Round::Hold(PACK_WINDOW.max(backlog.saturating_sub(PACK_WINDOW)))
    }
}

/// What the daemon does after [`Sequencer::push_submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pack {
    /// A frame is full: send the buffer (unpacked, every submission).
    SendNow,
    /// The buffer just opened: arm a zero-delay `PackTick`; it drains
    /// after every event of this instant, so they all pack together.
    ArmTick,
    /// A `PackTick` is already pending.
    Wait,
}

/// What the daemon does after [`Sequencer::hold`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Held {
    /// A round opened; arm its `SeqPackTick` this far out.
    pub opened: Option<SimDuration>,
    /// Send the held messages now (the round is closed, or a frame is
    /// full and leaves early while the round runs on).
    pub flush: bool,
}

/// One node's pack buffer and sequencer round.
#[derive(Debug)]
pub(crate) struct Sequencer {
    max_pack: usize,
    /// Registered-but-unsent submissions (also in the ordering's
    /// unsequenced map, which install re-submits, so a view change may
    /// drop them). A `PackTick` is pending while it is non-empty.
    pack_buf: Vec<SubmitItem>,
    /// Coordinator: messages sequenced but held in the open round, each
    /// with its sequencing instant (also in the ordering's map, which the
    /// flush protocol retransmits from, so a view change may drop them).
    seq_buf: Vec<(SimTime, SequencedMsg)>,
    /// When the open round closes (its `SeqPackTick` is due then);
    /// `None` while no round is open. Fixed when the round opens.
    seq_round_ends: Option<SimTime>,
    /// When the previous `Submit` was sequenced: the gap to the next one
    /// is the load signal. Never reset: an old stamp only reads as idle.
    last_submit_at: SimTime,
}

impl Sequencer {
    pub(crate) fn new(max_pack: usize) -> Self {
        Sequencer {
            max_pack: max_pack.max(1),
            pack_buf: Vec::new(),
            seq_buf: Vec::new(),
            seq_round_ends: None,
            last_submit_at: SimTime::ZERO,
        }
    }

    /// Buffers a submission and says what the caller does next.
    pub(crate) fn push_submit(&mut self, item: SubmitItem) -> Pack {
        let first = self.pack_buf.is_empty();
        self.pack_buf.push(item);
        if self.pack_buf.len() >= self.max_pack {
            Pack::SendNow
        } else if first {
            Pack::ArmTick
        } else {
            Pack::Wait
        }
    }

    /// The next `Submit` frame's items, if any are buffered.
    pub(crate) fn next_submit_frame(&mut self) -> Option<Rc<[SubmitItem]>> {
        next_frame(&mut self.pack_buf, self.max_pack, |item| item)
    }

    /// Coordinator: holds the messages just sequenced from one `Submit`
    /// sequenced at `now`, opening a round if the rule says so.
    pub(crate) fn hold(
        &mut self,
        now: SimTime,
        backlog: SimDuration,
        msgs: Vec<SequencedMsg>,
    ) -> Held {
        let gap = now.saturating_since(self.last_submit_at);
        self.last_submit_at = now;
        self.seq_buf.extend(msgs.into_iter().map(|m| (now, m)));
        let mut opened = None;
        if self.seq_round_ends.is_none() {
            if let Round::Hold(d) = round_rule(gap, backlog, self.max_pack) {
                self.seq_round_ends = Some(now + d);
                opened = Some(d);
            }
        }
        let flush = self.seq_round_ends.is_none() || self.seq_buf.len() >= self.max_pack;
        Held { opened, flush }
    }

    /// Whether a `SeqPackTick` firing at `now` closes the open round; a
    /// tick armed for a round since dropped is not due.
    pub(crate) fn round_due(&mut self, now: SimTime) -> bool {
        let due = self.seq_round_ends == Some(now);
        if due {
            self.seq_round_ends = None;
        }
        due
    }

    /// The next `Sequenced` frame's messages, if any are held; `held`
    /// sees each message's sequencing instant as it leaves.
    pub(crate) fn next_sequenced_frame(
        &mut self,
        mut held: impl FnMut(SimTime),
    ) -> Option<Rc<[SequencedMsg]>> {
        next_frame(&mut self.seq_buf, self.max_pack, |(since, msg)| {
            held(since);
            msg
        })
    }

    /// Drops held sequenced messages (a view change made the round
    /// moot); the round's deadline stands.
    pub(crate) fn drop_held(&mut self) {
        self.seq_buf.clear();
    }

    /// Drops both buffers and closes the round, so a timer armed for it
    /// cannot cut short a round of the next configuration or
    /// incarnation.
    pub(crate) fn drop_rounds(&mut self) {
        self.pack_buf.clear();
        self.seq_buf.clear();
        self.seq_round_ends = None;
    }
}

/// The one chunking loop of both buffers: the first `max` items of
/// `buf`, mapped, as one frame.
fn next_frame<T, U>(buf: &mut Vec<T>, max: usize, f: impl FnMut(T) -> U) -> Option<Rc<[U]>> {
    if buf.is_empty() {
        return None;
    }
    let take = buf.len().min(max);
    Some(buf.drain(..take).map(f).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use todr_net::NodeId;

    const W: SimDuration = PACK_WINDOW;
    const ZERO: SimDuration = SimDuration::ZERO;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn msg(seq: u64) -> SequencedMsg {
        SequencedMsg {
            seq,
            sender: NodeId::new(1),
            local_seq: seq,
            payload: Rc::new(()),
            size: 200,
        }
    }

    fn item(local_seq: u64) -> SubmitItem {
        SubmitItem {
            local_seq,
            payload: Rc::new(()),
            size: 200,
        }
    }

    #[test]
    fn a_gap_of_exactly_one_window_counts_as_idle() {
        assert_eq!(round_rule(W, ZERO, 8), Round::CloseNow);
        assert_eq!(round_rule(W - us(1), ZERO, 8), Round::Hold(W));
    }

    #[test]
    fn a_backlog_past_two_windows_runs_to_one_window_before_the_drain() {
        let gap = us(100);
        assert_eq!(round_rule(gap, W * 2, 8), Round::Hold(W));
        assert_eq!(round_rule(gap, W * 2 + us(1), 8), Round::Hold(W + us(1)));
        assert_eq!(round_rule(gap, us(5_000), 8), Round::Hold(us(4_500)));
    }

    #[test]
    fn at_max_pack_one_the_round_closes_at_once() {
        assert_eq!(round_rule(ZERO, us(5_000), 1), Round::CloseNow);
        let mut s = Sequencer::new(1);
        let t = SimTime::ZERO + us(10);
        let held = s.hold(t, ZERO, vec![msg(1)]);
        assert_eq!(
            held,
            Held {
                opened: None,
                flush: true
            }
        );
        assert_eq!(s.next_sequenced_frame(|_| {}).map(|f| f.len()), Some(1));
        assert!(s.next_sequenced_frame(|_| {}).is_none());
    }

    #[test]
    fn a_full_frame_leaves_the_round_running() {
        let mut s = Sequencer::new(2);
        let t0 = SimTime::ZERO + us(1_000);
        // After a silence the first Submit goes out at once...
        let first = s.hold(t0, ZERO, vec![msg(1)]);
        assert_eq!(first.opened, None);
        assert!(first.flush);
        assert!(s.next_sequenced_frame(|_| {}).is_some());
        // ...the next one, close behind, opens a round...
        let t1 = t0 + us(100);
        let second = s.hold(t1, ZERO, vec![msg(2)]);
        assert_eq!(second.opened, Some(W));
        assert!(!second.flush);
        // ...and the one that fills the frame sends it early.
        let t2 = t1 + us(100);
        let third = s.hold(t2, ZERO, vec![msg(3)]);
        assert_eq!(third.opened, None);
        assert!(third.flush);
        let mut holds = Vec::new();
        let Some(frame) = s.next_sequenced_frame(|since| holds.push(since)) else {
            panic!("the full frame is due");
        };
        assert_eq!(frame.iter().map(|m| m.seq).collect::<Vec<_>>(), [2, 3]);
        assert_eq!(holds, [t1, t2]);
        // The round still closes at its own deadline, not before.
        assert!(!s.round_due(t2));
        assert!(s.round_due(t1 + W));
        assert!(!s.round_due(t1 + W), "a round closes once");
    }

    #[test]
    fn dropped_rounds_ignore_their_tick() {
        let mut s = Sequencer::new(8);
        let t0 = SimTime::ZERO + us(100);
        assert_eq!(s.hold(t0, ZERO, vec![msg(1)]).opened, Some(W));
        s.drop_rounds();
        assert!(!s.round_due(t0 + W));
        assert!(s.next_sequenced_frame(|_| {}).is_none());
    }

    #[test]
    fn submissions_leave_in_frames_of_at_most_max_pack() {
        let mut s = Sequencer::new(2);
        assert_eq!(s.push_submit(item(1)), Pack::ArmTick);
        assert_eq!(s.push_submit(item(2)), Pack::SendNow);
        assert_eq!(s.push_submit(item(3)), Pack::SendNow);
        let mut one = Sequencer::new(3);
        assert_eq!(one.push_submit(item(1)), Pack::ArmTick);
        assert_eq!(one.push_submit(item(2)), Pack::Wait);
        let sizes: Vec<usize> = std::iter::from_fn(|| s.next_submit_frame())
            .map(|f| f.len())
            .collect();
        assert_eq!(sizes, [2, 1]);
    }
}
