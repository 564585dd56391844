//! Liveness probes: datagrams whose only effect is "the sender was heard
//! at this instant".
//!
//! A failure detector's heartbeat carries nothing but its sender, so
//! routing it through the event queue — an arrival event at the fabric,
//! then a hand-off event at the endpoint — spends two queue events on
//! refreshing one timestamp. A probe takes the same path through the
//! fabric up to the arrival instant (counted, loss applied, latency
//! sampled from the same draw, FIFO-clamped on the same link clock as a
//! [`NetOp::Send`](crate::NetOp::Send)), and is then written into the
//! destination's [`ProbeInbox`] instead of being scheduled.
//!
//! The receiver folds its inbox before it reads what it has heard. The
//! result is exactly what the datagram path would have delivered:
//!
//! * a probe's fate is decided by the topology in force at its arrival —
//!   the fabric decides it at send time and re-decides it for every probe
//!   still in flight at each partition, merge, crash and recovery;
//! * a fold takes only the probes that arrived strictly before the
//!   folding instant, so a timer that was queued before a probe's
//!   arrival does not see it, as it would not have seen the hand-off;
//! * the `net.*` counters of a probe (delivered or dropped, bytes,
//!   transit latency) are written when it is folded, and a world folds
//!   every inbox when it pauses (see [`todr_sim::Actor::on_pause`]), so a
//!   counter read between runs agrees with the datagram path.

use std::cell::RefCell;
use std::rc::Rc;

use todr_sim::{metric, MetricsHub, SimDuration, SimTime};

use crate::node::NodeId;

/// What a probe does when it lands: the checks of the datagram path's
/// arrival, in its order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Reaches the receiver.
    Deliver,
    /// An end is crashed (or the receiver has no endpoint).
    DropCrashed,
    /// The ends are in different components.
    DropPartition,
}

/// One recorded probe.
#[derive(Debug, Clone, Copy)]
struct Probe {
    src: NodeId,
    sent_at: SimTime,
    arrival: SimTime,
    size_bytes: u32,
    fate: Fate,
}

/// Fewest pending probes at which the fabric compacts an inbox.
const COMPACT_FLOOR: usize = 64;

#[derive(Debug, Default)]
struct Inbox {
    /// Probes recorded and not yet folded, in the order they were sent.
    pending: Vec<Probe>,
    /// Per source [`NodeId::index`]: the latest delivered arrival among
    /// the probes a compaction already counted and the receiver has not
    /// yet folded.
    heard: Vec<Option<SimTime>>,
    /// Pending length at which the next probe triggers a compaction.
    compact_at: usize,
}

/// A node's probe inbox: an `Rc`-shared handle, like
/// [`todr_sim::ApplyHorizon`]. The fabric records arrivals into it; the
/// endpoint that owns it folds them. Clones share one inbox.
///
/// ```
/// use todr_net::ProbeInbox;
/// use todr_sim::{MetricsHub, SimTime};
///
/// let inbox = ProbeInbox::default();
/// let mut hub = MetricsHub::new();
/// let mut heard = Vec::new();
/// inbox.fold(SimTime::from_millis(1), &mut hub, |src, at| heard.push((src, at)));
/// assert!(heard.is_empty() && inbox.pending() == 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProbeInbox(Rc<RefCell<Inbox>>);

impl ProbeInbox {
    /// Folds every probe that arrived strictly before `before`: counts
    /// each as delivered (`net.delivered`, `net.bytes_delivered`,
    /// `net.transit_latency`) or dropped (`net.dropped_crashed`,
    /// `net.dropped_partition`) in `metrics`, and calls `heard(src,
    /// arrival)` for each delivered one. Probes a compaction summarised
    /// are already counted and come out as one call per source, with
    /// the latest arrival. Probes still in flight stay.
    pub fn fold(
        &self,
        before: SimTime,
        metrics: &mut MetricsHub,
        mut heard: impl FnMut(NodeId, SimTime),
    ) {
        let mut inbox = self.0.borrow_mut();
        for (i, slot) in inbox.heard.iter_mut().enumerate() {
            if let Some(at) = slot.take() {
                heard(NodeId::new(i as u32), at);
            }
        }
        inbox.pending.retain(|p| {
            if p.arrival >= before {
                return true;
            }
            if p.count(metrics) {
                heard(p.src, p.arrival);
            }
            false
        });
    }

    /// Probes recorded and not yet folded or compacted (in flight, or
    /// arrived and unread).
    pub fn pending(&self) -> usize {
        self.0.borrow().pending.len()
    }

    /// Whether `self` and `other` are one inbox.
    pub(crate) fn same(&self, other: &ProbeInbox) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }

    /// Records a probe; once an unread inbox has grown past its
    /// threshold, counts every probe that arrived before `now` into
    /// `metrics` and keeps one summary slot per source.
    pub(crate) fn record(
        &self,
        now: SimTime,
        metrics: &mut MetricsHub,
        src: NodeId,
        arrival: SimTime,
        size_bytes: u32,
    ) {
        let mut inbox = self.0.borrow_mut();
        inbox.pending.push(Probe {
            src,
            sent_at: now,
            arrival,
            size_bytes,
            fate: Fate::Deliver,
        });
        if inbox.pending.len() >= inbox.compact_at.max(COMPACT_FLOOR) {
            inbox.compact(now, metrics);
        }
    }

    /// Re-decides the fate of every probe arriving after `at`.
    pub(crate) fn redecide(&self, at: SimTime, mut fate: impl FnMut(NodeId) -> Fate) {
        for p in self.0.borrow_mut().pending.iter_mut() {
            if p.arrival > at {
                p.fate = fate(p.src);
            }
        }
    }

    /// Takes over from `old`, the inbox that held this node's probes
    /// before its endpoint attached this one: what arrived before `now`
    /// reached nobody listening and is only counted; what is still in
    /// flight moves here.
    pub(crate) fn take_over(&self, old: &ProbeInbox, now: SimTime, metrics: &mut MetricsHub) {
        old.fold(now, metrics, |_, _| {});
        let moved = std::mem::take(&mut old.0.borrow_mut().pending);
        self.0.borrow_mut().pending.extend(moved);
    }
}

impl Inbox {
    /// Counts the probes that arrived before `now` and keeps, per
    /// source, only the latest delivered arrival. Arrived probes' fates
    /// are final, and the receiver's state cannot change between two of
    /// its folds, so the summary folds to the same `last heard` as the
    /// probes it replaces.
    fn compact(&mut self, now: SimTime, metrics: &mut MetricsHub) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.retain(|p| {
            if p.arrival >= now {
                return true;
            }
            if p.count(metrics) {
                self.merge_heard(p.src.index() as usize, p.arrival);
            }
            false
        });
        self.pending = pending;
        self.compact_at = 2 * self.pending.len();
    }

    fn merge_heard(&mut self, src: usize, at: SimTime) {
        if src >= self.heard.len() {
            self.heard.resize(src + 1, None);
        }
        let slot = &mut self.heard[src];
        *slot = Some(slot.map_or(at, |t| t.max(at)));
    }
}

impl Probe {
    /// Counts this landed probe; whether it was delivered.
    fn count(&self, metrics: &mut MetricsHub) -> bool {
        let transit = self.arrival.saturating_since(self.sent_at);
        count_landing(metrics, self.fate, self.size_bytes, transit)
    }
}

/// Counts one message landing — a datagram's arrival event or a folded
/// probe — as delivered (`net.delivered`, `net.bytes_delivered`,
/// `net.transit_latency`) or dropped (`net.dropped_crashed`,
/// `net.dropped_partition`); whether it was delivered.
pub(crate) fn count_landing(
    metrics: &mut MetricsHub,
    fate: Fate,
    size_bytes: u32,
    transit: SimDuration,
) -> bool {
    match fate {
        Fate::Deliver => {
            metrics.incr(metric!("net.delivered"), 1);
            metrics.incr(metric!("net.bytes_delivered"), u64::from(size_bytes));
            metrics.observe(metric!("net.transit_latency"), transit);
            true
        }
        Fate::DropCrashed => {
            metrics.incr(metric!("net.dropped_crashed"), 1);
            false
        }
        Fate::DropPartition => {
            metrics.incr(metric!("net.dropped_partition"), 1);
            false
        }
    }
}
