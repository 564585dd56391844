//! Event payloads and the internal queue entry type.

use std::any::Any;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use crate::actor::ActorId;
use crate::time::SimTime;

/// A type-erased event payload delivered to an [`Actor`](crate::Actor).
///
/// Layers exchange strongly typed messages; the kernel erases them to move
/// them through the shared queue. Receivers recover the concrete type with
/// [`Payload::downcast`] (consuming) or [`Payload::downcast_ref`]
/// (inspecting):
///
/// ```
/// use todr_sim::Payload;
///
/// struct Ping(u32);
///
/// let p = Payload::new(Ping(7));
/// assert!(p.is::<Ping>());
/// let ping = p.downcast::<Ping>().unwrap();
/// assert_eq!(ping.0, 7);
/// ```
pub struct Payload {
    inner: Box<dyn Any>,
}

impl Payload {
    /// Wraps a concrete message.
    ///
    /// Wrapping an existing `Payload` is the identity: payloads never
    /// nest, and the box it already has is the one it keeps.
    pub fn new<T: 'static>(value: T) -> Self {
        // Looked at through an `Option` so that a `Payload` can be moved
        // out by safe code; any other `T` is left where it is.
        let mut value = Some(value);
        let nested = (&mut value as &mut dyn Any).downcast_mut::<Option<Payload>>();
        if let Some(payload) = nested.and_then(Option::take) {
            return payload;
        }
        let inner: Box<dyn Any> = match value {
            Some(value) => Box::new(value),
            None => Box::new(()), // unreachable: only a `Payload` is taken
        };
        Payload { inner }
    }

    /// Whether the payload holds a `T`.
    pub fn is<T: 'static>(&self) -> bool {
        self.inner.is::<T>()
    }

    /// Recovers the concrete message, consuming the payload.
    ///
    /// Returns `None` (dropping the payload) if the payload is not a `T`;
    /// use [`Payload::try_downcast`] to keep it on mismatch.
    pub fn downcast<T: 'static>(self) -> Option<T> {
        self.inner.downcast::<T>().ok().map(|b| *b)
    }

    /// Recovers the concrete message, or returns `self` unchanged when the
    /// payload is of a different type — useful for dispatch chains.
    pub fn try_downcast<T: 'static>(self) -> Result<T, Payload> {
        match self.inner.downcast::<T>() {
            Ok(b) => Ok(*b),
            Err(inner) => Err(Payload { inner }),
        }
    }

    /// Borrows the concrete message without consuming.
    pub fn downcast_ref<T: 'static>(&self) -> Option<&T> {
        self.inner.downcast_ref::<T>()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Payload").finish_non_exhaustive()
    }
}

/// Conversion into a [`Payload`]; implemented for every `'static` type.
///
/// This is the bound used by the scheduling methods on
/// [`Ctx`](crate::Ctx) and [`World`](crate::World), letting call sites
/// pass concrete messages and pre-erased payloads interchangeably.
pub trait IntoPayload {
    /// Erases `self` into a [`Payload`].
    fn into_payload(self) -> Payload;
}

impl<T: 'static> IntoPayload for T {
    fn into_payload(self) -> Payload {
        Payload::new(self)
    }
}

/// A scheduled event in the world's queue.
///
/// Ordering is `(at, tie, seq)`: the `tie` key is assigned by the
/// world's [`TieBreak`](crate::TieBreak) policy when the event is
/// pushed (always `0` under FIFO, a deterministic hash of the target
/// and instant under seeded perturbation), and strictly increasing
/// `seq` values break the remaining ties, which keeps the execution
/// order total and deterministic.
pub(crate) struct QueuedEvent {
    pub at: SimTime,
    pub tie: u64,
    pub seq: u64,
    pub target: ActorId,
    pub payload: Payload,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.tie == other.tie && self.seq == other.seq
    }
}

impl Eq for QueuedEvent {}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need earliest-first.
        (other.at, other.tie, other.seq).cmp(&(self.at, self.tie, self.seq))
    }
}

/// The world's pending events, popped in `(at, tie, seq)` order.
///
/// Most events are due at the instant they are pushed (a handler's
/// `send_now`). Those that the caller marks `due_now` skip the heap: they
/// queue on a FIFO lane and are popped from it whenever its front is
/// earlier than the heap's top. The caller marks an event only when its
/// `at` is the current instant and its tie key is the constant FIFO one.
/// Since `seq` rises with every push, and the clock cannot pass an
/// instant while an event due at it is pending, the lane is then sorted
/// by `(at, tie, seq)` by construction, and the pop order is exactly the
/// heap's.
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<QueuedEvent>,
    now_lane: VecDeque<QueuedEvent>,
}

impl EventQueue {
    pub fn push(&mut self, event: QueuedEvent, due_now: bool) {
        if due_now {
            debug_assert!(self.now_lane.back().is_none_or(|last| *last > event));
            self.now_lane.push_back(event);
        } else {
            self.heap.push(event);
        }
    }

    /// Whether the next event is the lane's front (`Ord` is reversed:
    /// the greater event is the earlier).
    fn lane_first(&self) -> bool {
        match (self.now_lane.front(), self.heap.peek()) {
            (Some(lane), Some(heap)) => lane > heap,
            (lane, _) => lane.is_some(),
        }
    }

    pub fn peek(&self) -> Option<&QueuedEvent> {
        if self.lane_first() {
            self.now_lane.front()
        } else {
            self.heap.peek()
        }
    }

    pub fn pop(&mut self) -> Option<QueuedEvent> {
        if self.lane_first() {
            self.now_lane.pop_front()
        } else {
            self.heap.pop()
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len() + self.now_lane.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.now_lane.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_downcast_roundtrip() {
        let p = Payload::new(41u32);
        assert!(p.is::<u32>());
        assert!(!p.is::<u64>());
        assert_eq!(p.downcast::<u32>(), Some(41));
    }

    #[test]
    fn payload_downcast_wrong_type_is_none() {
        let p = Payload::new("hello");
        assert_eq!(p.downcast::<u32>(), None);
    }

    #[test]
    fn payload_try_downcast_preserves_on_miss() {
        let p = Payload::new(3.5f64);
        let p = match p.try_downcast::<u32>() {
            Ok(_) => panic!("should not downcast"),
            Err(p) => p,
        };
        assert_eq!(p.downcast::<f64>(), Some(3.5));
    }

    #[test]
    fn payload_downcast_ref() {
        let p = Payload::new(vec![1, 2, 3]);
        assert_eq!(p.downcast_ref::<Vec<i32>>().unwrap().len(), 3);
        assert!(p.downcast_ref::<String>().is_none());
    }

    #[test]
    fn wrapping_a_payload_keeps_its_box() {
        let addr = |p: &Payload| p.downcast_ref::<Vec<u8>>().map(|v| v as *const Vec<u8>);
        let p = Payload::new(vec![1u8, 2, 3]);
        let before = addr(&p);
        assert!(before.is_some());
        let q = Payload::new(p);
        assert_eq!(addr(&q), before);
        assert_eq!(q.downcast::<Vec<u8>>(), Some(vec![1, 2, 3]));
    }

    #[test]
    fn queue_orders_by_time_then_seq() {
        let mut heap = BinaryHeap::new();
        let ev = |at_ms, seq| QueuedEvent {
            at: SimTime::from_millis(at_ms),
            tie: 0,
            seq,
            target: ActorId::from_raw(0),
            payload: Payload::new(()),
        };
        heap.push(ev(5, 2));
        heap.push(ev(1, 3));
        heap.push(ev(5, 1));
        heap.push(ev(0, 4));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.at.as_millis(), e.seq))
            .collect();
        assert_eq!(order, vec![(0, 4), (1, 3), (5, 1), (5, 2)]);
    }
}
