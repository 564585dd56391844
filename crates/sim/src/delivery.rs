//! Agreed-order deliveries in the event log: one event per run.
//!
//! A group-communication daemon hands its application each batch of
//! safe deliveries as a run of consecutive slots of one configuration.
//! The log keeps a run of two or more as one
//! [`ProtocolEvent::DeliveredRun`](crate::ProtocolEvent::DeliveredRun)
//! and a lone delivery as a
//! [`ProtocolEvent::Delivered`](crate::ProtocolEvent::Delivered). A
//! run's slot → sender table lives in the [`MetricsHub`]'s run table
//! (append-only, cut into chunks of several thousand words, so a chunk
//! is allocated once per thousands of runs, never per run); the event
//! holds a shared pointer to its chunk and the run's offset, so it
//! stays as small as any other event and is still self-contained.
//!
//! Readers never match the two forms: they walk
//! [`ProtocolEvent::delivered_slots`](crate::ProtocolEvent::delivered_slots),
//! one [`DeliveredSlot`] per delivery, so every per-slot fact is as
//! exact as it was with one event per delivery.
//!
//! [`MetricsHub`]: crate::MetricsHub

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// One agreed-order delivery as the log records it, in either form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredSlot {
    /// Reporting replica.
    pub node: u32,
    /// Sequence number of the configuration the message was sequenced in.
    pub conf_seq: u32,
    /// Coordinator of that configuration.
    pub coordinator: u32,
    /// Agreed-order slot within the configuration, saturating at
    /// `u32::MAX` (see [`ProtocolEvent::Delivered`]'s `seq`).
    ///
    /// [`ProtocolEvent::Delivered`]: crate::ProtocolEvent::Delivered
    pub seq: u32,
    /// The node whose daemon originally submitted the message.
    pub sender: u32,
    /// Whether delivery happened in the transitional configuration.
    pub in_transitional: bool,
}

/// Words in one chunk of the run table (64 KiB): room for about 1,700
/// runs of the benchmark's saturated cell.
const CHUNK_WORDS: usize = 1 << 14;

/// Words ahead of a run's senders: `conf_seq`, `coordinator`, the first
/// slot, `in_transitional` and the number of senders.
const HEADER: usize = 5;

/// How many of the latest runs a new one is compared with before it is
/// written: members of one configuration report the same run at about
/// the same time, and the later ones share the first one's words.
const RECENT: usize = 8;

/// Write-once words: each is stored before any run pointing at it
/// exists, and only read after. `Relaxed` suffices: a run reaches
/// another thread only through something that synchronises (a channel,
/// a join), which orders its words' stores before that thread's loads,
/// and the words stored later belong to other runs.
#[derive(Debug)]
struct Chunk(Box<[AtomicU32]>);

impl Chunk {
    fn new(words: usize) -> Arc<Chunk> {
        Arc::new(Chunk((0..words).map(|_| AtomicU32::new(0)).collect()))
    }

    fn get(&self, i: usize) -> u32 {
        self.0[i].load(Ordering::Relaxed)
    }

    fn put(&self, i: usize, word: u32) {
        self.0[i].store(word, Ordering::Relaxed);
    }

    /// Writes a run's header and senders at `at`.
    fn write(&self, at: usize, head: [u32; HEADER], senders: impl Iterator<Item = u32>) {
        for (i, word) in head.into_iter().chain(senders).enumerate() {
            self.put(at + i, word);
        }
    }

    /// Whether the `words` words at `a` and at `b` are equal. The
    /// header holds the length, so a shorter run fails before the
    /// comparison passes its end.
    fn same(&self, a: usize, b: usize, words: usize) -> bool {
        (0..words).all(|i| self.get(a + i) == self.get(b + i))
    }
}

/// A run's `(conf_seq, coordinator, first_seq, in_transitional)`.
type Head = (u32, u32, u32, bool);

/// A run's header words, and its senders cut to the `u32::MAX` a run
/// keeps. No delivery batch comes near (it would hold 2³² messages in
/// memory), and a decoded run past it is refused before it gets here.
fn header<I: ExactSizeIterator<Item = u32>>(
    head: Head,
    senders: I,
) -> ([u32; HEADER], std::iter::Take<I>) {
    let (conf_seq, coordinator, first_seq, in_transitional) = head;
    let len = u32::try_from(senders.len()).unwrap_or(u32::MAX);
    let words = [
        conf_seq,
        coordinator,
        first_seq,
        u32::from(in_transitional),
        len,
    ];
    (words, senders.take(len as usize))
}

/// A run of agreed-order deliveries at one replica, as one log entry:
/// consecutive slots of one configuration, all delivered in it or all
/// in its transitional configuration, senders in slot order.
///
/// Compares, prints and serialises by content, as a struct of `node`,
/// `conf_seq`, `coordinator`, `first_seq`, `in_transitional` and
/// `senders` would; where its words are stored is invisible.
#[derive(Clone)]
pub struct DeliveredRun {
    node: u32,
    at: u32,
    chunk: Arc<Chunk>,
}

impl DeliveredRun {
    /// A run stored on its own (a decoded or hand-built one; the daemon's
    /// runs go through [`MetricsHub::delivered_run`]). It keeps at most
    /// `u32::MAX` senders.
    ///
    /// [`MetricsHub::delivered_run`]: crate::MetricsHub::delivered_run
    pub fn new(
        node: u32,
        conf_seq: u32,
        coordinator: u32,
        first_seq: u32,
        in_transitional: bool,
        senders: &[u32],
    ) -> DeliveredRun {
        let head = (conf_seq, coordinator, first_seq, in_transitional);
        let (head, senders) = header(head, senders.iter().copied());
        DeliveredRun::alone(node, head, senders)
    }

    /// A run in a chunk of its own size.
    fn alone(
        node: u32,
        head: [u32; HEADER],
        senders: impl ExactSizeIterator<Item = u32>,
    ) -> DeliveredRun {
        let chunk = Chunk::new(HEADER + senders.len());
        chunk.write(0, head, senders);
        DeliveredRun { node, at: 0, chunk }
    }

    fn word(&self, i: usize) -> u32 {
        self.chunk.get(self.at as usize + i)
    }

    /// Reporting replica.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Sequence number of the configuration the run was sequenced in.
    pub fn conf_seq(&self) -> u32 {
        self.word(0)
    }

    /// Coordinator of that configuration.
    pub fn coordinator(&self) -> u32 {
        self.word(1)
    }

    /// The run's first agreed-order slot.
    pub fn first_seq(&self) -> u32 {
        self.word(2)
    }

    /// Whether the run was delivered in the transitional configuration.
    pub fn in_transitional(&self) -> bool {
        self.word(3) != 0
    }

    /// Number of deliveries in the run.
    pub fn len(&self) -> usize {
        self.word(4) as usize
    }

    /// Whether the run holds no delivery (only a decoded one can).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The senders, in slot order.
    pub fn senders(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        let base = self.at as usize + HEADER;
        (base..base + self.len()).map(|i| self.chunk.get(i))
    }

    /// One [`DeliveredSlot`] per delivery, in slot order. Slots count up
    /// from [`Self::first_seq`] and saturate at `u32::MAX`, as the
    /// equivalent [`ProtocolEvent::Delivered`] events would.
    ///
    /// [`ProtocolEvent::Delivered`]: crate::ProtocolEvent::Delivered
    pub fn slots(&self) -> impl Iterator<Item = DeliveredSlot> + '_ {
        let (node, conf_seq, coordinator) = (self.node, self.conf_seq(), self.coordinator());
        let (first, in_transitional) = (self.first_seq(), self.in_transitional());
        (0..=u32::MAX)
            .zip(self.senders())
            .map(move |(i, sender)| DeliveredSlot {
                node,
                conf_seq,
                coordinator,
                seq: first.saturating_add(i),
                sender,
                in_transitional,
            })
    }

    fn fields(&self) -> RunFields {
        RunFields {
            node: self.node,
            conf_seq: self.conf_seq(),
            coordinator: self.coordinator(),
            first_seq: self.first_seq(),
            in_transitional: self.in_transitional(),
            senders: self.senders().collect(),
        }
    }

    fn from_fields(f: RunFields) -> DeliveredRun {
        DeliveredRun::new(
            f.node,
            f.conf_seq,
            f.coordinator,
            f.first_seq,
            f.in_transitional,
            &f.senders,
        )
    }
}

impl PartialEq for DeliveredRun {
    fn eq(&self, other: &DeliveredRun) -> bool {
        let head = |r: &DeliveredRun| std::array::from_fn::<u32, HEADER, _>(|i| r.word(i));
        self.node == other.node && head(self) == head(other) && self.senders().eq(other.senders())
    }
}

impl Eq for DeliveredRun {}

impl fmt::Debug for DeliveredRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeliveredRun")
            .field("node", &self.node)
            .field("conf_seq", &self.conf_seq())
            .field("coordinator", &self.coordinator())
            .field("first_seq", &self.first_seq())
            .field("in_transitional", &self.in_transitional())
            .field("senders", &self.senders().collect::<Vec<_>>())
            .finish()
    }
}

/// The serialised form of a [`DeliveredRun`].
#[derive(Serialize, Deserialize)]
struct RunFields {
    node: u32,
    conf_seq: u32,
    coordinator: u32,
    first_seq: u32,
    in_transitional: bool,
    senders: Vec<u32>,
}

impl Serialize for DeliveredRun {
    fn to_value(&self) -> serde::Value {
        self.fields().to_value()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.fields().encode(out);
    }
}

impl Deserialize for DeliveredRun {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let fields = RunFields::from_value(v)?;
        if u32::try_from(fields.senders.len()).is_err() {
            return Err(serde::Error::custom("a run of more than 2^32 deliveries"));
        }
        Ok(DeliveredRun::from_fields(fields))
    }

    fn decode(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::bin::Error> {
        let at = r.offset();
        let fields = RunFields::decode(r)?;
        if u32::try_from(fields.senders.len()).is_err() {
            return Err(r.out_of_range(at, "DeliveredRun"));
        }
        Ok(DeliveredRun::from_fields(fields))
    }
}

/// The hub's append-only run table. Runs are written into the current
/// chunk until it is full; a run that would not fit in an empty chunk
/// gets one of its own size.
#[derive(Debug, Default)]
pub(crate) struct RunTable {
    chunk: Option<Arc<Chunk>>,
    /// Words of `chunk` in use.
    fill: usize,
    /// Offsets in `chunk` of the latest runs written there, oldest first.
    recent: VecDeque<u32>,
}

impl RunTable {
    /// Stores a run, or points at an equal one among the latest. It
    /// keeps at most `u32::MAX` senders.
    pub(crate) fn push(
        &mut self,
        node: u32,
        head: Head,
        senders: impl ExactSizeIterator<Item = u32>,
    ) -> DeliveredRun {
        let (head, senders) = header(head, senders);
        let words = HEADER + senders.len();
        if words > CHUNK_WORDS {
            return DeliveredRun::alone(node, head, senders);
        }
        if self.fill + words > CHUNK_WORDS {
            self.chunk = None;
        }
        let chunk = match &self.chunk {
            Some(chunk) => Arc::clone(chunk),
            None => {
                self.fill = 0;
                self.recent.clear();
                Arc::clone(self.chunk.insert(Chunk::new(CHUNK_WORDS)))
            }
        };
        // Written past the end first; kept only if no recent run is equal.
        let at = self.fill;
        chunk.write(at, head, senders);
        let mut recent = self.recent.iter().rev().copied();
        if let Some(shared) = recent.find(|&o| chunk.same(o as usize, at, words)) {
            return DeliveredRun {
                node,
                at: shared,
                chunk,
            };
        }
        self.fill += words;
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        // In range: `at < CHUNK_WORDS`.
        let at = at as u32;
        self.recent.push_back(at);
        DeliveredRun { node, at, chunk }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(table: &mut RunTable, node: u32, first: u32, senders: &[u32]) -> DeliveredRun {
        table.push(node, (3, 1, first, false), senders.iter().copied())
    }

    #[test]
    fn a_run_reads_back_what_was_pushed() {
        let mut table = RunTable::default();
        let run = push(&mut table, 2, 10, &[4, 0, 4]);
        assert_eq!(run, DeliveredRun::new(2, 3, 1, 10, false, &[4, 0, 4]));
        let slots: Vec<_> = run.slots().map(|s| (s.seq, s.sender)).collect();
        assert_eq!(slots, [(10, 4), (11, 0), (12, 4)]);
        assert_eq!(run.len(), 3);
    }

    #[test]
    fn equal_runs_share_words_and_different_ones_do_not() {
        let mut table = RunTable::default();
        let a = push(&mut table, 0, 10, &[4, 0]);
        let b = push(&mut table, 1, 10, &[4, 0]);
        let c = push(&mut table, 2, 10, &[4, 1]);
        let d = push(&mut table, 3, 10, &[4, 0, 2]);
        assert_eq!((a.at, b.at), (0, 0));
        assert_eq!(c.at, 7);
        assert_eq!(d.at, 14);
        assert_eq!(table.fill, 22);
        assert_eq!(b, DeliveredRun::new(1, 3, 1, 10, false, &[4, 0]));
        assert_eq!(c, DeliveredRun::new(2, 3, 1, 10, false, &[4, 1]));
        assert_ne!(a, b, "the reporting node is part of the run");
    }

    #[test]
    fn a_full_chunk_is_replaced_and_an_oversized_run_stands_alone() {
        let mut table = RunTable::default();
        let senders = vec![7; CHUNK_WORDS / 2];
        let a = push(&mut table, 0, 0, &senders);
        let b = push(&mut table, 0, 1, &senders);
        assert!(!Arc::ptr_eq(&a.chunk, &b.chunk));
        assert_eq!((a.at, b.at), (0, 0));
        let huge = vec![1; CHUNK_WORDS];
        let c = push(&mut table, 0, 0, &huge);
        assert_eq!(c.len(), CHUNK_WORDS);
        assert!(c.senders().all(|s| s == 1));
        // The current chunk is untouched by the oversized run.
        let d = push(&mut table, 1, 1, &[2, 3]);
        assert!(Arc::ptr_eq(&b.chunk, &d.chunk));
        assert_eq!(d.at as usize, HEADER + CHUNK_WORDS / 2);
        assert_eq!(a.senders().len(), CHUNK_WORDS / 2);
    }

    #[test]
    fn slots_saturate_at_u32_max() {
        let run = DeliveredRun::new(0, 1, 0, u32::MAX - 1, true, &[5, 6, 7]);
        let seqs: Vec<_> = run.slots().map(|s| s.seq).collect();
        assert_eq!(seqs, [u32::MAX - 1, u32::MAX, u32::MAX]);
        assert!(run.slots().all(|s| s.in_transitional));
    }
}
