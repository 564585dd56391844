//! Typed observability: protocol events, named counters and fixed-bucket
//! latency histograms.
//!
//! Every [`World`](crate::World) owns a [`MetricsHub`]. Actors reach it
//! through [`Ctx::metrics`](crate::Ctx::metrics) and
//! [`Ctx::emit`](crate::Ctx::emit); harness code reads it back through
//! [`World::metrics`](crate::World::metrics). Three kinds of data live
//! here:
//!
//! * **[`ProtocolEvent`]s** — a typed, timestamped log of the protocol
//!   transitions that matter to the paper (view installations, action
//!   coloring, green/red line movement, synchronization, client
//!   commits). Checkers assert on these.
//! * **Counters** — named monotone `u64`s (`"net.sent"`,
//!   `"evs.retransmitted"`, ...), keyed by a dotted
//!   `subsystem.metric` convention and written through per-call-site
//!   [`metric!`](crate::metric) handles.
//! * **Histograms** — fixed log₂-bucket latency distributions with O(1)
//!   insert and O(#buckets) percentile queries; no per-sample storage
//!   and no sort-on-query.
//!
//! Everything in the hub is a pure function of the simulation's event
//! sequence, so for a fixed seed the [`MetricsExport`] (and its JSON
//! rendering) is byte-identical across runs.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::actor::ActorId;
use crate::delivery::{DeliveredRun, DeliveredSlot, RunTable};
use crate::time::{SimDuration, SimTime};

/// Knowledge level of an action as it moves through the engine; mirrors
/// `todr_core::Color` with primitive spelling so the kernel does not
/// depend on upper layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EventColor {
    /// Ordered within the local component only.
    Red,
    /// Globally ordered, next-primary knowledge uncertain.
    Yellow,
    /// Global order known; applied to the database.
    Green,
    /// Known green everywhere; discardable.
    White,
}

/// A typed protocol transition, emitted by the instrumented subsystems.
///
/// Fields are primitives (`u32` node ids, configuration numbers and
/// delivery slots, `u64` action sequences and positions) so the kernel
/// stays dependency-free; the emitting layer converts its own ids.
/// `node` is always the *reporting* replica. Every variant fits in
/// 24 bytes: the footprint is boxed, and a delivery run's senders sit
/// in the hub's run table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolEvent {
    /// A group-communication daemon installed a regular configuration.
    ViewInstalled {
        /// Reporting replica.
        node: u32,
        /// Configuration sequence number.
        conf_seq: u32,
        /// Coordinator that installed the configuration.
        coordinator: u32,
        /// Number of members in the new configuration.
        members: u32,
    },
    /// A daemon delivered a transitional configuration (the EVS signal
    /// that membership is about to change).
    TransitionalConfig {
        /// Reporting replica.
        node: u32,
        /// Configuration sequence number being left.
        conf_seq: u32,
    },
    /// The engine created a new action from a client request.
    ActionCreated {
        /// Creating replica.
        node: u32,
        /// Action sequence local to the creator (red counter).
        action_seq: u64,
    },
    /// An action reached a (new) color at this replica.
    ///
    /// A color may be announced without the ones below it: where a red
    /// acceptance turns green in the same step, the Green stands for
    /// both marks and no Red is logged. The action's origin always logs
    /// its Red (the action's receipt), and so does every replica where
    /// the action stays red past that step.
    ActionOrdered {
        /// Reporting replica.
        node: u32,
        /// Creator of the action.
        creator: u32,
        /// Creator-local action sequence.
        action_seq: u64,
        /// The color the action reached.
        color: EventColor,
    },
    /// The green line (global persistent order prefix) advanced. One
    /// announcement closes every green mark the replica made since its
    /// previous one (a whole EVS delivery batch): the `k` marks sit at
    /// positions `green - k + 1 ..= green`, in mark order.
    GreenLineAdvance {
        /// Reporting replica.
        node: u32,
        /// New green line position (actions applied).
        green: u64,
    },
    /// A state-transfer / exchange round completed at this replica.
    SyncCompleted {
        /// Reporting replica.
        node: u32,
        /// Actions obtained during the exchange.
        actions_recovered: u64,
    },
    /// A message was retransmitted (EVS reliable-link or engine-level).
    Retransmit {
        /// Reporting replica.
        node: u32,
        /// Messages retransmitted in this burst.
        count: u64,
    },
    /// A client observed a committed update.
    ClientCommit {
        /// Client identifier.
        client: u64,
        /// Commit latency in virtual nanoseconds.
        latency_nanos: u64,
    },
    /// A replication engine lost its volatile state (simulated process
    /// crash); stable storage survives. Trace oracles use this to reset
    /// per-incarnation monotonicity tracking.
    EngineCrashed {
        /// The crashed replica.
        node: u32,
    },
    /// A replication engine reloaded its state from stable storage.
    EngineRecovered {
        /// The recovering replica.
        node: u32,
        /// The green count restored from disk — must never exceed the
        /// green line the replica had reached before the crash.
        green: u64,
    },
    /// The group-communication layer delivered an application message
    /// in agreed order. Oracles cross-check that all members of a
    /// configuration deliver the same sender at the same sequence slot.
    /// A run of two or more deliveries is one
    /// [`ProtocolEvent::DeliveredRun`] instead; read both through
    /// [`ProtocolEvent::delivered_slots`].
    Delivered {
        /// Reporting replica.
        node: u32,
        /// Sequence number of the configuration the message was
        /// sequenced in.
        conf_seq: u32,
        /// Coordinator of that configuration (disambiguates conf ids).
        coordinator: u32,
        /// Agreed-order slot within the configuration. The daemon counts
        /// slots in `u64` and saturates here, so a configuration past
        /// `u32::MAX` messages fails the slot-order check instead of
        /// aliasing an earlier slot.
        seq: u32,
        /// The node whose daemon originally submitted the message.
        sender: u32,
        /// Whether delivery happened in the transitional configuration.
        in_transitional: bool,
    },
    /// Recovery found a torn final log record (the partial write at the
    /// crash boundary) and truncated it. Benign: the truncated actions
    /// were at most red, and the exchange protocol re-fetches them from
    /// peers on rejoin.
    TornTailTruncated {
        /// The recovering replica.
        node: u32,
        /// Index of the first truncated log record.
        log_index: u64,
    },
    /// Recovery found corruption it cannot attribute to a torn tail
    /// (mid-log checksum mismatch, epoch regression, or a corrupt named
    /// record). The replica fail-stops rather than rejoin with silently
    /// wrong state.
    CorruptionDetected {
        /// The fail-stopping replica.
        node: u32,
        /// Index of the offending log record; `None` when a named
        /// record (rather than the action log) was corrupt.
        log_index: Option<u64>,
    },
    /// A shard router opened a cross-shard transaction.
    CrossShardStart {
        /// Router-local transaction id.
        txn: u64,
        /// Bitmask of participating groups (bit `g` set ⇔ group `g`
        /// participates; group count is bounded well below 64).
        participants: u64,
    },
    /// One participating group globally ordered a transaction's prepare
    /// marker and reported its green position.
    CrossShardPrepared {
        /// Router-local transaction id.
        txn: u64,
        /// The participating group.
        group: u32,
        /// The prepare marker's position in that group's green order.
        green_seq: u64,
    },
    /// All prepares are green: the router fixed the transaction's merged
    /// cross-group timestamp (the deterministic max of the prepare
    /// positions).
    CrossShardMerged {
        /// Router-local transaction id.
        txn: u64,
        /// The merged timestamp.
        ts: u64,
    },
    /// One participating group globally ordered (and applied) a
    /// transaction's commit.
    CrossShardCommitted {
        /// Router-local transaction id.
        txn: u64,
        /// The participating group.
        group: u32,
        /// The commit's position in that group's green order.
        green_seq: u64,
        /// Submission attempt that produced this commit (1 = first);
        /// retries can land at later positions while an earlier attempt
        /// already applied the writes, so order oracles only trust
        /// first-attempt positions.
        attempt: u16,
    },
    /// Every participating group committed: the transaction is applied
    /// across the database and the client was answered.
    CrossShardApplied {
        /// Router-local transaction id.
        txn: u64,
    },
    /// The static conflict classification of an action, exported by its
    /// creating replica when the commit fast path is enabled (see
    /// [`Footprint`]). Boxed because it is by far the largest event: the
    /// log stores every other kind in half the bytes.
    ActionFootprint(Box<Footprint>),
    /// A replica acknowledged its own action on the commit fast path: a
    /// weighted quorum of the primary component holds the sequenced
    /// action and no in-flight conflict was detected. The reply to the
    /// client precedes the action's green ordering; the
    /// `FastCommitRevoked` oracle checks that the promise is kept.
    FastCommit {
        /// The fast-committing (origin) replica.
        node: u32,
        /// Creator-local action sequence.
        action_seq: u64,
    },
    /// A `Fast`-policy action hit an in-flight conflict (or had an
    /// unbounded footprint) at its origin and fell back to the normal
    /// wait-for-green acknowledgement.
    FastDemoted {
        /// The origin replica.
        node: u32,
        /// Creator-local action sequence.
        action_seq: u64,
    },
    /// A replica served a read at some consistency tier. Emitted only
    /// when read leases are enabled (the linearizability oracle's
    /// input); `version` is the serving database's write-version of the
    /// read row at answer time.
    ReadServed {
        /// The serving replica.
        node: u32,
        /// Fingerprint of the read row.
        key_fp: u64,
        /// How the read was served.
        tier: ReadTier,
        /// The row's write-version in the database the answer came from.
        version: u64,
    },
    /// A replica acknowledged an update to its client (the linearization
    /// point the read oracle measures staleness against). Emitted only
    /// when read leases are enabled; the action's write footprint is
    /// correlated via its `ActionFootprint` event.
    UpdateAcked {
        /// The acknowledging (origin) replica.
        node: u32,
        /// Creator of the acknowledged action (== `node` today).
        creator: u32,
        /// Creator-local action sequence.
        action_seq: u64,
    },
    /// A replica granted itself (or renewed) a read lease inside a
    /// regular primary configuration. The lease-safety oracle checks
    /// that holder intervals from *different* configurations never
    /// overlap.
    LeaseGranted {
        /// The lease-holding replica.
        node: u32,
        /// Sequence number of the configuration the lease is sealed to.
        conf_seq: u32,
        /// Coordinator of that configuration (disambiguates conf ids).
        coordinator: u32,
        /// Virtual-time nanosecond at which the lease expires unless
        /// renewed.
        expires_nanos: u64,
        /// `true` for a heartbeat renewal of an existing lease.
        renewal: bool,
    },
    /// A replica adopted, in an exchange, a base (a green-state
    /// snapshot) that raises its green cut for `creator` to `cut`: every
    /// action of `creator` up to `cut` is now green there, those it held
    /// red or yellow and those it never saw, with no green mark naming
    /// them. Emitted once per creator the base raises, and only then.
    BaseSubsumed {
        /// The adopting replica.
        node: u32,
        /// Creator of the subsumed actions.
        creator: u32,
        /// The creator's green cut in the adopted base.
        cut: u64,
    },
    /// A run of two or more agreed-order deliveries handed over at once:
    /// consecutive slots of one configuration, below the `u32::MAX`
    /// saturation, all in the regular or all in the transitional
    /// configuration. It stands for the [`ProtocolEvent::Delivered`]
    /// events of its slots and serialises as a struct variant of
    /// `node`, `conf_seq`, `coordinator`, `first_seq`,
    /// `in_transitional` and `senders`.
    DeliveredRun(DeliveredRun),
}

/// The payload of [`ProtocolEvent::ActionFootprint`]. Row identities are
/// stable 64-bit fingerprints (sorted, deduplicated) so the todr-check
/// conflict oracle can replay exactly the relation the engine evaluated.
/// Serializes exactly as a struct variant with these fields would.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Footprint {
    /// Creating replica.
    pub node: u32,
    /// Creator-local action sequence.
    pub action_seq: u64,
    /// Sorted fingerprints of the written rows (empty if unbounded).
    pub writes: Vec<u64>,
    /// The write side is statically unbounded.
    pub writes_unbounded: bool,
    /// Sorted fingerprints of the read rows (empty if unbounded).
    pub reads: Vec<u64>,
    /// The read side is statically unbounded.
    pub reads_unbounded: bool,
    /// The update consists only of commutative ops.
    pub commutative: bool,
    /// The update consists only of timestamped ops.
    pub timestamped: bool,
}

/// How a read was served; mirrors `todr_db::ReadConsistency` plus the
/// lease/ordered split of the linearizable tier, with primitive spelling
/// so the kernel does not depend on upper layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReadTier {
    /// Linearizable, answered locally under a valid read lease.
    LeaseLinearizable,
    /// Linearizable, answered through the ordered action path.
    OrderedLinearizable,
    /// Green-prefix snapshot read.
    GreenSnapshot,
    /// Green prefix plus local red suffix.
    RedOverlay,
}

/// Every [`ProtocolEvent::kind`], indexed by variant.
const KINDS: [&str; 26] = [
    "view-installed",
    "transitional-config",
    "action-created",
    "action-ordered",
    "green-line-advance",
    "sync-completed",
    "retransmit",
    "client-commit",
    "engine-crashed",
    "engine-recovered",
    "delivered",
    "torn-tail-truncated",
    "corruption-detected",
    "cross-shard-start",
    "cross-shard-prepared",
    "cross-shard-merged",
    "cross-shard-committed",
    "cross-shard-applied",
    "action-footprint",
    "fast-commit",
    "fast-demoted",
    "read-served",
    "update-acked",
    "lease-granted",
    "base-subsumed",
    "delivered-run",
];

impl ProtocolEvent {
    /// Stable kebab-case name of the event kind (used as a grouping key
    /// in exports and assertions).
    pub fn kind(&self) -> &'static str {
        KINDS[self.kind_index()]
    }

    /// The variant's index into [`KINDS`].
    fn kind_index(&self) -> usize {
        match self {
            ProtocolEvent::ViewInstalled { .. } => 0,
            ProtocolEvent::TransitionalConfig { .. } => 1,
            ProtocolEvent::ActionCreated { .. } => 2,
            ProtocolEvent::ActionOrdered { .. } => 3,
            ProtocolEvent::GreenLineAdvance { .. } => 4,
            ProtocolEvent::SyncCompleted { .. } => 5,
            ProtocolEvent::Retransmit { .. } => 6,
            ProtocolEvent::ClientCommit { .. } => 7,
            ProtocolEvent::EngineCrashed { .. } => 8,
            ProtocolEvent::EngineRecovered { .. } => 9,
            ProtocolEvent::Delivered { .. } => 10,
            ProtocolEvent::TornTailTruncated { .. } => 11,
            ProtocolEvent::CorruptionDetected { .. } => 12,
            ProtocolEvent::CrossShardStart { .. } => 13,
            ProtocolEvent::CrossShardPrepared { .. } => 14,
            ProtocolEvent::CrossShardMerged { .. } => 15,
            ProtocolEvent::CrossShardCommitted { .. } => 16,
            ProtocolEvent::CrossShardApplied { .. } => 17,
            ProtocolEvent::ActionFootprint(_) => 18,
            ProtocolEvent::FastCommit { .. } => 19,
            ProtocolEvent::FastDemoted { .. } => 20,
            ProtocolEvent::ReadServed { .. } => 21,
            ProtocolEvent::UpdateAcked { .. } => 22,
            ProtocolEvent::LeaseGranted { .. } => 23,
            ProtocolEvent::BaseSubsumed { .. } => 24,
            ProtocolEvent::DeliveredRun(_) => 25,
        }
    }

    /// Every agreed-order delivery this event records, in slot order:
    /// one for a [`ProtocolEvent::Delivered`], the run's for a
    /// [`ProtocolEvent::DeliveredRun`], none for any other kind.
    pub fn delivered_slots(&self) -> impl Iterator<Item = DeliveredSlot> + '_ {
        let (single, run) = match *self {
            ProtocolEvent::Delivered {
                node,
                conf_seq,
                coordinator,
                seq,
                sender,
                in_transitional,
            } => {
                let slot = DeliveredSlot {
                    node,
                    conf_seq,
                    coordinator,
                    seq,
                    sender,
                    in_transitional,
                };
                (Some(slot), None)
            }
            ProtocolEvent::DeliveredRun(ref run) => (None, Some(run)),
            _ => (None, None),
        };
        single
            .into_iter()
            .chain(run.into_iter().flat_map(DeliveredRun::slots))
    }
}

/// A [`ProtocolEvent`] plus its emission context.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordedEvent {
    /// Virtual time of emission, in nanoseconds.
    pub at_nanos: u64,
    /// Raw id of the emitting actor.
    pub actor: u32,
    /// Metric scope of the emitting actor (0 = the root scope). In a
    /// sharded world each replication group gets its own scope, so
    /// per-group trace oracles filter on this instead of guessing group
    /// membership from actor ids.
    pub group: u32,
    /// The event itself.
    pub event: ProtocolEvent,
}

// The log holds tens of events per action; keep each entry this small.
// `ActionOrdered` (two ids, a `u64` and a colour) sets the floor.
const _: () = assert!(std::mem::size_of::<ProtocolEvent>() == 24);
const _: () = assert!(std::mem::size_of::<RecordedEvent>() == 40);

/// A fixed-bucket latency histogram over `u64` nanosecond samples.
///
/// Bucket `i` holds samples whose value has its highest set bit at
/// position `i` (i.e. log₂-spaced buckets), so insert is O(1) and a
/// percentile query walks at most 64 counters. The reported percentile
/// value is the *upper bound* of the bucket the rank falls in — a ≤2×
/// overestimate, which is the right bias for latency budgets. The exact
/// maximum is tracked separately.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    const BUCKETS: usize = 64;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; Self::BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        (63 - value.max(1).leading_zeros()) as usize
    }

    /// Records one sample (nanoseconds).
    pub fn record(&mut self, value: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; Self::BUCKETS];
        }
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Records a [`SimDuration`] sample.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples in nanoseconds (0 if empty).
    pub fn mean_nanos(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Exact maximum recorded sample in nanoseconds.
    pub fn max_nanos(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in [0, 1], as the upper bound of the
    /// bucket containing that rank (clamped to the exact max).
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i is 2^(i+1) - 1.
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; Self::BUCKETS];
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The summary quadruple used in exports.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean_nanos: self.mean_nanos(),
            p50_nanos: self.quantile_nanos(0.50),
            p95_nanos: self.quantile_nanos(0.95),
            p99_nanos: self.quantile_nanos(0.99),
            max_nanos: self.max,
        }
    }
}

/// Percentile summary of one histogram, in nanoseconds of virtual time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Mean sample.
    pub mean_nanos: u64,
    /// Median (bucket upper bound).
    pub p50_nanos: u64,
    /// 95th percentile (bucket upper bound).
    pub p95_nanos: u64,
    /// 99th percentile (bucket upper bound).
    pub p99_nanos: u64,
    /// Exact maximum.
    pub max_nanos: u64,
}

/// A metric name bound to a dense process-wide id on first use.
///
/// Layers write through handles made by the [`metric!`](crate::metric)
/// macro, which puts one `static Metric` at each call site: the first
/// write looks the name up in the process-wide registry, and every later
/// one is a load of the cached id. The id only indexes a hub's arrays;
/// it is never exported and never iterated in id order, so the order in
/// which threads or call sites first touch names cannot reach any
/// output.
#[derive(Debug)]
pub struct Metric {
    name: &'static str,
    id: OnceLock<u32>,
}

impl Metric {
    /// A handle for `name`, not yet resolved. Use [`metric!`](crate::metric)
    /// rather than calling this directly.
    pub const fn new(name: &'static str) -> Metric {
        Metric {
            name,
            id: OnceLock::new(),
        }
    }

    #[inline]
    fn id(&self) -> u32 {
        *self.id.get_or_init(|| registry::intern(self.name.into()))
    }
}

/// A per-call-site [`Metric`] handle for a literal name:
/// `ctx.metrics().incr(metric!("net.sent"), 1)`.
#[macro_export]
macro_rules! metric {
    ($name:literal) => {{
        static METRIC: $crate::Metric = $crate::Metric::new($name);
        &METRIC
    }};
}

/// What a hub write names its metric by: a [`Metric`] handle, or a
/// `&'static str` the hub resolves through the same registry.
pub trait MetricName: Copy {
    /// The dotted name.
    fn name(self) -> &'static str;

    /// The handle, if this is one.
    fn handle(self) -> Option<&'static Metric>;
}

impl MetricName for &'static Metric {
    fn name(self) -> &'static str {
        self.name
    }

    fn handle(self) -> Option<&'static Metric> {
        Some(self)
    }
}

impl MetricName for &'static str {
    fn name(self) -> &'static str {
        self
    }

    fn handle(self) -> Option<&'static Metric> {
        None
    }
}

/// The process-wide name ↔ id registry behind [`Metric`]. Ids are dense
/// and handed out in first-use order; each name gets exactly one.
mod registry {
    use std::borrow::Cow;
    use std::collections::BTreeMap;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    struct Registry {
        ids: BTreeMap<&'static str, u32>,
        names: Vec<&'static str>,
    }

    static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
        ids: BTreeMap::new(),
        names: Vec::new(),
    });

    // Every update leaves the registry usable (a name pushed without its
    // map entry is only an id no one holds), so a guard poisoned by a
    // panic in another thread is still good.
    fn lock() -> MutexGuard<'static, Registry> {
        REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The id of `name`, registering it on first sight. A computed name
    /// is leaked only then.
    pub(super) fn intern(name: Cow<'static, str>) -> u32 {
        let mut reg = lock();
        if let Some(&id) = reg.ids.get(&*name) {
            return id;
        }
        let id = u32::try_from(reg.names.len())
            .unwrap_or_else(|_| panic!("more than 2^32 metric names"));
        let name: &'static str = match name {
            Cow::Borrowed(name) => name,
            Cow::Owned(name) => Box::leak(name.into_boxed_str()),
        };
        reg.names.push(name);
        reg.ids.insert(name, id);
        id
    }

    /// The id of `name`, if anything ever registered it.
    pub(super) fn lookup(name: &str) -> Option<u32> {
        lock().ids.get(name).copied()
    }

    /// Runs `f` over every registered name, indexed by id.
    pub(super) fn with_names<R>(f: impl FnOnce(&[&'static str]) -> R) -> R {
        f(&lock().names)
    }
}

fn slot_value<T: Clone>(store: &[Option<T>], slot: u32) -> Option<T> {
    store.get(slot as usize).and_then(|v| v.clone())
}

fn slot_mut<T>(store: &mut Vec<Option<T>>, slot: u32) -> &mut Option<T> {
    let slot = slot as usize;
    if store.len() <= slot {
        store.resize_with(slot + 1, || None);
    }
    &mut store[slot]
}

/// The written entries of `store` as `(name, value)`, in name order —
/// the one order every reader and the export see.
fn by_name<T>(store: &[Option<T>]) -> Vec<(&'static str, &T)> {
    let mut pairs: Vec<_> = registry::with_names(|names| {
        names
            .iter()
            .zip(store)
            .filter_map(|(&name, v)| Some((name, v.as_ref()?)))
            .collect()
    });
    pairs.sort_unstable_by_key(|&(name, _)| name);
    pairs
}

/// The hub collecting counters, histograms and typed events for one
/// [`World`](crate::World).
///
/// Counters, gauges and histograms sit in arrays indexed by the
/// metric's process-wide id, so a write through a [`Metric`] handle is
/// an id load and an array index. All read-side iteration sorts by
/// name, so exports are independent of the ids.
#[derive(Debug, Default)]
pub struct MetricsHub {
    counters: Vec<Option<u64>>,
    gauges: Vec<Option<u64>>,
    histograms: Vec<Option<Histogram>>,
    events: EventLog,
    /// The senders of the logged delivery runs.
    runs: RunTable,
    /// Events logged per kind, indexed like [`KINDS`].
    event_counts: [u64; KINDS.len()],
    /// Registered scope prefixes (`"g0."`, `"g1."`, …); scope id `i + 1`
    /// maps to `scope_prefixes[i]`. Scope 0 is the implicit root with no
    /// prefix, so a world that never registers a scope behaves — and
    /// exports — exactly as before scopes existed.
    scope_prefixes: Vec<&'static str>,
    /// Per registered scope (at `scope - 1`): root id → the id of the
    /// prefixed name, filled on the scope's first write to each metric.
    scoped: Vec<Vec<Option<u32>>>,
    active_scope: u32,
    /// Ids of the `&'static str` names this hub was written through.
    strings: BTreeMap<&'static str, u32>,
}

/// Events a new hub's log has room for before it has to move: a few
/// virtual seconds of a paper-scale (14-replica) run, in 21 MB (20 MiB)
/// of address space at 40 bytes an entry. At seed 42 every benchmark
/// cell fits: the saturated 14-replica cell logs 520 k events, the
/// lease-read cell 496 k, the 56-replica cell 289 k and the 7-replica
/// fault cell 116 k. A log that outgrows the reserve moves, and where
/// the moved log lands is what makes peak memory differ between seeds.
const EVENT_LOG_RESERVE: usize = 1 << 19;

thread_local! {
    /// The emptied log of the last hub dropped on this thread, for the
    /// next hub to take ([`EventLog::reserved`]).
    static SPARE_LOG: Cell<Vec<RecordedEvent>> = const { Cell::new(Vec::new()) };
}

/// A hub's event log. A reserved log is handed on, emptied, from each
/// dropped hub to the next one made on the same thread, so a process
/// that runs many worlds in turn reserves it once. A log reserved anew
/// per world lands wherever the allocator finds 21 MB free; when the
/// small allocations that outlive one world let the next log start
/// lower, the untouched tail the previous log left behind is taken by
/// other data, and peak memory creeps up world by world (the
/// 56-replica benchmark cell: 30.5 → 33 MB over 20 repetitions, moved
/// by a change to the size of a few per-replica tables).
#[derive(Debug, Default)]
struct EventLog(Vec<RecordedEvent>);

impl EventLog {
    /// The spare log if there is one, else a fresh reserve.
    fn reserved() -> Self {
        let spare = SPARE_LOG.try_with(Cell::take).unwrap_or_default();
        if spare.capacity() >= EVENT_LOG_RESERVE {
            EventLog(spare)
        } else {
            EventLog(Vec::with_capacity(EVENT_LOG_RESERVE))
        }
    }
}

impl Drop for EventLog {
    fn drop(&mut self) {
        if self.0.capacity() >= EVENT_LOG_RESERVE {
            let mut log = std::mem::take(&mut self.0);
            log.clear();
            // `try_with`: a hub may drop while its thread tears down.
            let _ = SPARE_LOG.try_with(|spare| spare.set(log));
        }
    }
}

impl MetricsHub {
    /// Creates an empty hub with event recording enabled.
    pub fn new() -> Self {
        MetricsHub {
            // Reserved, not touched: the pages cost nothing until events
            // are written. A log that instead doubles its way up moves
            // megabytes at each step, and where the allocator then puts
            // the next world's log decides whether a process running
            // many worlds in turn peaks at 37 MB or 54 MB (the
            // benchmark's 14-replica latency cell, by seed).
            events: EventLog::reserved(),
            ..MetricsHub::default()
        }
    }

    /// Registers a metric scope with the given label and returns its id.
    ///
    /// While a scope is active (see [`Self::set_active_scope`]) every
    /// counter, gauge and histogram write lands on `"<label>.<name>"`
    /// instead of `"<name>"`, and emitted events are stamped with the
    /// scope id in [`RecordedEvent::group`]. Reads are by full name, so
    /// a harness queries `"g0.evs.acks"` explicitly. Scope 0 is the
    /// pre-existing root; worlds that never register a scope are
    /// byte-identical to the pre-scope representation.
    pub fn register_scope(&mut self, label: &str) -> u32 {
        let prefix: &'static str = Box::leak(format!("{label}.").into_boxed_str());
        self.scope_prefixes.push(prefix);
        self.scoped.push(Vec::new());
        u32::try_from(self.scope_prefixes.len()).expect("too many metric scopes")
    }

    /// Selects the scope subsequent writes land in (0 = root).
    ///
    /// # Panics
    ///
    /// Panics if `scope` was not returned by [`Self::register_scope`].
    pub fn set_active_scope(&mut self, scope: u32) {
        assert!(
            (scope as usize) <= self.scope_prefixes.len(),
            "unregistered metric scope {scope}"
        );
        self.active_scope = scope;
    }

    /// The currently active scope id (0 = root).
    pub fn active_scope(&self) -> u32 {
        self.active_scope
    }

    /// The id a write to `name` lands on in the active scope.
    fn slot(&mut self, name: impl MetricName) -> u32 {
        let root = match name.handle() {
            Some(metric) => metric.id(),
            None => {
                let name = name.name();
                *self
                    .strings
                    .entry(name)
                    .or_insert_with(|| registry::intern(name.into()))
            }
        };
        if self.active_scope == 0 {
            return root;
        }
        let scope = (self.active_scope - 1) as usize;
        match self.scoped[scope].get(root as usize) {
            Some(&Some(id)) => id,
            _ => self.first_scoped_write(scope, root, name.name()),
        }
    }

    /// Resolves and remembers the prefixed id of `root` in `scope`; once
    /// per scope and metric.
    #[cold]
    fn first_scoped_write(&mut self, scope: usize, root: u32, name: &'static str) -> u32 {
        let id = registry::intern(format!("{}{name}", self.scope_prefixes[scope]).into());
        *slot_mut(&mut self.scoped[scope], root) = Some(id);
        id
    }

    /// Adds `n` to the named counter, creating it at zero.
    ///
    /// Names follow a dotted `subsystem.metric` convention
    /// (`"net.sent"`, `"storage.forced_writes"`); layers name them with
    /// [`metric!`](crate::metric) handles, which resolve once per call
    /// site.
    pub fn incr(&mut self, name: impl MetricName, n: u64) {
        let slot = self.slot(name);
        *slot_mut(&mut self.counters, slot).get_or_insert(0) += n;
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        registry::lookup(name)
            .and_then(|slot| slot_value(&self.counters, slot))
            .unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        by_name(&self.counters).into_iter().map(|(k, &v)| (k, v))
    }

    /// Sets the named gauge to its current value (last write wins).
    ///
    /// Unlike counters, gauges describe *levels* — retained bodies, queue
    /// depths — that can go down as well as up; the export carries the
    /// final value. Pair a gauge with [`Self::record_value`] when the
    /// peak matters too.
    pub fn set_gauge(&mut self, name: impl MetricName, value: u64) {
        let slot = self.slot(name);
        *slot_mut(&mut self.gauges, slot) = Some(value);
    }

    /// Current value of a gauge (0 if never set).
    pub fn gauge(&self, name: &str) -> u64 {
        registry::lookup(name)
            .and_then(|slot| slot_value(&self.gauges, slot))
            .unwrap_or(0)
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        by_name(&self.gauges).into_iter().map(|(k, &v)| (k, v))
    }

    /// Records a nanosecond sample into the named histogram.
    pub fn observe_nanos(&mut self, name: impl MetricName, nanos: u64) {
        let slot = self.slot(name);
        slot_mut(&mut self.histograms, slot)
            .get_or_insert_with(Histogram::new)
            .record(nanos);
    }

    /// Records a [`SimDuration`] sample into the named histogram.
    pub fn observe(&mut self, name: impl MetricName, d: SimDuration) {
        self.observe_nanos(name, d.as_nanos());
    }

    /// Records a unit-free sample (a batch size, a queue depth) into the
    /// named histogram. Identical mechanics to [`Self::observe_nanos`];
    /// the separate name keeps call sites honest about units.
    pub fn record_value(&mut self, name: impl MetricName, value: u64) {
        self.observe_nanos(name, value);
    }

    /// The named histogram, if any sample was ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        let slot = registry::lookup(name)?;
        self.histograms.get(slot as usize)?.as_ref()
    }

    /// A run of agreed-order deliveries at `node`, stored in this hub's
    /// run table, for the caller to log as
    /// [`ProtocolEvent::DeliveredRun`]. `head` is the run's
    /// `(conf_seq, coordinator, first_seq, in_transitional)`; `senders`
    /// are in slot order, at most `u32::MAX` of them kept. Where another
    /// member just reported an equal run, the new one shares its words.
    pub fn delivered_run(
        &mut self,
        node: u32,
        head: (u32, u32, u32, bool),
        senders: impl ExactSizeIterator<Item = u32>,
    ) -> DeliveredRun {
        self.runs.push(node, head, senders)
    }

    /// Appends a typed event. The log is the input of the consistency
    /// checks, so it cannot be turned off.
    pub fn emit(&mut self, at: SimTime, actor: ActorId, event: ProtocolEvent) {
        self.event_counts[event.kind_index()] += 1;
        self.events.0.push(RecordedEvent {
            at_nanos: at.as_nanos(),
            actor: actor.as_raw(),
            group: self.active_scope,
            event,
        });
    }

    /// The full recorded event log, in emission order.
    pub fn events(&self) -> &[RecordedEvent] {
        &self.events.0
    }

    /// Iterates the events matching a predicate.
    pub fn events_where<'a, F>(&'a self, mut pred: F) -> impl Iterator<Item = &'a RecordedEvent>
    where
        F: FnMut(&ProtocolEvent) -> bool + 'a,
    {
        self.events.0.iter().filter(move |r| pred(&r.event))
    }

    /// Number of recorded events of the given [`ProtocolEvent::kind`].
    pub fn count_events(&self, kind: &str) -> u64 {
        KINDS
            .iter()
            .position(|&k| k == kind)
            .map_or(0, |i| self.event_counts[i])
    }

    /// Snapshots the hub into the serializable export form.
    pub fn export(&self) -> MetricsExport {
        MetricsExport {
            counters: self.counters().map(|(k, v)| (k.to_string(), v)).collect(),
            gauges: self.gauges().map(|(k, v)| (k.to_string(), v)).collect(),
            histograms: by_name(&self.histograms)
                .into_iter()
                .map(|(name, h)| (name.to_string(), h.summary()))
                .collect(),
            event_counts: KINDS
                .iter()
                .zip(self.event_counts)
                .filter(|&(_, n)| n > 0)
                .map(|(k, n)| (k.to_string(), n))
                .collect(),
            events_recorded: self.events.0.len() as u64,
        }
    }
}

/// Serializable snapshot of a [`MetricsHub`]; deterministic for a fixed
/// seed (sorted keys, virtual-time samples only).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsExport {
    /// All counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Final values of all gauges by name.
    pub gauges: BTreeMap<String, u64>,
    /// Percentile summaries of all histograms by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Number of recorded events per [`ProtocolEvent::kind`].
    pub event_counts: BTreeMap<String, u64>,
    /// Total events in the log.
    pub events_recorded: u64,
}

impl MetricsExport {
    /// Compact deterministic JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string(self).expect("metrics export is always serializable")
    }

    /// Pretty-printed deterministic JSON.
    pub fn to_json_pretty(&self) -> String {
        serde::json::to_string_pretty(self).expect("metrics export is always serializable")
    }

    /// Parses an export back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        serde::json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut hub = MetricsHub::new();
        assert_eq!(hub.counter("net.sent"), 0);
        hub.incr("net.sent", 2);
        hub.incr("net.sent", 3);
        assert_eq!(hub.counter("net.sent"), 5);
    }

    #[test]
    fn interning_merges_equal_names_from_distinct_statics() {
        // Two equal-content literals may (or may not) be distinct
        // statics; either way they must resolve to the same metric.
        let a: &'static str = "evs.acks_sent";
        let b: &'static str = Box::leak("evs.acks_sent".to_string().into_boxed_str());
        assert_ne!(a.as_ptr(), b.as_ptr());
        let mut hub = MetricsHub::new();
        hub.incr(a, 2);
        hub.incr(b, 3);
        assert_eq!(hub.counter("evs.acks_sent"), 5);
        assert_eq!(hub.counters().count(), 1);
        assert_eq!(hub.export().counters.len(), 1);
    }

    #[test]
    fn iteration_stays_sorted_regardless_of_insertion_order() {
        let mut hub = MetricsHub::new();
        hub.incr("z.last", 1);
        hub.incr("a.first", 1);
        hub.incr("m.middle", 1);
        hub.set_gauge("z.level", 9);
        hub.set_gauge("b.level", 4);
        let counter_names: Vec<_> = hub.counters().map(|(k, _)| k).collect();
        assert_eq!(counter_names, vec!["a.first", "m.middle", "z.last"]);
        let gauge_names: Vec<_> = hub.gauges().map(|(k, _)| k).collect();
        assert_eq!(gauge_names, vec!["b.level", "z.level"]);
    }

    #[test]
    fn gauges_hold_the_last_written_level() {
        let mut hub = MetricsHub::new();
        assert_eq!(hub.gauge("core.retained_bodies"), 0);
        hub.set_gauge("core.retained_bodies", 7);
        hub.set_gauge("core.retained_bodies", 3); // levels go down too
        assert_eq!(hub.gauge("core.retained_bodies"), 3);
        let export = hub.export();
        assert_eq!(export.gauges.get("core.retained_bodies"), Some(&3));
        let back = MetricsExport::from_json(&export.to_json()).unwrap();
        assert_eq!(back, export);
    }

    #[test]
    fn histogram_percentiles_bound_the_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs .. 1ms
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max_nanos(), 1_000_000);
        let p50 = h.quantile_nanos(0.50);
        let p99 = h.quantile_nanos(0.99);
        // Bucket upper bounds: within 2x above the true percentile,
        // never below it.
        assert!((500_000..=1_048_575).contains(&p50), "p50={p50}");
        assert!((990_000..=1_048_575).contains(&p99), "p99={p99}");
        assert!(h.quantile_nanos(1.0) <= h.max_nanos());
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in [5u64, 100, 9_000, 77] {
            a.record(v);
            c.record(v);
        }
        for v in [1u64, 1_000_000] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn events_are_recorded_and_countable() {
        let mut hub = MetricsHub::new();
        hub.emit(
            SimTime::from_millis(1),
            ActorId::from_raw(3),
            ProtocolEvent::GreenLineAdvance { node: 0, green: 7 },
        );
        hub.emit(
            SimTime::from_millis(2),
            ActorId::from_raw(3),
            ProtocolEvent::Retransmit { node: 0, count: 2 },
        );
        assert_eq!(hub.events().len(), 2);
        assert_eq!(hub.count_events("retransmit"), 1);
        assert_eq!(hub.count_events("no-such-kind"), 0);
        // Kinds with no event are left out of the export.
        let counts: Vec<_> = hub.export().event_counts.into_iter().collect();
        assert_eq!(
            counts,
            [
                ("green-line-advance".to_string(), 1),
                ("retransmit".to_string(), 1)
            ]
        );
        assert_eq!(
            hub.events_where(
                |e| matches!(e, ProtocolEvent::GreenLineAdvance { green, .. } if *green == 7)
            )
            .count(),
            1
        );
    }

    #[test]
    fn export_round_trips_through_json() {
        let mut hub = MetricsHub::new();
        hub.incr("net.sent", 42);
        hub.observe_nanos("engine.ordering_latency", 12_345);
        hub.emit(
            SimTime::ZERO,
            ActorId::from_raw(0),
            ProtocolEvent::ClientCommit {
                client: 9,
                latency_nanos: 1234,
            },
        );
        let export = hub.export();
        let text = export.to_json_pretty();
        let back = MetricsExport::from_json(&text).unwrap();
        assert_eq!(back, export);
    }

    #[test]
    fn footprint_event_renders_as_a_struct_variant() {
        let event = ProtocolEvent::ActionFootprint(Box::new(Footprint {
            node: 1,
            action_seq: 2,
            writes: vec![3],
            writes_unbounded: false,
            reads: vec![],
            reads_unbounded: true,
            commutative: false,
            timestamped: true,
        }));
        assert_eq!(
            serde::json::to_string(&event).ok().as_deref(),
            Some(
                "{\"ActionFootprint\":{\"node\":1,\"action_seq\":2,\"writes\":[3],\
             \"writes_unbounded\":false,\"reads\":[],\"reads_unbounded\":true,\
             \"commutative\":false,\"timestamped\":true}}"
            )
        );
        // Variant index 18, then a record of the eight fields.
        let bytes = serde::bin::to_vec(&event);
        assert_eq!(
            bytes,
            [177, 13, 18, 12, 8, 3, 1, 3, 2, 8, 1, 3, 3, 1, 8, 0, 2, 1, 2]
        );
        assert_eq!(serde::bin::from_slice(&bytes).ok(), Some(event));
    }

    #[test]
    fn delivered_run_event_renders_as_a_struct_variant() {
        let run = crate::DeliveredRun::new(2, 300, 1, 7, false, &[3, 0, 3]);
        let event = ProtocolEvent::DeliveredRun(run);
        assert_eq!(
            serde::json::to_string(&event).ok().as_deref(),
            Some(
                "{\"DeliveredRun\":{\"node\":2,\"conf_seq\":300,\"coordinator\":1,\
                 \"first_seq\":7,\"in_transitional\":false,\"senders\":[3,0,3]}}"
            )
        );
        // Variant index 25, then a record of the six fields.
        let bytes = serde::bin::to_vec(&event);
        assert_eq!(
            bytes,
            [177, 13, 25, 12, 6, 3, 2, 3, 172, 2, 3, 1, 3, 7, 1, 8, 3, 3, 3, 3, 0, 3, 3]
        );
        assert_eq!(serde::bin::from_slice(&bytes).ok(), Some(event.clone()));
        let json = serde::json::to_string(&event).unwrap_or_default();
        assert_eq!(serde::json::from_str(&json).ok(), Some(event));
    }

    /// Both forms write integers by value, not by width, so the events
    /// narrowed to `u32`/`u16` fields keep the bytes the `u64`/`u32`
    /// fields produced: logs and counterexample artifacts written by
    /// the wider types still load.
    #[test]
    fn narrowed_events_keep_their_serialised_forms() {
        let cases: [(ProtocolEvent, &str, &[u8]); 4] = [
            (
                ProtocolEvent::Delivered {
                    node: 2,
                    conf_seq: 300,
                    coordinator: 1,
                    seq: u32::MAX,
                    sender: 3,
                    in_transitional: true,
                },
                "{\"Delivered\":{\"node\":2,\"conf_seq\":300,\"coordinator\":1,\
                 \"seq\":4294967295,\"sender\":3,\"in_transitional\":true}}",
                &[
                    177, 13, 10, 12, 6, 3, 2, 3, 172, 2, 3, 1, 3, 255, 255, 255, 255, 15, 3, 3, 2,
                ],
            ),
            (
                ProtocolEvent::LeaseGranted {
                    node: 4,
                    conf_seq: 7,
                    coordinator: 0,
                    expires_nanos: 5_000_000_000,
                    renewal: false,
                },
                "{\"LeaseGranted\":{\"node\":4,\"conf_seq\":7,\"coordinator\":0,\
                 \"expires_nanos\":5000000000,\"renewal\":false}}",
                &[
                    177, 13, 23, 12, 5, 3, 4, 3, 7, 3, 0, 3, 128, 228, 151, 208, 18, 1,
                ],
            ),
            (
                ProtocolEvent::CrossShardCommitted {
                    txn: 9,
                    group: 1,
                    green_seq: 1 << 40,
                    attempt: 2,
                },
                "{\"CrossShardCommitted\":{\"txn\":9,\"group\":1,\
                 \"green_seq\":1099511627776,\"attempt\":2}}",
                &[
                    177, 13, 16, 12, 4, 3, 9, 3, 1, 3, 128, 128, 128, 128, 128, 32, 3, 2,
                ],
            ),
            (
                ProtocolEvent::ViewInstalled {
                    node: 0,
                    conf_seq: 128,
                    coordinator: 0,
                    members: 5,
                },
                "{\"ViewInstalled\":{\"node\":0,\"conf_seq\":128,\"coordinator\":0,\"members\":5}}",
                &[177, 13, 0, 12, 4, 3, 0, 3, 128, 1, 3, 0, 3, 5],
            ),
        ];
        for (event, json, bin) in cases {
            assert_eq!(serde::json::to_string(&event).ok().as_deref(), Some(json));
            assert_eq!(serde::bin::to_vec(&event), bin);
            assert_eq!(serde::json::from_str(json).ok(), Some(event.clone()));
            assert_eq!(serde::bin::from_slice(bin).ok(), Some(event));
        }
    }

    #[test]
    fn scoped_writes_land_on_prefixed_names() {
        let mut hub = MetricsHub::new();
        let g0 = hub.register_scope("g0");
        let g1 = hub.register_scope("g1");
        hub.incr("net.sent", 1); // root
        hub.set_active_scope(g0);
        hub.incr("net.sent", 10);
        hub.set_gauge("core.level", 4);
        hub.observe_nanos("lat", 100);
        hub.set_active_scope(g1);
        hub.incr("net.sent", 20);
        hub.set_active_scope(0);
        hub.incr("net.sent", 2);
        assert_eq!(hub.counter("net.sent"), 3);
        assert_eq!(hub.counter("g0.net.sent"), 10);
        assert_eq!(hub.counter("g1.net.sent"), 20);
        assert_eq!(hub.gauge("g0.core.level"), 4);
        assert_eq!(hub.histogram("g0.lat").unwrap().count(), 1);
        let export = hub.export();
        let names: Vec<_> = export.counters.keys().cloned().collect();
        assert_eq!(names, vec!["g0.net.sent", "g1.net.sent", "net.sent"]);
    }

    #[test]
    fn events_carry_the_active_scope() {
        let mut hub = MetricsHub::new();
        let g1 = hub.register_scope("g1");
        hub.emit(
            SimTime::ZERO,
            ActorId::from_raw(0),
            ProtocolEvent::Retransmit { node: 0, count: 1 },
        );
        hub.set_active_scope(g1);
        hub.emit(
            SimTime::ZERO,
            ActorId::from_raw(1),
            ProtocolEvent::Retransmit { node: 0, count: 2 },
        );
        assert_eq!(hub.events()[0].group, 0);
        assert_eq!(hub.events()[1].group, g1);
    }

    #[test]
    #[should_panic(expected = "unregistered metric scope")]
    fn activating_an_unregistered_scope_panics() {
        let mut hub = MetricsHub::new();
        hub.set_active_scope(3);
    }

    #[test]
    fn unscoped_hub_export_is_unchanged_by_scope_machinery() {
        // A hub that never registers a scope must produce exactly the
        // export it always did — existing baselines depend on it.
        let build = || {
            let mut hub = MetricsHub::new();
            hub.incr("net.sent", 7);
            hub.observe_nanos("lat", 55);
            hub.set_gauge("depth", 2);
            hub.export().to_json()
        };
        let mut scoped = MetricsHub::new();
        let _ = scoped.register_scope("g0"); // registered but never activated
        scoped.incr("net.sent", 7);
        scoped.observe_nanos("lat", 55);
        scoped.set_gauge("depth", 2);
        assert_eq!(build(), build());
        assert_eq!(scoped.export().to_json(), build());
    }

    #[test]
    fn a_handle_and_its_name_share_one_slot_at_the_root_and_in_a_scope() {
        let mut hub = MetricsHub::new();
        let g0 = hub.register_scope("g0");
        hub.incr(crate::metric!("test.shared_slot"), 1);
        hub.incr("test.shared_slot", 2);
        hub.observe_nanos(crate::metric!("test.shared_hist"), 5);
        hub.observe_nanos("test.shared_hist", 7);
        hub.set_active_scope(g0);
        hub.incr("test.shared_slot", 10);
        hub.incr(crate::metric!("test.shared_slot"), 20);
        hub.set_gauge(crate::metric!("test.shared_level"), 3);
        hub.set_gauge("test.shared_level", 4);
        assert_eq!(hub.counter("test.shared_slot"), 3);
        assert_eq!(hub.counter("g0.test.shared_slot"), 30);
        assert_eq!(
            hub.histogram("test.shared_hist").map(Histogram::count),
            Some(2)
        );
        assert_eq!(hub.gauge("g0.test.shared_level"), 4);
        assert_eq!(hub.counters().count(), 2);
    }

    #[test]
    fn names_registered_from_many_threads_get_one_id_each() {
        let names: Vec<&'static str> = (0..64)
            .map(|i| &*Box::leak(format!("test.concurrent_{i}").into_boxed_str()))
            .collect();
        let start = std::sync::Barrier::new(4);
        let seen: Vec<Vec<u32>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    let (names, start) = (&names, &start);
                    // Released together, each thread walks the names from
                    // its own offset, so they race to register every one.
                    s.spawn(move || {
                        start.wait();
                        let mut ids = vec![0; names.len()];
                        for k in 0..names.len() {
                            let i = (k + 16 * t) % names.len();
                            ids[i] = registry::intern(names[i].into());
                        }
                        ids
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        assert!(seen.windows(2).all(|w| w[0] == w[1]));
        let distinct: std::collections::BTreeSet<u32> = seen[0].iter().copied().collect();
        assert_eq!(distinct.len(), names.len());
        for (name, &id) in names.iter().zip(&seen[0]) {
            assert_eq!(registry::lookup(name), Some(id));
        }
    }

    #[test]
    fn a_hub_written_through_handles_exports_what_one_written_by_name_does() {
        let mut by_handle = MetricsHub::new();
        let mut by_name = MetricsHub::new();
        by_handle.register_scope("g1");
        by_name.register_scope("g1");
        // Names are touched in an order unlike their sorted one.
        for round in 0..3u64 {
            by_handle.set_active_scope(0);
            by_name.set_active_scope(0);
            by_handle.incr(crate::metric!("z.sent"), round);
            by_name.incr("z.sent", round);
            by_handle.observe_nanos(crate::metric!("m.latency"), 100 * round);
            by_name.observe_nanos("m.latency", 100 * round);
            by_handle.set_gauge(crate::metric!("a.level"), round);
            by_name.set_gauge("a.level", round);
            by_handle.set_active_scope(1);
            by_name.set_active_scope(1);
            by_handle.incr(crate::metric!("z.sent"), 1);
            by_name.incr("z.sent", 1);
            by_handle.record_value(crate::metric!("b.batch"), round + 1);
            by_name.record_value("b.batch", round + 1);
        }
        let json = by_handle.export().to_json();
        assert_eq!(json, by_name.export().to_json());
        let counters: Vec<_> = by_handle.counters().map(|(k, _)| k).collect();
        assert_eq!(counters, vec!["g1.z.sent", "z.sent"]);
    }
}
