//! # todr-sim — deterministic discrete-event simulation kernel
//!
//! Every other layer of the `todr` system — the partitionable network, the
//! Extended Virtual Synchrony group-communication stack, the simulated
//! stable storage and the replication engines themselves — runs inside this
//! kernel. The kernel provides:
//!
//! * a **virtual clock** ([`SimTime`], [`SimDuration`]) with nanosecond
//!   resolution — experiments measure latency and throughput in virtual
//!   time, so results are exactly reproducible and independent of host
//!   machine speed;
//! * an **event queue** with a total, deterministic order (time, then
//!   insertion sequence), plus a pluggable same-instant [`TieBreak`]
//!   policy that schedule-exploration harnesses use to sweep
//!   alternative (still deterministic, replayable) interleavings;
//! * an **actor registry** ([`World`]): each simulated process (a network
//!   fabric, a group-communication daemon, a replication server, a client)
//!   is an [`Actor`] that receives typed payloads through [`Ctx`];
//! * a **seeded RNG** ([`SimRng`]) so that stochastic workloads and network
//!   jitter are reproducible from a single `u64` seed;
//! * a typed **observability bus** ([`MetricsHub`]): named counters,
//!   fixed-bucket latency histograms and structured [`ProtocolEvent`]s
//!   that every protocol layer reports into, exportable as
//!   deterministic JSON ([`MetricsExport`]).
//!
//! # Example
//!
//! ```
//! use todr_sim::{Actor, Ctx, Payload, SimDuration, World};
//!
//! /// An actor that counts the ticks it receives and re-arms a timer.
//! struct Ticker {
//!     remaining: u32,
//! }
//!
//! struct Tick;
//!
//! impl Actor for Ticker {
//!     fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
//!         if payload.downcast::<Tick>().is_some() && self.remaining > 0 {
//!             self.remaining -= 1;
//!             ctx.send_self_after(SimDuration::from_millis(10), Tick);
//!         }
//!     }
//! }
//!
//! let mut world = World::new(42);
//! let ticker = world.add_actor("ticker", Ticker { remaining: 3 });
//! world.schedule_now(ticker, Tick);
//! world.run_to_quiescence();
//! // 1 initial tick + 3 re-armed ticks, 10ms apart.
//! assert_eq!(world.now(), todr_sim::SimTime::from_millis(30));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod checksum;
mod delivery;
mod event;
pub mod metrics;
mod resource;
mod rng;
mod time;
mod world;

pub use actor::{Actor, ActorId};
pub use checksum::{checksum64, checksum64_of, checksum64_words};
pub use delivery::{DeliveredRun, DeliveredSlot};
pub use event::{IntoPayload, Payload};
pub use metrics::{
    EventColor, Footprint, Histogram, HistogramSummary, Metric, MetricName, MetricsExport,
    MetricsHub, ProtocolEvent, ReadTier, RecordedEvent,
};
pub use resource::{ApplyHorizon, CpuMeter};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use world::{Ctx, HandlerCost, TieBreak, World};
