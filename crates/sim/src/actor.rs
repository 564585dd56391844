//! The actor abstraction: every simulated process implements [`Actor`].

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::event::Payload;
use crate::metrics::MetricsHub;
use crate::time::SimTime;
use crate::world::Ctx;

/// Identifier of an actor registered in a [`World`](crate::World).
///
/// Actor ids are dense indices handed out by
/// [`World::add_actor`](crate::World::add_actor) in registration order;
/// they are stable for the lifetime of the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ActorId(u32);

impl ActorId {
    /// Builds an id from its raw index. Intended for tests and for tables
    /// that map domain identifiers to actors.
    pub const fn from_raw(raw: u32) -> Self {
        ActorId(raw)
    }

    /// The raw index.
    pub const fn as_raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// A simulated process.
///
/// Actors are single-threaded and run-to-completion: the world invokes
/// [`Actor::handle`] with one event at a time, and all side effects (timers,
/// messages to other actors) go through the [`Ctx`] passed in. An actor
/// never blocks; waiting is expressed by scheduling a future event.
///
/// ```
/// use todr_sim::{Actor, Ctx, Payload};
///
/// struct Echo;
///
/// struct Say(&'static str);
///
/// impl Actor for Echo {
///     fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
///         if let Some(Say(s)) = payload.downcast::<Say>() {
///             ctx.metrics().incr(s, 1);
///         }
///     }
/// }
/// ```
pub trait Actor: std::any::Any {
    /// Processes one event. `payload` is whatever another actor (or the
    /// experiment driver) scheduled for this actor.
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload);

    /// The kind of event `payload` is, as a row label of
    /// [`World::step_profile_by_event`](crate::World::step_profile_by_event).
    /// Asked only while the step profile is on; an actor that does not
    /// say has one kind, `"all"`.
    fn event_kind(&self, payload: &Payload) -> &'static str {
        let _ = payload;
        "all"
    }

    /// Called when the world pauses — at the end of
    /// [`World::run_until`](crate::World::run_until) (and so
    /// [`World::run_for`](crate::World::run_for)) and
    /// [`World::run_to_quiescence`](crate::World::run_to_quiescence) —
    /// with every event up to `now` processed. An actor that accounts
    /// for something lazily, without an event of its own, brings its
    /// metrics up to `now` here, so whatever the driver reads between
    /// runs is exact. It cannot schedule anything. Writes land in the
    /// actor's metric scope.
    fn on_pause(&mut self, now: SimTime, metrics: &mut MetricsHub) {
        let _ = (now, metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_id_roundtrip_and_order() {
        let a = ActorId::from_raw(3);
        assert_eq!(a.as_raw(), 3);
        assert!(ActorId::from_raw(1) < ActorId::from_raw(2));
        assert_eq!(a.to_string(), "actor#3");
    }
}
