//! Primary read leases (extension A12, LARK-style): when a linearizable
//! read may be answered from the local green database. Each rule returns
//! a decision; the engine applies it with its own replies, metrics and
//! events.

use todr_evs::ConfId;
use todr_sim::SimTime;

use crate::engine::EngineState;
use crate::knowledge::Knowledge;
use crate::types::{ClientRequest, LEASE_DURATION};

/// The facts a lease rule reads: now, the engine's state, its `conf_epoch`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct At(pub SimTime, pub EngineState, pub u64);

/// What to do with a linearizable read.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum LeaseRead {
    /// Answer it from the green database now.
    Serve,
    /// [`ReadLease::park`] it behind a receipted-but-not-yet-green write
    /// to its row.
    Park,
    /// No valid lease, or an unbounded query: order it as an action.
    Ordered,
}

/// One replica's read lease and the reads parked under it.
#[derive(Debug, Default)]
pub(crate) struct ReadLease {
    /// `conf_epoch` at the grant: a configuration change revokes the
    /// lease even before [`ReadLease::revoke`] runs.
    lease_epoch: u64,
    /// When the lease drains; zero once revoked.
    lease_expiry: SimTime,
    /// Reads parked behind a receipted write, in arrival order, each
    /// with the fingerprint of the row it reads.
    parked_lease: Vec<(u64, ClientRequest)>,
}

impl ReadLease {
    /// Whether the lease holds: only in the regular primary configuration
    /// of the epoch it was granted in, until [`LEASE_DURATION`] after the
    /// last grant or renewal.
    pub(crate) fn valid(&self, At(now, state, epoch): At) -> bool {
        state == EngineState::RegPrim && self.lease_epoch == epoch && now < self.lease_expiry
    }

    /// Decides a linearizable read of the row fingerprinted `row`
    /// (`None`: an unbounded query, which conflicts with every write and
    /// goes ordered). An update acknowledged to any client was green at
    /// its origin, so every member had receipted it first: with eager
    /// receipts this engine holds it at least red. The read therefore
    /// parks behind any receipted-but-not-yet-green write to its row.
    pub(crate) fn read(&self, k: &Knowledge, row: Option<u64>, at: At) -> LeaseRead {
        match row {
            Some(row) if self.valid(at) => match blocked(k, row) {
                true => LeaseRead::Park,
                false => LeaseRead::Serve,
            },
            _ => LeaseRead::Ordered,
        }
    }

    /// Parks `req`, a read of the row fingerprinted `row`, until a green
    /// mark unblocks it.
    pub(crate) fn park(&mut self, row: u64, req: ClientRequest) {
        self.parked_lease.push((row, req));
    }

    /// Hands back, in arrival order, the parked reads a green mark may
    /// have unblocked, to be served afresh. A read still blocked stays
    /// parked and is not decided (or counted) again.
    pub(crate) fn unpark(&mut self, k: &Knowledge, at: At) -> Vec<ClientRequest> {
        let valid = self.valid(at);
        let parked = std::mem::take(&mut self.parked_lease);
        let (blocked, ready): (Vec<_>, Vec<_>) = parked
            .into_iter()
            .partition(|&(row, _)| valid && blocked(k, row));
        self.parked_lease = blocked;
        ready.into_iter().map(|(_, req)| req).collect()
    }

    /// Grants the lease at install; returns when it drains.
    pub(crate) fn grant(&mut self, At(now, _, epoch): At) -> SimTime {
        self.lease_epoch = epoch;
        self.lease_expiry = now + LEASE_DURATION;
        self.lease_expiry
    }

    /// Heartbeat renewal for configuration `conf_id`. Renews only a lease
    /// granted in the current configuration `current`: a renewal that
    /// raced a view change is dropped. Returns the new expiry.
    pub(crate) fn renew(
        &mut self,
        at: At,
        current: Option<ConfId>,
        conf_id: ConfId,
    ) -> Option<SimTime> {
        let At(_, state, epoch) = at;
        let here = state == EngineState::RegPrim && current == Some(conf_id);
        (here && self.lease_epoch == epoch).then(|| self.grant(at))
    }

    /// Revokes the lease (view change or crash). Returns whether it was
    /// still live, and the parked reads.
    pub(crate) fn revoke(&mut self, at: At) -> (bool, Vec<ClientRequest>) {
        let live = self.valid(at);
        self.lease_expiry = SimTime::ZERO;
        (
            live,
            self.parked_lease.drain(..).map(|(_, req)| req).collect(),
        )
    }
}

/// Whether a receipted-but-not-yet-green write (red or yellow) covers the
/// row fingerprinted `row`. A body missing from the store counts as one.
/// Nothing in flight answers at once; otherwise each body's write
/// footprint, computed once per body and shared, is searched for the one
/// row: a read allocates nothing here.
fn blocked(k: &Knowledge, row: u64) -> bool {
    k.in_flight()
        .any(|(_, body)| body.is_none_or(|b| b.class().is_some_and(|c| c.writes.contains(row))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, ActionId, ActionKind, Body, ClientId};
    use crate::knowledge::Accept;
    use crate::types::RequestId;
    use crate::{QuerySemantics, ReadConsistency, UpdateReplyPolicy};
    use todr_db::keys::row_fingerprint;
    use todr_db::{Op, Query};
    use todr_net::NodeId;
    use todr_sim::{ActorId, SimDuration};

    const EPOCH: u64 = 3;

    /// `ms` after the grant, in the regular primary of `EPOCH`.
    fn at(ms: u64) -> At {
        At(time(ms), EngineState::RegPrim, EPOCH)
    }

    fn time(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn get(key: &str) -> ClientRequest {
        ClientRequest {
            request: RequestId(1),
            client: ClientId(1),
            reply_to: ActorId::from_raw(0),
            query: Some(Query::get("t", key)),
            update: Op::Noop,
            query_semantics: QuerySemantics::Strict,
            reply_policy: UpdateReplyPolicy::OnGreen,
            read_consistency: Some(ReadConsistency::Linearizable),
            size_bytes: 64,
        }
    }

    /// Decides a read of `key` as the engine does, parking it on
    /// [`LeaseRead::Park`].
    fn read(lease: &mut ReadLease, k: &Knowledge, key: &str, at: At) -> LeaseRead {
        let row = row_fingerprint("t", key);
        let read = lease.read(k, Some(row), at);
        if read == LeaseRead::Park {
            lease.park(row, get(key));
        }
        read
    }

    fn nothing_in_flight() -> Knowledge {
        Knowledge::new(NodeId::new(0), (0..3).map(NodeId::new))
    }

    /// Server 1's put to `key`, receipted (red) but not green.
    fn red_write(key: &str) -> Knowledge {
        let mut k = nothing_in_flight();
        let body = Body::new(Action {
            id: ActionId {
                server: NodeId::new(1),
                index: 1,
            },
            green_line: 0,
            client: ClientId(2),
            kind: ActionKind::App {
                query: None,
                update: Op::put("t", key, 7),
            },
            size_bytes: 64,
        });
        assert!(matches!(k.accept_red(&body), Accept::New));
        k
    }

    fn granted() -> ReadLease {
        let mut lease = ReadLease::default();
        assert_eq!(lease.grant(at(0)), time(0) + LEASE_DURATION);
        lease
    }

    #[test]
    fn the_lease_lapses_exactly_at_its_expiry_instant() {
        let lease = granted();
        let expiry = time(0) + LEASE_DURATION;
        let just_before = At(
            expiry - SimDuration::from_nanos(1),
            EngineState::RegPrim,
            EPOCH,
        );
        assert!(lease.valid(just_before));
        assert!(!lease.valid(At(expiry, EngineState::RegPrim, EPOCH)));
        assert!(!lease.valid(At(time(1), EngineState::TransPrim, EPOCH)));
    }

    #[test]
    fn a_conf_epoch_bump_revokes_the_lease_before_it_drains() {
        let mut lease = granted();
        let bumped = At(time(1), EngineState::RegPrim, EPOCH + 1);
        assert!(!lease.valid(bumped));
        let k = nothing_in_flight();
        assert_eq!(read(&mut lease, &k, "a", bumped), LeaseRead::Ordered);
        assert_eq!(read(&mut lease, &k, "a", at(1)), LeaseRead::Serve);
        // An unbounded query goes ordered under a valid lease too.
        assert_eq!(lease.read(&k, None, at(1)), LeaseRead::Ordered);
    }

    #[test]
    fn a_renewal_for_another_configuration_is_dropped() {
        let mut lease = granted();
        let conf = |seq| ConfId {
            seq,
            coordinator: NodeId::new(0),
        };
        assert_eq!(lease.renew(at(30), Some(conf(5)), conf(4)), None);
        assert!(!lease.valid(At(time(0) + LEASE_DURATION, EngineState::RegPrim, EPOCH)));
        let renewed = lease.renew(at(30), Some(conf(5)), conf(5));
        assert_eq!(renewed, Some(time(30) + LEASE_DURATION));
    }

    #[test]
    fn a_still_blocked_parked_read_reparks_without_a_second_decision() {
        let k = red_write("a");
        let mut lease = granted();
        assert_eq!(read(&mut lease, &k, "a", at(1)), LeaseRead::Park);
        assert_eq!(read(&mut lease, &k, "b", at(1)), LeaseRead::Serve);
        // Still blocked: nothing comes back, so the engine counts nothing.
        assert!(lease.unpark(&k, at(2)).is_empty());
        assert_eq!(lease.parked_lease.len(), 1);
        // The write went green (nothing in flight): the read comes back.
        assert_eq!(lease.unpark(&nothing_in_flight(), at(3)).len(), 1);
        assert!(lease.parked_lease.is_empty());
    }

    #[test]
    fn a_view_change_hands_the_parked_reads_back() {
        let k = red_write("a");
        let mut lease = granted();
        for _ in 0..2 {
            assert_eq!(read(&mut lease, &k, "a", at(1)), LeaseRead::Park);
        }
        let (live, parked) = lease.revoke(at(2));
        assert!(live);
        assert_eq!(parked.len(), 2);
        assert!(!lease.valid(at(2)));
        let (live, parked) = lease.revoke(at(2));
        assert!(!live && parked.is_empty());
    }
}
