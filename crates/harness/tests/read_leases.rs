//! Consistency-tiered reads end to end: the three [`ReadConsistency`]
//! tiers return the right values, lease reads park behind conflicting
//! receipted writes, and — the race matrix — a lease holder cut off
//! from the primary never serves a stale linearizable read after its
//! lease expires: the read re-routes into the ordered path and answers
//! only after the merge, with the new primary's writes visible.

use todr_core::{
    ClientId, ClientReply, ClientRequest, QuerySemantics, ReadConsistency, RequestId,
    UpdateReplyPolicy,
};
use todr_db::{Op, Query, QueryResult, Value};
use todr_harness::client::{ClientConfig, ZipfianKeys};
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_sim::{
    Actor, ActorId, Ctx, EventColor, Payload, ProtocolEvent, ReadTier, SimDuration, TieBreak,
};

struct OneShot {
    engine: ActorId,
    reply: Option<ClientReply>,
}

struct Fire(ClientRequest);

impl Actor for OneShot {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let payload = match payload.try_downcast::<Fire>() {
            Ok(Fire(mut req)) => {
                req.reply_to = ctx.self_id();
                ctx.send_now(self.engine, req);
                return;
            }
            Err(p) => p,
        };
        if let Some(reply) = payload.downcast::<ClientReply>() {
            self.reply = Some(reply);
        }
    }
}

fn fire(cluster: &mut Cluster, server: usize, req: ClientRequest) -> ActorId {
    let engine = cluster.servers[server].engine;
    let probe = cluster.world.add_actor(
        "probe",
        OneShot {
            engine,
            reply: None,
        },
    );
    cluster.world.schedule_now(probe, Fire(req));
    probe
}

fn write(cluster: &mut Cluster, server: usize, update: Op) -> ActorId {
    fire(
        cluster,
        server,
        ClientRequest {
            request: RequestId(1),
            client: ClientId(7),
            reply_to: ActorId::from_raw(0),
            query: None,
            update,
            query_semantics: QuerySemantics::Strict,
            read_consistency: None,
            reply_policy: UpdateReplyPolicy::OnGreen,
            size_bytes: 200,
        },
    )
}

fn read(
    cluster: &mut Cluster,
    server: usize,
    table: &str,
    key: &str,
    tier: ReadConsistency,
) -> ActorId {
    fire(
        cluster,
        server,
        ClientRequest {
            request: RequestId(2),
            client: ClientId(8),
            reply_to: ActorId::from_raw(0),
            query: Some(Query::get(table, key)),
            update: Op::Noop,
            query_semantics: QuerySemantics::Strict,
            read_consistency: Some(tier),
            reply_policy: UpdateReplyPolicy::OnGreen,
            size_bytes: 64,
        },
    )
}

fn reply(cluster: &mut Cluster, probe: ActorId) -> Option<ClientReply> {
    cluster
        .world
        .with_actor(probe, |p: &mut OneShot| p.reply.take())
}

/// Reads `node` served at `tier`, from the typed event log.
fn reads_served(cluster: &Cluster, node: u32, tier: ReadTier) -> usize {
    cluster
        .world
        .metrics()
        .events_where(|e| matches!(e, ProtocolEvent::ReadServed { node: n, tier: t, .. } if *n == node && *t == tier))
        .count()
}

/// The answer value, whichever path (local tier or ordered fallback)
/// carried it.
fn answer_value(reply: &ClientReply) -> Option<Option<Value>> {
    match reply {
        ClientReply::QueryAnswer {
            result: QueryResult::Value(v),
            ..
        } => Some(v.clone()),
        ClientReply::Committed {
            result: Some(QueryResult::Value(v)),
            ..
        } => Some(v.clone()),
        _ => None,
    }
}

#[test]
fn tiered_reads_return_correct_values() {
    let config = ClusterConfig::builder(5, 21)
        .read_leases(true)
        .build()
        .unwrap();
    let mut cluster = Cluster::build(config);
    cluster.settle();

    let w = write(&mut cluster, 0, Op::put("bench", "k", Value::Int(1)));
    cluster.run_for(SimDuration::from_millis(100));
    assert!(matches!(
        reply(&mut cluster, w),
        Some(ClientReply::Committed { .. })
    ));

    // All three tiers see the committed value; the linearizable one is
    // answered locally under the lease (no ordered round).
    for (tier, dirty_expected) in [
        (ReadConsistency::Linearizable, false),
        (ReadConsistency::GreenSnapshot, false),
        (ReadConsistency::RedOverlay, true),
    ] {
        let r = read(&mut cluster, 2, "bench", "k", tier);
        cluster.run_for(SimDuration::from_millis(30));
        let rep = reply(&mut cluster, r).unwrap_or_else(|| panic!("{tier:?} read unanswered"));
        assert_eq!(
            answer_value(&rep),
            Some(Some(Value::Int(1))),
            "{tier:?} read returned the wrong value"
        );
        if let ClientReply::QueryAnswer { dirty, .. } = rep {
            assert_eq!(dirty, dirty_expected, "{tier:?} dirtiness flag");
        } else {
            panic!("{tier:?} read did not come back as a local QueryAnswer");
        }
    }
    assert_eq!(
        reads_served(&cluster, 2, ReadTier::LeaseLinearizable),
        1,
        "linearizable read not lease-served"
    );
    assert_eq!(reads_served(&cluster, 2, ReadTier::GreenSnapshot), 1);
    assert_eq!(reads_served(&cluster, 2, ReadTier::RedOverlay), 1);

    // In a partitioned minority, a red (locally ordered, not yet green)
    // increment is visible to RedOverlay but never to GreenSnapshot.
    // Let the minority install its own (non-primary) configuration
    // first so local red ordering resumes.
    cluster.partition(&[vec![0, 1, 2], vec![3, 4]]);
    cluster.run_for(SimDuration::from_secs(1));
    let u = fire(
        &mut cluster,
        4,
        ClientRequest {
            request: RequestId(3),
            client: ClientId(9),
            reply_to: ActorId::from_raw(0),
            query: None,
            update: Op::incr("bench", "cnt", 5),
            query_semantics: QuerySemantics::Strict,
            read_consistency: None,
            reply_policy: UpdateReplyPolicy::OnRed,
            size_bytes: 200,
        },
    );
    cluster.run_for(SimDuration::from_millis(100));
    assert!(matches!(
        reply(&mut cluster, u),
        Some(ClientReply::Committed { .. })
    ));

    let g = read(
        &mut cluster,
        4,
        "bench",
        "cnt",
        ReadConsistency::GreenSnapshot,
    );
    let o = read(&mut cluster, 4, "bench", "cnt", ReadConsistency::RedOverlay);
    cluster.run_for(SimDuration::from_millis(30));
    let g = reply(&mut cluster, g).expect("snapshot read unanswered");
    assert_eq!(
        answer_value(&g),
        Some(None),
        "GreenSnapshot observed a red-only write"
    );
    let o = reply(&mut cluster, o).expect("overlay read unanswered");
    assert_eq!(
        answer_value(&o),
        Some(Some(Value::Int(5))),
        "RedOverlay missed the red suffix"
    );

    cluster.merge_all();
    cluster.run_for(SimDuration::from_secs(2));
    cluster.check_consistency();
}

#[test]
fn lease_reads_park_behind_conflicting_receipted_writes() {
    let config = ClusterConfig::builder(5, 22)
        .read_leases(true)
        .build()
        .unwrap();
    let mut cluster = Cluster::build(config);
    cluster.settle();

    // One writer and one remote reader hammer a single shared key: the
    // reader's linearizable reads keep arriving while the writer's
    // updates are receipted but not yet green, so some must park.
    let one_key = ZipfianKeys {
        keys: 1,
        theta: 0.99,
    };
    cluster.attach_client(
        0,
        ClientConfig {
            zipfian: Some(one_key.clone()),
            ..ClientConfig::default()
        },
    );
    let reader = cluster.attach_client(
        2,
        ClientConfig {
            read_pct: 100,
            read_consistency: Some(ReadConsistency::Linearizable),
            zipfian: Some(one_key),
            ..ClientConfig::default()
        },
    );
    cluster.run_for(SimDuration::from_secs(2));

    let reads = cluster.client_stats(reader).reads;
    assert!(reads > 0, "reader made no progress");
    let hub = cluster.world.metrics();
    let parked = hub.counter("engine.lease_reads_parked");
    let served = hub.counter("engine.lease_reads");
    assert!(served > 0, "no lease reads served");
    assert!(
        parked > 0,
        "no lease read ever parked behind a receipted write \
         (served {served}, reads {reads})"
    );
    cluster.check_consistency();
}

/// A lease read parked behind one receipted write is re-checked at every
/// green mark until that write is green, and counts as parked once, not
/// once per re-check.
#[test]
fn a_parked_lease_read_counts_once_across_unrelated_greens() {
    let config = ClusterConfig::builder(5, 23)
        .read_leases(true)
        .delayed_writes()
        .build()
        .unwrap();
    let mut cluster = Cluster::build(config);
    cluster.settle();
    let w = write(&mut cluster, 0, Op::put("bench", "k", Value::Int(1)));
    cluster.run_for(SimDuration::from_millis(100));
    assert!(matches!(
        reply(&mut cluster, w),
        Some(ClientReply::Committed { .. })
    ));
    let parked_before = cluster.world.metrics().counter("engine.lease_reads_parked");

    // Two writes to other rows, then one to `k`, from server 0: all
    // three are receipted at server 2 before the first turns green.
    for update in [
        Op::put("bench", "a", Value::Int(7)),
        Op::put("bench", "b", Value::Int(8)),
        Op::put("bench", "k", Value::Int(2)),
    ] {
        write(&mut cluster, 0, update);
    }
    let origin = cluster.servers[0].node;
    let receipted = |c: &mut Cluster| {
        c.with_engine(2, |e| {
            e.red_ids().iter().filter(|id| id.server == origin).count()
        })
    };
    let mut steps = 0;
    while receipted(&mut cluster) < 3 {
        assert!(cluster.world.step(), "world ran dry");
        steps += 1;
        assert!(steps < 100_000, "the writes were never receipted together");
    }

    let node = cluster.servers[2].node.index();
    let fired_at = cluster.world.metrics().events().len();
    let r = read(&mut cluster, 2, "bench", "k", ReadConsistency::Linearizable);
    cluster.run_for(SimDuration::from_millis(200));
    let rep = reply(&mut cluster, r).expect("parked read never answered");
    assert_eq!(answer_value(&rep), Some(Some(Value::Int(2))));

    // It was served under the lease, after all three writes went green
    // at server 2: it sat parked through two unrelated green marks.
    let events = &cluster.world.metrics().events()[fired_at..];
    let served = events
        .iter()
        .position(|r| {
            matches!(r.event, ProtocolEvent::ReadServed { node: n, tier: ReadTier::LeaseLinearizable, .. } if n == node)
        })
        .expect("the read was not lease-served");
    let greens_while_parked = events[..served]
        .iter()
        .filter(|r| {
            matches!(r.event, ProtocolEvent::ActionOrdered { node: n, color: EventColor::Green, .. } if n == node)
        })
        .count();
    assert_eq!(greens_while_parked, 3);
    let parked = cluster.world.metrics().counter("engine.lease_reads_parked") - parked_before;
    assert_eq!(parked, 1, "one parked read, counted {parked} times");
    cluster.check_consistency();
}

/// The lease-expiry race matrix. A lease holder is partitioned away,
/// virtual time advances past its (renewal-extended) expiry, the new
/// primary on the majority side commits a write, and the partition
/// heals — across same-instant tie-breaks and with a torn-write crash
/// of the stale holder. At no point may the stale holder answer a
/// linearizable read from its frozen prefix: before the heal the read
/// re-routes into the ordered path and stays pending; after the heal it
/// answers with the new primary's write visible.
#[test]
fn stale_holder_reads_reroute_never_stale() {
    for (case, tie_break) in [TieBreak::Fifo, TieBreak::Seeded(1), TieBreak::Seeded(2)]
        .into_iter()
        .enumerate()
    {
        for torn in [false, true] {
            let config = ClusterConfig::builder(5, 33 + case as u64)
                .tie_break(tie_break)
                .read_leases(true)
                .build()
                .unwrap();
            let mut cluster = Cluster::build(config);
            cluster.settle();
            let ctx = format!("case {case} torn {torn}");

            let w = write(&mut cluster, 0, Op::put("bench", "k", Value::Int(1)));
            cluster.run_for(SimDuration::from_millis(100));
            assert!(
                matches!(reply(&mut cluster, w), Some(ClientReply::Committed { .. })),
                "{ctx}: seed write did not commit"
            );

            // Cut the stale holder (server 4) off with server 3.
            cluster.partition(&[vec![0, 1, 2], vec![3, 4]]);

            // Immediately after the cut the holder's lease is still
            // valid — and still safe: the majority cannot have formed a
            // new primary yet (2·heartbeat + lease < failure timeout),
            // so the frozen prefix is the current one.
            cluster.run_for(SimDuration::from_millis(5));
            let r1 = read(&mut cluster, 4, "bench", "k", ReadConsistency::Linearizable);
            cluster.run_for(SimDuration::from_millis(20));
            let r1 = reply(&mut cluster, r1).expect("in-lease read unanswered");
            assert_eq!(
                answer_value(&r1),
                Some(Some(Value::Int(1))),
                "{ctx}: in-lease read wrong value"
            );

            // Past every possible renewal: the cut stops heartbeat
            // evidence within 2 heartbeats, so by 2·hb + LEASE_DURATION
            // (160 ms at defaults) the lease is dead for good.
            cluster.run_for(SimDuration::from_millis(200));
            let r2 = read(&mut cluster, 4, "bench", "k", ReadConsistency::Linearizable);
            cluster.run_for(SimDuration::from_millis(400));
            assert!(
                reply(&mut cluster, r2).is_none(),
                "{ctx}: post-expiry read answered inside the partition"
            );

            // The majority re-forms and commits a newer value.
            let w2 = write(&mut cluster, 0, Op::put("bench", "k", Value::Int(2)));
            cluster.run_for(SimDuration::from_millis(500));
            assert!(
                matches!(reply(&mut cluster, w2), Some(ClientReply::Committed { .. })),
                "{ctx}: majority write did not commit"
            );
            assert!(
                reply(&mut cluster, r2).is_none(),
                "{ctx}: stale holder answered while the new primary was live"
            );

            if torn {
                // A torn-write crash of the stale holder: its parked
                // read dies with the incarnation (the client would
                // retry); recovery must still rejoin cleanly.
                cluster.crash_torn(4);
                cluster.run_for(SimDuration::from_millis(100));
                cluster.recover(4);
            }

            cluster.merge_all();
            cluster.run_for(SimDuration::from_secs(3));

            if !torn {
                // The re-routed read drained through the ordered path
                // after the merge — with the majority's write visible,
                // never the stale value.
                let r2 = reply(&mut cluster, r2)
                    .unwrap_or_else(|| panic!("{ctx}: re-routed read never answered"));
                assert_eq!(
                    answer_value(&r2),
                    Some(Some(Value::Int(2))),
                    "{ctx}: re-routed read returned a stale value"
                );
                assert!(
                    reads_served(&cluster, 4, ReadTier::OrderedLinearizable) >= 1,
                    "{ctx}: the post-expiry read was not re-routed"
                );
                // The holder re-entered a primary after the heal and
                // sealed a fresh lease to the new configuration.
                let grants = cluster
                    .world
                    .metrics()
                    .events_where(|e| {
                        matches!(
                            e,
                            ProtocolEvent::LeaseGranted {
                                node: 4,
                                renewal: false,
                                ..
                            }
                        )
                    })
                    .count();
                assert!(grants >= 2, "{ctx}: no fresh lease after the heal");
            }

            // A fresh linearizable read at the healed ex-holder serves
            // the new value (locally again, under the new lease).
            let r3 = read(&mut cluster, 4, "bench", "k", ReadConsistency::Linearizable);
            cluster.run_for(SimDuration::from_millis(50));
            let r3 = reply(&mut cluster, r3)
                .unwrap_or_else(|| panic!("{ctx}: post-heal read unanswered"));
            assert_eq!(
                answer_value(&r3),
                Some(Some(Value::Int(2))),
                "{ctx}: post-heal read wrong value"
            );
            cluster.check_consistency();
        }
    }
}
