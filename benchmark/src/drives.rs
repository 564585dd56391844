//! Layer drives — per-layer source (c): the benchmark calls one layer's
//! public functions in isolation and times them with `Instant`.
//!
//! In-situ host attribution per actor needs a hook inside `World::step`
//! (ROADMAP item 2, a later issue); until then the drives give each
//! layer's stand-alone unit cost. Each drive is sized to run for a few
//! hundred milliseconds, takes the median of several rounds where it is
//! short, and passes its results through `black_box`.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use todr_db::conflict::classify;
use todr_db::Database;
use todr_evs::{EvsCmd, EvsConfig, EvsDaemon, EvsEvent};
use todr_harness::cluster::ClusterConfig;
use todr_net::{Datagram, NetConfig, NetFabric, NetOp, NodeId};
use todr_sim::{
    Actor, ActorId, Ctx, MetricsHub, Payload, ProtocolEvent, RecordedEvent, SimDuration, SimTime,
    World,
};
use todr_storage::{DiskActor, DiskDone, DiskOp, StorageHandle, SyncToken};

use crate::gen::{GenOp, OpStream, UPDATE_BYTES};
use crate::report::LayerMetric;
use crate::stats::median;
use crate::workloads::Workload;

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

// ---------------------------------------------------------------------
// sim
// ---------------------------------------------------------------------

/// Re-arms a timer on every tick; every eighth tick also sends one
/// message to each peer — the two things the kernel does for the stack:
/// timer churn and fan-out.
struct Relay {
    peers: Rc<[ActorId]>,
    ticks: u64,
    received: u64,
}

struct RelayTick;
struct RelayMsg;

impl Actor for Relay {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        if payload.is::<RelayMsg>() {
            self.received += 1;
            return;
        }
        self.ticks += 1;
        ctx.send_self_after(SimDuration::from_micros(100), RelayTick);
        if self.ticks.is_multiple_of(8) {
            let me = ctx.self_id();
            for &p in self.peers.iter().filter(|&&p| p != me) {
                ctx.send_after(SimDuration::from_micros(150), p, RelayMsg);
            }
        }
    }
}

/// `sim.kernel_ns_per_event`: a world of `n` relay actors, nothing but
/// the kernel's queue, dispatch and payload boxing.
fn kernel(n: u32) -> LayerMetric {
    const EVENTS: u64 = 1_500_000;
    let rounds: Vec<f64> = (0..3u64)
        .map(|round| {
            let mut world = World::new(round);
            let ids: Vec<ActorId> = (0..n)
                .map(|i| {
                    world.add_actor(
                        format!("relay-{i}"),
                        Relay {
                            peers: Rc::new([]),
                            ticks: 0,
                            received: 0,
                        },
                    )
                })
                .collect();
            let peers: Rc<[ActorId]> = ids.clone().into();
            for &id in &ids {
                world.with_actor(id, |r: &mut Relay| r.peers = Rc::clone(&peers));
                world.schedule_now(id, RelayTick);
            }
            let (secs, ()) = timed(|| {
                while world.events_processed() < EVENTS {
                    world.step();
                }
            });
            black_box(world.now());
            secs * 1e9 / world.events_processed() as f64
        })
        .collect();
    LayerMetric::drive(
        "sim.kernel_ns_per_event",
        "sim",
        "ns",
        "host",
        median(&rounds),
        EVENTS,
    )
}

/// `sim.metrics_ns_per_record`: the hub's three record kinds in a loop.
fn metrics_hub() -> LayerMetric {
    const ITERS: u64 = 150_000;
    let rounds: Vec<f64> = (0..3)
        .map(|_| {
            let mut hub = MetricsHub::new();
            let actor = ActorId::from_raw(1);
            let (secs, ()) = timed(|| {
                for i in 0..ITERS {
                    hub.incr("drive.counter", 1);
                    hub.observe_nanos("drive.latency", 1_000 + i);
                    hub.emit(
                        SimTime::from_nanos(i),
                        actor,
                        ProtocolEvent::GreenLineAdvance { node: 0, green: i },
                    );
                }
            });
            black_box(hub.counter("drive.counter"));
            secs * 1e9 / (3 * ITERS) as f64
        })
        .collect();
    LayerMetric::drive(
        "sim.metrics_ns_per_record",
        "sim",
        "ns",
        "host",
        median(&rounds),
        3 * ITERS,
    )
}

// ---------------------------------------------------------------------
// net
// ---------------------------------------------------------------------

struct DatagramSink {
    got: u64,
}

impl Actor for DatagramSink {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, payload: Payload) {
        if payload.is::<Datagram>() {
            self.got += 1;
        }
    }
}

/// `net.fanout_ns_per_datagram`: the fabric multicasting one shared
/// 200-byte payload to `n - 1` sinks.
fn fanout(n: u32) -> Result<LayerMetric, String> {
    let sends = 400_000 / u64::from(n.max(2) - 1);
    let mut world = World::new(7);
    let fabric = world.add_actor("net", NetFabric::new(NetConfig::lan()));
    let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let sinks: Vec<ActorId> = nodes
        .iter()
        .map(|&node| {
            let sink = world.add_actor(format!("sink-{node}"), DatagramSink { got: 0 });
            world.with_actor(fabric, |f: &mut NetFabric| f.register(node, sink));
            sink
        })
        .collect();
    let dsts: Rc<[NodeId]> = nodes[1..].to_vec().into();
    let body: Rc<dyn std::any::Any> = Rc::new(vec![0xABu8; UPDATE_BYTES as usize]);
    let (secs, ()) = timed(|| {
        for _ in 0..sends {
            world.schedule_now(
                fabric,
                NetOp::multicast_shared(nodes[0], Rc::clone(&dsts), Rc::clone(&body), UPDATE_BYTES),
            );
            // Drain as the stack does: a send is followed by its
            // deliveries, not queued behind a million others.
            world.run_for(SimDuration::from_millis(1));
        }
        world.run_to_quiescence();
    });
    let got: u64 = sinks
        .iter()
        .map(|&s| world.with_actor(s, |s: &mut DatagramSink| s.got))
        .sum();
    let expect = sends * (u64::from(n) - 1);
    if got != expect {
        return Err(format!(
            "fan-out drive delivered {got} of {expect} datagrams"
        ));
    }
    Ok(LayerMetric::drive(
        "net.fanout_ns_per_datagram",
        "net",
        "ns",
        "host",
        secs * 1e9 / got as f64,
        got,
    ))
}

// ---------------------------------------------------------------------
// evs
// ---------------------------------------------------------------------

/// Stands where the engine stands: counts safe deliveries.
struct CountingApp {
    delivered: u64,
    last_at: SimTime,
}

impl Actor for CountingApp {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        if let Some(EvsEvent::Deliver(_)) = payload.downcast::<EvsEvent>() {
            self.delivered += 1;
            self.last_at = ctx.now();
        }
    }
}

struct EvsGroup {
    world: World,
    daemons: Vec<ActorId>,
    apps: Vec<ActorId>,
}

impl EvsGroup {
    /// `n` daemons over a LAN fabric with the workload's EVS settings,
    /// run until one view holds them all.
    fn build(cfg: &ClusterConfig) -> Result<EvsGroup, String> {
        let mut world = World::new(cfg.seed);
        let fabric = world.add_actor("net", NetFabric::new(cfg.net.clone()));
        let nodes: Vec<NodeId> = (0..cfg.n_servers).map(NodeId::new).collect();
        let (mut daemons, mut apps) = (Vec::new(), Vec::new());
        for &node in &nodes {
            let app = world.add_actor(
                format!("app-{node}"),
                CountingApp {
                    delivered: 0,
                    last_at: SimTime::ZERO,
                },
            );
            let evs = EvsConfig {
                universe: nodes.clone(),
                hb_interval: cfg.hb_interval,
                fail_timeout: cfg.fail_timeout,
                ack_delay: cfg.ack_delay,
                max_pack: cfg.max_pack,
                eager_receipts: cfg.fast_path || cfg.read_leases,
                lease_heartbeats: cfg.read_leases,
                ..EvsConfig::default()
            };
            let daemon = world.add_actor(
                format!("evs-{node}"),
                EvsDaemon::new(node, fabric, app, evs),
            );
            world.with_actor(fabric, |f: &mut NetFabric| f.register(node, daemon));
            world.schedule_now(daemon, EvsCmd::JoinGroup);
            daemons.push(daemon);
            apps.push(app);
        }
        let mut group = EvsGroup {
            world,
            daemons,
            apps,
        };
        let deadline = SimTime::from_millis(3_000);
        let n = nodes.len();
        while group.world.now() < deadline {
            group.world.run_for(SimDuration::from_millis(100));
            let together = group.daemons.iter().all(|&d| {
                group.world.with_actor(d, |d: &mut EvsDaemon| {
                    d.is_steady() && d.current_conf().is_some_and(|c| c.len() == n)
                })
            });
            if together {
                return Ok(group);
            }
        }
        Err("EVS drive: the group never formed one view".into())
    }

    fn delivered(&mut self, i: usize) -> u64 {
        self.world
            .with_actor(self.apps[i], |a: &mut CountingApp| a.delivered)
    }

    fn send(&mut self, from: usize, tag: u64) {
        self.world.schedule_now(
            self.daemons[from],
            EvsCmd::Send {
                payload: Rc::new(tag),
                size_bytes: UPDATE_BYTES,
            },
        );
    }

    /// Steps until every app has delivered `total` messages.
    fn run_until_all(&mut self, total: u64) -> Result<(), String> {
        let limit = self.world.now() + SimDuration::from_secs(60);
        loop {
            let done = (0..self.apps.len()).all(|i| self.delivered(i) >= total);
            if done {
                return Ok(());
            }
            if self.world.now() > limit {
                return Err(format!("EVS drive: {total} messages not delivered in 60 s"));
            }
            self.world.run_for(SimDuration::from_millis(1));
        }
    }
}

/// `evs.safe_delivery_ms` (virtual: submit until the sender's own safe
/// delivery, one message in flight) and `evs.host_us_per_msg` (host: a
/// saturated burst from every member).
fn evs(cfg: &ClusterConfig) -> Result<[LayerMetric; 2], String> {
    let mut group = EvsGroup::build(cfg)?;
    let n = group.apps.len();
    const SINGLES: u64 = 60;
    let mut one_at_a_time = Vec::new();
    for k in 0..SINGLES {
        let from = k as usize % n;
        let before = group.delivered(from);
        let sent_at = group.world.now();
        group.send(from, k);
        while group.delivered(from) == before {
            if !group.world.step() {
                return Err("EVS drive: world ran dry before a delivery".into());
            }
        }
        let at = group
            .world
            .with_actor(group.apps[from], |a: &mut CountingApp| a.last_at);
        one_at_a_time.push(at.saturating_since(sent_at).as_millis_f64());
        group.run_until_all(k + 1)?;
    }
    let burst = (24_000 / n as u64).max(50);
    let total = SINGLES + burst * n as u64;
    let (secs, result) = timed(|| {
        for i in 0..n {
            for k in 0..burst {
                group.send(i, k);
            }
        }
        group.run_until_all(total)
    });
    result?;
    Ok([
        LayerMetric::drive(
            "evs.safe_delivery_ms",
            "evs",
            "ms",
            "virtual",
            median(&one_at_a_time),
            SINGLES,
        ),
        LayerMetric::drive(
            "evs.host_us_per_msg",
            "evs",
            "us",
            "host",
            secs * 1e6 / (burst * n as u64) as f64,
            burst * n as u64,
        ),
    ])
}

// ---------------------------------------------------------------------
// storage
// ---------------------------------------------------------------------

struct SyncWaiter {
    done_at: Option<SimTime>,
}

impl Actor for SyncWaiter {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        if payload.is::<DiskDone>() {
            self.done_at = Some(ctx.now());
        }
    }
}

/// `storage.disk_sync_ms`: one sync through a `DiskActor` in the
/// workload's disk mode, in virtual time.
fn disk_sync(cfg: &ClusterConfig) -> Result<LayerMetric, String> {
    let mut world = World::new(1);
    let disk = world.add_actor("disk", DiskActor::new(cfg.disk_mode));
    let waiter = world.add_actor("waiter", SyncWaiter { done_at: None });
    world.schedule_now(
        disk,
        DiskOp::Sync {
            token: SyncToken(1),
            reply_to: waiter,
        },
    );
    world.run_to_quiescence();
    let done = world
        .with_actor(waiter, |w: &mut SyncWaiter| w.done_at)
        .ok_or("disk drive: the sync never completed")?;
    Ok(LayerMetric::drive(
        "storage.disk_sync_ms",
        "storage",
        "ms",
        "virtual",
        done.as_nanos() as f64 / 1e6,
        1,
    ))
}

/// `storage.append_ns_per_record` and `storage.commit_ns` on the sim
/// store: appends of 200-byte records in batches of eight (the packing
/// level), each batch committed.
fn sim_store() -> Result<[LayerMetric; 2], String> {
    const BATCHES: u64 = 12_000;
    const PER_BATCH: u64 = 8;
    let mut store = StorageHandle::sim();
    let record = vec![0xABu8; UPDATE_BYTES as usize];
    let (mut append_s, mut commit_s) = (0.0, 0.0);
    for _ in 0..BATCHES {
        let (s, ()) = timed(|| {
            for _ in 0..PER_BATCH {
                store.append_log(black_box(record.clone()));
            }
        });
        append_s += s;
        let (s, r) = timed(|| store.commit_staged());
        r.map_err(|e| format!("sim store commit: {e}"))?;
        commit_s += s;
    }
    black_box(store.log_len());
    Ok([
        LayerMetric::drive(
            "storage.append_ns_per_record",
            "storage",
            "ns",
            "host",
            append_s * 1e9 / (BATCHES * PER_BATCH) as f64,
            BATCHES * PER_BATCH,
        ),
        LayerMetric::drive(
            "storage.commit_ns",
            "storage",
            "ns",
            "host",
            commit_s * 1e9 / BATCHES as f64,
            BATCHES,
        ),
    ])
}

/// `storage.file_sync_us`: the file store committing one 200-byte
/// record with a real `fsync`, in `scratch` (removed afterwards).
fn file_sync(scratch: &Path) -> Result<LayerMetric, String> {
    const SYNCS: usize = 40;
    let dir = scratch.join(format!("file-drive-{}", std::process::id()));
    let result = (|| {
        let mut store = StorageHandle::file(&dir).map_err(|e| format!("file store: {e}"))?;
        let mut micros = Vec::with_capacity(SYNCS);
        for _ in 0..SYNCS {
            store.append_log(vec![0xABu8; UPDATE_BYTES as usize]);
            let (s, r) = timed(|| store.commit_staged());
            r.map_err(|e| format!("file store commit: {e}"))?;
            micros.push(s * 1e6);
        }
        Ok(median(&micros))
    })();
    // Best effort: a leftover directory is under the ignored out/ dir.
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|us| {
        LayerMetric::drive(
            "storage.file_sync_us",
            "storage",
            "us",
            "host",
            us,
            SYNCS as u64,
        )
    })
}

// ---------------------------------------------------------------------
// db
// ---------------------------------------------------------------------

/// The workload's own generated requests replayed on a fresh database:
/// apply, point read, conflict classification and digest.
fn database(w: &Workload, seed: u64) -> [LayerMetric; 4] {
    const OPS: usize = 40_000;
    let gens = w.generators();
    let per_gen = OPS / gens as usize;
    let ops: Vec<GenOp> = (0..gens)
        .flat_map(|g| OpStream::new(seed, g, &w.mix).take(per_gen))
        .collect();
    let updates: Vec<_> = ops.iter().filter(|o| !o.read).map(GenOp::update).collect();
    // Workloads without reads still exercise `get`: on the rows they write.
    let queries: Vec<_> = ops.iter().map(GenOp::query).collect();

    let mut db = Database::new();
    let (apply_s, ()) = timed(|| {
        for u in &updates {
            black_box(db.apply(u));
        }
    });
    let (get_s, ()) = timed(|| {
        for q in &queries {
            black_box(db.query(q));
        }
    });
    let (classify_s, ()) = timed(|| {
        for u in &updates {
            black_box(classify(u, None));
        }
    });
    let digests: Vec<f64> = (0..20)
        .map(|_| timed(|| black_box(db.digest())).0 * 1e6)
        .collect();
    let d =
        |name, unit, value, samples| LayerMetric::drive(name, "db", unit, "host", value, samples);
    [
        d(
            "db.apply_ns_per_op",
            "ns",
            apply_s * 1e9 / updates.len() as f64,
            updates.len() as u64,
        ),
        d(
            "db.get_ns_per_read",
            "ns",
            get_s * 1e9 / queries.len() as f64,
            queries.len() as u64,
        ),
        d(
            "db.classify_ns_per_op",
            "ns",
            classify_s * 1e9 / updates.len() as f64,
            updates.len() as u64,
        ),
        d("db.digest_us", "us", median(&digests), digests.len() as u64),
    ]
}

// ---------------------------------------------------------------------
// check
// ---------------------------------------------------------------------

/// `check.oracle_us_per_kevent`: `check_trace` over a finished run's
/// event log — the cost of the benchmark's own correctness gate.
pub fn oracle(events: &[RecordedEvent], survivors: &BTreeSet<u32>) -> Result<LayerMetric, String> {
    let (secs, r) = timed(|| todr_check::check_trace(events, survivors));
    r.map_err(|v| format!("trace oracle violation: {v}"))?;
    Ok(LayerMetric::drive(
        "check.oracle_us_per_kevent",
        "check",
        "us",
        "host",
        secs * 1e6 / (events.len() as f64 / 1e3),
        events.len() as u64,
    ))
}

/// Runs every drive for workload `w`: `n`, the EVS and disk settings and
/// the database requests are the workload's own. `scratch` is a
/// directory inside the checkout for the one drive that touches disk.
pub fn run_all(w: &Workload, seed: u64, scratch: &Path) -> Result<Vec<LayerMetric>, String> {
    let cfg = w.cluster_config(seed).map_err(|e| e.to_string())?;
    let mut out = vec![kernel(w.replicas), metrics_hub(), fanout(w.replicas)?];
    out.extend(evs(&cfg)?);
    out.push(disk_sync(&cfg)?);
    out.extend(sim_store()?);
    out.push(file_sync(scratch)?);
    out.extend(database(w, seed));
    Ok(out)
}
