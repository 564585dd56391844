//! Scale sweep (extension A9): replicas × clients beyond the paper's
//! 14-computer testbed.
//!
//! The paper's evaluation stops at 14 replicas — the size of the
//! Spread testbed. This sweep deploys the engine at 7–56 replicas and
//! measures three things per cluster size:
//!
//! 1. **Virtual-time throughput** (actions/s) of the delayed-writes
//!    engine, with COReL as the per-size baseline — the paper's
//!    ordering claim (engine above COReL) must hold at every size.
//! 2. **Gap attribution**: the same engine cell re-run with all-ack
//!    stability forced (`cumulative_ack_threshold = usize::MAX`), so
//!    the throughput gap attributable to cumulative piggybacked acks
//!    is measured, not guessed.
//! 3. **Host cost per committed action** (host µs of the measured
//!    advance per action committed in the window) — the hot-path
//!    regression signal. A change that makes large memberships allocate
//!    per recipient shows up here long before virtual-time numbers move,
//!    and one that deletes events nobody needed does not read as a
//!    regression, as it did in events per host second.
//!
//! Membership-change cost (partition → re-primary, merge → full
//! convergence) is measured per size as well: the engine's
//! once-per-connectivity-change exchange should keep this flat-ish in
//! the membership size, not quadratic.
//!
//! 4. **Where the host time goes**: one *extra* repetition of the
//!    largest full-load engine cell with the world's step profile on,
//!    reported as each actor kind's share of handler time, and the
//!    engine's share split by the kind of event it handled (delivery,
//!    receipt, disk completion, client request, anything else), the
//!    network fabric's split the same way (send fan-out, in-flight
//!    delivery, control), and the time the world spends outside every
//!    handler. The timed repetitions stay unprofiled.
//!
//! Emits the machine-readable `BENCH_scale.json` consumed by
//! [`Scale::gate`]. Virtual-time numbers are deterministic per seed;
//! `wall_ms`, `events_per_sec` and `host_us_per_action` are host
//! measurements and only meaningful as same-run ratios (which is exactly
//! how the gate consumes them).

use serde::{Deserialize, Serialize};
use todr_core::EngineState;
use todr_sim::{HandlerCost, SimDuration};

use super::runner::{closed_loop, deploy};
use super::{first_time, round1, round3, Gate, Gated, Protocol};
use crate::client::ClientConfig;
use crate::cluster::{Cluster, ClusterConfig};

/// Stability protocol variant a [`ScaleCell`] was measured under.
pub const PROTO_ENGINE: &str = "engine";
/// The all-ack comparison baseline (gap attribution).
pub const PROTO_ENGINE_ALLACK: &str = "engine-allack";
/// The COReL baseline.
pub const PROTO_COREL: &str = "corel";

/// EVS packing level of every engine cell.
const MAX_PACK: usize = 8;

/// The engine variant every engine cell runs.
const ENGINE: Protocol = Protocol::Engine {
    delayed_writes: true,
};

/// One measured cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleCell {
    /// Replicas deployed.
    pub replicas: u32,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// `engine`, `engine-allack` (all-ack stability forced) or `corel`.
    pub protocol: String,
    /// Actions per second of virtual time, rounded to 0.1.
    pub throughput: f64,
    /// Actions committed inside the measurement window.
    pub committed: u64,
    /// Mean commit latency in milliseconds, rounded to 0.001.
    pub mean_latency_ms: f64,
    /// Stability acknowledgment frames sent over the whole run
    /// (`evs.acks_sent`; the traffic cumulative acks exist to cut).
    pub acks_sent: u64,
    /// Datagrams delivered by the fabric over the whole run
    /// (`net.delivered`; per-destination, so a multicast to `n - 1`
    /// members counts `n - 1`).
    pub datagrams_delivered: u64,
    /// Simulator events processed during the measured advance
    /// (deterministic per seed).
    pub sim_events: u64,
    /// Host wall-clock of the measured advance, in milliseconds
    /// (machine-dependent; compare only as same-run ratios).
    pub wall_ms: f64,
    /// Simulator events per host second (`sim_events / wall`).
    pub events_per_sec: f64,
    /// Host µs of the measured advance per action committed in the
    /// window (`wall / committed`), rounded to 0.001.
    pub host_us_per_action: f64,
}

/// One row of a profiled repetition's handler time: an actor kind's
/// part of all handler time, or an event kind's part of the engine's.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostShare {
    /// Actor kind (registered-name prefix: `engine`, `evs`, `net`,
    /// `disk`, `client`), engine event kind (`deliver`, `receipt`,
    /// `disk-done`, `client request`, `timer/other`) or fabric event
    /// kind (`send`, `in-flight`, `control`).
    pub kind: String,
    /// Events of this kind handled (deterministic per seed).
    pub events: u64,
    /// Host milliseconds inside their handlers, rounded to 0.001.
    pub handle_ms: f64,
    /// `handle_ms` over the sum across the table's rows, rounded to
    /// 0.0001.
    pub share: f64,
}

/// The profiled repetition's host time outside every handler: the
/// world's event queue and dispatch, its effect buffer, and the
/// profile's own clock reads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldHost {
    /// Events the world dispatched in the profiled advance.
    pub events: u64,
    /// Host milliseconds of the whole profiled advance, rounded to 0.001.
    pub wall_ms: f64,
    /// `wall_ms` minus the summed handler time, rounded to 0.001.
    pub outside_handlers_ms: f64,
    /// `outside_handlers_ms` over `wall_ms`, rounded to 0.0001.
    pub share: f64,
}

/// Membership-change cost at one cluster size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MembershipCost {
    /// Replicas deployed.
    pub replicas: u32,
    /// Virtual ms from partition to the majority's next primary.
    pub reprimary_ms: f64,
    /// Virtual ms from merge until every replica shares one green count.
    pub convergence_ms: f64,
}

/// The sweep's data, serialized verbatim into `BENCH_scale.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scale {
    /// Cluster sizes swept.
    pub replica_counts: Vec<u32>,
    /// World seed.
    pub seed: u64,
    /// Virtual measurement window per cell, in seconds.
    pub window_secs: f64,
    /// EVS packing level of every engine cell.
    pub max_pack: usize,
    /// The CI virtual-time gate's reference cell: the engine at the
    /// largest size with one client per replica.
    pub calibration: ScaleCell,
    /// `host_us_per_action` at the largest size over the smallest size
    /// (engine, one client per replica), each end the best of three
    /// samples — host noise only ever slows a run, so the cheapest
    /// sample is the robust estimator. Lower is better.
    /// Machine-independent-ish: both ends are measured in the same run
    /// on the same host, so the CI wall-clock gate compares this ratio,
    /// never absolute costs.
    pub host_cost_ratio: f64,
    /// Handler time per actor kind in a separate, profiled repetition of
    /// the calibration cell (`World::enable_step_profile`), largest
    /// share first. Kernel time (event queue, effect buffer) is outside
    /// every handler and so outside these shares.
    pub host_share_by_actor_kind: Vec<HostShare>,
    /// The same repetition's time outside those handlers.
    pub world: WorldHost,
    /// The `engine` row of `host_share_by_actor_kind` split by the kind
    /// of event handled (`ReplicationEngine`'s `Actor::event_kind`),
    /// largest share first.
    pub engine_host_by_event_kind: Vec<HostShare>,
    /// The `net` row split the same way (`NetFabric`'s
    /// `Actor::event_kind`), largest share first.
    pub net_host_by_event_kind: Vec<HostShare>,
    /// The `evs` row split the same way (`EvsDaemon`'s
    /// `Actor::event_kind`: one row per frame kind and per timer),
    /// largest share first.
    pub evs_host_by_event_kind: Vec<HostShare>,
    /// Every measured cell, size-major.
    pub cells: Vec<ScaleCell>,
    /// Membership-change cost per size.
    pub membership: Vec<MembershipCost>,
}

/// Runs the sweep: for every size in `replica_counts`, the engine at
/// half-load and full-load (one client per replica), the all-ack
/// engine and COReL at full load, plus a partition/merge round.
pub fn run(replica_counts: &[u32], window: SimDuration, seed: u64) -> Scale {
    let warmup = SimDuration::from_millis(500);
    let cell = |n, clients, protocol, ack_threshold| {
        measured_cell(n, clients, protocol, ack_threshold, warmup, window, seed)
    };
    let mut cells = Vec::new();
    let mut membership = Vec::new();
    for &n in replica_counts {
        let full = n as usize;
        let half = (full / 2).max(1);
        for clients in [half, full] {
            cells.push(cell(n, clients, ENGINE, None));
        }
        // Gap attribution: the identical workload with cumulative acks
        // disabled (all-ack stability at every size).
        cells.push(cell(n, full, ENGINE, Some(usize::MAX)));
        cells.push(cell(n, full, Protocol::Corel, None));
        membership.push(membership_cost(n, seed));
    }

    let engine_full = |n: u32| -> &ScaleCell {
        cells
            .iter()
            .find(|c| c.replicas == n && c.clients == n as usize && c.protocol == PROTO_ENGINE)
            .expect("sweep measured the full-load engine cell")
    };
    let largest = *replica_counts.last().expect("non-empty sweep");
    let smallest = *replica_counts.first().expect("non-empty sweep");
    let calibration = engine_full(largest).clone();
    // The two ratio cells get re-measured twice more and each end keeps
    // its cheapest sample: the virtual outcome is deterministic, so the
    // replays only add wall-clock samples, and scheduling noise only
    // ever slows a sample down.
    let best_cost = |n: u32| -> f64 {
        (0..2)
            .map(|_| cell(n, n as usize, ENGINE, None).host_us_per_action)
            .fold(engine_full(n).host_us_per_action, f64::min)
    };
    let (largest_cost, smallest_cost) = (best_cost(largest), best_cost(smallest));
    let profile = profile_engine_cell(largest, warmup, window, seed);
    let host_cost_ratio = if smallest_cost > 0.0 {
        round3(largest_cost / smallest_cost)
    } else {
        0.0
    };

    Scale {
        replica_counts: replica_counts.to_vec(),
        seed,
        window_secs: window.as_secs_f64(),
        max_pack: MAX_PACK,
        calibration,
        host_cost_ratio,
        host_share_by_actor_kind: profile.by_actor,
        world: profile.world,
        engine_host_by_event_kind: profile.engine,
        net_host_by_event_kind: profile.net,
        evs_host_by_event_kind: profile.evs,
        cells,
        membership,
    }
}

/// What [`profile_engine_cell`] measured.
struct Profile {
    by_actor: Vec<HostShare>,
    world: WorldHost,
    engine: Vec<HostShare>,
    net: Vec<HostShare>,
    evs: Vec<HostShare>,
}

/// The full-load engine cell at `n` replicas once more, with the step
/// profile on for exactly the advance [`measured_cell`] times: handler
/// time by actor kind, the time outside every handler, and the engine's,
/// the fabric's and the EVS daemons' handler time by event kind.
fn profile_engine_cell(n: u32, warmup: SimDuration, window: SimDuration, seed: u64) -> Profile {
    let mut deployment = deploy(ENGINE, ClusterConfig::new(n, seed).packing(MAX_PACK));
    deployment.world().enable_step_profile();
    let measured = closed_loop(
        &mut *deployment,
        n as usize,
        ClientConfig::default(),
        warmup,
        window,
    );
    let world = deployment.world();
    let by_actor = world.step_profile();
    let by_event = |kind| {
        let costs = world.step_profile_by_event(kind);
        shares(costs.iter().map(|(kind, cost)| (*kind, cost)))
    };
    let wall = measured.wall_secs;
    let handlers: f64 = by_actor.values().map(|c| c.wall.as_secs_f64()).sum();
    let host = WorldHost {
        events: measured.sim_events,
        wall_ms: round3(wall * 1000.0),
        outside_handlers_ms: round3((wall - handlers) * 1000.0),
        share: ((wall - handlers) / wall * 1e4).round() / 1e4,
    };
    Profile {
        by_actor: shares(by_actor.iter().map(|(kind, cost)| (kind.as_str(), cost))),
        world: host,
        engine: by_event("engine"),
        net: by_event("net"),
        evs: by_event("evs"),
    }
}

/// One table of [`HostShare`] rows, largest share first.
fn shares<'a>(costs: impl Iterator<Item = (&'a str, &'a HandlerCost)> + Clone) -> Vec<HostShare> {
    let total_secs: f64 = costs.clone().map(|(_, c)| c.wall.as_secs_f64()).sum();
    let mut rows: Vec<HostShare> = costs
        .map(|(kind, cost)| HostShare {
            kind: kind.to_string(),
            events: cost.events,
            handle_ms: round3(cost.wall.as_secs_f64() * 1000.0),
            share: (cost.wall.as_secs_f64() / total_secs * 1e4).round() / 1e4,
        })
        .collect();
    rows.sort_by(|a, b| b.share.total_cmp(&a.share));
    rows
}

/// One measured cell: `clients` closed-loop clients against `n`
/// replicas of `protocol`, at EVS packing [`MAX_PACK`] and with
/// `ack_threshold` as the cumulative-ack threshold if set (COReL
/// ignores both).
fn measured_cell(
    n: u32,
    clients: usize,
    protocol: Protocol,
    ack_threshold: Option<usize>,
    warmup: SimDuration,
    window: SimDuration,
    seed: u64,
) -> ScaleCell {
    let mut config = ClusterConfig::new(n, seed).packing(MAX_PACK);
    if let Some(threshold) = ack_threshold {
        config.cumulative_ack_threshold = threshold;
    }
    let mut deployment = deploy(protocol, config);
    let measured = closed_loop(
        &mut *deployment,
        clients,
        ClientConfig::default(),
        warmup,
        window,
    );
    let (latency, committed) = measured.totals();
    deployment.check();

    let export = deployment.world().metrics().export();
    let counter = |name: &str| export.counters.get(name).copied().unwrap_or(0);
    let (sim_events, wall_secs) = (measured.sim_events, measured.wall_secs);
    let label = match (protocol, ack_threshold) {
        (Protocol::Corel, _) => PROTO_COREL,
        (_, Some(usize::MAX)) => PROTO_ENGINE_ALLACK,
        _ => PROTO_ENGINE,
    };
    ScaleCell {
        replicas: n,
        clients,
        protocol: label.to_string(),
        throughput: round1(committed as f64 / window.as_secs_f64()),
        committed,
        mean_latency_ms: round3(latency.mean().as_millis_f64()),
        acks_sent: counter("evs.acks_sent"),
        datagrams_delivered: counter("net.delivered"),
        sim_events,
        wall_ms: round3(wall_secs * 1000.0),
        events_per_sec: if wall_secs > 0.0 {
            round1(sim_events as f64 / wall_secs)
        } else {
            0.0
        },
        host_us_per_action: round3(wall_secs * 1e6 / committed.max(1) as f64),
    }
}

fn membership_cost(n: u32, seed: u64) -> MembershipCost {
    let mut cluster = Cluster::build(ClusterConfig::new(n, seed));
    cluster.settle();
    let size = n as usize;
    let majority: Vec<usize> = (0..size / 2 + 1).collect();
    let minority: Vec<usize> = (size / 2 + 1..size).collect();
    // Load every server so the view change happens mid-traffic.
    for i in 0..size {
        cluster.attach_client(i, ClientConfig::default());
    }
    cluster.run_for(SimDuration::from_millis(500));

    let partition_at = cluster.now();
    let prim_before = cluster.with_engine(0, |e| e.prim_component().prim_index);
    cluster.partition(&[majority.clone(), minority]);
    let deadline = partition_at + SimDuration::from_secs(20);
    let reprimary_at = first_time(&mut cluster, deadline, |c| {
        majority.iter().all(|&i| {
            c.engine_state(i) == EngineState::RegPrim
                && c.with_engine(i, |e| e.prim_component().prim_index) > prim_before
        })
    });

    let merge_at = cluster.now();
    cluster.merge_all();
    let deadline = merge_at + SimDuration::from_secs(20);
    let converged_at = first_time(&mut cluster, deadline, |c| {
        let all_prim = (0..size).all(|i| c.engine_state(i) == EngineState::RegPrim);
        if !all_prim {
            return false;
        }
        let g0 = c.green_count(0);
        (1..size).all(|i| c.green_count(i) == g0)
    });
    cluster.check_consistency();

    MembershipCost {
        replicas: n,
        reprimary_ms: round3((reprimary_at - partition_at).as_millis_f64()),
        convergence_ms: round3((converged_at - merge_at).as_millis_f64()),
    }
}

impl Gated for Scale {
    /// The CI gate. The engine must stay above COReL at every size.
    /// Against the committed quick `baseline` the calibration cell must
    /// be the baseline's, its throughput within 10 % of it, its event
    /// count at most 10 % higher, and the host cost ratio at most the
    /// baseline's over 0.85 (a host measurement, so gated with slack).
    fn gate(&self, baseline: Option<&Scale>) -> Gate {
        let now = &self.calibration;
        let mut gate = Gate::new(format!(
            "scale gate: {:?} actions/s @ {}x{}, {} events, host cost ratio {:?}",
            now.throughput, now.replicas, now.clients, now.sim_events, self.host_cost_ratio
        ));
        if let Some(base) = baseline {
            let bc = &base.calibration;
            let (cell, was) = ((now.replicas, now.clients), (bc.replicas, bc.clients));
            let moved = format!(
                "calibration cell moved: {}x{} vs {}x{}",
                cell.0, cell.1, was.0, was.1
            );
            gate.check(cell == was, moved);
            gate.floor("virtual-time throughput", now.throughput, bc.throughput);
            let (events, ceiling) = (now.sim_events, 1.1 * bc.sim_events as f64);
            let chattier =
                format!("calibration cell got >10% chattier: {events} > {ceiling:.0} events");
            gate.check(events as f64 <= ceiling, chattier);
            let (ratio, ceiling) = (self.host_cost_ratio, base.host_cost_ratio / 0.85);
            let dearer =
                format!("host cost per action scaled worse: ratio {ratio:?} > {ceiling:.3}");
            gate.check(ratio <= ceiling, dearer);
        }
        for &n in &self.replica_counts {
            let throughput = |protocol: &str| {
                self.cells
                    .iter()
                    .find(|c| (c.replicas, c.clients) == (n, n as usize) && c.protocol == protocol)
                    .map_or(f64::NAN, |c| c.throughput)
            };
            let above = throughput(PROTO_ENGINE) > throughput(PROTO_COREL);
            gate.check(
                above,
                format!("engine no longer above COReL at {n} replicas"),
            );
        }
        gate
    }

    fn to_table(&self) -> String {
        let headers = [
            "replicas",
            "clients",
            "protocol",
            "actions/s",
            "mean_lat_ms",
            "acks",
            "datagrams",
            "Mevents/s(wall)",
            "us/action(wall)",
        ];
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.replicas.to_string(),
                    c.clients.to_string(),
                    c.protocol.clone(),
                    format!("{:.0}", c.throughput),
                    format!("{:.2}", c.mean_latency_ms),
                    c.acks_sent.to_string(),
                    c.datagrams_delivered.to_string(),
                    format!("{:.2}", c.events_per_sec / 1e6),
                    format!("{:.1}", c.host_us_per_action),
                ]
            })
            .collect();
        let m_headers = ["replicas", "reprimary_ms", "convergence_ms"];
        let m_rows: Vec<Vec<String>> = self
            .membership
            .iter()
            .map(|m| {
                vec![
                    m.replicas.to_string(),
                    format!("{:.0}", m.reprimary_ms),
                    format!("{:.0}", m.convergence_ms),
                ]
            })
            .collect();
        let share_table = |first: &str, shares: &[HostShare]| {
            let headers = [first, "events", "handle_ms", "share", "us/event"];
            let rows: Vec<Vec<String>> = shares
                .iter()
                .map(|k| {
                    vec![
                        k.kind.clone(),
                        k.events.to_string(),
                        format!("{:.1}", k.handle_ms),
                        format!("{:.1}%", k.share * 100.0),
                        format!("{:.2}", k.handle_ms * 1000.0 / k.events as f64),
                    ]
                })
                .collect();
            super::render_table(&headers, &rows)
        };
        let w = &self.world;
        format!(
            "Scale sweep (delayed writes, pack {}), sizes {:?}; host cost ratio {:.2}\n{}\n\
             Handler time by actor kind ({}x{} engine cell, separate profiled repetition)\n{}\n\
             Outside every handler (world: queue, dispatch, profile clock): \
             {:.1} of {:.1} ms ({:.1}%), {:.2} us/event\n\
             Engine handler time by event kind (same repetition)\n{}\n\
             Fabric handler time by event kind (same repetition)\n{}\n\
             EVS handler time by event kind (same repetition)\n{}\n\
             Membership-change cost\n{}",
            self.max_pack,
            self.replica_counts,
            self.host_cost_ratio,
            super::render_table(&headers, &rows),
            self.calibration.replicas,
            self.calibration.clients,
            share_table("actor kind", &self.host_share_by_actor_kind),
            w.outside_handlers_ms,
            w.wall_ms,
            w.share * 100.0,
            w.outside_handlers_ms * 1000.0 / w.events as f64,
            share_table("engine event", &self.engine_host_by_event_kind),
            share_table("net event", &self.net_host_by_event_kind),
            share_table("evs event", &self.evs_host_by_event_kind),
            super::render_table(&m_headers, &m_rows)
        )
    }
}
