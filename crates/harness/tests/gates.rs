//! The sweep gates, checked without running a sweep. Each committed
//! quick result passes against itself. For every bound, a copy with
//! that one field moved onto the bound still passes, and one moved just
//! past it fails with exactly one failure, which names the bound. The
//! committed full results pass the absolute bounds.

use std::collections::BTreeSet;

use todr_harness::experiments::fastpath::{FastCell, FastSweep};
use todr_harness::experiments::reads::{ReadCell, ReadSweep};
use todr_harness::experiments::recovery::{DiskWallClock, MAX_FSYNCS_PER_FORCED_WRITE};
use todr_harness::experiments::registry::{self, REGISTRY};
use todr_harness::experiments::saturation::Saturation;
use todr_harness::experiments::scale::{Scale, ScaleCell};
use todr_harness::experiments::shard::{ShardCell, ShardSweep};
use todr_harness::experiments::{load, Gate, Gated};

type GateFn<T> = fn(&T, Option<&T>) -> Gate;

/// Loads `results/BENCH_<name>_quick.json` and checks it passes against
/// itself, and that `results/BENCH_<name>.json` passes on its own.
fn committed<T: serde::Deserialize>(name: &str, gate: GateFn<T>) -> T {
    let full: T = load(&format!("BENCH_{name}.json")).expect("full result parses");
    let g = gate(&full, None);
    assert!(g.passed(), "full {name}: {:?}", g.failures);
    let quick: T = load(&format!("BENCH_{name}_quick.json")).expect("quick result parses");
    let g = gate(&quick, Some(&quick));
    assert!(g.passed(), "quick {name} against itself: {:?}", g.failures);
    quick
}

/// Gates a copy of `base` with one field `set` to `at` (must pass), then
/// to `past` (must fail on `bound` alone).
fn edge<T: Clone>(
    base: &T,
    gate: GateFn<T>,
    bound: &str,
    (at, past): (f64, f64),
    set: impl Fn(&mut T, f64),
) {
    let mut now = base.clone();
    set(&mut now, at);
    let g = gate(&now, Some(base));
    assert!(g.passed(), "{bound} on its bound: {:?}", g.failures);
    set(&mut now, past);
    let g = gate(&now, Some(base));
    assert_eq!(
        g.failures.len(),
        1,
        "{bound} past its bound: {:?}",
        g.failures
    );
    assert!(
        g.failures[0].contains(bound),
        "{:?} names another bound than {bound}",
        g.failures
    );
    assert!(!g.summary().starts_with('✅'));
}

/// The largest `f64` below a positive `x`.
fn below(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// The smallest `f64` above a positive `x`.
fn above(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// An integer field: on the bound, then one past it.
fn step(x: f64) -> (f64, f64) {
    (x, x + 1.0)
}

#[test]
fn saturation_gate_covers_every_bound() {
    let gate: GateFn<Saturation> = Saturation::gate;
    let base = committed("saturation", gate);
    let c = &base.calibration;
    edge(
        &base,
        gate,
        "calibration cell moved",
        step(c.clients as f64),
        |s, v| s.calibration.clients = v as usize,
    );
    let floor = 0.9 * c.throughput;
    edge(
        &base,
        gate,
        "calibration throughput regressed",
        (floor, below(floor)),
        |s, v| s.calibration.throughput = v,
    );
}

#[test]
fn scale_gate_covers_every_bound() {
    let gate: GateFn<Scale> = Scale::gate;
    let base = committed("scale", gate);
    let c = &base.calibration;
    edge(
        &base,
        gate,
        "calibration cell moved",
        step(c.replicas as f64),
        |s, v| s.calibration.replicas = v as u32,
    );
    let floor = 0.9 * c.throughput;
    edge(
        &base,
        gate,
        "virtual-time throughput regressed",
        (floor, below(floor)),
        |s, v| s.calibration.throughput = v,
    );
    let ceiling = (1.1 * c.sim_events as f64).floor();
    edge(&base, gate, "got >10% chattier", step(ceiling), |s, v| {
        s.calibration.sim_events = v as u64
    });
    let wall = base.host_cost_ratio / 0.85;
    edge(
        &base,
        gate,
        "host cost per action scaled worse",
        (wall, above(wall)),
        |s, v| s.host_cost_ratio = v,
    );
    let n = base.replica_counts[0];
    let full_load = |c: &ScaleCell, protocol: &str| {
        (c.replicas, c.clients) == (n, n as usize) && c.protocol == protocol
    };
    let engine = base
        .cells
        .iter()
        .find(|c| full_load(c, "engine"))
        .unwrap()
        .throughput;
    edge(
        &base,
        gate,
        "engine no longer above COReL",
        (below(engine), engine),
        |s, v| {
            s.cells
                .iter_mut()
                .find(|c| full_load(c, "corel"))
                .unwrap()
                .throughput = v
        },
    );
}

#[test]
fn shard_gate_covers_every_bound() {
    let gate: GateFn<ShardSweep> = ShardSweep::gate;
    let base = committed("shard", gate);
    edge(
        &base,
        gate,
        "2-shard capacity speedup below gate",
        (1.35, below(1.35)),
        |s, v| {
            s.speedups
                .iter_mut()
                .find(|x| x.shards == 2)
                .unwrap()
                .speedup = v
        },
    );
    let two = |c: &ShardCell| c.shards == 2 && !c.control;
    let floor = 0.9 * base.cells.iter().find(|c| two(c)).unwrap().throughput;
    edge(
        &base,
        gate,
        "2-shard throughput regressed",
        (floor, below(floor)),
        |s, v| s.cells.iter_mut().find(|c| two(c)).unwrap().throughput = v,
    );
    edge(&base, gate, "cross-shard retries", step(0.0), |s, v| {
        s.cells[0].retries = v as u64
    });
}

#[test]
fn fastpath_gate_covers_every_bound() {
    let gate: GateFn<FastSweep> = FastSweep::gate;
    let base = committed("fastpath", gate);
    edge(
        &base,
        gate,
        "no longer halves latency",
        (0.5, above(0.5)),
        |s, v| {
            s.speedups
                .iter_mut()
                .find(|x| x.clients == 1)
                .unwrap()
                .ratio = v
        },
    );
    let fast = |c: &FastCell, clients| c.fast && c.conflict_pct == 0 && c.clients == clients;
    edge(
        &base,
        gate,
        "no-conflict cell demoted",
        step(0.0),
        |s, v| {
            s.cells
                .iter_mut()
                .find(|c| fast(c, 10))
                .unwrap()
                .fast_demotions = v as u64
        },
    );
    edge(
        &base,
        gate,
        "no-conflict cell demoted",
        (1.0, below(1.0)),
        |s, v| s.cells.iter_mut().find(|c| fast(c, 10)).unwrap().fast_share = v,
    );
    let floor = 0.9 * base.cells.iter().find(|c| fast(c, 1)).unwrap().throughput;
    edge(
        &base,
        gate,
        "fast-cell throughput regressed",
        (floor, below(floor)),
        |s, v| s.cells.iter_mut().find(|c| fast(c, 1)).unwrap().throughput = v,
    );
}

#[test]
fn reads_gate_covers_every_bound() {
    let gate: GateFn<ReadSweep> = ReadSweep::gate;
    let base = committed("reads", gate);
    edge(
        &base,
        gate,
        "no longer halve read latency",
        (0.5, above(0.5)),
        |s, v| {
            s.comparisons
                .iter_mut()
                .find(|c| c.read_pct == 95)
                .unwrap()
                .latency_ratio = v
        },
    );
    let lease = |c: &ReadCell| c.read_pct == 95 && c.tier == "lease-linearizable";
    let lease_reads = base.cells.iter().find(|c| lease(c)).unwrap().lease_reads;
    edge(
        &base,
        gate,
        "escaped the staleness audit",
        step(lease_reads as f64),
        |s, v| {
            s.cells
                .iter_mut()
                .find(|c| lease(c))
                .unwrap()
                .lease_reads_checked = v as u64
        },
    );
    edge(
        &base,
        gate,
        "below ordered control",
        (0.9, below(0.9)),
        |s, v| {
            s.comparisons
                .iter_mut()
                .find(|c| c.read_pct == 95)
                .unwrap()
                .throughput_ratio = v
        },
    );
    let floor = 0.9
        * base
            .cells
            .iter()
            .find(|c| lease(c))
            .unwrap()
            .total_throughput;
    edge(
        &base,
        gate,
        "lease-cell throughput regressed",
        (floor, below(floor)),
        |s, v| {
            s.cells
                .iter_mut()
                .find(|c| lease(c))
                .unwrap()
                .total_throughput = v
        },
    );
}

/// The `disk` object of `results/BENCH_disk_quick.json`.
#[derive(serde::Deserialize)]
struct DiskRun {
    disk: DiskWallClock,
}

/// `recovery-file`'s bound: real fsyncs outside checkpoints, per forced
/// write.
#[test]
fn recovery_file_gate_covers_its_bound() {
    let gate: GateFn<DiskWallClock> = |disk, _| disk.gate(String::new());
    let run: DiskRun = load("BENCH_disk_quick.json").expect("disk result parses");
    let base = run.disk;
    assert!(
        gate(&base, None).passed(),
        "{:?}",
        gate(&base, None).failures
    );
    let outside = (MAX_FSYNCS_PER_FORCED_WRITE * base.forced_writes as f64).floor();
    edge(
        &base,
        gate,
        "fsyncs per forced write",
        step(outside + base.checkpoint_fsyncs as f64),
        |d, v| d.fsyncs = v as u64,
    );
}

#[test]
fn the_gated_sweeps_are_the_registry_sweeps() {
    let names: BTreeSet<&str> = REGISTRY.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), REGISTRY.len(), "a name is registered twice");
    let sweeps: BTreeSet<&str> = REGISTRY
        .iter()
        .filter(|e| e.has_quick())
        .map(|e| e.name)
        .collect();
    let tested = ["fastpath", "reads", "saturation", "scale", "shard"];
    assert_eq!(sweeps, BTreeSet::from(tested));
    assert!(registry::find("shard").is_some() && registry::find("latency_table").is_none());
}
