//! The five named workloads: deployment, load and why each is here.
//!
//! Deployments are the library defaults (`ClusterConfig::new`) plus only
//! the toggles a workload names; the typed event log stays on, as every
//! experiment and the explorer run it.

use todr_harness::cluster::{ClusterConfig, InvalidClusterConfig};
use todr_sim::{SimDuration, SimTime};

use crate::gen::Mix;

/// How load is offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// `clients` closed-loop generators, the i-th attached to replica
    /// `i % replicas`.
    Closed {
        /// Concurrent generators.
        clients: u32,
    },
    /// One open-loop generator per replica, each sending every
    /// `interval` from the window's start to its end.
    Open {
        /// Spacing of each generator's due instants.
        interval: SimDuration,
    },
}

/// The scripted faults of the one workload with view changes. Instants
/// are absolute virtual times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Connectivity splits into `majority` | `minority`.
    pub partition_at: SimTime,
    /// Replicas on the side that keeps the primary.
    pub majority: Vec<usize>,
    /// Replicas cut off from it.
    pub minority: Vec<usize>,
    /// All components reconnect.
    pub merge_at: SimTime,
    /// `crashed` loses its volatile state and tears its log tail.
    pub crash_at: SimTime,
    /// The replica that crashes (a member of `majority`).
    pub crashed: usize,
    /// It recovers from stable storage.
    pub recover_at: SimTime,
    /// The world runs on to here after the generators stop, so catch-up
    /// finishes before the final checks.
    pub quiesce_until: SimTime,
}

/// One scripted event of a [`FaultSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStep {
    /// Connectivity splits.
    Partition,
    /// Connectivity heals.
    Merge,
    /// A replica crashes, tearing its log tail.
    Crash,
    /// It recovers.
    Recover,
}

impl FaultSchedule {
    /// The four scripted events, in schedule order; outage is measured
    /// at each.
    pub fn instants(&self) -> [(FaultStep, SimTime); 4] {
        [
            (FaultStep::Partition, self.partition_at),
            (FaultStep::Merge, self.merge_at),
            (FaultStep::Crash, self.crash_at),
            (FaultStep::Recover, self.recover_at),
        ]
    }

    /// Replicas that stay in the primary component throughout.
    pub fn stable(&self) -> Vec<usize> {
        self.majority
            .iter()
            .copied()
            .filter(|&i| i != self.crashed)
            .collect()
    }
}

/// One named workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark (one line).
    pub why: &'static str,
    /// Replicas deployed.
    pub replicas: u32,
    /// Forced (10 ms) rather than delayed disk writes.
    pub forced_writes: bool,
    /// EVS packing level.
    pub packing: usize,
    /// Primary read leases on.
    pub read_leases: bool,
    /// Commutativity fast path on.
    pub fast_path: bool,
    /// Crashes tear the log write in flight.
    pub torn_crashes: bool,
    /// What the generators draw.
    pub mix: Mix,
    /// How they pace it.
    pub load: Load,
    /// Instant the measured window starts: everything before it (build,
    /// settle, attach, warm-up) is set-up.
    pub window_from: SimTime,
    /// Instant it ends.
    pub window_until: SimTime,
    /// Scripted faults, if any.
    pub faults: Option<FaultSchedule>,
}

const fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

/// Every workload's name, in the order `run` executes them.
pub const NAMES: [&str; 5] = [
    "seq_forced_14x1",
    "sat_delayed_14x14",
    "ycsb_b_lease_5x10",
    "scale_delayed_56x56",
    "faults_open_7",
];

/// Instant by which every deployment must have formed its primary
/// (asserted); closed-loop generators start here, so the warm-up spans
/// from here to `window_from`.
pub const SETTLED_BY: SimTime = ms(500);

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        let puts = |name, why, replicas, forced_writes, clients, from, until| Workload {
            name,
            why,
            replicas,
            forced_writes,
            packing: 8,
            read_leases: false,
            fast_path: false,
            torn_crashes: false,
            mix: Mix::Puts,
            load: Load::Closed { clients },
            window_from: from,
            window_until: until,
            faults: None,
        };
        Some(match name {
            // 1 s warm-up + 22 s window, about 2 000 commits.
            "seq_forced_14x1" => puts(
                "seq_forced_14x1",
                "Paper §7 latency experiment: one client, nothing to batch, so the forced write \
                 and every fixed delay (pack window, ack delay) are unamortised",
                14,
                true,
                1,
                ms(1_500),
                ms(23_500),
            ),
            // 0.5 s + 4 s, about 17 000 commits.
            "sat_delayed_14x14" => puts(
                "sat_delayed_14x14",
                "Fig 5(b)/A7 knee: disk off the critical path, so sequencing, packing, stability \
                 and green-mark CPU set the ceiling; same evs/core code as seq, used the other way",
                14,
                false,
                14,
                ms(1_000),
                ms(5_000),
            ),
            // 0.5 s + 8 s.
            "ycsb_b_lease_5x10" => Workload {
                name: "ycsb_b_lease_5x10",
                why: "Reads beside writes: 95 % lease reads bypass evs and storage, 5 % fast-path \
                      puts on Zipfian hot keys exercise demotion and lease parking",
                replicas: 5,
                forced_writes: false,
                packing: 1,
                read_leases: true,
                fast_path: true,
                torn_crashes: false,
                mix: Mix::Ycsb {
                    keys: 64,
                    theta: 0.99,
                    read_permille: 950,
                },
                load: Load::Closed { clients: 10 },
                window_from: ms(1_000),
                window_until: ms(9_000),
                faults: None,
            },
            // 0.2 s + 0.5 s, about 2 200 commits.
            "scale_delayed_56x56" => puts(
                "scale_delayed_56x56",
                "The host-time workload: fan-out, cumulative acks and queue depth grow with n; \
                 virtual numbers are the control for a pure simulator-speed change",
                56,
                false,
                56,
                ms(700),
                ms(1_200),
            ),
            "faults_open_7" => Workload {
                name: "faults_open_7",
                why: "The only view changes: partition, merge, torn crash, recovery under \
                      open-loop arrivals, so requests due while no primary exists are counted",
                replicas: 7,
                forced_writes: true,
                packing: 8,
                read_leases: false,
                fast_path: false,
                torn_crashes: true,
                mix: Mix::Puts,
                load: Load::Open {
                    interval: SimDuration::from_millis(10),
                },
                window_from: ms(1_000),
                window_until: ms(11_000),
                faults: Some(FaultSchedule {
                    partition_at: ms(3_000),
                    majority: vec![0, 1, 2, 3],
                    minority: vec![4, 5, 6],
                    merge_at: ms(5_000),
                    crash_at: ms(7_000),
                    crashed: 1,
                    recover_at: ms(8_000),
                    quiesce_until: ms(13_000),
                }),
            },
            _ => return None,
        })
    }

    /// The same deployment and load over a window short enough for the
    /// test suite; percentile support is not enforced on it.
    pub fn shrunk(mut self) -> Workload {
        if let Some(f) = &mut self.faults {
            self.window_from = ms(600);
            self.window_until = ms(3_400);
            f.partition_at = ms(1_000);
            f.merge_at = ms(1_700);
            f.crash_at = ms(2_300);
            f.recover_at = ms(2_800);
            f.quiesce_until = ms(4_500);
            return self;
        }
        let (warm, window) = match self.name {
            "seq_forced_14x1" => (100, 1_000),
            "scale_delayed_56x56" => (50, 60),
            _ => (100, 300),
        };
        self.window_from = ms(SETTLED_BY.as_millis() + warm);
        self.window_until = ms(SETTLED_BY.as_millis() + warm + window);
        self
    }

    /// Length of the measured window.
    pub fn window(&self) -> SimDuration {
        self.window_until.saturating_since(self.window_from)
    }

    /// Number of generators.
    pub fn generators(&self) -> u32 {
        match self.load {
            Load::Closed { clients } => clients,
            Load::Open { .. } => self.replicas,
        }
    }

    /// The deployment: library defaults plus the named toggles.
    pub fn cluster_config(&self, seed: u64) -> Result<ClusterConfig, InvalidClusterConfig> {
        let mut b = ClusterConfig::builder(self.replicas, seed)
            .packing(self.packing)
            .read_leases(self.read_leases)
            .fast_path(self.fast_path)
            .torn_crashes(self.torn_crashes);
        if !self.forced_writes {
            b = b.delayed_writes();
        }
        b.build()
    }

    /// Parameters as `(name, value)` text pairs, for the report.
    pub fn params(&self) -> Vec<(String, String)> {
        let mut p = vec![
            ("replicas".to_string(), self.replicas.to_string()),
            (
                "disk".to_string(),
                if self.forced_writes {
                    "forced writes, 10 ms sync".to_string()
                } else {
                    "delayed writes".to_string()
                },
            ),
            ("packing".to_string(), self.packing.to_string()),
            ("read_leases".to_string(), self.read_leases.to_string()),
            ("fast_path".to_string(), self.fast_path.to_string()),
            ("torn_crashes".to_string(), self.torn_crashes.to_string()),
            (
                "mix".to_string(),
                match &self.mix {
                    Mix::Puts => {
                        "200-byte puts, reply on green, 64 private keys per generator".to_string()
                    }
                    Mix::Ycsb {
                        keys,
                        theta,
                        read_permille,
                    } => format!(
                        "{} % linearizable reads / {} % fast puts, Zipfian theta {theta} over \
                         {keys} shared keys",
                        f64::from(*read_permille) / 10.0,
                        f64::from(1000 - read_permille) / 10.0
                    ),
                },
            ),
            (
                "load".to_string(),
                match self.load {
                    Load::Closed { clients } => format!("closed loop, {clients} clients"),
                    Load::Open { interval } => format!(
                        "open loop, {} generators at {:.0} req/s each",
                        self.replicas,
                        1.0 / interval.as_secs_f64()
                    ),
                },
            ),
            (
                "warmup_virtual_s".to_string(),
                format!(
                    "{}",
                    self.window_from.saturating_since(SETTLED_BY).as_secs_f64()
                ),
            ),
            (
                "window_virtual_s".to_string(),
                format!("{}", self.window().as_secs_f64()),
            ),
        ];
        if let Some(f) = &self.faults {
            p.push((
                "faults".to_string(),
                format!(
                    "partition {:?}|{:?} at {}, merge at {}, crash_torn({}) at {}, recover at {}, \
                     quiesce to {}",
                    f.majority,
                    f.minority,
                    f.partition_at,
                    f.merge_at,
                    f.crashed,
                    f.crash_at,
                    f.recover_at,
                    f.quiesce_until
                ),
            ));
        }
        p
    }
}
