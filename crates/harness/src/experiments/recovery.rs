//! Extension experiment A8: crash-recovery cost under torn writes.
//!
//! One loaded replica is torn-crashed (the write in flight at the crash
//! instant is torn mid-record, as a real disk would), left down while
//! the survivors keep committing, then recovered. The experiment
//! reports what the checksummed recovery scan found, how long the
//! replica needed to catch back up to the survivors' green line, and
//! what the outage cost the cluster in throughput — the paper's §4.3
//! claim (only *vulnerable* actions can be lost, never green ones)
//! priced in virtual time.

use serde::{Deserialize, Serialize};
use todr_sim::{ProtocolEvent, SimDuration};

use crate::client::ClientConfig;
use crate::cluster::{BackendKind, Cluster, ClusterConfig};

use super::{first_time, render_table, Gate};

/// The most real fsyncs a forced write may cost outside checkpoints:
/// one append, synced once. A torn crash's repair writes (what landed,
/// and the recovery-time cut) are the slack above 1.
pub const MAX_FSYNCS_PER_FORCED_WRITE: f64 = 1.01;

/// Aggregated wall-clock disk statistics across every server, reported
/// only when the cluster ran on [`BackendKind::File`]. This is the real
/// fsync-bound price of the paper's forced write, measured on the host,
/// next to the virtual-time figure the sim charges (10 ms per platter
/// sync, amortised by group commit to a ~3.25 ms mean commit latency in
/// the scale sweep).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DiskWallClock {
    /// `fsync`/`sync_all` calls issued across all servers.
    pub fsyncs: u64,
    /// Forced writes that made staged data durable, checkpoints
    /// excluded, across all servers.
    pub forced_writes: u64,
    /// Of `fsyncs`, those the checkpoints issued.
    pub checkpoint_fsyncs: u64,
    /// Mean wall-clock microseconds per sync.
    pub mean_fsync_micros: f64,
    /// Slowest single sync observed on any server, in microseconds.
    pub max_fsync_micros: f64,
    /// Bytes written to backing files (log frames + checkpoints).
    pub file_bytes_written: u64,
}

impl DiskWallClock {
    /// Real fsyncs per forced write, checkpoints excluded (NaN with no
    /// forced write).
    pub fn fsyncs_per_forced_write(&self) -> f64 {
        if self.forced_writes == 0 {
            return f64::NAN;
        }
        (self.fsyncs - self.checkpoint_fsyncs) as f64 / self.forced_writes as f64
    }

    /// The file-backed run's gate: outside checkpoints, a forced write
    /// is one append and one fsync
    /// ([`MAX_FSYNCS_PER_FORCED_WRITE`]).
    pub fn gate(&self, headline: String) -> Gate {
        let mut gate = Gate::new(headline);
        let per_write = self.fsyncs_per_forced_write();
        gate.check(
            per_write <= MAX_FSYNCS_PER_FORCED_WRITE,
            format!(
                "fsyncs per forced write {per_write:.4} above {MAX_FSYNCS_PER_FORCED_WRITE} \
                 ({} fsyncs, {} at checkpoints, {} forced writes)",
                self.fsyncs, self.checkpoint_fsyncs, self.forced_writes
            ),
        );
        gate
    }
}

/// The experiment's data.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryReport {
    /// Replicas deployed.
    pub n_servers: u32,
    /// Stable-storage backend the cluster ran on.
    pub backend: BackendKind,
    /// Virtual forced-write latency the disk timing model charges per
    /// platter sync, in milliseconds (identical for both backends; the
    /// file backend pays real fsyncs *on top*).
    pub simulated_sync_latency_ms: f64,
    /// Real host-side I/O totals — `Some` only on the file backend.
    pub disk: Option<DiskWallClock>,
    /// Green actions ordered cluster-wide when the crash hit.
    pub green_at_crash: u64,
    /// Survivors' green count at the instant recovery started — the
    /// backlog the recovering replica must re-fetch.
    pub green_at_recovery: u64,
    /// Green count the recovering replica restored from its own log
    /// before any catch-up traffic.
    pub green_restored_from_disk: u64,
    /// Whether the recovery scan found (and truncated) a torn final
    /// record.
    pub torn_tail_truncated: bool,
    /// Virtual time from recovery start until the replica matched the
    /// survivors' green line.
    pub time_to_catch_up: SimDuration,
    /// Throughput (actions/s) before the crash.
    pub throughput_before: f64,
    /// Throughput (actions/s) while the replica was down.
    pub throughput_during_outage: f64,
}

/// Runs the experiment on the default deterministic sim backend. The
/// victim is the highest-indexed replica; `outage_secs` is how long it
/// stays down.
pub fn run(n_servers: u32, outage_secs: u64, seed: u64) -> RecoveryReport {
    run_with_backend(n_servers, outage_secs, seed, BackendKind::Sim)
}

/// Runs the experiment on the chosen storage backend. On
/// [`BackendKind::File`] every server's log and checkpoint live in real
/// files and the report carries the measured wall-clock fsync cost.
pub fn run_with_backend(
    n_servers: u32,
    outage_secs: u64,
    seed: u64,
    backend: BackendKind,
) -> RecoveryReport {
    let victim = n_servers as usize - 1;
    let config = ClusterConfig::builder(n_servers, seed)
        .torn_crashes(true)
        .backend(backend)
        .build()
        .expect("coherent config");
    let simulated_sync_latency_ms = match config.disk_mode {
        todr_storage::DiskMode::Forced { sync_latency } => sync_latency.as_secs_f64() * 1_000.0,
        todr_storage::DiskMode::Delayed => 0.0,
    };
    let mut cluster = Cluster::build(config);
    cluster.settle();
    let clients: Vec<_> = (0..n_servers as usize)
        .map(|i| cluster.attach_client(i, ClientConfig::default()))
        .collect();
    let committed = |cluster: &mut Cluster, clients: &[crate::cluster::ClientHandle]| -> u64 {
        clients
            .iter()
            .map(|&c| cluster.client_stats(c).committed)
            .sum()
    };

    // Warm up and measure the baseline.
    cluster.run_for(SimDuration::from_secs(1));
    let measure = SimDuration::from_secs(1);
    let s = committed(&mut cluster, &clients);
    cluster.run_for(measure);
    let throughput_before = (committed(&mut cluster, &clients) - s) as f64 / measure.as_secs_f64();

    // Torn crash mid-traffic.
    let green_at_crash = cluster.green_count(0);
    cluster.crash(victim);
    let s = committed(&mut cluster, &clients);
    cluster.run_for(SimDuration::from_secs(outage_secs));
    let throughput_during_outage =
        (committed(&mut cluster, &clients) - s) as f64 / outage_secs as f64;

    // Recover and time the catch-up.
    let green_at_recovery = cluster.green_count(0);
    let recover_at = cluster.now();
    cluster.recover(victim);
    let deadline = recover_at + SimDuration::from_secs(20);
    let caught_up_at = first_time(&mut cluster, deadline, |c| {
        c.green_count(victim) >= green_at_recovery
    });
    let time_to_catch_up = caught_up_at - recover_at;
    cluster.check_consistency();

    let mut torn_tail_truncated = false;
    let mut green_restored_from_disk = 0;
    for e in cluster.world.metrics().events() {
        match e.event {
            ProtocolEvent::TornTailTruncated { node, .. } if node == victim as u32 => {
                torn_tail_truncated = true;
            }
            ProtocolEvent::EngineRecovered { node, green } if node == victim as u32 => {
                green_restored_from_disk = green;
            }
            _ => {}
        }
    }

    // Aggregate the real host-side I/O cost across every server (file
    // backend only; the sim backend reports no host syscalls).
    let mut disk: Option<DiskWallClock> = None;
    for i in 0..n_servers as usize {
        if let Some(io) = cluster.with_engine(i, |e| e.storage().io_stats()) {
            let d = disk.get_or_insert(DiskWallClock {
                fsyncs: 0,
                forced_writes: 0,
                checkpoint_fsyncs: 0,
                mean_fsync_micros: 0.0,
                max_fsync_micros: 0.0,
                file_bytes_written: 0,
            });
            d.fsyncs += io.fsyncs;
            d.forced_writes += io.forced_writes;
            d.checkpoint_fsyncs += io.checkpoint_fsyncs;
            // Re-derive the mean from summed totals below; stash the
            // nano sum in the mean field until the loop ends.
            d.mean_fsync_micros += io.fsync_nanos as f64;
            d.max_fsync_micros = d.max_fsync_micros.max(io.max_fsync_nanos as f64 / 1_000.0);
            d.file_bytes_written += io.file_bytes_written;
        }
    }
    if let Some(d) = disk.as_mut() {
        d.mean_fsync_micros = if d.fsyncs == 0 {
            0.0
        } else {
            d.mean_fsync_micros / d.fsyncs as f64 / 1_000.0
        };
    }

    RecoveryReport {
        n_servers,
        backend,
        simulated_sync_latency_ms,
        disk,
        green_at_crash,
        green_at_recovery,
        green_restored_from_disk,
        torn_tail_truncated,
        time_to_catch_up,
        throughput_before,
        throughput_during_outage,
    }
}

impl RecoveryReport {
    /// The report as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut rows = vec![
            vec!["storage backend".to_string(), format!("{:?}", self.backend)],
            vec![
                "simulated sync latency (ms, virtual)".to_string(),
                format!("{:.2}", self.simulated_sync_latency_ms),
            ],
            vec![
                "green at crash".to_string(),
                format!("{}", self.green_at_crash),
            ],
            vec![
                "green at recovery (survivors)".to_string(),
                format!("{}", self.green_at_recovery),
            ],
            vec![
                "green restored from disk".to_string(),
                format!("{}", self.green_restored_from_disk),
            ],
            vec![
                "torn tail truncated".to_string(),
                format!("{}", self.torn_tail_truncated),
            ],
            vec![
                "time to catch up".to_string(),
                format!("{}", self.time_to_catch_up),
            ],
            vec![
                "throughput before (actions/s)".to_string(),
                format!("{:.0}", self.throughput_before),
            ],
            vec![
                "throughput during outage (actions/s)".to_string(),
                format!("{:.0}", self.throughput_during_outage),
            ],
        ];
        if let Some(d) = &self.disk {
            rows.push(vec![
                "real fsyncs (all servers)".to_string(),
                format!("{}", d.fsyncs),
            ]);
            rows.push(vec![
                "forced writes (checkpoints excluded)".to_string(),
                format!("{}", d.forced_writes),
            ]);
            rows.push(vec![
                "fsyncs per forced write (checkpoints excluded)".to_string(),
                format!("{:.3}", d.fsyncs_per_forced_write()),
            ]);
            rows.push(vec![
                "real mean fsync (µs, wall clock)".to_string(),
                format!("{:.1}", d.mean_fsync_micros),
            ]);
            rows.push(vec![
                "real max fsync (µs, wall clock)".to_string(),
                format!("{:.1}", d.max_fsync_micros),
            ]);
            rows.push(vec![
                "file bytes written".to_string(),
                format!("{}", d.file_bytes_written),
            ]);
        }
        render_table(&["metric", "value"], &rows)
    }

    /// Deterministic-shape pretty JSON (the `BENCH_disk_quick.json`
    /// format; wall-clock fsync figures vary run to run on the file
    /// backend). Hand-assembled so `disk` reads as an object or `null`
    /// rather than the facade's Option-as-array encoding.
    pub fn to_json(&self) -> String {
        let disk = match &self.disk {
            None => "null".to_string(),
            Some(d) => format!(
                "{{\n    \"fsyncs\": {},\n    \"forced_writes\": {},\n    \
                 \"checkpoint_fsyncs\": {},\n    \"mean_fsync_micros\": {:.3},\n    \
                 \"max_fsync_micros\": {:.3},\n    \"file_bytes_written\": {}\n  }}",
                d.fsyncs,
                d.forced_writes,
                d.checkpoint_fsyncs,
                d.mean_fsync_micros,
                d.max_fsync_micros,
                d.file_bytes_written
            ),
        };
        format!(
            "{{\n  \"experiment\": \"recovery\",\n  \"n_servers\": {},\n  \
             \"backend\": \"{:?}\",\n  \"simulated_sync_latency_ms\": {:.2},\n  \
             \"green_at_crash\": {},\n  \"green_at_recovery\": {},\n  \
             \"green_restored_from_disk\": {},\n  \"torn_tail_truncated\": {},\n  \
             \"time_to_catch_up_ms\": {:.3},\n  \"throughput_before\": {:.1},\n  \
             \"throughput_during_outage\": {:.1},\n  \"disk\": {}\n}}",
            self.n_servers,
            self.backend,
            self.simulated_sync_latency_ms,
            self.green_at_crash,
            self.green_at_recovery,
            self.green_restored_from_disk,
            self.torn_tail_truncated,
            self.time_to_catch_up.as_secs_f64() * 1_000.0,
            self.throughput_before,
            self.throughput_during_outage,
            disk
        )
    }
}
