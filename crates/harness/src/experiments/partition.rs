//! Extension experiment A1: the cost of a membership change.
//!
//! The engine's design claim is that end-to-end exchange happens *once
//! per connectivity change*, not per action. This experiment partitions
//! a loaded cluster, heals it, and reports (a) how long the majority
//! side needs to resume committing after the partition, (b) how long
//! full convergence takes after the merge, and (c) how many actions the
//! minority accumulated red and how fast they drained.

use todr_core::EngineState;
use todr_sim::SimDuration;

use crate::client::ClientConfig;
use crate::cluster::{Cluster, ClusterConfig};

use super::{first_time, render_table};

/// The experiment's data.
#[derive(Debug, Clone)]
pub struct PartitionReport {
    /// Replicas deployed.
    pub n_servers: u32,
    /// Virtual time from partition to the majority's next primary.
    pub reprimary_after_partition: SimDuration,
    /// Virtual time from merge until all replicas share one green count.
    pub convergence_after_merge: SimDuration,
    /// Red actions accumulated by the minority while detached.
    pub minority_red_backlog: usize,
    /// Throughput (actions/s) before the partition.
    pub throughput_before: f64,
    /// Throughput (actions/s) in the majority during the partition.
    pub throughput_during: f64,
}

/// Runs the experiment.
pub fn run(n_servers: u32, seed: u64) -> PartitionReport {
    let mut cluster = Cluster::build(ClusterConfig::new(n_servers, seed));
    cluster.settle();
    let majority: Vec<usize> = (0..(n_servers as usize / 2 + 1)).collect();
    let minority: Vec<usize> = (n_servers as usize / 2 + 1..n_servers as usize).collect();

    // Load every server.
    let clients: Vec<_> = (0..n_servers as usize)
        .map(|i| cluster.attach_client(i, ClientConfig::default()))
        .collect();
    let measure = SimDuration::from_secs(2);
    let committed_at = |cluster: &mut Cluster, clients: &[crate::cluster::ClientHandle]| -> u64 {
        clients
            .iter()
            .map(|&c| cluster.client_stats(c).committed)
            .sum()
    };
    let before_start = committed_at(&mut cluster, &clients);
    cluster.run_for(measure);
    let before_end = committed_at(&mut cluster, &clients);
    let throughput_before = (before_end - before_start) as f64 / measure.as_secs_f64();

    // Partition.
    let partition_at = cluster.now();
    let prim_before = cluster.with_engine(0, |e| e.prim_component().prim_index);
    cluster.partition(&[majority.clone(), minority.clone()]);
    let deadline = partition_at + SimDuration::from_secs(10);
    let reprimary_at = first_time(&mut cluster, deadline, |c| {
        majority.iter().all(|&i| {
            c.engine_state(i) == EngineState::RegPrim
                && c.with_engine(i, |e| e.prim_component().prim_index) > prim_before
        })
    });
    let reprimary_after_partition = reprimary_at - partition_at;

    let during_start = committed_at(&mut cluster, &clients);
    cluster.run_for(measure);
    let during_end = committed_at(&mut cluster, &clients);
    let throughput_during = (during_end - during_start) as f64 / measure.as_secs_f64();
    let minority_red_backlog: usize = minority
        .iter()
        .map(|&i| cluster.with_engine(i, |e| e.red_ids().len()))
        .max()
        .unwrap_or(0);

    // Merge.
    let merge_at = cluster.now();
    cluster.merge_all();
    let deadline = merge_at + SimDuration::from_secs(10);
    let n = n_servers as usize;
    let converged_at = first_time(&mut cluster, deadline, |c| {
        let all_prim = (0..n).all(|i| c.engine_state(i) == EngineState::RegPrim);
        if !all_prim {
            return false;
        }
        let g0 = c.green_count(0);
        (1..n).all(|i| c.green_count(i) == g0)
            && (0..n).all(|i| c.with_engine(i, |e| e.red_ids().is_empty()))
    });
    let convergence_after_merge = converged_at - merge_at;
    cluster.check_consistency();

    PartitionReport {
        n_servers,
        reprimary_after_partition,
        convergence_after_merge,
        minority_red_backlog,
        throughput_before,
        throughput_during,
    }
}

impl PartitionReport {
    /// The report as an aligned text table.
    pub fn to_table(&self) -> String {
        let rows = vec![
            vec![
                "re-primary after partition".to_string(),
                format!("{}", self.reprimary_after_partition),
            ],
            vec![
                "full convergence after merge".to_string(),
                format!("{}", self.convergence_after_merge),
            ],
            vec![
                "minority red backlog (actions)".to_string(),
                self.minority_red_backlog.to_string(),
            ],
            vec![
                "throughput before (actions/s)".to_string(),
                format!("{:.0}", self.throughput_before),
            ],
            vec![
                "throughput during, majority (actions/s)".to_string(),
                format!("{:.0}", self.throughput_during),
            ],
        ];
        format!(
            "Membership-change cost, {} replicas (extension A1)\n{}",
            self.n_servers,
            render_table(&["metric", "value"], &rows)
        )
    }
}
