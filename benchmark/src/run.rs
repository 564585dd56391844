//! One repetition of one workload: build, settle, attach generators,
//! warm up, measure the window, drain, check.
//!
//! Two clocks, always named. *Virtual* numbers are what the modelled
//! cluster does; they are a pure function of the seed and must repeat
//! exactly. *Host* numbers are what the simulator costs on this machine.

use std::collections::BTreeSet;
use std::time::Instant;

use todr_core::ClientId;
use todr_harness::cluster::Cluster;
use todr_sim::{ActorId, MetricsExport, SimDuration};

use crate::eventlog;
use crate::gen::{GenLog, Generator, OpStream, Pace, Sample, ServerCrashed, Tick};
use crate::stats::{percentile, samples_beyond};
use crate::workloads::{FaultSchedule, FaultStep, Load, Workload, SETTLED_BY};

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SUPPORT: usize = 10;
/// How long after the window generators may take to collect replies.
const DRAIN_LIMIT: SimDuration = SimDuration::from_secs(3);

/// How a repetition is run.
#[derive(Debug, Clone, Copy)]
pub struct RepOptions {
    /// Generators also keep the action id behind every commit sample.
    pub trace: bool,
    /// Enforce [`MIN_TAIL_SUPPORT`] (off for the shrunken test windows).
    pub strict: bool,
    /// Replay the whole event log through `todr_check::check_trace`.
    pub oracle: bool,
}

/// The virtual-time outcome of a repetition: identical for equal seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Virtual {
    /// Commit latency samples.
    pub commit_samples: u64,
    /// Exact median commit latency, ns.
    pub commit_p50_ns: u64,
    /// Exact 99th percentile commit latency, ns.
    pub commit_p99_ns: u64,
    /// Read latency samples (0 when the workload has no reads).
    pub read_samples: u64,
    /// Exact median read latency, ns.
    pub read_p50_ns: u64,
    /// Exact 99th percentile read latency, ns.
    pub read_p99_ns: u64,
    /// Operations whose reply arrived inside the window.
    pub ops_in_window: u64,
    /// Operations completed by the end of the measured run (the window,
    /// plus the quiesce span of the fault workload).
    pub ops_done: u64,
    /// Window length, ns.
    pub window_ns: u64,
    /// Longest wait for service after a scheduled fault or heal, ns.
    pub outage_ns: Option<u64>,
    /// Longest catch-up after a heal, ns.
    pub heal_ns: Option<u64>,
    /// Requests sent or due inside the window.
    pub attempted: u64,
    /// Refused for good.
    pub rejected: u64,
    /// Lost to a crash and never answered, retries included.
    pub crashed: u64,
    /// Otherwise unanswered at the end.
    pub unanswered: u64,
    /// Refusals by an unavailable replica, each retried.
    pub unavailable_retries: u64,
    /// Requests re-sent because their replica crashed under them.
    pub resent_after_crash: u64,
    /// Simulator events processed during the measured run.
    pub sim_events: u64,
}

impl Virtual {
    /// Operations that failed: refused, lost or unanswered.
    pub fn failed(&self) -> u64 {
        self.rejected + self.crashed + self.unanswered
    }
}

/// The numbers of a repetition, without its world.
#[derive(Debug, Clone, PartialEq)]
pub struct RepSummary {
    /// Virtual-time numbers.
    pub virt: Virtual,
    /// Hash of `virt` and the end-of-run `MetricsExport` JSON.
    pub digest: u64,
    /// Host seconds from `Cluster::build` to the start of the window.
    pub setup_s: f64,
    /// Host seconds of each slice of the measured run. Slice `j` is the
    /// same virtual-time span, so the same work, in every repetition.
    pub slices_s: Vec<f64>,
}

impl RepSummary {
    /// Host seconds of the whole measured run.
    pub fn host_s(&self) -> f64 {
        self.slices_s.iter().sum()
    }
}

/// A finished repetition.
pub struct Rep {
    /// Its numbers.
    pub summary: RepSummary,
    /// Counters and histograms when the window opened.
    pub before: MetricsExport,
    /// Counters and histograms when the measured run ended.
    pub after: MetricsExport,
    /// What each generator recorded; generator `i` talks to replica
    /// `i % replicas`.
    pub logs: Vec<GenLog>,
    /// The deployment, kept for its event log.
    pub cluster: Cluster,
    /// Events replayed by the trace oracle and the host seconds it took.
    pub oracle: Option<(u64, f64)>,
}

fn attach(cluster: &mut Cluster, w: &Workload, seed: u64, trace: bool) -> Vec<ActorId> {
    let n = w.generators();
    (0..n)
        .map(|i| {
            let engine = cluster.servers[(i % w.replicas) as usize].engine;
            let (pace, first) = match w.load {
                Load::Closed { .. } => (Pace::Closed, SETTLED_BY),
                Load::Open { interval } => {
                    // Independent users are not phase-locked: stagger
                    // the generators across one interval.
                    let first_due = w.window_from + interval * u64::from(i) / u64::from(n);
                    let count = w.window().as_nanos() / interval.as_nanos();
                    (
                        Pace::Open {
                            first_due,
                            interval,
                            count,
                        },
                        first_due,
                    )
                }
            };
            let gen = Generator::new(
                ClientId(i + 1),
                engine,
                pace,
                OpStream::new(seed, i, &w.mix),
                (w.window_from, w.window_until),
                trace,
            );
            let id = cluster.world.add_actor(format!("gen-{i}"), gen);
            cluster.world.schedule(first, id, Tick);
            id
        })
        .collect()
}

/// Equal slices the measured run is timed in, besides the cuts at the
/// fault instants.
const SLICES: u64 = 20;

/// Runs the measured span — the window, through the fault workload's
/// quiesce — and returns the host seconds of each slice of it. Cutting
/// the span into slices changes nothing in virtual time; it lets
/// [`crate::report::fold`] discard a burst of machine noise that hit
/// one repetition's slice but not another's.
fn run_measured(cluster: &mut Cluster, w: &Workload, gens: &[ActorId]) -> Vec<f64> {
    let end = w
        .faults
        .as_ref()
        .map_or(w.window_until, |f| f.quiesce_until);
    let span = end.saturating_since(w.window_from);
    let mut marks: Vec<(todr_sim::SimTime, Option<FaultStep>)> = (1..=SLICES)
        .map(|k| (w.window_from + span * k / SLICES, None))
        .collect();
    if let Some(f) = &w.faults {
        marks.extend(f.instants().map(|(step, at)| (at, Some(step))));
        marks.sort_by_key(|m| m.0);
    }
    let mut slices = Vec::with_capacity(marks.len());
    let mut t = Instant::now();
    for (at, step) in marks {
        cluster.run_until(at);
        if let (Some(step), Some(f)) = (step, &w.faults) {
            match step {
                FaultStep::Partition => {
                    cluster.partition(&[f.majority.clone(), f.minority.clone()]);
                }
                FaultStep::Merge => cluster.merge_all(),
                FaultStep::Crash => {
                    cluster.crash_torn(f.crashed);
                    cluster.world.schedule_now(gens[f.crashed], ServerCrashed);
                }
                FaultStep::Recover => cluster.recover(f.crashed),
            }
        }
        let now = Instant::now();
        slices.push(now.duration_since(t).as_secs_f64());
        t = now;
    }
    slices
}

pub(crate) fn counter(export: &MetricsExport, name: &str) -> Result<u64, String> {
    export
        .counters
        .get(name)
        .copied()
        .ok_or_else(|| format!("counter `{name}` is absent from the metrics export"))
}

fn exact(samples: &mut [u64], what: &str, strict: bool) -> Result<(u64, u64), String> {
    if samples.is_empty() {
        return Err(format!("no {what} samples in the window"));
    }
    samples.sort_unstable();
    for pct in [50.0, 99.0] {
        let beyond = samples_beyond(samples.len(), pct);
        if strict && beyond < MIN_TAIL_SUPPORT {
            return Err(format!(
                "only {beyond} of {} {what} samples lie beyond p{pct}; {MIN_TAIL_SUPPORT} needed",
                samples.len()
            ));
        }
    }
    Ok((percentile(samples, 50.0), percentile(samples, 99.0)))
}

/// Outage and heal times of the fault schedule, from the generators'
/// samples and the replicas' announced green lines.
fn fault_metrics(
    w: &Workload,
    f: &FaultSchedule,
    logs: &[GenLog],
    cluster: &Cluster,
) -> Result<(u64, u64), String> {
    let events = cluster.world.metrics().events();
    let on = |replicas: &[usize]| -> Vec<&Sample> {
        logs.iter()
            .enumerate()
            .filter(|(i, _)| replicas.contains(&(i % w.replicas as usize)))
            .flat_map(|(_, l)| l.commits.iter())
            .collect()
    };

    let stable = f.stable();
    let stable_samples = on(&stable);
    let mut outage = 0;
    for (what, at) in f.instants() {
        let at = at.as_nanos();
        let first = stable_samples
            .iter()
            .filter(|s| s.start_ns >= at)
            .map(|s| s.end_ns)
            .min()
            .ok_or_else(|| format!("no request due after the {what:?} was ever committed"))?;
        outage = outage.max(first - at);
    }

    let reference = cluster.servers[stable[0]].node.index();
    let mut heal = 0;
    for (what, at, rejoining) in [
        ("merge", f.merge_at.as_nanos(), f.minority.clone()),
        ("recover", f.recover_at.as_nanos(), vec![f.crashed]),
    ] {
        let target = eventlog::green_count_at(events, reference, at);
        for &r in &rejoining {
            let node = cluster.servers[r].node.index();
            let caught_up = eventlog::green_reaches(events, node, target, at).ok_or_else(|| {
                format!("replica {r} never reached green count {target} after the {what}")
            })?;
            heal = heal.max(caught_up - at);
        }
        let backlog = on(&rejoining)
            .iter()
            .filter(|s| s.start_ns < at)
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(at);
        heal = heal.max(backlog.saturating_sub(at));
    }
    Ok((outage, heal))
}

/// Every acknowledged update must be green at every live replica: per
/// creator, the highest acknowledged index against each replica's green
/// cut (green marks are per-creator FIFO).
fn check_acked_green(w: &Workload, logs: &[GenLog], cluster: &Cluster) -> Result<(), String> {
    let cuts = eventlog::green_cuts(cluster.world.metrics().events());
    for (i, log) in logs.iter().enumerate() {
        let Some(acked) = log.max_acked_index else {
            continue;
        };
        let creator = cluster.servers[i % w.replicas as usize].node.index();
        for server in &cluster.servers {
            let node = server.node.index();
            let cut = cuts
                .get(&node)
                .and_then(|c| c.get(&creator))
                .copied()
                .unwrap_or(0);
            if cut < acked {
                return Err(format!(
                    "acknowledged update n{creator}#{acked} is not green at replica n{node} \
                     (its green cut for n{creator} is {cut})"
                ));
            }
        }
    }
    Ok(())
}

/// Runs one repetition of `w` under `seed` in a fresh world.
///
/// Any consistency or oracle violation, generator lateness, wrong read
/// or unexpected view change is an error.
pub fn run_repetition(w: &Workload, seed: u64, opts: RepOptions) -> Result<Rep, String> {
    let t_setup = Instant::now();
    let config = w.cluster_config(seed).map_err(|e| e.to_string())?;
    let mut cluster = Cluster::build(config);
    cluster.try_settle().map_err(|e| e.to_string())?;
    if cluster.now() > SETTLED_BY {
        return Err(format!(
            "primary formed at {}, after the {SETTLED_BY} the schedule assumes",
            cluster.now()
        ));
    }
    let gens = attach(&mut cluster, w, seed, opts.trace);
    cluster.run_until(w.window_from);
    let before = cluster.metrics_export();
    let events_before = cluster.world.events_processed();
    let setup_s = t_setup.elapsed().as_secs_f64();

    let slices_s = run_measured(&mut cluster, w, &gens);
    let sim_events = cluster.world.events_processed() - events_before;
    let after = cluster.metrics_export();

    // Let requests in flight at the cut-off finish, so "unanswered"
    // means unanswered, not merely cut off.
    for &g in &gens {
        cluster.world.with_actor(g, |g: &mut Generator| g.stop());
    }
    let drain_until = cluster.now() + DRAIN_LIMIT;
    while cluster.now() < drain_until
        && gens.iter().any(|&g| {
            cluster
                .world
                .with_actor(g, |g: &mut Generator| g.in_flight())
                > 0
        })
    {
        cluster.run_for(SimDuration::from_millis(10));
    }

    let mut logs = Vec::with_capacity(gens.len());
    let (mut crashed, mut unanswered) = (0, 0);
    for &g in &gens {
        let (log, (c, u)) = cluster
            .world
            .with_actor(g, |g: &mut Generator| (g.log().clone(), g.unfinished()));
        crashed += c;
        unanswered += u;
        logs.push(log);
    }

    // --- correctness -------------------------------------------------
    let sum = |f: fn(&GenLog) -> u64| logs.iter().map(f).sum::<u64>();
    let lateness = logs.iter().map(|l| l.max_lateness_ns).max().unwrap_or(0);
    if lateness != 0 {
        return Err(format!("open-loop schedule ran {lateness} ns late"));
    }
    let wrong = sum(|l| l.wrong_reads);
    if wrong != 0 {
        return Err(format!("{wrong} reads returned another row's value"));
    }
    if w.faults.is_none() {
        for name in ["evs.views_installed", "evs.transitional_confs"] {
            let (b, a) = (counter(&before, name)?, counter(&after, name)?);
            if a != b {
                return Err(format!(
                    "`{name}` moved {b} -> {a}: a view change inside a steady window"
                ));
            }
        }
    }
    cluster
        .try_check_consistency()
        .map_err(|v| format!("consistency violation: {v}"))?;
    let greens: BTreeSet<u64> = (0..cluster.servers.len())
        .map(|i| cluster.green_count(i))
        .collect();
    if w.faults.is_some() && greens.len() != 1 {
        return Err(format!(
            "replicas ended on different green counts {greens:?}"
        ));
    }
    if w.faults.is_some() {
        check_acked_green(w, &logs, &cluster)?;
    }
    let oracle = if opts.oracle {
        let survivors: BTreeSet<u32> = cluster.servers.iter().map(|s| s.node.index()).collect();
        let events = cluster.world.metrics().events();
        let t = Instant::now();
        todr_check::check_trace(events, &survivors)
            .map_err(|v| format!("trace oracle violation: {v}"))?;
        Some((events.len() as u64, t.elapsed().as_secs_f64()))
    } else {
        None
    };

    // --- virtual numbers ---------------------------------------------
    let mut commits: Vec<u64> = logs
        .iter()
        .flat_map(|l| l.commits.iter().map(Sample::latency_ns))
        .collect();
    let (commit_p50_ns, commit_p99_ns) = exact(&mut commits, "commit", opts.strict)?;
    let mut reads: Vec<u64> = logs
        .iter()
        .flat_map(|l| l.reads.iter().map(Sample::latency_ns))
        .collect();
    let (read_p50_ns, read_p99_ns) = if reads.is_empty() {
        (0, 0)
    } else {
        exact(&mut reads, "read", opts.strict)?
    };
    let (from, until) = (w.window_from.as_nanos(), w.window_until.as_nanos());
    let ops_in_window = logs
        .iter()
        .flat_map(|l| l.commits.iter().chain(l.reads.iter()))
        .filter(|s| from <= s.end_ns && s.end_ns < until)
        .count() as u64;
    let (outage_ns, heal_ns) = match &w.faults {
        None => (None, None),
        Some(f) => {
            let (o, h) = fault_metrics(w, f, &logs, &cluster)?;
            (Some(o), Some(h))
        }
    };
    let virt = Virtual {
        commit_samples: commits.len() as u64,
        commit_p50_ns,
        commit_p99_ns,
        read_samples: reads.len() as u64,
        read_p50_ns,
        read_p99_ns,
        ops_in_window,
        ops_done: (commits.len() + reads.len()) as u64,
        window_ns: w.window().as_nanos(),
        outage_ns,
        heal_ns,
        attempted: sum(|l| l.attempted),
        rejected: sum(|l| l.rejected),
        crashed,
        unanswered,
        unavailable_retries: sum(|l| l.unavailable_retries),
        resent_after_crash: sum(|l| l.resent_after_crash),
        sim_events,
    };
    if virt.attempted != sum(|l| l.answered) + virt.failed() {
        return Err(format!(
            "failure accounting does not add up: {} attempted, {} answered, {} failed",
            virt.attempted,
            sum(|l| l.answered),
            virt.failed()
        ));
    }
    let digest = todr_sim::checksum64(format!("{virt:?}|{}", after.to_json()).as_bytes());
    Ok(Rep {
        summary: RepSummary {
            virt,
            digest,
            setup_s,
            slices_s,
        },
        before,
        after,
        logs,
        cluster,
        oracle,
    })
}
