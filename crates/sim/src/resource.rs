//! Single-server FIFO resource occupancy, used to model per-node CPU cost.
//!
//! Event handlers in a discrete-event simulation execute in zero virtual
//! time; to charge processing cost (e.g. "handling one replicated action
//! costs 380 µs of CPU") an actor consults a [`CpuMeter`]: the meter tracks
//! when the modelled processor becomes free and answers, for work arriving
//! *now*, when that work would complete. An [`ApplyHorizon`] publishes
//! that instant to the node's other actors.

use std::cell::Cell;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// Models a single FIFO processor with a service time per job.
///
/// ```
/// use todr_sim::{CpuMeter, SimDuration, SimTime};
///
/// let mut cpu = CpuMeter::new();
/// let t0 = SimTime::from_millis(10);
/// // Two jobs arrive at the same instant; they serialize.
/// let done1 = cpu.charge(t0, SimDuration::from_micros(400));
/// let done2 = cpu.charge(t0, SimDuration::from_micros(400));
/// assert_eq!(done1, t0 + SimDuration::from_micros(400));
/// assert_eq!(done2, t0 + SimDuration::from_micros(800));
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpuMeter {
    busy_until: SimTime,
    busy_time: SimDuration,
    jobs: u64,
    /// The instant and length of the current [`CpuMeter::charge_burst`].
    burst: Option<(SimTime, u64)>,
}

impl CpuMeter {
    /// A meter for an idle processor.
    pub fn new() -> Self {
        CpuMeter::default()
    }

    /// Charges a job arriving at `now` with the given `cost`, returning
    /// the virtual time at which the job completes (after queueing behind
    /// earlier jobs).
    pub fn charge(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let start = self.busy_until.max(now);
        self.busy_until = start + cost;
        self.busy_time += cost;
        self.jobs += 1;
        self.busy_until
    }

    /// Charges a job of a same-instant burst: the first job at `now` pays
    /// `full`, later ones at the same instant only `marginal`. Returns
    /// when it completes and, if it opens a new burst, the length of the
    /// one it ends. Plain [`CpuMeter::charge`]s neither join nor end one.
    pub fn charge_burst(
        &mut self,
        now: SimTime,
        full: SimDuration,
        marginal: SimDuration,
    ) -> (SimTime, Option<u64>) {
        match &mut self.burst {
            Some((at, len)) if *at == now => {
                *len += 1;
                (self.charge(now, marginal), None)
            }
            burst => {
                let ended = burst.replace((now, 1)).map(|(_, len)| len);
                (self.charge(now, full), ended)
            }
        }
    }

    /// When the processor becomes free (may be in the past).
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total processing time charged so far.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Number of jobs charged.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Utilisation over the window `[SimTime::ZERO, now]`, in `[0, 1]`.
    pub fn utilisation(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        (self.busy_time.as_nanos() as f64 / now.as_nanos() as f64).min(1.0)
    }

    /// Forgets all accumulated state (e.g. on simulated node crash).
    pub fn reset(&mut self) {
        *self = CpuMeter::default();
    }
}

/// When one node's processor next goes idle, shared between the actor
/// that charges the node's [`CpuMeter`] and the actors that only read
/// it. Clones share one cell, so the reader sees every write at once;
/// a handle nobody writes reads as "idle since time zero".
///
/// ```
/// use todr_sim::{ApplyHorizon, SimDuration, SimTime};
///
/// let writer = ApplyHorizon::default();
/// let reader = writer.clone();
/// writer.set(SimTime::from_millis(3));
/// assert_eq!(reader.backlog(SimTime::from_millis(1)), SimDuration::from_millis(2));
/// assert_eq!(reader.backlog(SimTime::from_millis(5)), SimDuration::ZERO);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ApplyHorizon(Rc<Cell<SimTime>>);

impl ApplyHorizon {
    /// Publishes the instant the processor next goes idle.
    pub fn set(&self, idle_at: SimTime) {
        self.0.set(idle_at);
    }

    /// Work still queued on the processor at `now` (zero once idle).
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.0.get().saturating_since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_processor_starts_immediately() {
        let mut cpu = CpuMeter::new();
        let done = cpu.charge(SimTime::from_millis(5), SimDuration::from_millis(1));
        assert_eq!(done, SimTime::from_millis(6));
    }

    #[test]
    fn back_to_back_jobs_queue() {
        let mut cpu = CpuMeter::new();
        let t = SimTime::from_millis(0);
        let d1 = cpu.charge(t, SimDuration::from_millis(2));
        let d2 = cpu.charge(t, SimDuration::from_millis(3));
        assert_eq!(d1, SimTime::from_millis(2));
        assert_eq!(d2, SimTime::from_millis(5));
        assert_eq!(cpu.jobs(), 2);
    }

    #[test]
    fn gap_resets_start_time() {
        let mut cpu = CpuMeter::new();
        cpu.charge(SimTime::from_millis(0), SimDuration::from_millis(1));
        let done = cpu.charge(SimTime::from_millis(10), SimDuration::from_millis(1));
        assert_eq!(done, SimTime::from_millis(11));
    }

    #[test]
    fn utilisation_accounts_busy_fraction() {
        let mut cpu = CpuMeter::new();
        cpu.charge(SimTime::ZERO, SimDuration::from_millis(5));
        let u = cpu.utilisation(SimTime::from_millis(10));
        assert!((u - 0.5).abs() < 1e-9);
        assert_eq!(cpu.utilisation(SimTime::ZERO), 0.0);
    }

    #[test]
    fn a_burst_pays_the_full_cost_once_and_reports_its_length_once() {
        let (full, marginal) = (SimDuration::from_micros(10), SimDuration::from_micros(4));
        let mut cpu = CpuMeter::new();
        let t = SimTime::from_millis(1);
        assert_eq!(cpu.charge_burst(t, full, marginal), (t + full, None));
        let third = t + full + marginal + marginal;
        cpu.charge_burst(t, full, marginal);
        assert_eq!(cpu.charge_burst(t, full, marginal), (third, None));
        let later = SimTime::from_millis(2);
        assert_eq!(
            cpu.charge_burst(later, full, marginal),
            (later + full, Some(3))
        );
        let last = SimTime::from_millis(3);
        assert_eq!(
            cpu.charge_burst(last, full, marginal),
            (last + full, Some(1))
        );
        // A fresh meter opens a new burst even at the old burst's instant.
        cpu.reset();
        assert_eq!(cpu.charge_burst(last, full, marginal), (last + full, None));
    }

    #[test]
    fn reset_clears_everything() {
        let mut cpu = CpuMeter::new();
        cpu.charge(SimTime::ZERO, SimDuration::from_millis(5));
        cpu.reset();
        assert_eq!(cpu.busy_until(), SimTime::ZERO);
        assert_eq!(cpu.jobs(), 0);
        assert_eq!(cpu.busy_time(), SimDuration::ZERO);
    }
}
