//! A member's acknowledgement duty under both stability schemes.
//! *All-ack*: every member acks what it holds one `ack_delay` after a
//! `Sequenced` frame. *Cumulative*: a member acks at once when a frame
//! designates it, piggybacks on its own `Submit`s, and otherwise acks
//! only when its ack is stale ([`ACK_DEADLINE`]) or the link has been
//! quiet for `ack_delay`. The schemes share every field, so they are one
//! type, not a trait; each step returns an [`AckStep`] for the daemon.

use todr_sim::{SimDuration, SimTime};

/// Upper bound on how stale a member's acknowledgement may go under
/// cumulative-ack stability: if a member holds unacknowledged messages
/// this long, it acks even without being designated. This bounds the
/// safe-delivery lag regardless of the rotation period (members / frame
/// rate), which matters when few clients drive a large cluster.
pub(crate) const ACK_DEADLINE: SimDuration = SimDuration::from_micros(1200);

/// What the daemon does after an [`AckDuty`] step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AckStep {
    /// Nothing now.
    Wait,
    /// Arm an `AckTick` one `ack_delay` out.
    Arm,
    /// Send an `Ack` up to this sequence number to the coordinator.
    Send(u64),
    /// Coordinator: count its own receipt up to here, at once.
    SelfAck(u64),
}

/// One member's acknowledgement state within a configuration.
#[derive(Debug)]
pub(crate) struct AckDuty {
    ack_delay: SimDuration,
    /// Whether the configuration runs cumulative acks (set at install).
    cumulative: bool,
    /// Whether an `AckTick` is pending.
    ack_scheduled: bool,
    /// The highest sequence number acknowledged to the coordinator.
    last_acked: u64,
    /// Cumulative: since when messages above `last_acked` are held
    /// (drives the [`ACK_DEADLINE`] fallback); `None` while all are acked.
    unacked_since: Option<SimTime>,
    /// Cumulative: when the last `Sequenced` frame arrived; a link quiet
    /// for `ack_delay` flushes the ack, so a burst's tail stabilizes.
    last_seq_rx_at: SimTime,
}

impl AckDuty {
    pub(crate) fn new(ack_delay: SimDuration) -> Self {
        AckDuty {
            ack_delay,
            cumulative: false,
            ack_scheduled: false,
            last_acked: 0,
            unacked_since: None,
            last_seq_rx_at: SimTime::ZERO,
        }
    }

    /// A configuration was installed at `now`; `cumulative` picks its
    /// scheme. A pending `AckTick` stays pending.
    pub(crate) fn install(&mut self, now: SimTime, cumulative: bool) {
        self.cumulative = cumulative;
        self.last_acked = 0;
        self.unacked_since = None;
        self.last_seq_rx_at = now;
    }

    /// Coordinator: whether its `Sequenced` frames designate an acker
    /// (cumulative acks only).
    pub(crate) fn designates(&self) -> bool {
        self.cumulative
    }

    /// Receipt to piggyback on an outgoing `Submit` (0 for none). The
    /// frame reaches the coordinator anyway, so under cumulative acks it
    /// retires the pending duty for free; the coordinator self-acks.
    pub(crate) fn piggyback(&mut self, have_upto: u64, coordinator: bool) -> u64 {
        if !self.cumulative || coordinator {
            return 0;
        }
        self.take(have_upto).unwrap_or(0)
    }

    /// A `Sequenced` frame arrived at `now`; this member now holds up to
    /// `have_upto`, and the frame may have `designated` it to ack.
    pub(crate) fn on_sequenced(
        &mut self,
        now: SimTime,
        have_upto: u64,
        designated: bool,
        coordinator: bool,
    ) -> AckStep {
        self.last_seq_rx_at = now;
        if coordinator {
            return AckStep::SelfAck(have_upto);
        }
        if self.cumulative {
            if have_upto > self.last_acked && self.unacked_since.is_none() {
                self.unacked_since = Some(now);
            }
            if designated {
                // Ack promptly so the coordinator's low-water mark keeps
                // moving.
                return self.send(have_upto);
            }
        }
        self.arm()
    }

    /// The `AckTick` fired at `now`. `have_upto` is what this member
    /// holds in a steady configuration, `None` outside one. A tick armed
    /// in an earlier configuration may find this node its coordinator,
    /// which has acked itself already.
    pub(crate) fn on_tick(
        &mut self,
        now: SimTime,
        have_upto: Option<u64>,
        coordinator: bool,
    ) -> AckStep {
        self.ack_scheduled = false;
        let Some(have) = have_upto.filter(|&h| h > self.last_acked && !coordinator) else {
            return AckStep::Wait;
        };
        if self.cumulative {
            // Speak up only when the ack has gone stale (nothing retired
            // it for a full deadline) or the link has gone quiet (no
            // traffic to piggyback on or be designated by); otherwise
            // re-check one batch window out.
            let stale = self
                .unacked_since
                .is_some_and(|t| now.saturating_since(t) >= ACK_DEADLINE);
            let quiet = now.saturating_since(self.last_seq_rx_at) >= self.ack_delay;
            if !stale && !quiet {
                return self.arm();
            }
        }
        self.send(have)
    }

    /// Acknowledges everything up to `have_upto`, if that is news.
    fn send(&mut self, have_upto: u64) -> AckStep {
        self.take(have_upto).map_or(AckStep::Wait, AckStep::Send)
    }

    fn take(&mut self, have_upto: u64) -> Option<u64> {
        self.unacked_since = None;
        (have_upto > self.last_acked).then(|| {
            self.last_acked = have_upto;
            have_upto
        })
    }

    fn arm(&mut self) -> AckStep {
        if std::mem::replace(&mut self.ack_scheduled, true) {
            AckStep::Wait
        } else {
            AckStep::Arm
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DELAY: SimDuration = SimDuration::from_micros(300);

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn duty(cumulative: bool) -> AckDuty {
        let mut d = AckDuty::new(DELAY);
        d.install(at(0), cumulative);
        d
    }

    #[test]
    fn all_ack_schedules_one_tick_per_window() {
        let mut d = duty(false);
        assert_eq!(d.on_sequenced(at(10), 1, false, false), AckStep::Arm);
        // Frames inside the window ride the pending tick.
        assert_eq!(d.on_sequenced(at(20), 2, false, false), AckStep::Wait);
        // Designation means nothing under all-ack.
        assert_eq!(d.on_sequenced(at(30), 3, true, false), AckStep::Wait);
        assert_eq!(d.on_tick(at(310), Some(3), false), AckStep::Send(3));
        // Nothing new by a tick: no ack.
        assert_eq!(d.on_tick(at(610), Some(3), false), AckStep::Wait);
        assert_eq!(d.on_sequenced(at(620), 4, false, false), AckStep::Arm);
        assert_eq!(d.on_tick(at(920), Some(4), false), AckStep::Send(4));
    }

    #[test]
    fn a_designated_member_acks_at_once() {
        let mut d = duty(true);
        assert_eq!(d.on_sequenced(at(10), 2, true, false), AckStep::Send(2));
        // Already acked: a second designation has nothing to say.
        assert_eq!(d.on_sequenced(at(20), 2, true, false), AckStep::Wait);
    }

    #[test]
    fn a_member_acks_when_its_ack_is_stale() {
        let mut d = duty(true);
        assert_eq!(d.on_sequenced(at(100), 1, false, false), AckStep::Arm);
        // Traffic keeps the link busy, so only the deadline can fire.
        let mut now = 100;
        for seq in 2..12 {
            now += 250;
            assert_eq!(d.on_sequenced(at(now), seq, false, false), AckStep::Wait);
            let tick = d.on_tick(at(now + 1), Some(seq), false);
            if now + 1 - 100 >= ACK_DEADLINE.as_micros() {
                assert_eq!(tick, AckStep::Send(seq));
                return;
            }
            assert_eq!(tick, AckStep::Arm);
        }
        panic!("the deadline never fired");
    }

    #[test]
    fn a_member_acks_when_the_link_has_been_quiet() {
        let mut d = duty(true);
        assert_eq!(d.on_sequenced(at(100), 1, false, false), AckStep::Arm);
        assert_eq!(d.on_tick(at(399), Some(1), false), AckStep::Arm);
        assert_eq!(d.on_tick(at(400), Some(1), false), AckStep::Send(1));
    }

    #[test]
    fn a_piggyback_clears_the_duty() {
        let mut d = duty(true);
        assert_eq!(d.on_sequenced(at(100), 3, false, false), AckStep::Arm);
        assert_eq!(d.piggyback(3, false), 3);
        assert_eq!(d.piggyback(3, false), 0, "nothing new to carry");
        // The tick finds the duty retired, however stale or quiet.
        assert_eq!(d.on_tick(at(5_000), Some(3), false), AckStep::Wait);
        // All-ack never piggybacks.
        let mut all = duty(false);
        all.on_sequenced(at(100), 3, false, false);
        assert_eq!(all.piggyback(3, false), 0);
    }

    #[test]
    fn the_coordinator_never_piggybacks_and_self_acks() {
        for cumulative in [false, true] {
            let mut d = duty(cumulative);
            assert_eq!(d.on_sequenced(at(100), 3, true, true), AckStep::SelfAck(3));
            assert_eq!(d.piggyback(3, true), 0);
            // A tick armed while it was a member acks nothing over the
            // wire, however stale or quiet.
            assert_eq!(d.on_tick(at(9_000), Some(3), true), AckStep::Wait);
        }
    }

    #[test]
    fn install_restarts_the_count() {
        let mut d = duty(true);
        assert_eq!(d.on_sequenced(at(10), 5, true, false), AckStep::Send(5));
        d.install(at(20), false);
        assert_eq!(d.on_sequenced(at(30), 1, false, false), AckStep::Arm);
        assert_eq!(d.on_tick(at(330), Some(1), false), AckStep::Send(1));
    }
}
