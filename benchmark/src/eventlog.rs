//! Reading the program's typed event log from outside: stage spans by
//! joining the generators' own stamps to `ProtocolEvent`s on the
//! `ActionId` a reply carries, and the view-change timings of the fault
//! workload.
//!
//! An event kind the benchmark joins on that is missing from the log is
//! an error naming it, never a silent zero.

use std::collections::BTreeMap;

use todr_core::ActionId;
use todr_sim::{EventColor, ProtocolEvent, RecordedEvent};

use crate::gen::Sample;

/// Instants of one action's life, virtual nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActionTimes {
    /// `ActionCreated` at the origin.
    pub created: Option<u64>,
    /// First `ActionOrdered{Red}` at the origin — with eager receipts,
    /// the instant the sequenced action came back.
    pub red_at_origin: Option<u64>,
    /// `ActionOrdered{Green}` at the origin.
    pub green_at_origin: Option<u64>,
    /// `FastCommit` at the origin, if the fast path answered.
    pub fast_commit: Option<u64>,
    /// Latest `ActionOrdered{Green}` at any replica.
    pub last_green: Option<u64>,
}

/// Per-action instants for every action in the log, keyed by
/// `(creator, creator-local sequence)`.
pub fn index_actions(events: &[RecordedEvent]) -> BTreeMap<(u32, u64), ActionTimes> {
    let mut idx: BTreeMap<(u32, u64), ActionTimes> = BTreeMap::new();
    for rec in events {
        let at = rec.at_nanos;
        match &rec.event {
            ProtocolEvent::ActionCreated { node, action_seq } => {
                idx.entry((*node, *action_seq)).or_default().created = Some(at);
            }
            ProtocolEvent::ActionOrdered {
                node,
                creator,
                action_seq,
                color,
            } => {
                let t = idx.entry((*creator, *action_seq)).or_default();
                match color {
                    EventColor::Red if node == creator => {
                        t.red_at_origin.get_or_insert(at);
                    }
                    EventColor::Green => {
                        if node == creator {
                            t.green_at_origin.get_or_insert(at);
                        }
                        t.last_green = Some(t.last_green.map_or(at, |g| g.max(at)));
                    }
                    _ => {}
                }
            }
            ProtocolEvent::FastCommit { node, action_seq } => {
                idx.entry((*node, *action_seq)).or_default().fast_commit = Some(at);
            }
            _ => {}
        }
    }
    idx
}

/// The boundary instants of one committed update (virtual nanoseconds),
/// from the generator's own stamps (`sent`, `reply`) and the program's
/// event log (the rest). Spans are differences of neighbours; the three
/// of [`StageSpan::admit`], [`StageSpan::created_to_commit`] and
/// [`StageSpan::commit_to_reply`] partition the commit latency exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpan {
    /// Request sent (closed loop) or due (open loop).
    pub sent: u64,
    /// The engine created the action.
    pub created: u64,
    /// The sequenced action came back to its origin (red there). With
    /// eager receipts this precedes green by a stability round;
    /// without, it is the green instant.
    pub receipt: u64,
    /// Green at the origin.
    pub green: u64,
    /// The commit point: `green`, or the fast-commit quorum instant
    /// when the fast path answered (which precedes `green`).
    pub commit: u64,
    /// The reply reached the generator.
    pub reply: u64,
    /// Green at the last replica.
    pub last_green: u64,
}

impl StageSpan {
    /// Sent (or due) until the action exists: client-side retry wait
    /// plus engine-side buffering during view changes.
    pub fn admit(&self) -> u64 {
        self.created - self.sent
    }

    /// Created until the commit point: forced write, ordering, safe
    /// delivery (or the fast quorum).
    pub fn created_to_commit(&self) -> u64 {
        self.commit - self.created
    }

    /// Commit point until the reply arrives: the CPU charge.
    pub fn commit_to_reply(&self) -> u64 {
        self.reply - self.commit
    }

    /// Created until the sequenced action is back at its origin.
    pub fn created_to_receipt(&self) -> u64 {
        self.receipt - self.created
    }

    /// Receipt until green, both at the origin.
    pub fn receipt_to_green(&self) -> u64 {
        self.green - self.receipt
    }

    /// Origin green until the last replica's green: follower lag.
    pub fn green_spread(&self) -> u64 {
        self.last_green - self.green
    }
}

/// Joins one generator sample to the action behind it.
///
/// Fails, naming what is missing, if the log lacks an event the join
/// needs or the instants are out of order.
pub fn stage_span(
    sample: Sample,
    action: ActionId,
    idx: &BTreeMap<(u32, u64), ActionTimes>,
) -> Result<StageSpan, String> {
    let key = (action.server.index(), action.index);
    let t = idx
        .get(&key)
        .ok_or_else(|| format!("no events at all for acknowledged action {action}"))?;
    let need = |v: Option<u64>, what: &str| {
        v.ok_or_else(|| format!("event log has no {what} event for acknowledged action {action}"))
    };
    let span = StageSpan {
        sent: sample.start_ns,
        created: need(t.created, "action-created")?,
        receipt: need(t.red_at_origin, "action-ordered(red) at the origin")?,
        green: need(t.green_at_origin, "action-ordered(green) at the origin")?,
        commit: t.fast_commit.or(t.green_at_origin).expect("green checked"),
        reply: sample.end_ns,
        last_green: need(t.last_green, "action-ordered(green)")?,
    };
    let ordered = span.sent <= span.created
        && span.created <= span.commit
        && span.commit <= span.reply
        && span.created <= span.receipt
        && span.receipt <= span.green
        && span.green <= span.last_green;
    if !ordered {
        return Err(format!("stage instants of {action} out of order: {span:?}"));
    }
    if span.admit() + span.created_to_commit() + span.commit_to_reply() != sample.latency_ns() {
        return Err(format!("stage spans of {action} do not sum to its latency"));
    }
    Ok(span)
}

/// Mean number of green marks a replica applies per delivery burst
/// (same replica, same instant) inside `[from, until)`.
pub fn mean_green_burst(events: &[RecordedEvent], from: u64, until: u64) -> Option<f64> {
    let mut last: BTreeMap<u32, u64> = BTreeMap::new();
    let (mut greens, mut bursts) = (0u64, 0u64);
    for rec in in_range(events, from, until) {
        if let ProtocolEvent::ActionOrdered {
            node,
            color: EventColor::Green,
            ..
        } = &rec.event
        {
            greens += 1;
            if last.insert(*node, rec.at_nanos) != Some(rec.at_nanos) {
                bursts += 1;
            }
        }
    }
    (bursts > 0).then(|| greens as f64 / bursts as f64)
}

/// The events with `from <= at < until` (the log is in emission order,
/// so in time order).
pub fn in_range(events: &[RecordedEvent], from: u64, until: u64) -> &[RecordedEvent] {
    let lo = events.partition_point(|e| e.at_nanos < from);
    let hi = events.partition_point(|e| e.at_nanos < until);
    &events[lo..hi]
}

/// For every replica, the highest green action sequence per creator it
/// ever announced. Green marks respect per-creator FIFO (Theorem 2), so
/// an action is green at a replica iff its sequence is at or below this.
pub fn green_cuts(events: &[RecordedEvent]) -> BTreeMap<u32, BTreeMap<u32, u64>> {
    let mut cuts: BTreeMap<u32, BTreeMap<u32, u64>> = BTreeMap::new();
    for rec in events {
        if let ProtocolEvent::ActionOrdered {
            node,
            creator,
            action_seq,
            color: EventColor::Green,
        } = &rec.event
        {
            let c = cuts.entry(*node).or_default().entry(*creator).or_insert(0);
            *c = (*c).max(*action_seq);
        }
    }
    cuts
}

/// Green count of `node` as last announced at or before `at`.
pub fn green_count_at(events: &[RecordedEvent], node: u32, at: u64) -> u64 {
    let hi = events.partition_point(|e| e.at_nanos <= at);
    events[..hi]
        .iter()
        .rev()
        .find_map(|rec| match &rec.event {
            ProtocolEvent::GreenLineAdvance { node: n, green } if *n == node => Some(*green),
            ProtocolEvent::EngineRecovered { node: n, green } if *n == node => Some(*green),
            _ => None,
        })
        .unwrap_or(0)
}

/// First instant at or after `from` at which `node` announces a green
/// count of at least `target` (`from` itself if it already had).
pub fn green_reaches(events: &[RecordedEvent], node: u32, target: u64, from: u64) -> Option<u64> {
    if green_count_at(events, node, from) >= target {
        return Some(from);
    }
    let lo = events.partition_point(|e| e.at_nanos < from);
    events[lo..].iter().find_map(|rec| match &rec.event {
        ProtocolEvent::GreenLineAdvance { node: n, green } if *n == node && *green >= target => {
            Some(rec.at_nanos)
        }
        ProtocolEvent::EngineRecovered { node: n, green } if *n == node && *green >= target => {
            Some(rec.at_nanos)
        }
        _ => None,
    })
}

/// First event at or after `from` matching `pick`, with its instant.
pub fn first_after<T>(
    events: &[RecordedEvent],
    from: u64,
    mut pick: impl FnMut(&ProtocolEvent) -> Option<T>,
) -> Option<(u64, T)> {
    let lo = events.partition_point(|e| e.at_nanos < from);
    events[lo..]
        .iter()
        .find_map(|rec| pick(&rec.event).map(|v| (rec.at_nanos, v)))
}

/// View-change timings after a fault at `fault_at`, seen at `observers`
/// (replicas that stay in the primary). The daemon delivers the
/// transitional and the next regular configuration together, when the
/// membership protocol has finished, so `detect` covers the failure
/// timeout and the gather/flush rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewChange {
    /// Fault until the first `TransitionalConfig` at an observer.
    pub detect: u64,
    /// The same observer's next `ViewInstalled` until its next
    /// `GreenLineAdvance`: the engine's exchange and primary
    /// installation.
    pub exchange: u64,
}

/// See [`ViewChange`]. Errors name the event kind that never appeared.
pub fn view_change(
    events: &[RecordedEvent],
    fault_at: u64,
    observers: &[u32],
) -> Result<ViewChange, String> {
    let (t_trans, node) = first_after(events, fault_at, |e| match e {
        ProtocolEvent::TransitionalConfig { node, .. } if observers.contains(node) => Some(*node),
        _ => None,
    })
    .ok_or_else(|| format!("no transitional-config event after the fault at {fault_at} ns"))?;
    let (t_view, ()) = first_after(events, t_trans, |e| match e {
        ProtocolEvent::ViewInstalled { node: n, .. } if *n == node => Some(()),
        _ => None,
    })
    .ok_or_else(|| format!("no view-installed event at replica {node} after {t_trans} ns"))?;
    let (t_green, ()) = first_after(events, t_view, |e| match e {
        ProtocolEvent::GreenLineAdvance { node: n, .. } if *n == node => Some(()),
        _ => None,
    })
    .ok_or_else(|| format!("no green-line-advance event at replica {node} after {t_view} ns"))?;
    Ok(ViewChange {
        detect: t_trans - fault_at,
        exchange: t_green - t_view,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use todr_net::NodeId;

    fn rec(at: u64, event: ProtocolEvent) -> RecordedEvent {
        RecordedEvent {
            at_nanos: at,
            actor: 0,
            group: 0,
            event,
        }
    }

    fn ordered(at: u64, node: u32, creator: u32, seq: u64, color: EventColor) -> RecordedEvent {
        rec(
            at,
            ProtocolEvent::ActionOrdered {
                node,
                creator,
                action_seq: seq,
                color,
            },
        )
    }

    #[test]
    fn stage_spans_partition_the_latency() {
        let events = vec![
            rec(
                100,
                ProtocolEvent::ActionCreated {
                    node: 2,
                    action_seq: 7,
                },
            ),
            ordered(400, 2, 2, 7, EventColor::Red),
            ordered(400, 2, 2, 7, EventColor::Green),
            ordered(450, 0, 2, 7, EventColor::Red),
            ordered(450, 0, 2, 7, EventColor::Green),
        ];
        let idx = index_actions(&events);
        let action = ActionId {
            server: NodeId::new(2),
            index: 7,
        };
        let sample = Sample {
            start_ns: 90,
            end_ns: 520,
        };
        let s = stage_span(sample, action, &idx).expect("joins");
        assert_eq!(
            (s.admit(), s.created_to_commit(), s.commit_to_reply()),
            (10, 300, 120)
        );
        assert_eq!(s.green_spread(), 50);
        assert_eq!(s.receipt_to_green(), 0);
        // A missing event is named, not zeroed.
        let other = ActionId {
            server: NodeId::new(2),
            index: 8,
        };
        let err = stage_span(sample, other, &idx).unwrap_err();
        assert!(err.contains("n2#8"), "{err}");
        assert_eq!(mean_green_burst(&events, 0, 1_000), Some(1.0));
        assert_eq!(green_cuts(&events)[&0][&2], 7);
    }

    #[test]
    fn view_change_timings_chain() {
        let events = vec![
            rec(
                1_200,
                ProtocolEvent::TransitionalConfig {
                    node: 5,
                    conf_seq: 1,
                },
            ),
            rec(
                1_250,
                ProtocolEvent::TransitionalConfig {
                    node: 0,
                    conf_seq: 1,
                },
            ),
            rec(
                1_400,
                ProtocolEvent::ViewInstalled {
                    node: 0,
                    conf_seq: 2,
                    coordinator: 0,
                    members: 4,
                },
            ),
            rec(1_900, ProtocolEvent::GreenLineAdvance { node: 0, green: 9 }),
        ];
        let vc = view_change(&events, 1_000, &[0, 2, 3]).expect("chain");
        assert_eq!((vc.detect, vc.exchange), (250, 500));
        assert_eq!(green_count_at(&events, 0, 1_899), 0);
        assert_eq!(green_count_at(&events, 0, 1_900), 9);
        assert_eq!(green_reaches(&events, 0, 9, 1_000), Some(1_900));
        assert!(view_change(&events, 2_000, &[0]).is_err());
    }
}
