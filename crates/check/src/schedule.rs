//! The randomized fault-schedule generator.
//!
//! A schedule is a list of [`Step`]s — the one fault vocabulary, defined
//! in [`todr_harness::fault`] — applied to a running cluster with a
//! fixed cadence (one step per 400 ms of virtual time, matching the
//! original nemesis test). The generator draws only the historical
//! kinds; [`Step::Partition`] and [`Step::RemoveReplica`] are
//! scripted-only. The runner re-applies the legality guards
//! ([`todr_harness::fault::Faults`]), so **any subsequence of a valid
//! schedule is a valid schedule**. That closure property is what makes
//! delta-debugging shrinking ([`crate::shrink`]) sound.

use todr_harness::fault::Step;
use todr_sim::SimRng;

/// Draws a random schedule of 1–6 steps for an `n`-server cluster.
///
/// The weighted step distribution (splits and merges most likely, leaves
/// rarest) and the **exact RNG draw order** mirror the original
/// `reconfig_nemesis` generator, so a given `SimRng` stream produces the
/// same schedules it always did.
pub fn generate_schedule(rng: &mut SimRng, n: usize) -> Vec<Step> {
    generate_schedule_with(rng, n, false)
}

/// Like [`generate_schedule`], optionally widening the step die with the
/// storage-fault steps ([`Step::CrashTorn`], [`Step::CorruptSector`]).
///
/// With `storage_faults = false` the draw sequence is bit-identical to
/// [`generate_schedule`] (the historical nemesis distribution); with
/// `storage_faults = true` a wider die is rolled, so the two modes
/// produce unrelated schedules from the same RNG stream — callers pick
/// one mode per exploration, never mix them mid-stream.
pub fn generate_schedule_with(rng: &mut SimRng, n: usize, storage_faults: bool) -> Vec<Step> {
    let len = (1 + rng.gen_range(6)) as usize;
    let die = if storage_faults { 19 } else { 15 };
    (0..len)
        .map(|_| match rng.gen_range(die) {
            0..=2 => Step::Split {
                cut: (1 + rng.gen_range(n as u64 - 1)) as usize,
            },
            3..=5 => Step::Merge,
            6..=7 => Step::Crash {
                server: rng.gen_range(n as u64) as usize,
            },
            8..=9 => Step::Recover {
                server: rng.gen_range(n as u64) as usize,
            },
            10..=11 => Step::Join {
                via: rng.gen_range(n as u64) as usize,
            },
            12 => Step::Leave {
                server: rng.gen_range(n as u64) as usize,
            },
            15..=16 => Step::CrashTorn {
                server: rng.gen_range(n as u64) as usize,
            },
            17..=18 => Step::CorruptSector {
                server: rng.gen_range(n as u64) as usize,
            },
            _ => Step::Quiet,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_bounded_and_deterministic() {
        let mut a = SimRng::new(0x5EED);
        let mut b = SimRng::new(0x5EED);
        for _ in 0..50 {
            let sa = generate_schedule(&mut a, 5);
            let sb = generate_schedule(&mut b, 5);
            assert_eq!(sa, sb);
            assert!((1..=6).contains(&sa.len()));
            for step in &sa {
                match *step {
                    Step::Split { cut } => assert!((1..5).contains(&cut)),
                    Step::Crash { server } | Step::Recover { server } | Step::Leave { server } => {
                        assert!(server < 5)
                    }
                    Step::Join { via } => assert!(via < 5),
                    Step::CrashTorn { .. } | Step::CorruptSector { .. } => {
                        panic!("storage-fault step from the historical generator")
                    }
                    Step::Partition { .. } | Step::RemoveReplica { .. } => {
                        panic!("scripted-only step from the generator")
                    }
                    Step::Merge | Step::Quiet => {}
                }
            }
        }
    }

    #[test]
    fn fault_free_mode_matches_historical_generator_exactly() {
        let mut a = SimRng::new(0x5EED);
        let mut b = SimRng::new(0x5EED);
        for _ in 0..50 {
            assert_eq!(
                generate_schedule(&mut a, 5),
                generate_schedule_with(&mut b, 5, false)
            );
        }
    }

    #[test]
    fn fault_mode_draws_storage_fault_steps() {
        let mut rng = SimRng::new(0x5EED);
        let mut torn = 0usize;
        let mut corrupt = 0usize;
        for _ in 0..200 {
            for step in generate_schedule_with(&mut rng, 5, true) {
                match step {
                    Step::CrashTorn { server } => {
                        assert!(server < 5);
                        torn += 1;
                    }
                    Step::CorruptSector { server } => {
                        assert!(server < 5);
                        corrupt += 1;
                    }
                    Step::Partition { .. } | Step::RemoveReplica { .. } => {
                        panic!("scripted-only step from the generator")
                    }
                    _ => {}
                }
            }
        }
        assert!(torn > 0, "no CrashTorn drawn in 200 schedules");
        assert!(corrupt > 0, "no CorruptSector drawn in 200 schedules");
    }

    #[test]
    fn step_json_is_pinned_and_round_trips() {
        let mut schedule = vec![
            Step::Split { cut: 3 },
            Step::Merge,
            Step::Crash { server: 1 },
            Step::Recover { server: 1 },
            Step::Join { via: 0 },
            Step::Leave { server: 4 },
            Step::CrashTorn { server: 2 },
            Step::CorruptSector { server: 3 },
            Step::Quiet,
        ];
        // Captured before the scripted-only kinds were appended: artifact
        // JSON for the generator's kinds must never drift.
        let json = |s: &[Step]| serde::json::to_string(s).unwrap();
        assert_eq!(
            json(&schedule),
            r#"[{"Split":{"cut":3}},"Merge",{"Crash":{"server":1}},{"Recover":{"server":1}},{"Join":{"via":0}},{"Leave":{"server":4}},{"CrashTorn":{"server":2}},{"CorruptSector":{"server":3}},"Quiet"]"#
        );
        schedule.push(Step::Partition {
            groups: vec![vec![0, 1], vec![2, 3], vec![4]],
        });
        schedule.push(Step::RemoveReplica { via: 0, dead: 4 });
        let back: Vec<Step> = serde::json::from_str(&json(&schedule)).unwrap();
        assert_eq!(back, schedule);
    }
}
