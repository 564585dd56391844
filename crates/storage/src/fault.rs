//! Deterministic storage fault injection.
//!
//! Real crashes do not stop politely at record boundaries: the final
//! sector of the log may be half-written (**torn**), previously
//! acknowledged sectors may rot (**bit flip**), and a lying controller
//! may serve an old version of a sector whose header looks current
//! (**stale sector**). This module injects exactly those faults into a
//! [`StableStore`], driven by the simulation's dedicated fault RNG
//! stream (`Ctx::fault_rng`) so every run replays byte-identically and
//! a faulty run shares all non-fault events with its fault-free twin.
//! A file-backed [`StorageHandle`](crate::StorageHandle) runs these
//! same methods on its image and then writes the damage to disk, so
//! each fault and its RNG draws exist once.
//!
//! The recovery contract these faults exercise (see
//! `todr-core::persist`): a torn **final** record is expected — the
//! crash interrupted an in-flight append whose data was never
//! acknowledged durable, so truncating it loses nothing the protocol
//! promised (the paper's `vulnerable`/red actions are re-fetched from
//! peers on rejoin). Anything invalid **before** the tail means
//! acknowledged data is gone, and the only safe answer is fail-stop.

use std::sync::Arc;

use todr_sim::SimRng;

use crate::store::{LogRecord, StableStore};

/// Outcome of a [`StableStore::inject_bit_flip`] /
/// [`StableStore::inject_stale_sector`] call: which persisted log
/// record was damaged, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Index of the damaged persisted log record.
    pub index: u64,
}

impl StableStore {
    /// Simulates a power failure that tears the write in flight: a
    /// random prefix of the staged log entries reaches the platter
    /// intact, the next one is cut mid-record (its checksum no longer
    /// matches), and the rest — like all staged record mutations — are
    /// lost.
    ///
    /// A staged *truncation* (checkpoint) is modelled as an atomic
    /// journal swap, so a crash mid-checkpoint degrades to a clean
    /// [`StableStore::crash`]; likewise when nothing was staged.
    pub fn crash_torn(&mut self, rng: &mut SimRng) {
        if self.staged_truncate || self.staged_log.is_empty() {
            self.crash();
            return;
        }
        let staged = std::mem::take(&mut self.staged_log);
        let torn_at = rng.gen_range(staged.len() as u64) as usize;
        for (i, record) in staged.into_iter().enumerate() {
            if i < torn_at {
                self.persisted_log.push(record);
            } else if i == torn_at {
                self.persisted_log.push(tear(record, rng));
            } else {
                break; // never reached the platter
            }
        }
        self.drop_staged_records();
        self.staged_truncate = false;
    }

    /// Flips one random bit in one random persisted log record's
    /// payload (simulated bit rot / latent sector error). Returns which
    /// record was damaged, or `None` when the log has no payload bytes
    /// to damage.
    pub fn inject_bit_flip(&mut self, rng: &mut SimRng) -> Option<InjectedFault> {
        let candidates: Vec<usize> = (0..self.persisted_log.len())
            .filter(|&i| !self.persisted_log[i].bytes.is_empty())
            .collect();
        let &index = rng.choose(&candidates)?;
        let record = &mut self.persisted_log[index];
        record.bytes = flip_bit(&record.bytes, rng);
        Some(InjectedFault {
            index: index as u64,
        })
    }

    /// Serves a stale sector: one random persisted log record's payload
    /// is replaced by the payload of an *earlier* record, while its
    /// header (epoch and checksum) stays current — the medium returned
    /// old data under a fresh-looking header. The checksum no longer
    /// covers the served bytes, which is precisely what a
    /// checksum-verifying recovery catches and a trusting one does not.
    /// Returns which record was damaged, or `None` when the persisted
    /// log is too short to have an earlier sector to serve.
    pub fn inject_stale_sector(&mut self, rng: &mut SimRng) -> Option<InjectedFault> {
        if self.persisted_log.len() < 2 {
            return None;
        }
        let index = 1 + rng.gen_range(self.persisted_log.len() as u64 - 1) as usize;
        let stale_from = rng.gen_range(index as u64) as usize;
        let stale_bytes = Arc::clone(&self.persisted_log[stale_from].bytes);
        self.persisted_log[index].bytes = stale_bytes;
        Some(InjectedFault {
            index: index as u64,
        })
    }
}

/// A copy of `bytes` with one random bit flipped. The payload may be
/// shared with other stores' records, so the damage goes to fresh
/// bytes, never to the shared ones.
fn flip_bit(bytes: &[u8], rng: &mut SimRng) -> Arc<[u8]> {
    let mut rotten = bytes.to_vec();
    let byte = rng.gen_range(rotten.len() as u64) as usize;
    let bit = rng.gen_range(8) as u8;
    rotten[byte] ^= 1 << bit;
    rotten.into()
}

/// Cuts a record's payload at a random boundary strictly inside it;
/// its checksum never lands (see [`LogRecord::torn`]).
fn tear(record: LogRecord, rng: &mut SimRng) -> LogRecord {
    let cut = match record.bytes.len() {
        0 => 0,
        len => rng.gen_range(len as u64) as usize,
    };
    LogRecord::torn(record.epoch, &record.bytes[..cut])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{LogFault, LogFaultKind};

    fn rng() -> SimRng {
        SimRng::new(0xFA17)
    }

    fn store_with_durable(entries: &[&[u8]]) -> StableStore {
        let mut store = StableStore::new();
        for e in entries {
            store.append_log(e.to_vec());
        }
        store.commit_staged();
        store
    }

    #[test]
    fn clean_log_verifies() {
        let store = store_with_durable(&[b"a", b"bb", b"ccc"]);
        assert_eq!(store.verify_log(), Ok(()));
    }

    #[test]
    fn torn_crash_leaves_exactly_one_invalid_tail_record() {
        for seed in 0..64u64 {
            let mut rng = SimRng::new(seed);
            let mut store = store_with_durable(&[b"durable-1", b"durable-2"]);
            store.append_log(b"staged-1-padding-padding".to_vec());
            store.append_log(b"staged-2-padding-padding".to_vec());
            store.append_log(b"staged-3-padding-padding".to_vec());
            store.crash_torn(&mut rng);
            assert!(!store.has_staged());
            let fault = store.verify_log().expect_err("tail must be torn");
            assert_eq!(fault.kind, LogFaultKind::Checksum);
            // The invalid record is the *last* one: everything before
            // the tear is intact, everything after never landed.
            assert_eq!(fault.index + 1, store.log_len() as u64);
            assert!(fault.index >= 2, "durable prefix survived");
            // Repair: truncate the tear, the rest verifies.
            store.truncate_log_from(fault.index);
            assert_eq!(store.verify_log(), Ok(()));
            assert!(store.log_len() >= 2);
        }
    }

    #[test]
    fn a_torn_empty_entry_still_fails_its_checksum() {
        let mut store = store_with_durable(&[b"durable"]);
        store.append_log(Vec::new());
        store.crash_torn(&mut rng());
        assert_eq!(
            store.verify_log(),
            Err(LogFault {
                index: 1,
                kind: LogFaultKind::Checksum,
            })
        );
    }

    #[test]
    fn torn_crash_with_nothing_staged_is_a_clean_crash() {
        let mut store = store_with_durable(&[b"a", b"b"]);
        store.crash_torn(&mut rng());
        assert_eq!(store.verify_log(), Ok(()));
        assert_eq!(store.log_len(), 2);
    }

    #[test]
    fn torn_crash_mid_checkpoint_reverts_the_truncation() {
        let mut store = store_with_durable(&[b"a", b"b"]);
        store.truncate_log();
        store.append_log(b"compacted".to_vec());
        store.crash_torn(&mut rng());
        // The journal swap is atomic: the old log is fully back.
        assert_eq!(store.verify_log(), Ok(()));
        assert_eq!(store.log_iter().collect::<Vec<_>>(), vec![b"a", b"b"]);
    }

    #[test]
    fn bit_flip_is_caught_by_the_checksum() {
        for seed in 0..64u64 {
            let mut rng = SimRng::new(seed);
            let mut store = store_with_durable(&[b"record-one", b"record-two", b"record-three"]);
            let fault = store.inject_bit_flip(&mut rng).expect("log is non-empty");
            assert_eq!(
                store.verify_log(),
                Err(LogFault {
                    index: fault.index,
                    kind: LogFaultKind::Checksum,
                })
            );
        }
    }

    #[test]
    fn bit_flip_on_empty_log_is_a_no_op() {
        let mut store = StableStore::new();
        assert_eq!(store.inject_bit_flip(&mut rng()), None);
    }

    #[test]
    fn stale_sector_is_caught_by_the_checksum() {
        for seed in 0..64u64 {
            let mut rng = SimRng::new(seed);
            let mut store = store_with_durable(&[b"record-one", b"record-two", b"record-three"]);
            let fault = store
                .inject_stale_sector(&mut rng)
                .expect("log has at least two records");
            assert!(fault.index >= 1);
            let err = store.verify_log().expect_err("stale sector must be caught");
            assert_eq!(err.index, fault.index);
        }
    }

    #[test]
    fn stale_sector_needs_an_earlier_record() {
        let mut store = store_with_durable(&[b"only"]);
        assert_eq!(store.inject_stale_sector(&mut rng()), None);
    }

    #[test]
    fn epoch_regression_is_detected() {
        let mut store = StableStore::new();
        store.set_epoch(3);
        store.append_log(b"incarnation-3".to_vec());
        store.commit_staged();
        // Simulate a stale sector whose *whole record* (header included)
        // is from an earlier incarnation: the checksum is internally
        // consistent, only the epoch seal gives it away.
        store.set_epoch(1);
        store.append_log(b"stale-incarnation-1".to_vec());
        store.commit_staged();
        assert_eq!(
            store.verify_log(),
            Err(LogFault {
                index: 1,
                kind: LogFaultKind::EpochRegression,
            })
        );
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut rng = SimRng::new(seed);
            let mut store = store_with_durable(&[b"aaaa", b"bbbb", b"cccc", b"dddd"]);
            store.append_log(b"staged-tail".to_vec());
            store.crash_torn(&mut rng);
            store.inject_bit_flip(&mut rng);
            (
                store.log_records().cloned().collect::<Vec<_>>(),
                store.verify_log(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
    }
}
