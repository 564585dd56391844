//! One encoded entry, many logs: every store that appends a
//! [`SharedEntry`] holds the same bytes, so a fault injected into one
//! store must damage a copy, never the bytes the others hold — and the
//! sealed checksum must be the one a store that encodes and seals on its
//! own computes. The same holds for a named record many stores are
//! handed as one shared blob (every replica's checkpoint of one database
//! version).

use std::sync::Arc;

use todr_sim::SimRng;
use todr_storage::{encode_record, SharedEntry, StableStore, StorageHandle};

fn bodies() -> Vec<SharedEntry> {
    (0..4)
        .map(|i| SharedEntry::encode(&format!("body {i}, shared by every replica")))
        .collect()
}

/// Three durable entries and one staged, the same in every store.
fn log_all(store: &mut StableStore, entries: &[SharedEntry]) {
    for entry in &entries[..3] {
        store.append_shared(entry);
    }
    store.commit_staged();
    store.append_shared(&entries[3]);
}

#[test]
fn damage_to_one_store_leaves_the_shared_bytes_alone() {
    let entries = bodies();
    let encodings: Vec<Vec<u8>> = entries.iter().map(|e| e.bytes().to_vec()).collect();
    for seed in 0..64u64 {
        let mut rng = SimRng::new(seed);
        let (mut hurt, mut clean) = (StableStore::new(), StableStore::new());
        log_all(&mut hurt, &entries);
        log_all(&mut clean, &entries);

        hurt.crash_torn(&mut rng);
        hurt.inject_bit_flip(&mut rng)
            .expect("durable records to rot");
        hurt.inject_stale_sector(&mut rng)
            .expect("an earlier sector");
        assert!(
            hurt.verify_log().is_err(),
            "seed {seed}: damage went unseen"
        );

        clean.commit_staged();
        assert_eq!(clean.verify_log(), Ok(()), "seed {seed}");
        assert_eq!(
            clean.log_iter().collect::<Vec<_>>(),
            encodings,
            "seed {seed}"
        );
        let shared: Vec<&[u8]> = entries.iter().map(SharedEntry::bytes).collect();
        assert_eq!(
            shared, encodings,
            "seed {seed}: the entries themselves changed"
        );
    }
}

#[test]
fn a_file_store_damages_its_copy_too() {
    let dir = std::env::temp_dir().join(format!("todr-shared-entries-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let entries = bodies();
    let mut file = StorageHandle::file(dir.clone()).expect("open file store");
    let mut clean = StableStore::new();
    for entry in &entries {
        file.append_shared(entry);
        clean.append_shared(entry);
    }
    file.commit_staged().expect("file commit");
    clean.commit_staged();
    let mut rng = SimRng::new(0x5EED);
    file.inject_bit_flip(&mut rng)
        .expect("durable records to rot");
    file.inject_stale_sector(&mut rng)
        .expect("an earlier sector");
    assert!(file.verify_log().is_err());
    assert_eq!(clean.verify_log(), Ok(()));
    let shared: Vec<&[u8]> = entries.iter().map(SharedEntry::bytes).collect();
    assert_eq!(clean.log_iter().collect::<Vec<_>>(), shared);
    let _ = std::fs::remove_dir_all(dir);
}

/// The seal is `checksum64(epoch_le || payload)`, as it was when each
/// store encoded and sealed its own copy: the literals were printed by
/// `append_log_typed` on a store of that design. Sharing the entry and
/// memoising its checksum must not change them, whether a seal computes
/// the checksum for its epoch or reuses an earlier seal's.
#[test]
fn a_shared_seal_has_the_pinned_checksum() {
    const BODY: &str = "one body, many logs";
    const PINNED: [(u64, u64); 2] = [(3, 0x4a87_ad13_f7b1_a94c), (7, 0x0e2b_b260_9d17_5b78)];
    let entry = SharedEntry::encode(&BODY.to_string());
    let checksum = |store: &StableStore| store.log_records().next().expect("appended").checksum;
    for (epoch, pinned) in PINNED {
        let mut own = StableStore::new();
        own.set_epoch(epoch);
        own.append_log_typed(&BODY.to_string());
        assert_eq!(checksum(&own), pinned, "epoch {epoch}");
        assert_eq!(own.log_iter().next(), Some(entry.bytes()));
    }
    // Epoch 3, then 7 twice (the second reuses the memo), then 3 again.
    for (epoch, pinned) in [PINNED[0], PINNED[1], PINNED[1], PINNED[0]] {
        let mut store = StableStore::new();
        store.set_epoch(epoch);
        store.append_shared(&entry);
        assert_eq!(checksum(&store), pinned, "epoch {epoch}");
        assert_eq!(store.verify_log(), Ok(()));
    }
}

/// A torn crash, a bit flip or a stale sector at one store changes no
/// other store's copy of a shared checkpoint record, durable or staged:
/// the injectors replace the payloads they damage and never write into
/// a record's bytes.
#[test]
fn damage_to_one_store_leaves_shared_record_bytes_alone() {
    let entries = bodies();
    let durable = encode_record(&("green database version", 40u64));
    let staged = encode_record(&("green database version", 48u64));
    let (durable_bytes, staged_bytes) = (durable.to_vec(), staged.to_vec());
    for seed in 0..64u64 {
        let mut rng = SimRng::new(seed);
        let (mut hurt, mut clean) = (StableStore::new(), StableStore::new());
        for store in [&mut hurt, &mut clean] {
            store.put_record_shared("base", Arc::clone(&durable));
            log_all(store, &entries);
            store.put_record_shared("base", Arc::clone(&staged));
        }

        hurt.crash_torn(&mut rng);
        hurt.inject_bit_flip(&mut rng)
            .expect("durable records to rot");
        hurt.inject_stale_sector(&mut rng)
            .expect("an earlier sector");
        assert!(
            hurt.verify_log().is_err(),
            "seed {seed}: damage went unseen"
        );
        let base = |store: &StableStore| store.get_record_bytes("base").expect("sim store reads");
        assert_eq!(base(&hurt), Some(durable_bytes.clone()), "seed {seed}");
        assert_eq!(base(&clean), Some(staged_bytes.clone()), "seed {seed}");
        clean.crash();
        assert_eq!(base(&clean), Some(durable_bytes.clone()), "seed {seed}");
        assert_eq!(
            (&durable[..], &staged[..]),
            (&durable_bytes[..], &staged_bytes[..]),
            "seed {seed}: the shared record bytes changed"
        );
    }
}
