//! Property-based corruption drills for the persistent schedule store.
//!
//! The contract under test is the store's recovery promise: whatever a
//! crash, a torn write or silent media corruption leaves on disk,
//! `Store::open` never panics, recovers the longest valid record
//! prefix of the active segment, serves only records whose checksum
//! and key still verify, and accepts new writes that round-trip
//! byte-identically afterwards. A model check of record addressing
//! closes the file: whatever lands at a content hash, a lookup serves
//! only the record it asked for.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use noc_svc::cache::JobOutput;
use noc_svc::hash::ContentHash;
use noc_svc::store::{Store, StoreConfig, StoreStats, TieredStore};

/// A fresh per-case store directory under the OS temp dir.
fn fresh_dir(tag: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("noc-store-prop-{}-{tag:016x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> Store {
    Store::open(StoreConfig::new(dir), Arc::new(StoreStats::default())).expect("store opens")
}

/// Fills a store with `n` deterministic records and returns the
/// (key, body) pairs written.
fn fill(store: &Store, n: usize) -> Vec<(String, String)> {
    (0..n)
        .map(|i| {
            let key = format!("{{\"graph\":\"g{i}\",\"scheduler\":\"edf\"}}");
            let body = format!("{{\"schedule\":[{i},{i},{i}],\"makespan\":{}}}", i * 7 + 1);
            assert!(store.put(&key, &JobOutput::new(Arc::new(body.clone()))));
            (key, body)
        })
        .collect()
}

/// The single active segment's log file.
fn active_log(dir: &Path) -> PathBuf {
    dir.join("seg-00000001.log")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random single-byte corruption anywhere in the log: open never
    /// panics, every record it still serves is byte-identical to what
    /// was written, and a fresh write afterwards round-trips.
    #[test]
    fn open_survives_random_bit_flips(
        seed in 0u64..u64::MAX,
        records in 1usize..12,
        flips in prop::collection::vec((0usize..4096, 0u8..8), 1..6),
    ) {
        let dir = fresh_dir(seed);
        let written = {
            let store = open(&dir);
            fill(&store, records)
        };
        // Drop any stale packed index so the corrupted log itself is
        // what recovery reads.
        let _ = std::fs::remove_file(dir.join("seg-00000001.idx"));
        let log = active_log(&dir);
        let mut bytes = std::fs::read(&log).expect("log readable");
        for (pos, bit) in flips {
            let pos = pos % bytes.len();
            bytes[pos] ^= 1 << bit;
        }
        std::fs::write(&log, &bytes).expect("log writable");

        let store = open(&dir);
        for (key, body) in &written {
            if let Some(output) = store.get(key) {
                prop_assert_eq!(
                    output.body.as_str(), body.as_str(),
                    "a served record must be byte-identical despite corruption"
                );
            }
        }
        // The store keeps working: a follow-up write round-trips.
        let fresh = JobOutput::new(Arc::new("{\"fresh\":true}".to_owned()));
        if store.put("fresh-key", &fresh) {
            let got = store.get("fresh-key").expect("fresh write readable");
            prop_assert_eq!(got.body.as_str(), "{\"fresh\":true}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Random truncation (a torn tail): open recovers the longest
    /// valid prefix — every record fully before the cut survives
    /// byte-identically — and new writes append cleanly.
    #[test]
    fn truncation_recovers_longest_valid_prefix(
        seed in 0u64..u64::MAX,
        records in 1usize..12,
        cut in 0.0f64..1.0,
    ) {
        let dir = fresh_dir(seed ^ 0x1);
        let written = {
            let store = open(&dir);
            fill(&store, records)
        };
        let _ = std::fs::remove_file(dir.join("seg-00000001.idx"));
        let log = active_log(&dir);
        let len = std::fs::metadata(&log).expect("log exists").len();
        let keep = ((len as f64) * cut) as u64;
        let file = std::fs::OpenOptions::new().write(true).open(&log).expect("log opens");
        file.set_len(keep).expect("truncates");
        drop(file);

        // Frames are sequential, so the number of surviving records is
        // the count of whole frames within `keep` bytes.
        let store = open(&dir);
        let mut survivors = 0usize;
        for (key, body) in &written {
            if let Some(output) = store.get(key) {
                prop_assert_eq!(output.body.as_str(), body.as_str());
                survivors += 1;
            }
        }
        // Prefix property: if record i survived, records 0..i did too.
        let served: Vec<bool> = written.iter().map(|(k, _)| store.get(k).is_some()).collect();
        if let Some(first_gap) = served.iter().position(|s| !s) {
            prop_assert!(
                served[first_gap..].iter().all(|s| !s),
                "recovery must keep a prefix, not a subset: {served:?}"
            );
        }
        prop_assert_eq!(survivors, served.iter().filter(|s| **s).count());

        let fresh = JobOutput::new(Arc::new("{\"after\":\"truncate\"}".to_owned()));
        prop_assert!(store.put("post-truncate", &fresh), "store must accept writes after recovery");
        let got = store.get("post-truncate").expect("post-recovery write readable");
        prop_assert_eq!(got.body.as_str(), "{\"after\":\"truncate\"}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Duplicate and partial records appended past a valid log (what a
    /// crashed writer that retried might leave): open never panics and
    /// the original records still serve their exact bytes.
    #[test]
    fn duplicate_and_partial_tails_are_harmless(
        seed in 0u64..u64::MAX,
        records in 1usize..8,
        partial in 1usize..64,
        junk in prop::collection::vec(0u8..=255, 0..128),
    ) {
        let dir = fresh_dir(seed ^ 0x2);
        let written = {
            let store = open(&dir);
            fill(&store, records)
        };
        let _ = std::fs::remove_file(dir.join("seg-00000001.idx"));
        let log = active_log(&dir);
        let bytes = std::fs::read(&log).expect("log readable");
        let mut tail = bytes.clone();
        // A duplicate of the first record's frame, then a partial copy
        // of it, then arbitrary junk.
        let first_frame_len = bytes.len() / records.max(1);
        tail.extend_from_slice(&bytes[..first_frame_len.max(1)]);
        tail.extend_from_slice(&bytes[..partial.min(bytes.len())]);
        tail.extend_from_slice(&junk);
        std::fs::write(&log, &tail).expect("log writable");

        let store = open(&dir);
        for (key, body) in &written {
            if let Some(output) = store.get(key) {
                prop_assert_eq!(output.body.as_str(), body.as_str());
            }
        }
        // The first record sits wholly before any damage: it must serve.
        let (key0, body0) = &written[0];
        let got = store.get(key0).expect("first record must survive an appended tail");
        prop_assert_eq!(got.body.as_str(), body0.as_str());

        let fresh = JobOutput::new(Arc::new("{\"after\":\"tail\"}".to_owned()));
        prop_assert!(store.put("post-tail", &fresh));
        let got = store.get("post-tail").expect("post-tail write readable");
        prop_assert_eq!(got.body.as_str(), "{\"after\":\"tail\"}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Random inserts, keyed gets and id gets against a memory-only or
    /// disk-backed `TieredStore` whose 0–3-entry memory tier evicts
    /// and promotes, checked against a model of the disk tier. Some
    /// inserts put a key at another key's content hash, as a 128-bit
    /// collision would. No get ever serves another key's bytes: a
    /// keyed get returns the bytes inserted under its key or misses,
    /// and an id get returns a record whose key hashes to that id. A
    /// disk tier serves every key whose address it holds for that key.
    #[test]
    fn records_are_served_only_under_their_own_key(
        seed in 0u64..u64::MAX,
        capacity in 0usize..4,
        with_disk in prop::bool::ANY,
        ops in prop::collection::vec((0u8..10, 0usize..KEYS, 0usize..KEYS), 1..48),
    ) {
        let dir = fresh_dir(seed ^ 0x3);
        let store = if with_disk {
            TieredStore::with_disk(capacity, Some(open(&dir)))
        } else {
            TieredStore::memory_only(capacity)
        };
        // The model: keys ever inserted at their own hash, and the key
        // the disk tier holds at each key's hash (the first written).
        let mut inserted = [false; KEYS];
        let mut on_disk: [Option<usize>; KEYS] = [None; KEYS];
        for (op, k, at) in ops {
            match op {
                // Insert `k` at its own hash, then read it back.
                0..=2 => {
                    store.insert(&key(k), &record(k));
                    inserted[k] = true;
                    if with_disk {
                        on_disk[k].get_or_insert(k);
                    }
                    let got = store.get(&key(k));
                    if capacity > 0 || on_disk[k] == Some(k) {
                        prop_assert_eq!(
                            got.map(|o| o.body.to_string()),
                            Some(body(k)),
                            "a fresh insert must read back"
                        );
                    }
                }
                // Insert `k` at `at`'s hash.
                3 => {
                    store.insert_at(ContentHash::of(&key(at)), &key(k), &record(k), true);
                    inserted[k] |= k == at;
                    if with_disk {
                        on_disk[at].get_or_insert(k);
                    }
                }
                // Keyed get of `k`.
                4..=6 => {
                    let got = store.get(&key(k)).map(|o| o.body.to_string());
                    if let Some(served) = &got {
                        prop_assert_eq!(served, &body(k), "a keyed get served another key's bytes");
                        prop_assert!(inserted[k], "a keyed get served a key never inserted");
                    }
                    if on_disk[k] == Some(k) {
                        prop_assert!(got.is_some(), "the disk tier lost {}", key(k));
                    }
                }
                // Get by `k`'s id alone.
                _ => {
                    let hash = ContentHash::of(&key(k));
                    let got = store.get_by_id(hash);
                    if let Some((stored, output)) = &got {
                        prop_assert_eq!(ContentHash::of(stored), hash, "an id get served a foreign key");
                        prop_assert_eq!(output.body.as_str(), body(k));
                    }
                    if on_disk[k] == Some(k) {
                        prop_assert!(got.is_some(), "the disk tier lost {}", key(k));
                    }
                }
            }
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Distinct keys the addressing property draws from: few, so that
/// addresses repeat and the memory tier evicts.
const KEYS: usize = 5;

fn key(i: usize) -> String {
    format!("{{\"graph\":\"g{i}\",\"scheduler\":\"eas\"}}")
}

fn body(i: usize) -> String {
    format!("{{\"makespan\":{i}}}")
}

fn record(i: usize) -> JobOutput {
    JobOutput::new(Arc::new(body(i)))
}
