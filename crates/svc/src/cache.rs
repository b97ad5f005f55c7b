//! Content-addressed LRU cache of rendered schedule responses.
//!
//! Entries are addressed by the [`ContentHash`] of their *canonical
//! request string* (see [`crate::hash`]): two requests that describe
//! the same (CTG, platform, faults, config) problem — regardless of
//! JSON key order, whitespace or volatile fields like `mode` — share one
//! entry. Each entry keeps its full key, which keyed lookups compare,
//! so two keys whose hashes collide never share bytes. Values are the
//! exact response bodies served to clients, so a hit returns bytes
//! identical to the cold run.

use std::collections::HashMap;
use std::sync::Arc;

use crate::hash::ContentHash;

/// A finished schedule as served to clients: the rendered response body
/// plus whether it came from the degraded EDF fallback. The flag rides
/// along so a cache hit (or a finished-twin join) reproduces the
/// `Degraded-Mode` header exactly as the cold run sent it.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The exact response body bytes.
    pub body: Arc<String>,
    /// `true` when the body is the degraded EDF fallback schedule.
    pub degraded: bool,
    /// Pre-rendered trace summary JSON from the producing run, spliced
    /// into the response only for requests that opt in via `"stats"`.
    /// Kept out of `body` so the cached bytes — and the cache key —
    /// are unaffected by whether any caller asked for stats.
    pub stats: Option<Arc<String>>,
}

impl JobOutput {
    /// A normal (non-degraded) output.
    #[must_use]
    pub fn new(body: Arc<String>) -> Self {
        JobOutput {
            body,
            degraded: false,
            stats: None,
        }
    }
}

/// Bounded LRU map from content hash to canonical request and rendered
/// response body.
#[derive(Debug)]
pub struct ScheduleCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<ContentHash, Entry>,
}

#[derive(Debug)]
struct Entry {
    key: String,
    output: JobOutput,
    last_used: u64,
}

impl ScheduleCache {
    /// Creates a cache holding at most `capacity` responses. A capacity
    /// of zero disables caching entirely (every lookup misses).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ScheduleCache {
            capacity,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// The entry at `hash` — its stored key and output — refreshing its
    /// recency. Callers holding a key compare it with the stored one.
    pub fn get(&mut self, hash: ContentHash) -> Option<(&str, JobOutput)> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&hash).map(|e| {
            e.last_used = tick;
            (e.key.as_str(), e.output.clone())
        })
    }

    /// Inserts (or replaces) the entry at `hash`, evicting the
    /// least-recently-used entry when the cache is full. Eviction scans
    /// all entries — O(n), fine for the few-thousand-entry caches this
    /// service runs with.
    pub fn insert(&mut self, hash: ContentHash, key: String, output: JobOutput) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.entries.contains_key(&hash) && self.entries.len() >= self.capacity {
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(h, _)| *h)
            {
                self.entries.remove(&lru);
            }
        }
        let tick = self.tick;
        self.entries.insert(
            hash,
            Entry {
                key,
                output,
                last_used: tick,
            },
        );
    }

    /// The content hashes of every cached response.
    #[must_use]
    pub fn hashes(&self) -> Vec<ContentHash> {
        self.entries.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> JobOutput {
        JobOutput::new(Arc::new(s.to_owned()))
    }

    /// Inserts `key` at its own content hash.
    fn put(c: &mut ScheduleCache, key: &str, output: JobOutput) {
        c.insert(ContentHash::of(key), key.to_owned(), output);
    }

    /// The output stored under `key`, when the entry at its hash holds it.
    fn get(c: &mut ScheduleCache, key: &str) -> Option<JobOutput> {
        let (stored, output) = c.get(ContentHash::of(key))?;
        (stored == key).then_some(output)
    }

    #[test]
    fn hit_returns_the_inserted_bytes() {
        let mut c = ScheduleCache::new(4);
        assert!(get(&mut c, "k").is_none());
        put(&mut c, "k", body("payload"));
        assert_eq!(get(&mut c, "k").expect("hit").body.as_str(), "payload");
        assert_eq!(c.hashes(), vec![ContentHash::of("k")]);
    }

    #[test]
    fn degraded_flag_survives_the_cache() {
        let mut c = ScheduleCache::new(4);
        put(
            &mut c,
            "k",
            JobOutput {
                body: Arc::new("fallback".to_owned()),
                degraded: true,
                stats: None,
            },
        );
        let hit = get(&mut c, "k").expect("hit");
        assert!(hit.degraded, "hits must reproduce the Degraded-Mode flag");
    }

    #[test]
    fn eviction_removes_the_least_recently_used() {
        let mut c = ScheduleCache::new(2);
        put(&mut c, "a", body("A"));
        put(&mut c, "b", body("B"));
        assert!(get(&mut c, "a").is_some()); // a is now fresher than b
        put(&mut c, "c", body("C"));
        assert!(get(&mut c, "b").is_none(), "b was LRU and must be evicted");
        assert!(get(&mut c, "a").is_some());
        assert!(get(&mut c, "c").is_some());
        assert_eq!(c.hashes().len(), 2);
    }

    #[test]
    fn reinsert_refreshes_without_growing() {
        let mut c = ScheduleCache::new(2);
        put(&mut c, "a", body("A"));
        put(&mut c, "a", body("A2"));
        assert_eq!(c.hashes(), vec![ContentHash::of("a")]);
        assert_eq!(get(&mut c, "a").expect("hit").body.as_str(), "A2");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ScheduleCache::new(0);
        put(&mut c, "a", body("A"));
        assert!(get(&mut c, "a").is_none());
        assert!(c.hashes().is_empty());
    }
}
