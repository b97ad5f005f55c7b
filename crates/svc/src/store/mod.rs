//! Two-tier content-addressed persistent schedule store.
//!
//! The service's most valuable state is a finished schedule: computing
//! one costs seconds of search, serving one costs a map lookup. This
//! module makes that state durable. A [`TieredStore`] fronts the
//! in-memory LRU ([`crate::cache::ScheduleCache`]) over an on-disk
//! [`Store`]: an append-only segment log of checksummed,
//! length-prefixed response records (`store/segment.rs`) plus a packed
//! immutable index per sealed segment, rebuilt on rotation
//! (`store/index.rs`). Lookups hit RAM first, fall to disk, and promote disk
//! hits back into RAM; inserts write through. Keys are canonical
//! request strings — the same content addressing as the cache — so a
//! restart, an LRU eviction, or a second replica sharing the directory
//! layout all resolve previously-served requests to byte-identical
//! responses without recomputing.
//!
//! # Robustness contract
//!
//! The store may *lose* records (crash before the write, quarantined
//! corruption, full disk); it must never *serve wrong bytes* and never
//! fail a request:
//!
//! * every record carries an FNV-1a checksum, re-verified on every
//!   read — bit rot is quarantined (dropped from the index, counted in
//!   [`StoreStats::quarantined`]), never served;
//! * [`Store::open`] accepts the longest valid prefix of each segment:
//!   a torn tail on the active segment is truncated away, corrupt
//!   bytes in a sealed segment are quarantined in place;
//! * any disk I/O failure — injected via [`FaultPlan`] or real —
//!   trips the store into **memory-only degradation**: the disk tier
//!   stops answering, [`StoreStats::degraded`] raises the
//!   `noc_svc_store_degraded` gauge, the server adds a
//!   `Store-Degraded: memory-only` header, and requests keep being
//!   served from RAM and recomputation.
//!
//! The full format specification lives in `docs/STORE.md`.

pub mod fault;
mod index;
pub(crate) mod segment;

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::obs::{LogLevel, ServiceLog};

pub use fault::{FaultPlan, IoFault};

use crate::cache::{JobOutput, ScheduleCache};
use crate::hash::hash_lanes;
use index::IndexEntry;

/// Default segment rotation threshold: 8 MiB of records.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// Configuration for [`Store::open`].
pub struct StoreConfig {
    /// Directory holding `seg-*.log` / `seg-*.idx` files (created if
    /// absent).
    pub dir: PathBuf,
    /// Rotate the active segment once it exceeds this many bytes. A
    /// segment always holds at least one record, however large.
    pub segment_max_bytes: u64,
    /// Optional scripted fault injection (tests and chaos drills).
    pub faults: Option<Arc<FaultPlan>>,
}

impl StoreConfig {
    /// Defaults for `dir`: 8 MiB segments, no fault injection.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            segment_max_bytes: DEFAULT_SEGMENT_BYTES,
            faults: None,
        }
    }
}

/// Counters the store maintains; the engine shares this struct with
/// the metrics registry so `/metrics` renders live values. All plain
/// atomics — totals monotonically increase, `degraded`/`records`/
/// `segments` are gauges.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Disk-tier lookups that returned verified bytes.
    pub hits: AtomicU64,
    /// Disk-tier lookups that found nothing (or a lane collision).
    pub misses: AtomicU64,
    /// Records dropped because their bytes failed verification —
    /// corrupt regions found at open plus checksum failures at read.
    pub quarantined: AtomicU64,
    /// Disk I/O failures (each one trips degradation).
    pub faults: AtomicU64,
    /// Torn active-segment tails truncated at open.
    pub torn_tails: AtomicU64,
    /// Segment rotations performed.
    pub rotations: AtomicU64,
    /// Gauge: 1 while the disk tier is out of service.
    pub degraded: AtomicU64,
    /// Gauge: records currently indexed.
    pub records: AtomicU64,
    /// Gauge: segment files (sealed + active).
    pub segments: AtomicU64,
}

/// Where one record lives on disk.
#[derive(Debug, Clone, Copy)]
struct Loc {
    seq: u64,
    offset: u64,
    len: u32,
}

struct Inner {
    /// Key lanes (128-bit) to record location; collisions are resolved
    /// by comparing the stored full key on read.
    index: HashMap<u128, Loc>,
    /// Read handles, one per segment file.
    readers: HashMap<u64, File>,
    /// Append handle and running state of the active segment.
    active: File,
    active_seq: u64,
    active_len: u64,
    /// Every record in the active segment, for the rotation-time index.
    active_entries: Vec<IndexEntry>,
}

/// The on-disk tier. All operations are infallible at the API level:
/// errors degrade the store (memory-only mode) instead of surfacing.
pub struct Store {
    dir: PathBuf,
    segment_max_bytes: u64,
    faults: Option<Arc<FaultPlan>>,
    stats: Arc<StoreStats>,
    degraded: AtomicBool,
    /// The structured service log; bound by the engine after
    /// construction. Until then degradation events fall back to the
    /// process-wide stderr log.
    log: OnceLock<Arc<ServiceLog>>,
    inner: Mutex<Inner>,
}

fn lane_key(lanes: (u64, u64)) -> u128 {
    (u128::from(lanes.0) << 64) | u128::from(lanes.1)
}

fn seg_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:08}.log"))
}

fn idx_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:08}.idx"))
}

fn parse_seq(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

impl Store {
    /// Opens (creating if absent) the store in `config.dir`, recovering
    /// whatever valid records survive on disk. Sealed segments load
    /// from their packed index when it verifies, and are re-scanned
    /// (index rebuilt) when it does not; the active segment is always
    /// scanned and its torn tail, if any, truncated. Corrupt sealed
    /// regions are quarantined — counted, never served. This function
    /// never panics on corrupt input; it only errors on filesystem
    /// failures (and the engine answers those by running memory-only).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (create, open, read, truncate).
    pub fn open(config: StoreConfig, stats: Arc<StoreStats>) -> io::Result<Store> {
        fs::create_dir_all(&config.dir)?;
        let mut seqs: Vec<u64> = fs::read_dir(&config.dir)?
            .filter_map(|entry| parse_seq(entry.ok()?.file_name().to_str()?))
            .collect();
        seqs.sort_unstable();

        let mut index = HashMap::new();
        let mut readers = HashMap::new();
        let (&active_seq, sealed) = seqs.split_last().unwrap_or((&1, &[]));

        for &seq in sealed {
            let log = seg_path(&config.dir, seq);
            let log_len = fs::metadata(&log)?.len();
            let idx = idx_path(&config.dir, seq);
            let entries = match index::load_index(&idx, log_len) {
                Some(entries) => entries,
                None => {
                    let scan = segment::scan(&fs::read(&log)?);
                    if scan.valid_len < log_len {
                        // Never truncate a sealed segment: quarantine
                        // the corrupt region in place.
                        stats.quarantined.fetch_add(1, Ordering::Relaxed);
                    }
                    let entries: Vec<IndexEntry> = scan
                        .records
                        .iter()
                        .map(|r| IndexEntry {
                            lanes: r.record,
                            offset: r.offset,
                            len: r.len,
                        })
                        .collect();
                    // The index is only a cache; failing to rebuild it
                    // costs the next open a scan, nothing more.
                    let _ = index::write_index(&idx, &entries);
                    entries
                }
            };
            for e in entries {
                index.insert(
                    lane_key(e.lanes),
                    Loc {
                        seq,
                        offset: e.offset,
                        len: e.len,
                    },
                );
            }
            readers.insert(seq, File::open(&log)?);
        }

        let log = seg_path(&config.dir, active_seq);
        let mut active = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log)?;
        let mut bytes = Vec::new();
        active.read_to_end(&mut bytes)?;
        let scan = segment::scan(&bytes);
        let mut active_entries = Vec::with_capacity(scan.records.len());
        for r in &scan.records {
            index.insert(
                lane_key(r.record),
                Loc {
                    seq: active_seq,
                    offset: r.offset,
                    len: r.len,
                },
            );
            active_entries.push(IndexEntry {
                lanes: r.record,
                offset: r.offset,
                len: r.len,
            });
        }
        if scan.valid_len < bytes.len() as u64 {
            active.set_len(scan.valid_len)?;
            stats.torn_tails.fetch_add(1, Ordering::Relaxed);
        }
        active.seek(SeekFrom::Start(scan.valid_len))?;
        readers.insert(active_seq, File::open(&log)?);

        stats.records.store(index.len() as u64, Ordering::Relaxed);
        stats
            .segments
            .store(readers.len() as u64, Ordering::Relaxed);
        Ok(Store {
            dir: config.dir,
            segment_max_bytes: config.segment_max_bytes,
            faults: config.faults,
            stats,
            degraded: AtomicBool::new(false),
            log: OnceLock::new(),
            inner: Mutex::new(Inner {
                index,
                readers,
                active,
                active_seq,
                active_len: scan.valid_len,
                active_entries,
            }),
        })
    }

    /// `true` once any disk failure has tripped memory-only mode.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Looks `key` up on disk, re-verifying the record checksum and the
    /// stored full key. Returns `None` on miss, on quarantine, and in
    /// degraded mode — the caller recomputes; wrong bytes are never
    /// returned.
    pub fn get(&self, key: &str) -> Option<JobOutput> {
        if self.is_degraded() {
            return None;
        }
        let lanes = hash_lanes(key.as_bytes());
        let mut inner = self.inner.lock().expect("store lock");
        let Some(loc) = inner.index.get(&lane_key(lanes)).copied() else {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let read = match inner.readers.get_mut(&loc.seq) {
            Some(reader) => read_frame(reader, loc, self.faults.as_deref()),
            None => Err(io::Error::other("no reader for segment")),
        };
        let frame = match read {
            Ok(frame) => frame,
            Err(err) => {
                drop(inner);
                self.degrade(&format!("record read failed: {err}"));
                return None;
            }
        };
        match segment::decode_frame(&frame) {
            Some((stored_key, output)) if stored_key == key => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(output)
            }
            Some(_) => {
                // 128-bit lane collision: the record is valid but for a
                // different key. Treat as a miss; a write-through of
                // this key will re-point the lane slot.
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                inner.index.remove(&lane_key(lanes));
                self.stats
                    .records
                    .store(inner.index.len() as u64, Ordering::Relaxed);
                self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                drop(inner);
                self.degrade("record failed verification on read (quarantined)");
                None
            }
        }
    }

    /// Persists `(key, output)`, rotating the active segment when full.
    /// Content addressing makes the store append-once per key: if the
    /// key is already indexed the write is skipped (deterministic
    /// scheduling guarantees the bytes would be identical). Returns
    /// `true` when the key is durably indexed on return; `false` means
    /// the write was lost (degraded before or during) and the caller
    /// must keep its own copy durable.
    pub fn put(&self, key: &str, output: &JobOutput) -> bool {
        if self.is_degraded() {
            return false;
        }
        let lanes = hash_lanes(key.as_bytes());
        let frame = segment::encode_record(key, output);
        let mut inner = self.inner.lock().expect("store lock");
        if inner.index.contains_key(&lane_key(lanes)) {
            return true;
        }
        if inner.active_len > 0 && inner.active_len + frame.len() as u64 > self.segment_max_bytes {
            if let Err(err) = self.rotate(&mut inner) {
                drop(inner);
                self.degrade(&format!("segment rotation failed: {err}"));
                return false;
            }
        }
        if let Err(err) = self.append_frame(&mut inner.active, &frame) {
            drop(inner);
            self.degrade(&format!("record append failed: {err}"));
            return false;
        }
        let len = u32::try_from(frame.len()).expect("frame fits u32");
        let offset = inner.active_len;
        inner.active_entries.push(IndexEntry { lanes, offset, len });
        let loc = Loc {
            seq: inner.active_seq,
            offset,
            len,
        };
        inner.active_len += frame.len() as u64;
        inner.index.insert(lane_key(lanes), loc);
        self.stats
            .records
            .store(inner.index.len() as u64, Ordering::Relaxed);
        true
    }

    /// Looks a record up by its content-hash lanes — the index key
    /// itself — returning the stored full key alongside the output.
    /// This is the cluster's internal-lookup path: a peer knows only
    /// the 32-hex request hash, whose two 64-bit halves are exactly
    /// the lanes this index is keyed on. The record checksum is still
    /// verified; the full-key comparison of [`Store::get`] is
    /// impossible here (the caller has no key), so a 128-bit lane
    /// collision would alias — the same negligible-odds tradeoff the
    /// index itself already makes between distinct segments.
    pub fn get_by_lanes(&self, lanes: (u64, u64)) -> Option<(String, JobOutput)> {
        if self.is_degraded() {
            return None;
        }
        let mut inner = self.inner.lock().expect("store lock");
        let Some(loc) = inner.index.get(&lane_key(lanes)).copied() else {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let read = match inner.readers.get_mut(&loc.seq) {
            Some(reader) => read_frame(reader, loc, self.faults.as_deref()),
            None => Err(io::Error::other("no reader for segment")),
        };
        let frame = match read {
            Ok(frame) => frame,
            Err(err) => {
                drop(inner);
                self.degrade(&format!("record read failed: {err}"));
                return None;
            }
        };
        match segment::decode_frame(&frame) {
            Some((stored_key, output)) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some((stored_key, output))
            }
            None => {
                inner.index.remove(&lane_key(lanes));
                self.stats
                    .records
                    .store(inner.index.len() as u64, Ordering::Relaxed);
                self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                drop(inner);
                self.degrade("record failed verification on read (quarantined)");
                None
            }
        }
    }

    /// `true` when `key` is indexed and the disk tier is in service.
    /// This checks the index, not the bytes — journal compaction uses
    /// [`Store::get`] instead when it needs verified durability.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        !self.is_degraded()
            && self
                .inner
                .lock()
                .expect("store lock")
                .index
                .contains_key(&lane_key(hash_lanes(key.as_bytes())))
    }

    /// The content-hash lanes of every indexed record — the raw
    /// material of the cluster's anti-entropy digest. Empty while the
    /// tier is degraded: nothing is durably held then.
    #[must_use]
    pub fn indexed_lanes(&self) -> Vec<(u64, u64)> {
        if self.is_degraded() {
            return Vec::new();
        }
        self.inner
            .lock()
            .expect("store lock")
            .index
            .keys()
            .map(|k| ((k >> 64) as u64, *k as u64))
            .collect()
    }

    /// Number of records currently indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("store lock").index.len()
    }

    /// `true` when no records are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Seals the active segment (writing its index) and starts the
    /// next one.
    fn rotate(&self, inner: &mut Inner) -> io::Result<()> {
        let _ = index::write_index(
            &idx_path(&self.dir, inner.active_seq),
            &inner.active_entries,
        );
        let seq = inner.active_seq + 1;
        let log = seg_path(&self.dir, seq);
        let active = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&log)?;
        inner.readers.insert(seq, File::open(&log)?);
        inner.active = active;
        inner.active_seq = seq;
        inner.active_len = 0;
        inner.active_entries.clear();
        self.stats.rotations.fetch_add(1, Ordering::Relaxed);
        self.stats
            .segments
            .store(inner.readers.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// One whole-frame append, routed through fault injection.
    fn append_frame(&self, file: &mut File, frame: &[u8]) -> io::Result<()> {
        match self.faults.as_ref().and_then(|p| p.next_write()) {
            None => file.write_all(frame),
            Some(IoFault::BitFlip) => {
                // Silent corruption: the write "succeeds" with one
                // payload byte flipped; only the read-time checksum
                // can catch it.
                let mut corrupt = frame.to_vec();
                let last = corrupt.len() - 1;
                corrupt[last] ^= 0x10;
                file.write_all(&corrupt)
            }
            Some(IoFault::TornWrite) => {
                let _ = file.write_all(&frame[..frame.len() / 2]);
                Err(IoFault::TornWrite.to_error())
            }
            Some(fault) => Err(fault.to_error()),
        }
    }

    /// Attaches the structured service log for degradation events.
    /// Later calls are ignored.
    pub fn bind_log(&self, log: Arc<ServiceLog>) {
        let _ = self.log.set(log);
    }

    /// Trips memory-only mode. Idempotent; the first trip logs.
    fn degrade(&self, what: &str) {
        self.stats.faults.fetch_add(1, Ordering::Relaxed);
        if !self.degraded.swap(true, Ordering::Relaxed) {
            self.stats.degraded.store(1, Ordering::Relaxed);
            self.log
                .get()
                .cloned()
                .unwrap_or_else(ServiceLog::stderr_fallback)
                .event(
                    LogLevel::Error,
                    "store-degraded",
                    &format!("schedule store degraded to memory-only mode: {what}"),
                    &[],
                );
        }
    }
}

/// Reads one frame at `loc`, routed through read-channel fault
/// injection.
fn read_frame(reader: &mut File, loc: Loc, faults: Option<&FaultPlan>) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; loc.len as usize];
    reader.seek(SeekFrom::Start(loc.offset))?;
    reader.read_exact(&mut buf)?;
    match faults.and_then(FaultPlan::next_read) {
        None => {}
        Some(IoFault::BitFlip) => {
            let last = buf.len() - 1;
            buf[last] ^= 0x20;
        }
        Some(fault) => return Err(fault.to_error()),
    }
    Ok(buf)
}

/// The two-tier store the engine serves from: memory LRU in front,
/// optional disk tier behind. Lookups promote disk hits into memory;
/// inserts write through. When the disk tier was configured but is
/// absent (failed to open) or degraded, [`TieredStore::degraded`]
/// reports it so the server can advertise memory-only mode.
pub struct TieredStore {
    memory: Mutex<ScheduleCache>,
    disk: Option<Store>,
    disk_configured: bool,
}

impl TieredStore {
    /// A store with no disk tier (the pre-store service behaviour).
    #[must_use]
    pub fn memory_only(capacity: usize) -> TieredStore {
        TieredStore {
            memory: Mutex::new(ScheduleCache::new(capacity)),
            disk: None,
            disk_configured: false,
        }
    }

    /// A store whose configuration asked for a disk tier. `disk` is
    /// `None` when the tier failed to open — the store then runs
    /// memory-only and reports [`TieredStore::degraded`].
    #[must_use]
    pub fn with_disk(capacity: usize, disk: Option<Store>) -> TieredStore {
        TieredStore {
            memory: Mutex::new(ScheduleCache::new(capacity)),
            disk,
            disk_configured: true,
        }
    }

    /// Attaches the structured service log to the disk tier (no-op
    /// when the store runs memory-only).
    pub fn bind_log(&self, log: &Arc<ServiceLog>) {
        if let Some(disk) = &self.disk {
            disk.bind_log(Arc::clone(log));
        }
    }

    /// Memory first, then disk (promoting a disk hit into memory).
    pub fn get(&self, key: &str) -> Option<JobOutput> {
        if let Some(hit) = self.memory.lock().expect("cache lock").get(key) {
            return Some(hit);
        }
        let output = self.disk.as_ref()?.get(key)?;
        self.memory
            .lock()
            .expect("cache lock")
            .insert(key.to_owned(), output.clone());
        Some(output)
    }

    /// Write-through insert. Returns `true` when the bytes are durable
    /// on the disk tier (journal compaction then no longer needs to
    /// carry them).
    pub fn insert(&self, key: &str, output: &JobOutput) -> bool {
        self.insert_tiered(key, output, true)
    }

    /// Insert with an explicit disk-tier decision: the memory LRU is
    /// always written (every node serves what it just touched), the
    /// disk tier only when `write_disk` — how cluster nodes keep disk
    /// growth bounded to the key ranges they own or replicate. Returns
    /// disk durability, always `false` when the disk was skipped.
    pub fn insert_tiered(&self, key: &str, output: &JobOutput, write_disk: bool) -> bool {
        self.memory
            .lock()
            .expect("cache lock")
            .insert(key.to_owned(), output.clone());
        write_disk && self.disk.as_ref().is_some_and(|d| d.put(key, output))
    }

    /// Disk lookup by content-hash lanes (see [`Store::get_by_lanes`]),
    /// promoting a hit into the memory tier under its stored full key.
    pub fn get_by_lanes(&self, lanes: (u64, u64)) -> Option<(String, JobOutput)> {
        let (key, output) = self.disk.as_ref()?.get_by_lanes(lanes)?;
        self.memory
            .lock()
            .expect("cache lock")
            .insert(key.clone(), output.clone());
        Some((key, output))
    }

    /// `true` when `key` is resident in the memory tier, without
    /// touching its LRU recency or the disk — how the cluster digest
    /// enumerates memory-held records cheaply.
    #[must_use]
    pub fn contains_memory(&self, key: &str) -> bool {
        self.memory.lock().expect("cache lock").contains(key)
    }

    /// The disk tier, when one is open.
    #[must_use]
    pub fn disk(&self) -> Option<&Store> {
        self.disk.as_ref()
    }

    /// `true` when a disk tier was configured but is out of service —
    /// the condition the `Store-Degraded: memory-only` header and the
    /// `noc_svc_store_degraded` gauge advertise.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.disk_configured && self.disk.as_ref().is_none_or(|d| d.is_degraded())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("noc-store-{}-{name}", std::process::id()));
            let _ = fs::remove_dir_all(&path);
            TempDir(path)
        }

        fn config(&self) -> StoreConfig {
            StoreConfig {
                segment_max_bytes: 4096,
                ..StoreConfig::new(&self.0)
            }
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn output(body: &str) -> JobOutput {
        JobOutput::new(Arc::new(body.to_owned()))
    }

    fn open(config: StoreConfig) -> Store {
        Store::open(config, Arc::new(StoreStats::default())).expect("opens")
    }

    #[test]
    fn records_survive_reopen_byte_identically() {
        let tmp = TempDir::new("reopen");
        let store = open(tmp.config());
        for i in 0..20 {
            assert!(store.put(&format!("key-{i}"), &output(&format!("body-{i}"))));
        }
        drop(store);
        let store = open(tmp.config());
        assert_eq!(store.len(), 20);
        for i in 0..20 {
            let hit = store.get(&format!("key-{i}")).expect("hit");
            assert_eq!(hit.body.as_str(), format!("body-{i}"));
        }
    }

    #[test]
    fn rotation_seals_segments_and_reopen_uses_the_index() {
        let tmp = TempDir::new("rotate");
        let stats = Arc::new(StoreStats::default());
        let store = Store::open(tmp.config(), stats.clone()).expect("opens");
        let big = "x".repeat(1500);
        for i in 0..10 {
            store.put(&format!("key-{i}"), &output(&big));
        }
        assert!(
            stats.rotations.load(Ordering::Relaxed) >= 2,
            "1.5 KiB records must rotate 4 KiB segments"
        );
        drop(store);
        let idx_files = fs::read_dir(&tmp.0)
            .expect("lists")
            .filter(|e| {
                e.as_ref()
                    .expect("entry")
                    .path()
                    .extension()
                    .is_some_and(|x| x == "idx")
            })
            .count();
        assert!(idx_files >= 2, "sealed segments carry packed indexes");
        let store = open(tmp.config());
        for i in 0..10 {
            assert_eq!(
                store.get(&format!("key-{i}")).expect("hit").body.as_str(),
                big
            );
        }
    }

    #[test]
    fn torn_active_tail_is_truncated_and_appendable() {
        let tmp = TempDir::new("torn");
        let store = open(tmp.config());
        store.put("a", &output("alpha"));
        store.put("b", &output("beta"));
        drop(store);
        let log = seg_path(&tmp.0, 1);
        let bytes = fs::read(&log).expect("reads");
        fs::write(&log, &bytes[..bytes.len() - 5]).expect("tears");

        let stats = Arc::new(StoreStats::default());
        let store = Store::open(tmp.config(), stats.clone()).expect("recovers");
        assert_eq!(stats.torn_tails.load(Ordering::Relaxed), 1);
        assert_eq!(store.get("a").expect("hit").body.as_str(), "alpha");
        assert!(store.get("b").is_none(), "torn record must not serve");
        assert!(store.put("b", &output("beta")), "append after recovery");
        assert_eq!(store.get("b").expect("hit").body.as_str(), "beta");
    }

    #[test]
    fn write_faults_degrade_to_memory_only() {
        for fault in [IoFault::WriteError, IoFault::TornWrite, IoFault::DiskFull] {
            let tmp = TempDir::new(&format!("wfault-{fault:?}"));
            let plan = Arc::new(FaultPlan::new());
            plan.fail_write(1, fault);
            let stats = Arc::new(StoreStats::default());
            let store = Store::open(
                StoreConfig {
                    faults: Some(plan),
                    ..tmp.config()
                },
                stats.clone(),
            )
            .expect("opens");
            assert!(store.put("a", &output("alpha")));
            assert!(
                !store.put("b", &output("beta")),
                "injected fault loses the write"
            );
            assert!(store.is_degraded());
            assert_eq!(stats.degraded.load(Ordering::Relaxed), 1);
            assert!(store.get("a").is_none(), "degraded tier stops answering");
            assert!(
                !store.put("c", &output("gamma")),
                "degraded tier stops writing"
            );
            // The surviving prefix is intact for the next process.
            let store = open(tmp.config());
            assert_eq!(store.get("a").expect("hit").body.as_str(), "alpha");
        }
    }

    #[test]
    fn bit_flip_on_write_is_quarantined_at_read_never_served() {
        let tmp = TempDir::new("bitflip");
        let plan = Arc::new(FaultPlan::new());
        plan.fail_write(0, IoFault::BitFlip);
        let stats = Arc::new(StoreStats::default());
        let store = Store::open(
            StoreConfig {
                faults: Some(plan),
                ..tmp.config()
            },
            stats.clone(),
        )
        .expect("opens");
        assert!(
            store.put("a", &output("alpha")),
            "bit flip is silent at write"
        );
        assert!(store.get("a").is_none(), "corrupt record must never serve");
        assert_eq!(stats.quarantined.load(Ordering::Relaxed), 1);
        assert!(store.is_degraded(), "silent corruption distrusts the tier");
    }

    #[test]
    fn read_faults_degrade_without_serving_wrong_bytes() {
        let tmp = TempDir::new("rfault");
        let plan = Arc::new(FaultPlan::new());
        plan.fail_read(0, IoFault::BitFlip);
        let stats = Arc::new(StoreStats::default());
        let store = Store::open(
            StoreConfig {
                faults: Some(plan.clone()),
                ..tmp.config()
            },
            stats.clone(),
        )
        .expect("opens");
        store.put("a", &output("alpha"));
        assert!(
            store.get("a").is_none(),
            "in-flight bit flip caught by checksum"
        );
        assert_eq!(stats.quarantined.load(Ordering::Relaxed), 1);
        assert!(store.is_degraded());
    }

    #[test]
    fn puts_are_deduplicated_by_key() {
        let tmp = TempDir::new("dedup");
        let store = open(tmp.config());
        assert!(store.put("a", &output("alpha")));
        assert!(store.put("a", &output("alpha")));
        assert_eq!(store.len(), 1);
        drop(store);
        let store = open(tmp.config());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn stats_and_degraded_flag_round_trip_through_records() {
        let tmp = TempDir::new("flags");
        let store = open(tmp.config());
        store.put(
            "k",
            &JobOutput {
                body: Arc::new("fallback".to_owned()),
                degraded: true,
                stats: Some(Arc::new(r#"{"wall":2}"#.to_owned())),
            },
        );
        drop(store);
        let store = open(tmp.config());
        let hit = store.get("k").expect("hit");
        assert!(hit.degraded);
        assert_eq!(
            hit.stats.as_deref().map(String::as_str),
            Some(r#"{"wall":2}"#)
        );
    }

    #[test]
    fn tiered_store_promotes_disk_hits_and_reports_degradation() {
        let tmp = TempDir::new("tiered");
        {
            let store = open(tmp.config());
            store.put("k", &output("v"));
        }
        let stats = Arc::new(StoreStats::default());
        let disk = Store::open(tmp.config(), stats.clone()).expect("opens");
        let tiered = TieredStore::with_disk(4, Some(disk));
        assert!(!tiered.degraded());
        assert_eq!(tiered.get("k").expect("disk hit").body.as_str(), "v");
        assert_eq!(stats.hits.load(Ordering::Relaxed), 1);
        assert_eq!(tiered.get("k").expect("memory hit").body.as_str(), "v");
        assert_eq!(
            stats.hits.load(Ordering::Relaxed),
            1,
            "promoted: second hit is RAM"
        );

        let none = TieredStore::with_disk(4, None);
        assert!(none.degraded(), "configured-but-absent disk is degraded");
        assert!(
            TieredStore::memory_only(4).get("k").is_none(),
            "no disk tier without configuration"
        );
        assert!(!TieredStore::memory_only(4).degraded());
    }

    #[test]
    fn sealed_segment_corruption_quarantines_without_truncation() {
        let tmp = TempDir::new("sealed");
        let store = open(tmp.config());
        let big = "y".repeat(1500);
        for i in 0..10 {
            store.put(&format!("key-{i}"), &output(&big));
        }
        drop(store);
        // Corrupt the middle of the first (sealed) segment and delete
        // its index so recovery must rescan.
        let log = seg_path(&tmp.0, 1);
        let _ = fs::remove_file(idx_path(&tmp.0, 1));
        let mut bytes = fs::read(&log).expect("reads");
        let len_before = bytes.len();
        let mid = len_before / 2;
        bytes[mid] ^= 0xff;
        fs::write(&log, &bytes).expect("writes");

        let stats = Arc::new(StoreStats::default());
        let store = Store::open(tmp.config(), stats.clone()).expect("recovers");
        assert!(stats.quarantined.load(Ordering::Relaxed) >= 1);
        assert_eq!(
            fs::metadata(&log).expect("meta").len(),
            len_before as u64,
            "sealed segments are never truncated"
        );
        // Every record the store still serves is byte-identical.
        let mut served = 0;
        for i in 0..10 {
            if let Some(hit) = store.get(&format!("key-{i}")) {
                assert_eq!(hit.body.as_str(), big);
                served += 1;
            }
        }
        assert!(served >= 1, "the valid prefix must survive");
        assert!(served < 10, "the corrupt region must be quarantined");
    }
}
